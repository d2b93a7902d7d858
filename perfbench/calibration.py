"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU speed a process gets drifts by tens of percent over
seconds to minutes. A fixed pure-Python loop run next to each measured call
tracks that speed. Dividing a wall time by the loop's slowdown against
`REFERENCE_S` gives the time the call would take at the reference speed.
The loop runs between calls, never during one, and shares no code with
fqsalem, so a slower program still reads slower.
"""

import time

LOOPS = 300_000
REFERENCE_S = 0.03  # the loop's time at the reference speed


def loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two loops."""
    return (before + after) / (2 * REFERENCE_S)
