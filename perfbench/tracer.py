"""Outside-in tracing of fqsalem: spans around each layer's public functions.

The program is not edited. `Tracer.install` wraps the functions listed in
`LAYERS` and rebinds every `fqsalem.*` module attribute that refers to the
original, because modules import each other's functions by name
(`from .energy import energy_convolution`). Spans (name, start, end, parent)
are kept in memory and written out at the end; a layer's self time is its
spans' duration minus the child spans on the same thread.

Per-element `FieldSpec` methods are not wrapped here, since a span per call
would swamp the timings. `FieldOpCounter` counts them in a separate pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, function or Class.method names). Names missing from the
# program are skipped, so the tracer keeps working as functions move.
LAYERS = {
    "cli": ("fqsalem.cli", ["main"]),
    "harness": ("fqsalem.harness", ["run", "sweep", "render_report"]),
    "field": ("fqsalem.field", ["field_create"]),
    "geometry": ("fqsalem.geometry", ["PointSet.build"]),
    "constructions": ("fqsalem.constructions", [
        "ConstructionSpec.build", "random_pointset", "rotation_orbit",
        "isotropic_subspace", "product_set", "bernoulli_thin",
        "multiplicative_subgroup", "subgroup_power", "conjecture_witness",
        "two_set_sharpness"]),
    "spectral": ("fqsalem.spectral", [
        "fourier", "fourier_fast", "fourier_direct", "lp_norm",
        "energy_identity_residual"]),
    "energy": ("fqsalem.energy", [
        "energy_convolution", "energy_bruteforce", "difference_set",
        "salem_parameter", "energy_report"]),
    "distance": ("fqsalem.distance", [
        "distance_profile", "distance_set", "second_moment", "cs_lower_bound",
        "verify_secondmoment_bounds", "verify_difference_bounds",
        "verify_two_set", "lift_to_paraboloid"]),
    "incidence": ("fqsalem.incidence", [
        "count_incidences", "distance_energy_setup", "verify_counting_bounds",
        "incidence_bound", "sphere_incidence_setup", "incidence_via_dilation"]),
    "ranges": ("fqsalem.ranges", [
        "conjectured_alpha", "improved_threshold", "energy_threshold",
        "sphere_threshold", "conditional_sphere_exponents", "gamma",
        "salem_s_ranges", "family_thresholds", "crossover_identities"]),
}


def _set_key(E):
    return (E.field.q, E.d, tuple(map(tuple, E.points)))


def _count_energy(c, a, result):
    c["energy.lambda_calls"] += 1
    c.distinct("energy.lambda", (_set_key(a["E"]), a["k"]))


def _count_profile(c, a, result):
    E = a["E"]
    F = E if a["F"] is None else a["F"]
    c["distance.profile_calls"] += 1
    c["distance.pairs"] += len(E) * len(F)
    c.distinct("distance.profile", (_set_key(E), _set_key(F)))


def _count_incidences(c, a, result):
    c["incidence.pairs"] += len(a["P"]) * len(a["H"].entries)


def _count_family(c, a, result):
    c["incidence.pairs"] += len(a["E"]) ** 2


def _count_build(c, a, result):
    c["geometry.build_points"] += len(result)


# "layer.function" -> counter update from its bound arguments and result
COUNTERS = {
    "energy.energy_convolution": _count_energy,
    "distance.distance_profile": _count_profile,
    "incidence.count_incidences": _count_incidences,
    "incidence.distance_energy_setup": _count_family,
    "geometry.PointSet.build": _count_build,
    "spectral.fourier_direct": lambda c, a, r: c.add("spectral.direct_calls", 1),
    "spectral.fourier_fast": lambda c, a, r: c.add("spectral.fft_calls", 1),
}
COUNTS = ("energy.lambda_calls", "distance.profile_calls", "distance.pairs",
          "incidence.pairs", "geometry.build_points", "spectral.direct_calls",
          "spectral.fft_calls")
# ratio metric -> (distinct-key set, calls counter)
USEFUL = {"energy.lambda_useful_ratio": ("energy.lambda", "energy.lambda_calls"),
          "distance.profile_useful_ratio": ("distance.profile",
                                            "distance.profile_calls")}


class Counters(defaultdict):
    """Per-pass counts, plus sets of distinct keys for useful-work ratios."""

    def __init__(self):
        super().__init__(int)
        self.keys = defaultdict(set)

    def add(self, name, n):
        self[name] += n

    def distinct(self, name, key):
        self.keys[name].add(key)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, layer, start, end, parent, thread, pass)
        self.counters = defaultdict(Counters)
        self.pass_label = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # --- installation --------------------------------------------------------

    def install(self):
        mods = [m for n, m in sys.modules.items() if n.startswith("fqsalem")]
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name, layer)
                if owner_name:
                    new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, raw))
                    continue
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn, name, layer):
        count = COUNTERS.get(f"{layer}.{name}")
        sig = inspect.signature(fn) if count else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            label = tracer.pass_label
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, layer, start, end, parent,
                                     threading.get_ident(), label))
            if count:
                with tracer._lock:
                    count(tracer.counters[label], bound.arguments, result)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """pass label -> layer -> self seconds (children on the same thread excluded)."""
        child = defaultdict(float)
        for sid, _, _, start, end, parent, thread, _ in self.spans:
            if parent is not None:
                child[(parent, thread)] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for sid, _, layer, start, end, _, thread, label in self.spans:
            out[label][layer] += end - start - child[(sid, thread)]
        return out

    def layer_metrics(self, slowdowns: dict[str, float]) -> dict:
        """Median over the given passes of each per-layer self time and count.

        `slowdowns` maps each pass label to its calibration slowdown, by which
        that pass's self times are divided.
        """
        selfs = self.self_times()
        per_pass = defaultdict(list)
        for label, slow in slowdowns.items():
            times, counts = selfs.get(label, {}), self.counters[label]
            for layer in LAYERS:
                per_pass[f"{layer}.self_s"].append(times.get(layer, 0.0) / slow)
            per_pass["geometry.build_s"].append(times.get("geometry", 0.0) / slow)
            for name in COUNTS:
                per_pass[name].append(counts[name])
            for name, (keys, calls) in USEFUL.items():
                n = counts[calls]
                per_pass[name].append(len(counts.keys[keys]) / n if n else 1.0)
        return {k: statistics.median(v) for k, v in per_pass.items()}

    def dump(self, path):
        path.write_text(json.dumps([
            {"id": sid, "name": name, "layer": layer, "start": start, "end": end,
             "parent": parent, "thread": thread, "pass": label}
            for sid, name, layer, start, end, parent, thread, label in self.spans]))


class FieldOpCounter:
    """Counts scalar FieldSpec calls; used in a pass of its own, never timed."""

    METHODS = ("add", "sub", "neg", "mul", "pow", "trace")

    def __init__(self):
        self.count = 0
        self._undo = []

    def install(self):
        from fqsalem.field import FieldSpec
        for name in self.METHODS:
            orig = vars(FieldSpec).get(name)
            if orig is None:
                continue
            setattr(FieldSpec, name, self._wrap(orig))
            self._undo.append((FieldSpec, name, orig))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn):
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter.count += 1
            return fn(*args, **kwargs)

        return counted
