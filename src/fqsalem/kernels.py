"""Chunked exact counting shared by the numpy kernels.

The kernels walk pairs (x, y) of two coordinate arrays in row blocks, gather
table entries per coordinate, and count the resulting integer keys. A
coordinate is a field element, or a chunk of c base-p digits gathered from
digit_difference, the digit-wise difference table of [0, p^c)^2, which is
field subtraction c digits at a time. CHUNK_ELEMS caps every gather
temporary (one row at the least) and every cached table. pair_codes builds
its keys in int32 where every key of the caller's key space fits, in int64
above that. count_keys counts every key of a pass in one step: one
np.bincount when the key space is at most four slots per key (or within
CHUNK_ELEMS), one sort otherwise; it also adds the reversed half of a pass
over the pairs i < j, whose keys are the digit-wise negations. A pass thus
holds its keys (4 or 8 bytes each) and at most one int64 count per
key-space slot. Counts are int64; the largest count a kernel can reach
is checked against the int64 range before counting starts, so nothing wraps.

The kernels whose temporaries grow with q^d (the random sampler and the
transform) write them into `scratch` buffers instead: kept per thread and per
slot name, grown only, and reused by every later call, so a sweep of many
cells on one grid touches no fresh memory after its first cell.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded

#: cap on the elements of one gather temporary and of one cached table
CHUNK_ELEMS = 1 << 15

INT32_MAX = (1 << 31) - 1
INT64_MAX = (1 << 63) - 1


_SCRATCH = threading.local()


def scratch(slot: str, n: int, dtype) -> np.ndarray:
    """A buffer of n elements of dtype with undefined contents: the start of
    this thread's bytes for `slot`, which only grow. It is valid until the
    next call for the same slot in the same thread, so no thread shares one."""
    nbytes = n * np.dtype(dtype).itemsize
    slots = _SCRATCH.__dict__
    raw = slots.get(slot)
    if raw is None or len(raw) < nbytes:
        slots.pop(slot, None)  # release the old bytes before the new are taken
        raw = slots[slot] = np.empty(nbytes, dtype=np.uint8)
    return raw[:nbytes].view(dtype)


def check_int64(n: int, what: str) -> None:
    """Refuse a count or key that could leave the int64 range."""
    if n > INT64_MAX:
        raise BudgetExceeded(f"{what} reaches {n}, beyond the int64 count range")


def chunk_width(base: int) -> int:
    """The largest w >= 1 with base^w <= CHUNK_ELEMS: digits one table within it can index."""
    w = 1
    while base ** (w + 1) <= CHUNK_ELEMS:
        w += 1
    return w


def row_blocks(n_rows: int, width: int):
    """Slices of range(n_rows) whose rows times width stay within CHUNK_ELEMS
    (one row at the least); the kernels' blocks have width max(len(B), q)."""
    step = max(1, CHUNK_ELEMS // max(width, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def pair_codes(table: np.ndarray, A: np.ndarray, B: np.ndarray, q: int,
               space: int) -> np.ndarray:
    """Flat base-q index of the vector (table[a_i, b_i])_i for every row pair
    (a, b) of A x B, each index below `space`: int32 while space <= 2^31 - 1,
    int64 above that."""
    width = A.shape[1]
    dtype = np.int32 if space <= INT32_MAX else np.int64

    def digit(i: int) -> np.ndarray:
        # the table rows of the a_i scaled by the digit's place value (astype
        # first: NumPy 1.x would promote the small table dtype by value), then
        # their b_i columns: two 2-D gathers, several times cheaper than one
        # broadcast fancy index
        rows = table[A[:, i]].astype(dtype)
        rows *= q ** (width - 1 - i)
        return rows[:, B[:, i]]

    if width == 0:
        return np.zeros((len(A), len(B)), dtype=dtype)
    code = digit(0)
    for i in range(1, width):
        code += digit(i)
    return code


@lru_cache(maxsize=None)
def _strict_upper(h: int) -> np.ndarray:
    """mask[i, j] = j > i on the h x h square, read-only, once per h."""
    mask = np.triu(np.ones((h, h), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def upper_pair_codes(table: np.ndarray, X: np.ndarray, q: int, space: int) -> np.ndarray:
    """pair_codes(table, X, X, q, space) at the row pairs i < j only, flat, built in
    triangular blocks: rows [lo, hi) against columns [lo, n). Only the square
    of columns [lo, hi) is masked; the columns from hi on are kept whole."""
    n, lo = len(X), 0
    blocks = [np.empty(0, dtype=np.int32)]  # widens no block, and covers n < 2
    while lo < n:
        # h (n - lo) <= CHUNK_ELEMS and h <= n - lo, so h^2 <= CHUNK_ELEMS: at
        # most 181 masks are ever cached, each of at most CHUNK_ELEMS bytes
        hi = min(n, lo + max(1, CHUNK_ELEMS // max(n - lo, q)))
        h = hi - lo
        codes = pair_codes(table, X[lo:hi], X[lo:], q, space)
        blocks += [codes[:, :h][_strict_upper(h)], codes[:, h:].ravel()]
        lo = hi
    return np.concatenate(blocks)


def table_sums(add: np.ndarray, table: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """For each row block of X, the (rows, len(Y)) array of sum_i table[x_i, y_i]
    (summed through the addition table `add`) over its rows x and the rows y of Y."""
    for rows in row_blocks(len(X), max(len(Y), len(table))):
        S = np.zeros((rows.stop - rows.start, len(Y)), dtype=np.int64)
        for i in range(X.shape[1]):  # row gathers: the table rows of X, then the columns of Y
            S = add[S, table[X[rows, i]][:, Y[:, i]]]
        yield S


def group_sums(keys: np.ndarray, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of the sorted `keys` with the int64 sum of their counts,
    or with the number of times each occurs when `counts` is None."""
    if len(keys) == 0:
        return keys, np.empty(0, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    if counts is None:
        return keys[starts], np.diff(starts, append=len(keys))
    return keys[starts], np.add.reduceat(counts, starts)


def merge(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with the int64 sum of their counts."""
    order = np.argsort(keys, kind="stable")
    return group_sums(keys[order], counts[order])


def sum_squares(counts, bound: int) -> int:
    """Exact sum of c^2 over integer counts: an int64 dot when `bound`, a bound
    on the sum, fits int64, so nothing wraps; a dot over Python ints otherwise."""
    c = np.asarray(counts, dtype=np.int64 if bound <= INT64_MAX else object)
    return int(c @ c)


@lru_cache(maxsize=None)
def negation_index(p: int, width: int) -> np.ndarray:
    """neg[x] = x with every base-p digit negated mod p, for x in [0, p^width);
    built digit by digit as outer sums, read-only, once per (p, width)."""
    neg = np.zeros(1, dtype=np.int64)
    for k in range(width):  # x = top p^k + low
        neg = ((-np.arange(p) % p * p ** k)[:, None] + neg).ravel()
    neg.flags.writeable = False
    return neg


@lru_cache(maxsize=None)
def digit_difference(p: int, c: int) -> np.ndarray:
    """sub[a, b] = a - b digit by digit mod p, for a, b in [0, p^c): read-only,
    once per (p, c), in the smallest unsigned type holding p^c - 1. On
    canonical values of F_{p^r} this is field subtraction, c digits at a time."""
    v = np.arange(p ** c)
    sub = np.zeros((p ** c, p ** c), dtype=np.min_scalar_type(p ** c - 1))
    for k in range(c):
        digit = v // p ** k % p
        sub += ((digit[:, None] - digit) % p * p ** k).astype(sub.dtype)
    sub.flags.writeable = False
    return sub


def negate(keys: np.ndarray, p: int, width: int) -> np.ndarray:
    """Digit-wise negation mod p of int64 keys of `width` base-p digits: a
    block of digits at a time, through a negation_index within CHUNK_ELEMS."""
    step = chunk_width(p)
    out, place = np.zeros(len(keys), dtype=np.int64), 1
    for lo in range(0, width, step):
        w = min(step, width - lo)
        keys, low = np.divmod(keys, p ** w)
        out += negation_index(p, w)[low] * place
        place *= p ** w
    return out


def count_keys(keys: np.ndarray, space: int, weights=None,
               negated: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts): the sorted distinct keys of `keys`, all in [0, space),
    and their int64 counts, each key counted once or `weights` times (int64,
    broadcast to keys). With negated = (p, width), keys of `width` base-p
    digits, each key's digit-wise negation gets its count too: the reversed
    pairs of a pass over the pairs i < j, since x - y = -(y - x) digit by digit.

    Every key of a pass is counted in one step. Dense when space <= max(4
    len(keys), CHUNK_ELEMS): one np.bincount (np.add.at when weighted), the
    negated half one gather through the cached negation_index within
    CHUNK_ELEMS, and above it added at the negations of the nonzero keys.
    Sorted otherwise: one sort of the keys (in place when unweighted, so the
    caller hands the array over) and a run count, the negated half one merge
    with negate(keys). Unweighted counts stay below 2 len(keys), so only the
    caller's weights can leave the int64 range.
    """
    if weights is not None:
        # flat, like the keys: np.add.at is about four times slower on a
        # broadcast operand than on two 1-D arrays of one length
        weights = np.broadcast_to(weights, keys.shape).ravel()
    keys = keys.ravel()
    if space <= max(4 * len(keys), CHUNK_ELEMS):
        if weights is None:
            dense = np.bincount(keys, minlength=space)
        else:
            dense = np.zeros(space, dtype=np.int64)
            np.add.at(dense, keys, weights)
        if negated is not None and space <= CHUNK_ELEMS:
            dense += dense[negation_index(*negated)]
        elif negated is not None:
            # negation is a bijection, so no index repeats; nonzero on the bool
            # mask, not on the int64 counts: four times faster
            seen = np.flatnonzero(dense != 0)
            dense[negate(seen, *negated)] += dense[seen]
        out = np.flatnonzero(dense != 0)
        return out, dense[out]
    if weights is None:
        keys.sort()
        out, counts = group_sums(keys)
    else:
        out, counts = merge(keys, weights)
    if negated is not None:
        out, counts = merge(np.concatenate((out, negate(out, *negated))),
                            np.concatenate((counts, counts)))
    return out.astype(np.int64, copy=False), counts
