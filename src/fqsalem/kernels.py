"""Chunked exact counting shared by the numpy kernels.

The kernels walk pairs (x, y) of two coordinate arrays in row blocks, gather
field-table entries per coordinate, and count the resulting integer keys.
Memory is bounded by CHUNK_ELEMS: every gather temporary has at most that
many elements (one row at the least), and a key space of at most that many
keys is counted densely with np.bincount, a larger one by merging sorted
np.unique chunks. pair_codes builds its keys in int32 where every key of
the space fits, in int64 above that. The reversed half of a pass over the
pairs i < j is added by KeyCounter.add_negated: one gather through a cached
digit-wise negation index on the dense path; on the sorted one, the negated
keys go into the same merge as the pending chunks. Counts are int64; the
largest count a kernel can reach is checked against the int64 range before
counting starts, so nothing wraps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded

#: cap on the elements of one broadcast temporary, and on a dense count array
CHUNK_ELEMS = 1 << 15

INT32_MAX = (1 << 31) - 1
INT64_MAX = (1 << 63) - 1


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


def pair_codes(table: np.ndarray, A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """Flat index of the vector (table[a_i, b_i])_i for every row pair (a, b) of
    A x B: int32 while q^width <= 2^31 - 1, int64 above that."""
    width = A.shape[1]
    dtype = np.int32 if q ** width <= INT32_MAX else np.int64

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


def upper_pair_codes(table: np.ndarray, X: np.ndarray, q: int):
    """pair_codes(table, X, X, q) at the row pairs i < j only, in triangular
    blocks: rows [lo, hi) against columns [lo, n). Only the square of columns
    [lo, hi) is masked; the columns from hi on are kept whole."""
    n, lo = len(X), 0
    while lo < n:
        # h (n - lo) <= CHUNK_ELEMS and h <= n - lo, so h^2 <= CHUNK_ELEMS: at
        # most 181 masks are ever cached, each of at most CHUNK_ELEMS bytes
        hi = min(n, lo + max(1, CHUNK_ELEMS // max(n - lo, q)))
        h = hi - lo
        codes = pair_codes(table, X[lo:hi], X[lo:], q)
        yield np.concatenate((codes[:, :h][_strict_upper(h)], codes[:, h:]), axis=None)
        lo = hi


def table_sums(add: np.ndarray, table: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """For each row block of X, the (rows, len(Y)) array of sum_i table[x_i, y_i]
    (summed through the addition table `add`) over its rows x and the rows y of Y."""
    for rows in row_blocks(len(X), max(len(Y), len(table))):
        S = np.zeros((rows.stop - rows.start, len(Y)), dtype=np.int64)
        for i in range(X.shape[1]):  # row gathers: the table rows of X, then the columns of Y
            S = add[S, table[X[rows, i]][:, Y[:, i]]]
        yield S


def group_sums(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of the sorted `keys` with the int64 sum of their counts."""
    if len(keys) == 0:
        return keys, counts
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
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


class KeyCounter:
    """Exact multiplicities of keys in [0, space), fed in chunks.

    `max_count` bounds the total weight that will be added; it is checked
    against int64 at construction.
    """

    def __init__(self, space: int, max_count: int, what: str):
        check_int64(space, f"{what} key space")
        check_int64(max_count, f"{what} counts")
        self.space = space
        self._dense = np.zeros(space, dtype=np.int64) if space <= CHUNK_ELEMS else None
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._n_pending = 0

    def add(self, keys: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Count each key once, or `weights` times (int64, broadcast to keys)."""
        keys = np.asarray(keys)
        if weights is not None:
            weights = np.broadcast_to(np.asarray(weights, dtype=np.int64), keys.shape).ravel()
        keys = keys.ravel()
        if self._dense is not None:
            if weights is None:
                self._dense += np.bincount(keys, minlength=self.space)
            else:
                np.add.at(self._dense, keys, weights)
            return
        if weights is None:
            chunk = np.unique(keys, return_counts=True)
        else:
            chunk = merge(keys, weights)
        self._pending.append(chunk)
        self._n_pending += len(chunk[0])
        # merge geometrically: each key is re-sorted O(log) times overall
        if self._n_pending >= max(len(self._keys), CHUNK_ELEMS):
            self._flush()

    def add_negated(self, p: int, width: int) -> None:
        """Add to each key's count that of its digit-wise negation, for keys of
        `width` base-p digits (space = p^width): the reversed pairs of a pass
        over the pairs i < j, since x - y = -(y - x) digit by digit. On the
        sorted path the negated keys join the pending ones in a single merge."""
        if self._dense is not None:
            self._dense += self._dense[negation_index(p, width)]
            return
        self._flush(lambda keys: negate(keys, p, width))

    def _flush(self, image=None) -> None:
        """Merge the pending chunks into the sorted keys. With `image`, a function
        from key arrays to key arrays, each key's image gets its count too, in
        the same merge."""
        if self._pending or image is not None:
            keys = np.concatenate([self._keys] + [k for k, _ in self._pending])
            counts = np.concatenate([self._counts] + [c for _, c in self._pending])
            if image is not None:
                keys, counts = np.concatenate((keys, image(keys))), np.concatenate((counts, counts))
            self._keys, self._counts = merge(keys, counts)
            self._pending, self._n_pending = [], 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, counts): the sorted keys with a nonzero count, and the counts."""
        if self._dense is not None:
            keys = np.flatnonzero(self._dense)
            return keys, self._dense[keys]
        self._flush()
        return self._keys, self._counts
