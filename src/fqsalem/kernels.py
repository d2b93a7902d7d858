"""Chunked exact counting shared by the numpy kernels.

The kernels walk pairs (x, y) of two coordinate arrays in row blocks, gather
field-table entries per coordinate, and count the resulting integer keys.
Memory is bounded by CHUNK_ELEMS: every broadcast temporary has at most that
many elements (one row at the least), and a key space of at most that many
keys is counted densely with np.bincount, a larger one by merging sorted
np.unique chunks. Counts are int64; the largest count a kernel can reach is
checked against the int64 range before counting starts, so nothing wraps.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

#: cap on the elements of one broadcast temporary, and on a dense count array
CHUNK_ELEMS = 1 << 15

_INT64_MAX = (1 << 63) - 1


def check_int64(n: int, what: str) -> None:
    """Refuse a count or key that could leave the int64 range."""
    if n > _INT64_MAX:
        raise BudgetExceeded(f"{what} reaches {n}, beyond the int64 count range")


def row_blocks(n_rows: int, width: int):
    """Slices of range(n_rows) whose rows times width stay within CHUNK_ELEMS."""
    step = max(1, CHUNK_ELEMS // max(width, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def pair_codes(table: np.ndarray, A: np.ndarray, B: np.ndarray, q: int,
               code=np.int64(0)) -> np.ndarray:
    """Flat index of the vector (table[a_i, b_i])_i for every row pair (a, b) of A x B.

    `code` (an int64 array broadcastable to (len(A), len(B))) is a leading
    digit placed above the d coordinate digits.
    """
    for i in range(A.shape[1]):
        # dtype pins int64 even where older numpy would narrow to the table's dtype
        code = np.add(code * q, table[A[:, i, None], B[None, :, i]], dtype=np.int64)
    return code


def _merge(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with the int64 sum of their counts."""
    if len(keys) == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


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
        keys = np.asarray(keys, dtype=np.int64)
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
            chunk = _merge(keys, weights)
        self._pending.append(chunk)
        self._n_pending += len(chunk[0])
        # merge geometrically: each key is re-sorted O(log) times overall
        if self._n_pending >= max(len(self._keys), CHUNK_ELEMS):
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._keys, self._counts = _merge(
                np.concatenate([self._keys] + [k for k, _ in self._pending]),
                np.concatenate([self._counts] + [c for _, c in self._pending]))
            self._pending, self._n_pending = [], 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, counts): the sorted keys with a nonzero count, and the counts."""
        if self._dense is not None:
            keys = np.flatnonzero(self._dense)
            return keys, self._dense[keys]
        self._flush()
        return self._keys, self._counts
