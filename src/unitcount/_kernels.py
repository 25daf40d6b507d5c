"""Vectorized int64 det sweep kernel for 3x3 matrices over field Q.

Rather than checking each operation for overflow, `supports` proves up
front, from the largest scaled entry magnitude B, that every intermediate
the kernel computes fits comfortably in a signed 64-bit word.  If the proof
fails the caller falls back to the arbitrary-precision shared-minors det
sweep, so results are exact either way.  No other statistic needs a
kernel: `matrices` convolves products for 2x2 sweeps and power sums, and
joins cycle invariants for the 3x3 charpoly, in Python ints.

Layout: the det histogram comes from the unordered triples of distinct
rows i < j < k among the A^3 rows, row i dotted with the cross product of
rows j and k, built for at most `_CHUNK` pairs (j, k) at a time; a triple's
six row orders give det d three times and -d three times, and every matrix
with a repeated row has det 0.  The caller takes rank <= 2 from the det
zeros and rank <= 1 from the flats walk (`matrices._rank_profile`).  The
dets come in batches of `_BATCH`, each grouped by |det| with one sort
(`_group`), and the signs are folded back once, on the distinct values.
`sweep_square` histograms every det; `count_target3` counts one |det| per
batch without a histogram.
"""

from __future__ import annotations

import itertools

import numpy as np

# Keep every intermediate at or below 2^62: one spare bit on top of the proof.
_SAFE_LIMIT = 1 << 62

# Blocks hold at most this many 3x3 row pairs (j, k).
_CHUNK = 1 << 20

# Triple dets are grouped this many at a time.
_BATCH = 1 << 17

# Pending histogram rows merged once there are this many.
_COMPACT_ROWS = 4_000_000


def supports(bound: int) -> bool:
    """True when every intermediate of the 3x3 det kernel, at most 6 B^3,
    is provably within int64 for entry magnitudes up to B = `bound`."""
    return 0 < 6 * int(bound) ** 3 <= _SAFE_LIMIT


class _HistAccumulator:
    """Histogram of int64 keys, fed one block's (distinct keys, counts) at a
    time.  Pending pairs are merged through `_group` (int64 counts) once
    they pass _COMPACT_ROWS rows, and at the end."""

    def __init__(self):
        self.pending_keys: list[np.ndarray] = []
        self.pending_counts: list[np.ndarray] = []
        self.pending_rows = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.pending_keys.append(keys)
        self.pending_counts.append(counts.astype(np.int64, copy=False))
        self.pending_rows += keys.shape[0]
        if self.pending_rows >= _COMPACT_ROWS:
            self._compact()

    def _compact(self) -> None:
        if len(self.pending_keys) <= 1:
            return
        keys = np.concatenate(self.pending_keys)
        counts = np.concatenate(self.pending_counts)
        # Drop the pieces before grouping: they are the largest arrays held.
        self.pending_keys, self.pending_counts = [], []
        uniq, summed = _group(keys, counts)
        self.pending_keys = [uniq]
        self.pending_counts = [summed]
        self.pending_rows = uniq.shape[0]

    def result(self) -> dict:
        self._compact()
        if not self.pending_keys:
            return {}
        # One piece is left, and `_group` made its keys distinct.
        return dict(zip(self.pending_keys[0].tolist(), self.pending_counts[0].tolist()))


def _group(
    keys: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a non-empty int64 array, in increasing order, with
    the number of each (or, given int64 `counts`, the sum of their counts):
    one sort, then a count or an int64 sum per run of equal keys."""
    if counts is None:
        return np.unique(keys, return_counts=True)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def _block_histogram(acc: _HistAccumulator, dets: np.ndarray) -> None:
    """Group one batch of dets by |det| (in place: the batch is the caller's
    own) and feed the distinct values and their counts to `acc`."""
    acc.add(*_group(np.abs(dets, out=dets)))


def _triple_dets(values: list[int]):
    """det(r_i, r_j, r_k) for every triple i < j < k of the A^3 rows over
    `values` (odometer order), in new int64 batches of `_BATCH` dets (the
    last one shorter; one batch when there are fewer triples).

    The pairs j < k are taken in lexicographic order, at most `_CHUNK` at a
    time, and each pair's cross product r_j x r_k is computed once per chunk.
    The pairs with j > i are a suffix of that order, so row i meets a
    contiguous tail of the chunk; the tails are written one after another
    into the batch, a tail split where a batch fills.  Each component of a
    cross product is a 2x2 minor, at most 2B^2, and each det at most 6B^3,
    the bound `supports` proves."""
    rows = list(itertools.product(values, repeat=3))
    x, y, z = np.array(rows, dtype=np.int64).T
    count = len(rows)
    # Index of the first pair (j, j + 1) in lexicographic order, per j.
    first = np.arange(count, dtype=np.int64)
    first = first * (count - 1) - first * (first - 1) // 2
    firsts = first.tolist()
    pairs = count * (count - 1) // 2
    size = min(_BATCH, pairs * (count - 2) // 3)
    batch = np.empty(size, dtype=np.int64)
    scratch = np.empty_like(batch)
    filled = 0
    for p0 in range(0, pairs, _CHUNK):
        p1 = min(p0 + _CHUNK, pairs)
        p = np.arange(p0, p1, dtype=np.int64)
        j = np.searchsorted(first, p, side="right") - 1
        k = p - first[j] + j + 1
        c1 = y[j] * z[k] - z[j] * y[k]
        c2 = z[j] * x[k] - x[j] * z[k]
        c3 = x[j] * y[k] - y[j] * x[k]
        # Every row before the chunk's last j meets a tail of it.
        for i in range(int(j[-1])):
            a1, a2, a3 = rows[i]
            lo = max(firsts[i + 1] - p0, 0)
            while lo < len(c1):
                hi = min(len(c1), lo + size - filled)
                out = batch[filled : filled + hi - lo]
                tmp = scratch[: hi - lo]
                np.multiply(c1[lo:hi], a1, out=out)
                out += np.multiply(c2[lo:hi], a2, out=tmp)
                out += np.multiply(c3[lo:hi], a3, out=tmp)
                filled += hi - lo
                lo = hi
                if filled == size:
                    yield batch
                    batch, filled = np.empty(size, dtype=np.int64), 0
    if filled:
        yield batch[:filled]


def _repeated_rows3(size: int) -> int:
    """Number of 3x3 matrices over `size` values with two equal rows."""
    rows = size**3
    return rows**3 - rows * (rows - 1) * (rows - 2)


def _det_histogram3(values: list[int]) -> dict:
    """3x3 det histogram from the dets of the unordered row triples, grouped
    by |det|: an even permutation of three distinct rows keeps det, an odd
    one negates it, so a triple with |det| = d > 0 counts 3 at d and 3 at
    -d, one with det 0 counts 6 at 0; every matrix with two equal rows has
    det 0."""
    triples = _HistAccumulator()
    for dets in _triple_dets(values):
        _block_histogram(triples, dets)
    hist = {0: _repeated_rows3(len(values))}
    for d, count in triples.result().items():
        if d:
            hist[d] = hist[-d] = 3 * count
        else:
            hist[0] += 6 * count
    return hist


# perfbench/spans.py wraps this name; it reads the raw dict's "total".
def sweep_square(values: list[int]) -> dict:
    """Raw det sweep over every 3x3 matrix with entries in `values`.

    Returns {"total", "det"} with integer keys in the denominator-cleared
    coordinate system."""
    return {"total": len(values) ** 9, "det": _det_histogram3(values)}


def count_target3(values: list[int], det: int) -> int:
    """Number of 3x3 matrices over `values` whose raw det, in the key layout
    of `sweep_square`, equals `det`.

    Same arithmetic as `sweep_square`, under the same `supports` proof (the
    caller's job), but each batch's |det| is compared with that of the
    target t and the hits are counted; no histogram is built: 3 matrices per
    triple with det t or -t, plus the matrices with two equal rows when
    t = 0.  The proof bounds every det by _SAFE_LIMIT, so a larger target
    counts 0.
    """
    target = abs(det)
    if target > _SAFE_LIMIT:
        return 0
    found = sum(
        int(np.count_nonzero(np.abs(batch, out=batch) == target))
        for batch in _triple_dets(values)
    )
    if det == 0:
        return 6 * found + _repeated_rows3(len(values))
    return 3 * found
