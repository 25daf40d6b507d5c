"""Vectorized int64 sweep kernels for 3x3 matrices over field Q.

Rather than checking each operation for overflow, `supports` proves up
front, from the largest scaled entry magnitude B, that every intermediate
the kernel computes fits comfortably in a signed 64-bit word.  If the proof
fails the caller falls back to the arbitrary-precision sweep, so results are
exact either way.  2x2 sweeps and power sums need no kernel: `matrices`
convolves products.

Layout: the det histogram comes from the unordered triples of distinct
rows i < j < k among the A^3 rows, row i dotted with the cross product of
rows j and k, built for at most `_CHUNK` pairs (j, k) at a time; a triple's
six row orders give det d three times and -d three times, and every matrix
with a repeated row has det 0.  The caller composes the rank profile from
the det zeros and the rank-1 count (`matrices.sweep`).  The charpoly keys
take one block per first row against numpy arrays of the bottom rows,
indexed by the flattened odometer of the six bottom entries and chunked to
bound memory (`_charpoly_blocks3`).  `sweep_square` histograms every key;
`count_target3` counts one key without a histogram.

Charpoly keys, three columns, are grouped as one int64 per row:
each column less its minimum, packed by mixed radix over the column spans,
so a block costs one 1-D sort.  The frame is checked with Python ints; when
it would reach 2^63 the columns are re-ranked to dense indices first, which
stays exact (`_group`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

# Keep every intermediate at or below 2^62: one spare bit on top of the proof.
_SAFE_LIMIT = 1 << 62

# Blocks hold at most this many matrices, or 3x3 row pairs (j, k).
_CHUNK = 1 << 20

# A multi-column key packs into one int64 when its frame has fewer cells.
_PACK_LIMIT = 1 << 63

# Pending histogram rows merged once there are this many.
_COMPACT_ROWS = 4_000_000


def supports(bound: int) -> bool:
    """True when every intermediate of the 3x3 kernels, at most 6 B^3 for
    det and charpoly alike, is provably within int64 for entry magnitudes
    up to B = `bound`."""
    return 0 < 6 * int(bound) ** 3 <= _SAFE_LIMIT


class _HistAccumulator:
    """Histogram of int64 key rows, fed one block's (distinct keys, counts)
    at a time.  Pending pairs are merged through `_group` (packed int64
    keys, int64 counts) once they pass _COMPACT_ROWS rows, and at the end."""

    def __init__(self, ncols: int):
        self.ncols = ncols
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
        uniq, summed = _group([keys[:, j] for j in range(self.ncols)], counts)
        self.pending_keys = [uniq]
        self.pending_counts = [summed]
        self.pending_rows = uniq.shape[0]

    def result(self) -> dict:
        self._compact()
        if not self.pending_keys:
            return {}
        # One piece is left, and `_group` made its rows distinct.
        keys = self.pending_keys[0]
        counts = self.pending_counts[0].tolist()
        if self.ncols == 1:
            return dict(zip(keys[:, 0].tolist(), counts))
        return dict(zip(map(tuple, keys.tolist()), counts))


def _group(
    columns: Sequence[np.ndarray], counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of non-empty, equal-length int64 key columns, in
    lexicographic order as an (M, k) array, with the number of rows of each
    (or, given int64 `counts`, the sum of their counts).

    Rows are grouped as one int64 each: every column less its minimum,
    packed by mixed radix over the column spans, when the product of the
    spans (Python ints, so exact) is below 2^63.  Otherwise each column is
    first re-ranked to dense indices 0..distinct-1, whose product of spans
    is at most rows^k; should even that reach 2^63, the first two index
    columns are folded into one and the rest grouped again.
    """
    if len(columns) == 1:
        uniq, summed = _group1(columns[0], counts)
        return uniq.reshape(-1, 1), summed
    los = [int(col.min()) for col in columns]
    spans = [int(col.max()) - lo + 1 for col, lo in zip(columns, los)]
    if math.prod(spans) < _PACK_LIMIT:
        packed = columns[0] - los[0]
        for col, lo, span in zip(columns[1:], los[1:], spans[1:]):
            packed *= span
            packed += col - lo
        uniq, summed = _group1(packed, counts)
        keys = np.empty((uniq.shape[0], len(columns)), dtype=np.int64)
        for j in range(len(columns) - 1, 0, -1):
            uniq, digit = np.divmod(uniq, spans[j])
            keys[:, j] = digit + los[j]
        keys[:, 0] = uniq + los[0]
        return keys, summed
    levels, ranks = _rerank(columns)
    if math.prod(len(level) for level in levels) < _PACK_LIMIT:
        index, summed = _group(ranks, counts)
    else:
        width = len(levels[1])
        index, summed = _group([ranks[0] * width + ranks[1], *ranks[2:]], counts)
        index = np.column_stack([*np.divmod(index[:, 0], width), index[:, 1:]])
    keys = np.column_stack([level[index[:, j]] for j, level in enumerate(levels)])
    return keys, summed


def _rerank(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each column's sorted distinct values, and the column as indices into
    them."""
    levels, ranks = [], []
    for col in columns:
        level, rank = np.unique(col, return_inverse=True)
        levels.append(level)
        ranks.append(rank.reshape(-1))
    return levels, ranks


def _group1(
    keys: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """`_group` of one int64 column: one sort, then a count or an int64
    sum per run of equal keys."""
    if counts is None:
        return np.unique(keys, return_counts=True)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def _block_histogram(acc: _HistAccumulator, *columns: np.ndarray) -> None:
    acc.add(*_group(columns))


def _triple_dets(values: list[int]):
    """det(r_i, r_j, r_k) for every triple i < j < k of the A^3 rows over
    `values` (odometer order), one int64 block per first row i and chunk of
    pairs.

    The pairs j < k are taken in lexicographic order, at most `_CHUNK` at a
    time, and each pair's cross product r_j x r_k is computed once per chunk.
    The pairs with j > i are a suffix of that order, so row i meets a
    contiguous tail of the chunk in one dot product.  Each component of a
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
            tail = max(firsts[i + 1] - p0, 0)
            dets = a1 * c1[tail:]
            dets += a2 * c2[tail:]
            dets += a3 * c3[tail:]
            yield dets


def _charpoly_blocks3(values: list[int]):
    """The raw charpoly key columns (c0, c1, c2) of every 3x3 matrix over
    `values` as int64 arrays: one block per first row against a chunk of at
    most `_CHUNK` bottom pairs of rows, in odometer order.  c2 = -trace,
    c1 = the sum of the principal 2x2 minors and c0 = -det; every
    intermediate is at most 6 B^3, the bound `supports` proves."""
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    bottom_space = size**6
    first_rows = list(itertools.product(values, repeat=3))
    for start in range(0, bottom_space, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, bottom_space), dtype=np.int64)
        r21, r22, r23, r31, r32, r33 = (
            v[(flat // size ** (5 - position)) % size] for position in range(6)
        )
        s23 = r22 + r33
        m1 = r22 * r33 - r23 * r32
        m2 = r21 * r33 - r23 * r31
        m3 = r21 * r32 - r22 * r31
        for a1, a2, a3 in first_rows:
            yield (
                a2 * m2 - a1 * m1 - a3 * m3,
                a1 * s23 - a2 * r21 - a3 * r31 + m1,
                -a1 - s23,
            )


def _repeated_rows3(size: int) -> int:
    """Number of 3x3 matrices over `size` values with two equal rows."""
    rows = size**3
    return rows**3 - rows * (rows - 1) * (rows - 2)


def _det_histogram3(values: list[int]) -> dict:
    """3x3 det histogram from the dets of the unordered row triples: an even
    permutation of three distinct rows keeps det, an odd one negates it, so
    a triple's det d counts 3 at d and 3 at -d; every matrix with two equal
    rows has det 0."""
    triples = _HistAccumulator(1)
    for dets in _triple_dets(values):
        _block_histogram(triples, dets)
    hist = {0: _repeated_rows3(len(values))}
    for d, count in triples.result().items():
        hist[d] = hist.get(d, 0) + 3 * count
        hist[-d] = hist.get(-d, 0) + 3 * count
    return hist


def _charpoly_histogram3(values: list[int]) -> dict:
    """Histogram of the `_charpoly_blocks3` keys."""
    acc = _HistAccumulator(3)
    for columns in _charpoly_blocks3(values):
        _block_histogram(acc, *columns)
    return acc.result()


# perfbench/spans.py wraps this name; it reads the raw dict's "total".
def sweep_square(values: list[int], want_det: bool, want_charpoly: bool) -> dict:
    """Raw sweep over every 3x3 matrix with entries in `values`.

    Returns {"total", "rank", "det", "charpoly"} with integer (or
    integer-tuple) keys in the denominator-cleared coordinate system.
    "rank" is None: the caller composes it from the det histogram
    (`matrices.sweep`)."""
    return {
        "total": len(values) ** 9,
        "rank": None,
        "det": _det_histogram3(values) if want_det else None,
        "charpoly": _charpoly_histogram3(values) if want_charpoly else None,
    }


def count_target3(values: list[int], stat: str, target: tuple[int, ...]) -> int:
    """Number of 3x3 matrices over `values` whose raw key for `stat` equals
    `target`, in the key layout of `sweep_square`: "det" (det,) or
    "charpoly" (c0, c1, c2).

    Same arithmetic as `sweep_square`, under the same `supports` proof (the
    caller's job), but each key column is compared with its target and the
    hits are counted; no histogram is built.  A det target t is counted
    over the row triples: 3 matrices per triple with det t or -t, plus the
    matrices with two equal rows when t = 0.  The proof bounds every key by
    _SAFE_LIMIT, so a larger target counts 0.
    """
    if any(abs(t) > _SAFE_LIMIT for t in target):
        return 0
    if stat == "det":
        (det,) = target
        found = sum(
            int(np.count_nonzero(np.abs(dets) == abs(det)))
            for dets in _triple_dets(values)
        )
        if det == 0:
            return 6 * found + _repeated_rows3(len(values))
        return 3 * found
    c0, c1, c2 = target
    return sum(
        int(np.count_nonzero((k0 == c0) & (k1 == c1) & (k2 == c2)))
        for k0, k1, k2 in _charpoly_blocks3(values)
    )
