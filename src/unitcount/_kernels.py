"""Vectorized int64 sweep kernels for 2x2 and 3x3 matrices over field Q.

Rather than checking each operation for overflow, `supports` proves up
front, from the largest scaled entry magnitude B, that every intermediate
the kernel computes fits comfortably in a signed 64-bit word.  If the proof
fails the caller falls back to the arbitrary-precision sweep, so results are
exact either way.

Layout: matrices are enumerated in row-major odometer order.  For 3x3 the
first row is a Python-level loop over `itertools.product`; the remaining
rows live in numpy arrays indexed by the flattened odometer of the bottom
entries, chunked to bound memory.  For 2x2 a batch of first rows meets
every bottom row in one block of at most `_CHUNK` matrices.
`sweep_square` histograms every key; `count_target3` counts one 3x3 key
without a histogram.

Histogram keys with two or three columns are grouped as one int64 per row:
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

# Bottom-rows odometer is processed in chunks of at most this many matrices.
_CHUNK = 1 << 20

# A multi-column key packs into one int64 when its frame has fewer cells.
_PACK_LIMIT = 1 << 63

# Pending histogram rows merged once there are this many.
_COMPACT_ROWS = 4_000_000


def supports(
    bound: int, n: int, want_det: bool, want_rank: bool,
    want_charpoly: bool, want_powersums: bool,
) -> bool:
    """True when every intermediate is provably within int64 for entry
    magnitudes up to `bound`."""
    if n not in (2, 3):
        return False
    B = int(bound)
    if B == 0:
        return False
    needed = 0
    if n == 2:
        if want_det or want_rank or want_charpoly:
            needed = max(needed, 2 * B * B)
        if want_charpoly or want_powersums:
            needed = max(needed, 2 * B)
        if want_powersums:
            needed = max(needed, 4 * B * B)
    else:
        if want_det or want_rank or want_charpoly:
            needed = max(needed, 6 * B * B * B)
        if want_rank:
            needed = max(needed, B * B)
        if want_charpoly:
            needed = max(needed, 6 * B * B)
        if want_powersums:
            needed = max(needed, 9 * B * B)
    return 0 < needed <= _SAFE_LIMIT


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


# perfbench/spans.py wraps this name; it reads the raw dict's "total".
def sweep_square(
    values: list[int], n: int, want_det: bool, want_rank: bool,
    want_charpoly: bool, want_powersums: bool,
) -> dict:
    """Raw sweep over every n x n matrix with entries in `values`.

    Returns {"total", "rank", "det", "charpoly", "powersums"} with integer
    (or integer-tuple) keys in the denominator-cleared coordinate system.
    """
    sweep = _sweep2 if n == 2 else _sweep3
    return sweep(values, want_det, want_rank, want_charpoly, want_powersums)


def _sweep2(values, want_det, want_rank, want_charpoly, want_powersums):
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    block = size * size
    # Rows (x, y) in odometer order: x is the slow digit, y the fast one.
    # C, D are the bottom row; slices of them, as columns, are first rows.
    C = np.repeat(v, size)
    D = np.tile(v, size)
    det_acc = _HistAccumulator(1) if want_det else None
    cp_acc = _HistAccumulator(2) if want_charpoly else None
    ps_acc = _HistAccumulator(2) if want_powersums else None
    rank_counts = {1: 0, 2: 0} if want_rank else None
    total = 0

    # A batch of first rows times every bottom row is one block of at most
    # _CHUNK matrices (at least one first row), grouped once.
    batch = max(1, _CHUNK // block)
    need_dets = want_det or want_rank or want_charpoly
    for start in range(0, block, batch):
        a = C[start : start + batch, None]
        b = D[start : start + batch, None]
        rows = a.shape[0] * block
        dets = (a * D - b * C).ravel() if need_dets else None
        if det_acc is not None:
            _block_histogram(det_acc, dets)
        if rank_counts is not None:
            singular = int(np.count_nonzero(dets == 0))
            rank_counts[1] += singular
            rank_counts[2] += rows - singular
        if cp_acc is not None:
            _block_histogram(cp_acc, dets, -(a + D).ravel())
        if ps_acc is not None:
            t1 = (a + D).ravel()
            t2 = (a * a + D * D + (2 * b) * C).ravel()
            _block_histogram(ps_acc, t1, t2)
        total += rows

    return {
        "total": total,
        "rank": _clean_rank(rank_counts),
        "det": det_acc.result() if det_acc else None,
        "charpoly": cp_acc.result() if cp_acc else None,
        "powersums": ps_acc.result() if ps_acc else None,
    }


def _clean_rank(rank_counts):
    if rank_counts is None:
        return None
    return {r: c for r, c in rank_counts.items() if c}


def _bottom_digits3(size: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    flat = np.arange(start, stop, dtype=np.int64)
    digits = []
    for position in range(6):
        power = size ** (5 - position)
        digits.append((flat // power) % size)
    return tuple(digits)


def _sweep3(values, want_det, want_rank, want_charpoly, want_powersums):
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    bottom_space = size**6
    det_acc = _HistAccumulator(1) if want_det else None
    cp_acc = _HistAccumulator(3) if want_charpoly else None
    ps_acc = _HistAccumulator(2) if want_powersums else None
    rank_counts = {1: 0, 2: 0, 3: 0} if want_rank else None
    total = 0

    need_minors = want_det or want_rank or want_charpoly
    first_rows = list(itertools.product(values, repeat=3))

    start = 0
    while start < bottom_space:
        stop = min(start + _CHUNK, bottom_space)
        d21, d22, d23, d31, d32, d33 = _bottom_digits3(size, start, stop)
        r21, r22, r23 = v[d21], v[d22], v[d23]
        r31, r32, r33 = v[d31], v[d32], v[d33]
        chunk = stop - start
        if need_minors:
            m1 = r22 * r33 - r23 * r32
            m2 = r21 * r33 - r23 * r31
            m3 = r21 * r32 - r22 * r31
        if want_charpoly or want_powersums:
            s23 = r22 + r33
        if want_powersums:
            q23 = r22 * r22 + r33 * r33
            w = r23 * r32

        for a1, a2, a3 in first_rows:
            if need_minors:
                dets = a1 * m1 - a2 * m2 + a3 * m3
            if det_acc is not None:
                _block_histogram(det_acc, dets)
            if rank_counts is not None:
                rank3 = int(np.count_nonzero(dets))
                # Both bottom rows proportional to the (nonzero) first row.
                prop2 = (a1 * r22 == a2 * r21) & (a1 * r23 == a3 * r21)
                prop3 = (a1 * r32 == a2 * r31) & (a1 * r33 == a3 * r31)
                rank1 = int(np.count_nonzero(prop2 & prop3))
                rank_counts[3] += rank3
                rank_counts[1] += rank1
                rank_counts[2] += chunk - rank3 - rank1
            if cp_acc is not None:
                c2 = -(a1 + s23)
                c1 = a1 * s23 - a2 * r21 - a3 * r31 + m1
                _block_histogram(cp_acc, -dets, c1, c2)
            if ps_acc is not None:
                t1 = a1 + s23
                t2 = a1 * a1 + q23 + 2 * (a2 * r21 + a3 * r31 + w)
                _block_histogram(ps_acc, t1, t2)
            total += chunk
        start = stop

    return {
        "total": total,
        "rank": _clean_rank(rank_counts),
        "det": det_acc.result() if det_acc else None,
        "charpoly": cp_acc.result() if cp_acc else None,
        "powersums": ps_acc.result() if ps_acc else None,
    }


def count_target3(values: list[int], stat: str, target: tuple[int, ...]) -> int:
    """Number of 3x3 matrices over `values` whose raw key for `stat` equals
    `target`, in the key layout of `_sweep3`: "det" (det,), "charpoly"
    (c0, c1, c2), "powersums" (t1, t2).

    Same blocks and arithmetic as `_sweep3`, under the same `supports` proof
    (the caller's job), but each key column is compared with its target and
    the hits are counted; no histogram is built.  The proof bounds every key
    by _SAFE_LIMIT, so a larger target counts 0.
    """
    if any(abs(t) > _SAFE_LIMIT for t in target):
        return 0
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    bottom_space = size**6
    first_rows = list(itertools.product(values, repeat=3))
    found = 0
    start = 0
    while start < bottom_space:
        stop = min(start + _CHUNK, bottom_space)
        d21, d22, d23, d31, d32, d33 = _bottom_digits3(size, start, stop)
        r21, r22, r23 = v[d21], v[d22], v[d23]
        r31, r32, r33 = v[d31], v[d32], v[d33]
        if stat == "powersums":
            t1, t2 = target
            s23 = r22 + r33
            q23w = r22 * r22 + r33 * r33 + 2 * (r23 * r32)
            for a1, a2, a3 in first_rows:
                hit = a1 + s23 == t1
                hit &= a1 * a1 + q23w + 2 * (a2 * r21 + a3 * r31) == t2
                found += int(np.count_nonzero(hit))
        else:
            m1 = r22 * r33 - r23 * r32
            m2 = r21 * r33 - r23 * r31
            m3 = r21 * r32 - r22 * r31
            if stat == "det":
                (det,) = target
                for a1, a2, a3 in first_rows:
                    found += int(np.count_nonzero(a1 * m1 - a2 * m2 + a3 * m3 == det))
            else:
                c0, c1, c2 = target
                s23 = r22 + r33
                for a1, a2, a3 in first_rows:
                    hit = a1 + s23 == -c2
                    hit &= a1 * s23 - a2 * r21 - a3 * r31 + m1 == c1
                    hit &= a1 * m1 - a2 * m2 + a3 * m3 == -c0
                    found += int(np.count_nonzero(hit))
        start = stop
    return found
