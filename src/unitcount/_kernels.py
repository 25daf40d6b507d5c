"""Vectorized int64 sweep kernels for 2x2 and 3x3 matrices over field Q.

Rather than checking each operation for overflow, `supports` proves up
front, from the largest scaled entry magnitude B, that every intermediate
the kernel computes fits comfortably in a signed 64-bit word.  If the proof
fails the caller falls back to the arbitrary-precision sweep, so results are
exact either way.

Layout: matrices are enumerated in row-major odometer order.  The first row
is a Python-level loop (this is also the sharding axis); the remaining rows
live in numpy arrays indexed by the flattened odometer of the bottom
entries, chunked to bound memory.  `sweep_square` histograms every key;
`count_target3` counts one 3x3 key without a histogram.
"""

from __future__ import annotations

import itertools

import numpy as np

# Keep every intermediate at or below 2^62: one spare bit on top of the proof.
_SAFE_LIMIT = 1 << 62

# Bottom-rows odometer is processed in chunks of at most this many matrices.
_CHUNK = 1 << 20


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
    """Accumulates (key row, count) pairs; compacts through np.unique."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pending_keys: list[np.ndarray] = []
        self.pending_counts: list[np.ndarray] = []
        self.pending_rows = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        if keys.size == 0:
            return
        if keys.ndim == 1:
            keys = keys.reshape(-1, 1)
        self.pending_keys.append(keys)
        self.pending_counts.append(counts.astype(np.int64, copy=False))
        self.pending_rows += keys.shape[0]
        if self.pending_rows >= 4_000_000:
            self._compact()

    def _compact(self) -> None:
        if len(self.pending_keys) <= 1:
            return
        keys = np.concatenate(self.pending_keys, axis=0)
        counts = np.concatenate(self.pending_counts)
        if self.ncols == 1:
            uniq, inverse = np.unique(keys[:, 0], return_inverse=True)
            uniq = uniq.reshape(-1, 1)
        else:
            uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        summed = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(summed, inverse, counts)
        self.pending_keys = [uniq]
        self.pending_counts = [summed]
        self.pending_rows = uniq.shape[0]

    def result(self) -> dict:
        self._compact()
        out: dict = {}
        if not self.pending_keys:
            return out
        keys = self.pending_keys[0]
        counts = self.pending_counts[0]
        if self.ncols == 1:
            for key, count in zip(keys[:, 0].tolist(), counts.tolist()):
                out[key] = out.get(key, 0) + count
        else:
            for row, count in zip(keys.tolist(), counts.tolist()):
                key = tuple(row)
                out[key] = out.get(key, 0) + count
        return out


def _block_histogram(acc: _HistAccumulator, *columns: np.ndarray) -> None:
    if len(columns) == 1:
        uniq, counts = np.unique(columns[0], return_counts=True)
        acc.add(uniq, counts)
        return
    stacked = np.stack(columns, axis=1)
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    acc.add(uniq, counts)


def sweep_square(
    values: list[int], n: int, want_det: bool, want_rank: bool,
    want_charpoly: bool, want_powersums: bool, lo: int, hi: int,
) -> dict:
    """Raw sweep over first-row odometer indices [lo, hi).

    Returns {"total", "rank", "det", "charpoly", "powersums"} with integer
    (or integer-tuple) keys in the denominator-cleared coordinate system.
    """
    if n == 2:
        return _sweep2(values, want_det, want_rank, want_charpoly, want_powersums, lo, hi)
    return _sweep3(values, want_det, want_rank, want_charpoly, want_powersums, lo, hi)


def _sweep2(values, want_det, want_rank, want_charpoly, want_powersums, lo, hi):
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    # Bottom row (c, d): c is the slow digit, d the fast one.
    C = np.repeat(v, size)
    D = np.tile(v, size)
    det_acc = _HistAccumulator(1) if want_det else None
    cp_acc = _HistAccumulator(2) if want_charpoly else None
    ps_acc = _HistAccumulator(2) if want_powersums else None
    rank_counts = {1: 0, 2: 0} if want_rank else None
    total = 0
    block = size * size

    need_dets = want_det or want_rank or want_charpoly
    for flat in range(lo, hi):
        i, j = divmod(flat, size)
        a = int(v[i])
        b = int(v[j])
        dets = a * D - b * C if need_dets else None
        if det_acc is not None:
            _block_histogram(det_acc, dets)
        if rank_counts is not None:
            singular = int(np.count_nonzero(dets == 0))
            rank_counts[1] += singular
            rank_counts[2] += block - singular
        if cp_acc is not None:
            _block_histogram(cp_acc, dets, -(a + D))
        if ps_acc is not None:
            t1 = a + D
            t2 = a * a + D * D + (2 * b) * C
            _block_histogram(ps_acc, t1, t2)
        total += block

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


def _sweep3(values, want_det, want_rank, want_charpoly, want_powersums, lo, hi):
    v = np.array(values, dtype=np.int64)
    size = v.shape[0]
    bottom_space = size**6
    det_acc = _HistAccumulator(1) if want_det else None
    cp_acc = _HistAccumulator(3) if want_charpoly else None
    ps_acc = _HistAccumulator(2) if want_powersums else None
    rank_counts = {1: 0, 2: 0, 3: 0} if want_rank else None
    total = 0

    need_minors = want_det or want_rank or want_charpoly
    first_rows = []
    for flat in range(lo, hi):
        top, k = divmod(flat, size)
        i, j = divmod(top, size)
        first_rows.append((int(v[i]), int(v[j]), int(v[k])))

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
