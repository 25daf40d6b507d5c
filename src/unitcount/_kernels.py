"""Vectorized int64 det sweep kernel for 3x3 matrices over Q and Q(i).

Rather than checking each operation for overflow, `supports` proves up
front, from the largest scaled entry component B, that every intermediate
the kernel computes fits comfortably in a signed 64-bit word.  If the proof
fails the caller falls back to the arbitrary-precision shared-minors det
sweep, so results are exact either way.  No other statistic needs a
kernel: `matrices` convolves products for 2x2 sweeps and power sums in
Python ints, and joins cycle invariants for the 3x3 charpoly on numpy
columns, grouping its packed keys with `_HistAccumulator`.

Layout: the det histogram comes from the unordered triples of distinct
rows i < j < k among the A^3 rows, row i dotted with the cross product of
rows j and k, built for at most `_CHUNK` pairs (j, k) at a time; a triple's
six row orders give det d three times and -d three times, and every matrix
with a repeated row has det 0.  The caller takes rank <= 2 from the det
zeros and rank <= 1 from the flats route (`matrices._flats_histogram`).  The
dets come in batches of `_BATCH`, each grouped by |det| with one sort
(`_group`), and the signs are folded back once, on the distinct values.
`sweep_square` histograms every det; `count_target3` counts one |det| per
batch without a histogram.

Over Q(i) a det re + i im is one int64 key, re 2^32 + im (`_pack`).  The
packing is linear and |im| < 2^31, so -key is the key of -det and |key|
tells d from -d as |det| does over Q: the grouping and the sign fold run
unchanged on keys, and only the histogram's keys are unpacked at the end.

The other int64 proofs sit beside `supports`, so that one place says when
int64 is exact: `audit_dtype` for the minor audit's sample lanes,
`charpoly_dtype` for the charpoly sweep's matrix lanes and `cycles_dtype`
for the 3x3 charpoly join's columns.
"""

from __future__ import annotations

import itertools

import numpy as np

# Keep every intermediate at or below 2^62: one spare bit on top of the proof.
_SAFE_LIMIT = 1 << 62

# Blocks hold at most this many 3x3 row pairs (j, k), or rows of the 3x3
# charpoly join's columns (`matrices._cycle_join`).
_CHUNK = 1 << 20

# Triple dets are grouped this many at a time.
_BATCH = 1 << 17

# Charpoly lanes hold at most this many matrices: 4x4 lanes ran faster at
# 2^14 than at 2^17 (over {1, 2} 2.6 against 2.1 million a second) and a
# batch's arrays then stay a few MB, Python-int lanes' included.
_LANE_BATCH = 1 << 14

# Pending histogram rows merged once there are this many.
_COMPACT_ROWS = 4_000_000

# A Q(i) det re + i im is keyed re * _PACK + im, with |re|, |im| < _HALF.
_PACK = 1 << 32
_HALF = 1 << 31


def supports(values) -> bool:
    """True when the 3x3 det kernel is exact for the ring `values`: ints
    over Q, (re, im) pairs over Q(i), B the largest |component|.

    Over Q every intermediate is at most 6 B^3, within _SAFE_LIMIT.  Over
    Q(i) each is the key of a Gaussian integer of modulus at most
    (6 B^2)^(3/2) (`_gaussian_arithmetic`), so 216 B^6 < 2^62 keeps each of
    its parts below 2^31."""
    if isinstance(values[0], tuple):
        bound = max(max(abs(re), abs(im)) for re, im in values)
        return 0 < 216 * bound**6 < _HALF * _HALF
    return 0 < 6 * max(map(abs, values)) ** 3 <= _SAFE_LIMIT


def _square_bound(values) -> int:
    """M^2, M the largest |x| of the ring `values`: ints over Q, (re, im)
    pairs over Q(i), where M^2 = re^2 + im^2."""
    return max(v[0] ** 2 + v[1] ** 2 if isinstance(v, tuple) else v * v for v in values)


def _lanes_fit(values, n: int, terms: int) -> bool:
    """terms (n M)^n < 2^62, compared squared: over Q(i) M^2 is an integer
    where M need not be."""
    return terms**2 * n ** (2 * n) * _square_bound(values) ** n < _SAFE_LIMIT**2


def audit_dtype(values, n: int):
    """int64 when (n+2) (n M)^n < 2^62 for the ring `values`; else object,
    Python ints: the dtype of the minor audit's n x n sample lanes.

    Each adjugate minor, and each partial sum of a minor's or a line's
    expansion, is a partial Leibniz sum: at most n! M^n <= (n M)^n, and a
    line sum less the det twice that.  The det comes from Berkowitz, under
    the (n+1) (n M)^n of `charpoly_dtype`.  Over Q(i) these bound moduli,
    hence both parts."""
    return np.int64 if _lanes_fit(values, n, n + 2) else object


def charpoly_dtype(values, n: int):
    """int64 when (n+1) (n M)^n < 2^62 for the ring `values`; else object:
    the dtype of Berkowitz (`matrices._charpoly_coeffs`) on n x n lanes.

    Its step to the (r+1)-block convolves the Toeplitz column t_i =
    R A^(i-2) C, at most r^(i-1) M^i (and t_1 = -a, t_0 = 1), with the
    r-block's coefficients p_j <= r^j M^j, i + j <= r + 1: each term is at
    most (r M)^(r+1), a partial sum of r + 2 of them below (n+1) (n M)^n,
    and each product A^k C or R A^k C on the way is smaller.  Over Q(i)
    these bound moduli, hence both parts."""
    return np.int64 if _lanes_fit(values, n, n + 1) else object


def cycles_dtype(values):
    """int64 when `supports(values)` holds and A^9 < 2^63; else object: the
    dtype of the 3x3 charpoly cycle join's columns
    (`matrices._cycles3_histogram`).

    The join's c0 = -d1 d2 d3 + d1 p23 + d2 p13 + d3 p12 - s is -det of a
    matrix over the values, a sum of six products of three entries, and it
    is built one product at a time: over Q each partial sum is at most 6B^3,
    the det kernel's bound.  Over Q(i) each product has modulus at most
    (sqrt 2 B)^3, so the parts of a partial sum stay below 17 B^3, far under
    2^62 where `supports` holds; c1 and the pair products are smaller.  Each
    key's count is summed in int64, and the counts add up to A^9."""
    return np.int64 if supports(values) and len(values) ** 9 < 1 << 63 else object


def _pack(det) -> int | None:
    """The int64 key of a ring det: itself over Q, re 2^32 + im for a Q(i)
    pair (re, im); None when no det under the proof has that key."""
    if isinstance(det, tuple):
        re, im = det
        return re * _PACK + im if max(abs(re), abs(im)) < _HALF else None
    return det if abs(det) <= _SAFE_LIMIT else None


def _unpack(key: int) -> tuple[int, int]:
    """The Q(i) det (re, im) of a key re 2^32 + im, |im| < 2^31."""
    im = (key + _HALF) % _PACK - _HALF
    return (key - im) // _PACK, im


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

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys in increasing order and their int64 counts."""
        self._compact()
        if not self.pending_keys:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # One piece is left, and `_group` made its keys distinct.
        return self.pending_keys[0], self.pending_counts[0]

    def result(self) -> dict:
        keys, counts = self.arrays()
        return dict(zip(keys.tolist(), counts.tolist()))


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


def _integer_arithmetic(rows: list):
    """Over Q: `cross(j, k)`, the cross products r_j x r_k of the pairs
    (j, k) as one int64 array per component, and `dot(terms, i, lo, hi,
    out, tmp)`, which writes row i dotted with the cross products lo..hi
    into `out`.  Each component is a 2x2 minor, at most 2B^2, and each det
    at most 6B^3."""
    x, y, z = np.array(rows, dtype=np.int64).T

    def cross(j, k):
        return [y[j] * z[k] - z[j] * y[k], z[j] * x[k] - x[j] * z[k], x[j] * y[k] - y[j] * x[k]]

    def dot(terms, i, lo, hi, out, tmp):
        (c1, c2, c3), (a1, a2, a3) = terms, rows[i]
        np.multiply(c1[lo:hi], a1, out=out)
        out += np.multiply(c2[lo:hi], a2, out=tmp)
        out += np.multiply(c3[lo:hi], a3, out=tmp)

    return cross, dot


def _gaussian_arithmetic(rows: list):
    """Over Q(i), `cross` and `dot` as over Q, on keys (`_pack`): per pair
    (j, k) the keys of the components c_t of r_j x r_k and of i c_t, six
    int64 arrays.  The key is linear, so row a meets the pair as the sum
    over t of Re(a_t) key(c_t) + Im(a_t) key(i c_t) = key(a . c), its zero
    weights skipped.

    Each part of c_t is a sum of four products, at most 4B^2.  Each partial
    sum of a det is sum_t x_t c_t with |x_t| <= |a_t|, of modulus at most
    |a| |c| (Cauchy-Schwarz) <= |a| |r_j| |r_k| (Lagrange's identity) <=
    (6B^2)^(3/2), rows having norm at most sqrt(6) B: under `supports` its
    parts stay below 2^31 and its key within int64."""
    entries = np.array(rows, dtype=np.int64)
    columns = [(entries[:, t, 0], entries[:, t, 1]) for t in range(3)]
    weights = [
        [(t, w) for t, w in enumerate([z[0] for z in row] + [z[1] for z in row]) if w]
        for row in rows
    ]

    def cross(j, k):
        a = [(re[j], im[j]) for re, im in columns]
        b = [(re[k], im[k]) for re, im in columns]
        keys, turned = [], []
        # Component t of a x b is a_u b_v - a_v b_u.
        for u, v in ((1, 2), (2, 0), (0, 1)):
            (aur, aui), (avr, avi), (bur, bui), (bvr, bvi) = a[u], a[v], b[u], b[v]
            cr = aur * bvr - aui * bvi - avr * bur + avi * bui
            ci = aur * bvi + aui * bvr - avr * bui - avi * bur
            keys.append(cr * _PACK + ci)
            turned.append(cr - ci * _PACK)
        return keys + turned

    def dot(terms, i, lo, hi, out, tmp):
        (t0, w0), *rest = weights[i]
        np.multiply(terms[t0][lo:hi], w0, out=out)
        for t, w in rest:
            out += np.multiply(terms[t][lo:hi], w, out=tmp)

    return cross, dot


def _triple_dets(values: list):
    """det(r_i, r_j, r_k) for every triple i < j < k of the A^3 rows over
    `values` (odometer order), ints over Q and `_pack` keys over Q(i), in
    new int64 batches of `_BATCH` dets (the last one shorter; one batch when
    there are fewer triples).

    The pairs j < k are taken in lexicographic order, at most `_CHUNK` at a
    time, and each pair's cross product r_j x r_k is computed once per chunk.
    The pairs with j > i are a suffix of that order, so row i meets a
    contiguous tail of the chunk; the tails are written one after another
    into the batch, a tail split where a batch fills.  The field's
    arithmetic (`_integer_arithmetic`, `_gaussian_arithmetic`) gives the
    cross products and the dots."""
    rows = list(itertools.product(values, repeat=3))
    gaussian = isinstance(values[0], tuple)
    cross, dot = (_gaussian_arithmetic if gaussian else _integer_arithmetic)(rows)
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
        terms = cross(j, k)
        # Every row before the chunk's last j meets a tail of it.
        for i in range(int(j[-1])):
            lo = max(firsts[i + 1] - p0, 0)
            while lo < len(p):
                hi = min(len(p), lo + size - filled)
                dot(terms, i, lo, hi, batch[filled : filled + hi - lo], scratch[: hi - lo])
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


def _det_histogram3(values: list) -> dict:
    """3x3 det histogram from the dets of the unordered row triples, grouped
    by |det| (by |key| over Q(i)): an even permutation of three distinct
    rows keeps det, an odd one negates it, so a triple with |det| = d > 0
    counts 3 at d and 3 at -d, one with det 0 counts 6 at 0; every matrix
    with two equal rows has det 0."""
    triples = _HistAccumulator()
    for dets in _triple_dets(values):
        _block_histogram(triples, dets)
    hist = {0: _repeated_rows3(len(values))}
    for d, count in triples.result().items():
        if d:
            hist[d] = hist[-d] = 3 * count
        else:
            hist[0] += 6 * count
    if isinstance(values[0], tuple):
        return {_unpack(key): count for key, count in hist.items()}
    return hist


# perfbench/spans.py wraps this name; it reads the raw dict's "total".
def sweep_square(values: list) -> dict:
    """Raw det sweep over every 3x3 matrix with entries in `values`, ints
    over Q or (re, im) pairs over Q(i).

    Returns {"total", "det"} with ring keys in the denominator-cleared
    coordinate system."""
    return {"total": len(values) ** 9, "det": _det_histogram3(values)}


def count_target3(values: list, det) -> int:
    """Number of 3x3 matrices over `values` whose raw det, a ring value in
    the key layout of `sweep_square`, equals `det`.

    Same arithmetic as `sweep_square`, under the same `supports` proof (the
    caller's job), but each batch's |det| (|key| over Q(i)) is compared with
    that of the target t and the hits are counted; no histogram is built: 3
    matrices per triple with det t or -t, plus the matrices with two equal
    rows when t = 0.  The proof bounds every det, so a target past it counts
    0.
    """
    key = _pack(det)
    if key is None:
        return 0
    target = abs(key)
    found = sum(
        int(np.count_nonzero(np.abs(batch, out=batch) == target))
        for batch in _triple_dets(values)
    )
    if key == 0:
        return 6 * found + _repeated_rows3(len(values))
    return 3 * found
