"""Independent reference implementations used to check the package.

Everything here except the helpers in the last paragraph works on pairs
(re, im) of Fractions, so the only shared surface with the package is the
Scalar accessors (re, im, den).  Determinants use permutation expansion, rank uses
textbook Gaussian elimination, and the characteristic polynomial comes from
Lagrange interpolation of det(tI - X) and, as a second check, from the trace
recursion.  Most of it is exponentially slow and meant for tiny inputs only;
`rank_profile_by_row_sets` reaches 4 x 5 by ranking each set of distinct
rows once.

`rank_det` is a fraction-free Bareiss elimination over the scaled ring
values, with its own exact division; the package eliminates nowhere.
`bareiss_sweep` is the plain loop of one `rank_det` per matrix, which the
shared-minors det sweep and the flats walk replaced.  It is fast enough for
4x4 sweeps that the Fraction oracles cannot reach, and it shares no
grouping or cofactor code with the route it checks.
`fast_det2_histogram` and `power_sums_from_coeffs` are written in `Scalar`
arithmetic: the 2x2 det convolution over Scalars, and Newton's identities
for the two leading coefficients.  `det_histogram`, `charpoly_histogram`
and `powersum_histogram` turn a sweep's raw ring-keyed histograms into
`Scalar`-keyed dicts, and `nondegenerate_cap_exact` is the exact integer of
the cap whose log10 `bounds.nondegenerate_cap_log10` gives.  `rank_saving`
and `rank_type_argmax` are closed forms that cross-check
`bounds.rank_exponent`: its saving on the trivial bound, and the type t
whose `bounds.rank_type_exponent` attains it.
`growth_points_per_k` runs a growth experiment with each k's set
materialized from its own family, the reference for the shared set that
`growth.run_experiment` takes prefixes of.  `random_matrix` draws a matrix's
indices the way the minor audit draws its samples.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from unitcount.bounds import _check_rank_args
from unitcount.families import materialize
from unitcount.matrices import (
    BudgetExceededError,
    MatrixInstance,
    _key_scales,
    _ring,
    _to_scalar,
    resolve_budget,
)
from unitcount.scalars import QI

Pair = tuple[Fraction, Fraction]

PZERO: Pair = (Fraction(0), Fraction(0))
PONE: Pair = (Fraction(1), Fraction(0))


def pair(scalar) -> Pair:
    return (Fraction(scalar.re, scalar.den), Fraction(scalar.im, scalar.den))


def padd(a: Pair, b: Pair) -> Pair:
    return (a[0] + b[0], a[1] + b[1])


def psub(a: Pair, b: Pair) -> Pair:
    return (a[0] - b[0], a[1] - b[1])


def pmul(a: Pair, b: Pair) -> Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def pdiv(a: Pair, b: Pair) -> Pair:
    norm = b[0] * b[0] + b[1] * b[1]
    if norm == 0:
        raise ZeroDivisionError("division by zero pair")
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def pscale(a: Pair, c: Fraction) -> Pair:
    return (a[0] * c, a[1] * c)


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_pairs(rows: list[list[Pair]]) -> Pair:
    n = len(rows)
    total = PZERO
    for perm in itertools.permutations(range(n)):
        term = PONE
        for i in range(n):
            term = pmul(term, rows[i][perm[i]])
        total = padd(total, pscale(term, Fraction(_perm_sign(perm))))
    return total


def rank_pairs(rows: list[list[Pair]]) -> int:
    work = [row[:] for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank = 0
    col = 0
    row = 0
    while row < m and col < n:
        pivot = None
        for i in range(row, m):
            if work[i][col] != PZERO:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col]
        for i in range(row + 1, m):
            if work[i][col] == PZERO:
                continue
            factor = pdiv(work[i][col], inv)
            work[i] = [
                psub(entry, pmul(factor, top))
                for entry, top in zip(work[i], work[row])
            ]
        rank += 1
        row += 1
        col += 1
    return rank


def charpoly_pairs(rows: list[list[Pair]]) -> list[Pair]:
    """Coefficients c_0..c_{n-1} of det(tI - X); the leading 1 is checked."""
    n = len(rows)
    points = []
    for t in range(n + 1):
        shifted = [
            [
                psub((Fraction(t), Fraction(0)), rows[i][j])
                if i == j
                else pscale(rows[i][j], Fraction(-1))
                for j in range(n)
            ]
            for i in range(n)
        ]
        points.append((Fraction(t), det_pairs(shifted)))
    coeffs = _lagrange(points)
    assert len(coeffs) == n + 1
    assert coeffs[n] == PONE
    return coeffs[:n]


def charpoly_trace_recursion(rows: list[list[Pair]]) -> list[Pair]:
    """Coefficients c_0..c_{n-1} of det(tI - X) by the trace recursion
    M_1 = X, c_(n-1) = -tr M_1, M_k = X(M_(k-1) + c_(n-k+1) I),
    c_(n-k) = -tr(M_k)/k.  It shares nothing with Berkowitz or with
    interpolation, so it is a second independent check of both."""
    n = len(rows)

    def mat_mul(a, b):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                total = PZERO
                for k in range(n):
                    total = padd(total, pmul(a[i][k], b[k][j]))
                row.append(total)
            out.append(row)
        return out

    def minus_trace(a) -> Pair:
        total = PZERO
        for i in range(n):
            total = psub(total, a[i][i])
        return total

    coeffs = [PZERO] * n
    power = [row[:] for row in rows]
    coeffs[n - 1] = minus_trace(power)
    for k in range(2, n + 1):
        shifted = [row[:] for row in power]
        for i in range(n):
            shifted[i][i] = padd(shifted[i][i], coeffs[n - k + 1])
        power = mat_mul(rows, shifted)
        coeffs[n - k] = pscale(minus_trace(power), Fraction(1, k))
    return coeffs


def _lagrange(points: list[tuple[Fraction, Pair]]) -> list[Pair]:
    count = len(points)
    coeffs = [PZERO] * count
    for t_i, value in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for t_j, _ in points:
            if t_j == t_i:
                continue
            denom *= t_i - t_j
            shifted = [Fraction(0)] + basis
            basis = [
                shifted[d] - t_j * (basis[d] if d < len(basis) else Fraction(0))
                for d in range(len(shifted))
            ]
        scale = Fraction(1) / denom
        for d in range(len(basis)):
            coeffs[d] = padd(coeffs[d], pscale(value, basis[d] * scale))
    return coeffs


def power_sums_from_coeffs(c_top, c_second):
    """(t1, t2) = (trace, trace of the square) from the two leading
    non-monic coefficients, as Scalars: t1 = -c_(n-1), t2 = t1^2 - 2 c_(n-2)."""
    t1 = -c_top
    t2 = t1 * t1 - (c_second + c_second)
    return t1, t2


# -- oracles over element sets --------------------------------------------------


def fast_det2_histogram(elements) -> dict:
    """Histogram of det over all 2x2 matrices, via product convolution in
    Scalar arithmetic."""
    products: dict = {}
    for x in elements:
        for y in elements:
            p = x * y
            products[p] = products.get(p, 0) + 1
    hist: dict = {}
    for p1, c1 in products.items():
        for p2, c2 in products.items():
            key = p1 - p2
            hist[key] = hist.get(key, 0) + c1 * c2
    return hist


def _scalar_histogram(hist, stat: str, wrap) -> dict | None:
    """A sweep's raw `stat` histogram keyed by `wrap` of its Scalar values
    (None when not swept)."""
    raw = hist.raw[stat]
    if raw is None:
        return None
    scales = _key_scales(stat, hist.n, hist.lcm)
    return {
        wrap(tuple(map(_to_scalar, itertools.repeat(hist.field),
                       (key,) if stat == "det" else key, scales))): count
        for key, count in raw.items()
    }


def det_histogram(hist) -> dict | None:
    return _scalar_histogram(hist, "det", operator.itemgetter(0))


def charpoly_histogram(hist) -> dict | None:
    return _scalar_histogram(hist, "charpoly", tuple)


def powersum_histogram(hist) -> dict | None:
    return _scalar_histogram(hist, "powersums", tuple)


def nondegenerate_cap_exact(n: int, group_rank: int) -> int:
    """The cap (8n)^(4 n^4 (n + rank + 1)) as an exact integer; cheap for
    n <= 2, grows quickly."""
    if n < 1 or group_rank < 0:
        raise ValueError("need n >= 1 and group_rank >= 0")
    return (8 * n) ** (4 * n**4 * (n + group_rank + 1))


def rank_saving(n: int, m: int, r: int) -> Fraction:
    """How far rank-bound improves on rank-trivial when 2m > n + r:
    (n-r)(r-1)/2 for odd r, r(n-r)/2 + (m-n) for even r."""
    _check_rank_args(n, m, r)
    if 2 * m <= n + r:
        raise ValueError("closed-form saving applies in the 2m > n+r regime")
    if r % 2 == 1:
        return Fraction((n - r) * (r - 1), 2)
    return Fraction(r * (n - r), 2) + (m - n)


def rank_type_argmax(n: int, m: int, r: int) -> int:
    """Closed-form maximizing t for rank_type_exponent: 1 in the 2m <= n+r
    regime, otherwise the largest odd value not exceeding r."""
    _check_rank_args(n, m, r)
    if 2 * m <= n + r:
        return 1
    return 2 * ((r - 1) // 2) + 1


def random_matrix(elements, m: int, n: int, rng) -> MatrixInstance:
    """An m x n matrix of indices into `elements`: one `rng.randrange(A)`
    per entry, row-major, the draws the minor audit makes per sample."""
    size = len(elements)
    return MatrixInstance.from_rows(
        [[rng.randrange(size) for _ in range(n)] for _ in range(m)]
    )


def pairs_from_rows(scalar_rows) -> list[list[Pair]]:
    return [[pair(entry) for entry in row] for row in scalar_rows]


def all_matrices(elements, m: int, n: int):
    for combo in itertools.product(tuple(elements), repeat=m * n):
        yield combo


def sweep_counts(elements, m: int, n: int) -> dict:
    """Full naive sweep: rank profile plus (square only) det, charpoly and
    power-sum histograms keyed by Fraction pairs."""
    ranks: dict[int, int] = {}
    dets: dict[Pair, int] = {}
    charpolys: dict[tuple[Pair, ...], int] = {}
    powersums: dict[tuple[Pair, Pair], int] = {}
    square = m == n
    for combo in all_matrices(elements, m, n):
        rows = [[pair(combo[i * n + j]) for j in range(n)] for i in range(m)]
        r = rank_pairs(rows)
        ranks[r] = ranks.get(r, 0) + 1
        if square:
            d = det_pairs(rows)
            dets[d] = dets.get(d, 0) + 1
            cp = tuple(charpoly_pairs(rows))
            charpolys[cp] = charpolys.get(cp, 0) + 1
            t1 = PZERO
            for i in range(n):
                t1 = padd(t1, rows[i][i])
            t2 = PZERO
            for i in range(n):
                for j in range(n):
                    t2 = padd(t2, pmul(rows[i][j], rows[j][i]))
            key = (t1, t2)
            powersums[key] = powersums.get(key, 0) + 1
    out = {"rank": ranks}
    if square:
        out["det"] = dets
        out["charpoly"] = charpolys
        out["powersums"] = powersums
    return out


def rank_profile_by_row_sets(elements, m: int, n: int, top: int) -> dict[int, int]:
    """Number of m x n matrices over `elements` of each rank <= `top`,
    without visiting each: a matrix is w = max(m, n) vectors of elements^d,
    d = min(m, n) (rank is invariant under transposition), and the w-tuples
    whose set of distinct vectors is S number the surjections of w
    positions onto S.  Sets are grown one vector at a time in index order
    and ranked by `rank_pairs`; one of rank above `top` is not grown, since
    every superset has rank above `top` too."""
    d, w = min(m, n), max(m, n)
    vectors = [[pair(x) for x in v] for v in itertools.product(tuple(elements), repeat=d)]
    onto = [sum((-1) ** j * math.comb(k, j) * (k - j) ** w for j in range(k + 1))
            for k in range(w + 1)]
    ranks: dict[int, int] = {}
    stack = [([], 0)]
    while stack:
        rows, start = stack.pop()
        for i in range(start, len(vectors) if len(rows) < w else 0):
            grown = rows + [vectors[i]]
            r = rank_pairs(grown)
            if r <= top:
                ranks[r] = ranks.get(r, 0) + onto[len(grown)]
                stack.append((grown, i + 1))
    return ranks


def _gaussian_quotient(a, b):
    """a / b for (re, im) pairs known to divide exactly: a conj(b) / |b|^2."""
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) // norm, (a[1] * b[0] - a[0] * b[1]) // norm)


def rank_det(rows, field: str) -> tuple[int, object]:
    """(rank, det) of a matrix of scaled ring values from one fraction-free
    Bareiss pass with pivot search and column skipping; det is the ring's
    zero unless the matrix is square of full rank.  Each division is exact."""
    ring = _ring(field)
    sub, mul, zero = ring.sub, ring.mul, ring.zero
    div = _gaussian_quotient if field == QI else operator.floordiv
    M = [list(r) for r in rows]
    m, n = len(M), len(M[0])
    r = swaps = 0
    prev = ring.one
    for c in range(n):
        for p in range(r, m):
            if M[p][c] != zero:
                break
        else:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            swaps += 1
        row_r = M[r]
        pivot = row_r[c]
        for row_i in M[r + 1 :]:
            mic = row_i[c]
            for j in range(c + 1, n):
                row_i[j] = div(sub(mul(row_i[j], pivot), mul(mic, row_r[j])), prev)
        # The k-th Bareiss pivot is a k x k minor, so the last one is det.
        prev = pivot
        r += 1
    if r < n or m != n:
        return r, zero
    return r, ring.neg(prev) if swaps % 2 else prev


def bareiss_sweep(
    values: list, field: str, m: int, n: int, rows: list | None = None
) -> tuple[dict, dict | None]:
    """(rank, det) histograms of every m x n matrix over the scaled ring
    values, keyed like the sweep's raw histograms; det is None unless
    square.  With `rows`, only the matrices whose rows all come from that
    list of ring vectors.  One `rank_det` call per matrix, in odometer
    order."""
    ranks: dict[int, int] = {}
    dets: dict | None = {} if m == n else None
    if rows is None:
        rows = list(itertools.product(values, repeat=n))
    for matrix in itertools.product(rows, repeat=m):
        r, d = rank_det(matrix, field)
        ranks[r] = ranks.get(r, 0) + 1
        if dets is not None:
            dets[d] = dets.get(d, 0) + 1
    return ranks, dets


def equation_count(coeff_pairs: list[Pair], rhs: Pair, elements) -> int:
    values = [pair(e) for e in elements]
    n = len(coeff_pairs)
    total = 0
    for combo in itertools.product(values, repeat=n):
        acc = PZERO
        for c, x in zip(coeff_pairs, combo):
            acc = padd(acc, pmul(c, x))
        if acc == rhs:
            total += 1
    return total


def system_count(n: int, elements) -> int:
    values = [pair(e) for e in elements]
    total = 0
    for combo in itertools.product(values, repeat=n):
        s = PZERO
        q = PZERO
        for x in combo:
            s = padd(s, x)
            q = padd(q, pmul(x, x))
        if s == PZERO and q == PZERO:
            total += 1
    return total


def classify_counts(coeff_pairs: list[Pair], rhs: Pair, elements) -> dict:
    """First vanishing subsum per solution, largest subsets first."""
    values = [pair(e) for e in elements]
    n = len(coeff_pairs)
    masks = []
    for mask in range(1, 1 << n):
        indices = tuple(j + 1 for j in range(n) if mask >> j & 1)
        masks.append(indices)
    masks.sort(key=lambda idx: (-len(idx), idx))
    classes: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(values, repeat=n):
        terms = [pmul(c, x) for c, x in zip(coeff_pairs, combo)]
        acc = PZERO
        for t in terms:
            acc = padd(acc, t)
        if acc != rhs:
            continue
        hit = ()
        for indices in masks:
            s = PZERO
            for i in indices:
                s = padd(s, terms[i - 1])
            if s == PZERO:
                hit = indices
                break
        classes[hit] = classes.get(hit, 0) + 1
    return classes


def growth_points_per_k(spec) -> tuple[list[tuple[int, int, int]], bool]:
    """(k, set_size, count) per k of a growth experiment and whether the
    budget stopped it, with each k's set materialized from `family_at(k)`."""
    budget = resolve_budget(spec.budget)
    points = []
    for k in spec.k_values:
        elements = materialize(spec.family.family_at(k))
        try:
            count = spec.statistic.count(elements, budget)
        except BudgetExceededError:
            return points, True
        points.append((k, len(elements), count))
    return points, False
