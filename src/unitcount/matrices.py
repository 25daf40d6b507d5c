"""Exact matrix statistics (rank, determinant, characteristic polynomial)
with entries drawn from a finite scalar set, plus full-domain sweeps.

All computation clears denominators first: an ElementSet with denominator
lcm L turns into integer (or Gaussian-integer) entries, statistics are
computed fraction-free over the integers, and results are rescaled by the
appropriate power of L at the end; nothing divides.  The square det sweep
dots each last row with cofactors whose minors are built row by row by
Laplace expansion (`_wedge`) and shared between blocks, and the minor audit
takes a batch's adjugates, each entry a numpy array over samples, from the
same fold (`_adjugate`).  Characteristic polynomials, and one matrix's det,
come from Berkowitz's division-free algorithm.  Each routine is written
once over a ring of exact integer or Gaussian-integer operations, so Q and
Qi share it.

Sweeps histogram the requested statistics over every matrix in
elements^(m*n), and single counts (count_det, count_rank, count_charpoly,
count_power_sums, and growth's equation and system counts) count one key.
Each plans its routes (plan_square, plan_rank, plan_mitm), and one runner,
`_run`, charges them and runs each from the route table (see the count
planner section).  Power sums, at every n, and every 2x2 statistic are
convolutions of pairwise products, and the 3x3 charpoly one join of cycle
invariants on numpy columns, over Q and Qi alike.  A 3x3 det, over Q or Qi, whose
a-priori magnitude bound proves that no intermediate can leave int64 runs
the vectorized kernel.  Otherwise square det comes from shared minors, level
by level: each distinct block's minors are computed once, and the last
level's cofactor vectors, one of each pair v, -v, meet the last rows; any
other charpoly comes from Berkowitz on numpy lanes of matrices.  Rank, in
every shape, comes from one ordered walk over the flats that the lines of
the shorter side span (a square's rank <= n-1 from its det zeros when det
is swept); no matrix is ranked one by one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .families import ElementSet
from .scalars import (
    Q, QI, FieldMismatchError, Scalar, parse_whole, scalar_text,
)

DEFAULT_BUDGET = 200_000_000
BUDGET_ENV_VAR = "UNITCOUNT_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised before starting work whose size estimate exceeds the budget."""

    def __init__(self, required: int, budget: int, what: str = "sweep"):
        super().__init__(
            f"{what} requires {required} units of work, over the budget of {budget}"
        )
        self.required = required
        self.budget = budget


def parse_budget(value) -> int:
    """A work budget, read exactly by `parse_whole`."""
    return parse_whole(value, "budget")


def resolve_budget(budget: int | None) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        budget = parse_budget(env) if env is not None else DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


# -- matrix container ---------------------------------------------------------


@dataclass(frozen=True)
class MatrixInstance:
    """An m x n matrix given as row-major indices into an ElementSet."""

    m: int
    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.m or any(len(r) != self.n for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple) -> "MatrixInstance":
        entries = tuple(tuple(r) for r in rows)
        return MatrixInstance(len(entries), len(entries[0]) if entries else 0, entries)

    def scalar_rows(self, elements: ElementSet) -> list[list[Scalar]]:
        return [[elements[j] for j in row] for row in self.entries]


def _scaled_rows(X: MatrixInstance, elements: ElementSet) -> list[list]:
    _, values = elements.scaled_integers()
    size = len(elements)
    for row in X.entries:
        for idx in row:
            if not 0 <= idx < size:
                raise IndexError(f"entry index {idx} outside set of size {size}")
    return [[values[idx] for idx in row] for row in X.entries]


# -- exact integer and Gaussian-integer cores ---------------------------------
#
# Scaled entries are ints (field Q) or (re, im) int pairs (field QI).  Each
# core below is written once against a _Ring of the exact operations on those
# values, so one minor fold and one charpoly routine serve both fields.


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gneg(a):
    return (-a[0], -a[1])


def _idot(xs, ys):
    return sum(map(operator.mul, xs, ys))


def _gdot(xs, ys):
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return (re, im)


def _idots(xs, ys, size: int) -> list:
    return list(map(sum, zip(*[map(operator.mul, xs, ys)] * size)))


def _gdots(xs, ys, size: int) -> list:
    out = []
    re = im = t = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
        t += 1
        if t == size:
            out.append((re, im))
            re = im = t = 0
    return out


@dataclass(frozen=True)
class _Ring:
    """Exact arithmetic on scaled entries; `dots(xs, ys, size)` lists the
    dot products of consecutive slices of `size` of xs and ys.  A list, as
    a tuple built from an iterator is resized, and CPython's per-size tuple
    free lists then keep up to 2,000 freed tuples of each result size."""

    add: Callable
    sub: Callable
    mul: Callable
    neg: Callable
    dot: Callable
    dots: Callable
    zero: object
    one: object


_INTEGERS = _Ring(
    operator.add, operator.sub, operator.mul, operator.neg, _idot, _idots, 0, 1,
)
_GAUSSIAN_INTEGERS = _Ring(
    _gadd, _gsub, _gmul, _gneg, _gdot, _gdots, (0, 0), (1, 0)
)


def _ring(field: str) -> _Ring:
    return _GAUSSIAN_INTEGERS if field == QI else _INTEGERS


def _to_scalar(field: str, value, den: int) -> Scalar:
    """The Scalar value/den for a ring value of the given field."""
    if field == QI:
        return Scalar(QI, value[0], value[1], den)
    return Scalar(Q, value, 0, den)


# -- shared minors -------------------------------------------------------------
#
# The k-minors of a k-row block with n columns are listed over the k-subsets
# of the columns, in `itertools.combinations(range(n), k)` order.  One more
# row on top gives the (k+1)-minors by Laplace expansion along that row
# (`_wedge`), so the minors of a block are a fold from its bottom row up,
# and blocks that share their lower rows share those rows' minors.  The
# square det sweep folds that way over blocks, and the minor audit's
# adjugate over the n blocks of n-1 rows of one matrix (`_adjugate`).


@functools.cache
def _wedge_plan(n: int, k: int, cofactors: bool) -> tuple:
    """The Laplace terms of every (k+1)-subset S = (s_0 < ... < s_k) of the
    n columns, S in combinations order: (-1)^t row[s_t] times the k-minor
    of S without s_t, for t = 0..k.  Two getters list them, one the signed
    entries from the row followed by its negation, one the k-minors; each
    gets at least two items from n = 2 on.  For `cofactors` (k = n - 2)
    the subsets run in reverse, so the j-th omits column j, and each term
    takes the cofactor sign (-1)^(n-1+j) too."""
    index = {cols: i for i, cols in enumerate(itertools.combinations(range(n), k))}
    subsets = list(itertools.combinations(range(n), k + 1))
    entries, subs = [], []
    for j, cols in enumerate(subsets[::-1] if cofactors else subsets):
        sign = n - 1 + j if cofactors else 0
        entries += [c + n * ((t + sign) % 2) for t, c in enumerate(cols)]
        subs += [index[cols[:t] + cols[t + 1 :]] for t in range(k + 1)]
    return operator.itemgetter(*entries), operator.itemgetter(*subs)


def _wedge(row, minors: tuple, k: int, ring: _Ring, cofactors: bool = False) -> tuple:
    """The (k+1)-minors of `row` stacked on top of a k-row block whose
    k-minors are `minors`; the empty block's one minor is ring.one.  With
    `cofactors`, when row and block are the top n-1 rows of an n x n
    matrix, its last row's signed cofactors instead, in column order."""
    entries, subs = _wedge_plan(len(row), k, cofactors)
    return tuple(ring.dots(entries((*row, *map(ring.neg, row))), subs(minors), k + 1))


def _adjugate(flat, ring: _Ring, n: int) -> list:
    """C[i][j] = (-1)^(i+j) times the minor of the n x n matrix with
    row-major entries `flat` without row i and column j, row-major.  Row i
    of C is the last row's signed cofactors (`_wedge`) of the matrix with
    row i moved last, negated when n-1-i is odd; the minors of the rows
    other than i are folded from the bottom up, and `below[b]`, the
    b-minors of the last b rows, is shared by every row above them.  Row i
    dotted with row i of C, or column j with column j, is the det."""
    if n == 1:
        return [ring.one]
    rows = [flat[k : k + n] for k in range(0, n * n, n)]

    def fold(row, minors, k):  # a row's 1-minors are its entries
        return _wedge(row, minors, k, ring) if k else row

    below = [(ring.one,)]
    for b in range(1, n - 1):
        below.append(fold(rows[n - b], below[-1], b - 1))
    adjugate = []
    for i in range(n):
        others = rows[:i] + rows[i + 1 :]
        k = min(n - 1 - i, n - 2)
        minors = below[k]
        for row in others[n - 2 - k : 0 : -1]:
            minors, k = fold(row, minors, k), k + 1
        last = _wedge(others[0], minors, k, ring, cofactors=True)
        adjugate += map(ring.neg, last) if (n - 1 - i) % 2 else last
    return adjugate


def _charpoly_coeffs(rows: list[list], ring: _Ring) -> list:
    """c_0..c_(n-1) of the monic det(T*I - M), by Berkowitz's division-free
    recurrence: the charpoly of each leading (r+1) x (r+1) block is the
    previous one convolved with (1, -a, -R C, -R A C, ..., -R A^(r-1) C),
    where A is the leading r x r block, C the column above the new diagonal
    entry a and R the row left of it."""
    neg, dot = ring.neg, ring.dot
    poly = [ring.one]  # highest degree first
    for r in range(len(rows)):
        row = rows[r][:r]
        block = [rows[i][:r] for i in range(r)]
        vec = [rows[i][r] for i in range(r)]
        toeplitz = [ring.one, neg(rows[r][r])]
        for k in range(r):
            toeplitz.append(neg(dot(row, vec)))
            if k < r - 1:
                vec = [dot(line, vec) for line in block]
        poly = [dot(toeplitz[i::-1], poly) for i in range(r + 2)]
    return poly[:0:-1]


# -- one matrix's det ---------------------------------------------------------


# No count calls this; perfbench/spans.py looks it up as minors.det to span it.
def det(X: MatrixInstance, elements: ElementSet) -> Scalar:
    """Determinant (-1)^n c_0 from Berkowitz (`_charpoly_coeffs`)."""
    if X.m != X.n:
        raise ValueError("determinant needs a square matrix")
    lcm, _ = elements.scaled_integers()
    ring = _ring(elements.field)
    raw = _charpoly_coeffs(_scaled_rows(X, elements), ring)[0]
    return _to_scalar(elements.field, ring.neg(raw) if X.n % 2 else raw, lcm**X.n)


# -- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOptions:
    rank: bool = True
    det: bool = True
    charpoly: bool = False
    powersums: bool = False
    budget: int | None = None


_SQUARE_STATS = ("det", "charpoly", "powersums")

# `SweepHistogram.write_csv` writes this many rows per string.
_CSV_ROWS = 1 << 16


def _key_scales(stat: str, n: int, lcm: int) -> tuple[int, ...]:
    """Denominator of each coordinate of an n x n `stat` key in the
    denominator-cleared ring: det lcm^n, charpoly c_k lcm^(n-k), power sums
    (lcm, lcm^2)."""
    if stat == "det":
        return (lcm**n,)
    if stat == "charpoly":
        return tuple(lcm ** (n - k) for k in range(n))
    return (lcm, lcm * lcm)


def _ring_key(field: str, target: tuple[Scalar, ...], scales) -> tuple | None:
    """Each target value times its scale, as ring values; None when one is
    not a ring element (its denominator does not divide the scale).  A
    value of another field is an error."""
    key = []
    for value, scale in zip(target, scales):
        if value.field != field:
            raise FieldMismatchError(f"target in field {value.field}, set in field {field}")
        if scale % value.den:
            return None
        factor = scale // value.den
        re, im = value.re * factor, value.im * factor
        key.append((re, im) if field == QI else re)
    return tuple(key)


@dataclass
class SweepHistogram:
    """Joint result of one full sweep over elements^(m*n).

    `raw` holds the "det", "charpoly" and "powersums" histograms (None when
    not swept) as the sweep built them: keyed in the denominator-cleared
    ring, a det key one ring value, the others tuples (c_0..c_(n-1) and
    (t1, t2)), each coordinate over its `_key_scales` of `lcm`.  Scalars
    appear only in a count's target and in the output."""

    field: str
    m: int
    n: int
    set_size: int
    total: int
    lcm: int
    rank_profile: dict[int, int] | None
    raw: dict[str, dict | None]

    def validate(self) -> None:
        expected = self.set_size ** (self.m * self.n)
        if self.total != expected:
            raise AssertionError(f"sweep total {self.total} != {expected}")
        for name, hist in (("rank", self.rank_profile), *self.raw.items()):
            if hist is None:
                continue
            mass = sum(hist.values())
            if mass != self.total:
                raise AssertionError(f"{name} histogram mass {mass} != {self.total}")
        if self.rank_profile is not None:
            max_rank = min(self.m, self.n)
            for r in self.rank_profile:
                if not 1 <= r <= max_rank:
                    raise AssertionError(f"impossible rank {r}")
        # A square matrix has full rank exactly when its determinant is nonzero.
        dets = self.raw["det"]
        if self.m == self.n and self.rank_profile is not None and dets is not None:
            singular = dets.get(_ring(self.field).zero, 0)
            if self.rank_profile.get(self.n, 0) != self.total - singular:
                raise AssertionError("rank/determinant cross-check failed")

    def _csv_columns(self):
        """(statistic, key columns, counts) for each statistic, keys in value
        order, which is the order of the ring keys since every scale is
        positive.  A key column holds one coordinate of every key: its
        texts, or the ints themselves for a Q coordinate over scale 1."""
        ranks, qi = self.rank_profile or {}, self.field == QI
        order = sorted(ranks)
        yield "rank", [order], [ranks[r] for r in order]
        for stat, raw in self.raw.items():
            if raw is None:
                continue
            if stat == "det":
                keys = sorted(raw)
                columns = [keys]
            else:
                # Over Qi a tuple key's coordinates are (re, im) pairs, whose
                # concatenation sorts the same and compares faster than nesting.
                keys = sorted(raw, key=lambda key: sum(key, ())) if qi else sorted(raw)
                columns = list(zip(*keys))
            texts = []
            for column, scale in zip(columns, _key_scales(stat, self.n, self.lcm)):
                if scale == 1 and not qi:
                    texts.append(column)
                    continue
                text = _coordinate_text(qi, scale)
                if stat == "det":  # every det key is distinct: one text each
                    texts.append(list(map(text, column)))
                else:  # a tuple key's coordinate repeats: one text per value
                    texts.append(list(map({v: text(v) for v in set(column)}.get, column)))
            yield stat, texts, [raw[key] for key in keys]

    def csv_rows(self) -> list[tuple[str, str, int]]:
        """(statistic, key text, count) rows, keys in value order."""
        return [
            (stat, ",".join(map(str, key)), count)
            for stat, columns, counts in self._csv_columns()
            for *key, count in zip(*columns, counts)
        ]

    def write_csv(self, out) -> None:
        """Write the rows of `csv_rows` to the text handle `out` as CSV under
        a header, each key quoted: one string per `_CSV_ROWS` rows."""
        out.write("statistic,key,count\n")
        for stat, columns, counts in self._csv_columns():
            row = stat + ',"' + ",".join(["{}"] * len(columns)) + '",{}\n'
            for lo in range(0, len(counts), _CSV_ROWS):
                hi = lo + _CSV_ROWS
                out.write("".join(map(row.format, *[c[lo:hi] for c in columns], counts[lo:hi])))


def _coordinate_text(qi: bool, scale: int):
    """Text of a ring coordinate over `scale`, reduced by `scalar_text`."""
    if qi:
        return lambda v: scalar_text(*v, scale)
    return lambda v: scalar_text(v, 0, scale)


def _square_det(rows: list[tuple], n: int, ring: _Ring) -> dict:
    """Det histogram of every n x n matrix whose rows come from `rows`, by
    shared minors, level by level: level k maps the minors of each distinct
    k-row block to its number of blocks, and level k+1 stacks every row on
    top of each (`_wedge`).  A block whose minors all vanish is set aside,
    as every taller block on it and every last row under it give zeros.
    The last level holds the cofactor vectors of the distinct top blocks,
    and each meets the last rows once, det being the dot product.

    From two rows on, swapping two rows negates a block's minors, so the
    blocks with minors v and -v are equally many.  Such a level keeps one
    vector of each pair v, -v, with the number of blocks of both, and a
    row stacked on it stands for both, the minors of the other being the
    negation.  So each det d of the last level counts half at d and half
    at -d."""
    dot, neg, size = ring.dot, ring.neg, len(rows)
    level = {(ring.one,): 1}
    vanishing = 0  # blocks so far whose minors all vanish
    for k in range(n - 1):
        grown: dict = {}
        for minors, mult in level.items():
            for row in rows:
                key = _wedge(row, minors, k, ring, cofactors=k == n - 2)
                if k:  # one of each pair v, -v from two rows on
                    key = max(key, tuple(map(neg, key)))
                grown[key] = grown.get(key, 0) + mult
        vanishing = vanishing * size + grown.pop((ring.zero,) * math.comb(n, k + 1), 0)
        level = grown
    dets: dict = {}
    for cofactors, mult in level.items():
        for last in rows:
            d = dot(last, cofactors)
            dets[d] = dets.get(d, 0) + mult
    if n > 2:
        pairs, dets = dets, {}
        for d, count in pairs.items():
            dets[d] = dets.get(d, 0) + count // 2
            dets[neg(d)] = dets.get(neg(d), 0) + count // 2
    if vanishing:
        dets[ring.zero] = dets.get(ring.zero, 0) + vanishing * size
    return dets


def _matrix_lanes(table: np.ndarray, cells: int):
    """Every matrix of `cells` entries over the A values on the last axis
    of `table`, in odometer order, as lists of `cells` lanes (each an array
    over matrices, or a (re, im) pair over Q(i)) of at most
    `_kernels._LANE_BATCH` matrices: the matrix numbered t has the value of
    digit j of t in base A in its j-th cell from the last."""
    size, batch = table.shape[-1], _kernels._LANE_BATCH
    for start in range(0, size**cells, batch):
        index = np.arange(start, min(start + batch, size**cells))
        lanes = [table[..., index // size**j % size] for j in range(cells - 1, -1, -1)]
        yield [tuple(lane) for lane in lanes] if table.ndim == 2 else lanes


def _charpoly_histogram(values: list, field: str, n: int) -> dict:
    """Raw charpoly histogram of every n x n matrix over the ring `values`:
    Berkowitz (`_charpoly_coeffs`) on lanes of matrices (`_matrix_lanes`),
    int64 under `_kernels.charpoly_dtype` and Python ints past it, each
    batch's keys counted by a Counter over the coefficient columns."""
    ring = _ring(field)
    table = np.array(values, dtype=_kernels.charpoly_dtype(values, n)).T
    hist: Counter = Counter()
    for flat in _matrix_lanes(table, n * n):
        coeffs = _charpoly_coeffs([flat[k : k + n] for k in range(0, n * n, n)], ring)
        if field == QI:
            hist.update(zip(*(zip(re.tolist(), im.tolist()) for re, im in coeffs)))
        else:
            hist.update(zip(*(c.tolist() for c in coeffs)))
    return dict(hist)


# perfbench/spans.py wraps this name; it reads the raw dict's "total".
def _generic_shard(values: list, field: str, n: int, stat: str) -> dict:
    """The planner's "sweep" route of one square statistic, "det" or
    "charpoly", over every n x n matrix in ring arithmetic, any field:
    {"total": A^(n^2), stat: raw histogram}.  det comes from the shared
    minors of `_square_det`, which computes each minor of each distinct
    block once, charpoly from Berkowitz on lanes of matrices
    (`_charpoly_histogram`)."""
    raw = {"total": len(values) ** (n * n)}
    if stat == "det":
        raw["det"] = _square_det(list(itertools.product(values, repeat=n)), n, _ring(field))
    else:
        raw["charpoly"] = _charpoly_histogram(values, field, n)
    return raw


# perfbench/spans.py wraps this name (span "matrices.finalize").
def _finalize(raw: dict, elements: ElementSet, m: int, n: int) -> SweepHistogram:
    lcm, _ = elements.scaled_integers()
    hist = SweepHistogram(
        field=elements.field,
        m=m,
        n=n,
        set_size=len(elements),
        total=raw["total"],
        lcm=lcm,
        rank_profile=raw.get("rank"),
        raw={stat: raw.get(stat) for stat in _SQUARE_STATS},
    )
    hist.validate()
    return hist


def sweep(
    elements: ElementSet, m: int, n: int, options: SweepOptions | None = None
) -> SweepHistogram:
    """Histogram the enabled statistics over every matrix in elements^(m*n),
    each by its planned route, all run by one `_run` charged A^(mn)."""
    opts = options or SweepOptions()
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    stats = [stat for stat in _SQUARE_STATS if getattr(opts, stat)]
    if m != n and stats:
        raise ValueError("det, charpoly and powersums need a square matrix")
    if not (opts.rank or stats):
        raise ValueError("no statistic enabled")

    plan = {stat: plan_square(n, elements, stat) for stat in stats}
    if opts.rank:  # a swept det's zeros give rank <= n-1: one level less to walk
        plan["rank"] = _flats_route(len(elements), min(m, n), min(m, n) - 1 - ("det" in plan))
    total = len(elements) ** (m * n)
    raw = _run(elements, m, n, plan, opts.budget, work=total, what="sweep")
    return _finalize({**raw, "total": total}, elements, m, n)


# -- count planner ------------------------------------------------------------
#
# Each statistic picks its exact route in one place, from the shape, the
# field, the set size A and, for the 3x3 det, the set's magnitude bound
# (plan_square, plan_rank, plan_mitm).  One runner, `_run`, charges a plan
# once and runs its routes from the `_ROUTES` table: a count is charged its
# route's work, a sweep A^(mn) for every statistic it histograms.
#
#   conv2    2x2 det or charpoly by product convolution over the ring
#            integers, A^2
#   target3  3x3 det over Q or Q(i) under the int64 kernel's `supports`
#            proof: the one key over the C(A^3, 3) row triples
#   cycles3  3x3 charpoly by the cycle-invariant join on numpy columns,
#            int64 under `_kernels.cycles_dtype` and Python ints past it,
#            A^6
#   powersums  power sums at any n by product convolution: the product
#            table and the off-diagonal convolution, A^(n(n-1)); A at n = 1
#   flats    rank <= k for any k < d = min(m, n), on any m x n, by one
#            ordered walk over the flats that the lines of the A^d vectors
#            span (`_flats_walk`; also n x n det = 0, which is rank <= n-1
#            over zero-free entries): sum_{j=1..k} C(A^d, j), so A^d at
#            k = 1 and A^d + A^d (A^d - 1) / 2 at k = 2; the rank profile
#            walks to d - 1, or to d - 2 beside a swept det's zeros
#   closed   rank <= min(m, n): every matrix, A^(mn) with no work
#   sweep    square det past target3 (n = 1, n >= 4, or a 3x3 past the
#            proof) by shared minors, each distinct block's once, or
#            charpoly at n = 1 and n >= 4 by Berkowitz on lanes of up to
#            `_kernels._LANE_BATCH` matrices (`_generic_shard`), A^(n^2)
#   mitm     an n-variable equation or the zero-sum system by the
#            meet-in-the-middle join in `equations`, A^ceil(n/2)


@dataclass(frozen=True)
class CountRoute:
    """The exact route a count takes and the work units it is charged."""

    name: str
    work: int


def plan_square(
    n: int, elements: ElementSet, stat: str, *, det_zero: bool = False
) -> CountRoute:
    """Route of an n x n `stat` count or histogram, "det", "charpoly" or
    "powersums", over `elements`; `det_zero` marks a det = 0 count, which
    over zero-free entries is rank <= n-1 and takes that count's route where
    it has one."""
    if n < 1:
        raise ValueError("matrix dimensions must be positive")
    size = len(elements)
    if stat == "powersums":
        return CountRoute("powersums", size ** max(n * (n - 1), 1))
    if det_zero and n > 1:
        return _flats_route(size, n, n - 1)
    if n == 2:
        return CountRoute("conv2", size**2)
    if n == 3 and stat == "charpoly":
        return CountRoute("cycles3", size**6)
    if n == 3 and _kernels.supports(elements.scaled_integers()[1]):
        rows = size**3
        return CountRoute("target3", rows * (rows - 1) * (rows - 2) // 6)
    return CountRoute("sweep", size ** (n * n))


def _flats_route(size: int, d: int, k: int) -> CountRoute:
    """The flats walk to rank k over the A^d vectors, charged the bound that
    `_flats_walk` proves: sum_{j=1..k} C(A^d, j)."""
    vectors = size**d
    return CountRoute("flats", sum(math.comb(vectors, j) for j in range(1, k + 1)))


def plan_rank(m: int, n: int, r: int, cumulative: bool, size: int) -> CountRoute:
    """Route of an m x n rank count (rank <= r, or == r) over `size` elements:
    the flats walk to rank r, or to min(m, n) - 1 for an exact count of full
    rank; rank <= min(m, n) is closed."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    low = min(m, n)
    if not 1 <= r <= low:
        raise ValueError(f"rank {r} impossible for a {m}x{n} matrix over nonzero entries")
    if r < low:
        return _flats_route(size, low, r)
    if cumulative or low == 1:
        return CountRoute("closed", 0)
    return _flats_route(size, low, low - 1)


def plan_mitm(n: int, size: int) -> CountRoute:
    """Route of an n-variable equation or zero-sum system count over `size`
    elements: the meet-in-the-middle join, charged its A^ceil(n/2) table."""
    return CountRoute("mitm", size ** ((n + 1) // 2))


def _charged(work: int, budget: int | None, what: str) -> None:
    """A BudgetExceededError naming `what` if `work` is over the budget."""
    budget = resolve_budget(budget)
    if work > budget:
        raise BudgetExceededError(work, budget, what)


# Each route's raw histogram (elements, m, n, stat, the plan's histograms so
# far), keyed as in `SweepHistogram.raw` (flats by rank, reading the det
# zeros there), or None, and its one-key counter (elements, m, n, stat,
# key), or None to look the key up in the histogram.  An entry looks its
# function up when it runs, so one set on the module later is the one run.
_ROUTES = {
    "conv2": (lambda e, m, n, s, h: _conv2_histogram(e, s),
              lambda e, m, n, s, k: _conv2_count(e, s, k)),
    "cycles3": (lambda e, m, n, s, h: _cycles3_histogram(e),
                lambda e, m, n, s, k: _cycles3_count(e, k)),
    "powersums": (lambda e, m, n, s, h: _power_sums_histogram(e, n),
                  lambda e, m, n, s, k: _power_sums_count(e, n, k)),
    "target3": (lambda e, m, n, s, h: _kernels.sweep_square(e.scaled_integers()[1])["det"],
                lambda e, m, n, s, k: _kernels.count_target3(e.scaled_integers()[1], k[0])),
    "sweep": (lambda e, m, n, s, h: _generic_shard(e.scaled_integers()[1], e.field, n, s)[s], None),
    "flats": (lambda e, m, n, s, h: _flats_histogram(e, m, n, h.get("det")),
              lambda e, m, n, s, k: _flats_count(e, m, n, s, k)),
    "closed": (None, lambda e, m, n, s, k: len(e) ** (m * n)),
    "mitm": (None, lambda e, m, n, s, k: _mitm_count(e, n, s, k)),
}


def _run(elements: ElementSet, m: int, n: int, plan: dict, budget: int | None, target=None,
         *, work: int | None = None, what: str | None = None):
    """Charge `plan`, {statistic: planned route}, once: its summed work, or
    `work` if given, as `what` (by default "<route> count").  Then run each
    route from `_ROUTES` over the m x n matrices (an equation is 1 x n): with
    no `target`, in plan order, to {statistic: raw histogram}; with one, to
    the number of the plan's one statistic with that key, a square
    statistic's values scaled into the ring once (one that fails counts 0)."""
    routes = list(plan.values())
    charge = sum(route.work for route in routes) if work is None else work
    _charged(charge, budget, what or f"{routes[0].name} count")
    if target is None:
        raw: dict = {}
        for stat, route in plan.items():
            raw[stat] = _ROUTES[route.name][0](elements, m, n, stat, raw)
        return raw
    [(stat, route)] = plan.items()
    histogram, counter = _ROUTES[route.name]
    key = target
    if stat in _SQUARE_STATS:
        key = _ring_key(elements.field, target, _key_scales(stat, n, elements.scaled_integers()[0]))
        if key is None:
            return 0
    if counter is not None:
        return counter(elements, m, n, stat, key)
    return histogram(elements, m, n, stat, {}).get(key[0] if stat == "det" else key, 0)


def _mitm_count(elements: ElementSet, n: int, stat: str, key) -> int:
    """The tuples solving the equation `key`, or the zero-sum system's."""
    from . import equations  # run time: equations imports this module
    if stat == "system":
        return equations.count_system_sum_squares(n, elements)
    return equations.count_solutions(key, elements)


def _primitive(vector, field: str) -> tuple:
    """The canonical ring vector on the line through a nonzero ring vector:
    over Qi it is first turned by the conjugate of its first nonzero
    coordinate, which makes that coordinate a positive integer; then it is
    divided by the gcd of its integer parts, signed so that the first
    nonzero part is positive.  Two vectors give the same tuple exactly when
    one is a nonzero multiple of the other."""
    if field == QI:
        re, im = next(filter(any, vector))
        turned = [_gmul(z, (re, -im)) for z in vector]
        g = math.gcd(*itertools.chain.from_iterable(turned))
        return tuple((x // g, y // g) for x, y in turned)
    g = math.gcd(*vector)
    for x in vector:
        if x:
            break
    if x < 0:
        g = -g
    return tuple([y // g for y in vector])


def _line_classes(elements: ElementSet, k: int) -> Counter:
    """The lines through the A^k vectors of elements^k: a Counter of each
    line's key and its number of vectors.  The key of (x_1, ..., x_k) is
    its exact ratios x_j / x_1 (j >= 2) times a ring scale s common to every
    line, so (s, *key) is a vector on the line.  Over Q, s is the lcm L of
    the scaled values and the key is x_j * (L // x_1); over Qi, s is the lcm
    N of their norms and the key x_j * conj(x_1) * (N // |x_1|^2).  Each
    first coordinate scales its A^(k-1) tails with one table of A products,
    so no line costs a gcd."""
    _, values = elements.scaled_integers()
    if elements.field == QI:
        norms = [re * re + im * im for re, im in values]
        scale = math.lcm(*norms)
        factors = [
            (re * (scale // norm), -im * (scale // norm))
            for (re, im), norm in zip(values, norms)
        ]
    else:
        scale = math.lcm(*values)
        factors = [scale // x for x in values]
    mul = _ring(elements.field).mul
    classes: Counter = Counter()
    for factor in factors:
        scaled = map(mul, values, itertools.repeat(factor))
        classes.update(itertools.product(scaled, repeat=k - 1))
    return classes


def _flats_walk(elements: ElementSet, d: int, w: int, top: int) -> list[int]:
    """[N_0, ..., N_top], where N_t is the number of w-tuples of vectors of
    elements^d whose span has rank <= t: the d x w matrices of rank <= t,
    and the w x d ones, as rank is invariant under transposition.

    Over a list of lines, each with its number c of vectors, and z vectors
    at the origin, let R_t(z) count the w-tuples of rank <= t.  A tuple that
    meets a line is filed under the first line i it meets; modulo line i
    the vectors of line i join the origin and the rank drops by one, so
        R_t(z) = z^w + sum_i (R'_{t-1}(z + c_i) - R'_{t-1}(z)),  R_0(z) = z^w,
    where R' counts over the lines after i modulo line i: the planes
    through line i, each with the summed count of its lines.  N_t is R_t(0)
    over the lines of `_line_classes`, and one walk to depth `top` gives
    every t <= top.  Each tuple is counted once, under the first lines that
    span it: Moebius inversion over the flats, taken line by line, so no
    flat needs a global key and no count inside a flat is walked again.

    A later line b is reduced modulo a line a as a_p b - b_p a without the
    pivot coordinate p of a, then keyed by `_primitive`; on the first level
    every vector is (s, *key) with one s, so the reduction is the difference
    of the keys.  Work bound: a quotient keeps its lines in the order of
    their first line, so each key taken at depth j (j = 2..top) is a
    strictly increasing j-tuple of the D <= A^d lines, and no tuple is
    taken twice.  The walk keys at most sum_{j=2..top} C(A^d, j) vectors,
    after the A^d that `_line_classes` scales; `_flats_route` charges the
    sum.  Python ints throughout, so no magnitude bound is needed."""
    if top < 1:
        return [0] * (top + 1)
    field = elements.field
    ring = _ring(field)
    sub, mul, zero = ring.sub, ring.mul, ring.zero

    def quotient(entries: list, i: int, first: bool) -> dict:
        """The lines after entries[i] modulo its line: {key: summed count}."""
        a, groups = entries[i][0], {}
        if first:
            for b, c in entries[i + 1 :]:
                key = _primitive(tuple(map(sub, b, a)), field)
                groups[key] = groups.get(key, 0) + c
            return groups
        p = next(j for j, x in enumerate(a) if x != zero)
        ap, rest = a[p], a[:p] + a[p + 1 :]
        for b, c in entries[i + 1 :]:
            bp = b[p]
            reduced = [sub(mul(ap, y), mul(bp, x)) for x, y in zip(rest, b[:p] + b[p + 1 :])]
            key = _primitive(reduced, field)
            groups[key] = groups.get(key, 0) + c
        return groups

    def tally(entries, zs: tuple, depth: int, first: bool = False) -> list:
        """R_t(z) over `entries`, (line vector, count) pairs, for t = 0..depth
        (rows) and each z in `zs` (columns)."""
        powers = [z**w for z in zs]
        if depth == 1:
            lines = len(entries)
            sums = [sum((z + c) ** w for _, c in entries) for z in zs]
            return [powers, [(1 - lines) * p + s for p, s in zip(powers, sums)]]
        rows = [powers] * (depth + 1)  # each row is rebound, never changed
        n = len(zs)
        for i, (_, c) in enumerate(entries):
            later = list(quotient(entries, i, first).items())
            below = tally(later, zs + tuple(z + c for z in zs), depth - 1)
            for t in range(1, depth + 1):
                low = below[t - 1]
                rows[t] = [r + hi - lo for r, hi, lo in zip(rows[t], low[n:], low)]
        return rows

    lines = list(_line_classes(elements, d).items())
    return [row[0] for row in tally(lines, (0,), top, True)]


def _flats_count(elements: ElementSet, m: int, n: int, stat: str, key) -> int:
    """Number of m x n matrices of rank <= r, or == r, for the key (r,
    cumulative), from one walk to min(r, min(m, n) - 1); det = 0 is n - 1."""
    r, cumulative = (n - 1, True) if stat == "det" else key
    low = min(m, n)
    at_most = _flats_walk(elements, low, max(m, n), min(r, low - 1)) + [len(elements) ** (m * n)]
    return at_most[r] if cumulative else at_most[r] - at_most[r - 1]


def _flats_histogram(elements: ElementSet, m: int, n: int, dets: dict | None) -> dict[int, int]:
    """Rank profile of the m x n matrices over zero-free `elements` from the
    number of rank <= k for each k: one walk to min(m, n) - 1, one rank less
    for a square whose swept det histogram `dets` gives rank <= n-1."""
    low = min(m, n)
    zeros = [] if m != n or dets is None else [dets.get(_ring(elements.field).zero, 0)]
    at_most = _flats_walk(elements, low, max(m, n), low - 1 - len(zeros))
    at_most += zeros + [len(elements) ** (m * n)]
    counts = map(operator.sub, at_most[1:], at_most)
    return {r: c for r, c in enumerate(counts, 1) if c}


def count_det(
    elements: ElementSet,
    n: int,
    target: Scalar,
    *,
    budget: int | None = None,
) -> int:
    plan = {"det": plan_square(n, elements, "det", det_zero=target.is_zero())}
    return _run(elements, n, n, plan, budget, (target,))


def count_rank(
    elements: ElementSet,
    m: int,
    n: int,
    r: int,
    *,
    cumulative: bool = True,
    budget: int | None = None,
) -> int:
    """Number of m x n matrices of rank <= r, or of rank exactly r when not
    `cumulative`."""
    plan = {"rank": plan_rank(m, n, r, cumulative, len(elements))}
    return _run(elements, m, n, plan, budget, (r, cumulative))


def count_charpoly(
    elements: ElementSet,
    n: int,
    coeffs: tuple[Scalar, ...],
    *,
    budget: int | None = None,
) -> int:
    """Number of n x n matrices with characteristic polynomial
    T^n + c_(n-1) T^(n-1) + ... + c_0, given `coeffs` = (c_0, ..., c_(n-1))."""
    if len(coeffs) != n:
        raise ValueError(f"characteristic polynomial has {len(coeffs)} coefficients, need {n}")
    return _run(elements, n, n, {"charpoly": plan_square(n, elements, "charpoly")}, budget, coeffs)


def count_power_sums(
    elements: ElementSet,
    n: int,
    t1: Scalar,
    t2: Scalar,
    *,
    budget: int | None = None,
) -> int:
    plan = {"powersums": plan_square(n, elements, "powersums")}
    return _run(elements, n, n, plan, budget, (t1, t2))


# -- product-convolution paths -------------------------------------------------
#
# A 2x2 det is ad - bc and its charpoly (ad - bc, -(a + d)).  The power
# sums of any n x n matrix are tr X = sum_i x_ii and tr X^2 = sum_i x_ii^2
# + 2 sum_{i<j} x_ij x_ji, where the diagonal and the n(n-1)/2 transposed
# pairs share no entry.  So each histogram is a convolution of diagonal
# keys with pairwise products, about A^n |A.A|^(n(n-1)/2) dictionary work
# where a matrix-by-matrix pass costs A^(n^2), however large the entries
# are.  All of it runs on the scaled ring integers: a product is over lcm^2
# and a trace over lcm, so each count's target is scaled into the ring once
# (`_ring_key`), and one that does not scale into it counts 0.  Equality
# with the per-matrix sweep is part of the acceptance checks.


def _product_counter(elements: ElementSet) -> Counter:
    """Number of ordered pairs of scaled values with each ring product: each
    unordered pair of distinct values twice, and each square once."""
    _, values = elements.scaled_integers()
    mul = _ring(elements.field).mul
    counts = Counter(itertools.starmap(mul, itertools.combinations(values, 2)))
    counts = Counter({p: 2 * c for p, c in counts.items()})
    counts.update(map(mul, values, values))
    return counts


def _convolve(left: dict, products: Counter, combine: Callable) -> dict:
    """{combine(key, p): sum of left[key] * products[p]} over every key of
    `left` and every product p."""
    out: dict = {}
    for key, count in left.items():
        for p, weight in products.items():
            joined = combine(key, p)
            out[joined] = out.get(joined, 0) + count * weight
    return out


def _convolve_power(step: dict, k: int, combine: Callable, unit) -> dict:
    """The k-fold convolution of `step` under `combine`; {unit: 1} at k = 0."""
    out = step if k else {unit: 1}
    for _ in range(k - 1):
        out = _convolve(out, step, combine)
    return out


def _conv2_histogram(elements: ElementSet, stat: str) -> dict:
    """Raw 2x2 det or charpoly histogram by product convolution: det is the
    `_product_counter` table convolved with itself and the charpoly a
    Counter of diagonal keys (ad, -(a + d)) convolved with it."""
    _, values = elements.scaled_integers()
    ring = _ring(elements.field)
    add, sub, mul = ring.add, ring.sub, ring.mul
    products = _product_counter(elements)
    if stat == "det":
        return _convolve(products, products, sub)
    diagonals = itertools.product(values, repeat=2)
    keys = Counter((mul(a, d), ring.neg(add(a, d))) for a, d in diagonals)
    return _convolve(keys, products, lambda k, p: (sub(k[0], p), k[1]))


def _conv2_count(elements: ElementSet, stat: str, key: tuple) -> int:
    """Number of 2x2 matrices with ring det or charpoly `key`, without the
    histogram: det d from the `_product_counter` table against itself shifted
    by d; a charpoly (c0, c1) is the power sums (-c1, c1^2 - 2 c0)."""
    ring = _ring(elements.field)
    if stat == "det":
        products = _product_counter(elements)
        return sum(c * products.get(ring.sub(p, key[0]), 0) for p, c in products.items())
    c0, c1 = key
    sums = (ring.neg(c1), ring.sub(ring.mul(c1, c1), ring.add(c0, c0)))
    return _power_sums_count(elements, 2, sums)


def _diagonal_sums(elements: ElementSet, k: int) -> dict:
    """Number of diagonals (a_1, ..., a_k) over the scaled values with each
    key (sum a_i, sum a_i^2)."""
    _, values = elements.scaled_integers()
    ring = _ring(elements.field)
    add, mul = ring.add, ring.mul
    step = {(a, mul(a, a)): 1 for a in values}

    def join(s, a):
        return add(s[0], a[0]), add(s[1], a[1])

    return _convolve_power(step, k, join, (ring.zero, ring.zero))


def _off_diagonal_sums(elements: ElementSet, n: int) -> dict:
    """Number of off-diagonal fillings of an n x n matrix with each value of
    2 sum_{i<j} x_ij x_ji: the n(n-1)/2-fold convolution of the doubled
    `_product_counter` table."""
    ring = _ring(elements.field)
    doubled = {ring.add(p, p): c for p, c in _product_counter(elements).items()}
    return _convolve_power(doubled, n * (n - 1) // 2, ring.add, ring.zero)


def _power_sums_histogram(elements: ElementSet, n: int) -> dict:
    """Raw (t1, t2) histogram of every n x n matrix: each diagonal key
    (s1, s2) joined with each off-diagonal value o as (s1, s2 + o)."""
    add = _ring(elements.field).add
    diagonals = _diagonal_sums(elements, n)
    off_diagonal = _off_diagonal_sums(elements, n)
    return _convolve(diagonals, off_diagonal, lambda s, o: (s[0], add(s[1], o)))


def _power_sums_count(elements: ElementSet, n: int, key: tuple) -> int:
    """Number of n x n matrices with ring power sums `key` = (t1, t2),
    without the histogram: each key (s1, s2) of the first n-1 diagonal
    entries fixes the last one, d = t1 - s1, and t2 - s2 - d^2 is looked up
    among the off-diagonal values (an odd one matches none)."""
    _, values = elements.scaled_integers()
    (t1, t2), ring = key, _ring(elements.field)
    sub, mul = ring.sub, ring.mul
    off_diagonal = _off_diagonal_sums(elements, n)
    members = set(values)
    return sum(
        count * off_diagonal.get(sub(sub(t2, s2), mul(d, d)), 0)
        for (s1, s2), count in _diagonal_sums(elements, n - 1).items()
        if (d := sub(t1, s1)) in members
    )


def fast_det2_count(elements: ElementSet, target: Scalar) -> int:
    """Number of 2x2 matrices with det equal to target, in O(A^2)."""
    return count_det(elements, 2, target)


def fast_charpoly2_count(elements: ElementSet, coeffs: tuple[Scalar, ...]) -> int:
    """Number of 2x2 matrices with charpoly T^2 + c1 T + c0, `coeffs` = (c0, c1)."""
    return count_charpoly(elements, 2, coeffs)


def fast_power_sums2_count(elements: ElementSet, t1: Scalar, t2: Scalar) -> int:
    """Number of 2x2 matrices with given (trace, trace of square), in O(A^2)."""
    return count_power_sums(elements, 2, t1, t2)


# -- 3x3 charpoly by cycle invariants ------------------------------------------
#
# With diagonal d, pair products p_ij = x_ij x_ji and cycle sum
# s = x12 x23 x31 + x13 x32 x21, a 3x3 charpoly is that of diag(d),
# (-d1 d2 d3, e2(d), -(d1 + d2 + d3)), plus
# (d1 p23 + d2 p13 + d3 p12 - s, -(p12 + p13 + p23), 0).  So its histogram
# joins one Counter of the A^6 off-diagonal keys (p12, p13, p23, s) with the
# diagonals.  A simultaneous permutation of rows and columns keeps the
# charpoly and maps that Counter to itself, so the diagonal runs over its
# C(A + 2, 3) multisets, weighted by their orderings.  The join runs on
# numpy columns of those keys, each multiset against blocks of at most
# `_kernels._CHUNK` rows, by the ring operations on arrays, so Q and Qi
# share the code: int64 columns under `_kernels.cycles_dtype`, Python ints
# (object) past it.  Where int64 keys' parts span fewer than 2^63 values,
# each key is packed into one int64 in CSV order and grouped by
# `_kernels._HistAccumulator`, so the histogram comes out in ascending key
# order; any other join is tallied in a dict.


def _cycle_buckets(values: list, ring: _Ring, pair_sums=None) -> dict:
    """The off-diagonal keys of every 3x3 matrix over `values` and their
    counts, as columns bucketed by P = p12 + p13 + p23:
    {P: (p12s, p13s, p23s, cycles, counts)}, only for the P in `pair_sums`
    if given.  s = u x31 + v x13 with u = x12 x23 and v = x21 x32, so each
    pair of pairs (x12, x21), (x23, x32) meets the pairs (x31, x13) in one
    Counter update: all A^2, or per P those with p13 = P - p12 - p23."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    repeat = itertools.repeat
    pairs = [(a, b, mul(a, b)) for a in values for b in values]
    groups: dict = {}
    for pair in pairs:
        groups.setdefault(None if pair_sums is None else pair[2], []).append(pair)
    groups = {p13: tuple(zip(*group)) for p13, group in groups.items()}

    @functools.cache
    def tails(partial):
        if pair_sums is None:
            return groups.values()
        p13s = (sub(pair_sum, partial) for pair_sum in pair_sums)
        return [groups[p13] for p13 in p13s if p13 in groups]

    keys: Counter = Counter()
    for x12, x21, p12 in pairs:
        for x23, x32, p23 in pairs:
            u, v = mul(x12, x23), mul(x21, x32)
            for x31s, x13s, p13s in tails(add(p12, p23)):
                cycles = map(add, map(mul, repeat(u), x31s), map(mul, repeat(v), x13s))
                keys.update(zip(repeat(p12), p13s, repeat(p23), cycles))
    rows: dict = {}
    for key, n in keys.items():
        rows.setdefault(add(add(key[0], key[1]), key[2]), []).append((*key, n))
    return {pair_sum: tuple(zip(*bucket)) for pair_sum, bucket in rows.items()}


def _diagonal_multisets(values: list, ring: _Ring):
    """Each multiset {d1, d2, d3} of `values` once: d, its number of
    orderings 6 / (m1! m2! m3!) and the charpoly coefficients of diag(d),
    (-d1 d2 d3, d1 d2 + d1 d3 + d2 d3, -(d1 + d2 + d3))."""
    add, mul, neg = ring.add, ring.mul, ring.neg
    for i, j, k in itertools.combinations_with_replacement(range(len(values)), 3):
        d1, d2, d3 = d = (values[i], values[j], values[k])
        d12, s12 = mul(d1, d2), add(d1, d2)
        orderings = 6 if i < j < k else 1 if i == k else 3
        yield d, orderings, (neg(mul(d12, d3)), add(d12, mul(s12, d3)), neg(add(s12, d3)))


def _cycle_columns(buckets: dict, qi: bool, dtype) -> list:
    """The keys of `_cycle_buckets` as columns p12, p13, p23, s, count and
    P, each one array of `dtype`.  A Qi ring column is a (2, rows) array of
    its re and im parts, so `column[..., lo:hi]` takes rows lo..hi of any
    column, and the ring operations see a (re, im) pair."""
    columns: list = [[] for _ in range(6)]
    for pair_sum, bucket in buckets.items():
        for column, part in zip(columns, (*bucket, (pair_sum,) * len(bucket[4]))):
            column += part
    *keys, counts, pair_sums = columns
    shape = (-1, 2) if qi else -1
    rings = [np.array(column, dtype).reshape(shape).T for column in (*keys, pair_sums)]
    return [*rings[:4], np.array(counts, dtype), rings[4]]


def _cycle_lows(d: tuple, columns, ring: _Ring):
    """d1 p23 + d2 p13 + d3 p12 - s, what c0 adds to that of diag(d), for
    the columns (p12, p13, p23, s) of `_cycle_columns`, or for one key's
    ring values."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    (d1, d2, d3), (p12, p13, p23, s) = d, columns
    return sub(add(add(mul(d1, p23), mul(d2, p13)), mul(d3, p12)), s)


def _cycle_join(diagonals, columns: list, ring: _Ring):
    """For each diagonal multiset (d, weight, diag(d)'s (a0, a1, a2)) and
    each block of at most `_kernels._CHUNK` rows of `_cycle_columns`: the
    weight, the block's keys c0 = a0 + low and c1 = a1 - P as columns, a2,
    and the block's counts."""
    *keys, counts, pair_sums = columns
    for d, weight, (a0, a1, a2) in diagonals:
        for lo in range(0, len(counts), _kernels._CHUNK):
            hi = lo + _kernels._CHUNK
            lows = _cycle_lows(d, [column[..., lo:hi] for column in keys], ring)
            c1 = ring.sub(a1, pair_sums[..., lo:hi])
            yield weight, ring.add(a0, lows), c1, a2, counts[lo:hi]


def _key_parts(key, qi: bool) -> list:
    """The parts of a charpoly key's coordinates in CSV order: c0, c1, c2,
    or re0, im0, re1, im1, re2, im2 over Qi; each a column or an int."""
    return [part for coordinate in key for part in coordinate] if qi else list(key)


def _packed_cycles3(join, qi: bool) -> dict | None:
    """The histogram of `join()`, an int64 `_cycle_join`, with each key
    (c0, c1, c2) packed into one int64: its `_key_parts` are the digits of
    a mixed radix, each base the span of its part, so the packed keys sort
    as the CSV's keys do.  One pass finds the spans, a second groups each
    block's packed keys (`_kernels._group`) and merges the blocks
    (`_kernels._HistAccumulator`).  None when the spans multiply to 2^63
    or more."""
    lows, highs = [], []
    for _, *key, _ in join():
        parts = _key_parts(key, qi)
        lows.append([np.min(part) for part in parts])
        highs.append([np.max(part) for part in parts])
    lows = np.min(lows, axis=0).tolist()
    radices = [high - low + 1 for high, low in zip(np.max(highs, axis=0).tolist(), lows)]
    if math.prod(radices) >= 1 << 63:
        return None
    acc = _kernels._HistAccumulator()
    for weight, *key, counts in join():
        packed = 0
        for part, low, radix in zip(_key_parts(key, qi), lows, radices):
            packed = packed * radix + (part - low)
        acc.add(*_kernels._group(packed, counts * weight))
    packed, counts = acc.arrays()
    digits = []
    for low, radix in zip(lows[::-1], radices[::-1]):
        packed, digit = np.divmod(packed, radix)
        digits.append((digit + low).tolist())
    digits.reverse()
    return dict(zip(zip(*_coordinates(digits, qi)), counts.tolist()))


def _coordinates(parts: list, qi: bool) -> list:
    """Lists of `_key_parts` values regrouped into one iterable of ring
    values per coordinate: (re, im) pairs over Qi."""
    return [zip(*parts[k : k + 2]) for k in range(0, len(parts), 2)] if qi else parts


def _cycles3_histogram(elements: ElementSet) -> dict:
    """Raw 3x3 charpoly histogram, keyed (c0, c1, c2) in the ring like the
    other sweeps, from `_cycle_join`: packed and grouped in ascending key
    order where the keys fit (`_packed_cycles3`), else each row's key
    tallied with its count in a dict."""
    _, values = elements.scaled_integers()
    ring, qi = _ring(elements.field), elements.field == QI
    dtype = _kernels.cycles_dtype(values)
    columns = _cycle_columns(_cycle_buckets(values, ring), qi, dtype)
    diagonals = list(_diagonal_multisets(values, ring))

    def join():
        return _cycle_join(diagonals, columns, ring)

    if dtype is not object and (hist := _packed_cycles3(join, qi)) is not None:
        return hist
    hist = {}
    for weight, c0, c1, c2, counts in join():
        rows = _coordinates([part.tolist() for part in _key_parts((c0, c1), qi)], qi)
        for key, n in zip(zip(*rows, itertools.repeat(c2)), counts.tolist()):
            hist[key] = hist.get(key, 0) + weight * n
    return hist


def _cycles3_count(elements: ElementSet, key: tuple) -> int:
    """Number of 3x3 matrices with ring charpoly key (c0, c1, c2), without
    the histogram: c2 picks the diagonal multisets, each multiset's
    P = e2(d) - c1 the one bucket of off-diagonal keys it meets, which are
    all that is tallied, and the join's rows with key c1 and c0 are
    counted."""
    _, values = elements.scaled_integers()
    (c0, c1, c2), ring, qi = key, _ring(elements.field), elements.field == QI
    diagonals = [(d, w, a) for d, w, a in _diagonal_multisets(values, ring) if a[2] == c2]
    buckets = _cycle_buckets(values, ring, {ring.sub(a[1], c1) for *_, a in diagonals})
    columns = _cycle_columns(buckets, qi, _kernels.cycles_dtype(values))
    want = _key_parts((c0, c1), qi)
    found = 0
    for weight, k0, k1, _, counts in _cycle_join(diagonals, columns, ring):
        hits = np.logical_and.reduce([part == w for part, w in zip(_key_parts((k0, k1), qi), want)])
        found += weight * int(counts[hits].sum())
    return found
