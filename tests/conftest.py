"""Shared random-instance helpers.  Every test that samples passes an explicit
seed, so failures replay exactly."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, _finalize, _generic_shard, _ring
from unitcount.scalars import Q, QI, Scalar

from oracles import rank_det


def rand_scalar(
    rng: random.Random,
    field: str = Q,
    span: int = 6,
    max_den: int = 3,
    nonzero: bool = True,
) -> Scalar:
    while True:
        den = rng.randint(1, max_den)
        re = rng.randint(-span, span)
        im = rng.randint(-span, span) if field == QI else 0
        value = Scalar(field, re, im, den)
        if not (nonzero and value.is_zero()):
            return value


def rand_element_set(
    rng: random.Random,
    field: str = Q,
    size: int = 4,
    span: int = 8,
    max_den: int = 2,
) -> ElementSet:
    seen: set[Scalar] = set()
    picks: list[Scalar] = []
    while len(picks) < size:
        value = rand_scalar(rng, field, span=span, max_den=max_den)
        if value not in seen:
            seen.add(value)
            picks.append(value)
    return ElementSet(tuple(picks))


def int_element_set(values, field: str = Q) -> ElementSet:
    return ElementSet(tuple(Scalar.rational(v, 1, field) for v in values))


def _per_matrix_power_sums(values: list, field: str, n: int) -> dict:
    """Raw (t1, t2) = (tr X, tr X^2) histogram, summed matrix by matrix
    in ring arithmetic."""
    ring = _ring(field)
    add, mul, zero = ring.add, ring.mul, ring.zero
    rows = list(itertools.product(values, repeat=n))
    hist: dict = {}
    for matrix in itertools.product(rows, repeat=n):
        t1 = t2 = zero
        for i in range(n):
            t1 = add(t1, matrix[i][i])
            for j in range(n):
                t2 = add(t2, mul(matrix[i][j], matrix[j][i]))
        key = (t1, t2)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _berkowitz(matrix, ring) -> tuple:
    """c_0..c_(n-1) of det(T I - X) for one matrix X, by Berkowitz's
    recurrence: the charpoly of the leading (r+1)-block is the lower
    triangular Toeplitz matrix on (1, -a, -R C, -R A C, ...) times that of
    the leading r-block A, C the column above the new diagonal entry a and
    R the row left of it."""
    dot, neg = ring.dot, ring.neg
    poly = [ring.one]  # highest degree first
    for r, row in enumerate(matrix):
        column = [matrix[i][r] for i in range(r)]
        firsts = [ring.one, neg(row[r])]
        for _ in range(r):
            firsts.append(neg(dot(row[:r], column)))
            column = [dot(matrix[i][:r], column) for i in range(r)]
        poly = [dot(firsts[i::-1], poly) for i in range(r + 2)]
    return tuple(poly[:0:-1])


def _per_matrix_charpolys(values: list, field: str, n: int) -> dict:
    """Raw charpoly histogram, one Berkowitz pass per matrix in ring
    arithmetic."""
    ring = _ring(field)
    rows = list(itertools.product(values, repeat=n))
    hist: dict = {}
    for matrix in itertools.product(rows, repeat=n):
        key = _berkowitz(matrix, ring)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _row_set_ranks(values: list, field: str, m: int, n: int) -> dict[int, int]:
    """Rank profile of every m x n matrix, by one Bareiss elimination
    (`oracles.rank_det`) per distinct set of rows, which is all that rank
    depends on."""
    rows = list(itertools.product(values, repeat=n))
    ranks: dict[int, int] = {}
    rowsets = Counter(map(frozenset, itertools.product(rows, repeat=m)))
    for rowset, count in rowsets.items():
        r = rank_det(list(rowset), field)[0]
        ranks[r] = ranks.get(r, 0) + count
    return ranks


def generic_sweep(elements: ElementSet, m: int, n: int, opts: SweepOptions | None = None):
    """The sweep on per-matrix paths: `_generic_shard` for det by shared
    minors, and here the charpoly by Berkowitz per matrix, the ranks by
    Bareiss per distinct set of rows and the power sums summed per matrix.
    It shares no code with the product convolutions, the cycle join, the
    charpoly lanes, the 3x3 int64 kernel or the flats walk: the reference
    they are checked against."""
    opts = opts or SweepOptions()
    _, values = elements.scaled_integers()
    raw = {"total": len(values) ** (m * n), "rank": None, "det": None, "charpoly": None}
    if m == n and opts.det:
        raw["det"] = _generic_shard(values, elements.field, n, "det")["det"]
    if m == n and opts.charpoly:
        raw["charpoly"] = _per_matrix_charpolys(values, elements.field, n)
    if opts.rank:
        raw["rank"] = _row_set_ranks(values, elements.field, m, n)
    if opts.powersums:
        raw["powersums"] = _per_matrix_power_sums(values, elements.field, n)
    return _finalize(raw, elements, m, n)
