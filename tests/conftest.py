"""Shared random-instance helpers.  Every test that samples passes an explicit
seed, so failures replay exactly."""

from __future__ import annotations

import itertools
import random

from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, _finalize, _generic_shard, _ring
from unitcount.scalars import Q, QI, Scalar


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


def generic_sweep(elements: ElementSet, m: int, n: int, opts: SweepOptions | None = None):
    """The sweep on the per-matrix path: `_generic_shard` for rank, det and
    charpoly, and the power sums summed per matrix here.  It shares no code
    with the product convolutions or the 3x3 int64 kernel: the reference
    they are checked against."""
    opts = opts or SweepOptions()
    _, values, _ = elements.scaled_integers()
    raw = _generic_shard(values, elements.field, m, n, opts)
    if opts.powersums:
        raw["powersums"] = _per_matrix_power_sums(values, elements.field, n)
    return _finalize(raw, elements, m, n)
