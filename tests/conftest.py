"""Shared random-instance helpers.  Every test that samples passes an explicit
seed, so failures replay exactly."""

from __future__ import annotations

import random

from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, _finalize, _generic_shard
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


def generic_sweep(elements: ElementSet, m: int, n: int, opts: SweepOptions | None = None):
    """The sweep on the per-matrix path (`_generic_shard`), which shares no
    code with the 2x2 product convolution or the 3x3 int64 kernel: the
    reference they are checked against."""
    _, values, _ = elements.scaled_integers()
    raw = _generic_shard(values, elements.field, m, n, opts or SweepOptions())
    return _finalize(raw, elements, m, n)
