"""Property test of the last-row cofactor sweep on random small sets: its
square det histogram, and the rank profile `sweep` reads off its zeros and
the flats walk, equal the per-matrix Bareiss loop of tests/oracles.py.
Needs hypothesis; skipped without it."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from unitcount import matrices  # noqa: E402
from unitcount.families import ElementSet  # noqa: E402
from unitcount.scalars import Q, QI, Scalar  # noqa: E402


@st.composite
def _element_sets(draw, max_size: int) -> ElementSet:
    field = draw(st.sampled_from([Q, QI]))
    imag = st.integers(-4, 4) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-4, 4), imag, st.integers(1, 3),
    ).filter(lambda s: not s.is_zero())
    picks = draw(st.lists(scalars, min_size=1, max_size=max_size, unique=True))
    return ElementSet(tuple(picks))


# At most 3^9 matrices; the 4x4 sweeps are in test_cofactor_sweep.py.
_SHAPES = st.tuples(st.integers(1, 3), _element_sets(3))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_SHAPES)
def test_cofactor_sweep_matches_per_matrix_bareiss(case):
    n, elements = case
    _, values, _ = elements.scaled_integers()
    ranks, dets = oracles.bareiss_sweep(values, elements.field, n, n)
    raw = matrices._generic_shard(values, elements.field, n, "det")
    assert raw["det"] == dets
    # The sweep's rank profile: the flats walk below n-1, the det zeros at n-1.
    assert matrices.sweep(elements, n, n).rank_profile == ranks
