"""Property tests of the cofactor kernels: every signed cofactor that the
adjugate fold gives for a random matrix equals the signed
permutation-expansion det of its minor, and on random small sets the
square det histogram, with the rank profile `sweep` reads off its zeros
and the flats walk, equals the per-matrix Bareiss loop of
tests/oracles.py.  Needs hypothesis; skipped without it."""

from __future__ import annotations

from fractions import Fraction

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
    _, values = elements.scaled_integers()
    ranks, dets = oracles.bareiss_sweep(values, elements.field, n, n)
    raw = matrices._generic_shard(values, elements.field, n, "det")
    assert raw["det"] == dets
    # The sweep's rank profile: the flats walk below n-1, the det zeros at n-1.
    assert matrices.sweep(elements, n, n).rank_profile == ranks


def _squares(field: str, n: int):
    """n x n matrices of small ring values of `field`, row-major."""
    coordinate = st.integers(-5, 5)
    value = st.tuples(coordinate, coordinate) if field == QI else coordinate
    return st.lists(value, min_size=n * n, max_size=n * n)


def _pair(field: str, value) -> oracles.Pair:
    re, im = value if field == QI else (value, 0)
    return (Fraction(re), Fraction(im))


@pytest.mark.parametrize("field", [Q, QI])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cofactors_match_the_signed_permutation_dets(field, n, data):
    # Every entry C[i][j] of the adjugate fold's output is (-1)^(i+j) times
    # the det of the matrix without row i and column j, here by permutation
    # expansion (the empty minor of a 1 x 1 matrix is 1).
    flat = data.draw(_squares(field, n))
    rows = [[_pair(field, v) for v in flat[i * n : (i + 1) * n]] for i in range(n)]
    expected = []
    for i in range(n):
        for j in range(n):
            minor = oracles.det_pairs(
                [[v for c, v in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
            )
            expected.append(minor if (i + j) % 2 == 0 else oracles.psub(oracles.PZERO, minor))
    got = matrices._adjugate(flat, matrices._ring(field), n)
    assert [_pair(field, v) for v in got] == expected
