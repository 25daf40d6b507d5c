"""The 3x3 charpoly cycle join (`matrices._cycles3_histogram` and
`_cycles3_count`) on numpy columns, at the edges of its int64 proof
(`_kernels.cycles_dtype`) and of its packed keys.

Each histogram and one-key count is checked against Berkowitz on lanes
(`matrices._charpoly_histogram`), a route that shares none of the join's
code: over Q at B = 916,015 (int64 columns whose key parts span 2^63 or
more values, so packed in Python ints) and B = 916,016 (object columns,
tallied in a dict), over Q(i) at components 526 (int64) and 527 (object),
and over {1, -1, 2, 3}, whose keys are packed into one int64, in one block
and in many.  A property test checks the int64 join against the same join
on object columns, and against the lanes and the Fraction oracle, on
random small sets.  No sweep runs here."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.scalars import Q, QI, Scalar, parse_scalar

import oracles
from conftest import packed_branch


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


def _lanes(elements: ElementSet) -> dict:
    return matrices._charpoly_histogram(elements.scaled_integers()[1], elements.field, 3)


def _join(elements: ElementSet) -> tuple[dict, str]:
    """The join's histogram and its branch: "packed", "wide" (int64 columns
    whose keys packed in Python ints) or "object" (`conftest.packed_branch`)."""
    return packed_branch(lambda: matrices._cycles3_histogram(elements))


@pytest.mark.parametrize("chunk", [None, 7], ids=["one-block", "7-row-blocks"])
@pytest.mark.parametrize(
    "field,texts,dtype,branch",
    [
        (Q, ("1", "-1", "2", "3"), np.int64, "packed"),
        (Q, ("1", "916015", "-1"), np.int64, "wide"),
        (Q, ("1", "916016", "-1"), object, "object"),
        (QI, ("1", "-1", "526*i"), np.int64, "wide"),
        (QI, ("1", "-1", "527*i"), object, "object"),
        (QI, ("1", "-i", "2", "1+i"), np.int64, "packed"),
    ],
    ids=["Q-packed", "Q-B916015", "Q-B916016", "Qi-526", "Qi-527", "Qi-packed"],
)
def test_join_at_the_proof_boundary_equals_the_lanes(field, texts, dtype, branch, chunk):
    elements = _elements(texts, field)
    assert _kernels.cycles_dtype(elements.scaled_integers()[1]) is dtype
    lanes = _lanes(elements)
    with mock.patch.object(_kernels, "_CHUNK", chunk or _kernels._CHUNK):
        hist, taken = _join(elements)
        assert taken == branch
        assert hist == lanes
        if branch != "object":  # already in the CSV's key order
            assert list(hist) == sorted(hist, key=lambda key: sum(key, ()) if field == QI else key)
        common = max(lanes, key=lanes.get)
        widest = max(lanes, key=lambda key: max(_kernels._square_bound([c]) for c in key))
        for key in (common, widest):
            assert matrices._cycles3_count(elements, key) == lanes[key]
        # A c0 past every key's, with the widest key's c1 and c2.
        past = 1 + max(max(abs(c) for c in np.ravel(key[0])) for key in lanes)
        absent = ((past, 0) if field == QI else past, *widest[1:])
        assert matrices._cycles3_count(elements, absent) == 0


def test_the_count_bound_of_the_proof():
    # The counts add up to A^9 in int64: 127^9 < 2^63 = 128^9.
    assert _kernels.cycles_dtype(list(range(1, 128))) is np.int64
    assert _kernels.cycles_dtype(list(range(1, 129))) is object
    gaussian = [(re, 1) for re in range(1, 128)]
    assert _kernels.cycles_dtype(gaussian) is np.int64
    assert _kernels.cycles_dtype(gaussian + [(-1, -1)]) is object


def test_a_target_past_int64_counts_zero_on_int64_columns():
    elements = _elements(("1", "-1", "2", "3"))
    assert _kernels.cycles_dtype(elements.scaled_integers()[1]) is np.int64
    key = (2**70, -(2**70), -6)
    assert matrices._cycles3_count(elements, key) == 0
    assert matrices._cycles3_count(elements, (0, 2**70, -6)) == 0


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _small_sets(draw) -> ElementSet:
    field = draw(st.sampled_from([Q, QI]))
    imag = st.integers(-2, 2) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-3, 3), imag, st.integers(1, 2),
    ).filter(lambda s: not s.is_zero())
    return ElementSet(tuple(draw(st.lists(scalars, min_size=1, max_size=4, unique=True))))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(_small_sets())
def test_int64_join_equals_the_object_join_and_the_oracles(elements):
    assert _kernels.cycles_dtype(elements.scaled_integers()[1]) is np.int64
    hist, _ = _join(elements)
    with mock.patch.object(_kernels, "cycles_dtype", lambda values: object):
        assert _join(elements) == (hist, "object")
    assert hist == _lanes(elements)
    # The Fraction oracle takes 1.3 s at A = 2 and about 30 s at A = 3.
    if len(elements) <= 2:
        raw = {"total": len(elements) ** 9, "charpoly": hist}
        decoded = {
            tuple(map(oracles.pair, key)): count
            for key, count in oracles.charpoly_histogram(
                matrices._finalize(raw, elements, 3, 3)
            ).items()
        }
        assert decoded == oracles.sweep_counts(elements, 3, 3)["charpoly"]
