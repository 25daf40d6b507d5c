"""The boundaries of two dtype proofs in `_kernels`: the int32 lanes of the
3x3 det kernel (`det_dtype`) and the int64 tables of the product
convolutions (`convolution_dtype`).

The det kernel runs in int32 lanes over Q when 6 B^3 < 2^31, so at
B = 710 and not at B = 711; Q(i) keys stay int64.  Each side's sweep and
one-key counts (`count_target3`) are checked against the shared-minors det
(`matrices._square_det`) and the per-matrix Bareiss oracle.

The 2x2 det and charpoly and the power sums at n = 2 and 3 convolve on
int64 tables when n^2 M^2 <= 2^62 and A^(n^2) < 2^63, and on tables of
Python ints (object) past it.  One unit either side of the bound, over Q
and Q(i), each sweep equals the per-matrix sweep (`conftest.generic_sweep`),
and the branch it took is read off `_kernels.packed_groups`: "packed" when
every table's keys packed into int64, "wide" when an int64 table's keys
were too wide and packed in Python ints, and "object" on object tables."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import oracles
from conftest import generic_sweep, packed_branch
from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, plan_square, sweep
from unitcount.scalars import Q, QI, parse_scalar


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


# -- int32 det lanes -------------------------------------------------------------

# The largest B with 6 B^3 < 2^31.
_B32 = 710


def test_the_int32_bound():
    assert 6 * _B32**3 < 2**31 <= 6 * (_B32 + 1) ** 3


@pytest.mark.parametrize(
    "field,texts,dtype",
    [
        (Q, ("1", str(_B32), str(-_B32)), np.int32),
        (Q, ("1", str(_B32 + 1), str(-_B32 - 1)), np.int64),
        (Q, ("1/2", "355", "-1"), np.int32),  # scaled: 1, 710, -2
        (QI, ("1", "-1", "526*i"), np.int64),
        (QI, ("1", "i"), np.int64),
    ],
    ids=["Q-710", "Q-711", "Q-710-scaled", "Qi-526", "Qi-units"],
)
def test_det_lanes_at_the_int32_bound(field, texts, dtype, monkeypatch):
    elements = _elements(texts, field)
    _, values = elements.scaled_integers()
    assert plan_square(3, elements, "det").name == "target3"
    chosen: list = []
    det_dtype = _kernels.det_dtype
    monkeypatch.setattr(
        _kernels, "det_dtype", lambda v: chosen.append(det_dtype(v)) or chosen[-1]
    )
    assert {batch.dtype for batch in _kernels._triple_dets(values)} == {np.dtype(dtype)}
    assert set(chosen) == {dtype}
    hist = sweep(elements, 3, 3, SweepOptions(rank=False)).raw["det"]
    rows = list(itertools.product(values, repeat=3))
    assert hist == matrices._square_det(rows, 3, matrices._ring(field))
    assert hist == oracles.bareiss_sweep(values, field, 3, 3)[1]
    assert list(hist) == sorted(hist)
    widest = max(hist, key=lambda d: _kernels._square_bound([d]))
    common = max((d for d in hist if d != matrices._ring(field).zero), key=hist.get)
    for det in (widest, common, matrices._ring(field).zero):
        assert _kernels.count_target3(values, det) == hist[det]
    # Past every det, and past the int32 lanes: no hits.
    for past in (2**31, -(2**31), 2**40):
        assert _kernels.count_target3(values, (0, past) if field == QI else past) == 0


# -- int64 product convolutions ----------------------------------------------------


def _branch(elements: ElementSet, n: int, opts: SweepOptions):
    """The sweep and the convolutions' branch: "packed", "wide" or "object"
    (`conftest.packed_branch`)."""
    return packed_branch(lambda: sweep(elements, n, n, opts))


_CONV2 = SweepOptions(rank=False, det=True, charpoly=True, powersums=True)
_POWERSUMS = SweepOptions(rank=False, det=False, powersums=True)
# floor(sqrt(2^62 / 9)): the largest M with 9 M^2 <= 2^62.
_M3 = 715827882


@pytest.mark.parametrize(
    "field,texts,n,opts,dtype,branch",
    [
        (Q, ("1", "2", "-3"), 2, _CONV2, np.int64, "packed"),
        (Q, ("1", "2^30", "-2^30"), 2, _CONV2, np.int64, "wide"),
        (Q, ("1", str(2**30 + 1), str(-(2**30) - 1)), 2, _CONV2, object, "object"),
        (Q, ("1", str(_M3), str(-_M3)), 3, _POWERSUMS, np.int64, "wide"),
        (Q, ("1", str(_M3 + 1)), 3, _POWERSUMS, object, "object"),
        (QI, ("1", "2^30*i", "-1"), 2, _CONV2, np.int64, "wide"),
        (QI, ("1", f"1+{2**30}*i"), 2, _CONV2, object, "object"),
        (QI, ("1", "i", "1-i"), 2, _CONV2, np.int64, "packed"),
        (QI, ("1", f"{_M3}*i"), 3, _POWERSUMS, np.int64, "wide"),
        (QI, ("1", f"{_M3 + 1}*i"), 3, _POWERSUMS, object, "object"),
        (QI, ("i", "1/2", "-1+i"), 3, _POWERSUMS, np.int64, "packed"),
    ],
    ids=["Q-small", "Q-2^30", "Q-2^30+1", "Q-M3", "Q-M3+1",
         "Qi-2^30", "Qi-past", "Qi-small", "Qi-M3", "Qi-M3+1", "Qi-small-3x3"],
)
def test_convolutions_at_the_int64_bound(field, texts, n, opts, dtype, branch):
    elements = _elements(texts, field)
    _, values = elements.scaled_integers()
    assert _kernels.convolution_dtype(values, n) is dtype
    hist, taken = _branch(elements, n, opts)
    assert taken == branch
    assert hist.raw == generic_sweep(elements, n, n, opts).raw


def test_the_count_bound_of_the_convolution_proof():
    # The counts add up to A^(n^2) in int64: 127^9 < 2^63 = 128^9 at n = 3,
    # 15^16 < 2^63 < 16^16 at n = 4.
    for n, size in ((3, 127), (4, 15)):
        assert _kernels.convolution_dtype(list(range(1, size + 1)), n) is np.int64
        assert _kernels.convolution_dtype(list(range(1, size + 2)), n) is object
    gaussian = [(re, 1) for re in range(1, 128)]
    assert _kernels.convolution_dtype(gaussian, 3) is np.int64
    assert _kernels.convolution_dtype(gaussian + [(-1, -1)], 3) is object
