"""The shared-minors det route of the generic sweep, and the rank profile
that `sweep` composes around it.

`matrices._generic_shard` gets the square det histogram from the last-row
cofactors of the distinct top (n-1) x n blocks, whose minors are built
level by level and shared (`_square_det`), and the charpoly from one pass
over every matrix.  `sweep` ranks no matrix one by one: a square's
rank <= n-1 is the zero count of its det histogram when det is swept, and
every other rank count comes from the flats walk.  Each is checked against the per-matrix
Bareiss loop in tests/oracles.py (`bareiss_sweep`) and, where the sweep is
small, against the Fraction oracles.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracles
from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, sweep
from unitcount.scalars import Q, QI, Scalar, parse_scalar


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


def _raw(elements: ElementSet, n: int, *stats: str) -> dict:
    """The raw n x n histograms of `stats` from `_generic_shard`, no rank."""
    _, values = elements.scaled_integers()
    raw = {"rank": None}
    for stat in stats:
        raw.update(matrices._generic_shard(values, elements.field, n, stat))
    return raw


def _reference(elements: ElementSet, m: int, n: int) -> tuple[dict, dict | None]:
    _, values = elements.scaled_integers()
    return oracles.bareiss_sweep(values, elements.field, m, n)


def _pairs(elements: ElementSet, n: int, raw: dict) -> dict:
    """The raw det and charpoly histograms keyed by Fraction pairs, through
    the Scalar-keyed dicts of the finished histogram."""
    hist = matrices._finalize(raw, elements, n, n)
    out = {"det": {oracles.pair(k): c for k, c in oracles.det_histogram(hist).items()}}
    if hist.raw["charpoly"] is not None:
        out["charpoly"] = {
            tuple(map(oracles.pair, k)): c
            for k, c in oracles.charpoly_histogram(hist).items()
        }
    return out


# Two-element sets reach 4x4 (2^16 matrices); three-element sets, with
# denominators, stop at 3x3.
_SQUARE_CASES = [
    (Q, ("2", "-3"), 4),
    (Q, ("1/2", "-2/3", "3"), 3),
    (QI, ("1+i", "2"), 4),
    (QI, ("i/2", "(1-i)/3", "-1"), 3),
]


@pytest.mark.parametrize(
    "field,texts,n",
    [(f, t, n) for f, t, top in _SQUARE_CASES for n in range(1, top + 1)],
)
def test_cofactor_route_matches_per_matrix_bareiss(field, texts, n):
    elements = _elements(texts, field)
    ranks, dets = _reference(elements, n, n)
    det_only = _raw(elements, n, "det")
    assert det_only["total"] == len(elements) ** (n * n)
    assert det_only["det"] == dets
    # The sweep's rank profile: the walk below n-1, the det zeros at n-1.
    both = sweep(elements, n, n)
    assert both.rank_profile == ranks and both.raw["det"] == dets
    rank_only = sweep(elements, n, n, SweepOptions(det=False))
    assert rank_only.rank_profile == ranks and rank_only.raw["det"] is None


@pytest.mark.parametrize(
    "field,texts,n",
    [(Q, ("1/2", "-2/3", "3"), 1), (Q, ("1/2", "-2/3", "3"), 2), (Q, ("2", "-3"), 3),
     (QI, ("i/2", "(1-i)/3", "-1"), 2), (QI, ("1+i", "2"), 3)],
)
def test_cofactor_route_matches_the_oracles(field, texts, n):
    elements = _elements(texts, field)
    expected = oracles.sweep_counts(elements, n, n)
    raw = _raw(elements, n, "det")
    assert sweep(elements, n, n).rank_profile == expected["rank"]
    assert _pairs(elements, n, raw)["det"] == expected["det"]


def test_cofactor_route_past_the_int64_proof():
    elements = _elements(("1", "2^22"))
    assert not _kernels.supports(elements.scaled_integers()[1])
    hist = sweep(elements, 3, 3)
    ranks, dets = _reference(elements, 3, 3)
    assert hist.rank_profile == ranks
    assert hist.raw["det"] == dets
    expected = oracles.sweep_counts(elements, 3, 3)
    assert hist.rank_profile == expected["rank"]
    scalar_dets = oracles.det_histogram(hist)
    assert {oracles.pair(k): c for k, c in scalar_dets.items()} == expected["det"]


@pytest.mark.parametrize("texts", [("1", "-1"), ("2", "4")])
def test_zero_cofactor_blocks_at_4x4(texts):
    # Over {1, -1} and {2, 4} many 3x4 top blocks have rank below 3, so all
    # their cofactors vanish and give det 0 for every last row; the ranks
    # below 3 come from the flats walk.
    elements = _elements(texts)
    ranks, dets = _reference(elements, 4, 4)
    assert _raw(elements, 4, "det")["det"] == dets
    hist = sweep(elements, 4, 4)
    assert hist.rank_profile == ranks and hist.raw["det"] == dets
    assert min(ranks) == 1 and ranks[2] > 0


@pytest.mark.parametrize("field,texts", [(Q, ("1/2", "-3")), (QI, ("1+i", "-i/2"))])
@pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (2, 3), (3, 2), (3, 4), (4, 3)])
def test_non_square_rank_keeps_the_per_matrix_loop(field, texts, m, n):
    """The per-matrix rank loop is kept as the reference only
    (`oracles.bareiss_sweep`): `sweep` takes these profiles from the flats
    walk."""
    elements = _elements(texts, field)
    ranks, _ = _reference(elements, m, n)
    hist = sweep(elements, m, n, SweepOptions(det=False))
    assert hist.rank_profile == ranks
    assert hist.raw["det"] is None
    assert hist.total == len(elements) ** (m * n)
    if m * n <= 6:
        assert ranks == oracles.sweep_counts(elements, m, n)["rank"]


@pytest.mark.parametrize("field,texts", [(Q, ("1/2", "-3")), (QI, ("1+i", "-i/2"))])
def test_square_sweep_with_charpoly_matches_the_oracles(field, texts):
    # det by cofactors and charpoly per matrix; rank by the walk and the
    # det zeros; the power sums by their convolution.
    elements = _elements(texts, field)
    raw = _raw(elements, 3, "det", "charpoly")
    ranks, dets = _reference(elements, 3, 3)
    assert raw["det"] == dets
    assert sweep(elements, 3, 3, SweepOptions(charpoly=True)).rank_profile == ranks
    expected = oracles.sweep_counts(elements, 3, 3)
    got = _pairs(elements, 3, raw)
    assert got["charpoly"] == expected["charpoly"]
    sums = sweep(elements, 3, 3, SweepOptions(rank=False, det=False, powersums=True))
    assert {
        tuple(map(oracles.pair, k)): c for k, c in oracles.powersum_histogram(sums).items()
    } == expected["powersums"]


# Each set reaches 4x4 (2^16 matrices); at 5x5 the rows are a sample of six
# of the 2^5, so 6^5 matrices.  {1, 2} is not closed under negation, so
# the sign fold there rests on swapping rows alone.
_SHARED_MINOR_SETS = [(Q, ("1/2", "-3")), (QI, ("1+i", "-i/2")), (Q, ("1", "2"))]


@pytest.mark.parametrize("field,texts", _SHARED_MINOR_SETS)
@pytest.mark.parametrize("n", [4, 5])
def test_square_det_matches_per_matrix_bareiss(field, texts, n, monkeypatch):
    elements = _elements(texts, field)
    _, values = elements.scaled_integers()
    rows = list(itertools.product(values, repeat=n))
    if n == 5:
        rows = random.Random(5).sample(rows, 6)
    ring = matrices._ring(field)
    # Record the cofactor vectors of the last level: some top block of
    # rank below n-1 must reach it with all its cofactors zero.
    last_level = []
    real = matrices._wedge

    def recorded(row, minors, k, ring, cofactors=False):
        value = real(row, minors, k, ring, cofactors)
        if cofactors:
            last_level.append(value)
        return value

    monkeypatch.setattr(matrices, "_wedge", recorded)
    got = matrices._square_det(rows, n, ring)
    _, dets = oracles.bareiss_sweep(values, field, n, n, rows)
    assert got == dets
    if (field, texts) == (Q, ("1", "2")):
        assert (ring.zero,) * n in last_level


def test_the_5x5_sign_matrix_det_histogram():
    # The zero mass is 2^9 times the 42,976 singular 4x4 (0,1)-matrices
    # (OEIS A046747): 2^9 sign flips of rows and columns make the first row
    # and column all 1, and then subtracting the first row from the others
    # leaves 16 times the det of a 4x4 (0,1)-matrix, up to sign.
    elements = _elements(("1", "-1"))
    hist = sweep(elements, 5, 5, SweepOptions(rank=False))
    expected = {0: 22_003_712, 16: 5_130_240, 32: 614_400, 48: 30_720}
    expected |= {-d: c for d, c in expected.items()}
    assert hist.raw["det"] == expected
    assert expected[0] == 2**9 * 42_976
    assert matrices.plan_square(5, elements, "det", det_zero=True).name == "flats"
    assert matrices.count_det(elements, 5, Scalar.zero(Q)) == expected[0]
    assert matrices.plan_square(5, elements, "det").name == "sweep"
    assert matrices.count_det(elements, 5, parse_scalar("16")) == expected[16]
