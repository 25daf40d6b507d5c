"""The last-row cofactor route of the generic sweep, and the rank profile
that `sweep` composes around it.

`matrices._generic_shard` gets the square det histogram from the cofactors
of each top (n-1) x n block, and the charpoly from one pass over every
matrix.  `sweep` ranks no matrix one by one: a square's rank <= n-1 is the
zero count of its det histogram when det is swept, and every other rank
count comes from the flats walk.  Each is checked against the per-matrix
Bareiss loop in tests/oracles.py (`bareiss_sweep`) and, where the sweep is
small, against the Fraction oracles.
"""

from __future__ import annotations

import pytest

import oracles
from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, sweep
from unitcount.scalars import Q, QI, parse_scalar


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


def _raw(elements: ElementSet, n: int, *stats: str) -> dict:
    """The raw n x n histograms of `stats` from `_generic_shard`, no rank."""
    _, values, _ = elements.scaled_integers()
    raw = {"rank": None}
    for stat in stats:
        raw.update(matrices._generic_shard(values, elements.field, n, stat))
    return raw


def _reference(elements: ElementSet, m: int, n: int) -> tuple[dict, dict | None]:
    _, values, _ = elements.scaled_integers()
    return oracles.bareiss_sweep(values, elements.field, m, n)


def _pairs(elements: ElementSet, n: int, raw: dict) -> dict:
    """The raw det and charpoly histograms keyed by Fraction pairs, through
    the Scalar-keyed dicts of the finished histogram."""
    hist = matrices._finalize(raw, elements, n, n)
    out = {"det": {oracles.pair(k): c for k, c in oracles.det_histogram(hist).items()}}
    if hist.raw["charpoly"] is not None:
        out["charpoly"] = {
            tuple(map(oracles.pair, k.coeffs)): c
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
    _, _, bound = elements.scaled_integers()
    assert not _kernels.supports(bound)
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
