"""Closed-form exponent formulas: pinned values, regime boundaries, and the
identities tying the per-regime bounds to their common envelope."""

from decimal import Decimal
from fractions import Fraction

import pytest

import oracles
from unitcount import bounds
from unitcount.bounds import (
    ExponentValue,
    bound_table,
    charpoly2_bound,
    charpoly_general_exponent,
    charpoly_real_refined_exponent,
    charpoly_refined_base,
    charpoly_refined_exponent,
    charpoly_refined_saving,
    det_exponent,
    det_zero_family_exponent,
    equation_exponent,
    nondegenerate_cap_log10,
    rank_exponent,
    rank_type_exponent,
    system_bound_exponent,
    system_exponent,
)


def test_exponent_value_rejects_negative():
    with pytest.raises(ValueError):
        ExponentValue(Fraction(-1), "x", "y")
    assert str(ExponentValue(Fraction(7, 2), "src", "reg")) == "7/2 [src; reg]"


# ---------------------------------------------------------------- rank bounds


@pytest.mark.parametrize(
    "n, m, r, expected",
    [
        (3, 3, 2, 7),
        (3, 3, 1, 5),
        (3, 3, 3, 9),  # r = m = n counts every matrix, exactly A^(n*n)
        (4, 4, 2, 10),
        (5, 4, 3, 16),
        (6, 3, 2, 13),  # wide regime: 2m <= n+r
        (10, 10, 1, 19),
    ],
)
def test_rank_exponent_pinned(n, m, r, expected):
    got = rank_exponent(n, m, r)
    assert got.value == expected
    assert got.source == "rank-bound"


def test_rank_exponent_regime_boundary():
    # 2m == n + r sits in the wide regime, one step narrower does not
    wide = rank_exponent(5, 4, 3)  # 2m=8 > n+r=8? no: 8 <= 8, wide
    assert wide.regime == "2m<=n+r"
    narrow = rank_exponent(5, 5, 3)  # 10 > 8
    assert narrow.regime == "2m>n+r"
    assert narrow.value == wide.value + ((3 - 1) // 2) * (10 - 5 - 3) + (5 * 3 + 5 - 3) - (5 * 3 + 4 - 3)


def test_rank_args_validated():
    for bad in [(3, 4, 2), (3, 3, 0), (3, 3, 4), (2, 3, 1)]:
        with pytest.raises(ValueError):
            rank_exponent(*bad)


def test_rank_saving_matches_trivial_minus_bound():
    for n in range(2, 16):
        for m in range(2, n + 1):
            for r in range(1, m + 1):
                if 2 * m <= n + r:
                    with pytest.raises(ValueError):
                        oracles.rank_saving(n, m, r)
                    continue
                triv = bound_table("rank", n=n, m=m, r=r)[1]
                assert triv.value - rank_exponent(n, m, r).value == oracles.rank_saving(n, m, r)


def test_rank_bound_is_max_over_types():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                terms = [rank_type_exponent(n, m, r, t) for t in range(1, r + 1)]
                best = rank_exponent(n, m, r).value
                assert max(terms) == best
                t_star = oracles.rank_type_argmax(n, m, r)
                assert rank_type_exponent(n, m, r, t_star) == best


def test_rank_type_args_validated():
    with pytest.raises(ValueError):
        rank_type_exponent(4, 4, 2, 0)
    with pytest.raises(ValueError):
        rank_type_exponent(4, 4, 2, 3)


# ----------------------------------------------------------------- det bounds


@pytest.mark.parametrize(
    "n, zero, expected",
    [
        (1, True, 0),
        (1, False, 0),  # 1 - ceil(3/2) would be negative; formula gives 1-1=0
        (2, True, 3),
        (2, False, 2),
        (3, True, 7),
        (3, False, 7),
        (4, True, 14),
        (4, False, 13),
        (5, True, 22),
        (5, False, 22),
    ],
)
def test_det_exponent_pinned(n, zero, expected):
    assert det_exponent(n, zero).value == expected


def test_det_zero_family_meets_bound_only_in_small_dimensions():
    for n in range(2, 20):
        fam = det_zero_family_exponent(n).value
        bound = det_exponent(n, True).value
        assert fam == n * n - n + 1
        assert fam <= bound
        assert (fam == bound) == (n in (2, 3))


def test_det_validation():
    with pytest.raises(ValueError):
        det_exponent(0, True)
    with pytest.raises(ValueError):
        det_zero_family_exponent(1)


# ----------------------------------------------------------- charpoly bounds


def test_charpoly2_truth_table():
    assert charpoly2_bound(True, True).value == 2
    assert charpoly2_bound(True, False).value == 1
    assert charpoly2_bound(False, True).value == 1
    assert charpoly2_bound(False, False).value == 0


@pytest.mark.parametrize(
    "n, expected",
    [(3, 5), (4, 10), (5, 17), (6, 25), (7, 34), (8, 45)],
)
def test_charpoly_general_pinned(n, expected):
    assert charpoly_general_exponent(n) == expected


def test_charpoly_general_over_n_squared_tends_to_three_quarters():
    for n in range(3, 400):
        gap = abs(Fraction(charpoly_general_exponent(n), n * n) - Fraction(3, 4))
        assert gap <= Fraction(1, n)


def test_refined_base_and_savings():
    assert charpoly_refined_base(4) == 11
    assert charpoly_refined_base(5) == Fraction(35, 2)
    # n = 5 is the one dimension with its own both-zero saving
    assert charpoly_refined_saving(5, True, True) == Fraction(1, 2)
    assert charpoly_refined_saving(9, True, True) == Fraction(3, 2)
    # c2 flag ignored when c1 is nonzero
    for n in range(3, 30):
        assert charpoly_refined_saving(n, False, True) == charpoly_refined_saving(n, False, False)


def test_refined_regimes_envelope_equals_general():
    # the general bound is exactly the worst case over the three
    # coefficient regimes of the refined bound
    for n in range(3, 101):
        regimes = [
            charpoly_refined_exponent(n, True, True).value,
            charpoly_refined_exponent(n, True, False).value,
            charpoly_refined_exponent(n, False, False).value,
        ]
        assert max(regimes) == charpoly_general_exponent(n)


def test_real_refined_only_for_n_mod_four_in_01():
    assert charpoly_real_refined_exponent(6, c1_zero=False, c2_zero=False, twice_c2_equals_c1=True) is None
    assert charpoly_real_refined_exponent(7, c1_zero=False, c2_zero=False, twice_c2_equals_c1=True) is None
    got4 = charpoly_real_refined_exponent(4, c1_zero=False, c2_zero=False, twice_c2_equals_c1=True)
    assert got4 is not None and got4.value == charpoly_refined_base(4) - 2
    got5 = charpoly_real_refined_exponent(5, c1_zero=False, c2_zero=False, twice_c2_equals_c1=True)
    assert got5 is not None and got5.value == charpoly_refined_base(5) - Fraction(3, 2)
    got5z = charpoly_real_refined_exponent(5, c1_zero=True, c2_zero=True, twice_c2_equals_c1=False)
    assert got5z is not None and got5z.value == charpoly_refined_base(5) - Fraction(3, 2)
    # no sharper bound without the trace relation or the n=5 double zero
    assert charpoly_real_refined_exponent(4, c1_zero=True, c2_zero=False, twice_c2_equals_c1=False) is None


def test_best_charpoly_picks_minimum_candidate():
    def best(n, **params):
        return bound_table("charpoly", n=n, **params)[0]

    got = best(4, c1_zero=False, c2_zero=False, field_real=True, twice_c2_equals_c1=True)
    assert got.source == "charpoly-real" and got.value == 9
    # complex entries lose the real-case sharpening
    got_c = best(4, c1_zero=False, c2_zero=False, field_real=False, twice_c2_equals_c1=True)
    assert got_c.source == "charpoly-refined" and got_c.value == 10
    # best never exceeds the refined bound for the same regime
    for n in range(3, 40):
        for c1z in (False, True):
            for c2z in (False, True):
                row = best(n, c1_zero=c1z, c2_zero=c2z, field_real=True)
                assert row.value <= charpoly_refined_exponent(n, c1z, c2z).value


def test_det_bound_never_beats_the_refined_charpoly_bound():
    # A full charpoly fixes the det, but the det bound, at its smallest
    # (det != 0), exceeds the refined bound in every regime from n = 3 on,
    # so the charpoly bound_table need not offer it.
    for n in range(3, 60):
        det_value = det_exponent(n, False).value
        for c1z in (False, True):
            for c2z in (False, True):
                assert det_value > charpoly_refined_exponent(n, c1z, c2z).value
        assert det_exponent(n, True).value >= det_value


def test_charpoly_validation():
    with pytest.raises(ValueError):
        charpoly_general_exponent(2)
    with pytest.raises(ValueError):
        charpoly_refined_base(2)
    with pytest.raises(ValueError):
        charpoly_real_refined_exponent(2, c1_zero=True, c2_zero=True, twice_c2_equals_c1=False)


# ---------------------------------------------------- equation/system bounds


def test_equation_exponent_values():
    assert equation_exponent(2, True).value == 1
    assert equation_exponent(2, False).value == 0
    assert equation_exponent(3, False).value == 1
    assert equation_exponent(5, True).value == 2
    assert equation_exponent(5, False).value == 2
    with pytest.raises(ValueError):
        equation_exponent(0, True)


def test_system_bound_matches_kappa():
    for n in range(1, 60):
        assert system_bound_exponent(n).value == system_exponent(n)[0] == (2 * n) // 5


# ------------------------------------------------------------------- the cap


def test_cap_log10_matches_exact_for_tiny_cases():
    for n, rank in [(1, 0), (1, 2), (2, 0)]:
        exact = oracles.nondegenerate_cap_exact(n, rank)
        approx = nondegenerate_cap_log10(n, rank)
        digits = len(str(exact)) - 1
        assert int(approx) == digits
    assert oracles.nondegenerate_cap_exact(1, 0) == 8 ** 8


def test_cap_log10_pinned_value():
    got = nondegenerate_cap_log10(2, 1)
    assert str(got).startswith("308.254")
    with pytest.raises(ValueError):
        nondegenerate_cap_log10(0, 0)
    with pytest.raises(ValueError):
        nondegenerate_cap_log10(2, -1)
    assert isinstance(got, Decimal)


# --------------------------------------------------------------- bound_table


def test_bound_table_rank_and_det_rows():
    rows = bound_table("rank", n=3, m=3, r=2)
    assert [r.source for r in rows] == ["rank-bound", "rank-trivial"]
    assert rows[0].value == 7 and rows[1].value == 8

    zero_rows = bound_table("det", n=3, target_is_zero=True)
    assert [r.source for r in zero_rows] == ["det-bound", "det-zero-family", "det-trivial"]
    nz_rows = bound_table("det", n=3, target_is_zero=False)
    assert [r.source for r in nz_rows] == ["det-bound", "det-trivial"]


def test_bound_table_charpoly_dedupes_best_row():
    rows = bound_table(
        "charpoly", n=3, c1_zero=False, c2_zero=False, field_real=False
    )
    keys = [(r.source, r.regime, r.value) for r in rows]
    assert len(keys) == len(set(keys))
    assert any(r.source == "charpoly-general" for r in rows)
    assert any(r.source == "charpoly-trivial" for r in rows)

    two = bound_table("charpoly", n=2, c0_zero=True, c1_zero=True)
    assert len(two) == 1 and two[0].value == 2


def test_bound_table_equation_system_and_unknown():
    assert bound_table("equation", n=4, homogeneous=True)[0].value == 2
    assert bound_table("system", n=10)[0].value == 4
    with pytest.raises(ValueError):
        bound_table("plaid", n=3)
