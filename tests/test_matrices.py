import hashlib
import io
import random

import pytest

import oracles
from conftest import generic_sweep, int_element_set, rand_element_set
from unitcount import matrices
from unitcount.families import ElementSet
from unitcount.matrices import (
    BudgetExceededError,
    CharPolyKey,
    MatrixInstance,
    SweepOptions,
    _charpoly_coeffs,
    _rank_det,
    _ring,
    _scaled_rows,
    _to_scalar,
    count_charpoly,
    count_det,
    count_power_sums,
    count_rank,
    det,
    fast_charpoly2_count,
    fast_det2_count,
    fast_power_sums2_count,
    parse_budget,
    resolve_budget,
    sweep,
)
from unitcount.scalars import Q, QI, FieldMismatchError, Scalar, parse_scalar


def rank(X, elements) -> int:
    """Rank from the one Bareiss elimination, on the scaled rows."""
    return _rank_det(_scaled_rows(X, elements), _ring(elements.field))[0]


def charpoly(X, elements) -> CharPolyKey:
    """Berkowitz's c_0..c_(n-1) on the scaled rows, c_k rescaled by lcm^(n-k)."""
    n = X.n
    lcm = elements.scaled_integers()[0]
    cs = _charpoly_coeffs(_scaled_rows(X, elements), _ring(elements.field))
    return CharPolyKey(
        tuple(_to_scalar(elements.field, cs[k], lcm ** (n - k)) for k in range(n))
    )


@pytest.mark.parametrize("field", [Q, QI])
def test_det_matches_permutation_expansion(field):
    rng = random.Random(31 if field == Q else 32)
    for _ in range(60):
        n = rng.randint(1, 5)
        elements = rand_element_set(rng, field, size=5, span=5, max_den=3)
        X = oracles.random_matrix(elements, n, n, rng)
        expected = oracles.det_pairs(oracles.pairs_from_rows(X.scalar_rows(elements)))
        assert oracles.pair(det(X, elements)) == expected


@pytest.mark.parametrize("field", [Q, QI])
def test_rank_matches_gaussian_elimination(field):
    rng = random.Random(33 if field == Q else 34)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, field, size=4, span=3, max_den=2)
        X = oracles.random_matrix(elements, m, n, rng)
        expected = oracles.rank_pairs(oracles.pairs_from_rows(X.scalar_rows(elements)))
        assert rank(X, elements) == expected
    # Rank-deficient inputs over the powers q^0..q^5: each row after the first
    # repeats an earlier row times q^shift on a prefix of its columns, so
    # elimination meets zero pivots, row swaps and all-zero columns.
    q = Scalar(field, -3, 0, 2) if field == Q else Scalar(QI, 1, 2, 2)
    elements = ElementSet(tuple(q**k for k in range(6)))
    for _ in range(80):
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        exps = [[rng.randrange(3) for _ in range(n)]]
        for _ in range(m - 1):
            base = rng.choice(exps)
            prefix = rng.randint(1, n)
            shift = rng.randrange(6 - max(base[:prefix]))
            exps.append(
                [e + shift if j < prefix else rng.randrange(6) for j, e in enumerate(base)]
            )
        rng.shuffle(exps)
        X = MatrixInstance.from_rows(exps)
        rows = oracles.pairs_from_rows(X.scalar_rows(elements))
        assert rank(X, elements) == oracles.rank_pairs(rows)
        if m == n:
            assert oracles.pair(det(X, elements)) == oracles.det_pairs(rows)


def test_rank_can_drop_via_dependent_rows():
    elements = int_element_set([1, 2, 4])
    X = MatrixInstance.from_rows([[0, 1], [1, 2]])
    assert rank(X, elements) == 1
    assert det(X, elements).is_zero()


@pytest.mark.parametrize("field", [Q, QI])
def test_charpoly_matches_interpolation_oracle(field):
    rng = random.Random(35 if field == Q else 36)
    for _ in range(40):
        n = rng.randint(1, 5)
        elements = rand_element_set(rng, field, size=4, span=4, max_den=3)
        X = oracles.random_matrix(elements, n, n, rng)
        key = charpoly(X, elements)
        assert key.n == n
        expected = oracles.charpoly_pairs(oracles.pairs_from_rows(X.scalar_rows(elements)))
        assert [oracles.pair(c) for c in key.coeffs] == expected


@pytest.mark.parametrize("field", [Q, QI])
def test_charpoly_agrees_with_trace_recursion(field):
    rng = random.Random(37 if field == Q else 38)
    for _ in range(30):
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, field, size=4, span=4, max_den=2)
        X = oracles.random_matrix(elements, n, n, rng)
        expected = oracles.charpoly_trace_recursion(
            oracles.pairs_from_rows(X.scalar_rows(elements))
        )
        assert [oracles.pair(c) for c in charpoly(X, elements).coeffs] == expected


def test_qi_det_and_charpoly_match_sympy():
    """A third check, outside the package and its oracles: sympy's exact
    det and charpoly of random small Gaussian-rational matrices."""
    sympy = pytest.importorskip("sympy")

    def to_sympy(value: Scalar):
        return sympy.Rational(value.re, value.den) + sympy.I * sympy.Rational(
            value.im, value.den
        )

    def equal(value: Scalar, expr) -> bool:
        return sympy.expand(expr - to_sympy(value)) == 0

    rng = random.Random(41)
    lam = sympy.Symbol("lam")
    for _ in range(25):
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, QI, size=4, span=4, max_den=3)
        X = oracles.random_matrix(elements, n, n, rng)
        M = sympy.Matrix([[to_sympy(v) for v in row] for row in X.scalar_rows(elements)])
        assert equal(det(X, elements), M.det())
        # all_coeffs() runs from T^n down to c_0.
        expected = M.charpoly(lam).all_coeffs()
        assert expected[0] == 1
        key = charpoly(X, elements)
        assert all(equal(c, e) for c, e in zip(key.coeffs, expected[:0:-1], strict=True))


def test_power_sums_from_coeffs_identity():
    rng = random.Random(39)
    for _ in range(30):
        n = rng.randint(2, 4)
        field = rng.choice([Q, QI])
        elements = rand_element_set(rng, field, size=4, span=4, max_den=2)
        X = oracles.random_matrix(elements, n, n, rng)
        key = charpoly(X, elements)
        t1, t2 = oracles.power_sums_from_coeffs(key.coeffs[n - 1], key.coeffs[n - 2])
        rows = oracles.pairs_from_rows(X.scalar_rows(elements))
        trace = oracles.PZERO
        for i in range(n):
            trace = oracles.padd(trace, rows[i][i])
        square_trace = oracles.PZERO
        for i in range(n):
            for j in range(n):
                square_trace = oracles.padd(
                    square_trace, oracles.pmul(rows[i][j], rows[j][i])
                )
        assert oracles.pair(t1) == trace
        assert oracles.pair(t2) == square_trace


def test_charpoly_key_text_round_trip():
    key = CharPolyKey(
        (Scalar.rational(-3, 2), Scalar.zero(Q), Scalar.rational(5))
    )
    assert CharPolyKey.from_text(key.text(), Q) == key
    with pytest.raises(ValueError):
        CharPolyKey.from_text("", Q)


def _hist_as_pairs(hist):
    """Package SweepHistogram -> oracle-keyed dicts for comparison."""
    out = {"rank": dict(hist.rank_profile)}
    if hist.raw["det"] is not None:
        out["det"] = {
            oracles.pair(k): v for k, v in oracles.det_histogram(hist).items()
        }
    if hist.raw["charpoly"] is not None:
        out["charpoly"] = {
            tuple(oracles.pair(c) for c in k.coeffs): v
            for k, v in oracles.charpoly_histogram(hist).items()
        }
    if hist.raw["powersums"] is not None:
        out["powersums"] = {
            (oracles.pair(a), oracles.pair(b)): v
            for (a, b), v in oracles.powersum_histogram(hist).items()
        }
    return out


_ALL_STATS = SweepOptions(rank=True, det=True, charpoly=True, powersums=True)


@pytest.mark.parametrize("field", [Q, QI])
def test_full_2x2_sweep_matches_naive_enumeration(field):
    rng = random.Random(41 if field == Q else 42)
    for _ in range(6):
        elements = rand_element_set(rng, field, size=rng.randint(2, 4), span=4, max_den=2)
        hist = sweep(elements, 2, 2, options=_ALL_STATS)
        hist.validate()
        expected = oracles.sweep_counts(elements, 2, 2)
        got = _hist_as_pairs(hist)
        assert got["rank"] == expected["rank"]
        assert got["det"] == expected["det"]
        assert got["charpoly"] == expected["charpoly"]
        assert got["powersums"] == expected["powersums"]
        assert hist.total == len(elements) ** 4


@pytest.mark.parametrize("field", [Q, QI])
def test_full_3x3_sweep_matches_naive_enumeration(field):
    rng = random.Random(43)
    elements = rand_element_set(rng, field, size=2, span=3, max_den=2)
    hist = sweep(elements, 3, 3, options=_ALL_STATS)
    hist.validate()
    expected = oracles.sweep_counts(elements, 3, 3)
    assert _hist_as_pairs(hist) == expected


def test_rectangular_sweep_matches_naive_rank_profile():
    rng = random.Random(44)
    for m, n in ((1, 3), (2, 3), (3, 2)):
        elements = rand_element_set(rng, Q, size=3, span=3, max_den=2)
        hist = sweep(elements, m, n, options=SweepOptions(rank=True, det=False))
        hist.validate()
        assert _hist_as_pairs(hist)["rank"] == oracles.sweep_counts(elements, m, n)["rank"]


def test_kernel_and_generic_paths_agree():
    rng = random.Random(45)
    for n in (2, 3):
        elements = rand_element_set(rng, Q, size=3, span=4, max_den=2)
        fast = sweep(elements, n, n, options=_ALL_STATS)
        slow = generic_sweep(elements, n, n, _ALL_STATS)
        assert fast.rank_profile == slow.rank_profile
        assert oracles.det_histogram(fast) == oracles.det_histogram(slow)
        assert oracles.charpoly_histogram(fast) == oracles.charpoly_histogram(slow)
        assert oracles.powersum_histogram(fast) == oracles.powersum_histogram(slow)


# -- integer-key histograms ------------------------------------------------------
#
# A sweep keeps each statistic's raw ring keys and builds Scalars only on
# lookup and output.  The references below are the Scalar-keyed dicts.


def _scalar_csv_rows(hist) -> list[tuple[str, str, int]]:
    """csv_rows built from the Scalar-keyed dicts: keys sorted by each
    coordinate's Scalar.sort_tuple, written by Scalar.text."""
    rows = [("rank", str(r), c) for r, c in sorted((hist.rank_profile or {}).items())]
    for stat, scalars, coords in (
        ("det", oracles.det_histogram(hist), lambda key: (key,)),
        ("charpoly", oracles.charpoly_histogram(hist), lambda key: key.coeffs),
        ("powersums", oracles.powersum_histogram(hist), lambda key: key),
    ):
        for key in sorted(scalars, key=lambda k: [c.sort_tuple() for c in coords(k)]):
            rows.append((stat, ",".join(c.text() for c in coords(key)), scalars[key]))
    return rows


def _parsed(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


# The second set has entries 1, 2, -1 over lcm 2^30, so the 3x3 det scale
# lcm^3 = 2^90 is far past int64 while the kernel's proof holds easily.  A
# 2x2 sweep is the product convolution, a 3x3 one the int64 kernel.
@pytest.mark.parametrize("texts", [("1/2", "-3", "2/3"), ("2^-30", "2^-29", "-2^-30")])
@pytest.mark.parametrize("n", [2, 3])
def test_kernel_and_generic_sweeps_write_identical_csv(texts, n):
    elements = _parsed(texts)
    _, _, bound = elements.scaled_integers()
    assert matrices._kernels.supports(bound)
    kernel = sweep(elements, n, n, options=_ALL_STATS)
    generic = generic_sweep(elements, n, n, _ALL_STATS)
    rows = kernel.csv_rows()
    assert rows == generic.csv_rows() == _scalar_csv_rows(kernel)
    assert any("/" in text for _, text, _ in rows)


# 2x2 sweeps whose entries are past any int64 bound (products reach 2^80
# and 2^68), pinned to the CSV bytes of the per-matrix sweep.
@pytest.mark.parametrize(
    "texts,digest",
    [
        (("1", "2^40", "-2^40"),
         "ca7887b1e47962b9928418f3a3766aba2b61791f94df694118386423225cfaf1"),
        (tuple(f"2^{k}" for k in range(20, 35)),
         "1c2d898a7f6660d760b0816b1f2ac7df1345d80040e2cd5f694e04ea291b1d00"),
    ],
    ids=["1,+-2^40", "2^20..2^34"],
)
def test_conv2_sweep_past_int64_keeps_its_csv_bytes(texts, digest):
    hist = sweep(_parsed(texts), 2, 2, options=_ALL_STATS)
    out = io.StringIO()
    hist.write_csv(out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n,texts", [(2, ("1/2", "-i", "(1+i)/3")), (3, ("i/2", "(1-i)/3"))])
def test_gaussian_sweep_csv_rows_match_scalar_keys(n, texts):
    hist = sweep(_parsed(texts, QI), n, n, options=_ALL_STATS)
    rows = hist.csv_rows()
    assert rows == _scalar_csv_rows(hist)
    assert any("*i" in text and "/" in text for _, text, _ in rows)


@pytest.mark.parametrize(
    "texts", [("1", "i", "-1", "-i", "1+i"), ("i/2", "(1-i)/3", "-1", "2*i")], ids=["units", "dens"]
)
def test_gaussian_tuple_keys_keep_the_nested_tuple_order(texts):
    # The CSV sorts a Qi tuple key by its flattened coordinates; the rows
    # must come in the order of the nested (re, im) tuples all the same.
    options = SweepOptions(rank=False, det=False, charpoly=True, powersums=True)
    hist = sweep(_parsed(texts, QI), 3, 3, options=options)
    rows = hist.csv_rows()
    for stat in ("charpoly", "powersums"):
        raw = hist.raw[stat]
        coordinate_texts = [
            matrices._coordinate_text(True, scale)
            for scale in matrices._key_scales(stat, 3, hist.lcm)
        ]
        expected = [
            (stat, ",".join(text(v) for text, v in zip(coordinate_texts, key)), raw[key])
            for key in sorted(raw)
        ]
        assert [row for row in rows if row[0] == stat] == expected


def test_sweep_route_counts_scale_the_target_into_the_ring(monkeypatch):
    """Over Q(i), and over Q past the kernel's proof, 3x3 counts read the
    sweep's raw histogram; 1x1 counts always do."""
    for elements, patch in (
        (_parsed(("i/2", "(1-i)/3"), QI), False),
        (_parsed(("1/2", "-3/2"), Q), True),
    ):
        field = elements.field
        hist = sweep(elements, 3, 3, options=_ALL_STATS)
        with monkeypatch.context() as context:
            if patch:
                context.setattr(matrices._kernels, "supports", lambda *a: False)
            for value, expected in list(oracles.det_histogram(hist).items())[:3]:
                assert count_det(elements, 3, value) == expected
            for key, expected in list(oracles.charpoly_histogram(hist).items())[:3]:
                assert count_charpoly(elements, 3, key) == expected
            for (t1, t2), expected in list(oracles.powersum_histogram(hist).items())[:3]:
                assert count_power_sums(elements, 3, t1, t2) == expected
            absent = Scalar(field, 10**6 + 7)
            assert count_det(elements, 3, absent) == 0
            assert count_charpoly(elements, 3, CharPolyKey((absent,) * 3)) == 0
            assert count_power_sums(elements, 3, absent, absent) == 0
        # A value whose denominator does not divide its scale is no key.
        lcm, _, _ = elements.scaled_integers()
        unscaled = Scalar(field, 1, 0, 7 * lcm**3)
        assert lcm**3 % unscaled.den
        assert hist.count("det", (unscaled,)) == 0
        assert hist.count("charpoly", (unscaled,) * 3) == 0
        assert hist.count("powersums", (unscaled, Scalar.zero(field))) == 0
        # Every key of the sweep is found again by scaling it back.
        for value, expected in oracles.det_histogram(hist).items():
            assert hist.count("det", (value,)) == expected
        for key, expected in oracles.charpoly_histogram(hist).items():
            assert hist.count("charpoly", key.coeffs) == expected
        for pair, expected in oracles.powersum_histogram(hist).items():
            assert hist.count("powersums", pair) == expected
        # 1x1: hit, miss and a target off the ring, by the planner's sweep route.
        one = sweep(elements, 1, 1, options=_ALL_STATS)
        for value, expected in oracles.det_histogram(one).items():
            assert count_det(elements, 1, value) == expected
            assert count_charpoly(elements, 1, CharPolyKey((-value,))) == expected
            assert count_power_sums(elements, 1, value, value * value) == expected
        assert count_det(elements, 1, absent) == 0
        off_ring = Scalar(field, 1, 0, 7 * lcm)
        assert count_det(elements, 1, off_ring) == 0
        assert count_charpoly(elements, 1, CharPolyKey((off_ring,))) == 0
        assert count_power_sums(elements, 1, off_ring, Scalar.zero(field)) == 0


def test_histogram_count_rejects_a_target_of_another_field():
    hist = sweep(int_element_set([1, 2]), 2, 2)
    assert hist.count("det", (Scalar.one(Q),)) == 2
    with pytest.raises(FieldMismatchError):
        hist.count("det", (Scalar(QI, 1, 5),))


def test_histogram_count_of_a_statistic_not_swept_names_it():
    hist = sweep(int_element_set([1, 2]), 2, 2)
    one = Scalar.one(Q)
    with pytest.raises(ValueError, match="charpoly"):
        hist.count("charpoly", (one, one))
    with pytest.raises(ValueError, match="powersums"):
        hist.count("powersums", (one, one))


def test_sweep_validates_options():
    elements = int_element_set([1, 2])
    with pytest.raises(ValueError):
        sweep(elements, 2, 3, options=SweepOptions(det=True))
    with pytest.raises(ValueError):
        sweep(elements, 0, 2)
    with pytest.raises(ValueError):
        sweep(elements, 2, 2, options=SweepOptions(rank=False, det=False))


def test_budget_enforcement_and_env_default(monkeypatch):
    elements = int_element_set([1, 2, 3])
    with pytest.raises(BudgetExceededError) as info:
        sweep(elements, 2, 2, options=SweepOptions(budget=80))
    assert info.value.required == 81
    assert info.value.budget == 80
    monkeypatch.setenv(matrices.BUDGET_ENV_VAR, "80")
    assert resolve_budget(None) == 80
    with pytest.raises(BudgetExceededError):
        sweep(elements, 2, 2)
    monkeypatch.setenv(matrices.BUDGET_ENV_VAR, "81")
    sweep(elements, 2, 2)
    monkeypatch.delenv(matrices.BUDGET_ENV_VAR)
    assert resolve_budget(None) == matrices.DEFAULT_BUDGET
    with pytest.raises(ValueError):
        resolve_budget(0)
    monkeypatch.setenv(matrices.BUDGET_ENV_VAR, "2e8")
    assert resolve_budget(None) == 200_000_000
    monkeypatch.setenv(matrices.BUDGET_ENV_VAR, "2.5")
    with pytest.raises(ValueError):
        resolve_budget(None)


def test_parse_budget_is_exact():
    assert parse_budget("2e8") == 200_000_000
    assert parse_budget("1.5e3") == 1500
    assert parse_budget(" 81 ") == 81
    assert parse_budget("1e400") == 10**400
    assert parse_budget("12345678901234567891") == 12345678901234567891
    assert parse_budget(12345678901234567891) == 12345678901234567891
    assert parse_budget(2e8) == 200_000_000
    for bad in ("2.5", 2.5, "1e-3", "inf", "nan", "", "two", "1e5000", True, None):
        with pytest.raises(ValueError):
            parse_budget(bad)


def test_histogram_csv_rows_are_deterministic():
    rng = random.Random(47)
    elements = rand_element_set(rng, QI, size=3, span=3, max_den=2)
    first = sweep(elements, 2, 2, options=_ALL_STATS).csv_rows()
    second = sweep(elements, 2, 2, options=_ALL_STATS).csv_rows()
    assert first == second
    assert first == sorted(first, key=lambda row: first.index(row))
    stats = [row[0] for row in first]
    assert stats == sorted(stats, key=["rank", "det", "charpoly", "powersums"].index)


def test_count_wrappers_match_histogram_marginals():
    rng = random.Random(48)
    elements = rand_element_set(rng, Q, size=3, span=3, max_den=2)
    hist = sweep(elements, 2, 2, options=_ALL_STATS)
    for value, expected in oracles.det_histogram(hist).items():
        assert count_det(elements, 2, value) == expected
    for key, expected in oracles.charpoly_histogram(hist).items():
        assert count_charpoly(elements, 2, key) == expected
    for (t1, t2), expected in oracles.powersum_histogram(hist).items():
        assert count_power_sums(elements, 2, t1, t2) == expected
    total = 0
    for r in (1, 2):
        exact = count_rank(elements, 2, 2, r, cumulative=False)
        assert exact == hist.rank_profile.get(r, 0)
        total += exact
        assert count_rank(elements, 2, 2, r, cumulative=True) == total
    assert total == hist.total


def test_count_det_absent_value_is_zero():
    elements = int_element_set([1, 2])
    assert count_det(elements, 2, Scalar.rational(7919)) == 0


def test_count_rank_validates_r():
    elements = int_element_set([1, 2])
    with pytest.raises(ValueError):
        count_rank(elements, 2, 2, 0)
    with pytest.raises(ValueError):
        count_rank(elements, 2, 2, 3)


def test_count_charpoly_validates_degree():
    elements = int_element_set([1, 2])
    key = CharPolyKey((Scalar.zero(Q), Scalar.zero(Q)))
    with pytest.raises(ValueError):
        count_charpoly(elements, 3, key)


def test_fast_det2_paths_match_sweep():
    rng = random.Random(49)
    for field in (Q, QI):
        for _ in range(8):
            elements = rand_element_set(rng, field, size=rng.randint(2, 5), span=5, max_den=2)
            hist = sweep(elements, 2, 2, options=_ALL_STATS)
            fast_hist = oracles.fast_det2_histogram(elements)
            assert fast_hist == oracles.det_histogram(hist)
            for value, expected in oracles.det_histogram(hist).items():
                assert fast_det2_count(elements, value) == expected
            assert fast_det2_count(elements, Scalar.rational(10**9, 1, field)) == 0
            for key, expected in oracles.charpoly_histogram(hist).items():
                assert fast_charpoly2_count(elements, key) == expected
            for (t1, t2), expected in oracles.powersum_histogram(hist).items():
                assert fast_power_sums2_count(elements, t1, t2) == expected


def test_fast_paths_handle_huge_values_exactly():
    # far outside int64: the fast paths use arbitrary precision
    big = [Scalar.rational(2**k) for k in (0, 40, 80, 120)]
    elements = ElementSet(tuple(big))
    assert fast_det2_count(elements, Scalar.zero(Q)) == sum(
        1
        for a in big
        for b in big
        for c in big
        for d in big
        if (a * d - b * c).is_zero()
    )


def test_pinned_determinant_and_charpoly_counts():
    elements = int_element_set([1, 2])
    assert count_det(elements, 2, Scalar.zero(Q)) == 6
    key = CharPolyKey((Scalar.zero(Q), Scalar.rational(-2)))
    assert count_charpoly(elements, 2, key) == 1


def test_matrix_instance_shape_and_indexing():
    elements = int_element_set([1, 2, 3])
    rng = random.Random(50)
    X = oracles.random_matrix(elements, 2, 3, rng)
    assert (X.m, X.n) == (2, 3)
    assert len(X.entries) == 2 and all(len(r) == 3 for r in X.entries)
    rows = X.scalar_rows(elements)
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rows == [[elements[j] for j in row] for row in X.entries]
    Y = MatrixInstance.from_rows(X.entries)
    assert Y == X
    with pytest.raises(ValueError):
        MatrixInstance(2, 2, ((0, 1), (0,)))
    with pytest.raises(ValueError):
        MatrixInstance(0, 2, ())
    bad = MatrixInstance(1, 2, ((0, 99),))
    with pytest.raises(IndexError):
        det(MatrixInstance(2, 2, ((0, 99), (0, 0))), elements)
    assert bad.m == 1
