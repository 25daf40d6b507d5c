import json
import math
import random
from collections import Counter
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import int_element_set, rand_element_set, rand_scalar
from unitcount import equations
from unitcount.equations import (
    EquationSpec,
    classify_by_vanishing_subsums,
    count_solutions,
    count_system_sum_squares,
    equation_from_json,
    load_equation,
)
from unitcount.bounds import system_exponent
from unitcount.families import ElementSet, Geometric, materialize, tight_equation_coeffs
from unitcount.matrices import BUDGET_ENV_VAR, BudgetExceededError
from unitcount.scalars import Q, QI, FieldMismatchError, Scalar, parse_scalar


def _ints(*values, field=Q):
    return tuple(Scalar.rational(v, 1, field) for v in values)


def test_equation_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec(coeffs=(), rhs=Scalar.zero(Q))
    with pytest.raises(ValueError):
        EquationSpec(coeffs=_ints(1, 0), rhs=Scalar.zero(Q))
    with pytest.raises((ValueError, FieldMismatchError)):
        EquationSpec(
            coeffs=(Scalar.one(Q), Scalar.one(QI)), rhs=Scalar.zero(Q)
        )


def test_equation_json_round_trip(tmp_path):
    eq = EquationSpec(coeffs=_ints(1, 1, -1, -1), rhs=Scalar.rational(3))
    obj = {"coeffs": ["1", "1", "-1", "-1"], "rhs": "3", "field": "Q"}
    assert equation_from_json(json.loads(json.dumps(obj))) == eq
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"coeffs": ["1", "-1"], "rhs": "0"}))
    loaded = load_equation(path)
    assert loaded.coeffs == _ints(1, -1)
    assert loaded.rhs.is_zero()
    # rhs defaults to zero
    path.write_text(json.dumps({"coeffs": ["2", "3"]}))
    assert load_equation(path).rhs.is_zero()


def test_equation_coeffs_must_be_a_list():
    for coeffs in ("12", "1", 12, {"1": "2"}):
        with pytest.raises(ValueError, match="coeffs must be a list"):
            equation_from_json({"coeffs": coeffs, "rhs": "3"})
    eq = equation_from_json({"coeffs": ("1", "2"), "rhs": "3"})
    assert eq.coeffs == _ints(1, 2)


def test_pinned_small_counts():
    diag = EquationSpec(coeffs=_ints(1, -1), rhs=Scalar.zero(Q))
    assert count_solutions(diag, int_element_set([1, 2, 4])) == 3
    pair_sum = EquationSpec(coeffs=_ints(1, 1), rhs=Scalar.rational(3))
    assert count_solutions(pair_sum, int_element_set([1, 2])) == 2


def test_pairing_equation_over_geometric_family():
    elements = materialize(Geometric(base=Scalar.rational(2), start=1, stop=4))
    eq = EquationSpec(coeffs=_ints(1, 1, -1, -1), rhs=Scalar.zero(Q))
    count = count_solutions(eq, elements)
    assert count >= 16
    assert count == 28
    assert count == oracles.equation_count(
        [oracles.pair(c) for c in eq.coeffs], oracles.pair(eq.rhs), elements
    )


@pytest.mark.parametrize("field", [Q, QI])
def test_meet_in_the_middle_matches_naive(field):
    rng = random.Random(21 if field == Q else 22)
    for _ in range(40):
        n = rng.randint(1, 6)
        # Keep the A^n oracle small: A <= 7 and A^n <= 1200.
        size = rng.randint(1, min(7, int(1200 ** (1 / n))))
        elements = rand_element_set(rng, field, size=size, span=5, max_den=2)
        coeffs = tuple(rand_scalar(rng, field, span=3, max_den=2) for _ in range(n))
        kind = rng.choice(["zero", "random", "hit"])
        if kind == "zero":
            rhs = Scalar.zero(field)
        elif kind == "random":
            rhs = rand_scalar(rng, field, span=6, max_den=2, nonzero=False)
        else:
            rhs = sum(
                (c * rng.choice(elements.elements) for c in coeffs), Scalar.zero(field)
            )
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        expected = oracles.equation_count(
            [oracles.pair(c) for c in coeffs], oracles.pair(rhs), elements
        )
        if kind == "hit":
            assert expected > 0
        assert count_solutions(eq, elements) == expected
        for cap in (1, 2, size):
            assert count_solutions(eq, elements, max_entries=cap) == expected


# Coefficients from a small pool, so groups of 1..n equal rows occur.
_COEFF_POOLS = {Q: ("1", "-1", "2", "1/2"), QI: ("1", "-1", "i")}
_ELEMENT_POOLS = {
    Q: ("1", "-1", "2", "-2", "1/2", "3", "-1/3", "4"),
    QI: ("1", "-1", "i", "-i", "1+i", "-1-i", "2", "2*i", "1/2"),
}


def _pool_set(draw, field: str, n: int) -> ElementSet:
    # Keep the A^n oracle small: A^n <= 3000.
    most = max(1, min(6, int(3000 ** (1 / n))))
    picks = draw(st.lists(
        st.sampled_from(_ELEMENT_POOLS[field]), min_size=1, max_size=most, unique=True
    ))
    return ElementSet(tuple(parse_scalar(x, field) for x in picks))


@st.composite
def _pooled_equations(draw) -> tuple[EquationSpec, ElementSet]:
    field = draw(st.sampled_from([Q, QI]))
    n = draw(st.integers(1, 7))
    pool = st.sampled_from(_COEFF_POOLS[field])
    coeffs = tuple(
        parse_scalar(c, field) for c in draw(st.lists(pool, min_size=n, max_size=n))
    )
    elements = _pool_set(draw, field, n)
    kind = draw(st.sampled_from(["zero", "random", "hit"]))
    if kind == "zero":
        rhs = Scalar.zero(field)
    elif kind == "random":
        rhs = parse_scalar(draw(st.sampled_from(("0", "1", "-2", "3/2", "5"))), field)
    else:
        xs = draw(st.lists(st.sampled_from(elements.elements), min_size=n, max_size=n))
        rhs = sum((c * x for c, x in zip(coeffs, xs)), Scalar.zero(field))
    return EquationSpec(coeffs=coeffs, rhs=rhs), elements


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_pooled_equations(), st.sampled_from([1, 3, None]))
def test_grouped_join_matches_oracle(case, cap):
    eq, elements = case
    expected = oracles.equation_count(
        [oracles.pair(c) for c in eq.coeffs], oracles.pair(eq.rhs), elements
    )
    kwargs = {} if cap is None else {"max_entries": cap}
    assert count_solutions(eq, elements, **kwargs) == expected


@st.composite
def _pooled_systems(draw) -> tuple[int, ElementSet]:
    n = draw(st.integers(1, 6))
    return n, _pool_set(draw, draw(st.sampled_from([Q, QI])), n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_pooled_systems())
def test_grouped_system_matches_oracle(case):
    n, elements = case
    expected = oracles.system_count(n, elements)
    assert count_system_sum_squares(n, elements) == expected
    assert count_system_sum_squares(n, elements, max_entries=1) == expected


# Row a has colliding sums (1 + 4 = 2 + 3); "abba" repeats a row apart.
@pytest.mark.parametrize(
    "pattern", ["a", "aa", "aaa", "aaaa", "aaaaa", "aab", "abbb", "abba", ""]
)
def test_multiset_weights_match_ordered_tuples(pattern):
    rows = {"a": [1, 2, 3, 4], "b": [-1, 1, 5]}
    terms = [rows[c] for c in pattern]
    table: dict[int, int] = {}
    equations._tally_sums(equations._weighted_sums(equations._groups(terms), 7), None, table)
    ordered = Counter(7 + sum(combo) for combo in product(*terms))
    assert table == ordered
    # Filled to a cap and resumed, the tables split the same tally.
    for cap in (1, 2, 3):
        pairs = equations._resumable(equations._weighted_sums(equations._groups(terms), 7))
        tables = []
        for pair in pairs:
            tables.append({})
            equations._tally_sums(chain((pair,), pairs), cap, tables[-1])
        assert [len(t) for t in tables[:-1]] == [cap] * (len(tables) - 1)
        assert 0 < len(tables[-1]) <= cap
        assert sum(map(Counter, tables), Counter()) == ordered
    probe = {key: key % 5 + 1 for key in range(-10, 40)}
    assert equations._count_lookups(terms, 20, probe) == sum(
        probe.get(20 - sum(combo), 0) for combo in product(*terms)
    )


def test_prefix_chunking_fallback_matches_default():
    rng = random.Random(23)
    elements = rand_element_set(rng, Q, size=6, span=4)
    eq = EquationSpec(
        coeffs=tuple(rand_scalar(rng, Q, span=3) for _ in range(5)),
        rhs=Scalar.zero(Q),
    )
    full = count_solutions(eq, elements)
    assert count_solutions(eq, elements, max_entries=4) == full
    assert count_solutions(eq, elements, max_entries=1) == full


def _big_set(field):
    big = 2**100
    values = [
        Scalar.rational(big, 1, field),
        Scalar.rational(-big, 1, field),
        Scalar.rational(1, big, field),
        Scalar.rational(big + 1, big, field),
        Scalar.rational(3, 1, field),
    ]
    if field == QI:
        values.append(Scalar.gaussian(big, 1, big))
        values.append(Scalar.gaussian(1, -big, 1))
    return ElementSet(tuple(values))


# A Q(i) set and equations with denominators on every side.
_QIH = ("1/2", "-1/2", "i/2", "-i/2", "1", "-1", "i", "-i", "(1+i)/3")
_QIH_EQS = (
    ({"field": "Qi", "coeffs": ["1/2", "1/2", "-1", "-1", "2*i"]}, 200),
    ({"field": "Qi", "coeffs": ["1/3", "1/3", "-1/2", "i"], "rhs": "1/2+i/6"}, 12),
)
# Sets and equations (coeffs, rhs) with denominators on the coefficients,
# the rhs and the set.  M*L, the scale of the rhs, may pass the lcm of the
# term denominators, as where 2*(1/2) = 1 or 6*((1+i)/3) = 2+2i.
_DENOMINATOR_INPUTS = {
    Q: (
        ("1/2", "-1/2", "1", "-1", "3/2"),
        [(("2", "2", "-2", "4"), "1"), (("1/3", "1/3", "-1/3"), "1/2")],
    ),
    QI: (
        _QIH,
        [(("1/3", "1/3", "-1/2", "i"), "1/2+i/6"), (("6", "-6*i", "2"), "3+i")],
    ),
}


@pytest.mark.parametrize(
    "field,denominators",
    [(Q, False), (QI, False), (Q, True), (QI, True)],
    ids=["Q", "Qi", "Q-denominators", "Qi-denominators"],
)
def test_counts_stay_exact_past_64_bits(field, denominators):
    """The counts, the classification and the system against the oracles,
    on values past 64 bits and on denominators on every side."""
    if denominators:
        texts, raw = _DENOMINATOR_INPUTS[field]
        elements = ElementSet(tuple(parse_scalar(x, field) for x in texts))
        cases = [
            (tuple(parse_scalar(c, field) for c in coeffs), parse_scalar(rhs, field))
            for coeffs, rhs in raw
        ]
    else:
        elements = _big_set(field)
        big = 2**100
        cases = [
            ((1, 1, -1, -1), Scalar.zero(field)),
            ((1, -1, 1), Scalar.rational(1, big, field)),
            ((Scalar.rational(1, big, field), 1, -1), Scalar.rational(1, big**2, field)),
            ((3, -1, -1, -1), Scalar.zero(field)),
        ]
    for raw_coeffs, rhs in cases:
        coeffs = tuple(
            c if isinstance(c, Scalar) else Scalar.rational(c, 1, field)
            for c in raw_coeffs
        )
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        expected = oracles.equation_count(
            [oracles.pair(c) for c in coeffs], oracles.pair(rhs), elements
        )
        assert expected > 0
        for cap in (1, len(elements), 10**6):
            assert count_solutions(eq, elements, max_entries=cap) == expected
        result = classify_by_vanishing_subsums(eq, elements)
        assert result.classes == oracles.classify_counts(
            [oracles.pair(c) for c in coeffs], oracles.pair(rhs), elements
        )
    assert count_system_sum_squares(3, elements) == oracles.system_count(3, elements)


@pytest.mark.parametrize("k", [3, 40, 70])
def test_packing_bound_at_and_below_a_power_of_two(k):
    # c*x = rhs over Q(i).  The bound is B = |rhs| + the largest digit of
    # the set's terms, all scaled.  Each set holds a term t with
    # t - rhs = (R, -1) for a power of two R <= B, so a packing base of R
    # would carry re into im and match t against rhs.  B is 2^k, 2^k - 1
    # (2^k - 2 sets it), 2^k with the rhs carrying three quarters of it, and
    # 2^k over denominators: (1/2)x = -1/2 over a set of denominator 3 scales
    # the rhs by M*L = 6 to -3 and the term of (2^k - 3 - i)/3 to (2^k - 3, -1).
    one, half = Scalar.one(QI), Scalar.rational(1, 2, QI)
    cases = [
        (one, Scalar.rational(-1, 1, QI), [Scalar.gaussian(2**k - 1, -1)]),
        (
            one,
            Scalar.rational(-1, 1, QI),
            [Scalar.gaussian(2 ** (k - 1) - 1, -1), Scalar.rational(2**k - 2, 1, QI)],
        ),
        (one, Scalar.gaussian(-3 * 2 ** (k - 2), 1), [Scalar.rational(2 ** (k - 2), 1, QI)]),
        (
            half,
            Scalar.rational(-1, 2, QI),
            [Scalar.gaussian(2**k - 3, -1, 3), Scalar.rational(1, 3, QI)],
        ),
    ]
    for coeff, rhs, values in cases:
        elements = ElementSet(tuple(values))
        eq = EquationSpec(coeffs=(coeff,), rhs=rhs)
        assert count_solutions(eq, elements) == 0
        assert classify_by_vanishing_subsums(eq, elements).total == 0
        hit = EquationSpec(eq.coeffs, coeff * elements[0])
        assert count_solutions(hit, elements) == 1


def _table_sizes(monkeypatch) -> list[int]:
    """Key counts of the tables _tally_sums fills, in order."""
    sizes: list[int] = []
    original = equations._tally_sums

    def spy(pairs, max_entries, table):
        original(pairs, max_entries, table)
        sizes.append(len(table))

    monkeypatch.setattr(equations, "_tally_sums", spy)
    return sizes


def _left_sums(coeffs, size: int) -> int:
    """Multisets the left half walks: the variables sorted into runs of
    equal coefficients, the largest first, and the first ceil(n/2) taken."""
    rest, sums = (len(coeffs) + 1) // 2, 1
    for k in sorted(Counter(coeffs).values(), reverse=True):
        take = min(k, rest)
        sums *= math.comb(size + take - 1, take)
        rest -= take
    return sums


def _assert_chunked(sizes, count, coeffs, size, caps) -> list[int]:
    """count(max_entries=cap) equals the one-table count, every table but
    the last holds exactly cap keys, none more, and there are between
    ceil(D / cap) and ceil(left sums / cap) tables, D the distinct left sums.
    sizes is the list `_table_sizes` fills.

    Returns D and the number of tables at each cap.
    """
    sizes.clear()
    expected = count()
    (distinct,) = sizes
    left = _left_sums(coeffs, size)
    tables = []
    for cap in caps:
        sizes.clear()
        assert count(max_entries=cap) == expected
        assert sizes[:-1] == [cap] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= cap
        assert -(-distinct // cap) <= len(sizes) <= -(-left // cap)
        tables.append(len(sizes))
    return [distinct, *tables]


@pytest.mark.parametrize("cap", [1, 7, 30, 125, 10**6])
def test_tables_are_chunked_under_the_cap(monkeypatch, cap):
    rng = random.Random(28)
    elements = rand_element_set(rng, QI, size=5, span=3, max_den=2)
    eq = EquationSpec(
        coeffs=tuple(rand_scalar(rng, QI, span=3, max_den=2) for _ in range(5)),
        rhs=Scalar.zero(QI),
    )
    # n = 5 tallies half = 3 variables.  Splitting off the smallest ordered
    # prefix whose remaining 5^(3 - prefix) entries fit the cap took
    # 5^prefix tables; filling each table to the cap never takes more.
    prefix = next(p for p in range(4) if 5 ** (3 - p) <= cap)
    sizes = _table_sizes(monkeypatch)
    for count, coeffs in (
        (lambda **kw: count_solutions(eq, elements, **kw), eq.coeffs),
        (lambda **kw: count_system_sum_squares(5, elements, **kw), (None,) * 5),
    ):
        _, tables = _assert_chunked(sizes, count, coeffs, 5, [cap])
        assert tables <= 5**prefix


@pytest.mark.parametrize("field", [Q, QI])
def test_a_group_of_equal_rows_fills_tables_to_the_cap(monkeypatch, field):
    # Three equal rows make the whole left half: C(A + 2, 3) multisets,
    # whose sums collide (over 2^1..2^8, 2 + 2 + 8 = 4 + 4 + 4), so D is
    # smaller.
    if field == Q:
        eq = EquationSpec(tight_equation_coeffs(6), Scalar.zero(Q))
        elements = materialize(Geometric(base=Scalar.rational(2), start=1, stop=8))
    else:
        c = parse_scalar("1+i", QI)
        others = (parse_scalar(t, QI) for t in ("-1", "-2*i", "-1+i"))
        eq = EquationSpec((c, c, c, *others), Scalar.zero(QI))
        elements = ElementSet(tuple(
            parse_scalar(t, QI) for t in ("1", "i", "-1", "-i", "1+i", "2", "2*i", "1/2")
        ))
    size = len(elements)
    assert _left_sums(eq.coeffs, size) == math.comb(size + 2, 3) == 120

    def count(**kw):
        return count_solutions(eq, elements, **kw)

    assert count() > 0
    sizes = _table_sizes(monkeypatch)
    distinct, _ = _assert_chunked(sizes, count, eq.coeffs, size, [1])
    assert distinct < 120
    _, below, _, above = _assert_chunked(
        sizes, count, eq.coeffs, size, [distinct - 1, distinct, distinct + 1]
    )
    # D - 1 keys cannot hold all D, and a table under D + 1 keys is never
    # full, so it takes every sum; at D, one or two tables, as the last
    # new key comes last or not.
    assert below == 2 and above == 1


def test_a_cap_past_the_machine_word_counts_in_one_table(monkeypatch):
    sizes = _table_sizes(monkeypatch)
    eq = EquationSpec(tight_equation_coeffs(4), Scalar.zero(Q))
    elements = int_element_set([1, 2, 3, 4, 6])
    assert count_solutions(eq, elements, max_entries=10**30) == count_solutions(eq, elements)
    assert len(sizes) == 2


_SCALAR_OPS = (
    "__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse", "square", "__pow__"
)


@pytest.mark.parametrize("field", [Q, QI])
def test_counts_make_no_scalar_arithmetic(monkeypatch, field):
    """Every count runs on the set's ring integers: count_solutions, the
    system and the classification make no Scalar arithmetic at all (the old
    Scalar join made one addition per partial sum)."""
    if field == Q:
        elements = materialize(Geometric(base=Scalar.rational(2), start=1, stop=12))
        tight = EquationSpec(coeffs=tight_equation_coeffs(6), rhs=Scalar.zero(Q))
        small = EquationSpec(coeffs=tight.coeffs[:4], rhs=Scalar.zero(Q))
        cases, system = [(tight, 9990, None), (small, None, 30)], {6: 0}
    else:
        elements = ElementSet(tuple(parse_scalar(x, QI) for x in _QIH))
        eqs = [(equation_from_json(obj), count) for obj, count in _QIH_EQS]
        cases, system = [(eq, count, count) for eq, count in eqs], {4: 48, 6: 720}
    calls: Counter = Counter()
    for op in _SCALAR_OPS:
        original = getattr(Scalar, op)

        def spy(*args, _op=op, _original=original):
            calls[_op] += 1
            return _original(*args)

        monkeypatch.setattr(Scalar, op, spy)

    def made(count, *args, **kwargs):
        calls.clear()
        value = count(*args, **kwargs)
        assert not calls, (count.__name__, dict(calls))
        return value

    for eq, solutions, classified in cases:
        if solutions is not None:
            assert made(count_solutions, eq, elements) == solutions
            assert made(count_solutions, eq, elements, max_entries=5) == solutions
        if classified is not None:
            assert made(classify_by_vanishing_subsums, eq, elements).total == classified
    for n, expected in system.items():
        assert made(count_system_sum_squares, n, elements) == expected


def test_scaling_the_equation_preserves_counts():
    rng = random.Random(24)
    for _ in range(10):
        field = rng.choice([Q, QI])
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, field, size=5, span=4)
        coeffs = tuple(rand_scalar(rng, field, span=3) for _ in range(n))
        rhs = rand_scalar(rng, field, span=4, nonzero=False)
        lam = rand_scalar(rng, field, span=3)
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        scaled = EquationSpec(
            coeffs=tuple(lam * c for c in coeffs), rhs=lam * rhs
        )
        assert count_solutions(eq, elements) == count_solutions(scaled, elements)


def test_field_mismatch_between_equation_and_set():
    eq = EquationSpec(coeffs=_ints(1, -1), rhs=Scalar.zero(Q))
    gauss = int_element_set([1, 2], field=QI)
    with pytest.raises(FieldMismatchError):
        count_solutions(eq, gauss)
    with pytest.raises(FieldMismatchError):
        classify_by_vanishing_subsums(eq, gauss)


def test_classify_no_vanishing_subsum_example():
    eq = EquationSpec(coeffs=_ints(1, 1), rhs=Scalar.one(Q))
    result = classify_by_vanishing_subsums(eq, int_element_set([1, 2]))
    assert result.total == 0
    assert result.classes == {}


def test_classify_documented_three_variable_example():
    eq = EquationSpec(coeffs=_ints(1, -1, 1), rhs=Scalar.one(Q))
    result = classify_by_vanishing_subsums(eq, int_element_set([1, 2]))
    assert result.total == 3
    assert result.classes == {(1, 2): 2, (2, 3): 1}


def test_classify_matches_oracle_on_random_instances():
    rng = random.Random(25)
    for _ in range(15):
        field = rng.choice([Q, QI])
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, field, size=4, span=3, max_den=2)
        coeffs = tuple(rand_scalar(rng, field, span=2) for _ in range(n))
        rhs = rand_scalar(rng, field, span=3, nonzero=False)
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        result = classify_by_vanishing_subsums(eq, elements)
        expected = oracles.classify_counts(
            [oracles.pair(c) for c in coeffs], oracles.pair(rhs), elements
        )
        assert result.classes == expected
        assert sum(result.classes.values()) == result.total
        assert result.total == count_solutions(eq, elements)


def test_classify_is_charged_its_walk(monkeypatch):
    eq = EquationSpec(_ints(1, 1, -1, -1), Scalar.rational(3))
    elements = int_element_set([1, 2, 3, 4, 5])
    charge = 5**3
    with pytest.raises(BudgetExceededError) as info:
        classify_by_vanishing_subsums(eq, elements, budget=charge - 1)
    assert (info.value.required, info.value.budget) == (charge, charge - 1)
    result = classify_by_vanishing_subsums(eq, elements, budget=charge)
    assert result.total == count_solutions(eq, elements) > 0
    monkeypatch.setenv(BUDGET_ENV_VAR, str(charge - 1))
    with pytest.raises(BudgetExceededError):
        classify_by_vanishing_subsums(eq, elements)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(charge))
    assert classify_by_vanishing_subsums(eq, elements) == result
    # A = 40, n = 10 walks 40^9 tuples: refused before it starts.
    monkeypatch.delenv(BUDGET_ENV_VAR)
    big = EquationSpec(tight_equation_coeffs(10), Scalar.zero(Q))
    with pytest.raises(BudgetExceededError) as info:
        classify_by_vanishing_subsums(big, int_element_set(range(1, 41)))
    assert info.value.required == 40**9


def test_classify_rejects_large_n():
    eq = EquationSpec(coeffs=_ints(*([1] * 11)), rhs=Scalar.zero(Q))
    with pytest.raises(ValueError):
        classify_by_vanishing_subsums(eq, int_element_set([1, 2]))


def test_homogeneous_solutions_classify_as_full_set():
    eq = EquationSpec(coeffs=_ints(1, -1), rhs=Scalar.zero(Q))
    result = classify_by_vanishing_subsums(eq, int_element_set([1, 2, 3]))
    assert result.classes == {(1, 2): 3}
    assert result.total == 3


def test_system_vanishes_over_rational_sets():
    rng = random.Random(26)
    for n in (1, 2, 3):
        for _ in range(5):
            elements = rand_element_set(rng, Q, size=5, span=6)
            assert count_system_sum_squares(n, elements) == 0
            assert oracles.system_count(n, elements) == 0
            assert count_system_sum_squares(n, elements, max_entries=1) == 0


def test_system_over_gaussian_units():
    units = int_element_set([1, -1], field=QI)
    i = Scalar.imaginary_unit()
    from unitcount.families import ElementSet

    full = ElementSet(
        (Scalar.one(QI), Scalar.rational(-1, 1, QI), i, -i)
    )
    count = count_system_sum_squares(4, full)
    assert count == 24
    assert count == oracles.system_count(4, full)


def test_system_matches_oracle_on_random_gaussian_sets():
    rng = random.Random(27)
    for _ in range(10):
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, QI, size=5, span=3, max_den=2)
        expected = oracles.system_count(n, elements)
        assert count_system_sum_squares(n, elements) == expected
        for cap in (1, 2, len(elements)):
            assert count_system_sum_squares(n, elements, max_entries=cap) == expected


def test_kappa_closed_form_and_attainment():
    for n in range(1, 201):
        value, k = system_exponent(n)
        assert value == 2 * n // 5
        assert 0 <= k <= n // 2
        assert min((n + k) // 3, (n - k) // 2) == value
        # brute-force maximum agrees
        assert value == max(
            min((n + j) // 3, (n - j) // 2) for j in range(n // 2 + 1)
        )


def test_kappa_documented_values():
    assert system_exponent(5) == (2, 1)
    assert system_exponent(10) == (4, 2)
    assert system_exponent(1) == (0, 0)
    with pytest.raises(ValueError):
        system_exponent(0)
