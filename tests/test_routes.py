"""Every route of the count planner against the full sweep and the oracles.

The planner (matrices.plan_square / plan_rank) sends a count to a closed or
single-key route, and each statistic of a sweep to the same route's
histogram; each count must equal what `sweep` histograms and what the naive
enumeration in tests/oracles.py gives, and a spy checks that the function
run is the one the planner names.  The 3x3 single-key
det kernel is also checked right at the int64 proof threshold of
`_kernels.supports` and one past it, where the generic path must take over.
Charpoly keys (the cycles3 join) and power-sums keys never reach the
kernel; their routes have no magnitude bound, and they are checked at the
same threshold and, for power sums, with entries B = 715827882 and
715827883, where 9 B^2, the bound on |tr X^2| of a 3x3 matrix, crosses
2^62.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import pytest

import oracles
from conftest import generic_sweep
from unitcount import _kernels, growth, matrices
from unitcount.families import ElementSet
from unitcount.growth import EquationStatistic, SystemStatistic
from unitcount.matrices import (
    BudgetExceededError,
    CountRoute,
    SweepOptions,
    count_charpoly,
    count_det,
    count_power_sums,
    count_rank,
    fast_charpoly2_count,
    fast_det2_count,
    fast_power_sums2_count,
    plan_rank,
    plan_square,
    sweep,
)
from unitcount.cli import main
from unitcount.scalars import Q, QI, Scalar, parse_scalar

# Three elements where a shape has at most 6 entries, two beyond that, so
# the oracle enumeration stays small.  The Q sets have denominators.
_RANK_SETS = {
    Q: (("1/2", "2", "-3"), ("1/2", "-3")),
    QI: (("1", "i", "1+i"), ("i", "2+i")),
}
_SHAPES = [(1, 3), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4), (4, 3)]


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


@functools.cache
def _oracle(texts: tuple[str, ...], field: str, m: int, n: int) -> dict:
    return oracles.sweep_counts(_elements(texts, field), m, n)


@pytest.mark.parametrize("field", [Q, QI])
@pytest.mark.parametrize("m,n", _SHAPES)
def test_rank_routes_match_sweep_and_oracle(field, m, n):
    texts = _RANK_SETS[field][0 if m * n <= 6 else 1]
    elements = _elements(texts, field)
    oracle = _oracle(texts, field, m, n)["rank"]
    profile = sweep(elements, m, n, SweepOptions(rank=True, det=False)).rank_profile
    assert profile == oracle
    for r in range(1, min(m, n) + 1):
        for cumulative in (True, False):
            assert plan_rank(m, n, r, cumulative, len(elements)).name != "sweep"
            expected = sum(
                c for k, c in oracle.items() if (k <= r if cumulative else k == r)
            )
            got = count_rank(elements, m, n, r, cumulative=cumulative)
            assert got == expected, (r, cumulative)


def test_rank_route_names_and_work():
    assert plan_rank(3, 3, 1, True, 5) == plan_rank(3, 3, 1, False, 5)
    assert plan_rank(3, 3, 1, True, 5).name == "flats"
    assert plan_rank(3, 5, 1, True, 4).work == 4**3
    assert plan_rank(3, 3, 2, True, 5).name == "flats"
    assert plan_rank(3, 3, 2, False, 5).name == "flats"
    assert plan_rank(3, 3, 3, False, 5).name == "flats"
    assert plan_rank(3, 6, 2, True, 5).name == "flats"
    assert plan_rank(6, 3, 2, False, 5).name == "flats"
    assert plan_rank(2, 4, 2, True, 5).name == "closed"
    assert plan_rank(4, 4, 2, True, 2).name == "flats"
    assert plan_rank(5, 4, 2, False, 2).name == "flats"
    assert plan_rank(4, 5, 3, True, 2).name == "flats"
    # One walk over the flats below min(m, n), closed at it, in every shape.
    for m in range(1, 7):
        for n in range(1, 7):
            for r in range(1, min(m, n) + 1):
                for cumulative in (True, False):
                    name = plan_rank(m, n, r, cumulative, 3).name
                    closed = r == min(m, n) and (cumulative or r == 1)
                    assert name == ("closed" if closed else "flats"), (m, n, r, cumulative)
    five = _elements(("1", "2", "3", "4", "5"))
    assert [plan_square(n, five, "det").name for n in (1, 2, 3, 4)] == [
        "sweep", "conv2", "target3", "sweep",
    ]
    assert [plan_square(n, five, "charpoly").name for n in (1, 2, 3, 4)] == [
        "sweep", "conv2", "cycles3", "sweep",
    ]
    assert {plan_square(n, five, "powersums").name for n in (1, 2, 3, 4)} == {"powersums"}
    assert {plan_square(n, five, "det", det_zero=True).name for n in (2, 3, 4, 5)} == {"flats"}
    # The 3x3 det kernel runs over Q and Q(i) under its int64 proofs,
    # charged the C(8, 3) row triples over two elements; past them a count
    # takes the sweep route.
    assert plan_square(3, _elements(("1", "i"), QI), "det") == CountRoute("target3", 56)
    for texts, field in ((("1", "916016"), Q), (("1", "527*i"), QI)):
        assert plan_square(3, _elements(texts, field), "det") == CountRoute("sweep", 2**9)
    with pytest.raises(ValueError):
        plan_rank(2, 3, 3, True, 5)


def test_planner_work_per_statistic():
    # 2x2 convolution, the 3x3 single-key det kernel over the C(A^3, 3)
    # unordered row triples, the 3x3 charpoly join over the A^6 off-diagonal
    # keys, power sums over the A^(n(n-1)) off-diagonal products, rank <= 1
    # and rank <= 2 by the flats walk over the A^d vectors of the shorter
    # side, d = min(m, n) (A^d, and A^d + C(A^d, 2)), and rank <= k by the
    # same walk, sum_{j=1..k} C(A^d, j); an exact rank count is one walk;
    # closed full rank.
    ten, two = _elements(map(str, range(1, 11))), _elements(("1", "2"))
    assert plan_square(2, ten, "det", det_zero=True).work == 100
    assert plan_square(2, ten, "charpoly").work == 100
    assert plan_square(3, ten, "det").work == 1000 * 999 * 998 // 6
    assert plan_square(3, ten, "charpoly").work == 10**6
    assert plan_square(3, ten, "det", det_zero=True).work == 10**3 + 10**3 * 999 // 2
    assert plan_square(4, two, "charpoly").work == 2**16
    assert [plan_square(n, ten, "powersums").work for n in (1, 2, 3)] == [10, 10**2, 10**6]
    assert plan_rank(2, 2, 1, True, 7).work == 49
    assert plan_rank(2, 3, 1, True, 3).work == 3**2
    assert plan_rank(3, 3, 1, True, 3).work == 3**3
    assert plan_rank(3, 3, 2, True, 3).work == 27 + 27 * 26 // 2
    assert plan_rank(3, 7, 2, False, 3).work == 27 + 27 * 26 // 2
    assert plan_rank(3, 3, 3, True, 3).work == 0
    assert plan_rank(2, 4, 2, False, 3).work == 3**2
    assert plan_rank(4, 4, 2, True, 2).work == 16 + 16 * 15 // 2
    assert plan_rank(4, 5, 3, True, 2).work == 16 + 16 * 15 // 2 + 16 * 15 * 14 // 6
    assert plan_rank(4, 5, 3, False, 2) == plan_rank(4, 5, 3, True, 2)
    assert plan_rank(4, 4, 4, False, 2) == plan_square(4, two, "det", det_zero=True)
    assert plan_rank(5, 5, 4, True, 2).work == 32 + 496 + 4960 + 35960


@pytest.mark.parametrize(
    "field,texts", [(Q, ("1/2", "2", "-3", "4", "-1/2")), (QI, ("1", "i", "1+i", "2-i"))]
)
def test_det0_2x2_counts_rank_at_most_one(field, texts, monkeypatch):
    """Over zero-free entries a 2x2 det is 0 exactly at rank <= 1, so the
    planner counts det = 0 by line directions, not by the convolution."""
    elements = _elements(texts, field)
    zero = Scalar.zero(field)
    size = len(elements)
    assert plan_square(2, elements, "det", det_zero=True) == CountRoute("flats", size**2)
    assert plan_square(2, elements, "det") == CountRoute("conv2", size**2)
    expected = _oracle(texts, field, 2, 2)["det"].get(oracles.PZERO, 0)
    assert fast_det2_count(elements, zero) == expected
    convolutions = []
    product_counter = matrices._product_counter
    monkeypatch.setattr(
        matrices, "_product_counter", lambda *a: convolutions.append(a) or product_counter(*a)
    )
    assert count_det(elements, 2, zero) == expected
    assert convolutions == []
    a, b, c, d = list(elements)[:4]
    target = a * d - b * c
    assert not target.is_zero()
    expected = _oracle(texts, field, 2, 2)["det"][oracles.pair(target)]
    assert count_det(elements, 2, target) == expected
    assert len(convolutions) == 1


def test_budget_charges_the_route_work(tmp_path, capsys):
    elements = _elements(("1", "2", "3"))
    assert count_rank(elements, 3, 3, 1, budget=3**3) == count_rank(elements, 3, 3, 1)
    with pytest.raises(BudgetExceededError) as info:
        count_rank(elements, 3, 3, 1, budget=3**3 - 1)
    assert info.value.required == 3**3
    flats = 27 + 27 * 26 // 2
    assert count_det(elements, 3, Scalar.zero(Q), budget=flats) == count_det(
        elements, 3, Scalar.zero(Q)
    )
    with pytest.raises(BudgetExceededError) as info:
        count_det(elements, 3, Scalar.zero(Q), budget=flats - 1)
    assert info.value.required == flats
    # An exact count takes rank <= 2 and rank <= 1 from one walk.
    with pytest.raises(BudgetExceededError) as info:
        count_rank(elements, 4, 3, 2, cumulative=False, budget=flats - 1)
    assert info.value.required == flats
    assert count_rank(elements, 4, 3, 2, cumulative=False, budget=flats) == count_rank(
        elements, 4, 3, 2, cumulative=False
    )
    assert count_det(elements, 2, Scalar.zero(Q), budget=9) == 15
    # A 3x3 det != 0 under the kernel's proof is charged its C(27, 3) row
    # triples, a 3x3 charpoly its 3^6 off-diagonal keys.
    one, triples = Scalar.one(Q), 27 * 26 * 25 // 6
    key = (Scalar.zero(Q), Scalar.rational(-1), Scalar.rational(-3))
    expected = {
        "det": count_det(elements, 3, one),
        "charpoly": count_charpoly(elements, 3, key),
    }
    assert expected["det"] > 0 and expected["charpoly"] > 0
    for stat, count, work in (
        ("det", lambda b: count_det(elements, 3, one, budget=b), triples),
        ("charpoly", lambda b: count_charpoly(elements, 3, key, budget=b), 3**6),
    ):
        with pytest.raises(BudgetExceededError) as info:
            count(work - 1)
        assert info.value.required == work
        assert count(work) == expected[stat]
    path = tmp_path / "set.json"
    path.write_text('{"field": "Q", "elements": ["1", "2", "3"]}')
    for stat, target, work in (
        ("det", ["--d", "1"], triples),
        ("charpoly", ["--coeffs", "0,-1,-3"], 3**6),
    ):
        argv = ["count", stat, "--set", str(path), "-n", "3", *target, "--budget"]
        assert main(argv + [str(work - 1)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(argv + [str(work)]) == 0
        assert capsys.readouterr().out == f"{expected[stat]}\n"
    # Past the proof the det count takes the sweep route and is charged its
    # 2^9 once, whatever the budget below that.
    wide = _elements(("1", "916016"))
    assert not _kernels.supports(wide.scaled_integers()[1])
    dets = oracles.det_histogram(sweep(wide, 3, 3, SweepOptions(rank=False)))
    target = max((d for d in dets if not d.is_zero()), key=dets.get)
    swept = dets[target]
    for budget in (8 * 7 * 6 // 6 - 1, 8 * 7 * 6 // 6, 2**9 - 1):
        with pytest.raises(BudgetExceededError) as info:
            count_det(wide, 3, target, budget=budget)
        assert info.value.required == 2**9
        assert str(info.value).startswith("sweep count")
    assert count_det(wide, 3, target, budget=2**9) == swept


def test_power_sums_budget_is_the_off_diagonal_convolution(tmp_path, capsys):
    """Power sums at any n are charged A^(n(n-1)): the product table and
    the convolution over the n(n-1)/2 transposed pairs; A at n = 1."""
    elements = _elements(("1/2", "2", "-3"))
    hist = sweep(elements, 3, 3, SweepOptions(rank=False, det=False, powersums=True))
    (t1, t2), expected = max(oracles.powersum_histogram(hist).items(), key=lambda kv: kv[1])
    for n, work in ((1, 3), (2, 3**2), (3, 3**6), (4, 3**12)):
        with pytest.raises(BudgetExceededError) as info:
            count_power_sums(elements, n, t1, t2, budget=work - 1)
        assert info.value.required == work
        assert str(info.value).startswith("powersums count")
    assert count_power_sums(elements, 3, t1, t2, budget=3**6) == expected
    path = tmp_path / "set.json"
    path.write_text('{"field": "Q", "elements": ["1/2", "2", "-3"]}')
    argv = ["count", "powersums", "--set", str(path), "-n", "3",
            f"--t1={t1.text()}", f"--t2={t2.text()}", "--budget"]
    assert main(argv + [str(3**6 - 1)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(argv + [str(3**6)]) == 0
    assert capsys.readouterr().out == f"{expected}\n"


def test_flats_budget_in_four_dimensions(tmp_path, capsys):
    """4 x n rank <= 2 is charged the A^4 direction pass and all pairs of at
    most A^4 directions, here 16 + 16 * 15 / 2 = 136."""
    elements = _elements(("1+i", "-i/2"), QI)
    work = 16 + 16 * 15 // 2
    for m, n in ((4, 4), (4, 6), (7, 4)):
        with pytest.raises(BudgetExceededError) as info:
            count_rank(elements, m, n, 2, budget=work - 1)
        assert info.value.required == work
        assert str(info.value).startswith("flats count")
    assert count_rank(elements, 4, 4, 2, budget=work) == 2872
    path = tmp_path / "qi2.json"
    path.write_text('{"field": "Qi", "elements": ["1+i", "-i/2"]}')
    argv = ["count", "rank", "--set", str(path), "-m", "4", "-n", "4", "-r", "2"]
    assert main(argv + ["--budget", str(work - 1)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(argv + ["--budget", str(work)]) == 0
    assert capsys.readouterr().out == "2872\n"


def test_flats_budget_past_rank_two(tmp_path, capsys):
    """Rank <= k is charged sum_{j=1..k} C(A^d, j): 4x4 det = 0 and 4 x 5
    rank <= 3 over two elements 16 + 120 + 560 = 696, and 5x5 rank <= 4
    over {1, 2} 32 + 496 + 4960 + 35960 = 41448, a count the row-set oracle
    takes minutes to confirm."""
    ones = _elements(("1", "2"))
    halves = _elements(("1/2", "-3"))
    zero = Scalar.zero(Q)
    for count, work, expected in (
        (lambda b: count_det(ones, 4, zero, budget=b), 696, 33472),
        (lambda b: count_rank(halves, 4, 5, 3, budget=b), 696, 246256),
        (lambda b: count_rank(ones, 5, 5, 4, budget=b), 41448, 16661312),
    ):
        with pytest.raises(BudgetExceededError) as info:
            count(work - 1)
        assert info.value.required == work
        assert str(info.value).startswith("flats count")
        assert count(work) == expected
    path = tmp_path / "halves.json"
    path.write_text('{"field": "Q", "elements": ["1/2", "-3"]}')
    argv = ["count", "rank", "--set", str(path), "-m", "4", "-n", "5", "-r", "3"]
    assert main(argv + ["--budget", "695"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(argv + ["--budget", "696"]) == 0
    assert capsys.readouterr().out == "246256\n"


@pytest.mark.parametrize(
    "field,texts,m,n,k",
    [
        (Q, ("-3", "1/2", "2"), 4, 4, 3),
        (QI, ("2", "1+i", "-i/2"), 4, 4, 3),
        (Q, ("-3", "1/2"), 5, 5, 4),
        (QI, ("-i/2", "1+i"), 5, 6, 4),
        (Q, ("1/2", "-3", "2/3"), 3, 7, 2),
    ],
)
def test_flats_walk_keys_stay_under_the_charge(field, texts, m, n, k, monkeypatch):
    """Each vector the walk reduces modulo a line is keyed by one
    `_primitive` call; the keys stay within the planned work less the A^d
    vectors of `_line_classes`, for every k the walk runs to."""
    elements = _elements(texts, field)
    keys = []
    primitive = matrices._primitive
    monkeypatch.setattr(
        matrices, "_primitive", lambda *a: keys.append(1) or primitive(*a)
    )
    vectors = len(elements) ** min(m, n)
    for top in range(1, k + 1):
        keys.clear()
        count_rank(elements, m, n, top)
        assert bool(keys) == (top > 1)
        assert len(keys) <= plan_rank(m, n, top, True, len(elements)).work - vectors


def test_rank_counts_need_positive_dimensions(tmp_path, capsys):
    """A shape with a side below 1 is reported as such, as `plan_square`
    does, not as an impossible rank: by `count_rank`, and by the CLI, which
    reads its rank statistic as a growth config does."""
    elements = _elements(("1", "2"))
    for m, n in ((0, 2), (2, 0), (-1, 3)):
        for cumulative in (True, False):
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                count_rank(elements, m, n, 1, cumulative=cumulative)
    path = tmp_path / "set12.json"
    path.write_text('{"field": "Q", "elements": ["1", "2"]}')
    argv = ["count", "rank", "--set", str(path), "-m", "0", "-n", "2", "-r", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: statistic 'rank': m must be at least 1, got 0\n"


def test_target_field_must_match_the_set():
    elements = _elements(("1", "2"))
    with pytest.raises(ValueError):
        count_det(elements, 3, Scalar.zero(QI))
    with pytest.raises(ValueError):
        count_power_sums(elements, 2, Scalar.zero(QI), Scalar.zero(Q))


# -- single-key counts -------------------------------------------------------------

# The function each planned route runs: a count's first call among the
# spied functions, and the one histogram a sweep builds per statistic.  A
# 2x2 det count is the sum over `_product_counter`, and a 2x2 charpoly
# count the power sums count.
_COUNTERS = {
    "powersums": "_power_sums_count",
    "cycles3": "_cycles3_count",
    "target3": "count_target3",
    "sweep": "_generic_shard",
    "flats": "_flats_walk",
}
_HISTOGRAMS = {
    "conv2": "_conv2_histogram",
    "cycles3": "_cycles3_histogram",
    "powersums": "_power_sums_histogram",
    "target3": "sweep_square",
    "sweep": "_generic_shard",
}


def _counter(route: str, stat: str) -> str:
    if route == "conv2":
        return "_product_counter" if stat == "det" else "_power_sums_count"
    return _COUNTERS[route]


class _RouteSpy:
    """Records, in call order, each route function that runs.  Each
    `_generic_shard` result is kept per input, so a count on the sweep
    route looks its key up without sweeping again."""

    def __init__(self, monkeypatch):
        self.calls: list[str] = []
        names = {*_COUNTERS.values(), *_HISTOGRAMS.values(), "_product_counter"}
        for name in names:
            owner = _kernels if name in ("count_target3", "sweep_square") else matrices
            fn = getattr(owner, name)
            if name == "_generic_shard":
                fn = self._kept(fn)
            monkeypatch.setattr(owner, name, self._spy(name, fn))

    def _spy(self, name, fn):
        def spy(*args):
            self.calls.append(name)
            return fn(*args)

        return spy

    @staticmethod
    def _kept(fn):
        kept = {}

        def shard(values, *rest):
            key = (tuple(values), *rest)
            if key not in kept:
                kept[key] = fn(values, *rest)
            return dict(kept[key])

        return shard


@dataclass(frozen=True)
class _Stat:
    """How one square statistic is counted, histogrammed and keyed.  A key
    is a tuple of Scalars; `powers(n)[k]` is the power of the set's lcm
    that clears the denominator of its k-th value."""

    count: Callable[[ElementSet, int, tuple], int]
    histogram: Callable[[object], dict]
    oracle_key: Callable[[tuple], object]
    powers: Callable[[int], tuple[int, ...]]


_STATS = {
    "det": _Stat(
        lambda elements, n, key: count_det(elements, n, key[0]),
        lambda h: {(k,): c for k, c in oracles.det_histogram(h).items()},
        lambda key: oracles.pair(key[0]),
        lambda n: (n,),
    ),
    "charpoly": _Stat(
        count_charpoly,
        lambda h: dict(oracles.charpoly_histogram(h)),
        lambda key: tuple(oracles.pair(c) for c in key),
        lambda n: tuple(range(n, 0, -1)),
    ),
    "powersums": _Stat(
        lambda elements, n, key: count_power_sums(elements, n, *key),
        lambda h: dict(oracles.powersum_histogram(h)),
        lambda key: tuple(oracles.pair(c) for c in key),
        lambda n: (1, 2),
    ),
}


def _only(stat: str) -> SweepOptions:
    return SweepOptions(rank=False, **{s: s == stat for s in _STATS})


def _sweep_keys(elements: ElementSet, stat: str) -> dict:
    return _STATS[stat].histogram(sweep(elements, 3, 3, _only(stat)))


def _missing_keys(elements: ElementSet, stat: str, present, n: int = 3) -> list[tuple]:
    """An absent key that is integral after scaling, one whose first value
    cannot be represented after scaling, and one past int64."""
    lcm, _ = elements.scaled_integers()
    powers = _STATS[stat].powers(n)
    field = elements.field
    absent = tuple(Scalar.rational(10**6 + 7, 1, field) for _ in powers)
    assert absent not in present
    unrepresentable = (Scalar.rational(1, 2 * lcm ** powers[0], field),) + absent[1:]
    huge = tuple(Scalar.rational(2**70, 1, field) for _ in powers)
    return [absent, unrepresentable, huge]


def _check_keys(elements: ElementSet, texts, stat: str, keys) -> None:
    spec = _STATS[stat]
    hist = _sweep_keys(elements, stat)
    oracle = _oracle(texts, elements.field, 3, 3)[stat]
    for key in keys:
        expected = oracle.get(spec.oracle_key(key), 0)
        assert hist.get(key, 0) == expected, key
        assert spec.count(elements, 3, key) == expected, key


def _kernel_keys(stat: str, keys) -> list[tuple]:
    """The keys a count sends to the 3x3 kernel: only det keys, as det = 0
    takes the flats route, the charpoly the cycles3 join and power sums
    their convolution."""
    if stat != "det":
        return []
    return [key for key in keys if not key[0].is_zero()]


def _check_routes(elements: ElementSet, n: int, stat: str, spy: _RouteSpy) -> None:
    """The sweep of `stat` builds its histogram by the route `plan_square`
    names and equals the per-matrix reference; each count on every present
    key, an absent one and an unscalable one equals the histogram and runs
    the function of its planned route (none for the unscalable key)."""
    spec, opts = _STATS[stat], _only(stat)
    spy.calls.clear()
    swept = sweep(elements, n, n, opts)
    route = plan_square(n, elements, stat).name
    assert [c for c in spy.calls if c != "_product_counter"] == [_HISTOGRAMS[route]]
    # The reference takes det by the sweep route's own shared minors; the
    # sweep route's charpoly lanes are checked in test_charpoly_lanes.py.
    if route != "sweep":
        assert swept.raw[stat] == generic_sweep(elements, n, n, opts).raw[stat]
    hist = spec.histogram(swept)
    absent, unscalable, _ = _missing_keys(elements, stat, hist, n)
    for key in [*hist, absent, unscalable]:
        spy.calls.clear()
        assert spec.count(elements, n, key) == hist.get(key, 0), (n, key)
        if key is unscalable:
            assert spy.calls == []
            continue
        det_zero = stat == "det" and key[0].is_zero()
        counter = _counter(plan_square(n, elements, stat, det_zero=det_zero).name, stat)
        assert spy.calls[0] == counter, (n, key, spy.calls)
        assert set(spy.calls) <= {counter, "_product_counter"}, (n, key, spy.calls)


_TARGET_TEXTS = ("1/2", "-3")

# Three elements each, the first two at n = 4 so that the per-matrix
# reference stays near 2^16 matrices: a Q set with denominators, out of
# order; a Qi set; and a Q set past the 3x3 det kernel's int64 proof.
_ROUTE_SETS = [
    (Q, ("3", "-1/2", "2/3")),
    (QI, ("1+i", "-i/2", "2")),
    (Q, ("1", "916016", "-1")),
]


def _route_inputs():
    """The (elements, n) of every route check: each of `_ROUTE_SETS` at
    n = 1..4, its first two elements at n = 4."""
    for field, texts in _ROUTE_SETS:
        for n in (1, 2, 3, 4):
            yield _elements(texts[: 2 if n == 4 else 3], field), n


@pytest.mark.parametrize("stat", list(_STATS))
def test_single_key_kernel_matches_sweep_and_oracle(stat, monkeypatch):
    """Every square route, sweep and count, at n = 1..4: against the naive
    oracle at 3x3, and against `conftest.generic_sweep` with a spy on the
    function each route runs."""
    elements = _elements(_TARGET_TEXTS)
    present = list(_sweep_keys(elements, stat))
    absent, unrepresentable, huge = _missing_keys(elements, stat, present)
    keys = present + [absent, unrepresentable, huge]
    spy = _RouteSpy(monkeypatch)
    _check_keys(elements, _TARGET_TEXTS, stat, keys)
    # The unrepresentable key is answered before the kernel runs.
    kernel_keys = _kernel_keys(stat, present + [absent, huge])
    assert spy.calls.count("count_target3") == len(kernel_keys)
    for elements, n in _route_inputs():
        _check_routes(elements, n, stat, spy)


# -- the route table's contract -------------------------------------------------
#
# Every entry of `matrices._ROUTES` is reached through `_run`, from the entry
# points.  The contract inputs run every entry point on small sets over Q
# and Q(i), record each `_run` call's plan, target and result, and pair it
# with the answer of the naive oracles; each table entry is then checked on
# every call that planned it.  A new entry that some statistic plans at these
# sizes is checked without editing this section.

# Two elements each for the matrix statistics, so the oracle enumeration
# stays at 2^9 matrices; four each for the equations and the zero-sum
# system, whose solutions need more room.
_CONTRACT_SETS = [(Q, ("1/2", "-3")), (QI, ("1+i", "-i/2"))]
_CONTRACT_SHAPES = [(1, 1), (2, 2), (3, 3), (1, 3), (2, 3), (3, 2), (2, 4)]
_MITM_SETS = [(Q, ("1", "-1", "2", "1/2")), (QI, ("1", "i", "-1", "-i"))]
_EQUATIONS = [(("1", "-1"), "0"), (("1", "1", "-1"), "1"), (("1", "1", "-1", "-1"), "0")]


class _RunSpy:
    """Records each `_run` call, (plan, target, result), on the way through;
    growth imports `_run` by name, so both modules' names are replaced."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple] = []
        self.charges: list[tuple] = []
        run, charged = matrices._run, matrices._charged

        def spy(elements, m, n, plan, budget, target=None, **kwargs):
            result = run(elements, m, n, plan, budget, target, **kwargs)
            self.calls.append((dict(plan), target, result))
            return result

        for owner in (matrices, growth):
            monkeypatch.setattr(owner, "_run", spy)
        monkeypatch.setattr(
            matrices, "_charged", lambda *a: self.charges.append(a) or charged(*a)
        )

    def one(self, call) -> tuple:
        """The one `_run` call that `call()` makes."""
        self.calls.clear()
        call()
        [made] = self.calls
        return made


def _oracle_keyed(hist) -> dict:
    """A sweep's histograms keyed as the oracles key them."""
    out = {"rank": hist.rank_profile}
    for stat, spec in _STATS.items():
        if hist.raw[stat] is not None:
            out[stat] = {spec.oracle_key(key): c for key, c in spec.histogram(hist).items()}
    return out


def _matrix_runs(spy: _RunSpy, field: str, texts, m: int, n: int):
    """(plan, target, result, oracle answer) of the sweep of every statistic
    and of each count: every key of each square histogram, an absent key
    and one that does not scale, and each rank, cumulative or exact."""
    elements, oracle = _elements(texts, field), _oracle(texts, field, m, n)
    stats = [stat for stat in _STATS if m == n]
    opts = SweepOptions(rank=True, **{stat: stat in stats for stat in _STATS})
    plan, target, raw = spy.one(lambda: sweep(elements, m, n, opts))
    hist = matrices._finalize({**raw, "total": len(elements) ** (m * n)}, elements, m, n)
    yield plan, target, _oracle_keyed(hist), oracle
    for stat in stats:
        spec = _STATS[stat]
        present = spec.histogram(hist)
        for key in [*present, *_missing_keys(elements, stat, present, n)[:2]]:
            run = spy.one(lambda: spec.count(elements, n, key))
            yield *run, oracle[stat].get(spec.oracle_key(key), 0)
    for r in range(1, min(m, n) + 1):
        for cumulative in (True, False):
            run = spy.one(lambda: count_rank(elements, m, n, r, cumulative=cumulative))
            ranks = oracle["rank"].items()
            yield *run, sum(c for k, c in ranks if (k <= r if cumulative else k == r))


def _mitm_runs(spy: _RunSpy, field: str, texts):
    """(plan, target, result, oracle answer) of each equation and of the
    zero-sum system at n = 2..4, counted by growth's statistics."""
    elements = _elements(texts, field)
    for coeffs, rhs in _EQUATIONS:
        stat = EquationStatistic(
            tuple(parse_scalar(c, field) for c in coeffs), parse_scalar(rhs, field)
        )
        expected = oracles.equation_count(
            [oracles.pair(c) for c in stat.coeffs], oracles.pair(stat.rhs), elements
        )
        yield *spy.one(lambda: stat.count(elements, None)), expected
    for n in (2, 3, 4):
        run = spy.one(lambda: SystemStatistic(n).count(elements, None))
        yield *run, oracles.system_count(n, elements)


@functools.cache
def _contract_runs() -> tuple:
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _RunSpy(monkeypatch)
        runs = [
            run
            for field, texts in _CONTRACT_SETS
            for m, n in _CONTRACT_SHAPES
            for run in _matrix_runs(spy, field, texts, m, n)
        ]
        runs += [run for field, texts in _MITM_SETS for run in _mitm_runs(spy, field, texts)]
    return tuple(runs)


@pytest.mark.parametrize("name", list(matrices._ROUTES))
def test_every_route_in_the_table_agrees_with_the_oracles(name):
    """Each entry's histograms and its one-key counts equal the naive
    oracles, and so each other, on every contract input that plans it;
    each entry is planned for a count, and for a sweep if it histograms."""
    histogram, counter = matrices._ROUTES[name]
    histograms = counts = 0
    for plan, target, result, expected in _contract_runs():
        for stat, route in plan.items():
            if route.name != name:
                continue
            if target is None:
                histograms += 1
                assert result[stat] == expected[stat], (name, stat)
            else:
                counts += 1
                assert result == expected, (name, stat, target)
    assert counts, f"no contract input counts by the {name} route"
    assert bool(histograms) == (histogram is not None), name


_ONE = Scalar.one(Q)
_THREE = _elements(("1", "2", "3"))
_TEN = _elements(tuple(str(v) for v in range(1, 11)))

# Each entry point over `_THREE` under a budget b: the four counts, `sweep`,
# growth's equation and system statistics, and the 2x2 `fast_*` counts,
# which take the default budget.
_ENTRY_POINTS = {
    "count_det": lambda b: count_det(_THREE, 3, _ONE, budget=b),
    "count_rank": lambda b: count_rank(_THREE, 3, 3, 2, cumulative=False, budget=b),
    "count_charpoly": lambda b: count_charpoly(_THREE, 2, (_ONE, _ONE), budget=b),
    "count_power_sums": lambda b: count_power_sums(_THREE, 3, _ONE, _ONE, budget=b),
    "sweep": lambda b: sweep(_THREE, 2, 2, SweepOptions(charpoly=True, budget=b)),
    "equation": lambda b: EquationStatistic((_ONE, -_ONE)).count(_THREE, b),
    "system": lambda b: SystemStatistic(3).count(_THREE, b),
    "fast_det2_count": lambda b: fast_det2_count(_THREE, _ONE),
    "fast_charpoly2_count": lambda b: fast_charpoly2_count(_THREE, (_ONE, _ONE)),
    "fast_power_sums2_count": lambda b: fast_power_sums2_count(_THREE, _ONE, _ONE),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_runs_and_charges_once(entry, monkeypatch):
    """Each entry point makes one `_run` call, which charges once."""
    spy = _RunSpy(monkeypatch)
    _ENTRY_POINTS[entry](10**6)
    assert len(spy.calls) == 1
    assert len(spy.charges) == 1


# The refusal one unit below each route's charge, and the run at it, as the
# entry points meet them: (call with a budget, its charge, the refusal's
# name); "flats" and "sweep-route" are pinned above too.
_BOUNDARIES = [
    pytest.param(lambda b: sweep(_THREE, 2, 2, SweepOptions(budget=b)), 81, "sweep", id="sweep"),
    pytest.param(lambda b: count_det(_THREE, 2, _ONE, budget=b), 9, "conv2 count", id="conv2"),
    pytest.param(lambda b: count_det(_THREE, 3, _ONE, budget=b), 27 * 26 * 25 // 6,
                 "target3 count", id="target3"),
    pytest.param(lambda b: count_charpoly(_THREE, 3, (_ONE,) * 3, budget=b), 3**6,
                 "cycles3 count", id="cycles3"),
    pytest.param(lambda b: count_power_sums(_THREE, 2, _ONE, _ONE, budget=b), 3**2,
                 "powersums count", id="powersums"),
    pytest.param(lambda b: SystemStatistic(4).count(_TEN, b), 100, "mitm count",
                 id="mitm-system"),
    pytest.param(lambda b: EquationStatistic((_ONE, _ONE, -_ONE)).count(_TEN, b), 100,
                 "mitm count", id="mitm-equation"),
    pytest.param(lambda b: count_rank(_THREE, 3, 3, 1, budget=b), 27, "flats count", id="flats"),
    pytest.param(lambda b: count_det(_elements(("1", "916016")), 3, _ONE, budget=b), 2**9,
                 "sweep count", id="sweep-route"),
]


@pytest.mark.parametrize("call,charge,what", _BOUNDARIES)
def test_each_charge_refuses_one_unit_below_and_runs_at_it(call, charge, what):
    with pytest.raises(BudgetExceededError) as info:
        call(charge - 1)
    assert (info.value.required, info.value.budget) == (charge, charge - 1)
    assert str(info.value) == (
        f"{what} requires {charge} units of work, over the budget of {charge - 1}"
    )
    done = call(charge)
    assert done == call(None)


def test_a_count_is_planned_once(monkeypatch):
    """A 3x3 det count past the int64 proof asks `_kernels.supports` once,
    when it is planned, and takes its key from the planned sweep route's
    histogram without planning again; a sweep plans each statistic once,
    and its charpoly join asks once more, for its columns' dtype
    (`_kernels.cycles_dtype`)."""
    elements = _elements(("1", "916016", "-1"))
    calls = []
    supports = _kernels.supports
    monkeypatch.setattr(
        _kernels, "supports", lambda values: calls.append(max(values)) or supports(values)
    )
    assert count_det(elements, 3, Scalar.rational(4)) == 240
    assert calls == [916016]
    sweep(elements, 3, 3, SweepOptions(rank=False, charpoly=True))
    assert calls == [916016] * 3


@pytest.mark.parametrize(
    "stat,bound,proof",
    [
        ("det", 916015, True),
        ("det", 916016, False),
        ("charpoly", 916015, True),
        ("charpoly", 916016, False),
        ("powersums", 715827882, False),
        ("powersums", 715827883, False),
    ],
)
def test_single_key_at_and_past_the_int64_proof(stat, bound, proof, monkeypatch):
    texts = ("1", str(bound))
    elements = _elements(texts)
    # Only det keys reach the kernel, while its proof holds.
    assert _kernels.supports(elements.scaled_integers()[1]) is proof
    hist = _sweep_keys(elements, stat)
    common = max(hist, key=hist.get)
    largest = max(hist, key=lambda key: max(abs(c.re) for c in key))
    keys = [common, largest, _missing_keys(elements, stat, hist)[0]]
    spy = _RouteSpy(monkeypatch)
    _check_keys(elements, texts, stat, keys)
    expected = len(_kernel_keys(stat, keys)) if proof else 0
    assert spy.calls.count("count_target3") == expected
