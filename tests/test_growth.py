"""Growth experiments: family templates, statistics, slope fitting, verdicts,
and the preset roster."""

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from unitcount import Q, QI, families, growth, parse_scalar
from unitcount.equations import EquationSpec
from unitcount.families import FamilyError, FamilySpec, FamilyTemplate, materialize
from unitcount.growth import (
    PRESETS,
    CharpolyStatistic,
    DetStatistic,
    EquationStatistic,
    ExperimentSpec,
    GrowthConfigError,
    PowerSumsStatistic,
    RankStatistic,
    Statistic,
    SystemStatistic,
    analyze,
    compare,
    emit,
    fit_slope,
    list_presets,
    load_experiment,
    preset,
    run_experiment,
    statistic_from_json,
)
from unitcount.matrices import BudgetExceededError
from unitcount.scalars import _READERS

from oracles import growth_points_per_k


def _family(obj):
    return FamilyTemplate.from_json(obj)


# ----------------------------------------------------------- family templates


def test_family_at_sizes_per_variant():
    geo = _family({"variant": "geometric", "base": "2"})
    assert len(materialize(geo.family_at(3))) == 6
    assert len(materialize(geo.family_at(5))) == 10

    signed = _family({"variant": "signed_geometric", "base": "2"})
    assert len(materialize(signed.family_at(4))) == 8

    units = _family({"variant": "gaussian_units_scaled", "scale_base": "1+i"})
    assert units.field == QI
    assert len(materialize(units.family_at(2))) == 8

    box = _family(
        {
            "variant": "lattice_box",
            "generators": ["2", "3"],
            "ranges": [[0, 5], [0, 5]],
            "seed": 9,
        }
    )
    made = materialize(box.family_at(12))
    assert 1 <= len(made) <= 12


def test_family_at_rejects_nonpositive_k():
    geo = _family({"variant": "geometric", "base": "2"})
    with pytest.raises(FamilyError):
        geo.family_at(0)
    with pytest.raises(GrowthConfigError):
        _det2_spec(k_values=[0, 1, 2])


def test_family_from_json_validation():
    for bad in (
        {"base": "2"},
        {"variant": "spiral", "base": "2"},
        {"variant": "geometric"},
        {"variant": "geometric", "base": "2+"},
    ):
        with pytest.raises(FamilyError):
            FamilyTemplate.from_json(bad)
        with pytest.raises(GrowthConfigError):
            _det2_spec(family=bad)


def test_family_round_trips_through_as_dict():
    for obj in [
        {"variant": "geometric", "base": "3/2", "start": 0},
        {"variant": "signed_geometric", "base": "2"},
        {"variant": "gaussian_units_scaled", "scale_base": "2+i"},
        {
            "variant": "lattice_box",
            "generators": ["2", "-3"],
            "ranges": [[0, 4], [1, 3]],
            "seed": 5,
        },
    ]:
        fam = FamilyTemplate.from_json(obj)
        again = FamilyTemplate.from_json(fam.as_dict())
        assert fam == again


# ---------------------------------------------------------------- statistics


def test_statistic_json_round_trips():
    cases = [
        ({"kind": "det", "n": 3, "target": "0"}, Q),
        ({"kind": "rank", "m": 2, "n": 2, "r": 1}, Q),
        ({"kind": "charpoly", "n": 2, "coeffs": ["0", "0"]}, Q),
        ({"kind": "powersums", "n": 2, "t1": "0", "t2": "0"}, Q),
        ({"kind": "equation", "coeffs": ["1", "-1"], "rhs": "0"}, Q),
        ({"kind": "equation", "tight_n": 3}, Q),
        ({"kind": "system", "n": 4}, QI),
    ]
    for obj, field in cases:
        stat = statistic_from_json(obj, field)
        again = statistic_from_json(stat.to_json(), field)
        assert stat == again


@pytest.mark.parametrize(
    "obj,field,expected",
    [
        ({"kind": "det", "n": 3, "target": "-7/2"}, Q,
         {"kind": "det", "n": 3, "target": "-7/2"}),
        ({"kind": "rank", "m": 2, "n": 3, "r": 1, "cumulative": False}, Q,
         {"kind": "rank", "m": 2, "n": 3, "r": 1, "cumulative": False}),
        ({"kind": "rank", "m": 2, "n": 2, "r": 1}, Q,
         {"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulative": True}),
        ({"kind": "charpoly", "n": 3, "coeffs": ["1+i", "-i/2", "0"]}, QI,
         {"kind": "charpoly", "n": 3, "coeffs": ["(1+i)", "-i/2", "0"]}),
        ({"kind": "charpoly", "n": 2, "coeffs": ["0", "0"]}, Q,
         {"kind": "charpoly", "n": 2, "coeffs": ["0", "0"]}),
        ({"kind": "powersums", "n": 3, "t1": "2", "t2": "-1/3"}, Q,
         {"kind": "powersums", "n": 3, "t1": "2", "t2": "-1/3"}),
        ({"kind": "equation", "coeffs": ["1", "-1/2", "3"], "rhs": "5/4"}, Q,
         {"kind": "equation", "coeffs": ["1", "-1/2", "3"], "rhs": "5/4"}),
        ({"kind": "equation", "tight_n": 3}, QI,
         {"kind": "equation", "coeffs": ["-1", "-1", "2"], "rhs": "0"}),
        ({"kind": "system", "n": 4}, QI, {"kind": "system", "n": 4}),
    ],
    ids=["det", "rank-exact", "rank", "charpoly-3x3-qi", "charpoly-2x2", "powersums-3",
         "equation", "equation-tight", "system"],
)
def test_statistic_to_json_is_pinned(obj, field, expected):
    """The JSON each kind writes into a growth report, key for key."""
    assert statistic_from_json(obj, field).to_json() == expected


def test_statistic_json_validation():
    with pytest.raises(GrowthConfigError):
        statistic_from_json({"n": 2}, Q)
    with pytest.raises(GrowthConfigError):
        statistic_from_json({"kind": "median", "n": 2}, Q)
    with pytest.raises(GrowthConfigError):
        statistic_from_json({"kind": "det", "n": 2}, Q)


@pytest.mark.parametrize(
    "obj,key",
    [
        ({"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulativ": False}, "cumulativ"),
        ({"kind": "det", "n": 2, "target": "0", "d": "1"}, "d"),
        ({"kind": "charpoly", "n": 1, "coeffs": ["0"], "coeff": ["1"]}, "coeff"),
        ({"kind": "powersums", "n": 2, "t1": "0", "t2": "0", "t3": "0"}, "t3"),
        ({"kind": "equation", "tight_n": 3, "rhs": "1"}, "rhs"),
        ({"kind": "equation", "coeffs": ["1", "-1"], "tight": 2}, "tight"),
        ({"kind": "system", "n": 4, "m": 4}, "m"),
    ],
)
def test_statistic_keys_its_kind_does_not_read_are_rejected(obj, key):
    """A misspelt key is refused by name, not read as its default: with
    "cumulativ" the rank statistic would count rank <= r, not rank == r."""
    with pytest.raises(GrowthConfigError, match=f"unknown key '{key}'"):
        statistic_from_json(obj, Q)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "det", "n": 0, "target": "0"},
        {"kind": "det", "n": -1, "target": "0"},
        {"kind": "rank", "m": 2, "n": 2, "r": 3},
        {"kind": "rank", "m": 2, "n": 2, "r": 0},
        {"kind": "rank", "m": 0, "n": 2, "r": 1},
        {"kind": "rank", "m": 3, "n": 1, "r": 2},
        {"kind": "charpoly", "n": 0, "coeffs": []},
        {"kind": "charpoly", "n": 3, "coeffs": ["0", "0"]},
        {"kind": "powersums", "n": 0, "t1": "0", "t2": "0"},
        {"kind": "system", "n": 0},
    ],
    ids=["det-n0", "det-n-1", "rank-r-above", "rank-r0", "rank-m0", "rank-r-past-n",
         "charpoly-n0", "charpoly-degree", "powersums-n0", "system-n0"],
)
def test_uncountable_statistics_are_rejected_at_load(obj):
    with pytest.raises(GrowthConfigError):
        statistic_from_json(obj, Q)
    with pytest.raises(GrowthConfigError):
        _det2_spec(statistic=obj)


_ZERO = parse_scalar("0", Q)


@pytest.mark.parametrize(
    "obj,build",
    [
        ({"kind": "rank", "m": 2, "n": 2, "r": 3}, lambda: RankStatistic(2, 2, 3)),
        ({"kind": "rank", "m": 0, "n": 2, "r": 1}, lambda: RankStatistic(0, 2, 1)),
        ({"kind": "det", "n": 0, "target": "0"}, lambda: DetStatistic(0, _ZERO)),
        (
            {"kind": "charpoly", "n": 3, "coeffs": ["0", "0"]},
            lambda: CharpolyStatistic(3, (_ZERO, _ZERO)),
        ),
        (
            {"kind": "powersums", "n": 0, "t1": "0", "t2": "0"},
            lambda: PowerSumsStatistic(0, _ZERO, _ZERO),
        ),
        ({"kind": "equation", "coeffs": []}, lambda: EquationStatistic(())),
        ({"kind": "system", "n": 0}, lambda: SystemStatistic(0)),
    ],
    ids=["rank-r-above", "rank-m0", "det-n0", "charpoly-degree", "powersums-n0",
         "equation-empty", "system-n0"],
)
def test_a_statistic_built_in_code_is_refused_by_its_json_rule(obj, build):
    with pytest.raises(ValueError) as built:
        build()
    with pytest.raises(GrowthConfigError) as read:
        statistic_from_json(obj, Q)
    assert str(read.value) == f"statistic {obj['kind']!r}: {built.value}"


@pytest.mark.parametrize(
    "cls",
    [*get_args(Statistic), *get_args(FamilySpec), EquationSpec],
    ids=lambda cls: cls.__name__,
)
def test_every_config_field_type_has_a_reader(cls):
    """Each field of an object read from JSON is read by its annotation, so
    a field of a type with no reader fails here, not on a user's config."""
    for f in fields(cls):
        assert f.type in _READERS, f"{cls.__name__}.{f.name}: {f.type}"


def test_rank_statistic_default_is_cumulative():
    stat = statistic_from_json({"kind": "rank", "m": 2, "n": 2, "r": 1}, Q)
    assert stat.cumulative is True


def test_tight_n_builds_zero_sum_equation():
    stat = statistic_from_json({"kind": "equation", "tight_n": 4}, Q)
    assert isinstance(stat, EquationStatistic)
    assert stat.rhs.is_zero()
    assert stat.n == 4
    assert stat.exponent_info(Q)[2] is True


def test_exponent_info_values():
    zero = parse_scalar("0", Q)
    one = parse_scalar("1", Q)

    v, src, tight = DetStatistic(3, zero).exponent_info(Q)
    assert (v, src, tight) == (Fraction(7), "det-bound", True)
    assert DetStatistic(4, zero).exponent_info(Q)[2] is False
    assert DetStatistic(3, one).exponent_info(Q)[2] is False

    v, src, tight = RankStatistic(2, 2, 1).exponent_info(Q)
    assert (v, tight) == (Fraction(3), True)
    v, src, tight = RankStatistic(3, 3, 2).exponent_info(Q)
    assert (v, tight) == (Fraction(7), True)
    assert RankStatistic(3, 3, 2, cumulative=False).exponent_info(Q)[2] is False
    assert RankStatistic(1, 1, 1).exponent_info(Q) == (Fraction(1), "rank-bound", True)

    v, src, tight = CharpolyStatistic(2, (zero, zero)).exponent_info(Q)
    assert (v, src, tight) == (Fraction(2), "charpoly2", True)

    v, src, tight = PowerSumsStatistic(2, zero, zero).exponent_info(Q)
    assert (v, tight) == (Fraction(2), True)
    v, src, tight = PowerSumsStatistic(3, zero, zero).exponent_info(Q)
    assert (v, tight) == (Fraction(5), False)

    eq2 = statistic_from_json({"kind": "equation", "tight_n": 2}, Q)
    v, src, tight = eq2.exponent_info(Q)
    assert (v, src, tight) == (Fraction(1), "equation-homogeneous", True)
    inhom = statistic_from_json(
        {"kind": "equation", "coeffs": ["1", "1"], "rhs": "3"}, Q
    )
    assert inhom.exponent_info(Q) == (Fraction(0), "equation-inhomogeneous", False)

    sys4 = SystemStatistic(4)
    assert sys4.exponent_info(QI) == (Fraction(1), "system-sum-squares", True)
    assert sys4.exponent_info(Q)[2] is False


@pytest.mark.parametrize("field", [Q, QI])
def test_power_sums_take_the_charpoly_bound_by_newton(field):
    """tr X = t1 and tr X^2 = t2 fix c_(n-1) = -t1 and c_(n-2) = (t1^2 - t2)/2,
    so both statistics read the same bound, tightness included."""
    values = ["0", "1", "-1", "2", "4", "6", "1/2"] + (["i", "-1+i"] if field == QI else [])
    scalars = [parse_scalar(v, field) for v in values]
    zero, half = parse_scalar("0", field), parse_scalar("1/2", field)
    seen = set()
    for n in range(2, 9):
        for t1 in scalars:
            for t2 in scalars:
                coeffs = [zero] * n
                coeffs[n - 1] = -t1
                coeffs[n - 2] = (t1 * t1 - t2) * half
                got = PowerSumsStatistic(n, t1, t2).exponent_info(field)
                assert got == CharpolyStatistic(n, tuple(coeffs)).exponent_info(field)
                cases = {"t1=0": t1.is_zero(), "t1^2=t2": t1 * t1 == t2,
                         "2c2=c1": t1 * t1 - t2 == -t1 and not t1.is_zero()}
                seen.update(case for case, hit in cases.items() if hit)
    assert seen == {"t1=0", "t1^2=t2", "2c2=c1"}


# ----------------------------------------------------------- experiment specs


def _det2_spec(**kwargs) -> ExperimentSpec:
    obj = {
        "name": "det2-demo",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": {"kind": "det", "n": 2, "target": "0"},
    }
    obj.update(kwargs)
    return ExperimentSpec.from_json(obj)


@pytest.mark.parametrize(
    "family,message",
    [
        ({"variant": "geometric", "base": "0"}, "geometric family with zero base"),
        ({"variant": "gaussian_units_scaled", "scale_base": "0"},
         "unit-scaled family with zero scale"),
        ({"variant": "lattice_box", "generators": ["2"], "ranges": [[3, 2]], "seed": 1},
         r"empty exponent range \(3, 2\)"),
        ({"variant": "lattice_box", "generators": ["2", "3"], "ranges": [[0, 2]], "seed": 1},
         "lattice box needs one range per generator"),
    ],
    ids=["zero-base", "zero-scale-base", "empty-range", "generators-past-ranges"],
)
def test_a_template_a_run_would_refuse_is_refused_when_read(family, message, monkeypatch):
    """The variant's checks run when its family is built, so a config whose
    template no run could materialize is refused with the run's message
    before any set is built."""
    calls = []
    for module in (families, growth):
        monkeypatch.setattr(module, "materialize", calls.append)
    with pytest.raises(GrowthConfigError, match=message):
        _det2_spec(family=family)
    assert calls == []


def test_experiment_spec_validation():
    with pytest.raises(GrowthConfigError):
        _det2_spec(k_values=[2, 3])
    with pytest.raises(GrowthConfigError):
        _det2_spec(k_values=[2, 4, 4])
    with pytest.raises(GrowthConfigError):
        _det2_spec(tolerance=0)
    with pytest.raises(GrowthConfigError):
        ExperimentSpec.from_json({"name": "x"})


def test_experiment_spec_defaults_and_budget_parsing():
    spec = _det2_spec()
    assert spec.tolerance == 0.2 and spec.budget is None
    spec = _det2_spec(budget="1e6", tolerance=0.5)
    assert spec.budget == 1_000_000
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert _det2_spec(budget=2e8).budget == 200_000_000
    assert _det2_spec(budget="1e400").budget == 10**400
    exact = "12345678901234567891"
    assert _det2_spec(budget=exact).budget == int(exact)
    assert _det2_spec(budget=int(exact)).budget == int(exact)
    for bad in ("2.5", 2.5, "many", [1]):
        with pytest.raises(GrowthConfigError):
            _det2_spec(budget=bad)


@pytest.mark.parametrize("key", ["tolerence", "shards", "budjet"])
def test_config_with_an_unknown_key_is_refused(key):
    # A misspelt key is never read as its default: "tolerence" would
    # otherwise run at tolerance 0.2.
    assert _det2_spec().tolerance == 0.2
    with pytest.raises(GrowthConfigError, match=f"experiment config has unknown key '{key}'"):
        _det2_spec(**{key: 0.9})


def test_load_experiment_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_det2_spec().to_json()))
    spec = load_experiment(path)
    assert spec.name == "det2-demo"


# -------------------------------------------------------------- slope fitting


def test_fit_slope_recovers_exact_power_law():
    points = [(a, a**3) for a in (4, 8, 16, 32)]
    fit = fit_slope(points)
    assert abs(fit.slope - 3.0) < 1e-9
    assert abs(fit.r2 - 1.0) < 1e-12
    assert fit.excluded_sizes == ()


def test_fit_slope_constant_counts():
    fit = fit_slope([(4, 5), (8, 5), (16, 5)])
    assert abs(fit.slope) < 1e-12
    assert fit.r2 == 1.0


def test_fit_slope_excludes_zero_counts():
    fit = fit_slope([(4, 64), (6, 0), (8, 512), (16, 4096)])
    assert fit.excluded_sizes == (6,)
    assert len(fit.used) == 3
    assert abs(fit.slope - 3.0) < 1e-9


def test_fit_slope_needs_three_positive_points():
    with pytest.raises(ValueError):
        fit_slope([(4, 8), (8, 0), (16, 64)])
    with pytest.raises(ValueError):
        fit_slope([(4, 8), (4, 8), (4, 8)])


def test_compare_verdict_boundaries():
    e = Fraction(3)
    assert compare(3.2, e, 0.2, tight=False) == "consistent"
    assert compare(3.2000001, e, 0.2, tight=True) == "upper-violated"
    assert compare(2.8, e, 0.2, tight=True) == "lower-achieved"
    assert compare(2.79, e, 0.2, tight=True) == "consistent"
    assert compare(2.99, e, 0.2, tight=False) == "consistent"


# ----------------------------------------------------------------- execution


def test_run_experiment_points_in_order():
    result = run_experiment(_det2_spec())
    assert not result.budget_exceeded
    assert [p.k for p in result.points] == [2, 3, 4]
    assert [p.set_size for p in result.points] == [4, 6, 8]
    assert all(p.count > 0 for p in result.points)
    assert all(p.elapsed_us >= 0 for p in result.points)


@dataclass(frozen=True)
class _RecordingStatistic:
    """Counts a set as its size and keeps every set it was given."""

    seen: list = field(default_factory=list, compare=False)

    def count(self, elements, budget):
        self.seen.append(elements)
        return len(elements)


# Every template variant, with ones whose values collide: powers of -1 and
# of i, unit scales that are themselves units, and the lattice boxes of
# lattice-rank22 (sizes 5, 9, 12, 15, 17, 21 at its k values) and
# lattice-det0-2x2-gaussian (9, 13, 16, 17, 19, 21).
_PREFIX_TEMPLATES = {
    "geometric": {"variant": "geometric", "base": "2"},
    "geometric-start": {"variant": "geometric", "base": "-1/3", "start": -4},
    "geometric-minus-one": {"variant": "geometric", "base": "-1"},
    "geometric-i": {"variant": "geometric", "base": "i", "field": QI},
    "signed": {"variant": "signed_geometric", "base": "3"},
    "signed-one": {"variant": "signed_geometric", "base": "1"},
    "units": {"variant": "gaussian_units_scaled", "scale_base": "1+i"},
    "units-i": {"variant": "gaussian_units_scaled", "scale_base": "i"},
    "lattice-rank22": PRESETS["lattice-rank22"]["family"],
    "lattice-det0-2x2-gaussian": PRESETS["lattice-det0-2x2-gaussian"]["family"],
}


def _sets_per_k(template, k_values):
    statistic = _RecordingStatistic()
    spec = ExperimentSpec(
        name="sets", family=template, k_values=tuple(k_values), statistic=statistic
    )
    run_experiment(spec)
    return statistic.seen


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(_PREFIX_TEMPLATES)),
    st.lists(st.integers(1, 32), min_size=3, max_size=7, unique=True).map(sorted),
)
def test_each_k_set_is_its_own_family_materialized(name, k_values):
    template = _family(_PREFIX_TEMPLATES[name])
    for k, elements in zip(k_values, _sets_per_k(template, k_values), strict=True):
        own = materialize(template.family_at(k))
        assert elements.elements == own.elements
        assert elements.collisions == own.collisions
        assert len(elements) + elements.collisions == template.walk_length(k)


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("lattice-rank22", [5, 9, 12, 15, 17, 21]),
        ("lattice-det0-2x2-gaussian", [9, 13, 16, 17, 19, 21]),
    ],
)
def test_colliding_lattice_presets_keep_their_set_sizes(name, sizes):
    spec = preset(name)
    seen = _sets_per_k(spec.family, spec.k_values)
    assert [len(elements) for elements in seen] == sizes
    assert all(elements.collisions > 0 for elements in seen)


def test_run_experiment_materializes_once(monkeypatch):
    calls = []

    def spy(spec):
        calls.append(spec)
        return materialize(spec)

    monkeypatch.setattr(growth, "materialize", spy)
    spec = preset("lattice-rank22")
    result = run_experiment(spec)
    assert len(calls) == 1 and calls[0] == spec.family.family_at(spec.k_values[-1])
    assert ([(p.k, p.set_size, p.count) for p in result.points], False) == (
        growth_points_per_k(spec)
    )


def test_a_budget_that_stops_at_the_third_k_matches_per_k_sets():
    # 2x2 det charges A^2: 16, 36 and 64 for sets of 4, 6 and 8.
    spec = _det2_spec(k_values=[2, 3, 4, 5], budget=50)
    result = run_experiment(spec)
    assert result.budget_exceeded and [p.k for p in result.points] == [2, 3]
    assert (
        [(p.k, p.set_size, p.count) for p in result.points],
        result.budget_exceeded,
    ) == growth_points_per_k(spec)


def test_run_experiment_budget_stops_early():
    full = run_experiment(_det2_spec())
    partial = run_experiment(_det2_spec(budget=20))
    assert partial.budget_exceeded
    assert [p.k for p in partial.points] == [2]
    assert partial.points[0].count == full.points[0].count
    none_fit = run_experiment(_det2_spec(budget=10))
    assert none_fit.budget_exceeded and none_fit.points == ()


def _budget_spec(family, statistic, budget=None):
    obj = {"family": family, "k_values": [2, 3, 4], "statistic": statistic}
    if budget is not None:
        obj["budget"] = budget
    return ExperimentSpec.from_json(obj)


@pytest.mark.parametrize(
    "family,statistic,table",
    [
        # tight_n 3 over 4, 6, 8 elements: a table of A^2 = 64 at k = 4.
        ({"variant": "geometric", "base": "2"}, {"kind": "equation", "tight_n": 3}, 64),
        # n = 4 over 8, 12, 16 Gaussian elements: A^2 = 256 at k = 4.
        ({"variant": "gaussian_units_scaled", "scale_base": "2"},
         {"kind": "system", "n": 4}, 256),
    ],
)
def test_meet_in_the_middle_runs_charge_their_table(family, statistic, table):
    full = run_experiment(_budget_spec(family, statistic))
    assert not full.budget_exceeded and len(full.points) == 3
    fits = run_experiment(_budget_spec(family, statistic, budget=table))
    assert not fits.budget_exceeded
    assert [(p.k, p.set_size, p.count) for p in fits.points] == [
        (p.k, p.set_size, p.count) for p in full.points
    ]
    short = run_experiment(_budget_spec(family, statistic, budget=table - 1))
    assert short.budget_exceeded
    assert [(p.k, p.set_size, p.count) for p in short.points] == [
        (p.k, p.set_size, p.count) for p in full.points[:2]
    ]


def test_meet_in_the_middle_statistics_raise_past_the_budget():
    elements = materialize(_family({"variant": "geometric", "base": "2"}).family_at(5))
    eq = statistic_from_json({"kind": "equation", "tight_n": 5}, Q)
    assert eq.count(elements, 1000) == eq.count(elements, 10**9)
    with pytest.raises(BudgetExceededError) as info:
        eq.count(elements, 999)
    assert info.value.required == 1000
    with pytest.raises(BudgetExceededError) as info:
        SystemStatistic(4).count(elements, 99)
    assert info.value.required == 100


@pytest.mark.parametrize(
    "change",
    [
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"tolerance": "0.5"},
        {"tolerance": True},
        {"tolerance": 10**400},
        {"statistic": {"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulative": "false"}},
        {"k_values": [2.5, 3.7, 4.2]},
        {"k_values": [True, 3, 4]},
        {"k_values": "234"},
        {"statistic": {"kind": "det", "n": 2.9, "target": "0"}},
        {"statistic": {"kind": "charpoly", "n": 2, "coeffs": "00"}},
        {"statistic": {"kind": "equation", "coeffs": "1", "rhs": "0"}},
        {"family": {"variant": "geometric", "base": "2", "start": 1.5}},
    ],
    ids=[
        "tolerance-nan", "tolerance-inf", "tolerance-text", "tolerance-bool",
        "tolerance-huge", "cumulative-text", "k-fractions", "k-bool", "k-text",
        "n-fraction", "coeffs-text", "equation-coeffs-text", "start-fraction",
    ],
)
def test_configs_are_read_exactly(change):
    with pytest.raises(GrowthConfigError):
        _det2_spec(**change)


def test_whole_numbers_read_in_any_exact_form():
    spec = _det2_spec(k_values=[2.0, "3", "4e0"])
    assert spec.k_values == (2, 3, 4)
    stat = statistic_from_json({"kind": "rank", "m": 2.0, "n": "2", "r": 1}, Q)
    assert stat == RankStatistic(2, 2, 1)
    assert statistic_from_json(
        {"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulative": False}, Q
    ).cumulative is False


def test_analyze_det2_preset_reaches_lower_bound():
    result = run_experiment(preset("det0-2x2-geometric"))
    report = analyze(result)
    assert report.theoretical == Fraction(3)
    assert report.tight is True
    assert abs(report.fit.slope - 3.0) <= report.tolerance
    assert report.verdict == "lower-achieved"
    assert report.fit.r2 > 0.99


def test_emit_outputs_are_deterministic(tmp_path):
    spec = _det2_spec()
    first = run_experiment(spec)
    second = run_experiment(spec)
    csv_a, json_a = emit(first, analyze(first), tmp_path / "a")
    csv_b, json_b = emit(second, analyze(second), tmp_path / "b")
    assert json_a.read_bytes() == json_b.read_bytes()

    def mask_timing(path):
        lines = path.read_text().splitlines()
        assert lines[0] == "k,set_size,count,elapsed_us"
        return [line.rsplit(",", 1)[0] for line in lines]

    assert mask_timing(csv_a) == mask_timing(csv_b)
    blob = json.loads(json_a.read_text())
    assert blob["verdict"] in {"consistent", "lower-achieved", "upper-violated"}
    assert "elapsed_us" not in json.dumps(blob)


def test_emit_names_files_after_the_report(tmp_path):
    result = run_experiment(_det2_spec())
    report = analyze(result)
    assert report.name == "det2-demo"
    csv_path, json_path = emit(result, report, tmp_path)
    assert (csv_path.name, json_path.name) == ("det2-demo.csv", "det2-demo.json")


# -------------------------------------------------------------------- presets


def test_preset_roster_shape():
    names = list_presets()
    assert names == sorted(PRESETS)
    assert sum(name.startswith("lattice-") for name in names) >= 10
    for name in names:
        spec = preset(name)
        assert isinstance(spec, ExperimentSpec)
        assert spec.name == name
    with pytest.raises(GrowthConfigError):
        preset("no-such-experiment")


def test_lattice_presets_are_seeded_and_bounded():
    for name in (name for name in PRESETS if name.startswith("lattice-")):
        spec = preset(name)
        cfg = spec.family.as_dict()
        assert cfg["variant"] == "lattice_box"
        assert isinstance(cfg["seed"], int)
        made = materialize(spec.family.family_at(spec.k_values[0]))
        assert len(made) >= 1
