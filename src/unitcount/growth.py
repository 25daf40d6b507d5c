"""Growth experiments: run a counting statistic across a growing family,
fit the log-log slope, and compare it to the theoretical exponent.

Counts are exact; only the least-squares fit uses floating point.  Points
with count zero are excluded from the fit (log is undefined there) but are
reported.  The verdict compares the fitted slope s to the theoretical
exponent e under the experiment tolerance tau:

    upper-violated   s > e + tau
    lower-achieved   s >= e - tau and the exponent has an attaining family
    consistent       otherwise
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import ClassVar, get_args

from . import bounds
# count_solutions, count_system_sum_squares and materialize are imported by
# name: perfbench/spans.py wraps them on this module.
from .equations import EquationSpec, count_solutions, count_system_sum_squares  # noqa: F401
from .families import ElementSet, FamilyTemplate, materialize, tight_equation_coeffs
from .matrices import (
    BudgetExceededError,
    _run,
    count_charpoly,
    count_det,
    count_power_sums,
    count_rank,
    parse_budget,
    plan_mitm,
    resolve_budget,
)
# Re-exported: perfbench/spans.py wraps these names on this module.
from .matrices import fast_charpoly2_count, fast_det2_count, fast_power_sums2_count  # noqa: F401
from .scalars import Q, QI, Scalar, parse_whole
from .scalars import _READERS, _json_form, _read_fields, _refuse_unknown_keys


class GrowthConfigError(ValueError):
    """Raised for malformed experiment configuration."""


# -- statistics ---------------------------------------------------------------
#
# A statistic is a frozen dataclass; its JSON object is its `kind` and its
# fields, the only keys `statistic_from_json` accepts (an equation may give
# `tight_n` alone instead), and each field is read by its annotation
# (`scalars._read_fields`).  A statistic that no matrix or tuple can have
# is refused when it is built, from JSON or in code.  Each count is planned
# and charged in `matrices`, the equation and system statistics' by its
# runner (`_run`) on the meet-in-the-middle route (`plan_mitm`).  Each
# statistic's `_bound` names its `bounds.bound_table` kind and flags, and
# whether a family attains row 0, the exponent its report compares with.


class _Statistic:
    kind: ClassVar[str]
    # The fields that are a matrix dimension or tuple length, each >= 1.
    _dimensions: ClassVar[tuple[str, ...]] = ("n",)

    def __post_init__(self):
        for name in self._dimensions:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def to_json(self) -> dict:
        return {"kind": self.kind, **_json_form(self)}

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        """The value and source of the statistic's least bound, and whether
        a family attains it; a ValueError when it has no bound."""
        kind, flags, tight = self._bound(field)
        best = bounds.bound_table(kind, **flags)[0]
        return best.value, best.source, tight


def _charpoly_bound(n: int, c1: Scalar, twice_c2: Scalar, field: str) -> tuple[str, dict, bool]:
    """The bound of T^n + c1 T^(n-1) + c2 T^(n-2) + ..., given 2 c2.  At
    n = 2, c2 is the constant term, and only T^2 has an attaining family."""
    c1_zero, c2_zero = c1.is_zero(), twice_c2.is_zero()
    flags = {"n": n, "c0_zero": c2_zero, "c1_zero": c1_zero, "c2_zero": c2_zero,
             "field_real": field == Q, "twice_c2_equals_c1": twice_c2 == c1}
    return "charpoly", flags, n == 2 and c1_zero and c2_zero


@dataclass(frozen=True)
class DetStatistic(_Statistic):
    kind = "det"
    n: int
    target: Scalar

    def count(self, elements: ElementSet, budget: int | None) -> int:
        return count_det(elements, self.n, self.target, budget=budget)

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        zero = self.target.is_zero()
        return "det", {"n": self.n, "target_is_zero": zero}, zero and self.n in (2, 3)


@dataclass(frozen=True)
class RankStatistic(_Statistic):
    kind = "rank"
    _dimensions = ("m", "n")
    m: int
    n: int
    r: int
    cumulative: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError(f"rank {self.r} impossible for a {self.m}x{self.n} matrix")

    def count(self, elements: ElementSet, budget: int | None) -> int:
        return count_rank(
            elements, self.m, self.n, self.r, cumulative=self.cumulative, budget=budget
        )

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        coincide = 2 * min(self.m, self.n) <= max(self.m, self.n) + self.r or self.r <= 2
        tight = coincide and (self.cumulative or self.r == 1)
        return "rank", {"m": self.m, "n": self.n, "r": self.r}, tight


@dataclass(frozen=True)
class CharpolyStatistic(_Statistic):
    """T^n + c_(n-1) T^(n-1) + ... + c_0, `coeffs` = (c_0, ..., c_(n-1))."""

    kind = "charpoly"
    n: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.coeffs) != self.n:
            raise ValueError(f"{len(self.coeffs)} coeffs for a degree-{self.n} charpoly")

    def count(self, elements: ElementSet, budget: int | None) -> int:
        return count_charpoly(elements, self.n, self.coeffs, budget=budget)

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        c2 = self.coeffs[self.n - 2]
        return _charpoly_bound(self.n, self.coeffs[self.n - 1], c2 + c2, field)


@dataclass(frozen=True)
class PowerSumsStatistic(_Statistic):
    """tr X = t1 and tr X^2 = t2, which fix the charpoly's top coefficients
    by Newton's identities: c_(n-1) = -t1 and 2 c_(n-2) = t1^2 - t2."""

    kind = "powersums"
    n: int
    t1: Scalar
    t2: Scalar

    def count(self, elements: ElementSet, budget: int | None) -> int:
        return count_power_sums(elements, self.n, self.t1, self.t2, budget=budget)

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        return _charpoly_bound(self.n, -self.t1, self.t1 * self.t1 - self.t2, field)


class EquationStatistic(EquationSpec, _Statistic):
    """coeffs . x = rhs: an `EquationSpec`, its fields and checks included."""

    kind = "equation"

    def count(self, elements: ElementSet, budget: int | None) -> int:
        plan = {"equation": plan_mitm(self.n, len(elements))}
        return _run(elements, 1, self.n, plan, budget, self)

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        n, homogeneous = self.n, self.rhs.is_zero()
        # The coefficients match the tight pattern by text, over Q and Q(i) alike.
        tight = homogeneous and n >= 2 and (
            _json_form(self.coeffs) == _json_form(tight_equation_coeffs(n))
        )
        return "equation", {"n": n, "homogeneous": homogeneous}, tight


@dataclass(frozen=True)
class SystemStatistic(_Statistic):
    kind = "system"
    n: int

    def count(self, elements: ElementSet, budget: int | None) -> int:
        plan = {"system": plan_mitm(self.n, len(elements))}
        return _run(elements, 1, self.n, plan, budget, ())  # its one key: both sums zero

    def _bound(self, field: str) -> tuple[str, dict, bool]:
        # The attaining family needs the imaginary unit's orbit in the set.
        return "system", {"n": self.n}, field == QI


Statistic = (
    DetStatistic
    | RankStatistic
    | CharpolyStatistic
    | PowerSumsStatistic
    | EquationStatistic
    | SystemStatistic
)

_KINDS = {cls.kind: cls for cls in get_args(Statistic)}


def statistic_from_json(obj: dict, field: str) -> Statistic:
    """Read a statistic exactly: one that is malformed, has a key that is
    not a field of its kind, or that no matrix or tuple can have (a
    dimension below 1, a rank outside 1..min(m, n), a charpoly of the wrong
    degree), raises GrowthConfigError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GrowthConfigError("statistic needs a 'kind' key")
    kind = obj["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise GrowthConfigError(f"unknown statistic kind {kind!r}")
    from_tight_n = kind == "equation" and "tight_n" in obj
    known = {"kind", "tight_n"} if from_tight_n else {"kind", *(f.name for f in fields(cls))}
    _refuse_unknown_keys(obj, known, f"statistic {kind!r}", GrowthConfigError)
    try:
        if from_tight_n:
            coeffs = tight_equation_coeffs(parse_whole(obj["tight_n"], "tight_n"))
            # As text, the tight pattern is read in the config's field.
            obj = {"coeffs": _json_form(coeffs)}
        return cls(**_read_fields(cls, obj, field))
    except KeyError as exc:
        raise GrowthConfigError(f"statistic {kind!r} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GrowthConfigError(f"statistic {kind!r}: {exc}") from exc


# -- experiment spec and execution --------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    family: FamilyTemplate
    k_values: tuple[int, ...]
    statistic: Statistic
    tolerance: float = 0.2
    budget: int | None = None

    def __post_init__(self):
        # `emit` writes <name>.csv and <name>.json in the output directory.
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise GrowthConfigError(f"experiment name {self.name!r} is not a file name")
        if len(self.k_values) < 3:
            raise GrowthConfigError("need at least 3 k values for a slope fit")
        if any(b >= a for a, b in zip(self.k_values[1:], self.k_values)):
            raise GrowthConfigError("k_values must be strictly increasing")
        if self.k_values[0] < 1:
            raise GrowthConfigError("k values must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise GrowthConfigError(
                f"tolerance must be positive and finite, got {self.tolerance!r}"
            )

    @staticmethod
    def from_json(obj: dict) -> "ExperimentSpec":
        """Read a config exactly: a key that is not a field, any malformed
        key, a family template whose family fails its variant's checks
        (`FamilyTemplate.from_json`), so that no run could materialize it,
        or a statistic with no bound, which could be counted but never
        analyzed, raises GrowthConfigError before any set is built."""
        if not isinstance(obj, dict):
            raise GrowthConfigError("experiment config must be a JSON object")
        known = [f.name for f in fields(ExperimentSpec)]
        _refuse_unknown_keys(obj, known, "experiment config", GrowthConfigError)
        try:
            family = FamilyTemplate.from_json(obj["family"])
            tolerance = obj.get("tolerance", 0.2)
            if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
                raise ValueError(f"tolerance must be a number, got {tolerance!r}")
            budget = obj.get("budget")
            spec = ExperimentSpec(
                name=str(obj.get("name", "experiment")),
                family=family,
                k_values=_READERS["tuple[int, ...]"](obj["k_values"], "k_values", Q),
                statistic=statistic_from_json(obj["statistic"], family.field),
                tolerance=float(tolerance),
                budget=None if budget is None else parse_budget(budget),
            )
        except KeyError as exc:
            raise GrowthConfigError(f"experiment config missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise GrowthConfigError(str(exc)) from exc
        try:
            spec.statistic.exponent_info(family.field)
        except ValueError as exc:
            kind = spec.statistic.kind
            raise GrowthConfigError(f"statistic {kind!r} has no bound: {exc}") from exc
        return spec

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "family": self.family.as_dict(),
            "k_values": list(self.k_values),
            "statistic": self.statistic.to_json(),
            "tolerance": self.tolerance,
        }
        if self.budget is not None:
            out["budget"] = self.budget
        return out


def load_experiment(path: str | Path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentSpec.from_json(json.load(handle))


@dataclass(frozen=True)
class GrowthPoint:
    k: int
    set_size: int
    count: int
    elapsed_us: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    points: tuple[GrowthPoint, ...]
    budget_exceeded: bool


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Exact counts per k, in k order; stops early (with a flag) when a count
    would exceed the budget, which each count charges before it starts.

    The family is materialized once, at the largest k; each k's set is the
    prefix of it that the template's contract names (`FamilyTemplate`)."""
    budget = resolve_budget(spec.budget)
    largest = materialize(spec.family.family_at(spec.k_values[-1]))
    points: list[GrowthPoint] = []
    exceeded = False
    for k in spec.k_values:
        elements = largest.prefix(spec.family.walk_length(k))
        started = time.perf_counter_ns()
        try:
            count = spec.statistic.count(elements, budget)
        except BudgetExceededError:
            exceeded = True
            break
        elapsed_us = (time.perf_counter_ns() - started) // 1000
        points.append(
            GrowthPoint(k=k, set_size=len(elements), count=count, elapsed_us=elapsed_us)
        )
    return ExperimentResult(spec=spec, points=tuple(points), budget_exceeded=exceeded)


# -- slope fitting and verdicts -----------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    used: tuple[tuple[int, int], ...]
    excluded_sizes: tuple[int, ...]


def fit_slope(points) -> SlopeFit:
    """Least squares on (log A, log count); zero-count points are excluded."""
    pairs = [(int(a), int(c)) for a, c in points]
    used = [(a, c) for a, c in pairs if c > 0]
    excluded = tuple(a for a, c in pairs if c <= 0)
    if len(used) < 3:
        raise ValueError(f"need >= 3 positive-count points, have {len(used)}")
    xs = [math.log(a) for a, _ in used]
    ys = [math.log(c) for _, c in used]
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all set sizes equal; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        r2=r2,
        used=tuple(used),
        excluded_sizes=excluded,
    )


def compare(slope: float, exponent: Fraction, tolerance: float, tight: bool) -> str:
    if slope > float(exponent) + tolerance:
        return "upper-violated"
    if tight and slope >= float(exponent) - tolerance:
        return "lower-achieved"
    return "consistent"


@dataclass(frozen=True)
class SlopeReport:
    name: str
    statistic: dict
    family: dict
    field: str
    points: tuple[GrowthPoint, ...]
    fit: SlopeFit
    theoretical: Fraction
    source: str
    tolerance: float
    tight: bool
    verdict: str
    budget_exceeded: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "family": self.family,
            "field": self.field,
            "points": [
                {"k": p.k, "set_size": p.set_size, "count": p.count}
                for p in self.points
            ],
            "excluded_zero_sizes": list(self.fit.excluded_sizes),
            "slope": round(self.fit.slope, 6),
            "intercept": round(self.fit.intercept, 6),
            "r2": round(self.fit.r2, 6),
            "theoretical": str(self.theoretical),
            "source": self.source,
            "tolerance": self.tolerance,
            "tight": self.tight,
            "verdict": self.verdict,
            "budget_exceeded": self.budget_exceeded,
        }


def analyze(result: ExperimentResult) -> SlopeReport:
    spec = result.spec
    fit = fit_slope([(p.set_size, p.count) for p in result.points])
    exponent, source, tight = spec.statistic.exponent_info(spec.family.field)
    verdict = compare(fit.slope, exponent, spec.tolerance, tight)
    return SlopeReport(
        name=spec.name,
        statistic=spec.statistic.to_json(),
        family=spec.family.as_dict(),
        field=spec.family.field,
        points=result.points,
        fit=fit,
        theoretical=exponent,
        source=source,
        tolerance=spec.tolerance,
        tight=tight,
        verdict=verdict,
        budget_exceeded=result.budget_exceeded,
    )


def emit(result: ExperimentResult, report: SlopeReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write <report name>.csv (points, with the timing column) and
    <report name>.json (the report; timing-free, byte-deterministic)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.name}.csv"
    json_path = out / f"{report.name}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "set_size", "count", "elapsed_us"])
        for p in result.points:
            writer.writerow([p.k, p.set_size, p.count, p.elapsed_us])
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, json_path


# -- preconfigured experiments --------------------------------------------------

_LATTICE_23 = {"variant": "lattice_box", "generators": ["2", "3"], "field": Q}

PRESETS: dict[str, dict] = {
    # The three tightness experiments over structured families.
    "rank22-geometric": {
        "name": "rank22-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": list(range(4, 41)),
        "statistic": {"kind": "rank", "m": 2, "n": 2, "r": 1},
        "tolerance": 0.2,
    },
    "det0-3x3-geometric": {
        "name": "det0-3x3-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": {"kind": "det", "n": 3, "target": "0"},
        "tolerance": 0.6,
    },
    "charpoly-t2-signed": {
        "name": "charpoly-t2-signed",
        "family": {"variant": "signed_geometric", "base": "2"},
        "k_values": list(range(4, 41)),
        "statistic": {"kind": "charpoly", "n": 2, "coeffs": ["0", "0"]},
        "tolerance": 0.2,
    },
    # Companions over structured families (not part of the lattice ten).
    "det0-2x2-geometric": {
        "name": "det0-2x2-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": list(range(4, 41)),
        "statistic": {"kind": "det", "n": 2, "target": "0"},
        "tolerance": 0.2,
    },
    "powersums2-signed": {
        "name": "powersums2-signed",
        "family": {"variant": "signed_geometric", "base": "2"},
        "k_values": list(range(4, 41)),
        "statistic": {"kind": "powersums", "n": 2, "t1": "0", "t2": "0"},
        "tolerance": 0.2,
    },
    "system4-units": {
        "name": "system4-units",
        "family": {"variant": "gaussian_units_scaled", "scale_base": "2"},
        "k_values": list(range(4, 25, 2)),
        "statistic": {"kind": "system", "n": 4},
        "tolerance": 0.2,
    },
    "equation-tight2-geometric": {
        "name": "equation-tight2-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": list(range(4, 41, 4)),
        "statistic": {"kind": "equation", "tight_n": 2},
        "tolerance": 0.2,
    },
    "equation-tight3-geometric": {
        "name": "equation-tight3-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": list(range(4, 41, 4)),
        "statistic": {"kind": "equation", "tight_n": 3},
        "tolerance": 0.2,
    },
    "equation-tight4-geometric": {
        "name": "equation-tight4-geometric",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": list(range(4, 41, 4)),
        "statistic": {"kind": "equation", "tight_n": 4},
        "tolerance": 0.2,
    },
    # The ten lattice-box experiments (seeded samples from exponent boxes).
    # Boxes are kept large relative to the sample sizes: a sample that fills
    # most of a small box measures a fill-in transient, not the growth rate.
    "lattice-rank22": {
        "name": "lattice-rank22",
        "family": {**_LATTICE_23, "ranges": [[0, 6], [0, 4]], "seed": 11},
        "k_values": [8, 12, 16, 20, 24, 28],
        "statistic": {"kind": "rank", "m": 2, "n": 2, "r": 1},
        "tolerance": 0.2,
    },
    "lattice-det0-2x2": {
        "name": "lattice-det0-2x2",
        "family": {**_LATTICE_23, "ranges": [[0, 11], [0, 7]], "seed": 22},
        "k_values": [8, 12, 16, 20, 25, 30],
        "statistic": {"kind": "det", "n": 2, "target": "0"},
        "tolerance": 0.2,
    },
    "lattice-det0-2x2-gaussian": {
        "name": "lattice-det0-2x2-gaussian",
        "family": {
            "variant": "lattice_box",
            "generators": ["i", "1+i"],
            "ranges": [[0, 3], [0, 19]],
            "seed": 33,
            "field": QI,
        },
        "k_values": [10, 14, 18, 22, 26, 30],
        "statistic": {"kind": "det", "n": 2, "target": "0"},
        "tolerance": 0.2,
    },
    "lattice-equation2": {
        "name": "lattice-equation2",
        "family": {
            "variant": "lattice_box",
            "generators": ["2"],
            "ranges": [[0, 40]],
            "seed": 44,
            "field": Q,
        },
        "k_values": [6, 10, 14, 18, 22, 26],
        "statistic": {"kind": "equation", "tight_n": 2},
        "tolerance": 0.2,
    },
    "lattice-equation3": {
        "name": "lattice-equation3",
        "family": {**_LATTICE_23, "ranges": [[0, 30], [0, 20]], "seed": 55},
        "k_values": [8, 12, 16, 20, 26, 32],
        "statistic": {"kind": "equation", "tight_n": 3},
        "tolerance": 0.2,
    },
    "lattice-equation4": {
        "name": "lattice-equation4",
        "family": {**_LATTICE_23, "ranges": [[0, 15], [0, 11]], "seed": 66},
        "k_values": [8, 12, 16, 20, 26, 32],
        "statistic": {"kind": "equation", "tight_n": 4},
        "tolerance": 0.2,
    },
    "lattice-equation4-gaussian": {
        "name": "lattice-equation4-gaussian",
        "family": {
            "variant": "lattice_box",
            "generators": ["i", "1+i"],
            "ranges": [[0, 3], [0, 25]],
            "seed": 77,
            "field": QI,
        },
        "k_values": [8, 12, 16, 20, 26, 32],
        "statistic": {"kind": "equation", "tight_n": 4},
        "tolerance": 0.2,
    },
    "lattice-rank33": {
        "name": "lattice-rank33",
        "family": {**_LATTICE_23, "ranges": [[0, 4], [0, 3]], "seed": 88},
        "k_values": [4, 5, 6, 7, 8],
        "statistic": {"kind": "rank", "m": 3, "n": 3, "r": 1},
        "tolerance": 0.6,
    },
    "lattice-equation5": {
        "name": "lattice-equation5",
        "family": {
            "variant": "lattice_box",
            "generators": ["2"],
            "ranges": [[0, 200]],
            "seed": 99,
            "field": Q,
        },
        "k_values": [6, 9, 12, 15, 18, 22],
        "statistic": {"kind": "equation", "tight_n": 5},
        "tolerance": 0.2,
    },
    "lattice-equation6": {
        "name": "lattice-equation6",
        "family": {**_LATTICE_23, "ranges": [[0, 30], [0, 20]], "seed": 110},
        "k_values": [8, 12, 16, 20, 24, 28],
        "statistic": {"kind": "equation", "tight_n": 6},
        "tolerance": 0.35,
    },
}

def preset(name: str) -> ExperimentSpec:
    try:
        config = PRESETS[name]
    except KeyError:
        raise GrowthConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return ExperimentSpec.from_json(config)


def list_presets() -> list[str]:
    return sorted(PRESETS)
