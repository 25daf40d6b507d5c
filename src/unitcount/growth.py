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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import bounds
# count_solutions, count_system_sum_squares and materialize are imported by
# name: perfbench/spans.py wraps them on this module.
from .equations import EquationSpec, count_solutions, count_system_sum_squares
from .families import ElementSet, FamilyTemplate, materialize, tight_equation_coeffs
from .matrices import (
    BudgetExceededError,
    CharPolyKey,
    CountRoute,
    _charged,
    count_charpoly,
    count_det,
    count_power_sums,
    count_rank,
    parse_budget,
    resolve_budget,
)
# Re-exported: perfbench/spans.py wraps these names on this module.
from .matrices import fast_charpoly2_count, fast_det2_count, fast_power_sums2_count  # noqa: F401
from .scalars import Q, QI, Scalar, parse_list, parse_scalar, parse_whole


class GrowthConfigError(ValueError):
    """Raised for malformed experiment configuration."""


# -- statistics ---------------------------------------------------------------
#
# Matrix statistics delegate route choice, work and budget to the count
# planner in `matrices`; the equation and system statistics charge their
# meet-in-the-middle table, A^ceil(n/2), the same way before they count.


@dataclass(frozen=True)
class DetStatistic:
    n: int
    target: Scalar

    def to_json(self) -> dict:
        return {"kind": "det", "n": self.n, "target": self.target.text()}

    def count(self, elements: ElementSet, budget: int) -> int:
        return count_det(elements, self.n, self.target, budget=budget)

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        ev = bounds.det_exponent(self.n, self.target.is_zero())
        tight = self.target.is_zero() and self.n in (2, 3)
        return ev.value, ev.source, tight


@dataclass(frozen=True)
class RankStatistic:
    m: int
    n: int
    r: int
    cumulative: bool = True

    def to_json(self) -> dict:
        return {
            "kind": "rank",
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "cumulative": self.cumulative,
        }

    def count(self, elements: ElementSet, budget: int) -> int:
        return count_rank(
            elements, self.m, self.n, self.r, cumulative=self.cumulative, budget=budget
        )

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        wide, narrow = max(self.m, self.n), min(self.m, self.n)
        ev = bounds.rank_exponent(wide, narrow, self.r)
        coincide = 2 * narrow <= wide + self.r or self.r <= 2
        tight = coincide and (self.cumulative or self.r == 1)
        return ev.value, ev.source, tight


@dataclass(frozen=True)
class CharpolyStatistic:
    n: int
    key: CharPolyKey

    def to_json(self) -> dict:
        return {
            "kind": "charpoly",
            "n": self.n,
            "coeffs": [c.text() for c in self.key.coeffs],
        }

    def count(self, elements: ElementSet, budget: int) -> int:
        return count_charpoly(elements, self.n, self.key, budget=budget)

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        coeffs = self.key.coeffs
        if self.n == 2:
            det_zero = coeffs[0].is_zero()
            trace_zero = coeffs[1].is_zero()
            ev = bounds.charpoly2_bound(det_zero, trace_zero)
            return ev.value, ev.source, det_zero and trace_zero
        c1 = coeffs[self.n - 1]
        c2 = coeffs[self.n - 2]
        ev = bounds.best_charpoly_exponent(
            self.n,
            c1_zero=c1.is_zero(),
            c2_zero=c2.is_zero(),
            field_real=field == Q,
            twice_c2_equals_c1=(c2 + c2) == c1,
            constant_term_zero=coeffs[0].is_zero(),
        )
        return ev.value, ev.source, False


@dataclass(frozen=True)
class PowerSumsStatistic:
    n: int
    t1: Scalar
    t2: Scalar

    def to_json(self) -> dict:
        return {
            "kind": "powersums",
            "n": self.n,
            "t1": self.t1.text(),
            "t2": self.t2.text(),
        }

    def count(self, elements: ElementSet, budget: int) -> int:
        return count_power_sums(elements, self.n, self.t1, self.t2, budget=budget)

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        trace_zero = self.t1.is_zero()
        second_zero = (self.t1 * self.t1) == self.t2
        if self.n == 2:
            # Fixing (t1, t2) fixes the full 2x2 charpoly.
            ev = bounds.charpoly2_bound(second_zero, trace_zero)
            return ev.value, ev.source, trace_zero and second_zero
        twice = (self.t1 * self.t1 - self.t2) == -self.t1
        ev = bounds.best_charpoly_exponent(
            self.n,
            c1_zero=trace_zero,
            c2_zero=second_zero,
            field_real=field == Q,
            twice_c2_equals_c1=twice,
            include_det_route=False,
        )
        return ev.value, ev.source, False


@dataclass(frozen=True)
class EquationStatistic:
    eq: EquationSpec

    def to_json(self) -> dict:
        return {
            "kind": "equation",
            "coeffs": [c.text() for c in self.eq.coeffs],
            "rhs": self.eq.rhs.text(),
        }

    def count(self, elements: ElementSet, budget: int) -> int:
        _charged(CountRoute("mitm", len(elements) ** ((self.eq.n + 1) // 2)), budget)
        return count_solutions(self.eq, elements)

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        homogeneous = self.eq.is_homogeneous()
        ev = bounds.equation_exponent(self.eq.n, homogeneous)
        tight = homogeneous and self._matches_tight_pattern()
        return ev.value, ev.source, tight

    def _matches_tight_pattern(self) -> bool:
        n = self.eq.n
        if n < 2:
            return False
        pattern = tight_equation_coeffs(n)
        mine = self.eq.coeffs
        return all(
            a.den == b.den and a.re == b.re and a.im == 0
            for a, b in zip(mine, pattern)
        )


@dataclass(frozen=True)
class SystemStatistic:
    n: int

    def to_json(self) -> dict:
        return {"kind": "system", "n": self.n}

    def count(self, elements: ElementSet, budget: int) -> int:
        _charged(CountRoute("mitm", len(elements) ** ((self.n + 1) // 2)), budget)
        return count_system_sum_squares(self.n, elements)

    def exponent_info(self, field: str) -> tuple[Fraction, str, bool]:
        ev = bounds.system_bound_exponent(self.n)
        # The attaining family needs the imaginary unit's orbit in the set.
        return ev.value, ev.source, field == QI


Statistic = (
    DetStatistic
    | RankStatistic
    | CharpolyStatistic
    | PowerSumsStatistic
    | EquationStatistic
    | SystemStatistic
)


def _dimension(obj: dict, key: str) -> int:
    """obj[key] as a matrix dimension or equation length: a whole number >= 1."""
    value = parse_whole(obj[key], key)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def statistic_from_json(obj: dict, field: str) -> Statistic:
    """Read a statistic exactly: one that is malformed, or that no matrix or
    tuple can have (a dimension below 1, a rank outside 1..min(m, n), a
    charpoly of the wrong degree), raises GrowthConfigError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GrowthConfigError("statistic needs a 'kind' key")
    kind = obj["kind"]
    try:
        if kind == "det":
            return DetStatistic(
                n=_dimension(obj, "n"), target=parse_scalar(obj["target"], field)
            )
        if kind == "rank":
            cumulative = obj.get("cumulative", True)
            if not isinstance(cumulative, bool):
                raise ValueError(f"cumulative must be a boolean, got {cumulative!r}")
            m, n = _dimension(obj, "m"), _dimension(obj, "n")
            r = parse_whole(obj["r"], "r")
            if not 1 <= r <= min(m, n):
                raise ValueError(f"rank {r} impossible for a {m}x{n} matrix")
            return RankStatistic(m=m, n=n, r=r, cumulative=cumulative)
        if kind == "charpoly":
            n = _dimension(obj, "n")
            coeffs = parse_list(obj["coeffs"], "coeffs")
            if len(coeffs) != n:
                raise ValueError(f"{len(coeffs)} coeffs for a degree-{n} charpoly")
            key = CharPolyKey(tuple(parse_scalar(c, field) for c in coeffs))
            return CharpolyStatistic(n=n, key=key)
        if kind == "powersums":
            return PowerSumsStatistic(
                n=_dimension(obj, "n"),
                t1=parse_scalar(obj["t1"], field),
                t2=parse_scalar(obj["t2"], field),
            )
        if kind == "equation":
            if "tight_n" in obj:
                n = parse_whole(obj["tight_n"], "tight_n")
                coeffs = tight_equation_coeffs(n)
                if field != Q:
                    coeffs = tuple(Scalar(field, c.re, 0, c.den) for c in coeffs)
                rhs = Scalar.zero(field)
            else:
                coeffs = tuple(parse_scalar(c, field) for c in parse_list(obj["coeffs"], "coeffs"))
                rhs = parse_scalar(obj.get("rhs", "0"), field)
            return EquationStatistic(eq=EquationSpec(coeffs=coeffs, rhs=rhs))
        if kind == "system":
            return SystemStatistic(n=_dimension(obj, "n"))
    except KeyError as exc:
        raise GrowthConfigError(f"statistic {kind!r} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GrowthConfigError(f"statistic {kind!r}: {exc}") from exc
    raise GrowthConfigError(f"unknown statistic kind {kind!r}")


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
        """Read a config exactly: any malformed key, the family's included,
        raises GrowthConfigError."""
        if not isinstance(obj, dict):
            raise GrowthConfigError("experiment config must be a JSON object")
        try:
            family = FamilyTemplate.from_json(obj["family"])
            tolerance = obj.get("tolerance", 0.2)
            if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
                raise ValueError(f"tolerance must be a number, got {tolerance!r}")
            budget = obj.get("budget")
            return ExperimentSpec(
                name=str(obj.get("name", "experiment")),
                family=family,
                k_values=tuple(
                    parse_whole(k, "k") for k in parse_list(obj["k_values"], "k_values")
                ),
                statistic=statistic_from_json(obj["statistic"], family.field),
                tolerance=float(tolerance),
                budget=None if budget is None else parse_budget(budget),
            )
        except KeyError as exc:
            raise GrowthConfigError(f"experiment config missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise GrowthConfigError(str(exc)) from exc

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

LATTICE_PRESET_NAMES = tuple(name for name in PRESETS if name.startswith("lattice-"))
TIGHTNESS_PRESET_NAMES = (
    "rank22-geometric",
    "det0-3x3-geometric",
    "charpoly-t2-signed",
)


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
