"""The four benchmark workloads, built from a seed.

Each workload is a fixed list of jobs run in a closed loop: one client, one
process, the next job only after the previous one returns.  A job is one call
into the program (the timed part) plus two untimed checks of what it gave:

* invariants that hold for every seed (histogram mass, the rank/det
  cross-check, audit `passed`, classify total == count, chunked == unchunked,
  no upper-bound violation), and
* a pinned answer recorded at the default seed in `expected.json`.  A job
  whose input does not depend on the seed is held to its pin on every seed;
  a seeded job only on the default seed.

The seed permutes the order of every element set (no answer depends on it),
draws the two-element sets of the generic charpoly sweeps and seeds the minor
audit.  Set sizes and shapes never depend on the seed, so neither does the
work per run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from unitcount import cli, equations, growth, matrices, minors
from unitcount.families import (
    ElementSet,
    GaussianUnitsScaled,
    Geometric,
    materialize,
    tight_equation_coeffs,
)
from unitcount.matrices import SweepOptions
from unitcount.scalars import Q, QI, Scalar, parse_scalar

DEFAULT_SEED = 0
WORKLOADS = ("growth-presets", "sweep-kernel", "exact-generic", "equations-mitm")

# Presets whose shipped k_values take far longer than one run allows.  The
# replacements keep the family, statistic, tolerance and shards, and keep the
# 3x3 kernel sweeps the largest share of the pass, as in the shipped list.
GROWTH_K_VALUES = {
    "det0-3x3-geometric": [1, 2, 3],
    "lattice-rank33": [4, 5, 6, 7],
    "rank22-geometric": list(range(4, 29)),
    "det0-2x2-geometric": list(range(4, 29)),
    "charpoly-t2-signed": list(range(4, 29)),
    "powersums2-signed": list(range(4, 29)),
    "lattice-equation6": [8, 12, 16, 20, 24],
    "system4-units": list(range(4, 21, 2)),
}


@dataclass
class Job:
    """One call into the program and the untimed checks of its output.

    `check` raises AssertionError on a broken invariant; it may return a dict
    of counts (such as CSV rows) for the traced run."""

    name: str
    run: Callable[[], object]
    answer: Callable[[object], str]
    check: Callable[[object], None]
    seeded: bool = False


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: Callable[[], object]
    # Results of earlier jobs in the pass, for cross-job invariants.
    results: dict = field(default_factory=dict)


def answer_digest(text: str) -> str:
    """The pinned form of an answer: itself when short, else its sha256."""
    if len(text) <= 200:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _shuffled(elements: ElementSet, rng: random.Random) -> ElementSet:
    values = list(elements)
    rng.shuffle(values)
    return ElementSet(tuple(values))


def _geometric(base: str, start: int, stop: int, field: str = Q) -> ElementSet:
    return materialize(Geometric(parse_scalar(base, field), start, stop))


def _explicit(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


# -- shared checks ---------------------------------------------------------------


def _sweep_text(hist: matrices.SweepHistogram) -> str:
    return "".join(f"{s},{k},{c}\n" for s, k, c in hist.csv_rows())


def _check_csv_text(text: str, size: int, m: int, n: int) -> int:
    """Mass of every statistic == size^(m*n) and, for square sweeps with rank
    and det, full rank == nonsingular.  Returns the number of data rows."""
    rows = list(csv.reader(io.StringIO(text)))
    _expect(rows and rows[0] == ["statistic", "key", "count"], "bad CSV header")
    mass: dict[str, int] = {}
    for statistic, key, count in rows[1:]:
        mass[statistic] = mass.get(statistic, 0) + int(count)
    total = size ** (m * n)
    for statistic, value in mass.items():
        _expect(value == total, f"{statistic} mass {value} != {total}")
    if m == n and "rank" in mass and "det" in mass:
        full = sum(int(c) for s, k, c in rows[1:] if s == "rank" and k == str(n))
        singular = sum(int(c) for s, k, c in rows[1:] if s == "det" and k == "0")
        _expect(full == total - singular, "rank/det cross-check failed")
    return len(rows) - 1


# -- growth-presets ----------------------------------------------------------------


def _growth_jobs(out_dir: Path, tiny: bool) -> list[Job]:
    jobs = []
    for name in growth.list_presets():
        config = dict(growth.PRESETS[name])
        k_values = GROWTH_K_VALUES.get(name, config["k_values"])
        config["k_values"] = k_values[:3] if tiny else k_values
        spec = growth.ExperimentSpec.from_json(config)
        # Parse-time materialization of every set the experiment will use.
        for k in spec.k_values:
            materialize(spec.family.family_at(k))

        def run(spec=spec):
            result = growth.run_experiment(spec)
            report = growth.analyze(result)
            growth.emit(result, report, out_dir)
            return result, report

        def answer(value, name=name):
            return (out_dir / f"{name}.json").read_text(encoding="utf-8")

        def check(value, spec=spec):
            result, report = value
            _expect(not result.budget_exceeded, "budget exceeded")
            _expect(len(result.points) == len(spec.k_values), "missing points")
            _expect(report.verdict != "upper-violated", "slope beats the bound")

        jobs.append(Job(f"growth:{name}", run, answer, check))
    return jobs


def _growth_workload(seed: int, out_dir: Path, tiny: bool) -> Workload:
    warm = growth.ExperimentSpec.from_json(growth.PRESETS["lattice-rank22"])
    return Workload(
        "growth-presets",
        _growth_jobs(out_dir, tiny),
        warmup=lambda: growth.analyze(growth.run_experiment(warm)),
    )


# -- sweep-kernel ------------------------------------------------------------------


def _write_set(path: Path, elements: ElementSet) -> str:
    path.write_text(json.dumps(
        {"field": elements.field, "elements": [v.text() for v in elements]}
    ), encoding="utf-8")
    return str(path)


def _cli_sweep_job(
    name: str, elements: ElementSet, m: int, n: int, stats: str, out_dir: Path
) -> Job:
    set_path = _write_set(out_dir / f"{name}.set.json", elements)
    csv_path = out_dir / f"{name}.csv"
    argv = ["sweep", "--set", set_path, "-m", str(m), "-n", str(n),
            "--stats", stats, "--out", str(csv_path)]

    def answer(code):
        return csv_path.read_text(encoding="utf-8")

    def check(code):
        _expect(code == 0, f"cli exit code {code}")
        text = csv_path.read_text(encoding="utf-8")
        return {"csv_rows": _check_csv_text(text, len(elements), m, n)}

    return Job(f"cli:{name}", lambda: cli.main(argv), answer, check)


def _sweep_kernel_workload(seed: int, out_dir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    small = _shuffled(_explicit(["1", "-1", "2"] if tiny else ["1", "-1", "2", "3"]), rng)
    dets = _shuffled(_geometric("2", 1, 3 if tiny else 6), rng)
    wide = _shuffled(_geometric("2", 1, 4 if tiny else 20), rng)
    jobs = [
        _cli_sweep_job("charpoly3", small, 3, 3, "charpoly,powersums", out_dir),
        _cli_sweep_job("rankdet3", dets, 3, 3, "rank,det", out_dir),
        _cli_sweep_job("all2", wide, 2, 2, "rank,det,charpoly,powersums", out_dir),
    ]
    warm = _cli_sweep_job("warmup", _explicit(["1", "2"]), 2, 2,
                          "rank,det,charpoly,powersums", out_dir)
    return Workload("sweep-kernel", jobs, warmup=warm.run)


# -- exact-generic -----------------------------------------------------------------


def _sweep_job(name: str, elements: ElementSet, n: int, opts: SweepOptions,
               seeded: bool = False) -> Job:
    return Job(
        f"sweep:{name}",
        lambda: matrices.sweep(elements, n, n, opts),
        _sweep_text,
        matrices.SweepHistogram.validate,
        seeded,
    )


def _audit_job(name: str, elements: ElementSet, n: int, trials: int, seed: int) -> Job:
    def check(summary):
        _expect(summary.passed, "audit failed")
        _expect(summary.samples == trials, "audit sample count")

    return Job(
        f"audit:{name}",
        lambda: minors.audit_prop_zero_cofactors(elements, n, trials, seed),
        lambda summary: json.dumps(summary.to_json(), sort_keys=True),
        check,
        seeded=True,
    )


def _exact_generic_workload(seed: int, out_dir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    rank_det = SweepOptions()
    with_charpoly = SweepOptions(charpoly=True)
    jobs = [
        _sweep_job("qi-3x3", _shuffled(_geometric("1+i", 1, 2 if tiny else 3, QI), rng),
                   3, rank_det),
    ]
    # Entries up to 2^b with b >= 21 are just past the 3x3 int64 proof, so the
    # sweep falls back to Python Bareiss and exact charpoly interpolation.
    exponents = [(a, b) for a in range(4) for b in range(21, 25)]
    for j, (a, b) in enumerate(rng.sample(exponents, 2 if tiny else 10)):
        pair = _shuffled(_explicit([f"2^{a}", f"2^{b}"]), rng)
        jobs.append(_sweep_job(f"fallback-3x3-{j}", pair, 3, with_charpoly, seeded=True))
    jobs.append(_sweep_job("q-4x4", _shuffled(_explicit(["2", "4"]), rng),
                           3 if tiny else 4, rank_det))
    trials = 20 if tiny else 500
    audit_seed = rng.randrange(1 << 30)
    jobs.append(_audit_job("q-n4", _geometric("2", 0, 5), 4, trials, audit_seed))
    jobs.append(_audit_job("qi-n4", _geometric("1+i", 0, 5, QI), 4, trials, audit_seed + 1))
    warm_set = _explicit(["1", "1+i"], QI)
    return Workload(
        "exact-generic", jobs, warmup=lambda: matrices.sweep(warm_set, 2, 2, with_charpoly)
    )


# -- equations-mitm ----------------------------------------------------------------


def _count_job(name: str, eq, elements: ElementSet, results: dict, **kwargs) -> Job:
    def run():
        value = equations.count_solutions(eq, elements, **kwargs)
        results[name] = value
        return value

    return Job(f"count:{name}", run, str, lambda value: None)


def _equations_workload(seed: int, out_dir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    results: dict = {}
    zero = Scalar.zero(Q)
    eq6 = equations.EquationSpec(tight_equation_coeffs(6), zero)
    # Inhomogeneous, so solutions split over several vanishing subsets,
    # including the nondegenerate class; 1 is in the set so some exist.
    one = Scalar.one(Q)
    eq4 = equations.EquationSpec((one, one, -one, -one), parse_scalar("3"))
    big = _shuffled(_geometric("2", 1, 12 if tiny else 40), rng)
    mid = _shuffled(_geometric("2", 1, 8 if tiny else 24), rng)
    # A table cap below mid^3 entries forces one prefix chunk per element.
    cap = 100 if tiny else 1000
    units = _shuffled(materialize(GaussianUnitsScaled(
        tuple(parse_scalar("2", QI) ** s for s in range(2 if tiny else 8))
    )), rng)
    small = _shuffled(_geometric("2", 0, 6 if tiny else 17), rng)

    chunked = _count_job("n6-chunked", eq6, mid, results, max_entries=cap)

    def check_chunked(value):
        _expect(value == results["n6-mid"], "chunked count != unchunked count")

    chunked.check = check_chunked

    def classify():
        return equations.classify_by_vanishing_subsums(eq4, small)

    def check_classify(value):
        _expect(sum(value.classes.values()) == value.total, "class counts != total")
        _expect(value.total == results["n4-small"], "classify total != count")

    def classify_answer(value):
        return json.dumps(
            {",".join(map(str, k)): c for k, c in sorted(value.classes.items())}
        )

    jobs = [
        _count_job("n6-big", eq6, big, results),
        _count_job("n6-mid", eq6, mid, results),
        chunked,
        Job("system:n6-units",
            lambda: equations.count_system_sum_squares(6, units), str, lambda v: None),
        _count_job("n4-small", eq4, small, results),
        Job("classify:n4-small", classify, classify_answer, check_classify),
    ]
    warm_set = _explicit(["1", "2"])
    return Workload(
        "equations-mitm", jobs, warmup=lambda: equations.count_solutions(eq4, warm_set),
        results=results,
    )


_BUILDERS = {
    "growth-presets": _growth_workload,
    "sweep-kernel": _sweep_kernel_workload,
    "exact-generic": _exact_generic_workload,
    "equations-mitm": _equations_workload,
}


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Materialize every input of one workload and run its warm-up call."""
    workload = _BUILDERS[name](seed, out_dir, tiny)
    workload.warmup()
    return workload
