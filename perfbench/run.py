"""Benchmark of unitcount's exact counting routes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-kernel --seed 0 --seconds 25 --trace 0

One run is one fresh process and one closed-loop client.  It builds the
workload's inputs from the seed, then runs the job list again and again until
`--seconds` is used up, checking every answer of every pass.  The last line of
standard output is one JSON object:

* `--trace 0`: setup_s, wall_s, cpu_s and peak_rss_mb.  wall_s and cpu_s are
  medians over passes, setup_s the median over several set-ups, each in a
  fresh interpreter; all three are in calibrated seconds (calibrate.py), and
  the raw seconds are printed on the lines before.  `attempted` and `failed`
  count jobs; `failed` is the jobs_failed metric.
* `--trace 1`: the per-layer metrics, from job calls run with the layer
  wrappers of `spans.py` installed, each right after the same call without
  them, so that the tracing overhead is measured too.  Their seconds are calibrated seconds as well
  (each traced pass scaled by its own calibration).  The spans, in raw
  nanoseconds, are written to `perfbench/out/`.

The program is imported from `src/` of the same checkout and nowhere else;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import os

# One process, no worker threads: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SETUP_REPS = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import unitcount from this checkout's src/, or exit 2."""
    if not (SRC / "unitcount" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import unitcount

    if Path(unitcount.__file__).resolve().parent != SRC / "unitcount":
        print(f"error: unitcount imported from {unitcount.__file__}", file=sys.stderr)
        raise SystemExit(2)


_import_program()

import calibrate  # noqa: E402
import spans  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402


def metric_unit(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("growth.point_s."):
        return "s"
    if name.endswith(("_ratio", "per_matrix")):
        return "ratio"
    return "count"


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def _timed_call(job, tracer):
    """(value, wall seconds, cpu seconds) of one job call; with a tracer, the
    call runs with the layer wrappers installed, inside a bench.job span."""
    if tracer is None:
        c0, t0 = _cpu(), time.perf_counter()
        value = job.run()
        return value, time.perf_counter() - t0, _cpu() - c0
    rec = tracer.rec
    with tracer.installed():
        idx = rec.begin(rec.intern("bench.job"))
        c0, t0 = _cpu(), time.perf_counter()
        try:
            value = job.run()
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            rec.finish(idx)
    return value, wall, cpu


class PassTimes:
    """Raw and calibrated seconds of the job calls of one pass."""

    def __init__(self):
        self.wall = self.cpu = self.cal_wall = self.cal_cpu = 0.0


def _run_job(job, workload, pins, seed, tally, times, cal, tracer, job_times):
    """Run one job, add its seconds to `times` and check its answer.  Checks
    run outside the timed region and outside the layer wrappers; a failed
    check or an exception counts one failed job."""
    tally.attempted += 1
    try:
        before = cal.sample() if cal else 0.0
        value, wall, cpu = _timed_call(job, tracer)
        factor = cal.factor(before, cal.sample()) if cal else 1.0
        times.wall += wall
        times.cpu += cpu
        times.cal_wall += wall * factor
        times.cal_cpu += cpu * factor
        if job_times is not None:
            job_times.setdefault(job.name, []).append(wall * factor)
        counts = job.check(value)
        if pins is not None and (not job.seeded or seed == workloads.DEFAULT_SEED):
            got = workloads.answer_digest(job.answer(value))
            want = pins.get(job.name)
            if got != want:
                raise AssertionError(f"answer {got[:60]!r} != pinned {str(want)[:60]!r}")
        if tracer and counts:
            for key, amount in counts.items():
                tracer.rec.count(key, amount)
    except Exception as exc:  # every failure is counted, none is skipped
        tally.failed += 1
        tally.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")


def run_pass(workload, pins, seed, tally, *, cal=None, tracer=None, job_times=None):
    """Run every job once; returns (plain, traced) PassTimes.  With a tracer,
    each job runs twice in a row, with and without the layer wrappers, so
    both timings see the same machine state.  A job runs faster the second
    time (its data is still in cache), so which run goes first alternates
    from job to job and from pass to pass.  With a Calibrator, its loop is
    timed just before and just after each job."""
    workload.results.clear()
    plain, traced = PassTimes(), PassTimes()
    for i, job in enumerate(workload.jobs):
        runs = [(plain, None, job_times)]
        if tracer:
            runs.append((traced, tracer, None))
            if (i + tracer.rec.run_id) % 2:
                runs.reverse()
        for times, job_tracer, times_by_job in runs:
            _run_job(job, workload, pins, seed, tally, times, cal, job_tracer, times_by_job)
    return plain, traced


def _child_setup(name: str, seed: int, cal) -> tuple[float, float]:
    """Raw and calibrated wall seconds of one set-up in a fresh interpreter,
    interpreter start and imports included."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    before = cal.sample()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
    raw = time.perf_counter() - t0
    return raw, raw * cal.factor(before, cal.sample())


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(name: str, seed: int, seconds: float, trace_on: bool, *,
            tiny: bool = False, setup_reps: int = SETUP_REPS,
            pins: dict | None = None, spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result object the CLI prints last.

    Pinned answers come from `pins` (job name -> digest), by default the
    recorded ones; a tiny run checks invariants only.  With setup_reps=0 the
    set-up of this process stands in for the fresh-interpreter set-ups."""
    if pins is None and not tiny:
        pins = load_expected()["jobs"][name]
    cal = calibrate.Calibrator()
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setups = [] if trace_on else [_child_setup(name, seed, cal) for _ in range(setup_reps)]
        before = cal.sample()
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, work_dir, tiny)
        if not setups:
            raw = time.perf_counter() - t0
            setups.append((raw, raw * cal.factor(before, cal.sample())))
        tally = Tally()
        if trace_on:
            metrics, notes = _traced_passes(workload, pins, seed, seconds, tally, spans_path, cal)
        else:
            metrics, notes = _plain_passes(workload, pins, seed, seconds, tally, setups, cal)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
        "notes": notes,
        "errors": tally.errors,
    }


def _until(seconds: float, step) -> None:
    """Call step() at least once, then again while one more call is expected
    to end within `seconds` of the start."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _plain_passes(workload, pins, seed, seconds, tally, setups, cal):
    passes: list[PassTimes] = []
    job_times: dict[str, list[float]] = {}
    _until(seconds, lambda: passes.append(
        run_pass(workload, pins, seed, tally, cal=cal, job_times=job_times)[0]))
    series = {
        "setup_s": [cal_s for _, cal_s in setups],
        "wall_s": [p.cal_wall for p in passes],
        "cpu_s": [p.cal_cpu for p in passes],
        "raw_setup_s": [raw for raw, _ in setups],
        "raw_wall_s": [p.wall for p in passes],
        "raw_cpu_s": [p.cpu for p in passes],
    }
    metrics = {key: statistics.median(series[key]) for key in ("setup_s", "wall_s", "cpu_s")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "passes": len(passes),
        "setups": len(setups),
        "quartiles": {key: _quartiles(values) for key, values in series.items()},
        "job_median_s": {k: statistics.median(v) for k, v in job_times.items()},
    }
    return metrics, notes


def _traced_passes(workload, pins, seed, seconds, tally, spans_path, cal):
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    plain, traced, per_pass = [], [], []

    def step():
        rec.new_pass(len(traced))
        untraced, times = run_pass(workload, pins, seed, tally, cal=cal, tracer=tracer)
        plain.append(untraced.cal_wall)
        traced.append(times.cal_wall)
        scale = times.cal_wall / times.wall if times.wall else 1.0
        per_pass.append(spans.layer_metrics(rec, len(traced) - 1, scale))

    _until(seconds, step)
    metrics = spans.median_metrics(per_pass)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    if spans_path is not None:
        rec.write(spans_path)
    return metrics, {"passes": len(traced), "spans_file": str(spans_path)}


def _print_human(name: str, seed: int, result: dict) -> None:
    notes = result["notes"]
    print(f"workload {name} seed {seed}: {notes['passes']} passes, "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'jobs_failed':34s} {result['failed']:>16d} count")
    for key, (q1, med, q3) in notes.get("quartiles", {}).items():
        print(f"  {key:34s} q1={q1:.4f} median={med:.4f} q3={q3:.4f} s")
    for job, seconds in notes.get("job_median_s", {}).items():
        print(f"  job {job:44s} {seconds:.4f} s calibrated")
    for error in result["errors"][:20]:
        print(f"FAILED {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload once and exit (times set-up)")
    args = parser.parse_args(argv)

    if args.setup_only:
        OUT.mkdir(parents=True, exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            workloads.build(args.workload, args.seed, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=spans_path if args.trace else None)
    _print_human(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
