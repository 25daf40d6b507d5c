"""Command-line entry point.

Subcommands: count, sweep, bound, family, growth, audit, equation.  Every run
is determined by the invocation plus its input files; timing appears only in
clearly marked columns.  Exit codes: 0 success, 1 domain error, 2 budget
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import growth as growth_mod
from .bounds import bound_table, nondegenerate_cap_log10
from .equations import (
    DEFAULT_MAX_ENTRIES,
    classify_by_vanishing_subsums,
    count_solutions,
    count_system_sum_squares,
    load_equation,
)
from .families import load_set, set_to_json
from .matrices import (
    BudgetExceededError,
    SweepOptions,
    parse_budget,
    sweep,
)
from .minors import audit_prop_zero_cofactors
from .scalars import int_text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser: options by full name only, usage problems exit 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _flags(args, *words: str) -> dict:
    """The parsed options less `words`, the subcommand and its handler."""
    skip = ("command", "handler", *words)
    return {key: value for key, value in vars(args).items() if key not in skip}


# -- count ---------------------------------------------------------------------


def _cmd_count(args) -> int:
    """Read the statistic from the parsed flags, each of which is named
    after its key in a growth config, and run its count."""
    elements = load_set(args.set)
    obj = _flags(args, "set", "budget")
    statistic = growth_mod.statistic_from_json(obj, elements.field)
    print(int_text(statistic.count(elements, args.budget)))
    return 0


# -- sweep ---------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    elements = load_set(args.set)
    # The statistics are the switches of SweepOptions, every field but the budget.
    names = tuple(f.name for f in fields(SweepOptions) if f.name != "budget")
    wanted = [s.strip() for s in args.stats.split(",") if s.strip()]
    unknown = [s for s in wanted if s not in names]
    if unknown:
        raise ValueError(f"unknown statistics {unknown}; expected {names}")
    if not wanted:
        raise ValueError("no statistics requested")
    opts = SweepOptions(**{name: name in wanted for name in names}, budget=args.budget)
    hist = sweep(elements, args.m, args.n, options=opts)
    # The output is opened only now: a refused or failed sweep writes nothing.
    if args.out is None or args.out == "-":
        hist.write_csv(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            hist.write_csv(handle)
    return 0


# -- bound ---------------------------------------------------------------------


def _print_bound_rows(rows) -> None:
    width = max(len(r.source) for r in rows)
    rwidth = max(len(r.regime) for r in rows)
    for row in rows:
        print(f"{row.source:<{width}}  {row.regime:<{rwidth}}  {row.value}")


def _cmd_bound(args) -> int:
    """Pass the parsed flags, each named after the parameter it sets, to
    `bound_table` (or to `nondegenerate_cap_log10` for the cap)."""
    params = _flags(args, "kind")
    if args.kind == "cap":
        print(f"log10(cap) = {nondegenerate_cap_log10(**params)}")
        return 0
    _print_bound_rows(bound_table(args.kind, **params))
    return 0


# -- family --------------------------------------------------------------------


def _cmd_family(args) -> int:
    elements = load_set(args.spec)
    text = json.dumps(set_to_json(elements), indent=2, sort_keys=True) + "\n"
    _write_text(text, args.out)
    return 0


# -- growth --------------------------------------------------------------------


def _cmd_growth(args) -> int:
    if args.list:
        for name in growth_mod.list_presets():
            print(name)
        return 0
    if args.config:
        spec = growth_mod.load_experiment(args.config)
    elif args.preset:
        spec = growth_mod.preset(args.preset)
    else:
        raise ValueError("growth needs --config FILE, --preset NAME, or --list")
    result = growth_mod.run_experiment(spec)
    report = growth_mod.analyze(result)
    if args.out:
        csv_path, json_path = growth_mod.emit(result, report, args.out)
        print(f"wrote {csv_path} and {json_path}")
    else:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    print(
        f"{report.name}: slope={report.fit.slope:.6f}"
        f" theoretical={report.theoretical} verdict={report.verdict}"
    )
    return 0


# -- audit ---------------------------------------------------------------------


def _cmd_audit(args) -> int:
    elements = load_set(args.set)
    summary = audit_prop_zero_cofactors(
        elements,
        args.n,
        args.trials,
        args.seed,
        min_nonsingular=args.min_nonsingular,
    )
    text = json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n"
    _write_text(text, args.out)
    return 0 if summary.passed else 1


# -- equation ------------------------------------------------------------------


def _cmd_equation(args) -> int:
    if args.action == "system":
        elements = load_set(args.set)
        print(count_system_sum_squares(args.n, elements))
        return 0
    eq = load_equation(args.eq)
    elements = load_set(args.set)
    if args.action == "count":
        print(count_solutions(eq, elements, max_entries=args.max_entries))
        return 0
    classification = classify_by_vanishing_subsums(eq, elements, budget=args.budget)
    classes = {
        ",".join(str(i) for i in indices) if indices else "none": count
        for indices, count in classification.classes.items()
    }
    obj = {"classes": classes, "total": classification.total}
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


# -- parser --------------------------------------------------------------------


def _add_budget(p, what: str = "sweeps") -> None:
    p.add_argument(
        "--budget",
        type=parse_budget,
        default=None,
        help=f"work cap for {what} (accepts 2e8 style; default from UNITCOUNT_BUDGET)",
    )


# One parser per process: `--budget`'s env default is read when a command runs.
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="unitcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # count
    p_count = sub.add_parser("count", help="count matrices with a fixed statistic")
    # Each statistic's flags are stored under its growth-config keys, and
    # the statistic's name under "kind".
    count_sub = p_count.add_subparsers(dest="kind", required=True)
    p_det = count_sub.add_parser("det", help="matrices with a given determinant")
    p_det.add_argument("--set", required=True, help="element set JSON file")
    p_det.add_argument("-n", type=int, required=True, help="matrix dimension")
    p_det.add_argument(
        "--d", dest="target", required=True, help="determinant target scalar"
    )
    _add_budget(p_det)
    p_rank = count_sub.add_parser("rank", help="matrices of bounded or exact rank")
    p_rank.add_argument("--set", required=True)
    p_rank.add_argument("-m", type=int, required=True, help="rows")
    p_rank.add_argument("-n", type=int, required=True, help="columns")
    p_rank.add_argument("-r", type=int, required=True, help="rank threshold")
    p_rank.add_argument(
        "--exact",
        dest="cumulative",
        action="store_false",
        help="count rank == r instead of rank <= r",
    )
    _add_budget(p_rank)
    p_cp = count_sub.add_parser("charpoly", help="matrices with a given charpoly")
    p_cp.add_argument("--set", required=True)
    p_cp.add_argument("-n", type=int, required=True)
    p_cp.add_argument(
        "--coeffs",
        type=lambda text: text.split(","),
        required=True,
        help="comma list c_0,...,c_{n-1} of non-leading coefficients",
    )
    _add_budget(p_cp)
    p_ps = count_sub.add_parser(
        "powersums", help="matrices with given tr X and tr X^2"
    )
    p_ps.add_argument("--set", required=True)
    p_ps.add_argument("-n", type=int, required=True)
    p_ps.add_argument("--t1", required=True, help="trace target")
    p_ps.add_argument("--t2", required=True, help="trace-of-square target")
    _add_budget(p_ps)
    p_count.set_defaults(handler=_cmd_count)

    # sweep
    p_sweep = sub.add_parser("sweep", help="full histogram sweep over all matrices")
    p_sweep.add_argument("--set", required=True)
    p_sweep.add_argument("-m", type=int, required=True, help="rows")
    p_sweep.add_argument("-n", type=int, required=True, help="columns")
    p_sweep.add_argument(
        "--stats",
        default="rank,det",
        help="comma list from rank,det,charpoly,powersums",
    )
    p_sweep.add_argument("--out", default=None, help="output CSV path ('-' stdout)")
    _add_budget(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    # bound: each flag is stored under the bound_table parameter it sets.
    p_bound = sub.add_parser("bound", help="print theoretical exponents")
    bound_sub = p_bound.add_subparsers(dest="kind", required=True)
    b_rank = bound_sub.add_parser("rank", help="rank-count exponent")
    b_rank.add_argument("-n", type=int, required=True, help="columns")
    b_rank.add_argument("-m", type=int, required=True, help="rows")
    b_rank.add_argument("-r", type=int, required=True)
    b_det = bound_sub.add_parser("det", help="determinant-count exponent")
    b_det.add_argument("-n", type=int, required=True)
    b_det.add_argument(
        "--nonzero",
        dest="target_is_zero",
        action="store_false",
        help="nonzero determinant target",
    )
    b_cp = bound_sub.add_parser("charpoly", help="charpoly-count exponent")
    b_cp.add_argument("-n", type=int, required=True)
    b_cp.add_argument(
        "--c0-zero", action="store_true", help="constant term is zero (read at n = 2)"
    )
    b_cp.add_argument("--c1-zero", action="store_true", help="trace coefficient zero")
    b_cp.add_argument("--c2-zero", action="store_true", help="second coefficient zero")
    b_cp.add_argument(
        "--twice-c2-equals-c1", action="store_true", help="2*c2 equals c1"
    )
    b_cp.add_argument(
        "--complex-entries",
        dest="field_real",
        action="store_false",
        help="entries from the Gaussian rationals",
    )
    b_eq = bound_sub.add_parser("equation", help="linear-equation solution exponent")
    b_eq.add_argument("-n", type=int, required=True)
    b_eq.add_argument("--inhomogeneous", dest="homogeneous", action="store_false")
    b_sys = bound_sub.add_parser("system", help="sum and sum-of-squares system")
    b_sys.add_argument("-n", type=int, required=True)
    b_cap = bound_sub.add_parser(
        "cap", help="log10 of the nondegenerate-solution cap"
    )
    b_cap.add_argument("-n", type=int, required=True)
    b_cap.add_argument(
        "--group-rank", type=int, required=True, help="rank of the ambient group"
    )
    p_bound.set_defaults(handler=_cmd_bound)

    # family
    p_family = sub.add_parser("family", help="materialize a family spec to a set")
    p_family.add_argument("--spec", required=True, help="family or set JSON file")
    p_family.add_argument("--out", default=None, help="output path ('-' stdout)")
    p_family.set_defaults(handler=_cmd_family)

    # growth
    p_growth = sub.add_parser("growth", help="run a growth experiment")
    p_growth.add_argument("--config", default=None, help="experiment config JSON")
    p_growth.add_argument("--preset", default=None, help="preconfigured experiment")
    p_growth.add_argument("--list", action="store_true", help="list presets")
    p_growth.add_argument("--out", default=None, help="output directory")
    p_growth.set_defaults(handler=_cmd_growth)

    # audit
    p_audit = sub.add_parser("audit", help="randomized property audits")
    audit_sub = p_audit.add_subparsers(dest="what", required=True)
    a_minors = audit_sub.add_parser(
        "minors", help="cofactor-expansion audit of random matrices"
    )
    a_minors.add_argument("--set", required=True)
    a_minors.add_argument("-n", type=int, required=True)
    a_minors.add_argument("--trials", type=int, default=100)
    a_minors.add_argument("--seed", type=int, default=0)
    a_minors.add_argument(
        "--min-nonsingular",
        type=int,
        default=0,
        help="keep sampling until this many nonsingular matrices were checked",
    )
    a_minors.add_argument("--out", default=None, help="output path ('-' stdout)")
    p_audit.set_defaults(handler=_cmd_audit)

    # equation
    p_eq = sub.add_parser("equation", help="linear equations over an element set")
    eq_sub = p_eq.add_subparsers(dest="action", required=True)
    e_count = eq_sub.add_parser("count", help="count solution tuples")
    e_count.add_argument("--eq", required=True, help="equation JSON file")
    e_count.add_argument("--set", required=True)
    e_count.add_argument(
        "--max-entries",
        type=parse_budget,
        default=DEFAULT_MAX_ENTRIES,
        help="memory cap for the meet-in-the-middle table",
    )
    e_classify = eq_sub.add_parser(
        "classify", help="group solutions by first vanishing subsum"
    )
    e_classify.add_argument("--eq", required=True)
    e_classify.add_argument("--set", required=True)
    _add_budget(e_classify, "the A^(n-1) walk")
    e_system = eq_sub.add_parser(
        "system", help="count tuples with vanishing sum and sum of squares"
    )
    e_system.add_argument("-n", type=int, required=True)
    e_system.add_argument("--set", required=True)
    p_eq.set_defaults(handler=_cmd_equation)

    return parser


# Options whose value is scalar text, which may start with "-" ("-1/2",
# "-i", "-7/3,7/3"): argparse takes such a word for an option unless it is
# joined to its option as OPTION=VALUE (no parser takes an abbreviation).
_SCALAR_OPTIONS = ("--d", "--coeffs", "--t1", "--t2")


def main(argv=None) -> int:
    parser = build_parser()
    words = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(words) - 1)):
        if words[i] in _SCALAR_OPTIONS:
            words[i : i + 2] = [f"{words[i]}={words[i + 1]}"]
    try:
        args = parser.parse_args(words)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
