"""CLI behavior: every subcommand and flag, exit codes, and determinism.

All tests drive main() in-process and rely on capsys; nothing here shells out.
"""

import csv
import io
import json
from decimal import Decimal
from pathlib import Path

import pytest

from unitcount.cli import build_parser, main
from unitcount.families import load_set
from unitcount.growth import CharpolyStatistic, PowerSumsStatistic, statistic_from_json
from unitcount.matrices import SweepOptions, count_rank, sweep
from unitcount.scalars import Scalar


@pytest.fixture
def set12(tmp_path):
    path = tmp_path / "set12.json"
    path.write_text(json.dumps({"field": "Q", "elements": ["1", "2"]}))
    return str(path)


@pytest.fixture
def set_pows(tmp_path):
    path = tmp_path / "pows.json"
    path.write_text(
        json.dumps({"field": "Q", "elements": ["1", "2", "4", "8", "16"]})
    )
    return str(path)


@pytest.fixture
def set_units(tmp_path):
    path = tmp_path / "units.json"
    path.write_text(json.dumps({"field": "Qi", "elements": ["1", "-1", "i", "-i"]}))
    return str(path)


@pytest.fixture
def eq_diff(tmp_path):
    # x1 - x2 + x3 = 1
    path = tmp_path / "eq.json"
    path.write_text(
        json.dumps({"field": "Q", "coeffs": ["1", "-1", "1"], "rhs": "1"})
    )
    return str(path)


# -------------------------------------------------------------------- count


def test_count_det_documented_example(set12, capsys):
    assert main(["count", "det", "--set", set12, "-n", "2", "--d", "0"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_count_det_accepts_scientific_budget(set12, capsys):
    code = main(
        ["count", "det", "--set", set12, "-n", "2", "--d", "0", "--budget", "2e8"]
    )
    assert code == 0 and capsys.readouterr().out == "6\n"


def test_budgets_parse_exactly(set12, eq_diff, monkeypatch, capsys):
    argv = ["count", "det", "--set", set12, "-n", "2", "--d", "0", "--budget"]
    assert main(argv + ["1e400"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(argv + ["2.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(argv + ["1e99999"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    args = build_parser().parse_args(argv + ["12345678901234567891"])
    assert args.budget == 12345678901234567891
    eq_argv = ["equation", "count", "--eq", eq_diff, "--set", set12, "--max-entries"]
    assert main(eq_argv + ["1e1"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(eq_argv + ["0.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    det3 = ["count", "det", "--set", set12, "-n", "3", "--d", "0"]
    monkeypatch.setenv("UNITCOUNT_BUDGET", "2e8")
    assert main(det3) == 0
    assert capsys.readouterr().out == "248\n"
    monkeypatch.setenv("UNITCOUNT_BUDGET", "2.5")
    assert main(det3) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_max_entries_below_one_exits_1(set12, eq_diff, capsys):
    eq_argv = ["equation", "count", "--eq", eq_diff, "--set", set12, "--max-entries"]
    for bad in ("0", "-5"):
        assert main(eq_argv + [bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "max_entries" in captured.err
    assert main(eq_argv + ["1"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_no_shards_flag(set12, capsys):
    for argv in (
        ["count", "det", "--set", set12, "-n", "2", "--d", "0"],
        ["sweep", "--set", set12, "-m", "2", "-n", "2", "--out", "-"],
    ):
        assert main(argv + ["--shards", "2"]) == 1
        assert "--shards" in capsys.readouterr().err


def test_count_rank_cumulative_and_exact(set12, capsys):
    assert main(["count", "rank", "--set", set12, "-m", "2", "-n", "2", "-r", "1"]) == 0
    cumulative = int(capsys.readouterr().out)
    assert cumulative == 6
    code = main(
        ["count", "rank", "--set", set12, "-m", "2", "-n", "2", "-r", "2", "--exact"]
    )
    assert code == 0
    assert int(capsys.readouterr().out) == 10


def test_count_rank_default_matches_the_library(tmp_path, capsys):
    """`count rank` and `count_rank` share one default, rank <= r: over {1}
    the one 3x3 matrix has rank 1, so rank <= 2 counts 1."""
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"field": "Q", "elements": ["1"]}))
    assert main(["count", "rank", "--set", str(path), "-m", "3", "-n", "3", "-r", "2"]) == 0
    assert int(capsys.readouterr().out) == 1
    elements = load_set(str(path))
    assert count_rank(elements, 3, 3, 2) == 1
    assert count_rank(elements, 3, 3, 2, cumulative=False) == 0


def test_count_charpoly_and_powersums(set12, capsys):
    code = main(["count", "charpoly", "--set", set12, "-n", "2", "--coeffs", "4,4"])
    assert code == 0
    charpoly_count = int(capsys.readouterr().out)
    code = main(
        ["count", "powersums", "--set", set12, "-n", "2", "--t1", "4", "--t2", "10"]
    )
    assert code == 0
    powersum_count = int(capsys.readouterr().out)
    # coeffs (det, -trace) = (4, 4) means trace -4: impossible over positives;
    # trace 4 with tr X^2 = 10 pins the all-twos diagonal and unit off-diagonal
    assert charpoly_count == 0
    assert powersum_count == 1


@pytest.mark.parametrize(
    "field,elements,n,stat,target,expected",
    [
        ("Q", ["1/2", "-3", "2/3"], 2, "det", ["--d", "-1/2"], 4),
        ("Q", ["1/2", "-3", "2/3"], 2, "charpoly", ["--coeffs", "-7/3,7/3"], 4),
        ("Q", ["1/2", "-3", "2/3"], 2, "powersums", ["--t1", "-5/2", "--t2", "21/4"], 4),
        ("Qi", ["1", "i", "1+i", "-1/2+i"], 2, "det", ["--d", "-i"], 6),
        # (T - 1)(T - 2)(T - 3): a list that starts with a negative number.
        ("Q", ["1", "-1", "2", "3"], 3, "charpoly", ["--coeffs", "-6,11,-6"], 192),
    ],
)
def test_scalar_values_may_start_with_a_minus(
    field, elements, n, stat, target, expected, tmp_path, capsys
):
    """A scalar value that starts with "-" but is no plain negative number
    is the option's value in the space form as in the '=' form."""
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": field, "elements": elements}))
    argv = ["count", stat, "--set", str(path), "-n", str(n)]
    joined = [f"{option}={value}" for option, value in zip(target[::2], target[1::2])]
    for words in (target, joined):
        assert main(argv + words) == 0, words
        assert capsys.readouterr().out == f"{expected}\n"


def test_abbreviated_options_are_usage_errors(tmp_path, capsys):
    """An option is taken by its full name only, in the space form as in
    the '=' form: an abbreviation is a usage error, not another option."""
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": "Q", "elements": ["1/2", "-3", "2/3"]}))
    argv = ["count", "charpoly", "--set", str(path), "-n", "2"]
    for words in (["--coeff", "-7/3,7/3"], ["--coeff=-7/3,7/3"], ["--coeff", "7/3,7/3"]):
        assert main(argv + words) == 1, words
        assert capsys.readouterr().out == ""
    assert main(["count", "charpoly", "--se", str(path), "-n", "2", "--coeffs", "0,0"]) == 1
    assert capsys.readouterr().out == ""
    assert main(argv + ["--coeffs", "-7/3,7/3"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_count_budget_exhaustion_exits_2(set12, capsys):
    code = main(
        ["count", "det", "--set", set12, "-n", "3", "--d", "0", "--budget", "10"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_count_budget_charges_the_route_not_the_sweep(set12, capsys):
    # Over {1, 2} the 2x2 det and rank <= 1 routes cost A^2 = 4 units, a
    # full sweep A^4 = 16: a budget of 10 admits the routes only.
    assert main(["sweep", "--set", set12, "-m", "2", "-n", "2", "--out", "-"]) == 0
    rows = csv.reader(io.StringIO(capsys.readouterr().out))
    swept = {(stat, key): int(count) for stat, key, count in list(rows)[1:]}
    for argv, key in (
        (["count", "det", "--set", set12, "-n", "2", "--d", "0"], ("det", "0")),
        (["count", "rank", "--set", set12, "-m", "2", "-n", "2", "-r", "1"], ("rank", "1")),
    ):
        assert main(argv + ["--budget", "10"]) == 0
        assert capsys.readouterr().out == f"{swept[key]}\n"
        assert main(argv + ["--budget", "1e9"]) == 0
        assert capsys.readouterr().out == f"{swept[key]}\n"


def test_sweep_stdout_golden(set12, capsys):
    assert main(["sweep", "--set", set12, "-m", "2", "-n", "2", "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "statistic,key,count"
    assert 'rank,"1",6' in lines
    assert 'rank,"2",10' in lines
    det_total = sum(
        int(line.rsplit(",", 1)[1]) for line in lines if line.startswith("det,")
    )
    assert det_total == 16


def test_sweep_all_stats_to_file(set12, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--set",
            set12,
            "-m",
            "2",
            "-n",
            "2",
            "--stats",
            "rank,det,charpoly,powersums",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    for stat in ("rank,", "det,", "charpoly,", "powersums,"):
        assert stat in text
    capsys.readouterr()


def test_sweep_builds_no_scalar_per_key(tmp_path, monkeypatch, capsys):
    """Histogram keys stay ring integers from the kernel to the CSV text."""
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"field": "Q", "elements": ["1", "-1", "2", "3"]}))
    built = []
    original = Scalar.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", spy)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--set", str(path), "-m", "3", "-n", "3",
            "--stats", "charpoly,powersums", "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9779
    # Reading the set builds a few per element; one per key would be 9,779.
    assert len(built) <= 10 * 4


@pytest.mark.parametrize(
    "field,elements,m,n,stats",
    [("Q", ["1/2", "-3", "2/3"], 3, 3, "rank,det,charpoly,powersums"),
     ("Qi", ["1+i", "-i/2"], 2, 2, "rank,det,charpoly,powersums"),
     ("Qi", ["1+i", "-i/2"], 2, 3, "rank")],
)
def test_sweep_csv_is_csv_rows_with_quoted_keys(tmp_path, field, elements, m, n, stats, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": field, "elements": elements}))
    assert main(["sweep", "--set", str(path), "-m", str(m), "-n", str(n),
                 "--stats", stats, "--out", "-"]) == 0
    opts = SweepOptions(**{s: s in stats.split(",") for s in ("rank", "det", "charpoly", "powersums")})
    rows = sweep(load_set(str(path)), m, n, opts).csv_rows()
    expected = "statistic,key,count\n" + "".join(f'{s},"{k}",{c}\n' for s, k, c in rows)
    assert capsys.readouterr().out == expected


def test_sweep_refused_by_budget_writes_no_file(set12, tmp_path, capsys):
    out = tmp_path / "refused.csv"
    argv = ["sweep", "--set", set12, "-m", "3", "-n", "3", "--stats", "rank,det",
            "--budget", "10", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "field,elements,n,stats",
    [("Q", ["1", "-1", "2", "-2", "1/3"], 3, "rank,det"),
     ("Qi", ["1+i", "-i/2", "3"], 2, "rank,det,charpoly,powersums")],
)
def test_sweep_to_stdout_writes_the_file_bytes(tmp_path, field, elements, n, stats, capsysbinary):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": field, "elements": elements}))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--set", str(path), "-m", str(n), "-n", str(n), "--stats", stats]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv + ["--out", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_sweep_rejects_unknown_statistic(set12, capsys):
    code = main(["sweep", "--set", set12, "-m", "2", "-n", "2", "--stats", "zeta"])
    assert code == 1
    assert "unknown statistics" in capsys.readouterr().err


# -------------------------------------------------------------------- bound


def test_bound_rank_documented_example(capsys):
    assert main(["bound", "rank", "-n", "3", "-m", "3", "-r", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("rank-bound") and lines[0].rstrip().endswith("7")
    assert lines[1].startswith("rank-trivial") and lines[1].rstrip().endswith("8")


def test_bound_det_rows(capsys):
    assert main(["bound", "det", "-n", "3"]) == 0
    zero_out = capsys.readouterr().out
    assert "det-zero-family" in zero_out
    assert main(["bound", "det", "-n", "3", "--nonzero"]) == 0
    nonzero_out = capsys.readouterr().out
    assert "det-zero-family" not in nonzero_out


def test_bound_charpoly_two_by_two(capsys):
    code = main(["bound", "charpoly", "-n", "2", "--c0-zero", "--c1-zero"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("charpoly2") and out.rstrip().endswith("2")


def test_bound_charpoly_real_sharpening_toggle(capsys):
    args = ["bound", "charpoly", "-n", "4", "--twice-c2-equals-c1"]
    assert main(args) == 0
    real_out = capsys.readouterr().out
    assert "charpoly-real" in real_out
    assert main(args + ["--complex-entries"]) == 0
    complex_out = capsys.readouterr().out
    assert "charpoly-real" not in complex_out


def test_bound_charpoly_c_flags(capsys):
    code = main(["bound", "charpoly", "-n", "5", "--c1-zero", "--c2-zero", "--c0-zero"])
    assert code == 0
    assert "charpoly-refined" in capsys.readouterr().out


def test_bound_equation_and_system(capsys):
    assert main(["bound", "equation", "-n", "5"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("2")
    assert main(["bound", "equation", "-n", "5", "--inhomogeneous"]) == 0
    assert "equation-inhomogeneous" in capsys.readouterr().out
    assert main(["bound", "system", "-n", "10"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("4")


def test_bound_cap(capsys):
    assert main(["bound", "cap", "-n", "2", "--group-rank", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("log10(cap) = 308.254")


# Every kind and flag of `bound`, with the full text it prints.
_BOUND_OUTPUTS = [
    ("rank -n 3 -m 3 -r 2", "rank-bound    2m>n+r  7\nrank-trivial  any r   8\n"),
    ("rank -n 5 -m 4 -r 3", "rank-bound    2m<=n+r  16\nrank-trivial  any r    18\n"),
    ("rank -n 4 -m 4 -r 1", "rank-bound    2m>n+r  7\nrank-trivial  any r   7\n"),
    ("rank -n 3 -m 1 -r 1", "rank-bound    2m<=n+r  3\nrank-trivial  any r    3\n"),
    ("rank -n 1 -m 1 -r 1", "rank-bound    2m<=n+r  1\nrank-trivial  any r    1\n"),
    (
        "det -n 3",
        "det-bound        det=0       7\n"
        "det-zero-family  det=0       7\n"
        "det-trivial      any target  8\n",
    ),
    ("det -n 3 --nonzero", "det-bound    det!=0      7\ndet-trivial  any target  8\n"),
    ("det -n 1", "det-bound    det=0       0\ndet-trivial  any target  0\n"),
    ("det -n 1 --nonzero", "det-bound    det!=0      0\ndet-trivial  any target  0\n"),
    ("charpoly -n 2", "charpoly2  dt!=0  0\n"),
    ("charpoly -n 2 --c0-zero", "charpoly2  dt=0, not both  1\n"),
    ("charpoly -n 2 --c1-zero", "charpoly2  dt=0, not both  1\n"),
    ("charpoly -n 2 --c0-zero --c1-zero", "charpoly2  d=t=0  2\n"),
    (
        "charpoly -n 3",
        "charpoly-refined  c1!=0             5\n"
        "charpoly-general  any coefficients  5\n"
        "charpoly-trivial  any polynomial    7\n",
    ),
    (
        "charpoly -n 3 --c0-zero",
        "charpoly-refined  c1!=0             5\n"
        "charpoly-general  any coefficients  5\n"
        "charpoly-trivial  any polynomial    7\n",
    ),
    (
        "charpoly -n 3 --c1-zero --complex-entries",
        "charpoly-refined  c1=0,c2!=0        5\n"
        "charpoly-general  any coefficients  5\n"
        "charpoly-trivial  any polynomial    7\n",
    ),
    (
        "charpoly -n 4 --twice-c2-equals-c1",
        "charpoly-real     c1!=0, 2c2=c1, real  9\n"
        "charpoly-refined  c1!=0                10\n"
        "charpoly-general  any coefficients     10\n"
        "charpoly-trivial  any polynomial       14\n",
    ),
    (
        "charpoly -n 4 --twice-c2-equals-c1 --complex-entries",
        "charpoly-refined  c1!=0             10\n"
        "charpoly-general  any coefficients  10\n"
        "charpoly-trivial  any polynomial    14\n",
    ),
    (
        "charpoly -n 4 --c2-zero --c0-zero --complex-entries",
        "charpoly-refined  c1!=0             10\n"
        "charpoly-general  any coefficients  10\n"
        "charpoly-trivial  any polynomial    14\n",
    ),
    (
        "charpoly -n 5 --c1-zero --c2-zero --c0-zero",
        "charpoly-real     c1=c2=0, n=5, real  16\n"
        "charpoly-refined  c1=0,c2=0           17\n"
        "charpoly-general  any coefficients    17\n"
        "charpoly-trivial  any polynomial      23\n",
    ),
    ("equation -n 5", "equation-homogeneous  rhs=0  2\n"),
    ("equation -n 5 --inhomogeneous", "equation-inhomogeneous  rhs!=0  2\n"),
    ("equation -n 2", "equation-homogeneous  rhs=0  1\n"),
    ("system -n 10", "system-sum-squares  sum=sumsq=0  4\n"),
    ("system -n 4", "system-sum-squares  sum=sumsq=0  1\n"),
    ("cap -n 2 --group-rank 1", "log10(cap) = 308.254715559916743898868628198\n"),
    ("cap -n 3 --group-rank 0", "log10(cap) = 1788.75376925824140572537298531\n"),
]


@pytest.mark.parametrize("words,text", _BOUND_OUTPUTS, ids=[w for w, _ in _BOUND_OUTPUTS])
def test_bound_prints_its_rows_byte_for_byte(words, text, capsys):
    assert main(["bound", *words.split()]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "words,message",
    [
        pytest.param(
            "rank -n 3 -m 4 -r 4", "rank 4 impossible for a 4x3 matrix", id="rank -n 3 -m 4 -r 4"
        ),
        ("charpoly -n 1", "need n >= 2"),
        ("det -n 0", "need n >= 1"),
        ("cap -n 0 --group-rank 1", "need n >= 1 and group_rank >= 0"),
    ],
)
def test_bound_out_of_range_exits_1(words, message, capsys):
    assert main(["bound", *words.split()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bound_rank_reads_m_rows_and_n_columns(capsys):
    """`bound rank` reads -m and -n as `count rank` does, rows and columns;
    a 3 x 2 matrix and its 2 x 3 transpose share the bound."""
    assert main(["bound", "rank", "-n", "2", "-m", "3", "-r", "1"]) == 0
    tall = capsys.readouterr().out
    assert main(["bound", "rank", "-n", "3", "-m", "2", "-r", "1"]) == 0
    assert capsys.readouterr().out == tall
    assert tall == "rank-bound    2m<=n+r  4\nrank-trivial  any r    4\n"


# -------------------------------------------------------------------- family


def test_family_materializes_spec(tmp_path, capsys):
    spec = tmp_path / "fam.json"
    spec.write_text(
        json.dumps(
            {
                "family": {
                    "variant": "geometric",
                    "field": "Q",
                    "base": "2",
                    "start": 1,
                    "stop": 4,
                }
            }
        )
    )
    assert main(["family", "--spec", str(spec)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["elements"] == ["2", "4", "8", "16"]

    out = tmp_path / "set.json"
    assert main(["family", "--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["field"] == "Q"


def test_family_and_set_texts_past_the_int_string_limit(tmp_path, capsys):
    # 2^14300 has 4,305 digits, past Python's default int-string limit: the
    # family writes it, a set file holding it and a 4,301-digit literal is
    # read back, and a count past that limit prints.
    spec = tmp_path / "fam.json"
    spec.write_text(json.dumps(
        {"family": {"variant": "geometric", "base": "2", "start": 14300, "stop": 14301}}
    ))
    out = tmp_path / "set.json"
    assert main(["family", "--spec", str(spec), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert [len(text) for text in blob["elements"]] == [4305, 4306]
    blob["elements"].append("1" * 4301)
    out.write_text(json.dumps(blob))
    ones = (10**4301 - 1) // 9
    assert list(load_set(out)) == [Scalar.rational(v) for v in (2**14300, 2**14301, ones)]
    # Every 100 x 100 matrix has rank <= 100: 3^10000, 4,772 digits.
    assert main(["count", "rank", "--set", str(out), "-m", "100", "-n", "100", "-r", "100"]) == 0
    printed = capsys.readouterr().out
    assert len(printed) == 4773 and int(Decimal(printed)) == 3**10000


# -------------------------------------------------------------------- growth


def test_growth_list_names_presets(capsys):
    assert main(["growth", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "rank22-geometric" in names
    assert sum(1 for n in names if n.startswith("lattice-")) >= 10
    assert names == sorted(names)


def test_growth_preset_verdict_line(capsys):
    assert main(["growth", "--preset", "det0-2x2-geometric"]) == 0
    out = capsys.readouterr().out
    last = out.rstrip().splitlines()[-1]
    assert last.startswith("det0-2x2-geometric: slope=")
    assert "theoretical=3" in last
    assert "verdict=lower-achieved" in last


def test_growth_stdout_is_deterministic(capsys):
    assert main(["growth", "--preset", "equation-tight2-geometric"]) == 0
    first = capsys.readouterr().out
    assert main(["growth", "--preset", "equation-tight2-geometric"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_growth_config_and_out_dir(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(
        json.dumps(
            {
                "name": "cfgtest",
                "family": {"variant": "geometric", "base": "2"},
                "k_values": [2, 3, 4],
                "statistic": {"kind": "det", "n": 2, "target": "0"},
            }
        )
    )
    out_dir = tmp_path / "results"
    code = main(
        ["growth", "--config", str(config), "--out", str(out_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (out_dir / "cfgtest.csv").exists()
    assert (out_dir / "cfgtest.json").exists()
    blob = json.loads((out_dir / "cfgtest.json").read_text())
    assert blob["name"] == "cfgtest"


@pytest.mark.parametrize(
    "change",
    [
        {"tolerance": float("nan")},
        {"statistic": {"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulative": "false"}},
        {"k_values": [2.5, 3.7, 4.2]},
        {"k_values": [True, 3, 4]},
        {"statistic": {"kind": "det", "n": 2.9, "target": "0"}},
        {"family": {"variant": "geometric", "base": "2", "start": 1.5}},
        {"statistic": {"kind": "det", "n": 0, "target": "0"}},
        {"statistic": {"kind": "det", "n": -1, "target": "0"}},
        {"statistic": {"kind": "rank", "m": 2, "n": 2, "r": 3}},
        {"statistic": {"kind": "rank", "m": 2, "n": 2, "r": 0}},
    ],
    ids=["tolerance-nan", "cumulative-text", "k-fractions", "k-bool", "n-fraction",
         "start-fraction", "det-n0", "det-n-1", "rank-r3", "rank-r0"],
)
def test_growth_config_read_exactly_exits_1(change, tmp_path, capsys):
    config = tmp_path / "exp.json"
    obj = {
        "name": "strict",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": {"kind": "det", "n": 2, "target": "0"},
    }
    config.write_text(json.dumps(dict(obj, **change)))
    assert main(["growth", "--config", str(config)]) == 1
    assert "error:" in capsys.readouterr().err


def test_growth_config_with_a_misspelt_statistic_key_exits_1(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "name": "typo",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": {"kind": "rank", "m": 2, "n": 2, "r": 1, "cumulativ": False},
    }))
    assert main(["growth", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key 'cumulativ'" in captured.err


@pytest.mark.parametrize(
    "cls,statistic,flags",
    [
        (CharpolyStatistic, {"kind": "charpoly", "n": 1, "coeffs": ["-2"]}, ["--coeffs=-2"]),
        (PowerSumsStatistic, {"kind": "powersums", "n": 1, "t1": "2", "t2": "4"},
         ["--t1", "2", "--t2", "4"]),
    ],
    ids=["charpoly", "powersums"],
)
def test_growth_config_with_no_bound_exits_1_before_counting(
    cls, statistic, flags, set12, tmp_path, capsys, monkeypatch
):
    """No bound exists for a 1x1 charpoly, so a growth report could not be
    analyzed: the config is refused before any count runs.  The same
    statistic still counts."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "name": "unbounded",
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": statistic,
    }))
    counted = []
    monkeypatch.setattr(cls, "count", lambda self, *args: counted.append(args))
    assert main(["growth", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and counted == []
    assert captured.err == f"error: statistic {statistic['kind']!r} has no bound: need n >= 2\n"
    monkeypatch.undo()
    assert main(["count", statistic["kind"], "--set", set12, "-n", "1", *flags]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "a/b", "a\\b"])
def test_growth_name_outside_out_dir_exits_1(name, tmp_path, capsys):
    # emit writes <name>.csv and <name>.json: a name that is not a plain
    # file name would write outside --out, or hidden files in it.
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "name": name,
        "family": {"variant": "geometric", "base": "2"},
        "k_values": [2, 3, 4],
        "statistic": {"kind": "det", "n": 2, "target": "0"},
    }))
    assert main(["growth", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "is not a file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["exp.json"]


def test_family_spec_read_exactly_exits_1(tmp_path, capsys):
    spec = tmp_path / "fam.json"
    family = {"variant": "geometric", "base": "2", "start": 1.5, "stop": 4}
    spec.write_text(json.dumps({"family": family}))
    assert main(["family", "--spec", str(spec)]) == 1
    assert "error:" in capsys.readouterr().err


_GEOMETRIC = {"variant": "geometric", "base": "2", "start": 1, "stop": 4}


@pytest.mark.parametrize(
    "obj,key",
    [
        ({"field": "Q", "elements": ["1", "2"], "feild": "Qi"}, "feild"),
        ({"family": _GEOMETRIC, "field": "Q"}, "field"),
        ({"family": dict(_GEOMETRIC, count=3)}, "count"),
        ({"family": {"variant": "gaussian_units_scaled", "scales": ["1"], "scale_base": "2"}},
         "scale_base"),
        ({"family": {"variant": "lattice_box", "generators": ["2"], "ranges": [[0, 3]],
                     "sample_sise": 3, "sample_size": 3, "seed": 1}}, "sample_sise"),
    ],
    ids=["set", "set-with-family", "geometric", "units-template-key", "lattice-typo"],
)
def test_set_and_family_objects_refuse_keys_they_do_not_read(obj, key, tmp_path, eq_diff, capsys):
    """Every command that reads a set refuses a key by name, before any
    count: exit 1, nothing on stdout."""
    path = str(tmp_path / "set.json")
    Path(path).write_text(json.dumps(obj))
    for argv in (
        ["count", "det", "--set", path, "-n", "2", "--d", "0"],
        ["sweep", "--set", path, "-m", "2", "-n", "2", "--out", "-"],
        ["family", "--spec", path],
        ["equation", "count", "--eq", eq_diff, "--set", path],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"has unknown key {key!r}" in captured.err


@pytest.mark.parametrize(
    "obj,key",
    [
        # x1 - x2 = 2 has 1 solution over {1, 2, 4, 8}, x1 - x2 = 0 has 4.
        ({"coeffs": ["1", "-1"], "rsh": "2"}, "rsh"),
        ({"kind": "equation", "coeffs": ["1", "-1"], "rhs": "2"}, "kind"),
    ],
)
def test_equation_objects_refuse_keys_they_do_not_read(obj, key, tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(obj))
    pows = tmp_path / "pows.json"
    pows.write_text(json.dumps({"field": "Q", "elements": ["1", "2", "4", "8"]}))
    for action in ("count", "classify"):
        assert main(["equation", action, "--eq", str(path), "--set", str(pows)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: equation object has unknown key {key!r}\n"


def test_growth_requires_a_source(capsys):
    assert main(["growth"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["growth", "--preset", "not-a-preset"]) == 1
    assert "unknown preset" in capsys.readouterr().err


# -------------------------------------------------------------------- audit


def test_audit_minors_passes_and_writes_json(set_pows, tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main(
        [
            "audit",
            "minors",
            "--set",
            set_pows,
            "-n",
            "3",
            "--trials",
            "25",
            "--seed",
            "5",
            "--min-nonsingular",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True
    assert blob["nonsingular_checked"] >= 10
    capsys.readouterr()


def test_audit_minors_stdout_default_flags(set12, capsys):
    assert main(["audit", "minors", "--set", set12, "-n", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["trials"] == 100 and blob["seed"] == 0


def test_audit_minors_out_of_draws_exits_2_and_negative_floor_exits_1(tmp_path, set12, capsys):
    # Every matrix over {1} is singular, so one nonsingular sample is never
    # reached: the draw cap is a budget, like every other command's.
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"field": "Q", "elements": ["1"]}))
    argv = ["audit", "minors", "--set", str(ones), "-n", "2", "--trials", "3"]
    assert main(argv + ["--min-nonsingular", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "budget of 300" in captured.err
    assert captured.out == ""
    assert main(["audit", "minors", "--set", set12, "-n", "2", "--min-nonsingular", "-5"]) == 1
    assert "min_nonsingular" in capsys.readouterr().err


# ----------------------------------------------------------------- equation


def test_equation_count_and_table_cap(eq_diff, set12, capsys):
    assert main(["equation", "count", "--eq", eq_diff, "--set", set12]) == 0
    full = int(capsys.readouterr().out)
    assert full == 3
    code = main(
        [
            "equation",
            "count",
            "--eq",
            eq_diff,
            "--set",
            set12,
            "--max-entries",
            "1",
        ]
    )
    assert code == 0
    assert int(capsys.readouterr().out) == full


def test_equation_classify_golden(eq_diff, set12, capsys):
    assert main(["equation", "classify", "--eq", eq_diff, "--set", set12]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"classes": {"1,2": 2, "2,3": 1}, "total": 3}


def test_equation_classify_budget_exits_2(eq_diff, set12, capsys):
    # n = 3 over {1, 2}: the walk is charged A^(n-1) = 4.
    argv = ["equation", "classify", "--eq", eq_diff, "--set", set12, "--budget"]
    assert main(argv + ["3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: classify requires 4 units of work, over the budget of 3\n"
    )
    assert main(argv + ["4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"classes": {"1,2": 2, "2,3": 1}, "total": 3}


def test_equation_coeffs_text_exits_1(set12, tmp_path, capsys):
    eq = tmp_path / "eq.json"
    eq.write_text(json.dumps({"field": "Q", "coeffs": "12", "rhs": "3"}))
    for sub in ("count", "classify"):
        assert main(["equation", sub, "--eq", str(eq), "--set", set12]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "coeffs must be a list" in captured.err


def test_equation_system(set12, set_units, capsys):
    assert main(["equation", "system", "-n", "2", "--set", set12]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["equation", "system", "-n", "4", "--set", set_units]) == 0
    assert capsys.readouterr().out == "24\n"


def test_count_prints_the_growth_statistic_count(set12, capsys):
    """Each count reads its flags as the keys of a growth statistic, so it
    prints what that statistic's own count gives."""
    elements = load_set(set12)
    cases = (
        (["det", "-n", "2", "--d", "0"], {"kind": "det", "n": 2, "target": "0"}),
        (
            ["rank", "-m", "2", "-n", "3", "-r", "1", "--exact"],
            {"kind": "rank", "m": 2, "n": 3, "r": 1, "cumulative": False},
        ),
        (["rank", "-m", "3", "-n", "2", "-r", "1"], {"kind": "rank", "m": 3, "n": 2, "r": 1}),
        (
            ["charpoly", "-n", "3", "--coeffs", "-3,-1,-4"],
            {"kind": "charpoly", "n": 3, "coeffs": ["-3", "-1", "-4"]},
        ),
        (
            ["powersums", "-n", "2", "--t1", "3", "--t2", "7"],
            {"kind": "powersums", "n": 2, "t1": "3", "t2": "7"},
        ),
    )
    for words, obj in cases:
        expected = statistic_from_json(obj, elements.field).count(elements, None)
        assert expected > 0, obj
        assert main(["count", words[0], "--set", set12, *words[1:]]) == 0
        assert capsys.readouterr().out == f"{expected}\n"


def test_count_of_no_matrix_exits_1(set12, capsys):
    """What a growth config refuses, a count refuses: a rank above
    min(m, n), a charpoly of the wrong degree, a dimension below 1 and an
    empty coefficient list, each with exit 1 and nothing on stdout."""
    for words in (
        ["rank", "-m", "2", "-n", "2", "-r", "3"],
        ["charpoly", "-n", "3", "--coeffs", "1,2"],
        ["det", "-n", "0", "--d", "1"],
        ["charpoly", "-n", "1", "--coeffs", ""],
    ):
        assert main(["count", words[0], "--set", set12, *words[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["count", "det", "-n", "2", "--d", "0"]) == 1
    assert "--set" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    code = main(["count", "det", "--set", "/nope/set.json", "-n", "2", "--d", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_scalar_exits_1(set12, capsys):
    code = main(["count", "det", "--set", set12, "-n", "2", "--d", "2+"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_bound_arguments_exit_1(capsys):
    code = main(["bound", "rank", "-n", "3", "-m", "4", "-r", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
