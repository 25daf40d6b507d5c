"""Acceptance gate: seven criteria, one visible pass/fail line each.

Each test prints its verdict straight to the terminal (bypassing capture) so
the tee'd pytest log always shows the per-criterion outcome, then asserts.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

import oracles
from conftest import rand_element_set, rand_scalar

from unitcount import (
    Q,
    QI,
    Scalar,
    count_charpoly,
    count_det,
    count_rank,
    count_solutions,
    count_system_sum_squares,
    classify_by_vanishing_subsums,
    parse_scalar,
    sweep,
)
from unitcount.bounds import (
    charpoly_general_exponent,
    charpoly_refined_exponent,
    rank_type_exponent,
    system_exponent,
)
from unitcount.equations import EquationSpec
from unitcount.families import ElementSet, Geometric, materialize
from unitcount.growth import (
    PRESETS,
    ExperimentResult,
    analyze,
    emit,
    preset,
    run_experiment,
)
from unitcount.matrices import SweepOptions
from unitcount.minors import audit_prop_zero_cofactors


def _line(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@lru_cache(maxsize=None)
def _preset_report(name: str):
    return analyze(run_experiment(preset(name)))


def test_acceptance_1_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = random.Random(77)

    hist_mismatches = 0
    for trial in range(50):
        field = Q if trial % 2 == 0 else QI
        size = rng.randint(2, 12)
        elements = rand_element_set(rng, field, size=size, span=6, max_den=2)
        fast = oracles.fast_det2_histogram(elements)
        slow = sweep(elements, 2, 2, options=SweepOptions(rank=False, det=True))
        if fast != oracles.det_histogram(slow):
            hist_mismatches += 1

    # keep the naive A^n enumeration tractable while spanning n <= 6, A <= 10
    cap = {1: 10, 2: 10, 3: 10, 4: 7, 5: 5, 6: 4}
    eq_mismatches = 0
    for trial in range(200):
        field = Q if trial % 2 == 0 else QI
        n = rng.randint(1, 6)
        size = rng.randint(2, cap[n])
        elements = rand_element_set(rng, field, size=size, span=5, max_den=2)
        coeffs = tuple(rand_scalar(rng, field, span=4, max_den=2) for _ in range(n))
        rhs = rand_scalar(rng, field, span=4, max_den=2, nonzero=False)
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        fast = count_solutions(eq, elements)
        naive = oracles.equation_count(
            [oracles.pair(c) for c in coeffs], oracles.pair(rhs), elements
        )
        if fast != naive:
            eq_mismatches += 1

    elapsed = time.perf_counter() - started
    ok = hist_mismatches == 0 and eq_mismatches == 0 and elapsed < 60
    _line(
        capsys,
        1,
        ok,
        f"fast 2x2 histograms (50 sets) and meet-in-the-middle counts "
        f"(200 equations) match naive enumeration; {elapsed:.1f}s",
    )


def test_acceptance_2_pinned_counts(capsys):
    one_two = ElementSet((parse_scalar("1", Q), parse_scalar("2", Q)))
    det_count = count_det(one_two, 2, parse_scalar("0", Q))

    # T^2 - 2T: constant coefficient 0, linear coefficient -2
    key = (parse_scalar("0", Q), parse_scalar("-2", Q))
    cp_count = count_charpoly(one_two, 2, key)

    rng = random.Random(5)
    rational_sets = [
        materialize(Geometric(parse_scalar("2", Q), 1, 4)),
        rand_element_set(rng, Q, size=5, span=7, max_den=3),
    ]
    system_zero = all(
        count_system_sum_squares(n, elements) == 0
        for n in (2, 3)
        for elements in rational_sets
    )

    units = ElementSet(tuple(parse_scalar(t, QI) for t in ("1", "-1", "i", "-i")))
    got4 = count_system_sum_squares(4, units)
    zero = Scalar.zero(QI)
    brute4 = 0
    for tup in itertools.product(units, repeat=4):
        total = zero
        squares = zero
        for x in tup:
            total = total + x
            squares = squares + x * x
        if total.is_zero() and squares.is_zero():
            brute4 += 1

    ok = (
        det_count == 6
        and cp_count == 1
        and system_zero
        and got4 > 0
        and got4 == brute4
    )
    _line(
        capsys,
        2,
        ok,
        f"det0 count {det_count}=6, charpoly count {cp_count}=1, rational "
        f"system counts vanish, unit system count {got4} matches 4^4 brute force",
    )


def test_acceptance_3_tightness_slopes(capsys):
    t_ac = time.perf_counter()
    rank_report = _preset_report("rank22-geometric")
    cp_report = _preset_report("charpoly-t2-signed")
    elapsed_ac = time.perf_counter() - t_ac

    t_b = time.perf_counter()
    det_report = _preset_report("det0-3x3-geometric")
    elapsed_b = time.perf_counter() - t_b

    rank_ok = abs(rank_report.fit.slope - 3.0) <= 0.2
    det_ok = abs(det_report.fit.slope - 7.0) <= 0.6
    cp_ok = cp_report.fit.slope >= 1.8
    ok = rank_ok and det_ok and cp_ok and elapsed_ac < 120 and elapsed_b < 600
    _line(
        capsys,
        3,
        ok,
        f"slopes rank22 {rank_report.fit.slope:.3f} (3±0.2), det0-3x3 "
        f"{det_report.fit.slope:.3f} (7±0.6), charpoly-t2 {cp_report.fit.slope:.3f} "
        f"(>=1.8); {elapsed_ac + elapsed_b:.1f}s",
    )


def test_acceptance_4_no_upper_violations(capsys):
    names = ("rank22-geometric", "det0-3x3-geometric", "charpoly-t2-signed")
    lattice = tuple(name for name in PRESETS if name.startswith("lattice-"))
    assert len(lattice) >= 10
    verdicts = {}
    for name in names + lattice:
        verdicts[name] = _preset_report(name).verdict
    violators = sorted(n for n, v in verdicts.items() if v == "upper-violated")
    ok = not violators
    _line(
        capsys,
        4,
        ok,
        f"no fitted slope beats its theoretical exponent across "
        f"{len(verdicts)} experiments"
        + (f"; violators: {violators}" if violators else ""),
    )


def test_acceptance_5_formula_suite(capsys):
    started = time.perf_counter()

    kappa_ok = all(
        system_exponent(n) == ((2 * n) // 5, n // 5) for n in range(1, 201)
    )

    argmax_ok = True
    for n in range(1, 31):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                brute = max(rank_type_exponent(n, m, r, t) for t in range(1, r + 1))
                if rank_type_exponent(n, m, r, oracles.rank_type_argmax(n, m, r)) != brute:
                    argmax_ok = False

    envelope_ok = all(
        max(
            charpoly_refined_exponent(n, True, True).value,
            charpoly_refined_exponent(n, True, False).value,
            charpoly_refined_exponent(n, False, False).value,
        )
        == charpoly_general_exponent(n)
        for n in range(3, 101)
    )

    ratio_ok = all(
        abs(Fraction(charpoly_general_exponent(n), n * n) - Fraction(3, 4))
        <= Fraction(1, n)
        for n in range(3, 1001)
    )

    elapsed = time.perf_counter() - started
    ok = kappa_ok and argmax_ok and envelope_ok and ratio_ok and elapsed < 5
    _line(
        capsys,
        5,
        ok,
        f"system exponent, rank-type argmax, charpoly envelope, and 3/4 limit "
        f"identities all hold; {elapsed:.1f}s",
    )


def test_acceptance_6_minor_audit(capsys):
    started = time.perf_counter()
    families = {
        "rational-powers": materialize(Geometric(parse_scalar("2", Q), 1, 6)),
        "gaussian-powers": materialize(Geometric(parse_scalar("1+i", QI), 1, 6)),
    }
    failures = []
    checked = 0
    for label, elements in families.items():
        for n in (3, 4):
            summary = audit_prop_zero_cofactors(
                elements, n, trials=10_000, seed=2024, min_nonsingular=10_000
            )
            checked += summary.nonsingular_checked
            if not summary.passed:
                failures.append((label, n))
    elapsed = time.perf_counter() - started
    ok = not failures and checked >= 40_000 and elapsed < 120
    _line(
        capsys,
        6,
        ok,
        f"{checked} nonsingular samples: zero minors <= n-2 and exact Laplace "
        f"reconstruction everywhere; {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_acceptance_7_partition_and_invariance(capsys):
    rng = random.Random(404)

    partition_ok = True
    order_ok = True
    shuffler = random.Random(707)
    shapes = [(2, 2), (2, 3), (3, 2)]
    for trial in range(6):
        field = Q if trial % 2 == 0 else QI
        m, n = shapes[trial % len(shapes)]
        elements = rand_element_set(rng, field, size=3, span=5, max_den=2)
        square = m == n
        opts = SweepOptions(
            rank=True, det=square, charpoly=square, powersums=square
        )
        hist = sweep(elements, m, n, options=opts)
        hist.validate()
        space = len(elements) ** (m * n)
        if sum(hist.rank_profile.values()) != space:
            partition_ok = False
        if square and sum(oracles.det_histogram(hist).values()) != space:
            partition_ok = False
        shuffled = list(elements)
        shuffler.shuffle(shuffled)
        if sweep(ElementSet(tuple(shuffled)), m, n, options=opts) != hist:
            order_ok = False

    scaling_ok = True
    for trial in range(20):
        field = Q if trial % 2 == 0 else QI
        elements = rand_element_set(rng, field, size=4, span=5, max_den=2)
        scale = rand_scalar(rng, field, span=4, max_den=2)
        scaled = ElementSet(tuple(scale * x for x in elements))
        target = elements[rng.randrange(len(elements))] * elements[
            rng.randrange(len(elements))
        ]
        if count_det(elements, 2, target) != count_det(
            scaled, 2, target * scale * scale
        ):
            scaling_ok = False
        r = rng.choice([1, 2])
        if count_rank(elements, 2, 2, r) != count_rank(scaled, 2, 2, r):
            scaling_ok = False

    classify_ok = True
    for trial in range(50):
        field = Q if trial % 2 == 0 else QI
        n = rng.randint(1, 4)
        elements = rand_element_set(rng, field, size=rng.randint(2, 5), span=4, max_den=2)
        coeffs = tuple(rand_scalar(rng, field, span=3, max_den=2) for _ in range(n))
        rhs = rand_scalar(rng, field, span=3, max_den=2, nonzero=False)
        eq = EquationSpec(coeffs=coeffs, rhs=rhs)
        classification = classify_by_vanishing_subsums(eq, elements)
        if classification.total != count_solutions(eq, elements):
            classify_ok = False

    ok = partition_ok and order_ok and scaling_ok and classify_ok
    _line(
        capsys,
        7,
        ok,
        "histogram partitions, element-order invariance, scaling invariance, and "
        "classification totals all exact",
    )


# sha256 of each preset's JSON report at its shipped k_values, as `emit`
# writes it.  The reports are timing-free and byte-deterministic, so any
# change to a count, a fit, a verdict or the report layout shows here.
PRESET_REPORT_SHA256 = {
    "charpoly-t2-signed": "97eb374b0e4e9a3b3d5770985c63dc61873a4f5bfa1287a721842ec68af7a1f3",
    "det0-2x2-geometric": "abb7902f45f7bdba3bb62399083ba1b51003577461eaed72247892c52ded03d6",
    "det0-3x3-geometric": "8a3ce92bd75515e713d57bb739ecf350013cdbffd3ae926edde3ccb3ce12850a",
    "equation-tight2-geometric": "c2cf1f16399364c99012c669518c2177cd81f653f3a2fe1e09524e9ef1986a67",
    "equation-tight3-geometric": "0fdbd9e37c4b7a0c7098ce73c98451f65d26121e3f910b1f6443b41c437aecaf",
    "equation-tight4-geometric": "83b246a11ccf5dc0bd0345ffc6f39ba8bb2d979c6b9a94cabca15130801dd920",
    "lattice-det0-2x2": "8db05b8955eafc935d58540363a537ba102ccfe0074419f29e00b47f0ad452b3",
    "lattice-det0-2x2-gaussian": "b8edab62f98a81e599aad331170162d98a4ca54fbe1f877892499d8e0af3a564",
    "lattice-equation2": "5a110091c8d18835f2295177625b80bbd72d2d4ccfc50d17e9c7231c0e813249",
    "lattice-equation3": "bddb6dbaa6bb7150df72a7ee892b2239ab4d8fe2208a65f67972f2a0257e42c1",
    "lattice-equation4": "986e35a07312e9e9313baae48370d1adff2b9f8551f34b5c34abe63c7ad5de9e",
    "lattice-equation4-gaussian": "7420cfee0e2373ec0f9508348ac5982a74f8634f1800e6d1bc06c44266117361",
    "lattice-equation5": "1e0b7e8403ac953de50347e36449608c588f2579fe8aa990ed9a450a4724af61",
    "lattice-equation6": "29833b2894c3808c28aa27ef0d585d54e4315062bcce6f7e32fb1cd31fcaa428",
    "lattice-rank22": "c3b6ade6ce7d9b5e78ab51b62b799c50f44e733dfa364f575960177342b7b667",
    "lattice-rank33": "52cbd6457c6dcbab927db81f364906de66f721a00bfd76c7cd73ad0c768dd27d",
    "powersums2-signed": "be045bbed4f53ba2858532831e21a7eba6114d6bc6ca21b54a02207781fb5953",
    "rank22-geometric": "2a5045fc1235f4a154bee7d2a211cc4eceb047b1dcebdb507107d08c9f84787d",
    "system4-units": "be1e0780646b413a12e1129f59105c844967311364d6a7eef04b596f394f19b6",
}


def test_preset_report_digests_cover_every_preset():
    assert sorted(PRESET_REPORT_SHA256) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESET_REPORT_SHA256))
def test_preset_report_bytes_are_pinned(name, tmp_path):
    report = _preset_report(name)
    result = ExperimentResult(preset(name), report.points, report.budget_exceeded)
    _, json_path = emit(result, report, tmp_path)
    digest = hashlib.sha256(json_path.read_bytes()).hexdigest()
    assert digest == PRESET_REPORT_SHA256[name]
