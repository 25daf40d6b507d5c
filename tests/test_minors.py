"""Laplace minor reports and the zero-cofactor audit.

Every reconstruction must equal the determinant exactly, and nonsingular
matrices with nonzero entries may have at most n-2 vanishing minors along
any one line.
"""

import itertools
import random

import pytest

from unitcount import Q, QI, MatrixInstance, det, matrices, parse_scalar
from unitcount.families import ElementSet, Geometric, materialize
from unitcount.matrices import BudgetExceededError
from unitcount.minors import AuditSummary, audit_prop_zero_cofactors, laplace_report

import oracles
from conftest import int_element_set, rand_element_set


@pytest.mark.parametrize("field", [Q, QI])
@pytest.mark.parametrize("axis", ["row", "col"])
def test_reconstruction_equals_det(field, axis):
    rng = random.Random(hash((field, axis)) % 10_000)
    for _ in range(25):
        elements = rand_element_set(rng, field, size=4, span=5, max_den=2)
        n = rng.choice([2, 3, 4])
        rows = [[rng.randrange(len(elements)) for _ in range(n)] for _ in range(n)]
        X = MatrixInstance.from_rows(rows)
        value = det(X, elements)
        index = rng.randrange(n)
        report = laplace_report(X, elements, axis, index)
        assert report.reconstruction == value
        assert report.singular == value.is_zero()
        assert report.zero_count == sum(1 for m in report.minors if m.is_zero())
        assert len(report.minors) == n


def test_minors_match_submatrix_determinants():
    elements = int_element_set([1, 2, 3, 5])
    X = MatrixInstance.from_rows([[0, 1, 2], [3, 0, 1], [2, 3, 0]])
    report = laplace_report(X, elements, "row", 1)
    scal = X.scalar_rows(elements)
    for j, minor in enumerate(report.minors):
        sub = [
            [oracles.pair(v) for k, v in enumerate(row) if k != j]
            for i, row in enumerate(scal)
            if i != 1
        ]
        assert oracles.pair(minor) == oracles.det_pairs(sub)


def test_known_singular_example_is_flagged_not_bounded():
    # rank 1 matrix: every 2x2 minor of the 3x3 vanishes
    elements = int_element_set([1, 2, 4])
    X = MatrixInstance.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    # rows (1,2,4), (2,4,1), (4,1,2): not rank 1, keep a genuinely singular one
    Y = MatrixInstance.from_rows([[0, 1, 2], [0, 1, 2], [1, 2, 0]])
    report = laplace_report(Y, elements, "col", 0)
    assert report.singular
    assert report.reconstruction.is_zero()
    del X


def test_nonsingular_zero_minor_bound_small_cases():
    # exhaustive over 3x3 matrices from a 2-element set: 2^9 = 512 cases
    elements = int_element_set([1, 2])
    for code in range(2 ** 9):
        rows = [[(code >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        X = MatrixInstance.from_rows(rows)
        if det(X, elements).is_zero():
            continue
        for axis in ("row", "col"):
            for index in range(3):
                report = laplace_report(X, elements, axis, index)
                assert report.zero_count <= 1


def test_laplace_validation():
    elements = int_element_set([1, 2])
    square = MatrixInstance.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        laplace_report(MatrixInstance.from_rows([[0, 1]]), elements)
    with pytest.raises(ValueError):
        laplace_report(square, elements, "diag", 0)
    with pytest.raises(ValueError):
        laplace_report(square, elements, "row", 2)
    with pytest.raises(ValueError):
        laplace_report(MatrixInstance.from_rows([[0]]), elements, "row", 0)


@pytest.mark.parametrize(
    "elements",
    [
        materialize(Geometric(parse_scalar("2", Q), 1, 5)),
        materialize(Geometric(parse_scalar("1+i", QI), 1, 5)),
    ],
    ids=["rational-powers", "gaussian-powers"],
)
def test_audit_passes_on_structured_sets(elements):
    summary = audit_prop_zero_cofactors(elements, 3, trials=60, seed=7)
    assert summary.passed
    assert summary.reconstruction_mismatches == 0
    assert summary.max_zero_count <= summary.zero_count_bound == 1
    assert summary.samples == 60
    assert summary.nonsingular_checked + summary.singular_skipped == summary.samples
    assert summary.violations == ()


def test_audit_min_nonsingular_keeps_drawing():
    elements = int_element_set([1, 2, 3])
    base = audit_prop_zero_cofactors(elements, 2, trials=5, seed=3)
    forced = audit_prop_zero_cofactors(
        elements, 2, trials=5, seed=3, min_nonsingular=base.nonsingular_checked + 10
    )
    assert forced.nonsingular_checked >= base.nonsingular_checked + 10
    assert forced.samples > 5


def test_audit_deterministic_and_json_shape():
    elements = int_element_set([1, 2, 3])
    a = audit_prop_zero_cofactors(elements, 3, trials=40, seed=11)
    b = audit_prop_zero_cofactors(elements, 3, trials=40, seed=11)
    assert a == b
    blob = a.to_json()
    assert blob["n"] == 3 and blob["trials"] == 40 and blob["seed"] == 11
    assert blob["passed"] is True
    assert blob["violations"] == []
    assert set(blob) == {
        "n",
        "trials",
        "seed",
        "samples",
        "nonsingular_checked",
        "singular_skipped",
        "max_zero_count",
        "zero_count_bound",
        "reconstruction_mismatches",
        "violations",
        "passed",
    }


def test_audit_validation():
    elements = int_element_set([1, 2])
    with pytest.raises(ValueError):
        audit_prop_zero_cofactors(elements, 1, trials=5, seed=0)
    with pytest.raises(ValueError):
        audit_prop_zero_cofactors(elements, 2, trials=0, seed=0)


def test_audit_out_of_draws_is_a_budget_error():
    # Over {1} every matrix is singular, so no draw count reaches one
    # nonsingular sample; the audit stops after 100 * max(trials, 1) draws.
    with pytest.raises(BudgetExceededError, match="over the budget of 300"):
        audit_prop_zero_cofactors(int_element_set([1]), 2, trials=3, seed=0, min_nonsingular=1)
    with pytest.raises(ValueError, match="min_nonsingular"):
        audit_prop_zero_cofactors(int_element_set([1, 2]), 2, trials=3, seed=0, min_nonsingular=-5)


# -- the one-pass audit against a laplace_report reference ------------------------


def _laplace_audit(elements, n, trials, seed, min_nonsingular=0) -> AuditSummary:
    """The audit as 2n `laplace_report` calls per sample, in Scalars: every
    minor computed twice, each line recombined on its own."""
    rng = random.Random(seed)
    samples = nonsingular = singular = max_zero = mismatches = 0
    violations = []
    while samples < trials or nonsingular < min_nonsingular:
        X = oracles.random_matrix(elements, n, n, rng)
        samples += 1
        value = det(X, elements)
        reports = [
            laplace_report(X, elements, axis, index)
            for axis in ("row", "col")
            for index in range(n)
        ]
        mismatches += sum(1 for r in reports if r.reconstruction != value)
        if value.is_zero():
            singular += 1
            continue
        nonsingular += 1
        most = max(r.zero_count for r in reports)
        max_zero = max(max_zero, most)
        if most > n - 2:
            violations.append(X.entries)
    return AuditSummary(
        n=n, trials=trials, seed=seed, samples=samples,
        nonsingular_checked=nonsingular, singular_skipped=singular,
        max_zero_count=max_zero, zero_count_bound=n - 2,
        reconstruction_mismatches=mismatches, violations=tuple(violations),
        passed=not violations and mismatches == 0,
    )


_AUDIT_SETS = {
    "q-powers": materialize(Geometric(parse_scalar("2", Q), 0, 3)),
    "q-signs": int_element_set([1, -1, 2]),
    "q-units": int_element_set([1, -1]),
    "qi-powers": materialize(Geometric(parse_scalar("1+i", QI), 0, 3)),
    "qi-dens": ElementSet(tuple(parse_scalar(t, QI) for t in ("i/2", "1", "(1-i)/3"))),
}


@pytest.mark.parametrize("label", sorted(_AUDIT_SETS))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_equals_the_laplace_reference(label, n, seed):
    elements = _AUDIT_SETS[label]
    got = audit_prop_zero_cofactors(elements, n, trials=12, seed=seed)
    assert got == _laplace_audit(elements, n, 12, seed)
    forced = audit_prop_zero_cofactors(elements, n, trials=4, seed=seed, min_nonsingular=15)
    assert forced == _laplace_audit(elements, n, 4, seed, min_nonsingular=15)
    assert forced.nonsingular_checked >= 15


@pytest.mark.parametrize("label", sorted(_AUDIT_SETS))
def test_audit_equals_the_laplace_reference_at_n5(label):
    elements = _AUDIT_SETS[label]
    got = audit_prop_zero_cofactors(elements, 5, trials=12, seed=4)
    assert got == _laplace_audit(elements, 5, 12, 4)
    forced = audit_prop_zero_cofactors(elements, 5, trials=4, seed=5, min_nonsingular=15)
    assert forced == _laplace_audit(elements, 5, 4, 5, min_nonsingular=15)


@pytest.mark.parametrize("field", [Q, QI])
def test_audit_catches_a_corrupted_minor(field, monkeypatch):
    # Shift one cofactor of the first sample by one: the first that the
    # adjugate plan gives, that of row 0 and column 0.  That row and that
    # column no longer recombine to det, and the audit must fail.
    calls = itertools.count()
    real = matrices._adjugate

    def corrupted(flat, ring, n):
        value = real(flat, ring, n)
        if next(calls) == 0:
            value[0] = ring.add(value[0], ring.one)
        return value

    monkeypatch.setattr(matrices, "_adjugate", corrupted)
    base = parse_scalar("2" if field == Q else "1+i", field)
    summary = audit_prop_zero_cofactors(materialize(Geometric(base, 0, 3)), 3, trials=5, seed=1)
    assert summary.reconstruction_mismatches == 2
    assert summary.passed is False


# The summaries that the audit gave before it took its cofactors from the
# adjugate plan: 500 samples at n = 4 over 2^0..2^5 and (1+i)^0..(1+i)^5,
# seed 2025.  The samples are the same randrange draws.
_PINNED_N4 = {
    "max_zero_count": 2, "n": 4, "nonsingular_checked": 486, "passed": True,
    "reconstruction_mismatches": 0, "samples": 500, "seed": 2025,
    "singular_skipped": 14, "trials": 500, "violations": [], "zero_count_bound": 2,
}


@pytest.mark.parametrize("base,field", [("2", Q), ("1+i", QI)])
def test_audit_draw_stream_is_pinned(base, field):
    elements = materialize(Geometric(parse_scalar(base, field), 0, 5))
    assert audit_prop_zero_cofactors(elements, 4, trials=500, seed=2025).to_json() == _PINNED_N4


@pytest.mark.parametrize("label", ["q-units", "qi-powers"])
def test_forced_audit_reads_the_draws_of_random_matrix(label, monkeypatch):
    # With every cofactor zero, each nonsingular sample breaks the n-2
    # bound, so the violations list every nonsingular draw's index rows.
    elements = _AUDIT_SETS[label]
    monkeypatch.setattr(matrices, "_adjugate", lambda flat, ring, n: [ring.zero] * n * n)
    got = audit_prop_zero_cofactors(elements, 3, trials=4, seed=6, min_nonsingular=20)
    rng = random.Random(6)
    draws, nonsingular = [], []
    while len(draws) < 4 or len(nonsingular) < 20:
        X = oracles.random_matrix(elements, 3, 3, rng)
        draws.append(X)
        if not det(X, elements).is_zero():
            nonsingular.append(X.entries)
    assert got.samples == len(draws)
    assert got.singular_skipped == len(draws) - len(nonsingular)
    assert got.violations == tuple(nonsingular)
    assert got.reconstruction_mismatches == 6 * len(nonsingular)
