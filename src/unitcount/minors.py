"""Laplace-expansion minor reports and the zero-cofactor audit.

For a nonsingular square matrix with nonzero entries, at most n-2 of the
n minors along any fixed row or column can vanish.  The audit samples random
matrices, reading each entry's denominator-cleared ring integer straight
from the set, and takes all n^2 signed cofactors of a sample from one
cached expansion plan (`matrices._adjugate`: n-2 rounds of dot products,
each sub-minor computed once).  It then gathers every row and every column
of the sample and of its cofactors, recombines all 2n Laplace expansions in
one call, checks each against the determinant from a Bareiss elimination
(an algorithm that shares nothing with the cofactor plan), and tallies
zero minors on nonsingular samples.  `laplace_report` gives the same
expansion for one line, in Scalars, as a report.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from . import matrices
from .families import ElementSet
from .matrices import BudgetExceededError, MatrixInstance, _rank_det, _ring, det
from .scalars import Scalar, _json_form


@dataclass(frozen=True)
class MinorReport:
    """Minors along one row or column, with the signed recombination."""

    axis: str
    index: int
    minors: tuple[Scalar, ...]
    reconstruction: Scalar
    zero_count: int
    singular: bool


def _delete_line(X: MatrixInstance, row: int, col: int) -> MatrixInstance:
    entries = tuple(
        tuple(value for j, value in enumerate(r) if j != col)
        for i, r in enumerate(X.entries)
        if i != row
    )
    return MatrixInstance(X.m - 1, X.n - 1, entries)


# No count calls this; perfbench/spans.py looks it up to count its calls.
def laplace_report(
    X: MatrixInstance, elements: ElementSet, axis: str = "row", index: int = 0
) -> MinorReport:
    """Expand det(X) along one line and report the n minors (0-based index)."""
    if X.m != X.n:
        raise ValueError("Laplace expansion needs a square matrix")
    if axis not in ("row", "col"):
        raise ValueError("axis must be 'row' or 'col'")
    n = X.n
    if not 0 <= index < n:
        raise ValueError(f"line index {index} outside 0..{n - 1}")
    if n < 2:
        raise ValueError("need n >= 2")
    minors = []
    recon = Scalar.zero(elements.field)
    for j in range(n):
        row, col = (index, j) if axis == "row" else (j, index)
        minor = det(_delete_line(X, row, col), elements)
        minors.append(minor)
        entry = elements[X.entries[row][col]]
        term = entry * minor
        recon = recon + term if (row + col) % 2 == 0 else recon - term
    zero_count = sum(1 for m in minors if m.is_zero())
    return MinorReport(
        axis=axis,
        index=index,
        minors=tuple(minors),
        reconstruction=recon,
        zero_count=zero_count,
        singular=recon.is_zero(),
    )


@dataclass(frozen=True)
class AuditSummary:
    n: int
    trials: int
    seed: int
    samples: int
    nonsingular_checked: int
    singular_skipped: int
    max_zero_count: int
    zero_count_bound: int
    reconstruction_mismatches: int
    violations: tuple[tuple[tuple[int, ...], ...], ...]
    passed: bool

    def to_json(self) -> dict:
        return _json_form(self)


def _line_checks(entries, cofactors, lines, n: int, ring, value) -> tuple[int, int]:
    """(mismatches, most zero minors on one line) over the 2n Laplace
    expansions of the square matrix with row-major `entries`, signed
    `cofactors` and determinant `value`; `lines` gathers the rows and then
    the columns of a row-major n x n matrix."""
    gathered = lines(cofactors)
    sums = ring.dots(lines(entries), gathered, n)
    zero = ring.zero
    most_zero = max(gathered[k : k + n].count(zero) for k in range(0, 2 * n * n, n))
    return len(sums) - sums.count(value), most_zero


def audit_prop_zero_cofactors(
    elements: ElementSet,
    n: int,
    trials: int,
    seed: int,
    *,
    min_nonsingular: int = 0,
) -> AuditSummary:
    """Sample matrices, verify every Laplace recombination equals det, and
    check the n-2 zero-minor bound on each nonsingular sample.

    Draws `trials` samples, continuing past that if needed until
    `min_nonsingular` nonsingular matrices have been checked; more than
    100 * max(trials, min_nonsingular) draws raise BudgetExceededError.
    Singular draws are skipped for the zero-minor bound (it does not apply
    to them) but still participate in the reconstruction equality check.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if min_nonsingular < 0:
        raise ValueError(f"min_nonsingular must be >= 0, got {min_nonsingular}")
    draw = random.Random(seed).randrange
    size = len(elements)
    values = elements.scaled_integers()[1]
    ring = _ring(elements.field)
    cells = range(n * n)
    lines = operator.itemgetter(*cells, *(i * n + j for j in range(n) for i in range(n)))
    adjugate = matrices._adjugate  # by module attribute, so a test can substitute it
    bound = n - 2
    samples = 0
    nonsingular = 0
    singular = 0
    max_zero = 0
    mismatches = 0
    violations: list[tuple[tuple[int, ...], ...]] = []
    cap = 100 * max(trials, min_nonsingular, 1)
    while samples < trials or nonsingular < min_nonsingular:
        if samples >= cap:
            raise BudgetExceededError(
                samples + 1, cap, f"minor audit for {min_nonsingular} nonsingular samples"
            )
        # One randrange per entry, row-major; pinned audit summaries depend on it.
        indices = [draw(size) for _ in cells]
        samples += 1
        entries = [values[j] for j in indices]
        value = _rank_det([entries[k : k + n] for k in range(0, n * n, n)], ring)[1]
        cofactors = adjugate(entries, ring, n)
        bad_lines, matrix_max_zero = _line_checks(entries, cofactors, lines, n, ring, value)
        mismatches += bad_lines
        if value == ring.zero:
            singular += 1
            continue
        nonsingular += 1
        max_zero = max(max_zero, matrix_max_zero)
        if matrix_max_zero > bound:
            violations.append(tuple(tuple(indices[k : k + n]) for k in range(0, n * n, n)))
    passed = not violations and mismatches == 0
    return AuditSummary(
        n=n,
        trials=trials,
        seed=seed,
        samples=samples,
        nonsingular_checked=nonsingular,
        singular_skipped=singular,
        max_zero_count=max_zero,
        zero_count_bound=bound,
        reconstruction_mismatches=mismatches,
        violations=tuple(violations),
        passed=passed,
    )
