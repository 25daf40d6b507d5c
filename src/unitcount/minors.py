"""Laplace-expansion minor reports and the zero-cofactor audit.

For a nonsingular square matrix with nonzero entries, at most n-2 of the
n minors along any fixed row or column can vanish.  The audit runs its
random samples in batches of lanes: a cell is one numpy array of ring
integers read from the set, one per sample (over Q(i), a pair of arrays).
One pass of the cached adjugate plan (`matrices._adjugate`) gives every
lane's n^2 signed cofactors, one `ring.dots` call recombines all 2n rows
and columns, and each is compared with the det (-1)^n c_0 from Berkowitz
(`matrices._charpoly_coeffs`: no division, no branch, nothing shared with
the cofactor plan); zero minors are tallied on nonsingular lanes.  Lanes
are int64 where `_lane_dtype` proves it exact, Python ints otherwise.
`laplace_report` gives one line's expansion, in Scalars, as a report.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import matrices
from .families import ElementSet
from .matrices import BudgetExceededError, MatrixInstance, _charpoly_coeffs, _ring, det
from .scalars import QI, Scalar, _json_form

_LANES = 1 << 10  # samples per batch


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


def _lane_dtype(values, n: int):
    """int64 when (n+2) (n M)^n < 2^62, M the largest |x| of the ring
    `values` (M^2 = re^2 + im^2 over Q(i)); else object, Python ints.

    Each adjugate minor, and each partial sum of a minor's or a line's
    expansion, is a partial Leibniz sum: at most n! M^n <= (n M)^n, and a
    line sum less the det twice that.  Berkowitz's step to the (r+1)-block
    convolves t_i = R A^(i-2) C <= r^(i-1) M^i with p_j <= r^j M^j, i + j
    <= r + 1, so each term is at most (r M)^(r+1) and a sum of r + 2 of them
    below (n+2) (n M)^n.  Over Q(i) these bound moduli, hence both parts."""
    square = max(v[0] ** 2 + v[1] ** 2 if isinstance(v, tuple) else v * v for v in values)
    return np.int64 if (n + 2) ** 2 * n ** (2 * n) * square**n < 1 << 124 else object


def _nonzero(value):
    """The lanes where a ring value (an array, or a Q(i) pair) is nonzero."""
    return (value[0] | value[1] if isinstance(value, tuple) else value) != 0


def audit_prop_zero_cofactors(
    elements: ElementSet, n: int, trials: int, seed: int, *, min_nonsingular: int = 0
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
    table = np.array(values, dtype=_lane_dtype(values, n)).T
    ring = _ring(elements.field)
    cells = n * n
    lines = operator.itemgetter(*range(cells), *(i * n + j for j in range(n) for i in range(n)))
    bound = n - 2
    samples = nonsingular = max_zero = mismatches = 0
    violations: list[tuple[tuple[int, ...], ...]] = []
    cap = 100 * max(trials, min_nonsingular, 1)
    while samples < trials or nonsingular < min_nonsingular:
        if samples >= cap:
            raise BudgetExceededError(
                samples + 1, cap, f"minor audit for {min_nonsingular} nonsingular samples"
            )
        lanes = min(max(trials - samples, min_nonsingular - nonsingular), cap - samples, _LANES)
        # A batch draws no more samples than are still needed, one randrange per
        # entry, row-major, as one sample at a time did; pinned summaries need it.
        indices = np.fromiter(map(draw, repeat(size, lanes * cells)), np.intp).reshape(lanes, cells)
        gathered = table[..., indices.T]
        flat = list(zip(*gathered)) if elements.field == QI else list(gathered)
        value = _charpoly_coeffs([flat[k : k + n] for k in range(0, cells, n)], ring)[0]
        value = ring.neg(value) if n % 2 else value
        cofactors = matrices._adjugate(flat, ring, n)  # looked up here, so tests can swap it
        sums = ring.dots(lines(flat), lines(cofactors), n)
        mismatches += int(np.count_nonzero([_nonzero(ring.sub(s, value)) for s in sums]))
        nonzero = np.array(list(map(_nonzero, cofactors))).reshape(n, n, lanes)
        most = n - np.minimum(nonzero.sum(axis=0), nonzero.sum(axis=1)).min(axis=0)
        checked = _nonzero(value)
        samples += lanes
        nonsingular += int(np.count_nonzero(checked))
        max_zero = max(max_zero, int(most[checked].max(initial=0)))
        for lane in np.flatnonzero(checked & (most > bound)):
            violations.append(tuple(map(tuple, indices[lane].reshape(n, n).tolist())))
    return AuditSummary(
        n=n, trials=trials, seed=seed, samples=samples, nonsingular_checked=nonsingular,
        singular_skipped=samples - nonsingular, max_zero_count=max_zero,
        zero_count_bound=bound, reconstruction_mismatches=mismatches,
        violations=tuple(violations), passed=not violations and mismatches == 0,
    )
