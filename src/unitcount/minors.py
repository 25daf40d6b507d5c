"""Laplace-expansion minor reports and the zero-cofactor audit.

For a nonsingular square matrix with nonzero entries, at most n-2 of the
n minors along any fixed row or column can vanish.  The audit runs its
random samples in batches of lanes: a cell is one numpy array of ring
integers read from the set, one per sample (over Q(i), a pair of arrays).
The det sweep's Laplace fold (`matrices._adjugate`) gives every lane's n^2
signed cofactors, one `ring.dots` call recombines all 2n rows and columns,
and each is compared with the det (-1)^n c_0 from Berkowitz
(`matrices._charpoly_coeffs`: no division, no branch, nothing shared with
the cofactor fold); zero minors are tallied on nonsingular lanes.  Lanes
are int64 where `_kernels.audit_dtype` proves it exact, Python ints
otherwise.  The entries' indices are those of one `randrange` per entry,
drawn in bulk (`_index_stream`).  `laplace_report` gives one line's
expansion, in Scalars, as a report.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

from . import _kernels, matrices
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


def _index_stream(rng: random.Random, size: int):
    """`take(count)`: the next `count` of the indices that calls of
    `rng.randrange(size)` give, as an intp array.

    For 0 < size < 2^32, `randrange(size)` is CPython's `_randbelow`: one
    32-bit Mersenne Twister word per try, shifted right to k =
    size.bit_length() bits, tried again while it is >= size.  One
    `getrandbits(32 N)` call gives the next N words, little-endian, so the
    tries are drawn N at a time, N the expected number one batch needs, and
    the indices a batch leaves over are kept for the next."""
    shift = 32 - size.bit_length()
    spare = np.empty(0, dtype=np.intp)

    def take(count: int) -> np.ndarray:
        nonlocal spare
        parts = [spare]
        have = len(spare)
        while have < count:
            words = -(-((count - have) << (32 - shift)) // size)
            bits = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            tries = np.frombuffer(bits, "<u4") >> shift
            parts.append(tries[tries < size].astype(np.intp))
            have += len(parts[-1])
        stream = np.concatenate(parts)
        spare = stream[count:]
        return stream[:count]

    return take


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
    draw = _index_stream(random.Random(seed), len(elements))
    values = elements.scaled_integers()[1]
    table = np.array(values, dtype=_kernels.audit_dtype(values, n)).T
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
        # A batch takes no more samples than are still needed, an index per
        # entry, row-major, as one sample at a time did; pinned summaries need it.
        indices = draw(lanes * cells).reshape(lanes, cells)
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
