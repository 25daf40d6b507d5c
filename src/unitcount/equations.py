"""Exact solution counting for linear equations with variables in a finite set.

Every count runs over plain Python ints.  The elements are the set's
denominator-cleared ring integers L*x (`ElementSet.scaled_integers`, L the
set's denominator), the coefficients are scaled by M, the lcm of their and the
rhs's denominators, and the rhs by M*L, so each term (M*a_j)*(L*x) is an
integer digit vector: (re) over Q, (re, im) over Q(i).  The zero-sum system
takes the pairs (L*x, (L*x)^2), exact as both its sums are zero.  A vector c is
packed into the single int sum_j c_j * R^j with R = 2^(bitlen(B) + 1), where
B is |rhs| plus, over the variables, each variable's largest digit.  Every
partial sum and every lookup key rhs - s then has all |c_j| <= B < R/2, and
two such vectors differ by digits below R, so the packing is injective on
them; it is linear, so sums of packed ints are the packed sums.  Python ints
are exact at any size, so no bound on the machine word is needed.

The counter meets in the middle: it tallies the packed partial sums of the
first half of the variables into a hash table and streams the second half
against it, turning an A^n scan into roughly A^(n/2) work and memory.  Under
an entry cap the left half's sums fill the table until it holds exactly cap
keys; the right half is streamed against it, the table is cleared, and the
fill resumes at the next sum.  Every key comes from at least one sum, so a
count takes at most ceil(left sums / cap) tables and right-half streams,
trading time for memory without giving up exactness or determinism.

Equal coefficients give equal rows, and the tight patterns repeat one
coefficient up to n/2 times, so each half is walked over multisets rather
than ordered tuples.  The rows are ordered so equal ones sit together, and a
run of k equal rows T is one group.  Each multiset of k draws from T is an
index run i_1 < ... < i_r with multiplicities m_1 + ... + m_r = k; it adds
m_1*T[i_1] + ... + m_r*T[i_r] and stands for the k!/(m_1! ... m_r!) ordered
tuples that hold it, so a group costs about A^k/k! sums instead of A^k.
Groups combine by product.  The all-distinct pattern (every m_j = 1) is most
of the work; it is tallied in one pass and its weight k! applied afterwards,
while the smaller patterns add their weights key by key.  When the left
half's multisets outnumber the cap, each pattern goes in batches of at most
the room left in the table; a batch that opens an empty table, or has
weight 1, takes the one-pass tally.
"""

from __future__ import annotations

import json
import math
from collections import _count_elements
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, product, repeat
from operator import mul
from pathlib import Path

from .families import ElementSet
from .matrices import _charged, _ring, _ring_key
from .scalars import Q, FieldMismatchError, Scalar, _read_fields, _refuse_unknown_keys

# Cap on hash-table entries for the meet-in-the-middle join.
DEFAULT_MAX_ENTRIES = 2_000_000


@dataclass(frozen=True)
class EquationSpec:
    """a_1*x_1 + ... + a_n*x_n = rhs with all a_j nonzero.  rhs defaults
    to 0 over Q; read from JSON, a missing "rhs" is "0" in the object's
    field."""

    coeffs: tuple[Scalar, ...]
    rhs: Scalar = Scalar.zero(Q)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("equation needs at least one coefficient")
        field = self.coeffs[0].field
        for coeff in self.coeffs:
            if coeff.field != field:
                raise ValueError("equation mixes fields")
            if coeff.is_zero():
                raise ValueError("zero coefficient")
        if self.rhs.field != field:
            raise ValueError("rhs field differs from coefficient field")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def field(self) -> str:
        return self.coeffs[0].field


def equation_from_json(obj: dict) -> EquationSpec:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("equation object needs a 'coeffs' key")
    _refuse_unknown_keys(obj, ("coeffs", "rhs", "field"), "equation object")
    return EquationSpec(**_read_fields(EquationSpec, obj, obj.get("field", Q)))


def load_equation(path: str | Path) -> EquationSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return equation_from_json(json.load(handle))


def _pack(rows: list[list[tuple]], rhs: tuple) -> tuple[list[list[int]], int]:
    """Packed ints of every term in rows (one list per variable) and of rhs.

    A term is a tuple of ring values, ints over Q and (re, im) pairs over
    Q(i); its digits are their ints in order.  Variables that share one list
    object share one packed list.
    """
    def digits(term: tuple) -> list[int]:
        return [c for x in term for c in (x if isinstance(x, tuple) else (x,))]

    distinct = {id(row): row for row in rows}
    digit_rows = {key: [digits(t) for t in row] for key, row in distinct.items()}
    peaks = {key: max(abs(c) for vec in row for c in vec) for key, row in digit_rows.items()}
    rhs_digits = digits(rhs)
    bound = max(map(abs, rhs_digits)) + sum(peaks[id(row)] for row in rows)
    shift = bound.bit_length() + 1

    def pack(vec: list[int]) -> int:
        value = 0
        for c in reversed(vec):
            value = (value << shift) + c
        return value

    packed = {key: [pack(vec) for vec in row] for key, row in digit_rows.items()}
    return [packed[id(row)] for row in rows], pack(rhs_digits)


def _equation_rows(eq: EquationSpec, elements: ElementSet) -> tuple[list[list[int]], int]:
    if elements.field != eq.field:
        raise FieldMismatchError(
            f"equation field {eq.field} does not match set field {elements.field}"
        )
    lcm, values = elements.scaled_integers()
    scale = math.lcm(eq.rhs.den, *(c.den for c in eq.coeffs))
    scales = (scale,) * eq.n + (scale * lcm,)
    *coeffs, rhs = _ring_key(eq.field, (*eq.coeffs, eq.rhs), scales)
    times = _ring(eq.field).mul
    terms = {c: [(times(c, x),) for x in values] for c in dict.fromkeys(coeffs)}
    return _pack([terms[c] for c in coeffs], (rhs,))


@lru_cache(maxsize=None)
def _compositions(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(k!/(m_1! ... m_r!), (m_1, ..., m_r)) for every composition of k.

    The all-ones composition, the multisets of k distinct draws, comes first.
    """
    def parts(rest: int) -> list[tuple[int, ...]]:
        if not rest:
            return [()]
        return [(m,) + tail for m in range(1, rest + 1) for tail in parts(rest - m)]

    ordered = sorted(parts(k), key=len, reverse=True)
    return tuple(
        (math.factorial(k) // math.prod(map(math.factorial, m)), m) for m in ordered
    )


def _draws(row: list[int], mults: tuple[int, ...], start: int) -> Iterable[int]:
    """start + m_1*row[i_1] + ... + m_r*row[i_r] over every i_1 < ... < i_r."""
    if mults == (1,):
        return map(start.__add__, row)
    runs = combinations(row, len(mults))
    if max(mults) == 1:
        return map(sum, runs, repeat(start))
    return (sum(map(mul, mults, run), start) for run in runs)


def _groups(terms: list[list[int]]) -> list[list]:
    """[row, k] for each run of k consecutive terms that are one list object."""
    groups: list[list] = []
    for row in terms:
        if groups and groups[-1][0] is row:
            groups[-1][1] += 1
        else:
            groups.append([row, 1])
    return groups


def _weighted_sums(groups: list, start: int) -> Iterator[tuple[int, Iterable[int]]]:
    """(weight, sums) pairs, one per choice of a composition for each group.

    Over all pairs, every ordered tuple of one draw per variable is counted
    once: each sum stands for weight tuples.  The first pair is the one where
    every group draws distinct indices.
    """
    if not groups:
        yield 1, [start]
        return
    *outer, (row, k) = groups
    for choice in product(*[_compositions(j) for _, j in outer]):
        weight = math.prod([w for w, _ in choice])
        heads = [list(_draws(r, m, 0)) for (r, _), (_, m) in zip(outer, choice)]
        for w, mults in _compositions(k):
            if not heads:
                yield weight * w, _draws(row, mults, start)
            else:
                yield weight * w, chain.from_iterable(
                    _draws(row, mults, start + sum(head)) for head in product(*heads)
                )


def _resumable(
    pairs: Iterator[tuple[int, Iterable[int]]],
) -> Iterator[tuple[int, Iterator[int]]]:
    """The pairs with their sums as one shared iterator each, yielded again
    while sums are left, so a consumer that stops partway through a pair
    resumes it at the next step; empty sums are never yielded."""
    for weight, sums in pairs:
        sums = iter(sums)
        for head in sums:
            yield weight, chain((head,), sums)


def _tally_sums(
    pairs: Iterable[tuple[int, Iterable[int]]],
    max_entries: int | None,
    table: dict[int, int],
) -> None:
    """Fill the empty table from the (weight, sums) pairs, each sum keyed to
    the number of ordered tuples that give it, until the pairs run out or the
    table holds max_entries keys (None: no cap).

    No batch is longer than the room left, so the table never grows past
    max_entries.  A batch takes no sum past its own, so with pairs from
    `_resumable` the next call resumes at the first sum not yet tallied.
    """
    get = table.get
    for weight, sums in pairs:
        batch = sums if max_entries is None else islice(sums, max_entries - len(table))
        if weight == 1 or not table:
            # Counter.update's C counting loop, run on the plain dict; a
            # weighted batch comes here only into an empty table.
            _count_elements(table, batch)
            if weight > 1:
                for key in table:
                    table[key] *= weight
        else:
            for key in batch:
                table[key] = get(key, 0) + weight
        if len(table) == max_entries:
            return


def _count_lookups(terms: list[list[int]], rhs: int, table: dict[int, int]) -> int:
    """Sum table[rhs - (t_1 + ...)] over the term lists."""
    groups = [[[-t for t in row], k] for row, k in _groups(terms)]
    get = table.get
    return sum(
        weight * sum(map(get, keys, repeat(0)))
        for weight, keys in _weighted_sums(groups, rhs)
    )


def _join(rows: list[list[int]], rhs: int, max_entries: int) -> int:
    """Number of tuples, one packed term per row, summing to rhs.

    The left half's weighted sums fill a table until it holds max_entries
    keys; the right half is streamed against it once, the table is cleared,
    and the fill resumes where it stopped.  Each key comes from at least one
    left sum, so there are at most ceil(left sums / max_entries) tables, and
    one when the left half's multisets number at most max_entries.
    """
    if max_entries < 1:
        raise ValueError("max_entries must be at least 1")
    # Rows that are one list object side by side, the largest group first;
    # the count does not depend on the order of the variables.
    groups: dict[int, list[list[int]]] = {}
    for row in rows:
        groups.setdefault(id(row), []).append(row)
    rows = [
        row for group in sorted(groups.values(), key=len, reverse=True) for row in group
    ]
    half = (len(rows) + 1) // 2
    left, right = rows[:half], rows[half:]
    left_groups = _groups(left)
    pairs = _weighted_sums(left_groups, 0)
    # A run of k equal rows draws C(A + k - 1, k) multisets.
    multisets = math.prod(math.comb(len(row) + k - 1, k) for row, k in left_groups)
    if multisets > max_entries:
        pairs = _resumable(pairs)
    else:
        # One table takes every left sum, so no batch is cut.
        max_entries = None
    total = 0
    # Taking the next pair tells whether any left sum is still untallied.
    for pair in pairs:
        table: dict[int, int] = {}
        _tally_sums(chain((pair,), pairs), max_entries, table)
        total += _count_lookups(right, rhs, table)
    return total


def count_solutions(
    eq: EquationSpec,
    elements: ElementSet,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> int:
    """Exact number of tuples in elements^n satisfying the equation."""
    rows, rhs = _equation_rows(eq, elements)
    return _join(rows, rhs, max_entries)


def count_system_sum_squares(
    n: int,
    elements: ElementSet,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> int:
    """Count tuples with x_1 + ... + x_n = 0 and x_1^2 + ... + x_n^2 = 0.

    The same join as count_solutions, over the packed pairs (x, x^2) of the
    set's ring integers with rhs (0, 0).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _, values = elements.scaled_integers()
    ring = _ring(elements.field)
    rows, rhs = _pack([[(x, ring.mul(x, x)) for x in values]] * n, (ring.zero,) * 2)
    return _join(rows, rhs, max_entries)


@dataclass(frozen=True)
class SubsumClassification:
    """Solution counts grouped by the maximal vanishing index subset.

    Keys are 1-based index tuples; the empty tuple collects solutions in
    which no nonempty subset of terms sums to zero.  Ties between maximal
    vanishing subsets of equal size break to the lexicographically smallest
    index tuple.
    """

    classes: dict[tuple[int, ...], int]
    total: int


@lru_cache(maxsize=None)
def _mask_scan_order(n: int) -> list[tuple[int, tuple[int, ...]]]:
    masks = []
    for mask in range(1, 1 << n):
        indices = tuple(j + 1 for j in range(n) if mask >> j & 1)
        masks.append((mask, indices))
    masks.sort(key=lambda entry: (-len(entry[1]), entry[1]))
    return masks


def classify_by_vanishing_subsums(
    eq: EquationSpec, elements: ElementSet, *, budget: int | None = None
) -> SubsumClassification:
    """Group every solution by its maximal vanishing subset of terms.

    Walks the A^(n-1) choices of the first n-1 terms; the last term is the
    one that completes the sum, if the set holds it.  Exhaustive, so n is
    capped at 10, and the walk is charged its A^(n-1) choices against the
    work budget (resolved as for the matrix counts) before it starts.
    """
    n = eq.n
    if n > 10:
        raise ValueError("classification is exhaustive; n is capped at 10")
    rows, rhs = _equation_rows(eq, elements)
    _charged(len(elements) ** (n - 1), budget, "classify")
    # Distinct elements give distinct terms a_n*x, so at most one completes.
    last = set(rows[-1])
    order = _mask_scan_order(n)
    classes: dict[tuple[int, ...], int] = {}
    total = 0
    sums = [0] * (1 << n)
    for combo in product(*rows[:-1]):
        tail = rhs - sum(combo)
        if tail not in last:
            continue
        total += 1
        terms = combo + (tail,)
        # Subset sums over the n packed terms, low bit = index 1.
        for mask in range(1, 1 << n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + terms[low.bit_length() - 1]
        indices = next((idx for mask, idx in order if not sums[mask]), ())
        classes[indices] = classes.get(indices, 0) + 1
    return SubsumClassification(classes=classes, total=total)
