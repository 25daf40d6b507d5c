"""Property tests of the planner's ring-integer routes on random small sets
with signs and denominators, over Q and Qi: the 2x2 product convolutions
(conv2), as single counts and as the 2x2 sweep, and the power sums at
n = 1..4 (powersums), as single counts and as the sweep, equal the
histograms of the per-matrix generic sweep, rank <= k by the ordered walk
over the flats (flats) equals its rank profile and the Fraction oracle
(where it is small), and no count depends on the order of the elements.
The generic sweep (`conftest.generic_sweep`) is the reference because every
other sweep takes its rank profile from the flats walk and its det zeros;
that profile is checked against the per-matrix Bareiss loop at every shape
up to 4x4 and at 2x5, 5x2 and 3x5, and every rank count in four dimensions
against the distinct-row oracle.  The 3x3
int64 sweep, with its det over unordered row triples, is checked against
the generic sweep and the oracle on shuffled Q sets with sign pairs
(x, -x).  The 3x3 charpoly join over cycle invariants (cycles3), as the
sweep and as single counts, is checked against the generic sweep's
per-matrix Berkowitz charpoly on shuffled Q sets, Qi sets and sets past the
int64 det proof, and its decoded keys against the Fraction oracle.  The
3x3 int64 det over Qi, on packed keys, is checked against the shared-minors
det on shuffled Qi sets with denominators and values of equal norm.  Needs
hypothesis; skipped without it."""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from conftest import generic_sweep  # noqa: E402
from unitcount import _kernels, matrices  # noqa: E402
from unitcount.families import ElementSet  # noqa: E402
from unitcount.matrices import (  # noqa: E402
    SweepOptions,
    count_charpoly,
    count_det,
    count_power_sums,
    count_rank,
    fast_charpoly2_count,
    fast_det2_count,
    fast_power_sums2_count,
    sweep,
)
from unitcount.scalars import Q, QI, Scalar, parse_scalar  # noqa: E402

_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def _element_sets(draw, max_size: int) -> tuple[ElementSet, ElementSet]:
    """A random set and the same elements in another order."""
    field = draw(st.sampled_from([Q, QI]))
    imag = st.integers(-3, 3) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-6, 6), imag, st.integers(1, 4),
    ).filter(lambda s: not s.is_zero())
    picks = draw(st.lists(scalars, min_size=1, max_size=max_size, unique=True))
    shuffled = draw(st.permutations(picks))
    return ElementSet(tuple(picks)), ElementSet(tuple(shuffled))


def _oracle_ranks(elements: ElementSet, m: int, n: int) -> dict[int, int]:
    ranks: dict[int, int] = {}
    for combo in oracles.all_matrices(elements, m, n):
        rows = [[oracles.pair(combo[i * n + j]) for j in range(n)] for i in range(m)]
        r = oracles.rank_pairs(rows)
        ranks[r] = ranks.get(r, 0) + 1
    return ranks


def _at_most(profile: dict[int, int], r: int) -> int:
    return sum(c for k, c in profile.items() if k <= r)


@_SETTINGS
@given(_element_sets(5))
def test_conv2_counts_match_the_sweep(case):
    elements, shuffled = case
    field = elements.field
    opts = SweepOptions(rank=False, det=True, charpoly=True, powersums=True)
    hist = generic_sweep(elements, 2, 2, opts)
    lcm, _ = elements.scaled_integers()
    # Absent keys: one in the ring, one whose denominator is off the ring.
    absent = Scalar.rational(10**6 + 7, 1, field)
    off_ring = Scalar.rational(1, 3 * lcm * lcm, field)

    dets = dict(oracles.det_histogram(hist))
    for target in (absent, off_ring):
        assert target not in dets
        dets[target] = 0
    for target, count in dets.items():
        assert fast_det2_count(elements, target) == count, target
        assert fast_det2_count(shuffled, target) == count, target
        assert count_det(elements, 2, target) == count, target

    polys = dict(oracles.charpoly_histogram(hist))
    some = next(iter(polys))
    for key in ((absent, some[1]), (some[0], off_ring)):
        assert key not in polys
        polys[key] = 0
    for key, count in polys.items():
        assert fast_charpoly2_count(elements, key) == count, key
        assert fast_charpoly2_count(shuffled, key) == count, key
        assert count_charpoly(elements, 2, key) == count, key

    sums = dict(oracles.powersum_histogram(hist))
    t1, t2 = next(iter(sums))
    # t2 + 1 may flip the parity of t2 less the diagonal squares, which
    # then is no doubled off-diagonal sum.
    for key in ((absent, t2), (t1, off_ring), (t1, t2 + Scalar.one(field))):
        sums.setdefault(key, 0)
    for (t1, t2), count in sums.items():
        assert fast_power_sums2_count(elements, t1, t2) == count, (t1, t2)
        assert fast_power_sums2_count(shuffled, t1, t2) == count, (t1, t2)
        assert count_power_sums(elements, 2, t1, t2) == count, (t1, t2)


@st.composite
def _conv2_sweep_cases(draw) -> tuple[ElementSet, SweepOptions]:
    """A shuffled Q or Qi set of up to 6 elements with denominators, often
    holding x with -x (and over Qi with i x), and any mix of statistics."""
    field = draw(st.sampled_from([Q, QI]))
    imag = st.integers(-3, 3) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-6, 6), imag, st.integers(1, 4),
    ).filter(lambda s: not s.is_zero())
    picks: list[Scalar] = []
    for x in draw(st.lists(scalars, min_size=1, max_size=4, unique=True)):
        picks.append(x)
        if draw(st.booleans()):
            picks.append(-x)
        if field == QI and draw(st.booleans()):
            picks.append(Scalar(QI, 0, 1) * x)
    picks = list(dict.fromkeys(picks))[:6]
    stats = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    opts = SweepOptions(*stats)
    return ElementSet(tuple(draw(st.permutations(picks)))), opts


@_SETTINGS
@given(_conv2_sweep_cases())
def test_conv2_sweep_matches_the_per_matrix_sweep(case):
    elements, opts = case
    hist = sweep(elements, 2, 2, opts)
    generic = generic_sweep(elements, 2, 2, opts)
    assert hist.rank_profile == generic.rank_profile
    assert hist.raw == generic.raw


@st.composite
def _power_sums_cases(draw) -> tuple[int, ElementSet, ElementSet]:
    """n = 1..4 with a Q set (denominators, often x with -x) or a Qi set,
    and the same set shuffled; at most 6, 4, 3 and 2 elements at n = 1, 2,
    3 and 4, so the per-matrix reference stays at most 2^16 matrices."""
    n = draw(st.integers(1, 4))
    size = {1: 6, 2: 4, 3: 3, 4: 2}[n]
    field = draw(st.sampled_from([Q, QI]))
    imag = st.integers(-3, 3) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-6, 6), imag, st.integers(1, 4),
    ).filter(lambda s: not s.is_zero())
    picks: list[Scalar] = []
    for x in draw(st.lists(scalars, min_size=1, max_size=size, unique=True)):
        picks.append(x)
        if draw(st.booleans()):
            picks.append(-x)
    picks = list(dict.fromkeys(picks))[:size]
    shuffled = draw(st.permutations(picks))
    return n, ElementSet(tuple(picks)), ElementSet(tuple(shuffled))


@_SETTINGS
@given(_power_sums_cases())
def test_power_sums_route_matches_the_per_matrix_sweep(case):
    n, elements, shuffled = case
    field = elements.field
    opts = SweepOptions(rank=False, det=False, powersums=True)
    generic = generic_sweep(elements, n, n, opts)
    assert sweep(elements, n, n, opts).raw == generic.raw
    assert sweep(shuffled, n, n, opts).raw == generic.raw
    sums = dict(oracles.powersum_histogram(generic))
    t1, t2 = next(iter(sums))
    lcm, _ = elements.scaled_integers()
    # Absent, not scalable into the ring, and with an odd remainder: the
    # squares of every diagonal of trace t1 have the parity of t2 (in each
    # part over Qi), so t2 + 1/lcm^2, and over Qi t2 + i/lcm^2, leave an
    # odd remainder for every diagonal and are no key.
    odd = [Scalar(field, 1, 0, lcm * lcm)]
    if field == QI:
        odd.append(Scalar(QI, 0, 1, lcm * lcm))
    others = [(Scalar.rational(10**6 + 7, 1, field), t2),
              (Scalar.rational(1, 3 * lcm, field), t2),
              (t1, Scalar.rational(1, 3 * lcm * lcm, field))]
    others += [(t1, t2 + step) for step in odd]
    for key in others:
        assert key not in sums
        sums[key] = 0
    for (t1, t2), count in sums.items():
        assert count_power_sums(elements, n, t1, t2) == count, (t1, t2)
        assert count_power_sums(shuffled, n, t1, t2) == count, (t1, t2)


# 2 x n and 3 x n and their transposes, at most 3^9 matrices.
_RANK1_CASES = st.tuples(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                     (4, 2), (1, 3)]),
    _element_sets(3),
)


@_SETTINGS
@given(_RANK1_CASES)
def test_rank1_matches_the_sweep(case):
    (m, n), (elements, shuffled) = case
    profile = generic_sweep(elements, m, n, SweepOptions(det=False)).rank_profile
    expected = profile.get(1, 0)
    d, w = min(m, n), max(m, n)
    assert matrices._flats_walk(elements, d, w, 1) == [0, expected]
    assert matrices._flats_walk(shuffled, d, w, 1) == [0, expected]
    assert count_rank(elements, m, n, 1) == expected
    if len(elements) ** (m * n) <= 2**9:
        assert _oracle_ranks(elements, m, n).get(1, 0) == expected


@_SETTINGS
@given(_element_sets(3))
def test_flats_count_3x3_det_zero(case):
    elements, shuffled = case
    zero = Scalar.zero(elements.field)
    hist = generic_sweep(elements, 3, 3, SweepOptions())
    singular = hist.raw["det"].get(matrices._ring(elements.field).zero, 0)
    assert _at_most(hist.rank_profile, 2) == singular
    assert matrices.plan_square(3, elements, "det", det_zero=True).name == "flats"
    assert count_det(elements, 3, zero) == singular
    assert count_det(shuffled, 3, zero) == singular
    assert count_rank(elements, 3, 3, 2, cumulative=True) == singular
    assert count_rank(elements, 3, 3, 2, cumulative=False) == hist.rank_profile.get(2, 0)
    if len(elements) <= 2:
        assert _at_most(_oracle_ranks(elements, 3, 3), 2) == singular


@_SETTINGS
@given(st.sampled_from([(3, 4), (4, 3)]), _element_sets(2))
def test_flats_count_rank_two_with_a_side_of_three(shape, case):
    m, n = shape
    elements, shuffled = case
    profile = generic_sweep(elements, m, n, SweepOptions(det=False)).rank_profile
    assert matrices.plan_rank(m, n, 2, True, len(elements)).name == "flats"
    expected = _at_most(profile, 2)
    assert matrices._flats_walk(elements, 3, 4, 2)[2] == expected
    assert matrices._flats_walk(shuffled, 3, 4, 2)[2] == expected
    assert count_rank(elements, m, n, 2, cumulative=True) == expected
    assert count_rank(shuffled, m, n, 2, cumulative=False) == profile.get(2, 0)


@st.composite
def _sign_pair_sets(draw) -> tuple[ElementSet, int]:
    """A shuffled Q set of 1 to 3 elements with denominators, often holding
    both x and -x, and a pair chunk size for the 3x3 det sweep."""
    size = draw(st.sampled_from([3, 2, 1]))
    magnitudes = draw(st.lists(
        st.builds(lambda num, den: Scalar.rational(num, den, Q),
                  st.integers(1, 6), st.integers(1, 4)),
        min_size=size, max_size=size, unique=True,
    ))
    picks: list[Scalar] = []
    for x in magnitudes:
        picks.append(x if draw(st.booleans()) else -x)
        if draw(st.booleans()):
            picks.append(-picks[-1])
    chunk = draw(st.sampled_from([1, 3, 40, 1 << 20]))
    return ElementSet(tuple(draw(st.permutations(picks[:size])))), chunk


@_SETTINGS
@given(_sign_pair_sets())
def test_triple_det_sweep_matches_the_generic_sweep_and_oracle(case):
    elements, chunk = case
    with mock.patch.object(_kernels, "_CHUNK", chunk):
        hist = sweep(elements, 3, 3, SweepOptions())
    generic = generic_sweep(elements, 3, 3, SweepOptions())
    assert hist.rank_profile == generic.rank_profile
    assert hist.raw["det"] == generic.raw["det"]
    if len(elements) <= 2:
        assert hist.rank_profile == _oracle_ranks(elements, 3, 3)


@st.composite
def _gaussian_sets(draw) -> tuple[ElementSet, int, int]:
    """A shuffled Qi set of 1 to 4 elements with denominators, each value z
    often followed by partners of equal norm (-z, i z, -i z, its
    conjugate), and a pair chunk size and a det batch size for the kernel."""
    size = draw(st.integers(1, 4))
    values = st.builds(
        lambda re, im, den: Scalar(QI, re, im, den),
        st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3),
    ).filter(lambda s: not s.is_zero())
    i = Scalar(QI, 0, 1)
    partners = {
        "neg": lambda z: -z,
        "i": lambda z: i * z,
        "-i": lambda z: -(i * z),
        "conj": lambda z: Scalar(QI, z.re, -z.im, z.den),
    }
    picks: list[Scalar] = []
    for z in draw(st.lists(values, min_size=1, max_size=size, unique=True)):
        picks.append(z)
        for name in draw(st.lists(st.sampled_from(sorted(partners)), max_size=2, unique=True)):
            picks.append(partners[name](z))
    picks = list(dict.fromkeys(picks))[:size]
    chunk = draw(st.sampled_from([7, 1 << 20]))
    batch = draw(st.sampled_from([97, 1 << 17]))
    return ElementSet(tuple(draw(st.permutations(picks)))), chunk, batch


@_SETTINGS
@given(_gaussian_sets())
def test_gaussian_triple_dets_match_the_shared_minors(case):
    """The Q(i) kernel's packed triple dets, grouped and unpacked, give the
    det histogram of `_square_det`, and its one-key count each key of it."""
    elements, chunk, batch = case
    _, values = elements.scaled_integers()
    assert _kernels.supports(values)
    rows = list(itertools.product(values, repeat=3))
    expected = matrices._square_det(rows, 3, matrices._ring(QI))
    with mock.patch.object(_kernels, "_CHUNK", chunk), \
            mock.patch.object(_kernels, "_BATCH", batch):
        assert _kernels.sweep_square(values)["det"] == expected
        common = max(expected, key=expected.get)
        for key in {(0, 0), common, (-common[0], -common[1]), (10**6 + 7, 1)}:
            assert _kernels.count_target3(values, key) == expected.get(key, 0), key


@st.composite
def _rank_sets(draw, field: str, size: int) -> ElementSet:
    """A shuffled set of `size` elements of `field`: over Q with
    denominators, often holding x with -x."""
    imag = st.integers(-3, 3) if field == QI else st.just(0)
    scalars = st.builds(
        lambda re, im, den: Scalar(field, re, im, den),
        st.integers(-6, 6), imag, st.integers(1, 4),
    ).filter(lambda s: not s.is_zero())
    picks: list[Scalar] = []
    for x in draw(st.lists(scalars, min_size=size, max_size=size, unique=True)):
        picks.append(x)
        if field == Q and draw(st.booleans()):
            picks.append(-x)
    picks = list(dict.fromkeys(picks))[:size]
    return ElementSet(tuple(draw(st.permutations(picks))))


def _rank_cases() -> list[tuple[int, int, str, int]]:
    """(m, n, field, size) for every shape up to 4x4 and 2x5, 5x2 and 3x5,
    with the most elements, up to 3, that give at most 2^16 matrices.
    Shapes past 2^12 matrices take one field each, Q and Qi in turn."""
    cases = []
    turn = itertools.cycle([QI, Q])
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5), (5, 2), (3, 5)]
    for m, n in shapes:
        size = max(a for a in (1, 2, 3) if a ** (m * n) <= 1 << 16)
        fields = [Q, QI] if size ** (m * n) <= 1 << 12 else [next(turn)]
        cases += [(m, n, field, size) for field in fields]
    return cases


@pytest.mark.parametrize("m,n,field,size", _rank_cases())
def test_sweep_rank_profile_matches_per_matrix_bareiss(m, n, field, size):
    # The profile comes from the flats walk and, for a square,
    # the det zeros, whichever of the 3x3 kernel, the 2x2 convolution or the
    # cofactor pass built them; asked with charpoly where it is small.
    small = size ** (m * n) <= 1 << 12

    @settings(max_examples=2 if small else 1, deadline=None, derandomize=True,
              database=None)
    @given(_rank_sets(field, size))
    def check(elements):
        _, values = elements.scaled_integers()
        ranks, dets = oracles.bareiss_sweep(values, field, m, n)
        hist = sweep(elements, m, n, SweepOptions(det=False))
        assert hist.rank_profile == ranks and hist.raw["det"] is None
        if m != n:
            return
        hist = sweep(elements, n, n, SweepOptions())
        assert hist.rank_profile == ranks and hist.raw["det"] == dets
        if small:
            hist = sweep(elements, n, n, SweepOptions(det=False, charpoly=True))
            assert hist.rank_profile == ranks and hist.raw["det"] is None

    check()


@pytest.mark.parametrize("field", [Q, QI])
@pytest.mark.parametrize("m,n", [(4, 4), (4, 5), (5, 4)])
def test_rank_two_counts_in_four_dimensions_match_the_oracle(m, n, field):
    """Every rank count of a 4 x n or n x 4 shape, by one flats walk,
    against the oracle that ranks sets of distinct rows, not each of the
    2^20 matrices; 4x4 det = 0 also against the det zeros of the per-matrix
    cofactor pass."""
    @settings(max_examples=1, deadline=None, derandomize=True, database=None)
    @given(_rank_sets(field, 2))
    def check(elements):
        profile = oracles.rank_profile_by_row_sets(elements, m, n, 3)
        total = len(elements) ** (m * n)
        for k in range(1, 4):
            assert matrices.plan_rank(m, n, k, True, 2).name == "flats"
            assert count_rank(elements, m, n, k) == _at_most(profile, k)
            assert count_rank(elements, m, n, k, cumulative=False) == profile.get(k, 0)
        full = count_rank(elements, m, n, 4, cumulative=False)
        assert full == total - _at_most(profile, 3)
        ranks = sweep(elements, m, n, SweepOptions(det=False)).rank_profile
        assert ranks == {**profile, 4: full}
        if m == n:
            zero = Scalar.zero(field)
            dets = generic_sweep(elements, 4, 4, SweepOptions(rank=False)).raw["det"]
            assert count_det(elements, 4, zero) == dets.get(matrices._ring(field).zero, 0)
            assert count_det(elements, 4, zero) == _at_most(profile, 3)

    check()


# The largest B with 6 B^3 <= 2^62, the 3x3 int64 det proof.
_B = 916015


@st.composite
def _charpoly3_sets(draw) -> tuple[ElementSet, ElementSet]:
    """A set for the 3x3 charpoly join and the same set shuffled: a Q set
    of 1 to 3 elements with denominators, often holding x with -x; a Qi set
    of 1 to 3; or a set past the int64 det proof, {1, B+1, -(B+1)} at
    B = 916015 or {2^a, 2^b} with b >= 21."""
    kind = draw(st.sampled_from([Q, QI, "past"]))
    if kind != "past":
        elements = draw(_rank_sets(kind, draw(st.integers(1, 3))))
    elif draw(st.booleans()):
        elements = ElementSet(tuple(Scalar.rational(v) for v in (1, _B + 1, -_B - 1)))
    else:
        a, b = draw(st.integers(0, 20)), draw(st.integers(21, 40))
        elements = ElementSet((Scalar.rational(2**a), Scalar.rational(2**b)))
    shuffled = ElementSet(tuple(draw(st.permutations(list(elements)))))
    return elements, shuffled


def _fraction_charpolys(elements: ElementSet) -> dict:
    """Charpoly histogram of every 3x3 matrix by the Fraction oracle."""
    polys: dict = {}
    for combo in oracles.all_matrices(elements, 3, 3):
        rows = [[oracles.pair(combo[i * 3 + j]) for j in range(3)] for i in range(3)]
        key = tuple(oracles.charpoly_pairs(rows))
        polys[key] = polys.get(key, 0) + 1
    return polys


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_charpoly3_sets(), st.randoms(use_true_random=False))
def test_cycle_join_matches_the_per_matrix_charpoly(case, rng):
    # The generic sweep takes each matrix's charpoly by Berkowitz; `sweep`
    # and `count_charpoly` take it from the cycle-invariant join.
    elements, shuffled = case
    field = elements.field
    opts = SweepOptions(rank=False, det=False, charpoly=True)
    generic = generic_sweep(elements, 3, 3, opts)
    hist = sweep(elements, 3, 3, opts)
    assert hist.raw == generic.raw
    assert sweep(shuffled, 3, 3, opts).raw == generic.raw
    polys = dict(oracles.charpoly_histogram(hist))
    # Absent, not scalable into the ring, and past 2^70.
    lcm, _ = elements.scaled_integers()
    absent = Scalar.rational(10**6 + 7, 1, field)
    others = [
        (absent,) * 3,
        (Scalar.rational(1, 2 * lcm**3, field),) + (absent,) * 2,
        (Scalar.rational(2**70, 1, field),) * 3,
    ]
    # Every key where the set is small; a drawn dozen at three elements.
    keys = list(polys) if len(elements) <= 2 else rng.sample(list(polys), 12)
    for key in others:
        assert key not in polys
        polys[key] = 0
    for key in keys + others:
        assert count_charpoly(elements, 3, key) == polys[key], key
        assert count_charpoly(shuffled, 3, key) == polys[key], key


@pytest.mark.parametrize(
    "field,texts",
    [(Q, ("2/3", "-2/3")), (QI, ("i/2", "1-i")), (Q, ("1", "2^21"))],
    ids=["Q-sign-pair", "Qi", "Q-past-the-proof"],
)
def test_cycle_join_decodes_to_the_fraction_charpolys(field, texts):
    elements = ElementSet(tuple(parse_scalar(t, field) for t in texts))
    hist = sweep(elements, 3, 3, SweepOptions(rank=False, det=False, charpoly=True))
    decoded = {
        tuple(map(oracles.pair, key)): count
        for key, count in oracles.charpoly_histogram(hist).items()
    }
    assert decoded == _fraction_charpolys(elements)


@st.composite
def _ring_matrices(draw) -> tuple[str, list]:
    """A field and the 9 entries of a 3x3 matrix of its scaled ring values:
    ints over Q, (re, im) int pairs over Qi, zero allowed, since the
    formula needs no zero-free entries."""
    field = draw(st.sampled_from([Q, QI]))
    if field == QI:
        values = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    else:
        values = st.integers(-(2**40), 2**40)
    return field, draw(st.lists(values, min_size=9, max_size=9))


@_SETTINGS
@given(_ring_matrices())
def test_cycle_invariants_give_each_matrix_charpoly(case):
    # One matrix's diagonal, pair products and cycle sum, through the
    # join's own formula pieces, against its Berkowitz charpoly.
    field, flat = case
    ring = matrices._ring(field)
    add, sub, mul = ring.add, ring.sub, ring.mul
    rows = [flat[0:3], flat[3:6], flat[6:9]]
    (d1, x12, x13), (x21, d2, x23), (x31, x32, d3) = rows
    p12, p13, p23 = mul(x12, x21), mul(x13, x31), mul(x23, x32)
    s = add(mul(mul(x12, x23), x31), mul(mul(x13, x32), x21))
    low = matrices._cycle_lows((d1, d2, d3), (p12, p13, p23, s), ring)
    e2 = add(add(mul(d1, d2), mul(d1, d3)), mul(d2, d3))
    coeffs = [
        sub(low, mul(mul(d1, d2), d3)),
        sub(e2, add(add(p12, p13), p23)),
        ring.neg(add(add(d1, d2), d3)),
    ]
    assert coeffs == matrices._charpoly_coeffs(rows, ring)


@_SETTINGS
@given(_element_sets(4))
def test_cycle_buckets_hold_every_off_diagonal_filling(case):
    elements, _ = case
    _, values = elements.scaled_integers()
    ring = matrices._ring(elements.field)
    add, mul = ring.add, ring.mul
    expected: dict = {}
    for x12, x13, x21, x23, x31, x32 in itertools.product(values, repeat=6):
        s = add(mul(mul(x12, x23), x31), mul(mul(x13, x32), x21))
        key = (mul(x12, x21), mul(x13, x31), mul(x23, x32), s)
        expected[key] = expected.get(key, 0) + 1
    got: dict = {}
    for pair_sum, columns in matrices._cycle_buckets(values, ring).items():
        for *key, count in zip(*columns):
            assert add(add(key[0], key[1]), key[2]) == pair_sum
            got[tuple(key)] = got.get(tuple(key), 0) + count
    assert got == expected



@pytest.mark.parametrize(
    "field,texts",
    [(Q, ("1/2", "-3", "2")), (Q, ("1", "916016", "-1")), (QI, ("1+i", "-i/2", "2"))],
    ids=["Q", "Q-past-the-proof", "Qi"],
)
def test_cycles3_count_tallies_only_its_buckets(field, texts, monkeypatch):
    """A 3x3 charpoly count tallies only the buckets P = e2(d) - c1 of the
    diagonal multisets d with trace -c2, each holding the same off-diagonal
    keys as the full tally, and equals the histogram on every key; a c2
    that no multiset has tallies nothing."""
    elements = ElementSet(tuple(parse_scalar(t, field) for t in texts))
    _, values = elements.scaled_integers()
    ring = matrices._ring(field)
    buckets = matrices._cycle_buckets
    full = {p: sorted(zip(*columns)) for p, columns in buckets(values, ring).items()}
    traces: dict = {}
    for _, _, (_, a1, a2) in matrices._diagonal_multisets(values, ring):
        traces.setdefault(a2, []).append(a1)
    hist = sweep(elements, 3, 3, SweepOptions(rank=False, det=False, charpoly=True))
    tallied: list = []
    monkeypatch.setattr(
        matrices, "_cycle_buckets", lambda *a: tallied.append(buckets(*a)) or tallied[-1]
    )
    scalar_keys = oracles.charpoly_histogram(hist)
    for (c0, c1, c2), (key, expected) in zip(hist.raw["charpoly"], scalar_keys.items()):
        assert count_charpoly(elements, 3, key) == expected
        assert set(tallied[-1]) <= {ring.sub(a1, c1) for a1 in traces[c2]}
        for pair_sum, columns in tallied[-1].items():
            assert sorted(zip(*columns)) == full[pair_sum]
    absent = Scalar.rational(10**6 + 7, 1, field)
    diagonals = itertools.combinations_with_replacement(elements, 3)
    assert all(x + y + z != -absent for x, y, z in diagonals)
    key = (Scalar.zero(field), Scalar.zero(field), absent)
    assert count_charpoly(elements, 3, key) == 0
    assert tallied[-1] == {}
