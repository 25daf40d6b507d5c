"""The 3x3 int64 det sweep over unordered row triples, and the rank profile
composed from its det zeros and the flats walk.

`_kernels.sweep_square` takes det from the triples i < j < k of the A^3
rows, row i dotted with the cross product of rows j and k; it counts each
triple's det d three times at d and three times at -d, and puts the matrices
with a repeated row at 0.  `matrices.sweep` then reads rank 3 and rank <= 2
off the det zeros and rank 1 off `_flats_walk`.  Both are checked here
against references that share none of that: the generic cofactor sweep
(`conftest.generic_sweep`), the per-matrix Bareiss loop
(`oracles.bareiss_sweep`) and the Fraction ranks of `tests/oracles.py`, on
sets with sign pairs (x, -x), with denominators, in shuffled order, with the
pairs split over many chunks and the dets over batches of any size, and at
the int64 proof's boundary, where the
3x3 charpoly sweep (the cycle-invariant join) is checked against the
generic sweep too.  A square sweep without det builds no det histogram:
its rank <= n-1 comes from the flats walk.  Over Q(i) the same kernel
packs each det into one int64 key re 2^32 + im; its histogram, single
counts and route are checked against the shared-minors det
(`matrices._square_det`) on both sides of its own proof's boundary.
"""

from __future__ import annotations

import itertools

import pytest

import oracles
from conftest import generic_sweep
from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.matrices import CountRoute, SweepOptions, count_det, plan_square, sweep
from unitcount.scalars import Q, QI, Scalar, parse_scalar

# The largest B with 6 B^3 <= 2^62, the bound on every 3x3 det and charpoly
# intermediate.
_B = 916015


def _elements(texts, field: str = Q) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts))


def _oracle_ranks(elements: ElementSet) -> dict[int, int]:
    ranks: dict[int, int] = {}
    for combo in oracles.all_matrices(elements, 3, 3):
        rows = [[oracles.pair(combo[i * 3 + j]) for j in range(3)] for i in range(3)]
        r = oracles.rank_pairs(rows)
        ranks[r] = ranks.get(r, 0) + 1
    return ranks


class _SweepSpy:
    """Counts the calls of `_kernels.sweep_square`."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = _kernels.sweep_square

        def spy(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(_kernels, "sweep_square", spy)


def test_triple_dets_cover_each_unordered_triple_once(monkeypatch):
    values = [1, -1, 2]
    rows = list(itertools.product(values, repeat=3))
    expected = sorted(
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
        for a, b, c in itertools.combinations(rows, 3)
    )
    # 351 pairs: one chunk, chunks of 1 and 2 pairs, and an uneven split;
    # 2,925 triples: one batch, batches of 1 det, and uneven batches (the
    # last of 1 det, then of 25).
    for chunk, batch in ((1 << 20, 1 << 17), (1, 1), (2, 4), (37, 100)):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        monkeypatch.setattr(_kernels, "_BATCH", batch)
        got = sorted(d for block in _kernels._triple_dets(values) for d in block.tolist())
        assert got == expected, (chunk, batch)
    assert list(_kernels._triple_dets([5])) == []


@pytest.mark.parametrize(
    "texts", [("1", "-1", "2"), ("1/2", "-1/2", "3", "-3"), ("2", "-2/3", "1/3")]
)
def test_count_target3_det_matches_the_generic_sweep(texts, monkeypatch):
    elements = _elements(texts)
    lcm, values = elements.scaled_integers()
    dets = generic_sweep(elements, 3, 3, SweepOptions(rank=False)).raw["det"]
    common = max((d for d in dets if d), key=dets.get)
    assert -common in dets
    absent = max(dets) + 1
    for d in [*dets, absent, -absent]:
        assert _kernels.count_target3(values, d) == dets.get(d, 0), d
    for d in (0, common, -common):
        assert count_det(elements, 3, Scalar.rational(d, lcm**3)) == dets[d], d
    # The pairs split over many chunks.
    monkeypatch.setattr(_kernels, "_CHUNK", 5)
    for d in (0, common, -common, absent):
        assert _kernels.count_target3(values, d) == dets.get(d, 0), d


# (set, _BATCH, _CHUNK): 2,925 triples one det per batch; 317,750 triples
# in uneven batches that split row tails and chunks; and one batch larger
# than every det.  {1, -1, 2, -2, 1/3} has sign pairs and a denominator.
@pytest.mark.parametrize(
    "texts,batch,chunk",
    [
        (("1", "-1", "1/2"), 1, 37),
        (("1", "-1", "2", "-2", "1/3"), 9973, 1000),
        (("1", "-1", "2", "-2", "1/3"), 1 << 20, 1000),
    ],
    ids=["batch-1", "batch-uneven", "batch-past-all"],
)
def test_det_batches_match_the_generic_sweep(texts, batch, chunk, monkeypatch):
    monkeypatch.setattr(_kernels, "_BATCH", batch)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    monkeypatch.setattr(_kernels, "_COMPACT_ROWS", 50)
    elements = _elements(texts)
    _, values = elements.scaled_integers()
    rows = len(values) ** 3
    sizes = [len(block) for block in _kernels._triple_dets(values)]
    assert sum(sizes) == rows * (rows - 1) * (rows - 2) // 6
    assert set(sizes[:-1]) <= {batch} and 0 < sizes[-1] <= batch
    dets = generic_sweep(elements, 3, 3, SweepOptions(rank=False)).raw["det"]
    assert _kernels.sweep_square(values)["det"] == dets
    common = max((d for d in dets if d), key=dets.get)
    absent = max(dets) + 1
    assert -common in dets and absent not in dets
    for d in (0, common, -common, absent):
        assert _kernels.count_target3(values, d) == dets.get(d, 0), d


def test_rank_profile_matches_the_fraction_ranks(monkeypatch):
    elements = _elements(("1/2", "-1/2", "3"))
    monkeypatch.setattr(_kernels, "_CHUNK", 11)
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, 3, 3, SweepOptions())
    assert spy.calls == 1
    assert hist.rank_profile == _oracle_ranks(elements)
    generic = generic_sweep(elements, 3, 3, SweepOptions(rank=False))
    assert hist.raw["det"] == generic.raw["det"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rank,det", [(True, False), (False, True)])
def test_one_statistic_alone(rank, det, n):
    elements = _elements(("3", "-1/2", "1/2", "1"))
    opts = SweepOptions(rank=rank, det=det)
    hist = sweep(elements, n, n, opts)
    generic = generic_sweep(elements, n, n, opts)
    assert hist.rank_profile == generic.rank_profile
    assert hist.raw["det"] == generic.raw["det"]
    assert (hist.rank_profile is None) is not rank
    assert (hist.raw["det"] is None) is not det


def test_kernel_at_the_int64_proof_boundary(monkeypatch):
    assert 6 * _B**3 <= 2**62 < 6 * (_B + 1) ** 3
    elements = _elements(("1", str(_B), str(-_B)))
    assert _kernels.supports(elements.scaled_integers()[1])
    opts = SweepOptions(charpoly=True)
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, 3, 3, opts)
    assert spy.calls == 1
    generic = generic_sweep(elements, 3, 3, opts)
    assert hist.rank_profile == generic.rank_profile
    assert hist.raw["det"] == generic.raw["det"]
    assert hist.raw["charpoly"] == generic.raw["charpoly"]
    # |det| reaches 4 B^3 (a +-1 matrix has |det| <= 4), near the bound.
    assert max(map(abs, hist.raw["det"])) == 4 * _B**3
    ranks, dets = oracles.bareiss_sweep([1, _B, -_B], Q, 3, 3)
    assert hist.rank_profile == ranks
    assert hist.raw["det"] == dets


def test_sweep_past_the_int64_proof_boundary_is_generic(monkeypatch):
    big = _B + 1
    elements = _elements(("1", str(big), str(-big)))
    assert not _kernels.supports(elements.scaled_integers()[1])
    opts = SweepOptions(charpoly=True)
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, 3, 3, opts)
    assert spy.calls == 0
    ranks, dets = oracles.bareiss_sweep([1, big, -big], Q, 3, 3)
    assert hist.rank_profile == ranks
    assert hist.raw["det"] == dets
    generic = generic_sweep(elements, 3, 3, opts)
    assert hist.raw["charpoly"] == generic.raw["charpoly"]
    # c0 = -det reaches 4 (B + 1)^3, as det does.
    assert max(abs(key[0]) for key in hist.raw["charpoly"]) == 4 * big**3


@pytest.mark.parametrize(
    "n,field,texts",
    [
        (2, Q, ("3", "-1/2", "1/2", "1")),
        (2, QI, ("1+i", "-i/2", "2", "i")),
        (3, Q, ("-1/2", "1/2", "3")),
        (3, QI, ("1+i", "-i/2", "2")),
    ],
)
def test_rank_only_square_sweeps_take_the_rank_routes(n, field, texts, monkeypatch):
    """Without det, a square's rank <= n-1 comes from the flats walk: no
    det convolution, kernel or cofactor pass runs."""
    elements = _elements(texts, field)
    built = []
    for name in ("_convolve", "_generic_shard"):
        original = getattr(matrices, name)
        monkeypatch.setattr(
            matrices, name, lambda *a, _f=original, _n=name: built.append(_n) or _f(*a)
        )
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, n, n, SweepOptions(det=False))
    assert built == [] and spy.calls == 0
    assert hist.raw["det"] is None
    _, values = elements.scaled_integers()
    ranks, _ = oracles.bareiss_sweep(values, field, n, n)
    assert hist.rank_profile == ranks


# -- over Q(i): triple dets packed as one int64 key re 2^32 + im --------------

# The largest B with 216 B^6 < 2^62: every det of the Q(i) kernel, and every
# partial sum of one, has modulus below 2^31.
_BI = 526


def _square_dets(elements: ElementSet) -> dict:
    _, values = elements.scaled_integers()
    rows = list(itertools.product(values, repeat=3))
    return matrices._square_det(rows, 3, matrices._ring(elements.field))


@pytest.mark.parametrize(
    "texts,batch,chunk",
    [
        (("i/2", "(1-i)/3", "-1"), 1 << 17, 1 << 20),
        (("1", "i", "1+i", "-1/2+i"), 997, 100),
        (("1", "i", "-1", "-i", "1+i"), 1 << 17, 1 << 20),
    ],
    ids=["A3-denominators", "A4-uneven", "A5-units"],
)
def test_gaussian_sweep_matches_the_shared_minors(texts, batch, chunk, monkeypatch):
    """A 3x3 rank and det sweep over Q(i) under the proof runs the kernel
    once, and its det histogram and rank profile are the shared-minors
    det's and the generic sweep's: sets with denominators, with all four
    units (sign pairs of equal norm), and with batches and chunks that
    split row tails."""
    monkeypatch.setattr(_kernels, "_BATCH", batch)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    elements = _elements(texts, QI)
    rows = len(elements) ** 3
    assert plan_square(3, elements, "det") == CountRoute(
        "target3", rows * (rows - 1) * (rows - 2) // 6
    )
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, 3, 3, SweepOptions())
    assert spy.calls == 1
    assert hist.raw["det"] == _square_dets(elements)
    # The generic rank profile ranks every distinct set of rows: 5^9 is slow.
    if len(elements) <= 4:
        assert hist.rank_profile == generic_sweep(elements, 3, 3, SweepOptions()).rank_profile


def test_gaussian_one_key_counts(monkeypatch):
    """count_det over Q(i) under the proof compares each batch with the one
    packed target: every present key and an absent one are counted by the
    kernel, a key that does not scale into the ring counts 0 before it, and
    a key past the proof counts 0 in it."""
    elements = _elements(("i/2", "(1-i)/3", "-1"), QI)
    lcm, values = elements.scaled_integers()
    dets = _square_dets(elements)
    calls = []
    count_target3 = _kernels.count_target3
    monkeypatch.setattr(
        _kernels, "count_target3", lambda *a: calls.append(a[1]) or count_target3(*a)
    )
    scale = lcm**3
    for (re, im), expected in dets.items():
        assert count_det(elements, 3, Scalar(QI, re, im, scale)) == expected, (re, im)
    absent = Scalar(QI, 10**6 + 7, 1)
    assert (absent.re * scale, absent.im * scale) not in dets
    assert count_det(elements, 3, absent) == 0
    # Every key but det 0, which takes the flats walk, and the absent one.
    assert len(calls) == len(dets)
    calls.clear()
    assert scale % 7
    assert count_det(elements, 3, Scalar(QI, 1, 1, 7 * scale)) == 0
    assert calls == []
    for past in (Scalar(QI, 2**70), Scalar(QI, 1, 2**31, scale)):
        assert count_det(elements, 3, past) == 0
    assert count_target3(values, (2**31, 0)) == count_target3(values, (0, -(2**31))) == 0
    assert count_target3(values, (0, 0)) == dets[(0, 0)]


@pytest.mark.parametrize("bound", [_BI, _BI + 1])
def test_gaussian_kernel_at_the_int64_proof_boundary(bound, monkeypatch):
    """At B = 526 a Q(i) 3x3 det is the kernel's, at B = 527 the sweep
    route's; the histogram and single counts are the shared-minors det's
    either way."""
    assert 216 * _BI**6 < 2**62 <= 216 * (_BI + 1) ** 6
    proof = bound == _BI
    elements = _elements(("1", f"{bound}*i", f"{bound}-{bound}*i"), QI)
    _, values = elements.scaled_integers()
    assert max(max(map(abs, value)) for value in values) == bound
    assert _kernels.supports(values) is proof
    route = plan_square(3, elements, "det")
    assert route == (CountRoute("target3", 27 * 26 * 25 // 6) if proof else CountRoute("sweep", 3**9))
    spy = _SweepSpy(monkeypatch)
    hist = sweep(elements, 3, 3, SweepOptions(rank=False))
    assert spy.calls == (1 if proof else 0)
    dets = _square_dets(elements)
    assert hist.raw["det"] == dets
    common = max((d for d in dets if d != (0, 0)), key=dets.get)
    largest = max(dets, key=lambda d: d[0] ** 2 + d[1] ** 2)
    for re, im in (common, largest):
        assert count_det(elements, 3, Scalar(QI, re, im)) == dets[(re, im)]
