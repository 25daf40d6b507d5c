"""The sweep route's charpoly on lanes of matrices.

`matrices._generic_shard` takes the charpoly at n = 1 and n >= 4 (and at
any n it is called with) from Berkowitz on numpy lanes: int64 under
`_kernels.charpoly_dtype` and Python ints past it, each batch's keys
counted by a Counter.  Both are checked against the per-matrix Berkowitz
loop of `conftest`, at the proof's boundary against each other, and over
Q and Q(i) against sympy's `Matrix.charpoly`; that loop is checked against
the interpolation oracle of `oracles`.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.scalars import Q, QI, parse_scalar

import oracles
from conftest import _berkowitz, _per_matrix_charpolys


def _values(texts, field: str = Q) -> list:
    return ElementSet(tuple(parse_scalar(t, field) for t in texts)).scaled_integers()[1]


def _lanes(values, field: str, n: int) -> dict:
    raw = matrices._generic_shard(values, field, n, "charpoly")
    assert raw["total"] == len(values) ** (n * n)
    return raw["charpoly"]


def _on_every_path(values, field: str, n: int, monkeypatch) -> dict:
    """The histogram, checked equal on int64 and object lanes."""
    hist = _lanes(values, field, n)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "charpoly_dtype", lambda values, n: object)
        assert _lanes(values, field, n) == hist
    return hist


# n = 1 sets of many elements, and 4x4 over two, over Q and Q(i).
@pytest.mark.parametrize(
    "field,texts,n",
    [
        (Q, ("3", "-1/2", "2/3", "7", "2^70"), 1),
        (QI, ("1+i", "-i/2", "2", "3-4*i"), 1),
        (Q, ("2", "-3"), 4),
        (QI, ("1+i", "-i/2"), 4),
    ],
)
def test_charpoly_lanes_match_the_per_matrix_loop(field, texts, n, monkeypatch):
    values = _values(texts, field)
    assert _on_every_path(values, field, n, monkeypatch) == _per_matrix_charpolys(
        values, field, n
    )


@pytest.mark.parametrize("batch", [1, 5, 7, 100])
@pytest.mark.parametrize("field,texts", [(Q, ("1", "-2", "3")), (QI, ("1+i", "2", "-i"))])
def test_charpoly_batches_meet_at_their_seams(batch, field, texts, monkeypatch):
    # 2x2 over three values in batches of at most 1, 5, 7 and 100 matrices:
    # one matrix each; the cells before the last constant; the third cell's
    # values split into runs of 2 and 1; one batch of all 81.
    values = _values(texts, field)
    expected = _per_matrix_charpolys(values, field, 2)
    monkeypatch.setattr(_kernels, "_LANE_BATCH", batch)
    assert _on_every_path(values, field, 2, monkeypatch) == expected


def test_matrix_lanes_list_every_matrix_once_in_odometer_order(monkeypatch):
    monkeypatch.setattr(_kernels, "_LANE_BATCH", 10)
    table = np.array([10, 20, 30])
    seen = []
    for lanes in matrices._matrix_lanes(table, 4):
        assert len(lanes[-1]) <= 10
        seen += zip(*(np.broadcast_to(lane, lanes[-1].shape).tolist() for lane in lanes))
    assert seen == list(itertools.product([10, 20, 30], repeat=4))


@pytest.mark.parametrize(
    "field,texts,n",
    [
        (Q, ("2", "-3"), 4),
        (QI, ("1+i", "-i/2"), 4),
        (Q, ("3", "-1/2", "2/3", "7"), 1),
        (QI, ("1+i", "-i/2", "2", "3-4*i"), 1),
    ],
)
def test_charpoly_lanes_match_sympy(field, texts, n):
    # sympy's charpoly of the symbolic n x n matrix, evaluated in complex
    # floats (exact here: every coefficient is an integer below 2^11) on
    # every matrix over the scaled set.
    sympy = pytest.importorskip("sympy")
    values = _values(texts, field)
    entries = sympy.symbols(f"x0:{n * n}")
    coeffs = sympy.Matrix(n, n, entries).charpoly(sympy.Symbol("t")).all_coeffs()[:0:-1]
    evaluate = sympy.lambdify(entries, coeffs, "numpy")
    points = np.array([complex(*v) if field == QI else complex(v) for v in values])
    grid = points[np.indices((len(values),) * n * n).reshape(n * n, -1)]
    columns = [np.broadcast_to(c, grid.shape[1:]) for c in evaluate(*grid)]
    assert all(np.array_equal(c, np.round(c)) and np.abs(c).max() < 2**11 for c in columns)
    if field == QI:
        parts = [zip(c.real.astype(np.int64).tolist(), c.imag.astype(np.int64).tolist())
                 for c in columns]
    else:
        assert not any(c.imag.any() for c in columns)
        parts = [c.real.astype(np.int64).tolist() for c in columns]
    expected: dict = {}
    for key in zip(*parts):
        expected[key] = expected.get(key, 0) + 1
    assert _lanes(values, field, n) == expected


@pytest.mark.parametrize(
    "field,texts", [(Q, ("2", "-3", "1/2", "2^40")), (QI, ("1+i", "-i/2", "3", "2-5*i"))]
)
def test_reference_loop_matches_the_interpolation_oracle(field, texts):
    # `_berkowitz`, the reference above, against det(T I - X) interpolated
    # in Fractions on random 4x4 matrices: they share no arithmetic.
    elements = ElementSet(tuple(parse_scalar(t, field) for t in texts))
    lcm, values = elements.scaled_integers()
    ring = matrices._ring(field)
    rng = random.Random(7)
    for _ in range(12):
        picks = [[rng.randrange(len(values)) for _ in range(4)] for _ in range(4)]
        coeffs = _berkowitz([[values[i] for i in row] for row in picks], ring)
        got = [matrices._to_scalar(field, c, lcm ** (4 - j)) for j, c in enumerate(coeffs)]
        rows = [[oracles.pair(elements.elements[i]) for i in row] for row in picks]
        assert [oracles.pair(c) for c in got] == oracles.charpoly_pairs(rows)


# -- the proofs at their boundaries ----------------------------------------------

# The largest M for which the charpoly lane proof, (n+1) (n M)^n < 2^62,
# picks int64.
_LANE_BOUNDARY = {1: 2**61 - 1, 3: 349_525, 4: 7_747}


@pytest.mark.parametrize("n", sorted(_LANE_BOUNDARY))
def test_charpoly_lane_dtype_at_the_int64_proof_boundary(n, monkeypatch):
    M = _LANE_BOUNDARY[n]
    assert (n + 1) * (n * M) ** n < 2**62 <= (n + 1) * (n * (M + 1)) ** n
    assert _kernels.charpoly_dtype([M, 1 - M], n) is np.int64
    assert _kernels.charpoly_dtype([M + 1, 1], n) is object
    assert _kernels.charpoly_dtype([-M - 1], n) is object
    for top in (M, M + 1):
        values = [top, -top, 1] if n == 1 else [top, -top]
        hist = _on_every_path(values, Q, n, monkeypatch)
        if n < 4:
            assert hist == _per_matrix_charpolys(values, Q, n)


def test_gaussian_charpoly_lane_dtype_at_the_int64_proof_boundary(monkeypatch):
    # |a + a i|^2 = 2 a^2; the proof holds for a = 247,151 at n = 3.
    a = 247_151
    assert 4 * 4 * 3**6 * (2 * a * a) ** 3 < 2**124 <= 4 * 4 * 3**6 * (2 * (a + 1) ** 2) ** 3
    assert _kernels.charpoly_dtype([(a, -a), (1, a - 1)], 3) is np.int64
    assert _kernels.charpoly_dtype([(-a - 1, a + 1)], 3) is object
    for top in (a, a + 1):
        values = [(top, top), (-top, top)]
        hist = _on_every_path(values, QI, 3, monkeypatch)
        assert hist == _per_matrix_charpolys(values, QI, 3)


def test_keys_past_int64_are_exact():
    # At n = 1 the key is -x: 2^70 is past every int64 proof.
    assert _kernels.charpoly_dtype([2**70, 1], 1) is object
    assert _lanes([2**70, 1], Q, 1) == {(-(2**70),): 1, (-1,): 1}
