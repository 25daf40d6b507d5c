"""Histogram grouping in the int64 det kernel, and full 3x3 sweeps that mix
the kernel's det with the cycle-invariant charpoly join.

`_kernels._group` turns an int64 key column into its distinct keys and
their counts by one sort; `_HistAccumulator` merges the grouped blocks;
`packed_groups` packs keys of several parts into one by mixed radix, an
int64 while the parts' spans multiply to less than 2^63 and a Python int
from there.  Each is checked against a plain Counter, at the int64
extremes, and the full 3x3 sweeps against the per-matrix generic sweep.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

import oracles
from conftest import generic_sweep
from unitcount import _kernels, matrices
from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, sweep
from unitcount.scalars import Q, parse_scalar


def _elements(texts) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, Q) for t in texts))


def _naive(keys, counts=None) -> dict:
    tally: collections.Counter = collections.Counter()
    for i, key in enumerate(keys.tolist()):
        tally[key] += 1 if counts is None else int(counts[i])
    return dict(sorted(tally.items()))


def _grouped(keys, counts=None) -> dict:
    """`_group`'s answer as {key: count}, in the order it returned them."""
    uniq, summed = _kernels._group(keys, counts)
    assert uniq.dtype == np.int64 and summed.dtype == np.int64
    assert uniq.shape == summed.shape == (summed.shape[0],)
    got = uniq.tolist()
    assert got == sorted(set(got))
    return dict(zip(got, summed.tolist()))


class _RouteSpy:
    """Counts the calls of the kernel's det sweep and of the charpoly join."""

    def __init__(self, monkeypatch):
        self.kernel = self.joins = 0
        kernel, join = _kernels.sweep_square, matrices._cycles3_histogram

        def spy_kernel(*args):
            self.kernel += 1
            return kernel(*args)

        def spy_join(*args):
            self.joins += 1
            return join(*args)

        monkeypatch.setattr(_kernels, "sweep_square", spy_kernel)
        monkeypatch.setattr(matrices, "_cycles3_histogram", spy_join)


def test_negative_single_value_columns_and_single_row():
    for value in (-(2**62), -1, 2**62):
        row = np.array([value], dtype=np.int64)
        assert _grouped(row) == {value: 1}
        assert _grouped(row, np.array([5], dtype=np.int64)) == {value: 5}
    rng = np.random.default_rng(3)
    varied = rng.integers(-50, -40, 200)
    constant = np.full(200, -7, dtype=np.int64)
    extremes = np.array([2**62, -(2**62), 0, 2**62, -(2**62)], dtype=np.int64)
    for keys in (varied, constant, extremes):
        assert _grouped(keys) == _naive(keys)
        counts = np.arange(1, keys.shape[0] + 1, dtype=np.int64)
        assert _grouped(keys, counts) == _naive(keys, counts)


def test_counts_are_summed_exactly_in_int64():
    big = 2**53 + 1  # a float sum of three of these is not exact
    keys = np.array([4, 4, 4, -4], dtype=np.int64)
    counts = np.array([big, big, big, 1], dtype=np.int64)
    assert _grouped(keys, counts) == {-4: 1, 4: 3 * big}


def test_accumulator_merges_blocks_across_compactions(monkeypatch):
    monkeypatch.setattr(_kernels, "_COMPACT_ROWS", 50)
    rng = np.random.default_rng(7)
    for low, high in ((-9, 9), (-(2**62), 2**62)):
        acc = _kernels._HistAccumulator()
        blocks = [rng.integers(low, high, 40) for _ in range(12)]
        for block in blocks:
            _kernels._block_histogram(acc, block)
        assert acc.result() == _naive(np.concatenate(blocks))


def test_sweep_past_the_packing_frame_matches_generic(monkeypatch):
    """3x3 charpoly over {1, 2^19, -2^19}: the int64 proof holds
    (6 B^3 = 3 * 2^58), but the (c0, c1, c2) keys span more than 2^63, the
    frame the kernel once packed them in.  The join takes them in Python
    ints, with no kernel call."""
    big = 2**19
    elements = _elements(("1", str(big), str(-big)))
    assert _kernels.supports(elements.scaled_integers()[1])
    opts = SweepOptions(rank=False, det=False, charpoly=True)
    spy = _RouteSpy(monkeypatch)
    hist = sweep(elements, 3, 3, opts)
    assert (spy.kernel, spy.joins) == (0, 1)
    spans = [max(column) - min(column) + 1 for column in zip(*hist.raw["charpoly"])]
    assert spans[0] * spans[1] * spans[2] >= 2**63
    assert hist.raw["charpoly"] == generic_sweep(elements, 3, 3, opts).raw["charpoly"]


def test_small_set_sweep_packs_and_matches_generic(monkeypatch):
    elements = _elements(("1", "-1", "2"))
    opts = SweepOptions(rank=True, det=True, charpoly=True, powersums=True)
    generic = generic_sweep(elements, 3, 3, opts)
    spy = _RouteSpy(monkeypatch)
    kernel = sweep(elements, 3, 3, opts)
    # det from the kernel, the charpoly from the join.
    assert (spy.kernel, spy.joins) == (1, 1)
    assert kernel.raw == generic.raw
    assert oracles.charpoly_histogram(kernel) == oracles.charpoly_histogram(generic)
    assert oracles.powersum_histogram(kernel) == oracles.powersum_histogram(generic)
    assert oracles.det_histogram(kernel) == oracles.det_histogram(generic)
    assert kernel.rank_profile == generic.rank_profile


# -- packed_groups ------------------------------------------------------------


def _tallied(blocks: list) -> dict:
    """The keys of `blocks` (as `packed_groups` takes them) and their summed
    counts, by a Counter, in ascending order."""
    tally: collections.Counter = collections.Counter()
    for parts, counts in blocks:
        rows = max(np.size(part) for part in parts)
        columns = [[part] * rows if isinstance(part, int) else part.tolist() for part in parts]
        weights = [1] * rows if counts is None else counts.tolist()
        for key, weight in zip(zip(*columns), weights):
            tally[key] += weight
    return dict(sorted(tally.items()))


def _packed(blocks: list, width: int) -> tuple[dict, set]:
    """`packed_groups`' answer as {key: count}, checked to ascend, and the
    dtypes of its key columns."""
    parts, counts = _kernels.packed_groups(lambda: iter(blocks), width)
    assert len(parts) == width
    keys = list(zip(*(part.tolist() for part in parts)))
    assert keys == sorted(set(keys))
    return dict(zip(keys, counts.tolist())), {part.dtype for part in parts}


def _weights(kind: str, rows: int, rng):
    """Counts of one block: None, int64, or Python ints past 2^63."""
    if kind == "none":
        return None
    counts = rng.integers(1, 1000, rows)
    return counts if kind == "int64" else counts.astype(object) * 2**64 + 1


# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657.
_FRAMES = {
    2: [((7, (2**63 - 1) // 7), np.int64), ((2**31, 2**32), object)],
    3: [((49 * 73, 127 * 337, 92737 * 649657), np.int64), ((2**20, 2**21, 2**22), object)],
}


@pytest.mark.parametrize("kind", ["none", "int64", "python"])
@pytest.mark.parametrize("width", [2, 3])
def test_packed_groups_at_the_int64_frame(width, kind):
    """Spans multiplying to 2^63 - 1 pack into int64, to 2^63 into Python
    ints; both give the Counter's keys and counts, in ascending order."""
    rng = np.random.default_rng(width)
    for spans, dtype in _FRAMES[width]:
        assert math.prod(spans) == (2**63 - 1 if dtype is np.int64 else 2**63)
        lows = [-(span // 2) for span in spans]
        pool = np.array([low + rng.integers(0, span, 8) for low, span in zip(lows, spans)])
        pool[:, 0], pool[:, 1] = lows, [low + span - 1 for low, span in zip(lows, spans)]
        blocks = []
        for _ in range(3):
            rows = rng.integers(0, 8, 30)
            blocks.append((list(pool[:, rows]), _weights(kind, 30, rng)))
        hist, dtypes = _packed(blocks, width)
        assert hist == _tallied(blocks)
        assert dtypes == {np.dtype(dtype)}


@pytest.mark.parametrize("kind", ["none", "int64", "python"])
def test_packed_groups_with_one_part_wider_than_int64(kind):
    """A part spanning [-2^62, 2^62] alone spans 2^63 + 1 values, past
    int64: its keys are packed in Python ints."""
    rng = np.random.default_rng(5)
    wide = np.array([-(2**62), 2**62, 0, 2**62, -(2**62), 1], dtype=np.int64)
    small = np.array([3, -1, 0, 3, 3, -1], dtype=np.int64)
    blocks = [([wide, small], _weights(kind, 6, rng)), ([small, wide], _weights(kind, 6, rng))]
    hist, dtypes = _packed(blocks, 2)
    assert hist == _tallied(blocks)
    assert dtypes == {np.dtype(object)}


@pytest.mark.parametrize("kind", ["none", "int64", "python"])
def test_packed_groups_of_object_and_shared_parts(kind):
    """Object parts, small or past int64, are packed in Python ints; a part
    given as one shared int joins int64 parts in int64 and object parts in
    Python ints; a key of one object part is grouped as it is."""
    rng = np.random.default_rng(9)
    small = np.array([2, -3, 2, 0, -3, 2], dtype=object)
    huge = np.array([2**70, -(2**80), 2**70, 5, 2**70, 5], dtype=object)
    ints = np.array([4, 4, -9, 4, -9, 0], dtype=np.int64)
    cases = [
        ([([small, huge], _weights(kind, 6, rng)), ([huge, 2**90], _weights(kind, 6, rng))],
         object),
        ([([small, -7], _weights(kind, 6, rng)), ([ints, 3], _weights(kind, 6, rng))], object),
        ([([ints, -7], _weights(kind, 6, rng)), ([-2, ints], _weights(kind, 6, rng))], np.int64),
    ]
    for blocks, dtype in cases:
        hist, dtypes = _packed(blocks, 2)
        assert hist == _tallied(blocks)
        assert dtypes == {np.dtype(dtype)}
    blocks = [([huge], _weights(kind, 6, rng)), ([small], _weights(kind, 6, rng))]
    hist, dtypes = _packed(blocks, 1)
    assert hist == _tallied(blocks)
    assert dtypes == {np.dtype(object)}
