"""Histogram grouping in the int64 det kernel, and full 3x3 sweeps that mix
the kernel's det with the cycle-invariant charpoly join.

`_kernels._group` turns an int64 key column into its distinct keys and
their counts by one sort; `_HistAccumulator` merges the grouped blocks.
Each is checked against a plain Counter, at the int64 extremes, and the
full 3x3 sweeps against the per-matrix generic sweep.
"""

from __future__ import annotations

import collections

import numpy as np

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
