"""Histogram grouping in the int64 sweep kernels.

`_kernels._group` turns rows of int64 key columns into distinct rows and
their counts by packing each row into one int64 (mixed radix over the column
spans).  When that frame would reach 2^63 it re-ranks the columns to dense
indices first, and folds two index columns into one when even those do not
fit.  Each path is checked against a plain Counter, right at the 2^63
boundary, and through full 3x3 kernel sweeps against the per-matrix generic
sweep.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

import oracles
from conftest import generic_sweep
from unitcount import _kernels
from unitcount.families import ElementSet
from unitcount.matrices import SweepOptions, sweep
from unitcount.scalars import Q, parse_scalar

_WIDE = 2**63 - 1  # = 7^2 * 73 * 127 * 337 * 92737 * 649657


def _elements(texts) -> ElementSet:
    return ElementSet(tuple(parse_scalar(t, Q) for t in texts))


def _naive(columns, counts=None) -> dict:
    tally: collections.Counter = collections.Counter()
    for i, row in enumerate(zip(*(col.tolist() for col in columns))):
        tally[row] += 1 if counts is None else int(counts[i])
    return dict(sorted(tally.items()))


def _grouped(columns, counts=None) -> dict:
    """`_group`'s answer as {row: count}, in the order it returned them."""
    keys, summed = _kernels._group(columns, counts)
    assert keys.dtype == np.int64 and summed.dtype == np.int64
    assert keys.shape == (summed.shape[0], len(columns))
    rows = list(map(tuple, keys.tolist()))
    assert rows == sorted(set(rows))
    return dict(zip(rows, summed.tolist()))


class _PathSpy:
    """Records the column count of every `_group` call and the number of
    re-rank passes."""

    def __init__(self, monkeypatch):
        self.groups: list[int] = []
        self.reranks = 0
        group, rerank = _kernels._group, _kernels._rerank

        def spy_group(columns, counts=None):
            self.groups.append(len(columns))
            return group(columns, counts)

        def spy_rerank(columns):
            self.reranks += 1
            return rerank(columns)

        monkeypatch.setattr(_kernels, "_group", spy_group)
        monkeypatch.setattr(_kernels, "_rerank", spy_rerank)


def _frame_columns(spans, rows: int = 40, seed: int = 0):
    """Columns whose spans are exactly `spans`: each holds its minimum and
    its maximum and random values between; column 0 is all negative."""
    rng = np.random.default_rng(seed)
    columns = []
    for j, span in enumerate(spans):
        lo = -(2**62) if j == 0 else -(span // 2)
        picks = [lo, lo + span - 1] + [
            lo + int(rng.integers(0, span)) for _ in range(rows - 2)
        ]
        # Repeat rows so that some counts exceed 1.
        columns.append(np.array(picks + picks[: rows // 2], dtype=np.int64))
    return columns


@pytest.mark.parametrize("spans", [(_WIDE // 7, 7), (7, 7, _WIDE // 49)])
def test_span_product_just_below_2_63_packs(spans, monkeypatch):
    assert math.prod(spans) == 2**63 - 1
    columns = _frame_columns(spans)
    spy = _PathSpy(monkeypatch)
    assert _grouped(columns) == _naive(columns)
    counts = np.arange(1, columns[0].shape[0] + 1, dtype=np.int64)
    assert _grouped(columns, counts) == _naive(columns, counts)
    assert spy.reranks == 0
    assert spy.groups == [len(spans)] * 2


@pytest.mark.parametrize("spans", [(2**61, 4), (2**31, 2**31, 2)])
def test_span_product_of_2_63_reranks(spans, monkeypatch):
    assert math.prod(spans) == 2**63
    columns = _frame_columns(spans)
    spy = _PathSpy(monkeypatch)
    assert _grouped(columns) == _naive(columns)
    counts = np.arange(1, columns[0].shape[0] + 1, dtype=np.int64)
    assert _grouped(columns, counts) == _naive(columns, counts)
    assert spy.reranks == 2
    # Each top-level call re-ranks once and packs the dense indices.
    assert spy.groups == [len(spans)] * 4


def test_negative_single_value_columns_and_single_row(monkeypatch):
    spy = _PathSpy(monkeypatch)
    row = [np.array([v], dtype=np.int64) for v in (-(2**62), -1, 2**62)]
    assert _grouped(row) == {(-(2**62), -1, 2**62): 1}
    counts = np.array([5], dtype=np.int64)
    assert _grouped(row, counts) == {(-(2**62), -1, 2**62): 5}
    rng = np.random.default_rng(3)
    varied = rng.integers(-50, -40, 200)
    constant = np.full(200, -7, dtype=np.int64)
    for columns in ([constant, varied], [varied, constant, varied], [constant, constant]):
        assert _grouped(columns) == _naive(columns)
    assert _grouped([varied]) == _naive([varied])
    assert spy.reranks == 0


def test_counts_are_summed_exactly_in_int64():
    big = 2**53 + 1  # a float sum of three of these is not exact
    columns = [np.array([4, 4, 4, -4], dtype=np.int64), np.array([1, 1, 1, 1], dtype=np.int64)]
    counts = np.array([big, big, big, 1], dtype=np.int64)
    assert _grouped(columns, counts) == {(-4, 1): 1, (4, 1): 3 * big}
    assert _grouped(columns[:1], counts) == {(-4,): 1, (4,): 3 * big}


def test_dense_indices_past_the_frame_are_folded(monkeypatch):
    """With the frame limit lowered, even the dense indices of 3 columns
    do not fit, so the first two are folded into one column."""
    monkeypatch.setattr(_kernels, "_PACK_LIMIT", 2**10)
    spy = _PathSpy(monkeypatch)
    rng = np.random.default_rng(5)
    columns = [rng.integers(-(2**40), 2**40, 300) for _ in range(3)]
    columns = [np.concatenate([col, col[:100]]) for col in columns]
    counts = rng.integers(1, 2**40, 400)
    assert _grouped(columns, counts) == _naive(columns, counts)
    assert _grouped(columns) == _naive(columns)
    assert spy.reranks > 0
    assert 2 in spy.groups and 1 in spy.groups


def test_accumulator_merges_blocks_across_compactions(monkeypatch):
    monkeypatch.setattr(_kernels, "_COMPACT_ROWS", 50)
    rng = np.random.default_rng(7)
    for ncols in (1, 2, 3):
        acc = _kernels._HistAccumulator(ncols)
        blocks = [[rng.integers(-9, 9, 40) for _ in range(ncols)] for _ in range(12)]
        for block in blocks:
            _kernels._block_histogram(acc, *block)
        expected = _naive([np.concatenate(cols) for cols in zip(*blocks)])
        if ncols == 1:
            expected = {key[0]: count for key, count in expected.items()}
        assert acc.result() == expected


def test_sweep_past_the_packing_frame_matches_generic(monkeypatch):
    """3x3 charpoly over {1, 2^19, -2^19}: the supports proof holds
    (6 B^3 = 3 * 2^58), but the (c0, c1, c2) frame of every block spans more
    than 2^63, so the kernel's histogram goes through the re-rank path."""
    big = 2**19
    elements = _elements(("1", str(big), str(-big)))
    assert _kernels.supports(big)
    opts = SweepOptions(rank=False, det=False, charpoly=True)
    spy = _PathSpy(monkeypatch)
    hist = sweep(elements, 3, 3, opts)
    assert spy.reranks > 0
    assert hist.raw["charpoly"] == generic_sweep(elements, 3, 3, opts).raw["charpoly"]


def test_small_set_sweep_packs_and_matches_generic(monkeypatch):
    elements = _elements(("1", "-1", "2"))
    opts = SweepOptions(rank=True, det=True, charpoly=True, powersums=True)
    generic = generic_sweep(elements, 3, 3, opts)
    spy = _PathSpy(monkeypatch)
    kernel = sweep(elements, 3, 3, opts)
    assert spy.reranks == 0
    # det keys are one column, charpoly keys three; power sums take no block.
    assert set(spy.groups) == {1, 3}
    assert oracles.charpoly_histogram(kernel) == oracles.charpoly_histogram(generic)
    assert oracles.powersum_histogram(kernel) == oracles.powersum_histogram(generic)
    assert oracles.det_histogram(kernel) == oracles.det_histogram(generic)
    assert kernel.rank_profile == generic.rank_profile
