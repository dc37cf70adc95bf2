"""The one residual-and-witness scan: `_worst`, `_count` and `_rows`.

A grid split into parts of any row counts, each placed at its row offset,
scans as the whole grid: the same residual bits and the same witness.
The whole-grid scan agrees with an entry-by-entry walk in row-major
order, in which the first NaN wins and stays, and a place is applied only
to a first occurrence.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicorr import groups
from equicorr.groups import _rows
from equicorr.reporting import Check, ValidationReport, _count, _local, _worst

from helpers import traced_peak

VALUES = [0.0, -0.0, 0.5, -0.5, 2.0, -2.0, math.inf, -math.inf, math.nan]


@st.composite
def grids(draw, elements):
    """A (rows, *tail) array of the given elements, as Python objects, and
    the bounds of its rows cut into parts of random row counts."""
    shape = (draw(st.integers(0, 7)), *draw(st.lists(st.integers(0, 3), max_size=2)))
    size = math.prod(shape)
    grid = np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=object)
    cuts = sorted(draw(st.lists(st.integers(0, shape[0]), max_size=4)))
    return grid.reshape(shape), [0, *cuts, shape[0]]


def _walk_worst(grid):
    """Largest |entry| and its first index, entry by entry; the first NaN stays."""
    worst, at = 0.0, None
    for idx in np.ndindex(grid.shape):
        value = abs(float(grid[idx]))
        if not math.isnan(worst) and (math.isnan(value) or value > worst):
            worst, at = value, idx
    return worst, at


def _walk_count(mask):
    hits = [idx for idx in np.ndindex(mask.shape) if mask[idx]]
    return float(len(hits)), hits[0] if hits else None


def _parts(grid, bounds, calls):
    """The grid's row slices as parts, each placed at its row offset, with
    every call of a place recorded."""
    for lo, hi in zip(bounds, bounds[1:]):
        yield (lambda r, *at, lo=lo: calls.append((lo + r, *at)) or (lo + r, *at)), grid[lo:hi]


def _bits(result):
    return float(result[0]).hex(), result[1]


@settings(max_examples=300, deadline=None)
@given(grids(st.sampled_from(VALUES)))
def test_worst_of_parts_is_the_worst_of_the_whole_grid(case):
    obj, bounds = case
    grid = obj.astype(float)
    whole = _worst([(_local, grid)])
    assert _bits(whole) == _bits(_walk_worst(obj))
    calls = []
    assert _bits(_worst(_parts(grid, bounds, calls))) == _bits(whole)
    # a part's place is applied once, to the part's first maximum, and only
    # when that maximum raises the running one; the last call is the witness
    expected, running = [], 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        top, at = _walk_worst(obj[lo:hi])
        if at is not None and not (top <= running or math.isnan(running)):
            expected.append((lo + at[0], *at[1:]))
            running = top
    assert calls == expected
    assert (calls[-1] if calls else None) == whole[1]


@settings(max_examples=300, deadline=None)
@given(grids(st.booleans()))
def test_count_of_parts_is_the_count_of_the_whole_mask(case):
    obj, bounds = case
    mask = obj.astype(bool)
    whole = _count([(_local, mask)])
    assert _bits(whole) == _bits(_walk_count(obj))
    calls = []
    assert _bits(_count(_parts(mask, bounds, calls))) == _bits(whole)
    assert calls == ([] if whole[1] is None else [whole[1]])  # the first hit alone is placed


@settings(max_examples=200, deadline=None)
@given(grids(st.sampled_from(VALUES)), st.integers(1, 8))
def test_row_blocks_scan_as_the_whole_grid(case, step):
    obj, _ = case
    grid = obj.astype(float)

    def place(*at):
        return ("at", *at)

    with mock.patch.object(groups, "_BLOCK_ENTRIES", step):  # blocks of `step` rows of one entry
        worst = _worst(_rows(len(grid), 1, lambda rows: grid[rows], place))
        count = _count(_rows(len(grid), 1, lambda rows: np.isnan(grid[rows]), place))
    assert _bits(worst) == _bits(_worst([(place, grid)]))
    assert _bits(count) == _bits(_count([(place, np.isnan(grid))]))


def test_each_part_is_released_before_the_next_is_drawn():
    # a scan that kept a part, or its |part|, while the next one is formed
    # would peak one part higher: at 3 parts for _worst, at 2 for _count
    size = 1 << 20
    for scan, dtype, bound in ((_worst, float, 2.5), (_count, bool, 1.5)):
        parts = ((_local, np.ones(size // np.dtype(dtype).itemsize, dtype=dtype)) for _ in range(4))
        (_, witness), peak = traced_peak(lambda: scan(parts))
        assert witness == (0,) and peak < bound * size


@pytest.mark.parametrize("residuals", [(math.nan, 0.5), (0.5, math.nan), (0.5, 2.0, math.nan, math.nan), (2.0, 0.5, 2.0)])
def test_a_reports_worst_check_is_the_one_worst_scans_to(residuals):
    # the first NaN is the largest in either order of the checks; max() over
    # the residuals returned the NaN only when it came first
    checks = [Check(f"c{i}", r, 1.0, False) for i, r in enumerate(residuals)]
    _, (i,) = _worst([(_local, np.array(residuals))])
    assert ValidationReport(checks).worst() is checks[i]
