"""The battery's block-streamed Mackey-level checks against per-section code.

`battery._filter_checks` induces the sampled sections SECTION_BLOCK at a
time, cross-correlates each block once and feeds the outputs to the Mackey
preservation scan and the convolution comparison.  The reference below is
the per-section form it replaced: every section induced up front, one
cross-correlation and one convolution per section, each summed over the
support in ascending order with 2-D gathers of its own.  Both must give
bitwise-equal residuals and the same witnesses, which name the global
section index.  The equivariance check reads the filter's operator matrix,
not the sections, so the reference computes it the same way.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from equicorr.battery import SECTION_BLOCK, _filter_checks
from equicorr.bundles import MackeySection, validate_mackey
from equicorr.measures import GroupMeasureFamily
from equicorr.reporting import _maxabs, _worst_of_grid, check_from_residual
from equicorr.rng import SplitMix64
from equicorr.sampling import random_mackey_sections
from equicorr.scenarios import build_scenario
from equicorr.transforms import filter_operator, operator_equivariance_residual
from equicorr.xcorr import (
    Filter,
    convolve,
    cross_correlate,
    mu_left_invariant,
    to_convolution_form,
)

from test_stacked import BUILTINS, FILTERS

TOL = 1e-12
COUNTS = (1, SECTION_BLOCK - 1, SECTION_BLOCK + 1, 2 * SECTION_BLOCK + 1)


def per_section_xcorr(filt, m, mu):
    """(w * m)(h, b) = sum_s mu_b(k_s) w(k_s, b) m(h k_s, b), one section."""
    grp, cols = filt.action.group, np.arange(filt.action.base_size)
    idx = filt.support_index
    weights = mu.weights[cols[:, None], idx][:, :, None, None] * filt.matrices[idx, cols[:, None]]
    out = np.zeros((grp.order, len(cols), filt.output_bundle.dmax))
    for s in range(idx.shape[1]):
        hk = grp.cayley[:, idx[:, s]]
        out += np.einsum("bij,...bj->...bi", weights[:, s], m.values[hk, cols])
    return out


def per_section_convolve(flipped, m, mu):
    """sum_s mu_b(h x_s^-1) w'(x_s, b) m(h x_s^-1, b), one section."""
    grp, cols = flipped.action.group, np.arange(flipped.action.base_size)
    idx = flipped.support_index
    mats = flipped.matrices[idx, cols[:, None]]
    out = np.zeros((grp.order, len(cols), flipped.output_bundle.dmax))
    for s in range(idx.shape[1]):
        hx = grp.cayley[:, grp.inv[idx[:, s]]]
        out += np.einsum("bij,...bj->...bi", mats[:, s], mu.weights[cols, hx][..., None] * m.values[hx, cols])
    return out


def per_section_checks(scn, seed, n_sections):
    """The three cross-correlation checks, every section at once."""
    sections = random_mackey_sections(scn.input_bundle, SplitMix64(seed), n_sections)
    op = filter_operator(scn.filt, scn.mu)
    residual, witness = operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)
    checks = [check_from_residual("xcorr.equivariance", residual, TOL, witness)]
    outputs = [MackeySection(scn.output_bundle, per_section_xcorr(scn.filt, m, scn.mu)) for m in sections]
    worst, wit = _worst_of_grid(np.array([validate_mackey(out).worst().residual for out in outputs]))
    checks.append(check_from_residual("xcorr.mackey-preserved", worst, TOL, wit))
    if mu_left_invariant(scn.mu):
        flipped = to_convolution_form(scn.filt)
        gaps = [_maxabs(out.values - per_section_convolve(flipped, m, scn.mu)) for out, m in zip(outputs, sections)]
        worst, wit = _worst_of_grid(np.array(gaps))
        checks.append(check_from_residual("xcorr.convolution-agreement", worst, TOL, wit))
    return checks


def bits(check):
    return (check.name, float(check.residual).hex(), check.tolerance, check.passed, check.witness, check.skipped)


def filter_checks(scn, seed, n_sections):
    op = None if scn.filt is None else filter_operator(scn.filt, scn.mu)
    return _filter_checks(scn, op, seed, TOL, n_sections)


def assert_streamed_matches(scn, seed, n_sections):
    streamed = {c.name: c for c in filter_checks(scn, seed, n_sections)}
    want = per_section_checks(scn, seed, n_sections)
    for check in want:
        assert bits(streamed[check.name]) == bits(check)
    return streamed


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_a_stack_matches_per_section_sums_bitwise(name):
    filt, mu = FILTERS[name]
    flipped = to_convolution_form(filt)
    sections = random_mackey_sections(filt.input_bundle, SplitMix64(6), SECTION_BLOCK + 1)
    for out, conv, m in zip(cross_correlate(filt, sections, mu), convolve(flipped, sections, mu), sections):
        assert out.values.tobytes() == per_section_xcorr(filt, m, mu).tobytes()
        assert conv.values.tobytes() == per_section_convolve(flipped, m, mu).tobytes()
    single = cross_correlate(filt, sections[-1], mu)
    assert single.values.tobytes() == out.values.tobytes()


def broken_conjugation():
    """dihedral(4) with one filter entry bumped off the faint constraint."""
    d4 = build_scenario("dihedral(4)")
    mats = d4.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    return replace(d4, filt=Filter(d4.input_bundle, d4.output_bundle, mats))


SCENARIOS = {spec: build_scenario(spec) for spec in BUILTINS}


@pytest.mark.parametrize("n_sections", COUNTS)
@pytest.mark.parametrize("spec", BUILTINS)
def test_streamed_checks_match_per_section(spec, n_sections):
    scn = SCENARIOS[spec]
    if scn.filt is None:
        assert filter_checks(scn, 3, n_sections) == []
        return
    assert_streamed_matches(scn, 3, n_sections)


def test_broken_conjugation_names_a_section_in_a_later_block():
    streamed = assert_streamed_matches(broken_conjugation(), 2, 2 * SECTION_BLOCK + 1)
    mackey = streamed["xcorr.mackey-preserved"]
    assert not mackey.passed
    assert mackey.witness[0] >= SECTION_BLOCK
    assert not streamed["xcorr.equivariance"].passed


@pytest.mark.parametrize("n_sections", COUNTS)
def test_non_left_invariant_mu_skips_the_convolution(n_sections):
    d4 = build_scenario("dihedral(4)")
    weights = d4.mu.weights.copy()
    weights[:, 3] = 2.0  # varies along the group: not left-invariant
    scn = replace(d4, mu=GroupMeasureFamily(d4.action, weights, haar=False))
    streamed = assert_streamed_matches(scn, 5, n_sections)
    conv = streamed["xcorr.convolution-agreement"]
    assert conv.skipped and conv.passed and conv.residual == 0.0


def traced_peak(scn, n_sections):
    op = filter_operator(scn.filt, scn.mu)
    tracemalloc.start()
    try:
        _filter_checks(scn, op, 5, TOL, n_sections)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_filter_checks_peak_is_one_block():
    """A block holds three Mackey-sized tables per section: its induced
    input, its cross-correlation and its convolution.  Past one block the
    peak stays put, because each block's tables die before the next block
    is induced."""
    scn = build_scenario("torus-bands(16)")
    size = scn.group.order * scn.action.base_size * scn.input_bundle.dmax * 8
    one, block, many = (traced_peak(scn, n) for n in (1, SECTION_BLOCK, 40))
    assert block < one + (3 * (SECTION_BLOCK - 1) + 1) * size
    assert many < block + size
