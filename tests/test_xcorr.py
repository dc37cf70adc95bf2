from __future__ import annotations

import numpy as np
import pytest

from equicorr.bundles import _transport, section_to_mackey, trivial_bundle
from equicorr.measures import counting_family
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections, random_valid_filter
from equicorr.scenarios import build_scenario, dihedral_vertex_action, torus_action
from equicorr.transforms import Kernel, filter_operator, operator_equivariance_residual
from equicorr.xcorr import Filter, correlate_sections, cross_correlate, validate_filter

from helpers import act_on_mackey, mackey_to_section, mul, validate_mackey
from test_stacked import ref_convolve
from test_streaming import two_orbit_filter


def brute_xcorr(filt, m, mu):
    """Triple-loop reference: (w * m)(h, b) = sum_k mu_b(k) w(k, b) m(hk, b)."""
    action = filt.action
    grp = action.group
    n, mb = grp.order, action.base_size
    out = np.zeros_like(m.values)
    for h in range(n):
        for b in range(mb):
            acc = np.zeros(m.values.shape[2])
            for k in range(n):
                acc = acc + mu.weights[b, k] * (filt.matrices[k, b] @ m.values[mul(grp, h, k), b])
            out[h, b] = acc
    return out


def test_xcorr_matches_brute_force_dihedral(dihedral4):
    scn = dihedral4
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(31), 1)[0])
    out = cross_correlate(scn.filt, m, scn.mu)
    assert np.allclose(out.values, brute_xcorr(scn.filt, m, scn.mu), atol=1e-12)
    induced = correlate_sections(scn.filt, scn.mu, mackey_to_section(m).values)
    assert np.allclose(out.values[scn.group.identity], induced, atol=0)


def test_xcorr_matches_brute_force_sign_bundle(dihedral4_sign):
    scn = dihedral4_sign
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(32), 1)[0])
    out = cross_correlate(scn.filt, m, scn.mu)
    assert np.allclose(out.values, brute_xcorr(scn.filt, m, scn.mu), atol=1e-12)


def test_xcorr_equivariance_and_mackey_preservation(cyclic8):
    scn = cyclic8
    sections = [section_to_mackey(f) for f in random_sections(scn.input_bundle, SplitMix64(7), 6)]
    res, _ = operator_equivariance_residual(filter_operator(scn.filt, scn.mu), scn.input_bundle, scn.output_bundle)
    assert res <= 1e-12
    for m in sections:
        assert validate_mackey(cross_correlate(scn.filt, m, scn.mu)).passed


def test_equivariance_commutes_pointwise(torus8):
    # brute force one group element: w * (g.m) == g.(w * m)
    scn = torus8
    grp = scn.group
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(13), 1)[0])
    for g in (1, 9, 37):
        lhs = cross_correlate(scn.filt, act_on_mackey(g, m), scn.mu)
        rhs = act_on_mackey(g, cross_correlate(scn.filt, m, scn.mu))
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_violating_filter_breaks_equivariance(dihedral4):
    scn = dihedral4
    mats = scn.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    bad = Filter(scn.input_bundle, scn.output_bundle, mats)
    assert not validate_filter(bad, tolerance=1e-12).passed
    res, witness = operator_equivariance_residual(filter_operator(bad, scn.mu), scn.input_bundle, scn.output_bundle)
    assert res > 1e-9 and len(witness) == 3


def test_convolution_equality_counting_measure(dihedral4):
    # under the left-invariant counting measure, w * m is the convolution
    # with the inverted filter w'(h, b) = w(h^-1, b), for a valid filter and
    # for a violating one alike: the identity is one sum in two orders and
    # says nothing about the faint constraint
    scn = dihedral4
    assert np.ptp(scn.mu.weights, axis=1).max() == 0.0
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(5), 1)[0])
    mats = scn.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    bad = Filter(scn.input_bundle, scn.output_bundle, mats)
    assert not validate_filter(bad, tolerance=1e-12).passed
    for filt in (scn.filt, bad):
        flipped = Filter(filt.input_bundle, filt.output_bundle, filt.matrices[scn.group.inv])
        direct = cross_correlate(filt, m, scn.mu)
        assert np.allclose(direct.values, ref_convolve(flipped, m, scn.mu), atol=1e-12)


def _round_trip(filt: Filter, bump: float = 0.0) -> Filter:
    """filt's columns at the orbit representatives, its entry at (r1, b0 =
    0) raised by bump, carried to the rest of each orbit by
    bundles._transport.  Conjugation by the reflection fixing b0 = 0 swaps
    r1 and r3 in dihedral(4), so a lone bump at r1 cannot satisfy the
    stabilizer slice of the constraint."""
    domain = list(filt.action.domain)
    mats = np.zeros_like(filt.matrices)
    mats[:, domain] = filt.matrices[:, domain]
    mats[1, 0, 0, 0] += bump
    _transport(mats, filt.action, True, filt.output_bundle.act_matrix, filt.input_bundle.act_matrix)
    return Filter(filt.input_bundle, filt.output_bundle, mats)


def test_expand_loads_a_stabilizer_inconsistent_row(dihedral4):
    # the transport decides no law; the law check names the bumped row
    filt = _round_trip(dihedral4.filt, bump=1.0)
    check = validate_filter(filt).checks[0]
    # s0 r3 s0^-1 = r1: the law at (s0, r3, 0) compares the bumped row with r3's
    assert not check.passed and check.witness == (4, 3, 0)
    assert dihedral4.action.table[4, 0] == 0  # g is in the stabilizer of b


def test_stabilizer_part_alone_catches_a_carried_bad_row(dihedral4):
    # the transport carries the bad row to every base point exactly, so the
    # table is its own transport (T = 0) and only the stabilizer part S of
    # validate_filter can see the violation
    filt = _round_trip(dihedral4.filt, bump=1.0)
    assert _round_trip(filt).matrices.tobytes() == filt.matrices.tobytes()
    report = validate_filter(filt)
    assert not report.passed
    g, h, b = report.checks[0].witness
    assert b == 0 and dihedral4.action.table[g, b] == b


@pytest.mark.parametrize("spec", ["dihedral(4, bundle=sign)", "torus(4)", "cyclic(6)", "two-orbit"])
def test_codec_residual_is_bounded_by_the_law_residual(spec):
    # the round trip keeps the rows at each orbit's fundamental-domain point
    # and carries them on, so all it changes is the transport part T of the
    # law's residual R = max(S, T)
    filt = two_orbit_filter()[0] if spec == "two-orbit" else build_scenario(spec).filt
    for at in np.ndindex(filt.matrices.shape):  # every single-entry corruption
        mats = filt.matrices.copy()
        mats[at] += 0.5
        bad = Filter(filt.input_bundle, filt.output_bundle, mats)
        codec = float(np.abs(_round_trip(bad).matrices - mats).max())
        check = validate_filter(bad).checks[0]
        assert not check.passed and codec <= check.residual, at
        if spec == "two-orbit" and at[1] == 4:  # the fixed point inf is its own orbit: only the law sees it
            assert codec == 0.0 and check.witness[2] == 4, at


def test_random_valid_filters_satisfy_constraint():
    action = torus_action(6, 1, 6)
    bundle = trivial_bundle(action, 1)
    rng = SplitMix64(77)
    for _ in range(5):
        filt = random_valid_filter(bundle, bundle, rng)
        assert validate_filter(filt, tolerance=1e-12).passed


def test_identity_filter_reproduces_mean():
    # w = indicator of identity: xcorr picks out m(h, b) scaled by mu
    action = dihedral_vertex_action(4)
    bundle = trivial_bundle(action, 1)
    mats = np.zeros((8, 4, 1, 1))
    mats[0, :, 0, 0] = 1.0
    filt = Filter(bundle, bundle, mats)
    assert validate_filter(filt).passed
    mu = counting_family(action, 1.0)
    m = section_to_mackey(random_sections(bundle, SplitMix64(50), 1)[0])
    out = cross_correlate(filt, m, mu)
    assert np.allclose(out.values, m.values, atol=1e-13)


def test_filter_support_tracks_nonzeros(bands16):
    filt = bands16.filt
    hs, bs = np.nonzero(filt.support)
    assert np.all(np.any(filt.matrices[hs, bs] != 0.0, axis=(1, 2)))
    assert filt.support.sum() == 9 * 16  # three bands of three, every base point


@pytest.mark.parametrize("field", ["support", "support_index"])
def test_filter_refuses_a_derived_field_as_an_argument(bands16, field):
    # derived from the matrices: a caller's value would be dropped without a word
    filt = bands16.filt
    with pytest.raises(TypeError):
        Filter(filt.input_bundle, filt.output_bundle, filt.matrices, **{field: getattr(filt, field)})


def test_kernel_refuses_its_derived_support_as_an_argument(bands16):
    kern = bands16.kernel
    with pytest.raises(TypeError):
        Kernel(kern.input_bundle, kern.output_bundle, kern.matrices, support=kern.support)
