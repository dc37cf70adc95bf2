from __future__ import annotations

import numpy as np
import pytest

from equicorr.bundles import Section, act_on_section
from equicorr.errors import CoverageError, PreconditionError, StructuralError
from equicorr.groups import stabilizer
from equicorr.measures import counting_family, counting_stabilizer_family, dirac_delta, solve_orbit_family
from equicorr.rng import SplitMix64
from equicorr.sampling import random_valid_filter, random_valid_kernel, random_violating_kernel
from equicorr.scenarios import build_scenario, derive_theta
from equicorr.transforms import (
    Kernel,
    ThetaMap,
    check_equivariance,
    integral_transform,
    lift_equivalence_check,
    lift_kernel_to_filter,
    project_filter_to_kernel,
    random_sections,
    transform_equivariance_residual,
    validate_kernel,
    validate_theta,
)
from equicorr.xcorr import correlate_sections, validate_filter

from helpers import mul


def brute_transform(kern, mubar, f):
    """T(f)(b) = sum_c mubar_b(c) kappa(c, b) f(c), ascending c."""
    mb = kern.action.base_size
    out = np.zeros((mb, kern.output_bundle.dmax))
    for b in range(mb):
        acc = np.zeros(kern.output_bundle.dmax)
        for c in range(mb):
            acc = acc + mubar.weights[b, c] * (kern.matrices[c, b] @ f.values[c])
        out[b] = acc
    return out


def brute_project(filt, nu):
    """kappa(k.b, b) = sum_{s in G_b} nu_b(s) w(k s, b) A_E((k s)^-1, k.b)."""
    action = filt.action
    grp = action.group
    mb = action.base_size
    ae = filt.input_bundle.act_matrix
    out = np.zeros((mb, mb, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for b in range(mb):
        stab = [int(s) for s in stabilizer(action, b)]
        seen = set()
        for k in range(grp.order):
            c = action.act(k, b)
            if c in seen:
                continue
            seen.add(c)
            acc = np.zeros_like(out[c, b])
            for s in stab:
                ks = mul(grp, k, s)
                acc = acc + nu.weights[b, s] * (filt.matrices[ks, b] @ ae[grp.inverse(ks), c])
            out[c, b] = acc
    return out


def brute_lift(kern, theta, delta):
    """w(h, b) = delta(theta(h.b, b)^-1 h, b) kappa(h.b, b) A_E(h, b) on supp."""
    action = kern.action
    grp = action.group
    mb = action.base_size
    ae = kern.input_bundle.act_matrix
    out = np.zeros((grp.order, mb, kern.output_bundle.dmax, kern.input_bundle.dmax))
    for b in range(mb):
        for h in range(grp.order):
            c = action.act(h, b)
            if not kern.support[c, b]:
                continue
            s = mul(grp, grp.inverse(int(theta.reps[c, b])), h)
            assert action.act(s, b) == b  # theta(h.b, b)^-1 h stabilizes b
            out[h, b] = delta.values[s, b] * (kern.matrices[c, b] @ ae[h, b])
    return out


def test_transform_matches_brute_force(dihedral4):
    scn = dihedral4
    f = random_sections(scn.input_bundle, SplitMix64(61), 1)[0]
    out = integral_transform(scn.kernel, scn.mubar, f)
    assert np.allclose(out.values, brute_transform(scn.kernel, scn.mubar, f), atol=1e-13)


def test_transform_equivariance_valid_kernel(torus8):
    scn = torus8
    rep = check_equivariance(scn.kernel, scn.mubar, seed=5, n_sections=20)
    assert rep.passed


def test_transform_equivariance_pointwise(dihedral4_sign):
    # brute force T(g.f) = g.T(f) for a few g
    scn = dihedral4_sign
    f = random_sections(scn.input_bundle, SplitMix64(62), 1)[0]
    base = integral_transform(scn.kernel, scn.mubar, f)
    for g in (1, 4, 6):
        lhs = integral_transform(scn.kernel, scn.mubar, act_on_section(g, f))
        rhs = act_on_section(g, base)
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_planted_violations_always_caught(dihedral4):
    scn = dihedral4
    rng = SplitMix64(99)
    for _ in range(10):
        bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, rng)
        assert not validate_kernel(bad, tolerance=1e-9).passed
        rep = check_equivariance(bad, scn.mubar, seed=rng.next_u64(), n_sections=20, tolerance=1e-9)
        assert not rep.passed


def test_equivariance_search_uses_the_requested_section_count(dihedral4):
    # fewer than 20 sections is honored, not raised to 20
    scn = dihedral4
    bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(3))
    sections = random_sections(scn.input_bundle, SplitMix64(5), 3)
    residual, witness = transform_equivariance_residual(bad, scn.mubar, sections)
    check = check_equivariance(bad, scn.mubar, seed=5, n_sections=3, tolerance=1e-9).checks[0]
    assert (check.residual, check.witness) == (residual, witness)
    assert witness[0] < 3


def test_kernel_support_off_orbit_rejected():
    scn = build_scenario("torus-bands(16)")
    mats = scn.kernel.matrices  # transitive action: any support is on-orbit
    kern = Kernel(scn.input_bundle, scn.output_bundle, mats)
    assert validate_kernel(kern).passed
    # a two-orbit action: weight across orbits must be rejected
    from equicorr.bundles import trivial_bundle
    from equicorr.groups import GroupAction, cyclic_group

    grp = cyclic_group(3)
    table = np.zeros((3, 6), dtype=np.int64)
    table[:, :3] = (np.arange(3)[:, None] + np.arange(3)[None, :]) % 3
    table[:, 3:] = 3 + (np.arange(3)[:, None] + np.arange(3)[None, :]) % 3
    action = GroupAction(grp, tuple("abcdef"), table)
    bundle = trivial_bundle(action, 1)
    cross = np.zeros((6, 6, 1, 1))
    cross[4, 0, 0, 0] = 1.0  # couples the two orbits
    with pytest.raises(StructuralError):
        Kernel(bundle, bundle, cross)


def test_projection_matches_brute_force(dihedral4):
    scn = dihedral4
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    assert np.allclose(kern.matrices, brute_project(scn.filt, scn.nu), atol=1e-13)
    assert validate_kernel(kern, tolerance=1e-12).passed


@pytest.mark.parametrize("spec", ["dihedral(4, bundle=sign)", "torus-bands(16)"])
def test_projection_matches_brute_force_on_act_matrices_and_large_stabilizers(spec):
    scn = build_scenario(spec)
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    assert np.allclose(kern.matrices, brute_project(scn.filt, scn.nu), atol=1e-13)


def test_projection_theorem_identity_slice(dihedral4_sign):
    # (w * f~)(e, -) = T_{P w}(f) under the exact disintegration identity
    scn = dihedral4_sign
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    for f in random_sections(scn.input_bundle, SplitMix64(71), 5):
        lhs = correlate_sections(scn.filt, scn.mu, f.values)
        rhs = integral_transform(kern, scn.mubar, f)
        assert np.abs(lhs - rhs.values).max() < 1e-12


def test_lift_matches_brute_force(bands16):
    scn = bands16
    for name, theta in scn.thetas.items():
        lifted = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
        assert np.allclose(lifted.matrices, brute_lift(scn.kernel, theta, scn.delta), atol=1e-13)
        assert validate_filter(lifted, tolerance=1e-12).passed


def test_lift_transform_equivalence(bands16):
    scn = bands16
    sections = random_sections(scn.input_bundle, SplitMix64(81), 3)
    for theta in scn.thetas.values():
        gaps = [lift_equivalence_check(scn.kernel, theta, scn.delta, scn.mu, scn.nu, scn.mubar, [f]) for f in sections]
        assert max(gaps) < 1e-12
        # the stacked sections give the worst single-section residual, bit for bit
        assert lift_equivalence_check(scn.kernel, theta, scn.delta, scn.mu, scn.nu, scn.mubar, sections) == max(gaps)


def test_project_after_lift_is_identity(bands16):
    scn = bands16
    for theta in scn.thetas.values():
        lifted = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
        back = project_filter_to_kernel(lifted, scn.nu)
        assert np.abs(back.matrices - scn.kernel.matrices).max() < 1e-12


def test_lift_after_project_differs_in_general(dihedral4):
    # the converse composition loses information off the theta section:
    # nothing asserts equality, and the default data genuinely differs
    scn = dihedral4
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    theta = scn.thetas["derived"]
    lifted = lift_kernel_to_filter(kern, theta, scn.delta)
    assert np.abs(lifted.matrices - scn.filt.matrices).max() > 1e-6


def test_theta_laws_validate(bands16):
    scn = bands16
    for theta in scn.thetas.values():
        assert validate_theta(theta, scn.kernel).passed


def test_theta_coverage_error():
    scn = build_scenario("torus-bands(16)")
    reps = scn.thetas["global"].reps.copy()
    cs, bs = np.nonzero(scn.kernel.support)
    reps[cs[0], bs[0]] = -1  # drop one covered pair
    theta = ThetaMap(scn.action, reps)
    with pytest.raises(CoverageError):
        validate_theta(theta, scn.kernel)


def test_theta_translation_violation_counted():
    scn = build_scenario("torus-bands(16)")
    reps = scn.thetas["global"].reps.copy()
    cs, bs = np.nonzero(scn.kernel.support)
    n = scn.params["n"]
    # replace one rep by a different mover: still a section, breaks translation
    c0, b0 = int(cs[0]), int(bs[0])
    movers = np.flatnonzero(scn.action.table[:, b0] == c0)
    other = [int(k) for k in movers if k != reps[c0, b0]]
    reps[c0, b0] = other[0]
    theta = ThetaMap(scn.action, reps)
    rep = validate_theta(theta, scn.kernel)
    assert not rep.passed
    failed = {c.name for c in rep.failures()}
    assert any("translation" in name for name in failed)


def test_derive_theta_round_trips_scenarios(dihedral4, cyclic8, torus8):
    for scn in (dihedral4, cyclic8, torus8):
        theta = derive_theta(scn.action)
        assert validate_theta(theta, scn.kernel).passed


def test_lift_requires_disintegration():
    # a mubar that breaks the pointwise identity must be refused
    scn = build_scenario("dihedral(4)")
    from equicorr.measures import OrbitMeasureFamily

    bad = OrbitMeasureFamily(scn.action, scn.mubar.weights * 1.5)
    f = random_sections(scn.input_bundle, SplitMix64(3), 1)[0]
    with pytest.raises(PreconditionError):
        lift_equivalence_check(scn.kernel, scn.thetas["derived"], scn.delta, scn.mu, scn.nu, bad, [f])


def test_random_valid_kernels_validate():
    scn = build_scenario("torus(6)")
    rng = SplitMix64(55)
    for _ in range(5):
        kern = random_valid_kernel(scn.input_bundle, scn.output_bundle, rng)
        assert validate_kernel(kern, tolerance=1e-12).passed
