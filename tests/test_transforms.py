from __future__ import annotations

import numpy as np
import pytest

from equicorr.battery import run_battery
from equicorr.bundles import Section, representation_bundle, trivial_bundle
from equicorr.errors import DomainError, StructuralError
from equicorr.groups import INDEX_DTYPE, stabilizer
from equicorr.measures import (
    DeltaFunction,
    OrbitMeasureFamily,
    counting_stabilizer_family,
    dirac_delta,
    fubini_pointwise_residual,
    validate_families,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections, random_valid_kernel, random_violating_kernel
from equicorr.scenarios import build_scenario
from equicorr.serialize import Scenario
from equicorr.transforms import (
    Kernel,
    ThetaMap,
    filter_operator,
    integral_transform,
    kernel_operator,
    lift_kernel_to_filter,
    operator_equivariance_residual,
    project_filter_to_kernel,
    validate_kernel,
    validate_theta,
)
from equicorr.xcorr import Filter, _faint_constraint, correlate_sections, validate_filter

from helpers import (
    act_on_section,
    cayley_table,
    coset_project_filter_to_kernel,
    mul,
    permutation_representation,
    reference_derive_theta,
    s4_on_four_and_two,
)
from test_streaming import two_orbit_filter


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
    """kappa(k.b, b) = sum_{s in G_b} nu_b w(k s, b) A_E((k s)^-1, k.b), nu_b the mass of each s."""
    action = filt.action
    grp = action.group
    mb = action.base_size
    ae = filt.input_bundle.act_matrix
    out = np.zeros((mb, mb, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for b in range(mb):
        stab = [int(s) for s in stabilizer(action, b)]
        seen = set()
        for k in range(grp.order):
            c = action.table[k, b]
            if c in seen:
                continue
            seen.add(c)
            acc = np.zeros_like(out[c, b])
            for s in stab:
                ks = mul(grp, k, s)
                acc = acc + nu.weights[b] * (filt.matrices[ks, b] @ ae[grp.inv[ks], c])
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
            c = action.table[h, b]
            if not kern.support[c, b]:
                continue
            s = mul(grp, grp.inv[int(theta.reps[c, b])], h)
            assert action.table[s, b] == b  # theta(h.b, b)^-1 h stabilizes b
            out[h, b] = delta.values[s, b] * (kern.matrices[c, b] @ ae[h, b])
    return out


def test_transform_matches_brute_force(dihedral4):
    scn = dihedral4
    f = random_sections(scn.input_bundle, SplitMix64(61), 1)[0]
    out = integral_transform(scn.kernel, scn.mubar, f)
    assert np.allclose(out.values, brute_transform(scn.kernel, scn.mubar, f), atol=1e-13)


def test_transform_equivariance_valid_kernel(torus8):
    scn = torus8
    op = kernel_operator(scn.kernel, scn.mubar)
    assert operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)[0] <= 1e-12


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
        op = kernel_operator(bad, scn.mubar)
        assert not operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)[0] <= 1e-9


@pytest.mark.parametrize("spec", ["dihedral(4)", "torus(8)"])
def test_necessity_residual_is_the_kernel_residual_weighted_by_mubar(spec):
    # under the mubar law each defect of mubar kappa is mubar_b0(c) times
    # the defect of kappa, so min mubar R_kappa <= R_op <= max mubar R_kappa
    scn = build_scenario(spec)
    assert validate_families(scn.mu, scn.nu, scn.mubar, tolerance=1e-12).passed
    w = scn.mubar.weights[scn.action.coset_reps >= 0]  # mubar_b(c) on orbit pairs
    assert w.min() > 0.0
    rng = SplitMix64(909)
    for _ in range(50):
        bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, rng)
        r_kappa = next(c.residual for c in validate_kernel(bad).checks if c.name == "kernel-constraint")
        r_op, _ = operator_equivariance_residual(kernel_operator(bad, scn.mubar), scn.input_bundle, scn.output_bundle)
        assert r_kappa >= 0.1
        assert w.min() * r_kappa * (1 - 1e-12) <= r_op <= w.max() * r_kappa * (1 + 1e-12)


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


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(8)",
        "dihedral(4, bundle=sign)",
        "dihedral(8, families=normalized-psi)",
        "torus(6)",
        "torus-bands(16)",
        "circle-grid(16)",
    ],
)
def test_projection_is_bitwise_the_per_coset_sum_on_the_builtins(spec):
    # the support scatter visits only support elements, in ascending order;
    # the per-coset sum visits every coset element in stabilizer order
    scn = build_scenario(spec)
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    assert kern.matrices.tobytes() == coset_project_filter_to_kernel(scn.filt, scn.nu).tobytes()


@pytest.mark.parametrize("which", [0, 1])
def test_projection_matches_the_per_coset_sum_on_a_two_dimensional_fiber(which):
    filt = two_orbit_filter()[which]  # valid, then bumped at the fixed point inf
    nu = counting_stabilizer_family(filt.action)
    kern = project_filter_to_kernel(filt, nu)
    assert np.abs(kern.matrices - coset_project_filter_to_kernel(filt, nu)).max() <= 1e-12


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
    transform = kernel_operator(scn.kernel, scn.mubar)
    sections = random_sections(scn.input_bundle, SplitMix64(81), 3)
    for theta in scn.thetas.values():
        lifted = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
        assert np.abs(filter_operator(lifted, scn.mu) - transform).max() < 1e-12
        for f in sections:
            lhs = correlate_sections(lifted, scn.mu, f.values)
            assert np.abs(lhs - integral_transform(scn.kernel, scn.mubar, f).values).max() < 1e-12


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


def test_theta_coverage_gap_is_a_section_violation():
    # a support pair theta leaves undefined is counted and named, not raised
    scn = build_scenario("torus-bands(16)")
    reps = scn.thetas["global"].reps.copy()
    cs, bs = np.nonzero(scn.kernel.support)
    reps[cs[0], bs[0]] = -1  # drop one covered pair
    rep = validate_theta(ThetaMap(scn.action, reps), scn.kernel)
    section, translation = rep.checks
    assert (section.name, section.residual, section.witness) == ("theta-section", 1.0, (int(cs[0]), int(bs[0])))
    assert not translation.passed  # each generator meets the undefined pair at one end


def test_lift_zeroes_where_theta_is_undefined_or_breaks_its_section_law():
    # delta vanishes off each stabilizer, so a theta off its section law lifts to zero
    scn = build_scenario("torus-bands(16)")
    theta = scn.thetas["global"]
    cs, bs = np.nonzero(scn.kernel.support)
    (c0, b0), (c1, b1) = (int(cs[0]), int(bs[0])), (int(cs[-1]), int(bs[-1]))
    reps = theta.reps.copy()
    reps[c0, b0] = -1
    reps[c1, b1] = (int(reps[c1, b1]) + 1) % scn.group.order
    assert scn.action.table[reps[c1, b1], b1] != c1
    broken = ThetaMap(scn.action, reps)
    assert not validate_theta(broken, scn.kernel).passed
    lifted = lift_kernel_to_filter(scn.kernel, broken, scn.delta).matrices
    expect = lift_kernel_to_filter(scn.kernel, theta, scn.delta).matrices.copy()
    hb = scn.action.table
    for c, b in ((c0, b0), (c1, b1)):
        expect[hb[:, b] == c, b] = 0.0
    assert np.array_equal(lifted, expect)


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
    failed = {c.name for c in rep.checks if not c.passed}
    assert any("translation" in name for name in failed)


def test_the_coset_theta_round_trips_scenarios(dihedral4, cyclic8, torus8):
    for scn in (dihedral4, cyclic8, torus8):
        theta = ThetaMap(scn.action, scn.action.coset_reps.T)
        assert validate_theta(theta, scn.kernel).passed


def test_lift_requires_disintegration():
    # under a mubar that breaks the pointwise identity the lift no longer
    # induces the transform, so the battery reports the agreement skipped
    scn = build_scenario("dihedral(4)")
    bad = Scenario(
        scn.name, scn.params, scn.action, scn.input_bundle, scn.output_bundle, scn.mu, scn.nu,
        OrbitMeasureFamily(scn.action, scn.mubar.weights * 1.5), scn.psi, scn.delta, scn.filt, scn.kernel,
        scn.thetas, scn.extras,
    )
    fub = fubini_pointwise_residual(bad.mu, bad.nu, bad.mubar)[0]
    assert fub > 1e-9
    lifted = lift_kernel_to_filter(scn.kernel, scn.thetas["derived"], scn.delta)
    assert np.abs(filter_operator(lifted, bad.mu) - kernel_operator(bad.kernel, bad.mubar)).max() > 1e-9
    checks = {c.name: c for c in run_battery(bad, 1e-12).checks}
    for name in ("lift.derived.transform-agreement", "projection.transform-agreement"):
        assert checks[name].skipped and checks[name].passed
    assert not checks["projection.kernel.kernel-constraint"].skipped


def test_random_valid_kernels_validate():
    scn = build_scenario("torus(6)")
    rng = SplitMix64(55)
    for _ in range(5):
        kern = random_valid_kernel(scn.input_bundle, scn.output_bundle, rng)
        assert validate_kernel(kern, tolerance=1e-12).passed


def brute_filter_operator(filt, mu):
    """[c, b] = sum over k with k.b = c of mu_b(k) w(k, b) A_E(k^-1, c): the
    induced map T(f)(b) = sum_k mu_b(k) w(k, b) f~(k, b) read off term by term."""
    action, grp = filt.action, filt.action.group
    mb = action.base_size
    out = np.zeros((mb, mb, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for b in range(mb):
        for k in range(grp.order):
            c = action.table[k, b]
            out[c, b] += mu.weights[b, k] * (filt.matrices[k, b] @ filt.input_bundle.act_matrix[grp.inv[k], c])
    return out


@pytest.mark.parametrize("spec", ["dihedral(4, bundle=sign)", "torus-bands(16)"])
def test_operators_match_brute_force(spec):
    scn = build_scenario(spec)
    assert np.allclose(filter_operator(scn.filt, scn.mu), brute_filter_operator(scn.filt, scn.mu), atol=1e-13)
    f = random_sections(scn.input_bundle, SplitMix64(12), 1)[0]
    applied = np.einsum("cbij,cj->bi", kernel_operator(scn.kernel, scn.mubar), f.values)
    assert np.allclose(applied, brute_transform(scn.kernel, scn.mubar, f), atol=1e-13)


def test_operator_residual_bounds_the_sampled_residual():
    # one corrupted entry of a lifted filter: R, the largest entry of the
    # operator difference, against P, the sampled residual on sections in
    # [-1, 1]: P <= |B| dE R, and R is the largest P over the signed basis
    scn = build_scenario("dihedral(4, bundle=sign)")
    lifted = lift_kernel_to_filter(scn.kernel, scn.thetas["derived"], scn.delta)
    mats = lifted.matrices.copy()
    mats[3, 1, 0, 0] += 0.375
    bad = Filter(lifted.input_bundle, lifted.output_bundle, mats)
    R = float(np.abs(filter_operator(bad, scn.mu) - kernel_operator(scn.kernel, scn.mubar)).max())
    assert R > 0.1

    def sampled(values):
        f = Section(scn.input_bundle, values)
        return float(np.abs(correlate_sections(bad, scn.mu, values) - integral_transform(scn.kernel, scn.mubar, f).values).max())

    mb, de = scn.action.base_size, scn.input_bundle.dmax
    for f in random_sections(scn.input_bundle, SplitMix64(31), 20):
        assert sampled(f.values) <= mb * de * R
    basis = np.eye(mb * de).reshape(mb * de, mb, de)
    assert max(sampled(sign * e) for e in basis for sign in (1.0, -1.0)) == R


@pytest.mark.parametrize("entry", [2**32, -(2**32) + 5, -2, 8, -(2**16) + 5, 2**16])  # dihedral(4) has |G| = 8
def test_theta_entries_are_range_checked_before_narrowing(entry):
    # -2^16 + 5 and -2^32 + 5 wrap to the defined value 5 in int16 and int32, 2^16 and 2^32 to 0
    scn = build_scenario("dihedral(4)")
    reps = scn.thetas["derived"].reps.astype(np.int64)
    reps[0, 1] = entry
    with pytest.raises(StructuralError, match="theta entry out of range"):
        ThetaMap(scn.action, reps)
    assert scn.thetas["derived"].reps.dtype == INDEX_DTYPE


# ---------------------------------------------------------------------------
# the averaged lift: theta by the coset representatives, delta uniform on
# each stabilizer


def averaged_delta(nu) -> DeltaFunction:
    """delta(h, b) = 1 / (nu_b |Stab(b)|) on the stabilizer of b: constant
    there, of unit nu-mass."""
    action = nu.action
    values = np.zeros((action.group.order, action.base_size))
    for b, stab in enumerate(action.stabilizers):
        values[stab, b] = 1.0 / (nu.weights[b] * stab.size)
    return DeltaFunction(action, values)


def s4_kernels():
    """S4 on 4 ⊔ 2 points, by bundle: a valid random kernel and nu counting."""
    action = s4_on_four_and_two()
    nu = counting_stabilizer_family(action)
    bundles = {"trivial": trivial_bundle(action), "permutation": representation_bundle(action, permutation_representation(action))}
    return {f"S4 on 4+2, {name}": (random_valid_kernel(b, b, SplitMix64(46)), nu) for name, b in bundles.items()}


def averaged_lift_cases():
    """Built-ins and S4, by name: a kernel and nu."""
    cases = dict(S4_KERNELS)
    for spec in ("cyclic(6)", "dihedral(5, bundle=sign)", "torus(4)", "torus-bands(16)"):
        scn = build_scenario(spec)
        cases[spec] = (scn.kernel, scn.nu)
    return cases


S4_KERNELS = s4_kernels()
AVERAGED_LIFTS = averaged_lift_cases()


@pytest.mark.parametrize("name", sorted(AVERAGED_LIFTS))
def test_the_averaged_lift_is_faint_and_projects_back(name):
    # delta constant on each stabilizer makes the lift faint whatever theta
    # does beyond its section law, which the coset representatives meet
    kern, nu = AVERAGED_LIFTS[name]
    action = kern.action
    theta = ThetaMap(action, action.coset_reps.T)
    assert validate_theta(theta, kern).checks[0].passed  # the section law
    lift = lift_kernel_to_filter(kern, theta, averaged_delta(nu))
    assert lift.support.any() and _faint_constraint(lift)[0] <= 1e-12
    assert np.abs(project_filter_to_kernel(lift, nu).matrices - kern.matrices).max() <= 1e-12


def faint_defect(filt, g: int, h: int, b: int) -> float:
    """|omega(g h g^-1, g.b) A_E(g, b) - A_F(g, b) omega(h, b)|, the largest entry."""
    grp, table = filt.action.group, filt.action.table
    lhs = filt.matrices[cayley_table(grp)[cayley_table(grp)[g, h], grp.inv[g]], table[g, b]] @ filt.input_bundle.act_matrix[g, b]
    return float(np.abs(lhs - filt.output_bundle.act_matrix[g, b] @ filt.matrices[h, b]).max())


@pytest.mark.parametrize("name", sorted(S4_KERNELS))
def test_a_dirac_delta_needs_the_translation_law_that_s4_denies(name):
    # no theta on S4's 4 ⊔ 2 points meets the translation law, and the coset
    # representatives break it: the Dirac lift along them is not faint, and
    # its witness is an instance of the law whose defect is the residual
    kern, nu = S4_KERNELS[name]
    action = kern.action
    with pytest.raises(DomainError, match="no orbit-map section is compatible"):
        reference_derive_theta(action, (action.coset_reps >= 0).T)
    theta = ThetaMap(action, action.coset_reps.T)
    section, translation = validate_theta(theta, kern).checks
    assert section.passed and not translation.passed
    lift = lift_kernel_to_filter(kern, theta, dirac_delta(nu))
    residual, witness = _faint_constraint(lift)
    assert residual > 0.1 and faint_defect(lift, *witness) == pytest.approx(residual, rel=1e-12)
