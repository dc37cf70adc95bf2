"""Acceptance suite: the headline guarantees of the library, one test per
criterion, each printed as a single pass/fail line in the terminal summary.

Every criterion that relies on a construction (projection, lift) is
cross-checked here against a brute-force evaluation written directly from
the defining formulas, independent of the library code paths.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from equicorr.battery import run_battery
from equicorr.bundles import section_to_mackey
from equicorr.groups import stabilizer
from equicorr.measures import (
    construct_normalized_families,
    fubini_pointwise_residual,
    psi_indicator_identity,
    validate_families,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import (
    random_sections,
    random_valid_filter,
    random_violating_kernel,
)
from equicorr.scenarios import (
    banded_support_mismatch,
    build_circle_grid,
    build_scenario,
    circle_offgrid_residual,
    degeneracy_demo,
    line_grid_ladder,
)
from equicorr.transforms import (
    filter_operator,
    integral_transform,
    kernel_operator,
    lift_kernel_to_filter,
    operator_equivariance_residual,
    project_filter_to_kernel,
    validate_theta,
)
from equicorr.xcorr import correlate_sections, cross_correlate

from helpers import (
    banded_support_shapes,
    check_fubini,
    mul,
    normalization_residual,
    random_group_function,
    scenario_lifts,
    validate_mackey,
)

TOL = 1e-12

EQUIVARIANCE_SPECS = ("cyclic(8)", "dihedral(4)", "dihedral(4, bundle=sign)", "torus(8)")


@pytest.fixture(scope="module")
def equivariance_battery():
    """20 seeded valid filters and 20 Mackey sections per scenario."""
    battery = {}
    for spec in EQUIVARIANCE_SPECS:
        scn = build_scenario(spec)
        rng = SplitMix64(2024)
        filters = [
            random_valid_filter(scn.input_bundle, scn.output_bundle, rng) for _ in range(20)
        ]
        sections = [section_to_mackey(f) for f in random_sections(scn.input_bundle, rng, 20)]
        battery[spec] = (scn, filters, sections)
    return battery


def test_c01_cross_correlation_equivariance(acceptance, equivariance_battery):
    # exactly, for every g, on the matrix of each filter's induced map
    t0 = time.perf_counter()
    worst = 0.0
    for scn, filters, _ in equivariance_battery.values():
        for filt in filters:
            r, _ = operator_equivariance_residual(filter_operator(filt, scn.mu), scn.input_bundle, scn.output_bundle)
            worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    acceptance(
        "1 cross-correlation equivariance over cyclic(8)/dihedral(4)/torus(8)",
        worst <= TOL and elapsed < 60.0,
        f"max residual {worst:.3e}, {len(EQUIVARIANCE_SPECS) * 20} filters, every g, in {elapsed:.1f}s",
    )


def test_c02_output_stays_mackey(acceptance, equivariance_battery):
    worst = 0.0
    for scn, filters, sections in equivariance_battery.values():
        for filt in filters:
            for m in sections:
                rep = validate_mackey(cross_correlate(filt, m, scn.mu))
                worst = max(worst, rep.worst().residual)
    acceptance(
        "2 cross-correlation outputs keep Mackey periodicity",
        worst <= TOL,
        f"max periodicity residual {worst:.3e}",
    )


def test_c03_lift_realizes_the_transform(acceptance, bands16):
    scn = bands16
    worst_equiv = 0.0
    worst_agree = 0.0
    sections = random_sections(scn.input_bundle, SplitMix64(303), 20)
    transform = kernel_operator(scn.kernel, scn.mubar)
    lifted = {}
    for name, theta in scn.thetas.items():
        assert validate_theta(theta, scn.kernel).passed
        lifted[name] = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
        # exactly, on the operator matrices, and on sampled sections
        worst_equiv = max(worst_equiv, float(np.abs(filter_operator(lifted[name], scn.mu) - transform).max()))
        for f in sections:
            gap = correlate_sections(lifted[name], scn.mu, f.values) - integral_transform(scn.kernel, scn.mubar, f).values
            worst_equiv = max(worst_equiv, float(np.abs(gap).max()))
    for f in sections:
        out_g = correlate_sections(lifted["global"], scn.mu, f.values)
        out_s = correlate_sections(lifted["special"], scn.mu, f.values)
        worst_agree = max(worst_agree, float(np.abs(out_g - out_s).max()))
    acceptance(
        "3 both theta lifts realize the kernel transform on torus-bands(16)",
        worst_equiv <= TOL and worst_agree <= TOL,
        f"lift residual {worst_equiv:.3e}, global/special agreement {worst_agree:.3e}",
    )


def test_c04_projection_realizes_the_identity_slice(acceptance):
    worst = 0.0
    fub_worst = 0.0
    for spec in ("dihedral(4)", "dihedral(4, bundle=sign)"):
        scn = build_scenario(spec)
        fub, _ = fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)
        fub_worst = max(fub_worst, fub)
        rng = SplitMix64(404)
        for _ in range(10):
            filt = random_valid_filter(scn.input_bundle, scn.output_bundle, rng)
            kern = project_filter_to_kernel(filt, scn.nu)
            for f in random_sections(scn.input_bundle, rng, 10):
                lhs = correlate_sections(filt, scn.mu, f.values)
                rhs = integral_transform(kern, scn.mubar, f)
                worst = max(worst, float(np.abs(lhs - rhs.values).max()))
    acceptance(
        "4 projected kernel transform equals the identity-slice cross-correlation on dihedral(4)",
        worst <= TOL and fub_worst <= TOL,
        f"max residual {worst:.3e}, disintegration precondition {fub_worst:.3e}",
    )


# brute-force constructions straight from the defining sums, sharing no code
# with the library implementations


def brute_force_projection(filt, nu):
    action = filt.action
    grp = action.group
    mb = action.base_size
    out = np.zeros((mb, mb, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for b in range(mb):
        for c in range(mb):
            movers = [k for k in range(grp.order) if action.table[k, b] == c]
            if not movers:
                continue
            k = movers[0]
            total = np.zeros_like(out[c, b])
            for s in stabilizer(action, b):
                ks = mul(grp, k, int(s))
                a_inv = filt.input_bundle.act_matrix[grp.inv[ks], c]
                total = total + nu.weights[b] * (filt.matrices[ks, b] @ a_inv)
            out[c, b] = total
    return out


def brute_force_lift(kern, theta, delta):
    action = kern.action
    grp = action.group
    out = np.zeros((grp.order, action.base_size, kern.output_bundle.dmax, kern.input_bundle.dmax))
    for b in range(action.base_size):
        for h in range(grp.order):
            c = action.table[h, b]
            if kern.support[c, b]:
                s = mul(grp, grp.inv[int(theta.reps[c, b])], h)
                out[h, b] = delta.values[s, b] * (kern.matrices[c, b] @ kern.input_bundle.act_matrix[h, b])
    return out


def test_c05_project_after_lift_round_trip(acceptance, bands16, dihedral4):
    worst_rt = 0.0
    worst_xchk = 0.0
    for scn in (bands16, dihedral4):
        for theta in scn.thetas.values():
            lifted = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
            worst_xchk = max(
                worst_xchk, float(np.abs(lifted.matrices - brute_force_lift(scn.kernel, theta, scn.delta)).max())
            )
            back = project_filter_to_kernel(lifted, scn.nu)
            worst_xchk = max(worst_xchk, float(np.abs(back.matrices - brute_force_projection(lifted, scn.nu)).max()))
            worst_rt = max(worst_rt, float(np.abs(back.matrices - scn.kernel.matrices).max()))
    acceptance(
        "5 project(lift(kernel)) returns the kernel on torus-bands(16) and dihedral(4)",
        worst_rt <= TOL and worst_xchk <= TOL,
        f"round trip {worst_rt:.3e}, brute-force cross-check {worst_xchk:.3e}",
    )


FUBINI_SPECS = (
    "cyclic(8, families=normalized-psi)",
    "dihedral(4, families=normalized-psi)",
    "dihedral(4, bundle=sign, families=normalized-psi)",
    "torus(8, families=normalized-psi)",
    "torus-bands(16)",
    "circle-grid(16, families=normalized-psi)",
)


def randomized_coset_reps(action, b: int, rng: SplitMix64) -> np.ndarray:
    """reps[c] = k_c s for the smallest representative k_c and a random s in
    Stab(b), for each c in the orbit of b; -1 elsewhere."""
    reps = action.coset_reps[b].copy()
    stab = [int(s) for s in stabilizer(action, b)]
    grp = action.group
    for c in np.flatnonzero(reps >= 0):
        reps[c] = mul(grp, int(reps[c]), stab[rng.next_u64() % len(stab)])
    return reps


def test_c06_disintegration_identity(acceptance):
    # line-grid carries quadrature weights, not psi-normalized families,
    # and sits outside this criterion by construction
    worst = 0.0
    rng = SplitMix64(606)
    for spec in FUBINI_SPECS:
        scn = build_scenario(spec)
        for _ in range(100):
            f = random_group_function(scn.group, rng)
            b = rng.next_u64() % scn.action.base_size
            worst = max(worst, check_fubini(scn.mu, scn.nu, scn.mubar, f, b))
            shuffled = randomized_coset_reps(scn.action, b, rng)
            worst = max(worst, check_fubini(scn.mu, scn.nu, scn.mubar, f, b, reps=shuffled))
    acceptance(
        "6 disintegration identity for 100 random functions per scenario, any coset representatives",
        worst <= TOL,
        f"max residual {worst:.3e} over {len(FUBINI_SPECS)} scenarios",
    )


def test_c07_lift_support_shapes(acceptance, bands16):
    lifts = scenario_lifts(bands16)
    shapes = banded_support_shapes(bands16, lifts)
    mismatch, _ = banded_support_mismatch(bands16, lifts)
    ok = (
        mismatch == 0
        and shapes["global-observed"] == shapes["segments-predicted"]
        and shapes["special-observed"] == shapes["rectangle-predicted"]
    )
    acceptance(
        "7 lift supports are exactly three segments (global) and a rectangle (special)",
        ok,
        f"symmetric difference {mismatch:.0f} across {bands16.action.base_size} base points",
    )


def test_c08_biequivariant_degeneracy_contrast(acceptance):
    demo = degeneracy_demo([4, 8, 16])
    ok = demo["ratio_relative_spread"] <= 1e-9 and demo["faint_absolute_spread"] <= TOL
    acceptance(
        "8 bi-equivariant output scales with stabilizer size, faint counterpart does not",
        ok,
        f"output/N spread {demo['ratio_relative_spread']:.3e}, faint spread {demo['faint_absolute_spread']:.3e}",
    )


def test_c09_constraint_violations_always_detected(acceptance):
    # the battery decides this from the orbit weights (transform.necessity);
    # the sampled violators are the brute-force reference for it
    missed = 0
    smallest = float("inf")
    rng = SplitMix64(909)
    for spec in ("dihedral(4)", "torus(8)"):
        scn = build_scenario(spec)
        assert float(scn.mubar.weights.min()) > 0.0
        assert {c.name: c for c in run_battery(scn).checks}["transform.necessity"].passed
        for _ in range(50):
            bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, rng)
            found, _ = operator_equivariance_residual(kernel_operator(bad, scn.mubar), scn.input_bundle, scn.output_bundle)
            smallest = min(smallest, found)
            if found <= 1e-9:
                missed += 1
    acceptance(
        "9 every planted constraint violation breaks equivariance detectably",
        missed == 0,
        f"100 violators, {missed} missed, smallest residual found {smallest:.3e}",
    )


def test_c10_grid_refinement_behaviour(acceptance):
    ladder = line_grid_ladder(levels=4)
    ratios = [ladder[j] / ladder[j + 1] for j in range(3)]
    ratios_ok = all(1.4 <= r <= 2.6 for r in ratios)
    scn = build_circle_grid(16)
    step = scn.extras["grid_step"]
    aligned = max(circle_offgrid_residual(scn, k * step) for k in range(16))
    acceptance(
        "10 line-grid continuum gap halves per refinement; grid-aligned rotations exact",
        ratios_ok and aligned <= TOL,
        f"ratios {', '.join(f'{r:.2f}' for r in ratios)}, aligned residual {aligned:.3e}",
    )


def test_c11_normalized_measure_construction(acceptance):
    worst = 0.0
    for spec in FUBINI_SPECS:
        scn = build_scenario(spec)
        psi = psi_indicator_identity(scn.action)
        mu, nu, mubar = construct_normalized_families(psi)
        rep = validate_families(mu, nu, mubar, tolerance=TOL)
        worst = max(worst, rep.worst().residual)
        worst = max(worst, normalization_residual(psi, mu, nu))
        assert rep.passed
    acceptance(
        "11 indicator-built measure families satisfy every compatibility and normalization law",
        worst <= TOL,
        f"max residual {worst:.3e} over {len(FUBINI_SPECS)} scenarios",
    )
