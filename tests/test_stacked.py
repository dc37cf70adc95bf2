"""The stacked, support-sparse kernels against brute-force references.

The references loop over (section, g) in Python and sum densely over every
group element; they share no code with the kernels under test.  Sums over
the support run in the same ascending order as the dense ones, so the
sums come out the same.  Equivariance is decided on the operator matrix
(`transforms.operator_equivariance_residual`); its residual R is held to
the stated bounds against the all-g references, on sections and on the
matrix's own law.
"""

from __future__ import annotations

import numpy as np
import pytest

from equicorr.bundles import MackeySection, Section, representation_bundle, section_to_mackey, trivial_bundle
from equicorr.groups import GroupAction
from equicorr.measures import GroupMeasureFamily, counting_family
from equicorr import sampling
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections, random_valid_filter, random_valid_kernel, random_violating_kernel
from equicorr.scenarios import build_scenario, dihedral_vertex_action
from equicorr.transforms import filter_operator, kernel_operator, lift_kernel_to_filter, operator_equivariance_residual
from equicorr.xcorr import Filter, correlate_sections, cross_correlate

from helpers import act_on_section, basis_filter_operator, cayley_table, counting_orbit_family, loop_correlate_sections

BUILTINS = ["cyclic(8)", "dihedral(4, bundle=sign)", "torus(6)", "torus-bands(16)", "circle-grid(16)", "line-grid(5, dx=0.2)"]


def ref_act(bundle, g, f):
    """(g.f)(b) = A(g, g^-1.b) f(g^-1.b), one base point at a time."""
    action = bundle.action
    ginv = int(action.group.inv[g])
    out = np.zeros_like(f)
    for b in range(action.base_size):
        c = action.table[ginv, b]
        out[b] = bundle.act_matrix[g, c] @ f[c]
    return out


def ref_induced(filt, mu, f):
    """T(f)(b) = sum over every k of mu_b(k) w(k, b) f~(k, b), with the whole
    induced Mackey table f~(k, b) = A(k^-1, k.b) f(k.b) built first."""
    action = filt.action
    pull = filt.input_bundle.act_matrix[action.group.inv[:, None], action.table]
    mackey = np.einsum("kbij,kbj->kbi", pull, f[action.table])
    return np.einsum("bk,kbij,kbj->bi", mu.weights, filt.matrices, mackey)


def ref_transform(kern, mubar, f):
    return np.einsum("bc,cbij,cj->bi", mubar.weights, kern.matrices, f)


def ref_equivariance(apply, e_bundle, f_bundle, sections):
    """max over (i, g) of |T(g.f_i) - g.T(f_i)|, first maximum as witness."""
    worst, witness = 0.0, None
    for i, f in enumerate(sections):
        base = apply(f)
        for g in range(e_bundle.action.group.order):
            r = float(np.abs(apply(ref_act(e_bundle, g, f)) - ref_act(f_bundle, g, base)).max())
            if r > worst:
                worst, witness = r, (i, g)
    return worst, witness


def ref_cross_correlate(filt, m, mu):
    shifted = m.values[cayley_table(filt.action.group)]  # [h, k, b] -> m(h k, b)
    return np.einsum("bk,kbij,hkbj->hbi", mu.weights, filt.matrices, shifted)


def ref_convolve(filt_prime, m, mu):
    grp = filt_prime.action.group
    mats = filt_prime.matrices[cayley_table(grp)[grp.inv]]  # [k, h, b] -> w'(k^-1 h, b)
    return np.einsum("bk,khbij,kbj->hbi", mu.weights, mats, m.values)


def rotation_rep(n):
    rep = np.zeros((2 * n, 2, 2))
    for i in range(n):
        c, s = np.cos(2.0 * np.pi * i / n), np.sin(2.0 * np.pi * i / n)
        rep[i] = [[c, -s], [s, c]]
        rep[n + i] = [[c, s], [s, -c]]
    return rep


def rotation_bundle():
    return representation_bundle(dihedral_vertex_action(4), rotation_rep(4))


def diagonal_action():
    """dihedral(4) on the two diagonals of the square, {v0, v2} and {v1, v3}:
    r0, r2 and the diagonal reflections s0, s2 fix both points, so the
    action table alone has two classes."""
    square = dihedral_vertex_action(4)
    return GroupAction(square.group, ("d0", "d1"), square.table[:, :2] % 2)


def diagonal_bundles():
    """Rotation bundle over the diagonals, and the trivial one beside it:
    every element acts by its own matrix, so there are eight classes."""
    action = diagonal_action()
    return representation_bundle(action, rotation_rep(4)), trivial_bundle(action, 2)


def rotation_from_trivial():
    """Z_4 acting on itself, from the trivial 2-d bundle to the rotation
    bundle: valid tables between different bundles, which the law read with
    A_E and A_F swapped would fail."""
    action = build_scenario("cyclic(4)").action
    return trivial_bundle(action, 2), representation_bundle(action, rotation_rep(4)[:4])


def sparse_filter(input_bundle, output_bundle, seed, support):
    """random_valid_filter with `support` drawn entries per base point."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "SUPPORT_PER_REP", support)
        return random_valid_filter(input_bundle, output_bundle, SplitMix64(seed))


def filter_cases():
    cases = {}
    for spec in BUILTINS:
        scn = build_scenario(spec)
        if scn.filt is not None:
            cases[spec] = (scn.filt, scn.mu)
    torus = build_scenario("torus(6)")
    dense = sparse_filter(torus.input_bundle, torus.output_bundle, 5, 36)
    assert dense.support.all()
    cases["dense"] = (dense, torus.mu)
    d4 = build_scenario("dihedral(4)")
    mats = d4.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    cases["violating"] = (Filter(d4.input_bundle, d4.output_bundle, mats), d4.mu)
    rot = rotation_bundle()
    cases["rotation"] = (sparse_filter(rot, rot, 9, 3), counting_family(rot.action, 1.0))
    diag, flat = diagonal_bundles()
    valid = sparse_filter(diag, diag, 13, 4)
    cases["diagonal"] = (valid, counting_family(diag.action, 1.0))
    mats = valid.matrices.copy()
    mats[5, 1, 0, 1] += 0.7
    cases["diagonal-violating"] = (Filter(diag, diag, mats), counting_family(diag.action, 1.0))
    cases["diagonal-mixed-violating"] = (Filter(flat, diag, mats), counting_family(diag.action, 1.0))
    flat, rot = rotation_from_trivial()
    cases["rotation-from-trivial"] = (sparse_filter(flat, rot, 18, 2), counting_family(rot.action, 1.0))
    return cases


def kernel_cases():
    cases = {}
    for spec in BUILTINS:
        scn = build_scenario(spec)
        if scn.kernel is not None:
            cases[spec] = (scn.kernel, scn.mubar)
    d4 = build_scenario("dihedral(4)")
    cases["violating"] = (random_violating_kernel(d4.input_bundle, d4.output_bundle, SplitMix64(8)), d4.mubar)
    rot = rotation_bundle()
    mubar = counting_orbit_family(rot.action)
    cases["rotation"] = (random_valid_kernel(rot, rot, SplitMix64(10)), mubar)
    cases["rotation-violating"] = (random_violating_kernel(rot, rot, SplitMix64(11)), mubar)
    diag, flat = diagonal_bundles()
    mubar = counting_orbit_family(diag.action)
    cases["diagonal"] = (random_valid_kernel(diag, diag, SplitMix64(14)), mubar)
    cases["diagonal-violating"] = (random_violating_kernel(diag, diag, SplitMix64(15)), mubar)
    cases["diagonal-mixed-violating"] = (random_violating_kernel(flat, diag, SplitMix64(16)), mubar)
    flat, rot = rotation_from_trivial()
    cases["rotation-from-trivial"] = (random_valid_kernel(flat, rot, SplitMix64(19)), counting_orbit_family(rot.action))
    return cases


FILTERS = filter_cases()
KERNELS = kernel_cases()


def row_col_bound(*bundles):
    """a: the largest row or column sum of |A(g, b)| over the bundles."""
    return max(float(np.abs(b.act_matrix).sum(axis=axis).max()) for b in bundles for axis in (2, 3))


def basis_sections(bundle):
    """The |B| dE basis sections; a negated one has the same residuals."""
    m, d = bundle.action.base_size, bundle.dmax
    return list(np.eye(m * d).reshape(m * d, m, d))


def assert_section_bounds(R, apply, e_bundle, f_bundle, sections):
    """P_F <= |B| dE (a^2 + 2a) R over sampled sections with entries in
    [-1, 1], and R <= a P_basis, both brute force over every g; returns P_F."""
    a = row_col_bound(e_bundle, f_bundle)
    m, de = e_bundle.action.base_size, e_bundle.dmax
    sampled, _ = ref_equivariance(apply, e_bundle, f_bundle, sections)
    at_basis, _ = ref_equivariance(apply, e_bundle, f_bundle, basis_sections(e_bundle))
    assert sampled <= m * de * (a * a + 2 * a) * R * (1 + 1e-9) + 1e-12
    assert R <= a * at_basis * (1 + 1e-9) + 1e-15
    return sampled


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_equivariance_matches_brute_force(name):
    filt, mu = FILTERS[name]
    R, witness = operator_equivariance_residual(filter_operator(filt, mu), filt.input_bundle, filt.output_bundle)
    sections = [f.values for f in random_sections(filt.input_bundle, SplitMix64(3), 4)]
    sampled = assert_section_bounds(R, lambda f: ref_induced(filt, mu, f), filt.input_bundle, filt.output_bundle, sections)
    if "violating" in name:
        assert R > 0.1 and sampled > 1e-9 and len(witness) == 3


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_transform_equivariance_matches_brute_force(name):
    kern, mubar = KERNELS[name]
    R, witness = operator_equivariance_residual(kernel_operator(kern, mubar), kern.input_bundle, kern.output_bundle)
    sections = [f.values for f in random_sections(kern.input_bundle, SplitMix64(4), 4)]
    sampled = assert_section_bounds(R, lambda f: ref_transform(kern, mubar, f), kern.input_bundle, kern.output_bundle, sections)
    if "violating" in name:
        assert R > 0.1 and sampled > 1e-9 and len(witness) == 3


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_and_convolve_match_dense_einsums(name):
    filt, mu = FILTERS[name]
    grp = filt.action.group
    m = section_to_mackey(random_sections(filt.input_bundle, SplitMix64(6), 1)[0])
    out = cross_correlate(filt, m, mu).values
    np.testing.assert_array_equal(out, ref_cross_correlate(filt, m, mu))
    # the identity slice is the induced map, summed as the pull-back loop
    # does bit for bit; its matrix sums (W A) f per target, hence a bound
    ref = loop_correlate_sections(filt, mu, m.values[grp.identity])
    np.testing.assert_array_equal(out[grp.identity], ref)
    got = correlate_sections(filt, mu, m.values[grp.identity])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * max(1.0, float(np.abs(ref).max())))
    # the convolution identity, a statement about the references alone: with
    # w'(h, b) = w(h^-1, b), (w' conv m)(h, b) = sum_k mu_b(h k) w(k, b) m(h k, b),
    # which is w * m under every mu here, each left-invariant; the ramp is not
    assert np.ptp(mu.weights, axis=1).max() == 0.0
    flipped = Filter(filt.input_bundle, filt.output_bundle, filt.matrices[grp.inv])
    ramp = GroupMeasureFamily(filt.action, mu.weights * (1.0 + np.arange(grp.order) / 7.0))
    at_hk = np.einsum("bhk,kbij,hkbj->hbi", ramp.weights[:, cayley_table(grp)], filt.matrices, m.values[cayley_table(grp)])
    for fam, want in ((mu, out), (ramp, at_hk)):
        got = ref_convolve(flipped, m, fam)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, float(np.abs(want).max())))


def scenario_filters(spec):
    """The scenario's filter and each of its lifts."""
    scn = build_scenario(spec)
    filts = {} if scn.filt is None else {"filter": scn.filt}
    if scn.kernel is not None and scn.delta is not None:
        for name, theta in sorted(scn.thetas.items()):
            filts[f"lift.{name}"] = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
    return filts, scn.mu


OPERATOR_SPECS = [
    "torus-bands(16)",
    "torus-bands(32)",
    "dihedral(12, bundle=sign)",
    "dihedral(64)",
    "torus(6)",
    "line-grid(5, dx=0.2)",
    "line-grid(6, dx=0.05)",
    "circle-grid(64)",
    "cyclic(256)",
]


@pytest.mark.parametrize("spec", OPERATOR_SPECS)
def test_filter_operator_equals_the_basis_pass_on_builtins_bitwise(spec):
    filts, mu = scenario_filters(spec)
    assert filts
    for filt in filts.values():
        assert filter_operator(filt, mu).tobytes() == basis_filter_operator(filt, mu).tobytes()


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_filter_operator_equals_the_basis_pass_bitwise(name):
    filt, mu = FILTERS[name]
    assert filter_operator(filt, mu).tobytes() == basis_filter_operator(filt, mu).tobytes()


def test_xcorr_torus_bands_64_matches_brute_force_rows():
    scn = build_scenario("torus-bands(64)")
    filt, grp = scn.filt, scn.group
    assert filt.support_index.shape == (64, 9)
    # a random table, not an induced section: (g1, g2) and (g1, g2 + 16) act
    # alike, so an induced section repeats every 1,024 elements and hides a
    # gather offset y * |B| that wraps in int16, shifting y by exactly 1,024
    values = SplitMix64(12).uniforms((grp.order, scn.action.base_size, scn.input_bundle.dmax), -1.0, 1.0)
    m = MackeySection(scn.input_bundle, values)
    out = cross_correlate(filt, m, scn.mu).values
    for h in (0, 1, 777, grp.order - 1):
        # sum over every k of mu_b(k) w(k, b) m(h k, b)
        want = np.einsum("bk,kbij,kbj->bi", scn.mu.weights, filt.matrices, m.values[cayley_table(grp)[h]])
        np.testing.assert_array_equal(out[h], want)


# ---------------------------------------------------------------------------
# the operator law against every g


def ref_law_defects(op, e_bundle, f_bundle):
    """[g, c, b] -> |D_g(c, b)|, D_g(c, b) = op(g.c, g.b) A_E(g, c) -
    A_F(g, b) op(c, b), acting with every g in turn."""
    action = e_bundle.action
    out = []
    for g in range(action.group.order):
        t = action.table[g]
        d = op[t][:, t] @ e_bundle.act_matrix[g][:, None] - f_bundle.act_matrix[g][None, :] @ op
        out.append(np.abs(d).max(axis=(2, 3), initial=0.0))
    return np.array(out)


def assert_law_bounds(op, e_bundle, f_bundle, violating):
    """R <= a P and P <= (a^2 + 2a) R, P the all-g law residual; a failing
    R names a (g, c, b) whose defect is not zero."""
    R, witness = operator_equivariance_residual(op, e_bundle, f_bundle)
    defects = ref_law_defects(op, e_bundle, f_bundle)
    a, P = row_col_bound(e_bundle, f_bundle), float(defects.max())
    assert R <= a * P * (1 + 1e-9) + 1e-15
    assert P <= (a * a + 2 * a) * R * (1 + 1e-9) + 1e-14
    if violating:
        assert R > 0.1 and defects[witness] > 0.0


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_equivariance_equals_all_g_search(name):
    filt, mu = FILTERS[name]
    assert_law_bounds(filter_operator(filt, mu), filt.input_bundle, filt.output_bundle, "violating" in name)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_transform_equivariance_equals_all_g_search(name):
    kern, mubar = KERNELS[name]
    assert_law_bounds(kernel_operator(kern, mubar), kern.input_bundle, kern.output_bundle, "violating" in name)


def corrupted_sign_filter():
    """dihedral(4, bundle=sign) with one filter entry bumped off the law."""
    scn = build_scenario("dihedral(4, bundle=sign)")
    mats = scn.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    return Filter(scn.input_bundle, scn.output_bundle, mats), scn.mu


def bound_cases():
    filt, mu = corrupted_sign_filter()
    kern, mubar = KERNELS["rotation-violating"]
    return {
        "dihedral(4, sign) corrupted filter": (filt.input_bundle, filt.output_bundle, filter_operator(filt, mu)),
        "rotation violating kernel": (kern.input_bundle, kern.output_bundle, kernel_operator(kern, mubar)),
    }


BOUND_CASES = bound_cases()


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_operator_residual_bounds_the_all_g_section_residual(name):
    # T(g.f)(g.b) - (g.T f)(g.b) = sum_c D_g(c, b) f(c), so
    # P_F <= |B| dE (a^2 + 2a) R and R <= a P_basis, every g acting
    # through act_on_section
    e_bundle, f_bundle, op = BOUND_CASES[name]
    R, _ = operator_equivariance_residual(op, e_bundle, f_bundle)
    a = row_col_bound(e_bundle, f_bundle)
    m, de = e_bundle.action.base_size, e_bundle.dmax

    def apply(values):
        return np.einsum("cbij,cj->bi", op, values)

    def all_g(values):
        f = Section(e_bundle, values)
        base = Section(f_bundle, apply(values))
        return max(
            float(np.abs(apply(act_on_section(g, f).values) - act_on_section(g, base).values).max())
            for g in range(e_bundle.action.group.order)
        )

    sampled = max(all_g(f.values) for f in random_sections(e_bundle, SplitMix64(31), 20))
    at_basis = max(all_g(sign * e) for e in basis_sections(e_bundle) for sign in (1.0, -1.0))
    assert R > 0.1 and sampled > 0.1
    assert sampled <= m * de * (a * a + 2 * a) * R
    assert R <= a * at_basis * (1 + 1e-12)


@pytest.mark.parametrize("name", ["rotation", "diagonal", "diagonal-trivial"])
def test_act_on_section_matches_the_loop_reference(name):
    # act_on_section gathers every base point at once; the reference loops
    diag, flat = diagonal_bundles()
    bundle = {"rotation": rotation_bundle(), "diagonal": diag, "diagonal-trivial": flat}[name]
    f = random_sections(bundle, SplitMix64(17), 1)[0]
    for g in range(bundle.action.group.order):
        assert act_on_section(g, f).values.tobytes() == ref_act(bundle, g, f.values).tobytes()
