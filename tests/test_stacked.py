"""The stacked, support-sparse kernels against brute-force references.

The references loop over (section, g) in Python and sum densely over every
group element; they share no code with the kernels under test.  Sums over
the support run in the same ascending order as the dense ones, so the
residuals, and with them the witnesses, come out the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from equicorr.bundles import _act, _acting_classes, representation_bundle, trivial_bundle
from equicorr.groups import GroupAction
from equicorr.measures import GroupMeasureFamily, counting_family
from equicorr.reporting import _worst_of_grid
from equicorr import sampling
from equicorr.rng import SplitMix64
from equicorr.sampling import random_mackey_sections, random_sections, random_valid_filter, random_valid_kernel, random_violating_kernel
from equicorr.scenarios import build_scenario, dihedral_vertex_action
from equicorr.transforms import _transform_values, transform_equivariance_residual
from equicorr.xcorr import Filter, convolve, correlate_sections, cross_correlate, to_convolution_form, xcorr_equivariance_residual

from helpers import counting_orbit_family

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
    shifted = m.values[filt.action.group.cayley]  # [h, k, b] -> m(h k, b)
    return np.einsum("bk,kbij,hkbj->hbi", mu.weights, filt.matrices, shifted)


def ref_convolve(filt_prime, m, mu):
    grp = filt_prime.action.group
    mats = filt_prime.matrices[grp.cayley[grp.inv]]  # [k, h, b] -> w'(k^-1 h, b)
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
    return cases


FILTERS = filter_cases()
KERNELS = kernel_cases()


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_equivariance_matches_brute_force(name):
    filt, mu = FILTERS[name]
    sections = random_sections(filt.input_bundle, SplitMix64(3), 4)
    got = xcorr_equivariance_residual(filt, mu, sections)
    want = ref_equivariance(lambda f: ref_induced(filt, mu, f), filt.input_bundle, filt.output_bundle, [f.values for f in sections])
    assert abs(got[0] - want[0]) <= 1e-15
    assert got[1] == want[1]
    if name == "violating":
        assert got[0] > 0.1


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_transform_equivariance_matches_brute_force(name):
    kern, mubar = KERNELS[name]
    sections = random_sections(kern.input_bundle, SplitMix64(4), 4)
    got = transform_equivariance_residual(kern, mubar, sections)
    want = ref_equivariance(lambda f: ref_transform(kern, mubar, f), kern.input_bundle, kern.output_bundle, [f.values for f in sections])
    assert abs(got[0] - want[0]) <= 1e-15
    assert got[1] == want[1]
    if "violating" in name:
        assert got[0] > 0.1


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_and_convolve_match_dense_einsums(name):
    filt, mu = FILTERS[name]
    m = random_mackey_sections(filt.input_bundle, SplitMix64(6), 1)[0]
    out = cross_correlate(filt, m, mu).values
    np.testing.assert_array_equal(out, ref_cross_correlate(filt, m, mu))
    np.testing.assert_array_equal(correlate_sections(filt, mu, m.values[filt.action.group.identity]), out[filt.action.group.identity])
    flipped = to_convolution_form(filt)
    # a weight that varies along the group, so mu must be read at h x^-1
    ramp = GroupMeasureFamily(filt.action, mu.weights * (1.0 + np.arange(filt.action.group.order) / 7.0))
    for fam in (mu, ramp):
        got = convolve(flipped, m, fam).values
        want = ref_convolve(flipped, m, fam)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, float(np.abs(want).max())))


def test_xcorr_torus_bands_64_matches_brute_force_rows():
    scn = build_scenario("torus-bands(64)")
    filt, grp = scn.filt, scn.group
    assert filt.support_index.shape == (64, 9)
    m = random_mackey_sections(scn.input_bundle, SplitMix64(12), 1)[0]
    out = cross_correlate(filt, m, scn.mu).values
    for h in (0, 1, 777, grp.order - 1):
        # sum over every k of mu_b(k) w(k, b) m(h k, b)
        want = np.einsum("bk,kbij,kbj->bi", scn.mu.weights, filt.matrices, m.values[grp.cayley[h]])
        np.testing.assert_array_equal(out[h], want)


# ---------------------------------------------------------------------------
# acting classes: the searches act with one representative per class


CLASS_COUNTS = {
    "torus(6)": 6,
    "torus-bands(16)": 16,
    "line-grid(5, dx=0.2)": 25,
    "dihedral(4, bundle=sign)": 8,
    "diagonal": 8,
}


def class_bundles(name):
    if name == "diagonal":
        return diagonal_bundles()
    scn = build_scenario(name)
    return scn.input_bundle, scn.output_bundle


@pytest.mark.parametrize("name", sorted(CLASS_COUNTS))
def test_acting_class_count(name):
    reps, cls = _acting_classes(*class_bundles(name))
    assert len(reps) == CLASS_COUNTS[name]
    assert list(reps) == sorted(reps) and reps[0] == 0
    np.testing.assert_array_equal(reps[cls[reps]], reps)  # each rep is its class's smallest element
    assert all(reps[cls[g]] <= g for g in range(len(cls)))


@pytest.mark.parametrize("name", sorted(CLASS_COUNTS))
def test_class_representative_acts_as_every_element(name):
    bundles = class_bundles(name)
    reps, cls = _acting_classes(*bundles)
    for bundle in bundles:
        f = np.stack([s.values for s in random_sections(bundle, SplitMix64(17), 2)])
        for g in range(len(cls)):
            got = _act(bundle, np.array([reps[cls[g]]]), f)
            want = _act(bundle, np.array([g]), f)
            assert got.tobytes() == want.tobytes(), (g, reps[cls[g]])


def all_g_search(apply, e_bundle, f_bundle, f):
    """Worst |T(g.f) - g.T(f)| and its first (section, g), acting with every g."""
    g = np.arange(e_bundle.action.group.order)
    grid = np.abs(apply(_act(e_bundle, g, f)) - _act(f_bundle, g, apply(f))).max(axis=(2, 3), initial=0.0)
    return _worst_of_grid(grid)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_xcorr_equivariance_equals_all_g_search(name):
    filt, mu = FILTERS[name]
    sections = random_sections(filt.input_bundle, SplitMix64(3), 4)
    got = xcorr_equivariance_residual(filt, mu, sections)
    f = np.stack([s.values for s in sections])
    assert got == all_g_search(lambda v: correlate_sections(filt, mu, v), filt.input_bundle, filt.output_bundle, f)
    if "violating" in name:
        assert got[0] > 0.1


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_transform_equivariance_equals_all_g_search(name):
    kern, mubar = KERNELS[name]
    sections = random_sections(kern.input_bundle, SplitMix64(4), 4)
    got = transform_equivariance_residual(kern, mubar, sections)
    f = np.stack([s.values for s in sections])
    want = all_g_search(lambda v: _transform_values(kern, mubar, v), kern.input_bundle, kern.output_bundle, f)
    assert got == want
    if "violating" in name:
        assert got[0] > 0.1
