"""Cross-correlation of one section at a time, and the battery's
Mackey preservation check on the induced basis sections, against brute
force.

`cross_correlate` sums one Mackey section over the support in ascending
order through flat gather indices; the reference below sums the same
section with 2-D gathers of its own, and the two must agree bitwise.

`battery._mackey_checks` pushes one induced basis section e~_{b0,i} per
fundamental-domain point b0 and fiber coordinate i through
`cross_correlate`.  Its residual must equal the maximum over all |B| dE
basis sections, each summed by the per-section reference, and it must
obey the stated bound against the residual P over sections with entries
in [-1, 1]: P <= |B| dE a' (1 + a) R, with a the largest row sum of |A_F|
and a' the largest column sum of |A_E|.  The battery's `_filter_checks` on
every built-in scenario is held to the same references, its equivariance
check to the operator matrix's residual; the cases include dihedral(4)
with a measure that is not left-invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from equicorr.battery import _filter_checks, _mackey_checks
from equicorr.bundles import EquivariantBundle, MackeySection, Section, section_to_mackey, validate_bundle
from equicorr.groups import GroupAction, cyclic_group
from equicorr.measures import GroupMeasureFamily, counting_family
from equicorr.reporting import check_from_residual
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections, random_valid_filter
from equicorr.scenarios import build_scenario
from equicorr.transforms import filter_operator, operator_equivariance_residual
from equicorr.xcorr import Filter, cross_correlate, validate_filter

from helpers import validate_mackey
from test_stacked import BUILTINS, FILTERS, basis_sections

TOL = 1e-12


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


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_a_stack_matches_per_section_sums_bitwise(name):
    # a stack of five sections, each passed alone
    filt, mu = FILTERS[name]
    for f in random_sections(filt.input_bundle, SplitMix64(6), 5):
        m = section_to_mackey(f)
        assert cross_correlate(filt, m, mu).values.tobytes() == per_section_xcorr(filt, m, mu).tobytes()


def reference_residual(filt, mu, values):
    """Mackey periodicity residual of the cross-correlated section induced
    from `values`, summed per section."""
    m = section_to_mackey(Section(filt.input_bundle, values))
    return validate_mackey(MackeySection(filt.output_bundle, per_section_xcorr(filt, m, mu))).worst().residual


def corrupted(filt):
    """filt with one live entry at the last base point bumped by 0.7."""
    b = filt.action.base_size - 1
    mats = filt.matrices.copy()
    mats[filt.support_index[b, 0], b, 0, 0] += 0.7
    return Filter(filt.input_bundle, filt.output_bundle, mats)


def non_invariant_d4():
    """dihedral(4) with a weight that varies along the group but stays a
    class function: 2 on the quarter turns r1 and r3."""
    d4 = build_scenario("dihedral(4)")
    weights = d4.mu.weights.copy()
    weights[:, [1, 3]] = 2.0
    return d4.filt, GroupMeasureFamily(d4.action, weights, haar=False)


def cases():
    out = dict(FILTERS)
    for spec in ("dihedral(3)", "cyclic(6)", "dihedral(5, bundle=sign)"):
        scn = build_scenario(spec)
        out[spec] = (scn.filt, scn.mu)
    out["dihedral(4)-non-invariant-mu"] = non_invariant_d4()
    for name in list(out):
        filt, mu = out[name]
        out[f"{name}-corrupted"] = (corrupted(filt), mu)
    return out


CASES = cases()


def battery_residual(filt, mu):
    (mackey,) = _mackey_checks(filt, mu, TOL)
    assert mackey.name == "xcorr.mackey-preserved"
    return mackey


def assert_basis_maximum(filt, mu, mackey):
    """The residual equals the maximum over every basis section, each summed
    by the per-section reference."""
    brute = [reference_residual(filt, mu, e) for e in basis_sections(filt.input_bundle)]
    # translation is exact when every act matrix entry is 0 or +-1; a
    # rotation by a quarter turn computed with cos and sin rounds
    bundles = (filt.input_bundle, filt.output_bundle)
    exact = all(np.isin(b.act_matrix, (-1.0, 0.0, 1.0)).all() for b in bundles)
    equal = (lambda x: x) if exact else (lambda x: pytest.approx(x, rel=1e-12, abs=1e-15))
    assert mackey.residual == equal(max(brute))


def assert_random_section_bounds(filt, mu, mackey, sections):
    """P <= |B| dE a' (1 + a) R over `sections`, and R <= P over the basis
    sections, which have entries in [-1, 1]."""
    e_bundle, f_bundle = filt.input_bundle, filt.output_bundle
    a = float(np.abs(f_bundle.act_matrix).sum(axis=3).max())  # largest row sum of |A_F|
    a_col = float(np.abs(e_bundle.act_matrix).sum(axis=2).max())  # largest column sum of |A_E|
    scale = e_bundle.action.base_size * e_bundle.dmax * a_col
    sampled = [reference_residual(filt, mu, f.values) for f in sections]
    assert max(sampled) <= scale * (1 + a) * mackey.residual * (1 + 1e-9) + 1e-12
    assert mackey.residual <= max(reference_residual(filt, mu, e) for e in basis_sections(e_bundle))
    return sampled


@pytest.mark.parametrize("name", sorted(CASES))
def test_basis_checks_equal_the_maximum_over_every_basis_section(name):
    filt, mu = CASES[name]
    mackey = battery_residual(filt, mu)
    assert_basis_maximum(filt, mu, mackey)
    if name.endswith("corrupted") or "violating" in name:
        assert not mackey.passed and len(mackey.witness) == 4
    else:
        assert mackey.passed and mackey.witness is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_basis_checks_bound_the_residual_on_random_sections(name):
    filt, mu = CASES[name]
    mackey = battery_residual(filt, mu)
    sections = random_sections(filt.input_bundle, SplitMix64(20), 20)
    sampled = assert_random_section_bounds(filt, mu, mackey, sections)
    if not mackey.passed:
        assert max(sampled) > 1e-9


def bits(check):
    return (check.name, float(check.residual).hex(), check.tolerance, check.passed, check.witness, check.skipped)


def filter_checks(scn):
    op = None if scn.filt is None else filter_operator(scn.filt, scn.mu)
    return {c.name: c for c in _filter_checks(scn, op, TOL)}


def assert_checks_match_per_section(scn, seed, n_sections):
    """The battery's cross-correlation checks against the per-section
    references: equivariance read off the operator matrix, Mackey
    preservation streamed one basis section at a time equal to the
    brute-force maximum, and its bound over n_sections seeded random
    sections."""
    checks = filter_checks(scn)
    op = filter_operator(scn.filt, scn.mu)
    residual, witness = operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)
    want = check_from_residual("xcorr.equivariance", residual, TOL, witness)
    assert bits(checks["xcorr.equivariance"]) == bits(want)
    mackey = checks["xcorr.mackey-preserved"]
    assert_basis_maximum(scn.filt, scn.mu, mackey)
    sections = random_sections(scn.input_bundle, SplitMix64(seed), n_sections)
    assert_random_section_bounds(scn.filt, scn.mu, mackey, sections)
    return checks


SCENARIOS = {spec: build_scenario(spec) for spec in BUILTINS}
COUNTS = (1, 3, 5, 9)  # random sections the bounds are tested against


@pytest.mark.parametrize("n_sections", COUNTS)
@pytest.mark.parametrize("spec", BUILTINS)
def test_streamed_checks_match_per_section(spec, n_sections):
    scn = SCENARIOS[spec]
    if scn.filt is None:
        assert filter_checks(scn) == {}
        return
    checks = assert_checks_match_per_section(scn, 3, n_sections)
    assert checks["xcorr.mackey-preserved"].passed and checks["xcorr.equivariance"].passed


def two_orbit_filter():
    """Z_4 on Z_4 and a fixed point inf: a trivial 1-d fiber on Z_4 and the
    quarter-turn rotation on a 2-d fiber at inf.  A valid random filter,
    with one entry at inf bumped off the faint constraint, which there asks
    omega(h, inf) to commute with the rotations."""
    group = cyclic_group(4)
    table = np.concatenate([group.cayley, np.full((4, 1), 4)], axis=1)
    action = GroupAction(group, ("0", "1", "2", "3", "inf"), table)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    mats = np.zeros((4, 5, 2, 2))
    mats[:, :4, 0, 0] = 1.0
    for g in range(4):
        mats[g, 4] = np.linalg.matrix_power(quarter, g)
    bundle = EquivariantBundle(action, np.array([1, 1, 1, 1, 2]), mats)
    assert validate_bundle(bundle).passed
    valid = random_valid_filter(bundle, bundle, SplitMix64(3))
    bad = valid.matrices.copy()
    bad[1, 4, 0, 0] += 0.7
    return valid, Filter(bundle, bundle, bad), counting_family(action, 1.0)


def test_a_second_orbit_corruption_is_named_by_its_base_point():
    valid, filt, mu = two_orbit_filter()
    assert validate_filter(valid).passed and not validate_filter(filt).passed
    assert all(c.passed for c in _mackey_checks(valid, mu, TOL))
    mackey = battery_residual(filt, mu)
    assert not mackey.passed
    assert mackey.witness[0] == 4 and mackey.witness[3] == 4  # (b0, i, h, b) on the orbit {inf}
    # a basis drawn from b = 0 alone would pass
    e0 = np.zeros((5, 2))
    e0[0, 0] = 1.0
    assert reference_residual(filt, mu, e0) == 0.0
    op = filter_operator(filt, mu)
    assert operator_equivariance_residual(op, filt.input_bundle, filt.output_bundle)[0] > 0.1
