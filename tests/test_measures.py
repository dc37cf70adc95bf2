from __future__ import annotations

import numpy as np
import pytest

from equicorr.errors import DegenerateMeasureError, PreconditionError, StructuralError
from equicorr.groups import orbit, stabilizer
from equicorr.measures import (
    GroupMeasureFamily,
    OrbitMeasureFamily,
    PsiFunction,
    StabilizerMeasureFamily,
    construct_normalized_families,
    counting_family,
    counting_stabilizer_family,
    dirac_delta,
    fubini_pointwise_residual,
    psi_from_class_function,
    psi_indicator_identity,
    solve_orbit_family,
    solve_orbit_measure,
    validate_delta,
    validate_families,
    validate_psi,
)
from equicorr.rng import SplitMix64
from equicorr.scenarios import build_scenario, cyclic_action, dihedral_vertex_action, torus_action

from helpers import check_fubini, mul, normalization_residual, random_group_function, traced_peak


def brute_fubini_gap(action, mu, nu, mubar, f, b, reps=None) -> float:
    """Independent double-sum evaluation of the disintegration identity."""
    grp = action.group
    lhs = sum(mu.weights[b, h] * f[h] for h in range(grp.order))
    stab = [int(s) for s in stabilizer(action, b)]
    if reps is None:
        reps = {int(c): int(action.coset_reps[b, c]) for c in orbit(action, b).members}
    rhs = 0.0
    for c, k in reps.items():
        inner = sum(nu.weights[b, s] * f[mul(grp, k, s)] for s in stab)
        rhs += mubar.weights[b, c] * inner
    return abs(lhs - rhs)


def test_counting_families_validate():
    action = dihedral_vertex_action(4)
    mu = counting_family(action, 1.0)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(mu, nu)
    assert validate_families(mu, nu, mubar).passed
    # counting measure over a 2-element stabilizer: each coset weighs 2/2 = 1
    assert np.allclose(mubar.weights[0][mubar.weights[0] != 0], 1.0)


def test_fubini_counting_brute_force():
    action = dihedral_vertex_action(4)
    mu = counting_family(action, 1.0)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(mu, nu)
    rng = SplitMix64(17)
    for _ in range(10):
        f = random_group_function(action.group, rng)
        for b in range(4):
            assert brute_fubini_gap(action, mu, nu, mubar, f, b) < 1e-12


def test_fubini_rep_independent():
    # replacing each coset representative k by k s, s in the stabilizer,
    # leaves the double sum unchanged because nu is left-invariant
    action = torus_action(6, 1, 6)
    mu = counting_family(action, 0.75)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(mu, nu)
    grp = action.group
    rng = SplitMix64(23)
    for trial in range(5):
        f = random_group_function(grp, rng)
        for b in range(6):
            stab = [int(s) for s in stabilizer(action, b)]
            reps = {}
            for c in orbit(action, b).members:
                k = int(action.coset_reps[b, c])
                s = stab[int(rng.integer(len(stab)))]
                reps[int(c)] = mul(grp, k, s)
            assert brute_fubini_gap(action, mu, nu, mubar, f, b, reps) < 1e-12


def test_check_fubini_matches_brute_force():
    action = dihedral_vertex_action(6)
    mu = counting_family(action, 1.0)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(mu, nu)
    f = random_group_function(action.group, SplitMix64(4))
    for b in range(6):
        assert check_fubini(mu, nu, mubar, f, b) < 1e-12


def test_pointwise_fubini_exhaustive():
    action = dihedral_vertex_action(4)
    mu = counting_family(action, 2.0)
    nu = counting_stabilizer_family(action, 2.0)
    mubar = solve_orbit_family(mu, nu)
    res, witness = fubini_pointwise_residual(mu, nu, mubar)
    assert res < 1e-12
    assert witness is None or res > 0


def test_solved_orbit_measure_values():
    # scale mu by 3, nu stays counting: coset mass 2*3, nu mass 2 -> weight 3
    action = dihedral_vertex_action(4)
    mu = counting_family(action, 3.0)
    nu = counting_stabilizer_family(action, 1.0)
    w = solve_orbit_measure(mu, nu, 0)
    assert np.allclose(w[list(orbit(action, 0).members)], 3.0)


def test_solve_orbit_measure_requires_haar():
    action = dihedral_vertex_action(4)
    weights = np.ones((4, 8))
    weights[0, 3] = 2.0  # not conjugation-compatible as a haar family
    mu = GroupMeasureFamily(action, weights, haar=False)
    nu = counting_stabilizer_family(action, 1.0)
    with pytest.raises(PreconditionError):
        solve_orbit_measure(mu, nu, 0)


@pytest.mark.parametrize("value", [2.0, np.nan])
def test_haar_flag_names_the_base_point_of_a_corrupted_weight(value):
    action = dihedral_vertex_action(4)
    weights = np.ones((4, 8))
    weights[2, 5] = value  # one weight off the constant at b = 2
    mu = GroupMeasureFamily(action, weights, haar=True)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(counting_family(action, 1.0), nu)
    report = validate_families(mu, nu, mubar, tolerance=1e-12)
    check = next(c for c in report.checks if c.name == "family-mu-haar-flag")
    assert not check.passed and check.witness == (2,)


def test_solve_orbit_measure_rejects_zero_nu_mass():
    action = dihedral_vertex_action(4)
    mu = counting_family(action, 1.0)
    zero = StabilizerMeasureFamily(action, np.zeros((4, 8)))
    with pytest.raises(DegenerateMeasureError):
        solve_orbit_measure(mu, zero, 0)


def test_normalized_families_from_indicator():
    action = dihedral_vertex_action(4)
    psi = psi_indicator_identity(action)
    assert validate_psi(psi).passed
    mu, nu, mubar = construct_normalized_families(psi)
    rep = validate_families(mu, nu, mubar)
    assert rep.passed
    # psi integrates to 1 against both families
    assert normalization_residual(psi, mu, nu) < 1e-12
    # indicator psi has unit mass: the families are plain counting ones
    assert np.allclose(mu.weights, 1.0)
    assert fubini_pointwise_residual(mu, nu, mubar)[0] < 1e-12


def test_normalized_families_from_class_function():
    action = dihedral_vertex_action(6)
    grp = action.group
    # class function: 1 at identity, 0.5 on rotations, 0.25 on reflections
    vals = np.where(np.arange(grp.order) < 6, 0.5, 0.25)
    vals[0] = 1.0
    psi = psi_from_class_function(action, vals)
    assert validate_psi(psi).passed
    mu, nu, mubar = construct_normalized_families(psi)
    assert validate_families(mu, nu, mubar).passed
    assert normalization_residual(psi, mu, nu) < 1e-12
    assert fubini_pointwise_residual(mu, nu, mubar)[0] < 1e-12


def test_dirac_delta_normalized():
    action = dihedral_vertex_action(4)
    nu = counting_stabilizer_family(action, 4.0)
    delta = dirac_delta(nu)
    assert validate_delta(delta, nu).passed
    # mass concentrated at the identity, value 1 / nu_b(e)
    assert np.allclose(delta.values[0], 0.25)
    assert np.count_nonzero(delta.values) == 4


def test_family_conjugation_violation_detected():
    action = torus_action(4, 1, 4)
    mu = counting_family(action, 1.0)
    weights = mu.weights.copy()
    weights[2, 5] *= 3.0
    bad = GroupMeasureFamily(action, weights, haar=False)
    nu = counting_stabilizer_family(action, 1.0)
    mubar = solve_orbit_family(mu, nu)
    rep = validate_families(bad, nu, mubar)
    assert not rep.passed
    names = {c.name for c in rep.checks if not c.passed}
    assert any("mu" in n for n in names)


def test_orbit_family_off_orbit_weights_rejected():
    action = dihedral_vertex_action(4)  # transitive, so everything is on-orbit
    w = np.ones((4, 4))
    fam = OrbitMeasureFamily(action, w)
    assert np.all(fam.weights > 0)


@pytest.mark.parametrize("family", [GroupMeasureFamily, StabilizerMeasureFamily, OrbitMeasureFamily, PsiFunction])
def test_a_nan_does_not_hide_a_negative_weight(family):
    # on cyclic(4) every table is 4 x 4, and [1, 0] lies on the stabilizer and on the orbit
    table = np.zeros((4, 4))
    table[0, 0], table[1, 0] = np.nan, -5.0
    with pytest.raises(StructuralError, match="nonnegative"):
        family(cyclic_action(4), table)
    with pytest.raises(StructuralError, match="nonnegative"):
        family(cyclic_action(4), np.broadcast_to(-1.0, (4, 4)))  # as a view, like the built-in mu
    table[1, 0] = 0.0
    family(cyclic_action(4), table)  # a NaN alone loads, for the validators to name


@pytest.mark.parametrize("spec", ["cyclic(64)", "torus-bands(16)"])  # counting, normalized-psi
def test_builtin_haar_family_is_a_read_only_view_of_its_weights(spec):
    weights = build_scenario(spec).mu.weights
    assert weights.strides[1] == 0 and not weights.flags.writeable


def test_haar_families_allocate_no_table_of_their_own():
    action = torus_action(32, 8, 32)
    table = 8 * action.group.order * action.base_size  # one (|B|, |G|) float table
    _, peak = traced_peak(lambda: counting_family(action))
    assert peak < table / 4  # the nonnegativity test's boolean table, an eighth of one
    psi = psi_indicator_identity(action)
    (_, nu, _), peak = traced_peak(lambda: construct_normalized_families(psi))
    assert peak < table + nu.weights.nbytes  # nu's own table, its mask and the orbit solve
