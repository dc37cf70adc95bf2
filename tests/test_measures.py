from __future__ import annotations

import numpy as np
import pytest

from equicorr import groups
from equicorr.bundles import _orbit_slice
from equicorr.errors import DegenerateMeasureError, DomainError, PreconditionError, StructuralError
from equicorr.groups import stabilizer
from equicorr.measures import (
    DeltaFunction,
    GroupMeasureFamily,
    OrbitMeasureFamily,
    PsiFunction,
    StabilizerMeasureFamily,
    construct_normalized_families,
    counting_family,
    counting_stabilizer_family,
    dirac_delta,
    fubini_pointwise_residual,
    psi_indicator_identity,
    solve_orbit_family,
    solve_orbit_measure,
    validate_delta,
    validate_families,
    validate_psi,
)
from equicorr.reporting import _local
from equicorr.rng import SplitMix64
from equicorr.scenarios import build_scenario, cyclic_action, dihedral_vertex_action, torus_action

from helpers import (
    check_fubini,
    counting_orbit_family,
    dense_nu,
    mul,
    normalization_residual,
    psi_from_class_function,
    random_group_function,
    traced_peak,
)
from test_streaming import two_orbit_filter


def brute_fubini_gap(action, mu, nu, mubar, f, b, reps=None) -> float:
    """Independent double-sum evaluation of the disintegration identity."""
    grp = action.group
    lhs = sum(mu.weights[b, h] * f[h] for h in range(grp.order))
    stab = [int(s) for s in stabilizer(action, b)]
    if reps is None:
        reps = {int(c): int(action.coset_reps[b, c]) for c in np.flatnonzero(action.coset_reps[b] >= 0)}
    rhs = 0.0
    for c, k in reps.items():
        inner = sum(nu.weights[b] * f[mul(grp, k, s)] for s in stab)  # nu_b: the mass of each s
        rhs += mubar.weights[b, c] * inner
    return abs(lhs - rhs)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "build, what", [(counting_family, "counting family"), (counting_stabilizer_family, "stabilizer counting")]
)
def test_a_counting_scale_that_is_not_a_finite_number_above_zero_is_refused(build, what, scale):
    # a NaN passes `scale <= 0`; it gave NaN weights, and inf gave inf ones
    with pytest.raises(DomainError) as err:
        build(cyclic_action(4), scale)
    assert str(err.value) == f"{what} scale {scale} is not a finite number > 0"


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
            for c in np.flatnonzero(action.coset_reps[b] >= 0):
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
    assert np.allclose(w[action.coset_reps[0] >= 0], 3.0)


@pytest.mark.parametrize("value", [1.0, np.inf, np.nan])
def test_mass_off_a_stabilizer_is_refused(value):
    # dihedral(4) on the square: r1 (element 1) moves vertex 1.  nu is one
    # weight per base point, so it holds no mass off a stabilizer: a
    # (|B|, |G|) table of nu_b(h), with or without such mass, is refused by
    # its shape
    action = dihedral_vertex_action(4)
    nu = np.where(action.table.T == np.arange(4)[:, None], 1.0, 0.0)
    delta = dirac_delta(counting_stabilizer_family(action)).values.copy()
    nu[1, 1] = delta[1, 1] = value
    with pytest.raises(StructuralError, match=r"^stabilizer family shape \(4, 8\), expected \(4,\)$"):
        StabilizerMeasureFamily(action, nu)
    with pytest.raises(StructuralError, match="delta has support off the stabilizer"):
        DeltaFunction(action, delta)


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
    zero = StabilizerMeasureFamily(action, np.zeros(4))
    with pytest.raises(DegenerateMeasureError):
        solve_orbit_measure(mu, zero, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_psi_off_the_stabilizer_hides_no_stabilizer_without_mass(value):
    # 0 times a NaN or an inf off Stab(1) would make the stabilizer mass NaN,
    # which is not <= 0: both the check and the constructor would miss b = 1
    action = dihedral_vertex_action(4)
    values = psi_indicator_identity(action).values.copy()
    values[action.group.identity, 1] = 0.0
    values[int(np.flatnonzero(action.table[:, 1] != 1)[0]), 1] = value
    psi = PsiFunction(action, values)
    check = next(c for c in validate_psi(psi).checks if c.name == "psi-stabilizer-nonvanishing")
    assert (check.passed, check.residual, check.witness) == (False, 1.0, (1,))
    with pytest.raises(DegenerateMeasureError, match="stabilizer of b=1"):
        construct_normalized_families(psi)


@pytest.mark.parametrize("on_stabilizer", [False, True])
def test_a_nan_psi_mass_is_no_mass(on_stabilizer):
    # a NaN in column 1 makes its sum NaN, which is not <= 0: the checks and
    # the constructor must still find no mass at b = 1
    action = dihedral_vertex_action(4)
    values = psi_indicator_identity(action).values.copy()
    h = action.group.identity if on_stabilizer else int(np.flatnonzero(action.table[:, 1] != 1)[0])
    values[h, 1] = np.nan
    psi = PsiFunction(action, values)
    failed = {c.name: c.witness for c in validate_psi(psi).checks if not c.passed}
    assert failed["psi-nonvanishing"] == (1,)
    assert failed.get("psi-stabilizer-nonvanishing") == ((1,) if on_stabilizer else None)
    with pytest.raises(DegenerateMeasureError, match="stabilizer of b=1" if on_stabilizer else "no mass at b=1"):
        construct_normalized_families(psi)


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


@pytest.mark.parametrize("spec", ["dihedral(4, bundle=sign)", "torus(4)", "cyclic(6)", "two orbits"])
def test_the_nu_conjugation_residual_is_the_orbit_slice_residual_of_the_dense_table(spec):
    # the residual the (|B|, |G|) table nu_b(h) gave under _orbit_slice, the
    # scan of the other invariance laws, on random weights, one bumped weight
    # and a NaN at each base point in turn
    action = two_orbit_filter()[0].action if spec == "two orbits" else build_scenario(spec).action
    m = action.base_size
    rng = SplitMix64(29)
    cases = [rng.uniforms(m, 0.5, 2.0) for _ in range(4)]
    for b in range(m):
        for value in (1.25, np.nan):
            weights = np.full(m, 0.75)
            weights[b] = value
            cases.append(weights)
    mu, mubar = counting_family(action), counting_orbit_family(action)
    for weights in cases:
        nu = StabilizerMeasureFamily(action, weights)
        check = next(c for c in validate_families(mu, nu, mubar).checks if c.name == "family-nu-conjugation")
        dense, _ = _orbit_slice(dense_nu(nu).T, action, True, _local)
        assert check.residual == dense or np.isnan(check.residual) and np.isnan(dense), weights
        if not check.passed:
            c = check.witness[0]  # a base point whose weight differs from its orbit's first
            b0 = min(np.flatnonzero(action.coset_reps[c] >= 0))
            assert abs(weights[c] - weights[b0]) == check.residual or np.isnan(weights[c] - weights[b0])
    if spec == "two orbits":  # the fixed point inf is an orbit of its own: any finite weight passes there
        for value in (0.0, 1.0, 1e300):
            weights = np.full(m, 0.75)
            weights[4] = value
            assert validate_families(mu, StabilizerMeasureFamily(action, weights), mubar).passed


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
def test_a_nan_does_not_hide_a_negative_weight(family, monkeypatch):
    # on cyclic(4) every table is 4 x 4, and [1, 0] lies on the stabilizer and
    # on the orbit; the second pass counts one row per block, so the NaN and
    # the negative entry lie in different blocks.  nu is one weight per base
    # point: its table is the column [:, 0]
    own = (lambda table: table[:, 0]) if family is StabilizerMeasureFamily else (lambda table: table)
    for block in (groups._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
        table = np.zeros((4, 4))
        table[0, 0], table[1, 0] = np.nan, -5.0
        with pytest.raises(StructuralError, match="nonnegative"):
            family(cyclic_action(4), own(table))
        with pytest.raises(StructuralError, match="nonnegative"):
            family(cyclic_action(4), np.broadcast_to(-1.0, own(table).shape))  # as a view, like the built-in mu
        table[1, 0] = 0.0
        family(cyclic_action(4), own(table))  # a NaN alone loads, for the validators to name


@pytest.mark.parametrize("spec", ["cyclic(64)", "torus-bands(16)"])  # counting, normalized-psi
def test_builtin_haar_family_is_a_read_only_view_of_its_weights(spec):
    weights = build_scenario(spec).mu.weights
    assert weights.strides[1] == 0 and not weights.flags.writeable


def test_haar_families_allocate_no_table_of_their_own():
    action = torus_action(32, 8, 32)
    table = 8 * action.group.order * action.base_size  # one (|B|, |G|) float table
    _, peak = traced_peak(lambda: counting_family(action))
    # one boolean row block of the nonnegativity test; compared whole, the
    # view's (|B|, |G|) boolean table traced 34,688 B
    assert peak < groups._BLOCK_ENTRIES + 8192
    psi = psi_indicator_identity(action)
    (_, nu, _), peak = traced_peak(lambda: construct_normalized_families(psi))
    assert nu.weights.shape == (action.base_size,)
    assert peak < table // 2  # the orbit solve; a (|B|, |G|) nu table alone traced a whole table
