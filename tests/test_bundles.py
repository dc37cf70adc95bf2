from __future__ import annotations

import itertools

import numpy as np
import pytest

from equicorr import bundles, groups
from equicorr.bundles import (
    EquivariantBundle,
    MackeySection,
    Section,
    _carry,
    _move,
    _movers,
    _orbit_slice,
    _transport,
    representation_bundle,
    section_to_mackey,
    sign_bundle,
    trivial_bundle,
    validate_bundle,
)
from equicorr.errors import StructuralError
from equicorr.groups import GroupAction, cyclic_group, orbits, stabilizer
from equicorr.measures import OrbitMeasureFamily, PsiFunction, validate_families, validate_psi
from equicorr.reporting import _local, _worst
from equicorr.rng import SplitMix64
from equicorr.sampling import random_valid_filter, random_valid_kernel
from equicorr.scenarios import build_scenario, cyclic_action, dihedral_vertex_action, torus_action
from equicorr.sampling import random_sections
from equicorr.transforms import Kernel, validate_kernel
from equicorr.xcorr import Filter, validate_filter

from helpers import act_on_mackey, act_on_section, conjugate, mackey_to_section, mul, traced_peak, validate_mackey


def rotation_rep(n: int) -> np.ndarray:
    """2d rotation matrices for the dihedral group: r_i rotates, s_i reflects."""
    mats = np.zeros((2 * n, 2, 2))
    for i in range(n):
        t = 2.0 * np.pi * i / n
        c, s = np.cos(t), np.sin(t)
        mats[i] = [[c, -s], [s, c]]
        mats[n + i] = [[c, s], [s, -c]]
    return mats


def test_trivial_bundle_validates():
    action = dihedral_vertex_action(4)
    assert validate_bundle(trivial_bundle(action, 3)).passed


def test_sign_bundle_cocycle():
    action = dihedral_vertex_action(4)
    signs = np.concatenate([np.ones(4), -np.ones(4)])
    bundle = sign_bundle(action, signs)
    assert validate_bundle(bundle).passed
    # signs multiply along composition: brute force the cocycle
    grp = action.group
    for g in range(8):
        for h in range(8):
            for b in range(4):
                hb = action.table[h, b]
                lhs = bundle.act_matrix[mul(grp, g, h), b, 0, 0]
                rhs = bundle.act_matrix[g, hb, 0, 0] * bundle.act_matrix[h, b, 0, 0]
                assert lhs == rhs


def test_representation_bundle_rotation():
    action = dihedral_vertex_action(4)
    bundle = representation_bundle(action, rotation_rep(4))
    assert validate_bundle(bundle).passed
    assert bundle.dmax == 2


def test_representation_bundle_rejects_non_rep():
    action = dihedral_vertex_action(4)
    mats = rotation_rep(4)
    mats[3, 0, 0] += 0.25  # break multiplicativity
    bundle = representation_bundle(action, mats)
    assert not validate_bundle(bundle).passed


def test_cocycle_violation_caught_with_witness():
    action = torus_action(4, 1, 4)
    bundle = trivial_bundle(action, 2)
    am = bundle.act_matrix.copy()
    am[5, 2] = [[1.0, 0.5], [0.0, 1.0]]
    broken = EquivariantBundle(action, bundle.fiber_dim, am)
    rep = validate_bundle(broken)
    assert not rep.passed
    worst = max((c for c in rep.checks if not c.passed), key=lambda c: c.residual)
    assert worst.witness is not None


def test_padding_must_be_zero():
    action = dihedral_vertex_action(4)
    bundle = trivial_bundle(action, 1)
    am = np.zeros((8, 4, 2, 2))
    am[:, :, 0, 0] = 1.0
    am[0, 0, 1, 1] = 0.125  # junk in the padding
    with pytest.raises(StructuralError):
        EquivariantBundle(action, np.ones(4, dtype=np.int64), am)


def test_section_round_trip_through_mackey():
    action = dihedral_vertex_action(4)
    signs = np.concatenate([np.ones(4), -np.ones(4)])
    bundle = sign_bundle(action, signs)
    f = random_sections(bundle, SplitMix64(3), 1)[0]
    m = section_to_mackey(f)
    assert validate_mackey(m).passed
    back = mackey_to_section(m)
    assert np.array_equal(back.values, f.values)


def test_mackey_periodicity_brute_force():
    # f~(h, b) = A(h^-1, h.b) f(h.b), then m(h, g.b) = A(g, b) m(hg, b)
    action = dihedral_vertex_action(4)
    bundle = representation_bundle(action, rotation_rep(4))
    grp = action.group
    f = random_sections(bundle, SplitMix64(9), 1)[0]
    m = section_to_mackey(f)
    for h in range(8):
        for b in range(4):
            hb = action.table[h, b]
            expect = bundle.act_matrix[grp.inv[h], hb] @ f.values[hb]
            assert np.allclose(m.values[h, b], expect, atol=1e-13)
            for g in range(8):
                gb = action.table[g, b]
                lhs = m.values[h, gb]
                rhs = bundle.act_matrix[g, b] @ m.values[mul(grp, h, g), b]
                assert np.allclose(lhs, rhs, atol=1e-13)


def test_group_acts_on_sections_consistently():
    # (g.f)(b) = A(g, g^-1.b) f(g^-1.b), matching the Mackey-side action
    action = dihedral_vertex_action(4)
    bundle = representation_bundle(action, rotation_rep(4))
    grp = action.group
    f = random_sections(bundle, SplitMix64(21), 1)[0]
    for g in range(8):
        gf = act_on_section(g, f)
        ginv = grp.inv[g]
        for b in range(4):
            src = action.table[ginv, b]
            assert np.allclose(gf.values[b], bundle.act_matrix[g, src] @ f.values[src], atol=1e-13)
        # action commutes with the Mackey correspondence
        gm = act_on_mackey(g, section_to_mackey(f))
        assert np.allclose(gm.values, section_to_mackey(gf).values, atol=1e-13)


def test_act_on_section_is_group_action():
    action = dihedral_vertex_action(4)
    bundle = representation_bundle(action, rotation_rep(4))
    grp = action.group
    f = random_sections(bundle, SplitMix64(5), 1)[0]
    e_f = act_on_section(grp.identity, f)
    assert np.array_equal(e_f.values, f.values)
    for g in (1, 3, 5, 7):
        for h in (2, 4, 6):
            lhs = act_on_section(mul(grp, g, h), f)
            rhs = act_on_section(g, act_on_section(h, f))
            assert np.allclose(lhs.values, rhs.values, atol=1e-13)


def test_mackey_validation_rejects_broken():
    action = dihedral_vertex_action(4)
    bundle = trivial_bundle(action, 1)
    f = random_sections(bundle, SplitMix64(2), 1)[0]
    m = section_to_mackey(f)
    vals = m.values.copy()
    vals[3, 2, 0] += 1.0
    broken = MackeySection(bundle, vals)
    assert not validate_mackey(broken).passed


def loop_fiber_dim_check(bundle: EquivariantBundle) -> tuple[float, tuple[int, int] | None]:
    """The number of orbits whose fiber dimension varies, and (base point,
    first member off its dimension) of the first, walking orbit by orbit."""
    bad, witness = 0, None
    for members in orbits(bundle.action):
        off = [int(c) for c in members if bundle.fiber_dim[c] != bundle.fiber_dim[members[0]]]
        if off:
            bad += 1
            witness = witness or (int(members[0]), off[0])
    return float(bad), witness


def _dim_bundle(action: GroupAction, fiber_dim: list[int]) -> EquivariantBundle:
    am = np.zeros((action.group.order, action.base_size, 2, 2))
    am[:, :, 0, 0] = 1.0
    am[:, np.array(fiber_dim) == 2, 1, 1] = 1.0
    return EquivariantBundle(action, np.array(fiber_dim, dtype=np.int64), am)


def _dim_check(bundle: EquivariantBundle) -> tuple[float, tuple[int, int] | None]:
    check = {c.name: c for c in validate_bundle(bundle).checks}["bundle-fiber-dim-orbit-constant"]
    return check.residual, check.witness


def test_fiber_dim_must_be_orbit_constant():
    bundle = _dim_bundle(torus_action(4, 1, 4), [1, 1, 2, 1])  # transitive
    assert not validate_bundle(bundle).passed
    assert _dim_check(bundle) == loop_fiber_dim_check(bundle) == (1.0, (0, 2))


@pytest.mark.parametrize("fiber_dim, expect", [([1, 2, 2, 1], (2.0, (0, 2))), ([2, 1, 2, 2], (1.0, (1, 3)))])
def test_fiber_dim_check_counts_orbits_as_the_orbit_walk(fiber_dim, expect):
    # Z_2 on four points by b -> b + 2: the orbits {0, 2} and {1, 3}
    action = GroupAction(cyclic_group(2), tuple("abcd"), [[0, 1, 2, 3], [2, 3, 0, 1]])
    bundle = _dim_bundle(action, fiber_dim)
    assert _dim_check(bundle) == loop_fiber_dim_check(bundle) == expect


def _mixed_dim_bundle() -> EquivariantBundle:
    """dihedral(4) on the square's vertices and its fixed centre: the rotation
    bundle (fiber dimension 2) on the vertices, the trivial line at the centre,
    so the centre's act matrices carry three padding entries each."""
    action = dihedral_vertex_action(4)
    table = np.concatenate([action.table, np.full((action.group.order, 1), action.base_size)], axis=1)
    action = GroupAction(action.group, action.base + ("centre",), table)
    am = np.zeros((action.group.order, 5, 2, 2))
    am[:, :4] = rotation_rep(4)[:, None]
    am[:, 4, 0, 0] = 1.0
    return EquivariantBundle(action, np.array([2, 2, 2, 2, 1]), am)


@pytest.mark.parametrize("value", [0.125, -0.5, np.nan])
def test_padding_check_reads_the_padding_entries(value):
    bundle = _mixed_dim_bundle()
    assert validate_bundle(bundle).passed
    A = bundle.act_matrix.copy()
    A[3, 4, 1, 0] = value  # one padding entry of the centre's fiber
    report = validate_bundle(EquivariantBundle(bundle.action, bundle.fiber_dim, A))
    check = next(c for c in report.checks if c.name == "bundle-padding-zero")
    assert not check.passed and check.witness == (3, 4, 1, 0)
    assert np.isnan(check.residual) if np.isnan(value) else check.residual == abs(value)


def _periodicity_bundle(name: str) -> EquivariantBundle:
    if name.endswith("-4+centre"):  # two orbits: the square's vertices and its fixed centre
        action = dihedral_vertex_action(4)
        table = np.concatenate([action.table, np.full((action.group.order, 1), action.base_size)], axis=1)
        rep = rotation_rep(4) if name.startswith("rotation") else np.repeat([1.0, -1.0], 4).reshape(-1, 1, 1)
        return representation_bundle(GroupAction(action.group, action.base + ("centre",), table), rep)
    if name.startswith("rotation-"):
        n = int(name.split("-")[1])
        return representation_bundle(dihedral_vertex_action(n), rotation_rep(n))
    return build_scenario(name).input_bundle


def _brute_periodicity(bundle: EquivariantBundle, values: np.ndarray) -> float:
    """P = max over every (g, h, b) of |m(h, g.b) - A(g, b) @ m(h g, b)|,
    one (g, b) pair at a time with every h in one column."""
    action, grp, A = bundle.action, bundle.action.group, bundle.act_matrix
    worst = 0.0
    for g in range(grp.order):
        for b in range(action.base_size):
            lhs = values[:, action.table[g, b]]
            rhs = values[grp.cayley[:, g], b] @ A[g, b].T
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _brute_induced(bundle: EquivariantBundle, values: np.ndarray) -> float:
    """R = max over (h, b) of |m(h, b) - A(h^-1, h.b) @ m(e, h.b)|."""
    action, grp, A = bundle.action, bundle.action.group, bundle.act_matrix
    worst = 0.0
    for h in range(grp.order):
        for b in range(action.base_size):
            hb = action.table[h, b]
            diff = values[h, b] - A[grp.inv[h], hb] @ values[grp.identity, hb]
            worst = max(worst, float(np.abs(diff).max()))
    return worst


@pytest.mark.parametrize(
    "name", ["dihedral(4, bundle=sign)", "torus-bands(16)", "rotation-4", "rotation-6", "rotation-8"]
)
def test_mackey_residual_bounds_periodicity_brute_force(name):
    # R <= a P and P <= (1 + a) R, a the largest row sum of |A(g, b)|
    bundle = _periodicity_bundle(name)
    a = float(np.abs(bundle.act_matrix).sum(axis=3).max())
    rng = np.random.default_rng(11)
    f = random_sections(bundle, SplitMix64(4), 1)[0]
    induced = section_to_mackey(f).values
    grp_order, base_size = bundle.action.group.order, bundle.action.base_size

    cases = []
    for _ in range(4):
        values = induced.copy()
        values[rng.integers(grp_order), rng.integers(base_size), rng.integers(bundle.dmax)] += 1.0
        cases.append(values)
    cases.append(induced + 1e-6 * rng.standard_normal(induced.shape))

    r0 = validate_mackey(MackeySection(bundle, induced)).checks[0].residual
    assert r0 <= 1e-14 and _brute_periodicity(bundle, induced) <= 1e-14
    for values in cases:
        R = validate_mackey(MackeySection(bundle, values)).checks[0].residual
        P = _brute_periodicity(bundle, values)
        assert R == pytest.approx(_brute_induced(bundle, values), rel=1e-12, abs=1e-15)
        assert P > 0.0
        assert R <= a * P * (1 + 1e-9) + 1e-15
        assert P <= (1 + a) * R * (1 + 1e-9) + 1e-15


def _brute_cocycle(bundle: EquivariantBundle, A: np.ndarray) -> float:
    """P = max over every (g, h, b) of |A(g h, b) - A(g, h.b) @ A(h, b)|,
    one g at a time with every (h, b) in one stack."""
    action, grp = bundle.action, bundle.action.group
    return max(float(np.abs(A[grp.cayley[g]] - A[g, action.table] @ A).max()) for g in range(grp.order))


@pytest.mark.parametrize(
    "name",
    ["dihedral(4, bundle=sign)", "torus-bands(16)", "rotation-4", "rotation-6", "rotation-8", "rotation-4+centre"],
)
def test_cocycle_residual_bounds_all_g_brute_force(name):
    # R <= P and P <= max(2a(3a + 2), 2d a(1 + a)) (R + R_e), with R_e the
    # identity-slice residual, a the largest row or column sum of |A(g, b)|
    # and d = dmax
    bundle = _periodicity_bundle(name)
    d = bundle.dmax

    def residuals(A):
        checks = {c.name: c.residual for c in validate_bundle(EquivariantBundle(bundle.action, bundle.fiber_dim, A)).checks}
        return checks["bundle-cocycle"], checks["bundle-identity-slice"]

    exact = 0.0 if name in ("dihedral(4, bundle=sign)", "torus-bands(16)") else 1e-14  # the rotation bundle rounds
    assert residuals(bundle.act_matrix)[0] <= exact and _brute_cocycle(bundle, bundle.act_matrix) <= exact

    rng = np.random.default_rng(13)
    cases = []
    for _ in range(4):
        bumped = bundle.act_matrix.copy()
        bumped[tuple(int(rng.integers(n)) for n in bumped.shape)] += 1.0
        cases.append(bumped)
    cases.append(bundle.act_matrix + 1e-6 * rng.random(bundle.act_matrix.shape))
    for A in cases:
        (R, R_e), P = residuals(A), _brute_cocycle(bundle, A)
        a = float(max(np.abs(A).sum(axis=3).max(), np.abs(A).sum(axis=2).max()))
        assert P > 0.0
        assert R <= P * (1 + 1e-9) + 1e-15
        assert P <= max(2 * a * (3 * a + 2), 2 * d * a * (1 + a)) * (R + R_e) * (1 + 1e-9) + 1e-15


def _stacked_cocycle(bundle: EquivariantBundle) -> tuple[float, tuple[int, int, int] | None]:
    """The cocycle scan with every instance (g, h, b0) in one stack, in
    fundamental-domain order, then ascending h, then ascending g: the
    |G| (|H| + |O|)-long index arrays and the defect stack that
    validate_bundle's column scan does without.  The first maximum, or the
    first NaN, is the witness."""
    action, grp, A = bundle.action, bundle.action.group, bundle.act_matrix
    domain = list(action.domain)
    hs = [np.sort(np.concatenate([stabilizer(action, b0), _movers(action, b0)])) for b0 in domain]
    h = np.repeat(np.concatenate(hs), grp.order)
    b = np.repeat(domain, [len(s) * grp.order for s in hs])
    g = np.resize(np.arange(grp.order), len(h))
    defect = A[grp.cayley[g, h], b] - A[g, action.table[h, b]] @ A[h, b]
    return _worst([(lambda k: (int(g[k]), int(h[k]), int(b[k])), np.abs(defect).max(axis=(1, 2), initial=0.0))])


@pytest.mark.parametrize("name", ["dihedral(3, bundle=sign)", "rotation-4+centre"])
def test_cocycle_column_scan_matches_the_stacked_scan(name):
    # every single-entry corruption of the act matrices, by a bump and by a
    # NaN: the same residual bits and the same witness as the stacked scan
    bundle = _periodicity_bundle(name)
    cases = [bundle.act_matrix]
    for at, fill in itertools.product(np.ndindex(bundle.act_matrix.shape), (1.0, np.nan)):
        A = bundle.act_matrix.copy()
        A[at] = np.nan if np.isnan(fill) else A[at] + fill
        cases.append(A)
    for A in cases:
        broken = EquivariantBundle(bundle.action, bundle.fiber_dim, A)
        check = next(c for c in validate_bundle(broken, tolerance=-1.0).checks if c.name == "bundle-cocycle")
        worst, witness = _stacked_cocycle(broken)
        assert (float(check.residual).hex(), check.witness) == (float(worst).hex(), witness)


def test_cocycle_scan_peak_is_one_column():
    # 3.5 MiB above the base on torus-bands(32) with the stacked scan, about
    # 0.5 MiB with the column scan while the padding check copied the act
    # matrices (0.25 MiB), 0.04 MiB now that it reads only the padding
    bundle = build_scenario("torus-bands(32)").input_bundle
    report, peak = traced_peak(lambda: validate_bundle(bundle))
    assert report.passed
    assert peak < 1 << 20
    assert peak < bundle.act_matrix.nbytes // 2  # no act-matrix-sized temporary


def _brute_law(values, action, conjugate, A=None) -> float:
    """P = max over every (g, r, b) of |v(g.r, g.b) A(g, b') - A(g, b) v(r, b)|,
    with g.r = g r g^-1 and b' = b for conjugate rows, g.r the action and
    b' = r otherwise, and no A for an untwisted law; one (g, b) pair at a
    time with every r in one column."""
    grp = action.group
    worst = 0.0
    for g in range(grp.order):
        gr = grp.cayley[grp.cayley[g], grp.inv[g]] if conjugate else action.table[g]
        for b in range(action.base_size):
            lhs, rhs = values[gr, action.table[g, b]], values[:, b]
            if A is not None:
                lhs = lhs @ (A[g, b] if conjugate else A[g])
                rhs = A[g, b] @ rhs
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@pytest.mark.parametrize(
    "name, output, support",
    [
        ("dihedral(4, bundle=sign)", "same", 16),
        ("dihedral(4, bundle=sign)", "trivial", 8),  # the average forces kappa(b, b) and kappa(b + 2, b) to zero
        ("torus(6)", "same", 36),
        ("rotation-4", "same", 16),
        ("rotation-5", "same", 25),
        ("rotation-6", "same", 36),
        ("rotation-4+centre", "same", 17),
        ("sign-4+centre", "same", 17),
    ],
)
def test_random_valid_builders_brute_force(name, output, support):
    # the builders' output against an all-(g, h, b) and all-(g, c, b) scan that
    # shares no code with the transport the builders and validators use
    e_bundle = _periodicity_bundle(name)
    f_bundle = e_bundle if output == "same" else trivial_bundle(e_bundle.action, 1)
    action, ae, af = e_bundle.action, e_bundle.act_matrix, f_bundle.act_matrix
    grp = action.group
    rng = SplitMix64(21)
    for _ in range(3):
        filt, kern = random_valid_filter(e_bundle, f_bundle, rng), random_valid_kernel(e_bundle, f_bundle, rng)
        worst = 0.0
        for g in range(grp.order):
            for b in range(action.base_size):
                gb = action.table[g, b]
                for h in range(grp.order):  # omega(g h g^-1, g.b) actE(g, b) = actF(g, b) omega(h, b)
                    lhs = filt.matrices[conjugate(grp, g, h), gb] @ ae[g, b]
                    worst = max(worst, float(np.abs(lhs - af[g, b] @ filt.matrices[h, b]).max()))
                for c in range(action.base_size):  # actF(g, b) kappa(c, b) = kappa(g.c, g.b) actE(g, c)
                    rhs = kern.matrices[action.table[g, c], gb] @ ae[g, c]
                    worst = max(worst, float(np.abs(af[g, b] @ kern.matrices[c, b] - rhs).max()))
        assert worst <= 1e-14
        assert int(kern.support.sum()) == support
        assert all(np.array_equal(kern.support[np.ix_(t, t)], kern.support) for t in action.table)


def _invariance_cases(name: str):
    """(check name, action, table, conjugate, A, residual that check reports on a
    table), with A the act matrices of both bundles, None for untwisted laws."""
    if name.startswith("rotation-"):
        bundle = _periodicity_bundle(name)
        rng = SplitMix64(9)
        filt, kern, scn = random_valid_filter(bundle, bundle, rng), random_valid_kernel(bundle, bundle, rng), None
    else:
        scn = build_scenario(name)
        bundle, filt, kern = scn.input_bundle, scn.filt, scn.kernel
    action, A = bundle.action, bundle.act_matrix
    cases = [
        ("filter-faint-constraint", filt.matrices, True, A, lambda t: validate_filter(Filter(bundle, bundle, t))),
        ("kernel-constraint", kern.matrices, False, A, lambda t: validate_kernel(Kernel(bundle, bundle, t))),
    ]
    if scn is not None:  # untwisted: psi rows by conjugation, mubar rows (indexed [c, b]) by the action
        cases += [
            ("psi-conjugation", scn.psi.values, True, None, lambda t: validate_psi(PsiFunction(action, t))),
            (
                "family-mubar-pushforward",
                scn.mubar.weights.T,
                False,
                None,
                lambda t: validate_families(scn.mu, scn.nu, OrbitMeasureFamily(action, t.T)),
            ),
        ]
    for check, table, conjugate, mats, report_of in cases:

        def residual(t, check=check, report_of=report_of):
            return next(c.residual for c in report_of(t).checks if c.name == check)

        yield check, action, table, conjugate, mats, residual


@pytest.mark.parametrize(
    "name",
    [
        "dihedral(4, bundle=sign, families=normalized-psi)",
        "torus-bands(16)",
        "rotation-4",
        "rotation-6",
        "rotation-8",
    ],
)
def test_orbit_slice_residual_bounds_all_g_brute_force(name):
    # R <= a P and P <= (a^2 + 2a) R, a the largest row or column sum of |A(g, b)|
    rng = np.random.default_rng(12)
    for check, action, table, conjugate, A, residual in _invariance_cases(name):
        a = 1.0 if A is None else float(max(np.abs(A).sum(axis=3).max(), np.abs(A).sum(axis=2).max()))
        exact = 0.0 if a == 1.0 else 1e-14  # the rotation bundle rounds
        assert residual(table) <= exact and _brute_law(table, action, conjugate, A) <= exact, check

        cases = []
        for _ in range(4):
            bumped = table.copy()
            bumped[tuple(int(rng.integers(n)) for n in table.shape)] += 1.0
            cases.append(bumped)
        cases.append(table + 1e-6 * rng.random(table.shape))
        for values in cases:
            R, P = residual(values), _brute_law(values, action, conjugate, A)
            assert P > 0.0, check
            assert R <= a * P * (1 + 1e-9) + 1e-15, check
            assert P <= (a * a + 2 * a) * R * (1 + 1e-9) + 1e-15, check


def _concatenated_slice(values, action, conjugate, A):
    """The orbit-slice scan as one array: every stabilizer part, then every
    coset part, each in fundamental-domain order, concatenated and read
    row-major; the first maximum of |.|, or the first NaN, is the witness."""
    grp, domain = action.group, action.domain
    parts = [(b0, stabilizer(action, b0)) for b0 in domain] + [(b0, _movers(action, b0)) for b0 in domain]
    diffs = [
        _carry(values, action, conjugate, A, A, elements, b0) - np.moveaxis(values[:, action.table[elements, b0]], 1, 0)
        for b0, elements in parts
    ]
    grid = np.abs(np.concatenate(diffs))
    flat = int(np.argmax(grid))  # the first NaN, or the first maximum
    worst = float(grid.ravel()[flat])
    if worst == 0.0:
        return worst, None
    i, r = np.unravel_index(flat, grid.shape)[:2]
    bases = np.concatenate([np.full(len(elements), b0) for b0, elements in parts])
    g = int(np.concatenate([elements for _, elements in parts])[i])
    return worst, (g, int(_move(action, conjugate, grp.inv[[g]])[0, r]), int(bases[i]))


@pytest.mark.parametrize("name", ["dihedral(4, bundle=sign, families=normalized-psi)", "torus-bands(16)", "rotation-6"])
def test_orbit_slice_keeps_the_concatenated_scan_order(name):
    # the running maximum names the same residual and witness as one scan of
    # all parts: ties keep the first part, and the first NaN wins and stays
    rng = np.random.default_rng(5)
    for check, action, table, conjugate, A, _ in _invariance_cases(name):
        cases = [table]
        for fill in (1.0, np.nan):
            for _ in range(3):
                bumped = table.copy()
                for _ in range(3):
                    at = tuple(int(rng.integers(n)) for n in table.shape)
                    bumped[at] = fill if np.isnan(fill) else bumped[at] + fill
                cases.append(bumped)
        for values in cases:
            worst, witness = _orbit_slice(values, action, conjugate, _local, A, A)
            ref_worst, ref_witness = _concatenated_slice(values, action, conjugate, A)
            assert (witness, np.isnan(worst)) == (ref_witness, np.isnan(ref_worst)), check
            assert np.isnan(worst) or worst == ref_worst, check


def _corrupted_d4_sign_filter():
    filt = build_scenario("dihedral(4, bundle=sign)").filt
    bad = filt.matrices.copy()
    bad[filt.support_index[2, 0], 2, 0, 0] += 0.7
    return bad, filt.action, True, filt.output_bundle.act_matrix, filt.input_bundle.act_matrix


def _corrupted_two_orbit_filter():
    from test_streaming import two_orbit_filter

    _, filt, _ = two_orbit_filter()
    return filt.matrices, filt.action, True, filt.output_bundle.act_matrix, filt.input_bundle.act_matrix


def _corrupted_cyclic16_kernel():
    kern = build_scenario("cyclic(16)").kernel
    bad = kern.matrices.copy()
    bad[5, 11, 0, 0] += 0.7
    return bad, kern.action, False, kern.output_bundle.act_matrix, kern.input_bundle.act_matrix


@pytest.mark.parametrize("case", [_corrupted_d4_sign_filter, _corrupted_two_orbit_filter, _corrupted_cyclic16_kernel])
def test_blocked_transport_matches_the_one_block_scan(case, monkeypatch):
    # one element per block names the same residual and witness as one
    # block of every element, and _transport writes the same table bit for
    # bit, leaving the columns at the fundamental domain untouched
    values, action, conjugate, a_out, a_in = case()
    domain = list(action.domain)
    sizes = []
    monkeypatch.setattr(bundles, "_carry", lambda *args: sizes.append(len(args[5])) or _carry(*args))
    runs = []
    for entries in (1 << 40, 1):
        monkeypatch.setattr(groups, "_BLOCK_ENTRIES", entries)
        sizes.clear()
        table = values.copy()
        _transport(table, action, conjugate, a_out, a_in)
        assert table[:, domain].tobytes() == values[:, domain].tobytes()
        runs.append((_orbit_slice(values, action, conjugate, _local, a_out, a_in), table.tobytes(), max(sizes)))
    (whole, whole_table, whole_size), (blocked, blocked_table, blocked_size) = runs
    assert whole_size > 1 and blocked_size == 1
    assert whole[0] > 0.1 and whole[1] is not None
    assert (float(blocked[0]).hex(), blocked[1]) == (float(whole[0]).hex(), whole[1])
    assert blocked_table == whole_table


@pytest.mark.parametrize("spec", ["dihedral(4, bundle=sign)", "two-orbit", "torus-bands(16)"])
def test_transport_fills_a_valid_filter_from_its_domain_columns(spec):
    # the columns at the fundamental domain fix the rest of a valid filter:
    # _transport writes it back bit for bit, and _orbit_slice reads 0 on it
    from test_streaming import two_orbit_filter

    filt = two_orbit_filter()[0] if spec == "two-orbit" else build_scenario(spec).filt
    a_out, a_in = filt.output_bundle.act_matrix, filt.input_bundle.act_matrix
    table = np.zeros_like(filt.matrices)
    domain = list(filt.action.domain)
    table[:, domain] = filt.matrices[:, domain]
    _transport(table, filt.action, True, a_out, a_in)
    assert table.tobytes() == filt.matrices.tobytes()
    assert _orbit_slice(table, filt.action, True, _local, a_out, a_in) == (0.0, None)


def test_b_independent_bundles_allocate_no_act_matrix_stack():
    # |G| |B| 8 bytes is 2 MiB on cyclic(512) and 1 MiB on dihedral(256)
    for action, build in (
        (cyclic_action(512), trivial_bundle),
        (dihedral_vertex_action(256), lambda action: sign_bundle(action, np.repeat([1.0, -1.0], 256))),
    ):
        bundle, peak = traced_peak(lambda: build(action))
        stack = action.group.order * action.base_size * 8
        assert peak < stack // 64
        assert not bundle.act_matrix.flags.writeable
        with pytest.raises(ValueError):
            bundle.act_matrix[0, 0, 0, 0] = 2.0
        assert validate_bundle(bundle).passed


def test_representation_bundle_copies_its_representation():
    action = dihedral_vertex_action(4)
    rep = rotation_rep(4)
    bundle = representation_bundle(action, rep)
    rep[1] = 0.0
    assert np.array_equal(bundle.act_matrix[1, 3], rotation_rep(4)[1])


def test_validate_kernel_peak_is_a_few_blocks():
    # at most six blocks of groups._BLOCK_ENTRIES floats; 10.5 MB when every
    # coset representative was carried in one block, and a carried copy of
    # the (512, 512) kernel table, 2 MiB, beside them until validators
    # stopped carrying one
    kern = build_scenario("cyclic(512)").kernel
    report, peak = traced_peak(lambda: validate_kernel(kern))
    assert report.passed
    assert peak < 6 * groups._BLOCK_ENTRIES * 8
