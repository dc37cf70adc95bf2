"""Seeded single-entry corruptions: every validator must catch one changed
table entry, and name the same offending coordinates every time.

The integer-law scans read only a generating set, which is exact; these
tests show it at |G| = 1024, where a sampled scan missed most Cayley-table
corruptions.  The associativity certificate (generator commutators and one
row compare per element) is run on every single-entry corruption of two
small tables against a brute-force scan of all triples.  No float law is scanned over all g: the bundle cocycle and the
six table-invariance laws (filter, kernel, psi, delta, mu, mubar) are
checked on one base slice per orbit, nu's conjugation law as one weight per
orbit, Mackey periodicity through its identity slice.  Their witnesses are pinned to fix the scan order, single-entry
corruptions of each of the eight tables are caught at |G| = 1024 as well, and
a NaN planted in any float table fails with a witness.
"""

from __future__ import annotations

import collections
import itertools
import json
from functools import partial

import numpy as np
import pytest

from equicorr.battery import _mackey_checks
from equicorr.bundles import EquivariantBundle, MackeySection, section_to_mackey, validate_bundle
from equicorr.cli import main
from equicorr.errors import PreconditionError, StructuralError
from equicorr.groups import (
    INDEX_DTYPE,
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_set,
    group_from_tables,
    table_from_generators,
    validate_action,
    validate_group,
)
from equicorr.measures import (
    DeltaFunction,
    GroupMeasureFamily,
    OrbitMeasureFamily,
    PsiFunction,
    StabilizerMeasureFamily,
    validate_delta,
    validate_families,
    validate_psi,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections
from equicorr.scenarios import build_scenario
from equicorr.serialize import dumps, save_document, scenario_to_dict
from equicorr.transforms import Kernel, ThetaMap, filter_operator, operator_equivariance_residual, validate_kernel, validate_theta
from equicorr.xcorr import Filter, validate_filter

from helpers import psi_from_class_function, validate_mackey

SEEDS = range(10)


@pytest.fixture(scope="module", params=["dihedral(4)", "torus-bands(32)"])
def scn(request):
    return build_scenario(request.param)


@pytest.fixture(scope="module")
def bands32():
    return build_scenario("torus-bands(32)")


@pytest.fixture(scope="module")
def d4():
    return build_scenario("dihedral(4, bundle=sign, families=normalized-psi)")


def _other(rng: SplitMix64, value: int, size: int) -> int:
    """A uniformly chosen value in range(size) other than `value`."""
    return (value + 1 + rng.integer(size - 1)) % size


def _failures(report) -> list[tuple[str, float, tuple[int, ...]]]:
    return [(c.name, c.residual, c.witness) for c in report.checks if not c.passed]


def _closure(cayley: np.ndarray, identity: int, gens: list[int]) -> set[int]:
    reached = {identity, *gens}
    frontier = list(reached)
    while frontier:
        new = {int(cayley[r, a]) for r in frontier for a in gens} - reached
        reached |= new
        frontier = list(new)
    return reached


# ---------------------------------------------------------------------------
# generating set


def test_generating_set_torus_bands():
    grp = build_scenario("torus-bands(32)").group
    gens = generating_set(grp)
    assert gens == [1, 32]
    assert _closure(grp.cayley, grp.identity, gens) == set(range(grp.order))


@pytest.mark.parametrize(
    "spec, gens",
    [("cyclic(8)", [1]), ("dihedral(4)", [1, 4]), ("torus-bands(32)", [1, 32]), ("line-grid(5, dx=0.2)", [1, 25])],
)
def test_group_derives_its_generators_once(spec, gens):
    grp = build_scenario(spec).group
    assert grp.generators == gens == generating_set(grp)


def test_generating_set_survives_corrupted_identity_row():
    grp = build_scenario("dihedral(4)").group
    cayley = grp.cayley.copy()
    cayley[grp.identity] = grp.identity  # e x = e for every x
    broken = FiniteGroup(grp.elements, cayley, grp.inv, grp.identity)
    gens = generating_set(broken)
    assert broken.generators == gens
    assert gens == sorted(gens)
    assert _closure(cayley, grp.identity, gens) == set(range(grp.order))
    assert not validate_group(broken).passed


# ---------------------------------------------------------------------------
# integer laws: seeded corruptions at small size and at |G| = 1024


@pytest.mark.parametrize("seed", SEEDS)
def test_single_cayley_entry_caught(scn, seed):
    grp = scn.group
    n = grp.order
    rng = SplitMix64(seed)
    g, h = rng.integer(n), rng.integer(n)
    cayley = grp.cayley.copy()
    cayley[g, h] = _other(rng, int(cayley[g, h]), n)
    assert not validate_group(FiniteGroup(grp.elements, cayley, grp.inv, grp.identity)).passed


@pytest.mark.parametrize("seed", SEEDS)
def test_single_action_entry_caught(scn, seed):
    action = scn.action
    rng = SplitMix64(seed)
    g, b = rng.integer(action.group.order), rng.integer(action.base_size)
    table = action.table.copy()
    table[g, b] = _other(rng, int(table[g, b]), action.base_size)
    assert not validate_action(GroupAction(action.group, action.base, table)).passed


def _brute_coset_reps(table: np.ndarray) -> list[list[int]]:
    """[b, c] -> min{k : k.b = c}, -1 when no k carries b to c: write every
    k at [b, k.b], largest k first, so the smallest is written last."""
    n, m = table.shape
    reps = [[-1] * m for _ in range(m)]
    for k in reversed(range(n)):
        for b in range(m):
            reps[b][int(table[k, b])] = k
    return reps


@pytest.mark.parametrize("seed", SEEDS)
def test_coset_reps_on_corrupted_action_tables(scn, seed):
    # the same corruptions as test_single_action_entry_caught: the derived
    # table stays the smallest mover even where the action law fails
    action = scn.action
    rng = SplitMix64(seed)
    g, b = rng.integer(action.group.order), rng.integer(action.base_size)
    table = action.table.copy()
    table[g, b] = _other(rng, int(table[g, b]), action.base_size)
    assert GroupAction(action.group, action.base, table).coset_reps.tolist() == _brute_coset_reps(table)



@pytest.fixture(scope="module")
def scn_text(scn):
    return dumps(scenario_to_dict(scn))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_stored_permutation_entry_caught(scn, scn_text, seed, tmp_path, capsys):
    # a changed entry leaves the stored λ_s or ρ_s no permutation, which no
    # group table's row or column can equal: the file fails at load or in
    # validate_group, never passes
    doc = json.loads(scn_text)
    n = scn.group.order
    rng = SplitMix64(seed)
    perms = doc["action"]["group"][("left", "right")[rng.integer(2)]]
    row, x = perms[rng.integer(len(perms))], rng.integer(n)
    row[x] = _other(rng, row[x], n)
    path = tmp_path / "corrupt.json"
    save_document(str(path), doc)
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2 or (
        code == 1 and any(c["name"].startswith("group.") and not c["pass"] for c in json.loads(out)["checks"])
    )


def test_associativity_witness_and_count_over_generators():
    grp = build_scenario("dihedral(4)").group
    cayley = grp.cayley.copy()
    cayley[5, 6] = 0
    report = validate_group(FiniteGroup(grp.elements, cayley, grp.inv, grp.identity))
    # s1 = r1 s0 is a row of the right-product tree, so row s1 must be row r1
    # after left multiplication by s0; it differs at x = s2 alone
    assert _failures(report) == [("group-associativity", 1.0, (1, 4, 6))]
    # Light's count over (x, generator, y) on the same table, which the row
    # triple (1, 4, 6) is one of
    gens = generating_set(grp)
    n = grp.order
    brute = [
        (x, a, y)
        for a in gens
        for x in range(n)
        for y in range(n)
        if cayley[cayley[x, a], y] != cayley[x, cayley[a, y]]
    ]
    assert len(brute) == 4 and brute[0] == (5, 1, 5) and (1, 4, 6) in brute


@pytest.mark.parametrize("build", [partial(dihedral_group, 3), partial(cyclic_group, 6)], ids=["dihedral(3)", "cyclic(6)"])
def test_associativity_decided_on_every_single_entry_corruption(build):
    # every wrong value at every (x, y): the report fails exactly when a
    # brute-force scan of all triples or a unary law does, and the residual R
    # keeps its stated relation to Light's count P
    grp = build()
    n = grp.order
    for x, y, v in itertools.product(range(n), repeat=3):
        if v == grp.cayley[x, y]:
            continue
        cayley = grp.cayley.copy()
        cayley[x, y] = v
        corrupt = FiniteGroup(grp.elements, cayley, grp.inv, grp.identity)
        checks = {c.name.removeprefix("group-"): c for c in validate_group(corrupt).checks}
        bad = cayley[cayley] != cayley[np.arange(n)[:, None, None], cayley]  # [x, y, z] -> (x y) z != x (y z)
        gens = corrupt.generators
        R, P = checks["associativity"].residual, int(bad[:, gens].sum())
        R_comm = int(bad[np.ix_(gens, range(n), gens)].sum())
        identity_laws = checks["identity-left"].passed and checks["identity-right"].passed
        unary = identity_laws and checks["inverse-left"].passed and checks["inverse-right"].passed
        assert all(c.passed for c in checks.values()) == (unary and not bad.any())
        assert R - R_comm <= P
        if R:
            assert bad[checks["associativity"].witness]
        if identity_laws:
            assert (R == 0) == (P == 0) == (not bad.any())
            assert P <= len(gens) * n * n * R and R <= (len(gens) ** 2 * n + 1) * P


def test_associativity_needs_the_commutators():
    # the dihedral group of order 12 acting on the hexagon's 6 vertices is
    # transitive but not regular: the table built from its left
    # multiplications keeps every row a product of generator rows and both
    # identity laws, and only the commutators of the certificate fail
    n = 6
    cayley = table_from_generators(n, 0, lambda: [(np.arange(n) + 1) % n, -np.arange(n) % n])
    grp = group_from_tables(tuple(f"v{i}" for i in range(n)), cayley, 0)
    checks = {c.name: c for c in validate_group(grp).checks}
    assert checks["group-identity-left"].passed and checks["group-identity-right"].passed
    bad = cayley[cayley] != cayley[np.arange(n)[:, None, None], cayley]
    gens = grp.generators
    assert checks["group-associativity"].residual == bad[np.ix_(gens, range(n), gens)].sum() == 8
    s, x, t = checks["group-associativity"].witness
    assert s in gens and t in gens and bad[s, x, t]


def _per_row_associativity(group: FiniteGroup) -> tuple[float, tuple[int, ...] | None]:
    """The associativity residual and witness of validate_group, decided
    with one Python-level row compare per element the walk reaches."""
    cay, e, gens = group.cayley, group.identity, group.generators
    left, right = cay[gens], cay[:, gens]
    bad = left[:, right] != right[left]
    count = float(bad.sum())
    witness = tuple(int(c) for c in np.argwhere(bad)[0]) if count else None
    witness = witness and (gens[witness[0]], witness[1], gens[witness[2]])
    tree = [e, *gens]
    reached = np.zeros(group.order, dtype=bool)
    reached[tree] = True
    for r in tree:
        for a in gens:
            y = int(cay[r, a])
            if not reached[y]:
                reached[y] = True
                tree.append(y)
                row = cay[y] != cay[r, cay[a]]
                if witness is None and row.any():
                    witness = (r, a, int(row.argmax()))
                count += int(row.sum())
    return count, witness


def _corruptions(grp: FiniteGroup, cells) -> list[FiniteGroup]:
    """grp with one table entry changed, for each (x, y, v) of cells with v
    not the entry already there."""
    out = []
    for x, y, v in cells:
        if v != grp.cayley[x, y]:
            cayley = grp.cayley.copy()
            cayley[x, y] = v
            out.append(FiniteGroup(grp.elements, cayley, grp.inv, grp.identity))
    return out


@pytest.mark.parametrize(
    "build",
    [partial(cyclic_group, 6), partial(dihedral_group, 3), lambda: direct_product(cyclic_group(2), cyclic_group(3))],
    ids=["cyclic(6)", "dihedral(3)", "Z2xZ3"],
)
def test_associativity_blocks_match_the_per_row_walk_on_every_single_entry_corruption(build):
    grp = build()
    corrupt = _corruptions(grp, itertools.product(range(grp.order), repeat=3))
    assert len(corrupt) == grp.order**2 * (grp.order - 1)
    for bad in corrupt:
        check = validate_group(bad).checks[-1]
        assert check.name == "group-associativity"
        assert (check.residual, check.witness) == _per_row_associativity(bad)


def test_associativity_blocks_match_the_per_row_walk_on_random_corruptions():
    # |G| = 256 spans several row blocks of the scan, so a witness past the
    # first block keeps its walk position
    grp = build_scenario("torus-bands(16)").group
    rng = np.random.default_rng(31)
    cells = zip(*(rng.integers(0, grp.order, 60) for _ in range(3)))
    witnesses = set()
    for bad in _corruptions(grp, cells):
        check = validate_group(bad).checks[-1]
        assert (check.residual, check.witness) == _per_row_associativity(bad)
        witnesses.add(check.witness)
    assert len(witnesses) > 40


def _per_row_table(n: int, identity: int, left: list[np.ndarray]) -> np.ndarray:
    """table_from_generators with numpy lookups and one gathered row per element."""
    cayley = np.empty((n, n), dtype=INDEX_DTYPE)
    cayley[identity] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    tree = [identity]
    for p in tree:
        for lam in left:
            y = int(lam[p])
            if not reached[y]:
                reached[y] = True
                cayley[y] = lam[cayley[p]]
                tree.append(y)
    if not reached.all():
        raise StructuralError(
            f"element {int(reached.argmin())} is not reached from the identity"
            " by left multiplication by the generators"
        )
    return cayley


def test_table_from_generators_matches_the_per_row_walk_on_random_permutations():
    rng = np.random.default_rng(17)
    outcomes = collections.Counter()
    for _ in range(300):
        n = int(rng.integers(1, 13))
        left = [rng.permutation(n) for _ in range(int(rng.integers(0, 4)))]
        identity = int(rng.integers(0, n))
        try:
            expected = _per_row_table(n, identity, left)
        except StructuralError as err:
            with pytest.raises(StructuralError) as got:
                table_from_generators(n, identity, lambda: left)
            assert str(got.value) == str(err)
            outcomes["unreached"] += 1
        else:
            table = table_from_generators(n, identity, lambda: left)
            assert table.dtype == expected.dtype and np.array_equal(table, expected)
            outcomes["table"] += 1
    assert outcomes["unreached"] > 50 and outcomes["table"] > 50


def test_action_witness_pinned():
    action = build_scenario("dihedral(4)").action
    table = action.table.copy()
    table[6, 2] = 1  # s2 now sends vertex 2 to 1 instead of 0
    report = validate_action(GroupAction(action.group, action.base, table))
    # first violation with generator h = r1: (s2 r1).1 = s1.1 = 0, s2.(r1.1) = s2.2 = 1
    assert _failures(report) == [("action-compatibility", 4.0, (6, 1, 1))]


def test_theta_translation_counts_pairs_moved_off_the_support():
    # abelian Z_8 on itself, kernel supported on the single pair (c, b) = (0, 1)
    # and theta(0, 1) = 7, the last element: every g != e moves the pair off
    # the support, where theta is undefined
    scn = build_scenario("cyclic(8)")
    n = scn.group.order
    mats = np.zeros((n, n, 1, 1))
    mats[0, 1] = 1.0
    kern = Kernel(scn.input_bundle, scn.output_bundle, mats)
    reps = np.full((n, n), -1)
    reps[0, 1] = n - 1
    report = validate_theta(ThetaMap(scn.action, reps), kern)
    assert _failures(report) == [("theta-translation", 1.0, (1, 0, 1))]


def test_kernel_support_invariance_pinned(d4):
    mats = d4.kernel.matrices.copy()
    mats[1, 3] = 0.0
    report = validate_kernel(Kernel(d4.input_bundle, d4.output_bundle, mats))
    names = {name: wit for name, _, wit in _failures(report)}
    # generator r1 carries the supported pair (0, 2) to the dropped pair (1, 3)
    assert names["kernel-support-invariance"] == (1, 0, 2)


def test_class_function_check_names_a_generator():
    action = build_scenario("dihedral(4)").action
    values = np.zeros(action.group.order)
    values[1] = 1.0  # r1 is conjugate to r3 under the reflections
    with pytest.raises(PreconditionError, match="g=4"):
        psi_from_class_function(action, values)


# ---------------------------------------------------------------------------
# float laws: one planted entry each, witness pinned


def test_bundle_cocycle_witness(d4):
    bundle = d4.input_bundle
    mats = bundle.act_matrix.copy()
    mats[3, 1, 0, 0] *= -1.0
    report = validate_bundle(EquivariantBundle(bundle.action, bundle.fiber_dim, mats))
    # A(3, 1) enters the checked instances only as A(g, k_1.0) with g = r3 and
    # k_1 = r1: the law A(r3 r1, 0) = A(r3, 1) A(r1, 0) is off by 2
    assert _failures(report) == [("bundle-cocycle", 2.0, (3, 1, 0))]


def test_bundle_identity_slice_witness(d4):
    bundle = d4.input_bundle
    mats = bundle.act_matrix.copy()
    mats[0, 2, 0, 0] = 3.0
    report = validate_bundle(EquivariantBundle(bundle.action, bundle.fiber_dim, mats))
    assert ("bundle-identity-slice", 2.0, (0, 2, 0, 0)) in _failures(report)


def test_family_mu_witness(d4):
    weights = d4.mu.weights.copy()
    weights[2, 5] += 0.5
    report = validate_families(GroupMeasureFamily(d4.action, weights), d4.nu, d4.mubar)
    assert _failures(report) == [("family-mu-conjugation", 0.5, (2, 0, 5))]


def test_family_nu_witness(d4):
    weights = d4.nu.weights.copy()
    weights[1] += 0.5  # the weight of each element of the stabilizer {r0, s2} of vertex 1
    report = validate_families(d4.mu, StabilizerMeasureFamily(d4.action, weights), d4.mubar)
    assert _failures(report) == [("family-nu-conjugation", 0.5, (1,))]


def test_family_mubar_witness(d4):
    weights = d4.mubar.weights.copy()
    weights[2, 3] += 0.5
    report = validate_families(d4.mu, d4.nu, OrbitMeasureFamily(d4.action, weights))
    assert _failures(report) == [("family-mubar-pushforward", 0.5, (2, 0, 1))]


def test_psi_witness(d4):
    values = d4.psi.values.copy()
    values[6, 2] += 0.5
    report = validate_psi(PsiFunction(d4.action, values))
    assert _failures(report) == [("psi-conjugation", 0.5, (2, 6, 0))]


def test_delta_witness(d4):
    values = d4.delta.values.copy()
    values[6, 3] += 0.5  # s2 (v -> 2 - v) fixes vertices 1 and 3
    report = validate_delta(DeltaFunction(d4.action, values), d4.nu)
    assert _failures(report) == [
        ("delta-normalization", 0.5, (3,)),
        ("delta-conjugation", 0.5, (3, 4, 0)),
    ]


def test_filter_witness(d4):
    mats = d4.filt.matrices.copy()
    mats[5, 2, 0, 0] += 1.0
    report = validate_filter(Filter(d4.input_bundle, d4.output_bundle, mats))
    assert _failures(report) == [("filter-faint-constraint", 1.0, (2, 5, 0))]


def test_kernel_constraint_witness(d4):
    mats = d4.kernel.matrices.copy()
    mats[1, 3, 0, 0] += 1.0
    report = validate_kernel(Kernel(d4.input_bundle, d4.output_bundle, mats))
    assert _failures(report) == [("kernel-constraint", 1.0, (3, 2, 0))]


def test_mackey_witness(d4):
    m = section_to_mackey(random_sections(d4.input_bundle, SplitMix64(5), 1)[0])
    assert validate_mackey(m).passed
    values = m.values.copy()
    values[6, 2, 0] += 1.0
    report = validate_mackey(MackeySection(m.bundle, values))
    assert _failures(report) == [("mackey-periodicity", 1.0, (6, 2))]


@pytest.mark.parametrize("spec", ["dihedral(3)", "cyclic(6)"])
def test_mackey_preservation_fails_exactly_when_equivariance_does(spec):
    # (omega * f~)(h, .) = T(h^-1 . f) for the induced map T, so the Mackey
    # level holds for every f exactly when T is equivariant, which the
    # operator matrix decides; a pair of opposite bumps at (h, b), (h', b)
    # with h.b = h'.b leaves T, so both checks pass off the faint constraint
    scn = build_scenario(spec)
    filt, table = scn.filt, scn.action.table

    def decided(mats):
        bad = Filter(scn.input_bundle, scn.output_bundle, mats)
        mackey = {c.name: c for c in _mackey_checks(bad, scn.mu, 1e-12)}["xcorr.mackey-preserved"]
        op = filter_operator(bad, scn.mu)
        equivariant = operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)[0] <= 1e-12
        return validate_filter(bad).passed, mackey.passed, equivariant

    for h, b in itertools.product(range(scn.group.order), range(scn.action.base_size)):
        mats = filt.matrices.copy()
        mats[h, b, 0, 0] += 0.5
        faint, mackey, equivariant = decided(mats)
        assert not faint and mackey == equivariant
    n, m = table.shape
    pairs = [(h, k, b) for h, k, b in itertools.product(range(n), range(n), range(m)) if h < k and table[h, b] == table[k, b]]
    assert bool(pairs) == (spec == "dihedral(3)")  # cyclic(6) acts freely
    for h, k, b in pairs:
        mats = filt.matrices.copy()
        mats[h, b, 0, 0] += 0.5
        mats[k, b, 0, 0] -= 0.5
        assert decided(mats) == (False, True, True)


def test_mackey_identity_slice_corruption(d4):
    # m(e, b0) feeds every m(h, b) with h.b = b0; the pair (e, b0) compares
    # with itself, so the witness is the first such pair with h != e
    m = section_to_mackey(random_sections(d4.input_bundle, SplitMix64(7), 1)[0])
    grp, table = d4.group, d4.action.table
    for b0 in range(d4.action.base_size):
        values = m.values.copy()
        values[grp.identity, b0, 0] += 1.0
        report = validate_mackey(MackeySection(m.bundle, values))
        first = next(
            (h, b)
            for h in range(grp.order)
            for b in range(d4.action.base_size)
            if h != grp.identity and table[h, b] == b0
        )
        assert _failures(report) == [("mackey-periodicity", 1.0, first)]


# ---------------------------------------------------------------------------
# float laws: seeded corruptions at |G| = 1024


def fixes(action: GroupAction) -> np.ndarray:
    """(|G|, |B|) bool, brute force from the action table: [g, b] iff g.b = b."""
    return action.table == np.arange(action.base_size)


# table -> (the check that must fail, report on the scenario with one table
# replaced by bump(table, allowed cells))
FLOAT_LAWS = {
    "filter": (
        "filter-faint-constraint",
        lambda s, bump: validate_filter(Filter(s.input_bundle, s.output_bundle, bump(s.filt.matrices))),
    ),
    "kernel": (
        "kernel-constraint",
        lambda s, bump: validate_kernel(Kernel(s.input_bundle, s.output_bundle, bump(s.kernel.matrices))),
    ),
    "psi": ("psi-conjugation", lambda s, bump: validate_psi(PsiFunction(s.action, bump(s.psi.values)))),
    "delta": (
        "delta-conjugation",
        lambda s, bump: validate_delta(DeltaFunction(s.action, bump(s.delta.values, fixes(s.action))), s.nu),
    ),
    "mu": (
        "family-mu-conjugation",
        lambda s, bump: validate_families(GroupMeasureFamily(s.action, bump(s.mu.weights)), s.nu, s.mubar),
    ),
    "nu": (
        "family-nu-conjugation",
        lambda s, bump: validate_families(s.mu, StabilizerMeasureFamily(s.action, bump(s.nu.weights)), s.mubar),
    ),
    "mubar": (
        "family-mubar-pushforward",
        lambda s, bump: validate_families(s.mu, s.nu, OrbitMeasureFamily(s.action, bump(s.mubar.weights))),
    ),
}


def _bump_one(
    rng: SplitMix64, values: np.ndarray, allowed: np.ndarray | None = None, by: float = 1.0
) -> np.ndarray:
    """Copy of values with one seeded cell of its first two axes (an entry
    of a 1-d table), among the allowed ones, raised by `by`."""
    cells = np.argwhere(np.ones(values.shape[:2], dtype=bool) if allowed is None else allowed)
    out = values.copy()
    out[tuple(cells[rng.integer(len(cells))])] += by
    return out


@pytest.mark.parametrize("table", sorted(FLOAT_LAWS))
def test_single_float_entry_caught_at_1024(bands32, table):
    # delta lives on the stabilizers, so only its stabilizer cells are bumped
    assert bands32.group.order == 1024
    check, report_of = FLOAT_LAWS[table]
    missed = [
        seed
        for seed in SEEDS
        if check not in {name for name, _, _ in _failures(report_of(bands32, partial(_bump_one, SplitMix64(seed))))}
    ]
    assert missed == []


def _cocycle_defect(A: np.ndarray, scn, g: int, h: int, b: int) -> float:
    """|A(g h, b) - A(g, h.b) A(h, b)|, the largest entry."""
    grp, table = scn.group, scn.action.table
    return float(np.abs(A[grp.cayley[g, h], b] - A[g, table[h, b]] @ A[h, b]).max())


@pytest.mark.parametrize("seed", SEEDS)
def test_single_act_matrix_entry_caught_at_1024(bands32, seed):
    # every A(g, c) enters a checked instance (g, k_c, b0), so each cell is seen;
    # the witness is an instance of the law whose defect is the residual
    bundle = bands32.input_bundle
    A = _bump_one(SplitMix64(seed), bundle.act_matrix)
    report = validate_bundle(EquivariantBundle(bundle.action, bundle.fiber_dim, A))
    check = next(c for c in report.checks if c.name == "bundle-cocycle")
    assert not check.passed
    assert _cocycle_defect(A, bands32, *check.witness) == check.residual


# every float table -> (the check that must fail, report with the table replaced)
NAN_LAWS = {
    **FLOAT_LAWS,
    "act_matrix": (
        "bundle-cocycle",
        lambda s, bump: validate_bundle(
            EquivariantBundle(s.action, s.input_bundle.fiber_dim, bump(s.input_bundle.act_matrix))
        ),
    ),
    "mackey": (
        "mackey-periodicity",
        lambda s, bump: validate_mackey(
            MackeySection(s.input_bundle, bump(section_to_mackey(random_sections(s.input_bundle, SplitMix64(5), 1)[0]).values))
        ),
    ),
}


@pytest.mark.parametrize("table", sorted(NAN_LAWS))
def test_nan_entry_fails_with_witness(d4, table):
    # a NaN compares false with everything: its residual must still fail, with
    # a witness, rather than pass as 0
    check, report_of = NAN_LAWS[table]
    for seed in SEEDS:
        report = report_of(d4, partial(_bump_one, SplitMix64(seed), by=np.nan))
        failed = {c.name: c for c in report.checks if not c.passed}.get(check)
        assert failed is not None and np.isnan(failed.residual) and failed.witness is not None, (table, seed)
