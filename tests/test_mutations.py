"""Seeded single-entry corruptions: every validator must catch one changed
table entry, and name the same offending coordinates every time.

The integer-law scans read only the group's stored generators S, which is
exact; these tests show it at |G| = 1024, where a sampled scan missed most
Cayley-table corruptions.  The associativity residual (the commutators of
the stored rows with the columns at S) is run on every single-entry
corruption of the stored rows of five small groups and on 6,000 seeded
row sets, against a brute-force scan of all triples and the count over the
greedy generating set S′ of the table that it replaced.  No float law is scanned over all g: the bundle cocycle and the
six table-invariance laws (filter, kernel, psi, delta, mu, mubar) are
checked on one base slice per orbit, nu's conjugation law as one weight per
orbit, Mackey periodicity through its identity slice.  Their witnesses are pinned to fix the scan order, single-entry
corruptions of each of the eight tables are caught at |G| = 1024 as well, and
a NaN planted in any float table fails with a witness.  The report rows
retired as decided elsewhere (helpers.RETIRED_LAWS) never fail alone on
these corruptions: where one fails, a row of the same command fails too.
"""

from __future__ import annotations

import collections
import itertools
import json
from functools import partial

import numpy as np
import pytest

from equicorr.battery import _Inputs, _report
from equicorr.bundles import EquivariantBundle, MackeySection, section_to_mackey, validate_bundle
from equicorr.cli import main
from equicorr.errors import DomainError, StructuralError
from equicorr.groups import (
    INDEX_DTYPE,
    FiniteGroup,
    GroupAction,
    action_table,
    cyclic_group,
    dihedral_group,
    direct_product,
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
from equicorr.serialize import Scenario, dumps, save_document, scenario_to_dict
from equicorr.transforms import Kernel, ThetaMap, filter_operator, operator_equivariance_residual, validate_kernel, validate_theta
from equicorr.xcorr import Filter, validate_filter

from helpers import (
    RETIRED_STRUCTURAL, cayley_table, mackey_preserved, psi_from_class_function, retired_alone, scenario_fields, validate_mackey,
)

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


def _assert_constructor_laws(grp: FiniteGroup) -> None:
    """e x = x, x e = x and x x^-1 = e at every x, read off the table: row e
    is the identity by construction, column e by the walk, and inv is each
    first right inverse or the constructor raises."""
    every = np.arange(grp.order)
    assert np.array_equal(cayley_table(grp)[grp.identity], every) and np.array_equal(cayley_table(grp)[:, grp.identity], every)
    assert (cayley_table(grp)[every, grp.inv] == grp.identity).all()


def _closure(cayley: np.ndarray, identity: int, gens: list[int]) -> set[int]:
    reached = {identity, *gens}
    frontier = list(reached)
    while frontier:
        new = {int(cayley[r, a]) for r in frontier for a in gens} - reached
        reached |= new
        frontier = list(new)
    return reached


def _greedy(cayley: np.ndarray, identity: int) -> list[int]:
    """The greedy generating set S′ of a table, ascending, which the group
    derived before it read its stored rows: take the smallest element not
    yet reached, then close the reached set under right multiplication by
    the generators so far."""
    gens, reached = [], {identity}
    while len(reached) < len(cayley):
        gens.append(min(set(range(len(cayley))) - reached))
        reached = _closure(cayley, identity, gens)
    return gens


# ---------------------------------------------------------------------------
# generators


def test_stored_generators_generate_torus_bands():
    grp = build_scenario("torus-bands(32)").group
    assert grp.generators == [1, 32] == _greedy(cayley_table(grp), grp.identity)
    assert _closure(cayley_table(grp), grp.identity, grp.generators) == set(range(grp.order))


@pytest.mark.parametrize(
    "spec, gens",
    [("cyclic(8)", [1]), ("dihedral(4)", [1, 4]), ("torus-bands(32)", [1, 32]), ("line-grid(5, dx=0.2)", [1, 25])],
)
def test_group_reads_its_stored_generators(spec, gens):
    # the built-ins store the rows of the greedy set of their tables
    grp = build_scenario(spec).group
    assert grp.generators == gens == grp.left[:, grp.identity].tolist() == _greedy(cayley_table(grp), grp.identity)


def test_a_table_that_is_no_group_keeps_its_stored_generators():
    # r1's stored row with r1 r1 stored as r0: the walk still reaches every
    # element, the group reads the stored r1 and s0, and the greedy set of
    # the table it builds would take r2 as well
    grp = build_scenario("dihedral(4)").group
    left = grp.left.copy()
    left[0, 1] = 0
    broken = FiniteGroup(grp.elements, grp.identity, left)
    assert broken.generators == [1, 4] and _greedy(cayley_table(broken), grp.identity) == [1, 2, 4]
    assert _closure(cayley_table(broken), grp.identity, [1, 2, 4]) == set(range(grp.order))
    assert not validate_group(broken).passed


# ---------------------------------------------------------------------------
# integer laws: seeded corruptions at small size and at |G| = 1024


@pytest.mark.parametrize("seed", SEEDS)
def test_single_stored_row_entry_caught(scn, seed):
    # the group of rows with one entry changed is refused, or validate_group fails it
    grp = scn.group
    n = grp.order
    rng = SplitMix64(seed)
    i, x = rng.integer(len(grp.left)), rng.integer(n)
    left = grp.left.copy()
    left[i, x] = _other(rng, int(left[i, x]), n)
    try:
        corrupt = FiniteGroup(grp.elements, grp.identity, left)
    except StructuralError:
        return
    _assert_constructor_laws(corrupt)
    assert not validate_group(corrupt).passed


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
    # a changed entry leaves the stored λ_s no permutation, which no group
    # table's row can equal: the file fails at load or in validate_group,
    # never passes
    doc = json.loads(scn_text)
    n = scn.group.order
    rng = SplitMix64(seed)
    perms = doc["action"]["group"]["left"]
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
    # s0's stored row with s0 s3 stored as r2, not r1: every unary law still
    # holds, and the commutators of λ_s0 fail at four (s, x, t), the first
    # at x = r3, t = s0
    grp = build_scenario("dihedral(4)").group
    left = grp.left.copy()
    left[1, 7] = 2
    corrupt = FiniteGroup(grp.elements, grp.identity, left)
    assert _failures(validate_group(corrupt)) == [("group-associativity", 4.0, (4, 3, 4))]
    assert _commutators(corrupt) == (4, (4, 3, 4))


def _commutators(group: FiniteGroup, columns: list[int] | None = None) -> tuple[int, tuple[int, int, int] | None]:
    """(count, first (s, x, t)) of λ_s(x t) != λ_s(x) t over the stored
    rows, then x, then t in columns, S by default, one instance at a time;
    s named by λ_s(e)."""
    cay, e = cayley_table(group).tolist(), group.identity
    bad = [
        (lam[e], x, t)
        for lam in group.left.tolist()
        for x in range(group.order)
        for t in (group.generators if columns is None else columns)
        if lam[cay[x][t]] != cay[lam[x]][t]
    ]
    return len(bad), (bad[0] if bad else None)


def _single_entry_corruptions(grp: FiniteGroup):
    """grp's stored rows with one entry changed, for every entry and value."""
    for i, x, v in itertools.product(range(len(grp.left)), range(grp.order), range(grp.order)):
        if v != grp.left[i, x]:
            left = grp.left.copy()
            left[i, x] = v
            yield grp.elements, grp.identity, left


def _random_row_sets(count: int):
    """Seeded row sets on at most 8 points: 0 to 3 rows, each a permutation
    or, half of the time, any map, at a random identity."""
    rng = np.random.default_rng(1974)
    for _ in range(count):
        n, k = int(rng.integers(1, 9)), int(rng.integers(0, 4))
        maps = bool(rng.integers(0, 2))
        left = [rng.integers(0, n, n) if maps else rng.permutation(n) for _ in range(k)]
        yield tuple(map(str, range(n))), int(rng.integers(0, n)), np.reshape(left, (k, n))


# the rows of the dihedral group of order 12 on the hexagon's vertices,
# transitive but not regular
HEXAGON = (tuple(f"v{i}" for i in range(6)), 0, [(np.arange(6) + 1) % 6, -np.arange(6) % 6])
# dihedral(4) stored as [s0, r1, r1^2]: out of greedy order, and redundant
D4_REORDERED = (dihedral_group(4).elements, 0, cayley_table(dihedral_group(4))[[4, 1, 2]])

ROW_CASES = {
    "cyclic(6)": lambda: _single_entry_corruptions(cyclic_group(6)),
    "dihedral(3)": lambda: _single_entry_corruptions(dihedral_group(3)),
    "dihedral(4)": lambda: _single_entry_corruptions(dihedral_group(4)),
    "Z2xZ3": lambda: _single_entry_corruptions(direct_product(cyclic_group(2), cyclic_group(3))),
    "random": lambda: _random_row_sets(6000),
    "cyclic(1)": lambda: [(("r0",), 0, [])],
    "hexagon": lambda: [HEXAGON],
    "dihedral(4) [s0, r1, r1^2]": lambda: [D4_REORDERED, *_single_entry_corruptions(FiniteGroup(*D4_REORDERED))],
}
# case -> (loadable row sets, those whose table is associative with a stored
# row not its own, those whose stored generators S are not the greedy S′)
ROW_CASE_COUNTS = {
    "cyclic(6)": (0, 0, 0),
    "dihedral(3)": (35, 0, 10),
    "dihedral(4)": (65, 0, 18),
    "Z2xZ3": (30, 0, 9),
    "random": (2291, 105, 1962),
    "cyclic(1)": (1, 0, 0),
    "hexagon": (1, 0, 1),
    "dihedral(4) [s0, r1, r1^2]": (110, 0, 110),
}
# case -> how many loadable row sets fail group-inverse-left and group-associativity
ROW_CASE_FAILURES = {
    "cyclic(6)": (0, 0),
    "dihedral(3)": (18, 35),
    "dihedral(4)": (28, 65),
    "Z2xZ3": (15, 30),
    "random": (945, 1141),
    "cyclic(1)": (0, 0),
    "hexagon": (1, 1),
    "dihedral(4) [s0, r1, r1^2]": (38, 109),
}


def _loadable(case: str):
    """The groups of the case's row sets that FiniteGroup accepts."""
    for elements, identity, left in ROW_CASES[case]():
        try:
            yield FiniteGroup(elements, identity, left)
        except StructuralError:
            pass


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_associativity_residual_against_brute_force_and_the_previous_residual(case):
    # N, the commutator count over S × S, is 0 exactly when every triple
    # associates and every stored row is the table's row at λ_s(e); so is
    # N′, the previous count over S × S′, S′ the greedy set of the table, so
    # N <= |S|^2 |G| [N′ > 0] and N′ <= |S| |S′| |G| [N > 0]; and where S is
    # S′ as a list the two are one scan, witness and all
    loadable = foreign = moved = 0
    for grp in _loadable(case):
        loadable += 1
        n, cay, gens, identity = grp.order, cayley_table(grp), grp.generators, grp.identity
        check = {c.name: c for c in validate_group(grp).checks}["group-associativity"]
        N = check.residual
        associative = not (cay[cay] != cay[np.arange(n)[:, None, None], cay]).any()
        own = all(np.array_equal(lam, cay[lam[identity]]) for lam in grp.left)
        assert (N == 0) == (associative and own)
        assert (N, check.witness) == _commutators(grp)
        greedy = _greedy(cay, identity)
        N_prev, witness = _commutators(grp, greedy)
        assert N <= len(gens) ** 2 * n * (N_prev > 0) and N_prev <= len(gens) * len(greedy) * n * (N > 0)
        if gens == greedy:
            assert (N, check.witness) == (N_prev, witness)
        foreign += associative and not own
        moved += gens != greedy
    assert (loadable, foreign, moved) == ROW_CASE_COUNTS[case]


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_the_constructor_guarantees_three_group_checks(case):
    # on every loadable row set the identity laws and the right inverse law
    # hold, so no report row checks them, and associativity is left to
    # validate_group.  The left inverse law, a retired row, fails only where
    # associativity fails too: an associative table with a two-sided
    # identity and right inverses is a group
    failed = collections.Counter()
    for grp in _loadable(case):
        _assert_constructor_laws(grp)
        failed.update(c.name for c in validate_group(grp).checks if not c.passed)
        failed.update(c.name.rsplit(".", 1)[1] for c in _report(RETIRED_STRUCTURAL, _Inputs(group=grp), 0.0, 0.0).checks if not c.passed)
        assert retired_alone({"group": grp}) == []
    assert failed.keys() <= {"group-inverse-left", "group-associativity"}
    assert (failed["group-inverse-left"], failed["group-associativity"]) == ROW_CASE_FAILURES[case]


def test_associativity_matches_the_instance_loop_on_random_row_corruptions():
    # |G| = 256: a witness far into the scan keeps its row-major position
    grp = build_scenario("torus-bands(16)").group
    rng = np.random.default_rng(31)
    witnesses = set()
    for i, x, v in zip(rng.integers(0, 2, 60), rng.integers(0, grp.order, 60), rng.integers(0, grp.order, 60)):
        left = grp.left.copy()
        left[i, x] = v
        try:
            corrupt = FiniteGroup(grp.elements, grp.identity, left)
        except StructuralError:
            continue
        _assert_constructor_laws(corrupt)
        check = validate_group(corrupt).checks[-1]
        assert check.name == "group-associativity"
        assert (check.residual, check.witness) == _commutators(corrupt)
        witnesses.add(check.witness)
    assert len(witnesses) > 10


def test_associativity_needs_the_commutators():
    # the dihedral group of order 12 acting on the hexagon's 6 vertices is
    # transitive but not regular: the table built from its rows keeps every
    # row a product of them and both identity laws, and only the
    # commutators fail.  The reflection's row fixes v0, so S = [1, 0], whose
    # column at 0 is the identity; over the greedy S′ = [1, 5] the count was 8
    grp = FiniteGroup(*HEXAGON)
    checks = {c.name: c for c in validate_group(grp).checks}
    _assert_constructor_laws(grp)
    assert grp.generators == [1, 0] and _greedy(cayley_table(grp), grp.identity) == [1, 5]
    assert (checks["group-associativity"].residual, checks["group-associativity"].witness) == (4, (1, 3, 1)) == _commutators(grp)
    assert _commutators(grp, [1, 5]) == (8, (1, 3, 1))


def _per_row_table(n: int, identity: int, left: list[np.ndarray], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The group's walk with numpy lookups and one gathered row per
    element, and the action table that rows, one per generator, give."""
    cayley = np.empty((n, n), dtype=INDEX_DTYPE)
    cayley[identity] = np.arange(n)
    table = np.empty((n, rows.shape[1]), dtype=INDEX_DTYPE)
    table[identity] = np.arange(rows.shape[1])
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    tree = [identity]
    for p in tree:
        for lam, row in zip(left, rows):
            y = int(lam[p])
            if not reached[y]:
                reached[y] = True
                cayley[y] = lam[cayley[p]]
                table[y] = row[table[p]]
                tree.append(y)
    if not reached.all():
        raise StructuralError(
            f"element {int(reached.argmin())} is not reached from the identity"
            " by left multiplication by the generators"
        )
    return cayley, table


def test_the_walk_and_the_action_rebuild_match_the_per_row_walk_on_random_permutations():
    # and so does the action table rebuilt along the walk from rows of any entries in range
    rng = np.random.default_rng(17)
    outcomes = collections.Counter()
    for _ in range(300):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        left = [rng.permutation(n) for _ in range(int(rng.integers(0, 4)))]
        rows = rng.integers(0, m, (len(left), m))
        identity = int(rng.integers(0, n))
        labels = tuple(map(str, range(n)))
        try:
            expected = _per_row_table(n, identity, left, rows)
        except StructuralError as err:
            with pytest.raises(StructuralError) as got:
                FiniteGroup(labels, identity, np.reshape(left, (len(left), n)))
            assert str(got.value) == str(err)
            outcomes["unreached"] += 1
        else:
            grp = FiniteGroup(labels, identity, np.reshape(left, (len(left), n)))
            for got, want in zip((cayley_table(grp), action_table(grp, rows)), expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)
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
    with pytest.raises(DomainError, match="g=4"):
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
    # operator matrix decides, so the retired Mackey row never fails alone;
    # a pair of opposite bumps at (h, b), (h', b) with h.b = h'.b leaves T,
    # so both pass off the faint constraint
    scn = build_scenario(spec)
    filt, table = scn.filt, scn.action.table

    def decided(mats):
        bad = Filter(scn.input_bundle, scn.output_bundle, mats)
        assert retired_alone(scenario_fields(_replaced(scn, filt=bad))) == []
        mackey = mackey_preserved(bad, scn.mu)[0] <= 1e-12
        op = filter_operator(bad, scn.mu)
        equivariant = operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)[0] <= 1e-12
        return validate_filter(bad).passed, mackey, equivariant

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
    return float(np.abs(A[cayley_table(grp)[g, h], b] - A[g, table[h, b]] @ A[h, b]).max())


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


# ---------------------------------------------------------------------------
# the retired report rows: no exit status moves


def _replaced(scn: Scenario, **fields) -> Scenario:
    return Scenario(**(vars(scn) | fields))


def _rebundled(scn: Scenario, bundle: EquivariantBundle) -> Scenario:
    """scn with its input bundle replaced, and its filter and kernel read on it."""
    out = scn.output_bundle
    return _replaced(
        scn,
        input_bundle=bundle,
        filt=Filter(bundle, out, scn.filt.matrices),
        kernel=Kernel(bundle, out, scn.kernel.matrices),
    )


# table -> the scenario with the table replaced by bump(table), as the
# float-law tests above corrupt it
CORRUPTED_SCENARIOS = {
    "filter": lambda s, bump: _replaced(s, filt=Filter(s.input_bundle, s.output_bundle, bump(s.filt.matrices))),
    "kernel": lambda s, bump: _replaced(s, kernel=Kernel(s.input_bundle, s.output_bundle, bump(s.kernel.matrices))),
    "psi": lambda s, bump: _replaced(s, psi=PsiFunction(s.action, bump(s.psi.values))),
    "delta": lambda s, bump: _replaced(s, delta=DeltaFunction(s.action, bump(s.delta.values, fixes(s.action)))),
    "mu": lambda s, bump: _replaced(s, mu=GroupMeasureFamily(s.action, bump(s.mu.weights), s.mu.haar)),
    "nu": lambda s, bump: _replaced(s, nu=StabilizerMeasureFamily(s.action, bump(s.nu.weights))),
    "mubar": lambda s, bump: _replaced(s, mubar=OrbitMeasureFamily(s.action, bump(s.mubar.weights))),
    "act_matrix": lambda s, bump: _rebundled(
        s, EquivariantBundle(s.action, s.input_bundle.fiber_dim, bump(s.input_bundle.act_matrix))
    ),
}


@pytest.mark.parametrize("table", sorted(CORRUPTED_SCENARIOS))
def test_no_retired_row_fails_alone_on_a_corrupted_table(bands32, d4, table):
    # the seeded corruptions of the float-law tests, each in its whole
    # scenario: a bump of 1 at |G| = 1024, and a NaN in dihedral(4, bundle=sign)
    corrupt = CORRUPTED_SCENARIOS[table]
    for seed, (scn, by) in itertools.product(SEEDS, ((bands32, 1.0), (d4, np.nan))):
        bad = corrupt(scn, partial(_bump_one, SplitMix64(seed), by=by))
        assert retired_alone(scenario_fields(bad)) == [], (seed, by)
