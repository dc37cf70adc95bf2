from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicorr import groups
from equicorr.errors import DegenerateMeasureError, DomainError, StructuralError
from equicorr.groups import (
    INDEX_DTYPE,
    FiniteGroup,
    GroupAction,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_tables,
    orbits,
    pair_stabilizer,
    stabilizer,
    validate_action,
    validate_group,
)
from equicorr.measures import (
    construct_normalized_families,
    counting_family,
    counting_stabilizer_family,
    psi_indicator_identity,
    solve_orbit_measure,
    validate_families,
    validate_psi,
)
from equicorr.scenarios import build_scenario, cyclic_action, dihedral_vertex_action, torus_action
from equicorr.serialize import load_document, save_document, scenario_from_dict, scenario_to_dict

from helpers import conjugate, counting_orbit_family, mul, traced_peak
from test_stacked import BUILTINS
from test_streaming import two_orbit_filter


def brute_force_associative(cayley: np.ndarray) -> bool:
    n = cayley.shape[0]
    return all(
        cayley[cayley[g, h], k] == cayley[g, cayley[h, k]]
        for g in range(n)
        for h in range(n)
        for k in range(n)
    )


def test_cyclic_structure():
    grp = cyclic_group(6)
    assert grp.order == 6
    assert grp.identity == 0
    assert mul(grp, 2, 5) == 1
    assert grp.inv[4] == 2
    assert brute_force_associative(grp.cayley)
    assert validate_group(grp).passed


def test_dihedral_structure():
    grp = dihedral_group(4)
    assert grp.order == 8
    # rotation composition: r1 r1 = r2
    assert mul(grp, 1, 1) == 2
    # reflection is an involution
    for g in range(4, 8):
        assert mul(grp, g, g) == 0
    # s r = r^-1 s: conjugating a rotation by the base reflection inverts it
    assert conjugate(grp, 4, 1) == 3
    assert brute_force_associative(grp.cayley)
    assert validate_group(grp).passed


def test_validate_group_allocates_no_table_sized_temporary():
    grp = build_scenario("torus-bands(32)").group
    report, peak = traced_peak(lambda: validate_group(grp))
    assert report.passed
    assert peak < grp.cayley.nbytes / 8


def test_float_table_refuses_a_bool_in_a_list():
    assert groups._float_table([[0.5, 2]], "t", (1, 2)).tolist() == [[0.5, 2.0]]
    with pytest.raises(StructuralError, match="^t holds a JSON true or false, not a number$"):
        groups._float_table([[0.5, True]], "t", (1, 2))
    with pytest.raises(StructuralError, match=r"^t shape \(1, 2\), expected \(2, 1\)$"):  # the shape is checked first
        groups._float_table([[0.5, True]], "t", (2, 1))
    assert groups._float_table(np.ones((1, 2), dtype=bool), "t", (1, 2)).tolist() == [[1.0, 1.0]]  # an array is cast


def test_direct_product_packing():
    a, b = cyclic_group(3), cyclic_group(4)
    prod = direct_product(a, b)
    assert prod.order == 12
    # first factor cycles fastest: (i, j) -> j * |A| + i
    for i in range(3):
        for j in range(4):
            x = j * 3 + i
            y = 1 * 3 + 2  # (2, 1)
            expect = ((j + 1) % 4) * 3 + (i + 2) % 3
            assert mul(prod, x, y) == expect
    assert validate_group(prod).passed


def _dihedral_map(n: int, g: int):
    """Element g of dihedral_group(n) as a map on Z_n: v -> v+i or v -> i-v."""
    i = g % n
    return (lambda v: (v + i) % n) if g < n else (lambda v: (i - v) % n)


@pytest.mark.parametrize("n", range(1, 7))
def test_dihedral_table_is_composition_of_maps(n):
    grp = dihedral_group(n)
    vs = range(n)
    # an element is its map on Z_n, except for n <= 2, where maps coincide
    for a in range(2 * n):
        fa = _dihedral_map(n, a)
        for b in range(2 * n):
            fb = _dihedral_map(n, b)
            ab = int(grp.cayley[a, b])
            assert [_dihedral_map(n, ab)(v) for v in vs] == [fa(fb(v)) for v in vs]
            assert (ab >= n) == ((a >= n) != (b >= n))
    assert [mul(grp, g, grp.inv[g]) for g in range(2 * n)] == [0] * (2 * n)


def test_direct_product_of_dihedral_and_cyclic_componentwise():
    a, b = dihedral_group(3), cyclic_group(4)
    prod = direct_product(a, b)
    assert prod.order == 24 and prod.identity == 0
    for x in range(24):
        assert prod.elements[x] == f"({a.elements[x % 6]},{b.elements[x // 6]})"
        assert prod.inv[x] == b.inv[x // 6] * 6 + a.inv[x % 6]
        for y in range(24):
            expect = mul(b, x // 6, y // 6) * 6 + mul(a, x % 6, y % 6)
            assert mul(prod, x, y) == expect
    assert validate_group(prod).passed


def test_group_from_tables_rejects_broken():
    cayley = cyclic_group(3).cayley.copy()
    cayley[1, 1] = 1  # no longer a latin square row
    with pytest.raises(StructuralError):
        grp = group_from_tables(("e", "a", "b"), cayley, 0)
        rep = validate_group(grp)
        if not rep.passed:
            raise StructuralError("axioms fail")


def test_group_from_tables_takes_first_inverse():
    shifted = cyclic_group(3).cayley[[1, 2, 0]]  # the identity row is row 2
    grp = group_from_tables(("a", "b", "c"), shifted, 2)
    assert grp.identity == 2 and grp.inv.tolist() == [1, 0, 2]
    cayley = cyclic_group(4).cayley.copy()
    cayley[2] = [2, 3, 0, 0]  # two right inverses: the first one wins
    assert group_from_tables(tuple("abcd"), cayley, 0).inv.tolist() == [0, 3, 2, 1]
    cayley[1, 3] = cayley[3, 1] = 1  # rows 1 and 3 never reach the identity
    with pytest.raises(StructuralError, match="^element 1 has no right inverse$"):
        group_from_tables(tuple("abcd"), cayley, 0)


def test_group_from_tables_in_row_blocks_of_one(monkeypatch):
    # the same first inverses and errors, one row at a time
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", 1)
    test_group_from_tables_takes_first_inverse()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_cyclic_always_valid(n):
    assert validate_group(cyclic_group(n)).passed


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_dihedral_always_valid(n):
    grp = dihedral_group(n)
    assert validate_group(grp).passed
    assert validate_action(dihedral_vertex_action(n)).passed


def test_dihedral_vertex_action_table():
    action = dihedral_vertex_action(4)
    assert validate_action(action).passed
    # rotation r1 sends vertex v to v+1, reflection s0 sends v to -v
    assert action.table[1, 0] == 1
    assert action.table[4, 1] == 3
    assert action.table[4, 0] == 0


def test_orbits_and_stabilizers_dihedral():
    action = dihedral_vertex_action(4)
    os_ = orbits(action)
    assert len(os_) == 1 and list(os_[0]) == [0, 1, 2, 3]
    st0 = stabilizer(action, 0)
    # brute force: elements fixing vertex 0
    expect = [g for g in range(8) if action.table[g, 0] == 0]
    assert list(st0) == expect == [0, 4]
    assert action.domain == (0,)


def loop_orbits(action: GroupAction) -> list[tuple[int, list[int]]]:
    """(smallest member, members) of each orbit: walk the base points in
    ascending order and open an orbit at each one no earlier orbit holds."""
    seen: set[int] = set()
    out = []
    for b in range(action.base_size):
        if b not in seen:
            members = sorted({int(c) for c in action.table[:, b]})
            seen.update(members)
            out.append((b, members))
    return out


def three_orbit_action() -> GroupAction:
    """Z_3 on seven points by the permutation (0 4 2)(3 6 5), fixing 1."""
    p = np.array([4, 1, 0, 6, 2, 3, 5])
    return GroupAction(cyclic_group(3), tuple("abcdefg"), np.stack([np.arange(7), p, p[p]]))


def case_action(case: str) -> GroupAction:
    if case == "two-orbit":
        return two_orbit_filter()[0].action
    if case == "three-orbit":
        return three_orbit_action()
    return build_scenario(case).action


@pytest.mark.parametrize("case", BUILTINS + ["two-orbit", "three-orbit"])
def test_derived_fundamental_domain_matches_the_orbit_walk(case):
    action = case_action(case)
    expect = loop_orbits(action)
    assert [(int(o[0]), list(o)) for o in orbits(action)] == expect
    assert list(action.domain) == [b for b, _ in expect]
    assert {"two-orbit": [0, 4], "three-orbit": [0, 1, 3]}.get(case, [0]) == list(action.domain)


@pytest.mark.parametrize("case", BUILTINS + ["two-orbit", "three-orbit"])
def test_derived_stabilizers_match_brute_force(case):
    action = case_action(case)
    table, m = action.table, action.base_size
    assert len(action.stabilizers) == m
    for b, stab in enumerate(action.stabilizers):
        assert stab.tolist() == np.flatnonzero(table[:, b] == b).tolist()
        assert stabilizer(action, b) is stab
        for c in range(m):
            fixes_both = (table[:, b] == b) & (table[:, c] == c)
            assert pair_stabilizer(action, c, b).tolist() == np.flatnonzero(fixes_both).tolist()
    members = [o.tolist() for o in orbits(action)]
    assert sum(map(len, members)) == m
    assert members == [sorted(set(table[:, b].tolist())) for b in action.domain]
    # orbit-stabilizer: Σ_b |Stab(b)| = k |G| for k orbits
    assert sum(map(len, action.stabilizers)) == len(members) * action.group.order


def test_derived_stabilizers_are_read_only():
    action = three_orbit_action()
    for stab in action.stabilizers:
        with pytest.raises(ValueError):
            stab[0] = 1


@pytest.mark.parametrize("case", ["dihedral", "three-orbit"])
def test_coset_of_the_stabilizer_is_the_elements_carrying_b_to_each_member(case):
    action = dihedral_vertex_action(5) if case == "dihedral" else three_orbit_action()
    for b in range(action.base_size):
        stab = action.stabilizers[b]
        for c in np.flatnonzero(action.coset_reps[b] >= 0):
            row = action.group.cayley[action.coset_reps[b, c], stab]
            assert sorted(row.tolist()) == [g for g in range(action.group.order) if action.table[g, b] == c]
            assert row[np.flatnonzero(stab == action.group.identity)[0]] == action.coset_reps[b, c]


def test_an_empty_stabilizer_reads_through_the_api():
    # cyclic(4) with the identity row broken at b=1: no element fixes 1
    action = cyclic_action(4)
    table = action.table.copy()
    table[0, 1] = 2
    action = GroupAction(action.group, action.base, table)
    assert stabilizer(action, 1).size == 0 and pair_stabilizer(action, 3, 1).size == 0
    nu = counting_stabilizer_family(action)
    assert nu.weights.tolist() == [1.0] * 4  # the weight of each element of G_b: none at b=1
    mu = counting_family(action)
    with pytest.raises(DegenerateMeasureError, match="stabilizer weights at b=1 must be strictly positive"):
        solve_orbit_measure(mu, nu, 1)
    checks = {c.name: c for c in validate_families(mu, nu, counting_orbit_family(action)).checks}
    assert checks["family-nu-conjugation"].residual == 0.0
    psi = psi_indicator_identity(action)
    check = next(c for c in validate_psi(psi).checks if c.name == "psi-stabilizer-nonvanishing")
    assert (check.residual, check.witness) == (1.0, (1,))
    with pytest.raises(DegenerateMeasureError, match="psi has no mass on the stabilizer of b=1"):
        construct_normalized_families(psi)


def test_pair_stabilizer_matches_brute_force():
    action = dihedral_vertex_action(4)
    for c in range(4):
        for b in range(4):
            ps = pair_stabilizer(action, c, b)
            expect = [g for g in range(8) if action.table[g, c] == c and action.table[g, b] == b]
            assert list(ps) == expect


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(8)",
        "dihedral(4)",
        "dihedral(5)",
        "torus(6)",
        "torus-bands(16)",
        "circle-grid(16)",
        "line-grid(5, dx=0.2)",
    ],
)
def test_coset_reps_are_smallest_movers(spec):
    action = build_scenario(spec).action
    n, m = action.group.order, action.base_size
    brute = [[min((k for k in range(n) if action.table[k, b] == c), default=-1) for c in range(m)] for b in range(m)]
    assert action.coset_reps.tolist() == brute


def test_torus_action_stabilizer():
    action = torus_action(8, 1, 8)
    assert validate_action(action).passed
    st0 = stabilizer(action, 0)
    # (g1, g2) fixes b=0 iff g1 + g2 = 0, i.e. elements ((-k) % 8, k)
    got = sorted(int(g) for g in st0)
    assert got == sorted((k * 8) + ((-k) % 8) for k in range(8))
    assert got == sorted(g for g in range(64) if action.table[g, 0] == 0)


def test_scaled_torus_action_valid_any_spacing():
    for s in (1, 2, 3, 4):
        action = torus_action(8, s, 8)
        assert validate_action(action).passed
        assert len(stabilizer(action, 0)) == 8


def test_orbit_sorted_members():
    action = torus_action(5, 1, 5)
    assert [o.tolist() for o in orbits(action)] == [[0, 1, 2, 3, 4]]


def test_action_rejects_out_of_range():
    grp = cyclic_group(3)
    table = np.array([[0, 1], [1, 2], [2, 0]])
    table[2, 1] = 7
    with pytest.raises((StructuralError, DomainError)):
        GroupAction(grp, ("x", "y"), table)


# int64 entries past INDEX_DTYPE (int16) and past int32: 2^16 and 2^32
# narrow to 0, the true entry at [1, 3] of a table and [0] of the inverses,
# so a cast before the range check would pass a corrupted table as the valid
# one; n + 2^16 and n + 2^32 narrow to n
WRAPPING = [2**16, 4 + 2**16, 2**32, 4 + 2**32]


@pytest.mark.parametrize("value", WRAPPING)
def test_group_entry_past_index_dtype_is_refused(value):
    cayley, inv = cyclic_group(4).cayley.astype(np.int64), cyclic_group(4).inv.astype(np.int64)
    labels = tuple("abcd")
    bad = cayley.copy()
    bad[1, 3] = value  # 1 + 3 = 0 mod 4
    with pytest.raises(StructuralError):
        FiniteGroup(labels, bad, inv, 0)
    # at [1, 3], row 1's only identity, the inverse search would fail first;
    # at [1, 2] row 1 keeps its inverse, so the range check is what refuses
    bad = cayley.copy()
    bad[1, 2] = value
    with pytest.raises(StructuralError, match="cayley table entry out of range"):
        group_from_tables(labels, bad, 0)
    bad = inv.copy()
    bad[0] = value  # the identity is its own inverse
    with pytest.raises(StructuralError):
        FiniteGroup(labels, cayley, bad, 0)


@pytest.mark.parametrize("value", WRAPPING)
def test_action_entry_past_index_dtype_is_refused(value):
    grp = cyclic_group(4)
    table = grp.cayley.astype(np.int64)
    table[1, 3] = value
    with pytest.raises(StructuralError):
        GroupAction(grp, tuple("wxyz"), table)


@pytest.mark.parametrize("spec", BUILTINS)
def test_index_tables_are_index_dtype_built_and_loaded(spec, tmp_path):
    scn = build_scenario(spec)
    path = tmp_path / "scenario.json"
    save_document(str(path), scenario_to_dict(scn))
    assert INDEX_DTYPE is np.int16  # half the bytes of int32; every index product is formed in intp
    for loaded in (scn, scenario_from_dict(load_document(str(path)))):
        action = loaded.action
        tables = [action.group.cayley, action.group.inv, action.table, action.coset_reps]
        tables += [theta.reps for theta in loaded.thetas.values()]
        assert [t.dtype for t in tables] == [np.dtype(INDEX_DTYPE)] * len(tables)
