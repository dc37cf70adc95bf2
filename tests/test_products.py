"""Every product the package forms, against the dense reference table.

A group keeps no Cayley table: FiniteGroup.rows and FiniteGroup.columns
compose what a scan reads along the walk, and inv and the columns at S
(right) come from one pass over its rows.  Each of them, and what the
orbit-slice laws read of an action's conjugation table, is checked bit
for bit against helpers.cayley_table, the table the walk defines, on the
14 specs of scenario-sha256.json, every loadable row set of
test_mutations.ROW_CASES (non-permutation rows included), D4_REORDERED
and S4 acting on 4 ⊔ 2 points.  Each reader that forms products is run
twice, as it is and with rows and columns read off the reference table,
and must give the same bytes: its residual and witness, or the table it
builds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from equicorr.battery import run_battery
from equicorr.bundles import _cocycle, _move_back, _movers, representation_bundle, section_to_mackey, trivial_bundle
from equicorr.errors import StructuralError
from equicorr.groups import INDEX_DTYPE, FiniteGroup, GroupAction, _action_compatibility, _associativity, _frontier
from equicorr.measures import counting_stabilizer_family, dirac_delta
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections, random_valid_kernel
from equicorr.scenarios import build_scenario
from equicorr.serialize import dumps, report_to_dict
from equicorr.transforms import ThetaMap, _theta_translation, lift_kernel_to_filter
from equicorr.xcorr import _faint_constraint, cross_correlate

from helpers import cayley_table, permutation_representation, s4_on_four_and_two
from test_mutations import D4_REORDERED, ROW_CASES, _per_row_table

SPECS = sorted(json.loads((Path(__file__).parent / "golden" / "scenario-sha256.json").read_text()))


def _from_reference(monkeypatch):
    """Make every group hand out rows and columns read off its reference
    table, and every action derive its conjugation table from them anew."""
    monkeypatch.setattr(FiniteGroup, "rows", lambda grp, at: cayley_table(grp)[np.asarray(at, dtype=np.intp)])
    monkeypatch.setattr(FiniteGroup, "columns", lambda grp, at: cayley_table(grp)[:, np.asarray(at, dtype=np.intp)])
    monkeypatch.setattr(GroupAction, "conjugation", property(GroupAction.conjugation.func))


def _bytes(found):
    """A comparable form of what a reader returns: bytes of arrays, hex of floats."""
    if isinstance(found, np.ndarray):
        return found.dtype.str, found.shape, found.tobytes()
    if isinstance(found, (tuple, list)):
        return tuple(_bytes(part) for part in found)
    if isinstance(found, float):
        return found.hex()
    if hasattr(found, "checks"):
        return dumps(report_to_dict(found))
    if hasattr(found, "values"):  # a section
        return _bytes(found.values)
    if hasattr(found, "matrices"):  # a filter
        return _bytes(found.matrices)
    return found


def _same_both_ways(monkeypatch, read) -> None:
    """read() as it is equals read() with rows and columns off the reference table."""
    found = _bytes(read())
    with monkeypatch.context() as patched:
        _from_reference(patched)
        assert found == _bytes(read())


def _point(grp: FiniteGroup) -> GroupAction:
    """grp acting on one point: an action whose laws read the group's products alone."""
    return GroupAction(grp, ("*",), np.zeros((grp.order, 1), dtype=int))


def _assert_products(grp: FiniteGroup) -> None:
    """inv, right, rows and columns equal the reference's, and so do the
    conjugates the one-point action carries."""
    table, n = cayley_table(grp), grp.order
    hits = table == grp.identity
    assert hits.any(axis=1).all() and np.array_equal(grp.inv, hits.argmax(axis=1)) and grp.inv.dtype == INDEX_DTYPE
    assert np.array_equal(grp.right, table[:, grp.generators]) and grp.right.dtype == INDEX_DTYPE
    every = np.arange(n)
    rng = np.random.default_rng(n)
    for at in (every, every[::-1], rng.integers(0, n, 2 * n), every[:0], [grp.identity]):  # repeats, none, e alone
        rows, columns = grp.rows(at), grp.columns(at)
        assert rows.dtype == columns.dtype == INDEX_DTYPE
        assert np.array_equal(rows, table[np.asarray(at, dtype=np.intp)])
        assert np.array_equal(columns, table[:, np.asarray(at, dtype=np.intp)])
    _assert_carried(_point(grp))  # the one point's stabilizer is G


def _assert_carried(action: GroupAction) -> None:
    """What the orbit-slice laws read of the action's conjugation table, at
    every element they carry: g^-1 x (g^-1)^-1, with g^-1 read from inv."""
    table, inv = cayley_table(action.group), action.group.inv
    carried = [action.stabilizers[b0] for b0 in action.domain] + [_movers(action, b0) for b0 in action.domain]
    g = np.concatenate(carried).astype(np.intp)
    assert np.array_equal(_move_back(action, True, g), table[table[inv[g]], inv[inv[g]][:, None]])


def _assert_group_readers(grp: FiniteGroup, monkeypatch) -> None:
    _assert_products(grp)
    _same_both_ways(monkeypatch, lambda: _associativity(grp))
    _same_both_ways(monkeypatch, lambda: _action_compatibility(_point(grp)))


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_row_sets_give_the_reference_products(case, monkeypatch):
    # and a row set refused for a missing right inverse names the smallest
    # element whose reference row lacks the identity
    loaded = refused = 0
    for elements, identity, left in ROW_CASES[case]():
        n = len(elements)
        try:
            reference, _ = _per_row_table(n, identity, list(np.reshape(left, (-1, n))), np.zeros((len(left), 1), dtype=int))
        except StructuralError:
            continue  # an unreached element, refused by the walk
        lacking = np.flatnonzero(~(reference == identity).any(axis=1))
        try:
            grp = FiniteGroup(elements, identity, left)
        except StructuralError as err:
            assert lacking.size and str(err) == f"element {lacking[0]} has no right inverse"
            refused += 1
            continue
        assert lacking.size == 0 and np.array_equal(cayley_table(grp), reference)
        _assert_group_readers(grp, monkeypatch)
        loaded += 1
    assert loaded > 0 or case == "cyclic(6)"


def test_reordered_d4_gives_the_reference_products(monkeypatch):
    _assert_group_readers(FiniteGroup(*D4_REORDERED), monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_builtins_give_the_reference_products(spec, monkeypatch):
    scn = build_scenario(spec)
    _assert_group_readers(scn.group, monkeypatch)
    _assert_carried(scn.action)
    _same_both_ways(monkeypatch, lambda: _action_compatibility(scn.action))
    _same_both_ways(monkeypatch, lambda: run_battery(scn))  # the cocycle, orbit-slice, theta and lift laws
    for theta in scn.thetas.values() if scn.kernel is not None and scn.delta is not None else ():
        _same_both_ways(monkeypatch, lambda: lift_kernel_to_filter(scn.kernel, theta, scn.delta))
    if scn.filt is not None:
        m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(3), 1)[0])
        _same_both_ways(monkeypatch, lambda: cross_correlate(scn.filt, m, scn.mu))


@pytest.mark.parametrize("bundle", ["trivial", "permutation"])
def test_s4_on_four_and_two_gives_the_reference_products(bundle, monkeypatch):
    # where no theta meets the translation law: its witness, and the Dirac
    # lift along the coset representatives, which is not faint
    action = s4_on_four_and_two()
    _assert_group_readers(action.group, monkeypatch)
    _assert_carried(action)
    _same_both_ways(monkeypatch, lambda: _action_compatibility(action))
    rep = {"trivial": trivial_bundle(action), "permutation": representation_bundle(action, permutation_representation(action))}
    kern = random_valid_kernel(rep[bundle], rep[bundle], SplitMix64(46))
    theta = ThetaMap(action, action.coset_reps.T)
    _same_both_ways(monkeypatch, lambda: _cocycle(rep[bundle]))
    assert _theta_translation(theta, kern)[0] > 0
    _same_both_ways(monkeypatch, lambda: _theta_translation(theta, kern))
    lift = lift_kernel_to_filter(kern, theta, dirac_delta(counting_stabilizer_family(action)))
    assert _faint_constraint(lift)[0] > 0
    _same_both_ways(monkeypatch, lambda: lift_kernel_to_filter(kern, theta, dirac_delta(counting_stabilizer_family(action))))
    _same_both_ways(monkeypatch, lambda: _faint_constraint(lift))


def test_a_deep_walk_composes_each_row_once(monkeypatch):
    # rows at a set of elements is one pass over their ancestors, whatever
    # the set: on cyclic(512), whose walk is one path, every row of the
    # table is composed once, not once per element asked for, and rows at
    # the shallow elements alone compose no deeper row
    grp = build_scenario("cyclic(512)").group
    composed = []
    real = FiniteGroup._composed

    def counting(group, *args):
        for y, row in real(group, *args):
            composed.append(y)
            yield y, row

    monkeypatch.setattr(FiniteGroup, "_composed", counting)
    at = np.arange(grp.order)[::-1]
    assert np.array_equal(grp.rows(at), cayley_table(grp)[at])
    assert sorted(composed) == list(range(grp.order))
    composed.clear()
    assert np.array_equal(grp.rows([3, 1, 3]), cayley_table(grp)[[3, 1, 3]])
    assert composed == [0, 1, 2, 3]


def _most_held(grp: FiniteGroup) -> int:
    """The most rows _composed holds at once on the whole walk, the row it
    composes included, counted edge by edge: a row is held while some of
    its children are still to be composed."""
    pending = np.bincount(grp.walk[:, 1], minlength=grp.order).tolist()
    held, most = {grp.identity}, 1
    for y, p, _ in grp.walk.tolist():
        most = max(most, len(held) + 1)
        pending[p] -= 1
        held -= set() if pending[p] else {p}
        held |= {y} if pending[y] else set()
    return most


def test_the_budgeted_frontier_is_the_most_rows_the_walk_holds():
    # the constructor budgets the rows its pass over the table holds at once
    # before it composes any: one pass over the walk's runs of children.
    # Z2^2 x Z3^4 by its six rows x -> x + e_i has a walk of wide levels
    shape = (2, 2, 3, 3, 3, 3)
    index = np.arange(np.prod(shape)).reshape(shape)
    wide = FiniteGroup(tuple(map(str, range(index.size))), 0, [np.roll(index, -1, axis).ravel() for axis in range(6)])
    groups = [build_scenario(spec).group for spec in SPECS] + [FiniteGroup(*D4_REORDERED), s4_on_four_and_two().group, wide]
    for grp in groups:
        assert _frontier(grp.walk) == _most_held(grp)
    assert _most_held(wide) > 40
