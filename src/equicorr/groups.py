"""Finite groups and their actions on finite base sets.

Groups are explicit Cayley tables over dense 0-based element indices;
actions are explicit (group x base) tables.  Everything downstream indexes
into these tables, so element order is part of a group's identity: two
groups with the same multiplication but different element order are
different objects here.

A group is defined by the left multiplications λ_s of a generating set S,
the rows a scenario file stores: FiniteGroup(elements, identity, left)
derives its Cayley table by one breadth-first walk of λ_S from the
identity (Cayley's theorem) and its inverses, once, at construction.  S,
the elements s = λ_s(e) in stored order, is the group's one generating
set: every generator-based check reads it, and nothing derives another
from the table.  An action stored by its rows at S is rebuilt along the
same walk (action_table).

Likewise each action derives its coset representatives once: the section
k_c of the orbit map k -> k.b that takes the smallest k with k.b = c.
Projection, disintegration, the orbit-slice laws and every built-in
scenario's theta all read this one table.  Its fundamental domain, the smallest base index of
each orbit, and the stabilizer Stab(b) of each base point are derived in
the same pass: b is a domain point exactly when no c < b lies in its
orbit.  By the orbit-stabilizer theorem the stabilizers hold k |G|
elements in all for an action with k orbits; every reader of Stab(b)
reads them there, and none rescans the action table.

Axioms are checked numerically, not assumed: validate_group and
validate_action scan the tables exactly and report every violated axiom
with an offending tuple.  Row e, column e and the right inverses hold by
construction; the left inverse law is checked at every element, and
associativity exactly on the commutators of the stored rows λ_s with the
columns at S, by a centralizer argument (validate_group), |S|^2 |G|
entries that the constructor budgets.  Action compatibility is checked for
every generator in S, which is exact: the elements that satisfy it are
closed under products.
"""

from __future__ import annotations

import array
import itertools

import numpy as np

from .errors import DomainError, StructuralError
from .reporting import ValidationReport, _count

_ENTRY_BUDGET = 1 << 26  # largest table a constructor allocates: 128 MiB of int16 or 512 MiB of float64
# largest transient block a table scan materializes at once: 128 KiB of
# float64, which fits in L2 and is smaller than every (|G|, |B|) table of
# torus-bands(32), so the scans there run in blocks, not as one block
_BLOCK_ENTRIES = 1 << 14

# dtype of every index table (cayley, inv, action table, coset_reps, theta
# reps).  The budget bounds |G| and |B| by 2^13, so an index fits, but a
# product of two (up to 2^26) does not: form one in np.intp.
INDEX_DTYPE = np.int16


def _check_budget(what: str, entries: int) -> None:
    """Raise DomainError before allocating a table of more entries than the budget."""
    if entries > _ENTRY_BUDGET:
        raise DomainError(f"{what} needs {entries:,} entries, over the budget of {_ENTRY_BUDGET:,}")


def _index_table(values, what: str, shape: tuple[int, ...], bound: int, low: int = 0) -> np.ndarray:
    """values as a contiguous INDEX_DTYPE array of the given shape, after
    checking that every entry lies in [low, bound) as given, so that none
    wraps when narrowed (a NaN fails both comparisons)."""
    values = np.asarray(values)
    if values.shape != shape:
        raise StructuralError(f"{what} shape {values.shape}, expected {shape}")
    if values.size and not (values.min() >= low and values.max() < bound):
        raise StructuralError(f"{what} entry out of range")
    return np.ascontiguousarray(values, dtype=INDEX_DTYPE)


def _row_blocks(count: int, row_entries: int) -> list[slice]:
    """Consecutive slices covering range(count) in order, each of as many
    rows of row_entries entries as fit in _BLOCK_ENTRIES, and at least one."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_entries))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _rows(count: int, row_entries: int, grid_of, place):
    """The parts of a grid of count rows of row_entries entries, one row block
    at a time: grid_of(rows), rows a slice, placed by place at its offset."""
    for rows in _row_blocks(count, row_entries):
        yield (lambda r, *at: place(rows.start + r, *at)), grid_of(rows)


def _leaf_types(table, depth: int) -> set[type]:
    """The types of the entries of a nested sequence `depth` levels deep."""
    for _ in range(depth - 1):
        table = itertools.chain.from_iterable(table)
    return set(map(type, table))


# JSON values that numpy would read as a float: true as 1.0, "1" as 1.0, null as NaN
_NOT_NUMBERS = {bool: "true or false", str: "string", type(None): "null"}


def _float_table(values, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """values as a float array after checking its shape; non-finite entries
    are kept for the validators to name.  A nested list may hold no bool,
    string or None: a JSON true is not the number 1.0."""
    table = np.asarray(values, dtype=float)
    if table.shape != shape:
        raise StructuralError(f"{what} shape {table.shape}, expected {shape}")
    if not isinstance(values, np.ndarray):
        leaves = _leaf_types(values, len(shape))
        named = [word for kind, word in _NOT_NUMBERS.items() if kind in leaves]
        if named:
            raise StructuralError(f"{what} holds a JSON {named[0]}, not a number")
    return table


def _check_order(n: int) -> None:
    """Raise DomainError before anything of a group whose Cayley table is over the budget is built."""
    _check_budget(f"a ({n}, {n}) cayley table", n * n)


class FiniteGroup:
    """Explicit finite group, defined by labels, the identity index and the
    left multiplications left[i] = λ_s of a generating set S, s = left[i][e]
    (empty for the trivial group), the rows a scenario file stores.  The
    Cayley table, with the walk that built it, and the inverses are derived
    from them once; S is the group's generating set.  Rows that leave an
    element unreached, a table row without the identity, or an |S|^2 |G|
    over the budget are refused; the group axioms are left to validate_group."""

    def __init__(self, elements: tuple[str, ...], identity: int, left):
        n = len(elements)
        if n == 0:
            raise StructuralError("group must have at least one element")
        _check_order(n)
        if not (0 <= identity < n):
            raise StructuralError("identity index out of range")
        self.elements, self.identity = tuple(elements), identity
        left = np.asarray(left)
        self.left = _index_table(left.reshape(0, n) if left.shape == (0,) else left, "group left", (len(left), n), n)
        k = len(self.left)
        _check_budget(f"a ({k}, {k}, {n}) associativity scan", k * k * n)
        # derived: cayley[g, h] = g*h, and walk[k] = (y, p, i), the k-th tree edge y = λ_i(p) that built row y
        self.cayley, self.walk = _walk(self.left, identity)
        self.inv = np.empty(n, dtype=INDEX_DTYPE)  # the first right inverse of each element, derived
        for rows in _row_blocks(n, n):  # one block of rows compared at a time
            hits = self.cayley[rows] == identity
            found = hits.any(axis=1)
            if not found.all():
                raise StructuralError(f"element {int(found.argmin()) + rows.start} has no right inverse")
            self.inv[rows] = hits.argmax(axis=1)
        self.generators: list[int] = self.left[:, identity].tolist()  # S, s = λ_s(e), in stored order

    @property
    def order(self) -> int:
        return len(self.elements)


class GroupAction:
    """Left action of a FiniteGroup on a finite base set, as a lookup table."""

    def __init__(self, group: FiniteGroup, base: tuple[str, ...], table: np.ndarray):
        n, m = group.order, len(base)
        if m == 0:
            raise StructuralError("base set must be nonempty")
        _check_budget(f"a ({m}, {m}) coset-representative table", m * m)
        self.group, self.base = group, base
        self.table = _index_table(table, "action table", (n, m), m)  # table[g, b] = g.b
        # derived: [b, c] is the smallest k with k.b = c, -1 off the orbit of b
        self.coset_reps = np.full((m, m), -1, dtype=INDEX_DTYPE)
        domain, stabilizers = [], []
        for b in range(m):
            members, first = np.unique(self.table[:, b], return_index=True)  # stable: first is the smallest k
            self.coset_reps[b, members] = first
            if members[0] >= b:  # no c < b in the orbit of b
                domain.append(b)
            stab = np.flatnonzero(self.table[:, b] == b)
            stab.flags.writeable = False
            stabilizers.append(stab)
        self.domain = tuple(domain)  # smallest base index of each orbit, ascending, derived
        self.stabilizers = tuple(stabilizers)  # [b]: the g with g.b = b, ascending and read-only, derived

    @property
    def base_size(self) -> int:
        return len(self.base)


# ---------------------------------------------------------------------------
# constructors


def _walk(left: np.ndarray, identity: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) Cayley table generated by the left multiplications
    left[i] = λ_s, built row by row along a breadth-first spanning tree of
    λ_S from the identity: row e is the identity permutation, and a tree
    edge y = s·p gives row y as λ_s(row p), since s·(p·x) = y·x.  Rows,
    not columns, so that every write is contiguous.  Returned with the
    tree's (n - 1, 3) edges (y, p, i), y = λ_i(p), in walk order.  Every
    element must be reached; the group axioms are left to validate_group."""
    n = left.shape[1]
    steps = left.tolist()  # steps[i][p] = s_i p, read as Python ints
    cayley = np.empty((n, n), dtype=INDEX_DTYPE)
    cayley[identity] = np.arange(n)
    reached = bytearray(n)
    reached[identity] = True
    tree, edges = [identity], array.array("h")  # INDEX_DTYPE, flat: no Python object per edge
    for p in tree:  # grows while it is walked: breadth-first order
        for i, step in enumerate(steps):
            y = step[p]
            if not reached[y]:
                reached[y] = True
                left[i].take(cayley[p], out=cayley[y])
                tree.append(y)
                edges.extend((y, p, i))
    if len(tree) < n:
        raise StructuralError(
            f"element {reached.index(0)} is not reached from the identity"
            " by left multiplication by the generators"
        )
    return cayley, np.frombuffer(edges, dtype=INDEX_DTYPE).reshape(n - 1, 3)


def action_table(group: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The (n, m) action table that the (|S|, m) rows rows[i][b] = s_i.b of
    an action at the group's stored generators give along the group's own
    walk: row e is the identity, and the edge y = s·p gives row y as
    rows[i] after row p, since (s·p).b = s.(p.b).  The action axioms are
    left to validate_action."""
    n, m = group.order, rows.shape[1]
    _check_budget(f"a ({n}, {m}) action table", n * m)
    table = np.empty((n, m), dtype=INDEX_DTYPE)
    table[group.identity] = np.arange(m)
    for y, p, i in zip(*group.walk.T.tolist()):
        rows[i].take(table[p], out=table[y])
    return table


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, generated by x -> x+1 (by nothing when n = 1)."""
    if n < 1:
        raise StructuralError("cyclic group needs n >= 1")
    _check_order(n)
    return FiniteGroup(tuple(f"r{i}" for i in range(n)), 0, [(np.arange(n) + 1) % n][: n - 1])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}.

    Encoding: index i < n is the rotation v -> v+i, index n+i is the
    reflection v -> i-v (all mod n), composed as functions: (a*b).v =
    a.(b.v).  Generated by r1 (r_i -> r_{i+1}, s_i -> s_{i+1}), unless n =
    1 makes it the identity, and s0 (r_i -> s_{-i}, s_i -> r_{-i}).
    """
    if n < 1:
        raise StructuralError("dihedral group needs n >= 1")
    _check_order(2 * n)
    up, down = (np.arange(n) + 1) % n, -np.arange(n) % n
    left = [np.concatenate([up, n + up]), np.concatenate([n + down, down])][n == 1 :]
    return FiniteGroup(tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n)), 0, left)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with the first factor cycling fastest: index = j*|A| + i.

    Generated by each factor's stored rows λ_s, acting on its own
    coordinate alone.
    """
    na, nb = a.order, b.order
    _check_order(na * nb)
    ia, ib = np.arange(na), np.arange(nb)
    left = [(ib[:, None] * na + lam[None, :]).ravel() for lam in a.left]
    # INDEX_DTYPE products below na * nb = |G|, an index
    left += [(lam[:, None] * na + ia[None, :]).ravel() for lam in b.left]
    labels = tuple(f"({a.elements[i]},{b.elements[j]})" for j in range(nb) for i in range(na))
    return FiniteGroup(labels, b.identity * na + a.identity, left)


# ---------------------------------------------------------------------------
# validation


def validate_group(group: FiniteGroup) -> ValidationReport:
    """Scan the group axioms.  Residuals count violations, held at 0;
    witnesses name the first offending tuple in scan order.

    Associativity is decided on the commutators λ_s ρ_t = ρ_t λ_s of the
    stored rows λ_s and the columns ρ_t at S: the instances λ_s(x t) =
    λ_s(x) t over (s, x, t) in row-major order, |S|^2 |G| of them, s and t
    named by λ_s(e) and λ_t(e).  The residual N counts the violated ones
    and the witness is the first.  N = 0 exactly when the table is
    associative and every stored row is the table's row at λ_s(e), by the
    centralizer argument (Dixon & Mortimer, Permutation Groups, 1996, 4.2)
    on the construction.  Row e and column e are the identity, and every
    row is a composition of stored λ's (the walk).  N = 0 makes each λ_s,
    so every row, commute with ρ_t for each t in S.  The right products of
    e by S are then closed under every λ_s, since λ_s(x t) = λ_s(x) t and
    λ_s(e) = e s, so the walk makes them all of G.  Induction on the
    length of a right word z = e t_1 ... t_k then gives (x y) z = x (y z),
    and λ_s(z) = λ_s(e) z; an associative table's rows commute with its
    columns.  Against N′, the previous count over S × S′ with S′ the
    greedy generating set of the table: both are 0 on exactly these
    tables, so N <= |S|^2 |G| [N′ > 0] and N′ <= |S| |S′| |G| [N > 0],
    and where S equals S′ as a list they are one scan, witness and all.
    The scan holds one row block of (s, x) rows at a time.
    """
    from .battery import _view
    return _view("group.", group=group)


def _associativity(grp: FiniteGroup) -> tuple[float, tuple | None]:  # the commutators of validate_group
    left, gens, n = grp.left, grp.generators, grp.order
    right = grp.cayley[:, gens]  # [x, t] = x t

    def broken(rows):  # [(s, x), t] -> λ_s(x t) != λ_s(x) t, a block of flat s |G| + x
        s, x = np.divmod(np.arange(*rows.indices(len(gens) * n)), n)
        return left[s[:, None], right[x]] != right[left[s, x]]

    return _count(_rows(len(gens) * n, len(gens), broken, lambda r, t: (gens[r // n], r % n, gens[t])))


def validate_action(action: GroupAction) -> ValidationReport:
    """Scan the action axioms: identity row and (g h).b = g.(h.b).

    Compatibility is checked for every h in S, the group's generators, with
    witness (g, h, b).  Given associativity, which validate_group checks,
    the h that satisfy it for all g and b are closed under products, so
    this is exact.
    """
    from .battery import _view
    return _view("action.", action=action)


def _action_compatibility(action: GroupAction) -> tuple[float, tuple | None]:
    grp, table = action.group, action.table

    def parts():  # [g, b] -> (g h).b != g.(h.b) for each generator h, a row block of g at a time
        for h in grp.generators:
            broken = lambda g: table[grp.cayley[g, h]] != table[g][:, table[h]]  # a row block of g
            yield from _rows(grp.order, action.base_size, broken, lambda g, b: (g, h, b))

    return _count(parts())


# ---------------------------------------------------------------------------
# orbits and stabilizers


def orbits(action: GroupAction) -> list[np.ndarray]:
    """The members of each orbit, ascending, ordered by smallest member."""
    return [np.flatnonzero(action.coset_reps[b] >= 0) for b in action.domain]


def stabilizer(action: GroupAction, b: int) -> np.ndarray:
    """Element indices g with g.b = b, ascending: the action's derived array."""
    return action.stabilizers[b]

