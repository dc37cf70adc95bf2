"""Finite groups and their actions on finite base sets.

Groups are explicit Cayley tables over dense 0-based element indices;
actions are explicit (group x base) tables.  Everything downstream indexes
into these tables, so element order is part of a group's identity: two
groups with the same multiplication but different element order are
different objects here.

Every table is built by table_from_generators from the left
multiplications λ_s of a generating set (Cayley's theorem): the
constructors only state their generator permutations, and the scenario
loader passes the ones a file stores.  Each group derives its greedy
generating set once, at construction, and every generator-based check
reads it from there.

Likewise each action derives its coset representatives once: the section
k_c of the orbit map k -> k.b that takes the smallest k with k.b = c.
Projection, disintegration, the orbit-slice laws and theta derivation all
read this one table.  Its fundamental domain, the smallest base index of
each orbit, and the stabilizer Stab(b) of each base point are derived in
the same pass: b is a domain point exactly when no c < b lies in its
orbit.  By the orbit-stabilizer theorem the stabilizers hold k |G|
elements in all for an action with k orbits; every reader of Stab(b)
reads them there, and none rescans the action table.

Axioms are checked numerically, not assumed: validate_group and
validate_action scan the tables exactly and report every violated axiom
with an offending tuple.  The identity and inverse laws are checked at
every element; associativity by a centralizer argument on the generators'
rows and columns, streamed one row block at a time (validate_group).  Action
compatibility is checked for every generator in the greedy generating
set, which is exact: the elements that satisfy it are closed under
products.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

from .errors import DomainError, StructuralError
from .reporting import ValidationReport, _count, check_from_residual

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
    """values, of a nonempty shape, as a contiguous INDEX_DTYPE array, after
    checking that every entry lies in [low, bound) as given, so that none
    wraps when narrowed (a NaN fails both comparisons)."""
    values = np.asarray(values)
    if values.shape != shape:
        raise StructuralError(f"{what} shape {values.shape}, expected {shape}")
    if not (values.min() >= low and values.max() < bound):
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


def _float_table(values, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """values as a float array after checking its shape; non-finite entries
    are kept for the validators to name.  A nested list may hold no bool:
    a JSON true is not the number 1.0."""
    table = np.asarray(values, dtype=float)
    if table.shape != shape:
        raise StructuralError(f"{what} shape {table.shape}, expected {shape}")
    if not isinstance(values, np.ndarray) and bool in _leaf_types(values, len(shape)):
        raise StructuralError(f"{what} holds a JSON true or false, not a number")
    return table


class FiniteGroup:
    """Explicit finite group: labels, Cayley table, inverses, identity index."""

    def __init__(self, elements: tuple[str, ...], cayley: np.ndarray, inv: np.ndarray, identity: int):
        n = len(elements)
        if n == 0:
            raise StructuralError("group must have at least one element")
        _check_budget(f"a ({n}, {n}) cayley table", n * n)
        self.elements = elements
        self.cayley = _index_table(cayley, "cayley table", (n, n), n)  # cayley[g, h] = g*h
        self.inv = _index_table(inv, "inverse table", (n,), n)
        if not (0 <= identity < n):
            raise StructuralError("identity index out of range")
        self.identity = identity
        self.generators: list[int] = generating_set(self)  # greedy generating set of the table, derived

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


def table_from_generators(n: int, identity: int, generators: Callable[[], Sequence[np.ndarray]]) -> np.ndarray:
    """The (n, n) Cayley table generated by the left multiplications
    left[i] = λ_s of a generating set, built row by row along a
    breadth-first spanning tree of λ_S from the identity: row e is the
    identity permutation, and a tree edge y = s·p gives row y as
    λ_s(row p), since s·(p·x) = y·x.  Rows, not columns, so that every
    write is contiguous.  `generators` returns left; it is called after
    the size check, so a group over the budget allocates nothing of its
    order.  Every element must be reached; the group axioms are left to
    validate_group."""
    _check_budget(f"a ({n}, {n}) cayley table", n * n)
    left = generators()
    steps = [lam.tolist() for lam in left]  # steps[i][p] = s_i p, read as Python ints
    cayley = np.empty((n, n), dtype=INDEX_DTYPE)
    cayley[identity] = np.arange(n)
    reached = bytearray(n)
    reached[identity] = True
    tree = [identity]
    for p in tree:  # grows while it is walked: breadth-first order
        for lam, step in zip(left, steps):
            y = step[p]
            if not reached[y]:
                reached[y] = True
                lam.take(cayley[p], out=cayley[y])
                tree.append(y)
    if len(tree) < n:
        raise StructuralError(
            f"element {reached.index(0)} is not reached from the identity"
            " by left multiplication by the generators"
        )
    return cayley


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, generated by x -> x+1."""
    if n < 1:
        raise StructuralError("cyclic group needs n >= 1")
    cayley = table_from_generators(n, 0, lambda: [(np.arange(n) + 1) % n])
    return group_from_tables(tuple(f"r{i}" for i in range(n)), cayley, 0)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}.

    Encoding: index i < n is the rotation v -> v+i, index n+i is the
    reflection v -> i-v (all mod n), composed as functions: (a*b).v =
    a.(b.v).  Generated by r1 (r_i -> r_{i+1}, s_i -> s_{i+1}) and s0
    (r_i -> s_{-i}, s_i -> r_{-i}).
    """
    if n < 1:
        raise StructuralError("dihedral group needs n >= 1")

    def generators():
        up, down = (np.arange(n) + 1) % n, -np.arange(n) % n
        return [np.concatenate([up, n + up]), np.concatenate([n + down, down])]

    cayley = table_from_generators(2 * n, 0, generators)
    return group_from_tables(tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n)), cayley, 0)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with the first factor cycling fastest: index = j*|A| + i.

    Generated by each factor's generators paired with the other factor's
    identity.
    """
    na, nb = a.order, b.order

    def generators():
        ia, ib = np.arange(na), np.arange(nb)
        left = [(ib[:, None] * na + a.cayley[s][None, :]).ravel() for s in a.generators]
        # INDEX_DTYPE products below na * nb = |G|, an index
        return left + [(b.cayley[t][:, None] * na + ia[None, :]).ravel() for t in b.generators]

    identity = b.identity * na + a.identity
    cayley = table_from_generators(na * nb, identity, generators)
    labels = tuple(f"({a.elements[i]},{b.elements[j]})" for j in range(nb) for i in range(na))
    return group_from_tables(labels, cayley, identity)


def group_from_tables(elements: list[str], cayley: np.ndarray, identity: int) -> FiniteGroup:
    """Build a group from labels, a Cayley table and its identity, deriving
    inverses.  Raises StructuralError when some inverse does not exist;
    deeper axiom violations are left to validate_group.
    """
    cayley = np.asarray(cayley)  # FiniteGroup range-checks it, then narrows it to INDEX_DTYPE
    inv = np.empty(len(cayley), dtype=np.intp)
    for rows in _row_blocks(len(cayley), len(elements)):  # one block of rows compared at a time
        hits = cayley[rows] == identity
        found = hits.any(axis=1)
        if not found.all():
            raise StructuralError(f"element {int(found.argmin()) + rows.start} has no right inverse")
        inv[rows] = hits.argmax(axis=1)
    return FiniteGroup(tuple(elements), cayley, inv, int(identity))


# ---------------------------------------------------------------------------
# validation


def generating_set(group: FiniteGroup) -> list[int]:
    """Greedy generating set, ascending: take the smallest element not yet
    reached, then close the reached set (seeded with the identity) under
    right multiplication by the generators so far.

    Every element ends up a generator, the identity, or a product r a of a
    reached r and a generator a, read from the table.  Only table products
    are read, so this is sound on a table that is not yet validated; a new
    generator is marked reached directly, so a corrupted identity row cannot
    stall the closure.
    """
    cay = group.cayley
    reached = np.zeros(group.order, dtype=bool)
    reached[group.identity] = True
    gens: list[int] = []
    while not reached.all():
        a = int(np.flatnonzero(~reached)[0])
        gens.append(a)
        reached[a] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            # a mask, not np.unique, whose hash path imports numpy.ma (15-25 ms)
            new = np.zeros_like(reached)
            new[cay[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(new & ~reached)
            reached[frontier] = True
    return gens


def validate_group(group: FiniteGroup) -> ValidationReport:
    """Scan the group axioms.  Residuals count violations, held at 0;
    witnesses name the first offending tuple in scan order.

    Associativity is decided by the centralizer argument (Dixon & Mortimer,
    Permutation Groups, 1996, 4.2) on two sets of instances of
    (x a) y = x (a y), scanned in this order:

    - the commutators λ_s ρ_t = ρ_t λ_s of the generators' rows and
      columns: the triples (s, x, t), |S|^2 |G| of them;
    - row y = row r after λ_a for every y = r a that a breadth-first walk
      from {e} ∪ S reaches (the closure generating_set walks, so every
      element): the triples (r, a, x), a block of rows of |G| at a time.

    Given the identity laws they hold exactly when the table is
    associative: the rows lie in the monoid λ_S generates, which commutes
    with the columns ρ_S, and these carry e to every element, so a row is
    fixed by its value at e; row x after row y and row x y both take e to
    x y.  The residual R counts the violated instances, and the witness
    (x, a, y) is the first.  Light's count P over the triples (x, a, y)
    with a in S contains the row instances, so R - R_comm <= P, R_comm
    being the commutator part; given the identity laws R = 0 exactly when
    P = 0, so P <= |S| |G|^2 R and R <= (|S|^2 |G| + 1) P.
    """
    cay, inv, e = group.cayley, group.inv, group.identity
    idn = np.arange(group.order)
    report = ValidationReport()
    unary = (
        ("identity-left", cay[e] != idn, lambda x: (e, x)),
        ("identity-right", cay[:, e] != idn, lambda x: (x, e)),
        ("inverse-left", cay[inv, idn] != e, lambda x: (int(inv[x]), x)),
        ("inverse-right", cay[idn, inv] != e, lambda x: (x, int(inv[x]))),
    )
    for name, bad, site in unary:
        count, at = _count([(site, bad)])
        report.add(check_from_residual(f"group-{name}", count, 0, at))

    gens = group.generators
    left, right = cay[gens], cay[:, gens]
    edges = _tree_edges(right, e, gens)
    flat = cay.ravel()

    def broken(rows):  # [k, x] -> (r a) x != r (a x) at edge k = (y, r, a), a row block of edges at a time
        ys, rs, gs = edges[:, rows]
        idx = cay[gs].astype(np.intp)  # the flat index r |G| + a x of r (a x)
        idx += group.order * rs[:, None]
        return flat.take(idx) != cay[ys]

    def parts():  # [s, x, t] -> s (x t) != (s x) t, then the edges' rows
        yield (lambda s, x, t: (gens[s], x, gens[t])), left[:, right] != right[left]
        # rows of 2 |G| entries: the 8-byte index and the 64 KiB buffer numpy
        # broadcasts r |G| through then fill one block of _BLOCK_ENTRIES float64
        yield from _rows(edges.shape[1], 2 * group.order, broken, lambda k, x: (int(edges[1, k]), int(edges[2, k]), x))

    count, witness = _count(parts())
    report.add(check_from_residual("group-associativity", count, 0, witness))
    return report


def _tree_edges(right: np.ndarray, e: int, gens: list[int]) -> np.ndarray:
    """The (3, k) edges (y, r, a), y = r a, of the breadth-first walk from
    {e} ∪ S by right multiplication by S, in walk order, where right[r, i]
    = r gens[i]: one edge for each element the walk reaches after its
    start."""
    steps = right.tolist()
    reached = bytearray(len(steps))
    tree = [e, *gens]
    for r in tree:
        reached[r] = True
    edges = np.empty((3, len(steps)), dtype=np.intp)
    k = 0
    for r in tree:  # grows while it is walked: breadth-first order
        for a, y in zip(gens, steps[r]):
            if not reached[y]:
                reached[y] = True
                tree.append(y)
                edges[:, k] = y, r, a
                k += 1
    return edges[:, :k]


def validate_action(action: GroupAction) -> ValidationReport:
    """Scan the action axioms: identity row and (g h).b = g.(h.b).

    Compatibility is checked for every h in a generating set, with witness
    (g, h, b).  Given associativity, which validate_group checks, the h
    that satisfy it for all g and b are closed under products, so this is
    exact.
    """
    grp, table = action.group, action.table
    report = ValidationReport()

    count, at = _count([(lambda b: (grp.identity, b), table[grp.identity] != np.arange(action.base_size))])
    report.add(check_from_residual("action-identity", count, 0, at))

    def parts():  # [g, b] -> (g h).b != g.(h.b) for each generator h, a row block of g at a time
        for h in grp.generators:
            broken = lambda g: table[grp.cayley[g, h]] != table[g][:, table[h]]  # a row block of g
            yield from _rows(grp.order, action.base_size, broken, lambda g, b: (g, h, b))

    count, witness = _count(parts())
    report.add(check_from_residual("action-compatibility", count, 0, witness))
    return report


# ---------------------------------------------------------------------------
# orbits and stabilizers


def orbits(action: GroupAction) -> list[np.ndarray]:
    """The members of each orbit, ascending, ordered by smallest member."""
    return [np.flatnonzero(action.coset_reps[b] >= 0) for b in action.domain]


def stabilizer(action: GroupAction, b: int) -> np.ndarray:
    """Element indices g with g.b = b, ascending: the action's derived array."""
    return action.stabilizers[b]


def pair_stabilizer(action: GroupAction, c: int, b: int) -> np.ndarray:
    """Elements fixing both c and b under the diagonal action."""
    stab = action.stabilizers[b]
    return stab[action.table[stab, c] == c]
