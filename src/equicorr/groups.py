"""Finite groups and their actions on finite base sets.

Groups and actions are over dense 0-based element indices; actions are
explicit (group x base) tables.  Everything downstream indexes into these
tables, so element order is part of a group's identity: two groups with
the same multiplication but different element order are different objects
here.

A group is defined by the left multiplications λ_s of a generating set S,
the rows a scenario file stores: FiniteGroup(elements, identity, left)
derives a breadth-first walk of λ_S from the identity, once, at
construction.  The walk is the Schreier vector of e under λ_S (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, 4.1): it
stands for the Cayley table without storing it, since row y of the table
is λ_i after row p for the tree edge y = λ_i(p) (Cayley's theorem).  One
pass over the rows, holding only the tree's frontier (budgeted at its
widest before it starts), derives the inverses and the columns at S.  A
scan asks the group for the rows or the columns it reads
(FiniteGroup.rows, FiniteGroup.columns), each composed along the walk
in one pass, so it gets the values a table built by the walk would hold,
for any stored rows, and no (|G|, |G|) table is built unless a scan
reads every row or every column.  S, the elements s =
λ_s(e) in stored order, is the group's one generating set: every
generator-based check reads it.  An action stored by its rows at S is
rebuilt along the same walk (action_table).

Likewise each action derives its coset representatives once: the section
k_c of the orbit map k -> k.b that takes the smallest k with k.b = c.
Projection, disintegration, the orbit-slice laws and every built-in
scenario's theta all read this one table.  Its fundamental domain, the
smallest base index of each orbit, and the stabilizer Stab(b) of each
base point are derived in the same pass: b is a domain point exactly
when no c < b lies in its orbit.  By the orbit-stabilizer theorem the stabilizers hold k |G|
elements in all for an action with k orbits; every reader of Stab(b)
reads them there, and none rescans the action table.  The orbit-slice
laws that move group elements by conjugation read one table more,
derived on first read (GroupAction.conjugation).

Axioms are checked numerically, not assumed: validate_group and
validate_action scan the tables exactly and report every violated axiom
with an offending tuple.  Row e, column e and the right inverses hold by
construction, and associativity is checked exactly on the commutators of
the stored rows λ_s with the columns at S, by a centralizer argument
(validate_group), |S|^2 |G| entries that the constructor budgets.  An
associative table with a two-sided identity and right inverses is a
group, so that decides the left inverses too.  Action compatibility is
checked for every generator in S, which is exact: the elements that
satisfy it are closed under products.
"""

from __future__ import annotations

import array
import functools
import itertools

import numpy as np

from .errors import DomainError, StructuralError
from .reporting import ValidationReport, _count

_ENTRY_BUDGET = 1 << 26  # largest table a constructor allocates: 128 MiB of int16 or 512 MiB of float64
# largest transient block a table scan materializes at once: 128 KiB of
# float64, which fits in L2 and is smaller than every (|G|, |B|) table of
# torus-bands(32), so the scans there run in blocks, not as one block
_BLOCK_ENTRIES = 1 << 14

# dtype of every index table (walk, inv, product tables, action table,
# coset_reps, theta reps).  _check_order bounds |G| and the budget |B| by
# its range, so an index fits, but a product of two does not: form one in
# np.intp.
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


def _distinct(elements, n: int) -> np.ndarray:
    """The distinct entries of an index array into range(n), ascending,
    read off a mask over range(n) (np.unique's hash path imports numpy.ma)."""
    mask = np.zeros(n, dtype=bool)
    mask[elements] = True
    return np.flatnonzero(mask)


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
    """Raise DomainError before anything of a group whose element indices
    would not fit in INDEX_DTYPE is built."""
    top = int(np.iinfo(INDEX_DTYPE).max)
    if n > top:
        raise DomainError(f"a group of {n:,} elements is past the {np.dtype(INDEX_DTYPE).name} index range of {top:,}")


class FiniteGroup:
    """Explicit finite group, defined by labels, the identity index and the
    left multiplications left[i] = λ_s of a generating set S, s = left[i][e]
    (empty for the trivial group), the rows a scenario file stores.  The
    walk, the inverses and the columns at S are derived from them once; S
    is the group's generating set.  No Cayley table is stored: rows and
    columns hand out its rows and columns at the elements a scan reads,
    each composed along the walk.  Rows that leave an element unreached, a
    table row without the identity, or an |S|^2 |G| or a walk frontier
    over the budget are refused; the group axioms are left to
    validate_group."""

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
        self.walk = _walk(self.left, identity)  # derived: walk[k] = (y, p, i), the k-th tree edge y = λ_i(p)
        held = _frontier(self.walk)
        _check_budget(f"a ({held}, {n}) walk frontier", held * n)
        self.generators: list[int] = self.left[:, identity].tolist()  # S, s = λ_s(e), in stored order
        # derived from every row of the table, a row block at a time: the first
        # right inverse of each element, and right[x, j] = x s_j, the columns at S
        self.inv = np.empty(n, dtype=INDEX_DTYPE)
        self.right = np.empty((n, k), dtype=INDEX_DTYPE)
        lacking = n
        for ys, rows in _blocked(self._composed(), n, n):
            hits = rows == identity
            self.inv[ys] = first = hits.argmax(axis=1)
            self.right[ys] = rows[:, self.generators]
            lacking = min(lacking, ys[~hits[np.arange(len(ys)), first]].min(initial=n))
        if lacking < n:
            raise StructuralError(f"element {lacking} has no right inverse")

    @property
    def order(self) -> int:
        return len(self.elements)

    def rows(self, at) -> np.ndarray:
        """[r, x] -> at[r] x: the table's rows at the elements at, each
        composed along the walk (_composed) in one pass over the ancestors
        of all of them, so a scan asks once for every row it reads."""
        at = np.asarray(at, dtype=np.intp)
        n = self.order
        _check_budget(f"a ({at.size}, {n}) product table", at.size * n)
        slots: dict[int, list[int]] = {}
        for r, y in enumerate(at.tolist()):
            slots.setdefault(y, []).append(r)
        need = bytearray(n)
        for y in slots:
            need[y] = True
        ys, ps, _ = _edges(self.walk)
        for y, p in zip(reversed(ys), reversed(ps)):
            need[p] |= need[y]  # children come after their parents: the ancestor closure
        out = np.empty((at.size, n), dtype=INDEX_DTYPE)
        for y, row in self._composed(np.frombuffer(need, dtype=bool)):
            for r in slots.get(y, ()):
                out[r] = row
        return out

    def columns(self, at) -> np.ndarray:
        """[y, t] -> y at[t]: the table's columns at the elements at, in one
        pass down the walk, [y] = λ_i([p]) for the edge y = λ_i(p)."""
        at = np.asarray(at, dtype=INDEX_DTYPE)
        _check_budget(f"a ({self.order}, {at.size}) product table", self.order * at.size)
        return _along_walk(self, self.left, at)

    def _composed(self, need: np.ndarray | None = None):
        """(y, row y of the table) for the identity, then for each walk edge
        y = λ_i(p) whose y is needed (all, by default), in walk order: row y
        is left[i] after row p.  need must hold every needed element's
        parent.  A row is held only while a needed edge still has it as its
        parent, so beside the rows handed out only the tree's frontier is."""
        n = self.order
        edges = self.walk if need is None else self.walk[need[self.walk[:, 0]]]
        pending = np.bincount(edges[:, 1], minlength=n).tolist()  # needed children not yet composed
        held = {self.identity: np.arange(n, dtype=INDEX_DTYPE)}
        yield self.identity, held[self.identity]
        for y, p, i in zip(*_edges(edges)):
            row = self.left[i].take(held[p])
            pending[p] -= 1
            if not pending[p]:
                del held[p]
            if pending[y]:
                held[y] = row
            yield y, row


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

    @functools.cached_property
    def conjugation(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, [j, x] -> (v_j x) v_j^-1 for v_j = U[j]^-1): U the elements
        the orbit-slice laws carry, Stab(b0) and the coset representatives
        of each fundamental-domain point b0, ascending, and the group's
        conjugates at their inverses, each inverse read from inv: the rows
        at the v_j gathered through the columns at their inverses, a row at
        a time.  Derived on first read and kept, since every conjugation
        law of the action reads it: (|U|, |G|) entries, where a table-free
        scan of each law would compose them anew."""
        grp, domain = self.group, list(self.domain)
        reps = self.coset_reps[domain]
        at = _distinct(np.concatenate([*(self.stabilizers[b] for b in domain), reps[reps >= 0]]), grp.order)
        moved, back = grp.rows(grp.inv[at]), grp.columns(grp.inv[grp.inv[at]])
        for j, row in enumerate(moved):
            back[:, j].take(row, out=row)
        at.flags.writeable = moved.flags.writeable = False  # shared by every reader
        return at, moved


# ---------------------------------------------------------------------------
# constructors


def _walk(left: np.ndarray, identity: int) -> np.ndarray:
    """The (n - 1, 3) edges (y, p, i), y = λ_i(p), of a breadth-first
    spanning tree of the left multiplications left[i] = λ_s from the
    identity, in walk order, so that every parent comes before its
    children.  Row y of the Cayley table is λ_i after row p, since
    s·(p·x) = y·x, and row e is the identity permutation: the walk stands
    for the whole table.  Every element must be reached; the group axioms
    are left to validate_group."""
    n = left.shape[1]
    steps = left.tolist()  # steps[i][p] = s_i p, read as Python ints
    reached = bytearray(n)
    reached[identity] = True
    tree, edges = [identity], array.array("h")  # INDEX_DTYPE, flat: no Python object per edge
    for p in tree:  # grows while it is walked: breadth-first order
        for i, step in enumerate(steps):
            y = step[p]
            if not reached[y]:
                reached[y] = True
                tree.append(y)
                edges.extend((y, p, i))
    if len(tree) < n:
        raise StructuralError(
            f"element {reached.index(0)} is not reached from the identity"
            " by left multiplication by the generators"
        )
    return np.frombuffer(edges, dtype=INDEX_DTYPE).reshape(n - 1, 3)


def _frontier(walk: np.ndarray) -> int:
    """The most rows FiniteGroup._composed holds at once on the whole walk,
    the row it composes included; on a subset of the walk it holds no more.
    A row is held from its own edge to its last child's, and the children
    of a parent are one run of edges, since the walk is breadth-first."""
    n = len(walk) + 1
    position = np.zeros(n, dtype=np.intp)  # the identity's is 0, the k-th edge's k + 1
    position[walk[:, 0]] = np.arange(1, n)
    last = np.flatnonzero(np.diff(walk[:, 1], append=-1))  # the last edge of each run
    live = np.zeros(n + 1, dtype=np.intp)  # held while an edge after its own is composed
    live[position[walk[last, 1]] + 1] += 1
    live[last + 2] -= 1
    return int(np.cumsum(live).max()) + 1


def _edges(walk: np.ndarray) -> list:
    """The columns y, p and i of walk edges as flat INDEX_DTYPE arrays,
    which hand out Python ints one at a time, so no list of them is built."""
    return [array.array("h", column.tobytes()) for column in walk.T]


def _blocked(pairs, count: int, width: int):
    """count (y, row) pairs, rows of width entries, gathered into (ys, rows)
    blocks of as many rows as fit in _BLOCK_ENTRIES, and at least one."""
    size = min(count, max(1, _BLOCK_ENTRIES // width))
    ys, rows = np.empty(size, dtype=np.intp), np.empty((size, width), dtype=INDEX_DTYPE)
    count = 0
    for y, row in pairs:
        ys[count], rows[count] = y, row
        count += 1
        if count == size:
            yield ys, rows
            count = 0
    if count:
        yield ys[:count], rows[:count]


def _along_walk(group: FiniteGroup, steps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The (n, len(start)) table whose row e is start and whose row y is
    steps[i] after row p for each walk edge y = λ_i(p), in walk order."""
    out = np.empty((group.order, len(start)), dtype=INDEX_DTYPE)
    out[group.identity] = start
    for y, p, i in zip(*_edges(group.walk)):
        steps[i].take(out[p], out=out[y])
    return out


def action_table(group: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The (n, m) action table that the (|S|, m) rows rows[i][b] = s_i.b of
    an action at the group's stored generators give along the group's own
    walk: row e is the identity, and the edge y = s·p gives row y as
    rows[i] after row p, since (s·p).b = s.(p.b).  The action axioms are
    left to validate_action."""
    n, m = group.order, rows.shape[1]
    _check_budget(f"a ({n}, {m}) action table", n * m)
    return _along_walk(group, rows, np.arange(m))


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
    left, right, gens, n = grp.left, grp.right, grp.generators, grp.order  # right[x, t] = x t

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
    grp, table, right = action.group, action.table, action.group.right  # right[g, j] = g h_j

    def parts():  # [g, b] -> (g h).b != g.(h.b) for each generator h, a row block of g at a time
        for j, h in enumerate(grp.generators):
            broken = lambda g: table[right[g, j]] != table[g][:, table[h]]  # a row block of g
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

