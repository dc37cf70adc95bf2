"""Equivariant vector bundles over a group action, and their sections.

A bundle assigns each base point b a fiber dimension and each pair (g, b) a
matrix carrying the fiber at b to the fiber at g.b, subject to the cocycle
law

    act_matrix(e, b) = I,
    act_matrix(g h, b) = act_matrix(g, h.b) @ act_matrix(h, b).

Fiber dimension is constant along orbits, so every act matrix is square.
validate_bundle checks the second law on the instances (g, h, b0): b0 an
orbit O's fundamental-domain point, g in G, h in H = Stab(b0) or a coset
representative k_c (the smallest element with k_c.b0 = c, as the action's
coset_reps table holds it), so |G| (|H| + |O|) products per orbit instead of
|G|^2 |O|.  They contain Mackey's induced
form: rho = A(., b0) is a representation of H, each T_c = A(k_c, b0) has
the inverse A(k_c^-1, c), and A(g, c) T_c = T_{g.c} rho(k_{g.c}^-1 g k_c);
so, given the identity slice, they decide the law for every (g, h, b).
Let |X| be the largest entry of |X|, R the instance residual plus the
identity-slice residual, P the residual over every (g, h, b), a the largest
row or column sum of |A(g, b)| and d = dmax.  The reported residual is at
most P.  With E(x, y) the defect of the instance (x, y, b0), k = k_{h.c}
and s = k^-1 h k_c in H, the defect of the law at (g, h, c) satisfies

    D(g, h, c) T_c = E(g k, s) + E(g, k) rho(s) - E(g h, k_c)
                     + A(g, h.c) (E(h, k_c) - E(k, s)),

so |D T_c| <= (2 + 3a) R.  The instance (k_c^-1, k_c, b0) gives
A(k_c^-1, c) T_c = I - M with |M| <= R, which inverts T_c when d R <= 1/2;
then P <= 2a(3a + 2) R.  As P <= a(1 + a) always,
P <= max(2a(3a + 2), 2d a(1 + a)) R.
Tables are zero-padded to the maximum fiber dimension; the padding is
inert under all products and sums, and validators confirm it stays
exactly zero.  They are dense, except that a bundle whose act matrices
do not depend on b (representation_bundle, and so trivial_bundle and
sign_bundle) stores one (|G|, 1, d, d) copy, broadcast along b as a
read-only view.

Two section representations coexist.  A plain Section stores one vector
per base point.  A MackeySection stores a vector in the fiber at b for
every pair (h, b), subject to the periodicity law

    m(h, g.b) = act_matrix(g, b) @ m(h g, b),

which is exactly the translation-compatibility a cross-correlation output
satisfies.  The two are interconvertible over any point where the action
is defined, and the conversions are mutually inverse.

Given the cocycle law, the periodicity law for all g is equivalent to its
h = e slice: m obeys it exactly when m equals the section induced from its
identity slice, m(h, b) = act_matrix(h^-1, h.b) @ m(e, h.b).
_periodicity measures that one comparison for the battery's Mackey check.
Its residual R and the all-g periodicity residual P bound each other,
R <= a P and P <= (1 + a) R, where a is the largest row sum of
|act_matrix(g, b)|: a = 1 for trivial and sign bundles, a <= sqrt(2) for
the 2-d rotation bundle.

The same argument covers the laws saying a table is invariant under G,
v(g.r, g.b) A_in(g, b') = A_out(g, b) v(r, b) for all g: the filter and
kernel constraints, the psi, delta, mu, nu and mubar compatibilities, and
the equivariance of a linear map on sections, which commutes with every g
exactly when its (|B|, |B|, dF, dE) matrix obeys the kernel law.
With b0 in the fundamental domain and k the smallest element carrying b0
to c, they hold exactly when S = T = 0 (given the cocycle law of both
bundles): S compares the rows at b0 with their copies carried by each
stabilizer element of b0, T compares every v(r, c) with
A_out(k, b0) v(k^-1.r, b0) A_in(k^-1, .).  _orbit_slice reports
R = max(S, T); with P the all-g residual and a the largest row or column
sum of |A(g, b)| over both bundles, R <= a P and P <= (a^2 + 2a) R.  The
random filter and kernel builders of `sampling` and the filter loader share
this transport: the mean of _carry over Stab(b0) makes S = 0, and
_transport makes T = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .groups import GroupAction, _check_budget, _float_table, _row_blocks, _rows
from .reporting import ValidationReport, _count, _worst, check_from_residual


class EquivariantBundle:
    def __init__(self, action: GroupAction, fiber_dim: np.ndarray, act_matrix: np.ndarray):
        n, m = action.group.order, action.base_size
        self.action = action
        self.fiber_dim = np.asarray(fiber_dim, dtype=np.int64)
        if self.fiber_dim.shape != (m,):
            raise StructuralError(f"fiber_dim shape {self.fiber_dim.shape}, expected {(m,)}")
        if self.fiber_dim.min(initial=0) < 0:
            raise StructuralError("fiber dimensions must be nonnegative")
        # entry [g, b] maps fiber(b) -> fiber(g.b)
        self.act_matrix = _float_table(act_matrix, "act_matrix", (n, m, self.dmax, self.dmax))

    @property
    def dmax(self) -> int:
        return int(self.fiber_dim.max(initial=0))


def pad_mask(fiber_dim: np.ndarray, dmax: int) -> np.ndarray:
    """(|B|, dmax) bool: True on live fiber coordinates."""
    return np.arange(dmax)[None, :] < np.asarray(fiber_dim)[:, None]


def trivial_bundle(action: GroupAction, dim: int = 1) -> EquivariantBundle:
    """Product bundle: every fiber dim-dimensional, every act matrix the identity."""
    n, m = action.group.order, action.base_size
    _check_budget(f"a ({n}, {m}, {dim}, {dim}) act-matrix stack", n * m * dim * dim)  # before np.eye(dim)
    return representation_bundle(action, np.broadcast_to(np.eye(dim), (n, dim, dim)))


def representation_bundle(action: GroupAction, rep: np.ndarray) -> EquivariantBundle:
    """Bundle whose act matrices are a representation, constant in b.

    rep has shape (|G|, d, d) and must be a homomorphism into GL(d);
    the cocycle law then holds automatically.  validate_bundle still
    checks it numerically.  act_matrix is a read-only view of one copy of
    rep, broadcast along b; the stack it stands for is still budgeted,
    since consumers gather blocks of that size from it.
    """
    n, m = action.group.order, action.base_size
    rep = np.asarray(rep, dtype=float)
    if rep.ndim != 3 or rep.shape[0] != n or rep.shape[1] != rep.shape[2]:
        raise StructuralError(f"representation shape {rep.shape}, expected (|G|, d, d)")
    d = rep.shape[1]
    _check_budget(f"a ({n}, {m}, {d}, {d}) act-matrix stack", n * m * d * d)
    fiber_dim = np.full(m, d, dtype=np.int64)
    # a copy, so that the bundle never aliases the caller's array
    return EquivariantBundle(action, fiber_dim, np.broadcast_to(rep.copy()[:, None], (n, m, d, d)))


def sign_bundle(action: GroupAction, signs: np.ndarray) -> EquivariantBundle:
    """One-dimensional bundle with act matrix [sign(g)]; signs must be a
    homomorphism into {+1, -1}."""
    signs = np.asarray(signs, dtype=float)
    return representation_bundle(action, signs.reshape(-1, 1, 1))


def validate_bundle(bundle: EquivariantBundle, tolerance: float = 1e-9) -> ValidationReport:
    """Check identity slice, orbit-constant fiber dims, zero padding, and the
    cocycle law on the instances (g, h, b0) of the module docstring, in
    fundamental-domain order, then ascending h, then ascending g, one
    (b0, h) column of all g at a time.  The cocycle witness is the first
    instance (g, h, b) attaining the residual."""
    action = bundle.action
    grp = action.group
    A = bundle.act_matrix
    dmax = bundle.dmax
    report = ValidationReport()

    domain = list(action.domain)
    # [orbit, c]: members c of the orbit whose fiber dimension is not its base point's
    off = (action.coset_reps[domain] >= 0) & (bundle.fiber_dim != bundle.fiber_dim[domain, None])
    count, witness = _count([(lambda i: (domain[i], int(off[i].argmax())), off.any(axis=1))])  # orbits, first member
    report.add(check_from_residual("bundle-fiber-dim-orbit-constant", count, 0.0, witness))

    live = pad_mask(bundle.fiber_dim, dmax)  # (|B|, dmax)
    # A(e, b) against the identity on each fiber block, zero padding
    res, witness = _worst([(lambda *at: (grp.identity, *at), A[grp.identity] - live[:, :, None] * np.eye(dmax))])
    report.add(check_from_residual("bundle-identity-slice", res, tolerance, witness))

    # padding must be exactly zero outside the fiber block; only the padding
    # entries are read, (|G|, padding slots) of them, none when dims are equal
    block = live[:, :, None] & live[:, None, :]  # square fibers: d(g.b) = d(b) if dims valid
    # [g, k] -> the k-th padding entry of A(g, .), placed at (g, b, i, j)
    pad_res, witness = _worst([(lambda g, k: (g, *(int(c) for c in np.argwhere(~block)[k])), A[:, ~block])])
    report.add(check_from_residual("bundle-padding-zero", pad_res, 0.0, witness))

    def columns():  # [g] -> defect of the instance (g, h, b0), one column of all g at a time
        for b0 in domain:
            for h in np.sort(np.concatenate([action.stabilizers[b0], _movers(action, b0)])):
                defect = A[grp.cayley[:, h], b0] - A[:, action.table[h, b0]] @ A[h, b0]
                yield (lambda g: (g, int(h), b0)), np.abs(defect).max(axis=(1, 2), initial=0.0)

    worst, witness = _worst(columns())
    report.add(check_from_residual("bundle-cocycle", worst, tolerance, witness))
    return report


# ---------------------------------------------------------------------------
# sections


class Section:
    def __init__(self, bundle: EquivariantBundle, values: np.ndarray):
        self.bundle = bundle
        self.values = _float_table(values, "section values", (bundle.action.base_size, bundle.dmax))


class MackeySection:
    def __init__(self, bundle: EquivariantBundle, values: np.ndarray):
        n, m = bundle.action.group.order, bundle.action.base_size
        self.bundle = bundle
        self.values = _float_table(values, "mackey values", (n, m, bundle.dmax))  # values[h, b] lives in the fiber at b


def section_to_mackey(f: Section) -> MackeySection:
    """m(h, b) = act_matrix(h^-1, h.b) @ f(h.b): pull the value at h.b back to b."""
    bundle = f.bundle
    n, m, d = bundle.action.group.order, bundle.action.base_size, bundle.dmax
    vals = np.empty((n, m, d))
    for rows in _row_blocks(n, m * d * d):
        _induced_rows(bundle, f.values, rows, out=vals[rows])
    return MackeySection(bundle, vals)


def _induced_rows(bundle: EquivariantBundle, values: np.ndarray, rows: slice, out=None) -> np.ndarray:
    """The rows h of the Mackey section induced from section values (|B|, dmax):
    [h, b] -> act_matrix(h^-1, h.b) @ values(h.b)."""
    action = bundle.action
    hb = action.table[rows]
    mats = bundle.act_matrix[action.group.inv[rows, None], hb]  # (rows, |B|, d, d)
    return np.einsum("hbij,hbj->hbi", mats, values[hb], out=out)


def _periodicity(m: MackeySection, place):
    """[h, b] -> the largest entry of the defect of m(h, b) from the section
    induced from its identity slice, one row block of h at a time."""
    identity = m.values[m.bundle.action.group.identity]

    def defect(rows):  # [h, b] for the h in rows
        return np.abs(m.values[rows] - _induced_rows(m.bundle, identity, rows)).max(axis=2, initial=0.0)

    return _rows(len(m.values), m.values[0].size * m.bundle.dmax, defect, place)


# ---------------------------------------------------------------------------
# table laws on one base slice per orbit


def _movers(action: GroupAction, b0: int) -> np.ndarray:
    """The coset representatives k_c of the orbit of b0 other than its own,
    ascending in c: none of them fixes b0."""
    reps = action.coset_reps[b0]
    return reps[(reps >= 0) & (np.arange(action.base_size) != b0)]


def _move(action: GroupAction, conjugate: bool, g: np.ndarray) -> np.ndarray:
    """[i, r] -> g_i.r: rows are group elements moved by conjugation, or base points."""
    grp = action.group
    return grp.cayley[grp.cayley[g], grp.inv[g][:, None]] if conjugate else action.table[g]


def _carry(
    values: np.ndarray,
    action: GroupAction,
    conjugate: bool,
    a_out: np.ndarray | None,
    a_in: np.ndarray | None,
    g: np.ndarray,
    b0: int,
) -> np.ndarray:
    """[i, r] -> A_out(g_i, b0) v(g_i^-1.r, b0) A_in(g_i^-1, r'): the rows of
    the table at b0 carried by each g_i, with r' as in _orbit_slice."""
    ginv = action.group.inv[g]
    rows = values[_move(action, conjugate, ginv), b0]
    if a_out is None:
        return rows
    back = a_in[ginv, action.table[g, b0]][:, None] if conjugate else a_in[ginv[:, None], np.arange(len(values))]
    return a_out[g, b0][:, None] @ rows @ back


def _blocks(elements: np.ndarray, values: np.ndarray):
    """The elements in order, as many at a time as carry groups._BLOCK_ENTRIES
    entries of values' rows (one element's at least), so beside the table
    only a few blocks are alive."""
    return (elements[rows] for rows in _row_blocks(elements.size, values[:, 0].size))


def _orbit_slice(
    values: np.ndarray,
    action: GroupAction,
    conjugate: bool,
    place,
    a_out: np.ndarray | None = None,
    a_in: np.ndarray | None = None,
) -> tuple[float, tuple | None]:
    """Check v(g.r, g.b) A_in(g, b') = A_out(g, b) v(r, b) on a table indexed
    [r, b, ...], one base point b0 per orbit (see the module docstring).
    Rows are group elements moved by conjugation with b' = b (conjugate), or
    base points moved by the action with b' = r; untwisted laws pass no act
    matrices.  Returns R = max(S, T) and place(g, g^-1.r, b0) of the failing
    law instance at its first maximum (S before T, each in
    fundamental-domain order, then row-major over (g, r)), carrying the
    elements a block at a time (_blocks).
    """
    grp = action.group

    def instance(b0, g):  # [i, r, ...] -> place(g_i, g_i^-1.r, b0)
        return lambda i, r, *_: place(int(g[i]), int(_move(action, conjugate, grp.inv[g[[i]]])[0, r]), b0)

    def parts():  # [i, r, ...] -> the row carried by g_i from b0 minus the table's
        for b0 in action.domain:
            for g in _blocks(action.stabilizers[b0], values):
                yield instance(b0, g), _carry(values, action, conjugate, a_out, a_in, g, b0) - values[None, :, b0]
        for b0 in action.domain:
            for g in _blocks(_movers(action, b0), values):
                rows = _carry(values, action, conjugate, a_out, a_in, g, b0)
                rows -= np.moveaxis(values[:, action.table[g, b0]], 1, 0)
                yield instance(b0, g), rows

    return _worst(parts())


def _transport(values: np.ndarray, action: GroupAction, conjugate: bool, a_out: np.ndarray, a_in: np.ndarray):
    """Write each column of values off the fundamental domain: the column at
    c is the one at its orbit's b0 carried by the coset representative k_c,
    so _orbit_slice reads T = 0 on the result.  The columns at the b0 are
    read, never written; the elements are carried a block at a time
    (_blocks)."""
    for b0 in action.domain:
        for g in _blocks(_movers(action, b0), values):
            values[:, action.table[g, b0]] = np.moveaxis(_carry(values, action, conjugate, a_out, a_in, g, b0), 0, 1)
