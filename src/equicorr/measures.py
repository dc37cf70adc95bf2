"""Conjugation-compatible measure families on a group action.

Three families travel together.  For each base point b:

  * a group family mu_b, a weight per group element, satisfying the
    pushforward compatibility mu_{g.b}(g h g^-1) = mu_b(h);
  * a stabilizer family nu_b, left-invariant on the finite stabilizer G_b
    and so a constant times counting measure there, stored as that one
    weight per b, with the same compatibility: nu_{g.b} = nu_b;
  * an orbit family mubar_b, weights on the orbit of b, compatible with
    the action itself: mubar_{g.b}(g.c) = mubar_b(c).

The three are linked by the disintegration identity

    sum_h mu_b(h) f(h) = sum_{c in G.b} mubar_b(c) sum_{h in G_b} nu_b(h) f(k_c h)

for every real function f on the group, where k_c is any coset
representative with k_c.b = c; the constant weight nu_b makes the inner
sum independent of which representative is chosen.  solve_orbit_family
reads mubar off it at the indicators of the representatives, for any mu.

Normalized families are built from a positive weight function psi(h, b)
that is conjugation-compatible, psi(g h g^-1, g.b) = psi(h, b), and does
not vanish identically on any stabilizer.  Finite groups carry no modular
correction: the modulus is 1 and the scaling freedom of the group family
is a single positive constant (the `scale` of counting_family).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMeasureError, DomainError, StructuralError
from .groups import GroupAction, _float_table, _row_blocks, _rows
from .reporting import ValidationReport, _count, _local, _worst


class GroupMeasureFamily:
    def __init__(self, action: GroupAction, weights: np.ndarray, haar: bool = False):
        self.action = action
        self.weights = _float_table(weights, "group family", (action.base_size, action.group.order))
        self.haar = haar  # advisory flag: weights constant per b
        if _has_negative(self.weights):
            raise StructuralError("group family weights must be nonnegative")


class StabilizerMeasureFamily:
    def __init__(self, action: GroupAction, weights: np.ndarray):  # weights[b]: the mass of each element of G_b
        self.action = action
        self.weights = _float_table(weights, "stabilizer family", (action.base_size,))
        if np.any(self.weights < 0):  # a NaN is not below 0 and hides no entry that is
            raise StructuralError("stabilizer family weights must be nonnegative")


class OrbitMeasureFamily:
    def __init__(self, action: GroupAction, weights: np.ndarray):  # weights[b, c], zero off the orbit of b
        m = action.base_size
        self.action = action
        self.weights = _float_table(weights, "orbit family", (m, m))
        if _has_negative(self.weights):
            raise StructuralError("orbit family weights must be nonnegative")
        off = self.weights[action.coset_reps < 0]
        if off.size and np.any(off != 0.0):
            raise StructuralError("orbit family has weight off the orbit")


class PsiFunction:
    """Positive weight function used to normalize measure families."""

    def __init__(self, action: GroupAction, values: np.ndarray):
        self.action = action
        self.values = _float_table(values, "psi", (action.group.order, action.base_size))
        if _has_negative(self.values):
            raise StructuralError("psi must be nonnegative")


class DeltaFunction:
    """Stabilizer-supported density with unit nu-mass on each stabilizer."""

    def __init__(self, action: GroupAction, values: np.ndarray):  # values zero off the stabilizer of b
        self.action = action
        self.values = _float_table(values, "delta", (action.group.order, action.base_size))
        if _off_stabilizers(self.values, action):
            raise StructuralError("delta has support off the stabilizer")


def _has_negative(table: np.ndarray) -> bool:
    """Whether some entry of a 2-d table is below 0, counted one row block
    at a time, so a broadcast view is never compared whole; a NaN is not
    below 0 and hides no entry that is."""
    return _count(_rows(len(table), table.shape[1], lambda rows: table[rows] < 0, _local))[0] > 0


def _off_stabilizers(values: np.ndarray, action: GroupAction) -> bool:
    """Whether values, indexed [h, b], is not 0 (a NaN included) at some h
    outside the stabilizer of b: whether the table has more nonzero entries
    than its columns hold on the stabilizers."""
    on = sum(np.count_nonzero(values[stab, b]) for b, stab in enumerate(action.stabilizers))
    return np.count_nonzero(values) > on


def _stabilizer_mass(psi: PsiFunction) -> np.ndarray:
    """[b] -> the sum of psi(h, b) over the stabilizer of b, 0.0 on an empty
    one; summed on the stabilizer alone, so a NaN or an inf off it is not read."""
    return np.array([psi.values[stab, b].sum() for b, stab in enumerate(psi.action.stabilizers)])


# ---------------------------------------------------------------------------
# constructors


def counting_family(action: GroupAction, scale: float = 1.0) -> GroupMeasureFamily:
    """Haar family: constant weight `scale` on every element, every b; a
    read-only view of the one value."""
    if not 0 < scale < np.inf:  # a NaN fails both comparisons
        raise DomainError(f"counting family scale {scale} is not a finite number > 0")
    n, m = action.group.order, action.base_size
    return GroupMeasureFamily(action, np.broadcast_to(float(scale), (m, n)), haar=True)


def counting_stabilizer_family(action: GroupAction, scale: float = 1.0) -> StabilizerMeasureFamily:
    """Constant weight `scale` on each stabilizer."""
    if not 0 < scale < np.inf:
        raise DomainError(f"stabilizer counting scale {scale} is not a finite number > 0")
    return StabilizerMeasureFamily(action, np.full(action.base_size, float(scale)))


# ---------------------------------------------------------------------------
# validation


def validate_families(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
    tolerance: float = 1e-9,
) -> ValidationReport:
    """Check the three compatibility laws, each on one base slice per orbit,
    plus any advisory flags.  Witnesses are (g, b, h) for the group family,
    (g, b, c) for the orbit family and (b,) for the Haar flag.  nu's law is
    nu(c) = nu(b0) on each orbit, witness c: the residual _orbit_slice gives
    on the (|B|, |G|) table nu_b(h), S = 0 and T = max_c |nu(c) - nu(b0)|
    (c = b0 is scanned, so a NaN or an inf nu(b0), where S is NaN, is NaN)."""
    from .battery import _view
    return _view("families.family-", tolerance, mu=mu, nu=nu, mubar=mubar)


def _nu_conjugation(nu: StabilizerMeasureFamily) -> tuple[float, tuple | None]:
    action = nu.action

    def orbit(b0):  # [i] -> nu(c) - nu(b0) at the i-th c of the orbit of b0, placed at c
        members = np.flatnonzero(action.coset_reps[b0] >= 0)
        return (lambda i: (int(members[i]),)), nu.weights[members] - nu.weights[b0]

    return _worst(orbit(b0) for b0 in action.domain)


# ---------------------------------------------------------------------------
# disintegration


def fubini_pointwise_residual(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
) -> tuple[float, tuple[int, int] | None]:
    """Exhaustive disintegration check on the indicator basis.

    For f the indicator of one element h, the identity collapses to
    mu_b(h) = mubar_b(h.b) * nu_b, nu_b's weight at k^-1 h in G_b, k the
    representative of h.b; scanning all (b, h) covers a complete basis of
    functions, so a zero residual here implies the identity for every f.
    """
    action = mu.action

    def defect(rows):  # [b, h] for the b in rows
        b = np.arange(action.base_size)[rows, None]
        hb = action.table[:, rows].T  # [b, h] -> h.b
        return mu.weights[rows] - mubar.weights[b, hb] * nu.weights[b]

    return _worst(_rows(action.base_size, action.group.order, defect, _local))


def solve_orbit_family(mu: GroupMeasureFamily, nu: StabilizerMeasureFamily) -> OrbitMeasureFamily:
    """Solve the disintegration identity for the orbit family, every b at once.

    At the indicator of one element h the identity reads
    mu_b(h) = mubar_b(h.b) nu_b (fubini_pointwise_residual); at h = k_c,
    the coset representative of c, it gives

        mubar_b(c) = mu_b(k_c) / nu_b

    exactly, for any mu, and 0 off the orbit.  The identity then holds
    exactly when mu_b is constant on each coset k_c G_b, which
    families.disintegration-pointwise decides.  A stabilizer of no nu-mass,
    nu_b |G_b| not > 0 (a NaN included), is refused, naming the first b.
    """
    action = mu.action
    m = action.base_size
    massless = ~(nu.weights > 0) | np.array([stab.size == 0 for stab in action.stabilizers])
    if massless.any():
        b = int(np.flatnonzero(massless)[0])
        raise DegenerateMeasureError(f"stabilizer weights at b={b} must be strictly positive")
    weights = np.zeros((m, m))
    for rows in _row_blocks(m, m):
        reps = action.coset_reps[rows]  # [b, c] -> k_c, -1 off the orbit
        solved = mu.weights[np.arange(m)[rows, None], reps] / nu.weights[rows, None]
        weights[rows] = np.where(reps >= 0, solved, 0.0)
    return OrbitMeasureFamily(action, weights)


# ---------------------------------------------------------------------------
# psi-normalized families


def psi_indicator_identity(action: GroupAction) -> PsiFunction:
    """psi(h, b) = [h = e]: the simplest class function, positive at the
    identity of every stabilizer."""
    n, m = action.group.order, action.base_size
    vals = np.zeros((n, m))
    vals[action.group.identity, :] = 1.0
    return PsiFunction(action, vals)


def validate_psi(psi: PsiFunction, tolerance: float = 1e-9) -> ValidationReport:
    """Conjugation compatibility, on one base slice per orbit (witness
    (g, h, b)), and positive mass on each stabilizer, which with psi >= 0
    gives a positive total unless a NaN, failing conjugation, hides it."""
    from .battery import _view
    return _view("psi.", tolerance, psi=psi)


def construct_normalized_families(
    psi: PsiFunction,
) -> tuple[GroupMeasureFamily, StabilizerMeasureFamily, OrbitMeasureFamily]:
    """Counting families rescaled so psi integrates to 1 against each.

        mu_b = counting / Z_b,   Z_b = sum_h psi(h, b)
        nu_b = counting / Z'_b,  Z'_b = sum_{h in G_b} psi(h, b)

    and the orbit family solved from the disintegration identity.  The
    compatibilities are inherited from psi's own, exactly: conjugation
    permutes each sum.  mu is a read-only (|B|, |G|) view of its |B|
    weights, and nu is the |B| weights 1 / Z'_b.
    """
    action = psi.action
    n, m = action.group.order, action.base_size
    zs = _stabilizer_mass(psi)  # (|B|,)
    # ~(sum > 0), so a NaN sum is no mass; the stabilizer's first, so that a
    # NaN off a stabilizer of no mass does not name the column instead
    if not np.all(zs > 0):
        b = int(np.flatnonzero(~(zs > 0))[0])
        raise DegenerateMeasureError(f"psi has no mass on the stabilizer of b={b}")
    z = psi.values.sum(axis=0)  # (|B|,)
    if not np.all(z > 0):
        b = int(np.flatnonzero(~(z > 0))[0])
        raise DegenerateMeasureError(f"psi has no mass at b={b}")

    mu = GroupMeasureFamily(action, np.broadcast_to((1.0 / z)[:, None], (m, n)), haar=True)
    nu = StabilizerMeasureFamily(action, 1.0 / zs)
    mubar = solve_orbit_family(mu, nu)
    return mu, nu, mubar


def validate_delta(delta: DeltaFunction, nu: StabilizerMeasureFamily, tolerance: float = 1e-9) -> ValidationReport:
    """Unit mass against nu on each stabilizer (delta is zero off it), and
    conjugation compatibility delta(g h g^-1, g.b) = delta(h, b) on one base
    slice per orbit."""
    from .battery import _view
    return _view("delta.", tolerance, delta=delta, nu=nu)


def dirac_delta(nu: StabilizerMeasureFamily) -> DeltaFunction:
    """delta(h, b) = [h = e] / nu_b: the canonical unit-mass density."""
    action = nu.action
    e = action.group.identity
    w = nu.weights
    massless = ~(w > 0)  # a NaN weight is no mass
    if massless.any():
        b = int(np.flatnonzero(massless)[0])
        raise DegenerateMeasureError(f"nu gives the identity no mass at b={b}")
    vals = np.zeros((action.group.order, action.base_size))
    vals[e, :] = 1.0 / w
    return DeltaFunction(action, vals)
