"""Conjugation-compatible measure families on a group action.

Three families travel together.  For each base point b:

  * a group family mu_b, a weight per group element, satisfying the
    pushforward compatibility mu_{g.b}(g h g^-1) = mu_b(h);
  * a stabilizer family nu_b, weights supported on the stabilizer of b,
    with the same compatibility and left-invariant (hence constant on the
    stabilizer, since the stabilizer is finite);
  * an orbit family mubar_b, weights on the orbit of b, compatible with
    the action itself: mubar_{g.b}(g.c) = mubar_b(c).

The three are linked by the disintegration identity

    sum_h mu_b(h) f(h) = sum_{c in G.b} mubar_b(c) sum_{h in G_b} nu_b(h) f(k_c h)

for every real function f on the group, where k_c is any coset
representative with k_c.b = c; left-invariance of nu_b makes the inner
sum independent of which representative is chosen.  solve_orbit_measure
inverts it for mubar when mu_b has constant weight.

Normalized families are built from a positive weight function psi(h, b)
that is conjugation-compatible, psi(g h g^-1, g.b) = psi(h, b), and does
not vanish identically on any stabilizer.  Finite groups carry no modular
correction: the modulus is 1 and the scaling freedom of the group family
is a single positive constant (the `scale` of counting_family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import _orbit_slice
from .errors import DegenerateMeasureError, DomainError, PreconditionError, StructuralError
from .groups import GroupAction, _count_of_rows, _float_table, _worst_of_rows, coset_table, stabilizer_mask
from .reporting import ValidationReport, _argmax_coords, _count_of, _count_over, _maxabs, _worst_of_grid, check_from_residual


@dataclass(eq=False)
class GroupMeasureFamily:
    action: GroupAction
    weights: np.ndarray  # (|B|, |G|) nonnegative
    haar: bool = False  # advisory flag: weights constant per b

    def __post_init__(self):
        n, m = self.action.group.order, self.action.base_size
        self.weights = _float_table(self.weights, "group family", (m, n))
        if np.any(self.weights < 0):  # a NaN does not hide a negative entry
            raise StructuralError("group family weights must be nonnegative")


@dataclass(eq=False)
class StabilizerMeasureFamily:
    action: GroupAction
    weights: np.ndarray  # (|B|, |G|), zero off the stabilizer of b

    def __post_init__(self):
        n, m = self.action.group.order, self.action.base_size
        self.weights = _float_table(self.weights, "stabilizer family", (m, n))
        if np.any(self.weights < 0):
            raise StructuralError("stabilizer family weights must be nonnegative")
        if _off_stabilizers(self.weights.T, self.action):
            raise StructuralError("stabilizer family has weight off the stabilizer")


@dataclass(eq=False)
class OrbitMeasureFamily:
    action: GroupAction
    weights: np.ndarray  # (|B|, |B|): weights[b, c], zero off the orbit of b

    def __post_init__(self):
        m = self.action.base_size
        self.weights = _float_table(self.weights, "orbit family", (m, m))
        if np.any(self.weights < 0):
            raise StructuralError("orbit family weights must be nonnegative")
        off = self.weights[self.action.coset_reps < 0]
        if off.size and np.any(off != 0.0):
            raise StructuralError("orbit family has weight off the orbit")


@dataclass(eq=False)
class PsiFunction:
    """Positive weight function used to normalize measure families."""

    action: GroupAction
    values: np.ndarray  # (|G|, |B|)

    def __post_init__(self):
        n, m = self.action.group.order, self.action.base_size
        self.values = _float_table(self.values, "psi", (n, m))
        if np.any(self.values < 0):
            raise StructuralError("psi must be nonnegative")


@dataclass(eq=False)
class DeltaFunction:
    """Stabilizer-supported density with unit nu-mass on each stabilizer."""

    action: GroupAction
    values: np.ndarray  # (|G|, |B|), zero off the stabilizer of b

    def __post_init__(self):
        n, m = self.action.group.order, self.action.base_size
        self.values = _float_table(self.values, "delta", (n, m))
        if _off_stabilizers(self.values, self.action):
            raise StructuralError("delta has support off the stabilizer")


def _off_stabilizers(values: np.ndarray, action: GroupAction) -> bool:
    """Whether values, indexed [h, b], is not 0 (a NaN included) at some h
    outside the stabilizer of b; one row block of h at a time."""
    b = np.arange(action.base_size)
    return _count_of_rows(len(values), action.base_size, lambda h: (values[h] != 0.0) & (action.table[h] != b))[0] > 0


# ---------------------------------------------------------------------------
# constructors


def counting_family(action: GroupAction, scale: float = 1.0) -> GroupMeasureFamily:
    """Haar family: constant weight `scale` on every element, every b; a
    read-only view of the one value."""
    if scale <= 0:
        raise DomainError("counting family scale must be positive")
    n, m = action.group.order, action.base_size
    return GroupMeasureFamily(action, np.broadcast_to(float(scale), (m, n)), haar=True)


def counting_stabilizer_family(action: GroupAction, scale: float = 1.0) -> StabilizerMeasureFamily:
    """Constant weight `scale` on each stabilizer (left-invariant by construction)."""
    if scale <= 0:
        raise DomainError("stabilizer counting scale must be positive")
    weights = stabilizer_mask(action).astype(float)
    weights *= float(scale)
    return StabilizerMeasureFamily(action, weights)


# ---------------------------------------------------------------------------
# validation


def validate_families(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
    tolerance: float = 1e-9,
) -> ValidationReport:
    """Check the three compatibility laws, each on one base slice per orbit,
    plus nu left-invariance and any advisory flags.  Witnesses are (g, b, h)
    for the group and stabilizer families, (g, b, c) for the orbit family
    and (b,) for the Haar flag."""
    action = mu.action
    report = ValidationReport()

    def law(name: str, weights: np.ndarray, conjugate: bool) -> None:  # weights indexed [b, r]
        res, wit = _orbit_slice(weights.T, action, conjugate)
        report.add(check_from_residual(name, res, tolerance, wit and (wit[0], wit[2], wit[1])))

    law("family-mu-conjugation", mu.weights, True)
    law("family-nu-conjugation", nu.weights, True)

    # left-invariance on a finite stabilizer forces constant weight there
    smask = stabilizer_mask(action)
    hi = np.max(nu.weights, axis=1, where=smask, initial=-np.inf)
    lo = np.min(nu.weights, axis=1, where=smask, initial=np.inf)
    res, wit = _worst_of_grid(np.where(smask.any(axis=1), hi - lo, 0.0))
    report.add(check_from_residual("family-nu-left-invariance", res, tolerance, wit))
    law("family-mubar-pushforward", mubar.weights, False)

    if mu.haar:
        spread, wit = _worst_of_grid(mu.weights.max(axis=1) - mu.weights.min(axis=1))
        report.add(check_from_residual("family-mu-haar-flag", spread, tolerance, wit))
    return report


# ---------------------------------------------------------------------------
# disintegration


def fubini_pointwise_residual(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
) -> tuple[float, tuple[int, int] | None]:
    """Exhaustive disintegration check on the indicator basis.

    For f the indicator of one element h, the identity collapses to
    mu_b(h) = mubar_b(h.b) * nu_b(k^-1 h) with k the representative of
    h.b; scanning all (b, h) covers a complete basis of functions, so a
    zero residual here implies the identity for every f.
    """
    action = mu.action
    grp = action.group

    def defect(rows):  # [b, h] for the b in rows
        b = np.arange(action.base_size)[rows, None]
        hb = action.table[:, rows].T  # [b, h] -> h.b
        k_inv_h = grp.cayley[grp.inv[action.coset_reps[b, hb]], np.arange(grp.order)]
        return mu.weights[rows] - mubar.weights[b, hb] * nu.weights[b, k_inv_h]

    return _worst_of_rows(action.base_size, grp.order, defect)


def solve_orbit_measure(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    b: int,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Solve the disintegration identity for the orbit weights at b.

    Testing against coset indicator functions decouples the unknowns:

        mubar_b(c) = mu_b(k_c G_b) / nu_b(G_b).

    Requires mu_b constant (Haar) and nu_b strictly positive on the
    stabilizer.  Returns a full-length weight row (zero off the orbit).
    """
    action = mu.action
    stab, members, kh = coset_table(action, b)  # row c of kh: the coset k_c G_b
    nu_mass = float(nu.weights[b, stab].sum())
    if nu_mass <= 0 or np.any(nu.weights[b, stab] <= 0):
        raise DegenerateMeasureError(f"stabilizer weights at b={b} must be strictly positive")
    w = mu.weights[b]
    if w.size and float(w.max() - w.min()) > tolerance:
        raise PreconditionError(f"group family at b={b} is not constant; cannot solve for orbit weights")
    row = np.zeros(action.base_size)
    row[members] = w[kh].sum(axis=1) / nu_mass
    return row


def solve_orbit_family(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    tolerance: float = 1e-9,
) -> OrbitMeasureFamily:
    rows = [solve_orbit_measure(mu, nu, b, tolerance) for b in range(mu.action.base_size)]
    return OrbitMeasureFamily(mu.action, np.stack(rows, axis=0))


# ---------------------------------------------------------------------------
# psi-normalized families


def psi_indicator_identity(action: GroupAction) -> PsiFunction:
    """psi(h, b) = [h = e]: the simplest class function, positive at the
    identity of every stabilizer."""
    n, m = action.group.order, action.base_size
    vals = np.zeros((n, m))
    vals[action.group.identity, :] = 1.0
    return PsiFunction(action, vals)


def psi_from_class_function(action: GroupAction, values: np.ndarray) -> PsiFunction:
    """psi(h, b) = psi0(h) for a nonnegative class function psi0 (constant on
    conjugacy classes); conjugation compatibility is then automatic."""
    grp = action.group
    values = np.asarray(values, dtype=float)
    if values.shape != (grp.order,):
        raise StructuralError(f"class function shape {values.shape}, expected {(grp.order,)}")
    # [h] -> psi0(g h g^-1) != psi0(h); the g that fix psi0 under conjugation
    # are closed under products, so a generating set decides it exactly
    _, witness = _count_over(grp.generators, lambda g: _count_of(values[grp.cayley[grp.cayley[g], grp.inv[g]]] != values))
    if witness is not None:
        raise PreconditionError(f"psi0 is not a class function: varies under conjugation by g={witness[0]}")
    vals = np.repeat(values[:, None], action.base_size, axis=1)
    return PsiFunction(action, vals)


def validate_psi(psi: PsiFunction, tolerance: float = 1e-9) -> ValidationReport:
    """Conjugation compatibility plus nonvanishing: each b needs positive
    total mass and positive mass on its stabilizer.  Conjugation is checked on
    one base slice per orbit, witness (g, h, b)."""
    action = psi.action
    report = ValidationReport()

    worst, witness = _orbit_slice(psi.values, action, True)
    report.add(check_from_residual("psi-conjugation", worst, tolerance, witness))

    count, wit = _count_of(psi.values.sum(axis=0) <= 0)
    report.add(check_from_residual("psi-nonvanishing", count, 0.0, wit))

    count, wit = _count_of((psi.values.T * stabilizer_mask(action)).sum(axis=1) <= 0)
    report.add(check_from_residual("psi-stabilizer-nonvanishing", count, 0.0, wit))
    return report


def construct_normalized_families(
    psi: PsiFunction,
) -> tuple[GroupMeasureFamily, StabilizerMeasureFamily, OrbitMeasureFamily]:
    """Counting families rescaled so psi integrates to 1 against each.

        mu_b = counting / Z_b,   Z_b = sum_h psi(h, b)
        nu_b = counting / Z'_b,  Z'_b = sum_{h in G_b} psi(h, b)

    and the orbit family solved from the disintegration identity.  The
    compatibilities are inherited from psi's own, exactly: conjugation
    permutes each sum.  mu is a read-only (|B|, |G|) view of its |B|
    weights.
    """
    action = psi.action
    n, m = action.group.order, action.base_size
    z = psi.values.sum(axis=0)  # (|B|,)
    if np.any(z <= 0):
        b = int(np.flatnonzero(z <= 0)[0])
        raise DegenerateMeasureError(f"psi has no mass at b={b}")
    smask = stabilizer_mask(action)  # (|B|, |G|)
    weights = psi.values.T * smask  # psi on each stabilizer, then nu's table, so no second one is formed
    zs = weights.sum(axis=1)  # (|B|,)
    if np.any(zs <= 0):
        b = int(np.flatnonzero(zs <= 0)[0])
        raise DegenerateMeasureError(f"psi has no mass on the stabilizer of b={b}")

    mu = GroupMeasureFamily(action, np.broadcast_to((1.0 / z)[:, None], (m, n)), haar=True)
    weights[...] = smask
    weights /= zs[:, None]
    nu = StabilizerMeasureFamily(action, weights)
    mubar = solve_orbit_family(mu, nu)
    return mu, nu, mubar


def validate_delta(delta: DeltaFunction, nu: StabilizerMeasureFamily, tolerance: float = 1e-9) -> ValidationReport:
    """Unit mass against nu on each stabilizer, and conjugation compatibility
    delta(g h g^-1, g.b) = delta(h, b) on one base slice per orbit."""
    action = delta.action
    report = ValidationReport()

    mass = np.einsum("hb,bh->b", delta.values, nu.weights) - 1.0
    report.add(check_from_residual("delta-normalization", _maxabs(mass), tolerance, _argmax_coords(mass)))

    worst, witness = _orbit_slice(delta.values, action, True)
    report.add(check_from_residual("delta-conjugation", worst, tolerance, witness))
    return report


def dirac_delta(nu: StabilizerMeasureFamily) -> DeltaFunction:
    """delta(h, b) = [h = e] / nu_b(e): the canonical unit-mass density."""
    action = nu.action
    e = action.group.identity
    w = nu.weights[:, e]
    if np.any(w <= 0):
        b = int(np.flatnonzero(w <= 0)[0])
        raise DegenerateMeasureError(f"nu gives the identity no mass at b={b}")
    vals = np.zeros((action.group.order, action.base_size))
    vals[e, :] = 1.0 / w
    return DeltaFunction(action, vals)
