"""Orbitwise integral transforms and the filter <-> kernel dictionary.

A kernel assigns matrices kappa(c, b): fiber_E(c) -> fiber_F(b) to pairs
of base points in a common orbit, subject to the compatibility law

    actF(g, b) @ kappa(c, b) = kappa(g.c, g.b) @ actE(g, c),

whose support is invariant under the diagonal action.  The induced
transform integrates over the orbit against the orbit measure family:

    T(f)(b) = sum_{c in G.b} mubar_b(c) kappa(c, b) @ f(c),

summed in ascending base index.  The compatibility law is exactly what
makes T commute with the group action on sections, and necessity holds
too: any linear map on sections commutes with G exactly when its matrix
obeys the same law, so operator_equivariance_residual decides
equivariance on the matrix, for every g, with no sampled sections.  The
defects of the matrix of T are mubar_b(c) times those of kappa, so a
kernel violating the law on a strictly positive mubar is always caught.

Projection averages a filter over each stabilizer into a kernel:

    kappa(k.b, b) = nu_b sum_{h in G_b} omega(k h, b) @ actE((k h)^-1, k.b),

independent of the representative k, nu_b being one weight on G_b: the
induced map's support scatter (`xcorr.filter_operator`) with nu_b in
place of mu_b(k h).  Lifting goes the other way and needs two extra
pieces of scenario data: a section theta of the orbit map,
theta(c, b).b = c with g theta(c, b) = theta(g.c, g.b) g on the kernel
support, and a stabilizer density delta of unit nu-mass:

    omega(h, b) = delta(theta(h.b, b)^-1 h, b) kappa(h.b, b) @ actE(h, b)

on pairs with (h.b, b) in the kernel support, zero elsewhere.  Theta is
data, never inferred: validate_theta counts the support pairs it misses
or where it breaks a law, and nothing here raises on a theta.

Both directions are tied together numerically.  A lifted filter induces
T_kappa, and a filter induces the transform of its projection, whenever
the disintegration identity holds.  Each is an identity between two
linear maps on sections, so it is compared on their (|B|, |B|, dF, dE)
matrices, exactly, with no sampled sections: the matrix of T_kappa is the
weighted table mubar_b(c) kappa(c, b) (kernel_operator), and a filter's
induced map T(f) = (omega * f~)(e, -) is defined by its matrix
(`xcorr.filter_operator`).  Projecting a lifted filter returns the
original kernel.  The opposite composition lift(project(omega)) is NOT
an identity in general; distinct theta choices produce filters with
visibly different supports inducing one and the same transform.
"""

from __future__ import annotations

import numpy as np

from .bundles import EquivariantBundle, Section, _orbit_slice
from .errors import StructuralError
from .groups import GroupAction, _float_table, _index_table, _row_blocks, _rows
from .measures import DeltaFunction, OrbitMeasureFamily, StabilizerMeasureFamily
from .reporting import ValidationReport, _count, _local, check_from_residual
from .xcorr import Filter, _common_action, _support_scatter, filter_operator  # filter_operator: re-exported


class Kernel:
    """Matrix table kappa(c, b), indexed [c, b], zero off orbit pairs."""

    def __init__(self, input_bundle: EquivariantBundle, output_bundle: EquivariantBundle, matrices: np.ndarray):
        action = _common_action(input_bundle, output_bundle)
        m = action.base_size
        self.input_bundle, self.output_bundle = input_bundle, output_bundle
        self.matrices = _float_table(matrices, "kernel", (m, m, output_bundle.dmax, input_bundle.dmax))
        self.support = np.any(self.matrices != 0.0, axis=(2, 3))  # (|B|, |B|) bool, derived
        _, at = _count([(_local, self.support & (action.coset_reps < 0).T)])  # support[c, b] needs c in G.b
        if at:
            raise StructuralError(f"kernel entry at (c={at[0]}, b={at[1]}) is off the orbit of b")

    @property
    def action(self):
        return self.input_bundle.action


def validate_kernel(kern: Kernel, tolerance: float = 1e-9) -> ValidationReport:
    """Compatibility law residual on one base slice per orbit (witness
    (g, c, b)) plus exact invariance of the support under the diagonal action.
    The g that keep the support invariant are closed under products, so the
    support scan covers a generating set; its count is over (generator, c, b)."""
    action = kern.action
    m = action.base_size

    def moved():  # [c, b] -> support(g.c, g.b) != support(c, b) for each generator g, a row block of c at a time
        for g in action.group.generators:
            tg = action.table[g]
            yield from _rows(m, m, lambda c: kern.support[tg[c, None], tg] != kern.support[c], lambda c, b: (g, c, b))

    worst, witness = operator_equivariance_residual(kern.matrices, kern.input_bundle, kern.output_bundle)
    count, support_witness = _count(moved())
    report = ValidationReport()
    report.add(check_from_residual("kernel-constraint", worst, tolerance, witness))
    report.add(check_from_residual("kernel-support-invariance", count, 0.0, support_witness))
    return report


# ---------------------------------------------------------------------------
# transform


def integral_transform(kern: Kernel, mubar: OrbitMeasureFamily, f: Section) -> Section:
    """T(f)(b) = sum_c mubar_b(c) kappa(c, b) @ f(c), ascending c."""
    if f.bundle is not kern.input_bundle:
        raise StructuralError("section does not live in the kernel's input bundle")
    if mubar.action is not kern.action:
        raise StructuralError("orbit family is over a different action")
    return Section(kern.output_bundle, np.einsum("cbij,cj->bi", kernel_operator(kern, mubar), f.values))


def kernel_operator(kern: Kernel, mubar: OrbitMeasureFamily) -> np.ndarray:
    """The matrix of T, (|B|, |B|, dF, dE): [c, b] -> mubar_b(c) kappa(c, b),
    so that T(f)(b) = sum_c [c, b] @ f(c)."""
    with np.errstate(invalid="ignore"):  # an inf weight times a 0 entry is NaN: reported, not warned about
        return mubar.weights.T[:, :, None, None] * kern.matrices


def operator_equivariance_residual(
    op: np.ndarray, input_bundle: EquivariantBundle, output_bundle: EquivariantBundle
) -> tuple[float, tuple[int, int, int] | None]:
    """Residual of T(g.f) = g.T(f) over every g, for the linear map T on
    sections with matrix op, laid out as kernel_operator.  With D_g(c, b) =
    op(g.c, g.b) A_E(g, c) - A_F(g, b) op(c, b), the defect of the kernel
    law at (g, c, b),

        T(g.f)(g.b) - (g.T(f))(g.b) = sum_c D_g(c, b) @ f(c),

    so T commutes with every g exactly when op obeys the law, which is the
    compatibility law of a kernel table.  The law is decided on one base
    slice per orbit (`bundles._orbit_slice`); returns its residual R and
    witness (g, c, b).

    Let a be the largest row or column sum of |A(g, b)| over both bundles,
    P_F the all-g residual over sections F with entries in [-1, 1], and
    P_basis the all-g residual at the signed basis sections, whose values
    are the entries of D_g.  Given the cocycle law of both bundles,

        P_F <= |B| dE (a^2 + 2a) R,    R <= a P_basis.
    """
    action = _common_action(input_bundle, output_bundle)
    return _orbit_slice(op, action, False, _local, output_bundle.act_matrix, input_bundle.act_matrix)


# ---------------------------------------------------------------------------
# projection


def project_filter_to_kernel(filt: Filter, nu: StabilizerMeasureFamily) -> Kernel:
    """Average the filter over each stabilizer:

        kappa(k.b, b) = nu_b sum_{h in G_b} omega(k h, b) @ actE((k h)^-1, k.b),

    summed over the support k h of omega(., b) only, each term weighed by
    nu_b.
    """
    if nu.action is not filt.action:
        raise StructuralError("stabilizer family is over a different action")
    weights = np.broadcast_to(nu.weights[:, None], filt.support_index.shape)  # [b, s] -> nu_b
    return Kernel(filt.input_bundle, filt.output_bundle, _support_scatter(filt, weights))


# ---------------------------------------------------------------------------
# theta


class ThetaMap:
    """Partial section of the orbit map: reps[c, b] = theta(c, b), -1 where
    undefined.  Supplied by scenario data, validated here, never inferred."""

    def __init__(self, action: GroupAction, reps: np.ndarray):
        m = action.base_size
        self.action = action
        self.reps = _index_table(reps, "theta", (m, m), action.group.order, low=-1)


def validate_theta(theta: ThetaMap, kern: Kernel) -> ValidationReport:
    """Check theta on the kernel support: the section law theta(c, b).b = c,
    which an undefined theta(c, b) violates, and translation compatibility
    g theta(c, b) = theta(g.c, g.b) g.  Both laws are integer identities;
    residuals count violations, held at 0.

    Translation is checked for every g in a generating set, with witness
    (g, c, b).  A pair that g moves off the support, or with theta undefined
    at either end, counts as a violation; with that, the g that pass are
    closed under products, so the generator scan is exact.
    """
    if theta.action is not kern.action:
        raise StructuralError("theta is over a different action")
    action = theta.action
    grp = action.group
    supp = kern.support
    m = action.base_size
    cols = np.arange(m)
    report = ValidationReport()

    def unsectioned(c):  # [c, b] -> a support pair with theta(c, b) undefined or theta(c, b).b != c
        reps = theta.reps[c]
        # an undefined -1 reads the last row of a table; its own mask outvotes that
        return supp[c] & ((reps < 0) | (action.table[reps, cols] != cols[c, None]))

    count, witness = _count(_rows(m, m, unsectioned, _local))
    report.add(check_from_residual("theta-section", count, 0, witness))

    def broken(g, c):  # [c, b] -> on a support pair, g theta(c, b) != theta(g.c, g.b) g, or either is undefined
        tg = action.table[g]
        gc = tg[c, None]
        reps, moved = theta.reps[c], theta.reps[gc, tg]
        return supp[c] & (~supp[gc, tg] | (reps < 0) | (moved < 0) | (grp.cayley[g, reps] != grp.cayley[moved, g]))

    count, witness = _count(p for g in grp.generators for p in _rows(m, m, lambda c: broken(g, c), lambda c, b: (g, c, b)))
    report.add(check_from_residual("theta-translation", count, 0, witness))
    return report


# ---------------------------------------------------------------------------
# lift


def lift_kernel_to_filter(kern: Kernel, theta: ThetaMap, delta: DeltaFunction) -> Filter:
    """omega(h, b) = delta(theta(h.b, b)^-1 h, b) kappa(h.b, b) @ actE(h, b)
    on pairs with (h.b, b) in the kernel support and theta defined there,
    zero elsewhere.  The lift decides no law of theta (validate_theta
    does): where theta breaks its section law, theta(h.b, b)^-1 h leaves
    the stabilizer of b, and delta, zero off it, zeroes the lift there.
    """
    action = kern.action
    if theta.action is not action or delta.action is not action:
        raise StructuralError("theta or delta is over a different action")
    grp = action.group
    cols = np.arange(action.base_size)
    mats = np.empty((grp.order,) + kern.matrices.shape[1:])
    for rows in _row_blocks(grp.order, mats[0].size):  # a row block of h at a time
        hb = action.table[rows]  # [h, b] -> h.b
        th = theta.reps[hb, cols]
        mask = kern.support[hb, cols] & (th >= 0)
        s = grp.cayley[grp.inv[np.where(mask, th, grp.identity)], np.arange(grp.order)[rows, None]]  # theta^-1 h
        dvals = np.where(mask, delta.values[s, cols], 0.0)
        ksel = kern.matrices[hb, cols]  # [h, b] -> kappa(h.b, b)
        np.einsum("hb,hbij,hbjk->hbik", dvals, ksel, kern.input_bundle.act_matrix[rows], out=mats[rows])
    return Filter(kern.input_bundle, kern.output_bundle, mats)
