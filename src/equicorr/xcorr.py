"""Faintly constrained filters and group cross-correlation.

A filter assigns each pair (h, b) a matrix from the input fiber at b to
the output fiber at b, with finite support per base point, subject to the
faint compatibility law

    omega(g h g^-1, g.b) @ actE(g, b) = actF(g, b) @ omega(h, b)

for all g, h, b.  The law constrains each row only up to conjugation of
the group slot and motion of the base slot; it never forces translation
invariance in h, which is what separates it from the strict equivariance
laws of classical group convolutions.

Cross-correlation consumes a Mackey section and produces one:

    (omega * m)(h, b) = sum_k mu_b(k) omega(k, b) @ m(h k, b),

summed over the support of omega(., b) in ascending element index.  For a
valid filter the output keeps the periodicity law, which the battery
checks exactly on the induced basis sections, one per orbit fiber
coordinate.  On the raw Mackey tables the group acts by
left translation and commutes with any right cross-correlation
whatsoever, so equivariance is falsifiable only at the section level.
The induced map on plain sections, T(f) = (omega * f~)(e, -) with f~ the
Mackey section induced from f, is defined once, by its (|B|, |B|, dF, dE)
matrix (filter_operator), laid out as `transforms.kernel_operator`: entry
[c, b] sums mu_b(k) omega(k, b) @ actE(k^-1, c) over the support k of
omega(., b) with k.b = c.  correlate_sections applies it as
`transforms.integral_transform` applies a kernel's matrix, and T commutes
with every g exactly when the matrix obeys the kernel law, which
`transforms.operator_equivariance_residual` decides exactly.

Filters are stored dense over (|G|, |B|) with an explicit support mask
derived at construction: an entry belongs to the support exactly when its
matrix has a nonzero coefficient, so an all-zero matrix never counts as
support.  Every sum above visits only the support, through a (|B|, s_max)
index of ascending support rows built once per filter, so a faintly
constrained filter with s_max << |G| costs s_max / |G| of a dense one.
cross_correlate is the one Mackey-level sum; alive at once are the input
section, its (|G|, |B|, dF) output, and one row block of a gathered
(|G|, |B|) slice with its product.

validate_filter checks the law on one base slice per orbit instead of for
every g (`bundles._orbit_slice`).  The random builder and the loader of a
compressed filter document, which holds the columns at the orbit
representatives, rebuild the rest of the table through the same
transport (`bundles._transport`).
"""

from __future__ import annotations

import numpy as np

from .bundles import EquivariantBundle, MackeySection, _orbit_slice
from .errors import StructuralError
from .groups import _float_table, _row_blocks
from .measures import GroupMeasureFamily
from .reporting import ValidationReport, _local, check_from_residual


def _common_action(e_bundle: EquivariantBundle, f_bundle: EquivariantBundle):
    if e_bundle.action is not f_bundle.action:
        raise StructuralError("input and output bundles must share one action")
    return e_bundle.action


class Filter:
    """Matrix-valued filter omega(h, b): fiber_E(b) -> fiber_F(b)."""

    def __init__(self, input_bundle: EquivariantBundle, output_bundle: EquivariantBundle, matrices: np.ndarray):
        action = _common_action(input_bundle, output_bundle)
        n, m = action.group.order, action.base_size
        self.input_bundle, self.output_bundle = input_bundle, output_bundle
        self.matrices = _float_table(matrices, "filter", (n, m, output_bundle.dmax, input_bundle.dmax))  # padded
        # support is derived, never stored: exact-zero matrices are not support
        self.support = np.any(self.matrices != 0.0, axis=(2, 3))  # (|G|, |B|) bool
        # row b lists the support of omega(., b) ascending, padded with the
        # first elements outside it: their matrices are exactly zero, so a
        # padded term adds nothing
        s_max = int(self.support.sum(axis=0).max(initial=0))
        self.support_index = np.empty((m, s_max), dtype=np.intp)
        for cols in _row_blocks(m, n):  # the sort's (|G|, |B|) index, a block of columns at a time
            self.support_index[cols] = np.argsort(~self.support[:, cols], axis=0, kind="stable")[:s_max].T

    @property
    def action(self):
        return self.input_bundle.action


def validate_filter(filt: Filter, tolerance: float = 1e-9) -> ValidationReport:
    """Residual of the faint compatibility law on one base slice per orbit;
    witness coordinates (g, h, b)."""
    worst, witness = _orbit_slice(
        filt.matrices, filt.action, True, _local, filt.output_bundle.act_matrix, filt.input_bundle.act_matrix
    )
    report = ValidationReport()
    report.add(check_from_residual("filter-faint-constraint", worst, tolerance, witness))
    return report


# ---------------------------------------------------------------------------
# cross-correlation


def _support_weights(filt: Filter, mu: GroupMeasureFamily) -> np.ndarray:
    """(|B|, s_max): mu_b(k) for k in the support of omega(., b)."""
    if mu.action is not filt.action:
        raise StructuralError("measure family is over a different action")
    idx = filt.support_index
    return mu.weights[np.arange(idx.shape[0])[:, None], idx]


def cross_correlate(filt: Filter, m: MackeySection, mu: GroupMeasureFamily) -> MackeySection:
    """(omega * m)(h, b) = sum_k mu_b(k) omega(k, b) @ m(h k, b), accumulated
    one support position at a time, ascending k in the support of omega(., b)."""
    if m.bundle is not filt.input_bundle:
        raise StructuralError("section does not live in the filter's input bundle")
    weights = _support_weights(filt, mu)
    grp = filt.action.group
    n, nb, de = grp.order, filt.action.base_size, filt.input_bundle.dmax
    cols = np.arange(nb)
    flat = m.values.reshape(n * nb, de)
    out = np.zeros((n, nb, filt.output_bundle.dmax))
    blocks = _row_blocks(n, nb * max(de, out.shape[2]))
    prod = np.empty((min(n, blocks[0].stop),) + out.shape[1:])
    for s, k in enumerate(filt.support_index.T):
        weighted = weights[:, s, None, None] * filt.matrices[k, cols]
        kinv = grp.inv[k][:, None]
        for rows in blocks:  # a row block of h at a time
            # [h, b] -> h k_b = (k_b^-1 h^-1)^-1, read from the contiguous rows
            # k_b^-1 instead of the strided columns k_b
            y = grp.inv[grp.cayley[kinv, grp.inv[rows]]].T.astype(np.intp, order="C")
            # in intp, formed in place: the offset y * nb + b reaches |G| |B|, past INDEX_DTYPE
            y *= nb
            y += cols
            out[rows] += np.einsum("bij,...bj->...bi", weighted, flat.take(y, axis=0), out=prod[: len(y)])
    return MackeySection(filt.output_bundle, out)


def filter_operator(filt: Filter, mu: GroupMeasureFamily) -> np.ndarray:
    """The matrix of the induced map T(f) = (omega * f~)(e, -), laid out as
    `transforms.kernel_operator`: [c, b] -> the sum of mu_b(k) omega(k, b) @
    actE(k^-1, c) over the support k of omega(., b) with k.b = c."""
    return _support_scatter(filt, _support_weights(filt, mu))


def _support_scatter(filt: Filter, weights: np.ndarray) -> np.ndarray:
    """[c, b] -> the sum of weights[b, s] omega(k, b) @ actE(k^-1, c) over
    k = support_index[b, s] with k.b = c, ascending k, one scatter-add per
    support position s: mu_b(k) weighs the induced map, nu_b the
    projection (`transforms.project_filter_to_kernel`)."""
    action = filt.action
    m = action.base_size
    cols = np.arange(m)
    op = np.zeros((m, m, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for s, k in enumerate(filt.support_index.T):
        kb = action.table[k, cols]
        weighted = weights[:, s, None, None] * filt.matrices[k, cols]
        op[kb, cols] += weighted @ filt.input_bundle.act_matrix[action.group.inv[k], kb]
    return op


def correlate_sections(filt: Filter, mu: GroupMeasureFamily, values: np.ndarray) -> np.ndarray:
    """The induced map T on a stack of plain section values, (..., |B|, dE)
    -> (..., |B|, dF), applied through its matrix (filter_operator)."""
    action = filt.action
    values = np.asarray(values, dtype=float)
    expected = (action.base_size, filt.input_bundle.dmax)
    if values.shape[-2:] != expected:
        raise StructuralError(f"section values shape {values.shape}, expected (..., {expected[0]}, {expected[1]})")
    return np.einsum("cbij,...cj->...bi", filter_operator(filt, mu), values)
