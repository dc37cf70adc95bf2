"""Scalar reference helpers and test-only oracles shared by the tests."""

from __future__ import annotations

import numpy as np

from equicorr.errors import StructuralError
from equicorr.groups import FiniteGroup, GroupAction, stabilizer
from equicorr.measures import GroupMeasureFamily, OrbitMeasureFamily, PsiFunction, StabilizerMeasureFamily
from equicorr.rng import SplitMix64
from equicorr.scenarios import Scenario, _banded_lifts, _filter_support_coords
from equicorr.xcorr import Filter


def mul(grp: FiniteGroup, g: int, h: int) -> int:
    """g h, read from the table."""
    return int(grp.cayley[g, h])


def conjugate(grp: FiniteGroup, g: int, h: int) -> int:
    """g h g^-1, read one entry at a time from the table."""
    return int(grp.cayley[grp.cayley[g, h], grp.inv[g]])


def random_group_function(group: FiniteGroup, rng: SplitMix64) -> np.ndarray:
    """A real function on the group with uniform [-1, 1) values."""
    return rng.uniforms(group.order, -1.0, 1.0)


def counting_orbit_family(action: GroupAction, scale: float = 1.0) -> OrbitMeasureFamily:
    """Constant weight `scale` on each orbit."""
    return OrbitMeasureFamily(action, float(scale) * (action.coset_reps >= 0))


def normalization_residual(psi: PsiFunction, mu: GroupMeasureFamily, nu: StabilizerMeasureFamily) -> float:
    """Max deviation of the two normalizations sum psi*mu = sum psi*nu = 1."""
    against_mu = np.einsum("hb,bh->b", psi.values, mu.weights) - 1.0
    against_nu = np.einsum("hb,bh->b", psi.values, nu.weights) - 1.0
    return float(max(np.abs(against_mu).max(), np.abs(against_nu).max()))


def check_fubini(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
    f: np.ndarray,
    b: int,
    reps: np.ndarray | None = None,
) -> float:
    """Residual of the disintegration identity at base point b for a real
    function f on the group.  reps[c] is the coset representative k_c used
    for each c in the orbit of b, -1 elsewhere; by default the smallest,
    action.coset_reps[b]."""
    action = mu.action
    grp = action.group
    f = np.asarray(f, dtype=float)
    if f.shape != (grp.order,):
        raise StructuralError(f"group function shape {f.shape}, expected {(grp.order,)}")
    if reps is None:
        reps = action.coset_reps[b]
    stab = stabilizer(action, b)
    members = np.flatnonzero(reps >= 0)

    lhs = float(mu.weights[b] @ f)
    inner = f[grp.cayley[np.ix_(reps[members], stab)]] @ nu.weights[b, stab]  # one value per orbit member
    rhs = float(mubar.weights[b, members] @ inner)
    return abs(lhs - rhs)


def loop_correlate_sections(filt: Filter, mu: GroupMeasureFamily, values: np.ndarray) -> np.ndarray:
    """The induced map on a stack of plain section values, (..., |B|, dE) ->
    (..., |B|, dF), summed one support position at a time, ascending k in
    the support of omega(., b):

        T(f)(b) = sum_k mu_b(k) omega(k, b) @ actE(k^-1, k.b) @ f(k.b).

    Only the support rows of the induced Mackey section are pulled back;
    no operator matrix is built."""
    action = filt.action
    idx = filt.support_index
    cols = np.arange(action.base_size)
    weights = mu.weights[cols[:, None], idx][:, :, None, None] * filt.matrices[idx, cols[:, None]]
    out = np.zeros(values.shape[:-2] + (action.base_size, filt.output_bundle.dmax))
    for s, k in enumerate(idx.T):
        kb = action.table[k, cols]
        pull = filt.input_bundle.act_matrix[action.group.inv[k], kb]
        pulled = np.einsum("bij,...bj->...bi", pull, values[..., kb, :])
        out += np.einsum("bij,...bj->...bi", weights[:, s], pulled)
    return out


def basis_filter_operator(filt: Filter, mu: GroupMeasureFamily) -> np.ndarray:
    """The matrix of a filter's induced map laid out as kernel_operator,
    read column by column: one `loop_correlate_sections` pass over the
    |B| dE basis sections, [c, b, i, j] coordinate i of T(e_{c,j})(b)."""
    m, de = filt.action.base_size, filt.input_bundle.dmax
    basis = np.eye(m * de).reshape(m * de, m, de)
    return loop_correlate_sections(filt, mu, basis).reshape(m, de, m, -1).transpose(0, 2, 3, 1)


def banded_support_shapes(scn: Scenario) -> dict[str, set[tuple[int, int]]]:
    """Predicted and actual filter supports of the two lifts at base point 0.

    The global theta keeps the offset coordinate at zero, so its lift
    lives on three spatial segments; the special theta spends one offset
    step per band, folding the same kernel into a compact rectangle.
    """
    (segments, lift_g), (rectangle, lift_s) = _banded_lifts(scn)
    n = scn.params["n"]
    return {
        "segments-predicted": segments,
        "rectangle-predicted": rectangle,
        "global-observed": _filter_support_coords(lift_g, n, 0),
        "special-observed": _filter_support_coords(lift_s, n, 0),
    }
