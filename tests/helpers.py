"""Scalar reference helpers and test-only oracles shared by the tests."""

from __future__ import annotations

import numpy as np

from equicorr.groups import FiniteGroup, GroupAction
from equicorr.measures import GroupMeasureFamily, OrbitMeasureFamily, PsiFunction, StabilizerMeasureFamily
from equicorr.rng import SplitMix64


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
