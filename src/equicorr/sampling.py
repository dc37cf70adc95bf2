"""Seeded random test data: sections, filters, kernels, and deliberate
constraint violators.

Valid filters are built orbit by orbit: draw a sparse random row at each
orbit representative, average it over the stabilizer so it satisfies the
stabilizer slice of the faint constraint (group averaging projects onto
the constrained subspace), then expand through the fundamental-domain
codec.  Valid kernels use the same recipe on pair orbits of the diagonal
action with the pair stabilizer.  Violating kernels are random dense
tables over the orbit mask, redrawn until the constraint residual clears
the requested floor.
"""

from __future__ import annotations

import numpy as np

from .bundles import EquivariantBundle, MackeySection, Section, pad_mask, section_to_mackey
from .errors import DomainError
from .groups import FiniteGroup, GroupAction, fundamental_domain, pair_stabilizer, stabilizer
from .measures import orbit_mask
from .rng import SplitMix64
from .transforms import Kernel, random_sections, validate_kernel
from .xcorr import CompressedFilter, Filter, expand_filter

_MAX_TRIES = 16  # redraws of a stabilizer-averaged row or pair matrix that averaged to ~0
_MAX_VIOLATOR_DRAWS = 64


def random_section(bundle: EquivariantBundle, rng: SplitMix64) -> Section:
    return random_sections(bundle, rng, 1)[0]


def random_mackey_sections(bundle: EquivariantBundle, rng: SplitMix64, count: int) -> list[MackeySection]:
    """Valid Mackey sections, induced from random plain sections."""
    return [section_to_mackey(f) for f in random_sections(bundle, rng, count)]


def random_group_function(group: FiniteGroup, rng: SplitMix64) -> np.ndarray:
    return rng.uniforms(group.order, -1.0, 1.0)


def _stabilizer_average_row(
    row: np.ndarray,
    b: int,
    input_bundle: EquivariantBundle,
    output_bundle: EquivariantBundle,
) -> np.ndarray:
    """Project a filter row onto the stabilizer-constrained subspace at b."""
    action = input_bundle.action
    grp = action.group
    ae, af = input_bundle.act_matrix, output_bundle.act_matrix
    stab = stabilizer(action, b)
    acc = np.zeros_like(row)
    for g in stab:
        conj = grp.conjugation_row(g)
        ginv = grp.inv[g]
        # actF(g, b)^-1 = actF(g^-1, g.b) = actF(g^-1, b) on the stabilizer
        acc += np.einsum("ij,hjk,kl->hil", af[ginv, b], row[conj], ae[g, b])
    return acc / len(stab)


def random_valid_filter(
    input_bundle: EquivariantBundle,
    output_bundle: EquivariantBundle,
    rng: SplitMix64,
    support_per_rep: int = 8,
) -> Filter:
    """A filter satisfying the faint constraint, with sparse random rows."""
    action = input_bundle.action
    grp = action.group
    n = grp.order
    de, df = input_bundle.dmax, output_bundle.dmax
    rows: dict[int, np.ndarray] = {}
    for b in fundamental_domain(action):
        for _ in range(_MAX_TRIES):
            row = np.zeros((n, df, de))
            chosen = rng.sample_without_replacement(n, min(support_per_rep, n))
            for h in chosen:
                row[h] = rng.uniforms((df, de), -1.0, 1.0)
            row = _stabilizer_average_row(row, b, input_bundle, output_bundle)
            if np.abs(row).max(initial=0.0) > 1e-6:
                break
        rows[b] = row
    return expand_filter(CompressedFilter(input_bundle, output_bundle, rows))


def _diagonal_pair_orbits(action: GroupAction) -> list[tuple[int, int]]:
    """One representative (c, b) per orbit of the diagonal action on
    same-orbit pairs, smallest (c, b) lexicographically."""
    m = action.base_size
    mask = orbit_mask(action)
    seen = np.zeros((m, m), dtype=bool)
    reps = []
    for b in range(m):
        for c in range(m):
            if mask[b, c] and not seen[c, b]:
                reps.append((c, b))
                seen[action.table[:, c], action.table[:, b]] = True
    return reps


def random_valid_kernel(
    input_bundle: EquivariantBundle,
    output_bundle: EquivariantBundle,
    rng: SplitMix64,
) -> Kernel:
    """A kernel satisfying the compatibility law, built on pair orbits.

    Each pair-orbit representative gets a random matrix averaged
    over the pair stabilizer, then the whole pair orbit is filled through
    the law itself; support is diagonal-invariant by construction.
    """
    action = input_bundle.action
    grp = action.group
    m = action.base_size
    de, df = input_bundle.dmax, output_bundle.dmax
    ae, af = input_bundle.act_matrix, output_bundle.act_matrix
    out = np.zeros((m, m, df, de))
    for c, b in _diagonal_pair_orbits(action):
        stab = pair_stabilizer(action, c, b)
        mat = None
        for _ in range(_MAX_TRIES):
            draw = rng.uniforms((df, de), -1.0, 1.0)
            acc = np.zeros((df, de))
            for g in stab:
                acc += np.einsum("ij,jk,kl->il", af[grp.inv[g], b], draw, ae[g, c])
            acc /= len(stab)
            if np.abs(acc).max(initial=0.0) > 1e-6:
                mat = acc
                break
        if mat is None:
            continue
        # fill the pair orbit: kappa(g.c, g.b) = actF(g, b) kappa(c, b) actE(g^-1, g.c)
        filled = np.zeros((m, m), dtype=bool)
        for g in range(grp.order):
            gc, gb = action.table[g, c], action.table[g, b]
            if filled[gc, gb]:
                continue
            out[gc, gb] = np.einsum("ij,jk,kl->il", af[g, b], mat, ae[grp.inv[g], gc])
            filled[gc, gb] = True
    return Kernel(input_bundle, output_bundle, out)


def random_violating_kernel(
    input_bundle: EquivariantBundle,
    output_bundle: EquivariantBundle,
    rng: SplitMix64,
    min_violation: float = 0.1,
) -> Kernel:
    """A dense random kernel whose compatibility residual is at least
    min_violation; used to exercise the necessity direction."""
    action = input_bundle.action
    m = action.base_size
    de, df = input_bundle.dmax, output_bundle.dmax
    mask = orbit_mask(action).T  # [c, b]
    live_f = pad_mask(output_bundle.fiber_dim, df)  # rows live by the output fiber at b
    live_e = pad_mask(input_bundle.fiber_dim, de)  # columns live by the input fiber at c
    block = live_f[None, :, :, None] & live_e[:, None, None, :]  # (c, b, dF, dE)
    for _ in range(_MAX_VIOLATOR_DRAWS):
        mats = rng.uniforms((m, m, df, de), -1.0, 1.0)
        mats[~mask] = 0.0
        mats *= block  # keep the violation on live fiber coordinates
        kern = Kernel(input_bundle, output_bundle, mats)
        res = validate_kernel(kern).worst().residual
        if res >= min_violation:
            return kern
    raise DomainError(f"could not reach a violation of {min_violation} in {_MAX_VIOLATOR_DRAWS} draws")
