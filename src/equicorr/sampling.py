"""Seeded random test data: sections, filters, kernels, and deliberate
constraint violators.

Valid filters and kernels are built the way validate_filter and
validate_kernel check them (`bundles._orbit_slice`).  At each
fundamental-domain point b0 the builder draws the table's rows at b0
(sparse random filter rows, or one dense kernel column kappa(., b0) over
the orbit of b0) and replaces them by the mean of their copies carried by
each element of Stab(b0).  Group averaging projects onto the rows that
satisfy the stabilizer slice of the law; the coset representatives then
carry those rows to the rest of the orbit (`bundles._transport`).  A
filter row that averages to ~0 is redrawn.  A kernel column needs no
redraw: a pair orbit that the average forces to zero stays out of the
support.  Violating kernels are random dense tables over the orbit mask,
redrawn until the constraint residual clears MIN_VIOLATION; a draw
with residual exactly 0 shows the law is vacuous, and none is returned.
The battery draws none of them: it decides necessity from the orbit
weights, and the violators serve as a brute-force reference for that
decision.
"""

from __future__ import annotations

import numpy as np

from .bundles import EquivariantBundle, Section, _carry, _transport, pad_mask
from .errors import DomainError
from .rng import SplitMix64
from .transforms import Kernel, validate_kernel
from .xcorr import Filter

SUPPORT_PER_REP = 8  # random filter entries drawn per fundamental-domain point, before averaging
MIN_VIOLATION = 0.1  # constraint residual a violating kernel must reach
_MAX_TRIES = 16  # redraws of a stabilizer-averaged filter row that averaged to ~0
_MAX_VIOLATOR_DRAWS = 64


def random_sections(bundle: EquivariantBundle, rng: SplitMix64, count: int) -> list[Section]:
    """Sections with uniform [-1, 1) coordinates on live fiber slots."""
    mask = pad_mask(bundle.fiber_dim, bundle.dmax)
    return [Section(bundle, np.where(mask, rng.uniforms(mask.shape, -1.0, 1.0), 0.0)) for _ in range(count)]


def random_valid_filter(input_bundle: EquivariantBundle, output_bundle: EquivariantBundle, rng: SplitMix64) -> Filter:
    """A filter satisfying the faint constraint, with sparse random rows."""
    action = input_bundle.action
    n = action.group.order
    mats = (output_bundle.act_matrix, input_bundle.act_matrix)
    table = np.zeros((n, action.base_size, output_bundle.dmax, input_bundle.dmax))
    for b in action.domain:
        for _ in range(_MAX_TRIES):
            table[:, b] = 0.0
            for h in rng.sample_without_replacement(n, min(SUPPORT_PER_REP, n)):
                table[h, b] = rng.uniforms(table.shape[2:], -1.0, 1.0)
            table[:, b] = _carry(table, action, True, *mats, action.stabilizers[b], b).mean(axis=0)
            if np.abs(table[:, b]).max(initial=0.0) > 1e-6:
                break
    _transport(table, action, True, *mats)
    return Filter(input_bundle, output_bundle, table)


def random_valid_kernel(
    input_bundle: EquivariantBundle,
    output_bundle: EquivariantBundle,
    rng: SplitMix64,
) -> Kernel:
    """A kernel satisfying the compatibility law, with one dense random
    column kappa(., b0) over each orbit."""
    action = input_bundle.action
    m = action.base_size
    mats = (output_bundle.act_matrix, input_bundle.act_matrix)
    table = np.zeros((m, m, output_bundle.dmax, input_bundle.dmax))
    for b0 in action.domain:
        members = np.flatnonzero(action.coset_reps[b0] >= 0)
        table[members, b0] = rng.uniforms((len(members),) + table.shape[2:], -1.0, 1.0)
        table[:, b0] = _carry(table, action, False, *mats, action.stabilizers[b0], b0).mean(axis=0)
    _transport(table, action, False, *mats)
    return Kernel(input_bundle, output_bundle, table)


def random_violating_kernel(
    input_bundle: EquivariantBundle, output_bundle: EquivariantBundle, rng: SplitMix64
) -> Kernel | None:
    """A dense random kernel whose compatibility residual is at least
    MIN_VIOLATION, a brute-force probe of the necessity direction.  None when a
    draw has residual exactly 0: a random dense kernel obeys the law only
    when every kernel over the orbit mask does, so no violator exists."""
    action = input_bundle.action
    m = action.base_size
    de, df = input_bundle.dmax, output_bundle.dmax
    mask = (action.coset_reps >= 0).T  # [c, b]
    live_f = pad_mask(output_bundle.fiber_dim, df)  # rows live by the output fiber at b
    live_e = pad_mask(input_bundle.fiber_dim, de)  # columns live by the input fiber at c
    block = live_f[None, :, :, None] & live_e[:, None, None, :]  # (c, b, dF, dE)
    for _ in range(_MAX_VIOLATOR_DRAWS):
        mats = rng.uniforms((m, m, df, de), -1.0, 1.0)
        mats[~mask] = 0.0
        mats *= block  # keep the violation on live fiber coordinates
        kern = Kernel(input_bundle, output_bundle, mats)
        res = validate_kernel(kern).worst().residual
        if res == 0.0:
            return None
        if res >= MIN_VIOLATION:
            return kern
    raise DomainError(f"could not reach a violation of {MIN_VIOLATION} in {_MAX_VIOLATOR_DRAWS} draws")
