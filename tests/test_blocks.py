"""The row-blocked scans against their one-block scans, and their peaks.

Each scan below forms its (|G|, |B|) temporaries one row block of
`groups._BLOCK_ENTRIES` entries at a time.  With the constant patched to
1 every block is one row, and with 1 << 40 the whole table is one block,
as before blocking; outputs, residuals and witnesses must agree bit for
bit, on corrupted inputs so that the witnesses are not None.  On
cyclic(256), whose tables hold four blocks of the default size, each
scan's traced peak above its inputs and output is a few blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from equicorr import groups
from equicorr.bundles import MackeySection, section_to_mackey
from equicorr.groups import FiniteGroup, GroupAction, validate_action, validate_group
from equicorr.measures import (
    GroupMeasureFamily,
    StabilizerMeasureFamily,
    counting_stabilizer_family,
    dirac_delta,
    fubini_pointwise_residual,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections
from equicorr.scenarios import build_scenario
from equicorr.transforms import Kernel, ThetaMap, lift_kernel_to_filter, validate_kernel, validate_theta
from equicorr.xcorr import cross_correlate

from helpers import mackey_preserved, traced_peak, validate_mackey
from test_stacked import FILTERS, KERNELS

WHOLE, ROWS = 1 << 40, 1


def _both(monkeypatch, fn):
    """fn() with one block of every row, then with one row per block."""
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", WHOLE)
    whole = fn()
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", ROWS)
    return whole, fn()


def _same_worst(a, b):
    return (float(a[0]).hex(), a[1]) == (float(b[0]).hex(), b[1])


def _fubini_cases():
    cases = {}
    for spec in ("cyclic(16)", "torus-bands(12)", "dihedral(4, bundle=sign, families=normalized-psi)"):
        scn = build_scenario(spec)
        mu = scn.mu.weights.copy()
        mu[3, 5] += 0.5
        mu[7 % scn.action.base_size, 2] += 0.5  # the same defect, later: the first one is named
        cases[spec] = (GroupMeasureFamily(scn.action, mu), scn.nu, scn.mubar)
        nu = scn.nu.weights.copy()
        nu[1] = np.nan  # the first NaN wins
        cases[f"{spec}-nan"] = (scn.mu, StabilizerMeasureFamily(scn.action, nu), scn.mubar)
    return cases


FUBINI = _fubini_cases()


@pytest.mark.parametrize("name", sorted(FUBINI))
def test_blocked_fubini_matches_the_one_block_scan(name, monkeypatch):
    whole, blocked = _both(monkeypatch, lambda: fubini_pointwise_residual(*FUBINI[name]))
    assert whole[1] is not None and (whole[0] > 0.1 or np.isnan(whole[0]))
    assert _same_worst(whole, blocked)


def _lift_cases():
    cases = {}
    for spec in ("torus-bands(16)", "cyclic(8)", "dihedral(4, bundle=sign)"):
        scn = build_scenario(spec)
        for name, theta in sorted(scn.thetas.items()):
            cases[f"{spec}-{name}"] = (scn.kernel, theta, scn.delta)
        theta = next(iter(scn.thetas.values()))
        reps = theta.reps.copy()
        c, b = np.argwhere(reps >= 0)[1]
        reps[c, b] = (reps[c, b] + 1) % scn.group.order  # breaks the section law at (c, b)
        cases[f"{spec}-bumped-theta"] = (scn.kernel, ThetaMap(scn.action, reps), scn.delta)
        mats = scn.kernel.matrices.copy()
        mats[tuple(np.argwhere(scn.kernel.support)[-1])] += 0.7
        bumped = Kernel(scn.kernel.input_bundle, scn.kernel.output_bundle, mats)
        cases[f"{spec}-bumped-kernel"] = (bumped, theta, scn.delta)
    for name in ("rotation", "rotation-violating", "rotation-from-trivial"):  # 2-d fibers
        kern = KERNELS[name][0]
        action = kern.action
        cases[name] = (kern, ThetaMap(action, action.coset_reps.T), dirac_delta(counting_stabilizer_family(action)))
    return cases


LIFTS = _lift_cases()


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_blocked_lift_matches_the_one_block_scan(name, monkeypatch):
    whole, blocked = _both(monkeypatch, lambda: lift_kernel_to_filter(*LIFTS[name]))
    assert whole.support.any()
    assert blocked.matrices.tobytes() == whole.matrices.tobytes()
    assert blocked.support_index.tobytes() == whole.support_index.tobytes()


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_blocked_cross_correlate_matches_the_one_block_scan(name, monkeypatch):
    # the output of a random section, and the Mackey check with its witness
    filt, mu = FILTERS[name]
    m = section_to_mackey(random_sections(filt.input_bundle, SplitMix64(3), 1)[0])
    whole, blocked = _both(monkeypatch, lambda: (cross_correlate(filt, m, mu), mackey_preserved(filt, mu)))
    assert blocked[0].values.tobytes() == whole[0].values.tobytes()
    (residual, witness), (blocked_residual, blocked_witness) = whole[1], blocked[1]
    assert (float(residual).hex(), witness) == (float(blocked_residual).hex(), blocked_witness)
    assert witness is not None or "violating" not in name


@pytest.mark.parametrize("name", ["rotation", "diagonal", "torus-bands(16)"])
def test_blocked_mackey_periodicity_matches_the_one_block_scan(name, monkeypatch):
    filt, _ = FILTERS[name]
    f = random_sections(filt.input_bundle, SplitMix64(4), 1)[0]
    whole, blocked = _both(monkeypatch, lambda: section_to_mackey(f))
    assert blocked.values.tobytes() == whole.values.tobytes()
    values = whole.values.copy()
    values[2, 1, 0] += 0.5
    m = MackeySection(filt.input_bundle, values)
    whole, blocked = _both(monkeypatch, lambda: validate_mackey(m).checks[0])
    assert whole.witness is not None
    assert (float(whole.residual).hex(), whole.witness) == (float(blocked.residual).hex(), blocked.witness)


def _count_cases():
    scn = build_scenario("torus-bands(12)")
    table = scn.action.table.copy()
    table[5, 3], table[9, 7] = table[5, 7], table[9, 3]  # still a permutation per element, no longer an action
    bad_action = GroupAction(scn.group, scn.action.base, table)
    mats = scn.kernel.matrices.copy()
    mats[np.argwhere(~scn.kernel.support)[[2, 30]].T.tolist()] = 1.0  # two support entries off the invariant support
    bad_support = Kernel(scn.kernel.input_bundle, scn.kernel.output_bundle, mats)
    reps = scn.thetas["global"].reps.copy()
    reps[0, 0] += 1  # breaks the section law at (0, 0)
    reps[3, 5] = -1  # leaves (3, 5) undefined
    bad_theta = ThetaMap(scn.action, reps)
    left = scn.group.left.copy()
    left[1, 13] = left[1, 14]  # a stored row that is no permutation: the commutators fail
    bad_group = FiniteGroup(scn.group.elements, scn.group.identity, left)
    return {
        "group": lambda: validate_group(bad_group),
        "action": lambda: validate_action(bad_action),
        "kernel-support": lambda: validate_kernel(bad_support),
        "theta": lambda: validate_theta(bad_theta, scn.kernel),
        "theta-off-support": lambda: validate_theta(scn.thetas["special"], bad_support),
    }


COUNTS = _count_cases()


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_blocked_counts_match_the_one_block_scan(name, monkeypatch):
    whole, blocked = _both(monkeypatch, COUNTS[name])
    assert not whole.passed
    assert [c.as_dict() for c in blocked.checks] == [c.as_dict() for c in whole.checks]


@pytest.fixture(scope="module")
def cyclic256():
    scn = build_scenario("cyclic(256)")
    assert scn.group.order * scn.action.base_size >= 4 * groups._BLOCK_ENTRIES
    return scn


def test_fubini_peak_is_a_few_blocks(cyclic256):
    scn = cyclic256
    (residual, _), peak = traced_peak(lambda: fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar))
    assert residual == 0.0
    assert peak < 5 * groups._BLOCK_ENTRIES * 8


def test_lift_peak_is_its_filter_and_a_few_blocks(cyclic256):
    scn = cyclic256
    lifted, peak = traced_peak(lambda: lift_kernel_to_filter(scn.kernel, scn.thetas["derived"], scn.delta))
    output = lifted.matrices.nbytes + lifted.support.nbytes + lifted.support_index.nbytes
    assert peak - output < 5 * groups._BLOCK_ENTRIES * 8


def test_cross_correlate_peak_is_its_output_and_a_few_blocks(cyclic256):
    scn = cyclic256
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(1), 1)[0])
    out, peak = traced_peak(lambda: cross_correlate(scn.filt, m, scn.mu))
    assert peak - out.values.nbytes < 5 * groups._BLOCK_ENTRIES * 8
