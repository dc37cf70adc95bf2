from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from equicorr import battery
from equicorr.battery import run_battery, run_structural
from equicorr.errors import DomainError
from equicorr.rng import SplitMix64
from equicorr import sampling
from equicorr.sampling import random_violating_kernel
from equicorr.scenarios import build_scenario
from equicorr.serialize import report_to_dict
from equicorr.xcorr import Filter


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(8)",
        "dihedral(4, bundle=sign)",
        "torus(6)",
        "torus-bands(16)",
        "circle-grid(16)",
        "line-grid(5, dx=0.2)",
    ],
)
def test_battery_green_on_builtins(spec):
    rep = run_battery(build_scenario(spec), seed=1, n_violators=2)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_battery_deterministic(dihedral4_sign):
    docs = [report_to_dict(run_battery(dihedral4_sign, seed=3, n_violators=2)) for _ in range(2)]
    assert docs[0] == docs[1]


def test_passing_checks_carry_no_witness(dihedral4_sign):
    rep = run_battery(dihedral4_sign, seed=1, n_violators=2)
    assert rep.passed
    assert [c.name for c in rep.checks if c.witness is not None] == []


def test_battery_seed_moves_only_the_planted_violators(dihedral4, monkeypatch):
    # the planted kernels are the battery's only draws: a seed changes which
    # kernels are planted, and every reported residual stays put, also off
    # the faint constraint, where the Mackey-level checks fail on the basis
    mats = dihedral4.filt.matrices.copy()
    mats[3, 1, 0, 0] += 0.7
    scn = replace(dihedral4, filt=Filter(dihedral4.input_bundle, dihedral4.output_bundle, mats))
    drawn = []
    original = battery.random_violating_kernel

    def recorded(*args):
        drawn.append(original(*args))
        return drawn[-1]

    monkeypatch.setattr(battery, "random_violating_kernel", recorded)
    reports = [report_to_dict(run_battery(scn, seed=seed, n_violators=2)) for seed in (1, 2)]
    assert reports[0] == reports[1]
    assert not {c["name"]: c for c in reports[0]["checks"]}["xcorr.mackey-preserved"]["pass"]
    assert len(drawn) == 4
    assert all(not np.array_equal(a.matrices, b.matrices) for a, b in zip(drawn[:2], drawn[2:]))


def test_structural_subset_of_battery(bands16):
    structural = {c.name for c in run_structural(bands16).checks}
    full = {c.name for c in run_battery(bands16, seed=0, n_violators=1).checks}
    assert structural
    assert structural <= full


def test_reports_are_sorted_and_labelled(bands16):
    rep = run_battery(bands16, seed=0, n_violators=1)
    names = [c.name for c in rep.checks]
    assert names == sorted(names)
    assert "support.segments-vs-rectangle" in names
    skipped = [c.name for c in rep.checks if c.skipped]
    assert skipped == []  # finite scenarios skip nothing


def test_offgrid_check_reported_but_skipped():
    rep = run_battery(build_scenario("circle-grid(16)"), seed=0, n_violators=1)
    by_name = {c.name: c for c in rep.checks}
    off = by_name["rotation.off-grid-gap"]
    assert off.skipped and off.passed
    assert rep.passed


@pytest.mark.parametrize("spec", ["cyclic(1)", "dihedral(1)", "dihedral(1, bundle=sign)", "torus(1)"])
def test_necessity_probe_skipped_when_the_law_is_vacuous(spec):
    # one base point with a trivial or sign bundle: every kernel obeys the
    # compatibility law, so there is no violator to plant
    scn = build_scenario(spec)
    assert random_violating_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(1)) is None
    rep = run_battery(scn, seed=1)
    probe = {c.name: c for c in rep.checks}["transform.necessity-catches-planted"]
    assert probe.skipped and probe.passed
    assert rep.passed


def test_unreachable_violation_floor_still_raises(monkeypatch):
    scn = build_scenario("cyclic(2)")
    monkeypatch.setattr(sampling, "MIN_VIOLATION", 1e6)
    with pytest.raises(DomainError, match="could not reach a violation"):
        random_violating_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(1))


def test_battery_refuses_a_negative_violator_count():
    with pytest.raises(DomainError, match="n_violators"):
        run_battery(build_scenario("cyclic(2)"), n_violators=-1)


def test_corrupted_lift_fails_transform_agreement_with_witness(monkeypatch, bands16):
    # one corrupted entry (h, b) of the lifted filter changes column b of its
    # operator matrix at row c = h.b, so the witness is (h.b, b, i, j)
    h, b = 5, 3
    lift = battery.lift_kernel_to_filter

    def corrupted(kern, theta, delta):
        filt = lift(kern, theta, delta)
        mats = filt.matrices.copy()
        mats[h, b] += 0.25
        return Filter(filt.input_bundle, filt.output_bundle, mats)

    monkeypatch.setattr(battery, "lift_kernel_to_filter", corrupted)
    by_name = {c.name: c for c in run_battery(bands16, seed=1, n_violators=0).checks}
    for name in bands16.thetas:
        check = by_name[f"lift.{name}.transform-agreement"]
        assert not check.passed and check.residual > 0.1
        assert check.witness[:2] == (int(bands16.action.table[h, b]), b)
        assert len(check.witness) == 4


def test_battery_scans_the_disintegration_identity_once(monkeypatch, bands16):
    # the families check and the lift and projection theorems share one scan
    calls = []
    original = battery.fubini_pointwise_residual

    def counted(mu, nu, mubar):
        calls.append(mu)
        return original(mu, nu, mubar)

    monkeypatch.setattr(battery, "fubini_pointwise_residual", counted)
    rep = run_battery(bands16, seed=1, n_violators=2)
    assert rep.passed and len(calls) == 1
    names = {c.name for c in rep.checks}
    assert {"families.disintegration-pointwise", "projection.transform-agreement"} <= names


def test_battery_builds_each_operator_once(monkeypatch, bands16):
    # filter_operator runs once for the scenario filter and once per theta
    # lift; kernel_operator once for the scenario kernel
    calls = {"filter": [], "kernel": []}
    for key, name in (("filter", "filter_operator"), ("kernel", "kernel_operator")):
        original = getattr(battery, name)

        def counted(table, family, key=key, original=original):
            calls[key].append(table)
            return original(table, family)

        monkeypatch.setattr(battery, name, counted)
    rep = run_battery(bands16, seed=1, n_violators=2)
    assert rep.passed
    assert [f is bands16.filt for f in calls["filter"]] == [True] + [False] * len(bands16.thetas)
    assert sum(k is bands16.kernel for k in calls["kernel"]) == 1
