from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from equicorr import battery
from equicorr.battery import run_battery, run_structural
from equicorr.cli import main
from equicorr.errors import DomainError
from equicorr.measures import DeltaFunction, GroupMeasureFamily, OrbitMeasureFamily, fubini_pointwise_residual, validate_families
from equicorr.rng import SplitMix64
from equicorr import sampling, scenarios
from equicorr.sampling import random_violating_kernel
from equicorr.scenarios import build_scenario
from equicorr.serialize import Scenario, report_to_dict, save_document, scenario_to_dict
from equicorr.transforms import Kernel, filter_operator, kernel_operator, operator_equivariance_residual, validate_kernel
from equicorr.xcorr import Filter

from helpers import scenario_lifts, traced_peak
from test_golden import CASES as GOLDEN_CASES


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
    rep = run_battery(build_scenario(spec))
    assert rep.passed, "\n".join(rep.summary_lines())


def test_battery_deterministic(dihedral4_sign):
    docs = [report_to_dict(run_battery(dihedral4_sign)) for _ in range(2)]
    assert docs[0] == docs[1]


def test_passing_checks_carry_no_witness(dihedral4_sign):
    rep = run_battery(dihedral4_sign)
    assert rep.passed
    assert [c.name for c in rep.checks if c.witness is not None] == []


def test_structural_subset_of_battery(bands16):
    structural = {c.name for c in run_structural(bands16).checks}
    full = {c.name for c in run_battery(bands16).checks}
    assert structural
    assert structural <= full


def test_reports_are_sorted_and_labelled(bands16):
    rep = run_battery(bands16)
    names = [c.name for c in rep.checks]
    assert names == sorted(names)
    assert "support.segments-vs-rectangle" in names
    skipped = [c.name for c in rep.checks if c.skipped]
    assert skipped == []  # finite scenarios skip nothing


def test_offgrid_check_reported_but_skipped():
    rep = run_battery(build_scenario("circle-grid(16)"))
    by_name = {c.name: c for c in rep.checks}
    off = by_name["rotation.off-grid-gap"]
    assert off.skipped and off.passed
    assert rep.passed


@pytest.mark.parametrize("spec", ["cyclic(1)", "dihedral(1)", "dihedral(1, bundle=sign)", "torus(1)"])
def test_necessity_passes_when_the_law_is_vacuous(spec):
    # one base point with a trivial or sign bundle: every kernel obeys the
    # compatibility law, and the one orbit pair has a positive weight
    scn = build_scenario(spec)
    assert random_violating_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(1)) is None
    rep = run_battery(scn)
    necessity = {c.name: c for c in rep.checks}["transform.necessity"]
    assert necessity.passed and not necessity.skipped and necessity.residual == 0.0
    assert rep.passed


def test_unreachable_violation_floor_still_raises(monkeypatch):
    scn = build_scenario("cyclic(2)")
    monkeypatch.setattr(sampling, "MIN_VIOLATION", 1e6)
    with pytest.raises(DomainError, match="could not reach a violation"):
        random_violating_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(1))


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
    by_name = {c.name: c for c in run_battery(bands16).checks}
    for name in bands16.thetas:
        check = by_name[f"lift.{name}.transform-agreement"]
        assert not check.passed and check.residual > 0.1
        assert check.witness[:2] == (int(bands16.action.table[h, b]), b)
        assert len(check.witness) == 4


def test_a_nan_filter_entry_stays_local_in_the_operator(cyclic8):
    # a NaN at (k, b) lands only at op[k.b, b]: the scatter-add never
    # multiplies it by the zero coordinates of a basis section, so the
    # equivariance witness agrees with the faint-constraint witness
    filt = cyclic8.filt
    k, b = int(filt.support_index[3, 0]), 3
    mats = filt.matrices.copy()
    mats[k, b] = np.nan
    scn = Scenario(
        cyclic8.name, cyclic8.params, cyclic8.action, cyclic8.input_bundle, cyclic8.output_bundle, cyclic8.mu,
        cyclic8.nu, cyclic8.mubar, cyclic8.psi, cyclic8.delta, Filter(filt.input_bundle, filt.output_bundle, mats),
        cyclic8.kernel, cyclic8.thetas, cyclic8.extras,
    )
    op = filter_operator(scn.filt, scn.mu)
    assert np.argwhere(np.isnan(op)).tolist() == [[int(scn.action.table[k, b]), b, 0, 0]]
    by_name = {c.name: c for c in run_battery(scn).checks}
    assert by_name["filter.filter-faint-constraint"].witness == (3, 0, 0)
    assert by_name["xcorr.equivariance"].witness == (3, 0, 0)
    assert by_name["projection.transform-agreement"].witness == (3, 3, 0, 0)
    assert not by_name["xcorr.equivariance"].passed and not by_name["xcorr.mackey-preserved"].passed


def test_battery_scans_the_disintegration_identity_once(monkeypatch, bands16):
    # the families check and the lift and projection theorems share one scan
    calls = []
    original = battery.fubini_pointwise_residual

    def counted(mu, nu, mubar):
        calls.append(mu)
        return original(mu, nu, mubar)

    monkeypatch.setattr(battery, "fubini_pointwise_residual", counted)
    rep = run_battery(bands16)
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
    rep = run_battery(bands16)
    assert rep.passed
    assert [f is bands16.filt for f in calls["filter"]] == [True] + [False] * len(bands16.thetas)
    assert sum(k is bands16.kernel for k in calls["kernel"]) == 1


@pytest.mark.parametrize(
    "spec, lifts, reader",
    [("torus-bands(16)", 2, "support.segments-vs-rectangle"), ("line-grid(5)", 1, "quadrature.continuum-gap")],
)
def test_battery_lifts_each_theta_once(monkeypatch, spec, lifts, reader):
    # the lift checks and the scenario check `reader` share one lift per
    # theta, wherever the battery reaches the lift from
    scn = build_scenario(spec)
    calls = []
    original = battery.lift_kernel_to_filter

    def counted(kern, theta, delta):
        calls.append(theta)
        return original(kern, theta, delta)

    for module in (battery, scenarios):
        monkeypatch.setattr(module, "lift_kernel_to_filter", counted)
    rep = run_battery(scn)
    assert rep.passed and reader in {c.name for c in rep.checks}
    assert len(calls) == lifts
    assert sorted(map(id, calls)) == sorted(map(id, scn.thetas.values()))


# ---------------------------------------------------------------------------
# necessity, decided from the orbit weights


def blind_torus6():
    """torus(6) whose group family gives weight 0 to every h with
    h.b = b + 1, with the counting stabilizer family: the orbit weight
    mubar_b(c) is then 0 exactly when c - b = 1 (mod 6), and every family
    law and the disintegration identity hold."""
    scn = build_scenario("torus(6)")
    action, n = scn.action, scn.action.base_size
    step = (action.table - np.arange(n)) % n  # [h, b] -> h.b - b
    mu = GroupMeasureFamily(action, np.where(step.T == 1, 0.0, 1.0))
    c_minus_b = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # [b, c]
    mubar = OrbitMeasureFamily(action, np.where(c_minus_b == 1, 0.0, 1.0))
    return Scenario(
        scn.name, scn.params, scn.action, scn.input_bundle, scn.output_bundle, mu, scn.nu, mubar, scn.psi,
        scn.delta, scn.filt, scn.kernel, scn.thetas, scn.extras,
    )


def necessity(scn):
    op = kernel_operator(scn.kernel, scn.mubar)
    return {c.name: c for c in battery._kernel_checks(scn, op, 1e-12)}["transform.necessity"]


def transform_residual(kern, scn) -> float:
    return operator_equivariance_residual(kernel_operator(kern, scn.mubar), scn.input_bundle, scn.output_bundle)[0]


def constraint_residual(kern) -> float:
    return {c.name: c for c in validate_kernel(kern).checks}["kernel-constraint"].residual


def planted_missed(scn, rng, count):
    """The sampled probe this check replaced: how many of `count` planted
    violators have a transform residual at or below 1e-9."""
    draws = (random_violating_kernel(scn.input_bundle, scn.output_bundle, rng) for _ in range(count))
    return sum(transform_residual(bad, scn) <= 1e-9 for bad in draws)


def pair_orbit_violator(scn, c, b, rng):
    """A random violator with its support cut down to the pair orbit of (c, b)."""
    table = scn.action.table
    bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, rng)
    mats = np.zeros_like(bad.matrices)
    mats[table[:, c], table[:, b]] = bad.matrices[table[:, c], table[:, b]]
    return Kernel(scn.input_bundle, scn.output_bundle, mats)


def test_blind_pair_orbit_fails_only_necessity():
    # every other check passes; a violator on the blind pair orbit
    # {(b + 1, b)} is missed (test_necessity_against_the_planted_violators)
    scn = blind_torus6()
    assert validate_families(scn.mu, scn.nu, scn.mubar, tolerance=0.0).passed
    assert fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)[0] == 0.0
    rep = run_battery(scn)
    assert [(c.name, c.residual, c.witness) for c in rep.checks if not c.passed] == [("transform.necessity", 6.0, (0, 5))]


def test_a_nan_orbit_weight_counts_as_blind(dihedral4):
    weights = dihedral4.mubar.weights.copy()
    weights[2, 1] = np.nan
    scn = Scenario(
        dihedral4.name, dihedral4.params, dihedral4.action, dihedral4.input_bundle, dihedral4.output_bundle,
        dihedral4.mu, dihedral4.nu, OrbitMeasureFamily(dihedral4.action, weights), dihedral4.psi, dihedral4.delta,
        dihedral4.filt, dihedral4.kernel, dihedral4.thetas, dihedral4.extras,
    )
    check = necessity(scn)
    assert not check.passed and check.residual == 1.0 and check.witness == (1, 2)


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(8)",
        "dihedral(4)",
        "dihedral(4, bundle=sign)",
        "torus(8)",
        "torus-bands(16)",
        "line-grid(5, dx=0.2)",
        "blind-torus(6)",
    ],
)
def test_necessity_against_the_planted_violators(spec):
    # every built-in that carries a kernel (circle-grid carries none), and
    # the blind torus.  Residual 0: a violator's transform residual is at
    # least the smallest orbit weight times its constraint residual, so none
    # is missed.  Residual above 0: a violator on the witness's pair orbit
    # is missed.
    scn = blind_torus6() if spec == "blind-torus(6)" else build_scenario(spec)
    check, rng = necessity(scn), SplitMix64(41)
    w = scn.mubar.weights[scn.action.coset_reps >= 0]
    if check.residual == 0.0:
        assert check.passed and w.min() > 1e-8
        for _ in range(5):
            bad = random_violating_kernel(scn.input_bundle, scn.output_bundle, rng)
            assert transform_residual(bad, scn) >= w.min() * constraint_residual(bad) * (1 - 1e-12)
        assert planted_missed(scn, rng, 5) == 0
    else:
        assert not check.passed and check.residual == float(np.count_nonzero(~(w > 0)))
        bad = pair_orbit_violator(scn, *check.witness, rng)
        assert constraint_residual(bad) > 0.0
        assert transform_residual(bad, scn) == 0.0



# ---------------------------------------------------------------------------
# the battery runs every check validate runs


# case -> (spec, key path of the part left out of its saved document); validate
# accepts each document, and each leaves out data a scenario-specific check reads
PARTIAL_DOCUMENTS = {
    "torus-bands-no-delta": ("torus-bands(12)", ("delta",)),
    "torus-bands-no-special-theta": ("torus-bands(12)", ("thetas", "special")),
    "line-grid-no-thetas": ("line-grid(5, dx=0.2)", ("thetas",)),
    "line-grid-no-delta": ("line-grid(5, dx=0.2)", ("delta",)),
    "circle-grid-no-extras": ("circle-grid(16)", ("extras",)),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_DOCUMENTS))
def test_battery_runs_every_validate_check_on_partial_documents(tmp_path, capsys, case):
    spec, (*where, key) = PARTIAL_DOCUMENTS[case]
    doc = scenario_to_dict(build_scenario(spec))
    del functools.reduce(dict.__getitem__, where, doc)[key]
    path = tmp_path / f"{case}.json"
    save_document(str(path), doc)
    names = {}
    for command in ("validate", "battery"):
        assert main([command, str(path)]) == 0
        names[command] = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert names["validate"] <= names["battery"]


@pytest.mark.parametrize("spec", sorted({argv[1] for _, argv in GOLDEN_CASES.values() if argv[0] in ("battery", "validate")}))
def test_battery_runs_every_validate_check_on_golden_builtins(spec):
    scn = build_scenario(spec)
    names = [c.name for c in run_battery(scn).checks]
    assert len(names) == len(set(names))
    assert {c.name for c in run_structural(scn).checks} <= set(names)


# ---------------------------------------------------------------------------
# witnesses of the round trips


def test_project_roundtrip_names_the_corrupted_delta_column(cyclic8):
    # delta(e, 5) doubled: every lift of column 5 doubles, so its projection
    # comes back as 2 kappa(c, 5), and the worst entry is the largest |kappa(c, 5)|
    values = cyclic8.delta.values.copy()
    values[cyclic8.group.identity, 5] *= 2.0
    scn = Scenario(
        cyclic8.name, cyclic8.params, cyclic8.action, cyclic8.input_bundle, cyclic8.output_bundle, cyclic8.mu,
        cyclic8.nu, cyclic8.mubar, cyclic8.psi, DeltaFunction(cyclic8.action, values), cyclic8.filt, cyclic8.kernel,
        cyclic8.thetas, cyclic8.extras,
    )
    ops = filter_operator(scn.filt, scn.mu), kernel_operator(scn.kernel, scn.mubar)
    checks = {c.name: c for c in battery._lift_checks(scn, scenario_lifts(scn), *ops, 0.0, 1e-12)}
    column = np.abs(scn.kernel.matrices[:, 5, 0, 0])
    for name in scn.thetas:
        check = checks[f"lift.{name}.project-roundtrip"]
        assert not check.passed and check.residual == column.max()
        assert check.witness == (int(column.argmax()), 5, 0, 0)


def test_lift_checks_hold_no_operator_matrix_they_have_compared():
    # each lift's matrix and its projection back are compared when built and
    # dropped: beside its inputs, the checks hold the two matrices of one
    # comparison and, with two lifts, the first lift's
    scn = build_scenario("cyclic(256)")
    lifts = scenario_lifts(scn)
    filter_op, kernel_op = filter_operator(scn.filt, scn.mu), kernel_operator(scn.kernel, scn.mubar)
    fub = fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)[0]
    checks, peak = traced_peak(lambda: battery._lift_checks(scn, lifts, filter_op, kernel_op, fub, 1e-12))
    assert all(c.passed for c in checks)
    assert peak < 3 * filter_op.nbytes
