"""One-call property battery for a scenario.

run_battery builds every check the scenario's data supports: group and
action axioms, bundle cocycle, measure compatibilities, the pointwise
disintegration identity, filter constraint and cross-correlation
equivariance, Mackey preservation, kernel constraint, transform
equivariance and its necessity, theta laws, lift and projection
theorems, and their round trip.

Equivariance and the lift and projection theorems are statements about
linear maps on sections, so they are checked exactly on (|B|, |B|, dF, dE)
operator matrices, never on sampled sections.  For these checks each
battery builds the matrix of the filter's induced map
(`xcorr.filter_operator`) and of the kernel's transform
(`transforms.kernel_operator`) once, and it lifts the kernel along each
theta once; the lift theorems and the scenario checks read those lifts.
Equivariance decides the kernel law on a matrix for every g
(`transforms.operator_equivariance_residual`, which states its bounds
against the sampled all-g residual; witness (g, c, b)).
A theorem's residual is the largest entry of the difference of two
matrices, and a failing check names (c, b, i, j); against P, the sampled
residual over sections with entries in [-1, 1], P <= |B| dE R, and R is P
at a signed basis section.  Both theorems need the pointwise
disintegration identity; when it fails their agreement checks are
reported with `skipped: true`.

Necessity, that a kernel whose transform is equivariant obeys the
compatibility law, is decided from the orbit weights alone.  The matrix
of T_kappa is mubar_b(c) kappa(c, b), so given the mubar law (checked as
`families.family-mubar-pushforward`) each defect of it is mubar_b(c)
times the defect of kappa at the same (c, b).  `transform.necessity`
counts the orbit pairs (c, b) whose weight is not positive (a NaN
counts), with tolerance 0 and witness the first (c, b) in row-major
order.  Given the mubar law, both directions are exact.  At residual 0 every violator is
caught: a kappa with constraint residual R gives a transform residual of
at least w R, w the smallest orbit weight, so the planted-violator count
this check replaces (violators of R >= sampling.MIN_VIOLATION whose
transform residual stays at or below 1e-9) is 0 whenever w > 1e-8.  At a
residual above 0 a kernel supported on the pair orbit of the witness has
a transform of residual exactly 0, and it violates the law unless the
law is vacuous on that orbit.

Mackey preservation runs on the induced basis sections e~_{b0,i}, one per
fundamental-domain point b0 and fiber coordinate i < dE(b0), with witness
(b0, i, h, b).  That is exact given the group axioms and the cocycle law,
which the report also checks: on an associative table
omega*(L_g m) = L_g(omega*m) bit for bit, the cocycle law gives
L_g f~ = (g.f)~, and the translates of the e~_{b0,i} span every induced
section.  The Mackey defect D = m - ind(m(e, .)) obeys
D(L_g m)(h, b) = D(m)(g^-1 h, b) - A_F(h^-1, h.b) D(m)(g^-1, h.b), so
against P, the residual over sections with entries in [-1, 1], R <= P and
P <= |B| dE a' (1 + a) R, with a the largest row sum of |A_F| and a' the
largest column sum of |A_E|.  `xcorr.mackey-preserved` decides the same
property as `xcorr.equivariance`, which reads the operator matrix; it
stays because it is the one battery check that runs `cross_correlate`,
the Mackey-level sum behind `equicorr xcorr`.

The battery draws nothing at random, and the report is sorted by check
name, so its bytes depend on the scenario and the tolerance alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bundles import Section, section_to_mackey, validate_bundle, validate_mackey
from .groups import _worst_of_rows, fundamental_domain, validate_action, validate_group
from .measures import GroupMeasureFamily, fubini_pointwise_residual, validate_delta, validate_families, validate_psi
from .reporting import Check, ValidationReport, _count_of, _first_worst, check_from_residual
from .scenarios import Scenario, banded_support_mismatch, circle_offgrid_residual, line_grid_oracle_residual
from .transforms import (
    filter_operator,
    kernel_operator,
    lift_kernel_to_filter,
    operator_equivariance_residual,
    project_filter_to_kernel,
    validate_kernel,
    validate_theta,
)
from .xcorr import Filter, cross_correlate, validate_filter

DEFAULT_TOLERANCE = 1e-12


def _prefixed(report: ValidationReport, prefix: str) -> list[Check]:
    return [replace(c, name=f"{prefix}.{c.name}") for c in report.checks]


def run_battery(scn: Scenario, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Every check of run_structural, then the battery's own: equivariance,
    Mackey preservation, necessity, the lift and projection theorems and
    the checks of the built-in scenario families."""
    fubini = fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)
    filter_op = None if scn.filt is None else filter_operator(scn.filt, scn.mu)
    kernel_op = None if scn.kernel is None else kernel_operator(scn.kernel, scn.mubar)

    report = ValidationReport(_structural_checks(scn, fubini, tolerance))
    report.checks += _filter_checks(scn, filter_op, tolerance)
    report.checks += _kernel_checks(scn, kernel_op, tolerance)
    # the scenario kernel's lift along each theta, built once, and after the
    # checks above, which reach the battery's peak memory, so as not to add to it
    lifts = {}
    if scn.kernel is not None and scn.delta is not None:
        lifts = {name: lift_kernel_to_filter(scn.kernel, t, scn.delta) for name, t in sorted(scn.thetas.items())}
    report.checks += _lift_checks(scn, lifts, filter_op, kernel_op, fubini[0], tolerance)
    report.checks += _scenario_specific_checks(scn, lifts, tolerance)
    return report.sorted()


def run_structural(scn: Scenario, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Structure and constraint checks only: axioms, cocycle, family
    compatibilities, and the pointwise constraints of whatever filter,
    kernel, theta, and delta the scenario carries.  No random sections."""
    fubini = fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)
    return ValidationReport(_structural_checks(scn, fubini, tolerance)).sorted()


def _structural_checks(scn: Scenario, fubini: tuple, tolerance: float) -> list[Check]:
    """fubini is fubini_pointwise_residual's (residual, witness) for the
    scenario's families."""
    checks = []
    checks += _prefixed(validate_group(scn.group), "group")
    checks += _prefixed(validate_action(scn.action), "action")
    checks += _prefixed(validate_bundle(scn.input_bundle), "bundle.input")
    if scn.output_bundle is not scn.input_bundle:
        checks += _prefixed(validate_bundle(scn.output_bundle), "bundle.output")
    checks += _prefixed(validate_families(scn.mu, scn.nu, scn.mubar, tolerance=tolerance), "families")
    if scn.psi is not None:
        checks += _prefixed(validate_psi(scn.psi, tolerance=tolerance), "psi")
    if scn.delta is not None:
        checks += _prefixed(validate_delta(scn.delta, scn.nu, tolerance=tolerance), "delta")
    residual, witness = fubini
    checks.append(check_from_residual("families.disintegration-pointwise", residual, tolerance, witness))
    if scn.filt is not None:
        checks += _prefixed(validate_filter(scn.filt, tolerance=tolerance), "filter")
    if scn.kernel is not None:
        checks += _prefixed(validate_kernel(scn.kernel, tolerance=tolerance), "kernel")
        for name, theta in sorted(scn.thetas.items()):
            checks += _prefixed(validate_theta(theta, scn.kernel), f"theta.{name}")
    return checks


def _equivariance_check(name: str, scn: Scenario, op: np.ndarray, tolerance: float) -> Check:
    residual, witness = operator_equivariance_residual(op, scn.input_bundle, scn.output_bundle)
    return check_from_residual(name, residual, tolerance, witness)


def _filter_checks(scn: Scenario, op: np.ndarray | None, tolerance: float) -> list[Check]:
    """Checks of the filter beyond its constraint; op is the matrix of its
    induced map."""
    if scn.filt is None:
        return []
    checks = [_equivariance_check("xcorr.equivariance", scn, op, tolerance)]
    checks += _mackey_checks(scn.filt, scn.mu, tolerance)
    return checks


def _mackey_checks(filt: Filter, mu: GroupMeasureFamily, tolerance: float) -> list[Check]:
    """Mackey preservation on the induced basis sections e~_{b0,i}, one at a
    time; witness (b0, i, h, b)."""
    bundle = filt.input_bundle
    periodicity = []  # (residual, witness) per basis section
    for b0 in fundamental_domain(filt.action):
        for i in range(bundle.fiber_dim[b0]):
            f = np.zeros((bundle.action.base_size, bundle.dmax))
            f[b0, i] = 1.0
            out = cross_correlate(filt, section_to_mackey(Section(bundle, f)), mu)
            c = validate_mackey(out, tolerance=0.0).worst()  # keeps (h, b) whenever the residual is not 0
            periodicity.append((c.residual, None if c.witness is None else (b0, i) + c.witness))
    worst, witness = _first_worst(periodicity)
    return [check_from_residual("xcorr.mackey-preserved", worst, tolerance, witness)]


def _kernel_checks(scn: Scenario, op: np.ndarray | None, tolerance: float) -> list[Check]:
    """Checks of the kernel beyond its constraint; op is the matrix of its
    transform."""
    if scn.kernel is None:
        return []
    checks = [_equivariance_check("transform.equivariance", scn, op, tolerance)]
    # [c, b]: orbit pairs whose weight mubar_b(c) is not positive, a NaN included
    count, witness = _count_of(((scn.action.coset_reps >= 0) & ~(scn.mubar.weights > 0)).T)
    checks.append(check_from_residual("transform.necessity", count, 0.0, witness))
    return checks


def _lift_checks(
    scn: Scenario,
    lifts: dict[str, Filter],
    filter_op: np.ndarray | None,
    kernel_op: np.ndarray | None,
    fub: float,
    tolerance: float,
) -> list[Check]:
    """The lift and projection theorems; lifts are the scenario kernel's
    lifts by theta name, filter_op and kernel_op the matrices of the
    scenario filter's induced map and of the scenario kernel's transform;
    fub is the families' disintegration residual, the identity the two
    theorems rest on."""
    checks: list[Check] = []

    def compare(name: str, lhs: np.ndarray, rhs: np.ndarray) -> Check:  # witness (c, b, i, j)
        worst, witness = _worst_of_rows(len(lhs), lhs[0].size, lambda c: lhs[c] - rhs[c])
        return check_from_residual(name, worst, tolerance, witness)

    def agreement(name: str, lhs: np.ndarray, rhs: np.ndarray) -> Check:
        if not fub <= 1e-9:
            return Check(name, 0.0, tolerance, True, None, skipped=True)
        return compare(name, lhs, rhs)

    # each matrix is compared as soon as it is built and then dropped; of two
    # lifts, the first one's is kept until lift.pair.same-transform reads it
    first = None
    for name, lifted in lifts.items():
        checks += _prefixed(validate_filter(lifted, tolerance=tolerance), f"lift.{name}")
        op = filter_operator(lifted, scn.mu)
        checks.append(agreement(f"lift.{name}.transform-agreement", op, kernel_op))
        if first is not None:
            checks.append(compare("lift.pair.same-transform", first, op))
        first = op if first is None and len(lifts) == 2 else None
        del op
        back = project_filter_to_kernel(lifted, scn.nu)
        checks.append(compare(f"lift.{name}.project-roundtrip", back.matrices, scn.kernel.matrices))
        del back

    if scn.filt is not None:
        # projection theorem: the filter's induced map is the transform of its projection
        kern = project_filter_to_kernel(scn.filt, scn.nu)
        checks.append(agreement("projection.transform-agreement", filter_op, kernel_operator(kern, scn.mubar)))
        checks += _prefixed(validate_kernel(kern, tolerance=tolerance), "projection.kernel")
    return checks


def _scenario_specific_checks(scn: Scenario, lifts: dict[str, Filter], tolerance: float) -> list[Check]:
    """Checks of what the built-in families promise, each run only when the
    data it reads is present, since a scenario file may leave any of it out;
    lifts are the scenario kernel's lifts by theta name."""
    checks: list[Check] = []
    if {"global", "special"} <= lifts.keys() and {"band_spacing", "eps_steps"} <= scn.extras.keys() and "n" in scn.params:
        mismatch, witness = banded_support_mismatch(scn, lifts)  # witness (h, b)
        checks.append(check_from_residual("support.segments-vs-rectangle", mismatch, 0.0, witness))
    if scn.name.startswith("line-grid") and "global" in lifts and {"dx", "origin"} <= scn.extras.keys():
        gap = line_grid_oracle_residual(scn, lifts["global"])
        # first order in the grid step by design; documents the scale
        checks.append(check_from_residual("quadrature.continuum-gap", gap, scn.extras["dx"]))
    if scn.name.startswith("circle-grid") and scn.filt is not None and "grid_step" in scn.extras and "n" in scn.params:
        aligned = circle_offgrid_residual(scn, 3 * scn.extras["grid_step"])
        checks.append(check_from_residual("rotation.grid-aligned", aligned, tolerance))
        off = circle_offgrid_residual(scn, 0.4321)
        # off-grid rotations are approximate by nature: reported, not asserted
        checks.append(Check("rotation.off-grid-gap", off, float("inf"), True, None, skipped=True))
    return checks
