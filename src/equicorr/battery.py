"""The law table behind every report, and the one-call property battery.

Each check is declared once, as a row of _LAWS: its report name, the
inputs it reads, its tolerance kind (_report) and its scan, which returns
(residual, witness), or None to report the check skipped.  A row runs
when every input it reads is present, a scenario field or a value derived
from them (_DERIVED); a row named with "{}" runs once per entry of a dict.
run_structural runs the structural rows, run_battery every row, and each
validate_* function is the view of its own rows (_view).

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

What the group constructor guarantees has no row (row e and column e of
the table are the identity, inv holds right inverses), and neither has
what another row decides: the left inverses (an associative table with a
two-sided identity and right inverses is a group, so group-associativity
decides them), psi's total mass at b (psi >= 0, psi-conjugation reads
every entry), or Mackey preservation, which `xcorr.equivariance`
decides, as (omega * f~)(h, .) = T(h^-1.f) for the induced map T.

The battery draws nothing at random, and the report is sorted by check
name, so its bytes depend on the scenario and the tolerance alone.
"""

from __future__ import annotations

import math
from importlib import import_module

import numpy as np

from . import bundles, groups, measures, transforms, xcorr
from .bundles import _orbit_slice
from .groups import _rows
from .measures import fubini_pointwise_residual
from .reporting import DEFAULT_TOLERANCE, Check, ValidationReport, _count, _local, _worst, check_from_residual
from .serialize import Scenario
from .transforms import filter_operator, kernel_operator, lift_kernel_to_filter, project_filter_to_kernel

BUNDLE_TOLERANCE = 1e-9  # bound of the bundle laws' float checks, whatever the run's tolerance


def run_battery(scn: Scenario, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Every check of run_structural, then the battery's own: equivariance,
    necessity, the lift and projection theorems and the checks of the
    built-in scenario families."""
    return _report(_LAWS, _Inputs(vars(scn), scenario=scn, group=scn.group), tolerance, BUNDLE_TOLERANCE).sorted()


def run_structural(scn: Scenario, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Structure and constraint checks only: axioms, cocycle, family
    compatibilities, and the pointwise constraints of whatever filter,
    kernel, theta, and delta the scenario carries.  No random sections."""
    return _report(_STRUCTURAL, _Inputs(vars(scn), scenario=scn, group=scn.group), tolerance, BUNDLE_TOLERANCE).sorted()


def _view(prefix: str, tolerance: float = 0.0, short: bool = True, **fields) -> ValidationReport:
    """A validator's report: the laws whose names start with prefix, on the
    given fields, in table order.  tolerance stands for the run's and the
    bundle tolerance; short names a check by the last part of its name."""
    report = _report([law for law in _LAWS if law[0].startswith(prefix)], _Inputs(fields), tolerance, tolerance)
    for check in report.checks if short else ():
        check.name = check.name.rsplit(".", 1)[1]
    return report


def _report(laws, inputs: _Inputs, tolerance: float, bundle_tolerance: float) -> ValidationReport:
    """The check of each law whose inputs are all present, in table order,
    a law named with "{}" once per entry of the dict its "{}" read names, in
    ascending key order.  A derived input is dropped after the last law
    that reads it.  The tolerance kinds: "exact" 0, "tolerance" the run's,
    "bundle" the bundle laws', "reported" a value reported, never asserted,
    or else the extras key of a scale."""
    last = {key.partition(".")[0]: i for i, (_, reads, _, _) in enumerate(laws) for key in reads}
    tolerances = {"exact": 0.0, "tolerance": tolerance, "bundle": bundle_tolerance, "reported": math.inf}
    checks = []
    for i, (name, reads, kind, scan) in enumerate(laws):
        each = next((key.partition(".")[0] for key in reads if "{}" in key), None)  # the dict a "{}" law runs over
        for entry in sorted(inputs[each] or ()) if each else ("",):
            args = [inputs[key.format(entry)] for key in reads]
            if any(arg is None for arg in args):
                continue
            found, label = scan(*args), name.format(entry)
            tolerance = tolerances[kind] if kind in tolerances else inputs[f"extras.{kind}"]
            if found is None or kind == "reported":  # a failed precondition, or a value not asserted
                checks.append(Check(label, 0.0 if found is None else found[0], tolerance, True, skipped=True))
            else:
                checks.append(check_from_residual(label, found[0], tolerance, found[1]))
        for head in [head for head, j in last.items() if j == i and head in _DERIVED]:
            inputs.pop(head, None)
    return ValidationReport(checks)


class _Inputs(dict):
    """What the laws read, by name: the fields given, a scenario's in a
    battery, and what _DERIVED derives from them, on first read.  A dotted
    name reads one entry of a dict, as "extras.dx" or "lifts.global" does;
    what is neither given nor derivable reads None."""

    def __missing__(self, key: str):
        head, dot, entry = key.partition(".")
        if dot:
            return None if self[head] is None else self[head].get(entry)
        reads, build = _DERIVED.get(key, ((), lambda: None))
        args = [self[name] for name in reads]
        self[key] = None if any(arg is None for arg in args) else build(*args)
        return self[key]


# what the laws read beyond the given fields, each built on first read from
# its inputs, when none is None, by a build that looks its function up when
# it runs (so a test may replace it).  The matrices and lifts are first read
# by the battery's own laws, the lifts after the equivariance checks, which
# reach the battery's peak memory, so as not to add to it
_DERIVED = {
    "bundles": (("input_bundle", "output_bundle"), lambda e, f: {"input": e} | ({} if f is e else {"output": f})),
    "haar_mu": (("mu",), lambda mu: mu if mu.haar else None),
    "fubini": (("mu", "nu", "mubar"), lambda *given: fubini_pointwise_residual(*given)),
    "filter_op": (("filt", "mu"), lambda *given: filter_operator(*given)),  # the filter's induced map
    "kernel_op": (("kernel", "mubar"), lambda *given: kernel_operator(*given)),  # the kernel's transform
    "lifts": (  # the kernel's lift along each theta, by name
        ("kernel", "delta", "thetas"),
        lambda kern, delta, thetas: {name: lift_kernel_to_filter(kern, t, delta) for name, t in sorted(thetas.items())},
    ),
    "lift_ops": (("lifts", "mu"), lambda lifts, mu: {name: filter_operator(f, mu) for name, f in lifts.items()}),
    "lift_pair": (("lifts",), lambda lifts: tuple(lifts.values()) if len(lifts) == 2 else None),
    "projection": (("filt", "nu"), lambda *given: project_filter_to_kernel(*given)),  # the filter's projection
    "line_grid": (("scenario",), lambda scn: scn if scn.name.startswith("line-grid") else None),
    "circle_grid": (("scenario",), lambda scn: scn if scn.name.startswith("circle-grid") else None),
    "builders": ((), lambda: import_module(".scenarios", __package__)),  # their oracles; validate never imports them
}


def _compare(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, tuple | None]:  # witness (c, b, i, j)
    return _worst(_rows(len(lhs), lhs[0].size, lambda c: lhs[c] - rhs[c], _local))


def _agreement(lhs: np.ndarray, rhs: np.ndarray, fubini: tuple) -> tuple[float, tuple | None] | None:
    # a theorem's agreement rests on the disintegration identity: None, skipped, where it fails
    return _compare(lhs, rhs) if fubini[0] <= 1e-9 else None


# the rows, (report name, inputs read, tolerance kind, scan): the structural
# ones, then, in _LAWS, the battery's own
_STRUCTURAL = (
    ("group.group-associativity", ("group",), "exact", groups._associativity),
    ("action.action-identity", ("action",), "exact",  # e.b = b
     lambda a: _count([(lambda b: (a.group.identity, b), a.table[a.group.identity] != np.arange(a.base_size))])),
    ("action.action-compatibility", ("action",), "exact", groups._action_compatibility),
    ("bundle.{}.bundle-fiber-dim-orbit-constant", ("bundles.{}",), "exact", bundles._fiber_dim_orbit_constant),
    ("bundle.{}.bundle-identity-slice", ("bundles.{}",), "bundle", bundles._identity_slice),
    ("bundle.{}.bundle-padding-zero", ("bundles.{}",), "exact", bundles._padding_zero),
    ("bundle.{}.bundle-cocycle", ("bundles.{}",), "bundle", bundles._cocycle),
    ("families.family-mu-conjugation", ("mu",), "tolerance",  # witness (g, b, h)
     lambda mu: _orbit_slice(mu.weights.T, mu.action, True, lambda g, h, b: (g, b, h))),
    ("families.family-nu-conjugation", ("nu",), "tolerance", measures._nu_conjugation),
    ("families.family-mubar-pushforward", ("mubar",), "tolerance",  # witness (g, b, c)
     lambda mubar: _orbit_slice(mubar.weights.T, mubar.action, False, lambda g, c, b: (g, b, c))),
    ("families.family-mu-haar-flag", ("haar_mu",), "tolerance",  # the spread of each mu_b, witness (b,)
     lambda mu: _worst([(_local, mu.weights.max(axis=1) - mu.weights.min(axis=1))])),
    ("psi.psi-conjugation", ("psi",), "tolerance", lambda psi: _orbit_slice(psi.values, psi.action, True, _local)),
    ("psi.psi-stabilizer-nonvanishing", ("psi",), "exact",  # ~(mass > 0): a NaN mass is no mass
     lambda psi: _count([(_local, ~(measures._stabilizer_mass(psi) > 0))])),
    ("delta.delta-normalization", ("delta", "nu"), "tolerance",  # [b] -> mass - 1
     lambda delta, nu: _worst([(_local, np.einsum("hb,b->b", delta.values, nu.weights) - 1.0)])),
    ("delta.delta-conjugation", ("delta",), "tolerance",
     lambda delta: _orbit_slice(delta.values, delta.action, True, _local)),
    ("families.disintegration-pointwise", ("fubini",), "tolerance", lambda found: found),
    ("filter.filter-faint-constraint", ("filt",), "tolerance", xcorr._faint_constraint),
    ("kernel.kernel-constraint", ("kernel",), "tolerance", transforms._kernel_constraint),
    ("kernel.kernel-support-invariance", ("kernel",), "exact", transforms._support_invariance),
    ("theta.{}.theta-section", ("thetas.{}", "kernel"), "exact", transforms._theta_section),
    ("theta.{}.theta-translation", ("thetas.{}", "kernel"), "exact", transforms._theta_translation),
)

_LAWS = _STRUCTURAL + (
    ("xcorr.equivariance", ("filter_op", "input_bundle", "output_bundle"), "tolerance",
     transforms.operator_equivariance_residual),
    ("transform.equivariance", ("kernel_op", "input_bundle", "output_bundle"), "tolerance",
     transforms.operator_equivariance_residual),
    ("transform.necessity", ("kernel", "mubar"), "exact",  # orbit pairs [c, b] of no positive weight, NaN too
     lambda kern, mubar: _count([(_local, ((kern.action.coset_reps >= 0) & ~(mubar.weights > 0)).T)])),
    ("lift.{}.filter-faint-constraint", ("lifts.{}",), "tolerance", xcorr._faint_constraint),
    ("lift.{}.transform-agreement", ("lift_ops.{}", "kernel_op", "fubini"), "tolerance", _agreement),
    # the lifts' matrices are dropped here, before the lifts are projected back
    ("lift.pair.same-transform", ("lift_pair", "lift_ops"), "tolerance", lambda _, ops: _compare(*ops.values())),
    ("lift.{}.project-roundtrip", ("lifts.{}", "nu", "kernel"), "tolerance",
     lambda lift, nu, kern: _compare(project_filter_to_kernel(lift, nu).matrices, kern.matrices)),
    ("projection.transform-agreement", ("filter_op", "projection", "mubar", "fubini"), "tolerance",
     lambda op, kern, mubar, fubini: _agreement(op, kernel_operator(kern, mubar), fubini)),
    ("projection.kernel.kernel-constraint", ("projection",), "tolerance", transforms._kernel_constraint),
    ("projection.kernel.kernel-support-invariance", ("projection",), "exact", transforms._support_invariance),
    # what the built-in families promise, each where the data it reads is
    # present, since a scenario file may leave any of it out
    ("support.segments-vs-rectangle",  # witness (h, b)
     ("builders", "scenario", "lifts", "lifts.global", "lifts.special", "extras.band_spacing", "extras.eps_steps"),
     "exact", lambda builders, scn, lifts, *_: builders.banded_support_mismatch(scn, lifts)),
    ("quadrature.continuum-gap", ("builders", "line_grid", "lifts.global", "extras.dx"), "dx",
     lambda builders, scn, lift, _: (builders.line_grid_oracle_residual(scn, lift), None)),  # first order in dx
    ("rotation.grid-aligned", ("builders", "circle_grid", "filt"), "tolerance",  # three grid steps
     lambda builders, scn, _: (
         builders.circle_offgrid_residual(scn, 3 * builders.circle_grid_step(scn.action.base_size)), None)),
    ("rotation.off-grid-gap", ("builders", "circle_grid", "filt"), "reported",  # approximate
     lambda builders, scn, *_: (builders.circle_offgrid_residual(scn, 0.4321), None)),
)
