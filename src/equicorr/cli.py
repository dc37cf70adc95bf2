"""Command line interface.

    equicorr validate  SCENARIO            structural and constraint checks
    equicorr battery   SCENARIO            the full property battery
    equicorr xcorr     SCENARIO            cross-correlate a section
    equicorr transform SCENARIO            apply the kernel transform
    equicorr lift      SCENARIO            kernel -> filter along a theta
    equicorr project   SCENARIO            filter -> kernel
    equicorr demo degeneracy --sizes ...   the stabilizer-size contrast
    equicorr demo quadrature --levels ...  the grid refinement ladder

SCENARIO is either a built-in spec like 'torus-bands(16)' or
'dihedral(4, bundle=sign)', or a path to a scenario JSON file.  Results
go to stdout as JSON (or to --output); human-readable summaries go to
stderr.  Exit status: 0 all checks passed, 1 some check failed, 2
malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DomainError, EquicorrError
from .reporting import DEFAULT_TOLERANCE, ValidationReport, _prefixed, check_from_residual
from .serialize import (
    MACKEY_SCHEMA,
    Scenario,
    dumps,
    filter_to_dict,
    kernel_to_dict,
    load_document,
    mackey_from_dict,
    mackey_to_dict,
    report_to_dict,
    save_document,
    scenario_from_dict,
    section_from_dict,
    section_to_dict,
)

# Every command reads or writes through serialize, which loads the groups,
# bundles, measures, transforms and xcorr it decodes.  Each command imports
# the rest of what it runs itself: validate never loads the scenario
# builders, the sampler or the generator.


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 <= args.tolerance <= sys.float_info.max:  # nan fails both
            raise DomainError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
        return args.handler(args)
    except EquicorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equicorr", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    tolerance_help = (
        "bound of the float laws (families, psi, delta, filter, kernel, lift and projection, equivariance,"
        " Mackey preservation); the bundle checks stay at 1e-9 and the integer laws at 0"
    )
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help=tolerance_help)
    common.add_argument("--seed", type=int, default=0, help="seed of the random input section of xcorr and transform")
    common.add_argument("-o", "--output", help="write the JSON result here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, parents=[common], help=help_text)

    p = add_parser("validate", "structural and constraint checks")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_validate)

    p = add_parser("battery", "full property battery")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_battery)

    p = add_parser("xcorr", "cross-correlate a Mackey section with the scenario filter")
    p.add_argument("scenario")
    p.add_argument("--section", help="JSON file with a section or Mackey section; random when omitted")
    p.set_defaults(handler=_cmd_xcorr)

    p = add_parser("transform", "apply the scenario kernel's integral transform to a section")
    p.add_argument("scenario")
    p.add_argument("--section", help="JSON file with a section; random when omitted")
    p.set_defaults(handler=_cmd_transform)

    p = add_parser("lift", "lift the scenario kernel to a filter along one of its thetas")
    p.add_argument("scenario")
    p.add_argument("--theta", default=None, help="theta name (default: the only one, or 'global')")
    p.set_defaults(handler=_cmd_lift)

    p = add_parser("project", "project the scenario filter to a kernel")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_project)

    p = add_parser("demo", "numerical demonstrations")
    p.add_argument("which", choices=["degeneracy", "quadrature"])
    p.add_argument("--sizes", default="4,8,16", help="torus sizes for the degeneracy demo")
    p.add_argument("--levels", type=int, default=4, help="refinement levels for the quadrature demo")
    p.set_defaults(handler=_cmd_demo)
    return parser


def _load_scenario(text: str) -> Scenario:
    if os.path.exists(text):
        return scenario_from_dict(load_document(text))
    from .scenarios import build_scenario, is_scenario_spec

    if is_scenario_spec(text):
        return build_scenario(text)
    raise EquicorrError(f"{text!r} is neither a scenario file nor a built-in spec")


def _emit(args, doc: dict, summary: list[str]) -> None:
    if args.output:
        save_document(args.output, doc)
    else:
        sys.stdout.write(dumps(doc))
    for line in summary:
        print(line, file=sys.stderr)


def _emit_report(args, report: ValidationReport, context: dict) -> int:
    _emit(args, report_to_dict(report, context), report.summary_lines())
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    from .battery import run_structural

    scn = _load_scenario(args.scenario)
    report = run_structural(scn, tolerance=args.tolerance)
    return _emit_report(args, report, {"scenario": scn.name, "mode": "validate"})


def _cmd_battery(args) -> int:
    from .battery import run_battery

    scn = _load_scenario(args.scenario)
    report = run_battery(scn, tolerance=args.tolerance)
    return _emit_report(args, report, {"scenario": scn.name, "mode": "battery"})


def _random_section(args, scn: Scenario):
    from .rng import SplitMix64
    from .sampling import random_sections

    return random_sections(scn.input_bundle, SplitMix64(args.seed), 1)[0]


def _input_mackey(args, scn: Scenario):
    from .bundles import section_to_mackey

    if args.section:
        doc = load_document(args.section)
        if isinstance(doc, dict) and doc.get("schema") == MACKEY_SCHEMA:
            return mackey_from_dict(doc, scn.input_bundle)
        return section_to_mackey(section_from_dict(doc, scn.input_bundle))
    return section_to_mackey(_random_section(args, scn))


def _cmd_xcorr(args) -> int:
    from .xcorr import cross_correlate

    scn = _load_scenario(args.scenario)
    if scn.filt is None:
        raise EquicorrError(f"scenario {scn.name} carries no filter")
    m = _input_mackey(args, scn)
    out = cross_correlate(scn.filt, m, scn.mu)
    _emit(args, mackey_to_dict(out), [f"cross-correlated over {scn.name}: output max |v| = {np.abs(out.values).max():.6g}"])
    return 0


def _cmd_transform(args) -> int:
    from .transforms import integral_transform

    scn = _load_scenario(args.scenario)
    if scn.kernel is None:
        raise EquicorrError(f"scenario {scn.name} carries no kernel")
    if args.section:
        f = section_from_dict(load_document(args.section), scn.input_bundle)
    else:
        f = _random_section(args, scn)
    out = integral_transform(scn.kernel, scn.mubar, f)
    _emit(args, section_to_dict(out), [f"transformed over {scn.name}: output max |v| = {np.abs(out.values).max():.6g}"])
    return 0


def _pick_theta(scn: Scenario, name: str | None):
    if not scn.thetas:
        raise EquicorrError(f"scenario {scn.name} carries no theta map")
    if name is None:
        name = "global" if "global" in scn.thetas else sorted(scn.thetas)[0]
    if name not in scn.thetas:
        raise EquicorrError(f"scenario {scn.name} has no theta {name!r}; choices: {sorted(scn.thetas)}")
    return name, scn.thetas[name]


def _cmd_lift(args) -> int:
    from .transforms import lift_kernel_to_filter, validate_theta
    from .xcorr import validate_filter

    scn = _load_scenario(args.scenario)
    if scn.kernel is None or scn.delta is None:
        raise EquicorrError(f"scenario {scn.name} needs a kernel and a delta to lift")
    name, theta = _pick_theta(scn, args.theta)
    filt = lift_kernel_to_filter(scn.kernel, theta, scn.delta)
    report = ValidationReport(_prefixed(validate_theta(theta, scn.kernel), f"theta.{name}"))
    report.checks += validate_filter(filt, tolerance=args.tolerance).checks
    summary = [f"lifted kernel along theta {name!r}"] + report.summary_lines()
    _emit(args, filter_to_dict(filt), summary)
    return 0 if report.passed else 1


def _cmd_project(args) -> int:
    from .measures import fubini_pointwise_residual
    from .transforms import project_filter_to_kernel, validate_kernel

    scn = _load_scenario(args.scenario)
    if scn.filt is None:
        raise EquicorrError(f"scenario {scn.name} carries no filter")
    fub, _ = fubini_pointwise_residual(scn.mu, scn.nu, scn.mubar)
    kern = project_filter_to_kernel(scn.filt, scn.nu)
    report = validate_kernel(kern, tolerance=args.tolerance)
    summary = [f"disintegration residual {fub:.3e}"] + report.summary_lines()
    _emit(args, kernel_to_dict(kern), summary)
    return 0 if report.passed else 1


def _cmd_demo(args) -> int:
    from .scenarios import degeneracy_demo, line_grid_ladder

    if args.which == "degeneracy":
        try:
            sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
        except ValueError:
            raise DomainError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
        demo = degeneracy_demo(sizes)
        report = ValidationReport()
        report.add(check_from_residual("degeneracy.ratio-constant", demo["ratio_relative_spread"], 1e-9))
        report.add(check_from_residual("degeneracy.faint-size-independent", demo["faint_absolute_spread"], 1e-12))
        doc = {"schema": "equicorr-demo/1", "demo": "degeneracy", "rows": demo["rows"]}
        doc["checks"] = report_to_dict(report)["checks"]
        summary = [
            f"N={row['N']:4d}  biequivariant={row['biequivariant']:.6f}  ratio={row['ratio']:.6f}  faint={row['faint']:.6f}"
            for row in demo["rows"]
        ] + report.summary_lines()
        _emit(args, doc, summary)
        return 0 if report.passed else 1

    ladder = line_grid_ladder(levels=args.levels)
    ratios = [ladder[j] / ladder[j + 1] for j in range(len(ladder) - 1)]
    report = ValidationReport()
    for j, r in enumerate(ratios):
        # first-order quadrature: each refinement should roughly halve the gap
        report.add(check_from_residual(f"quadrature.ratio-level-{j}", abs(r - 2.0), 0.6))
    doc = {
        "schema": "equicorr-demo/1",
        "demo": "quadrature",
        "residuals": ladder,
        "ratios": ratios,
    }
    doc["checks"] = report_to_dict(report)["checks"]
    summary = [f"level {j}: continuum gap {x:.6e}" for j, x in enumerate(ladder)]
    summary += [f"ratio {j}->{j + 1}: {r:.3f}" for j, r in enumerate(ratios)]
    summary += report.summary_lines()
    _emit(args, doc, summary)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
