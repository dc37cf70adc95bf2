"""Benchmark of the equicorr command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run it from anywhere inside a checkout; it runs the checkout's own `src`
and writes only to `.perfbench_work/` at the checkout root.

One client, closed loop: each equicorr command starts after the previous
one exits.  Nothing runs in threads, and EQUICORR_THREADS is removed from
the children's environment.

--trace 0 times untraced invocations and reports the end-to-end metrics:
wall time in units of a reference loop timed while the invocation runs,
peak RSS of each invocation's own process (from wait4), the set-up time,
and the share of invocations that succeed.  --trace 1
alternates untraced and traced invocations and reports the per-layer
metrics of `tracer.py`, summed over one traced set-up and one traced
invocation.  Both modes print every metric they measured by name with its
unit, then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and the metrics of the mode.

An invocation fails when its exit status is not 0, when a check in its
report that is not skipped fails, or when its workload's gate does not
hold: for a battery, every invocation of the run prints the same bytes
(a traced run always has two, with the same seed); for validate-file, each
prints the bytes of `equicorr validate SPEC` run on the built-in spec the
file was written from.

--smoke runs every workload once, traced, at the smallest sizes the
scenario builders accept.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
REF_ITERATIONS = 100_000  # about 17 ms of pure Python on a 2.1 GHz Xeon
REF_EVERY_S = 0.5
RUN_CAP_S = 150.0  # past the floor, no invocation starts that would likely end after this
STARTED = time.perf_counter()

END_TO_END = (
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
)
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [
        ("groups.validate_group.s", "s"),
        ("groups.validate_action.s", "s"),
        ("bundles.act_on_section.calls", "count"),
        ("bundles.section_to_mackey.calls", "count"),
        ("bundles.validate_mackey.s", "s"),
        ("bundles.validate_bundle.s", "s"),
        ("measures.validate_families.s", "s"),
        ("measures.fubini_pointwise_residual.s", "s"),
        ("xcorr.cross_correlate.calls", "count"),
        ("xcorr.cross_correlate.s", "s"),
        ("xcorr.convolve.s", "s"),
        ("xcorr.cross_correlate_at_identity.calls", "count"),
        ("xcorr.xcorr_equivariance_residual.s", "s"),
        ("xcorr.check_convolution_equality.s", "s"),
        ("xcorr.validate_filter.s", "s"),
        ("transforms.integral_transform.calls", "count"),
        ("transforms.transform_equivariance_residual.s", "s"),
        ("transforms.validate_kernel.s", "s"),
        ("transforms.lift_kernel_to_filter.s", "s"),
        ("transforms.project_filter_to_kernel.s", "s"),
        ("sampling.random_violating_kernel.s", "s"),
        ("rng.uniforms.calls", "count"),
        ("rng.integer.calls", "count"),
        ("scenarios.build_scenario.s", "s"),
        ("serialize.load_document.s", "s"),
        ("serialize.scenario_from_dict.s", "s"),
        ("serialize.dumps.s", "s"),
        ("serialize.bytes_read", "B"),
        ("xcorr.cross_correlate.bytes_computed", "B"),
        ("xcorr.cross_correlate.flops_computed", "flop"),
        ("sampling.violator_attempts_per_kernel", "ratio"),
        ("process.wall_s", "s"),
        ("process.ref_s", "s"),
        ("process.cpu_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass(frozen=True)
class Workload:
    spec: str
    smoke_spec: str
    from_file: bool = False  # `validate` a JSON file of the spec; else `battery` the spec


# Two workloads keep a full pass of the benchmark well inside its time
# budget.  A third, battery line-grid(6, dx=0.05), is left out: it stresses
# no layer that battery-torus does not, and its runs spread past the 0.25
# bound in raw wall time.  validate-file runs no cross_correlate, so it is
# the workload on which an xcorr change predicts no change.
WORKLOADS = {
    "validate-file": Workload("torus-bands(32)", "torus-bands(12)", from_file=True),
    "battery-torus": Workload("torus-bands(32)", "torus-bands(12)"),
}


@dataclass
class Invocation:
    wall_s: float
    ref_s: float  # mean time of the reference loop while the invocation ran
    cpu_s: float
    rss_mb: float
    status: int
    stdout: bytes
    spans: Path | None
    ok: bool = True


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EQUICORR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: one sample of the host's speed."""
    t0 = time.perf_counter()
    x = 0
    for j in range(REF_ITERATIONS):
        x += j * j
    return time.perf_counter() - t0


def _sample_host_until_exit(pid: int) -> list[float]:
    """Times the reference loop every REF_EVERY_S seconds until `pid` exits.

    The host's speed drifts by tens of percent over minutes, far more than
    a run can average out.  The samples, which mostly run on the vCPU the
    invocation leaves idle, let `wall_ref` divide that drift out."""
    samples = []
    fd = os.pidfd_open(pid)
    try:
        while not select.select([fd], [], [], REF_EVERY_S)[0]:
            samples.append(_reference_loop())
    finally:
        os.close(fd)
    return samples


def _invoke(argv: list[str], tag: str, spans: Path | None = None) -> Invocation:
    """One closed-loop invocation; stdout and stderr go to files so the
    process can be reaped with wait4, which gives its own rusage."""
    if spans is None:
        cmd = [sys.executable, "-m", "equicorr", *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans), "--", *argv]
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    ref = [_reference_loop()]  # so an invocation shorter than REF_EVERY_S has one
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        ref += _sample_host_until_exit(proc.pid)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wait_status)  # reaped by wait4, not by Popen
    if proc.returncode != 0:
        sys.stderr.write(f"{tag}: exit status {proc.returncode}\n{err_path.read_text()[-2000:]}")
    return Invocation(
        wall_s=wall,
        ref_s=statistics.fmean(ref),
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        status=proc.returncode,
        stdout=out_path.read_bytes(),
        spans=spans,
    )


def _setup(spec: str, write: Path | None, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "setup", spec, *extra]
    if write is not None:
        cmd += ["--write", str(write)]
    proc = subprocess.run(cmd, capture_output=True, env=_child_env(), cwd=ROOT, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise SystemExit(f"set-up of {spec} failed with exit status {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _checks_pass(stdout: bytes) -> bool:
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return False
    return bool(checks) and all(c["pass"] for c in checks if not c.get("skipped"))


def _torus_bands_shift_bytes(n: int) -> int:
    """Computed size of cross_correlate's (|G|, |G|, |B|, dE) float64 shift
    gather on torus-bands(n): |G| = n^2, |B| = n, dE = 1.  Never allocated."""
    return (n * n) ** 2 * n * 1 * 8


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    spec = wl.smoke_spec if smoke else wl.spec
    for stale in WORK.glob(f"{name}.*"):
        stale.unlink()
    scenario_file = WORK / f"{name}.scenario.json" if wl.from_file else None

    # Half the set-ups run before the invocations and half after, so their
    # median spans the run rather than one moment of a drifting host.
    setups = [_setup(spec, scenario_file, ["--context"] if i == 0 else []) for i in range(SETUP_REPS - SETUP_REPS // 2)]
    context = setups[0]["context"]
    context["torus-bands(64).shift_bytes_computed"] = _torus_bands_shift_bytes(64)
    setup_spans = WORK / f"{name}.setup.spans"
    if trace:
        _setup(spec, scenario_file, ["--spans", str(setup_spans)])

    if wl.from_file:
        argv = ["validate", str(scenario_file)]
        reference = _invoke(["validate", spec], f"{name}.reference")
    else:
        argv = ["battery", spec, "--seed", str(seed)]
        reference = None

    # A traced run needs one invocation of each kind.  An untraced
    # battery-torus run makes one invocation at 35 to 50 s, so the
    # determinism gate bites in traced runs, which pair an untraced and a
    # traced invocation with the same seed.  validate-file compares each
    # invocation with a separate reference invocation.
    floor = 2 if trace else 1
    runs: list[Invocation] = []
    t0 = time.perf_counter()
    while True:
        i = len(runs)
        traced = trace and i % 2 == 1
        runs.append(_invoke(argv, f"{name}.{i}", WORK / f"{name}.{i}.spans" if traced else None))
        if len(runs) < floor:
            continue
        # Stop when one more invocation would overshoot the window by more
        # than the window has left, so runs measure about --seconds each.
        if time.perf_counter() - t0 + runs[-1].wall_s / 2 >= seconds:
            break
        if time.perf_counter() - STARTED + runs[-1].wall_s > RUN_CAP_S:
            break
    setups += [_setup(spec, scenario_file, []) for _ in range(SETUP_REPS // 2)]

    for r in runs:
        r.ok = r.status == 0 and _checks_pass(r.stdout)
    if reference is not None:
        ref_ok = reference.status == 0 and _checks_pass(reference.stdout)
        for r in runs:
            r.ok &= ref_ok and r.stdout == reference.stdout
    elif len({r.stdout for r in runs}) != 1:
        for r in runs:
            r.ok = False

    plain = [r for r in runs if r.spans is None]
    traced_runs = [r for r in runs if r.spans is not None]
    wall_s = statistics.median(r.wall_s for r in plain)
    layer: dict[str, float] = {}
    if trace:
        summaries = [summarize([str(setup_spans), str(r.spans)]) for r in traced_runs]
        counts = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in summaries]
        if any(c != counts[0] for c in counts):  # same seed, same program: counts must repeat
            for r in traced_runs:
                r.ok = False
        layer = {key: statistics.median(s.get(key, 0) for s in summaries) for key, _ in PER_LAYER}
        layer["process.wall_s"] = wall_s
        layer["process.ref_s"] = statistics.median(r.ref_s for r in plain)
        layer["process.cpu_s"] = statistics.median(r.cpu_s for r in plain)
        layer["trace.overhead_s"] = statistics.median(r.wall_s for r in traced_runs) - wall_s
        context["trace.spans"] = summaries[0]["trace.spans"]
    e2e = {
        "wall_ref": statistics.median(r.wall_s / r.ref_s for r in plain),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "success_ratio": sum(r.ok for r in runs) / len(runs),
    }

    if scenario_file is not None:
        scenario_file.unlink()
    failed = sum(not r.ok for r in runs)

    lines = [f"workload {name}: {spec}, seed {seed}, {len(runs)} invocations ({len(traced_runs)} traced), {failed} failed"]
    lines.append("context " + json.dumps(context, sort_keys=True))
    for i, r in enumerate(runs):
        lines.append(
            f"  invocation {i}{' traced' if r.spans else ''}: wall {r.wall_s:.3f} s, "
            f"ref {r.ref_s * 1e3:.2f} ms, cpu {r.cpu_s:.3f} s, peak rss {r.rss_mb:.1f} MB, exit {r.status}, {'ok' if r.ok else 'FAILED'}"
        )
    shown = list(END_TO_END) + (list(PER_LAYER) if trace else [])
    values = {**e2e, **layer}
    lines += [f"{key} {values[key]!r} {unit}" for key, unit in shown]
    reported = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in reported},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, traced, at the smallest sizes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "equicorr" / "__init__.py").is_file():
        print(f"error: no equicorr sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.smoke:
        all_correct = True
        for name in WORKLOADS:
            result, lines = run_workload(name, args.seed, 0.0, trace=True, smoke=True)
            print("\n".join(lines))
            print(json.dumps(result))
            all_correct &= result["correct"]
        return 0 if all_correct else 1

    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
