"""Child processes of the equicorr benchmark.

    child.py setup SPEC [--write FILE] [--context] [--spans FILE]
    child.py cli --spans FILE -- EQUICORR-ARGS...

`setup` times importing equicorr and building the workload input: the
scenario, and with --write also its JSON file, as `scenario_to_dict` and
`save_document` produce it.  It prints one JSON object with `setup_s` and,
with --context, the sizes the workload runs at.  With --spans it traces the
set-up instead.

`cli` runs the equicorr command line in this process with every layer
traced, then writes the spans.  It is the traced twin of
`python3 -m equicorr EQUICORR-ARGS...`: same stdout, same exit status.

The caller puts the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _setup(args) -> int:
    t0 = time.perf_counter()
    import equicorr
    from equicorr.serialize import save_document, scenario_to_dict

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    scn = equicorr.build_scenario(args.spec)
    if args.write:
        save_document(args.write, scenario_to_dict(scn))
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(args.spans)

    out = {"setup_s": setup_s}
    if args.context:
        import numpy as np
        from equicorr.groups import orbits, stabilizer
        from equicorr.serialize import dumps

        if args.write:
            json_bytes = os.path.getsize(args.write)
        else:
            json_bytes = len(dumps(scenario_to_dict(scn)).encode())
        out["context"] = {
            "G": scn.group.order,
            "B": scn.action.base_size,
            "dmax": max(scn.input_bundle.dmax, scn.output_bundle.dmax),
            "stabilizer_size": len(stabilizer(scn.action, 0)),
            "orbits": len(orbits(scn.action)),
            "scenario_json_bytes": json_bytes,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        }
    print(json.dumps(out))
    return 0


def _cli(args) -> int:
    import equicorr.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return equicorr.cli.main(args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("spec")
    p.add_argument("--write")
    p.add_argument("--context", action="store_true")
    p.add_argument("--spans")
    p.set_defaults(run=_setup)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(run=_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
