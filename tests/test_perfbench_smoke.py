"""The benchmark harness runs end to end at its smallest sizes.

`perfbench/run.py --smoke` runs every workload once, traced, at
torus-bands(12); it writes only to the gitignored `.perfbench_work/`.
Its tracer looks up layer functions by name, so a rename in `src/` that
the harness relies on fails here rather than in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_green():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2, proc.stdout[-2000:]
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0
