from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from equicorr.cli import main
from equicorr.scenarios import build_scenario
from equicorr.serialize import (
    kernel_from_dict,
    save_document,
    scenario_to_dict,
    section_to_dict,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, err = run_cli(capsys, "validate", "dihedral(4)")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "equicorr-report/1"
    assert all(c["pass"] for c in doc["checks"])
    assert "PASS" in err


def test_output_flag_trailing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "cyclic(6)", "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == "equicorr-report/1"


def test_battery_subcommand(capsys):
    code, out, _ = run_cli(capsys, "battery", "dihedral(3)", "--sections", "5", "--violators", "2", "--seed", "9")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "xcorr.equivariance" in names
    assert "transform.necessity-catches-planted" in names


def test_corrupted_scenario_file_fails_checks(tmp_path, capsys):
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    rows = doc["filter"]["rows"]
    b, row = next(iter(rows.items()))
    h, mat = next(iter(row.items()))
    rows[b][h] = (np.asarray(mat) * 3.0).tolist()  # breaks the faint constraint
    path = tmp_path / "broken.json"
    save_document(str(path), doc)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed


def test_nan_filter_entry_fails_validate(tmp_path, capsys):
    doc = scenario_to_dict(build_scenario("cyclic(8)"))
    rows = doc["filter"]["rows"]
    b, row = next(iter(rows.items()))
    h = next(iter(row))
    rows[b][h] = np.full(np.shape(row[h]), np.nan).tolist()
    path = tmp_path / "nan.json"
    save_document(str(path), doc)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert "filter.filter-faint-constraint" in [c["name"] for c in failed]
    assert all(c["witness"] is not None for c in failed)


def test_malformed_inputs_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "validate", "nonesuch(5)")
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "transform", "circle-grid(16)")
    assert code == 2 and "no kernel" in err


MALFORMED = {
    "no-families": lambda doc: doc.pop("families"),
    "mu-number": lambda doc: doc["families"].update(mu=3),
    "ragged-action-table": lambda doc: doc["action"]["table"][0].pop(),
    "theta-entry-without-c": lambda doc: doc["thetas"]["derived"]["entries"][0].pop("c"),
    "filter-rows-list": lambda doc: doc["filter"].update(rows=list(doc["filter"]["rows"].values())),
    "bundle-without-act-matrix": lambda doc: doc["input_bundle"].pop("act_matrix"),
    # control: the family constructor rejects this shape itself
    "mu-wrong-shape": lambda doc: doc["families"]["mu"].update(weights=[[1.0]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_file_exits_two(case, tmp_path, capsys):
    doc = json.loads(json.dumps(scenario_to_dict(build_scenario("dihedral(4, bundle=sign)"))))
    MALFORMED[case](doc)
    path = tmp_path / "malformed.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_section_file_exits_two(tmp_path, capsys):
    path = tmp_path / "f.json"
    for doc in ({"schema": "equicorr-section/1"}, [1, 2, 3], {"schema": "equicorr-section/1", "values": [[1.0], [2.0, 3.0]]}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("xcorr", "transform"):
            code, out, err = run_cli(capsys, command, "torus-bands(16)", "--section", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_xcorr_and_transform_with_section_file(tmp_path, capsys):
    scn = build_scenario("torus-bands(16)")
    f = random_sections(scn.input_bundle, SplitMix64(4), 1)[0]
    path = tmp_path / "f.json"
    save_document(str(path), section_to_dict(f))

    code, out, _ = run_cli(capsys, "xcorr", "torus-bands(16)", "--section", str(path))
    assert code == 0
    assert json.loads(out)["schema"] == "equicorr-mackey-section/1"

    code, out, _ = run_cli(capsys, "transform", "torus-bands(16)", "--section", str(path))
    assert code == 0
    assert json.loads(out)["schema"] == "equicorr-section/1"


def test_project_recovers_kernel_through_cli(tmp_path, capsys):
    # the bands scenario filter is the lift of its kernel, so projection
    # must hand the kernel back
    scn = build_scenario("torus-bands(16)")
    target = tmp_path / "kern.json"
    code, _, err = run_cli(capsys, "project", "torus-bands(16)", "-o", str(target))
    assert code == 0
    assert "disintegration residual" in err
    kern = kernel_from_dict(json.loads(target.read_text()), scn.input_bundle, scn.output_bundle)
    assert np.abs(kern.matrices - scn.kernel.matrices).max() < 1e-12


def test_lift_theta_choice(capsys):
    code, out, _ = run_cli(capsys, "lift", "torus-bands(16)", "--theta", "special")
    assert code == 0
    assert json.loads(out)["schema"] == "equicorr-filter/1"

    code, _, err = run_cli(capsys, "lift", "torus-bands(16)", "--theta", "imaginary")
    assert code == 2 and "choices" in err


def test_demo_degeneracy(capsys):
    code, out, err = run_cli(capsys, "demo", "degeneracy", "--sizes", "4,8")
    assert code == 0
    doc = json.loads(out)
    assert [row["ratio"] for row in doc["rows"]] == [1.3125, 1.3125]
    assert "ratio=1.312500" in err


def test_demo_quadrature(capsys):
    code, out, _ = run_cli(capsys, "demo", "quadrature", "--levels", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["residuals"]) == 3
    assert all(abs(r - 2.0) < 0.6 for r in doc["ratios"])


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "equicorr", "validate", "cyclic(5)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "equicorr-report/1"
