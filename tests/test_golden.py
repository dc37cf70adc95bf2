"""Byte-stability guard: the CLI's JSON report for a few fixed commands must
match the saved output under tests/golden/ byte for byte, the stdout of a
few larger ones must keep the sha256 in battery-sha256.json and
writers-sha256.json, and the saved scenario file of a few specs must keep
the sha256 in scenario-sha256.json and validate and battery as its spec
does.

A change may regenerate a golden file only when it says which bytes moved
and why; a speed-up that claims identical arithmetic must leave them all.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from equicorr.cli import main
from equicorr.scenarios import build_scenario
from equicorr.serialize import dumps, save_document, scenario_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (golden file, argv); the battery draws nothing at random, so
# each seed pair of a spec shares one file
CASES = {
    "battery-dihedral4-sign-seed1.json": ("battery-dihedral4-sign.json", ["battery", "dihedral(4, bundle=sign)", "--seed", "1"]),
    "battery-dihedral4-sign-seed3.json": ("battery-dihedral4-sign.json", ["battery", "dihedral(4, bundle=sign)", "--seed", "3"]),
    "battery-torus6-seed1.json": ("battery-torus6.json", ["battery", "torus(6)", "--seed", "1"]),
    "battery-torus-bands16-seed1.json": ("battery-torus-bands16.json", ["battery", "torus-bands(16)", "--seed", "1"]),
    "battery-torus-bands16-seed7.json": ("battery-torus-bands16.json", ["battery", "torus-bands(16)", "--seed", "7"]),
    "battery-line-grid5-seed1.json": ("battery-line-grid5.json", ["battery", "line-grid(5, dx=0.2)", "--seed", "1"]),
    "validate-torus-bands16.json": ("validate-torus-bands16.json", ["validate", "torus-bands(16)"]),
    "demo-degeneracy-sizes4-8-16.json": ("demo-degeneracy-sizes4-8-16.json", ["demo", "degeneracy", "--sizes", "4,8,16"]),
    "demo-quadrature-levels3.json": ("demo-quadrature-levels3.json", ["demo", "quadrature", "--levels", "3"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    golden, argv = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


# battery stdout too large to keep, at sizes where a product of two indices
# passes int16: |B|^2 = 65,536 on cyclic(256), |G| |B| = 262,144 on
# torus-bands(64).  They pin the output, not the widening: a product wrapped
# by a multiple of the array it indexes lands on the same entry, and the
# battery's induced sections repeat, so the wrapped gather is caught by
# test_stacked's torus-bands(64) rows instead
BATTERY_HASHES = json.loads((GOLDEN / "battery-sha256.json").read_text())


@pytest.mark.parametrize("spec", sorted(BATTERY_HASHES))
def test_battery_stdout_matches_golden_sha256(spec, capsys):
    code = main(["battery", spec])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BATTERY_HASHES[spec]


# the writers of the other commands, keyed by their argv: a section
# (xcorr, transform), a filter (lift) and a kernel (project) document
WRITER_HASHES = json.loads((GOLDEN / "writers-sha256.json").read_text())


@pytest.mark.parametrize("command", sorted(WRITER_HASHES))
def test_writer_stdout_matches_golden_sha256(command, capsys):
    name, rest = command.split(" ", 1)
    spec, seed = rest.split(" --seed ")
    code = main([name, spec, "--seed", seed])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == WRITER_HASHES[command]


SCENARIO_HASHES = json.loads((GOLDEN / "scenario-sha256.json").read_text())


@pytest.mark.parametrize("spec", sorted(SCENARIO_HASHES))
def test_saved_scenario_bytes_match_golden(spec):
    text = dumps(scenario_to_dict(build_scenario(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_HASHES[spec]


@pytest.mark.parametrize("spec", sorted(SCENARIO_HASHES))
def test_a_saved_file_validates_and_batteries_as_its_spec(spec, tmp_path, capsys):
    # the benchmark's validate-file gate: the saved file prints the bytes
    # its spec prints, on stdout and stderr, with the same exit status
    path = tmp_path / "scenario.json"
    save_document(str(path), scenario_to_dict(build_scenario(spec)))
    for command in ("validate", "battery"):
        runs = []
        for scenario in (spec, str(path)):
            code = main([command, scenario])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 0, command
