from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicorr.cli import main
from equicorr.scenarios import build_scenario
from equicorr.serialize import (
    _fill_to_dict,
    dumps,
    kernel_from_dict,
    load_document,
    save_document,
    scenario_from_dict,
    scenario_to_dict,
    section_to_dict,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections

from helpers import compressed_filter_to_dict, dense_nu, scenario_to_v2_dict, set_fill_entry


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


# every subcommand writes its -o file through save_document
OUTPUT_COMMANDS = {
    "validate": ("validate", "cyclic(4)"),
    "battery": ("battery", "cyclic(4)"),
    "xcorr": ("xcorr", "cyclic(4)"),
    "transform": ("transform", "cyclic(4)"),
    "lift": ("lift", "cyclic(4)"),
    "project": ("project", "cyclic(4)"),
    "demo-degeneracy": ("demo", "degeneracy", "--sizes", "4"),
    "demo-quadrature": ("demo", "quadrature", "--levels", "2"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_output_path_that_cannot_be_written_exits_two(where, command, tmp_path, capsys):
    target = tmp_path / "nonexistent" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *OUTPUT_COMMANDS[command], "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_battery_subcommand(capsys):
    code, out, _ = run_cli(capsys, "battery", "dihedral(3)", "--seed", "9")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "xcorr.equivariance" in names
    assert "transform.necessity" in names


def test_battery_bytes_do_not_depend_on_the_seed(tmp_path, capsys):
    # the battery draws nothing at random: --seed is accepted and moves no
    # byte, also on a scenario whose checks fail
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    doc["filter"]["matrices"]["values"][0] *= 3.0  # breaks the faint constraint
    path = tmp_path / "broken.json"
    save_document(str(path), doc)
    for scenario, expected in (("torus-bands(16)", 0), (str(path), 1)):
        runs = [run_cli(capsys, "battery", scenario, "--seed", seed) for seed in ("1", "7", "-3")]
        assert [code for code, _, _ in runs] == [expected] * 3
        assert len({out for _, out, _ in runs}) == 1
        assert "seed" not in json.loads(runs[0][1])["context"]


def test_battery_has_no_violators_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["battery", "dihedral(3)", "--violators", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --violators" in captured.err


def test_corrupted_scenario_file_fails_checks(tmp_path, capsys):
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    doc["filter"]["matrices"]["values"][0] *= 3.0  # breaks the faint constraint
    path = tmp_path / "broken.json"
    save_document(str(path), doc)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed


def test_nan_filter_entry_fails_validate(tmp_path, capsys):
    doc = scenario_to_dict(build_scenario("cyclic(8)"))
    doc["filter"]["matrices"]["values"][0] = np.nan
    path = tmp_path / "nan.json"
    save_document(str(path), doc)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert "filter.filter-faint-constraint" in [c["name"] for c in failed]
    assert all(c["witness"] is not None for c in failed)


# Non-finite table entries load (JSON NaN and Infinity decode as floats) and
# reach the validators, which name their coordinates: (the path to the
# table, the entry, its value, the failed checks and their witnesses)
NON_FINITE = {
    "mu-nan": (
        ("families", "mu", "weights"),
        (3, 5),
        math.nan,
        {
            "families.disintegration-pointwise": [3, 5],
            "families.family-mu-conjugation": [3, 0, 5],
            "families.family-mu-haar-flag": [3],
        },
    ),
    "mubar-nan": (
        ("families", "mubar", "weights"),
        (2, 2),
        math.nan,
        {"families.disintegration-pointwise": [2, 0], "families.family-mubar-pushforward": [2, 0, 0]},
    ),
    "psi-nan": (
        ("psi", "values"),
        (7, 1),
        math.nan,
        {"psi.psi-conjugation": [1, 7, 0], "psi.psi-nonvanishing": [1]},
    ),
    "nu-infinity": (
        ("families", "nu", "weights"),
        (3,),
        math.inf,
        {"families.disintegration-pointwise": [3, 0], "families.family-nu-conjugation": [3], "delta.delta-normalization": [3]},
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_psi_off_the_stabilizer_fails_the_stabilizer_check(tmp_path, capsys, value):
    # psi(e, 1) = 0 leaves Stab(1) no psi mass; element 1 is off Stab(1), so a
    # NaN or an inf there must neither hide that nor warn.  The NaN also makes
    # column 1's total mass NaN, which is no mass; an inf total is mass
    scn = build_scenario("torus-bands(16)")
    assert scn.action.table[1, 1] != 1
    doc = scenario_to_dict(scn)
    set_fill_entry(doc["psi"]["values"], scn.psi.values.shape, (scn.group.identity, 1), 0.0)
    set_fill_entry(doc["psi"]["values"], scn.psi.values.shape, (1, 1), value)
    path = tmp_path / "psi.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "validate", str(path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check, total = checks["psi.psi-stabilizer-nonvanishing"], checks["psi.psi-nonvanishing"]
    assert code == 1
    assert (check["pass"], check["residual"], check["witness"]) == (False, 1.0, [1])
    assert (total["pass"], total["witness"]) == ((False, [1]) if math.isnan(value) else (True, None))
    assert "Warning" not in err


# inf - inf in a scan, or inf * 0 in the transform's operator, is NaN, which
# the checks name; numpy warns of no invalid value, a warning whose text
# would carry the source file's path.  Each case: the family, its cells set
# to inf, the failures of validate, and the battery's further failures
INF_MEETS_INF = {
    "mu": (
        "mu",
        [(0, 5), (3, 5)],
        {
            "families.disintegration-pointwise": [0, 5],
            "families.family-mu-conjugation": [0, 0, 5],
            "families.family-mu-haar-flag": [0],
        },
        {},
    ),
    "mubar": (
        "mubar",
        [(0, 0)],
        {"families.disintegration-pointwise": [0, 0], "families.family-mubar-pushforward": [0, 0, 0]},
        {"transform.equivariance": [0, 0, 0]},
    ),
    "mubar-off-diagonal": (
        "mubar",
        [(0, 5)],
        {"families.disintegration-pointwise": [0, 5], "families.family-mubar-pushforward": [0, 0, 5]},
        {"transform.equivariance": [0, 5, 0]},
    ),
}


@pytest.mark.parametrize("command", ["validate", "battery"])
@pytest.mark.parametrize("case", sorted(INF_MEETS_INF))
def test_an_inf_meeting_an_inf_is_named_without_a_warning(tmp_path, capsys, case, command):
    family, cells, expected, battery_only = INF_MEETS_INF[case]
    scn = build_scenario("torus-bands(12)")
    doc = scenario_to_dict(scn)
    for i, j in cells:
        set_fill_entry(doc["families"][family]["weights"], getattr(scn, family).weights.shape, (i, j), math.inf)
    path = tmp_path / f"{case}.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, command, str(path))
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert code == 1 and failed == (dict(expected, **battery_only) if command == "battery" else expected)
    assert "Warning" not in err


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_table_entries_load_and_are_named(tmp_path, capsys, case):
    where, index, value, expected = NON_FINITE[case]
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    table = scn.psi.values if where[0] == "psi" else getattr(scn, where[1]).weights
    set_fill_entry(functools.reduce(dict.__getitem__, where, doc), table.shape, index, value)
    path = tmp_path / f"{case}.json"
    save_document(str(path), doc)
    assert json.dumps(value) in path.read_text(encoding="utf-8")  # JSON NaN or Infinity
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failed == expected


def test_a_nan_does_not_hide_a_negative_weight(tmp_path, capsys):
    # a NaN alone loads (above); beside it a negative entry is still refused
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    set_fill_entry(doc["families"]["mu"]["weights"], scn.mu.weights.shape, (0, 0), math.nan)
    set_fill_entry(doc["families"]["mu"]["weights"], scn.mu.weights.shape, (1, 1), -5.0)
    path = tmp_path / "negative.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "error: group family weights must be nonnegative\n"


@pytest.mark.parametrize("dx", ["0", "nan", "1e-320"])
def test_a_line_grid_step_that_is_no_step_exits_two_naming_it(dx, capsys):
    code, out, err = run_cli(capsys, "validate", f"line-grid(6, dx={dx})")
    assert code == 2 and out == ""
    assert err == f"error: grid step {dx} is not a finite normal step > 0\n"


def _compressed_filter(doc: dict, scn, h: int, by: float) -> None:
    """Store doc's filter compressed, its column at b0 = 0 raised by `by`
    at h (the fibers are 1-d)."""
    doc["filter"] = compressed_filter_to_dict(scn.filt)
    set_fill_entry(doc["filter"]["matrices"], (scn.group.order, 1, 1, 1), (h, 0, 0, 0), scn.filt.matrices[h, 0, 0, 0] + by)


def _bump_dense_entry(doc: dict, scn) -> None:
    set_fill_entry(doc["filter"]["matrices"], scn.filt.matrices.shape, (1, 0, 0, 0), scn.filt.matrices[1, 0, 0, 0] + 0.5)


# dihedral(4, bundle=sign) entries that break the filter law, stored dense or
# compressed -> the witness; s0 r3 s0^-1 = r1, so a bump at r1 alone breaks
# the law at (s0, r3, 0), and a NaN row is named at its first coordinate
BROKEN_FILTER_ROWS = {
    "dense-entry": (_bump_dense_entry, [4, 3, 0]),
    "compressed-row": (lambda doc, scn: _compressed_filter(doc, scn, 1, 1.0), [4, 3, 0]),
    "compressed-nan-row": (lambda doc, scn: _compressed_filter(doc, scn, 0, np.nan), [0, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FILTER_ROWS))
def test_a_filter_row_off_its_law_loads_and_is_named(case, tmp_path, capsys):
    # the expansion of a compressed row decides no law, so every case loads
    # and both commands report the law's failure with its witness
    edit, witness = BROKEN_FILTER_ROWS[case]
    scn = build_scenario("dihedral(4, bundle=sign)")
    doc = json.loads(dumps(scenario_to_dict(scn)))
    edit(doc, scn)
    path = tmp_path / f"{case}.json"
    save_document(str(path), doc)
    for command in ("validate", "battery"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1 and "error:" not in err, command
        checks = json.loads(out)["checks"]
        failed = {c["name"]: c["witness"] for c in checks if not c["pass"]}
        assert failed["filter.filter-faint-constraint"] == witness, command
    assert "transform.necessity" in {c["name"] for c in checks}  # the battery's whole report


def test_a_compressed_flag_on_a_whole_filter_exits_two_naming_the_entry(tmp_path, capsys):
    # the compressed table of dihedral(4) is its one domain column, 8 entries:
    # the whole table's exceptions past them name no entry of it
    scn = build_scenario("dihedral(4, bundle=sign)")
    doc = json.loads(dumps(scenario_to_dict(scn)))
    doc["filter"]["compressed"] = True
    at = doc["filter"]["matrices"]["at"]
    i = next(i for i, k in enumerate(at) if k >= 8)
    path = tmp_path / "flagged.json"
    save_document(str(path), doc)
    expected = f"error: filter at[{i}] = {at[i]} is outside [0, 8) or not above the entry before it\n"
    for command in ("validate", "battery"):
        assert run_cli(capsys, command, str(path)) == (2, "", expected), command


def test_broken_disintegration_fails_battery_without_error(tmp_path, capsys):
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    set_fill_entry(doc["families"]["mubar"]["weights"], scn.mubar.weights.shape, (0, 1), scn.mubar.weights[0, 1] * 1.5)
    path = tmp_path / "mubar.json"
    save_document(str(path), doc)
    for command in ("validate", "battery"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1, command
        failed = {c["name"]: c for c in json.loads(out)["checks"] if not c["pass"]}
        check = failed["families.disintegration-pointwise"]
        assert check["residual"] == pytest.approx(0.5) and check["witness"] == [0, 1]
        assert "error:" not in err


def test_broken_disintegration_skips_the_transform_agreements(tmp_path, capsys):
    # the three checks that need the identity are reported skipped; the
    # projected kernel's own checks do not need it and still run
    skipped = ["lift.global.transform-agreement", "lift.special.transform-agreement", "projection.transform-agreement"]
    scn = build_scenario("torus-bands(16)")
    doc = scenario_to_dict(scn)
    names = []
    for scale in (1.0, 1.5):
        set_fill_entry(doc["families"]["mubar"]["weights"], scn.mubar.weights.shape, (0, 1), scn.mubar.weights[0, 1] * scale)
        path = tmp_path / f"mubar-{scale}.json"
        save_document(str(path), doc)
        _, out, _ = run_cli(capsys, "battery", str(path))
        checks = json.loads(out)["checks"]
        names.append([c["name"] for c in checks])
        assert len(checks) == 43
        assert [c["name"] for c in checks if c.get("skipped")] == (skipped if scale != 1.0 else [])
    assert names[0] == names[1]
    assert "projection.kernel.kernel-constraint" in names[1]


def test_malformed_inputs_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "validate", "nonesuch(5)")
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "transform", "circle-grid(16)")
    assert code == 2 and "no kernel" in err


MALFORMED_SPEC = "dihedral(4, bundle=sign)"


def _group(doc: dict) -> dict:
    return doc["action"]["group"]


def _mistype(row: list, kind: type) -> None:
    """Replace the first 0 or 1 in row by a float or a bool that a cast to
    int would read back as the same integer."""
    i = next(i for i, v in enumerate(row) if v in (0, 1))
    row[i] = row[i] + 0.5 if kind is float else bool(row[i])


def _set_delta_value(doc: dict, value) -> None:
    doc["delta"]["values"]["values"][0] = value


MALFORMED = {
    "no-families": lambda doc: doc.pop("families"),
    "mu-number": lambda doc: doc["families"].update(mu=3),
    "ragged-action-table": lambda doc: doc["action"]["table"][0].pop(),
    "filter-matrices-list": lambda doc: doc["filter"].update(matrices=doc["filter"]["matrices"]["values"]),
    "bundle-without-act-matrix": lambda doc: doc["input_bundle"].pop("act_matrix"),
    # control: the family constructor rejects this shape itself
    "mu-wrong-shape": lambda doc: doc["families"]["mu"].update(weights=[[1.0]]),
    # past int32, into the int64 range: 2^32 would narrow to 0 if cast before the range check
    "permutation-entry-2^32": lambda doc: _group(doc)["right"][0].__setitem__(0, 2**32),
    "left-entry-2^32": lambda doc: _group(doc)["left"][0].__setitem__(0, 2**32),
    "action-entry-2^32": lambda doc: doc["action"]["table"][0].__setitem__(0, 2**32),
    # past int16, the index dtype: -2^16 would narrow to 0 if cast before the range check
    "permutation-entry-minus-2^16": lambda doc: _group(doc)["right"][0].__setitem__(0, -(2**16)),
    "left-entry-minus-2^16": lambda doc: _group(doc)["left"][0].__setitem__(0, -(2**16)),
    "action-entry-minus-2^16": lambda doc: doc["action"]["table"][0].__setitem__(0, -(2**16)),
    # past int64: a JSON integer >= 2^63, or 1e400, which JSON loads as inf
    "permutation-entry-2^63": lambda doc: _group(doc)["right"][0].__setitem__(0, 2**63),
    "left-entry-2^63": lambda doc: _group(doc)["left"][0].__setitem__(0, 2**63),
    "permutation-entry-1e400": lambda doc: _group(doc)["left"][1].__setitem__(3, float("inf")),
    "right-entry-1e400": lambda doc: _group(doc)["right"][1].__setitem__(3, float("inf")),
    # the generator indices are range-checked: -1 must not wrap to the last element
    "identity-minus-one": lambda doc: _group(doc).update(identity=-1),
    "generator-minus-one": lambda doc: _group(doc)["generators"].__setitem__(0, -1),
    "generator-past-order": lambda doc: _group(doc)["generators"].__setitem__(1, 8),
    # generator 1 multiplying as the identity: its rows reach only <s0>
    "left-row-unreaching": lambda doc: _group(doc)["left"].__setitem__(0, list(range(8))),
    # generator 1 times e stored as 4, so the tree reaches 1 another way and derives another row
    "left-entry-disagrees": lambda doc: _group(doc)["left"][0].__setitem__(0, 4),
    "right-entry-disagrees": lambda doc: _group(doc)["right"][0].__setitem__(2, 0),
    "action-entry-2^63": lambda doc: doc["action"]["table"][0].__setitem__(0, 2**63),
    "action-entry-1e400": lambda doc: doc["action"]["table"][0].__setitem__(0, float("inf")),
    # a scalar of the wrong JSON type is refused, not cast: 1.9, "1" and true are not the integer 1
    "trivial-fiber-dim-1.9": lambda doc: doc.update(input_bundle={"kind": "trivial", "fiber_dim": 1.9}),
    "trivial-fiber-dim-string": lambda doc: doc.update(input_bundle={"kind": "trivial", "fiber_dim": "1"}),
    "trivial-fiber-dim-true": lambda doc: doc.update(input_bundle={"kind": "trivial", "fiber_dim": True}),
    "explicit-fiber-dim-1.9": lambda doc: doc["input_bundle"]["fiber_dim"].__setitem__(0, 1.9),
    "delta-value-string": lambda doc: _set_delta_value(doc, "1.0"),
    "delta-value-true": lambda doc: _set_delta_value(doc, True),
    "mu-haar-string": lambda doc: doc["families"]["mu"].update(haar="no"),
    "extras-band-spacing-string": lambda doc: doc.setdefault("extras", {}).update(band_spacing="1"),
    # an index or a count the battery computes with must be an integer, not 0.0
    "extras-origin-float": lambda doc: doc.setdefault("extras", {}).update(origin=0.0),
    # integer tables are type-checked, not cast: v + 0.5 would truncate to v, and true read as 1
    **{
        f"{name}-entry-{kind.__name__}": lambda doc, row=row, kind=kind: _mistype(row(doc), kind)
        for name, row in (
            ("action", lambda doc: doc["action"]["table"][0]),
            ("left", lambda doc: _group(doc)["left"][0]),
            ("right", lambda doc: _group(doc)["right"][0]),
        )
        for kind in (float, bool)
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_file_exits_two(case, tmp_path, capsys):
    doc = json.loads(dumps(scenario_to_dict(build_scenario(MALFORMED_SPEC))))
    MALFORMED[case](doc)
    path = tmp_path / "malformed.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _v1_document(doc: dict, scn) -> None:
    """An equicorr-scenario/1 document: the group as its full Cayley table."""
    doc.update(schema="equicorr-scenario/1")
    doc["action"]["group"] = {"elements": list(scn.group.elements), "cayley": scn.group.cayley.tolist()}


# the previous scenario, filter and kernel forms: each is refused by its
# tag, before any table is read, so the old filter and kernel forms here
# hold empty tables
OLD_FILTER = {"schema": "equicorr-filter/1", "compressed": False, "rows": {}}
OLD_KERNEL = {"schema": "equicorr-kernel/1", "entries": []}
OLDER_DOCUMENTS = {
    "scenario/1": (_v1_document, "'equicorr-scenario/5', got 'equicorr-scenario/1'"),
    # dense measure tables and theta entry lists
    "scenario/2": (
        lambda doc, scn: doc.update(json.loads(dumps(scenario_to_v2_dict(scn)))),
        "'equicorr-scenario/5', got 'equicorr-scenario/2'",
    ),
    "scenario/3": (
        lambda doc, scn: doc.update(schema="equicorr-scenario/3", filter=OLD_FILTER, kernel=OLD_KERNEL, delta={"by_base": {}}),
        "'equicorr-scenario/5', got 'equicorr-scenario/3'",
    ),
    # nu as the fill form of its (|B|, |G|) table
    "scenario/4": (
        lambda doc, scn: doc.update(
            schema="equicorr-scenario/4", families=dict(doc["families"], nu={"weights": _fill_to_dict(dense_nu(scn.nu))})
        ),
        "'equicorr-scenario/5', got 'equicorr-scenario/4'",
    ),
    "filter/1": (lambda doc, scn: doc.update(filter=OLD_FILTER), "'equicorr-filter/2', got 'equicorr-filter/1'"),
    "kernel/1": (lambda doc, scn: doc.update(kernel=OLD_KERNEL), "'equicorr-kernel/2', got 'equicorr-kernel/1'"),
}


@pytest.mark.parametrize("case", sorted(OLDER_DOCUMENTS))
def test_an_older_document_exits_two_naming_its_schema(case, tmp_path, capsys):
    edit, schemas = OLDER_DOCUMENTS[case]
    scn = build_scenario(MALFORMED_SPEC)
    doc = json.loads(dumps(scenario_to_dict(scn)))
    edit(doc, scn)
    path = tmp_path / "older.json"
    save_document(str(path), doc)
    for command in ("validate", "battery"):
        assert run_cli(capsys, command, str(path)) == (2, "", f"error: expected schema {schemas}\n"), command


@pytest.mark.parametrize(
    "key, name, value",
    [
        ("extras", "band_spacing", "4"),
        # the banded support check spans windows of these many base points: [0, |B|]
        pytest.param("extras", "band_spacing", 10**400, id="extras-band_spacing-10**400"),
        ("extras", "band_spacing", -1),
        ("extras", "eps_steps", 17),
        ("extras", "origin", 0.0),
        # an integer origin must be a base point: 10**6 would not index, -1 would wrap to the last
        ("extras", "origin", 10**6),
        ("extras", "origin", -1),
        # a grid step the oracles divide and scale by: 0 and 1e-320 would end in a
        # division or an overflow, inf in a NaN, and a dx of inf would bound the continuum gap by inf
        ("extras", "grid_step", 0),
        ("extras", "grid_step", math.inf),
        ("extras", "grid_step", 1e-320),
        ("extras", "dx", 0.0),
        ("extras", "dx", math.inf),
    ],
)
def test_battery_on_a_mistyped_scenario_number_exits_two(key, name, value, tmp_path, capsys):
    # numbers the banded support check, the line-grid oracle and the circle-grid rotations compute with
    line_grid = "line-grid(5, dx=0.2)"
    spec = {"origin": line_grid, "dx": line_grid, "grid_step": "circle-grid(16)"}.get(name, "torus-bands(16)")
    doc = json.loads(dumps(scenario_to_dict(build_scenario(spec))))
    doc[key][name] = value
    path = tmp_path / "mistyped.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "battery", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(value) in err


@pytest.mark.parametrize(
    "spec, n",
    [
        pytest.param("torus-bands(16)", 10**400, id="torus-bands(16)-10**400"),
        pytest.param("circle-grid(16)", 0, id="circle-grid(16)-0"),
        pytest.param("circle-grid(16)", 10**18, id="circle-grid(16)-10**18"),
    ],
)
def test_the_battery_reads_no_params_n(spec, n, tmp_path, capsys):
    # params only record how a built-in was built: the banded support check
    # and the circle-grid rotations take n = |B| from the action
    doc = json.loads(dumps(scenario_to_dict(build_scenario(spec))))
    path = tmp_path / "scenario.json"
    save_document(str(path), doc)
    expected = run_cli(capsys, "battery", str(path))
    doc["params"]["n"] = n
    save_document(str(path), doc)
    assert run_cli(capsys, "battery", str(path)) == expected and expected[0] == 0  # no exception escapes main


def _nu(doc: dict) -> dict:
    """The fill form of doc's nu, its four weights of 1.0 rewritten in place
    as the exceptions to a fill of 0.0, at [0, 1, 2, 3] of 4: a form that
    loads as the same table."""
    stored = doc["families"]["nu"]["weights"]
    if stored == {"fill": 1.0, "at": [], "values": []}:
        stored.update(fill=0.0, at=[0, 1, 2, 3], values=[1.0] * 4)
    return stored


def _set(table, at: tuple[int, ...], value) -> None:
    for i in at[:-1]:
        table = table[i]
    table[at[-1]] = value


_BOOL = "%s holds a JSON true or false, not a number"


@functools.cache
def _v2_doc() -> dict:
    """MALFORMED_SPEC as an equicorr-scenario/2 document, in plain JSON."""
    return json.loads(dumps(scenario_to_v2_dict(build_scenario(MALFORMED_SPEC))))


# each malformed fill form, reps table or float table of MALFORMED_SPEC -> a part of its one error line
MALFORMED_ENCODINGS = {
    "fill-true": (lambda doc: _nu(doc).update(fill=True), "nu fill True is not int or float"),
    "fill-string": (lambda doc: _nu(doc).update(fill="0"), "nu fill '0' is not int or float"),
    "fill-null": (lambda doc: _nu(doc).update(fill=None), "nu fill None is not int or float"),
    "fill-without-at": (lambda doc: _nu(doc).pop("at"), "nu needs fill, at and values"),
    "at-entry-float": (lambda doc: _nu(doc)["at"].__setitem__(1, 4.0), "nu at entries must be JSON integers"),
    "at-entry-true": (lambda doc: _nu(doc)["at"].__setitem__(0, True), "nu at entries must be JSON integers"),
    "at-entry-string": (lambda doc: _nu(doc)["at"].__setitem__(0, "0"), "nu at entries must be JSON integers"),
    "at-nested": (lambda doc: _nu(doc).update(at=[_nu(doc)["at"]]), "nu at must be a flat list of indices"),
    "at-entry-past-the-table": (lambda doc: _nu(doc)["at"].__setitem__(3, 4), "nu at[3] = 4 is outside [0, 4)"),
    "at-entry-negative": (lambda doc: _nu(doc)["at"].__setitem__(0, -1), "nu at[0] = -1 is outside [0, 4)"),
    "at-entry-repeated": (lambda doc: _nu(doc)["at"].__setitem__(2, 1), "nu at[2] = 1 is outside [0, 4) or not above"),
    "at-out-of-order": (lambda doc: _nu(doc)["at"].__setitem__(1, 3), "nu at[2] = 2 is outside [0, 4) or not above"),
    "values-short": (lambda doc: _nu(doc)["values"].pop(), "nu values shape (3,), expected (4,)"),
    "values-long": (lambda doc: _nu(doc)["values"].append(1.0), "nu values shape (5,), expected (4,)"),
    "mu-values-without-at": (
        lambda doc: doc["families"]["mu"]["weights"].update(values=[2.0]),
        "mu values shape (1,), expected (0,)",
    ),
    "reps-entry-past-order": (lambda doc: doc["thetas"]["derived"]["reps"][0].__setitem__(0, 8), "theta entry out of range"),
    "reps-entry-float": (lambda doc: doc["thetas"]["derived"]["reps"][0].__setitem__(0, 0.0), "theta reps entries must be"),
    "reps-entry-true": (lambda doc: doc["thetas"]["derived"]["reps"][0].__setitem__(0, True), "theta reps entries must be"),
    "reps-ragged": (lambda doc: doc["thetas"]["derived"]["reps"][0].pop(), "malformed document: ValueError"),
    # a table of the equicorr-scenario/2 form inside a /3 document: a dense measure table, a theta entry list
    **{
        f"{name}-dense-list": (
            lambda doc, name=name: doc["families"][name].update(weights=_v2_doc()["families"][name]["weights"]),
            f"{name} needs fill, at and values",
        )
        for name in ("mu", "nu", "mubar")
    },
    "theta-entry-list": (lambda doc: doc["thetas"].update(derived=_v2_doc()["thetas"]["derived"]), "theta needs a reps table"),
    # true is not the number 1.0, in a table whose first entry it is, which
    # load_document leaves a list, or further in, which load_document refuses
    "act-matrix-true-first": (lambda doc: _set(doc["input_bundle"]["act_matrix"], (0, 0, 0, 0), True), _BOOL % "act_matrix"),
    "act-matrix-true-later": (lambda doc: _set(doc["input_bundle"]["act_matrix"], (5, 2, 0, 0), True), _BOOL % "act_matrix"),
    "values-true": (lambda doc: _set(_nu(doc)["values"], (3,), True), _BOOL % "nu values"),
    # nor is "1.0" the number 1.0, nor null a NaN, though numpy would read them so
    "values-string": (lambda doc: _set(_nu(doc)["values"], (3,), "1.0"), "nu values holds a JSON string, not a number"),
    "values-null": (lambda doc: _set(_nu(doc)["values"], (3,), None), "nu values holds a JSON null, not a number"),
    "act-matrix-null-later": (
        lambda doc: _set(doc["input_bundle"]["act_matrix"], (5, 2, 0, 0), None),
        "act_matrix holds a JSON null, not a number",
    ),
    "filter-matrix-true": (lambda doc: _set(doc["filter"]["matrices"]["values"], (0,), True), _BOOL % "filter values"),
    "kernel-matrix-false": (lambda doc: _set(doc["kernel"]["matrices"]["values"], (0,), False), _BOOL % "kernel values"),
    # the filter's compressed flag is a JSON bool: "false" and 1 are not false or true
    "compressed-string": (lambda doc: doc["filter"].update(compressed="false"), "filter compressed 'false' is not bool"),
    "compressed-one": (lambda doc: doc["filter"].update(compressed=1), "filter compressed 1 is not bool"),
    "compressed-null": (lambda doc: doc["filter"].update(compressed=None), "filter compressed None is not bool"),
}


def test_the_rewritten_nu_fill_form_loads_as_the_same_table():
    doc = json.loads(dumps(scenario_to_dict(build_scenario(MALFORMED_SPEC))))
    assert _nu(doc)["at"] == [0, 1, 2, 3]
    assert scenario_from_dict(doc).nu.weights.tolist() == [1.0] * 4


@pytest.mark.parametrize("case", sorted(MALFORMED_ENCODINGS))
def test_a_malformed_fill_form_or_reps_table_exits_two(case, tmp_path, capsys):
    edit, message = MALFORMED_ENCODINGS[case]
    doc = json.loads(dumps(scenario_to_dict(build_scenario(MALFORMED_SPEC))))
    edit(doc)
    path = tmp_path / "malformed.json"
    save_document(str(path), doc)
    for command in ("validate", "battery"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == "", command
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, (command, err)
        assert "Traceback" not in err


# the saved files the document fuzzer starts from: three built-ins and one
# filter stored in its compressed form
_FUZZ_CASES = ("dihedral(4, bundle=sign)", "torus-bands(16)", "cyclic(6)", "compressed dihedral(4, bundle=sign)")
# what a leaf becomes: a bool, a string, null, an integer past every float, or a float ("float": the leaf + 0.5)
_FUZZ_LEAVES = (True, False, "0", None, 10**400, "float")


@functools.cache
def _fuzz_file(case: str) -> tuple[str, list[tuple], list[tuple], list[tuple]]:
    """The text of a saved file, and the paths to its leaves, to its dict
    members and to its dicts."""
    spec = case.removeprefix("compressed ")
    scn = build_scenario(spec)
    doc = scenario_to_dict(scn)
    if spec != case:
        doc["filter"] = compressed_filter_to_dict(scn.filt)
    text = dumps(doc)
    leaves, members, dicts = [], [], []

    def walk(node, path):
        if isinstance(node, dict):
            dicts.append(path)
            members.extend(path + (key,) for key in node)
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
        if items is None:
            leaves.append(path)
        for key, child in items or ():
            walk(child, path + (key,))

    walk(json.loads(text), ())
    return text, leaves, members, dicts


def _fuzzed(case: str, kind: str, index: int, leaf) -> dict:
    """The case's document with one leaf replaced, one dict member deleted,
    or one unknown key added."""
    text, leaves, members, dicts = _fuzz_file(case)
    doc = json.loads(text)
    paths = {"leaf": leaves, "delete": members, "add": dicts}[kind]
    *head, last = paths[index % len(paths)] + ("unknown",) * (kind == "add")
    parent = functools.reduce(lambda node, key: node[key], head, doc)
    if kind == "leaf":
        old = parent[last]
        parent[last] = (old + 0.5 if type(old) is int else 0.5) if leaf == "float" else leaf
    elif kind == "delete":
        del parent[last]
    else:
        parent[last] = 0
    return doc


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_FUZZ_CASES),
    st.sampled_from(("leaf", "delete", "add")),
    st.integers(min_value=0),
    st.sampled_from(_FUZZ_LEAVES),
)
def test_a_fuzzed_scenario_file_exits_zero_one_or_two_with_one_error_line(case, kind, index, leaf):
    doc = _fuzzed(case, kind, index, leaf)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.json")
        save_document(path, doc)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])  # an exception escaping main fails the test
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_a_signed_zero_and_a_nan_round_trip_bitwise_and_the_nan_is_named(tmp_path, capsys):
    # -0.0 is not 0.0's bit pattern and NaN is not equal to itself: both are
    # exceptions to their table's fill and load back bit for bit
    scn = build_scenario("torus-bands(16)")
    scn.psi.values[3, 5] = -0.0  # where psi is 0
    scn.psi.values[7, 1] = math.nan
    doc = scenario_to_dict(scn)
    psi = doc["psi"]["values"]
    assert psi["fill"] == 0.0 and {3 * 16 + 5, 7 * 16 + 1} <= set(psi["at"].tolist())
    path = tmp_path / "signed.json"
    save_document(str(path), doc)
    loaded = scenario_from_dict(load_document(str(path)))
    assert loaded.psi.values.tobytes() == scn.psi.values.tobytes()
    assert math.copysign(1.0, loaded.psi.values[3, 5]) == -1.0 and math.isnan(loaded.psi.values[7, 1])
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failed == {"psi.psi-conjugation": [1, 7, 0], "psi.psi-nonvanishing": [1]}


# the filter, the kernel and delta of torus-bands(16), stored as fill and
# exceptions like the measure tables: (table, a +0.0 set to -0.0, an entry
# on the support or the stabilizer set to NaN, the checks validate fails
# with their witnesses)
SIGNED_AND_NAN = {
    "filter": (lambda scn: scn.filt.matrices, (2, 0, 0, 0), (13, 0, 0, 0), {"filter.filter-faint-constraint": [0, 13, 0]}),
    "kernel": (lambda scn: scn.kernel.matrices, (2, 0, 0, 0), (13, 0, 0, 0), {"kernel.kernel-constraint": [0, 13, 0]}),
    "delta": (
        lambda scn: scn.delta.values,
        (3, 5),
        (40, 0),  # 40 fixes base point 0
        {"delta.delta-conjugation": [0, 40, 0], "delta.delta-normalization": [0]},
    ),
}


@pytest.mark.parametrize("case", sorted(SIGNED_AND_NAN))
def test_a_signed_zero_and_a_nan_in_a_filter_kernel_or_delta_round_trip_and_the_nan_is_named(case, tmp_path, capsys):
    table_of, zero, nan, expected = SIGNED_AND_NAN[case]
    scn = build_scenario("torus-bands(16)")
    table = table_of(scn)
    assert table[zero].tobytes() == bytes(8)  # +0.0
    table[zero], table[nan] = -0.0, math.nan
    path = tmp_path / "signed.json"
    save_document(str(path), scenario_to_dict(scn))
    assert table_of(scenario_from_dict(load_document(str(path)))).tobytes() == table.tobytes()
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert {c["name"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]} == expected


def test_writing_loading_and_the_battery_leave_numpy_ma_unimported(tmp_path):
    # the fill's mode comes from a sort: np.unique's hash path would import
    # numpy.ma, 15-25 ms of every run
    path = tmp_path / "scenario.json"
    script = (
        "import sys\n"
        "from equicorr.cli import main\n"
        "from equicorr.scenarios import build_scenario\n"
        "from equicorr.serialize import save_document, scenario_to_dict\n"
        "save_document(sys.argv[1], scenario_to_dict(build_scenario('torus-bands(16)')))\n"
        "codes = [main(['validate', sys.argv[1]]), main(['battery', 'cyclic(8)'])]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "[0, 0] False"


def test_no_command_imports_dataclasses(tmp_path):
    # a dataclass writes its methods as source and compiles them at every
    # import, never from cached bytecode: about 4 ms of each run
    path = tmp_path / "scenario.json"
    script = (
        "import sys\n"
        "from equicorr.cli import main\n"
        "from equicorr.scenarios import build_scenario\n"
        "from equicorr.serialize import save_document, scenario_to_dict\n"
        "save_document(sys.argv[1], scenario_to_dict(build_scenario('torus-bands(12)')))\n"
        "runs = [['validate', sys.argv[1]], ['demo', 'degeneracy', '--sizes', '4,8']]\n"
        "runs += [[c, 'torus-bands(12)'] for c in ('battery', 'xcorr', 'transform', 'lift', 'project')]\n"
        "codes = [main(argv) for argv in runs]\n"
        "print(codes, 'dataclasses' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] False"


def test_import_equicorr_loads_no_module_and_validate_leaves_the_builders_unloaded(tmp_path):
    # the package resolves its names on first use, and validate imports only
    # the modules it runs: not the scenario builders, the sampler or the generator
    path = tmp_path / "scenario.json"
    save_document(str(path), scenario_to_dict(build_scenario("torus-bands(16)")))
    script = (
        "import sys\n"
        "import equicorr\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('equicorr.'))\n"
        "print(loaded(), file=sys.stderr)\n"
        "from equicorr.cli import main\n"
        "code = main(['validate', sys.argv[1]])\n"
        "unused = ('equicorr.scenarios', 'equicorr.sampling', 'equicorr.rng')\n"
        "print(code, [m for m in unused if m in loaded()], file=sys.stderr)\n"
        "missing = [name for name in equicorr.__all__ if not hasattr(equicorr, name)]\n"
        "print(missing, equicorr.scenarios.Scenario is equicorr.Scenario, len(equicorr.__all__), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120)
    lines = proc.stderr.splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == ["0 []", "[] True 70"]


MALFORMED_SPECS = [
    "torus-bands(16, foo=1)",
    "cyclic(8, 3, 4, 5, 6)",
    "dihedral()",
    "cyclic(x)",
    "cyclic(8.5)",
    "torus-bands(16, spacing=x)",
    "line-grid(5, dx=x)",
    "torus-bands(16, seed=3)",  # only cyclic, dihedral and torus draw random data
    "cyclic(6, seed=1, seed=3)",  # a repeated keyword must not silently win
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS)
def test_malformed_scenario_spec_exits_two(spec, capsys):
    code, out, err = run_cli(capsys, "validate", spec)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed scenario spec {spec!r}: ") and err.count("\n") == 1


def _run_capped(*argv) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at 1 GiB, so
    an allocation the size guard misses fails the test, not the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "equicorr", *argv], capture_output=True, text=True, preexec_fn=cap, timeout=120
    )


def test_oversized_requests_exit_two_naming_the_size(tmp_path):
    doc = scenario_to_dict(build_scenario("cyclic(4)"))
    doc["input_bundle"]["fiber_dim"] = 3000
    wide = tmp_path / "wide.json"
    save_document(str(wide), doc)
    # a 400 KB group document by one generator whose table would take 1 GiB
    n = 16384
    step = [(i + 1) % n for i in range(n)]
    doc = scenario_to_dict(build_scenario("cyclic(4)"))
    doc["action"]["group"] = {
        "elements": [f"r{i}" for i in range(n)],
        "identity": 0,
        "generators": [1],
        "left": [step],
        "right": [step],
    }
    long = tmp_path / "long.json"
    save_document(str(long), doc)
    cases = {
        "torus-bands(128)": "(16384, 16384) cayley table needs 268,435,456 entries",
        # refused before the generators or the labels are built
        "cyclic(200000000)": "(200000000, 200000000) cayley table needs 40,000,000,000,000,000 entries",
        "torus(4000)": "(16000000, 16000000) cayley table needs 256,000,000,000,000 entries",
        str(wide): "(4, 4, 3000, 3000) act-matrix stack needs 144,000,000 entries",
        str(long): "(16384, 16384) cayley table needs 268,435,456 entries",
    }
    for scenario, size in cases.items():
        proc = _run_capped("validate", scenario)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert size in proc.stderr and "budget of 67,108,864" in proc.stderr


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


@pytest.mark.parametrize("command", ["validate", "battery", "lift"])
@pytest.mark.parametrize("corrupt", ["bumped", "deleted"])
def test_a_corrupted_theta_is_reported_not_raised(command, corrupt, tmp_path, capsys):
    doc = json.loads(dumps(scenario_to_dict(build_scenario("torus-bands(12)"))))
    reps = doc["thetas"]["global"]["reps"]
    assert reps[0][0] >= 0
    if corrupt == "bumped":
        reps[0][0] += 1  # theta(0, 0).0 != 0
    else:
        reps[0][0] = -1  # theta misses the kernel support pair (0, 0)
    path = tmp_path / "theta.json"
    save_document(str(path), doc)
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert "FAIL theta.global.theta-section residual=1.000e+00 tolerance=0.000e+00 witness=[0, 0]" in err.splitlines()
    if command == "battery" and corrupt == "bumped":
        # the global lift loses the identity at b = 0 from its support
        support = "FAIL support.segments-vs-rectangle residual=1.000e+00 tolerance=0.000e+00 witness=[0, 0]"
        assert support in err.splitlines()


def test_lift_theta_choice(capsys):
    code, out, _ = run_cli(capsys, "lift", "torus-bands(16)", "--theta", "special")
    assert code == 0
    assert json.loads(out)["schema"] == "equicorr-filter/2"

    code, _, err = run_cli(capsys, "lift", "torus-bands(16)", "--theta", "imaginary")
    assert code == 2 and "choices" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["demo", "degeneracy", "--sizes", "2"], "torus size"),
        (["demo", "quadrature", "--levels", "-1"], "levels"),
        (["demo", "degeneracy", "--sizes", "4,8,3"], "torus size"),
        (["demo", "degeneracy", "--sizes="], "torus size"),
        (["demo", "degeneracy", "--sizes", "4,x"], "--sizes"),
        (["demo", "quadrature", "--levels", "0"], "levels"),
        (["demo", "quadrature", "--levels", "1"], "levels"),
        (["validate", "cyclic(4)", "--tolerance", "nan"], "--tolerance must be a finite number >= 0, got nan"),
        (["battery", "cyclic(4)", "--tolerance", "inf"], "--tolerance must be a finite number >= 0, got inf"),
        (["validate", "cyclic(4)", "--tolerance", "-1"], "--tolerance must be a finite number >= 0, got -1.0"),
    ],
)
def test_bad_counts_exit_two_naming_the_argument(argv, named, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("count", ["20", "1", "0"])
def test_battery_has_no_sections_flag(count, capsys):
    # the Mackey-level checks run on the induced basis sections, so there is
    # no section count to set: argparse refuses the flag
    with pytest.raises(SystemExit) as exc:
        main(["battery", "dihedral(3)", "--sections", count])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --sections" in captured.err


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
