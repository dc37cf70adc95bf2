from __future__ import annotations

import functools
import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from equicorr.cli import main
from equicorr.scenarios import build_scenario
from equicorr.serialize import (
    filter_to_dict,
    kernel_from_dict,
    save_document,
    scenario_to_dict,
    section_to_dict,
)
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections
from equicorr.xcorr import compress_filter


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
    code, out, _ = run_cli(capsys, "battery", "dihedral(3)", "--seed", "9")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "xcorr.equivariance" in names
    assert "transform.necessity" in names


def test_battery_bytes_do_not_depend_on_the_seed(tmp_path, capsys):
    # the battery draws nothing at random: --seed is accepted and moves no
    # byte, also on a scenario whose checks fail
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    rows = doc["filter"]["rows"]
    b, row = next(iter(rows.items()))
    h, mat = next(iter(row.items()))
    rows[b][h] = (np.asarray(mat) * 3.0).tolist()  # breaks the faint constraint
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


# Non-finite table entries load (JSON NaN and Infinity decode as floats) and
# reach the validators, which name their coordinates; an infinite weight off
# the stabilizer is refused by the family's constructor instead.
NON_FINITE = {
    "mu-nan": (
        ("families", "mu", "weights", 3, 5),
        math.nan,
        {
            "families.disintegration-pointwise": [3, 5],
            "families.family-mu-conjugation": [3, 0, 5],
            "families.family-mu-haar-flag": [3],
        },
    ),
    "mubar-nan": (
        ("families", "mubar", "weights", 2, 2),
        math.nan,
        {"families.disintegration-pointwise": [2, 0], "families.family-mubar-pushforward": [2, 0, 0]},
    ),
    "psi-nan": (("psi", "values", 7, 1), math.nan, {"psi.psi-conjugation": [1, 7, 0]}),
    "nu-infinity": (("families", "nu", "weights", 3, 5), math.inf, "weight off the stabilizer"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_table_entries_load_and_are_named(tmp_path, capsys, case):
    (*where, i, j), value, expected = NON_FINITE[case]
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    table = functools.reduce(dict.__getitem__, where, doc)
    table[i][j] = value
    path = tmp_path / f"{case}.json"
    save_document(str(path), doc)
    assert json.dumps(value) in path.read_text(encoding="utf-8")  # JSON NaN or Infinity
    code, out, err = run_cli(capsys, "validate", str(path))
    if isinstance(expected, str):
        assert code == 2 and expected in err
    else:
        assert code == 1
        failed = {c["name"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]}
        assert failed == expected


def test_a_nan_does_not_hide_a_negative_weight(tmp_path, capsys):
    # a NaN alone loads (above); beside it a negative entry is still refused
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    weights = doc["families"]["mu"]["weights"]
    weights[0][0], weights[1][1] = math.nan, -5.0
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
    """Store doc's filter compressed, its row at b0 = 0 raised by `by` at h."""
    comp = compress_filter(scn.filt)
    comp.rows[0][h] += by
    doc["filter"] = filter_to_dict(comp)


def _bump_dense_entry(doc: dict, scn) -> None:
    doc["filter"]["rows"]["0"]["1"][0][0] += 0.5


# dihedral(4, bundle=sign) rows that break the filter law, stored dense or
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
    doc = json.loads(json.dumps(scenario_to_dict(scn)))
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


def test_broken_disintegration_fails_battery_without_error(tmp_path, capsys):
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    doc["families"]["mubar"]["weights"][0][1] *= 1.5
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
    doc = scenario_to_dict(build_scenario("torus-bands(16)"))
    names = []
    for scale in (1.0, 1.5):
        doc["families"]["mubar"]["weights"][0][1] *= scale
        path = tmp_path / f"mubar-{scale}.json"
        save_document(str(path), doc)
        _, out, _ = run_cli(capsys, "battery", str(path))
        checks = json.loads(out)["checks"]
        names.append([c["name"] for c in checks])
        assert len(checks) == 44
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


def _v1_cayley(doc: dict) -> list:
    """Rewrite doc as an equicorr-scenario/1 document, whose group is the
    full Cayley table, and return that table."""
    grp = build_scenario(MALFORMED_SPEC).group
    doc["schema"] = "equicorr-scenario/1"
    doc["action"]["group"] = {"elements": list(grp.elements), "cayley": grp.cayley.tolist()}
    return doc["action"]["group"]["cayley"]


def _group(doc: dict) -> dict:
    return doc["action"]["group"]


def _mistype(row: list, kind: type) -> None:
    """Replace the first 0 or 1 in row by a float or a bool that a cast to
    int would read back as the same integer."""
    i = next(i for i, v in enumerate(row) if v in (0, 1))
    row[i] = row[i] + 0.5 if kind is float else bool(row[i])


def _set_delta_value(doc: dict, value) -> None:
    row = doc["delta"]["by_base"]["0"]
    row[next(iter(row))] = value


MALFORMED = {
    "no-families": lambda doc: doc.pop("families"),
    "mu-number": lambda doc: doc["families"].update(mu=3),
    "ragged-action-table": lambda doc: doc["action"]["table"][0].pop(),
    "theta-entry-without-c": lambda doc: doc["thetas"]["derived"]["entries"][0].pop("c"),
    "filter-rows-list": lambda doc: doc["filter"].update(rows=list(doc["filter"]["rows"].values())),
    "bundle-without-act-matrix": lambda doc: doc["input_bundle"].pop("act_matrix"),
    # control: the family constructor rejects this shape itself
    "mu-wrong-shape": lambda doc: doc["families"]["mu"].update(weights=[[1.0]]),
    # past int64: a JSON integer >= 2^63, or 1e400, which JSON loads as inf
    "cayley-entry-2^63": lambda doc: _v1_cayley(doc)[0].__setitem__(0, 2**63),
    "cayley-entry-1e400": lambda doc: _v1_cayley(doc)[0].__setitem__(0, float("inf")),
    # past int32, into the int64 range: 2^32 would narrow to 0 if cast before the range check
    "cayley-entry-2^32": lambda doc: _v1_cayley(doc)[0].__setitem__(0, 2**32),
    "permutation-entry-2^32": lambda doc: _group(doc)["right"][0].__setitem__(0, 2**32),
    "action-entry-2^32": lambda doc: doc["action"]["table"][0].__setitem__(0, 2**32),
    # past int16, the index dtype: -2^16 would narrow to 0 if cast before the range check
    "cayley-entry-minus-2^16": lambda doc: _v1_cayley(doc)[0].__setitem__(0, -(2**16)),
    "permutation-entry-minus-2^16": lambda doc: _group(doc)["right"][0].__setitem__(0, -(2**16)),
    "action-entry-minus-2^16": lambda doc: doc["action"]["table"][0].__setitem__(0, -(2**16)),
    "permutation-entry-2^63": lambda doc: _group(doc)["right"][0].__setitem__(0, 2**63),
    "permutation-entry-1e400": lambda doc: _group(doc)["left"][1].__setitem__(3, float("inf")),
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
    "params-n-string": lambda doc: doc["params"].update(n="4"),
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
            ("cayley", lambda doc: _v1_cayley(doc)[0]),
        )
        for kind in (float, bool)
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_file_exits_two(case, tmp_path, capsys):
    doc = json.loads(json.dumps(scenario_to_dict(build_scenario(MALFORMED_SPEC))))
    MALFORMED[case](doc)
    path = tmp_path / "malformed.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "key, name, value",
    [
        ("params", "n", "16"),
        ("extras", "band_spacing", "4"),
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
    doc = json.loads(json.dumps(scenario_to_dict(build_scenario(spec))))
    doc[key][name] = value
    path = tmp_path / "mistyped.json"
    save_document(str(path), doc)
    code, out, err = run_cli(capsys, "battery", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(value) in err


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
    doc = json.loads(json.dumps(scenario_to_dict(build_scenario("torus-bands(12)"))))
    entries = doc["thetas"]["global"]["entries"]
    assert (entries[0]["c"], entries[0]["b"]) == (0, 0)
    if corrupt == "bumped":
        entries[0]["element"] += 1  # theta(0, 0).0 != 0
    else:
        del entries[0]  # theta misses the kernel support pair (0, 0)
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
    assert json.loads(out)["schema"] == "equicorr-filter/1"

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
