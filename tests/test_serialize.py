from __future__ import annotations

import collections
import copy
import functools
import hashlib
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicorr import groups, serialize
from equicorr.battery import run_battery
from equicorr.bundles import section_to_mackey
from equicorr.errors import EquicorrError, StructuralError
from equicorr.rng import SplitMix64
from equicorr.sampling import random_sections
from equicorr.scenarios import build_scenario
from equicorr.serialize import (
    dumps,
    filter_from_dict,
    filter_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    load_document,
    mackey_from_dict,
    mackey_to_dict,
    report_to_dict,
    save_document,
    scenario_from_dict,
    scenario_to_dict,
    section_from_dict,
    section_to_dict,
    theta_from_dict,
    theta_to_dict,
)
from equicorr.xcorr import Filter, cross_correlate, validate_filter

from helpers import compressed_filter_to_dict, dense_nu, scenario_to_v2_dict, traced_peak


def roundtrip(doc: dict) -> dict:
    return json.loads(dumps(doc))


CODEC_SPECS = [
    "dihedral(4, bundle=sign)",
    "torus-bands(16)",
    "cyclic(6, families=normalized-psi)",
    "line-grid(5, dx=0.2)",
    "cyclic(1)",  # no generators: empty left and right
]


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_scenario_codec_is_byte_stable(spec):
    scn = build_scenario(spec)
    doc = scenario_to_dict(scn)
    text = dumps(doc)
    again = scenario_to_dict(scenario_from_dict(roundtrip(doc)))
    assert dumps(again) == text


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_v1_documents_are_refused_by_their_tag(spec):
    # equicorr-scenario/1 stored the group as the full Cayley table; the tag
    # alone refuses the file, whichever group form it holds
    scn = build_scenario(spec)
    doc = roundtrip(scenario_to_dict(scn))
    assert dumps(scenario_to_dict(scenario_from_dict(copy.deepcopy(doc)))) == dumps(scenario_to_dict(scn))
    doc["schema"] = "equicorr-scenario/1"
    refused = "^expected schema 'equicorr-scenario/5', got 'equicorr-scenario/1'$"
    with pytest.raises(StructuralError, match=refused):
        scenario_from_dict(copy.deepcopy(doc))
    doc["action"]["group"] = {"elements": list(scn.group.elements), "cayley": scn.group.cayley.tolist()}
    with pytest.raises(StructuralError, match=refused):
        scenario_from_dict(doc)


def test_group_is_stored_by_generator_permutations():
    grp = build_scenario("torus-bands(32)").group
    doc = roundtrip(scenario_to_dict(build_scenario("torus-bands(32)")))["action"]["group"]
    assert set(doc) == {"elements", "identity", "generators", "left", "right"}
    gens = doc["generators"]
    assert gens == [1, 32]
    assert sum(len(row) for row in doc["left"] + doc["right"]) == 2 * len(gens) * grp.order
    assert doc["left"] == grp.cayley[gens].tolist() and doc["right"] == grp.cayley[:, gens].T.tolist()


DIFFERS = "multiplication differs from the derived table at element"
GROUP_FAULTS = {
    # generator 1 multiplying as the identity: the tree reaches only <4>
    "unreached": (
        lambda g: g["left"].__setitem__(0, list(range(8))),
        "element 1 is not reached from the identity by left multiplication by the generators [1, 4]",
    ),
    "left": (lambda g: g["left"][0].__setitem__(0, 4), f"generator 1: stored left {DIFFERS} 0 (4 != 1)"),
    "right": (lambda g: g["right"][1].__setitem__(3, 0), f"generator 4: stored right {DIFFERS} 3 (0 != 7)"),
    # range-checked, not wrapped to the last element
    "generator -1": (lambda g: g["generators"].__setitem__(0, -1), "generator index -1 out of range [0, 8)"),
    "identity -1": (lambda g: g.update(identity=-1), "identity index -1 out of range [0, 8)"),
}


@pytest.mark.parametrize("fault", sorted(GROUP_FAULTS))
def test_group_loader_names_generator_and_element(dihedral4, fault):
    plant, message = GROUP_FAULTS[fault]
    doc = roundtrip(scenario_to_dict(dihedral4))
    plant(doc["action"]["group"])
    with pytest.raises(StructuralError, match=re.escape(message)):
        scenario_from_dict(doc)


def test_psi_advisory_keys_still_load():
    # files written before psi lost its advisory modulus and scale keys
    scn = build_scenario("cyclic(6, families=normalized-psi)")
    doc = roundtrip(scenario_to_dict(scn))
    assert set(doc["psi"]) == {"values"}
    doc["psi"].update(modulus=1.0, scale=1.0)
    loaded = scenario_from_dict(doc)
    assert np.array_equal(loaded.psi.values, scn.psi.values)
    assert dumps(scenario_to_dict(loaded)) == dumps(scenario_to_dict(scn))


def test_deserialized_scenario_passes_battery(tmp_path):
    scn = build_scenario("dihedral(3, bundle=sign)")
    path = tmp_path / "scn.json"
    save_document(str(path), scenario_to_dict(scn))
    loaded = scenario_from_dict(load_document(str(path)))
    rep = run_battery(loaded)
    assert rep.passed, rep.summary_lines()


def test_filter_codec_preserves_values_bitwise(dihedral4_sign):
    filt = dihedral4_sign.filt
    doc = roundtrip(filter_to_dict(filt))
    back = filter_from_dict(doc, filt.input_bundle, filt.output_bundle)
    assert np.array_equal(back.matrices, filt.matrices)
    assert validate_filter(back).passed


def test_compressed_filter_docs_expand_bitwise(torus8):
    # the columns at the orbit representatives are stored, and the loader
    # carries them back to the whole table
    doc = roundtrip(compressed_filter_to_dict(torus8.filt))
    assert doc["compressed"] is True
    columns = torus8.filt.matrices[:, list(torus8.action.domain)]
    assert serialize._fill_from_dict(doc["matrices"], columns.shape, "filter").tobytes() == columns.tobytes()
    back = filter_from_dict(doc, torus8.input_bundle, torus8.output_bundle)
    assert type(back) is Filter
    assert back.matrices.tobytes() == torus8.filt.matrices.tobytes()


# the fundamental-domain documents of two filters, pinned to their bytes
COMPRESSED_FILTER_HASHES = {
    "dihedral(4, bundle=sign)": "a632bb711f110dbd5ce0df4deb0d703d6e4c729ccbe54ad150487909d2af57a0",
    "torus-bands(16)": "9368169d38c065426c844a26ad62434c3cf62857ac63f5c313689c5de7b688e7",
}


@pytest.mark.parametrize("spec", sorted(COMPRESSED_FILTER_HASHES))
def test_compressed_filter_doc_bytes_match_golden(spec):
    text = dumps(compressed_filter_to_dict(build_scenario(spec).filt))
    assert hashlib.sha256(text.encode()).hexdigest() == COMPRESSED_FILTER_HASHES[spec]


def test_a_zero_filter_doc_is_its_fill_alone(torus8):
    zero = Filter(torus8.input_bundle, torus8.output_bundle, np.zeros_like(torus8.filt.matrices))
    for doc in (roundtrip(filter_to_dict(zero)), roundtrip(compressed_filter_to_dict(zero))):
        assert doc["matrices"] == {"fill": 0.0, "at": [], "values": []}
        assert not filter_from_dict(doc, torus8.input_bundle, torus8.output_bundle).support.any()


def test_kernel_and_theta_codecs(bands16):
    kern = bands16.kernel
    back = kernel_from_dict(roundtrip(kernel_to_dict(kern)), kern.input_bundle, kern.output_bundle)
    assert np.array_equal(back.matrices, kern.matrices)
    for theta in bands16.thetas.values():
        tback = theta_from_dict(roundtrip(theta_to_dict(theta)), bands16.action)
        assert np.array_equal(tback.reps, theta.reps)


def test_section_codecs(cyclic8):
    f = random_sections(cyclic8.input_bundle, SplitMix64(5), 1)[0]
    fb = section_from_dict(roundtrip(section_to_dict(f)), cyclic8.input_bundle)
    assert np.array_equal(fb.values, f.values)
    m = section_to_mackey(random_sections(cyclic8.input_bundle, SplitMix64(6), 1)[0])
    mb = mackey_from_dict(roundtrip(mackey_to_dict(m)), cyclic8.input_bundle)
    assert np.array_equal(mb.values, m.values)


def test_report_doc_shape(dihedral4):
    rep = run_battery(dihedral4)
    doc = report_to_dict(rep, context={"scenario": dihedral4.name})
    assert doc["schema"] == "equicorr-report/1"
    assert doc["context"]["scenario"] == "dihedral(4)"
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    assert all(isinstance(c["pass"], bool) for c in doc["checks"])


def test_malformed_documents_rejected(bands16):
    good = scenario_to_dict(bands16)

    wrong_schema = dict(good, schema="equicorr-scenario/6")
    with pytest.raises(StructuralError):
        scenario_from_dict(wrong_schema)

    bad_action = roundtrip(good)
    del bad_action["action"]["table"]
    with pytest.raises(StructuralError):
        scenario_from_dict(bad_action)

    bad_index = roundtrip(good)
    bad_index["filter"]["matrices"]["at"][-1] = bands16.filt.matrices.size
    with pytest.raises(StructuralError, match="filter at"):
        scenario_from_dict(bad_index)

    bad_matrix = roundtrip(good)
    bad_matrix["kernel"]["matrices"]["values"] = [[1.0, 2.0]]
    with pytest.raises(StructuralError, match="kernel values shape"):
        scenario_from_dict(bad_matrix)

    bad_reps = roundtrip(good)
    bad_reps["thetas"]["global"]["reps"][0][0] = 10_000
    with pytest.raises(StructuralError, match="theta entry out of range"):
        scenario_from_dict(bad_reps)


def test_load_document_errors(tmp_path):
    from equicorr.errors import DomainError

    with pytest.raises(DomainError):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(StructuralError):
        load_document(str(bad))


# ---------------------------------------------------------------------------
# an index has one spelling, and no entry is given twice


def _cyclic4_doc() -> dict:
    """cyclic(4) as a plain JSON document."""
    return roundtrip(scenario_to_dict(build_scenario("cyclic(4)")))


@pytest.mark.parametrize("value", [True, False, 1.0])
@pytest.mark.parametrize("where", ["identity", "generator", "theta"])
def test_a_bool_or_float_index_is_rejected(where, value):
    # a JSON true used to load as index 1
    doc = _cyclic4_doc()
    message = f"index {value!r} is not an integer"
    if where == "identity":
        doc["action"]["group"]["identity"] = value
    elif where == "generator":
        doc["action"]["group"]["generators"][0] = value
    else:
        next(iter(doc["thetas"].values()))["reps"][0][0] = value
        message = "theta reps entries must be JSON integers"
    with pytest.raises(StructuralError, match=re.escape(message)):
        scenario_from_dict(doc)


def test_a_key_repeated_in_one_json_object_is_rejected(tmp_path):
    doc = _cyclic4_doc()
    path = tmp_path / "scenario.json"
    save_document(str(path), doc)
    text = path.read_text(encoding="utf-8")
    scenario_from_dict(load_document(str(path)))  # the file as written loads
    path.write_text(text.replace('"compressed": false,', '"compressed": false, "compressed": true,', 1), encoding="utf-8")
    with pytest.raises(StructuralError, match="key 'compressed' repeated in one JSON object"):
        load_document(str(path))


def test_trivial_bundle_collapses(cyclic8):
    doc = scenario_to_dict(cyclic8)
    assert doc["input_bundle"] == {"kind": "trivial", "fiber_dim": 1}
    assert doc["output_bundle"] == "same"


# the last has a psi, so the fuzzer reaches every fill form and a reps table
_FUZZ_SPECS = ("cyclic(4)", "dihedral(3, bundle=sign)", "dihedral(4, families=normalized-psi)")
_FUZZ_VALUES = (None, "x", [], {}, -1, 0, 2**31, 2**63, float("nan"), float("inf"))


@functools.cache
def _fuzz_doc(spec: str) -> tuple[dict, list[tuple]]:
    """A valid scenario document and the path to every node in it."""
    doc = roundtrip(scenario_to_dict(build_scenario(spec)))
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            paths.append(path + (key,))
            walk(child, path + (key,))

    walk(doc, ())
    return doc, paths


_FUZZ_MUTATIONS = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(("delete",) + _FUZZ_VALUES)), min_size=1, max_size=3
)


def _mutated(spec: str, mutations: list[tuple]) -> dict:
    """Delete dict keys and replace nodes; a mutation whose path an earlier
    one removed is skipped."""
    valid, paths = _fuzz_doc(spec)
    doc = copy.deepcopy(valid)
    for index, value in mutations:
        *head, key = paths[index % len(paths)]
        parent = doc
        try:
            for step in head:
                parent = parent[step]
            parent[key]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(parent, (dict, list)):
            continue
        if value != "delete":
            parent[key] = copy.deepcopy(value)
        elif isinstance(parent, dict):
            del parent[key]
    return doc


def _outcome(load):
    """The loaded scenario's bytes, or the EquicorrError's type and message."""
    try:
        return dumps(scenario_to_dict(load()))
    except EquicorrError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FUZZ_SPECS), _FUZZ_MUTATIONS)
def test_mutated_scenario_documents_load_or_raise_equicorr_errors(spec, mutations):
    try:
        scenario_from_dict(_mutated(spec, mutations))
    except EquicorrError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FUZZ_SPECS), _FUZZ_MUTATIONS)
def test_mutated_scenario_files_load_like_their_documents(spec, mutations):
    # decoding float tables during the parse changes no outcome and no message
    doc = _mutated(spec, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        save_document(path, doc)
        assert _outcome(lambda: scenario_from_dict(load_document(path))) == _outcome(lambda: scenario_from_dict(doc))


# ---------------------------------------------------------------------------
# the codec in bulk: float tables decoded during the parse, dumps as json's
# indent-2 encoding

SCENARIO_HASHES = json.loads((Path(__file__).resolve().parent / "golden" / "scenario-sha256.json").read_text())


def _arrays(obj, path: str = "scenario", out: dict | None = None) -> dict[str, np.ndarray]:
    """Every ndarray reachable from an equicorr object, by attribute path."""
    out = {} if out is None else out
    if isinstance(obj, np.ndarray):
        out[path] = obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _arrays(value, f"{path}[{key!r}]", out)
    elif type(obj).__module__.startswith("equicorr."):
        for key, value in vars(obj).items():
            _arrays(value, f"{path}.{key}", out)
    return out


@pytest.mark.parametrize("spec", sorted(SCENARIO_HASHES))
def test_loading_a_file_matches_loading_its_dict(spec, tmp_path):
    text = dumps(scenario_to_dict(build_scenario(spec)))
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    doc = load_document(str(path))
    assert isinstance(doc["action"]["table"], np.ndarray)  # and so are the integer tables
    stored = [doc["families"][key]["weights"] for key in ("mu", "nu", "mubar")]
    stored += [doc.get(key, {}).get("values") for key in ("psi", "delta")]
    stored += [doc.get(key, {}).get("matrices") for key in ("filter", "kernel")]
    for fill in filter(None, stored):  # an empty list stays a list: it has no first entry to type
        decoded = [isinstance(fill[key], np.ndarray) or fill[key] == [] for key in ("at", "values")]
        assert decoded == [True, True]
    assert all(isinstance(theta["reps"], np.ndarray) for theta in doc.get("thetas", {}).values())
    from_file, from_dict = _arrays(scenario_from_dict(doc)), _arrays(scenario_from_dict(json.loads(text)))
    assert from_file.keys() == from_dict.keys()
    for name, array in from_file.items():
        ref = from_dict[name]
        assert (array.dtype, array.shape) == (ref.dtype, ref.shape), name
        assert array.tobytes() == ref.tobytes(), name
    assert dumps(doc) == text  # a loaded document saves back to the same bytes


@pytest.mark.parametrize("spec", sorted(SCENARIO_HASHES))
def test_a_v2_file_is_refused_by_its_tag(spec, tmp_path):
    # equicorr-scenario/2 stored dense measure tables and theta entry lists;
    # the tag alone refuses the file, before any of its tables is read
    path = tmp_path / "scenario.json"
    save_document(str(path), scenario_to_v2_dict(build_scenario(spec)))
    refused = "^expected schema 'equicorr-scenario/5', got 'equicorr-scenario/2'$"
    with pytest.raises(StructuralError, match=refused):
        scenario_from_dict(load_document(str(path)))


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_a_v4_file_is_refused_by_its_tag(spec, tmp_path):
    # equicorr-scenario/4 stored nu as the fill form of its (|B|, |G|) table
    # nu_b(h); the tag alone refuses the file
    scn = build_scenario(spec)
    doc = scenario_to_dict(scn)
    doc["schema"] = "equicorr-scenario/4"
    doc["families"]["nu"]["weights"] = serialize._fill_to_dict(dense_nu(scn.nu))
    path = tmp_path / "scenario.json"
    save_document(str(path), doc)
    refused = "^expected schema 'equicorr-scenario/5', got 'equicorr-scenario/4'$"
    with pytest.raises(StructuralError, match=refused):
        scenario_from_dict(load_document(str(path)))


def test_the_readme_file_formats_name_the_current_schema_tags():
    # every tag the section names is one serialize writes, and every one it
    # writes is named, apart from the older tag of the refused example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    refused = re.search(r"expected schema '([\w/-]+)', got\s+'([\w/-]+)'", section)
    named = re.findall(r"equicorr-[a-z-]+/\d+", section.replace(refused.group(0), ""))
    tags = {value for key, value in vars(serialize).items() if key.endswith("_SCHEMA")}
    assert refused.group(1) == serialize.SCENARIO_SCHEMA
    assert set(named) == tags and len(tags) == 6


_BITS = st.sampled_from([0.0, -0.0, 1.0, 0.5, math.nan, math.inf, -math.inf, 5e-324])
# 2-d measure tables, 3-d and 4-d filter and kernel tables
_SHAPED_TABLES = st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4).flatmap(
    lambda shape: st.lists(_BITS, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda entries: np.array(entries).reshape(shape)
    )
)


@settings(max_examples=200, deadline=None)
@given(_SHAPED_TABLES)
def test_the_fill_form_keeps_every_bit_pattern(table):
    # the fill is the most frequent bit pattern, the smallest int64 view on
    # a tie; every other entry is listed, -0.0 apart from 0.0 and NaN kept
    stored = serialize._fill_to_dict(table)
    bits = table.ravel().view(np.int64).tolist()
    counts = collections.Counter(bits)
    fill = min(counts, key=lambda b: (-counts[b], b))
    assert np.float64(stored["fill"]).view(np.int64) == fill
    assert stored["at"].tolist() == [i for i, b in enumerate(bits) if b != fill]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        save_document(path, {"weights": stored})
        back = serialize._fill_from_dict(load_document(path)["weights"], table.shape, "table")
    assert back.tobytes() == table.tobytes()


_TABLE_LEAVES = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=2), st.just({}))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_TABLE_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=12))
def test_float_tables_decode_to_the_arrays_the_loaders_build(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"values": table, "table": table}))
        doc = load_document(path)
    parsed = json.loads(json.dumps(table))
    first = parsed
    while isinstance(first, list) and first:
        first = first[0]
    try:
        loader_array = np.asarray(parsed, dtype=float)
    except (TypeError, ValueError, OverflowError):
        loader_array = None
    assert not isinstance(doc["table"], np.ndarray) or doc["table"].dtype == np.int64  # no float decode here
    if isinstance(doc["values"], np.ndarray):
        assert isinstance(parsed, list) and isinstance(first, float)
        assert doc["values"].dtype == np.float64 and loader_array is not None
        assert doc["values"].shape == loader_array.shape and doc["values"].tobytes() == loader_array.tobytes()
    else:
        assert type(doc["values"]) is type(parsed)


def _leaves(table) -> list:
    return [leaf for x in table for leaf in _leaves(x)] if isinstance(table, list) else [table]


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        st.one_of(st.floats(), st.integers(-9, 9), st.booleans()),
        lambda inner: st.lists(inner, min_size=1, max_size=3),
        max_leaves=12,
    )
)
def test_a_float_table_decodes_exactly_when_every_entry_is_a_number(table):
    # true is not the number 1.0: a float table that holds a bool stays the
    # list it was, for the loader that reads it to refuse
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"values": table}))
        doc = load_document(path)
    parsed = json.loads(json.dumps(table))
    try:
        regular = np.asarray(parsed, dtype=float).ndim > 0
    except ValueError:  # ragged
        regular = False
    numbers = {type(leaf) for leaf in _leaves(parsed)} <= {float, int}
    decodes = regular and numbers and type(_leaves(parsed)[0]) is float
    assert isinstance(doc["values"], np.ndarray) == decodes


def test_the_fill_values_and_a_filter_matrix_refuse_a_bool():
    with pytest.raises(StructuralError, match="^nu values holds a JSON true or false, not a number$"):
        serialize._fill_from_dict({"fill": 0.0, "at": [1], "values": [True]}, (1, 2), "nu")
    with pytest.raises(StructuralError, match="^filter values holds a JSON true or false, not a number$"):
        serialize._fill_from_dict({"fill": 0.5, "at": [1], "values": [False]}, (1, 2, 1, 1), "filter")
    assert serialize._fill_from_dict({"fill": 0.5, "at": [1], "values": [2]}, (1, 2, 1, 1), "filter").tolist() == [
        [[[0.5]], [[2.0]]]
    ]


def _all_json_integers(table) -> bool:
    if isinstance(table, list):
        return all(_all_json_integers(x) for x in table)
    return type(table) is int


@settings(max_examples=200, deadline=None)
@given(st.recursive(_TABLE_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=12))
def test_int_tables_decode_only_when_every_entry_is_an_integer(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"table": table, "left": table}))
        doc = load_document(path)
    parsed = json.loads(json.dumps(table))
    first = parsed
    while isinstance(first, list) and first:
        first = first[0]
    try:
        regular = np.asarray(parsed).dtype == np.int64
    except ValueError:  # ragged
        regular = False
    decodes = isinstance(parsed, list) and type(first) is int and _all_json_integers(parsed) and regular
    for key in ("table", "left"):
        if decodes:
            assert doc[key].dtype == np.int64 and doc[key].tolist() == parsed
        else:  # compared as text, where a NaN equals itself
            assert type(doc[key]) is type(parsed) and json.dumps(doc[key]) == json.dumps(parsed)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16]),
    st.text(),
    st.text(alphabet='[]{},:"\\ \n\t/\u00e9\u2028\U0001f600x'),
)
_JSON_KEYS = st.text(alphabet='[]{},:"\\ \nab\u00e9', max_size=4)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCS)
def test_dumps_is_the_indent_2_encoding(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS, st.sampled_from([1, 2, 3, 5, 64]))
def test_dumps_carries_depth_and_open_strings_across_blocks(doc, block):
    # a block boundary may fall inside a string, an escape pair or an
    # empty container, or right after a comma or an opener
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_BLOCK_ENTRIES", block)
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_peak_is_a_few_times_its_text():
    # the scenario's 2.0 MB of /2 text peaked at 18.5 MB when the whole text
    # was re-indented at once, through three intp arrays of its length
    doc = scenario_to_v2_dict(build_scenario("torus-bands(32)"))
    text, peak = traced_peak(lambda: dumps(doc))
    assert peak < 3 * len(text)


def test_an_xcorr_document_is_encoded_from_its_array(monkeypatch):
    # the document holds the output array, whose nested list lives only while
    # the encoder writes that value: by the time the compact text is
    # re-indented it is gone
    scn = build_scenario("cyclic(256)")
    m = section_to_mackey(random_sections(scn.input_bundle, SplitMix64(5), 1)[0])
    out = cross_correlate(scn.filt, m, scn.mu)
    nested, nested_bytes = traced_peak(out.values.tolist)
    del nested
    at_reindent = []

    def blocks(*args):
        at_reindent.append(tracemalloc.get_traced_memory()[0])
        return groups._row_blocks(*args)

    monkeypatch.setattr(serialize, "_row_blocks", blocks)
    text, _ = traced_peak(lambda: dumps(mackey_to_dict(out)))
    assert at_reindent[0] < nested_bytes
    assert json.loads(text)["values"] == out.values.tolist()


def test_dumps_matches_json_on_every_document_the_cli_writes():
    scn = build_scenario("torus-bands(32)")
    report = run_battery(scn)
    docs = {
        "scenario": scenario_to_dict(scn),
        "filter": filter_to_dict(scn.filt),
        "kernel": kernel_to_dict(scn.kernel),
        "section": section_to_dict(random_sections(scn.input_bundle, SplitMix64(1), 1)[0]),
        "mackey": mackey_to_dict(section_to_mackey(random_sections(scn.input_bundle, SplitMix64(2), 1)[0])),
        "report": report_to_dict(report, {"scenario": scn.name, "mode": "battery"}),
    }
    for kind, doc in docs.items():  # dumps writes an ndarray as its tolist()
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n", kind


def test_dumps_writes_an_ndarray_as_its_tolist():
    arrays = [
        np.array([[0.5, -0.0], [np.nan, -np.inf]]),
        np.arange(6).reshape(2, 3),
        np.array([True, False]),
        np.zeros((2, 0)),
        np.zeros(0),
        np.array(1e16),
    ]
    doc = {"tables": arrays, "values": arrays[0]}
    plain = {"tables": [a.tolist() for a in arrays], "values": arrays[0].tolist()}
    assert dumps(doc) == json.dumps(plain, sort_keys=True, indent=2) + "\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"x": np.int64(1)})
