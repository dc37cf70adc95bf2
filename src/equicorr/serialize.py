"""JSON serialization for scenarios, filters, kernels, sections, and
reports.

Documents carry a schema tag ("equicorr-scenario/8" and friends) and are
emitted with sorted keys and fixed indentation, so identical inputs
produce byte-identical files; a document under any other tag, an older
form among them, is refused by its tag.  A scenario stores its group as
FiniteGroup defines it, by the left multiplications λ_s of its generating
set, |S|·|G| integers in place of the |G|² Cayley table; each generator s
is λ_s(e).  The action table is stored by its rows s.b at those s,
|S|·|B| integers with the flag "by_generators" true, whenever those
rebuild it along the group's walk (groups.action_table), as they do for
every action; any other table is stored whole, (|G|, |B|), with the flag
false.  The loader decides no group or action law: validate_group and
validate_action do.  When a table read after the action is refused, and
the action breaks a law, the refusal names the law first.
Every float table (an explicit bundle's act matrices, the filter, the
kernel, delta, mu, nu, mubar and psi) is stored whole as a fill and its
exceptions, {"fill": f, "at": [flat indices], "values": [...]}: f is the
table's most frequent bit pattern, and `at` lists, ascending in row-major
order, the entries whose bit pattern differs from it, so -0.0 and NaN
round-trip exactly; the loader takes the shape from the action and the
fiber dimensions, and refuses one over the size budget before allocating
it; nu's is (|B|,), one weight per base point, and the act matrices' is
(|G|, |B|, d, d), d the largest fiber dimension.  Each theta is stored as
its (|B|, |B|) `reps` table, -1 where undefined.  The Scenario record
lives here, beside its codec, so that loading a file never imports the
scenario builders.
Loading validates shapes and index ranges and raises StructuralError on
malformed input rather than guessing; a document-level loader also
reports a missing key or a value of the wrong JSON type as
StructuralError.  An index is a JSON integer, and a key repeated in one
JSON object is rejected, not overwritten.

Numbers cross the JSON boundary in bulk.  `load_document` decodes each
float table (a `values` list whose first entry is a float) into the
ndarray the loaders would build from it, and each integer table (an
action `table`, a group's `left`, a fill form's `at`, a theta's `reps`)
whose every entry is a JSON integer into an int64 array, as the parser
closes the object holding it, so a file's numbers never all live as
Python objects at once; anything else stays a list and reaches the
loaders' own checks unchanged.  Those type-check a
table rather than cast it: 1.5 and true are not integers, and true is
not the number 1.0.
`dumps` is `json.dumps(doc, sort_keys=True, indent=2) + "\n"`, byte for
byte, built from json's compact C encoding and re-indented with numpy; an
ndarray in the document is written as its `tolist()`.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from .bundles import EquivariantBundle, MackeySection, Section, trivial_bundle
from .errors import DomainError, StructuralError
from .groups import (
    FiniteGroup, GroupAction, _check_budget, _float_table, _leaf_types, _row_blocks, action_table, validate_action,
)
from .measures import (
    DeltaFunction,
    GroupMeasureFamily,
    OrbitMeasureFamily,
    PsiFunction,
    StabilizerMeasureFamily,
)
from .reporting import ValidationReport
from .transforms import Kernel, ThetaMap
from .xcorr import Filter

SCENARIO_SCHEMA = "equicorr-scenario/8"
FILTER_SCHEMA = "equicorr-filter/3"
KERNEL_SCHEMA = "equicorr-kernel/2"
SECTION_SCHEMA = "equicorr-section/1"
MACKEY_SCHEMA = "equicorr-mackey-section/1"
REPORT_SCHEMA = "equicorr-report/1"


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ": "), default=_plain).encode
# byte kinds of the compact text: 1 quote, 2 comma, 3 opener, 4 closer; the depth step of each
_KIND = bytes({ord('"'): 1, ord(","): 2, ord("["): 3, ord("{"): 3, ord("]"): 4, ord("}"): 4}.get(i, 0) for i in range(256))
_STEP = np.array([0, 0, 0, 1, -1], np.intp)


def dumps(doc: dict) -> str:
    """Stable text form: sorted keys, two-space indent, trailing newline.

    The indent-2 text is the compact text with a newline and 2·depth
    spaces after each comma and each opening bracket, and before each
    closing bracket, except inside strings and empty containers.  The
    compact text is ASCII, so the breaks are found and inserted as byte
    arrays, one block of groups._BLOCK_ENTRIES bytes at a time, with the
    depth and whether a string is open carried from block to block."""
    text = _COMPACT(doc)
    # blank escape pairs, then empty containers: what stays quoted is string content
    skeleton = text.replace("\\\\", "__").replace('\\"', "__").replace("[]", "__").replace("{}", "__")
    chunks, depth, inside = [], 0, False
    for block in _row_blocks(len(text), 1):
        raw = np.frombuffer(text[block].encode("ascii"), np.uint8)
        kind = np.frombuffer(skeleton[block].encode("ascii").translate(_KIND), np.uint8)
        marks = np.flatnonzero(kind)
        kind = kind[marks]
        quote = kind == 1
        opened = np.logical_xor.accumulate(quote) ^ inside  # a string is open after this mark
        inside = bool(opened[-1]) if opened.size else inside
        outside = ~(quote | opened)
        breaks, kind = marks[outside], kind[outside]
        at = breaks + (kind != 4)  # after a comma or opener, before a closer; raw.size: after the block
        width = 1 + 2 * (depth + np.cumsum(_STEP[kind]))  # depth after the break
        depth = int(width[-1] - 1) // 2 if width.size else depth
        shift = np.zeros(raw.size + 1, np.intp)
        shift[at] = width
        np.cumsum(shift, out=shift)
        out = np.full(raw.size + int(shift[-1]), ord(" "), np.uint8)
        out[np.arange(raw.size) + shift[:-1]] = raw
        out[at + shift[at] - width] = ord("\n")
        chunks.append(out.tobytes().decode("ascii"))
    chunks.append("\n")
    return "".join(chunks)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise StructuralError(msg)


def _document_loader(load):
    """Report the KeyError, TypeError, ValueError, AttributeError,
    IndexError or OverflowError that a malformed document raises inside
    `load` as one StructuralError line naming the exception."""

    @functools.wraps(load)
    def wrapped(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
            detail = " ".join(str(exc).split())
            raise StructuralError(f"malformed document: {type(exc).__name__}: {detail}") from exc

    return wrapped


def _expect_schema(doc: dict, schema: str) -> None:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("schema") == schema, f"expected schema {schema!r}, got {doc.get('schema')!r}")


# ---------------------------------------------------------------------------
# group and action


def group_to_dict(grp: FiniteGroup) -> dict:
    """The group by its stored rows: left[i] = λ_s, |S|·|G| entries in place of |G|²."""
    return {"elements": list(grp.elements), "identity": grp.identity, "left": grp.left.tolist()}


def group_from_dict(doc: dict) -> FiniteGroup:
    """The group of the stored rows `left`, from which FiniteGroup derives
    the table; the group axioms are left to validate_group."""
    _require(isinstance(doc, dict), "group must be an object")
    elements = _labels(doc["elements"], "group elements")
    identity = _index(doc["identity"], len(elements), "identity")
    return FiniteGroup(elements, identity, _int_table(doc["left"], "group left"))


def _generator_rows(stored, what: str, k: int, width: int) -> np.ndarray:
    """A (k, width) table, a row per generator, of entries in [0, width)."""
    table = _int_table(stored, what)
    _require(table.shape == (k, width) or table.size == k == 0, f"{what} must be ({k}, {width}), a row per generator")
    table = table.reshape(k, width)
    _require(table.size == 0 or (table.min() >= 0 and table.max() < width), f"{what} entries out of range")
    return table


def action_to_dict(action: GroupAction) -> dict:
    """`table` holds the rows s.b at the group's stored generators s =
    λ_s(e), and `by_generators` is true, when row e is the identity and
    table[λ_s(g)] = s.(g.b) for every g and every stored λ_s: then, by
    induction along the group's walk, every row the loader rebuilds is the
    stored one.  Any other table, one that is no action among them, is
    stored whole."""
    grp, table = action.group, action.table
    gens = grp.left[:, grp.identity]
    by_generators = np.array_equal(table[grp.identity], np.arange(action.base_size)) and all(
        np.array_equal(table[lam], table[s][table]) for lam, s in zip(grp.left, gens)
    )
    return {
        "group": group_to_dict(grp),
        "base": list(action.base),
        "by_generators": by_generators,
        "table": (table[gens] if by_generators else table).tolist(),
    }


def action_from_dict(doc: dict) -> GroupAction:
    _require(isinstance(doc, dict) and "table" in doc and "group" in doc, "action needs a group and a table")
    base = _labels(doc["base"], "action base")
    grp = group_from_dict(doc["group"])
    if _typed(doc["by_generators"], (bool,), "action by_generators"):
        table = action_table(grp, _generator_rows(doc["table"], "action table", len(grp.left), len(base)))
    else:  # GroupAction checks the whole table's shape and range
        table = _int_table(doc["table"], "action table")
    return GroupAction(grp, base, table)


# ---------------------------------------------------------------------------
# bundles


def bundle_to_dict(bundle: EquivariantBundle) -> dict:
    """Trivial bundles collapse to a tag; anything else stores its act
    matrices in the fill form."""
    n, m, d = bundle.action.group.order, bundle.action.base_size, bundle.dmax
    if np.array_equal(bundle.fiber_dim, np.full(m, d)) and np.array_equal(
        bundle.act_matrix, np.broadcast_to(np.eye(d), (n, m, d, d))
    ):
        return {"kind": "trivial", "fiber_dim": int(d)}
    return {
        "kind": "explicit",
        "fiber_dim": bundle.fiber_dim.tolist(),
        "act_matrix": _fill_to_dict(bundle.act_matrix),
    }


def bundle_from_dict(doc: dict, action: GroupAction) -> EquivariantBundle:
    _require(isinstance(doc, dict) and "kind" in doc, "bundle needs a kind")
    if doc["kind"] == "trivial":
        return trivial_bundle(action, _typed(doc.get("fiber_dim", 1), (int,), "fiber_dim"))
    if doc["kind"] == "explicit":
        fiber_dim = [_typed(d, (int,), "fiber_dim") for d in doc["fiber_dim"]]
        d = max([0, *fiber_dim])  # EquivariantBundle refuses a negative one
        shape = (action.group.order, action.base_size, d, d)
        return EquivariantBundle(action, fiber_dim, _fill_from_dict(doc["act_matrix"], shape, "act_matrix"))
    raise StructuralError(f"unknown bundle kind {doc['kind']!r}")


# ---------------------------------------------------------------------------
# sparse float tables and measure families


def _fill_to_dict(table: np.ndarray) -> dict:
    """{"fill": f, "at": flat indices, "values": the entries there}: f is
    the table's most frequent bit pattern, the smallest as int64 on a tie,
    and `at` lists, ascending, every entry whose bit pattern differs from
    it.  +0.0, whose bit pattern is 0, is the mode when it fills more than
    half the table, as it does in a sparse one, which one count decides;
    otherwise the mode comes from a sort and its run lengths, not
    np.unique, whose hash path imports numpy.ma (15-25 ms)."""
    flat = np.ravel(table)
    bits = flat.view(np.int64)
    if 2 * np.count_nonzero(bits) < bits.size:
        fill = np.int64(0)
    else:
        ordered = np.sort(bits)
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        fill = ordered[starts[np.argmax(np.diff(starts, append=ordered.size))]]
    at = np.flatnonzero(bits != fill)
    return {"fill": float(fill.view(np.float64)), "at": at, "values": flat[at]}


def _fill_from_dict(stored, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A stored table: the fill form, checked and expanded to shape, which
    is refused over the size budget before it is allocated."""
    _require(isinstance(stored, dict) and {"fill", "at", "values"} <= stored.keys(), f"{what} needs fill, at and values")
    size = math.prod(shape)
    _check_budget(f"a {shape} {what} table", size)
    fill = float(_typed(stored["fill"], (int, float), f"{what} fill"))
    at = _int_table(stored["at"], f"{what} at")
    _require(at.ndim == 1, f"{what} at must be a flat list of indices")
    bad = np.flatnonzero((at < 0) | (at >= size) | np.concatenate(([False], at[1:] <= at[:-1])))
    if bad.size:  # repeated or out of order, or no entry of the table
        i = int(bad[0])
        raise StructuralError(f"{what} at[{i}] = {at[i]} is outside [0, {size}) or not above the entry before it")
    values = _float_table(stored["values"], f"{what} values", at.shape)
    table = np.zeros(size)  # calloc: a +0.0 fill, as the sparse tables have, touches no page
    if np.float64(fill).view(np.int64):
        table.fill(fill)
    table[at] = values
    return table.reshape(shape)


def families_to_dict(mu: GroupMeasureFamily, nu: StabilizerMeasureFamily, mubar: OrbitMeasureFamily) -> dict:
    return {
        "mu": {"weights": _fill_to_dict(mu.weights), "haar": bool(mu.haar)},
        "nu": {"weights": _fill_to_dict(nu.weights)},
        "mubar": {"weights": _fill_to_dict(mubar.weights)},
    }


def families_from_dict(doc: dict, action: GroupAction):
    _require(isinstance(doc, dict) and {"mu", "nu", "mubar"} <= set(doc), "families need mu, nu, mubar")
    n, m = action.group.order, action.base_size
    mu_weights = _fill_from_dict(doc["mu"]["weights"], (m, n), "mu")
    mu = GroupMeasureFamily(action, mu_weights, haar=_typed(doc["mu"].get("haar", False), (bool,), "mu haar"))
    nu = StabilizerMeasureFamily(action, _fill_from_dict(doc["nu"]["weights"], (m,), "nu"))
    mubar = OrbitMeasureFamily(action, _fill_from_dict(doc["mubar"]["weights"], (m, m), "mubar"))
    return mu, nu, mubar


def _typed(value, types: tuple[type, ...], what: str):
    """value, if its type is exactly one of types: true is not an int, nor are "1" and 1.9."""
    _require(type(value) in types, f"{what} {value!r} is not {' or '.join(t.__name__ for t in types)}")
    return value


def _integer_array(table) -> np.ndarray | None:
    """A nested list as an int64 array when every entry is a Python int
    (not a bool) within int64, else None (also for a scalar): np.asarray(..., dtype=np.int64)
    alone would truncate 1.5 and read true as 1.  Raises ValueError on a
    ragged list."""
    arr = np.asarray(table)
    if arr.ndim and _leaf_types(table, arr.ndim) <= {int} and (arr.dtype == np.int64 or arr.size == 0):
        return arr.astype(np.int64, copy=False)  # an empty list reads as float64
    return None


def _float_array(table) -> np.ndarray | None:
    """A nested list as a float64 array when every entry is a JSON number,
    else None: np.asarray(..., dtype=float) alone would read true as 1.0.
    Raises ValueError on a ragged list or text."""
    arr = np.asarray(table, dtype=float)
    return arr if _leaf_types(table, arr.ndim) <= {float, int} else None


def _int_table(table, what: str) -> np.ndarray:
    """An integer table of a scenario: an int64 array as load_document
    decodes it, or a list of JSON integers."""
    arr = table if isinstance(table, np.ndarray) and table.dtype == np.int64 else _integer_array(table)
    _require(arr is not None, f"{what} entries must be JSON integers within the int64 range")
    return arr


def _labels(stored, what: str) -> tuple[str, ...]:
    """Element or base-point labels: distinct JSON strings, never cast."""
    _require(type(stored) is list, f"{what} must be a list of labels")
    if not (set(map(type, stored)) <= {str} and len(set(stored)) == len(stored)):
        first = {}
        for i, label in enumerate(stored):  # name the first offender
            _typed(label, (str,), f"{what}[{i}]")
            _require(first.setdefault(label, i) == i, f"{what}[{i}] {label!r} repeats {what}[{first[label]}]")
    return tuple(stored)


def _index(key: object, bound: int, what: str) -> int:
    """key as an index in [0, bound): a JSON integer, not a bool or a float."""
    _require(type(key) is int, f"{what} index {key!r} is not an integer")
    _require(0 <= key < bound, f"{what} index {key} out of range [0, {bound})")
    return key


# ---------------------------------------------------------------------------
# filters and kernels


def filter_to_dict(filt: Filter) -> dict:
    """The whole (|G|, |B|, dF, dE) table in the fill form."""
    return {"schema": FILTER_SCHEMA, "matrices": _fill_to_dict(filt.matrices)}


@_document_loader
def filter_from_dict(doc: dict, input_bundle: EquivariantBundle, output_bundle: EquivariantBundle) -> Filter:
    _expect_schema(doc, FILTER_SCHEMA)
    n, m = input_bundle.action.group.order, input_bundle.action.base_size
    matrices = _fill_from_dict(doc["matrices"], (n, m, output_bundle.dmax, input_bundle.dmax), "filter")
    return Filter(input_bundle, output_bundle, matrices)


def kernel_to_dict(kern: Kernel) -> dict:
    """The whole (|B|, |B|, dF, dE) table in the fill form."""
    return {"schema": KERNEL_SCHEMA, "matrices": _fill_to_dict(kern.matrices)}


@_document_loader
def kernel_from_dict(doc: dict, input_bundle: EquivariantBundle, output_bundle: EquivariantBundle) -> Kernel:
    _expect_schema(doc, KERNEL_SCHEMA)
    m = input_bundle.action.base_size
    matrices = _fill_from_dict(doc["matrices"], (m, m, output_bundle.dmax, input_bundle.dmax), "kernel")
    return Kernel(input_bundle, output_bundle, matrices)


def theta_to_dict(theta: ThetaMap) -> dict:
    return {"reps": theta.reps}


def theta_from_dict(doc: dict, action: GroupAction) -> ThetaMap:
    """theta from its reps table, which ThetaMap range-checks."""
    _require(isinstance(doc, dict) and "reps" in doc, "theta needs a reps table")
    return ThetaMap(action, _int_table(doc["reps"], "theta reps"))


# ---------------------------------------------------------------------------
# sections


def section_to_dict(f: Section) -> dict:
    """The values as the array itself, which `dumps` writes as its tolist()
    while encoding that one value, so no nested list of them outlives it."""
    return {"schema": SECTION_SCHEMA, "values": f.values}


@_document_loader
def section_from_dict(doc: dict, bundle: EquivariantBundle) -> Section:
    _expect_schema(doc, SECTION_SCHEMA)
    return Section(bundle, doc["values"])


def mackey_to_dict(m: MackeySection) -> dict:
    """The values as the array itself, as in section_to_dict."""
    return {"schema": MACKEY_SCHEMA, "values": m.values}


@_document_loader
def mackey_from_dict(doc: dict, bundle: EquivariantBundle) -> MackeySection:
    _expect_schema(doc, MACKEY_SCHEMA)
    return MackeySection(bundle, doc["values"])


# ---------------------------------------------------------------------------
# scenarios and reports


class Scenario:
    """An action with its bundles and measure families, and whatever filter,
    kernel, thetas and extras the battery reads: scenarios.build_scenario
    builds the built-in ones, scenario_from_dict loads one from a file.
    params records how a built-in was built; no check reads it."""

    def __init__(
        self,
        name: str,
        params: dict,
        action: GroupAction,
        input_bundle: EquivariantBundle,
        output_bundle: EquivariantBundle,
        mu: GroupMeasureFamily,
        nu: StabilizerMeasureFamily,
        mubar: OrbitMeasureFamily,
        psi: PsiFunction | None = None,
        delta: DeltaFunction | None = None,
        filt: Filter | None = None,
        kernel: Kernel | None = None,
        thetas: dict[str, ThetaMap] | None = None,
        extras: dict | None = None,
    ):
        self.name = name
        self.params = params
        self.action = action
        self.input_bundle = input_bundle
        self.output_bundle = output_bundle
        self.mu = mu
        self.nu = nu
        self.mubar = mubar
        self.psi = psi
        self.delta = delta
        self.filt = filt
        self.kernel = kernel
        self.thetas = {} if thetas is None else thetas
        self.extras = {} if extras is None else extras

    @property
    def group(self) -> FiniteGroup:
        return self.action.group


def scenario_to_dict(scn: Scenario) -> dict:
    doc: dict = {
        "schema": SCENARIO_SCHEMA,
        "name": scn.name,
        "params": scn.params,
        "action": action_to_dict(scn.action),
        "input_bundle": bundle_to_dict(scn.input_bundle),
        "families": families_to_dict(scn.mu, scn.nu, scn.mubar),
    }
    if scn.output_bundle is scn.input_bundle:
        doc["output_bundle"] = "same"
    else:
        doc["output_bundle"] = bundle_to_dict(scn.output_bundle)
    if scn.psi is not None:
        doc["psi"] = {"values": _fill_to_dict(scn.psi.values)}
    if scn.delta is not None:
        doc["delta"] = {"values": _fill_to_dict(scn.delta.values)}
    if scn.filt is not None:
        doc["filter"] = filter_to_dict(scn.filt)
    if scn.kernel is not None:
        doc["kernel"] = kernel_to_dict(scn.kernel)
    if scn.thetas:
        doc["thetas"] = {name: theta_to_dict(t) for name, t in sorted(scn.thetas.items())}
    if scn.extras:
        doc["extras"] = {k: v for k, v in sorted(scn.extras.items()) if isinstance(v, (int, float))}
    return doc


_INTEGER_EXTRAS = ("band_spacing", "eps_steps")  # dx may be a float


@_document_loader
def scenario_from_dict(doc: dict) -> Scenario:
    _expect_schema(doc, SCENARIO_SCHEMA)
    action = action_from_dict(doc["action"])
    input_bundle = bundle_from_dict(doc["input_bundle"], action)
    out_doc = doc.get("output_bundle", "same")
    output_bundle = input_bundle if out_doc == "same" else bundle_from_dict(out_doc, action)
    shape = (action.group.order, action.base_size)
    try:  # these refuse weight off the orbits and stabilizers, which a broken action moves
        mu, nu, mubar = families_from_dict(doc["families"], action)
        psi = PsiFunction(action, _fill_from_dict(doc["psi"]["values"], shape, "psi")) if "psi" in doc else None
        delta = DeltaFunction(action, _fill_from_dict(doc["delta"]["values"], shape, "delta")) if "delta" in doc else None
        filt = filter_from_dict(doc["filter"], input_bundle, output_bundle) if "filter" in doc else None
        kernel = kernel_from_dict(doc["kernel"], input_bundle, output_bundle) if "kernel" in doc else None
    except StructuralError as err:  # name the broken action law first, then the refusal
        broken = next((c for c in validate_action(action).checks if not c.passed), None)
        if broken is None:
            raise
        raise StructuralError(f"{broken.name} fails at {broken.witness}: {err}") from err
    # the name decides which built-in oracles run; params is a record no check reads
    name = _typed(doc.get("name", "scenario"), (str,), "name")
    params = _typed(doc.get("params", {}), (dict,), "params")
    scn = Scenario(name, params, action, input_bundle, output_bundle, mu, nu, mubar, psi, delta, filt, kernel)
    for key, tdoc in doc.get("thetas", {}).items():
        scn.thetas[str(key)] = theta_from_dict(tdoc, action)
    for k, v in doc.get("extras", {}).items():  # the battery indexes and counts with the integer ones
        scn.extras[k] = _typed(v, (int,) if k in _INTEGER_EXTRAS else (int, float), f"extras {k}")
    for k in ("band_spacing", "eps_steps"):  # the banded support check spans windows of these many base points
        width = scn.extras.get(k, 0)
        _require(0 <= width <= action.base_size, f"extras {k} {width} is outside [0, |B| = {action.base_size}]")
    step = scn.extras.get("dx", 1.0)  # the line-grid oracle scales by it; 0, inf, nan and 1e-320 are no step
    _require(sys.float_info.min <= step <= sys.float_info.max, f"extras dx {step!r} is not a finite normal step > 0")
    return scn


def report_to_dict(report: ValidationReport, context: dict | None = None) -> dict:
    doc = {"schema": REPORT_SCHEMA, "checks": [c.as_dict() for c in report.sorted().checks]}
    if context:
        doc["context"] = context
    return doc


# (key, type of the first entry, decoder) of the tables decoded in bulk:
# a fill form's float values, and the integer tables: the action table, the
# group's rows, a fill form's exceptions and a theta's reps
_TABLES = [("values", float, _float_array)]
_TABLES += [(key, int, _integer_array) for key in ("table", "left", "at", "reps")]
_TABLE_KEYS = frozenset(key for key, _, _ in _TABLES)


def _decode_object(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: the object, its repeated keys rejected rather
    than letting the last value win.  A float table, a list whose first
    entry is a float, becomes np.asarray(table, dtype=float), the array the
    loaders would build from it, when every entry is a JSON number; an
    integer table, one whose first entry is an int, becomes its int64 array
    when every entry is a JSON integer.  A list that starts with anything
    else, or that the conversion refuses (ragged, text, objects, a bool
    among the numbers, a float among the integers), stays a list for the
    loaders to reject."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = sorted(k for k, _ in pairs)
        raise StructuralError(f"key {next(a for a, b in zip(keys, keys[1:]) if a == b)!r} repeated in one JSON object")
    if _TABLE_KEYS.isdisjoint(obj):  # nothing to decode
        return obj
    for key, kind, decode in _TABLES:
        table = leaf = obj.get(key)
        while isinstance(leaf, list) and leaf:
            leaf = leaf[0]
        if type(leaf) is kind and leaf is not table:
            try:
                arr = decode(table)
            except (TypeError, ValueError, OverflowError):
                continue
            if arr is not None:
                obj[key] = arr
    return obj


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_decode_object)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc


def save_document(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
