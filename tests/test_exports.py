from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import equicorr
from equicorr import bundles, groups, serialize


def test_every_all_entry_resolves():
    modules = [equicorr] + [
        importlib.import_module(f"equicorr.{info.name}") for info in pkgutil.iter_modules(equicorr.__path__)
    ]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert exported, "no module declares __all__"
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []


def test_every_private_module_name_is_referenced():
    # a module-level private helper (`_x`, not a dunder) that nothing in the
    # package reads is dead code
    sources = Path(equicorr.__file__).parent.glob("*.py")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(sources)]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert private and sorted(private - read) == []


def test_every_error_class_is_raised():
    # a class of the error taxonomy that nothing in the package raises is dead code
    package = Path(equicorr.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"EquicorrError"}
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes and sorted(classes - raised) == []


RETIRED_NAMES = (
    "_maxabs", "_argmax_coords", "_worst_of_grid", "_first_worst", "_worst_of_parts", "_count_of", "_count_over",
    "_worst_of_rows", "_count_of_rows", "stabilizer_mask", "coset_table", "fundamental_domain", "orbit", "Orbit",
    "CompressedFilter", "compress_filter", "expand_filter",
    "_group_from_cayley", "SCENARIO_SCHEMA_V1", "_GROUP_LOADERS", "SCENARIO_SCHEMA_V2",
    "act_on_section", "act_on_mackey", "mackey_to_section", "validate_mackey", "psi_from_class_function",
    "compressed_filter_to_dict", "_sparse_row", "_dense_row", "_DECIMAL",
    "group_from_tables", "table_from_generators", "_tree_edges", "generating_set", "_mackey_preserved", "_periodicity",
    "derive_theta", "pair_stabilizer", "solve_orbit_measure", "SOLVE_TOLERANCE", "PreconditionError",
)

# public members that nothing in the package reads, kept on purpose: the
# scalar draw is the reference that test_rng.py checks the vector draw against
UNREAD_MEMBERS = {"rng.SplitMix64.uniform"}


def _references(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(top-level name, method name, name read) for each read in the module:
    a loaded name, an attribute, or the last part of a dotted string such
    as "transforms.validate_kernel", as a lookup by name spells it.  The
    method is the one of a top-level class whose body holds the read, or ""."""
    refs = []
    for top in tree.body:
        owner = getattr(top, "name", "")
        members = top.body if isinstance(top, ast.ClassDef) else []
        method_of = {id(node): m.name for m in members if isinstance(m, ast.FunctionDef) for node in ast.walk(m)}
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
                name = node.value.rsplit(".", 1)[-1]
            else:
                continue
            refs.append((owner, method_of.get(id(node), ""), name))
    return refs


def test_every_module_level_definition_is_used_or_exported():
    # a def or class of the package that nothing outside its own body reads,
    # in the package or in the benchmark, and that the package does not
    # export, is a helper that nothing calls; dunder hooks are exempt.  So is
    # a public method or property of a class that nothing outside its own
    # body reads, exported class or not
    package = Path(equicorr.__file__).parent
    sources = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sources.update({path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(bench.glob("*.py"))})
    reads = {(path, *ref) for path, tree in sources.items() for ref in _references(tree)}
    exported = {name for names in equicorr._EXPORTS.values() for name in names}
    unused = []
    for path, tree in sources.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            used = any(name == node.name and (p, owner) != (path, node.name) for p, owner, _, name in reads)
            if not used and node.name not in exported:
                unused.append(f"{path.stem}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                here = (path, node.name, member.name)
                if not any(name == member.name and (p, owner, method) != here for p, owner, method, name in reads):
                    unused.append(f"{path.stem}.{node.name}.{member.name}")
    assert sorted(set(unused) - UNREAD_MEMBERS) == []


def test_every_top_level_import_is_read_or_exported():
    # a name a module of the package or of the tests imports and never reads
    # is an import that nothing needs, unless the package exports it from
    # that module, as it exports transforms.filter_operator; __future__
    # imports are exempt
    package = Path(equicorr.__file__).parent
    tests = Path(__file__).resolve().parent
    unread = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(equicorr._EXPORTS.get(path.stem, ())) if path.parent == package else set()
        unread += [f"{path.parent.name}/{path.stem}.{name}" for name in sorted(bound - read - exported)]
    assert unread == []


def test_the_retired_scan_helpers_are_gone():
    # every residual and witness comes from reporting._worst or _count, every
    # Stab(b), orbit and fundamental domain from the action's derived tables,
    # and _orbit_slice only validates; no filter document is stored by its
    # domain columns; a scenario's group loads from its generators alone,
    # with its identity; a scenario loads from its current form alone, and
    # the oracles only the tests call live in tests/helpers.py
    modules = [importlib.import_module(f"equicorr.{info.name}") for info in pkgutil.iter_modules(equicorr.__path__)]
    assert [f"{m.__name__}.{n}" for m in modules for n in RETIRED_NAMES if hasattr(m, n)] == []
    assert "carried" not in inspect.signature(bundles._orbit_slice).parameters
    assert list(inspect.signature(groups.FiniteGroup).parameters) == ["elements", "identity", "left"]
    assert list(inspect.signature(serialize.action_from_dict).parameters) == ["doc"]
