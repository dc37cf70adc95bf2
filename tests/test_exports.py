from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import equicorr


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
