from __future__ import annotations

import importlib
import pkgutil

import equicorr


def test_every_all_entry_resolves():
    modules = [equicorr] + [
        importlib.import_module(f"equicorr.{info.name}") for info in pkgutil.iter_modules(equicorr.__path__)
    ]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert exported, "no module declares __all__"
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []
