"""Outside-in tracer for the equicorr layers.

The layers are the package's modules.  `Tracer.install` wraps every public
module-level function of each layer and rebinds the wrapper wherever the
original is bound: in the defining module, in every equicorr module that
imported the name with `from .x import`, and in module-level dicts such as
the scenario builder table.  Function-level imports read the module
attribute at call time, so they see the wrapper too.

Each call of a wrapped function is one span (function, start, end, parent).
Spans live in memory and are written to one file by `dump`.  The hot
`SplitMix64.integer` and `SplitMix64.uniforms` methods are counted and
timed without spans; their time is charged to the enclosing span as leaf
time, so it still leaves that span's self time.

Two calls carry probes that record computed sizes, never measured ones:
`xcorr.cross_correlate` adds the bytes of its (|G|, |G|, |B|, dE) shift
gather and the flops 2 |G|^2 |B| dF dE of its contraction, and
`serialize.load_document` adds the size of the file it reads.

This module needs only the standard library, so the benchmark driver can
import `summarize` without importing numpy or equicorr.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = (
    "groups",
    "bundles",
    "measures",
    "xcorr",
    "transforms",
    "sampling",
    "rng",
    "scenarios",
    "serialize",
    "battery",
    "reporting",
    "cli",
)
COUNTED_METHODS = (("rng", "SplitMix64", "integer"), ("rng", "SplitMix64", "uniforms"))


def _probe_cross_correlate(values: dict, args, kwargs) -> None:
    filt = args[0] if args else kwargs["filt"]
    n_g, n_b, d_f, d_e = filt.matrices.shape
    values["xcorr.cross_correlate.bytes_computed"] += n_g * n_g * n_b * d_e * 8
    values["xcorr.cross_correlate.flops_computed"] += 2 * n_g * n_g * n_b * d_f * d_e


def _probe_load_document(values: dict, args, kwargs) -> None:
    values["serialize.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


PROBES = {
    "xcorr.cross_correlate": _probe_cross_correlate,
    "serialize.load_document": _probe_load_document,
}
PROBE_VALUES = (
    "xcorr.cross_correlate.bytes_computed",
    "xcorr.cross_correlate.flops_computed",
    "serialize.bytes_read",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.function"
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.leaf_s = array.array("d")  # counted-method time directly inside the span
        self.stack = [-1]
        self.counted = {f"{layer}.{meth}": [0, 0.0] for layer, _, meth in COUNTED_METHODS}
        self.values = dict.fromkeys(PROBE_VALUES, 0)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"equicorr.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._span_wrapper(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "equicorr" and not modname.startswith("equicorr."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"equicorr.{layer}"), cls_name)
            setattr(cls, meth, self._counting_wrapper(self.counted[f"{layer}.{meth}"], getattr(cls, meth)))

    def _span_wrapper(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)
        clock = time.perf_counter
        fids, parents, starts, ends, leaf, stack = self.fid, self.parent, self.start, self.end, self.leaf_s, self.stack
        values = self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(values, args, kwargs)
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            leaf.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _counting_wrapper(self, tally: list, fn):
        clock = time.perf_counter
        leaf, stack = self.leaf_s, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tally[0] += 1
                tally[1] += dt
                if stack[-1] >= 0:
                    leaf[stack[-1]] += dt

        return counted

    def dump(self, path: str) -> None:
        """One JSON header line, then the span columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.fid),
            "counted": self.counted,
            "values": self.values,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.fid, self.parent, self.start, self.end, self.leaf_s):
                column.tofile(fh)


def _read(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in ("i", "i", "d", "d", "d"):
            col = array.array(code)
            col.fromfile(fh, header["spans"])
            columns.append(col)
    return header, columns


def summarize(paths: list[str]) -> dict[str, float]:
    """Per-layer and per-function figures over the span files of one trace.

    `<layer>.self_s` is span time minus child spans minus counted leaf time,
    summed over the layer; `<layer>.calls` counts its spans and counted
    calls.  `<layer>.<function>.s` is inclusive time over outermost calls
    of that function, so recursion is not counted twice.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    attempts = kernels = spans = 0
    for path in paths:
        header, (fid, parent, start, end, leaf_s) = _read(path)
        names = header["names"]
        layer_of = [name.split(".", 1)[0] for name in names]
        n = header["spans"]
        spans += n

        child_s = [0.0] * n
        fn_calls = [0] * len(names)
        fn_s = [0.0] * len(names)
        open_count = [0] * len(names)
        stack: list[int] = []
        for i in range(n):  # spans are numbered in call order, parents first
            f, p = fid[i], parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child_s[p] += dur
            while stack and stack[-1] != p:
                open_count[fid[stack.pop()]] -= 1
            fn_calls[f] += 1
            if open_count[f] == 0:
                fn_s[f] += dur
            stack.append(i)
            open_count[f] += 1
        for i in range(n):
            out[f"{layer_of[fid[i]]}.self_s"] += end[i] - start[i] - child_s[i] - leaf_s[i]
        for f, name in enumerate(names):
            out[f"{layer_of[f]}.calls"] += fn_calls[f]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + fn_calls[f]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + fn_s[f]
        for name, (calls, secs) in header["counted"].items():
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += secs
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + secs
        for name, value in header["values"].items():
            out[name] = out.get(name, 0) + value

        # each draw of the planted-violator sampler is one validate_kernel
        # span directly under random_violating_kernel
        vk, rvk = names.index("transforms.validate_kernel"), names.index("sampling.random_violating_kernel")
        attempts += sum(1 for i in range(n) if fid[i] == vk and parent[i] >= 0 and fid[parent[i]] == rvk)
        kernels += fn_calls[rvk]
    out["sampling.violator_attempts_per_kernel"] = attempts / kernels if kernels else 0.0
    out["trace.spans"] = spans
    return out
