"""Span recorder for the traced benchmark run.

The traced run replaces public functions of the craft modules with thin
wrappers at every module attribute that holds them, so a caller that looks
up ``craft.objective.search_best_encoding`` or ``craft.harness.write_with_craft``
goes through the wrapper.  Each call records one span (name, start, end,
parent) in memory; self time is a span's duration minus the time its child
spans cover.  The originals are restored when the run ends.

A function named in ``TRACED`` that the package no longer defines, or no
longer calls, reads as 0 calls: nothing is wrapped and nothing fails.

Spans are kept on one stack, so the traced code must run in one thread
(the benchmark calls ``ber_sweep`` with ``threads=1``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

#: Public functions wrapped per module (the benchmark's layers).  Functions
#: not listed run inside, and are timed as part of, their caller's span.
TRACED = {
    "memory": ("generate_fault_map", "apply_faults", "load_fault_map"),
    "codecs": ("encode", "decode", "ecp_correct"),
    "objective": ("search_best_encoding", "deviation", "write_with_craft"),
    "nn": ("accuracy",),
    "weightfile": ("flatten_model", "unflatten_model", "save_model", "load_model",
                   "save_blocks", "load_blocks", "save_sidecar", "load_sidecar"),
    "harness": ("ber_sweep", "bit_criticality"),
    "bitops": ("as_bit_array",),
    "cli": ("main",),
}

#: Span name for the probes below; their time belongs to no layer.
HOOKS = "trace.hooks"

PAYLOAD_BITS = 512
BERS = (1e-3, 1e-2, 1e-1)
PRECISIONS = ("fp32", "u8")
FILE_FUNCS = ("save_model", "load_model", "save_blocks", "load_blocks",
              "save_sidecar", "load_sidecar")


def ber_key(ber: float) -> str:
    return f"ber_{ber:.0e}"


class Recorder:
    """Spans held in flat arrays: name, tag, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: dict[int, str] = {}
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, now: float | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter() if now is None else now)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, now: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if now is None else now
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path) -> None:
        """Write every span as gzip CSV, times relative to the first span."""
        t0 = self.start[0] if len(self) else 0.0
        own = self.self_times()
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,tag,start_s,end_s,self_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parent[i]},{name},{self.tags.get(i, '')},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{own[i]:.9f}\n")


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _path_arg(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


class Probes:
    """Counts taken from the arguments and results of wrapped calls."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        # FaultMap is unhashable, so maps are keyed by id with a weak
        # reference that tells a live map from a new one reusing its id.
        self._maps: dict[int, weakref.ref] = {}

    def see_fault_map(self, fmap) -> None:
        if not hasattr(fmap, "bit_indices"):
            return
        seen = self._maps.get(id(fmap))
        if seen is not None and seen() is fmap:
            return
        self._maps[id(fmap)] = weakref.ref(fmap)
        c = self.counts
        c["memory.fault_maps"] += 1
        c["memory.stuck_cells"] += len(fmap.bit_indices)
        key = ber_key(float(fmap.ber))
        n_blocks = fmap.region_size_bits // PAYLOAD_BITS
        touched = len(set((fmap.bit_indices // PAYLOAD_BITS).tolist()))
        c[f"memory.blocks.{key}"] += n_blocks
        c[f"memory.blocks_touched.{key}"] += touched

    def fault_map_result(self, args, kwargs, result):
        self.see_fault_map(result)

    def fault_map_arg(self, args, kwargs, result):
        self.see_fault_map(_arg(args, kwargs, 1, "fault_map"))

    def search(self, args, kwargs, result):
        fmap = _arg(args, kwargs, 1, "fault_map")
        view = _arg(args, kwargs, 3, "view")
        self.see_fault_map(fmap)
        deltas = getattr(result, "deltas", None)
        if deltas is None:
            return None
        c = self.counts
        c["objective.searched_blocks"] += 1
        c["objective.configs_evaluated"] += len(deltas)
        best = float(result.best_delta)
        if result.configs[0].aux_code == 0 and best < float(deltas[0]):
            c["objective.useful_searches"] += 1
        if best == 0.0:
            c["objective.zero_delta_blocks"] += 1
        if view is None or fmap is None:
            return None
        return f"{view.precision.value}.{ber_key(float(fmap.ber))}"

    def accuracy(self, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        weights = getattr(model, "weights", None)
        if weights is not None and not all(np.isfinite(w).all() for w in weights):
            self.counts["nn.nonfinite_models"] += 1

    def file_bytes(self, name):
        def probe(args, kwargs, result):
            path = _path_arg(args, kwargs)
            if path is not None and os.path.exists(path):
                self.counts[f"weightfile.{name}.bytes"] += os.path.getsize(path)
        return probe

    def table(self) -> dict:
        table = {
            "memory.generate_fault_map": self.fault_map_result,
            "memory.load_fault_map": self.fault_map_result,
            "memory.apply_faults": self.fault_map_arg,
            "codecs.ecp_correct": self.fault_map_arg,
            "objective.search_best_encoding": self.search,
            "nn.accuracy": self.accuracy,
        }
        table.update({f"weightfile.{n}": self.file_bytes(n) for n in FILE_FUNCS})
        return table


def _wrap(rec: Recorder, name: str, fn, probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if probe is not None:
            h = rec.open(HOOKS)
            try:
                tag = probe(args, kwargs, result)
            finally:
                rec.close(h)
            if tag:
                rec.tags[idx] = tag
        return result
    return wrapper


def craft_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "craft" or n.startswith("craft."))]


@contextlib.contextmanager
def traced(rec: Recorder, probes: Probes, traced_funcs=TRACED):
    """Wrap the traced functions at every craft module attribute that holds them."""
    modules = craft_modules()
    by_name = {m.__name__: m for m in modules}
    hooks = probes.table()
    patched = []
    try:
        for layer, funcs in traced_funcs.items():
            home = by_name.get(f"craft.{layer}")
            for fname in funcs:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    continue
                name = f"{layer}.{fname}"
                wrapper = _wrap(rec, name, orig, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, orig))
        yield rec
    finally:
        for module, attr, orig in reversed(patched):
            setattr(module, attr, orig)


def summarize(rec: Recorder, probes: Probes, ops: int, traced_wall: float,
              overhead_frac: float, traced_funcs=TRACED) -> dict[str, float]:
    """Per-layer metrics of a traced run, counts and times per operation.

    `traced_wall` is the summed time of the `ops` traced operations; the
    self-time gap is taken against it less the probes' own time.
    """
    own = rec.self_times()
    calls: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    for i, name in enumerate(rec.names):
        keys = [name]
        if i in rec.tags:
            keys.append(f"{name}.{rec.tags[i]}")
        for key in keys:
            calls[key] += 1
            self_s[key] += own[i]
            incl_s[key] += rec.end[i] - rec.start[i]

    out: dict[str, float] = {}
    for layer, funcs in traced_funcs.items():
        for fname in funcs:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = self_s[name] / ops
        out[f"{layer}.self_s"] = sum(self_s[f"{layer}.{f}"] for f in funcs) / ops
    search = "objective.search_best_encoding"
    for prec in PRECISIONS:
        for ber in BERS:
            key = f"{search}.{prec}.{ber_key(ber)}"
            out[f"{key}.calls"] = calls[key] / ops
            out[f"{key}.self_s"] = self_s[key] / ops

    c = probes.counts
    searched = c["objective.searched_blocks"]
    out["objective.searched_blocks"] = searched / ops
    out["objective.configs_evaluated"] = c["objective.configs_evaluated"] / ops
    out["objective.blocks_per_busy_s"] = searched / incl_s[search] if incl_s[search] else 0.0
    out["objective.useful_search_frac"] = c["objective.useful_searches"] / searched if searched else 0.0
    out["objective.zero_delta_frac"] = c["objective.zero_delta_blocks"] / searched if searched else 0.0
    maps = c["memory.fault_maps"]
    out["memory.fault_maps"] = maps / ops
    out["memory.stuck_cells"] = c["memory.stuck_cells"] / ops
    out["memory.stuck_cells_per_map"] = c["memory.stuck_cells"] / maps if maps else 0.0
    for ber in BERS:
        key = ber_key(ber)
        blocks = c[f"memory.blocks.{key}"]
        out[f"memory.blocks_touched_frac.{key}"] = (
            c[f"memory.blocks_touched.{key}"] / blocks if blocks else 0.0)
    out["nn.nonfinite_models"] = c["nn.nonfinite_models"] / ops
    for fname in FILE_FUNCS:
        out[f"weightfile.{fname}.bytes"] = c[f"weightfile.{fname}.bytes"] / ops

    layer_self = sum(self_s[f"{layer}.{f}"] for layer, funcs in traced_funcs.items()
                     for f in funcs)
    out["trace.wall_s"] = traced_wall / ops
    out["trace.spans"] = len(rec) / ops
    out["trace.hooks_frac"] = self_s[HOOKS] / traced_wall
    out["trace.self_gap_frac"] = 1.0 - layer_self / (traced_wall - self_s[HOOKS])
    out["trace.overhead_frac"] = overhead_frac
    return out
