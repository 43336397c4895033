"""Span recorder for the traced run, built from wrappers outside the program.

Run as a script, it traces one CLI invocation in-process:

    PYTHONPATH=src python bench/tracing.py SPANS.npz table1 --out t.json

Every public module-level function of the synpid layers is replaced, under
each module attribute that names it, by a wrapper that records a span: the
function's name, start, end and parent span. That covers callers that look
a function up on its own module (``eca.run``) and callers that imported it
by name (``synpid.experiments.ca_samples``, ``synpid.cli.embed_history``).
Nothing in the program changes. Spans stay in memory and are written to an
``.npz`` file when the invocation ends; ``summarize`` derives the per-layer
metrics from that file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import PROFILE_MEASURES

LAYERS = ("eca", "dynamics", "distributions", "lattice", "pid", "experiments", "cli")


def _path_size(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# Work counted at layer boundaries: span name -> (bound arguments, result) -> counters.
COUNTERS = {
    "eca.run": lambda a, result: {"cells": result.cells.size},
    "dynamics.ca_samples": lambda a, result: {"rows": len(result)},
    "dynamics.profile": lambda a, result: {"sites": result.defined_values().size},
    "dynamics.write_profile_csv": _path_size,
    "dynamics.write_profile_pgm": _path_size,
    "distributions.count_samples": lambda a, result: {
        "samples": result.total, "distinct": len(result)},
    "lattice.build_lattice": lambda a, result: {"nodes": len(result.nodes)},
    "pid.modified_information": lambda a, result: {"nodes": len(result.lattice.nodes)},
}

# Span name -> argument whose value qualifies the span (one profile per measure).
DETAIL_ARGUMENT = {"dynamics.profile": "measure"}


class Span:
    __slots__ = ("name", "detail", "parent", "start", "end", "counters")

    def __init__(self, name, parent, start):
        self.name = name
        self.detail = ""
        self.parent = parent
        self.start = start
        self.end = start
        self.counters = None


class Recorder:
    """Wraps the layers' public functions and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        # A pool thread has no span of its own to nest under; its spans are
        # children of whatever the main thread has open (the pool's submitter).
        self._main_stack = self._stack()
        self._originals = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        detail = DETAIL_ARGUMENT.get(name)
        signature = inspect.signature(fn) if counters or detail else None
        spans, main_stack, now = self.spans, self._main_stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, parent, now() - self.origin)
            spans.append(span)  # list.append is atomic, so pool threads may share it
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now() - self.origin
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if detail:
                    span.detail = str(bound[detail])
                if counters:
                    span.counters = counters(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS at every layer boundary.

        A function is replaced under each name another layer's module binds
        it to, and under its own module's attribute when another layer holds
        that module object (``experiments`` calls ``eca.run``). Calls inside
        one layer stay unwrapped, so they cost nothing and count as that
        layer's self time.
        """
        modules = {layer: importlib.import_module(f"synpid.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                fn = inspect.unwrap(obj)
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, module, self._wrap(f"{layer}.{attr}", obj))
        held = {id(obj) for m in modules.values() for obj in vars(m).values()
                if inspect.ismodule(obj)}
        holders = [importlib.import_module("synpid"), *modules.values()]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) not in wrappers:
                    continue
                original, home, wrapper = wrappers[id(obj)]
                if original is obj and (holder is not home or id(home) in held):
                    self._originals.append((holder, attr, obj))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._originals):
            setattr(holder, attr, obj)
        self._originals.clear()

    def save(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        names = sorted({s.name for s in self.spans} | {s.detail for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        counters = [(i, key, value) for i, s in enumerate(self.spans)
                    for key, value in (s.counters or {}).items()]
        np.savez(
            path,
            names=np.array(names, dtype=str),
            name=np.array([code[s.name] for s in self.spans], dtype=np.int64),
            detail=np.array([code[s.detail] for s in self.spans], dtype=np.int64),
            parent=np.array([index[id(s.parent)] if s.parent is not None else -1
                             for s in self.spans], dtype=np.int64),
            start=np.array([s.start for s in self.spans], dtype=np.float64),
            end=np.array([s.end for s in self.spans], dtype=np.float64),
            counter_span=np.array([c[0] for c in counters], dtype=np.int64),
            counter_key=np.array([c[1] for c in counters], dtype=str),
            counter_value=np.array([c[2] for c in counters], dtype=np.float64),
        )


def self_times(parent, start, end):
    """Per span: duration minus the union of its children's intervals.

    Children of one parent may overlap when they ran on pool threads. Also
    returns the time children cover more than once, summed over parents, so
    that sum(self) - overlap equals the roots' total duration.
    """
    covered = [0.0] * len(start)
    overlap = 0.0
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    group, reach = -1, 0.0
    for p, lo, hi in zip(parent[order].tolist(), start[order].tolist(), end[order].tolist()):
        if p != group:
            group, reach = p, lo
        new = max(0.0, hi - max(lo, reach))
        covered[p] += new
        reach = max(reach, hi)
        overlap += (hi - lo) - new
    return end - start - np.array(covered), overlap


def summarize(path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from a spans file.

    ``<layer>.<function>_s`` is the busy time inside that function (its
    spans' durations, summed across threads), ``<layer>.<function>_self_s``
    the self time of that function's spans alone, and ``<layer>.self_s``
    (``experiments.self_s`` too) the whole layer's self time. The
    ``trace.*`` metrics that need the traced process's wall time are added
    by the caller.
    """
    with np.load(path, allow_pickle=False) as data:
        d = {k: data[k] for k in data.files}
    names = d["names"].tolist()
    name = np.array(names, dtype=object)[d["name"]]
    detail = np.array(names, dtype=object)[d["detail"]]
    parent, start, end = d["parent"], d["start"], d["end"]
    own, overlap = self_times(parent, start, end)
    duration = end - start

    def busy(*fns, measure=None):
        mask = np.isin(name, fns)
        if measure is not None:
            mask &= detail == measure
        return float(duration[mask].sum())

    def own_of(fn):
        return float(own[name == fn].sum())

    def calls(fn):
        return int(np.count_nonzero(name == fn))

    counts = defaultdict(list)
    for i, key, value in zip(d["counter_span"].tolist(), d["counter_key"].tolist(),
                             d["counter_value"].tolist()):
        counts[(name[i], key)].append(value)

    def total(fn, key):
        return float(sum(counts[(fn, key)]))

    layer = np.array([n.split(".", 1)[0] for n in name], dtype=object)
    layer_self = {lay: float(own[layer == lay].sum()) for lay in LAYERS}
    samples = total("distributions.count_samples", "samples")
    distinct = total("distributions.count_samples", "distinct")
    return {
        "eca.run_s": (busy("eca.run"), "s"),
        "eca.run_calls": (calls("eca.run"), "count"),
        "eca.cells": (total("eca.run", "cells"), "count"),
        "dynamics.ca_samples_s": (busy("dynamics.ca_samples"), "s"),
        "dynamics.ca_samples_rows": (total("dynamics.ca_samples", "rows"), "count"),
        "dynamics.profile_s": (busy("dynamics.profile"), "s"),
        "dynamics.profile_sites": (total("dynamics.profile", "sites"), "count"),
        **{f"dynamics.profile.{ms}_s": (busy("dynamics.profile", measure=ms), "s")
           for ms in PROFILE_MEASURES},
        "dynamics.write_profile_s": (
            busy("dynamics.write_profile_csv", "dynamics.write_profile_pgm"), "s"),
        "dynamics.bytes_written": (
            total("dynamics.write_profile_csv", "bytes")
            + total("dynamics.write_profile_pgm", "bytes"), "bytes"),
        "dynamics.measures_s": (
            busy("dynamics.active_info_storage", "dynamics.transfer_entropy"), "s"),
        "distributions.count_samples_s": (busy("distributions.count_samples"), "s"),
        "distributions.samples": (samples, "count"),
        "distributions.distinct_states": (distinct, "count"),
        "distributions.distinct_per_sample": (distinct / samples if samples else 0.0, "ratio"),
        "distributions.embed_history_s": (busy("distributions.embed_history"), "s"),
        "distributions.embed_history_calls": (calls("distributions.embed_history"), "count"),
        "lattice.build_lattice_s": (busy("lattice.build_lattice"), "s"),
        "lattice.nodes": (max(counts[("lattice.build_lattice", "nodes")], default=0), "count"),
        "pid.modified_information_self_s": (own_of("pid.modified_information"), "s"),
        "pid.nodes_valued": (total("pid.modified_information", "nodes"), "count"),
        "experiments.self_s": (layer_self["experiments"], "s"),
        "cli.main_self_s": (own_of("cli.main"), "s"),
        **{f"{lay}.self_s": (layer_self[lay], "s")
           for lay in ("eca", "dynamics", "distributions", "lattice", "pid")},
        "trace.parallel_overlap_s": (overlap, "s"),
        "trace.layers_self_s": (sum(layer_self.values()), "s"),
    }


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import synpid.cli
    try:
        return recorder._wrap("cli.main", synpid.cli.main)(cli_argv)
    finally:
        recorder.uninstall()
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
