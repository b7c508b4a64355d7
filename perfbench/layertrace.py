"""In-process span tracing of k3lat's layers, done from outside the package.

`traced(tracer)` replaces each function named in `WRAPPED`, in every
module of the package that binds it (its defining module and each module
that did ``from .x import y``), by a wrapper that records a span: name,
start and end in nanoseconds, parent span and command id. Spans stay in
memory; `Tracer.write` puts them out as JSON lines at the end of a run.
The originals are restored when the context exits. When the package is
not imported yet, `traced` imports it under the wrappers, so work a
module does on import (such as the inverse E8 Gram matrix) is traced too.

Only layer-boundary functions are wrapped. Elementwise helpers such as
`intlinalg.pairing` run once per enumerated vector; their cost stays in
the self time of the layer that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
from dataclasses import dataclass, field

WRAPPED = {
    "cli": ("main", "build_parser", "cmd_lat_info", "cmd_e8_orbits", "cmd_table",
            "cmd_divisors", "cmd_weight", "cmd_embed_check", "cmd_sbad_witness",
            "cmd_sbad_polarized", "cmd_minus2"),
    "specparse": ("parse_spec", "print_spec", "evaluate", "lattice_from_text"),
    "lattice": ("from_gram", "sublattice", "determinant", "signature",
                "discriminant_group", "dual_basis", "is_primitive_vector",
                "saturation_index", "orthogonal_complement", "direct_sum", "rescale",
                "rank1", "ii", "parse_gram_text", "load_gram_file"),
    "intlinalg": ("bareiss_determinant", "fraction_inverse", "hermite_normal_form",
                  "row_hnf", "left_kernel", "smith_normal_form"),
    "shortvec": ("rational_cholesky", "short_vectors", "vector_count", "root_count"),
    "e8": ("dominant_representative", "stabilizer_order", "complement_of",
           "orbits_of_norm"),
    "glue": ("nikulin_embeddable", "coset_count_row", "dual_coset_counts",
             "restricted_weight", "divisor_classes", "hyperplane_multiplicity",
             "nikulin_minus2_property"),
    "sbad": ("is_sbad_extension", "search_sbad_extensions", "polarized_bad",
             "normalize_degree", "possible_extension_norms", "read_witness_file"),
    "parallel": ("parallel_map",),
}


# Work counters, read off each call's result: (counter name, function).
COUNTERS = {
    "shortvec.short_vectors": ("vectors", lambda hist: hist.total),
    "glue.coset_count_row": ("kept", lambda row: sum(row.column_totals.values())),
    "e8.orbits_of_norm": ("found", len),
    "parallel.parallel_map": ("tasks", len),
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    cmd: int | str | None
    start: int = 0
    end: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Span store for one traced run; single-threaded by construction."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cmd: int | str | None = None
        self._stack: list[Span] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].sid if self._stack else None
            span = Span(len(self.spans), name, parent, self.cmd)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                key, measure = count
                span.counters[key] = measure(result)
            return result
        return wrapper

    def wrap_parallel_map(self, fn):
        """Per-task spans; needs the serial path (K3LAT_THREADS=1), as the
        task wrapper is a closure that cannot be pickled to a worker."""

        def parallel_map(task, items):
            return fn(self.wrap("parallel.task", task), items)

        return self.wrap("parallel.parallel_map", parallel_map,
                         COUNTERS["parallel.parallel_map"])

    def self_times(self) -> list[int]:
        """Duration minus the time covered by direct children, per span.

        Children of a span run one after another in the same thread, so
        their durations never overlap and their sum is their coverage.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                     "cmd": s.cmd, "start_ns": s.start, "end_ns": s.end,
                                     "counters": s.counters}) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "k3lat" or name.startswith("k3lat."))]


def _rebind(swaps: dict) -> None:
    """Replace, in every loaded module of the package, each bound `old` by
    `new`, for the (old, new) values of `swaps` (keyed by id(old))."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            pair = swaps.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])


class _WrapOnLoad(importlib.abc.MetaPathFinder):
    """Calls `loaded(module)` right after each module of the package runs,
    so work done by a later module's body is traced as well."""

    def __init__(self, loaded):
        self.loaded = loaded

    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] != "k3lat":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.loaded(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every function in WRAPPED wherever the package binds it, and
    restore the originals on exit. If the package is not imported yet, the
    import runs under the wrappers as command "import"."""
    swaps: dict = {}

    def wrap_layer(module):
        layer = module.__name__.partition(".")[2]
        for name in WRAPPED.get(layer, ()):
            original = getattr(module, name)
            span_name = f"{layer}.{name}"
            if span_name == "parallel.parallel_map":
                wrapper = tracer.wrap_parallel_map(original)
            else:
                wrapper = tracer.wrap(span_name, original, COUNTERS.get(span_name))
            swaps[id(original)] = (original, wrapper)
        _rebind(swaps)

    try:
        if "k3lat" in sys.modules:
            for layer in WRAPPED:
                wrap_layer(importlib.import_module(f"k3lat.{layer}"))
        else:
            hook = _WrapOnLoad(wrap_layer)
            sys.meta_path.insert(0, hook)
            tracer.cmd = "import"
            try:
                importlib.import_module("k3lat.cli")
            finally:
                sys.meta_path.remove(hook)
        yield tracer
    finally:
        _rebind({id(w): (w, o) for o, w in swaps.values()})


@contextlib.contextmanager
def serial_workers():
    """Run `parallel_map` in-process, as the traced run requires."""
    saved = os.environ.get("K3LAT_THREADS")
    os.environ["K3LAT_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["K3LAT_THREADS"]
        else:
            os.environ["K3LAT_THREADS"] = saved


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans: self seconds, calls and counters."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s.sid)

    def self_s(*names):
        return sum(own[i] for n in names for i in by_name.get(n, ())) / 1e9

    def layer_self_s(layer):
        return self_s(*(f"{layer}.{n}" for n in WRAPPED[layer]))

    def calls(name):
        return len(by_name.get(name, ()))

    def counter(name, key, parent_name=None):
        total = 0
        for i in by_name.get(name, ()):
            s = tracer.spans[i]
            if parent_name is None or (s.parent is not None
                                       and tracer.spans[s.parent].name == parent_name):
                total += s.counters.get(key, 0)
        return total

    scanned = counter("shortvec.short_vectors", "vectors", "glue.coset_count_row")
    kept = counter("glue.coset_count_row", "kept")
    tasks = [tracer.spans[i] for i in by_name.get("parallel.task", ())]
    task_total = sum(t.end - t.start for t in tasks)
    return {
        "cli.cmd.s": layer_self_s("cli"),
        "specparse.s": layer_self_s("specparse"),
        "lattice.signature.s": self_s("lattice.signature"),
        "lattice.complement.s": self_s("lattice.orthogonal_complement",
                                       "lattice.saturation_index"),
        "lattice.sublattice.s": self_s("lattice.sublattice"),
        "lattice.disc.s": self_s("lattice.discriminant_group"),
        "intlinalg.hnf.s": self_s("intlinalg.hermite_normal_form", "intlinalg.row_hnf",
                                  "intlinalg.left_kernel"),
        "intlinalg.snf.s": self_s("intlinalg.smith_normal_form"),
        "intlinalg.det.s": self_s("intlinalg.bareiss_determinant"),
        "intlinalg.inverse.s": self_s("intlinalg.fraction_inverse"),
        "shortvec.enum.s": self_s("shortvec.short_vectors"),
        "shortvec.enum.calls": calls("shortvec.short_vectors"),
        "shortvec.enum.vectors": counter("shortvec.short_vectors", "vectors"),
        "shortvec.cholesky.s": self_s("shortvec.rational_cholesky"),
        "shortvec.roots.s": self_s("shortvec.root_count"),
        "e8.orbits.s": layer_self_s("e8"),
        "e8.orbits.found": counter("e8.orbits_of_norm", "found"),
        "glue.row.s": self_s("glue.coset_count_row"),
        "glue.row.calls": calls("glue.coset_count_row"),
        "glue.row.scanned": scanned,
        "glue.row.kept": kept,
        "glue.row.keep_ratio": kept / scanned if scanned else 0.0,
        "glue.divisors.s": self_s("glue.divisor_classes", "glue.hyperplane_multiplicity"),
        "glue.weight.s": self_s("glue.restricted_weight"),
        "sbad.s": layer_self_s("sbad"),
        "parallel.tasks": counter("parallel.parallel_map", "tasks"),
        "parallel.max_task_share": (max(t.end - t.start for t in tasks) / task_total
                                    if task_total else 0.0),
    }
