"""Span tracing from outside the program.

``Tracer.install()`` replaces each traced public function of catalocc with a
wrapper at every module attribute that holds it (``catalocc.core.make_osc``,
``catalocc.experiments.make_osc``, ``catalocc.make_osc``, ...), so calls
between modules are recorded as well as the benchmark's own calls.  A span is
(id, parent id, name, start ns, end ns, attributes); spans are kept in memory
and written out at the end.  Parent ids follow a context variable, which the
thread pools of ``catalocc.search`` and ``catalocc.experiments`` carry into
their worker threads through a wrapped ``ThreadPoolExecutor``.

Nothing under ``src/`` is changed: ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import gzip
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs traced; the layer of a span is its module name.
TRACED = {
    "core": ("make_osc", "pad", "partial_sums", "majorizes_check", "tensor_spectrum",
             "entropy_bits"),
    "catalysis": ("locc_feasible", "is_general_catalyst", "classify_catalyst",
                  "is_time_reverse", "subcatalyst_forced", "catalyst_bound_3x3",
                  "mutual_region_scan"),
    "search": ("general_catalyst_exists", "monte_carlo_standard_catalyst"),
    "rng": ("substream", "derive_seed"),
    "experiments": ("generate_catalyzable_pairs", "success_probability_curve",
                    "reference_suite", "write_pairs_jsonl", "load_pairs_jsonl",
                    "write_curve_csv", "write_region_csv"),
}
LAYERS = ("core", "catalysis", "search", "rng", "experiments", "cli")
POOL_MODULES = ("search", "experiments")


def _attrs_tensor(args, kwargs, result):
    return {"elems": len(args[0]) * len(args[1])}


def _attrs_mc(args, kwargs, result):
    q, cfg = args[0], args[1]
    return {"trials": result.trials_used, "elems": result.trials_used * q.dim * cfg.k,
            "success": result.status.value == "success"}


def _attrs_region(args, kwargs, result):
    return {"cells": result.resolution**2, "valid": result.valid_count}


def _attrs_file(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


ATTRS = {
    "core.tensor_spectrum": _attrs_tensor,
    "search.monte_carlo_standard_catalyst": _attrs_mc,
    "catalysis.mutual_region_scan": _attrs_region,
    "experiments.write_region_csv": _attrs_file,
}


class Tracer:
    """Records spans for calls into catalocc while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=0)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        current = self._current
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                current.reset(token)
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                spans.append((sid, parent, name, t0, t1, attrs))

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "catalocc" or key.startswith("catalocc.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"catalocc.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        for mod_name in POOL_MODULES:
            mod = sys.modules[f"catalocc.{mod_name}"]
            if hasattr(mod, "ThreadPoolExecutor"):
                self._patch(mod, "ThreadPoolExecutor", ContextThreadPoolExecutor)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def take(self) -> list[tuple]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()  # wrappers hold this list object, so clear in place
        return out

    def wrap_cli_commands(self, group) -> None:
        """Record each click command's callback as a span named cli.<command>."""
        for name, command in group.commands.items():
            self._patch(command, "callback", self.wrap(f"cli.{name}", command.callback))


class ContextThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context, so spans
    recorded in worker threads keep the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        # Executor.map submits through here as well.
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def write_spans(path: Path, spans: list[tuple]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time (ns) per span id: duration minus the union of its children.

    Children may run in parallel worker threads, so their intervals are
    merged before being subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


class SpanStats:
    """Per-name totals over one or more span lists (one per process)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(self, spans: list[tuple]) -> None:
        selfs = self_times(spans)
        for sid, _, name, t0, t1, attrs in spans:
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            self.self_ns[name] += selfs[sid]
            for key, value in (attrs or {}).items():
                self.attrs[name][key] += value

    def mean_us(self, name: str) -> float:
        return self.total_ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0

    def mean_s(self, name: str) -> float:
        return self.total_ns[name] / self.calls[name] / 1e9 if self.calls[name] else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer) / 1e9
