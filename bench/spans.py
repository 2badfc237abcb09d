"""Per-layer spans for m4kit, recorded from outside the package.

Each layer's public entry points are wrapped at every place a caller looks
them up: the attribute of the defining module, the names other m4kit
modules imported with ``from .x import f``, the package namespace, and the
block ``CATALOG`` that the manifest runner indexes.  A span records its
layer, function, start, end and parent span.  A layer's self time is the
time of its spans minus the time of their child spans.

``words`` and ``presentation`` are not wrapped: every layer calls them per
letter, so their cost shows in the callers' self time.

The wrappers exist only inside ``installed()``; leaving it puts every
original function back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys
import time
from typing import Any, Callable, Iterator

# layer -> (module, public functions its callers reach it through)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "blocks": ("m4kit.blocks",
               ("t2xg2", "g2xgn", "bt4", "bbt4", "t4b2", "t4", "t2xs2b4")),
    "surgery": ("m4kit.surgery",
                ("torus_surgery", "blow_up", "fiber_sum", "rename_manifold")),
    "certify": ("m4kit.certify",
                ("certify", "simplify", "commutation_closure")),
    "abelian": ("m4kit.abelian", ("h1", "smith_normal_form")),
    "coset": ("m4kit.coset", ("coset_enumeration",)),
    "checker": ("m4kit.checker", ("replay",)),
    "manifest": ("m4kit.manifest",
                 ("parse_manifest", "run_manifest", "report_json")),
    "cli": ("m4kit.cli", ("main",)),
}

# trace step kinds, as certificate JSON names them
STEP_KINDS = ("pair_from_relator", "pair_from_definition",
              "commutation_cancel", "eliminate", "replace_subword",
              "activate_conditional", "discharge_meridional")

# (metric, unit) emitted by layer_metrics(); the timings vary run to run,
# the counters must repeat exactly for the same inputs
TIMINGS = (
    ("blocks.self_s", "s"), ("surgery.self_s", "s"),
    ("certify.self_s", "s"), ("abelian.self_s", "s"),
    ("coset.self_s", "s"), ("checker.self_s", "s"),
    ("manifest.parse_s", "s"), ("manifest.report_s", "s"),
    ("cli.self_s", "s"),
)
COUNTERS = (
    ("certify.calls", "count"), ("certify.steps", "count"),
    *((f"certify.steps.{k}", "count") for k in STEP_KINDS),
    ("certify.definite_ratio", "ratio"),
    ("abelian.calls", "count"), ("abelian.matrix_cells", "count"),
    ("coset.calls", "count"), ("coset.defined", "count"),
    ("coset.defined_max", "count"), ("coset.useful_ratio", "ratio"),
    ("coset.exceeded", "count"),
    ("checker.steps_replayed", "count"),
)


class Span:
    __slots__ = ("layer", "fn", "parent", "start", "end", "args", "kwargs",
                 "result", "returned")

    def __init__(self, layer: str, fn: str, parent: int | None,
                 args: tuple, kwargs: dict):
        self.layer, self.fn, self.parent = layer, fn, parent
        self.args, self.kwargs = args, kwargs
        self.start = self.end = 0.0
        self.result: Any = None
        self.returned = False


class Tracer:
    """Spans of one pass, kept in memory in the order they started."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: int | None = None

    def wrap(self, layer: str, fn_name: str, fn: Callable) -> Callable:
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, fn_name, self._current, args, kwargs)
            parent = self._current
            self._current = len(spans)
            spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                span.returned = True
                return span.result
            finally:
                span.end = time.perf_counter()
                self._current = parent

        return wrapper


def _holders() -> list[dict[str, Any]]:
    """Every namespace a caller can look a layer function up through."""
    mods = [m for name, m in sys.modules.items()
            if name == "m4kit" or name.startswith("m4kit.")]
    # the package re-exports names that shadow its submodules (m4kit.certify
    # is the function), so the catalog comes from sys.modules, never getattr
    return [vars(m) for m in mods] + [sys.modules["m4kit.blocks"].CATALOG]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every lookup of a layer function through `tracer` until exit."""
    for mod_name, _ in LAYERS.values():
        importlib.import_module(mod_name)
    holders = _holders()
    patched: list[tuple[dict[str, Any], str, Callable]] = []
    try:
        for layer, (mod_name, names) in LAYERS.items():
            mod = sys.modules[mod_name]
            for name in names:
                original = vars(mod)[name]
                wrapper = tracer.wrap(layer, name, original)
                for ns in holders:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper
                            patched.append((ns, key, original))
        yield
    finally:
        for ns, key, original in reversed(patched):
            ns[key] = original


def _kind(step: Any) -> str:
    """CamelCase step class -> snake_case kind (PairFromRelator ->
    pair_from_relator)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(step).__name__).lower()


def _h1_rows(p: Any, include_safe: bool) -> int:
    rows = len(p.relators)
    if include_safe:
        rows += sum(1 for c in p.conditional
                    if all(c.key.exponent_sum(g) == 0 for g in c.key.names()))
    return rows


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """(timings, counters) of one pass, keyed as in TIMINGS and COUNTERS."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    timings = dict.fromkeys((name for name, _ in TIMINGS), 0.0)
    counters: dict[str, float] = dict.fromkeys((name for name, _ in COUNTERS), 0)
    definite = index_sum = 0
    coset_count = sys.modules["m4kit.coset"].CosetCount

    for i, s in enumerate(spans):
        dur = s.end - s.start
        key = f"{s.layer}.self_s"
        if key in timings:
            timings[key] += dur - child[i]
        if s.fn == "parse_manifest":
            timings["manifest.parse_s"] += dur
        elif s.fn == "report_json":
            timings["manifest.report_s"] += dur
        elif s.fn == "certify":
            counters["certify.calls"] += 1
            if s.returned:
                cert = s.result
                definite += cert.is_definite
                counters["certify.steps"] += len(cert.trace)
                for step in cert.trace:
                    kind = f"certify.steps.{_kind(step)}"
                    if kind in counters:
                        counters[kind] += 1
        elif s.fn == "h1":
            counters["abelian.calls"] += 1
            p = s.args[0]
            include = (s.args[1] if len(s.args) > 1 else
                       s.kwargs.get("include_h1_safe_conditionals", False))
            counters["abelian.matrix_cells"] += (
                _h1_rows(p, include) * len(p.generators))
        elif s.fn == "coset_enumeration":
            counters["coset.calls"] += 1
            if isinstance(s.result, coset_count):
                counters["coset.defined"] += s.result.total_defined
                counters["coset.defined_max"] = max(
                    counters["coset.defined_max"], s.result.total_defined)
                index_sum += s.result.index
            elif s.returned:
                counters["coset.exceeded"] += 1
        elif s.fn == "replay" and s.returned:
            counters["checker.steps_replayed"] += len(s.args[0].trace)

    if counters["certify.calls"]:
        counters["certify.definite_ratio"] = definite / counters["certify.calls"]
    if counters["coset.defined"]:
        counters["coset.useful_ratio"] = index_sum / counters["coset.defined"]
    return timings, counters
