"""Spans around calls into each ``repro`` layer, installed from outside.

The traced run wraps public functions of the program where their callers
look them up (a class attribute, or a module global imported by name) and
records a span per call: name, start, end, parent span and request id.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.

Nothing here edits ``src/``: :meth:`Tracer.uninstall` puts every original
back, and the helper tests check that wrapped calls return what the
unwrapped ones do.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: spans recorded outside any request: set-up work measured once per set-up
SETUP_SPANS = ("datasets.generate", "optimizer.glogue_build")

#: (module, owner, attribute, span) wrapped in a process that runs queries
QUERY_LAYERS = (
    ("repro.service.service", "GraphService", "parse", "lang.parse"),
    ("repro.service.session", "Session", "prepare", "service.prepare"),
    ("repro.optimizer.planner", "GOptimizer", "optimize", "optimizer.optimize"),
    ("repro.optimizer.rules", "HepPlanner", "optimize", "optimizer.rules"),
    ("repro.optimizer.planner", None, "infer_types", "optimizer.type_inference"),
    ("repro.optimizer.search", "PatternSearcher", "optimize", "optimizer.search"),
    ("repro.gir.pattern", "PatternGraph", "canonical_key", "optimizer.canonical_key"),
    ("repro.optimizer.glogue", "Glogue", "from_graph", "optimizer.glogue_build"),
    ("repro.backend.base", "Backend", "execute_streaming", "backend.execute"),
    ("repro.backend.base", "StreamingResult", "__next__", "backend.execute"),
)

#: layers only the server process calls
SERVER_LAYERS = (
    ("repro.server.app", "ServerApp", "handle_fetch", "service.cursor_fetch"),
    ("repro.server.wire", "QueryResultWire", "from_rows", "wire.encode"),
    ("repro.server.wire", "QueryResultWire", "to_dict", "wire.encode"),
    ("repro.server.wire", "CursorChunkWire", "to_dict", "wire.encode"),
    ("repro.server.wire", "CursorWire", "to_dict", "wire.encode"),
    ("repro.server.app", "Response", "json", "wire.encode"),
)

#: layers only the load generator calls
CLIENT_LAYERS = (
    ("repro.client.client", "GraphClient", "call", "client.call"),
    ("repro.client.client", "GraphClient", "request", "client.request"),
    ("repro.server.wire", "QueryResultWire", "from_dict", "client.decode"),
    ("repro.server.wire", "CursorChunkWire", "from_dict", "client.decode"),
    ("repro.server.wire", "CursorWire", "from_dict", "client.decode"),
)

#: public adjacency calls counted (not timed: they are far too many)
ADJACENCY_CALLS = ("out_edges", "in_edges", "adjacent_edges", "neighbors", "neighbor_set")

#: tenant of the untimed warm-up requests the serving server must not count
WARM_TENANT = "perfbench-warm"


class Tracer:
    """Per-thread span stacks, counters and samples of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []
        self._patches: List[tuple] = []
        self.counters: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- requests and spans ----------------------------------------------------------
    def _state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans, state.stack, state.request = [], [], 0
            with self._lock:
                self._threads.append(state.spans)
        return state

    @property
    def request(self) -> int:
        return self._state().request

    def set_request(self, request_id: int) -> None:
        """Spans opened by this thread from now on belong to ``request_id``;
        0 means outside any measured request (nothing but set-up is kept)."""
        self._state().request = request_id

    @contextmanager
    def span(self, name: str):
        state = self._state()
        if not state.request and name not in SETUP_SPANS:
            yield
            return
        record = [name, time.perf_counter(), None,
                  state.stack[-1] if state.stack else None, state.request]
        state.spans.append(record)
        state.stack.append(len(state.spans) - 1)
        try:
            yield
        finally:
            state.stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self._state().request:
            with self._lock:
                self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- installing wrappers ---------------------------------------------------------
    def patch(self, owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` by ``make(original)``, keeping the
        classmethod/staticmethod kind; :meth:`uninstall` restores it."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def timed(self, name: str, on_result: Optional[Callable] = None):
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    def counted(self, name: str):
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                self.count(name)
                return func(*args, **kwargs)
            return wrapper
        return make

    def install(self, layers) -> None:
        import importlib

        for module_name, owner_name, attribute, span in layers:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            on_result = _search_counters(self) if span == "optimizer.search" else None
            self.patch(owner, attribute, self.timed(span, on_result))

    def install_query_layers(self) -> None:
        from repro.graph.property_graph import PropertyGraph

        self.install(QUERY_LAYERS)
        for attribute in ADJACENCY_CALLS:
            self.patch(PropertyGraph, attribute, self.counted("graph.adjacency_calls"))

    def install_server_layers(self) -> None:
        from repro.server.app import ServerApp

        self.install(SERVER_LAYERS)
        self.patch(ServerApp, "handle_request", self._handler_wrapper)
        admission = self._admission_wait_patch()
        from repro.service.admission import AdmissionController

        self.patch(AdmissionController, "admit", admission[0])
        self.patch(AdmissionController, "begin", admission[1])

    def _handler_wrapper(self, func):
        counter = iter(range(1, 1 << 62))

        @functools.wraps(func)
        def wrapper(app, method, path, params, headers, body):
            tenant = {key.lower(): value for key, value in headers.items()}.get("x-tenant")
            counted = (path.startswith(("/v1/queries", "/v1/cursors/"))
                       and tenant != WARM_TENANT)
            if not counted:
                return func(app, method, path, params, headers, body)
            with self._lock:
                request_id = next(counter)
            self.set_request(request_id)
            try:
                with self.span("server.handler"):
                    response = func(app, method, path, params, headers, body)
                self.count("server.response_bytes", len(response.body))
                return response
            finally:
                self.set_request(0)
        return wrapper

    def _admission_wait_patch(self):
        """Wrappers recording the wait from ``admit`` to ``begin`` returning."""
        def on_admit(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                self._local.admitted_at = time.perf_counter()
                return func(*args, **kwargs)
            return wrapper

        def on_begin(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                if self.request:
                    self.sample("admission.wait",
                                time.perf_counter() - self._local.admitted_at)
                return result
            return wrapper
        return on_admit, on_begin

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- results ---------------------------------------------------------------------
    def aggregate(self) -> Dict[str, object]:
        """Self time, call count and inclusive durations per span name."""
        spans: Dict[str, Dict[str, object]] = {}
        with self._lock:
            threads = [list(spans_of_thread) for spans_of_thread in self._threads]
        for records in threads:
            child_time = [0.0] * len(records)
            for name, start, end, parent, _ in records:
                if end is not None and parent is not None:
                    child_time[parent] += end - start
            for index, (name, start, end, _, _) in enumerate(records):
                if end is None:
                    continue
                entry = spans.setdefault(name, {"self_s": 0.0, "count": 0, "incl": []})
                entry["self_s"] += (end - start) - child_time[index]
                entry["count"] += 1
                entry["incl"].append(end - start)
        return {"spans": spans, "counters": dict(self.counters),
                "samples": {name: list(values) for name, values in self.samples.items()}}

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with self._lock:
            threads = [list(spans_of_thread) for spans_of_thread in self._threads]
        with open(path, "w", encoding="utf-8") as handle:
            for slot, records in enumerate(threads):
                for index, (name, start, end, parent, request) in enumerate(records):
                    handle.write(json.dumps({
                        "id": "%d:%d" % (slot, index), "name": name,
                        "start": start, "end": end,
                        "parent": None if parent is None else "%d:%d" % (slot, parent),
                        "request": request}) + "\n")


def _search_counters(tracer: Tracer):
    def on_result(result) -> None:
        tracer.count("optimizer.search_states", result.states_explored)
        tracer.count("optimizer.candidates_pruned", result.candidates_pruned)
    return on_result


def merge(*aggregates: Dict[str, object]) -> Dict[str, object]:
    merged: Dict[str, object] = {"spans": {}, "counters": Counter(), "samples": defaultdict(list)}
    for aggregate in aggregates:
        for name, entry in aggregate["spans"].items():
            target = merged["spans"].setdefault(name, {"self_s": 0.0, "count": 0, "incl": []})
            target["self_s"] += entry["self_s"]
            target["count"] += entry["count"]
            target["incl"].extend(entry["incl"])
        merged["counters"].update(aggregate["counters"])
        for name, values in aggregate["samples"].items():
            merged["samples"][name].extend(values)
    return merged


def layer_metrics(aggregate: Dict[str, object], requests: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from merged span aggregates.

    Times named ``*_ms`` without a statistic in the name are self time per
    measured request, so they add up to the mean request latency; counts
    named ``*_calls`` (except ``optimize_calls``) and the search counters
    are per request too.  ``extra`` carries the metrics the runner reads
    from the program's own results and counters.
    """
    spans = aggregate["spans"]
    counters = aggregate["counters"]
    samples = aggregate["samples"]
    per_request = max(requests, 1)

    def self_ms(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names) * 1e3 / per_request

    def incl(name: str) -> List[float]:
        return spans.get(name, {}).get("incl", [])

    def calls(name: str) -> float:
        return spans.get(name, {}).get("count", 0) / per_request

    handler_s = sum(incl("server.handler"))
    optimize = incl("optimizer.optimize")
    waits = samples.get("admission.wait", [])
    metrics = {
        "server.handler_ms": handler_s * 1e3 / per_request,
        "server.transport_ms": ((sum(incl("client.request")) - handler_s) * 1e3 / per_request
                                if incl("client.request") else 0.0),
        "server.response_bytes": counters.get("server.response_bytes", 0) / per_request,
        "wire.encode_ms": self_ms("wire.encode"),
        "client.decode_ms": self_ms("client.call", "client.decode"),
        "admission.wait_p50_ms": _median(waits) * 1e3,
        "admission.wait_max_ms": max(waits, default=0.0) * 1e3,
        "service.prepare_ms": self_ms("service.prepare"),
        "service.cursor_fetch_ms": self_ms("service.cursor_fetch"),
        "lang.parse_ms": self_ms("lang.parse"),
        "lang.parse_calls": calls("lang.parse"),
        "optimizer.optimize_calls": float(len(optimize)),
        "optimizer.optimize_p50_ms": _median(optimize) * 1e3,
        "optimizer.optimize_max_ms": max(optimize, default=0.0) * 1e3,
        "optimizer.optimize_total_ms": sum(optimize) * 1e3,
        "optimizer.rules_ms": self_ms("optimizer.rules"),
        "optimizer.type_inference_ms": self_ms("optimizer.type_inference"),
        "optimizer.search_ms": self_ms("optimizer.search"),
        "optimizer.search_states": counters.get("optimizer.search_states", 0) / per_request,
        "optimizer.candidates_pruned": counters.get("optimizer.candidates_pruned", 0) / per_request,
        "optimizer.canonical_key_calls": calls("optimizer.canonical_key"),
        "optimizer.canonical_key_ms": self_ms("optimizer.canonical_key"),
        "optimizer.glogue_build_s": _median(incl("optimizer.glogue_build")),
        "backend.execute_ms": self_ms("backend.execute"),
        "graph.adjacency_calls": counters.get("graph.adjacency_calls", 0) / per_request,
        "graph.build_mb": _median(samples.get("graph.build_mb", [])),
        "datasets.generate_s": _median(incl("datasets.generate")),
    }
    metrics.update(extra)
    return metrics


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
