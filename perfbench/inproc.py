"""The in-process workloads, ``adhoc`` and ``analytics``: one thread driving
one ``Session``, every timing corrected for host speed."""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import results
import workloads
from hostspeed import HostClock, ThreadGuard
from tracing import Tracer

#: probe period; host speed changes within a second
PROBE_INTERVAL_S = 0.1
#: queries left out of the untimed adhoc warm-up: the n! canonical-key
#: searches, which would triple the run
ADHOC_WARM_SKIP = ("QC4a", "g-QC4a", "QC4b")


class InProcessRun:
    """One run: whole passes, with set-ups spread across them."""

    def __init__(self, workload: str, seed: int, seconds: float, config: Dict,
                 expected: Dict, tracer: Optional[Tracer] = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.expected = expected
        self.unique = workload == "adhoc"
        self.catalog = workloads.CATALOGS[workload]()
        skip = ADHOC_WARM_SKIP if workload == "adhoc" else ()
        self.warm_catalog = [entry for entry in self.catalog if entry.name not in skip]
        self.requests = workloads.passes(self.catalog, seed)
        self.clock = HostClock(config["reference_probe_ms"], ThreadGuard(), PROBE_INTERVAL_S)
        self.tracer = tracer
        self.traced = False
        self.session = None
        self.service = None
        self.sent = 0
        #: (start, end) of every set-up and every measured request
        self.setup_spans: List[Tuple[float, float]] = []
        self.request_spans: List[Tuple[float, float]] = []
        self.warm_failures = results.Tally()
        self.tally = results.Tally()
        self.work = results.empty_work()

    # -- set-up ------------------------------------------------------------------------
    def setup(self) -> None:
        """From nothing to ready: graph generation, then the GraphService
        (which builds the GLogue statistics).

        An untimed warm-up follows, so that first-use costs land in no
        measured request: for ``analytics`` it fills the plan cache; for
        ``adhoc`` it only warms the optimizer, since every measured request
        text is new to the plan cache anyway.
        """
        from repro.service import GraphService

        self.session = self.service = None
        gc.collect()
        span = self.tracer.span("datasets.generate") if self.traced else nullcontext()
        started = time.perf_counter()
        with span:
            graph = workloads.build_graph(self.workload)
        service = GraphService(graph)
        self.setup_spans.append((started, time.perf_counter()))
        if self.traced:
            self.tracer.sample("graph.build_mb", graph_build_mb(self.workload))
        self.service, self.session = service, service.session()
        for entry in self.warm_catalog:
            self.execute(entry, entry.text, self.warm_failures)

    # -- requests ----------------------------------------------------------------------
    def execute(self, entry, text: str,
                tally: results.Tally) -> Optional[Tuple[float, float]]:
        """Run one request and check its answer; returns its (start, end),
        or None when it failed before producing rows."""
        started = time.perf_counter()
        try:
            cursor = self.session.run(text, language=entry.language)
            rows = cursor.fetch_all()
        except Exception as exc:  # noqa: BLE001 - every failure is tallied by type
            tally.fail(type(exc).__name__)
            return None
        ended = time.perf_counter()
        metrics = cursor.consume()
        if metrics.timed_out:
            tally.fail("timed_out")
        elif not results.matches(self.expected["answers"][entry.name], rows):
            tally.fail("mismatch")
        else:
            tally.ok()
        if tally is self.tally:
            work = self.work
            work["rows"] += len(rows)
            work["vertices_scanned"] += metrics.vertices_scanned
            work["edges_traversed"] += metrics.edges_traversed
            work["intermediate_results"] += metrics.intermediate_results
            work["peak_held_rows"] = max(work["peak_held_rows"], cursor.peak_held_rows or 0)
            if self.traced and (workloads.normalize(cursor.report.explain())
                                != self.expected["explain"][entry.name]):
                work["plans_changed"] += 1
        return started, ended

    def measure(self, budget_s: float, spread_setups: bool) -> Dict[str, float]:
        """Whole passes until about ``budget_s`` corrected seconds of
        requests ran (scaled by the latest probe while running; the reported
        figures come from :meth:`corrected`).  With ``spread_setups`` the
        remaining set-ups run as that time crosses each ``seconds / setups``
        mark.  Returns the request count and the slice of
        ``request_spans`` it filled."""
        spent = 0.0
        count = 0
        first = len(self.request_spans)
        while True:
            last, entry = next(self.requests)
            self.sent += 1
            count += 1
            text = (workloads.unique_text(entry, workloads.nonce(self.seed, self.sent))
                    if self.unique else entry.text)
            if self.traced:
                self.tracer.set_request(self.sent)
            try:
                span = self.execute(entry, text, self.tally)
            finally:
                if self.traced:
                    self.tracer.set_request(0)
            if span is not None:
                self.request_spans.append(span)
                spent += (span[1] - span[0]) * self.clock.latest_factor()
            if spread_setups and len(self.setup_spans) < min(
                    results.SETUPS, 1 + int(spent / (self.seconds / results.SETUPS))):
                self.setup()
            if last and spent >= budget_s:
                return {"requests": count, "spans": (first, len(self.request_spans))}

    def corrected(self) -> Dict[str, List[float]]:
        """Raw and corrected latencies and set-ups (see :meth:`HostClock.correct`)."""
        requests = [self.clock.correct(start, end) for start, end in self.request_spans]
        setups = [self.clock.correct(start, end) for start, end in self.setup_spans]
        return {"raw_latencies": [raw for raw, _ in requests],
                "latencies": [value for _, value in requests],
                "raw_setups": [raw for raw, _ in setups],
                "setups": [value for _, value in setups]}


def graph_build_mb(workload: str) -> float:
    """Memory held by a freshly generated graph, traced by allocation."""
    tracemalloc.start()
    try:
        graph = workloads.build_graph(workload)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del graph
    return held / 2 ** 20


def run(workload: str, seed: int, seconds: float, trace: bool, config: Dict,
        expected: Dict, spans_path: str) -> Dict[str, object]:
    tracer = Tracer() if trace else None
    bench = InProcessRun(workload, seed, seconds, config, expected, tracer)
    bench.clock.start_sampling()
    try:
        bench.setup()
        if not trace:
            bench.measure(seconds, spread_setups=True)
            while len(bench.setup_spans) < results.SETUPS:
                bench.setup()
        else:
            plain = bench.measure(seconds / 2, spread_setups=False)
            tracer.install_query_layers()
            try:
                bench.traced = True
                bench.setup()
                bench.work = results.empty_work()
                timed_out_before = bench.tally.failures["timed_out"]
                cache_before = bench.service.cache_info().to_dict()
                traced = bench.measure(seconds / 2, spread_setups=False)
                cache_after = bench.service.cache_info().to_dict()
            finally:
                tracer.uninstall()
    finally:
        bench.clock.stop_sampling()
    if not trace:
        return results.run_summary(bench, config["tail_percentile"][workload])

    tracer.write(spans_path)
    latencies = bench.corrected()["latencies"]
    extra = results.work_metrics(bench.work, bench.tally.failures["timed_out"] - timed_out_before)
    extra.update(results.cache_metrics(cache_before, cache_after))
    extra.update({
        "client.errors": 0.0, "admission.rejected": 0.0,
        "host.probe_ms": bench.clock.median_probe_ms(),
        "trace.overhead_frac": results.overhead(*(
            {"requests": phase["requests"], "seconds": sum(latencies[slice(*phase["spans"])])}
            for phase in (plain, traced))),
    })
    return {"layers": (tracer.aggregate(), traced["requests"], extra),
            "violations": bench.clock.violations,
            "failures": dict(bench.tally.failures + bench.warm_failures.failures),
            "attempted": bench.tally.attempted, "failed": bench.tally.failed}
