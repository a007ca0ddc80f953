"""The ``serve`` workload: a load generator in this process, closed-loop
keep-alive ``GraphClient`` connections against a ``GraphHTTPServer`` in
its own process (``serve_server.py``).

Request timings stay raw: today they are bound by the transport's ~40 ms
delayed-ACK stall, which a CPU probe does not track.  Set-up times are
corrected in the server process, where the set-up runs.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import results
import workloads
from tracing import CLIENT_LAYERS, WARM_TENANT, Tracer, merge

#: closed-loop connections, one per caller waiting for its reply
CLIENTS = 2


class ServerHandle:
    """The server process and its line-oriented JSON command channel."""

    def __init__(self, reference_probe_ms: float):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_server.py")
        self.process = subprocess.Popen(
            [sys.executable, script, repr(reference_probe_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def call(self, **command) -> Dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve: server process exited (code %s)" % self.process.poll())
        return json.loads(line)

    def close(self) -> None:
        """End the process whatever state it is in, and wait for it."""
        try:
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class LoadClient:
    """One closed-loop caller: waits for each reply before the next request."""

    def __init__(self, port: int, requests, expected: Dict, tenant: str,
                 tracer: Optional[Tracer], request_ids):
        from repro.client import GraphClient

        self.client = GraphClient("127.0.0.1", port, tenant=tenant)
        self.session = self.client.session()
        self.prepared = {kind: self.session.prepare(workloads.SERVE_TEMPLATES[kind])
                         for kind in ("point", "hop")}
        self.requests = requests
        self.expected = expected
        self.tracer = tracer
        self.request_ids = request_ids
        self.tally = results.Tally()
        self.latencies: List[float] = []
        self.work = results.empty_work()
        self.finished_at = 0.0

    def send(self, request: workloads.ServeRequest) -> None:
        started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.set_request(next(self.request_ids))
        try:
            if request.literal:
                reply = self.session.run(workloads.literal_text(request.kind, request.person))
                rows, metrics, peak = reply.rows, reply.metrics, reply.peak_held_rows
            elif request.kind == "agg":
                cursor = self.session.cursor(workloads.SERVE_TEMPLATES["agg"])
                rows = cursor.fetch_all()
                metrics, peak = cursor.metrics, cursor.peak_held_rows
            else:
                reply = self.prepared[request.kind].run({"x": request.person})
                rows, metrics, peak = reply.rows, reply.metrics, reply.peak_held_rows
        except Exception as exc:  # noqa: BLE001 - every failure is tallied by type
            self.tally.fail(type(exc).__name__)
            return
        finally:
            if self.tracer is not None:
                self.tracer.set_request(0)
        self.latencies.append(time.perf_counter() - started)
        metrics = metrics or {}
        if metrics.get("timed_out"):
            self.tally.fail("timed_out")
        elif not results.matches(self.expected[request.key], rows):
            self.tally.fail("mismatch")
        else:
            self.tally.ok()
        work = self.work
        work["rows"] += len(rows)
        for counter in ("vertices_scanned", "edges_traversed", "intermediate_results"):
            work[counter] += metrics.get(counter, 0)
        work["peak_held_rows"] = max(work["peak_held_rows"], peak or 0)

    def loop(self, start: threading.Barrier, deadline: List[float]) -> None:
        start.wait()
        while time.perf_counter() < deadline[0]:
            self.send(next(self.requests))
        self.finished_at = time.perf_counter()

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            self.client.close()


def warm(port: int, expected: Dict) -> results.Tally:
    """Send each request kind once, untimed, so every template is planned."""
    client = LoadClient(port, None, expected, WARM_TENANT, None, None)
    try:
        for kind in ("point", "hop", "agg"):
            client.send(workloads.ServeRequest(kind, None if kind == "agg" else 0, False))
    finally:
        client.close()
    return client.tally


def run_phase(port: int, seed: int, phase: int, window_s: float, expected: Dict,
              tracer: Optional[Tracer]) -> Dict[str, object]:
    request_ids = itertools.count(1)
    clients = [LoadClient(port, workloads.serve_requests(seed, phase * CLIENTS + index),
                          expected, "perfbench-%d" % index, tracer, request_ids)
               for index in range(CLIENTS)]
    start = threading.Barrier(CLIENTS + 1)
    deadline = [0.0]
    threads = [threading.Thread(target=client.loop, args=(start, deadline),
                                name="perfbench-load-%d" % index)
               for index, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    try:
        deadline[0] = time.perf_counter() + window_s
        started = time.perf_counter()
        start.wait()
    finally:
        for thread in threads:
            thread.join()
        for client in clients:
            client.close()
    elapsed = max(client.finished_at for client in clients) - started
    tally = results.Tally()
    work: Dict[str, float] = {}
    for client in clients:
        tally.merge(client.tally)
        for key, value in client.work.items():
            work[key] = max(work.get(key, 0), value) if key == "peak_held_rows" \
                else work.get(key, 0) + value
    return {"tally": tally, "latencies": [value for client in clients for value in client.latencies],
            "seconds": elapsed, "work": work}


def run(seed: int, seconds: float, trace: bool, config: Dict, expected: Dict,
        spans_path: str) -> Dict[str, object]:
    answers = expected["answers"]
    phases = 2 if trace else results.SETUPS
    server = ServerHandle(config["reference_probe_ms"])
    tracer = Tracer() if trace else None
    setups, outcomes, marks = [], [], []
    warm_tally = results.Tally()
    try:
        for phase in range(phases):
            traced_phase = trace and phase == phases - 1
            setup = server.call(cmd="setup", trace=traced_phase)
            if not setup.pop("healthy"):
                warm_tally.fail("healthz")
            setups.append(setup)
            warm_tally.merge(warm(setup["port"], answers))
            if traced_phase:
                tracer.install(CLIENT_LAYERS)
            before = server.call(cmd="mark")
            outcomes.append(run_phase(setup["port"], seed, phase, seconds / phases, answers,
                                      tracer if traced_phase else None))
            marks.append((before, server.call(cmd="mark")))
        final = server.call(cmd="stop", spans=spans_path + ".server" if trace else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.close()

    tally = results.Tally()
    for outcome in outcomes:
        tally.merge(outcome["tally"])
    failures = dict(tally.failures + warm_tally.failures)
    if trace:
        tracer.write(spans_path)
        plain, traced = outcomes
        before, after = marks[-1]
        extra = results.work_metrics(traced["work"], traced["tally"].failures["timed_out"])
        extra.update(results.cache_metrics(before["cache"], after["cache"]))
        extra.update({
            "client.errors": float(traced["tally"].failed),
            "admission.rejected": float(after["admission"]["rejected"]
                                        - before["admission"]["rejected"]),
            "host.probe_ms": final["probe_ms"],
            "trace.overhead_frac": results.overhead(
                {"requests": plain["tally"].attempted, "seconds": plain["seconds"]},
                {"requests": traced["tally"].attempted, "seconds": traced["seconds"]}),
        })
        return {"layers": (merge(final["aggregate"], tracer.aggregate()),
                           traced["tally"].attempted, extra),
                "violations": final["violations"], "failures": failures,
                "attempted": tally.attempted, "failed": tally.failed}

    latencies = [value for outcome in outcomes for value in outcome["latencies"]]
    measured = sum(outcome["seconds"] for outcome in outcomes)
    percentile = config["tail_percentile"]["serve"]
    metrics = results.end_to_end(latencies, tally.succeeded, measured,
                                 [setup["s"] for setup in setups], final["rss_mb"],
                                 tally.attempted, percentile)
    return {
        "metrics": metrics,
        "raw": {"setup_s": results.median([setup["raw_s"] for setup in setups])},
        "samples": results.sample_counts(latencies, percentile, len(setups)),
        "setups": setups,
        "host_probe_ms": final["probe_ms"],
        "violations": final["violations"],
        "failures": failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
