"""The ``serve`` workload's server process.

Started by ``serve.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
reads one JSON command per line on stdin and answers each with one JSON
line on stdout:

* ``{"cmd": "setup", "trace": bool}``: drop the previous server, then set
  up from nothing (graph, ``GraphService`` with its GLogue statistics,
  ``GraphHTTPServer`` start, first ``/healthz``) between two host probes,
  and serve; answers the port and the set-up timings;
* ``{"cmd": "mark"}``: plan-cache and admission counters;
* ``{"cmd": "stop", "spans": path}``: stop, write spans, answer the peak
  RSS and the trace aggregate, and exit.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import sys
import time
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import results  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostClock, ThreadGuard, wait_for_other_threads  # noqa: E402
from inproc import graph_build_mb  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.server import GraphHTTPServer  # noqa: E402
from repro.service import GraphService  # noqa: E402

class ServerProcess:
    def __init__(self, reference_probe_ms: float):
        self.clock = HostClock(reference_probe_ms, ThreadGuard())
        self.tracer = Tracer()
        self.traced = False
        self.server = None

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        wait_for_other_threads()

    def setup(self, trace: bool) -> dict:
        self._stop_server()
        gc.collect()
        if trace and not self.traced:
            self.tracer.install_query_layers()
            self.tracer.install_server_layers()
            self.traced = True
        before = self.clock.probe()
        started = time.perf_counter()
        with self.tracer.span("datasets.generate") if self.traced else nullcontext():
            graph = workloads.build_graph("serve")
        service = GraphService(graph)
        server = GraphHTTPServer(service).start()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            healthy = connection.getresponse().status == 200
        finally:
            connection.close()
        ended = time.perf_counter()
        # the probe after set-up must see no server thread, so the timed
        # server stops here and an identical one serves the load
        server.stop()
        wait_for_other_threads()
        after = self.clock.probe()
        if self.traced:
            self.tracer.sample("graph.build_mb", graph_build_mb("serve"))
        self.server = GraphHTTPServer(service).start()
        return {"port": self.server.port, "healthy": healthy, "raw_s": ended - started,
                "s": (ended - started) * self.clock.factor(before, after),
                "probe_before_ms": before, "probe_after_ms": after}

    def mark(self) -> dict:
        app = self.server.app
        return {"cache": app.service.cache_info().to_dict(),
                "admission": app.admission.stats().to_dict()}

    def stop(self, spans_path) -> dict:
        self._stop_server()
        if self.traced:
            self.tracer.uninstall()
            if spans_path:
                self.tracer.write(spans_path)
        return {"rss_mb": results.peak_rss_mb(), "aggregate": self.tracer.aggregate(),
                "probe_ms": self.clock.median_probe_ms(),
                "violations": self.clock.violations}


def main() -> int:
    process = ServerProcess(float(sys.argv[1]))
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "setup":
            reply = process.setup(command["trace"])
        elif command["cmd"] == "mark":
            reply = process.mark()
        elif command["cmd"] == "stop":
            reply = process.stop(command.get("spans"))
        else:
            raise SystemExit("unknown command %r" % (command,))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if command["cmd"] == "stop":
            return 0
    process.stop(None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
