"""Tests of the benchmark's helpers: percentiles, host correction, answer
digests, the thread guard and the traced wrappers."""

import json
import os
import sys
import threading
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import results  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- fixed-percentile tails ------------------------------------------------------------

def test_tail_is_nearest_rank_with_count_beyond():
    values = [float(v) for v in range(1, 101)]
    assert results.tail(values, 98) == (98.0, 2)
    assert results.tail(values, 50) == (50.0, 50)
    assert results.tail([], 98) == (0.0, 0)


def test_tail_percentile_does_not_follow_sample_count():
    # one adhoc pass has 56 requests: p80 leaves 11 beyond it
    assert results.tail([float(v) for v in range(56)], 80)[1] == 11
    # a longer run reports the same percentile, with more samples beyond
    assert results.tail([float(v) for v in range(112)], 80)[1] == 22


def test_sample_counts_report_latencies_and_setups():
    counts = results.sample_counts([0.1] * 60, 80, 3)
    assert counts == {"latency": 60, "tail_percentile": 80, "beyond_tail": 12, "setups": 3}


# -- host correction ---------------------------------------------------------------------

def test_correction_scales_by_reference_over_mean_probe():
    assert hostspeed.correction_factor(0.4, 0.4, 0.4) == pytest.approx(1.0)
    # a host running at half speed doubles the probe: timings are halved
    assert hostspeed.correction_factor(0.4, 0.8, 0.8) == pytest.approx(0.5)
    assert hostspeed.correction_factor(0.4, 0.2, 0.6) == pytest.approx(1.0)


def test_host_clock_records_probes_and_factor():
    clock = hostspeed.HostClock(0.5, hostspeed.ThreadGuard())
    value = clock.probe()
    assert value > 0 and clock.probes == [value]
    assert clock.factor(1.0, 1.0) == pytest.approx(0.5)
    assert clock.latest_factor() == pytest.approx(0.5 / value)
    assert clock.median_probe_ms() == value
    assert clock.violations == []


def test_correct_removes_probe_time_and_scales_by_nearby_probes():
    clock = hostspeed.HostClock(1.0, hostspeed.ThreadGuard(), interval_s=0.1)
    clock.samples = [(0.0, 0.002, 1.0), (0.5, 0.502, 2.0), (1.0, 1.002, 1.0)]
    raw, corrected = clock.correct(0.1, 1.2)
    # two probes ran inside; all three are within one interval of it
    assert raw == pytest.approx(1.1 - 0.004)
    assert corrected == pytest.approx(raw / 1.0)
    # a short timing sees only the probe next to it: a host at half speed
    raw, corrected = clock.correct(0.45, 0.55)
    assert raw == pytest.approx(0.1 - 0.002)
    assert corrected == pytest.approx(raw * 1.0 / 2.0)


def test_timer_sampling_probes_inside_long_work():
    import signal

    clock = hostspeed.HostClock(1.0, hostspeed.ThreadGuard(), interval_s=0.05)
    handler = signal.getsignal(signal.SIGALRM)
    clock.start_sampling()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            sum(range(1000))
        ended = time.perf_counter()
    finally:
        clock.stop_sampling()
    assert signal.getsignal(signal.SIGALRM) == handler
    inside = [sample for sample in clock.samples if started <= sample[0] <= ended]
    assert len(inside) >= 3
    raw, _ = clock.correct(started, ended)
    assert raw < ended - started


def test_end_to_end_from_corrected_latencies():
    metrics = results.end_to_end([0.01, 0.02, 0.03, 0.04], 4, 0.1, [2.0, 1.0, 3.0],
                                 50.0, 4, 75)
    assert metrics["throughput_qps"] == pytest.approx(40.0)
    assert metrics["latency_p50_ms"] == pytest.approx(25.0)
    assert metrics["latency_tail_ms"] == pytest.approx(30.0)
    assert metrics["success_frac"] == 1.0
    assert metrics["setup_s"] == 2.0


# -- thread guard ------------------------------------------------------------------------

def test_thread_guard_names_threads_it_did_not_start():
    guard = hostspeed.ThreadGuard()
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="perfbench-test-busy")
    worker.start()
    try:
        assert "thread-%d" % worker.ident in guard.foreign_threads()
    finally:
        release.set()
        worker.join(timeout=5)
    assert not worker.is_alive()


def test_probe_records_foreign_threads_as_violations():
    clock = hostspeed.HostClock(0.4, hostspeed.ThreadGuard())
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="perfbench-test-intruder")
    worker.start()
    try:
        clock.probe()
    finally:
        release.set()
        worker.join(timeout=5)
    assert "thread-%d" % worker.ident in clock.violations


# -- answer digests ----------------------------------------------------------------------

def test_digest_ignores_row_order_and_column_names():
    entry = results.expected_entry([{"a": 1, "n": 2}, {"a": 3, "n": 4}])
    assert results.matches(entry, [{"b": 3, "m": 4}, {"b": 1, "m": 2}])
    assert not results.matches(entry, [{"a": 1, "n": 2}, {"a": 3, "n": 5}])
    assert not results.matches(entry, [{"a": 1, "n": 2}])


def test_digest_of_tie_cut_compares_sort_keys_only():
    entry = results.expected_entry([{"who": "x", "cnt": 5}, {"who": "y", "cnt": 3}],
                                   key_columns=[1])
    # another plan may keep "z" instead of "y": both have the tied count 3
    assert results.matches(entry, [{"who": "x", "cnt": 5}, {"who": "z", "cnt": 3}])
    assert not results.matches(entry, [{"who": "x", "cnt": 5}, {"who": "z", "cnt": 2}])


def test_cuts_tie_only_when_the_limit_splits_equal_keys():
    assert results.cuts_tie([(5,), (3,), (3,), (1,)], 2)
    assert not results.cuts_tie([(5,), (3,), (2,), (1,)], 2)
    assert not results.cuts_tie([(5,), (3,)], 2)


def test_json_round_trip_keeps_the_digest():
    rows = [{"name": "Ann", "score": 1.5, "tags": ["a", "b"]}]
    wire = json.loads(json.dumps(rows))
    assert results.matches(results.expected_entry(rows), wire)


# -- request texts -----------------------------------------------------------------------

def test_unique_cypher_text_renames_alias_and_its_order_by():
    entry = workloads.CatalogEntry(
        "IC", "cypher", "MATCH (p:Person) RETURN p.id AS id, count(p) AS cnt ORDER BY cnt DESC LIMIT 5")
    text = workloads.unique_text(entry, workloads.nonce(7, 3))
    assert "AS cnt_s7r3" in text and "ORDER BY cnt_s7r3 DESC" in text
    assert "p.id AS id," in text
    assert workloads.normalize(text) == entry.text
    assert workloads.limit_of(entry) == 5
    assert "LIMIT" not in workloads.without_limit(entry)
    assert workloads.sort_key_columns(entry, ["id", "cnt"]) == [1]


def test_unique_gremlin_text_renames_first_label_everywhere():
    entry = workloads.CatalogEntry(
        "g", "gremlin", "g.V().as('p').out('KNOWS').as('f').select('p').groupCount().by('p')"
        ".order().by(values, desc).limit(3)")
    text = workloads.unique_text(entry, "_s1r2")
    assert "'p'" not in text and text.count("'p_s1r2'") == 3
    assert workloads.normalize(text) == entry.text
    assert workloads.sort_key_columns(entry, ["p", "count"]) == [1]


def test_serve_requests_are_seeded_and_mixed():
    first = [next(workloads.serve_requests(3, 0)) for _ in range(1)]
    again = [next(workloads.serve_requests(3, 0)) for _ in range(1)]
    assert first == again
    stream = workloads.serve_requests(3, 0)
    sample = [next(stream) for _ in range(800)]
    literal = sum(request.literal for request in sample)
    assert 60 < literal < 140
    assert {request.kind for request in sample} == {"point", "hop", "agg"}


# -- traced wrappers ---------------------------------------------------------------------

QUERIES = (
    ("cypher", "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.name AS friend"),
    ("cypher", "MATCH (p:Person)-[:Purchases]->(pr:Product) "
               "RETURN pr.name AS product, count(p) AS buyers ORDER BY buyers DESC LIMIT 3"),
    ("gremlin", "g.V().hasLabel('Person').as('p').out('Knows').as('f').count()"),
)


def _answers(service):
    session = service.session()
    answers = []
    for language, text in QUERIES:
        cursor = session.run(text, language=language)
        answers.append((cursor.fetch_all(), cursor.report.explain()))
    return answers


def test_traced_wrappers_leave_results_unchanged_and_restore_originals():
    from repro.datasets import social_commerce_graph
    from repro.optimizer.glogue import Glogue
    from repro.optimizer.planner import GOptimizer
    from repro.service import GraphService

    originals = (GOptimizer.__dict__["optimize"], Glogue.__dict__["from_graph"])
    graph = social_commerce_graph(num_persons=30, num_products=10, num_places=4, seed=1)
    plain = _answers(GraphService(graph))

    tracer = tracing.Tracer()
    tracer.install_query_layers()
    try:
        tracer.set_request(1)
        traced = _answers(GraphService(graph))
        tracer.set_request(0)
    finally:
        tracer.uninstall()

    assert traced == plain
    assert (GOptimizer.__dict__["optimize"], Glogue.__dict__["from_graph"]) == originals
    spans = tracer.aggregate()["spans"]
    assert spans["optimizer.optimize"]["count"] == len(QUERIES)
    assert spans["lang.parse"]["count"] == len(QUERIES)
    assert spans["backend.execute"]["self_s"] > 0
    assert spans["optimizer.glogue_build"]["count"] == 1
    assert tracer.counters["graph.adjacency_calls"] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.set_request(1)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    spans = tracer.aggregate()["spans"]
    outer, inner = spans["outer"], spans["inner"]
    assert outer["self_s"] == pytest.approx(outer["incl"][0] - inner["incl"][0])


def test_spans_outside_requests_are_dropped_except_setup():
    tracer = tracing.Tracer()
    with tracer.span("lang.parse"):
        pass
    with tracer.span("datasets.generate"):
        pass
    assert set(tracer.aggregate()["spans"]) == {"datasets.generate"}


def test_layer_metrics_cover_every_declared_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = [metric["name"] for metric in json.load(handle)["per_layer"]]
    extra = results.work_metrics(results.empty_work(), 0)
    extra.update(results.cache_metrics({"hits": 0, "misses": 0, "evictions": 0},
                                       {"hits": 3, "misses": 1, "evictions": 0}))
    extra.update({"client.errors": 0.0, "admission.rejected": 0.0,
                  "host.probe_ms": 0.4, "trace.overhead_frac": 0.0})
    metrics = tracing.layer_metrics(tracing.Tracer().aggregate(), 0, extra)
    assert set(declared) <= set(metrics)
    assert metrics["plan_cache.hit_rate"] == 0.75
