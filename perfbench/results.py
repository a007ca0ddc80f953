"""Answer digests and the statistics a run reports."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


# -- expected answers ------------------------------------------------------------

def canonical_row(values: Sequence[object]) -> str:
    """A row as text that is equal in-process and after a JSON round trip."""
    return json.dumps(list(values), sort_keys=True, default=repr)


def row_values(row: Dict[str, object]) -> List[object]:
    """Column values in result order; names are ignored because the benchmark
    renames aliases to make each request text unique."""
    return list(row.values())


def multiset_digest(rows: Iterable[Sequence[object]]) -> str:
    lines = sorted(canonical_row(values) for values in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:24]


def expected_entry(rows: List[Dict[str, object]],
                   key_columns: Optional[List[int]] = None) -> Dict[str, object]:
    """The checked-in answer for one request.

    ``key_columns`` is given when the query's ORDER BY ... LIMIT cuts through
    a tie: another correct plan may then return other rows of equal sort key,
    so only the sort-key columns are compared.
    """
    values = [row_values(row) for row in rows]
    entry: Dict[str, object] = {"rows": len(values)}
    if key_columns is None:
        entry["digest"] = multiset_digest(values)
    else:
        entry["key_columns"] = list(key_columns)
        entry["key_digest"] = multiset_digest(
            [[row[i] for i in key_columns] for row in values])
    return entry


def matches(entry: Dict[str, object], rows: List[Dict[str, object]]) -> bool:
    values = [row_values(row) for row in rows]
    if len(values) != entry["rows"]:
        return False
    if "key_columns" in entry:
        columns = entry["key_columns"]
        return multiset_digest([[row[i] for i in columns]
                                for row in values]) == entry["key_digest"]
    return multiset_digest(values) == entry["digest"]


def cuts_tie(sorted_keys: Sequence[Tuple], limit: int) -> bool:
    """Whether keeping the first ``limit`` of the fully sorted keys splits
    rows that share a sort key."""
    return 0 < limit < len(sorted_keys) and sorted_keys[limit - 1] == sorted_keys[limit]


# -- statistics --------------------------------------------------------------------

def tail(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile of a sorted sample and the count beyond it.

    The percentile is fixed per workload, never derived from the sample
    count, so two commits always report the same percentile.
    """
    if not sorted_values:
        return 0.0, 0
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tally:
    """Requests attempted and their failures by type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.failures[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)


# -- run summaries -------------------------------------------------------------------

def end_to_end(latencies_s: List[float], succeeded: int, measured_s: float,
               setups_s: List[float], rss_mb: float, attempted: int,
               percentile: float) -> Dict[str, float]:
    ordered = sorted(latencies_s)
    tail_s, _ = tail(ordered, percentile)
    return {
        "throughput_qps": succeeded / measured_s if measured_s else 0.0,
        "latency_p50_ms": median(ordered) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "success_frac": succeeded / attempted if attempted else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": median(setups_s),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_summary(bench, percentile: float) -> Dict[str, object]:
    """End-to-end metrics of an in-process run, corrected, with the raw
    values and sample counts beside them."""
    tally = bench.tally
    rss = peak_rss_mb()
    timings = bench.corrected()
    corrected = end_to_end(timings["latencies"], tally.succeeded, sum(timings["latencies"]),
                           timings["setups"], rss, tally.attempted, percentile)
    raw = end_to_end(timings["raw_latencies"], tally.succeeded, sum(timings["raw_latencies"]),
                     timings["raw_setups"], rss, tally.attempted, percentile)
    return {
        "metrics": corrected,
        "raw": {name: raw[name] for name in ("throughput_qps", "latency_p50_ms",
                                             "latency_tail_ms", "setup_s")},
        "samples": sample_counts(timings["latencies"], percentile, len(timings["setups"])),
        "setups": {"s": timings["setups"], "raw_s": timings["raw_setups"]},
        "host_probe_ms": bench.clock.median_probe_ms(),
        "probes": len(bench.clock.samples),
        "violations": bench.clock.violations,
        "failures": dict(tally.failures + bench.warm_failures.failures),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def sample_counts(latencies: List[float], percentile: float, setups: int) -> Dict[str, float]:
    _, beyond = tail(sorted(latencies), percentile)
    return {"latency": len(latencies), "tail_percentile": percentile,
            "beyond_tail": beyond, "setups": setups}


def empty_work() -> Dict[str, float]:
    """Sums of the program's work counters over measured requests."""
    return {"rows": 0, "vertices_scanned": 0, "edges_traversed": 0,
            "intermediate_results": 0, "peak_held_rows": 0, "plans_changed": 0}


def work_metrics(work: Dict[str, float], timed_out: int) -> Dict[str, float]:
    """The per-layer backend metrics from the program's exact work counters."""
    rows = max(work["rows"], 1)
    return {
        "backend.vertices_scanned_per_row": work["vertices_scanned"] / rows,
        "backend.edges_traversed_per_row": work["edges_traversed"] / rows,
        "backend.intermediate_per_row": work["intermediate_results"] / rows,
        "backend.peak_held_rows": float(work["peak_held_rows"]),
        "backend.timed_out": float(timed_out),
        "optimizer.plans_changed": float(work["plans_changed"]),
    }


def cache_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Plan-cache hit rate and evictions between two ``PlanCacheInfo.to_dict()``
    snapshots."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {"plan_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "plan_cache.evictions": float(after["evictions"] - before["evictions"])}


def overhead(plain: Dict[str, float], traced: Dict[str, float]) -> float:
    """Tracing overhead: untraced throughput over traced throughput, minus 1."""
    plain_rate = plain["requests"] / plain["seconds"]
    traced_rate = traced["requests"] / traced["seconds"]
    return plain_rate / traced_rate - 1.0
