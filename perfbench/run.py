"""The repository's benchmark: ``serve``, ``adhoc`` and ``analytics``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports its per-layer
metrics.  Every answer is checked against ``perfbench/expected/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record, with raw timings beside the corrected ones, sample counts, the
host probe and failures by type.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("serve", "adhoc", "analytics")


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, config: dict) -> dict:
    import inproc
    import serve

    expected = load_json(os.path.join(HERE, "expected", workload + ".json"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (workload, seed))
    if workload == "serve":
        outcome = serve.run(seed, seconds, trace, config, expected, spans_path)
    else:
        outcome = inproc.run(workload, seed, seconds, trace, config, expected, spans_path)
    if trace:
        import tracing

        aggregate, requests, extra = outcome.pop("layers")
        values = tracing.layer_metrics(aggregate, requests, extra)
        declared = spec["per_layer"]
        outcome["requests_traced"] = requests
    else:
        values = outcome["metrics"]
        declared = spec["end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        raise SystemExit("perfbench: no value for %s" % ", ".join(missing))
    outcome["metrics"] = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                          for metric in declared}
    outcome["correct"] = not outcome["violations"] and "mismatch" not in outcome["failures"]
    return outcome


def print_table(workload: str, outcome: dict) -> None:
    samples = outcome.get("samples", {})
    for name, metric in outcome["metrics"].items():
        note = ""
        if name.startswith("latency"):
            note = "n=%d" % samples.get("latency", 0)
            if name == "latency_tail_ms":
                note += " p%g, %d beyond" % (samples["tail_percentile"], samples["beyond_tail"])
        elif name == "setup_s":
            note = "median of %d set-ups" % samples.get("setups", 0)
        print("%-10s %-34s %14.4f %-9s %s" % (workload, name, metric["value"], metric["unit"], note))
    if outcome["failures"]:
        print("%-10s failures by type: %s" % (workload, json.dumps(outcome["failures"])))
    if outcome["violations"]:
        print("%-10s threads alive during a probe: %s" % (workload, outcome["violations"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(root, "src"))
    spec = load_json(os.path.join(root, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec, config)
    print_table(args.workload, outcome)
    print(json.dumps({"record": dict(outcome, workload=args.workload, seed=args.seed,
                                     seconds=args.seconds, trace=args.trace)}))
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so that each ``peak_rss_mb``
    belongs to its workload alone; the metrics are named ``workload/metric``."""
    import subprocess

    summaries = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout, end="")
            print("perfbench: %s exited with code %d" % (workload, child.returncode),
                  file=sys.stderr)
            return child.returncode or 1
        for line in lines[:-1]:
            print(line)
        summaries[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(summary["correct"] for summary in summaries.values()),
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": {"%s/%s" % (workload, name): metric
                    for workload, summary in summaries.items()
                    for name, metric in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
