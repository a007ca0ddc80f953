"""Record the expected answers and baseline plans the benchmark checks against.

Run from the repository root::

    python3 perfbench/record.py

It writes ``perfbench/expected/<workload>.json``: a digest of the row
multiset of every request a workload can send (for ``serve``, every
template and person id), and for ``adhoc`` and ``analytics`` the
``explain()`` text each query is planned with, against which a traced run
counts ``optimizer.plans_changed``.  Re-record only when a change is meant
to alter answers or plans, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import results  # noqa: E402
import workloads  # noqa: E402


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("record: " + message)


def _json_rows(rows):
    """Rows as the serving client sees them after the JSON round trip."""
    return json.loads(json.dumps(rows, default=repr))


def record_inprocess(workload: str) -> dict:
    from repro.service import GraphService

    service = GraphService(workloads.build_graph(workload))
    session = service.session()
    answers, plans = {}, {}
    for entry in workloads.CATALOGS[workload]():
        texts = [workloads.unique_text(entry, workloads.nonce(0, n)) for n in (0, 1)]
        cursors = [session.run(text, language=entry.language) for text in texts]
        runs = [cursor.fetch_all() for cursor in cursors]
        explains = {workloads.normalize(cursor.report.explain()) for cursor in cursors}
        _check(len(explains) == 1, "renaming changed the plan of %s" % entry.name)
        key_columns = None
        limit = workloads.limit_of(entry)
        if limit is not None and runs[0]:
            full = session.run(workloads.without_limit(entry), language=entry.language).fetch_all()
            columns = workloads.sort_key_columns(entry, list(full[0]))
            keys = [tuple(results.row_values(row)[i] for i in columns) for row in full]
            if results.cuts_tie(keys, limit):
                key_columns = columns
        answers[entry.name] = results.expected_entry(runs[0], key_columns)
        _check(results.matches(answers[entry.name], runs[1]),
               "renaming changed the answer of %s" % entry.name)
        plans[entry.name] = explains.pop()
        print("%-8s rows=%-4d %s" % (entry.name, len(runs[0]),
                                     "ties cut" if key_columns else ""))
    return {"answers": answers, "explain": plans}


def record_serve() -> dict:
    from repro.service import GraphService

    service = GraphService(workloads.build_graph("serve"))
    session = service.session()
    answers = {"agg": results.expected_entry(
        _json_rows(session.run(workloads.SERVE_TEMPLATES["agg"]).fetch_all()))}
    for kind in ("point", "hop"):
        for person in range(workloads.SERVE_GRAPH["num_persons"]):
            rows = _json_rows(session.run(workloads.SERVE_TEMPLATES[kind],
                                          parameters={"x": person}).fetch_all())
            literal = _json_rows(session.run(workloads.literal_text(kind, person)).fetch_all())
            entry = results.expected_entry(rows)
            _check(results.matches(entry, literal),
                   "literal and prepared %s/%d disagree" % (kind, person))
            answers["%s/%d" % (kind, person)] = entry
    return {"answers": answers}


def main() -> int:
    out_dir = os.path.join(HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)
    recorded = {"serve": record_serve(),
                "adhoc": record_inprocess("adhoc"),
                "analytics": record_inprocess("analytics")}
    for workload, payload in recorded.items():
        with open(os.path.join(out_dir, workload + ".json"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
