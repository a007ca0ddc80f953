"""What each workload sends: query catalogs, seeded request sequences, graphs.

The benchmark derives every input from ``--seed``; the program receives
only the generated requests.
"""

from __future__ import annotations

import random
import re
from typing import Iterator, List, NamedTuple, Optional, Tuple

#: the graph ``benchmarks/run_serving_bench.py`` serves
SERVE_GRAPH = {"num_persons": 300, "num_products": 80, "num_places": 15, "seed": 9}

#: the serving bench's prepared ``$param`` templates
SERVE_TEMPLATES = {
    "point": "MATCH (p:Person) WHERE p.id = $x RETURN p.name AS name",
    "hop": ("MATCH (p:Person)-[:Knows]->(f:Person) WHERE p.id = $x "
            "RETURN f.name AS friend"),
    "agg": ("MATCH (p:Person)-[:Purchases]->(pr:Product) "
            "RETURN pr.name AS product, count(p) AS buyers"),
}
#: point : hop : agg = 4 : 2 : 1
SERVE_MIX = ("point",) * 4 + ("hop",) * 2 + ("agg",)
#: one request in this many is literal text, which the plan cache keys per id
LITERAL_EVERY = 8


class ServeRequest(NamedTuple):
    kind: str
    person: Optional[int]
    literal: bool

    @property
    def key(self) -> str:
        """Expected-answer key; a literal and a prepared request with one id
        must return the same rows."""
        return self.kind if self.person is None else "%s/%d" % (self.kind, self.person)


def serve_requests(seed: int, client: int) -> Iterator[ServeRequest]:
    rng = random.Random("serve/%d/%d" % (seed, client))
    persons = SERVE_GRAPH["num_persons"]
    while True:
        if rng.randrange(LITERAL_EVERY) == 0:
            yield ServeRequest(rng.choice(("point", "hop")), rng.randrange(persons), True)
            continue
        kind = rng.choice(SERVE_MIX)
        yield ServeRequest(kind, None if kind == "agg" else rng.randrange(persons), False)


def literal_text(kind: str, person: int) -> str:
    return SERVE_TEMPLATES[kind].replace("$x", str(person))


# -- in-process workloads ----------------------------------------------------------

class CatalogEntry(NamedTuple):
    name: str
    language: str
    text: str


def adhoc_catalog() -> List[CatalogEntry]:
    """IC1-12, BI, QR1-8 and QC1a-4b in Cypher plus the 11 Gremlin forms."""
    from repro.workloads.ldbc_queries import bi_queries, ic_queries
    from repro.workloads.micro_queries import qc_queries, qr_queries

    entries = []
    for query_set in (ic_queries(), bi_queries(), qr_queries(), qc_queries()):
        for query in query_set:
            entries.append(CatalogEntry(query.name, "cypher", query.cypher))
            if query.gremlin:
                entries.append(CatalogEntry("g-" + query.name, "gremlin", query.gremlin))
    return entries


def analytics_catalog() -> List[CatalogEntry]:
    """IC1-12 plus BI: the paper's end-to-end LDBC set.  QC stays out: QC3b
    at G300 exceeds the default intermediate-row budget."""
    from repro.workloads.ldbc_queries import ldbc_queries

    return [CatalogEntry(query.name, "cypher", query.cypher) for query in ldbc_queries()]


CATALOGS = {"adhoc": adhoc_catalog, "analytics": analytics_catalog}
SCALES = {"adhoc": "G30", "analytics": "G300"}


def passes(catalog: List[CatalogEntry], seed: int) -> Iterator[Tuple[bool, CatalogEntry]]:
    """Whole passes over the catalog, each in its own seeded order; yields
    ``(last_of_pass, entry)``."""
    rng = random.Random("passes/%d" % seed)
    while True:
        order = list(catalog)
        rng.shuffle(order)
        for index, entry in enumerate(order):
            yield index == len(order) - 1, entry


#: the suffix :func:`unique_text` appends; :func:`normalize` removes it
_NONCE = re.compile(r"_s\d+r\d+")


def unique_text(entry: CatalogEntry, nonce: str) -> str:
    """The entry's text with one name renamed, so that no two requests share
    a plan-cache key.  Cypher renames the last RETURN alias (and its ORDER BY
    uses); Gremlin renames the first step label everywhere it is quoted."""
    if entry.language == "gremlin":
        label = re.search(r"\.as\('(\w+)'\)", entry.text).group(1)
        return entry.text.replace("'%s'" % label, "'%s%s'" % (label, nonce))
    alias = re.findall(r"\bAS\s+(\w+)", entry.text)[-1]
    text = re.sub(r"\bAS\s+%s\b" % alias, "AS " + alias + nonce, entry.text)
    head, sep, order_by = text.partition("ORDER BY")
    return head + sep + re.sub(r"\b%s\b" % alias, alias + nonce, order_by)


def nonce(seed: int, request: int) -> str:
    return "_s%dr%d" % (seed, request)


def normalize(text: str) -> str:
    return _NONCE.sub("", text)


def build_graph(workload: str):
    """The workload's data graph (the first step of every set-up)."""
    if workload == "serve":
        from repro.datasets import social_commerce_graph

        return social_commerce_graph(**SERVE_GRAPH)
    from repro.datasets import ldbc_snb_graph

    return ldbc_snb_graph(SCALES[workload])


def sort_key_columns(entry: CatalogEntry, columns: List[str]) -> Optional[List[int]]:
    """Result positions of the ORDER BY keys, or None without ORDER BY."""
    if entry.language == "gremlin":
        return [columns.index("count")] if ".order()" in entry.text else None
    _, sep, order_by = entry.text.partition("ORDER BY")
    if not sep:
        return None
    order_by = re.split(r"\bLIMIT\b", order_by)[0]
    keys = [re.sub(r"\s+(ASC|DESC)$", "", key.strip()) for key in order_by.split(",")]
    return [columns.index(key) for key in keys]


def limit_of(entry: CatalogEntry) -> Optional[int]:
    pattern = r"\.limit\((\d+)\)" if entry.language == "gremlin" else r"\bLIMIT\s+(\d+)"
    match = re.search(pattern, entry.text)
    return int(match.group(1)) if match else None


def without_limit(entry: CatalogEntry) -> str:
    pattern = r"\.limit\(\d+\)" if entry.language == "gremlin" else r"\bLIMIT\s+\d+"
    return re.sub(pattern, "", entry.text)

