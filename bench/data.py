"""Seeded catalog data and the four workloads' statement lists.

Everything here is a pure function of ``--seed``: two runs with the same
seed load byte-identical rows and issue byte-identical statements.  The
system under test only ever sees the generated rows and SQL text.

The catalog ``biblio`` is BMLibrarian-shaped: schema ``lib`` holds the
in-process ``MemoryTable``s, schema ``ev`` is a ``JdbcSchema`` over
``MiniDb`` holding ``evaluations``.  ``TABLES`` is the single schema
description both the engine catalog and the sqlite referee are built from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: qualified table name -> [(column, kind)], kind in {"int", "text", "real"}
TABLES: Dict[str, List[Tuple[str, str]]] = {
    "lib.document": [("id", "int"), ("title", "text"), ("pub_year", "int"),
                     ("category_id", "int"), ("abstract_length", "int")],
    "lib.chunks": [("id", "int"), ("document_id", "int"), ("chunk_no", "int"),
                   ("chunklength", "int"), ("chunktype_id", "int")],
    "lib.users": [("id", "int"), ("username", "text")],
    "lib.projects": [("id", "int"), ("title", "text"), ("manager_id", "int")],
    "lib.evaluators": [("id", "int"), ("name", "text"), ("user_id", "int")],
    "ev.evaluations": [("chunk_id", "int"), ("document_id", "int"),
                       ("evaluator_id", "int"), ("project_id", "int"),
                       ("rating", "int"), ("confidence_level", "real")],
}

CHUNKS_PER_DOC = 4
USERS, PROJECTS, EVALUATORS, CATEGORIES = 50, 40, 10, 8

#: scale name -> (documents, evaluations).  MiniDb costs ~14 us/row, so a
#: larger ``ev`` would turn every federated number into a MiniDb number.
SCALES = {"small": (500, 4_000), "large": (25_000, 20_000)}


def generate(scale: str, seed: int) -> Dict[str, List[tuple]]:
    """The catalog's rows at ``scale``, keyed like ``TABLES``."""
    n_docs, n_evals = SCALES[scale]
    rng = random.Random(f"{seed}:data:{scale}")
    documents = [(i, f"paper {i}", 1990 + rng.randrange(35),
                  rng.randrange(CATEGORIES), rng.randrange(200, 4200))
                 for i in range(1, n_docs + 1)]
    chunks = [(4 * (d - 1) + no + 1, d, no, rng.randrange(100, 2100),
               rng.randrange(6))
              for d in range(1, n_docs + 1) for no in range(CHUNKS_PER_DOC)]
    # (chunk, evaluator) pairs are sampled without replacement so that
    # ORDER BY chunk_id, evaluator_id is a total order (window frames and
    # LIMIT prefixes are then engine-independent).  confidence_level is a
    # multiple of 1/256: sums are exact in binary floating point whatever
    # the summation order, so AVG agrees bit for bit with the referee.
    evaluations = []
    for pair in rng.sample(range(len(chunks) * EVALUATORS), n_evals):
        chunk_idx, evaluator = divmod(pair, EVALUATORS)
        chunk = chunks[chunk_idx]
        confidence = None if rng.random() < 0.1 else rng.randrange(257) / 256
        evaluations.append((chunk[0], chunk[1], evaluator + 1,
                            1 + rng.randrange(PROJECTS),
                            1 + rng.randrange(5), confidence))
    return {
        "lib.document": documents,
        "lib.chunks": chunks,
        "lib.users": [(i, f"user{i}") for i in range(1, USERS + 1)],
        "lib.projects": [(i, f"project {i}", 1 + rng.randrange(USERS))
                         for i in range(1, PROJECTS + 1)],
        "lib.evaluators": [(i, f"evaluator {i}", 1 + rng.randrange(USERS))
                           for i in range(1, EVALUATORS + 1)],
        "ev.evaluations": evaluations,
    }


def build_catalog(tables: Dict[str, List[tuple]]):
    """Load the rows into a fresh engine catalog (timed as set-up)."""
    from repro import Catalog, MemoryTable, Schema
    from repro.adapters.jdbc import JdbcSchema, MiniDb
    from repro.core.types import DEFAULT_TYPE_FACTORY as F

    kinds = {"int": lambda: F.integer(False), "text": F.varchar,
             "real": F.double}
    catalog = Catalog()
    lib = Schema("lib")
    catalog.add_schema(lib)
    ev = JdbcSchema("ev", MiniDb("ev"))
    catalog.add_schema(ev)
    for qualified, columns in TABLES.items():
        schema, name = qualified.split(".")
        names = [c for c, _ in columns]
        types = [kinds[k]() for _, k in columns]
        if schema == "lib":
            lib.add_table(MemoryTable(name, names, types, tables[qualified]))
        else:
            ev.add_jdbc_table(name, names, types, tables[qualified])
    return catalog


@dataclass(frozen=True)
class Statement:
    template: str
    sql: str
    params: Tuple[Any, ...] = ()
    #: ORDER BY ... LIMIT: the referee compares the ordered rows
    ordered: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: str
    #: keyword arguments of ``QueryServer(...)`` besides the 30 s timeout
    server_options: Dict[str, Any]
    clients: int
    #: percentile reported as ``tail_ms``
    tail_pct: int
    #: statements covered by a ``--trace`` run (whole cycles)
    trace_statements: int
    #: (seed, client, cycle index) -> the statements of one cycle, in order
    cycle: Callable[[int, int, int], List[Statement]]
    #: seed -> every distinct statement, planned during set-up so the
    #: measured ones hit the plan cache; absent when they are meant to miss
    pool: Callable[[int], List[Statement]] = field(default=lambda seed: [])
    #: prepare each template once per client and re-execute with ``?``
    prepared: bool = False
    #: page size for ``fetchmany``; 0 means ``fetchall``
    page: int = 0


# -- serve_cached -----------------------------------------------------------

_DOC_BY_ID = "SELECT id, title, pub_year FROM lib.document WHERE id = ?"
_PROJECT_MANAGER = ("SELECT p.title, u.username FROM lib.projects p "
                    "JOIN lib.users u ON p.manager_id = u.id WHERE p.id = ?")
_CHUNK_COUNT = "SELECT COUNT(*) AS n FROM lib.chunks WHERE document_id = ?"
_TOP_CHUNKS = ("SELECT id, chunklength FROM lib.chunks WHERE document_id = ? "
               "ORDER BY chunklength DESC, id LIMIT 3")


def _serve_cycle(seed: int, client: int, index: int) -> List[Statement]:
    rng = random.Random(f"{seed}:serve_cached:{client}:{index}")
    n_docs = SCALES["small"][0]

    def doc_by_id() -> Statement:
        return Statement("doc_by_id", _DOC_BY_ID, (1 + rng.randrange(n_docs),))

    def project_manager() -> Statement:
        return Statement("project_manager", _PROJECT_MANAGER,
                         (1 + rng.randrange(PROJECTS),))

    # Lookups by key are most of a catalog's traffic.  With two clients
    # taking turns on the GIL, a statement either finishes within its
    # thread's 5 ms slice or waits out the other thread's; the 3 : 3 : 2
    # mix puts the median in the middle of the ``doc_by_id`` statements
    # that finished within their slice (ranks ~36-63 %) and the 99th
    # percentile among the scans of ``chunks`` that never do.
    return [
        doc_by_id(),
        project_manager(),
        Statement("chunk_count", _CHUNK_COUNT, (1 + rng.randrange(n_docs),)),
        doc_by_id(),
        project_manager(),
        Statement("top_chunks", _TOP_CHUNKS, (1 + rng.randrange(n_docs),),
                  ordered=True),
        doc_by_id(),
        project_manager(),
    ]


# -- adhoc_cold -------------------------------------------------------------

def _adhoc_cycle(seed: int, client: int, index: int) -> List[Statement]:
    # ``u`` is unique per (client, cycle), so every statement's normalized
    # text is distinct: numbers survive ``normalize_sql``.  The literals
    # move selectivity by a few percent at most, so cycles cost the same.
    rng = random.Random(f"{seed}:adhoc_cold:{client}:{index}")
    u = 2 * index + client  # unique while clients <= 2
    return [
        Statement("filter_scan",
                  f"SELECT id, pub_year FROM lib.document "
                  f"WHERE abstract_length > {1000 + u} "
                  f"AND category_id = {rng.randrange(CATEGORIES)}"),
        Statement("filter_agg",
                  f"SELECT category_id, COUNT(*) AS n, "
                  f"AVG(abstract_length) AS a FROM lib.document "
                  f"WHERE abstract_length > {600 + u} GROUP BY category_id"),
        Statement("join_agg",
                  f"SELECT d.category_id, COUNT(*) AS n, "
                  f"SUM(c.chunklength) AS s FROM lib.chunks c "
                  f"JOIN lib.document d ON c.document_id = d.id "
                  f"WHERE c.chunklength > {200 + u} GROUP BY d.category_id"),
        Statement("federated_join_agg",
                  f"SELECT p.manager_id, COUNT(*) AS n, AVG(e.rating) AS r "
                  f"FROM ev.evaluations e "
                  f"JOIN lib.projects p ON e.project_id = p.id "
                  f"WHERE e.chunk_id > {u} GROUP BY p.manager_id"),
        Statement("jdbc_window",
                  f"SELECT e.chunk_id, e.evaluator_id, SUM(e.rating) OVER "
                  f"(PARTITION BY e.project_id "
                  f"ORDER BY e.chunk_id, e.evaluator_id) AS rs "
                  f"FROM ev.evaluations e "
                  f"WHERE e.evaluator_id = {1 + rng.randrange(EVALUATORS)} "
                  f"AND e.chunk_id > {u}"),
        Statement("union",
                  f"SELECT id FROM lib.document "
                  f"WHERE pub_year = {1990 + rng.randrange(35)} "
                  f"UNION SELECT document_id FROM lib.chunks "
                  f"WHERE chunklength > {1700 + u}"),
        Statement("join_order_limit",
                  f"SELECT c.id, d.title, c.chunklength FROM lib.chunks c "
                  f"JOIN lib.document d ON c.document_id = d.id "
                  f"ORDER BY c.chunklength DESC, c.id "
                  f"LIMIT {5 + u % 20} OFFSET {u}", ordered=True),
    ]


# -- analytic_scan / federated_parallel ---------------------------------------

#: literal variants per template; every one is planned during set-up
VARIANTS = 2


def _shared(seed: int, variant: int) -> Tuple[Statement, Statement]:
    """The window and the join that ``analytic_scan`` and
    ``federated_parallel`` both run, with the same literals in both."""
    rng = random.Random(f"{seed}:shared:{variant}")
    window = Statement(
        "chunk_running_sum",
        f"SELECT id, document_id, SUM(chunklength) OVER "
        f"(PARTITION BY document_id ORDER BY chunk_no) AS running "
        f"FROM lib.chunks WHERE chunklength > {280 + rng.randrange(20)}")
    join = Statement(
        "chunks_join_document",
        f"SELECT d.category_id, COUNT(*) AS n, SUM(c.chunklength) AS s "
        f"FROM lib.chunks c JOIN lib.document d ON c.document_id = d.id "
        f"WHERE d.pub_year > {1992 + rng.randrange(2)} "
        f"GROUP BY d.category_id")
    return window, join


def _analytic_pool(seed: int) -> List[Statement]:
    out = []
    for variant in range(VARIANTS):
        rng = random.Random(f"{seed}:analytic_scan:{variant}")
        window, join = _shared(seed, variant)
        t = 400 + rng.randrange(40)
        out += [
            Statement("filter_agg",
                      f"SELECT chunktype_id, COUNT(*) AS n, "
                      f"AVG(chunklength) AS a FROM lib.chunks "
                      f"WHERE chunklength > {t} GROUP BY chunktype_id"),
            join,
            window,
            Statement("distinct_union",
                      f"SELECT DISTINCT pub_year, category_id "
                      f"FROM lib.document WHERE abstract_length > {t + 600} "
                      f"UNION SELECT chunklength, chunktype_id "
                      f"FROM lib.chunks WHERE chunk_no = {rng.randrange(4)}"),
        ]
    return out


def _federated_pool(seed: int) -> List[Statement]:
    out = []
    for variant in range(VARIANTS):
        rng = random.Random(f"{seed}:federated_parallel:{variant}")
        window, join = _shared(seed, variant)
        floor = 1 + rng.randrange(400)
        out += [
            # predicates pushed into jdbc are literals, never ``?`` (README,
            # known gaps)
            Statement("evaluations_by_manager",
                      f"SELECT p.manager_id, COUNT(*) AS n, "
                      f"AVG(e.confidence_level) AS c "
                      f"FROM ev.evaluations e "
                      f"JOIN lib.projects p ON e.project_id = p.id "
                      f"WHERE e.chunk_id > {floor} GROUP BY p.manager_id"),
            Statement("evaluations_by_document",
                      f"SELECT e.document_id, COUNT(*) AS n, "
                      f"MAX(d.pub_year) AS y FROM ev.evaluations e "
                      f"JOIN lib.document d ON e.document_id = d.id "
                      f"WHERE e.chunk_id > {floor} GROUP BY e.document_id"),
            window,
            join,
        ]
    return out


def _pooled_cycle(pool: Callable[[int], List[Statement]], *extra: str):
    """One variant's four templates, then the templates named in ``extra``
    taken from the following variants.  The extras weight the mix so that
    the median and the 90th percentile fall inside one template's own
    latencies; with the four templates alone both fall in the gap between
    two templates, where one sample more or less moves them by the gap."""
    def cycle(seed: int, client: int, index: int) -> List[Statement]:
        statements = pool(seed)
        size = len(statements) // VARIANTS
        variants = [statements[size * v: size * (v + 1)]
                    for v in range(VARIANTS)]
        out = list(variants[index % VARIANTS])
        for k, template in enumerate(extra, start=1):
            out += [s for s in variants[(index + k) % VARIANTS]
                    if s.template == template]
        return out
    return cycle


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="serve_cached",
        why=("Prepared lookups re-executed with bound values: plans reused "
             "~100 %, 1-3 rows out, so cursor, admission, bind and the default "
             "engine's small scans do the work and the planner none. "
             "tail_pct=99"),
        scale="small", server_options={}, clients=2, tail_pct=99,
        trace_statements=40, cycle=_serve_cycle,
        pool=lambda seed: _serve_cycle(seed, 0, 0), prepared=True),
    Workload(
        name="adhoc_cold",
        why=("Literal-bearing SQL, every normalized text distinct and more "
             "of them than plan-cache entries: every op misses, so sql.*, "
             "core.hep, core.volcano and eviction dominate. tail_pct=90"),
        scale="small",
        # 32, not the default 128: a 25 s run issues ~140 statements and a
        # traced run 42, and both must overflow the cache to evict.
        server_options={"engine": "vectorized", "plan_cache_size": 32},
        # One client: two would only take turns on the GIL, and the turn
        # taking makes the median latency of ~20 cold statements unsteady.
        clients=1, tail_pct=90, trace_statements=42, cycle=_adhoc_cycle),
    Workload(
        name="analytic_scan",
        why=("Cached plans over 100 k-row memory tables, serial: "
             "runtime/vectorized operators, expr kernels and the paged fetch "
             "path do the work; planner and scheduler none. tail_pct=90"),
        scale="large",
        server_options={"engine": "vectorized", "parallelism": 1},
        clients=1, tail_pct=90, trace_statements=21,
        # cost classes 2 : 3 : 2 — two cheap scans, three joins, two windows
        cycle=_pooled_cycle(_analytic_pool, "chunks_join_document",
                            "chunks_join_document", "chunk_running_sum"),
        pool=_analytic_pool, page=1024),
    Workload(
        name="federated_parallel",
        why=("jdbc-with-memory joins and partitioned windows at "
             "parallelism=2 on process workers: parallel_rules, the exchange "
             "schedulers, wire and jdbc shard scans do the work. tail_pct=90"),
        scale="large",
        server_options={"engine": "vectorized", "parallelism": 2,
                        "workers": "auto"},
        clients=1, tail_pct=90, trace_statements=20,
        cycle=_pooled_cycle(_federated_pool, "chunk_running_sum"),
        pool=_federated_pool, page=1024),
]}
