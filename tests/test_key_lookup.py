"""Keyed access paths: ``Filter($k = literal|?)`` over a memory table.

The row engine plans such a filter as a hash-index lookup
(``EnumerableTableScan(..., lookup=[$k = v])``); the vectorized engine
does not register the rule and still scans, so it is the oracle here.
Every case checks that the row plan really uses the lookup, then that
both engines return the same bag of rows.  Values are compared by
``repr`` so NaN cells compare equal to themselves.

The second half pins the access path itself: the shapes the committed
benchmark serves (``serve_cached`` in bench/data.py) read only the rows
their lookup returns.
"""

import sys
import threading

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner

NAN = float("nan")


def _rows(n=200):
    """NULL-heavy ``grp``, a few NaN ``score`` cells, repeated names."""
    return [(i,
             None if i % 3 == 0 else i % 7,
             None if i % 5 == 0 else f"n{i % 11}",
             NAN if i % 13 == 0 else (None if i % 4 == 0 else (i % 9) * 0.5))
            for i in range(n)]


def build_catalog() -> Catalog:
    catalog = Catalog()
    k = Schema("k")
    catalog.add_schema(k)
    k.add_table(MemoryTable(
        "t", ["id", "grp", "name", "score"],
        [F.integer(False), F.integer(), F.varchar(), F.double()], _rows()))
    return catalog


def _planners(catalog):
    return (Planner(FrameworkConfig(catalog)),
            Planner(FrameworkConfig(catalog, engine="vectorized")))


def _bag(rows):
    return sorted(map(repr, rows))


_PLANNERS = {}


def _shared_planners():
    if not _PLANNERS:
        _PLANNERS["pair"] = _planners(build_catalog())
    return _PLANNERS["pair"]


#: (case id, SQL, parameters, expected lookup digest)
CASES = [
    ("int_literal", "SELECT id, name FROM k.t WHERE id = 17", (), "$0 = 17"),
    ("int_param", "SELECT id, name FROM k.t WHERE id = ?", (17,), "$0 = ?0"),
    ("int_literal_left", "SELECT id, name FROM k.t WHERE 17 = id", (),
     "$0 = 17"),
    ("int_param_left", "SELECT id, name FROM k.t WHERE ? = grp", (4,),
     "$1 = ?0"),
    ("varchar_literal", "SELECT id FROM k.t WHERE name = 'n3'", (),
     "$2 = 'n3'"),
    ("varchar_param", "SELECT id FROM k.t WHERE name = ?", ("n3",),
     "$2 = ?0"),
    ("double_literal", "SELECT id, score FROM k.t WHERE score = 1.5", (),
     "$3 = 1.5"),
    ("double_param", "SELECT id, score FROM k.t WHERE score = ?", (1.5,),
     "$3 = ?0"),
    ("float_param_int_column", "SELECT id FROM k.t WHERE grp = ?", (5.0,),
     "$1 = ?0"),
    ("missing_key", "SELECT id FROM k.t WHERE id = ?", (10_000,), "$0 = ?0"),
    ("null_param", "SELECT id FROM k.t WHERE grp = ?", (None,), "$1 = ?0"),
    ("nan_param", "SELECT id FROM k.t WHERE score = ?", (NAN,), "$3 = ?0"),
    ("null_heavy_column", "SELECT id, name FROM k.t WHERE grp = 2", (),
     "$1 = 2"),
    ("two_equalities_and_range",
     "SELECT id FROM k.t WHERE grp = 3 AND name = 'n5' AND id > 20", (),
     "$1 = 3"),
    ("two_equalities_and_range_params",
     "SELECT id FROM k.t WHERE grp = ? AND name = ? AND id > ?",
     (3, "n5", 20), "$1 = ?0"),
]


@pytest.mark.parametrize(
    "sql,params,digest",
    [pytest.param(sql, params, digest, id=case_id)
     for case_id, sql, params, digest in CASES])
def test_lookup_agrees_with_vectorized_scan(sql, params, digest):
    row_planner, vec_planner = _shared_planners()
    row_prepared = row_planner.prepare(sql)
    assert f"lookup=[{digest}]" in row_prepared.plan.explain()
    assert "lookup" not in vec_planner.prepare(sql).plan.explain()
    row_result = row_planner.execute_plan(row_prepared, list(params))
    vec_result = vec_planner.execute(sql, list(params))
    assert row_result.columns == vec_result.columns
    assert _bag(row_result.rows) == _bag(vec_result.rows)


def test_residual_conjuncts_stay_in_a_filter():
    row_planner, _ = _shared_planners()
    plan = row_planner.prepare(
        "SELECT id FROM k.t WHERE grp = ? AND name = ? AND id > ?").plan
    text = plan.explain()
    assert "lookup=[$1 = ?0]" in text
    assert "EnumerableFilter(condition=[AND(=($2, ?1), >($0, ?2))])" in text


def test_insert_after_index_is_built():
    """``insert`` drops the index: a re-executed prepared lookup sees
    the new row, and so does a cached plan."""
    catalog = build_catalog()
    row_planner, vec_planner = _planners(catalog)
    table = catalog.find_table(["k", "t"])[0]
    sql = "SELECT id, name FROM k.t WHERE grp = ?"
    prepared = row_planner.prepare(sql)
    before = row_planner.execute_plan(prepared, [2]).rows
    table.insert((1000, 2, "late", 0.0))
    table.insert_many([(1001, 2, None, None), (1002, 6, "other", None)])
    after = row_planner.execute_plan(prepared, [2]).rows
    assert len(after) == len(before) + 2
    assert (1000, "late") in after and (1001, None) in after
    assert _bag(after) == _bag(vec_planner.execute(sql, [2]).rows)
    assert _bag(row_planner.execute(sql, [6]).rows) == \
        _bag(vec_planner.execute(sql, [6]).rows)


def test_threads_share_one_prepared_lookup():
    """Four threads re-execute one prepared plan with their own
    bindings, starting before any index exists, so they also race to
    build it: the key is read per execution, never baked in, and a
    concurrently built index is complete."""
    row_planner, vec_planner = _planners(build_catalog())
    sql = "SELECT id, grp FROM k.t WHERE grp = ?"
    prepared = row_planner.prepare(sql)
    keys = [None, 0, 1, 2, 3, 4, 5, 6, 7, 2.0]
    expected = {repr(k): _bag(vec_planner.execute(sql, [k]).rows)
                for k in keys}
    errors = []

    def worker(offset):
        try:
            for n in range(60):
                key = keys[(offset + n) % len(keys)]
                got = row_planner.execute_plan(prepared, [key]).rows
                if _bag(got) != expected[repr(key)]:
                    errors.append((key, got))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# -- the access path ----------------------------------------------------------


def build_biblio() -> Catalog:
    """500 documents, 2 000 chunks, 50 users, 40 projects: the shape and
    size of the benchmark's small ``lib`` schema."""
    catalog = Catalog()
    lib = Schema("lib")
    catalog.add_schema(lib)
    lib.add_table(MemoryTable(
        "document", ["id", "title", "pub_year"],
        [F.integer(False), F.varchar(), F.integer(False)],
        [(i, f"paper {i}", 1990 + i % 35) for i in range(1, 501)]))
    lib.add_table(MemoryTable(
        "chunks", ["id", "document_id", "chunk_no", "chunklength"],
        [F.integer(False)] * 4,
        [(4 * (d - 1) + no + 1, d, no, 100 + (7 * d + 13 * no) % 2000)
         for d in range(1, 501) for no in range(4)]))
    lib.add_table(MemoryTable(
        "users", ["id", "username"], [F.integer(False), F.varchar()],
        [(i, f"user{i}") for i in range(1, 51)]))
    lib.add_table(MemoryTable(
        "projects", ["id", "title", "manager_id"],
        [F.integer(False), F.varchar(), F.integer(False)],
        [(i, f"project {i}", 1 + (3 * i) % 50) for i in range(1, 41)]))
    return catalog


#: (template, SQL, key, rows scanned: the rows the lookup returns)
SERVED = [
    ("doc_by_id",
     "SELECT id, title, pub_year FROM lib.document WHERE id = ?", 321, 1),
    # The users side is still a full scan: index nested-loop joins are
    # not planned, so 1 looked-up project row + all 50 users.
    ("project_manager",
     "SELECT p.title, u.username FROM lib.projects p "
     "JOIN lib.users u ON p.manager_id = u.id WHERE p.id = ?", 17, 1 + 50),
    ("chunk_count",
     "SELECT COUNT(*) AS n FROM lib.chunks WHERE document_id = ?", 123, 4),
    ("top_chunks",
     "SELECT id, chunklength FROM lib.chunks WHERE document_id = ? "
     "ORDER BY chunklength DESC, id LIMIT 3", 123, 4),
]


@pytest.mark.parametrize(
    "sql,key,scanned",
    [pytest.param(sql, key, scanned, id=name)
     for name, sql, key, scanned in SERVED])
def test_served_shapes_read_only_the_looked_up_rows(sql, key, scanned):
    row_planner, vec_planner = _planners(build_biblio())
    prepared = row_planner.prepare(sql)
    assert prepared.plan.explain().count("lookup=[") == 1
    result = row_planner.execute_plan(prepared, [key])
    assert result.context.rows_scanned == scanned
    assert result.rows == vec_planner.execute(sql, [key]).rows


def test_tables_without_the_capability_are_scanned():
    class ScanOnlyTable(MemoryTable):
        def capabilities(self):
            from repro.adapters.capability import SCAN_ONLY
            return SCAN_ONLY

    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    s.add_table(ScanOnlyTable("t", ["id"], [F.integer(False)],
                              [(i,) for i in range(30)]))
    planner = Planner(FrameworkConfig(catalog))
    result = planner.execute("SELECT id FROM s.t WHERE id = ?", [7])
    assert "lookup" not in result.plan.explain()
    assert result.rows == [(7,)]
    assert result.context.rows_scanned == 30


def test_unique_key_estimates_one_row():
    from repro import Statistic
    from repro.core.metadata import RelMetadataQuery
    catalog = Catalog()
    s = Schema("s")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "u", ["id", "v"], [F.integer(False), F.integer(False)],
        [(i, i % 3) for i in range(100)],
        statistic=Statistic(row_count=100.0, unique_keys=[[0]])))
    planner = Planner(FrameworkConfig(catalog))
    mq = RelMetadataQuery()
    by_id = planner.prepare("SELECT id, v FROM s.u WHERE id = ?").plan
    by_v = planner.prepare("SELECT id, v FROM s.u WHERE v = ?").plan
    assert "lookup=[$0 = ?0]" in by_id.explain()
    assert "lookup=[$1 = ?0]" in by_v.explain()
    assert mq.row_count(by_id) == 1.0
    assert mq.row_count(by_v) == pytest.approx(15.0)  # 100 x 0.15
