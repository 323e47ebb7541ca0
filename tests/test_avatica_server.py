"""The multi-tenant query server: prepared statements, paged fetch,
admission control, DB-API lifecycle edges, and tenant isolation.

The headline regression here is prepared-statement parameter rebinding:
a cached plan executed with a *new* parameter set must produce the new
answer on both engines — i.e. ``?`` values are late-bound per
execution, never baked into the cached plan.
"""

import threading

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.avatica import (
    OperationalError,
    ProgrammingError,
    QueryServer,
    connect,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F


# -- prepared statements ------------------------------------------------------


@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_prepared_statement_rebinds_parameters(hr_catalog, engine):
    """One plan, many parameter sets (the plan-cache safety criterion)."""
    conn = connect(hr_catalog, engine=engine)
    stmt = conn.prepare("SELECT name FROM hr.emps WHERE sal > ?")
    assert stmt.parameter_count == 1

    first = stmt.execute([9000])
    assert sorted(first.fetchall()) == [("Bill",), ("Theodore",)]
    assert not first.cache_hit                      # cold plan

    second = stmt.execute([7500])
    assert second.cache_hit                         # same plan object...
    assert sorted(second.fetchall()) == [           # ...new answer
        ("Bill",), ("Eric",), ("Theodore",)]

    third = stmt.execute([100000])
    assert third.cache_hit
    assert third.fetchall() == []
    conn.close()


@pytest.mark.parametrize("engine", ["row", "vectorized"])
def test_prepared_statement_multiple_parameters(hr_catalog, engine):
    conn = connect(hr_catalog, engine=engine)
    stmt = conn.prepare(
        "SELECT name FROM hr.emps WHERE deptno = ? AND sal < ?")
    assert stmt.parameter_count == 2
    assert sorted(stmt.execute([10, 11000]).fetchall()) == \
        [("Bill",), ("Sebastian",)]
    assert stmt.execute([30, 7000]).fetchall() == [("Victor",)]
    conn.close()


def test_prepared_statement_validates_parameter_count(hr_catalog):
    conn = connect(hr_catalog)
    stmt = conn.prepare("SELECT name FROM hr.emps WHERE sal > ?")
    with pytest.raises(ProgrammingError):
        stmt.execute([])
    with pytest.raises(ProgrammingError):
        stmt.execute([1, 2])
    conn.close()


def test_prepared_statement_survives_catalog_change(hr_catalog):
    conn = connect(hr_catalog)
    stmt = conn.prepare("SELECT COUNT(*) FROM hr.emps")
    assert stmt.execute([]).fetchall() == [(5,)]
    hr_catalog.resolve_schema(["hr"]).add_table(MemoryTable(
        "bonus", ["empid", "amount"], [F.integer(False), F.integer()],
        [(100, 50)]))
    # Re-prepared transparently under the new catalog version.
    cur = stmt.execute([])
    assert not cur.cache_hit
    assert cur.fetchall() == [(5,)]
    assert conn.plan_cache_stats()["invalidations"] >= 1
    conn.close()


def test_sql_level_cache_hit_on_normalized_variant(hr_catalog):
    conn = connect(hr_catalog)
    assert not conn.execute("SELECT dname FROM hr.depts").cache_hit
    warm = conn.execute("select   dname\nfrom hr.depts  -- again")
    assert warm.cache_hit
    assert len(warm.fetchall()) == 4
    conn.close()


# -- paged result fetch -------------------------------------------------------


def test_fetchmany_pages_through_result(hr_catalog):
    conn = connect(hr_catalog, engine="vectorized")
    cur = conn.execute(
        "SELECT empid FROM hr.emps ORDER BY empid")
    assert cur.fetchmany(2) == [(100,), (110,)]
    assert cur.fetchmany(0) == []                   # DB-API edge: no rows
    assert cur.fetchmany(2) == [(150,), (200,)]
    assert cur.fetchmany(99) == [(210,)]            # short final page
    assert cur.fetchmany(2) == []                   # exhausted
    assert cur.rowcount == 5
    conn.close()


def test_fetchone_and_iteration(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.execute("SELECT empid FROM hr.emps ORDER BY empid DESC")
    assert cur.fetchone() == (210,)
    assert list(cur) == [(200,), (150,), (110,), (100,)]
    assert cur.fetchone() is None
    conn.close()


def test_rowcount_read_early_keeps_rows_fetchable(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.execute("SELECT empid FROM hr.emps")
    assert cur.rowcount == 5          # drains into the buffer...
    assert len(cur.fetchall()) == 5   # ...but rows are not lost
    conn.close()


def test_description_names_columns(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.execute("SELECT name AS who, sal FROM hr.emps")
    assert [d[0] for d in cur.description] == ["who", "sal"]
    conn.close()


# -- admission control --------------------------------------------------------


def test_admission_rejects_when_saturated(hr_catalog):
    conn = connect(hr_catalog, max_concurrent_statements=1,
                   admission_timeout=0.05)
    holder = conn.execute("SELECT empid FROM hr.emps")   # slot held: not drained
    with pytest.raises(OperationalError):
        conn.execute("SELECT dname FROM hr.depts")
    holder.close()                                        # slot released
    assert len(conn.execute("SELECT dname FROM hr.depts").fetchall()) == 4
    stats = conn.server.stats()["statements"]
    assert stats["rejected"] == 1
    assert stats["active"] == 0 or stats["active"] == 1   # last cursor open
    conn.close()


def test_draining_a_cursor_releases_its_slot(hr_catalog):
    conn = connect(hr_catalog, max_concurrent_statements=1,
                   admission_timeout=0.05)
    first = conn.execute("SELECT empid FROM hr.emps")
    first.fetchall()                                      # drained: slot freed
    assert len(conn.execute("SELECT dname FROM hr.depts").fetchall()) == 4
    conn.close()


def test_admission_bounds_concurrent_threads(hr_catalog):
    server = QueryServer(max_concurrent_statements=2, admission_timeout=30.0)
    server.register_catalog("hr", hr_catalog)
    results, errors = [], []

    def worker():
        try:
            conn = server.connect("hr")
            rows = conn.execute(
                "SELECT COUNT(*) FROM hr.emps").fetchall()
            results.append(rows[0][0])
            conn.close()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == [5] * 8
    stats = server.stats()["statements"]
    assert stats["admitted"] == 8
    assert stats["peak_active"] <= 2
    assert stats["active"] == 0


# -- DB-API lifecycle edges ---------------------------------------------------


def test_execute_on_closed_connection_raises(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.cursor()
    conn.close()
    with pytest.raises(ProgrammingError):
        cur.execute("SELECT 1 FROM hr.depts")
    with pytest.raises(ProgrammingError):
        conn.cursor()
    with pytest.raises(ProgrammingError):
        conn.prepare("SELECT 1 FROM hr.depts")


def test_closing_connection_closes_cursors(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.execute("SELECT empid FROM hr.emps")
    conn.close()
    with pytest.raises(ProgrammingError):
        cur.execute("SELECT empid FROM hr.emps")


def test_closed_cursor_rejects_execute(hr_catalog):
    conn = connect(hr_catalog)
    cur = conn.cursor()
    cur.close()
    with pytest.raises(ProgrammingError):
        cur.execute("SELECT empid FROM hr.emps")
    conn.close()


def test_syntax_error_maps_to_programming_error(hr_catalog):
    conn = connect(hr_catalog)
    with pytest.raises(ProgrammingError):
        conn.execute("SELEKT oops")
    with pytest.raises(ProgrammingError):
        conn.execute("SELECT nope FROM hr.no_such_table")
    conn.close()


def test_context_managers(hr_catalog):
    with connect(hr_catalog) as conn:
        with conn.cursor() as cur:
            cur.execute("SELECT COUNT(*) FROM hr.depts")
            assert cur.fetchone() == (4,)
    with pytest.raises(ProgrammingError):
        conn.execute("SELECT 1 FROM hr.depts")


# -- multi-tenant serving -----------------------------------------------------


def _tenant_catalog(rows):
    catalog = Catalog()
    s = Schema("app")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "events", ["id", "who"], [F.integer(False), F.varchar()], rows))
    return catalog


def test_tenants_share_cache_but_not_plans():
    server = QueryServer()
    server.register_catalog("acme", _tenant_catalog([(1, "ada")]))
    server.register_catalog("bravo", _tenant_catalog(
        [(2, "bob"), (3, "eve")]))
    assert server.tenants() == ["acme", "bravo"]

    sql = "SELECT who FROM app.events"
    acme = server.connect("acme")
    bravo = server.connect("bravo")
    assert acme.execute(sql).fetchall() == [("ada",)]
    first_bravo = bravo.execute(sql)
    assert not first_bravo.cache_hit          # acme's plan is not reused
    assert sorted(first_bravo.fetchall()) == [("bob",), ("eve",)]
    assert bravo.execute(sql).cache_hit       # but bravo reuses its own
    assert server.stats()["plan_cache"]["misses"] == 2

    with pytest.raises(KeyError):
        server.connect("zulu")
    acme.close()
    bravo.close()


def test_unnamed_connect_requires_single_tenant():
    server = QueryServer()
    server.register_catalog("a", _tenant_catalog([(1, "x")]))
    assert server.connect().execute(
        "SELECT id FROM app.events").fetchall() == [(1,)]
    server.register_catalog("b", _tenant_catalog([(2, "y")]))
    with pytest.raises(ValueError):
        server.connect()


def test_server_stats_shape(hr_catalog):
    conn = connect(hr_catalog)
    conn.execute("SELECT COUNT(*) FROM hr.emps").fetchall()
    stats = conn.server.stats()
    assert stats["connections_opened"] == 1
    assert stats["statements"]["admitted"] == 1
    assert stats["plan_cache"]["misses"] == 1
    conn.close()


# -- server counters ----------------------------------------------------------


def test_rows_emitted_counts_fetched_pages(hr_catalog):
    server = QueryServer()
    server.register_catalog("hr", hr_catalog)
    conn = server.connect("hr")
    cur = conn.execute("SELECT empid FROM hr.emps ORDER BY empid")
    ctx = cur._context
    assert ctx.rows_emitted == 0
    cur.fetchmany(2)
    assert ctx.rows_emitted == 2
    assert server.stats()["statements"]["rows_emitted"] == 2
    cur.fetchone()
    cur.fetchall()                         # the page that ends the stream
    assert ctx.rows_emitted == 5
    assert server.stats()["statements"]["rows_emitted"] == 5

    # rows drained into the rowcount buffer are counted once, there
    cur = conn.execute("SELECT empid FROM hr.emps")
    ctx = cur._context
    assert cur.rowcount == 5 and ctx.rows_emitted == 5
    assert len(cur.fetchall()) == 5
    assert ctx.rows_emitted == 5
    assert server.stats()["statements"]["rows_emitted"] == 10
    conn.close()


def test_result_reports_rows_emitted(hr_planner):
    result = hr_planner.execute("SELECT name FROM hr.emps WHERE sal > 7000")
    assert result.context.rows_emitted == len(result.rows) == 3


def test_prepared_reuse_counts_as_plan_cache_hits(hr_catalog):
    server = QueryServer()
    server.register_catalog("hr", hr_catalog)
    conn = server.connect("hr")
    stmt = conn.prepare("SELECT name FROM hr.emps WHERE sal > ?")
    assert server.stats()["plan_cache"]["misses"] == 1
    stmt.execute([9000]).fetchall()        # prepare's lookup, not a new one
    assert server.stats()["plan_cache"]["hits"] == 0
    for threshold in (7500, 100000):
        assert stmt.execute([threshold]).cache_hit
    cache = server.stats()["plan_cache"]
    assert (cache["hits"], cache["misses"]) == (2, 1)
    assert cache["hit_rate"] == round(2 / 3, 4)
    conn.close()
