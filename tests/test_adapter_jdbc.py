"""Tests for the JDBC adapter and its MiniDB backend."""

import pytest

from repro import Catalog
from repro.adapters.jdbc import JdbcQuery, JdbcSchema, MiniDb, MiniDbError
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for


@pytest.fixture
def db():
    db = MiniDb("mysql")
    db.create_table("emp", ["id", "dept", "name", "sal"], [
        (1, 10, "Ann", 100), (2, 10, "Bob", 200),
        (3, 20, "Cid", 300), (4, 20, "Dee", None)])
    db.create_table("dept", ["dept", "dname"], [(10, "Sales"), (20, "Eng")])
    return db


class TestMiniDbDirect:
    """MiniDB is its own SQL engine; exercise it standalone."""

    def test_select_where(self, db):
        cols, rows = db.execute("SELECT name FROM emp WHERE sal > 150")
        assert cols == ["name"]
        assert sorted(rows) == [("Bob",), ("Cid",)]

    def test_null_comparison_excluded(self, db):
        _, rows = db.execute("SELECT name FROM emp WHERE sal > 0")
        assert ("Dee",) not in rows

    def test_order_limit_offset(self, db):
        # NULL sorts largest: DESC puts Dee (NULL sal) first
        _, rows = db.execute(
            "SELECT name FROM emp ORDER BY sal DESC LIMIT 2 OFFSET 1")
        assert rows == [("Cid",), ("Bob",)]

    def test_order_nulls(self, db):
        _, rows = db.execute("SELECT sal FROM emp ORDER BY sal")
        assert rows[-1] == (None,)  # NULLS LAST ascending
        _, rows = db.execute("SELECT sal FROM emp ORDER BY sal DESC")
        assert rows[0] == (None,)   # NULLS FIRST descending

    def test_group_by_having(self, db):
        _, rows = db.execute(
            "SELECT dept, COUNT(*) AS c, SUM(sal) AS s FROM emp "
            "GROUP BY dept HAVING COUNT(*) > 1")
        assert sorted(rows) == [(10, 2, 300), (20, 2, 300)]

    def test_aggregate_ignores_nulls(self, db):
        _, rows = db.execute("SELECT AVG(sal) FROM emp")
        assert rows == [(200.0,)]

    def test_joins(self, db):
        _, rows = db.execute(
            "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.dept "
            "WHERE e.sal >= 200")
        assert sorted(rows) == [("Bob", "Sales"), ("Cid", "Eng")]

    def test_left_join_null_fill(self, db):
        db.create_table("extra", ["dept", "x"], [(99, 1)])
        _, rows = db.execute(
            "SELECT d.dname, x.x FROM dept d LEFT JOIN extra x ON d.dept = x.dept")
        assert all(r[1] is None for r in rows)

    def test_set_ops(self, db):
        _, rows = db.execute(
            "SELECT dept FROM emp UNION SELECT dept FROM dept")
        assert sorted(rows) == [(10,), (20,)]
        _, rows = db.execute(
            "SELECT dept FROM emp EXCEPT SELECT dept FROM dept")
        assert rows == []

    def test_distinct(self, db):
        _, rows = db.execute("SELECT DISTINCT dept FROM emp")
        assert sorted(rows) == [(10,), (20,)]

    def test_derived_table(self, db):
        _, rows = db.execute(
            "SELECT t.name FROM (SELECT name, sal FROM emp WHERE sal > 150) AS t")
        assert sorted(rows) == [("Bob",), ("Cid",)]

    def test_case_expression(self, db):
        _, rows = db.execute(
            "SELECT name, CASE WHEN sal > 150 THEN 'hi' ELSE 'lo' END FROM emp "
            "WHERE sal IS NOT NULL ORDER BY name")
        assert rows[0] == ("Ann", "lo")

    def test_unknown_table(self, db):
        with pytest.raises(MiniDbError):
            db.execute("SELECT 1 FROM ghosts")

    def test_unknown_column(self, db):
        with pytest.raises(MiniDbError):
            db.execute("SELECT wages FROM emp")

    def test_counters(self, db):
        before = db.backend_calls
        db.execute("SELECT 1 FROM emp")
        assert db.backend_calls == before + 1
        assert db.rows_read >= 4


@pytest.fixture
def jdbc_catalog(db):
    catalog = Catalog()
    schema = JdbcSchema("mysql", db, dialect="mysql")
    catalog.add_schema(schema)
    # re-expose existing MiniDB tables through the adapter
    schema.add_jdbc_table("products", ["productId", "name", "price"],
                          [F.integer(False), F.varchar(), F.integer()],
                          [(1, "widget", 10), (2, "gadget", 25), (3, "gizmo", 40)])
    return catalog, schema, db


class TestJdbcPushdown:
    def test_filter_project_pushed(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT name FROM mysql.products WHERE price > 15")
        assert sorted(res.rows) == [("gadget",), ("gizmo",)]
        # the whole thing ran as a single backend call
        plan_text = res.explain()
        assert "JdbcQuery" in plan_text
        assert "EnumerableFilter" not in plan_text

    def test_generated_sql_uses_dialect(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT name FROM mysql.products WHERE price > 15")
        assert "`" in res.explain()  # MySQL backtick quoting

    def test_sort_and_limit_pushed(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT name, price FROM mysql.products "
                        "ORDER BY price DESC LIMIT 2")
        assert res.rows == [("gizmo", 40), ("gadget", 25)]
        assert "JdbcQuery" in res.explain()

    def test_aggregate_pushed(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        res = p.execute("SELECT COUNT(*), SUM(price) FROM mysql.products")
        assert res.rows == [(3, 75)]
        assert "EnumerableAggregate" not in res.explain()

    def test_same_source_join_pushed(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        schema.add_jdbc_table("stock", ["productId", "qty"],
                              [F.integer(False), F.integer()],
                              [(1, 7), (2, 0)])
        p = planner_for(catalog)
        res = p.execute(
            "SELECT pr.name, st.qty FROM mysql.products pr "
            "JOIN mysql.stock st ON pr.productId = st.productId")
        assert sorted(res.rows) == [("gadget", 0), ("widget", 7)]
        text = res.explain()
        assert "EnumerableJoin" not in text  # join ran inside the backend
        assert text.count("JdbcQuery") == 1

    def test_pushdown_reduces_transferred_rows(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        db.rows_read = 0
        res = p.execute("SELECT name FROM mysql.products WHERE price = 10")
        assert len(res.rows) == 1
        # context row counters see only the converter output, not the scan
        assert res.context.rows_scanned == 0

    def test_subquery_predicate_not_pushed(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        res = p.execute(
            "SELECT name FROM mysql.products WHERE price = "
            "(SELECT MAX(price) FROM mysql.products)")
        assert res.rows == [("gizmo",)]


class TestJdbcQueryNode:
    def test_sql_rendering(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        rel = p.rel("SELECT name FROM mysql.products WHERE price > 15")
        best = p.optimize(rel)
        query = best
        while not isinstance(query, JdbcQuery):
            query = query.inputs[0]
        sql = query.sql()
        assert sql.startswith("SELECT")
        assert "`price` > 15" in sql


class TestDynamicParameterPushdown:
    """A ``?`` pushed into a JdbcQuery is bound by its rex index when
    the query is shipped; the plan text keeps the marker."""

    SQL = "SELECT name FROM mysql.products WHERE price > ? AND name <> ?"

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_pushed_parameters_bind_at_execution(self, jdbc_catalog, engine):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog, engine=engine)
        prepared = p.prepare(self.SQL)
        text = prepared.explain()
        assert "JdbcQuery" in text and "EnumerableFilter" not in text
        assert text.count("?") == 2          # explain shows the markers
        res = p.execute_plan(prepared, [15, "gizmo"])
        assert res.rows == [("gadget",)]
        res = p.execute_plan(prepared, [5, "it's"])   # quoting survives
        assert sorted(res.rows) == [("gadget",), ("gizmo",), ("widget",)]

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_prepared_statement_rebinds_through_server(self, jdbc_catalog,
                                                       engine):
        from repro.avatica import QueryServer
        catalog, schema, db = jdbc_catalog
        server = QueryServer(engine=engine)
        server.register_catalog("shop", catalog)
        conn = server.connect("shop")
        stmt = conn.prepare(self.SQL)
        assert stmt.execute([15, "gizmo"]).fetchall() == [("gadget",)]
        second = stmt.execute([20, "gadget"])
        assert second.cache_hit
        assert second.fetchall() == [("gizmo",)]
        conn.close()

    def test_partially_pushed_predicate_binds_by_index(self, jdbc_catalog):
        """Only the second marker reaches the backend, where it is the
        first ``?`` of the rendered text: binding by position would
        hand it the memory table's value."""
        from repro import MemoryTable, Schema
        catalog, schema, db = jdbc_catalog
        mem = Schema("mem")
        catalog.add_schema(mem)
        mem.add_table(MemoryTable(
            "tags", ["productId", "tag"], [F.integer(False), F.varchar()],
            [(1, "new"), (2, "new"), (3, "old")]))
        p = planner_for(catalog)
        prepared = p.prepare(
            "SELECT pr.name FROM mem.tags t JOIN mysql.products pr "
            "ON t.productId = pr.productId WHERE t.tag = ? AND pr.price > ?")
        query = [n for n in _walk(prepared.plan) if isinstance(n, JdbcQuery)]
        assert len(query) == 1 and query[0].sql().count("?") == 1
        assert "> 15" in query[0].sql(["new", 15])
        assert p.execute_plan(prepared, ["new", 15]).rows == [("gadget",)]
        assert p.execute_plan(prepared, ["old", 15]).rows == [("gizmo",)]

    def test_unbound_pushed_parameter_is_an_error(self, jdbc_catalog):
        catalog, schema, db = jdbc_catalog
        p = planner_for(catalog)
        from repro.core.rex_eval import RexExecutionError
        with pytest.raises(RexExecutionError, match=r"unbound parameter \?1"):
            p.execute(self.SQL, [15])


def _walk(rel):
    yield rel
    for i in rel.inputs:
        yield from _walk(i)
