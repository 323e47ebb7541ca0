"""The SQL the jdbc adapter ships: shard text, shard coverage, and
agreement with a second SQL engine.

A :class:`~repro.adapters.jdbc.adapter.JdbcQuery` restricted to one
partition (``with_partition``) carries the predicate
``MOD(HASH(keys), n) = i`` into its rendered SQL, so the backend serves
the shard itself.  These tests pin that text for a filtered, trimmed
query and check that the n shards partition the unsharded query's rows.
Then every query the jdbc goldens push, every unparser round-trip case
and the shard SQL run on both MiniDb and stdlib ``sqlite3`` loaded with
the same rows, and must return equal bags: the rendered SQL is SQL, not
MiniDb's dialect of it.
"""

import sqlite3
from collections import Counter

import pytest

from repro.adapters.jdbc.adapter import JdbcQuery
from repro.framework import planner_for
from repro.sql import rel_to_sql
from test_golden_plans import build_catalog
from test_unparser_avatica import QUERIES

#: a pushed filter and a pushed two-column projection over ``ev.ratings``
TRIMMED_SQL = "SELECT deptno, score FROM ev.ratings WHERE empid > 105"

#: the shard SQL of :data:`TRIMMED_SQL`, partition 1 of 2 on ``deptno``:
#: one flat SELECT, the shard predicate one more WHERE conjunct
SHARD_SQL = (
    "SELECT `deptno`, `score` FROM `ev`.`ratings` AS t0 "
    "WHERE (MOD(HASH(`deptno`), 2) = 1) AND (`empid` > 105)")


def jdbc_query(catalog, sql: str) -> JdbcQuery:
    """The one JdbcQuery leaf of ``sql``'s row-engine plan."""
    planner = planner_for(catalog)
    node = planner.optimize(planner.rel(sql))
    while not isinstance(node, JdbcQuery):
        node = node.inputs[0]
    return node


def test_shard_sql_of_filtered_trimmed_query():
    query = jdbc_query(build_catalog(), TRIMMED_SQL)
    assert query.can_partition((0,))
    assert query.with_partition(1, 2, (0,)).sql() == SHARD_SQL


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("keys", [(0,), (1,), ()])
def test_shards_are_a_disjoint_cover(n, keys):
    """The n shards' bags add up to exactly the unsharded query's bag."""
    catalog = build_catalog()
    query = jdbc_query(catalog, TRIMMED_SQL)
    db = query.schema.db
    _, whole = db.execute(query.sql())
    shards = Counter()
    for pid in range(n):
        _, rows = db.execute(query.with_partition(pid, n, keys).sql())
        shards.update(rows)
    assert whole and shards == Counter(whole)


# ---------------------------------------------------------------------------
# The pushed SQL runs outside MiniDb: stdlib sqlite3 as a second backend
# ---------------------------------------------------------------------------

def _hash(*values):
    """MiniDb's ``HASH``: the canonical partition hash of its arguments."""
    return hash(values)


def _mod(a, b):
    """MiniDb's ``MOD``: Python's ``%``, NULL on a NULL operand."""
    return None if a is None or b is None else a % b


def sqlite_twin(dbs):
    """A sqlite3 connection holding the same rows as each named MiniDb
    (``{schema: db}``), one attached database per schema."""
    conn = sqlite3.connect(":memory:")
    conn.create_function("HASH", -1, _hash, deterministic=True)
    conn.create_function("MOD", 2, _mod, deterministic=True)
    for schema, db in dbs.items():
        conn.execute(f"ATTACH DATABASE ':memory:' AS {schema}")
        for table in db.tables.values():
            cols = ", ".join(table.columns)
            marks = ", ".join("?" * len(table.columns))
            conn.execute(f"CREATE TABLE {schema}.{table.name} ({cols})")
            conn.executemany(
                f"INSERT INTO {schema}.{table.name} VALUES ({marks})",
                table.rows)
    return conn


def assert_same_bag(db, conn, sql):
    _, expected = db.execute(sql)
    got = [tuple(row) for row in conn.execute(sql).fetchall()]
    assert Counter(got) == Counter(expected), sql


def _jdbc_dbs(catalog):
    from repro.adapters.jdbc import JdbcSchema
    return {name: schema.db for name, schema in catalog.root.subschemas.items()
            if isinstance(schema, JdbcSchema)}


def _pushed_sql(plan):
    """Every query a plan ships: each JdbcQuery leaf's SQL and, under a
    PartitionedScan, every shard's."""
    from repro.runtime.vectorized.partitioned import PartitionedScan
    out = []

    def walk(rel):
        if isinstance(rel, JdbcQuery):
            out.append(rel.sql())
        if isinstance(rel, PartitionedScan):
            for pid in range(rel.n_partitions):
                walk(rel.partition_rel(pid))
        for child in rel.inputs:
            walk(child)

    walk(plan)
    return out


def _golden_cases():
    """(id, catalog builder, engine, SQL) of every golden plan that pushes
    work into jdbc."""
    import test_federated_parallel as fed
    import test_golden_plans as golden
    cases = [(name, golden.build_catalog, engine, sql)
             for name, engine, sql in golden.GOLDEN_QUERIES]
    cases += [(name, fed.build_federated_catalog, "vectorized-p4", sql)
              for name, sql in fed.GOLDEN_FEDERATED]
    return [case for case in cases if "JdbcQuery" in
            (golden.GOLDEN_DIR / f"{case[0]}.txt").read_text()]


@pytest.mark.parametrize(
    "builder,engine,sql",
    [pytest.param(*case[1:], id=case[0]) for case in _golden_cases()])
def test_golden_pushed_sql_agrees_with_sqlite(builder, engine, sql):
    from repro.framework import FrameworkConfig, Planner
    catalog = builder()
    name, _, suffix = engine.partition("-p")
    planner = Planner(FrameworkConfig(catalog, engine=name,
                                      parallelism=int(suffix or 1)))
    pushed = _pushed_sql(planner.optimize(planner.rel(sql)))
    assert pushed
    dbs = _jdbc_dbs(catalog)
    (db,) = dbs.values()
    conn = sqlite_twin(dbs)
    for text in pushed:
        assert_same_bag(db, conn, text)


def test_shard_sql_agrees_with_sqlite():
    catalog = build_catalog()
    query = jdbc_query(catalog, TRIMMED_SQL)
    conn = sqlite_twin(_jdbc_dbs(catalog))
    for n in (2, 4):
        for pid in range(n):
            assert_same_bag(query.schema.db, conn,
                            query.with_partition(pid, n, (0,)).sql())


#: statements whose SQL must keep a derived table: a filter over an
#: aggregate, a filter over a computed projection, LIMIT below a filter
DERIVED = [
    "SELECT * FROM (SELECT deptno, COUNT(*) AS c FROM hr.emps "
    "GROUP BY deptno) AS t WHERE c > 1",
    "SELECT * FROM (SELECT empid, sal * 2 AS s2 FROM hr.emps) AS t "
    "WHERE s2 > 15000",
    "SELECT * FROM (SELECT empid, sal FROM hr.emps ORDER BY empid "
    "LIMIT 3) AS t WHERE sal > 8000",
]


#: clause-order shapes besides those: nested set operations, ORDER BY
#: over GROUP BY, filters and grouping over a join, LIMIT with OFFSET
SHAPES = [
    "SELECT deptno FROM hr.emps UNION SELECT deptno FROM hr.depts "
    "EXCEPT SELECT deptno FROM hr.depts WHERE deptno > 30",
    "SELECT deptno FROM hr.depts INTERSECT (SELECT deptno FROM hr.emps "
    "UNION ALL SELECT deptno FROM hr.depts)",
    "SELECT deptno, COUNT(*) AS c FROM hr.emps GROUP BY deptno "
    "ORDER BY c DESC, deptno LIMIT 2",
    "SELECT d.dname, COUNT(*) AS n FROM hr.emps e JOIN hr.depts d "
    "ON e.deptno = d.deptno WHERE e.sal > 7000 GROUP BY d.dname",
    "SELECT name, sal + 1 AS s FROM hr.emps WHERE sal > 7000 "
    "ORDER BY s LIMIT 2 OFFSET 1",
]


@pytest.fixture
def hr_twins(hr_catalog):
    """MiniDb and sqlite3 both holding ``hr.emps`` and ``hr.depts``."""
    from repro.adapters.jdbc import MiniDb
    db = MiniDb("hr")
    hr = hr_catalog.resolve_schema(["hr"])
    for name in ("emps", "depts"):
        table = hr.table(name)
        db.create_table(name, list(table.row_type.field_names),
                        list(table.rows))
    return planner_for(hr_catalog), db, sqlite_twin({"hr": db})


@pytest.mark.parametrize("sql", QUERIES + DERIVED + SHAPES)
def test_unparsed_sql_agrees_with_sqlite(hr_twins, sql):
    planner, db, conn = hr_twins
    rel = planner.rel(sql)
    text = rel_to_sql(rel, "mysql")
    assert_same_bag(db, conn, text)
    assert sorted(conn.execute(text).fetchall()) == sorted(
        planner.execute(rel).rows)
    if sql in DERIVED:
        assert "FROM (SELECT" in text
