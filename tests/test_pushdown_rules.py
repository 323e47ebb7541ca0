"""Adapter planner rules are generated from each backend's ``pushable_ops``.

Every pushdown backend gets its rule set from
:func:`repro.adapters.pushdown.pushdown_rules`: a scan converter, one
push rule per declared op, and the converter back to enumerable.  These
tests pin that declaration and rules agree, and that every generated
push rule is result-preserving: a statement planned with the rule and
without it returns the same bag of rows, and only the plan with it
shows the work inside the backend.
"""

from collections import Counter

import pytest

from repro import Catalog
from repro.adapters import ScanCapabilities
from repro.adapters.cassandra import CassandraSchema, CassandraStore
from repro.adapters.druid import DruidSchema, DruidStore
from repro.adapters.elastic import ElasticSchema, ElasticStore
from repro.adapters.jdbc import JdbcQuery, JdbcSchema, MiniDb
from repro.adapters.mongo import MongoSchema, MongoStore
from repro.adapters.pushdown import OPERATORS, PushdownSchema, PushRule
from repro.adapters.spark import spark_rules
from repro.adapters.spark.adapter import SPARK_CAPABILITIES
from repro.adapters.splunk import SplunkSchema, SplunkStore
from repro.core.rel import LogicalTableScan
from repro.core.rule import ConverterRule
from repro.core.traits import Convention
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for


def build_catalog() -> Catalog:
    """One small table in each of the six pushdown backends."""
    catalog = Catalog()

    db = MiniDb("mysql")
    jdbc = JdbcSchema("db", db)
    catalog.add_schema(jdbc)
    jdbc.add_jdbc_table(
        "emps", ["empid", "deptno", "name", "sal"],
        [F.integer(False), F.integer(False), F.varchar(), F.integer()],
        [(1, 10, "ann", 100), (2, 10, "bob", 200), (3, 20, "cid", None),
         (4, 20, "dee", 300), (5, 30, "eve", 200)])
    jdbc.add_jdbc_table(
        "depts", ["deptno", "dname"], [F.integer(False), F.varchar()],
        [(10, "sales"), (20, "ops"), (40, "hr")])

    mongo = MongoSchema("mongo", MongoStore())
    catalog.add_schema(mongo)
    mongo.add_collection("zips", [
        {"city": "austin", "pop": 950}, {"city": "dallas", "pop": 1300},
        {"city": "waco", "pop": 140}])

    es = ElasticSchema("es", ElasticStore())
    catalog.add_schema(es)
    es.add_elastic_table(
        "logs", ["level", "msg", "code"],
        [F.varchar(), F.varchar(), F.integer()],
        [{"level": "ERROR", "msg": "boom", "code": 500},
         {"level": "INFO", "msg": "ok", "code": 200},
         {"level": "ERROR", "msg": "bang", "code": 503}])

    druid = DruidSchema("druid", DruidStore())
    catalog.add_schema(druid)
    druid.add_datasource(
        "hits", ["country", "device"], ["clicks"],
        [F.bigint(False), F.varchar(), F.varchar(), F.bigint()],
        [{"__time": 1, "country": "US", "device": "phone", "clicks": 3},
         {"__time": 2, "country": "DE", "device": "tablet", "clicks": 5},
         {"__time": 3, "country": "US", "device": "laptop", "clicks": 2}])

    cass = CassandraSchema("cass", CassandraStore())
    catalog.add_schema(cass)
    cass.add_cassandra_table(
        "events", ["device", "ts", "temp"],
        [F.varchar(False), F.integer(False), F.double()],
        partition_keys=["device"], clustering_keys=["ts"],
        rows=[("a", 3, 1.0), ("a", 1, 2.0), ("a", 2, 3.0), ("b", 1, 4.0)])

    store = SplunkStore()
    splunk = SplunkSchema("splunk", store)
    catalog.add_schema(splunk)
    splunk.add_splunk_table(
        "orders", ["rowtime", "deptno", "units"],
        [F.timestamp(False), F.integer(False), F.integer(False)],
        [{"rowtime": 1, "deptno": 10, "units": 30},
         {"rowtime": 2, "deptno": 20, "units": 10},
         {"rowtime": 3, "deptno": 40, "units": 50}])
    store.register_lookup("depts", ["deptno", "dname"],
                          lambda: db.table("depts").rows)
    return catalog


def pushdown_schemas(catalog: Catalog):
    return [s for s in catalog.root.subschemas.values()
            if isinstance(s, PushdownSchema)]


#: (schema, op, sql, text only the plan with the op pushed shows)
CASES = [
    ("db", "filter", "SELECT name FROM db.emps WHERE sal > 150", "WHERE"),
    ("db", "project", "SELECT sal + 1 FROM db.emps", "+ 1"),
    ("db", "sort", "SELECT name FROM db.emps ORDER BY sal DESC", "ORDER BY"),
    ("db", "limit", "SELECT name FROM db.emps LIMIT 2", "LIMIT"),
    ("db", "aggregate",
     "SELECT deptno, COUNT(*), AVG(sal) FROM db.emps GROUP BY deptno",
     "GROUP BY"),
    ("db", "join",
     "SELECT d.dname, COUNT(*) FROM db.emps e JOIN db.depts d "
     "ON e.deptno = d.deptno GROUP BY d.dname", "JOIN"),
    ("mongo", "filter",
     "SELECT _MAP['city'] FROM mongo.zips WHERE _MAP['pop'] > 900", "$gt"),
    ("es", "filter",
     "SELECT level FROM es.logs WHERE code >= 400 AND msg = 'boom'", '"gte"'),
    ("es", "project", "SELECT msg FROM es.logs", '"_source"'),
    ("es", "limit", "SELECT level FROM es.logs LIMIT 2", '"size"'),
    ("druid", "filter",
     "SELECT device FROM druid.hits WHERE country = 'US'", "selector"),
    ("druid", "aggregate",
     "SELECT country, SUM(clicks) FROM druid.hits GROUP BY country",
     "groupBy"),
    ("cass", "filter",
     "SELECT ts, temp FROM cass.events WHERE device = 'a' AND ts > 1",
     "device = 'a'"),
    ("cass", "sort",
     "SELECT ts FROM cass.events WHERE device = 'a' ORDER BY ts", "ORDER BY"),
    ("cass", "limit", "SELECT ts FROM cass.events LIMIT 2", "LIMIT"),
    ("splunk", "filter",
     "SELECT rowtime FROM splunk.orders WHERE units > 20", "units>20"),
    ("splunk", "project", "SELECT units FROM splunk.orders", "fields"),
    ("splunk", "join",
     "SELECT o.units, d.dname FROM splunk.orders o JOIN db.depts d "
     "ON o.deptno = d.deptno", "lookup"),
]


def test_cases_cover_every_declared_op():
    declared = {(s.name, op) for s in pushdown_schemas(build_catalog())
                for op in s.capabilities.pushable_ops}
    assert {(schema, op) for schema, op, _, _ in CASES} == declared


@pytest.mark.parametrize("engine", ["row", "vectorized"])
@pytest.mark.parametrize("schema,op,sql,pushed", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_push_rule_is_result_preserving(schema, op, sql, pushed, engine):
    on = planner_for(build_catalog(), engine=engine).execute(sql)
    catalog = build_catalog()
    stripped = catalog.resolve_schema([schema])
    stripped.rules = [r for r in stripped.rules
                      if not (isinstance(r, PushRule) and r.op == op)]
    off = planner_for(catalog, engine=engine).execute(sql)
    assert pushed in on.explain() and pushed not in off.explain()
    assert on.rows and Counter(on.rows) == Counter(off.rows)


# -- the declaration is the rule set ----------------------------------------


def test_rules_follow_the_declaration():
    for schema in pushdown_schemas(build_catalog()):
        declared = schema.capabilities.pushable_ops
        scan, *pushes, to_enumerable = schema.rules
        assert isinstance(scan, ConverterRule)
        assert scan.rel_class is LogicalTableScan
        assert scan.out_convention is schema.convention
        assert [r.op for r in pushes] == [op for op in OPERATORS if op in declared]
        assert to_enumerable.in_convention is schema.convention
        assert to_enumerable.out_convention is Convention.ENUMERABLE
        hooks = {name[len("push_"):] for name in dir(schema)
                 if name.startswith("push_")}
        assert hooks == declared, type(schema).__name__
        for table in schema.tables.values():
            assert table.capabilities() is schema.capabilities


def test_sort_and_limit_rules_split_sorts_by_keys():
    """A Sort binds exactly one of a backend's sort and limit rules."""
    jdbc = build_catalog().resolve_schema(["db"])
    by_op = {r.op: r for r in jdbc.rules if isinstance(r, PushRule)}
    planner = planner_for(build_catalog())
    for sql, op in [("SELECT name FROM db.emps ORDER BY sal", "sort"),
                    ("SELECT name FROM db.emps LIMIT 1", "limit"),
                    ("SELECT name FROM db.emps ORDER BY sal LIMIT 1", "sort")]:
        sort = planner.rel(sql)
        while not sort.rel_name.endswith("Sort"):
            sort = sort.inputs[0]
        bound = {o for o in ("sort", "limit")
                 if by_op[o].operand.matches_class(sort)}
        assert bound == {op}, sql


def test_a_declared_op_needs_a_push_hook():
    class NoFilterHook(PushdownSchema):
        query_class = JdbcQuery
        capabilities = ScanCapabilities(pushable_ops=frozenset({"filter"}))

    class UnknownOp(PushdownSchema):
        query_class = JdbcQuery
        capabilities = ScanCapabilities(pushable_ops=frozenset({"window"}))

    with pytest.raises(TypeError, match="push_filter"):
        NoFilterHook("x", Convention("x"))
    with pytest.raises(TypeError, match="window"):
        UnknownOp("y", Convention("y"))


def test_spark_rules_follow_the_declaration():
    ops = {r.op for r in spark_rules() if hasattr(r, "op")}
    assert ops == SPARK_CAPABILITIES.pushable_ops


def test_predicate_pushdown_is_the_filter_op():
    assert ScanCapabilities(pushable_ops=frozenset({"filter"})).supports_predicate_pushdown
    assert not ScanCapabilities(
        pushable_ops=frozenset({"project"})).supports_predicate_pushdown
    assert not ScanCapabilities().supports_predicate_pushdown
