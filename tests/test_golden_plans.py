"""Golden-plan regression tests.

Snapshots of the optimized physical plan for representative queries
under the standard rule set.  Any change to rules, cost model or planner
internals that alters a chosen plan shows up as a reviewable diff of
``tests/golden_plans/*.txt`` instead of a silent behaviour change.

Regenerate after an intentional planner change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_plans.py
"""

import os
import pathlib

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.adapters.jdbc import JdbcSchema, MiniDb
from repro.core.traits import Convention
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden_plans"


def build_catalog() -> Catalog:
    """A deterministic catalog — two in-process schemas and one jdbc
    schema (no random data: plan choice depends only on statistics,
    which are fixed here)."""
    catalog = Catalog()
    hr = Schema("hr")
    catalog.add_schema(hr)
    hr.add_table(MemoryTable(
        "emps", ["empid", "deptno", "name", "sal", "commission"],
        [F.integer(False), F.integer(False), F.varchar(), F.integer(),
         F.integer()],
        [(100 + i, 10 * (1 + i % 3), f"e{i}", 5000 + 100 * i,
          None if i % 4 == 0 else 10 * i)
         for i in range(20)]))
    hr.add_table(MemoryTable(
        "depts", ["deptno", "dname"],
        [F.integer(False), F.varchar()],
        [(10, "Sales"), (20, "Marketing"), (30, "HR"), (40, "Empty")]))
    s = Schema("s")
    catalog.add_schema(s)
    s.add_table(MemoryTable(
        "products", ["productId", "name", "category"],
        [F.integer(False), F.varchar(), F.varchar()],
        [(pid, f"prod{pid}", "ABC"[pid % 3]) for pid in range(30)]))
    s.add_table(MemoryTable(
        "sales", ["saleId", "productId", "discount", "units"],
        [F.integer(False), F.integer(False), F.integer(), F.integer(False)],
        [(i, i % 30, None if i % 3 else 5, 1 + i % 7) for i in range(600)]))
    ev = JdbcSchema("ev", MiniDb("ev"))
    catalog.add_schema(ev)
    ev.add_jdbc_table(
        "ratings", ["empid", "deptno", "rater", "score"],
        [F.integer(False), F.integer(False), F.integer(False), F.integer()],
        [(100 + i % 20, 10 * (1 + i % 3), i % 4, 1 + i % 5)
         for i in range(80)])
    return catalog


#: (snapshot name, engine, SQL)
GOLDEN_QUERIES = [
    ("filter_project", "row",
     "SELECT name, sal + 100 FROM hr.emps WHERE deptno = 10"),
    ("filter_into_join", "row",
     "SELECT e.name, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno = d.deptno WHERE e.sal > 6000"),
    ("join_aggregate_order", "row",
     "SELECT p.name, SUM(sa.units) AS total FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "GROUP BY p.name ORDER BY total DESC"),
    ("three_way_join", "row",
     "SELECT e.name, d.dname, p.name FROM hr.emps e "
     "JOIN hr.depts d ON e.deptno = d.deptno "
     "JOIN s.products p ON e.empid = p.productId"),
    ("distinct_aggregate", "row",
     "SELECT deptno, COUNT(DISTINCT name) FROM hr.emps GROUP BY deptno"),
    ("sort_limit", "row",
     "SELECT empid, sal FROM hr.emps ORDER BY sal DESC LIMIT 5"),
    ("union_distinct", "row",
     "SELECT deptno FROM hr.emps UNION SELECT deptno FROM hr.depts"),
    ("having_filter", "row",
     "SELECT deptno, COUNT(*) AS c FROM hr.emps "
     "GROUP BY deptno HAVING COUNT(*) > 3"),
    ("case_projection", "row",
     "SELECT empid, CASE WHEN commission IS NULL THEN 0 ELSE commission END "
     "FROM hr.emps WHERE sal > 5500"),
    ("in_values_filter", "row",
     "SELECT name FROM s.products WHERE category IN ('A', 'B')"),
    # The shapes the committed benchmark serves prepared (``serve_cached``,
    # bench/data.py): a point lookup on a key, and a key lookup joined to
    # a small dimension (``project_manager``).
    ("point_lookup_param", "row",
     "SELECT empid, name, sal FROM hr.emps WHERE empid = ?"),
    ("lookup_join_param", "row",
     "SELECT e.name, d.dname FROM hr.emps e "
     "JOIN hr.depts d ON e.deptno = d.deptno WHERE e.empid = ?"),
    # The same plans under the vectorized engine: the snapshot documents
    # the convention change and the absence of row/batch bridges on
    # single-backend memory plans.
    ("filter_into_join_vectorized", "vectorized",
     "SELECT e.name, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno = d.deptno WHERE e.sal > 6000"),
    ("join_aggregate_order_vectorized", "vectorized",
     "SELECT p.name, SUM(sa.units) AS total FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "GROUP BY p.name ORDER BY total DESC"),
    # Parallel (4-worker) variants: the snapshots document where the
    # exchange-insertion rules place exchanges — and, just as
    # importantly, where they do not (no distribution requirement, no
    # exchange).
    ("filter_into_join_parallel", "vectorized-p4",
     "SELECT e.name, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno = d.deptno WHERE e.sal > 6000"),
    ("join_aggregate_order_parallel", "vectorized-p4",
     "SELECT p.name, SUM(sa.units) AS total FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "GROUP BY p.name ORDER BY total DESC"),
    ("global_avg_parallel", "vectorized-p4",
     "SELECT AVG(sal), COUNT(*) FROM hr.emps"),
    ("filter_project_parallel", "vectorized-p4",
     "SELECT name, sal + 100 FROM hr.emps WHERE deptno = 10"),
    # Window over a partitionable scan: PARTITION BY is served
    # co-partitioned by the backend — shard-local evaluation, no
    # exchange except the root gather (and zero rows shuffled, see
    # test_copartitioned_window_shuffles_nothing).
    ("window_copartitioned_parallel", "vectorized-p4",
     "SELECT empid, deptno, "
     "SUM(sal) OVER (PARTITION BY deptno ORDER BY empid) FROM hr.emps"),
    ("window_vectorized", "vectorized",
     "SELECT empid, deptno, "
     "RANK() OVER (PARTITION BY deptno ORDER BY sal DESC) FROM hr.emps"),
    # Joins the batch hash join cannot run: a theta condition, and an
    # equi condition with a residual under an outer join.
    ("theta_join_vectorized", "vectorized",
     "SELECT e.name, d.dname FROM hr.emps e JOIN hr.depts d "
     "ON e.deptno < d.deptno"),
    ("residual_left_join_vectorized", "vectorized",
     "SELECT e.name, d.dname FROM hr.emps e LEFT JOIN hr.depts d "
     "ON e.deptno = d.deptno AND e.sal > d.deptno * 200"),
    # Distinct UNION with a computed input column: no elision possible
    # on that input, so it hash-exchanges on the full row and dedups
    # per worker instead of gathering below the union.
    ("union_distinct_exchange_parallel", "vectorized-p4",
     "SELECT deptno * 2 FROM hr.emps UNION SELECT deptno FROM hr.depts"),
    # The shapes the committed benchmark plans cold (``adhoc_cold``,
    # bench/data.py) over this catalog: a change to how the search is
    # driven must leave them byte-identical.
    ("bench_filter_scan_vectorized", "vectorized",
     "SELECT empid, sal FROM hr.emps WHERE sal > 6000 AND deptno = 10"),
    ("bench_filter_agg_vectorized", "vectorized",
     "SELECT deptno, COUNT(*) AS n, AVG(sal) AS a FROM hr.emps "
     "WHERE sal > 5500 GROUP BY deptno"),
    ("bench_join_agg_vectorized", "vectorized",
     "SELECT p.category, COUNT(*) AS n, SUM(sa.units) AS s FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "WHERE sa.units > 2 GROUP BY p.category"),
    ("bench_federated_join_agg_vectorized", "vectorized",
     "SELECT d.dname, COUNT(*) AS n, AVG(r.score) AS a FROM ev.ratings r "
     "JOIN hr.depts d ON r.deptno = d.deptno "
     "WHERE r.empid > 105 GROUP BY d.dname"),
    ("bench_federated_join_agg_parallel", "vectorized-p2",
     "SELECT d.dname, COUNT(*) AS n, AVG(r.score) AS a FROM ev.ratings r "
     "JOIN hr.depts d ON r.deptno = d.deptno "
     "WHERE r.empid > 105 GROUP BY d.dname"),
    # ``evaluations_by_document`` (``federated_parallel``): jdbc joined to
    # memory and grouped on the jdbc side's join key; both inputs are
    # too large to broadcast, so at two workers both are served as
    # co-partitioned shards.
    ("bench_evaluations_by_document_vectorized", "vectorized",
     "SELECT r.empid, COUNT(*) AS n, MAX(sa.units) AS y FROM ev.ratings r "
     "JOIN s.sales sa ON r.empid = sa.saleId "
     "WHERE r.rater > 0 GROUP BY r.empid"),
    ("bench_evaluations_by_document_parallel", "vectorized-p2",
     "SELECT r.empid, COUNT(*) AS n, MAX(sa.units) AS y FROM ev.ratings r "
     "JOIN s.sales sa ON r.empid = sa.saleId "
     "WHERE r.rater > 0 GROUP BY r.empid"),
    ("bench_jdbc_window_vectorized", "vectorized",
     "SELECT r.empid, r.rater, SUM(r.score) OVER "
     "(PARTITION BY r.deptno ORDER BY r.empid, r.rater) AS rs "
     "FROM ev.ratings r WHERE r.rater = 3 AND r.empid > 101"),
    ("bench_union_vectorized", "vectorized",
     "SELECT productId FROM s.products WHERE category = 'A' "
     "UNION SELECT productId FROM s.sales WHERE units > 5"),
    ("bench_join_order_limit_vectorized", "vectorized",
     "SELECT sa.saleId, p.name, sa.units FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "ORDER BY sa.units DESC, sa.saleId LIMIT 7 OFFSET 2"),
    # The shapes the benchmark serves cached (``analytic_scan``, and at
    # two workers ``federated_parallel``): a fact table joined to a
    # filtered dimension under a grouped aggregate
    # (``chunks_join_document``), and a running sum partitioned by a
    # foreign key (``chunk_running_sum``).
    ("bench_chunks_join_document_vectorized", "vectorized",
     "SELECT p.category, COUNT(*) AS n, SUM(sa.units) AS s FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "WHERE p.name <> 'prod3' GROUP BY p.category"),
    ("bench_chunks_join_document_parallel", "vectorized-p2",
     "SELECT p.category, COUNT(*) AS n, SUM(sa.units) AS s FROM s.sales sa "
     "JOIN s.products p ON sa.productId = p.productId "
     "WHERE p.name <> 'prod3' GROUP BY p.category"),
    ("bench_chunk_running_sum_vectorized", "vectorized",
     "SELECT saleId, productId, SUM(units) OVER "
     "(PARTITION BY productId ORDER BY saleId) AS running "
     "FROM s.sales WHERE units > 2"),
    ("bench_chunk_running_sum_parallel", "vectorized-p2",
     "SELECT saleId, productId, SUM(units) OVER "
     "(PARTITION BY productId ORDER BY saleId) AS running "
     "FROM s.sales WHERE units > 2"),
]


_PLANNERS = {}


def _planner(engine: str) -> Planner:
    if engine not in _PLANNERS:
        name, _, suffix = engine.partition("-p")
        parallelism = int(suffix) if suffix else 1
        _PLANNERS[engine] = Planner(FrameworkConfig(
            build_catalog(), engine=name, parallelism=parallelism))
    return _PLANNERS[engine]


@pytest.mark.parametrize(
    "name,engine,sql",
    [pytest.param(*case, id=case[0]) for case in GOLDEN_QUERIES])
def test_optimized_plan_matches_golden(name, engine, sql):
    planner = _planner(engine)
    plan_text = planner.optimize(planner.rel(sql)).explain() + "\n"
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("GOLDEN_REGEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(plan_text)
        pytest.skip(f"regenerated {golden_path.name}")
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path.name}; "
        f"run with GOLDEN_REGEN=1 to create it")
    assert plan_text == golden_path.read_text(), (
        f"optimized plan for {name!r} changed; if intentional, regenerate "
        f"with GOLDEN_REGEN=1")


def test_copartitioned_window_shuffles_nothing():
    """The co-partitioned window golden plan must not just *look*
    shuffle-free — executing it must move zero rows across exchange
    edges (the shards are served directly by the backend)."""
    planner = _planner("vectorized-p4")
    sql = ("SELECT empid, deptno, "
           "SUM(sal) OVER (PARTITION BY deptno ORDER BY empid) FROM hr.emps")
    text = planner.optimize(planner.rel(sql)).explain()
    assert "VectorizedWindow" in text
    assert "HashExchange" not in text
    result = planner.execute(sql)
    assert result.context.rows_shuffled == 0


# -- every node of an extracted plan carries the required convention ----------


def _off_convention(plan, convention, prefix, allowed=()):
    """Nodes of an extracted plan that are not operators of the engine's
    convention: a foreign convention trait, or a class of another family
    (a ``Logical*`` node carrying physical traits).  Subtrees under an
    ``allowed`` node — a bridge into the engine — are another
    convention's business."""
    out = []

    def check(rel):
        if isinstance(rel, allowed):
            return
        if (rel.traits.convention is not convention
                or not rel.rel_name.startswith(prefix)):
            out.append(f"{rel.rel_name}:{rel.traits.convention}")
        for i in rel.inputs:
            check(i)

    check(plan)
    return out


@pytest.mark.parametrize(
    "name,sql",
    [pytest.param(name, sql, id=name)
     for name, engine, sql in GOLDEN_QUERIES if engine == "row"])
def test_row_plan_is_enumerable_throughout(name, sql):
    planner = _planner("row")
    plan = planner.optimize(planner.rel(sql))
    assert _off_convention(plan, Convention.ENUMERABLE, "Enumerable") == []


@pytest.mark.parametrize(
    "name,sql",
    [pytest.param(name, sql, id=name)
     for name, engine, sql in GOLDEN_QUERIES if engine == "vectorized"])
def test_vectorized_plan_is_vectorized_throughout(name, sql):
    """Down to the ``RowToBatch`` bridges, and under each bridge only an
    adapter's converter over its query leaf: rows enter a vectorized
    plan at adapter leaves, never through a row-engine operator."""
    from repro.core.rel import Converter
    from repro.runtime.vectorized.nodes import RowToBatch
    planner = _planner("vectorized")
    plan = planner.optimize(planner.rel(sql))
    assert _off_convention(plan, Convention.VECTORIZED, "Vectorized",
                           allowed=(RowToBatch,)) == []

    def bridged(rel):
        if isinstance(rel, RowToBatch):
            yield rel.input
        else:
            for i in rel.inputs:
                yield from bridged(i)

    for converter in bridged(plan):
        (leaf,) = converter.inputs
        assert type(converter) is Converter, converter.rel_name
        assert converter.traits.convention is Convention.ENUMERABLE
        assert leaf.inputs == [], leaf.rel_name
        assert not leaf.rel_name.startswith("Enumerable"), leaf.rel_name


def unread_join_fields(plan):
    """``(join input, unread fields)`` for every vectorized hash join
    input that carries a field nothing above it reads.

    Reads are followed top-down from the root, which reads its whole
    row: filters, sorts and windows read what their expressions name
    plus what passes through them to a reader above; projects and
    aggregates read only what their expressions name; a join reads its
    condition plus what its readers take from either side; any other
    node reads all of its input."""
    from repro.core.rel import (
        Aggregate, Filter, Join, Project, Sort, Window, fields_used)
    from repro.core.rex import input_refs_used
    from repro.runtime.vectorized.nodes import VectorizedHashJoin

    found = []

    def walk(rel, read):
        if isinstance(rel, (Project, Aggregate)):
            walk(rel.input, fields_used(rel))
        elif isinstance(rel, (Filter, Sort)):
            walk(rel.input, read | fields_used(rel))
        elif isinstance(rel, Window):
            width = rel.input.row_type.field_count
            inner = {i for i in read if i < width}
            for over in rel.window_exprs:
                inner |= input_refs_used(over)
            walk(rel.input, inner)
        elif isinstance(rel, Join):
            read = read | fields_used(rel)
            width = rel.left.row_type.field_count
            sides = [(rel.left, {i for i in read if i < width}),
                     (rel.right, {i - width for i in read if i >= width})]
            for side, side_read in sides:
                unread = set(range(side.row_type.field_count)) - side_read
                if unread and isinstance(rel, VectorizedHashJoin):
                    found.append((side.rel_name, sorted(unread)))
                walk(side, side_read)
        else:
            for i in rel.inputs:
                walk(i, set(range(i.row_type.field_count)))

    walk(plan, set(range(plan.row_type.field_count)))
    return found


@pytest.mark.parametrize(
    "name,engine,sql",
    [pytest.param(*case, id=case[0]) for case in GOLDEN_QUERIES
     if case[1].startswith("vectorized")])
def test_vectorized_join_inputs_carry_only_read_fields(name, engine, sql):
    planner = _planner(engine)
    assert unread_join_fields(planner.optimize(planner.rel(sql))) == []


def test_commuted_join_under_project_is_enumerable_throughout():
    """The shape of the bench's ``project_manager`` lookup: a filtered
    dimension joined to a larger table, so the join is commuted."""
    planner = _planner("row")
    plan = planner.optimize(planner.rel(
        "SELECT d.dname, e.name FROM hr.depts d JOIN hr.emps e "
        "ON d.deptno = e.deptno WHERE d.deptno = ?"))
    assert _off_convention(plan, Convention.ENUMERABLE, "Enumerable") == []


# -- one rule table per engine -------------------------------------------------


def test_row_planner_rules_are_unchanged():
    """The row engine plans with the same rules, in the same order, as
    before the vectorized planner dropped the row engine's rules."""
    names = [type(r).__name__ for r in _planner("row").all_rules()]
    assert names == [
        "FilterIntoJoinRule", "JoinConditionPushRule",
        "FilterProjectTransposeRule", "FilterMergeRule",
        "FilterAggregateTransposeRule", "FilterSetOpTransposeRule",
        "ProjectMergeRule", "ProjectRemoveRule", "ProjectJoinTransposeRule",
        "ProjectSetOpTransposeRule", "ProjectSortTransposeRule",
        "FilterSimplifyRule", "ProjectSimplifyRule",
        "FilterFalseRule", "FilterEmptyRule", "ProjectEmptyRule",
        "JoinLeftEmptyRule", "JoinRightEmptyRule", "SortEmptyRule",
        "AggregateEmptyRule", "UnionPruneEmptyRule",
        "SortRemoveRule", "SortMergeRule", "SortProjectTransposeRule",
        "AggregateProjectMergeRule", "AggregateRemoveRule",
        "AggregateUnionAggregateRule",
        "JoinCommuteRule", "JoinAssociateRule",
        "EnumerableTableScanRule", "EnumerableFilterRule",
        "EnumerableProjectRule", "EnumerableJoinRule",
        "EnumerableAggregateRule", "EnumerableSortRule",
        "EnumerableUnionRule", "EnumerableIntersectRule",
        "EnumerableMinusRule", "EnumerableValuesRule",
        "EnumerableWindowRule", "EnumerableCorrelateRule",
        "EnumerableKeyLookupRule",
        # the catalog's jdbc schema
        "_ScanRule", "PushRule", "PushRule", "PushRule", "PushRule",
        "PushRule", "PushRule", "_ToEnumerableRule",
    ]


def test_vectorized_planner_registers_no_row_engine_rule():
    rules = _planner("vectorized").all_rules()
    assert [type(r).__name__ for r in rules
            if type(r).__name__.startswith("Enumerable")] == []
    assert "RowToBatchRule" in [type(r).__name__ for r in rules]


# -- search effort -----------------------------------------------------------


def test_join_order_limit_search_stays_small(monkeypatch):
    """A two-table join with ORDER BY ... LIMIT on the vectorized engine
    took 8 934 rule matches while transformation rules also bound the
    Enumerable*/Vectorized* members of every set; bound to logical
    operators it took 304, and 165 once the vectorized planner stopped
    registering the row engine's converter rules."""
    from repro.core import volcano
    calls = []

    class RecordedCall(volcano.RelOptRuleCall):
        def __init__(self, *args):
            super().__init__(*args)
            calls.append(self)

    monkeypatch.setattr(volcano, "RelOptRuleCall", RecordedCall)
    planner = _planner("vectorized")
    sql = next(sql for name, _, sql in GOLDEN_QUERIES
               if name == "bench_join_order_limit_vectorized")
    planner.optimize(planner.rel(sql))
    search = planner.last_volcano
    assert 0 < search.matches_fired <= 165
    assert len(calls) == sum(s.queued for s in search.rule_stats.values())
    transformations = [
        call for call in calls
        if type(call.rule).__module__.startswith("repro.core.rules.")]
    assert transformations
    assert [call for call in transformations
            if any(r.traits.convention is not Convention.NONE
                   for r in call.rels)] == []
