"""Tests for materialized-view substitution and lattices (Section 6)."""

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.core.rel import LogicalTableScan, TableScan
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import planner_for
from repro.mv import Lattice, Materialization, Measure, try_substitute
from repro.runtime.operators import execute_to_list


@pytest.fixture
def sales():
    catalog = Catalog()
    s = Schema("sales")
    catalog.add_schema(s)
    rows = [(i, i % 5, i % 3, i * 2) for i in range(100)]
    s.add_table(MemoryTable("orders", ["oid", "product", "region", "units"],
                            [F.integer(False)] * 4, rows))
    return catalog, s


class TestSubstitution:
    def test_exact_match_replaced_by_scan(self, sales):
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT product, SUM(units) AS su FROM sales.orders "
                     "GROUP BY product")
        schema.materializations.append(
            Materialization.create(p, "mv1", view, ("sales", "mv1")))
        res = p.execute("SELECT product, SUM(units) AS su FROM sales.orders "
                        "GROUP BY product")
        assert "mv1" in res.explain()
        assert "orders" not in res.explain()
        assert sorted(res.rows)[0] == (0, 1900)

    def test_residual_filter_partial_rewrite(self, sales):
        """The paper: "partial rewritings that include additional
        operators ... filters with residual predicate conditions"."""
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT * FROM sales.orders WHERE units > 50")
        schema.materializations.append(
            Materialization.create(p, "mv_filtered", view, ("sales", "mv_filtered")))
        res = p.execute("SELECT oid FROM sales.orders "
                        "WHERE units > 50 AND region = 1")
        assert "mv_filtered" in res.explain()
        expected = [(i,) for i in range(100) if i * 2 > 50 and i % 3 == 1]
        assert sorted(res.rows) == expected

    def test_rollup_from_finer_aggregate(self, sales):
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT product, region, SUM(units) AS su, COUNT(*) AS c "
                     "FROM sales.orders GROUP BY product, region")
        schema.materializations.append(
            Materialization.create(p, "mv_fine", view, ("sales", "mv_fine")))
        res = p.execute("SELECT product, SUM(units), COUNT(*) "
                        "FROM sales.orders GROUP BY product")
        assert "mv_fine" in res.explain()
        assert sorted(res.rows)[0] == (0, 1900, 20)

    def test_count_rolls_up_as_sum(self, sales):
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT region, COUNT(*) AS c FROM sales.orders GROUP BY region")
        schema.materializations.append(
            Materialization.create(p, "mv_counts", view, ("sales", "mv_counts")))
        res = p.execute("SELECT COUNT(*) FROM sales.orders")
        assert "mv_counts" in res.explain()
        assert res.rows == [(100,)]

    def test_no_match_leaves_plan_alone(self, sales):
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT product, MAX(units) AS mu FROM sales.orders "
                     "GROUP BY product")
        schema.materializations.append(
            Materialization.create(p, "mv_max", view, ("sales", "mv_max")))
        # AVG cannot roll up from MAX
        res = p.execute("SELECT product, AVG(units) FROM sales.orders "
                        "GROUP BY product")
        assert "mv_max" not in res.explain()

    def test_try_substitute_returns_none_when_unmatched(self, sales):
        catalog, schema = sales
        p = planner_for(catalog)
        view = p.rel("SELECT oid FROM sales.orders WHERE units > 9999")
        mat = Materialization.create(p, "m", view)
        other = p.rel("SELECT region FROM sales.orders")
        assert try_substitute(other, [mat]) is None

    def test_materialization_can_be_disabled(self, sales):
        catalog, schema = sales
        from repro.framework import FrameworkConfig, Planner
        p = Planner(FrameworkConfig(catalog, use_materializations=False))
        view = p.rel("SELECT product, SUM(units) AS su FROM sales.orders "
                     "GROUP BY product")
        schema.materializations.append(
            Materialization.create(p, "mv_off", view, ("sales", "mv_off")))
        res = p.execute("SELECT product, SUM(units) AS su FROM sales.orders "
                        "GROUP BY product")
        assert "mv_off" not in res.explain()


GROUP_SQL = "SELECT product, SUM(units) AS su FROM sales.orders GROUP BY product"


def _unsubstituted(catalog, sql):
    return sorted(planner_for(catalog, use_materializations=False)
                  .execute(sql).rows)


class TestStaleness:
    """A view or tile built before an insert into its base table is
    not served: the answer is the one without materializations."""

    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_insert_after_view_create(self, sales, plan_cache):
        catalog, schema = sales
        p = planner_for(catalog, plan_cache=plan_cache)
        schema.materializations.append(Materialization.create(
            p, "mv1", p.rel(GROUP_SQL), ("sales", "mv1")))
        assert "mv1" in p.execute(GROUP_SQL).explain()
        catalog.resolve_table(["sales", "orders"]).source.insert(
            (1000, 0, 3, 50))
        res = p.execute(GROUP_SQL)
        assert "mv1" not in res.explain()
        assert sorted(res.rows) == _unsubstituted(catalog, GROUP_SQL)
        assert sorted(res.rows)[0] == (0, 1950)

    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_insert_after_tile_build(self, sales, plan_cache):
        catalog, schema = sales
        p = planner_for(catalog, plan_cache=plan_cache)
        scan = LogicalTableScan(catalog.resolve_table(["sales", "orders"]))
        lattice = Lattice("star", scan, dimension_columns=[1, 2],
                          measures=[Measure("SUM", 3)])
        schema.lattices.append(lattice)
        lattice.materialize_tile(p, [1])
        sql = "SELECT product, SUM(units) FROM sales.orders GROUP BY product"
        assert "tile" in p.execute(sql).explain()
        scan.table.source.insert((1000, 0, 3, 50))
        res = p.execute(sql)
        assert "tile" not in res.explain()
        assert sorted(res.rows) == _unsubstituted(catalog, sql)

    def test_prepared_statement_replans(self, sales):
        from repro import connect
        catalog, schema = sales
        p = planner_for(catalog)
        schema.materializations.append(Materialization.create(
            p, "mv1", p.rel(GROUP_SQL), ("sales", "mv1")))
        stmt = connect(catalog).prepare(GROUP_SQL)
        assert "mv1" in stmt.plan.explain()
        catalog.resolve_table(["sales", "orders"]).source.insert(
            (1000, 0, 3, 50))
        assert sorted(stmt.execute().fetchall()) == \
            _unsubstituted(catalog, GROUP_SQL)

    def test_plans_without_views_carry_no_list(self, sales):
        catalog, _ = sales
        assert planner_for(catalog).prepare(GROUP_SQL).views == []


def test_jdbc_view_built_by_vectorized_planner(monkeypatch):
    """A view build gets the planner's adapter rules: the aggregate is
    pushed into the jdbc backend's SQL, and the view answers like the
    base tables."""
    from test_golden_plans import build_catalog
    catalog = build_catalog()
    p = planner_for(catalog, engine="vectorized")
    sql = ("SELECT deptno, SUM(score) AS s FROM ev.ratings "
           "WHERE empid > 105 GROUP BY deptno")
    built = []
    execute = p.execute

    def spy(rel, *args):
        result = execute(rel, *args)
        built.append(result.explain())
        return result

    monkeypatch.setattr(p, "execute", spy)
    view = Materialization.create(p, "mv_ev", p.rel(sql), ("ev", "mv_ev"))
    monkeypatch.undo()
    assert "JdbcQuery(sql=[SELECT" in built[0]
    assert "GROUP BY `deptno`" in built[0]
    catalog.resolve_schema(["ev"]).materializations.append(view)
    res = p.execute(sql)
    assert "mv_ev" in res.explain()
    assert sorted(res.rows) == sorted(
        planner_for(catalog, use_materializations=False).execute(sql).rows)


class TestLattice:
    @pytest.fixture
    def lattice_setup(self, sales):
        catalog, schema = sales
        scan = LogicalTableScan(catalog.resolve_table(["sales", "orders"]))
        lattice = Lattice("star", scan, dimension_columns=[1, 2],
                          measures=[Measure("SUM", 3), Measure("COUNT", 3, "cnt")])
        schema.lattices.append(lattice)
        return catalog, schema, lattice

    def test_tile_materialization(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        tile = lattice.materialize_tile(p, [1, 2])
        assert tile.row_count == 15  # 5 products × 3 regions
        assert tile.covers([1])
        assert tile.covers([1, 2])
        assert not tile.covers([0])

    def test_query_answered_from_tile(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        lattice.materialize_tile(p, [1, 2])
        res = p.execute("SELECT region, SUM(units) FROM sales.orders GROUP BY region")
        assert "tile" in res.explain()
        assert lattice.rewrites == 1
        assert sorted(res.rows) == [(0, 3366), (1, 3234), (2, 3300)]

    def test_smallest_covering_tile_chosen(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        big = lattice.materialize_tile(p, [1, 2])
        small = lattice.materialize_tile(p, [2])
        res = p.execute("SELECT region, SUM(units) FROM sales.orders GROUP BY region")
        assert small.table.name in res.explain()

    def test_count_rollup_from_tile(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        lattice.materialize_tile(p, [1])
        res = p.execute("SELECT product, COUNT(*) FROM sales.orders GROUP BY product")
        assert "tile" in res.explain()
        assert all(c == 20 for _p, c in res.rows)

    def test_unmatched_measure_skips_lattice(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        lattice.materialize_tile(p, [1, 2])
        res = p.execute("SELECT region, MIN(units) FROM sales.orders GROUP BY region")
        assert "tile" not in res.explain()

    def test_non_dimension_group_skips_lattice(self, lattice_setup):
        catalog, schema, lattice = lattice_setup
        p = planner_for(catalog)
        lattice.materialize_tile(p, [1, 2])
        res = p.execute("SELECT oid, SUM(units) FROM sales.orders GROUP BY oid")
        assert "tile" not in res.explain()

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            Measure("MEDIAN", 0)
