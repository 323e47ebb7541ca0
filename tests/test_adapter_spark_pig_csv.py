"""Tests for the Spark RDD engine + adapter, Pig translation, and CSV."""

import os

import pytest

from repro import Catalog, MemoryTable, Schema
from repro.adapters.pig import PigTranslationError, rel_to_pig
from repro.adapters.spark import SPARK, SparkContext, spark_rules
from repro.core.builder import RelBuilder
from repro.core.rel import JoinRelType
from repro.core.types import DEFAULT_TYPE_FACTORY as F


class TestRDD:
    @pytest.fixture
    def sc(self):
        return SparkContext(default_parallelism=3)

    def test_parallelize_partitions(self, sc):
        rdd = sc.parallelize(range(10))
        assert rdd.num_partitions() == 3
        assert sorted(rdd.collect()) == list(range(10))

    def test_map_filter_lazy(self, sc):
        rdd = sc.parallelize([1, 2, 3, 4]).map(lambda x: x * 2).filter(lambda x: x > 4)
        assert sc.jobs_run == 0
        assert sorted(rdd.collect()) == [6, 8]
        assert sc.jobs_run == 1

    def test_flat_map(self, sc):
        assert sorted(sc.parallelize([1, 2]).flat_map(lambda x: [x, x]).collect()) \
            == [1, 1, 2, 2]

    def test_pair_join_shuffles(self, sc):
        left = sc.parallelize([(1, "a"), (2, "b")])
        right = sc.parallelize([(1, "x"), (1, "y")])
        out = left.join(right).collect()
        assert sorted(out) == [(1, ("a", "x")), (1, ("a", "y"))]
        assert sc.shuffles >= 2

    def test_group_by_key_reduce_by_key(self, sc):
        pairs = sc.parallelize([(1, 10), (2, 20), (1, 5)])
        grouped = dict(pairs.group_by_key().collect())
        assert sorted(grouped[1]) == [5, 10]
        reduced = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert reduced == {1: 15, 2: 20}

    def test_sort_by_union_distinct(self, sc):
        rdd = sc.parallelize([3, 1, 2])
        assert rdd.sort_by(lambda x: x).collect() == [1, 2, 3]
        assert sorted(rdd.union(sc.parallelize([3])).distinct().collect()) == [1, 2, 3]

    def test_take_count(self, sc):
        rdd = sc.parallelize(range(100))
        assert rdd.count() == 100
        assert len(rdd.take(5)) == 5


class TestSparkAdapter:
    @pytest.fixture
    def catalog(self, hr_catalog):
        return hr_catalog

    def test_query_executes_in_spark_convention(self, catalog):
        """Force spark as the only engine for relational operators."""
        from repro.core.rules import standard_logical_rules
        from repro.core.volcano import VolcanoPlanner
        from repro.runtime.nodes import EnumerableTableScanRule
        from repro.runtime.operators import execute_to_list
        b = RelBuilder(catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        b.join_using(JoinRelType.INNER, "deptno")
        rel = b.build()
        rules = [EnumerableTableScanRule()] + spark_rules()
        planner = VolcanoPlanner(rules=rules)
        best = planner.optimize(rel)
        text = best.explain()
        assert "Spark" in text
        rows = execute_to_list(best)
        assert len(rows) == 5

    def test_spark_aggregate(self, catalog):
        from repro.core.volcano import VolcanoPlanner
        from repro.runtime.nodes import EnumerableTableScanRule
        from repro.runtime.operators import execute_to_list
        b = RelBuilder(catalog)
        b.scan("hr", "emps")
        rel = b.aggregate(b.group_key("deptno"), b.count_star("c")).build()
        planner = VolcanoPlanner(rules=[EnumerableTableScanRule()] + spark_rules())
        best = planner.optimize(rel)
        assert "SparkAggregate" in best.explain()
        assert sorted(execute_to_list(best)) == [(10, 3), (20, 1), (30, 1)]

    @staticmethod
    def _spark_and_row_bags(rel):
        """The bag of rows ``rel`` returns planned in the spark
        convention, and the bag the row engine returns."""
        from collections import Counter
        from repro.core.volcano import VolcanoPlanner
        from repro.runtime.nodes import EnumerableTableScanRule
        from repro.runtime.operators import execute_to_list
        planner = VolcanoPlanner(rules=[EnumerableTableScanRule()] + spark_rules())
        best = planner.optimize(rel)
        assert "SparkAggregate" in best.explain()
        return Counter(execute_to_list(best)), Counter(execute_to_list(rel))

    def test_spark_global_aggregate_over_empty_input(self, catalog):
        b = RelBuilder(catalog)
        b.scan("hr", "emps")
        b.filter(b.greater_than(b.field("sal"), b.literal(99999)))
        rel = b.aggregate(b.group_key(), b.count_star("c"),
                          b.sum(False, "s", b.field("sal")),
                          b.min("m", b.field("name"))).build()
        spark, row = self._spark_and_row_bags(rel)
        assert spark == row == {(0, None, None): 1}

    def test_spark_distinct_aggregate(self, catalog):
        b = RelBuilder(catalog)
        b.scan("hr", "emps")
        rel = b.aggregate(b.group_key("deptno"),
                          b.count(True, "d", b.field("commission")),
                          b.sum(True, "s", b.field("deptno")),
                          b.count_star("c")).build()
        spark, row = self._spark_and_row_bags(rel)
        assert spark == row == {(10, 2, 10, 3): 1, (20, 1, 20, 1): 1,
                                (30, 1, 30, 1): 1}

    def test_spark_jobs_counted(self, catalog):
        from repro.adapters.spark import DEFAULT_SPARK_CONTEXT
        from repro.core.volcano import VolcanoPlanner
        from repro.runtime.nodes import EnumerableTableScanRule
        from repro.runtime.operators import execute_to_list
        b = RelBuilder(catalog)
        rel = (b.scan("hr", "emps")
                .filter(b.greater_than(b.field("sal"), b.literal(7000)))
                .build())
        planner = VolcanoPlanner(rules=[EnumerableTableScanRule()] + spark_rules())
        best = planner.optimize(rel)
        before = DEFAULT_SPARK_CONTEXT.jobs_run
        execute_to_list(best)
        assert DEFAULT_SPARK_CONTEXT.jobs_run > before


class TestPigTranslation:
    def test_paper_section3_script(self, hr_catalog):
        """The builder expression from Section 3 renders as the paper's
        Pig script: LOAD / GROUP / FOREACH GENERATE."""
        b = RelBuilder(hr_catalog)
        rel = (b.scan("hr", "emps")
                .project_fields("deptno", "sal")
                .aggregate(b.group_key("deptno"),
                           b.count(False, "c"),
                           b.sum(False, "s", b.field("sal")))
                .build())
        script = rel_to_pig(rel)
        assert "LOAD 'hr.emps'" in script
        assert "GROUP" in script
        assert "FOREACH" in script
        assert "COUNT(" in script and "SUM(" in script
        assert script.strip().endswith("DUMP a3;") or "DUMP" in script

    def test_filter_renders_by_clause(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        rel = (b.scan("hr", "emps")
                .filter(b.greater_than(b.field("sal"), b.literal(100)))
                .build())
        script = rel_to_pig(rel)
        assert "FILTER" in script and "(sal > 100)" in script

    def test_join_renders(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        rel = b.join_using(JoinRelType.INNER, "deptno").build()
        script = rel_to_pig(rel)
        assert "JOIN" in script and "BY (deptno)" in script

    def test_order_limit(self, hr_catalog):
        b = RelBuilder(hr_catalog)
        rel = b.scan("hr", "emps").sort("sal", descending=True).limit(None, 2).build()
        script = rel_to_pig(rel)
        assert "ORDER" in script and "DESC" in script
        assert "LIMIT" in script

    def test_theta_join_unsupported(self, hr_catalog):
        from repro.core import rex as rexmod
        from repro.core.rex import RexCall, RexInputRef
        b = RelBuilder(hr_catalog)
        b.scan("hr", "emps").scan("hr", "depts")
        cond = RexCall(rexmod.GREATER_THAN, [
            RexInputRef(0, F.integer()), RexInputRef(5, F.integer())])
        rel = b.join(JoinRelType.INNER, cond).build()
        with pytest.raises(PigTranslationError):
            rel_to_pig(rel)


class TestCsvAdapter:
    @pytest.fixture
    def csv_dir(self, tmp_path):
        (tmp_path / "emps.csv").write_text(
            "empid:int,name:string,sal:double\n1,Ann,100.5\n2,Bob,200\n3,Cid,\n")
        (tmp_path / "sniffed.csv").write_text(
            "a,b,c\n1,x,2.5\n2,y,3.5\n")
        return str(tmp_path)

    def test_schema_discovers_files(self, csv_dir):
        from repro.adapters.csv_adapter import CsvSchema
        schema = CsvSchema("csv", csv_dir)
        assert schema.table("emps") is not None
        assert schema.table("sniffed") is not None

    def test_typed_header(self, csv_dir):
        from repro.adapters.csv_adapter import CsvSchema
        table = CsvSchema("csv", csv_dir).table("emps")
        assert table.row_type.field_names == ("empid", "name", "sal")
        rows = list(table.scan())
        assert rows[0] == (1, "Ann", 100.5)
        assert rows[2][2] is None  # empty cell → NULL

    def test_type_sniffing(self, csv_dir):
        from repro.adapters.csv_adapter import CsvSchema
        table = CsvSchema("csv", csv_dir).table("sniffed")
        types = [f.type.type_name.value for f in table.row_type.fields]
        assert types == ["INTEGER", "VARCHAR", "DOUBLE"]

    def test_sql_over_csv(self, csv_dir):
        from repro.adapters.csv_adapter import CsvSchema
        from repro.framework import planner_for
        catalog = Catalog()
        catalog.add_schema(CsvSchema("csv", csv_dir))
        p = planner_for(catalog)
        res = p.execute("SELECT name FROM csv.emps WHERE sal > 150")
        assert res.rows == [("Bob",)]


class TestModelFiles:
    def test_map_schema_with_tables_and_views(self):
        from repro.schema.model import load_model
        model = """
        {"version": "1.0", "defaultSchema": "HR",
         "schemas": [{"name": "HR", "type": "map",
           "tables": [{"name": "emps",
                       "columns": [{"name": "empid", "type": "int"},
                                   {"name": "name", "type": "varchar"}],
                       "rows": [[1, "Ann"], [2, "Bob"]]}],
           "views": [{"name": "first_emp",
                      "sql": "SELECT name FROM hr.emps WHERE empid = 1"}]}]}
        """
        catalog = load_model(model)
        from repro.framework import planner_for
        p = planner_for(catalog)
        assert p.execute("SELECT name FROM emps WHERE empid = 2").rows == [("Bob",)]
        assert p.execute("SELECT * FROM hr.first_emp").rows == [("Ann",)]

    def test_custom_factory_csv(self, tmp_path):
        (tmp_path / "t.csv").write_text("a:int\n5\n")
        from repro.schema.model import load_model
        import json
        model = json.dumps({"schemas": [
            {"name": "files", "type": "custom", "factory": "csv",
             "operand": {"directory": str(tmp_path)}}]})
        catalog = load_model(model)
        from repro.framework import planner_for
        assert planner_for(catalog).execute("SELECT a FROM files.t").rows == [(5,)]

    def test_unknown_factory_rejected(self):
        from repro.schema.model import ModelError, load_model
        with pytest.raises(ModelError):
            load_model('{"schemas": [{"name": "x", "type": "custom", '
                       '"factory": "nope"}]}')

    def test_bad_column_type_rejected(self):
        from repro.schema.model import ModelError, load_model
        with pytest.raises(ModelError):
            load_model('{"schemas": [{"name": "x", "type": "map", "tables": '
                       '[{"name": "t", "columns": [{"name": "a", "type": "blob"}]}]}]}')
