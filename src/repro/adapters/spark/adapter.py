"""The Spark adapter (Table 2: target "Java (Resilient Distributed
Datasets)"; the external engine of Figure 2).

Unlike storage adapters, Spark is an *execution* engine: any relational
operator can convert into the ``spark`` convention, where it runs as
RDD transformations.  Converters move rows between other conventions
and Spark — exactly the "converters from jdbc-mysql and splunk to spark
convention" plan the paper walks through in Figure 2.
"""

from __future__ import annotations

from typing import List, Optional

from ...core.cost import RelOptCost
from ...core.rel import (
    Aggregate,
    Converter,
    Filter,
    Join,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    Project,
    RelNode,
)
from ...core.rex_eval import (
    bind_projection,
    compile as compile_rex,
    tuple_getter,
)
from ...core.rule import ConverterRule, RelOptRuleCall
from ...core.traits import Convention, RelTraitSet
from ..capability import ScanCapabilities
from .rdd import RDD, SparkContext

SPARK = Convention("spark")
_SPARK_TRAITS = RelTraitSet(SPARK)

#: Spark is an execution engine, not a storage backend: every listed
#: operator converts into the spark convention and runs as RDD
#: transformations.  It owns no tables, so partitioned *scans* are a
#: property of the sources it reads, not of Spark itself.
SPARK_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter", "project", "join", "aggregate"}),
)

#: module-level context so plans and benches share job counters
DEFAULT_SPARK_CONTEXT = SparkContext()


def _input_rdd(rel: RelNode, ctx) -> RDD:
    """Materialise a child operator's rows as an RDD."""
    from ...runtime.operators import _execute
    sc = DEFAULT_SPARK_CONTEXT
    child = rel.inputs[0] if rel.inputs else rel
    rows = list(_execute(child, ctx))
    return sc.parallelize(rows)


class SparkRel(RelNode):
    """Marker base for operators executing in the spark convention."""

    def rdd(self, ctx) -> RDD:
        raise NotImplementedError

    def execute_rows(self, ctx):
        return self.rdd(ctx).collect()


class SparkFilter(Filter, SparkRel):
    def rdd(self, ctx) -> RDD:
        eval_ctx = ctx.eval_context()
        condition = compile_rex(self.condition)
        return _input_rdd(self, ctx).filter(
            lambda row: condition(row, eval_ctx) is True)

    def compute_self_cost(self, mq) -> RelOptCost:
        in_rows = mq.row_count(self.input)
        # distributed evaluation: cpu split across partitions, but pay a
        # dispatch overhead per operator
        parallelism = DEFAULT_SPARK_CONTEXT.default_parallelism
        return RelOptCost(mq.row_count(self), in_rows / parallelism + 10.0, 5.0)


class SparkProject(Project, SparkRel):
    def rdd(self, ctx) -> RDD:
        return _input_rdd(self, ctx).map(
            bind_projection(self.projects, ctx.eval_context()))

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self)
        parallelism = DEFAULT_SPARK_CONTEXT.default_parallelism
        return RelOptCost(rows, rows * len(self.projects) * 0.1 / parallelism + 10.0, 5.0)


class SparkJoin(Join, SparkRel):
    def rdd(self, ctx) -> RDD:
        from ...runtime.operators import _execute
        sc = DEFAULT_SPARK_CONTEXT
        info = self.analyze_condition()
        left_rows = list(_execute(self.left, ctx))
        right_rows = list(_execute(self.right, ctx))
        left = sc.parallelize(left_rows)
        right = sc.parallelize(right_rows)
        if info.left_keys and not info.non_equi:
            paired = left.key_by(tuple_getter(info.left_keys)).join(
                right.key_by(tuple_getter(info.right_keys)))
            return paired.map(lambda kv: kv[1][0] + kv[1][1])
        eval_ctx = ctx.eval_context()
        condition = compile_rex(self.condition)
        return left.flat_map(
            lambda l: [l + r for r in right_rows
                       if condition(l + r, eval_ctx) is True])

    def compute_self_cost(self, mq) -> RelOptCost:
        left = mq.row_count(self.left)
        right = mq.row_count(self.right)
        rows = mq.row_count(self)
        parallelism = DEFAULT_SPARK_CONTEXT.default_parallelism
        # shuffle both sides + hash join per partition + job overhead
        shuffle_io = (left + right) * 4.0
        return RelOptCost(rows, (left + right) / parallelism + 20.0, shuffle_io)


class SparkAggregate(Aggregate, SparkRel):
    def rdd(self, ctx) -> RDD:
        from ...runtime.operators import aggregate_rows
        # group_by_key's shuffle leaves every group in its one output
        # partition, which the engines' aggregate then runs over (a
        # global one over no rows still yields its one row).
        grouped = _input_rdd(self, ctx).key_by(
            tuple_getter(self.group_set)).group_by_key()
        return grouped.map_partitions(lambda groups: aggregate_rows(
            self, [row for _key, rows in groups for row in rows]))

    def compute_self_cost(self, mq) -> RelOptCost:
        in_rows = mq.row_count(self.input)
        rows = mq.row_count(self)
        parallelism = DEFAULT_SPARK_CONTEXT.default_parallelism
        return RelOptCost(rows, in_rows / parallelism + 20.0, in_rows * 2.0)


class SparkToEnumerableConverter(Converter):
    """Collects RDD results back to the driver."""

    def compute_self_cost(self, mq) -> RelOptCost:
        rows = mq.row_count(self.input)
        return RelOptCost(rows, rows * 0.1, rows * 1.0)


#: pushable op → the logical operator it converts, and its spark twin
#: built over inputs already requested in the spark convention
_SPARK_OPERATORS = {
    "filter": (LogicalFilter, lambda rel, ins: SparkFilter(
        ins[0], rel.condition, _SPARK_TRAITS)),
    "project": (LogicalProject, lambda rel, ins: SparkProject(
        ins[0], rel.projects, rel.field_names, _SPARK_TRAITS)),
    "join": (LogicalJoin, lambda rel, ins: SparkJoin(
        ins[0], ins[1], rel.condition, rel.join_type, _SPARK_TRAITS)),
    "aggregate": (LogicalAggregate, lambda rel, ins: SparkAggregate(
        ins[0], rel.group_set, rel.agg_calls, _SPARK_TRAITS)),
}


class SparkConverterRule(ConverterRule):
    """Convert one declared logical operator into the spark convention."""

    def __init__(self, op: str) -> None:
        logical_class, self.build = _SPARK_OPERATORS[op]
        super().__init__(logical_class, Convention.NONE, SPARK,
                         f"Spark{op.capitalize()}Rule")
        self.op = op

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return self.build(rel, [call.convert_input(i, _SPARK_TRAITS)
                                for i in rel.inputs])


class SparkToEnumerableConverterRule(ConverterRule):
    def __init__(self) -> None:
        super().__init__(RelNode, SPARK, Convention.ENUMERABLE,
                         "SparkToEnumerableConverterRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        return SparkToEnumerableConverter(
            call.convert_input(rel, _SPARK_TRAITS),
            RelTraitSet(Convention.ENUMERABLE))


class EnumerableToSparkConverterRule(ConverterRule):
    """Ship enumerable rows into the Spark engine (Figure 2's
    jdbc-to-spark / splunk-to-spark converters compose this with each
    adapter's to-enumerable converter)."""

    def __init__(self) -> None:
        super().__init__(RelNode, Convention.ENUMERABLE, SPARK,
                         "EnumerableToSparkConverterRule")

    def convert(self, rel: RelNode, call: RelOptRuleCall) -> Optional[RelNode]:
        if isinstance(rel, Converter):
            return None  # avoid converter ping-pong
        converter = Converter(
            call.convert_input(rel, RelTraitSet(Convention.ENUMERABLE)),
            _SPARK_TRAITS)
        return converter


def spark_rules(include_to_spark: bool = True) -> List:
    """One converter rule per op ``SPARK_CAPABILITIES`` declares, plus
    the converters between the enumerable and spark conventions."""
    rules = [SparkConverterRule(op) for op in _SPARK_OPERATORS
             if op in SPARK_CAPABILITIES.pushable_ops]
    rules.append(SparkToEnumerableConverterRule())
    if include_to_spark:
        rules.append(EnumerableToSparkConverterRule())
    return rules
