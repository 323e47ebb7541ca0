"""Relational algebra operators (Section 4).

A ``RelNode`` is a relational operator producing a bag of rows with a
ROW type.  Logical operators carry ``Convention.NONE``; adapters and the
enumerable engine subclass these nodes with their own conventions.

Each node has a *digest* — a canonical string over its attributes and
input digests — which the Volcano planner uses to detect equivalent
expressions (Section 6).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .rex import (
    AGG_KINDS,
    MAX,
    MIN,
    SUM,
    SUM0,
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
    SqlOperator,
    input_refs_used,
)
from .traits import Convention, RelCollation, RelFieldCollation, RelTraitSet
from .types import DEFAULT_TYPE_FACTORY, RelDataType, RelDataTypeField

_F = DEFAULT_TYPE_FACTORY

_next_rel_id = itertools.count()


class RelOptTable:
    """The optimizer's handle on a table: name path, row type, statistics.

    Adapters attach themselves through ``table.source`` (the backing
    :class:`repro.schema.core.Table`) so physical operators can reach
    the data, and through ``scan_factory`` so the planner can create the
    right physical scan node for the adapter's convention.

    When the source keeps a ``statistic`` (every
    :class:`repro.schema.core.Table` does), ``row_count`` reads it on
    each access, so estimates follow inserts into the table.  A plan
    already in a plan cache is not re-planned when the count moves:
    inserts do not change the catalog version.
    """

    def __init__(self, qualified_name: Sequence[str], row_type: RelDataType,
                 source: Any = None, row_count: float = 100.0,
                 unique_keys: Sequence[frozenset] = (),
                 collation: RelCollation = RelCollation.EMPTY,
                 scan_factory: Optional[Callable[["RelOptTable"], "RelNode"]] = None) -> None:
        self.qualified_name = tuple(qualified_name)
        self.row_type = row_type
        self.source = source
        self._row_count = row_count
        self.unique_keys = tuple(unique_keys)
        self.collation = collation
        self.scan_factory = scan_factory

    @property
    def row_count(self) -> float:
        statistic = getattr(self.source, "statistic", None)
        return self._row_count if statistic is None else statistic.row_count

    @property
    def name(self) -> str:
        return ".".join(self.qualified_name)

    def __repr__(self) -> str:
        return f"RelOptTable({self.name})"


class JoinRelType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    RIGHT = "right"
    FULL = "full"
    SEMI = "semi"
    ANTI = "anti"

    @property
    def generates_nulls_on_left(self) -> bool:
        return self in (JoinRelType.RIGHT, JoinRelType.FULL)

    @property
    def generates_nulls_on_right(self) -> bool:
        return self in (JoinRelType.LEFT, JoinRelType.FULL)

    @property
    def projects_right(self) -> bool:
        return self not in (JoinRelType.SEMI, JoinRelType.ANTI)


#: the aggregate that merges partial results of each kind: counts and
#: sums add up, MIN and MAX compose
_ROLLUPS = {SqlKind.COUNT: SUM0, SqlKind.SUM: SUM, SqlKind.SUM0: SUM0,
            SqlKind.MIN: MIN, SqlKind.MAX: MAX}


class AggregateCall:
    """One aggregate function application within an Aggregate node."""

    def __init__(self, op: SqlOperator, args: Sequence[int], distinct: bool = False,
                 name: Optional[str] = None, type_: Optional[RelDataType] = None,
                 filter_arg: Optional[int] = None) -> None:
        if op.kind not in AGG_KINDS:
            raise ValueError(f"{op.name} is not an aggregate function")
        self.op = op
        self.args = tuple(args)
        self.distinct = distinct
        self.name = name or op.name.lower()
        self.type = type_ or _F.bigint(False)
        self.filter_arg = filter_arg

    @property
    def digest(self) -> str:
        inner = ", ".join(f"${a}" for a in self.args)
        if self.distinct:
            inner = "DISTINCT " + inner
        s = f"{self.op.name}({inner})"
        if self.filter_arg is not None:
            s += f" FILTER ${self.filter_arg}"
        return s

    def __repr__(self) -> str:
        return self.digest

    def rollup(self) -> Optional[SqlOperator]:
        """The aggregate that merges partial results of this call
        (Calcite's ``SqlAggFunction.getRollup``), which parallel
        partial/final plans, view roll-ups and lattice tiles all use;
        None where partials do not merge: DISTINCT, FILTER, AVG (which
        splits into a SUM and a COUNT), COLLECT and SINGLE_VALUE."""
        if self.distinct or self.filter_arg is not None:
            return None
        return _ROLLUPS.get(self.op.kind)

    def with_args(self, args: Sequence[int], filter_arg: Optional[int] = None) -> "AggregateCall":
        return AggregateCall(self.op, args, self.distinct, self.name, self.type,
                             filter_arg if filter_arg is not None else self.filter_arg)


class RelNode:
    """Base class of all relational operators."""

    def __init__(self, inputs: Sequence["RelNode"], traits: RelTraitSet) -> None:
        self.inputs: List[RelNode] = list(inputs)
        self.traits = traits
        self.id = next(_next_rel_id)
        self._row_type: Optional[RelDataType] = None
        self._digest: Optional[str] = None

    # -- identity -------------------------------------------------------
    @property
    def rel_name(self) -> str:
        return type(self).__name__

    @property
    def convention(self) -> Convention:
        return self.traits.convention

    @property
    def row_type(self) -> RelDataType:
        if self._row_type is None:
            self._row_type = self.derive_row_type()
        return self._row_type

    def derive_row_type(self) -> RelDataType:
        raise NotImplementedError

    def attr_digest(self) -> str:
        """Digest of the node's own attributes (not inputs)."""
        return ""

    @property
    def digest(self) -> str:
        if self._digest is None:
            attrs = self.attr_digest()
            ins = ",".join(i.digest for i in self.inputs)
            self._digest = f"{self.rel_name}:{self.traits!r}({attrs})[{ins}]"
        return self._digest

    def invalidate_digest(self) -> None:
        self._digest = None

    # -- tree plumbing ----------------------------------------------------
    @property
    def input(self) -> "RelNode":
        """The sole input (convenience for single-input operators)."""
        if len(self.inputs) != 1:
            raise ValueError(f"{self.rel_name} has {len(self.inputs)} inputs")
        return self.inputs[0]

    def copy(self, inputs: Optional[Sequence["RelNode"]] = None,
             traits: Optional[RelTraitSet] = None) -> "RelNode":
        """Clone this node with new inputs and/or traits."""
        raise NotImplementedError

    def accept(self, shuttle: "RelShuttle") -> "RelNode":
        return shuttle.visit(self)

    # -- estimation hooks (overridden by metadata; defaults here) --------
    def estimate_row_count(self, mq: Any) -> float:
        return 100.0

    # -- explain ----------------------------------------------------------
    def explain_terms(self) -> List[Tuple[str, Any]]:
        return []

    def explain(self, indent: int = 0) -> str:
        terms = ", ".join(f"{k}=[{v}]" for k, v in self.explain_terms())
        line = "  " * indent + f"{self.rel_name}"
        if self.convention is not Convention.NONE:
            line = "  " * indent + f"{self.rel_name}"
        if terms:
            line += f"({terms})"
        lines = [line]
        for i in self.inputs:
            lines.append(i.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{self.rel_name}#{self.id}"


class RelShuttle:
    """Bottom-up rewriting visitor over rel trees."""

    def visit(self, rel: RelNode) -> RelNode:
        new_inputs = [self.visit(i) for i in rel.inputs]
        if any(a is not b for a, b in zip(new_inputs, rel.inputs)):
            rel = rel.copy(inputs=new_inputs)
        method = getattr(self, "visit_" + type(rel).__name__, None)
        if method is not None:
            return method(rel)
        return rel


# ---------------------------------------------------------------------------
# Core operators
# ---------------------------------------------------------------------------

class TableScan(RelNode):
    """Scan of a table defined by an adapter (Section 5's minimal interface)."""

    def __init__(self, table: RelOptTable, traits: RelTraitSet = RelTraitSet.LOGICAL) -> None:
        super().__init__([], traits)
        self.table = table

    def derive_row_type(self) -> RelDataType:
        return self.table.row_type

    def attr_digest(self) -> str:
        return self.table.name

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "TableScan":
        return type(self)(self.table, traits or self.traits)

    def estimate_row_count(self, mq: Any) -> float:
        return self.table.row_count

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("table", self.table.name)]


class LogicalTableScan(TableScan):
    pass


def scanned_sources(rel: RelNode) -> List[Any]:
    """The distinct ``table.source`` of every :class:`TableScan` in
    ``rel``, in pre-order."""
    out: List[Any] = []

    def walk(node: RelNode) -> None:
        if isinstance(node, TableScan) and node.table.source not in out:
            out.append(node.table.source)
        for child in node.inputs:
            walk(child)

    walk(rel)
    return out


class Filter(RelNode):
    """Keep rows for which ``condition`` evaluates to TRUE."""

    def __init__(self, input_: RelNode, condition: RexNode,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([input_], traits or input_.traits)
        self.condition = condition

    def derive_row_type(self) -> RelDataType:
        return self.input.row_type

    def attr_digest(self) -> str:
        return self.condition.digest

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Filter":
        ins = inputs or self.inputs
        return type(self)(ins[0], self.condition, traits or self.traits)

    def with_condition(self, condition: RexNode) -> "Filter":
        return type(self)(self.input, condition, self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("condition", self.condition.digest)]


class LogicalFilter(Filter):
    pass


class Project(RelNode):
    """Compute output fields from input fields."""

    def __init__(self, input_: RelNode, projects: Sequence[RexNode],
                 field_names: Sequence[str], traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([input_], traits or RelTraitSet(input_.traits.convention))
        self.projects = list(projects)
        self.field_names = list(field_names)
        if len(self.projects) != len(self.field_names):
            raise ValueError("projects and field_names must align")

    def derive_row_type(self) -> RelDataType:
        return _F.struct(self.field_names, [p.type for p in self.projects])

    def attr_digest(self) -> str:
        return ", ".join(
            f"{p.digest} AS {n}" for p, n in zip(self.projects, self.field_names))

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Project":
        ins = inputs or self.inputs
        return type(self)(ins[0], self.projects, self.field_names, traits or self.traits)

    def is_identity(self) -> bool:
        """True when this projection just forwards its input unchanged."""
        in_fields = self.input.row_type.fields
        if len(self.projects) != len(in_fields):
            return False
        for i, p in enumerate(self.projects):
            if not isinstance(p, RexInputRef) or p.index != i:
                return False
            if self.field_names[i] != in_fields[i].name:
                return False
        return True

    def permutation(self) -> Optional[Dict[int, int]]:
        """If all projects are plain refs, map output index → input index."""
        mapping: Dict[int, int] = {}
        for i, p in enumerate(self.projects):
            if not isinstance(p, RexInputRef):
                return None
            mapping[i] = p.index
        return mapping

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [(n, p.digest) for p, n in zip(self.projects, self.field_names)]


class LogicalProject(Project):
    pass


class Join(RelNode):
    """Relational join; ``condition`` refers to the concatenated row."""

    def __init__(self, left: RelNode, right: RelNode, condition: RexNode,
                 join_type: JoinRelType, traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([left, right], traits or RelTraitSet(left.traits.convention))
        self.condition = condition
        self.join_type = join_type

    @property
    def left(self) -> RelNode:
        return self.inputs[0]

    @property
    def right(self) -> RelNode:
        return self.inputs[1]

    def derive_row_type(self) -> RelDataType:
        left_fields = list(self.left.row_type.fields)
        fields: List[RelDataTypeField] = []
        null_left = self.join_type.generates_nulls_on_left
        null_right = self.join_type.generates_nulls_on_right
        for f in left_fields:
            typ = f.type.with_nullable(True) if null_left else f.type
            fields.append(RelDataTypeField(f.name, len(fields), typ))
        if self.join_type.projects_right:
            for f in self.right.row_type.fields:
                typ = f.type.with_nullable(True) if null_right else f.type
                fields.append(RelDataTypeField(f.name, len(fields), typ))
        return _F.struct_of(fields)

    def attr_digest(self) -> str:
        return f"{self.join_type.value}, {self.condition.digest}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Join":
        ins = inputs or self.inputs
        return type(self)(ins[0], ins[1], self.condition, self.join_type,
                          traits or self.traits)

    def with_condition(self, condition: RexNode) -> "Join":
        return type(self)(self.left, self.right, condition, self.join_type, self.traits)

    def analyze_condition(self) -> "JoinInfo":
        return JoinInfo.of(self)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("condition", self.condition.digest), ("joinType", self.join_type.value)]


class LogicalJoin(Join):
    pass


class JoinInfo:
    """Decomposition of a join condition into equi keys + remaining filter."""

    def __init__(self, left_keys: List[int], right_keys: List[int],
                 non_equi: List[RexNode]) -> None:
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.non_equi = non_equi

    @property
    def is_equi(self) -> bool:
        return not self.non_equi

    @staticmethod
    def of(join: Join) -> "JoinInfo":
        from .rex import decompose_conjunction
        n_left = join.left.row_type.field_count
        left_keys: List[int] = []
        right_keys: List[int] = []
        non_equi: List[RexNode] = []
        for conjunct in decompose_conjunction(join.condition):
            matched = False
            if isinstance(conjunct, RexCall) and conjunct.kind is SqlKind.EQUALS:
                a, b = conjunct.operands
                if isinstance(a, RexInputRef) and isinstance(b, RexInputRef):
                    ai, bi = a.index, b.index
                    if ai < n_left <= bi:
                        left_keys.append(ai)
                        right_keys.append(bi - n_left)
                        matched = True
                    elif bi < n_left <= ai:
                        left_keys.append(bi)
                        right_keys.append(ai - n_left)
                        matched = True
            if not matched:
                non_equi.append(conjunct)
        return JoinInfo(left_keys, right_keys, non_equi)


class Correlate(RelNode):
    """Nested-loop correlation: right side re-evaluated per left row."""

    def __init__(self, left: RelNode, right: RelNode, correlation_id: str,
                 required_columns: Sequence[int], join_type: JoinRelType,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([left, right], traits or RelTraitSet(left.traits.convention))
        self.correlation_id = correlation_id
        self.required_columns = tuple(required_columns)
        self.join_type = join_type

    @property
    def left(self) -> RelNode:
        return self.inputs[0]

    @property
    def right(self) -> RelNode:
        return self.inputs[1]

    def derive_row_type(self) -> RelDataType:
        fields = list(self.left.row_type.fields)
        if self.join_type.projects_right:
            for f in self.right.row_type.fields:
                typ = f.type.with_nullable(True) if self.join_type.generates_nulls_on_right else f.type
                fields.append(RelDataTypeField(f.name, len(fields), typ))
        return _F.struct_of(fields)

    def attr_digest(self) -> str:
        return f"{self.correlation_id}, {list(self.required_columns)}, {self.join_type.value}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Correlate":
        ins = inputs or self.inputs
        return type(self)(ins[0], ins[1], self.correlation_id, self.required_columns,
                          self.join_type, traits or self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("correlation", self.correlation_id), ("joinType", self.join_type.value)]


class LogicalCorrelate(Correlate):
    pass


class Aggregate(RelNode):
    """GROUP BY ``group_set`` with aggregate calls."""

    def __init__(self, input_: RelNode, group_set: Sequence[int],
                 agg_calls: Sequence[AggregateCall],
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([input_], traits or RelTraitSet(input_.traits.convention))
        self.group_set = tuple(group_set)
        self.agg_calls = list(agg_calls)

    def derive_row_type(self) -> RelDataType:
        in_fields = self.input.row_type.fields
        fields: List[RelDataTypeField] = []
        for g in self.group_set:
            f = in_fields[g]
            fields.append(RelDataTypeField(f.name, len(fields), f.type))
        for call in self.agg_calls:
            fields.append(RelDataTypeField(call.name, len(fields), call.type))
        return _F.struct_of(fields)

    def attr_digest(self) -> str:
        return f"group={list(self.group_set)}, aggs=[{', '.join(c.digest for c in self.agg_calls)}]"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Aggregate":
        ins = inputs or self.inputs
        return type(self)(ins[0], self.group_set, self.agg_calls, traits or self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("group", list(self.group_set)),
                ("aggs", [c.digest for c in self.agg_calls])]


class LogicalAggregate(Aggregate):
    pass


class Sort(RelNode):
    """Sort, with optional offset/fetch (LIMIT)."""

    def __init__(self, input_: RelNode, collation: RelCollation,
                 offset: Optional[int] = None, fetch: Optional[int] = None,
                 traits: Optional[RelTraitSet] = None) -> None:
        if traits is None:
            traits = RelTraitSet(input_.traits.convention, collation)
        super().__init__([input_], traits)
        self.collation = collation
        self.offset = offset
        self.fetch = fetch

    def derive_row_type(self) -> RelDataType:
        return self.input.row_type

    def attr_digest(self) -> str:
        return f"{self.collation!r}, offset={self.offset}, fetch={self.fetch}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Sort":
        ins = inputs or self.inputs
        return type(self)(ins[0], self.collation, self.offset, self.fetch,
                          traits or self.traits)

    def is_pure_limit(self) -> bool:
        return not self.collation.field_collations

    def explain_terms(self) -> List[Tuple[str, Any]]:
        terms: List[Tuple[str, Any]] = [("collation", repr(self.collation))]
        if self.offset is not None:
            terms.append(("offset", self.offset))
        if self.fetch is not None:
            terms.append(("fetch", self.fetch))
        return terms


class LogicalSort(Sort):
    pass


class SetOp(RelNode):
    """Base for UNION / INTERSECT / MINUS."""

    set_kind = "setop"

    def __init__(self, inputs: Sequence[RelNode], all_: bool,
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__(list(inputs), traits or RelTraitSet(inputs[0].traits.convention))
        self.all = all_

    def derive_row_type(self) -> RelDataType:
        first = self.inputs[0].row_type
        types: List[RelDataType] = []
        for i in range(first.field_count):
            candidates = [inp.row_type.fields[i].type for inp in self.inputs]
            merged = _F.least_restrictive(candidates)
            types.append(merged if merged is not None else _F.any())
        return _F.struct(first.field_names, types)

    def attr_digest(self) -> str:
        return "all" if self.all else "distinct"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "SetOp":
        return type(self)(inputs or self.inputs, self.all, traits or self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("all", self.all)]


class Union(SetOp):
    set_kind = "union"


class LogicalUnion(Union):
    pass


class Intersect(SetOp):
    set_kind = "intersect"


class LogicalIntersect(Intersect):
    pass


class Minus(SetOp):
    set_kind = "minus"


class LogicalMinus(Minus):
    pass


class Values(RelNode):
    """A constant relation given by literal tuples."""

    def __init__(self, row_type: RelDataType, tuples: Sequence[Sequence[RexLiteral]],
                 traits: RelTraitSet = RelTraitSet.LOGICAL) -> None:
        super().__init__([], traits)
        self._values_row_type = row_type
        self.tuples = [tuple(row) for row in tuples]

    def derive_row_type(self) -> RelDataType:
        return self._values_row_type

    def _tuples_text(self) -> str:
        return "; ".join(
            "(" + ", ".join(v.digest for v in row) + ")" for row in self.tuples)

    def attr_digest(self) -> str:
        # The row type is part of the identity: empty Values of
        # different row types are different relations, and one digest
        # would merge their Volcano sets.
        return f"{self._tuples_text()}, type={self.row_type}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Values":
        return type(self)(self._values_row_type, self.tuples, traits or self.traits)

    def estimate_row_count(self, mq: Any) -> float:
        return float(len(self.tuples))

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("tuples", self._tuples_text())]


class LogicalValues(Values):
    @staticmethod
    def empty(row_type: RelDataType) -> "LogicalValues":
        return LogicalValues(row_type, [])


class Window(RelNode):
    """The window operator: computes windowed aggregates (Section 4).

    Input fields pass through, followed by one output field per window
    function.  The window definition (bounds, partitioning, ordering)
    lives in the contained :class:`repro.core.rex.RexOver` expressions.
    """

    def __init__(self, input_: RelNode, window_exprs: Sequence["RexNode"],
                 field_names: Sequence[str],
                 traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([input_], traits or RelTraitSet(input_.traits.convention))
        self.window_exprs = list(window_exprs)
        self.field_names = list(field_names)

    def derive_row_type(self) -> RelDataType:
        fields = list(self.input.row_type.fields)
        for expr, name in zip(self.window_exprs, self.field_names):
            fields.append(RelDataTypeField(name, len(fields), expr.type))
        return _F.struct_of(fields)

    def attr_digest(self) -> str:
        return ", ".join(e.digest for e in self.window_exprs)

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Window":
        ins = inputs or self.inputs
        return type(self)(ins[0], self.window_exprs, self.field_names,
                          traits or self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [(n, e.digest) for e, n in zip(self.window_exprs, self.field_names)]


class LogicalWindow(Window):
    pass


class Delta(RelNode):
    """Streaming delta: converts a relation into a stream (STREAM keyword)."""

    def __init__(self, input_: RelNode, traits: Optional[RelTraitSet] = None) -> None:
        super().__init__([input_], traits or input_.traits)

    def derive_row_type(self) -> RelDataType:
        return self.input.row_type

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Delta":
        ins = inputs or self.inputs
        return type(self)(ins[0], traits or self.traits)


class LogicalDelta(Delta):
    pass


class Converter(RelNode):
    """Converts an expression from one trait value to another (Section 4).

    The most important converters change the *calling convention*,
    moving rows between engines (e.g. the splunk-to-spark converter in
    Figure 2 of the paper).
    """

    def __init__(self, input_: RelNode, out_traits: RelTraitSet) -> None:
        super().__init__([input_], out_traits)

    def derive_row_type(self) -> RelDataType:
        return self.input.row_type

    def attr_digest(self) -> str:
        return f"{self.input.traits!r}->{self.traits!r}"

    def copy(self, inputs: Optional[Sequence[RelNode]] = None,
             traits: Optional[RelTraitSet] = None) -> "Converter":
        ins = inputs or self.inputs
        return type(self)(ins[0], traits or self.traits)

    def explain_terms(self) -> List[Tuple[str, Any]]:
        return [("from", repr(self.input.traits.convention)),
                ("to", repr(self.traits.convention))]


def count_nodes(rel: RelNode) -> int:
    """Number of operators in the tree (for tests and benches)."""
    return 1 + sum(count_nodes(i) for i in rel.inputs)


def collect_scans(rel: RelNode) -> List[TableScan]:
    """All TableScan leaves of the tree, left to right."""
    if isinstance(rel, TableScan):
        return [rel]
    out: List[TableScan] = []
    for i in rel.inputs:
        out.extend(collect_scans(i))
    return out


def fields_used(rel: RelNode) -> set:
    """Input fields referenced directly by this node's expressions."""
    used: set = set()
    if isinstance(rel, Filter):
        used |= input_refs_used(rel.condition)
    elif isinstance(rel, Project):
        for p in rel.projects:
            used |= input_refs_used(p)
    elif isinstance(rel, Join):
        used |= input_refs_used(rel.condition)
    elif isinstance(rel, Aggregate):
        used |= set(rel.group_set)
        for c in rel.agg_calls:
            used |= set(c.args)
            if c.filter_arg is not None:
                used.add(c.filter_arg)
    elif isinstance(rel, Sort):
        used |= set(rel.collation.keys)
    return used
