"""SQL validation and conversion to relational algebra (Section 3).

``SqlToRelConverter`` resolves names against the catalog, derives
types, enforces SQL semantic rules (aggregation/grouping, streaming
monotonicity — Section 7.2), expands views and ``*``, and produces a
tree of logical operators ready for the optimizer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import rex as rexmod
from ..core.builder import AggCallSpec, GroupKey, RelBuilder
from ..core.rel import (
    JoinRelType,
    LogicalAggregate,
    LogicalDelta,
    LogicalFilter,
    LogicalProject,
    LogicalSort,
    LogicalUnion,
    LogicalWindow,
    RelNode,
)
from ..core.rex import (
    RexCall,
    RexCorrelVariable,
    RexFieldAccess,
    RexDynamicParam,
    RexInputRef,
    RexLiteral,
    RexNode,
    RexOver,
    RexSubQuery,
    RexWindowBound,
    SqlKind,
    SqlOperator,
)
from ..core.traits import RelCollation, RelFieldCollation
from ..core.types import DEFAULT_TYPE_FACTORY, RelDataType, SqlTypeName
from . import ast as sqlast
from .parser import parse

_F = DEFAULT_TYPE_FACTORY

_AGG_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "COLLECT"}
_WINDOW_ONLY_NAMES = {"ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "LEAD"}
_GROUP_WINDOW_NAMES = {"TUMBLE", "HOP", "SESSION"}
_GROUP_WINDOW_AUX = {
    "TUMBLE_START": ("TUMBLE", "start"),
    "TUMBLE_END": ("TUMBLE", "end"),
    "HOP_START": ("HOP", "start"),
    "HOP_END": ("HOP", "end"),
    "SESSION_START": ("SESSION", "start"),
    "SESSION_END": ("SESSION", "end"),
}
#: group windows the parser knows but no engine implements yet
_UNIMPLEMENTED_WINDOWS = {"HOP", "SESSION", "HOP_START", "HOP_END",
                          "SESSION_START", "SESSION_END"}


class ValidationError(Exception):
    """The query is syntactically valid but semantically wrong."""


class _Namespace:
    """One FROM-clause relation visible in a scope."""

    def __init__(self, alias: Optional[str], row_type: RelDataType, offset: int) -> None:
        self.alias = alias
        self.row_type = row_type
        self.offset = offset


class _Scope:
    """Name-resolution scope: the namespaces of one query level."""

    def __init__(self, namespaces: List[_Namespace],
                 parent: Optional["_Scope"] = None) -> None:
        self.namespaces = namespaces
        self.parent = parent

    def resolve(self, names: List[str]) -> Optional[Tuple[int, RelDataType]]:
        """Resolve an identifier to (absolute index, type) in this scope."""
        if len(names) >= 2:
            qualifier = names[-2].upper()
            column = names[-1]
            for ns in self.namespaces:
                if ns.alias is not None and ns.alias.upper() == qualifier:
                    f = ns.row_type.field_by_name(column)
                    if f is None:
                        raise ValidationError(
                            f"column {column!r} not found in {ns.alias}")
                    return ns.offset + f.index, f.type
            return None
        column = names[-1]
        matches = []
        for ns in self.namespaces:
            f = ns.row_type.field_by_name(column)
            if f is not None:
                matches.append((ns.offset + f.index, f.type))
        if len(matches) > 1:
            raise ValidationError(f"column {column!r} is ambiguous")
        return matches[0] if matches else None


class _AggContext:
    """Post-aggregation name resolution: group keys and agg call slots."""

    def __init__(self) -> None:
        self.group_exprs: List[RexNode] = []        # in pre-agg terms
        self.group_digest_to_index: Dict[str, int] = {}
        self.agg_specs: List[AggCallSpec] = []
        self.agg_digest_to_index: Dict[str, int] = {}
        self.output_row_type: Optional[RelDataType] = None

    @property
    def n_group(self) -> int:
        return len(self.group_exprs)

    def group_ref(self, index: int) -> RexInputRef:
        assert self.output_row_type is not None
        return RexInputRef(index, self.output_row_type.fields[index].type)

    def agg_ref(self, index: int) -> RexInputRef:
        assert self.output_row_type is not None
        absolute = self.n_group + index
        return RexInputRef(absolute, self.output_row_type.fields[absolute].type)


class SqlToRelConverter:
    """Converts parsed SQL to logical relational expressions."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self._cte_stack: List[Dict[str, RelNode]] = []
        self._correlation_count = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def convert_sql(self, sql: str) -> RelNode:
        return self.convert(parse(sql))

    def convert(self, query: sqlast.SqlQuery,
                outer_scope: Optional[_Scope] = None) -> RelNode:
        if isinstance(query, sqlast.SqlWith):
            frame: Dict[str, RelNode] = {}
            self._cte_stack.append(frame)
            try:
                for name, cte_query in query.ctes:
                    frame[name.upper()] = self.convert(cte_query, outer_scope)
                return self.convert(query.body, outer_scope)
            finally:
                self._cte_stack.pop()
        if isinstance(query, sqlast.SqlSetOp):
            return self._convert_setop(query, outer_scope)
        if isinstance(query, sqlast.SqlValues):
            return self._convert_values(query)
        if isinstance(query, sqlast.SqlSelect):
            return self._convert_select(query, outer_scope)
        raise ValidationError(f"unsupported query node {type(query).__name__}")

    # ------------------------------------------------------------------
    # Query shapes
    # ------------------------------------------------------------------
    def _convert_setop(self, query: sqlast.SqlSetOp,
                       outer_scope: Optional[_Scope]) -> RelNode:
        from ..core.rel import LogicalIntersect, LogicalMinus
        left = self.convert(query.left, outer_scope)
        right = self.convert(query.right, outer_scope)
        if left.row_type.field_count != right.row_type.field_count:
            raise ValidationError(
                "set operation inputs have different column counts")
        if query.kind == "UNION":
            return LogicalUnion([left, right], query.all)
        if query.kind == "INTERSECT":
            return LogicalIntersect([left, right], query.all)
        return LogicalMinus([left, right], query.all)

    def _convert_values(self, query: sqlast.SqlValues) -> RelNode:
        from ..core.rel import LogicalValues
        rows: List[List[RexLiteral]] = []
        for row in query.rows:
            literals = []
            for item in row:
                rex = self._convert_expr(item, _Scope([]))
                if not isinstance(rex, RexLiteral):
                    from ..core.rex_simplify import simplify
                    rex = simplify(rex)
                if not isinstance(rex, RexLiteral):
                    raise ValidationError("VALUES rows must be constant")
                literals.append(rex)
            rows.append(literals)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValidationError("VALUES rows have unequal widths")
        names = [f"EXPR${i}" for i in range(width)]
        types = [
            _F.least_restrictive([r[i].type for r in rows]) or _F.any()
            for i in range(width)
        ]
        return LogicalValues(_F.struct(names, types), rows)

    def _convert_select(self, select: sqlast.SqlSelect,
                        outer_scope: Optional[_Scope]) -> RelNode:
        # 1. FROM
        if select.from_clause is not None:
            rel, scope = self._convert_from(select.from_clause, outer_scope)
        else:
            from ..core.rel import LogicalValues
            rel = LogicalValues(_F.struct(["ZERO"], [_F.integer(False)]),
                                [[rexmod.literal(0)]])
            scope = _Scope([_Namespace(None, rel.row_type, 0)], outer_scope)

        # 2. WHERE
        if select.where is not None:
            condition = self._convert_expr(select.where, scope)
            if not condition.type.is_boolean and condition.type.type_name is not SqlTypeName.ANY:
                raise ValidationError("WHERE condition must be boolean")
            rel = LogicalFilter(rel, condition)

        # 3. Aggregation analysis
        has_group = bool(select.group_by)
        agg_nodes = []
        for item in select.select_list:
            agg_nodes.extend(_find_agg_calls(item.expr))
        if select.having is not None:
            agg_nodes.extend(_find_agg_calls(select.having))
        for order_item in select.order_by:
            agg_nodes.extend(_find_agg_calls(order_item.expr))
        needs_agg = has_group or bool(agg_nodes)

        agg_ctx: Optional[_AggContext] = None
        if needs_agg:
            rel, agg_ctx = self._build_aggregate(rel, scope, select, agg_nodes)

        # 4. HAVING
        if select.having is not None:
            if agg_ctx is None:
                raise ValidationError("HAVING requires GROUP BY or aggregates")
            condition = self._convert_post_agg(select.having, scope, agg_ctx)
            rel = LogicalFilter(rel, condition)

        # 5. SELECT list (with window functions)
        window_exprs: List[RexOver] = []

        def convert_item(expr: sqlast.SqlNode) -> RexNode:
            if agg_ctx is not None:
                return self._convert_post_agg(expr, scope, agg_ctx,
                                              window_sink=window_exprs,
                                              window_base=rel.row_type.field_count)
            return self._convert_expr(expr, scope, window_sink=window_exprs,
                                      window_base=rel.row_type.field_count)

        projects: List[RexNode] = []
        names: List[str] = []
        for item in select.select_list:
            if isinstance(item.expr, sqlast.SqlIdentifier) and item.expr.is_star:
                star_refs = self._expand_star(item.expr, scope, agg_ctx, rel)
                for ref, name in star_refs:
                    projects.append(ref)
                    names.append(name)
                continue
            rex = convert_item(item.expr)
            projects.append(rex)
            names.append(item.alias or _derive_name(item.expr, len(names)))

        if window_exprs:
            window_names = [f"w{i}$" for i in range(len(window_exprs))]
            rel = LogicalWindow(rel, list(window_exprs), window_names)

        select_rel = LogicalProject(rel, projects, names)

        # 6. DISTINCT
        if select.distinct:
            select_rel = LogicalAggregate(
                select_rel, list(range(select_rel.row_type.field_count)), [])

        # 7. ORDER BY / LIMIT
        if select.order_by or select.offset is not None or select.fetch is not None:
            select_rel = self._apply_order_by(
                select_rel, select, scope, agg_ctx, projects, names)

        # 8. STREAM (Section 7.2)
        if select.stream:
            self._validate_stream(select, agg_ctx)
            select_rel = LogicalDelta(select_rel)
        return select_rel

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _convert_from(self, item: sqlast.SqlFromItem,
                      outer_scope: Optional[_Scope]) -> Tuple[RelNode, _Scope]:
        rel, namespaces = self._convert_from_item(item, outer_scope, offset=0)
        return rel, _Scope(namespaces, outer_scope)

    def _convert_from_item(self, item: sqlast.SqlFromItem,
                           outer_scope: Optional[_Scope],
                           offset: int) -> Tuple[RelNode, List[_Namespace]]:
        if isinstance(item, sqlast.SqlTableRef):
            rel = self._resolve_table(item.name.names, outer_scope)
            alias = item.alias or item.name.simple
            return rel, [_Namespace(alias, rel.row_type, offset)]
        if isinstance(item, sqlast.SqlDerivedTable):
            rel = self.convert(item.query, outer_scope)
            return rel, [_Namespace(item.alias, rel.row_type, offset)]
        if isinstance(item, sqlast.SqlJoinClause):
            left_rel, left_ns = self._convert_from_item(item.left, outer_scope, offset)
            right_offset = offset + left_rel.row_type.field_count
            right_rel, right_ns = self._convert_from_item(
                item.right, outer_scope, right_offset)
            namespaces = left_ns + right_ns
            join_scope = _Scope(namespaces, outer_scope)
            if item.kind == "CROSS":
                condition: RexNode = rexmod.literal(True)
                join_type = JoinRelType.INNER
            else:
                join_type = {
                    "INNER": JoinRelType.INNER,
                    "LEFT": JoinRelType.LEFT,
                    "RIGHT": JoinRelType.RIGHT,
                    "FULL": JoinRelType.FULL,
                }[item.kind]
                if item.using:
                    conds = []
                    for col in item.using:
                        left_f = self._resolve_in_namespaces(col, left_ns)
                        right_f = self._resolve_in_namespaces(col, right_ns)
                        if left_f is None or right_f is None:
                            raise ValidationError(
                                f"USING column {col!r} missing from join input")
                        conds.append(RexCall(rexmod.EQUALS, [
                            RexInputRef(*left_f), RexInputRef(*right_f)]))
                    condition = rexmod.compose_conjunction(conds) or rexmod.literal(True)
                elif item.condition is not None:
                    condition = self._convert_expr(item.condition, join_scope)
                else:
                    condition = rexmod.literal(True)
            from ..core.rel import LogicalJoin
            join = LogicalJoin(left_rel, right_rel, condition, join_type)
            return join, namespaces
        raise ValidationError(f"unsupported FROM item {type(item).__name__}")

    @staticmethod
    def _resolve_in_namespaces(column: str,
                               namespaces: List[_Namespace]) -> Optional[Tuple[int, RelDataType]]:
        for ns in namespaces:
            f = ns.row_type.field_by_name(column)
            if f is not None:
                return ns.offset + f.index, f.type
        return None

    def _resolve_table(self, names: List[str],
                       outer_scope: Optional[_Scope]) -> RelNode:
        # CTEs shadow catalog tables.
        for frame in reversed(self._cte_stack):
            if len(names) == 1 and names[0].upper() in frame:
                return frame[names[0].upper()]
        found = self.catalog.find_table(names)
        if found is None:
            raise ValidationError(f"table not found: {'.'.join(names)}")
        table, qualified = found
        from ..schema.core import ViewTable
        if isinstance(table, ViewTable):
            return self.convert(parse(table.sql))
        opt_table = self.catalog.resolve_table(names)
        from ..core.rel import LogicalTableScan
        return LogicalTableScan(opt_table)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _build_aggregate(self, rel: RelNode, scope: _Scope,
                         select: sqlast.SqlSelect,
                         agg_nodes: List[sqlast.SqlCall]) -> Tuple[RelNode, _AggContext]:
        ctx = _AggContext()
        # Group keys (may be a TUMBLE group-window call).
        for g in select.group_by:
            rex = self._convert_expr(g, scope)
            if rex.digest not in ctx.group_digest_to_index:
                ctx.group_digest_to_index[rex.digest] = len(ctx.group_exprs)
                ctx.group_exprs.append(rex)
        # Aggregate calls, deduplicated by digest of (op, converted args).
        for call in agg_nodes:
            op = rexmod.OPERATORS.lookup(call.name)
            if op is None or not op.is_aggregate:
                raise ValidationError(f"unknown aggregate {call.name}")
            operands = [self._convert_expr(o, scope) for o in call.operands]
            digest = _agg_digest(op, operands, call.distinct)
            if digest in ctx.agg_digest_to_index:
                continue
            ctx.agg_digest_to_index[digest] = len(ctx.agg_specs)
            ctx.agg_specs.append(AggCallSpec(
                op, call.distinct, f"EXPR${len(ctx.agg_specs)}", operands))
        builder = RelBuilder(self.catalog)
        builder.push(rel)
        builder.aggregate(GroupKey(ctx.group_exprs), *ctx.agg_specs)
        agg_rel = builder.build()
        ctx.output_row_type = agg_rel.row_type
        return agg_rel, ctx

    def _convert_post_agg(self, node: sqlast.SqlNode, scope: _Scope,
                          ctx: _AggContext,
                          window_sink: Optional[List[RexOver]] = None,
                          window_base: int = 0) -> RexNode:
        """Convert an expression evaluated above an Aggregate."""
        # Aggregate call → its output slot.
        if isinstance(node, sqlast.SqlCall) and node.over is None \
                and node.name in _AGG_NAMES:
            op = rexmod.OPERATORS.lookup(node.name)
            assert op is not None
            operands = [self._convert_expr(o, scope) for o in node.operands]
            digest = _agg_digest(op, operands, node.distinct)
            index = ctx.agg_digest_to_index.get(digest)
            if index is None:
                raise ValidationError(f"aggregate {node} not found")
            return ctx.agg_ref(index)
        # Group-window auxiliary functions (TUMBLE_END etc., Section 7.2).
        if isinstance(node, sqlast.SqlCall) and node.name in _GROUP_WINDOW_AUX:
            _check_implemented(node.name)
            base_name, which = _GROUP_WINDOW_AUX[node.name]
            operands = [self._convert_expr(o, scope) for o in node.operands]
            base_op = rexmod.OPERATORS.lookup(base_name)
            assert base_op is not None
            base_digest = RexCall(base_op, operands).digest
            index = ctx.group_digest_to_index.get(base_digest)
            if index is None:
                raise ValidationError(
                    f"{node.name} must match a {base_name} in GROUP BY")
            ref = ctx.group_ref(index)
            if which == "start":
                return ref
            interval = operands[1]
            return RexCall(rexmod.PLUS, [ref, interval], ref.type)
        # Whole-expression group key match.
        try:
            pre = self._convert_expr(node, scope)
            index = ctx.group_digest_to_index.get(pre.digest)
            if index is not None:
                return ctx.group_ref(index)
        except ValidationError:
            pre = None
        # Recurse through calls.
        if isinstance(node, sqlast.SqlCall):
            if node.over is not None:
                raise ValidationError(
                    "window functions over aggregated queries are not supported")
            op = rexmod.OPERATORS.lookup(node.name)
            if op is None:
                raise ValidationError(f"unknown function {node.name}")
            operands = [self._convert_post_agg(o, scope, ctx) for o in node.operands]
            return RexCall(op, operands)
        if isinstance(node, sqlast.SqlCase):
            return self._convert_case(node, scope, lambda n: self._convert_post_agg(n, scope, ctx))
        if isinstance(node, sqlast.SqlCast):
            inner = self._convert_post_agg(node.operand, scope, ctx)
            return RexCall(rexmod.CAST, [inner], _type_from_name(
                node.type_name, node.precision, node.scale))
        if isinstance(node, (sqlast.SqlLiteral, sqlast.SqlIntervalLiteral,
                             sqlast.SqlDynamicParam)):
            return self._convert_expr(node, scope)
        if isinstance(node, sqlast.SqlIdentifier):
            raise ValidationError(
                f"expression {node} is not being grouped")
        raise ValidationError(f"cannot use {node} above GROUP BY")

    # ------------------------------------------------------------------
    # ORDER BY
    # ------------------------------------------------------------------
    def _apply_order_by(self, rel: RelNode, select: sqlast.SqlSelect,
                        scope: _Scope, agg_ctx: Optional[_AggContext],
                        projects: List[RexNode], names: List[str]) -> RelNode:
        collations: List[RelFieldCollation] = []
        extra_exprs: List[RexNode] = []
        for item in select.order_by:
            index = self._order_key_index(item.expr, select, scope, agg_ctx,
                                          projects, names)
            if index is None:
                # SQL allows ordering by input columns not in the select
                # list; extend the projection and trim it again below.
                if not isinstance(rel, LogicalProject):
                    raise ValidationError(
                        f"cannot resolve ORDER BY item {item.expr}")
                if agg_ctx is not None:
                    rex = self._convert_post_agg(item.expr, scope, agg_ctx)
                else:
                    rex = self._convert_expr(item.expr, scope)
                index = len(projects) + len(extra_exprs)
                extra_exprs.append(rex)
            nulls_first = item.nulls_first
            if nulls_first is None:
                nulls_first = item.descending  # SQL default: NULLS LAST asc
            collations.append(RelFieldCollation(index, item.descending, nulls_first))
        if extra_exprs:
            assert isinstance(rel, LogicalProject)
            extended = LogicalProject(
                rel.input, list(rel.projects) + extra_exprs,
                list(rel.field_names) + [f"$sort{i}" for i in range(len(extra_exprs))])
            sorted_rel = LogicalSort(extended, RelCollation(collations),
                                     select.offset, select.fetch)
            trim = [RexInputRef(i, f.type)
                    for i, f in enumerate(rel.row_type.fields)]
            return LogicalProject(sorted_rel, trim, list(rel.field_names))
        return LogicalSort(rel, RelCollation(collations),
                           select.offset, select.fetch)

    def _order_key_index(self, expr: sqlast.SqlNode, select: sqlast.SqlSelect,
                         scope: _Scope, agg_ctx: Optional[_AggContext],
                         projects: List[RexNode], names: List[str]) -> Optional[int]:
        # ordinal
        if isinstance(expr, sqlast.SqlLiteral) and isinstance(expr.value, int):
            ordinal = expr.value - 1
            if 0 <= ordinal < len(projects):
                return ordinal
            raise ValidationError(f"ORDER BY ordinal {expr.value} out of range")
        # alias
        if isinstance(expr, sqlast.SqlIdentifier) and len(expr.names) == 1:
            for i, name in enumerate(names):
                if name.upper() == expr.names[0].upper():
                    return i
        # expression matching a select item
        try:
            if agg_ctx is not None:
                rex = self._convert_post_agg(expr, scope, agg_ctx)
            else:
                rex = self._convert_expr(expr, scope)
        except ValidationError:
            return None
        for i, p in enumerate(projects):
            if p.digest == rex.digest:
                return i
        return None

    # ------------------------------------------------------------------
    # Star expansion
    # ------------------------------------------------------------------
    def _expand_star(self, identifier: sqlast.SqlIdentifier, scope: _Scope,
                     agg_ctx: Optional[_AggContext],
                     rel: RelNode) -> List[Tuple[RexNode, str]]:
        if agg_ctx is not None:
            # SELECT * over GROUP BY: expose group keys then aggregates.
            out = []
            for i, f in enumerate(agg_ctx.output_row_type.fields):
                out.append((RexInputRef(i, f.type), f.name))
            return out
        out = []
        if len(identifier.names) > 1:
            qualifier = identifier.names[-2].upper()
            for ns in scope.namespaces:
                if ns.alias is not None and ns.alias.upper() == qualifier:
                    for f in ns.row_type.fields:
                        out.append((RexInputRef(ns.offset + f.index, f.type), f.name))
                    return out
            raise ValidationError(f"unknown alias {qualifier} in {identifier}")
        for ns in scope.namespaces:
            for f in ns.row_type.fields:
                out.append((RexInputRef(ns.offset + f.index, f.type), f.name))
        return out

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _convert_expr(self, node: sqlast.SqlNode, scope: _Scope,
                      window_sink: Optional[List[RexOver]] = None,
                      window_base: int = 0) -> RexNode:
        if isinstance(node, sqlast.SqlLiteral):
            return self._convert_literal(node)
        if isinstance(node, sqlast.SqlIntervalLiteral):
            return RexLiteral(node.millis(), _F.interval(node.unit))
        if isinstance(node, sqlast.SqlDynamicParam):
            return RexDynamicParam(node.index, _F.any())
        if isinstance(node, sqlast.SqlIdentifier):
            return self._convert_identifier(node, scope)
        if isinstance(node, sqlast.SqlItemAccess):
            collection = self._convert_expr(node.collection, scope)
            index = self._convert_expr(node.index, scope)
            return RexCall(rexmod.ITEM, [collection, index])
        if isinstance(node, sqlast.SqlCase):
            return self._convert_case(node, scope,
                                      lambda n: self._convert_expr(n, scope,
                                                                   window_sink,
                                                                   window_base))
        if isinstance(node, sqlast.SqlCast):
            inner = self._convert_expr(node.operand, scope, window_sink, window_base)
            return RexCall(rexmod.CAST, [inner],
                           _type_from_name(node.type_name, node.precision, node.scale))
        if isinstance(node, sqlast.SqlSubQuery):
            rel = self.convert(node.query, scope)
            return RexSubQuery(SqlKind.OTHER, rel)
        if isinstance(node, sqlast.SqlCall):
            return self._convert_call(node, scope, window_sink, window_base)
        raise ValidationError(f"unsupported expression {type(node).__name__}")

    def _convert_literal(self, node: sqlast.SqlLiteral) -> RexLiteral:
        return rexmod.literal(node.value)

    def _convert_identifier(self, node: sqlast.SqlIdentifier,
                            scope: _Scope) -> RexNode:
        resolved = scope.resolve(node.names)
        if resolved is not None:
            index, typ = resolved
            return RexInputRef(index, typ)
        # correlation with an outer query (Section 3's operator algebra
        # handles this through correlation variables)
        outer = scope.parent
        level = 0
        while outer is not None:
            resolved = outer.resolve(node.names)
            if resolved is not None:
                index, typ = resolved
                fields = []
                for ns in outer.namespaces:
                    fields.extend(ns.row_type.fields)
                outer_row = _F.struct([f.name for f in fields],
                                      [f.type for f in fields])
                correl = RexCorrelVariable(f"$cor{level}", outer_row)
                name = outer_row.fields[index].name
                return RexFieldAccess(correl, name, typ)
            outer = outer.parent
            level += 1
        raise ValidationError(f"column not found: {node}")

    def _convert_case(self, node: sqlast.SqlCase, scope: _Scope, convert) -> RexNode:
        operands: List[RexNode] = []
        if node.value is not None:
            value = convert(node.value)
            for cond, result in node.when_clauses:
                operands.append(RexCall(rexmod.EQUALS, [value, convert(cond)]))
                operands.append(convert(result))
        else:
            for cond, result in node.when_clauses:
                operands.append(convert(cond))
                operands.append(convert(result))
        if node.else_clause is not None:
            operands.append(convert(node.else_clause))
        result_types = [operands[i].type for i in range(1, len(operands), 2)]
        if node.else_clause is not None:
            result_types.append(operands[-1].type)
        result_type = _F.least_restrictive(result_types) or _F.any()
        return RexCall(rexmod.CASE, operands, result_type)

    def _convert_call(self, node: sqlast.SqlCall, scope: _Scope,
                      window_sink: Optional[List[RexOver]],
                      window_base: int) -> RexNode:
        name = node.name
        # window function (OVER clause)
        if node.over is not None:
            if window_sink is None:
                raise ValidationError(
                    f"window function {name} not allowed in this context")
            over = self._convert_over(node, scope)
            window_sink.append(over)
            return RexInputRef(window_base + len(window_sink) - 1, over.type)
        if name in _AGG_NAMES:
            raise ValidationError(
                f"aggregate {name} not allowed in this context")
        if name in _WINDOW_ONLY_NAMES:
            raise ValidationError(
                f"window function {name} requires an OVER clause")
        if name == "EXISTS":
            sub = node.operands[0]
            assert isinstance(sub, sqlast.SqlSubQuery)
            rel = self.convert(sub.query, scope)
            return RexSubQuery(SqlKind.EXISTS, rel)
        if name == "IN" and len(node.operands) == 2 \
                and isinstance(node.operands[1], sqlast.SqlSubQuery):
            value = self._convert_expr(node.operands[0], scope)
            rel = self.convert(node.operands[1].query, scope)
            return RexSubQuery(SqlKind.IN, rel, [value])
        if name == "IN":
            value = self._convert_expr(node.operands[0], scope)
            items = [self._convert_expr(o, scope) for o in node.operands[1:]]
            return RexCall(rexmod.IN, [value] + items)
        if name == "-/1":
            inner = self._convert_expr(node.operands[0], scope, window_sink, window_base)
            if isinstance(inner, RexLiteral) and isinstance(inner.value, (int, float)):
                return rexmod.literal(-inner.value)
            return RexCall(rexmod.UNARY_MINUS, [inner], inner.type)
        _check_implemented(name)
        op = rexmod.OPERATORS.lookup(name)
        if op is None:
            raise ValidationError(f"unknown function or operator {name}")
        operands = [self._convert_expr(o, scope, window_sink, window_base)
                    for o in node.operands]
        return RexCall(op, operands)

    def _convert_over(self, node: sqlast.SqlCall, scope: _Scope) -> RexOver:
        op = rexmod.OPERATORS.lookup(node.name)
        if op is None:
            raise ValidationError(f"unknown window function {node.name}")
        if node.distinct:
            # The window kernels fold every row of the frame.
            raise ValidationError(
                f"DISTINCT is not supported in windowed {node.name}")
        operands = [] if node.star else [
            self._convert_expr(o, scope) for o in node.operands]
        spec = node.over
        assert spec is not None
        partition = [self._convert_expr(p, scope) for p in spec.partition_by]
        order = [(self._convert_expr(o.expr, scope), o.descending)
                 for o in spec.order_by]

        def bound(pair) -> RexWindowBound:
            kind, offset = pair
            if offset is None:
                return RexWindowBound(kind)
            return RexWindowBound(kind, self._convert_expr(offset, scope))

        if not spec.explicit_frame:
            # SQL's default frame: the row's peers and every row before
            # them, which without an ORDER BY is the whole partition.
            return RexOver(op, operands, partition, order,
                           RexWindowBound.UNBOUNDED_PRECEDING,
                           RexWindowBound.CURRENT_ROW if order
                           else RexWindowBound.UNBOUNDED_FOLLOWING, False)
        return RexOver(op, operands, partition, order,
                       bound(spec.lower), bound(spec.upper), spec.is_rows)

    # ------------------------------------------------------------------
    # Streaming validation (Section 7.2)
    # ------------------------------------------------------------------
    def _validate_stream(self, select: sqlast.SqlSelect,
                         agg_ctx: Optional[_AggContext]) -> None:
        """Streaming GROUP BY needs a monotonic expression so windows can
        be closed; the planner "validates that the expression is
        monotonic"."""
        if agg_ctx is None or not select.group_by:
            return
        for g in agg_ctx.group_exprs:
            if _is_monotonic(g):
                return
        raise ValidationError(
            "streaming aggregation requires a monotonic expression "
            "(e.g. TUMBLE on the stream's rowtime) in GROUP BY")


def _check_implemented(name: str) -> None:
    if name in _UNIMPLEMENTED_WINDOWS:
        raise ValidationError(f"group window {name} is not supported yet")


def _is_monotonic(rex: RexNode) -> bool:
    if isinstance(rex, RexCall) and rex.kind in rexmod.GROUP_WINDOW_KINDS:
        return True
    if isinstance(rex, RexCall) and rex.kind is SqlKind.FLOOR:
        return _is_monotonic_operand(rex.operands[0])
    return _is_monotonic_operand(rex)


def _is_monotonic_operand(rex: RexNode) -> bool:
    # A reference to a field whose type is TIMESTAMP named ROWTIME is
    # quasi-monotonic by convention (streams order by rowtime).
    if isinstance(rex, RexInputRef):
        return rex.type.type_name is SqlTypeName.TIMESTAMP
    return False


def _find_agg_calls(node: sqlast.SqlNode) -> List[sqlast.SqlCall]:
    """Aggregate calls in an expression, ignoring windowed (OVER) calls
    and anything inside subqueries."""
    out: List[sqlast.SqlCall] = []

    def walk(n) -> None:
        if isinstance(n, sqlast.SqlSubQuery):
            return
        if isinstance(n, sqlast.SqlCall):
            if n.over is not None:
                return
            if n.name in _AGG_NAMES:
                out.append(n)
                return
            for o in n.operands:
                walk(o)
        elif isinstance(n, sqlast.SqlCase):
            if n.value is not None:
                walk(n.value)
            for cond, result in n.when_clauses:
                walk(cond)
                walk(result)
            if n.else_clause is not None:
                walk(n.else_clause)
        elif isinstance(n, sqlast.SqlCast):
            walk(n.operand)
        elif isinstance(n, sqlast.SqlItemAccess):
            walk(n.collection)
            walk(n.index)

    walk(node)
    return out


def _agg_digest(op: SqlOperator, operands: Sequence[RexNode], distinct: bool) -> str:
    inner = ", ".join(o.digest for o in operands)
    if distinct:
        inner = "DISTINCT " + inner
    return f"{op.name}({inner})"


def _derive_name(expr: sqlast.SqlNode, index: int) -> str:
    if isinstance(expr, sqlast.SqlIdentifier):
        return expr.simple
    return f"EXPR${index}"


def _type_from_name(name: str, precision: Optional[int],
                    scale: Optional[int]) -> RelDataType:
    name = name.upper()
    mapping = {
        "INT": SqlTypeName.INTEGER,
        "INTEGER": SqlTypeName.INTEGER,
        "BIGINT": SqlTypeName.BIGINT,
        "SMALLINT": SqlTypeName.SMALLINT,
        "TINYINT": SqlTypeName.TINYINT,
        "FLOAT": SqlTypeName.FLOAT,
        "REAL": SqlTypeName.REAL,
        "DOUBLE": SqlTypeName.DOUBLE,
        "DECIMAL": SqlTypeName.DECIMAL,
        "NUMERIC": SqlTypeName.DECIMAL,
        "VARCHAR": SqlTypeName.VARCHAR,
        "CHAR": SqlTypeName.CHAR,
        "BOOLEAN": SqlTypeName.BOOLEAN,
        "DATE": SqlTypeName.DATE,
        "TIME": SqlTypeName.TIME,
        "TIMESTAMP": SqlTypeName.TIMESTAMP,
        "GEOMETRY": SqlTypeName.GEOMETRY,
        "ANY": SqlTypeName.ANY,
    }
    if name not in mapping:
        raise ValidationError(f"unknown type {name}")
    return RelDataType(mapping[name], True, precision, scale)
