"""Relational-to-SQL conversion (Section 3).

"Once the query has been optimized, Calcite can translate the
relational expression back to SQL.  This feature allows Calcite to work
as a stand-alone system on top of any data management system with a SQL
interface, but no optimizer."

:class:`RelToSqlConverter` renders an operator tree as SQL text in a
chosen dialect.  Operator trees nest as derived tables with generated
aliases, with adjacent Project/Filter/Sort clauses fused into a single
SELECT where SQL allows.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.rel import (
    Aggregate,
    Filter,
    Intersect,
    Join,
    JoinRelType,
    Minus,
    Project,
    RelNode,
    Sort,
    TableScan,
    Union,
    Values,
)
from ..core.rex import (
    RexCall,
    RexDynamicParam,
    RexFieldAccess,
    RexInputRef,
    RexLiteral,
    RexNode,
    RexOver,
    SqlKind,
)
from ..core.rex_eval import RexExecutionError
from .dialect import SqlDialect, dialect_for


class RelToSqlConverter:
    """Renders relational expressions as SQL strings.

    Without ``parameters`` a dynamic parameter renders as ``?`` (plan
    text, ``explain``).  With them it renders as the literal bound to
    its *rex index* — the text a backend can run: positions in the
    rendered SQL do not identify parameters, because a partially
    pushed predicate carries only some of the statement's markers.
    """

    def __init__(self, dialect: Optional[SqlDialect] = None,
                 parameters: Optional[Sequence[Any]] = None) -> None:
        if isinstance(dialect, str):
            dialect = dialect_for(dialect)
        self.dialect = dialect or SqlDialect()
        self.parameters = parameters
        self._alias_count = 0

    def convert(self, rel: RelNode) -> str:
        sql, _fields = self._to_query(rel)
        return sql

    # ------------------------------------------------------------------
    def _next_alias(self) -> str:
        alias = f"t{self._alias_count}"
        self._alias_count += 1
        return alias

    def _to_query(self, rel: RelNode) -> Tuple[str, List[str]]:
        """Render ``rel`` as a complete SELECT statement."""
        d = self.dialect
        fields = list(rel.row_type.field_names)

        if isinstance(rel, TableScan):
            name = ".".join(d.quote_identifier(p) for p in rel.table.qualified_name)
            return f"SELECT * FROM {name}", fields

        if isinstance(rel, Values):
            if not rel.tuples:
                cols = ", ".join(
                    f"{d.quote_literal(None)} AS {d.quote_identifier(n)}"
                    for n in fields) or "NULL"
                return f"SELECT {cols} WHERE 1 = 0", fields
            rows = ", ".join(
                "(" + ", ".join(d.quote_literal(v.value) for v in row) + ")"
                for row in rel.tuples)
            return f"VALUES {rows}", fields

        if isinstance(rel, Project):
            from_sql, in_fields, where = self._from_with_filter(rel.input)
            items = ", ".join(
                f"{self._rex(p, in_fields)} AS {d.quote_identifier(n)}"
                for p, n in zip(rel.projects, rel.field_names))
            sql = f"SELECT {items} FROM {from_sql}"
            if where:
                sql += f" WHERE {where}"
            return sql, fields

        if isinstance(rel, Filter):
            from_sql, in_fields, where = self._from_with_filter(rel)
            cols = ", ".join(d.quote_identifier(f) for f in in_fields)
            sql = f"SELECT {cols} FROM {from_sql}"
            if where:
                sql += f" WHERE {where}"
            return sql, fields

        if isinstance(rel, Join):
            left_sql, left_fields = self._to_query(rel.left)
            right_sql, right_fields = self._to_query(rel.right)
            left_alias = self._next_alias()
            right_alias = self._next_alias()
            combined = (
                [f"{left_alias}.{d.quote_identifier(f)}" for f in left_fields]
                + [f"{right_alias}.{d.quote_identifier(f)}" for f in right_fields])
            join_kw = {
                JoinRelType.INNER: "INNER JOIN",
                JoinRelType.LEFT: "LEFT JOIN",
                JoinRelType.RIGHT: "RIGHT JOIN",
                JoinRelType.FULL: "FULL JOIN",
                JoinRelType.SEMI: "INNER JOIN",   # approximated below
                JoinRelType.ANTI: "LEFT JOIN",
            }[rel.join_type]
            condition = self._rex_qualified(rel.condition, combined)
            sel_fields = combined if rel.join_type.projects_right else combined[: len(left_fields)]
            cols = ", ".join(
                f"{q} AS {d.quote_identifier(n)}"
                for q, n in zip(sel_fields, fields))
            sql = (f"SELECT {cols} FROM ({left_sql}) AS {left_alias} "
                   f"{join_kw} ({right_sql}) AS {right_alias} ON {condition}")
            return sql, fields

        if isinstance(rel, Aggregate):
            inner_sql, in_fields = self._to_query(rel.input)
            alias = self._next_alias()
            group_cols = [d.quote_identifier(in_fields[g]) for g in rel.group_set]
            items = list(group_cols)
            for call, out_name in zip(
                    rel.agg_calls, fields[len(rel.group_set):]):
                args = ", ".join(d.quote_identifier(in_fields[a]) for a in call.args) or "*"
                if call.distinct:
                    args = "DISTINCT " + args
                fn = call.op.name if call.op.name != "$SUM0" else "SUM"
                items.append(f"{fn}({args}) AS {d.quote_identifier(out_name)}")
            sql = f"SELECT {', '.join(items)} FROM ({inner_sql}) AS {alias}"
            if group_cols:
                sql += " GROUP BY " + ", ".join(group_cols)
            return sql, fields

        if isinstance(rel, Sort):
            inner_sql, in_fields = self._to_query(rel.input)
            alias = self._next_alias()
            sql = f"SELECT * FROM ({inner_sql}) AS {alias}"
            if rel.collation.field_collations:
                keys = ", ".join(
                    d.quote_identifier(in_fields[fc.field_index])
                    + (" DESC" if fc.descending else "")
                    for fc in rel.collation.field_collations)
                sql += f" ORDER BY {keys}"
            clause = d.limit_clause(rel.offset, rel.fetch)
            if clause:
                sql += " " + clause
            return sql, fields

        if isinstance(rel, (Union, Intersect, Minus)):
            op = {"union": "UNION", "intersect": "INTERSECT", "minus": "EXCEPT"}[rel.set_kind]
            if rel.all:
                op += " ALL"
            parts = []
            for i in rel.inputs:
                part_sql, _ = self._to_query(i)
                parts.append(f"({part_sql})")
            return f" {op} ".join(parts), fields

        # converters and other pass-throughs
        if len(rel.inputs) == 1:
            return self._to_query(rel.inputs[0])
        raise ValueError(f"cannot unparse {rel.rel_name} to SQL")

    def _from_with_filter(self, rel: RelNode) -> Tuple[str, List[str], Optional[str]]:
        """Render ``rel`` as a FROM item, fusing one Filter into WHERE."""
        if isinstance(rel, Filter):
            inner_sql, fields = self._to_query(rel.input)
            alias = self._next_alias()
            where = self._rex(rel.condition, fields)
            return f"({inner_sql}) AS {alias}", fields, where
        sql, fields = self._to_query(rel)
        alias = self._next_alias()
        return f"({sql}) AS {alias}", fields, None

    # ------------------------------------------------------------------
    # Rex rendering
    # ------------------------------------------------------------------
    def _rex(self, node: RexNode, fields: List[str]) -> str:
        refs = [self.dialect.quote_identifier(f) for f in fields]
        return self._rex_qualified(node, refs)

    def _rex_qualified(self, node: RexNode, refs: List[str]) -> str:
        d = self.dialect
        if isinstance(node, RexLiteral):
            return d.quote_literal(node.value)
        if isinstance(node, RexInputRef):
            return refs[node.index]
        if isinstance(node, RexDynamicParam):
            if self.parameters is None:
                return "?"
            if node.index >= len(self.parameters):
                raise RexExecutionError(f"unbound parameter ?{node.index}")
            return d.quote_literal(self.parameters[node.index])
        if isinstance(node, RexFieldAccess):
            return f"{self._rex_qualified(node.expr, refs)}.{node.field_name}"
        if isinstance(node, RexOver):
            args = ", ".join(self._rex_qualified(o, refs) for o in node.operands)
            parts = []
            if node.partition_keys:
                parts.append("PARTITION BY " + ", ".join(
                    self._rex_qualified(k, refs) for k in node.partition_keys))
            if node.order_keys:
                parts.append("ORDER BY " + ", ".join(
                    self._rex_qualified(k, refs) + (" DESC" if desc else "")
                    for k, desc in node.order_keys))
            return f"{node.op.name}({args}) OVER ({' '.join(parts)})"
        if isinstance(node, RexCall):
            return self._call(node, refs)
        raise ValueError(f"cannot unparse expression {node!r}")

    def _call(self, call: RexCall, refs: List[str]) -> str:
        d = self.dialect
        args = [self._rex_qualified(o, refs) for o in call.operands]
        kind = call.kind
        if kind is SqlKind.CAST:
            return f"CAST({args[0]} AS {call.type.type_name.value})"
        if kind is SqlKind.CASE:
            parts = ["CASE"]
            i = 0
            while i + 1 < len(args):
                parts.append(f"WHEN {args[i]} THEN {args[i + 1]}")
                i += 2
            if len(args) % 2 == 1:
                parts.append(f"ELSE {args[-1]}")
            parts.append("END")
            return " ".join(parts)
        if kind is SqlKind.ITEM:
            return f"{args[0]}[{args[1]}]"
        if kind is SqlKind.IN:
            return f"{args[0]} IN ({', '.join(args[1:])})"
        if kind is SqlKind.BETWEEN:
            return f"{args[0]} BETWEEN {args[1]} AND {args[2]}"
        if call.op.syntax == "binary" and len(args) == 2:
            return f"({args[0]} {call.op.name} {args[1]})"
        if call.op.syntax == "postfix" and len(args) == 1:
            return f"{args[0]} {call.op.name}"
        if call.op.syntax == "prefix" and len(args) == 1:
            return f"{call.op.name} ({args[0]})"
        return f"{call.op.name}({', '.join(args)})"


def rel_to_sql(rel: RelNode, dialect: str = "calcite") -> str:
    """Convenience wrapper: render ``rel`` in the named dialect."""
    return RelToSqlConverter(dialect_for(dialect)).convert(rel)
