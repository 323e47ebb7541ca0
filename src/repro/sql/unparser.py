"""Relational-to-SQL conversion (Section 3).

"Once the query has been optimized, Calcite can translate the
relational expression back to SQL.  This feature allows Calcite to work
as a stand-alone system on top of any data management system with a SQL
interface, but no optimizer."

:class:`RelToSqlConverter` renders an operator tree as SQL text in a
chosen dialect.  A Filter/Project/Aggregate/Sort chain over a scan
renders as one flat SELECT; derived tables, with generated aliases,
open only where SQL's clause order forces one (see
:meth:`RelToSqlConverter._select`).
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


class _Select:
    """A SELECT statement assembled clause by clause."""

    __slots__ = ("from_", "refs", "star", "computed", "where", "group", "tail")

    def __init__(self, from_: str, refs: List[str], star: bool = True) -> None:
        self.from_ = from_
        #: the SQL text of each field of the current row
        self.refs = refs
        #: the current row is exactly the FROM item's columns
        self.star = star
        #: some field of the current row is an expression, not a column
        self.computed = False
        self.where: List[str] = []
        #: GROUP BY items once an aggregate is set (``[]``: global)
        self.group: Optional[List[str]] = None
        #: ORDER BY and LIMIT text
        self.tail = ""


def _conjunct(condition: RexNode, text: str) -> str:
    """``text`` safe to AND with another predicate: binary calls render
    parenthesized already."""
    if isinstance(condition, RexCall) and condition.op.syntax == "binary":
        return text
    return f"({text})"


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
        """Render ``rel`` as a complete statement."""
        d = self.dialect
        fields = list(rel.row_type.field_names)

        if isinstance(rel, TableScan):
            return f"SELECT * FROM {self._table_name(rel)}", fields

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

        if isinstance(rel, (Union, Intersect, Minus)):
            op = {"union": "UNION", "intersect": "INTERSECT", "minus": "EXCEPT"}[rel.set_kind]
            if rel.all:
                op += " ALL"
            # Operands stay bare SELECTs (SQLite rejects parenthesized
            # ones); one with ORDER BY/LIMIT is read as a derived table.
            parts = []
            for i in rel.inputs:
                sel = self._select(i)
                if sel.tail:
                    sel = self._wrap(i, sel)
                parts.append(self._render(sel, i.row_type.field_names))
            return f" {op} ".join(parts), fields

        return self._render(self._select(rel), fields), fields

    def _select(self, rel: RelNode) -> "_Select":
        """``rel`` as a SELECT still open to the clauses above it.

        An operator joins the SELECT of its input when its clause is
        evaluated after every clause already set there — WHERE after
        FROM, GROUP BY after WHERE, ORDER BY/LIMIT after everything —
        and wraps the input as a derived table otherwise: a filter or
        aggregate over an aggregate or a computed projection, anything
        over ORDER BY/LIMIT, and a computed projection over an
        aggregate.  Join inputs and set operations are always derived
        tables.  This is the clause ordering of Calcite's
        ``SqlImplementor``."""
        d = self.dialect
        if isinstance(rel, TableScan):
            table = f"{self._table_name(rel)} AS {self._next_alias()}"
            return _Select(table, [d.quote_identifier(f)
                                   for f in rel.row_type.field_names])

        if isinstance(rel, Filter):
            sel = self._select(rel.input)
            if sel.computed or sel.group is not None or sel.tail:
                sel = self._wrap(rel.input, sel)
            text = self._rex_qualified(rel.condition, sel.refs)
            sel.where.append(_conjunct(rel.condition, text))
            return sel

        if isinstance(rel, Project):
            sel = self._select(rel.input)
            pure = all(isinstance(p, RexInputRef) for p in rel.projects)
            if sel.tail or (not pure and (sel.computed or sel.group is not None)):
                sel = self._wrap(rel.input, sel)
            sel.refs = [self._rex_qualified(p, sel.refs) for p in rel.projects]
            sel.star = False
            sel.computed = sel.computed or not pure
            return sel

        if isinstance(rel, Aggregate):
            sel = self._select(rel.input)
            if sel.computed or sel.group is not None or sel.tail:
                sel = self._wrap(rel.input, sel)
            group = [sel.refs[g] for g in rel.group_set]
            calls = []
            for call in rel.agg_calls:
                args = ", ".join(sel.refs[a] for a in call.args) or "*"
                if call.distinct:
                    args = "DISTINCT " + args
                fn = call.op.name if call.op.name != "$SUM0" else "SUM"
                calls.append(f"{fn}({args})")
            sel.group = group
            sel.refs = group + calls
            sel.star = False
            return sel

        if isinstance(rel, Sort):
            sel = self._select(rel.input)
            if sel.tail:
                sel = self._wrap(rel.input, sel)
            # Keys name the output columns, which ORDER BY resolves
            # before input columns.
            fields = rel.row_type.field_names
            keys = ", ".join(
                d.quote_identifier(fields[fc.field_index])
                + (" DESC" if fc.descending else "")
                for fc in rel.collation.field_collations)
            clauses = [f"ORDER BY {keys}"] if keys else []
            limit = d.limit_clause(rel.offset, rel.fetch)
            if limit:
                clauses.append(limit)
            sel.tail = " ".join(clauses)
            return sel

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
            return _Select(f"({left_sql}) AS {left_alias} "
                           f"{join_kw} ({right_sql}) AS {right_alias} ON {condition}",
                           sel_fields, star=False)

        if isinstance(rel, (Values, Union, Intersect, Minus)):
            return self._derived(*self._to_query(rel))
        if len(rel.inputs) == 1:  # converters and other pass-throughs
            return self._select(rel.inputs[0])
        raise ValueError(f"cannot unparse {rel.rel_name} to SQL")

    def _wrap(self, rel: RelNode, sel: "_Select") -> "_Select":
        """``sel`` closed and reopened as a derived table."""
        fields = list(rel.row_type.field_names)
        return self._derived(self._render(sel, fields), fields)

    def _derived(self, sql: str, fields: List[str]) -> "_Select":
        q = self.dialect.quote_identifier
        return _Select(f"({sql}) AS {self._next_alias()}",
                       [q(f) for f in fields])

    def _render(self, sel: "_Select", fields: Sequence[str]) -> str:
        q = self.dialect.quote_identifier
        if sel.star:
            items = "*"
        else:
            items = ", ".join(ref if ref == q(name) else f"{ref} AS {q(name)}"
                              for ref, name in zip(sel.refs, fields))
        sql = f"SELECT {items} FROM {sel.from_}"
        if sel.where:
            sql += " WHERE " + " AND ".join(sel.where)
        if sel.group:
            sql += " GROUP BY " + ", ".join(sel.group)
        if sel.tail:
            sql += " " + sel.tail
        return sql

    def _table_name(self, rel: TableScan) -> str:
        return ".".join(self.dialect.quote_identifier(p)
                        for p in rel.table.qualified_name)

    # ------------------------------------------------------------------
    # Rex rendering
    # ------------------------------------------------------------------
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
