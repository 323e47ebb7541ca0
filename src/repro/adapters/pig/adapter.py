"""The Apache Pig adapter (Table 2: target language Pig Latin).

Translates relational operator trees into Pig Latin scripts — the same
direction as the paper's Section 3 example, which shows a Pig script
and its equivalent expression-builder program.  A tiny Pig Latin
interpreter executes the generated scripts over the catalog's tables so
the translation is verified end to end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.rel import (
    Aggregate,
    Filter,
    Join,
    Project,
    RelNode,
    Sort,
    TableScan,
)
from ...core.rex import (
    RexCall,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
)
from ..capability import ScanCapabilities

#: Pig is a batch translation target: whole operator trees become Pig
#: Latin scripts (FILTER/FOREACH/JOIN/GROUP/ORDER), so these operators
#: all "push" in the sense of running inside the Pig engine.  No
#: partitioned scans — script execution is one batch job.
PIG_CAPABILITIES = ScanCapabilities(
    pushable_ops=frozenset({"filter", "project", "join", "aggregate", "sort"}),
)


class PigTranslationError(Exception):
    pass


class PigTranslator:
    """Rel tree → Pig Latin script."""

    def __init__(self) -> None:
        self._counter = 0
        self._lines: List[str] = []

    def translate(self, rel: RelNode) -> str:
        self._counter = 0
        self._lines = []
        final_alias, _fields = self._visit(rel)
        self._lines.append(f"DUMP {final_alias};")
        return "\n".join(self._lines)

    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    def _visit(self, rel: RelNode) -> Tuple[str, List[str]]:
        if isinstance(rel, TableScan):
            alias = self._fresh("t")
            fields = list(rel.row_type.field_names)
            schema = ", ".join(fields)
            self._lines.append(
                f"{alias} = LOAD '{rel.table.name}' AS ({schema});")
            return alias, fields
        if isinstance(rel, Filter):
            child, fields = self._visit(rel.input)
            alias = self._fresh("f")
            self._lines.append(
                f"{alias} = FILTER {child} BY {self._rex(rel.condition, fields)};")
            return alias, fields
        if isinstance(rel, Project):
            child, fields = self._visit(rel.input)
            alias = self._fresh("p")
            items = ", ".join(
                f"{self._rex(p, fields)} AS {name}"
                for p, name in zip(rel.projects, rel.field_names))
            self._lines.append(f"{alias} = FOREACH {child} GENERATE {items};")
            return alias, list(rel.field_names)
        if isinstance(rel, Aggregate):
            child, fields = self._visit(rel.input)
            grouped = self._fresh("g")
            keys = ", ".join(fields[g] for g in rel.group_set)
            if rel.group_set:
                self._lines.append(f"{grouped} = GROUP {child} BY ({keys});")
            else:
                self._lines.append(f"{grouped} = GROUP {child} ALL;")
            alias = self._fresh("a")
            items = []
            out_fields = []
            for i, g in enumerate(rel.group_set):
                name = fields[g]
                source = "group" if len(rel.group_set) == 1 else f"group.{name}"
                items.append(f"{source} AS {name}")
                out_fields.append(name)
            for call in rel.agg_calls:
                fn = {"COUNT": "COUNT", "SUM": "SUM", "MIN": "MIN",
                      "MAX": "MAX", "AVG": "AVG"}.get(call.op.name)
                if fn is None:
                    raise PigTranslationError(
                        f"no Pig translation for {call.op.name}")
                arg = f"{child}.{fields[call.args[0]]}" if call.args else child
                items.append(f"{fn}({arg}) AS {call.name}")
                out_fields.append(call.name)
            self._lines.append(
                f"{alias} = FOREACH {grouped} GENERATE {', '.join(items)};")
            return alias, out_fields
        if isinstance(rel, Join):
            left, left_fields = self._visit(rel.left)
            right, right_fields = self._visit(rel.right)
            info = rel.analyze_condition()
            if not info.is_equi or not info.left_keys:
                raise PigTranslationError("Pig JOIN requires equi keys")
            alias = self._fresh("j")
            lk = ", ".join(left_fields[k] for k in info.left_keys)
            rk = ", ".join(right_fields[k] for k in info.right_keys)
            self._lines.append(
                f"{alias} = JOIN {left} BY ({lk}), {right} BY ({rk});")
            return alias, left_fields + right_fields
        if isinstance(rel, Sort):
            child, fields = self._visit(rel.input)
            alias = child
            if rel.collation.field_collations:
                alias = self._fresh("o")
                keys = ", ".join(
                    fields[fc.field_index] + (" DESC" if fc.descending else " ASC")
                    for fc in rel.collation.field_collations)
                self._lines.append(f"{alias} = ORDER {child} BY {keys};")
            if rel.fetch is not None:
                limited = self._fresh("l")
                self._lines.append(f"{limited} = LIMIT {alias} {rel.fetch};")
                alias = limited
            return alias, fields
        if len(rel.inputs) == 1:
            return self._visit(rel.inputs[0])
        raise PigTranslationError(f"no Pig translation for {rel.rel_name}")

    def _rex(self, node: RexNode, fields: List[str]) -> str:
        if isinstance(node, RexLiteral):
            if isinstance(node.value, str):
                return f"'{node.value}'"
            if node.value is None:
                return "null"
            return str(node.value)
        if isinstance(node, RexInputRef):
            return fields[node.index]
        if isinstance(node, RexCall):
            args = [self._rex(o, fields) for o in node.operands]
            kind = node.kind
            binary = {
                SqlKind.EQUALS: "==", SqlKind.NOT_EQUALS: "!=",
                SqlKind.LESS_THAN: "<", SqlKind.LESS_THAN_OR_EQUAL: "<=",
                SqlKind.GREATER_THAN: ">", SqlKind.GREATER_THAN_OR_EQUAL: ">=",
                SqlKind.AND: "AND", SqlKind.OR: "OR",
                SqlKind.PLUS: "+", SqlKind.MINUS: "-",
                SqlKind.TIMES: "*", SqlKind.DIVIDE: "/",
            }.get(kind)
            if binary is not None and len(args) == 2:
                return f"({args[0]} {binary} {args[1]})"
            if kind is SqlKind.NOT:
                return f"NOT ({args[0]})"
            if kind is SqlKind.IS_NULL:
                return f"({args[0]} is null)"
            if kind is SqlKind.IS_NOT_NULL:
                return f"({args[0]} is not null)"
            if kind is SqlKind.CAST:
                return f"({node.type.type_name.value.lower()}) {args[0]}"
            raise PigTranslationError(f"no Pig translation for {node.kind}")
        raise PigTranslationError(f"no Pig translation for {node!r}")


def rel_to_pig(rel: RelNode) -> str:
    """Render a relational expression as a Pig Latin script."""
    return PigTranslator().translate(rel)
