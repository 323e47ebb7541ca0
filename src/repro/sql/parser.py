"""SQL parser: tokens → :mod:`repro.sql.ast` nodes.

A hand-written recursive-descent parser with precedence climbing for
expressions.  Covers the SQL subset exercised by the paper: SELECT with
joins/subqueries/aggregation/window functions, set operations, VALUES,
WITH, the STREAM keyword and group-window functions (Section 7.2), `[]`
item access over semi-structured values (Section 7.1), and geospatial
function calls (Section 7.3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast import (
    SqlCall,
    SqlCase,
    SqlCast,
    SqlDerivedTable,
    SqlDynamicParam,
    SqlFromItem,
    SqlIdentifier,
    SqlIntervalLiteral,
    SqlItemAccess,
    SqlJoinClause,
    SqlLiteral,
    SqlNode,
    SqlOrderItem,
    SqlQuery,
    SqlSelect,
    SqlSelectItem,
    SqlSetOp,
    SqlSubQuery,
    SqlTableRef,
    SqlValues,
    SqlWindowSpec,
    SqlWith,
)
from .lexer import Token, tokenize


class SqlParseError(Exception):
    pass


def parse(sql: str) -> SqlQuery:
    """Parse a SQL query string into an AST."""
    return Parser(tokenize(sql)).parse_query_eof()


def parse_expression(sql: str) -> SqlNode:
    """Parse a standalone scalar expression (used by tests/tools)."""
    parser = Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self._param_count = 0

    # -- token plumbing ---------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def accept_keyword(self, *words: str) -> Optional[str]:
        if self.at_keyword(*words):
            return self.next().value
        return None

    def accept_op(self, *ops: str) -> Optional[str]:
        if self.at_op(*ops):
            return self.next().value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlParseError(f"expected {word}, found {self.peek()} at {self.peek().pos}")

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SqlParseError(f"expected {op!r}, found {self.peek()} at {self.peek().pos}")

    def expect_eof(self) -> None:
        if self.peek().kind != "EOF":
            raise SqlParseError(f"unexpected trailing input: {self.peek()}")

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind in ("IDENT", "QUOTED_IDENT"):
            return self.next().value
        # tolerate non-reserved keywords used as identifiers
        if tok.kind == "KEYWORD" and tok.value in ("FIRST", "LAST", "ROW", "VALUES"):
            return self.next().value
        raise SqlParseError(f"expected identifier, found {tok} at {tok.pos}")

    # -- queries -------------------------------------------------------------
    def parse_query_eof(self) -> SqlQuery:
        q = self.parse_query()
        self.expect_eof()
        return q

    def parse_query(self) -> SqlQuery:
        if self.at_keyword("WITH"):
            return self._parse_with()
        query = self._parse_set_expr()
        query = self._parse_order_limit(query)
        return query

    def _parse_with(self) -> SqlQuery:
        self.expect_keyword("WITH")
        ctes: List[Tuple[str, SqlQuery]] = []
        while True:
            name = self.expect_ident()
            self.expect_keyword("AS")
            self.expect_op("(")
            q = self.parse_query()
            self.expect_op(")")
            ctes.append((name, q))
            if not self.accept_op(","):
                break
        body = self.parse_query()
        return SqlWith(ctes, body)

    def _parse_set_expr(self) -> SqlQuery:
        left = self._parse_query_primary()
        while self.at_keyword("UNION", "INTERSECT", "EXCEPT", "MINUS"):
            kind = self.next().value
            if kind == "MINUS":
                kind = "EXCEPT"
            all_ = bool(self.accept_keyword("ALL"))
            self.accept_keyword("DISTINCT")
            right = self._parse_query_primary()
            left = SqlSetOp(kind, all_, left, right)
        return left

    def _parse_query_primary(self) -> SqlQuery:
        if self.accept_op("("):
            q = self.parse_query()
            self.expect_op(")")
            return q
        if self.at_keyword("VALUES"):
            return self._parse_values()
        if self.at_keyword("SELECT"):
            return self._parse_select()
        raise SqlParseError(f"expected query, found {self.peek()}")

    def _parse_values(self) -> SqlValues:
        self.expect_keyword("VALUES")
        rows: List[List[SqlNode]] = []
        while True:
            if self.accept_op("("):
                row = [self.parse_expr()]
                while self.accept_op(","):
                    row.append(self.parse_expr())
                self.expect_op(")")
            else:
                row = [self.parse_expr()]
            rows.append(row)
            if not self.accept_op(","):
                break
        return SqlValues(rows)

    def _parse_select(self) -> SqlSelect:
        self.expect_keyword("SELECT")
        stream = bool(self.accept_keyword("STREAM"))
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("ALL")
        select_list = [self._parse_select_item()]
        while self.accept_op(","):
            select_list.append(self._parse_select_item())
        from_clause: Optional[SqlFromItem] = None
        if self.accept_keyword("FROM"):
            from_clause = self._parse_from()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: List[SqlNode] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        # ORDER BY / LIMIT are parsed by parse_query so they attach to
        # the whole set expression, not to the last SELECT branch.
        return SqlSelect(select_list, from_clause, where, group_by, having,
                         distinct=distinct, stream=stream)

    def _row_count(self, clause: str) -> int:
        """The unsigned integer literal a LIMIT/OFFSET/FETCH clause takes."""
        tok = self.next()
        if tok.kind != "NUMBER" or not tok.value.isdigit():
            raise SqlParseError(
                f"{clause} expects an integer, found {tok} at {tok.pos}")
        return int(tok.value)

    def _parse_order_limit(self, query: SqlQuery) -> SqlQuery:
        order_by: List[SqlOrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())
        offset: Optional[int] = None
        fetch: Optional[int] = None
        if self.accept_keyword("LIMIT"):
            fetch = self._row_count("LIMIT")
        if self.accept_keyword("OFFSET"):
            offset = self._row_count("OFFSET")
            self.accept_keyword("ROWS")
            self.accept_keyword("ROW")
        if self.accept_keyword("FETCH"):
            if not self.accept_keyword("FIRST"):
                self.expect_keyword("NEXT")
            fetch = self._row_count("FETCH")
            self.accept_keyword("ROWS")
            self.accept_keyword("ROW")
            self.expect_keyword("ONLY")
        if not order_by and offset is None and fetch is None:
            return query
        if isinstance(query, SqlSelect) and not query.order_by \
                and query.offset is None and query.fetch is None:
            query.order_by = order_by
            query.offset = offset
            query.fetch = fetch
            return query
        # Wrap set operations in a plain outer select.
        outer = SqlSelect(
            [SqlSelectItem(SqlIdentifier(["*"]))],
            SqlDerivedTable(query, "$q"),
            order_by=order_by, offset=offset, fetch=fetch)
        return outer

    def _parse_order_item(self) -> SqlOrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        nulls_first: Optional[bool] = None
        if self.accept_keyword("NULLS"):
            if self.accept_keyword("FIRST"):
                nulls_first = True
            else:
                self.expect_keyword("LAST")
                nulls_first = False
        return SqlOrderItem(expr, descending, nulls_first)

    def _parse_select_item(self) -> SqlSelectItem:
        if self.at_op("*"):
            self.next()
            return SqlSelectItem(SqlIdentifier(["*"]))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind in ("IDENT", "QUOTED_IDENT"):
            alias = self.next().value
        return SqlSelectItem(expr, alias)

    # -- FROM clause ---------------------------------------------------------
    def _parse_from(self) -> SqlFromItem:
        left = self._parse_join_chain()
        while self.accept_op(","):
            right = self._parse_join_chain()
            left = SqlJoinClause("CROSS", left, right)
        return left

    def _parse_join_chain(self) -> SqlFromItem:
        left = self._parse_table_primary()
        while True:
            kind = None
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                left = SqlJoinClause("CROSS", left, right)
                continue
            if self.accept_keyword("INNER"):
                kind = "INNER"
                self.expect_keyword("JOIN")
            elif self.at_keyword("LEFT", "RIGHT", "FULL"):
                kind = self.next().value
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
            elif self.accept_keyword("JOIN"):
                kind = "INNER"
            else:
                break
            right = self._parse_table_primary()
            condition = None
            using: List[str] = []
            if self.accept_keyword("ON"):
                condition = self.parse_expr()
            elif self.accept_keyword("USING"):
                self.expect_op("(")
                using.append(self.expect_ident())
                while self.accept_op(","):
                    using.append(self.expect_ident())
                self.expect_op(")")
            left = SqlJoinClause(kind, left, right, condition, using)
        return left

    def _parse_table_primary(self) -> SqlFromItem:
        if self.accept_op("("):
            if self.at_keyword("SELECT", "VALUES", "WITH") or self.at_op("("):
                q = self.parse_query()
                self.expect_op(")")
                self.accept_keyword("AS")
                alias = self.expect_ident() if self.peek().kind in (
                    "IDENT", "QUOTED_IDENT") else "$derived"
                return SqlDerivedTable(q, alias)
            inner = self._parse_from()
            self.expect_op(")")
            return inner
        names = [self.expect_ident()]
        while self.accept_op("."):
            names.append(self.expect_ident())
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind in ("IDENT", "QUOTED_IDENT"):
            alias = self.next().value
        return SqlTableRef(SqlIdentifier(names), alias)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> SqlNode:
        return self._parse_or()

    def _parse_or(self) -> SqlNode:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            right = self._parse_and()
            left = SqlCall("OR", [left, right])
        return left

    def _parse_and(self) -> SqlNode:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            right = self._parse_not()
            left = SqlCall("AND", [left, right])
        return left

    def _parse_not(self) -> SqlNode:
        if self.accept_keyword("NOT"):
            return SqlCall("NOT", [self._parse_not()])
        return self._parse_comparison()

    def _parse_comparison(self) -> SqlNode:
        left = self._parse_additive()
        while True:
            if self.at_op("=", "<>", "!=", "<", "<=", ">", ">="):
                op = self.next().value
                if op == "!=":
                    op = "<>"
                right = self._parse_additive()
                left = SqlCall(op, [left, right])
                continue
            if self.accept_keyword("IS"):
                negated = bool(self.accept_keyword("NOT"))
                if self.accept_keyword("NULL"):
                    name = "IS NOT NULL" if negated else "IS NULL"
                elif self.accept_keyword("TRUE"):
                    name = "IS TRUE"
                    if negated:
                        return SqlCall("NOT", [SqlCall(name, [left])])
                elif self.accept_keyword("FALSE"):
                    name = "IS FALSE"
                    if negated:
                        return SqlCall("NOT", [SqlCall(name, [left])])
                else:
                    raise SqlParseError(f"bad IS clause at {self.peek().pos}")
                left = SqlCall(name, [left])
                continue
            negated = False
            if self.at_keyword("NOT") and self.peek(1).kind == "KEYWORD" \
                    and self.peek(1).value in ("LIKE", "BETWEEN", "IN"):
                self.next()
                negated = True
            if self.accept_keyword("LIKE"):
                right = self._parse_additive()
                call: SqlNode = SqlCall("LIKE", [left, right])
                left = SqlCall("NOT", [call]) if negated else call
                continue
            if self.accept_keyword("BETWEEN"):
                lo = self._parse_additive()
                self.expect_keyword("AND")
                hi = self._parse_additive()
                call = SqlCall("BETWEEN", [left, lo, hi])
                left = SqlCall("NOT", [call]) if negated else call
                continue
            if self.accept_keyword("IN"):
                self.expect_op("(")
                if self.at_keyword("SELECT", "VALUES", "WITH"):
                    sub = SqlSubQuery(self.parse_query())
                    self.expect_op(")")
                    call = SqlCall("IN", [left, sub])
                else:
                    items = [self.parse_expr()]
                    while self.accept_op(","):
                        items.append(self.parse_expr())
                    self.expect_op(")")
                    call = SqlCall("IN", [left] + items)
                left = SqlCall("NOT", [call]) if negated else call
                continue
            break
        return left

    def _parse_additive(self) -> SqlNode:
        left = self._parse_multiplicative()
        while True:
            if self.at_op("+", "-"):
                op = self.next().value
                right = self._parse_multiplicative()
                left = SqlCall(op, [left, right])
            elif self.at_op("||"):
                self.next()
                right = self._parse_multiplicative()
                left = SqlCall("||", [left, right])
            else:
                break
        return left

    def _parse_multiplicative(self) -> SqlNode:
        left = self._parse_unary()
        while self.at_op("*", "/", "%"):
            op = self.next().value
            if op == "%":
                op = "MOD"
            right = self._parse_unary()
            left = SqlCall(op, [left, right])
        return left

    def _parse_unary(self) -> SqlNode:
        if self.at_op("-"):
            self.next()
            return SqlCall("-/1", [self._parse_unary()])
        if self.at_op("+"):
            self.next()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> SqlNode:
        expr = self._parse_primary()
        while self.accept_op("["):
            index = self.parse_expr()
            self.expect_op("]")
            expr = SqlItemAccess(expr, index)
        return expr

    # -- primaries --------------------------------------------------------------
    def _parse_primary(self) -> SqlNode:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            if "." in tok.value or "e" in tok.value or "E" in tok.value:
                return SqlLiteral(float(tok.value), "NUMBER")
            return SqlLiteral(int(tok.value), "NUMBER")
        if tok.kind == "STRING":
            self.next()
            return SqlLiteral(tok.value, "STRING")
        if tok.kind == "OP" and tok.value == "?":
            self.next()
            param = SqlDynamicParam(self._param_count)
            self._param_count += 1
            return param
        if self.accept_keyword("TRUE"):
            return SqlLiteral(True, "BOOLEAN")
        if self.accept_keyword("FALSE"):
            return SqlLiteral(False, "BOOLEAN")
        if self.accept_keyword("NULL"):
            return SqlLiteral(None, "NULL")
        if self.accept_keyword("INTERVAL"):
            value = self.next()
            if value.kind not in ("STRING", "NUMBER"):
                raise SqlParseError(f"expected interval value at {value.pos}")
            unit_tok = self.next()
            return SqlIntervalLiteral(str(value.value), unit_tok.value.upper())
        if self.at_keyword("CASE"):
            return self._parse_case()
        if self.at_keyword("CAST"):
            return self._parse_cast()
        if self.accept_keyword("EXISTS"):
            self.expect_op("(")
            q = self.parse_query()
            self.expect_op(")")
            return SqlCall("EXISTS", [SqlSubQuery(q)])
        if self.at_keyword("EXTRACT"):
            return self._parse_extract()
        if self.at_keyword("SUBSTRING"):
            return self._parse_substring()
        if self.at_keyword("TRIM"):
            self.next()
            self.expect_op("(")
            arg = self.parse_expr()
            self.expect_op(")")
            return SqlCall("TRIM", [arg])
        if self.accept_keyword("ROW"):
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return SqlCall("ROW", items)
        if self.accept_keyword("CURRENT"):
            # CURRENT ROW appears only inside window frames; CURRENT_DATE
            # style functions arrive as identifiers.
            raise SqlParseError(f"unexpected CURRENT at {tok.pos}")
        if self.accept_op("("):
            if self.at_keyword("SELECT", "VALUES", "WITH"):
                q = self.parse_query()
                self.expect_op(")")
                return SqlSubQuery(q)
            expr = self.parse_expr()
            if self.at_op(","):
                items = [expr]
                while self.accept_op(","):
                    items.append(self.parse_expr())
                self.expect_op(")")
                return SqlCall("ROW", items)
            self.expect_op(")")
            return expr
        if tok.kind in ("IDENT", "QUOTED_IDENT"):
            return self._parse_identifier_or_call()
        raise SqlParseError(f"unexpected token {tok} at {tok.pos}")

    def _parse_identifier_or_call(self) -> SqlNode:
        names = [self.next().value]
        while self.at_op(".") and self.peek(1).kind in ("IDENT", "QUOTED_IDENT") \
                or (self.at_op(".") and self.peek(1).kind == "OP" and self.peek(1).value == "*"):
            self.next()  # consume '.'
            if self.at_op("*"):
                self.next()
                names.append("*")
                return SqlIdentifier(names)
            names.append(self.next().value)
        if self.at_op("(") and len(names) == 1:
            return self._parse_call(names[0])
        return SqlIdentifier(names)

    def _parse_call(self, name: str) -> SqlNode:
        self.expect_op("(")
        distinct = False
        star = False
        operands: List[SqlNode] = []
        if self.accept_op("*"):
            star = True
        elif not self.at_op(")"):
            if self.accept_keyword("DISTINCT"):
                distinct = True
            elif self.accept_keyword("ALL"):
                pass
            operands.append(self.parse_expr())
            while self.accept_op(","):
                operands.append(self.parse_expr())
        self.expect_op(")")
        over = None
        if self.accept_keyword("OVER"):
            self.expect_op("(")
            over = self._parse_window_spec()
            self.expect_op(")")
        return SqlCall(name.upper(), operands, distinct, star, over)

    def _parse_window_spec(self) -> SqlWindowSpec:
        spec = SqlWindowSpec()
        # the paper's example orders clauses as ORDER BY ... PARTITION BY ...;
        # accept both orders.
        while True:
            if self.accept_keyword("PARTITION"):
                self.expect_keyword("BY")
                spec.partition_by.append(self.parse_expr())
                while self.accept_op(","):
                    spec.partition_by.append(self.parse_expr())
                continue
            if self.accept_keyword("ORDER"):
                self.expect_keyword("BY")
                spec.order_by.append(self._parse_order_item())
                while self.accept_op(","):
                    spec.order_by.append(self._parse_order_item())
                continue
            if self.at_keyword("ROWS", "RANGE"):
                kind = self.next().value
                spec.is_rows = kind == "ROWS"
                spec.explicit_frame = True
                if self.accept_keyword("BETWEEN"):
                    spec.lower = self._parse_frame_bound()
                    self.expect_keyword("AND")
                    spec.upper = self._parse_frame_bound()
                else:
                    spec.lower = self._parse_frame_bound()
                    spec.upper = ("CURRENT_ROW", None)
                continue
            break
        return spec

    def _parse_frame_bound(self) -> Tuple[str, Optional[SqlNode]]:
        if self.accept_keyword("UNBOUNDED"):
            if self.accept_keyword("PRECEDING"):
                return ("UNBOUNDED_PRECEDING", None)
            self.expect_keyword("FOLLOWING")
            return ("UNBOUNDED_FOLLOWING", None)
        if self.accept_keyword("CURRENT"):
            self.expect_keyword("ROW")
            return ("CURRENT_ROW", None)
        offset = self.parse_expr()
        if self.accept_keyword("PRECEDING"):
            return ("PRECEDING", offset)
        self.expect_keyword("FOLLOWING")
        return ("FOLLOWING", offset)

    def _parse_case(self) -> SqlNode:
        self.expect_keyword("CASE")
        value = None
        if not self.at_keyword("WHEN"):
            value = self.parse_expr()
        whens: List[Tuple[SqlNode, SqlNode]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((cond, result))
        else_clause = None
        if self.accept_keyword("ELSE"):
            else_clause = self.parse_expr()
        self.expect_keyword("END")
        return SqlCase(value, whens, else_clause)

    def _parse_cast(self) -> SqlNode:
        self.expect_keyword("CAST")
        self.expect_op("(")
        operand = self.parse_expr()
        self.expect_keyword("AS")
        type_name = self.expect_ident().upper() if self.peek().kind in (
            "IDENT", "QUOTED_IDENT") else self.next().value.upper()
        # multi-word types: DOUBLE PRECISION etc.
        if type_name == "DOUBLE" and self.peek().kind == "IDENT" \
                and self.peek().value.upper() == "PRECISION":
            self.next()
        precision = scale = None
        if self.accept_op("("):
            precision = int(self.next().value)
            if self.accept_op(","):
                scale = int(self.next().value)
            self.expect_op(")")
        self.expect_op(")")
        return SqlCast(operand, type_name, precision, scale)

    def _parse_extract(self) -> SqlNode:
        self.expect_keyword("EXTRACT")
        self.expect_op("(")
        unit = self.next().value.upper()
        from_tok = self.next()
        if from_tok.value != "FROM":
            raise SqlParseError(f"expected FROM in EXTRACT at {from_tok.pos}")
        operand = self.parse_expr()
        self.expect_op(")")
        return SqlCall("EXTRACT", [SqlLiteral(unit, "STRING"), operand])

    def _parse_substring(self) -> SqlNode:
        self.expect_keyword("SUBSTRING")
        self.expect_op("(")
        value = self.parse_expr()
        if self.peek().value == "FROM":
            self.next()
        else:
            self.expect_op(",")
        start = self.parse_expr()
        length = None
        if self.peek().value == "FOR" or self.at_op(","):
            self.next()
            length = self.parse_expr()
        self.expect_op(")")
        operands = [value, start] + ([length] if length is not None else [])
        return SqlCall("SUBSTRING", operands)
