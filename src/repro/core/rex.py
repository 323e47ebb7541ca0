"""Row expressions (Rex).

A ``RexNode`` describes a scalar computation over the fields of a row:
literals, input references, function/operator calls, CASE, CAST, field
and item access (``[]`` for the Section 7.1 semi-structured types), and
window expressions (``RexOver`` backing the Section 4 window operator).

Every node has a *digest*, a canonical string used by the Volcano
planner to detect duplicate expressions (Section 6).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .types import DEFAULT_TYPE_FACTORY, RelDataType, SqlTypeName


class SqlKind(enum.Enum):
    """The broad category of an operator, used by rules for matching."""

    # comparison
    EQUALS = "="
    NOT_EQUALS = "<>"
    LESS_THAN = "<"
    LESS_THAN_OR_EQUAL = "<="
    GREATER_THAN = ">"
    GREATER_THAN_OR_EQUAL = ">="
    # logical
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    # arithmetic
    PLUS = "+"
    MINUS = "-"
    TIMES = "*"
    DIVIDE = "/"
    MOD = "MOD"
    MINUS_PREFIX = "-/1"
    PLUS_PREFIX = "+/1"
    # predicates
    IS_NULL = "IS NULL"
    IS_NOT_NULL = "IS NOT NULL"
    IS_TRUE = "IS TRUE"
    IS_FALSE = "IS FALSE"
    LIKE = "LIKE"
    IN = "IN"
    NOT_IN = "NOT IN"
    BETWEEN = "BETWEEN"
    EXISTS = "EXISTS"
    # special
    CAST = "CAST"
    CASE = "CASE"
    COALESCE = "COALESCE"
    ITEM = "ITEM"
    FIELD_ACCESS = "FIELD_ACCESS"
    INPUT_REF = "INPUT_REF"
    LITERAL = "LITERAL"
    DYNAMIC_PARAM = "DYNAMIC_PARAM"
    CORREL_VARIABLE = "CORREL_VARIABLE"
    OVER = "OVER"
    ROW = "ROW"
    ARRAY_VALUE = "ARRAY"
    MAP_VALUE = "MAP"
    # aggregates
    COUNT = "COUNT"
    SUM = "SUM"
    SUM0 = "$SUM0"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    COLLECT = "COLLECT"
    SINGLE_VALUE = "SINGLE_VALUE"
    # window-only functions (valid only with an OVER clause)
    ROW_NUMBER = "ROW_NUMBER"
    RANK = "RANK"
    DENSE_RANK = "DENSE_RANK"
    LAG = "LAG"
    LEAD = "LEAD"
    # scalar functions
    FUNCTION = "FUNCTION"
    CONCAT = "||"
    SUBSTRING = "SUBSTRING"
    UPPER = "UPPER"
    LOWER = "LOWER"
    CHAR_LENGTH = "CHAR_LENGTH"
    TRIM = "TRIM"
    ABS = "ABS"
    FLOOR = "FLOOR"
    CEIL = "CEIL"
    POWER = "POWER"
    SQRT = "SQRT"
    LN = "LN"
    EXP = "EXP"
    EXTRACT = "EXTRACT"
    # streaming
    TUMBLE = "TUMBLE"
    TUMBLE_START = "TUMBLE_START"
    TUMBLE_END = "TUMBLE_END"
    HOP = "HOP"
    HOP_START = "HOP_START"
    HOP_END = "HOP_END"
    SESSION = "SESSION"
    SESSION_START = "SESSION_START"
    SESSION_END = "SESSION_END"
    # geospatial
    ST_FUNCTION = "ST_FUNCTION"
    # misc
    DEFAULT = "DEFAULT"
    OTHER = "OTHER"

    def reverse(self) -> "SqlKind":
        """The kind with operand sides swapped (for ``a < b`` ⇔ ``b > a``)."""
        mapping = {
            SqlKind.LESS_THAN: SqlKind.GREATER_THAN,
            SqlKind.GREATER_THAN: SqlKind.LESS_THAN,
            SqlKind.LESS_THAN_OR_EQUAL: SqlKind.GREATER_THAN_OR_EQUAL,
            SqlKind.GREATER_THAN_OR_EQUAL: SqlKind.LESS_THAN_OR_EQUAL,
        }
        return mapping.get(self, self)

    def negate(self) -> Optional["SqlKind"]:
        """The logically negated comparison kind, or None if not invertible."""
        mapping = {
            SqlKind.EQUALS: SqlKind.NOT_EQUALS,
            SqlKind.NOT_EQUALS: SqlKind.EQUALS,
            SqlKind.LESS_THAN: SqlKind.GREATER_THAN_OR_EQUAL,
            SqlKind.GREATER_THAN: SqlKind.LESS_THAN_OR_EQUAL,
            SqlKind.LESS_THAN_OR_EQUAL: SqlKind.GREATER_THAN,
            SqlKind.GREATER_THAN_OR_EQUAL: SqlKind.LESS_THAN,
            SqlKind.IS_NULL: SqlKind.IS_NOT_NULL,
            SqlKind.IS_NOT_NULL: SqlKind.IS_NULL,
        }
        return mapping.get(self)


COMPARISON_KINDS = {
    SqlKind.EQUALS,
    SqlKind.NOT_EQUALS,
    SqlKind.LESS_THAN,
    SqlKind.LESS_THAN_OR_EQUAL,
    SqlKind.GREATER_THAN,
    SqlKind.GREATER_THAN_OR_EQUAL,
}

AGG_KINDS = {
    SqlKind.COUNT,
    SqlKind.SUM,
    SqlKind.SUM0,
    SqlKind.AVG,
    SqlKind.MIN,
    SqlKind.MAX,
    SqlKind.COLLECT,
    SqlKind.SINGLE_VALUE,
}

#: Functions that only make sense with an OVER clause.  The ranking
#: kinds ignore the window frame entirely (they are a property of the
#: partition ordering); LAG/LEAD address rows by ordered offset.
WINDOW_ONLY_KINDS = {
    SqlKind.ROW_NUMBER,
    SqlKind.RANK,
    SqlKind.DENSE_RANK,
    SqlKind.LAG,
    SqlKind.LEAD,
}

#: Window-only kinds whose result is a rank over the partition ordering.
RANKING_KINDS = {SqlKind.ROW_NUMBER, SqlKind.RANK, SqlKind.DENSE_RANK}


class Monotonicity(enum.Enum):
    """Monotonicity of an expression, needed by streaming validation."""

    INCREASING = "INCREASING"
    DECREASING = "DECREASING"
    CONSTANT = "CONSTANT"
    NOT_MONOTONIC = "NOT_MONOTONIC"


class SqlOperator:
    """An operator or function usable in row expressions.

    ``infer_return_type`` receives the operand types and produces a
    result type; the default propagates the least-restrictive operand
    type.  Operators are singletons registered in :data:`OPERATORS`.
    """

    def __init__(self, name: str, kind: SqlKind,
                 infer_return_type: Optional[Callable[[Sequence[RelDataType]], RelDataType]] = None,
                 syntax: str = "function") -> None:
        self.name = name
        self.kind = kind
        self.syntax = syntax  # "binary" | "prefix" | "postfix" | "function" | "special"
        self._infer = infer_return_type

    def return_type(self, operand_types: Sequence[RelDataType]) -> RelDataType:
        if self._infer is not None:
            return self._infer(operand_types)
        result = DEFAULT_TYPE_FACTORY.least_restrictive(list(operand_types))
        if result is None:
            return DEFAULT_TYPE_FACTORY.any()
        return result

    @property
    def is_aggregate(self) -> bool:
        return self.kind in AGG_KINDS

    def __repr__(self) -> str:
        return f"SqlOperator({self.name})"


_F = DEFAULT_TYPE_FACTORY


def _ret_boolean(operand_types: Sequence[RelDataType]) -> RelDataType:
    nullable = any(t.nullable for t in operand_types)
    return _F.boolean(nullable)


def _ret_boolean_not_null(_: Sequence[RelDataType]) -> RelDataType:
    return _F.boolean(False)


def _ret_bigint(operand_types: Sequence[RelDataType]) -> RelDataType:
    return _F.bigint(any(t.nullable for t in operand_types))


def _ret_bigint_not_null(_: Sequence[RelDataType]) -> RelDataType:
    return _F.bigint(False)


def _ret_double(operand_types: Sequence[RelDataType]) -> RelDataType:
    return _F.double(any(t.nullable for t in operand_types))


def _ret_varchar(operand_types: Sequence[RelDataType]) -> RelDataType:
    return _F.varchar(None, any(t.nullable for t in operand_types))


def _ret_integer(operand_types: Sequence[RelDataType]) -> RelDataType:
    return _F.integer(any(t.nullable for t in operand_types))


def _ret_first_nullable(operand_types: Sequence[RelDataType]) -> RelDataType:
    if not operand_types:
        return _F.any()
    return operand_types[0].with_nullable(True)


def _ret_item(operand_types: Sequence[RelDataType]) -> RelDataType:
    """Result type of ``collection[index]`` over ARRAY/MAP values."""
    base = operand_types[0]
    if base.type_name in (SqlTypeName.ARRAY, SqlTypeName.MULTISET) and base.component:
        return base.component.with_nullable(True)
    if base.type_name is SqlTypeName.MAP and base.value_type:
        return base.value_type.with_nullable(True)
    return _F.any()


def _ret_timestamp(_: Sequence[RelDataType]) -> RelDataType:
    return _F.timestamp(False)


def _ret_geometry(_: Sequence[RelDataType]) -> RelDataType:
    return _F.geometry()


class OperatorTable:
    """Registry of operators, keyed by (name, arity-class)."""

    def __init__(self) -> None:
        self._by_name: dict = {}

    def register(self, op: SqlOperator) -> SqlOperator:
        self._by_name[op.name.upper()] = op
        return op

    def lookup(self, name: str) -> Optional[SqlOperator]:
        return self._by_name.get(name.upper())

    def names(self) -> List[str]:
        return sorted(self._by_name)


OPERATORS = OperatorTable()
_r = OPERATORS.register

# Comparison operators
EQUALS = _r(SqlOperator("=", SqlKind.EQUALS, _ret_boolean, "binary"))
NOT_EQUALS = _r(SqlOperator("<>", SqlKind.NOT_EQUALS, _ret_boolean, "binary"))
LESS_THAN = _r(SqlOperator("<", SqlKind.LESS_THAN, _ret_boolean, "binary"))
LESS_THAN_OR_EQUAL = _r(SqlOperator("<=", SqlKind.LESS_THAN_OR_EQUAL, _ret_boolean, "binary"))
GREATER_THAN = _r(SqlOperator(">", SqlKind.GREATER_THAN, _ret_boolean, "binary"))
GREATER_THAN_OR_EQUAL = _r(SqlOperator(">=", SqlKind.GREATER_THAN_OR_EQUAL, _ret_boolean, "binary"))

# Logical
AND = _r(SqlOperator("AND", SqlKind.AND, _ret_boolean, "binary"))
OR = _r(SqlOperator("OR", SqlKind.OR, _ret_boolean, "binary"))
NOT = _r(SqlOperator("NOT", SqlKind.NOT, _ret_boolean, "prefix"))

# Arithmetic
PLUS = _r(SqlOperator("+", SqlKind.PLUS, None, "binary"))
MINUS = _r(SqlOperator("-", SqlKind.MINUS, None, "binary"))
TIMES = _r(SqlOperator("*", SqlKind.TIMES, None, "binary"))
DIVIDE = _r(SqlOperator("/", SqlKind.DIVIDE, None, "binary"))
MOD = _r(SqlOperator("MOD", SqlKind.MOD, None, "function"))
UNARY_MINUS = SqlOperator("-", SqlKind.MINUS_PREFIX, None, "prefix")
UNARY_PLUS = SqlOperator("+", SqlKind.PLUS_PREFIX, None, "prefix")

# Predicates
IS_NULL = _r(SqlOperator("IS NULL", SqlKind.IS_NULL, _ret_boolean_not_null, "postfix"))
IS_NOT_NULL = _r(SqlOperator("IS NOT NULL", SqlKind.IS_NOT_NULL, _ret_boolean_not_null, "postfix"))
IS_TRUE = _r(SqlOperator("IS TRUE", SqlKind.IS_TRUE, _ret_boolean_not_null, "postfix"))
IS_FALSE = _r(SqlOperator("IS FALSE", SqlKind.IS_FALSE, _ret_boolean_not_null, "postfix"))
LIKE = _r(SqlOperator("LIKE", SqlKind.LIKE, _ret_boolean, "binary"))
IN = _r(SqlOperator("IN", SqlKind.IN, _ret_boolean, "binary"))
NOT_IN = SqlOperator("NOT IN", SqlKind.NOT_IN, _ret_boolean, "binary")
BETWEEN = _r(SqlOperator("BETWEEN", SqlKind.BETWEEN, _ret_boolean, "special"))
EXISTS = _r(SqlOperator("EXISTS", SqlKind.EXISTS, _ret_boolean_not_null, "prefix"))

# Special
CAST = _r(SqlOperator("CAST", SqlKind.CAST, _ret_first_nullable, "special"))
CASE = _r(SqlOperator("CASE", SqlKind.CASE, None, "special"))
COALESCE = _r(SqlOperator("COALESCE", SqlKind.COALESCE, None, "function"))
ITEM = _r(SqlOperator("ITEM", SqlKind.ITEM, _ret_item, "special"))
ROW = _r(SqlOperator("ROW", SqlKind.ROW, None, "special"))
ARRAY_VALUE = _r(SqlOperator("ARRAY", SqlKind.ARRAY_VALUE, None, "special"))
MAP_VALUE = _r(SqlOperator("MAP", SqlKind.MAP_VALUE, None, "special"))

# Aggregates
COUNT = _r(SqlOperator("COUNT", SqlKind.COUNT, _ret_bigint_not_null))
SUM = _r(SqlOperator("SUM", SqlKind.SUM, _ret_first_nullable))
SUM0 = _r(SqlOperator("$SUM0", SqlKind.SUM0, _ret_bigint))
AVG = _r(SqlOperator("AVG", SqlKind.AVG, _ret_double))
MIN = _r(SqlOperator("MIN", SqlKind.MIN, _ret_first_nullable))
MAX = _r(SqlOperator("MAX", SqlKind.MAX, _ret_first_nullable))
COLLECT = _r(SqlOperator("COLLECT", SqlKind.COLLECT, None))
SINGLE_VALUE = _r(SqlOperator("SINGLE_VALUE", SqlKind.SINGLE_VALUE, _ret_first_nullable))

# Window-only functions (require an OVER clause; enforced in sql.to_rel)
ROW_NUMBER = _r(SqlOperator("ROW_NUMBER", SqlKind.ROW_NUMBER, _ret_bigint_not_null))
RANK = _r(SqlOperator("RANK", SqlKind.RANK, _ret_bigint_not_null))
DENSE_RANK = _r(SqlOperator("DENSE_RANK", SqlKind.DENSE_RANK, _ret_bigint_not_null))
LAG = _r(SqlOperator("LAG", SqlKind.LAG, _ret_first_nullable))
LEAD = _r(SqlOperator("LEAD", SqlKind.LEAD, _ret_first_nullable))

# String functions
CONCAT = _r(SqlOperator("||", SqlKind.CONCAT, _ret_varchar, "binary"))
SUBSTRING = _r(SqlOperator("SUBSTRING", SqlKind.SUBSTRING, _ret_varchar))
UPPER = _r(SqlOperator("UPPER", SqlKind.UPPER, _ret_varchar))
LOWER = _r(SqlOperator("LOWER", SqlKind.LOWER, _ret_varchar))
CHAR_LENGTH = _r(SqlOperator("CHAR_LENGTH", SqlKind.CHAR_LENGTH, _ret_integer))
TRIM = _r(SqlOperator("TRIM", SqlKind.TRIM, _ret_varchar))

# Numeric functions
ABS = _r(SqlOperator("ABS", SqlKind.ABS, _ret_first_nullable))
FLOOR = _r(SqlOperator("FLOOR", SqlKind.FLOOR, _ret_first_nullable))
CEIL = _r(SqlOperator("CEIL", SqlKind.CEIL, _ret_first_nullable))
POWER = _r(SqlOperator("POWER", SqlKind.POWER, _ret_double))
SQRT = _r(SqlOperator("SQRT", SqlKind.SQRT, _ret_double))
LN = _r(SqlOperator("LN", SqlKind.LN, _ret_double))
EXP = _r(SqlOperator("EXP", SqlKind.EXP, _ret_double))
EXTRACT = _r(SqlOperator("EXTRACT", SqlKind.EXTRACT, _ret_bigint, "special"))

# Streaming windows (Section 7.2)
TUMBLE = _r(SqlOperator("TUMBLE", SqlKind.TUMBLE, _ret_timestamp))
TUMBLE_START = _r(SqlOperator("TUMBLE_START", SqlKind.TUMBLE_START, _ret_timestamp))
TUMBLE_END = _r(SqlOperator("TUMBLE_END", SqlKind.TUMBLE_END, _ret_timestamp))
HOP = _r(SqlOperator("HOP", SqlKind.HOP, _ret_timestamp))
HOP_START = _r(SqlOperator("HOP_START", SqlKind.HOP_START, _ret_timestamp))
HOP_END = _r(SqlOperator("HOP_END", SqlKind.HOP_END, _ret_timestamp))
SESSION = _r(SqlOperator("SESSION", SqlKind.SESSION, _ret_timestamp))
SESSION_START = _r(SqlOperator("SESSION_START", SqlKind.SESSION_START, _ret_timestamp))
SESSION_END = _r(SqlOperator("SESSION_END", SqlKind.SESSION_END, _ret_timestamp))

GROUP_WINDOW_KINDS = {SqlKind.TUMBLE, SqlKind.HOP, SqlKind.SESSION}
GROUP_WINDOW_AUX_KINDS = {
    SqlKind.TUMBLE_START, SqlKind.TUMBLE_END,
    SqlKind.HOP_START, SqlKind.HOP_END,
    SqlKind.SESSION_START, SqlKind.SESSION_END,
}


def register_function(name: str, kind: SqlKind = SqlKind.FUNCTION,
                      infer: Optional[Callable[[Sequence[RelDataType]], RelDataType]] = None) -> SqlOperator:
    """Register a user-defined or extension function (e.g. geospatial ST_*)."""
    return OPERATORS.register(SqlOperator(name, kind, infer))


# ---------------------------------------------------------------------------
# Rex node hierarchy
# ---------------------------------------------------------------------------

class RexNode:
    """Base class of all row expressions."""

    type: RelDataType
    kind: SqlKind

    @property
    def digest(self) -> str:
        raise NotImplementedError

    @property
    def operands(self) -> Tuple["RexNode", ...]:
        return ()

    def accept(self, visitor: "RexVisitor") -> Any:
        raise NotImplementedError

    def is_always_true(self) -> bool:
        return isinstance(self, RexLiteral) and self.value is True

    def is_always_false(self) -> bool:
        return isinstance(self, RexLiteral) and self.value is False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RexNode) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return self.digest

    def __str__(self) -> str:
        return self.digest


class RexLiteral(RexNode):
    """A constant value with a type."""

    def __init__(self, value: Any, type_: RelDataType) -> None:
        self.value = value
        self.type = type_
        self.kind = SqlKind.LITERAL

    @property
    def digest(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_literal(self)


class RexInputRef(RexNode):
    """Reference to the ``index``-th field of the operator's input row."""

    def __init__(self, index: int, type_: RelDataType) -> None:
        if index < 0:
            raise ValueError(f"negative input ref {index}")
        self.index = index
        self.type = type_
        self.kind = SqlKind.INPUT_REF

    @property
    def digest(self) -> str:
        return f"${self.index}"

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_input_ref(self)


class RexDynamicParam(RexNode):
    """A `?` placeholder bound at execution time (Avatica prepared stmt)."""

    def __init__(self, index: int, type_: RelDataType) -> None:
        self.index = index
        self.type = type_
        self.kind = SqlKind.DYNAMIC_PARAM

    @property
    def digest(self) -> str:
        return f"?{self.index}"

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_dynamic_param(self)


class RexCorrelVariable(RexNode):
    """Reference to the row of a correlating Correlate operator."""

    def __init__(self, name: str, type_: RelDataType) -> None:
        self.name = name
        self.type = type_
        self.kind = SqlKind.CORREL_VARIABLE

    @property
    def digest(self) -> str:
        return self.name

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_correl_variable(self)


class RexCall(RexNode):
    """Application of an operator to operand expressions."""

    def __init__(self, op: SqlOperator, operands: Sequence[RexNode],
                 type_: Optional[RelDataType] = None) -> None:
        self.op = op
        self._operands = tuple(operands)
        self.kind = op.kind
        if type_ is None:
            type_ = op.return_type([o.type for o in operands])
        self.type = type_
        self._digest: Optional[str] = None

    @property
    def operands(self) -> Tuple[RexNode, ...]:
        return self._operands

    @property
    def digest(self) -> str:
        if self._digest is None:
            args = ", ".join(o.digest for o in self._operands)
            if self.op.kind is SqlKind.CAST:
                self._digest = f"CAST({args}):{self.type}"
            elif self.op.syntax == "binary" and len(self._operands) == 2:
                self._digest = f"{self.op.name}({args})"
            else:
                self._digest = f"{self.op.name}({args})"
        return self._digest

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_call(self)

    def clone(self, operands: Sequence[RexNode]) -> "RexCall":
        return RexCall(self.op, operands, self.type)


class RexFieldAccess(RexNode):
    """Access a named field of a struct-valued expression."""

    def __init__(self, expr: RexNode, field_name: str, type_: RelDataType) -> None:
        self.expr = expr
        self.field_name = field_name
        self.type = type_
        self.kind = SqlKind.FIELD_ACCESS

    @property
    def operands(self) -> Tuple[RexNode, ...]:
        return (self.expr,)

    @property
    def digest(self) -> str:
        return f"{self.expr.digest}.{self.field_name}"

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_field_access(self)


class RexWindowBound:
    """One bound of a window frame (Section 4 window operator)."""

    def __init__(self, kind: str, offset: Optional[RexNode] = None) -> None:
        if kind not in ("UNBOUNDED_PRECEDING", "UNBOUNDED_FOLLOWING",
                        "CURRENT_ROW", "PRECEDING", "FOLLOWING"):
            raise ValueError(f"bad window bound {kind}")
        self.bound_kind = kind
        self.offset = offset

    @property
    def digest(self) -> str:
        if self.offset is not None:
            return f"{self.offset.digest} {self.bound_kind}"
        return self.bound_kind.replace("_", " ")

    UNBOUNDED_PRECEDING: "RexWindowBound"
    UNBOUNDED_FOLLOWING: "RexWindowBound"
    CURRENT_ROW: "RexWindowBound"


RexWindowBound.UNBOUNDED_PRECEDING = RexWindowBound("UNBOUNDED_PRECEDING")
RexWindowBound.UNBOUNDED_FOLLOWING = RexWindowBound("UNBOUNDED_FOLLOWING")
RexWindowBound.CURRENT_ROW = RexWindowBound("CURRENT_ROW")


class RexOver(RexNode):
    """A windowed aggregate call: ``agg(args) OVER (window)``.

    Encapsulates the window definition — partition keys, ordering, and
    upper/lower frame bounds — exactly as the paper's window operator
    description requires.
    """

    def __init__(self, op: SqlOperator, operands: Sequence[RexNode],
                 partition_keys: Sequence[RexNode], order_keys: Sequence[Tuple[RexNode, bool]],
                 lower: RexWindowBound, upper: RexWindowBound,
                 rows: bool, type_: Optional[RelDataType] = None) -> None:
        self.op = op
        self._operands = tuple(operands)
        self.partition_keys = tuple(partition_keys)
        self.order_keys = tuple(order_keys)  # (expr, descending)
        self.lower = lower
        self.upper = upper
        self.rows = rows  # True: ROWS frame, False: RANGE frame
        self.kind = SqlKind.OVER
        if type_ is None:
            type_ = op.return_type([o.type for o in operands])
        self.type = type_

    @property
    def operands(self) -> Tuple[RexNode, ...]:
        return self._operands

    @property
    def digest(self) -> str:
        args = ", ".join(o.digest for o in self._operands)
        parts = []
        if self.partition_keys:
            parts.append("PARTITION BY " + ", ".join(k.digest for k in self.partition_keys))
        if self.order_keys:
            parts.append("ORDER BY " + ", ".join(
                k.digest + (" DESC" if desc else "") for k, desc in self.order_keys))
        frame = "ROWS" if self.rows else "RANGE"
        parts.append(f"{frame} BETWEEN {self.lower.digest} AND {self.upper.digest}")
        return f"{self.op.name}({args}) OVER ({' '.join(parts)})"

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_over(self)


class RexSubQuery(RexNode):
    """A scalar/IN/EXISTS subquery embedded in a row expression."""

    def __init__(self, kind: SqlKind, rel: Any,
                 operands: Sequence[RexNode] = (), type_: Optional[RelDataType] = None) -> None:
        self.kind = kind
        self.rel = rel  # a RelNode; typed Any to avoid a circular import
        self._operands = tuple(operands)
        if type_ is None:
            if kind in (SqlKind.EXISTS, SqlKind.IN):
                type_ = _F.boolean(False)
            else:
                type_ = rel.row_type.fields[0].type.with_nullable(True)
        self.type = type_

    @property
    def operands(self) -> Tuple[RexNode, ...]:
        return self._operands

    @property
    def digest(self) -> str:
        args = ", ".join(o.digest for o in self._operands)
        return f"{self.kind.value}({args}{{{self.rel.digest}}})"

    def accept(self, visitor: "RexVisitor") -> Any:
        return visitor.visit_subquery(self)


# ---------------------------------------------------------------------------
# Visitors and helpers
# ---------------------------------------------------------------------------

class RexVisitor:
    """Default no-op visitor over rex trees; override what you need."""

    def visit_literal(self, node: RexLiteral) -> Any:
        return None

    def visit_input_ref(self, node: RexInputRef) -> Any:
        return None

    def visit_dynamic_param(self, node: RexDynamicParam) -> Any:
        return None

    def visit_correl_variable(self, node: RexCorrelVariable) -> Any:
        return None

    def visit_call(self, node: RexCall) -> Any:
        for o in node.operands:
            o.accept(self)
        return None

    def visit_field_access(self, node: RexFieldAccess) -> Any:
        node.expr.accept(self)
        return None

    def visit_over(self, node: RexOver) -> Any:
        for o in node.operands:
            o.accept(self)
        for k in node.partition_keys:
            k.accept(self)
        for k, _ in node.order_keys:
            k.accept(self)
        return None

    def visit_subquery(self, node: RexSubQuery) -> Any:
        for o in node.operands:
            o.accept(self)
        return None


class RexShuttle:
    """A rewriting visitor: returns a (possibly new) node for each input."""

    def apply(self, node: RexNode) -> RexNode:
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        if isinstance(node, RexCall):
            new_operands = [self.apply(o) for o in node.operands]
            if all(a is b for a, b in zip(new_operands, node.operands)):
                return node
            return node.clone(new_operands)
        if isinstance(node, RexFieldAccess):
            new_expr = self.apply(node.expr)
            if new_expr is node.expr:
                return node
            return RexFieldAccess(new_expr, node.field_name, node.type)
        if isinstance(node, RexOver):
            return RexOver(
                node.op,
                [self.apply(o) for o in node.operands],
                [self.apply(k) for k in node.partition_keys],
                [(self.apply(k), d) for k, d in node.order_keys],
                node.lower, node.upper, node.rows, node.type,
            )
        return node

    def apply_all(self, nodes: Iterable[RexNode]) -> List[RexNode]:
        return [self.apply(n) for n in nodes]


class InputRefShifter(RexShuttle):
    """Shift every input reference at or above ``start`` by ``offset``."""

    def __init__(self, offset: int, start: int = 0) -> None:
        self.offset = offset
        self.start = start

    def visit_RexInputRef(self, node: RexInputRef) -> RexNode:
        if node.index >= self.start:
            return RexInputRef(node.index + self.offset, node.type)
        return node


class InputRefRemapper(RexShuttle):
    """Rewrite input references through an explicit index mapping."""

    def __init__(self, mapping: dict) -> None:
        self.mapping = mapping

    def visit_RexInputRef(self, node: RexInputRef) -> RexNode:
        if node.index in self.mapping:
            target = self.mapping[node.index]
            if isinstance(target, RexNode):
                return target
            return RexInputRef(target, node.type)
        return node


class _InputRefCollector(RexVisitor):
    def __init__(self) -> None:
        self.found: set = set()

    def visit_input_ref(self, node: RexInputRef) -> None:
        self.found.add(node.index)


def input_refs_used(node: RexNode) -> set:
    """The set of input field indexes referenced anywhere under ``node``."""
    collector = _InputRefCollector()
    node.accept(collector)
    return collector.found


class _OverFinder(RexVisitor):
    seen = False

    def visit_over(self, node: RexOver) -> None:
        self.seen = True


def contains_over(node: RexNode) -> bool:
    """True if a RexOver appears anywhere in the expression."""
    finder = _OverFinder()
    node.accept(finder)
    return finder.seen


def decompose_conjunction(node: Optional[RexNode]) -> List[RexNode]:
    """Flatten nested ANDs into a list of conjuncts (TRUE → [])."""
    if node is None or node.is_always_true():
        return []
    if isinstance(node, RexCall) and node.kind is SqlKind.AND:
        out: List[RexNode] = []
        for operand in node.operands:
            out.extend(decompose_conjunction(operand))
        return out
    return [node]


def compose_conjunction(nodes: Sequence[RexNode]) -> Optional[RexNode]:
    """AND together a list of predicates; [] → None (meaning TRUE)."""
    nodes = [n for n in nodes if not n.is_always_true()]
    if not nodes:
        return None
    result = nodes[0]
    for n in nodes[1:]:
        result = RexCall(AND, [result, n])
    return result


def decompose_disjunction(node: Optional[RexNode]) -> List[RexNode]:
    """Flatten nested ORs into a list of disjuncts."""
    if node is None:
        return []
    if isinstance(node, RexCall) and node.kind is SqlKind.OR:
        out: List[RexNode] = []
        for operand in node.operands:
            out.extend(decompose_disjunction(operand))
        return out
    return [node]


def literal(value: Any, type_: Optional[RelDataType] = None) -> RexLiteral:
    """Create a literal, inferring a type from the Python value if needed."""
    if type_ is None:
        if isinstance(value, bool):
            type_ = _F.boolean(False)
        elif isinstance(value, int):
            type_ = _F.integer(False)
        elif isinstance(value, float):
            type_ = _F.double(False)
        elif isinstance(value, str):
            type_ = _F.varchar(None, False)
        elif value is None:
            type_ = _F.null_type()
        else:
            type_ = _F.any(False)
    return RexLiteral(value, type_)
