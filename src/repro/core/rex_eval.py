"""Evaluation of row expressions: a closure compiler and its reference
interpreter.

A :class:`~repro.core.rex.RexNode` is evaluated against a row (a Python
tuple).  SQL three-valued logic is represented with ``None``; the
helpers below implement null-propagating comparisons and the
Kleene-logic AND/OR/NOT.

:func:`compile` turns a rex tree into nested Python closures
``fn(row, eval_ctx)`` once; the enumerable runtime (Section 5), the
spark adapter and the vectorized engine's row fallbacks bind those
closures once per execution and call them per row.  The closure is
memoised on the (immutable) node, so a cached plan compiles each of
its expressions once in its lifetime, and everything a statement binds
— dynamic parameters, correlation rows, the subquery executor — is
looked up in the :class:`EvalContext` at call time, never captured, so
one compiled form serves every execution on every thread.

:func:`evaluate` walks the tree per call.  It stays as the reference
the compiler is tested against (``tests/test_rex_eval.py``) and for
one-shot evaluation, where compiling would cost more than it saves:
constant folding in the optimizer (ReduceExpressionsRule).  Both share
one definition of every SQL semantic: ``_STRICT_IMPLS``,
:func:`cast_value`, ``_in`` and ``_item``.
"""

from __future__ import annotations

import math
import operator
import re
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

from .rex import (
    RexCall,
    RexCorrelVariable,
    RexDynamicParam,
    RexFieldAccess,
    RexInputRef,
    RexLiteral,
    RexNode,
    RexOver,
    RexSubQuery,
    SqlKind,
)
from .types import RelDataType, SqlTypeName

#: Functions registered by extensions (geospatial etc.): name → callable.
FUNCTION_REGISTRY: Dict[str, Callable] = {}


def register_runtime_function(name: str, fn: Callable) -> None:
    FUNCTION_REGISTRY[name.upper()] = fn


#: What a strict call's implementation raises on operands it cannot
#: combine (a division by zero, ``'>'`` between an int and a str): both
#: engines turn these into a :class:`RexExecutionError` naming the call.
EVAL_ERRORS = (ArithmeticError, ValueError, TypeError)


class EvalContext:
    """Execution-time bindings: dynamic parameters and correlation rows."""

    def __init__(self, parameters: Sequence[Any] = (),
                 correlations: Optional[Dict[str, tuple]] = None,
                 subquery_executor: Optional[Callable] = None) -> None:
        self.parameters = list(parameters)
        self.correlations = correlations or {}
        self.subquery_executor = subquery_executor


_EMPTY_CONTEXT = EvalContext()


class RexExecutionError(Exception):
    """A row expression failed at runtime (bad cast, unknown function…)."""


def evaluate(node: RexNode, row: Sequence[Any],
             context: EvalContext = _EMPTY_CONTEXT) -> Any:
    """Evaluate ``node`` against ``row``; SQL NULL is Python None."""
    if isinstance(node, RexLiteral):
        return node.value
    if isinstance(node, RexInputRef):
        return row[node.index]
    if isinstance(node, RexDynamicParam):
        if node.index >= len(context.parameters):
            raise RexExecutionError(f"unbound parameter ?{node.index}")
        return context.parameters[node.index]
    if isinstance(node, RexCorrelVariable):
        if node.name not in context.correlations:
            raise RexExecutionError(f"unbound correlation {node.name}")
        return context.correlations[node.name]
    if isinstance(node, RexFieldAccess):
        base = evaluate(node.expr, row, context)
        if base is None:
            return None
        if isinstance(base, dict):
            return base.get(node.field_name)
        if isinstance(base, (tuple, list)):
            struct = node.expr.type
            f = struct.field_by_name(node.field_name)
            if f is None:
                raise RexExecutionError(f"no field {node.field_name}")
            return base[f.index]
        return getattr(base, node.field_name, None)
    if isinstance(node, RexSubQuery):
        if context.subquery_executor is None:
            raise RexExecutionError("no subquery executor in context")
        return context.subquery_executor(node, row, context)
    if isinstance(node, RexOver):
        raise RexExecutionError(
            "RexOver must be evaluated by the Window operator, not inline")
    if isinstance(node, RexCall):
        return _evaluate_call(node, row, context)
    raise RexExecutionError(f"cannot evaluate {node!r}")


def _evaluate_call(call: RexCall, row: Sequence[Any], context: EvalContext) -> Any:
    kind = call.kind
    # Short-circuiting / special forms first.
    if kind is SqlKind.AND:
        result: Optional[bool] = True
        for operand in call.operands:
            v = evaluate(operand, row, context)
            if v is False:
                return False
            if v is None:
                result = None
        return result
    if kind is SqlKind.OR:
        result = False
        for operand in call.operands:
            v = evaluate(operand, row, context)
            if v is True:
                return True
            if v is None:
                result = None
        return result
    if kind is SqlKind.NOT:
        v = evaluate(call.operands[0], row, context)
        return None if v is None else (not v)
    if kind is SqlKind.CASE:
        # operands: [cond1, val1, cond2, val2, ..., else]
        ops = call.operands
        i = 0
        while i + 1 < len(ops):
            if evaluate(ops[i], row, context) is True:
                return evaluate(ops[i + 1], row, context)
            i += 2
        if len(ops) % 2 == 1:
            return evaluate(ops[-1], row, context)
        return None
    if kind is SqlKind.COALESCE:
        for operand in call.operands:
            v = evaluate(operand, row, context)
            if v is not None:
                return v
        return None
    if kind is SqlKind.IS_NULL:
        return evaluate(call.operands[0], row, context) is None
    if kind is SqlKind.IS_NOT_NULL:
        return evaluate(call.operands[0], row, context) is not None
    if kind is SqlKind.IS_TRUE:
        return evaluate(call.operands[0], row, context) is True
    if kind is SqlKind.IS_FALSE:
        return evaluate(call.operands[0], row, context) is False
    if kind is SqlKind.CAST:
        return cast_value(evaluate(call.operands[0], row, context), call.type)
    if kind is SqlKind.ROW:
        return tuple(evaluate(o, row, context) for o in call.operands)
    if kind is SqlKind.ARRAY_VALUE:
        return [evaluate(o, row, context) for o in call.operands]
    if kind is SqlKind.MAP_VALUE:
        vals = [evaluate(o, row, context) for o in call.operands]
        return {vals[i]: vals[i + 1] for i in range(0, len(vals), 2)}

    # Strict functions: evaluate all operands, propagate NULL.
    values = [evaluate(o, row, context) for o in call.operands]
    if kind is SqlKind.ITEM:
        return _item(values[0], values[1])
    if kind in _STRICT_IMPLS:
        if any(v is None for v in values):
            return None
        try:
            return _STRICT_IMPLS[kind](*values)
        except EVAL_ERRORS as exc:
            raise RexExecutionError(f"{call.op.name}: {exc}") from exc
    if kind is SqlKind.IN:
        return _in(values[0], values[1:])
    if kind is SqlKind.NOT_IN:
        v = _in(values[0], values[1:])
        return None if v is None else (not v)
    if kind is SqlKind.BETWEEN:
        a, lo, hi = values
        if a is None or lo is None or hi is None:
            return None
        return lo <= a <= hi
    # Registered extension / user-defined functions.
    fn = FUNCTION_REGISTRY.get(call.op.name.upper())
    if fn is not None:
        if any(v is None for v in values):
            return None
        return fn(*values)
    raise RexExecutionError(f"no implementation for operator {call.op.name}")


def _item(collection: Any, key: Any) -> Any:
    """The ``[]`` operator over ARRAY (1-based, per SQL) and MAP values."""
    if collection is None or key is None:
        return None
    if isinstance(collection, dict):
        return collection.get(key)
    if isinstance(collection, (list, tuple)):
        idx = int(key) - 1  # SQL arrays are 1-based
        if 0 <= idx < len(collection):
            return collection[idx]
        return None
    return None


def _in(value: Any, candidates: Sequence[Any]) -> Optional[bool]:
    if value is None:
        return None
    saw_null = False
    for c in candidates:
        if c is None:
            saw_null = True
        elif c == value:
            return True
    return None if saw_null else False


def _like(value: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    # re.escape escapes % and _ as themselves (no-op), but escapes the
    # backslash forms; rebuild from the original pattern to be safe.
    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    return re.fullmatch(regex, value) is not None


def _divide(a: Any, b: Any) -> Any:
    if b == 0:
        raise RexExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = a / b
        return int(q) if q == int(q) else q
    return a / b


def _extract(unit: str, value: Any) -> int:
    from datetime import date, datetime
    if isinstance(value, (int, float)):
        value = datetime.utcfromtimestamp(value / 1000.0 if value > 1e11 else value)
    unit = unit.upper()
    if not isinstance(value, (date, datetime)):
        raise RexExecutionError(f"EXTRACT from non-temporal {value!r}")
    if unit == "YEAR":
        return value.year
    if unit == "MONTH":
        return value.month
    if unit == "DAY":
        return value.day
    if unit == "HOUR":
        return getattr(value, "hour", 0)
    if unit == "MINUTE":
        return getattr(value, "minute", 0)
    if unit == "SECOND":
        return getattr(value, "second", 0)
    if unit == "DOW":  # 1 (Sunday) .. 7 (Saturday), as Calcite's
        return value.isoweekday() % 7 + 1
    raise RexExecutionError(f"EXTRACT unit {unit} not supported")


_STRICT_IMPLS: Dict[SqlKind, Callable] = {
    SqlKind.EQUALS: operator.eq,
    SqlKind.NOT_EQUALS: operator.ne,
    SqlKind.LESS_THAN: operator.lt,
    SqlKind.LESS_THAN_OR_EQUAL: operator.le,
    SqlKind.GREATER_THAN: operator.gt,
    SqlKind.GREATER_THAN_OR_EQUAL: operator.ge,
    SqlKind.PLUS: operator.add,
    SqlKind.MINUS: operator.sub,
    SqlKind.TIMES: operator.mul,
    SqlKind.DIVIDE: _divide,
    SqlKind.MOD: operator.mod,
    SqlKind.MINUS_PREFIX: operator.neg,
    SqlKind.PLUS_PREFIX: lambda a: a,
    SqlKind.LIKE: _like,
    SqlKind.CONCAT: lambda a, b: str(a) + str(b),
    SqlKind.SUBSTRING: lambda s, start, *length: (
        s[int(start) - 1: int(start) - 1 + int(length[0])] if length else s[int(start) - 1:]),
    SqlKind.UPPER: lambda s: s.upper(),
    SqlKind.LOWER: lambda s: s.lower(),
    SqlKind.CHAR_LENGTH: lambda s: len(s),
    SqlKind.TRIM: lambda s: s.strip(),
    SqlKind.ABS: abs,
    SqlKind.FLOOR: lambda a: math.floor(a),
    SqlKind.CEIL: lambda a: math.ceil(a),
    SqlKind.POWER: lambda a, b: float(a) ** float(b),
    SqlKind.SQRT: lambda a: math.sqrt(a),
    SqlKind.LN: lambda a: math.log(a),
    SqlKind.EXP: lambda a: math.exp(a),
    SqlKind.EXTRACT: _extract,
    # Streaming group-window helpers evaluate over millisecond epochs.
    SqlKind.TUMBLE: lambda ts, interval: (int(ts) // int(interval)) * int(interval),
    SqlKind.TUMBLE_START: lambda ts, interval: (int(ts) // int(interval)) * int(interval),
    SqlKind.TUMBLE_END: lambda ts, interval: (int(ts) // int(interval)) * int(interval) + int(interval),
}


def cast_value(value: Any, target: RelDataType) -> Any:
    """SQL CAST semantics over Python values (NULL passes through)."""
    if value is None:
        return None
    name = target.type_name
    try:
        if name in (SqlTypeName.INTEGER, SqlTypeName.BIGINT,
                    SqlTypeName.SMALLINT, SqlTypeName.TINYINT):
            if isinstance(value, str):
                return int(float(value)) if "." in value else int(value)
            return int(value)
        if name in (SqlTypeName.DOUBLE, SqlTypeName.FLOAT, SqlTypeName.REAL):
            return float(value)
        if name is SqlTypeName.DECIMAL:
            return float(value)
        if name in (SqlTypeName.VARCHAR, SqlTypeName.CHAR):
            s = str(value)
            if target.precision is not None:
                s = s[: target.precision]
            return s
        if name is SqlTypeName.BOOLEAN:
            if isinstance(value, str):
                return value.strip().upper() in ("TRUE", "T", "1", "YES")
            return bool(value)
        if name is SqlTypeName.TIMESTAMP or name is SqlTypeName.DATE:
            return value  # stored as epoch millis or date objects
        return value
    except (ValueError, TypeError) as exc:
        raise RexExecutionError(f"CAST({value!r} AS {target}) failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Compilation to closures
# ---------------------------------------------------------------------------

#: A compiled expression: ``fn(row, eval_ctx) -> value``.
Compiled = Callable[[Sequence[Any], EvalContext], Any]


def compile(node: RexNode) -> Compiled:
    """Compile ``node`` into a closure equivalent to
    ``lambda row, ctx: evaluate(node, row, ctx)`` — same values, same
    errors, same short-circuiting — without the per-row tree walk.

    Memoised on the node: rex trees are immutable and the closure
    captures nothing a statement binds, so concurrent compilation of
    one node is at worst duplicated work.
    """
    fn = getattr(node, "_compiled_row", None)
    if fn is None:
        fn = node._compiled_row = _compile(node)
    return fn


def tuple_getter(indexes: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """``row -> tuple(row[i] for i in indexes)``: projections of plain
    input refs, join keys and group keys."""
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    if not indexes:
        return lambda row: ()
    return itemgetter(*indexes)


def bind_projection(exprs: Sequence[RexNode],
                    context: EvalContext) -> Callable[[Sequence[Any]], tuple]:
    """One execution's ``row -> tuple of exprs``, compiled once."""
    if all(isinstance(e, RexInputRef) for e in exprs):
        return tuple_getter([e.index for e in exprs])
    fns = [compile(e) for e in exprs]
    return lambda row: tuple([f(row, context) for f in fns])


def _raiser(message: str) -> Compiled:
    def run_raise(row: Sequence[Any], ctx: EvalContext) -> Any:
        raise RexExecutionError(message)
    return run_raise


def _compile(node: RexNode) -> Compiled:
    if isinstance(node, RexLiteral):
        value = node.value
        return lambda row, ctx: value
    if isinstance(node, RexInputRef):
        index = node.index
        return lambda row, ctx: row[index]
    if isinstance(node, RexDynamicParam):
        p_index = node.index
        def run_param(row: Sequence[Any], ctx: EvalContext) -> Any:
            try:
                return ctx.parameters[p_index]
            except IndexError:
                raise RexExecutionError(f"unbound parameter ?{p_index}") from None
        return run_param
    if isinstance(node, RexCorrelVariable):
        name = node.name
        def run_correl(row: Sequence[Any], ctx: EvalContext) -> Any:
            try:
                return ctx.correlations[name]
            except KeyError:
                raise RexExecutionError(f"unbound correlation {name}") from None
        return run_correl
    if isinstance(node, RexFieldAccess):
        return _compile_field_access(node)
    if isinstance(node, RexSubQuery):
        def run_subquery(row: Sequence[Any], ctx: EvalContext) -> Any:
            if ctx.subquery_executor is None:
                raise RexExecutionError("no subquery executor in context")
            return ctx.subquery_executor(node, row, ctx)
        return run_subquery
    if isinstance(node, RexOver):
        return _raiser(
            "RexOver must be evaluated by the Window operator, not inline")
    if isinstance(node, RexCall):
        return _compile_call(node)
    return _raiser(f"cannot evaluate {node!r}")


def _compile_field_access(node: RexFieldAccess) -> Compiled:
    base_fn = compile(node.expr)
    field_name = node.field_name
    field = node.expr.type.field_by_name(field_name)

    def run_field(row: Sequence[Any], ctx: EvalContext) -> Any:
        base = base_fn(row, ctx)
        if base is None:
            return None
        if isinstance(base, dict):
            return base.get(field_name)
        if isinstance(base, (tuple, list)):
            if field is None:
                raise RexExecutionError(f"no field {field_name}")
            return base[field.index]
        return getattr(base, field_name, None)
    return run_field


def _flatten(call: RexCall) -> List[RexNode]:
    """Operands of a nested AND/OR chain, left to right.  Kleene AND
    and OR are associative and the interpreter short-circuits left to
    right at every level, so the flat form decides, and stops, at the
    same operand."""
    out: List[RexNode] = []
    for o in call.operands:
        if isinstance(o, RexCall) and o.kind is call.kind:
            out.extend(_flatten(o))
        else:
            out.append(o)
    return out


def _compile_junction(fns: Sequence[Compiled], dominant: bool) -> Compiled:
    """AND (``dominant=False``) / OR (``dominant=True``): the dominant
    value decides at once, otherwise any NULL makes the result NULL."""
    neutral = not dominant
    if len(fns) == 2:
        f0, f1 = fns
        def run_junction2(row: Sequence[Any], ctx: EvalContext) -> Any:
            a = f0(row, ctx)
            if a is dominant:
                return dominant
            b = f1(row, ctx)
            if b is dominant:
                return dominant
            return None if a is None or b is None else neutral
        return run_junction2

    def run_junction(row: Sequence[Any], ctx: EvalContext) -> Any:
        result: Optional[bool] = neutral
        for f in fns:
            v = f(row, ctx)
            if v is dominant:
                return dominant
            if v is None:
                result = None
        return result
    return run_junction


def _compile_unary(fn: Compiled, apply: Callable[[Any], Any]) -> Compiled:
    return lambda row, ctx: apply(fn(row, ctx))


def _compile_call(call: RexCall) -> Compiled:
    kind = call.kind
    # Short-circuiting / special forms first, as in the interpreter.
    if kind is SqlKind.AND or kind is SqlKind.OR:
        return _compile_junction([compile(o) for o in _flatten(call)],
                                 dominant=kind is SqlKind.OR)
    fns = [compile(o) for o in call.operands]
    if kind is SqlKind.NOT:
        return _compile_unary(fns[0], lambda v: None if v is None else (not v))
    if kind is SqlKind.CASE:
        return _compile_case(fns)
    if kind is SqlKind.COALESCE:
        def run_coalesce(row: Sequence[Any], ctx: EvalContext) -> Any:
            for f in fns:
                v = f(row, ctx)
                if v is not None:
                    return v
            return None
        return run_coalesce
    if kind is SqlKind.IS_NULL:
        return _compile_unary(fns[0], lambda v: v is None)
    if kind is SqlKind.IS_NOT_NULL:
        return _compile_unary(fns[0], lambda v: v is not None)
    if kind is SqlKind.IS_TRUE:
        return _compile_unary(fns[0], lambda v: v is True)
    if kind is SqlKind.IS_FALSE:
        return _compile_unary(fns[0], lambda v: v is False)
    if kind is SqlKind.CAST:
        target = call.type
        return _compile_unary(fns[0], lambda v: cast_value(v, target))
    if kind is SqlKind.ROW:
        return lambda row, ctx: tuple([f(row, ctx) for f in fns])
    if kind is SqlKind.ARRAY_VALUE:
        return lambda row, ctx: [f(row, ctx) for f in fns]
    if kind is SqlKind.MAP_VALUE:
        def run_map(row: Sequence[Any], ctx: EvalContext) -> Any:
            vals = [f(row, ctx) for f in fns]
            return {vals[i]: vals[i + 1] for i in range(0, len(vals), 2)}
        return run_map

    # Strict functions: evaluate all operands, propagate NULL.
    if kind is SqlKind.ITEM:
        return _compile_values(fns, lambda vals: _item(vals[0], vals[1]))
    if kind in _STRICT_IMPLS:
        return _compile_strict(call, fns)
    if kind is SqlKind.IN:
        return _compile_values(fns, lambda vals: _in(vals[0], vals[1:]))
    if kind is SqlKind.NOT_IN:
        def not_in(vals: List[Any]) -> Optional[bool]:
            v = _in(vals[0], vals[1:])
            return None if v is None else (not v)
        return _compile_values(fns, not_in)
    if kind is SqlKind.BETWEEN:
        def between(vals: List[Any]) -> Optional[bool]:
            a, lo, hi = vals
            if a is None or lo is None or hi is None:
                return None
            return lo <= a <= hi
        return _compile_values(fns, between)
    # Registered extension / user-defined functions: looked up per
    # call, like the interpreter, so later (re-)registration is seen.
    op_name = call.op.name
    def registered(vals: List[Any]) -> Any:
        fn = FUNCTION_REGISTRY.get(op_name.upper())
        if fn is None:
            raise RexExecutionError(
                f"no implementation for operator {op_name}")
        if any(v is None for v in vals):
            return None
        return fn(*vals)
    return _compile_values(fns, registered)


def _compile_values(fns: Sequence[Compiled],
                    apply: Callable[[List[Any]], Any]) -> Compiled:
    return lambda row, ctx: apply([f(row, ctx) for f in fns])


def _compile_case(fns: Sequence[Compiled]) -> Compiled:
    # operands: [cond1, val1, cond2, val2, ..., else]
    branches = [(fns[i], fns[i + 1]) for i in range(0, len(fns) - 1, 2)]
    otherwise = fns[-1] if len(fns) % 2 == 1 else None

    def run_case(row: Sequence[Any], ctx: EvalContext) -> Any:
        for cond, value in branches:
            if cond(row, ctx) is True:
                return value(row, ctx)
        return otherwise(row, ctx) if otherwise is not None else None
    return run_case


def _compile_strict(call: RexCall, fns: Sequence[Compiled]) -> Compiled:
    """A ``_STRICT_IMPLS`` call: NULL in, NULL out; arithmetic and value
    errors surface as :class:`RexExecutionError`.  Binary calls — nearly
    every predicate and arithmetic node — get their own closures, and
    the lookup shapes ``$i op literal``, ``$i op $j`` and ``$i op ?p``
    read their operands in place instead of through leaf closures
    (about a third off the call)."""
    impl = _STRICT_IMPLS[call.kind]
    name = call.op.name

    if len(fns) != 2:
        def run_strict(row: Sequence[Any], ctx: EvalContext) -> Any:
            vals = [f(row, ctx) for f in fns]
            if any(v is None for v in vals):
                return None
            try:
                return impl(*vals)
            except EVAL_ERRORS as exc:
                raise RexExecutionError(f"{name}: {exc}") from exc
        return run_strict

    left, right = call.operands
    f0, f1 = fns
    if isinstance(left, RexInputRef):
        i = left.index
        if isinstance(right, RexLiteral) and right.value is not None:
            const = right.value
            def run_ref_const(row: Sequence[Any], ctx: EvalContext) -> Any:
                a = row[i]
                if a is None:
                    return None
                try:
                    return impl(a, const)
                except EVAL_ERRORS as exc:
                    raise RexExecutionError(f"{name}: {exc}") from exc
            return run_ref_const
        if isinstance(right, RexInputRef):
            j = right.index
            def run_ref_ref(row: Sequence[Any], ctx: EvalContext) -> Any:
                a = row[i]
                b = row[j]
                if a is None or b is None:
                    return None
                try:
                    return impl(a, b)
                except EVAL_ERRORS as exc:
                    raise RexExecutionError(f"{name}: {exc}") from exc
            return run_ref_ref
        if isinstance(right, RexDynamicParam):
            p = right.index
            def run_ref_param(row: Sequence[Any], ctx: EvalContext) -> Any:
                a = row[i]
                try:
                    b = ctx.parameters[p]
                except IndexError:
                    raise RexExecutionError(f"unbound parameter ?{p}") from None
                if a is None or b is None:
                    return None
                try:
                    return impl(a, b)
                except EVAL_ERRORS as exc:
                    raise RexExecutionError(f"{name}: {exc}") from exc
            return run_ref_param

    def run_binary(row: Sequence[Any], ctx: EvalContext) -> Any:
        a = f0(row, ctx)
        b = f1(row, ctx)
        if a is None or b is None:
            return None
        try:
            return impl(a, b)
        except EVAL_ERRORS as exc:
            raise RexExecutionError(f"{name}: {exc}") from exc
    return run_binary
