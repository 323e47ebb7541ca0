"""Columnar compilation of row expressions.

:func:`compile_rex` translates a :class:`~repro.core.rex.RexNode` tree
into a closure tree evaluated *batch at a time*: each compiled node
consumes whole operand columns and produces a whole result column in
one tight loop, instead of re-walking the expression tree per row the
way the reference interpreter :func:`repro.core.rex_eval.evaluate` does.

Semantics must agree exactly with the row interpreter (the differential
suite enforces this), so the scalar kernels are shared: strict calls
dispatch to ``rex_eval._STRICT_IMPLS``, casts to ``rex_eval.cast_value``
and so on.  SQL three-valued logic keeps ``None`` for NULL; AND/OR use
the same Kleene truth tables as the interpreter (``False`` dominates
AND, ``True`` dominates OR, anything else with a NULL is NULL).

Literals and dynamic parameters compile to :class:`Scalar` values that
never materialise a column; binary kernels specialise on the
scalar/column shape of each operand.

A column is a list or a typed int64 array (:mod:`.typed`).  A
comparison of a typed column with an int scalar or another typed column
is one numpy comparison yielding a bool mask; every other kernel walks
built-in values, so it turns an array operand into a list first
(:func:`_values`), and the list kernel stays the one definition of the
call's semantics.

Compiled closures are **late bound**: a dynamic parameter (``?``)
compiles to a lookup into the executing frame's
``ctx.parameters``, never to the value that happened to be bound at
compile time.  This is the invariant that makes plan reuse safe — the
server's plan cache hands the *same* optimized plan (and therefore the
same rex trees) to every execution of a prepared statement, and each
execution must see its own parameter values.  Because compilation is
pure, its result is memoised on the rex node itself
(``_compiled_columnar``), so repeat executions of a cached plan skip
the tree walk entirely.

Exact agreement includes *evaluation* behaviour, not just values: the
row interpreter short-circuits AND/OR per row and evaluates CASE
branches and COALESCE operands only where earlier alternatives did not
decide the row.  A guard like ``b <> 0 AND a / b > 1`` must therefore
never divide by zero here either.  The conditional kernels evaluate
each subsequent operand only over the rows still undecided, using a
lazily gathered sub-frame (:func:`_eval_subset`).

Expressions the columnar engine cannot evaluate batch-wise (subqueries,
correlation variables, window calls, field accesses) fall back to the
row engine's compiled closure (:func:`repro.core.rex_eval.compile`)
over lazily materialised row tuples, so any rex tree is compilable.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from ...core.rex import (
    RexCall,
    RexDynamicParam,
    RexInputRef,
    RexLiteral,
    RexNode,
    SqlKind,
)
from ...core.rex_eval import (
    _STRICT_IMPLS,
    _in,
    _item,
    EvalContext,
    FUNCTION_REGISTRY,
    EVAL_ERRORS,
    RexExecutionError,
    cast_value,
    compile as compile_row_rex,
)
from .batch import ColumnBatch, gather_columns, pylist


class Scalar:
    """A value constant across the whole batch (literal or parameter)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


#: a Scalar, a list, or an array (a typed column or a comparison's mask)
Vector = Union[Scalar, list, Any]


class Frame:
    """One batch presented to compiled expressions.

    Columns must be compact (no selection vector).  Row tuples are
    materialised lazily, only if a fallback expression needs them.
    """

    __slots__ = ("columns", "num_rows", "ctx", "_rows")

    def __init__(self, columns: Sequence[Sequence], num_rows: int,
                 ctx: Optional[EvalContext] = None) -> None:
        self.columns = columns
        self.num_rows = num_rows
        self.ctx = ctx if ctx is not None else EvalContext()
        self._rows: Optional[List[tuple]] = None

    @staticmethod
    def of(batch: ColumnBatch, ctx: Optional[EvalContext] = None) -> "Frame":
        compacted = batch.compact()
        return Frame(compacted.columns, compacted.num_rows, ctx)

    def rows(self) -> List[tuple]:
        if self._rows is None:
            self._rows = (list(zip(*map(pylist, self.columns)))
                          if self.num_rows else [])
        return self._rows


CompiledExpr = Callable[[Frame], Vector]


def as_column(vec: Vector, n: int) -> Any:
    """Broadcast a scalar into a column (only at true column boundaries);
    a typed array stays one, a comparison's mask becomes a list."""
    if isinstance(vec, Scalar):
        return [vec.value] * n
    if isinstance(vec, list):
        return vec
    from . import typed
    return typed.as_column(vec)


def _values(vec: Vector) -> Union[Scalar, list]:
    """A vector the per-value kernels can walk: an array as a list of
    built-in values, anything else as it is."""
    return vec if isinstance(vec, Scalar) else pylist(vec)


def compile_rex(node: RexNode) -> CompiledExpr:
    """Compile a rex tree into a batch-at-a-time evaluator.

    Compilation is memoised per node: the closure depends only on the
    (immutable) rex tree, with parameter values looked up from the
    frame at evaluation time, so one compiled form serves every
    execution of a cached plan.
    """
    compiled = getattr(node, "_compiled_columnar", None)
    if compiled is None:
        compiled = _compile_rex(node)
        node._compiled_columnar = compiled
    return compiled


def _compile_rex(node: RexNode) -> CompiledExpr:
    if isinstance(node, RexLiteral):
        constant = Scalar(node.value)
        return lambda frame: constant
    if isinstance(node, RexInputRef):
        index = node.index
        return lambda frame: frame.columns[index]
    if isinstance(node, RexDynamicParam):
        p_index = node.index
        def run_param(frame: Frame) -> Vector:
            if p_index >= len(frame.ctx.parameters):
                raise RexExecutionError(f"unbound parameter ?{p_index}")
            return Scalar(frame.ctx.parameters[p_index])
        return run_param
    if isinstance(node, RexCall):
        return _compile_call(node)
    # Subqueries, correlation variables, field accesses, RexOver: delegate
    # row by row to the row engine (same error behaviour, same results).
    return _row_fallback(node)


def _row_fallback(node: RexNode) -> CompiledExpr:
    run_row = compile_row_rex(node)

    def run_fallback(frame: Frame) -> Vector:
        ctx = frame.ctx
        return [run_row(row, ctx) for row in frame.rows()]
    return run_fallback


def _compile_call(call: RexCall) -> CompiledExpr:
    kind = call.kind
    operands = [compile_rex(o) for o in call.operands]

    if kind is SqlKind.AND:
        return _compile_and(operands)
    if kind is SqlKind.OR:
        return _compile_or(operands)
    if kind is SqlKind.NOT:
        return _map_unary(operands[0], lambda v: None if v is None else (not v))
    if kind is SqlKind.CASE:
        return _compile_case(operands)
    if kind is SqlKind.COALESCE:
        return _compile_coalesce(operands)
    if kind is SqlKind.IS_NULL:
        return _map_unary(operands[0], lambda v: v is None)
    if kind is SqlKind.IS_NOT_NULL:
        return _map_unary(operands[0], lambda v: v is not None)
    if kind is SqlKind.IS_TRUE:
        return _map_unary(operands[0], lambda v: v is True)
    if kind is SqlKind.IS_FALSE:
        return _map_unary(operands[0], lambda v: v is False)
    if kind is SqlKind.CAST:
        target = call.type
        return _map_unary(operands[0], lambda v: cast_value(v, target))
    if kind is SqlKind.ROW:
        return _map_nary(operands, lambda vals: tuple(vals))
    if kind is SqlKind.ARRAY_VALUE:
        return _map_nary(operands, lambda vals: list(vals))
    if kind is SqlKind.MAP_VALUE:
        return _map_nary(operands, lambda vals: {
            vals[i]: vals[i + 1] for i in range(0, len(vals), 2)})
    if kind is SqlKind.ITEM:
        return _map_binary(operands[0], operands[1], _item)
    if kind is SqlKind.IN:
        return _compile_in(operands, negate=False)
    if kind is SqlKind.NOT_IN:
        return _compile_in(operands, negate=True)
    if kind is SqlKind.BETWEEN:
        return _compile_between(operands)
    if kind in _STRICT_IMPLS:
        fn = _STRICT_IMPLS[kind]
        name = call.op.name
        if len(operands) == 1:
            # _strict_scalar already owns NULL propagation; strict=False
            # avoids a second per-element None check.
            return _map_unary(operands[0], _strict_scalar(fn, name))
        if len(operands) == 2:
            return _strict_binary(operands[0], operands[1], fn, name)
        return _map_nary(operands, _strict_nary(fn, name))
    registered = FUNCTION_REGISTRY.get(call.op.name.upper())
    if registered is not None:
        # NULL-propagate like the interpreter, but do NOT wrap errors:
        # the row engine calls registered functions bare, so their
        # exceptions must surface with the same type here.
        fn = registered
        return _map_nary(operands, lambda vals: (
            None if any(v is None for v in vals) else fn(*vals)))
    # Unknown call kind: let the row interpreter produce its error/result.
    return _row_fallback(call)


def _wrap_errors(fn: Callable, name: str) -> Callable:
    def safe(a: Any, b: Any) -> Any:
        try:
            return fn(a, b)
        except EVAL_ERRORS as exc:
            raise RexExecutionError(f"{name}: {exc}") from exc
    return safe


def _strict_scalar(fn: Callable, name: str) -> Callable:
    def safe(v: Any) -> Any:
        if v is None:
            return None
        try:
            return fn(v)
        except EVAL_ERRORS as exc:
            raise RexExecutionError(f"{name}: {exc}") from exc
    return safe


def _strict_nary(fn: Callable, name: str) -> Callable:
    def safe(vals: Sequence[Any]) -> Any:
        if any(v is None for v in vals):
            return None
        try:
            return fn(*vals)
        except EVAL_ERRORS as exc:
            raise RexExecutionError(f"{name}: {exc}") from exc
    return safe


# ---------------------------------------------------------------------------
# Subset evaluation (for short-circuiting kernels)
# ---------------------------------------------------------------------------

class _GatherColumns:
    """A lazy, column-cached gather view over a frame's columns.

    Conditional kernels evaluate an operand over only the still-active
    row positions; this view gathers just the columns that operand
    actually touches.
    """

    __slots__ = ("_base", "_indices", "_cache")

    def __init__(self, base: Sequence, indices: List[int]) -> None:
        self._base = base
        self._indices = indices
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self._base)

    def __getitem__(self, k: int) -> list:
        col = self._cache.get(k)
        if col is None:
            col = gather_columns([self._base[k]], self._indices)[0]
            self._cache[k] = col
        return col

    def __iter__(self):
        return (self[k] for k in range(len(self._base)))


def _eval_subset(op: CompiledExpr, frame: Frame, indices: List[int]) -> Vector:
    """Evaluate ``op`` over only the given row positions of ``frame``.

    Returns a Scalar, or a column aligned with ``indices``.  When every
    row is active this is a plain full-frame evaluation (no gather).
    """
    if len(indices) == frame.num_rows:
        return op(frame)
    sub = Frame(_GatherColumns(frame.columns, indices), len(indices),
                frame.ctx)
    return op(sub)


# ---------------------------------------------------------------------------
# Kernel shapes
# ---------------------------------------------------------------------------

def _map_unary(operand: CompiledExpr, fn: Callable,
               strict: bool = False) -> CompiledExpr:
    """Elementwise unary kernel; ``strict`` adds NULL propagation."""
    if strict:
        inner = fn
        fn = lambda v: None if v is None else inner(v)
    def run(frame: Frame) -> Vector:
        vec = _values(operand(frame))
        if isinstance(vec, Scalar):
            if frame.num_rows == 0:
                return []  # the row engine never evaluates over no rows
            return Scalar(fn(vec.value))
        return [fn(v) for v in vec]
    return run


def _map_binary(left: CompiledExpr, right: CompiledExpr,
                fn: Callable) -> CompiledExpr:
    """Elementwise binary kernel; ``fn`` owns its NULL handling."""
    def run(frame: Frame) -> Vector:
        return _apply_binary(fn, left(frame), right(frame), frame.num_rows)
    return run


def _apply_binary(fn: Callable, a: Vector, b: Vector, n: int) -> Vector:
    """``fn`` over two evaluated operands, specialised on their
    scalar/column shapes."""
    a = _values(a)
    b = _values(b)
    a_scalar = isinstance(a, Scalar)
    b_scalar = isinstance(b, Scalar)
    if a_scalar and b_scalar:
        if n == 0:
            return []  # the row engine never evaluates over no rows
        return Scalar(fn(a.value, b.value))
    if a_scalar:
        av = a.value
        return [fn(av, bv) for bv in b]
    if b_scalar:
        bv = b.value
        return [fn(av, bv) for av in a]
    return [fn(av, bv) for av, bv in zip(a, b)]


def _strict_binary(left: CompiledExpr, right: CompiledExpr, fn: Callable,
                   name: str) -> CompiledExpr:
    """A binary ``_STRICT_IMPLS`` call.

    A comparison with a typed column on one side and a scalar or column
    of the same kind on the other is one numpy comparison (a bool mask).
    Otherwise a column against a non-NULL scalar — nearly every filter
    predicate — or against another column calls ``fn`` straight from
    one comprehension, with the NULL test inline.  Scalar pairs, NULL
    scalars and any arithmetic, value or type error go through the
    checked kernel, which raises the same :class:`RexExecutionError` as
    the row engine.
    """
    checked = _wrap_errors(fn, name)
    strict = lambda a, b: None if (a is None or b is None) else checked(a, b)
    def run(frame: Frame) -> Vector:
        a = left(frame)
        b = right(frame)
        if not isinstance(a, (Scalar, list)) or \
                not isinstance(b, (Scalar, list)):
            from . import typed
            mask = typed.compare(fn, a, b)
            if mask is not None:
                return mask
            a = _values(a)
            b = _values(b)
        try:
            if isinstance(b, Scalar):
                s = b.value
                if s is not None and not isinstance(a, Scalar):
                    return [None if v is None else fn(v, s) for v in a]
            elif isinstance(a, Scalar):
                s = a.value
                if s is not None:
                    return [None if v is None else fn(s, v) for v in b]
            else:
                return [None if (x is None or y is None) else fn(x, y)
                        for x, y in zip(a, b)]
        except EVAL_ERRORS:
            pass  # re-run checked, for the error the row engine raises
        return _apply_binary(strict, a, b, frame.num_rows)
    return run


def _map_nary(operands: List[CompiledExpr], fn: Callable) -> CompiledExpr:
    """Elementwise n-ary kernel; ``fn`` receives the value tuple and is
    responsible for its own NULL handling."""
    def run(frame: Frame) -> Vector:
        vecs = [_values(op(frame)) for op in operands]
        if all(isinstance(v, Scalar) for v in vecs):
            if frame.num_rows == 0:
                return []  # the row engine never evaluates over no rows
            return Scalar(fn([v.value for v in vecs]))
        n = frame.num_rows
        cols = [as_column(v, n) for v in vecs]
        return [fn(vals) for vals in zip(*cols)]
    return run


def _compile_and(operands: List[CompiledExpr]) -> CompiledExpr:
    """Kleene AND: FALSE dominates, then NULL, else TRUE.

    Short-circuits per row like the interpreter: operand *k* is only
    evaluated over rows no earlier operand decided FALSE, so guarded
    expressions (``b <> 0 AND a / b > 1``) never error on rejected rows.
    """
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        out: List[Any] = [True] * n
        active = list(range(n))  # rows with no FALSE conjunct yet
        for op in operands:
            if not active:
                break
            vec = _values(_eval_subset(op, frame, active))
            if isinstance(vec, Scalar):
                v = vec.value
                if v is False:
                    for i in active:
                        out[i] = False
                    active = []
                elif v is None:
                    for i in active:
                        out[i] = None
                continue
            still: List[int] = []
            for pos, i in enumerate(active):
                v = vec[pos]
                if v is False:
                    out[i] = False
                else:
                    if v is None:
                        out[i] = None
                    still.append(i)
            active = still
        return out
    return run


def _compile_or(operands: List[CompiledExpr]) -> CompiledExpr:
    """Kleene OR: TRUE dominates, then NULL, else FALSE.

    Matches the interpreter exactly: only a value that *is* ``True``
    makes the disjunction true (truthy non-booleans do not), and
    operand *k* is only evaluated over rows not already decided TRUE.
    """
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        out: List[Any] = [False] * n
        active = list(range(n))  # rows with no TRUE disjunct yet
        for op in operands:
            if not active:
                break
            vec = _values(_eval_subset(op, frame, active))
            if isinstance(vec, Scalar):
                v = vec.value
                if v is True:
                    for i in active:
                        out[i] = True
                    active = []
                elif v is None:
                    for i in active:
                        out[i] = None
                continue
            still: List[int] = []
            for pos, i in enumerate(active):
                v = vec[pos]
                if v is True:
                    out[i] = True
                else:
                    if v is None:
                        out[i] = None
                    still.append(i)
            active = still
        return out
    return run


def _scatter(vec: Vector, indices: List[int], out: List[Any]) -> None:
    """Write a subset-evaluation result back to the full output column."""
    if isinstance(vec, Scalar):
        v = vec.value
        for i in indices:
            out[i] = v
    else:
        for pos, i in enumerate(indices):
            out[i] = vec[pos]


def _compile_case(operands: List[CompiledExpr]) -> CompiledExpr:
    """CASE over columns: [cond1, val1, cond2, val2, ..., else?].

    Each condition is evaluated only over still-undecided rows and each
    branch value only over the rows its condition selected — the same
    rows the interpreter would touch.
    """
    pairs = [(operands[i], operands[i + 1])
             for i in range(0, len(operands) - 1, 2)]
    default = operands[-1] if len(operands) % 2 == 1 else None
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        out: List[Any] = [None] * n
        undecided = list(range(n))
        for cond, val in pairs:
            if not undecided:
                break
            cond_vec = _values(_eval_subset(cond, frame, undecided))
            if isinstance(cond_vec, Scalar):
                matched = undecided if cond_vec.value is True else []
                undecided = [] if cond_vec.value is True else undecided
            else:
                matched = [i for pos, i in enumerate(undecided)
                           if cond_vec[pos] is True]
                undecided = [i for pos, i in enumerate(undecided)
                             if cond_vec[pos] is not True]
            if matched:
                _scatter(_values(_eval_subset(val, frame, matched)), matched, out)
        if default is not None and undecided:
            _scatter(_values(_eval_subset(default, frame, undecided)), undecided, out)
        return out
    return run


def _compile_coalesce(operands: List[CompiledExpr]) -> CompiledExpr:
    """COALESCE: operand *k* is only evaluated over rows every earlier
    operand left NULL."""
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        out: List[Any] = [None] * n
        pending = list(range(n))
        for op in operands:
            if not pending:
                break
            vec = _values(_eval_subset(op, frame, pending))
            if isinstance(vec, Scalar):
                if vec.value is not None:
                    for i in pending:
                        out[i] = vec.value
                    pending = []
                continue
            still: List[int] = []
            for pos, i in enumerate(pending):
                v = vec[pos]
                if v is None:
                    still.append(i)
                else:
                    out[i] = v
            pending = still
        return out
    return run


def _compile_in(operands: List[CompiledExpr], negate: bool) -> CompiledExpr:
    value_expr, candidate_exprs = operands[0], operands[1:]
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        value_col = _values(as_column(value_expr(frame), n))
        vecs = [_values(c(frame)) for c in candidate_exprs]
        if all(isinstance(v, Scalar) for v in vecs):
            # The common `col IN (literals…)` shape: one candidate list
            # shared by every row instead of K broadcast columns.
            candidates = [v.value for v in vecs]
            out = [_in(v, candidates) for v in value_col]
        else:
            candidate_cols = [as_column(v, n) for v in vecs]
            out = [_in(value_col[i], [c[i] for c in candidate_cols])
                   for i in range(n)]
        if negate:
            return [None if v is None else (not v) for v in out]
        return out
    return run


def _compile_between(operands: List[CompiledExpr]) -> CompiledExpr:
    def between(a: Any, lo: Any, hi: Any) -> Any:
        if a is None or lo is None or hi is None:
            return None
        return lo <= a <= hi
    def run(frame: Frame) -> Vector:
        n = frame.num_rows
        value_col, lo_col, hi_col = (_values(as_column(e(frame), n))
                                     for e in operands)
        return [between(a, lo, hi)
                for a, lo, hi in zip(value_col, lo_col, hi_col)]
    return run


# ---------------------------------------------------------------------------
# Convenience entry point (used by tests and the executor)
# ---------------------------------------------------------------------------

def eval_rex_column(node: RexNode, batch: ColumnBatch,
                    ctx: Optional[EvalContext] = None) -> list:
    """Evaluate ``node`` over a whole batch, returning a full column."""
    frame = Frame.of(batch, ctx)
    return as_column(compile_rex(node)(frame), frame.num_rows)
