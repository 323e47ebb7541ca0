"""Unit tests for the row-expression interpreter (three-valued logic),
and the property suite holding the closure compiler to it."""

import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import rex as rexmod
from repro.core.rex import RexCall, RexDynamicParam, RexInputRef, literal
from repro.core.rex_eval import (
    EvalContext,
    RexExecutionError,
    cast_value,
    compile as compile_rex,
    evaluate,
    register_runtime_function,
)
from repro.core.types import DEFAULT_TYPE_FACTORY as F


def ref(i, type_=None):
    return RexInputRef(i, type_ or F.integer())


def call(op, *operands):
    return RexCall(op, list(operands))


class TestArithmetic:
    def test_basic(self):
        assert evaluate(call(rexmod.PLUS, literal(2), literal(3)), ()) == 5
        assert evaluate(call(rexmod.TIMES, literal(2), literal(3)), ()) == 6
        assert evaluate(call(rexmod.MINUS, literal(2), literal(3)), ()) == -1

    def test_integer_division(self):
        assert evaluate(call(rexmod.DIVIDE, literal(7), literal(2)), ()) == 3.5
        assert evaluate(call(rexmod.DIVIDE, literal(6), literal(2)), ()) == 3

    def test_division_by_zero(self):
        with pytest.raises(RexExecutionError):
            evaluate(call(rexmod.DIVIDE, literal(1), literal(0)), ())

    def test_null_propagates(self):
        assert evaluate(call(rexmod.PLUS, literal(None), literal(3)), ()) is None

    def test_mod(self):
        assert evaluate(call(rexmod.MOD, literal(7), literal(3)), ()) == 1


class TestThreeValuedLogic:
    def test_and(self):
        t, f, n = literal(True), literal(False), literal(None)
        assert evaluate(call(rexmod.AND, t, t), ()) is True
        assert evaluate(call(rexmod.AND, t, f), ()) is False
        assert evaluate(call(rexmod.AND, f, n), ()) is False  # short circuit
        assert evaluate(call(rexmod.AND, t, n), ()) is None

    def test_or(self):
        t, f, n = literal(True), literal(False), literal(None)
        assert evaluate(call(rexmod.OR, f, t), ()) is True
        assert evaluate(call(rexmod.OR, t, n), ()) is True
        assert evaluate(call(rexmod.OR, f, n), ()) is None

    def test_not(self):
        assert evaluate(call(rexmod.NOT, literal(True)), ()) is False
        assert evaluate(call(rexmod.NOT, literal(None)), ()) is None

    def test_null_comparison_is_null(self):
        assert evaluate(call(rexmod.EQUALS, literal(None), literal(1)), ()) is None

    def test_is_null_tests(self):
        assert evaluate(call(rexmod.IS_NULL, literal(None)), ()) is True
        assert evaluate(call(rexmod.IS_NOT_NULL, literal(None)), ()) is False
        assert evaluate(call(rexmod.IS_TRUE, literal(None)), ()) is False


class TestRowAccess:
    def test_input_ref(self):
        assert evaluate(ref(1), (10, 20)) == 20

    def test_dynamic_param(self):
        ctx = EvalContext(parameters=[42])
        assert evaluate(RexDynamicParam(0, F.any()), (), ctx) == 42

    def test_unbound_param_raises(self):
        with pytest.raises(RexExecutionError):
            evaluate(RexDynamicParam(2, F.any()), (), EvalContext())


class TestStringFunctions:
    def test_like(self):
        assert evaluate(call(rexmod.LIKE, literal("hello"), literal("he%")), ()) is True
        assert evaluate(call(rexmod.LIKE, literal("hello"), literal("h_llo")), ()) is True
        assert evaluate(call(rexmod.LIKE, literal("hello"), literal("x%")), ()) is False

    def test_like_escapes_regex_chars(self):
        assert evaluate(call(rexmod.LIKE, literal("a.c"), literal("a.c")), ()) is True
        assert evaluate(call(rexmod.LIKE, literal("abc"), literal("a.c")), ()) is False

    def test_concat_upper_lower(self):
        assert evaluate(call(rexmod.CONCAT, literal("a"), literal("b")), ()) == "ab"
        assert evaluate(call(rexmod.UPPER, literal("ab")), ()) == "AB"
        assert evaluate(call(rexmod.LOWER, literal("AB")), ()) == "ab"

    def test_substring(self):
        assert evaluate(call(rexmod.SUBSTRING, literal("hello"), literal(2)), ()) == "ello"
        assert evaluate(
            call(rexmod.SUBSTRING, literal("hello"), literal(2), literal(3)), ()) == "ell"

    def test_char_length_trim(self):
        assert evaluate(call(rexmod.CHAR_LENGTH, literal("abc")), ()) == 3
        assert evaluate(call(rexmod.TRIM, literal("  x ")), ()) == "x"


class TestSpecialForms:
    def test_case(self):
        expr = RexCall(rexmod.CASE, [
            call(rexmod.GREATER_THAN, ref(0), literal(10)), literal("big"),
            literal("small")], F.varchar())
        assert evaluate(expr, (20,)) == "big"
        assert evaluate(expr, (5,)) == "small"

    def test_case_no_else(self):
        expr = RexCall(rexmod.CASE, [
            call(rexmod.GREATER_THAN, ref(0), literal(10)), literal("big")],
            F.varchar())
        assert evaluate(expr, (5,)) is None

    def test_coalesce(self):
        expr = call(rexmod.COALESCE, literal(None), literal(None), literal(7))
        assert evaluate(expr, ()) == 7

    def test_in_list(self):
        expr = call(rexmod.IN, ref(0), literal(1), literal(2))
        assert evaluate(expr, (2,)) is True
        assert evaluate(expr, (3,)) is False

    def test_in_with_null_candidate(self):
        expr = call(rexmod.IN, ref(0), literal(1), literal(None))
        assert evaluate(expr, (1,)) is True
        assert evaluate(expr, (3,)) is None  # unknown, not false

    def test_between(self):
        expr = call(rexmod.BETWEEN, ref(0), literal(1), literal(5))
        assert evaluate(expr, (3,)) is True
        assert evaluate(expr, (9,)) is False

    def test_item_array_one_based(self):
        arr = literal(["a", "b"], F.array(F.varchar()))
        assert evaluate(call(rexmod.ITEM, arr, literal(1)), ()) == "a"
        assert evaluate(call(rexmod.ITEM, arr, literal(3)), ()) is None

    def test_item_map(self):
        m = literal({"city": "SF"}, F.map(F.varchar(), F.any()))
        assert evaluate(call(rexmod.ITEM, m, literal("city")), ()) == "SF"
        assert evaluate(call(rexmod.ITEM, m, literal("nope")), ()) is None

    def test_row_constructor(self):
        expr = call(rexmod.ROW, literal(1), literal("a"))
        assert evaluate(expr, ()) == (1, "a")


class TestCast:
    def test_numeric_casts(self):
        assert cast_value("42", F.integer()) == 42
        assert cast_value("4.5", F.double()) == 4.5
        assert cast_value(3.9, F.integer()) == 3
        assert cast_value("3.5", F.integer()) == 3

    def test_string_cast_truncates(self):
        assert cast_value(12345, F.varchar(3)) == "123"

    def test_boolean_cast(self):
        assert cast_value("true", F.boolean()) is True
        assert cast_value("no", F.boolean()) is False
        assert cast_value(0, F.boolean()) is False

    def test_null_passthrough(self):
        assert cast_value(None, F.integer()) is None

    def test_bad_cast_raises(self):
        with pytest.raises(RexExecutionError):
            cast_value("abc", F.integer())

    def test_cast_call(self):
        expr = RexCall(rexmod.CAST, [literal("7")], F.integer())
        assert evaluate(expr, ()) == 7


class TestMathFunctions:
    def test_abs_floor_ceil(self):
        assert evaluate(call(rexmod.ABS, literal(-3)), ()) == 3
        assert evaluate(call(rexmod.FLOOR, literal(3.7)), ()) == 3
        assert evaluate(call(rexmod.CEIL, literal(3.2)), ()) == 4

    def test_power_sqrt(self):
        assert evaluate(call(rexmod.POWER, literal(2), literal(10)), ()) == 1024.0
        assert evaluate(call(rexmod.SQRT, literal(16)), ()) == 4.0


class TestRegisteredFunctions:
    def test_registry_dispatch(self):
        from repro.core.rex_eval import register_runtime_function
        op = rexmod.register_function("DOUBLE_IT_TEST")
        register_runtime_function("DOUBLE_IT_TEST", lambda x: x * 2)
        assert evaluate(call(op, literal(21)), ()) == 42

    def test_unknown_function_raises(self):
        op = rexmod.SqlOperator("NO_IMPL_FN", rexmod.SqlKind.FUNCTION)
        with pytest.raises(RexExecutionError):
            evaluate(RexCall(op, [literal(1)]), ())


class TestTumble:
    def test_tumble_buckets(self):
        expr = call(rexmod.TUMBLE, literal(3_700_000), literal(3_600_000))
        assert evaluate(expr, ()) == 3_600_000
        end = call(rexmod.TUMBLE_END, literal(3_700_000), literal(3_600_000))
        assert evaluate(end, ()) == 7_200_000


# ---------------------------------------------------------------------------
# compile(node) is evaluate(node, ·) without the tree walk
# ---------------------------------------------------------------------------

#: rows of (int, int|NULL, int|NULL, varchar|NULL, int array|NULL): NULL-heavy
ROWS = st.tuples(
    st.integers(-5, 5),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.none(), st.integers(-50, 50)),
    st.one_of(st.none(), st.sampled_from(["7", "-2", "12", "x%"])),
    st.one_of(st.none(), st.lists(st.one_of(st.none(), st.integers(0, 9)),
                                  max_size=3)))
#: ?0 and ?1 are bound (?1 to NULL); ?2 is not
CONTEXT = EvalContext([3, None])

TWICE = rexmod.register_function("REX_EVAL_TEST_TWICE")
register_runtime_function("REX_EVAL_TEST_TWICE", lambda x: x * 2)
NO_IMPL = rexmod.SqlOperator("REX_EVAL_TEST_NO_IMPL", rexmod.SqlKind.FUNCTION)

_int_leaf = st.one_of(
    st.sampled_from([ref(0, F.integer(False)), ref(1), ref(2)]),
    st.one_of(st.integers(-6, 6), st.integers(-6, 6), st.none()).map(literal),
    st.sampled_from([RexDynamicParam(i, F.integer())
                     for i in (0, 0, 0, 1, 1, 2)]))
_varchar = st.one_of(st.just(ref(3, F.varchar())),
                     st.sampled_from(["7", "1%", "x%", "%"]).map(literal))
_castable = st.one_of(st.just(ref(3, F.varchar())),
                      st.sampled_from(["7", "-2", "3.9", "a"]).map(literal))


def _binary(ops, left, right):
    return st.builds(lambda op, a, b: RexCall(op, [a, b]),
                     st.sampled_from(ops), left, right)


def _int_nodes(ints, bools):
    return st.one_of(
        _binary([rexmod.PLUS, rexmod.MINUS, rexmod.TIMES, rexmod.DIVIDE,
                 rexmod.MOD], ints, ints),
        st.builds(lambda op, a: RexCall(op, [a], F.integer()),
                  st.sampled_from([rexmod.UNARY_MINUS, rexmod.ABS, TWICE,
                                   TWICE, NO_IMPL]), ints),
        _castable.map(lambda s: RexCall(rexmod.CAST, [s], F.integer())),
        st.builds(lambda i: RexCall(rexmod.ITEM, [ref(4, F.array(F.integer())),
                                                  i], F.integer()), ints),
        st.lists(ints, min_size=1, max_size=3).map(
            lambda ops: RexCall(rexmod.COALESCE, ops, F.integer())),
        st.builds(lambda c1, v1, c2, v2, tail: RexCall(
            rexmod.CASE, [c1, v1, c2, v2] + tail, F.integer()),
            bools, ints, bools, ints, st.lists(ints, max_size=1)))


def _bool_nodes(ints, bools):
    return st.one_of(
        _binary([rexmod.EQUALS, rexmod.NOT_EQUALS, rexmod.LESS_THAN,
                 rexmod.LESS_THAN_OR_EQUAL, rexmod.GREATER_THAN,
                 rexmod.GREATER_THAN_OR_EQUAL], ints, ints),
        _binary([rexmod.EQUALS, rexmod.LIKE], _varchar, _varchar),
        st.builds(lambda op, a: RexCall(op, [a]),
                  st.sampled_from([rexmod.IS_NULL, rexmod.IS_NOT_NULL]), ints),
        st.builds(lambda op, a: RexCall(op, [a]),
                  st.sampled_from([rexmod.NOT, rexmod.IS_TRUE,
                                   rexmod.IS_FALSE]), bools),
        st.builds(lambda a, lo, hi: RexCall(rexmod.BETWEEN, [a, lo, hi]),
                  ints, ints, ints),
        st.builds(lambda op, a, cands: RexCall(op, [a] + cands),
                  st.sampled_from([rexmod.IN, rexmod.NOT_IN]), ints,
                  st.lists(ints, min_size=1, max_size=3)),
        _junctions(bools), _junctions(_junctions(bools)))


def _junctions(bools):
    """n-ary AND/OR; nested, they are the chains the compiler flattens."""
    return st.builds(lambda op, ops: RexCall(op, ops),
                     st.sampled_from([rexmod.AND, rexmod.OR]),
                     st.lists(bools, min_size=1, max_size=3))


_bool_leaf = st.sampled_from([True, False, None]).map(literal)
# Mutually recursive int- and boolean-typed trees; leaves listed first
# (and twice) keep the expected size finite and let examples shrink.
INT_TREES = st.deferred(lambda: st.one_of(
    _int_leaf, _int_leaf, _int_nodes(INT_TREES, BOOL_TREES)))
BOOL_TREES = st.deferred(lambda: st.one_of(
    _bool_leaf, _bool_nodes(INT_TREES, BOOL_TREES)))
REX_TREES = st.one_of(INT_TREES, BOOL_TREES)
#: AND/OR chains over atoms that decide, are NULL, or raise
JUNCTION_CHAINS = st.recursive(
    st.one_of(_bool_leaf,
              _binary([rexmod.EQUALS, rexmod.LESS_THAN], _int_leaf, _int_leaf),
              st.just(RexCall(rexmod.GREATER_THAN, [
                  RexCall(rexmod.DIVIDE, [ref(0), ref(1)]), literal(0)]))),
    lambda children: _junctions(children), max_leaves=8)


def _outcome(fn):
    """("value", type, value) or ("error", type, message)."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("error", type(exc), str(exc))
    return ("value", type(value), value)


def _guarded_division():
    """``b <> 0 AND a / b > 1``: the guard must keep the division from
    ever seeing a zero divisor."""
    a, b = ref(0, F.integer(False)), ref(1)
    return RexCall(rexmod.AND, [
        RexCall(rexmod.NOT_EQUALS, [b, literal(0)]),
        RexCall(rexmod.GREATER_THAN, [RexCall(rexmod.DIVIDE, [a, b]),
                                      literal(1)])])


def _assert_agrees(node, rows):
    compiled = compile_rex(node)
    assert compile_rex(node) is compiled              # memoised on the node
    for row in rows:
        assert (_outcome(lambda: compiled(row, CONTEXT))
                == _outcome(lambda: evaluate(node, row, CONTEXT))), \
            f"{node.digest} on {row}"


class TestCompileAgreesWithInterpreter:
    @given(node=REX_TREES, rows=st.lists(ROWS, min_size=1, max_size=6))
    @example(node=_guarded_division(),
             rows=[(4, 0, None, None, None), (4, 2, None, None, None),
                   (4, None, None, None, None)])
    @settings(max_examples=400, deadline=None)
    def test_values_and_errors(self, node, rows):
        _assert_agrees(node, rows)

    @given(node=JUNCTION_CHAINS, rows=st.lists(ROWS, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_flattened_junction_chains(self, node, rows):
        _assert_agrees(node, rows)

    def test_guard_short_circuits_division_by_zero(self):
        guarded = compile_rex(_guarded_division())
        assert guarded((4, 0), CONTEXT) is False
        assert guarded((4, 2), CONTEXT) is True
        assert guarded((4, None), CONTEXT) is None
        unguarded = compile_rex(RexCall(rexmod.DIVIDE, [ref(0), ref(1)]))
        with pytest.raises(RexExecutionError, match="division by zero"):
            unguarded((4, 0), CONTEXT)

    def test_late_registration_is_seen_by_compiled_calls(self):
        op = rexmod.SqlOperator("REX_EVAL_TEST_LATE", rexmod.SqlKind.FUNCTION)
        compiled = compile_rex(RexCall(op, [ref(0)], F.integer()))
        with pytest.raises(RexExecutionError, match="no implementation"):
            compiled((1,), CONTEXT)
        register_runtime_function("REX_EVAL_TEST_LATE", lambda x: x + 1)
        assert compiled((1,), CONTEXT) == 2

    def test_parameters_are_late_bound(self):
        compiled = compile_rex(RexCall(rexmod.EQUALS, [
            ref(0), RexDynamicParam(0, F.integer())]))
        assert compiled((3,), EvalContext([3])) is True
        assert compiled((3,), EvalContext([4])) is False
        assert compiled((3,), EvalContext([None])) is None
        with pytest.raises(RexExecutionError, match=r"unbound parameter \?0"):
            compiled((3,), EvalContext([]))


def test_cached_plan_is_rebindable_across_threads(hr_catalog):
    """One prepared row-engine plan — one set of compiled closures —
    executed concurrently with different parameters: every execution
    sees its own binding, for plain filters and correlated subqueries."""
    from repro.framework import planner_for
    planner = planner_for(hr_catalog)
    statements = [
        (planner.prepare("SELECT empid FROM hr.emps WHERE deptno = ? "
                         "AND sal > ?"),
         lambda d: [d, 6800],
         {10: [(100,), (110,), (150,)], 20: [(200,)], 30: [], 40: []}),
        (planner.prepare("SELECT dname FROM hr.depts d WHERE EXISTS "
                         "(SELECT 1 FROM hr.emps e WHERE e.deptno = d.deptno "
                         "AND e.deptno = ?)"),
         lambda d: [d],
         {10: [("Sales",)], 20: [("Marketing",)], 30: [("HR",)], 40: []}),
    ]
    failures = []

    def client(deptno):
        try:
            for _ in range(150):
                for prepared, params, expected in statements:
                    rows = sorted(planner.bind(prepared, params(deptno)).rows)
                    if rows != expected[deptno]:
                        failures.append((deptno, prepared.sql, rows))
                        return
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append((deptno, repr(exc)))

    threads = [threading.Thread(target=client, args=(d,))
               for d in (10, 20, 30, 40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
