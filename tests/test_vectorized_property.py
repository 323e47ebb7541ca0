"""Property-based equivalence of columnar and row expression evaluation.

The vectorized engine's compiled-expression path
(:func:`repro.runtime.vectorized.expr.compile_rex`) must agree with the
row interpreter (:func:`repro.core.rex_eval.evaluate`) on every
expression, including SQL three-valued logic over NULLs.  Hypothesis
generates random rex trees and random columns (with NULLs mixed in) and
cross-checks whole-column evaluation against row-at-a-time evaluation.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import rex as rexmod
from repro.core.builder import RelBuilder
from repro.core.rel import JoinRelType
from repro.core.rex import RexCall, RexInputRef, literal
from repro.core.rex_eval import RexExecutionError, evaluate
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner
from repro.runtime.vectorized import ColumnBatch, eval_rex_column

# ---------------------------------------------------------------------------
# Strategies: rows of (int, int|NULL, int|NULL, varchar|NULL)
# ---------------------------------------------------------------------------

N_FIELDS = 4

rows_strategy = st.lists(
    st.tuples(st.integers(-20, 20),
              st.one_of(st.none(), st.integers(-20, 20)),
              st.one_of(st.none(), st.integers(-100, 100)),
              st.one_of(st.none(), st.sampled_from(["a", "b", "cc"]))),
    min_size=0, max_size=25)

_COMPARISONS = [rexmod.EQUALS, rexmod.NOT_EQUALS, rexmod.LESS_THAN,
                rexmod.LESS_THAN_OR_EQUAL, rexmod.GREATER_THAN,
                rexmod.GREATER_THAN_OR_EQUAL]
# DIVIDE/MOD can raise: they exercise the short-circuit contract (an
# operand guarded by AND/OR/CASE/COALESCE must not error on rows the
# guard already decided) as well as value agreement.
_ARITHMETIC = [rexmod.PLUS, rexmod.MINUS, rexmod.TIMES, rexmod.DIVIDE,
               rexmod.MOD]

int_field = st.sampled_from(
    [RexInputRef(0, F.integer(False)), RexInputRef(1, F.integer()),
     RexInputRef(2, F.integer())])

int_expr = st.recursive(
    st.one_of(int_field, st.integers(-30, 30).map(literal)),
    lambda children: st.builds(
        lambda op, a, b: RexCall(op, [a, b]),
        st.sampled_from(_ARITHMETIC), children, children),
    max_leaves=4)

bool_leaf = st.one_of(
    st.builds(lambda op, a, b: RexCall(op, [a, b]),
              st.sampled_from(_COMPARISONS), int_expr, int_expr),
    st.builds(lambda a: RexCall(rexmod.IS_NULL, [a]), int_field),
    st.builds(lambda a: RexCall(rexmod.IS_NOT_NULL, [a]), int_field),
    st.builds(lambda a, lo, hi: RexCall(rexmod.BETWEEN, [a, lo, hi]),
              int_field, st.integers(-20, 0).map(literal),
              st.integers(0, 20).map(literal)),
    st.builds(lambda a, cands: RexCall(rexmod.IN, [a] + cands),
              int_field,
              st.lists(st.one_of(st.none(), st.integers(-20, 20))
                       .map(literal), min_size=1, max_size=4)),
)

bool_expr = st.recursive(
    bool_leaf,
    lambda children: st.one_of(
        st.builds(lambda a, b: RexCall(rexmod.AND, [a, b]), children, children),
        st.builds(lambda a, b: RexCall(rexmod.OR, [a, b]), children, children),
        st.builds(lambda a: RexCall(rexmod.NOT, [a]), children),
    ),
    max_leaves=8)

case_expr = st.builds(
    lambda cond, then, default: RexCall(
        rexmod.CASE, [cond, then, default], F.integer()),
    bool_expr, int_expr, int_expr)

coalesce_expr = st.builds(
    lambda a, b, c: RexCall(rexmod.COALESCE, [a, b, c], F.integer()),
    int_field, int_field, int_expr)

any_expr = st.one_of(bool_expr, int_expr, case_expr, coalesce_expr)


def _assert_columnar_matches_rows(node, rows):
    """Columnar evaluation must agree with row-at-a-time evaluation —
    both on values and on whether evaluation errors at all."""
    try:
        expected = [evaluate(node, row) for row in rows]
        row_error = None
    except RexExecutionError as exc:
        expected, row_error = None, exc
    batch = ColumnBatch.from_rows(rows, N_FIELDS)
    try:
        column = eval_rex_column(node, batch)
        col_error = None
    except RexExecutionError as exc:
        column, col_error = None, exc
    if row_error is not None:
        assert col_error is not None, (
            f"row eval raised {row_error!r} but columnar succeeded: "
            f"{node.digest}")
    else:
        assert col_error is None, (
            f"columnar raised {col_error!r} but row eval succeeded: "
            f"{node.digest}")
        assert column == expected, node.digest


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

class TestColumnarAgreesWithRowEval:
    @given(rows=rows_strategy, node=bool_expr)
    @settings(max_examples=100, deadline=None)
    def test_boolean_trees(self, rows, node):
        _assert_columnar_matches_rows(node, rows)

    @given(rows=rows_strategy, node=int_expr)
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_trees(self, rows, node):
        _assert_columnar_matches_rows(node, rows)

    @pytest.mark.slow
    @given(rows=rows_strategy, node=any_expr)
    @settings(max_examples=300, deadline=None)
    def test_mixed_trees(self, rows, node):
        _assert_columnar_matches_rows(node, rows)


class TestThreeValuedLogicEdgeCases:
    """Exhaustive Kleene truth tables over {TRUE, FALSE, NULL} columns."""

    TRIVALENT = [True, False, None]

    def _column_for(self, node, rows):
        return eval_rex_column(node, ColumnBatch.from_rows(rows, N_FIELDS))

    def test_and_or_truth_tables(self):
        # Column 1 = a, column 2 = b (both nullable); every (a, b) pair.
        rows = [(0, a, b, None)
                for a, b in itertools.product(self.TRIVALENT, repeat=2)]
        a = RexInputRef(1, F.boolean())
        b = RexInputRef(2, F.boolean())
        for op in (rexmod.AND, rexmod.OR):
            node = RexCall(op, [a, b])
            assert self._column_for(node, rows) == \
                [evaluate(node, row) for row in rows]

    def test_not_null_propagation(self):
        rows = [(0, v, None, None) for v in self.TRIVALENT]
        node = RexCall(rexmod.NOT, [RexInputRef(1, F.boolean())])
        assert self._column_for(node, rows) == [False, True, None]

    def test_null_comparison_yields_null(self):
        rows = [(0, None, 5, None), (1, 3, None, None), (2, None, None, None)]
        node = RexCall(rexmod.LESS_THAN,
                       [RexInputRef(1, F.integer()), RexInputRef(2, F.integer())])
        assert self._column_for(node, rows) == [None, None, None]

    def test_and_with_scalar_null_operand(self):
        # A literal NULL operand exercises the scalar/column mixed path.
        rows = [(0, v, None, None) for v in self.TRIVALENT]
        node = RexCall(rexmod.AND,
                       [RexInputRef(1, F.boolean()), literal(None, F.boolean())])
        assert self._column_for(node, rows) == \
            [evaluate(node, row) for row in rows]

    def test_or_with_scalar_null_operand(self):
        rows = [(0, v, None, None) for v in self.TRIVALENT]
        node = RexCall(rexmod.OR,
                       [RexInputRef(1, F.boolean()), literal(None, F.boolean())])
        assert self._column_for(node, rows) == \
            [evaluate(node, row) for row in rows]

    def test_in_with_null_candidates(self):
        rows = [(0, 1, None, None), (0, 9, None, None), (0, None, None, None)]
        node = RexCall(rexmod.IN, [RexInputRef(1, F.integer()),
                                   literal(1), literal(None, F.integer())])
        # 1 IN (1, NULL) → TRUE; 9 IN (1, NULL) → NULL; NULL IN (…) → NULL
        assert self._column_for(node, rows) == [True, None, None]

    def test_case_over_null_conditions(self):
        rows = [(0, v, 7, None) for v in self.TRIVALENT]
        cond = RexCall(rexmod.IS_TRUE, [RexInputRef(1, F.boolean())])
        node = RexCall(rexmod.CASE,
                       [RexInputRef(1, F.boolean()), literal(1),
                        cond, literal(2), literal(3)], F.integer())
        assert self._column_for(node, rows) == \
            [evaluate(node, row) for row in rows]


class TestShortCircuitParity:
    """Guard patterns must not error on rows the guard rejected — the
    row interpreter short-circuits per row; the columnar kernels must
    evaluate guarded operands over exactly the same rows."""

    ROWS = [(0, 10, 2, None), (1, 7, 0, None), (2, 4, 1, None)]

    def _engines(self):
        from repro import Catalog, MemoryTable, Schema
        from repro.framework import planner_for
        catalog = Catalog()
        s = Schema("d")
        catalog.add_schema(s)
        s.add_table(MemoryTable(
            "t", ["k", "a", "b", "note"],
            [F.integer(False), F.integer(), F.integer(), F.varchar()],
            [(0, 10, 2, None), (1, 7, 0, None), (2, None, 1, None)]))
        return planner_for(catalog), planner_for(catalog, engine="vectorized")

    def _agree(self, sql):
        row, vec = self._engines()
        assert sorted(row.execute(sql).rows, key=repr) == \
            sorted(vec.execute(sql).rows, key=repr), sql

    def test_and_guards_division(self):
        self._agree("SELECT a FROM d.t WHERE b <> 0 AND a / b > 1")

    def test_or_guards_division(self):
        self._agree("SELECT k FROM d.t WHERE b = 0 OR a / b > 1")

    def test_case_guards_division(self):
        self._agree("SELECT CASE WHEN b <> 0 THEN a / b ELSE 0 END FROM d.t")

    def test_coalesce_guards_division(self):
        self._agree("SELECT COALESCE(a, 100 / b) FROM d.t")

    def test_unguarded_division_errors_in_both(self):
        row, vec = self._engines()
        sql = "SELECT a / b FROM d.t"
        with pytest.raises(RexExecutionError):
            row.execute(sql)
        with pytest.raises(RexExecutionError):
            vec.execute(sql)


class TestWindowAgainstNaiveOracle:
    """Random partition/order keys and ROWS frames: both engines must
    equal a naive per-row oracle written from the SQL definitions
    (rank = 1 + rows strictly before; frame = a slice of the ordered
    partition), not from either engine's implementation."""

    FRAMES = [
        None,  # SQL's default: RANGE UNBOUNDED PRECEDING .. CURRENT ROW
        ("UNBOUNDED PRECEDING", "CURRENT ROW"),
        ("2 PRECEDING", "CURRENT ROW"),
        ("1 PRECEDING", "3 FOLLOWING"),
        ("CURRENT ROW", "UNBOUNDED FOLLOWING"),
        ("UNBOUNDED PRECEDING", "UNBOUNDED FOLLOWING"),
    ]

    window_rows = st.lists(
        st.tuples(st.integers(0, 3),                            # k
                  st.one_of(st.none(), st.integers(0, 5)),      # o
                  st.one_of(st.none(), st.integers(-9, 9))),    # v
        min_size=0, max_size=30)

    @staticmethod
    def _engines(rows):
        from repro import Catalog, MemoryTable, Schema
        from repro.framework import planner_for
        catalog = Catalog()
        d = Schema("d")
        catalog.add_schema(d)
        d.add_table(MemoryTable(
            "t", ["id", "k", "o", "v"],
            [F.integer(False), F.integer(False), F.integer(), F.integer()],
            [(i,) + r for i, r in enumerate(rows)]))
        return planner_for(catalog), planner_for(catalog, engine="vectorized")

    @staticmethod
    def _bound(spec, pos, m):
        if spec == "UNBOUNDED PRECEDING":
            return 0
        if spec == "UNBOUNDED FOLLOWING":
            return m - 1
        if spec == "CURRENT ROW":
            return pos
        count, kind = spec.split(" ", 1)
        return pos - int(count) if kind == "PRECEDING" else pos + int(count)

    @staticmethod
    def _order_key(o, desc):
        # NULLS LAST ascending / NULLS FIRST descending (SQL default);
        # sorted(..., reverse=True) is stable, preserving input order
        # among peers exactly like the engines.
        return (o is None, 0 if o is None else o)

    def _oracle(self, rows, func, partition, desc, frame):
        n = len(rows)
        out = [None] * n
        groups = {}
        for i, (k, _o, _v) in enumerate(rows):
            groups.setdefault(k if partition else 0, []).append(i)
        lo_s, hi_s = frame or ("UNBOUNDED PRECEDING", "CURRENT ROW")
        for idx in groups.values():
            ordered = sorted(idx, key=lambda i: self._order_key(rows[i][1], desc),
                             reverse=desc)
            m = len(ordered)
            keys = [self._order_key(rows[i][1], desc) for i in ordered]
            for pos, i in enumerate(ordered):
                if func == "ROW_NUMBER()":
                    out[i] = pos + 1
                elif func == "RANK()":
                    out[i] = 1 + sum(1 for p in range(m) if keys[p] != keys[pos]
                                     and p < pos)
                elif func == "DENSE_RANK()":
                    out[i] = 1 + len({tuple(keys[p]) for p in range(pos)
                                      if keys[p] != keys[pos]})
                elif func == "LAG(v)":
                    out[i] = rows[ordered[pos - 1]][2] if pos >= 1 else None
                elif func == "LEAD(v, 2, -1)":
                    out[i] = (rows[ordered[pos + 2]][2]
                              if pos + 2 < m else -1)
                else:
                    lo = max(self._bound(lo_s, pos, m), 0)
                    hi = min(self._bound(hi_s, pos, m), m - 1)
                    if frame is None:  # RANGE: through the last peer
                        hi = max(p for p in range(m) if keys[p] == keys[pos])
                    frame_idx = ordered[lo: hi + 1] if lo <= hi else []
                    window = [rows[j][2] for j in frame_idx
                              if rows[j][2] is not None]
                    if func == "COUNT(v)":
                        out[i] = len(window)
                    elif func == "SUM(v)":
                        out[i] = sum(window) if window else None
                    elif func == "MIN(v)":
                        out[i] = min(window) if window else None
                    elif func == "MAX(v)":
                        out[i] = max(window) if window else None
                    else:  # AVG(v)
                        out[i] = (sum(window) / len(window)
                                  if window else None)
        return out

    @given(rows=window_rows,
           func=st.sampled_from(["ROW_NUMBER()", "RANK()", "DENSE_RANK()",
                                 "LAG(v)", "LEAD(v, 2, -1)", "SUM(v)",
                                 "COUNT(v)", "MIN(v)", "MAX(v)", "AVG(v)"]),
           partition=st.booleans(), desc=st.booleans(),
           frame=st.sampled_from(FRAMES))
    @settings(max_examples=60, deadline=None)
    def test_window_matches_oracle(self, rows, func, partition, desc, frame):
        if func in ("ROW_NUMBER()", "RANK()", "DENSE_RANK()",
                    "LAG(v)", "LEAD(v, 2, -1)"):
            frame = None  # frame-free functions; keep the SQL minimal
        # Ties among peers are broken by input order in the engines
        # (stable sorts) and in the oracle alike; RANK/DENSE_RANK must
        # NOT get a unique tiebreak or no peers would ever exist.
        order = "ORDER BY o DESC" if desc else "ORDER BY o"
        spec = ["PARTITION BY k"] if partition else []
        spec.append(order)
        if frame is not None:
            spec.append(f"ROWS BETWEEN {frame[0]} AND {frame[1]}")
        sql = f"SELECT id, {func} OVER ({' '.join(spec)}) FROM d.t"
        row_p, vec_p = self._engines(rows)
        expected = self._oracle(rows, func, partition, desc, frame)
        got_row = dict(row_p.execute(sql).rows)
        got_vec = dict(vec_p.execute(sql).rows)
        oracle = {i: expected[i] for i in range(len(rows))}
        assert got_vec == got_row
        assert got_vec == oracle, sql

    # Thousands of 1-5-row partitions, interleaved in the input, as
    # ``chunk_running_sum`` partitions chunks by document: every row's
    # window is a short run of one global ordering.  ``k`` is NULL for
    # every 50th group (the NULL groups are one partition), ``k2`` for
    # every 7th; ``o`` has NULLs and ties, ``q`` neither (RANGE frames
    # are defined over it).
    SMALL_PARTITION_CASES = [
        ("ROW_NUMBER()", "ORDER BY o", None),
        ("RANK()", "ORDER BY o", None),
        ("DENSE_RANK()", "ORDER BY o DESC", None),
        ("RANK()", "ORDER BY o DESC, q", None),
        ("LAG(v)", "ORDER BY o", None),
        ("LEAD(v, 2, -1)", "ORDER BY o DESC", None),
        ("SUM(v)", "ORDER BY o", None),
        ("COUNT(v)", "ORDER BY o", None),
        ("COUNT(*)", "ORDER BY o DESC", None),
        ("MIN(v)", "ORDER BY o", None),
        ("MAX(v)", "ORDER BY o DESC", None),
        ("AVG(v)", "ORDER BY o", None),
        ("SUM(v)", "ORDER BY o", "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW"),
        ("MIN(v)", "ORDER BY o", "ROWS BETWEEN 1 PRECEDING AND 3 FOLLOWING"),
        ("COUNT(*)", "ORDER BY o",
         "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING"),
        ("AVG(v)", "ORDER BY o",
         "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING"),
        ("SUM(v)", "ORDER BY q", "RANGE BETWEEN 2 PRECEDING AND CURRENT ROW"),
        ("MAX(v)", "ORDER BY q", "RANGE BETWEEN CURRENT ROW AND 1 FOLLOWING"),
        ("COUNT(v)", "ORDER BY q",
         "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"),
    ]

    @staticmethod
    def _small_partitions():
        import random
        rng = random.Random(25)
        rows = []
        for group in range(2500):
            k = None if group % 50 == 0 else group // 2
            k2 = None if group % 7 == 0 else group % 2
            for _ in range(rng.randint(1, 5)):
                rows.append((k, k2, rng.choice([None, 0, 1, 2, 3]),
                             rng.randrange(6),
                             None if rng.random() < 0.1
                             else rng.randrange(-9, 10)))
        rng.shuffle(rows)
        return [(i,) + r for i, r in enumerate(rows)]

    @staticmethod
    def _small_oracle(rows, func, order, frame, key_of):
        """Partition by ``key_of(row)`` (NULLs equal), order by the
        ORDER BY columns with NULL largest and peers in input order,
        then evaluate ``func`` from its SQL definition."""
        cols = {"o": 3, "q": 4}
        items = [(cols[c.split()[0]], c.endswith("DESC"))
                 for c in order[len("ORDER BY "):].split(", ")]
        groups = {}
        for row in rows:
            groups.setdefault(key_of(row), []).append(row)
        out = {}
        for part in groups.values():
            for col, desc in reversed(items):
                part = sorted(part, key=lambda r: (r[col] is None,
                                                   r[col] or 0),
                              reverse=desc)
            peers = [tuple(r[c] for c, _ in items) for r in part]
            m = len(part)
            for pos, row in enumerate(part):
                if func == "ROW_NUMBER()":
                    out[row[0]] = pos + 1
                elif func == "RANK()":
                    out[row[0]] = peers.index(peers[pos]) + 1
                elif func == "DENSE_RANK()":
                    out[row[0]] = len(set(peers[:pos + 1]))
                elif func == "LAG(v)":
                    out[row[0]] = part[pos - 1][5] if pos else None
                elif func == "LEAD(v, 2, -1)":
                    out[row[0]] = part[pos + 2][5] if pos + 2 < m else -1
                else:
                    if frame is None:
                        # SQL's default, RANGE UNBOUNDED PRECEDING ..
                        # CURRENT ROW: through the last peer
                        window = part[:m - peers[::-1].index(peers[pos])]
                    elif frame.startswith("ROWS"):
                        lo, hi = frame[13:].split(" AND ")
                        bound = TestWindowAgainstNaiveOracle._bound
                        window = part[max(bound(lo, pos, m), 0):
                                      min(bound(hi, pos, m), m - 1) + 1]
                    else:
                        lo, hi = frame[len("RANGE BETWEEN "):].split(" AND ")
                        q = row[4]
                        low = (None if lo == "UNBOUNDED PRECEDING" else q
                               if lo == "CURRENT ROW" else q - int(lo[0]))
                        high = (q if hi == "CURRENT ROW"
                                else q + int(hi[0]))
                        window = [r for r in part
                                  if (low is None or r[4] >= low)
                                  and r[4] <= high]
                    values = ([1] * len(window) if func == "COUNT(*)" else
                              [r[5] for r in window if r[5] is not None])
                    if func in ("COUNT(v)", "COUNT(*)"):
                        out[row[0]] = len(values)
                    elif not values:
                        out[row[0]] = None
                    elif func == "SUM(v)":
                        out[row[0]] = sum(values)
                    elif func == "MIN(v)":
                        out[row[0]] = min(values)
                    elif func == "MAX(v)":
                        out[row[0]] = max(values)
                    else:  # AVG(v)
                        out[row[0]] = sum(values) / len(values)
        return out

    @pytest.mark.parametrize("partition", ["k", "k, k2"])
    @pytest.mark.parametrize("func,order,frame", SMALL_PARTITION_CASES)
    def test_many_small_partitions_match_oracle(self, func, order, frame,
                                                partition):
        rows = self._small_partitions()
        catalog = _catalog(t=(["id", "k", "k2", "o", "q", "v"],
                              [F.integer(False), F.integer(), F.integer(),
                               F.integer(), F.integer(False), F.integer()],
                              rows))
        spec = f"PARTITION BY {partition} {order}"
        if frame is not None:
            spec += " " + frame
        sql = f"SELECT id, {func} OVER ({spec}) FROM d.t"
        key_of = ((lambda r: r[1]) if partition == "k"
                  else (lambda r: (r[1], r[2])))
        expected = self._small_oracle(rows, func, order, frame, key_of)
        for engine in ("row", "vectorized"):
            planner = Planner(FrameworkConfig(catalog, engine=engine))
            assert dict(planner.execute(sql).rows) == expected, (engine, sql)


class TestWindowOrderAgainstOracle:
    """Two ORDER BY keys, each ASC or DESC, both with NULLs and ties:
    the ranking functions of both engines must equal an oracle that
    sorts with an explicit comparator (NULL largest in either
    direction, peers in input order)."""

    window_rows = st.lists(
        st.tuples(st.integers(0, 2),                                  # k
                  st.one_of(st.none(), st.integers(0, 2)),            # o1
                  st.one_of(st.none(), st.sampled_from(["x", "y"]))),  # o2
        min_size=0, max_size=30)

    @staticmethod
    def _compare(a, b, descs):
        for x, y, desc in zip(a, b, descs):
            if x == y:
                continue
            c = 1 if x is None else -1 if y is None else -1 if x < y else 1
            return -c if desc else c
        return 0

    def _oracle(self, rows, func, partition, descs):
        out = {}
        groups = {}
        for i, (k, _o1, _o2) in enumerate(rows):
            groups.setdefault(k if partition else 0, []).append(i)
        for idx in groups.values():
            ordered = sorted(idx, key=functools.cmp_to_key(
                lambda i, j: self._compare(rows[i][1:], rows[j][1:], descs)))
            keys = [rows[i][1:] for i in ordered]
            for pos, i in enumerate(ordered):
                if func == "ROW_NUMBER()":
                    out[i] = pos + 1
                elif func == "RANK()":
                    out[i] = keys.index(keys[pos]) + 1
                else:  # DENSE_RANK()
                    out[i] = len(set(keys[:pos + 1]))
        return out

    @given(rows=window_rows,
           func=st.sampled_from(["ROW_NUMBER()", "RANK()", "DENSE_RANK()"]),
           partition=st.booleans(),
           descs=st.tuples(st.booleans(), st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_multi_key_ranking_matches_oracle(self, rows, func, partition,
                                              descs):
        order = ", ".join(f"{col} {'DESC' if desc else 'ASC'}"
                          for col, desc in zip(("o1", "o2"), descs))
        spec = ("PARTITION BY k " if partition else "") + f"ORDER BY {order}"
        sql = f"SELECT id, {func} OVER ({spec}) FROM d.t"
        catalog = _catalog(t=(["id", "k", "o1", "o2"],
                              [F.integer(False), F.integer(False),
                               F.integer(), F.varchar()],
                              [(i,) + r for i, r in enumerate(rows)]))
        expected = self._oracle(rows, func, partition, descs)
        for engine in ("row", "vectorized"):
            planner = Planner(FrameworkConfig(catalog, engine=engine))
            assert dict(planner.execute(sql).rows) == expected, (engine, sql)


class TestHashJoinAgainstRowEngine:
    """The columnar hash join against the row engine's join (the
    oracle), on every join type with one- and two-column keys: NULL
    keys on both sides, duplicate build keys, int and float keys that
    compare equal (``1`` and ``1.0``), and empty sides."""

    side_rows = st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 3)),            # a
                  st.one_of(st.none(), st.sampled_from([0, 1, 1.0, 2.0])),
                  st.integers(0, 99)),                                # v
        min_size=0, max_size=12)

    @given(left=side_rows, right=side_rows,
           join_type=st.sampled_from(list(JoinRelType)),
           keys=st.sampled_from([("a",), ("b",), ("a", "b")]))
    @example(left=[], right=[(1, 1.0, 0)], join_type=JoinRelType.RIGHT,
             keys=("a",))
    @example(left=[(1, 1, 0), (None, 1.0, 1)], right=[],
             join_type=JoinRelType.FULL, keys=("a", "b"))
    @settings(max_examples=80, deadline=None)
    def test_join_matches_row_engine(self, left, right, join_type, keys):
        types = [F.integer(), F.double(), F.integer(False)]
        catalog = _catalog(l=(["a", "b", "v"], types, left),
                           r=(["a", "b", "v"], types, right))
        b = RelBuilder(catalog)
        b.scan("d", "l").scan("d", "r")
        rel = b.join_using(join_type, *keys).build()
        row = Planner(FrameworkConfig(catalog))
        vec = Planner(FrameworkConfig(catalog, engine="vectorized"))
        assert "VectorizedHashJoin" in vec.optimize(rel).explain()
        assert sorted(vec.execute(rel).rows, key=repr) == \
            sorted(row.execute(rel).rows, key=repr)


def _catalog(**tables):
    """A catalog with schema ``d`` holding the given
    ``name=(field names, field types, rows)`` memory tables."""
    from repro import Catalog, MemoryTable, Schema
    catalog = Catalog()
    d = Schema("d")
    catalog.add_schema(d)
    for name, (names, types, rows) in tables.items():
        d.add_table(MemoryTable(name, names, types, rows))
    return catalog


class TestDistinctSetOpsAreSetSemantics:
    """Distinct UNION/INTERSECT/EXCEPT must equal Python set algebra —
    no duplicates, no dropped rows — at every parallelism, where the
    parallel plans hash-exchange on the full row and dedup per worker."""

    pair_rows = st.lists(
        st.tuples(st.integers(0, 4), st.one_of(st.none(), st.integers(0, 3))),
        min_size=0, max_size=25)

    @staticmethod
    def _planners(left, right):
        from repro import Catalog, MemoryTable, Schema
        from repro.framework import FrameworkConfig, Planner
        catalog = Catalog()
        d = Schema("d")
        catalog.add_schema(d)
        types = [F.integer(False), F.integer()]
        d.add_table(MemoryTable("l", ["a", "b"], types, left))
        d.add_table(MemoryTable("r", ["a", "b"], types, right))
        return [Planner(FrameworkConfig(catalog)),
                Planner(FrameworkConfig(catalog, engine="vectorized")),
                Planner(FrameworkConfig(catalog, engine="vectorized",
                                        parallelism=2)),
                Planner(FrameworkConfig(catalog, engine="vectorized",
                                        parallelism=4))]

    @given(left=pair_rows, right=pair_rows,
           op=st.sampled_from(["UNION", "INTERSECT", "EXCEPT"]))
    @settings(max_examples=40, deadline=None)
    def test_set_ops_match_python_sets(self, left, right, op):
        expected = {
            "UNION": set(left) | set(right),
            "INTERSECT": set(left) & set(right),
            "EXCEPT": set(left) - set(right),
        }[op]
        sql = f"SELECT a, b FROM d.l {op} SELECT a, b FROM d.r"
        for planner in self._planners(left, right):
            rows = planner.execute(sql).rows
            assert len(rows) == len(set(rows)), "duplicates survived dedup"
            assert set(rows) == expected, sql


class TestSelectionVectorSemantics:
    def test_compact_applies_selection_once(self):
        batch = ColumnBatch([[1, 2, 3, 4], ["a", "b", "c", "d"]], 4)
        selected = batch.with_selection([1, 3])
        assert selected.live_count == 2
        assert selected.to_rows() == [(2, "b"), (4, "d")]
        assert list(selected.iter_rows()) == [(2, "b"), (4, "d")]
        assert ColumnBatch([[5, 6]], 2).with_selection([1]).to_rows() == [(6,)]
        assert ColumnBatch([], 3).with_selection([0, 2]).to_rows() == []
        compacted = selected.compact()
        assert compacted.is_compact()
        assert compacted.to_rows() == [(2, "b"), (4, "d")]

    def test_eval_over_selected_batch_sees_live_rows_only(self):
        batch = ColumnBatch([[1, 2, 3, 4]], 4).with_selection([0, 2])
        node = RexCall(rexmod.PLUS, [RexInputRef(0, F.integer()), literal(10)])
        assert eval_rex_column(node, batch) == [11, 13]

    def test_filter_over_ref_project_over_filter(self):
        """A projection of column refs passes the lower filter's
        selection vector on without copying a column; the upper filter
        compacts it before selecting again."""
        from repro.core.traits import RelTraitSet
        from repro.runtime.operators import ExecutionContext
        from repro.runtime.vectorized.exchange import InjectedStream
        from repro.runtime.vectorized.executor import execute_batches
        from repro.runtime.vectorized.nodes import (
            VECTORIZED, VectorizedFilter, VectorizedProject)
        rows = [(i, i % 3, None if i % 4 == 0 else i * 10, f"s{i}")
                for i in range(50)]
        catalog = _catalog(t=(["id", "m", "v", "s"],
                              [F.integer(False), F.integer(False),
                               F.integer(), F.varchar()], rows))
        planner = Planner(FrameworkConfig(catalog, engine="vectorized"))
        lower = planner.optimize(planner.rel(
            "SELECT * FROM d.t WHERE m <> 0"))
        while not isinstance(lower, VectorizedFilter):
            lower = lower.input
        traits = RelTraitSet(VECTORIZED)

        def project(input_):
            return VectorizedProject(
                input_, [RexInputRef(3, F.varchar()),
                         RexInputRef(2, F.integer()),
                         RexInputRef(0, F.integer(False))],
                ["s", "v", "id"], traits)

        batch_size = 16
        below = list(execute_batches(lower, ExecutionContext(), batch_size))
        above = list(execute_batches(
            project(InjectedStream(lower.row_type,
                                   lambda ctx, batch_size: iter(below))),
            ExecutionContext(), batch_size))
        assert len(above) == len(below) > 1
        for b, a in zip(below, above):
            assert a.selection is b.selection is not None
            assert [id(c) for c in a.columns] == \
                [id(b.columns[i]) for i in (3, 2, 0)]
        upper = VectorizedFilter(project(lower), RexCall(
            rexmod.GREATER_THAN, [RexInputRef(1, F.integer()), literal(200)]),
            traits)
        got = [row for batch in execute_batches(upper, ExecutionContext(),
                                                batch_size)
               for row in batch.to_rows()]
        assert got == [(s, v, i) for i, m, v, s in rows
                       if m != 0 and v is not None and v > 200]
