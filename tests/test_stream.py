"""Tests for the streaming extension (Section 7.2)."""

import time

import pytest

from repro import Catalog, Schema
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.errors import DeadlineExceeded, TransientBackendError
from repro.framework import planner_for
from repro.sql.to_rel import ValidationError
from repro.stream import (
    StreamExecutor,
    StreamTable,
    assign_session,
    hop,
    session_windows,
    tumble,
    tumble_end,
)

HOUR = 3_600_000
MIN = 60_000


class TestWindowFunctions:
    def test_tumble(self):
        assert tumble(30 * MIN, HOUR) == (0, HOUR)
        assert tumble(90 * MIN, HOUR) == (HOUR, 2 * HOUR)
        assert tumble_end(30 * MIN, HOUR) == HOUR

    def test_tumble_bad_size(self):
        with pytest.raises(ValueError):
            tumble(0, 0)

    def test_hop_windows_overlap(self):
        # 1h windows sliding every 30min: each event in 2 windows
        windows = hop(45 * MIN, 30 * MIN, HOUR)
        assert windows == [(0, HOUR), (30 * MIN, 90 * MIN)]

    def test_hop_equals_tumble_when_slide_is_size(self):
        assert hop(90 * MIN, HOUR, HOUR) == [tumble(90 * MIN, HOUR)]

    def test_hop_validation(self):
        with pytest.raises(ValueError):
            hop(0, HOUR, 30 * MIN)  # size < slide

    def test_session_windows(self):
        gap = 10 * MIN
        stamps = [0, MIN, 2 * MIN, 40 * MIN, 41 * MIN]
        sessions = session_windows(stamps, gap)
        assert len(sessions) == 2
        assert sessions[0] == (0, 2 * MIN + gap)
        assert sessions[1] == (40 * MIN, 41 * MIN + gap)

    def test_assign_session(self):
        sessions = [(0, 100), (200, 300)]
        assert assign_session(50, sessions) == (0, 100)
        with pytest.raises(ValueError):
            assign_session(150, sessions)

    def test_empty_sessions(self):
        assert session_windows([], 10) == []


@pytest.fixture
def stream_env():
    catalog = Catalog()
    s = Schema("st")
    catalog.add_schema(s)
    orders = StreamTable("orders", ["rowtime", "productId", "units"],
                         [F.timestamp(False), F.integer(False), F.integer(False)])
    s.add_table(orders)
    return catalog, orders


class TestStreamTable:
    def test_events_kept_in_rowtime_order(self, stream_env):
        _, orders = stream_env
        orders.push((3000, 1, 1))
        orders.push((1000, 2, 2))
        orders.push((2000, 3, 3))
        assert [r[0] for r in orders.scan()] == [1000, 2000, 3000]

    def test_visibility_cutoff(self, stream_env):
        _, orders = stream_env
        orders.push_many([(1000, 1, 1), (2000, 2, 2), (3000, 3, 3)])
        orders.visible_upto = 2000
        assert len(list(orders.scan())) == 2
        orders.visible_upto = None
        assert len(list(orders.scan())) == 3

    def test_requires_rowtime_column(self):
        with pytest.raises(ValueError):
            StreamTable("bad", ["a"], [F.integer()])

    def test_non_stream_query_reads_existing(self, stream_env):
        """Without STREAM the query processes already-received rows."""
        catalog, orders = stream_env
        orders.push_many([(1000, 1, 30), (2000, 2, 10)])
        p = planner_for(catalog)
        res = p.execute("SELECT productId FROM st.orders WHERE units > 20")
        assert res.rows == [(1,)]


class TestStreamExecutor:
    def test_stateless_filter_emits_incrementally(self, stream_env):
        catalog, orders = stream_env
        p = planner_for(catalog)
        ex = StreamExecutor(
            p, "SELECT STREAM rowtime, units FROM st.orders WHERE units > 25")
        orders.push((1000, 1, 30))
        orders.push((2000, 2, 10))
        assert ex.advance(5000) == [(1000, 30)]
        orders.push((6000, 3, 99))
        assert ex.advance(7000) == [(6000, 99)]
        assert ex.rows_emitted == 2

    def test_non_stream_sql_rejected(self, stream_env):
        catalog, _ = stream_env
        p = planner_for(catalog)
        with pytest.raises(ValueError, match="STREAM"):
            StreamExecutor(p, "SELECT rowtime FROM st.orders")

    def test_tumbling_aggregate_waits_for_window_close(self, stream_env):
        catalog, orders = stream_env
        p = planner_for(catalog)
        ex = StreamExecutor(p, f"""
            SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS wend,
                   productId, COUNT(*) AS c, SUM(units) AS total
            FROM st.orders
            GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productId""")
        orders.push((10_000, 1, 5))
        orders.push((20_000, 1, 7))
        orders.push((HOUR + 5_000, 1, 3))
        assert ex.advance(HOUR // 2) == []          # window still open
        assert ex.advance(HOUR) == [(HOUR, 1, 2, 12)]
        assert ex.advance(2 * HOUR) == [(2 * HOUR, 1, 1, 3)]

    def test_tumble_windows_partition_by_key(self, stream_env):
        catalog, orders = stream_env
        p = planner_for(catalog)
        ex = StreamExecutor(p, """
            SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS wend,
                   productId, SUM(units) AS total
            FROM st.orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productId""")
        orders.push((1_000, 1, 5))
        orders.push((2_000, 2, 9))
        out = sorted(ex.advance(HOUR))
        assert out == [(HOUR, 1, 5), (HOUR, 2, 9)]

    def test_stream_join_with_time_window(self, stream_env):
        catalog, orders = stream_env
        schema = catalog.resolve_schema(["st"])
        shipments = StreamTable("shipments", ["rowtime", "orderId"],
                                [F.timestamp(False), F.integer(False)])
        schema.add_table(shipments)
        orders3 = StreamTable("orders3", ["rowtime", "orderId"],
                              [F.timestamp(False), F.integer(False)])
        schema.add_table(orders3)
        p = planner_for(catalog)
        ex = StreamExecutor(p, """
            SELECT STREAM o.rowtime, o.orderId, s.rowtime AS shipTime
            FROM st.orders3 o JOIN st.shipments s ON o.orderId = s.orderId
            AND s.rowtime BETWEEN o.rowtime AND o.rowtime + INTERVAL '1' HOUR""")
        orders3.push((1_000, 100))
        shipments.push((2_000, 100))          # inside the window
        shipments.push((3 * HOUR, 100))       # outside the window
        rows = ex.advance(4 * HOUR)
        assert rows == [(1_000, 100, 2_000)]

    def test_emitted_rows_are_final(self, stream_env):
        """Advancing twice over the same events emits nothing new."""
        catalog, orders = stream_env
        p = planner_for(catalog)
        ex = StreamExecutor(
            p, "SELECT STREAM rowtime FROM st.orders WHERE units > 0")
        orders.push((1_000, 1, 1))
        assert ex.advance(5_000) == [(1_000,)]
        assert ex.advance(6_000) == []

    def test_sliding_window_over_stream(self, stream_env):
        """The paper's OVER (... RANGE INTERVAL '1' HOUR PRECEDING)."""
        catalog, orders = stream_env
        p = planner_for(catalog)
        ex = StreamExecutor(p, """
            SELECT STREAM rowtime, productId, units,
                   SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
                       RANGE INTERVAL '1' HOUR PRECEDING) AS unitsLastHour
            FROM st.orders""")
        orders.push((0, 1, 10))
        orders.push((30 * MIN, 1, 5))
        orders.push((2 * HOUR, 1, 2))
        rows = ex.advance(3 * HOUR)
        by_time = {r[0]: r[3] for r in rows}
        assert by_time[0] == 10
        assert by_time[30 * MIN] == 15
        assert by_time[2 * HOUR] == 2


class _SlowFlakyStream(StreamTable):
    """Fails its first ``failures`` scans with a transient error, and
    sleeps ``delay`` seconds before serving each other one."""

    def __init__(self, failures: int = 0, delay: float = 0.0) -> None:
        super().__init__("orders", ["rowtime", "productId", "units"],
                         [F.timestamp(False), F.integer(False),
                          F.integer(False)])
        self.failures = failures
        self.delay = delay

    def scan(self):
        if self.failures:
            self.failures -= 1
            raise TransientBackendError("stream backend blinked")
        time.sleep(self.delay)
        yield from super().scan()


def _stream_catalog(orders):
    catalog = Catalog()
    s = Schema("st")
    catalog.add_schema(s)
    s.add_table(orders)
    return catalog


class TestAdvanceRunsThroughThePlanner:
    def test_transient_scan_failure_is_retried(self):
        orders = _SlowFlakyStream(failures=1)
        p = planner_for(_stream_catalog(orders), scan_retry_backoff=0.001)
        ex = StreamExecutor(p, "SELECT STREAM rowtime FROM st.orders")
        orders.push((1_000, 1, 1))
        assert ex.advance(5_000) == [(1_000,)]

    def test_statement_deadline_applies(self):
        orders = _SlowFlakyStream(delay=0.05)
        p = planner_for(_stream_catalog(orders), statement_timeout=0.01)
        ex = StreamExecutor(p, "SELECT STREAM rowtime FROM st.orders")
        orders.push_many((i, 1, 1) for i in range(100))
        with pytest.raises(DeadlineExceeded):
            ex.advance(5_000)
        assert orders.visible_upto is None


@pytest.mark.parametrize("engine", ["row", "vectorized"])
@pytest.mark.parametrize("name, sql", [
    ("HOP", "SELECT productId, COUNT(*) FROM st.orders GROUP BY "
            "HOP(rowtime, INTERVAL '1' HOUR, INTERVAL '2' HOUR), productId"),
    ("SESSION", "SELECT STREAM productId, COUNT(*) FROM st.orders GROUP BY "
                "SESSION(rowtime, INTERVAL '1' HOUR), productId"),
    ("HOP_START", "SELECT HOP_START(rowtime, INTERVAL '1' HOUR, "
                  "INTERVAL '2' HOUR) FROM st.orders"),
    ("SESSION_END", "SELECT SESSION_END(rowtime, INTERVAL '1' HOUR), "
                    "COUNT(*) FROM st.orders "
                    "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)"),
], ids=["HOP", "SESSION", "HOP_START", "SESSION_END"])
def test_unimplemented_group_windows_fail_validation(stream_env, engine,
                                                     name, sql):
    catalog, orders = stream_env
    orders.push((1_000, 1, 1))
    with pytest.raises(ValidationError, match=name):
        planner_for(catalog, engine=engine).execute(sql)
