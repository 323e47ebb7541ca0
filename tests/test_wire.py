"""The columnar wire format: hypothesis round-trip properties.

The contract pinned here is the one :mod:`repro.runtime.vectorized.wire`
promises to the process-backed exchange edges: for any engine batch,
``decode_batch(encode_batch(b))`` is a *compact* batch whose rows equal
``b.compact().to_rows()`` with value types preserved — ints stay ints,
floats stay floats, bools stay bools, None stays None — across every
column encoding (typed int/float/str columns, nullable variants, and
the tagged fallback for mixed/exotic columns).
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.vectorized.batch import ColumnBatch
from repro.runtime.vectorized.wire import (
    MAGIC,
    VERSION,
    decode_batch,
    encode_batch,
)

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

# -- value strategies ---------------------------------------------------------

ints64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
bigints = st.one_of(
    st.integers(min_value=INT64_MAX + 1, max_value=INT64_MAX + 2 ** 70),
    st.integers(min_value=INT64_MIN - 2 ** 70, max_value=INT64_MIN - 1))
floats = st.floats(allow_nan=False)  # NaN breaks ==; pinned separately below
texts = st.text(max_size=30)
scalars = st.one_of(
    st.none(), st.booleans(), ints64, bigints, floats, texts,
    st.binary(max_size=20))


def column(values: st.SearchStrategy, n: int) -> st.SearchStrategy:
    return st.lists(values, min_size=n, max_size=n)


@st.composite
def batches(draw) -> ColumnBatch:
    """Batches over every column shape the engine produces: homogeneous
    typed columns, nullable variants, and mixed (tagged) columns —
    optionally wearing a selection vector."""
    n = draw(st.integers(min_value=0, max_value=25))
    field_count = draw(st.integers(min_value=0, max_value=5))
    per_column = st.one_of(
        column(ints64, n),
        column(st.one_of(st.none(), ints64), n),
        column(floats, n),
        column(st.one_of(st.none(), floats), n),
        column(texts, n),
        column(st.one_of(st.none(), texts), n),
        column(scalars, n),
    )
    cols = [draw(per_column) for _ in range(field_count)]
    batch = ColumnBatch(cols, n)
    if n and draw(st.booleans()):
        sel = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                            max_size=n, unique=True).map(sorted))
        batch = batch.with_selection(sel)
    return batch


# -- the round-trip property --------------------------------------------------

@given(batches())
@settings(max_examples=300, deadline=None)
def test_roundtrip_preserves_rows_and_types(batch):
    decoded = decode_batch(encode_batch(batch))
    expected = batch.compact().to_rows()
    assert decoded.is_compact()
    assert decoded.field_count == batch.field_count
    assert decoded.num_rows == batch.live_count
    got = decoded.to_rows()
    assert got == expected
    # == alone conflates 1/1.0/True; the wire must not.
    assert [[type(v) for v in row] for row in got] == \
        [[type(v) for v in row] for row in expected]


@given(st.lists(st.tuples(ints64, floats, texts), max_size=50))
@settings(max_examples=100, deadline=None)
def test_roundtrip_from_rows(rows):
    """The common path: a typed batch built straight from row tuples."""
    batch = ColumnBatch.from_rows(rows, 3)
    assert decode_batch(encode_batch(batch)).to_rows() == rows


@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_roundtrip_degenerate_shapes(field_count, num_rows):
    """Zero-row and zero-field batches keep their dimensions (the
    zero-field case matters: ``num_rows`` survives even though no
    column data crosses the wire)."""
    cols = [[0] * num_rows for _ in range(field_count)]
    decoded = decode_batch(encode_batch(ColumnBatch(cols, num_rows)))
    assert decoded.field_count == field_count
    assert decoded.num_rows == num_rows


@given(st.lists(ints64, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_selection_applied_at_encode(values):
    """Only live rows cross the wire: an empty selection encodes to the
    same frame as an empty batch, and a partial selection matches the
    compacted equivalent byte for byte."""
    n = len(values)
    batch = ColumnBatch([values], n)
    sel = list(range(0, n, 2))
    assert encode_batch(batch.with_selection(sel)) == \
        encode_batch(batch.compact() if sel == list(range(n))
                     else ColumnBatch([[values[i] for i in sel]], len(sel)))
    assert decode_batch(encode_batch(
        ColumnBatch([values], n, selection=[]))).num_rows == 0


# -- pinned unit cases --------------------------------------------------------

class TestWireEdges:
    def test_nan_and_infinities(self):
        batch = ColumnBatch([[float("nan"), float("inf"), float("-inf")]], 3)
        got = decode_batch(encode_batch(batch)).columns[0]
        assert math.isnan(got[0])
        assert got[1] == float("inf") and got[2] == float("-inf")

    def test_bools_do_not_collapse_to_ints(self):
        batch = ColumnBatch([[True, False, 1, 0]], 4)
        got = decode_batch(encode_batch(batch)).columns[0]
        assert got == [True, False, 1, 0]
        assert [type(v) for v in got] == [bool, bool, int, int]

    def test_exotic_scalars_use_pickle_escape_hatch(self):
        exotic = {"loc": [1.5, 2.5], "city": "X"}  # a Mongo _MAP value
        batch = ColumnBatch([[exotic, None]], 2)
        assert decode_batch(encode_batch(batch)).columns[0] == [exotic, None]

    def test_corrupt_magic_rejected(self):
        frame = bytearray(encode_batch(ColumnBatch([[1]], 1)))
        assert frame[0] == MAGIC and frame[1] == VERSION
        frame[0] ^= 0xFF
        with pytest.raises(ValueError, match="corrupt wire frame"):
            decode_batch(bytes(frame))

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_batch(ColumnBatch([[1]], 1)))
        frame[1] = VERSION + 1
        with pytest.raises(ValueError, match="corrupt wire frame"):
            decode_batch(bytes(frame))

    def test_header_layout_is_stable(self):
        """The header is part of the wire contract: magic, version,
        field count (u16) and row count (u32), little-endian."""
        frame = encode_batch(ColumnBatch([[7], ["a"]], 1))
        assert struct.unpack_from("<BBHI", frame, 0) == (MAGIC, VERSION, 2, 1)


class TestArrayColumns:
    """A typed int64 array column (a memory table's columnar copy, and
    what operators gather from it) is written as its buffer:
    the same frame its values make as a list, with no per-value pass,
    and it decodes to the list of built-in values the kernels accept."""

    @given(st.lists(ints64, min_size=1, max_size=40),
           st.lists(floats, min_size=1, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_arrays_frame_as_their_lists_do(self, ints, reals, data):
        from repro.runtime.vectorized.typed import typed_column
        n = min(len(ints), len(reals))
        ints, reals = ints[:n], reals[:n]
        # a float column stays a list beside the array
        arrays = ColumnBatch([typed_column(ints), typed_column(reals)], n)
        assert not isinstance(arrays.columns[0], list)
        assert arrays.columns[1] is reals
        lists = ColumnBatch([ints, reals], n)
        sel = data.draw(st.lists(st.integers(0, n - 1), max_size=n,
                                 unique=True).map(sorted))
        for batch, twin in ((arrays, lists),
                            (arrays.with_selection(sel),
                             lists.with_selection(sel))):
            frame = encode_batch(batch)
            assert frame == encode_batch(twin)
            decoded = decode_batch(frame)
            assert all(isinstance(c, list) for c in decoded.columns)
            assert decoded.to_rows() == twin.compact().to_rows()
            assert {type(v) for row in decoded.to_rows() for v in row} <= \
                {int, float}

    def test_an_index_array_selection(self):
        import numpy as np
        from repro.runtime.vectorized.typed import typed_column
        batch = ColumnBatch([typed_column([5, 6, 7, 8]), ["a", "b", "c", "d"]],
                            4, selection=np.array([1, 3]))
        assert decode_batch(encode_batch(batch)).to_rows() == \
            [(6, "b"), (8, "d")]

    def test_arrays_skip_the_classifying_pass(self, monkeypatch):
        from repro.runtime.vectorized import wire
        from repro.runtime.vectorized.typed import typed_column
        batch = ColumnBatch([typed_column([1, 2]),
                             typed_column([-2 ** 63, 2 ** 63 - 1])], 2)
        expected = encode_batch(batch)

        def no_classify(values):
            raise AssertionError("array column classified value by value")
        monkeypatch.setattr(wire, "_classify", no_classify)
        assert encode_batch(batch) == expected
        assert decode_batch(expected).to_rows() == [(1, -2 ** 63),
                                                    (2, 2 ** 63 - 1)]


class TestMalformedFrames:
    """A pipe hands the decoder whatever bytes arrived: every malformed
    frame must fail with the one typed error, never a bare struct,
    index, pickle or EOF error, and never allocate per header row."""

    #: one column per encoding: int, nullable float, nullable string,
    #: and a tagged column holding bool, bytes, NULL and a pickled dict
    MIXED = ColumnBatch([[1, 2, 3], [1.5, None, 2.5], ["a", None, "é"],
                         [True, b"x", {"k": 1}]], 3)

    def test_every_truncation_raises_typed_error(self):
        frame = encode_batch(self.MIXED)
        assert decode_batch(frame).to_rows() == self.MIXED.to_rows()
        for cut in range(len(frame)):
            with pytest.raises(ValueError, match="corrupt wire frame"):
                decode_batch(frame[:cut])

    @pytest.mark.parametrize("rows", [4, 2 ** 31, 2 ** 32 - 1])
    def test_oversized_row_count_raises_typed_error(self, rows):
        frame = bytearray(encode_batch(self.MIXED))
        struct.pack_into("<I", frame, 4, rows)
        with pytest.raises(ValueError, match="corrupt wire frame"):
            decode_batch(bytes(frame))

    def test_trailing_bytes_rejected(self):
        frame = encode_batch(self.MIXED)
        with pytest.raises(ValueError, match="corrupt wire frame"):
            decode_batch(frame + b"\x00")

    def test_empty_column_in_nonempty_batch_rejected(self):
        frame = bytearray(encode_batch(ColumnBatch([], 0)))
        struct.pack_into("<HI", frame, 2, 1, 2 ** 31)
        with pytest.raises(ValueError, match="corrupt wire frame"):
            decode_batch(bytes(frame) + b"\x00")
