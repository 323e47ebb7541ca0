"""A compact columnar wire format for :class:`ColumnBatch`.

The serialization used by the process-backed exchange edges
(:mod:`.parallel_process`): a batch becomes one contiguous bytes
*frame* that a worker process writes to a pipe and its consumer
decodes back into a ``ColumnBatch`` — no per-row pickling on the hot
paths.

Design points:

* **Selection applied at encode time.**  A batch carrying a selection
  vector is compacted *while encoding*, so dead rows never cross a
  process boundary and the decoder always produces a compact batch.
* **Typed column encodings.**  Homogeneous int64/float64 columns are
  packed through :mod:`array` (``'q'``/``'d'``, host byte order — the
  wire never leaves the machine); nullable variants add a null bitmap.
  A typed int64 array column (:mod:`.typed`) is written as its own buffer
  (``tobytes()``, after a ``take`` through the selection), with no
  per-value pass, and decodes to the same list a list column would.
  String columns pack per-value byte lengths plus one UTF-8 blob.
* **A compact tagged encoding for everything else.**  Mixed columns
  (int-and-float, bools, bytes, out-of-range ints, adapter values like
  Mongo ``_MAP`` dicts) fall back to one tag byte per value with a
  fixed or length-prefixed payload; only genuinely exotic scalars use
  a per-value pickle escape hatch.
* **Typed failure on malformed input.**  Every read is bounds-checked
  against the frame, so a truncated, oversized or corrupt frame raises
  ``ValueError("corrupt wire frame: …")`` — never a bare ``struct``,
  index, pickle or EOF error — and decoding allocates no more than the
  frame's length can back.  Pipes frame their payloads themselves
  (``send_bytes``).

The format is symmetric and lossless for engine row values:
``decode_batch(encode_batch(b)).to_rows() == b.to_rows()`` with value
*types* preserved (ints stay ints, floats stay floats, bools stay
bools) — pinned by the hypothesis round-trip suite in
``tests/test_wire.py``.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import List, Optional, Sequence

from .batch import ColumnBatch, pylist

#: Frame magic byte + format version (bumped on layout changes).
MAGIC = 0xCB
VERSION = 1

_HEADER = struct.Struct("<BBHI")  # magic, version, field_count, num_rows
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: 64-bit signed range: ints outside it use the tagged escape hatch.
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

# -- column tags --------------------------------------------------------------
_COL_EMPTY = 0       # zero rows, no payload
_COL_INT = 1         # array('q')
_COL_FLOAT = 2       # array('d')
_COL_INT_NULL = 3    # null bitmap + array('q') (zeros at nulls)
_COL_FLOAT_NULL = 4  # null bitmap + array('d')
_COL_STR = 5         # array('I') byte lengths + utf-8 blob
_COL_STR_NULL = 6    # null bitmap + lengths + blob
_COL_TAGGED = 7      # one tag byte per value

# -- value tags inside a TAGGED column ---------------------------------------
_V_NONE = 0
_V_INT = 1     # 8-byte signed
_V_FLOAT = 2   # 8-byte double
_V_STR = 3     # u32 length + utf-8
_V_TRUE = 4
_V_FALSE = 5
_V_BYTES = 6   # u32 length + raw bytes
_V_PICKLE = 7  # u32 length + pickle (exotic scalars only)


def _selected(col: Sequence, selection: Optional[Sequence[int]]) -> list:
    """The live values of one list column (selection applied)."""
    if selection is None:
        return col if isinstance(col, list) else list(col)
    return list(map(col.__getitem__, pylist(selection)))


def _null_bitmap(values: list) -> bytes:
    """Bit ``i`` set ⇔ ``values[i] is None``."""
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v is None:
            bits[i >> 3] |= 1 << (i & 7)
    return bytes(bits)


def _classify(values: list) -> int:
    """Pick the densest column tag that can carry ``values`` exactly."""
    has_none = False
    all_int = all_float = all_str = True
    for v in values:
        if v is None:
            has_none = True
            continue
        t = type(v)
        if t is not int:
            all_int = False
        elif not (_INT64_MIN <= v <= _INT64_MAX):
            all_int = False
        if t is not float:
            all_float = False
        if t is not str:
            all_str = False
        if not (all_int or all_float or all_str):
            return _COL_TAGGED
    if all_int:
        return _COL_INT_NULL if has_none else _COL_INT
    if all_float:
        return _COL_FLOAT_NULL if has_none else _COL_FLOAT
    if all_str:
        return _COL_STR_NULL if has_none else _COL_STR
    return _COL_TAGGED  # all-None columns land here too (n tag bytes)


def _encode_tagged(values: list, out: bytearray) -> None:
    for v in values:
        if v is None:
            out.append(_V_NONE)
        elif v is True:
            out.append(_V_TRUE)
        elif v is False:
            out.append(_V_FALSE)
        else:
            t = type(v)
            if t is int and _INT64_MIN <= v <= _INT64_MAX:
                out.append(_V_INT)
                out += _I64.pack(v)
            elif t is float:
                out.append(_V_FLOAT)
                out += _F64.pack(v)
            elif t is str:
                raw = v.encode("utf-8")
                out.append(_V_STR)
                out += _U32.pack(len(raw))
                out += raw
            elif t is bytes:
                out.append(_V_BYTES)
                out += _U32.pack(len(v))
                out += v
            else:
                raw = pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)
                out.append(_V_PICKLE)
                out += _U32.pack(len(raw))
                out += raw


def encode_batch(batch: ColumnBatch) -> bytes:
    """Encode a batch into one contiguous bytes frame (selection
    vectors applied here, so only live rows are serialized)."""
    selection = batch.selection
    n = batch.num_rows if selection is None else len(selection)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, batch.field_count, n))
    for col in batch.columns:
        if n == 0:
            out.append(_COL_EMPTY)
            continue
        if not isinstance(col, list):  # a typed int64 array
            live = col if selection is None else col.take(selection)
            out.append(_COL_INT)
            out += _U32.pack(live.nbytes)
            out += live.tobytes()
            continue
        values = _selected(col, selection)
        tag = _classify(values)
        out.append(tag)
        body = bytearray()
        if tag == _COL_INT:
            body += array("q", values).tobytes()
        elif tag == _COL_FLOAT:
            body += array("d", values).tobytes()
        elif tag == _COL_INT_NULL:
            body += _null_bitmap(values)
            body += array("q", [0 if v is None else v for v in values]).tobytes()
        elif tag == _COL_FLOAT_NULL:
            body += _null_bitmap(values)
            body += array("d", [0.0 if v is None else v for v in values]).tobytes()
        elif tag in (_COL_STR, _COL_STR_NULL):
            if tag == _COL_STR_NULL:
                body += _null_bitmap(values)
            encoded = [b"" if v is None else v.encode("utf-8") for v in values]
            body += array("I", [len(e) for e in encoded]).tobytes()
            body += b"".join(encoded)
        else:
            _encode_tagged(values, body)
        out += _U32.pack(len(body))
        out += body
    return bytes(out)


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt wire frame: {detail}")


def _take(buf: memoryview, pos: int, size: int):
    """``(buf[pos:pos + size], pos + size)``, or a typed error when the
    frame ends first — so a size read from the frame can never make
    decoding allocate more than the frame's own length."""
    end = pos + size
    if end > len(buf):
        raise _corrupt(f"truncated at byte {len(buf)}, needs {end}")
    return buf[pos:end], end


def _decode_tagged(buf: memoryview, n: int) -> list:
    if n > len(buf):  # every value carries at least its tag byte
        raise _corrupt(f"{n} tagged values in {len(buf)} bytes")
    values: list = []
    pos = 0
    try:
        # Fixed-size reads past the end of the (bounded) body raise
        # IndexError or struct.error, turned into the typed error below.
        for _ in range(n):
            tag = buf[pos]
            pos += 1
            if tag == _V_NONE:
                values.append(None)
            elif tag == _V_TRUE:
                values.append(True)
            elif tag == _V_FALSE:
                values.append(False)
            elif tag == _V_INT:
                values.append(_I64.unpack_from(buf, pos)[0])
                pos += 8
            elif tag == _V_FLOAT:
                values.append(_F64.unpack_from(buf, pos)[0])
                pos += 8
            elif tag in (_V_STR, _V_BYTES, _V_PICKLE):
                (length,) = _U32.unpack_from(buf, pos)
                raw, pos = _take(buf, pos + 4, length)
                if tag == _V_STR:
                    values.append(str(raw, "utf-8"))
                elif tag == _V_BYTES:
                    values.append(bytes(raw))
                else:
                    try:
                        values.append(pickle.loads(raw))
                    except Exception as exc:
                        raise _corrupt(f"undecodable pickled value ({exc!r})")
            else:
                raise _corrupt(f"unknown value tag {tag}")
    except (IndexError, struct.error):
        raise _corrupt("truncated tagged column") from None
    if pos != len(buf):
        raise _corrupt("tagged column length mismatch")
    return values


def _decode_column(tag: int, body: memoryview, n: int) -> list:
    bpos = 0
    nulls = b""
    if tag in (_COL_INT_NULL, _COL_FLOAT_NULL, _COL_STR_NULL):
        raw, bpos = _take(body, 0, (n + 7) // 8)
        nulls = bytes(raw)
    if tag in (_COL_INT, _COL_INT_NULL, _COL_FLOAT, _COL_FLOAT_NULL):
        if len(body) - bpos != 8 * n:
            raise _corrupt("numeric column length mismatch")
        arr = array("q" if tag in (_COL_INT, _COL_INT_NULL) else "d")
        arr.frombytes(body[bpos:])
        values = arr.tolist()
    elif tag in (_COL_STR, _COL_STR_NULL):
        lengths = array("I")
        raw, bpos = _take(body, bpos, lengths.itemsize * n)
        lengths.frombytes(raw)
        if bpos + sum(lengths) != len(body):
            raise _corrupt("string column length mismatch")
        values = []
        for length in lengths:
            values.append(str(body[bpos:bpos + length], "utf-8"))
            bpos += length
    elif tag == _COL_TAGGED:
        values = _decode_tagged(body, n)
    else:
        raise _corrupt(f"unknown column tag {tag}")
    if nulls:
        for i in range(n):
            if nulls[i >> 3] & (1 << (i & 7)):
                values[i] = None
    return values


def decode_batch(data) -> ColumnBatch:
    """Decode a frame produced by :func:`encode_batch` (bytes or
    memoryview) into a compact :class:`ColumnBatch`.

    A truncated, oversized or otherwise malformed frame raises
    ``ValueError("corrupt wire frame: …")``, and nothing is allocated
    in proportion to a header count the frame's length cannot back."""
    buf = memoryview(data)
    raw, pos = _take(buf, 0, _HEADER.size)
    magic, version, field_count, n = _HEADER.unpack(raw)
    if magic != MAGIC or version != VERSION:
        raise _corrupt(f"magic=0x{magic:02x} version={version}")
    columns: List[list] = []
    for _ in range(field_count):
        raw, pos = _take(buf, pos, 1)
        tag = raw[0]
        if tag == _COL_EMPTY:
            if n:
                raise _corrupt(f"empty column in a {n}-row batch")
            columns.append([])
            continue
        raw, pos = _take(buf, pos, 4)
        body, pos = _take(buf, pos, _U32.unpack(raw)[0])
        try:
            columns.append(_decode_column(tag, body, n))
        except UnicodeDecodeError as exc:
            raise _corrupt(f"invalid utf-8 ({exc.reason})")
    if pos != len(buf):
        raise _corrupt(f"{len(buf) - pos} trailing bytes")
    return ColumnBatch(columns, n)
