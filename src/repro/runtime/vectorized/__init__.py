"""The vectorized (batch/columnar) execution engine.

A sibling of the enumerable runtime: relational operators execute over
:class:`ColumnBatch` (typed columns plus a selection vector) instead of
tuple iterators, and row expressions are compiled once per operator and
evaluated over whole columns.  ``Convention.VECTORIZED`` marks plans in
this engine; :func:`vectorized_rules` contributes the converter rules
and the row→batch bridge that lets it federate with adapters that only
produce rows.
"""

from .batch import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    batches_from_rows,
    concat_batches,
)
from .exchange import (
    BroadcastExchange,
    Exchange,
    HashExchange,
    RandomExchange,
    SingletonExchange,
    exchanges_in,
)
from .executor import execute_batches
from .expr import Frame, Scalar, compile_rex, eval_rex_column
from .parallel_rules import insert_exchanges
from .wire import decode_batch, encode_batch
from .nodes import (
    VECTORIZED,
    RowToBatch,
    VectorizedAggregate,
    VectorizedFilter,
    VectorizedHashJoin,
    VectorizedIntersect,
    VectorizedMinus,
    VectorizedProject,
    VectorizedSort,
    VectorizedTableScan,
    VectorizedThetaJoin,
    VectorizedUnion,
    VectorizedValues,
    vectorized_rules,
)
from .window import VectorizedWindow, VectorizedWindowRule

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "VECTORIZED",
    "BroadcastExchange",
    "ColumnBatch",
    "Exchange",
    "HashExchange",
    "RandomExchange",
    "SingletonExchange",
    "Frame",
    "RowToBatch",
    "Scalar",
    "VectorizedAggregate",
    "VectorizedFilter",
    "VectorizedHashJoin",
    "VectorizedIntersect",
    "VectorizedMinus",
    "VectorizedProject",
    "VectorizedSort",
    "VectorizedTableScan",
    "VectorizedThetaJoin",
    "VectorizedUnion",
    "VectorizedValues",
    "VectorizedWindow",
    "VectorizedWindowRule",
    "batches_from_rows",
    "compile_rex",
    "concat_batches",
    "decode_batch",
    "encode_batch",
    "eval_rex_column",
    "exchanges_in",
    "execute_batches",
    "insert_exchanges",
    "vectorized_rules",
]
