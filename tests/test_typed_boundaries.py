"""Where typed columns meet the rest of the system.

* The row engine never loads numpy: a fresh interpreter imports
  ``repro`` and runs the served key-lookup shapes, prepared and
  re-executed on the default engine, a running window and a grouped
  aggregate with a DISTINCT call, without numpy in ``sys.modules``; one vectorized statement over a memory
  table then loads it.
* Every value fetched through a cursor is a built-in ``int``, ``float``,
  ``str`` or ``None`` — never a numpy scalar, which compares and hashes
  like one — for the analytic templates, serially and at parallelism 2
  on thread and process workers.
* Placement reads Python values: the memory table's partition
  assignment and the scheduler's hash split put every row where
  :func:`~repro.adapters.capability.partition_of` over its Python key
  values does.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from repro import connect
from repro.adapters.capability import partition_of
from repro.adapters.memory import assign_partitions
from repro.runtime.operators import ExecutionContext
from repro.runtime.vectorized.batch import ColumnBatch, is_array, pylist
from repro.runtime.vectorized.parallel import _route

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: builds the catalog in both this process and the subprocess below
CATALOG_SOURCE = r'''
import random
from repro import Catalog, MemoryTable, Schema
from repro.core.types import DEFAULT_TYPE_FACTORY as F


def library(n_docs):
    rng = random.Random(11)
    i = F.integer(False)
    lib = Schema("lib")
    catalog = Catalog()
    catalog.add_schema(lib)
    lib.add_table(MemoryTable(
        "document",
        ["id", "title", "pub_year", "category_id", "abstract_length"],
        [i, F.varchar(), i, i, i],
        [(d, f"paper {d}", 1990 + rng.randrange(35), rng.randrange(8),
          rng.randrange(200, 4200)) for d in range(1, n_docs + 1)]))
    lib.add_table(MemoryTable(
        "chunks", ["id", "document_id", "chunk_no", "chunklength",
                   "chunktype_id"], [i, i, i, i, i],
        [(4 * (d - 1) + no + 1, d, no, rng.randrange(100, 2100),
          rng.randrange(6)) for d in range(1, n_docs + 1)
         for no in range(4)]))
    lib.add_table(MemoryTable("users", ["id", "username"], [i, F.varchar()],
                              [(u, f"user{u}") for u in range(1, 51)]))
    lib.add_table(MemoryTable(
        "projects", ["id", "title", "manager_id"], [i, F.varchar(), i],
        [(p, f"project {p}", 1 + rng.randrange(50)) for p in range(1, 41)]))
    return catalog
'''
_namespace: dict = {}
exec(CATALOG_SOURCE, _namespace)
library = _namespace["library"]

#: the served key-lookup shapes, as the default (row) engine runs them
SERVED = [
    "SELECT id, title, pub_year FROM lib.document WHERE id = ?",
    "SELECT p.title, u.username FROM lib.projects p "
    "JOIN lib.users u ON p.manager_id = u.id WHERE p.id = ?",
    "SELECT COUNT(*) AS n FROM lib.chunks WHERE document_id = ?",
    "SELECT id, chunklength FROM lib.chunks WHERE document_id = ? "
    "ORDER BY chunklength DESC, id LIMIT 3",
]

#: the four analytic templates: filter-aggregate, join-aggregate,
#: running window and distinct union
ANALYTIC = [
    "SELECT chunktype_id, COUNT(*) AS n, AVG(chunklength) AS a "
    "FROM lib.chunks WHERE chunklength > 407 GROUP BY chunktype_id",
    "SELECT d.category_id, COUNT(*) AS n, SUM(c.chunklength) AS s "
    "FROM lib.chunks c JOIN lib.document d ON c.document_id = d.id "
    "WHERE d.pub_year > 1993 GROUP BY d.category_id",
    "SELECT id, document_id, SUM(chunklength) OVER "
    "(PARTITION BY document_id ORDER BY chunk_no) AS running "
    "FROM lib.chunks WHERE chunklength > 288",
    "SELECT DISTINCT pub_year, category_id FROM lib.document "
    "WHERE abstract_length > 1007 "
    "UNION SELECT chunklength, chunktype_id FROM lib.chunks "
    "WHERE chunk_no = 0",
]

#: a grouped aggregate with every typed kind and a DISTINCT call
ROW_AGGREGATE = (
    "SELECT chunktype_id, COUNT(*) AS n, SUM(chunklength) AS s, "
    "AVG(chunklength) AS a, MIN(chunklength) AS lo, "
    "MAX(chunklength) AS hi, COUNT(DISTINCT document_id) AS d "
    "FROM lib.chunks GROUP BY chunktype_id")

NO_NUMPY_SCRIPT = CATALOG_SOURCE + r'''
import json, sys
from repro.avatica import QueryServer

SERVED = %r
ROW_WINDOW = %r
ROW_AGGREGATE = %r
loaded = {"import": "numpy" in sys.modules}
server = QueryServer()
server.register_catalog("lib", library(300))
connection = server.connect("lib")
for sql in SERVED:
    handle = connection.prepare(sql)
    for key in (1, 7, 300, 301):
        cursor = handle.execute((key,))
        cursor.fetchall()
        cursor.close()
    cursor = connection.cursor()
    cursor.execute(sql, (2,))
    cursor.fetchall()
cursor = connection.cursor()
cursor.execute(ROW_WINDOW)  # the window kernels over list columns
cursor.fetchall()
cursor.execute(ROW_AGGREGATE)  # the aggregate routine over list columns
cursor.fetchall()
loaded["row"] = "numpy" in sys.modules
vectorized = QueryServer(engine="vectorized")
vectorized.register_catalog("lib", library(300))
cursor = vectorized.connect("lib").cursor()
cursor.execute("SELECT COUNT(*) FROM lib.chunks WHERE chunklength > 400")
cursor.fetchall()
loaded["vectorized"] = "numpy" in sys.modules
print(json.dumps(loaded))
'''


def test_the_row_engine_never_loads_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         NO_NUMPY_SCRIPT % (SERVED, ANALYTIC[2], ROW_AGGREGATE)],
        env=env,
        capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == {"import": False, "row": False, "vectorized": True}


CONFIGS = [
    pytest.param({}, id="serial"),
    pytest.param({"parallelism": 2, "workers": "thread"}, id="thread",
                 marks=pytest.mark.parallel),
    pytest.param({"parallelism": 2, "workers": "process"}, id="process",
                 marks=pytest.mark.parallel),
]


@pytest.fixture(scope="module")
def catalog():
    return library(1500)


def fetch_pages(cursor, page=1024):
    rows = []
    while True:
        chunk = cursor.fetchmany(page)
        if not chunk:
            return rows
        rows += chunk


@pytest.mark.parametrize("options", CONFIGS)
def test_cursors_fetch_builtin_values(catalog, options):
    vectorized = connect(catalog, engine="vectorized", **options).cursor()
    row_engine = connect(catalog).cursor()
    for sql in ANALYTIC:
        vectorized.execute(sql)
        rows = fetch_pages(vectorized)
        assert rows, sql
        kinds = Counter(type(v) for row in rows for v in row)
        assert set(kinds) <= {int, float, str, type(None)}, (sql, kinds)
        row_engine.execute(sql)
        assert Counter(rows) == Counter(row_engine.fetchall()), sql
    chunks = catalog.root.subschema("lib").tables["CHUNKS"]
    assert all(map(is_array, chunks._columns()[0]))


@pytest.mark.parametrize("n_partitions", [2, 3])
@pytest.mark.parametrize("keys", [(1,), (1, 2), (0, 4)])
def test_assignment_places_rows_by_python_values(catalog, n_partitions,
                                                 keys):
    chunks = catalog.root.subschema("lib").tables["CHUNKS"]
    columns, n = chunks._columns()
    assignment = assign_partitions(columns, n, n_partitions, keys)
    for p, positions in enumerate(assignment):
        for i in positions:
            row = chunks.rows[i]
            assert partition_of([row[k] for k in keys], n_partitions) == p
    assert sorted(i for part in assignment for i in part) == list(range(n))


class _Outbox:
    def __init__(self, n):
        self.sent = [[] for _ in range(n)]

    def __len__(self):
        return len(self.sent)

    def send(self, j, batch):
        self.sent[j].extend(batch.to_rows())
        return True


def test_hash_split_places_rows_by_python_values(catalog):
    chunks = catalog.root.subschema("lib").tables["CHUNKS"]
    batches = [ColumnBatch(columns, n)
               for columns, n in chunks.scan_columns(1024)]
    assert all(map(is_array, batches[0].columns))
    rng = random.Random(3)
    batches[1] = batches[1].with_selection(
        sorted(rng.sample(range(1024), 500)))
    outbox = _Outbox(3)
    _route(iter(batches), ("hash", [1, 3]), outbox, ExecutionContext())
    expected = [[], [], []]
    for batch in batches:
        for row in batch.to_rows():
            expected[partition_of([row[1], row[3]], 3)].append(row)
    assert outbox.sent == expected
    assert {type(v) for part in outbox.sent for row in part for v in row} \
        == {int}
    assert pylist(batches[0].columns[0])[:3] == [1, 2, 3]
