"""Figure 2, live: optimizing a query across Splunk and MySQL.

Products lives in MySQL (behind the JDBC adapter + MiniDB), Orders
lives in Splunk (an event store queried with SPL).  The paper walks
through three candidate plans:

1. scan both sides, join client-side (enumerable convention);
2. convert both sides to the *spark* convention and join there;
3. exploit Splunk's ODBC lookup into MySQL so the join — and the WHERE
   clause — run entirely inside the Splunk engine.

The cost-based planner picks (3).  This script builds the scenario,
shows the chosen plan, and compares the work each engine performed.

Run:  python examples/federated_join.py
"""

from repro import Catalog
from repro.adapters.jdbc import JdbcSchema, MiniDb
from repro.adapters.splunk import SplunkSchema, SplunkStore
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.framework import FrameworkConfig, Planner

SQL = """
SELECT o.rowtime, p.name, o.units
FROM splunk.orders AS o
JOIN mysql.products AS p ON o.productId = p.productId
WHERE o.units > 20
"""


def build() -> tuple:
    db = MiniDb("mysql")
    store = SplunkStore()
    catalog = Catalog()
    mysql = JdbcSchema("mysql", db, dialect="mysql")
    splunk = SplunkSchema("splunk", store)
    catalog.add_schema(mysql)
    catalog.add_schema(splunk)

    mysql.add_jdbc_table(
        "products", ["productId", "name", "price"],
        [F.integer(False), F.varchar(), F.integer()],
        [(i, f"product-{i}", 5 * i) for i in range(1, 21)])
    splunk.add_splunk_table(
        "orders", ["rowtime", "productId", "units"],
        [F.timestamp(False), F.integer(False), F.integer(False)],
        [{"rowtime": t, "productId": 1 + t % 20, "units": (t * 7) % 60}
         for t in range(200)])
    # Register the ODBC path: Splunk can look rows up in MySQL.
    store.register_lookup("products", ["productId", "name", "price"],
                          lambda: db.table("products").rows)
    return catalog, db, store


def main() -> None:
    catalog, db, store = build()
    planner = Planner(FrameworkConfig(catalog))

    logical = planner.rel(SQL)
    print("Logical plan (join in the logical convention, Figure 2 left):")
    print(logical.explain())

    physical = planner.optimize(logical)
    print("\nChosen physical plan (join inside Splunk, Figure 2 right):")
    print(physical.explain())

    result = planner.execute(SQL)
    print(f"\n{len(result.rows)} rows; first 5: {result.rows[:5]}")
    print(f"Splunk searches: {store.search_calls}, "
          f"events scanned inside Splunk: {store.events_scanned}")
    print(f"MySQL queries: {db.backend_calls} "
          f"(0 — Splunk reached it via lookup, not Calcite)")

    # For contrast: disable the Splunk join rule and re-plan.
    splunk_schema = catalog.resolve_schema(["splunk"])
    splunk_schema.rules = [r for r in splunk_schema.rules
                           if getattr(r, "op", None) != "join"]
    planner2 = Planner(FrameworkConfig(catalog))
    alt = planner2.optimize(planner2.rel(SQL))
    print("\nWithout the SplunkJoinRule (join runs client-side):")
    print(alt.explain())


if __name__ == "__main__":
    main()
