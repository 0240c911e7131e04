"""Real-time analytics: concurrent-style updates with MVCC snapshots
(Section 4.4 of the paper).

A writer inserts/deletes/updates lineorder rows while analytical queries
pin snapshots; lazy deletion, slot reuse, and consolidation are all
demonstrated on a live database.

Run:  python examples/realtime_updates.py
"""

from repro import AStoreEngine, Database
from repro.updates import TransactionManager, WriteBatch


def build_database() -> Database:
    db = Database("realtime")
    db.create_table("sensors", {
        "sensor_id": [0, 1, 2],
        "location": ["hall-A", "hall-B", "hall-A"],
    }, dict_threshold=1.0, mvcc=True)
    db.create_table("readings", {
        "reading_id": list(range(9)),
        "sensor": [0, 1, 2, 0, 1, 2, 0, 1, 2],
        "value": [10.0, 20.0, 30.0, 11.0, 21.0, 31.0, 12.0, 22.0, 32.0],
    }, mvcc=True)
    db.add_reference("readings", "sensor", "sensors", "sensor_id")
    db.airify()
    return db


SQL = ("SELECT location, sum(value) AS total, count(*) AS n "
       "FROM readings, sensors GROUP BY location ORDER BY location")


def show(engine, label, snapshot=None):
    result = engine.query(SQL, snapshot=snapshot)
    print(f"  {label}:")
    for row in result.to_dicts():
        print(f"    {row}")


def main() -> None:
    db = build_database()
    engine = AStoreEngine(db)
    txn = TransactionManager(db)

    print("== initial state ==")
    show(engine, "live")

    # An analyst pins a snapshot; a writer keeps changing the data.
    analyst_snapshot = txn.snapshot()
    print(f"\nanalyst pinned snapshot v{analyst_snapshot}")

    print("\n== writer: batch of inserts and a delete ==")
    with WriteBatch(txn) as batch:
        batch.insert("readings", {
            "reading_id": [100, 101],
            "sensor": [0, 1],
            "value": [99.0, 88.0],
        })
        batch.delete("readings", [0])
    show(engine, "live after batch")
    show(engine, f"analyst snapshot v{analyst_snapshot} (unchanged)",
         snapshot=analyst_snapshot)

    print("\n== writer: in-place correction of a mis-read value ==")
    txn.update("readings", [4], {"value": [210.0]})
    show(engine, "live after in-place update")

    print("\n== lazy deletion and slot reuse ==")
    lineorder = db.table("readings")
    print(f"  physical rows before churn: {lineorder.num_rows}")
    txn.release(analyst_snapshot)  # unpin so slots can be recycled
    txn.delete("readings", [1, 2])
    positions = txn.insert("readings", {
        "reading_id": [200], "sensor": [2], "value": [55.0]})
    print(f"  reinserted into slot {positions.tolist()} "
          f"(physical rows now: {lineorder.num_rows})")

    print("\n== consolidation (the expensive maintenance path) ==")
    live_before = lineorder.num_live
    txn.consolidate("readings")
    print(f"  compacted to {lineorder.num_rows} rows "
          f"(live before: {live_before}); AIR references rewritten")
    show(engine, "live after consolidation")


if __name__ == "__main__":
    main()
