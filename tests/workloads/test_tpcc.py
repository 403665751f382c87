"""Unit and integration tests for the TPC-C workload."""

import pytest

from repro import Database, EngineConfig
from repro.workloads.tpcc import (MIN_ORDER_LINES, TPCCConfig,
                                  TPCCWorkload, TXN_MIX, tpcc_schemas)


@pytest.fixture(scope="module")
def loaded():
    """One loaded TPC-C database shared by the read-mostly tests."""
    config = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                        customers_per_district=10, items=20,
                        initial_orders_per_district=8, seed=5)
    workload = TPCCWorkload(config)
    db = Database(engine="nvm-inp",
                  engine_config=EngineConfig(group_commit_size=8))
    counts = workload.load(db)
    return db, workload, counts, config


def test_nine_tables():
    schemas = tpcc_schemas()
    assert len(schemas) == 9
    assert {schema.table for schema in schemas} == {
        "item", "warehouse", "district", "customer", "history",
        "new_order", "orders", "order_line", "stock"}


def test_mix_sums_to_one():
    assert sum(fraction for __, fraction in TXN_MIX) \
        == pytest.approx(1.0)
    # ~88% of the mix modifies the database (paper, Section 5.1).
    writes = sum(fraction for name, fraction in TXN_MIX
                 if name in ("new_order", "payment"))
    assert writes == pytest.approx(0.88)


def test_load_counts(loaded):
    __, __w, counts, config = loaded
    assert counts["warehouse"] == 1
    assert counts["district"] == 2
    assert counts["customer"] == 20
    assert counts["stock"] == config.items
    assert counts["order_line"] >= counts["orders"] * MIN_ORDER_LINES


def test_customer_secondary_index(loaded):
    db, workload, __, __c = loaded
    last = TPCCWorkload.last_name(0)
    matches = db.execute(
        lambda ctx: ctx.get_secondary("customer", "by_name",
                                      (1, 1, last)))
    assert (1, 1, 1) in matches


def test_new_order_increments_district_and_creates_rows():
    config = TPCCConfig(warehouses=1, districts_per_warehouse=1,
                        customers_per_district=5, items=20,
                        initial_orders_per_district=3)
    workload = TPCCWorkload(config)
    db = Database(engine="nvm-inp")
    workload.load(db)
    from repro.workloads.tpcc import new_order_txn
    before = db.get("district", (1, 1), partition=0)["d_next_o_id"]
    o_id = db.execute(new_order_txn, 1, 1, 2, [(3, 4), (7, 1)], 99,
                      partition=0)
    assert o_id == before
    after = db.get("district", (1, 1), partition=0)
    assert after["d_next_o_id"] == before + 1
    assert db.get("orders", (1, 1, o_id), partition=0)["o_ol_cnt"] == 2
    assert db.get("new_order", (1, 1, o_id), partition=0) is not None
    line = db.get("order_line", (1, 1, o_id, 1), partition=0)
    assert line["ol_i_id"] == 3
    stock = db.get("stock", (1, 3), partition=0)
    assert stock["s_order_cnt"] == 1


def test_payment_by_name_uses_secondary_index():
    config = TPCCConfig(warehouses=1, districts_per_warehouse=1,
                        customers_per_district=5, items=10,
                        initial_orders_per_district=2)
    workload = TPCCWorkload(config)
    db = Database(engine="nvm-inp")
    workload.load(db)
    from repro.workloads.tpcc import payment_txn
    last = TPCCWorkload.last_name(2)  # customer c_id == 3
    db.execute(payment_txn, 1, 1, ("name", last), 100.0, 1,
               partition=0)
    warehouse = db.get("warehouse", 1, partition=0)
    assert warehouse["w_ytd"] == pytest.approx(100.0)
    customer = db.get("customer", (1, 1, 3), partition=0)
    assert customer["c_balance"] == pytest.approx(-110.0)
    assert db.get("history", 1, partition=0) is not None


def test_delivery_consumes_new_orders():
    config = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                        customers_per_district=5, items=10,
                        initial_orders_per_district=6)
    workload = TPCCWorkload(config)
    db = Database(engine="nvm-inp")
    workload.load(db)
    from repro.workloads.tpcc import delivery_txn
    pending_before = len(db.scan("new_order"))
    delivered = db.execute(delivery_txn, 1, 2, 123, partition=0)
    assert delivered == 2  # one per district
    assert len(db.scan("new_order")) == pending_before - 2


def test_order_status_returns_latest_order(loaded):
    db, __, __c, __cfg = loaded
    from repro.workloads.tpcc import order_status_txn
    result = db.execute(order_status_txn, 1, 1, 1, partition=0)
    if result is not None:
        assert result["order"]["o_c_id"] == 1
        assert len(result["lines"]) == result["order"]["o_ol_cnt"]


def test_stock_level_counts(loaded):
    db, __, __c, __cfg = loaded
    from repro.workloads.tpcc import stock_level_txn
    low = db.execute(stock_level_txn, 1, 1, 200, partition=0)
    assert low >= 0


def test_full_mix_runs_and_recovers():
    config = TPCCConfig(warehouses=1, districts_per_warehouse=2,
                        customers_per_district=8, items=25,
                        initial_orders_per_district=5, seed=13)
    workload = TPCCWorkload(config)
    db = Database(engine="nvm-inp",
                  engine_config=EngineConfig(group_commit_size=4))
    workload.load(db)
    executed = workload.run(db, 60)
    assert sum(executed.values()) == 60
    assert executed["new_order"] > 0
    assert executed["payment"] > 0
    ytd_before = db.get("warehouse", 1, partition=0)["w_ytd"]
    db.crash()
    db.recover()
    assert db.get("warehouse", 1, partition=0)["w_ytd"] == ytd_before


def test_transactions_deterministic():
    def txns():
        workload = TPCCWorkload(TPCCConfig(seed=77))
        return [(name, args, pid) for name, __, args, pid
                in workload.transactions(50)]

    assert txns() == txns()


def test_warehouse_partition_mapping():
    workload = TPCCWorkload(TPCCConfig(warehouses=4), partitions=2)
    assert workload.partition_of(1) == 0
    assert workload.partition_of(2) == 1
    assert workload.partition_of(3) == 0
