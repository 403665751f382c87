"""TPC-C workload (Section 5.1, reference [61]).

The industry-standard order-entry benchmark: nine tables and five
transaction types (New-Order, Payment, Order-Status, Delivery,
Stock-Level) in the standard 45/43/4/4/4 mix — "transactions involving
database modifications comprise around 88% of the workload". Each
warehouse maps to one partition. By default all transactions are
single-partition; with ``remote_order_fraction > 0`` a fraction of
New-Order transactions source one order line from a *remote* supply
warehouse. On the in-process database those remote stock accesses are
redirected to the home warehouse (the paper's single-partition cheat)
and counted in :attr:`TPCCWorkload.remote_redirected`; on the sharded
tier (:class:`~repro.dist.coordinator.ShardedDatabase`) they execute
on their true home partition as a real cross-partition two-phase
commit transaction (see docs/scaleout.md).

The paper runs 8 warehouses and 100,000 items (~1 GB); the simulator
defaults are scaled down (see EXPERIMENTS.md) while keeping the schema,
transaction logic, secondary indexes (customer by last name, orders by
customer), and relative table sizes intact.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.database import Database
from ..core.schema import Column, ColumnType, Schema
from ..errors import TupleNotFoundError, WorkloadError
from ..sim.rng import derive_rng

_ALPHABET = string.ascii_letters
_LAST_NAMES = ["BAR", "OUGHT", "ABLE", "PRI", "PRES",
               "ESE", "ANTI", "CALLY", "ATION", "EING"]

#: Standard transaction mix.
TXN_MIX: List[Tuple[str, float]] = [
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
]

_MAX_ORDER_ID = 10 ** 9

#: Order lines per order, drawn uniformly from this range (the spec's).
MIN_ORDER_LINES = 5
MAX_ORDER_LINES = 15


@dataclass(frozen=True)
class TPCCConfig:
    """Scaled TPC-C parameters (spec values in comments)."""

    warehouses: int = 2              # paper: 8
    districts_per_warehouse: int = 4  # spec: 10
    customers_per_district: int = 30  # spec: 3000
    items: int = 100                  # paper: 100,000
    initial_orders_per_district: int = 20  # spec: 3000
    seed: int = 47
    #: Fraction of New-Order transactions with one remote-warehouse
    #: order line (the spec's remote supply rule). 0.0 draws no extra
    #: random numbers, so default runs are bit-for-bit unchanged.
    remote_order_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.warehouses < 1:
            raise WorkloadError("need at least one warehouse")
        if not 0.0 <= self.remote_order_fraction <= 1.0:
            raise WorkloadError(
                "remote_order_fraction must be in [0, 1]")
        if self.remote_order_fraction > 0.0 and self.warehouses < 2:
            raise WorkloadError(
                "remote order lines need at least two warehouses")


def tpcc_schemas() -> List[Schema]:
    """All nine TPC-C table schemas."""
    return [
        Schema.build("item", [
            Column("i_id", ColumnType.INT),
            Column("i_name", ColumnType.STRING, capacity=24),
            Column("i_price", ColumnType.FLOAT),
            Column("i_data", ColumnType.STRING, capacity=50),
        ], primary_key=["i_id"]),
        Schema.build("warehouse", [
            Column("w_id", ColumnType.INT),
            Column("w_name", ColumnType.STRING, capacity=10),
            Column("w_tax", ColumnType.FLOAT),
            Column("w_ytd", ColumnType.FLOAT),
        ], primary_key=["w_id"]),
        Schema.build("district", [
            Column("d_w_id", ColumnType.INT),
            Column("d_id", ColumnType.INT),
            Column("d_name", ColumnType.STRING, capacity=10),
            Column("d_tax", ColumnType.FLOAT),
            Column("d_ytd", ColumnType.FLOAT),
            Column("d_next_o_id", ColumnType.INT),
        ], primary_key=["d_w_id", "d_id"]),
        Schema.build("customer", [
            Column("c_w_id", ColumnType.INT),
            Column("c_d_id", ColumnType.INT),
            Column("c_id", ColumnType.INT),
            Column("c_first", ColumnType.STRING, capacity=16),
            Column("c_last", ColumnType.STRING, capacity=16),
            Column("c_balance", ColumnType.FLOAT),
            Column("c_ytd_payment", ColumnType.FLOAT),
            Column("c_payment_cnt", ColumnType.INT),
            Column("c_data", ColumnType.STRING, capacity=250),
        ], primary_key=["c_w_id", "c_d_id", "c_id"],
            secondary_indexes={"by_name": ["c_w_id", "c_d_id", "c_last"]}),
        Schema.build("history", [
            Column("h_id", ColumnType.INT),
            Column("h_c_w_id", ColumnType.INT),
            Column("h_c_d_id", ColumnType.INT),
            Column("h_c_id", ColumnType.INT),
            Column("h_amount", ColumnType.FLOAT),
            Column("h_data", ColumnType.STRING, capacity=24),
        ], primary_key=["h_id"]),
        Schema.build("new_order", [
            Column("no_w_id", ColumnType.INT),
            Column("no_d_id", ColumnType.INT),
            Column("no_o_id", ColumnType.INT),
        ], primary_key=["no_w_id", "no_d_id", "no_o_id"]),
        Schema.build("orders", [
            Column("o_w_id", ColumnType.INT),
            Column("o_d_id", ColumnType.INT),
            Column("o_id", ColumnType.INT),
            Column("o_c_id", ColumnType.INT),
            Column("o_entry_d", ColumnType.INT),
            Column("o_carrier_id", ColumnType.INT),
            Column("o_ol_cnt", ColumnType.INT),
        ], primary_key=["o_w_id", "o_d_id", "o_id"],
            secondary_indexes={
                "by_customer": ["o_w_id", "o_d_id", "o_c_id"]}),
        Schema.build("order_line", [
            Column("ol_w_id", ColumnType.INT),
            Column("ol_d_id", ColumnType.INT),
            Column("ol_o_id", ColumnType.INT),
            Column("ol_number", ColumnType.INT),
            Column("ol_i_id", ColumnType.INT),
            Column("ol_delivery_d", ColumnType.INT),
            Column("ol_quantity", ColumnType.INT),
            Column("ol_amount", ColumnType.FLOAT),
            Column("ol_dist_info", ColumnType.STRING, capacity=24),
        ], primary_key=["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"]),
        Schema.build("stock", [
            Column("s_w_id", ColumnType.INT),
            Column("s_i_id", ColumnType.INT),
            Column("s_quantity", ColumnType.INT),
            Column("s_ytd", ColumnType.INT),
            Column("s_order_cnt", ColumnType.INT),
            Column("s_data", ColumnType.STRING, capacity=50),
        ], primary_key=["s_w_id", "s_i_id"]),
    ]


class TPCCWorkload:
    """Loader and transaction generator for scaled TPC-C."""

    def __init__(self, config: TPCCConfig, partitions: int = 1) -> None:
        self.config = config
        self.partitions = partitions
        self._rng = derive_rng(config.seed, "tpcc", "ops")
        self._data_rng = derive_rng(config.seed, "tpcc", "data")
        self._history_ids = [iter(range(p, 10 ** 12, partitions))
                             for p in range(partitions)]
        self.new_order_count = 0
        self.payment_count = 0
        #: Remote order lines redirected to the home warehouse by the
        #: single-process path (the visible cost of the paper's cheat).
        self.remote_redirected = 0
        #: Remote order lines executed on their true partition via 2PC.
        self.remote_distributed = 0

    def partition_of(self, w_id: int) -> int:
        return (w_id - 1) % self.partitions

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _rand_str(self, length: int) -> str:
        return "".join(self._data_rng.choices(_ALPHABET, k=length))

    @staticmethod
    def last_name(number: int) -> str:
        """Standard TPC-C syllable last-name generator."""
        return (_LAST_NAMES[(number // 100) % 10]
                + _LAST_NAMES[(number // 10) % 10]
                + _LAST_NAMES[number % 10])

    def load(self, db: Database) -> Dict[str, int]:
        """Populate all nine tables; returns row counts per table."""
        for schema in tpcc_schemas():
            db.create_table(schema)
        counts = {schema.table: 0 for schema in tpcc_schemas()}
        config = self.config
        # Items are read-only and replicated to every partition so all
        # transactions stay single-partition.
        for pid in range(self.partitions):
            for i_id in range(1, config.items + 1):
                db.insert("item", {
                    "i_id": i_id, "i_name": self._rand_str(12),
                    "i_price": 1.0 + (i_id % 100),
                    "i_data": self._rand_str(26),
                }, partition=pid)
        counts["item"] = config.items * self.partitions
        for w_id in range(1, config.warehouses + 1):
            pid = self.partition_of(w_id)
            db.insert("warehouse", {
                "w_id": w_id, "w_name": self._rand_str(6),
                "w_tax": 0.05, "w_ytd": 0.0,
            }, partition=pid)
            counts["warehouse"] += 1
            for i_id in range(1, config.items + 1):
                db.insert("stock", {
                    "s_w_id": w_id, "s_i_id": i_id,
                    "s_quantity": 50 + (i_id % 50), "s_ytd": 0,
                    "s_order_cnt": 0, "s_data": self._rand_str(26),
                }, partition=pid)
                counts["stock"] += 1
            for d_id in range(1, config.districts_per_warehouse + 1):
                self._load_district(db, pid, w_id, d_id, counts)
        db.flush()
        return counts

    def _load_district(self, db: Database, pid: int, w_id: int,
                       d_id: int, counts: Dict[str, int]) -> None:
        config = self.config
        next_o_id = config.initial_orders_per_district + 1
        db.insert("district", {
            "d_w_id": w_id, "d_id": d_id, "d_name": self._rand_str(6),
            "d_tax": 0.08, "d_ytd": 0.0, "d_next_o_id": next_o_id,
        }, partition=pid)
        counts["district"] += 1
        for c_id in range(1, config.customers_per_district + 1):
            db.insert("customer", {
                "c_w_id": w_id, "c_d_id": d_id, "c_id": c_id,
                "c_first": self._rand_str(8),
                "c_last": self.last_name(c_id - 1),
                "c_balance": -10.0, "c_ytd_payment": 10.0,
                "c_payment_cnt": 1, "c_data": self._rand_str(200),
            }, partition=pid)
            counts["customer"] += 1
        for o_id in range(1, config.initial_orders_per_district + 1):
            c_id = 1 + self._data_rng.randrange(
                config.customers_per_district)
            ol_cnt = self._data_rng.randint(MIN_ORDER_LINES,
                                            MAX_ORDER_LINES)
            db.insert("orders", {
                "o_w_id": w_id, "o_d_id": d_id, "o_id": o_id,
                "o_c_id": c_id, "o_entry_d": o_id, "o_carrier_id": 0,
                "o_ol_cnt": ol_cnt,
            }, partition=pid)
            counts["orders"] += 1
            for number in range(1, ol_cnt + 1):
                db.insert("order_line", {
                    "ol_w_id": w_id, "ol_d_id": d_id, "ol_o_id": o_id,
                    "ol_number": number,
                    "ol_i_id": 1 + self._data_rng.randrange(config.items),
                    "ol_delivery_d": o_id, "ol_quantity": 5,
                    "ol_amount": 0.0, "ol_dist_info": self._rand_str(24),
                }, partition=pid)
                counts["order_line"] += 1
            # The most recent third of orders are not yet delivered.
            if o_id > 2 * config.initial_orders_per_district // 3:
                db.insert("new_order", {
                    "no_w_id": w_id, "no_d_id": d_id, "no_o_id": o_id,
                }, partition=pid)
                counts["new_order"] += 1

    # ------------------------------------------------------------------
    # Transaction generation
    # ------------------------------------------------------------------

    def _pick_txn_type(self) -> str:
        roll = self._rng.random()
        cumulative = 0.0
        for name, fraction in TXN_MIX:
            cumulative += fraction
            if roll < cumulative:
                return name
        return TXN_MIX[-1][0]

    def transactions(self, count: int
                     ) -> Iterator[Tuple[str, Callable, tuple, int]]:
        """Yield ``(name, procedure, args, partition)``."""
        config = self.config
        for sequence in range(count):
            w_id = 1 + self._rng.randrange(config.warehouses)
            d_id = 1 + self._rng.randrange(
                config.districts_per_warehouse)
            pid = self.partition_of(w_id)
            name = self._pick_txn_type()
            if name == "new_order":
                c_id = 1 + self._rng.randrange(
                    config.customers_per_district)
                lines: List[Tuple[int, ...]] = [
                    (1 + self._rng.randrange(config.items),
                     1 + self._rng.randrange(10))
                    for __ in range(self._rng.randint(MIN_ORDER_LINES,
                                                      MAX_ORDER_LINES))
                ]
                # Remote supply rule: one line of a remote New-Order is
                # sourced from another warehouse. Guarded so the
                # default (0.0) draws nothing and stays bit-identical
                # to historical runs.
                if config.remote_order_fraction > 0.0 \
                        and self._rng.random() \
                        < config.remote_order_fraction:
                    index = self._rng.randrange(len(lines))
                    supply_w = 1 + self._rng.randrange(
                        config.warehouses - 1)
                    if supply_w >= w_id:
                        supply_w += 1
                    lines[index] = lines[index] + (supply_w,)
                yield name, new_order_txn, \
                    (w_id, d_id, c_id, lines, sequence), pid
            elif name == "payment":
                c_id = 1 + self._rng.randrange(
                    config.customers_per_district)
                if self._rng.random() < 0.6:
                    selector: Tuple[str, Any] = (
                        "name", self.last_name(c_id - 1))
                else:
                    selector = ("id", c_id)
                amount = 1.0 + self._rng.random() * 4999.0
                history_id = next(self._history_ids[pid])
                yield name, payment_txn, \
                    (w_id, d_id, selector, amount, history_id), pid
            elif name == "order_status":
                c_id = 1 + self._rng.randrange(
                    config.customers_per_district)
                yield name, order_status_txn, (w_id, d_id, c_id), pid
            elif name == "delivery":
                yield name, delivery_txn, \
                    (w_id, config.districts_per_warehouse, sequence), pid
            else:
                yield name, stock_level_txn, (w_id, d_id, 60), pid

    def run(self, db: Database, num_txns: int) -> Dict[str, int]:
        """Execute ``num_txns`` transactions; returns per-type counts.

        New-Order transactions with remote order lines run as real
        cross-partition 2PC transactions on a sharded database; on the
        in-process database the remote stock accesses are redirected to
        the home warehouse and counted (the paper's cheat, made
        visible)."""
        executed: Dict[str, int] = {name: 0 for name, __ in TXN_MIX}
        for txn in self.transactions(num_txns):
            executed[self.execute_one(db, txn)] += 1
        db.flush()
        return executed

    def execute_one(self, db: Database,
                    txn: Tuple[str, Any, tuple, int]) -> str:
        """Dispatch one :meth:`transactions` entry on ``db``; returns
        the transaction's type name."""
        name, procedure, args, pid = txn
        if name == "new_order":
            remote = [line for line in args[3] if len(line) > 2]
            if remote and getattr(db, "is_sharded", False):
                db.execute_distributed(self._new_order_dtxn(pid, *args))
                self.remote_distributed += len(remote)
                return name
            self.remote_redirected += len(remote)
        db.execute(procedure, *args, partition=pid)
        return name

    def _new_order_dtxn(self, home_pid: int, w_id: int, d_id: int,
                        c_id: int, lines: List[Tuple[int, ...]],
                        entry_d: int):
        """Split a remote New-Order into its per-partition branches:
        the home branch does everything except stock updates for lines
        supplied by other partitions; each remote partition gets one
        branch applying its stock updates."""
        from ..dist.txn import Branch, DistributedTransaction
        tagged: List[Tuple[int, int, int, bool]] = []
        by_partition: Dict[int, List[Tuple[int, int, int]]] = {}
        for line in lines:
            i_id, quantity = line[0], line[1]
            supply_w = line[2] if len(line) > 2 else w_id
            supply_pid = self.partition_of(supply_w)
            local = supply_pid == home_pid
            tagged.append((i_id, quantity, supply_w, local))
            if not local:
                by_partition.setdefault(supply_pid, []).append(
                    (supply_w, i_id, quantity))
        home = Branch(home_pid, new_order_home_branch,
                      (w_id, d_id, c_id, tagged, entry_d))
        remotes = [Branch(pid, new_order_remote_branch,
                          (tuple(updates),))
                   for pid, updates in sorted(by_partition.items())]
        return DistributedTransaction(home, remotes)


# ----------------------------------------------------------------------
# Stored procedures
# ----------------------------------------------------------------------

def _consume_stock(ctx, s_w_id: int, i_id: int, quantity: int) -> None:
    """Decrement one stock row (with the spec's +91 restock rule)."""
    stock = ctx.get("stock", (s_w_id, i_id))
    new_quantity = stock["s_quantity"] - quantity
    if new_quantity < 10:
        new_quantity += 91
    ctx.update("stock", (s_w_id, i_id), {
        "s_quantity": new_quantity,
        "s_ytd": stock["s_ytd"] + quantity,
        "s_order_cnt": stock["s_order_cnt"] + 1,
    })


def _new_order_header(ctx, w_id: int, d_id: int, c_id: int,
                      entry_d: int, ol_cnt: int) -> int:
    """Shared New-Order prologue: reads, order-id bump, order rows."""
    warehouse = ctx.get("warehouse", w_id)
    district = ctx.get("district", (w_id, d_id))
    customer = ctx.get("customer", (w_id, d_id, c_id))
    assert warehouse and district and customer
    o_id = district["d_next_o_id"]
    ctx.update("district", (w_id, d_id), {"d_next_o_id": o_id + 1})
    ctx.insert("orders", {
        "o_w_id": w_id, "o_d_id": d_id, "o_id": o_id, "o_c_id": c_id,
        "o_entry_d": entry_d, "o_carrier_id": 0,
        "o_ol_cnt": ol_cnt,
    })
    ctx.insert("new_order", {"no_w_id": w_id, "no_d_id": d_id,
                             "no_o_id": o_id})
    return o_id


def new_order_txn(ctx, w_id: int, d_id: int, c_id: int,
                  lines: List[Tuple[int, ...]], entry_d: int) -> int:
    """Place an order: read warehouse/district/customer, consume stock,
    insert the order, its order lines, and the new-order record.

    Single-partition variant: a line carrying a remote supply
    warehouse (a 3-tuple) is *redirected* to the home warehouse's
    stock, reproducing the paper's single-partition cheat. The caller
    (:meth:`TPCCWorkload.run`) counts these redirections."""
    o_id = _new_order_header(ctx, w_id, d_id, c_id, entry_d,
                             len(lines))
    for number, line in enumerate(lines, start=1):
        i_id, quantity = line[0], line[1]
        item = ctx.get("item", i_id)
        if item is None:
            ctx.abort("unused item number (1% rollback)")
        _consume_stock(ctx, w_id, i_id, quantity)
        ctx.insert("order_line", {
            "ol_w_id": w_id, "ol_d_id": d_id, "ol_o_id": o_id,
            "ol_number": number, "ol_i_id": i_id,
            "ol_delivery_d": 0, "ol_quantity": quantity,
            "ol_amount": quantity * item["i_price"],
            "ol_dist_info": "dist-info-" + str(d_id).rjust(13, "0"),
        })
    return o_id


def new_order_home_branch(ctx, w_id: int, d_id: int, c_id: int,
                          lines: List[Tuple[int, int, int, bool]],
                          entry_d: int) -> int:
    """Home branch of a distributed New-Order: the full order minus
    stock updates owned by other partitions. ``lines`` carry
    ``(i_id, quantity, supply_w, local)``; item rows are replicated so
    prices resolve locally either way."""
    o_id = _new_order_header(ctx, w_id, d_id, c_id, entry_d,
                             len(lines))
    for number, (i_id, quantity, supply_w, local) in \
            enumerate(lines, start=1):
        item = ctx.get("item", i_id)
        if item is None:
            ctx.abort("unused item number (1% rollback)")
        if local:
            _consume_stock(ctx, supply_w, i_id, quantity)
        ctx.insert("order_line", {
            "ol_w_id": w_id, "ol_d_id": d_id, "ol_o_id": o_id,
            "ol_number": number, "ol_i_id": i_id,
            "ol_delivery_d": 0, "ol_quantity": quantity,
            "ol_amount": quantity * item["i_price"],
            "ol_dist_info": "dist-info-" + str(d_id).rjust(13, "0"),
        })
    return o_id


def new_order_remote_branch(
        ctx, stock_updates: Tuple[Tuple[int, int, int], ...]) -> int:
    """Remote branch of a distributed New-Order: apply the stock
    updates this partition owns (``(supply_w, i_id, quantity)``)."""
    for supply_w, i_id, quantity in stock_updates:
        _consume_stock(ctx, supply_w, i_id, quantity)
    return len(stock_updates)


def _find_customer(ctx, w_id: int, d_id: int,
                   selector: Tuple[str, Any]) -> Tuple[Any, Dict]:
    """Resolve a customer by id or (spec rule) by last name, picking
    the middle match from the secondary index."""
    kind, value = selector
    if kind == "id":
        key = (w_id, d_id, value)
        customer = ctx.get("customer", key)
        if customer is None:
            raise TupleNotFoundError(f"customer {key}")
        return key, customer
    matches = ctx.get_secondary("customer", "by_name",
                                (w_id, d_id, value))
    if not matches:
        raise TupleNotFoundError(
            f"no customer named {value!r} in ({w_id}, {d_id})")
    key = matches[len(matches) // 2]
    return key, ctx.get("customer", key)


def payment_txn(ctx, w_id: int, d_id: int, selector: Tuple[str, Any],
                amount: float, history_id: int) -> None:
    """Record a customer payment against warehouse and district YTD."""
    warehouse = ctx.get("warehouse", w_id)
    ctx.update("warehouse", w_id, {"w_ytd": warehouse["w_ytd"] + amount})
    district = ctx.get("district", (w_id, d_id))
    ctx.update("district", (w_id, d_id),
               {"d_ytd": district["d_ytd"] + amount})
    key, customer = _find_customer(ctx, w_id, d_id, selector)
    ctx.update("customer", key, {
        "c_balance": customer["c_balance"] - amount,
        "c_ytd_payment": customer["c_ytd_payment"] + amount,
        "c_payment_cnt": customer["c_payment_cnt"] + 1,
    })
    ctx.insert("history", {
        "h_id": history_id, "h_c_w_id": w_id, "h_c_d_id": d_id,
        "h_c_id": key[2], "h_amount": amount,
        "h_data": "payment",
    })


def order_status_txn(ctx, w_id: int, d_id: int,
                     c_id: int) -> Optional[Dict[str, Any]]:
    """Read a customer's most recent order and its order lines."""
    customer = ctx.get("customer", (w_id, d_id, c_id))
    assert customer is not None
    order_keys = ctx.get_secondary("orders", "by_customer",
                                   (w_id, d_id, c_id))
    if not order_keys:
        return None
    last_key = max(order_keys)
    order = ctx.get("orders", last_key)
    lines = list(ctx.scan(
        "order_line",
        lo=(w_id, d_id, last_key[2], 0),
        hi=(w_id, d_id, last_key[2], _MAX_ORDER_ID)))
    return {"order": order, "lines": [values for __, values in lines]}


def delivery_txn(ctx, w_id: int, districts: int,
                 delivery_d: int) -> int:
    """Deliver the oldest undelivered order in every district."""
    delivered = 0
    for d_id in range(1, districts + 1):
        pending = list(ctx.scan(
            "new_order",
            lo=(w_id, d_id, 0), hi=(w_id, d_id, _MAX_ORDER_ID)))
        if not pending:
            continue
        no_key, __ = pending[0]
        o_id = no_key[2]
        ctx.delete("new_order", no_key)
        order = ctx.get("orders", (w_id, d_id, o_id))
        ctx.update("orders", (w_id, d_id, o_id),
                   {"o_carrier_id": 1 + (delivery_d % 10)})
        total = 0.0
        for ol_key, line in list(ctx.scan(
                "order_line", lo=(w_id, d_id, o_id, 0),
                hi=(w_id, d_id, o_id, _MAX_ORDER_ID))):
            ctx.update("order_line", ol_key,
                       {"ol_delivery_d": delivery_d})
            total += line["ol_amount"]
        customer_key = (w_id, d_id, order["o_c_id"])
        customer = ctx.get("customer", customer_key)
        ctx.update("customer", customer_key,
                   {"c_balance": customer["c_balance"] + total})
        delivered += 1
    return delivered


def stock_level_txn(ctx, w_id: int, d_id: int, threshold: int) -> int:
    """Count recently-ordered items whose stock is below threshold."""
    district = ctx.get("district", (w_id, d_id))
    next_o_id = district["d_next_o_id"]
    recent_lines = ctx.scan(
        "order_line",
        lo=(w_id, d_id, max(1, next_o_id - 20), 0),
        hi=(w_id, d_id, next_o_id, 0))
    item_ids = {line["ol_i_id"] for __, line in recent_lines}
    low = 0
    for i_id in item_ids:
        stock = ctx.get("stock", (w_id, i_id))
        if stock is not None and stock["s_quantity"] < threshold:
            low += 1
    return low
