"""``tpcc-inproc``: the same engine, index and cache layers used
differently — inserts, deletes, range scans, secondary indexes — on
the traditional ``inp`` engine, the only workload where
``nvm.filesystem``, the WAL and checkpoints carry the commit path and
where ``recover_ms`` is checkpoint load plus WAL replay instead of
``nvm-inp``'s constant few milliseconds: the paper's recovery contrast.

2 warehouses x 10 districts x 30 customers, 500 items, 20 initial
orders per district (half the issue's sizing: three set-ups of the
larger one alone took 8 s of a 37 s run), 512 KiB simulated cache,
issued through ``TPCCWorkload.execute_one``. Read class =
``stock_level`` (range scans), write class = ``new_order``.

Every segment carries the same number of each transaction type (the
standard 45/43/4/4/4 mix, rounded): the types differ 100x in cost, so
leaving the mix to the RNG would put a ±6% binomial wobble on a
280-transaction segment's rate. The seeded generator still decides
every argument and the order inside the segment.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import Outcome, RefTimer, Segment
from inproc import InprocWorkload

CACHE_BYTES = 512 * 1024
#: The standard mix; payment absorbs the rounding.
MIX = {"new_order": 0.45, "order_status": 0.04, "delivery": 0.04,
       "stock_level": 0.04}
_CLASS = {"stock_level": "read", "new_order": "write"}


SIZING = dict(warehouses=2, districts_per_warehouse=10,
              customers_per_district=30, items=500,
              initial_orders_per_district=20)


def tpcc_config(seed: int):
    from repro.workloads.tpcc import TPCCConfig
    return TPCCConfig(seed=seed, **SIZING)


class State:
    def __init__(self, db, workload, config, rows: int,
                 seed: int) -> None:
        self.db = db
        self.workload = workload
        self.config = config
        self.rows = rows
        self.generator = workload.transactions(10 ** 9)
        self.backlog: Dict[str, List[Tuple]] = {
            name: [] for name in (*MIX, "payment")}
        self.shuffle = random.Random(seed)
        #: (w_id, d_id) -> acknowledged new orders
        self.new_orders: Dict[Tuple[int, int], int] = {}
        #: w_id -> acknowledged payment amounts, in commit order
        self.payments: Dict[int, float] = {}


class TPCCInproc(InprocWorkload):
    name = "tpcc-inproc"
    segment_txns = 280
    recover_txns = 100

    def build(self, seed: int) -> State:
        from repro import Database
        from repro.config import CacheConfig, PlatformConfig
        from repro.workloads.tpcc import TPCCWorkload

        config = tpcc_config(seed)
        workload = TPCCWorkload(config)
        db = Database("inp", seed=seed, platform_config=PlatformConfig(
            cache=CacheConfig(capacity_bytes=CACHE_BYTES), seed=seed))
        rows = sum(workload.load(db).values())
        db.checkpoint()
        db.settle()
        return State(db, workload, config, rows, seed)

    def database(self, state: State):
        return state.db

    def tuples(self, state: State) -> int:
        return state.rows

    def stream(self, state: State, count: int) -> List[Tuple]:
        """``count`` transactions with a fixed number of each type,
        drawn in generator order per type, shuffled by the seed."""
        quotas = {name: round(share * count)
                  for name, share in MIX.items()}
        quotas["payment"] = count - sum(quotas.values())
        chosen: List[Tuple] = []
        for name, quota in quotas.items():
            backlog = state.backlog[name]
            while len(backlog) < quota:
                txn = next(state.generator)
                state.backlog[txn[0]].append(txn)
            chosen.extend(backlog[:quota])
            del backlog[:quota]
        state.shuffle.shuffle(chosen)
        return chosen

    def run_segment(self, state: State, txns: Sequence[Tuple],
                    outcome: Outcome, ref: Optional[RefTimer],
                    tick=None) -> Segment:
        execute_one = state.workload.execute_one
        db = state.db
        clock = time.perf_counter
        latency: Dict[str, List[float]] = {
            "read": [], "write": [], "other": []}
        refs: List[float] = []
        cpu_start = time.process_time()
        wall_start = clock()
        for txn in txns:
            if tick is not None:
                tick()
            start = clock()
            name = execute_one(db, txn)
            end = clock()
            latency[_CLASS.get(name, "other")].append(end - start)
            args = txn[2]
            if name == "new_order":
                district = (args[0], args[1])
                state.new_orders[district] = \
                    state.new_orders.get(district, 0) + 1
            elif name == "payment":
                state.payments[args[0]] = \
                    state.payments.get(args[0], 0.0) + args[3]
            if ref is not None:
                # After every transaction: with one per eight, 35
                # samples of a bimodal host left the segment's mean
                # reference cost 4% uncertain.
                ref.sample(refs)
        wall = clock() - wall_start
        return Segment(committed=len(txns), wall_s=wall,
                       cpu_s=time.process_time() - cpu_start,
                       latency=latency, ref=refs)

    def verify(self, state: State, outcome: Outcome) -> None:
        """The TPC-C consistency audit, plus the two totals that only
        hold if no acknowledged transaction was lost: every district's
        order counter and every warehouse's year-to-date payments."""
        from repro.workloads.tpcc_audit import audit_tpcc
        for violation in audit_tpcc(state.db, state.config):
            outcome.fail(violation)
        first_order = state.config.initial_orders_per_district + 1
        for (w_id, d_id), count in state.new_orders.items():
            district = state.db.get("district", (w_id, d_id))
            if district["d_next_o_id"] != first_order + count:
                outcome.fail(
                    f"district ({w_id},{d_id}): d_next_o_id="
                    f"{district['d_next_o_id']}, acknowledged "
                    f"{count} new orders")
        for w_id, paid in state.payments.items():
            ytd = state.db.get("warehouse", w_id)["w_ytd"]
            if abs(ytd - paid) > 1e-6 * max(1.0, paid):
                outcome.fail(f"warehouse {w_id}: w_ytd={ytd:.2f}, "
                             f"acknowledged payments {paid:.2f}")

    def unrecorded_write(self, state: State) -> None:
        payment = next(txn for txn in state.workload.transactions(10 ** 9)
                       if txn[0] == "payment")
        state.workload.execute_one(state.db, payment)
