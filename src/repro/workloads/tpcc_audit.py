"""TPC-C consistency audit.

Adaptations of the TPC-C specification's consistency conditions,
usable as invariant checks after any run (including across crash and
recovery):

* **C1** — for each warehouse, ``W_YTD`` equals the sum of its
  districts' ``D_YTD`` (payments update both in one transaction).
* **C2** — for each district, ``d_next_o_id - 1`` equals the maximum
  order id among its orders (and no order exceeds it).
* **C3** — every NEW-ORDER row references an existing order, and its
  order id does not exceed the district's ``d_next_o_id - 1``.
* **C4** — for each order, ``o_ol_cnt`` equals the number of its
  order-line rows.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.database import Database
from .tpcc import TPCCConfig, TPCCWorkload

_MAX = 10 ** 9


def audit_tpcc(db: Database, config: TPCCConfig,
               partitions: int = 1) -> List[str]:
    """Run all consistency conditions; returns violation descriptions
    (empty list == consistent)."""
    workload = TPCCWorkload(config, partitions=partitions)
    violations: List[str] = []
    for w_id in range(1, config.warehouses + 1):
        pid = workload.partition_of(w_id)
        violations.extend(_audit_warehouse(db, config, w_id, pid))
    return violations


def _audit_warehouse(db: Database, config: TPCCConfig, w_id: int,
                     pid: int) -> List[str]:
    violations: List[str] = []
    warehouse = db.get("warehouse", w_id, partition=pid)
    if warehouse is None:
        return [f"warehouse {w_id} missing"]

    district_ytd_total = 0.0
    for d_id in range(1, config.districts_per_warehouse + 1):
        district = db.get("district", (w_id, d_id), partition=pid)
        if district is None:
            violations.append(f"district ({w_id},{d_id}) missing")
            continue
        district_ytd_total += district["d_ytd"]
        violations.extend(_audit_district(db, w_id, d_id, district, pid))

    if abs(warehouse["w_ytd"] - district_ytd_total) > 1e-6:
        violations.append(
            f"C1: warehouse {w_id} w_ytd={warehouse['w_ytd']:.2f} != "
            f"sum(d_ytd)={district_ytd_total:.2f}")
    return violations


def _audit_district(db: Database, w_id: int, d_id: int,
                    district: Dict[str, Any], pid: int) -> List[str]:
    violations: List[str] = []
    next_o_id = district["d_next_o_id"]

    def scan(table, width=3):
        lo = (w_id, d_id, 0) if width == 3 else (w_id, d_id, 0, 0)
        hi = (w_id, d_id, _MAX) if width == 3 \
            else (w_id, d_id, _MAX, 0)
        return db.partitions[pid].scan(table, lo, hi)

    orders = scan("orders")
    order_ids = {key[2] for key, __ in orders}
    if orders:
        max_o_id = max(order_ids)
        if max_o_id != next_o_id - 1:
            violations.append(
                f"C2: district ({w_id},{d_id}) next_o_id={next_o_id} "
                f"but max order id is {max_o_id}")

    for key, __ in scan("new_order"):
        o_id = key[2]
        if o_id not in order_ids:
            violations.append(
                f"C3: new_order ({w_id},{d_id},{o_id}) has no order")
        if o_id > next_o_id - 1:
            violations.append(
                f"C3: new_order ({w_id},{d_id},{o_id}) beyond "
                f"next_o_id={next_o_id}")

    lines_per_order: Dict[int, int] = {}
    for key, __ in scan("order_line", width=4):
        lines_per_order[key[2]] = lines_per_order.get(key[2], 0) + 1
    for key, values in orders:
        o_id = key[2]
        expected = values["o_ol_cnt"]
        actual = lines_per_order.get(o_id, 0)
        if expected != actual:
            violations.append(
                f"C4: order ({w_id},{d_id},{o_id}) o_ol_cnt="
                f"{expected} but {actual} order lines")
    return violations
