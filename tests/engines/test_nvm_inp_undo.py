"""NVM-InP undo of an update whose crash came before the in-place write.

The WAL entry is linked (``nvm_wal.append.after_link``) before the
field's pointer is overwritten, so a crash there leaves the tuple still
pointing at the committed value the entry records as "before". Undo
restores that pointer and must not free the value it restores."""

import pytest

from repro.errors import SimulatedCrash
from repro.fault import FaultPlan
from repro.fault.campaign import CampaignSpec

from .conftest import make_database, sample_row

POINT = "nvm_wal.append.after_link"


def test_undo_keeps_the_value_it_restores():
    db = make_database("nvm-inp", group_commit_size=1)
    db.insert("items", sample_row(1))
    db.arm_faults(FaultPlan([(POINT, 1)]))
    with pytest.raises(SimulatedCrash):
        db.update("items", 1, {"payload": "changed-" + "y" * 60})
    db.disarm_faults()
    db.recover()
    assert db.get("items", 1) == sample_row(1)
    db.update("items", 1, {"payload": "after-" + "z" * 60})
    assert db.get("items", 1)["payload"] == "after-" + "z" * 60


def test_every_after_link_crash_recovers():
    """Every hit of the point on the seed-7 campaign script, not just
    the first, middle and last ones the planner samples."""
    hits = CampaignSpec("nvm-inp").execute().hits[POINT]
    assert hits > 3
    failed = {}
    for hit in range(1, hits + 1):
        result = CampaignSpec("nvm-inp", triggers=((POINT, hit),)).execute()
        if not result.ok:
            failed[hit] = result.violations
    assert failed == {}
