"""Allocator equivalence across every crash coordinate.

For each engine that frees tuple storage through a release path
(``inp`` and its two heirs, ``nvm-cow``, ``nvm-mvcc``), crash the seed-7
campaign script at a ``(point, hit)`` coordinate, recover, and record
the allocator's state after the final recovery: live allocations and
live bytes by tag. ``allocator_sweep_seed7.json`` holds that state at
*every* hit of every point, recorded before the tuple mirrors were
removed. A release path that frees one pointer more or less than it
used to shows up here as the first coordinate that differs.

Tier-1 checks the first, middle and last hit of each point. The full
sweep (about 20 s) runs as a module::

    python -m tests.fault.test_allocator_sweep           # compare
    python -m tests.fault.test_allocator_sweep --write   # re-record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.fault.campaign import CampaignSpec

FIXTURE = Path(__file__).with_name("allocator_sweep_seed7.json")
ENGINES = ("inp", "hybrid-inp", "nvm-inp", "nvm-cow", "nvm-mvcc")


class _Recorder(CampaignSpec):
    """A campaign run that notes the allocator's state after the final
    recovery (the sentinel probe comes right after it)."""

    def _probe(self, db, result, profiler):
        allocator = db.partitions[0].engine.allocator
        result.allocator_state = [allocator.live_allocations,
                                  allocator.bytes_by_tag()]
        super()._probe(db, result, profiler)


def allocator_state(engine, point, hit):
    result = _Recorder(engine, triggers=((point, hit),)).execute()
    assert result.ok, (engine, point, hit, result.violations)
    return result.allocator_state


def hit_counts(engine):
    return CampaignSpec(engine).execute().hits


def _load():
    return json.loads(FIXTURE.read_text())


def _sampled():
    fixture = _load()
    for engine in ENGINES:
        for point, states in sorted(fixture.get(engine, {}).items()):
            last = len(states)
            for hit in sorted({1, (1 + last) // 2, last}):
                yield engine, point, hit


@pytest.mark.parametrize("engine", ENGINES)
def test_fixture_covers_every_hit(engine):
    recorded = {point: len(states)
                for point, states in _load()[engine].items()}
    assert recorded == hit_counts(engine)


@pytest.mark.parametrize("engine, point, hit", list(_sampled()))
def test_allocator_state_matches_fixture(engine, point, hit):
    expected = _load()[engine][point][hit - 1]
    assert allocator_state(engine, point, hit) == expected


def _coordinates(sweep):
    return [(engine, point, hit, state) for engine in ENGINES
            for point, states in sorted(sweep[engine].items())
            for hit, state in enumerate(states, start=1)]


def main(argv):
    """Run every hit of every point; ``--write`` records the fixture,
    otherwise name the first coordinate that differs from it."""
    sweep = {engine: {point: [allocator_state(engine, point, hit)
                              for hit in range(1, hits + 1)]
                      for point, hits in sorted(hit_counts(engine).items())}
             for engine in ENGINES}
    if "--write" in argv:
        FIXTURE.write_text(json.dumps(sweep, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    actual, expected = _coordinates(sweep), _coordinates(_load())
    for got, want in zip(actual, expected):
        if got != want:
            print(f"first divergence: {got} (fixture: {want})")
            return 1
    if len(actual) != len(expected):
        print(f"{len(actual)} coordinates, fixture has {len(expected)}")
        return 1
    print(f"{len(actual)} coordinates match the fixture")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
