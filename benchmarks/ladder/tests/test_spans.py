"""Span self-time arithmetic, on a clock the test controls."""

import json

import pytest

import spans
from spans import SpanRecorder, self_time_by_layer


@pytest.fixture
def clock(monkeypatch):
    """A fake nanosecond clock: ``clock.tick(n)`` advances it."""
    class Clock:
        now = 0

        def tick(self, ns: int) -> None:
            self.now += ns

    fake = Clock()
    monkeypatch.setattr(spans, "_clock", lambda: fake.now)
    return fake


def test_self_time_is_duration_minus_children(clock):
    recorder = SpanRecorder(keep_txns=10)

    def device():
        clock.tick(30)

    device = recorder.wrap("nvm.device", "NVMDevice.charge_load",
                           device)

    def cache():
        clock.tick(5)
        device()
        clock.tick(5)
        device()

    cache = recorder.wrap("nvm.cache", "CPUCache.load", cache)

    def engine():
        clock.tick(100)
        cache()
        clock.tick(20)

    engine = recorder.wrap("engines", "Engine.select", engine)

    recorder.enabled = True
    recorder.next_txn()
    engine()
    recorder.enabled = False

    assert recorder.layer_self_ns() == {
        "nvm.device": 60, "nvm.cache": 10, "engines": 120}
    assert recorder.layer_calls() == {
        "nvm.device": 2, "nvm.cache": 1, "engines": 1}
    # Self times add up to the root span: nothing is counted twice.
    assert sum(recorder.layer_self_ns().values()) == 190
    assert recorder.mean_us("nvm.device", ".charge_load") == 0.03
    assert recorder.mean_us("engines", ".select") == 0.19

    # The kept spans carry name, start, end, parent and one txn id.
    assert [(s[1], s[2], s[3]) for s in recorder.spans] == [
        (2, 1, "nvm.device"), (2, 1, "nvm.device"),
        (1, 1, "nvm.cache"), (0, 1, "engines")]


def test_offline_recomputation_matches_the_recorder(clock, tmp_path):
    recorder = SpanRecorder(keep_txns=100)

    def leaf():
        clock.tick(7)

    leaf = recorder.wrap("index", "STXBTree.get", leaf)

    def root(n):
        for __ in range(n):
            clock.tick(3)
            leaf()

    root = recorder.wrap("core.database", "Database.execute", root)
    recorder.enabled = True
    for n in (1, 2, 3):
        recorder.next_txn()
        root(n)
    recorder.enabled = False

    path = tmp_path / "spans.jsonl"
    assert recorder.write_jsonl(path) == 9
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert self_time_by_layer(records) == recorder.layer_self_ns() == {
        "index": 42, "core.database": 18}
    assert {record["txn"] for record in records} == {1, 2, 3}


def test_only_the_first_transactions_are_kept_whole(clock):
    recorder = SpanRecorder(keep_txns=2)
    work = recorder.wrap("engines", "Engine.commit",
                         lambda: clock.tick(10))
    recorder.enabled = True
    for __ in range(5):
        recorder.next_txn()
        work()
    assert len(recorder.spans) == 2
    assert recorder.layer_self_ns() == {"engines": 50}


def test_lazy_generators_are_charged_to_their_layer(clock):
    recorder = SpanRecorder()

    def scan():
        for item in range(3):
            clock.tick(10)
            yield item

    scan = recorder.wrap("engines", "Engine.scan", scan)

    def procedure():
        total = 0
        for item in scan():
            clock.tick(1)          # the caller's own work
            total += item
        return total

    procedure = recorder.wrap("core.session", "Session.execute",
                              procedure)
    recorder.enabled = True
    recorder.next_txn()
    assert procedure() == 3
    assert recorder.layer_self_ns() == {"engines": 30, "core.session": 3}


def test_exceptions_close_the_span(clock):
    recorder = SpanRecorder(keep_txns=1)

    def boom():
        clock.tick(4)
        raise KeyError("x")

    boom = recorder.wrap("index", "STXBTree.delete", boom)
    after = recorder.wrap("engines", "Engine.commit",
                          lambda: clock.tick(5))
    recorder.enabled = True
    recorder.next_txn()
    with pytest.raises(KeyError):
        boom()
    after()
    assert recorder.layer_self_ns() == {"index": 4, "engines": 5}
    # The next span is nobody's child: the failed one was popped.
    assert recorder.spans[-1][1] == 0


def test_disabled_recorder_records_nothing(clock):
    recorder = SpanRecorder()
    work = recorder.wrap("index", "STXBTree.get", lambda: clock.tick(9))
    work()
    assert recorder.layer_self_ns() == {"index": 0}


def test_install_wraps_public_methods_and_uninstall_restores():
    class Layer:
        def public(self):
            return self._private() + 1

        def _private(self):
            return 1

        @property
        def prop(self):
            return 5

        @staticmethod
        def static():
            return 6

    original = Layer.__dict__["public"]
    recorder = SpanRecorder()
    recorder.install("layer", Layer)
    assert Layer.__dict__["public"] is not original
    assert Layer.__dict__["_private"].__name__ == "_private"
    assert ("layer", "Layer.public") in recorder.totals
    assert ("layer", "Layer._private") not in recorder.totals
    assert ("layer", "Layer.static") not in recorder.totals
    recorder.enabled = True
    assert Layer().public() == 2 and Layer().prop == 5
    assert recorder.layer_calls() == {"layer": 1}
    recorder.uninstall()
    assert Layer.__dict__["public"] is original
