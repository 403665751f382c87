"""ACD001-ACD004 fixtures: one violating and one clean path each."""

from __future__ import annotations

import textwrap

from repro.analysis.static import analyze_project
from repro.analysis.static.callgraph import Project
from repro.lint.framework import SourceFile


def project_of(*sources: str) -> Project:
    return Project([SourceFile(f"mod{i}.py", textwrap.dedent(src))
                    for i, src in enumerate(sources)])


def findings(*sources: str, select=None):
    return analyze_project(project_of(*sources), select=select)


def codes(*sources: str, select=None):
    return [violation.code
            for violation in findings(*sources, select=select)]


class TestACD001BlockingCall:
    def test_time_sleep_in_coroutine_fires(self):
        assert codes("""
            import time

            async def worker():
                time.sleep(1)
            """, select=["ACD001"]) == ["ACD001"]

    def test_os_fsync_in_coroutine_fires(self):
        assert codes("""
            import os

            async def flush(fd):
                os.fsync(fd)
            """, select=["ACD001"]) == ["ACD001"]

    def test_sync_function_is_exempt(self):
        assert codes("""
            import time

            def worker():
                time.sleep(1)
            """, select=["ACD001"]) == []

    def test_asyncio_sleep_is_clean(self):
        assert codes("""
            import asyncio

            async def worker():
                await asyncio.sleep(1)
            """, select=["ACD001"]) == []


class TestACD002AcquireWithoutRelease:
    def test_bare_acquire_fires(self):
        assert codes("""
            async def leak(lock):
                await lock.acquire()
                work()
            """, select=["ACD002"]) == ["ACD002"]

    def test_leak_only_on_exception_path_fires(self):
        # The happy path releases; the exception edge out of work()
        # still escapes with the lock held.
        violations = findings("""
            async def fragile(lock):
                await lock.acquire()
                work()
                lock.release()
            """, select=["ACD002"])
        assert [v.code for v in violations] == ["ACD002"]
        assert "exception exit" in violations[0].message

    def test_try_finally_is_clean(self):
        assert codes("""
            async def safe(lock):
                await lock.acquire()
                try:
                    work()
                finally:
                    lock.release()
            """, select=["ACD002"]) == []

    def test_async_with_is_clean(self):
        assert codes("""
            async def safe(lock):
                async with lock:
                    work()
            """, select=["ACD002"]) == []

    def test_release_via_helper_method_is_clean(self):
        # server.py's pattern: _admit acquires, every verb path ends
        # in a helper that releases — the transitive may-release
        # summary must see through the self-call.
        assert codes("""
            class Session:
                async def admit(self):
                    await self._lock.acquire()
                    try:
                        work()
                    finally:
                        self._cleanup()

                def _cleanup(self):
                    self._lock.release()
            """, select=["ACD002"]) == []

    def test_subscripted_receiver_matches_by_base(self):
        assert codes("""
            class Server:
                async def admit(self, pid):
                    await self._locks[pid].acquire()
                    try:
                        work()
                    finally:
                        self._locks[pid].release()
            """, select=["ACD002"]) == []


LOCK_PREAMBLE = textwrap.dedent("""
    import asyncio

    guard = asyncio.Lock()
    slots = asyncio.Semaphore(4)
    """)


def locked(body: str) -> str:
    return LOCK_PREAMBLE + textwrap.dedent(body)


class TestACD003UnboundedAwaitHoldingLock:
    def test_socket_read_under_lock_fires(self):
        assert codes(locked("""
            async def relay(reader):
                async with guard:
                    data = await reader.read(65536)
            """), select=["ACD003"]) == ["ACD003"]

    def test_semaphore_is_exempt(self):
        # Holding an admission slot across durability awaits is the
        # server's intended backpressure design.
        assert codes(locked("""
            async def admit(reader):
                async with slots:
                    data = await reader.read(65536)
            """), select=["ACD003"]) == []

    def test_wait_for_is_bounded(self):
        assert codes(locked("""
            async def relay(reader):
                async with guard:
                    data = await asyncio.wait_for(reader.read(1), 5.0)
            """), select=["ACD003"]) == []

    def test_read_after_lock_region_is_clean(self):
        assert codes(locked("""
            async def relay(reader):
                async with guard:
                    bump()
                data = await reader.read(65536)
            """), select=["ACD003"]) == []

    def test_bare_future_await_under_lock_fires(self):
        assert codes(locked("""
            async def relay(fut):
                async with guard:
                    await fut
            """), select=["ACD003"]) == ["ACD003"]


class TestACD004StaleReadModifyWrite:
    def test_stale_carry_across_await_fires(self):
        assert codes("""
            import asyncio

            class Counter:
                async def bump(self):
                    count = self.count
                    await asyncio.sleep(0)
                    self.count = count + 1
            """, select=["ACD004"]) == ["ACD004"]

    def test_reread_after_await_is_clean(self):
        assert codes("""
            import asyncio

            class Counter:
                async def bump(self):
                    count = self.count
                    await asyncio.sleep(0)
                    count = self.count
                    self.count = count + 1
            """, select=["ACD004"]) == []

    def test_no_await_is_clean(self):
        assert codes("""
            class Counter:
                async def bump(self):
                    count = self.count
                    self.count = count + 1
            """, select=["ACD004"]) == []

    def test_write_to_different_attr_is_clean(self):
        assert codes("""
            import asyncio

            class Counter:
                async def bump(self):
                    count = self.count
                    await asyncio.sleep(0)
                    self.high_water = count + 1
            """, select=["ACD004"]) == []


class TestWaivers:
    def test_noqa_waives_acd002(self):
        assert codes("""
            async def handoff(lock):
                await lock.acquire()  # noqa: ACD002
                work()
            """, select=["ACD002"]) == []
