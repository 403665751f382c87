"""PMFS-like NVM-backed filesystem interface (Section 2.2).

The emulator exposes an NVM-backed volume through a filesystem that is
optimized for persistent memory: file I/O needs only **one** copy
between the file and the user buffer (a block filesystem would need
two), but every call still crosses the kernel's VFS layer. This is why
the allocator interface delivers ~10-12x higher durable write bandwidth
for small chunks (Fig. 1) — the filesystem pays a syscall plus a buffer
copy per call, while a userspace store pays neither.

Cost model per call::

    write(n)  = syscall + copies_per_write * n * copy_cost + bulk store
    read(n)   = syscall + n * copy_cost + bulk load
    fsync()   = syscall + flush of bytes written since the last fsync
                + fence

Crash model: writes that were not yet covered by an ``fsync`` are rolled
back (the engines in this testbed never rely on un-synced file data, so
the conservative model is exact for them).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import FilesystemConfig
from ..errors import FileExistsInNVMError, FileNotFoundInNVMError
from ..sim.clock import SimClock
from ..sim.stats import StatsCollector
from .device import NVMDevice


class NVMFile:
    """A file on the NVM filesystem."""

    __slots__ = ("name", "data", "_pending", "_durable_length",
                 "pending_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.data = bytearray()
        #: (offset, old_bytes) undo records for writes since last fsync.
        self._pending: List[Tuple[int, bytes]] = []
        self._durable_length = 0
        #: Bytes written since the last fsync (what fsync must flush).
        self.pending_bytes = 0

    @property
    def size(self) -> int:
        return len(self.data)

    def _record_write(self, offset: int, old_length: int,
                      written_length: int) -> None:
        old = bytes(self.data[offset:offset + old_length])
        self._pending.append((offset, old))
        self.pending_bytes += written_length

    def _mark_durable(self) -> None:
        self._pending.clear()
        self._durable_length = len(self.data)
        self.pending_bytes = 0

    def _rollback_pending(self) -> None:
        for offset, old in reversed(self._pending):
            end = offset + len(old)
            if offset <= len(self.data):
                self.data[offset:end] = old
        del self.data[self._durable_length:]
        self._pending.clear()
        self.pending_bytes = 0


class NVMFilesystem:
    """Filesystem interface over the emulated NVM."""

    def __init__(self, config: FilesystemConfig, device: NVMDevice,
                 clock: SimClock, stats: StatsCollector) -> None:
        self.config = config
        self._device = device
        self._clock = clock
        self._stats = stats
        self._files: Dict[str, NVMFile] = {}

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def _charge_syscall(self) -> None:
        self._stats.bump("fs.syscalls")
        self._clock.advance(self.config.syscall_latency_ns)

    def _charge_copy(self, nbytes: int, copies: int = 1) -> None:
        self._clock.advance(copies * nbytes * self.config.copy_ns_per_byte)

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def create(self, name: str, exist_ok: bool = False) -> NVMFile:
        """Create an empty file."""
        self._charge_syscall()
        if name in self._files:
            if exist_ok:
                return self._files[name]
            raise FileExistsInNVMError(name)
        file = NVMFile(name)
        self._files[name] = file
        return file

    def open(self, name: str, create: bool = False) -> NVMFile:
        """Open an existing file (optionally creating it)."""
        self._charge_syscall()
        file = self._files.get(name)
        if file is None:
            if not create:
                raise FileNotFoundInNVMError(name)
            file = NVMFile(name)
            self._files[name] = file
        return file

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._charge_syscall()
        if name not in self._files:
            raise FileNotFoundInNVMError(name)
        del self._files[name]

    def list_files(self, prefix: str = "") -> List[str]:
        return sorted(name for name in self._files
                      if name.startswith(prefix))

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write(self, file: NVMFile, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` (extends the file if needed)."""
        self._charge_syscall()
        self._charge_copy(len(data), self.config.copies_per_write)
        if offset > len(file.data):
            file.data.extend(b"\x00" * (offset - len(file.data)))
        overwritten = min(len(data), len(file.data) - offset)
        file._record_write(offset, overwritten, len(data))
        end = offset + len(data)
        file.data[offset:end] = data
        self._stats.bump("fs.writes")
        self._stats.bump("fs.bytes_written", len(data))

    def append(self, file: NVMFile, data: bytes) -> int:
        """Append ``data``; returns the offset it was written at."""
        offset = len(file.data)
        self.write(file, offset, data)
        return offset

    def read(self, file: NVMFile, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes at ``offset``."""
        self._charge_syscall()
        data = bytes(file.data[offset:offset + size])
        self._charge_copy(len(data))
        if data:
            self._device.charge_bulk_load(len(data))
        self._stats.bump("fs.reads")
        self._stats.bump("fs.bytes_read", len(data))
        return data

    def read_all(self, file: NVMFile) -> bytes:
        return self.read(file, 0, len(file.data))

    def fsync(self, file: NVMFile) -> None:
        """Make all pending writes to ``file`` durable."""
        self._charge_syscall()
        pending = file.pending_bytes
        if pending:
            # The kernel flushes the dirtied lines to NVM and fences.
            self._device.charge_bulk_store(pending)
        self._clock.advance(self._fence_ns())
        file._mark_durable()
        self._stats.bump("fs.fsyncs")

    def _fence_ns(self) -> float:
        return 20.0

    def truncate(self, file: NVMFile, length: int = 0) -> None:
        """Truncate the file to ``length`` bytes, durably."""
        self._charge_syscall()
        del file.data[length:]
        file._mark_durable()
        self._stats.bump("fs.truncates")

    # ------------------------------------------------------------------
    # Failure model & accounting
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Roll every file back to its last fsync'd state."""
        for file in self._files.values():
            file._rollback_pending()

    def total_bytes(self, prefix: str = "") -> int:
        """Total file bytes, optionally restricted to a name prefix."""
        return sum(file.size for name, file in self._files.items()
                   if name.startswith(prefix))

    def bytes_by_prefix(self, prefixes: Dict[str, str]) -> Dict[str, int]:
        """Aggregate file sizes into categories.

        ``prefixes`` maps category name -> file-name prefix; files not
        matching any prefix are reported under ``"other"``.
        """
        totals = {category: 0 for category in prefixes}
        totals.setdefault("other", 0)
        for name, file in self._files.items():
            for category, prefix in prefixes.items():
                if name.startswith(prefix):
                    totals[category] += file.size
                    break
            else:
                totals["other"] += file.size
        return totals
