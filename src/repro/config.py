"""Configuration objects for the emulated NVM platform and the engines.

The defaults mirror the hardware emulator used in the paper (Section 2.2
and Section 5): a 160 ns DRAM-latency baseline, low (2x) and high (8x)
NVM latency profiles, NVM write bandwidth throttled to 9.5 GB/s, 64-byte
cache lines, a 512 B STX B+tree node and a 4 KB copy-on-write B+tree node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

CACHE_LINE_SIZE = 64

#: Baseline DRAM access latency on the emulator platform (nanoseconds).
DRAM_LATENCY_NS = 160

#: Throttled sustainable NVM write bandwidth on the emulator (bytes/ns).
#: 9.5 GB/s == 9.5 bytes per nanosecond.
NVM_WRITE_BANDWIDTH_BYTES_PER_NS = 9.5

#: Unthrottled DRAM bandwidth for comparison (8x the NVM setting).
DRAM_BANDWIDTH_BYTES_PER_NS = 76.0


@dataclass(frozen=True)
class LatencyProfile:
    """Latency configuration of the emulated NVM device.

    The paper evaluates three profiles (Section 5.2): the default DRAM
    latency (160 ns), a low NVM latency at 2x DRAM (320 ns), and a high
    NVM latency at 8x DRAM (1280 ns).
    """

    name: str
    read_latency_ns: float
    write_latency_ns: float
    bandwidth_bytes_per_ns: float = NVM_WRITE_BANDWIDTH_BYTES_PER_NS

    def __post_init__(self) -> None:
        if self.read_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise ConfigError("latencies must be positive")
        if self.bandwidth_bytes_per_ns <= 0:
            raise ConfigError("bandwidth must be positive")

    @classmethod
    def dram(cls) -> "LatencyProfile":
        """Default DRAM-latency configuration (160 ns)."""
        return cls("dram", DRAM_LATENCY_NS, DRAM_LATENCY_NS)

    @classmethod
    def low_nvm(cls) -> "LatencyProfile":
        """Low NVM latency configuration, 2x DRAM (320 ns)."""
        return cls("low-nvm", 2 * DRAM_LATENCY_NS, 2 * DRAM_LATENCY_NS)

    @classmethod
    def high_nvm(cls) -> "LatencyProfile":
        """High NVM latency configuration, 8x DRAM (1280 ns)."""
        return cls("high-nvm", 8 * DRAM_LATENCY_NS, 8 * DRAM_LATENCY_NS)

    @classmethod
    def parse(cls, name: str) -> "LatencyProfile":
        """The single string→profile point: map a profile name (or its
        short alias ``"low"``/``"high"``) to a :class:`LatencyProfile`.
        An existing profile instance passes through unchanged."""
        if isinstance(name, cls):
            return name
        profiles = {
            "dram": cls.dram,
            "low": cls.low_nvm,
            "low-nvm": cls.low_nvm,
            "high": cls.high_nvm,
            "high-nvm": cls.high_nvm,
        }
        try:
            return profiles[name]()
        except KeyError:
            raise ConfigError(f"unknown latency profile {name!r}; "
                              f"expected one of {sorted(profiles)}") from None

    @classmethod
    def by_name(cls, name: str) -> "LatencyProfile":
        """Deprecated spelling of :meth:`parse` (kept for callers of the
        pre-scheduler API)."""
        return cls.parse(name)

    def scaled(self, factor: float) -> "LatencyProfile":
        """Return a copy with read/write latency scaled by ``factor``."""
        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            read_latency_ns=self.read_latency_ns * factor,
            write_latency_ns=self.write_latency_ns * factor,
        )


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of the write-back CPU cache fronting the NVM.

    ``capacity_bytes`` defaults to a scaled-down last-level cache (the
    emulator platform has a 20 MB L3; the simulator uses a smaller cache
    so that scaled-down workloads exhibit the same hit/miss structure).
    ``sync_extra_latency_ns`` models the latency of the durable sync
    primitive and is swept in the Fig. 16 experiment (PCOMMIT/CLWB
    what-if analysis).
    """

    capacity_bytes: int = 2 * 1024 * 1024
    line_size: int = CACHE_LINE_SIZE
    hit_latency_ns: float = 4.0
    fence_latency_ns: float = 20.0
    flush_latency_ns: float = 40.0
    sync_extra_latency_ns: float = 0.0
    #: Use CLWB instead of CLFLUSH in the durable sync primitive
    #: (Appendix C): the written-back line stays cached in exclusive
    #: state, avoiding re-read misses on subsequent accesses. Off by
    #: default — CLFLUSH+SFENCE is the paper's baseline primitive.
    use_clwb: bool = False
    #: Latency discount for the 2nd..Nth consecutive misses of one
    #: sequential access (hardware prefetching / memory-level
    #: parallelism, which the emulator preserves — Section 2.2).
    prefetch_discount: float = 0.25
    #: Probability that a dirty, unflushed cache line happened to be
    #: evicted to NVM before a crash (the memory controller "can evict
    #: cache lines at any time", Section 4.1).
    crash_eviction_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.capacity_bytes < self.line_size:
            raise ConfigError("cache must hold at least one line")
        if not 0.0 <= self.crash_eviction_probability <= 1.0:
            raise ConfigError("crash_eviction_probability must be in [0, 1]")
        # The cache model batches its charges past SimClock.advance
        # (which would reject a negative one), so a negative latency
        # here would run the simulated clock backwards.
        for name in ("hit_latency_ns", "fence_latency_ns",
                     "flush_latency_ns", "sync_extra_latency_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.prefetch_discount <= 1.0:
            raise ConfigError("prefetch_discount must be in [0, 1]")

    @property
    def capacity_lines(self) -> int:
        return self.capacity_bytes // self.line_size


@dataclass(frozen=True)
class FilesystemConfig:
    """Cost model of the PMFS-like filesystem interface (Section 2.2).

    File I/O goes through the kernel's VFS layer: each call pays a
    syscall crossing, and data is copied once between the user buffer
    and the file (the emulator's optimized filesystem needs one copy;
    a block-oriented filesystem would need two).
    """

    syscall_latency_ns: float = 1400.0
    copy_ns_per_byte: float = 0.25
    #: Extra copies per write: 1 models PMFS, 2 models a block filesystem.
    copies_per_write: int = 1

    def __post_init__(self) -> None:
        if self.copies_per_write < 1:
            raise ConfigError("copies_per_write must be >= 1")


@dataclass(frozen=True)
class PlatformConfig:
    """Full configuration of the emulated platform."""

    latency: LatencyProfile = field(default_factory=LatencyProfile.dram)
    cache: CacheConfig = field(default_factory=CacheConfig)
    filesystem: FilesystemConfig = field(default_factory=FilesystemConfig)
    nvm_capacity_bytes: int = 256 * 1024 * 1024
    #: Capacity of the optional volatile DRAM tier (Appendix D hybrid
    #: hierarchy). 0 disables it — the paper's NVM-only configuration.
    dram_capacity_bytes: int = 0
    #: Track a per-4KB-segment store histogram on the device (wear
    #: leveling analysis; small host-time overhead).
    track_wear: bool = False
    seed: int = 0x5EED

    def with_latency(self, latency: LatencyProfile) -> "PlatformConfig":
        return replace(self, latency=latency)

    @classmethod
    def for_engine(cls, engine: str, **fields) -> "PlatformConfig":
        """The platform ``engine`` runs on when the caller sizes no
        DRAM tier itself: the Appendix D hybrid engines refuse to run
        without one and get 32 MiB; every other engine is NVM-only."""
        if engine.startswith("hybrid"):
            fields.setdefault("dram_capacity_bytes", 32 * 1024 * 1024)
        return cls(**fields)


@dataclass(frozen=True)
class EngineConfig:
    """Tunables shared by the storage engines.

    Defaults follow Section 5: 512 B STX B+tree nodes, 4 KB CoW B+tree
    nodes, group commit batching, gzip-compressed checkpoints for the
    InP engine, and LevelDB-style LSM parameters for the Log engines.
    """

    btree_node_size: int = 512
    cow_btree_node_size: int = 4096
    #: Node size of the NVM-CoW engine's non-volatile directory. None
    #: means "same as cow_btree_node_size". Scaled-down experiments set
    #: this smaller so the directory keeps the paper's leaf count (a
    #: 2 M-tuple database has ~8 k pointer leaves at 4 KB; a 2 k-tuple
    #: one would have 8, collapsing path-copy sharing).
    nvm_cow_node_size: int = 0
    group_commit_size: int = 8
    #: Size of the CoW engine's internal page cache (Section 3.2):
    #: directory pages beyond this are re-read from the filesystem.
    page_cache_bytes: int = 128 * 1024
    checkpoint_interval_txns: int = 2000
    checkpoint_compression_ratio: float = 0.5
    memtable_threshold_bytes: int = 64 * 1024
    lsm_growth_factor: int = 4
    lsm_max_runs_per_level: int = 4
    bloom_bits_per_key: int = 10
    bloom_hashes: int = 3
    #: CPU cost of executing one primitive operation (query executor,
    #: predicate evaluation, tuple (de)serialization) and one
    #: transaction's begin/commit bookkeeping. These compute-bound
    #: components are what make throughput degrade *sub-linearly* with
    #: NVM latency (Section 5.2).
    op_cpu_ns: float = 300.0
    txn_cpu_ns: float = 200.0

    def __post_init__(self) -> None:
        if self.btree_node_size < 64:
            raise ConfigError("btree_node_size must be >= 64 bytes")
        if self.cow_btree_node_size < 256:
            raise ConfigError("cow_btree_node_size must be >= 256 bytes")
        if self.group_commit_size < 1:
            raise ConfigError("group_commit_size must be >= 1")
        if self.lsm_growth_factor < 2:
            raise ConfigError("lsm_growth_factor must be >= 2")
