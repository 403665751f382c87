"""Where the layer boundaries are: which public callables of the
program the traced run wraps, and under which layer name.

Layer = module name. Helpers that are not listed (``NVMMemory``, the
WAL and checkpoint classes, the LSM parts, tuple codecs) count toward
the layer that calls them. Engine classes are found by walking
``StorageEngine``'s subclasses, so an engine added later is traced
without touching this file.
"""

from __future__ import annotations

from typing import List

from spans import SpanRecorder

#: The ten in-process layers, bottom first — the order the ladder is
#: printed in.
INPROC_LAYERS = ("nvm.device", "nvm.cache", "nvm.allocator",
                 "nvm.filesystem", "index", "engines", "core.executor",
                 "core.partition", "core.session", "core.database")


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install_inprocess(recorder: SpanRecorder) -> None:
    """Wrap the public methods of every in-process layer."""
    import repro.engines                          # registers engines
    from repro.core.database import Database
    from repro.core.executor import TransactionContext
    from repro.core.partition import Partition
    from repro.core.session import Session
    from repro.engines.base import StorageEngine
    from repro.index.bloom import BloomFilter
    from repro.index.cost import NVMIndexCostModel
    from repro.index.cow_btree import CoWBTree
    from repro.index.stx_btree import STXBTree
    from repro.nvm.allocator import NVMAllocator
    from repro.nvm.cache import CPUCache
    from repro.nvm.device import NVMDevice
    from repro.nvm.filesystem import NVMFilesystem

    recorder.install("nvm.device", NVMDevice)
    recorder.install("nvm.cache", CPUCache)
    recorder.install("nvm.allocator", NVMAllocator)
    recorder.install("nvm.filesystem", NVMFilesystem)
    for cls in (BloomFilter, NVMIndexCostModel, CoWBTree,
                *_subclasses(STXBTree)):
        recorder.install("index", cls)
    for cls in _subclasses(StorageEngine):
        recorder.install("engines", cls)
    recorder.install("core.executor", TransactionContext)
    recorder.install("core.partition", Partition)
    recorder.install("core.session", Session)
    recorder.install("core.database", Database)


def install_served(recorder: SpanRecorder) -> None:
    """The serving stack around an in-process ``ServerThread``: the
    client's one call per verb, the group-commit stage, and the frame
    codec (patched in every module that imported it by name)."""
    import repro.client.client as client_module
    import repro.server.protocol as protocol_module
    import repro.server.server as server_module
    from repro.client.client import ReproClient
    from repro.server.groupcommit import GroupCommitStage
    from repro.server.protocol import FrameDecoder

    recorder.install("client", ReproClient, ["call"])
    recorder.install("server.groupcommit", GroupCommitStage,
                     ["enqueue", "flush"])
    recorder.install("server.protocol", FrameDecoder, ["feed"])
    for module in (protocol_module, client_module, server_module):
        recorder.install("server.protocol", module, ["encode_frame"])


def install_sharded(recorder: SpanRecorder) -> None:
    """The coordinator side of the sharded tier (executor processes
    are measured by CPU time only)."""
    import repro.dist.coordinator as coordinator_module
    from repro.dist.coordinator import ShardedDatabase

    recorder.install("dist.coordinator", ShardedDatabase)
    recorder.install("harness.ipc", coordinator_module.ipc,
                     ["send", "recv"])
