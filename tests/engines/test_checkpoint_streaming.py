"""The streaming checkpointer against the whole-image one it replaced.

``ReferenceCheckpointer`` keeps the whole-image write and read
verbatim: it joins every record into one raw image, compresses it with
``zlib.compress``, and reads it back with ``zlib.decompress``. The
streaming ``Checkpointer`` must write the same file bytes and charge
the same simulated time, and its reader must yield the same records at
the same clock values, while holding one record (plus a bounded chunk)
at a time.
"""

import random
import string
import tracemalloc
import zlib

import pytest

from repro.config import CacheConfig, LatencyProfile, PlatformConfig
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tuple_codec import decode_inlined, encode_inlined
from repro.engines import checkpoint
from repro.engines.checkpoint import (_RECORD, COMPRESS_NS_PER_BYTE,
                                      Checkpointer)
from repro.nvm.platform import Platform


class ReferenceCheckpointer(Checkpointer):
    """The whole-image write and read, kept verbatim."""

    def write(self, tables):
        parts = []
        for table_id, name in enumerate(sorted(tables)):
            schema, rows = tables[name]
            for values in rows:
                record = encode_inlined(schema, values)
                parts.append(_RECORD.pack(table_id, len(record)))
                parts.append(record)
        raw = b"".join(parts)
        self._clock.advance(len(raw) * COMPRESS_NS_PER_BYTE)
        compressed = zlib.compress(raw, level=6)

        active = self._active_slot()
        target = 0 if active != 0 else 1
        file = self._fs.open(self._slot_name(target), create=True)
        self._fs.truncate(file, 0)
        self._fs.append(file, compressed)
        self._faults.fire("checkpoint.write.before_fsync")
        self._fs.fsync(file)
        self._faults.fire("checkpoint.write.after_fsync")

        pointer = self._fs.open(self._pointer_name, create=True)
        byte = b"0" if target == 0 else b"1"
        if pointer.size == 0:
            self._fs.append(pointer, byte)
        else:
            self._fs.write(pointer, 0, byte)
        self._faults.fire("checkpoint.swap.after_write")
        self._fs.fsync(pointer)

        if active is not None:
            self._fs.truncate(self._fs.open(self._slot_name(active)), 0)
        self.checkpoints_taken += 1
        return len(compressed)

    def read(self, schemas_by_name):
        active = self._active_slot()
        if active is None:
            return
        file = self._fs.open(self._slot_name(active))
        compressed = self._fs.read_all(file)
        if not compressed:
            return
        raw = zlib.decompress(compressed)
        self._clock.advance(len(raw) * COMPRESS_NS_PER_BYTE)
        names = sorted(schemas_by_name)
        offset = 0
        while offset < len(raw):
            table_id, record_length = _RECORD.unpack_from(raw, offset)
            offset += _RECORD.size
            name = names[table_id]
            schema = schemas_by_name[name]
            record = raw[offset:offset + record_length]
            offset += record_length
            yield name, decode_inlined(schema, record)


SCHEMAS = {
    "text": Schema.build("text", [
        Column("k", ColumnType.INT),
        Column("body", ColumnType.STRING, capacity=200),
        Column("f", ColumnType.FLOAT)], primary_key=["k"]),
    "empty": Schema.build("empty", [
        Column("k", ColumnType.INT),
        Column("s", ColumnType.STRING, capacity=16)], primary_key=["k"]),
    "nums": Schema.build("nums", [
        Column("k", ColumnType.INT),
        Column("n", ColumnType.INT)], primary_key=["k"]),
    # Records of ~3 KB straddle every small chunk boundary.
    "wide": Schema.build("wide", [
        Column("k", ColumnType.INT),
        Column("blob", ColumnType.STRING, capacity=3000)],
        primary_key=["k"]),
}


def noise(rng, length):
    """Near-incompressible printable text."""
    alphabet = string.ascii_letters + string.digits + string.punctuation
    return "".join(rng.choice(alphabet) for __ in range(length))


def snapshot_rows(seed, scale):
    """Rows per table: compressible text, near-incompressible blobs,
    integers and one empty table."""
    rng = random.Random(seed)
    return {
        "text": [{"k": i, "body": "a" * (i % 200), "f": i * 0.5}
                 for i in range(40 * scale)],
        "empty": [],
        "nums": [{"k": i, "n": rng.randrange(-2 ** 63, 2 ** 63)}
                 for i in range(30 * scale)],
        "wide": [{"k": i, "blob": noise(rng, rng.randrange(0, 3000))}
                 for i in range(4 * scale)],
    }


def new_platform():
    return Platform(PlatformConfig(
        latency=LatencyProfile.dram(),
        cache=CacheConfig(capacity_bytes=256 * 1024),
        nvm_capacity_bytes=32 * 1024 * 1024,
        seed=1234))


def tables_of(rows):
    return {name: (SCHEMAS[name], iter(rows[name])) for name in rows}


def slot_bytes(platform, checkpointer):
    """Contents of both slot files and the pointer file."""
    fs = platform.filesystem
    names = [f"{checkpointer.file_name}.{suffix}"
             for suffix in ("0", "1", "current")]
    return {name: fs.read_all(fs.open(name)) if fs.exists(name) else None
            for name in names}


def timed_read(platform, checkpointer):
    return [(name, values, platform.clock.now_ns)
            for name, values in checkpointer.read(SCHEMAS)]


@pytest.mark.parametrize("chunk", [1, 7, 4096, checkpoint._CHUNK])
def test_streaming_matches_whole_image(monkeypatch, chunk):
    monkeypatch.setattr(checkpoint, "_CHUNK", chunk)
    scale = 3 if chunk == 1 else 25
    reference_platform, platform = new_platform(), new_platform()
    reference = ReferenceCheckpointer(reference_platform.filesystem,
                                      reference_platform.clock)
    streaming = Checkpointer(platform.filesystem, platform.clock)
    # Three snapshots exercise both slots and the pointer flip.
    for seed in (1, 2, 3):
        rows = snapshot_rows(seed, scale)
        expected = reference.write(tables_of(rows))
        assert streaming.write(tables_of(rows)) == expected
        assert platform.clock.now_ns == reference_platform.clock.now_ns
        assert slot_bytes(platform, streaming) \
            == slot_bytes(reference_platform, reference)
        records = timed_read(platform, streaming)
        assert records == timed_read(reference_platform, reference)
        assert [values for name, values, __ in records
                if name == "wide"] == rows["wide"]


def truncate_active_slot(platform, checkpointer, keep):
    fs = platform.filesystem
    pointer = fs.read_all(fs.open(f"{checkpointer.file_name}.current"))
    slot = fs.open(f"{checkpointer.file_name}.{pointer.decode()}")
    data = fs.read_all(slot)
    fs.truncate(slot, 0)
    fs.append(slot, data[:keep(len(data))])
    fs.fsync(slot)


@pytest.mark.parametrize("keep", [lambda n: n - 1, lambda n: n - 4,
                                  lambda n: n // 2, lambda n: 2],
                         ids=["last-byte", "checksum", "half", "header"])
def test_truncated_snapshot_raises_before_first_record(platform, keep):
    streaming = Checkpointer(platform.filesystem, platform.clock)
    streaming.write(tables_of(snapshot_rows(5, 25)))
    truncate_active_slot(platform, streaming, keep)
    records = streaming.read(SCHEMAS)
    with pytest.raises(zlib.error):
        next(records)
    # The whole-image reader fails on the same snapshot.
    with pytest.raises(zlib.error):
        next(ReferenceCheckpointer(platform.filesystem,
                                   platform.clock).read(SCHEMAS))


SCALE_SCHEMA = Schema.build("t", [
    Column("k", ColumnType.INT),
    Column("text", ColumnType.STRING, capacity=200)], primary_key=["k"])
SCALE_ROWS = 20_000


def scale_rows():
    return ({"k": i, "text": f"payload-{i}-" + "x" * (i % 150)}
            for i in range(SCALE_ROWS))


def traced_peak(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_snapshot_memory_stays_well_below_raw_image():
    raw_size = SCALE_ROWS * (_RECORD.size + SCALE_SCHEMA.inlined_size)
    peaks = {}
    for kind in (ReferenceCheckpointer, Checkpointer):
        platform = new_platform()
        checkpointer = kind(platform.filesystem, platform.clock)
        write_peak = traced_peak(lambda: checkpointer.write(
            {"t": (SCALE_SCHEMA, scale_rows())}))
        read_peak = traced_peak(lambda: sum(
            1 for __ in checkpointer.read({"t": SCALE_SCHEMA})))
        peaks[kind] = write_peak, read_peak
    # The whole image (4.5 MB here) was held at least once on each
    # side; the stream holds a chunk, the compressor's state (~300 KB)
    # and the compressed bytes (1/18 of the image here).
    assert min(peaks[ReferenceCheckpointer]) > raw_size
    assert max(peaks[Checkpointer]) < raw_size / 3
