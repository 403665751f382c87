"""The sim-fingerprint gate.

Runs the cache primitives and a YCSB/TPC-C smoke per engine once each
and compares every bench's fingerprint — simulated nanoseconds plus a
few cache/NVM counters, all deterministic — against the committed
``benchmarks/results/BENCH_baseline.json``: a change that moves one
has changed the cost model. Wall time is printed for orientation and
never gated; wall-clock questions go to the ladder
(``benchmarks/ladder``, ``BENCHMARK.json``), the one instrument for
that clock.

See ``docs/performance.md`` for usage and exit codes.
"""

from .harness import (BenchResult, run_bench, run_macro_benches,
                      run_micro_benches)
from .report import (SCHEMA_NAME, compare_payloads, load_payload,
                     make_payload, validate_payload, write_payload)

__all__ = [
    "BenchResult",
    "SCHEMA_NAME",
    "compare_payloads",
    "load_payload",
    "make_payload",
    "run_bench",
    "run_macro_benches",
    "run_micro_benches",
    "validate_payload",
    "write_payload",
]
