"""The arithmetic that makes the benchmark repeat."""

import statistics

import pytest

import common
import estimators
from common import Segment
from refkernel import REF_NOMINAL_US, RefKernel


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert estimators.percentile(samples, 50) == 50
    assert estimators.percentile(samples, 95) == 95
    assert estimators.percentile(samples, 100) == 100
    assert estimators.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        estimators.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    # p95 of 200 samples leaves exactly 10 beyond it: supported.
    assert estimators.supported_percentile(200, 95) == 95
    assert estimators.supported_percentile(199, 95) == 90
    # p99 needs 1,000 samples.
    assert estimators.supported_percentile(999, 99) == 95
    assert estimators.supported_percentile(1000, 99) == 99
    # Sixteen samples only support the median.
    assert estimators.supported_percentile(16, 95) == 50
    value, used = estimators.tail_percentile(list(range(100)), 95)
    assert used == 90 and value == 89


def test_median_over_segments_shrugs_off_one_bad_segment():
    def segment(latency: float) -> Segment:
        return Segment(committed=250, wall_s=250 * latency,
                       cpu_s=250 * latency,
                       latency={"read": [latency] * 125,
                                "write": [latency] * 125})

    quiet = [segment(100e-6) for __ in range(15)]
    noisy = quiet + [segment(900e-6)]
    metrics = common.reduce_segments(noisy, noisy)
    assert metrics["read_p50_us"] == pytest.approx(100.0)
    assert metrics["txn_per_s"] == pytest.approx(10000.0)
    # The whole-run mean latency would have moved by half.
    flat = [value for s in noisy for value in s.observed()]
    assert statistics.fmean(flat) == pytest.approx(150e-6)


def test_reference_scaling_cancels_host_speed():
    # A host running 20% slow: the reference and the transaction both
    # take 1.2x as long; scaled figures read as on the nominal host.
    slow = 1.2
    ref_us = REF_NOMINAL_US * slow
    assert estimators.scale_time(500.0 * slow, ref_us) == \
        pytest.approx(500.0)
    # A real speed-up (the transaction alone got faster) still shows.
    assert estimators.scale_time(400.0 * slow, ref_us) == \
        pytest.approx(400.0)


def test_reference_level_shows_the_slow_state_but_not_a_hiccup():
    fast, slow = 160e-6, 330e-6
    # A third of the samples in the slow state: the level moves with
    # them (the median would not).
    mixed = [fast] * 200 + [slow] * 100
    assert common.ref_level_us(mixed) == pytest.approx(
        (200 * 160 + 100 * 330) / 300)
    # One 13 ms preemption among 450 samples: clipped at 5x the median.
    hiccup = [fast] * 449 + [13e-3]
    assert common.ref_level_us(hiccup) == pytest.approx(
        (449 * 160 + 800) / 450)


def test_host_factor_scales_only_the_on_cpu_share():
    slow = [REF_NOMINAL_US * 1e-6 * 1.25] * 20
    # All of the window on a CPU: plain reference scaling.
    assert common.host_factor(2.0, 2.0, slow) == pytest.approx(0.8)
    # CPU seconds of several processes can exceed the wall: capped.
    assert common.host_factor(2.0, 3.5, slow) == pytest.approx(0.8)
    # Half of the window parked on a timer: only the other half moves.
    assert common.host_factor(2.0, 1.0, slow) == pytest.approx(0.9)
    # No CPU at all (pure waiting) or no reference: left alone.
    assert common.host_factor(2.0, 0.0, slow) == 1.0
    assert common.host_factor(2.0, 2.0, []) == 1.0
    # A lone served transaction: 2 ms park + 1.4 ms of work that took
    # 1.75 ms on the slow host reads as 3.4 ms again.
    assert 3.75 * common.host_factor(3.75, 1.75, slow) == \
        pytest.approx(3.4)


def test_reduce_segments_scales_each_segment_by_its_own_reference():
    def segment(speed: float) -> Segment:
        ref = [REF_NOMINAL_US * 1e-6 * speed] * 10
        latency = [200e-6 * speed] * 250
        return Segment(committed=250, wall_s=sum(latency) + sum(ref),
                       cpu_s=sum(latency) + sum(ref),
                       latency={"read": latency[:125],
                                "write": latency[125:]}, ref=ref)

    segments = [segment(1.0), segment(1.3), segment(0.9), segment(1.1)]
    metrics = common.reduce_segments(segments, segments)
    assert metrics["txn_per_s"] == pytest.approx(5000.0)
    assert metrics["txn_p95_us"] == pytest.approx(200.0)
    assert metrics["read_p50_us"] == pytest.approx(200.0)
    assert metrics["cpu_us_per_txn"] == pytest.approx(200.0)


def test_reduce_segments_takes_latency_and_rate_from_their_segments():
    lone = Segment(committed=10, wall_s=1.0, cpu_s=0.5,
                   latency={"read": [0.1] * 5, "write": [0.2] * 5})
    pair = Segment(committed=40, wall_s=2.0, cpu_s=1.5,
                   latency={"read": [0.3] * 20, "write": [0.3] * 20})
    metrics = common.reduce_segments([lone], [pair])
    # No reference samples: reported raw.
    assert metrics["txn_per_s"] == pytest.approx(20.0)
    assert metrics["read_p50_us"] == pytest.approx(0.1e6)
    assert metrics["write_p50_us"] == pytest.approx(0.2e6)
    assert metrics["cpu_us_per_txn"] == pytest.approx(0.0375e6)
    # Ten samples support no tail percentile: the median stands in.
    assert metrics["txn_p95_us"] == pytest.approx(0.1e6)
    only_writes = common.reduce_segments([lone], [pair],
                                         txn_classes=("write",))
    assert only_writes["txn_p95_us"] == pytest.approx(0.2e6)


def test_quartile_spread_and_drift():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    q1, __, q3 = statistics.quantiles(values, n=4)
    assert estimators.quartile_spread(values) == \
        pytest.approx((q3 - q1) / statistics.median(values))
    assert estimators.worse_by(100.0, 110.0, "lower") == \
        pytest.approx(0.10)
    assert estimators.worse_by(100.0, 110.0, "higher") == \
        pytest.approx(-0.10)
    assert estimators.max_pairwise([90.0, 100.0]) == \
        pytest.approx(10.0 / 90.0)


def test_reference_kernel_is_deterministic():
    first, second = RefKernel(), RefKernel()
    assert [first.run() for __ in range(5)] == \
        [second.run() for __ in range(5)]
