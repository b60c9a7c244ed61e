"""Tests of the benchmark's metric arithmetic.

Run from the repository root::

    python -m pytest perfbench -q
"""

import math

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (39, None),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    chosen = stats.tail_percentile(n)
    assert chosen == expected
    if chosen is not None:
        assert n - stats.rank(n, chosen) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 100) == 200
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_failures_and_refusals_count_as_missing_the_limit():
    served = [(0.0, 0.010, True)] * 190
    missed = [(0.0, 0.010, False)] * 10
    # Ten misses sit exactly beyond p95: the percentile still reads 10 ms.
    assert stats.percentile(stats.latencies_ms(served + missed), 95) == pytest.approx(10.0)
    # One more failed or refused request pushes p95 past any limit.
    tail = stats.percentile(stats.latencies_ms(served + missed + missed[:1]), 95)
    assert math.isinf(tail)
    rate, censored = stats.interpolated_max_rate([20.0, 40.0], [0.5, tail / 1000])
    assert (rate, censored) == (20.0, False)


def test_max_rate_interpolates_between_rungs():
    rate, censored = stats.interpolated_max_rate([10.0, 20.0, 30.0], [0.2, 0.6, 1.4])
    assert rate == pytest.approx(25.0)
    assert not censored


def test_max_rate_moves_smoothly_not_by_whole_rungs():
    rates = [10.0, 20.0, 30.0]
    before, _ = stats.interpolated_max_rate(rates, [0.2, 0.6, 1.40])
    after, _ = stats.interpolated_max_rate(rates, [0.2, 0.6, 1.45])
    assert 0 < before - after < 0.5


def test_max_rate_first_rung_failing_interpolates_from_zero():
    rate, censored = stats.interpolated_max_rate([10.0, 20.0], [2.0, 3.0])
    assert rate == pytest.approx(5.0)
    assert not censored


def test_max_rate_censored_when_every_rung_passes():
    assert stats.interpolated_max_rate([10.0, 20.0], [0.1, 0.9]) == (20.0, True)


def test_max_rate_rejects_bad_ladders():
    with pytest.raises(ValueError):
        stats.interpolated_max_rate([20.0, 10.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        stats.interpolated_max_rate([10.0], [0.1, 0.2])


def test_backlog_growth_separates_stable_from_overloaded():
    due = [i * 0.01 for i in range(300)]
    stable = [t + 0.05 for t in due]
    assert stats.backlog_growth(due, stable) < 0.2
    # Served at half the offered rate: the queue climbs all stage.
    overloaded = [i * 0.02 for i in range(300)]
    assert stats.backlog_growth(due, overloaded) > 1.0
    never = [math.inf] * 300
    assert stats.backlog_growth(due, never) > 1.0


def test_self_time_with_nested_spans():
    spans = [
        # id, wrapped parent, start, end, layer
        (1, None, 0.0, 10.0, "x"),
        (2, 1, 1.0, 4.0, "y"),
        (3, 2, 2.0, 3.0, "x"),
        (4, 1, 5.0, 8.0, "x"),
        (5, 4, 6.0, 7.0, "z"),
    ]
    times = stats.layer_times(spans)
    # Span 3 and span 4 sit inside span 1 of the same layer: busy counts
    # span 1 once; self subtracts y (1-4) and, through span 4, z (6-7).
    assert times["x"] == pytest.approx((10.0, 6.0))
    assert times["y"] == pytest.approx((3.0, 2.0))
    assert times["z"] == pytest.approx((1.0, 1.0))


def test_self_time_merges_overlapping_children():
    spans = [
        (1, None, 0.0, 10.0, "batch"),
        (2, 1, 1.0, 5.0, "search"),
        (3, 1, 3.0, 8.0, "search"),
        (4, 1, 9.0, 12.0, "search"),  # clipped to the parent
    ]
    busy, own = stats.layer_times(spans)["batch"]
    assert busy == pytest.approx(10.0)
    assert own == pytest.approx(10.0 - 7.0 - 1.0)


def test_union_length():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 1), (0.5, 2), (3, 4), (4, 4)]) == pytest.approx(3.0)


def test_benchmark_json_names_what_the_runs_print():
    from perfbench import layers, run

    spec = run.load_spec()
    computed = set(layers.LayerTotals().metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == computed
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_zero_keeps_published_seeds_and_others_offset_them():
    from dataclasses import dataclass, field

    from perfbench.workloads import _offset_seeds

    @dataclass(frozen=True)
    class Inner:
        seed: int = 73

    @dataclass(frozen=True)
    class Outer:
        seed: int = 9
        inner: Inner = field(default_factory=Inner)
        trials: int = 100

    assert _offset_seeds(Outer(), 0) == Outer()
    shifted = _offset_seeds(Outer(), 5)
    assert (shifted.seed, shifted.inner.seed, shifted.trials) == (14, 78, 100)


def test_slowdown_is_the_median_reference_sample_over_the_reference():
    from perfbench import host

    reference_s = host.REFERENCE_MS * 1e-3
    # A host running the reference 1.5x slower for most of the run, with
    # one sample from a fast spell and one from a stall: the median holds.
    speed = host.HostSpeed()
    speed.samples = [1.5 * reference_s] * 3 + [reference_s, 4.0 * reference_s]
    assert speed.slowdown() == pytest.approx(1.5)


def test_interquartile_mean_drops_a_quarter_from_each_end():
    assert stats.interquartile_mean([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    # 18 drivers: the 4 fastest and the 4 slowest, a stall among them,
    # are dropped; the mean of the 10 in the middle remains.
    times = [float(t) for t in range(17)] + [1e6]
    assert stats.interquartile_mean(times) == pytest.approx(8.5)
    assert stats.interquartile_mean([5.0]) == 5.0
    with pytest.raises(ValueError):
        stats.interquartile_mean([])
