"""Tests for repro.fleet.population."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, antenna_dropout, tag_detuning
from repro.fleet.population import (
    FleetConfig,
    backscatter_amplitude_v,
    generate_shard,
    shard_bounds,
)

from tests.oracles import generate_shard_reference

SMALL = FleetConfig(n_tags=12, n_shards=3, seed=17)

#: Half the tags lose antennas 0 and 3, half detune: both fault kinds
#: fire inside one shard, on different tags.
DROPOUT_AND_DETUNING = FaultPlan(
    events=antenna_dropout(antennas=(0, 3), probability=0.5).events
    + tag_detuning(0.4, probability=0.5).events
)


def _assert_tag_sets_equal(actual, expected):
    for name in (
        "epc_bits",
        "reply_amplitude_v",
        "powered",
        "global_indices",
        "depths_m",
        "input_voltage_v",
    ):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert [r.bit_generator.state for r in actual.mac_rngs] == [
        r.bit_generator.state for r in expected.mac_rngs
    ]


class TestFleetConfig:
    def test_stable_hash_deterministic(self):
        assert FleetConfig().stable_hash() == FleetConfig().stable_hash()

    def test_stable_hash_tracks_every_field(self):
        base = FleetConfig()
        assert base.stable_hash() != FleetConfig(seed=74).stable_hash()
        assert base.stable_hash() != FleetConfig(n_tags=99).stable_hash()
        assert (
            base.stable_hash()
            != FleetConfig(depth_max_m=0.09).stable_hash()
        )

    def test_seed_material_is_hash_as_int(self):
        config = FleetConfig()
        assert config.seed_material() == int(config.stable_hash(), 16)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_tags=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(depth_min_m=0.1, depth_max_m=0.05)
        with pytest.raises(ConfigurationError):
            FleetConfig(tag="imaginary")
        with pytest.raises(ConfigurationError):
            FleetConfig(n_tags=4, n_shards=5)
        with pytest.raises(ConfigurationError):
            FleetConfig(session=4)


class TestShardBounds:
    def test_partition_covers_population_exactly(self):
        config = FleetConfig(n_tags=11, n_shards=4)
        covered = []
        for shard in range(config.n_shards):
            lo, hi = shard_bounds(config, shard)
            covered.extend(range(lo, hi))
        assert covered == list(range(config.n_tags))

    def test_balanced_within_one(self):
        config = FleetConfig(n_tags=11, n_shards=4)
        sizes = [
            hi - lo
            for lo, hi in (
                shard_bounds(config, s) for s in range(config.n_shards)
            )
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(SMALL, 3)
        with pytest.raises(ValueError):
            shard_bounds(SMALL, -1)


class TestGenerateShard:
    def test_regeneration_is_bitwise_identical(self):
        first = generate_shard(SMALL, 1)
        second = generate_shard(SMALL, 1)
        assert np.array_equal(first.epc_bits, second.epc_bits)
        assert np.array_equal(
            first.reply_amplitude_v, second.reply_amplitude_v
        )
        assert np.array_equal(first.powered, second.powered)
        assert np.array_equal(first.depths_m, second.depths_m)
        assert np.array_equal(
            first.input_voltage_v, second.input_voltage_v
        )

    def test_shards_carry_their_global_indices(self):
        indices = np.concatenate(
            [
                generate_shard(SMALL, s).global_indices
                for s in range(SMALL.n_shards)
            ]
        )
        assert np.array_equal(indices, np.arange(SMALL.n_tags))

    def test_depths_stay_in_band(self):
        tags = generate_shard(SMALL, 0)
        assert np.all(tags.depths_m >= SMALL.depth_min_m)
        assert np.all(tags.depths_m <= SMALL.depth_max_m)

    def test_amplitudes_positive_and_depth_ordered(self):
        """Deeper implants lose more two-way path; the shallowest tag in
        a shard must out-shout the deepest (the capture-effect physics)."""
        config = FleetConfig(n_tags=16, n_shards=1, seed=5)
        tags = generate_shard(config, 0)
        assert np.all(tags.reply_amplitude_v > 0)
        shallow = int(np.argmin(tags.depths_m))
        deep = int(np.argmax(tags.depths_m))
        assert tags.reply_amplitude_v[shallow] > tags.reply_amplitude_v[deep]

    def test_antenna_dropout_weakens_harvest(self):
        healthy = generate_shard(SMALL, 0)
        faulted = generate_shard(SMALL, 0, antenna_dropout(antennas=(0, 1)))
        assert np.all(
            faulted.input_voltage_v <= healthy.input_voltage_v + 1e-15
        )
        assert np.any(faulted.input_voltage_v < healthy.input_voltage_v)


class TestReferenceParity:
    """generate_shard against the per-element scalar loop, bitwise."""

    @pytest.mark.parametrize("medium", ["muscle", "water", "air"])
    @pytest.mark.parametrize("tag", ["standard", "miniature"])
    @pytest.mark.parametrize(
        "plan", [None, DROPOUT_AND_DETUNING], ids=["healthy", "faulted"]
    )
    def test_bitwise_equal_to_scalar_loop(self, medium, tag, plan):
        config = FleetConfig(
            n_tags=10, n_shards=2, medium=medium, tag=tag, seed=29
        )
        kwargs = {} if plan is None else {"fault_plan": plan}
        for shard in range(config.n_shards):
            _assert_tag_sets_equal(
                generate_shard(config, shard, **kwargs),
                generate_shard_reference(config, shard, **kwargs),
            )

    def test_fault_plan_fires_both_kinds(self):
        """The faulted parity case really drops antennas and detunes."""
        config = FleetConfig(n_tags=10, n_shards=1, seed=29)
        healthy = generate_shard(config, 0)
        dropout = generate_shard(
            config, 0, antenna_dropout(antennas=(0, 3), probability=0.5)
        )
        detuned = generate_shard(config, 0, tag_detuning(0.4, 0.5))
        for faulted in (dropout, detuned):
            changed = faulted.input_voltage_v != healthy.input_voltage_v
            assert 0 < np.count_nonzero(changed) < config.n_tags

    def test_negative_eirp_rejected(self):
        config = FleetConfig(n_tags=2, n_shards=1, eirp_per_antenna_w=-1.0)
        with pytest.raises(ValueError, match="EIRP"):
            generate_shard(config, 0)


class TestBackscatterBudget:
    def test_quartic_in_forward_gain(self):
        """Two-way budget: amplitude scales as forward_gain squared."""
        one = backscatter_amplitude_v(1e-3, 1e-4)
        double = backscatter_amplitude_v(2e-3, 1e-4)
        assert double == pytest.approx(4.0 * one, rel=1e-12)
