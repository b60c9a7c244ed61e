"""Tests for repro.fleet.campaign."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.campaign import (
    FLEET_SCHEMA_VERSION,
    FleetCampaignConfig,
    run_fleet_campaign,
    validate_fleet_dict,
)
from repro.obs.context import obs_context

FAST = FleetCampaignConfig.fast()

#: Cells with 3, 4 and 4 shards (the smallest population sits below
#: ``n_shards``), so campaign-wide chunks straddle uneven cell boundaries.
UNEVEN = FleetCampaignConfig(
    populations=(3, 8, 13),
    depth_bands=((0.02, 0.06),),
    array_sizes=(10,),
    n_shards=4,
    max_rounds=32,
)


@pytest.fixture(scope="module")
def baseline():
    return run_fleet_campaign(FAST, workers=1)


@pytest.fixture(scope="module")
def uneven_baseline():
    return run_fleet_campaign(UNEVEN, workers=1)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_tables(self, baseline, workers):
        result = run_fleet_campaign(FAST, workers=workers)
        assert result.to_json_dict() == baseline.to_json_dict()

    def test_chunk_size_does_not_change_tables(
        self, baseline, uneven_baseline
    ):
        """Campaign-wide chunks of 1, 3 and 5 shards straddle cells."""
        assert [
            UNEVEN.fleet_config(*cell).n_shards for cell in UNEVEN.cells()
        ] == [3, 4, 4]
        for config, expected in ((FAST, baseline), (UNEVEN, uneven_baseline)):
            for chunk_size in (1, 3, 5):
                result = run_fleet_campaign(
                    config, workers=2, chunk_size=chunk_size
                )
                assert result.to_json_dict() == expected.to_json_dict(), (
                    chunk_size
                )

    def test_rerun_is_bitwise_identical(self, baseline):
        assert (
            run_fleet_campaign(FAST, workers=1).to_json_dict()
            == baseline.to_json_dict()
        )


class TestPoolUse:
    def test_campaign_runs_on_one_pool_map(self):
        """Every cell shares one map and one pool: no per-cell churn."""
        with obs_context() as obs:
            run_fleet_campaign(UNEVEN, workers=2)
            counters = obs.metrics.counters()
            pool_spans = [
                span for span in obs.tracer.spans if span.name == "runner.pool"
            ]
        assert counters["runner.pool_starts"] == 1
        assert len(pool_spans) == 1
        # Default chunking: one shard per chunk across the campaign.
        assert counters["runner.chunks"] == 11
        assert counters["fleet.shards"] == 11
        assert counters["fleet.cells"] == 3


class TestTableShape:
    def test_one_row_per_cell(self, baseline):
        assert len(baseline.rows) == len(FAST.cells())

    def test_rows_follow_cell_order(self, baseline):
        populations = [row["population"] for row in baseline.rows]
        assert populations == [cell[0] for cell in FAST.cells()]

    def test_reads_bounded_by_powered(self, baseline):
        for row in baseline.rows:
            assert 0 <= row["reads"] <= row["n_powered"] <= row["population"]

    def test_render_mentions_capture(self, baseline):
        assert "capture" in baseline.table().render().lower()


class TestSchema:
    def test_payload_validates(self, baseline):
        validate_fleet_dict(baseline.to_json_dict())

    def test_schema_version_pinned(self, baseline):
        assert baseline.to_json_dict()["schema_version"] == FLEET_SCHEMA_VERSION

    def test_rejects_wrong_version(self, baseline):
        payload = baseline.to_json_dict()
        payload["schema_version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_missing_row_key(self, baseline):
        payload = baseline.to_json_dict()
        del payload["rows"][0]["captures"]
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_bad_fraction(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"][0]["missed_fraction"] = 1.5
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_reads_above_population(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"][0]["reads"] = payload["rows"][0]["population"] + 1
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_powered": 13},
            {"n_powered": -3},
            {"n_powered": 0, "reads": 8},
            {"reads": True},
            {"rounds": 4.0},
            {"captures": -1},
        ],
    )
    def test_rejects_impossible_counts(self, baseline, changes):
        payload = baseline.to_json_dict()
        assert payload["rows"][0]["population"] == 8
        payload["rows"][0].update(changes)
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("airtime_s", float("nan")),
            ("read_rate_tags_per_s", float("inf")),
            ("depth_min_m", float("-inf")),
            ("missed_fraction", True),
        ],
    )
    def test_rejects_non_finite_or_bool_floats(self, baseline, key, value):
        payload = baseline.to_json_dict()
        payload["rows"][0][key] = value
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_empty_rows(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"] = []
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)


class TestConfigValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            FleetCampaignConfig(populations=())
        with pytest.raises(ConfigurationError):
            FleetCampaignConfig(depth_bands=())

    def test_shards_clamped_to_population(self):
        config = FleetCampaignConfig(n_shards=8)
        fleet = config.fleet_config(3, (0.02, 0.06), 10)
        assert fleet.n_shards == 3
