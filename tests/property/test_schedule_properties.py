"""Property tests for the trial-schedule contract of the batched runtime.

Whatever ``n_trials`` and ``chunk_size`` the runner is given, the
gain-sweep and power-up drivers must return what the one-trial-per-
iteration reference loops in ``tests.oracles`` return: bitwise on the
direct tier, to 1e-12 relative on the FFT tier. The direct tier is forced
by making every offset set look FFT-incompatible; the patch is applied
inside each example (hypothesis rejects function-scoped fixtures), at
``workers=1`` so the chunks run where the patch is in effect.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import (
    TankChannelFactory,
    measure_gain_trials,
    power_up_trials,
)
from repro.sensors.tags import standard_tag_spec
from tests.oracles import measure_gain_trials_scalar, power_up_probability_scalar

SEED = 404
PLAN = paper_plan()
GAIN_FACTORY = TankChannelFactory(
    WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M),
    PLAN.n_antennas,
    0.10,
    PLAN.center_frequency_hz,
)
# Deep enough that about half the trials power up, so equality discriminates.
POWER_ARGS = (
    PLAN,
    TankChannelFactory(
        WaterTankPhantom(standoff_m=0.9),
        PLAN.n_antennas,
        0.30,
        PLAN.center_frequency_hz,
    ),
    WATER,
    6.0,
    standard_tag_spec(),
)

schedules = st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n + 2))
)


def _direct_tier():
    return mock.patch(
        "repro.runtime.engine.fft_compatible", return_value=False
    )


@functools.lru_cache(maxsize=None)
def _gain_oracle(n_trials):
    return measure_gain_trials_scalar(GAIN_FACTORY, PLAN, n_trials, SEED)


@functools.lru_cache(maxsize=None)
def _power_oracle(n_trials):
    return power_up_probability_scalar(*POWER_ARGS, n_trials, SEED)


@settings(max_examples=25, deadline=None)
@given(schedules)
def test_gain_trials_match_reference_for_any_schedule(schedule):
    n_trials, chunk_size = schedule
    reference = _gain_oracle(n_trials)
    with _direct_tier():
        direct = measure_gain_trials(
            GAIN_FACTORY, PLAN, n_trials, SEED, chunk_size=chunk_size
        )
    assert direct == reference
    fft = measure_gain_trials(
        GAIN_FACTORY, PLAN, n_trials, SEED, chunk_size=chunk_size
    )
    np.testing.assert_allclose(
        [s.cib_gain for s in fft],
        [s.cib_gain for s in reference],
        rtol=1e-12,
        atol=0.0,
    )
    assert [s.baseline_gain for s in fft] == [
        s.baseline_gain for s in reference
    ]


@settings(max_examples=25, deadline=None)
@given(schedules)
def test_power_up_trials_match_reference_for_any_schedule(schedule):
    n_trials, chunk_size = schedule
    reference = _power_oracle(n_trials)
    with _direct_tier():
        direct = power_up_trials(
            *POWER_ARGS, n_trials, SEED, chunk_size=chunk_size
        )
    assert direct.trials == n_trials
    assert direct.probability == reference
    fft = power_up_trials(*POWER_ARGS, n_trials, SEED, chunk_size=chunk_size)
    np.testing.assert_allclose(fft.probability, reference, rtol=1e-12, atol=0.0)
