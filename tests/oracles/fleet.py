"""Per-element reference loop of fleet generation.

:func:`generate_shard_reference` is the original body of
:func:`repro.fleet.population.generate_shard`: one scalar
:func:`~repro.em.propagation.tissue_field_amplitude` call per array
element and a fresh ``config.seed_material()`` hash for every tag
generator. The production path hoists those invariants out of the loop;
the parity suite pins its arrays and MAC-generator states to this loop
bitwise.
"""

import math
from typing import List

import numpy as np

from repro.em import media as media_lib
from repro.em.channel import arc_array_distances
from repro.em.propagation import tissue_field_amplitude
from repro.faults.inject import FaultInjector
from repro.faults.plan import EMPTY_PLAN, FaultPlan
from repro.fleet.population import (
    _FLEET_STREAM_TAG,
    _STREAM_MAC,
    _STREAM_PHYSICS,
    TAG_ANTENNAS,
    FleetConfig,
    TagSet,
    backscatter_amplitude_v,
    shard_bounds,
)
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel


def _tag_rng_reference(
    config: FleetConfig, tag_index: int, stream: int
) -> np.random.Generator:
    sequence = np.random.SeedSequence(
        [
            _FLEET_STREAM_TAG,
            config.seed_material(),
            int(config.seed),
            int(tag_index),
            int(stream),
        ]
    )
    return np.random.default_rng(sequence)


def generate_shard_reference(
    config: FleetConfig,
    shard: int,
    fault_plan: FaultPlan = EMPTY_PLAN,
) -> TagSet:
    """One shard, one tag and one array element per Python iteration."""
    lo, hi = shard_bounds(config, shard)
    n = hi - lo
    medium = media_lib.get_medium(config.medium)
    antenna = TAG_ANTENNAS[config.tag]
    front_end = HarvesterFrontEnd(antenna=antenna)
    model = TagPowerModel(front_end)
    injector = FaultInjector(fault_plan, config.seed)
    aperture = front_end.effective_aperture_in(medium, config.frequency_hz)

    epc_bits = np.empty((n, 96), dtype=int)
    depths = np.empty(n)
    voltages = np.empty(n)
    amplitudes = np.empty(n)
    powered = np.empty(n, dtype=bool)
    mac_rngs: List[np.random.Generator] = []

    for row, tag_index in enumerate(range(lo, hi)):
        rng = _tag_rng_reference(config, tag_index, _STREAM_PHYSICS)
        depth = float(
            rng.uniform(config.depth_min_m, config.depth_max_m)
        )
        distances = arc_array_distances(
            config.standoff_m, config.n_antennas, rng=rng
        )
        epc_bits[row] = rng.integers(0, 2, size=96)

        element_fields = np.array(
            [
                tissue_field_amplitude(
                    config.eirp_per_antenna_w,
                    float(r),
                    depth,
                    medium,
                    config.frequency_hz,
                )
                for r in distances
            ]
        )
        element_scale = np.ones(config.n_antennas)
        perturbed = injector.perturb_trial(
            tag_index,
            np.zeros(config.n_antennas),
            np.zeros(config.n_antennas),
            element_scale,
        )
        peak_field = float(np.sum(element_fields * perturbed.amplitudes))
        voltage = front_end.input_voltage_amplitude_v(
            peak_field, medium, config.frequency_hz
        )
        voltage *= perturbed.voltage_scale
        forward_gain = float(
            np.max(
                element_fields
                / math.sqrt(60.0 * config.eirp_per_antenna_w)
            )
        )
        depths[row] = depth
        voltages[row] = voltage
        powered[row] = model.powers_up_at_peak(voltage)
        amplitudes[row] = backscatter_amplitude_v(forward_gain, aperture)
        mac_rngs.append(_tag_rng_reference(config, tag_index, _STREAM_MAC))

    return TagSet(
        epc_bits=epc_bits,
        reply_amplitude_v=amplitudes,
        powered=powered,
        mac_rngs=mac_rngs,
        global_indices=np.arange(lo, hi),
        depths_m=depths,
        input_voltage_v=voltages,
    )
