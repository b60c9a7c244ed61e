"""Reference oracles the parity tests and benches compare against.

Each hot loop of :mod:`repro` has one production implementation. The
slow, obviously-correct loops they replaced live here, outside the
installed package: one trial, word, sample, period or candidate per
Python iteration, consuming randomness in the same order as the
production path. The parity suite pins production against these
(bitwise, or to floating-point noise for the FFT tier), and the benches
time production against them.
"""

from tests.oracles.ber import word_errors_chunk
from tests.oracles.fleet import generate_shard_reference
from tests.oracles.inventory import (
    run_inventory_reference,
    run_throughput_reference,
)
from tests.oracles.kernels import capture_response_scalar, powered_mask_scalar
from tests.oracles.optimizer import score_matrix_sequential
from tests.oracles.trials import (
    measure_gain_trials_scalar,
    measure_strategy_gains_scalar,
    peak_amplitudes_scalar,
    power_up_probability_scalar,
)
from tests.oracles.wakeup import run_wakeup_reference

__all__ = [
    "capture_response_scalar",
    "generate_shard_reference",
    "measure_gain_trials_scalar",
    "measure_strategy_gains_scalar",
    "peak_amplitudes_scalar",
    "power_up_probability_scalar",
    "powered_mask_scalar",
    "run_inventory_reference",
    "run_throughput_reference",
    "run_wakeup_reference",
    "score_matrix_sequential",
    "word_errors_chunk",
]
