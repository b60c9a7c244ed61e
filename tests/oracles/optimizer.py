"""Per-candidate reference scoring of the frequency search.

:func:`score_matrix_sequential` replaces
:meth:`repro.core.optimizer.FrequencyOptimizer._score_matrix` in the
equivalence tests: it scores one candidate per stacked-kernel call. The
FFT is row-stable, so a search driven through it must select the same
plan, bit for bit, as the production search that scores a whole matrix
per call.
"""

import numpy as np


def score_matrix_sequential(
    self,
    candidates: np.ndarray,
    level: str,
    kind: str,
    threshold: float,
) -> np.ndarray:
    """Level-aware scoring, one single-candidate kernel call per row."""
    rows = np.asarray(candidates, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[None, :]
    grid_size, shift = self.grid_size, False
    if level == "coarse" and self._coarse_grid_size is not None:
        grid_size, shift = self._coarse_grid_size, True
    values = np.empty(rows.shape[0])
    for index in range(rows.shape[0]):
        values[index] = self._stacked_values(
            rows[index : index + 1], grid_size, shift, kind, threshold
        )[0]
    return values
