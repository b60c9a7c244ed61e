"""Batched time-stepped rectifier integration.

:func:`rectifier_batch` integrates the
:class:`repro.harvester.rectifier.MultiStageRectifier` recurrence over a
``(B, T)`` block of envelope traces, looping only over the time axis while
every per-sample operation runs vectorized across the batch. The
``"step"`` method replicates the scalar reference loop operation for
operation, so its output is bit-identical to calling
``MultiStageRectifier.simulate`` on each row; the ``"scan"`` method solves
the same first-order affine recurrence in closed form (cumulative
products/sums per constant-regime segment), which is exact in the
recurrence but associates the floating-point work differently, so it
agrees to rounding noise rather than bitwise.

The recurrence per sample (the pinned reference in
``harvester/rectifier.py``)::

    charge = max(0, v_oc[t] - v) / Rs
    load   = v / Rl                      (0 when open circuit)
    dv     = (charge - load) * dt / C
    v      = v_oc[t]  if dt > Rs*C and v + dv > v_oc[t] > v   (coarse clamp)
             max(0, v + dv)  otherwise

In the fine-step regime (``dt <= Rs*C``) the clamp never fires and the
update is piecewise affine in ``v``: *charging* (``v_oc > v``) follows
``v' = a_c v + b_t`` with ``a_c = 1 - dt/(Rs C) - dt/(Rl C)`` and
``b_t = v_oc[t] dt / (Rs C)``; *discharging* follows ``v' = a_d v`` with
``a_d = 1 - dt/(Rl C)``. Within a segment of constant regime the solution
is ``v_k = a^{k+1} (v_0 + sum_j a^{-(j+1)} b_j)``, evaluated blockwise so
the negative powers never overflow.
"""

import math
from typing import Optional, Union

import numpy as np

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V
from repro.errors import ConfigurationError
from repro.obs.context import current_obs

METHODS = ("step", "scan")
"""Recognized integration methods."""

_SCAN_MAX_SEGMENT_FRACTION = 16
"""Fallback guard: more than ``T / 16`` regime flips means the segment
bookkeeping costs more than the step loop it replaces."""


def _validate(
    dt_s: float,
    n_stages: int,
    threshold_v: float,
    source_resistance_ohms: float,
    storage_capacitance_f: float,
    load_resistance_ohms: Optional[float],
) -> None:
    if dt_s <= 0:
        raise ValueError(f"dt must be positive, got {dt_s}")
    if n_stages < 1:
        raise ConfigurationError(f"need at least one stage, got {n_stages}")
    if threshold_v < 0:
        raise ConfigurationError("threshold must be non-negative")
    if source_resistance_ohms <= 0:
        raise ConfigurationError("source resistance must be positive")
    if storage_capacitance_f <= 0:
        raise ConfigurationError("storage capacitance must be positive")
    if load_resistance_ohms is not None and load_resistance_ohms <= 0:
        raise ConfigurationError("load resistance must be positive")


def rectifier_batch(
    envelopes_v: np.ndarray,
    dt_s: float,
    n_stages: int = DEFAULT_RECTIFIER_STAGES,
    threshold_v: float = DIODE_THRESHOLD_V,
    source_resistance_ohms: float = 5e3,
    storage_capacitance_f: float = 100e-12,
    load_resistance_ohms: Optional[float] = 1e6,
    initial_voltage_v: Union[float, np.ndarray] = 0.0,
    method: str = "step",
) -> np.ndarray:
    """Storage-capacitor voltage traces for a block of envelope traces.

    Args:
        envelopes_v: Envelope amplitudes, shape ``(T,)`` or ``(B, T)``.
            Floating dtypes are preserved (float32 stays float32);
            anything else is promoted to float64.
        dt_s: Sample spacing of the envelopes.
        n_stages / threshold_v: Eq. 1 parameters (``v_oc = N max(0, e - V_th)``).
        source_resistance_ohms / storage_capacitance_f /
            load_resistance_ohms: The rectifier's charging dynamics;
            defaults match :class:`~repro.harvester.rectifier.MultiStageRectifier`.
        initial_voltage_v: Capacitor voltage before the first sample;
            scalar or per-row ``(B,)``.
        method: ``"step"`` (bit-identical to the scalar loop) or
            ``"scan"`` (affine-scan fast path; falls back to ``"step"``
            per row outside its regime -- coarse steps, non-positive
            charging coefficient, or excessive regime flips).

    Returns:
        Capacitor voltage after each sample, same shape as the input.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _validate(
        dt_s, n_stages, threshold_v, source_resistance_ohms,
        storage_capacitance_f, load_resistance_ohms,
    )
    env = np.asarray(envelopes_v)
    if env.dtype.kind != "f":
        env = env.astype(np.float64)
    if env.ndim == 0:
        env = env.reshape(1, 1)
    squeeze = env.ndim == 1
    if squeeze:
        env = env.reshape(1, -1)
    if env.ndim != 2 or env.size == 0:
        raise ValueError("envelopes must be non-empty 1-D or 2-D")
    n_rows, n_samples = env.shape
    v0 = np.broadcast_to(
        np.asarray(initial_voltage_v, dtype=env.dtype), (n_rows,)
    ).copy()

    v_oc = n_stages * np.maximum(0.0, env - threshold_v)
    if method == "scan":
        trace = _scan(
            v_oc, v0, dt_s, source_resistance_ohms,
            storage_capacitance_f, load_resistance_ohms,
        )
    else:
        trace = _step(
            v_oc, v0, dt_s, source_resistance_ohms,
            storage_capacitance_f, load_resistance_ohms,
        )
    current_obs().metrics.counter("kernels.rectifier_samples").inc(env.size)
    return trace[0] if squeeze else trace


def _step(
    v_oc: np.ndarray,
    v0: np.ndarray,
    dt_s: float,
    rs: float,
    c_store: float,
    rl: Optional[float],
) -> np.ndarray:
    """The reference recurrence, vectorized across rows per time step."""
    n_rows, n_samples = v_oc.shape
    dtype = v_oc.dtype
    # Time-major layout keeps each step's slice contiguous.
    voc_t = np.ascontiguousarray(v_oc.T)
    trace = np.empty((n_samples, n_rows), dtype=dtype)
    v = v0.copy()
    tau_charge = rs * c_store
    coarse = dt_s > tau_charge
    work = np.empty(n_rows, dtype=dtype)
    load = np.empty(n_rows, dtype=dtype)
    vnew = np.empty(n_rows, dtype=dtype)
    for index in range(n_samples):
        voc = voc_t[index]
        np.subtract(voc, v, out=work)
        np.maximum(0.0, work, out=work)
        np.divide(work, rs, out=work)  # charge current
        if rl is not None:
            np.divide(v, rl, out=load)
            np.subtract(work, load, out=work)
        else:
            np.subtract(work, 0.0, out=work)
        np.multiply(work, dt_s, out=work)
        np.divide(work, c_store, out=work)  # dv
        np.add(v, work, out=vnew)
        if coarse:
            clamp = (vnew > voc) & (voc > v)
            np.maximum(0.0, vnew, out=vnew)
            np.copyto(vnew, voc, where=clamp)
        else:
            np.maximum(0.0, vnew, out=vnew)
        v, vnew = vnew, v
        trace[index] = v
    return np.ascontiguousarray(trace.T)


def _scan(
    v_oc: np.ndarray,
    v0: np.ndarray,
    dt_s: float,
    rs: float,
    c_store: float,
    rl: Optional[float],
) -> np.ndarray:
    """Affine-scan rows where the regime allows it, step elsewhere."""
    tau_charge = rs * c_store
    k_charge = dt_s / tau_charge
    k_load = 0.0 if rl is None else dt_s / (rl * c_store)
    a_charge = 1.0 - k_charge - k_load
    a_discharge = 1.0 - k_load
    n_rows, n_samples = v_oc.shape
    trace = np.empty((n_rows, n_samples), dtype=v_oc.dtype)
    scan_ok = dt_s <= tau_charge and a_charge > 0.0
    max_segments = max(4, n_samples // _SCAN_MAX_SEGMENT_FRACTION)
    for row in range(n_rows):
        out = None
        if scan_ok:
            out = _scan_row(
                v_oc[row], float(v0[row]), a_charge, a_discharge,
                k_charge, max_segments,
            )
        if out is None:
            out = _step(
                v_oc[row : row + 1], v0[row : row + 1], dt_s, rs,
                c_store, rl,
            )[0]
        trace[row] = out
    return trace


def _scan_row(
    voc: np.ndarray,
    v0: float,
    a_charge: float,
    a_discharge: float,
    k_charge: float,
    max_segments: int,
) -> Optional[np.ndarray]:
    """Closed-form solution of one row, segmented by conduction regime.

    Returns ``None`` when the segment count exceeds the guard, signalling
    the caller to fall back to the step loop for this row.
    """
    n_samples = voc.size
    b = voc * k_charge
    out = np.empty(n_samples, dtype=voc.dtype)
    position = 0
    v = v0
    segments = 0
    while position < n_samples:
        segments += 1
        if segments > max_segments:
            return None
        charging = voc[position] - v > 0.0
        remaining = n_samples - position
        if charging:
            segment = _affine_solve(a_charge, b[position:], v)
        else:
            segment = v * _powers(a_discharge, remaining)
        previous = np.empty(remaining, dtype=voc.dtype)
        previous[0] = v
        previous[1:] = segment[:-1]
        consistent = (voc[position:] - previous > 0.0) == charging
        flips = np.nonzero(~consistent)[0]
        length = int(flips[0]) if flips.size else remaining
        out[position : position + length] = segment[:length]
        v = float(out[position + length - 1])
        position += length
    return out


def _powers(a: float, count: int) -> np.ndarray:
    """``a ** (1..count)`` (gradual underflow to zero is fine here)."""
    if a == 0.0:
        powers = np.zeros(count)
        return powers
    with np.errstate(under="ignore"):
        return a ** np.arange(1, count + 1, dtype=float)


def _affine_solve(a: float, b: np.ndarray, v0: float) -> np.ndarray:
    """Solve ``v_k = a v_{k-1} + b_k`` (``v_{-1} = v0``) by cumprod/cumsum.

    ``v_k = a^{k+1} (v0 + sum_{j<=k} a^{-(j+1)} b_j)`` -- evaluated in
    blocks short enough that ``a^{-L}`` stays finite, carrying the state
    across block boundaries.
    """
    count = b.size
    out = np.empty(count, dtype=b.dtype)
    if a < 1.0:
        # Largest block whose reciprocal powers stay below ~1e280.
        block = int(280.0 / max(1e-12, -math.log10(a)))
        block = max(8, min(4096, block))
    else:
        block = 4096
    state = v0
    for start in range(0, count, block):
        chunk = b[start : start + block]
        exponents = np.arange(1, chunk.size + 1, dtype=float)
        with np.errstate(under="ignore"):
            pos = a**exponents
            neg = a**-exponents
        out[start : start + chunk.size] = pos * (
            state + np.cumsum(chunk * neg)
        )
        state = float(out[start + chunk.size - 1])
    return out
