"""Unit tests for the batched envelope-evaluation engine."""

from unittest import mock

import numpy as np

from repro.core import waveform
from repro.core.plan import paper_plan
from repro.runtime import engine
from tests.oracles import peak_amplitudes_scalar


def _direct_tier():
    """Force the direct tier: offsets look FFT-incompatible."""
    return mock.patch(
        "repro.runtime.engine.fft_compatible", return_value=False
    )


def _random_betas(n_draws, n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_draws, n))


class TestFftCompatible:
    def test_integer_offsets_are_compatible(self):
        assert engine.fft_compatible(np.array([0.0, 7.0, 23.0]), 1.0)

    def test_paper_plan_is_compatible(self):
        assert engine.fft_compatible(paper_plan().offsets_array(), 2.0)

    def test_fractional_bins_rejected(self):
        assert not engine.fft_compatible(np.array([0.0, 7.5]), 1.0)

    def test_duplicate_bins_rejected(self):
        assert not engine.fft_compatible(np.array([3.0, 3.0]), 1.0)

    def test_negative_offsets_rejected(self):
        assert not engine.fft_compatible(np.array([-1.0, 2.0]), 1.0)

    def test_bins_beyond_nyquist_rejected(self):
        # A narrow spread keeps the capture grid at its MIN_TIME_SAMPLES
        # floor, so a large absolute offset overruns grid//2.
        assert not engine.fft_compatible(np.array([2000.0, 2001.0]), 1.0)

    def test_zero_duration_rejected(self):
        assert not engine.fft_compatible(np.array([0.0, 7.0]), 0.0)


class TestResolveEngine:
    def test_auto_prefers_fft(self):
        assert engine._resolve_tier(np.array([0.0, 7.0]), 1.0) == "fft"

    def test_auto_falls_back_to_direct(self):
        assert engine._resolve_tier(np.array([0.0, 7.3]), 1.0) == "direct"


class TestPeakAmplitudes:
    def test_direct_matches_scalar_bitwise(self):
        offsets = paper_plan().offsets_array()
        betas = _random_betas(40, offsets.size, seed=1)
        with _direct_tier():
            direct = engine.peak_amplitudes(offsets, betas, 2.0)
        scalar = peak_amplitudes_scalar(offsets, betas, 2.0)
        np.testing.assert_array_equal(direct, scalar)

    def test_fft_close_to_direct(self):
        offsets = paper_plan().offsets_array()
        betas = _random_betas(40, offsets.size, seed=2)
        fft = engine.peak_amplitudes(offsets, betas, 2.0)
        with _direct_tier():
            direct = engine.peak_amplitudes(offsets, betas, 2.0)
        np.testing.assert_allclose(fft, direct, rtol=1e-10)

    def test_single_row_promoted(self):
        offsets = np.array([0.0, 7.0, 23.0])
        betas = _random_betas(1, 3, seed=3)[0]
        batched = engine.peak_amplitudes(offsets, betas, 1.0)
        assert batched.shape == (1,)
        reference, _ = waveform.peak_envelope(offsets, betas, 1.0)
        np.testing.assert_allclose(batched[0], reference, rtol=1e-10)

    def test_per_draw_amplitudes(self):
        offsets = np.array([0.0, 7.0, 23.0])
        betas = _random_betas(12, 3, seed=4)
        amplitudes = np.random.default_rng(5).uniform(0.5, 2.0, (12, 3))
        with _direct_tier():
            batched = engine.peak_amplitudes(offsets, betas, 1.0, amplitudes)
        for index in range(12):
            reference, _ = waveform.peak_envelope(
                offsets, betas[index], 1.0, amplitudes[index]
            )
            assert batched[index] == reference

    def test_chunk_boundaries_do_not_change_results(self, monkeypatch):
        offsets = paper_plan().offsets_array()
        betas = _random_betas(30, offsets.size, seed=6)
        with _direct_tier():
            full = engine.peak_amplitudes(offsets, betas, 2.0)
        # Force many tiny chunks through both vector tiers.
        monkeypatch.setattr(engine, "DIRECT_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(engine, "FFT_CHUNK_ELEMENTS", 1)
        with _direct_tier():
            chunked_direct = engine.peak_amplitudes(offsets, betas, 2.0)
        np.testing.assert_array_equal(full, chunked_direct)
        fft_rows = engine.peak_amplitudes(offsets, betas, 2.0)
        monkeypatch.undo()
        fft_batch = engine.peak_amplitudes(offsets, betas, 2.0)
        np.testing.assert_array_equal(fft_rows, fft_batch)
