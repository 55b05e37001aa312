"""Fading and noise statistics, and the time/frequency path equivalence.

The equivalence check IS the correctness oracle for the per-subcarrier
model: modulating, convolving with the taps across the CP and demodulating
must equal the element-wise product with the frequency response.
"""
import copy
import math

import numpy as np
import pytest

from svcim.channel import apply_freq, apply_time, draw_channel
from svcim.transceiver import ofdm_demodulate, ofdm_modulate


class TestDrawChannel:
    def test_single_tap_is_flat(self):
        rng = np.random.default_rng(0)
        taps, h_freq = draw_channel(1, 32, rng)
        assert np.allclose(np.abs(h_freq), abs(taps[0]))

    def test_tap_energy(self):
        # variance-sum oracle: v taps of variance 1/v sum to 1
        rng = np.random.default_rng(1)
        energies = [np.sum(np.abs(draw_channel(10, 16, rng)[0]) ** 2) for _ in range(10_000)]
        assert abs(np.mean(energies) - 1.0) < 0.03

    def test_frequency_response_unit_power(self):
        rng = np.random.default_rng(2)
        beta = 5
        samples = [abs(draw_channel(10, 64, rng)[1][beta]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(samples) - 1.0) < 0.05

    def test_tap_count_bounds(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            draw_channel(0, 16, rng)
        with pytest.raises(ValueError):
            draw_channel(17, 16, rng)


class TestApplyFreq:
    def test_identity_channel(self):
        rng = np.random.default_rng(4)
        _, h_freq = draw_channel(1, 16, rng)
        h_freq[:] = 1.0
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(apply_freq(x, h_freq, 0.0, rng), x)

    def test_elementwise_gain(self):
        rng = np.random.default_rng(5)
        _, h_freq = draw_channel(6, 32, rng)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        y = apply_freq(x, h_freq, 0.0, rng)
        assert np.allclose(y / x, h_freq)

    def test_noise_variance(self):
        rng = np.random.default_rng(6)
        _, h_freq = draw_channel(1, 1024, rng)
        n0 = 2.0 * 10.0 ** (-3.0 / 10.0)
        x = np.zeros(1024, complex)
        samples = np.concatenate(
            [apply_freq(x, h_freq, n0, rng) for _ in range(100)]
        )
        measured = np.mean(np.abs(samples) ** 2)
        assert abs(measured / n0 - 1.0) < 0.03

    def test_length_mismatch(self):
        rng = np.random.default_rng(7)
        _, h_freq = draw_channel(2, 16, rng)
        with pytest.raises(ValueError, match=r"^h_freq must be an array of shape \(8,\), got \(16,\)$"):
            apply_freq(np.zeros(8, complex), h_freq, 0.0, rng)

    @pytest.mark.parametrize("x,h,name,got", [
        (np.complex128(1), np.ones(16, complex), "x_freq", "complex128"),
        (np.zeros(16, complex).tolist(), np.ones(16, complex), "x_freq", "list"),
        (np.zeros(16, complex), np.ones(16, complex).tolist(), "h_freq", "list"),
    ], ids=["scalar-x", "list-x", "list-h"])
    def test_non_arrays_named(self, x, h, name, got):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match=rf"^{name} must be an array of shape .*, got {got}$"):
            apply_freq(x, h, 0.0, rng)


class TestApplyTime:
    def test_unit_tap_identity(self):
        rng = np.random.default_rng(8)
        taps, _ = draw_channel(1, 16, rng)
        taps[:] = 1.0
        x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert np.allclose(apply_time(x, taps, 0.0, rng, cp_len=4), x)

    def test_tap_count_must_fit_cp(self):
        rng = np.random.default_rng(9)
        taps, _ = draw_channel(10, 64, rng)
        with pytest.raises(ValueError):
            apply_time(np.zeros(72, complex), taps, 0.0, rng, cp_len=8)

    @pytest.mark.parametrize("name", ["x_time", "taps"])
    def test_lists_named(self, name):
        rng = np.random.default_rng(9)
        args = {"x_time": np.zeros(72, complex), "taps": draw_channel(4, 64, rng)[0]}
        args[name] = args[name].tolist()
        with pytest.raises(ValueError, match=rf"^{name} must be an array of shape \(\*,\), got list$"):
            apply_time(args["x_time"], args["taps"], 0.0, rng, cp_len=8)

    def test_noise_variance_on_zero_input(self):
        rng = np.random.default_rng(10)
        taps, _ = draw_channel(4, 64, rng)
        n0 = 1.5
        x = np.zeros(1000, complex)
        samples = np.concatenate(
            [apply_time(x, taps, n0, rng, cp_len=16) for _ in range(100)]
        )
        assert abs(np.mean(np.abs(samples) ** 2) / n0 - 1.0) < 0.03

    def test_path_equivalence(self):
        # the central oracle: time-domain chain equals the per-subcarrier model
        rng = np.random.default_rng(11)
        n, cp_len, v = 64, 16, 10
        worst = 0.0
        for _ in range(100):
            taps, h_freq = draw_channel(v, n, rng)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            via_time = ofdm_demodulate(
                apply_time(ofdm_modulate(x, cp_len), taps, 0.0, rng, cp_len), cp_len
            )
            direct = x * h_freq
            worst = max(worst, np.max(np.abs(via_time - direct)) / np.max(np.abs(direct)))
        assert worst < 1e-9

    def test_path_equivalence_random_tap_counts(self):
        rng = np.random.default_rng(12)
        n, cp_len = 32, 12
        for _ in range(50):
            v = int(rng.integers(1, cp_len + 1))
            taps, h_freq = draw_channel(v, n, rng)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            via_time = ofdm_demodulate(
                apply_time(ofdm_modulate(x, cp_len), taps, 0.0, rng, cp_len), cp_len
            )
            assert np.max(np.abs(via_time - x * h_freq)) < 1e-9 * np.max(np.abs(x * h_freq))


class TestNoiseVariance:
    @pytest.mark.parametrize("path", ["freq", "time"])
    @pytest.mark.parametrize("n0", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_impossible_n0_named(self, path, n0):
        # a NaN or inf n0 would fill the block with it; a negative one has no square root
        rng = np.random.default_rng(13)
        taps, h_freq = draw_channel(4, 16, rng)
        x = np.ones(16, complex)
        with pytest.raises(ValueError, match=f"^n0 \\(noise variance\\) must be finite and >= 0, got {n0}$"):
            if path == "freq":
                apply_freq(x, h_freq, n0, rng)
            else:
                apply_time(x, taps, n0, rng, cp_len=4)


class TestInPlaceDraws:
    """The complex draws are built in place, byte for byte the values of
    ``(re + 1j * im) * scale`` with ``re, im = rng.standard_normal((2, n))``,
    and each call consumes the generator as that expression does."""

    @staticmethod
    def _complex_normal(n, scale, rng):
        re, im = rng.standard_normal((2, n))
        return (re + 1j * im) * scale

    @staticmethod
    def _same_state(rng, ref):
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("v,n", [(1, 1), (1, 16), (4, 16), (10, 64), (16, 128), (144, 256)])
    def test_draw_channel(self, v, n):
        rng = np.random.default_rng(v * 1000 + n)
        for _ in range(5):
            ref = copy.deepcopy(rng)
            taps, h_freq = draw_channel(v, n, rng)
            want = self._complex_normal(v, math.sqrt(0.5 / v), ref)
            assert taps.dtype == np.complex128 and taps.shape == (v,)
            assert taps.tobytes() == want.tobytes()
            assert h_freq.tobytes() == np.fft.fft(want, n).tobytes()
            self._same_state(rng, ref)

    @pytest.mark.parametrize("n0", [0.0, 1e-3, 0.37, 2.0, 40.0])
    @pytest.mark.parametrize("n", [1, 16, 80, 128])
    @pytest.mark.parametrize("real_x", [False, True], ids=["complex-x", "real-x"])
    def test_apply_freq_noise(self, n, n0, real_x):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + (0.0 if real_x else 1j * rng.standard_normal(n))
        _, h_freq = draw_channel(1, n, rng)
        for _ in range(5):
            ref = copy.deepcopy(rng)
            y = apply_freq(x, h_freq, n0, rng)
            noise = (self._complex_normal(n, math.sqrt(n0 / 2.0), ref) if n0 > 0.0
                     else np.zeros(n, dtype=np.complex128))
            assert y.tobytes() == (x * h_freq + noise).tobytes()
            self._same_state(rng, ref)

    @pytest.mark.parametrize("n0", [0.0, 1e-3, 0.37, 2.0])
    @pytest.mark.parametrize("v,n,cp_len", [(1, 16, 4), (4, 32, 8), (10, 64, 16), (16, 128, 16)])
    def test_apply_time_noise(self, v, n, cp_len, n0):
        rng = np.random.default_rng(v + n)
        taps, _ = draw_channel(v, n, rng)
        x = ofdm_modulate(rng.standard_normal(n) + 1j * rng.standard_normal(n), cp_len)
        for _ in range(5):
            ref = copy.deepcopy(rng)
            y = apply_time(x, taps, n0, rng, cp_len)
            noise = (self._complex_normal(len(x), math.sqrt(n0 / 2.0), ref) if n0 > 0.0
                     else np.zeros(len(x), dtype=np.complex128))
            assert y.shape == x.shape
            assert y.tobytes() == (np.convolve(x, taps)[: len(x)] + noise).tobytes()
            self._same_state(rng, ref)
