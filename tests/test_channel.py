"""Tests for multipath channel generation, application and AWGN."""

import numpy as np
import pytest

from pncomp.channel import (ChannelState, NoiseSpec, apply_channel, from_taps,
                            gen_channel, load_channel_taps)

from oracles import dft_matrix


def circulant_multiply_oracle(h, x):
    """Dense O(N^2) circular convolution: y_n = sum_m h_m x_{(n-m) mod N}."""
    n = len(x)
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        for m in range(n):
            y[i] += h[m] * x[(i - m) % n]
    return y


class TestGenChannel:
    def test_flat_single_tap(self):
        ch = gen_channel(1, "uniform", seed=0)
        mags = np.abs(ch.lam[0])
        assert np.max(mags) - np.min(mags) <= 1e-12

    def test_deterministic(self):
        a = gen_channel(8, "exp_decay(3)", seed=5, n_rx=2)
        b = gen_channel(8, "exp_decay(3)", seed=5, n_rx=2)
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_normalization_monte_carlo(self):
        # mean per-tone gain E|lambda_k|^2 = 1 over many draws
        acc = 0.0
        n_draws = 10_000
        for seed in range(n_draws):
            ch = gen_channel(8, "exp_decay(3)", seed=seed, n=16)
            acc += np.mean(np.abs(ch.lam) ** 2)
        assert abs(acc / n_draws - 1.0) <= 0.05

    def test_diagonalization_identity(self):
        # lambda = sqrt(N) fft(taps) must diagonalize the circulant operator
        ch = gen_channel(8, "uniform", seed=1, n=64)
        f = dft_matrix(64)
        h_dense = f.conj().T @ np.diag(ch.lam[0]) @ f
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        oracle = circulant_multiply_oracle(ch.taps[0], x)
        assert np.max(np.abs(h_dense @ x - oracle)) <= 1e-10

    def test_rejects_too_many_taps(self):
        with pytest.raises(ValueError):
            gen_channel(65, "uniform", seed=0, n=64)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            gen_channel(4, "rayleigh", seed=0)

    def test_exp_decay_parameter(self):
        # smaller tau concentrates energy in the first tap
        fast = gen_channel(8, "exp_decay(0.5)", seed=3)
        slow = gen_channel(8, "exp_decay(10)", seed=3)
        def first_tap_share(ch):
            p = np.abs(ch.taps[0]) ** 2
            return p[0] / p.sum()
        assert first_tap_share(fast) > first_tap_share(slow)


class TestApplyChannel:
    def test_identity_channel(self):
        ch = from_taps([1.0], 64)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = apply_channel(ch, x, NoiseSpec(snr_db=np.inf))
        np.testing.assert_allclose(y[0], x, atol=1e-12)

    def test_matches_circulant_oracle(self):
        ch = gen_channel(8, "uniform", seed=6, n=64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = apply_channel(ch, x, NoiseSpec(snr_db=np.inf))
        oracle = circulant_multiply_oracle(ch.taps[0], x)
        assert np.max(np.abs(y[0] - oracle)) <= 1e-10

    def test_noise_calibration(self):
        # x = 0: output is noise alone at the configured power
        ch = from_taps([1.0], 64)
        rng = np.random.default_rng(8)
        total, count = 0.0, 0
        for _ in range(200):
            y = apply_channel(ch, np.zeros(64), NoiseSpec(snr_db=20.0), rng=rng)
            total += float(np.sum(np.abs(y) ** 2))
            count += y.size
        assert abs(total / count / 1e-2 - 1.0) <= 0.05

    def test_noise_deterministic_by_seed(self):
        ch = from_taps([1.0], 64)
        x = np.ones(64, dtype=complex)
        a = apply_channel(ch, x, NoiseSpec(snr_db=10.0, seed=3))
        b = apply_channel(ch, x, NoiseSpec(snr_db=10.0, seed=3))
        np.testing.assert_array_equal(a, b)

    def test_branch_noise_uncorrelated(self):
        ch = gen_channel(1, "uniform", seed=9, n_rx=2, n=64)
        rng = np.random.default_rng(10)
        na, nb = [], []
        for _ in range(1600):  # > 1e5 samples
            y = apply_channel(ch, np.zeros(64), NoiseSpec(snr_db=0.0), rng=rng)
            na.append(y[0])
            nb.append(y[1])
        na = np.concatenate(na)
        nb = np.concatenate(nb)
        corr = np.abs(np.vdot(na, nb)) / (np.linalg.norm(na) * np.linalg.norm(nb))
        assert corr < 0.05

    def test_rejects_wrong_length(self):
        ch = from_taps([1.0], 64)
        with pytest.raises(ValueError):
            apply_channel(ch, np.zeros(32), NoiseSpec(snr_db=np.inf))


class TestTapImport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        path = tmp_path / "taps.csv"
        path.write_text("".join(f"{t.real:.18e},{t.imag:.18e}\n" for t in taps))
        ch = load_channel_taps(path, n=64)
        np.testing.assert_allclose(ch.taps[0, :8], taps, atol=1e-15)
        np.testing.assert_array_equal(ch.taps[0, 8:], np.zeros(56))

    def test_multi_branch(self, tmp_path):
        path = tmp_path / "taps.csv"
        path.write_text("1,0\n0,0\n0,1\n0,0\n")
        ch = load_channel_taps(path, n=16, n_rx=2)
        assert ch.n_rx == 2
        assert ch.taps[0, 0] == 1.0 and ch.taps[1, 0] == 1j

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "taps.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_channel_taps(path, n=16)
