"""Tests for multipath channel generation, application and AWGN."""

import numpy as np
import pytest

from pncomp.channel import apply_channel, from_taps, gen_channel, tap_weights

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
        lam = gen_channel(1, "uniform", seed=0)
        mags = np.abs(lam[0])
        assert np.max(mags) - np.min(mags) <= 1e-12

    def test_deterministic(self):
        a = gen_channel(8, "exp_decay(3)", seed=5, n_rx=2)
        b = gen_channel(8, "exp_decay(3)", seed=5, n_rx=2)
        assert a.shape == (2, 64)
        np.testing.assert_array_equal(a, b)

    def test_normalization_monte_carlo(self):
        # mean per-tone gain E|lambda_k|^2 = 1 over many draws
        acc = 0.0
        n_draws = 10_000
        for seed in range(n_draws):
            lam = gen_channel(8, "exp_decay(3)", seed=seed, n=16)
            acc += np.mean(np.abs(lam) ** 2)
        assert abs(acc / n_draws - 1.0) <= 0.05

    def test_diagonalization_identity(self):
        # lambda = sqrt(N) fft(taps) must diagonalize the circulant operator
        rng = np.random.default_rng(1)
        taps = np.zeros(64, dtype=complex)
        taps[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lam = from_taps(taps[:8], 64)
        f = dft_matrix(64)
        h_dense = f.conj().T @ np.diag(lam[0]) @ f
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        oracle = circulant_multiply_oracle(taps, x)
        assert np.max(np.abs(h_dense @ x - oracle)) <= 1e-10

    def test_rejects_too_many_taps(self):
        with pytest.raises(ValueError):
            gen_channel(65, "uniform", seed=0, n=64)
        with pytest.raises(ValueError):  # the zero-padding cannot hold them
            from_taps(np.ones(65), 64)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            gen_channel(4, "rayleigh", seed=0)

    def test_exp_decay_parameter(self):
        # smaller tau concentrates energy in the first tap
        fast = gen_channel(8, "exp_decay(0.5)", seed=3)
        slow = gen_channel(8, "exp_decay(10)", seed=3)
        def first_tap_share(lam):
            # the taps: numpy's unnormalized ifft inverts sqrt(N) fft(taps)
            p = np.abs(np.fft.ifft(lam[0])) ** 2
            return p[0] / p.sum()
        assert first_tap_share(fast) > first_tap_share(slow)


class TestTapWeights:
    @pytest.mark.parametrize("profile", [
        "exp_decay_foo", "exp_decay(2)junk", "exp_decay(inf)", "exp_decay(3",
        "exp_decay()", "exp_decay(nan)", "exp_decay(-1)", "exp_decay(0)",
        "exp_decay (3)", "rayleigh"])
    def test_rejects_malformed_profile(self, profile):
        with pytest.raises(ValueError, match="channel_profile"):
            tap_weights(4, profile, 64)

    @pytest.mark.parametrize("profile, tau", [
        ("exp_decay", 3.0), ("exp_decay(3)", 3.0), ("exp_decay(0.5)", 0.5),
        ("exp_decay( 2.5 )", 2.5), ("exp_decay(1e1)", 10.0)])
    def test_exp_decay_tau(self, profile, tau):
        w = np.exp(-np.arange(6) / tau)
        assert np.array_equal(tap_weights(6, profile, 64), w / w.sum())


class TestApplyChannel:
    def test_identity_channel(self):
        lam = from_taps([1.0], 64)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = apply_channel(lam, x, np.inf, np.random.default_rng(0))
        np.testing.assert_allclose(y[0], x, atol=1e-12)

    def test_matches_circulant_oracle(self):
        rng = np.random.default_rng(6)
        taps = np.zeros(64, dtype=complex)
        taps[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lam = from_taps(taps, 64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = apply_channel(lam, x, np.inf, np.random.default_rng(0))
        oracle = circulant_multiply_oracle(taps, x)
        assert np.max(np.abs(y[0] - oracle)) <= 1e-10

    def test_noise_calibration(self):
        # x = 0: output is noise alone at the configured power
        lam = from_taps([1.0], 64)
        rng = np.random.default_rng(8)
        total, count = 0.0, 0
        for _ in range(200):
            y = apply_channel(lam, np.zeros(64), 20.0, rng=rng)
            total += float(np.sum(np.abs(y) ** 2))
            count += y.size
        assert abs(total / count / 1e-2 - 1.0) <= 0.05

    def test_noise_deterministic_by_seed(self):
        lam = from_taps([1.0], 64)
        x = np.ones(64, dtype=complex)
        a = apply_channel(lam, x, 10.0,
                          rng=np.random.default_rng(3))
        b = apply_channel(lam, x, 10.0,
                          rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_branch_noise_uncorrelated(self):
        lam = gen_channel(1, "uniform", seed=9, n_rx=2, n=64)
        rng = np.random.default_rng(10)
        na, nb = [], []
        for _ in range(1600):  # > 1e5 samples
            y = apply_channel(lam, np.zeros(64), 0.0, rng=rng)
            na.append(y[0])
            nb.append(y[1])
        na = np.concatenate(na)
        nb = np.concatenate(nb)
        corr = np.abs(np.vdot(na, nb)) / (np.linalg.norm(na) * np.linalg.norm(nb))
        assert corr < 0.05

    def test_rejects_wrong_length(self):
        lam = from_taps([1.0], 64)
        with pytest.raises(ValueError):
            apply_channel(lam, np.zeros(32), np.inf,
                          np.random.default_rng(0))
