"""Tests for the phase-noise process, covariance and carrier offset."""

import numpy as np
import pytest
from scipy import signal

from pncomp import numerics as nx
from pncomp.phase_noise import (CarrierOffset, PhaseNoiseRealization,
                                PnGenerator, PnModel, apply_offset,
                                estimate_cov, load_pn_samples,
                                offset_factor, save_pn_samples)

from oracles import gen_pn


class TestGenPn:
    def test_sigma_zero_gives_ones(self):
        real = gen_pn(PnModel(sigma_deg=0.0, seed=1), 64)
        np.testing.assert_allclose(real.psi, np.ones(64), atol=1e-14)

    def test_deterministic(self):
        a = gen_pn(PnModel(sigma_deg=3.0, seed=2), 64)
        b = gen_pn(PnModel(sigma_deg=3.0, seed=2), 64)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_unit_modulus(self):
        real = gen_pn(PnModel(sigma_deg=5.0, seed=3), 256)
        assert np.max(np.abs(np.abs(real.psi) - 1.0)) <= 1e-12

    def test_std_calibration(self):
        # long-run empirical std of phi matches the target within 2%
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=3))
        phi = gen.next_phi(100_000)
        assert abs(np.rad2deg(np.std(phi)) - 3.0) <= 0.06

    def test_continuity_across_symbols(self):
        # one generator streaming two symbols equals one longer draw
        a = PnGenerator(PnModel(sigma_deg=3.0, seed=4))
        b = PnGenerator(PnModel(sigma_deg=3.0, seed=4))
        two = np.concatenate([a.next_phi(64), a.next_phi(64)])
        one = b.next_phi(128)
        np.testing.assert_allclose(two, one, atol=1e-14)

    def test_rejects_bad_model(self):
        with pytest.raises(ValueError):
            PnModel(sigma_deg=-1.0)
        with pytest.raises(ValueError):
            PnModel(sigma_deg=1.0, cutoff=0.7)

    def test_filter_designed_once_per_shape(self):
        # generators that differ only in seed and sigma share one filter
        # design, and draw what a freshly designed filter gives bit for bit
        a = PnGenerator(PnModel(sigma_deg=3.0, seed=11, cutoff=0.004))
        b = PnGenerator(PnModel(sigma_deg=5.0, seed=12, cutoff=0.004))
        assert a._b is b._b and a._a is b._a
        for sigma, seed, gen in ((3.0, 11, a), (5.0, 12, b)):
            fb, fa = signal.cheby1(2, 1.0, 2.0 * 0.004)
            h = signal.lfilter(fb, fa, np.r_[1.0, np.zeros((1 << 15) - 1)])
            scale = np.deg2rad(sigma) / np.sqrt(np.sum(h * h))
            rng = np.random.default_rng(seed)
            _, zi = signal.lfilter(fb, fa, rng.standard_normal(20_000),
                                   zi=np.zeros(2))
            y, _ = signal.lfilter(fb, fa, rng.standard_normal(200), zi=zi)
            assert np.array_equal(gen.next_phi(200), scale * y)


class TestEstimateCov:
    def test_single_realization_rank_one(self):
        real = gen_pn(PnModel(sigma_deg=3.0, seed=5), 64)
        cov = estimate_cov([real])
        eig = nx.herm_eig(cov.r)
        assert abs(eig.values[0] - 64) <= 1e-9
        assert np.max(np.abs(eig.values[1:])) <= 1e-9

    def test_zero_phase_gives_all_ones(self):
        reals = [PhaseNoiseRealization.from_phi(np.zeros(16))] * 3
        cov = estimate_cov(reals)
        np.testing.assert_allclose(cov.r, np.ones((16, 16)), atol=1e-14)

    def test_unit_diagonal_and_psd(self):
        gen = PnGenerator(PnModel(sigma_deg=4.0, seed=6))
        cov = estimate_cov([gen.next(64) for _ in range(50)])
        np.testing.assert_allclose(np.diag(cov.r).real, np.ones(64), atol=1e-6)
        assert np.max(np.abs(np.diag(cov.r).imag)) <= 1e-12
        eig = nx.herm_eig(cov.r)
        assert eig.values[-1] >= -1e-9 * np.trace(cov.r).real / 64

    def test_spectrum_concentration(self):
        # ten symbols at 3 degrees: four eigenvectors carry >= 99% of trace
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=7))
        cov = estimate_cov([gen.next(64) for _ in range(10)])
        eig = nx.herm_eig(cov.r)
        assert np.sum(eig.values[:4]) >= 0.99 * np.sum(eig.values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_cov([])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            estimate_cov([PhaseNoiseRealization.from_phi(np.zeros(8)),
                          PhaseNoiseRealization.from_phi(np.zeros(16))])


class TestCarrierOffset:
    def test_ppm_zero_unchanged(self):
        real = gen_pn(PnModel(sigma_deg=3.0, seed=8), 64)
        off = CarrierOffset(ppm=0.0, carrier_hz=5e9, sample_rate_hz=20e6)
        out = apply_offset(real, off, start_sample=100)
        np.testing.assert_array_equal(out.psi, real.psi)

    def test_full_ramp(self):
        # delta_f * Ts = 1/N turns all-ones into one full phase ramp
        n = 64
        real = PhaseNoiseRealization.from_phi(np.zeros(n))
        off = CarrierOffset(ppm=1.0, carrier_hz=1e6 / n, sample_rate_hz=1.0)
        out = apply_offset(real, off, start_sample=0)
        expected = np.exp(2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(out.psi, expected, atol=1e-12)

    def test_absolute_sample_counter(self):
        real = gen_pn(PnModel(sigma_deg=2.0, seed=9), 64)
        off = CarrierOffset(ppm=5.0, carrier_hz=5e9, sample_rate_hz=20e6)
        a = apply_offset(real, off, start_sample=64)
        b = apply_offset(real, off, start_sample=0)
        ramp = np.exp(1j * off.phase_per_sample * 64)
        np.testing.assert_allclose(a.psi, b.psi * ramp, atol=1e-12)

    def test_covariance_modulation_identity(self):
        # R built from offset realizations equals diag(c) R diag(c)*
        n = 64
        off = CarrierOffset(ppm=5.0, carrier_hz=5e9, sample_rate_hz=20e6)
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=10))
        reals = [gen.next(n) for _ in range(20)]
        # same start sample for every window so one common ramp factors out
        shifted = [apply_offset(r, off, start_sample=0) for r in reals]
        r_plain = estimate_cov(reals).r
        r_shift = estimate_cov(shifted).r
        c = offset_factor(off, 0, n)
        np.testing.assert_allclose(r_shift, np.diag(c) @ r_plain @ np.diag(c).conj().T,
                                   atol=1e-10)

    def test_eigenvector_modulation_identity(self):
        # eigenpairs of diag(c) R diag(c)* are (lambda_i, diag(c) u_i)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        r = a @ a.conj().T
        c = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        e_plain = nx.herm_eig(r)
        e_mod = nx.herm_eig(np.diag(c) @ r @ np.diag(c).conj().T)
        np.testing.assert_allclose(e_mod.values, e_plain.values, atol=1e-9)
        for i in range(16):
            u_expect = c * e_plain.vectors[:, i]
            overlap = np.abs(np.vdot(e_mod.vectors[:, i], u_expect))
            assert abs(overlap - 1.0) <= 1e-9


class TestPnFiles:
    def test_zeros_file(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n" * 32)
        reals = list(load_pn_samples(path, 16))
        assert len(reals) == 2
        np.testing.assert_array_equal(reals[0].psi, np.ones(16))

    def test_round_trip_bit_identical(self, tmp_path):
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=12))
        phi = gen.next_phi(128)
        path = tmp_path / "pn.txt"
        save_pn_samples(path, phi)
        loaded = np.concatenate([r.phi for r in load_pn_samples(path, 64)])
        np.testing.assert_array_equal(loaded, phi)

    def test_window_count(self, tmp_path):
        path = tmp_path / "pn.txt"
        save_pn_samples(path, np.linspace(0, 1, 5 * 16 + 7))
        assert len(list(load_pn_samples(path, 16))) == 5

    def test_re_im_pairs_projected(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("2.0,0.0\n" + "0.0,3.0\n" * 15)
        (real,) = load_pn_samples(path, 16)
        assert np.max(np.abs(np.abs(real.psi) - 1.0)) <= 1e-12
        assert abs(real.phi[1] - np.pi / 2) <= 1e-12

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="malformed"):
            list(load_pn_samples(path, 1))

    def test_too_short(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n")
        with pytest.raises(ValueError):
            list(load_pn_samples(path, 16))
