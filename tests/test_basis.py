"""Tests for KL / DFT / DCT compensation bases."""

import numpy as np
import pytest

from pncomp import numerics as nx
from pncomp.basis import dct_basis, dft_basis, dft_low_freq_order, kl_basis
from pncomp.phase_noise import PnGenerator, estimate_cov


@pytest.fixture(scope="module")
def cov_3deg():
    gen = PnGenerator(0, (3.0,))
    return estimate_cov([gen.next(64)[0] for _ in range(10_000)])


def mean_residual(v, rows):
    proj = v @ np.linalg.pinv(v)
    total = 0.0
    for psi in rows:
        total += np.linalg.norm(psi - proj @ psi) / np.linalg.norm(psi)
    return total / len(rows)


class TestKlBasis:
    def test_all_ones_cov(self):
        cov = np.ones((16, 16), dtype=complex)
        bas = kl_basis(cov, 1)
        np.testing.assert_allclose(bas[:, 0], np.ones(16) / 4.0, atol=1e-12)

    def test_identity_cov_reconstruction(self):
        cov = np.eye(8, dtype=complex)
        bas = kl_basis(cov, 8)
        recon = bas @ bas.conj().T
        assert np.linalg.norm(recon - np.eye(8)) <= 1e-9

    def test_fresh_realization_residual(self, cov_3deg):
        bas = kl_basis(cov_3deg, 8)
        gen = PnGenerator(99, (3.0,))
        fresh = [gen.next(64)[0] for _ in range(200)]
        assert mean_residual(bas, fresh) < 0.01

    def test_d_range(self, cov_3deg):
        with pytest.raises(ValueError):
            kl_basis(cov_3deg, 0)
        with pytest.raises(ValueError):
            kl_basis(cov_3deg, 65)

    def test_subspace_optimality_small_n(self):
        # KL span maximizes captured energy trace(V* R V) over orthonormal
        # families; exhaustive eigen-oracle plus random-family comparison
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        r = a @ a.conj().T
        d = 3
        bas = kl_basis(r, d)
        captured = np.trace(bas.conj().T @ r @ bas).real
        values, _ = nx.herm_eig(r)
        assert abs(captured - np.sum(values[:d])) <= 1e-9 * captured
        for trial in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((8, d))
                                + 1j * rng.standard_normal((8, d)))
            rand_cap = np.trace(q.conj().T @ r @ q).real
            assert rand_cap <= captured + 1e-9 * captured

    def test_kl_beats_dft_residual(self, cov_3deg):
        gen = PnGenerator(77, (3.0,))
        fresh = [gen.next(64)[0] for _ in range(200)]
        for d in (4, 6, 8):
            kl = mean_residual(kl_basis(cov_3deg, d), fresh)
            dft = mean_residual(dft_basis(64, d), fresh)
            assert kl <= dft


class TestDftBasis:
    def test_d1_is_constant(self):
        bas = dft_basis(64, 1)
        np.testing.assert_allclose(bas[:, 0], np.full(64, 1 / 8.0), atol=1e-12)

    def test_low_freq_ordering(self):
        assert dft_low_freq_order(8) == [0, 1, 7, 2, 6, 3, 5, 4]
        bas = dft_basis(64, 3)
        m = np.arange(64)
        for col, k in zip(range(3), (0, 1, 63)):
            expected = np.exp(2j * np.pi * k * m / 64) / 8.0
            np.testing.assert_allclose(bas[:, col], expected, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 4, 16, 64])
    def test_orthonormal(self, d):
        bas = dft_basis(64, d)
        gram = bas.conj().T @ bas
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-12

    def test_kind_and_shape(self):
        # the basis is its (N, d) matrix; the builder names its kind
        bas = dft_basis(64, 5)
        assert bas.shape == (64, 5) and bas.dtype == np.complex128


class TestDctBasis:
    def test_d1_constant(self):
        bas = dct_basis(64, 1)
        np.testing.assert_allclose(bas[:, 0], np.full(64, 1 / 8.0), atol=1e-12)

    def test_full_orthonormal(self):
        bas = dct_basis(32, 32)
        gram = bas.conj().T @ bas
        assert np.max(np.abs(gram - np.eye(32))) <= 1e-12

    def test_real_valued(self):
        bas = dct_basis(16, 8)
        assert np.max(np.abs(bas.imag)) == 0.0

    def test_matches_scipy_oracle(self):
        from scipy.fft import dct
        bas = dct_basis(16, 16)
        oracle = dct(np.eye(16), type=2, norm="ortho", axis=0)
        np.testing.assert_allclose(bas.real, oracle.T, atol=1e-12)
