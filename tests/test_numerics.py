"""Tests for the complex linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncomp import numerics as nx

from oracles import dft_matrix


def rand_cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rand_cmat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestFFT:
    def test_delta(self):
        np.testing.assert_allclose(nx.fft([1, 0, 0, 0]),
                                   [0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_all_ones_is_dc(self):
        np.testing.assert_allclose(nx.fft([1, 1, 1, 1]),
                                   [2, 0, 0, 0], atol=1e-14)

    def test_matches_dense_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = rand_cvec(rng, 64)
        np.testing.assert_allclose(nx.fft(x), dft_matrix(64) @ x,
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rand_cvec(rng, n)
        assert np.max(np.abs(nx.ifft(nx.fft(x)) - x)) <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rand_cvec(rng, 64)
        assert abs(np.linalg.norm(nx.fft(x)) - np.linalg.norm(x)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_any_length(self, n):
        # numpy's unitary transform: no power-of-two restriction
        x = rand_cvec(np.random.default_rng(n), n)
        np.testing.assert_allclose(nx.fft(x), dft_matrix(n) @ x, atol=1e-12)
        assert np.max(np.abs(nx.ifft(nx.fft(x)) - x)) <= 1e-12

    def test_bits_of_n64_stack(self):
        # at N = 64 the unitary scale 1/8 is a power of two, so it is exact
        rng = np.random.default_rng(15)
        x = (rng.standard_normal((32, 2, 8, 64))
             + 1j * rng.standard_normal((32, 2, 8, 64)))
        assert np.array_equal(nx.fft(x), np.fft.fft(x) / 8)
        assert np.array_equal(nx.ifft(x), np.fft.ifft(x) * 8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        x = rand_cvec(np.random.default_rng(seed), 16)
        assert np.max(np.abs(nx.ifft(nx.fft(x)) - x)) <= 1e-12


class TestHermEig:
    def test_identity(self):
        values, _ = nx.herm_eig(np.eye(3))
        np.testing.assert_allclose(values, [1, 1, 1], atol=1e-14)

    def test_analytic_2x2(self):
        values, vectors = nx.herm_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [3, 1], atol=1e-12)
        v = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(vectors[:, 0], v)) - 1) < 1e-12
        w = np.array([1, -1]) / np.sqrt(2)
        assert abs(abs(np.vdot(vectors[:, 1], w)) - 1) < 1e-12

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        u = rand_cvec(rng, 5)
        u *= 2.0 / np.linalg.norm(u)
        values, _ = nx.herm_eig(np.outer(u, u.conj()))
        np.testing.assert_allclose(values, [4, 0, 0, 0, 0], atol=1e-12)

    def test_reconstruction_and_residual(self):
        rng = np.random.default_rng(3)
        a = rand_cmat(rng, 8, 8)
        a = a + a.conj().T
        values, vectors = nx.herm_eig(a)
        fro = np.linalg.norm(a)
        recon = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(a - recon) <= 1e-9 * fro
        for i in range(8):
            v = vectors[:, i]
            assert abs(np.linalg.norm(v) - 1) < 1e-10
            assert np.linalg.norm(a @ v - values[i] * v) <= 1e-9 * fro

    def test_descending_order(self):
        rng = np.random.default_rng(4)
        a = rand_cmat(rng, 10, 10)
        values, _ = nx.herm_eig(a @ a.conj().T)
        assert np.all(np.diff(values) <= 1e-12)

    def test_sample_covariance_is_psd(self):
        rng = np.random.default_rng(5)
        x = rand_cmat(rng, 6, 40)
        values, _ = nx.herm_eig(x @ x.conj().T / 40)
        assert np.all(values >= -1e-10)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(6)
        a = rand_cmat(rng, 6, 6)
        a = a @ a.conj().T
        (_, v1), (_, v2) = nx.herm_eig(a), nx.herm_eig(a.copy())
        np.testing.assert_array_equal(v1, v2)
        # pivot entries are real positive
        for j in range(6):
            piv = v1[np.argmax(np.abs(v1[:, j])), j]
            assert piv.real > 0 and abs(piv.imag) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            nx.herm_eig(np.zeros((2, 3)))


class TestSvd:
    def test_diag_entries(self):
        _, sigma, _ = nx.svd(np.diag([3.0, -4.0]).astype(complex))
        np.testing.assert_allclose(sigma, [4, 3], atol=1e-12)

    def test_zero_matrix(self):
        _, sigma, _ = nx.svd(np.zeros((3, 2), dtype=complex))
        np.testing.assert_allclose(sigma, [0, 0], atol=0)

    def test_reconstruction_and_orthonormality(self):
        # reduced: u is m x k and q is n x k, k = min(m, n)
        rng = np.random.default_rng(7)
        for m, n in ((16, 5), (5, 16)):
            a = rand_cmat(rng, m, n)
            u, sigma, q = nx.svd(a)
            k = min(m, n)
            assert u.shape == (m, k) and q.shape == (n, k)
            recon = u @ np.diag(sigma) @ q.conj().T
            assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-10
            assert np.linalg.norm(q.conj().T @ q - np.eye(k)) < 1e-10

    def test_against_gram_eig_oracle(self):
        # singular values are the square roots of the A*A eigenvalues
        rng = np.random.default_rng(8)
        a = rand_cmat(rng, 16, 5)
        _, sigma, _ = nx.svd(a)
        gram_values, _ = nx.herm_eig(a.conj().T @ a)
        np.testing.assert_allclose(sigma,
                                   np.sqrt(np.maximum(gram_values, 0)),
                                   atol=1e-10)


class TestPinv:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rand_cmat(rng, 8, 3))
        np.testing.assert_allclose(nx.pinv(q), q.conj().T, atol=1e-12)

    def test_singular_diag(self):
        np.testing.assert_allclose(nx.pinv(np.diag([2.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-14)

    def test_against_normal_equation_oracle(self):
        rng = np.random.default_rng(10)
        w = rand_cmat(rng, 16, 8)
        oracle = np.linalg.solve(w.conj().T @ w, w.conj().T)
        assert np.linalg.norm(nx.pinv(w) - oracle) < 1e-8
        assert np.linalg.norm(nx.pinv(w) @ w - np.eye(8)) < 1e-9

    def test_penrose_conditions(self):
        rng = np.random.default_rng(11)
        a = rand_cmat(rng, 7, 4)
        ap = nx.pinv(a)
        fro = np.linalg.norm(a)
        assert np.linalg.norm(a @ ap @ a - a) <= 1e-8 * fro
        assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-8 * fro

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(12)
        a = rand_cmat(rng, 6, 4)
        assert (np.linalg.norm(nx.pinv(nx.pinv(a)) - a)
                <= 1e-8 * np.linalg.norm(a))

    @pytest.mark.parametrize("shape, rank", [
        ((32, 4), 4), ((20, 9), 9), ((4, 32), 4), ((6, 6), 6),
        ((32, 5), 3), ((5, 12), 2), ((1, 7), 1), ((9, 1), 1)])
    def test_stack_shape_and_dtype(self, shape, rank):
        # a matrix (m, n) or a stack (..., m, n) gives complex (..., n, m),
        # each matrix of a stack with the bits it has alone; rank < min
        # shape leaves singular values of round-off size below the cutoff
        rng = np.random.default_rng(13)
        stack = np.array([rand_cmat(rng, shape[0], rank)
                          @ rand_cmat(rng, rank, shape[1]) for _ in range(20)])
        alone = np.array([nx.pinv(a) for a in stack])
        assert alone.shape == (20, *shape[::-1])
        assert alone.dtype == np.complex128
        assert np.array_equal(nx.pinv(stack), alone)
        assert np.array_equal(nx.pinv(stack.reshape(4, 5, *shape)),
                              alone.reshape(4, 5, *shape[::-1]))

    def test_stack_mixing_full_rank_and_cut_off(self):
        # each matrix of a stack has its own cutoff: rcond times its own
        # largest singular value
        rng = np.random.default_rng(14)
        mixed = np.array([rand_cmat(rng, 3, 3),
                          np.diag([2.0, 1e-13, 0.0]).astype(complex),
                          1e6 * rand_cmat(rng, 3, 3),
                          rand_cmat(rng, 3, 1) @ rand_cmat(rng, 1, 3),
                          np.diag([1e-20, 1e-33, 1e-20]).astype(complex),
                          np.zeros((3, 3), dtype=complex)])
        got = nx.pinv(mixed)
        assert np.array_equal(got,
                              np.linalg.pinv(mixed, rcond=nx.DEFAULT_RCOND))
        for a, a_pinv in zip(mixed, got):
            assert np.array_equal(a_pinv, nx.pinv(a))
        assert np.array_equal(got[1], np.diag([0.5, 0.0, 0.0]))
        assert np.array_equal(got[5], np.zeros((3, 3)))
