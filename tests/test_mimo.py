"""Tests for the multiuser uplink extension (ZF beamforming, joint fit)."""

import numpy as np
import pytest

from pncomp import numerics as nx
from pncomp.basis import dft_basis
from pncomp.channel import NoiseSpec, from_taps, gen_channel
from pncomp.compensator import build_w, compensate, fit_gamma, receiver
from pncomp.mimo import (RANK_TOL, MuSystem, ZfBeamformer, mu_build_w,
                         mu_compensate, mu_receiver, mu_received,
                         zf_beamformer)
from pncomp.ofdm import (Constellation, ToneLayout, default_layout, evm_db,
                         make_symbol)

from oracles import dft_matrix


@pytest.fixture(scope="module")
def qam():
    return Constellation.qam(256)


def make_system(seed, n_users=2, n_rx=2, n=64, n_taps=8):
    chans = tuple(gen_channel(n_taps, "exp_decay(3)", seed=seed + u,
                              n_rx=n_rx, n=n) for u in range(n_users))
    return MuSystem(channels=chans)


def mu_comp(sys_, z, bas, refs):
    """mu_compensate with the system's beamformer and receiver."""
    bf = zf_beamformer(sys_)
    return mu_compensate(z, bas, refs, bf, mu_receiver(bf, refs[0].layout))


class TestMuSystem:
    def test_shape_properties(self):
        sys_ = make_system(0)
        assert sys_.n_users == 2 and sys_.n_rx == 2 and sys_.n == 64
        assert sys_.lam.shape == (64, 2, 2)

    def test_rejects_more_users_than_antennas(self):
        chans = tuple(gen_channel(4, "uniform", seed=u, n_rx=1, n=16)
                      for u in range(2))
        with pytest.raises(ValueError):
            MuSystem(channels=chans)


def per_tone_zf(sys_):
    """The per-tone SVD loop that zf_beamformer's stacked SVD replaced,
    kept as the reference: returns (b, ok_tones)."""
    lam = sys_.lam
    n, n_rx, n_users = lam.shape
    b = np.zeros((n, n_users, n_rx), dtype=np.complex128)
    ok = np.zeros(n, dtype=bool)
    for k in range(n):
        u, s, vh = np.linalg.svd(lam[k], full_matrices=False)
        ok[k] = s[-1] > RANK_TOL * s[0] and s[0] > 0
        if ok[k]:
            b[k] = (vh.conj().T * (1.0 / s)) @ u.conj().T
    return b, ok


class TestZfBeamformer:
    @pytest.mark.filterwarnings("error")  # no division by a zero singular value
    @pytest.mark.parametrize("chans", [
        lambda: make_system(30).channels,
        lambda: make_system(31, n_users=3, n_rx=3).channels,
        lambda: make_system(32, n_users=2, n_rx=4).channels,
        lambda: make_system(33, n_users=1, n_rx=2).channels,
        # the users' columns are parallel on tone 0 only
        lambda: (from_taps(np.array([[1.0], [1.0]]), 16),
                 from_taps(np.array([[1.0, 0.0], [0.0, 1.0]]), 16)),
        # user 0 is zero on every branch at tone 8
        lambda: (from_taps(np.array([[1.0, 1.0], [1.0, 1.0]]), 16),
                 from_taps(np.array([[1.0, 1.0], [2.0, -2.0]]), 16)),
        # both users are zero on every branch at tone 8
        lambda: (from_taps(np.array([[1.0, 1.0], [1.0, 1.0]]), 16),
                 from_taps(np.array([[1.0, 1.0], [2.0, 2.0]]), 16)),
    ], ids=["2x2", "3x3", "2users_4rx", "1user_2rx", "parallel_tone",
            "zero_user_tone", "zero_tone"])
    def test_stacked_svd_matches_per_tone_loop(self, chans):
        sys_ = MuSystem(channels=chans())
        bf = zf_beamformer(sys_)
        b, ok = per_tone_zf(sys_)
        assert np.array_equal(bf.ok_tones, ok)
        assert np.array_equal(bf.b, b)

    def test_rank_deficient_tones_flagged(self):
        parallel = MuSystem(channels=(
            from_taps(np.array([[1.0], [1.0]]), 16),
            from_taps(np.array([[1.0, 0.0], [0.0, 1.0]]), 16)))
        zero_user, zero = (MuSystem(channels=(
            from_taps(np.array([[1.0, 1.0], [1.0, 1.0]]), 16),
            from_taps(np.array([[1.0, 1.0], [2.0, sign * 2.0]]), 16)))
            for sign in (-1, 1))
        for sys_, tone in ((parallel, 0), (zero_user, 8), (zero, 8)):
            bf = zf_beamformer(sys_)
            assert np.flatnonzero(~bf.ok_tones).tolist() == [tone]
            assert np.array_equal(bf.b[tone], np.zeros((2, 2)))

    def test_single_user_flat_channels(self):
        # two unit branches: pseudoinverse of [1, 1]^T is [0.5, 0.5]
        ch = from_taps(np.array([[1.0], [1.0]]), 16)
        bf = zf_beamformer(MuSystem(channels=(ch,)))
        np.testing.assert_allclose(bf.b, np.full((16, 1, 2), 0.5), atol=1e-12)

    def test_diagonal_channel_elementwise_inverse(self):
        # orthogonal users: user u only reaches branch u
        ch0 = from_taps(np.array([[2.0], [0.0]]), 16)
        ch1 = from_taps(np.array([[0.0], [4.0]]), 16)
        bf = zf_beamformer(MuSystem(channels=(ch0, ch1)))
        lam = MuSystem(channels=(ch0, ch1)).lam
        for k in range(16):
            np.testing.assert_allclose(bf.b[k] @ lam[k], np.eye(2), atol=1e-9)
        np.testing.assert_allclose(bf.b[0, 0], [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(bf.b[0, 1], [0.0, 0.25], atol=1e-12)

    def test_identity_on_every_tone(self):
        sys_ = make_system(1)
        bf = zf_beamformer(sys_)
        lam = sys_.lam
        for k in np.flatnonzero(bf.ok_tones):
            np.testing.assert_allclose(bf.b[k] @ lam[k], np.eye(2), atol=1e-9)

    def test_zf_recovers_symbols(self, qam):
        # absent PN and noise, per-tone beamforming reproduces all users
        layout = default_layout()
        sys_ = make_system(2)
        refs = [make_symbol(layout, qam, rng_seed=10 + u) for u in range(2)]
        z = mu_received(sys_, refs, np.ones(64), None, NoiseSpec(snr_db=np.inf))
        bf = zf_beamformer(sys_)
        zf = nx.fft(z)  # per-branch frequency domain
        for u in range(2):
            s_u = np.array([bf.b[k, u] @ zf[:, k] for k in range(64)])
            np.testing.assert_allclose(s_u, refs[u].s, atol=1e-8)


class TestMuCompensate:
    def test_simo_reduction_matches_compensator(self, qam):
        # one user, two branches: identical gamma to the 2-branch stacking
        layout = default_layout()
        ch = gen_channel(8, "exp_decay(3)", seed=3, n_rx=2, n=64)
        sys_ = MuSystem(channels=(ch,))
        ref = make_symbol(layout, qam, rng_seed=4)
        rng = np.random.default_rng(5)
        bas = dft_basis(64, 4)
        # exactly consistent regime (correction vector inside the span):
        # ZF-combined rows and branch-stacked rows share one unique gamma
        gamma0 = 8.0 * np.eye(4, dtype=complex)[:, 0]
        gamma0[1:] += 0.05 * (rng.standard_normal(3)
                              + 1j * rng.standard_normal(3))
        correction = bas.v @ gamma0
        psi = 1.0 / correction
        z = mu_received(sys_, [ref], psi, None, NoiseSpec(snr_db=np.inf))
        mu_res = mu_comp(sys_, z, bas, [ref])[0]
        rcv = receiver(ch.lam, layout)
        w = build_w(z, rcv, bas)
        simo = compensate(w, rcv, fit_gamma(w, rcv, ref.s)[0], ref)
        np.testing.assert_allclose(mu_res.gamma, simo.gamma,
                                   atol=1e-9 * np.linalg.norm(simo.gamma))

    def test_clean_input_exact(self, qam):
        layout = default_layout()
        sys_ = make_system(6)
        refs = [make_symbol(layout, qam, rng_seed=20 + u) for u in range(2)]
        z = mu_received(sys_, refs, np.ones(64), None, NoiseSpec(snr_db=np.inf))
        results = mu_comp(sys_, z, dft_basis(64, 4), refs)
        for res, ref in zip(results, refs):
            assert evm_db(res.s_hat, ref) <= -180

    def test_joint_in_span_recovery(self, qam):
        # phi in span(V), no noise, no tx PN: every user below -80 dB
        layout = default_layout()
        sys_ = make_system(7)
        bas = dft_basis(64, 5)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = (bas.v @ coeffs).real
        phi *= 0.005 / np.max(np.abs(phi))
        refs = [make_symbol(layout, qam, rng_seed=30 + u) for u in range(2)]
        z = mu_received(sys_, refs, np.exp(1j * phi), None,
                        NoiseSpec(snr_db=np.inf))
        for res, ref in zip(mu_comp(sys_, z, bas, refs), refs):
            assert evm_db(res.s_hat, ref) <= -80

    def test_kron_free_matches_dense_oracle(self, qam):
        # N=8, 2 users x 2 rx: the per-tone realization equals the stacked
        # time-domain operator (I (x) F) B Z (1 (x) V) built densely
        n, n_u, n_r, d = 8, 2, 2, 3
        chans = tuple(gen_channel(3, "uniform", seed=40 + u, n_rx=n_r, n=n)
                      for u in range(n_u))
        sys_ = MuSystem(channels=chans)
        bf = zf_beamformer(sys_)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((n_r, n)) + 1j * rng.standard_normal((n_r, n))
        bas = dft_basis(n, d)
        f = dft_matrix(n)

        # dense B: branch-stacked time -> user-stacked frequency, per tone
        big = np.zeros((n_u * n, n_r * n), dtype=complex)
        for k in range(n):
            for u in range(n_u):
                for r in range(n_r):
                    big[u * n + k, r * n: (r + 1) * n] += bf.b[k, u, r] * f[k]
        z_big = np.zeros((n_r * n, n_r * n), dtype=complex)
        for r in range(n_r):
            z_big[r * n:(r + 1) * n, r * n:(r + 1) * n] = np.diag(z[r])
        v_rep = np.vstack([bas.v] * n_r)  # (1_{n_r} (x) V)
        w_dense = big @ z_big @ v_rep     # (n_u * n, d)

        w_fast = mu_build_w(z, bf, bas)
        for u in range(n_u):
            np.testing.assert_allclose(w_fast[u], w_dense[u * n:(u + 1) * n],
                                       atol=1e-9)

    def test_tx_pn_close_to_none(self, qam):
        # small residual transmitter PN barely moves the EVM
        from pncomp.phase_noise import PnGenerator, PnModel
        layout = default_layout()
        sys_ = make_system(10)
        bas = dft_basis(64, 8)
        rx_gen = PnGenerator(PnModel(sigma_deg=3.0, seed=50))
        tx_gens = [PnGenerator(PnModel(sigma_deg=1.0, seed=60 + u))
                   for u in range(2)]
        noise = NoiseSpec(snr_db=35.0)
        rng_a = np.random.default_rng(70)
        rng_b = np.random.default_rng(70)
        clean = noisy = 0.0
        for m in range(40):
            refs = [make_symbol(layout, qam, rng_seed=1000 + 2 * m + u)
                    for u in range(2)]
            psi = rx_gen.next(64).psi
            z0 = mu_received(sys_, refs, psi, None, noise, rng=rng_a)
            tx_psi = [g.next(64).psi for g in tx_gens]
            z1 = mu_received(sys_, refs, psi, tx_psi, noise, rng=rng_b)
            for res, ref in zip(mu_comp(sys_, z0, bas, refs), refs):
                clean += 10 ** (evm_db(res.s_hat, ref) / 10)
            for res, ref in zip(mu_comp(sys_, z1, bas, refs), refs):
                noisy += 10 ** (evm_db(res.s_hat, ref) / 10)
        gap = abs(10 * np.log10(noisy / clean))
        assert gap <= 1.5
