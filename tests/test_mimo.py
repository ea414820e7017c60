"""Tests for the multiuser uplink extension (ZF beamforming, joint fit)."""

import numpy as np
import pytest

from pncomp import numerics as nx
from pncomp.basis import dft_basis
from pncomp.channel import from_taps, gen_channel
from pncomp.compensator import Receiver, build_w, fit_prefixes, receiver
from pncomp.mimo import (RANK_TOL, mu_apply_channel, mu_build_w,
                         mu_compensate, mu_received, zf_beamformer)
from pncomp.ofdm import (Constellation, ToneLayout, default_layout, evm_db,
                         make_symbol, symbol_error_rate)

from oracles import (dft_matrix, per_symbol_fit, per_symbol_qr_fit,
                     per_symbol_tls_fit)


@pytest.fixture(scope="module")
def qam():
    return Constellation.qam(256)


def make_system(seed, n_users=2, n_rx=2, n=64, n_taps=8):
    """The users' channels lam, (n_users, n_rx, N)."""
    return np.stack([gen_channel(n_taps, "exp_decay(3)", seed=seed + u,
                                 n_rx=n_rx, n=n) for u in range(n_users)])


def users_lam(*taps, n):
    """The channels lam (n_users, n_rx, N) of each user's taps (n_rx, L)."""
    return np.stack([from_taps(np.array(t), n) for t in taps])


def per_tone(lam):
    """Each tone's (n_rx, n_users) channel matrix, (N, n_rx, n_users)."""
    return lam.transpose(2, 1, 0)


def mu_comp(lam, z, bas, refs, layout):
    """mu_compensate on z's W with the channels' beamformer and receiver."""
    b, ok = zf_beamformer(lam)
    rcv = Receiver(layout, np.broadcast_to(ok, (len(lam), 64)), "LS", False)
    return mu_compensate(mu_build_w(z, b, bas), refs, rcv)


def per_tone_zf(lam):
    """The per-tone SVD loop that zf_beamformer's stacked SVD replaced,
    kept as the reference: returns (b, ok)."""
    h = per_tone(lam)
    n, n_rx, n_users = h.shape
    b = np.zeros((n, n_users, n_rx), dtype=np.complex128)
    ok = np.zeros(n, dtype=bool)
    for k in range(n):
        u, s, vh = np.linalg.svd(h[k], full_matrices=False)
        ok[k] = s[-1] > RANK_TOL * s[0] and s[0] > 0
        if ok[k]:
            b[k] = (vh.conj().T * (1.0 / s)) @ u.conj().T
    return b, ok


class TestZfBeamformer:
    def test_rejects_more_users_than_antennas(self):
        lam = np.stack([gen_channel(4, "uniform", seed=u, n_rx=1, n=16)
                        for u in range(2)])
        with pytest.raises(ValueError):
            zf_beamformer(lam)

    def test_rejects_all_tones_rank_deficient(self):
        # two users on identical taps: their columns are equal on every tone
        lam = np.stack([gen_channel(4, "uniform", seed=5, n_rx=2, n=16)] * 2)
        with pytest.raises(ValueError, match="all tones are rank-deficient"):
            zf_beamformer(lam)

    @pytest.mark.filterwarnings("error")  # no division by a zero singular value
    @pytest.mark.parametrize("make_lam", [
        lambda: make_system(30),
        lambda: make_system(31, n_users=3, n_rx=3),
        lambda: make_system(32, n_users=2, n_rx=4),
        lambda: make_system(33, n_users=1, n_rx=2),
        # the users' columns are parallel on tone 0 only
        lambda: users_lam([[1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]], n=16),
        # user 0 is zero on every branch at tone 8
        lambda: users_lam([[1.0, 1.0], [1.0, 1.0]],
                          [[1.0, 1.0], [2.0, -2.0]], n=16),
        # both users are zero on every branch at tone 8
        lambda: users_lam([[1.0, 1.0], [1.0, 1.0]],
                          [[1.0, 1.0], [2.0, 2.0]], n=16),
    ], ids=["2x2", "3x3", "2users_4rx", "1user_2rx", "parallel_tone",
            "zero_user_tone", "zero_tone"])
    def test_stacked_svd_matches_per_tone_loop(self, make_lam):
        lam = make_lam()
        b, ok = zf_beamformer(lam)
        b_ref, ok_ref = per_tone_zf(lam)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(b, b_ref)

    def test_rank_deficient_tones_flagged(self):
        parallel = np.stack((
            from_taps(np.array([[1.0], [1.0]]), 16),
            from_taps(np.array([[1.0, 0.0], [0.0, 1.0]]), 16)))
        zero_user, zero = (np.stack((
            from_taps(np.array([[1.0, 1.0], [1.0, 1.0]]), 16),
            from_taps(np.array([[1.0, 1.0], [2.0, sign * 2.0]]), 16)))
            for sign in (-1, 1))
        for lam, tone in ((parallel, 0), (zero_user, 8), (zero, 8)):
            b, ok = zf_beamformer(lam)
            assert np.flatnonzero(~ok).tolist() == [tone]
            assert np.array_equal(b[tone], np.zeros((2, 2)))

    def test_single_user_flat_channels(self):
        # two unit branches: pseudoinverse of [1, 1]^T is [0.5, 0.5]
        lam = from_taps(np.array([[1.0], [1.0]]), 16)
        b, _ = zf_beamformer(lam[None])
        np.testing.assert_allclose(b, np.full((16, 1, 2), 0.5), atol=1e-12)

    def test_diagonal_channel_elementwise_inverse(self):
        # orthogonal users: user u only reaches branch u
        ch0 = from_taps(np.array([[2.0], [0.0]]), 16)
        ch1 = from_taps(np.array([[0.0], [4.0]]), 16)
        b, _ = zf_beamformer(np.stack((ch0, ch1)))
        h = per_tone(np.stack((ch0, ch1)))
        for k in range(16):
            np.testing.assert_allclose(b[k] @ h[k], np.eye(2), atol=1e-9)
        np.testing.assert_allclose(b[0, 0], [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(b[0, 1], [0.0, 0.25], atol=1e-12)

    def test_identity_on_every_tone(self):
        lam = make_system(1)
        b, ok = zf_beamformer(lam)
        h = per_tone(lam)
        for k in np.flatnonzero(ok):
            np.testing.assert_allclose(b[k] @ h[k], np.eye(2), atol=1e-9)

    def test_zf_recovers_symbols(self, qam):
        # absent PN and noise, per-tone beamforming reproduces all users
        layout = default_layout()
        lam = make_system(2)
        refs = np.array([make_symbol(layout, qam, rng_seed=10 + u)
                         for u in range(2)])
        z = mu_received(lam, refs, np.ones(64), None, np.inf,
                        np.random.default_rng(0))
        b, _ = zf_beamformer(lam)
        zf = nx.fft(z)  # per-branch frequency domain
        for u in range(2):
            s_u = np.array([b[k, u] @ zf[:, k] for k in range(64)])
            np.testing.assert_allclose(s_u, refs[u], atol=1e-8)


def per_symbol_mu_w(z, b, basis):
    """The one-symbol mu_build_w that the block version replaced, kept as
    the reference: W (n_users, N, d) of z (n_rx, N)."""
    g = nx.fft((z[:, :, None] * basis[None, :, :]).transpose(0, 2, 1))
    g = g.transpose(0, 2, 1)  # (n_rx, N, d): F diag(z_r) V
    return np.einsum("kur,rkd->ukd", b, g)


class TestMuApplyChannel:
    @pytest.mark.parametrize("n_users, lead", [(1, ()), (2, (5,)),
                                               (3, (2, 3))])
    def test_matches_sum_from_zero(self, n_users, lead):
        # one sum over the user axis against the loop it replaced, which
        # added the users' branch signals to zeros in user order
        lam = np.stack([gen_channel(4, "uniform", seed=90 + u, n_rx=3, n=64)
                        for u in range(n_users)])
        rng = np.random.default_rng(91)
        x = (rng.standard_normal(lead + (n_users, 64))
             + 1j * rng.standard_normal(lead + (n_users, 64)))
        per_user = nx.ifft(lam * nx.fft(x)[..., None, :])
        want = np.zeros(lead + (3, 64), dtype=complex)
        for u in range(n_users):
            want += per_user[..., u, :, :]
        got = mu_apply_channel(lam, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBlockW:
    """mu_build_w of a block of symbols must equal the per-symbol W of
    each of them bit for bit, and so must the fit and combine on it; the
    combine of all users at once equals each user's own w[u] @ gamma.  By
    TLS, the block's estimates are within 1e-10 relative of
    per_symbol_tls_fit's on the per-symbol W, with the same symbol errors:
    the tolerance tier a change of W's last bits must still meet."""

    @pytest.mark.parametrize("make_lam", [
        lambda: make_system(40, n_users=1, n_rx=1),
        lambda: make_system(41, n_users=1, n_rx=2),
        lambda: make_system(42),
        lambda: make_system(43, n_users=3, n_rx=3),
        # the users' columns are parallel on tone 0 only
        lambda: users_lam([[1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]], n=64),
        # both users are zero on every branch at tone 32
        lambda: users_lam([[1.0, 1.0], [1.0, 1.0]],
                          [[1.0, 1.0], [2.0, 2.0]], n=64),
    ], ids=["1user_1rx", "1user_2rx", "2users", "3users", "parallel_tone",
            "zero_tone"])
    @pytest.mark.parametrize("m", [1, 18, 32])
    def test_matches_per_symbol_w(self, qam, make_lam, m):
        lam = make_lam()
        n_users, n_rx = lam.shape[:2]
        b, ok = zf_beamformer(lam)
        bas = dft_basis(64, 6)
        rng = np.random.default_rng(m)
        z = (rng.standard_normal((m, n_rx, 64))
             + 1j * rng.standard_normal((m, n_rx, 64)))
        w = mu_build_w(z, b, bas)
        assert w.shape == (m, n_users, 64, 6)
        layout = default_layout()
        rcv = Receiver(layout, np.broadcast_to(ok, (n_users, 64)), "LS",
                       False)
        rcv_tls = Receiver(layout, rcv.usable, "TLS", False)
        moved = False
        for i in range(m):
            w_ref = per_symbol_mu_w(z[i], b, bas)
            assert np.array_equal(w[i], w_ref)
            refs = np.array([make_symbol(layout, qam, rng_seed=100 * i + u)
                             for u in range(n_users)])
            s_hats = mu_compensate(w[i], refs, rcv)
            assert s_hats.shape == (n_users, 64)
            assert np.array_equal(s_hats, mu_compensate(w_ref, refs, rcv))
            refs_s = np.concatenate(refs)
            gamma = fit_prefixes(w[i], rcv, refs_s, (6,))[6]
            assert np.array_equal(gamma,
                                  fit_prefixes(w_ref, rcv, refs_s, (6,))[6])
            for u in range(n_users):
                assert np.array_equal(s_hats[u], w[i][u] @ gamma)
            s_tls = mu_compensate(w[i], refs, rcv_tls)
            _, near = per_symbol_tls_fit(w_ref, rcv_tls, 6, refs)
            assert np.abs(s_tls - near).max() <= 1e-10 * np.abs(near).max()
            assert ([symbol_error_rate(s, r, layout, qam)
                     for s, r in zip(s_tls, refs)]
                    == [symbol_error_rate(s, r, layout, qam)
                        for s, r in zip(near, refs)])
            moved |= not np.array_equal(s_tls, near)
        assert moved  # a fit by another route: not compared with itself


class TestMuCompensate:
    @pytest.mark.parametrize("method", ["LS", "TLS"])
    @pytest.mark.parametrize("nulls", [False, True])
    def test_each_user_rows_read_own_reference(self, qam, method, nulls):
        # concatenated per-user references: user u's rows (u, tone) target
        # refs[u, tone], null rows included, so gamma is the oracle's fit
        # on the rows it builds from rcv.rows and each user's reference,
        # bit for bit
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=tuple(range(28, 36)) if nulls else ())
        lam = make_system(7, n_users=3, n_rx=3)
        b, ok = zf_beamformer(lam)
        rcv = Receiver(layout, np.broadcast_to(ok, (3, 64)), method, nulls)
        assert len(rcv.tones) == 3 * (16 + 8 * nulls)
        rng = np.random.default_rng(8)
        z = (rng.standard_normal((5, 3, 64))
             + 1j * rng.standard_normal((5, 3, 64)))
        w = mu_build_w(z, b, dft_basis(64, 6))
        refs = np.array([[make_symbol(layout, qam, rng_seed=30 + 3 * m + u)
                          for u in range(3)] for m in range(5)])
        gamma = fit_prefixes(w, rcv, refs.reshape(5, -1), (6,))[6]
        for m in range(5):
            s_hats = mu_compensate(w[m], refs[m], rcv)
            g_ref, s_ref = per_symbol_qr_fit(w[m], rcv, 6, refs[m])
            assert np.array_equal(gamma[m], g_ref)
            assert np.array_equal(s_hats, s_ref)
            # the tolerance tier: per_symbol_fit's pinv or SVD within
            # 1e-10 relative, the same symbol errors for every user
            _, near = per_symbol_fit(w[m], rcv, 6, refs[m])
            assert np.abs(s_hats - near).max() <= 1e-10 * np.abs(near).max()
            for s_hat, s_near, ref in zip(s_hats, near, refs[m]):
                assert (symbol_error_rate(s_hat, ref, layout, qam)
                        == symbol_error_rate(s_near, ref, layout, qam))

    def test_simo_reduction_matches_compensator(self, qam):
        # one user, two branches: identical gamma to the 2-branch stacking
        layout = default_layout()
        ch = gen_channel(8, "exp_decay(3)", seed=3, n_rx=2, n=64)
        ref = make_symbol(layout, qam, rng_seed=4)
        rng = np.random.default_rng(5)
        bas = dft_basis(64, 4)
        # exactly consistent regime (correction vector inside the span):
        # ZF-combined rows and branch-stacked rows share one unique gamma
        gamma0 = 8.0 * np.eye(4, dtype=complex)[:, 0]
        gamma0[1:] += 0.05 * (rng.standard_normal(3)
                              + 1j * rng.standard_normal(3))
        correction = bas @ gamma0
        psi = 1.0 / correction
        z = mu_received(ch[None], ref[None], psi, None, np.inf,
                        np.random.default_rng(0))
        b, ok = zf_beamformer(ch[None])
        mu_gamma = fit_prefixes(mu_build_w(z, b, bas),
                                Receiver(layout, ok[None], "LS", False), ref,
                                (4,))[4]
        rcv = receiver(ch, layout)
        simo_gamma = fit_prefixes(build_w(z, rcv, bas), rcv, ref, (4,))[4]
        np.testing.assert_allclose(mu_gamma, simo_gamma,
                                   atol=1e-9 * np.linalg.norm(simo_gamma))

    def test_clean_input_exact(self, qam):
        layout = default_layout()
        lam = make_system(6)
        refs = np.array([make_symbol(layout, qam, rng_seed=20 + u)
                         for u in range(2)])
        z = mu_received(lam, refs, np.ones(64), None, np.inf,
                        np.random.default_rng(0))
        results = mu_comp(lam, z, dft_basis(64, 4), refs, layout)
        for s_hat, ref in zip(results, refs):
            assert evm_db(s_hat, ref, layout) <= -180

    def test_joint_in_span_recovery(self, qam):
        # phi in span(V), no noise, no tx PN: every user below -80 dB
        layout = default_layout()
        lam = make_system(7)
        bas = dft_basis(64, 5)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = (bas @ coeffs).real
        phi *= 0.005 / np.max(np.abs(phi))
        refs = np.array([make_symbol(layout, qam, rng_seed=30 + u)
                         for u in range(2)])
        z = mu_received(lam, refs, np.exp(1j * phi), None, np.inf,
                        np.random.default_rng(0))
        for s_hat, ref in zip(mu_comp(lam, z, bas, refs, layout), refs):
            assert evm_db(s_hat, ref, layout) <= -80

    def test_kron_free_matches_dense_oracle(self, qam):
        # N=8, 2 users x 2 rx: the per-tone realization equals the stacked
        # time-domain operator (I (x) F) B Z (1 (x) V) built densely
        n, n_u, n_r, d = 8, 2, 2, 3
        lam = np.stack([gen_channel(3, "uniform", seed=40 + u, n_rx=n_r, n=n)
                        for u in range(n_u)])
        b, _ = zf_beamformer(lam)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((n_r, n)) + 1j * rng.standard_normal((n_r, n))
        bas = dft_basis(n, d)
        f = dft_matrix(n)

        # dense B: branch-stacked time -> user-stacked frequency, per tone
        big = np.zeros((n_u * n, n_r * n), dtype=complex)
        for k in range(n):
            for u in range(n_u):
                for r in range(n_r):
                    big[u * n + k, r * n: (r + 1) * n] += b[k, u, r] * f[k]
        z_big = np.zeros((n_r * n, n_r * n), dtype=complex)
        for r in range(n_r):
            z_big[r * n:(r + 1) * n, r * n:(r + 1) * n] = np.diag(z[r])
        v_rep = np.vstack([bas] * n_r)  # (1_{n_r} (x) V)
        w_dense = big @ z_big @ v_rep     # (n_u * n, d)

        w_fast = mu_build_w(z, b, bas)
        for u in range(n_u):
            np.testing.assert_allclose(w_fast[u], w_dense[u * n:(u + 1) * n],
                                       atol=1e-9)

    def test_tx_pn_close_to_none(self, qam):
        # small residual transmitter PN barely moves the EVM
        from pncomp.phase_noise import PnGenerator
        layout = default_layout()
        lam = make_system(10)
        bas = dft_basis(64, 8)
        rx_gen = PnGenerator(50, (3.0,))
        tx_gens = [PnGenerator(60 + u, (1.0,)) for u in range(2)]
        snr_db = 35.0
        rng_a = np.random.default_rng(70)
        rng_b = np.random.default_rng(70)
        clean = noisy = 0.0
        for m in range(40):
            refs = np.array([make_symbol(layout, qam,
                                         rng_seed=1000 + 2 * m + u)
                             for u in range(2)])
            psi = rx_gen.next(64)[0]
            z0 = mu_received(lam, refs, psi, None, snr_db, rng=rng_a)
            tx_psi = [g.next(64)[0] for g in tx_gens]
            z1 = mu_received(lam, refs, psi, tx_psi, snr_db, rng=rng_b)
            for s_hat, ref in zip(mu_comp(lam, z0, bas, refs, layout), refs):
                clean += 10 ** (evm_db(s_hat, ref, layout) / 10)
            for s_hat, ref in zip(mu_comp(lam, z1, bas, refs, layout), refs):
                noisy += 10 ** (evm_db(s_hat, ref, layout) / 10)
        gap = abs(10 * np.log10(noisy / clean))
        assert gap <= 1.5
