"""Tests for the LS/TLS compensation pipeline: W, block fit, combine."""

import numpy as np
import pytest

from pncomp import numerics as nx
from pncomp.basis import dct_basis, dft_basis, kl_basis
from pncomp.channel import from_taps, gen_channel
from pncomp.compensator import (CompConfig, build_w, compensate,
                                equalize_only, fit_gamma, receiver, solve_ls,
                                solve_tls)
from pncomp.ofdm import (Constellation, FreqSymbol, ToneLayout, default_layout,
                         evm_db, make_symbol)
from pncomp.phase_noise import PnGenerator, PnModel, estimate_cov

from oracles import dft_matrix, per_symbol_fit, tls_implied_perturbation


@pytest.fixture(scope="module")
def layout():
    return default_layout()


@pytest.fixture(scope="module")
def qam():
    return Constellation.qam(256)


def comp(z, lam, bas, ref, cfg=CompConfig()):
    """compensate on the W of (z, lam) built with bas itself."""
    rcv = receiver(lam, ref.layout, cfg)
    return comp_w(build_w(z, rcv, bas), rcv, bas.d, ref)


def comp_w(w, rcv, d, ref):
    """Fit gamma on the leading d columns of one symbol's w, then
    compensate."""
    return compensate(w, rcv, fit_gamma(w[..., :d], rcv, ref.s)[0], ref)


def w_one(z, lam, bas):
    """The (N, d) W of one receive branch."""
    return build_w(np.atleast_2d(z), receiver(lam, default_layout()), bas)[0]


def received(ch, sym, psi=None):
    """Noiseless received time-domain signal per branch, shape (n_rx, N)."""
    y = nx.ifft(ch.lam * nx.fft(nx.ifft(sym.s))[None, :])
    if psi is not None:
        y = psi[None, :] * y
    return y


class TestBuildW:
    def test_identity_channel_no_pn_dc_column(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=1)
        ch = from_taps([1.0], 64)
        z = received(ch, sym)[0]
        w = w_one(z, ch.lam[0], dft_basis(64, 1))
        np.testing.assert_allclose(w[:, 0], sym.s / 8.0, atol=1e-12)

    def test_zero_input(self, layout):
        ch = gen_channel(4, "uniform", seed=2, n=64)
        w = w_one(np.zeros(64), ch.lam[0], dft_basis(64, 4))
        np.testing.assert_array_equal(w, np.zeros((64, 4)))

    def test_matches_dense_oracle(self, layout, qam):
        rng = np.random.default_rng(3)
        ch = gen_channel(8, "exp_decay(3)", seed=3, n=64)
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        bas = dft_basis(64, 6)
        f = dft_matrix(64)
        oracle = np.diag(1.0 / ch.lam[0]) @ f @ np.diag(z) @ bas.v
        np.testing.assert_allclose(w_one(z, ch.lam[0], bas), oracle,
                                   atol=1e-10)

    def test_weak_tone_rows_zeroed(self):
        lam = np.ones(64, dtype=complex)
        lam[5] = 1e-9  # far below the 1e-6 relative threshold
        z = np.ones(64, dtype=complex)
        w = w_one(z, lam, dft_basis(64, 3))
        np.testing.assert_array_equal(w[5], np.zeros(3))
        assert not receiver(lam, default_layout()).usable[0, 5]

    def test_rejects_all_zero_channel(self):
        with pytest.raises(ValueError):
            receiver(np.zeros(64), default_layout())


@pytest.fixture(scope="module")
def kl_cov():
    gen = PnGenerator(PnModel(sigma_deg=3.0, seed=40))
    return estimate_cov([gen.next(64) for _ in range(300)])


class TestPrefixW:
    """compensate on the leading d columns of a W built at d = 16 against
    compensate on a W built with the basis at exactly d: bit-identical."""

    NULLS = (28, 29, 30, 31, 32, 33, 34, 35)

    @pytest.mark.parametrize("kind, method, n_rx, nulls, weak", [
        ("KL", "LS", 2, False, False),
        ("KL", "TLS", 1, True, True),
        ("DFT", "TLS", 2, True, False),
        # 16 pilot rows < d + 1 at d = 16: TLS falls back to LS
        ("DFT", "TLS", 1, False, False),
        ("DCT", "TLS", 3, False, True),
        ("DCT", "LS", 1, True, False),
    ])
    def test_matches_w_built_at_d(self, qam, kl_cov, kind, method, n_rx,
                                  nulls, weak):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=self.NULLS if nulls else ())
        make_basis = {"KL": lambda d: kl_basis(kl_cov, d),
                      "DFT": lambda d: dft_basis(64, d),
                      "DCT": lambda d: dct_basis(64, d)}[kind]
        ch = gen_channel(8, "exp_decay(3)", seed=41 + n_rx, n_rx=n_rx, n=64)
        lam = ch.lam.copy()
        if weak:  # a pilot and a null tone drop out of branch 0's rows
            lam[0, [3, 30]] = 1e-9 * np.abs(lam[0]).max()
        sym = make_symbol(layout, qam, rng_seed=42)
        psi = PnGenerator(PnModel(sigma_deg=3.0, seed=43)).next(64).psi
        rng = np.random.default_rng(44)
        z = (psi[None, :] * nx.ifft(lam * nx.fft(nx.ifft(sym.s))[None, :])
             + 1e-3 * (rng.standard_normal(lam.shape)
                       + 1j * rng.standard_normal(lam.shape)))
        cfg = CompConfig(method=method, use_null_tones=nulls)
        rcv = receiver(lam, layout, cfg)
        family = make_basis(16)
        w_family = build_w(z, rcv, family)
        for d in (1, 2, 3, 5, 8, 12, 15, 16):
            exact = make_basis(d)
            a = comp_w(w_family, rcv, d, sym)
            b = comp_w(build_w(z, rcv, exact), rcv, d, sym)
            assert np.array_equal(a.gamma, b.gamma)
            assert np.array_equal(a.s_hat.s, b.s_hat.s)
            assert a.n_equations == b.n_equations
            n_pilot = 16 * n_rx - weak
            n_null = (8 * n_rx - weak) if nulls else 0
            assert a.n_equations == n_pilot + n_null

    def test_rejects_too_few_columns(self, layout, qam):
        ch = gen_channel(8, "uniform", seed=45, n=64)
        sym = make_symbol(layout, qam, rng_seed=45)
        rcv = receiver(ch.lam, layout)
        w = build_w(received(ch, sym), rcv, dft_basis(64, 3))
        with pytest.raises(ValueError):  # a gamma of a d = 4 fit
            compensate(w, rcv, np.ones(4, dtype=complex), sym)


class TestBlockW:
    """W built for a block of symbols at once against W built per symbol,
    and the cpe fit on the DFT family's first column against a W built at
    d = 1: bit-identical, fits included."""

    def _block(self, layout, qam, n_rx, n_sym, weak):
        ch = gen_channel(8, "exp_decay(3)", seed=50 + n_rx, n_rx=n_rx, n=64)
        lam = ch.lam.copy()
        if weak:  # a pilot tone drops out and a tone of branch 0 is zero
            lam[0, 3] = 1e-9 * np.abs(lam[0]).max()
            lam[0, 40] = 0.0
        syms = [make_symbol(layout, qam, rng_seed=51 + m)
                for m in range(n_sym)]
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=52))
        rng = np.random.default_rng(53)
        z = np.array([gen.next(64).psi[None, :] * received(ch, s)
                      + 1e-3 * (rng.standard_normal(lam.shape)
                                + 1j * rng.standard_normal(lam.shape))
                      for s in syms])
        return lam, syms, z

    @pytest.mark.parametrize("kind, method, n_rx, nulls, weak", [
        ("KL", "LS", 2, False, False),
        ("KL", "TLS", 3, True, True),
        ("DFT", "TLS", 1, False, True),
        ("DCT", "LS", 2, True, False),
    ])
    def test_block_matches_per_symbol(self, qam, kl_cov, kind, method, n_rx,
                                      nulls, weak):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=TestPrefixW.NULLS if nulls else ())
        bas = {"KL": kl_basis(kl_cov, 8), "DFT": dft_basis(64, 8),
               "DCT": dct_basis(64, 8)}[kind]
        lam, syms, z = self._block(layout, qam, n_rx, 7, weak)
        rcv = receiver(lam, layout, CompConfig(method=method,
                                               use_null_tones=nulls))
        w_block = build_w(z, rcv, bas)
        assert w_block.shape == (7, n_rx, 64, 8)
        for i, sym in enumerate(syms):
            w_sym = build_w(z[i], rcv, bas)
            assert np.array_equal(w_block[i], w_sym)
            for d in (1, 4, 8):
                a = comp_w(w_block[i], rcv, d, sym)
                b = comp_w(w_sym, rcv, d, sym)
                assert np.array_equal(a.gamma, b.gamma)
                assert np.array_equal(a.s_hat.s, b.s_hat.s)

    @pytest.mark.parametrize("method, n_rx, weak", [
        ("LS", 2, False), ("TLS", 2, True), ("TLS", 1, False)])
    def test_cpe_from_dft_family(self, layout, qam, method, n_rx, weak):
        lam, syms, z = self._block(layout, qam, n_rx, 5, weak)
        rcv = receiver(lam, layout, CompConfig(method=method))
        w_family = build_w(z, rcv, dft_basis(64, 4))
        cpe = dft_basis(64, 1)
        for i, sym in enumerate(syms):
            a = comp_w(w_family[i], rcv, 1, sym)
            b = comp_w(build_w(z[i], rcv, cpe), rcv, 1, sym)
            assert np.array_equal(a.gamma, b.gamma)
            assert np.array_equal(a.s_hat.s, b.s_hat.s)
            assert a.n_equations == b.n_equations


class TestBlockFit:
    """fit_gamma on a block of M symbols (one stacked pinv or SVD) plus the
    per-symbol compensate against per_symbol_fit: bit-identical."""

    def _block(self, layout, qam, kl_cov, n_rx, n_sym, weak, cfg):
        ch = gen_channel(8, "exp_decay(3)", seed=60 + n_rx, n_rx=n_rx, n=64)
        lam = ch.lam.copy()
        if weak:  # one pilot tone is weak, another zero, on branch 0
            lam[0, 3] = 1e-9 * np.abs(lam[0]).max()
            lam[0, 20] = 0.0
        syms = [make_symbol(layout, qam, rng_seed=61 + m)
                for m in range(n_sym)]
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=62))
        rng = np.random.default_rng(63)
        z = np.array([gen.next(64).psi[None, :]
                      * nx.ifft(lam * nx.fft(nx.ifft(s.s))[None, :])
                      + 1e-3 * (rng.standard_normal(lam.shape)
                                + 1j * rng.standard_normal(lam.shape))
                      for s in syms])
        rcv = receiver(lam, layout, cfg)
        return rcv, syms, build_w(z, rcv, kl_basis(kl_cov, 16))

    @pytest.mark.parametrize("method, n_rx, nulls, weak, n_sym", [
        ("LS", 2, False, True, 32),
        ("LS", 1, True, False, 31),
        ("LS", 1, False, True, 1),
        # three branches, null and weak rows: the gather of a strided W
        ("LS", 3, True, True, 32),
        ("TLS", 2, True, True, 32),
        # 14 usable pilot rows < d + 1 at d = 16: that block fits by LS
        ("TLS", 1, False, True, 31),
        ("TLS", 3, False, False, 1),
        ("TLS", 1, True, True, 32),
    ])
    def test_block_matches_per_symbol(self, qam, kl_cov, method, n_rx, nulls,
                                      weak, n_sym):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=TestPrefixW.NULLS if nulls else ())
        cfg = CompConfig(method=method, use_null_tones=nulls)
        rcv, syms, w = self._block(layout, qam, kl_cov, n_rx, n_sym, weak,
                                   cfg)
        refs_s = np.array([s.s for s in syms])
        for d in (1, 4, 16):
            gamma, n_eq = fit_gamma(w[..., :d], rcv, refs_s)
            assert gamma.shape == (n_sym, d)
            assert n_eq == (16 + 8 * nulls) * n_rx - 2 * weak
            for i, sym in enumerate(syms):
                res = compensate(w[i], rcv, gamma[i], sym)
                g_ref, s_ref = per_symbol_fit(w[i], rcv, d, sym)
                assert np.array_equal(gamma[i], g_ref)
                assert np.array_equal(res.s_hat.s, s_ref)
                assert res.n_equations == n_eq
                # one symbol without a leading axis, as the tracker fits
                assert np.array_equal(
                    fit_gamma(w[i][..., :d], rcv, sym.s)[0], g_ref)

    def test_vanishing_q22_refits_only_those_symbols(self, layout, qam,
                                                     kl_cov):
        # a zero column makes [W, s] singular with a last right singular
        # vector whose final entry vanishes: those symbols take LS, the
        # rest of the block keeps TLS
        rcv, syms, w = self._block(layout, qam, kl_cov, 2, 9, False,
                                   CompConfig(method="TLS"))
        w = w[..., :4].copy()
        w[::3, :, :, 2] = 0
        gamma, _ = fit_gamma(w, rcv, np.array([s.s for s in syms]))
        for i, sym in enumerate(syms):
            g_ref, s_ref = per_symbol_fit(w[i], rcv, 4, sym)
            assert np.array_equal(gamma[i], g_ref)
            assert np.array_equal(compensate(w[i], rcv, gamma[i], sym)
                                  .s_hat.s, s_ref)
            w_rows = w[i][rcv.rows]
            g_ls = np.linalg.pinv(w_rows, rcond=nx.DEFAULT_RCOND) @ (
                sym.s[rcv.tones])
            assert np.array_equal(gamma[i], g_ls) == (i % 3 == 0)


class TestSolveLs:
    def test_identity_system(self):
        s = np.array([1 + 2j, 3.0, -1j])
        np.testing.assert_allclose(solve_ls(np.eye(3, dtype=complex), s), s,
                                   atol=1e-14)

    def test_consistent_full_rank(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        gamma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(solve_ls(w, w @ gamma), gamma, atol=1e-10)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        oracle = np.linalg.solve(w.conj().T @ w, w.conj().T @ s)
        assert np.linalg.norm(solve_ls(w, s) - oracle) <= 1e-8

    def test_residual_optimality(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        gamma = solve_ls(w, s)
        best = np.linalg.norm(w @ gamma - s)
        for _ in range(200):
            trial = gamma + 0.1 * (rng.standard_normal(3)
                                   + 1j * rng.standard_normal(3))
            assert np.linalg.norm(w @ trial - s) >= best - 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_ls(np.zeros((0, 3)), np.zeros(0))


class TestSolveTls:
    def test_consistent_equals_ls(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        gamma = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = w @ gamma
        g_ls = solve_ls(w, s)
        g_tls = solve_tls(w, s)
        assert np.linalg.norm(g_tls - g_ls) <= 1e-9 * np.linalg.norm(g_ls)

    def test_q22_zero_falls_back_to_ls(self):
        # construct [W, s] = U Sigma Q* whose last right singular vector has a
        # zero final entry, so the TLS formula is undefined
        rng = np.random.default_rng(8)
        m, d = 8, 3
        u, _ = np.linalg.qr(rng.standard_normal((m, d + 1))
                            + 1j * rng.standard_normal((m, d + 1)))
        q = np.eye(d + 1, dtype=complex)
        # last right singular vector = e_0 (zero tail)
        q = q[:, [d] + list(range(d))]
        sigma = np.diag([5.0, 4.0, 3.0, 0.5])
        ws = u @ sigma @ q.conj().T
        w, s = ws[:, :d], ws[:, d]
        g_tls = solve_tls(w, s)
        np.testing.assert_allclose(g_tls, solve_ls(w, s), atol=1e-10)

    def test_few_rows_falls_back_to_ls(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(solve_tls(w, s), solve_ls(w, s), atol=1e-10)

    def test_implied_perturbation_satisfies_constraint(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        s = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        gamma = solve_tls(w, s)
        pert = tls_implied_perturbation(w, s, gamma)
        dw, ds = pert[:, :6], pert[:, 6]
        resid = (w + dw) @ gamma - (s + ds)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_minimality_random_search(self):
        # any gamma's minimal feasible perturbation has Frobenius norm
        # ||W g - s|| / sqrt(1 + ||g||^2); TLS minimizes it over gamma
        rng = np.random.default_rng(11)
        w = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        s = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        gamma = solve_tls(w, s)
        pert = tls_implied_perturbation(w, s, gamma)
        best = np.linalg.norm(pert)
        trials = (gamma[:, None]
                  + 0.3 * (rng.standard_normal((6, 2000))
                           + 1j * rng.standard_normal((6, 2000))))
        res = np.linalg.norm(w @ trials - s[:, None], axis=0)
        feas = res / np.sqrt(1.0 + np.linalg.norm(trials, axis=0) ** 2)
        assert np.all(feas >= best - 1e-9)


class TestCompensate:
    def test_no_pn_identity_correction(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=12)
        ch = gen_channel(8, "exp_decay(3)", seed=12, n=64)
        z = received(ch, sym)
        bas = dft_basis(64, 1)
        res = comp(z, ch.lam, bas, sym)
        assert abs(res.gamma[0] - 8.0) <= 1e-9
        np.testing.assert_allclose(bas.v @ res.gamma, np.ones(64), atol=1e-9)
        np.testing.assert_allclose(res.s_hat.s, sym.s, atol=1e-9)
        assert evm_db(res.s_hat, sym) <= -180

    def test_constant_phase_recovered(self, layout, qam):
        theta = 0.7
        sym = make_symbol(layout, qam, rng_seed=13)
        ch = gen_channel(8, "uniform", seed=13, n=64)
        z = received(ch, sym, psi=np.exp(1j * theta) * np.ones(64))
        bas = dft_basis(64, 1)
        res = comp(z, ch.lam, bas, sym)
        np.testing.assert_allclose(bas.v @ res.gamma,
                                   np.exp(-1j * theta) * np.ones(64),
                                   atol=1e-9)
        assert evm_db(res.s_hat, sym) <= -180

    def test_in_span_exact_recovery(self, layout, qam):
        # phi synthesized inside a conjugate-closed span: residual is the
        # second-order term only, far below -80 dB at small angles
        rng = np.random.default_rng(14)
        bas = dft_basis(64, 5)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = (bas.v @ coeffs).real
        phi *= 0.005 / np.max(np.abs(phi))
        sym = make_symbol(layout, qam, rng_seed=14)
        ch = gen_channel(8, "exp_decay(3)", seed=14, n=64)
        z = received(ch, sym, psi=np.exp(1j * phi))
        for method in ("LS", "TLS"):
            res = comp(z, ch.lam, bas, sym, CompConfig(method=method))
            assert evm_db(res.s_hat, sym) <= -80

    def test_two_branches_beat_one(self, layout, qam):
        # doubled pilot-row count: mean EVM no worse with 2 rx branches
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=15))
        cov = estimate_cov([gen.next(64) for _ in range(500)])
        bas = kl_basis(cov, 8)
        gen2 = PnGenerator(PnModel(sigma_deg=3.0, seed=16))
        one = two = 0.0
        for i in range(30):
            sym = make_symbol(layout, qam, rng_seed=200 + i)
            ch = gen_channel(8, "exp_decay(3)", seed=300 + i, n_rx=2, n=64)
            psi = gen2.next(64).psi
            z = received(ch, sym, psi=psi)
            r1 = comp(z[:1], ch.lam[:1], bas, sym)
            r2 = comp(z, ch.lam, bas, sym)
            one += 10 ** (evm_db(r1.s_hat, sym) / 10)
            two += 10 ** (evm_db(r2.s_hat, sym) / 10)
        assert two <= one

    def test_ls_beats_cpe_baseline_residual(self, layout, qam):
        # the fitted residual on pilot rows is no larger than the pure-CPE
        # coefficient vector's residual
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=17))
        bas = dft_basis(64, 6)
        sym = make_symbol(layout, qam, rng_seed=18)
        ch = gen_channel(8, "exp_decay(3)", seed=18, n=64)
        z = received(ch, sym, psi=gen.next(64).psi)[0]
        w = w_one(z, ch.lam[0], bas)
        p = list(layout.pilot_idx)
        w_p, s_p = w[p], sym.s[p]
        gamma = solve_ls(w_p, s_p)
        cpe = np.zeros(6, dtype=complex)
        # best pure-CPE coefficient on the DC column
        cpe[0] = np.vdot(w_p[:, 0], s_p) / np.vdot(w_p[:, 0], w_p[:, 0])
        assert (np.linalg.norm(w_p @ gamma - s_p)
                <= np.linalg.norm(w_p @ cpe - s_p) + 1e-12)

    def test_no_increase_vs_no_comp_in_span(self, layout, qam):
        # on noiseless in-span instances compensation cannot lose more than
        # 0.1 dB to the uncompensated baseline
        rng = np.random.default_rng(19)
        bas = dft_basis(64, 5)
        for i in range(10):
            coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            phi = (bas.v @ coeffs).real
            phi *= 0.01 / np.max(np.abs(phi))
            sym = make_symbol(layout, qam, rng_seed=400 + i)
            ch = gen_channel(8, "exp_decay(3)", seed=500 + i, n=64)
            z = received(ch, sym, psi=np.exp(1j * phi))
            res = comp(z, ch.lam, bas, sym)
            base = FreqSymbol(s=equalize_only(z, receiver(ch.lam, layout)),
                              layout=layout)
            assert evm_db(res.s_hat, sym) <= evm_db(base, sym) + 0.1

    def test_null_tone_rows_added(self, qam):
        layout = ToneLayout(n=64, pilot_idx=tuple(range(7)) + (20, 42)
                            + tuple(range(57, 64)), null_idx=(30, 31))
        sym = make_symbol(layout, qam, rng_seed=20)
        ch = gen_channel(8, "uniform", seed=20, n=64)
        z = received(ch, sym)
        with_null = comp(z, ch.lam, dft_basis(64, 4), sym,
                         CompConfig(use_null_tones=True))
        without = comp(z, ch.lam, dft_basis(64, 4), sym)
        assert with_null.n_equations == without.n_equations + 2

    def test_underdetermined_flagged(self, qam):
        layout = ToneLayout(n=64, pilot_idx=(0, 1))
        sym = make_symbol(layout, qam, rng_seed=21)
        ch = gen_channel(8, "uniform", seed=21, n=64)
        z = received(ch, sym)
        res = comp(z, ch.lam, dft_basis(64, 8), sym)
        assert res.underdetermined
        assert res.n_equations == 2
