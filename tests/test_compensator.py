"""Tests for the LS/TLS compensation pipeline: W, block fit, combine."""

import numpy as np
import pytest

from pncomp import numerics as nx
from pncomp.basis import dct_basis, dft_basis, kl_basis
from pncomp.channel import from_taps, gen_channel
from pncomp.compensator import (build_w, compensate, equalize_only,
                                fit_prefixes, receiver, solve_ls, solve_tls)
from pncomp.ofdm import (Constellation, ToneLayout, default_layout, evm_db,
                         make_symbol, symbol_error_rate)
from pncomp.phase_noise import PnGenerator, estimate_cov

from oracles import (dft_matrix, per_symbol_fit, per_symbol_qr_fit,
                     per_symbol_tls_fit, tls_implied_perturbation)


@pytest.fixture(scope="module")
def layout():
    return default_layout()


@pytest.fixture(scope="module")
def qam():
    return Constellation.qam(256)


def comp(z, lam, bas, ref, layout, **kw):
    """comp_w on the W of (z, lam) built with bas itself; kw go to
    receiver."""
    rcv = receiver(lam, layout, **kw)
    return comp_w(build_w(z, rcv, bas), rcv, bas.shape[1], ref)


def comp_w(w, rcv, d, ref):
    """Fit gamma on the leading d columns of one symbol's w, then
    compensate: (gamma, number of fit rows, estimate)."""
    gamma = fit_prefixes(w, rcv, ref, (d,))[d]
    return gamma, len(rcv.tones), compensate(w, rcv, gamma)


def pinv_fit(w, rcv, refs, d):
    """solve_ls on the fit rows of w's leading d columns, each row's
    target refs at its tone: the pinv fit, with no QR."""
    block, tone = rcv.rows
    return solve_ls(w[..., block, tone, :d], refs[..., tone])


def assert_tolerance_tier(s_hat, w, rcv, d, ref, layout, qam) -> bool:
    """The tolerance tier: s_hat, one symbol's estimate at d, within 1e-10
    of its largest entry from per_symbol_tls_fit's (pinv by LS, the SVD of
    the conjugate transpose by TLS), with the same symbol errors.  Returns
    whether some bit differs."""
    _, near = per_symbol_tls_fit(w, rcv, d, ref)
    assert np.abs(s_hat - near).max() <= 1e-10 * np.abs(near).max()
    assert (symbol_error_rate(s_hat, ref, layout, qam)
            == symbol_error_rate(near, ref, layout, qam))
    return not np.array_equal(s_hat, near)


def w_one(z, lam, bas):
    """The (N, d) W of one receive branch: z and lam (N,)."""
    return build_w(z[None], receiver(lam[None], default_layout()), bas)[0]


def received(ch, sym, psi=None):
    """Noiseless received time-domain signal per branch, shape (n_rx, N),
    through the channel response ch (n_rx, N)."""
    y = nx.ifft(ch * nx.fft(nx.ifft(sym))[None, :])
    if psi is not None:
        y = psi[None, :] * y
    return y


class TestBuildW:
    def test_identity_channel_no_pn_dc_column(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=1)
        ch = from_taps([1.0], 64)
        z = received(ch, sym)[0]
        w = w_one(z, ch[0], dft_basis(64, 1))
        np.testing.assert_allclose(w[:, 0], sym / 8.0, atol=1e-12)

    def test_zero_input(self, layout):
        ch = gen_channel(4, "uniform", seed=2, n=64)
        w = w_one(np.zeros(64), ch[0], dft_basis(64, 4))
        np.testing.assert_array_equal(w, np.zeros((64, 4)))

    def test_matches_dense_oracle(self, layout, qam):
        rng = np.random.default_rng(3)
        ch = gen_channel(8, "exp_decay(3)", seed=3, n=64)
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        bas = dft_basis(64, 6)
        f = dft_matrix(64)
        oracle = np.diag(1.0 / ch[0]) @ f @ np.diag(z) @ bas
        np.testing.assert_allclose(w_one(z, ch[0], bas), oracle,
                                   atol=1e-10)

    @pytest.mark.parametrize("tone", ["none", "weak", "zero"])
    @pytest.mark.parametrize("n_rx, lead", [(1, ()), (2, ()), (2, (7,)),
                                            (3, (2, 5))])
    def test_matches_masked_divide(self, layout, n_rx, lead, tone):
        # the oracle divides under the usable-tone mask and fills the rest
        # with 0; build_w divides every tone by lam, inf on the unusable
        # ones: the same bits and layout on usable rows, one symbol or a
        # stacked block, and zeros on the others
        ch = gen_channel(8, "exp_decay(3)", seed=70 + n_rx, n_rx=n_rx, n=64)
        if tone == "weak":  # far below 1e-6 of branch 0's peak
            ch[0, 5] = 1e-9 * np.abs(ch[0]).max()
        elif tone == "zero":
            ch[0, 9] = 0
        rcv = receiver(ch, layout)
        usable = rcv.usable
        assert usable.all() == (tone == "none")
        rng = np.random.default_rng(71)
        z = (rng.standard_normal(lead + ch.shape)
             + 1j * rng.standard_normal(lead + ch.shape))
        bas = dft_basis(64, 8) * np.exp(1j * rng.uniform(0, 6, (1, 8)))
        want = nx.fft(z[..., None, :] * bas.T)
        np.divide(want, ch[..., None, :], out=want,
                  where=usable[..., None, :])
        np.copyto(want, 0, where=~usable[..., None, :])
        want = want.swapaxes(-1, -2)
        w = build_w(z, rcv, bas)
        assert w.shape == lead + (n_rx, 64, 8)
        assert w.strides == want.strides
        assert w[..., usable, :].tobytes() == want[..., usable, :].tobytes()
        assert not w[..., ~usable, :].any()

    def test_weak_tone_rows_zeroed(self):
        lam = np.ones(64, dtype=complex)
        lam[5] = 1e-9  # far below the 1e-6 relative threshold
        z = np.ones(64, dtype=complex)
        w = w_one(z, lam, dft_basis(64, 3))
        np.testing.assert_array_equal(w[5], np.zeros(3))
        assert not receiver(lam[None], default_layout()).usable[0, 5]

    def test_rejects_all_zero_channel(self):
        with pytest.raises(ValueError):
            receiver(np.zeros((1, 64)), default_layout())

    def test_rejects_unknown_method(self):
        # the fit knows only LS and TLS
        with pytest.raises(ValueError, match="LS or TLS"):
            receiver(np.ones((1, 64)), default_layout(), method="XLS")


@pytest.fixture(scope="module")
def kl_cov():
    gen = PnGenerator(40, (3.0,))
    return estimate_cov([gen.next(64)[0] for _ in range(300)])


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
        lam = ch.copy()
        if weak:  # a pilot and a null tone drop out of branch 0's rows
            lam[0, [3, 30]] = 1e-9 * np.abs(lam[0]).max()
        sym = make_symbol(layout, qam, rng_seed=42)
        psi = PnGenerator(43, (3.0,)).next(64)[0]
        rng = np.random.default_rng(44)
        z = (psi[None, :] * nx.ifft(lam * nx.fft(nx.ifft(sym))[None, :])
             + 1e-3 * (rng.standard_normal(lam.shape)
                       + 1j * rng.standard_normal(lam.shape)))
        rcv = receiver(lam, layout, method, nulls)
        family = make_basis(16)
        w_family = build_w(z, rcv, family)
        for d in (1, 2, 3, 5, 8, 12, 15, 16):
            exact = make_basis(d)
            g_a, rows_a, s_a = comp_w(w_family, rcv, d, sym)
            g_b, rows_b, s_b = comp_w(build_w(z, rcv, exact), rcv, d, sym)
            assert np.array_equal(g_a, g_b)
            assert np.array_equal(s_a, s_b)
            assert rows_a == rows_b
            n_pilot = 16 * n_rx - weak
            n_null = (8 * n_rx - weak) if nulls else 0
            assert rows_a == n_pilot + n_null

    def test_rejects_too_few_columns(self, layout, qam):
        ch = gen_channel(8, "uniform", seed=45, n=64)
        sym = make_symbol(layout, qam, rng_seed=45)
        rcv = receiver(ch, layout)
        w = build_w(received(ch, sym), rcv, dft_basis(64, 3))
        with pytest.raises(ValueError):  # a gamma of a d = 4 fit
            compensate(w, rcv, np.ones(4, dtype=complex))


class TestBlockW:
    """W built for a block of symbols at once against W built per symbol,
    and the cpe fit on the DFT family's first column against a W built at
    d = 1: bit-identical, fits included."""

    def _block(self, layout, qam, n_rx, n_sym, weak):
        ch = gen_channel(8, "exp_decay(3)", seed=50 + n_rx, n_rx=n_rx, n=64)
        lam = ch.copy()
        if weak:  # a pilot tone drops out and a tone of branch 0 is zero
            lam[0, 3] = 1e-9 * np.abs(lam[0]).max()
            lam[0, 40] = 0.0
        syms = [make_symbol(layout, qam, rng_seed=51 + m)
                for m in range(n_sym)]
        gen = PnGenerator(52, (3.0,))
        rng = np.random.default_rng(53)
        z = np.array([gen.next(64) * received(ch, s)
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
        rcv = receiver(lam, layout, method, nulls)
        w_block = build_w(z, rcv, bas)
        assert w_block.shape == (7, n_rx, 64, 8)
        moved = False
        for i, sym in enumerate(syms):
            w_sym = build_w(z[i], rcv, bas)
            assert np.array_equal(w_block[i], w_sym)
            for d in (1, 4, 8):
                g_a, _, s_a = comp_w(w_block[i], rcv, d, sym)
                g_b, _, s_b = comp_w(w_sym, rcv, d, sym)
                assert np.array_equal(g_a, g_b)
                assert np.array_equal(s_a, s_b)
                moved |= assert_tolerance_tier(s_a, w_sym, rcv, d, sym,
                                               layout, qam)
        assert moved  # a fit by another route: not compared with itself

    @pytest.mark.parametrize("method, n_rx, weak", [
        ("LS", 2, False), ("TLS", 2, True), ("TLS", 1, False)])
    def test_cpe_from_dft_family(self, layout, qam, method, n_rx, weak):
        lam, syms, z = self._block(layout, qam, n_rx, 5, weak)
        rcv = receiver(lam, layout, method)
        w_family = build_w(z, rcv, dft_basis(64, 4))
        cpe = dft_basis(64, 1)
        for i, sym in enumerate(syms):
            g_a, rows_a, s_a = comp_w(w_family[i], rcv, 1, sym)
            g_b, rows_b, s_b = comp_w(build_w(z[i], rcv, cpe), rcv, 1, sym)
            assert np.array_equal(g_a, g_b)
            assert np.array_equal(s_a, s_b)
            assert rows_a == rows_b


class TestBlockFit:
    """fit_prefixes at one d on a block of M symbols plus the per-symbol
    compensate against per_symbol_qr_fit, bit for bit, and against
    per_symbol_tls_fit's pinv or transposed SVD within 1e-10 relative."""

    @staticmethod
    def _block(layout, qam, bas, n_rx, n_sym, weak, method, nulls=False):
        """A receiver, n_sym references and their W with basis bas."""
        ch = gen_channel(8, "exp_decay(3)", seed=60 + n_rx, n_rx=n_rx, n=64)
        lam = ch.copy()
        if weak:  # one pilot tone is weak, another zero, on branch 0
            lam[0, 3] = 1e-9 * np.abs(lam[0]).max()
            lam[0, 20] = 0.0
        syms = [make_symbol(layout, qam, rng_seed=61 + m)
                for m in range(n_sym)]
        gen = PnGenerator(62, (3.0,))
        rng = np.random.default_rng(63)
        z = np.array([gen.next(64)
                      * nx.ifft(lam * nx.fft(nx.ifft(s))[None, :])
                      + 1e-3 * (rng.standard_normal(lam.shape)
                                + 1j * rng.standard_normal(lam.shape))
                      for s in syms])
        rcv = receiver(lam, layout, method, nulls)
        return rcv, syms, build_w(z, rcv, bas)

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
        rcv, syms, w = self._block(layout, qam, kl_basis(kl_cov, 16), n_rx,
                                   n_sym, weak, method, nulls)
        refs_s = np.array(syms)
        moved = False
        for d in (1, 4, 16):
            gamma = fit_prefixes(w, rcv, refs_s, (d,))[d]
            assert gamma.shape == (n_sym, d)
            # one (N,) reference per symbol serves every branch: the same
            # bits as that reference repeated once per branch
            assert np.array_equal(gamma, fit_prefixes(
                w, rcv, np.tile(refs_s, n_rx), (d,))[d])
            assert len(rcv.tones) == (16 + 8 * nulls) * n_rx - 2 * weak
            for i, sym in enumerate(syms):
                s_hat = compensate(w[i], rcv, gamma[i])
                g_ref, s_ref = per_symbol_qr_fit(w[i], rcv, d, sym)
                assert np.array_equal(gamma[i], g_ref)
                assert np.array_equal(s_hat, s_ref)
                # one symbol without a leading axis, as the tracker fits
                g_one = fit_prefixes(w[i][..., :d], rcv, sym, (d,))[d]
                assert np.array_equal(g_one, g_ref)
                moved |= assert_tolerance_tier(s_hat, w[i], rcv, d, sym,
                                               layout, qam)
        assert moved  # a fit by another route: not compared with itself

    def test_vanishing_q22_refits_only_those_symbols(self, layout, qam,
                                                     kl_cov):
        # a zero column makes [W, s] singular with a last right singular
        # vector whose final entry vanishes: those symbols take LS, the
        # rest of the block keeps TLS
        rcv, syms, w = self._block(layout, qam, kl_basis(kl_cov, 16), 2, 9,
                                   False, "TLS")
        w = w[..., :4].copy()
        w[::3, :, :, 2] = 0
        gamma = fit_prefixes(w, rcv, np.array(syms), (4,))[4]
        for i, sym in enumerate(syms):
            g_ref, s_ref = per_symbol_fit(w[i], rcv, 4, sym)
            assert np.array_equal(gamma[i], g_ref)
            assert np.array_equal(compensate(w[i], rcv, gamma[i]), s_ref)
            w_rows = w[i][rcv.rows]
            g_ls = np.linalg.pinv(w_rows, rcond=nx.DEFAULT_RCOND) @ (
                sym[rcv.rows[1]])
            assert np.array_equal(gamma[i], g_ls) == (i % 3 == 0)


class TestFitPrefixes:
    """fit_prefixes fits every LS d of a basis from one QR of [W | s]:
    bit for bit per_symbol_qr_fit's width-d QR of one symbol, and
    solve_ls's pinv where a d has fewer rows than d or a symbol's triangle
    is near singular."""

    @staticmethod
    def _block(layout, qam, n_rx, weak, bas, n_sym=7):
        rcv, syms, w = TestBlockFit._block(layout, qam, bas, n_rx, n_sym, weak,
                                           "LS", bool(layout.null_idx))
        return rcv, np.array(syms), w

    @pytest.mark.parametrize("n_rx, nulls",
                             [(1, False), (2, True), (3, False)])
    def test_matches_per_symbol_qr(self, qam, n_rx, nulls):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=TestPrefixW.NULLS if nulls else ())
        rcv, refs, w = self._block(layout, qam, n_rx, False,
                                   dct_basis(64, 16))
        gammas = fit_prefixes(w, rcv, refs, (16, 1, 5))
        for d, gamma in gammas.items():
            # no other d of the call changes a d's bits
            assert np.array_equal(gamma, fit_prefixes(w, rcv, refs, [d])[d])
            for i, ref in enumerate(refs):
                g_ref, s_ref = per_symbol_qr_fit(w[i], rcv, d, ref)
                assert np.array_equal(gamma[i], g_ref)
                assert np.array_equal(compensate(w[i], rcv, gamma[i]), s_ref)

    def test_fewer_rows_than_d_is_pinv(self, layout, qam):
        # n_rx = 1, a weak and a zero pilot: 14 fit rows, so d = 16 keeps
        # solve_ls's minimum-norm answer while d = 4 of the call fits by QR
        rcv, refs, w = self._block(layout, qam, 1, True, dct_basis(64, 16))
        assert len(rcv.tones) == 14
        gammas = fit_prefixes(w, rcv, refs, (4, 16))
        assert np.array_equal(gammas[16], pinv_fit(w, rcv, refs, 16))
        for i, ref in enumerate(refs):
            assert np.array_equal(gammas[4][i],
                                  per_symbol_qr_fit(w[i], rcv, 4, ref)[0])
        assert not np.array_equal(gammas[4], pinv_fit(w, rcv, refs, 4))

    def test_one_symbol_fallbacks_are_pinv(self, layout, qam):
        # one symbol with no leading axis, as the tracker and the
        # multiuser link fit: d = 20 on one branch's 16 pilot rows, and a
        # basis whose column 3 repeats column 1, both take solve_ls's
        # answer bit for bit
        rcv, refs, w = self._block(layout, qam, 1, False, dft_basis(64, 20),
                                   n_sym=1)
        w, ref = w[0], refs[0]
        assert len(rcv.tones) == 16
        assert np.array_equal(fit_prefixes(w, rcv, ref, (20,))[20],
                              pinv_fit(w, rcv, ref, 20))
        w = w[..., :4].copy()
        w[..., 3] = w[..., 1]
        assert np.array_equal(fit_prefixes(w, rcv, ref, (4,))[4],
                              pinv_fit(w, rcv, ref, 4))

    @pytest.mark.parametrize("defect", ["repeated", "scaled", "zero"])
    def test_near_rank_deficient_prefix_is_pinv(self, layout, qam, defect):
        # in every third symbol column 3 repeats column 1, is 1e-13 of
        # itself, or is zero: from d = 4 on, those symbols trip the rank
        # guard and take solve_ls's answer; d = 3 and the other symbols
        # keep the QR fit.  A zero column makes r_33 exactly 0, which only
        # the identity patched in for a weak triangle keeps solve from
        # raising on
        rcv, refs, w = self._block(layout, qam, 2, False, dft_basis(64, 6),
                                   n_sym=9)
        w = w.copy()
        if defect == "repeated":
            w[::3, ..., 3] = w[::3, ..., 1]
        elif defect == "scaled":
            w[::3, ..., 3] *= 1e-13
        else:
            w[::3, ..., 3] = 0
        gammas = fit_prefixes(w, rcv, refs, (3, 4, 6))
        for d, gamma in gammas.items():
            for i, ref in enumerate(refs):
                weak = d > 3 and i % 3 == 0
                want = (pinv_fit(w[i], rcv, ref, d) if weak
                        else per_symbol_qr_fit(w[i], rcv, d, ref)[0])
                assert np.array_equal(gamma[i], want)

    def test_prefix_of_wider_qr_is_bit_identical(self):
        # R[:d, :d] and R[:d, -1] of QR([A | s]) are set by the first d
        # reflectors alone, so a wider A leaves them unchanged, bit for bit
        rng = np.random.default_rng(84)
        for _ in range(100):
            m, width = rng.integers(8, 48), rng.integers(2, 17)
            a = (rng.standard_normal((3, m, width + 1))
                 + 1j * rng.standard_normal((3, m, width + 1)))
            r_wide = np.linalg.qr(a, mode="r")
            for d in range(1, min(m, width) + 1):
                r = np.linalg.qr(np.concatenate((a[..., :d], a[..., -1:]),
                                                axis=-1), mode="r")
                assert np.array_equal(r_wide[..., :d, :d], r[..., :d, :d]), \
                    (m, width, d)
                assert np.array_equal(r_wide[..., :d, -1], r[..., :d, -1]), \
                    (m, width, d)


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
        gamma, _, s_hat = comp(z, ch, bas, sym, layout)
        assert abs(gamma[0] - 8.0) <= 1e-9
        np.testing.assert_allclose(bas @ gamma, np.ones(64), atol=1e-9)
        np.testing.assert_allclose(s_hat, sym, atol=1e-9)
        assert evm_db(s_hat, sym, layout) <= -180

    def test_constant_phase_recovered(self, layout, qam):
        theta = 0.7
        sym = make_symbol(layout, qam, rng_seed=13)
        ch = gen_channel(8, "uniform", seed=13, n=64)
        z = received(ch, sym, psi=np.exp(1j * theta) * np.ones(64))
        bas = dft_basis(64, 1)
        gamma, _, s_hat = comp(z, ch, bas, sym, layout)
        np.testing.assert_allclose(bas @ gamma,
                                   np.exp(-1j * theta) * np.ones(64),
                                   atol=1e-9)
        assert evm_db(s_hat, sym, layout) <= -180

    def test_in_span_exact_recovery(self, layout, qam):
        # phi synthesized inside a conjugate-closed span: residual is the
        # second-order term only, far below -80 dB at small angles
        rng = np.random.default_rng(14)
        bas = dft_basis(64, 5)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = (bas @ coeffs).real
        phi *= 0.005 / np.max(np.abs(phi))
        sym = make_symbol(layout, qam, rng_seed=14)
        ch = gen_channel(8, "exp_decay(3)", seed=14, n=64)
        z = received(ch, sym, psi=np.exp(1j * phi))
        for method in ("LS", "TLS"):
            _, _, s_hat = comp(z, ch, bas, sym, layout, method=method)
            assert evm_db(s_hat, sym, layout) <= -80

    def test_two_branches_beat_one(self, layout, qam):
        # doubled pilot-row count: mean EVM no worse with 2 rx branches
        gen = PnGenerator(15, (3.0,))
        cov = estimate_cov([gen.next(64)[0] for _ in range(500)])
        bas = kl_basis(cov, 8)
        gen2 = PnGenerator(16, (3.0,))
        one = two = 0.0
        for i in range(30):
            sym = make_symbol(layout, qam, rng_seed=200 + i)
            ch = gen_channel(8, "exp_decay(3)", seed=300 + i, n_rx=2, n=64)
            psi = gen2.next(64)[0]
            z = received(ch, sym, psi=psi)
            _, _, s1 = comp(z[:1], ch[:1], bas, sym, layout)
            _, _, s2 = comp(z, ch, bas, sym, layout)
            one += 10 ** (evm_db(s1, sym, layout) / 10)
            two += 10 ** (evm_db(s2, sym, layout) / 10)
        assert two <= one

    def test_ls_beats_cpe_baseline_residual(self, layout, qam):
        # the fitted residual on pilot rows is no larger than the pure-CPE
        # coefficient vector's residual
        gen = PnGenerator(17, (3.0,))
        bas = dft_basis(64, 6)
        sym = make_symbol(layout, qam, rng_seed=18)
        ch = gen_channel(8, "exp_decay(3)", seed=18, n=64)
        z = received(ch, sym, psi=gen.next(64)[0])[0]
        w = w_one(z, ch[0], bas)
        p = list(layout.pilot_idx)
        w_p, s_p = w[p], sym[p]
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
            phi = (bas @ coeffs).real
            phi *= 0.01 / np.max(np.abs(phi))
            sym = make_symbol(layout, qam, rng_seed=400 + i)
            ch = gen_channel(8, "exp_decay(3)", seed=500 + i, n=64)
            z = received(ch, sym, psi=np.exp(1j * phi))
            _, _, s_hat = comp(z, ch, bas, sym, layout)
            base = equalize_only(z, receiver(ch, layout))
            assert (evm_db(s_hat, sym, layout)
                    <= evm_db(base, sym, layout) + 0.1)

    def test_null_tone_rows_added(self, qam):
        layout = ToneLayout(n=64, pilot_idx=tuple(range(7)) + (20, 42)
                            + tuple(range(57, 64)), null_idx=(30, 31))
        sym = make_symbol(layout, qam, rng_seed=20)
        ch = gen_channel(8, "uniform", seed=20, n=64)
        z = received(ch, sym)
        _, with_null, _ = comp(z, ch, dft_basis(64, 4), sym, layout,
                               use_null_tones=True)
        _, without, _ = comp(z, ch, dft_basis(64, 4), sym, layout)
        assert with_null == without + 2

    def test_underdetermined_flagged(self, qam):
        layout = ToneLayout(n=64, pilot_idx=(0, 1))
        sym = make_symbol(layout, qam, rng_seed=21)
        ch = gen_channel(8, "uniform", seed=21, n=64)
        z = received(ch, sym)
        gamma, rows, _ = comp(z, ch, dft_basis(64, 8), sym, layout)
        assert rows < len(gamma)  # underdetermined: fewer rows than d
        assert rows == 2
