"""Tests for decision-directed estimation and PAST subspace tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncomp import numerics as nx
from pncomp.basis import dft_basis, kl_basis
from pncomp.channel import gen_channel
from pncomp.compensator import CompConfig, receiver
from pncomp.harness import SYMBOL_BLOCK
from pncomp.ofdm import (Constellation, FreqSymbol, default_layout, evm_db,
                         make_symbol, symbol_error_rate)
from pncomp.phase_noise import (CarrierOffset, PnGenerator, PnModel,
                                apply_offset, estimate_cov, offset_factor)
from pncomp.tracker import (TrackedSymbol, TrackerState, TrackingConfig,
                            dd_phase_estimate, init_tracker, past_update,
                            run_tracked)

import oracles


def principal_angle(a, b):
    """Largest principal angle between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


@pytest.fixture(scope="module")
def layout():
    return default_layout()


@pytest.fixture(scope="module")
def qam():
    return Constellation.qam(256)


def received(ch, sym, psi=None):
    y = nx.ifft(ch.lam * nx.fft(nx.ifft(sym.s))[None, :])
    if psi is not None:
        y = psi[None, :] * y
    return y


class TestDdPhaseEstimate:
    def test_exact_signal_gives_ones(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=1)
        ch = gen_channel(8, "exp_decay(3)", seed=1, n=64)
        z = received(ch, sym)
        est = dd_phase_estimate(z, sym, ch.lam)
        np.testing.assert_allclose(est.psi, np.ones(64), atol=1e-10)

    def test_constant_rotation(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=2)
        ch = gen_channel(8, "exp_decay(3)", seed=2, n=64)
        z = np.exp(0.4j) * received(ch, sym)
        est = dd_phase_estimate(z, sym, ch.lam)
        np.testing.assert_allclose(est.psi, np.exp(0.4j) * np.ones(64),
                                   atol=1e-10)

    def test_recovers_true_psi(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=3)
        ch = gen_channel(8, "exp_decay(3)", seed=3, n_rx=2, n=64)
        psi_true = PnGenerator(PnModel(sigma_deg=4.0, seed=3)).next(64).psi
        z = received(ch, sym, psi=psi_true)
        est = dd_phase_estimate(z, sym, ch.lam)
        np.testing.assert_allclose(est.psi, psi_true, atol=1e-10)

    def test_unit_modulus_always(self, layout, qam):
        rng = np.random.default_rng(4)
        sym = make_symbol(layout, qam, rng_seed=4)
        ch = gen_channel(8, "exp_decay(3)", seed=4, n=64)
        z = received(ch, sym) + 0.3 * (rng.standard_normal((1, 64))
                                       + 1j * rng.standard_normal((1, 64)))
        est = dd_phase_estimate(z, sym, ch.lam)
        assert np.max(np.abs(np.abs(est.psi) - 1.0)) <= 1e-12

    def test_rejects_zero_reconstruction(self, layout, qam):
        from pncomp.ofdm import FreqSymbol
        ch = gen_channel(8, "uniform", seed=5, n=64)
        zero = FreqSymbol(s=np.zeros(64), layout=layout)
        with pytest.raises(ValueError):
            dd_phase_estimate(np.ones((1, 64)), zero, ch.lam)


class TestDdPhaseEstimateBits:
    """dd_phase_estimate against the oracle's, equal bit for bit, on 1-3
    branches, with and without samples whose reconstruction vanishes (they
    take the nearest valid estimate, ties to the earlier sample)."""

    @given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_oracle(self, layout, n_rx, zero, seed):
        rng = np.random.default_rng(seed)

        def cvec(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        # every branch reconstructs a multiple of y, so a zero sample of y
        # is negligible on all of them
        y = cvec(64)
        if zero:
            y[rng.choice(64, rng.integers(1, 40), replace=False)] = 0
        lam = cvec(n_rx, 1) * cvec(64)
        s_hat = FreqSymbol(s=nx.fft(y) / lam[0], layout=layout)
        z = cvec(n_rx, 64)
        mag = np.abs(nx.ifft(lam * s_hat.s)).max(axis=0)
        assert (mag < 1e-9 * mag.max()).any() == zero
        got = dd_phase_estimate(z, s_hat, lam)
        want = oracles.dd_phase_estimate(z, s_hat, lam)
        assert np.array_equal(got.phi, want.phi)
        assert np.array_equal(got.psi, want.psi)


class TestPastUpdate:
    def test_zero_innovation(self):
        # input already in span(V) with beta = 1 leaves V unchanged
        state = init_tracker(64, 3, beta=1.0)
        x = state.v @ np.array([1.0, 2.0 - 1j, 0.5])
        new = past_update(state, x)
        np.testing.assert_allclose(new.v, state.v, atol=1e-12)

    def test_rank_one_stationary_p_shrink(self):
        # d=1, repeated all-ones input, beta=1: P_m = 1/(1 + m*N)
        n = 64
        state = init_tracker(n, 1, beta=1.0)
        ones = np.ones(n, dtype=complex)
        for m in range(1, 6):
            state = past_update(state, ones)
            expected = 1.0 / (1.0 + m * n)
            assert abs(state.p[0, 0].real - expected) <= 1e-10
            # V stays in the all-ones direction
            overlap = np.abs(np.vdot(state.v[:, 0], ones / np.sqrt(n)))
            assert abs(overlap - np.linalg.norm(state.v[:, 0])) <= 1e-9

    def test_p_stays_hermitian(self):
        rng = np.random.default_rng(6)
        state = init_tracker(32, 4, beta=0.9)
        for _ in range(50):
            x = np.exp(1j * 0.1 * rng.standard_normal(32))
            state = past_update(state, x)
            assert np.max(np.abs(state.p - state.p.conj().T)) <= 1e-8

    def test_rank3_convergence(self):
        # i.i.d. inputs from a synthetic rank-3 covariance
        rng = np.random.default_rng(7)
        n, d = 64, 3
        u, _ = np.linalg.qr(rng.standard_normal((n, d))
                            + 1j * rng.standard_normal((n, d)))
        state = init_tracker(n, d, beta=0.99)
        scales = np.array([3.0, 2.0, 1.0])
        for _ in range(2000):
            coeff = scales * (rng.standard_normal(d)
                              + 1j * rng.standard_normal(d))
            state = past_update(state, u @ coeff)
        assert principal_angle(state.v, u) < 0.05

    def test_convergence_trend_over_windows(self):
        # mean principal angle decreases across consecutive 100-update windows
        rng = np.random.default_rng(8)
        n, d = 64, 2
        u, _ = np.linalg.qr(rng.standard_normal((n, d))
                            + 1j * rng.standard_normal((n, d)))
        state = init_tracker(n, d, beta=1.0)
        window_means = []
        angles = []
        for i in range(600):
            coeff = np.array([2.0, 1.0]) * (rng.standard_normal(d)
                                            + 1j * rng.standard_normal(d))
            state = past_update(state, u @ coeff)
            angles.append(principal_angle(state.v, u))
            if len(angles) == 100:
                window_means.append(np.mean(angles))
                angles = []
        assert all(b <= a + 1e-12 for a, b in zip(window_means, window_means[1:]))


class TestRunTracked:
    def _stream(self, layout, qam, n_symbols, sigma_deg, seed,
                offset=None, n_rx=1):
        ch = gen_channel(8, "exp_decay(3)", seed=seed, n_rx=n_rx, n=64)
        gen = PnGenerator(PnModel(sigma_deg=sigma_deg, seed=seed))
        rcv = receiver(ch.lam, layout)
        syms = []
        for m in range(n_symbols):
            ref = make_symbol(layout, qam, rng_seed=seed * 10_000 + m)
            psi = gen.next(64)
            if offset is not None:
                psi = apply_offset(psi, offset, start_sample=m * 64)
            syms.append(TrackedSymbol(z=received(ch, ref, psi=psi.psi),
                                      rcv=rcv, ref=ref))
        return syms

    def test_clean_input_floor(self, layout, qam):
        syms = self._stream(layout, qam, 20, sigma_deg=0.0, seed=9)
        state = init_tracker(64, 4, beta=0.9)
        cfg = TrackingConfig(constellation=qam, training_symbols=5)
        results, _ = run_tracked(iter(syms), state, cfg)
        assert all(evm_db(res.s_hat, s.ref) <= -180
                   for res, s in zip(results, syms))

    def test_tracking_improves_over_initial_basis(self, layout, qam):
        syms = self._stream(layout, qam, 400, sigma_deg=3.0, seed=10)
        d = 4
        state = init_tracker(64, d, beta=0.9)
        cfg = TrackingConfig(constellation=qam, training_symbols=100)
        results, _ = run_tracked(iter(syms), state, cfg)
        lin = [10 ** (evm_db(r.s_hat, s.ref) / 10)
               for r, s in zip(results, syms)]
        early = np.mean(lin[:20])
        late = np.mean(lin[-100:])
        assert late < early

    def test_offset_span_matches_modulated_kl(self, layout, qam):
        # with a residual carrier the converged span equals the span of the
        # conjugate-ramp-modulated covariance eigenvectors
        off = CarrierOffset(ppm=5.0, carrier_hz=5e9, sample_rate_hz=20e6)
        d = 4
        syms = self._stream(layout, qam, 600, sigma_deg=3.0, seed=11,
                            offset=off)
        state = init_tracker(64, d, beta=0.95)
        cfg = TrackingConfig(constellation=qam, training_symbols=100)
        _, final = run_tracked(iter(syms), state, cfg)
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=999))
        cov = estimate_cov([gen.next(64) for _ in range(2000)])
        kl = kl_basis(cov, d)
        c = offset_factor(off, 0, 64)
        target = np.conj(c)[:, None] * kl.v  # cancellation-side modulation
        assert principal_angle(final.v, target) < 0.1

    def test_freeze_stops_updates(self, layout, qam):
        syms = self._stream(layout, qam, 30, sigma_deg=3.0, seed=12)
        state = init_tracker(64, 4, beta=0.9)
        cfg = TrackingConfig(constellation=qam, training_symbols=30,
                             freeze_after=10)
        _, final = run_tracked(iter(syms), state, cfg)
        # the state after 30 symbols is the one after the first 10
        _, at_10 = run_tracked(iter(syms[:10]), state, cfg)
        np.testing.assert_array_equal(final.v, at_10.v)
        np.testing.assert_array_equal(final.p, at_10.p)

    def test_warm_start_continues_identically(self, layout, qam):
        syms = self._stream(layout, qam, 40, sigma_deg=3.0, seed=14)
        cfg = TrackingConfig(constellation=qam, training_symbols=40)
        state = init_tracker(64, 4, beta=0.9)
        res_full, _ = run_tracked(iter(syms), state, cfg)
        # split run, the second half started from the mid-run state
        state = init_tracker(64, 4, beta=0.9)
        _, mid = run_tracked(iter(syms[:20]), state, cfg)
        res_tail, _ = run_tracked(iter(syms[20:]), mid, cfg)
        for a, b, s in zip(res_full[20:], res_tail, syms[20:]):
            assert evm_db(a.s_hat, s.ref) == evm_db(b.s_hat, s.ref)


class TestBlockByBlockOracle:
    """run_tracked called once per SYMBOL_BLOCK, with the block's start
    index and the state the previous call returned, against one
    whole-stream call of the oracle tracker, bit for bit."""

    @pytest.mark.parametrize("n_rx, method, ppm, training, freeze, zero", [
        (1, "LS", 2.0, 20, None, False),
        (3, "TLS", 0.0, 20, 40, True),
        (1, "TLS", -1.5, 10, 32, True),
        (3, "LS", 1.0, 36, 40, False),
        (2, "TLS", 0.0, 0, 32, False),
    ], ids=["nrx1_ls_ppm_train20", "nrx3_tls_zero_tone_freeze40",
            "nrx1_tls_ppm_zero_tone_freeze32", "nrx3_ls_ppm_train36_freeze40",
            "nrx2_tls_no_training_freeze32"])
    def test_matches_whole_stream(self, layout, n_rx, method, ppm, training,
                                  freeze, zero):
        n_symbols, seed = 70, 21
        qam = Constellation.qam(64)
        ch = gen_channel(8, "exp_decay(3)", seed=seed, n_rx=n_rx, n=64)
        lam = ch.lam.copy()
        if zero:  # pilot tone 3 and data tone 10 of branch 0
            lam[0, [3, 10]] = 0
        rcv = receiver(lam, layout, CompConfig(method=method))
        gen = PnGenerator(PnModel(sigma_deg=3.0, seed=seed))
        off = CarrierOffset(ppm=ppm, carrier_hz=5e9, sample_rate_hz=20e6)
        rng = np.random.default_rng(seed)
        syms = []
        for m in range(n_symbols):
            ref = make_symbol(layout, qam, rng_seed=seed * 1000 + m)
            psi = apply_offset(gen.next(64), off, start_sample=m * 64).psi
            noise = 0.05 * (rng.standard_normal((n_rx, 64))
                            + 1j * rng.standard_normal((n_rx, 64)))
            z = psi * (nx.ifft(lam * ref.s) + noise)
            syms.append(TrackedSymbol(z=z, rcv=rcv, ref=ref))
        cfg = TrackingConfig(constellation=qam, training_symbols=training,
                             freeze_after=freeze)
        want, want_state = oracles.run_tracked(
            iter(syms), init_tracker(64, 4, beta=0.9), cfg)
        got, state = [], init_tracker(64, 4, beta=0.9)
        for m0 in range(0, n_symbols, SYMBOL_BLOCK):
            res, state = run_tracked(iter(syms[m0:m0 + SYMBOL_BLOCK]),
                                     state, cfg, start=m0)
            got += res
        assert len(got) == len(want) == n_symbols
        for a, b in zip(got, want):
            assert np.array_equal(a.s_hat.s, b.s_hat.s)
        assert np.array_equal(state.v, want_state.v)
        assert np.array_equal(state.p, want_state.p)
        # decisions that feed the tracker are wrong on some tones, so the
        # decided symbols differ from the references and their bits matter
        dd = slice(training, freeze)
        assert any(symbol_error_rate(r.s_hat, s.ref, qam) > 0
                   for r, s in zip(want[dd], syms[dd]))
