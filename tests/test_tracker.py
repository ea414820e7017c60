"""Tests for decision-directed estimation and PAST subspace tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncomp import numerics as nx
from pncomp.basis import kl_basis
from pncomp.channel import gen_channel
from pncomp.compensator import receiver
from pncomp.harness import SYMBOL_BLOCK, Scenario
from pncomp.ofdm import (Constellation, default_layout, evm_db, make_symbol,
                         symbol_error_rate)
from pncomp.phase_noise import PnGenerator, apply_offset, estimate_cov
from pncomp.tracker import (dd_phase_estimate, init_tracker, past_update,
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


def phase_per_sample(ppm):
    """The offset ramp's step of ppm on a 5 GHz carrier at 20 MHz."""
    return Scenario(name="tracking", ppm=ppm, carrier_hz=5e9,
                    sample_rate_hz=20e6).phase_per_sample


def received(lam, sym, psi=None):
    y = nx.ifft(lam * nx.fft(nx.ifft(sym))[None, :])
    if psi is not None:
        y = psi[None, :] * y
    return y


class TestDdPhaseEstimate:
    def test_exact_signal_gives_ones(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=1)
        lam = gen_channel(8, "exp_decay(3)", seed=1, n=64)
        z = received(lam, sym)
        phi = dd_phase_estimate(z, sym, lam)
        np.testing.assert_allclose(phi, np.zeros(64), atol=1e-10)

    def test_constant_rotation(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=2)
        lam = gen_channel(8, "exp_decay(3)", seed=2, n=64)
        z = np.exp(0.4j) * received(lam, sym)
        phi = dd_phase_estimate(z, sym, lam)
        np.testing.assert_allclose(phi, np.full(64, 0.4), atol=1e-10)

    def test_recovers_true_psi(self, layout, qam):
        sym = make_symbol(layout, qam, rng_seed=3)
        lam = gen_channel(8, "exp_decay(3)", seed=3, n_rx=2, n=64)
        phi_true = PnGenerator(3, (4.0,)).next_phi(64)[0]
        z = received(lam, sym, psi=np.exp(1j * phi_true))
        phi = dd_phase_estimate(z, sym, lam)
        np.testing.assert_allclose(phi, phi_true, atol=1e-10)

    def test_unit_modulus_always(self, layout, qam):
        # a real phase in [-pi, pi] makes the tracked exp(-j*phi) unit modulus
        rng = np.random.default_rng(4)
        sym = make_symbol(layout, qam, rng_seed=4)
        lam = gen_channel(8, "exp_decay(3)", seed=4, n=64)
        z = received(lam, sym) + 0.3 * (rng.standard_normal((1, 64))
                                       + 1j * rng.standard_normal((1, 64)))
        phi = dd_phase_estimate(z, sym, lam)
        assert phi.shape == (64,) and phi.dtype == np.float64
        assert np.all(np.abs(phi) <= np.pi)
        assert np.max(np.abs(np.abs(np.exp(1j * phi)) - 1.0)) <= 1e-12

    def test_rejects_zero_reconstruction(self, layout, qam):
        lam = gen_channel(8, "uniform", seed=5, n=64)
        zero = np.zeros(64, dtype=complex)
        with pytest.raises(ValueError):
            dd_phase_estimate(np.ones((1, 64)), zero, lam)


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
        s_hat = nx.fft(y) / lam[0]
        z = cvec(n_rx, 64)
        mag = np.abs(nx.ifft(lam * s_hat)).max(axis=0)
        assert (mag < 1e-9 * mag.max()).any() == zero
        got = dd_phase_estimate(z, s_hat, lam)
        want = oracles.dd_phase_estimate(z, s_hat, lam)
        assert np.array_equal(got, want)


class TestPastUpdate:
    def test_zero_innovation(self):
        # input already in span(V) with beta = 1 leaves V unchanged
        v, p = init_tracker(64, 3)
        x = v @ np.array([1.0, 2.0 - 1j, 0.5])
        new_v, _ = past_update(v, p, x, 1.0)
        np.testing.assert_allclose(new_v, v, atol=1e-12)

    def test_rank_one_stationary_p_shrink(self):
        # d=1, repeated all-ones input, beta=1: P_m = 1/(1 + m*N)
        n = 64
        v, p = init_tracker(n, 1)
        ones = np.ones(n, dtype=complex)
        for m in range(1, 6):
            v, p = past_update(v, p, ones, 1.0)
            expected = 1.0 / (1.0 + m * n)
            assert abs(p[0, 0].real - expected) <= 1e-10
            # V stays in the all-ones direction
            overlap = np.abs(np.vdot(v[:, 0], ones / np.sqrt(n)))
            assert abs(overlap - np.linalg.norm(v[:, 0])) <= 1e-9

    def test_p_stays_hermitian(self):
        rng = np.random.default_rng(6)
        v, p = init_tracker(32, 4)
        for _ in range(50):
            x = np.exp(1j * 0.1 * rng.standard_normal(32))
            v, p = past_update(v, p, x, 0.9)
            assert np.max(np.abs(p - p.conj().T)) <= 1e-8

    def test_inputs_not_written(self):
        # run_tracked starts every channel from one init_tracker state
        v, p = init_tracker(16, 2)
        v0, p0 = v.copy(), p.copy()
        past_update(v, p, np.exp(0.3j * np.arange(16)), 0.9)
        assert np.array_equal(v, v0) and np.array_equal(p, p0)

    def test_rank3_convergence(self):
        # i.i.d. inputs from a synthetic rank-3 covariance
        rng = np.random.default_rng(7)
        n, d = 64, 3
        u, _ = np.linalg.qr(rng.standard_normal((n, d))
                            + 1j * rng.standard_normal((n, d)))
        v, p = init_tracker(n, d)
        scales = np.array([3.0, 2.0, 1.0])
        for _ in range(2000):
            coeff = scales * (rng.standard_normal(d)
                              + 1j * rng.standard_normal(d))
            v, p = past_update(v, p, u @ coeff, 0.99)
        assert principal_angle(v, u) < 0.05

    def test_convergence_trend_over_windows(self):
        # mean principal angle decreases across consecutive 100-update windows
        rng = np.random.default_rng(8)
        n, d = 64, 2
        u, _ = np.linalg.qr(rng.standard_normal((n, d))
                            + 1j * rng.standard_normal((n, d)))
        v, p = init_tracker(n, d)
        window_means = []
        angles = []
        for i in range(600):
            coeff = np.array([2.0, 1.0]) * (rng.standard_normal(d)
                                            + 1j * rng.standard_normal(d))
            v, p = past_update(v, p, u @ coeff, 1.0)
            angles.append(principal_angle(v, u))
            if len(angles) == 100:
                window_means.append(np.mean(angles))
                angles = []
        assert all(b <= a + 1e-12 for a, b in zip(window_means, window_means[1:]))


class TestRunTracked:
    def _stream(self, layout, qam, n_symbols, sigma_deg, seed,
                offset=None, n_rx=1):
        """(z (n_symbols, n_rx, N), Receiver, references (n_symbols, N))
        of one channel, with the offset ramp of step offset, if given."""
        lam = gen_channel(8, "exp_decay(3)", seed=seed, n_rx=n_rx, n=64)
        gen = PnGenerator(seed, (sigma_deg,))
        z, refs = [], []
        for m in range(n_symbols):
            refs.append(make_symbol(layout, qam, rng_seed=seed * 10_000 + m))
            psi = gen.next(64)[0]
            if offset is not None:
                psi = apply_offset(psi, offset, start_sample=m * 64)
            z.append(received(lam, refs[-1], psi=psi))
        return np.array(z), receiver(lam, layout), np.array(refs)

    def test_clean_input_floor(self, layout, qam):
        z, rcv, refs = self._stream(layout, qam, 20, sigma_deg=0.0, seed=9)
        s_hats, _ = run_tracked(z, rcv, refs, init_tracker(64, 4), qam, 0.9,
                                training=5)
        assert all(evm_db(s_hat, ref, layout) <= -180
                   for s_hat, ref in zip(s_hats, refs))

    def test_tracking_improves_over_initial_basis(self, layout, qam):
        z, rcv, refs = self._stream(layout, qam, 400, sigma_deg=3.0, seed=10)
        d = 4
        s_hats, _ = run_tracked(z, rcv, refs, init_tracker(64, d), qam, 0.9,
                                training=100)
        lin = [10 ** (evm_db(s_hat, ref, layout) / 10)
               for s_hat, ref in zip(s_hats, refs)]
        early = np.mean(lin[:20])
        late = np.mean(lin[-100:])
        assert late < early

    def test_offset_span_matches_modulated_kl(self, layout, qam):
        # with a residual carrier the converged span equals the span of the
        # conjugate-ramp-modulated covariance eigenvectors
        off = phase_per_sample(5.0)
        d = 4
        z, rcv, refs = self._stream(layout, qam, 600, sigma_deg=3.0, seed=11,
                                    offset=off)
        _, (v, _) = run_tracked(z, rcv, refs, init_tracker(64, d), qam, 0.95,
                                training=100)
        gen = PnGenerator(999, (3.0,))
        cov = estimate_cov([gen.next(64)[0] for _ in range(2000)])
        kl = kl_basis(cov, d)
        c = apply_offset(np.ones(64), off)
        target = np.conj(c)[:, None] * kl  # cancellation-side modulation
        assert principal_angle(v, target) < 0.1

    def test_freeze_stops_updates(self, layout, qam):
        z, rcv, refs = self._stream(layout, qam, 30, sigma_deg=3.0, seed=12)
        state = init_tracker(64, 4)
        kw = dict(training=30, freeze=10)
        _, final = run_tracked(z, rcv, refs, state, qam, 0.9, **kw)
        # the state after 30 symbols is the one after the first 10
        _, at_10 = run_tracked(z[:10], rcv, refs[:10], state, qam, 0.9, **kw)
        np.testing.assert_array_equal(final[0], at_10[0])
        np.testing.assert_array_equal(final[1], at_10[1])

    def test_warm_start_continues_identically(self, layout, qam):
        z, rcv, refs = self._stream(layout, qam, 40, sigma_deg=3.0, seed=14)
        state = init_tracker(64, 4)
        full, _ = run_tracked(z, rcv, refs, state, qam, 0.9, training=40)
        # split run, the second half started from the mid-run state
        _, mid = run_tracked(z[:20], rcv, refs[:20], state, qam, 0.9,
                             training=40)
        tail, _ = run_tracked(z[20:], rcv, refs[20:], mid, qam, 0.9,
                              training=40)
        for a, b, ref in zip(full[20:], tail, refs[20:]):
            assert evm_db(a, ref, layout) == evm_db(b, ref, layout)


def block_by_block(z, rcv, refs, state, const, beta, training, freeze):
    """run_tracked called once per SYMBOL_BLOCK of the stream z, with the
    block's start index and the state the previous call returned; returns
    the estimates (M, N) and the last state."""
    got = []
    for m0 in range(0, len(z), SYMBOL_BLOCK):
        block = slice(m0, m0 + SYMBOL_BLOCK)
        s_hats, state = run_tracked(z[block], rcv, refs[block], state, const,
                                    beta, training, freeze, start=m0)
        got.append(s_hats)
    return np.concatenate(got), state


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
        lam = gen_channel(8, "exp_decay(3)", seed=seed, n_rx=n_rx, n=64)
        if zero:  # pilot tone 3 and data tone 10 of branch 0
            lam[0, [3, 10]] = 0
        rcv = receiver(lam, layout, method)
        gen = PnGenerator(seed, (3.0,))
        off = phase_per_sample(ppm)
        rng = np.random.default_rng(seed)
        z, refs = [], []
        for m in range(n_symbols):
            refs.append(make_symbol(layout, qam, rng_seed=seed * 1000 + m))
            psi = apply_offset(gen.next(64)[0], off, start_sample=m * 64)
            noise = 0.05 * (rng.standard_normal((n_rx, 64))
                            + 1j * rng.standard_normal((n_rx, 64)))
            z.append(psi * (nx.ifft(lam * refs[-1]) + noise))
        z, refs = np.array(z), np.array(refs)
        args = (z, rcv, refs, init_tracker(64, 4), qam, 0.9, training, freeze)
        want, want_state = oracles.run_tracked(*args)
        got, state = block_by_block(*args)
        assert got.shape == want.shape == (n_symbols, 64)
        assert np.array_equal(got, want)
        assert np.array_equal(state[0], want_state[0])
        assert np.array_equal(state[1], want_state[1])
        # decisions that feed the tracker are wrong on some tones, so the
        # decided symbols differ from the references and their bits matter
        dd = slice(training, freeze)
        assert any(symbol_error_rate(s_hat, ref, layout, qam) > 0
                   for s_hat, ref in zip(want[dd], refs[dd]))
        if method == "LS":
            # the tolerance tier: the oracle tracker with one pinv per
            # symbol gives estimates and a state within 1e-10 relative,
            # and the same symbol errors
            near, near_state = oracles.run_tracked(
                *args, fit=oracles.per_symbol_fit)
            for s_hat, s_near, ref in zip(got, near, refs):
                assert (np.abs(s_hat - s_near).max()
                        <= 1e-10 * np.abs(s_near).max())
                assert (symbol_error_rate(s_hat, ref, layout, qam)
                        == symbol_error_rate(s_near, ref, layout, qam))
            for a, b in zip(state, near_state):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    def test_fewer_rows_than_d_matches_whole_stream(self, layout):
        # one branch has 16 pilot rows, fewer than d = 20: every symbol's
        # fit is solve_ls's minimum-norm answer, as in the oracle tracker
        n_symbols, seed, d = 40, 22, 20
        qam = Constellation.qam(16)
        lam = gen_channel(8, "exp_decay(3)", seed=seed, n_rx=1, n=64)
        rcv = receiver(lam, layout)
        assert len(rcv.tones) == 16
        gen = PnGenerator(seed, (3.0,))
        rng = np.random.default_rng(seed)
        refs = np.array([make_symbol(layout, qam, rng_seed=seed * 1000 + m)
                         for m in range(n_symbols)])
        z = np.array([gen.next(64) * (nx.ifft(lam * ref) + 0.05 * (
            rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))))
            for ref in refs])
        args = (z, rcv, refs, init_tracker(64, d), qam, 0.9, 10, 30)
        want, want_state = oracles.run_tracked(*args)
        got, state = block_by_block(*args)
        assert np.array_equal(got, want)
        assert np.array_equal(state[0], want_state[0])
        assert np.array_equal(state[1], want_state[1])
