"""Tests for the phase-noise process, covariance and carrier offset."""

import numpy as np
import pytest
from scipy import signal

from pncomp import numerics as nx
from pncomp.phase_noise import (PnGenerator, apply_offset, design_filter,
                                estimate_cov, load_pn_samples,
                                save_pn_samples)


class TestGenPn:
    def test_sigma_zero_gives_ones(self):
        psi = PnGenerator(1, (0.0,)).next(64)
        np.testing.assert_allclose(psi, np.ones((1, 64)), atol=1e-14)

    def test_deterministic(self):
        a = PnGenerator(2, (3.0,)).next(64)
        b = PnGenerator(2, (3.0,)).next(64)
        np.testing.assert_array_equal(a, b)

    def test_unit_modulus(self):
        psi = PnGenerator(3, (5.0,)).next(256)
        assert np.max(np.abs(np.abs(psi) - 1.0)) <= 1e-12

    def test_std_calibration(self):
        # long-run empirical std of phi matches the target within 2%
        phi = PnGenerator(3, (3.0,)).next_phi(100_000)[0]
        assert abs(np.rad2deg(np.std(phi)) - 3.0) <= 0.06

    def test_continuity_across_symbols(self):
        # one generator streaming two symbols equals one longer draw
        a = PnGenerator(4, (3.0,))
        b = PnGenerator(4, (3.0,))
        two = np.concatenate([a.next_phi(64), a.next_phi(64)], axis=1)
        one = b.next_phi(128)
        np.testing.assert_allclose(two, one, atol=1e-14)

    def test_rejects_empty_draw(self):
        # lfilter returns a changed state for an empty input, so an empty
        # draw would shift the stream; it is rejected and changes nothing
        gen, fresh = PnGenerator(1, (3.0,)), PnGenerator(1, (3.0,))
        _, zi = signal.lfilter(gen._b, gen._a, np.zeros(0), zi=gen._zi)
        assert not np.array_equal(zi, gen._zi)
        with pytest.raises(ValueError, match="n must be >= 1"):
            gen.next_phi(0)
        assert np.array_equal(gen.next_phi(64), fresh.next_phi(64))

    def test_filter_designed_once_per_shape(self):
        # generators that differ only in seed and sigma share one filter
        # design, and draw what a freshly designed filter gives bit for bit
        a = PnGenerator(11, (3.0,), cutoff=0.004)
        b = PnGenerator(12, (5.0,), 2, 0.004, 1.0)
        assert a._b is b._b and a._a is b._a
        for sigma, seed, gen in ((3.0, 11, a), (5.0, 12, b)):
            fb, fa = signal.cheby1(2, 1.0, 2.0 * 0.004)
            h = signal.lfilter(fb, fa, np.r_[1.0, np.zeros((1 << 15) - 1)])
            scale = np.deg2rad(sigma) / np.sqrt(np.sum(h * h))
            rng = np.random.default_rng(seed)
            _, zi = signal.lfilter(fb, fa, rng.standard_normal(20_000),
                                   zi=np.zeros(2))
            y, _ = signal.lfilter(fb, fa, rng.standard_normal(200), zi=zi)
            assert np.array_equal(gen.next_phi(200), scale * y[None])


class TestDesignFilter:
    @pytest.mark.parametrize("cutoff", [0.005, 0.001])
    def test_designs_cutoffs(self, cutoff):
        b, a, gain = design_filter(2, cutoff, 1.0)
        assert len(b) == len(a) == 3 and gain > 0
        assert not b.flags.writeable and not a.flags.writeable

    # the cutoff and ripple ranges are the config's (harness._RULES); out
    # of them, scipy refuses the design, or the ripple divides by zero
    @pytest.mark.parametrize("order, cutoff, ripple_db, match", [
        (2, 0.7, 1.0, "critical frequencies"),
        (2, 0.0, 1.0, "critical frequencies"),
        (2, 0.005, 0.0, "no phase-noise filter"),
        (2, 0.005, 1e-20, "no phase-noise filter"),
        (40, 0.005, 1.0, "unstable"),
        # b underflows to zero: the filter passes nothing
        (0, 0.005, 7000.0, "no phase-noise filter"),
        # share of the impulse response's energy past the warm-up: 1.8e-12
        # at cutoff 2e-4, 0.45 at 1e-5 and 0.76 at 1e-6
        (2, 2e-4, 1.0, "settle"),
        (2, 1e-5, 1.0, "settle"),
        (2, 1e-6, 1.0, "settle"),
    ], ids=["cutoff_0.7", "cutoff_0", "ripple_0", "ripple_underflow",
            "order_40", "no_energy", "cutoff_2e-4", "cutoff_1e-5",
            "cutoff_1e-6"])
    def test_rejects(self, order, cutoff, ripple_db, match):
        with pytest.raises(ValueError, match=match):
            design_filter(order, cutoff, ripple_db)


class TestSharedLevels:
    """One generator drawn at several sigmas gives, row by row, the stream
    of a separate generator per sigma, bit for bit; next(n) is
    psi = exp(j*phi) of the draw next_phi(n) would make."""

    @pytest.mark.parametrize("sigmas", [(3.0,), (0.0, 3.0, 3.0),
                                        (2.0, 4.0, 6.0), (0.0,)],
                             ids=["one", "zero_repeated", "three", "zero"])
    def test_rows_match_separate_generators(self, sigmas):
        def gens():
            return (PnGenerator(21, sigmas),
                    [PnGenerator(21, (s,)) for s in sigmas])
        (shared, separate), (shared_phi, separate_phi) = gens(), gens()
        for n in (64, 64 * 32, 64 * 5):
            psi, phi = shared.next(n), shared_phi.next_phi(n)
            assert psi.shape == phi.shape == (len(sigmas), n)
            assert np.array_equal(psi, np.exp(1j * phi))
            for row, phi_row, gen, gen_phi in zip(psi, phi, separate,
                                                  separate_phi):
                expected = gen.next(n)[0]
                assert np.array_equal(phi_row, gen_phi.next_phi(n)[0])
                assert np.array_equal(row, expected)
                # -0.0 and 0.0 alike: sigma 0 keeps the signs of zero
                assert np.array_equal(np.signbit(row.imag),
                                      np.signbit(expected.imag))


class TestEstimateCov:
    def test_single_realization_rank_one(self):
        psi = PnGenerator(5, (3.0,)).next(64)
        values, _ = nx.herm_eig(estimate_cov(psi))
        assert abs(values[0] - 64) <= 1e-9
        assert np.max(np.abs(values[1:])) <= 1e-9

    def test_zero_phase_gives_all_ones(self):
        cov = estimate_cov(np.ones((3, 16), dtype=complex))
        np.testing.assert_allclose(cov, np.ones((16, 16)), atol=1e-14)

    def test_unit_diagonal_and_psd(self):
        gen = PnGenerator(6, (4.0,))
        cov = estimate_cov([gen.next(64)[0] for _ in range(50)])
        np.testing.assert_allclose(np.diag(cov).real, np.ones(64), atol=1e-6)
        assert np.max(np.abs(np.diag(cov).imag)) <= 1e-12
        values, _ = nx.herm_eig(cov)
        assert values[-1] >= -1e-9 * np.trace(cov).real / 64

    def test_spectrum_concentration(self):
        # ten symbols at 3 degrees: four eigenvectors carry >= 99% of trace
        gen = PnGenerator(7, (3.0,))
        cov = estimate_cov([gen.next(64)[0] for _ in range(10)])
        values, _ = nx.herm_eig(cov)
        assert np.sum(values[:4]) >= 0.99 * np.sum(values)

    @pytest.mark.parametrize("rows", [1, 7, 500])
    def test_matches_outer_product_loop(self, rows):
        # the np.outer loop the preallocated product replaced, kept as the
        # reference: same terms, same order, same bits
        psi = PnGenerator(rows, (3.0,)).next(64 * rows).reshape(rows, 64)
        r = np.zeros((64, 64), dtype=np.complex128)
        for row in psi:
            r += np.outer(row, row.conj())
        r /= rows
        expected = (r + r.conj().T) / 2
        assert np.array_equal(estimate_cov(psi), expected)
        # a list of rows is the same rows
        assert np.array_equal(estimate_cov(list(psi)), expected)

    def test_stacked_rows_match_each(self):
        # rows (3, N): one covariance per leading index, each equal to
        # estimating that index's rows alone
        gen = PnGenerator(8, (0.0, 2.0, 5.0))
        psi = gen.next(64 * 40).reshape(3, 40, 64)
        r = estimate_cov(np.swapaxes(psi, 0, 1))
        assert r.shape == (3, 64, 64)
        for r_i, rows in zip(r, psi):
            assert np.array_equal(r_i, estimate_cov(rows))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_cov([])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            estimate_cov([np.ones(8, dtype=complex),
                          np.ones(16, dtype=complex)])

    def test_rejects_rows_unlike_the_first(self):
        # a (N,) row would broadcast against (2, N) rows; it is refused
        rows = (r for r in [np.ones((2, 8), dtype=complex),
                            np.ones(8, dtype=complex)])
        with pytest.raises(ValueError, match="row 2"):
            estimate_cov(rows)


# the ramp step 2*pi*delta_f*Ts of 5 ppm on a 5 GHz carrier at 20 MHz
PHASE_5PPM = 2.0 * np.pi * (5.0 * 1e-6 * 5e9) / 20e6


class TestCarrierOffset:
    def test_ppm_zero_unchanged(self):
        psi = PnGenerator(8, (3.0,)).next(64)[0]
        out = apply_offset(psi, 0.0, start_sample=100)
        np.testing.assert_array_equal(out, psi)

    def test_full_ramp(self):
        # delta_f * Ts = 1/N turns all-ones into one full phase ramp
        n = 64
        out = apply_offset(np.ones(n, dtype=complex), 2.0 * np.pi / n,
                           start_sample=0)
        expected = np.exp(2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_absolute_sample_counter(self):
        psi = PnGenerator(9, (2.0,)).next(64)[0]
        a = apply_offset(psi, PHASE_5PPM, start_sample=64)
        b = apply_offset(psi, PHASE_5PPM, start_sample=0)
        ramp = np.exp(1j * PHASE_5PPM * 64)
        np.testing.assert_allclose(a, b * ramp, atol=1e-12)

    def test_covariance_modulation_identity(self):
        # R built from offset realizations equals diag(c) R diag(c)*
        n = 64
        gen = PnGenerator(10, (3.0,))
        reals = [gen.next(n)[0] for _ in range(20)]
        # same start sample for every window so one common ramp factors out
        shifted = [apply_offset(r, PHASE_5PPM, start_sample=0) for r in reals]
        r_plain = estimate_cov(reals)
        r_shift = estimate_cov(shifted)
        c = apply_offset(np.ones(n), PHASE_5PPM)
        np.testing.assert_allclose(r_shift, np.diag(c) @ r_plain @ np.diag(c).conj().T,
                                   atol=1e-10)

    def test_eigenvector_modulation_identity(self):
        # eigenpairs of diag(c) R diag(c)* are (lambda_i, diag(c) u_i)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        r = a @ a.conj().T
        c = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        values, vectors = nx.herm_eig(r)
        values_mod, vectors_mod = nx.herm_eig(np.diag(c) @ r
                                              @ np.diag(c).conj().T)
        np.testing.assert_allclose(values_mod, values, atol=1e-9)
        for i in range(16):
            u_expect = c * vectors[:, i]
            overlap = np.abs(np.vdot(vectors_mod[:, i], u_expect))
            assert abs(overlap - 1.0) <= 1e-9


class TestPnFiles:
    def test_zeros_file(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n" * 32)
        np.testing.assert_array_equal(load_pn_samples(path, 16),
                                      np.zeros((2, 16)))

    def test_round_trip_bit_identical(self, tmp_path):
        phi = PnGenerator(12, (3.0,)).next_phi(128)[0]
        path = tmp_path / "pn.txt"
        save_pn_samples(path, phi)
        loaded = load_pn_samples(path, 64)
        assert loaded.shape == (2, 64)
        np.testing.assert_array_equal(loaded.ravel(), phi)

    def test_byte_order_mark_ignored(self, tmp_path):
        # a file saved as UTF-8 with a byte-order mark loads as without it
        phi = PnGenerator(13, (3.0,)).next_phi(64)[0]
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        save_pn_samples(plain, phi)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        np.testing.assert_array_equal(load_pn_samples(bom, 64),
                                      load_pn_samples(plain, 64))

    def test_window_count(self, tmp_path):
        path = tmp_path / "pn.txt"
        save_pn_samples(path, np.linspace(0, 1, 5 * 16 + 7))
        assert load_pn_samples(path, 16).shape == (5, 16)

    def test_re_im_pairs_projected(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("2.0,0.0\n" + "0.0,3.0\n" * 15)
        (phi,) = load_pn_samples(path, 16)
        np.testing.assert_allclose(phi, [0.0] + [np.pi / 2] * 15, atol=1e-12)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="malformed"):
            load_pn_samples(path, 1)

    @pytest.mark.parametrize("line", ["0,0", "-0.0,0.0", "0.0,-0.0"])
    def test_zero_pair(self, tmp_path, line):
        # a zero sample has no phase to project onto the unit circle
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n" + line + "\n0.0\n")
        with pytest.raises(ValueError, match=r"pn.txt:2: zero sample"):
            load_pn_samples(path, 1)

    def test_save_rejects_levels(self, tmp_path):
        # a (levels, n) draw would be written as multi-column lines that
        # the loader rejects; raveling it would interleave the levels
        path = tmp_path / "pn.txt"
        phi = PnGenerator(1, (1.0, 2.0)).next_phi(32)
        with pytest.raises(ValueError, match=r"\(2, 32\)"):
            save_pn_samples(path, phi)
        assert not path.exists()
        save_pn_samples(path, phi[1])
        np.testing.assert_array_equal(load_pn_samples(path, 32), phi[1:])

    @pytest.mark.parametrize("line", ["nan", "inf", "-inf", "1.0,nan",
                                      "inf,0.0"])
    def test_non_finite_line(self, tmp_path, line):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n" + line + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_pn_samples(path, 1)

    def test_too_short(self, tmp_path):
        path = tmp_path / "pn.txt"
        path.write_text("0.0\n")
        with pytest.raises(ValueError):
            load_pn_samples(path, 16)
