"""Tests for constellations, tone layout, modulation and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncomp import numerics as nx
from pncomp.ofdm import (Constellation, FreqSymbol, ToneLayout, default_layout,
                         evm_db, evm_linear, hard_decide, make_symbol,
                         ratio_to_db, symbol_error_rate, EVM_FLOOR_DB)

from oracles import bracket_decide, demodulate, modulate


@pytest.fixture(scope="module")
def layout():
    return default_layout()


@pytest.fixture(scope="module")
def qam256():
    return Constellation.qam(256)


class TestToneLayout:
    def test_default_counts(self, layout):
        assert layout.n == 64
        assert len(layout.data_idx) == 48
        assert layout.null_idx == ()

    def test_default_pilot_positions(self, layout):
        assert layout.pilot_idx == tuple(range(7)) + (20, 42) + tuple(range(57, 64))

    def test_partition(self, layout):
        everything = (set(layout.pilot_idx) | set(layout.null_idx)
                      | set(layout.data_idx))
        assert everything == set(range(64))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            ToneLayout(n=8, pilot_idx=(1, 2), null_idx=(2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ToneLayout(n=8, pilot_idx=(8,))


class TestConstellation:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_unit_energy(self, order):
        c = Constellation.qam(order)
        assert len(c.points) == order
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_closed_under_negation_and_conjugation(self, order):
        pts = set(np.round(Constellation.qam(order).points, 12))
        assert all(np.round(-p, 12) in pts for p in pts)
        assert all(np.round(np.conj(p), 12) in pts for p in pts)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_points_distinct(self, order):
        pts = Constellation.qam(order).points
        assert len(set(np.round(pts, 12))) == order

    def test_gray_labeling_adjacent_points(self):
        # horizontally/vertically adjacent points differ in exactly one bit
        c = Constellation.qam(16)
        step = np.min(np.abs(c.points[1:] - c.points[0])[
            np.abs(c.points[1:] - c.points[0]) > 1e-12])
        for i, p in enumerate(c.points):
            for j, q in enumerate(c.points):
                if abs(abs(p - q) - step) < 1e-9:
                    assert bin(i ^ j).count("1") == 1

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            Constellation.qam(32)


class TestMakeSymbol:
    def test_all_null_layout(self):
        lay = ToneLayout(n=8, pilot_idx=(), null_idx=tuple(range(8)))
        sym = make_symbol(lay, Constellation.qam(4), rng_seed=1)
        np.testing.assert_array_equal(sym.s, np.zeros(8))

    def test_deterministic(self, layout, qam256):
        a = make_symbol(layout, qam256, rng_seed=7)
        b = make_symbol(layout, qam256, rng_seed=7)
        np.testing.assert_array_equal(a.s, b.s)

    def test_different_seeds_differ(self, layout, qam256):
        a = make_symbol(layout, qam256, rng_seed=7)
        b = make_symbol(layout, qam256, rng_seed=8)
        assert np.any(a.s != b.s)

    def test_per_tone_mean_power(self, layout, qam256):
        # Monte-Carlo check of the unit constellation energy per tone
        acc = np.zeros(64)
        n_sym = 10_000
        for i in range(n_sym):
            acc += np.abs(make_symbol(layout, qam256, rng_seed=i).s) ** 2
        acc /= n_sym
        active = list(layout.pilot_idx) + list(layout.data_idx)
        assert np.all(np.abs(acc[active] - 1.0) <= 0.05)

    def test_points_from_constellation(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=3)
        pts = set(np.round(qam256.points, 12))
        active = list(layout.pilot_idx) + list(layout.data_idx)
        assert all(np.round(v, 12) in pts for v in sym.s[active])


    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_labels_as_rng_choice_draws_them(self, layout, order):
        # make_symbol draws labels with rng.integers; rng.choice(points)
        # gave the same symbols and left the generator in the same state
        const = Constellation.qam(order)
        active = layout.active_arr
        for seed in range(200):
            rng = np.random.default_rng(seed)
            expected = np.zeros(64, dtype=np.complex128)
            expected[active] = rng.choice(const.points, size=len(active))
            assert np.array_equal(make_symbol(layout, const, seed).s,
                                  expected)


class TestModulate:
    def test_delta_tone_zero(self, layout):
        s = np.zeros(64, dtype=complex)
        s[0] = 1.0
        x = modulate(FreqSymbol(s=s, layout=layout))
        np.testing.assert_allclose(x, np.full(64, 1 / 8.0), atol=1e-14)

    def test_zero_symbol(self, layout):
        x = modulate(FreqSymbol(s=np.zeros(64), layout=layout))
        np.testing.assert_array_equal(x, np.zeros(64))

    def test_round_trip(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=11)
        back = demodulate(modulate(sym), layout)
        assert np.max(np.abs(back.s - sym.s)) <= 1e-12

    def test_energy_preserved(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=12)
        assert abs(np.linalg.norm(modulate(sym)) - np.linalg.norm(sym.s)) <= 1e-12


class TestEvm:
    def test_exact_is_floor(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=1)
        assert evm_db(sym, sym) <= EVM_FLOOR_DB

    def test_one_percent_error(self, layout, qam256):
        ref = make_symbol(layout, qam256, rng_seed=2)
        est = FreqSymbol(s=ref.s * 1.01, layout=layout)
        assert abs(evm_db(est, ref) - (-40.0)) <= 0.01

    def test_white_error_monte_carlo(self, layout, qam256):
        # error power 1e-3 of signal power -> -30 dB over 100 symbols
        rng = np.random.default_rng(0)
        err_acc = ref_acc = 0.0
        for i in range(100):
            ref = make_symbol(layout, qam256, rng_seed=1000 + i)
            noise = np.sqrt(1e-3 / 2) * (rng.standard_normal(64)
                                         + 1j * rng.standard_normal(64))
            est = FreqSymbol(s=ref.s + noise, layout=layout)
            e, r = evm_linear(est.s, ref.s, layout)
            err_acc += e
            ref_acc += r
        assert abs(ratio_to_db(err_acc, ref_acc) - (-30.0)) <= 0.3

    def test_rejects_mismatched_layouts(self, layout, qam256):
        other = ToneLayout(n=64, pilot_idx=(0, 1))
        ref = make_symbol(layout, qam256, rng_seed=5)
        est = FreqSymbol(s=ref.s, layout=other)
        with pytest.raises(ValueError):
            evm_db(est, ref)


def per_symbol_evm(est, ref):
    """The one-symbol evm_linear that the block version replaced, kept as
    the reference: (error power, reference power) of two FreqSymbols."""
    idx = ref.layout.data_arr
    ref_s = ref.s[idx]
    return (float((np.abs(est.s[idx] - ref_s) ** 2).sum()),
            float((np.abs(ref_s) ** 2).sum()))


class TestBlockEvm:
    """evm_linear over a block of symbols must give every symbol's sums
    bit for bit as the one-symbol version did."""

    @pytest.mark.parametrize("nulls", [(), tuple(range(28, 36))],
                             ids=["no_nulls", "null_tones"])
    @pytest.mark.parametrize("m", [1, 31, 32])
    def test_matches_per_symbol(self, qam256, m, nulls):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=nulls)
        rng = np.random.default_rng(m)
        refs = [make_symbol(layout, qam256, rng_seed=500 + i)
                for i in range(m)]
        ests = [FreqSymbol(s=ref.s + 0.01 * (rng.standard_normal(64)
                                             + 1j * rng.standard_normal(64)),
                           layout=layout) for ref in refs]
        err, refp = evm_linear(np.array([e.s for e in ests]),
                               np.array([r.s for r in refs]), layout)
        assert err.shape == refp.shape == (m,)
        for i, (est, ref) in enumerate(zip(ests, refs)):
            assert (err[i], refp[i]) == per_symbol_evm(est, ref)


class TestHardDecide:
    def test_exact_points_unchanged(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=6)
        out = hard_decide(sym, qam256)
        np.testing.assert_allclose(out.s, sym.s, atol=1e-14)

    def test_small_perturbation_recovered(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=7)
        dmin = 2.0 / np.sqrt(2 * 255 / 3)  # adjacent-point spacing, 256-QAM
        est = FreqSymbol(s=sym.s + 0.3 * dmin * np.exp(0.7j), layout=layout)
        out = hard_decide(est, qam256)
        np.testing.assert_allclose(out.s, sym.s, atol=1e-12)

    def test_output_in_constellation_random_inputs(self, layout, qam256):
        rng = np.random.default_rng(8)
        lim = np.max(np.abs(qam256.points.real))
        raw = rng.uniform(-lim, lim, (64, 2)) @ np.array([1, 1j])
        est = FreqSymbol(s=raw, layout=layout)
        out = hard_decide(est, qam256)
        pts = qam256.points
        for k in list(layout.pilot_idx) + list(layout.data_idx):
            # independent nearest-neighbor oracle
            best = pts[int(np.argmin(np.abs(raw[k] - pts)))]
            assert out.s[k] == best

    def test_idempotent(self, layout, qam256):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        once = hard_decide(FreqSymbol(s=raw, layout=layout), qam256)
        twice = hard_decide(once, qam256)
        np.testing.assert_array_equal(once.s, twice.s)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_property(self, seed):
        layout = default_layout()
        qam = Constellation.qam(16)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        once = hard_decide(FreqSymbol(s=raw, layout=layout), qam)
        np.testing.assert_array_equal(hard_decide(once, qam).s, once.s)


def distance_matrix_decide(est, constellation):
    """Reference slicer: full distance matrix, first (smallest-label) min."""
    out = np.zeros_like(est.s)
    active = list(est.layout.pilot_idx) + list(est.layout.data_idx)
    d2 = np.abs(est.s[active][:, None] - constellation.points[None, :]) ** 2
    out[active] = constellation.points[np.argmin(d2, axis=1)]
    return out


class TestHardDecideOracle:
    """The label-table slicer against the distance-matrix reference and the
    axis-by-axis bracket slicer it replaced."""

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_random_points(self, order):
        qam = Constellation.qam(order)
        rng = np.random.default_rng(order)
        n = 4096
        scale = np.repeat([0.5, 1.5, 10.0, 1e3], n // 4)  # incl. far outside
        vals = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lay = ToneLayout(n=n, pilot_idx=tuple(range(0, n, 7)),
                         null_idx=tuple(range(3, n, 7)))
        est = FreqSymbol(s=vals, layout=lay)
        got = hard_decide(est, qam).s
        np.testing.assert_array_equal(got, distance_matrix_decide(est, qam))
        np.testing.assert_array_equal(got, bracket_decide(est, qam).s)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_midpoints_and_ties(self, order):
        # every level, every midpoint between adjacent levels, the floats
        # just below and above each midpoint, -0.0 and points beyond the
        # edges, on both axes: two- and four-way ties included
        qam = Constellation.qam(order)
        lev = np.unique(qam.points.real)
        mid = (lev[1:] + lev[:-1]) / 2
        coords = np.concatenate([lev, mid, np.nextafter(mid, -np.inf),
                                 np.nextafter(mid, np.inf),
                                 [lev[0] - 1, lev[-1] + 1, 0.0, -0.0]])
        vals = (coords[:, None] + 1j * coords[None, :]).ravel()
        lay = ToneLayout(n=len(vals), pilot_idx=(0,))
        est = FreqSymbol(s=vals, layout=lay)
        got = hard_decide(est, qam).s
        np.testing.assert_array_equal(got, distance_matrix_decide(est, qam))
        np.testing.assert_array_equal(got, bracket_decide(est, qam).s)


class TestHardDecideBits:
    """hard_decide and symbol_error_rate against the bracket slicer on
    random values mixed with the levels, the midpoints between them, the
    floats next to those midpoints, signed zeros and points beyond the
    edges, with and without null tones: equal bit for bit."""

    @given(st.sampled_from([4, 16, 64, 256]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_bracket_slicer(self, order, nulls, seed):
        qam = Constellation.qam(order)
        rng = np.random.default_rng(seed)
        lev = np.unique(qam.points.real)
        mid = (lev[1:] + lev[:-1]) / 2
        special = np.concatenate([lev, mid, np.nextafter(mid, -np.inf),
                                  np.nextafter(mid, np.inf),
                                  [0.0, -0.0, lev[0] - 1, lev[-1] + 1]])

        def coords():
            rand = rng.standard_normal(64) * rng.choice([0.3, 1.0, 3.0], 64)
            return np.where(rng.random(64) < 0.5, rng.choice(special, 64),
                            rand)

        lay = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                         null_idx=(28, 29, 30, 31, 32) if nulls else ())
        est = FreqSymbol(s=coords() + 1j * coords(), layout=lay)
        want = bracket_decide(est, qam).s
        assert np.array_equal(hard_decide(est, qam).s, want)
        ref = make_symbol(lay, qam, rng_seed=seed)
        errors = np.abs(want[lay.data_arr] - ref.s[lay.data_arr]) > 1e-9
        assert (symbol_error_rate(est, ref, qam)
                == np.count_nonzero(errors) / lay.data_arr.size)


class TestSer:
    def test_zero_errors(self, layout, qam256):
        sym = make_symbol(layout, qam256, rng_seed=10)
        assert symbol_error_rate(sym, sym, qam256) == 0.0

    def test_all_errors(self, layout, qam256):
        ref = make_symbol(layout, qam256, rng_seed=11)
        est = FreqSymbol(s=-ref.s, layout=layout)  # negation is a valid point
        assert symbol_error_rate(est, ref, qam256) == pytest.approx(
            np.mean(np.abs(ref.s[list(layout.data_idx)]) > 1e-12))
