"""Tests for configuration parsing, sweeps, CSV output and the CLI."""

import csv
import ctypes
import dataclasses
import functools
import glob
import hashlib
import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy

from pncomp.basis import dct_basis, dft_basis, kl_basis
from pncomp.channel import gen_channel
from pncomp.compensator import build_w, equalize_only, receiver, solve_ls
from pncomp.harness import (CSV_COLUMNS, SYMBOL_BLOCK, _RULES, ConfigError,
                            ResultRow, Scenario, _channel_symbols,
                            _fixed_block, _kl_covs, child_seed, main,
                            parse_config, run_scenario, write_csv)
from pncomp.numerics import fft, ifft
from pncomp.ofdm import (Constellation, ToneLayout, default_layout,
                         make_symbol, symbol_error_rate)
from pncomp.phase_noise import (PnGenerator, apply_offset, estimate_cov,
                                load_pn_samples, save_pn_samples)

import oracles


SMALL = dict(scale=1 / 300, n_symbols=4, kl_cov_symbols=50)
# every tone of the default layout that is not a pilot
NO_DATA_NULLS = tuple(k for k in range(64)
                      if k not in default_layout().pilot_idx)


def rows_by(rows, **kv):
    out = []
    for r in rows:
        if all(getattr(r, k) == v for k, v in kv.items()):
            out.append(r)
    return out


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(1, "chan", 2) == child_seed(1, "chan", 2)

    def test_distinct_labels(self):
        seeds = {child_seed(1, "chan", i) for i in range(100)}
        assert len(seeds) == 100
        assert child_seed(1, "chan", 0) != child_seed(1, "pn", 0)

    def test_u64_range(self):
        s = child_seed(2**63, "x", 99)
        assert 0 <= s < 2**64


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("")
        sc = parse_config(str(path))
        assert sc == Scenario()
        assert sc.n == 64 and sc.qam_order == 256 and sc.n_rx == 2
        assert sc.sigma_deg == 3.0 and sc.n_channels == 300

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "name = evm_vs_sigma  # scenario choice\n"
            "\n"
            "sigma_list = 1, 2, 3\n"
            "use_null_tones = true\n"
            "scale = 0.5\n")
        sc = parse_config(str(path))
        assert sc.name == "evm_vs_sigma"
        assert sc.sigma_list == (1.0, 2.0, 3.0)
        assert sc.use_null_tones is True
        assert sc.n_channels_eff == 150

    def test_byte_order_mark_ignored(self, tmp_path):
        # a config saved as UTF-8 with a byte-order mark parses as without it
        text = "name = evm_vs_sigma\nsigma_list = 1, 2\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config(str(bom)) == parse_config(str(plain))

    def test_rejects_negative_sigma(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sigma_deg = -1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("qam_order = 64\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'bogus_key'"):
            parse_config(str(path))

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n_symbols = many\n")
        with pytest.raises(ConfigError, match="n_symbols"):
            parse_config(str(path))

    def test_pn_file_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("pn_file = samples.txt\n")
        assert parse_config(str(path)).pn_file == "samples.txt"

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("master_seed = 1\n")
        sc = parse_config(str(path), overrides={"master_seed": 2})
        assert sc.master_seed == 2

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, overrides={"nope": 1})

    def test_n_is_not_a_key(self, tmp_path):
        # N = 64 is fixed by the default pilot placement, not configured
        path = tmp_path / "c.cfg"
        path.write_text("name = evm_vs_d\nn = 64\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'n'$"):
            parse_config(str(path))
        with pytest.raises(ConfigError, match=r"^unknown key 'n'$"):
            parse_config(None, {"n": 64})
        assert Scenario().n == 64

    @pytest.mark.parametrize("tones", [(31.5, 32.0), (-0.5,), NO_DATA_NULLS],
                             ids=["fraction", "negative_fraction", "no_data"])
    def test_null_tones_error_names_key(self, tones):
        # a tone index must be integral, not truncated, and a layout with
        # no data tones has nothing to score
        with pytest.raises(ConfigError, match="null_tones"):
            Scenario(name="custom", null_tones=tones)

    @pytest.mark.parametrize("key, value", [
        ("pn_cutoff", 0.7), ("pn_cutoff", 0.0), ("pn_ripple_db", 0.0)])
    def test_filter_range_error_names_key(self, key, value):
        # the ranges design_filter leaves to scipy are the config's rules
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            Scenario(**{key: value})

    def test_phase_per_sample(self):
        # delta_f * Ts = 1/N: one full turn of the offset ramp per symbol
        sc = Scenario(name="tracking", ppm=1.0, carrier_hz=1e6 / 64,
                      sample_rate_hz=1.0)
        assert sc.phase_per_sample == 2.0 * np.pi * (1e-6 * (1e6 / 64))
        assert abs(sc.phase_per_sample - 2.0 * np.pi / 64) <= 1e-15


class TestScenarios:
    def test_d0_equals_no_compensation(self, tmp_path):
        sc = Scenario(name="evm_vs_d", d_list=(0, 1, 4), **SMALL)
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        # d = 0 bypasses the basis entirely, so both kinds agree exactly
        kl0 = rows_by(rows, basis_kind="KL", d=0)[0]
        dft0 = rows_by(rows, basis_kind="DFT", d=0)[0]
        assert kl0.evm_db == dft0.evm_db
        # d = 1 is the common-phase-only corrector: better than none
        dft1 = rows_by(rows, basis_kind="DFT", d=1)[0]
        assert dft1.evm_db < dft0.evm_db

    def test_sigma_zero_matches_awgn_baseline(self, tmp_path):
        sc = Scenario(name="evm_vs_sigma", sigma_list=(0.0,),
                      basis_kinds=("DFT",), **SMALL)
        rows = run_scenario(sc, str(tmp_path / "a.csv"))
        base = Scenario(name="evm_vs_d", basis_kinds=("DFT",), d_list=(8,),
                        sigma_deg=0.0, **SMALL)
        base_rows = run_scenario(base, str(tmp_path / "b.csv"))
        assert abs(rows[0].evm_db - base_rows[0].evm_db) <= 0.1

    def test_pn_file_parsed_once_per_run(self, tmp_path, monkeypatch):
        # every channel's rx stream and KL training cycle one parse
        from pncomp import phase_noise
        pn_path = tmp_path / "pn.txt"
        save_pn_samples(pn_path, PnGenerator(5, (3.0,)).next_phi(64 * 40)[0])
        parses = []
        monkeypatch.setattr(phase_noise, "load_pn_samples",
                            lambda *args: parses.append(args)
                            or load_pn_samples(*args))
        sc = Scenario(name="evm_vs_d", d_list=(0, 2), n_channels=3,
                      scale=1.0, n_symbols=4, kl_cov_symbols=50,
                      pn_file=str(pn_path))
        run_scenario(sc, str(tmp_path / "out.csv"))
        assert parses == [(str(pn_path), sc.n)]

    def test_pn_file_ingestion(self, tmp_path):
        pn_path = tmp_path / "pn.txt"
        save_pn_samples(pn_path, PnGenerator(5, (3.0,)).next_phi(64 * 60)[0])
        sc = Scenario(name="custom", basis_kinds=("DFT",), d=4,
                      pn_file=str(pn_path), **SMALL)
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        assert len(rows) == 1 and np.isfinite(rows[0].evm_db)

    def test_tracking_rows_shape(self, tmp_path):
        sc = Scenario(name="tracking", n_symbols=6, scale=1 / 300,
                      track_modes=("tracked", "cpe"), training_symbols=6,
                      per_symbol_rows=True)
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        assert len(rows_by(rows, basis_kind="tracked", aggregate=0)) == 6
        assert len(rows_by(rows, basis_kind="tracked", aggregate=1)) == 1
        assert rows_by(rows, basis_kind="cpe")[0].d == 1

    def test_default_freeze_after_never_freezes(self, tmp_path):
        # freeze_after = -1, the default, means "never freeze": the frozen
        # mode then updates its basis on every symbol, as tracked does
        sc = Scenario(name="tracking", n_symbols=40, scale=1 / 300,
                      track_modes=("tracked", "frozen"), training_symbols=10)
        assert sc.freeze_after == -1

        def scores(rows, mode):
            return [(r.symbol_index, r.evm_db.hex(), r.ser.hex())
                    for r in rows_by(rows, basis_kind=mode)]
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        assert len(scores(rows, "tracked")) == 41
        assert scores(rows, "frozen") == scores(rows, "tracked")
        # a freeze inside the run does change the frozen rows
        rows = run_scenario(dataclasses.replace(sc, freeze_after=20),
                            str(tmp_path / "out.csv"))
        assert scores(rows, "frozen") != scores(rows, "tracked")

    def test_mimo_rows_shape(self, tmp_path):
        sc = Scenario(name="mimo_sweep", sigma_list=(3.0,),
                      tx_sigma_list=(0.0, 1.0), **SMALL)
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        kinds = {r.basis_kind for r in rows}
        assert kinds == {"KL_tx0", "KL_tx1"}

    def test_aggregate_is_linear_domain_mean(self, tmp_path):
        # aggregate row is the dB of the mean error ratio, not mean dB
        sc = Scenario(name="tracking", n_symbols=5, scale=1 / 300,
                      track_modes=("cpe",), per_symbol_rows=True)
        rows = run_scenario(sc, str(tmp_path / "out.csv"))
        per = rows_by(rows, aggregate=0)
        agg = rows_by(rows, aggregate=1)[0]
        mean_db = np.mean([r.evm_db for r in per])
        # per-symbol reference power is constant only on average, so compare
        # against a tolerance window rather than exact equality with mean dB
        lin = np.mean([10 ** (r.evm_db / 10) for r in per])
        assert abs(agg.evm_db - 10 * np.log10(lin)) <= 0.2
        assert agg.evm_db >= mean_db - 0.2  # Jensen: linear mean >= dB mean


def csv_writer_bytes(rows, path) -> bytes:
    """The CSV of rows as csv.writer writes it, each field formatted by
    its spec (sigma_deg .4f, evm_db .6f, ser .8f, the rest str): the
    oracle of write_csv's one format line per row."""
    specs = [{"sigma_deg": ".4f", "evm_db": ".6f", "ser": ".8f"}.get(c, "")
             for c in CSV_COLUMNS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(format, row, specs) for row in rows)
    return path.read_bytes()


class TestCsv:
    def test_bytes_match_csv_writer_on_edge_rows(self, tmp_path):
        # the EVM floor, SER 0 and 1, an aggregate row's empty
        # symbol_index, negative zeros, numpy floats and a 20-digit
        # channel seed, as write_csv's callers can pass them
        rows = [
            ResultRow("evm_vs_d", "all", "", 1, "KL", 0, 3.0, "LS", -300.0,
                      0.0, 0),
            ResultRow("tracking", 18446744073709551615, 2999, 0, "cpe", 1,
                      -0.0, "TLS", -0.0, 1.0, ""),
            ResultRow("mimo_sweep", "all", "", 1, "KL_tx1", 64, 1e-5, "LS",
                      np.float64(-41.94449761234567), 1 / 3, 144),
            ResultRow("custom", 0, 0, 0, "DCT", 16, 1000.00005, "TLS",
                      np.float64(12.3456785), 0.123456785, 9),
        ]
        write_csv(rows, str(tmp_path / "out.csv"))
        assert ((tmp_path / "out.csv").read_bytes()
                == csv_writer_bytes(rows, tmp_path / "oracle.csv"))

    def test_schema_and_determinism(self, tmp_path):
        sc = Scenario(name="evm_vs_d", d_list=(0, 2), basis_kinds=("DFT",),
                      **SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scenario(sc, str(p1))
        run_scenario(sc, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS

    def test_different_seed_changes_output(self, tmp_path):
        base = dict(name="evm_vs_d", d_list=(2,), basis_kinds=("DFT",), **SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scenario(Scenario(**base), str(p1))
        run_scenario(Scenario(master_seed=99, **base), str(p2))
        assert p1.read_bytes() != p2.read_bytes()

    def test_rows_immutable_and_wall_clock_empty(self, tmp_path):
        sc = Scenario(name="tracking", d=2, n_symbols=3, scale=1 / 300,
                      kl_cov_symbols=20, training_symbols=1)
        out = tmp_path / "a.csv"
        rows = run_scenario(sc, str(out))
        with pytest.raises(AttributeError):
            rows[0].wall_clock_s = "1.000"
        with open(out, newline="") as fh:
            written = list(csv.DictReader(fh))
        assert len(written) == len(rows) == 12
        assert {r["wall_clock_s"] for r in written} == {""}
        assert {r.wall_clock_s for r in rows} == {""}


def _is_float_key(default) -> bool:
    first = default[0] if isinstance(default, tuple) and default else default
    return isinstance(first, float)


FLOAT_KEYS = [f.name for f in dataclasses.fields(Scenario)
              if _is_float_key(f.default)]


# id: (config file, flags, the key that the error message starts
# with, or None); each is rejected before any simulation runs
INVALID_VALUES = {
    "basis_kind":
        ("name = custom\nbasis_kinds = KL, FOO\n", [], "basis_kinds"),
    "track_mode":
        ("name = tracking\ntrack_modes = tracked, bogus\n", [], "track_modes"),
    "scale_neg": ("name = evm_vs_d\n", ["--scale", "-1"], "scale"),
    "scale_zero": ("name = evm_vs_d\n", ["--scale", "0"], "scale"),
    "scale_nan": ("name = evm_vs_d\n", ["--scale", "nan"], "scale"),
    "scale_inf": ("name = evm_vs_d\n", ["--scale", "inf"], "scale"),
    "tracking_d0": ("name = tracking\nd = 0\n", [], "d"),
    "mimo_d0": ("name = mimo_sweep\nd = 0\n", [], "d"),
    "custom_d_gt_n": ("name = custom\nd = 65\n", [], "d"),
    "sigma_d_neg": ("name = evm_vs_sigma\nd = -1\n", [], "d"),
    "d_list_gt_n": ("name = evm_vs_d\nd_list = 0, 4, 65\n", [], "d_list"),
    "d_list_neg": ("name = evm_vs_d\nd_list = -1, 4\n", [], "d_list"),
    # N is fixed by the default pilot placement, so n is no key; the
    # error starts with the file path (TestParseConfig checks its text)
    "n_not_a_key": ("name = evm_vs_d\nn = 64\n", [], None),
    "method_xls": ("name = custom\nmethod = XLS\n", [], "method"),
    "qam_8": ("name = evm_vs_d\nqam_order = 8\n", [], "qam_order"),
    "mimo_users_gt_rx":
        ("name = mimo_sweep\nn_users = 3\nn_rx = 2\n", [], "n_users"),
    "snr_nan": ("name = evm_vs_d\nsnr_db = nan\n", [], "snr_db"),
    "out_unwritable":
        ("name = evm_vs_d\n", ["--out", "/nonexistent-dir/o.csv"], None),
    "beta_2": ("name = tracking\nbeta = 2\n", [], "beta"),
    "n_taps_0": ("name = custom\nn_taps = 0\n", [], "n_taps"),
    "kl_cov_0": ("name = custom\nkl_cov_symbols = 0\n", [], "kl_cov_symbols"),
    "kl_cov_neg":
        ("name = custom\nkl_cov_symbols = -3\n", [], "kl_cov_symbols"),
    "profile_foo":
        ("name = custom\nchannel_profile = foo\n", [], "channel_profile"),
    "profile_tau_0":
        ("name = custom\nchannel_profile = exp_decay(0)\n",
         [], "channel_profile"),
    "pn_cutoff_0.7": ("name = custom\npn_cutoff = 0.7\n", [], "pn_cutoff"),
    "pn_order_40": ("name = custom\npn_order = 40\n", [], None),
    "pn_order_neg": ("name = custom\npn_order = -1\n", [], "pn_order"),
    "pn_ripple_0": ("name = custom\npn_ripple_db = 0\n", [], "pn_ripple_db"),
    "n_rx_0": ("name = custom\nn_rx = 0\n", [], "n_rx"),
    "training_neg":
        ("name = tracking\ntraining_symbols = -5\n", [], "training_symbols"),
    "freeze_after_neg":
        ("name = tracking\nfreeze_after = -7\n", [], "freeze_after"),
    "sample_rate_0":
        ("name = tracking\nppm = 1\nsample_rate_hz = 0\n",
         [], "sample_rate_hz"),
    "mimo_users_0": ("name = mimo_sweep\nn_users = 0\n", [], "n_users"),
    "tx_sigma_neg":
        ("name = mimo_sweep\ntx_sigma_list = 0, -1\n", [], "tx_sigma_list"),
    "sigma_list_neg":
        ("name = evm_vs_sigma\nsigma_list = 1, -2\n", [], "sigma_list"),
    "snr_overflow": ("name = custom\nsnr_db = -1e308\n", [], "snr_db"),
    "snr_overflow_edge": ("name = custom\nsnr_db = -3083\n", [], "snr_db"),
    "offset_inf_per_sample":
        ("name = tracking\nppm = 1e6\ncarrier_hz = 1e308\n"
         "sample_rate_hz = 1\n", [], None),
    "offset_ramp_overflow":
        ("name = tracking\nppm = 1e6\ncarrier_hz = 1e305\n"
         "sample_rate_hz = 1\n", [], None),
    "pn_file_missing":
        ("name = custom\npn_file = /nonexistent-dir/pn.txt\n", [], None),
    "pn_file_dir": ("name = custom\npn_file = /\n", [], None),
    "basis_kinds_empty_evm_vs_d":
        ("name = evm_vs_d\nbasis_kinds =\n", [], "basis_kinds"),
    "basis_kinds_empty_evm_vs_sigma":
        ("name = evm_vs_sigma\nbasis_kinds =\n", [], "basis_kinds"),
    "basis_kinds_empty_custom":
        ("name = custom\nbasis_kinds =\n", [], "basis_kinds"),
    "track_modes_empty":
        ("name = tracking\ntrack_modes =\n", [], "track_modes"),
    "tx_sigma_list_empty":
        ("name = mimo_sweep\ntx_sigma_list =\n", [], "tx_sigma_list"),
    "pn_ripple_underflow":
        ("name = tracking\npn_ripple_db = 1e-20\n", [], None),
    "pn_ripple_overflow":
        ("name = tracking\npn_ripple_db = 1e300\n", [], None),
    "null_tones_fraction":
        ("name = custom\nnull_tones = 31.5, 32\n", [], "null_tones"),
    "null_tones_negative_fraction":
        ("name = custom\nnull_tones = -0.5\n", [], "null_tones"),
    "null_tones_out_of_range":
        ("name = custom\nnull_tones = 64\n", [], "null_tones"),
    "null_tones_on_pilot":
        ("name = custom\nnull_tones = 0\n", [], "null_tones"),
    "null_tones_no_data":
        ("name = custom\nnull_tones = "
         + ", ".join(map(str, NO_DATA_NULLS)) + "\n", [], "null_tones"),
    "profile_suffix":
        ("name = custom\nchannel_profile = exp_decay_foo\n",
         [], "channel_profile"),
    "profile_trailing_junk":
        ("name = custom\nchannel_profile = exp_decay(2)junk\n",
         [], "channel_profile"),
    "profile_tau_inf":
        ("name = custom\nchannel_profile = exp_decay(inf)\n",
         [], "channel_profile"),
    "profile_unclosed":
        ("name = custom\nchannel_profile = exp_decay(3\n",
         [], "channel_profile"),
    "pn_cutoff_1e-6": ("name = custom\npn_cutoff = 1e-6\n", [], None),
    "sigma_deg_neg": ("name = custom\nsigma_deg = -1\n", [], "sigma_deg"),
    "beta_0": ("name = tracking\nbeta = 0\n", [], "beta"),
    "pn_cutoff_0": ("name = custom\npn_cutoff = 0\n", [], "pn_cutoff"),
    "name_bogus": ("name = bogus\n", [], "name"),
    "n_channels_0": ("name = custom\nn_channels = 0\n", [], "n_channels"),
    "n_symbols_0": ("name = custom\nn_symbols = 0\n", [], "n_symbols"),
    "key_twice": ("name = custom\nd = 4\n# d = 6\nd = 5\n", [], "d"),
}


class TestCli:
    def test_run_ok_and_deterministic(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = evm_vs_d\nd_list = 0, 2\nbasis_kinds = DFT\n"
                       "scale = 0.0034\nn_symbols = 3\nkl_cov_symbols = 20\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg_text, flags, key",
                             INVALID_VALUES.values(), ids=list(INVALID_VALUES))
    def test_exit_2_on_invalid_value(self, tmp_path, capsys, cfg_text, flags,
                                     key):
        # rejected before any simulation runs, so no CSV is written
        cfg = tmp_path / "c.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key or ''}")
        assert not out.exists()

    def test_every_rule_has_an_invalid_value(self):
        # each key of the rule table has a case whose error names it
        keys = {key for _, _, key in INVALID_VALUES.values()}
        assert set(_RULES) - keys == set()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_float_keys(self, tmp_path, capsys, key, bad):
        # every float key and float-list entry; snr_db = inf is no noise
        cfg = tmp_path / "c.cfg"
        value = f"1, {bad}" if key.endswith("_list") else bad
        cfg.write_text(f"name = custom\nbasis_kinds = DFT\nd = 2\n"
                       f"scale = 0.0034\nn_symbols = 2\n{key} = {value}\n")
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        if (key, bad) == ("snr_db", "inf"):
            assert code == 0 and out.exists()
        else:
            assert code == 2 and not out.exists()
            assert f"config error: {key}" in capsys.readouterr().err

    def test_key_twice_names_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = custom\nd = 4\n\nd = 4\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: d is set twice in {cfg}, on lines 2 and 4\n")

    def test_timing_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "custom", "--timing"])
        assert exc.value.code == 2
        assert "--timing" in capsys.readouterr().err

    def test_wall_time_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = custom\nbasis_kinds = DFT\nd = 2\n"
                       "scale = 0.0034\nn_symbols = 2\n")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"wall time: \d+\.\d{3} s\n", err)

    def test_exit_2_on_missing_file(self):
        assert main(["run", "--config", "/no/such/file.cfg"]) == 2

    def test_exit_3_on_numerical_failure(self, tmp_path):
        # a phase-noise file too short for one symbol surfaces as a
        # numerical/value failure at run time, not a config error
        pn = tmp_path / "pn.txt"
        pn.write_text("0.0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"name = custom\npn_file = {pn}\nscale = 0.0034\n"
                       "n_symbols = 2\nbasis_kinds = DFT\n")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_exit_3_on_memory_error(self, tmp_path, monkeypatch, capsys):
        # an allocation failure mid-run: one line, no traceback, no CSV
        from pncomp import harness

        def out_of_memory(sc, pn):
            raise MemoryError("Unable to allocate 47.7 GiB")
        monkeypatch.setitem(harness._RUNNERS, "custom", out_of_memory)
        out = tmp_path / "o.csv"
        assert main(["run", "--scenario", "custom", "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 47.7 GiB\n"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PNCOMP_OUT_DIR", str(tmp_path))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = evm_vs_d\nd_list = 2\nbasis_kinds = DFT\n"
                       "scale = 0.0034\nn_symbols = 2\nkl_cov_symbols = 20\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "evm_vs_d.csv").exists()

    def test_scale_flag_overrides(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = evm_vs_d\nd_list = 2\nbasis_kinds = DFT\n"
                       "scale = 1.0\nn_symbols = 2\nkl_cov_symbols = 20\n"
                       "n_channels = 2\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--scale", "0.5",
                     "--out", str(out)]) == 0

    @staticmethod
    def scenario_run(monkeypatch, tmp_path, cfg_text, flags) -> Scenario:
        """The Scenario main hands run_scenario for a config file of
        cfg_text and the flags, which no simulation follows."""
        from pncomp import harness
        cfg = tmp_path / "c.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        seen = []
        monkeypatch.setattr(harness, "run_scenario",
                            lambda sc, out: seen.append(sc))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")] + flags) == 0
        return seen[0]

    def test_scenario_flag_overrides_name(self, tmp_path, monkeypatch):
        text = "name = evm_vs_d\nd = 3\nscale = 0.2\n"
        sc = self.scenario_run(monkeypatch, tmp_path, text,
                               ["--scenario", "custom"])
        assert sc == Scenario(name="custom", d=3, scale=0.2)

    def test_seed_flag_matches_master_seed_key(self, tmp_path):
        text = ("name = custom\nbasis_kinds = DFT\nd = 2\nscale = 0.0034\n"
                "n_symbols = 2\n")
        cfg, seeded = tmp_path / "c.cfg", tmp_path / "s.cfg"
        cfg.write_text(text)
        seeded.write_text(text + "master_seed = 99\n")
        outs = [tmp_path / f"{k}.csv" for k in "abc"]
        assert main(["run", "--config", str(cfg), "--seed", "99",
                     "--out", str(outs[0])]) == 0
        assert main(["run", "--config", str(seeded),
                     "--out", str(outs[1])]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() != outs[2].read_bytes()

    @pytest.mark.parametrize("flags", [["--full"],
                                       ["--full", "--scale", "0.5"],
                                       ["--scale", "0.5", "--full"]])
    def test_full_flag_gives_scale_1(self, tmp_path, monkeypatch, flags):
        sc = self.scenario_run(monkeypatch, tmp_path, "scale = 0.2\n", flags)
        assert sc == Scenario(scale=1.0)

    @pytest.mark.parametrize("case", ["parent_is_file_out",
                                      "parent_is_file_env", "missing_parent",
                                      "out_is_dir"])
    def test_exit_2_on_unwritable_output(self, tmp_path, monkeypatch, capsys,
                                         case):
        # rejected before the run: one stderr line and no CSV anywhere
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        (tmp_path / "adir").mkdir()
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = custom\nbasis_kinds = DFT\nd = 2\n"
                       "scale = 0.0034\nn_symbols = 2\n")
        out = {"parent_is_file_out": afile / "x.csv",
               "parent_is_file_env": afile / "custom.csv",
               "missing_parent": tmp_path / "missing" / "x.csv",
               "out_is_dir": tmp_path / "adir"}[case]
        flags = ["--out", str(out)]
        if case == "parent_is_file_env":
            monkeypatch.setenv("PNCOMP_OUT_DIR", str(afile))
            flags = []
        assert main(["run", "--config", str(cfg)] + flags) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {str(out)!r}\n")
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.rglob("*.csv")) == []

    def test_config_must_be_utf8(self, tmp_path, monkeypatch, capsys):
        sc = self.scenario_run(monkeypatch, tmp_path,
                               "name = custom  # φ in radians\n", [])
        assert sc.name == "custom"
        capsys.readouterr()
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("name = custom  # \xe9t\xe9\n".encode("latin-1"))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: not UTF-8 (invalid continuation byte)\n")
        assert not (tmp_path / "o.csv").exists()

    def test_exit_3_on_non_utf8_pn_file(self, tmp_path, capsys):
        pn = tmp_path / "pn.txt"
        pn.write_bytes(b"0.0\n# \xff\n" + b"0.0\n" * 64)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"name = custom\npn_file = {pn}\nscale = 0.0034\n"
                       "n_symbols = 2\nbasis_kinds = DFT\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: {pn}: not UTF-8 (invalid start byte)\n")
        assert not out.exists()


def write_pn_file(path, windows: int = 37) -> str:
    """A pn_file of `windows` 64-sample windows of a 3-degree stream; 37
    windows make a 40-symbol run cycle through the file mid-block, and a
    50-symbol KL training cycle through it too."""
    save_pn_samples(path, PnGenerator(5, (3.0,)).next_phi(64 * windows)[0])
    return str(path)


# sha256 of tiny one-channel CSVs on the paths the benchmark's reference
# digests do not cover; a refactor of the sweep, scoring, estimation or
# noise code must leave every byte of these unchanged.  Like those digests
# they hold for the numpy/BLAS build they were recorded with.  A case with
# pn_file=True reads the file write_pn_file writes.
NULLS = dict(null_tones=(28, 29, 30, 31, 32, 33, 34, 35), use_null_tones=True)
PN_FILE_RUN = dict(pn_file=True, n_symbols=40, scale=1 / 300,
                   kl_cov_symbols=50)
GOLDEN = {
    "evm_vs_d_tls_nulls": (
        dict(name="evm_vs_d", d_list=(0, 1, 3, 6), method="TLS",
             basis_kinds=("KL", "DFT", "DCT"), **NULLS, **SMALL),
        "5718103cac0eb5217f419066f1b1ff0ab9da761aafa01a466431220c52809fae"),
    "evm_vs_sigma_kl_dft_dct": (
        dict(name="evm_vs_sigma", sigma_list=(2.0, 5.0), d=4,
             basis_kinds=("KL", "DFT", "DCT"), **SMALL),
        "4ed172a7ead9893daf4a5a50c6de4df5bf0d996eb5b50fa323578b9d0a9f9f27"),
    # two channels of 40 symbols (a block boundary each), sigma 0 and a
    # repeated sigma: each channel is simulated once for every sigma
    "evm_vs_sigma_repeats": (
        dict(name="evm_vs_sigma", sigma_list=(0.0, 3.0, 3.0, 6.0), d=4,
             n_rx=1, method="TLS", basis_kinds=("KL", "DFT", "DCT"),
             **NULLS, n_symbols=40, scale=2 / 300, kl_cov_symbols=50),
        "3b77ae9bb1a0908177bfd523fa26c7d4d78c7dc1950a59067e60d9460c7cf6b1"),
    "custom_tls_nulls": (
        dict(name="custom", method="TLS", d=6,
             basis_kinds=("KL", "DFT", "DCT"), **NULLS, **SMALL),
        "62d3840a69e8044adca20cd639f212725737804aefa5fbba2ccd0e118f33a20f"),
    "tracking_all_modes": (
        dict(name="tracking", n_symbols=8, scale=1 / 300, kl_cov_symbols=50,
             track_modes=("tracked", "frozen", "dft", "cpe", "kl"),
             freeze_after=4, training_symbols=3, ppm=2.0, method="TLS", d=4),
        "5cf8cf690a5fd358b4767903ef13132472b4b54a05686f70386d4b3d91727645"),
    # 70 symbols: more than two symbol blocks, the last one short
    "tracking_all_modes_blocks": (
        dict(name="tracking", n_symbols=70, scale=1 / 300, kl_cov_symbols=50,
             track_modes=("tracked", "frozen", "dft", "cpe", "kl"),
             freeze_after=30, training_symbols=20, ppm=2.0, method="TLS",
             d=4),
        "4bbedb0bb12b83f0d596ee5caba6f69714ac91691b12931ea25b8c69b1d4599e"),
    "mimo_ls": (
        dict(name="mimo_sweep", sigma_list=(3.0,), tx_sigma_list=(0.0, 1.0),
             d=4, **SMALL),
        "b0bbeb212b3464933d105493cb6cebba924a75df4668de4c7f664e77644b0d4e"),
    "mimo_tls_nulls": (
        dict(name="mimo_sweep", sigma_list=(3.0,), tx_sigma_list=(0.0, 1.0),
             d=4, method="TLS", **NULLS, **SMALL),
        "d57d7446f2cfc20ddd0158cea9194f073352947ce3858fc347c2b2318ec95284"),
    # repeated sigma and tx sigma values: each row keeps its own accumulator
    "mimo_dup_points": (
        dict(name="mimo_sweep", sigma_list=(2.0, 2.0),
             tx_sigma_list=(0.0, 1.0, 1.0), d=4, **SMALL),
        "24e6fdab4787279dd4b10a17cc8880fc407b883851239ca57e07e9640f62e1a2"),
    # sigma 0, a repeated sigma and three tx sigmas, one of them 0, over
    # 40 symbols (two blocks): each seed's phase-noise stream is shared
    # by every sigma it is drawn at
    "mimo_shared_streams": (
        dict(name="mimo_sweep", sigma_list=(0.0, 3.0, 3.0),
             tx_sigma_list=(0.0, 1.0, 2.0), d=4, method="TLS",
             n_symbols=40, scale=1 / 300, kl_cov_symbols=50),
        "727af1b23e9e26530aebf3429b704a82db0cb65b4921a9774f4ddb8636cf38dd"),
    # three users, 70 symbols: more than two symbol blocks, the last short
    "mimo_blocks": (
        dict(name="mimo_sweep", n_users=3, n_rx=3, n_symbols=70,
             scale=1 / 300, kl_cov_symbols=50, sigma_list=(3.0,),
             tx_sigma_list=(0.0, 1.0), d=4, method="TLS", **NULLS),
        "2ee879365f9e919f0300430a0b15bf307c4bb27bc9dbe109e4af043c9383c6fb"),
    # one branch, 70 symbols: the block fit crosses two block boundaries;
    # 16 pilot rows are fewer than d + 1 = 17, so TLS at d = 16 fits by LS
    "evm_vs_d_ls_nrx1": (
        dict(name="evm_vs_d", n_rx=1, d_list=(0, 1, 16), method="LS",
             basis_kinds=("KL", "DFT", "DCT"), scale=1 / 300, n_symbols=70,
             kl_cov_symbols=50),
        "098a12552fcf65baa8610bc07e2e9aa838a7ea969fff9b2e63920eee515909f5"),
    "evm_vs_d_tls_nrx1": (
        dict(name="evm_vs_d", n_rx=1, d_list=(1, 16), method="TLS",
             basis_kinds=("KL", "DFT", "DCT"), scale=1 / 300, n_symbols=70,
             kl_cov_symbols=50),
        "778b8af74ddb685328a135bb21a3bc116c07476559592d8874dcdc6da6e04126"),
    # 16-QAM on one branch with null tones, 70 symbols: training ends and
    # the frozen mode stops updating mid-block; the cpe mode makes symbol
    # errors (SER 0.004)
    "tracking_qam16_nulls": (
        dict(name="tracking", qam_order=16, method="LS", n_rx=1, **NULLS,
             n_symbols=70, training_symbols=20, freeze_after=40,
             track_modes=("tracked", "frozen", "cpe"), ppm=2.0, d=4,
             scale=1 / 300, kl_cov_symbols=50),
        "eeadec07c82943955e008d641e439e34ec137b4c46037f9a1c408f74d4edf04d"),
    "evm_vs_d_tls_pn_file": (
        dict(name="evm_vs_d", d_list=(0, 1, 4), method="TLS",
             basis_kinds=("KL", "DFT"), **PN_FILE_RUN),
        "7b6eec533010299e898a12c5cb970b287732e294c85e328959c568be400a3273"),
    # training ends and the frozen mode stops updating in the second block
    "tracking_pn_file": (
        dict(name="tracking", track_modes=("tracked", "frozen", "dft", "cpe",
                                           "kl"),
             freeze_after=35, training_symbols=20, ppm=2.0, d=4,
             **PN_FILE_RUN),
        "949d9a4187da65dbcb37b3a5cd9ef16535decc3064e2eb66344556544e2146d3"),
    "mimo_pn_file": (
        dict(name="mimo_sweep", sigma_list=(3.0,), tx_sigma_list=(0.0, 1.0),
             d=4, **PN_FILE_RUN),
        "a437d88f6ad0bd5fabad7ca4c7f23b6c627eb49807354116686708c3f2f399f4"),
    # three channels: every total and per-symbol row adds its scores in
    # channel, then symbol order; the frozen mode stops updating mid-block
    "tracking_channels": (
        dict(name="tracking", n_symbols=70, scale=3 / 300, kl_cov_symbols=50,
             track_modes=("tracked", "frozen", "dft", "cpe", "kl"),
             freeze_after=30, training_symbols=20, ppm=2.0, d=4),
        "d4d0ce1bf70cf5ba628ea2de8f4d62ba92a36b41fdf91ad7315c9dba2fdea7dc"),
    # totals only, with the tracked modes listed before the fixed ones
    "tracking_channels_totals": (
        dict(name="tracking", per_symbol_rows=False, n_symbols=40,
             scale=3 / 300, kl_cov_symbols=50,
             track_modes=("frozen", "tracked", "cpe", "dft"),
             freeze_after=25, training_symbols=10, method="TLS", d=4),
        "cae519ea12a897045f5eef43225ff0dbf7758add22f89d0e561d84e4f24a4bdf"),
    "mimo_channels_repeats": (
        dict(name="mimo_sweep", sigma_list=(3.0, 1.0, 3.0),
             tx_sigma_list=(0.0, 1.0), d=4, n_symbols=40, scale=3 / 300,
             kl_cov_symbols=50),
        "2d43c7e37ba5e2ddfc3f25923d1993757c0994e4f5d396ef2a891187edeee79f"),
}


# sha256 over the unrounded evm_db and ser of every row, for each GOLDEN
# case: the CSVs round them, so they would miss a change in the order the
# scores are summed in (np.sum's pairwise sum in place of the sequential
# one changes 10 of these and no CSV digest)
GOLDEN_SCORES = {
    "custom_tls_nulls":
        "c13abef8a2d984629f14a364177300065fa016f5cb223e81ec8fadbe86a5a455",
    "evm_vs_d_ls_nrx1":
        "e1edcaf59947ec9b644ac0c771e42a2540face7b24f66a3b1fcbf79bd700dae1",
    "evm_vs_d_tls_nrx1":
        "a851df529775c94dfc66d19ac55f1b397a613ec80eb420a431d02049f515babe",
    "evm_vs_d_tls_nulls":
        "520339be70157935d2bafd0f3d6de802b0c0a654a5208d7342092bc97fcf6e8f",
    "evm_vs_d_tls_pn_file":
        "837ef1351bf80db9490633f2b0e54afc6538dd1f89437d418a38d8fd2d7bec57",
    "evm_vs_sigma_kl_dft_dct":
        "70508dc2375b96f1f1aa7946ed26f31dac8dbb2c756ac53e472f4484557fda48",
    "evm_vs_sigma_repeats":
        "3cede335e67627d396298b0424e82f68453c871be5547d8d25d9f93560c6614c",
    "mimo_blocks":
        "93d617da4a6117a2ef9a83b05ec5c019d418df1ac1798ef36081a94a37e629e4",
    "mimo_channels_repeats":
        "54efdc1d16358f774e5ee9fdf6e7c18b73a9e8eebf958f01c530269a69302486",
    "mimo_dup_points":
        "b58375ed564b8ee5a0466343b5a7f0c222167136bf8567d953d5cf4e58ed17e5",
    "mimo_ls":
        "68acb79a650fc5722176240dff2bf06508c209de92330efd35cdae429e2f1820",
    "mimo_pn_file":
        "91cfa6378ee2ac1872f76f6e820ca166468d134ba71addab2bfe3ea07e92684c",
    "mimo_shared_streams":
        "e39c7fbd1eb2f1996d346019e5c6a15ae789daf9615968e1f091d7ee3cdac450",
    "mimo_tls_nulls":
        "5d70c41d40eafc4f52baf7bebcc9e599f1c51188072352fe51172a2560427ae2",
    "tracking_all_modes":
        "867b61c0587a56609ba75b152f86355cc6185ed7da4a97a208244c6371c4beb3",
    "tracking_all_modes_blocks":
        "927b8a8c4274ccfac668fffae1120c35bab201dbc99a6541f8083413be2a5ae7",
    "tracking_channels":
        "085521f9769cce98122e909abe59e89f9a30d6abe44b72379b27baec5fcfc946",
    "tracking_channels_totals":
        "53c161acc410d9321ec65e891b029bcd016a9d19ae0503bf61f268c8d5a75be7",
    "tracking_pn_file":
        "7c065d7a080296fef8f5043ae1e7b7e71ddf6b1127f4529732fcbb461b28674b",
    "tracking_qam16_nulls":
        "05d38263f38e59a6ee166959cffb58eeabedcaaf11317fbab08dc68f24cceca4",
}


def golden_scenario(case, tmp_path) -> Scenario:
    params = dict(GOLDEN[case][0])
    if params.get("pn_file") is True:
        params["pn_file"] = write_pn_file(tmp_path / "pn.txt")
    return Scenario(**params)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_csv_digest(case, tmp_path):
    out = tmp_path / "out.csv"
    rows = run_scenario(golden_scenario(case, tmp_path), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case][1]
    assert out.read_bytes() == csv_writer_bytes(rows, tmp_path / "oracle.csv")
    text = "".join(f"{float(r.evm_db)!r},{float(r.ser)!r}\n" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCORES[case]


# sha256 over the sha256 of every estimate stack harness.evm_linear
# scores, in order, for each GOLDEN case: the CSVs round evm_db and ser,
# so they would miss a change in the estimates' last bits
GOLDEN_BITS = {
    "custom_tls_nulls":
        "e98b695588e9b52b217bd60ac88a2b59252b424f648841c2624965fb77b1f417",
    "evm_vs_d_ls_nrx1":
        "167750b65d4378d219f2b92ee24b4034152e7da006a42a68ea6ae12f60b4e467",
    "evm_vs_d_tls_nrx1":
        "24b48e46a774125eacdc0c1ad8abd276df8bf6497b8f8aedf21ffd8dd5626265",
    "evm_vs_d_tls_nulls":
        "10d674cb87334bf3268a61cebdd17d565edaec859909a3936bf5583ff950a702",
    "evm_vs_d_tls_pn_file":
        "e7a29ee9477cda8f04fd3f65fa31f5a9312bc782acf7df782a94d775f7b69e22",
    "evm_vs_sigma_kl_dft_dct":
        "dcdf9cf1a310d3bdea82bd253369e67be186fb081cd381d4e3ea966c58811060",
    "evm_vs_sigma_repeats":
        "6bb1babb79b28e73ba31fd13ab11cab587ca258a0b7cf446c82a94520a9ff62d",
    "mimo_blocks":
        "bec236416df69a0960b3b50e42d223d401fa3dfe16e95e52551d13f47681581f",
    "mimo_dup_points":
        "4b5514bf6067a19fda6906d542568e72fd6106906ce1b8dcdb1f14156486bc5c",
    "mimo_ls":
        "70799478816bfc1f18f6cbdb1cdf960eb8a5b5d6ec84da6031bd86df69e01246",
    "mimo_channels_repeats":
        "c209d683e80166de8eb6508991144c98eace942d939491cc341965824ec29970",
    "mimo_pn_file":
        "195c2fada978ea578c5aa875573f253d1aece4041ba1f7dace715f6d30453083",
    "mimo_shared_streams":
        "7c408372d83f31cfabe94091c9cbdad490f9097112e617606f7c4f2462873b90",
    "mimo_tls_nulls":
        "af7632f59050e9f78be7128697672e4e8a0848f6e0124f70f9a2fd3ed84959ab",
    "tracking_all_modes":
        "75aec1ad5ab463f7219e6067b6805628ef94e945935a2fa8f4782e62d86f23b7",
    "tracking_all_modes_blocks":
        "9ff4e4445862de7e30f129b823b33ac19f3999eef33ec8f3c7f74292fc112c68",
    "tracking_pn_file":
        "4c4b707305f3a9af16ade8d9904f1126b7a8d186310550bc063dc24966090473",
    "tracking_qam16_nulls":
        "3a795c0b117c857d61fc2762a1cfa5a9e4785155256e43c9557c36a7ec5ec04e",
    "tracking_channels":
        "d3c17d253158085e076d6c4021c43016b42dad9174a8f009ad928f7d0cfcd9a2",
    "tracking_channels_totals":
        "0df5d0ae2090124e2a876ce93ed466f3f50e2dec1991d4943dcd0468ed31a3cc",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_estimate_bits(case, tmp_path, monkeypatch):
    from pncomp import harness
    digests = []
    evm_linear = harness.evm_linear

    def hashing(est, ref, layout):
        digests.append(hashlib.sha256(
            np.ascontiguousarray(est).tobytes()).hexdigest())
        return evm_linear(est, ref, layout)
    monkeypatch.setattr(harness, "evm_linear", hashing)
    run_scenario(golden_scenario(case, tmp_path), str(tmp_path / "out.csv"))
    assert digests
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == \
        GOLDEN_BITS[case]


# the GOLDEN cases fit by LS: fit_prefixes fits them by QR, and a fit by
# pinv must agree with it to within the tolerance tier
LS_GOLDEN = sorted(case for case, (params, _) in GOLDEN.items()
                   if params.get("method", "LS") == "LS")


def pinv_fit(w, rcv, refs_s, ds):
    """fit_prefixes's LS fit with no QR: each d by solve_ls's pinv on the
    fit rows of W's leading d columns."""
    rows = w[..., rcv.rows[0], rcv.rows[1], :]
    targets = np.take(refs_s, rcv.tones, axis=-1, mode="wrap")
    return {d: solve_ls(rows[..., :d], targets) for d in ds}


def tls_fit(w, rcv, refs_s, ds):
    """fit_prefixes's TLS fit by oracles.per_symbol_tls_fit, the SVD of
    the conjugate transpose of each symbol's rows, one symbol at a time."""
    lead = w.shape[:-3]
    # one (N,) reference for every block, or one per block
    refs = np.reshape(refs_s, lead + (-1, rcv.layout.n))
    gammas = {}
    for d in ds:
        gammas[d] = np.empty(lead + (d,), dtype=np.complex128)
        for idx in np.ndindex(lead):
            gammas[d][idx] = oracles.per_symbol_tls_fit(w[idx], rcv, d,
                                                        refs[idx])[0]
    return gammas


def assert_near_reference_fit(case, fit, tmp_path, monkeypatch):
    """The tolerance tier: case run with every fixed-basis, tracked and
    multiuser fit by fit gives the same CSV bytes and SERs as the run, and
    evm_db within 1e-10 relative."""
    from pncomp import harness, mimo, tracker
    sc = golden_scenario(case, tmp_path)
    rows = run_scenario(sc, str(tmp_path / "run.csv"))
    for mod in (harness, tracker, mimo):
        monkeypatch.setattr(mod, "fit_prefixes", fit)
    rows_ref = run_scenario(sc, str(tmp_path / "ref.csv"))
    assert ((tmp_path / "run.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert [r.ser for r in rows] == [r.ser for r in rows_ref]
    np.testing.assert_allclose([r.evm_db for r in rows],
                               [r.evm_db for r in rows_ref],
                               rtol=1e-10, atol=0)
    # two algorithms: some unrounded score differs, so the run was not
    # compared with itself
    assert [r.evm_db for r in rows] != [r.evm_db for r in rows_ref]


@pytest.mark.parametrize("case", LS_GOLDEN)
def test_golden_scores_near_pinv_path(case, tmp_path, monkeypatch):
    assert_near_reference_fit(case, pinv_fit, tmp_path, monkeypatch)


# over the 11 TLS cases the largest evm_db move was 1.5e-13 relative
# (tracking_all_modes_blocks), every CSV byte and SER the same
@pytest.mark.parametrize("case", sorted(set(GOLDEN) - set(LS_GOLDEN)))
def test_golden_scores_near_tls_reference(case, tmp_path, monkeypatch):
    assert_near_reference_fit(case, tls_fit, tmp_path, monkeypatch)


# the environment every bit-level check (GOLDEN_BITS, GOLDEN_SCORES,
# TestFixedBlock, the TestBlockW and TestBlockFit classes, the invariance
# tests) was recorded in: another numpy, scipy or OpenBLAS build, or the
# OpenBLAS kernel of another CPU, may move last bits with no fault in pncomp
BIT_ENVIRONMENT = {"numpy": "2.4.6", "scipy": "1.17.1",
                   "openblas": "scipy-openblas 0.3.31.188.0",
                   "openblas_core": "SkylakeX"}


def running_environment() -> dict:
    """BIT_ENVIRONMENT's fields as this process has them.  The OpenBLAS
    core is the kernel the DYNAMIC_ARCH build chose for this CPU, read
    from numpy's bundled library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__),
                                       os.pardir, "numpy.libs",
                                       "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                core = fn().decode()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": core}


def test_bit_environment_is_the_recorded_one():
    env = running_environment()
    differ = [f"{key} is {env[key]!r}, recorded {want!r}"
              for key, want in BIT_ENVIRONMENT.items() if env[key] != want]
    assert not differ, ("the bit-level digests were recorded in another "
                        "environment: " + "; ".join(differ))


def pn_windows(sc):
    """The pn_file angle windows run_scenario hands its runner, or None."""
    return load_pn_samples(sc.pn_file, sc.n) if sc.pn_file else None


def sc_generator(sc, seed, sigma):
    """A one-level generator of sc's phase-noise filter."""
    return PnGenerator(seed, (sigma,), sc.pn_order, sc.pn_cutoff,
                       sc.pn_ripple_db)


def reference_pn(sc, ci, sigma):
    """next(): channel ci's next one-symbol rx psi = exp(j*phi), (N,)."""
    if sc.pn_file:
        windows = itertools.cycle(load_pn_samples(sc.pn_file, sc.n))
        return lambda: np.exp(1j * next(windows))
    gen = sc_generator(sc, child_seed(sc.master_seed, "pn", ci), sigma)
    return lambda: gen.next(sc.n)[0]


def reference_noise(sc, rng, shape):
    """One symbol's AWGN, real parts drawn first, then imaginary parts."""
    sigma_n = np.sqrt(10.0 ** (-sc.snr_db / 10.0) / 2.0)
    return sigma_n * (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))


def per_symbol_stream(sc, ci, sigma, offset=False):
    """Reference for _channel_symbols: channel ci's response and (ref, z)
    stream simulated one symbol at a time, with its own PN draw, offset
    ramp (if offset and sc.ppm != 0), FFT pair and real-then-imaginary
    noise draw per symbol."""
    seed = sc.master_seed
    lam = gen_channel(sc.n_taps, sc.channel_profile,
                      child_seed(seed, "chan", ci), n_rx=sc.n_rx, n=sc.n)
    next_pn = reference_pn(sc, ci, sigma)
    rng = np.random.default_rng(child_seed(seed, "noise", ci))
    out = []
    for m in range(sc.n_symbols):
        ref = make_symbol(sc.layout, sc.constellation,
                          child_seed(seed, "sym", ci, m))
        psi = next_pn()
        if offset and sc.ppm != 0:
            psi = apply_offset(psi, sc.phase_per_sample, start_sample=m * sc.n)
        y = ifft(lam * fft(ifft(ref))[None, :])
        if sc.snr_db != np.inf:
            y = y + reference_noise(sc, rng, y.shape)
        out.append((ref, psi[None, :] * y))
    return lam, out


class TestBlockStream:
    """_channel_symbols simulates SYMBOL_BLOCK symbols per step for every
    sigma; every symbol at every sigma must equal that sigma's
    one-at-a-time reference bit for bit."""

    @pytest.mark.parametrize("kw", [
        dict(ppm=2.0),
        dict(ppm=-0.7, n_rx=1),
        dict(snr_db=float("inf"), n_rx=3),
        dict(pn_file=True, ppm=1.0),
        dict(pn_file=True, n_rx=3, snr_db=float("inf")),
        dict(n_symbols=SYMBOL_BLOCK),
        dict(n_symbols=1, ppm=1.0),
        dict(sigmas=(0.0, 3.0, 3.0)),
        dict(sigmas=(0.0, 3.0, 3.0), pn_file=True),
        dict(sigmas=(0.0, 3.0, 3.0), ppm=-1.3),
        dict(sigmas=(0.0, 3.0, 3.0), ppm=2.0, snr_db=float("inf")),
    ], ids=["ppm", "ppm_neg_nrx1", "snr_inf_nrx3", "pn_file_ppm",
            "pn_file_nrx3_snr_inf", "one_full_block", "one_symbol",
            "sigmas", "sigmas_pn_file", "sigmas_ppm", "sigmas_ppm_snr_inf"])
    def test_matches_per_symbol_stream(self, tmp_path, kw):
        kw = dict(kw)
        sigmas = kw.pop("sigmas", (3.0,))
        if kw.pop("pn_file", False):
            kw["pn_file"] = write_pn_file(tmp_path / "pn.txt")
        params = dict(name="tracking", n_symbols=2 * SYMBOL_BLOCK + 5,
                      master_seed=77)
        params.update(kw)
        sc = Scenario(**params)
        lam, blocks = _channel_symbols(sc, 1, pn_windows(sc), sigmas,
                                       offset=True)
        blocks = list(blocks)  # a generator: it can be consumed only once
        assert lam.shape == (1, sc.n_rx, sc.n)
        assert all(1 <= len(refs) <= SYMBOL_BLOCK for refs, _, _ in blocks)
        # every block at every sigma before the next block
        n_blocks = -(-sc.n_symbols // SYMBOL_BLOCK)
        assert [pt for _, pt, _ in blocks] == [
            (i, 0) for i in range(len(sigmas))] * n_blocks
        for i, sigma in enumerate(sigmas):
            ref_lam, expected = per_symbol_stream(sc, 1, sigma, offset=True)
            assert np.array_equal(lam[0], ref_lam)
            got = [(syms, z_i) for refs, pt, z in blocks if pt == (i, 0)
                   for syms, z_i in zip(refs, z)]
            assert len(got) == len(expected) == sc.n_symbols
            for ((ref,), z), (ref_e, z_e) in zip(got, expected):
                assert np.array_equal(ref, ref_e)
                assert z.shape == (sc.n_rx, sc.n)
                assert np.array_equal(z, z_e)
                # array_equal takes -0.0 for 0.0; with no noise, a zero's
                # sign in the channel output would reach z unchanged
                if sc.snr_db == np.inf:
                    assert np.array_equal(z.view(np.uint64),
                                          z_e.view(np.uint64))

    def test_simulates_each_block_when_asked(self, monkeypatch):
        from pncomp import harness
        made = []
        monkeypatch.setattr(harness, "make_symbol",
                            lambda *args: made.append(args) or make_symbol(
                                *args))
        sc = Scenario(name="tracking", n_symbols=2 * SYMBOL_BLOCK + 5)
        _, blocks = _channel_symbols(sc, 1, None, (3.0,))
        assert made == []
        refs, _, _ = next(blocks)
        assert len(made) == len(refs) == SYMBOL_BLOCK

    def test_evm_vs_sigma_simulates_each_channel_once(self, tmp_path,
                                                      monkeypatch):
        # one channel, 10 symbols, 8 sigmas: one rx and one KL-training
        # phase-noise generator and one make_symbol per symbol, not per
        # symbol and sigma
        from pncomp import harness
        inits, made = [], []
        init = PnGenerator.__init__
        monkeypatch.setattr(PnGenerator, "__init__",
                            lambda self, *args: inits.append(args) or init(
                                self, *args))
        monkeypatch.setattr(harness, "make_symbol",
                            lambda *args: made.append(args) or make_symbol(
                                *args))
        sc = Scenario(name="evm_vs_sigma", scale=1 / 300, n_symbols=10,
                      kl_cov_symbols=50)
        assert len(sc.sigma_list) == 8
        run_scenario(sc, str(tmp_path / "o.csv"))
        assert (len(inits), len(made)) == (2, 10)

    @pytest.mark.parametrize("name, expected", [
        ("evm_vs_sigma", {"dft_basis": 1, "dct_basis": 1, "kl_basis": 6}),
        ("tracking", {"dft_basis": 1, "kl_basis": 2, "init_tracker": 1}),
        ("mimo_sweep", {"kl_basis": 6}),
    ])
    def test_fixed_bases_built_once_per_run(self, tmp_path, monkeypatch,
                                            name, expected):
        # 2 channels, 3 sigmas: the DFT and DCT bases and the tracker's
        # start depend on neither, so each is built once per run; the KL
        # basis once per (channel, sigma)
        from pncomp import basis, harness
        sc = Scenario(name=name, n_channels=2, scale=1.0, n_symbols=4,
                      kl_cov_symbols=50, sigma_list=(1.0, 2.0, 3.0),
                      basis_kinds=("KL", "DFT", "DCT"), training_symbols=2,
                      track_modes=("tracked", "frozen", "dft", "cpe", "kl"))
        calls = []
        for mod, fn in ((basis, "dft_basis"), (basis, "dct_basis"),
                        (basis, "kl_basis"), (harness, "init_tracker")):
            orig = getattr(mod, fn)
            monkeypatch.setattr(mod, fn, lambda *a, _f=orig, **k: (
                calls.append(_f.__name__) or _f(*a, **k)))
        run_scenario(sc, str(tmp_path / "o.csv"))
        assert {fn: calls.count(fn) for fn in set(calls)} == expected


def per_point_mu_stream(sc, ci, sigma, tx_sigma):
    """Reference for _channel_symbols with users: channel ci's users'
    responses lam (n_users, n_rx, N) and its stream at one (sigma, tx
    sigma) point, simulated one symbol at a time with the point's own
    generators and noise stream; each user's signal is transformed,
    channel-filtered and added from zero in user order."""
    seed = sc.master_seed
    lam = np.stack([gen_channel(sc.n_taps, sc.channel_profile,
                                child_seed(seed, "chan", ci, u),
                                n_rx=sc.n_rx, n=sc.n)
                    for u in range(sc.n_users)])
    next_pn = reference_pn(sc, ci, sigma)
    tx_gens = [sc_generator(sc, child_seed(seed, "txpn", ci, u), tx_sigma)
               for u in range(sc.n_users)] if tx_sigma > 0 else None
    rng = np.random.default_rng(child_seed(seed, "noise", ci))
    out = []
    for m in range(sc.n_symbols):
        refs = [make_symbol(sc.layout, sc.constellation,
                            child_seed(seed, "sym", ci, m, u))
                for u in range(sc.n_users)]
        psi = next_pn()
        y = np.zeros((sc.n_rx, sc.n), dtype=np.complex128)
        for u, ref in enumerate(refs):
            x = ifft(ref)
            if tx_gens:
                x = tx_gens[u].next(sc.n)[0] * x
            y += ifft(lam[u] * fft(x)[None, :])
        if sc.snr_db != np.inf:
            y = y + reference_noise(sc, rng, y.shape)
        out.append((refs, psi[None, :] * y))
    return lam, out


def per_sigma_kl_cov(sc, ci, sigma):
    """The one-sigma _kl_cov that _kl_covs replaced, kept as the
    reference: its own generator (or file windows) per sigma, and the
    np.outer sum that estimate_cov's preallocated product replaced."""
    seed = child_seed(sc.master_seed, "cov", ci)
    if sc.pn_file:
        windows = itertools.cycle(load_pn_samples(sc.pn_file, sc.n))
        psi = np.exp(1j * np.concatenate([next(windows)
                                          for _ in range(sc.kl_cov_symbols)]))
    else:
        psi = sc_generator(sc, seed, sigma).next(sc.kl_cov_symbols * sc.n)
    r = np.zeros((sc.n, sc.n), dtype=np.complex128)
    for row in psi.reshape(-1, sc.n):
        r += np.outer(row, row.conj())
    r /= sc.kl_cov_symbols
    return (r + r.conj().T) / 2


class TestKlCovs:
    """_kl_covs filters one stream per channel for all its sigmas; each
    covariance must equal the one-generator-per-sigma reference."""

    @pytest.mark.parametrize("sigmas, pn_file", [
        ((3.0,), False), ((0.0, 3.0, 3.0), False), ((2.0, 4.0, 6.0), False),
        ((0.0, 3.0, 3.0), True)],
        ids=["one", "sigma_0_repeated", "three", "pn_file"])
    def test_matches_per_sigma_cov(self, tmp_path, sigmas, pn_file):
        params = dict(name="mimo_sweep", sigma_list=sigmas,
                      kl_cov_symbols=45, master_seed=78)
        if pn_file:
            params["pn_file"] = write_pn_file(tmp_path / "pn.txt")
        sc = Scenario(**params)
        covs = _kl_covs(sc, 2, sc.sigma_list, pn_windows(sc))
        assert covs.shape == (len(sigmas), sc.n, sc.n)
        for cov, sigma in zip(covs, sigmas):
            assert np.array_equal(cov, per_sigma_kl_cov(sc, 2, sigma))

    def test_memory_bounded_by_block(self):
        # the training symbols are drawn SYMBOL_BLOCK at a time, so the
        # traced peak does not grow with kl_cov_symbols (all of them at
        # once took 18 MB more at 2,000 symbols x 8 sigmas than at 500)
        _kl_covs(Scenario(name="evm_vs_sigma", kl_cov_symbols=1), 0,
                 (3.0,), None)  # the filter design is cached on first use
        peaks = []
        for symbols in (500, 2000):
            sc = Scenario(name="evm_vs_sigma", kl_cov_symbols=symbols)
            assert len(sc.sigma_list) == 8
            tracemalloc.start()
            try:
                _kl_covs(sc, 0, sc.sigma_list, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks


@functools.lru_cache(maxsize=2)
def trained_and_model(pn_order=2, pn_cutoff=0.005, pn_ripple_db=1.0):
    """(trained, model) covariances at sigma 1, 3 and 8 degrees: _kl_covs
    of channel 0 over 20,000 training symbols, and oracles.model_cov."""
    sc = Scenario(name="evm_vs_sigma", sigma_list=(1.0, 3.0, 8.0),
                  kl_cov_symbols=20_000, pn_order=pn_order,
                  pn_cutoff=pn_cutoff, pn_ripple_db=pn_ripple_db)
    return [(r, oracles.model_cov(sc.n, sigma, pn_order, pn_cutoff,
                                  pn_ripple_db))
            for r, sigma in zip(_kl_covs(sc, 0, sc.sigma_list, None),
                                sc.sigma_list)]


def structure_error(r, model) -> float:
    """The largest |D_r(tau) - D_model(tau)| over lags 1..N-1, relative to
    the peak of D_model, where D(tau) = 1 - the mean of Re R along
    diagonal tau.  A trained R's imaginary part is sampling noise only,
    which would swamp a full-matrix error."""
    lags = range(1, len(model))
    d_r = np.array([1 - np.diagonal(r, t).real.mean() for t in lags])
    d_model = np.array([1 - np.diagonal(model, t).mean() for t in lags])
    return np.max(np.abs(d_r - d_model)) / np.max(d_model)


class TestKlCovsModel:
    """_kl_covs against the phase-noise model's covariance in closed form.
    Over master seeds 1-8, at both filters tested here and 20,000
    training symbols, the structure error was at most 0.018, and at least
    0.080 against a model whose sigma is 5% off.  At 5,000 symbols, over
    seeds 1-12 and four filters, the first reached 0.056 and the second
    fell to 0.056, so no bound there separates them."""

    @pytest.mark.parametrize("filt", [
        {}, dict(pn_order=4, pn_cutoff=0.03, pn_ripple_db=2.0)],
        ids=["default_filter", "order_4_filter"])
    def test_structure_function_matches_model(self, filt):
        for r, model in trained_and_model(**filt):
            assert structure_error(r, model) <= 0.05

    def test_structure_error_sees_5_percent_sigma_error(self):
        for (r, _), sigma in zip(trained_and_model(), (1.0, 3.0, 8.0)):
            off = oracles.model_cov(len(r), 1.05 * sigma, 2, 0.005, 1.0)
            assert structure_error(r, off) > 0.05

    def test_top_kl_subspace_matches_model(self):
        # at most 0.38 degrees over seeds 1-6; the model of an order-3
        # filter is at least 8.9 degrees away at some d
        for r, model in trained_and_model():
            for d in range(1, 5):
                cos = np.linalg.svd(kl_basis(r, d).conj().T
                                    @ kl_basis(model, d), compute_uv=False)
                assert np.degrees(np.arccos(min(cos.min(), 1.0))) <= 1.0


class TestRowsModel:
    """Whole rows against the phase-noise model in closed form.  At d = 0
    and snr_db = inf the equalized tone is s c_0 plus ICI, and
    sum |c_l|^2 = 1 for a unit-modulus psi, so the error power per unit
    symbol power is 2 (1 - Re E c_0) = 2 (1 - exp(-sigma^2 / 2)).

    At this test's 40 channels x 100 symbols and default seed, the rows
    sit -0.107 dB from it at 1, 3 and 8 degrees (the levels share one
    white-noise draw).  Over
    master seeds 1-12 at 3 degrees the offset had mean -0.046 dB, sd
    0.063 dB and range -0.136 to +0.056 dB; BOUND_DB is |mean| + 3 sd,
    rounded up.  A sigma 5% off moves the rows by 0.42 dB.

    For d >= 1, the KL tail bound: see test_kl_rows_above_tail_bound."""

    BOUND_DB = 0.25
    ALLOW_DB = 0.6

    def test_equalized_rows_match_closed_form(self, tmp_path):
        sc = Scenario(name="evm_vs_sigma", sigma_list=(1.0, 3.0, 8.0), d=0,
                      snr_db=np.inf, n_channels=40, scale=1.0,
                      n_symbols=100, basis_kinds=("DFT",))
        rows = run_scenario(sc, str(tmp_path / "d0.csv"))
        assert [r.sigma_deg for r in rows] == list(sc.sigma_list)
        for r in rows:
            model = 10 * np.log10(2 * (1 - np.exp(-np.deg2rad(r.sigma_deg)
                                                  ** 2 / 2)))
            off = r.evm_db - model
            ok = abs(off) <= self.BOUND_DB
            print(f"\nd = 0 model at {r.sigma_deg:g} deg "
                  f"[{'PASS' if ok else 'FAIL'}] EVM {r.evm_db:.3f} dB vs "
                  f"{model:.3f} dB: offset {off:+.3f} dB, margin "
                  f"{self.BOUND_DB - abs(off):.3f} dB of {self.BOUND_DB}")
            assert ok, (r.sigma_deg, off)

    def test_kl_rows_above_tail_bound(self, tmp_path):
        # no correction in a d-dimensional span beats the model's
        # eigenvalue tail, so at snr_db = inf a KL row's expected EVM is at
        # least 10 log10(sum_{i>d} lambda_i / N), lambda the eigenvalues of
        # oracles.model_cov.  A row is a sample, so it may fall below its
        # expectation: over master seeds 1-12 at this test's 20 channels x
        # 100 symbols, the margin EVM - bound had mean 0.44, 0.61, 1.50,
        # 3.14 and 5.55 dB at d = 1, 2, 4, 8 and 16, sd 0.13-0.39 dB at
        # d >= 2, and a lowest value of -0.13 dB (d = 1).  ALLOW_DB is 3
        # robust sd (1.4826 MAD = 0.19 dB) of the tightest row, d = 1,
        # rounded up; the MAD, as seed 3's d = 1 row sits 2.2 dB above the
        # bound (one channel has a pilot 47 dB down on a branch) and
        # inflates the plain sd to 0.60 dB with a deviation that cannot
        # fail this test.  A PnGenerator scale of x0.85 fails it
        # (d = 1 at -1.06 dB); x0.9, x0.95, x1.05 and pilots counted in
        # the EVM do not, and the d = 0 test above catches +-5%.
        sc = Scenario(name="evm_vs_d", sigma_deg=3.0, snr_db=np.inf,
                      n_channels=20, scale=1.0, n_symbols=100,
                      basis_kinds=("KL",), d_list=(1, 2, 4, 8, 16))
        rows = run_scenario(sc, str(tmp_path / "kl.csv"))
        assert [r.d for r in rows] == list(sc.d_list)
        lam = np.linalg.eigvalsh(oracles.model_cov(  # ascending
            sc.n, sc.sigma_deg, sc.pn_order, sc.pn_cutoff, sc.pn_ripple_db))
        for r in rows:
            bound = 10 * np.log10(lam[:sc.n - r.d].sum() / sc.n)
            margin = r.evm_db - bound + self.ALLOW_DB
            print(f"\nKL tail bound at d = {r.d} "
                  f"[{'PASS' if margin >= 0 else 'FAIL'}] EVM {r.evm_db:.3f} "
                  f"dB vs {bound:.3f} dB: offset {r.evm_db - bound:+.3f} dB, "
                  f"margin {margin:.3f} dB of {self.ALLOW_DB}")
            assert margin >= 0, (r.d, r.evm_db, bound)


class TestMuBlockStream:
    """_channel_symbols simulates each channel once per block for every
    (sigma, tx sigma) point; every point's symbols must equal its own
    one-at-a-time reference bit for bit."""

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(n_users=1, n_rx=1),
        dict(n_users=3, n_rx=3, snr_db=float("inf")),
        dict(n_symbols=SYMBOL_BLOCK, tx_sigma_list=(0.0,)),
        dict(n_symbols=1, tx_sigma_list=(1.0,), n_users=3, n_rx=3),
        dict(snr_db=float("inf"), n_users=1, tx_sigma_list=(0.0,)),
        dict(pn_file=True),
        dict(sigma_list=(2.0, 2.0), tx_sigma_list=(1.0, 0.0, 1.0)),
        dict(sigma_list=(0.0, 3.0, 3.0), tx_sigma_list=(0.0, 1.0, 2.0)),
        dict(pn_file=True, sigma_list=(0.0, 3.0, 3.0),
             tx_sigma_list=(2.0, 1.0)),
    ], ids=["two_users", "one_user_nrx1", "three_users_snr_inf",
            "one_full_block_tx_off", "one_symbol_tx_on",
            "snr_inf_tx_off", "pn_file", "repeated_points",
            "sigma_0_repeated", "pn_file_sigma_0_repeated"])
    def test_matches_per_point_stream(self, tmp_path, kw):
        kw = dict(kw)
        if kw.pop("pn_file", False):
            kw["pn_file"] = write_pn_file(tmp_path / "pn.txt")
        params = dict(name="mimo_sweep", n_symbols=2 * SYMBOL_BLOCK + 5,
                      sigma_list=(2.0, 4.0), tx_sigma_list=(0.0, 1.5),
                      master_seed=77)
        params.update(kw)
        sc = Scenario(**params)
        expected = {}
        for (i, sigma), (j, tx_sigma) in itertools.product(
                enumerate(sc.sigma_list), enumerate(sc.tx_sigma_list)):
            lam, expected[(i, j)] = per_point_mu_stream(sc, 1, sigma,
                                                        tx_sigma)
        got_lam, blocks = _channel_symbols(
            sc, 1, pn_windows(sc), sc.sigma_list, sc.tx_sigma_list,
            users=tuple((u,) for u in range(sc.n_users)))
        assert got_lam.shape == (sc.n_users, sc.n_rx, sc.n)
        assert np.array_equal(got_lam, lam)
        got = {}
        for refs, pt, z in blocks:
            assert 1 <= len(refs) <= SYMBOL_BLOCK
            got.setdefault(pt, []).extend(zip(refs, z))
        assert sorted(got) == sorted(expected)
        for pt, stream in expected.items():
            assert len(got[pt]) == len(stream) == sc.n_symbols
            for (syms, z), (syms_e, z_e) in zip(got[pt], stream):
                assert len(syms) == len(syms_e) == sc.n_users
                assert all(np.array_equal(a, e)
                           for a, e in zip(syms, syms_e))
                assert z.shape == (sc.n_rx, sc.n)
                assert np.array_equal(z, z_e)


class TestFixedBlock:
    """_fixed_block against the plain per-symbol path, bit for bit: every
    point's estimate of every symbol is the fit and combine of
    oracles.per_symbol_qr_fit (LS) or oracles.per_symbol_fit (TLS) on a W
    built for that symbol alone with the point's own d columns, or
    equalize_only at d = 0.  Against per_symbol_fit's pinv, the LS
    estimates are within 1e-10 relative and their symbol errors equal."""

    NULLS = (28, 29, 30, 31, 32, 33, 34, 35)
    # ("DFT", 1) is the tracker's cpe, a prefix of the DFT basis; the
    # repeated point is fit once and still combined twice; 15 or 16 pilot
    # rows < d + 1 at d = 16: TLS falls back to LS there
    POINTS = [("KL", 0), ("KL", 1), ("KL", 4), ("KL", 8), ("DFT", 0),
              ("DFT", 1), ("DFT", 4), ("DFT", 4), ("DCT", 16)]

    @pytest.mark.parametrize("kw", [
        dict(name="evm_vs_d", n_rx=3),
        dict(name="mimo_sweep", n_users=3, n_rx=3),
    ], ids=["single_user_nrx3", "mimo_3users"])
    def test_references_are_plus_zero_on_null_tones(self, kw):
        # a null fit row's target is its reference's null tone, so that
        # tone must be exactly +0.0 in every reference, sign bit included
        sc = Scenario(**kw, null_tones=self.NULLS, n_symbols=SYMBOL_BLOCK + 3,
                      sigma_list=(3.0,), tx_sigma_list=(0.0,))
        users = (tuple((u,) for u in range(sc.n_users))
                 if sc.name == "mimo_sweep" else ((),))
        _, blocks = _channel_symbols(sc, 1, None, (3.0,), users=users)
        nulls = sc.layout.null_arr
        assert list(nulls) == list(self.NULLS)
        n_refs = 0
        for refs, _, _ in blocks:
            assert refs.shape[1] == len(users)
            assert not np.take(refs, nulls, axis=-1).view(np.uint64).any()
            n_refs += len(refs)
        assert n_refs == sc.n_symbols

    @pytest.mark.parametrize("method, n_rx, nulls, weak, m", [
        ("LS", 1, False, False, SYMBOL_BLOCK),
        ("TLS", 3, True, True, SYMBOL_BLOCK),
        ("LS", 3, True, True, 5),
        ("TLS", 1, False, True, 5),
    ], ids=["ls_nrx1", "tls_nrx3_null_weak", "ls_nrx3_null_weak_partial",
            "tls_nrx1_weak_partial"])
    def test_matches_per_symbol_path(self, method, n_rx, nulls, weak, m):
        layout = ToneLayout(n=64, pilot_idx=default_layout().pilot_idx,
                            null_idx=self.NULLS if nulls else ())
        qam = Constellation.qam(256)
        lam = gen_channel(8, "exp_decay(3)", seed=70 + n_rx, n_rx=n_rx, n=64)
        if weak:  # branch 0: a pilot and a null tone weak, a data tone zero
            lam[0, [3, 30]] = 1e-9 * np.abs(lam[0]).max()
            lam[0, 40] = 0.0
        rcv = receiver(lam, layout, method, nulls)
        refs = np.array([make_symbol(layout, qam, 71 + i) for i in range(m)])
        gen = PnGenerator(72, (3.0,))
        rng = np.random.default_rng(73)
        z = np.array([gen.next(64) * ifft(lam * ref)
                      + 1e-3 * (rng.standard_normal(lam.shape)
                                + 1j * rng.standard_normal(lam.shape))
                      for ref in refs])
        train = PnGenerator(74, (3.0,))
        cov = estimate_cov([train.next(64)[0] for _ in range(200)])
        make = {"KL": lambda d: kl_basis(cov, d),
                "DFT": lambda d: dft_basis(64, d),
                "DCT": lambda d: dct_basis(64, d)}
        bases = {"KL": make["KL"](8), "DFT": make["DFT"](4),
                 "DCT": make["DCT"](16)}
        est = _fixed_block(z, rcv, bases, self.POINTS, refs)
        # C-contiguous: evm_linear's sums over a strided stack can differ
        # in the last bits
        assert est.shape == (len(self.POINTS), m, 64)
        assert est.flags.c_contiguous
        bit_oracle = (oracles.per_symbol_qr_fit if method == "LS"
                      else oracles.per_symbol_fit)
        for (kind, d), row in zip(self.POINTS, est):
            for z_i, ref, s_hat in zip(z, refs, row):
                if d == 0:
                    want = near = equalize_only(z_i, rcv)
                else:
                    w = build_w(z_i, rcv, make[kind](d))
                    _, want = bit_oracle(w, rcv, d, ref)
                    _, near = oracles.per_symbol_fit(w, rcv, d, ref)
                assert np.array_equal(s_hat, want)
                assert (np.abs(s_hat - near).max()
                        <= 1e-10 * np.abs(near).max())
                assert (symbol_error_rate(s_hat, ref, layout, qam)
                        == symbol_error_rate(near, ref, layout, qam))
