"""Tests for configuration parsing, sweeps, CSV output and the CLI."""

import csv
import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from pncomp.basis import dct_basis, dft_basis, kl_basis
from pncomp.channel import gen_channel
from pncomp.compensator import build_w, equalize_only, receiver
from pncomp.harness import (CSV_COLUMNS, SYMBOL_BLOCK, _RULES, ConfigError,
                            Scenario, _channel_symbols, _fixed_block,
                            _kl_covs, child_seed, main, parse_config,
                            run_scenario)
from pncomp.numerics import fft, ifft
from pncomp.ofdm import Constellation, ToneLayout, default_layout, make_symbol
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

    def test_rejects_negative_sigma(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sigma_deg = -1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = 64\nbogus_key = 3\n")
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


class TestCsv:
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

    def test_timing_column_opt_in(self, tmp_path):
        sc = Scenario(name="evm_vs_d", d_list=(2,), basis_kinds=("DFT",),
                      **SMALL)
        rows = run_scenario(sc, str(tmp_path / "a.csv"), timing=True)
        assert all(r.wall_clock_s != "" for r in rows)


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
    "n_32": ("name = evm_vs_d\nn = 32\n", [], "n"),
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
        "5c948174c06872c75414cf00e8e1cd31b8987fa0ba9e477a7936100db3ad75ea",
    "evm_vs_d_tls_nrx1":
        "a851df529775c94dfc66d19ac55f1b397a613ec80eb420a431d02049f515babe",
    "evm_vs_d_tls_nulls":
        "520339be70157935d2bafd0f3d6de802b0c0a654a5208d7342092bc97fcf6e8f",
    "evm_vs_d_tls_pn_file":
        "837ef1351bf80db9490633f2b0e54afc6538dd1f89437d418a38d8fd2d7bec57",
    "evm_vs_sigma_kl_dft_dct":
        "309398c21e73ce955259a9b48fad0992c73c2db50ccf097910b9667defe2120c",
    "evm_vs_sigma_repeats":
        "3cede335e67627d396298b0424e82f68453c871be5547d8d25d9f93560c6614c",
    "mimo_blocks":
        "93d617da4a6117a2ef9a83b05ec5c019d418df1ac1798ef36081a94a37e629e4",
    "mimo_channels_repeats":
        "c7a32c1091b214eac2785fbb804865e6849e26839d9b9c8d85eadc799cb6f7df",
    "mimo_dup_points":
        "ffecfaca4b36b26fa9b3c63a0b782a56592d3acebb7724aa661bf1799ffae3c4",
    "mimo_ls":
        "026483b5de42783079c02d897765bf2ed348b818dc12532b948d470fc49b4e55",
    "mimo_pn_file":
        "332501ba9bccb0673a76a27f0001c7548487647116def4eb78b35d6347b1ee5e",
    "mimo_shared_streams":
        "e39c7fbd1eb2f1996d346019e5c6a15ae789daf9615968e1f091d7ee3cdac450",
    "mimo_tls_nulls":
        "5d70c41d40eafc4f52baf7bebcc9e599f1c51188072352fe51172a2560427ae2",
    "tracking_all_modes":
        "867b61c0587a56609ba75b152f86355cc6185ed7da4a97a208244c6371c4beb3",
    "tracking_all_modes_blocks":
        "927b8a8c4274ccfac668fffae1120c35bab201dbc99a6541f8083413be2a5ae7",
    "tracking_channels":
        "447d6b32ad4d366d6e5abf9ccce90a1fa1def1c5128972f9924e1796574b9f6f",
    "tracking_channels_totals":
        "53c161acc410d9321ec65e891b029bcd016a9d19ae0503bf61f268c8d5a75be7",
    "tracking_pn_file":
        "11c48e413180480e6d83f9cd345a9587d8c28821abf14466e7e15507312ffb22",
    "tracking_qam16_nulls":
        "edbdc6ea05b2d68155cfa5bf35dfdcb63ee70f247b3728494058abda681ed422",
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
    text = "".join(f"{float(r.evm_db)!r},{float(r.ser)!r}\n" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCORES[case]


# sha256 over the sha256 of every estimate stack harness.evm_linear
# scores, in order, for each GOLDEN case: the CSVs round evm_db and ser,
# so they would miss a change in the estimates' last bits
GOLDEN_BITS = {
    "custom_tls_nulls":
        "e98b695588e9b52b217bd60ac88a2b59252b424f648841c2624965fb77b1f417",
    "evm_vs_d_ls_nrx1":
        "654e277bb056b46d02ca1b18106ed2dc2a005d23671e301f5d49f9f5d465343e",
    "evm_vs_d_tls_nrx1":
        "24b48e46a774125eacdc0c1ad8abd276df8bf6497b8f8aedf21ffd8dd5626265",
    "evm_vs_d_tls_nulls":
        "10d674cb87334bf3268a61cebdd17d565edaec859909a3936bf5583ff950a702",
    "evm_vs_d_tls_pn_file":
        "e7a29ee9477cda8f04fd3f65fa31f5a9312bc782acf7df782a94d775f7b69e22",
    "evm_vs_sigma_kl_dft_dct":
        "1703efba37fe73be82c34504aaffc3e99e073e239138456ef1f257a6469300ee",
    "evm_vs_sigma_repeats":
        "6bb1babb79b28e73ba31fd13ab11cab587ca258a0b7cf446c82a94520a9ff62d",
    "mimo_blocks":
        "bec236416df69a0960b3b50e42d223d401fa3dfe16e95e52551d13f47681581f",
    "mimo_dup_points":
        "6f7fc08e5cb3841e5a3e0a77742efbd27ce0dc7e749a89f6b49b3f413cf57eea",
    "mimo_ls":
        "8d78e54c1d02792577de2bddc1a5f0409e045633a44b599761d745134911b446",
    "mimo_channels_repeats":
        "5e26289ad1c7c08b7877842ac7bcf0239b503303b536f68712f75e8326a073b5",
    "mimo_pn_file":
        "5345f22fc2c5fae19efca2382ec93100447f3a6f07e1a6182d1218acc9f64279",
    "mimo_shared_streams":
        "7c408372d83f31cfabe94091c9cbdad490f9097112e617606f7c4f2462873b90",
    "mimo_tls_nulls":
        "af7632f59050e9f78be7128697672e4e8a0848f6e0124f70f9a2fd3ed84959ab",
    "tracking_all_modes":
        "75aec1ad5ab463f7219e6067b6805628ef94e945935a2fa8f4782e62d86f23b7",
    "tracking_all_modes_blocks":
        "9ff4e4445862de7e30f129b823b33ac19f3999eef33ec8f3c7f74292fc112c68",
    "tracking_pn_file":
        "d3bcd156b77f2e4f6d4322096c76830ec574977e2f45d54c8ee8315ace1baed9",
    "tracking_qam16_nulls":
        "f8a0781b2d33e3c0133823a9581d2e9464a8b9a32cf03d78ab57012c5905ab07",
    "tracking_channels":
        "d8fd4baa3c8f974a689a83bf4492c0b55e6c343bff28c0782175129b8b0feef3",
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
    point's estimate of every symbol is oracles.per_symbol_fit's fit and
    combine on a W built for that symbol alone with the point's own d
    columns, or equalize_only at d = 0."""

    NULLS = (28, 29, 30, 31, 32, 33, 34, 35)
    # ("DFT", 1) is the tracker's cpe, a prefix of the DFT basis; the
    # repeated point is fit once and still combined twice; 15 or 16 pilot
    # rows < d + 1 at d = 16: TLS falls back to LS there
    POINTS = [("KL", 0), ("KL", 1), ("KL", 4), ("KL", 8), ("DFT", 0),
              ("DFT", 1), ("DFT", 4), ("DFT", 4), ("DCT", 16)]

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
        for (kind, d), row in zip(self.POINTS, est):
            for z_i, ref, s_hat in zip(z, refs, row):
                if d == 0:
                    want = equalize_only(z_i, rcv)
                else:
                    w = build_w(z_i, rcv, make[kind](d))
                    _, want = oracles.per_symbol_fit(w, rcv, d, ref)
                assert np.array_equal(s_hat, want)
