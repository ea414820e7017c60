"""Invariance gates that need no recorded digest: a run's CSV bytes and
unrounded scores do not depend on how its symbols are cut into blocks,
reordering the points of a sweep only permutes its rows, and a subset of
the points reproduces its rows."""

import pytest

from pncomp import harness
from pncomp.harness import Scenario, run_scenario
from pncomp.phase_noise import PnGenerator, save_pn_samples

TINY = dict(scale=1 / 300, n_symbols=40, kl_cov_symbols=77)
TRACKING = dict(name="tracking", qam_order=16, ppm=2.0, d=4,
                track_modes=("tracked", "frozen", "dft", "cpe", "kl"),
                training_symbols=10, freeze_after=20, **TINY)
# training ends at 10 and the frozen mode stops at 20, inside a block at
# every block size below but 1; pn_file=True reads the pn_file fixture's
# 37 windows, which the 40 symbols cycle through mid-block
SHAPES = {
    "evm_vs_d": dict(name="evm_vs_d", d_list=(0, 3, 8, 64),
                     basis_kinds=("KL", "DFT", "DCT"), **TINY),
    "evm_vs_sigma": dict(name="evm_vs_sigma", method="TLS", n_rx=3, d=4,
                         sigma_list=(0.0, 3.0, 3.0, 9.0),
                         null_tones=tuple(range(28, 36)),
                         use_null_tones=True, **TINY),
    "tracking": TRACKING,
    "mimo_tls": dict(name="mimo_sweep", method="TLS", d=4,
                     sigma_list=(3.0, 3.0), tx_sigma_list=(0.0, 1.0, 2.0),
                     **TINY),
    "tracking_pn_file": dict(TRACKING, pn_file=True),
    "mimo_pn_file": dict(name="mimo_sweep", d=4, tx_sigma_list=(0.0, 1.0),
                         pn_file=True, **TINY),
}
_at_32 = {}


@pytest.fixture(scope="module")
def pn_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pn") / "pn.txt"
    save_pn_samples(path, PnGenerator(5, (3.0,)).next_phi(64 * 37)[0])
    return str(path)


def run_bytes(tmp_path, pn_path, **params) -> bytes:
    """The CSV, then each row's unrounded scores, which the CSV rounds."""
    if params.get("pn_file") is True:
        params["pn_file"] = pn_path
    out = tmp_path / "out.csv"
    rows = run_scenario(Scenario(**params), str(out))
    return out.read_bytes() + b"".join(
        f"{float(r.evm_db)!r},{float(r.ser)!r}\n".encode() for r in rows)


def run_at_32(shape, tmp_path, pn_file, monkeypatch) -> bytes:
    if shape not in _at_32:
        monkeypatch.setattr(harness, "SYMBOL_BLOCK", 32)
        _at_32[shape] = run_bytes(tmp_path, pn_file, **SHAPES[shape])
    return _at_32[shape]


@pytest.mark.parametrize("block", [1, 7, 33])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_csv_independent_of_block_size(shape, block, tmp_path, pn_file,
                                       monkeypatch):
    expected = run_at_32(shape, tmp_path, pn_file, monkeypatch)
    monkeypatch.setattr(harness, "SYMBOL_BLOCK", block)
    assert run_bytes(tmp_path, pn_file, **SHAPES[shape]) == expected


@pytest.mark.parametrize("shape, keys", [
    ("evm_vs_d", ("d_list", "basis_kinds")),
    ("evm_vs_sigma", ("sigma_list",)),
    ("mimo_tls", ("tx_sigma_list",)),
    ("tracking", ("track_modes",))])
def test_reordered_points_permute_rows(shape, keys, tmp_path, pn_file,
                                       monkeypatch):
    expected = run_at_32(shape, tmp_path, pn_file, monkeypatch).splitlines()
    reordered = {key: SHAPES[shape][key][::-1] for key in keys}
    got = run_bytes(tmp_path, pn_file,
                    **dict(SHAPES[shape], **reordered)).splitlines()
    assert got[0] == expected[0] and got != expected
    assert sorted(got) == sorted(expected)


def test_subset_of_points_reproduces_rows(tmp_path, pn_file, monkeypatch):
    expected = run_at_32("evm_vs_d", tmp_path, pn_file, monkeypatch)
    got = run_bytes(tmp_path, pn_file, **dict(
        SHAPES["evm_vs_d"], d_list=(3,), basis_kinds=("DFT",))).splitlines()
    assert len(got) == 3  # the header, one row and its scores
    assert set(got) <= set(expected.splitlines())
