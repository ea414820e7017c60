"""The benchmark's traced call-count self-check, on small scenarios.

`bench/workload.py::expected_calls` derives from a scenario how often one
benchmark task calls each traced function, and `bench/run.py --trace 1`
fails when the counts differ.  This runs one small scenario of each
benchmark shape, with only `n_symbols` lowered, under plain counting
wrappers, so a change that breaks that self-check fails here as well.
The benchmark files are read, never written.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from pncomp import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("bench_workload",
                                                  BENCH / "workload.py")
    mod = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no bytecode cache under bench/
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = keep
    return mod


def count_calls(monkeypatch, names):
    """Wrap each "module.function" of pncomp, under every name any pncomp
    module binds it to; returns the live {name: calls} dict."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items())
               if key == "pncomp" or key.startswith("pncomp.")]
    for name in names:
        mod_name, attr = name.split(".")
        orig = getattr(sys.modules[f"pncomp.{mod_name}"], attr)

        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        functools.update_wrapper(wrapper, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, wrapper)
    return counts


# sweep_d and mimo_tls: a few symbols; track_offset: past its 300 training
# symbols, so decision-directed symbols are counted too; sweep_d and
# mimo_tls also past one symbol block, so a block boundary is crossed
@pytest.mark.parametrize("name, n_symbols", [
    ("sweep_d", 5), ("sweep_d", 33), ("track_offset", 310), ("mimo_tls", 3),
    ("mimo_tls", 33)])
def test_counts_match_expected(workload, monkeypatch, tmp_path, name,
                               n_symbols):
    sc = harness.parse_config(str(workload.CONFIG_DIR / f"{name}.cfg"),
                              {"master_seed": 1, "n_symbols": n_symbols})
    expected = workload.expected_calls(sc)
    counts = count_calls(monkeypatch, expected)
    harness.run_scenario(sc, str(tmp_path / "out.csv"))
    assert counts == expected
