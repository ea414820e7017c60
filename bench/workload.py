"""Benchmark workloads: one-channel pncomp scenarios run as tasks.

A task is one `run_scenario` call, CSV write included, on the workload's
config with master seed child_seed(workload_seed, "task", i).  Every
scenario's outer loop is independent per channel, so one-channel tasks do
the work of one multi-channel sweep while giving a latency sample each.

This module also derives, from the parsed Scenario, what a task must
produce: scored symbol evaluations, CSV rows and the number of calls into
the traced layers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep_d", "track_offset", "mimo_tls")


def import_harness():
    """Import pncomp.harness from this checkout's src/, never from elsewhere."""
    if not (SRC / "pncomp" / "harness.py").is_file():
        raise SystemExit(f"pncomp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from pncomp import harness
    if Path(harness.__file__).resolve().parent != (SRC / "pncomp").resolve():
        raise SystemExit(f"imported pncomp from {harness.__file__}, not {SRC}")
    return harness


def scenario(harness, workload: str, master_seed: int):
    return harness.parse_config(str(CONFIG_DIR / f"{workload}.cfg"),
                                {"master_seed": master_seed})


def task_seed(harness, workload_seed: int, i: int) -> int:
    return harness.child_seed(workload_seed, "task", i)


def evaluations(sc) -> int:
    """Scored symbol evaluations: EVM/SER scorings of one symbol at one
    basis point, track mode or user."""
    ch = sc.n_channels_eff
    if sc.name == "evm_vs_d":
        return ch * sc.n_symbols * len(sc.basis_kinds) * len(sc.d_list)
    if sc.name == "tracking":
        return ch * sc.n_symbols * len(sc.track_modes)
    if sc.name == "mimo_sweep":
        return (ch * sc.n_symbols * sc.n_users * len(sc.sigma_list)
                * len(sc.tx_sigma_list))
    raise ValueError(f"no evaluation count for scenario {sc.name!r}")


def csv_rows(sc) -> int:
    if sc.name == "evm_vs_d":
        return len(sc.basis_kinds) * len(sc.d_list)
    if sc.name == "tracking":
        per_mode = sc.n_symbols + 1 if sc.per_symbol_rows else 1
        return len(sc.track_modes) * per_mode
    if sc.name == "mimo_sweep":
        return len(sc.sigma_list) * len(sc.tx_sigma_list)
    raise ValueError(f"no row count for scenario {sc.name!r}")


def expected_calls(sc) -> dict[str, int]:
    """Calls one task must make into the traced layers."""
    ch, n_sym = sc.n_channels_eff, sc.n_symbols
    n_eval = evaluations(sc)
    calls = {"harness.run_scenario": 1, "harness.write_csv": 1,
             "ofdm.symbol_error_rate": n_eval}
    if sc.name == "evm_vs_d":
        n_zero = sum(1 for d in sc.d_list if d == 0)
        per_d = ch * n_sym * len(sc.basis_kinds)
        calls["compensator.compensate"] = per_d * (len(sc.d_list) - n_zero)
        calls["compensator.equalize_only"] = per_d * n_zero
        calls["ofdm.hard_decide"] = n_eval
    elif sc.name == "tracking":
        n_tracked = sum(1 for m in sc.track_modes if m in ("tracked", "frozen"))
        dd = ch * max(n_sym - sc.training_symbols, 0) * n_tracked
        calls["compensator.compensate"] = ch * n_sym * len(sc.track_modes)
        calls["ofdm.hard_decide"] = n_eval + dd
        calls["tracker.past_update"] = ch * n_sym * n_tracked
    elif sc.name == "mimo_sweep":
        points = ch * n_sym * len(sc.sigma_list) * len(sc.tx_sigma_list)
        calls["mimo.mu_compensate"] = points
        if sc.method == "TLS":
            calls["compensator.solve_tls"] = points
    return calls


def check_csv(data: bytes, harness, sc) -> str | None:
    """Structural check of a task's CSV; returns a problem or None."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != harness.CSV_COLUMNS:
        return "CSV header differs from harness.CSV_COLUMNS"
    if len(rows) - 1 != csv_rows(sc):
        return f"CSV has {len(rows) - 1} rows, expected {csv_rows(sc)}"
    col = {name: j for j, name in enumerate(harness.CSV_COLUMNS)}
    for row in rows[1:]:
        evm, ser = float(row[col["evm_db"]]), float(row[col["ser"]])
        if not math.isfinite(evm) or not 0.0 <= ser <= 1.0:
            return f"CSV row out of range: evm_db={evm} ser={ser}"
    return None


def load_reference() -> dict:
    """Reference CSV sha256 digests, {"default_seed", "holdout_seed",
    "digests": {workload: {seed: [digest of task 0, 1, ...]}}}."""
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_task(harness, workload: str, workload_seed: int, i: int,
             out_dir: Path) -> tuple[float, bytes, object]:
    """Run task i; returns (wall seconds, CSV bytes, scenario)."""
    sc = scenario(harness, workload, task_seed(harness, workload_seed, i))
    out = out_dir / f"{workload}-{os.getpid()}.csv"
    t0 = time.perf_counter()
    harness.run_scenario(sc, str(out))
    wall = time.perf_counter() - t0
    data = out.read_bytes()
    out.unlink()
    return wall, data, sc


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
