"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For every workload, runs bench/run.py on two tasks (the canary and task 0)
with tracing off and on, and checks that every metric BENCHMARK.json names is
printed by name with its unit, both on its own line and in the final JSON
object, and that the traced run's call-count self-check passed.  It then
checks, in scratch checkouts under .bench_out/, that a deliberately wrong
reference digest is counted as a failed task, that a reference without
the canary's digest fails the run, and that the benchmark refuses to run,
without printing a result, from a directory holding only BENCHMARK.json
and bench/.  It takes about 100 seconds on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import workload as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SCRATCH = wl.ROOT / ".bench_out" / "smoke"


def run(workload: str, seed: int, trace: int, *extra: str, root=wl.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=root, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def checkout(root, with_src: bool):
    """A scratch checkout holding BENCHMARK.json, bench/ and, if asked, a
    copy of src/."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(wl.BENCH_DIR, root / "bench", ignore=skip)
    shutil.copy(wl.ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(wl.SRC, root / "src", ignore=skip)
    return root


def check_metrics(lines: list[str], specs: list[dict], where: str) -> None:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if set(result["metrics"]) != {s["name"] for s in specs}:
        raise AssertionError(f"{where}: metrics {sorted(result['metrics'])}")
    for spec in specs:
        got = result["metrics"][spec["name"]]
        if got["unit"] != spec["unit"]:
            raise AssertionError(f"{where}: {spec['name']} unit {got['unit']}")
        line = re.compile(rf"^\s+{re.escape(spec['name'])} = \S+ "
                          rf"{re.escape(spec['unit'])}$")
        if not any(line.match(text) for text in lines[:-1]):
            raise AssertionError(f"{where}: no line for {spec['name']}")


def main() -> int:
    ref = wl.load_reference()
    default_seed, holdout_seed = ref["default_seed"], ref["holdout_seed"]
    for name in wl.WORKLOADS:
        proc, lines = run(name, holdout_seed, 0)
        if proc.returncode != 0:
            raise AssertionError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        check_metrics(lines, SPEC["end_to_end"], f"{name} trace 0")
        if not any(re.match(r"^\s+failed_frac = 0 frac", t) for t in lines):
            raise AssertionError(f"{name}: failed_frac line missing or not 0")
        proc, lines = run(name, holdout_seed, 1)
        if proc.returncode != 0:
            raise AssertionError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        check_metrics(lines, SPEC["per_layer"], f"{name} trace 1")
        if "  trace self-check: pass" not in lines:
            raise AssertionError(f"{name}: trace self-check did not pass")
        print(f"{name}: metrics printed with units; self-check passed")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    ref["digests"]["mimo_tls"][str(holdout_seed)][0] = "0" * 64
    tampered = checkout(SCRATCH / "tampered", with_src=True)
    (tampered / "bench" / "reference.json").write_text(json.dumps(ref))
    proc, lines = run("mimo_tls", holdout_seed, 0, root=tampered)
    result = json.loads(lines[-1])
    # the canary (default seed) matches; task 0 of the holdout seed must not
    if (proc.returncode == 0 or result["correct"] or result["failed"] != 1
            or not any(re.match(r"^\s+failed_frac = 0\.5 frac", t)
                       for t in lines)):
        raise AssertionError(f"wrong digest not counted as a failure:\n"
                             + "\n".join(lines))
    print("wrong reference digest counted in failed_frac")

    ref["digests"] = {}
    (tampered / "bench" / "reference.json").write_text(json.dumps(ref))
    proc, lines = run("mimo_tls", holdout_seed, 0, root=tampered)
    if proc.returncode == 0 or json.loads(lines[-1])["correct"]:
        raise AssertionError("run passed with no digest for the canary")
    print("reference without the canary's digest fails the run")

    proc, lines = run("mimo_tls", default_seed, 0,
                      root=checkout(SCRATCH / "bare", with_src=False))
    shutil.rmtree(SCRATCH)
    if proc.returncode == 0 or any(t.startswith("{") for t in lines):
        raise AssertionError("benchmark ran without pncomp sources")
    print("benchmark refuses a checkout without pncomp sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
