"""pncomp benchmark: one closed-loop client driving sweep tasks.

    python3 bench/run.py --workload {sweep_d,track_offset,mimo_tls}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds src/pncomp.  Every task is
one run_scenario call (CSV write included) on a one-channel scenario of the
workload's shape, run one after another by a single fresh worker process
with BLAS pinned to one thread.  --trace 0 prints the end-to-end metrics;
--trace 1 prints per-layer metrics from a run in which every second task is
traced.  The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every task's
CSV passed its checks; 2 means the checkout has no pncomp sources.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import workload as wl

# setup_s is the median over fresh processes timed to their "ready" line:
# this many setup-only processes before the worker and as many after it
# (spreading them over the run damps host drift), plus the worker itself
SETUP_EACH_SIDE = 2
# time allowed beyond --seconds before the worker is killed: the set-up
# processes, the calibration kernel at both ends and the one task that may
# still be running when --seconds are up
DEADLINE_SLACK_S = 120.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start bench/worker.py; returns (seconds to its "ready" line, the
    rest of its standard output).  The worker is always waited for."""
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(wl.BENCH_DIR / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=wl.ROOT, env=env)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(deadline - time.perf_counter(), 0)):
                raise WorkerError("worker did not become ready in time")
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker did not become ready: {line!r}")
        rest, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 0))
    except (WorkerError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (wl.SRC / "pncomp" / "harness.py").is_file():
        print(f"error: no pncomp sources under {wl.SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds + DEADLINE_SLACK_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    n_setup = 0 if args.trace else SETUP_EACH_SIDE

    def setup_only() -> list[float]:
        return [run_worker(common + ["--seconds", "0", "--setup-only"],
                           deadline)[0] for _ in range(n_setup)]
    try:
        setup = setup_only()
        ready_s, out = run_worker(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace)], deadline)
        setup += [ready_s] + setup_only()
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])
    info = report["info"]
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
        info["failed_frac"] = report["failed"] / report["attempted"]

    out_dir = wl.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    d = info["digests"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(info['tasks'])} tasks, canary {info['tasks'][0]['status']}; "
          f"digests match {d['match']}, mismatch {d['mismatch']}, "
          f"unchecked {d['unchecked']}, raised {d['raised']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  failed_frac = {info['failed_frac']:.6g} frac "
              f"({report['failed']} of {report['attempted']} tasks)")
        print(f"  wall time, not host-adjusted: symbols_per_s = "
              f"{info['wall_symbols_per_s']:.6g} 1/s, task_s_p50 = "
              f"{info['wall_task_s_p50']:.6g} s; host probe p50 = "
              f"{info['probe_s_p50']:.6g} s")
        tail = info["task_s_tail"]
        print(f"  task_s samples = {info['task_s_n']}; " + (
            f"task_s_p{tail['p']} = {tail['value']:.6g} s" if tail else
            "no percentile above p50 has 10 samples beyond it"))
    else:
        print(f"  trace self-check: {info['self_check']}")
    print(f"  calibration {info['calibration_start_s']:.6g} s -> "
          f"{info['calibration_end_s']:.6g} s; steal ticks "
          f"{info['steal_ticks_before']} -> {info['steal_ticks_after']}")
    print("machine " + json.dumps(info["machine"]))
    print(f"full report: {path.relative_to(wl.ROOT)}")
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
