"""Benchmark worker: one fresh process that sets pncomp up and runs tasks.

It prints "ready" once pncomp.harness is imported, the workload config is
parsed and the constellation is built; bench/run.py times set-up up to that
line.  With --setup-only it exits there.  Otherwise it runs a closed loop
of tasks, one at a time, until --seconds have passed.  The first task is
the canary, task 0 of the reference default seed, so that every run checks
at least one CSV against its recorded digest whatever --seed is; the tasks
of --seed follow.  All tasks do equal work and all are timed, and the
host probe of machine.py is timed before the first task and after each.  With
--trace 1 every second task is traced.  The last line of its output is one
JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import workload as wl

PERCENTILES = (99, 95, 90, 75, 50)
# the host probe after a task gets one repetition per this many seconds of
# the task, so that probing takes about a tenth of every workload's run
# whatever its task length; shorter probes left the adjustment noisy
PROBE_EVERY_S = 0.5


def tail_percentile(walls: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(walls)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(walls, n=100, method="inclusive")
            return {"p": p, "value": q[p - 1]}
    return None


class Runner:
    def __init__(self, harness, name: str, reference: dict, tracer=None):
        self.harness = harness
        self.name = name
        self.reference = reference
        self.tracer = tracer
        self.out_dir = wl.ROOT / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.self_check: list[str] = []

    def attempt(self, seed: int, i: int, traced: bool = False) -> dict:
        """Run task i of a seed and check its CSV."""
        rec = {"seed": seed, "task": i, "traced": traced}
        if traced:
            self.tracer.task_id += 1
            self.tracer.install()
        cpu0 = time.process_time()
        try:
            wall, data, sc = wl.run_task(self.harness, self.name, seed, i,
                                         self.out_dir)
        except Exception:  # a raising task is a failed task, not a crash
            traceback.print_exc(file=sys.stderr)
            rec.update(ok=False, status="raised")
            return rec
        finally:
            if traced:
                self.tracer.uninstall()
        rec.update(wall_s=wall, cpu_s=time.process_time() - cpu0,
                   evaluations=wl.evaluations(sc), csv_bytes=len(data))
        digests = self.reference.get(self.name, {}).get(str(seed), [])
        got = wl.digest(data)
        if i < len(digests):
            rec["status"] = "match" if got == digests[i] else "mismatch"
        else:
            rec["status"] = "unchecked"
        problem = wl.check_csv(data, self.harness, sc)
        if problem:
            print(f"task {seed}/{i}: {problem}", file=sys.stderr)
        if rec["status"] == "mismatch":
            print(f"task {seed}/{i}: CSV sha256 {got} differs from the "
                  f"reference {digests[i]}", file=sys.stderr)
        rec["ok"] = problem is None and rec["status"] != "mismatch"
        if traced:
            counts = self.tracer.task_counts(self.tracer.task_id)
            for name, want in wl.expected_calls(sc).items():
                if counts[name] != want:
                    self.self_check.append(
                        f"task {i}: {name} traced {counts[name]} calls, "
                        f"scenario implies {want}")
        return rec


def end_to_end(tasks: list[dict], probe_ref_s: float) -> tuple[dict, dict]:
    """Timings are host-adjusted: each task's wall time is scaled by
    probe_ref_s over the host probe's time around that task.  The host
    drifts by +-15% over minutes, on both CPUs at once, so raw wall times
    of runs a few minutes apart spread past the regression bound, and
    longer runs do not help; the probe beside each task follows the drift.
    The raw wall-time figures are reported in the info block."""
    done = [t for t in tasks if "wall_s" in t]
    walls = [t["wall_s"] for t in done]
    adjusted = [t["wall_s"] * probe_ref_s / t["probe_s"] for t in done]
    evaluations = sum(t["evaluations"] for t in done)
    metrics = {
        "symbols_per_s": {"value": evaluations / sum(adjusted), "unit": "1/s"},
        "task_s_p50": {"value": statistics.median(adjusted), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    info = {"task_s_n": len(walls), "task_s_tail": tail_percentile(adjusted),
            "wall_symbols_per_s": evaluations / sum(walls),
            "wall_task_s_p50": statistics.median(walls),
            "probe_s_p50": statistics.median(t["probe_s"] for t in done),
            "cpu_over_wall": sum(t["cpu_s"] for t in done) / sum(walls)}
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    harness = wl.import_harness()
    sc = wl.scenario(harness, args.workload,
                     wl.task_seed(harness, args.seed, 0))
    sc.constellation
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # imported only now, so that set-up time covers pncomp alone
    import machine
    import tracing

    reference = wl.load_reference()
    default_seed = reference["default_seed"]
    info = {"machine": machine.machine_block(wl.ROOT),
            "steal_ticks_before": machine.steal_ticks(),
            "calibration_start_s": machine.calibration_s(),
            "reference": {"default_seed": default_seed,
                          "holdout_seed": reference["holdout_seed"]}}
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(harness, args.workload, reference["digests"], tracer)

    tasks: list[dict] = []
    probes = [machine.host_probe_s()]
    t0 = time.perf_counter()
    while len(tasks) < 2 or time.perf_counter() - t0 < args.seconds:
        traced = bool(args.trace) and len(tasks) % 2 == 1
        seed, i = (default_seed, 0) if not tasks else (args.seed, len(tasks) - 1)
        tasks.append(runner.attempt(seed, i, traced))
        reps = max(1, round(tasks[-1].get("wall_s", 0.0) / PROBE_EVERY_S))
        probes.append(machine.host_probe_s(reps))
    for task, before, after in zip(tasks, probes, probes[1:]):
        task["probe_s"] = (before + after) / 2
    if tasks[0].get("status") == "unchecked":
        # a reference without the canary's digest would check nothing
        print("no reference digest for the canary task", file=sys.stderr)
        tasks[0]["ok"] = False

    info["calibration_end_s"] = machine.calibration_s()
    info["steal_ticks_after"] = machine.steal_ticks()
    info["digests"] = {s: sum(t.get("status") == s for t in tasks)
                       for s in ("match", "mismatch", "unchecked", "raised")}
    info["tasks"] = tasks
    failed = sum(not t["ok"] for t in tasks)

    if args.trace:
        plain = [t for t in tasks if not t["traced"] and "wall_s" in t]
        traced = [t for t in tasks if t["traced"] and "wall_s" in t]
        metrics = tracer.layer_metrics(
            len(traced), sum(t["evaluations"] for t in traced))

        metrics["harness.write_csv.bytes"] = {
            "value": float(statistics.mean(t["csv_bytes"] for t in traced)),
            "unit": "bytes"}
        # tasks of one workload do equal work, so the ratio of median task
        # times is the ratio of symbols_per_s, with less weight on outliers
        metrics["trace_overhead_frac"] = {
            "value": 1.0 - statistics.median(t["wall_s"] for t in plain)
            / statistics.median(t["wall_s"] for t in traced), "unit": "frac"}
        info["self_check"] = runner.self_check or "pass"
        spans = runner.out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        info["spans_file"] = str(spans.relative_to(wl.ROOT))
    else:
        metrics, e2e_info = end_to_end(tasks, machine.PROBE_REF_S)
        info.update(e2e_info)

    print(json.dumps({"correct": failed == 0 and not runner.self_check,
                      "attempted": len(tasks), "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
