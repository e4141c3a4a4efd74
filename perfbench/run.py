"""trionsim benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

    for w in heralded_sweep cw_pump_sweep lifetime_files; do
        python3 perfbench/run.py --workload "$w"; done

Run from the root of a checkout; trionsim is imported from its src/.
Each pass of a workload is a fresh process (child.py) that imports the
package, builds the workload, runs it once and checks the outputs; this
runner starts passes one after another (a single closed-loop client)
until --seconds is used up, at least MIN_PASSES times, and reports the
median over passes.  setup_s is the median of the passes' set-ups.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s, setup_s and
peak_rss_mb.  --trace 1 repeats a triple of passes instead: untraced and
traced at the workload's own worker count, then traced at the other
count (1 <-> 2), and reports the per-layer metrics of tracer.LAYERS.

An operation is one pass.  It fails on an exception, a non-zero exit
code, a failed correctness check, or output files whose sha256 differ
from the first pass of the run (same code, same seed; in a traced run
this includes the pass at the other worker count).  Failed passes print
their reasons on stderr.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, layer_metrics, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
MIN_PASSES = 3
# a run must end within 180 s of its start, the slowest pass included
DEADLINE_S = 165.0
# BLAS and OpenMP stay single-threaded so that a run keeps at most two
# processes busy: the pool's workers, or the main process
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "seed": seed, "blas_threads": 1}


def cpu_ticks():
    """(steal, total) ticks of the machine's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


class Runner:
    def __init__(self, workload, seed, seconds, workdir, t_start):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workers = WORKLOADS[workload][1]
        self.workdir = workdir
        self.passes = []
        self.n_children = 0
        self.reference = None
        self.t_start = t_start
        self.env = dict(os.environ, **PINNED_THREADS)
        self.env.pop("TRIONSIM_WORKERS", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def child(self, workers, trace) -> tuple:
        """Run child.py once; returns (result or None, error text)."""
        self.n_children += 1
        pass_dir = self.workdir / f"pass{self.n_children}"
        result_path = self.workdir / f"pass{self.n_children}.json"
        cmd = [sys.executable, str(HERE / "child.py"), self.workload,
               str(self.seed), str(workers), str(pass_dir),
               "trace" if trace else "run", str(result_path)]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=self.env,
                                start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            err = b"pass killed at the run deadline"
        res = None
        if proc.returncode == 0 and result_path.is_file():
            res = json.loads(result_path.read_text())
        shutil.rmtree(pass_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        return res, (f"child exited {proc.returncode}: "
                     f"{err.decode(errors='replace')[-2000:]}")

    def run_pass(self, workers, trace) -> dict:
        res, err = self.child(workers, trace)
        if res is None:
            res = {"failures": [err], "spans": []}
        elif self.reference is None:
            self.reference = res["digests"]
        elif res["digests"] != self.reference:
            digests = res["digests"]
            files = sorted(f for f in set(self.reference) | set(digests)
                           if self.reference.get(f) != digests.get(f))
            res["failures"].append(
                f"output digests differ from the first pass at "
                f"workers={workers}, same seed: {', '.join(files)}")
        self.passes.append(res)
        return res

    def keep_going(self, n_passes, per_batch) -> bool:
        """Start another batch only if it should end within --seconds."""
        if self.elapsed() + per_batch > DEADLINE_S - 10.0:
            return False
        return n_passes < MIN_PASSES or \
            self.elapsed() + per_batch <= self.seconds

    def measure(self) -> dict:
        t_passes = time.monotonic()
        while True:
            self.run_pass(self.workers, trace=False)
            per_pass = (time.monotonic() - t_passes) / len(self.passes)
            if not self.keep_going(len(self.passes), per_pass):
                break
        done = [p for p in self.passes if "wall_s" in p]
        return {name: statistics.median(p[name] for p in done) if done
                else 0.0 for name in END_TO_END}

    def measure_traced(self) -> dict:
        other = 1 if self.workers == 2 else 2
        per_triple = []
        while True:
            untraced = self.run_pass(self.workers, trace=False)
            traced = self.run_pass(self.workers, trace=True)
            traced_other = self.run_pass(other, trace=True)
            if not any(p["failures"]
                       for p in (untraced, traced, traced_other)):
                by_workers = {self.workers: traced["spans"],
                              other: traced_other["spans"]}
                per_triple.append(layer_metrics(
                    traced["spans"], by_workers[1], by_workers[2],
                    untraced["wall_s"], traced["wall_s"]))
            n = len(self.passes)
            if not self.keep_going(n, 3 * self.elapsed() / n):
                break
        self.last_spans = traced["spans"]
        if not per_triple:
            return {name: 0.0 for name in LAYERS}
        return median_metrics(per_triple)

    def failed(self) -> int:
        return sum(bool(p["failures"]) for p in self.passes)


def run_workload(name, seed, seconds, trace, workdir, t_start) -> tuple:
    runner = Runner(name, seed, seconds, workdir / f"{name}-{os.getpid()}",
                    t_start)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        values = runner.measure_traced() if trace else runner.measure()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    if trace:
        (workdir / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(runner.last_spans))
    units = {n: LAYERS[n][0] for n in LAYERS} if trace else END_TO_END
    n, failed = len(runner.passes), runner.failed()
    for i, p in enumerate(runner.passes):
        for reason in p["failures"]:
            print(f"{name} pass {i} FAILED: {reason}", file=sys.stderr)
    for metric, value in values.items():
        if not trace:
            vals = [p[metric] for p in runner.passes if metric in p] or [0]
            spread = (f"  (median of {len(vals)} samples, "
                      f"{min(vals):.4g}..{max(vals):.4g})")
        else:
            spread = f"  [moves {LAYERS[metric][2]}]"
        print(f"{name:15s} {metric:32s} {value:14.6g} {units[metric]}{spread}")
    print(f"{name:15s} {'ops_failed_frac':32s} {failed / n:14.6g} frac"
          f"  ({failed} of {n} passes failed)")
    recorded = runner.passes[0].get("recorded", {})
    if recorded:
        print(f"{name:15s} recorded: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in recorded.items()))
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    return metrics, n, failed


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trionsim" / "__init__.py").is_file():
        print(f"no trionsim sources under {ROOT / 'src'}; run from the "
              f"root of a trionsim checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print("env: " + json.dumps(environment(args.seed)))
    ticks0 = cpu_ticks()
    workdir = ROOT / ".perfbench_work"
    metrics, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, args.trace, workdir, t_start)
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # time the hypervisor gave to other guests: it inflates wall_s
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(f"host: cpu steal {100 * steal:.1f}% during the run")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
