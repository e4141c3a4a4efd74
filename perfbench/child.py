"""One measured pass of one workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED WORKERS WORKDIR MODE RESULT

Imports trionsim from the checkout's src/ and builds the workload
(setup_s), then runs it once (wall_s, and cpu_s of this process plus its
reaped pool workers), with the tracer installed if MODE is "trace"
rather than "run".  Then it checks the outputs and hashes every file
the pass wrote.  The result, spans included, is
written as JSON to RESULT when the pass ends.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN gives the largest
    # reaped child, i.e. the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _digests(workdir: Path) -> dict:
    return {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(workdir.rglob("*")) if p.is_file()}


def main(argv) -> int:
    name, seed, workers, workdir, mode, result_path = argv
    seed, workers = int(seed), int(workers)
    workdir = Path(workdir)
    workdir.mkdir(parents=True)
    out = {"failures": [], "recorded": {}, "spans": []}

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import trionsim  # noqa: F401  (timed: part of set-up)
    from workloads import WORKLOADS
    setup, _ = WORKLOADS[name]
    workload = setup(workdir, seed, workers)
    out["setup_s"] = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        workload.run()
    except Exception:
        out["failures"].append(traceback.format_exc())
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        # the checks below may call traced functions; keep them out
        out["spans"] = list(tracer.spans)

    if not out["failures"]:
        try:
            out["failures"], out["recorded"] = workload.check()
        except Exception:
            out["failures"].append(traceback.format_exc())
    out["digests"] = _digests(workdir)
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
