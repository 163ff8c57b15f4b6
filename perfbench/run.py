"""popa-algebra benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-batch --seed 1 --seconds 20 --trace 0

Runs the workload in its own process (worker.py) against the checkout's
``src/``, with one BLAS thread.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  ``setup_s`` is the median over several fresh processes of the
time from spawning the worker to its first timed operation.  The last
line of stdout is the result; it is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh processes that only set up, besides the one that runs the rounds
SETUP_PROBES = 4

#: no run may take longer than this, set-up probes included
DEADLINE_S = 170.0


def _spawn(cmd, env, deadline: float):
    """Start the worker, return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    return proc, watchdog, ready if line.strip() == "READY" else None


def _finish(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "popa_algebra" / "__init__.py").is_file():
        print(f"perfbench: no popa_algebra sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--per-layer", ",".join(units)]
    deadline = time.perf_counter() + DEADLINE_S

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, watchdog, ready = _spawn(cmd + ["--setup-only"], env, deadline)
        _finish(proc, watchdog)
        if ready is None or proc.returncode != 0:
            print("perfbench: set-up probe failed", file=sys.stderr)
            return 1
        setups.append(ready)
    proc, watchdog, ready = _spawn(cmd, env, deadline)
    out = _finish(proc, watchdog)
    if ready is None or proc.returncode != 0 or not out.strip():
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [ready])
    for err in report["errors"]:
        print(f"perfbench: wrong output: {err}", file=sys.stderr)

    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {"correct": not report["errors"], "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
