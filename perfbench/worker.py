"""One workload in one process: set up, warm up, run whole rounds, report.

Started by run.py with the environment it needs (the checkout's src on
PYTHONPATH, one BLAS thread).  Prints ``READY`` once set-up and the
untimed warm-up operation are done, then one JSON line with its counts
and metrics.  With ``--setup-only`` it stops after ``READY``.

Each round runs its operations back to back and keeps their outputs; the
outputs are checked after the round, outside the timed section.  With
``--trace 1`` traced and untraced rounds alternate, so the run also
measures its own tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads


def _cpu_now() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Runner:
    def __init__(self, ops, cli=None):
        self.ops = ops
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def round(self) -> dict:
        # every round starts from the same collector state, so the
        # collections that fall inside a round fall on the same calls
        gc.collect()
        outputs, lat = [], []
        first_span = len(self.tracer.spans) if self.tracer else 0
        first_file = len(self.cli.span_files) if self.cli else 0
        cpu0 = _cpu_now()
        t_start = time.perf_counter()
        for op in self.ops:
            if self.tracer:
                self.tracer.op = op.label
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a call that raises is a failed operation
                out = exc
            seconds = time.perf_counter() - t0
            lat.append((op.label, out.seconds if isinstance(out, workloads.CliResult)
                        else seconds))
            outputs.append(out)
        wall = time.perf_counter() - t_start
        cpu = _cpu_now() - cpu0
        stdout_bytes = 0
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            if isinstance(out, workloads.CliResult):
                stdout_bytes += len(out.stdout.encode())
            err = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                   else op.check(out))
            if err is not None:
                self.failed += 1
                if not op.known_fault:
                    self.errors.append(f"{op.label}: {err}")
        round_spans = []
        if self.tracer:
            round_spans = spans.shift(self.tracer.spans[first_span:], -first_span)
        if self.cli and self.cli.traced:
            for path in self.cli.span_files[first_file:]:
                with open(path, encoding="utf-8") as fh:
                    round_spans += spans.shift(json.load(fh)["spans"], len(round_spans))
        return {"wall": wall, "cpu": cpu, "lat": lat, "stdout_bytes": stdout_bytes,
                "spans": round_spans}

    def run_for(self, seconds: float) -> list:
        """Whole rounds until ``seconds`` have passed; at least one."""
        rounds = []
        t_end = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < t_end:
            rounds.append(self.round())
        return rounds


def p90(values) -> float:
    """90th percentile, interpolated between the samples (inclusive method)."""
    values = list(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def end_to_end(rounds, cli: bool) -> dict:
    """Round and operation times at their 90th percentile over the rounds.

    The machine this was tuned on runs at a common, slower speed with
    excursions of a few seconds to one up to 1.4x faster, under load it
    does not control.  A median over rounds moves with the share of fast
    excursions a run happens to see; the 90th percentile stays with the
    common speed, and over 8 seeds it spread less between runs than the
    median did (perfbench/README.md).  ``op_p50_s`` is the median, over
    the operations of a round, of each operation's 90th-percentile
    latency: operations differ in cost by orders of magnitude, and a
    median over all raw calls would sit on the edge between two kinds.
    Peak RSS is this process's, or its largest child's for the CLI.
    """
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    per_op = zip(*([s for _, s in r["lat"]] for r in rounds))
    return {"wall_s": p90(r["wall"] for r in rounds),
            "op_p50_s": statistics.median(p90(v) for v in per_op),
            "cpu_s": p90(r["cpu"] for r in rounds),
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0}


def startup_metrics(reps: int = 5) -> dict:
    """What every CLI call pays before it does any work."""
    py = sys.executable
    bare, imports, numpy_self, popa_self = [], [], [], []
    probe = ("import time; t = time.perf_counter(); import popa_algebra.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([py, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([py, "-c", probe], check=True, capture_output=True,
                              text=True, timeout=60)
        imports.append(float(proc.stdout))
        proc = subprocess.run([py, "-X", "importtime", "-c", "import popa_algebra.cli"],
                              check=True, capture_output=True, text=True, timeout=60)
        self_us = {"numpy": 0, "popa_algebra": 0}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "self [us]" not in line:
                own, _, name = line[len("import time:"):].split("|")
                top = name.strip().split(".")[0]
                if top in self_us:
                    self_us[top] += int(own)
        numpy_self.append(self_us["numpy"] / 1e6)
        popa_self.append(self_us["popa_algebra"] / 1e6)
    med = statistics.median
    return {"cli.python_s": med(bare), "cli.import_s": med(imports),
            "cli.import_numpy_s": med(numpy_self), "cli.import_popa_s": med(popa_self)}


def per_layer(untraced, traced, names) -> dict:
    """Median over traced rounds of each layer metric, and the overhead.

    A metric of a layer the workload never calls reads 0.  CLI latencies
    per verb come from the untraced rounds.  The overhead is the median
    over pairs of neighbouring rounds of the traced round's extra time.
    """
    layer = [spans.layer_metrics(r["spans"]) for r in traced]
    out = {}
    for name in names:
        vals = [m[name] for m in layer if name in m]
        out[name] = (max(vals) if name.endswith("peak_mib") else
                     statistics.median(vals)) if vals else 0.0
    by_verb = {}
    for r in untraced:
        for label, s in r["lat"]:
            by_verb.setdefault(f"cli.{label}_p50_s", []).append(s)
    for name, vals in by_verb.items():
        if name in out:
            out[name] = statistics.median(vals)
    if "cli.stdout_bytes" in out:
        out["cli.stdout_bytes"] = statistics.median(r["stdout_bytes"] for r in untraced)
    out["trace.overhead_pct"] = statistics.median(
        100.0 * (t["wall"] / u["wall"] - 1.0) for u, t in zip(untraced, traced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--per-layer", default="", help="comma-separated metric names")
    args = ap.parse_args(argv)

    import popa_algebra  # noqa: F401  (set-up includes importing the program)

    is_cli = args.workload == "cli-session"
    cli = workloads.CliRunner(dict(os.environ)) if is_cli else None
    build = workloads.WORKLOADS[args.workload]
    runner = Runner(build(args.seed, cli) if is_cli else build(args.seed), cli)
    runner.ops[0].run()  # the untimed warm-up operation
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace == 0:
        metrics = end_to_end(runner.run_for(args.seconds), is_cli)
    else:
        # traced and untraced rounds alternate, so that the overhead is
        # measured between neighbouring rounds, under the same machine state
        tracer = spans.Tracer()
        untraced, traced = [], []
        t_end = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < t_end:
            untraced.append(runner.round())
            if is_cli:
                cli.traced = True
            else:
                tracer.install()
                runner.tracer = tracer
            traced.append(runner.round())
            if is_cli:
                cli.traced = False
            else:
                tracer.uninstall()
                runner.tracer = None
        metrics = per_layer(untraced, traced, args.per_layer.split(","))
        metrics.update(startup_metrics())
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        with open(workloads.OUT / f"trace-{args.workload}-{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"rounds": [r["spans"] for r in traced]}, fh)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "errors": runner.errors[:20], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
