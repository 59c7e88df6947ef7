"""One fresh interpreter running one workload; prints one JSON line.

Run by run.py, never by hand:
  worker.py --workload W --seed S --setup-only
      import qforms, build the seeded inputs, print the monotonic clock
      and the python calibration kernel's times just after.
  worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR
      run whole passes over the operation list for about T seconds (at
      least two), check every result outside the timed region, and print
      the samples.
      With --trace 1, the first half of the time (at least two passes) runs
      untraced, then one pass with the tracer installed, and the CLI
      start-up split is probed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the checkout's own qforms

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from refs import Verdict, fingerprint  # noqa: E402
from run import WORKLOADS, child_env  # noqa: E402

PROBE_CMD = ["count", "cubic", "--n", "1..20"]
OUTPUT_COUNTS = {"series": "series.coeffs_out", "repcount": "repcount.counts_out",
                 "circle": "circle.points_out"}


class Runner:
    """Runs passes over the operation list and keeps what run.py reports.

    Untraced passes time each operation between runs of its calibration
    kernel (see calib.py).  Caches are cleared at the start of
    a pass, so every pass does the same work.
    """

    def __init__(self, ops, span_dir=None):
        self.ops = ops
        self.memo = [None] * len(ops)
        self.span_dir = span_dir
        self.samples_ns = [[] for _ in ops]
        self.scaled_ns = [[] for _ in ops]  # samples at the kernel's reference speed
        self.walls = []
        self.traced_walls = []
        self.verify_s = 0.0
        self.attempted = 0
        self.failures = []
        self.layer_counts = Counter()
        self.cli_runs = []

    def verify(self, i, result, error):
        if error is not None:
            return Verdict(False, 0, None, f"{type(error).__name__}: {error}")
        fp = fingerprint(result)
        if fp is not None and self.memo[i] is not None and self.memo[i][0] == fp:
            return self.memo[i][1]
        try:
            verdict = self.ops[i].check(result)
        except Exception as exc:  # a malformed result is a failed operation
            verdict = Verdict(False, 0, None, f"check raised {type(exc).__name__}: {exc}")
        if fp is not None:
            self.memo[i] = (fp, verdict)
        return verdict

    def one_pass(self, trc=None):
        workloads.reset_caches()
        ctx = workloads.Ctx(traced=trc is not None, span_dir=self.span_dir)
        wall = 0
        clock = time.perf_counter_ns
        for i, op in enumerate(self.ops):
            error = None
            before = calib.kernel_ns(op.kernel) if trc is None else None
            t0 = clock()
            try:
                result = op.run(ctx)
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            dt = clock() - t0
            if trc is None:
                self.samples_ns[i].append(dt)
                self.scaled_ns[i].append(dt * calib.factor(op.kernel, before, calib.kernel_ns(op.kernel)))
            wall += dt
            if trc is not None:
                trc.on = False
            v0 = time.perf_counter()
            verdict = self.verify(i, result, error)
            self.verify_s += time.perf_counter() - v0
            if trc is not None:
                trc.on = True
                if op.layer in OUTPUT_COUNTS:
                    self.layer_counts[OUTPUT_COUNTS[op.layer]] += verdict.outputs
                self.layer_counts[f"{op.layer}.fail"] += not verdict.ok
            ctx.results[op.name] = result
            self.attempted += 1
            if not verdict.ok:
                self.failures.append({"op": op.name, "params": op.params, "defect": verdict.defect,
                                      "detail": verdict.detail})
        (self.traced_walls if trc is not None else self.walls).append(wall / 1e9)
        if trc is not None:
            self.cli_runs += ctx.cli_runs

    def passes(self, budget_s):
        """Untraced passes, two at least, then more while another (timing and
        checks) would still end within budget_s of the start."""
        start = time.monotonic()
        done = 0
        while True:
            self.one_pass()
            done += 1
            elapsed = time.monotonic() - start
            if done >= 2 and elapsed * (done + 1) / done > budget_s:
                return


def parse_importtime(text):
    """Cumulative import seconds of the qforms, scipy and numpy packages,
    taken from -X importtime lines (children print before their parent)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        level = (len(raw) - len(raw.lstrip())) // 2
        entries.append((level, raw.strip(), int(parts[1])))
    totals = dict.fromkeys(("qforms", "scipy", "numpy"), 0)
    stack = []  # enclosing imports, walking backwards
    for level, name, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1].split(".")[0] if stack else None
        top = name.split(".")[0]
        if top in totals and parent != top:
            totals[top] += cum / 1e6
        stack.append((level, name))
    return totals


def startup_probe(env, n=3):
    """`python -c pass` and `python -X importtime -m qforms.cli ...` runs."""
    interp = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append(time.perf_counter() - t0)
    runs = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qforms.cli", *PROBE_CMD],
                              capture_output=True, env=env, cwd=HERE.parent)
        runs.append(workloads.CliRun(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0))
    return statistics.median(interp), runs


def cli_metrics(interp_s, runs, fails):
    imports = [parse_importtime(r.err.decode(errors="replace")) for r in runs]
    return {
        "cli.calls": len(runs),
        "cli.interp_s": interp_s,
        "cli.import_s": statistics.median(i["qforms"] for i in imports),
        "cli.scipy_import_s": statistics.median(i["scipy"] for i in imports),
        "cli.numpy_import_s": statistics.median(i["numpy"] for i in imports),
        "cli.run_s": statistics.median(r.wall_s - interp_s - i["qforms"] for r, i in zip(runs, imports)),
        "cli.bytes_out": sum(len(r.out) for r in runs),
        "cli.fail": fails,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    ready_ns = time.monotonic_ns()
    out = {"ready_ns": ready_ns, "setup_kernel_ns": calib.kernel_ns("python")}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["ops_per_pass"] = len(ops)
    span_dir = args.out / f"spans-{args.workload}-{args.seed}" if args.trace else None
    runner = Runner(ops, span_dir)
    if not args.trace:
        runner.passes(args.seconds)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    else:
        span_dir.mkdir(parents=True, exist_ok=True)
        interp_s, probe_runs = startup_probe(child_env())
        runner.passes(args.seconds / 2)
        trc = tracer.Tracer()
        uninstall = tracer.install(trc)
        try:
            runner.one_pass(trc)
        finally:
            uninstall()
        spans = list(trc.spans)
        for path in sorted(span_dir.glob("cli-*.csv"), key=lambda p: int(p.stem[4:])):
            child = tracer.read_spans(path)
            base = len(spans)
            spans += [(n, s, e, p + base if p >= 0 else -1) for n, s, e, p in child]
            path.unlink()
        tracer.write_spans(span_dir / "spans.csv", spans)
        layer = tracer.summarize(spans)
        layer.update(runner.layer_counts)
        if args.workload == "cli_batch":
            cli = cli_metrics(interp_s, runner.cli_runs, layer.get("cli.fail", 0))
        else:
            cli = cli_metrics(interp_s, probe_runs, sum(r.code != 0 for r in probe_runs))
        layer.update(cli)
        layer["trace.overhead_ratio"] = statistics.median(runner.traced_walls) / statistics.median(runner.walls)
        out["layer"] = layer
        out["traced_walls"] = runner.traced_walls
    out.update(walls=runner.walls, samples_ns=runner.samples_ns, scaled_ns=runner.scaled_ns,
               attempted=runner.attempted, failures=runner.failures, verify_s=runner.verify_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
