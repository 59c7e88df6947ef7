"""qforms benchmark: one seeded workload per run, checked, with its metrics.

    python3 perfbench/run.py --workload series_tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports qforms from
./src.  Workloads (one process at a time, one thread; CLI calls are one
child process at a time in a closed loop):

  series_tables  exact series kernels and count transforms, a size sweep
  closed_ranges  divisor-sum closed forms over range queries near n = 2e4
  cli_batch      sequential `python -m qforms.cli` processes, golden-checked
  numeric_scan   circle scans, Bessel/Hardy series and elliptic identities

cli_batch is left out of BENCHMARK.json: on a shared 2-vCPU machine its
process start-up times swing by a quarter between runs of the same code.
The CLI start-up split is still measured in every traced run.

With --trace 0 the metrics are the end-to-end ones (wall_ref_s,
op_tail_ref_ms, peak_rss_mb, setup_s); with --trace 1 they are the
per-layer self times and counts from a traced run, with op_p50_ref_ms and
fail_ratio.  Both are also printed on every run: neither can be an
end-to-end metric with a bound, fail_ratio because it is 0 on two
workloads and op_p50_ref_ms because the median falls where the operation
costs of a mix climb steeply.

The `_ref` times are operation times rescaled by a calibration kernel
timed beside each operation (calib.py): each operation's cost is the
median over passes of its time at the kernel's reference speed.  The
passes run in WORKERS fresh processes one after another, because an
allocation-heavy operation keeps one speed for a process's whole life.
setup_s is rescaled the same way, by the python kernel timed just before
the worker is spawned and just after its set-up; it is the median over
SETUP_PROBES set-up-only processes and the measuring ones.  On a shared
machine the raw times of the same code swing by a third between runs,
the rescaled ones by a few percent.  The raw wall_s (sum of the
operations' median times) and setup_raw_s are printed beside them and
kept in the result file.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines above it give the
same numbers for people, with provenance and every failing operation.  A
full result file is written to .perfbench/ in the checkout.

`failed` counts operations that failed other than by one of the two
recorded defects (int64 wraparound at high rank, the float-step scan);
those are still run, checked, counted in fail_ratio and listed by name.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("series_tables", "closed_ranges", "cli_batch", "numeric_scan")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3     # fresh interpreters timed for setup_s, besides the measuring ones
WORKERS = 4          # measuring processes per untraced run, one after another
TAIL_BEYOND = 10     # samples the tail percentile must leave above it
WORKER_TIMEOUT_S = 150  # the traced worker's

PER_LAYER = {
    "arith.calls": "count", "arith.self_s": "s", "arith.divisors.calls": "count",
    "arith.divisors.self_s": "s", "arith.divisor_sum.self_s": "s", "arith.class_number.self_s": "s",
    "arith.f_kh.self_s": "s",
    "series.calls": "count", "series.self_s": "s", "series.mul.self_s": "s", "series.sqrt.self_s": "s",
    "series.inverse.self_s": "s", "series.log.self_s": "s", "series.exp_neg.self_s": "s",
    "series.sqrt_coeff_fdb.self_s": "s", "series.coeffs_out": "count",
    "theta.calls": "count", "theta.self_s": "s", "theta.product.self_s": "s",
    "repcount.calls": "count", "repcount.self_s": "s", "repcount.transform.self_s": "s",
    "repcount.series_route.self_s": "s", "repcount.closed.self_s": "s", "repcount.r3.self_s": "s",
    "repcount.counts_out": "count", "repcount.fail": "count",
    "circle.calls": "count", "circle.self_s": "s", "circle.scan.self_s": "s",
    "circle.bessel_j1.self_s": "s", "circle.points_out": "count", "circle.fail": "count",
    "elliptic.calls": "count", "elliptic.self_s": "s",
    "cli.calls": "count", "cli.interp_s": "s", "cli.import_s": "s", "cli.scipy_import_s": "s",
    "cli.numpy_import_s": "s", "cli.run_s": "s", "cli.bytes_out": "B", "cli.fail": "count",
    "bench.verify_s": "s", "trace.overhead_ratio": "ratio", "fail_ratio": "ratio", "op_p50_ref_ms": "ms",
}


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_ENV})
    return env


def spawn_worker(args, timeout):
    """Run worker.py; returns (set-up seconds raw, the same at the python
    kernel's reference speed, parsed last stdout line).  The kernel runs
    here just before the spawn and in the worker just after its set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    before = calib.kernel_ns("python")
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = (res["ready_ns"] - t0) / 1e9
    return raw, raw * calib.factor("python", before, res["setup_kernel_ns"]), res


def merge(runs):
    """One worker result from several: samples pooled per operation.

    Operations that allocate large arrays run faster or slower by up to a
    sixth for the whole life of a process, as its memory happens to be laid
    out; pooling several processes' samples takes the median across them."""
    res = {"ops_per_pass": runs[0]["ops_per_pass"],
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    for key in ("samples_ns", "scaled_ns"):
        res[key] = [sum(per_op, []) for per_op in zip(*(r[key] for r in runs))]
    for key in ("walls", "failures"):
        res[key] = sum((r[key] for r in runs), [])
    for key in ("attempted", "verify_s"):
        res[key] = sum(r[key] for r in runs)
    return res


def percentile(values, p):
    """Linear-interpolated p-th percentile of the values."""
    s = sorted(values)
    rank = p / 100 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def provenance(args, tail_p):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_sha": sha,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "thread_env": {var: child_env()[var] for var in THREAD_ENV},
        "tail_percentile": tail_p,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qforms" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qforms source under {ROOT / 'src'}")
    if not 1 <= args.seconds <= 60:
        raise SystemExit("perfbench: --seconds must be between 1 and 60")
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []  # (raw, at reference speed) per worker process
    for _ in range(SETUP_PROBES):
        *setup, _ = spawn_worker([*common, "--setup-only"], 60)
        setups.append(setup)
    if args.trace:
        *setup, res = spawn_worker([*common, "--seconds", str(args.seconds), "--trace", "1", "--out", str(OUT)],
                                   WORKER_TIMEOUT_S)
        setups.append(setup)
    else:
        runs = []
        for _ in range(WORKERS):
            *setup, one = spawn_worker([*common, "--seconds", str(args.seconds / WORKERS), "--trace", "0"],
                                       args.seconds / WORKERS + 20)
            setups.append(setup)
            runs.append(one)
        res = merge(runs)

    # Each operation's latency is the median of its untraced samples at the
    # calibration kernel's reference speed, pooled over the worker processes.
    per_pass = res["ops_per_pass"]
    samples = res["samples_ns"]
    cost_ms = [statistics.median(s) / 1e6 for s in res["scaled_ns"]]
    raw_wall_s = sum(statistics.median(s) for s in samples) / 1e9
    tail_p = round(100 * (1 - TAIL_BEYOND / per_pass), 2)
    failures = res["failures"]
    fail_ratio = len(failures) / res["attempted"]
    unexpected = [f for f in failures if f["defect"] is None]

    if args.trace:
        layer = res["layer"]
        values = {name: layer.get(name, 0) for name in PER_LAYER}
        values["bench.verify_s"] = res["verify_s"]
        values["fail_ratio"] = fail_ratio
        values["op_p50_ref_ms"] = statistics.median(cost_ms)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "wall_ref_s": {"value": sum(cost_ms) / 1e3, "unit": "s"},
            "op_tail_ref_ms": {"value": percentile(cost_ms, tail_p), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
        }

    prov = provenance(args, tail_p)
    record = {"provenance": prov, "metrics": metrics, "fail_ratio": fail_ratio, "failures": failures,
              "passes_s": res["walls"], "traced_passes_s": res.get("traced_walls", []),
              "ops_per_pass": per_pass, "op_cost_ms": cost_ms, "raw_wall_s": raw_wall_s, "samples_ns": samples,
              "scaled_ns": res["scaled_ns"], "setup_runs_s": setups,
              "verify_s": res["verify_s"], "attempted": res["attempted"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(res['walls'])} untraced "
          f"+ {len(res.get('traced_walls', []))} traced passes of {per_pass} ops; python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, mpmath {prov['mpmath']}, nproc {prov['nproc']}, "
          f"git {prov['git_sha']}")
    for name, m in metrics.items():
        note = f"  (p{tail_p} of {per_pass} operations, each the median of {len(samples[0])} passes " \
               f"in {1 if args.trace else WORKERS} processes)" \
            if name == "op_tail_ref_ms" else ""
        print(f"{name:30s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        traced = statistics.median(res["traced_walls"])
        shares = ", ".join(f"{m} {100 * res['layer'][f'{m}.self_s'] / traced:.0f}%"
                           for m in ("arith", "series", "theta", "repcount", "elliptic", "circle"))
        print(f"# self time per traced pass of {traced:.3f} s: {shares}")
    else:
        print(f"{'wall_s':30s} {raw_wall_s:.6g} s  (raw, not rescaled: not bounded)")
        print(f"{'setup_raw_s':30s} {statistics.median(raw for raw, _ in setups):.6g} s  "
              f"(raw, not rescaled: not bounded)")
        print(f"{'op_p50_ref_ms':30s} {statistics.median(cost_ms):.6g} ms  (not bounded: see BENCHMARK.json per_layer)")
        print(f"{'fail_ratio':30s} {fail_ratio:.6g} ratio  ({len(failures)} of {res['attempted']} operations "
              f"failed, {len(unexpected)} outside the recorded defects)")
    for f in {(f["op"], f["params"], f["defect"], f["detail"]): None for f in failures}:
        print(f"  FAIL {f[0]} {f[1]}: {f[3]} [{f[2] or 'UNEXPECTED'}]")
    print(json.dumps({"correct": not unexpected, "attempted": res["attempted"], "failed": len(unexpected),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
