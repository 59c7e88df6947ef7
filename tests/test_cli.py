"""Command-line interface: golden outputs, exit codes, and determinism."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qforms
from qforms import cli, repcount

GOLDEN = Path(__file__).parent / "golden"


def child_env():
    """os.environ with the imported qforms's source root first on PYTHONPATH,
    so a child process runs the same package in an uninstalled checkout."""
    env = dict(os.environ)
    src = str(Path(qforms.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, env_extra=None, timeout=120):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qforms.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


GOLDEN_CASES = [
    ("count_power.csv", ["count", "power", "--nu", "3", "--n", "1725..1735"]),
    ("count_quad_series.csv", ["count", "quad", "--diag", "1,1,1,1", "--n", "0..20"]),
    ("count_tri_closed.csv", ["count", "tri", "--m", "1", "--vars", "4",
                              "--method", "closed", "--n", "0..20"]),
    ("count_quintic.json", ["count", "quintic", "--n", "1..40", "--format", "json"]),
    ("count_expmethod.csv", ["count", "expmethod", "--terms", "2:-1,2:-1", "--n", "0..12"]),
    ("table_classnumber.csv", ["table", "classnumber", "--n", "3..40"]),
    ("table_fkh.csv", ["table", "fkh", "--k", "3", "--h", "2", "--n", "1..24"]),
    ("theta_theta3.csv", ["theta", "theta3", "--order", "30"]),
    ("theta_general_alt.json", ["theta", "general", "--k", "2", "--h", "1",
                                "--alt", "--order", "25", "--format", "json"]),
    ("identity_jacobik.csv", ["identity", "jacobik", "--r", "2"]),
    ("identity_sinh.csv", ["identity", "sinh", "--variant", "eq69", "--x", "0.7",
                           "--k", "2", "--h", "1"]),
    ("identity_tripleproduct.csv", ["identity", "tripleproduct", "--p", "1",
                                    "--order", "40"]),
    ("circle_scan.csv", ["circle", "scan", "--xmax", "20", "--step", "1"]),
    ("circle_fresnel.csv", ["circle", "fresnel", "--z", "1.5"]),
    ("circle_rexp.csv", ["circle", "rexp", "--x", "25.3", "--N", "1",
                         "--ncut", "500", "--kcut", "500"]),
]


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(fname, args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / fname).read_text()


# -- documented examples ------------------------------------------------------


def test_taxicab_count_line():
    proc = run_cli("count", "power", "--nu", "3", "--n", "1729")
    assert proc.returncode == 0
    assert proc.stdout == "1729,4,closed\n"


def test_quad_refuses_negative_targets():
    proc = run_cli("count", "quad", "--diag", "1,2", "--n=-3..5")
    assert (proc.returncode, proc.stderr) == (2, "qforms: -3 outside tabulated range\n")
    for args in (("quad", "--diag", "1,2"), ("tri",), ("expmethod", "--terms", "3:-2")):
        proc = run_cli("count", *args, "--n=-3..-1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "qforms: n_max must be nonnegative\n"), args


@pytest.mark.parametrize("args,message", [
    (("--diag", "1"), "--diag needs two integers, got 1"),
    (("--diag", "1,2,3"), "--diag needs two integers, got 3"),
    (("--diag", "1,2", "--lin", "1"), "--lin needs two integers, got 1")])
def test_affine_names_the_flag_that_needs_two_integers(args, message):
    proc = run_cli("count", "affine", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {message}\n")


def test_power_with_nu_below_1_names_count_power_sum():
    proc = run_cli("count", "power", "--nu", "0", "--n", "1..3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "qforms: count_power_sum requires nu >= 1\n")


def test_expmethod_names_the_bad_term():
    proc = run_cli("count", "expmethod", "--terms", "3:1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "qforms: exp route requires k + h odd, got (3, 1)\n")


def test_fkh_table_with_k_below_1_names_f_kh():
    proc = run_cli("table", "fkh", "--k", "0", "--h", "1", "--n", "1..3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "qforms: f_kh requires k >= 1\n")


def test_closed_tri_odd_m_checks_16_times_the_value(monkeypatch, capsys):
    argv = ["count", "tri", "--m", "3", "--vars", "4", "--method", "closed",
            "--n", "0..30", "--verify", "oracle"]
    closed = repcount.tri_N_closed
    v = closed(3, 4, 5)
    monkeypatch.setattr(repcount, "tri_N_closed", lambda m, N, n: closed(m, N, n) + (n == 5))
    assert cli.main(argv) == 3
    assert f"value 16 * {v + 1} at n=5 but oracle gives {16 * v}\n" in capsys.readouterr().err


def test_closed_tri_refuses_nonneg_domain():
    proc = run_cli("count", "tri", "--m", "2", "--vars", "3", "--method", "closed",
                   "--domain", "nonneg", "--n", "0..5", "--verify", "oracle")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "qforms: --method closed counts lattice tuples; --domain nonneg needs --method series\n"


def _bumped(table, n):
    """table with its count at n one higher."""
    i = n - table.n_range.start
    counts = table.counts[:i] + (table.counts[i] + 1,) + table.counts[i + 1:]
    return repcount.RepTable(table.spec, table.n_range, counts, table.method)


@pytest.mark.parametrize("family,args,route,n", [
    ("quad", ["--diag", "1,1,2"], "count_form", 7),
    ("quad", ["--diag", "2,3", "--method", "closed"], "count_form", 1),  # the first target
    ("affine", ["--diag", "1,2", "--lin", "2,4", "--const", "1"], "count_form", 9),
    ("tri", ["--m", "2", "--vars", "3"], "count_form", 4),
    ("tri", ["--m", "1", "--vars", "2", "--domain", "nonneg"], "count_form", 3),
    ("expmethod", ["--terms", "3:-2,3:-2"], "exp_method_count", 6),
    ("power", ["--nu", "3"], "count_power_sum", 9),
    ("cubic", [], "cubic_count", 20),  # the last target
    ("quintic", [], "quintic_count", 2),
])
def test_verify_oracle_catches_one_wrong_value_in_every_family(family, args, route, n, monkeypatch, capsys):
    argv = ["count", family, *args, "--n", "1..20"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    v = int(rows[n - 1].split(",")[1])
    real = getattr(repcount, route)
    if route in ("count_form", "exp_method_count"):
        wrong = lambda *a: _bumped(real(*a), n)
    else:
        wrong = lambda *a: real(*a) + (n in a)  # the target is the closed form's one int argument
    monkeypatch.setattr(repcount, route, wrong)
    assert cli.main([*argv, "--verify", "oracle"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"qforms: cross-check failed: {family}: value {v + 1} at n={n} but oracle gives {v}\n")


REFUSALS = [
    (["count", "expmethod", "--terms", "0:1"], "exp route requires k > |h| > 0, got (0, 1)"),
    (["count", "expmethod", "--terms", "0:1", "--n=-3..-1"], "n_max must be nonnegative"),
    (["count", "tri", "--m=-1"], "need m >= 0 and N >= 1"),
    (["count", "tri", "--m=-1", "--n=-3..-1"], "need m >= 0 and N >= 1"),
    (["count", "tri", "--vars", "0"], "need m >= 0 and N >= 1"),
    (["count", "tri", "--vars", "0", "--method", "closed"], "closed forms cover N in {3, 4} only"),
    (["count", "tri", "--m=-1", "--method", "closed", "--verify", "oracle"], "need m >= 0 and n >= 0"),
    (["count", "tri", "--m", "2", "--vars", "3", "--method", "closed", "--n=-3..5"], "need m >= 0 and n >= 0"),
    (["count", "quad", "--diag", "0,1"], "need at least one term, each with a_l >= 1"),
    (["count", "quad", "--diag", "0,1", "--n=-3..-1"], "need at least one term, each with a_l >= 1"),
    (["count", "quad", "--diag", "1,2,3", "--method", "closed"], "closed two-square form needs exactly two coefficients"),
    (["count", "affine", "--diag", "1,2,3"], "--diag needs two integers, got 3"),
    (["count", "power", "--nu", "0"], "count_power_sum requires nu >= 1"),
    (["count", "power", "--n=-3..5"], "count_power_sum requires n >= 0"),
    (["table", "chi", "--k", "3"], "chi with --k needs --h"),
    (["table", "chi", "--h", "2"], "chi with --h needs --k"),
    (["table", "fkh", "--n", "0"], "fkh needs --k and --h"),
    # a window wholly below the family's least target
    (["count", "cubic", "--n=-5..0"], "n_max must be >= 1"),
    (["count", "quintic", "--n", "0"], "n_max must be >= 1"),
    (["count", "quintic", "--n", "0", "--format", "json"], "n_max must be >= 1"),
    (["table", "sigma", "--n", "0"], "n_max must be >= 1"),
    (["table", "chi", "--n=-3..0"], "n_max must be >= 1"),
    (["table", "chi", "--k", "3", "--h", "1", "--n=-3..0"], "n_max must be >= 1"),
    (["table", "fkh", "--k", "3", "--h", "1", "--n", "0"], "n_max must be >= 1"),
    (["table", "classnumber", "--n", "1..2"], "n_max must be >= 3"),
    # a window with targets but no discriminant
    (["table", "classnumber", "--n", "5..6"], "--n 5..6 holds no discriminant: |D| must be 0 or 3 mod 4"),
    (["table", "classnumber", "--n", "9..10", "--format", "json"],
     "--n 9..10 holds no discriminant: |D| must be 0 or 3 mod 4"),
    # --k and --h set eq69's character only
    (["identity", "sinh", "--k", "2"], "--variant eq66 takes no --k or --h: they set eq69's chi_kh"),
    (["identity", "sinh", "--variant", "eq66", "--h", "1"], "--variant eq66 takes no --k or --h: they set eq69's chi_kh"),
    (["identity", "sinh", "--variant", "eq67", "--k", "2", "--h", "1"],
     "--variant eq67 takes no --k or --h: they set eq69's chi_kh"),
    (["identity", "sinh", "--variant", "eq67", "--h", "1"], "--variant eq67 takes no --k or --h: they set eq69's chi_kh"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusals_exit_2_with_one_line(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"qforms: {message}\n")


@pytest.mark.parametrize("argv,first,rows", [
    (["count", "cubic"], "1,2,closed", 20),
    (["count", "quintic", "--n=-4..1"], "1,2,amended", 1),
    (["table", "sigma", "--n=-2..3"], "1,1", 3),
    (["table", "chi", "--n", "0..2"], "1,-2", 2),
    (["table", "fkh", "--k", "3", "--h", "2", "--n", "1"], "1,1", 1),
    (["table", "classnumber", "--n", "1..3"], "-3,1", 1),
])
def test_windows_that_reach_the_least_target_keep_their_rows(argv, first, rows, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], len(out)) == (first, rows)


# -- each kind parses only the flags it reads ----------------------------------------

# beside --out and --format, and --n (count, table) and --verify (count, circle)
KIND_FLAGS = {
    "count": {"quad": "diag scale method", "affine": "diag lin const scale", "tri": "m vars domain method",
              "power": "nu", "cubic": "", "quintic": "variant", "expmethod": "terms"},
    "table": {"sigma": "a", "chi": "k h", "classnumber": "", "fkh": "k h"},
    "theta": {"theta3": "order", "phi": "order", "psi": "order", "fneg": "order",
              "general": "order k h alt", "triangular": "order m"},
    "identity": {"jacobik": "r", "lambert": "r", "app1": "A B C D r", "sinh": "variant x k h",
                 "tripleproduct": "p order"},
    "circle": {"scan": "xmax step", "hardy": "x ncut window", "rexp": "x N ncut kcut window",
               "fresnel": "z", "dm": "h x M"},
}
# a value off the default for every kind flag of each subcommand (None: a switch)
FLAG_VALUES = {
    "count": {"diag": "1,2", "lin": "1,0", "const": "1", "scale": "2", "m": "2", "vars": "3",
              "domain": "nonneg", "nu": "2", "variant": "as-printed", "terms": "3:-2", "method": "closed"},
    "table": {"a": "2", "k": "5", "h": "2"},
    "theta": {"order": "7", "k": "5", "h": "2", "alt": None, "m": "2"},
    "identity": {"r": "2", "A": "3", "B": "1", "C": "8", "D": "4", "variant": "eq67", "x": "0.8",
                 "k": "5", "h": "2", "p": "2", "order": "30"},
    "circle": {"xmax": "10", "step": "0.5", "x": "3.5", "N": "2", "z": "1.5", "h": "0.2", "M": "512",
               "ncut": "1000", "kcut": "1000", "window": "32"},
}
# each kind's default invocation, with the flags it cannot run without
KIND_BASE = {
    ("count", "quad"): ["--diag", "1,3", "--n", "0..10"],  # r(1, 1; 2n) = r(1, 1; n): scale 2 would change nothing
    ("count", "affine"): ["--diag", "1,3", "--n", "0..10"],
    ("count", "tri"): ["--n", "0..10"],
    ("count", "power"): ["--n", "0..10"],
    ("count", "cubic"): ["--n", "1..10"],
    ("count", "quintic"): ["--n", "1..10"],
    ("count", "expmethod"): ["--terms", "2:-1", "--n", "0..10"],
    ("table", "chi"): ["--k", "3", "--h", "1"],
    ("table", "fkh"): ["--k", "3", "--h", "1"],
    ("theta", "general"): ["--k", "3", "--h", "1"],
    ("theta", "triangular"): ["--m", "1"],
    ("identity", "sinh"): ["--variant", "eq69", "--x", "0.7", "--k", "3", "--h", "1"],
}
KIND_VALUE = {("quad", "method"): "series"}  # quad on two coefficients defaults to closed

FOREIGN = [(c, kind, f) for c, kinds in KIND_FLAGS.items() for kind, own in kinds.items()
           for f in FLAG_VALUES[c] if f not in own.split()]
DECLARED = [(c, kind, f) for c, kinds in KIND_FLAGS.items() for kind, own in kinds.items() for f in own.split()]


def test_kind_flag_pairs_split_224_into_56_declared_and_168_foreign():
    assert (len(DECLARED), len(FOREIGN)) == (56, 168)
    for c, kinds in KIND_FLAGS.items():
        assert {f for own in kinds.values() for f in own.split()} == set(FLAG_VALUES[c])


def _flag(command, kind, flag):
    value = KIND_VALUE.get((kind, flag), FLAG_VALUES[command][flag])
    return [f"--{flag}"] + ([] if value is None else [value])


@pytest.mark.parametrize("command,kind,flag", FOREIGN, ids=["-".join(t) for t in FOREIGN])
def test_a_flag_of_another_kind_is_a_usage_error(command, kind, flag, capsys):
    argv = [command, kind, *KIND_BASE.get((command, kind), []), *_flag(command, kind, flag)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: --{flag}" in err
    assert err.startswith(f"usage: qforms {command} {kind} ")  # the kind's usage, not the top-level one


@pytest.mark.parametrize("command,kind,flag", DECLARED, ids=["-".join(t) for t in DECLARED])
def test_every_declared_flag_changes_the_output_or_exit_code(command, kind, flag, capsys):
    argv = [command, kind, *KIND_BASE.get((command, kind), [])]
    runs = []
    for extra in ([], _flag(command, kind, flag)):
        code = cli.main([*argv, *extra])
        runs.append((code, capsys.readouterr().out))
    assert runs[0][0] == 0
    assert runs[1] != runs[0]


def test_a_flag_before_the_kind_is_a_usage_error(capsys):
    assert cli.main(["count", "--n", "0..3", "cubic"]) == 1
    assert capsys.readouterr().out == ""


def test_an_abbreviated_flag_is_a_usage_error(capsys):
    # circle scan --x would otherwise read as --xmax, count quad --m as --method
    for argv in (["circle", "scan", "--x", "5"], ["count", "quad", "--diag", "1,1", "--m", "series"],
                 ["table", "sigma", "--n", "1..3", "--form", "json"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--k", "--h"])
def test_sinh_reads_k_and_h_at_eq69(flag, capsys):
    base = ["identity", "sinh", "--variant", "eq69", "--x", "0.7", "--k", "3", "--h", "1"]
    assert cli.main(base) == 0
    plain = capsys.readouterr().out
    assert cli.main([*base, flag, "2" if flag == "--h" else "5"]) == 0
    assert capsys.readouterr().out != plain


def test_affine_range_reads_one_diagonal_table(monkeypatch, capsys):
    ns = (-3, 0, 3, 1999)
    ref = repcount.oracle_count(repcount.FormSpec.affine(1, 2, 2, 4, 0), 2000, -3)
    want = [ref.count(n) for n in ns]
    calls = []
    count_form = repcount.count_form

    def counted(spec, n_max, lo=0):
        calls.append((spec, n_max, lo))
        return count_form(spec, n_max, lo)

    monkeypatch.setattr(repcount, "count_form", counted)
    assert cli.main(["count", "affine", "--diag", "1,2", "--lin", "2,4", "--n=-3..2000"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2004
    assert [rows[n + 3] for n in ns] == [f"{n},{c},closed" for n, c in zip(ns, want)]
    # one table over the whole window, the constant as given
    assert calls == [(repcount.FormSpec(((1, 2), (2, 4))), 2000, -3)]


@pytest.mark.parametrize("args,rows", [
    (["--diag", "1,2", "--lin", "2,4", "--n=-3..1"], 5),
    (["--diag", "1,2", "--lin", "2,4", "--const", "-3", "--scale", "2", "--n=-2..6"], 9),
])
def test_affine_verifies_negative_targets(args, rows, capsys):
    assert cli.main(["count", "affine", *args]) == 0
    plain = capsys.readouterr().out
    assert len(plain.splitlines()) == rows
    assert cli.main(["count", "affine", *args, "--verify", "oracle"]) == 0
    assert capsys.readouterr().out == plain


def test_two_form_at_zero():
    proc = run_cli("count", "quad", "--diag", "1,2", "--n", "0", "--method", "closed")
    assert proc.returncode == 0
    assert proc.stdout == "0,1,closed\n"


# -- exit codes ----------------------------------------------------------------


def test_usage_error_exits_1():
    assert run_cli("count", "bogus").returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("count", "quad", "--format", "xml").returncode == 1
    assert run_cli("table", "sigma", "--n", "1..5", "--verify", "oracle").returncode == 1


def test_bad_thread_env_exits_1():
    proc = run_cli("count", "power", "--n", "5", env_extra={"QFORMS_THREADS": "many"})
    assert proc.returncode == 1


def test_precondition_violations_exit_2():
    assert run_cli("count", "tri", "--m", "1", "--vars", "3",
                   "--method", "closed", "--n", "0..5").returncode == 2
    assert run_cli("identity", "app1", "--A", "2", "--B", "4",
                   "--C", "0", "--D", "0").returncode == 2
    assert run_cli("circle", "hardy", "--x", "10").returncode == 2
    assert run_cli("count", "expmethod", "--terms", "3:1", "--n", "0..5").returncode == 2
    assert run_cli("circle", "scan", "--xmax", "1", "--step", "5").returncode == 2
    assert run_cli("count", "power", "--nu", "0", "--n", "0..5").returncode == 2
    assert run_cli("count", "power", "--nu", "-1", "--n", "0..5").returncode == 2
    assert run_cli("table", "fkh", "--n", "1..5").returncode == 2
    assert run_cli("circle", "rexp", "--N", "-1").returncode == 2
    assert run_cli("circle", "scan", "--xmax", "inf").returncode == 2
    assert run_cli("circle", "rexp", "--x", "nan").returncode == 2
    assert run_cli("circle", "hardy", "--x", "nan").returncode == 2
    assert run_cli("circle", "hardy", "--x", "inf").returncode == 2
    assert run_cli("circle", "rexp", "--x", "inf").returncode == 2
    assert run_cli("circle", "dm", "--x", "nan").returncode == 2
    assert run_cli("circle", "fresnel", "--z", "nan").returncode == 2
    for op in ("scan", "fresnel", "dm"):
        assert run_cli("circle", op, "--verify", "oracle").returncode == 2


@pytest.mark.parametrize("args,message", [
    # 8 PB of columns: past the user address space under any overcommit setting
    (("--xmax", "1e15"), "a scan of 1e+15 rows needs 4e+16 bytes of columns, more than can be allocated"),
    (("--xmax", "1e17", "--step", "1e10"), "x_max 1e+17 is not below 2^52, the reach of the r2 sieve"),
    (("--xmax", "1e15", "--step", "1e-300"), "x_max / step overflows: 1000000000000000.0 / 1e-300")])
def test_scan_that_cannot_run_exits_2(args, message):
    proc = run_cli("circle", "scan", *args, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {message}\n")


def test_scan_csv_is_written_row_by_row(tmp_path):
    # built whole, the text and one tuple per row took this command to
    # 561 MB. The child reads its peak RSS as VmHWM: Linux carries
    # ru_maxrss across exec, so that would report this test process's peak.
    out = tmp_path / "scan.csv"
    code = ("import sys, qforms.cli; "
            "code = qforms.cli.main(['circle', 'scan', '--xmax', '1e6', '--step', '1', '--out', sys.argv[1]]); "
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]; "
            "print(code, hwm.split()[1])")
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True,
                          env=child_env(), timeout=120, check=True)
    code, hwm = map(int, proc.stdout.split())
    with open(out) as fh:
        assert (code, next(fh), sum(1 for _ in fh)) == (0, "x,count,pi_x,R,R_scaled\n", 10**6)
    assert hwm < 300 * 1024  # kB


@pytest.mark.parametrize("args,message", [
    # 8 PB and 4 PB arrays, and an 8 PB list of f_kh weights: past the user
    # address space under any overcommit setting
    (("circle", "rexp", "--x", "25.3", "--ncut", "1000000000000000"),
     "n_cut 1000000000000000 is too large: its arrays cannot be allocated"),
    (("circle", "hardy", "--x", "25.3", "--ncut", "1000000000000000"),
     "n_cut 1000000000000000 is too large: its arrays cannot be allocated"),
    (("circle", "rexp", "--x", "25.3", "--kcut", "1000000000000000", "--ncut", "100"),
     "k_cut 1000000000000000 is too large: its arrays of 500000000000000 odd k cannot be allocated"),
    (("count", "expmethod", "--terms", "2:-1", "--n", "0..1000000000000000"),
     "the request is too large: its tables cannot be allocated"),
    # lattice sums and f_kh weights spanning past sys.maxsize entries: each
    # list is sized before any term is enumerated
    *((args, "the request is too large: its tables cannot be allocated") for args in (
        ("count", "quad", "--diag", "1,2", "--n", "100000000000000000000"),
        ("count", "affine", "--diag", "1,2", "--const", "-100000000000000000000", "--n", "0..1"),
        ("count", "affine", "--diag", "1,1", "--lin", "1000000000000,0", "--n", "0..1"),
        ("count", "tri", "--m", "100000000000", "--vars", "3", "--n", "0..2"),
        ("theta", "general", "--k", "1", "--h", "100000000000", "--order", "5"),
        ("count", "expmethod", "--terms", "2:-1", "--n", "0..100000000000000000000")))])
def test_series_cutoff_that_cannot_be_allocated_exits_2(args, message):
    proc = run_cli(*args, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {message}\n")


@pytest.mark.parametrize("x,N", [("1e250", "1"), ("1e200", "2")])
def test_expansion_past_the_float_range_exits_2(x, N):
    proc = run_cli("circle", "rexp", "--x", x, "--N", N, timeout=30)
    message = f"the order-{N} expansion at x = {float(x)} has terms past the float range"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {message}\n")


def test_dm_where_n_x_passes_the_float_range_exits_2():
    proc = run_cli("circle", "dm", "--x", "1e308", "--M", "5", timeout=30)
    message = "n x passes the float range at x = 1e+308, M = 5"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {message}\n")
    proc = run_cli("circle", "dm", "--x", "1e300", "--M", "5", timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1e+300,5,-0.0290165810985\n", "")


def test_fresnel_past_the_overflow_of_z_squared_prints_one_half():
    proc = run_cli("circle", "fresnel", "--z", "1e300", timeout=30)
    assert (proc.returncode, proc.stdout) == (0, "1e+300,0.5,0.5\n")


def test_import_and_a_count_start_no_thread():
    code = ("import threading, qforms, qforms.cli; "
            "qforms.cli.run(['count', 'cubic', '--n', '1..5']); "
            "print(threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "1"


@pytest.mark.parametrize("args,name", [(("sinh", "--x", "inf"), "x"), (("sinh", "--x", "nan"), "x"),
                                       (("jacobik", "--r", "nan"), "r"), (("app1", "--r", "nan"), "r")])
def test_identity_refuses_non_finite_parameters(args, name):
    proc = run_cli("identity", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"qforms: {name} must be positive\n")


@pytest.mark.parametrize("x", ["1e-3", "1e-6", "1e-300"])
def test_identity_sinh_refuses_small_x(x):
    # the sums run to 44/x terms: 1e-6 used to run for minutes, 1e-300 to
    # divide by zero and 1e-3 to miss the tolerance
    proc = run_cli("identity", "sinh", "--x", x, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"qforms: x={float(x):g} is too small: the float sums hold the identity only for x >= 0.01\n"


def test_cross_check_failure_exits_3():
    proc = run_cli("count", "quintic", "--variant", "as-printed",
                   "--verify", "oracle", "--n", "30..70")
    assert proc.returncode == 3
    assert "oracle" in proc.stderr


def test_verified_paths_exit_0():
    cases = [
        ["count", "quad", "--diag", "1,2", "--n", "0..60", "--verify", "oracle"],
        ["count", "quad", "--diag", "1,1,2", "--n", "0..40", "--verify", "oracle"],
        ["count", "quad", "--diag", "2,3", "--method", "closed", "--n", "0..200",
         "--verify", "oracle"],
        ["count", "affine", "--diag", "1,2", "--lin", "2,4", "--const", "1",
         "--n", "0..40", "--verify", "oracle"],
        ["count", "affine", "--diag", "1,3", "--lin", "2,6", "--const", "-5", "--scale", "2",
         "--n", "0..60", "--verify", "oracle"],
        ["count", "quad", "--diag", "2,2", "--n", "0..5", "--verify", "oracle"],
        ["count", "affine", "--diag", "2,2", "--const", "100", "--n", "0..5", "--verify", "oracle"],
        ["count", "affine", "--diag", "1,2", "--lin", "1,0", "--n", "0..40", "--verify", "oracle"],
        ["count", "tri", "--m", "2", "--vars", "3", "--n", "0..30", "--verify", "oracle"],
        ["count", "tri", "--m", "3", "--vars", "4", "--method", "closed",
         "--n", "0..30", "--verify", "oracle"],
        ["count", "tri", "--m", "2", "--vars", "3", "--method", "closed",
         "--n", "0..60", "--verify", "oracle"],
        ["count", "power", "--nu", "4", "--n", "0..200", "--verify", "oracle"],
        ["count", "cubic", "--n", "1..200", "--verify", "oracle"],
        ["count", "quintic", "--n", "1..200", "--verify", "oracle"],
        ["count", "expmethod", "--terms", "3:-2,3:-2", "--n", "0..40",
         "--verify", "oracle"],
        ["circle", "hardy", "--x", "2.5", "--ncut", "20000", "--verify", "oracle"],
        ["identity", "app1", "--A", "2", "--B", "1", "--C", "8", "--r", "3"],
    ]
    for args in cases:
        proc = run_cli(*args)
        assert proc.returncode == 0, (args, proc.stderr)


@pytest.mark.parametrize("r,code", [("1e-05", 2), ("0.001", 2), ("0.005", 2), ("0.01", 0), ("0.018", 0)])
def test_identity_at_small_r(r, code):
    proc = run_cli("identity", "jacobik", "--r", r)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stderr == f"qforms: r={r} is too small: the singular modulus k_r rounds to 1\n"


def test_import_leaves_scipy_unloaded():
    # scipy is imported inside hardy_sum and fresnel only
    proc = subprocess.run([sys.executable, "-c", "import sys, qforms; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.stdout == "False\n", proc.stderr


def test_numpy_fft_loads_with_the_first_long_product():
    code = ("import sys, qforms.cli; from qforms.series import convolve; "
            "convolve([1, 2] * 8, [3, -1] * 8, 31); a = 'numpy.fft' in sys.modules; "
            "convolve([1, 2] * 2048, [3, -1] * 2048, 8191); print(a, 'numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.stdout == "False True\n", proc.stderr


def test_help_exits_0():
    assert run_cli("--help").returncode == 0
    for command in ("count", "table", "theta", "identity", "circle"):
        assert run_cli(command, "--help").returncode == 0


def test_help_lists_every_command_and_kind(capsys):
    # the parser builds the kind parsers of the command argv names only
    assert cli.main(["--help"]) == 0
    assert "{count,table,theta,identity,circle}" in capsys.readouterr().out
    for command, (*_, kinds) in cli._COMMANDS.items():
        assert cli.main([command, "--help"]) == 0
        assert "{" + ",".join(kinds) + "}" in capsys.readouterr().out


def _sub_parsers(parser):
    """parser's sub-parsers by name, or None if it has none."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else None


def test_only_the_named_command_builds_its_kind_parsers():
    commands = _sub_parsers(cli._build_parser(["circle", "hardy", "--x", "2.5"]))
    assert {c: _sub_parsers(p) and sorted(_sub_parsers(p)) for c, p in commands.items()} == {
        "count": None, "table": None, "theta": None, "identity": None,
        "circle": ["dm", "fresnel", "hardy", "rexp", "scan"]}


# -- output plumbing ----------------------------------------------------------------


def test_json_envelope_shape():
    payload = json.loads((GOLDEN / "count_quintic.json").read_text())
    assert sorted(payload) == ["method", "rows", "spec", "tool_version"]
    assert payload["tool_version"] == qforms.__version__
    assert payload["spec"]["family"] == "quintic"
    assert payload["rows"][0] == [1, 2, "amended"]


def test_out_file_matches_stdout(tmp_path):
    args = ["table", "sigma", "--a", "2", "--n", "1..30"]
    proc = run_cli(*args)
    out = tmp_path / "sigma.csv"
    proc2 = run_cli(*args, "--out", str(out))
    assert proc2.returncode == 0 and proc2.stdout == ""
    assert out.read_text() == proc.stdout


def test_byte_determinism_across_runs_and_threads():
    args = ["circle", "scan", "--xmax", "50", "--step", "0.5", "--format", "json"]
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    c = run_cli(*args, env_extra={"QFORMS_THREADS": "1"}).stdout
    d = run_cli(*args, env_extra={"QFORMS_THREADS": "8"}).stdout
    assert a == b == c == d


def test_scan_header_and_float_format():
    proc = run_cli("circle", "scan", "--xmax", "3", "--step", "1")
    lines = proc.stdout.splitlines()
    assert lines[0] == "x,count,pi_x,R,R_scaled"
    # 12 significant digits on floats
    assert lines[1].split(",")[2] == "3.14159265359"


def test_atom_formats_every_cell_type_as_the_isinstance_chain_did():
    def chain(v):  # the formatting before the exact-type fast paths
        if isinstance(v, bool):
            return "pass" if v else "fail"
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, float):
            return format(v, ".12g")
        return str(v)

    cells = [True, False, Fraction(3, 4), Fraction(-5, 6), Fraction(4, 2), -0.0, 0.0, 1e300,
             float("inf"), float("nan"), 2 / 3, 12, -7, 10**30, np.float64(-0.0), np.float64(1 / 3),
             np.float32(0.1), np.int64(-9), np.uint8(200), np.bool_(True), "x"]
    for v in cells:
        assert cli._atom(v) == chain(v), v
    assert [cli._atom(v) for v in (True, Fraction(3, 4), -0.0, np.float64(-0.0), 2 / 3)] == \
        ["pass", "3/4", "-0", "-0", "0.666666666667"]
