"""Tests of the benchmark itself: seeded inputs, reference checkers, tracing.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import parse_importtime  # noqa: E402

from qforms import arith, repcount, theta  # noqa: E402


def _listing(ops):
    return [(op.name, op.layer, op.params) for op in ops]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_the_operation_list(name):
    first = _listing(workloads.build(name, 7))
    assert first == _listing(workloads.build(name, 7))
    other = _listing(workloads.build(name, 8))
    assert [n for n, _, _ in first] == [n for n, _, _ in other]  # same operations and sizes
    assert [p for _, _, p in first] != [p for _, _, p in other]  # other parameters


def _op(ops, name):
    return next(op for op in ops if op.name == name)


def test_count_checkers_flag_an_off_by_one():
    ops = workloads.build("closed_ranges", 3)
    op = _op(ops, "repcount.cubic_count[512]")
    got = op.run(workloads.Ctx())
    assert op.check(got).ok
    got[100] += 1
    verdict = op.check(got)
    assert not verdict.ok and verdict.defect is None

    op = _op(workloads.build("series_tables", 3), "repcount.count_two_form[n<1024]")
    value = op.run(workloads.Ctx())
    assert op.check(value).ok
    assert not op.check(value + 1).ok


def test_series_checker_flags_a_changed_coefficient():
    ops = workloads.build("series_tables", 3)
    for name in ("series.mul[256]", "series.sqrt[256]", "series.inverse[256]", "series.log[256]"):
        op = _op(ops, name)
        s = op.run(workloads.Ctx())
        assert op.check(s).ok, name
        coeffs = list(s.coeffs)
        coeffs[200] += Fraction(1, 3)
        bad = workloads.HLS(s.base, coeffs, s.order)
        assert not op.check(bad).ok, name


def test_cli_checker_flags_a_flipped_byte_and_a_wrong_exit_code():
    op = _op(workloads.build("cli_batch", 3), "cli.golden[theta_theta3.csv]")
    golden = (workloads.ROOT / "tests" / "golden" / "theta_theta3.csv").read_bytes()
    assert op.check(workloads.CliRun(0, golden, b"", 0.5)).ok
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    assert not op.check(workloads.CliRun(0, bytes(flipped), b"", 0.5)).ok
    assert not op.check(workloads.CliRun(3, golden, b"", 0.5)).ok


def test_scan_checker_tells_the_float_step_defect_from_other_errors():
    ops = workloads.build("numeric_scan", 3)
    op = _op(ops, "circle.scan_columns[1e3,step=0.7]")
    x, counts, *rest = op.run(workloads.Ctx())
    verdict = op.check((x, counts, *rest))
    assert not verdict.ok and verdict.defect == refs.FLOAT_STEP
    counts = counts.copy()
    counts[10] += 1
    assert op.check((x, counts, *rest)).defect is None
    ok = _op(ops, "circle.scan_columns[1e3,step=0.5]")
    x, counts, *rest = ok.run(workloads.Ctx())
    assert ok.check((x, counts, *rest)).ok
    counts = counts.copy()
    counts[-1] -= 1
    assert not ok.check((x, counts, *rest)).ok


def test_wraparound_is_recognised_only_past_the_overflow_index():
    want = [1, 2, 2**70, 2**71]
    assert refs.check_counts([1, 2, 5, 6], want, 2).defect == refs.WRAP
    assert refs.check_counts([1, 3, 5, 6], want, 2).defect is None
    assert refs.check_counts([1, 3, 2**70, 2**71], want[:2] + [2**70, 2**71]).defect is None


def test_own_class_numbers_match_the_library():
    for m in range(3, 400):
        if m % 4 in (0, 3):
            assert refs.class_number(-m) == arith.class_number(-m), m


def test_self_times_add_up_to_span_totals():
    trc = tracer.Tracer()
    original = repcount.divisors
    uninstall = tracer.install(trc)
    try:
        assert repcount.divisors is not original  # imported aliases are rebound too
        theta.phi_product(24)
        [repcount.tri_N_closed(2, 3, n) for n in range(40)]
        repcount.cubic_count(1729)
    finally:
        uninstall()
    assert repcount.divisors is original
    spans = trc.spans
    names = {name for name, *_ in spans}
    assert {"theta.phi_product", "series.HalfLaurentSeries.__mul__", "arith.divisors",
            "repcount.r3", "arith.class_number"} <= names
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    own = tracer.self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == roots
    summary = tracer.summarize(spans)
    total = sum(summary[f"{m}.self_s"] for m in tracer.MODULES)
    assert total == pytest.approx(roots / 1e9)
    assert summary["arith.divisors.calls"] > 0 and summary["repcount.r3.self_s"] > 0


def test_importtime_parse_takes_the_outermost_package_lines():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       150 |        200 |     scipy",
        "import time:        10 |        700 |   qforms.circle",
        "import time:        20 |        800 | qforms",
    ])
    assert parse_importtime(text) == pytest.approx({"qforms": 800e-6, "scipy": 200e-6, "numpy": 300e-6})
