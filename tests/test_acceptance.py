"""Acceptance gate: ten criteria, one printed pass/fail line per criterion.

Two recorded defects are pinned as strict expected failures that must keep
failing exactly as documented: the as-printed quintic divisor formula at
n = 32 and 64, and the claimed bound of 5 on the scaled circle-count error
over x <= 10^6.  Every other criterion must pass outright.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from qforms import arith, circle, elliptic, repcount, theta
from qforms.series import HalfLaurentSeries as S
from qforms.series import exp_neg, sqrt_coeff_fdb

from test_cli import GOLDEN, GOLDEN_CASES, run_cli


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_unit(rng, order):
    """Unit series (constant term 1) with small random integer coefficients."""
    coeffs = [1] + [rng.randint(-3, 3) for _ in range(order - 1)]
    return S(0, coeffs, order)


# -- 1: every closed form equals its brute-force oracle ------------------------------


def test_criterion_01_closed_forms_match_oracles():
    t0 = time.perf_counter()
    checks = 0

    oracle = repcount.oracle_count(repcount.FormSpec.diagonal((1, 1)), 2000)
    for n in range(2001):
        assert repcount.r2(n) == oracle.count(n), n
    checks += 2001

    for A in range(1, 7):
        for B in range(1, 7):
            oracle = repcount.oracle_count(repcount.FormSpec.two_form(A, B), 500)
            for n in range(501):
                assert repcount.count_two_form(A, B, n) == oracle.count(n), (A, B, n)
            checks += 501

    for k in range(1, 5):
        for coeffs in itertools.combinations_with_replacement(range(1, 5), k):
            table = repcount.count_diagonal(list(coeffs), 300)
            oracle = repcount.oracle_count(table.spec, 300)
            assert table.counts == oracle.counts, coeffs
            checks += 301

    for n in range(1, 5001):
        assert repcount.cubic_count(n) == repcount.oracle_odd_power_pairs(3, n, "integer"), n
    checks += 5000

    for n in range(1, 2001):
        assert repcount.quintic_count(n) == repcount.oracle_odd_power_pairs(5, n, "nonneg"), n
    checks += 2000

    # triangular closed forms: reduction, pair formula, and the N = 3, 4 forms
    for m in range(7):
        for N in range(1, 5):
            oracle = repcount.oracle_count(
                repcount.FormSpec.triangular_sum(m, N, "lattice"), 300)
            for n in range(301):
                assert repcount.tri_reduce(m, N, n) == oracle.count(n), (m, N, n)
            checks += 301
            if N == 2:
                for n in range(301):
                    assert repcount.s_m(m, n) == oracle.count(n), (m, n)
                checks += 301
            if N in (3, 4) and m % 2 == 0:
                for n in range(301):
                    assert repcount.tri_N_closed(m, N, n) == oracle.count(n), (m, N, n)
                checks += 301
            if N == 4 and m % 2 == 1:
                # odd-shift closed form counts one orbit per 16 lattice solutions
                for n in range(301):
                    assert 16 * repcount.tri_N_closed(m, N, n) == oracle.count(n), (m, n)
                checks += 301

    oracle4 = repcount.oracle_count(repcount.FormSpec.diagonal((1, 1, 1, 1)), 300)
    oracle3 = repcount.oracle_count(repcount.FormSpec.diagonal((1, 1, 1)), 300)
    for n in range(301):
        assert repcount.r4_closed(n) == oracle4.count(n), n
        assert repcount.r3(n) == oracle3.count(n), n
    checks += 2 * 301

    for terms in (((10, 1), (11, 4)), ((3, -2), (3, -2)),
                  ((2, -1), (2, -1)), ((4, 3), (3, 2))):
        table = repcount.exp_method_count(terms, 300)
        oracle = repcount.oracle_count(table.spec, 300)
        assert table.counts == oracle.counts, terms
        checks += 301

    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(1, True, f"{checks} closed-form values equal their oracles, zero mismatches, {dt:.1f}s")


# -- 2: the as-printed quintic defect, pinned --------------------------------------


def test_criterion_02_quintic_defect_values():
    assert repcount.quintic_count(64, variant="as-printed") == -1
    assert repcount.quintic_count(32, variant="as-printed") == 0
    assert repcount.oracle_odd_power_pairs(5, 64, "nonneg") == 1
    assert repcount.oracle_odd_power_pairs(5, 32, "nonneg") == 2
    _report(2, True, "as-printed quintic gives -1 at n=64 and 0 at n=32 where the oracle gives 1 and 2")


@pytest.mark.xfail(strict=True,
                   reason="as-printed quintic formula must keep disagreeing with the oracle at n = 32, 64")
def test_criterion_02_as_printed_quintic_must_keep_failing():
    for n in (32, 64):
        assert (repcount.quintic_count(n, variant="as-printed")
                == repcount.oracle_odd_power_pairs(5, n, "nonneg")), n


# -- 3: series engine round-trips and the partition-sum sqrt coefficients -----------


def test_criterion_03_series_round_trips_and_partition_formula():
    rng = random.Random(20260825)
    for _ in range(200):
        f = random_unit(rng, rng.randint(8, 40))
        assert f.square().sqrt() == f
        assert f.sqrt().square() == f
        assert exp_neg(f.log().scale(-1)) == f
    for _ in range(50):
        f = random_unit(rng, rng.randint(26, 40))
        g = f.sqrt()
        for n in range(25):
            assert sqrt_coeff_fdb(f, n) == g.coeff(n), (f, n)
    _report(3, True, "200 sqrt/square and log/exp round-trips exact; "
                     "partition-sum sqrt coefficients match the recurrence on 50 series")


# -- 4: theta identities, coefficientwise ------------------------------------------


def test_criterion_04_theta_identities_exact():
    order = 200
    assert theta.series(theta.phi(), order) == theta.phi_product(order)
    assert theta.series(theta.psi(), order) == theta.psi_product(order)
    assert theta.series(theta.f_neg(), order) == theta.f_neg_product(order)

    pair = (theta.series(theta.pochhammer(2, 4, False), order)
            * theta.series(theta.pochhammer(2, 2, True), order))
    assert pair == S.from_terms([(0, 1)], pair.order)

    for p in (0, 1, 2):
        assert theta.triple_product_check(p, order), p
        assert theta.even_shift_check(p, order), p
    assert theta.triple_product_check(3, 60)

    pairs = 0
    for k in range(2, 13):
        for a in range(1, k):
            if (k + a) % 2 == 0:
                continue
            for h in (a, -a):
                assert (theta.general_theta_via_exp(k, h, order)
                        == theta.series(theta.general(k, h), order)), (k, h)
                pairs += 1
    _report(4, True, f"sum = product, triple product, even shift, and {pairs} "
                     f"exp-route expansions exact to order 200")


# -- 5: positivity of the four-fold triangular closed form --------------------------


def test_criterion_05_four_fold_triangular_positivity():
    for m in range(7):
        for n in range(10001):
            assert repcount.tri_N_closed(m, 4, n) >= 1, (m, n)
    _report(5, True, "tri_N_closed(m, 4, n) >= 1 for all 0 <= m <= 6, 0 <= n <= 10^4")


# -- 6: elliptic integral and sinh-kernel residuals ---------------------------------


def test_criterion_06_elliptic_residuals():
    worst = 0.0
    for r in (1, 2, 3, 4, 5, 7):
        ctx = elliptic.singular_modulus(r)
        assert abs(ctx.Kp / ctx.K - math.sqrt(r)) < 1e-9, r
        res = elliptic.identity_check("jacobiK", r=r)
        worst = max(worst, res)
        assert res < 1e-10, r
    for r in (1, 2):
        assert elliptic.identity_check("lambert", r=r) < 1e-10, r
    for A, B in ((1, 2), (1, 3)):
        for C, D in ((0, 0), (-2, 0)):
            res = elliptic.identity_check("application1", A=A, B=B, C=C, D=D, r=1)
            assert res < 1e-8, (A, B, C, D)
    for x in (0.5, 0.7, 1.0, 2.0):
        assert elliptic.sinh_identity_check("prop6", x, X=arith.chi0) < 1e-10, x
        assert elliptic.sinh_identity_check("eq66", x) < 1e-10, x
        assert elliptic.sinh_identity_check("eq67", x) < 1e-10, x
        assert elliptic.sinh_identity_check("eq69", x, k=3, h=2) < 1e-10, x
    _report(6, True, f"modulus, multiplier, shifted-form, and sinh-kernel residuals "
                     f"within tolerance (worst multiplier residual {worst:.1e})")


# -- 7: Bessel J1 series vs asymptotic and its expansion constants ------------------


def test_criterion_07_bessel_series_vs_asymptotic():
    worst = 0.0
    for i in range(371):
        x = 15.0 + 0.5 * i
        d = abs(circle.bessel_j1(x, "series") - circle.bessel_j1(x, "asymptotic", 3))
        worst = max(worst, d)
    assert worst < 1e-8
    assert abs(circle.c1(1)) / 2 == Fraction(3, 8)
    assert abs(circle.c1(2)) / 8 == Fraction(15, 256)
    assert abs(circle.c1(3)) / 32 == Fraction(105, 4096)
    _report(7, True, f"J1 series vs asymptotic worst gap {worst:.1e} on [15,200]; "
                     f"constants 3/8, 15/256, 105/4096 exact")


# -- 8: circle counts, scan speed, and the pinned scaled-error sup ------------------


@lru_cache(maxsize=1)
def _million_scan():
    t0 = time.perf_counter()
    res = circle.scan_R(10 ** 6, 1.0, collect_rows=False)
    return res, time.perf_counter() - t0


def test_criterion_08_circle_counts_and_scan_speed():
    assert circle.lattice_count(1) == 5
    assert circle.lattice_count(25) == 81
    for n in range(1, 501):
        assert (circle.lattice_count(n) - circle.lattice_count(n - 0.5)
                == repcount.r2(n)), n
    res, dt = _million_scan()
    assert dt < 60.0
    sup = res.summary["sup_R_scaled"]
    _report(8, True, f"count examples and jump identity exact; 10^6 scan in {dt:.1f}s "
                     f"(scaled-error sup {sup:.3f}; the bound 5 is an expected failure)")


@pytest.mark.xfail(strict=True,
                   reason="scaled circle error exceeds 5 below 10^6; sup pinned at 7.2815942639519 (x = 574560)")
def test_criterion_08_scaled_error_bound_must_keep_failing():
    x, counts, _, _, r_scaled = circle.scan_columns(10 ** 6, 1.0)
    i = int(np.argmax(np.abs(r_scaled)))
    assert x[i] == 574560.0
    assert counts[i] == circle.lattice_count(574560)
    assert abs(abs(r_scaled[i]) - 7.281594263951899) < 1e-9
    assert float(np.max(np.abs(r_scaled))) < 5.0


# -- 9: mean-value series behavior ---------------------------------------------------


def test_criterion_09_mean_value_series_behavior():
    spec = circle.TruncationSpec(n_cut=100000, k_cut=2000, smooth_window=64)
    for x in (0.5, 2.5, 10.5):
        assert abs(circle.hardy_sum(x, spec) - circle.lattice_count(x)) <= 0.3, x

    for a in (1.0, 2.0, 3.0):
        bound = 2 + 4 * math.pi * math.sqrt(a)
        for M in itertools.chain(range(1, 1001), (1 << j for j in range(10, 17)), (100000,)):
            gap = abs(circle.G(0.0, a, M) - circle.fresnel_closed_sum(a, M))
            assert gap <= bound, (a, M, gap)

    res, _ = _million_scan()
    growth = res.summary["sup_G"] - res.summary["sup_G_halfM"]
    assert 0.0 <= growth < 0.1

    for a in (0.5, 1.0, 2.0):
        for M in (10, 100, 1000):
            assert (circle.euler_maclaurin_residual(a, M)
                    <= circle.euler_maclaurin_f4_bound(a, M)), (a, M)
    _report(9, True, f"windowed tail sums within 0.3; oscillator-vs-closed envelope holds; "
                     f"running-sup growth {growth:.4f} < 0.1; correction residuals within bound")


# -- 10: CLI golden outputs and exit codes ------------------------------------------


def test_criterion_10_cli_golden_and_exit_codes():
    for name, args in GOLDEN_CASES:
        proc = run_cli(*args)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / name).read_text(), name

    verified = [
        ["count", "quad", "--diag", "1,2", "--n", "0..60", "--verify", "oracle"],
        ["count", "affine", "--diag", "1,2", "--lin", "2,4", "--const", "1",
         "--n", "0..40", "--verify", "oracle"],
        ["count", "quad", "--diag", "2,2", "--n", "0..5", "--verify", "oracle"],
        ["count", "affine", "--diag", "2,2", "--const", "100", "--n", "0..5", "--verify", "oracle"],
        ["count", "affine", "--diag", "1,2", "--lin", "1,0", "--n", "0..40", "--verify", "oracle"],
        ["count", "tri", "--m", "3", "--vars", "4", "--method", "closed",
         "--n", "0..30", "--verify", "oracle"],
        ["count", "cubic", "--n", "1..200", "--verify", "oracle"],
        ["count", "expmethod", "--terms", "3:-2,3:-2", "--n", "0..40",
         "--verify", "oracle"],
        ["circle", "hardy", "--x", "2.5", "--ncut", "20000", "--verify", "oracle"],
    ]
    for args in verified:
        proc = run_cli(*args)
        assert proc.returncode == 0, (args, proc.stderr)

    violations = [
        ["count", "quad", "--diag", "0,1", "--n", "0..5"],
        ["count", "tri", "--m", "1", "--vars", "3", "--method", "closed", "--n", "0..5"],
        ["identity", "app1", "--A", "2", "--B", "4", "--C", "0", "--D", "0"],
        ["circle", "hardy", "--x", "10"],
        ["count", "expmethod", "--terms", "3:1", "--n", "0..5"],
    ]
    for args in violations:
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.returncode, proc.stderr)

    _report(10, True, f"{len(GOLDEN_CASES)} golden outputs byte-identical; "
                      f"verified paths exit 0; precondition violations exit 2")
