"""Lattice counts, Bessel series, oscillatory sums, Fresnel forms, and
Euler-Maclaurin diagnostics for the circle-problem error term."""

import faulthandler
import inspect
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

import qforms
from qforms.circle import (G, R_expansion, S_sum, ScanRow, TruncationSpec, bessel_j1,
                           c1, em_f4, euler_maclaurin_defect,
                           euler_maclaurin_f4_bound, euler_maclaurin_residual,
                           fresnel, fresnel_closed_sum, g_running_sup,
                           hardy_sum, lattice_count, oscillatory_sum,
                           r2_table, scan_R, scan_columns, _count_below, _hardy_support,
                           _r2_segment, _window_mean)
from qforms.repcount import r2


# -- exact counting -----------------------------------------------------------


def test_lattice_count_small_values():
    assert lattice_count(0) == 1
    assert lattice_count(1) == 5
    assert lattice_count(2) == 9
    assert lattice_count(25) == 81


def test_lattice_count_rejects_negative():
    with pytest.raises(ValueError):
        lattice_count(-1)


def test_lattice_count_constant_between_integers():
    for n in range(1, 50):
        assert lattice_count(n + 0.5) == lattice_count(n)


def test_lattice_count_jumps_are_r2():
    for n in range(1, 500):
        assert lattice_count(n) - lattice_count(n - 0.5) == r2(n), n


def test_lattice_count_nondecreasing():
    vals = [lattice_count(x / 4.0) for x in range(0, 200)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_r2_table_matches_divisor_form():
    arr = r2_table(2000)
    for n in range(2001):
        assert int(arr[n]) == r2(n), n


@lru_cache(maxsize=None)
def _r2_upto(n):
    """r2(0..n-1) from the divisor form."""
    return tuple(r2(m) for m in range(n))


def test_r2_segment_every_segment_to_400():
    want = _r2_upto(400)
    for m1 in range(401):
        for m0 in range(m1 + 1):
            assert _r2_segment(m0, m1).tolist() == list(want[m0:m1]), (m0, m1)


# ends on squares (1000^2, 1024^2, 1999^2, 2000^2) and on sums of two squares
# (999937 = 999^2 + 44^2, 1000001 = 1000^2 + 1^2)
@pytest.mark.parametrize("m0,m1", [
    (0, 1), (0, 2), (0, 65536), (999_999, 1_000_000), (1_000_000, 1_000_001),
    (1_000_000, 1_004_096), (999_937, 1_000_000), (999_936, 1_000_001), (999_937, 1_000_001),
    (1_000_001, 1_000_002), (1_000_002, 1_003_002), (1_048_576, 1_048_577),
    (3_996_001, 4_000_000), (3_996_001, 4_000_001), (4_000_000, 4_000_001)])
def test_r2_segment_matches_divisor_form(m0, m1):
    assert _r2_segment(m0, m1).tolist() == [r2(m) for m in range(m0, m1)]


@pytest.mark.parametrize("m", [10**6 + k * k for k in range(0, 1500, 97)]
                         + [97**2 + 1000**2, 2**40, 2**40 + 1, 5**18])
def test_r2_segment_of_length_one_on_squares_and_two_square_values(m):
    assert _r2_segment(m, m + 1).tolist() == [r2(m)]
    assert _r2_segment(m - 1, m).tolist() == [r2(m - 1)]


@pytest.mark.parametrize("m0,m1", [(0, 2**52 + 1), (2**52, 2**52 + 1), (2**60, 2**60 + 5), (-1, 5), (5, 4)])
def test_r2_segment_refuses_what_its_float_roots_cannot_hold(m0, m1):
    with pytest.raises(ValueError, match="2\\^52"):
        _r2_segment(m0, m1)


@pytest.mark.parametrize("n", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_r2_table_across_segment_edges(n):
    assert r2_table(n).tolist() == list(_r2_upto(n + 1))


# squares, two-square values and their neighbours, near 10^3 and 10^5 (so
# near 10^6 and 10^10 for m), where the sum over i runs to two chunks of 2^16
_COUNT_BELOW_M = sorted({0, 1, 2} | {v + d for k in (999, 1000, 1001, 99_999, 100_000, 100_001)
                                     for v in (k * k, 2 * k * k) for d in (-1, 0, 1)}
                        | {random.Random(23).randrange(10**10) for _ in range(4)})


@pytest.mark.parametrize("m", _COUNT_BELOW_M)
def test_count_below_is_the_lattice_count_below_m(m):
    assert _count_below(m) == (lattice_count(m - 1) if m else 0)


# -- c1 coefficients -------------------------------------------------------------


def test_c1_base_values():
    assert c1(0) == 1
    assert c1(1) == Fraction(3, 4)
    assert c1(2) == Fraction(-15, 32)
    assert c1(3) == Fraction(105, 128)


def test_c1_reproduces_printed_expansion_constants():
    # the first-order expansion display carries 3/8, 15/256, 105/4096,
    # which are |c1(m)| / 2^(2m-1) for m = 1, 2, 3
    want = {1: Fraction(3, 8), 2: Fraction(15, 256), 3: Fraction(105, 4096)}
    for m, v in want.items():
        assert abs(c1(m)) / 2 ** (2 * m - 1) == v


def test_c1_matches_its_defining_product():
    for m in range(41):
        direct = Fraction((-1) ** m, math.factorial(m))
        for j in range(m):
            direct *= (Fraction(-1, 2) + j) * (Fraction(3, 2) + j)
        assert c1(m) == direct and c1(m) == direct, m  # the second call reads the cache


def test_c1_refuses_negative_m_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            c1(-1)


# -- Bessel J1 ----------------------------------------------------------------------


def test_j1_at_zero():
    assert bessel_j1(0.0) == 0.0


def test_j1_series_value():
    assert abs(bessel_j1(1.0) - 0.4400505857449335) < 1e-14


def test_j1_series_matches_scipy():
    for x in (0.5, 2.0, 7.5, 20.0, 55.5, 120.0, 200.0):
        assert abs(bessel_j1(x) - float(scipy.special.j1(x))) < 1e-12, x


@pytest.mark.parametrize("x", [3.8317059702075125, 7.015586669815619, 0.3, 50.5, 181.7, 1000.25])
def test_j1_series_against_40_digit_mpmath(x):
    # the first two are J1's first two zeros, where a power series cut at a
    # fixed relative term size keeps only about 6 digits of the tiny value
    got = bessel_j1(x)
    with mpmath.workdps(40):
        ref = mpmath.besselj(1, x)
        err = abs((got - ref) / ref)
    assert err <= 1e-15, (x, float(err))


def test_j1_series_vs_asymptotic():
    for x in (15.0, 20.0, 50.0, 100.0, 200.0):
        d = abs(bessel_j1(x) - bessel_j1(x, "asymptotic", 3))
        assert d < 1e-8, (x, d)


def test_j1_asymptotic_rejects_zero():
    with pytest.raises(ValueError):
        bessel_j1(0.0, "asymptotic")
    with pytest.raises(ValueError):
        bessel_j1(1.0, "nope")


@pytest.mark.parametrize("x,method,N,msg", [
    # with N < 0 both c1 sums are empty: 0.0 where J_1(10) = 0.0435
    (10.0, "asymptotic", -1, "N must be nonnegative"),
    (math.nan, "series", 3, "x must be finite"),
    (math.inf, "series", 3, "x must be finite"),
    (math.nan, "asymptotic", 3, "x must be finite"),
    (math.inf, "asymptotic", 3, "x must be finite"),
])
def test_j1_parameter_domains(x, method, N, msg):
    with pytest.raises(ValueError, match=msg):
        bessel_j1(x, method, N)


# -- Hardy's series ---------------------------------------------------------------------


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(n_cut=0)
    with pytest.raises(ValueError):
        TruncationSpec(smooth_window=0)
    with pytest.raises(ValueError):
        TruncationSpec(n_cut=10, smooth_window=11)


def test_hardy_rejects_integer_x():
    with pytest.raises(ValueError):
        hardy_sum(10.0)


def test_hardy_close_to_exact_count():
    spec = TruncationSpec(20000, 2000, 64)
    assert abs(hardy_sum(2.5, spec) - lattice_count(2.5)) < 0.3


def test_hardy_window_average_beats_plain_truncation_in_sup():
    # cutoff averaging lowers the worst error over an x grid; pointwise it
    # can lose at small x where the window spans less than a phase period
    xs = np.linspace(5.3, 50.7, 10)
    errs = {}
    for w in (1, 64):
        spec = TruncationSpec(2000, 2000, w)
        errs[w] = max(abs(hardy_sum(float(x), spec) - lattice_count(float(x)))
                      for x in xs)
    assert errs[64] <= errs[1]


def _hardy_reference(x, spec):
    """hardy_sum as a dense pass computes it: J_1 at every n <= n_cut, zero
    weights included, and the running sum at every cutoff."""
    n = np.arange(1, spec.n_cut + 1, dtype=np.float64)
    bessel = scipy.special.j1(2 * math.pi * np.sqrt(n * x))
    terms = r2_table(spec.n_cut)[1:].astype(np.float64) / np.sqrt(n) * bessel
    return _window_mean(math.pi * x + math.sqrt(x) * np.cumsum(terms), spec.smooth_window)


HARDY_GRID = [(n_cut, w) for n_cut in (1, 2, 63, 64, 65, 1000, 10**5) for w in (1, 3, 64) if w <= n_cut]


@pytest.mark.parametrize("n_cut,window", HARDY_GRID)
def test_hardy_sum_equals_its_dense_formula(n_cut, window):
    spec = TruncationSpec(n_cut, 10, window)
    for x in (2.5, 13.37, 1000.7):
        assert hardy_sum(x, spec) == _hardy_reference(x, spec)


def test_hardy_sum_evaluates_j1_only_where_r2_is_nonzero(monkeypatch):
    # 24,028 of the n <= 10^5 are sums of two squares; a second call at the
    # same n_cut reads the kept support and still evaluates J_1 at all of them
    seen, real_j1 = [], scipy.special.j1

    def j1(z, out=None):
        seen.append(len(z))
        return real_j1(z, out=out)

    monkeypatch.setattr(scipy.special, "j1", j1)
    for n_cut, nonzero in ((1, 1), (2, 2), (3, 2), (10**5, 24028)):
        for x in (13.37, 2.5):
            seen.clear()
            hardy_sum(x, TruncationSpec(n_cut, 10, 1))
            assert sum(seen) == nonzero == int(np.count_nonzero(r2_table(n_cut)[1:]))


def test_hardy_sum_is_the_same_cold_warm_and_after_eviction():
    def hexes(spec):
        return [float.hex(hardy_sum(x, spec)) for x in (2.5, 13.37, 1000.7)]

    for n_cut, window in HARDY_GRID:
        spec = TruncationSpec(n_cut, 10, window)
        _hardy_support.cache_clear()
        cold = hexes(spec)
        assert hexes(spec) == cold, spec
        hardy_sum(2.5, TruncationSpec(n_cut + 1, 10, 1))  # evicts n_cut's support
        assert _hardy_support.cache_info().currsize == 1
        assert hexes(spec) == cold, spec


def test_hardy_support_refuses_writes_and_r2_table_does_not():
    at, n, weight = _hardy_support(1000)
    for arr in (at, n, weight):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    table = r2_table(1000)
    table[0] = 7  # the public table is the caller's own, uncached
    assert r2_table(1000)[0] == 1


def test_hardy_support_keeps_no_refusal(monkeypatch):
    def r2_table(n_max):
        raise MemoryError

    _hardy_support.cache_clear()
    monkeypatch.setattr(qforms.circle, "r2_table", r2_table)
    for _ in range(2):
        with pytest.raises(ValueError, match="n_cut 1234 is too large"):
            hardy_sum(2.5, TruncationSpec(1234, 10, 1))
        assert _hardy_support.cache_info().currsize == 0


# -- oscillatory sums -----------------------------------------------------------------------


def test_M_sum_at_b0_is_leibniz():
    # sum over odd k of (-1)^((k+1)/2)/k = -pi/4 at a = 0, b = 0
    got = oscillatory_sum("M", 1.0, 0.0, 0.0, TruncationSpec(2000, 20000, 256))
    assert abs(got + math.pi / 4) < 1e-6


def test_N_sum_at_half_pi_is_minus_beta():
    got = oscillatory_sum("N", 1.0, math.pi / 2, 0.0, TruncationSpec(2000, 20000, 256))
    assert abs(got + math.pi / 4) < 1e-6


def test_P_at_b0_factors_into_zeta_partial():
    spec = TruncationSpec(500, 500, 16)
    k = np.arange(1, spec.k_cut + 1, 2, dtype=np.float64)
    sign = np.where((((k + 1) // 2) % 2).astype(bool), -1.0, 1.0)
    inner = float(np.sum(sign * np.cos(0.7) / k ** 1.25))
    n = np.arange(1, spec.n_cut + 1, dtype=np.float64)
    expect = inner * _window_mean(np.cumsum(1.0 / n ** 1.25), spec.smooth_window)
    assert abs(oscillatory_sum("P", 1.25, 0.7, 0.0, spec) - expect) < 1e-12


def _odd_k_reference(which, s, a, b_arr, k_cut):
    """One P/Q inner sum per b, or the M/N partials, as one term alone
    computes them: phase, trig, weighted running sum along k."""
    k = np.arange(1, k_cut + 1, 2, dtype=np.float64)
    sign = np.where((((k + 1) // 2) % 2).astype(bool), -1.0, 1.0)
    trig = np.cos if which in "MP" else np.sin
    phase = a + np.outer(np.asarray(b_arr, dtype=np.float64), np.sqrt(k))
    return np.cumsum(trig(phase) * (sign / k ** s), axis=1)


def _oscillatory_reference(which, s, a, b, spec):
    if which in "MN":
        return _window_mean(_odd_k_reference(which, s, a, [b], spec.k_cut)[0], spec.smooth_window)
    n = np.arange(1, spec.n_cut + 1, dtype=np.float64)
    inner = np.empty(spec.n_cut, dtype=np.float64)
    block = max(1, 4_000_000 // max(1, spec.k_cut // 2))
    for lo in range(0, spec.n_cut, block):
        hi = min(lo + block, spec.n_cut)
        inner[lo:hi] = _odd_k_reference(which, s, a, b * np.sqrt(n[lo:hi]), spec.k_cut)[:, -1]
    return _window_mean(np.cumsum(inner / n ** s), spec.smooth_window)


def _R_expansion_reference(x, N, spec):
    a, b = math.pi / 4, 2 * math.pi * math.sqrt(x)
    total = x ** 0.25 / math.pi * _oscillatory_reference("P", 0.75, a, b, spec)
    for s in range(1, N + 1):
        total += ((-1) ** s * float(c1(2 * s))
                  * _oscillatory_reference("P", s + 0.75, a, b, spec)
                  / (2 ** (4 * s) * math.pi ** (2 * s + 1) * x ** (s - 0.25)))
    for s in range(0, N + 1):
        total -= ((-1) ** s * float(c1(2 * s + 1))
                  * _oscillatory_reference("Q", s + 1.25, a, b, spec)
                  / (2 ** (4 * s + 2) * math.pi ** (2 * s + 2) * x ** (s + 0.25)))
    return 4.0 * total


# (201, 40000, 64) runs the P/Q sums in two blocks of n, of 200 and 1
SPECS = [TruncationSpec(201, 40000, 64), TruncationSpec(50, 7, 3)]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("which", "MNPQ")
def test_oscillatory_sum_equals_its_one_term_formula(which, spec):
    for s, a, b in ((0.75, math.pi / 4, 2 * math.pi * math.sqrt(25.3)), (2.25, 0.7, 3.1)):
        assert oscillatory_sum(which, s, a, b, spec) == _oscillatory_reference(which, s, a, b, spec)


@pytest.mark.parametrize("N", range(4))
def test_R_expansion_equals_its_term_by_term_formula(N):
    big, tiny = SPECS
    assert R_expansion(25.3, N, big) == _R_expansion_reference(25.3, N, big)
    for x in (2.5, 25.3, 1000.7):
        assert R_expansion(x, N, tiny) == _R_expansion_reference(x, N, tiny)


# n_cut of 1 to 3 gives P/Q blocks of one or two columns; numpy would sum
# a one-column block pairwise, and k_cut 500 has enough odd k to differ
FEW_ROWS = [TruncationSpec(n_cut, k_cut, w) for n_cut in (1, 2, 3) for k_cut in (16, 500)
            for w in sorted({1, n_cut})]


@pytest.mark.parametrize("spec", FEW_ROWS, ids=[f"{s.n_cut}-{s.k_cut}-{s.smooth_window}" for s in FEW_ROWS])
def test_pq_sums_of_one_or_two_columns_equal_their_one_term_formulas(spec):
    a, b = math.pi / 4, 2 * math.pi * math.sqrt(25.3)
    for which in "PQ":
        for s in (0.75, 1.25):
            assert oscillatory_sum(which, s, a, b, spec) == _oscillatory_reference(which, s, a, b, spec)
    odd_p = TruncationSpec(spec.n_cut, 2 * spec.k_cut, spec.smooth_window)
    for x in (2.5, 25.3):
        assert S_sum(x, spec) == -_oscillatory_reference("P", 0.75, math.pi / 4, 2 * math.pi * math.sqrt(x), odd_p)
        for N in (0, 2):
            assert R_expansion(x, N, spec) == _R_expansion_reference(x, N, spec)


def test_oscillatory_sum_unknown_kind():
    with pytest.raises(ValueError):
        oscillatory_sum("X", 1.0, 0.0, 0.0)


# -- the R(x) expansion -----------------------------------------------------------------------


def test_R_expansion_requires_x_above_one():
    for x in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="x must exceed 1"):
            R_expansion(x, 0)


@pytest.mark.parametrize("x,N", [(1e250, 1), (1e200, 2), (2.0, 200)])
def test_R_expansion_past_the_float_range_is_refused_before_any_sum(x, N, monkeypatch):
    # x^(N + 1/4) or a c1 coefficient overflows a float
    def no_sums(*args):
        raise AssertionError("a P/Q sum ran")

    monkeypatch.setattr(qforms.circle, "_pq_sums", no_sums)
    with pytest.raises(ValueError, match=f"order-{N} expansion at x = .* past the float range"):
        R_expansion(x, N)


def test_R_expansion_below_the_float_range_is_unchanged():
    tiny = SPECS[1]
    for x, N in ((1e200, 1), (1e100, 2), (1e300, 0)):
        assert R_expansion(x, N, tiny) == _R_expansion_reference(x, N, tiny)


def test_R_expansion_close_to_exact_error():
    exact = lattice_count(2.5) - math.pi * 2.5
    assert abs(R_expansion(2.5, 0) - exact) < 0.5


def test_R_expansion_first_order_no_worse_than_zeroth():
    exact = lattice_count(100.5) - math.pi * 100.5
    e0 = abs(R_expansion(100.5, 0) - exact)
    e1 = abs(R_expansion(100.5, 1) - exact)
    assert e1 <= e0 + 0.1


def test_S_sum_stable_under_doubled_cutoffs():
    a = S_sum(2.5)
    b = S_sum(2.5, TruncationSpec(4000, 4000, 64))
    assert abs(a - b) < 0.1


def _S_sum_outer_product(x, spec):
    """The (n, p) outer-product sum S_sum was first written as."""
    n = np.arange(1, spec.n_cut + 1, dtype=np.float64)
    p = np.arange(1, 2 * spec.k_cut, 2, dtype=np.float64)
    sign = np.where(np.arange(len(p)) % 2 == 0, 1.0, -1.0)
    inner = np.empty(spec.n_cut, dtype=np.float64)
    block = max(1, 4_000_000 // len(p))
    for lo in range(0, spec.n_cut, block):
        hi = min(lo + block, spec.n_cut)
        prod = np.outer(n[lo:hi], p)
        terms = sign * np.cos(2 * math.pi * np.sqrt(prod * x) + math.pi / 4) / prod ** 0.75
        inner[lo:hi] = terms.sum(axis=1)
    return _window_mean(np.cumsum(inner), spec.smooth_window)


@pytest.mark.parametrize("spec", [TruncationSpec(500, 500, 64), TruncationSpec(50, 7, 3),
                                  TruncationSpec()])
def test_S_sum_is_the_outer_product_sum(spec):
    for x in (1.0, 2.5, 25.3, 49.9):
        assert abs(S_sum(x, spec) - _S_sum_outer_product(x, spec)) <= 1e-12, x


def test_S_sum_domain():
    with pytest.raises(ValueError):
        S_sum(0.0)


# -- G and its running sup ------------------------------------------------------------------------


def test_G_single_term():
    x = 7.3
    assert abs(G(0.0, x, 1) - math.cos(2 * math.pi * math.sqrt(x) + math.pi / 4)) < 1e-15


def test_G_parameter_domains():
    # past the checks, x < 0 or a non-finite x makes the sums nan (np.cos
    # returns nan at inf without raising) and M = 0 makes g_running_sup's
    # maximum an empty reduction
    for fn in (G, g_running_sup):
        for h, x, M, msg in ((0.25, 1.0, 10, "h must"), (0.0, 1.0, 0, "M must"),
                             (0.0, -1.0, 10, "x must"), (0.0, 2.5, 0, "M must"),
                             (0.0, math.inf, 10, "x must"), (0.0, math.nan, 10, "x must")):
            with pytest.raises(ValueError, match=msg):
                fn(h, x, M)
        # 5 x = 5e308 is past the float range: its terms would be nan
        with pytest.raises(ValueError, match="n x passes the float range"):
            fn(0.0, 1e308, 5)
    assert abs(G(0.0, 1e308, 1) - math.cos(2 * math.pi * math.sqrt(1e308) + math.pi / 4)) < 1e-15


def test_circle_parameter_domains_catch_nan_and_inf():
    # NaN passes a plain `a <= 0` check, after which the sums come out nan or
    # fail with an unrelated message; lattice_count(inf) would raise OverflowError
    for fn, rest, name in ((lattice_count, (), "x"), (S_sum, (), "x"),
                           (euler_maclaurin_residual, (10,), "a"),
                           (euler_maclaurin_f4_bound, (10,), "a"),
                           (fresnel_closed_sum, (10,), "a")):
        for v in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                fn(v, *rest)
    with pytest.raises(ValueError, match="M must be positive"):
        fresnel_closed_sum(1.5, math.nan)


def test_G_is_one_correctly_rounded_sum_across_blocks():
    # G sums its terms in blocks of 2^16 into one fsum: at every M, blocks
    # or not, it equals the fsum of the whole term array
    for h, x, M in ((0.0, 2.5, 65535), (0.1, 7.3, 65536), (0.0, 0.7, 65537), (0.2, 19.1, 140000)):
        n = np.arange(1, M + 1, dtype=np.float64)
        terms = np.cos(2 * math.pi * np.sqrt(n * x) + math.pi / 4) / n ** (0.75 - h)
        assert G(h, x, M) == math.fsum(terms.tolist()), (h, x, M)


def test_g_running_sup_matches_direct_max():
    x = 25.5
    direct = max(abs(G(0.0, x, M)) for M in range(1, 65))
    assert abs(g_running_sup(0.0, x, 64) - direct) < 1e-12


def test_g_running_sup_is_the_max_of_its_running_sums():
    for h, x, M in ((0.0, 25.5, 1), (0.1, 0.0, 1000), (0.2, 1e4 + 0.3, 65537)):
        n = np.arange(1, M + 1, dtype=np.float64)
        terms = np.cos(2 * math.pi * np.sqrt(n * x) + math.pi / 4) / n ** (0.75 - h)
        assert g_running_sup(h, x, M) == float(np.max(np.abs(np.cumsum(terms))))


# -- Fresnel integrals -------------------------------------------------------------------------------


def test_fresnel_at_zero():
    assert fresnel(0.0) == (0.0, 0.0)


def test_fresnel_known_values():
    C, S = fresnel(1.0)
    assert abs(C - 0.7798934003768228) < 1e-12
    assert abs(S - 0.4382591473903548) < 1e-12


def test_fresnel_matches_quadrature():
    for z in (0.5, 1.0, 1.7, 2.4):
        C, S = fresnel(z)
        qc, _ = scipy.integrate.quad(lambda t: math.cos(math.pi * t * t / 2), 0, z)
        qs, _ = scipy.integrate.quad(lambda t: math.sin(math.pi * t * t / 2), 0, z)
        assert abs(C - qc) < 1e-10 and abs(S - qs) < 1e-10, z


def test_fresnel_rejects_negative():
    for z in (-1.0, math.nan):
        with pytest.raises(ValueError, match="z must be nonnegative"):
            fresnel(z)
    assert fresnel(math.inf) == (0.5, 0.5)


def test_fresnel_past_the_overflow_of_z_squared_is_one_half():
    # scipy returns nan once z^2 overflows, where |F(z) - 1/2| < 1/(pi z) is
    # far below half an ulp of 1/2
    last = math.sqrt(sys.float_info.max)
    while math.isinf(last * last):
        last = math.nextafter(last, 0.0)
    first = math.nextafter(last, math.inf)
    assert math.isinf(first * first)
    s, c = scipy.special.fresnel(last)
    assert (float(c), float(s)) == fresnel(last) == (0.5, 0.5)
    assert all(map(math.isnan, scipy.special.fresnel(first)))
    for z in (first, 1e155, 1e300, sys.float_info.max):
        assert fresnel(z) == (0.5, 0.5), z


def test_fresnel_closed_sum_envelope():
    # the closed form tracks the direct sum within 2 + 4 pi sqrt(a)
    for a in (1.0, 2.0, 3.0):
        bound = 2.0 + 4.0 * math.pi * math.sqrt(a)
        Ms = list(range(1, 1001)) + [2 ** j for j in range(10, 17)] + [100000]
        worst = max(abs(G(0.0, a, M) - fresnel_closed_sum(a, M)) for M in Ms)
        assert worst <= bound, (a, worst, bound)


def test_fresnel_closed_sum_difference_stops_growing():
    a = 2.0
    small = max(abs(G(0.0, a, M) - fresnel_closed_sum(a, M))
                for M in range(1, 10001, 7))
    big = max(abs(G(0.0, a, M) - fresnel_closed_sum(a, M))
              for M in range(10001, 100002, 599))
    assert big <= small + 0.1


# -- Euler-Maclaurin ------------------------------------------------------------------------------------


def test_em_defect_zero_for_constant():
    d = euler_maclaurin_defect(lambda t: 1.0, lambda t: 0.0, lambda t: t, 50)
    assert d == 0.0


def test_em_residual_within_f4_bound():
    for a in (0.5, 1.0, 2.0):
        for M in (10, 100, 1000):
            assert euler_maclaurin_residual(a, M) <= euler_maclaurin_f4_bound(a, M), (a, M)


def test_em_f4_display_is_true_fourth_derivative():
    for a, t in ((1.0, 2.0), (2.0, 5.0), (0.5, 3.0)):
        def F(u):
            return mpmath.cos(2 * mpmath.pi * mpmath.sqrt(a * u) + mpmath.pi / 4) / mpmath.sqrt(u)
        with mpmath.workdps(40):
            want = float(mpmath.diff(F, t, 4))
        assert abs(em_f4(a, t) - want) < 1e-10, (a, t)


# -- scans --------------------------------------------------------------------------------------------------


def test_scan_row_at_25():
    res = scan_R(30.0, step=1.0)
    row = res.rows[24]
    assert row.x == 25.0
    assert row.count == 81 == lattice_count(25)
    assert math.isclose(row.pi_x, 25 * math.pi, rel_tol=1e-14)
    assert math.isclose(row.R, 81 - 25 * math.pi, rel_tol=1e-12)
    assert math.isclose(row.R_scaled, row.R / 25 ** 0.25, rel_tol=1e-12)


def test_scan_rows_consistent_with_exact_counter():
    res = scan_R(40.0, step=0.5)
    for row in res.rows:
        assert row.count == lattice_count(row.x)
        assert math.isclose(row.R, row.count - row.pi_x, rel_tol=0, abs_tol=1e-9)


@pytest.mark.parametrize("scan", [scan_columns, scan_R])
def test_scan_with_a_step_past_x_max_is_refused(scan):
    with pytest.raises(ValueError, match="no rows"):
        scan(1.0, 5.0)


def test_scan_delta_guard():
    with pytest.raises(ValueError):
        scan_R(10.0, delta=0.25)


def test_scan_summary_g_sups_stable():
    res = scan_R(100.0, collect_rows=False)
    s = res.summary
    assert s["sup_G_halfM"] <= s["sup_G"] <= s["sup_G_halfM"] + 0.1
    assert s["sup_G_delta"] >= s["sup_G"]  # larger h weakens the decay


@pytest.mark.parametrize("x_max", [100, 10**6])
@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_scan_summary_g_sups_are_running_sups_on_its_grid(x_max, delta):
    grid = [j * x_max / 20 + 0.5 for j in range(1, 21)]
    s = scan_R(x_max, 1.0, delta, collect_rows=False).summary
    assert s["sup_G"] == max(g_running_sup(0.0, gx, 1 << 17) for gx in grid)
    assert s["sup_G_halfM"] == max(g_running_sup(0.0, gx, 1 << 16) for gx in grid)
    assert s["sup_G_delta"] == max(g_running_sup(delta, gx, 1 << 17) for gx in grid)


def _dense_counts(n):
    """Lattice counts at 0..n from a dense per-i fancy-index sieve."""
    arr = np.zeros(n + 1, dtype=np.int64)
    arr[0] = 1
    for i in range(1, math.isqrt(n) + 1):
        arr[i * i] += 4
        js = np.arange(1, math.isqrt(n - i * i) + 1, dtype=np.int64)
        arr[i * i + js * js] += 4
    return np.cumsum(arr)


@pytest.mark.parametrize("step", [1.0, 0.37, 7.77])
@pytest.mark.parametrize("rows", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
def test_scan_columns_at_block_edges(rows, step):
    x_max = (rows + 0.5) * step
    x, counts, pi_x, R, R_scaled = scan_columns(x_max, step)
    k = np.arange(1, rows + 1, dtype=np.float64)
    assert np.array_equal(x, k * step)
    fl = np.floor(x).astype(np.int64)
    assert np.array_equal(counts, _dense_counts(int(fl[-1]))[fl])
    assert np.array_equal(pi_x, math.pi * x)
    assert np.array_equal(R, counts - pi_x)
    assert np.array_equal(R_scaled, R / x ** 0.25)
    edges = {e + d for e in range(0, rows, 1 << 16) for d in (-2, -1, 0, 1)} | {rows - 1}
    for i in sorted(e for e in edges if 0 <= e < rows):
        assert counts[i] == lattice_count(int(fl[i])), (i, x[i])


@pytest.mark.parametrize("step", [1.0, 0.37, 7.77])
def test_scan_R_rows_are_the_columns_across_blocks(step):
    x_max = ((1 << 16) + 1.5) * step
    res = scan_R(x_max, step)
    cols = scan_columns(x_max, step)
    assert res.rows == [ScanRow(float(a), int(b), float(c), float(d), float(e))
                        for a, b, c, d, e in zip(*cols)]
    assert res.summary["sup_R_scaled"] == float(np.max(np.abs(cols[4])))
    assert scan_R(x_max, step, collect_rows=False).summary == res.summary


def _child_peak(code):
    """Run code in a child interpreter that imports this qforms; return its
    printed words, then its peak RSS in kB.  The child reads it as VmHWM:
    Linux carries ru_maxrss across exec, so that would report this test
    process's own peak."""
    code += "; print([l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0].split()[1])"
    src = str(Path(qforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, timeout=120).stdout.split()
    return out[:-1], int(out[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_scan_R_memory_does_not_grow_with_x_max():
    # the dense sieve held r2, its cumsum and eight full columns: 640 MB at 10^7
    (s,), peak = _child_peak("from qforms.circle import scan_R; "
                             "print(repr(scan_R(10**7, 1.0, collect_rows=False).summary['sup_R_scaled']))")
    assert float(s) == 8.038895505529606
    assert peak < 150 * 1024  # kB


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_scan_columns_blocks_on_two_cpus_allocate_no_columns():
    # A pool worker's arrays stay in its own malloc arena. The blocks write
    # their columns and buffers through out= and allocate only their r2
    # sieve temporaries: the child peaked at 75.8-76.4 MB, 40 MB of it the
    # columns, against 76.8-77.0 MB when the blocks ran on the calling
    # thread alone (2-vCPU x86-64, numpy 2.4). The bound is that peak plus
    # 1 MB; blocks that allocated their three int64 buffers and five float
    # columns peaked at 76.5-80.3 MB.
    (count,), peak = _child_peak("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
                                 "from qforms.circle import scan_columns; "
                                 "print(scan_columns(10**6, 1.0)[1][-1])")
    assert int(count) == lattice_count(10**6)
    assert peak < 78 * 1024  # kB


def test_dense_scan_sup_regression():
    # the observed sup of |R(x)|/x^(1/4) over integer x <= 10^6; later runs
    # must reproduce it exactly (pure integer counting plus fixed float ops)
    x, counts, pi_x, R, R_scaled = scan_columns(1_000_000, 1.0)
    i = int(np.argmax(np.abs(R_scaled)))
    assert float(np.max(np.abs(R_scaled))) == pytest.approx(7.281594263951899, abs=1e-9)
    assert x[i] == 574560.0
    assert counts[i] == lattice_count(574560)


# -- the passes spread over the allowed CPUs ---------------------------------------------------

# Truncations whose P/Q blocks have an odd number of rows: one block of 301
# (halves of 151 and 150), and blocks of 5, 5 and 1 with 750,000 odd k.
ODD_ROWS = [TruncationSpec(301, 999, 17), TruncationSpec(11, 1_500_000, 3)]

# Halves of two columns and one column, the second summed as a running sum.
THREE_ROWS = TruncationSpec(3, 500, 3)

CPU_CASES = {
    "scan_R[1e6]": lambda: scan_R(10**6, 1.0, collect_rows=False).summary,
    "scan_R[300,0.7]": lambda: scan_R(300, 0.7, 0.2),
    "R_expansion": lambda: [R_expansion(25.3, 3, spec) for spec in SPECS + ODD_ROWS[:1] + [THREE_ROWS]],
    "S_sum": lambda: [S_sum(x, spec) for spec in SPECS + ODD_ROWS[:1] + [THREE_ROWS] for x in (2.5, 25.3)],
    "oscillatory_sum": lambda: [oscillatory_sum(which, 1.25, 0.7, 3.1, spec)
                                for spec in SPECS + ODD_ROWS + [THREE_ROWS] for which in "PQ"],
    "hardy_sum": lambda: [hardy_sum(13.37), hardy_sum(2.5, TruncationSpec(100001, 10, 64))],
    # four blocks, the last of five rows; and a step whose floors repeat and
    # skip values across the block edges
    "scan_columns[1.0]": lambda: [c.tobytes() for c in scan_columns(3 * (1 << 16) + 5.5, 1.0)],
    "scan_columns[0.37]": lambda: [c.tobytes() for c in scan_columns((3 * (1 << 16) + 5.5) * 0.37, 0.37)],
    "scan_columns[7.77]": lambda: [c.tobytes() for c in scan_columns(((1 << 16) + 1.5) * 7.77, 7.77)],
}


def _allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("case", sorted(CPU_CASES))
def test_results_do_not_depend_on_the_cpu_count(case, cpus, monkeypatch):
    # 4 CPUs runs a pool of three workers, more than the cores of a small
    # machine, and the short switch interval interleaves the threads often
    expected = CPU_CASES[case]()
    interval = sys.getswitchinterval()
    faulthandler.dump_traceback_later(120, exit=True)  # a stuck pool ends the run, not hangs it
    try:
        _allow_cpus(monkeypatch, cpus)
        sys.setswitchinterval(1e-5)
        assert CPU_CASES[case]() == expected
    finally:
        sys.setswitchinterval(interval)
        faulthandler.cancel_dump_traceback_later()


def test_workers_call_no_public_circle_function(monkeypatch):
    # a tracer that wraps the public functions keeps one span stack; hardy_sum
    # calls r2_table only when its support for the default n_cut is not kept
    _hardy_support.cache_clear()
    calls = []
    for name, fn in list(vars(qforms.circle).items()):
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == "qforms.circle":
            def recorded(*args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(qforms.circle, name, recorded)
    _allow_cpus(monkeypatch, 4)
    qforms.circle.scan_R(1000.0, 0.7)
    qforms.circle.R_expansion(25.3, 1, SPECS[0])
    qforms.circle.S_sum(25.3, SPECS[0])
    qforms.circle.hardy_sum(13.37)
    qforms.circle.scan_columns(3 * (1 << 16) + 0.5, 1.0)
    assert ({"scan_R", "scan_columns", "R_expansion", "S_sum", "hardy_sum", "r2_table"}
            <= {name for name, _ in calls})
    assert {ident for _, ident in calls} == {threading.get_ident()}
