"""The four workloads: seeded operation lists with their reference checks.

Sizes are fixed per workload; the seed only picks parameters (coefficients,
window offsets, evaluation points), drawn from cost-matched strata so that a
different seed changes what is computed but not how much.

Each Op runs through `run(ctx)`, which looks qforms functions up on their
modules at call time so the tracer's wrappers are seen, and is checked by
`check(result)` outside the timed region.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import refs
from run import ROOT, child_env
from qforms import arith, circle, elliptic, repcount, series, theta

HLS = series.HalfLaurentSeries


@dataclass
class Op:
    name: str        # operation and its fixed size
    layer: str       # qforms module the operation calls into
    params: str      # seeded parameters, for the record
    run: Callable
    check: Callable
    kernel: str = "python"  # calibration kernel it is timed beside (calib.py)


@dataclass
class Ctx:
    """What one pass hands its operations: earlier results of the same pass,
    and for CLI runs whether to go through the tracing shim."""

    results: dict = field(default_factory=dict)
    traced: bool = False
    span_dir: Path | None = None
    cli_runs: list = field(default_factory=list)


def memo(fn):
    """Compute a reference once, on first use (outside the timed region)."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def strata(rng, lo, hi, k):
    """k draws, one uniform draw from each of k equal slices of [lo, hi)."""
    w = (hi - lo) / k
    return [lo + w * (i + rng.random()) for i in range(k)]


def unit_series(rng, order):
    """Dense unit series: constant 1, other coefficients in +-{1, 2, 3}."""
    return [1] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(order - 1)]


def reset_caches():
    """Clear qforms' lru caches so every pass computes from scratch."""
    for mod in (arith, series, theta, repcount, elliptic, circle):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


# -- series_tables --------------------------------------------------------------


def series_tables(rng):
    ops = []
    for order in (256, 512, 1024):
        fc, gc = unit_series(rng, order), unit_series(rng, order)
        f, g = HLS(0, fc, order), HLS(0, gc, order)
        sq = [int(v) for v in np.convolve(np.array(fc, dtype=np.int64), np.array(fc, dtype=np.int64))[:order]]
        fsq = HLS(0, sq, order)
        want_mul = memo(lambda fc=fc, gc=gc, n=order: refs.schoolbook(fc, gc, n))
        want_sq = memo(lambda fc=fc, n=order: refs.schoolbook(fc, fc, n))
        one = [1] + [0] * (order - 1)
        tag = f"f0={fc[1]:+d}{fc[2]:+d}{fc[3]:+d}"
        ops += [
            Op(f"series.mul[{order}]", "series", tag, lambda c, f=f, g=g: f * g,
               lambda r, w=want_mul, n=order: refs.check_coeffs(refs.series_coeffs(r, n), w())),
            Op(f"series.square[{order}]", "series", tag, lambda c, f=f: f.square(),
               lambda r, w=want_sq, n=order: refs.check_coeffs(refs.series_coeffs(r, n), w())),
            Op(f"series.sqrt[{order}]", "series", tag, lambda c, s=fsq: s.sqrt(),
               lambda r, sq=sq, n=order: _check_by_product(r, r, sq, n)),
            Op(f"series.inverse[{order}]", "series", tag, lambda c, f=f: f.inverse(),
               lambda r, fc=fc, one=one, n=order: _check_by_product(r, fc, one, n)),
        ]
    for order in (256, 512):
        hc = unit_series(rng, order)
        h = HLS(0, hc, order)
        tag = f"h0={hc[1]:+d}{hc[2]:+d}{hc[3]:+d}"
        ops += [
            Op(f"series.log[{order}]", "series", tag, lambda c, h=h: h.log(),
               lambda r, hc=hc, n=order: _check_log(r, hc, n)),
            Op(f"series.exp_neg[{order}]", "series", tag,
               lambda c, n=order: series.exp_neg(-c.results[f"series.log[{n}]"]),
               lambda r, hc=hc, n=order: refs.check_coeffs(refs.series_coeffs(r, n), hc)),
        ]
    fc = unit_series(rng, 32)
    f32 = HLS(0, fc, 32)
    for n in (16, 20, 24):
        ops.append(Op(f"series.sqrt_coeff_fdb[{n}]", "series", f"f0={fc[1]:+d}{fc[2]:+d}",
                      lambda c, n=n: series.sqrt_coeff_fdb(f32, n),
                      lambda r, n=n: _check_value(r, refs.sqrt_coeff(fc, n))))
    two_forms = rng.sample([(1, 6), (2, 3), (3, 2), (6, 1)], 2)
    diag = tuple(rng.sample([1, 2, 3], 3))
    terms = rng.choice((((3, -2), (3, -2)), ((3, 2), (3, 2)), ((3, -2), (3, 2))))
    for bucket, (A, B) in zip((1024, 2048), two_forms):
        n = rng.randrange(bucket // 2, bucket)
        want = memo(lambda A=A, B=B, n=n: repcount.oracle_count(repcount.FormSpec.two_form(A, B), n).count(n))
        ops.append(Op(f"repcount.count_two_form[n<{bucket}]", "repcount", f"A={A},B={B},n={n}",
                      lambda c, A=A, B=B, n=n: repcount.count_two_form(A, B, n),
                      lambda r, w=want: _check_value(r, w())))
    for n_max in (1024, 2048):
        want = memo(lambda n=n_max: repcount.oracle_count(repcount.FormSpec.diagonal(diag), n).counts)
        ops.append(Op(f"repcount.count_diagonal[{n_max}]", "repcount", f"coeffs={diag}",
                      lambda c, n=n_max: repcount.count_diagonal(diag, n),
                      lambda r, w=want: refs.check_counts(r.counts, w())))
        want = memo(lambda n=n_max: repcount.oracle_count(repcount.FormSpec(terms), n).counts)
        ops.append(Op(f"repcount.exp_method_count[{n_max}]", "repcount", f"terms={terms}",
                      lambda c, n=n_max: repcount.exp_method_count(terms, n),
                      lambda r, w=want: refs.check_counts(r.counts, w())))
    for order in (128, 256):
        ops += [
            Op(f"theta.phi_product[{order}]", "theta", "", lambda c, o=order: theta.phi_product(o),
               lambda r, o=order: refs.check_coeffs(refs.series_coeffs(r, 2 * o), _theta3(2 * o))),
            Op(f"theta.psi_product[{order}]", "theta", "", lambda c, o=order: theta.psi_product(o),
                lambda r, o=order: refs.check_coeffs(refs.series_coeffs(r, 2 * o), _psi(2 * o))),
        ]
    # High rank at n <= 200: these sizes reach the int64 wraparound defect.
    r2 = memo(lambda: refs.r2_list(200))
    t1 = memo(lambda: refs.tri_values(1, 200))
    for N in (8, 16, 24, 32):
        want = memo(lambda N=N: refs.power(r2(), N // 2, 200))
        ops.append(Op(f"repcount.r_N_squares[N={N},200]", "repcount", "",
                      lambda c, N=N: repcount.r_N_squares(N, 200),
                      lambda r, w=want: refs.check_counts(r.counts, w(), refs.first_overflow(w()))))
    for N in (8, 16, 24):
        want = memo(lambda N=N: refs.power(r2(), N // 2, 200))
        inner = memo(lambda N=N: refs.first_overflow(refs.power(r2(), N, 200)))
        ops.append(Op(f"repcount.count_diagonal[ones={N},200]", "repcount", "",
                      lambda c, N=N: repcount.count_diagonal([1] * N, 200),
                      lambda r, w=want, i=inner: refs.check_counts(r.counts, w(), i())))
    for N in (8, 16, 24, 32):
        want = memo(lambda N=N: refs.power(t1(), N, 200))
        ops.append(Op(f"repcount.tri_count[m=1,N={N},200]", "repcount", "",
                      lambda c, N=N: repcount.tri_count(1, N, 200),
                      lambda r, w=want: refs.check_counts(r.counts, w(), refs.first_overflow(w()))))
    return ops


def _check_by_product(r, other, want, n):
    """r * other == want in the first n coefficients, by schoolbook product."""
    got = refs.series_coeffs(r, n)
    if got is None:
        return refs.Verdict(False, 0, None, "truncation order too low")
    other = other if isinstance(other, list) else refs.series_coeffs(other, n)
    v = refs.check_coeffs(refs.schoolbook(got, other, n), want)
    return refs.Verdict(v.ok, n, v.defect, v.detail)


def _check_log(r, hc, n):
    """log h = L iff L(0) = 0 and h * L' = h' (formal derivative identity)."""
    got = refs.series_coeffs(r, n)
    if got is None or got[0] != 0:
        return refs.Verdict(False, n, None, "log must have zero constant term")
    v = refs.check_coeffs(refs.schoolbook(hc, refs.derivative(got), n - 1), refs.derivative(hc))
    return refs.Verdict(v.ok, n, v.defect, v.detail)


def _check_value(got, want):
    if got == want:
        return refs.Verdict(True, 1)
    return refs.Verdict(False, 1, None, f"got {got}, expected {want}")


def _theta3(n_half):
    out = [0] * n_half
    k = 0
    while 2 * k * k < n_half:
        out[2 * k * k] = 1 if k == 0 else 2
        k += 1
    return out


def _psi(n_half):
    out = [0] * n_half
    k = 0
    while k * (k + 1) < n_half:
        out[k * (k + 1)] = 1
        k += 1
    return out


# -- closed_ranges ----------------------------------------------------------------


W = 512  # values per range query


def closed_ranges(rng):
    ops = []
    top = 20100
    r2 = memo(lambda: np.array(refs.r2_list(2 * top), dtype=np.int64))
    spf = memo(lambda: refs.smallest_prime_factors(top))

    def windows(k, lo, hi, width=W):
        return [range(int(s), int(s) + width) for s in strata(rng, lo, hi - width, k)]

    def add(name, layer, fn, want, rngs, param=""):
        for w in rngs:
            label = f"{w.start}..{w.stop - 1}"
            ops.append(Op(f"{name}[{len(w)}]", layer, f"{param}n={label}".lstrip(","),
                          lambda c, w=w: [fn(n) for n in w],
                          lambda r, w=w, ref=memo(lambda w=w: [want(n) for n in w]): refs.check_counts(r, ref())))

    add("repcount.cubic_count", "repcount", lambda n: repcount.cubic_count(n),
        lambda n: repcount.oracle_odd_power_pairs(3, n, "integer"), windows(4, 18000, 20000))
    add("repcount.quintic_count", "repcount", lambda n: repcount.quintic_count(n),
        lambda n: repcount.oracle_odd_power_pairs(5, n, "nonneg"), windows(4, 18000, 20000))
    for m in rng.sample((2, 4, 6), 2):
        add("repcount.tri_N_closed[N=4,even m]", "repcount", lambda n, m=m: repcount.tri_N_closed(m, 4, n),
            lambda n, m=m: _conv_at(r2(), 2 * n + m * m), windows(1, 9000, 10000), f"m={m},")
    for m in rng.sample((1, 3, 5), 2):
        # the odd-m closed form carries 1/16 of the lattice count
        shift = (m * m + 7) // 8  # lifts every t_m(x) to >= 0
        t2 = memo(lambda m=m, c=shift: np.convolve(*[np.array(refs.tri_values(m, top, c), dtype=np.int64)] * 2))
        add("repcount.tri_N_closed[N=4,odd m]", "repcount", lambda n, m=m: repcount.tri_N_closed(m, 4, n),
            lambda n, t2=t2, c=shift: _ratio(_conv_at(t2(), n + 4 * c), 16), windows(1, 9000, 10000), f"m={m},")
    add("repcount.r4_closed", "repcount", lambda n: repcount.r4_closed(n),
        lambda n: _conv_at(r2(), n), windows(4, 18000, 20000))
    for m in rng.sample((2, 3, 4, 5), 4):
        add("repcount.s_m", "repcount", lambda n, m=m: repcount.s_m(m, n),
            lambda n, m=m: _pairs(m, n), windows(1, 18000, 20000), f"m={m},")
    for w in windows(16, 18000, 20000, 64):
        ms = [m for m in w if m % 4 in (0, 3)]
        ops.append(Op("arith.class_number[64]", "arith", f"D=-{w.start}..-{w.stop - 1}",
                      lambda c, ms=ms: [arith.class_number(-m) for m in ms],
                      lambda r, ms=ms, ref=memo(lambda ms=ms: [refs.class_number(-m) for m in ms]):
                          refs.check_counts(r, ref())))
    for k, h in rng.sample(((3, 1), (3, 2), (4, 1), (4, 3), (5, 2)), 4):
        add("arith.f_kh", "arith", lambda n, k=k, h=h: arith.f_kh(k, h, n),
            lambda n, k=k, h=h: _ratio(sum(d for d in refs.divisors_from(n, spf())
                                           if d % (2 * k) in (0, (k + h) % (2 * k), (k - h) % (2 * k))), n),
            windows(1, 18000, 20000), f"k={k},h={h},")
    for a in rng.sample(range(2, 13), 4):
        add("arith.sigma_star", "arith", lambda n, a=a: arith.sigma_star(a, n),
            lambda n, a=a: _ratio(sum(d for d in refs.divisors_from(n, spf()) if math.gcd(d, a) == 1), n),
            windows(1, 18000, 20000), f"a={a},")
    add("repcount.count_power_sum[nu=3]", "repcount", lambda n: repcount.count_power_sum(("power", 3), n),
        lambda n: repcount.oracle_odd_power_pairs(3, n, "nonneg"), windows(4, 18000, 20000))
    # N = 3 goes through r3, whose series fallback convolves up to the 8192 bucket.
    for m in (rng.choice((2, 4)), rng.choice((2, 4))):
        add("repcount.tri_N_closed[N=3]", "repcount", lambda n, m=m: repcount.tri_N_closed(m, 3, n),
            lambda n, m=m: refs.r3_at(2 * n + 3 * (m // 2) ** 2, r2()), windows(2, 2100, 4060, 64), f"m={m},")
    return ops


def _conv_at(a, k):
    """Coefficient k of a * a (exact: the entries here are small)."""
    return int(np.dot(a[: k + 1], a[k::-1]))


def _pairs(m, n):
    """Lattice pairs t_m(x) + t_m(y) = n, t_m(x) = (x^2 + m x)/2, by enumeration
    of the doubled values x^2 + m x (t_m is a half-integer for even m, odd x)."""
    vals = {}
    x = -(m + math.isqrt(4 * n) + 2)
    while True:
        v = x * x + m * x
        if x > 0 and v > 2 * n + m * m:
            break
        vals[v] = vals.get(v, 0) + 1
        x += 1
    return sum(c * vals.get(2 * n - v, 0) for v, c in vals.items())


def _ratio(p, q):
    f = Fraction(p, q)
    return f.numerator if f.denominator == 1 else f


# -- numeric_scan -----------------------------------------------------------------


def numeric_scan(rng):
    ops = []
    # Array work is timed beside the numpy kernel; bessel_j1 (mpmath), G
    # (math.fsum) and the elliptic checks run in the interpreter.
    ops.append(Op("circle.scan_R[1e6]", "circle", "",
                  lambda c: circle.scan_R(10**6, 1.0, collect_rows=False), _check_scan_R, "numpy"))
    # 10^6, not 10^7: at 10^7 the scan's 80 MB arrays made it most of the
    # workload, and their page faults swing with the host's memory traffic.
    sample = sorted(rng.sample(range(10**6 - 1), 200)) + [10**6 - 1]
    ops.append(Op("circle.scan_columns[1e6,step=1]", "circle", "",
                  lambda c: circle.scan_columns(10**6, 1.0),
                  lambda r: _scan_verdict(r, Fraction(1), sample, 10**6), "numpy"))
    for step in ("0.5", "0.3", "0.7"):
        s = Fraction(step)
        ops.append(Op(f"circle.scan_columns[1e3,step={step}]", "circle", "",
                      lambda c, s=step: circle.scan_columns(1000, float(s)),
                      lambda r, s=s: _scan_verdict(r, s, range(math.floor(1000 / s)), math.floor(1000 / s))))
    for k in strata(rng, 0, 30, 4):
        x = int(k) + round(rng.uniform(0.1, 0.9), 3)  # clear of the jumps at integers
        ops.append(Op("circle.hardy_sum[n_cut=1e5]", "circle", f"x={x}",
                      lambda c, x=x: circle.hardy_sum(x, circle.TruncationSpec(n_cut=100000)),
                      lambda r, x=x: _close(r, refs.lattice_count_exact(x), 0.3), "numpy"))
    spec = circle.TruncationSpec(n_cut=500, k_cut=500)
    for x in strata(rng, 2.0, 100.0, 2):
        ops.append(Op("circle.R_expansion[N=1,cut=500]", "circle", f"x={x:.6f}",
                      lambda c, x=x: circle.R_expansion(x, 1, spec),
                      lambda r, x=x: _close(r, _R_expansion(x, 1, 500, 500, 64), 1e-9), "numpy"))
    for x in strata(rng, 1.0, 50.0, 2):
        ops.append(Op("circle.S_sum[cut=500]", "circle", f"x={x:.6f}",
                      lambda c, x=x: circle.S_sum(x, spec),
                      lambda r, x=x: _close(r, _S_sum(x, 500, 500, 64), 1e-9), "numpy"))
    from scipy.special import j1
    for i in range(10):  # the series costs grow with x, so the seed only jitters a fixed grid
        x = 15.0 + 18.5 * i + rng.uniform(0.0, 0.5)
        ops.append(Op("circle.bessel_j1[series]", "circle", f"x={x:.6f}",
                      lambda c, x=x: circle.bessel_j1(x, "series"),
                      lambda r, x=x: _close(r, float(j1(x)), 1e-12)))
        ops.append(Op("circle.bessel_j1[asymptotic,N=3]", "circle", f"x={x:.6f}",
                      lambda c, x=x: circle.bessel_j1(x, "asymptotic", 3),
                      lambda r, x=x: _close(r, float(j1(x)), 1e-8)))
    for a, M in zip(strata(rng, 0.5, 3.0, 2), (4096, 16384)):
        ops.append(Op(f"circle.fresnel_closed_sum[M={M}]", "circle", f"a={a:.6f}",
                      lambda c, a=a, M=M: (circle.fresnel_closed_sum(a, M), circle.G(0.0, a, M)),
                      lambda r, a=a, M=M: _check_fresnel(r, a, M)))
    for r in rng.sample(range(1, 11), 2):
        for which in ("jacobiK", "lambert", "weber"):
            ops.append(Op(f"elliptic.identity_check[{which}]", "elliptic", f"r={r}",
                          lambda c, w=which, r=r: elliptic.identity_check(w, r=r),
                          lambda res: _residual(res, 1e-10)))
    # application1 holds its 1e-8 tolerance for r <= 3 and |C| <= 2A, |D| <= 2B;
    # beyond that it misses it or its singular-modulus check raises.
    for A, B in rng.sample(((1, 2), (2, 1), (1, 3), (3, 2)), 2):
        r = rng.randrange(1, 4)
        C, D = 2 * A * rng.choice((-1, 0, 1)), 2 * B * rng.choice((-1, 0, 1))
        ops.append(Op("elliptic.identity_check[application1]", "elliptic", f"A={A},B={B},C={C},D={D},r={r}",
                      lambda c, A=A, B=B, C=C, D=D, r=r: elliptic.identity_check(
                          "application1", A=A, B=B, C=C, D=D, r=r),
                      lambda res: _residual(res, 1e-8)))
    for x in strata(rng, 0.6, 0.8, 2):  # the sums run to n = 44/x + 12 terms
        k = rng.choice((2, 3, 4))
        h = rng.randrange(1, k)
        ops += [
            Op("elliptic.sinh_identity_check[eq66]", "elliptic", f"x={x:.6f}",
               lambda c, x=x: elliptic.sinh_identity_check("eq66", x), lambda res: _residual(res, 1e-10)),
            Op("elliptic.sinh_identity_check[eq67]", "elliptic", f"x={x:.6f}",
               lambda c, x=x: elliptic.sinh_identity_check("eq67", x), lambda res: _residual(res, 1e-10)),
            Op("elliptic.sinh_identity_check[eq69]", "elliptic", f"x={x:.6f},k={k},h={h}",
               lambda c, x=x, k=k, h=h: elliptic.sinh_identity_check("eq69", x, k=k, h=h),
               lambda res: _residual(res, 1e-10)),
            Op("elliptic.sinh_identity_check[prop6]", "elliptic", f"x={x:.6f}",
               lambda c, x=x: elliptic.sinh_identity_check("prop6", x, X=arith.chi0),
               lambda res: _residual(res, 1e-10)),
        ]
    return ops


def _close(got, want, tol):
    if isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol:
        return refs.Verdict(True, 1)
    return refs.Verdict(False, 1, None, f"got {got!r}, reference {want!r}, tolerance {tol:g}")


def _residual(res, tol):
    return _close(res, 0.0, tol)


def _scan_verdict(r, step, rows, n_rows):
    x, counts = r[0], r[1]
    if len(x) != n_rows:
        return refs.Verdict(False, len(x), None, f"{len(x)} rows, expected {n_rows}")
    return refs.check_scan(x, counts, step, rows)


@memo
def _exact_counts_1e6():
    """Lattice counts at every integer x <= 10^6, from a Python r2 sieve."""
    return np.cumsum(np.array(refs.r2_list(10**6), dtype=np.int64))


def _check_scan_R(res):
    counts = _exact_counts_1e6()
    x = np.arange(1, 10**6 + 1, dtype=np.float64)
    sup = float(np.max(np.abs((counts[1:] - math.pi * x) / x**0.25)))
    s = res.summary
    growth = s["sup_G"] - s["sup_G_halfM"]
    if abs(s["sup_R_scaled"] - sup) > 1e-9 * sup:
        return refs.Verdict(False, 10**6, None, f"sup_R_scaled {s['sup_R_scaled']!r}, reference {sup!r}")
    if not 0.0 <= growth < 0.1:
        return refs.Verdict(False, 10**6, None, f"running sup of G grew by {growth!r}")
    return refs.Verdict(True, 10**6)


def _check_fresnel(r, a, M):
    closed, g = r
    n = np.arange(1, M + 1, dtype=np.float64)
    direct = math.fsum(np.cos(2 * math.pi * np.sqrt(n * a) + math.pi / 4) / n**0.75)
    if abs(g - direct) > 1e-9:
        return refs.Verdict(False, 2, None, f"G {g!r}, reference {direct!r}")
    if not abs(g - closed) <= 2 + 4 * math.pi * math.sqrt(a):
        return refs.Verdict(False, 2, None, f"closed form {closed!r} outside the envelope of G {g!r}")
    return refs.Verdict(True, 2)


def _c1(m):
    v = Fraction(1)
    for j in range(m):
        v *= (Fraction(-1, 2) + j) * (Fraction(3, 2) + j) / (j + 1)
    return (-1) ** m * v


def _odd_k_sum(fn, s, a, b_of_n, k_cut):
    """For each b: sum over odd k <= k_cut of (-1)^((k+1)/2) fn(a + b sqrt(k)) / k^s."""
    k = np.arange(1, k_cut + 1, 2, dtype=np.float64)
    sign = np.where(np.arange(len(k)) % 2 == 0, -1.0, 1.0)
    return (fn(a + np.outer(b_of_n, np.sqrt(k))) * (sign / k**s)).sum(axis=1)


def _windowed(terms, window):
    return float(np.mean(np.cumsum(terms)[-window:]))


def _R_expansion(x, N, n_cut, k_cut, window):
    """The P/Q expansion of R(x), evaluated directly from its definition."""
    a, b = math.pi / 4, 2 * math.pi * math.sqrt(x)
    n = np.arange(1, n_cut + 1, dtype=np.float64)

    def P(s, fn):
        return _windowed(_odd_k_sum(fn, s, a, b * np.sqrt(n), k_cut) / n**s, window)

    total = x**0.25 / math.pi * P(0.75, np.cos)
    for s in range(1, N + 1):
        total += ((-1) ** s * float(_c1(2 * s)) * P(s + 0.75, np.cos)
                  / (2 ** (4 * s) * math.pi ** (2 * s + 1) * x ** (s - 0.25)))
    for s in range(0, N + 1):
        total -= ((-1) ** s * float(_c1(2 * s + 1)) * P(s + 1.25, np.sin)
                  / (2 ** (4 * s + 2) * math.pi ** (2 * s + 2) * x ** (s + 0.25)))
    return 4.0 * total


def _S_sum(x, n_cut, k_cut, window):
    """sum over n and odd p of (-1)^(l-1) cos(2 pi sqrt(npx) + pi/4)/(np)^(3/4)."""
    n = np.arange(1, n_cut + 1, dtype=np.float64)
    p = np.arange(1, 2 * k_cut, 2, dtype=np.float64)
    sign = np.where(np.arange(len(p)) % 2 == 0, 1.0, -1.0)
    prod = np.outer(n, p)
    inner = (sign * np.cos(2 * math.pi * np.sqrt(prod * x) + math.pi / 4) / prod**0.75).sum(axis=1)
    return _windowed(inner, window)


# -- cli_batch --------------------------------------------------------------------

GOLDEN_CASES = [
    ("count_power.csv", ["count", "power", "--nu", "3", "--n", "1725..1735"]),
    ("count_quad_series.csv", ["count", "quad", "--diag", "1,1,1,1", "--n", "0..20"]),
    ("count_tri_closed.csv", ["count", "tri", "--m", "1", "--vars", "4", "--method", "closed", "--n", "0..20"]),
    ("count_quintic.json", ["count", "quintic", "--n", "1..40", "--format", "json"]),
    ("count_expmethod.csv", ["count", "expmethod", "--terms", "2:-1,2:-1", "--n", "0..12"]),
    ("table_classnumber.csv", ["table", "classnumber", "--n", "3..40"]),
    ("table_fkh.csv", ["table", "fkh", "--k", "3", "--h", "2", "--n", "1..24"]),
    ("theta_theta3.csv", ["theta", "theta3", "--order", "30"]),
    ("theta_general_alt.json", ["theta", "general", "--k", "2", "--h", "1", "--alt", "--order", "25",
                                "--format", "json"]),
    ("identity_jacobik.csv", ["identity", "jacobik", "--r", "2"]),
    ("identity_sinh.csv", ["identity", "sinh", "--variant", "eq69", "--x", "0.7", "--k", "2", "--h", "1"]),
    ("identity_tripleproduct.csv", ["identity", "tripleproduct", "--p", "1", "--order", "40"]),
    ("circle_scan.csv", ["circle", "scan", "--xmax", "20", "--step", "1"]),
    ("circle_fresnel.csv", ["circle", "fresnel", "--z", "1.5"]),
    ("circle_rexp.csv", ["circle", "rexp", "--x", "25.3", "--N", "1", "--ncut", "500", "--kcut", "500"]),
]


@dataclass
class CliRun:
    code: int
    out: bytes
    err: bytes
    wall_s: float


def run_cli(args, ctx):
    """One CLI process; under tracing it runs through the span-recording shim
    with -X importtime, so stdout and the exit code are the same."""
    if ctx.traced:
        spans = ctx.span_dir / f"cli-{len(ctx.cli_runs)}.csv"
        cmd = [sys.executable, "-X", "importtime", str(Path(__file__).with_name("traced_cli.py")),
               str(spans), *args]
    else:
        cmd = [sys.executable, "-m", "qforms.cli", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT)
    run = CliRun(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0)
    ctx.cli_runs.append(run)
    return run


def cli_batch(rng):
    ops = []

    def add(name, args, want_code=0, want_out=None, rows_ok=None):
        ops.append(Op(name, "cli", " ".join(args), lambda c, a=args: run_cli(a, c),
                      lambda r, wc=want_code, wo=want_out, ok=rows_ok: refs.check_cli(r.code, r.out, wc, wo, ok)))

    for fname, args in GOLDEN_CASES:
        add(f"cli.golden[{fname}]", args, 0, (ROOT / "tests" / "golden" / fname).read_bytes())

    a = rng.randrange(1, 2000)
    add("cli.count_cubic[151,oracle]", ["count", "cubic", "--n", f"{a}..{a + 150}", "--verify", "oracle"], 0,
        None, _rows_match(lambda n: repcount.oracle_odd_power_pairs(3, n, "integer")))
    a = rng.randrange(3, 2000)
    add("cli.table_classnumber[41]", ["table", "classnumber", "--n", f"{a}..{a + 40}"], 0,
        None, _rows_match(lambda n: refs.class_number(n)))
    order = rng.randrange(20, 80)
    add("cli.theta_theta3", ["theta", "theta3", "--order", str(order)], 0, None, _theta_rows(order))
    add("cli.identity_jacobik", ["identity", "jacobik", "--r", str(rng.randrange(1, 10))], 0,
        None, lambda rows: None if rows and rows[0][-1] == "pass" else f"rows {rows}")
    x = rng.randrange(0, 20) + round(rng.uniform(0.1, 0.9), 2)
    add("cli.circle_hardy[oracle]", ["circle", "hardy", "--x", str(x), "--ncut", "20000", "--verify", "oracle"],
        0, None, lambda rows, x=x: None if abs(float(rows[0][1]) - refs.lattice_count_exact(x)) <= 0.3
        else f"hardy row {rows[0]}")

    k = rng.randrange(1, 5)
    add("cli.violation[quad gcd]", ["count", "quad", "--diag", f"2,{2 * k}", "--n", "0..5"], 2, b"")
    m = rng.choice((1, 3, 5))
    add("cli.violation[tri N=3 odd m]", ["count", "tri", "--m", str(m), "--vars", "3", "--method", "closed",
                                         "--n", "0..5"], 2, b"")
    add("cli.violation[hardy integer x]", ["circle", "hardy", "--x", str(rng.randrange(1, 50))], 2, b"")
    return ops


def _rows_match(want):
    """Rows 'n,value,...': the value against want(n)."""
    def check(rows):
        for row in rows:
            if int(row[1]) != want(int(row[0])):
                return f"row {row}: expected {want(int(row[0]))}"
        return None if rows else "no rows"
    return check


def _theta_rows(order):
    want = [[str(2 * k * k), "1" if k == 0 else "2", "1"] for k in range(order) if k * k < order]
    return lambda rows: None if rows == want else f"{len(rows)} rows differ from theta3 below q^{order}"


OP_LISTS = {"series_tables": series_tables, "closed_ranges": closed_ranges,
            "cli_batch": cli_batch, "numeric_scan": numeric_scan}


def build(workload, seed):
    """The workload's operation list for this seed."""
    return OP_LISTS[workload](random.Random(f"{workload}/{seed}"))
