"""Independent references and result checkers.

Nothing here calls the code path it checks: counts are compared with the
brute-force oracles or with Python-int convolutions of r2 lists built by a
direct lattice sieve, series with schoolbook products, scans with exact
rational lattice counts, CLI runs with golden bytes and exit codes.

A checker returns a Verdict.  A failure whose every wrong value matches the
signature of a recorded defect carries that defect's tag, so the report can
tell the two known defects from new failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

WRAP = "int64-wraparound"        # np.convolve on int64 wraps silently at high rank
FLOAT_STEP = "float-step-scan"   # scan_columns builds x = k*step in floats


@dataclass(frozen=True)
class Verdict:
    ok: bool
    outputs: int
    defect: str | None = None
    detail: str = ""


def fingerprint(value):
    """A comparable stand-in for a result, cheap to keep between passes, or
    None when the result should simply be checked again."""
    import numpy as np

    if isinstance(value, (np.ndarray, tuple, list)):
        return None  # arrays are checked afresh each pass
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None and hasattr(value, "order"):
        return ("series", value.base, value.order, coeffs)
    counts = getattr(value, "counts", None)
    if counts is not None:
        return ("table", tuple(counts))
    summary = getattr(value, "summary", None)
    if summary is not None:
        return ("scan", tuple(sorted(summary.items())), len(value.rows))
    return value


# -- counts ----------------------------------------------------------------


def check_counts(got, want, overflow_at=None):
    """Exact comparison of two count lists of equal length.

    overflow_at is the first index at which the program's int64
    convolution must overflow (an exact intermediate value >= 2^63); wrong
    values at or after it, and only there, are the wraparound defect.
    """
    got, want = list(got), list(want)
    if len(got) != len(want):
        return Verdict(False, len(got), None, f"{len(got)} values, expected {len(want)}")
    wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if not wrong:
        return Verdict(True, len(got))
    defect = WRAP if overflow_at is not None and wrong[0] >= overflow_at else None
    return Verdict(False, len(got), defect, f"{len(wrong)} of {len(got)} values wrong")


def first_overflow(values):
    """Index of the first value outside int64, or None."""
    return next((i for i, v in enumerate(values) if abs(v) >= 2**63), None)


def r2_list(n_max):
    """r2(0..n_max) by direct lattice sieving with Python ints."""
    r = [0] * (n_max + 1)
    x = -math.isqrt(n_max)
    while x * x <= n_max:
        rest = n_max - x * x
        y = math.isqrt(rest)
        for yy in range(-y, y + 1):
            r[x * x + yy * yy] += 1
        x += 1
    return r


def power(base, times, n_max):
    """base^times truncated after index n_max, in Python ints."""
    out = base[: n_max + 1]
    for _ in range(times - 1):
        out = schoolbook(out, base, n_max + 1)
    return out


def r3_at(k, r2):
    """r3(k) as the sum of r2(k - z^2) over integers z."""
    total = r2[k]
    z = 1
    while z * z <= k:
        total += 2 * r2[k - z * z]
        z += 1
    return total


def tri_values(m, n_max, shift=0):
    """Multiplicities of t_m(x) + shift = (x^2 + m x)/2 + shift <= n_max over
    all integers x (odd m, so the values are integers)."""
    out = [0] * (n_max + 1)
    x = -(m + math.isqrt(2 * n_max) + 2)
    while True:
        v = (x * x + m * x) // 2 + shift
        if x >= 0 and v > n_max:
            break
        if 0 <= v <= n_max:
            out[v] += 1
        x += 1
    return out


def smallest_prime_factors(n_max):
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for q in range(p * p, n_max + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def divisors_from(n, spf):
    """Divisors of n from its factorization, unsorted."""
    divs = [1]
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def class_number(D):
    """h(D) for D < 0 by counting reduced primitive forms, looping over b
    and the factor pairs a*c of (b^2 - D)/4."""
    count = 0
    b = D % 2
    while 3 * b * b <= -D:
        ac = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    # +b and -b are distinct unless b = 0, b = a or a = c
                    count += 1 if (b == 0 or b == a or a == c) else 2
            a += 1
        b += 2
    return count


# -- series ----------------------------------------------------------------


def schoolbook(f, g, n):
    """First n coefficients of the product of two coefficient lists."""
    out = [0] * n
    gnz = [(j, c) for j, c in enumerate(g[:n]) if c]
    for i, fi in enumerate(f[:n]):
        if fi:
            for j, gj in gnz:
                if i + j >= n:
                    break
                out[i + j] += fi * gj
    return out


def series_coeffs(s, n):
    """Coefficients of a HalfLaurentSeries at half-unit exponents 0..n-1
    (exact zero below its base); None when n exceeds its order."""
    if s.order < n:
        return None
    return [s.coeffs[e - s.base] if e >= s.base else 0 for e in range(n)]


def check_coeffs(got, want):
    if got is None:
        return Verdict(False, 0, None, "truncation order too low")
    wrong = sum(1 for g, w in zip(got, want) if g != w)
    if len(got) != len(want) or wrong:
        return Verdict(False, len(got), None, f"{wrong} of {len(want)} coefficients wrong")
    return Verdict(True, len(got))


def derivative(c):
    return [k * c[k] for k in range(1, len(c))]


def sqrt_coeff(f, n):
    """Coefficient n of sqrt(f) for f[0] = 1 by the plain recurrence."""
    g = [Fraction(1)] + [Fraction(0)] * n
    for t in range(1, n + 1):
        g[t] = (Fraction(f[t]) - sum(g[k] * g[t - k] for k in range(1, t))) / 2
    return g[n]


# -- circle ----------------------------------------------------------------


def lattice_count_exact(x):
    """#{(i, j): i^2 + j^2 <= x} for a nonnegative rational x."""
    top = math.floor(Fraction(x))
    return sum((2 if i else 1) * (2 * math.isqrt(top - i * i) + 1) for i in range(math.isqrt(top) + 1))


def check_scan(x, counts, step, rows):
    """Scan rows `rows` (0-based) against the exact count at x = (k+1)*step.

    A wrong row that equals the count at floor(float x), where float x fell
    below an integer that the exact x reaches, is the float-step defect.
    """
    wrong = []
    for i in rows:
        exact_x = (i + 1) * step
        want = lattice_count_exact(exact_x)
        if int(counts[i]) != want:
            wrong.append(i)
    if not wrong:
        return Verdict(True, len(x))
    signature = all(
        math.floor(float(x[i])) < math.floor((i + 1) * step)
        and int(counts[i]) == lattice_count_exact(math.floor(float(x[i])))
        for i in wrong)
    xs = ", ".join(str((i + 1) * step) for i in wrong[:5])
    return Verdict(False, len(x), FLOAT_STEP if signature else None,
                   f"{len(wrong)} of {len(rows)} rows wrong (x = {xs})")


# -- cli -------------------------------------------------------------------


def check_cli(code, out, want_code, want_out=None, rows_ok=None):
    """Exit code, then golden bytes or a row predicate over the CSV output."""
    if code != want_code:
        return Verdict(False, 1, None, f"exit {code}, expected {want_code}")
    if want_out is not None and out != want_out:
        at = next((i for i, (a, b) in enumerate(zip(out, want_out)) if a != b), min(len(out), len(want_out)))
        return Verdict(False, 1, None, f"stdout differs from golden at byte {at}")
    if rows_ok is not None:
        rows = [line.split(",") for line in out.decode().splitlines()]
        bad = rows_ok(rows)
        if bad:
            return Verdict(False, 1, None, bad)
    return Verdict(True, 1)
