"""Divisor sums, character-weighted divisor functions, indicators and
class numbers of negative discriminants.

Everything here is exact: integer or Fraction valued, no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    small.extend(reversed(large))
    return small


def divisor_sum(n, nu=1):
    """sigma_nu(n): the sum of d^nu over the divisors d of n."""
    return sum(d**nu for d in divisors(n))


def chi0(n):
    """Period-4 weight taking -2, 3, -2, 1 at n = 1, 2, 3, 0 (mod 4)."""
    r = n % 4
    if r == 0:
        return 1
    if r == 2:
        return 3
    return -2


def chi_kh(k, h, n):
    """1 when n = 0, k+h or k-h (mod 2k), else 0."""
    if k < 1:
        raise ValueError("chi_kh requires k >= 1")
    r = n % (2 * k)
    return 1 if r in (0, (k + h) % (2 * k), (k - h) % (2 * k)) else 0


def f_kh(k, h, n):
    """(1/n) * sum of chi_kh(d) * d over divisors d of n, exact."""
    if n < 1:
        raise ValueError("f_kh requires n >= 1")
    s = sum(d for d in divisors(n) if chi_kh(k, h, d))
    return _ratio(s, n)


def sigma_star(a, n):
    """(1/n) * sum of divisors of n coprime to a, exact."""
    if n < 1:
        raise ValueError("sigma_star requires n >= 1")
    s = sum(d for d in divisors(n) if math.gcd(d, a) == 1)
    return _ratio(s, n)


def indicator_I(a, n):
    """1 when a divides n."""
    if a < 1:
        raise ValueError("indicator_I requires a >= 1")
    return 1 if n % a == 0 else 0


def _ratio(p, q):
    f = Fraction(p, q)
    return f.numerator if f.denominator == 1 else f


def power_indicator(nu, t):
    """1 when t = m^nu for an integer m >= 0 (so 0 and 1 always count)."""
    if nu < 1:
        raise ValueError("power_indicator requires nu >= 1")
    if isinstance(t, Fraction):
        if t.denominator != 1:
            return 0
        t = t.numerator
    if t < 0:
        return 0
    r = _iroot(t, nu)
    return 1 if r**nu == t else 0


def poly_indicator(coeffs, t):
    """1 when t = A(m) for an integer m >= 0, A a nonconstant polynomial with
    positive integer coefficients.

    coeffs lists A as (a_0, a_1, ..., a_deg).
    """
    coeffs = tuple(coeffs)
    if not coeffs or any(c < 1 for c in coeffs):
        raise ValueError("poly_indicator requires positive integer coefficients")
    if len(coeffs) < 2:
        raise ValueError("poly_indicator requires a nonconstant polynomial")
    if isinstance(t, Fraction):
        if t.denominator != 1:
            return 0
        t = t.numerator
    # A is strictly increasing on m >= 0: double an upper bound on the least
    # m with A(m) >= t, then bisect
    lo, hi = 0, 1
    while _poly_eval(coeffs, hi) < t:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _poly_eval(coeffs, mid) < t:
            lo = mid + 1
        else:
            hi = mid
    return 1 if _poly_eval(coeffs, lo) == t else 0


def indicator(kind, t):
    """Dispatch on ('square',), ('power', nu) or ('poly', coeffs)."""
    tag = kind[0]
    if tag == "square":
        return power_indicator(2, t)
    if tag == "power":
        return power_indicator(kind[1], t)
    if tag == "poly":
        return poly_indicator(kind[1], t)
    raise ValueError(f"unknown indicator kind {tag!r}")


def _poly_eval(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _iroot(t, nu):
    """Floor of the nu-th root of t >= 0, by integer Newton iteration from above."""
    if t < 2 or nu == 1:
        return t
    if nu == 2:
        return math.isqrt(t)
    r = 1 << -(-t.bit_length() // nu)
    while True:
        s = ((nu - 1) * r + t // r ** (nu - 1)) // nu
        if s >= r:
            return r
        r = s


def reduced_forms(D):
    """Primitive reduced binary quadratic forms (a, b, c) of discriminant D < 0.

    Reduction: |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    forms = []
    amax = math.isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + (a + D) % 2, a + 1, 2):
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return forms


def class_number(D):
    """h(D): number of primitive reduced forms of discriminant D < 0."""
    return len(reduced_forms(D))
