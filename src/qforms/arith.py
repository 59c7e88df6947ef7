"""Divisor sums, character-weighted divisor functions, indicators and
class numbers of negative discriminants.

Everything here is exact: integer or Fraction valued, no floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction


def _odd_primes(limit):
    """The odd primes below limit, ascending, by a sieve of Eratosthenes on a
    bytearray."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(itertools.compress(range(3, limit), sieve[3:]))


_ODD_PRIMES = _odd_primes(1 << 10)  # 171 primes, 3..1021

# The least prime factor of every odd n < _SIEVED, one byte per odd n:
# _LEAST[n >> 1] is i + 1 when _ODD_PRIMES[i] is the least prime factor of
# the composite n, and 0 at 1 and at the odd primes.  Every such composite
# has its least factor p <= 359, p^2 < 2^17.  Filled from the largest p
# down, so the least factor is written last: 64 KB, about 0.2 ms at import.
_SIEVED = 1 << 17
_LEAST = bytearray(_SIEVED >> 1)
for _i in reversed(range(sum(p * p < _SIEVED for p in _ODD_PRIMES))):
    _p = _ODD_PRIMES[_i]
    _LEAST[_p * _p >> 1::_p] = bytes((_i + 1,)) * len(range(_p * _p >> 1, _SIEVED >> 1, _p))
del _i, _p


def _factor(n):
    """[(p, k), ...] with n = prod p^k over the primes p | n, ascending, for
    n >= 1.  The power of 2 comes from the low bits.  While the odd
    unfactored part m is at least _SIEVED = 2^17, it is trial-divided, by the
    odd primes below 2^10 and past them by every odd p, and m < p^2 makes m
    itself prime.  Below 2^17 each least prime factor of m is read off
    _LEAST, so a large n hands over to the table as soon as its cofactor
    drops below 2^17."""
    fs = []
    k = (n & -n).bit_length() - 1
    if k:
        fs.append((2, k))
        n >>= k
    if n >= _SIEVED:
        for p in _ODD_PRIMES:
            if p * p > n:
                break
            if n % p == 0:
                n = _divide_out(n, p, fs)
                if n < _SIEVED:
                    break
        else:
            p = _ODD_PRIMES[-1] + 2
            while p * p <= n:
                if n % p == 0:
                    n = _divide_out(n, p, fs)
                    if n < _SIEVED:
                        break
                p += 2
        if n >= _SIEVED:  # no factor up to its square root
            fs.append((n, 1))
            n = 1
    while n > 1:
        i = _LEAST[n >> 1]
        n = _divide_out(n, _ODD_PRIMES[i - 1] if i else n, fs)
    return fs


def _divide_out(n, p, fs):
    """Append (p, k) to fs for p^k || n, p | n, and return n / p^k."""
    k = 1
    n //= p
    while n % p == 0:
        n //= p
        k += 1
    fs.append((p, k))
    return n


def divisors(n):
    """Positive divisors of n >= 1, ascending, expanded from n's factorization."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    divs = [1]
    for p, k in _factor(n):
        if k == 1:
            divs += [d * p for d in divs]
        else:
            divs = [d * p**e for e in range(k + 1) for d in divs]
    divs.sort()
    return divs


def divisor_sum(n, nu=1):
    """sigma_nu(n): the sum of d^nu over the divisors d of n >= 1, for any
    integer nu; the product over p^k || n of (p^(nu(k+1)) - 1)/(p^nu - 1),
    or of k + 1 at nu = 0.  For nu < 0 it is sigma_|nu|(n) / n^|nu|, exact."""
    if n < 1:
        raise ValueError("divisor_sum requires n >= 1")
    nu = operator.index(nu)  # a float nu would round the product
    if nu < 0:
        return _ratio(divisor_sum(n, -nu), n**-nu)
    s = 1
    for p, k in _factor(n):
        if nu:
            q = p**nu
            s *= (q ** (k + 1) - 1) // (q - 1)
        else:
            s *= k + 1
    return s


def chi0(n):
    """Period-4 weight taking -2, 3, -2, 1 at n = 1, 2, 3, 0 (mod 4)."""
    r = n % 4
    if r == 0:
        return 1
    if r == 2:
        return 3
    return -2


def _chi_residues(k, h):
    """The residues 0, k+h and k-h mod 2k: where chi_kh is 1."""
    return {0, (k + h) % (2 * k), (k - h) % (2 * k)}


def chi_kh(k, h, n):
    """1 when n = 0, k+h or k-h (mod 2k), else 0."""
    if k < 1:
        raise ValueError("chi_kh requires k >= 1")
    return 1 if n % (2 * k) in _chi_residues(k, h) else 0


def f_kh(k, h, n):
    """(1/n) * sum of chi_kh(d) * d over divisors d of n, exact."""
    if n < 1:
        raise ValueError("f_kh requires n >= 1")
    if k < 1:
        raise ValueError("f_kh requires k >= 1")
    m = 2 * k
    hits = _chi_residues(k, h)
    s = sum(d for d in divisors(n) if d % m in hits)
    return _ratio(s, n)


def sigma_star(a, n):
    """(1/n) * sum of divisors of n coprime to a, exact: sigma_1 of the part
    of n made of the primes p that do not divide a, over n."""
    if n < 1:
        raise ValueError("sigma_star requires n >= 1")
    s = 1
    for p, k in _factor(n):
        if a % p:
            s *= (p ** (k + 1) - 1) // (p - 1)
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


_TABLED = 1 << 7  # a below this reads its b off _root_tables()


@functools.lru_cache(maxsize=None)
def _root_tables():
    """The list tabs of square-root tables that _walk reads: tabs[a][r] is the
    tuple of b in [0, a], ascending, with b^2 = r (mod 4a), for every r in
    [0, 4a), and the shared () where r is not a square mod 4a; tabs[0] is
    None.  Starts with no table; _walk appends the tables up to the largest a it
    needs, never past _TABLED - 1 = 127, so at most 127 tables, about 0.5 MB
    all told.  An lru_cache, not a module-level list, so that clearing the
    module's caches clears the tables too; one lookup per walk."""
    return [None]


def _walk(D, out=None):
    """h(D) for a discriminant D < 0, counted on one walk over the primitive
    reduced forms (a, b, c) with b >= 0: each weighs 2 when 0 < b < a < c,
    for itself and (a, -b, c), and 1 otherwise.  When out is a list, each
    such (a, b, c) is also appended to it, once.

    a < 2^7 is walked a-major: the b in [0, a] with b^2 = D (mod 4a) are
    read off _root_tables()[a][D mod 4a], and (a, b, c) is kept when
    c = (b^2 - D)/4a >= a and gcd(a, b, c) = 1.  That costs one cache lookup
    per D plus about sqrt(|D|/3) list reads while |D| < 3 * 2^14.  a >= 2^7
    exists only when |D| >= 3 * 2^14 and is walked b-major (H. Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 5.3.5): a runs
    over the divisors of ac = (b^2 - D)/4 in [max(b, 2^7), sqrt(ac)], over
    odd values only where ac is odd, Theta(|D|) divisions.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    top = math.isqrt(-D // 3)  # 3a^2 <= |D| for every reduced form
    tabs = _root_tables()
    for a in range(len(tabs), min(top + 1, _TABLED)):
        row = [()] * (4 * a)
        for b in range(a + 1):
            row[b * b % (4 * a)] += (b,)
        tabs.append(row)
    h = 0
    for a in range(1, min(top + 1, _TABLED)):
        for b in tabs[a][D % (4 * a)]:
            c = (b * b - D) // (4 * a)
            if c >= a and math.gcd(a, b, c) == 1:
                h += 2 if 0 < b < a < c else 1
                if out is not None:
                    out.append((a, b, c))
    if top < _TABLED:
        return h
    for b in range(D % 2, top + 1, 2):
        ac = (b * b - D) // 4
        odd = ac & 1  # an odd ac has no even divisor a
        for a in range(max(b, _TABLED) | odd, math.isqrt(ac) + 1, 1 + odd):
            if not ac % a and math.gcd(a, b, ac // a) == 1:
                c = ac // a
                h += 2 if 0 < b < a < c else 1
                if out is not None:
                    out.append((a, b, c))
    return h


def reduced_forms(D):
    """Primitive reduced binary quadratic forms (a, b, c) of discriminant D < 0,
    ascending.

    Reduction: |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.  The
    forms with b >= 0 come off _walk, one cache lookup plus about
    sqrt(|D|/3) list reads while |D| < 3 * 2^14 and Theta(|D|) divisions
    past it, and (a, -b, c) joins (a, b, c) when 0 < b < a < c.
    """
    forms = []
    _walk(D, forms)
    forms += [(a, -b, c) for a, b, c in forms if 0 < b < a < c]
    forms.sort()
    return forms


def class_number(D):
    """h(D): number of primitive reduced forms of discriminant D < 0, counted
    on _walk without listing them.  One cache lookup per D plus about
    sqrt(|D|/3) list reads while |D| < 3 * 2^14, Theta(|D|) divisions past
    it; the tables of _root_tables take at most about 0.5 MB."""
    return _walk(D)
