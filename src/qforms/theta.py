"""Exact truncated theta-type series: lattice sums, Pochhammer products,
and the coefficient-transform route through exp.

Orders passed to the constructors here are in integer q-units; the
returned HalfLaurentSeries is valid for every exponent strictly below
that order (internally 2*order half-units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, sub

from . import arith
from .series import HalfLaurentSeries, _exp_recurrence


@dataclass(frozen=True)
class ThetaKind:
    """A series kind as data; a "lattice" kind's params are the
    (a, b, alternating, nonneg) of _lattice."""

    tag: str
    params: tuple = ()


def theta3():
    return ThetaKind("lattice", (2, 0, False, False))


def phi():
    """Same series as theta3; kept as the sum-form name."""
    return theta3()


def psi():
    return ThetaKind("lattice", (1, 1, False, True))


def f_neg():
    """f(-q) = sum (-1)^n q^(n(3n-1)/2) over all integers n."""
    return ThetaKind("lattice", (3, -1, True, False))


def pochhammer(a_half, step_half, negated=False):
    """(s q^(a/2); q^(step/2))_inf with s = -1 when negated, else +1."""
    if a_half < 1 or step_half < 1:
        raise ValueError("pochhammer needs positive leading exponent and step")
    return ThetaKind("pochhammer", (a_half, step_half, bool(negated)))


def general(k, h):
    """sum over integers n of q^(k n^2 + h n)."""
    if k < 1:
        raise ValueError("general theta requires k >= 1")
    return ThetaKind("lattice", (2 * k, 2 * h, False, False))


def alt_general(k, h):
    """sum over integers n of (-1)^n q^(k n^2 + h n)."""
    if k < 1:
        raise ValueError("general theta requires k >= 1")
    return ThetaKind("lattice", (2 * k, 2 * h, True, False))


def triangular(m):
    """sum over integers n of q^(t_m(n)), t_m(x) = (x^2 + m x)/2."""
    if m < 0:
        raise ValueError("triangular index m must be >= 0")
    return ThetaKind("lattice", (1, m, False, False))


def triple_product_rhs(z):
    """prod (1 - q^(2n+2)) (1 + q^(2n+1-z)) (1 + q^(2n+1+z)) over n >= 0."""
    if z < 0:
        raise ValueError("triple_product_rhs requires z >= 0")
    return ThetaKind("triple_product_rhs", (z,))


def _quad_range(a, b, limit):
    """All integers n with a*n^2 + b*n < limit (a >= 1), exact."""
    L = limit - 1
    disc = b * b + 4 * a * L
    if disc < 0:
        return range(0)
    s = math.isqrt(disc)
    lo = (-b - s) // (2 * a) - 1
    hi = (-b + s) // (2 * a) + 2
    return range(lo, hi)


def _least(a, b, nonneg=False):
    """Least of a n^2 + b n (a >= 1) over the integers n, or over n >= 0 when
    nonneg: at the floor v of the vertex -b/(2a), at v + 1, or at 0."""
    v = -b // (2 * a)
    return min(a * n * n + b * n for n in (v, v + 1, 0) if n >= 0 or not nonneg)


def _zeros(n):
    """[0] * n, with a length past sys.maxsize refused as MemoryError, as any
    other list too long to allocate is."""
    try:
        return [0] * n
    except OverflowError:
        raise MemoryError from None


def _lattice(order_half, a, b, alternating=False, nonneg=False):
    """Coefficients of the sum of (-1)^n (when alternating) q^((a n^2 + b n)/2)
    over the integers n (n >= 0 when nonneg) at the half-unit exponents
    _least(a, b, nonneg) <= e < order_half, as one list.  It is allocated
    before any n is enumerated, so a span past memory is refused at once."""
    least = _least(a, b, nonneg)
    c = _zeros(order_half - least)
    for n in _quad_range(a, b, order_half):
        e = a * n * n + b * n
        if e < order_half and (n >= 0 or not nonneg):
            c[e - least] += -1 if alternating and n % 2 else 1
    return c


def series(kind, order):
    """Exact truncated series for the kind, valid below q^order.  A lattice
    kind is the one place a _lattice list becomes a series, whose base is
    the least of 0 and the exponents with a nonzero coefficient."""
    if order < 1:
        raise ValueError("order must be >= 1")
    oh = 2 * order
    tag = kind.tag
    if tag == "lattice":
        c = _lattice(oh, *kind.params)  # its last entry is at oh - 1
        base = next(e for e, v in enumerate(c, oh - len(c)) if v or e == 0)
        return HalfLaurentSeries(base, c[base - oh :], oh)
    if tag == "pochhammer":
        return _from_weights(_log_weights(_binomials(*kind.params, oh), oh))
    if tag == "triple_product_rhs":
        (z,) = kind.params
        return _triple_product(z, oh)
    raise ValueError(f"unknown theta kind {tag!r}")


def _log_weights(factors, n):
    """w[0:n] with t P'/P = sum_j w_j t^j for P the product of the binomials
    1 + s t^e over the (e, s) in factors, e >= 1 and s = +-1 (Euler's
    logarithmic derivative; G. E. Andrews, The Theory of Partitions, ch. 1).
    log(1 + s t^e) = -sum_m (-s)^m t^(em) / m, so a factor adds -e at every
    multiple of e, and +e instead at the odd ones when s = 1."""
    w = [0] * n
    for e, s in factors:
        w[e::e] = map(sub, w[e::e], repeat(e))
        if s > 0:
            w[e :: 2 * e] = map(add, w[e :: 2 * e], repeat(2 * e))
    return w


def _binomials(a_half, step_half, negated, n):
    """The (e, s) of pochhammer(a_half, step_half, negated) below half-unit n."""
    return [(e, 1 if negated else -1) for e in range(a_half, n, step_half)]


def _from_weights(w):
    """The unit series below half-unit len(w) with log-derivative weights w."""
    return HalfLaurentSeries(0, _exp_recurrence(w), len(w))


def _triple_product(z, order_half):
    """q^(base/2) times a power series: each factor 1 + q^(e/2) with e < 0
    is q^(e/2) (1 + q^(-e/2)), so base is the sum of those e, and a factor
    with e = 0 is the constant 2."""
    base = sum(range(2 - 2 * z, 0, 4))
    size = order_half - base
    es = [(abs(e), s) for start, s in ((4, -1), (2 - 2 * z, 1), (2 + 2 * z, 1)) for e in range(start, size, 4)]
    c = _exp_recurrence(_log_weights([f for f in es if f[0]], size))
    return HalfLaurentSeries(base, [2 * v for v in c] if (0, 1) in es else c, order_half)


def _quotient(num, den, n):
    """The product of the binomials num over that of den, below half-unit n:
    the denominator's reciprocal has the negated weights."""
    return _from_weights(_log_weights(num, n)) * _from_weights([-v for v in _log_weights(den, n)])


def phi_product(order):
    """Product form of theta3: (-q;q^2)(q^2;q^2) / [(q;q^2)(-q^2;q^2)]."""
    oh = 2 * order
    return _quotient(_binomials(2, 4, True, oh) + _binomials(4, 4, False, oh),
                     _binomials(2, 4, False, oh) + _binomials(4, 4, True, oh), oh)


def psi_product(order):
    """Product form of psi: (q^2;q^2) / (q;q^2)."""
    oh = 2 * order
    return _quotient(_binomials(4, 4, False, oh), _binomials(2, 4, False, oh), oh)


def f_neg_product(order):
    """Product form of f(-q): (q;q)_inf."""
    return series(pochhammer(2, 2, False), order)


def _fkh_sums(terms, n_max):
    """n times sum_l f_(k_l,h_l)(n) for 0 <= n <= n_max: one sieve adding
    d sum_l chi_(k_l,h_l)(d) at the multiples of each d, laid over each
    term's residues d = 0, k+h, k-h (mod 2k), where chi_kh is 1:
    arith._chi_residues."""
    w = _zeros(n_max + 1)
    for k, h in terms:
        m = 2 * k
        for r in arith._chi_residues(k, h):
            w[r or m :: m] = map(add, w[r or m :: m], range(r or m, n_max + 1, m))
    out = [0] * (n_max + 1)
    for d, wd in enumerate(w):
        if wd:
            out[d::d] = map(add, out[d::d], repeat(wd))
    return out


def _exp_coeffs(terms, order):
    """Half-unit coefficients below 2*order of exp(-sum (-1)^n sum_l f_(k_l,h_l)(n) q^n)
    by exp_neg's recurrence k e_k = -sum_j j a_j e_(k-j), whose weight j a_j
    at j = 2n is 2 (-1)^n n sum_l f(n), an integer straight from the sieve.
    Each term needs k > |h| > 0 with k + h odd."""
    for k, h in terms:
        if not (k > abs(h) > 0):
            raise ValueError(f"exp route requires k > |h| > 0, got ({k}, {h})")
        if (k + h) % 2 == 0:
            raise ValueError(f"exp route requires k + h odd, got ({k}, {h})")
    m = 2 * order
    sums = _fkh_sums(terms, order - 1)
    w = [0] * m
    w[2::2] = (-2 * v if n % 2 == 0 else 2 * v for n, v in enumerate(sums[1:], 1))
    return _exp_recurrence(w)


def general_theta_via_exp(k, h, order):
    """General theta as exp(-(sum (-1)^n f_kh(n) q^n)).

    Valid when k > |h| > 0 and k + h is odd; _exp_coeffs checks both.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return HalfLaurentSeries(0, _exp_coeffs(((k, h),), order), 2 * order)


def triple_product_check(p, order):
    """Odd-index triangular sums against their product and psi reductions.

    Checks sum q^(n^2+(2p+1)n) = 2 q^(-p(p+1)) f(-q^2) (-q^2;q^2)^2 and
    sum q^(t_(2p+1)(n)) = 2 q^(-p(p+1)/2) psi(q).
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    z = 2 * p + 1
    lhs1 = series(general(1, z), order)
    fq2 = series(alt_general(3, -1), order)
    poch = series(pochhammer(4, 4, True), order)
    rhs1 = (fq2 * poch.square()).shift(-2 * p * (p + 1)).scale(2)
    if lhs1 != rhs1:
        return False
    lhs2 = series(triangular(z), order)
    rhs2 = series(psi(), order).shift(-p * (p + 1)).scale(2)
    return lhs2 == rhs2


def even_shift_check(p, order):
    """sum q^(t_(2p)(n)) = q^(-p^2/2) * sum q^(n^2/2)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    lhs = series(triangular(2 * p), order)
    rhs = series(triangular(0), order).shift(-p * p)
    return lhs == rhs
