"""Floating-point elliptic numerics: complete elliptic integrals by the
arithmetic-geometric mean, singular moduli and multipliers, and numeric
residual checks of theta/elliptic and hyperbolic-sum identities.

The identity checks return |LHS - RHS| with both sides evaluated
independently; series are truncated so the neglected tail is below 1e-12.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import theta
from .arith import chi0, chi_kh, divisors


def ellipK(k):
    """Complete elliptic integral of the first kind, via the AGM."""
    if not 0 <= k < 1:
        raise ValueError("modulus must satisfy 0 <= k < 1")
    return _agm_K(math.sqrt(1.0 - k * k))


def _agm_K(b):
    """pi / (2 AGM(1, b)), which is K(k) for b = sqrt(1 - k^2) and K'(k) for b = k."""
    a = 1.0
    for _ in range(60):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


def theta_numeric(kind, q):
    """theta2 or theta3 at real q, summed until terms fall below 1e-17
    (theta2) or 1e-18 (theta3, the lattice sum of _theta_like_sum)
    relative.  q = 0.0 is allowed and gives the constant term."""
    if not 0 <= q < 1:
        raise ValueError("q must satisfy 0 <= q < 1")
    if kind == "theta3":
        return _theta_like_sum(q, 1, 0)
    if kind == "theta2":
        if q == 0.0:
            return 0.0
        total = 0.0
        n = 0
        while True:
            t = 2.0 * q ** ((n + 0.5) * (n + 0.5))
            total += t
            if t < 1e-17 * total:
                return total
            n += 1
    raise ValueError(f"unknown theta kind {kind!r}")


@dataclass(frozen=True)
class EllipticContext:
    """Singular modulus k_r with its nome and elliptic integrals."""

    r: float
    q: float
    k: float
    kp: float
    K: float
    Kp: float


def singular_modulus(r):
    """EllipticContext at the singular modulus k_r = (theta2/theta3)^2 with
    nome q = exp(-pi sqrt(r)); fails if K'/K does not recover sqrt(r).

    For r < 1 it is the context at 1/r with k and k', K and K' swapped
    (k_r' = k_(1/r)): computing K(k_r) from k_r near 1 would cancel.
    """
    if not r > 0:  # NaN too
        raise ValueError("r must be positive")
    if r < 1:
        too_small = ValueError(f"r={r} is too small: the singular modulus k_r rounds to 1")
        try:
            dual = singular_modulus(1 / r)
        except ValueError:  # the nome at 1/r underflows: k_r is nearer 1 still
            raise too_small from None
        if dual.kp == 1.0:
            raise too_small
        return EllipticContext(r=float(r), q=math.exp(-math.pi * math.sqrt(r)),
                               k=dual.kp, kp=dual.k, K=dual.Kp, Kp=dual.K)
    q = math.exp(-math.pi * math.sqrt(r))
    if q < sys.float_info.min:
        raise ValueError(f"r={r} is too large: the nome exp(-pi sqrt(r)) underflows")
    k = (theta_numeric("theta2", q) / theta_numeric("theta3", q)) ** 2
    kp = math.sqrt(1.0 - k * k)
    K, Kp = ellipK(k), _agm_K(k)  # not ellipK(kp): 1 - kp^2 cancels for small k
    if abs(Kp / K - math.sqrt(r)) >= 1e-9:
        raise ArithmeticError(f"singular modulus residual check failed at r={r}")
    return EllipticContext(r=float(r), q=q, k=k, kp=kp, K=K, Kp=Kp)


def multiplier(n, r):
    """m_{n,r} = K(k_{n^2 r}) / K(k_r)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return 1.0
    return singular_modulus(n * n * r).K / singular_modulus(r).K


def _theta_like_sum(q, a, c):
    """q^(c^2/4a) times the sum over all integers n of q^(a n^2 + c n), for
    0 < q < 1 (q = 0 too when c = 0) and 2a | c: the terms q^((2a n + c)^2/4a)
    are all at most 1."""
    total = q ** (c * c // (4 * a))
    n = 1
    while True:
        t = q ** ((2 * a * n + c) ** 2 // (4 * a)) + q ** ((2 * a * n - c) ** 2 // (4 * a))
        total += t
        if t < 1e-18 * total:
            return total
        n += 1


def identity_check(which, **params):
    """Residual |LHS - RHS| of a numeric elliptic identity.

    jacobiK(r):       theta3(q)^2 vs 2K/pi at q = exp(-pi sqrt(r)).
    lambert(r):       2K/pi vs 1 + 4 sum_{m,l} (-1)^l q^((2l+1)m).
    application1(A,B,C,D,r): product of two shifted lattice sums, scaled by
                      q^(C^2/4A) and q^(D^2/4B), vs 2/pi K(k_r) sqrt(m_A m_B).
    weber(r):         16 q prod((1+q^2n)/(1+q^(2n-1)))^8 vs (theta2/theta3)^4.
    """
    if which == "jacobiK":
        ctx = singular_modulus(params["r"])
        return abs(theta_numeric("theta3", ctx.q) ** 2 - 2.0 * ctx.K / math.pi)
    if which == "lambert":
        ctx = singular_modulus(params["r"])
        q = ctx.q
        total = 1.0
        m = 1
        while True:
            # the alternating geometric sum over l in closed form
            total += 4.0 * q ** m / (1.0 + q ** (2 * m))
            if q ** m / (1.0 - q) < 1e-14:
                break
            m += 1
        return abs(total - 2.0 * ctx.K / math.pi)
    if which == "application1":
        A, B, C, D = params["A"], params["B"], params["C"], params["D"]
        if A < 1 or B < 1 or math.gcd(A, B) != 1:
            raise ValueError("need A, B >= 1 with gcd(A, B) = 1")
        if C % (2 * A) or D % (2 * B):
            raise ValueError("need 2A | C and 2B | D")
        ctx = singular_modulus(params["r"])
        q = ctx.q
        lhs = _theta_like_sum(q, A, C) * _theta_like_sum(q, B, D)
        mA = multiplier(A, params["r"])
        mB = multiplier(B, params["r"])
        rhs = 2.0 / math.pi * ctx.K * math.sqrt(mA * mB)
        return abs(lhs - rhs)
    if which == "weber":
        ctx = singular_modulus(params["r"])
        q = ctx.q
        prod = 1.0
        n = 1
        while True:
            f = (1.0 + q ** (2 * n)) / (1.0 + q ** (2 * n - 1))
            prod *= f ** 8
            if abs(f - 1.0) < 1e-17:
                break
            n += 1
        return abs(16.0 * q * prod - ctx.k * ctx.k)
    raise ValueError(f"unknown identity {which!r}")


def _hyperbolic_sum(X, x, n_max):
    """sum_{n=1..n_max} X(n) n^2 / sinh(nx)^2."""
    terms = []
    for n in range(1, n_max + 1):
        w = X(n)
        if w == 0:
            continue
        if n * x > 350.0:
            break
        terms.append(w * n * n / math.sinh(n * x) ** 2)
    return math.fsum(terms)


def _log_series_rhs(s, x):
    """-d^2/dx^2 log s at q = exp(-2x), from the exact log coefficients;
    a half-unit exponent e contributes -e^2 L_e exp(-e x)."""
    ls = s.log()
    return math.fsum(-e * e * float(c) * math.exp(-e * x)
                     for e, c in enumerate(ls.coeffs, ls.base) if c and e > 0)


def sinh_identity_check(which, x, X=None, k=None, h=None):
    """Residual |LHS - RHS| of a hyperbolic-sum identity at x >= 0.01.

    prop6:  X(n) n^2/sinh(nx)^2 vs -d^2/dx^2 log prod (1-q^n)^X(n).
    eq66:   X = chi0, RHS from log theta3.
    eq67:   X = (-1)^n, RHS from log psi (the lattice sum is 2 psi and the
            constant drops under the derivative).
    eq69:   X = chi_{k,h}, RHS from log of the alternating lattice sum.
    """
    if not 0 < x < math.inf:
        raise ValueError("x must be positive")
    if x < 0.01:  # the sums run to 44/x terms; eq66 misses 1e-10 by x = 0.005
        raise ValueError(f"x={x:g} is too small: the float sums hold the identity only for x >= 0.01")
    n_max = int(44.0 / x) + 12
    if which == "prop6":
        if X is None:
            raise ValueError("prop6 needs the arithmetic function X")
        lhs = _hyperbolic_sum(X, x, n_max)
        # log prod (1-q^n)^X(n) = -sum_m (sum_{d|m} d X(d))/m q^m, so the
        # second derivative brings back integer coefficients 4 m A(m)
        rhs = math.fsum(4.0 * m * sum(d * X(d) for d in divisors(m))
                        * math.exp(-2.0 * m * x)
                        for m in range(1, n_max + 1))
        return abs(lhs - rhs)
    if which == "eq66":
        lhs = _hyperbolic_sum(chi0, x, n_max)
        return abs(lhs - _log_series_rhs(theta.series(theta.theta3(), n_max + 1), x))
    if which == "eq67":
        lhs = _hyperbolic_sum(lambda n: -1 if n % 2 else 1, x, n_max)
        return abs(lhs - _log_series_rhs(theta.series(theta.psi(), n_max + 1), x))
    if which == "eq69":
        if k is None or h is None:
            raise ValueError("eq69 needs k and h")
        h = abs(h)
        if k <= h:
            raise ValueError("need k > |h|")
        lhs = _hyperbolic_sum(lambda n: chi_kh(k, h, n), x, n_max)
        s = theta.series(theta.alt_general(k, h), n_max + 1)
        return abs(lhs - _log_series_rhs(s, x))
    raise ValueError(f"unknown identity {which!r}")
