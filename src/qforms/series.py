"""Truncated Laurent series on the half-integer exponent lattice.

A series is a finite table of exact rational coefficients attached to
exponents e/2 for integer e ("half-units").  Every series carries a
truncation order: coefficients are known for all exponents strictly
below order/2 and unknown at or above it.  All arithmetic propagates
the tightest guaranteed order, so identities proved on these objects
are exact statements about the underlying formal series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat


def _norm(v):
    """Canonicalize a coefficient: int when integral, Fraction otherwise."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"coefficient must be an exact rational, got {type(v).__name__}")


def _div(v, n):
    """Exact v/n for int n >= 1."""
    if type(v) is int:
        q, r = divmod(v, n)
        return q if r == 0 else Fraction(v, n)
    return _norm(v / n)


def _integral(coeffs):
    """(d, coefficients times d) for d the least common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs if type(c) is not int))
    return d, coeffs if d == 1 else [int(c * d) for c in coeffs]


def convolve(f, g, n):
    """First n coefficients of f*g for integer coefficient lists f and g.

    Kronecker substitution (D. Harvey, JSC 2009): each list is packed into
    one Python int with a w-byte slot per coefficient, one big-int multiply
    forms the product, and the slots are read back.  No coefficient of f*g
    exceeds |f|_1 |g|_1 in absolute value, so with 2^(8w-1) above that
    bound every slot holds its value plus the offset 2^(8w-1) without
    carrying into the next: the result is exact at every size.
    """
    square = f is g
    f, g = f[:n], g[:n]
    bound = sum(map(abs, f)) * sum(map(abs, g))
    if not bound:
        return [0] * n
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    slot = half.to_bytes(w, "little")

    def pack(c):
        data = bytearray(slot * len(c))  # a zero coefficient is its bare offset
        for i, v in enumerate(c):
            if v:
                data[i * w : i * w + w] = (v + half).to_bytes(w, "little")
        return int.from_bytes(data, "little") - int.from_bytes(slot * len(c), "little")

    packed = pack(f)
    prod = packed * (packed if square else pack(g)) + int.from_bytes(slot * n, "little")
    data = (prod & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    slots = (data[i : i + w] for i in range(0, w * n, w))
    return [v - half for v in map(int.from_bytes, slots, repeat("little"))]


def power(f, N, n):
    """First n coefficients of f^N (N >= 1), by square-and-multiply over convolve."""
    if N < 1:
        raise ValueError("power requires N >= 1")
    acc = None
    while True:
        if N & 1:
            acc = f if acc is None else convolve(acc, f, n)
        N >>= 1
        if not N:
            return list(acc[:n]) + [0] * (n - len(acc))
        f = convolve(f, f, n)


class HalfLaurentSeries:
    """Immutable truncated series sum c_e q^(e/2), base <= e < order."""

    __slots__ = ("base", "coeffs", "order")

    def __init__(self, base, coeffs, order):
        coeffs = tuple(_norm(c) for c in coeffs)
        if order <= base:
            raise ValueError("order must exceed base")
        if len(coeffs) != order - base:
            raise ValueError("coefficient count must equal order - base")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("HalfLaurentSeries is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(cls, terms, order):
        """Build a series from (half-unit exponent, rational) pairs.

        Duplicate exponents and exponents at or above `order` are errors.
        """
        terms = list(terms)
        seen = set()
        for e, _ in terms:
            if e in seen:
                raise ValueError(f"duplicate exponent {e}")
            seen.add(e)
            if e >= order:
                raise ValueError(f"exponent {e} not below order {order}")
        base = min((e for e, _ in terms), default=order - 1)
        coeffs = [0] * (order - base)
        for e, c in terms:
            coeffs[e - base] = c
        return cls(base, coeffs, order)

    @classmethod
    def zero(cls, order):
        return cls(order - 1, (0,), order)

    @classmethod
    def one(cls, order):
        if order < 1:
            raise ValueError("order must be >= 1 for a constant term")
        return cls(0, [1] + [0] * (order - 1), order)

    # -- inspection ----------------------------------------------------

    def coeff(self, e):
        """Coefficient of q^(e/2); exact zero below base, error at/above order."""
        if e >= self.order:
            raise ValueError(f"exponent {e} is at or above truncation order {self.order}")
        if e < self.base:
            return 0
        return self.coeffs[e - self.base]

    def support(self):
        """Half-unit exponents with nonzero coefficient, ascending."""
        return [self.base + i for i, c in enumerate(self.coeffs) if c]

    def trim(self):
        """Drop leading zero coefficients (raises base, same validity)."""
        i = 0
        n = len(self.coeffs)
        while i < n - 1 and self.coeffs[i] == 0:
            i += 1
        if i == 0:
            return self
        return HalfLaurentSeries(self.base + i, self.coeffs[i:], self.order)

    def truncate(self, order):
        """Restrict validity to exponents below `order` (never extends)."""
        if order >= self.order:
            raise ValueError("truncate cannot extend validity")
        if order <= self.base:
            return HalfLaurentSeries.zero(order)
        return HalfLaurentSeries(self.base, self.coeffs[: order - self.base], order)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        base = min(self.base, other.base)
        if order <= base:
            return HalfLaurentSeries.zero(order)
        out = [0] * (order - base)
        for s in (self, other):
            lo = s.base - base
            for i, c in enumerate(s.coeffs):
                j = lo + i
                if j >= len(out):
                    break
                if c:
                    out[j] = out[j] + c
        return HalfLaurentSeries(base, out, order)

    def __neg__(self):
        return HalfLaurentSeries(self.base, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Multiply every coefficient by the exact rational c."""
        c = _norm(c)
        return HalfLaurentSeries(self.base, [c * v for v in self.coeffs], self.order)

    def shift(self, halfunits):
        """Multiply by q^(halfunits/2)."""
        return HalfLaurentSeries(self.base + halfunits, self.coeffs, self.order + halfunits)

    def stretch(self, m):
        """Substitute q -> q^m for a positive integer m."""
        if m < 1:
            raise ValueError("stretch factor must be a positive integer")
        if m == 1:
            return self
        base = self.base * m
        out = [0] * (self.order * m - base)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * m] = c
        return HalfLaurentSeries(base, out, self.order * m)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        base = self.base + other.base
        order = min(self.order + other.base, other.order + self.base)
        df, f = _integral(self.coeffs)
        dg, g = (df, f) if other is self else _integral(other.coeffs)
        d = df * dg
        out = convolve(f, g, order - base)
        return HalfLaurentSeries(base, out if d == 1 else [_div(c, d) for c in out], order)

    __rmul__ = __mul__

    def square(self):
        return self * self

    # -- transforms ----------------------------------------------------

    def _unit_part(self, opname):
        """Trimmed coefficients for a series with constant term 1 at exponent 0."""
        t = self.trim()
        if t.base != 0 or t.coeffs[0] != 1:
            raise ValueError(f"{opname} requires constant term 1 at exponent 0")
        return t

    def sqrt(self):
        """Square root with constant term 1 after shifting out the leading exponent.

        The leading exponent must sit on the integer-q lattice (even half-units).
        """
        t = self.trim()
        if all(c == 0 for c in t.coeffs):
            raise ValueError("sqrt of the zero series")
        if t.base % 2 != 0:
            raise ValueError("sqrt branch point: leading exponent is an odd half-unit")
        if t.coeffs[0] != 1:
            raise ValueError("sqrt requires leading coefficient 1")
        g = _sqrt_unit(t.coeffs)
        return HalfLaurentSeries(t.base // 2, g, t.base // 2 + len(g))

    def log(self):
        """Series logarithm; requires constant term 1 at exponent 0.

        Solves u*f = q f' for u = q f'/f, then log f has coefficients u_k/k.
        """
        f = self._unit_part("log").coeffs
        n = len(f)
        u = _solve(f, [k * fk for k, fk in enumerate(f)], [1] * n)
        return HalfLaurentSeries(0, [0] + [_div(u[k], k) for k in range(1, n)], n)

    def inverse(self):
        """Reciprocal series; requires constant term 1 at exponent 0."""
        f = self._unit_part("inverse").coeffs
        n = len(f)
        return HalfLaurentSeries(0, _solve(f, [1] + [0] * (n - 1), [1] * n), n)

    # -- numeric -------------------------------------------------------

    def eval_real(self, q):
        """Evaluate the truncated series at real 0 < q < 1."""
        if not 0.0 < q < 1.0:
            raise ValueError("eval_real requires 0 < q < 1")
        s = math.sqrt(q)
        return math.fsum(float(c) * s ** (self.base + i) for i, c in enumerate(self.coeffs) if c)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        """Equal iff coefficients agree everywhere both series are valid."""
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.base, other.base)
        for e in range(lo, order):
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.base + i
            if e == 0:
                parts.append(f"{c}")
            elif e % 2 == 0:
                parts.append(f"{c}*q^{e // 2}")
            else:
                parts.append(f"{c}*q^({e}/2)")
            if len(parts) >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^({self.order}/2))>"


def _solve(c, rhs, d):
    """out with d[k]*out[k] = rhs[k] - sum_(1<=j<=k) c[j]*out[k-j], exactly.

    The one linear recurrence behind inverse, log and exp_neg; the inner
    loop runs over the nonzero c[j] only.
    """
    n = len(rhs)
    cnz = [(j, c[j]) for j in range(1, n) if c[j]]
    out = [0] * n
    for k in range(n):
        acc = rhs[k]
        for j, cj in cnz:
            if j > k:
                break
            v = out[k - j]
            if v:
                acc = acc - cj * v
        out[k] = _div(acc, d[k])
    return out


def _sqrt_unit(rel):
    """Coefficient list of sqrt for a unit series (rel[0] == 1).

    Runs the quadratic recurrence on the sub-lattice actually populated,
    which keeps dense integer inputs fast.
    """
    n = len(rel)
    stride = 0
    for t in range(1, n):
        if rel[t]:
            stride = math.gcd(stride, t)
            if stride == 1:
                break
    if stride == 0:  # constant series
        return [1] + [0] * (n - 1)
    m = (n - 1) // stride + 1
    h = [rel[t * stride] for t in range(m)]
    g = [0] * m
    g[0] = 1
    for t in range(1, m):
        acc = h[t]
        for k in range(1, t):
            gk = g[k]
            if gk:
                gt = g[t - k]
                if gt:
                    acc = acc - gk * gt
        g[t] = _div(acc, 2)
    out = [0] * n
    for t in range(m):
        out[t * stride] = g[t]
    return out


def exp_neg(a):
    """exp(-a) for a series a with zero constant term and no Laurent part.

    e = exp(-a) solves q e' = -(q a') e, so k e_k = -sum_j j a_j e_(k-j).
    """
    t = a.trim()
    if t.base < 0 or (t.base == 0 and t.coeffs[0] != 0):
        raise ValueError("exp_neg requires zero constant term and no negative exponents")
    if t.order < 1:
        raise ValueError("exp_neg needs validity at exponent 0")
    n = t.order
    w = [_norm(j * t.coeff(j)) for j in range(n)]  # j*a_j is often an integer: keep it an int
    return HalfLaurentSeries(0, _solve(w, [1] + [0] * (n - 1), [1, *range(1, n)]), n)


def _partitions(n):
    """Yield partitions of n as multiplicity dicts {part: count}."""
    def rec(remaining, max_part, current):
        if remaining == 0:
            yield dict(current)
            return
        for part in range(min(remaining, max_part), 0, -1):
            current[part] = current.get(part, 0) + 1
            yield from rec(remaining - part, part, current)
            if current[part] == 1:
                del current[part]
            else:
                current[part] -= 1

    yield from rec(n, n, {})


def sqrt_coeff_fdb(f, n):
    """Coefficient n (half-units above the constant term) of sqrt(f).

    Independent of the sqrt recurrence: evaluates the partition sum
    sum_m h_m(1) sum' prod_j f_j^(a_j) / a_j! with
    h_m(x) = (-1)^m x^(1/2 - m) (-1/2)_m, requiring f_0 = 1.
    """
    t = f._unit_part("sqrt_coeff_fdb")
    if n >= t.order:
        raise ValueError(f"coefficient {n} is beyond the truncation order {t.order}")
    if n < 0:
        return 0
    if n == 0:
        return 1
    coeffs = t.coeffs
    total = Fraction(0)
    for part in _partitions(n):
        m = sum(part.values())
        term = _h_m(m)
        for j, aj in part.items():
            cj = coeffs[j]
            if not cj:
                term = 0
                break
            term = term * Fraction(cj) ** aj / math.factorial(aj)
        if term:
            total += term
    return _norm(total)


def _h_m(m):
    """(-1)^m (-1/2)_m as an exact rational (x = 1 case of h_m)."""
    v = Fraction(1)
    for i in range(m):
        v *= Fraction(-1, 2) + i
    return v if m % 2 == 0 else -v
