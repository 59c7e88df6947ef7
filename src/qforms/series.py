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
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul, sub


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
        return HalfLaurentSeries(base, _product(self.coeffs, other.coeffs, order - base), order)

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


# Measured on dense random inputs: blocks of at most _LEAF outputs run the
# plain loop, whose per-pair work is cheaper than a product's packing there;
# in _solve, integer blocks wider than _WIDE bits keep the loop's cross term,
# because the product's slots would pad the narrow operand to the wide one
# (inverse of a dense series at order 1024).  Square roots of wide integer
# series have no measured workload, so _sqrt_unit always takes the product.
_LEAF = 64
_WIDE = 384


def _relaxed(acc, leaf, cross):
    """Drive a recurrence for out[0:n], out[k] depending on out[:k], by
    divide and conquer (J. van der Hoeven, "Relax, but don't be too lazy",
    JSC 34, 2002).

    acc[k] holds out[k]'s right-hand side less the contributions already
    added.  Each node [lo, hi) solves its left half, subtracts that half's
    contribution to the right half, cross(lo, mid, hi) -- one product of
    known blocks -- and recurses on the right half; leaf(lo, hi) is the
    plain loop over the contributions of out[lo:k].  Only solved outputs
    meet the inputs, so coefficients stay their own size and the cost is
    O(M(n) log n).  The ceiling midpoint keeps every node [lo, hi) with
    lo > 0 no longer than lo, which the self-convolution needs.
    """

    def solve(lo, hi):
        if hi - lo <= _LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi + 1) // 2
        solve(lo, mid)
        acc[mid:hi] = map(sub, acc[mid:hi], cross(lo, mid, hi))
        solve(mid, hi)

    solve(0, len(acc))


def _product(f, g, n):
    """First n coefficients of f*g for exact rational lists, through convolve
    on the numerators over one common denominator per list."""
    df, fi = _integral(f)
    dg, gi = (df, fi) if g is f else _integral(g)
    out = convolve(fi, gi, n)
    d = df * dg
    return out if d == 1 else [_div(v, d) for v in out]


def _wide(*blocks):
    """True when the blocks are integer lists with a value wider than _WIDE
    bits.  Rational blocks always take the product, which replaces Fraction
    arithmetic by integer work."""
    values = list(chain.from_iterable(blocks))
    if Fraction in set(map(type, values)):
        return False
    return max(map(abs, values), default=0).bit_length() > _WIDE


def _stride(*lists):
    """Gcd of the positive indices at which some list is nonzero (0 if none)."""
    s = 0
    for c in lists:
        for t in range(1, len(c)):
            if c[t]:
                s = math.gcd(s, t)
                if s == 1:
                    return 1
    return s


def _solve(c, rhs, d):
    """out with d[k]*out[k] = rhs[k] - sum_(1<=j<=k) c[j]*out[k-j], exactly.

    The one linear recurrence behind inverse, log and exp_neg.  It runs on
    the sub-lattice that c and rhs populate, with c scaled to integers,
    through the divide-and-conquer driver -- unless c is sparse, as a theta
    series is: when the loop over the nonzero c[j] alone takes no more pairs
    than the driver's leaves (n * _LEAF / 2), that loop runs instead.
    """
    n = len(rhs)
    s = _stride(c, rhs) or n
    if s > 1:
        out = [0] * n
        out[::s] = _solve(c[::s], rhs[::s], d[::s])
        return out
    dc, c = _integral(c)
    if dc > 1:
        rhs = [dc * v for v in rhs]
        d = [dc * v for v in d]
    out = [0] * n
    cnz = [(j, c[j]) for j in range(1, n) if c[j]]
    if sum(n - j for j, _ in cnz) <= n * _LEAF // 2:
        for k in range(n):
            acc = rhs[k]
            for j, cj in cnz:
                if j > k:
                    break
                acc -= cj * out[k - j]
            out[k] = _div(acc, d[k])
        return out
    crev = c[::-1]
    acc = list(rhs)

    def dot(k, i0, i1):
        """sum of c[k-i] out[i] over i0 <= i < i1."""
        return sum(map(mul, crev[n - 1 - k + i0 : n - 1 - k + i1], out[i0:i1]))

    def leaf(lo, hi):
        for k in range(lo, hi):
            out[k] = _div(acc[k] - dot(k, lo, k), d[k])

    def cross(lo, mid, hi):
        block, part = out[lo:mid], c[1 : hi - lo]
        if _wide(block, part):
            return [dot(k, lo, mid) for k in range(mid, hi)]
        return _product(block, part, hi - lo - 1)[mid - lo - 1 :]

    _relaxed(acc, leaf, cross)
    return out


def _sqrt_unit(rel):
    """Coefficient list of sqrt for a unit series (rel[0] == 1).

    Solves 2 g[t] = h[t] - sum_(1<=a<t) g[a] g[t-a] on the sub-lattice
    actually populated, through the divide-and-conquer driver.  Its cross
    term at lo = 0 is the block's square; above, a pair (a, t-a) with a in
    the block has t-a < lo, so it is twice the block times g[1:hi-lo].
    """
    n = len(rel)
    s = _stride(rel) or n
    acc = list(rel[::s])
    g = [1] + [0] * (len(acc) - 1)

    def pairs(t, a0, a1):
        """sum of g[a] g[t-a] over a0 <= a < a1."""
        return sum(map(mul, g[a0:a1], g[t - a0 : t - a1 : -1]))

    def leaf(lo, hi):
        for t in range(max(lo, 1), hi):
            g[t] = _div(acc[t] - (2 * pairs(t, lo, t) if lo else pairs(t, 1, t)), 2)

    def cross(lo, mid, hi):
        if lo:
            return [2 * v for v in _product(g[lo:mid], g[1 : hi - lo], hi - lo - 1)[mid - lo - 1 :]]
        block = g[1:mid]
        return _product(block, block, hi - 2)[mid - 2 :]

    _relaxed(acc, leaf, cross)
    out = [0] * n
    out[::s] = g
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
    coeffs = [0] * t.base + list(t.coeffs)
    w = [_div(j * v.numerator, v.denominator) for j, v in enumerate(coeffs)]  # j*a_j, an int when integral
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
    h_m(x) = (-1)^m x^(1/2 - m) (-1/2)_m, requiring f_0 = 1.  The inner
    sum over the partitions with m parts is kept times m!, where each term
    is the integer multinomial m!/prod_j a_j! times prod_j f_j^(a_j).
    """
    t = f._unit_part("sqrt_coeff_fdb")
    if n >= t.order:
        raise ValueError(f"coefficient {n} is beyond the truncation order {t.order}")
    if n < 0:
        return 0
    if n == 0:
        return 1
    coeffs = t.coeffs
    fact = list(accumulate(range(1, n + 1), mul, initial=1))
    inner = [0] * (n + 1)  # inner[m]: m! times the sum over partitions with m parts
    for part in _partitions(n):
        m = sum(part.values())
        weight, prod = fact[m], 1
        for j, aj in part.items():
            if not coeffs[j]:
                break
            weight //= fact[aj]
            prod = prod * coeffs[j] ** aj
        else:
            inner[m] += weight * prod
    return _norm(sum(_h_m(m) * inner[m] / fact[m] for m in range(1, n + 1) if inner[m]))


@lru_cache(maxsize=128)
def _h_m(m):
    """(-1)^m (-1/2)_m as an exact rational (x = 1 case of h_m)."""
    v = Fraction(1)
    for i in range(m):
        v *= Fraction(-1, 2) + i
    return v if m % 2 == 0 else -v
