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
from operator import add, mul, sub

import numpy as np


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
    """(d, coefficients times d, all ints) for d the least common denominator."""
    dens = [c.denominator for c in coeffs if type(c) is not int]
    d = math.lcm(*dens)
    return d, [int(c * d) for c in coeffs] if dens else coeffs


# Measured on the int64-bounded products of the benchmark's series tables:
# up to _DIRECT coefficient pairs per transform row, np.convolve is cheaper;
# below _ARRAY_FIRST coefficients in all, two Python passes over the lists
# (exact norms, then an int64 conversion) cost less than one np.array and
# its float norm estimate.
_DIRECT = 128
_ARRAY_FIRST = 768


def convolve(f, g, n):
    """First n coefficients of f*g for integer coefficient lists f and g,
    exact at every size (see _middle)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _middle(f, g, 0, n)


def _middle(f, g, lo, hi):
    """Coefficients lo <= k < hi of f*g for integer lists f and g, exactly.

    No coefficient of f*g, nor a partial sum of one, exceeds B = |f|_1 |g|_1.
    For B < 2^63, _int64 takes int64 arrays through np.convolve, which then
    cannot overflow, or through a float64 rfft/irfft of cyclic length
    N >= max(hi, len f + len g - 1 - lo), so no row at or above N aliases
    into those read.  Its operands are cut into K sign-magnitude b-bit limbs
    (a small negative coefficient is a small limb), x = sum_t X_t 2^(bt), and
    limb row s is sum_(t+u=s) X_t*Y_u.  By C. Percival (Math. Comp. 72, 2003,
    Thm 5.1) each X_t*Y_u errs by less than |X_t|_2 |Y_u|_2 E, with
    E = (1+e)^(3k) (1+e sqrt 5)^(3k+1) (1+2e)^(3k) - 1, e = 2^-53, here at
    k = ceil(log2 N) + 2 for numpy's real transform.  K is the least that
    keeps every row's sum of these below 1/4, so rint restores each row
    (each is below 1/(4E) < 2^46), and the rows summed with weights 2^(bs)
    in uint64, where wraparound is defined, give the int64 result.  For
    B >= 2^63, a product with one operand of 1-norm below 2^21 runs through
    _limbs, the rest by Kronecker substitution (D. Harvey, JSC 2009): each
    list is packed into one Python int with a w-byte slot per coefficient,
    one big-int multiply forms the product, and the slots lo..hi-1 are read
    back; with 2^(8w-1) > B each slot holds its value plus that offset
    without carrying into the next.

    From _ARRAY_FIRST coefficients in all, each list is converted to an
    array at most once (_screened): when both come out int64 and _norm1's
    estimate of B is below 2^62, B < 2^63 and _int64 runs at once.
    Otherwise, and for shorter lists, the exact norms decide.  A coefficient
    that is not an int (a Fraction or a float, which an int64 array would
    truncate) is refused.
    """
    square = f is g
    f, g = f[:hi], g[:hi]
    x = y = None
    if len(f) + len(g) >= _ARRAY_FIRST:
        x = _screened(f)
        y = x if square or x is None else _screened(g)
        estimate = _norm1(x) * _norm1(y)  # nan, failing the test, for 0 * inf
        if estimate < 2.0**62:
            return _int64(x, y, lo, hi).tolist() if estimate else [0] * (hi - lo)
    fa = sum(map(abs, f))
    ga = fa if square else sum(map(abs, g))
    if type(fa) is not int or type(ga) is not int:
        raise TypeError("exact products take int coefficients only")
    bound = fa * ga
    if not bound:
        return [0] * (hi - lo)
    if bound < 1 << 63:
        x = np.array(f, np.int64) if x is None else x.astype(np.int64, copy=False)
        return _int64(x, x if square else np.array(g, np.int64), lo, hi).tolist()
    if min(fa, ga) < 1 << 21:
        return _limbs(f, g, lo, hi) if ga < fa else _limbs(g, f, lo, hi)
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
    prod = packed * (packed if square else pack(g)) + int.from_bytes(slot * hi, "little")
    del packed
    m = hi - lo
    data = ((prod >> 8 * w * lo) & ((1 << 8 * w * m) - 1)).to_bytes(w * m, "little")
    del prod
    slots = (data[i : i + w] for i in range(0, w * m, w))
    return [v - half for v in map(int.from_bytes, slots, repeat("little"))]


def _screened(f):
    """f as an array, or None when f is empty or its last entry is not an int
    of magnitude below 2^62: then no product with f passes the int64 bound,
    and a wide or rational list costs no conversion."""
    if not len(f):
        return None
    v = f[-1]
    return np.array(f) if type(v) is int and -(1 << 62) < v < 1 << 62 else None


def _norm1(x):
    """|x|_1 in float64 for an int64 array, inf for None or any other array:
    abs is taken after the conversion, so -2^63 counts as 2^63.  Rounding
    each term and the pairwise sum errs by a relative n 2^-53 at most, so an
    estimate of |x|_1 |y|_1 below 2^62 puts the exact product below 2^63."""
    if x is None or x.dtype != np.int64:
        return math.inf
    return np.add.reduce(np.abs(x, dtype=np.float64))


def _rows(a, b, lo, m):
    """Rows lo <= k < lo + m of a*b for arrays no longer than lo + m, by
    np.convolve in "valid" mode over the window of the longer one that
    those rows read."""
    if len(a) > len(b):
        a, b = b, a
    s, span = len(a) - 1 - lo, m + len(a) - 1  # window[j] = b[j - s], 0 <= j < span
    if s or len(b) != span:
        window, part = np.zeros(span, b.dtype), b[max(-s, 0) :]
        window[max(s, 0) : max(s, 0) + len(part)] = part
        b = window
    return np.convolve(a, b, "valid")


def _percival(n):
    """E at k = ceil(log2 n) + 2 (see _middle), rounded up: log1p(e) <= e."""
    k = (n - 1).bit_length() + 2
    return math.expm1(2.0**-53 * (9 * k + (3 * k + 1) * math.sqrt(5)))


def _int64(x, y, lo, hi):
    """Rows lo <= k < hi of x*y for int64 arrays with |x|_1 |y|_1 < 2^63 (see
    _middle); numpy.fft is loaded by the first product that needs it."""
    m, rows = hi - lo, max(hi, len(x) + len(y) - 1 - lo)
    # N: the least 2^a p >= rows over odd 5-smooth p <= 135, lengths numpy transforms fast
    n = min(p << (-(-rows // p) - 1).bit_length() for p in (1, 3, 5, 9, 15, 25, 27, 45, 75, 81, 125, 135))
    if min(len(x), len(y)) * m <= _DIRECT * n:
        return _rows(x, y, lo, m)
    err = _percival(n)
    parts = (x,) if x is y else (x, y)
    top = int(max(np.abs(c).max() for c in parts)).bit_length()
    for K in range(1, top + 1):  # the fewest limbs, of b = ceil(top / K) bits, the bound allows
        # (one limb is the coefficients themselves, exact in float64 when it passes)
        b = -(-top // K)
        limbs = [[c.astype(np.float64)] if K == 1 else
                 [(np.sign(c) * ((np.abs(c) >> b * t) & ((1 << b) - 1))).astype(np.float64) for t in range(K)]
                 for c in parts]
        norms = [[math.sqrt(c @ c) for c in cut] for cut in limbs]
        if max(np.convolve(norms[0], norms[-1])) * err < 0.25:
            break
    else:
        raise ArithmeticError(f"no limb width makes a length-{n} float product exact")
    spectra = [[np.fft.rfft(c, n) for c in cut] for cut in limbs]
    X, Y = spectra[0], spectra[-1]
    out = 0
    for s in range(min(2 * K - 1, 63 // b + 1)):  # rows with b s >= 64 vanish mod 2^64
        row = np.fft.irfft(sum(X[t] * Y[s - t] for t in range(max(0, s - K + 1), min(s, K - 1) + 1)), n)
        out = out + (np.rint(row[lo:hi]).astype(np.int64).view(np.uint64) << np.uint64(b * s))
    return out.view(np.int64)


def _limbs(wide, narrow, lo, hi):
    """Coefficients lo <= k < hi of wide*narrow for |narrow|_1 < 2^21.

    Each wide coefficient is cut into K 32-bit limbs of its two's
    complement, the low ones unsigned and the top one signed, giving K limb
    columns of magnitude below 2^32.  Each column is convolved with narrow
    in float64 by np.convolve: every product and every partial sum, in
    whatever order they are taken, is an integer of magnitude at most
    |narrow|_1 (2^32 - 1) < 2^53, so each is exact.  Only the rows read are
    formed ("valid" mode over a window of the longer operand).  Column
    sums are carried into 32-bit digits from the lowest column up, and the
    last carry is a signed top digit, so each output is one
    two's-complement row of K + 1 digits.
    """
    k = max(map(abs, wide)).bit_length() // 32 + 1
    data = b"".join([v.to_bytes(4 * k, "little", signed=True) for v in wide])
    limbs = np.frombuffer(data, "<u4").reshape(len(wide), k)
    x = np.array(narrow, np.float64)
    m = hi - lo
    digits = np.empty((m, k + 1), "<u4")
    carry = 0  # into the column, from the ones below
    for t in range(k):
        col = (limbs[:, t] if t < k - 1 else limbs[:, t].view("<i4")).astype(np.float64)
        sums = _rows(col, x, lo, m).astype(np.int64) + carry
        digits[:, t] = sums.astype("<i8", copy=False).view("<u4")[::2]  # the low 32 bits
        carry = sums >> 32
    digits[:, k] = carry.astype("<i8", copy=False).view("<u4")[::2]  # |carry| < 2^22
    del data, limbs
    step = 4 * (k + 1)
    rows = memoryview(digits).cast("B")
    return [int.from_bytes(rows[i : i + step], "little", signed=True) for i in range(0, step * m, step)]


def _window(c, first, lo, hi):
    """The entries of the list c, entry 0 at exponent first, for the
    exponents lo <= e < hi, with 0 where c has none; empty when hi <= lo.
    The one read of a zero-padded window: sums, comparisons, padded powers
    and count tables all go through it."""
    head = min(max(first - lo, 0), max(hi - lo, 0))
    body = list(c[max(lo - first, 0) : max(hi - first, 0)])
    return [0] * head + body + [0] * (hi - lo - head - len(body))


def power(f, N, n):
    """First n coefficients of f^N (N >= 1), by square-and-multiply over convolve."""
    if N < 1:
        raise ValueError("power requires N >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = None
    while True:
        if N & 1:
            acc = f if acc is None else convolve(acc, f, n)
        N >>= 1
        if not N:
            return _window(acc, 0, 0, n)
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
        i = next((i for i, c in enumerate(self.coeffs) if c), len(self.coeffs) - 1)
        return HalfLaurentSeries(self.base + i, self.coeffs[i:], self.order) if i else self

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        base = min(self.base, other.base)
        if order <= base:
            return HalfLaurentSeries.zero(order)
        a, b = (_window(s.coeffs, s.base, base, order) for s in (self, other))
        return HalfLaurentSeries(base, map(add, a, b), order)

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
        out[::m] = self.coeffs
        return HalfLaurentSeries(base, out, self.order * m)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HalfLaurentSeries):
            return NotImplemented
        base = self.base + other.base
        order = min(self.order + other.base, other.order + self.base)
        return HalfLaurentSeries(base, _product(self.coeffs, other.coeffs, 0, order - base), order)

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
        lo, hi = min(self.base, other.base), min(self.order, other.order)
        return _window(self.coeffs, self.base, lo, hi) == _window(other.coeffs, other.base, lo, hi)

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
# plain loop, whose per-pair work is cheaper than a product's packing there.
_LEAF = 64


def _relaxed(acc, out, leaf, cross, block=None):
    """Drive a recurrence for out[0:n], out[k] depending on out[:k], by
    divide and conquer (J. van der Hoeven, "Relax, but don't be too lazy",
    JSC 34, 2002).

    acc[k] holds out[k]'s right-hand side less the contributions already
    added.  Each node [lo, hi) solves its left half, subtracts that half's
    contribution to the right half, cross(lo, mid, hi) -- one product of
    known blocks -- and recurses on the right half; a leaf [lo, hi) solves
    out[lo:hi] from acc[lo:hi].  Only solved outputs meet the inputs, so
    coefficients stay their own size and the cost is O(M(n) log n).  The
    ceiling midpoint keeps every node [lo, hi) with lo > 0 no longer than
    lo, which the self-convolution needs.

    A leaf [lo, hi) with lo > 0 is a triangular system in its own L = hi - lo
    unknowns y = out[lo:hi], with right-hand side a = acc[lo:hi]; as
    L <= lo, out[:L] is known there.  block(lo, hi) is the recurrence's rule
    for that system: one or two int64 products with a series B below _LEAF,
    grown once by _Inverse -- y = B a / d0 with B = d0 / (d0 + C) for _solve's
    constant d (inverse and log), y = g_L^-1 a / 2 for _sqrt_unit,
    y = P_L ((Q_L a)_r / d[lo + r]) for _exp_recurrence (derived at _solve).
    It returns y as an int64 array when every entry is an int, each
    product's |.|_1 |.|_1 stays below 2^62, so that np.convolve is exact in
    int64 (_convolve64, _Inverse.solve), and every division is exact; else
    None.  The driver tries it at every leaf past the first and writes y
    into out; leaf(lo, hi), the plain loop over the contributions of
    out[lo:k], solves the first leaf and every leaf the rule declines.  Both
    give the system's one exact solution.  B costs about one leaf of the
    loop, so the rule is only tried when two or more leaves follow the first
    (n > 2 _LEAF), and its first None ends it for the rest of the
    recurrence: outputs and blocks widen as k grows, and each failed attempt
    costs the norms it took.
    """
    if len(acc) <= 2 * _LEAF:
        block = None

    def solve(lo, hi):
        nonlocal block
        if hi - lo > _LEAF:
            mid = (lo + hi + 1) // 2
            solve(lo, mid)
            acc[mid:hi] = map(sub, acc[mid:hi], cross(lo, mid, hi))
            solve(mid, hi)
        elif lo and block and (y := block(lo, hi)) is not None:
            out[lo:hi] = y.tolist()
        else:
            if lo:
                block = None
            leaf(lo, hi)

    solve(0, len(acc))


def _int_norm1(c):
    """|c|_1 for a list of ints, None when some entry is not an int (a
    Fraction or float entry makes the sum one)."""
    v = sum(map(abs, c))
    return v if type(v) is int else None


def _convolve64(f, g, m):
    """The first m coefficients of f*g as an int64 array, for lists of ints
    with |f|_1 |g|_1 < 2^62, so that np.convolve cannot overflow (and
    _middle would take _int64 too); else None.  The norms are taken in
    Python: on a leaf's few coefficients that is cheaper than any numpy
    call, and a block that fails costs no conversion."""
    nf, ng = _int_norm1(f), _int_norm1(g)
    if nf is None or ng is None or max(nf, 1) * max(ng, 1) >= 1 << 62:  # each list fits int64
        return None
    return np.convolve(np.array(f, np.int64), np.array(g, np.int64))[:m]


class _Inverse:
    """The first terms of B = c0 / (c0 + sum_(j>=1) c_j t^j), grown on demand:
    B_k = -sum_(1<=j<=k) c_j B_(k-j) / c0 reads c[1:k+1] only when it is asked
    for, so c may be the output list a recurrence is still filling.  No term
    past the first that is not an int is taken.  Every block rule of
    _relaxed is one solve with such a B."""

    def __init__(self, c, c0):
        self.c, self.c0 = c, c0
        self.b, self.norms = [1], [1]  # the terms and the 1-norms of their prefixes
        self.ints = True

    def prefix(self, L, na):
        """B[:L] when |B[:L]|_1 na < 2^62, else None.  B costs about as much
        as one leaf of the loop, so from L/8 terms on it is grown only while
        the norm so far, raised to the power L/k as if B grew geometrically,
        keeps that bound: a B that fails only in its last terms would be
        thrown away."""
        b, norms, c = self.b, self.norms, self.c
        while len(b) < L and self.ints:
            k = len(b)
            if norms[-1] * na >= 1 << 62 or (8 * k >= L and norms[-1] ** (L / k) * na >= 2.0**62):
                return None
            v = _div(-sum(map(mul, c[k:0:-1], b)), self.c0)
            self.ints = type(v) is int
            if self.ints:
                b.append(v)
                norms.append(norms[-1] + abs(v))
        return b[:L] if len(b) >= L and norms[L - 1] * na < 1 << 62 else None

    def solve(self, a, div):
        """(B a)[:L] / div for L = len(a) as an int64 array, div a scalar or
        an array of L entries; None when a or B[:L] is not ints, |B[:L]|_1
        |a|_1 reaches 2^62 or some entry leaves a remainder."""
        na = _int_norm1(a)
        b = None if na is None else self.prefix(len(a), max(na, 1))  # B fits int64 even for a = 0
        if b is None:
            return None
        q, r = np.divmod(np.convolve(np.array(b, np.int64), np.array(a, np.int64))[: len(a)], div)
        return None if r.any() else q


def _product(f, g, lo, hi):
    """Coefficients lo <= k < hi of f*g for exact rational lists, through
    _middle on the numerators over one common denominator per list."""
    df, fi = _integral(f)
    dg, gi = (df, fi) if g is f else _integral(g)
    out = _middle(fi, gi, lo, hi)
    d = df * dg
    return out if d == 1 else [_div(v, d) for v in out]


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

    The one linear recurrence behind inverse, log and _exp_recurrence.  It
    runs on the sub-lattice that c and rhs populate, with c scaled to integers,
    through the divide-and-conquer driver -- unless c is sparse, as a theta
    series is: when the loop over the nonzero c[j] alone takes no more pairs
    than the driver's leaves (n * _LEAF / 2), that loop runs instead.

    Past the first leaf, with C = sum_(j>=1) c_j t^j, a leaf's block y with
    right-hand side a satisfies d[lo + r] y_r + (C y)_r = a_r for r < L:
    - constant d = d0 (inverse, log): (d0 + C) y = a mod t^L, so
      y = B a / d0 with B = d0 / (d0 + C);
    - d[k] = alpha k for k >= 1 and rhs = d[0] e_0 (_exp_recurrence, with
      alpha = 1 on the full lattice and s on a stride-s sub-lattice): out
      is the P with P_0 = 1 and alpha t P' = W P, W = -C.  The block
      satisfies alpha t y' + alpha lo y - W y = a, and with Q = 1/P,
      alpha t (Q y)' = Q (alpha t y') - W Q y = Q a - alpha lo Q y, so
      alpha (lo + r) (Q y)_r = (Q a)_r.  Hence y = P_L ((Q_L a)_r / d[lo + r])
      with P_L = out[:L] and Q_L its inverse; the division is exact whenever
      P is integral.
    These are the two block rules _relaxed tries past the first leaf (for
    an inverse, rhs = d0 e_0 and B is out itself, grown apart from it).
    Other d and rhs, as a caller's own, and d outside int64 (the common
    denominator of Fraction inputs scales it), have no rule and keep the
    loop at every leaf.
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
    block = None
    if d.count(d[0]) == n and abs(d[0]) < 1 << 62:  # d0 divides an int64 array
        inv = _Inverse(c, d[0])

        def block(lo, hi):
            return inv.solve(acc[lo:hi], d[0])
    elif (d[1] and abs(d[-1]) < 1 << 62 and d[1:] == list(range(d[1], n * d[1], d[1]))
          and rhs[0] == d[0] and not any(rhs[1:])):
        inv = _Inverse(out, 1)

        def block(lo, hi):
            z = inv.solve(acc[lo:hi], np.array(d[lo:hi]))
            return None if z is None else _convolve64(out[: hi - lo], z.tolist(), hi - lo)

    def dot(k, i0, i1):
        """sum of c[k-i] out[i] over i0 <= i < i1."""
        return sum(map(mul, crev[n - 1 - k + i0 : n - 1 - k + i1], out[i0:i1]))

    def leaf(lo, hi):
        for k in range(lo, hi):
            out[k] = _div(acc[k] - dot(k, lo, k), d[k])

    def cross(lo, mid, hi):
        return _product(out[lo:mid], c[1 : hi - lo], mid - lo - 1, hi - lo - 1)

    _relaxed(acc, out, leaf, cross, block)
    return out


def _sqrt_unit(rel):
    """Coefficient list of sqrt for a unit series (rel[0] == 1).

    Solves 2 g[t] = h[t] - sum_(1<=a<t) g[a] g[t-a] on the sub-lattice
    actually populated, through the divide-and-conquer driver.  Its cross
    term at lo = 0 is the block's square; above, a pair (a, t-a) with a in
    the block has t-a < lo, so it is twice the block times g[1:hi-lo].

    So past the first leaf a block y with right-hand side a satisfies
    2 g_L y = a mod t^L, g_L = g[:L] being solved already (L <= lo):
    y = g_L^-1 a / 2, the block rule _relaxed tries there.
    """
    n = len(rel)
    s = _stride(rel) or n
    acc = list(rel[::s])
    g = [1] + [0] * (len(acc) - 1)
    inv = _Inverse(g, 1)

    def pairs(t, a0, a1):
        """sum of g[a] g[t-a] over a0 <= a < a1."""
        return sum(map(mul, g[a0:a1], g[t - a0 : t - a1 : -1]))

    def leaf(lo, hi):
        for t in range(max(lo, 1), hi):
            g[t] = _div(acc[t] - (2 * pairs(t, lo, t) if lo else pairs(t, 1, t)), 2)

    def cross(lo, mid, hi):
        if lo:
            return [2 * v for v in _product(g[lo:mid], g[1 : hi - lo], mid - lo - 1, hi - lo - 1)]
        block = g[1:mid]
        return _product(block, block, mid - 2, hi - 2)

    _relaxed(acc, g, leaf, cross, lambda lo, hi: inv.solve(acc[lo:hi], 2))
    out = [0] * n
    out[::s] = g
    return out


def _exp_recurrence(w):
    """P[0:n], n = len(w), with P_0 = 1 and k P_k = sum_(1<=j<=k) w_j P_(k-j):
    the series whose log-derivative t P'/P is sum_j w_j t^j, that is
    exp(sum_j w_j t^j / j).  The one exp kernel, through _solve, whose
    leaves past the first solve y = P_L ((P_L^-1 a)_r / d[lo + r]) (see
    _solve for the derivation)."""
    n = len(w)
    return _solve([-v for v in w], [1] + [0] * (n - 1), [1, *range(1, n)])


def exp_neg(a):
    """exp(-a) for a series a with zero constant term and no Laurent part;
    its log-derivative is -sum_j j a_j q^j."""
    t = a.trim()
    if t.base < 0 or (t.base == 0 and t.coeffs[0] != 0):
        raise ValueError("exp_neg requires zero constant term and no negative exponents")
    if t.order < 1:
        raise ValueError("exp_neg needs validity at exponent 0")
    coeffs = _window(t.coeffs, t.base, 0, t.order)
    w = [_div(-j * v.numerator, v.denominator) for j, v in enumerate(coeffs)]  # -j*a_j, an int when integral
    return HalfLaurentSeries(0, _exp_recurrence(w), t.order)


def sqrt_coeff_fdb(f, n):
    """Coefficient n (half-units above the constant term) of sqrt(f).

    Independent of the sqrt recurrence and of convolve: evaluates Faa di
    Bruno's sum over m of h_m(1)/m! times [q^n] (f - 1)^m, requiring f_0 = 1,
    where h_m(x) = (-1)^m x^(1/2 - m) (-1/2)_m makes h_m(1)/m! the binomial
    coefficient (1/2 choose m).  [q^n] (f - 1)^m is m! times the sum over the
    partitions of n with m parts (the multinomial form; W. P. Johnson, Amer.
    Math. Monthly 109, 2002); the powers come from a plain truncated product.
    """
    t = f._unit_part("sqrt_coeff_fdb")
    if n >= t.order:
        raise ValueError(f"coefficient {n} is beyond the truncation order {t.order}")
    if n < 0:
        return 0
    if n == 0:
        return 1
    g = t.coeffs[: n + 1]
    power = [1] + [0] * n  # (f - 1)^(m-1) through q^n; it starts at q^(m-1)
    binom, total = Fraction(1), 0
    for m in range(1, n + 1):
        power = [0] * m + [sum(map(mul, power[m - 1 : k], g[k - m + 1 : 0 : -1])) for k in range(m, n + 1)]
        binom *= Fraction(3 - 2 * m, 2 * m)  # (1/2 choose m) from (1/2 choose m-1)
        total += binom * power[n]
    return _norm(total)
