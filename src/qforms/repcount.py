"""Representation numbers of integers by quadratic, triangular and odd-power
forms: brute-force oracles, series routes, and divisor-sum closed forms.

Conventions: counts are over ordered integer tuples ("lattice") unless a
form or closed expression is documented as nonnegative-domain ("nonneg").
Closed forms that mix conventions say so in their docstrings.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import arith
from .arith import divisor_sum, divisors
from .series import _window, convolve, power
from . import theta


@dataclass(frozen=True)
class FormSpec:
    """(sum a_l x_l^2 + b_l x_l + constant) / scale, counted where integral."""

    terms: tuple
    scale: int = 1
    constant: int = 0
    convention: str = "lattice"

    def __post_init__(self):
        if self.scale not in (1, 2):
            raise ValueError("scale must be 1 or 2")
        if self.convention not in ("lattice", "nonneg"):
            raise ValueError("convention must be 'lattice' or 'nonneg'")
        terms = tuple((int(a), int(b)) for a, b in self.terms)
        if not terms or any(a < 1 for a, _ in terms):
            raise ValueError("need at least one term, each with a_l >= 1")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def diagonal(cls, coeffs):
        return cls(tuple((a, 0) for a in coeffs))

    @classmethod
    def two_form(cls, A, B):
        return cls(((A, 0), (B, 0)))

    @classmethod
    def affine(cls, A, B, C, D, E):
        return cls(((A, C), (B, D)), constant=E)

    @classmethod
    def triangular_sum(cls, m, N, convention="lattice"):
        """N terms t_m(x) = (x^2 + m x)/2; refuses m < 0 and N < 1."""
        if m < 0 or N < 1:
            raise ValueError("need m >= 0 and N >= 1")
        return cls(tuple((1, m) for _ in range(N)), scale=2, convention=convention)


@dataclass(frozen=True)
class RepTable:
    """Counts for every target in n_range, tagged with how they were computed."""

    spec: object
    n_range: range
    counts: tuple
    method: str

    def __post_init__(self):
        if len(self.counts) != len(self.n_range):
            raise ValueError("a table needs one count per target")

    def count(self, n):
        if n not in self.n_range:
            raise ValueError(f"{n} outside tabulated range")
        return self.counts[n - self.n_range.start]


def _term_values(a, b, convention, vmax):
    """Map value -> multiplicity for a x^2 + b x <= vmax over the domain."""
    out = {}
    for x in theta._quad_range(a, b, vmax + 1):
        if convention == "nonneg" and x < 0:
            continue
        v = a * x * x + b * x
        if v <= vmax:
            out[v] = out.get(v, 0) + 1
    return out


def oracle_count(spec, n_max, lo=0):
    """Brute-force enumeration of spec over the targets lo..n_max
    (independent of series); lo may be negative."""
    s, c = spec.scale, spec.constant
    vtotal = s * n_max - c
    mins = [theta._least(a, b, spec.convention == "nonneg") for a, b in spec.terms]
    dist = {0: 1}
    for i, (a, b) in enumerate(spec.terms):
        other = sum(mins) - mins[i]
        vals = _term_values(a, b, spec.convention, vtotal - other)
        rest = sum(mins[i + 1 :])
        new = {}
        for pv, pc in dist.items():
            for v, vc in vals.items():
                t = pv + v
                if t + rest <= vtotal:
                    new[t] = new.get(t, 0) + pc * vc
        dist = new
    ns = range(lo, n_max + 1)
    return RepTable(spec, ns, tuple(dist.get(s * n - c, 0) for n in ns), "oracle")


def count_form(spec, n_max, lo=0):
    """Counts of spec over the targets lo..n_max from its generating
    function, the series twin of oracle_count; lo may be negative.

    Each distinct term a x^2 + b x contributes one theta._lattice list,
    which starts at the term's minimum; a term repeated k times enters as
    its k-th power, and the lists are multiplied as lists, with no series
    built.  The count at n is the product's coefficient at s n - c, less
    the sum of the minima, and 0 where that exponent is negative: below
    every value of the form.  Tables are cached in _count_form under
    (spec, n_max, lo) however lo is passed, so one table has one slot.
    """
    return _count_form(spec, n_max, lo)


@lru_cache(maxsize=64)
def _count_form(spec, n_max, lo):
    if n_max < lo:
        raise ValueError("n_max must be nonnegative" if lo == 0 else f"empty window {lo}..{n_max}")
    terms = Counter(spec.terms)
    nonneg = spec.convention == "nonneg"
    mins = {t: theta._least(*t, nonneg) for t in terms}
    base = sum(mins[t] * k for t, k in terms.items())
    start = spec.scale * lo - spec.constant - base  # the product's exponent read at n = lo
    top = start + spec.scale * (n_max - lo)  # and at n = n_max
    prod = []
    if top >= 0:
        for (a, b), k in terms.items():
            lat = theta._lattice(top + 1 + mins[a, b], a, b, nonneg=nonneg)  # from mins[a, b] up
            f = power(lat, k, top + 1)
            prod = convolve(prod, f, top + 1) if prod else f
    counts = tuple(_window(prod, 0, start, top + 1)[:: spec.scale])  # 0 below every value of the form
    return RepTable(spec, range(lo, n_max + 1), counts, "series")


# -- two squares and diagonal forms ------------------------------------


def r2(n):
    """Ordered integer pairs with x^2 + y^2 = n: 4 (d_1 - d_3)(n), counting
    divisors 1 and 3 mod 4, which is 4 prod (k + 1) over the p^k || n with
    p = 1 (mod 4), or 0 when some p = 3 (mod 4) has odd k."""
    if n < 0:
        raise ValueError("r2 requires n >= 0")
    if n == 0:
        return 1
    count = 4
    for p, k in arith._factor(n):
        if p % 4 == 1:
            count *= k + 1
        elif p % 4 == 3 and k % 2:
            return 0
    return count


def _bucket(n):
    return max(16, 1 << int(n).bit_length())


def count_diagonal(coeffs, n_max):
    """Counts for sum A_k x_k^2 = n over 0..n_max, any A_k >= 1: the
    count_form table of FormSpec.diagonal, which r_N_squares and tri_reduce
    also read."""
    return count_form(FormSpec.diagonal(coeffs), n_max)


def count_two_form(A, B, n):
    """Ordered integer pairs with A x^2 + B y^2 = n, any A, B >= 1 and any
    integer n (0 below 0): count_affine with C = D = E = 0, which reads
    the table count_diagonal((A, B), _bucket(n)) shares for n >= 0."""
    return count_affine(A, B, 0, 0, 0, n)


def count_affine(A, B, C, D, E, n):
    """Ordered integer pairs with A x^2 + B y^2 + C x + D y + E = n, for any
    A, B >= 1, any integers C, D, E and any integer n (0 below the form's
    least value): a read of the count_form table of FormSpec.affine up to
    n's bucket, from minus the bucket when n < 0, so that the n below 0
    in one bucket share a table as those above 0 do."""
    b = _bucket(n)
    return count_form(FormSpec.affine(A, B, C, D, E), b, -b if n < 0 else 0).count(n)


def integer_roots(coeffs, target):
    """Integer solutions t of P(t) = target, P given as (c_0, c_1, ...)."""
    q = list(coeffs)
    if len(q) < 2 or all(c == 0 for c in q[1:]):
        raise ValueError("polynomial must be nonconstant")
    q[0] -= target
    roots = [0] if q[0] == 0 else []
    while q[0] == 0 and len(q) > 1:  # factor out t; nonzero roots are unchanged
        q = q[1:]
    if len(q) == 1 or all(c == 0 for c in q[1:]):
        return roots
    for d in divisors(abs(q[0])):
        for t in (d, -d):
            if arith._poly_eval(q, t) == 0 and t not in roots:
                roots.append(t)
    return sorted(roots)


def count_poly_composed(poly, A, B, C, D, E, n):
    """Counts of the affine form at the targets t, summed over the integer
    roots t of P(t) = n, negative roots included: count_affine at each."""
    return sum(count_affine(A, B, C, D, E, t) for t in integer_roots(poly, n))


# -- power sums ----------------------------------------------------------


@lru_cache(maxsize=16)
def _indicator_values(kind, n_max):
    """The values hit by kind up to n_max, ascending, and the same values as
    a frozenset.  kind is ('power', nu) or ('poly', coeffs) with coeffs a
    tuple; count_power_sum reads these at n_max = _bucket(n), so the values
    listed for one n at most double (at nu = 1, every integer up to the
    bucket)."""
    tag, arg = kind
    vals = []
    m = 0
    while True:
        v = m**arg if tag == "power" else arith._poly_eval(arg, m)
        if v > n_max:
            return tuple(vals), frozenset(vals)
        vals.append(v)
        m += 1


def count_power_sum(kind, n):
    """Ordered pairs (k, n-k) with both parts hit by the indicator kind."""
    if n < 0:
        raise ValueError("count_power_sum requires n >= 0")
    tag = kind[0]  # refused before enumerating: at nu < 1 or a constant poly no value passes n
    if tag == "square":
        key = ("power", 2)
    elif tag == "power":
        if kind[1] < 1:
            raise ValueError("count_power_sum requires nu >= 1")
        key = ("power", kind[1])
    elif tag == "poly":
        key = ("poly", tuple(kind[1]))  # a list of coefficients is not hashable
        if len(key[1]) < 2 or min(key[1]) < 1:
            raise ValueError("count_power_sum requires at least two polynomial coefficients, all >= 1")
    else:
        raise ValueError(f"unknown indicator kind {tag!r}")
    vals, hits = _indicator_values(key, _bucket(n))
    return sum(1 for v in vals[:bisect_right(vals, n)] if n - v in hits)


# -- odd power forms: cubic and quintic ----------------------------------


def oracle_odd_power_pairs(nu, n, domain="integer"):
    """Ordered pairs with x^nu + y^nu = n by direct enumeration.

    'integer' counts integer pairs for odd nu >= 3 and n >= 1; 'nonneg'
    counts nonnegative pairs for any nu >= 1 and n >= 0.
    """
    if domain == "nonneg":
        if nu < 1 or n < 0:
            raise ValueError("nonneg pairs need nu >= 1 and n >= 0")
        count = 0
        x = 0
        while x**nu <= n:
            rest = n - x**nu
            y = arith._iroot(rest, nu)
            if y**nu == rest:
                count += 1
            x += 1
        return count
    if domain != "integer":
        raise ValueError("domain must be 'integer' or 'nonneg'")
    if nu < 3 or nu % 2 == 0:
        raise ValueError("nu must be odd and >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    if nu == 3:
        bound = math.isqrt(4 * n // 3) + 2
    else:
        bound = arith._iroot(4 * n, nu - 1) + 2
    count = 0
    for x in range(-bound, bound + 1):
        rest = n - x**nu
        y = arith._iroot(abs(rest), nu)
        if rest >= 0:
            if y**nu == rest:
                count += 1
        elif y**nu == -rest:
            count += 1
    return count


def cubic_count(n):
    """Ordered integer pairs with x^3 + y^3 = n, by the divisor closed form."""
    if n < 1:
        raise ValueError("cubic_count requires n >= 1")
    total = 0
    for d in divisors(n):
        if d**3 >= 4 * n:  # every later divisor's t is negative
            return total + (d**3 == 4 * n)
        t, r = divmod(4 * (n // d) - d * d, 3)
        if r == 0 and math.isqrt(t) ** 2 == t:
            total += 2
    return total


def quintic_count(n, variant="amended"):
    """Ordered pair count for x^5 + y^5 = n by the nested-radical closed form.

    'amended' counts over nonnegative integers and matches the enumeration
    oracle; 'as-printed' keeps the leading minus sign and excludes the
    argument 0, reproducing the printed formula's defects (-1 at n = 64,
    0 at n = 32).

    The sum runs over the divisors d <= (16 n)^(1/5), found by n % d: past
    that bound 5 d^4 + 20 n/d < (5 d^2 / 2)^2, so the outer radicand is
    negative.
    """
    if n < 1:
        raise ValueError("quintic_count requires n >= 1")
    if variant not in ("amended", "as-printed"):
        raise ValueError("variant must be 'amended' or 'as-printed'")
    first = 0
    second = 0
    for d in range(1, arith._iroot(16 * n, 5) + 1):
        if n % d:
            continue
        if d**5 == 16 * n:
            first += 1
            continue
        inner = 5 * d**4 + 20 * (n // d)
        s1 = math.isqrt(inner)
        outer = -25 * d * d + 10 * s1
        if outer < 0:  # so is every later divisor's
            break
        s2 = math.isqrt(outer)
        if s1 * s1 != inner or s2 * s2 != outer:
            continue
        num = 5 * d - s2
        if num % 10 != 0:
            continue
        arg = num // 10
        if arg >= 1 or (arg == 0 and variant == "amended"):
            second += 2
    return (first if variant == "amended" else -first) + second


# -- triangular forms -----------------------------------------------------


def tri_count(m, N, n_max, convention="lattice"):
    """Counts of sum t_m(x_k) = n (N variables): count_form of the triangular sum."""
    return count_form(FormSpec.triangular_sum(m, N, convention), n_max)


def tri_reduce(m, N, n):
    """Reduce a general triangular count to t_1 sums or square counts.

    Odd m = 2p+1 maps to the N-fold t_1 count at n + N p(p+1)/2; even
    m = 2p maps to r_N(2n + N p^2).  Both sides use lattice convention.
    """
    if m < 0 or N < 1 or n < 0:
        raise ValueError("need m >= 0, N >= 1, n >= 0")
    p = m // 2
    if m % 2 == 1:
        spec, k = FormSpec.triangular_sum(1, N), n + N * p * (p + 1) // 2
    else:
        spec, k = FormSpec.diagonal([1] * N), 2 * n + N * p * p
    return count_form(spec, _bucket(k)).counts[k]


def r_N_squares(N, n_max):
    """r_N(n): lattice points on spheres sum x_k^2 = n, from theta3^N, as
    count_form of the N-fold diagonal, which refuses n_max < 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return count_form(FormSpec.diagonal([1] * N), n_max)


def s_m(m, n):
    """Closed form for pairs t_m(x) + t_m(y) = n (lattice convention).

    Even m: r2(n + m^2/4); odd m: r2(m^2 + 4n), that is 4(d_1 - d_3)(m^2 + 4n)
    counting divisors 1 and 3 mod 4 (all of them odd, as m^2 + 4n is).
    """
    if m < 0 or n < 0:
        raise ValueError("need m >= 0 and n >= 0")
    if m % 2 == 0:
        return r2(n + (m // 2) ** 2)
    return r2(m * m + 4 * n)


def r4_closed(n):
    """r_4(n): 8 sigma(n) for odd n, 24 sigma(odd part of n) for even n."""
    if n < 0:
        raise ValueError("r4_closed requires n >= 0")
    if n == 0:
        return 1
    odd_part = n // (n & -n)  # n & -n is the largest power of 2 dividing n
    return (8 if n % 2 else 24) * divisor_sum(odd_part)


def _hurwitz6(M):
    """6 H(M) for M > 0, H the Hurwitz class number: the sum of
    h(-M/f^2) * 12/w over the f with f^2 | M and -M/f^2 = 0 or 1 (mod 4),
    where w = 6 at D = -3, 4 at D = -4 and 2 otherwise."""
    fs = [1]  # the f with f^2 | M, from M's factorization
    for p, k in arith._factor(M):
        fs = [f * p**e for e in range(k // 2 + 1) for f in fs]
    total = 0
    for f in fs:
        D = -M // (f * f)
        if D % 4 in (0, 1):
            total += arith.class_number(D) * {-3: 2, -4: 3}.get(D, 6)
    return total


def r3(n):
    """r_3(n) by Hurwitz class numbers, for every n >= 0.

    With n = 4^k m and 4 not dividing m: 0 when m = 7 (mod 8), 24 H(m)
    when m = 3 (mod 8), else 12 H(4m) (Gauss).
    """
    if n < 0:
        raise ValueError("r3 requires n >= 0")
    if n == 0:
        return 1
    m = n
    while m % 4 == 0:
        m //= 4
    if m % 8 == 7:
        return 0
    if m % 8 == 3:
        return 4 * _hurwitz6(m)
    return 2 * _hurwitz6(4 * m)


def tri_N_closed(m, N, n):
    """Divisor-sum counts for N-fold t_m sums, N in {3, 4}.

    N = 4, even m: r_4(2n + 4p^2), lattice convention.  N = 4, odd m:
    sigma_1(2n + 4p(p+1) + 1), one sixteenth of the lattice count; only at
    m = 1 is that also the nonneg count.  N = 3 requires even m and gives
    r_3(2n + 3p^2), lattice convention.
    """
    if n < 0 or m < 0:
        raise ValueError("need m >= 0 and n >= 0")
    if N == 4:
        if m % 2 == 0:
            p = m // 2
            return r4_closed(2 * n + 4 * p * p)
        p = (m - 1) // 2
        return divisor_sum(2 * n + 4 * p * (p + 1) + 1)
    if N == 3:
        if m % 2 == 1:
            raise ValueError("no closed three-variable form for odd m")
        p = m // 2
        return r3(2 * n + 3 * p * p)
    raise ValueError("closed forms cover N in {3, 4} only")


# -- exp-transform route ---------------------------------------------------


def exp_method_count(terms, n_max):
    """Counts for sum (k_l x_l^2 + h_l x_l) = n via the exp transform.

    Each term needs k > |h| > 0 with k + h odd; the exponent series is
    sum over n of (-1)^n (sum_l f_(k_l,h_l)(n)) q^n.
    """
    terms = tuple((int(k), int(h)) for k, h in terms)
    if not terms:
        raise ValueError("need at least one (k, h) term")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    counts = theta._exp_coeffs(terms, n_max + 1)[::2]
    if not all(isinstance(c, int) for c in counts):
        raise ArithmeticError("exp transform produced a non-integer count")
    return RepTable(FormSpec(terms), range(n_max + 1), tuple(counts), "transform")
