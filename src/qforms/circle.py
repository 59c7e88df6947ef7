"""Lattice-point counting for the disk and the oscillatory-series
diagnostics around it: Hardy's Bessel series, the P/Q expansion of the
error term R(x), Fresnel closed forms, Euler-Maclaurin defects, and
boundedness scans.

Exact counts use pure integer arithmetic.  The infinite series here are
conditionally convergent; truncated partial sums are averaged over a
window of consecutive cutoffs (TruncationSpec.smooth_window) to tame the
persistent oscillation of plain truncation.

Four passes are made of independent tasks and spread over the CPUs the
process may run on (_spread): the blocks of 2^16 rows of scan_columns, the
20 grid points of scan_R's G sups, two halves of n of every block of the
P/Q sums, and two halves of hardy_sum's J_1 values, taken only at the n
with r2(n) != 0.  Each task does the same operations in the same order at
any CPU count, so every output is bit-identical to a one-CPU run and
depends only on the inputs, never on scheduling.

hardy_sum keeps what of it does not depend on x, the n <= n_cut with
r2(n) != 0 and their weights, for one n_cut at a time: about 5.8 bytes per
unit of n_cut (0.58 MB at 10^5), until a call at another n_cut or
_hardy_support.cache_clear().  A sweep over x under one truncation sieves
r2 once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs for the conditionally convergent series: n_cut/k_cut bound
    the outer/inner sums, smooth_window is how many consecutive
    truncation points get averaged."""

    n_cut: int = 2000
    k_cut: int = 2000
    smooth_window: int = 64

    def __post_init__(self):
        if self.n_cut < 1 or self.k_cut < 1 or self.smooth_window < 1:
            raise ValueError("cutoffs and window must be positive")
        if self.smooth_window > self.n_cut:
            raise ValueError("smooth_window must not exceed n_cut")


@dataclass(frozen=True)
class ScanRow:
    x: float
    count: int
    pi_x: float
    R: float
    R_scaled: float


@dataclass(frozen=True)
class ScanResult:
    rows: list
    summary: dict


def lattice_count(x):
    """#{(i,j) in Z^2 : i^2 + j^2 <= x}, exactly; the <= test is done in
    integer/rational arithmetic, never on floats."""
    if not 0 <= x < math.inf:  # NaN too
        raise ValueError("x must be nonnegative and finite")
    X = Fraction(x)
    top = math.floor(X)
    total = 0
    for i in range(math.isqrt(top) + 1):
        # j^2 <= X - i^2 for integer j iff j <= isqrt(floor(X) - i^2)
        jmax = math.isqrt(top - i * i)
        total += (2 if i else 1) * (2 * jmax + 1)
    return total


_BLOCK = 1 << 16  # rows per scan block, and values per r2 sieve segment
_EXACT_SQRT = 1 << 52  # below it a float sqrt is within one of the integer root


def _isqrt(v):
    """floor(sqrt(v)) at every entry of the int64 array v, 0 <= v < 2^52:
    a float sqrt of the exactly converted v, corrected by one each way."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _r2_segment(m0, m1):
    """int64 array of r2(m) for m0 <= m < m1.  Every point (i, j) with i >= 1,
    j >= 0 stands for its four rotations; for each i <= sqrt(m1 - 1) the j
    with i^2 + j^2 in the segment are one range between integer roots, the
    ranges are laid out by np.repeat and counted by one np.bincount."""
    if not 0 <= m0 <= m1 <= _EXACT_SQRT:
        raise ValueError(f"r2 segment {m0}..{m1} must lie in 0..2^52, "
                         "where its float square roots are exact")
    ii = np.arange(1, math.isqrt(max(m1 - 1, 0)) + 1, dtype=np.int64) ** 2
    j0 = _isqrt(np.maximum(m0 - ii, 0))
    j0 += j0 * j0 < m0 - ii  # least j with i^2 + j^2 >= m0
    lens = np.maximum(_isqrt(m1 - 1 - ii) + 1 - j0, 0)
    j = np.arange(lens.sum(), dtype=np.int64)
    j += np.repeat(j0 - (np.cumsum(lens) - lens), lens)
    j *= j
    j += np.repeat(ii - m0, lens)  # i^2 + j^2 - m0, in place: scan blocks run this on pool workers
    r2 = np.bincount(j, minlength=m1 - m0)
    r2 *= 4
    if m0 == 0 < m1:
        r2[0] = 1
    return r2


def r2_table(n_max):
    """numpy int64 array of r2(0..n_max), sieved in segments of 2^16."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    arr = np.empty(n_max + 1, dtype=np.int64)
    for m0 in range(0, n_max + 1, _BLOCK):
        arr[m0:m0 + _BLOCK] = _r2_segment(m0, min(m0 + _BLOCK, n_max + 1))
    return arr


def _window_mean(partials, window):
    w = min(window, len(partials))
    return float(np.mean(partials[-w:]))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _threads(tasks):
    """How many threads run `tasks` independent tasks in _spread: the calling
    thread and a pool worker per other allowed CPU, no more than the tasks."""
    return min(_cpus(), tasks)


@lru_cache(maxsize=None)
def _pool(workers):
    """The thread pool of `workers` workers, made on first use, never at import."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="qforms-circle")


def _spread(tasks, slots, own=None):
    """Run task(slot) for every task of tasks and return (own(), the task
    results in task order).  With more than one allowed CPU the tasks go to
    the pool; own, if given, runs on the calling thread meanwhile, which
    then takes back each task that no worker has started.

    A running task holds one slot from a queue of free slots: buffers the
    calling thread allocated, _threads(len(tasks)) sets of them, so that
    workers write only through out= and allocate no arrays (arrays a worker
    allocates stay in its own malloc arena and raise the peak RSS).  A scan
    block still allocates the temporaries of its r2 sieve segments, about
    1 MB per segment at x near 10^6, and the smaller ones of its start
    count: with two allowed CPUs, scan_columns(10^6, 1) peaks at 75.8-76.4
    MB of RSS, 40 MB of it the columns, against 76.8-77.0 MB when its
    blocks ran on the calling thread alone (2-vCPU x86-64, numpy 2.4).  Tasks call no public function of this
    module: a tracer that wraps those keeps one span stack, which a
    worker's call would corrupt."""
    import queue  # imported here, as the pool is made: not at qforms' start-up

    free = queue.SimpleQueue()
    for slot in slots:
        free.put(slot)

    def held(task):
        slot = free.get()
        try:
            return task(slot)
        finally:
            free.put(slot)

    workers = _cpus() - 1
    if workers < 1:
        return (own() if own else None), [held(task) for task in tasks]
    from concurrent.futures import wait

    futures = [_pool(workers).submit(held, task) for task in tasks]
    try:
        mine = own() if own else None
        taken = {}
        for i, (task, future) in enumerate(zip(tasks, futures)):
            if future.cancel():
                taken[i] = held(task)
        return mine, [taken[i] if i in taken else f.result() for i, f in enumerate(futures)]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)  # no task outlives the call, nor writes to its buffers after it


@lru_cache(maxsize=256)  # bessel_j1's asymptotic sums and R_expansion ask for the same few m
def c1(m):
    """Exact rational (-1)^m (-1/2)_m (3/2)_m / m!."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    num = Fraction(1)
    for j in range(m):
        num *= (Fraction(-1, 2) + j) * (Fraction(3, 2) + j)
    return (-1) ** m * num / math.factorial(m)


def bessel_j1(x, method="series", N=3):
    """J_1(x).  'series' is mpmath's besselj, which raises its working
    precision past the cancellation of the power series at large x, rounded
    to a float; 'asymptotic' evaluates the large-x cosine/sine expansion
    with c1-coefficient sums truncated at N >= 0."""
    if not x < math.inf:  # NaN too
        raise ValueError("x must be finite")
    if method == "series":
        if x < 0:
            raise ValueError("x must be nonnegative")
        if x == 0:
            return 0.0
        import mpmath

        return float(mpmath.besselj(1, x))
    if method == "asymptotic":
        if x <= 0:
            raise ValueError("asymptotic form needs x > 0")
        if N < 0:
            raise ValueError("N must be nonnegative")
        cos_sum = math.fsum((-1) ** n * float(c1(2 * n)) / (2 * x) ** (2 * n)
                            for n in range(N + 1))
        sin_sum = math.fsum((-1) ** n * float(c1(2 * n + 1)) / (2 * x) ** (2 * n + 1)
                            for n in range(N + 1))
        w = x - 3 * math.pi / 4
        return math.sqrt(2 / (math.pi * x)) * (math.cos(w) * cos_sum
                                               - math.sin(w) * sin_sum)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=1)  # an x-sweep under one truncation sieves r2 once
def _hardy_support(n_cut):
    """hardy_sum's arrays that do not depend on x, read-only: the indices
    n - 1 of the n <= n_cut with r2(n) != 0 (r2(1) = 4, so the first is 0),
    those n as floats, and r2(n)/sqrt(n) at each.  An n_cut whose arrays
    cannot be allocated is refused here; lru_cache keeps no refusal."""
    try:
        r2 = r2_table(n_cut)[1:]
        at = np.flatnonzero(r2 != 0)
        n = np.add(at, 1, dtype=np.float64)
        weight = r2[at].astype(np.float64) / np.sqrt(n)
    except (MemoryError, ValueError):
        raise ValueError(f"n_cut {n_cut} is too large: its arrays cannot be allocated") from None
    for arr in (at, n, weight):
        arr.setflags(write=False)
    return at, n, weight


def hardy_sum(x, spec=TruncationSpec()):
    """pi x + sqrt(x) sum_n r2(n) J_1(2 pi sqrt(nx))/sqrt(n), truncated at
    n_cut and averaged over smooth_window consecutive cutoffs.

    J_1 is evaluated only at the n with r2(n) != 0, about a quarter of the
    n <= 10^5, in two halves that are tasks of _spread.  A zero term leaves
    a running sum as it is, so the running sum of the nonzero terms, read
    at the last nonzero n up to each cutoff, is bit for bit the running
    sum over every n; it is read only at the cutoffs the window averages.

    Those n and their weights r2(n)/sqrt(n) do not depend on x: they are
    kept (_hardy_support) for one n_cut, until a call at another n_cut or
    _hardy_support.cache_clear(), in about 5.8 bytes per unit of n_cut
    (0.58 MB at 10^5).  So each further x under the same n_cut costs only
    its J_1 pass.  Nothing that depends on x is kept."""
    if not 0 < x < math.inf:
        raise ValueError("x must be positive")
    if float(x).is_integer():
        raise ValueError("integer x sits on a jump of the lattice count")
    from scipy.special import j1  # imported here: scipy is most of qforms' start-up

    at, n, weight = _hardy_support(spec.n_cut)
    bessel = np.empty_like(n)

    def j1_part(lo, hi):
        def task(_):  # J_1(2 pi sqrt(n x)) over the nonzero n of lo..hi - 1, in place in bessel
            part = bessel[lo:hi]
            np.multiply(n[lo:hi], x, out=part)
            np.sqrt(part, out=part)
            np.multiply(2 * math.pi, part, out=part)
            j1(part, out=part)
        return task

    half = (len(n) + 1) // 2
    _spread([j1_part(0, half), j1_part(half, len(n))], [None] * _threads(2))
    sums = np.cumsum(weight * bessel)
    cutoffs = np.arange(spec.n_cut - min(spec.smooth_window, spec.n_cut), spec.n_cut)
    partials = math.pi * x + math.sqrt(x) * sums[np.searchsorted(at, cutoffs, side="right") - 1]
    return _window_mean(partials, spec.smooth_window)


_TRIG = {"M": np.cos, "N": np.sin, "P": np.cos, "Q": np.sin}


def _odd_k_setup(terms, k_cut, cols, slots):
    """sqrt(k) over odd k <= k_cut and the weights (-1)^((k+1)/2)/k^s of
    each (which, s) in terms, as columns, and `slots` sets of the buffers
    _odd_k_terms works in, k-major: one row per odd k, `cols` columns.  A
    k_cut whose arrays cannot be allocated is refused here, before any
    work starts."""
    funcs = {_TRIG[which] for which, _ in terms}
    try:
        k = np.arange(1, k_cut + 1, 2, dtype=np.float64)[:, None]
        sign = np.where((((k + 1) // 2) % 2).astype(bool), -1.0, 1.0)
        weights = [sign / k ** s for _, s in terms]
        bufs = [[np.empty((len(k), cols)) for _ in range(len(funcs) + 1)] for _ in range(slots)]
        return np.sqrt(k), weights, bufs
    except (MemoryError, ValueError):
        raise ValueError(f"k_cut {k_cut} is too large: its arrays of {(k_cut + 1) // 2} "
                         "odd k cannot be allocated") from None


def _odd_k_terms(terms, a, b_row, root_k, weights, bufs):
    """The terms (-1)^((k+1)/2) trig(a + b sqrt(k))/k^s over odd k (down
    axis 0) for every b of b_row (across axis 1), trig being cos for M/P
    and sin for N/Q: yields (t, terms) for the t-th (which, s) of terms,
    in a buffer that the next term overwrites.  The phase and each trig
    array the terms need are computed once, in bufs from _odd_k_setup (the
    last trig in place over the phase); nothing is allocated."""
    phase, *trig_bufs, acc = (buf[:, :len(b_row)] for buf in bufs)
    np.multiply(root_k, b_row, out=phase)
    np.add(a, phase, out=phase)
    funcs = list(dict.fromkeys(_TRIG[which] for which, _ in terms))
    for f, out in zip(funcs, [*trig_bufs, phase]):
        trig = f(phase, out=out)
        for t, (which, _) in enumerate(terms):
            if _TRIG[which] is f:
                yield t, np.multiply(trig, weights[t], out=acc)


def _column_sums(acc, out):
    """The sum down axis 0 of every column of acc, added in k order, into
    out.  Over two columns or more np.add.reduce adds each column row by
    row; one column it would sum pairwise, so there the sum is the last
    entry of a running sum, which adds in k order too."""
    if acc.shape[1] > 1:
        np.add.reduce(acc, axis=0, out=out)
    else:
        out[0] = np.cumsum(acc, axis=0, out=acc)[-1, 0]


def _pq_sums(terms, a, b, spec):
    """Truncated P_s (which "P") and Q_s (which "Q") for every (which, s)
    in terms: inner sums over odd k at b sqrt(n) for n <= n_cut, in blocks
    of about 4,000,000 phases, each block's phase evaluated once for all
    terms.  A block's two halves of n run as two tasks of _spread, and each
    writes its inner sums as the column sums of its terms (_column_sums)."""
    block = max(1, 4_000_000 // max(1, spec.k_cut // 2))
    cols = min(block, spec.n_cut)
    try:
        n = np.arange(1, spec.n_cut + 1, dtype=np.float64)
        b_row = b * np.sqrt(n)
        inner = np.empty((len(terms), spec.n_cut), dtype=np.float64)
    except (MemoryError, ValueError):
        raise ValueError(f"n_cut {spec.n_cut} is too large: its arrays cannot be allocated") from None
    root_k, weights, slots = _odd_k_setup(terms, spec.k_cut, (cols + 1) // 2, _threads(min(cols, 2)))

    def half(lo, hi):
        def task(bufs):
            for t, acc in _odd_k_terms(terms, a, b_row[lo:hi], root_k, weights, bufs):
                _column_sums(acc, inner[t, lo:hi])
        return task

    for lo in range(0, spec.n_cut, block):
        hi = min(lo + block, spec.n_cut)
        mid = (lo + hi + 1) // 2
        _spread([half(lo, mid), half(mid, hi)] if hi - lo > 1 else [half(lo, hi)], slots)
    return [_window_mean(np.cumsum(row / n ** s), spec.smooth_window)
            for row, (_, s) in zip(inner, terms)]


def oscillatory_sum(which, s, a, b, spec=TruncationSpec()):
    """Truncated M_s, N_s (sums over odd k with alternating sign) and
    their n-weighted double versions P_s, Q_s; inner sums are plainly
    truncated at k_cut, the reported value averages the last
    smooth_window outer partial sums."""
    if which in ("M", "N"):
        root_k, weights, (bufs,) = _odd_k_setup([(which, s)], spec.k_cut, 1, 1)
        ((_, acc),) = _odd_k_terms([(which, s)], a, np.array([float(b)]), root_k, weights, bufs)
        return _window_mean(np.cumsum(acc, axis=0, out=acc)[:, 0], spec.smooth_window)
    if which in ("P", "Q"):
        return _pq_sums([(which, s)], a, b, spec)[0]
    raise ValueError(f"unknown oscillatory sum {which!r}")


def R_expansion(x, N, spec=TruncationSpec()):
    """The P/Q expansion of R(x) = lattice_count(x) - pi x, with the
    remainder term dropped.  The P/Q series carry the odd-divisor kernel
    of r2(n)/4, so the whole expansion is scaled by 4 to land on R(x)."""
    if not 1 < x < math.inf:
        raise ValueError("x must exceed 1")
    if N < 0:
        raise ValueError("N must be nonnegative")
    try:  # (coefficient, denominator) of each P_s and Q_s term, before any sum runs
        p_terms = [((-1) ** s * float(c1(2 * s)),
                    2 ** (4 * s) * math.pi ** (2 * s + 1) * x ** (s - 0.25))
                   for s in range(1, N + 1)]
        q_terms = [((-1) ** s * float(c1(2 * s + 1)),
                    2 ** (4 * s + 2) * math.pi ** (2 * s + 2) * x ** (s + 0.25))
                   for s in range(0, N + 1)]
    except OverflowError:
        raise ValueError(f"the order-{N} expansion at x = {x} has terms past the float range") from None
    a, b = math.pi / 4, 2 * math.pi * math.sqrt(x)
    sums = _pq_sums([("P", s + 0.75) for s in range(N + 1)]
                    + [("Q", s + 1.25) for s in range(N + 1)], a, b, spec)
    P, Q = sums[:N + 1], sums[N + 1:]
    total = x ** 0.25 / math.pi * P[0]
    for (coef, den), P_s in zip(p_terms, P[1:]):
        total += coef * P_s / den
    for (coef, den), Q_s in zip(q_terms, Q):
        total -= coef * Q_s / den
    return 4.0 * total


def S_sum(x, spec=TruncationSpec()):
    """Double (n,l) form of the scaled error series: sum over n and odd
    p = 2l-1 of (-1)^(l-1) cos(2 pi sqrt(npx) + pi/4) / (np)^(3/4), that is
    -P_(3/4)(pi/4, 2 pi sqrt(x)) over the first k_cut odd p."""
    if not 0 < x < math.inf:  # NaN too
        raise ValueError("x must be positive and finite")
    odd_p = TruncationSpec(spec.n_cut, 2 * spec.k_cut, spec.smooth_window)
    return -_pq_sums([("P", 0.75)], math.pi / 4, 2 * math.pi * math.sqrt(x), odd_p)[0]


def _check_g(h, x, M):
    if not 0 <= h < 0.25:
        raise ValueError("h must satisfy 0 <= h < 1/4")
    if not 0 <= x < math.inf:
        raise ValueError("x must be nonnegative")
    if M < 1:
        raise ValueError("M must be positive")
    if not math.isfinite(x * M):  # the largest n x that _g_cos forms
        raise ValueError(f"n x passes the float range at x = {x}, M = {M}")


def _g_cos(n, x, out=None):
    """cos(2 pi sqrt(n x) + pi/4) at every n of the array n, into out if given."""
    out = np.multiply(n, x, out=out)
    np.sqrt(out, out=out)
    np.multiply(2 * math.pi, out, out=out)
    np.add(out, math.pi / 4, out=out)
    return np.cos(out, out=out)


def _g_terms(h, x, lo, hi):
    """The terms cos(2 pi sqrt(nx) + pi/4) / n^(3/4-h) of G for lo <= n < hi."""
    n = np.arange(lo, hi, dtype=np.float64)
    return _g_cos(n, x) / n ** (0.75 - h)


def G(h, x, M):
    """sum_{n<=M} cos(2 pi sqrt(nx) + pi/4) / n^(3/4-h), correctly rounded:
    one fsum over the terms, made in blocks of 2^16 so memory stays bounded."""
    _check_g(h, x, M)
    block = 1 << 16
    return math.fsum(chain.from_iterable(_g_terms(h, x, lo, min(lo + block, M + 1)).tolist()
                                         for lo in range(1, M + 1, block)))


def g_running_sup(h, x, M_max):
    """max over 1 <= M <= M_max of |G(h, x, M)|."""
    _check_g(h, x, M_max)
    return float(np.max(np.abs(np.cumsum(_g_terms(h, x, 1, M_max + 1)))))


def fresnel(z):
    """(F_C(z), F_S(z)) with the integral normalization cos/sin(pi t^2/2)."""
    if not z >= 0:
        raise ValueError("z must be nonnegative")
    if math.isinf(float(z) * float(z)):
        # scipy returns nan once z^2 overflows; there |F(z) - 1/2| < 1/(pi z)
        # is far below half an ulp of 1/2, as at z = inf
        return 0.5, 0.5
    from scipy.special import fresnel as fresnel_sc  # imported here, as in hardy_sum

    s, c = fresnel_sc(z)
    return float(c), float(s)


def fresnel_closed_sum(a, M):
    """Closed Fresnel form of the Abel-summation evaluation of
    G(0, a, M); exact only for the continuous mass t^2, so it tracks the
    direct sum within an O(sqrt(a)) envelope rather than equaling it."""
    if not 0 < a < math.inf:  # NaN too
        raise ValueError("a must be positive and finite")
    if not M >= 1:
        raise ValueError("M must be positive")
    fc1, fs1 = fresnel(2 * a ** 0.25)
    fcm, fsm = fresnel(2 * (a * M) ** 0.25)
    root2 = math.sqrt(2.0)
    main = (-2 * fc1 + 2 * fcm + 2 * fs1 - 2 * fsm) / (root2 * a ** 0.25)
    return main + (math.cos(2 * math.pi * math.sqrt(a))
                   - math.sin(2 * math.pi * math.sqrt(a))) / root2


def euler_maclaurin_defect(F, Fp, antider, M):
    """sum_{k=1}^M F(k) minus the fourth-order Euler-Maclaurin main terms
    (integral over [1,M], trapezoidal boundary, first-derivative
    correction); zero for constant F, and bounded by the F'''' remainder
    in general."""
    if M < 2:
        raise ValueError("M must be at least 2")
    direct = math.fsum(F(k) for k in range(1, M + 1))
    main = (antider(M) - antider(1)
            + (F(1) + F(M)) / 2.0
            + (Fp(M) - Fp(1)) / 12.0)
    return direct - main


def _em_phase(a, t):
    return 2 * math.pi * math.sqrt(a * t) + math.pi / 4


def euler_maclaurin_residual(a, M):
    """|Euler-Maclaurin defect| for F(t) = cos(2 pi sqrt(at) + pi/4)/sqrt(t),
    using the exact antiderivative sin(2 pi sqrt(at) + pi/4)/(pi sqrt(a))."""
    if not 0 < a < math.inf:  # NaN too
        raise ValueError("a must be positive and finite")
    sa = math.sqrt(a)

    def F(t):
        return math.cos(_em_phase(a, t)) / math.sqrt(t)

    def Fp(t):
        return (-math.cos(_em_phase(a, t)) / (2 * t ** 1.5)
                - math.pi * sa * math.sin(_em_phase(a, t)) / t)

    def antider(t):
        return math.sin(_em_phase(a, t)) / (math.pi * sa)

    return abs(euler_maclaurin_defect(F, Fp, antider, M))


def euler_maclaurin_f4_bound(a, M):
    """(1/120) sum over unit intervals of an upper envelope of |F''''|;
    each of the five terms of F'''' decays in t, so its value at the left
    endpoint bounds the interval."""
    if not 0 < a < math.inf:  # NaN too
        raise ValueError("a must be positive and finite")
    if M < 2:
        raise ValueError("M must be at least 2")
    pi = math.pi
    env = [pi ** 4 * a * a / k ** 2.5
           + 5 * pi ** 3 * a ** 1.5 / k ** 3
           + 105 * pi * math.sqrt(a) / (8 * k ** 4)
           + 45 * pi * pi * a / (4 * k ** 3.5)
           + 105 / (16 * k ** 4.5)
           for k in range(1, M)]
    return math.fsum(env) / 120.0


def em_f4(a, t):
    """The fourth derivative of cos(2 pi sqrt(at) + pi/4)/sqrt(t), written
    with the phase pi(8 sqrt(ta) + 1)/4."""
    w = math.pi * (8 * math.sqrt(t * a) + 1) / 4
    pi = math.pi
    return (pi ** 4 * a * a * math.cos(w) / t ** 2.5
            - 5 * pi ** 3 * a * math.sqrt(t * a) * math.sin(w) / t ** 3.5
            + 105 * pi * math.sqrt(t * a) * math.sin(w) / (8 * t ** 4.5)
            - 45 * pi * pi * a * math.cos(w) / (4 * t ** 3.5)
            + 105 * math.cos(w) / (16 * t ** 4.5))


def _scan_rows(x_max, step):
    """The number of rows of a scan at x = step, 2 step, ... <= x_max."""
    if x_max < 1 or step <= 0:
        raise ValueError("need x_max >= 1 and step > 0")
    if not (math.isfinite(x_max) and math.isfinite(step)):
        raise ValueError("x_max and step must be finite")
    if x_max >= _EXACT_SQRT:
        raise ValueError(f"x_max {x_max} is not below 2^52, the reach of the r2 sieve")
    if step > x_max:
        raise ValueError(f"step {step} exceeds x_max {x_max}: the scan has no rows")
    if not math.isfinite(x_max / step):
        raise ValueError(f"x_max / step overflows: {x_max} / {step}")
    return int(math.floor(x_max / step))


def _count_below(m):
    """#{(i, j) in Z^2 : i^2 + j^2 < m}, exactly, for 0 <= m <= 2^52: one for
    the origin plus four times the sum of isqrt(m - 1 - i^2) over 0 <= i <=
    sqrt(m - 1), with i taken in chunks of 2^16 so memory stays bounded."""
    if m <= 0:
        return 0
    top, total = m - 1, 1
    stop = math.isqrt(top) + 1
    for i0 in range(0, stop, _BLOCK):
        i = np.arange(i0, min(i0 + _BLOCK, stop), dtype=np.int64)
        total += 4 * int(_isqrt(top - i * i).sum())
    return total


_SCAN_TYPES = (np.float64, np.int64, np.float64, np.float64, np.float64)  # x, count, pi_x, R, R_scaled


def _scan_slots(slots):
    """`slots` sets of the buffers _scan_block works in: a read-only ramp 0,
    1, ..., 2^16 - 1 that every set shares, and three int64 arrays of 2^16."""
    ramp = np.arange(_BLOCK, dtype=np.float64)
    return [(ramp, *(np.empty(_BLOCK, dtype=np.int64) for _ in range(3))) for _ in range(slots)]


def _scan_block(k0, step, cols, bufs):
    """Rows k0, k0 + 1, ... of a scan, row k at x = k step, into the column
    slices cols = (x, count, pi_x, R, R_scaled), one row per entry, through
    out= into them and the buffers bufs of _scan_slots.  The count at x is
    the lattice count at floor(x).  A block stands alone: it starts from the
    exact count below its first floor(x) (_count_below), and sieves r2 in
    segments of at most 2^16 from there to its last floor(x)."""
    x, counts, pi_x, R, R_scaled = cols
    ramp, fl, idx, cum = bufs
    ramp, fl, idx = ramp[:len(x)], fl[:len(x)], idx[:len(x)]
    np.add(ramp, k0, out=x)  # k0, k0 + 1, ..., exact: the floats hold integers below 2^53
    np.multiply(x, step, out=x)
    fl[...] = np.floor(x, out=pi_x)  # pi_x holds floor(x) until it is filled
    pos, end, a = int(fl[0]), int(fl[-1]) + 1, 0
    total = _count_below(pos)  # total = #{(i, j) : i^2 + j^2 < pos}
    for m0 in range(pos, end, _BLOCK):
        pos = min(m0 + _BLOCK, end)
        seg = np.cumsum(_r2_segment(m0, pos), out=cum[:pos - m0])
        seg += total
        b = int(np.searchsorted(fl, pos))
        # the indices lie in the segment; "clip", as the default mode buffers out=
        np.take(seg, np.subtract(fl[a:b], m0, out=idx[a:b]), out=counts[a:b], mode="clip")
        total, a = int(seg[-1]), b
    np.multiply(math.pi, x, out=pi_x)
    np.subtract(counts, pi_x, out=R)
    np.divide(R, np.power(x, 0.25, out=R_scaled), out=R_scaled)


def scan_columns(x_max, step):
    """Column arrays (x, count, pi_x, R, R_scaled) at x = step, 2 step, ...
    <= x_max.  Every block of 2^16 rows is a task of _spread that fills its
    slices of the columns (_scan_block); blocks do not depend on each other,
    so the columns are the same at any CPU count."""
    rows = _scan_rows(x_max, step)
    try:
        cols = tuple(np.empty(rows, dtype=t) for t in _SCAN_TYPES)
    except (MemoryError, ValueError):
        raise ValueError(f"a scan of {rows:.3g} rows needs {40 * rows:.3g} bytes of columns, "
                         "more than can be allocated") from None

    def block(lo):
        def task(bufs):
            _scan_block(lo + 1, step, [col[lo:lo + _BLOCK] for col in cols], bufs)
        return task

    blocks = [block(lo) for lo in range(0, rows, _BLOCK)]
    _spread(blocks, _scan_slots(_threads(len(blocks))))
    return cols


def scan_R(x_max, step=1.0, delta=0.1, collect_rows=True):
    """Scan of the circle-problem error: rows per step plus a summary with
    sup |R(x)|/x^(1/4) and the running sups of |G| (at h = 0 and h =
    delta) over M <= 2^17 on a 20-point x grid.  The grid points are tasks
    of _spread.  Meanwhile the calling thread runs the scan block by block
    (_scan_block) into one set of block-sized buffers, so without rows its
    memory does not grow with x_max; the rows are scan_columns' rows."""
    if not 0 <= delta < 0.25:
        raise ValueError("delta must satisfy 0 <= delta < 1/4")
    n_rows = _scan_rows(x_max, step)

    def scan():
        (bufs,) = _scan_slots(1)
        block = [np.empty(_BLOCK, dtype=t) for t in _SCAN_TYPES]
        sup_r, rows = 0.0, []
        for lo in range(0, n_rows, _BLOCK):
            cols = [col[:n_rows - lo] for col in block]
            _scan_block(lo + 1, step, cols, bufs)
            x, counts, pi_x, R, R_scaled = cols
            sup_r = max(sup_r, float(np.max(np.abs(R_scaled))))
            if collect_rows:
                rows += [ScanRow(float(a), int(b), float(c), float(d), float(e))
                         for a, b, c, d, e in zip(x, counts, pi_x, R, R_scaled)]
        return sup_r, rows

    # g_running_sup at (0, 2^17), (0, 2^16) and (delta, 2^17) per grid
    # point, from one cos array; cumsum adds in order, so the 2^16 sup is
    # the one over the first half of the 2^17 partial sums
    n = np.arange(1, (1 << 17) + 1, dtype=np.float64)
    w0, w_delta = n ** 0.75, n ** (0.75 - delta)

    def grid_point(gx):
        def task(slot):
            c, g = slot
            _g_cos(n, gx, out=c)
            g0 = np.abs(np.cumsum(np.divide(c, w0, out=g), out=g), out=g)
            sup0, sup_half = float(np.max(g0)), float(np.max(g0[:1 << 16]))
            g_delta = np.abs(np.cumsum(np.divide(c, w_delta, out=g), out=g), out=g)
            return sup0, sup_half, float(np.max(g_delta))
        return task

    grid = [grid_point(j * x_max / 20 + 0.5) for j in range(1, 21)]
    slots = [(np.empty_like(n), np.empty_like(n)) for _ in range(_threads(len(grid)))]
    (sup_r, rows), sups = _spread(grid, slots, scan)
    sup_g, sup_g_half, sup_g_delta = map(max, zip(*sups))
    summary = {
        "sup_R_scaled": sup_r,
        "sup_G": sup_g,
        "sup_G_halfM": sup_g_half,
        "sup_G_delta": sup_g_delta,
    }
    return ScanResult(rows=rows, summary=summary)
