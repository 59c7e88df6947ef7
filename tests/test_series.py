"""Exact-series engine: construction, ring ops, and the three transforms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qforms import series, theta
from qforms.series import HalfLaurentSeries, convolve, exp_neg, power, sqrt_coeff_fdb

from test_repcount import r2_product

S = HalfLaurentSeries


def random_unit(rng, order=None):
    """Unit series (constant term 1) with small random integer coefficients."""
    order = order or rng.randint(5, 40)
    coeffs = [1] + [rng.randint(-3, 3) for _ in range(order - 1)]
    return S(0, coeffs, order)


def dense_unit(rng, order):
    """Unit series with every coefficient past the constant term in +-{1, 2, 3}."""
    return S(0, [1] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(order - 1)], order)


# -- construction -----------------------------------------------------------


def test_from_terms_constant():
    f = S.from_terms([(0, 1)], 10)
    assert f.coeff(0) == 1 and f.support() == [0]


def test_from_terms_polynomial():
    f = S.from_terms([(0, 1), (2, 2)], 6)
    assert [f.coeff(e) for e in range(6)] == [1, 0, 2, 0, 0, 0]


def test_from_terms_laurent_part():
    f = S.from_terms([(-2, 2)], 8)
    assert f.base == -2 and f.coeff(-2) == 2 and f.coeff(-4) == 0


def test_from_terms_duplicate_exponent_rejected():
    with pytest.raises(ValueError):
        S.from_terms([(0, 1), (0, 2)], 6)


def test_from_terms_exponent_at_order_rejected():
    with pytest.raises(ValueError):
        S.from_terms([(6, 1)], 6)


def test_coeffs_length_must_match_span():
    with pytest.raises(ValueError):
        S(0, [1, 2], 6)
    with pytest.raises(ValueError):
        S(5, [1], 5)  # order must exceed base


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        S(0, [1.0, 2], 4)


def test_integral_fraction_normalizes_to_int():
    f = S(0, [Fraction(2, 1), Fraction(1, 2)], 2)
    assert type(f.coeff(0)) is int and f.coeff(1) == Fraction(1, 2)


def test_immutable():
    f = S.one(4)
    with pytest.raises(AttributeError):
        f.base = 3


def test_coeff_above_order_is_an_error():
    f = S.one(4)
    with pytest.raises(ValueError):
        f.coeff(4)


# -- ring operations --------------------------------------------------------


def test_mul_binomial():
    f = S.from_terms([(0, 1), (2, 1)], 6)
    assert f * f == S.from_terms([(0, 1), (2, 2), (4, 1)], 6)


def test_add_additive_inverse_is_zero():
    f = S.from_terms([(0, 3), (1, -2), (5, 7)], 9)
    z = f + f.scale(-1)
    assert z.support() == []


def test_shift_triangular_prefactor():
    # sum over n of q^(t_3(n)) = 2 q^(-1) psi(q): base lands at -1 in q-units
    psi = theta.series(theta.psi(), 8)
    shifted = psi.shift(-2)
    assert shifted.base == -2
    tri = theta.series(theta.triangular(3), 7)
    assert tri == shifted.scale(2)


def test_square_binomial():
    f = S.from_terms([(0, 1), (2, 1)], 8)
    assert f.square() == S.from_terms([(0, 1), (2, 2), (4, 1)], 8)


def test_square_cube_exponents_counts_pairs():
    # squaring sum of q^(m^3) counts ordered pairs a^3 + b^3 = t
    f = S.from_terms([(2 * m**3, 1) for m in range(4)], 60)
    g = f.square()
    assert g.coeff(2 * 2) == 1 and g.coeff(2 * 9) == 2


def test_square_zero():
    z = S.zero(10)
    assert z.square().support() == []


def test_mul_order_propagation_minkowski():
    f = S(0, [1, 1, 1], 3)
    g = S(2, [1, 1, 1, 1, 1], 7)
    assert (f * g).order == min(3 + 2, 7 + 0)


def _schoolbook(f, g, n):
    out = [0] * n
    for i, a in enumerate(f[:n]):
        for j, b in enumerate(g[: n - i]):
            out[i + j] += a * b
    return out


BIG = 2**63


@pytest.mark.parametrize("f,g,n", [
    ([], [1, 2], 3),
    ([0, 0, 0], [5, -7], 4),
    ([3], [-4], 1),
    ([3], [-4, 5], 6),  # n longer than the product
    ([1, -2, 3, -4], [5, 6, -7], 2),  # n shorter than the inputs
    ([1, 2], [3], 0),
    ([127], [1], 1),  # slot-width boundaries: |f|_1 |g|_1 = 127 and 128
    ([-127], [1], 1),
    ([-128], [1], 1),
    ([128], [1], 2),
    ([64, -64], [-1, 1], 3),
    ([BIG, -BIG - 1, 1], [BIG + 5, 2, -BIG], 6),
    ([-(BIG ** 3), 0, 7], [-3, BIG], 4),
])
def test_convolve_matches_schoolbook(f, g, n):
    assert convolve(f, g, n) == _schoolbook(f, g, n)
    assert convolve(f, f, n) == _schoolbook(f, f, n)


def test_convolve_and_power_refuse_negative_n():
    # f[:n] would slice from the end and a negative shift would raise
    for call in (lambda: convolve([1, 2, 3], [1, 1], -1), lambda: convolve([1, 2], [3, 4], -2),
                 lambda: power([1, 2], 2, -1), lambda: power([1, 2], 1, -3)):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call()


def _with_norm(rng, total, k):
    """k integers of random sign whose absolute values sum to total; some may be 0."""
    cuts = sorted(rng.randrange(total + 1) for _ in range(k - 1))
    return [rng.choice((-1, 1)) * (b - a) for a, b in zip([0, *cuts], [*cuts, total])]


@pytest.mark.parametrize("bits", range(7, 64, 8))
def test_convolve_at_every_word_slot_width(monkeypatch, bits):
    # |f|_1 |g|_1 = 2^bits - 1 would take w = (bits + 1) / 8 bytes and 2^bits
    # one more: every bound up to 2^63 - 1 runs over int64 arrays, and 2^63,
    # the first 9-byte slot, through the byte packer
    routes = []
    int64 = series._int64
    monkeypatch.setattr(series, "_int64", lambda *args: routes.append(args) or int64(*args))
    rng = random.Random(bits)
    for bound in (2**bits - 1, 2**bits):
        pairs = [([bound], [1]), ([0, -bound, 0], [0, 0, -1]), ([1], [0, bound])]
        for u, v in ((bound, 1), (1, bound), (bound // 2, 2)):
            if u * v == bound:
                pairs += [(_with_norm(rng, u, 9), _with_norm(rng, v, 4)) for _ in range(3)]
        for f, g in pairs:
            for n in (1, 3, len(f) + len(g) - 1, len(f) + len(g) + 2):
                want = _schoolbook(f, g, n)
                routes.clear()
                assert convolve(f, g, n) == convolve(g, f, n) == want, (f, g, n)
                assert [series._middle(f, g, lo, n) for lo in range(n)] == [want[lo:] for lo in range(n)]
            assert bool(routes) == (bound < 2**63), (f, g)  # untruncated at the last n
            assert convolve(f, f, len(f)) == _schoolbook(f, f, len(f))


def _spy_transforms(monkeypatch):
    """The length of every forward transform _int64 takes, in order."""
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
    return lengths


def _alternating_run(j0, j1):
    """sum of (-1)^j over j0 <= j <= j1."""
    return ((-1) ** j0 + (-1) ** j1) // 2


@pytest.mark.parametrize("j", range(7, 17))
def test_fft_exact_for_all_max_inputs_at_the_widest_limbs(monkeypatch, j):
    # every coefficient at +-M maximises the limb norms for M's bit length;
    # lengths 2^(j-1) and 2^(j-1) + 1 make L = N = 2^j, and M = 2^b - 1 for
    # the widest b that the bound lets one limb take, then one bit more (two)
    monkeypatch.setattr(series, "_DIRECT", 0)
    lengths = _spy_transforms(monkeypatch)
    la, lb = 2 ** (j - 1), 2 ** (j - 1) + 1
    L = la + lb - 1
    b = max(b for b in range(1, 63) if (2**b - 1) ** 2 * math.sqrt(la * lb) * series._percival(L) < 0.25)
    for M, K in ((2**b - 1, 1), (2 ** (b + 1) - 1, 2)):
        assert la * lb * M * M < 2**63
        for alt_f, alt_g in ((False, False), (True, True), (False, True)):
            f = [-M if alt_f and i % 2 else M for i in range(la)]
            g = [-M if alt_g and i % 2 else M for i in range(lb)]
            want = []
            for r in range(L):
                j0, j1 = max(0, r - la + 1), min(r, lb - 1)  # the g index of each pair in row r
                if not alt_g:
                    terms = j1 - j0 + 1
                elif alt_f:
                    terms = (-1) ** r * (j1 - j0 + 1)
                else:
                    terms = _alternating_run(j0, j1)
                want.append(M * M * terms)
            if j == 7:
                assert want == _schoolbook(f, g, L)
            lengths.clear()
            assert convolve(f, g, L) == want, (j, M, alt_f, alt_g)
            assert lengths == [L] * 2 * K, (j, M)


def test_int64_products_on_both_sides_of_the_crossover(monkeypatch):
    lengths = _spy_transforms(monkeypatch)
    rng = random.Random(26)
    routes = set()
    for k in range(96, 220, 9):
        f = [rng.randint(-99, 99) for _ in range(k)]
        g = [rng.randint(-99, 99) for _ in range(k + 1)]
        for lo, hi in ((0, 2 * k), (k // 2, 2 * k - 3)):
            lengths.clear()
            assert series._middle(f, g, lo, hi) == _schoolbook(f, g, hi)[lo:], (k, lo, hi)
            routes.add(bool(lengths))
    assert routes == {False, True}


def test_fft_windows_at_the_aliasing_edge(monkeypatch):
    # N = L - lo exactly: one row less and row lo would alias row L - 1, which
    # is nonzero; and windows running past the last row
    monkeypatch.setattr(series, "_DIRECT", 0)
    rng = random.Random(21)
    f = [rng.randint(-9, 9) for _ in range(600)] + [7]
    g = [rng.randint(-9, 9) for _ in range(700)] + [-5]
    L = len(f) + len(g) - 1
    full = _schoolbook(f, g, L + 40)
    lengths = _spy_transforms(monkeypatch)
    for lo, hi, n in ((L - 1024, 1024, 1024), (L - 1024, 700, 1024), (L - 1080, 1080, 1080),
                      (L - 1080, 1000, 1080), (5, L + 37, None), (L - 3, L + 40, None)):
        lengths.clear()
        assert series._middle(f, g, lo, hi) == full[lo:hi], (lo, hi)
        assert lengths and (n is None or lengths == [n, n]), (lo, hi, lengths)


def test_fft_squares_take_one_transform_per_limb(monkeypatch):
    lengths = _spy_transforms(monkeypatch)
    rng = random.Random(22)
    f = [rng.randint(-50, 50) for _ in range(900)]
    for lo, hi in ((0, 900), (0, 1799), (300, 1500), (899, 1799)):
        lengths.clear()
        assert series._middle(f, f, lo, hi) == _schoolbook(f, f, hi)[lo:], (lo, hi)
        assert len(lengths) == 1, (lo, hi)
    wide = [rng.randint(-(2**21), 2**21) for _ in range(900)]  # two limbs
    lengths.clear()
    assert convolve(wide, wide, 1799) == _schoolbook(wide, wide, 1799)
    assert len(lengths) == 2


def test_int64_products_of_one_element_and_zero_operands():
    rng = random.Random(23)
    long = [rng.randint(-(2**20), 2**20) for _ in range(3000)]
    for f, g, n in (([5], long, 3000), (long, [-(2**40)], 3005), ([0] * 3000, long, 3000),
                    (long, [0] * 40 + [3], 3000), ([0] * 10 + [1], long, 20), ([1], [1], 4)):
        assert convolve(f, g, n) == convolve(g, f, n) == _schoolbook(f, g, n), (len(f), len(g), n)


def test_fft_small_negative_coefficients_next_to_a_large_one(monkeypatch):
    # sign-magnitude limbs: in two's complement -3 would be a 2^b - 3 limb, on
    # which a bound taken from the coefficients' maxima is wrong
    lengths = _spy_transforms(monkeypatch)
    rng = random.Random(24)
    for big in (2**40 + 1, -(2**40), 2**40 - 1, 2**50 + 2**21 - 1):
        f = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(700)]
        g = [rng.choice((-3, -1, 1, 2)) for _ in range(700)]
        f[350] = big
        lengths.clear()
        assert convolve(f, g, 1399) == _schoolbook(f, g, 1399), big
        assert len(lengths) == 4, big  # two limbs each


def test_fft_recombines_many_limbs_and_refuses_when_no_width_fits(monkeypatch):
    # a looser error factor forces narrow limbs, down to one bit: rows with
    # b s >= 64 are skipped and the rest wrap in uint64
    monkeypatch.setattr(series, "_DIRECT", 0)
    lengths = _spy_transforms(monkeypatch)
    f = [2**60 - 1, -(2**59), 2**58 + 3, -5, 7, -(2**57), 1, 0, -1, 2, 0, -3]
    g = [1, -1, 0, 1]  # |f|_1 |g|_1 < 2^63
    want = _schoolbook(f, g, len(f) + 3)
    for err, limbs in ((2.0**-40, 2), (2.0**-20, 4), (2.0**-8, 12), (2.0**-6, 30), (2.0**-5, 60)):
        monkeypatch.setattr(series, "_percival", lambda n, err=err: err)
        lengths.clear()
        assert convolve(f, g, len(f) + 3) == want, err
        assert len(lengths) == 2 * limbs, err
        assert series._middle(f, g, 4, 9) == want[4:9], err
    monkeypatch.setattr(series, "_percival", lambda n: 2.0**-4)  # one-bit limbs fail too
    with pytest.raises(ArithmeticError, match="no limb width"):
        convolve(f, g, len(f) + 3)


def test_int64_products_take_the_transform_only_when_long(monkeypatch):
    lengths = _spy_transforms(monkeypatch)
    direct = []
    rows = series._rows
    monkeypatch.setattr(series, "_rows", lambda *args: direct.append(len(args[0])) or rows(*args))
    theta3 = [1] + [2 if math.isqrt(k) ** 2 == k else 0 for k in range(1, 4096)]
    psi = [1 if math.isqrt(8 * k + 1) ** 2 == 8 * k + 1 else 0 for k in range(4096)]
    want = np.convolve(np.array(theta3), np.array(psi))[:4096].tolist()
    assert convolve(theta3, psi, 4096) == want
    assert lengths and not direct
    lengths.clear()
    assert convolve(theta3[:64], psi[:64], 64) == want[:64]
    assert direct and not lengths


@pytest.mark.parametrize("bits", [31, 32, 33, 64, 65, 1700])
def test_convolve_lopsided_products_on_both_sides_of_the_limb_bound(monkeypatch, bits):
    # one operand up to 2^bits, the other of 1-norm len * max just below 2^21
    # (len * max * 2^32 < 2^53: the float64 limb path) and at 2^21 (bytes);
    # enough wide entries that the product's slots are wider than 8 bytes
    calls = []
    limbs = series._limbs
    monkeypatch.setattr(series, "_limbs", lambda *args: calls.append(max(map(abs, args[1]))) or limbs(*args))
    rng = random.Random(bits)
    count = max(40, 2 ** (45 - bits))
    top = 2**bits - 1
    signed = [rng.choice((-1, 1)) * rng.randint(top // 2 + 1, top) for _ in range(count)]
    signed[::5] = [0] * len(signed[::5])
    signed[1] = -top
    for lens, mx in ((7, 299593), (8, 262144)):  # 7 * 299593 = 2^21 - 1, 8 * 262144 = 2^21
        below = lens * mx < 2**21
        for wide, narrow in ((signed, [0] + [rng.choice((-mx, mx)) for _ in range(lens)]),
                             ([top] * count, [mx] * lens)):  # every column sum at its largest
            full = len(wide) + len(narrow) - 1
            want = _schoolbook(wide, narrow, full + 3)
            calls.clear()
            assert convolve(narrow, wide, full + 3) == want
            assert calls == ([mx] if below else []), (bits, lens)  # narrow passed second
            for n in (5, len(narrow) - 1, full // 2, full + 3):
                assert convolve(wide, narrow, n) == convolve(narrow, wide, n) == want[:n], (bits, n)
            for lo, hi in ((1, 6), (len(narrow) - 1, count), (count - 3, full)):
                assert series._middle(wide, narrow, lo, hi) == want[lo:hi], (bits, lo, hi)


def test_middle_rows_match_schoolbook():
    # random row windows of a product in every path, either operand the
    # longer, as the recurrences' cross terms take them
    rng = random.Random(16)
    for _ in range(300):
        top = rng.choice((3, 2**31, 2**40, 2**64, 2**200, 2**1700))
        wide = [rng.randint(-top, top) for _ in range(rng.randint(1, 60))]
        narrow = [rng.randint(-3, 3) for _ in range(rng.randint(1, 60))]
        f, g = (wide, narrow) if rng.random() < 0.5 else (narrow, wide)
        hi = rng.randint(1, 130)
        lo = rng.randrange(hi)
        assert series._middle(f, g, lo, hi) == _schoolbook(f, g, hi)[lo:], (f, g, lo, hi)
        assert series._middle(f, f, lo, hi) == _schoolbook(f, f, hi)[lo:], (f, lo, hi)


def test_int64_route_is_kept_where_the_estimate_cannot_settle_it(monkeypatch):
    # bounds in [2^62, 2^63) fail the float estimate but the exact norms still
    # send them to _int64; 2^63 and above never go there, and -2^63 counts
    # as 2^63 (its abs is taken in float64, where int64 would wrap)
    routes = []
    int64 = series._int64
    monkeypatch.setattr(series, "_int64", lambda *args: routes.append(args) or int64(*args))
    cases = [([3 << 30], [(1 << 31) + 1], True),  # 3 (2^61 + 2^30)
             ([1 << 31, -(1 << 31)], [1 << 30, 1, -1], True),  # 2^62 + 2^33
             ([(1 << 63) - 1], [1], True),  # rounds to 2^63 in float64
             ([(1 << 61) - 1, 3, -(1 << 61)], [0, -1], True),  # 2^62 + 2
             ([1 << 32], [1 << 31], False),  # exactly 2^63
             ([-(1 << 63)], [1], False),
             ([-(1 << 63), 1, -(1 << 63)], [1, -1], False),
             ([1 << 63, -1], [1, 1], False)]  # numpy reads this list as float64
    pad = [0] * (series._ARRAY_FIRST // 2)  # long lists take the float estimate first
    cases += [(f + pad, pad + g, takes) for f, g, takes in cases]
    cases += [([-(1 << 63)] + pad + [1], [1, 1], False), ([1] + pad + [-(1 << 63)], [1] + pad, False)]
    for f, g, takes in cases:
        n = len(f) + len(g) - 1
        want = _schoolbook(f, g, n)
        routes.clear()
        assert convolve(f, g, n) == convolve(g, f, n) == want, f
        assert bool(routes) == takes, f
        assert series._middle(f, g, 1, n + 2) == [*want[1:], 0, 0], f
    assert convolve([-(1 << 63), 5], [-(1 << 63), 5], 3) == _schoolbook([-(1 << 63), 5], [-(1 << 63), 5], 3)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 0.5, 1.0, 2.0**70])
def test_convolve_refuses_coefficients_that_are_not_ints(bad):
    # an int64 array would truncate them: [1/2, 1] * [1, 1] once gave [0, 1]
    pad = [1] * series._ARRAY_FIRST
    for f, g in (([bad, 1], [1, 1]), ([1, 1], [1, bad]), ([bad, 2**70], [3]), ([bad], [bad]),
                 (pad + [bad], pad), ([bad] + pad, pad), (pad, [1, bad, 1] + pad)):
        with pytest.raises(TypeError, match="int coefficients"):
            convolve(f, g, len(f) + len(g))
    with pytest.raises(TypeError):
        power([1, bad], 2, 3)


def test_fraction_products_of_series_are_exact():
    # HalfLaurentSeries products scale Fraction coefficients to integers first
    rng = random.Random(17)
    for n in (1, 5, 64, 300):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        g = [Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 3)) for _ in range(n)]
        f[0] = g[0] = Fraction(1, 3)
        for a, b in ((f, g), (f, f), (g, [rng.randint(-3, 3) for _ in range(n)])):
            got = S(0, a, n) * S(0, b, n)
            want = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]
            assert got.coeffs == tuple(series._norm(v) for v in want), n
        assert S(0, f, n).square() == S(0, f, n) * S(0, list(f), n)


def test_convolve_random_signed_and_wide():
    rng = random.Random(13)
    for _ in range(200):
        top = rng.choice((3, 2**40, BIG, 2**200))
        f = [rng.randint(-top, top) for _ in range(rng.randint(0, 30))]
        g = [rng.randint(-top, top) for _ in range(rng.randint(0, 30))]
        n = rng.randint(0, 70)
        assert convolve(f, g, n) == _schoolbook(f, g, n), (f, g, n)


def test_power_matches_repeated_products():
    rng = random.Random(14)
    for N in (1, 2, 3, 5, 8, 13):
        f = [rng.randint(-5, 5) for _ in range(rng.randint(1, 20))]
        n = rng.randint(1, 30)
        want = f[:n] + [0] * (n - len(f))
        for _ in range(N - 1):
            want = _schoolbook(want, f, n)
        assert power(f, N, n) == want, (f, N, n)
    with pytest.raises(ValueError):
        power([1], 0, 4)


def test_mul_fraction_series_matches_schoolbook():
    rng = random.Random(15)
    for _ in range(20):
        fc = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(15)]
        gc = [Fraction(rng.randint(-BIG, BIG), rng.randint(1, 7)) for _ in range(12)] + [rng.randint(-4, 4)]
        f, g = S(-3, fc, 12), S(1, gc, 14)
        h = f * g
        assert (h.base, h.order) == (-2, 11)
        assert list(h.coeffs) == _schoolbook(fc, gc, 13)
        assert list((f * f).coeffs) == _schoolbook(fc, fc, 15)


# -- sqrt -------------------------------------------------------------------


def test_sqrt_perfect_square():
    f = S.from_terms([(0, 1), (2, 2), (4, 1)], 10)
    assert f.sqrt() == S.from_terms([(0, 1), (2, 1)], 10)


def test_sqrt_of_one():
    assert S.one(6).sqrt() == S.one(6)


def test_sqrt_recovers_two_form_theta():
    # sqrt(square(theta3(q) theta3(q^2))) has coefficient 4 at q^3,
    # the number of integer pairs with x^2 + 2 y^2 = 3
    f = theta.series(theta.theta3(), 30) * theta.series(theta.theta3(), 15).stretch(2)
    assert f.square().sqrt().coeff(6) == 4


def test_sqrt_rejects_nonunit_constant():
    with pytest.raises(ValueError):
        S.from_terms([(0, 2)], 6).sqrt()


def test_sqrt_rejects_odd_half_lead():
    with pytest.raises(ValueError):
        S.from_terms([(1, 1)], 6).sqrt()


def test_sqrt_fdb_linear():
    # q^1 coefficient of sqrt(1 + 4q) lives at half-unit 2
    f = S.from_terms([(0, 1), (2, 4)], 10)
    assert sqrt_coeff_fdb(f, 2) == 2


def test_sqrt_fdb_quadratic():
    f = S.from_terms([(0, 1), (2, 4)], 10)
    assert sqrt_coeff_fdb(f, 4) == -2


def test_sqrt_fdb_matches_recurrence():
    rng = random.Random(11)
    for _ in range(12):
        f = random_unit(rng, order=13)
        g = f.sqrt()
        for n in range(13):
            assert sqrt_coeff_fdb(f, n) == g.coeff(n), (f, n)


def test_sqrt_fdb_matches_recurrence_on_fraction_coefficients():
    rng = random.Random(12)
    f = S(0, [1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(13)], 14)
    g = f.sqrt()
    for n in range(14):
        assert sqrt_coeff_fdb(f, n) == g.coeff(n), n


def _partitions(n):
    """Partitions of n as multiplicity dicts {part: count}."""
    def rec(remaining, max_part, current):
        if remaining == 0:
            yield dict(current)
            return
        for part in range(min(remaining, max_part), 0, -1):
            current[part] = current.get(part, 0) + 1
            yield from rec(remaining - part, part, current)
            current[part] -= 1
            if not current[part]:
                del current[part]

    yield from rec(n, n, {})


def _fdb_by_partitions(coeffs, n):
    """[q^n] sqrt(f) as Faa di Bruno's sum over the partitions of n, f_0 = 1."""
    total = Fraction(0)
    for part in _partitions(n):
        m = sum(part.values())
        term = Fraction(math.factorial(m))
        for j, aj in part.items():
            term *= Fraction(coeffs[j]) ** aj / math.factorial(aj)
        h = Fraction(1)  # (-1)^m (-1/2)_m
        for i in range(m):
            h *= Fraction(-1, 2) + i
        total += (h if m % 2 == 0 else -h) * term / math.factorial(m)
    return total


def test_sqrt_fdb_matches_the_partition_sum():
    rng = random.Random(13)
    cases = [[1] + [rng.randint(-5, 5) for _ in range(14)] for _ in range(4)]
    cases += [[1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(14)] for _ in range(3)]
    cases += [[1] + [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(14)] for _ in range(4)]
    cases += [[1] + [0] * 14, [1, 0, 0, 2] + [0] * 11, [1] + [0] * 13 + [7]]
    for c in cases:
        f = S(0, c, 15)
        for n in range(15):
            got = sqrt_coeff_fdb(f, n)
            assert got == _fdb_by_partitions(c, n), (c, n)
            assert type(got) in (int, Fraction) and (type(got) is int or got.denominator > 1)


def test_sqrt_fdb_matches_recurrence_at_40():
    rng = random.Random(14)
    for f in (random_unit(rng, order=41), S(0, [1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(40)], 41)):
        assert sqrt_coeff_fdb(f, 40) == f.sqrt().coeff(40)


# -- log / exp_neg ----------------------------------------------------------


def test_log_geometric_is_mercator():
    f = S.from_terms([(2 * n, 1) for n in range(6)], 12)  # 1/(1-q) truncated
    L = f.log()
    for n in range(1, 6):
        assert L.coeff(2 * n) == Fraction(1, n)


def test_log_of_one_is_zero():
    assert S.one(8).log().support() == []


def test_log_of_alternating_general_theta_gives_divisor_weights():
    # -log(sum (-1)^n q^(2n^2+n)) = sum f_{2,1}(n) q^n, with f_{2,1}(4) = 5/4
    alt = theta.series(theta.alt_general(2, 1), 12)
    L = alt.log().scale(-1)
    assert L.coeff(8) == Fraction(5, 4)


def test_exp_neg_of_zero():
    assert exp_neg(S.zero(8)) == S.one(8)


def test_exp_neg_single_term_is_exponential_series():
    a = S.from_terms([(2, 1)], 16)
    e = exp_neg(a)
    for n in range(8):
        assert e.coeff(2 * n) == Fraction((-1) ** n, math.factorial(n))


def test_exp_neg_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_neg(S.one(6))


# -- numeric evaluation -----------------------------------------------------


def test_eval_real_constant():
    assert S.one(4).eval_real(0.5) == 1.0


def test_eval_real_theta3_at_exp_minus_pi():
    f = theta.series(theta.theta3(), 400)
    q = math.exp(-math.pi)
    direct = math.fsum(math.exp(-math.pi * n * n) for n in range(-20, 21))
    assert abs(f.eval_real(q) - direct) < 1e-12


def test_eval_real_domain():
    with pytest.raises(ValueError):
        S.one(4).eval_real(1.0)


# -- equality semantics -----------------------------------------------------


def test_equality_on_overlap_after_trim():
    f = S(0, [1, 2, 3], 3)
    g = S(-2, [0, 0, 1, 2, 3, 9], 4)  # leading zeros; extra data above f's order
    assert f == g and g == f


def test_inequality_detected_in_overlap():
    assert S(0, [1, 2], 2) != S(0, [1, 3], 2)


# -- zero-padded windows ----------------------------------------------------


def test_window_reads_each_exponent_or_zero():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(3000):
        c = [rng.randint(-3, 3) for _ in range(rng.randint(0, 8))]
        first, lo, hi = (rng.randint(-12, 12) for _ in range(3))
        at = dict(enumerate(c, first))
        want = [at.get(e, 0) for e in range(lo, hi)]
        assert series._window(c, first, lo, hi) == want, (c, first, lo, hi)
        assert series._window(tuple(c), first, lo, hi) == want, (c, first, lo, hi)
        if hi <= lo:
            seen.add("empty")
        elif hi <= first:
            seen.add("before")
        elif lo >= first + len(c):
            seen.add("after")
        elif first <= lo and hi <= first + len(c):
            seen.add("inside")
        else:
            seen.add("straddling")
    assert seen == {"empty", "before", "after", "inside", "straddling"}


def _loop_add(f, g):
    """HalfLaurentSeries.__add__ as an index loop over each series."""
    order, base = min(f.order, g.order), min(f.base, g.base)
    if order <= base:
        return S.zero(order)
    out = [0] * (order - base)
    for s in (f, g):
        for i, c in enumerate(s.coeffs):
            j = s.base - base + i
            if j >= len(out):
                break
            if c:
                out[j] = out[j] + c
    return S(base, out, order)


def _loop_eq(f, g):
    return all(f.coeff(e) == g.coeff(e) for e in range(min(f.base, g.base), min(f.order, g.order)))


def _loop_trim(f):
    i = 0
    while i < len(f.coeffs) - 1 and f.coeffs[i] == 0:
        i += 1
    return S(f.base + i, f.coeffs[i:], f.order)


def _loop_stretch(f, m):
    out = [0] * ((f.order - f.base) * m)
    for i, c in enumerate(f.coeffs):
        if c:
            out[i * m] = c
    return S(f.base * m, out, f.order * m)


def _fields(f):
    return f.base, f.order, f.coeffs, [type(c) for c in f.coeffs]


def test_window_reads_match_the_index_loops():
    rng = random.Random(20261021)
    values = (0, 0, 0, 1, -2, 5, Fraction(1, 2), Fraction(-3, 4))
    seen = set()

    def draw():
        base = rng.randint(-6, 6)
        zero = rng.random() < 0.1
        coeffs = [0 if zero else rng.choice(values) for _ in range(rng.randint(1, 10))]
        return S(base, coeffs, base + len(coeffs))

    for _ in range(3000):
        f, g = draw(), draw()
        if f.order <= g.base or g.order <= f.base:
            seen.add("disjoint")
        if not any(f.coeffs):
            seen.add("zero")
        for got, want in ((f + g, _loop_add(f, g)), (f - g, _loop_add(f, -g)), (f.trim(), _loop_trim(f)),
                          (f.stretch(3), _loop_stretch(f, 3))):
            assert _fields(got) == _fields(want), (f, g)
        assert (f == g) is _loop_eq(f, g) and (f == f.trim()) is _loop_eq(f, f.trim())
        seen.add("equal" if f == g else "unequal")
    assert seen == {"disjoint", "zero", "equal", "unequal"}


# -- randomized round-trip properties ---------------------------------------


def test_sqrt_square_roundtrips():
    rng = random.Random(5)
    for _ in range(40):
        f = random_unit(rng)
        assert f.square().sqrt() == f
        assert f.sqrt().square() == f


def test_log_exp_roundtrips():
    rng = random.Random(6)
    for _ in range(40):
        f = random_unit(rng)
        assert exp_neg(f.log().scale(-1)) == f
        a = random_unit(rng) - S.one(40)  # zero constant term
        assert exp_neg(a).log() == a.scale(-1)
    f = dense_unit(rng, 512)  # the benchmark's order
    assert exp_neg(f.log().scale(-1)) == f


def test_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        f = random_unit(rng)
        assert f * f.inverse() == S.one(f.order)
    f = dense_unit(rng, 512)  # the benchmark's order
    assert f * f.inverse() == S.one(512)


def test_mul_commutative_associative():
    rng = random.Random(8)
    for _ in range(20):
        f, g, h = (random_unit(rng, 20) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_leibniz_square_coefficients():
    rng = random.Random(9)
    f = random_unit(rng, 24)
    sq = f.square()
    for n in range(24):
        conv = sum(f.coeff(k) * f.coeff(n - k) for k in range(n + 1))
        assert sq.coeff(n) == conv


# -- divide-and-conquer recurrences against the quadratic loops ---------------------


def _loop_solve(c, rhs, d):
    """The plain O(n^2) loop for d[k] out[k] = rhs[k] - sum_(1<=j<=k) c[j] out[k-j]."""
    n = len(rhs)
    out = [0] * n
    for k in range(n):
        acc = rhs[k]
        for j in range(1, k + 1):
            acc -= c[j] * out[k - j]
        out[k] = series._norm(Fraction(acc) / d[k])
    return out


def _loop_sqrt(h):
    """The plain O(n^2) loop for 2 g[t] = h[t] - sum_(1<=k<t) g[k] g[t-k], g[0] = 1."""
    g = [1] + [0] * (len(h) - 1)
    for t in range(1, len(h)):
        acc = h[t]
        for k in range(1, t):
            acc -= g[k] * g[t - k]
        g[t] = series._norm(Fraction(acc) / 2)
    return g


def _dense(rng, n, top=3):
    return [1] + [rng.choice([v for v in range(-top, top + 1) if v]) for _ in range(n - 1)]


def _three_recurrences(c):
    """(inverse, log-derivative, exp) right-hand sides and divisors for c."""
    n = len(c)
    one = [1] + [0] * (n - 1)
    return [(c, one, [1] * n), (c, [k * v for k, v in enumerate(c)], [1] * n),
            ([0] + list(c[1:]), one, [1, *range(1, n)])]


BLOCK_EDGES = (1, 2, 3, 63, 64, 65, 127, 128, 129, 257)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_solve_matches_loop_at_block_edges(n):
    rng = random.Random(100 + n)
    for args in _three_recurrences(_dense(rng, n)):
        assert series._solve(*args) == _loop_solve(*args), n


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_sqrt_unit_matches_loop_at_block_edges(n):
    rng = random.Random(200 + n)
    f = _dense(rng, n)
    sq = convolve(f, f, n)
    assert series._sqrt_unit(sq) == _loop_sqrt(sq) == f
    root = series._sqrt_unit(f)  # f is not a square: Fraction outputs
    assert root == _loop_sqrt(f)
    if n > 2:
        assert any(type(v) is Fraction for v in root)


@pytest.mark.parametrize("leaf", [2, 3, 5])
def test_recurrences_match_loops_through_every_cross_term_path(monkeypatch, leaf):
    # tiny leaves put every order through many levels of the driver, whose
    # cross terms then meet narrow, lopsided and wide products
    monkeypatch.setattr(series, "_LEAF", leaf)
    rng = random.Random(leaf)
    for n in (1, 2, 7, 16, 17, 33, 40):
        f = _dense(rng, n)
        fr = S(0, [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n - 1)], n).coeffs
        for c in (f, fr):
            for args in _three_recurrences(c):
                assert series._solve(*args) == _loop_solve(*args), (n, c)
            assert series._sqrt_unit(c) == _loop_sqrt(c), (n, c)
        sq = convolve(f, f, n)
        assert series._sqrt_unit(sq) == f


def test_recurrences_on_the_half_unit_lattice():
    # every odd slot zero, as in exp_method_count's exponent series: the
    # kernels run on the even sub-lattice and leave the odd slots zero
    rng = random.Random(31)
    for n in (129, 258):
        c = [0] * n
        c[::2] = _dense(rng, len(c[::2]))
        for args in _three_recurrences(c):
            got = series._solve(*args)
            assert got == _loop_solve(*args) and not any(got[1::2]), n
        got = series._sqrt_unit(c)
        assert got == _loop_sqrt(c) and not any(got[1::2]), n
    c = [1] + [0] * 299
    c[3::3] = [rng.choice((-2, -1, 1, 2)) for _ in c[3::3]]
    assert series._sqrt_unit(c) == _loop_sqrt(c)
    assert series._solve(c, [1] + [0] * 299, [1] * 300) == _loop_solve(c, [1] + [0] * 299, [1] * 300)


@pytest.mark.parametrize("leaf", [64, 2])
def test_solve_on_a_sparse_theta_like_input(monkeypatch, leaf):
    # c nonzero at the squares only, as theta3 is: at _LEAF = 64 the loop over
    # the nonzero c[j] runs, at _LEAF = 2 the driver does
    monkeypatch.setattr(series, "_LEAF", leaf)
    c = [1] + [0] * 299
    for m in range(1, 18):
        c[m * m] = 2 * (-1) ** m
    for args in _three_recurrences(c):
        assert series._solve(*args) == _loop_solve(*args)


def test_solve_with_fraction_inputs():
    # exp_neg of a dense integer series has Fraction coefficients: its log and
    # inverse run the recurrence on rational c
    rng = random.Random(32)
    a = S(0, [0] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(149)], 150)
    e = exp_neg(a).coeffs
    assert any(type(v) is Fraction for v in e)
    for args in _three_recurrences(e):
        assert series._solve(*args) == _loop_solve(*args)
    assert series._sqrt_unit(e) == _loop_sqrt(e)
    assert exp_neg(a).log() == a.scale(-1)


def test_recurrences_take_integral_fractions_as_their_ints():
    # a Fraction(k, 1) among ints has common denominator 1; the products
    # still need it as an int
    c = [0] + [1] * 200
    c[10] = 3
    cf = list(c)
    cf[10] = Fraction(3)
    assert series._exp_recurrence(cf) == series._exp_recurrence(c)
    u, uf = [1] + c[1:], [1] + cf[1:]
    for _, rhs, d in _three_recurrences(u)[:2]:  # inverse and log-derivative
        assert series._solve(uf, rhs, d) == series._solve(u, rhs, d)
    # k * c_k with one c_k = v/2 at an even k is an integral Fraction
    rng = random.Random(45)
    c = [0] + [rng.randint(-3, 3) for _ in range(126)]
    c[40] = Fraction(5, 2)
    w = [k * v for k, v in enumerate(c)]
    assert w[40] == 100 and type(w[40]) is Fraction
    assert series._exp_recurrence(w) == series._exp_recurrence([int(v) for v in w])


def test_wide_coefficient_inverse_and_log_at_1024():
    # 1/f for dense f grows about 1.8 bits per index, so the driver's cross
    # terms pair outputs of up to ~1700 bits with c in +-{1, 2, 3}
    rng = random.Random(33)
    f = _dense(rng, 1024)
    inv, dlog, _ = _three_recurrences(f)
    got = series._solve(*inv)
    assert abs(got[-1]).bit_length() > 1536
    assert got == _loop_solve(*inv)
    assert series._solve(*dlog) == _loop_solve(*dlog)
    assert convolve(f, got, 1024) == [1] + [0] * 1023


def test_sqrt_of_2k_plus_1_slots_matches_loop():
    # a transform bucket's length: the root splits 513 + 512, no padding to 2048
    rng = random.Random(34)
    f = _dense(rng, 1025, top=2)
    sq = convolve(f, f, 1025)
    assert series._sqrt_unit(sq) == _loop_sqrt(sq) == f


# -- block leaves: past the first leaf, int64 products with a series taken once ----


def _binomials(rng, n, count, top):
    """Coefficients below n of a product of count binomials 1 + s t^e, e < top:
    the product, its inverse and its log-derivative all stay small, so the
    recurrences' leaves pass the int64 bound."""
    c = [1] + [0] * (n - 1)
    for _ in range(count):
        e, s = rng.randrange(1, top), rng.choice((-1, 1))
        c = [v + s * (c[k - e] if k >= e else 0) for k, v in enumerate(c)]
    return c


def _spy_block_products(monkeypatch):
    """For every block product a leaf tries, with B (_Inverse.solve) or with
    out[:L] (_convolve64), whether it ran in int64 and divided exactly."""
    outcomes = []

    def spy(product):
        def run(*args):
            z = product(*args)
            outcomes.append(z is not None)
            return z
        return run

    monkeypatch.setattr(series, "_convolve64", spy(series._convolve64))
    monkeypatch.setattr(series._Inverse, "solve", spy(series._Inverse.solve))
    return outcomes


@pytest.mark.parametrize("n", (100, 128, 129, 300, 600))
@pytest.mark.parametrize("miss", (None, 0, 2))
def test_relaxed_tries_the_block_rule_past_the_first_leaf_until_its_first_none(n, miss):
    # a toy recurrence out[k] = rhs[k] - sum_(j<k) out[j], so out[k] =
    # rhs[k] - rhs[k-1]; its block rule solves a leaf as y_r = a_r - a_(r-1)
    # and declines the miss-th leaf it is tried at (counting from 0)
    rhs = [random.Random(n).randint(-99, 99) for _ in range(n)]
    acc, out, tried, looped = list(rhs), [0] * n, [], []

    def leaf(lo, hi):
        looped.append(lo)
        for k in range(lo, hi):
            out[k] = acc[k] - sum(out[lo:k])

    def cross(lo, mid, hi):
        return [sum(out[lo:mid])] * (hi - mid)

    def block(lo, hi):
        tried.append(lo)
        return None if len(tried) - 1 == miss else np.diff(acc[lo:hi], prepend=0)

    series._relaxed(acc, out, leaf, cross, block)
    assert out == rhs[:1] + [rhs[k] - rhs[k - 1] for k in range(1, n)]
    starts = sorted({*tried, *looped})
    solved = [lo for i, lo in enumerate(tried) if i != miss]
    assert sorted(solved + looped) == starts  # each leaf once, by the rule or the loop
    if n <= 2 * series._LEAF:
        assert tried == [] and looped == starts
    elif miss is None or miss + 1 >= len(starts):
        assert tried == starts[1:] and looped == [0]
    else:
        assert tried == starts[1 : miss + 2] and looped == [0, *starts[miss + 1 :]]


@pytest.mark.parametrize("n", (63, 64, 65, 127, 128, 129, 192, 193, 257))
def test_block_leaves_match_the_loops(monkeypatch, n):
    # small (every leaf in int64), sparse, wide (2^40: the loop) and Fraction
    # inputs, on the full lattice and on stride-2 (and stride-3) sub-lattices;
    # square roots of squares, and of the inputs themselves (Fraction
    # outputs) up to 129; the exp recurrence on the log-derivative weights
    # of the small product
    outcomes = _spy_block_products(monkeypatch)
    rng = random.Random(300 + n)
    small = _binomials(rng, n, 16, 12)
    sparse = _binomials(rng, n, 3, 60)
    wide = [1] + [rng.choice((-1, 1)) * rng.randint(2**40, 2**41) for _ in range(n - 1)]
    frac = list(small)
    frac[n // 3] += Fraction(1, 2)  # 1/frac is integral below n // 3 only
    for c in (small, sparse, wide, frac):
        for s in (1, 2, 3) if c is small else (1, 2):
            cs = [0] * n
            cs[::s] = c[: len(cs[::s])]
            for args in _three_recurrences(cs)[:2]:  # inverse and log
                assert series._solve(*args) == _loop_solve(*args), (n, s)
            if n <= 129:
                assert series._sqrt_unit(cs) == _loop_sqrt(cs), (n, s)
            if c is not frac:
                assert series._sqrt_unit(convolve(cs, cs, n)) == cs, (n, s)
            if c is small:
                u = _loop_solve(cs, [k * v for k, v in enumerate(cs)], [1] * n)  # t c'/c
                assert series._exp_recurrence(u) == cs, (n, s)
                assert series._exp_recurrence([-v for v in u]) == _loop_solve(cs, [1] + [0] * (n - 1), [1] * n)
    if n > 2 * series._LEAF:
        assert any(outcomes)
    if n <= series._LEAF:
        assert not outcomes


def test_block_leaves_with_wide_blocks_fall_back_leaf_by_leaf(monkeypatch):
    # partitions into parts below 40 grow until |B|_1 |a|_1 passes 2^62: the
    # early leaves take products, and from the first that fails the loop runs
    outcomes = _spy_block_products(monkeypatch)
    n = 1100
    c = [1] + [0] * (n - 1)
    for e in range(1, 40):
        c = [v - (c[k - e] if k >= e else 0) for k, v in enumerate(c)]
    inv = series._solve(c, [1] + [0] * (n - 1), [1] * n)
    assert inv == _loop_solve(c, [1] + [0] * (n - 1), [1] * n)
    assert True in outcomes and False in outcomes
    assert abs(inv[-1]).bit_length() > 62


def test_block_leaves_with_a_denominator_past_int64():
    # c is 1 below t^64 and has 2^-70 denominators above: the scaled d0 is
    # 2^70, while out[:64] and the leaves' right-hand sides are small ints
    rng = random.Random(43)
    n = 200
    c = [1] + [0] * 63 + [Fraction(rng.randint(1, 9), 2**70) for _ in range(n - 64)]
    w = [0] * 64 + [Fraction(rng.randint(1, 9), 2**70) for _ in range(n - 64)]
    for args in (*_three_recurrences(c)[:2], ([0] + [-v for v in w[1:]], [1] + [0] * (n - 1), [1, *range(1, n)])):
        assert series._solve(*args) == _loop_solve(*args)


def test_zero_blocks_after_wide_outputs():
    # outputs of 70 bits in the first leaf, [0, 50), and zero after: the
    # later leaves have a = 0, where a zero 1-norm must not admit 70-bit
    # entries to int64
    rng = random.Random(44)
    n = 200
    p = [1] + [rng.choice((-1, 1)) * rng.randint(2**69, 2**70) for _ in range(49)] + [0] * (n - 50)
    c = _loop_solve(p, [1] + [0] * (n - 1), [1] * n)  # 1/p
    assert series._solve(c, [1] + [0] * (n - 1), [1] * n) == p
    assert series._sqrt_unit(convolve(p, p, n)) == p


def test_exp_shaped_divisors_with_another_rhs_keep_the_loop(monkeypatch):
    # d = [1, 1, 2, ...] takes the exp formula only with rhs = d[0] e_0: P_0 = 1
    # is the series it inverts.  rhs[0] = 0 would make P_0 = 0, and any other
    # rhs breaks alpha t P' = W P
    outcomes = _spy_block_products(monkeypatch)
    rng = random.Random(41)
    n = 300
    p = _binomials(rng, n, 8, 12)
    w = _loop_solve(p, [k * v for k, v in enumerate(p)], [1] * n)
    c, d = [0] + [-v for v in w[1:]], [1, *range(1, n)]
    assert series._solve(c, [1] + [0] * (n - 1), d) == p
    assert outcomes and all(outcomes)
    outcomes.clear()
    for rhs in ([0] + w[1:], [1, 1] + [0] * (n - 2), [2] + [0] * (n - 1), [0, 3] + [0] * (n - 2)):
        assert series._solve(c, rhs, d) == _loop_solve(c, rhs, d)
    one, d2 = [1] + [0] * (n - 1), [1, 2, *range(2, n)]  # d[1] = 2 breaks d[k] = alpha k
    assert series._solve(c, one, d2) == _loop_solve(c, one, d2)
    assert not outcomes


def test_transform_leaves_take_block_products_and_dense_inverses_do_not(monkeypatch):
    outcomes = _spy_block_products(monkeypatch)
    counts = series._sqrt_unit(r2_product((1, 2), 2048))  # theta_3(q) theta_3(q^2)
    assert counts[:6] == [1, 2, 2, 4, 2, 0]  # x^2 + 2y^2 = 0..5
    assert len(outcomes) >= 2048 // series._LEAF and all(outcomes)
    outcomes.clear()
    f = _dense(random.Random(42), 1024)
    assert convolve(f, series._solve(f, [1] + [0] * 1023, [1] * 1024), 1024) == [1] + [0] * 1023
    assert not any(outcomes)
