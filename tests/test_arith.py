"""Divisor sums, characters, indicators, and class numbers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qforms import arith, theta
from qforms.arith import (chi0, chi_kh, class_number, divisor_sum, divisors,
                          f_kh, indicator, indicator_I, reduced_forms,
                          sigma_star)
from qforms.repcount import r2


# -- factorization --------------------------------------------------------------


def _factor_by_smallest_prime_factors(n_max):
    """[(p, k), ...] for every n < n_max, read off a smallest-prime-factor sieve."""
    spf = list(range(n_max))
    for p in range(2, math.isqrt(n_max - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, n_max):
        fs = []
        while n > 1:
            p, k = spf[n], 0
            while n % p == 0:
                n //= p
                k += 1
            fs.append((p, k))
        yield fs


def test_factor_matches_a_smallest_prime_factor_sieve():
    for n, fs in enumerate(_factor_by_smallest_prime_factors(1 << 16), 1):
        assert arith._factor(n) == fs, n


def test_factor_past_the_edge_of_the_prime_table():
    odd_primes = tuple(p for p in range(3, 1 << 10, 2)
                       if all(p % q for q in range(3, math.isqrt(p) + 1, 2)))
    assert arith._ODD_PRIMES == odd_primes and odd_primes[-1] == 1021
    # 1031 and 1033 are the first primes past the table, found by the odd-p walk
    M = 2**31 - 1
    cases = {1021**2: [(1021, 2)], 1021 * 1031: [(1021, 1), (1031, 1)],
             1031**2: [(1031, 2)], 1031 * 1033: [(1031, 1), (1033, 1)],
             M: [(M, 1)], 3 * M: [(3, 1), (M, 1)],
             10007 * 10009: [(10007, 1), (10009, 1)],
             2**5 * 1021 * 1033**3: [(2, 5), (1021, 1), (1033, 3)]}
    for n, fs in cases.items():
        assert arith._factor(n) == fs, n


def _factor_by_trial_division(n):
    """[(p, k), ...] for n >= 1 by trial division by 2 and every odd p."""
    fs = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            fs.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        fs.append((n, 1))
    return fs


def test_factor_matches_the_sieve_on_both_sides_of_the_least_factor_table():
    assert arith._SIEVED == 1 << 17
    for n, fs in enumerate(_factor_by_smallest_prime_factors(1 << 18), 1):
        assert arith._factor(n) == fs, n


def test_factor_at_the_edges_of_the_least_factor_table():
    assert arith._factor(2**17 - 1) == [(131071, 1)]  # a prime just below the table's end
    assert arith._factor(359**2) == [(359, 2)]  # the largest p with p^2 below 2^17
    assert arith._factor(367**2) == [(367, 2)]  # the next prime, whose square is past it
    assert arith._factor(3 * 131071) == [(3, 1), (131071, 1)]
    assert arith._factor(1021 * 131071) == [(1021, 1), (131071, 1)]
    assert arith._factor(2**5 * (2**17 + 1)) == [(2, 5), (3, 1), (43691, 1)]
    for n in (2**17 - 3, 2**17 - 1, 2**17 + 1, 2**17 + 3, 359**2, 362**2, 367**2,
              3 * 131071, 1021 * 131071, 2**5 * (2**17 + 1)):
        assert arith._factor(n) == _factor_by_trial_division(n), n


def test_factor_at_seeded_large_n():
    rng = random.Random(17)
    for n in [rng.randint(1, 10**10) for _ in range(200)]:
        assert arith._factor(n) == _factor_by_trial_division(n), n


def test_least_factor_table_is_zero_exactly_at_1_and_the_odd_primes():
    N = arith._SIEVED
    odd_primes = [p for p in range(3, N, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    assert len(arith._LEAST) == N >> 1
    assert [j for j, i in enumerate(arith._LEAST) if i == 0] == [0] + [p >> 1 for p in odd_primes]


# -- divisors and divisor sums -----------------------------------------------


def test_divisors_basic():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(97) == [1, 97]


def test_divisors_match_a_sieve():
    N = 10**4
    sieve = [[] for _ in range(N + 1)]
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            sieve[m].append(d)
    assert all(divisors(n) == sieve[n] for n in range(1, N + 1))


def test_divisors_of_large_n():
    assert divisors(10**12) == sorted(2**i * 5**j for i in range(13) for j in range(13))
    assert divisors(2**40) == [2**i for i in range(41)]
    assert divisors(999983 * 1000003) == [1, 999983, 1000003, 999983 * 1000003]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisor_sum_all():
    assert divisor_sum(6, 1) == divisor_sum(6) == 12
    assert divisor_sum(6, 0) == 4
    assert divisor_sum(6, 2) == 50


def test_divisor_sum_at_negative_nu_is_exact():
    assert divisor_sum(6, -1) == 2 and type(divisor_sum(6, -1)) is int
    assert divisor_sum(4, -1) == Fraction(7, 4)
    assert divisor_sum(12, -2) == Fraction(sum(Fraction(1, d * d) for d in divisors(12)))
    with pytest.raises(ValueError, match="divisor_sum"):
        divisor_sum(0, -1)
    with pytest.raises(TypeError):
        divisor_sum(6, 0.5)


# Inputs for the products over one factorization: every n <= 2e4, then
# 5^25, 5^12 13^8, 2^64 3, and 3 5 and 3^2 7^4 5, where a prime 3 (mod 4)
# has an odd and an even exponent.
PRODUCT_N_MAX = 2 * 10**4
PRODUCT_LARGE_N = ({5: 25}, {5: 12, 13: 8}, {2: 64, 3: 1}, {3: 1, 5: 1}, {3: 2, 7: 4, 5: 1})


def _divisor_lists():
    """(n, its divisors) for the inputs above: a sieve to 2e4, then every
    product of prime powers p^e, e <= k, for the large n = prod p^k."""
    sieve = [[] for _ in range(PRODUCT_N_MAX + 1)]
    for d in range(1, PRODUCT_N_MAX + 1):
        for m in range(d, PRODUCT_N_MAX + 1, d):
            sieve[m].append(d)
    yield from enumerate(sieve[1:], 1)
    for powers in PRODUCT_LARGE_N:
        divs = [math.prod(p**e for p, e in zip(powers, es))
                for es in itertools.product(*(range(k + 1) for k in powers.values()))]
        yield math.prod(p**k for p, k in powers.items()), divs


def test_products_match_their_divisor_list_definitions():
    for n, divs in _divisor_lists():
        for nu in (0, 1, 2, 3):
            assert divisor_sum(n, nu) == sum(d**nu for d in divs), (n, nu)
        for a in (0, 1, 2, 6, -6, 35):
            want = Fraction(sum(d for d in divs if math.gcd(d, a) == 1), n)
            assert sigma_star(a, n) == want, (n, a)
        assert r2(n) == 4 * sum(1 if d % 4 == 1 else -1 for d in divs if d % 2), n
    assert r2(3 * 5) == 0 and r2(3**2 * 7**4 * 5) == 8
    assert r2(5**25) == 4 * 26 and r2(5**12 * 13**8) == 4 * 13 * 9


def test_odd_signed_kernel_matches_theta_square():
    sq = theta.series(theta.theta3(), 40).square()
    for n in range(1, 40):
        assert sq.coeff(2 * n) == r2(n)


# -- characters ---------------------------------------------------------------


def test_chi0_residue_table():
    assert [chi0(n) for n in (1, 2, 3, 4)] == [-2, 3, -2, 1]
    assert [chi0(n) for n in (5, 6, 7, 8)] == [-2, 3, -2, 1]


def test_chi_kh_membership():
    assert chi_kh(10, 1, 11) == 1  # n = k + h
    assert chi_kh(10, 1, 3) == 0
    assert chi_kh(10, 1, 20) == 1  # n = 0 mod 2k
    assert chi_kh(7, 4, 14) == 1


def test_chi_kh_even_in_h():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 12)
        h = rng.randint(-k, k)
        n = rng.randint(1, 100)
        assert chi_kh(k, h, n) == chi_kh(k, -h, n)


def test_f_kh_values():
    assert f_kh(2, 1, 1) == 1
    assert f_kh(2, 1, 4) == Fraction(5, 4)  # divisors 1 and 4 pass
    assert f_kh(3, 2, 6) == Fraction(7, 6)  # divisors 1 and 6 pass


def test_f_kh_names_itself_when_k_is_below_1():
    with pytest.raises(ValueError, match=r"^f_kh requires k >= 1$"):
        f_kh(0, 1, 1)


def test_chi_residues_are_the_residues_where_chi_kh_is_1():
    for k in range(1, 9):
        for h in range(-k - 2, k + 3):
            want = {r for r in range(2 * k) if r == 0 or (r - k) % (2 * k) in (h % (2 * k), -h % (2 * k))}
            assert arith._chi_residues(k, h) == want


def test_chi_kh_f_kh_and_the_fkh_sieve_read_one_residue_set(monkeypatch):
    # with the residue set cut to {0}, each of the three reads chi_(k,h)
    # as the indicator of 2k | d
    monkeypatch.setattr(arith, "_chi_residues", lambda k, h: {0})
    assert [chi_kh(3, 2, n) for n in range(1, 13)] == [int(n % 6 == 0) for n in range(1, 13)]
    assert [f_kh(3, 2, n) for n in (6, 12, 7)] == [1, Fraction(18, 12), 0]
    assert theta._fkh_sums(((3, 2),), 12) == [0] * 6 + [6, 0, 0, 0, 0, 0, 18]


def test_n_times_f_kh_is_nonnegative_integer():
    for k, h in ((2, 1), (3, 2), (5, 2), (10, 1)):
        for n in range(1, 2000):
            v = n * f_kh(k, h, n)
            assert v == int(v) and v >= 0


# -- sigma_star and indicators -------------------------------------------------


def test_sigma_star_values():
    assert sigma_star(2, 3) == Fraction(4, 3)
    assert sigma_star(2, 2) == Fraction(1, 2)


def test_indicator_I():
    assert indicator_I(4, 8) == 1
    assert indicator_I(4, 6) == 0


def test_square_indicator():
    assert indicator(("square",), 16) == 1
    assert indicator(("square",), Fraction(7, 3)) == 0
    assert indicator(("square",), 0) == 1
    assert indicator(("square",), -4) == 0


def test_power_indicator_counts_zero():
    assert indicator(("power", 3), 0) == 1
    assert indicator(("power", 3), 8) == 1
    assert indicator(("power", 3), 9) == 0
    assert indicator(("power", 5), 32) == 1


def test_iroot_brackets_the_root():
    for nu in (3, 4, 5, 7):
        for t in range(100000):
            r = arith._iroot(t, nu)
            assert r**nu <= t < (r + 1) ** nu, (t, nu)


def test_power_indicator_exact_past_float_range():
    assert arith.power_indicator(3, (10**30 + 7) ** 3) == 1
    assert arith.power_indicator(3, 10**400) == 0


def test_poly_indicator():
    # A(m) = 1 + m + m^2 hits 1, 3, 7, 13, ...
    assert indicator(("poly", (1, 1, 1)), 7) == 1
    assert indicator(("poly", (1, 1, 1)), 8) == 0
    assert indicator(("poly", (1, 1, 1)), Fraction(7, 2)) == 0
    # a constant A(m) never exceeds t, so the search for m would not end
    with pytest.raises(ValueError, match="nonconstant"):
        arith.poly_indicator((1,), 5)


def test_poly_indicator_at_a_large_value():
    t = arith._poly_eval((1, 1, 1), 10**15)
    assert arith.poly_indicator((1, 1, 1), t) == 1
    assert arith.poly_indicator((1, 1, 1), t + 1) == 0


# -- class numbers --------------------------------------------------------------


def test_class_number_small_discriminants():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-20) == 2
    assert class_number(-23) == 3


def test_class_number_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        class_number(5)
    with pytest.raises(ValueError):
        class_number(-6)  # = 2 mod 4


def test_reduced_form_invariants():
    for D in range(-400, 0):
        if D % 4 not in (0, 1):
            continue
        forms = reduced_forms(D)
        assert forms, D
        for a, b, c in forms:
            assert b * b - 4 * a * c == D
            assert abs(b) <= a <= c
            if abs(b) == a or a == c:
                assert b >= 0
            assert math.gcd(math.gcd(a, abs(b)), c) == 1


def test_class_number_positive_through_minus_4000():
    for D in range(-4000, 0):
        if D % 4 in (0, 1):
            assert class_number(D) >= 1


def _reduced_forms_a_major(D):
    """The a-major reduced-form loop: every (a, b) with |b| <= a <= sqrt(|D|/3)."""
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + (a + D) % 2, a + 1, 2):
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and (b == -a or a == c)):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                forms.append((a, b, c))
    return forms


def test_reduced_forms_match_the_a_major_loop():
    for D in range(-6000, 0):
        if D % 4 in (0, 1):
            assert reduced_forms(D) == _reduced_forms_a_major(D), D


def test_class_number_counts_the_reduced_forms():
    for D in range(-10**4, 0):
        if D % 4 in (0, 1):
            assert class_number(D) == len(reduced_forms(D)), D


def test_class_number_counts_the_reduced_forms_at_the_benchmark_range():
    # b = 0 takes a over odd values only where ac = -D/4 is odd, D = 4 (mod 8);
    # for odd D, b = 1 does where ac = (1 - D)/4 is odd, D = 5 (mod 8)
    Ds = random.Random(21).sample([D for D in range(-4 * 10**4, -10**4 + 1)
                                   if D % 4 in (0, 1)], 500)
    assert {D % 8 for D in Ds} == {0, 1, 4, 5}
    for D in Ds:
        assert class_number(D) == len(reduced_forms(D)), D


def _class_number_b_major(D):
    """h(D) on Cohen's b-major walk (Alg. 5.3.5): for every b, a runs over the
    divisors of ac = (b^2 - D)/4 in [b, sqrt(ac)], odd ones only where ac is odd."""
    h = 0
    for b in range(D % 2, math.isqrt(-D // 3) + 1, 2):
        ac = (b * b - D) // 4
        odd = ac & 1
        for a in range(max(b, 1) | odd, math.isqrt(ac) + 1, 1 + odd):
            if not ac % a:
                c = ac // a
                if math.gcd(a, b, c) == 1:
                    h += 2 if 0 < b < a < c else 1
    return h


def _seeded_discriminants(seed, lo, hi, k):
    """k seeded discriminants D with lo <= |D| <= hi."""
    return random.Random(seed).sample([-m for m in range(lo, hi + 1) if m % 4 in (0, 3)], k)


# a < 2^7 reads its roots of b^2 = D (mod 4a) off a table, a >= 2^7 takes the
# b-major walk, and a = 2^7 first appears at |D| = 3 * 2^14
_BELOW_SPLIT = _seeded_discriminants(27, 3 * 127**2, 3 * 2**14 - 1, 300)
_ABOVE_SPLIT = _seeded_discriminants(28, 3 * 2**14, 3 * 129**2, 300)


def test_class_number_matches_the_b_major_walk_through_minus_6000():
    for D in range(-6000, 0):
        if D % 4 in (0, 1):
            assert class_number(D) == _class_number_b_major(D), D


def test_class_number_matches_the_b_major_walk_on_both_sides_of_the_split():
    for D in _BELOW_SPLIT + _ABOVE_SPLIT:
        assert class_number(D) == _class_number_b_major(D), D


def test_class_number_matches_the_b_major_walk_at_large_discriminants():
    for D in _seeded_discriminants(29, 4 * 10**5 - 2000, 4 * 10**5 + 2000, 20):
        assert class_number(D) == _class_number_b_major(D), D
    for D in _seeded_discriminants(30, 4 * 10**6 - 2000, 4 * 10**6 + 2000, 4):
        assert class_number(D) == _class_number_b_major(D), D


def test_reduced_forms_match_the_a_major_loop_on_both_sides_of_the_split():
    edge = 0  # forms with a = 2^7, the first a past the tables
    for D in _BELOW_SPLIT + _ABOVE_SPLIT:
        forms = reduced_forms(D)
        assert forms == _reduced_forms_a_major(D), D
        edge += sum(a == 2**7 for a, _, _ in forms)
    assert edge > 0


def test_square_root_tables_stop_below_2_to_the_7():
    class_number(-4 * 10**6 - 3)
    assert len(arith._root_tables()) - 1 <= 127  # tabs[0] is a placeholder


def test_the_walk_grows_one_table_per_a_it_needs():
    arith._root_tables.cache_clear()
    class_number(-19999)
    assert len(arith._root_tables()) - 1 == math.isqrt(19999 // 3) == 81


def test_class_number_makes_one_table_lookup_per_discriminant():
    info = arith._root_tables.cache_info()
    for D in range(-4000, -3600, 4):
        class_number(D)
    after = arith._root_tables.cache_info()
    assert (after.hits + after.misses) - (info.hits + info.misses) == 100


def test_the_walk_counts_the_forms_it_lists():
    Ds = [D for D in range(-3000, 0) if D % 4 in (0, 1)] + _BELOW_SPLIT + _ABOVE_SPLIT
    for D in Ds:
        out = []
        h = arith._walk(D, out)
        assert h == sum(2 if 0 < b < a < c else 1 for a, b, c in out), D
        assert sorted(out) == [f for f in reduced_forms(D) if f[1] >= 0], D


def test_class_number_one_discriminants():
    ones = [D for D in range(-5000, 0) if D % 4 in (0, 1) and class_number(D) == 1]
    assert ones == [-163, -67, -43, -28, -27, -19, -16, -12, -11, -8, -7, -4, -3]
