"""Representation counts: closed forms against brute-force oracles."""

import itertools
import math
import random
import re

import pytest

from qforms import arith, repcount, series, theta
from qforms.circle import r2_table
from qforms.repcount import (FormSpec, RepTable, count_affine, count_diagonal,
                             count_form, count_poly_composed, count_power_sum,
                             count_two_form, cubic_count, exp_method_count,
                             oracle_count, oracle_odd_power_pairs,
                             quintic_count, r2, r3, r4_closed, r_N_squares,
                             s_m, tri_count, tri_N_closed, tri_reduce)


# -- FormSpec / RepTable ------------------------------------------------------


def test_formspec_requires_terms():
    with pytest.raises(ValueError):
        FormSpec(())


def test_formspec_validates_scale_and_convention():
    with pytest.raises(ValueError):
        FormSpec(((1, 0),), scale=3)
    with pytest.raises(ValueError):
        FormSpec(((1, 0),), convention="weird")
    with pytest.raises(ValueError):
        FormSpec(((0, 1),))  # quadratic coefficient must be positive


def test_reptable_counts_match_range_length():
    t = oracle_count(FormSpec.diagonal([1, 1]), 10)
    assert len(t.counts) == len(t.n_range) == 11
    with pytest.raises(ValueError):
        t.count(11)
    with pytest.raises(ValueError, match="one count per target"):
        RepTable(t.spec, range(0, -4), t.counts, "series")


@pytest.mark.parametrize("call", [lambda: count_form(FormSpec.diagonal([1]), -1),
                                  lambda: r_N_squares(3, -5), lambda: tri_count(1, 2, -1),
                                  lambda: exp_method_count(((3, -2),), -1)],
                         ids=["count_form", "r_N_squares", "tri_count", "exp_method_count"])
def test_negative_sizes_are_refused(call):
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        call()


# -- oracle ---------------------------------------------------------------------


def test_oracle_two_squares():
    t = oracle_count(FormSpec.diagonal([1, 1]), 5)
    assert t.count(5) == 8


def test_oracle_triangular_pair():
    t = oracle_count(FormSpec.triangular_sum(1, 2), 1)
    assert t.count(1) == 8


def test_oracle_below_minimum_is_zero():
    t = oracle_count(FormSpec.diagonal([2, 3]), 1)
    assert t.count(1) == 0


# -- the lattice-product kernel ---------------------------------------------------


def _random_spec(rng):
    """A FormSpec with repeated and distinct terms, b of both signs, either
    scale and convention, and a constant of either sign (some lie above
    every target, so their counts are all zero)."""
    pool = [(rng.randint(1, 4), rng.randint(-6, 6)) for _ in range(rng.randint(1, 3))]
    terms = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    return FormSpec(terms, scale=rng.choice((1, 2)), constant=rng.randint(-15, 15),
                    convention=rng.choice(("lattice", "nonneg")))


def test_count_form_matches_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        spec, n_max = _random_spec(rng), rng.randint(0, 60)
        t = count_form(spec, n_max)
        assert (t.spec, t.n_range, t.method) == (spec, range(n_max + 1), "series")
        assert t.counts == oracle_count(spec, n_max).counts, (spec, n_max)


@pytest.mark.parametrize("spec", [
    FormSpec.affine(1, 2, 3, -2, 0),
    FormSpec(((1, 2), (3, 6)), scale=2, constant=-5),
    FormSpec(((1, 3), (1, -5), (2, 0)), scale=2, constant=1, convention="nonneg"),
    FormSpec(((2, 1), (1, -3)), constant=7),
    FormSpec(((1, -5), (1, 0)), constant=-9),
], ids=["affine", "scale-2", "nonneg", "constant>0", "constant<0"])
def test_count_form_window_below_0_equals_oracle(spec):
    for lo, hi in ((-30, 40), (-12, -1), (-1, 0), (-7, -7)):
        t = count_form(spec, hi, lo)
        assert (t.spec, t.n_range, t.method) == (spec, range(lo, hi + 1), "series")
        assert t.counts == oracle_count(spec, hi, lo).counts, (lo, hi)


def test_count_form_window_wholly_below_the_minimum_is_zero():
    spec = FormSpec(((1, 0), (2, 4)), constant=9)  # least value 9 - 2 = 7
    t = count_form(spec, 6, -20)
    assert t.counts == (0,) * 27 == oracle_count(spec, 6, -20).counts
    assert count_form(spec, 7, -20).count(7) == 1 == oracle_count(spec, 7, -20).count(7)


def test_count_form_window_from_lo_at_least_0_is_the_tail_of_the_full_table():
    rng = random.Random(20261020)
    for _ in range(40):
        spec = _random_spec(rng)
        full = count_form(spec, 60)
        for lo in (0, 1, rng.randint(2, 59), 60):
            t = count_form(spec, 60, lo)
            assert (t.n_range, t.counts) == (range(lo, 61), full.counts[lo:]), (spec, lo)


def test_count_form_refuses_an_empty_window():
    # count_form(spec, -1) is test_negative_sizes_are_refused
    spec = FormSpec.diagonal([1, 1])
    with pytest.raises(ValueError, match=r"^empty window -3\.\.-5$"):
        count_form(spec, -5, -3)
    assert count_form(spec, -1, -3).counts == (0, 0, 0)


def r2_product(coeffs, n_max):
    """prod_k sum_m r2(m) q^(A_k m) to q^n_max: theta_3(q^A_k)^2 over the A_k,
    the square of the diagonal form's theta series."""
    r2s = r2_table(n_max).tolist()
    f = [1]
    for a in coeffs:
        stretched = [0] * (n_max + 1)
        stretched[::a] = r2s[: n_max // a + 1]
        f = series.convolve(f, stretched, n_max + 1)
    return f


def _sqrt_r2_table(coeffs, n_max):
    """The paper's diagonal counts: the square root of r2_product."""
    counts = tuple(series._sqrt_unit(r2_product(coeffs, n_max)))
    return RepTable(FormSpec.diagonal(coeffs), range(n_max + 1), counts, "transform")


@pytest.mark.parametrize("table,spec", [
    (lambda: _sqrt_r2_table((1, 2), 16384), FormSpec.diagonal((1, 2))),
    (lambda: _sqrt_r2_table((3, 1, 2), 4096), FormSpec.diagonal((3, 1, 2))),
    (lambda: exp_method_count(((3, -2), (3, -2)), 8192), FormSpec(((3, -2), (3, -2)))),
    (lambda: _sqrt_r2_table((1, 2), 10**5), FormSpec.diagonal((1, 2))),
    (lambda: exp_method_count(((3, -2), (3, -2)), 10**5), FormSpec(((3, -2), (3, -2)))),
], ids=["diagonal(1,2)", "diagonal(3,1,2)", "exp(3,-2)^2", "diagonal(1,2)@1e5", "exp(3,-2)^2@1e5"])
def test_transforms_equal_count_form(table, spec):
    # the paper's square-root and exp transforms against the plain product,
    # at sizes the brute-force oracle does not reach
    t = table()
    assert t.spec == spec
    assert t.counts == count_form(spec, t.n_range.stop - 1).counts


def test_count_form_of_three_squares_equals_r3_at_scale():
    # the product route against the class-number closed form
    t = count_form(FormSpec.diagonal((1, 1, 1)), 10**5)
    rng = random.Random(20261019)
    for n in [0, 1, 10**5 - 1, 10**5] + [rng.randint(2, 10**5) for _ in range(296)]:
        assert t.count(n) == r3(n), n


# -- two squares ------------------------------------------------------------------


def test_r2_values():
    assert r2(0) == 1
    assert r2(3) == 0
    assert r2(25) == 12


def test_r2_rejects_negative():
    with pytest.raises(ValueError):
        r2(-1)


def test_r2_matches_oracle():
    t = oracle_count(FormSpec.diagonal([1, 1]), 300)
    for n in range(301):
        assert r2(n) == t.count(n)


def test_r2_sieve_equals_per_n_r2():
    # the table r2_product reads its r2 values from
    assert r2_table(0).tolist() == [1]
    assert r2_table(4000).tolist() == [r2(n) for n in range(4001)]


# -- two-term closed form -----------------------------------------------------------


def test_count_two_form_values():
    assert count_two_form(1, 2, 0) == 1
    assert count_two_form(1, 2, 3) == 4
    assert count_two_form(1, 3, 7) == 4


def test_count_two_form_requires_coprime():
    # any A, B >= 1 are counted, a common factor included
    assert count_two_form(2, 2, 4) == 4
    for A, B in ((2, 2), (2, 4), (3, 6), (4, 6)):
        t = oracle_count(FormSpec.two_form(A, B), 100)
        for n in range(101):
            assert count_two_form(A, B, n) == t.count(n), (A, B, n)


def test_count_two_form_matches_oracle():
    for A, B in ((1, 2), (1, 3), (2, 3), (3, 4)):
        t = oracle_count(FormSpec.diagonal([A, B]), 150)
        for n in range(151):
            assert count_two_form(A, B, n) == t.count(n), (A, B, n)


# -- diagonal forms --------------------------------------------------------------------


def test_count_diagonal_values():
    assert count_diagonal([1, 1, 1, 1], 1).count(1) == 8
    assert count_diagonal([1, 2, 3], 6).count(6) == 12


def test_count_diagonal_requires_coprime_list():
    # any coefficients >= 1 are counted, a common factor included; FormSpec refuses the rest
    for coeffs in ([2, 4], [2, 2], [2, 4, 6], [3, 3, 3, 3]):
        assert count_diagonal(coeffs, 200).counts == oracle_count(FormSpec.diagonal(coeffs), 200).counts, coeffs
    for coeffs in ([], [0, 1], [1, -2]):
        with pytest.raises(ValueError, match="^need at least one term, each with a_l >= 1$"):
            count_diagonal(coeffs, 10)


def test_count_diagonal_two_vars_is_r2():
    t = count_diagonal([1, 1], 100)
    for n in range(101):
        assert t.count(n) == r2(n)


def test_count_diagonal_matches_oracle():
    rng = random.Random(2)
    for _ in range(6):
        k = rng.randint(1, 4)
        coeffs = [rng.randint(1, 4) for _ in range(k)]
        coeffs[rng.randrange(k)] = 1  # force gcd 1
        t = count_diagonal(coeffs, 80)
        o = oracle_count(FormSpec.diagonal(coeffs), 80)
        for n in range(81):
            assert t.count(n) == o.count(n), (coeffs, n)


def test_count_diagonal_is_count_form_of_the_diagonal_spec():
    for c in ((1, 2), (3, 1, 2), (1,) * 8):
        t = count_diagonal(c, 300)
        assert (t.spec, t.method) == (FormSpec.diagonal(c), "series")
        assert t.counts == count_form(FormSpec.diagonal(c), 300).counts
    repcount._count_form.cache_clear()
    squares = r_N_squares(8, 200)
    misses = repcount._count_form.cache_info().misses
    assert count_diagonal([1] * 8, 200) is squares  # the table r_N_squares built
    assert repcount._count_form.cache_info().misses == misses


def test_transforms_at_a_2k_plus_1_bucket_match_oracle():
    # n in [512, 1024) reads count_diagonal's 1025-slot bucket; the square
    # root at that length is test_series' test_sqrt_of_2k_plus_1_slots_matches_loop
    for A, B, n in ((1, 2, 1000), (2, 3, 777)):
        assert repcount._bucket(n) + 1 == 1025
        t = count_diagonal([A, B], repcount._bucket(n))
        assert t.counts == oracle_count(FormSpec.two_form(A, B), repcount._bucket(n)).counts, (A, B)
    t = count_diagonal([3, 1, 2], 1024)
    assert t.counts == oracle_count(FormSpec.diagonal([3, 1, 2]), 1024).counts


# -- affine and composed forms ------------------------------------------------------------


def test_count_affine_shifted_square():
    # (x-1)^2 + y^2 = 4 has 4 solutions; written out: x^2 + y^2 - 2x = 3
    assert count_affine(1, 1, -2, 0, 0, 3) == 4


def test_count_affine_zero_shift_is_two_form():
    for n in range(40):
        assert count_affine(1, 2, 0, 0, 0, n) == count_two_form(1, 2, n)


def test_count_affine_divisibility_precondition():
    # any C, D, E and any integer n, 2A | C or not
    assert count_affine(1, 1, 1, 0, 0, 5) == 0  # x^2 + x is even, so x^2 + x + y^2 = 5 needs y odd
    for args in ((1, 1, 1, 0, 0), (2, 3, 1, -5, 4), (1, 2, 3, 1, -7), (2, 4, 0, 0, 0), (3, 1, -5, 7, 3)):
        t = oracle_count(FormSpec.affine(*args), 40, -20)
        for n in range(-20, 41):
            assert count_affine(*args, n) == t.count(n), (args, n)


def test_count_affine_below_0_reads_one_table_per_bucket():
    repcount._count_form.cache_clear()
    for n in range(-15, 0):  # every bucket is 16
        count_affine(1, 2, 3, -2, 0, n)
    assert repcount._count_form.cache_info().misses == 1


def test_one_table_has_one_cache_slot():
    repcount._count_form.cache_clear()
    count_two_form(1, 2, 100)
    count_affine(1, 2, 0, 0, 0, 100)
    count_diagonal((1, 2), 128)
    count_form(FormSpec.two_form(1, 2), 128, lo=0)
    info = repcount._count_form.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_count_two_form_counts_every_integer_n():
    for A in range(1, 5):
        for B in range(1, 5):
            t = oracle_count(FormSpec.two_form(A, B), 60, -20)
            for n in range(-20, 61):
                assert count_two_form(A, B, n) == t.count(n), (A, B, n)


def test_count_form_builds_no_series(monkeypatch):
    built = []
    init = series.HalfLaurentSeries.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(series.HalfLaurentSeries, "__init__", spy)
    repcount._count_form.cache_clear()
    for spec, n_max, lo in ((FormSpec.diagonal((1, 2, 3)), 2048, 0), (FormSpec.affine(1, 2, 3, -2, 5), 40, -20),
                            (FormSpec.triangular_sum(1, 3, "nonneg"), 100, 0)):
        assert count_form(spec, n_max, lo).counts == oracle_count(spec, n_max, lo).counts
    assert built == []
    theta.series(theta.theta3(), 5)  # the spy sees the series the lattice kinds build
    assert len(built) == 1


def test_count_affine_matches_oracle():
    t = oracle_count(FormSpec.affine(1, 2, 2, 4, 1), 120)
    for n in range(121):
        assert count_affine(1, 2, 2, 4, 1, n) == t.count(n)


def test_count_poly_composed_square_argument():
    # P(t) = t^2: only roots t = +-4 feed x^2 + y^2 = t
    assert count_poly_composed((0, 0, 1), 1, 1, 0, 0, 0, 16) == 4


def test_count_poly_composed_identity_polynomial():
    for n in range(30):
        assert count_poly_composed((0, 1), 1, 1, 0, 0, 0, n) == count_affine(1, 1, 0, 0, 0, n)


def test_count_poly_composed_reads_negative_roots():
    # P(t) = -t: the root of P(t) = n is t = -n, where x^2 + 3x + y^2 takes
    # the values -2 (twice), 0 (twice), ...
    for n in range(-10, 10):
        assert count_poly_composed((0, -1), 1, 1, 3, 0, 0, n) == count_affine(1, 1, 3, 0, 0, -n), n
    assert count_poly_composed((0, -1), 1, 1, 3, 0, 0, 2) == 2
    assert count_poly_composed((0, -1), 1, 1, 3, 0, 0, 3) == 0


def test_count_poly_composed_no_integer_root():
    assert count_poly_composed((1, 2), 1, 1, 0, 0, 0, 6) == 0


# -- power sums ----------------------------------------------------------------------------


def test_count_power_sum_taxicab():
    assert count_power_sum(("power", 3), 1729) == 4


def test_count_power_sum_two_squares_nonneg():
    assert count_power_sum(("power", 2), 25) == 4


def test_count_power_sum_zero():
    assert count_power_sum(("power", 3), 0) == 1
    assert count_power_sum(("square",), 0) == 1


def test_count_power_sum_refuses_bad_kinds():
    # refused before the values are enumerated: at nu = 0, m**nu never exceeds n
    # and at a constant polynomial, A(m) never does
    nu = "count_power_sum requires nu >= 1"
    poly = "count_power_sum requires at least two polynomial coefficients, all >= 1"
    for kind, message in ((("power", 0), nu), (("power", -1), nu), (("poly", (0,)), poly),
                          (("poly", (1,)), poly), (("poly", (0, 1)), poly), (("poly", [1, 1, -2]), poly),
                          (("cube",), "unknown indicator kind 'cube'")):
        for _ in range(2):  # a refusal is never cached, so the second call raises too
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                count_power_sum(kind, 3)


def test_count_power_sum_matches_enumeration():
    for nu in (3, 4, 5):
        for n in range(2000):
            direct = 0
            x = 0
            while x**nu <= n:
                direct += arith.power_indicator(nu, n - x**nu)
                x += 1
            assert count_power_sum(("power", nu), n) == direct, (nu, n)


def test_count_power_sum_square_and_poly_match_enumeration():
    for n in range(2000):
        assert count_power_sum(("square",), n) == oracle_odd_power_pairs(2, n, "nonneg"), n
    for coeffs in ((1, 1, 1), (2, 3), (5, 1, 2)):
        hits = set()  # A(m) for m >= 0, up to 2000
        m = 0
        while arith._poly_eval(coeffs, m) < 2000:
            hits.add(arith._poly_eval(coeffs, m))
            m += 1
        for n in range(2000):
            direct = sum(1 for a in hits if n - a in hits)
            assert count_power_sum(("poly", coeffs), n) == direct, (coeffs, n)


def _power_sum_by_enumeration(values, hits, n):
    """Ordered pairs (v, n - v) with v in the ascending list values and
    n - v in the set hits of the same values."""
    count = 0
    for v in values:
        if v > n:
            break
        count += n - v in hits
    return count


_POWER_SUM_KINDS = [*((("power", nu), lambda m, nu=nu: m**nu) for nu in range(1, 6)),
                    (("square",), lambda m: m * m),
                    (("poly", (1, 1)), lambda m: 1 + m),
                    (("poly", [1, 2, 3]), lambda m: 1 + 2 * m + 3 * m * m)]


@pytest.mark.parametrize("kind,f", _POWER_SUM_KINDS, ids=[str(k) for k, _ in _POWER_SUM_KINDS])
def test_count_power_sum_matches_enumeration_across_bucket_edges(kind, f):
    # every n <= 3000, and 2^k - 1, 2^k, 2^k + 1 on both sides of each bucket edge
    ns = list(range(3001)) + [2**k + d for k in range(12, 17) for d in (-1, 0, 1)]
    n_max = max(ns)
    values = list(itertools.takewhile(lambda v: v <= n_max, map(f, itertools.count())))
    hits = set(values)
    for n in ns:
        assert count_power_sum(kind, n) == _power_sum_by_enumeration(values, hits, n), (kind, n)


# -- cubic and quintic ------------------------------------------------------------------------


def test_cubic_values():
    assert cubic_count(2) == 1
    assert cubic_count(7) == 2  # (-1, 2) and (2, -1)
    assert cubic_count(1729) == 4


def test_cubic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cubic_count(0)


def test_cubic_matches_integer_oracle():
    for n in range(1, 5001):
        assert cubic_count(n) == oracle_odd_power_pairs(3, n, "integer"), n


def test_cubic_counts_the_divisor_with_d_cubed_equal_to_4n():
    # d = 2, 4, 6 is the last divisor the sum reads: (1, 1), (2, 2), (3, 3)
    assert [cubic_count(n) for n in (2, 16, 54)] == [1, 1, 1]


def test_quintic_amended_values():
    assert quintic_count(33) == 2
    assert quintic_count(64) == 1
    assert quintic_count(32) == 2


def test_quintic_as_printed_defects():
    # the verbatim closed form loses the sign at 64 and the zero part at 32
    assert quintic_count(64, "as-printed") == -1
    assert quintic_count(32, "as-printed") == 0


def test_quintic_amended_matches_nonneg_oracle():
    for n in range(1, 800):
        assert quintic_count(n) == oracle_odd_power_pairs(5, n, "nonneg"), n


def _quintic_over_every_divisor(n):
    """quintic_count(n) for both variants, (amended, as-printed), by its sum
    over every divisor of n, ascending, with no bound on d: the reference
    for the loop that stops at (16 n)^(1/5)."""
    first = positive = zero = 0
    for d in arith.divisors(n):
        if d**5 == 16 * n:
            first += 1
            continue
        inner = 5 * d**4 + 20 * (n // d)
        s1 = math.isqrt(inner)
        outer = -25 * d * d + 10 * s1
        if outer < 0:
            break
        s2 = math.isqrt(outer)
        if s1 * s1 != inner or s2 * s2 != outer or (5 * d - s2) % 10:
            continue
        arg = (5 * d - s2) // 10
        positive += 2 * (arg >= 1)
        zero += 2 * (arg == 0)
    return first + positive + zero, -first + positive


def test_quintic_matches_the_sum_over_every_divisor():
    # n = 2 k^5 has d = 2k with d^5 = 16 n, the last divisor the sum reads
    edges = [2 * k**5 + e for k in range(1, 61) for e in (-1, 0, 1)]
    for n in [*range(1, 10**5 + 1), *edges]:
        got = quintic_count(n, "amended"), quintic_count(n, "as-printed")
        assert got == _quintic_over_every_divisor(n), n


def test_quintic_amended_matches_nonneg_oracle_at_large_n():
    sums = {x**5 + y**5 for x in range(26) for y in range(26)} - {0}
    rng = random.Random(5)
    large = [10**12 + 39, 999983 * 1000003, 2**61 - 1]
    for n in [*sorted(s for s in sums if s <= 10**7), *(rng.randint(1, 10**9) for _ in range(1000)), *large]:
        assert quintic_count(n) == oracle_odd_power_pairs(5, n, "nonneg"), n


def test_oracle_odd_power_pairs_domains():
    assert oracle_odd_power_pairs(3, 9, "integer") == 2
    assert oracle_odd_power_pairs(5, 31, "integer") == 2
    assert oracle_odd_power_pairs(5, 31, "nonneg") == 0
    assert oracle_odd_power_pairs(4, 17, "nonneg") == 2
    assert oracle_odd_power_pairs(4, 0, "nonneg") == 1
    assert oracle_odd_power_pairs(5, 0, "nonneg") == 1
    with pytest.raises(ValueError):
        oracle_odd_power_pairs(4, 17, "integer")
    with pytest.raises(ValueError):
        oracle_odd_power_pairs(3, 0, "integer")


# -- triangular families -----------------------------------------------------------------------


@pytest.mark.parametrize("m,N", [(-1, 2), (1, 0), (-3, -1)])
def test_triangular_sum_refuses_negative_m_and_no_terms(m, N):
    with pytest.raises(ValueError, match=r"^need m >= 0 and N >= 1$"):
        FormSpec.triangular_sum(m, N)
    with pytest.raises(ValueError, match=r"^need m >= 0 and N >= 1$"):
        tri_count(m, N, -1)  # the spec checks m and N before count_form checks n_max


def test_tri_count_examples():
    assert tri_count(1, 2, 1).count(1) == 8
    assert tri_count(0, 4, 1).count(1) == 24
    assert tri_count(1, 4, 1, "nonneg").count(1) == 4


def test_tri_count_matches_oracle():
    for m, N, conv in ((0, 3, "lattice"), (1, 3, "lattice"), (2, 2, "lattice"),
                       (3, 2, "lattice"), (1, 4, "nonneg"), (4, 2, "lattice"),
                       (0, 3, "nonneg"), (2, 2, "nonneg"), (3, 3, "nonneg")):
        t = tri_count(m, N, 60, conv)
        o = oracle_count(FormSpec.triangular_sum(m, N, conv), 60)
        for n in range(61):
            assert t.count(n) == o.count(n), (m, N, conv, n)


def test_tri_lattice_nonneg_bridge_classical():
    # t_1 values have exactly one nonnegative preimage each
    for N in (1, 2, 3, 4):
        lat = tri_count(1, N, 40)
        pos = tri_count(1, N, 40, "nonneg")
        for n in range(41):
            assert lat.count(n) == 2**N * pos.count(n), (N, n)


def test_tri_reduce_examples():
    assert tri_reduce(3, 2, 0) == 4
    assert tri_reduce(2, 2, 0) == 4
    for n in range(30):
        assert tri_reduce(1, 3, n) == tri_count(1, 3, 30).count(n)


def test_tri_reduce_even_m_tabulates_one_bucket(monkeypatch):
    # even m: k = 2n + N p^2 = 104 needs the 128 bucket, not the 256 one;
    # odd m: k = n + N p(p+1)/2 = 62 for m = 3 needs the 64 bucket
    seen = []
    original = repcount.count_form

    def record(spec, n_max):
        seen.append((spec, n_max))
        return original(spec, n_max)

    monkeypatch.setattr(repcount, "count_form", record)
    count = tri_reduce(2, 4, 50)
    assert seen == [(FormSpec.diagonal([1] * 4), 128)]
    assert count == r_N_squares(4, 104).count(104)
    seen.clear()
    count = tri_reduce(3, 4, 58)
    assert seen == [(FormSpec.triangular_sum(1, 4), 64)]
    assert count == tri_count(1, 4, 62).count(62)


def test_tri_reduce_matches_oracle():
    for m, N in ((2, 3), (3, 2), (4, 4), (5, 2)):
        o = oracle_count(FormSpec.triangular_sum(m, N), 80)
        for n in range(81):
            assert tri_reduce(m, N, n) == o.count(n), (m, N, n)


def test_s_m_values():
    assert s_m(1, 1) == 8
    assert s_m(2, 1) == 4
    assert s_m(0, 0) == 1


def test_s_m_matches_oracle():
    for m in range(7):
        o = oracle_count(FormSpec.triangular_sum(m, 2), 120)
        for n in range(121):
            assert s_m(m, n) == o.count(n), (m, n)


# -- squares in N variables -----------------------------------------------------------------------


def test_r4_closed_value():
    assert r4_closed(6) == 96


def test_r4_matches_series():
    t = r_N_squares(4, 500)
    for n in range(501):
        assert r4_closed(n) == t.count(n)


def test_r3_values():
    assert r3(5) == 24
    assert r3(5) == 12 * arith.class_number(-20)
    assert r3(19) == 24
    assert r3(19) == 24 * arith.class_number(-19)


def test_r3_base_cases_and_reduction():
    assert r3(1) == 6
    assert r3(2) == 12
    assert r3(3) == 8
    assert r3(4) == 6  # reduces by the factor 4
    assert r3(7) == 0  # 7 mod 8


def test_r3_never_takes_the_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("r3 reached the theta series")

    o = oracle_count(FormSpec.diagonal((1, 1, 1)), 1500)
    monkeypatch.setattr(repcount, "r_N_squares", refuse)
    monkeypatch.setattr(repcount, "power", refuse)
    for n in range(1501):
        assert r3(n) == o.count(n), n


def test_r3_at_large_non_squarefree_residuals():
    for n in (131067, 4**8 * 27):
        direct = sum((2 if z else 1) * r2(n - z * z) for z in range(math.isqrt(n) + 1))
        assert r3(n) == direct, n


def test_r3_fallback_matches_series():
    t = r_N_squares(3, 400)
    for n in range(401):
        assert r3(n) == t.count(n)


def test_r_N_squares_two_is_r2():
    t = r_N_squares(2, 1000)
    for n in range(1001):
        assert t.count(n) == r2(n)


# -- high rank: counts past 2^63 ----------------------------------------------------------------------


def _multiplicities(values, n_max):
    out = [0] * (n_max + 1)
    for v in values:
        if 0 <= v <= n_max:
            out[v] += 1
    return out


def _python_int_power(base, N):
    """base^N truncated to len(base), by repeated Python-int convolution."""
    out = base
    for _ in range(N - 1):
        out = [sum(out[k] * base[n - k] for k in range(n + 1)) for n in range(len(base))]
    return out


def _r2_by_lattice(n_max):
    return _multiplicities((x * x + y * y for x in range(-15, 16) for y in range(-15, 16)), n_max)


@pytest.mark.parametrize("N", [24, 32])
def test_r_N_squares_exact_past_int64(N):
    assert list(r_N_squares(N, 200).counts) == _python_int_power(_r2_by_lattice(200), N // 2)


def test_count_diagonal_exact_past_int64():
    assert list(count_diagonal([1] * 24, 200).counts) == _python_int_power(_r2_by_lattice(200), 12)


def test_tri_count_exact_past_int64():
    t1 = _multiplicities((x * (x + 1) // 2 for x in range(-21, 21)), 200)
    assert list(tri_count(1, 32, 200).counts) == _python_int_power(t1, 32)
    assert min(tri_count(1, 40, 60).counts) >= 0


# -- closed triangular counts ----------------------------------------------------------------------


def test_tri_N_closed_examples():
    assert tri_N_closed(2, 4, 1) == 96
    assert tri_N_closed(1, 4, 1) == 4  # sigma_1(3), nonneg convention
    assert tri_N_closed(2, 3, 1) == 24  # r_3(5)


def test_tri_N_closed_even_m_matches_oracle():
    for m in (0, 2, 4, 6):
        for N in (3, 4):
            o = oracle_count(FormSpec.triangular_sum(m, N), 80)
            for n in range(81):
                assert tri_N_closed(m, N, n) == o.count(n), (m, N, n)


def test_tri_N_closed_odd_m_is_sixteenth_of_lattice():
    for m in (1, 3, 5):
        o = oracle_count(FormSpec.triangular_sum(m, 4), 60)
        for n in range(61):
            assert 16 * tri_N_closed(m, 4, n) == o.count(n), (m, n)


def test_tri_N_closed_m1_matches_nonneg_enumeration():
    o = oracle_count(FormSpec.triangular_sum(1, 4, "nonneg"), 120)
    for n in range(121):
        assert tri_N_closed(1, 4, n) == o.count(n), n


def test_tri_N_closed_rejects_odd_m_three_vars():
    with pytest.raises(ValueError):
        tri_N_closed(1, 3, 5)


def test_four_triangular_positivity_slice():
    for m in range(7):
        for n in range(500):
            assert tri_N_closed(m, 4, n) >= 1, (m, n)


# -- exp transform ------------------------------------------------------------------------------------


def test_exp_method_pair_2_minus1():
    t = exp_method_count(((2, -1), (2, -1)), 3)
    assert [t.count(n) for n in range(4)] == [1, 2, 1, 2]


def test_exp_method_origin_only():
    assert exp_method_count(((10, 1), (11, 4)), 0).count(0) == 1


def test_exp_method_matches_oracle():
    for terms in (((3, -2), (3, -2)), ((2, 1), (2, 1)), ((10, 1), (11, 4)),
                  ((2, -1), (3, 2)), ((4, 3),)):
        t = exp_method_count(terms, 120)
        o = oracle_count(FormSpec(terms), 120)
        for n in range(121):
            assert t.count(n) == o.count(n), (terms, n)


def test_fkh_sieve_equals_per_n_f_kh():
    for terms in (((3, -2), (3, -2)), ((3, 2),), ((5, 2), (4, 1), (2, -1))):
        sums = theta._fkh_sums(terms, 1500)
        assert sums[0] == 0
        assert sums[1:] == [n * sum(arith.f_kh(k, h, n) for k, h in terms) for n in range(1, 1501)], terms


def test_exp_method_at_a_2k_plus_1_length_matches_oracle():
    terms = ((3, -2), (3, 2))
    assert exp_method_count(terms, 1024).counts == oracle_count(FormSpec(terms), 1024).counts


@pytest.mark.parametrize("k,h,message", [
    (3, 1, "exp route requires k + h odd, got (3, 1)"),
    (4, 2, "exp route requires k + h odd, got (4, 2)"),
    (2, 0, "exp route requires k > |h| > 0, got (2, 0)"),
    (1, 2, "exp route requires k > |h| > 0, got (1, 2)"),
    (3, -3, "exp route requires k > |h| > 0, got (3, -3)")])
def test_exp_preconditions_are_one_check_for_both_entry_points(k, h, message):
    for call in (lambda: theta.general_theta_via_exp(k, h, 20),
                 lambda: exp_method_count(((2, 1), (k, h)), 20)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_exp_method_preconditions():
    with pytest.raises(ValueError):
        exp_method_count(((3, 1), (2, 1)), 10)  # k + h even
    with pytest.raises(ValueError):
        exp_method_count(((2, 0),), 10)  # h = 0
    with pytest.raises(ValueError):
        exp_method_count(((1, 2),), 10)  # |h| >= k
