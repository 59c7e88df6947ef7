"""Theta-type series constructors and their exact identities."""

import pytest

from qforms import theta
from qforms.arith import chi_kh
from qforms.repcount import r2
from qforms.theta import (alt_general, even_shift_check, f_neg, f_neg_product,
                          general, general_theta_via_exp, phi_product,
                          pochhammer, psi, psi_product, series, theta3,
                          triangular, triple_product_check, triple_product_rhs)


# -- constructors ------------------------------------------------------------


def test_theta3_coefficients():
    f = series(theta3(), 10)
    assert f.coeff(0) == 1
    for n in (1, 4, 9):
        assert f.coeff(2 * n) == 2
    assert f.coeff(2 * 5) == 0


def test_general_2_1_support():
    f = series(general(2, 1), 12)
    assert f.support() == [0, 2, 6, 12, 20]  # q^0, q^1, q^3, q^6, q^10
    assert all(f.coeff(e) == 1 for e in f.support())


def test_triangular_3_support():
    f = series(triangular(3), 10)
    assert f.coeff(-2) == 2  # n = -1 and n = -2
    assert f.coeff(0) == 2  # n = 0 and n = -3


def test_triangular_rejects_negative_m():
    with pytest.raises(ValueError):
        triangular(-1)


def test_general_requires_positive_k():
    with pytest.raises(ValueError):
        general(0, 1)


def test_alt_general_signs():
    f = series(alt_general(2, 1), 12)
    assert f.coeff(0) == 1 and f.coeff(2) == -1 and f.coeff(6) == -1
    assert f.coeff(12) == 1  # n = -2, even index


def test_f_neg_is_pentagonal():
    f = series(f_neg(), 30)
    assert [f.coeff(2 * n) for n in (0, 1, 2, 5, 7, 12, 15)] == [1, -1, -1, 1, 1, -1, -1]
    assert f.coeff(2 * 3) == 0


def _brute_lattice(order, exponent, alternating, ns):
    """{half-unit exponent: coefficient} of sum (-1)^n q^(exponent(n)/2) (sign only
    when alternating) over ns, below q^order."""
    acc = {}
    for n in ns:
        e = exponent(n)
        if e < 2 * order:
            acc[e] = acc.get(e, 0) + (-1 if alternating and n % 2 else 1)
    return {e: c for e, c in acc.items() if c}


def test_lattice_kinds_match_brute_force():
    ns = range(-200, 200)  # |n| < 200 covers every exponent below 2*40 here
    kinds = [(theta3(), lambda n: 2 * n * n, False, ns),
             (psi(), lambda n: n * (n + 1), False, range(200)),
             (f_neg(), lambda n: n * (3 * n - 1), True, ns)]
    kinds += [(triangular(m), lambda n, m=m: n * n + m * n, False, ns) for m in range(9)]
    for k in range(1, 5):
        for h in range(-6, 7):
            kinds += [(general(k, h), lambda n, k=k, h=h: 2 * (k * n * n + h * n), False, ns),
                      (alt_general(k, h), lambda n, k=k, h=h: 2 * (k * n * n + h * n), True, ns)]
    for kind, exponent, alternating, domain in kinds:
        for order in range(1, 41):
            s = series(kind, order)
            assert s.order == 2 * order
            got = {e: s.coeff(e) for e in s.support()}
            assert got == _brute_lattice(order, exponent, alternating, domain), (kind, order)
            assert s.base == min([0, *got]), (kind, order)  # exponent 0 is kept when it cancels


def test_alt_general_cancels_to_zero():
    # n and -(2j+1)-n give the same exponent with opposite signs; the exponent-0
    # coefficient cancels too but still fixes the base at 0
    for k in range(1, 5):
        for j in range(-3, 3):
            for order in range(1, 41):
                s = series(alt_general(k, k * (2 * j + 1)), order)
                assert s.support() == [] and s.base == 0, (k, j, order)


def test_lattice_is_a_list_from_the_least_exponent_and_series_sets_the_base():
    # alt_general(1, 3): n = -1 and n = -2 both give q^-2, with opposite signs,
    # so the list starts at -4 half-units and the series keeps its base at 0
    c = theta._lattice(20, 2, 6, alternating=True)
    assert type(c) is list and len(c) == 20 - theta._least(2, 6) == 24 and not any(c)
    s = series(alt_general(1, 3), 10)
    assert (s.base, s.coeffs, s.order) == (0, (0,) * 20, 20)
    c = theta._lattice(20, 2, 6)
    s = series(general(1, 3), 10)
    assert (s.base, s.coeffs) == (-4, tuple(c)) and c[0] == 2


def test_triangular_1_is_twice_psi():
    for order in range(1, 41):
        t, p = series(triangular(1), order), series(psi(), order).scale(2)
        assert (t.base, t.coeffs, t.order) == (p.base, p.coeffs, p.order), order


# -- product forms ------------------------------------------------------------


def test_phi_sum_equals_product_form():
    assert series(theta3(), 200) == phi_product(200)


def test_psi_sum_equals_product_form():
    assert series(psi(), 200) == psi_product(200)


def test_f_neg_sum_equals_product_form():
    assert series(f_neg(), 200) == f_neg_product(200)


def test_euler_pochhammer_inverse_pair():
    # (q; q^2) (-q; q) = 1
    p = series(pochhammer(2, 4, False), 200) * series(pochhammer(2, 2, True), 200)
    one = series(theta3(), 200).scale(0) + p.scale(0) + p * p.inverse()
    assert p == one


def _binomial_loop(factors, n):
    """Coefficients below half-unit n of the product of (1 + s q^(e/2))^p over
    (e, s, p) in factors, one pass per binomial: times it, or divided by it."""
    c = [1] + [0] * (n - 1)
    for e, s, p in factors:
        if p > 0:
            c = c[:e] + [x + s * y for x, y in zip(c[e:], c)]
        else:
            for k in range(e, n):
                c[k] -= s * c[k - e]
    return c


def _poch(a, step, negated, n, p=1):
    return [(e, 1 if negated else -1, p) for e in range(a, n, step)]


def _assert_int_series(got, want, order):
    assert (got.base, got.order) == (0, 2 * order)
    assert got.coeffs == tuple(want)
    assert all(type(c) is int for c in got.coeffs)


def test_pochhammer_matches_binomial_loop():
    # the reference at order 60 truncates to every lower order; a >= 2 * order
    # is the empty product
    for a in range(1, 6):
        for step in range(1, 6):
            for negated in (False, True):
                want = _binomial_loop(_poch(a, step, negated, 120), 120)
                for order in range(1, 61):
                    got = series(pochhammer(a, step, negated), order)
                    _assert_int_series(got, want[: 2 * order], order)


def test_product_forms_match_binomial_loop():
    n = 80
    phi = _binomial_loop(_poch(2, 4, True, n) + _poch(4, 4, False, n)
                         + _poch(2, 4, False, n, -1) + _poch(4, 4, True, n, -1), n)
    psi = _binomial_loop(_poch(4, 4, False, n) + _poch(2, 4, False, n, -1), n)
    fneg = _binomial_loop(_poch(2, 2, False, n), n)
    for order in range(1, 41):
        _assert_int_series(phi_product(order), phi[: 2 * order], order)
        _assert_int_series(psi_product(order), psi[: 2 * order], order)
        _assert_int_series(f_neg_product(order), fneg[: 2 * order], order)


# -- Pochhammer / triple product ------------------------------------------------


def test_triple_product_small_p():
    assert triple_product_check(0, 100)
    assert triple_product_check(1, 100)
    assert triple_product_check(3, 60)


def test_triple_product_rhs_matches_general_theta():
    # prod (1-q^(2n+2))(1+q^(2n+1-z))(1+q^(2n+1+z)) = sum q^(n^2+zn) for every
    # integer z (Jacobi's triple product); factors with 2n+1-z < 0 shift the base
    for z in range(13):
        for order in range(1, 41):
            assert series(triple_product_rhs(z), order) == series(general(1, z), order), (z, order)


def test_even_shift_identity():
    assert even_shift_check(0, 80)
    assert even_shift_check(1, 80)
    assert even_shift_check(2, 80)


# -- exp transform route ---------------------------------------------------------


def test_fkh_sums_match_the_chi_kh_definition():
    # n sum_l f(n) = sum over d | n of d sum_l chi_kh(d): h < 0, a repeated term,
    # a term whose residues k + h and k - h coincide
    for terms in (((3, -2),), ((3, 2), (3, 2)), ((5, -2), (4, 1), (5, -2)), ((4, 0),), ((2, -1), (7, 3))):
        for n_max in (0, 1, 2048):
            want = [0] * (n_max + 1)
            for d in range(1, n_max + 1):
                w = d * sum(chi_kh(k, h, d) for k, h in terms)
                for n in range(d, n_max + 1, d):
                    want[n] += w
            assert theta._fkh_sums(terms, n_max) == want, (terms, n_max)


def test_exp_route_matches_lattice_sum():
    assert general_theta_via_exp(2, 1, 100) == series(general(2, 1), 100)
    assert general_theta_via_exp(3, 2, 100) == series(general(3, 2), 100)


def test_exp_route_constant_term():
    assert general_theta_via_exp(10, 1, 60).coeff(0) == 1


def test_exp_route_parity_preconditions():
    with pytest.raises(ValueError):
        general_theta_via_exp(3, 1, 20)  # both odd
    with pytest.raises(ValueError):
        general_theta_via_exp(4, 2, 20)  # both even
    with pytest.raises(ValueError):
        general_theta_via_exp(2, 0, 20)  # h = 0 excluded
    with pytest.raises(ValueError):
        general_theta_via_exp(1, 2, 20)  # |h| >= k


def test_exp_route_negative_h():
    assert general_theta_via_exp(4, -3, 80) == series(general(4, -3), 80)


# -- bridge to divisor sums --------------------------------------------------------


def test_theta3_square_counts_two_squares():
    sq = series(theta3(), 300).square()
    for n in range(1, 300):
        assert sq.coeff(2 * n) == r2(n)
