"""Elliptic integrals, singular moduli, and numeric identity residuals."""

import math
from fractions import Fraction

import pytest
import scipy.special

from qforms import theta
from qforms.arith import chi0, divisors
from qforms.elliptic import (ellipK, identity_check, multiplier,
                             singular_modulus, sinh_identity_check,
                             theta_numeric)


# -- complete elliptic integral -----------------------------------------------


def test_ellipK_at_zero():
    assert abs(ellipK(0.0) - math.pi / 2) < 1e-15


def test_ellipK_lemniscatic_point():
    # K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi))
    want = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    assert abs(ellipK(1.0 / math.sqrt(2.0)) - want) < 1e-13


def test_ellipK_near_one_is_finite():
    v = ellipK(0.999999)
    assert math.isfinite(v) and v > 7.0


def test_ellipK_domain():
    with pytest.raises(ValueError):
        ellipK(1.0)
    with pytest.raises(ValueError):
        ellipK(-0.1)


def test_ellipK_matches_scipy():
    # scipy's ellipk takes the parameter m = k^2
    for i in range(1, 20):
        k = i / 20.0
        assert abs(ellipK(k) - scipy.special.ellipk(k * k)) < 1e-12 * ellipK(k)


# -- numeric thetas ---------------------------------------------------------------


def test_theta3_at_exp_minus_pi():
    q = math.exp(-math.pi)
    direct = math.fsum(math.exp(-math.pi * n * n) for n in range(-20, 21))
    assert abs(theta_numeric("theta3", q) - direct) < 1e-14


def test_theta_numeric_at_zero_q():
    assert theta_numeric("theta3", 0.0) == 1.0
    assert theta_numeric("theta2", 0.0) == 0.0


def test_theta_ratio_trend_toward_one():
    ratios = [theta_numeric("theta2", q) / theta_numeric("theta3", q)
              for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.99


def test_theta_numeric_domain():
    with pytest.raises(ValueError):
        theta_numeric("theta3", 1.0)


# -- singular moduli ----------------------------------------------------------------


def test_singular_modulus_r1_is_self_complementary():
    ctx = singular_modulus(1)
    assert abs(ctx.k - 1.0 / math.sqrt(2.0)) < 1e-9


def test_singular_modulus_known_values():
    # k_3 = (sqrt(3) - 1)/(2 sqrt(2)) = sin(15 deg); k_4 = 3 - 2 sqrt(2)
    assert abs(singular_modulus(3).k - math.sin(math.pi / 12)) < 1e-9
    assert abs(singular_modulus(4).k - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-9


def test_context_invariants():
    for r in (1, 2, 3, 4, 5, 7):
        ctx = singular_modulus(r)
        assert 0.0 < ctx.q < 1.0
        assert 0.0 < ctx.k < 1.0
        assert math.isfinite(ctx.K) and math.isfinite(ctx.Kp)
        assert abs(ctx.Kp / ctx.K - math.sqrt(r)) < 1e-9


def test_singular_modulus_past_the_cancellation_of_one_minus_k_squared():
    # k_45 is about 1e-4, so 1 - sqrt(1 - k^2)^2 keeps only half the digits of k^2
    for r in (45, 60):
        ctx = singular_modulus(r)
        assert abs(ctx.Kp / ctx.K - math.sqrt(r)) < 1e-12, r


def test_singular_modulus_below_one_is_the_dual_context():
    # k_r' = k_(1/r): K(k_r) comes from K'(k_(1/r)), never from k_r near 1
    for r in (0.01, 0.018, 0.25, 0.5):
        ctx, dual = singular_modulus(r), singular_modulus(1 / r)
        assert (ctx.k, ctx.kp, ctx.K, ctx.Kp) == (dual.kp, dual.k, dual.Kp, dual.K)
        assert abs(ctx.Kp / ctx.K - math.sqrt(r)) < 1e-12, r
        assert ctx.q == math.exp(-math.pi * math.sqrt(r))
        assert identity_check("jacobiK", r=r) < 1e-10, r
        assert identity_check("lambert", r=r) < 1e-10, r


def test_singular_modulus_refuses_r_where_k_rounds_to_one():
    # below about 2e-5 the dual's nome underflows too: still "too small"
    for r in (0.001, 0.005, 1e-5, 1e-300):
        with pytest.raises(ValueError, match=f"r={r} is too small"):
            singular_modulus(r)


def test_singular_modulus_rejects_nonpositive():
    with pytest.raises(ValueError):
        singular_modulus(0)


# -- multipliers ---------------------------------------------------------------------


def test_multiplier_identity():
    for r in (1, 2, 3):
        assert multiplier(1, r) == 1.0


def test_multiplier_2_1():
    # m_{2,1} = K(k_4)/K(k_1), both via AGM
    want = ellipK(singular_modulus(4).k) / ellipK(singular_modulus(1).k)
    got = multiplier(2, 1)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.85355339059) < 1e-9


def test_multiplier_3_1_direct():
    want = ellipK(singular_modulus(9).k) / ellipK(singular_modulus(1).k)
    got = multiplier(3, 1)
    assert 0.0 < got < 1.0
    assert abs(got - want) < 1e-10


# -- elliptic identities ----------------------------------------------------------------


def test_jacobiK_identity():
    for r in (1, 2, 3, 4, 5, 7):
        assert identity_check("jacobiK", r=r) < 1e-10, r


def test_lambert_identity():
    for r in (1, 2):
        assert identity_check("lambert", r=r) < 1e-10, r


def test_application1_identity():
    for A, B in ((1, 2), (1, 3)):
        for C, D in ((0, 0), (-2, 0)):
            res = identity_check("application1", A=A, B=B, C=C, D=D, r=1)
            assert res < 1e-8, (A, B, C, D)


def test_application1_shifted_grid():
    # every shift within three periods, with A^2 r up to 160
    for A, B in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (3, 4), (4, 3)):
        for r in range(1, 11):
            for i in range(-3, 4):
                for j in range(-3, 4):
                    res = identity_check("application1", A=A, B=B, C=2 * A * i, D=2 * B * j, r=r)
                    assert res < 1e-12, (A, B, i, j, r)


def test_application1_preconditions():
    with pytest.raises(ValueError):
        identity_check("application1", A=2, B=4, C=0, D=0, r=1)  # gcd 2
    with pytest.raises(ValueError):
        identity_check("application1", A=1, B=2, C=1, D=0, r=1)  # 2A does not divide C


def test_weber_product_identity():
    for r in (1, 2, 3):
        assert identity_check("weber", r=r) < 1e-10, r


def test_identity_check_unknown():
    with pytest.raises(ValueError):
        identity_check("nope", r=1)


# -- hyperbolic-sum identities --------------------------------------------------------------


def test_sinh_identities_on_grid():
    for x in (0.5, 0.7, 1.0, 2.0):
        assert sinh_identity_check("eq66", x) < 1e-10, x
        assert sinh_identity_check("eq67", x) < 1e-10, x
        assert sinh_identity_check("eq69", x, k=3, h=2) < 1e-10, x


def test_sinh_eq69_parameter_sweep():
    for k, h in ((2, 1), (5, -3), (4, 1)):
        assert sinh_identity_check("eq69", 0.7, k=k, h=h) < 1e-10, (k, h)


def test_sinh_prop6_with_chi0_matches_eq66():
    for x in (0.5, 1.0, 2.0):
        assert sinh_identity_check("prop6", x, X=chi0) < 1e-10, x


def test_sinh_prop6_all_ones():
    assert sinh_identity_check("prop6", 1.0, X=lambda n: 1) < 1e-10


def test_sinh_domain_and_parameters():
    with pytest.raises(ValueError):
        sinh_identity_check("eq66", 0.0)
    with pytest.raises(ValueError, match="x=0.005 is too small"):
        sinh_identity_check("eq66", 0.005)
    assert sinh_identity_check("eq66", 0.01) < 1e-10  # the smallest x accepted
    with pytest.raises(ValueError):
        sinh_identity_check("eq69", 1.0, k=2, h=3)  # k <= |h|
    with pytest.raises(ValueError):
        sinh_identity_check("prop6", 1.0)  # X missing


def test_log_theta3_coefficients_are_chi0_divisor_sums():
    # coefficient of q^m in log theta3 is -(sum of d chi0(d) over d | m)/m
    L = theta.series(theta.theta3(), 60).log()
    for m in range(1, 60):
        A = sum(d * chi0(d) for d in divisors(m))
        assert L.coeff(2 * m) == Fraction(-A, m), m
