"""Exact representation numbers of quadratic, triangular and odd-power
forms via divisor sums and q-series coefficient transforms, with
floating-point companions for elliptic identities and the circle-problem
error term."""

from .series import HalfLaurentSeries, exp_neg, sqrt_coeff_fdb
from .arith import (
    divisors,
    divisor_sum,
    sigma_star,
    chi0,
    chi_kh,
    f_kh,
    class_number,
    reduced_forms,
)
from .repcount import (
    FormSpec,
    RepTable,
    oracle_count,
    count_form,
    r2,
    count_two_form,
    count_diagonal,
    count_affine,
    count_poly_composed,
    count_power_sum,
    cubic_count,
    quintic_count,
    tri_count,
    tri_reduce,
    tri_N_closed,
    s_m,
    r_N_squares,
    r3,
    r4_closed,
    exp_method_count,
)
from .elliptic import (
    EllipticContext,
    ellipK,
    theta_numeric,
    singular_modulus,
    multiplier,
    identity_check,
    sinh_identity_check,
)
from .circle import (
    TruncationSpec,
    ScanRow,
    lattice_count,
    r2_table,
    c1,
    bessel_j1,
    hardy_sum,
    oscillatory_sum,
    R_expansion,
    S_sum,
    G,
    fresnel,
    fresnel_closed_sum,
    scan_R,
)

__version__ = "0.1.0"
