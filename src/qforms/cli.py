"""Command-line surface: counts, arithmetic tables, theta coefficients,
identity residual checks, and circle-problem scans.

Output is byte-deterministic: CSV by default (count rows are
`n,count,method` with no header; the circle scan carries its fixed
header), JSON as an envelope {spec, rows, method, tool_version}.  Exit
codes: 0 success, 1 usage error, 2 precondition violation, 3 failed
cross-check against the requested oracle or tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, arith, circle, elliptic, repcount, theta


class VerifyMismatch(Exception):
    """A closed form disagreed with the requested verification oracle."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text):
    """'A..B' inclusive, or a single 'N'."""
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return a, b


def _parse_ints(text):
    return tuple(int(p) for p in text.split(","))


def _parse_terms(text):
    """'k1:h1,k2:h2' -> ((k1, h1), (k2, h2))."""
    out = []
    for part in text.split(","):
        k, _, h = part.partition(":")
        out.append((int(k), int(h)))
    return tuple(out)


def _atom(v):
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(args, spec, rows, method, header=None):
    if args.format == "json":
        payload = {
            "spec": spec,
            "rows": [[_atom(v) if isinstance(v, (Fraction, bool)) else v for v in row]
                     for row in rows],
            "method": method,
            "tool_version": __version__,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"
    else:
        lines = []
        if header:
            lines.append(header)
        lines.extend(",".join(_atom(v) for v in row) for row in rows)
        text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- count -----------------------------------------------------------------


def _count_rows(args, lo, hi):
    fam = args.family
    if fam in ("cubic", "quintic"):
        lo = max(lo, 1)
    s = args.scale
    if fam == "quad":
        if not args.diag:
            raise ValueError("quad needs --diag")
        coeffs = _parse_ints(args.diag)
        method = args.method or ("closed" if len(coeffs) == 2 else "series")
        if method == "closed" and len(coeffs) != 2:
            raise ValueError("closed two-square form needs exactly two coefficients")
        table = repcount.count_diagonal(coeffs, s * hi)
        vals = [table.count(s * n) for n in range(lo, hi + 1)]
        qspec = repcount.FormSpec(tuple((a, 0) for a in coeffs), scale=s)
        oracle = lambda: repcount.oracle_count(qspec, hi)
        spec = {"family": "quad", "diag": list(coeffs), "scale": s}
    elif fam == "affine":
        if not args.diag:
            raise ValueError("affine needs --diag")
        A, B = _parse_ints(args.diag)
        C, D = _parse_ints(args.lin)
        E = args.const
        method = "closed"
        vals = [repcount.count_affine(A, B, C, D, E, s * n) for n in range(lo, hi + 1)]
        aspec = repcount.FormSpec(((A, C), (B, D)), scale=s, constant=E)
        oracle = lambda: repcount.oracle_count(aspec, hi)
        spec = {"family": "affine", "diag": [A, B], "lin": [C, D], "const": E, "scale": s}
    elif fam == "tri":
        m, N = args.m, args.vars
        method = args.method or "series"
        if method == "closed":
            vals = [repcount.tri_N_closed(m, N, n) for n in range(lo, hi + 1)]
        else:
            table = repcount.tri_count(m, N, hi, args.domain)
            vals = [table.count(n) for n in range(lo, hi + 1)]
        spec = {"family": "tri", "m": m, "vars": N, "domain": args.domain}

        def oracle():
            table = repcount.oracle_count(
                repcount.FormSpec.triangular_sum(m, N, "lattice" if method == "closed" else args.domain), hi)
            if method == "closed" and m % 2 == 1 and N == 4:
                # the odd-m closed form carries 1/16 of the lattice count
                for n in range(lo, hi + 1):
                    if table.count(n) % 16:
                        raise VerifyMismatch(f"lattice count {table.count(n)} at n={n} is not divisible by 16")
                counts = tuple(c // 16 for c in table.counts)
                return repcount.RepTable(table.spec, table.n_range, counts, "oracle")
            return table
    elif fam == "power":
        method = "closed"
        vals = [repcount.count_power_sum(("power", args.nu), n) for n in range(lo, hi + 1)]
        spec = {"family": "power", "nu": args.nu}

        def oracle():
            counts = [repcount.oracle_odd_power_pairs(args.nu, n, "nonneg") for n in range(hi + 1)]
            return repcount.RepTable(spec, range(hi + 1), tuple(counts), "oracle")
    elif fam == "cubic":
        method = "closed"
        vals = [repcount.cubic_count(n) for n in range(lo, hi + 1)]
        spec = {"family": "cubic"}

        def oracle():
            counts = [0] + [repcount.oracle_odd_power_pairs(3, n, "integer") for n in range(1, hi + 1)]
            return repcount.RepTable(spec, range(hi + 1), tuple(counts), "oracle")
    elif fam == "quintic":
        method = args.variant
        vals = [repcount.quintic_count(n, args.variant) for n in range(lo, hi + 1)]
        spec = {"family": "quintic", "variant": args.variant}

        def oracle():
            counts = [repcount.oracle_odd_power_pairs(5, n, "nonneg") for n in range(hi + 1)]
            return repcount.RepTable(spec, range(hi + 1), tuple(counts), "oracle")
    elif fam == "expmethod":
        if not args.terms:
            raise ValueError("expmethod needs --terms")
        terms = _parse_terms(args.terms)
        method = "transform"
        table = repcount.exp_method_count(terms, hi)
        vals = [table.count(n) for n in range(lo, hi + 1)]
        oracle = lambda: repcount.oracle_count(repcount.FormSpec(terms), hi)
        spec = {"family": "expmethod", "terms": [list(t) for t in terms]}
    else:
        raise ValueError(f"unknown count family {fam!r}")

    if args.verify == "oracle":
        ref = oracle()
        for n, v in zip(range(lo, hi + 1), vals):
            want = ref.count(n)
            if v != want:
                raise VerifyMismatch(f"{fam}: value {v} at n={n} but oracle gives {want}")
    rows = [(n, v, method) for n, v in zip(range(lo, hi + 1), vals)]
    return spec, rows, method


# -- table -----------------------------------------------------------------


def _table_rows(args, lo, hi):
    kind = args.kind
    if kind == "sigma":
        rows = [(n, arith.sigma_star(args.a, n)) for n in range(max(lo, 1), hi + 1)]
        return {"table": "sigma", "a": args.a}, rows
    if kind == "chi":
        if args.k is not None:
            if args.h is None:
                raise ValueError("chi with --k needs --h")
            rows = [(n, arith.chi_kh(args.k, args.h, n)) for n in range(max(lo, 1), hi + 1)]
            return {"table": "chi", "k": args.k, "h": args.h}, rows
        rows = [(n, arith.chi0(n)) for n in range(max(lo, 1), hi + 1)]
        return {"table": "chi", "kind": "chi0"}, rows
    if kind == "classnumber":
        rows = [(-m, arith.class_number(-m))
                for m in range(max(lo, 3), hi + 1) if m % 4 in (0, 3)]
        return {"table": "classnumber"}, rows
    if kind == "fkh":
        if args.k is None or args.h is None:
            raise ValueError("fkh needs --k and --h")
        rows = [(n, arith.f_kh(args.k, args.h, n)) for n in range(max(lo, 1), hi + 1)]
        return {"table": "fkh", "k": args.k, "h": args.h}, rows
    raise ValueError(f"unknown table {kind!r}")


# -- theta -----------------------------------------------------------------


def _theta_series(args):
    kind = args.kind
    if kind == "theta3":
        return theta.theta3()
    if kind == "phi":
        return theta.phi()
    if kind == "psi":
        return theta.psi()
    if kind == "fneg":
        return theta.f_neg()
    if kind == "general":
        if args.k is None or args.h is None:
            raise ValueError("general theta needs --k and --h")
        return theta.alt_general(args.k, args.h) if args.alt else theta.general(args.k, args.h)
    if kind == "triangular":
        if args.m is None:
            raise ValueError("triangular theta needs --m")
        return theta.triangular(args.m)
    raise ValueError(f"unknown theta kind {kind!r}")


def _theta_rows(args):
    s = theta.series(_theta_series(args), args.order)
    rows = []
    for e in s.support():
        c = Fraction(s.coeff(e))
        rows.append((e, c.numerator, c.denominator))
    return {"theta": args.kind, "order": args.order}, rows


# -- identity ----------------------------------------------------------------


_TOLS = {"jacobik": 1e-10, "lambert": 1e-10, "app1": 1e-8, "sinh": 1e-10}


def _identity_rows(args):
    which = args.which
    if which == "jacobik":
        res = elliptic.identity_check("jacobiK", r=args.r)
        params = f"r={_atom(float(args.r))}"
    elif which == "lambert":
        res = elliptic.identity_check("lambert", r=args.r)
        params = f"r={_atom(float(args.r))}"
    elif which == "app1":
        res = elliptic.identity_check("application1", A=args.A, B=args.B,
                                      C=args.C, D=args.D, r=args.r)
        params = f"A={args.A};B={args.B};C={args.C};D={args.D};r={_atom(float(args.r))}"
    elif which == "sinh":
        res = elliptic.sinh_identity_check(args.variant, args.x, k=args.k, h=args.h)
        params = f"variant={args.variant};x={_atom(args.x)}"
        if args.variant == "eq69":
            params += f";k={args.k};h={args.h}"
    elif which == "tripleproduct":
        ok = theta.triple_product_check(args.p, args.order)
        res = 0.0 if ok else 1.0
        params = f"p={args.p};order={args.order}"
        row = (which, params, res, ok)
        if not ok:
            raise VerifyMismatch(f"triple product mismatch at p={args.p}, order={args.order}")
        return {"identity": which, "params": params}, [row]
    else:
        raise ValueError(f"unknown identity {which!r}")
    tol = _TOLS["sinh" if which == "sinh" else which]
    ok = res < tol
    row = (which, params, res, ok)
    if not ok:
        raise VerifyMismatch(f"identity {which} residual {res:.3e} exceeds {tol:g}")
    return {"identity": which, "params": params}, [row]


# -- circle ------------------------------------------------------------------


def _trunc(args):
    return circle.TruncationSpec(n_cut=args.ncut, k_cut=args.kcut,
                                 smooth_window=args.window)


def _circle_rows(args):
    sub = args.op
    if sub == "scan":
        x, counts, pi_x, R, Rs = circle.scan_columns(args.xmax, args.step)
        rows = [(float(a), int(b), float(c), float(d), float(e))
                for a, b, c, d, e in zip(x, counts, pi_x, R, Rs)]
        spec = {"circle": "scan", "xmax": args.xmax, "step": args.step}
        return spec, rows, "x,count,pi_x,R,R_scaled"
    if sub == "hardy":
        val = circle.hardy_sum(args.x, _trunc(args))
        if args.verify == "oracle":
            exact = circle.lattice_count(args.x)
            if abs(val - exact) > 0.3:
                raise VerifyMismatch(f"hardy value {val:.6f} misses exact {exact} by more than 0.3")
        return {"circle": "hardy", "x": args.x}, [(args.x, val)], None
    if sub == "rexp":
        val = circle.R_expansion(args.x, args.N, _trunc(args))
        if args.verify == "oracle":
            exact = circle.lattice_count(args.x) - math.pi * args.x
            if abs(val - exact) > 0.5:
                raise VerifyMismatch(f"expansion value {val:.6f} misses exact {exact:.6f} by more than 0.5")
        return {"circle": "rexp", "x": args.x, "N": args.N}, [(args.x, args.N, val)], None
    if sub == "fresnel":
        C, S = circle.fresnel(args.z)
        return {"circle": "fresnel", "z": args.z}, [(args.z, C, S)], None
    if sub == "dm":
        val = circle.G(args.h, args.x, args.M)
        return {"circle": "dm", "h": args.h, "x": args.x, "M": args.M}, \
            [(args.x, args.M, val)], None
    raise ValueError(f"unknown circle op {sub!r}")


# -- wiring ------------------------------------------------------------------


def _build_parser():
    p = _Parser(prog="qforms", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_default="0..20"):
        sp.add_argument("--n", default=n_default, help="target range A..B or single N")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--verify", choices=("oracle", "none"), default="none")

    pc = sub.add_parser("count", help="representation counts")
    pc.add_argument("family", choices=("quad", "affine", "tri", "power",
                                       "cubic", "quintic", "expmethod"))
    pc.add_argument("--diag", help="comma-separated quadratic coefficients")
    pc.add_argument("--lin", default="0,0", help="comma-separated linear coefficients")
    pc.add_argument("--const", type=int, default=0)
    pc.add_argument("--scale", type=int, choices=(1, 2), default=1,
                    help="divide the form value by this before matching n")
    pc.add_argument("--m", type=int, default=1)
    pc.add_argument("--vars", type=int, default=4)
    pc.add_argument("--domain", choices=("lattice", "nonneg"), default="lattice")
    pc.add_argument("--nu", type=int, default=3)
    pc.add_argument("--variant", choices=("amended", "as-printed"), default="amended")
    pc.add_argument("--terms", help="expmethod terms k1:h1,k2:h2")
    pc.add_argument("--method", choices=("closed", "series"), default=None)
    common(pc)

    pt = sub.add_parser("table", help="arithmetic tables")
    pt.add_argument("kind", choices=("sigma", "chi", "classnumber", "fkh"))
    pt.add_argument("--a", type=int, default=1)
    pt.add_argument("--k", type=int, default=None)
    pt.add_argument("--h", type=int, default=None)
    common(pt, "1..20")

    pth = sub.add_parser("theta", help="exact series coefficients")
    pth.add_argument("kind", choices=("theta3", "phi", "psi", "fneg",
                                      "general", "triangular"))
    pth.add_argument("--order", type=int, default=20)
    pth.add_argument("--k", type=int, default=None)
    pth.add_argument("--h", type=int, default=None)
    pth.add_argument("--alt", action="store_true",
                     help="alternating signs (-1)^n on the lattice sum")
    pth.add_argument("--m", type=int, default=None)
    pth.add_argument("--out", default=None)
    pth.add_argument("--format", choices=("csv", "json"), default="csv")

    pi = sub.add_parser("identity", help="numeric identity residuals")
    pi.add_argument("which", choices=("jacobik", "lambert", "app1", "sinh",
                                      "tripleproduct"))
    pi.add_argument("--r", type=float, default=1.0)
    pi.add_argument("--A", type=int, default=1)
    pi.add_argument("--B", type=int, default=2)
    pi.add_argument("--C", type=int, default=0)
    pi.add_argument("--D", type=int, default=0)
    pi.add_argument("--variant", choices=("eq66", "eq67", "eq69"), default="eq66")
    pi.add_argument("--x", type=float, default=1.0)
    pi.add_argument("--k", type=int, default=None)
    pi.add_argument("--h", type=int, default=None)
    pi.add_argument("--p", type=int, default=3)
    pi.add_argument("--order", type=int, default=60)
    pi.add_argument("--out", default=None)
    pi.add_argument("--format", choices=("csv", "json"), default="csv")

    pci = sub.add_parser("circle", help="lattice-count scans and series diagnostics")
    pci.add_argument("op", choices=("scan", "hardy", "rexp", "fresnel", "dm"))
    pci.add_argument("--xmax", type=float, default=100.0)
    pci.add_argument("--step", type=float, default=1.0)
    pci.add_argument("--x", type=float, default=2.5)
    pci.add_argument("--N", type=int, default=1)
    pci.add_argument("--z", type=float, default=1.0)
    pci.add_argument("--h", type=float, default=0.0)
    pci.add_argument("--M", type=int, default=1024)
    pci.add_argument("--ncut", type=int, default=2000)
    pci.add_argument("--kcut", type=int, default=2000)
    pci.add_argument("--window", type=int, default=64)
    pci.add_argument("--out", default=None)
    pci.add_argument("--format", choices=("csv", "json"), default="csv")
    pci.add_argument("--verify", choices=("oracle", "none"), default="none")
    return p


def run(argv):
    args = _build_parser().parse_args(argv)
    if args.command == "count":
        lo, hi = _parse_range(args.n)
        spec, rows, method = _count_rows(args, lo, hi)
        return _emit(args, spec, rows, method)
    if args.command == "table":
        lo, hi = _parse_range(args.n)
        spec, rows = _table_rows(args, lo, hi)
        return _emit(args, spec, rows, "exact")
    if args.command == "theta":
        spec, rows = _theta_rows(args)
        return _emit(args, spec, rows, "exact")
    if args.command == "identity":
        spec, rows = _identity_rows(args)
        return _emit(args, spec, rows, "numeric")
    if args.command == "circle":
        spec, rows, header = _circle_rows(args)
        return _emit(args, spec, rows, "numeric", header=header)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None):
    # QFORMS_THREADS is accepted for symmetry with batch drivers; every
    # computation here is deterministic and single-pass, so the value
    # never changes the output bytes.
    threads = os.environ.get("QFORMS_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print("qforms: QFORMS_THREADS must be a positive integer", file=sys.stderr)
        return 1
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except VerifyMismatch as exc:
        print(f"qforms: cross-check failed: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"qforms: internal fault: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qforms: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
