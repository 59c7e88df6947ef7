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
import contextlib
import itertools
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


def _pair(values, flag):
    if len(values) != 2:
        raise ValueError(f"{flag} needs two integers, got {len(values)}")
    return values


def _parse_terms(text):
    """'k1:h1,k2:h2' -> ((k1, h1), (k2, h2))."""
    out = []
    for part in text.split(","):
        k, _, h = part.partition(":")
        out.append((int(k), int(h)))
    return tuple(out)


def _atom(v):
    if type(v) is float:  # the exact types first: they are nearly every cell
        return format(v, ".12g")
    if type(v) is int:
        return str(v)
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(args, spec, rows, method, header):
    """Write the output; CSV rows are formatted and written one at a time."""
    if args.format == "json":
        payload = {
            "spec": spec,
            "rows": [[_atom(v) if isinstance(v, (Fraction, bool)) else v for v in row]
                     for row in rows],
            "method": method,
            "tool_version": __version__,
        }
        lines = [json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"]
    else:
        lines = itertools.chain([header + "\n"] if header else [],
                                (",".join(_atom(v) for v in row) + "\n" for row in rows))
    with open(args.out, "w", newline="\n") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(lines)
    return 0


# -- count -----------------------------------------------------------------


def _targets(lo, hi, least):
    """The targets of the window lo..hi from the family's least target up;
    a window whose top is below that target holds none and is refused."""
    if hi < least:
        raise ValueError("n_max must be nonnegative" if least == 0 else f"n_max must be >= {least}")
    return range(max(lo, least), hi + 1)


def _count_rows(args):
    """One family's rows: a FormSpec window read once, or a closed form per
    target, then one --verify loop against the brute-force oracle."""
    lo, hi = _parse_range(args.n)
    fam, s = args.family, args.scale
    ns = _targets(lo, hi, 1) if fam in ("cubic", "quintic") else range(lo, hi + 1)
    first = lo  # where a window's table starts
    form = closed = pairs = None  # a FormSpec window, or a closed form with its (nu, domain) oracle
    ratio = 1  # the oracle counts ratio times the value
    if fam in ("quad", "affine"):
        if not args.diag:
            raise ValueError(f"{fam} needs --diag")
        coeffs = _parse_ints(args.diag)
        if fam == "quad":
            method = args.method or ("closed" if len(coeffs) == 2 else "series")
            if method == "closed" and len(coeffs) != 2:
                raise ValueError("closed two-square form needs exactly two coefficients")
            terms, const = tuple((a, 0) for a in coeffs), 0
            spec = {"family": "quad", "diag": list(coeffs), "scale": s}
        else:
            A, B = _pair(coeffs, "--diag")
            C, D = _pair(_parse_ints(args.lin), "--lin")
            method, terms, const = "closed", ((A, C), (B, D)), args.const
            spec = {"family": "affine", "diag": [A, B], "lin": [C, D], "const": const, "scale": s}
        form = repcount.FormSpec(terms, scale=s, constant=const)
        if fam == "quad":  # quad's table starts at 0 or later, so it refuses a target below 0
            first = _targets(lo, hi, 0).start
    elif fam == "tri":
        m, N = args.m, args.vars
        method = args.method or "series"
        spec = {"family": "tri", "m": m, "vars": N, "domain": args.domain}
        if method == "series":
            form = repcount.FormSpec.triangular_sum(m, N, args.domain)
            first = _targets(lo, hi, 0).start
        elif args.domain == "nonneg":
            raise ValueError("--method closed counts lattice tuples; --domain nonneg needs --method series")
        else:
            closed = lambda n: repcount.tri_N_closed(m, N, n)
            if m % 2 == 1 and N == 4:
                ratio = 16  # the odd-m closed form carries 1/16 of the lattice count
    elif fam == "power":
        method, spec, pairs = "closed", {"family": "power", "nu": args.nu}, (args.nu, "nonneg")
        closed = lambda n: repcount.count_power_sum(("power", args.nu), n)
    elif fam == "cubic":
        method, spec, pairs = "closed", {"family": "cubic"}, (3, "integer")
        closed = repcount.cubic_count
    elif fam == "quintic":
        method, spec, pairs = args.variant, {"family": "quintic", "variant": args.variant}, (5, "nonneg")
        closed = lambda n: repcount.quintic_count(n, args.variant)
    else:  # expmethod
        if not args.terms:
            raise ValueError("expmethod needs --terms")
        terms = _parse_terms(args.terms)
        method, spec = "transform", {"family": "expmethod", "terms": [list(t) for t in terms]}

    if closed:
        vals = [closed(n) for n in ns]
    else:  # exp_method_count checks its terms before FormSpec sees them: the table carries the spec
        table = repcount.exp_method_count(terms, hi) if form is None else repcount.count_form(form, hi, first)
        vals, form = [table.count(n) for n in ns], table.spec
    if args.verify == "oracle":
        if pairs:
            ref = [repcount.oracle_odd_power_pairs(pairs[0], n, pairs[1]) for n in ns]
        else:  # tri's closed route builds its FormSpec only here, past its own refusals
            form = form or repcount.FormSpec.triangular_sum(args.m, args.vars)
            ref = repcount.oracle_count(form, hi, first).counts
        for n, v, want in zip(ns, vals, ref):
            if ratio * v != want:
                shown = v if ratio == 1 else f"{ratio} * {v}"
                raise VerifyMismatch(f"{fam}: value {shown} at n={n} but oracle gives {want}")
    return spec, [(n, v, method) for n, v in zip(ns, vals)], method, None


# -- table -----------------------------------------------------------------


def _table_rows(args):
    lo, hi = _parse_range(args.n)
    kind, k, h = args.kind, args.k, args.h
    if kind == "classnumber":
        rows = [(-m, arith.class_number(-m)) for m in _targets(lo, hi, 3) if m % 4 in (0, 3)]
        return {"table": "classnumber"}, rows, "exact", None
    if kind == "sigma":
        spec, f = {"table": "sigma", "a": args.a}, lambda n: arith.sigma_star(args.a, n)
    elif kind == "chi" and k is None and h is None:
        spec, f = {"table": "chi", "kind": "chi0"}, arith.chi0
    elif kind == "chi":
        if h is None:
            raise ValueError("chi with --k needs --h")
        if k is None:
            raise ValueError("chi with --h needs --k")
        spec, f = {"table": "chi", "k": k, "h": h}, lambda n: arith.chi_kh(k, h, n)
    else:  # fkh
        if k is None or h is None:
            raise ValueError("fkh needs --k and --h")
        spec, f = {"table": "fkh", "k": k, "h": h}, lambda n: arith.f_kh(k, h, n)
    return spec, [(n, f(n)) for n in _targets(lo, hi, 1)], "exact", None


# -- theta -----------------------------------------------------------------


_THETA_KINDS = {"theta3": theta.theta3, "phi": theta.phi, "psi": theta.psi, "fneg": theta.f_neg}


def _theta_series(args):
    if args.kind == "general":
        if args.k is None or args.h is None:
            raise ValueError("general theta needs --k and --h")
        return theta.alt_general(args.k, args.h) if args.alt else theta.general(args.k, args.h)
    if args.kind == "triangular":
        if args.m is None:
            raise ValueError("triangular theta needs --m")
        return theta.triangular(args.m)
    return _THETA_KINDS[args.kind]()


def _theta_rows(args):
    s = theta.series(_theta_series(args), args.order)
    rows = [(e, c.numerator, c.denominator) for e, c in enumerate(s.coeffs, s.base) if c]
    return {"theta": args.kind, "order": args.order}, rows, "exact", None


# -- identity ----------------------------------------------------------------


_TOLS = {"jacobik": 1e-10, "lambert": 1e-10, "app1": 1e-8, "sinh": 1e-10}


def _identity_rows(args):
    which = args.which
    if which == "tripleproduct":
        params = f"p={args.p};order={args.order}"
        if not theta.triple_product_check(args.p, args.order):
            raise VerifyMismatch(f"triple product mismatch at p={args.p}, order={args.order}")
        res = 0.0
    else:
        if which in ("jacobik", "lambert"):
            res = elliptic.identity_check("jacobiK" if which == "jacobik" else which, r=args.r)
            params = f"r={_atom(float(args.r))}"
        elif which == "app1":
            res = elliptic.identity_check("application1", A=args.A, B=args.B,
                                          C=args.C, D=args.D, r=args.r)
            params = f"A={args.A};B={args.B};C={args.C};D={args.D};r={_atom(float(args.r))}"
        else:  # sinh
            res = elliptic.sinh_identity_check(args.variant, args.x, k=args.k, h=args.h)
            params = f"variant={args.variant};x={_atom(args.x)}"
            if args.variant == "eq69":
                params += f";k={args.k};h={args.h}"
        if not res < _TOLS[which]:
            raise VerifyMismatch(f"identity {which} residual {res:.3e} exceeds {_TOLS[which]:g}")
    return {"identity": which, "params": params}, [(which, params, res, True)], "numeric", None


# -- circle ------------------------------------------------------------------


def _trunc(args):
    return circle.TruncationSpec(n_cut=args.ncut, k_cut=args.kcut,
                                 smooth_window=args.window)


def _circle_rows(args):
    sub = args.op
    if args.verify == "oracle" and sub not in ("hardy", "rexp"):
        raise ValueError(f"circle {sub} has no oracle: --verify oracle checks hardy and rexp")
    header = None
    if sub == "scan":
        rows = zip(*(c.tolist() for c in circle.scan_columns(args.xmax, args.step)))
        spec = {"circle": "scan", "xmax": args.xmax, "step": args.step}
        header = "x,count,pi_x,R,R_scaled"
    elif sub == "hardy":
        val = circle.hardy_sum(args.x, _trunc(args))
        if args.verify == "oracle":
            exact = circle.lattice_count(args.x)
            if abs(val - exact) > 0.3:
                raise VerifyMismatch(f"hardy value {val:.6f} misses exact {exact} by more than 0.3")
        spec, rows = {"circle": "hardy", "x": args.x}, [(args.x, val)]
    elif sub == "rexp":
        val = circle.R_expansion(args.x, args.N, _trunc(args))
        if args.verify == "oracle":
            exact = circle.lattice_count(args.x) - math.pi * args.x
            if abs(val - exact) > 0.5:
                raise VerifyMismatch(f"expansion value {val:.6f} misses exact {exact:.6f} by more than 0.5")
        spec, rows = {"circle": "rexp", "x": args.x, "N": args.N}, [(args.x, args.N, val)]
    elif sub == "fresnel":
        C, S = circle.fresnel(args.z)
        spec, rows = {"circle": "fresnel", "z": args.z}, [(args.z, C, S)]
    else:  # dm
        val = circle.G(args.h, args.x, args.M)
        spec, rows = {"circle": "dm", "h": args.h, "x": args.x, "M": args.M}, [(args.x, args.M, val)]
    return spec, rows, "numeric", header


# -- wiring ------------------------------------------------------------------


def _build_parser():
    p = _Parser(prog="qforms", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, rows, n_default=None, verify=True):
        """The output flags every subcommand takes, --n where it reads a
        range, --verify where it has an oracle, and its row handler."""
        if n_default:
            sp.add_argument("--n", default=n_default, help="target range A..B or single N")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if verify:
            sp.add_argument("--verify", choices=("oracle", "none"), default="none")
        sp.set_defaults(rows=rows)

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
    common(pc, _count_rows, "0..20")

    pt = sub.add_parser("table", help="arithmetic tables")
    pt.add_argument("kind", choices=("sigma", "chi", "classnumber", "fkh"))
    pt.add_argument("--a", type=int, default=1)
    pt.add_argument("--k", type=int, default=None)
    pt.add_argument("--h", type=int, default=None)
    common(pt, _table_rows, "1..20", verify=False)

    pth = sub.add_parser("theta", help="exact series coefficients")
    pth.add_argument("kind", choices=("theta3", "phi", "psi", "fneg",
                                      "general", "triangular"))
    pth.add_argument("--order", type=int, default=20)
    pth.add_argument("--k", type=int, default=None)
    pth.add_argument("--h", type=int, default=None)
    pth.add_argument("--alt", action="store_true",
                     help="alternating signs (-1)^n on the lattice sum")
    pth.add_argument("--m", type=int, default=None)
    common(pth, _theta_rows, verify=False)

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
    common(pi, _identity_rows, verify=False)

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
    common(pci, _circle_rows)
    return p


def run(argv):
    args = _build_parser().parse_args(argv)
    return _emit(args, *args.rows(args))


def main(argv=None):
    # QFORMS_THREADS is accepted for symmetry with batch drivers and does
    # nothing: the circle passes that spread over threads (circle._spread)
    # take the process's allowed CPUs and give bit-identical output at any
    # count, so the value never changes the output bytes.
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
    except MemoryError:
        print("qforms: the request is too large: its tables cannot be allocated", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
