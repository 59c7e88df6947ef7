"""Command-line surface: counts, arithmetic tables, theta coefficients,
identity residual checks, and circle-problem scans.

Output is byte-deterministic: CSV by default (count rows are
`n,count,method` with no header; the circle scan carries its fixed
header), JSON as an envelope {spec, rows, method, tool_version}.  Each
kind of a subcommand parses only the flags it reads.  Exit codes: 0
success, 1 usage error (a flag of another kind among them), 2 precondition
violation, 3 failed cross-check against the requested oracle or tolerance.
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

    def parse_known_args(self, args=None, namespace=None):
        # a flag no parser knows is refused by the innermost one, the kind's,
        # with its usage: argparse would hand it up to the top-level parser
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    fam = args.family
    ns = _targets(lo, hi, 1) if fam in ("cubic", "quintic") else range(lo, hi + 1)
    first = lo  # where a window's table starts
    form = closed = pairs = None  # a FormSpec window, or a closed form with its (nu, domain) oracle
    ratio = 1  # the oracle counts ratio times the value
    if fam in ("quad", "affine"):
        if not args.diag:
            raise ValueError(f"{fam} needs --diag")
        coeffs, s = _parse_ints(args.diag), args.scale
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
            form = form or repcount.FormSpec.triangular_sum(m, N)
            ref = repcount.oracle_count(form, hi, first).counts
        for n, v, want in zip(ns, vals, ref):
            if ratio * v != want:
                shown = v if ratio == 1 else f"{ratio} * {v}"
                raise VerifyMismatch(f"{fam}: value {shown} at n={n} but oracle gives {want}")
    return spec, [(n, v, method) for n, v in zip(ns, vals)], method, None


# -- table -----------------------------------------------------------------


def _table_rows(args):
    lo, hi = _parse_range(args.n)
    kind = args.kind
    if kind == "classnumber":
        rows = [(-m, arith.class_number(-m)) for m in _targets(lo, hi, 3) if m % 4 in (0, 3)]
        if not rows:
            raise ValueError(f"--n {lo}..{hi} holds no discriminant: |D| must be 0 or 3 mod 4")
        return {"table": "classnumber"}, rows, "exact", None
    if kind == "sigma":
        spec, f = {"table": "sigma", "a": args.a}, lambda n: arith.sigma_star(args.a, n)
    elif kind == "chi" and args.k is None and args.h is None:
        spec, f = {"table": "chi", "kind": "chi0"}, arith.chi0
    else:  # chi_kh or f_kh
        k, h = args.k, args.h
        if kind == "fkh" and (k is None or h is None):
            raise ValueError("fkh needs --k and --h")
        if k is None or h is None:
            raise ValueError("chi with --k needs --h" if h is None else "chi with --h needs --k")
        spec = {"table": kind, "k": k, "h": h}
        f = (lambda n: arith.chi_kh(k, h, n)) if kind == "chi" else (lambda n: arith.f_kh(k, h, n))
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
        else:  # sinh: --k and --h pick eq69's character, which eq66 and eq67 do not have
            if args.variant != "eq69" and (args.k is not None or args.h is not None):
                raise ValueError(f"--variant {args.variant} takes no --k or --h: they set eq69's chi_kh")
            res = elliptic.sinh_identity_check(args.variant, args.x, k=args.k, h=args.h)
            params = f"variant={args.variant};x={_atom(args.x)}"
            if args.variant == "eq69":
                params += f";k={args.k};h={args.h}"
        if not res < _TOLS[which]:
            raise VerifyMismatch(f"identity {which} residual {res:.3e} exceeds {_TOLS[which]:g}")
    return {"identity": which, "params": params}, [(which, params, res, True)], "numeric", None


# -- circle ------------------------------------------------------------------


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
        # hardy_sum reads no k_cut, so hardy takes no --kcut
        val = circle.hardy_sum(args.x, circle.TruncationSpec(n_cut=args.ncut, smooth_window=args.window))
        if args.verify == "oracle":
            exact = circle.lattice_count(args.x)
            if abs(val - exact) > 0.3:
                raise VerifyMismatch(f"hardy value {val:.6f} misses exact {exact} by more than 0.3")
        spec, rows = {"circle": "hardy", "x": args.x}, [(args.x, val)]
    elif sub == "rexp":
        val = circle.R_expansion(args.x, args.N, circle.TruncationSpec(args.ncut, args.kcut, args.window))
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


_OUTPUT = {"out": {"default": None}, "format": {"choices": ("csv", "json"), "default": "csv"}}
_VERIFY = {"verify": {"choices": ("oracle", "none"), "default": "none"}}

# Each subcommand: its help, its row handler, the name its kind is stored
# under, the flags all its kinds take, the settings of every other flag it
# knows, and the flags each kind reads. A kind parses its own flags and the
# shared ones only, so a flag of another kind is a usage error.
_COMMANDS = {
    "count": ("representation counts", _count_rows, "family", {
        "n": {"default": "0..20", "help": "target range A..B or single N"}, **_OUTPUT, **_VERIFY}, {
        "diag": {"help": "comma-separated quadratic coefficients"},
        "lin": {"default": "0,0", "help": "comma-separated linear coefficients"},
        "const": {"type": int, "default": 0},
        "scale": {"type": int, "choices": (1, 2), "default": 1,
                  "help": "divide the form value by this before matching n"},
        "m": {"type": int, "default": 1},
        "vars": {"type": int, "default": 4},
        "domain": {"choices": ("lattice", "nonneg"), "default": "lattice"},
        "nu": {"type": int, "default": 3},
        "variant": {"choices": ("amended", "as-printed"), "default": "amended"},
        "terms": {"help": "expmethod terms k1:h1,k2:h2"},
        "method": {"choices": ("closed", "series"), "default": None},
    }, {"quad": "diag scale method", "affine": "diag lin const scale", "tri": "m vars domain method",
        "power": "nu", "cubic": "", "quintic": "variant", "expmethod": "terms"}),
    "table": ("arithmetic tables", _table_rows, "kind", {
        "n": {"default": "1..20", "help": "target range A..B or single N"}, **_OUTPUT}, {
        "a": {"type": int, "default": 1},
        "k": {"type": int, "default": None},
        "h": {"type": int, "default": None},
    }, {"sigma": "a", "chi": "k h", "classnumber": "", "fkh": "k h"}),
    "theta": ("exact series coefficients", _theta_rows, "kind", _OUTPUT, {
        "order": {"type": int, "default": 20},
        "k": {"type": int, "default": None},
        "h": {"type": int, "default": None},
        "alt": {"action": "store_true", "help": "alternating signs (-1)^n on the lattice sum"},
        "m": {"type": int, "default": None},
    }, {"theta3": "order", "phi": "order", "psi": "order", "fneg": "order",
        "general": "order k h alt", "triangular": "order m"}),
    "identity": ("numeric identity residuals", _identity_rows, "which", _OUTPUT, {
        "r": {"type": float, "default": 1.0},
        "A": {"type": int, "default": 1},
        "B": {"type": int, "default": 2},
        "C": {"type": int, "default": 0},
        "D": {"type": int, "default": 0},
        "variant": {"choices": ("eq66", "eq67", "eq69"), "default": "eq66"},
        "x": {"type": float, "default": 1.0},
        "k": {"type": int, "default": None},
        "h": {"type": int, "default": None},
        "p": {"type": int, "default": 3},
        "order": {"type": int, "default": 60},
    }, {"jacobik": "r", "lambert": "r", "app1": "A B C D r", "sinh": "variant x k h",
        "tripleproduct": "p order"}),
    "circle": ("lattice-count scans and series diagnostics", _circle_rows, "op", {**_OUTPUT, **_VERIFY}, {
        "xmax": {"type": float, "default": 100.0},
        "step": {"type": float, "default": 1.0},
        "x": {"type": float, "default": 2.5},
        "N": {"type": int, "default": 1},
        "z": {"type": float, "default": 1.0},
        "h": {"type": float, "default": 0.0},
        "M": {"type": int, "default": 1024},
        "ncut": {"type": int, "default": 2000},
        "kcut": {"type": int, "default": 2000},
        "window": {"type": int, "default": 64},
    }, {"scan": "xmax step", "hardy": "x ncut window", "rexp": "x N ncut kcut window", "fresnel": "z",
        "dm": "h x M"}),
}


def _build_parser(argv):
    """The parser of every command, with the kind parsers of the command argv
    names only (its first token that is not an option): no other is read."""
    named = next((a for a in argv if not a.startswith("-")), None)
    p = _Parser(prog="qforms", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, rows, dest, shared, flags, kinds) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        if command != named:
            continue
        kind_parsers = command_parser.add_subparsers(dest=dest, required=True)
        for kind, names in kinds.items():
            # no abbreviations: `circle scan --x 5` must not read as --xmax 5
            kp = kind_parsers.add_parser(kind, allow_abbrev=False)
            for name, settings in [*shared.items(), *((f, flags[f]) for f in names.split())]:
                kp.add_argument(f"--{name}", **settings)
            kp.set_defaults(rows=rows)
    return p


def run(argv):
    args = _build_parser(argv).parse_args(argv)
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
