"""Command-line front end.

Commands: betti (dimension tables), cocycle (explicit constructions),
gf (generating functions), sl2 (primitive vectors), verify (the
cross-check suites).  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from fractions import Fraction

from .algebra import load_custom_file, preset
from .cochain import cochain_text, cochain_to_json
from .cohomology import betti, betti_table
from .combinatorics import betti_gf
from .explicit import ClosednessFailed, omega, w_cocycle
from .fields import parse_field
from .sl2 import Sl2Module, combination_text, primitive_basis
from .verify import SUITES


class UsageError(ValueError):
    pass


def parse_algebra(spec: str):
    spec = spec.strip()
    if spec.startswith("file:"):
        return load_custom_file(spec[5:])
    if ":" in spec:
        name, _, param = spec.partition(":")
        try:
            return preset(name, int(param))
        except ValueError as exc:
            raise UsageError(f"bad algebra spec {spec!r}: {exc}") from exc
    try:
        return preset(spec)
    except ValueError as exc:
        raise UsageError(f"bad algebra spec {spec!r}: {exc}") from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_betti(args) -> int:
    alg = parse_algebra(args.algebra)
    field = parse_field(args.field)
    if args.q is not None and args.k is not None:
        value = betti(alg, args.q, args.k, field)
        if args.format == "json":
            _emit(json.dumps({"algebra": alg.name, "q": args.q, "k": args.k,
                              "dim": value}), args.out)
        else:
            _emit(str(value), args.out)
        return 0
    if args.qmax is None or args.kmax is None:
        raise UsageError("need --q/--k or --qmax/--kmax")
    table = betti_table(alg, args.qmax, args.kmax, field)
    if args.format == "json":
        _emit(table.to_json(), args.out)
    elif args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        lines = [f"b^{q}_{k} = {d}"
                 for (q, k), d in sorted(table.entries.items()) if d]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cocycle(args) -> int:
    field = parse_field(args.field)
    if (args.omega is None) == (args.w is None):
        raise UsageError("exactly one of --omega or --w is required")
    if args.omega is not None:
        indices = tuple(int(s) for s in args.omega.split(","))
        c = omega(indices, field)
    else:
        indices = tuple(int(s) for s in args.w.split(","))
        c = w_cocycle(indices, field)
    if args.format == "json":
        _emit(json.dumps(cochain_to_json(c), indent=2), args.out)
    else:
        _emit(cochain_text(c), args.out)
    return 0


def cmd_gf(args) -> int:
    series = betti_gf(args.algebra, args.t_terms, args.x_terms)
    if args.format == "json":
        _emit(json.dumps(series.to_json(), indent=2), args.out)
    else:
        terms = []
        for (t, x), c in sorted(series.coeffs.items()):
            terms.append(f"{c} t^{t} x^{x}")
        _emit(" + ".join(terms) if terms else "0", args.out)
    return 0


def cmd_sl2(args) -> int:
    lam = Fraction(args.lam)
    mod = Sl2Module(lam)
    vectors = primitive_basis(mod, args.q, args.k)
    if args.format == "json":
        payload = [{ "^".join(map(str, m)): str(v) for m, v in vec.items()}
                   for vec in vectors]
        _emit(json.dumps({"lambda": str(lam), "q": args.q, "k": args.k,
                          "dim": len(vectors), "vectors": payload}, indent=2),
              args.out)
    else:
        lines = [combination_text(vec) for vec in vectors]
        _emit("\n".join(lines) if lines else "(empty)", args.out)
    return 0


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(sorted(SUITES))}")
    kwargs = {flag: getattr(args, flag) for flag in ("qmax", "kmax")
              if getattr(args, flag) is not None}
    ignored = sorted(set(kwargs) - set(inspect.signature(suite).parameters))
    if ignored:
        raise UsageError(f"suite {args.suite!r} does not take "
                         + ", ".join(f"--{flag}" for flag in ignored))
    report = suite(**kwargs)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.summary(), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxclass",
        description="Exact cohomology of N-graded Lie algebras of maximal class")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", default="m0",
                           help="m0|m2|l1|lk:<k>|m0n:<n>|m2n:<n>|l1quot:<n>|file:<path>")
        p.add_argument("--field", default="q", help="q or fp:<prime>")
        p.add_argument("--format", default="text", choices=["json", "csv", "text"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("betti", help="dimension table or single value")
    common(p)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("cocycle", help="explicit closed cochains")
    common(p, algebra=False)
    p.add_argument("--omega", default=None, help="comma-separated indices")
    p.add_argument("--w", default=None, help="comma-separated indices (m2)")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("gf", help="two-variable Betti generating function")
    p.add_argument("--algebra", default="m0", choices=["m0", "m2"])
    p.add_argument("--t-terms", type=int, default=20, dest="t_terms")
    p.add_argument("--x-terms", type=int, default=6, dest="x_terms")
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("sl2", help="primitive vectors in exterior powers")
    p.add_argument("--lambda", dest="lam", default="-3/7")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sl2)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("suite", help="|".join(sorted(SUITES)))
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, ClosednessFailed, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
