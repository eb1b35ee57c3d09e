"""Command-line interface.

Exit codes: 0 success or check-true, 1 check-false (residual printed),
2 parse or usage error, 3 mathematical domain error, 4 internal error (one
line on stderr, no traceback), 141 standard output closed by its reader
(nothing on stderr; the code a shell reports for a process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import jetcalc, models
from .bv import (
    BVExtension,
    antibracket_density,
    brst_apply,
    check_master_equation,
    extend_to_bv,
    koszul_tate_apply,
)
from .errors import DomainError, ParseError
from .parser import parse_assignments, parse_expression, parse_model, parse_operator
from .printer import format_expression
from .theory import (
    EvolutionaryVF,
    NoetherOperator,
    Section,
    Theory,
    euler_lagrange_system,
    integrate_on_box,
    noether_residual,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return parse_model(text)


def _as_bv(parsed) -> BVExtension:
    if isinstance(parsed, BVExtension):
        return parsed
    return extend_to_bv(parsed, [])


def _base_theory(parsed) -> Theory:
    return parsed.base if isinstance(parsed, BVExtension) else parsed


def _fmt(style):
    return lambda e: format_expression(e, style)


def _comp_label(name, comp):
    return name + ("[" + ",".join(str(c) for c in comp) + "]" if comp else "")


def _rational(text: str) -> Fraction:
    """``p``, ``p/q`` or a decimal; an exponent part (``1e3``) is rejected,
    since ``Fraction("1e999999999")`` would build a billion-digit integer."""
    if "e" in text.lower():
        raise ValueError(text)
    return Fraction(text)


def _parse_box(text: str):
    box = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"box entry {chunk!r} is not of the form var=lo..hi")
        name, span = chunk.split("=", 1)
        if ".." not in span:
            raise ParseError(f"box entry {chunk!r} is not of the form var=lo..hi")
        lo, hi = span.split("..", 1)
        name = name.strip()
        if name in box:
            raise ParseError(f"box bounds {name!r} twice")
        try:
            box[name] = (_rational(lo.strip()), _rational(hi.strip()))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational bounds in {chunk!r}") from None
    return box


def _parse_params(entries):
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ParseError(f"parameter binding {entry!r} is not of the form name=value")
        name, value = entry.split("=", 1)
        name = name.strip()
        if name in out:
            raise ParseError(f"parameter {name!r} is bound twice")
        try:
            out[name] = _rational(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational value in {entry!r}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_el(args, out):
    theory = _base_theory(_load(args.file))
    fmt = _fmt(args.style)
    for (name, comp), expr in sorted(euler_lagrange_system(theory).items()):
        out.write(f"EL[{_comp_label(name, comp)}] = {fmt(expr)}\n")
    return EXIT_OK


def _cmd_symm(args, out):
    parsed = _load(args.file)
    theory = parsed.theory if isinstance(parsed, BVExtension) else parsed
    chars = {}
    for spec in args.q:
        for (name, comp), value in parse_assignments(spec, theory).items():
            if (name, comp) in chars:
                raise ParseError(f"component {name}{list(comp)} assigned twice")
            chars[name, comp] = value
    vf = EvolutionaryVF(theory, chars)
    moved = jetcalc.prolong_apply(vf.characteristics, theory.lagrangian)
    if jetcalc.is_total_divergence(moved):
        out.write("symmetry: yes\n")
        return EXIT_OK
    out.write("symmetry: no\n")
    out.write(f"pr X(L) = {_fmt(args.style)(moved)}\n")
    return EXIT_FALSE


def _cmd_noether(args, out):
    parsed = _load(args.file)
    theory = _base_theory(parsed)
    op = NoetherOperator(theory, parse_operator(args.op, theory))
    residual = noether_residual(theory, op)
    if residual.is_zero():
        out.write("noether identity: yes\n")
        return EXIT_OK
    out.write("noether identity: no\n")
    out.write(f"residual = {_fmt(args.style)(residual)}\n")
    return EXIT_FALSE


def _cmd_divergence(args, out):
    parsed = _load(args.file)
    theory = parsed.theory if isinstance(parsed, BVExtension) else parsed
    expr = parse_expression(args.expr, theory)
    fmt = _fmt(args.style)
    if not jetcalc.is_total_divergence(expr):
        out.write("total divergence: no\n")
        targets = sorted({(a.gen, a.comp) for a in expr.jet_atoms()})
        for gid, comp in targets:
            name = theory.signature.generators[gid].name
            el = jetcalc.variational_derivative(expr, name, comp)
            if el:
                out.write(f"EL[{_comp_label(name, comp)}] = {fmt(el)}\n")
        return EXIT_FALSE
    witnesses = jetcalc.divergence_witness(expr) if args.witness else {}
    out.write("total divergence: yes\n")
    for var, witness in witnesses.items():
        out.write(f"witness[{var}] = {fmt(witness)}\n")
    return EXIT_OK


def _cmd_bracket(args, out):
    bv = _as_bv(_load(args.file))
    f = parse_expression(args.f, bv)
    g = parse_expression(args.g, bv)
    result = antibracket_density(bv, f, g)
    out.write(f"(F,G) = {_fmt(args.style)(result)}\n")
    return EXIT_OK


def _cmd_kt(args, out):
    bv = _as_bv(_load(args.file))
    expr = parse_expression(args.expr, bv)
    out.write(f"d_KT = {_fmt(args.style)(koszul_tate_apply(bv, expr))}\n")
    return EXIT_OK


def _cmd_brst(args, out):
    bv = _as_bv(_load(args.file))
    expr = parse_expression(args.expr, bv)
    out.write(f"brst = {_fmt(args.style)(brst_apply(bv, expr))}\n")
    return EXIT_OK


def _cmd_master(args, out):
    bv = _as_bv(_load(args.file))
    report = check_master_equation(bv)
    if report.holds:
        out.write("master equation holds in h(A)\n")
        return EXIT_OK
    out.write("master equation fails\n")
    out.write(f"residual = {_fmt(args.style)(report.residual.expr)}\n")
    return EXIT_FALSE


def _cmd_eval(args, out):
    parsed = _load(args.file)
    theory = _base_theory(parsed)
    values = parse_assignments(args.section, theory)
    section = Section(theory, values)
    box = _parse_box(args.box)
    params = _parse_params(args.param)
    value = integrate_on_box(theory.functional(theory.lagrangian), section, box, params=params)
    out.write(f"value = {format_expression(theory.signature.const(value), args.style)}\n")
    return EXIT_OK


def _cmd_models(args, out):
    if args.emit:
        out.write(models.model_source(args.emit, dim=args.dim, potential=args.potential))
        return EXIT_OK
    for name in models.list_models():
        out.write(name + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetvar",
        description="Exact variational calculus on jet spaces and the classical BV formalism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--latex", dest="style", action="store_const", const="latex",
                       default="plain", help="format output as LaTeX")

    p = sub.add_parser("el", help="print the Euler-Lagrange system")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_el)

    p = sub.add_parser("symm", help="check an evolutionary symmetry")
    p.add_argument("file")
    p.add_argument("--q", action="append", required=True, metavar="REF=EXPR",
                   help="characteristic assignment, e.g. 'A[mu]=d(C;mu)'; repeatable")
    common(p)
    p.set_defaults(func=_cmd_symm)

    p = sub.add_parser("noether", help="check a Noether identity")
    p.add_argument("file")
    p.add_argument("--op", required=True,
                   help="operator paired with the EL system, e.g. 'd(EL(A[nu]);nu)'")
    common(p)
    p.set_defaults(func=_cmd_noether)

    p = sub.add_parser("divergence", help="decide whether a density is a total divergence")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--witness", action="store_true",
                   help="also construct F with D_t F = expr (one variable only)")
    common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("bracket", help="antibracket of two densities")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    common(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("kt", help="apply the Koszul-Tate differential")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_kt)

    p = sub.add_parser("brst", help="apply the BRST differential {S_cm, -}")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_brst)

    p = sub.add_parser("master", help="check the classical master equation")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_master)

    p = sub.add_parser("eval", help="integrate the action over a box on a section")
    p.add_argument("file")
    p.add_argument("--section", required=True, metavar="REF=EXPR[;...]")
    p.add_argument("--box", required=True, metavar="VAR=LO..HI[,...]")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("models", help="list built-in models or emit a model file")
    p.add_argument("--emit", metavar="NAME")
    p.add_argument("--dim", type=int, default=None, help="base dimension for gauge models")
    p.add_argument("--potential", default=None, help="potential for free_particle")
    p.set_defaults(func=_cmd_models)

    return parser


def cli_dispatch(argv, out=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "models" and args.emit is None:
            # a listing has no model file for these to shape
            for flag in ("dim", "potential"):
                if getattr(args, flag) is not None:
                    parser.error(f"models --{flag} applies only with --emit")
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except DomainError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except BrokenPipeError:
        raise  # the reader went away; main() ends quietly
    except Exception as exc:
        # a bug, not a verdict: exit 1 would read as "check false"
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main():
    try:
        code = cli_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # ``jetvar el ... | head``: point stdout at devnull, so that the
        # interpreter's own final flush has no closed pipe to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
