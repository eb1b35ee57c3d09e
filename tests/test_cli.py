"""CLI subcommands, report text, and exit codes."""

import decimal
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jetvar import cli
from jetvar.bv import BVExtension
from jetvar.cli import EXIT_INTERNAL, EXIT_PIPE, cli_dispatch
from jetvar.parser import _Parser, parse_expression, parse_model
from jetvar.printer import format_expression

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def run(*argv):
    out = io.StringIO()
    code = cli_dispatch(list(argv), out=out)
    return code, out.getvalue()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every fresh process pays for its imports; -S keeps site hooks out of the count
    code = "import sys, jetvar.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_a_closed_stdout_ends_quietly():
    # the reader closes the pipe before anything is written, so the first
    # write fails; neither jetvar nor the interpreter's final flush may report it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "jetvar", "el", str(MODELS / "yang_mills_su2.jv")]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (EXIT_PIPE, b"")
    assert EXIT_PIPE == 141


def test_el_free_particle():
    code, text = run("el", str(MODELS / "free_particle.jv"))
    assert code == 0
    assert "EL[u[1]] = -m * d(d(u[1];t);t)" in text


def test_el_with_metric_entries_other_than_one(tmp_path):
    # inverse-metric factors 1/2 and -3 fold with the product's rationals
    path = tmp_path / "metric.jv"
    path.write_text(
        "vars t, x\nmetric diag(2, -1/3)\nparams m\nfield u[1..2]\n"
        "lagrangian 1/2 * d(u[i];mu)*d(u[i];mu) - 3/4 * m * u[i]*u[i]\n"
    )
    code, text = run("el", str(path))
    assert (code, text) == (0, "".join(
        f"EL[u[{i}]] = -3/2 * m * u[{i}] + 3 * d(d(u[{i}];x);x) - 1/2 * d(d(u[{i}];t);t)\n"
        for i in (1, 2)
    ))


def test_divergence_with_witness():
    code, text = run(
        "divergence", str(MODELS / "free.jv"), "--expr", "d(u;t)*d(d(u;t);t)", "--witness"
    )
    assert code == 0
    assert "total divergence: yes" in text
    assert "witness[t] = 1/2 * d(u;t)^2" in text


def test_divergence_false_prints_el():
    code, text = run("divergence", str(MODELS / "free.jv"), "--expr", "u*d(d(u;t);t)")
    assert code == 1
    assert "total divergence: no" in text
    assert "EL[u]" in text


def test_noether_failure_prints_residual():
    code, text = run("noether", str(MODELS / "free.jv"), "--op", "d(EL(u);t)")
    assert code == 1
    assert "residual = -m * d(d(d(u;t);t);t)" in text


def test_noether_identity_maxwell():
    code, text = run("noether", str(MODELS / "maxwell.jv"), "--op", "d(EL(A[nu]);nu)")
    assert code == 0
    assert "noether identity: yes" in text


def test_noether_is_judged_off_shell():
    # EL(A[0]) lies in the EL ideal, so only the off-shell verdict says anything
    code, text = run("noether", str(MODELS / "maxwell.jv"), "--op", "EL(A[0])")
    assert code == 1
    assert text.startswith("noether identity: no\n")
    code, _ = run("noether", str(MODELS / "maxwell.jv"), "--op", "EL(A[0])", "--max-order", "2")
    assert code == 2


_EL_OUTSIDE = "EL(...) is allowed only in gauge operators"


def test_el_outside_gauge_operators_is_a_parse_error(tmp_path):
    path = tmp_path / "el.jv"
    path.write_text("vars t\nfield u\nlagrangian EL(u)\n")
    assert run("el", str(path)) == (2, f"parse error: 3:12: {_EL_OUTSIDE}\n")
    code, text = run("divergence", str(MODELS / "free.jv"), "--expr", "EL(u)")
    assert (code, text) == (2, f"parse error: 1:1: {_EL_OUTSIDE}\n")


_LINEAR = "gauge operator terms must be linear in EL(...)"
_ONE_EL = "gauge operator terms must contain one EL(...) factor"
_RANGE = "component 5 of 'A' outside 1..3"


@pytest.mark.parametrize(
    "model, op, code, text",
    [
        ("free.jv", "u", 2, f"parse error: 1:1: {_ONE_EL}\n"),
        ("free.jv", "EL(u) + u", 2, f"parse error: 1:9: {_ONE_EL}\n"),
        ("free.jv", "EL(u)*EL(u)", 2, f"parse error: 1:1: {_LINEAR}\n"),
        ("free.jv", "EL(u) + m*d(EL(u)*EL(u);t)", 2, f"parse error: 1:9: {_LINEAR}\n"),
        ("free.jv", "(EL(u) + u)*m", 2, f"parse error: 1:1: {_ONE_EL}\n"),
        ("free.jv", "(EL(u) + 1)^2", 2, f"parse error: 1:1: {_ONE_EL}\n"),
        ("free.jv", "EL(m)", 2, "parse error: 1:4: 'm' is not a field\n"),
        ("free.jv", "m*d(EL( t );t)", 2, "parse error: 1:9: 't' is not a field\n"),
        ("yang_mills_su2.jv", "EL(A[1])", 2, "parse error: 1:1: 'A' takes 2 indices\n"),
        ("yang_mills_su2.jv", "EL(A[5,0])", 2, f"parse error: 1:6: {_RANGE}\n"),
    ],
)
def test_noether_operator_errors(model, op, code, text):
    assert run("noether", str(MODELS / model), "--op", op) == (code, text)


def test_master_commands():
    code, text = run("master", str(MODELS / "maxwell.jv"))
    assert code == 0
    assert "master equation holds in h(A)" in text
    code, _ = run("master", str(MODELS / "yang_mills_su2.jv"))
    assert code == 0


def test_symm_check():
    code, _ = run("symm", str(MODELS / "maxwell.jv"), "--q", "A[mu]=d(C;mu)")
    assert code == 0
    code, text = run("symm", str(MODELS / "free.jv"), "--q", "u=u")
    assert code == 1
    assert "pr X(L)" in text


def test_bracket_and_kt():
    code, text = run(
        "bracket", str(MODELS / "maxwell.jv"), "--f", "A*[0]*d(C;t)", "--g", "A*[0]*d(C;t)"
    )
    assert code == 0
    assert "(F,G) = 0" in text
    code, text = run("kt", str(MODELS / "maxwell.jv"), "--expr", "C*")
    assert code == 0
    assert "d_KT = -d(A*[0];t) - d(A*[1];x)" in text


def test_eval():
    code, text = run(
        "eval", str(MODELS / "free.jv"), "--section", "u=t^2", "--box", "t=0..1",
        "--param", "m=2",
    )
    assert code == 0
    assert "value = 4/3" in text


_EVAL = ("eval", str(MODELS / "free.jv"), "--section", "u=t^2")


@pytest.mark.parametrize("m, plain, latex", [
    ("2", "4/3", r"\frac{4}{3}"),
    ("-2", "-4/3", r"-\frac{4}{3}"),
    ("3", "2", "2"),
    ("0", "0", "0"),
])
def test_eval_prints_the_value_in_either_style(m, plain, latex):
    # --latex used to be ignored: the value always printed as plain text
    argv = (*_EVAL, "--box", "t=0..1", "--param", f"m={m}")
    assert run(*argv) == (0, f"value = {plain}\n")
    assert run(*argv, "--latex") == (0, f"value = {latex}\n")


@pytest.mark.parametrize("argv, expected", [
    (("--box", "t=0..1,t=0..2", "--param", "m=2"), (2, "parse error: box bounds 't' twice\n")),
    (("--box", "t=0..1", "--param", "m=2", "--param", "m=3"),
     (2, "parse error: parameter 'm' is bound twice\n")),
    (("--box", "t=0..1,x=0..5", "--param", "m=2"),
     (3, "error: unknown independent variable 'x'\n")),
])
def test_eval_rejects_repeated_and_unknown_bounds(argv, expected):
    # each used to print a value: the last bound or binding won, an unknown one was ignored
    assert run(*_EVAL, *argv) == expected


_U5 = "parse error: 1:3: component 5 of 'u' outside 1..3\n"


@pytest.mark.parametrize("argv, expected", [
    # out-of-range components on the left used to print "error: ..." with no position (exit 3)
    (("eval", "free_particle.jv", "--section", "u[5]=t", "--box", "t=0..1", "--param", "m=1"),
     (2, _U5)),
    (("symm", "free_particle.jv", "--q", "u[5]=1"), (2, _U5)),
    # the second --q used to replace the first: "symmetry: no" (exit 1)
    (("symm", "free.jv", "--q", "u=1", "--q", "u=u"),
     (2, "parse error: component u[] assigned twice\n")),
    (("symm", "free_particle.jv", "--q", "u[1]=1", "--q", "u[i]=u[i]"),
     (2, "parse error: component u[1] assigned twice\n")),
    (("symm", "free_particle.jv", "--q", "u[1]=1; u[1]=u[1]"),
     (2, "parse error: 1:9: component u[1] assigned twice\n")),
    # a non-field on the left used to print "error: 'm' is not a field" (exit 3)
    (("symm", "free_particle.jv", "--q", "m=1"), (2, "parse error: 1:1: 'm' is not a field\n")),
    (("eval", "free.jv", "--section", "u=t; m=1", "--box", "t=0..1", "--param", "m=1"),
     (2, "parse error: 1:6: 'm' is not a field\n")),
    # a left-side letter is checked where the right side uses it, behind a zero
    # factor too: that used to print "error: no characteristic ..." (exit 3)
    (("symm", "yang_mills_su2.jv", "--q", "A[1,mu]=A[mu,0]"),
     (2, "parse error: 1:11: component 0 of 'A' outside 1..3\n")),
    (("symm", "yang_mills_su2.jv", "--q", "A[1,mu]=A[mu,0]*0"),
     (2, "parse error: 1:11: component 0 of 'A' outside 1..3\n")),
])
def test_assignment_errors(argv, expected):
    command, model, *rest = argv
    assert run(command, str(MODELS / model), *rest) == expected


def test_assignment_letters_are_never_summed():
    # u[a]*u[a] is u[a]^2 for each component a, not a sum over a
    argv = ("symm", str(MODELS / "free_particle.jv"), "--q", "u[a]=u[a]*u[a] + t")
    terms = [f"2 * m * u[{i}] * d(u[{i}];t)^2 + m * d(u[{i}];t)" for i in (1, 2, 3)]
    assert run(*argv) == (1, f"symmetry: no\npr X(L) = {' + '.join(terms)}\n")


@pytest.mark.parametrize("lines, argv, where", [
    ("", ("divergence", "--expr", "{n}*u"), "1:1"),
    ("", ("divergence", "--expr", "u^{n}"), "1:3"),
    ("", ("divergence", "--expr", "1/{n}*u"), "1:3"),
    ("", ("divergence", "--expr", "d(u;{n})"), "1:5"),
    ("", ("divergence", "--expr", "u[{n}]"), "1:3"),
    ("metric diag({n})\n", ("el",), "2:13"),
    ("field w[1..{n}]\n", ("el",), "2:12"),
    ("ghost C ghost={n}\n", ("el",), "2:15"),
])
def test_integer_literals_too_long_to_convert(tmp_path, lines, argv, where):
    # {n} has more digits than Python 3.11 converts to an int; each of these
    # used to print "internal error: ValueError: Exceeds the limit ..." (exit 4)
    n = "1" * 5000
    model = tmp_path / "long.jv"
    model.write_text(f"vars t\n{lines.format(n=n)}field u\nlagrangian d(u;t)^2\n")
    command, *rest = argv
    assert run(command, str(model), *(arg.format(n=n) for arg in rest)) == (
        2, f"parse error: {where}: integer literal of 5000 digits is too long\n")


def _digits(n: int) -> str:
    # str(n) refuses more than 4300 digits; Decimal at a precision above n's length is exact
    with decimal.localcontext() as context:
        context.prec = 10 ** 5
        return f"{decimal.Decimal(n):f}"


_N = int("9" * 4000)


@pytest.mark.parametrize("expr, style, el", [
    ("2^20000*u", (), _digits(2 ** 20000)),
    ("2^20000*u", ("--latex",), _digits(2 ** 20000)),
    ("7^-6000*u", (), f"1/{_digits(7 ** 6000)}"),
    ("7^-6000*u", ("--latex",), f"\\frac{{1}}{{{_digits(7 ** 6000)}}}"),
    (f"(u^{_N})^{_N}", (), f"{_digits(_N ** 2)} * u^{_digits(_N ** 2 - 1)}"),
], ids=["numerator", "numerator-latex", "denominator", "denominator-latex", "exponent"])
def test_integers_of_more_than_4300_digits_are_printed(expr, style, el):
    # these reports stopped after their first line with "internal error:
    # ValueError: Exceeds the limit (4300 digits) ..." (exit 4)
    assert run("divergence", str(MODELS / "free.jv"), "--expr", expr, *style) == (
        1, f"total divergence: no\nEL[u] = {el}\n")


@pytest.mark.parametrize("argv, message", [
    (("--box", "t=0..1", "--param", "m=1e999999999"), "bad rational value in 'm=1e999999999'"),
    (("--box", "t=0..1e999999999", "--param", "m=1"),
     "bad rational bounds in 't=0..1e999999999'"),
    (("--box", "t=0..1", "--param", "m=1E3"), "bad rational value in 'm=1E3'"),
])
def test_eval_rejects_an_exponent_part(argv, message):
    # Fraction("1e999999999") builds a billion-digit integer before anything is checked
    assert run(*_EVAL, *argv) == (2, f"parse error: {message}\n")


REDUCIBLE = """vars t, x, y
field B[dim,dim]
ghost C[dim]
params m
ghost E ghost=2 parity=even
lagrangian 1/2*m*d(B[1,2];t)^2
gauge C[mu]: d(EL(B[mu,nu]);nu)
"""


def test_ghost_without_gauge_block_is_placed_at_its_name(tmp_path):
    # this used to be placed at 1:1
    model = tmp_path / "reducible.jv"
    model.write_text(REDUCIBLE)
    assert run("master", str(model)) == (2, "parse error: 5:7: ghost 'E' has no gauge block\n")


LAURENT = """vars t
params m
field u
lagrangian 1/2 * m^-1 * d(u;t)^2
"""


@pytest.mark.parametrize("m, expected", [
    ("2", (0, "value = 1/3\n")),
    ("0", (3, "error: parameter 'm' is bound to 0 but occurs with a negative exponent\n")),
])
def test_eval_binds_a_laurent_parameter(tmp_path, m, expected):
    # m^-1 used to stop every binding: "cannot substitute a parameter occurring
    # with a negative exponent" (exit 3)
    model = tmp_path / "laurent.jv"
    model.write_text(LAURENT)
    argv = ("eval", str(model), "--section", "u=t^2", "--box", "t=0..1", "--param", f"m={m}")
    assert run(*argv) == expected


def test_eval_error_names_the_first_jet_atom_in_canonical_order(tmp_path):
    # the error used to name whichever atom the set of jet atoms yielded first (A[2])
    code, source = run("models", "--emit", "maxwell", "--dim", "4")
    assert code == 0
    model = tmp_path / "maxwell4.jv"
    model.write_text(source)
    argv = ("eval", str(model), "--section", "A[3]=t", "--box", "t=0..1,x=0..1,y=0..1,z=0..1")
    assert run(*argv) == (3, "error: section does not assign field component A[0]\n")


def test_internal_fault_while_inverting_a_power_is_not_a_parse_error(monkeypatch, capsys):
    def broken(e):
        raise RuntimeError("fault")

    monkeypatch.setattr("jetvar.parser.invert_monomial", broken)
    code, text = run("divergence", str(MODELS / "free.jv"), "--expr", "m^-1")
    assert (code, text) == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: RuntimeError: fault\n"


def test_parse_error_exit_code():
    code, text = run("divergence", str(MODELS / "free.jv"), "--expr", "d(u;t")
    assert code == 2
    assert "parse error" in text


def _nested_model(tmp_path, body):
    path = tmp_path / "nested.jv"
    path.write_text(
        "vars t\nmetric diag(1)\nparams m\nfield u\n"
        f"lagrangian 1/2 * m * {body}^2\n"
    )
    return str(path)


def test_deep_nesting_is_a_parse_error(tmp_path):
    depth = 3000
    code, text = run("el", _nested_model(tmp_path, "(" * depth + "d(u;t)" + ")" * depth))
    assert code == 2
    assert text.startswith("parse error:")
    assert "nested deeper than" in text


def test_nesting_up_to_the_limit_parses(tmp_path):
    depth = _Parser.MAX_NESTING
    code, text = run("el", _nested_model(tmp_path, "d(" * depth + "u" + ";t)" * depth))
    assert code == 0
    assert text.startswith("EL[u] = m * " + "d(" * (2 * depth))
    code, text = run("el", _nested_model(tmp_path, "(" * depth + "d(u;t)" + ")" * depth))
    assert code == 2


def _def_model(tmp_path, defs, lagrangian):
    path = tmp_path / "defs.jv"
    path.write_text("vars t\nfield u\n" + "".join(defs) + f"lagrangian {lagrangian}\n")
    return str(path)


def _def_chain(tmp_path, length):
    # def f1 = f0, def f2 = f1, ...: each reference expands one more level
    defs = ["def f0 = u*u\n"] + [f"def f{i} = f{i - 1}\n" for i in range(1, length)]
    return _def_model(tmp_path, defs, f"f{length - 1}")


def test_deep_def_chain_is_a_parse_error(tmp_path):
    code, text = run("el", _def_chain(tmp_path, 150))
    assert code == 2
    assert text.startswith("parse error:")
    assert "nested deeper than" in text


def test_deeply_nested_def_bodies_are_a_parse_error(tmp_path):
    # every body is within the parser's limit; inlined, the chain is not
    def wrap(inner):
        return "(" * 90 + inner + ")" * 90

    defs = ["def g0 = " + wrap("u*u") + "\n"]
    defs += [f"def g{i} = " + wrap(f"g{i - 1}") + "\n" for i in range(1, 8)]
    code, text = run("el", _def_model(tmp_path, defs, "g7"))
    assert code == 2
    assert text.startswith("parse error:")
    assert "nested deeper than" in text


def test_def_met_again_deeper_is_a_parse_error(tmp_path):
    # f20 is first met near the top; inside the chain under f99 it lies past
    # the limit, three parentheses deeper
    defs = ["def f0 = u*u\n"] + [f"def f{i} = f{i - 1}\n" for i in range(1, 100)]
    code, text = run("el", _def_model(tmp_path, defs, "f20 + (((f99)))"))
    assert code == 2
    assert text.startswith("parse error: 5:10: expression nested deeper than")


def test_def_chain_up_to_the_limit_parses(tmp_path):
    code, text = run("el", _def_chain(tmp_path, _Parser.MAX_NESTING))
    assert (code, text) == (0, "EL[u] = 2 * u\n")
    code, _ = run("el", _def_chain(tmp_path, _Parser.MAX_NESTING + 1))
    assert code == 2


def test_only_decimal_digits_are_numbers(tmp_path):
    path = tmp_path / "digits.jv"
    path.write_text("vars t\nfield u\nlagrangian u^\u00b2\n", encoding="utf-8")
    assert run("el", str(path)) == (2, "parse error: 3:14: unexpected character '\u00b2'\n")
    # ARABIC-INDIC DIGIT TWO is a decimal digit
    path.write_text("vars t\nfield u\nlagrangian u^\u0662\n", encoding="utf-8")
    assert run("el", str(path)) == (0, "EL[u] = 2 * u\n")


@pytest.mark.parametrize(
    "lagrangian, text",
    [
        ("u * \\\n   d(u;t) * q", "parse error: 4:13: undeclared identifier 'q'\n"),
        ("u * \\\n   d(u;t)^2 \\\n + w", "parse error: 5:4: undeclared identifier 'w'\n"),
    ],
)
def test_error_positions_on_continued_lines(tmp_path, lagrangian, text):
    path = tmp_path / "continued.jv"
    path.write_text(f"vars t\nfield u\nlagrangian {lagrangian}\n")
    assert run("el", str(path)) == (2, text)


_STAR = "a trailing '*' is reserved for antifields"


@pytest.mark.parametrize(
    "model, text",
    [
        # vars, params, field, ghost and def share one set of names
        ("vars t\ndef u = t\nfield u\nlagrangian u*u\n", "3:7: duplicate declaration of 'u'"),
        ("vars t\nparams m\ndef m = 2\nfield u\nlagrangian m*u*u\n",
         "3:5: duplicate declaration of 'm'"),
        ("vars t\ndef t = 3\nfield u\nlagrangian u*u\n", "2:5: duplicate declaration of 't'"),
        ("vars t\nparams m, m\nfield u\nlagrangian u*u\n", "2:11: duplicate declaration of 'm'"),
        ("vars t, x, t\nfield u\nlagrangian u*u\n", "1:12: duplicate declaration of 't'"),
        ("vars t\nfield u\nghost u\nlagrangian u*u\n", "3:7: duplicate declaration of 'u'"),
        ("vars t\nfield u*\nlagrangian 1\n", f"2:7: 'u*': {_STAR}"),
        ("vars t\nghost C\nfield C*\nlagrangian 1\n", f"3:7: 'C*': {_STAR}"),
        ("vars t\nparams m*\nfield u\nlagrangian 1\n", f"2:8: 'm*': {_STAR}"),
    ],
)
def test_each_name_is_declared_once(tmp_path, model, text):
    path = tmp_path / "names.jv"
    path.write_text(model)
    assert run("el", str(path)) == (2, f"parse error: {text}\n")


_HEAD = "vars t, x\nfield u\nlagrangian 1/2 * d(u;mu)*d(u;mu)\n"
_LATE = "declarations must precede the lagrangian"


@pytest.mark.parametrize(
    "model, text",
    [
        (_HEAD + "metric diag(1, -1)\n", f"4:1: {_LATE}"),
        (_HEAD + "params m\n", f"4:1: {_LATE}"),
        (_HEAD + "lagrangian u*u\n", "4:1: second 'lagrangian' statement"),
        ("vars t, x\nmetric diag(1, -1)\nmetric diag(1, 1)\nfield u\nlagrangian u\n",
         "3:1: second 'metric' statement"),
        ("vars t\nfield u\nghost C\ngauge C: 0*EL(u)\nlagrangian u\nmaster u\nmaster u\n",
         "7:1: second 'master' statement"),
    ],
)
def test_statements_out_of_place_are_parse_errors(tmp_path, model, text):
    path = tmp_path / "order.jv"
    path.write_text(model)
    assert run("el", str(path)) == (2, f"parse error: {text}\n")


@pytest.mark.parametrize(
    "model, text",
    [
        ("vars t\nfield u\nghost C ghost=0\ngauge C: 0*EL(u)\nlagrangian u*u\n",
         "3:15: ghost 'C' must have ghost number >= 1"),
        ("vars t\nmetric diag(0)\nfield u\nlagrangian u*u\n",
         "2:13: metric diagonal entries must be nonzero"),
        ("vars t\nmetric diag(1, -1)\nfield u\nlagrangian u*u\n",
         "2:1: metric has 2 entries for 1 variables"),
        # this was "internal error: AttributeError: ..." (exit 4)
        ("field u[dim]\nvars t\nlagrangian u[0]\n", "1:9: 'dim' before any 'vars' statement"),
    ],
)
def test_declaration_errors_point_at_their_cause(tmp_path, model, text):
    path = tmp_path / "declarations.jv"
    path.write_text(model)
    assert run("el", str(path)) == (2, f"parse error: {text}\n")


ANTIGHOST = """vars t, x
metric diag(1, -1)
field A[dim]
field Cb parity=odd ghost=-1
field b
ghost C
def F[mu,nu] = d(A[nu];mu) - d(A[mu];nu)
lagrangian -1/4 * F[mu,nu]*F[mu,nu]
gauge C: -d(EL(A[nu]); nu)
master -1/4 * F[mu,nu]*F[mu,nu] + A*[mu] * d(C;mu) + Cb* * b
"""


@pytest.mark.parametrize("argv", [("el",), ("master",), ("kt", "--expr", "b"),
                                  ("brst", "--expr", "b")])
def test_a_field_of_negative_ghost_number_is_a_parse_error(tmp_path, argv):
    # every command stopped with "internal error: ValueError: antifield 'Cb*'
    # must have ghost number <= -1" (exit 4) when the BV extension was built
    path = tmp_path / "antighost.jv"
    path.write_text(ANTIGHOST)
    command, *rest = argv
    assert run(command, str(path), *rest) == (
        2, "parse error: 4:27: field 'Cb' must have ghost number >= 0\n")


@pytest.mark.parametrize(
    "defs, text",
    [
        ("def F = q\n", "3:9: undeclared identifier 'q'"),
        ("def F = EL(u)\n", f"3:9: {_EL_OUTSIDE}"),
        ("def F[a] = u\n", "3:5: def 'F' never uses index 'a'"),
        ("def F = G\ndef G = F\n", "4:9: def 'F' is recursive"),
    ],
)
def test_unused_defs_are_analysed(tmp_path, defs, text):
    path = tmp_path / "unused.jv"
    path.write_text(f"vars t\nfield u\n{defs}lagrangian u*u\n")
    assert run("el", str(path)) == (2, f"parse error: {text}\n")


def test_defs_of_gauge_and_master_lines_keep_their_analysis(tmp_path):
    # G is analysed as a gauge operator and K over the antifields, as the lines that use them
    source = (MODELS / "maxwell.jv").read_text()
    source = source.replace("gauge C: -d(EL(A[nu]); nu)", "def G = -d(EL(A[nu]); nu)\ngauge C: G")
    source = source.replace("master", "def K = A*[mu] * d(C;mu)\nmaster")
    path = tmp_path / "maxwell_defs.jv"
    path.write_text(source.replace("+ A*[mu] * d(C;mu)", "+ K"))
    for command in ("el", "master"):
        assert run(command, str(path)) == run(command, str(MODELS / "maxwell.jv"))


def test_usage_error_exit_code():
    code, _ = run("divergence", str(MODELS / "free.jv"))
    assert code == 2


def test_domain_error_exit_code():
    # witness construction is restricted to one independent variable
    code, text = run(
        "divergence", str(MODELS / "maxwell.jv"), "--expr", "d(A[0];t)", "--witness"
    )
    assert (code, text) == (
        3, "error: divergence witnesses are only constructed for one independent variable\n"
    )  # "total divergence: yes" used to come first, on a run that then failed


def test_zero_metric_denominator_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zero_metric.jv"
    path.write_text("vars t\nmetric diag(1/0)\nfield u\nlagrangian u*u\n")
    code, text = run("el", str(path))
    assert code == 2
    assert text.startswith("parse error: 2:")
    assert "denominator 0" in text
    assert capsys.readouterr().err == ""


def test_internal_error_is_one_line_with_its_own_exit_code(monkeypatch, capsys):
    def broken(args, out):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_el", broken)
    code, text = run("el", str(MODELS / "free.jv"))
    assert code == EXIT_INTERNAL == 4
    assert text == ""
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"


def test_models_listing_and_emit():
    code, text = run("models")
    assert code == 0
    for name in ("free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"):
        assert name in text
    code, text = run("models", "--emit", "maxwell", "--dim", "3")
    assert code == 0
    assert "vars t, x, y" in text
    # models prints model files and names, so it takes no --latex
    code, text = run("models", "--latex")
    assert (code, text) == (2, "")


@pytest.mark.parametrize("flag, value", [("--dim", "7"), ("--potential", "u[1]^4")])
def test_models_listing_takes_no_emit_flags(flag, value, capsys):
    # these used to be ignored: the listing printed with exit 0
    assert run("models", flag, value) == (2, "")
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"jetvar: error: models {flag} applies only with --emit"


FREE_PARTICLE_QUARTIC = """# non-relativistic particle in a polynomial potential
vars t
metric diag(1)
params m
field u[1..3]
lagrangian 1/2 * m * d(u[i];t) * d(u[i];t) - (u[1]^4)
"""


def test_emitted_potential_is_parsed_first():
    assert run("models", "--emit", "free_particle", "--potential", "u[1]^4") == (
        0, FREE_PARTICLE_QUARTIC)
    # a bad potential used to exit 0 with a model file that no command could read
    assert run("models", "--emit", "free_particle", "--potential", "u[1]^") == (
        2, "parse error: 6:52: unexpected ')' (expected int)\n")
    # one that parses only once spliced into "- (...)" used to exit 0 with the
    # potential u[1] - u[2]
    assert run("models", "--emit", "free_particle", "--potential", "u[1]) + (u[2]") == (
        2, "parse error: 6:51: unexpected trailing ')'\n")


def test_latex_flag():
    code, text = run("el", str(MODELS / "free.jv"), "--latex")
    assert code == 0
    assert "-m\\,u_{tt}" in text


def test_determinism():
    first = run("el", str(MODELS / "yang_mills_su2.jv"))
    second = run("el", str(MODELS / "yang_mills_su2.jv"))
    assert first == second


# -- exit-code fuzz: one to three token mutations of a shipped model or of
# one of its flag values (an expression, an assignment, a box or a parameter
# binding), run in process; every outcome is a verdict, a parse error or a
# domain error, a parse error points inside the text it read, and every EL
# system printed with exit 0 reads back to the same text

_FLAGS = {
    "free.jv": {"kt": ("--expr", "u*"), "symm": ("--q", "u=u"), "noether": ("--op", "EL(u)"),
                "eval": ("--section", "u=t^2", "--box", "t=0..1", "--param", "m=1"),
                "divergence": ("--expr", "2*u*d(u;t) + m^-1*d(u;t)*d(d(u;t);t)"),
                "brst": ("--expr", "u* * d(u;t)"),
                "bracket": ("--f", "1/2*m*d(u;t)^2", "--g", "u*")},
    "free_particle.jv": {"kt": ("--expr", "u*[1]"), "symm": ("--q", "u[i]=d(u[i];t)"),
                         "noether": ("--op", "d(EL(u[1]);t)"),
                         "eval": ("--section", "u[i]=t", "--box", "t=0..1", "--param", "m=1"),
                         "divergence": ("--expr", "u[i]*d(u[i];t)"),
                         "brst": ("--expr", "u*[1]"),
                         "bracket": ("--f", "u*[i]*d(u[i];t)", "--g", "u[1]^2")},
    "maxwell.jv": {"kt": ("--expr", "C*"), "symm": ("--q", "A[mu]=d(C;mu)"),
                   "noether": ("--op", "d(EL(A[nu]);nu)"),
                   "eval": ("--section", "A[mu]=t*x", "--box", "t=0..1,x=0..1"),
                   "divergence": ("--expr", "d(A[mu];mu)"),
                   "brst": ("--expr", "A[mu]*A*[mu]"),
                   "bracket": ("--f", "A*[mu]*d(C;mu)", "--g", "A[nu]*A[nu]")},
    "scalar_phi4.jv": {"kt": ("--expr", "phi*"), "symm": ("--q", "phi=d(phi;t)"),
                       "noether": ("--op", "EL(phi)"),
                       "eval": ("--section", "phi=t+x", "--box", "t=0..1,x=0..1",
                                "--param", "m=1", "--param", "g=2"),
                       "divergence": ("--expr", "phi*d(phi;t)"),
                       "brst": ("--expr", "phi*"),
                       "bracket": ("--f", "phi*", "--g", "m*phi^3")},
    "yang_mills_su2.jv": {"kt": ("--expr", "C*[1]"), "symm": ("--q", "A[a,mu]=d(C[a];mu)"),
                          "noether": (
                              "--op", "-d(EL(A[1,nu]);nu) - eps[1,a,c]*A[a,nu]*EL(A[c,nu])"),
                          "eval": ("--section", "A[a,mu]=t*x", "--box", "t=0..1,x=0..1"),
                          "divergence": ("--expr", "A[a,mu]*d(A[a,mu];t)"),
                          "brst": ("--expr", "A[a,mu]*A[a,mu]"),
                          "bracket": ("--f", "A*[a,mu]*d(C[a];mu)", "--g", "A[1,0]*A[2,1]")},
}
_COMMANDS = ("el", "master", "kt", "symm", "noether", "eval", "divergence", "brst", "bracket")
_MODEL_TEXTS = {name: (MODELS / name).read_text() for name in _FLAGS}
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\*?|\d+|\.\.|\S")
_POOL = sorted({tok for text in _MODEL_TEXTS.values() for tok in _TOKEN.findall(text)}
               | {tok for flags in _FLAGS.values() for argv in flags.values()
                  for value in argv[1::2] for tok in _TOKEN.findall(value)}
               | {"0", "-1", "1/0", "..", "^", "=", ";", "\\", "#"})
_POSITION = re.compile(r"parse error: (\d+)(?::(\d+))?: ")


@st.composite
def _mutated(draw, text):
    """``text`` after one to three token replacements, deletions or
    insertions, or line duplications."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("replace", "delete", "insert", "line")))
        if kind == "line":
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            text = "\n".join(lines[:i + 1] + lines[i:])
            continue
        spans = [m.span() for m in _TOKEN.finditer(text)]
        if not spans:
            continue
        start, end = draw(st.sampled_from(spans))
        token = draw(st.sampled_from(_POOL))
        if kind == "replace":
            text = text[:start] + token + text[end:]
        elif kind == "delete":
            text = text[:start] + text[end:]
        else:
            text = text[:start] + token + " " + text[start:]
    return text


def _inside(line, col, texts) -> bool:
    for text in texts:
        lines = text.split("\n")
        if 1 <= line <= len(lines) and (col is None or 1 <= col <= len(lines[line - 1]) + 1):
            return True
    return False


@settings(max_examples=1500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_with_a_verdict_or_an_error(tmp_path_factory, data):
    model = data.draw(st.sampled_from(sorted(_FLAGS)), label="model")
    command = data.draw(st.sampled_from(_COMMANDS), label="command")
    text = _MODEL_TEXTS[model]
    flags = list(_FLAGS[model].get(command, ()))
    if not flags or data.draw(st.booleans(), label="mutate the model"):
        text = data.draw(_mutated(text), label="model text")
    else:
        i = data.draw(st.sampled_from(range(1, len(flags), 2)), label="flag value")
        flags[i] = data.draw(_mutated(flags[i]), label="flag")
    if command == "divergence" and data.draw(st.booleans(), label="witness"):
        flags.append("--witness")
    path = tmp_path_factory.getbasetemp() / "fuzzed.jv"
    path.write_text(text, encoding="utf-8")
    code, out = run(command, str(path), *flags)
    assert code in (0, 1, 2, 3), out
    where = _POSITION.match(out)
    if where:
        line, col = int(where[1]), where[2] and int(where[2])
        assert _inside(line, col, [text, *flags]), out
    if command == "el" and code == 0:
        parsed = parse_model(text)
        theory = parsed.base if isinstance(parsed, BVExtension) else parsed
        for printed in out.splitlines():
            rhs = printed.split(" = ", 1)[1]
            assert format_expression(parse_expression(rhs, theory)) == rhs, printed
