"""Deterministic rendering of expressions.

The plain style emits exactly the grammar the parser accepts, so
parse(format(e)) is the identity on normal forms.  The latex style is for
human consumption only.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Atom, Expression, Monomial


def _plain_atom(e_sig, atom: Atom) -> str:
    gen = e_sig.generators[atom.gen]
    text = gen.name
    if atom.comp:
        text += "[" + ",".join(str(c) for c in atom.comp) + "]"
    for pos, count in enumerate(atom.mindex):
        var = e_sig.variables[pos].name
        for _ in range(count):
            text = f"d({text};{var})"
    return text


def _plain_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _latex_atom(sig, atom: Atom) -> str:
    gen = sig.generators[atom.gen]
    name = gen.name
    star = name.endswith("*")
    if star:
        name = name[:-1]
    subs = []
    if atom.comp:
        subs.append(",".join(str(c) for c in atom.comp))
    letters = ""
    for pos, count in enumerate(atom.mindex):
        letters += sig.variables[pos].name * count
    if letters:
        subs.append(letters)
    text = name
    if star:
        text += "^{*}"
    if subs:
        text += "_{" + ",".join(subs) + "}"
    return text


def _latex_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


# per style: atom and coefficient renderers, power format, product separator
_STYLES = {
    "plain": (_plain_atom, _plain_coeff, "{}^{}", " * "),
    "latex": (_latex_atom, _latex_coeff, "{}^{{{}}}", "\\,"),
}


def _monomial(sig, m: Monomial, style) -> str:
    """A monomial without its sign, in one style."""
    atom, coeff_text, power, times = style
    factors = [atom(sig, a) if x == 1 else power.format(atom(sig, a), x) for a, x in m.even]
    factors += [atom(sig, a) for a in m.odd]
    coeff = abs(m.coeff)
    if not factors:
        return coeff_text(coeff)
    body = times.join(factors)
    return body if coeff == 1 else coeff_text(coeff) + times + body


def format_expression(e: Expression, style: str = "plain") -> str:
    """Render an expression; plain output re-parses to the same normal form."""
    if style not in _STYLES:
        raise ValueError(f"unknown style {style!r}")
    if e.is_zero():
        return "0"
    parts = []
    for i, m in enumerate(e.terms):
        body = _monomial(e.sig, m, _STYLES[style])
        if i == 0:
            parts.append("-" + body if m.coeff < 0 else body)
        else:
            parts.append(("- " if m.coeff < 0 else "+ ") + body)
    return " ".join(parts)
