"""Cross-validation against sympy: the variational derivative against sympy's
Euler operator, box integration against ``sympy.integrate``.

Optional: runs only when sympy is importable.  sympy's euler_equations
returns an empty list when the Euler expression is constant (it filters
degenerate equations like Eq(3/2, 0)), so the constant case is checked
separately.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import Function, Rational, symbols  # noqa: E402
from sympy.calculus.euler import euler_equations  # noqa: E402

from jetvar.core import FIELD, PARAM, Generator, Signature, VAR  # noqa: E402
from jetvar import jetcalc  # noqa: E402
from jetvar.theory import integrate_box_polynomial  # noqa: E402


def test_el_matches_sympy_euler_operator():
    sig = Signature([Generator("t", VAR), Generator("u", FIELD)], [1])
    t_sym = symbols("t")
    u_fn = Function("u")(t_sym)

    def to_sympy(expr):
        return sum(
            (
                Rational(m.coeff.numerator, m.coeff.denominator)
                * sympy.prod(
                    [
                        (
                            t_sym
                            if sig.generators[a.gen].name == "t"
                            else u_fn.diff(t_sym, a.mindex[0])
                        )
                        ** x
                        for a, x in m.even
                    ]
                )
            )
            for m in expr.terms
        )

    rng = random.Random(777)
    checked = 0
    while checked < 60:
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeff = Rational(rng.randint(-5, 5), rng.randint(1, 3))
            powers = [rng.randint(0, 2) for _ in range(3)]
            tpow = rng.randint(0, 2)
            terms.append((coeff, powers, tpow))
        e = sig.zero()
        lagrangian = sympy.Integer(0)
        for coeff, (p0, p1, p2), tp in terms:
            if coeff == 0:
                continue
            term = sig.const(Fraction(int(coeff.p), int(coeff.q)))
            term = term * sig.coord("u") ** p0
            term = term * sig.coord("u", d=("t",)) ** p1
            term = term * sig.coord("u", d=("t", "t")) ** p2
            term = term * sig.coord("t") ** tp
            e = e + term
            lagrangian += (
                coeff
                * u_fn ** p0
                * u_fn.diff(t_sym) ** p1
                * u_fn.diff(t_sym, 2) ** p2
                * t_sym ** tp
            )
        if not lagrangian.has(u_fn):
            continue
        el_mine = jetcalc.variational_derivative(e, "u")
        equations = euler_equations(lagrangian, [u_fn], [t_sym])
        if equations:
            el_sympy = sympy.expand(equations[0].lhs - equations[0].rhs)
            assert sympy.expand(to_sympy(el_mine) - el_sympy) == 0
        else:
            # sympy filtered a constant equation; ours must indeed be constant
            assert not el_mine.jet_atoms()
        checked += 1


def _rational(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _sym(q: Fraction):
    return Rational(q.numerator, q.denominator)


def test_box_integration_matches_sympy():
    rng = random.Random(2024)
    for nvars in (1, 2, 3):
        names = ("t", "x", "y")[:nvars]
        sig = Signature([Generator(v, VAR) for v in names] + [Generator("m", PARAM)],
                        [1] * nvars)
        syms = symbols(names + ("m",))
        for _ in range(25):
            # exponents from a small range, so moments repeat across terms
            e = sig.zero()
            poly = sympy.Integer(0)
            for _ in range(rng.randint(1, 8)):
                c = _rational(rng, 6, 4) or Fraction(1)
                exps = [rng.randint(0, 2) for _ in range(nvars + 1)]
                term = sig.const(c)
                for name, k in zip(names + ("m",), exps):
                    term = term * sig.coord(name) ** k
                e = e + term
                poly += _sym(c) * sympy.prod([s ** k for s, k in zip(syms, exps)])
            box = {}
            for name in names:
                lo = _rational(rng, 3, 4)
                # some boxes are degenerate (zero length)
                box[name] = (lo, lo + Fraction(rng.randint(0, 4), rng.randint(1, 3)))
            got = integrate_box_polynomial(e, box)
            want = sympy.integrate(
                poly, *[(s, _sym(box[n][0]), _sym(box[n][1])) for s, n in zip(syms, names)]
            )
            got_sympy = sum(
                (
                    _sym(m.coeff) * sympy.prod([syms[-1] ** x for _, x in m.even])
                    for m in got.terms
                ),
                sympy.Integer(0),
            )
            assert sympy.expand(got_sympy - want) == 0
