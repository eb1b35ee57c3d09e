"""Property tests of the kernel's canonical order, sum accumulator, atom
invariant, substitution and powers, of its product against a reference
product and the graded laws, of the normal form of every kernel result, of
the evolutionary derivation behind prolongations, d_KT and X_F, of the
memoized derivative sweep behind partial derivatives and the Euler operator,
of right derivatives against a reference walk, of the antibracket and the
divergence verdict against their direct formulas, of the antibracket's graded
antisymmetry and Leibniz rule modulo divergences, of the packed evaluation
of densities on sections against substitution, of integer box integration
against the rational moment formula, of the fused packed evaluation and
integration against both, of parameter binding in box integrals against
rational arithmetic, of the printer/parser round trip, and of
gauge operators read back from their printed form."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from jetvar import core, jetcalc  # noqa: E402
from jetvar.bv import (  # noqa: E402
    BVExtension,
    antibracket_density,
    antifield_component,
    antifield_grading,
    antifield_name,
    hamiltonian_derivation,
)
from jetvar.core import (  # noqa: E402
    ANTIFIELD,
    FIELD,
    GHOST,
    JET_ROLES,
    ODD,
    PARAM,
    VAR,
    Atom,
    Expression,
    Generator,
    Grading,
    Monomial,
    Signature,
    homogeneous_components,
    invert_monomial,
    parity_ghost_of,
    partial_derivative,
    substitute,
)
from jetvar.errors import GeneratorMismatchError, GradingViolationError  # noqa: E402
from jetvar.parser import parse_expression, parse_operator  # noqa: E402
from jetvar.printer import format_expression  # noqa: E402
from jetvar.theory import (  # noqa: E402
    LocalFunctional,
    Section,
    Theory,
    euler_lagrange_system,
    evaluate_density,
    integrate_box_polynomial,
    integrate_on_box,
    integrate_on_box_expression,
    on_shell_reduce,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None)
# the bracket laws report their first counterexample as drawn: their operands
# carry jets up to order 7, and shrinking such a counterexample ran for minutes
BRACKET = settings(PROPERTY, phases=[Phase.explicit, Phase.reuse, Phase.generate])


def _signature(n: int) -> Signature:
    """n variables, a parameter, even fields, an odd field and an odd ghost."""
    return Signature(
        [Generator(v, VAR) for v in ("t", "x", "y")[:n]]
        + [
            Generator("m", PARAM),
            Generator("u", FIELD, ((1, 2),)),
            Generator("v", FIELD),
            Generator("psi", FIELD, grading=Grading(ODD, 0)),
            Generator("c", GHOST, ((1, 2),), grading=Grading(ODD, 1)),
        ],
        [1] + [-1] * (n - 1),
    )


SIGS = {n: _signature(n) for n in (1, 2, 3)}


def _old_atom_key(a):
    # the sort key the kernel used before atoms stored their order
    return (a.gen, a.comp, sum(a.mindex), a.mindex)


def _old_term_key(mono):
    return (
        tuple((_old_atom_key(a), x) for a, x in mono.even),
        tuple(_old_atom_key(a) for a in mono.odd),
    )


def _assert_orders(e: Expression):
    for a in e.atoms():
        assert a.order == sum(a.mindex), a


def _assert_normal(e: Expression):
    """Strictly increasing monomial keys, no zero numerator over a positive
    denominator that shares no factor with all numerators, a rational view
    that rebuilds the same expression, and factors sorted: even atoms with
    nonzero exponents, odd atoms distinct."""
    keys = [key for key, _ in e._nums]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), keys
    numerators = [c for _, c in e._nums]
    assert all(type(c) is int and c for c in numerators), numerators
    assert type(e.den) is int and e.den > 0 and math.gcd(e.den, *numerators) == 1, e.den
    assert keys == [(m.even, m.odd) for m in e.terms]
    assert Expression(e.sig, e.terms) == e
    for m in e.terms:
        assert m.coeff != 0, m
        even = [a for a, _ in m.even]
        assert all(a1 < a2 for a1, a2 in zip(even, even[1:])) and all(x for _, x in m.even), m
        assert all(a1 < a2 for a1, a2 in zip(m.odd, m.odd[1:])), m


@st.composite
def atoms(draw, sig, names=None):
    gens = [g for g in sig.generators if names is None or g.name in names]
    gen = draw(st.sampled_from(gens))
    comp = tuple(draw(st.integers(lo, hi)) for lo, hi in gen.index_ranges)
    mindex = None
    if gen.role in JET_ROLES:
        mindex = draw(st.tuples(*[st.integers(0, 3)] * sig.nvars))
    atom = sig.atom(gen.name, comp, mindex)
    if gen.role in JET_ROLES and draw(st.booleans()):
        atom = sig.shift_atom(atom, draw(st.integers(0, sig.nvars - 1)))
    return atom


coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
)


@st.composite
def expressions(draw, sig, names=None, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        term = sig.const(draw(coefficients))
        for a in draw(st.lists(atoms(sig, names), max_size=3)):
            term = term * sig.from_atom(a)
        terms.append(term)
    return functools.reduce(operator.add, terms, sig.zero())


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_native_atom_order_is_the_old_key_order(n, data):
    sig = SIGS[n]
    drawn = data.draw(st.lists(atoms(sig), max_size=12))
    assert sorted(drawn) == sorted(drawn, key=_old_atom_key)
    for a in drawn:
        assert a.order == sum(a.mindex)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_sum_equals_left_fold(n, data):
    sig = SIGS[n]
    parts = data.draw(st.lists(expressions(sig), max_size=6))
    # cancelling parts: negations and rescalings of parts already drawn
    if parts:
        for p in data.draw(st.lists(st.sampled_from(parts), max_size=3)):
            parts.append(p * data.draw(st.sampled_from([-1, Fraction(-1, 2), 2])))
    parts = data.draw(st.permutations(parts))
    total = Expression.sum(sig, parts)
    assert total == functools.reduce(operator.add, parts, sig.zero())
    assert total.terms == tuple(sorted(total.terms, key=_old_term_key))


def test_sum_edge_cases():
    sig = SIGS[1]
    assert Expression.sum(sig, []) == sig.zero()
    psi = sig.coord("psi")
    assert Expression.sum(sig, iter([psi, -psi])).is_zero()
    with pytest.raises(GeneratorMismatchError):
        Expression.sum(sig, [SIGS[2].coord("psi")])


@st.composite
def scaled_products(draw, sig):
    """A ``(scalar, factors)`` part: factors drawn from a small pool, so odd
    atoms meet again (signs, vanishing squares), the parameter with negative
    exponents, zero scalars, zero factors and empty factor lists, and scalars
    over different denominators."""
    m = sig.coord("m")
    factor = st.one_of(
        expressions(sig, max_terms=3),
        st.builds(sig.from_atom, atoms(sig, ("psi", "c"))),
        st.builds(lambda e, k: e * invert_monomial(m ** k), expressions(sig, max_terms=2),
                  st.integers(1, 3)),
        st.just(sig.zero()),
    )
    pool = draw(st.lists(factor, min_size=1, max_size=3))
    scalar = draw(st.one_of(
        st.just(Fraction(0)), coefficients, st.builds(Fraction, st.integers(-40, 40),
                                                       st.integers(1, 36))))
    return scalar, draw(st.lists(st.sampled_from(pool), max_size=4))


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_sum_of_products_equals_the_sum_of_written_products(n, data):
    sig = SIGS[n]
    parts = data.draw(st.lists(scaled_products(sig), max_size=5))
    total = Expression.sum_of_products(
        sig, [(c.numerator, c.denominator, tuple(factors)) for c, factors in parts])
    written = [functools.reduce(operator.mul, factors, sig.const(c)) for c, factors in parts]
    assert total == Expression.sum(sig, written)
    _assert_normal(total)


def test_sum_of_products_edge_cases():
    sig = SIGS[1]
    psi = sig.coord("psi")
    assert Expression.sum_of_products(sig, []) == sig.zero()
    assert Expression.sum_of_products(sig, [(3, 4, ())]) == sig.const(Fraction(3, 4))
    assert Expression.sum_of_products(sig, [(1, 1, (psi,)), (-2, 4, (psi,))]) == psi / 2
    assert Expression.sum_of_products(sig, [(1, 1, (psi, psi, sig.coord("m")))]).is_zero()
    with pytest.raises(GeneratorMismatchError):
        Expression.sum_of_products(sig, [(1, 1, (SIGS[2].coord("psi"),))])


@st.composite
def written_monomials(draw, sig):
    """A ``Monomial`` as a caller may write it: even factors shuffled and
    repeated, exponents 0, odd atoms in ``even`` with any exponent, repeated
    odd atoms, and the parameter with a negative exponent."""
    pool = draw(st.lists(atoms(sig), min_size=1, max_size=3))
    even = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 3)), max_size=4))
    even += draw(st.lists(st.tuples(st.just(sig.atom("m")), st.integers(-2, 2)), max_size=2))
    odd_pool = draw(st.lists(atoms(sig, ("psi", "c")), min_size=1, max_size=2))
    odd = draw(st.lists(st.sampled_from(odd_pool), max_size=3))
    return Monomial(draw(coefficients), tuple(draw(st.permutations(even))), tuple(odd))


def _written_reference(sig, mono) -> Expression:
    """const(coeff) times each factor's power, in the order written."""
    product = sig.const(mono.coeff)
    for a, x in mono.even + tuple((a, 1) for a in mono.odd):
        f = sig.from_atom(a)
        product = product * (f ** x if x >= 0 else invert_monomial(f ** -x))
    return product


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_constructor_is_the_product_of_the_written_factors(n, data):
    sig = SIGS[n]
    written = data.draw(st.lists(written_monomials(sig), max_size=4))
    e = Expression(sig, written)
    assert e == Expression.sum(sig, [_written_reference(sig, m) for m in written])
    _assert_normal(e)
    assert parse_expression(format_expression(e), sig) == e


@pytest.mark.parametrize("coeff", [Fraction(1), Fraction(0)])
@pytest.mark.parametrize("name, comp", [("u", (1,)), ("v", ()), ("t", ()), ("psi", ())])
def test_constructor_rejects_negative_exponents_off_parameters(name, comp, coeff):
    sig = SIGS[1]
    with pytest.raises(GradingViolationError, match="reserved for parameters"):
        Expression(sig, [Monomial(coeff, ((sig.atom(name, comp), -1),), ())])


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_total_derivative_keeps_order_invariant(n, data):
    sig = SIGS[n]
    e = data.draw(expressions(sig))
    pos = data.draw(st.integers(0, n - 1))
    d = jetcalc.total_derivative(e, pos)
    _assert_orders(d)
    assert d.max_jet_order() <= e.max_jet_order() + 1


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_substitute_keeps_order_invariant(n, data):
    sig = SIGS[n]
    e = data.draw(expressions(sig))
    even = ("t", "x", "m", "u", "v")
    bindings = {}
    for a in sorted(e.jet_atoms()):
        if sig.generators[a.gen].name in ("u", "v") and data.draw(st.booleans()):
            # u and v are even of ghost number 0, and so is every product of even atoms
            bindings[a] = data.draw(expressions(sig, even, max_terms=2))
    _assert_orders(substitute(e, bindings))


@pytest.mark.parametrize("n", [2, 3])
@PROPERTY
@given(data=st.data())
def test_on_shell_reduce_keeps_order_invariant(n, data):
    # the wave equation: every u_tt... rewrites to x-derivatives, and the rules
    # are prolonged over all n variables
    sig = SIGS[n]
    ut = [sig.coord("u", (k,), d=("t",)) for k in (1, 2)]
    ux = [sig.coord("u", (k,), d=("x",)) for k in (1, 2)]
    lagrangian = Expression.sum(sig, [(a * a - b * b) / 2 for a, b in zip(ut, ux)])
    theory = Theory(sig, lagrangian)
    names = [g.name for g in sig.variables] + ["m", "u", "v", "psi"]
    e = data.draw(expressions(sig, names))
    reduced = on_shell_reduce(e, theory, 4)
    _assert_orders(reduced)
    for a in reduced.jet_atoms():
        if sig.generators[a.gen].name == "u" and a.order <= 4:
            assert a.mindex[0] < 2, a


def _on_shell_reference(e: Expression, theory: Theory, max_order: int) -> Expression:
    """On-shell reduction as first written: on every call each nonzero EL
    component is oriented through its partial derivative by its leading atom,
    and every rule is prolonged up to ``max_order`` before the first rewrite,
    the first lead in sorted component order keeping a shared atom."""
    sig = theory.signature

    def lead_key(a):
        return (a.order, a.gen, a.comp, a.mindex)

    rules = {}
    for _, el in sorted(euler_lagrange_system(theory).items()):
        if el.is_zero():
            continue
        lead = max(el.jet_atoms(), key=lead_key)
        coeff = partial_derivative(el, lead)
        rhs = -(invert_monomial(coeff) * (el - coeff * sig.from_atom(lead)))
        reach = max(0, max_order - lead.order)
        for mindex in itertools.product(range(reach + 1), repeat=sig.nvars):
            if sum(mindex) <= reach:
                counts = tuple(a + b for a, b in zip(lead.mindex, mindex))
                shifted = Atom(lead.gen, lead.comp, sum(counts), counts)
                if shifted not in rules:
                    rules[shifted] = jetcalc.apply_multi_derivative(rhs, mindex)
    while True:
        hits = [a for a in e.jet_atoms() if a in rules]
        if not hits:
            return e
        target = max(hits, key=lead_key)
        e = substitute(e, {target: rules[target]})


def _wave_theory(n: int) -> Theory:
    """The wave equation for u[1..2] over all n variables, with the potential
    m*u[1]*u[2]^2/2."""
    sig = SIGS[n]
    u = [sig.coord("u", (k,)) for k in (1, 2)]
    parts = [u[0] * u[1] * u[1] * sig.coord("m") / -2]
    for k in (0, 1):
        for i, var in enumerate(sig.variables):
            d = sig.coord("u", (k + 1,), d=(var.name,))
            parts.append(d * d / (2 if i == 0 else -2))
    return Theory(sig, Expression.sum(sig, parts))


def _shared_lead_theory() -> Theory:
    """u_t*w_t + u_x*z_x - m*w*u - z*u^2: EL[w] solves for u_tt and EL[z] for
    u_xx, so both leads reach u_ttxx and give it different rules."""
    sig = Signature(
        [Generator("t", VAR), Generator("x", VAR), Generator("m", PARAM)]
        + [Generator(name, FIELD) for name in ("u", "w", "z")]
        + [Generator("psi", FIELD, grading=Grading(ODD, 0))],
        [1, -1],
    )
    c = sig.coord
    lagrangian = Expression.sum(sig, [
        c("u", d=("t",)) * c("w", d=("t",)), c("u", d=("x",)) * c("z", d=("x",)),
        -c("m") * c("w") * c("u"), -c("z") * c("u") * c("u"),
    ])
    return Theory(sig, lagrangian)


def _odd_theory() -> Theory:
    """u_t^2/2 + m*psi*psi_t + m*chi*chi_t + u*psi*chi: EL[psi] and EL[chi]
    solve for odd leads, whose coefficients carry the Koszul sign of a left
    derivative."""
    sig = Signature(
        [Generator("t", VAR), Generator("m", PARAM), Generator("u", FIELD)]
        + [Generator(name, FIELD, grading=Grading(ODD, 0)) for name in ("psi", "chi")],
        [1],
    )
    text = "1/2*d(u;t)^2 + m*psi*d(psi;t) + m*chi*d(chi;t) + u*psi*chi"
    return Theory(sig, parse_expression(text, sig))


# one Theory per Lagrangian for the whole session, so that calls with
# different orders meet the orientation and rules kept by earlier calls
ON_SHELL_THEORIES = {"wave2": _wave_theory(2), "wave3": _wave_theory(3),
                     "shared_lead": _shared_lead_theory(), "odd": _odd_theory()}


@pytest.mark.parametrize("lead, rule", [
    ("d(chi;t)", "1/2 * m^-1 * u * psi"),
    ("d(psi;t)", "-1/2 * m^-1 * u * chi"),
    ("d(d(u;t);t)", "psi * chi"),
])
def test_odd_leads_keep_their_rules(lead, rule):
    theory = _odd_theory()
    reduced = on_shell_reduce(parse_expression(lead, theory.signature), theory, 1)
    assert format_expression(reduced) == rule


@pytest.mark.parametrize("name", sorted(ON_SHELL_THEORIES))
@PROPERTY
@given(data=st.data())
def test_on_shell_reduce_equals_the_eager_reduction(name, data):
    # one input at several orders in a row, with a term holding a u-jet of
    # order up to 7, so that some atom is a target at one order and not another
    theory = ON_SHELL_THEORIES[name]
    sig = theory.signature
    names = [g.name for g in sig.generators if g.role != GHOST]
    e = data.draw(expressions(sig, names, max_terms=3))
    e = e + sig.from_atom(data.draw(atoms(sig, ("u",))))
    for max_order in data.draw(st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True)):
        assert on_shell_reduce(e, theory, max_order) == _on_shell_reference(e, theory, max_order)


def _bv_signature(n: int) -> Signature:
    """``_signature(n)`` with the antifields of u (odd) and of c (even, ghost -2)."""
    base = _signature(n)
    extra = []
    for name in ("u", "c"):
        gen = base.generator(name)
        grading = antifield_grading(gen.grading, gen.role)
        extra.append(Generator(antifield_name(name), ANTIFIELD, gen.index_ranges, grading))
    return Signature(list(base.generators) + extra, base.metric)


BV_SIGS = {n: _bv_signature(n) for n in (1, 2, 3)}


def _of_parity(e: Expression, parity: int) -> Expression:
    """The part of ``e`` of one parity; zero counts as either."""
    return Expression(e.sig, tuple(m for m in e.terms if len(m.odd) % 2 == parity))


def _product_reference(a: Expression, b: Expression) -> dict:
    """a*b as {(even, odd): coefficient}, sharing no code with the kernel:
    concatenate the factors, add exponents, bubble-sort the odd factors
    counting transpositions, and sum coefficients in a dict."""
    acc = {}
    for m1 in a.terms:
        for m2 in b.terms:
            exponents = {}
            for atom, x in m1.even + m2.even:
                exponents[atom] = exponents.get(atom, 0) + x
            odd = list(m1.odd + m2.odd)
            if len(set(odd)) < len(odd):
                continue  # an odd square
            sign = 1
            for i in range(len(odd)):
                for j in range(len(odd) - 1 - i):
                    if odd[j] > odd[j + 1]:
                        odd[j], odd[j + 1] = odd[j + 1], odd[j]
                        sign = -sign
            even = tuple(sorted((atom, x) for atom, x in exponents.items() if x))
            key = (even, tuple(odd))
            acc[key] = acc.get(key, 0) + sign * m1.coeff * m2.coeff
    return {key: c for key, c in acc.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_product_equals_the_reference_product(n, data):
    sig = SIGS[n]
    a, b = data.draw(expressions(sig)), data.draw(expressions(sig))
    product = a * b
    assert {(m.even, m.odd): m.coeff for m in product.terms} == _product_reference(a, b)
    _assert_normal(product)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_product_is_graded_commutative(n, data):
    sig = SIGS[n]
    pa, pb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    a = _of_parity(data.draw(expressions(sig)), pa)
    b = _of_parity(data.draw(expressions(sig)), pb)
    assert a * b == b * a * (-1 if pa and pb else 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_product_is_associative_and_distributive(n, data):
    sig = SIGS[n]
    a, b, c = (data.draw(expressions(sig, max_terms=3)) for _ in range(3))
    # c - b cancels against b in b + (c - b)
    assert (a * b) * c == a * (b * c)
    assert a * (b + (c - b)) == a * b + a * (c - b)
    assert (b + c) * a == b * a + c * a


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_every_result_is_in_normal_form(n, data):
    sig = SIGS[n]
    a, b = data.draw(expressions(sig)), data.draw(expressions(sig))
    # b + a*k - a cancels a's terms for k = 1 and merges them otherwise
    k = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
    parts = [a, b, a * k, -a]
    for e in (a + b, a - b, a - a, b + a * k - a, a * b, b * a, Expression.sum(sig, parts)):
        _assert_normal(e)
    assert (a - a).terms == ()
    chosen = data.draw(st.lists(st.sampled_from(sorted(a.atoms()) or [sig.atom("t")]),
                                unique=True, max_size=3))
    _assert_normal(substitute(a, {c: data.draw(replacements(sig, c)) for c in chosen}))
    for c in a.atoms():
        _assert_normal(partial_derivative(a, c))
    _assert_normal(a ** data.draw(st.integers(0, 3)))
    _assert_normal(jetcalc.total_derivative(a, data.draw(st.integers(0, n - 1))))


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_graded_parts_re_reduce_the_denominator(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=6)) * data.draw(coefficients)
    components = homogeneous_components(e)
    layers = [antifield_component(e, level) for level in {g.antifield for g in components}]
    for part in [*components.values(), *layers]:
        _assert_normal(part)
    assert Expression.sum(sig, components.values()) == e
    assert Expression.sum(sig, layers) == e


def test_a_part_of_a_normal_form_drops_the_shared_factor():
    sig = BV_SIGS[1]
    u, psi, star = sig.coord("u", (1,)), sig.coord("psi"), sig.coord("u*", (1,))
    e = u / 2 + psi / 3 + u * psi / 6
    assert (e.den, [c for _, c in e._nums]) == (6, [2, 3, 1])
    parts = homogeneous_components(e)
    assert [(p.den, [c for _, c in p._nums]) for p in parts.values()] == [(6, [2, 1]), (2, [1])]
    mixed = u * 4 / 3 + star * psi / 6
    assert antifield_component(mixed, 0) == u * 4 / 3
    assert (antifield_component(mixed, 0).den, antifield_component(mixed, 1).den) == (3, 6)


def _characteristics(data, sig, shift):
    """Characteristics on fields, the odd ghost and both antifields, each of
    parity (target parity + shift), so they define a derivation of parity shift."""
    targets = [
        (gen.name, comp)
        for _, gen in sig.jet_generators()
        for comp in gen.components()
    ]
    chosen = data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=4, unique=True))
    chars = {}
    for name, comp in chosen:
        parity = (sig.generator(name).grading.parity + shift) % 2
        chars[(name, comp)] = _of_parity(data.draw(expressions(sig, max_terms=3)), parity)
    return chars


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_derivation_commutes_with_total_derivatives(n, data):
    sig = BV_SIGS[n]
    chars = _characteristics(data, sig, data.draw(st.integers(0, 1)))
    e = data.draw(expressions(sig))
    pos = data.draw(st.integers(0, n - 1))
    lhs = jetcalc.prolong_apply(chars, jetcalc.total_derivative(e, pos))
    assert lhs == jetcalc.total_derivative(jetcalc.prolong_apply(chars, e), pos)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_derivation_obeys_graded_leibniz(n, data):
    sig = BV_SIGS[n]
    shift = data.draw(st.integers(0, 1))
    chars = _characteristics(data, sig, shift)
    parity = data.draw(st.integers(0, 1))
    a = _of_parity(data.draw(expressions(sig, max_terms=3)), parity)
    b = data.draw(expressions(sig, max_terms=3))
    sign = -1 if shift * parity else 1
    expected = jetcalc.prolong_apply(chars, a) * b + a * jetcalc.prolong_apply(chars, b) * sign
    assert jetcalc.prolong_apply(chars, a * b) == expected


def _partial_reference(e: Expression, c, side: str) -> Expression:
    """The graded partial derivative by one atom, one walk over the terms:
    for an odd ``c``, one sign per odd factor on the chosen side of it.  The
    library takes left derivatives only; ``side="right"`` is the independent
    reference that the right-derivative laws below check it against."""
    parity = e.sig.atom_grading(c).parity
    out = []
    for m in e.terms:
        if parity == ODD:
            for j, a in enumerate(m.odd):
                if a == c:
                    exposed = j if side == "left" else len(m.odd) - 1 - j
                    sign = -1 if exposed % 2 else 1
                    out.append(Monomial(m.coeff * sign, m.even, m.odd[:j] + m.odd[j + 1:]))
            continue
        for idx, (a, x) in enumerate(m.even):
            if a == c:
                rest = m.even[:idx] + ((a, x - 1),) if x != 1 else m.even[:idx]
                out.append(Monomial(m.coeff * x, rest + m.even[idx + 1:], m.odd))
    return Expression(e.sig, out)


def _euler_reference(e: Expression, gid: int, comp: tuple, side: str) -> Expression:
    """sum over the jet atoms of one component of (-1)^|alpha| D_alpha of the
    graded partial derivative, one reference walk per atom."""
    parts = []
    for a in e.jet_atoms():
        if (a.gen, a.comp) == (gid, comp):
            term = jetcalc.apply_multi_derivative(_partial_reference(e, a, side), a.mindex)
            parts.append(-term if a.order % 2 else term)
    return Expression.sum(e.sig, parts)


def _right_sign(e: Expression, gen_parity: int) -> int:
    """(-1)^(|z| (|e| + 1)): dR e/dz over dL e/dz for e homogeneous of parity |e|."""
    return -1 if gen_parity * (core.grading_of(e).parity + 1) % 2 else 1


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_sweep_partials_equal_partial_derivative(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=5))
    if data.draw(st.booleans()):
        # a Laurent factor: the parameter with a negative exponent
        e = e * invert_monomial(sig.from_atom(sig.atom("m")) ** data.draw(st.integers(1, 2)))
    partials = core._memo(e, core._sweep)
    # every atom, parameters and variables included
    assert set(partials) == e.atoms()
    for a in e.atoms() | {data.draw(atoms(sig))}:
        expected = _partial_reference(e, a, "left")
        assert partials.get(a, sig.zero()) == expected, a
        assert partial_derivative(e, a) == expected, a
        _assert_normal(expected)
    # right partials of each homogeneous part are signed left ones
    for part in homogeneous_components(e).values():
        for a in part.atoms():
            sign = _right_sign(part, sig.atom_grading(a).parity)
            assert _partial_reference(part, a, "right") == partial_derivative(part, a) * sign, a


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_euler_components_equal_the_per_atom_definition(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=5))
    euler = jetcalc._memo(e, jetcalc._euler)
    assert set(euler) == {(a.gen, a.comp) for a in e.jet_atoms()}
    for gid, gen in sig.jet_generators():
        for comp in gen.components():
            expected = _euler_reference(e, gid, comp, "left")
            assert jetcalc.variational_derivative(e, gen.name, comp) == expected
            assert euler.get((gid, comp), sig.zero()) == expected
    # right variational derivatives of each homogeneous part are signed left ones
    for part in homogeneous_components(e).values():
        for gid, comp in {(a.gen, a.comp) for a in part.jet_atoms()}:
            gen = sig.generators[gid]
            left = jetcalc.variational_derivative(part, gen.name, comp)
            sign = _right_sign(part, gen.grading.parity)
            assert _euler_reference(part, gid, comp, "right") == left * sign


@pytest.mark.parametrize("n", [2, 3])
@PROPERTY
@given(data=st.data())
def test_total_derivatives_commute(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=5))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    d = jetcalc.total_derivative
    assert d(d(e, i), j) == d(d(e, j), i)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_total_derivative_obeys_the_chain_rule(n, data):
    # D_i e = sum over jet atoms a of D_i a * dL e/da, plus de/dx_i, with
    # parameters constant; built from the sweep's partials and products only,
    # so the Koszul sign of D_i a's place is checked apart from jetcalc
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=4))
    # terms of up to three odd factors
    e = e + data.draw(expressions(sig, ("psi", "c", antifield_name("u")), max_terms=2))
    i = data.draw(st.integers(0, n - 1))
    expected = partial_derivative(e, sig.atom(sig.variables[i].name))
    for a in e.jet_atoms():
        expected = expected + sig.from_atom(sig.shift_atom(a, i)) * partial_derivative(e, a)
    assert jetcalc.total_derivative(e, i) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_euler_operator_kills_total_derivatives(n, data):
    e = data.draw(expressions(BV_SIGS[n], max_terms=5))
    divergence = jetcalc.total_derivative(e, data.draw(st.integers(0, n - 1)))
    assert not any(jetcalc._memo(divergence, jetcalc._euler).values())
    for gid, comp in {(a.gen, a.comp) for a in divergence.jet_atoms()}:
        assert not _euler_reference(divergence, gid, comp, "right")
    assert jetcalc.is_total_divergence(divergence)


def _full_bv(n: int) -> BVExtension:
    """``_signature(n)`` with an antifield for every field and ghost: odd for
    u and v, even for psi and c."""
    base = _signature(n)
    stars = [
        Generator(antifield_name(g.name), ANTIFIELD, g.index_ranges,
                  antifield_grading(g.grading, g.role))
        for g in base.generators
        if g.role in (FIELD, GHOST)
    ]
    sig = Signature(list(base.generators) + stars, base.metric)
    theory = Theory(sig, sig.zero())
    return BVExtension(theory, theory, (), LocalFunctional(theory, sig.zero()))


FULL_BVS = {n: _full_bv(n) for n in (1, 2)}


def _pair_formula(bv: BVExtension, f: Expression, g: Expression) -> Expression:
    """The antibracket as the two-term sum over generator pairs, computed
    directly from the four variational derivatives, the right ones of f from
    the reference walk."""
    vd = jetcalc.variational_derivative
    sig = f.sig
    parts = []
    for (name, comp), (star, _) in bv.pairs():
        rf_phi = _euler_reference(f, sig.generator_id(name), comp, "right")
        lg_star = vd(g, star, comp)
        if rf_phi and lg_star:
            parts.append(rf_phi * lg_star)
        rf_star = _euler_reference(f, sig.generator_id(star), comp, "right")
        lg_phi = vd(g, name, comp)
        if rf_star and lg_phi:
            parts.append(-(rf_star * lg_phi))
    return Expression.sum(f.sig, parts)


def _divergence_by_target(e: Expression) -> bool:
    """The divergence verdict, one variational derivative per target in turn."""
    sig = e.sig
    for gid, comp in sorted({(a.gen, a.comp) for a in e.jet_atoms()}):
        name = sig.generators[gid].name
        if not jetcalc.variational_derivative(e, name, comp).is_zero():
            return False
    return True


@st.composite
def homogeneous(draw, sig, max_terms=2):
    """One graded-homogeneous part of a drawn expression (zero if it has none)."""
    parts = homogeneous_components(draw(expressions(sig, max_terms=max_terms)))
    if not parts:
        return sig.zero()
    return parts[draw(st.sampled_from(sorted(parts)))]


@st.composite
def first_jet_monomials(draw, sig, max_factors=2):
    """A coefficient times up to ``max_factors`` jet atoms with at most one
    derivative each: homogeneous, and low enough in order that X_F of it
    stays small."""
    jets = [gen for _, gen in sig.jet_generators()]
    term = sig.const(draw(coefficients))
    for _ in range(draw(st.integers(0, max_factors))):
        gen = draw(st.sampled_from(jets))
        comp = tuple(draw(st.integers(lo, hi)) for lo, hi in gen.index_ranges)
        d = draw(st.sampled_from([()] + [(v.name,) for v in sig.variables]))
        term = term * sig.coord(gen.name, comp, d)
    return term


@st.composite
def bracket_operands(draw, bv, small=False):
    """Homogeneous F and G, one a multiple of a field or ghost component and
    the other of its antifield, so that the bracket is rarely zero; each
    carries one more jet factor, of either parity, or with ``small`` a
    first-jet monomial instead."""
    sig = bv.signature
    jet = [gen.name for _, gen in sig.jet_generators()]
    ends = list(draw(st.sampled_from(bv.pairs())))
    if draw(st.booleans()):
        ends.reverse()
    out = []
    for name, comp in ends:
        if small:
            extra = draw(first_jet_monomials(sig))
        else:
            extra = sig.from_atom(draw(atoms(sig, jet))) * (draw(homogeneous(sig)) or sig.one())
        out.append(sig.from_atom(sig.atom(name, comp)) * extra)
    return out


@pytest.mark.parametrize("n", [1, 2])
@BRACKET
@given(data=st.data())
def test_antibracket_equals_the_pair_formula(n, data):
    bv = FULL_BVS[n]
    f, g = data.draw(bracket_operands(bv))
    assert antibracket_density(bv, f, g) == _pair_formula(bv, f, g)


def _parity(e: Expression) -> int:
    return parity_ghost_of(e)[0] if e else 0


@pytest.mark.parametrize("n", [1, 2])
@BRACKET
@given(data=st.data())
def test_antibracket_is_graded_antisymmetric(n, data):
    # (F, G) = -(-1)^((|F|+1)(|G|+1)) (G, F) modulo divergences
    bv = FULL_BVS[n]
    f, g = data.draw(bracket_operands(bv))
    sign = -1 if (_parity(f) + 1) * (_parity(g) + 1) % 2 else 1
    assert jetcalc.ibp_equal(antibracket_density(bv, f, g),
                             antibracket_density(bv, g, f) * -sign)


@pytest.mark.parametrize("n", [1, 2])
@BRACKET
@given(data=st.data())
def test_antibracket_obeys_leibniz_through_x_f(n, data):
    # (F, G*H) = X_F(G)*H + (-1)^((|F|+1)|G|) G*X_F(H) modulo divergences, and
    # X_F(G) = (F, G) modulo divergences
    bv = FULL_BVS[n]
    sig = bv.signature
    f, g = data.draw(bracket_operands(bv, small=True))
    h = data.draw(first_jet_monomials(sig, max_factors=3))
    x_g, x_h = hamiltonian_derivation(bv, f, g), hamiltonian_derivation(bv, f, h)
    sign = -1 if (_parity(f) + 1) * _parity(g) % 2 else 1
    assert jetcalc.ibp_equal(antibracket_density(bv, f, g * h), x_g * h + g * x_h * sign)
    assert jetcalc.ibp_equal(x_g, antibracket_density(bv, f, g))


@pytest.mark.parametrize("n", [1, 2])
@settings(BRACKET, max_examples=300)  # about 2 s per signature
@given(data=st.data())
def test_antibracket_obeys_graded_jacobi(n, data):
    # (F, (G, H)) = ((F, G), H) + (-1)^((|F|+1)(|G|+1)) (G, (F, H)) modulo divergences
    bv = FULL_BVS[n]
    f, g1 = data.draw(bracket_operands(bv, small=True))
    g2, h = data.draw(bracket_operands(bv, small=True))
    g = g1 * g2  # pairs with F through g1 and with H through g2, so few brackets vanish
    sign = -1 if (_parity(f) + 1) * (_parity(g) + 1) % 2 else 1
    lhs = antibracket_density(bv, f, antibracket_density(bv, g, h))
    rhs = (antibracket_density(bv, antibracket_density(bv, f, g), h)
           + antibracket_density(bv, g, antibracket_density(bv, f, h)) * sign)
    assert jetcalc.ibp_equal(lhs, rhs)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_divergence_verdict_equals_the_per_target_loop(n, data):
    sig = FULL_BVS[n].signature
    e = jetcalc.total_derivative(data.draw(expressions(sig)), data.draw(st.integers(0, n - 1)))
    e = e + data.draw(expressions(sig, max_terms=1))
    # a fresh copy, so the reference does not read the memo filled above
    assert jetcalc.is_total_divergence(e) == _divergence_by_target(Expression(sig, e.terms))


EVEN_NAMES = ("t", "x", "y", "m", "u", "v")


@st.composite
def replacements(draw, sig, atom):
    """Zero or a sum of terms homogeneous of the atom's grading: an even
    ghost-free factor times an atom of the same generator when that is odd,
    or, for an even target, sometimes times a pair of odd psi atoms.  For a
    parameter, half the nonzero draws are a nonzero constant or a parameter
    monomial, which substitute inverts where the parameter has a negative
    exponent."""
    if draw(st.integers(0, 4)) == 0:
        return sig.zero()
    if sig.generators[atom.gen].role == PARAM and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        power = sig.from_atom(atom) ** abs(k)
        return sig.const(draw(coefficients)) * (invert_monomial(power) if k < 0 else power)
    name = sig.generators[atom.gen].name
    odd = sig.atom_grading(atom).parity == ODD
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        term = draw(expressions(sig, EVEN_NAMES, max_terms=2))
        if odd:
            term = term * sig.from_atom(draw(atoms(sig, (name,))))
        elif draw(st.booleans()):
            pair = draw(st.lists(atoms(sig, ("psi",)), min_size=2, max_size=2))
            term = term * sig.from_atom(pair[0]) * sig.from_atom(pair[1])
        terms.append(term)
    return Expression.sum(sig, terms)


def _substitute_reference(e: Expression, bindings) -> Expression:
    """Substitution as first written: const(coeff) times each factor's
    replacement, raised by repeated products, in factor order.  A bound
    parameter with a negative exponent multiplies by the inverse of its
    replacement, which must be a nonzero constant or a parameter monomial;
    bound to 0, it is an error even after a zero factor."""
    sig = e.sig
    for m in e.terms:
        for a, x in m.even:
            if x < 0 and a in bindings and bindings[a].is_zero():
                raise GradingViolationError("parameter bound to 0 with a negative exponent")
    images = []
    for m in e.terms:
        acc = sig.const(m.coeff)
        factors = list(m.even) + [(a, 1) for a in m.odd]
        for a, x in factors:
            if x < 0:
                terms = bindings.get(a, sig.from_atom(a)).terms
                if len(terms) != 1 or terms[0].odd or any(
                        sig.generators[b.gen].role != PARAM for b, _ in terms[0].even):
                    raise GradingViolationError("no inverse of the replacement")
                coeff, even, _ = terms[0]
                inverse = Expression(
                    sig, (Monomial(1 / coeff, tuple((b, -y) for b, y in even), ()),))
                for _ in range(-x):
                    acc = acc * inverse
                continue
            repl = bindings.get(a, sig.from_atom(a))
            for _ in range(x):
                acc = acc * repl
            if acc.is_zero():
                break
        images.append(acc)
    return functools.reduce(operator.add, images, sig.zero())


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_substitute_equals_factor_by_factor_products(n, data):
    sig = SIGS[n]
    e = data.draw(expressions(sig))
    # Laurent terms: the parameter m with negative exponents
    m = sig.from_atom(sig.atom("m"))
    for k in data.draw(st.lists(st.integers(1, 2), max_size=2)):
        e = e + invert_monomial(m ** k) * data.draw(expressions(sig, max_terms=2))
    candidates = sorted(e.atoms()) + [data.draw(atoms(sig))]
    chosen = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
    bindings = {a: data.draw(replacements(sig, a)) for a in chosen}
    try:
        expected = _substitute_reference(e, bindings)
    except GradingViolationError:
        with pytest.raises(GradingViolationError):
            substitute(e, bindings)
        return
    got = substitute(e, bindings)
    assert got == expected
    _assert_orders(got)


@st.composite
def laurent(draw, sig, names, max_terms=4):
    """An expression over ``names`` with a factor m^-k, k in 0..2, on each term."""
    e = draw(expressions(sig, names, max_terms))
    m = sig.from_atom(sig.atom("m"))
    return Expression.sum(sig, [Expression.from_terms(sig, [item], e.den)
                                * invert_monomial(m ** draw(st.integers(0, 2)))
                                for item in e._nums])


@st.composite
def laurent_sections(draw, sig):
    """Laurent values of u[1], u[2] and v in the variables and m; psi is zero."""
    base = tuple(v.name for v in sig.variables) + ("m",)
    values = {("psi", ()): sig.zero()}
    for key in (("u", (1,)), ("u", (2,)), ("v", ())):
        values[key] = draw(laurent(sig, base, max_terms=3))
    return Section(Theory(sig, sig.zero()), values)


def _jets(density: Expression, section: Section) -> dict:
    """Each jet atom of the density bound to D_alpha of its section value."""
    gens = density.sig.generators
    return {a: jetcalc.apply_multi_derivative(section.value(gens[a.gen].name, a.comp), a.mindex)
            for a in density.jet_atoms()}


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_evaluate_density_equals_substitution_of_the_jets(n, data):
    # substitute of the section's jets is the reference for the packed evaluator
    sig = SIGS[n]
    names = tuple(v.name for v in sig.variables) + ("m", "u", "v", "psi")
    density = data.draw(laurent(sig, names))
    section = data.draw(laurent_sections(sig))
    got = evaluate_density(density, section)
    assert got == substitute(density, _jets(density, section))
    _assert_normal(got)


@st.composite
def shared_prefixes(draw, sig, names, max_terms=6):
    """Terms over one pool of at most three atoms, each times m^-k with k in
    0..1, so that many share leading factors of the evaluator's trie (the
    terms of ``laurent`` rarely do) and some end where others go on."""
    pool = draw(st.lists(atoms(sig, names), min_size=1, max_size=3, unique=True))
    m = sig.from_atom(sig.atom("m"))
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        term = sig.const(draw(coefficients))
        for a in pool:
            term = term * sig.from_atom(a) ** draw(st.integers(0, 2))
        terms.append(term * invert_monomial(m ** draw(st.integers(0, 1))))
    return Expression.sum(sig, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_evaluate_density_sums_shared_prefixes_as_substitution_does(n, data):
    # the evaluator sums each subtree of the trie once, then multiplies it by
    # its leading power: substitute of the jets is the reference
    sig = SIGS[n]
    names = tuple(v.name for v in sig.variables) + ("m", "u", "v")
    density = data.draw(shared_prefixes(sig, names))
    section = data.draw(laurent_sections(sig))
    got = evaluate_density(density, section)
    assert got == substitute(density, _jets(density, section))
    _assert_normal(got)
    box = data.draw(boxes(sig))
    assert integrate_on_box_expression(density, section, box) == integrate_box_polynomial(got, box)


def _integral_reference(e: Expression, box: dict) -> Expression:
    """Term by term with ``Fraction`` moments (hi^(k+1) - lo^(k+1)) / (k+1)
    and box lengths hi - lo."""
    sig = e.sig
    spans = {sig.generator_id(name): tuple(map(Fraction, bounds)) for name, bounds in box.items()}
    out = sig.zero()
    for mono in e.terms:
        coeff = mono.coeff
        kept = []
        for a, x in mono.even:
            if a.gen in spans:
                lo, hi = spans[a.gen]
                coeff *= (hi ** (x + 1) - lo ** (x + 1)) / (x + 1)
            else:
                kept.append((a, x))
        for gid, (lo, hi) in spans.items():
            if all(a.gen != gid for a, _ in mono.even):
                coeff *= hi - lo
        out = out + Expression(sig, (Monomial(coeff, tuple(kept), ()),))
    return out


bounds = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def boxes(draw, sig):
    """Bounds for every variable: a zero-width interval or any other, reversed
    ones (hi < lo) included."""
    box = {}
    for var in sig.variables:
        lo = draw(bounds)
        box[var.name] = (lo, draw(st.one_of(st.just(lo), bounds)))
    return box


@st.composite
def edge_boxes(draw, sig):
    """Bounds of one shape for every variable: all reversed (hi < lo), all
    of zero width, or all negative."""
    shape = draw(st.sampled_from(("reversed", "zero width", "negative")))
    box = {}
    for var in sig.variables:
        lo, hi = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
        box[var.name] = {"reversed": (hi, lo), "zero width": (lo, lo),
                         "negative": (lo - 4, hi - 4)}[shape]
    return box


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_integrate_box_polynomial_equals_the_fraction_moments(n, data):
    sig = SIGS[n]
    m = sig.from_atom(sig.atom("m"))
    names = [v.name for v in sig.variables]
    terms, top = [], 0
    for _ in range(data.draw(st.integers(0, 4))):
        term, size = sig.const(data.draw(coefficients)), 0
        for name in data.draw(st.lists(st.sampled_from(names), unique=True)):
            x = data.draw(st.integers(1, 12))
            term = term * sig.coord(name) ** x
            size += x
        k = data.draw(st.integers(-3, 3))
        term = term * (m ** k if k >= 0 else invert_monomial(m ** -k))
        terms.append(term)
        top = max(top, size + abs(k))
    # a pure power of the largest degree reads the last entry of its moment table
    terms.append(sig.coord(data.draw(st.sampled_from(names))) ** top)
    e = Expression.sum(sig, terms)
    box = data.draw(st.one_of(boxes(sig), edge_boxes(sig)))
    got = integrate_box_polynomial(e, box)
    assert got == _integral_reference(e, box)
    _assert_normal(got)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_integrate_on_box_expression_equals_the_integral_of_the_substituted_jets(n, data):
    # the evaluator's packed terms go to the integrator without an Expression between
    sig = SIGS[n]
    names = tuple(v.name for v in sig.variables) + ("m", "u", "v")
    density = data.draw(laurent(sig, names))
    section = data.draw(laurent_sections(sig))
    box = data.draw(boxes(sig))
    got = integrate_on_box_expression(density, section, box)
    assert got == _integral_reference(substitute(density, _jets(density, section)), box)
    _assert_normal(got)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_integrate_on_box_binds_a_laurent_parameter(n, data):
    # the reference reads the symbolic value's terms with Fraction arithmetic
    sig = SIGS[n]
    names = tuple(v.name for v in sig.variables) + ("m", "u", "v")
    density = data.draw(laurent(sig, names))
    section = data.draw(laurent_sections(sig))
    box = data.draw(boxes(sig))
    value = data.draw(st.one_of(st.just(Fraction(0)), bounds))
    terms = integrate_on_box_expression(density, section, box).terms
    values = {sig.atom("m"): value}
    if not value and any(x < 0 for mono in terms for _, x in mono.even):
        with pytest.raises(GradingViolationError, match="^parameter 'm' is bound to 0 but"):
            integrate_on_box(density, section, box, {"m": value})
        return
    expected = sum((mono.coeff * math.prod(values[a] ** x for a, x in mono.even)
                    for mono in terms), Fraction(0))
    assert integrate_on_box(density, section, box, {"m": value}) == expected


def test_integrate_a_high_power():
    sig = SIGS[1]
    lo, hi = Fraction(-1, 3), Fraction(2, 5)
    got = integrate_box_polynomial(sig.coord("t") ** 200, {"t": (lo, hi)})
    assert got == sig.const((hi ** 201 - lo ** 201) / 201)


def test_substitute_negative_parameter_exponents():
    sig = SIGS[1]
    m, u = sig.from_atom(sig.atom("m")), sig.coord("u", (1,))
    e = invert_monomial(m * m) * u + u * u
    # unbound, the Laurent factor is kept
    assert substitute(e, {sig.atom("u", (1,)): m}) == invert_monomial(m) + m * m
    # bound to a nonzero constant or a parameter monomial, it is inverted
    assert substitute(e, {sig.atom("m"): sig.const(2)}) == u * Fraction(1, 4) + u * u
    assert (substitute(e, {sig.atom("m"): invert_monomial(m) * 3})
            == m * m * u * Fraction(1, 9) + u * u)
    # bound to 0, it is an error, also where an earlier factor made the term zero
    t = sig.coord("t")
    for e0 in (e, invert_monomial(m) * t):
        with pytest.raises(GradingViolationError, match="^parameter 'm' is bound to 0 but"):
            substitute(e0, {sig.atom("t"): sig.zero(), sig.atom("m"): sig.zero()})
    # bound to anything else, it is an error unless an earlier factor already
    # made the term zero
    with pytest.raises(GradingViolationError, match="^cannot substitute a parameter"):
        substitute(e, {sig.atom("m"): t})
    assert substitute(invert_monomial(m) * t, {sig.atom("t"): sig.zero(), sig.atom("m"): t}) == 0


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_power_laws(n, data):
    sig = SIGS[n]
    e = data.draw(expressions(sig, max_terms=3))
    a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    assert e ** 1 is e
    assert e ** 0 == sig.one()
    assert e ** (a + b) == e ** a * e ** b
    assert e ** (a + 1) == functools.reduce(operator.mul, [e] * (a + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_parse_inverts_format(n, data):
    # odd fields, ghosts and antifields, derivatives in every variable, and
    # Laurent terms in the parameter
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig))
    m = sig.from_atom(sig.atom("m"))
    for k in data.draw(st.lists(st.integers(1, 3), max_size=2)):
        e = e + invert_monomial(m ** k) * data.draw(expressions(sig, max_terms=2))
    assert parse_expression(format_expression(e), sig) == e


_EL_KEYS = {
    n: [(g.name, c) for g in SIGS[n].generators if g.role == FIELD for c in g.components()]
    for n in (1, 2)
}


def _el_text(sig, key, mindex):
    name, comp = key
    text = f"EL({name}[{','.join(map(str, comp))}])" if comp else f"EL({name})"
    for var, k in zip(sig.variables, mindex):
        for _ in range(k):
            text = f"d({text};{var.name})"
    return text


def _nonzero(table):
    out = {}
    for key, entry in table.items():
        entry = {mindex: c for mindex, c in entry.items() if c}
        if entry:
            out[key] = entry
    return out


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_parse_operator_reads_back_a_printed_table(n, data):
    sig = SIGS[n]
    mindices = st.tuples(*[st.integers(0, 2)] * n)
    table = {}
    keys = st.lists(st.sampled_from(_EL_KEYS[n]), min_size=1, max_size=3, unique=True)
    for key in data.draw(keys):
        chosen = data.draw(st.lists(mindices, min_size=1, max_size=2, unique=True))
        table[key] = {mindex: data.draw(expressions(sig, max_terms=2)) for mindex in chosen}
    text = " + ".join(
        f"({format_expression(coeff)}) * {_el_text(sig, key, mindex)}"
        for key, entry in table.items()
        for mindex, coeff in entry.items()
    )
    assert parse_operator(text, sig) == _nonzero(table)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_operator_derivative_of_a_product_is_leibniz(n, data):
    sig = SIGS[n]
    f = data.draw(expressions(sig, max_terms=3))
    key = data.draw(st.sampled_from(_EL_KEYS[n]))
    pos = data.draw(st.integers(0, n - 1))
    x = sig.variables[pos].name
    el, ft = _el_text(sig, key, (0,) * n), format_expression(f)
    expanded = parse_operator(f"d({ft};{x})*{el} + ({ft})*d({el};{x})", sig)
    assert parse_operator(f"d(({ft})*{el};{x})", sig) == expanded
    shifted = tuple(int(i == pos) for i in range(n))
    expected = {key: {(0,) * n: jetcalc.total_derivative(f, pos), shifted: f}}
    assert expanded == _nonzero(expected)
