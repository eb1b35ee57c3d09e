"""Property tests of the kernel's canonical order, sum accumulator, atom
invariant, substitution and powers, of its product against a reference
product and the graded laws, of the normal form of every kernel result, of
the evolutionary derivation behind prolongations, d_KT and X_F, of the
memoized derivative sweep behind partial derivatives and the Euler operator,
of the antibracket and the divergence verdict against their direct
formulas, of the printer/parser round trip, and of gauge operators read back
from their printed form."""

import functools
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jetvar import core, jetcalc  # noqa: E402
from jetvar.bv import (  # noqa: E402
    BVExtension,
    antibracket_density,
    antifield_grading,
    antifield_name,
)
from jetvar.core import (  # noqa: E402
    ANTIFIELD,
    FIELD,
    GHOST,
    JET_ROLES,
    ODD,
    PARAM,
    VAR,
    Expression,
    Generator,
    Grading,
    Monomial,
    Signature,
    homogeneous_components,
    invert_monomial,
    partial_derivative,
    substitute,
)
from jetvar.errors import GeneratorMismatchError, GradingViolationError  # noqa: E402
from jetvar.parser import parse_expression, parse_operator  # noqa: E402
from jetvar.printer import format_expression  # noqa: E402
from jetvar.theory import LocalFunctional, Theory, on_shell_reduce  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, database=None)


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
    """Strictly increasing monomial keys, no zero coefficient, and factors
    sorted: even atoms with nonzero exponents, odd atoms distinct."""
    keys = [(m.even, m.odd) for m in e.terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), keys
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


@PROPERTY
@given(data=st.data())
def test_on_shell_reduce_keeps_order_invariant(data):
    # the wave equation: every u_tt... rewrites to x-derivatives
    sig = _signature(2)
    ut = [sig.coord("u", (k,), d=("t",)) for k in (1, 2)]
    ux = [sig.coord("u", (k,), d=("x",)) for k in (1, 2)]
    lagrangian = Expression.sum(sig, [(a * a - b * b) / 2 for a, b in zip(ut, ux)])
    theory = Theory(sig, lagrangian)
    e = data.draw(expressions(sig, ("t", "x", "m", "u", "v", "psi")))
    reduced = on_shell_reduce(e, theory, 4)
    _assert_orders(reduced)
    for a in reduced.jet_atoms():
        if sig.generators[a.gen].name == "u" and a.order <= 4:
            assert a.mindex[0] < 2, a


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
    return Expression(e.sig, tuple(m for m in e.terms if e.monomial_grading(m).parity == parity))


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
        for side in ("left", "right"):
            _assert_normal(partial_derivative(a, c, side))


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
    for an odd ``c``, one sign per odd factor on the chosen side of it."""
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
    return Expression.from_terms(e.sig, out)


def _euler_reference(e: Expression, gid: int, comp: tuple, side: str) -> Expression:
    """sum over the jet atoms of one component of (-1)^|alpha| D_alpha of the
    graded partial derivative, one reference walk per atom."""
    parts = []
    for a in e.jet_atoms():
        if (a.gen, a.comp) == (gid, comp):
            term = jetcalc.apply_multi_derivative(_partial_reference(e, a, side), a.mindex)
            parts.append(-term if a.order % 2 else term)
    return Expression.sum(e.sig, parts)


# each law takes both sides of one expression, so the two memos must not mix


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_sweep_partials_equal_partial_derivative(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=5))
    if data.draw(st.booleans()):
        # a Laurent factor: the parameter with a negative exponent
        e = e * invert_monomial(sig.from_atom(sig.atom("m")) ** data.draw(st.integers(1, 2)))
    for side in ("left", "right"):
        partials = core._memo(e, core._sweep, side)
        # every atom, parameters and variables included
        assert set(partials) == e.atoms()
        for a in e.atoms() | {data.draw(atoms(sig))}:
            expected = _partial_reference(e, a, side)
            assert partials.get(a, sig.zero()) == expected, (a, side)
            assert partial_derivative(e, a, side) == expected, (a, side)
            _assert_normal(expected)


@pytest.mark.parametrize("n", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_euler_components_equal_the_per_atom_definition(n, data):
    sig = BV_SIGS[n]
    e = data.draw(expressions(sig, max_terms=5))
    for side in ("left", "right"):
        euler = jetcalc._memo(e, jetcalc._euler, side)
        assert set(euler) == {(a.gen, a.comp) for a in e.jet_atoms()}
        for gid, gen in sig.jet_generators():
            for comp in gen.components():
                expected = _euler_reference(e, gid, comp, side)
                assert jetcalc.variational_derivative(e, gen.name, comp, side) == expected
                assert euler.get((gid, comp), sig.zero()) == expected


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
def test_euler_operator_kills_total_derivatives(n, data):
    e = data.draw(expressions(BV_SIGS[n], max_terms=5))
    divergence = jetcalc.total_derivative(e, data.draw(st.integers(0, n - 1)))
    for side in ("left", "right"):
        assert not any(jetcalc._memo(divergence, jetcalc._euler, side).values())
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
    directly from the four variational derivatives."""
    vd = jetcalc.variational_derivative
    parts = []
    for (name, comp), (star, _) in bv.pairs():
        rf_phi = vd(f, name, comp, side="right")
        lg_star = vd(g, star, comp, side="left")
        if rf_phi and lg_star:
            parts.append(rf_phi * lg_star)
        rf_star = vd(f, star, comp, side="right")
        lg_phi = vd(g, name, comp, side="left")
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
def bracket_operands(draw, bv):
    """Homogeneous F and G, one a multiple of a field or ghost component and
    the other of its antifield, so that the bracket is rarely zero; each
    carries one more jet factor, of either parity."""
    sig = bv.signature
    jet = [gen.name for _, gen in sig.jet_generators()]
    ends = list(draw(st.sampled_from(bv.pairs())))
    if draw(st.booleans()):
        ends.reverse()
    return [
        sig.from_atom(sig.atom(name, comp))
        * sig.from_atom(draw(atoms(sig, jet)))
        * (draw(homogeneous(sig)) or sig.one())
        for name, comp in ends
    ]


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_antibracket_equals_the_pair_formula(n, data):
    bv = FULL_BVS[n]
    f, g = data.draw(bracket_operands(bv))
    assert antibracket_density(bv, f, g) == _pair_formula(bv, f, g)


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
    or, for an even target, sometimes times a pair of odd psi atoms."""
    if draw(st.integers(0, 4)) == 0:
        return sig.zero()
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
    replacement, raised by repeated products, in factor order."""
    sig = e.sig
    images = []
    for m in e.terms:
        acc = sig.const(m.coeff)
        factors = list(m.even) + [(a, 1) for a in m.odd]
        for a, x in factors:
            if x < 0:
                if a in bindings:
                    raise GradingViolationError("bound parameter with a negative exponent")
                acc = acc * Expression(sig, (Monomial(Fraction(1), ((a, x),), ()),))
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


def test_substitute_negative_parameter_exponents():
    sig = SIGS[1]
    m, u = sig.from_atom(sig.atom("m")), sig.coord("u", (1,))
    e = invert_monomial(m * m) * u + u * u
    # unbound, the Laurent factor is kept
    assert substitute(e, {sig.atom("u", (1,)): m}) == invert_monomial(m) + m * m
    # bound, it is an error unless an earlier factor already made the term zero
    with pytest.raises(GradingViolationError):
        substitute(e, {sig.atom("m"): sig.const(2)})
    t = sig.coord("t")
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
