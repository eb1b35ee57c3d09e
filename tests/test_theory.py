"""Theories, functionals, symmetries, Noether identities, and evaluation."""

import random
from fractions import Fraction

import pytest

from jetvar import jetcalc, theory as theory_module
from jetvar.core import (
    EVEN,
    FIELD,
    GHOST,
    ODD,
    PARAM,
    VAR,
    Expression,
    Generator,
    Grading,
    Monomial,
    Signature,
    invert_monomial,
    substitute,
)
from jetvar.errors import (
    DomainError,
    GeneratorMismatchError,
    GradingViolationError,
    InhomogeneousExpressionError,
    MissingCharacteristicError,
    NonzeroGhostNumberError,
    NotSolvableError,
    OddDensityError,
    RewriteBudgetError,
    UnboundParameterError,
    UnknownGeneratorError,
)
from jetvar.models import builtin
from jetvar.theory import (
    EvolutionaryVF,
    LocalFunctional,
    NoetherOperator,
    Section,
    Theory,
    euler_lagrange_system,
    evaluate_density,
    integrate_box_polynomial,
    integrate_on_box,
    integrate_on_box_expression,
    is_noether_identity,
    is_symmetry,
    noether_residual,
    on_shell_reduce,
)

from conftest import random_expression


def free_theory(potential=None):
    return builtin("free_particle", potential=potential).theory


class TestTheoryConstruction:
    def test_lagrangian_grading_enforced(self, mech_sig):
        with pytest.raises(GradingViolationError):
            Theory(mech_sig, mech_sig.coord("th1"))

    def test_lagrangian_signature_enforced(self, mech_sig, plane_sig):
        with pytest.raises(GeneratorMismatchError):
            Theory(mech_sig, plane_sig.coord("u"))


class TestEulerLagrangeSystem:
    def test_free_particle(self):
        theory = free_theory()
        sig = theory.signature
        m = sig.from_atom(sig.atom("m"))
        el = euler_lagrange_system(theory)
        for i in (1, 2, 3):
            assert el[("u", (i,))] == -(m * sig.coord("u", (i,), d=("t", "t")))

    def test_maxwell_matches_hand_expansion(self):
        # oracle: expand F on the 2-dimensional base by hand and apply the
        # variational derivative directly
        theory = builtin("maxwell", dim=2).theory
        sig = theory.signature
        f01 = sig.coord("A", (1,), d=("t",)) - sig.coord("A", (0,), d=("x",))
        assert theory.lagrangian == f01 * f01 * Fraction(1, 2)
        el = euler_lagrange_system(theory)
        assert el[("A", (0,))] == jetcalc.total_derivative(f01, "x")
        assert el[("A", (1,))] == -jetcalc.total_derivative(f01, "t")

    def test_scalar_field_equation(self):
        theory = builtin("scalar_phi4").theory
        sig = theory.signature
        phi = sig.coord("phi")
        m = sig.from_atom(sig.atom("m"))
        g = sig.from_atom(sig.atom("g"))
        expected = (
            -sig.coord("phi", d=("t", "t"))
            + sig.coord("phi", d=("x", "x"))
            - m * phi
            - g * phi ** 3 * Fraction(1, 6)
        )
        assert euler_lagrange_system(theory)[("phi", ())] == expected

    def test_divergence_lagrangian_annihilated(self, mech_sig):
        u = mech_sig.coord("u")
        theory = Theory(mech_sig, jetcalc.total_derivative(u * u, "t"))
        assert all(e.is_zero() for e in euler_lagrange_system(theory).values())


class TestSymmetry:
    def test_time_translation(self):
        theory = free_theory()
        sig = theory.signature
        chars = {("u", (i,)): sig.coord("u", (i,), d=("t",)) for i in (1, 2, 3)}
        assert is_symmetry(theory, EvolutionaryVF(theory, chars))

    def test_scaling_is_not_a_symmetry(self, mech):
        vf = EvolutionaryVF(mech, {("u", ()): mech.signature.coord("u")})
        assert not is_symmetry(mech, vf)

    def test_missing_characteristic(self):
        theory = free_theory()
        sig = theory.signature
        with pytest.raises(MissingCharacteristicError):
            EvolutionaryVF(theory, {("u", (1,)): sig.coord("u", (1,))})

    def test_shift_must_be_uniform(self):
        theory = free_theory()
        sig = theory.signature
        chars = {
            ("u", (1,)): sig.coord("u", (1,)),
            ("u", (2,)): sig.coord("u", (2,)) * sig.coord("u", (2,)),
            ("u", (3,)): sig.coord("u", (3,)),
        }
        # all even with ghost number 0: uniform shift (0, 0, 0) is fine
        assert EvolutionaryVF(theory, chars).shift == (0, 0, 0)

    def test_gauge_transformation_on_maxwell(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        chars = {
            ("A", (0,)): sig.coord("C", d=("t",)),
            ("A", (1,)): sig.coord("C", d=("x",)),
        }
        vf = EvolutionaryVF(bv.theory, chars)
        assert vf.shift == (1, 1, 0)
        assert is_symmetry(bv.theory, vf)
        # antisymmetry of F against the symmetric second derivatives of C
        # makes the moved density vanish identically, not just up to divergence
        moved = jetcalc.prolong_apply(vf.characteristics, bv.theory.lagrangian)
        assert moved.is_zero()


class TestNoether:
    def test_maxwell_identity(self):
        theory = builtin("maxwell", dim=2).theory
        one = theory.signature.one()
        op = NoetherOperator(
            theory,
            {("A", (0,)): {(1, 0): one}, ("A", (1,)): {(0, 1): one}},
        )
        assert noether_residual(theory, op).is_zero()
        assert is_noether_identity(theory, op)

    def test_zero_operator(self, mech):
        assert noether_residual(mech, NoetherOperator(mech, {})).is_zero()

    def test_non_field_rejected(self, mech):
        # the frontend rejects EL(m) while parsing; library callers get this check
        with pytest.raises(UnknownGeneratorError, match="'m' is not a field"):
            NoetherOperator(mech, {("m", ()): {(0,): mech.signature.one()}})

    def test_time_derivative_is_not_an_identity(self, mech):
        sig = mech.signature
        op = NoetherOperator(mech, {("u", ()): {(1,): sig.one()}})
        residual = noether_residual(mech, op)
        m = sig.from_atom(sig.atom("m"))
        assert residual == -(m * sig.coord("u", d=("t", "t", "t")))


class TestNoetherLinkage:
    def test_symmetry_density_equals_its_witness_derivative(self):
        # for a ghost-free symmetry in one base dimension, pr X(L) minus the
        # time derivative of its witness is exactly zero
        theory = builtin("free_particle").theory
        sig = theory.signature
        chars = {("u", (i,)): sig.coord("u", (i,), d=("t",)) for i in (1, 2, 3)}
        vf = EvolutionaryVF(theory, chars)
        assert is_symmetry(theory, vf)
        moved = jetcalc.prolong_apply(vf.characteristics, theory.lagrangian)
        witness = jetcalc.divergence_witness(moved)["t"]
        assert (moved - jetcalc.total_derivative(witness, "t")).is_zero()

    def test_reduction_preserves_true_identities(self, mech):
        # a vanishing residual stays zero under on-shell reduction at any order
        op = NoetherOperator(mech, {})
        residual = noether_residual(mech, op)
        for order in (2, 3, 4):
            assert on_shell_reduce(residual, mech, order).is_zero()


class TestOnShellReduce:
    def test_leading_relation(self, mech):
        sig = mech.signature
        utt = sig.coord("u", d=("t", "t"))
        assert on_shell_reduce(utt, mech, 2).is_zero()

    def test_prolonged_relation(self, mech):
        sig = mech.signature
        uttt = sig.coord("u", d=("t", "t", "t"))
        assert on_shell_reduce(uttt, mech, 3).is_zero()

    def test_irreducible(self, mech):
        ut = mech.signature.coord("u", d=("t",))
        assert on_shell_reduce(ut, mech, 4) == ut

    def test_with_potential_divides_by_mass(self, mech_sig):
        sig = mech_sig
        u, ut = sig.coord("u"), sig.coord("u", d=("t",))
        m = sig.from_atom(sig.atom("m"))
        theory = Theory(sig, m * ut * ut * Fraction(1, 2) - u ** 4)
        utt = sig.coord("u", d=("t", "t"))
        reduced = on_shell_reduce(utt, theory, 2)
        assert reduced * m == -(u ** 3) * 4

    def test_idempotent(self, mech):
        rng = random.Random(59)
        for _ in range(20):
            e = random_expression(mech.signature, rng, roles=(FIELD,))
            once = on_shell_reduce(e, mech, 3)
            assert on_shell_reduce(once, mech, 3) == once

    def test_not_solvable(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        theory = Theory(mech_sig, ut ** 3)
        with pytest.raises(NotSolvableError):
            on_shell_reduce(mech_sig.coord("u", d=("t", "t")), theory, 2)

    def test_not_solvable_on_every_call(self, plane_sig):
        # an orientation error is not kept: each call raises it again, and
        # from the first component in sorted order (u before v)
        c = plane_sig.coord
        theory = Theory(plane_sig, c("u", d=("t",)) ** 3 + c("v", d=("x",)) ** 3)
        for _ in range(2):
            with pytest.raises(NotSolvableError, match=r"EL for u\[\] "):
                on_shell_reduce(c("u"), theory, 2)

    def test_budget_guard(self, mech, monkeypatch):
        utt = mech.signature.coord("u", d=("t", "t"))
        with monkeypatch.context() as m:
            m.setattr(theory_module, "_REWRITE_BUDGET", 0)
            with pytest.raises(RewriteBudgetError):
                on_shell_reduce(utt, mech, 2)
        # the kept rules change nothing about the budget
        assert on_shell_reduce(utt, mech, 2).is_zero()
        monkeypatch.setattr(theory_module, "_REWRITE_BUDGET", 0)
        with pytest.raises(RewriteBudgetError):
            on_shell_reduce(utt, mech, 2)

    def test_orientation_and_rules_are_kept_on_the_lagrangian(self, monkeypatch):
        phi4 = builtin("scalar_phi4", dim=2).theory
        theory = Theory(phi4.signature, Expression(phi4.signature, phi4.lagrangian.terms))
        e = theory.parse("d(d(d(phi;t);t);x) * d(phi;x) + t * d(d(phi;t);t)^2 + phi")
        solved, met = [], []
        solve, rule = theory_module._solve_for_leading, theory_module._rule
        monkeypatch.setattr(theory_module, "_solve_for_leading",
                            lambda *args: solved.append(args[:2]) or solve(*args))
        monkeypatch.setattr(theory_module, "_rule",
                            lambda atom, *args: met.append(atom) or rule(atom, *args))
        first = on_shell_reduce(e, theory, 4)
        assert solved == [("phi", ())]
        assert met and len(met) == len(set(met))
        seen = len(met)
        # a second call orients nothing and derives no rule for an atom met before
        assert on_shell_reduce(e, theory, 4) == first
        assert solved == [("phi", ())] and len(met) == seen
        e2 = theory.parse("d(d(d(d(phi;t);t);x);x) + d(d(phi;t);t)")
        on_shell_reduce(e2, theory, 4)
        assert solved == [("phi", ())] and len(met) == len(set(met)) > seen


class TestIntegrateOnBox:
    def test_unit_speed_unit_action(self):
        theory = free_theory()
        sig = theory.signature
        t = sig.coord("t")
        zero = sig.zero()
        section = Section(theory, {("u", (1,)): t, ("u", (2,)): zero, ("u", (3,)): zero})
        value = integrate_on_box(
            theory.functional(theory.lagrangian), section, {"t": (0, 1)}, params={"m": 2}
        )
        assert value == 1

    def test_quadratic_section(self, mech_sig):
        sig = mech_sig
        ut = sig.coord("u", d=("t",))
        theory = Theory(sig, ut * ut)
        section = Section(theory, {("u", ()): sig.coord("t") ** 2})
        value = integrate_on_box(theory.functional(theory.lagrangian), section, {"t": (0, 1)})
        assert value == Fraction(4, 3)

    def test_degenerate_box(self, mech):
        sig = mech.signature
        section = Section(mech, {("u", ()): sig.coord("t") ** 3})
        value = integrate_on_box(
            mech.functional(mech.lagrangian), section, {"t": (Fraction(1, 2), Fraction(1, 2))},
            params={"m": 1},
        )
        assert value == 0

    def test_box_bounds_only_variables(self, mech):
        sig = mech.signature
        section = Section(mech, {("u", ()): sig.coord("t") ** 2})
        functional = mech.functional(mech.lagrangian)
        for box in ({"t": (0, 1), "x": (0, 5)}, {"t": (0, 1), "m": (0, 1)}):
            with pytest.raises(UnknownGeneratorError, match="unknown independent variable"):
                integrate_on_box(functional, section, box, params={"m": 2})
        with pytest.raises(UnknownGeneratorError, match="does not bound variable 't'"):
            integrate_on_box(functional, section, {}, params={"m": 2})

    def test_laurent_parameter_binds_to_a_nonzero_value(self, mech):
        sig = mech.signature
        m = sig.from_atom(sig.atom("m"))
        section = Section(mech, {("u", ()): sig.coord("t") ** 2})
        ut = sig.coord("u", d=("t",))
        density = invert_monomial(m * m) * ut * ut + m * sig.coord("u")
        # on [0, 1], u_t^2 = 4 t^2 integrates to 4/3 and u = t^2 to 1/3
        value = integrate_on_box(density, section, {"t": (0, 1)}, params={"m": 2})
        assert value == Fraction(4, 3) / 4 + 2 * Fraction(1, 3)
        with pytest.raises(DomainError, match="'m' is bound to 0"):
            integrate_on_box(density, section, {"t": (0, 1)}, params={"m": 0})

    def test_unbound_parameter(self, mech):
        sig = mech.signature
        section = Section(mech, {("u", ()): sig.coord("t")})
        with pytest.raises(UnboundParameterError):
            integrate_on_box(mech.functional(mech.lagrangian), section, {"t": (0, 1)})

    def test_grading_guards(self, mech_sig):
        th = mech_sig.coord("th1")
        section = Section(Theory(mech_sig, mech_sig.zero()), {})
        with pytest.raises(NonzeroGhostNumberError):
            integrate_on_box_expression(th * mech_sig.coord("th2"), section, {"t": (0, 1)})
        with pytest.raises(OddDensityError):
            integrate_on_box_expression(th, section, {"t": (0, 1)})

    def test_section_validation(self, plane_sig):
        theory = Theory(plane_sig, plane_sig.zero())
        with pytest.raises(GradingViolationError):
            Section(theory, {("psi", ()): plane_sig.coord("t")})
        with pytest.raises(GradingViolationError):
            Section(theory, {("u", ()): plane_sig.coord("u")})
        # the zero section on an odd field is fine
        Section(theory, {("psi", ()): plane_sig.zero()})
        # only a parameter takes a negative power: t^-1 cannot be built at all, so no
        # section value holds it
        with pytest.raises(GradingViolationError, match="reserved for parameters"):
            Expression(plane_sig, [Monomial(Fraction(1), ((plane_sig.atom("t"), -1),), ())])

    def test_ghost_numbered_field_takes_only_the_zero_section(self):
        sig = Signature([Generator("t", VAR), Generator("u", FIELD, grading=Grading(EVEN, 1)),
                         Generator("w", FIELD, grading=Grading(EVEN, -1))], [1])
        theory = Theory(sig, sig.coord("u") * sig.coord("w"))
        t = sig.coord("t")
        zero = Section(theory, {("u", ()): sig.zero(), ("w", ()): sig.zero()})
        assert integrate_on_box(theory.functional(theory.lagrangian), zero, {"t": (0, 1)}) == 0
        with pytest.raises(GradingViolationError, match=r"field 'u' of grading \(even, gh=1"):
            Section(theory, {("u", ()): t, ("w", ()): t})

    def test_packed_exponents_do_not_carry(self, plane_sig):
        # the t-exponent of (t^3 + x)^5 reaches 15, the bound on the digits
        # evaluate_density packs: one less and t^15 would read as t^-15 * x
        sig = plane_sig
        t, x = sig.coord("t"), sig.coord("x")
        section = Section(Theory(sig, sig.zero()), {("u", ()): t ** 3 + x})
        assert evaluate_density(sig.coord("u") ** 5, section) == (t ** 3 + x) ** 5

    def test_packed_digits_reach_their_bound(self, mech_sig):
        # u^4 on u = m^2 reaches m^8, the bound on the digits: one lower and
        # m^8 would read as m^-8; with u = m^-2 * t^5 + m^3 a Laurent factor
        # meets both signs, and jets of order above a value's degree are zero
        sig = mech_sig
        t, m, u = sig.coord("t"), sig.coord("m"), sig.coord("u")
        ut, uttt = sig.coord("u", d=("t",)), sig.coord("u", d=("t", "t", "t"))
        densities = [u ** 4, invert_monomial(m ** 3) * u ** 4, m ** 3 * u ** 4,
                     u * uttt + t * ut * ut * uttt]
        values = [m * m, invert_monomial(m * m), invert_monomial(m * m) * t ** 5 + m ** 3,
                  t ** 2 + m, sig.zero()]
        box = {"t": (Fraction(2, 3), Fraction(-1, 2))}
        theory = Theory(sig, sig.zero())
        for density in densities:
            for value in values:
                section = Section(theory, {("u", ()): value})
                jets = {a: jetcalc.apply_multi_derivative(value, a.mindex)
                        for a in density.jet_atoms()}
                expected = substitute(density, jets)
                assert evaluate_density(density, section) == expected
                assert integrate_on_box_expression(density, section, box) == \
                    integrate_box_polynomial(expected, box)
        section = Section(theory, {("u", ()): m * m})
        assert evaluate_density(u ** 4, section) == m ** 8
        assert integrate_on_box_expression(u ** 4, section, box) == m ** 8 * Fraction(-7, 6)

    def test_divergence_invariance_with_boundary_vanishing_bump(self, mech_sig):
        # adding D_t(G * bump) does not change the boxed value when bump and
        # its derivatives vanish at the box boundary
        sig = mech_sig
        t = sig.coord("t")
        u, ut = sig.coord("u"), sig.coord("u", d=("t",))
        theory = Theory(sig, ut * ut)
        bump = (t * (sig.one() - t)) ** 3
        perturbed = Theory(sig, ut * ut + jetcalc.total_derivative(u * u * bump, "t"))
        section = Section(theory, {("u", ()): t ** 2 + t})
        section2 = Section(perturbed, {("u", ()): t ** 2 + t})
        a = integrate_on_box(theory.functional(theory.lagrangian), section, {"t": (0, 1)})
        b = integrate_on_box(
            perturbed.functional(perturbed.lagrangian), section2, {"t": (0, 1)}
        )
        assert a == b


class TestLocalFunctional:
    def test_ibp_equality(self, mech_sig):
        u = mech_sig.coord("u")
        ut = mech_sig.coord("u", d=("t",))
        utt = mech_sig.coord("u", d=("t", "t"))
        theory = Theory(mech_sig, mech_sig.zero())
        assert theory.functional(u * utt) == theory.functional(-(ut * ut))
        assert not (theory.functional(ut * ut) == theory.functional(ut * ut * 2))

    def test_density_from_another_signature_rejected(self, mech, plane_sig):
        with pytest.raises(GeneratorMismatchError):
            LocalFunctional(mech, plane_sig.coord("u"))
        with pytest.raises(GeneratorMismatchError):
            mech.functional(plane_sig.coord("u"))

    def test_evaluate_density_uses_exact_jets(self, mech):
        sig = mech.signature
        section = Section(mech, {("u", ()): sig.coord("t") ** 3})
        out = evaluate_density(sig.coord("u", d=("t", "t")), section)
        assert out == sig.coord("t") * 6


def _seeded_section(theory, seed):
    """Polynomials of degree at most 2 in the base variables, one per field component."""
    sig = theory.signature
    rng = random.Random(seed)
    values = {}
    for key in theory.field_components():
        terms = []
        for _ in range(3):
            term = sig.const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                term = term * sig.coord(rng.choice(sig.variables).name)
            terms.append(term)
        values[key] = Expression.sum(sig, terms)
    return Section(theory, values)


def test_substitute_shares_products(monkeypatch):
    theory = builtin("yang_mills_su2", dim=3).theory
    section = _seeded_section(theory, 5)
    lagrangian = theory.lagrangian
    gens = theory.signature.generators
    bindings = {
        atom: jetcalc.apply_multi_derivative(section.value(gens[atom.gen].name, atom.comp),
                                             atom.mindex)
        for atom in lagrangian.jet_atoms()
    }
    expected = substitute(lagrangian, bindings)
    assert expected == evaluate_density(lagrangian, section)
    calls = []
    original = Expression.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Expression, "__mul__", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert substitute(lagrangian, bindings) == expected
        counts.append(len(calls))
    # one product chain per monomial, each starting from const(coeff), made 446
    assert counts[0] == counts[1] <= 446 // 2


def test_box_integral_stays_packed(monkeypatch):
    # from the section's values to the value a term stays one int: no jet is
    # taken through apply_multi_derivative, and only the value is normalized
    theory = builtin("yang_mills_su2", dim=3).theory
    lagrangian = theory.lagrangian
    section = _seeded_section(theory, 5)
    box = {"t": (0, 1), "x": (Fraction(-1, 2), Fraction(1, 3)), "y": (1, Fraction(5, 2))}
    gens = theory.signature.generators
    jets = {a: jetcalc.apply_multi_derivative(section.value(gens[a.gen].name, a.comp),
                                              a.mindex)
            for a in lagrangian.jet_atoms()}
    expected = integrate_box_polynomial(substitute(lagrangian, jets), box)
    assert integrate_on_box_expression(lagrangian, section, box) == expected  # plans the density
    calls = []
    derive, from_terms = jetcalc.apply_multi_derivative, Expression.from_terms
    monkeypatch.setattr(jetcalc, "apply_multi_derivative",
                        lambda *args: calls.append("derive") or derive(*args))
    monkeypatch.setattr(Expression, "from_terms",
                        staticmethod(lambda *args: calls.append("from_terms") or from_terms(*args)))
    value = integrate_on_box_expression(lagrangian, section, box)
    monkeypatch.undo()
    assert value == expected
    assert "derive" not in calls and calls.count("from_terms") <= 1


def _fresh(e):
    """A copy of ``e`` that carries no memo."""
    return Expression.from_terms(e.sig, e._nums, e.den)


def test_plan_is_built_once_per_density(monkeypatch, plane_sig):
    sig = plane_sig
    t, x, u, v = (sig.coord(name) for name in ("t", "x", "u", "v"))
    ut = sig.coord("u", d=("t",))
    # a constant, an odd monomial, and products that are zero on some sections
    small = 3 * sig.one() + sig.coord("psi") * u + u * v * v + t * ut * ut - x * v ** 3
    ym = builtin("yang_mills_su2", dim=3).theory
    cases = [
        (_fresh(small), [Section(Theory(sig, sig.zero()),
                                 {("u", ()): a, ("v", ()): b, ("psi", ()): sig.zero()})
                         for a, b in ((t, sig.zero()), (sig.zero(), x), (t + x, t * x - 1))]),
        (_fresh(ym.lagrangian), [_seeded_section(ym, seed) for seed in (5, 6, 7)]),
    ]
    calls = []
    original = theory_module._plan
    monkeypatch.setattr(theory_module, "_plan", lambda e: calls.append(e) or original(e))
    for density, sections in cases:
        values = [evaluate_density(density, section) for section in sections]
        for section, value in zip(sections, values):
            assert value == evaluate_density(_fresh(density), section)
            gens = density.sig.generators
            jets = {a: jetcalc.apply_multi_derivative(section.value(gens[a.gen].name, a.comp),
                                                      a.mindex)
                    for a in density.jet_atoms()}
            assert value == substitute(density, jets)
        assert len(set(map(str, values))) == len(sections)
        assert sum(e is density for e in calls) == 1


def _horner_case(name):
    """A density and a section for one shape of the evaluator's Horner walk.
    The parameter m is declared between the fields, so that m^-1 can stand
    inside a shared product of leading factors."""
    sig = Signature([Generator("t", VAR), Generator("x", VAR), Generator("u", FIELD),
                     Generator("m", PARAM), Generator("v", FIELD), Generator("w", FIELD)],
                    [1, -1])
    t, x, u, m, v, w = (sig.coord(n) for n in ("t", "x", "u", "m", "v", "w"))
    ut, vx = sig.coord("u", d=("t",)), sig.coord("v", d=("x",))
    one, per_m = sig.one(), invert_monomial(m)
    q = Fraction
    plain = {"u": t + x, "v": t * x - 2, "w": x ** 2 + 1}
    pruned = ut * v + ut * v * w * 3 + ut ** 2 * w - ut ** 2 + v * w
    density, values = {
        # u and u*v end where u*v*w and u*v^2*w go on
        "inner nodes": (u + u * v * 2 + u * v * w - u * v ** 2 * w, plain),
        "constant": (5 * one - 3 * u + u * v * w, plain),
        "constant alone": (q(-7, 3) * one, plain),
        # u_t is zero on u = x^2 + 1, and u itself is zero in the second case
        "zero power under a prefix": (pruned, dict(plain, u=x ** 2 + 1)),
        "zero value under a prefix": (pruned + u * w, dict(plain, u=sig.zero())),
        "negative exponent in a prefix": (
            u * per_m * v + u * per_m * w * vx - u * per_m ** 2 * w + u * m * v + x * u * per_m,
            dict(plain, v=t * m + x)),
        "denominators": (u * v + v ** 2 * w * vx + q(1, 2) * w + 7 * one,
                         {"u": t * q(1, 3), "v": x * q(1, 4) + q(1, 6), "w": t * x * q(2, 5)}),
        # v_x is zero on v = t^2 + 1, and its square stands under the live prefix u
        "zero square under a live prefix": (u * vx ** 2 * w - u * vx ** 2 + 3 * u * w + u * v,
                                            dict(plain, v=t ** 2 + 1)),
    }[name]
    theory = Theory(sig, sig.zero())
    return density, Section(theory, {(k, ()): e for k, e in values.items()})


@pytest.mark.parametrize("name", [
    "inner nodes", "constant", "constant alone", "zero power under a prefix",
    "zero value under a prefix", "negative exponent in a prefix", "denominators",
    "zero square under a live prefix",
])
def test_horner_walk_equals_substitution_of_the_jets(name):
    density, section = _horner_case(name)
    gens = density.sig.generators
    jets = {a: jetcalc.apply_multi_derivative(section.value(gens[a.gen].name, a.comp), a.mindex)
            for a in density.jet_atoms()}
    expected = substitute(density, jets)
    assert evaluate_density(density, section) == expected
    box = {"t": (Fraction(-1, 2), 1), "x": (0, Fraction(3, 4))}
    assert integrate_on_box_expression(density, section, box) == \
        integrate_box_polynomial(expected, box)


def test_horner_walk_weights_inner_nodes():
    # the shapes above reach the plan: weights at inner nodes and at the root
    *_, walk, _, _, _ = theory_module._plan(_horner_case("inner nodes")[0])
    weighted = {node for node, _, _, weight in walk if weight}
    assert {parent for _, parent, _, _ in walk} & weighted
    *_, constant, _, _ = theory_module._plan(_horner_case("constant")[0])
    assert constant == 5


def test_errors_are_not_memoized(mech_sig):
    # each call runs twice on the same density and must raise both times, with
    # the message of the first bad jet atom in canonical order
    sig = mech_sig
    th1, th2 = sig.coord("th1"), sig.coord("th2")
    u, ut = sig.coord("u"), sig.coord("u", d=("t",))
    empty = Section(Theory(sig, sig.zero()), {})
    box = {"t": (0, 1)}
    # a ghost declared before the field, so its atom is looked at first
    gsig = Signature([Generator("t", VAR), Generator("c", GHOST, grading=Grading(ODD, 1)),
                      Generator("u", FIELD)], [1])
    ghost_first = gsig.coord("c") * gsig.coord("c", d=("t",)) * gsig.coord("u")
    # u and its higher jets are read before the unassigned v
    fsig = Signature([Generator("t", VAR), Generator("u", FIELD), Generator("v", FIELD)], [1])
    ut2, ut3 = fsig.coord("u", d=("t", "t")), fsig.coord("u", d=("t", "t", "t"))
    u_first = ut2 * ut3 * fsig.coord("v") + fsig.coord("u")
    u_only = Section(Theory(fsig, fsig.zero()), {("u", ()): fsig.coord("t") ** 4})
    cases = [
        (evaluate_density, (th1 * th2, empty), UnknownGeneratorError,
         "cannot evaluate ghost coordinate 'th1' on a section"),
        (evaluate_density, (ut * ut, empty), MissingCharacteristicError,
         "section does not assign field component u[]"),
        (integrate_on_box_expression, (th1 * u, empty, box), OddDensityError,
         "cannot integrate an odd density"),
        (integrate_on_box_expression, (u + th1 * th2, empty, box), InhomogeneousExpressionError,
         "expression is not graded-homogeneous: {(even, gh=0, afn=0), (even, gh=2, afn=0)}"),
        (evaluate_density, (th1 * th2 * ut, empty), MissingCharacteristicError,
         "section does not assign field component u[]"),
        (evaluate_density, (ghost_first, Section(Theory(gsig, gsig.zero()), {})),
         UnknownGeneratorError, "cannot evaluate ghost coordinate 'c' on a section"),
        (integrate_on_box_expression, (u_first, u_only, box), MissingCharacteristicError,
         "section does not assign field component v[]"),
    ]
    for call, args, error, message in cases:
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                call(*args)
            raised.append(str(info.value))
        assert raised == [message, message]
