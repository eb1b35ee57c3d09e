"""Graded expression kernel: canonical forms, Koszul signs, gradings."""

import random
from fractions import Fraction

import pytest

from jetvar.core import (
    EVEN,
    EVEN_GRADING,
    Expression,
    Generator,
    Grading,
    ODD,
    PARAM,
    Signature,
    VAR,
    GHOST,
    grading_of,
    invert_monomial,
    is_homogeneous_of,
    parity_ghost_of,
    partial_derivative,
    substitute,
)
from jetvar.errors import (
    GeneratorMismatchError,
    GradingViolationError,
    InhomogeneousExpressionError,
    UnknownGeneratorError,
    ZeroExpressionGradingError,
)

from conftest import homogeneous_pick, random_expression


class TestConstruction:
    def test_generator_role_validation(self):
        with pytest.raises(ValueError):
            Generator("t", VAR, grading=Grading(ODD))
        with pytest.raises(ValueError):
            Generator("C", GHOST, grading=Grading(ODD, 0))
        with pytest.raises(ValueError):
            Generator("u", "gadget")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature([Generator("t", VAR), Generator("t", PARAM)], [1])

    def test_metric_must_match_variables(self):
        with pytest.raises(ValueError):
            Signature([Generator("t", VAR)], [1, -1])
        with pytest.raises(ValueError):
            Signature([Generator("t", VAR)], [0])

    def test_atom_validation(self, mech_sig):
        with pytest.raises(UnknownGeneratorError):
            mech_sig.atom("nope")
        with pytest.raises(UnknownGeneratorError):
            mech_sig.atom("u", (1,))
        with pytest.raises(UnknownGeneratorError):
            mech_sig.atom("m", mindex=(1,))


class TestArithmetic:
    def test_additive_identity(self, mech_sig):
        u = mech_sig.coord("u")
        assert u + mech_sig.zero() == u

    def test_like_terms_merge(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        assert ut * Fraction(2, 3) + ut * Fraction(1, 3) == ut

    def test_odd_anticommute(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        assert (t1 * t2 + t2 * t1).is_zero()
        assert t2 * t1 == -(t1 * t2)

    def test_odd_square_vanishes(self, mech_sig):
        th = mech_sig.coord("th1")
        assert (th * th).is_zero()

    def test_distributivity_example(self, mech_sig):
        u, ut = mech_sig.coord("u"), mech_sig.coord("u", d=("t",))
        assert (u + ut) * u == u * u + u * ut

    def test_cross_theory_mismatch(self, mech_sig, plane_sig):
        with pytest.raises(GeneratorMismatchError):
            mech_sig.coord("u") + plane_sig.coord("u")

    def test_pow_and_division(self, mech_sig):
        u = mech_sig.coord("u")
        assert u ** 3 == u * u * u
        assert (u * 4) / 2 == u * 2
        with pytest.raises(ValueError):
            u ** -1

    def test_normal_form_idempotent(self, mech_sig):
        rng = random.Random(7)
        for _ in range(100):
            e = random_expression(mech_sig, rng)
            again = Expression.from_terms(mech_sig, e.terms)
            assert again == e

    def test_graded_commutativity_random(self, mech_sig):
        rng = random.Random(11)
        for _ in range(500):
            a, ga = homogeneous_pick(mech_sig, rng, max_terms=3)
            b, gb = homogeneous_pick(mech_sig, rng, max_terms=3)
            sign = -1 if (ga.parity and gb.parity) else 1
            assert a * b == b * a * sign

    def test_associativity_distributivity_random(self, mech_sig):
        rng = random.Random(13)
        for _ in range(60):
            a = random_expression(mech_sig, rng, max_terms=3)
            b = random_expression(mech_sig, rng, max_terms=3)
            c = random_expression(mech_sig, rng, max_terms=3)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)


class TestPartialDerivative:
    def test_even_leibniz(self, mech_sig):
        u, ut = mech_sig.coord("u"), mech_sig.coord("u", d=("t",))
        assert partial_derivative(u * ut, mech_sig.atom("u", mindex=(1,))) == u

    def test_left_odd_sign(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        assert partial_derivative(t1 * t2, mech_sig.atom("th2"), "left") == -t1
        assert partial_derivative(t1 * t2, mech_sig.atom("th1"), "left") == t2

    def test_absent_variable(self, mech_sig):
        u = mech_sig.coord("u")
        assert partial_derivative(u * u, mech_sig.atom("u", mindex=(1,))).is_zero()

    def test_left_right_parity_relation(self, mech_sig):
        # for homogeneous e of parity p: d_right e = (-1)^(p+1) d_left e
        rng = random.Random(17)
        c = mech_sig.atom("th1")
        for _ in range(100):
            e, g = homogeneous_pick(mech_sig, rng)
            left = partial_derivative(e, c, "left")
            right = partial_derivative(e, c, "right")
            assert right == left * ((-1) ** (g.parity + 1))

    def test_bad_side(self, mech_sig):
        with pytest.raises(ValueError):
            partial_derivative(mech_sig.coord("u"), mech_sig.atom("u"), "middle")


class TestGrading:
    def test_ghost_product_grading(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        assert grading_of(t1 * t2) == Grading(EVEN, 2, 0)

    def test_mixed_ghost_number_rejected(self, mech_sig):
        u, th = mech_sig.coord("u"), mech_sig.coord("th1")
        with pytest.raises(InhomogeneousExpressionError) as err:
            grading_of(u + th)
        assert len(err.value.gradings) == 2

    def test_zero_has_no_grading(self, mech_sig):
        with pytest.raises(ZeroExpressionGradingError):
            grading_of(mech_sig.zero())
        assert is_homogeneous_of(mech_sig.zero(), EVEN_GRADING)

    def test_grading_additivity_random(self, mech_sig):
        rng = random.Random(19)
        for _ in range(100):
            a, ga = homogeneous_pick(mech_sig, rng, max_terms=2)
            b, gb = homogeneous_pick(mech_sig, rng, max_terms=2)
            prod = a * b
            if prod.is_zero():
                continue
            assert grading_of(prod) == ga + gb

    def test_parity_ghost_ignores_antifield_number(self, mech_sig):
        u = mech_sig.coord("u")
        assert parity_ghost_of(u + u * u) == (EVEN, 0)


class TestSubstitute:
    def test_constant_binding(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        out = substitute(ut * ut, {mech_sig.atom("u", mindex=(1,)): mech_sig.one()})
        assert out == mech_sig.one()

    def test_rebinding_to_other_coordinate(self, mech_sig):
        u, ut = mech_sig.coord("u"), mech_sig.coord("u", d=("t",))
        out = substitute(u * ut, {mech_sig.atom("u"): ut})
        assert out == ut * ut

    def test_odd_square_after_substitution(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        assert substitute(t1 * t2, {mech_sig.atom("th1"): t2}).is_zero()

    def test_grading_violation(self, mech_sig):
        u = mech_sig.coord("u")
        th = mech_sig.coord("th1")
        with pytest.raises(GradingViolationError):
            substitute(u, {mech_sig.atom("u"): th})

    def test_repeated_odd_factor_never_survives(self, mech_sig):
        rng = random.Random(23)
        th = mech_sig.atom("th1")
        for _ in range(50):
            e = random_expression(mech_sig, rng)
            squared = e * mech_sig.from_atom(th) * mech_sig.from_atom(th)
            assert squared.is_zero()


class TestParameterMonomials:
    def test_invert_monomial(self, mech_sig):
        m = mech_sig.from_atom(mech_sig.atom("m"))
        inv = invert_monomial(m * 2)
        assert inv * (m * 2) == mech_sig.one()

    def test_invert_rejects_fields(self, mech_sig):
        with pytest.raises(GradingViolationError):
            invert_monomial(mech_sig.coord("u"))
        with pytest.raises(GradingViolationError):
            invert_monomial(mech_sig.coord("u") + mech_sig.one())


class TestHomogeneousComponents:
    def test_split_and_reassemble(self, mech_sig):
        from jetvar.core import homogeneous_components

        rng = random.Random(83)
        for _ in range(50):
            e = random_expression(mech_sig, rng)
            parts = homogeneous_components(e)
            total = mech_sig.zero()
            for grading, part in parts.items():
                assert grading_of(part) == grading
                total = total + part
            assert total == e

    def test_zero_has_no_components(self, mech_sig):
        from jetvar.core import homogeneous_components

        assert homogeneous_components(mech_sig.zero()) == {}
