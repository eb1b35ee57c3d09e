"""Total derivatives, variational derivatives, and the divergence decision."""

import random
from fractions import Fraction

import pytest

from jetvar import jetcalc
from jetvar.core import FIELD, Generator, Signature
from jetvar.errors import (
    NotADivergenceError,
    UnknownGeneratorError,
    UnsupportedDimensionError,
    ZeroVariablesError,
)

from conftest import random_expression


class TestTotalDerivative:
    def test_leibniz(self, mech_sig):
        u = mech_sig.coord("u")
        ut = mech_sig.coord("u", d=("t",))
        utt = mech_sig.coord("u", d=("t", "t"))
        assert jetcalc.total_derivative(u * ut, "t") == ut * ut + u * utt

    def test_base_variable_and_parameter(self, mech_sig):
        assert jetcalc.total_derivative(mech_sig.coord("t"), "t") == mech_sig.one()
        m = mech_sig.from_atom(mech_sig.atom("m"))
        assert jetcalc.total_derivative(m, "t").is_zero()

    def test_spatial_variable_is_constant_in_time(self, plane_sig):
        x = plane_sig.coord("x")
        assert jetcalc.total_derivative(x, "t").is_zero()
        assert jetcalc.total_derivative(x, "x") == plane_sig.one()

    def test_symmetrized_mixed_derivatives(self, plane_sig):
        u = plane_sig.coord("u")
        ut = jetcalc.total_derivative(u, "t")
        assert jetcalc.total_derivative(ut, "x") == plane_sig.coord("u", d=("t", "x"))
        dxdt = jetcalc.total_derivative(jetcalc.total_derivative(u, "x"), "t")
        dtdx = jetcalc.total_derivative(jetcalc.total_derivative(u, "t"), "x")
        assert dxdt == dtdx

    def test_commutation_random(self, plane_sig):
        rng = random.Random(29)
        for _ in range(150):
            e = random_expression(plane_sig, rng, max_order=3)
            dtx = jetcalc.total_derivative(jetcalc.total_derivative(e, "t"), "x")
            dxt = jetcalc.total_derivative(jetcalc.total_derivative(e, "x"), "t")
            assert dtx == dxt

    def test_odd_chain(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        t1t = mech_sig.coord("th1", d=("t",))
        t2t = mech_sig.coord("th2", d=("t",))
        assert jetcalc.total_derivative(t1 * t2, "t") == t1t * t2 + t1 * t2t

    def test_unknown_variable(self, mech_sig):
        with pytest.raises(UnknownGeneratorError):
            jetcalc.total_derivative(mech_sig.coord("u"), "y")


class TestVariationalDerivative:
    def test_newton_equation(self, mech):
        sig = mech.signature
        m = sig.from_atom(sig.atom("m"))
        utt = sig.coord("u", d=("t", "t"))
        el = jetcalc.variational_derivative(mech.lagrangian, "u")
        assert el == -(m * utt)

    def test_annihilates_total_derivatives(self, mech_sig):
        u, ut = mech_sig.coord("u"), mech_sig.coord("u", d=("t",))
        d = jetcalc.total_derivative(u * ut, "t")
        assert jetcalc.variational_derivative(d, "u").is_zero()

    def test_annihilates_divergences_random(self, plane_sig):
        rng = random.Random(31)
        for _ in range(80):
            e = random_expression(plane_sig, rng, max_order=2)
            d = jetcalc.total_derivative(e, rng.choice(("t", "x")))
            for name in ("u", "v", "psi"):
                assert jetcalc.variational_derivative(d, name).is_zero()

    def test_left_right_variants(self, mech_sig):
        t1, t2 = mech_sig.coord("th1"), mech_sig.coord("th2")
        e = t1 * t2
        left = jetcalc.variational_derivative(e, "th2")
        assert left == -t1
        # th2 stands rightmost, so dR e/dth2 = t1: the left one times
        # (-1)^(|th2| (|e| + 1)) = -1 for even e
        assert left * (-1) ** (1 * (0 + 1)) == t1

    def test_rejects_parameters(self, mech_sig):
        with pytest.raises(UnknownGeneratorError):
            jetcalc.variational_derivative(mech_sig.coord("u"), "m")


class TestProlong:
    def test_constant_shift_of_derivative_density(self, mech):
        sig = mech.signature
        m = sig.from_atom(sig.atom("m"))
        chars = {("u", ()): m}
        out = jetcalc.prolong_apply(chars, mech.lagrangian)
        assert out.is_zero()

    def test_time_translation_chain_rule(self, mech):
        sig = mech.signature
        ut = sig.coord("u", d=("t",))
        utt = sig.coord("u", d=("t", "t"))
        m = sig.from_atom(sig.atom("m"))
        out = jetcalc.prolong_apply({("u", ()): ut}, mech.lagrangian)
        assert out == m * ut * utt

    def test_unknown_characteristic_target(self, mech):
        # names are resolved up front, even when the density never mentions them
        with pytest.raises(UnknownGeneratorError):
            jetcalc.prolong_apply({("w", ()): mech.signature.one()}, mech.lagrangian)

    def test_prolongation_is_derivation(self, plane_sig):
        rng = random.Random(37)
        q = random_expression(plane_sig, rng, max_order=1, roles=(FIELD,))
        chars = {("u", ()): q}
        for _ in range(20):
            a = random_expression(plane_sig, rng, max_terms=2, roles=(FIELD,))
            b = random_expression(plane_sig, rng, max_terms=2, roles=(FIELD,))
            lhs = jetcalc.prolong_apply(chars, a * b)
            rhs = jetcalc.prolong_apply(chars, a) * b + a * jetcalc.prolong_apply(chars, b)
            assert lhs == rhs


class TestDivergenceDecision:
    def test_explicit_witness_case(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        utt = mech_sig.coord("u", d=("t", "t"))
        assert jetcalc.is_total_divergence(ut * utt)

    def test_non_divergence(self, mech_sig):
        u = mech_sig.coord("u")
        utt = mech_sig.coord("u", d=("t", "t"))
        assert not jetcalc.is_total_divergence(u * utt)

    def test_pure_base_polynomial(self, mech_sig):
        t = mech_sig.coord("t")
        assert jetcalc.is_total_divergence(t * t)

    def test_no_variables_error(self):
        sig = Signature([Generator("u", FIELD)], [])
        with pytest.raises(ZeroVariablesError):
            jetcalc.is_total_divergence(sig.coord("u"))

    def test_random_divergences_recognized(self, plane_sig):
        rng = random.Random(41)
        for _ in range(60):
            e = random_expression(plane_sig, rng, max_order=2)
            d = jetcalc.total_derivative(e, "t") + jetcalc.total_derivative(e, "x")
            assert jetcalc.is_total_divergence(d)


class TestWitness:
    def test_kinetic_witness(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        utt = mech_sig.coord("u", d=("t", "t"))
        out = jetcalc.divergence_witness(ut * utt)
        assert out == {"t": ut * ut * Fraction(1, 2)}

    def test_energy_witness(self, mech_sig):
        # m u' u'' + u' V'(u) integrates to 1/2 m u'^2 + V(u) for V = u^3
        sig = mech_sig
        u, ut = sig.coord("u"), sig.coord("u", d=("t",))
        utt = sig.coord("u", d=("t", "t"))
        m = sig.from_atom(sig.atom("m"))
        density = m * ut * utt + ut * (u * u * 3)
        out = jetcalc.divergence_witness(density)["t"]
        assert out == m * ut * ut * Fraction(1, 2) + u ** 3
        assert jetcalc.total_derivative(out, "t") == density

    def test_witness_soundness_random(self, mech_sig):
        rng = random.Random(43)
        for _ in range(100):
            e = random_expression(mech_sig, rng, max_order=2)
            d = jetcalc.total_derivative(e, "t")
            witness = jetcalc.divergence_witness(d)["t"]
            assert jetcalc.total_derivative(witness, "t") == d

    def test_base_polynomial_witness(self, mech_sig):
        t = mech_sig.coord("t")
        out = jetcalc.divergence_witness(t * t)["t"]
        assert out == t ** 3 * Fraction(1, 3)

    def test_two_variables_unsupported(self, plane_sig):
        u = plane_sig.coord("u")
        ux = plane_sig.coord("u", d=("x",))
        with pytest.raises(UnsupportedDimensionError):
            jetcalc.divergence_witness(u * ux)

    def test_not_a_divergence(self, mech_sig):
        u = mech_sig.coord("u")
        utt = mech_sig.coord("u", d=("t", "t"))
        with pytest.raises(NotADivergenceError):
            jetcalc.divergence_witness(u * utt)


class TestIbpEqual:
    def test_integration_by_parts(self, mech_sig):
        u = mech_sig.coord("u")
        ut = mech_sig.coord("u", d=("t",))
        utt = mech_sig.coord("u", d=("t", "t"))
        assert jetcalc.ibp_equal(u * utt, -(ut * ut))

    def test_distinguishes_scalings(self, mech_sig):
        ut = mech_sig.coord("u", d=("t",))
        assert not jetcalc.ibp_equal(ut * ut * Fraction(1, 2), ut * ut)

    def test_reflexive(self, mech_sig):
        rng = random.Random(47)
        e = random_expression(mech_sig, rng)
        assert jetcalc.ibp_equal(e, e)

    def test_equivalence_relation_random(self, mech_sig):
        rng = random.Random(53)
        for _ in range(20):
            a = random_expression(mech_sig, rng, max_terms=2, max_order=1)
            b = a + jetcalc.total_derivative(
                random_expression(mech_sig, rng, max_terms=2, max_order=1), "t"
            )
            c = b + jetcalc.total_derivative(
                random_expression(mech_sig, rng, max_terms=2, max_order=1), "t"
            )
            assert jetcalc.ibp_equal(a, b)
            assert jetcalc.ibp_equal(b, c)
            assert jetcalc.ibp_equal(a, c)
