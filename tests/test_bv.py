"""Field-antifield extension, antibracket, Koszul-Tate, master equation."""

import random
from fractions import Fraction

import pytest

from jetvar import core, jetcalc
from jetvar.bv import (
    antibracket,
    antibracket_density,
    antifield_component,
    brst_apply,
    check_master_equation,
    extend_to_bv,
    hamiltonian_derivation,
    koszul_tate_apply,
)
from jetvar.core import (
    ANTIFIELD,
    EVEN,
    FIELD,
    Generator,
    Grading,
    ODD,
    Signature,
    VAR,
    grading_of,
)
from jetvar.errors import (
    DuplicateGhostNameError,
    GeneratorMismatchError,
    GradingViolationError,
    InhomogeneousExpressionError,
    NotAnIdentityError,
)
from jetvar.models import builtin, model_source
from jetvar.parser import parse_model
from jetvar.theory import NoetherOperator, Theory, euler_lagrange_system, noether_residual

from conftest import homogeneous_pick


@pytest.fixture
def playground():
    """Even and odd fields with antifields, no gauge structure."""
    sig = Signature(
        [
            Generator("t", VAR),
            Generator("u", FIELD),
            Generator("psi", FIELD, grading=Grading(ODD, 0)),
        ],
        [1],
    )
    ut = sig.coord("u", d=("t",))
    return extend_to_bv(Theory(sig, ut * ut * Fraction(1, 2)), [])


class TestExtension:
    def test_antifield_gradings(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        assert sig.generator("A*").grading == Grading(ODD, -1, 1)
        assert sig.generator("C*").grading == Grading(EVEN, -2, 2)
        assert sig.generator("A*").role == ANTIFIELD

    def test_free_particle_has_only_field_antifields(self):
        bv = builtin("free_particle").bv
        names = [g.name for g in bv.signature.generators]
        assert "u*" in names
        assert not any(n.startswith("C") for n in names)
        # without gauge structure the proposal is the lagrangian itself
        assert bv.master_action.expr == bv.theory.lagrangian

    def test_maxwell_proposal_pairs_antifield_with_characteristic(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        expected = bv.theory.lagrangian
        for mu, var in enumerate(("t", "x")):
            expected = expected + sig.from_atom(sig.atom("A*", (mu,))) * sig.coord(
                "C", d=(var,)
            )
        assert bv.master_action.expr == expected

    def test_duplicate_ghost_name(self, mech):
        ghost = Generator("u", "ghost", grading=Grading(ODD, 1))
        with pytest.raises((DuplicateGhostNameError, ValueError)):
            extend_to_bv(mech, [(ghost, {(): NoetherOperator(mech, {})})])

    def test_not_an_identity_rejected(self, mech):
        sig = mech.signature
        ghost = Generator("C", "ghost", grading=Grading(ODD, 1))
        op = NoetherOperator(mech, {("u", ()): {(1,): sig.one()}})
        with pytest.raises(NotAnIdentityError) as err:
            extend_to_bv(mech, [(ghost, {(): op})])
        assert not err.value.residual.is_zero()

    def test_master_must_extend_lagrangian(self):
        bv = builtin("maxwell", dim=2).bv
        with pytest.raises(GradingViolationError):
            bv.with_master(bv.signature.zero())

    def test_antifield_component_split(self):
        bv = builtin("maxwell", dim=2).bv
        s = bv.master_action.expr
        assert antifield_component(s, 0) == bv.theory.lagrangian
        assert antifield_component(s, 0) + antifield_component(s, 1) == s


class TestAntibracket:
    def test_antifield_free_functionals_commute(self, playground):
        sig = playground.signature
        f = sig.coord("u") * sig.coord("u", d=("t",))
        g = sig.coord("psi") * sig.coord("psi", d=("t",))
        assert antibracket_density(playground, f, g).is_zero()

    def test_gauge_fixing_fermion_brackets_to_zero(self):
        # each functional depends only on C and A*, so every cross term dies
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        f = sig.from_atom(sig.atom("A*", (0,))) * sig.coord("C", d=("t",))
        g = sig.from_atom(sig.atom("A*", (1,))) * sig.coord("C", d=("x",))
        assert antibracket_density(bv, f + g, f + g).is_zero()

    def test_mismatched_extension(self, playground):
        other = builtin("maxwell", dim=2).bv
        with pytest.raises(GeneratorMismatchError):
            antibracket(playground, other.master_action, other.master_action)

    def test_inhomogeneous_rejected(self, playground):
        sig = playground.signature
        mixed = sig.coord("u") + sig.coord("psi")
        with pytest.raises(InhomogeneousExpressionError):
            antibracket_density(playground, mixed, sig.coord("u"))
        with pytest.raises(InhomogeneousExpressionError):
            antibracket_density(playground, sig.coord("u"), mixed)
        # X_F reads right derivatives as signs of left ones, so F must be homogeneous
        with pytest.raises(InhomogeneousExpressionError):
            hamiltonian_derivation(playground, mixed, sig.coord("u"))
        u = sig.coord("u")
        assert hamiltonian_derivation(playground, u * u, sig.coord("u*")) == u * 2

    def test_zero_f_has_no_characteristics(self, playground):
        sig = playground.signature
        assert hamiltonian_derivation(playground, sig.zero(), sig.coord("u*")).is_zero()
        assert antibracket_density(playground, sig.zero(), sig.coord("u*")).is_zero()

    def test_ghost_number_bookkeeping(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        f = sig.from_atom(sig.atom("A*", (0,))) * sig.coord("A", (0,))  # gh -1
        g = sig.coord("C") * sig.coord("A", (0,))  # gh +1
        out = antibracket_density(bv, f, g)
        assert not out.is_zero()
        assert grading_of(out).ghost == -1 + 1 + 1

    def test_graded_antisymmetry_random(self, playground):
        rng = random.Random(61)
        roles = (FIELD, ANTIFIELD)
        for _ in range(40):
            f, gf = homogeneous_pick(
                playground.signature, rng, max_terms=3, max_order=1, roles=roles,
                allow_base=False,
            )
            g, gg = homogeneous_pick(
                playground.signature, rng, max_terms=3, max_order=1, roles=roles,
                allow_base=False,
            )
            fg = antibracket_density(playground, f, g)
            gf_ = antibracket_density(playground, g, f)
            sign = -((-1) ** ((gf.parity + 1) * (gg.parity + 1)))
            assert jetcalc.ibp_equal(fg, gf_ * sign)

    def test_hamiltonian_derivation_realizes_the_bracket(self, playground):
        from jetvar.bv import hamiltonian_derivation

        rng = random.Random(71)
        roles = (FIELD, ANTIFIELD)
        for _ in range(30):
            f, _ = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, roles=roles,
                allow_base=False,
            )
            g, _ = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, roles=roles,
                allow_base=False,
            )
            assert jetcalc.ibp_equal(
                hamiltonian_derivation(playground, f, g),
                antibracket_density(playground, f, g),
            )

    def test_graded_leibniz_random(self, playground):
        # (F, G*H) ~ X_F(G)*H + (-1)^((pF+1) pG) G*X_F(H): the derivation
        # realization of the bracket obeys the product rule inside densities
        from jetvar.bv import hamiltonian_derivation

        rng = random.Random(73)
        roles = (FIELD, ANTIFIELD)
        for _ in range(20):
            f, gf = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            g, gg = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            h, _ = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            lhs = antibracket_density(playground, f, g * h)
            rhs = hamiltonian_derivation(playground, f, g) * h + g * hamiltonian_derivation(
                playground, f, h
            ) * ((-1) ** ((gf.parity + 1) * gg.parity))
            assert jetcalc.ibp_equal(lhs, rhs)

    def test_graded_jacobi_random(self, playground):
        rng = random.Random(67)
        roles = (FIELD, ANTIFIELD)
        for _ in range(8):
            f, gf = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            g, gg = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            h, _ = homogeneous_pick(
                playground.signature, rng, max_terms=2, max_order=1, max_factors=2,
                roles=roles, allow_base=False,
            )
            lhs = antibracket_density(playground, f, antibracket_density(playground, g, h))
            rhs = antibracket_density(playground, antibracket_density(playground, f, g), h)
            rhs = rhs + antibracket_density(
                playground, g, antibracket_density(playground, f, h)
            ) * ((-1) ** ((gf.parity + 1) * (gg.parity + 1)))
            assert jetcalc.ibp_equal(lhs, rhs)


def test_el_system_is_computed_once(monkeypatch):
    computed = []
    original = jetcalc._euler

    def counted(e):
        computed.append(e)
        return original(e)

    monkeypatch.setattr(jetcalc, "_euler", counted)
    bv = parse_model(model_source("yang_mills_su2", dim=2))
    theory = bv.base
    sig = bv.signature
    assert koszul_tate_apply(bv, sig.coord("C*", (1,)))
    assert noether_residual(theory, bv.gauge[0].operators[(1,)]).is_zero()
    # one Euler operator, of the Lagrangian, for all six components A[1..3, 0..1]
    assert computed == [theory.lagrangian]
    assert computed[0] is theory.lagrangian

    first = euler_lagrange_system(theory)
    assert sorted(first) == sorted(theory.field_components())
    assert len(first) == 6
    snapshot = dict(first)
    first[("A", (1, 0))] = theory.signature.zero()
    first.pop(("A", (2, 1)))
    assert euler_lagrange_system(theory) == snapshot
    assert len(computed) == 1
    with pytest.raises(AttributeError):
        theory.lagrangian = theory.lagrangian


def test_master_check_sweeps_each_density_once(monkeypatch):
    sweeps, walks = [], []
    sweep = jetcalc._sweep

    def counted_sweep(e):
        sweeps.append(len(e.terms))
        return sweep(e)

    def counted_walk(e, atom):
        walks.append(atom)
        return core.partial_derivative(e, atom)

    monkeypatch.setattr(jetcalc, "_sweep", counted_sweep)
    # theory takes no partial derivative: it reads the leading coefficient
    # of an EL component off its terms
    monkeypatch.setattr(jetcalc, "partial_derivative", counted_walk)
    for _ in range(2):
        bv = builtin("yang_mills_su2", dim=4).bv
        sweeps.clear()
        assert check_master_equation(bv).holds
        # S (219 terms) once for both slots of X_S and the pairing, the
        # residual (972 terms) once for its verdict
        assert sorted(sweeps) == [219, 972]
        assert walks == []
    # the Euler operator of S lives on S, so a repeat sweeps only the new residual
    sweeps.clear()
    assert check_master_equation(bv).holds
    assert sweeps == [972]


class TestKoszulTate:
    def test_antifield_maps_to_el(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        el = euler_lagrange_system(bv.base)
        for mu in (0, 1):
            out = koszul_tate_apply(bv, sig.from_atom(sig.atom("A*", (mu,))))
            assert out.terms == el[("A", (mu,))].terms

    def test_antighost_maps_to_antifield_divergence(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        out = koszul_tate_apply(bv, sig.coord("C*"))
        expected = -(
            jetcalc.total_derivative(sig.from_atom(sig.atom("A*", (0,))), "t")
            + jetcalc.total_derivative(sig.from_atom(sig.atom("A*", (1,))), "x")
        )
        assert out == expected
        assert koszul_tate_apply(bv, out).is_zero()

    def test_fields_and_ghosts_in_kernel(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        assert koszul_tate_apply(bv, sig.coord("A", (0,))).is_zero()
        assert koszul_tate_apply(bv, sig.coord("C")).is_zero()

    def test_leibniz_sign(self, playground):
        # u even, u* odd: d(u u*) = u d(u*) = u EL_u
        sig = playground.signature
        u = sig.coord("u")
        ustar = sig.from_atom(sig.atom("u*"))
        out = koszul_tate_apply(playground, u * ustar)
        el = jetcalc.variational_derivative(playground.theory.lagrangian, "u")
        assert out == u * el
        # odd factor in front: psi* even, psi odd
        psi = sig.coord("psi")
        psistar = sig.from_atom(sig.atom("psi*"))
        out2 = koszul_tate_apply(playground, psi * psistar)
        el_psi = jetcalc.variational_derivative(playground.theory.lagrangian, "psi")
        assert out2 == psi * el_psi  # el_psi is zero here, but the call must not sign-crash

    def test_commutes_with_total_derivative(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        e = sig.from_atom(sig.atom("A*", (0,))) * sig.coord("A", (1,), d=("x",))
        lhs = koszul_tate_apply(bv, jetcalc.total_derivative(e, "t"))
        rhs = jetcalc.total_derivative(koszul_tate_apply(bv, e), "t")
        assert lhs == rhs

    def test_nilpotent_on_all_builtin_generators(self):
        for name in ("free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"):
            bv = builtin(name).bv
            for expr in bv.generator_expressions().values():
                assert koszul_tate_apply(bv, koszul_tate_apply(bv, expr)).is_zero()


class TestMasterEquation:
    def test_maxwell_holds(self):
        report = check_master_equation(builtin("maxwell", dim=2).bv)
        assert report.holds

    def test_yang_mills_holds(self):
        report = check_master_equation(builtin("yang_mills_su2", dim=2).bv)
        assert report.holds

    def test_mutated_yang_mills_fails(self):
        from jetvar.models import yang_mills_su2_source
        from jetvar.parser import parse_model

        source = yang_mills_su2_source(2)
        mutated = source.replace(" + 1/2 * eps[a,b,c]*C*[a]*C[b]*C[c]", "")
        assert mutated != source
        bv = parse_model(mutated)
        report = check_master_equation(bv)
        assert not report.holds
        residual = report.residual.expr
        assert not residual.is_zero()
        sig = bv.signature
        star_gid = sig.generator_id("C*")
        ghost_gid = sig.generator_id("C")
        afield_gid = sig.generator_id("A*")
        atoms = residual.atoms()
        assert not any(a.gen == star_gid for a in atoms)
        assert any(a.gen == ghost_gid for a in atoms)
        assert any(a.gen == afield_gid for a in atoms)

    def test_antifield_free_master_trivially_holds(self):
        report = check_master_equation(builtin("scalar_phi4").bv)
        assert report.holds
        assert report.residual.expr.is_zero()


class TestBRST:
    def test_gauge_field_transforms_to_ghost_gradient(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        assert brst_apply(bv, sig.coord("A", (0,))) == sig.coord("C", d=("t",))
        assert brst_apply(bv, sig.coord("A", (1,))) == sig.coord("C", d=("x",))

    def test_abelian_ghost_is_closed(self):
        bv = builtin("maxwell", dim=2).bv
        assert brst_apply(bv, bv.signature.coord("C")).is_zero()

    def test_raises_ghost_number_by_one(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        for expr in (sig.coord("A", (0,)), sig.from_atom(sig.atom("A*", (1,)))):
            image = brst_apply(bv, expr)
            if image.is_zero():
                continue
            assert grading_of(image).ghost == grading_of(expr).ghost + 1

    def test_nilpotent_in_h_on_generators(self):
        for name, dim in (("maxwell", 2), ("yang_mills_su2", 2)):
            bv = builtin(name, dim=dim).bv
            assert check_master_equation(bv).holds
            for expr in bv.generator_expressions().values():
                image = brst_apply(bv, brst_apply(bv, expr))
                if image.is_zero():
                    continue
                assert jetcalc.is_total_divergence(image)
