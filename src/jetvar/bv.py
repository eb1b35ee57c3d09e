"""Field-antifield extension, the antibracket, and the master equation.

The extension appends one ghost per gauge generator and one antifield per
field and ghost component.  The single normative grading convention: a
generator of grading (p, g, 0) gets an antifield of grading
(p+1 mod 2, -g-1, afn) with afn = 1 for fields and afn = 2 for ghosts.

The antibracket is realized on densities through the Hamiltonian
derivation X_F, whose characteristics are dR F/dPhi on each antifield Phi*
and -dR F/dPhi* on each field or ghost Phi, signed left derivatives of F.
Paired with the left variational derivatives of G they give

    (F, G) = sum over generator pairs of
             dR F/dPhi * dL G/dPhi*  -  dR F/dPhi* * dL G/dPhi,

which satisfies the bracket identities up to total divergences, i.e. as
local functionals; that is also where the master equation is tested.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .core import (
    ANTIFIELD,
    EVEN,
    Expression,
    FIELD,
    GHOST,
    Generator,
    Grading,
    Signature,
    _memo,
    parity_ghost_of,
)
from . import jetcalc
from .errors import (
    DuplicateGhostNameError,
    GeneratorMismatchError,
    GradingViolationError,
    NotAnIdentityError,
    UnknownGeneratorError,
)
from .theory import (
    Component,
    LocalFunctional,
    NoetherOperator,
    Theory,
    _transfer,
    euler_lagrange_system,
    noether_residual,
)


def antifield_name(name: str) -> str:
    return name + "*"


def antifield_grading(g: Grading, role: str) -> Grading:
    afn = 1 if role == FIELD else 2
    return Grading((g.parity + 1) % 2, -g.ghost - 1, afn)


class GaugePair(NamedTuple):
    """A ghost together with the Noether identities it resolves, per component."""

    ghost: Generator
    operators: Dict[tuple, NoetherOperator]


class BVExtension:
    """A theory extended by ghosts and antifields, with a candidate master action."""

    __slots__ = ("base", "theory", "gauge", "master_action")

    def __init__(self, base: Theory, theory: Theory, gauge: Tuple[GaugePair, ...],
                 master_action: LocalFunctional):
        self.base = base
        self.theory = theory
        self.gauge = gauge
        self.master_action = master_action

    # -- structure ---------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self.theory.signature

    def pairs(self) -> List[Tuple[Component, Component]]:
        """(generator component, antifield component) for every field and ghost."""
        out = []
        for _, gen in self.signature.jet_generators():
            if gen.role in (FIELD, GHOST):
                star = antifield_name(gen.name)
                out.extend(((gen.name, c), (star, c)) for c in gen.components())
        return out

    def generator_expressions(self) -> Dict[Component, Expression]:
        """Every field, ghost, and antifield component as an expression."""
        sig = self.signature
        out = {}
        for _, gen in sig.jet_generators():
            for comp in gen.components():
                out[(gen.name, comp)] = sig.from_atom(sig.atom(gen.name, comp))
        return out

    def with_master(self, density) -> "BVExtension":
        """Replace the candidate master action, revalidating the invariants."""
        if isinstance(density, str):
            density = self.theory.parse(density)
        if isinstance(density, LocalFunctional):
            density = density.expr
        density = _transfer(density, self.signature)
        if density and parity_ghost_of(density) != (EVEN, 0):
            raise GradingViolationError("the master action must be even of ghost number 0")
        if antifield_component(density, 0) != _transfer(self.base.lagrangian, self.signature):
            raise GradingViolationError(
                "the antifield-number-0 part of the master action must equal the lagrangian"
            )
        functional = LocalFunctional(self.theory, density)
        return BVExtension(self.base, self.theory, self.gauge, functional)


def antifield_component(e: Expression, level: int) -> Expression:
    """The part of an expression with the given total antifield number."""
    part = [item for item in e._nums if e._key_grading(item[0]).antifield == level]
    return Expression.from_terms(e.sig, part, e.den)


def extend_to_bv(
    theory: Theory,
    gauge: Sequence[Tuple[Generator, Dict[tuple, NoetherOperator]]] = (),
) -> BVExtension:
    """Adjoin ghosts and antifields and emit the minimal master-action proposal.

    Each gauge entry pairs a ghost generator with a mapping from each ghost
    component (``()`` for a ghost without components) to the Noether operator
    whose identity it resolves; the identities are verified exactly, off
    shell.  The proposal couples every field antifield to the gauge
    characteristic obtained from the operator's adjoint; higher ghost terms
    are the caller's to add via ``with_master``.  The Lagrangian and every
    ``+-antifield * D_alpha(coeff * ghost)`` are one ``sum_of_products``.
    """
    sig = theory.signature
    pairs: List[GaugePair] = []
    names = {g.name for g in sig.generators}
    for ghost_spec, ops in gauge:
        if ghost_spec.role != GHOST:
            raise GradingViolationError(f"{ghost_spec.name!r} is not declared as a ghost")
        if ghost_spec.name in names:
            raise DuplicateGhostNameError(f"generator name {ghost_spec.name!r} already in use")
        names.add(ghost_spec.name)
        table = {}
        for comp in ghost_spec.components():
            op = ops.get(tuple(comp))
            if op is None:
                raise UnknownGeneratorError(
                    f"no Noether operator for ghost component {ghost_spec.name}{list(comp)}"
                )
            residual = noether_residual(theory, op)
            if residual:
                raise NotAnIdentityError(residual)
            table[tuple(comp)] = op
        pairs.append(GaugePair(ghost_spec, table))

    generators = list(sig.generators) + [p.ghost for p in pairs]
    for gen in list(generators):
        if gen.role in (FIELD, GHOST):
            # antifield indices pair with the field's by duality, so their
            # slots never contract through the metric
            generators.append(
                Generator(
                    antifield_name(gen.name),
                    ANTIFIELD,
                    gen.index_ranges,
                    antifield_grading(gen.grading, gen.role),
                    (False,) * len(gen.index_ranges),
                )
            )
    ext_sig = Signature(generators, sig.metric)
    lagrangian = _transfer(theory.lagrangian, ext_sig)
    ext_theory = Theory(ext_sig, lagrangian)

    proposal = [(1, 1, (lagrangian,))]
    for pair in pairs:
        for ghost_comp, op in pair.operators.items():
            ghost = ext_sig.from_atom(ext_sig.atom(pair.ghost.name, ghost_comp))
            for (fname, fcomp), table in op.coefficients.items():
                star = ext_sig.from_atom(ext_sig.atom(antifield_name(fname), fcomp))
                for mindex, coeff in table.items():
                    term = jetcalc.apply_multi_derivative(
                        _transfer(coeff, ext_sig) * ghost, mindex
                    )
                    proposal.append((-1 if sum(mindex) % 2 else 1, 1, (star, term)))
    master = LocalFunctional(ext_theory, Expression.sum_of_products(ext_sig, proposal))
    return BVExtension(theory, ext_theory, tuple(pairs), master)


# ---------------------------------------------------------------------------
# bracket machinery


def _as_expression(f, sig: Signature) -> Expression:
    if isinstance(f, LocalFunctional):
        f = f.expr
    if not isinstance(f, Expression):
        raise TypeError("expected an expression or a local functional")
    if f.sig != sig:
        raise GeneratorMismatchError("operand belongs to a different BV extension")
    return f


def _hamiltonian_characteristics(f: Expression) -> Dict[Component, Expression]:
    """X_F's characteristics: dR F/dPhi on Phi* and -dR F/dPhi* on Phi, for F
    homogeneous in parity p and ghost number.  dR F/dz = (-1)^(|z| (p + 1))
    dL F/dz, read from F's memoized Euler operator."""
    if not f:
        return {}
    p, _ = parity_ghost_of(f)
    chars = {}
    for (gid, comp), lf in _memo(f, jetcalc._euler).items():
        if lf:
            gen = f.sig.generators[gid]
            star = gen.role == ANTIFIELD
            target = gen.name[:-1] if star else antifield_name(gen.name)
            chars[(target, comp)] = -lf if (gen.grading.parity * (p + 1) + star) % 2 else lf
    return chars


def antibracket_density(bv: BVExtension, f, g) -> Expression:
    """Density of (F, G): X_F's characteristics paired with dL G/dPhi, one
    ``sum_of_products`` part per pair; defined up to a total divergence."""
    sig = bv.signature
    f = _as_expression(f, sig)
    g = _as_expression(g, sig)
    if g:
        parity_ghost_of(g)
    parts = [
        (1, 1, (q, jetcalc.variational_derivative(g, name, comp)))
        for (name, comp), q in _hamiltonian_characteristics(f).items()
    ]
    return Expression.sum_of_products(sig, parts)


def antibracket(bv: BVExtension, f, g) -> LocalFunctional:
    """The antibracket of two local functionals over the extension."""
    return LocalFunctional(bv.theory, antibracket_density(bv, f, g))


def koszul_tate_apply(bv: BVExtension, e: Expression) -> Expression:
    """The Koszul-Tate differential: antifields to EL expressions, antighosts
    to the Noether combination of antifields, fields and ghosts to zero."""
    sig = bv.signature
    e = _as_expression(e, sig)
    chars = {
        (antifield_name(name), comp): _transfer(expr, sig)
        for (name, comp), expr in euler_lagrange_system(bv.base).items()
    }
    stars = {
        (name, comp): sig.from_atom(sig.atom(antifield_name(name), comp))
        for name, comp in bv.base.field_components()
    }
    for pair in bv.gauge:
        star = antifield_name(pair.ghost.name)
        for ghost_comp, op in pair.operators.items():
            chars[(star, ghost_comp)] = op.apply(stars, sig)
    return jetcalc.prolong_apply(chars, e)


def hamiltonian_derivation(bv: BVExtension, f, e: Expression) -> Expression:
    """The evolutionary derivation X_F with X_F(g) = (F, g) modulo divergences.

    Unlike the density-level bracket, X_F is an honest graded derivation, so
    the bracket's Leibniz rule holds with X_F inside the products.  F must be
    homogeneous in parity and ghost number, as in the bracket.
    """
    sig = bv.signature
    chars = _hamiltonian_characteristics(_as_expression(f, sig))
    return jetcalc.prolong_apply(chars, _as_expression(e, sig))


def brst_apply(bv: BVExtension, e: Expression) -> Expression:
    """The derivation {S_cm, -} on densities; raises ghost number by one."""
    return antibracket_density(bv, bv.master_action, e)


class MasterReport(NamedTuple):
    holds: bool
    residual: LocalFunctional


def check_master_equation(bv: BVExtension) -> MasterReport:
    """Test {S_cm, S_cm} = 0 in h(A): the residual must be a total divergence."""
    s = bv.master_action
    if s.expr and parity_ghost_of(s.expr) != (EVEN, 0):
        raise GradingViolationError("the master action must be even of ghost number 0")
    residual = antibracket(bv, s, s)
    return MasterReport(jetcalc.is_total_divergence(residual.expr), residual)
