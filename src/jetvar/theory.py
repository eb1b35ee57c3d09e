"""Theories, local functionals, symmetries, and Noether identities.

A Theory packages a signature with a Lagrangian density.  A density is a
plain ``Expression`` over the theory's signature; ``LocalFunctional(theory,
expr)`` is a density taken modulo total divergences, which is exactly how the
Euler-Lagrange system, symmetry checks, and the evaluation pairing treat
them.

A density is evaluated exactly on a polynomial section in two phases: a plan
of the density alone, memoized on it, then one pass per section in integers.
``evaluate_density`` multiplies the images of its jets with the variables'
exponents packed into one int per term, ``integrate_box_polynomial``
integrates the result over a rational box in integers, and
``integrate_on_box`` evaluates that at the bound parameters.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .core import (
    Atom,
    EVEN,
    EVEN_GRADING,
    Expression,
    FIELD,
    ODD,
    PARAM,
    Signature,
    VAR,
    _make,
    _memo,
    _merge_even,
    grading_of,
    invert_monomial,
    is_homogeneous_of,
    partial_derivative,
    substitute,
)
from . import jetcalc
from .errors import (
    DomainError,
    GeneratorMismatchError,
    GradingViolationError,
    MissingCharacteristicError,
    NonzeroGhostNumberError,
    NotSolvableError,
    OddDensityError,
    RewriteBudgetError,
    UnboundParameterError,
    UnknownGeneratorError,
    ZeroExpressionGradingError,
)

Component = Tuple[str, tuple]


class Theory:
    """Independent variables with a metric, generators, and a Lagrangian.

    Immutable.  The EL system is read from the Euler operator memoized on the
    Lagrangian expression, so a theory keeps no cache of its own.
    """

    __slots__ = ("signature", "lagrangian")

    def __init__(self, signature: Signature, lagrangian: Expression):
        if lagrangian.sig != signature:
            raise GeneratorMismatchError("lagrangian does not belong to this signature")
        if not is_homogeneous_of(lagrangian, EVEN_GRADING):
            raise GradingViolationError(
                "the lagrangian must be even with ghost number 0 and antifield number 0"
            )
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "lagrangian", lagrangian)

    def __setattr__(self, *args):
        raise AttributeError("Theory is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Theory)
            and self.signature == other.signature
            and self.lagrangian == other.lagrangian
        )

    def __hash__(self):
        return hash((self.signature, self.lagrangian))

    # -- enumeration ----------------------------------------------------------

    def field_components(self):
        return [
            (gen.name, comp)
            for _, gen in self.signature.jet_generators()
            if gen.role == FIELD
            for comp in gen.components()
        ]

    # -- conveniences -----------------------------------------------------------

    def parse(self, text: str) -> Expression:
        from .parser import parse_expression

        return parse_expression(text, self)

    def functional(self, expr) -> "LocalFunctional":
        if isinstance(expr, str):
            expr = self.parse(expr)
        return LocalFunctional(self, expr)


class LocalFunctional:
    """A density modulo total divergences; equality is integration by parts."""

    __slots__ = ("theory", "expr")

    def __init__(self, theory: Theory, expr: Expression):
        if expr.sig != theory.signature:
            raise GeneratorMismatchError("density expression uses a different generator set")
        self.theory = theory
        self.expr = expr

    def __eq__(self, other):
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        if self.theory.signature != other.theory.signature:
            raise GeneratorMismatchError("functionals over different theories")
        return jetcalc.ibp_equal(self.expr, other.expr)

    __hash__ = None

    def __repr__(self):
        return f"<LocalFunctional {self.expr!r}>"


class EvolutionaryVF:
    """An evolutionary vector field given by one characteristic per field component.

    The characteristics may carry a uniform grading shift relative to their
    fields (ghost-parameterized gauge transformations); the shift is inferred
    and recorded at construction.
    """

    def __init__(self, theory: Theory, characteristics: Dict[Component, Expression]):
        self.theory = theory
        sig = theory.signature
        chars = {}
        for (name, comp), q in characteristics.items():
            sig.atom(name, comp)  # validates the component
            if sig.generator(name).role != FIELD:
                raise UnknownGeneratorError(f"{name!r} is not a field")
            if q.sig != sig:
                raise GeneratorMismatchError("characteristic uses a different generator set")
            chars[(name, tuple(comp))] = q
        for name, comp in self.theory.field_components():
            if (name, comp) not in chars:
                raise MissingCharacteristicError(
                    f"no characteristic for field component {name}{list(comp)}"
                )
        self.characteristics = chars
        shift = None
        for (name, comp), q in chars.items():
            if q.is_zero():
                continue
            base = sig.generator(name).grading
            try:
                got = grading_of(q)
            except ZeroExpressionGradingError:  # pragma: no cover - zero handled above
                continue
            this = (
                (got.parity - base.parity) % 2,
                got.ghost - base.ghost,
                got.antifield - base.antifield,
            )
            if shift is None:
                shift = this
            elif shift != this:
                raise GradingViolationError(
                    "characteristics do not share a uniform grading shift"
                )
        self.shift = shift if shift is not None else (0, 0, 0)


def _transfer(e: Expression, sig: Signature) -> Expression:
    """Reinterpret an expression over a signature that extends its own."""
    if e.sig == sig:
        return e
    n = len(e.sig.generators)
    if sig.generators[:n] != e.sig.generators or sig.metric != e.sig.metric:
        raise GeneratorMismatchError("expression does not embed into the extended theory")
    return _make(sig, e.den, e._nums)


class NoetherOperator:
    """A linear differential operator to be paired against the EL system.

    ``coefficients`` maps a field component to a finite mapping from
    derivative multi-indices to coefficient expressions.
    """

    def __init__(self, theory: Theory, coefficients: Dict[Component, Dict[tuple, Expression]]):
        self.theory = theory
        sig = theory.signature
        clean = {}
        for (name, comp), table in coefficients.items():
            sig.atom(name, comp)
            if sig.generator(name).role != FIELD:
                raise UnknownGeneratorError(f"{name!r} is not a field")
            entry = {}
            for mindex, coeff in table.items():
                mindex = tuple(mindex)
                if len(mindex) != sig.nvars or any(k < 0 for k in mindex):
                    raise UnknownGeneratorError(f"bad multi-index {mindex}")
                if coeff.sig != sig:
                    raise GeneratorMismatchError("coefficient uses a different generator set")
                if coeff:
                    entry[mindex] = coeff
            if entry:
                clean[(name, tuple(comp))] = entry
        self.coefficients = clean

    def apply(self, values: Mapping[Component, Expression], sig: Signature) -> Expression:
        """Sum of coeff * D_alpha(values[component]); ``sig`` extends the
        operator's signature, and the coefficients are embedded into it."""
        parts = (
            _transfer(coeff, sig) * jetcalc.apply_multi_derivative(values[key], mindex)
            for key, table in self.coefficients.items()
            if values[key]
            for mindex, coeff in table.items()
        )
        return Expression.sum(sig, parts)


class Section:
    """Polynomial field values in the base variables and parameters."""

    def __init__(self, theory: Theory, values: Dict[Component, Expression]):
        self.theory = theory
        sig = theory.signature
        clean = {}
        for (name, comp), poly in values.items():
            sig.atom(name, comp)
            gen = sig.generator(name)
            if gen.role != FIELD:
                raise UnknownGeneratorError(f"{name!r} is not a field")
            if poly.sig != sig:
                raise GeneratorMismatchError("section value uses a different generator set")
            for a in poly.atoms():
                if sig.generators[a.gen].role not in (VAR, PARAM):
                    raise GradingViolationError(
                        "section values must be polynomials in variables and parameters"
                    )
            if gen.grading.parity == ODD and poly:
                raise GradingViolationError(
                    f"odd field {name!r} admits only the zero numeric section"
                )
            clean[(name, tuple(comp))] = poly
        self.values = clean

    def value(self, name: str, comp: tuple) -> Expression:
        try:
            return self.values[(name, tuple(comp))]
        except KeyError:
            raise MissingCharacteristicError(
                f"section does not assign field component {name}{list(comp)}"
            ) from None


# ---------------------------------------------------------------------------
# operations


def euler_lagrange_system(theory: Theory) -> Dict[Component, Expression]:
    """The full EL system: generators of the Euler-Lagrange ideal.

    Every call returns a new dict, read from the Euler operator memoized on
    the Lagrangian, so that operator is computed once per Lagrangian.
    """
    return {
        (name, comp): jetcalc.variational_derivative(theory.lagrangian, name, comp)
        for name, comp in theory.field_components()
    }


def is_symmetry(theory: Theory, vf: EvolutionaryVF) -> bool:
    """True iff the prolonged vector field moves the Lagrangian by a divergence."""
    if vf.theory.signature != theory.signature:
        raise GeneratorMismatchError("vector field belongs to a different theory")
    moved = jetcalc.prolong_apply(vf.characteristics, theory.lagrangian)
    return jetcalc.is_total_divergence(moved)


def noether_residual(theory: Theory, op: NoetherOperator) -> Expression:
    """Pair the operator against the EL system; zero residual = Noether identity."""
    if op.theory.signature != theory.signature:
        raise GeneratorMismatchError("operator belongs to a different theory")
    return op.apply(euler_lagrange_system(theory), theory.signature)


def is_noether_identity(theory: Theory, op: NoetherOperator) -> bool:
    return noether_residual(theory, op).is_zero()


# -- on-shell reduction -------------------------------------------------------


def _lead_key(atom: Atom):
    # derivative order dominates so the rewrite points from higher jets downward
    return (atom.order, atom.gen, atom.comp, atom.mindex)


def _solve_for_leading(name: str, comp: tuple, el: Expression):
    """Orient EL = 0 as leading-coordinate -> lower terms; error if nonlinear."""
    sig = el.sig
    lead = max(el.jet_atoms(), key=_lead_key, default=None)
    if lead is None:
        raise NotSolvableError(
            f"EL for {name}{list(comp)} contains no jet coordinate to solve for"
        )
    coeff = partial_derivative(el, lead)
    if lead in coeff.atoms():
        raise NotSolvableError(f"EL for {name}{list(comp)} is nonlinear in its leading coordinate")
    try:
        inv = invert_monomial(coeff)
    except GradingViolationError:
        raise NotSolvableError(
            f"leading coefficient of EL for {name}{list(comp)} is not an invertible parameter monomial"
        ) from None
    rest = el - coeff * sig.from_atom(lead)
    return lead, -(inv * rest)


def on_shell_reduce(
    e: Expression, theory: Theory, max_order: int, budget: int = 10_000
) -> Expression:
    """Canonical representative of ``e`` modulo the EL ideal truncated at ``max_order``.

    The EL relations are oriented highest-coordinate to lower terms, prolonged
    up to ``max_order``, and applied until a fixed point; a budget guards
    against non-terminating orientations.
    """
    sig = theory.signature
    if e.sig != sig:
        raise GeneratorMismatchError("expression belongs to a different theory")
    rules: Dict[Atom, Expression] = {}
    for (name, comp), el in sorted(euler_lagrange_system(theory).items()):
        if el.is_zero():
            continue
        lead, rhs = _solve_for_leading(name, comp, el)
        reach = max(0, max_order - lead.order)
        for mindex in itertools.product(range(reach + 1), repeat=sig.nvars):
            if sum(mindex) > reach:
                continue
            counts = tuple(a + b for a, b in zip(lead.mindex, mindex))
            shifted = Atom(lead.gen, lead.comp, sum(counts), counts)
            if shifted not in rules:
                rules[shifted] = jetcalc.apply_multi_derivative(rhs, mindex)
    steps = 0
    while True:
        hits = [a for a in e.jet_atoms() if a in rules]
        if not hits:
            return e
        if steps >= budget:
            raise RewriteBudgetError(
                f"on-shell reduction did not terminate within {budget} steps"
            )
        target = max(hits, key=_lead_key)
        e = substitute(e, {target: rules[target]})
        steps += 1


# -- exact evaluation -----------------------------------------------------------


def _check_evaluable(expr: Expression):
    if expr.is_zero():
        return
    g = _memo(expr, grading_of)
    if g.parity != EVEN:
        raise OddDensityError("cannot integrate an odd density")
    if g.ghost != 0 or g.antifield != 0:
        raise NonzeroGhostNumberError("cannot integrate a density of nonzero ghost number")


def _plan(density: Expression):
    """What ``evaluate_density`` reads of the density alone, memoized: its jet atoms
    in canonical order, the leading-factor trie as ``(parent, factor)`` entries (node
    i is entry i - 1, node 0 the empty product) and ``(numerator, node)`` per monomial
    without odd factors.  This is the codebase's only trie of shared products."""
    root, nodes, monomials = {}, [], []
    for (even, odd), c in density._nums:
        if not odd:
            node, index = root, 0
            for factor in even:
                if factor not in node:
                    nodes.append((index, factor))
                    node[factor] = (len(nodes), {})
                index, node = node[factor]
            monomials.append((c, index))
    return sorted(density.jet_atoms()), nodes, monomials


def evaluate_density(density_expr: Expression, section: Section) -> Expression:
    """Substitute the jets of a section into a density.

    The images ``D_alpha(value)`` come from ``jetcalc.apply_multi_derivative``.
    They are multiplied in a packed form private to this function: a term is
    ``(packed, params) -> numerator``, where ``packed`` holds the exponent k
    of the i-th base variable as ``k * base**i`` and ``params`` is the sorted
    tuple of parameter factors (Laurent exponents allowed), so a product adds
    packed ints and merges parameter tuples.  ``base`` is 1 plus a bound on
    the degree of any monomial's image (each factor's exponent times its
    image's total degree), so no exponent carries into the next variable.
    The plan memoized on the density shares the products of leading factors
    through a trie; each factor's power is built once, and a monomial with an
    odd factor, or under a zero product, contributes nothing: a section is
    zero on every odd field.  The products are summed over the lcm of their
    denominators and unpacked once into a normal-form expression.
    """
    sig = density_expr.sig
    jet_atoms, nodes, monomials = _memo(density_expr, _plan)
    images = {}
    for atom in jet_atoms:
        gen = sig.generators[atom.gen]
        if gen.role != FIELD:
            raise UnknownGeneratorError(
                f"cannot evaluate {gen.role} coordinate {gen.name!r} on a section"
            )
        poly = section.value(gen.name, atom.comp)
        images[atom] = jetcalc.apply_multi_derivative(poly, atom.mindex)
    # every component is looked up, in canonical atom order, before any grading is checked
    for atom, img in images.items():
        grading = sig.atom_grading(atom)
        if img and grading != EVEN_GRADING:
            raise GradingViolationError(
                f"replacement for atom of grading {grading} is not homogeneous of that grading"
            )

    var_atoms = [sig.atom(v.name) for v in sig.variables]
    position = {a.gen: i for i, a in enumerate(var_atoms)}
    # total degree in the variables of each factor's image; a parameter's is 0
    degree = {a: 1 for a in var_atoms}
    for atom, img in images.items():
        degree[atom] = max((sum(x for a, x in even if a.gen in position)
                            for (even, _), _ in img._nums), default=0)
    degrees = [0]  # a node's is its parent's plus its factor's, never negative
    for parent, (a, x) in nodes:
        degrees.append(degrees[parent] + x * degree.get(a, 0))
    base = max(degrees) + 1

    def pack(img: Expression):
        terms = []
        for (even, _), n in img._nums:
            packed = 0
            params = []
            for a, x in even:
                if a.gen in position:
                    packed += x * base ** position[a.gen]
                else:
                    params.append((a, x))
            terms.append(((packed, tuple(params)), n))
        return tuple(terms), img.den

    packed_images = {atom: pack(img) for atom, img in images.items()}
    powers = {}

    def power(factor):
        f = powers.get(factor)
        if f is None:
            a, x = factor
            if a in packed_images:
                f = img = packed_images[a]
                for _ in range(x - 1):
                    f = _packed_mul(f, img)
            elif a.gen in position:
                f = ((((x * base ** position[a.gen], ()), 1),), 1)
            else:  # a parameter, possibly with a negative exponent
                f = ((((0, (factor,)), 1),), 1)
            powers[factor] = f
        return f

    products = [((((0, ()), 1),), 1)]
    for parent, factor in nodes:
        product = products[parent]
        if product[0]:
            product = power(factor) if parent == 0 else _packed_mul(product, power(factor))
        products.append(product)
    live = [(c, products[node]) for c, node in monomials if products[node][0]]
    den = math.lcm(*[d for _, (_, d) in live])
    acc = {}
    get = acc.get
    for c, (terms, d) in live:
        scale = c * (den // d)
        for key, n in terms:
            acc[key] = get(key, 0) + scale * n
    out = []
    for (packed, params), n in acc.items():
        if n:
            factors = list(params)
            for a in var_atoms:
                packed, x = divmod(packed, base)
                if x:
                    factors.append((a, x))
            if params:
                factors.sort()
            out.append(((tuple(factors), ()), n))
    return Expression.from_terms(sig, out, density_expr.den * den)


def _packed_mul(f, g):
    """Product of two packed polynomials of ``evaluate_density``."""
    acc = {}
    get = acc.get
    right = g[0]
    for (p1, q1), n1 in f[0]:
        for (p2, q2), n2 in right:
            key = (p1 + p2, _merge_even(q1, q2))
            acc[key] = get(key, 0) + n1 * n2
    return tuple(item for item in acc.items() if item[1]), f[1] * g[1]


def integrate_box_polynomial(expr: Expression, box: Mapping[str, tuple]) -> Expression:
    """Integrate a jet-free polynomial over a rational box, variable by variable.

    In integers: with lo = a/b, hi = c/d, p = a*d, q = c*b and r = b*d, the
    moment of x^(k-1) is (q^k - p^k) / (r^k * k) and a box length (q - p) / r.
    Each moment and each product of the lengths a term lacks is built once per
    call and folds into the term, over the lcm of the terms' denominators.
    """
    sig = expr.sig
    for name in box:
        sig.var_position(name)  # a bound on anything but a variable is an error
    spans = {}
    for var in sig.variables:
        if var.name not in box:
            raise UnknownGeneratorError(f"box does not bound variable {var.name!r}")
        (a, b), (c, d) = (Fraction(x).as_integer_ratio() for x in box[var.name])
        spans[sig.generator_id(var.name)] = (a * d, c * b, b * d)
    moments = {}
    lacking = {}  # variables a term has -> product of the other box lengths
    out = []  # (key, numerator, denominator)
    for (even, odd), num in expr._nums:
        if odd:
            raise OddDensityError("cannot integrate an odd integrand")
        den = 1
        kept = []
        seen = []
        for atom, exp in even:
            gid = atom.gen
            if gid in spans:
                moment = moments.get((gid, exp))
                if moment is None:
                    p, q, r = spans[gid]
                    k = exp + 1
                    moment = moments[(gid, exp)] = (q ** k - p ** k, r ** k * k)
                num *= moment[0]
                den *= moment[1]
                seen.append(gid)
            else:
                if sig.generators[gid].role != PARAM:
                    raise UnknownGeneratorError(
                        f"integrand still contains jet coordinate {sig.generators[gid].name!r}"
                    )
                kept.append((atom, exp))
        seen = tuple(seen)
        lengths = lacking.get(seen)
        if lengths is None:
            rest = [span for gid, span in spans.items() if gid not in seen]
            lengths = lacking[seen] = (math.prod(q - p for p, q, _ in rest),
                                       math.prod(r for _, _, r in rest))
        out.append(((tuple(kept), ()), num * lengths[0], den * lengths[1]))
    scale = math.lcm(*[d for _, _, d in out])
    return Expression.from_terms(sig, [(key, n * (scale // d)) for key, n, d in out],
                                 expr.den * scale)


def integrate_on_box_expression(
    functional, section: Section, box: Mapping[str, tuple]
) -> Expression:
    """Exact value of a functional on a section, symbolic in the parameters."""
    expr = functional.expr if isinstance(functional, LocalFunctional) else functional
    _check_evaluable(expr)
    return integrate_box_polynomial(evaluate_density(expr, section), box)


def integrate_on_box(
    functional,
    section: Section,
    box: Mapping[str, tuple],
    params: Optional[Mapping[str, Fraction]] = None,
) -> Fraction:
    """Exact rational value of a functional on a polynomial section over a box.

    A bound parameter may occur with a negative exponent unless it is bound
    to 0: ``substitute`` binds nonnegative powers only, so the value is first
    multiplied by ``m**k`` for each bound ``m`` whose lowest exponent is
    ``-k``, and the result divided by ``v**k``.
    """
    value = integrate_on_box_expression(functional, section, box)
    if params:
        sig = value.sig
        bindings = {}
        for name, v in params.items():
            gid = sig.generator_id(name)
            if sig.generators[gid].role != PARAM:
                raise UnknownGeneratorError(f"{name!r} is not a parameter")
            bindings[sig.atom(name)] = sig.const(Fraction(v))
        lowest = {}
        for (even, _), _ in value._nums:
            for a, x in even:
                if a in bindings and x < lowest.get(a, 0):
                    lowest[a] = x
        if lowest:
            clear = tuple((a, -x) for a, x in sorted(lowest.items()))
            scale = Fraction(1)
            for a, k in clear:
                v = bindings[a].constant_value()
                if not v:
                    raise DomainError(
                        f"parameter {sig.generators[a.gen].name!r} is bound to 0 "
                        "but occurs with a negative exponent"
                    )
                scale /= v ** k
            value = value * Expression.from_terms(
                sig, [((clear, ()), scale.numerator)], scale.denominator)
        value = substitute(value, bindings)
    try:
        return value.constant_value()
    except UnknownGeneratorError:
        raise UnboundParameterError(
            "the value still depends on parameters; bind them via 'params'"
        ) from None
