"""Theories, local functionals, symmetries, and Noether identities.

A Theory packages a signature with a Lagrangian density.  A density is a
plain ``Expression`` over the theory's signature; ``LocalFunctional(theory,
expr)`` is a density taken modulo total divergences, which is exactly how the
Euler-Lagrange system, symmetry checks, and the evaluation pairing treat
them.  On-shell reduction orients each EL component by the kernel's graded
partial derivative by its leading jet and builds the rule with kernel
arithmetic, so no product or derivative rule is repeated here.

A density is evaluated exactly on a polynomial section in two phases: a plan
of the density alone, memoized on it, then flat loops per section in integers
that read each field component, power each factor and sum the density in
Horner form in one leaf-to-root walk over the plan's trie of leading factors,
over one common denominator.  There is one evaluator, ``_evaluate``, and one
integrator, ``_integrate``: from the section's values to the box integral a
term is one int, the exponents of the variables and the parameters as
balanced digits, with an integer numerator.  ``evaluate_density`` unpacks the
evaluator's terms, ``integrate_box_polynomial`` packs a polynomial for the
integrator, ``integrate_on_box_expression`` hands the one to the other, and
``integrate_on_box`` evaluates that at the bound parameters.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .core import (
    Atom,
    EVEN,
    EVEN_GRADING,
    Expression,
    FIELD,
    PARAM,
    Signature,
    VAR,
    _make,
    _memo,
    grading_of,
    invert_monomial,
    is_homogeneous_of,
    partial_derivative,
    substitute,
)
from . import jetcalc
from .errors import (
    GeneratorMismatchError,
    GradingViolationError,
    MissingCharacteristicError,
    NonzeroGhostNumberError,
    NotSolvableError,
    OddDensityError,
    RewriteBudgetError,
    UnboundParameterError,
    UnknownGeneratorError,
)

Component = Tuple[str, tuple]


def _field_components(sig: Signature) -> list:
    return [
        (gen.name, comp)
        for _, gen in sig.jet_generators()
        if gen.role == FIELD
        for comp in gen.components()
    ]


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
        return _field_components(self.signature)

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
            if sig.generators[sig.atom(name, comp).gen].role != FIELD:
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
            got = grading_of(q)
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
            if sig.generators[sig.atom(name, comp).gen].role != FIELD:
                raise UnknownGeneratorError(f"{name!r} is not a field")
            entry = {}
            for mindex, coeff in table.items():
                mindex = sig.atom(name, comp, mindex).mindex  # validates the multi-index
                if coeff.sig != sig:
                    raise GeneratorMismatchError("coefficient uses a different generator set")
                if coeff:
                    entry[mindex] = coeff
            if entry:
                clean[(name, tuple(comp))] = entry
        self.coefficients = clean

    def apply(self, values: Mapping[Component, Expression], sig: Signature) -> Expression:
        """Sum of coeff * D_alpha(values[component]); ``sig`` extends the
        operator's signature, and the coefficients are embedded into it.
        Every ``coeff * D_alpha(...)`` product goes into one
        ``Expression.sum_of_products``, so the sum is normalized once."""
        parts = [
            (1, 1, (_transfer(coeff, sig), jetcalc.apply_multi_derivative(values[key], mindex)))
            for key, table in self.coefficients.items()
            if values[key]
            for mindex, coeff in table.items()
        ]
        return Expression.sum_of_products(sig, parts)


class Section:
    """Polynomial field values in the base variables and parameters; a field
    whose grading is not (even, 0, 0) takes only the zero value."""

    def __init__(self, theory: Theory, values: Dict[Component, Expression]):
        self.theory = theory
        sig = theory.signature
        clean = {}
        for (name, comp), poly in values.items():
            gen = sig.generators[sig.atom(name, comp).gen]
            if gen.role != FIELD:
                raise UnknownGeneratorError(f"{name!r} is not a field")
            if poly.sig != sig:
                raise GeneratorMismatchError("section value uses a different generator set")
            if any(sig.generators[a.gen].role not in (VAR, PARAM) for a in poly.atoms()):
                raise GradingViolationError(
                    "section values must be polynomials in variables and parameters"
                )
            if poly and gen.grading != EVEN_GRADING:
                raise GradingViolationError(
                    f"field {name!r} of grading {gen.grading} admits only the zero section"
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
    """Orient EL = 0 as leading-coordinate -> lower terms; error if nonlinear.

    The coefficient is the graded left partial derivative of EL by its leading
    atom, so EL = lead * coeff + rest; once the coefficient is an invertible
    parameter monomial, the rule is lead -> -rest / coeff, summed as
    -inv * el + inv * lead * coeff in one accumulation."""
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
    return lead, Expression.sum_of_products(
        sig, [(-1, 1, (inv, el)), (1, 1, (inv * sig.from_atom(lead), coeff))])


def _orient(lagrangian: Expression):
    """What ``on_shell_reduce`` reads of the Lagrangian alone, memoized on
    it: ``(lead, rhs)`` of every nonzero EL component in sorted component
    order, and the rules met so far, one table per ``max_order`` (see
    ``_rule``).  An orientation error is raised before anything is stored."""
    sig = lagrangian.sig
    leads = []
    for name, comp in sorted(_field_components(sig)):
        el = jetcalc.variational_derivative(lagrangian, name, comp)
        if el:
            leads.append(_solve_for_leading(name, comp, el))
    return leads, {}


def _rule(atom: Atom, leads: list, max_order: int) -> Optional[Expression]:
    """The rewrite of a jet atom, or None if it is no target.  The atom is a
    target of ``lead`` iff it is ``lead + alpha`` with an order of at most
    ``max(lead.order, max_order)``; the first such lead in sorted component
    order gives ``D_alpha`` of its right-hand side."""
    for lead, rhs in leads:
        if (atom.gen, atom.comp) == (lead.gen, lead.comp) and (
                atom.order <= max(lead.order, max_order)):
            alpha = tuple(a - b for a, b in zip(atom.mindex, lead.mindex))
            if min(alpha, default=0) >= 0:
                return jetcalc.apply_multi_derivative(rhs, alpha)
    return None


_REWRITE_BUDGET = 10_000


def on_shell_reduce(e: Expression, theory: Theory, max_order: int) -> Expression:
    """Canonical representative of ``e`` modulo the EL ideal truncated at ``max_order``.

    The EL relations are oriented highest-coordinate to lower terms once per
    Lagrangian (``_orient``), and applied until a fixed point, highest
    target first; ``_REWRITE_BUDGET`` rewrites guard against non-terminating
    orientations.  A target is a prolongation ``lead + alpha`` of an oriented
    lead up to ``max_order`` (``_rule``), and its rule is derived the first
    time a reduction meets it, then kept on the Lagrangian for that
    ``max_order``.
    """
    sig = theory.signature
    if e.sig != sig:
        raise GeneratorMismatchError("expression belongs to a different theory")
    leads, tables = _memo(theory.lagrangian, _orient)
    rules = tables.setdefault(max_order, {})
    steps = 0
    while True:
        hits = []
        for a in e.jet_atoms():
            if a not in rules:
                rules[a] = _rule(a, leads, max_order)
            if rules[a] is not None:
                hits.append(a)
        if not hits:
            return e
        if steps >= _REWRITE_BUDGET:
            raise RewriteBudgetError(
                f"on-shell reduction did not terminate within {_REWRITE_BUDGET} steps"
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


def _digits(sig: Signature) -> list:
    """The atoms a packed term keeps one digit each of: the variables in
    declaration order, then the parameters in canonical order."""
    return [sig.atom(g.name) for g in sig.variables] + [
        sig.atom(g.name) for g in sig.generators if g.role == PARAM
    ]


def _read(e: Expression, position: Mapping[int, int]):
    """A jet-free polynomial as each term's exponents by digit, the terms'
    numerators, and the largest sum of absolute exponents of a term."""
    rows, nums = [], []
    top = 0
    for (even, odd), n in e._nums:
        if odd:
            raise OddDensityError("cannot integrate an odd integrand")
        exps = [0] * len(position)
        for atom, x in even:
            i = position.get(atom.gen)
            if i is None:
                raise UnknownGeneratorError(
                    f"integrand still contains jet coordinate {e.sig.generators[atom.gen].name!r}"
                )
            exps[i] = x
        rows.append(exps)
        nums.append(n)
        top = max(top, sum(map(abs, exps)))
    return rows, nums, top


def _pack(exps, scale) -> int:
    """The int of exponents by digit, with ``scale[i] = base**i``."""
    return sum(map(operator.mul, exps, scale))


def _balanced(packed: int, base: int, count: int) -> list:
    """The lowest ``count`` digits of a packed int, each of absolute value below ``base / 2``."""
    half = base // 2
    out = []
    for _ in range(count):
        x = packed % base
        if x >= half:
            x -= base
        packed = (packed - x) // base
        out.append(x)
    return out


def _plan(density: Expression):
    """What ``_evaluate`` reads of the density alone, memoized, so that a call
    decides nothing per density: the atoms of ``_digits`` and their positions
    by generator; the field components in canonical jet order, each as
    ``(generator, comp, lowest order, [(mindex, [(variable, count), ...])])``
    over its jet atoms; the distinct leading factors as ``(jet index, digit,
    exponent)``, the first for a jet atom and the second otherwise; the walk
    over the trie of leading factors, one ``(node, parent, factor, weight)``
    per node from the leaves to the root (node 0 is the empty product, and a
    parent is numbered below its children), with ``weight = (numerator,
    top - d)`` of the monomial without odd factors that ends at the node (d
    its jet degree, top the largest) or None; the constant's numerator; the
    largest sum of absolute exponents of a monomial; and top.  The only trie
    in jetvar."""
    sig = density.sig
    digits = _digits(sig)
    position = {a.gen: i for i, a in enumerate(digits)}
    jets = sorted(density.jet_atoms())
    components, key = [], None
    for a in jets:
        if (a.gen, a.comp) != key:
            key, atoms = (a.gen, a.comp), []
            components.append((sig.generators[a.gen], a.comp, a.order, atoms))
        atoms.append((a.mindex, [(v, k) for v, k in enumerate(a.mindex) if k]))
    index = {a: j for j, a in enumerate(jets)}
    root, nodes, factors, weights, sizes = {}, [], {}, {}, [(0, 0)]
    for (even, odd), c in density._nums:
        if not odd:
            node, i = root, 0
            for factor in even:
                if factor not in node:
                    (a, x), (d, w) = factor, sizes[i]
                    nodes.append((i, factors.setdefault(factor, len(factors))))
                    sizes.append((d + x * (a in index), w + abs(x)))  # jet degree, width
                    node[factor] = (len(nodes), {})
                i, node = node[factor]
            weights[i] = c
    top = max([sizes[i][0] for i in weights], default=0)
    walk = [(i, parent, k, (weights[i], top - sizes[i][0]) if i in weights else None)
            for i, (parent, k) in reversed(list(enumerate(nodes, 1)))]
    factors = [(index.get(a), position.get(a.gen), x) for a, x in factors]
    width = max(w for _, w in sizes)
    return digits, position, components, factors, walk, weights.get(0, 0), width, top


def _evaluate(density: Expression, section: Section):
    """The density on the section as packed terms ``(digits, base, terms, den)``.

    A term is one int ``sum x_i * base**i`` over the exponents x_i of the
    atoms in ``digits``, with a numerator over ``den``.  Every digit is below
    ``base / 2`` in absolute value, so the product of two terms is the sum of
    their ints: each partial sum is a sum of sub-products of one monomial's
    factors, and ``base / 2 - 1`` is the density's largest sum of absolute
    exponents of a monomial times the largest of an image (a jet's is at most
    its value's less the jet's order; a variable's or a parameter's is 1).
    The plan holds every decision that depends on the density alone, so a
    call runs flat loops: each field component is read once, in canonical
    jet order, and its jets' images are derived from it over the lcm D of the
    components' denominators (``D_alpha`` of a term lowers each variable's
    exponent e by k and multiplies by e!/(e-k)!); each distinct factor is
    powered once; one pass over the trie marks a node live when no power on
    its path is zero; and one pass over the plan's walk, from the leaves up,
    adds each live node's weight times D**(top - d) to its subtree's sum and
    that sum times the node's power into its parent's, over D**top at the
    root.  A section is zero on every field not of grading (even, 0, 0), so
    a monomial with an odd factor contributes nothing.
    """
    if section.theory.signature != density.sig:
        raise GeneratorMismatchError("section belongs to a different theory")
    digits, position, components, factors, walk, constant, width, top = _memo(density, _plan)
    reads, common, degree = [], 1, 1
    for gen, comp, order, atoms in components:
        if gen.role != FIELD:
            raise UnknownGeneratorError(f"cannot evaluate {gen.role} coordinate "
                                        f"{gen.name!r} on a section")
        value = section.value(gen.name, comp)
        rows, nums, size = _read(value, position)
        reads.append((rows, nums, value.den, atoms))
        common = math.lcm(common, value.den)
        degree = max(degree, size - order)
    base = 2 * width * degree + 2
    scale = [base ** i for i in range(len(digits))]
    images = []
    for rows, nums, den, atoms in reads:
        lift = common // den
        terms = [(_pack(exps, scale), exps, n * lift) for exps, n in zip(rows, nums)]
        for mindex, counts in atoms:
            shift, image = _pack(mindex, scale), {}
            for p, exps, n in terms:
                for v, k in counts:
                    n *= math.perm(exps[v], k)
                if n:
                    image[p - shift] = n
            images.append(image)
    powers = []
    for j, digit, x in factors:
        if j is None:  # a variable or a parameter, possibly with a negative exponent
            powers.append({x * scale[digit]: 1})
            continue
        f = img = images[j]
        for _ in range(x - 1):
            f = _packed_mul(f, img, {})
        powers.append(f)
    live = [True]
    for _, parent, k, _ in reversed(walk):
        live.append(live[parent] and bool(powers[k]))
    lifts = [common ** e for e in range(top + 1)]
    sums = [{0: constant * lifts[top]} if constant else {}] + [None] * len(walk)
    for node, parent, k, weight in walk:
        if not live[node]:
            continue
        f, total = powers[k], sums[node]
        acc = sums[parent] = sums[parent] or {}
        if weight:
            w = weight[0] * lifts[weight[1]]
            for p, n in f.items():
                acc[p] = acc[p] + n * w if p in acc else n * w
        if total:
            for p1, n1 in f.items():
                for p2, n2 in total.items():
                    p = p1 + p2
                    acc[p] = acc[p] + n1 * n2 if p in acc else n1 * n2
    return digits, base, sums[0].items(), density.den * lifts[top]


def _packed_mul(f: dict, g: dict, acc: dict) -> dict:
    """The product of two packed ``{packed: numerator}`` dicts, added into ``acc``."""
    for p1, n1 in f.items():
        for p2, n2 in g.items():
            p = p1 + p2
            acc[p] = acc[p] + n1 * n2 if p in acc else n1 * n2
    return acc


def evaluate_density(density_expr: Expression, section: Section) -> Expression:
    """Substitute the jets of a section into a density: the packed terms of
    ``_evaluate``, unpacked into one normal-form expression.  ``substitute``
    of the jets ``jetcalc.apply_multi_derivative`` gives is its reference."""
    digits, base, terms, den = _evaluate(density_expr, section)
    order = sorted(range(len(digits)), key=digits.__getitem__)
    out = []
    for packed, n in terms:
        exps = _balanced(packed, base, len(digits))
        out.append(((tuple((digits[i], exps[i]) for i in order if exps[i]), ()), n))
    return Expression.from_terms(density_expr.sig, out, den)


def _spans(sig: Signature, box: Mapping[str, tuple]) -> list:
    """(p, q, r) per variable in declaration order: with lo = a/b and
    hi = c/d, p = a*d, q = c*b and r = b*d, so lo = p/r and hi = q/r."""
    for name in box:
        sig.var_position(name)  # a bound on anything but a variable is an error
    spans = []
    for var in sig.variables:
        if var.name not in box:
            raise UnknownGeneratorError(f"box does not bound variable {var.name!r}")
        (a, b), (c, d) = (
            (x if type(x) in (int, Fraction) else Fraction(x)).as_integer_ratio()
            for x in box[var.name]
        )
        spans.append((a * d, c * b, b * d))
    return spans


def _integrate(sig: Signature, packed, spans: list) -> Expression:
    """Integrate packed terms ``(digits, base, terms, den)`` over a box, in integers.

    The moment of x^k over [p/r, q/r] is (q^(k+1) - p^(k+1)) / (r^(k+1) (k+1));
    with top = base/2 - 1 bounding every exponent, each variable has one
    table of them over r^(top+1) lcm(1..top+1), built by recurrence (each
    entry takes p^(k+1) and q^(k+1) one factor up and r^(top-k) one down),
    and a term that lacks the variable reads the box length at k = 0.
    Variable digits are nonnegative and lowest, so ``%`` and ``//`` peel them
    off a term; what is left is its parameter part, and the parts are
    grouped before one ``from_terms``.
    """
    digits, base, terms, den = packed
    top = base // 2 - 1
    lcm = math.lcm(*range(1, top + 2))
    tables = []
    for p, q, r in spans:
        table, pk, qk, rk = [], p, q, r ** top
        for k in range(top + 1):
            table.append((qk - pk) * rk * (lcm // (k + 1)))
            pk, qk, rk = pk * p, qk * q, rk // r
        tables.append(table)
        den *= r ** (top + 1) * lcm
    grouped = {}
    get = grouped.get
    for rest, n in terms:
        for table in tables:
            n *= table[rest % base]
            rest //= base
        grouped[rest] = get(rest, 0) + n
    params = digits[len(spans):]
    out = []
    for rest, n in grouped.items():
        exps = _balanced(rest, base, len(params))
        out.append(((tuple((a, x) for a, x in zip(params, exps) if x), ()), n))
    return Expression.from_terms(sig, out, den)


def integrate_box_polynomial(expr: Expression, box: Mapping[str, tuple]) -> Expression:
    """Integrate a jet-free polynomial over a rational box: its terms, packed
    as ``_evaluate`` packs them, through the one integrator ``_integrate``."""
    sig = expr.sig
    spans = _spans(sig, box)
    digits = _digits(sig)
    rows, nums, top = _read(expr, {a.gen: i for i, a in enumerate(digits)})
    base = 2 * top + 2
    scale = [base ** i for i in range(len(digits))]
    terms = [(_pack(exps, scale), n) for exps, n in zip(rows, nums)]
    return _integrate(sig, (digits, base, terms, expr.den), spans)


def integrate_on_box_expression(
    functional, section: Section, box: Mapping[str, tuple]
) -> Expression:
    """Exact value of a functional on a section, symbolic in the parameters:
    the packed terms of ``_evaluate`` integrated as they are."""
    expr = functional.expr if isinstance(functional, LocalFunctional) else functional
    _check_evaluable(expr)
    packed = _evaluate(expr, section)
    return _integrate(expr.sig, packed, _spans(expr.sig, box))


def integrate_on_box(
    functional,
    section: Section,
    box: Mapping[str, tuple],
    params: Optional[Mapping[str, Fraction]] = None,
) -> Fraction:
    """Exact rational value of a functional on a polynomial section over a box.

    The parameters are bound by one ``substitute`` call, so a bound
    parameter may occur with a negative exponent unless it is bound to 0.
    """
    value = integrate_on_box_expression(functional, section, box)
    if params:
        sig = value.sig
        bindings = {}
        for name, v in params.items():
            gid = sig.generator_id(name)
            if sig.generators[gid].role != PARAM:
                raise UnknownGeneratorError(f"{name!r} is not a parameter")
            bindings[sig.atom(name)] = sig.const(v)
        value = substitute(value, bindings)
    try:
        return value.constant_value()
    except UnknownGeneratorError:
        raise UnboundParameterError(
            "the value still depends on parameters; bind them via 'params'"
        ) from None
