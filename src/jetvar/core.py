"""Graded commutative differential polynomial expressions with exact coefficients.

Everything downstream (total derivatives, Euler-Lagrange systems, the
antibracket) reduces to arithmetic in one structure: a free graded-commutative
algebra over the rationals whose atoms are jet coordinates ``u^a_alpha``,
independent variables, and parameters.  Expressions are kept in a unique
canonical normal form, so equality and zero-recognition are exact, and every
Koszul sign is produced by one mechanism: counting odd transpositions while
sorting odd factors into the canonical atom order.

``Expression.from_terms`` is the one accumulator: sums, products and
substitutions all hand it their terms to add up and sort.  Graded partial
derivatives come from one sweep per expression and side that gives the
derivative by every atom at once; it is memoized on the expression, and
``partial_derivative`` is a view of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import (
    GeneratorMismatchError,
    GradingViolationError,
    InhomogeneousExpressionError,
    UnknownGeneratorError,
    ZeroExpressionGradingError,
)

EVEN = 0
ODD = 1

# generator roles
VAR = "independent-variable"
PARAM = "parameter"
FIELD = "field"
GHOST = "ghost"
ANTIFIELD = "antifield"

JET_ROLES = (FIELD, GHOST, ANTIFIELD)

Rat = Union[int, Fraction]


class Grading(NamedTuple("Grading", [("parity", int), ("ghost", int), ("antifield", int)])):
    """Parity, ghost number, and antifield number of a homogeneous element."""

    __slots__ = ()

    def __new__(cls, parity: int, ghost: int = 0, antifield: int = 0):
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 (even) or 1 (odd), got {parity}")
        if antifield < 0:
            raise ValueError("antifield number must be nonnegative")
        return super().__new__(cls, parity, ghost, antifield)

    def __add__(self, other: "Grading") -> "Grading":
        return Grading(
            (self.parity + other.parity) % 2,
            self.ghost + other.ghost,
            self.antifield + other.antifield,
        )

    def __str__(self):
        p = "odd" if self.parity else "even"
        return f"({p}, gh={self.ghost}, afn={self.antifield})"


EVEN_GRADING = Grading(EVEN, 0, 0)


class Generator(NamedTuple("Generator", [("name", str), ("role", str), ("index_ranges", tuple),
                                         ("grading", Grading), ("metric_slots", tuple)])):
    """A declared symbol family: variable, parameter, field, ghost, or antifield.

    ``index_ranges`` are inclusive ``(lo, hi)`` pairs, one per component slot.
    ``metric_slots`` marks which slots are spacetime-valued and therefore
    contract with the metric in the frontend; the kernel ignores it.
    """

    __slots__ = ()

    def __new__(cls, name: str, role: str, index_ranges: tuple = (),
                grading: Grading = EVEN_GRADING, metric_slots: tuple = ()):
        if role not in (VAR, PARAM, FIELD, GHOST, ANTIFIELD):
            raise ValueError(f"unknown generator role {role!r}")
        if role in (VAR, PARAM):
            if grading != EVEN_GRADING:
                raise ValueError(f"{role} {name!r} must be even with ghost number 0")
            if index_ranges:
                raise ValueError(f"{role} {name!r} cannot carry index ranges")
        if role == GHOST and grading.ghost < 1:
            raise ValueError(f"ghost {name!r} must have ghost number >= 1")
        if role == ANTIFIELD and grading.ghost > -1:
            raise ValueError(f"antifield {name!r} must have ghost number <= -1")
        if role in (VAR, PARAM, FIELD, GHOST) and grading.antifield != 0:
            raise ValueError(f"{role} {name!r} must have antifield number 0")
        for lo, hi in index_ranges:
            if lo > hi:
                raise ValueError(f"empty index range {lo}..{hi} on {name!r}")
        return super().__new__(cls, name, role, index_ranges, grading, metric_slots)

    def components(self):
        """Iterate all component tuples of this generator."""
        tuples = [()]
        for lo, hi in self.index_ranges:
            tuples = [t + (i,) for t in tuples for i in range(lo, hi + 1)]
        return tuples


class Atom(NamedTuple):
    """One multiplicative symbol: a jet coordinate, variable, or parameter.

    ``gen`` is the generator's position in the signature, ``comp`` the
    component tuple, ``order`` the total derivative order, and ``mindex`` the
    per-variable derivative counts (symmetrized by representation, so
    D_i D_j = D_j D_i holds for free).  ``order`` must equal ``sum(mindex)``;
    the field layout then makes plain tuple comparison the canonical order.
    """

    gen: int
    comp: tuple
    order: int
    mindex: tuple


class Monomial(NamedTuple):
    """coefficient * product of even factors * ordered product of odd factors."""

    coeff: Fraction
    even: tuple  # ((Atom, exponent), ...) sorted by atom
    odd: tuple  # (Atom, ...) sorted, distinct


class Signature:
    """An ordered set of generators with a constant diagonal metric.

    The declaration order fixes the canonical order of atoms and hence all
    normal forms and Koszul signs.  Signatures compare structurally, so two
    independently parsed copies of the same model are compatible.
    """

    __slots__ = ("generators", "metric", "_by_name", "_var_ids", "_key")

    def __init__(self, generators: Sequence[Generator], metric: Sequence[Rat]):
        self.generators = tuple(generators)
        self.metric = tuple(Fraction(m) for m in metric)
        self._by_name = {}
        for i, g in enumerate(self.generators):
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = i
        self._var_ids = tuple(i for i, g in enumerate(self.generators) if g.role == VAR)
        if len(self.metric) != len(self._var_ids):
            raise ValueError("metric dimension must equal the number of independent variables")
        if any(m == 0 for m in self.metric):
            raise ValueError("metric diagonal entries must be nonzero")
        self._key = (
            self.generators,
            self.metric,
        )

    # -- structural identity ------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Signature) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- lookups -------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self._var_ids)

    @property
    def variables(self) -> tuple:
        return tuple(self.generators[i] for i in self._var_ids)

    def var_position(self, name: str) -> int:
        """Position of an independent variable among the declared variables."""
        gid = self._by_name.get(name)
        if gid is None or self.generators[gid].role != VAR:
            raise UnknownGeneratorError(f"unknown independent variable {name!r}")
        return self._var_ids.index(gid)

    def var_generator_id(self, pos: int) -> int:
        return self._var_ids[pos]

    def generator_id(self, name: str) -> int:
        gid = self._by_name.get(name)
        if gid is None:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
        return gid

    def generator(self, name: str) -> Generator:
        return self.generators[self.generator_id(name)]

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def jet_generators(self):
        """(id, Generator) pairs for every field, ghost, and antifield."""
        return [(i, g) for i, g in enumerate(self.generators) if g.role in JET_ROLES]

    # -- atom and expression construction -------------------------------------

    def atom(self, name: str, comp: Sequence[int] = (), mindex: Sequence[int] = None) -> Atom:
        gid = self.generator_id(name)
        gen = self.generators[gid]
        comp = tuple(comp)
        if len(comp) != len(gen.index_ranges):
            raise UnknownGeneratorError(
                f"{name!r} takes {len(gen.index_ranges)} component indices, got {len(comp)}"
            )
        for c, (lo, hi) in zip(comp, gen.index_ranges):
            if not lo <= c <= hi:
                raise UnknownGeneratorError(f"component {c} of {name!r} outside {lo}..{hi}")
        if mindex is None:
            mindex = (0,) * self.nvars
        else:
            mindex = tuple(mindex)
            if len(mindex) != self.nvars or any(k < 0 for k in mindex):
                raise UnknownGeneratorError(f"bad derivative multi-index {mindex} for {name!r}")
        if gen.role not in JET_ROLES and any(mindex):
            raise UnknownGeneratorError(f"{gen.role} {name!r} cannot carry derivatives")
        return Atom(gid, comp, sum(mindex), mindex)

    def coord(self, name: str, comp: Sequence[int] = (), d: Sequence[str] = ()) -> "Expression":
        """Expression consisting of one atom; ``d`` lists variable names to derive by."""
        mindex = [0] * self.nvars
        for v in d:
            mindex[self.var_position(v)] += 1
        return self.from_atom(self.atom(name, comp, mindex))

    def from_atom(self, atom: Atom) -> "Expression":
        parity = self.generators[atom.gen].grading.parity
        if parity == ODD:
            mono = Monomial(Fraction(1), (), (atom,))
        else:
            mono = Monomial(Fraction(1), ((atom, 1),), ())
        return Expression(self, (mono,))

    def const(self, value: Rat) -> "Expression":
        value = Fraction(value)
        if value == 0:
            return Expression(self, ())
        return Expression(self, (Monomial(value, (), ()),))

    def zero(self) -> "Expression":
        return Expression(self, ())

    def one(self) -> "Expression":
        return self.const(1)

    def atom_grading(self, atom: Atom) -> Grading:
        return self.generators[atom.gen].grading

    def shift_atom(self, atom: Atom, var_pos: int) -> Atom:
        """Raise the derivative count of ``atom`` in the ``var_pos``-th variable."""
        m = list(atom.mindex)
        m[var_pos] += 1
        return Atom(atom.gen, atom.comp, atom.order + 1, tuple(m))


# ---------------------------------------------------------------------------
# normalization helpers


def _merge_even(e1: tuple, e2: tuple):
    """Merge two sorted even-factor lists, adding exponents."""
    out = []
    i = j = 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        a1, x1 = e1[i]
        a2, x2 = e2[j]
        if a1 == a2:
            x = x1 + x2
            if x != 0:
                out.append((a1, x))
            i += 1
            j += 1
        elif a1 < a2:
            out.append(e1[i])
            i += 1
        else:
            out.append(e2[j])
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return tuple(out)


def _merge_odd(o1: tuple, o2: tuple):
    """Merge sorted odd-factor tuples; returns (merged, sign) or (None, 0) if a square occurs."""
    if not o1:
        return o2, 1
    if not o2:
        return o1, 1
    out = []
    i = j = 0
    n1, n2 = len(o1), len(o2)
    inversions = 0
    while i < n1 and j < n2:
        a1, a2 = o1[i], o2[j]
        if a1 == a2:
            return None, 0
        if a1 < a2:
            out.append(a1)
            i += 1
        else:
            # o2[j] jumps over the n1-i remaining odd factors of o1
            inversions += n1 - i
            out.append(a2)
            j += 1
    out.extend(o1[i:])
    out.extend(o2[j:])
    return tuple(out), (-1 if inversions % 2 else 1)


def _mul_monomials(m1: Monomial, m2: Monomial):
    odd, sign = _merge_odd(m1.odd, m2.odd)
    if odd is None:
        return None
    coeff = m1.coeff * m2.coeff
    return Monomial(coeff if sign > 0 else -coeff, _merge_even(m1.even, m2.even), odd)


class Expression:
    """A normal-form sum of monomials over a fixed signature.

    Instances are immutable; all arithmetic returns new normalized values,
    and ``from_terms`` is the one place that sums and sorts terms.  Two
    expressions are equal iff their signatures and term lists coincide.
    ``_memo`` fills ``_sweeps`` (left unset here) with derivative sweeps on
    first use, the way ``Theory`` fills ``_el``.
    """

    __slots__ = ("sig", "terms", "_sweeps")

    def __init__(self, sig: Signature, terms: tuple):
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *args):
        raise AttributeError("Expression is immutable")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_terms(sig: Signature, monomials: Iterable[Monomial]) -> "Expression":
        """The normal form of a sum of monomials: equal keys add up, zero sums
        drop out, keys sort.  ``None`` (a vanished odd square) is skipped."""
        acc = {}
        for m in monomials:
            if m is not None:
                key = (m.even, m.odd)
                c = acc.get(key)
                acc[key] = m.coeff if c is None else c + m.coeff
        # keys (even, odd) are unique, so the sort never reaches a coefficient
        live = sorted(item for item in acc.items() if item[1] != 0)
        return Expression(sig, tuple(Monomial(c, even, odd) for (even, odd), c in live))

    @staticmethod
    def sum(sig: Signature, parts: Iterable["Expression"]) -> "Expression":
        """Normalized sum of many expressions: one accumulation, one sort."""

        def terms():
            for p in parts:
                if p.sig != sig:
                    raise GeneratorMismatchError("expressions belong to different theories")
                yield from p.terms

        return Expression.from_terms(sig, terms())

    # -- basic predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.sig.const(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "Expression":
        if isinstance(other, (int, Fraction)):
            return self.sig.const(other)
        if not isinstance(other, Expression):
            raise TypeError(f"cannot combine Expression with {type(other).__name__}")
        if other.sig != self.sig:
            raise GeneratorMismatchError("expressions belong to different theories")
        return other

    def __add__(self, other):
        return Expression.from_terms(self.sig, self.terms + self._coerce(other).terms)

    __radd__ = __add__

    def __neg__(self):
        return Expression(
            self.sig, tuple(Monomial(-m.coeff, m.even, m.odd) for m in self.terms)
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.sig.zero()
            return Expression(
                self.sig, tuple(Monomial(m.coeff * c, m.even, m.odd) for m in self.terms)
            )
        right = self._coerce(other).terms
        return Expression.from_terms(
            self.sig, [_mul_monomials(m1, m2) for m1 in self.terms for m2 in right]
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return self._coerce(other) * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        if n == 0:
            return self.sig.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("division is only defined by nonzero rationals")

    # -- structure access ----------------------------------------------------------

    def atoms(self) -> set:
        """All distinct atoms occurring in the expression."""
        out = set()
        for m in self.terms:
            out.update(a for a, _ in m.even)
            out.update(m.odd)
        return out

    def jet_atoms(self) -> set:
        gens = self.sig.generators
        return {a for a in self.atoms() if gens[a.gen].role in JET_ROLES}

    def max_jet_order(self) -> int:
        orders = [a.order for a in self.jet_atoms()]
        return max(orders, default=0)

    def constant_value(self) -> Fraction:
        """The value of a constant expression, else UnknownGeneratorError."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0].even and not self.terms[0].odd:
            return self.terms[0].coeff
        raise UnknownGeneratorError("expression is not a rational constant")

    def monomial_grading(self, mono: Monomial) -> Grading:
        gens = self.sig.generators
        parity = len(mono.odd) % 2
        ghost = 0
        afn = 0
        for a, x in mono.even:
            g = gens[a.gen].grading
            ghost += g.ghost * x
            afn += g.antifield * x
        for a in mono.odd:
            g = gens[a.gen].grading
            ghost += g.ghost
            afn += g.antifield
        return Grading(parity, ghost, afn)

    def __repr__(self):
        from .printer import format_expression

        return f"<Expression {format_expression(self)}>"


# ---------------------------------------------------------------------------
# public operations


def _memo(e: Expression, compute, side: str) -> dict:
    """``compute(e, side)``, stored on ``e`` for as long as ``e`` lives."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    memo = getattr(e, "_sweeps", None)
    if memo is None:
        memo = {}
        object.__setattr__(e, "_sweeps", memo)
    value = memo.get((compute, side))
    if value is None:
        value = memo[compute, side] = compute(e, side)
    return value


def _sweep(e: Expression, side: str) -> dict:
    """One pass over the terms: the graded partial derivative by every atom.

    For an odd atom, side="left" picks up one sign per odd factor standing to
    its left; side="right" counts odd factors to its right instead.
    """
    right = side == "right"
    buckets = {}
    for m in e.terms:
        even, odd, c = m.even, m.odd, m.coeff
        for idx, (a, x) in enumerate(even):
            rest = even[:idx] + ((a, x - 1),) if x != 1 else even[:idx]
            buckets.setdefault(a, []).append(Monomial(c * x, rest + even[idx + 1:], odd))
        last = len(odd) - 1
        for j, a in enumerate(odd):
            exposed = last - j if right else j
            rest = odd[:j] + odd[j + 1:]
            buckets.setdefault(a, []).append(Monomial(-c if exposed % 2 else c, even, rest))
    return {a: Expression.from_terms(e.sig, monos) for a, monos in buckets.items()}


def partial_derivative(e: Expression, c: Atom, side: str = "left") -> Expression:
    """Graded partial derivative of ``e`` with respect to the atom ``c``: a
    view of the memoized sweep of ``e`` (see ``_sweep`` for the signs)."""
    return _memo(e, _sweep, side).get(c) or e.sig.zero()


def grading_of(e: Expression) -> Grading:
    """Common grading of all terms; errors on zero or mixed expressions."""
    if e.is_zero():
        raise ZeroExpressionGradingError("the zero expression has no definite grading")
    gradings = {e.monomial_grading(m) for m in e.terms}
    if len(gradings) > 1:
        raise InhomogeneousExpressionError(sorted(gradings, key=str))
    return gradings.pop()


def is_homogeneous_of(e: Expression, grading: Grading) -> bool:
    """True when every term of ``e`` has the given grading (zero passes any)."""
    return all(e.monomial_grading(m) == grading for m in e.terms)


def homogeneous_components(e: Expression) -> dict:
    """Split an expression into its graded-homogeneous parts, keyed by grading."""
    buckets = {}
    for m in e.terms:
        buckets.setdefault(e.monomial_grading(m), []).append(m)
    return {g: Expression(e.sig, tuple(monos)) for g, monos in buckets.items()}


def parity_ghost_of(e: Expression):
    """Common (parity, ghost number) of all terms, ignoring antifield number.

    BV master actions are homogeneous in parity and ghost number but mix
    antifield numbers, so this is the homogeneity the antibracket demands.
    """
    if e.is_zero():
        raise ZeroExpressionGradingError("the zero expression has no definite grading")
    seen = set()
    for m in e.terms:
        g = e.monomial_grading(m)
        seen.add((g.parity, g.ghost))
    if len(seen) > 1:
        raise InhomogeneousExpressionError(
            sorted((Grading(p, gh) for p, gh in seen), key=str)
        )
    return seen.pop()


def substitute(e: Expression, bindings: Mapping[Atom, Expression]) -> Expression:
    """Simultaneous substitution of atoms by equally-graded expressions.

    One call builds each factor image ``repl ** x`` once, and each product of
    a monomial's leading factors (even factors, then odd ones, in stored
    order) once: sorted monomials share leading factors, so they share those
    products.  A monomial's image stops at the first zero prefix product.
    """
    sig = e.sig
    bound = {}
    for atom, repl in bindings.items():
        repl = e._coerce(repl)
        want = sig.atom_grading(atom)
        if not is_homogeneous_of(repl, want):
            raise GradingViolationError(
                f"replacement for atom of grading {want} is not homogeneous of that grading"
            )
        bound[atom] = repl

    images = {}

    def image(factor) -> Expression:
        f = images.get(factor)
        if f is None:
            a, x = factor
            repl = bound.get(a)
            if x < 0:
                if repl is not None:
                    raise GradingViolationError(
                        "cannot substitute a parameter occurring with a negative exponent"
                    )
                f = _param_power(sig, a, x)
            else:
                f = (sig.from_atom(a) if repl is None else repl) ** x
            images[factor] = f
        return f

    # trie of leading factors: factor -> (product of the prefix, child trie)
    root = {}
    one = sig.one()
    scaled = []
    for m in e.terms:
        node, product = root, one
        for factor in m.even + tuple((a, 1) for a in m.odd):
            entry = node.get(factor)
            if entry is None:
                f = image(factor)
                entry = node[factor] = (f if node is root else product * f, {})
            product, node = entry
            if not product:
                break
        c = m.coeff
        scaled.extend(Monomial(c * t.coeff, t.even, t.odd) for t in product.terms)
    return Expression.from_terms(sig, scaled)


def _param_power(sig: Signature, atom: Atom, exponent: int) -> Expression:
    """Laurent monomial in a parameter (negative exponents arise on-shell only)."""
    if sig.generators[atom.gen].role != PARAM:
        raise GradingViolationError("negative exponents are reserved for parameters")
    return Expression(sig, (Monomial(Fraction(1), ((atom, exponent),), ()),))


def invert_monomial(e: Expression) -> Expression:
    """Inverse of a single monomial whose atoms are all parameters."""
    if len(e.terms) != 1 or e.terms[0].odd:
        raise GradingViolationError("only parameter monomials are invertible")
    m = e.terms[0]
    sig = e.sig
    for a, _ in m.even:
        if sig.generators[a.gen].role != PARAM:
            raise GradingViolationError("only parameter monomials are invertible")
    even = tuple((a, -x) for a, x in m.even)
    return Expression(sig, (Monomial(Fraction(1) / m.coeff, even, ()),))
