"""Graded commutative differential polynomial expressions with exact coefficients.

Everything downstream (total derivatives, Euler-Lagrange systems, the
antibracket) reduces to arithmetic in one structure: a free graded-commutative
algebra over the rationals whose atoms are jet coordinates ``u^a_alpha``,
independent variables, and parameters.  Expressions are kept in a unique
canonical normal form, so equality and zero-recognition are exact, and every
Koszul sign is produced by one mechanism: counting odd transpositions while
sorting odd factors into the canonical atom order.

Coefficients are integer numerators over one positive denominator per
expression, reduced so that ``gcd(den, *numerators) == 1`` (the layout of
FLINT's ``fmpq_poly``): sums scale to the lcm of the denominators, products
multiply numerators and denominators, and derivatives multiply by integers,
so no ``Fraction`` is built on those paths.  ``Fraction`` enters and leaves
only at the edges: constants, the public ``Expression(sig, monomials)``
constructor, ``constant_value``, ``invert_monomial`` and the ``terms`` view.

``Expression.from_terms`` is the one accumulator, unchecked: sums, products
and substitutions all hand it their terms to add up, sort and reduce.
``Expression.sum_of_products`` is the one sum rule above it: every sum of
scaled products of expressions (``Expression.sum``, the public constructor,
``substitute``, the frontend's products, the brackets and derivations of
``jetcalc`` and ``bv``) hands it ``(num, den, factors)`` parts, and it alone
brings them to the lcm of their denominators.  Each part's last product goes
into one ``from_terms`` call unsummed, through the pair loop it shares with
``*``.  The public ``Expression(sig, monomials)`` hands each monomial's
factor images (``_power``) as one part, so user input meets the same sort and
Koszul signs as any product.
``substitute`` multiplies each monomial's factor images in stored order and
shares no products between monomials (the monomials with no bound factor are
copied as they are), so it stays a plain reference for the packed evaluator
in ``theory``, which keeps the only trie of shared products.
Graded partial derivatives are left ones, from one memoized sweep per
expression that gives the derivative by every atom at once
(``partial_derivative`` is a view of it); for ``e`` of parity ``p``,
dR e/dz = (-1)^(|z| (p+1)) dL e/dz.
"""

from __future__ import annotations

import math
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
        return _power(self, atom, 1)

    def const(self, value: Rat) -> "Expression":
        value = Fraction(value)
        return Expression.from_terms(self, ((((), ()), value.numerator),), value.denominator)

    def zero(self) -> "Expression":
        return _make(self, 1, ())

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
    if not e1:
        return e2
    if not e2:
        return e1
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


def _multiply_into(out: list, left: tuple, right: tuple, scale: int) -> None:
    """Append to ``out`` the terms of ``scale`` times the product of the term
    lists ``left`` and ``right``, unsummed and unsorted: the one pair loop of
    ``Expression.__mul__`` and ``Expression.sum_of_products``."""
    append = out.append
    for (even1, odd1), c1 in left:
        c1 *= scale
        if not odd1:
            for (even2, odd2), c2 in right:
                append(((_merge_even(even1, even2), odd2), c1 * c2))
            continue
        for (even2, odd2), c2 in right:
            if odd2:
                odd, sign = _merge_odd(odd1, odd2)
                if odd is None:
                    continue
                if sign < 0:
                    c2 = -c2
            else:
                odd = odd1
            append(((_merge_even(even1, even2), odd), c1 * c2))


# the term list of the constant 1
_ONE = ((((), ()), 1),)


class Expression:
    """A normal-form sum of monomials over a fixed signature.

    ``_nums`` holds ``((even, odd), numerator)`` pairs with strictly
    increasing keys and no zero numerator, over the positive denominator
    ``den`` with ``gcd(den, *numerators) == 1``, so two expressions are equal
    iff their signatures, denominators and numerators coincide.  ``terms`` is
    the rational view of the same sum, built on first read.  Instances are
    immutable; all arithmetic returns new normalized values, and
    ``from_terms`` is the one place that sums and sorts terms.  ``_memo``
    fills ``_sweeps`` (left unset here) with the derivative sweep and the
    Euler operator on first use.
    """

    __slots__ = ("sig", "den", "_nums", "_terms", "_sweeps")

    def __init__(self, sig: Signature, terms: Iterable[Monomial]):
        """The normal form of a sum of ``Monomial``s: each is one
        ``sum_of_products`` part, ``coeff`` times the product of its factor
        images ``_power(sig, atom, x)``, even factors then odd ones, in any
        order; an atom that ``sig.atom`` would not build is an
        ``UnknownGeneratorError``."""
        parts = []
        for m in terms:
            coeff = Fraction(m.coeff)
            factors = []
            for atom, x in (*m.even, *((a, 1) for a in m.odd)):
                if not 0 <= atom.gen < len(sig.generators) or atom != sig.atom(
                        sig.generators[atom.gen].name, atom.comp, atom.mindex):
                    raise UnknownGeneratorError(f"{atom} is not an atom of the signature")
                factors.append(_power(sig, atom, x))
            parts.append((coeff.numerator, coeff.denominator, factors))
        e = Expression.sum_of_products(sig, parts)
        _fill(self, sig, e.den, e._nums)

    def __setattr__(self, *args):
        raise AttributeError("Expression is immutable")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_terms(sig: Signature, terms: Iterable[tuple], den: int = 1) -> "Expression":
        """The normal form of a sum of ``((even, odd), numerator)`` pairs over
        the positive integer ``den``: equal keys add up, zero sums drop out,
        keys sort, and one gcd reduces the denominator.  Unchecked: the keys
        must be normal-form keys, with negative exponents only on parameters."""
        acc = {}
        get = acc.get
        for key, c in terms:
            acc[key] = get(key, 0) + c
        # keys (even, odd) are unique, so the sort never reaches a numerator
        live = [item for item in acc.items() if item[1]]
        live.sort()
        if den != 1:
            g = math.gcd(den, *[c for _, c in live])
            if g != 1:
                den //= g
                live = [(key, c // g) for key, c in live]
        return _make(sig, den, tuple(live))

    @staticmethod
    def sum(sig: Signature, parts: Iterable["Expression"]) -> "Expression":
        """Normalized sum of many expressions: one ``sum_of_products`` of
        one-factor parts."""
        return Expression.sum_of_products(sig, [(1, 1, (p,)) for p in parts])

    @staticmethod
    def sum_of_products(sig: Signature, parts: Iterable[tuple]) -> "Expression":
        """The normal form of the sum of ``num/den * f_1 * ... * f_k`` over
        ``parts``, each a ``(num, den, factors)`` triple with integers ``num``
        and ``den > 0`` and a sequence of expressions: the one place that
        brings parts to a common denominator, the lcm of theirs.  The factors
        but the last are multiplied with ``*`` (a zero product ends the part),
        every part's last product goes straight into one ``from_terms`` call,
        and a part of one factor or none adds its terms as they are."""
        products = []  # (num, left terms, right terms or None, denominator of the part)
        for num, den, factors in parts:
            for f in factors:
                if f.sig != sig:
                    raise GeneratorMismatchError("expressions belong to different theories")
            if not num:
                continue
            if len(factors) < 2:
                f = factors[0] if factors else _make(sig, 1, _ONE)
                products.append((num, f._nums, None, den * f.den))
                continue
            left = factors[0]  # the product of the factors but the last
            for f in factors[1:-1]:
                if not left:
                    break
                left = left * f
            if left:
                right = factors[-1]
                products.append((num, left._nums, right._nums, den * left.den * right.den))
        total = math.lcm(*[p[3] for p in products])
        out = []
        for num, left, right, den in products:
            scale = num * (total // den)
            if right is not None:
                _multiply_into(out, left, right, scale)
            else:
                out.extend(left if scale == 1 else [(key, c * scale) for key, c in left])
        return Expression.from_terms(sig, out, total)

    @property
    def terms(self) -> tuple:
        """The rational view: one ``Monomial`` with its exact ``Fraction``
        coefficient per term, in normal-form order; built once and kept."""
        terms = getattr(self, "_terms", None)
        if terms is None:
            den = self.den
            terms = tuple(Monomial(Fraction(c, den), even, odd) for (even, odd), c in self._nums)
            object.__setattr__(self, "_terms", terms)
        return terms

    # -- basic predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, Expression):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.sig.const(other)
        return self.sig == other.sig and self.den == other.den and self._nums == other._nums

    def __hash__(self):
        return hash((self.den, self._nums))

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "Expression":
        # Expression first: isinstance against Fraction goes through its ABC
        if isinstance(other, Expression):
            if other.sig != self.sig:
                raise GeneratorMismatchError("expressions belong to different theories")
            return other
        if isinstance(other, (int, Fraction)):
            return self.sig.const(other)
        raise TypeError(f"cannot combine Expression with {type(other).__name__}")

    def __add__(self, other):
        return Expression.sum(self.sig, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.sig, self.den, tuple((key, -c) for key, c in self._nums))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = []
        _multiply_into(out, self._nums, other._nums, 1)
        return Expression.from_terms(self.sig, out, self.den * other.den)

    def __rmul__(self, other):
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
        for (even, odd), _ in self._nums:
            out.update(a for a, _ in even)
            out.update(odd)
        return out

    def jet_atoms(self) -> set:
        gens = self.sig.generators
        return {a for a in self.atoms() if gens[a.gen].role in JET_ROLES}

    def max_jet_order(self) -> int:
        orders = [a.order for a in self.jet_atoms()]
        return max(orders, default=0)

    def constant_value(self) -> Fraction:
        """The value of a constant expression, else UnknownGeneratorError."""
        if not self._nums:
            return Fraction(0)
        if len(self._nums) == 1 and self._nums[0][0] == ((), ()):
            return Fraction(self._nums[0][1], self.den)
        raise UnknownGeneratorError("expression is not a rational constant")

    def _key_grading(self, key: tuple) -> Grading:
        """Grading of the monomial with key ``(even, odd)``."""
        even, odd = key
        gens = self.sig.generators
        ghost = 0
        afn = 0
        for a, x in even:
            g = gens[a.gen].grading
            ghost += g.ghost * x
            afn += g.antifield * x
        for a in odd:
            g = gens[a.gen].grading
            ghost += g.ghost
            afn += g.antifield
        return Grading(len(odd) % 2, ghost, afn)

    def __repr__(self):
        from .printer import format_expression

        return f"<Expression {format_expression(self)}>"


def _fill(e: Expression, sig: Signature, den: int, nums: tuple):
    object.__setattr__(e, "sig", sig)
    object.__setattr__(e, "den", den)
    object.__setattr__(e, "_nums", nums)


def _make(sig: Signature, den: int, nums: tuple) -> Expression:
    """An expression from numerators already in normal form over ``den``."""
    e = object.__new__(Expression)
    _fill(e, sig, den, nums)
    return e


# ---------------------------------------------------------------------------
# public operations


def _memo(e: Expression, compute) -> dict:
    """``compute(e)``, stored on ``e`` for as long as ``e`` lives."""
    memo = getattr(e, "_sweeps", None)
    if memo is None:
        memo = {}
        object.__setattr__(e, "_sweeps", memo)
    value = memo.get(compute)
    if value is None:
        value = memo[compute] = compute(e)
    return value


def _sweep(e: Expression) -> dict:
    """One pass over the terms: the graded left partial derivative by every
    atom; an odd atom picks up one sign per odd factor standing to its left."""
    buckets = {}
    for (even, odd), c in e._nums:
        for idx, (a, x) in enumerate(even):
            rest = even[:idx] + ((a, x - 1),) if x != 1 else even[:idx]
            buckets.setdefault(a, []).append(((rest + even[idx + 1:], odd), c * x))
        for j, a in enumerate(odd):
            rest = odd[:j] + odd[j + 1:]
            buckets.setdefault(a, []).append(((even, rest), -c if j % 2 else c))
    return {a: Expression.from_terms(e.sig, terms, e.den) for a, terms in buckets.items()}


def partial_derivative(e: Expression, c: Atom) -> Expression:
    """Graded left partial derivative of ``e`` with respect to the atom ``c``:
    a view of the memoized sweep of ``e``."""
    return _memo(e, _sweep).get(c) or e.sig.zero()


def grading_of(e: Expression) -> Grading:
    """Common grading of all terms; errors on zero or mixed expressions."""
    if e.is_zero():
        raise ZeroExpressionGradingError("the zero expression has no definite grading")
    gradings = {e._key_grading(key) for key, _ in e._nums}
    if len(gradings) > 1:
        raise InhomogeneousExpressionError(sorted(gradings, key=str))
    return gradings.pop()


def is_homogeneous_of(e: Expression, grading: Grading) -> bool:
    """True when every term of ``e`` has the given grading (zero passes any)."""
    return all(e._key_grading(key) == grading for key, _ in e._nums)


def homogeneous_components(e: Expression) -> dict:
    """Split an expression into its graded-homogeneous parts, keyed by grading."""
    buckets = {}
    for item in e._nums:
        buckets.setdefault(e._key_grading(item[0]), []).append(item)
    return {g: Expression.from_terms(e.sig, part, e.den) for g, part in buckets.items()}


def parity_ghost_of(e: Expression):
    """Common (parity, ghost number) of all terms, ignoring antifield number.

    BV master actions are homogeneous in parity and ghost number but mix
    antifield numbers, so this is the homogeneity the antibracket demands.
    """
    if e.is_zero():
        raise ZeroExpressionGradingError("the zero expression has no definite grading")
    seen = set()
    for key, _ in e._nums:
        g = e._key_grading(key)
        seen.add((g.parity, g.ghost))
    if len(seen) > 1:
        raise InhomogeneousExpressionError(
            sorted((Grading(p, gh) for p, gh in seen), key=str)
        )
    return seen.pop()


def substitute(e: Expression, bindings: Mapping[Atom, Expression]) -> Expression:
    """Simultaneous substitution of atoms by equally-graded expressions.

    One call builds each factor image ``repl ** x`` once; an unbound factor
    is its own image.  A parameter with a negative exponent ``x`` has the
    image ``invert_monomial(repl) ** -x``, so its replacement must be a
    nonzero constant or a parameter monomial; a parameter bound to 0 that
    occurs with a negative exponent is an error, also in a term that another
    factor makes zero.  A monomial's image is the
    product of its factor images in stored order (even factors, then odd
    ones), starting from the first and stopping at the first zero prefix;
    monomials share no products.  Each monomial is one ``sum_of_products``
    part, the product of its factors but the last and its last image, and
    the monomials with no bound factor are one more part, copied as they
    are.
    ``theory.evaluate_density`` is checked against this.
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
    zero = {a for a, repl in bound.items() if not repl}
    if zero:
        negative = [a for (even, _), _ in e._nums for a, x in even if x < 0 and a in zero]
        if negative:
            raise GradingViolationError(f"parameter {sig.generators[min(negative).gen].name!r} "
                                        "is bound to 0 but occurs with a negative exponent")

    images = {}

    def image(factor) -> Expression:
        f = images.get(factor)
        if f is None:
            a, x = factor
            repl = bound.get(a)
            if repl is None:
                f = _power(sig, a, x)
            elif x >= 0:
                f = repl ** x
            else:
                try:
                    f = invert_monomial(repl) ** -x
                except GradingViolationError:
                    raise GradingViolationError(
                        "cannot substitute a parameter occurring with a negative exponent"
                    ) from None
            images[factor] = f
        return f

    kept = []  # monomials with no bound factor, as they are
    parts = []  # (numerator, e's denominator, (image of the factors but the last, last image))
    for item in e._nums:
        (even, odd), c = item
        if not any(a in bound for a, _ in even) and not any(a in bound for a in odd):
            kept.append(item)
            continue
        *head, last = even + tuple((a, 1) for a in odd)
        prefix = None
        for factor in head:
            prefix = image(factor) if prefix is None else prefix * image(factor)
            if not prefix:
                break
        else:
            parts.append((c, e.den, (image(last),) if prefix is None else (prefix, image(last))))
    if kept:
        parts.append((1, e.den, (_make(sig, 1, tuple(kept)),)))
    return Expression.sum_of_products(sig, parts)


def _power(sig: Signature, atom: Atom, exponent: int) -> Expression:
    """``atom ** exponent``, the one builder of a one-factor expression: 1 for
    exponent 0, 0 for an odd atom squared, and a negative exponent only on a
    parameter (a Laurent monomial, which arises on-shell)."""
    gen = sig.generators[atom.gen]
    if exponent < 0 and gen.role != PARAM:
        raise GradingViolationError("negative exponents are reserved for parameters")
    if exponent == 0:
        return _make(sig, 1, _ONE)
    if gen.grading.parity == ODD:
        return _make(sig, 1, ((((), (atom,)), 1),) if exponent == 1 else ())
    return _make(sig, 1, (((((atom, exponent),), ()), 1),))


def invert_monomial(e: Expression) -> Expression:
    """Inverse of a single monomial whose atoms are all parameters."""
    if len(e._nums) != 1:
        raise GradingViolationError("only parameter monomials are invertible")
    (even, odd), c = e._nums[0]
    sig = e.sig
    if odd or any(sig.generators[a.gen].role != PARAM for a, _ in even):
        raise GradingViolationError("only parameter monomials are invertible")
    inverse = Fraction(e.den, c)
    key = (tuple((a, -x) for a, x in even), ())
    return Expression.from_terms(sig, ((key, inverse.numerator),), inverse.denominator)
