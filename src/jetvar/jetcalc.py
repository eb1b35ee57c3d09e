"""Total derivatives, variational derivatives, and the divergence decision.

All functions act on normal-form expressions; the theory-level wrappers in
``jetvar.theory`` add the bookkeeping around densities and functionals.

The Euler operator rests on the kernel's sweep (``core._sweep``): a single
pass over the terms gives every graded left partial derivative, and from those
of the jet atoms come all left variational derivatives at once.  They are
memoized on the expression for as long as it lives, and so are the partials
if something reads them directly (``prolong_apply`` and
``partial_derivative`` do); ``variational_derivative`` is a view of one
component.  Right derivatives are signs of these (see ``jetvar.core``).

The divergence test uses the kernel criterion: over a free (graded) jet
algebra with polynomial base coefficients the variational complex is exact,
so a density is a total divergence exactly when every variational derivative
vanishes.  The one-variable witness is constructed by peeling: the top jet
coordinate of a true divergence always enters linearly, and integrating its
coefficient recovers, monomial block by monomial block, the potential it came
from, so the loop strictly shrinks the remaining witness.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple, Union

from .core import (
    Atom,
    Expression,
    JET_ROLES,
    ODD,
    PARAM,
    VAR,
    _memo,
    _sweep,
    partial_derivative,
)
from .errors import (
    NotADivergenceError,
    UnknownGeneratorError,
    UnsupportedDimensionError,
    ZeroVariablesError,
)

VarRef = Union[str, int]


def _var_pos(e: Expression, var: VarRef) -> int:
    if isinstance(var, str):
        return e.sig.var_position(var)
    if not 0 <= var < e.sig.nvars:
        raise UnknownGeneratorError(f"variable position {var} out of range")
    return var


def total_derivative(e: Expression, var: VarRef) -> Expression:
    """D_i e: shift jet coordinates and differentiate explicit base variables."""
    sig = e.sig
    pos = _var_pos(e, var)
    var_gid = sig.var_generator_id(pos)
    gens = sig.generators
    out = []
    for (even, odd), c in e._nums:
        for idx, (a, x) in enumerate(even):
            role = gens[a.gen].role
            if role == PARAM:
                continue
            if x != 1:
                lowered = even[:idx] + ((a, x - 1),) + even[idx + 1:]
            else:
                lowered = even[:idx] + even[idx + 1:]
            if role == VAR:
                if a.gen == var_gid:
                    out.append(((lowered, odd), c * x))
                continue
            shifted = sig.shift_atom(a, pos)
            out.append(((_merge_one_even(lowered, shifted), odd), c * x))
        for j, a in enumerate(odd):
            shifted = sig.shift_atom(a, pos)
            others = odd[:j] + odd[j + 1:]
            placed = _insert_odd(others, shifted, j)
            if placed is None:
                continue
            new_odd, sign = placed
            out.append(((even, new_odd), c * sign))
    return Expression.from_terms(sig, out, e.den)


def _merge_one_even(even: tuple, atom: Atom) -> tuple:
    """Insert one even atom (exponent 1) into a sorted factor list."""
    for idx, (a, x) in enumerate(even):
        if a == atom:
            return even[:idx] + ((a, x + 1),) + even[idx + 1:]
        if a > atom:
            return even[:idx] + ((atom, 1),) + even[idx:]
    return even + ((atom, 1),)


def _insert_odd(others: tuple, atom: Atom, removed_at: int):
    """Place ``atom`` into the sorted tuple ``others``; None if it already occurs."""
    p = 0
    for a in others:
        if a == atom:
            return None
        if a < atom:
            p += 1
        else:
            break
    new = others[:p] + (atom,) + others[p:]
    sign = -1 if (p - removed_at) % 2 else 1
    return new, sign


def apply_multi_derivative(e: Expression, mindex: Sequence[int]) -> Expression:
    """D_alpha for a multi-index of per-variable counts."""
    for pos, count in enumerate(mindex):
        for _ in range(count):
            e = total_derivative(e, pos)
    return e


def _euler(e: Expression) -> dict:
    """Every left variational derivative, keyed by (generator id, component);
    the partials are kept only if something read them."""
    jet = [g.role in JET_ROLES for g in e.sig.generators]
    parts = {}
    partials = e._sweeps.get(_sweep) or _sweep(e)
    for atom, partial in partials.items():
        if jet[atom.gen]:
            term = apply_multi_derivative(partial, atom.mindex)
            parts.setdefault((atom.gen, atom.comp), []).append(((-1) ** atom.order, 1, (term,)))
    return {key: Expression.sum_of_products(e.sig, terms) for key, terms in parts.items()}


def variational_derivative(e: Expression, name: str, comp: Sequence[int] = ()) -> Expression:
    """Left Euler-Lagrange derivative of a density with respect to one component.

    Sum over occurring multi-indices of (-1)^|alpha| D_alpha of the graded
    left partial derivative.  A view of one component of the memoized Euler
    operator of ``e``.
    """
    sig = e.sig
    gid = sig.generator_id(name)
    if sig.generators[gid].role not in JET_ROLES:
        raise UnknownGeneratorError(f"{name!r} is not a field, ghost, or antifield")
    return _memo(e, _euler).get((gid, tuple(comp)), sig.zero())


def prolong_apply(
    characteristics: Mapping[Tuple[str, tuple], Expression], e: Expression
) -> Expression:
    """Apply the evolutionary derivation with the given characteristics to ``e``.

    ``characteristics`` maps (generator name, component) to the expression Q
    assigned to that undifferentiated coordinate; the result is the sum over
    jet atoms u_alpha of D_alpha(Q) * dL e/du_alpha, the derivation that
    commutes with every D_i (a symmetry's prolongation, d_KT and X_F alike).
    Each ``(D_alpha Q, partial)`` pair is one ``Expression.sum_of_products`` part.
    """
    sig = e.sig
    by_id = {(sig.generator_id(n), tuple(c)): q for (n, c), q in characteristics.items()
             if sig.generator(n).role in JET_ROLES}
    parts = []
    for atom, partial in _memo(e, _sweep).items():
        q = by_id.get((atom.gen, atom.comp))
        if q:
            parts.append((1, 1, (apply_multi_derivative(q, atom.mindex), partial)))
    return Expression.sum_of_products(sig, parts)


def is_total_divergence(e: Expression) -> bool:
    """True iff every variational derivative of the density vanishes, read
    from its memoized Euler operator."""
    if e.sig.nvars == 0:
        raise ZeroVariablesError("the theory declares no independent variables")
    return not any(_memo(e, _euler).values())


def ibp_equal(e1: Expression, e2: Expression) -> bool:
    """Equality of densities modulo total divergences."""
    return is_total_divergence(e1 - e2)


def _antiderivative_even(e: Expression, atom: Atom) -> Expression:
    """Formal antiderivative of ``e`` in one even atom: b^k -> b^(k+1)/(k+1),
    one ``Expression.sum_of_products`` part per new divisor k + 1."""
    groups = {}  # new divisor -> terms
    for (even, odd), c in e._nums:
        k = 1 + next((x for a, x in even if a == atom), 0)
        groups.setdefault(k, []).append(((_merge_one_even(even, atom), odd), c))
    return Expression.sum_of_products(e.sig, [
        (1, k, (Expression.from_terms(e.sig, terms, e.den),)) for k, terms in groups.items()])


_WITNESS_BUDGET = 100_000


def divergence_witness(e: Expression) -> dict:
    """Construct F with D_t F = e in a one-variable theory.

    Peels the top jet coordinate: its coefficient is integrated in the
    once-lower coordinate, the resulting block is subtracted, and the
    remainder recursed on; the leftover base polynomial is integrated
    directly.  Raises if the theory has more than one variable or the density
    is not a divergence.
    """
    sig = e.sig
    if sig.nvars == 0:
        raise ZeroVariablesError("the theory declares no independent variables")
    if sig.nvars != 1:
        raise UnsupportedDimensionError(
            "divergence witnesses are only constructed for one independent variable"
        )
    if not is_total_divergence(e):
        raise NotADivergenceError("density is not a total divergence")

    blocks = []
    remainder = e
    for _ in range(_WITNESS_BUDGET):
        jets = remainder.jet_atoms()
        if not jets:
            break
        r = max(a.order for a in jets)
        top = max(a for a in jets if a.order == r)
        coeff = partial_derivative(remainder, top)
        if top in coeff.atoms() or coeff.max_jet_order() > r - 1:
            raise NotADivergenceError(
                "top jet coordinate does not enter linearly; no witness exists"
            )
        below = Atom(top.gen, top.comp, r - 1, (r - 1,))
        if sig.atom_grading(top).parity == ODD:
            if below in coeff.atoms():
                raise NotADivergenceError(
                    "odd coordinate coefficient is not integrable; no witness exists"
                )
            block = sig.from_atom(below) * coeff
        else:
            block = _antiderivative_even(coeff, below)
        blocks.append(block)
        remainder = remainder - total_derivative(block, 0)
    else:
        raise NotADivergenceError("witness construction exceeded its budget")

    if remainder:
        var_atom = sig.atom(sig.variables[0].name)
        blocks.append(_antiderivative_even(remainder, var_atom))
    return {sig.variables[0].name: Expression.sum(sig, blocks)}
