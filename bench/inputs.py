"""Seeded input generation for the benchmark workloads.

The generators here are the benchmark's own: they are modelled on the random
expression helper of the test suite but do not import it, so an edit to the
tests never changes what the benchmark measures.  Every function draws only
from the ``random.Random`` it is given, so one seed always yields the same
inputs.  ``serialize`` renders an input as text for the byte-identity
self-test, and ``digest64`` reduces that text to the small fingerprint kept
for repeat detection, so bookkeeping does not grow the measured memory.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from jetvar import (
    FIELD,
    ODD,
    Generator,
    Grading,
    Section,
    Signature,
    Theory,
    VAR,
    format_expression,
    total_derivative,
)

VAR_NAMES = ("t", "x", "y", "z")


def rational(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    """A nonzero rational with bounded numerator and denominator."""
    value = Fraction(rng.randint(-num, num), rng.randint(1, den))
    return value if value else Fraction(1)


def graded_signature(nvars: int) -> Signature:
    """Even fields u[1..3] and odd fields psi[1..2] over ``nvars`` variables."""
    gens = [Generator(name, VAR) for name in VAR_NAMES[:nvars]]
    gens.append(Generator("u", FIELD, index_ranges=((1, 3),)))
    gens.append(Generator("psi", FIELD, index_ranges=((1, 2),), grading=Grading(ODD, 0)))
    return Signature(gens, [1] + [-1] * (nvars - 1))


def random_mindex(sig: Signature, rng: random.Random, max_order: int) -> tuple:
    counts = [0] * sig.nvars
    for _ in range(rng.randint(0, max_order)):
        counts[rng.randrange(sig.nvars)] += 1
    return tuple(counts)


def random_density(
    sig: Signature,
    rng: random.Random,
    max_terms: int,
    max_order: int,
    max_factors: int,
    max_exp: int = 2,
    base_share: float = 0.2,
):
    """A random graded polynomial in the field jets and the base variables.

    Odd jet factors enter with exponent one, so products of them exercise the
    Koszul signs of the kernel; ``base_share`` is the chance that a factor is
    a base variable instead of a jet coordinate.
    """
    fields = [g for g in sig.generators if g.role == FIELD]
    expr = sig.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = sig.const(rational(rng))
        for _ in range(rng.randint(1, max_factors)):
            if rng.random() < base_share:
                var = rng.choice(sig.variables)
                term = term * sig.coord(var.name) ** rng.randint(1, max_exp)
                continue
            gen = rng.choice(fields)
            comp = tuple(rng.randint(lo, hi) for lo, hi in gen.index_ranges)
            atom = sig.from_atom(sig.atom(gen.name, comp, random_mindex(sig, rng, max_order)))
            if gen.grading.parity == ODD:
                term = term * atom
            else:
                term = term * atom ** rng.randint(1, max_exp)
        expr = expr + term
    return expr


def divergence_input(sig: Signature, rng: random.Random, defect: bool):
    """``sum_i D_i F^i``, plus a term of nonzero variational derivative when ``defect``.

    The defect is one of c*u[k]^p, c*u[k]*t^j or c*psi[1]*psi[2]*u[k]: its
    variational derivative with respect to u[k] or psi[1] is visibly nonzero,
    and the divergence part contributes nothing to any variational
    derivative, so the verdict is known by construction.
    """
    while True:
        e = sig.zero()
        for pos in range(sig.nvars):
            flux = random_density(sig, rng, max_terms=3, max_order=2, max_factors=3)
            e = e + total_derivative(flux, pos)
        if e:
            break
    if defect:
        c = sig.const(rational(rng))
        k = rng.randint(1, 3)
        u = sig.coord("u", (k,))
        kind = rng.randrange(3)
        if kind == 0:
            extra = c * u ** rng.randint(2, 3)
        elif kind == 1:
            extra = c * u * sig.coord(sig.variables[0].name) ** rng.randint(0, 2)
        else:
            extra = c * sig.coord("psi", (1,)) * sig.coord("psi", (2,)) * u
        e = e + extra
    return e


def poly_expression(sig, poly: dict):
    """The jetvar expression of a dense-dict polynomial in the base variables."""
    names = [v.name for v in sig.variables]
    expr = sig.zero()
    for exps, c in sorted(poly.items()):
        term = sig.const(c)
        for name, e in zip(names, exps):
            if e:
                term = term * sig.coord(name) ** e
        expr = expr + term
    return expr


def random_poly(nvars: int, rng: random.Random, max_terms: int, max_degree: int) -> dict:
    """A nonzero polynomial in ``nvars`` base variables as {exponents: coefficient}."""
    poly = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + rational(rng, 5, 3)
    return {e: c for e, c in poly.items() if c} or {(0,) * nvars: Fraction(1)}


def random_box(sig: Signature, rng: random.Random) -> dict:
    """A rational box with one nonempty interval per base variable."""
    box = {}
    for var in sig.variables:
        lo = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        box[var.name] = (lo, lo + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    return box


def random_potential(sig: Signature, rng: random.Random):
    """A polynomial potential in u[1..3] of degree at most three."""
    v = sig.zero()
    for _ in range(rng.randint(1, 4)):
        term = sig.const(rational(rng, 5, 3))
        for _ in range(rng.randint(1, 3)):
            term = term * sig.coord("u", (rng.randint(1, 3),))
        v = v + term
    return v


def serialize(value) -> str:
    """Deterministic text for an input: expressions through the printer."""
    if hasattr(value, "terms") and hasattr(value, "sig"):
        return format_expression(value)
    if isinstance(value, Section):
        return ";".join(
            f"{name}{list(comp)}={format_expression(poly)}"
            for (name, comp), poly in sorted(value.values.items())
        )
    if isinstance(value, Theory):
        return format_expression(value.lagrangian)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{serialize(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(serialize(v) for v in value) + ")"
    return str(value)


def digest64(text: str) -> int:
    """64-bit fingerprint of an input's text."""
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
