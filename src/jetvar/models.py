"""Built-in example theories; they double as the acceptance corpus.

Every builtin is defined by its model-file source and constructed through the
parser, so the shipped files and the in-memory descriptors cannot drift
apart.  What each builtin satisfies (its EL system, gauge identities, master
equation and Koszul-Tate nilpotence) is checked by the test suite.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bv import BVExtension, extend_to_bv
from .errors import UnknownGeneratorError
from .theory import Theory

_VAR_NAMES = ("t", "x", "y", "z")
_GAUGE_DIMS = (2, 3, 4)


def _base_lines(dim: int) -> str:
    names = ", ".join(_VAR_NAMES[:dim])
    metric = ", ".join(["1"] + ["-1"] * (dim - 1))
    return f"vars {names}\nmetric diag({metric})\n"


def free_particle_source(potential: Optional[str] = None) -> str:
    lines = [
        "# non-relativistic particle in a polynomial potential",
        "vars t",
        "metric diag(1)",
        "params m",
        "field u[1..3]",
    ]
    lagrangian = "lagrangian 1/2 * m * d(u[i];t) * d(u[i];t)"
    if potential:
        lagrangian += f" - ({potential})"
    lines.append(lagrangian)
    return "\n".join(lines) + "\n"


def scalar_phi4_source(dim: int = 2) -> str:
    return (
        "# self-interacting scalar field\n"
        + _base_lines(dim)
        + "params m, g\n"
        + "field phi\n"
        + "lagrangian 1/2 * d(phi;mu)*d(phi;mu) - 1/2 * m * phi^2 - 1/24 * g * phi^4\n"
    )


def maxwell_source(dim: int = 2) -> str:
    return (
        "# pure electromagnetism\n"
        + _base_lines(dim)
        + "field A[dim]\n"
        + "ghost C\n"
        + "def F[mu,nu] = d(A[nu];mu) - d(A[mu];nu)\n"
        + "lagrangian -1/4 * F[mu,nu]*F[mu,nu]\n"
        + "gauge C: -d(EL(A[nu]); nu)\n"
        + "master -1/4 * F[mu,nu]*F[mu,nu] + A*[mu] * d(C;mu)\n"
    )


def yang_mills_su2_source(dim: int = 2) -> str:
    return (
        "# su(2) Yang-Mills, structure constants eps[a,b,c]\n"
        + _base_lines(dim)
        + "field A[1..3, dim]\n"
        + "ghost C[1..3]\n"
        + "def F[a,mu,nu] = d(A[a,nu];mu) - d(A[a,mu];nu) + eps[a,b,c]*A[b,mu]*A[c,nu]\n"
        + "lagrangian -1/4 * F[a,mu,nu]*F[a,mu,nu]\n"
        + "gauge C[g]: -d(EL(A[g,nu]); nu) - eps[g,a,c]*A[a,nu]*EL(A[c,nu])\n"
        + "master -1/4 * F[a,mu,nu]*F[a,mu,nu] + A*[a,mu]*d(C[a];mu)"
        + " - eps[g,a,c]*A*[c,mu]*A[a,mu]*C[g]"
        + " + 1/2 * eps[a,b,c]*C*[a]*C[b]*C[c]\n"
    )


_SOURCES = {
    "free_particle": free_particle_source,
    "scalar_phi4": scalar_phi4_source,
    "maxwell": maxwell_source,
    "yang_mills_su2": yang_mills_su2_source,
}


class ModelDescriptor(NamedTuple):
    name: str
    source: str
    theory: Theory
    bv: Optional[BVExtension]


def list_models():
    """Names of the built-in models."""
    return sorted(_SOURCES)


def model_source(name: str, dim: Optional[int] = None, potential: Optional[str] = None) -> str:
    """The model-file text of a builtin."""
    if name not in _SOURCES:
        raise UnknownGeneratorError(f"unknown model {name!r}")
    kwargs = {}
    if name == "free_particle":
        if dim is not None:
            raise UnknownGeneratorError("free_particle has a fixed one-dimensional base")
        if potential is not None:
            kwargs["potential"] = potential
    else:
        if potential is not None:
            raise UnknownGeneratorError(f"{name} takes no potential")
        if dim is not None:
            if name != "scalar_phi4" and dim not in _GAUGE_DIMS:
                raise UnknownGeneratorError(f"{name} supports base dimensions {_GAUGE_DIMS}")
            if not 1 <= dim <= len(_VAR_NAMES):
                raise UnknownGeneratorError(f"base dimension {dim} not supported")
            kwargs["dim"] = dim
    source = _SOURCES[name](**kwargs)
    if potential:
        _check_potential(source, potential)
    return source


def _check_potential(source: str, potential: str):
    """Parse the model, then the potential alone over its signature, so a
    potential that parses only once spliced into ``- (...)`` is an error;
    positions in an error point into ``source``."""
    from .parser import parse_expression, parse_model

    theory = parse_model(source)
    start = source.rindex(f"({potential})") + 1
    line = source.count("\n", 0, start) + 1
    parse_expression(potential, theory, line, start - source.rfind("\n", 0, start))


def builtin(name: str, dim: Optional[int] = None, potential: Optional[str] = None) -> ModelDescriptor:
    """Construct a built-in model through the frontend parser."""
    from .parser import parse_model

    source = model_source(name, dim=dim, potential=potential)
    parsed = parse_model(source)
    if isinstance(parsed, BVExtension):
        theory, bv = parsed.base, parsed
    else:
        theory, bv = parsed, extend_to_bv(parsed, [])
    return ModelDescriptor(name, source, theory, bv)

