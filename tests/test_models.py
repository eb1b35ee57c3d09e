"""Built-in models: listing, sources, and the checks on each builtin that no
other test makes at that model and dimension (the Newton equation, the
Noether identities, the master equation at n = 2 and Koszul-Tate nilpotence
at the default dimensions are in ``test_acceptance.py``)."""

import pathlib

import pytest

from jetvar.bv import BVExtension, brst_apply, check_master_equation, koszul_tate_apply
from jetvar.core import partial_derivative
from jetvar.errors import ParseError, UnknownGeneratorError
from jetvar.models import builtin, list_models, model_source
from jetvar.parser import parse_model
from jetvar.theory import EvolutionaryVF, euler_lagrange_system, is_symmetry

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_listing():
    names = list_models()
    for required in ("free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"):
        assert required in names


def _kt_nilpotent(bv) -> bool:
    return all(koszul_tate_apply(bv, koszul_tate_apply(bv, expr)).is_zero()
               for expr in bv.generator_expressions().values())


@pytest.mark.parametrize("name, dim", [("maxwell", 2), ("maxwell", 3), ("maxwell", 4),
                                       ("yang_mills_su2", 2), ("yang_mills_su2", 3)])
def test_brst_image_of_the_fields_is_a_symmetry(name, dim):
    bv = builtin(name, dim=dim).bv
    sig = bv.signature
    chars = {(field, comp): brst_apply(bv, sig.from_atom(sig.atom(field, comp)))
             for field, comp in bv.theory.field_components()}
    assert is_symmetry(bv.theory, EvolutionaryVF(bv.theory, chars))


def test_unknown_model():
    with pytest.raises(UnknownGeneratorError):
        builtin("gravity")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_maxwell_dimensions(dim):
    bv = builtin("maxwell", dim=dim).bv
    assert bv.signature.nvars == dim
    if dim > 2:  # test_criterion_8 checks n = 2
        assert _kt_nilpotent(bv)


def test_yang_mills_higher_dimension():
    bv = builtin("yang_mills_su2", dim=3).bv
    assert check_master_equation(bv).holds
    assert _kt_nilpotent(bv)


def test_bad_gauge_dimension():
    with pytest.raises(UnknownGeneratorError):
        builtin("maxwell", dim=5)
    with pytest.raises(UnknownGeneratorError):
        builtin("free_particle", dim=2)


def test_configurable_potential():
    desc = builtin("free_particle", potential="u[1]^4 + 1/2*u[2]^2")
    assert check_master_equation(desc.bv).holds
    assert _kt_nilpotent(desc.bv)
    sig = desc.theory.signature
    el = euler_lagrange_system(desc.theory)
    m = sig.from_atom(sig.atom("m"))
    potential = desc.theory.parse("u[1]^4 + 1/2*u[2]^2")
    for i in (1, 2, 3):  # Newton: EL_i = -m u_i'' - dV/du_i, with u[3] free
        assert el[("u", (i,))] == (-(m * sig.coord("u", (i,), d=("t", "t")))
                                   - partial_derivative(potential, sig.atom("u", (i,))))


def test_potential_is_parsed_on_its_own():
    # spliced into "- (...)", this one would read as the potential u[1] - u[2]
    for build in (builtin, model_source):
        with pytest.raises(ParseError, match=r"^6:51: unexpected trailing '\)'$"):
            build("free_particle", potential="u[1]) + (u[2]")


@pytest.mark.parametrize("name", ["free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"])
def test_shipped_files_match_builtins(name):
    """The files under models/ round-trip through the parser to the builtins."""
    text = (MODELS_DIR / f"{name}.jv").read_text()
    assert text == model_source(name)
    parsed = parse_model(text)
    desc = builtin(name)
    if isinstance(parsed, BVExtension):
        assert parsed.base == desc.theory
        assert parsed.master_action.expr == desc.bv.master_action.expr
    else:
        assert parsed == desc.theory


def test_demo_file_parses():
    theory = parse_model((MODELS_DIR / "free.jv").read_text())
    assert [g.name for g in theory.signature.generators] == ["t", "m", "u"]
