"""Built-in models and their expected tables."""

import pathlib

import pytest

from jetvar.bv import BVExtension
from jetvar.errors import ParseError, UnknownGeneratorError
from jetvar.models import builtin, list_models, model_source, run_checks
from jetvar.parser import parse_model

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_listing():
    names = list_models()
    for required in ("free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"):
        assert required in names


@pytest.mark.parametrize("name", ["free_particle", "scalar_phi4", "maxwell", "yang_mills_su2"])
def test_expected_tables_verified(name):
    desc = builtin(name)
    assert run_checks(desc) == desc.expected


def test_unknown_model():
    with pytest.raises(UnknownGeneratorError):
        builtin("gravity")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_maxwell_dimensions(dim):
    desc = builtin("maxwell", dim=dim)
    assert desc.theory.signature.nvars == dim
    assert run_checks(desc) == desc.expected


def test_yang_mills_higher_dimension():
    desc = builtin("yang_mills_su2", dim=3)
    assert run_checks(desc) == desc.expected


def test_bad_gauge_dimension():
    with pytest.raises(UnknownGeneratorError):
        builtin("maxwell", dim=5)
    with pytest.raises(UnknownGeneratorError):
        builtin("free_particle", dim=2)


def test_configurable_potential():
    desc = builtin("free_particle", potential="u[1]^4 + 1/2*u[2]^2")
    assert run_checks(desc) == desc.expected
    from jetvar.theory import euler_lagrange_system

    sig = desc.theory.signature
    el = euler_lagrange_system(desc.theory)
    m = sig.from_atom(sig.atom("m"))
    u1 = sig.coord("u", (1,))
    assert el[("u", (1,))] == -(m * sig.coord("u", (1,), d=("t", "t"))) - u1 ** 3 * 4


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
