"""Expression grammar, Einstein expansion, model files, and error positions."""

import ast
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from jetvar import parser
from jetvar.bv import BVExtension
from jetvar.core import EVEN, Expression, Grading, grading_of
from jetvar.errors import (
    IndexRangeError,
    ParseError,
    UndeclaredIdentifierError,
)
from jetvar.models import builtin, model_source
from jetvar.parser import parse_assignments, parse_expression, parse_model, parse_operator
from jetvar.theory import NoetherOperator, Theory


@pytest.fixture
def free(mech):
    return mech  # vars t, param m, field u, ghosts th1 th2


class TestGrammar:
    def test_rationals_and_powers(self, free):
        sig = free.signature
        assert parse_expression("2/3", free) == sig.const(Fraction(2, 3))
        assert parse_expression("d(u;t)^2", free) == sig.coord("u", d=("t",)) ** 2

    def test_unary_minus_binds_the_power(self, free):
        sig = free.signature
        assert parse_expression("-u^2", free) == -(sig.coord("u") ** 2)

    def test_nested_derivatives(self, free):
        assert parse_expression("d(d(u;t);t)", free) == free.signature.coord(
            "u", d=("t", "t")
        )

    def test_product_requires_explicit_star(self, free):
        with pytest.raises(ParseError):
            parse_expression("2 u", free)

    def test_parenthesized_sums(self, free):
        sig = free.signature
        u, ut = sig.coord("u"), sig.coord("u", d=("t",))
        assert parse_expression("(u + d(u;t)) * u", free) == u * u + ut * u

    def test_negative_exponent_on_parameter(self, free):
        sig = free.signature
        m = sig.from_atom(sig.atom("m"))
        assert parse_expression("m^-1", free) * m == sig.one()
        with pytest.raises(ParseError):
            parse_expression("u^-1", free)

    def test_antifield_lexing(self):
        bv = builtin("maxwell", dim=2).bv
        sig = bv.signature
        e = parse_expression("A*[0] * d(C;t)", bv)
        assert e == sig.from_atom(sig.atom("A*", (0,))) * sig.coord("C", d=("t",))
        assert grading_of(e) == Grading(EVEN, 0, 1)

    def test_star_before_operand_is_multiplication(self, free):
        sig = free.signature
        u = sig.coord("u")
        assert parse_expression("u*u", free) == u * u
        assert parse_expression("u*2", free) == u * 2
        assert parse_expression("u*(u)", free) == u * u


class TestEinstein:
    def test_metric_contraction(self):
        theory = builtin("scalar_phi4").theory
        sig = theory.signature
        pt = sig.coord("phi", d=("t",))
        px = sig.coord("phi", d=("x",))
        # metric diag(1,-1): repeated derivative pair sums with inverse factors
        assert parse_expression("d(phi;mu)*d(phi;mu)", theory) == pt * pt - px * px

    def test_trace_within_one_factor(self):
        theory = builtin("maxwell", dim=2).theory
        # F[mu,mu] is antisymmetric, so its metric trace vanishes
        bv_src = "d(A[mu];mu)"
        e = parse_expression(bv_src, theory)
        sig = theory.signature
        assert e == sig.coord("A", (0,), d=("t",)) - sig.coord("A", (1,), d=("x",))

    def test_plain_range_summation(self):
        theory = builtin("free_particle").theory
        sig = theory.signature
        total = sig.zero()
        for i in (1, 2, 3):
            total = total + sig.coord("u", (i,)) ** 2
        assert parse_expression("u[i]*u[i]", theory) == total

    def test_factor_permutation_respects_koszul_law(self):
        bv = builtin("maxwell", dim=2).bv
        a = parse_expression("A*[mu] * d(C;mu)", bv)
        b = parse_expression("d(C;mu) * A*[mu]", bv)
        assert b == -a  # both factors are odd
        theory = builtin("scalar_phi4").theory
        c = parse_expression("d(phi;mu)*d(phi;mu)", theory)
        d = parse_expression("d(phi;mu)*d(phi;mu)", theory)
        assert c == d

    def test_eps_symbol(self):
        theory = builtin("yang_mills_su2", dim=2).theory
        sig = theory.signature
        e = parse_expression("eps[a,b,c]*A[a,0]*A[b,0]*A[c,0]", theory)
        assert e.is_zero()  # symmetric contraction against eps
        f = parse_expression("eps[1,2,3]", theory)
        assert f == sig.one()
        assert parse_expression("eps[2,1,3]", theory) == -sig.one()
        assert parse_expression("eps[1,1,3]", theory).is_zero()

    def test_letter_bound_by_an_enclosing_product(self):
        # a product contracts its own repeated letters: each spelling is (sum u_i^2)^2
        theory = builtin("free_particle").theory
        sig = theory.signature
        square = Expression.sum(sig, [sig.coord("u", (i,)) ** 2 for i in (1, 2, 3)])
        for text in ("u[i]*(u[i]*(u[i]*u[i]))", "(u[i]*u[i])*(u[i]*u[i])", "u[i]*u[i]*(u[i]*u[i])"):
            assert parse_expression(text, theory) == square * square, text

    def test_too_many_occurrences(self, free):
        theory = builtin("free_particle").theory
        with pytest.raises(ParseError):
            parse_expression("u[i]*u[i]*u[i]", theory)

    def test_unbound_letter(self):
        theory = builtin("free_particle").theory
        with pytest.raises(ParseError):
            parse_expression("u[i]", theory)

    def test_letters_forbidden_under_exponent(self):
        theory = builtin("free_particle").theory
        with pytest.raises(ParseError):
            parse_expression("u[i]^2", theory)

    def test_bound_letters_are_never_summed(self):
        # a def parameter or a left-side letter takes its value wherever it
        # appears, also under '^', and need not occur in every summand
        theory = parse_model(
            "vars t\nfield u[1..3]\ndef sq[a] = u[a]*u[a]\nlagrangian sq[1] + 2*sq[2] + 3*sq[3]\n"
        )
        u = [theory.signature.coord("u", (i,)) for i in (1, 2, 3)]
        assert theory.lagrangian == u[0] ** 2 + u[1] ** 2 * 2 + u[2] ** 2 * 3
        particle = builtin("free_particle").theory
        sig = particle.signature
        t = sig.coord("t")
        for text, value in [
            ("u[a]=u[a]*u[a] + u[a]", lambda x: x * x + x),
            ("u[a]=u[a] + t", lambda x: x + t),
            ("u[a]=u[a]^2", lambda x: x * x),
            ("u[a]=(u[a]*u[a])^2", lambda x: x ** 4),
        ]:
            expected = {("u", (i,)): value(sig.coord("u", (i,))) for i in (1, 2, 3)}
            assert parse_assignments(text, particle) == expected, text
        with pytest.raises(ParseError, match="summands expose different free index letters"):
            parse_assignments("u[a]=u[a] + u[b]", particle)


class TestErrors:
    def test_caret_position_on_unclosed_paren(self, free):
        with pytest.raises(ParseError) as err:
            parse_expression("d(u;t", free)
        assert err.value.line == 1
        assert err.value.column == 6

    def test_component_out_of_range_position(self):
        theory = builtin("free_particle").theory
        with pytest.raises(IndexRangeError) as err:
            parse_expression("u[1] + u[5]", theory)
        assert err.value.line == 1
        assert err.value.column == 10

    def test_undeclared_identifier(self, free):
        with pytest.raises(UndeclaredIdentifierError):
            parse_expression("qq + u", free)

    def test_metric_dimension_mismatch(self):
        bad = "vars t, x\nmetric diag(1)\nfield u\nlagrangian u\n"
        with pytest.raises(ParseError):
            parse_model(bad)

    def test_declarations_precede_use(self):
        bad = "vars t\nfield u\nlagrangian u * v\nfield v\n"
        with pytest.raises(ParseError):
            parse_model(bad)


class TestModelFiles:
    def test_plain_theory(self):
        theory = parse_model(
            "vars t\nmetric diag(1)\nparams m\nfield u[1..3]\n"
            "lagrangian 1/2 * m * d(u[i];t) * d(u[i];t)\n"
        )
        assert isinstance(theory, Theory)
        assert theory.signature.nvars == 1

    def test_gauge_returns_bv(self):
        parsed = parse_model(builtin("maxwell", dim=2).source)
        assert isinstance(parsed, BVExtension)

    def test_defaults_without_metric(self):
        theory = parse_model("vars t\nfield u\nlagrangian d(u;t)^2\n")
        assert theory.signature.metric == (Fraction(1),)

    def test_def_inlining(self):
        theory = parse_model(
            "vars t\nfield u\ndef K = d(u;t)^2\nlagrangian 1/2 * K\n"
        )
        sig = theory.signature
        assert theory.lagrangian == sig.coord("u", d=("t",)) ** 2 * Fraction(1, 2)

    def test_line_continuation(self):
        theory = parse_model(
            "vars t\nfield u\nlagrangian d(u;t)^2 \\\n + u^2\n"
        )
        sig = theory.signature
        assert theory.lagrangian == sig.coord("u", d=("t",)) ** 2 + sig.coord("u") ** 2

    def test_duplicate_field(self):
        with pytest.raises(ParseError):
            parse_model("vars t\nfield u\nfield u\nlagrangian u\n")


class TestAssignments:
    def test_indexed_family(self):
        bv = builtin("maxwell", dim=2).bv
        out = parse_assignments("A[mu]=d(C;mu)", bv)
        sig = bv.signature
        assert out[("A", (0,))] == sig.coord("C", d=("t",))
        assert out[("A", (1,))] == sig.coord("C", d=("x",))

    def test_multiple_statements_with_semicolons_inside_d(self):
        theory = builtin("free_particle").theory
        out = parse_assignments("u[1]=t; u[2]=t^2; u[3]=0", theory)
        assert len(out) == 3

    def test_duplicate_assignment(self):
        theory = builtin("free_particle").theory
        with pytest.raises(ParseError):
            parse_assignments("u[i]=t; u[1]=t", theory)


class TestStaticChecks:
    """Index checks that do not depend on the order of the factors."""

    U2 = "vars t\nfield u[1..2]\ndef K[a] = u[a]\n"

    @pytest.mark.parametrize(
        "lagrangian, message, where",
        [
            ("u[3]*0 + u[1]", "component 3 of 'u' outside 1..2", (4, 14)),
            ("0*u[3] + u[1]", "component 3 of 'u' outside 1..2", (4, 16)),
            ("(u[1]-u[1])*u[3] + u[1]", "component 3 of 'u' outside 1..2", (4, 26)),
            ("d(u[1];3)*0", "derivative slot 3 outside the 1 declared variables", (4, 19)),
            ("0*d(u[1];3)", "derivative slot 3 outside the 1 declared variables", (4, 21)),
            # a def argument fails where the body uses it, as when evaluated
            ("K[3]*0", "component 3 of 'u' outside 1..2", (3, 14)),
            ("0*K[3]", "component 3 of 'u' outside 1..2", (3, 14)),
            # a summed letter is checked for every value, through every summand
            # and def body it reaches, as it is without the zero factor
            ("(u[b] + d(u[1];b))*u[b]*0", "derivative slot 1 outside the 1 declared variables",
             (4, 27)),
            ("(d(u[1];b) + K[b])*d(u[1];b)*0", "component 0 of 'u' outside 1..2", (3, 14)),
        ],
    )
    def test_ranges_are_checked_in_every_factor_order(self, lagrangian, message, where):
        with pytest.raises(IndexRangeError, match=message) as err:
            parse_model(self.U2 + f"lagrangian {lagrangian}\n")
        assert (err.value.line, err.value.column) == where

    @pytest.mark.parametrize(
        "gauge, where",
        [
            ("EL(u[g])", (5, 18)),
            ("0*EL(u[3]) + EL(u[1])", (5, 20)),
            # a gauge-header letter is checked like a def argument
            ("EL(u[g])*0 + EL(u[1])", (5, 18)),
        ],
    )
    def test_el_components_are_checked_like_references(self, gauge, where):
        # the error names the field, not its formal EL coordinate
        src = "vars t\nfield u[1..2]\nghost C[1..3]\nlagrangian u[a]*u[a]\n"
        with pytest.raises(IndexRangeError, match="^5:.*component 3 of 'u' outside 1..2$") as err:
            parse_model(src + f"gauge C[g]: {gauge}\n")
        assert (err.value.line, err.value.column) == where

    def test_def_argument_checked_through_nested_defs(self):
        src = self.U2 + "def L[b] = d(K[b];t) + K[b]\nlagrangian 0*L[5]\n"
        with pytest.raises(IndexRangeError, match="component 5 of 'u'") as err:
            parse_model(src)
        assert (err.value.line, err.value.column) == (3, 14)

    @pytest.mark.parametrize(
        "lagrangian, error",
        [
            ("0*(u[i]*u[i]*u[i])", "appears more than twice"),
            ("0*u[1]^-1", "negative exponents require a parameter monomial"),
            ("u[1]^-1*0", "negative exponents require a parameter monomial"),
        ],
    )
    def test_product_checks_do_not_stop_at_a_zero_factor(self, lagrangian, error):
        with pytest.raises(ParseError, match=error):
            parse_model(self.U2 + f"lagrangian {lagrangian}\n")


def test_evaluation_checks_no_index():
    # every index is checked once, at analysis, through the slot it fills
    tree = ast.parse(pathlib.Path(parser.__file__).read_text())
    expander = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Expander")
    methods = {f.name: f for f in expander.body if isinstance(f, ast.FunctionDef)}
    for name in ("_eval", "_eval_product", "_eval_factor", "_eval_ref", "_index_value",
                 "_atom", "operator_table"):
        called = {n.attr for n in ast.walk(methods[name]) if isinstance(n, ast.Attribute)}
        assert not called & {"_check_range", "atom"}, name


def test_a_parameter_carries_each_check_once(monkeypatch):
    # D{i}[a] = D{i-1}[a] + D{i-1}[a]: the checks of a used to double with
    # every def, 2^20 of them at the use of D20
    sizes = []
    check = parser.Expander._check_range

    def counted(self, value, checks):
        sizes.append(len(checks))
        return check(self, value, checks)

    monkeypatch.setattr(parser.Expander, "_check_range", counted)
    lines = ["vars t", "field u[1..2]", "def D0[a] = u[a]"]
    lines += [f"def D{i}[a] = D{i - 1}[a] + D{i - 1}[a]" for i in range(1, 21)]
    parse_model("\n".join(lines + ["lagrangian D20[1]", ""]))
    assert max(sizes) == 1


def _count_parse_work(monkeypatch, source):
    """Def-body evaluations, node analyses, AST nodes, products and
    normalizations of one parse."""
    counts = Counter()
    bodies = set()
    make_def = parser.DefEntry

    def def_entry(params, body):
        bodies.add(id(body))
        return make_def(params, body)

    def counted(cls, name, key, when=lambda *args: True):
        original = getattr(cls, name)

        def wrapper(*args):
            if when(*args):
                counts[key] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, wrapper)

    monkeypatch.setattr(parser, "DefEntry", def_entry)
    counted(parser.Node, "__init__", "nodes")
    counted(parser.Expander, "_eval", "bodies", lambda self, node, env: id(node) in bodies)
    counted(parser.Expander, "_analyse", "analyses")
    counted(Expression, "__mul__", "mul")
    counted(Expression, "from_terms", "from_terms")  # only ever called on the class
    parse_model(source)
    first = dict(counts)
    counts.clear()
    parse_model(source)
    assert dict(counts) == first
    return first


def test_parse_model_evaluates_each_def_instance_once(monkeypatch):
    counts = _count_parse_work(monkeypatch, model_source("yang_mills_su2", dim=4))
    # before the analysis pass and the instance memo, this parse evaluated 168
    # def bodies for 48 instances F[a,mu,nu], called the letter analysis 4911
    # times on 55 AST nodes, and made 4709 products (1563 with the memo but
    # without folding scalar factors, 870 with both, 582 with gauge operators
    # evaluated as products over formal EL coordinates)
    assert counts["bodies"] <= 48
    assert counts["analyses"] <= counts["nodes"]
    assert counts["mul"] <= 4709 // 2
    assert counts["mul"] <= 650
    # normalizing each assignment's product, then its scaling, then the sum
    # took 1253; one accumulation per sum takes fewer than 700
    assert counts["from_terms"] <= 700


# E[p,q] contracts its letters r, s through the metric; inlined by hand it is
# ((d(A[p,s];r) - d(A[p,r];s))*(d(A[q,s];r) - d(A[q,r];s)))
_MEMO_HEAD = "vars t, x\nmetric diag(1, -1)\nfield A[1..2, dim]\nghost C[1..2]\n"
_MEMO_LINES = (
    "lagrangian -1/4 * E[a,a]\n"
    "gauge C[g]: -(E[1,1] + E[1,2]) * d(EL(A[g,nu]); nu)\n"
    "master -1/4 * E[a,a] + E[1,2] * A*[b,mu] * d(C[b];mu)\n"
)


def _inlined(p, q):
    return f"((d(A[{p},s];r) - d(A[{p},r];s))*(d(A[{q},s];r) - d(A[{q},r];s)))"


def test_def_instances_match_the_inlined_model():
    """The lagrangian, gauge (no metric) and master expanders each get the
    right instance: a memo shared across modes or keyed by name alone fails."""
    with_def = parse_model(
        _MEMO_HEAD + "def E[p,q] = (d(A[p,s];r) - d(A[p,r];s))*(d(A[q,s];r) - d(A[q,r];s))\n"
        + _MEMO_LINES
    )
    lines = _MEMO_LINES
    for p, q in (("a", "a"), ("1", "1"), ("1", "2")):
        lines = lines.replace(f"E[{p},{q}]", _inlined(p, q))
    inlined = parse_model(_MEMO_HEAD + lines)
    assert "E[" not in lines
    assert with_def.base == inlined.base
    tables = [
        {comp: op.coefficients for comp, op in bv.gauge[0].operators.items()}
        for bv in (with_def, inlined)
    ]
    assert tables[0] == tables[1]
    assert with_def.master_action.expr == inlined.master_action.expr
    # the gauge coefficient -(E[1,1] + E[1,2]) has no metric factors
    with_metric = parse_expression(_inlined(1, 1) + " + " + _inlined(1, 2), with_def.base)
    assert tables[0][(1,)][("A", (1, 0))][(1, 0)] != -with_metric


def test_parse_operator_matches_the_gauge_line():
    bv = builtin("yang_mills_su2", dim=2).bv
    theory = bv.base
    for comp, op in bv.gauge[0].operators.items():
        g = comp[0]
        table = parse_operator(f"-d(EL(A[{g},nu]); nu) - eps[{g},a,c]*A[a,nu]*EL(A[c,nu])", theory)
        assert NoetherOperator(theory, table).coefficients == op.coefficients
    with pytest.raises(ParseError):
        parse_operator("u", builtin("free_particle").theory)


def test_operator_products_and_sums_expand_by_leibniz(free):
    sig = free.signature
    t, m = sig.coord("t"), sig.coord("m")
    assert parse_operator("d(t*EL(u);t)", free) == {("u", ()): {(0,): sig.one(), (1,): t}}
    assert parse_operator("(EL(u) + d(EL(u);t))*m", free) == {("u", ()): {(0,): m, (1,): m}}
    # a term that evaluates to 0 contributes nothing
    assert parse_operator("(EL(u) - EL(u))*EL(u) + 0*u + EL(u)", free) == {
        ("u", ()): {(0,): sig.one()}
    }


def test_el_in_a_def_follows_where_the_def_is_expanded():
    # a gauge line expands its defs in operator mode; any other line does not
    maxwell = builtin("maxwell", dim=2).source
    inline = "gauge C: -d(EL(A[nu]); nu)\n"
    via_def = maxwell.replace(inline, "def G[nu] = EL(A[nu])\ngauge C: -d(G[nu]; nu)\n")
    assert via_def != maxwell
    ops = [parse_model(text).gauge[0].operators[()].coefficients for text in (maxwell, via_def)]
    assert ops[0] == ops[1]
    with pytest.raises(ParseError, match="^3:9: EL\\(...\\) is allowed only in gauge operators$"):
        parse_model("vars t\nfield u\ndef F = EL(u)\nlagrangian F*u\n")
