"""Model-file and expression parsing with Einstein-summation expansion.

Grammar (plain style; the same one the printer emits):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ['-'] atom ['^' ['-'] INT]
    atom    := RATIONAL | ref | 'd' '(' expr ';' index ')'
             | 'eps' '[' index (',' index)* ']' | '(' expr ')'
    ref     := NAME ['[' index (',' index)* ']']
    RATIONAL:= INT ['/' INT]
    index   := INT | IDENT

``NAME`` may end in ``*`` (an antifield): a ``*`` glued to an identifier is
part of the name when the next character cannot start an operand, so
``u* * v`` and ``A*[0]`` are antifields while ``u*v`` is a product.

An index identifier that names a declared variable refers to it; any other
identifier is a letter.  A bound letter (a def parameter, or one the caller's
environment binds) is never summed; any other letter repeated within a term
is summed over its slot's range, with one inverse-metric diagonal factor per
value when both slots are metric slots (derivative positions, or component
slots declared ``dim``).  ``eps[...]`` is the totally antisymmetric symbol
on whatever range its letters are contracted against.  A product contracts
its own repeated letters: a letter summed in a nested product is summed
there again, never bound by an enclosing product.

Every ``d(body; i)`` is ``jetcalc.total_derivative`` of the body's value.
``EL(`` always parses to an ``el`` node; the analysis rejects it outside
operator mode.  Gauge operators are evaluated by the same product evaluator
over the signature extended by one even formal jet coordinate ``EL(g)`` per
generator ``g``, with ``g``'s component slots, so ``d`` of a product expands
by Leibniz.
Each monomial of a term must then read ``coeff * D_alpha EL(u)[c]``.  All
sums there are plain: the operator pairs with the Euler-Lagrange system
rather than contracting indices, so no metric factors are inserted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .core import (
    Atom,
    EVEN,
    Expression,
    FIELD,
    GHOST,
    Generator,
    Grading,
    ODD,
    PARAM,
    Signature,
    VAR,
    invert_monomial,
)
from . import jetcalc
from .errors import (
    GradingViolationError,
    IndexRangeError,
    MetricDimensionError,
    ParseError,
    UndeclaredIdentifierError,
)
from .theory import NoetherOperator, Theory, _transfer

# ---------------------------------------------------------------------------
# lexer


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_OPERAND_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789(")


def tokenize(text: str, line: int = 1, col0: int = 1) -> List[Token]:
    tokens = []
    i = 0
    n = len(text)
    cur_line, cur_col = line, col0
    while i < n:
        ch = text[i]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            cur_col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = cur_col
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], cur_line, start_col))
            cur_col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            # a glued '*' belongs to the name when what follows cannot start an operand
            if j < n and text[j] == "*" and (j + 1 >= n or text[j + 1] not in _OPERAND_START):
                name += "*"
                j += 1
            tokens.append(Token("name", name, cur_line, start_col))
            cur_col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two == "..":
            tokens.append(Token("..", two, cur_line, start_col))
            i += 2
            cur_col += 2
            continue
        if ch in "+-*^()[];,:=/":
            tokens.append(Token(ch, ch, cur_line, start_col))
            i += 1
            cur_col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", cur_line, start_col)
    tokens.append(Token("end", "", cur_line, cur_col))
    return tokens


# ---------------------------------------------------------------------------
# AST


class Index(NamedTuple):
    """One bracket or derivative slot: an integer, a variable, or a letter."""

    kind: str  # 'int' | 'letter'
    value: Union[int, str]
    line: int
    col: int


class Node:
    __slots__ = ("kind", "data", "line", "col")

    def __init__(self, kind, data, line, col):
        self.kind = kind
        self.data = data
        self.line = line
        self.col = col


class _Parser:
    """Recursive-descent expression parser producing index-carrying ASTs."""

    # deepest nesting of '(' and 'd(' accepted; parsing and evaluating recurse
    # a few frames per level, so deeper input would hit Python's recursion limit
    MAX_NESTING = 100

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.line,
                tok.col,
                expected=[kind],
            )
        return self.next()

    # grammar ----------------------------------------------------------------

    def parse_full(self) -> Node:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return node

    def parse_expr(self) -> Node:
        tok = self.peek()
        terms = [(1, self.parse_term())]
        while self.peek().kind in ("+", "-"):
            op = self.next()
            terms.append((1 if op.kind == "+" else -1, self.parse_term()))
        return Node("sum", terms, tok.line, tok.col)

    def parse_term(self) -> Node:
        tok = self.peek()
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.parse_factor())
        return Node("mul", factors, tok.line, tok.col)

    def parse_factor(self) -> Node:
        tok = self.peek()
        negated = False
        if tok.kind == "-":
            self.next()
            negated = True
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            atom = Node("pow", (atom, self.signed_int()), atom.line, atom.col)
        if negated:
            atom = Node("neg", atom, tok.line, tok.col)
        return atom

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            num, den = self.integer(), 1
            if self.peek().kind == "/":
                self.next()
                at = self.peek()
                den = self.integer()
                if den == 0:
                    raise ParseError("zero denominator", at.line, at.col)
            return Node("num", Fraction(num, den), tok.line, tok.col)
        if tok.kind == "(":
            self.next()
            inner = self.parse_nested()
            self.expect(")")
            return inner
        if tok.kind == "name":
            if tok.text == "d":
                # lookahead: 'd' is only the derivative head before '('
                if self.tokens[self.pos + 1].kind == "(":
                    self.next()
                    self.expect("(")
                    body = self.parse_nested()
                    self.expect(";")
                    slot = self.parse_index()
                    self.expect(")")
                    return Node("d", (body, slot), tok.line, tok.col)
            if tok.text == "eps":
                self.next()
                idx = self.parse_indices()
                if len(idx) != 3:
                    raise ParseError("eps takes exactly 3 indices", tok.line, tok.col)
                return Node("eps", idx, tok.line, tok.col)
            if tok.text == "EL" and self.tokens[self.pos + 1].kind == "(":
                # the analysis accepts it only in operator mode
                self.next()
                self.next()
                ref = self.peek()
                if ref.kind != "name":
                    raise ParseError("EL(...) expects a field reference", ref.line, ref.col)
                ref, idx = self.reference()
                self.expect(")")
                return Node("el", (ref.text, idx, ref), tok.line, tok.col)
            _, idx = self.reference()
            return Node("ref", (tok.text, idx), tok.line, tok.col)
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.line,
            tok.col,
            expected=["a rational", "an identifier", "'('"],
        )

    def parse_nested(self) -> Node:
        """An expression inside '(' or 'd(', one level deeper than the caller."""
        if self.depth >= self.MAX_NESTING:
            tok = self.peek()
            raise ParseError(
                f"expression nested deeper than {self.MAX_NESTING} levels", tok.line, tok.col
            )
        self.depth += 1
        node = self.parse_expr()
        self.depth -= 1
        return node

    def comma_list(self, item) -> list:
        """``item (',' item)*``, where ``item()`` parses one element."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        return items

    def names(self) -> List[Token]:
        return self.comma_list(lambda: self.expect("name"))

    def letter_header(self) -> Tuple[str, ...]:
        """An optional ``[name, ...]`` (def parameters, gauge letters)."""
        if self.peek().kind != "[":
            return ()
        self.next()
        letters = tuple(tok.text for tok in self.names())
        self.expect("]")
        return letters

    def integer(self) -> int:
        """The next token, which must be an integer literal, as an int."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() converts
            raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                             tok.line, tok.col) from None

    def signed_int(self) -> int:
        negative = self.peek().kind == "-"
        if negative:
            self.next()
        value = self.integer()
        return -value if negative else value

    def reference(self) -> Tuple[Token, List[Index]]:
        """``NAME ['[' index, ... ']']``: a generator or def reference."""
        name = self.expect("name")
        return name, self.parse_indices() if self.peek().kind == "[" else []

    def parse_indices(self) -> List[Index]:
        self.expect("[")
        items = self.comma_list(self.parse_index)
        self.expect("]")
        return items

    def parse_index(self) -> Index:
        tok = self.peek()
        if tok.kind == "int":
            return Index("int", self.integer(), tok.line, tok.col)
        if tok.kind == "name":
            self.next()
            return Index("letter", tok.text, tok.line, tok.col)
        raise ParseError(
            f"unexpected {tok.text!r}", tok.line, tok.col, expected=["an index"]
        )


# ---------------------------------------------------------------------------
# Einstein expansion


class Slot(NamedTuple):
    lo: int
    hi: int
    metric: Optional[bool]  # None: wildcard (eps), inherits from its partner
    checks: tuple = ()  # what every value in it must pass, see Expander._check_range


def _merged(slots) -> Slot:
    """One slot for the uses of a letter: the first's range, every one's checks."""
    return slots[0]._replace(checks=tuple(dict.fromkeys(c for s in slots for c in s.checks)))


class DefEntry(NamedTuple):
    params: Tuple[str, ...]
    body: Node


class _Plan(NamedTuple):
    """How one product is evaluated, fixed by the analysis."""

    letters: Tuple[str, ...]  # the letters it contracts
    # (values of the letters, num, den): the product's rational factors,
    # leading signs and inverse-metric factors, folded into num/den
    assignments: list
    eps: list  # index lists of its eps factors
    factors: list  # every other factor, signs peeled off


class _Walk:
    """State of one analysis pass over a root expression or def body."""

    def __init__(self, bound):
        self.bound = bound  # its parameters: never summed, exposed wherever used
        self.products = []  # (product, letter slots), in post-order


class Expander:
    """Evaluate an AST over a signature, expanding index sums and metric factors.

    A root expression is analysed once, as a def body whose parameters are the
    letters its environment binds: every node's exposed letter slots, its
    nesting depth with defs inlined, the plan of every product, and every
    index check, each through the slot the index fills.  Evaluation reads the
    plans, checks nothing and never re-walks a subtree; each def instance
    ``(name, parameter values)`` is evaluated once, which is sound because a
    def body sees only its own parameters.
    """

    def __init__(self, sig: Signature, defs: Dict[str, DefEntry] = None, operator_mode=False):
        self.base = sig
        if operator_mode:
            # EL(g) is an even jet coordinate after every generator of sig
            formal = [Generator(f"EL({g.name})", FIELD, g.index_ranges) for g in sig.generators]
            sig = Signature(sig.generators + tuple(formal), sig.metric)
        self.sig = sig
        self._variables = {g.name: pos for pos, g in enumerate(sig.variables)}
        self._zeros = (0,) * sig.nvars  # the multi-index of an underived atom
        self.defs = defs or {}
        self.operator_mode = operator_mode
        self._plans: Dict[Node, _Plan] = {}
        self._bodies: Dict[tuple, tuple] = {}  # (body, params) -> (slots, height, nonparam)
        self._open: List[str] = []  # defs whose bodies are being analysed
        self._instances: Dict[tuple, Expression] = {}  # (def, parameter values) -> value

    def extended(self, sig: Signature) -> "Expander":
        """An expander over a signature extending this one's that reuses its
        analyses and def instances (moved over by ``_transfer``)."""
        other = Expander(sig, self.defs, self.operator_mode)
        other._plans = dict(self._plans)
        other._bodies = dict(self._bodies)
        other._instances = dict(self._instances)
        return other

    # -- analysis --------------------------------------------------------------

    def _prepare(self, node: Node, env) -> None:
        """Analyse a root whose parameters are the letters of ``env``, and
        check their values as def arguments are checked."""
        for letter, slot in self._body(node, tuple(env), 0)[0].items():
            self._check_range(env[letter], slot.checks)

    def _body(self, node: Node, params, level: int, use: Node = None):
        """The cached analysis of a root or def body: the slot of every parameter
        it uses, its height and whether it references a non-parameter.  ``use``
        is the def reference an unused parameter is reported at (none for a root)."""
        bound = frozenset(params)
        info = self._bodies.get((node, bound))
        if info is None:
            walk = _Walk(bound)
            letters, height, nonparam = self._analyse(node, level, walk)
            for param in params if use is not None else ():
                if param not in letters:
                    raise ParseError(
                        f"def {use.data[0]!r} never uses index {param!r}", use.line, use.col
                    )
            self._check_bound(node, letters, bound)
            # outer products first, so their errors win
            for product, slots in reversed(walk.products):
                self._plan(product, slots, bound)
            letters = {k: _merged(v) for k, v in letters.items()}
            info = self._bodies[node, bound] = (letters, height, nonparam)
        elif level + info[1] - 1 > _Parser.MAX_NESTING:
            # deeper here than where it was first analysed: walk it again at
            # this depth to raise at the sum that is too deep
            self._analyse(node, level, _Walk(bound))
        return info

    def _analyse(self, node: Node, level: int, walk: _Walk):
        """Exposed letters with their slots, the number of nested sums (defs
        inlined) and whether a non-parameter is referenced; checks every fixed
        index.  ``level`` counts the sums open above the node."""
        kind = node.kind
        if kind == "num":
            return {}, 0, False
        if kind == "neg":
            return self._analyse(node.data, level, walk)
        if kind == "pow":
            base, exp = node.data
            letters, height, nonparam = self._analyse(base, level, walk)
            if not walk.bound.issuperset(letters):
                raise ParseError(
                    "index letters cannot appear under an exponent", node.line, node.col
                )
            if exp < 0 and nonparam:
                raise ParseError(
                    "negative exponents require a parameter monomial", node.line, node.col
                )
            return letters, height, nonparam
        if kind == "sum":
            # one sum per '(' or 'd(' level and per def body, which counts as
            # if written inline in parentheses; this bounds evaluation depth
            if level > _Parser.MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {_Parser.MAX_NESTING} levels "
                    "with defs expanded",
                    node.line,
                    node.col,
                )
            exposed, free, height, nonparam = {}, None, 0, False
            for _, term in node.data:
                letters, h, n = self._analyse(term, level + 1, walk)
                over = {k for k, v in letters.items() if len(v) == 1 and k not in walk.bound}
                if free is None:
                    free = over
                elif free != over:
                    raise ParseError(
                        "summands expose different free index letters", node.line, node.col
                    )
                for k, v in letters.items():
                    if k in over or k in walk.bound:
                        exposed.setdefault(k, []).extend(v)
                height, nonparam = max(height, h), nonparam or n
            return {k: [_merged(v)] for k, v in exposed.items()}, height + 1, nonparam
        if kind == "mul":
            letters, height, nonparam = {}, 0, False
            for f in node.data:
                inner, h, n = self._analyse(f, level, walk)
                for k, v in inner.items():
                    letters.setdefault(k, []).extend(v)
                height, nonparam = max(height, h), nonparam or n
            walk.products.append((node, letters))
            return letters, height, nonparam
        if kind == "eps":
            return self._exposed(node.data, [Slot(0, 0, None)] * 3), 0, False
        if kind == "d":
            body, slot = node.data
            letters, height, _ = self._analyse(body, level, walk)
            hi = self.sig.nvars - 1
            for k, v in self._exposed([slot], [Slot(0, hi, True, ((0, hi, slot, None),))]).items():
                letters.setdefault(k, []).extend(v)
            return letters, height, True
        if kind in ("ref", "el"):
            # EL(u[...]) is checked like u[...]; its errors name u
            name, idx = node.data[:2]
            if kind == "ref" and name in self.defs:
                return self._analyse_def_ref(node, level)
            if kind == "el" and not self.operator_mode:
                raise ParseError(
                    "EL(...) is allowed only in gauge operators", node.line, node.col
                )
            field = node.data[2] if kind == "el" else None
            gen, letters = self._check_reference(name, idx, node, field)
            return letters, 0, kind == "el" or gen.role != PARAM
        raise AssertionError(f"unhandled node {kind}")

    def _analyse_def_ref(self, node: Node, level: int):
        name, idx = node.data
        if name in self._open:
            raise ParseError(f"def {name!r} is recursive", node.line, node.col)
        entry = self.defs[name]
        if len(idx) != len(entry.params):
            raise ParseError(
                f"def {name!r} takes {len(entry.params)} indices, got {len(idx)}",
                node.line,
                node.col,
            )
        # an argument fills a slot with the checks of every use of its parameter
        self._open.append(name)
        try:
            slots, height, nonparam = self._body(entry.body, entry.params, level, node)
        finally:
            self._open.pop()
        return self._exposed(idx, [slots[param] for param in entry.params]), height, nonparam

    def _exposed(self, idx: List[Index], slots) -> Dict[str, list]:
        """The letters of ``idx`` with the slots they fill; every other index
        is checked here against its slot's checks."""
        out = {}
        for item, slot in zip(idx, slots):
            if item.kind == "letter" and not self._is_variable(item.value):
                out.setdefault(item.value, []).append(slot)
            else:
                self._check_range(self._index_value(item, {}), slot.checks)
        return out

    def _check_reference(self, name: str, idx, at, field=None):
        """The generator of a reference ``name[idx]`` and the letters its
        indices expose, its errors at ``at``: declared, a field if ``field``
        (the name's token) is given, one index per slot, and every fixed
        index in range."""
        if not self.sig.has_generator(name):
            raise UndeclaredIdentifierError(f"undeclared identifier {name!r}", at.line, at.col)
        gen = self.sig.generator(name)
        if field is not None and gen.role != FIELD:
            raise ParseError(f"{name!r} is not a field", field.line, field.col)
        if len(idx) != len(gen.index_ranges):
            got = f", got {len(idx)}" if field is None else ""
            raise IndexRangeError(
                f"{name!r} takes {len(gen.index_ranges)} indices{got}", at.line, at.col
            )
        metric = gen.metric_slots or (False,) * len(gen.index_ranges)
        slots = [Slot(lo, hi, bool(ms), ((lo, hi, item, name),))
                 for (lo, hi), ms, item in zip(gen.index_ranges, metric, idx)]
        return gen, self._exposed(idx, slots)

    def _check_range(self, value: int, checks) -> None:
        """``checks`` are (lo, hi, index, generator name, or None for a derivative slot)."""
        for lo, hi, item, name in checks:
            if lo <= value <= hi:
                continue
            if name is None:
                message = f"derivative slot {value} outside the {hi + 1} declared variables"
            else:
                message = f"component {value} of {name!r} outside {lo}..{hi}"
            raise IndexRangeError(message, item.line, item.col)

    @staticmethod
    def _check_bound(node: Node, letters, bound) -> None:
        for letter in sorted(letters):
            if letter not in bound:
                raise ParseError(f"unbound index letter {letter!r}", node.line, node.col)

    def _plan(self, node: Node, letters, bound) -> None:
        """The ``_Plan`` of a product: the letters it contracts (its own
        repeated letters, never a bound one), each checked for every value
        of its range, and per assignment of them one integer pair
        ``num/den``, its rational factors, leading signs and inverse-metric
        factors folded in once here, so that evaluation multiplies ints."""
        pairs = []
        for letter, slots in sorted(letters.items()):
            if letter in bound or len(slots) == 1:
                continue  # bound by the environment, or exposed upward
            if len(slots) > 2:
                raise ParseError(
                    f"index letter {letter!r} appears more than twice in a term",
                    node.line,
                    node.col,
                )
            a, b = slots
            if a.metric is None and b.metric is None:
                raise ParseError(f"cannot infer the range of {letter!r}", node.line, node.col)
            ref, other = (a, b) if a.metric is not None else (b, a)
            if other.metric is not None and (other.lo, other.hi) != (ref.lo, ref.hi):
                raise IndexRangeError(
                    f"index letter {letter!r} joins slots of different ranges", node.line, node.col
                )
            for v in range(ref.lo, ref.hi + 1):
                self._check_range(v, a.checks + b.checks)
            # one inverse-metric factor only when both occurrences sit in metric
            # slots, a mixed pair is a plain duality pairing; operator indices
            # pair with the EL system, so they carry no metric at all
            metric = bool(a.metric) and bool(b.metric) and not self.operator_mode
            pairs.append((letter, ref.lo, ref.hi, metric))
        scalar, eps, factors = Fraction(1), [], []
        for f in node.data:
            while f.kind == "neg":
                scalar, f = -scalar, f.data
            if f.kind == "num":
                scalar *= f.data
            elif f.kind == "eps":
                eps.append(f.data)
            else:
                factors.append(f)
        assignments = []
        for values in itertools.product(*[range(lo, hi + 1) for _, lo, hi, _ in pairs]):
            c = scalar
            for (_, _, _, metric), v in zip(pairs, values):
                if metric:
                    # metric slots always range over the variable positions 0..n-1
                    c /= self.sig.metric[v]
            assignments.append((values, c.numerator, c.denominator))
        self._plans[node] = _Plan(tuple(p[0] for p in pairs), assignments, eps, factors)

    def _is_variable(self, name: str) -> bool:
        return name in self._variables

    # -- evaluation -------------------------------------------------------------

    def expression(self, node: Node, env: Dict[str, int] = None) -> Expression:
        env = env or {}
        self._prepare(node, env)
        return self._eval(node, env)

    def _eval(self, node: Node, env) -> Expression:
        """A sum node: the parts of all its products, in one accumulation."""
        parts = []
        for sign, term in node.data:
            parts += self._eval_product(term, env, sign)
        return Expression.sum_of_products(self.sig, parts)

    def _eval_product(self, node: Node, env, sign) -> list:
        """The ``(num, den, factors)`` parts of a product node, one per
        assignment, for ``Expression.sum_of_products``: the plan's integer
        pair times ``sign`` and the eps signs, and the factor values, the
        product of all but the last folded into one.  An assignment whose
        scalar is zero evaluates no factor, and one whose running product
        vanishes evaluates no further factor."""
        plan = self._plans[node]
        parts = []
        head, last = plan.factors[:-1], (plan.factors[-1] if plan.factors else None)
        for values, num, den in plan.assignments:
            inner = {**env, **dict(zip(plan.letters, values))} if plan.letters else env
            c = num * sign
            for idx in plan.eps:
                c *= _eps_sign([self._index_value(item, inner) for item in idx])
            if not c:
                continue
            if last is None:
                parts.append((c, den, ()))
                continue
            prefix = None
            for f in head:
                value = self._eval_factor(f, inner)
                prefix = value if prefix is None else prefix * value
                if not prefix:
                    break
            else:
                value = self._eval_factor(last, inner)
                parts.append((c, den, (value,) if prefix is None else (prefix, value)))
        return parts

    def _eval_factor(self, node: Node, env) -> Expression:
        kind = node.kind
        if kind == "num":
            return self.sig.const(node.data)
        if kind == "pow":
            base, exp = node.data
            value = self._eval_factor(base, env)
            if exp >= 0:
                return value ** exp
            try:
                return invert_monomial(value ** (-exp))
            except GradingViolationError:
                raise ParseError(
                    "negative exponents require a parameter monomial", node.line, node.col
                ) from None
        if kind == "sum":
            return self._eval(node, env)
        if kind == "eps":
            values = [self._index_value(item, env) for item in node.data]
            return self.sig.const(_eps_sign(values))
        if kind == "d":
            body, slot = node.data
            pos = self._index_value(slot, env)
            return jetcalc.total_derivative(self._eval_factor(body, env), pos)
        if kind in ("ref", "el"):
            return self._eval_ref(node, env)
        raise AssertionError(f"unhandled node {kind}")

    def _index_value(self, item: Index, env) -> int:
        if item.kind == "int":
            return item.value
        pos = self._variables.get(item.value)
        return env[item.value] if pos is None else pos

    def _atom(self, node: Node, env):
        """The atom of a generator reference or of ``EL(...)``, its indices checked at analysis."""
        name, idx = node.data[:2]
        if node.kind == "el":
            name = f"EL({name})"
        comp = tuple(self._index_value(item, env) for item in idx)
        return Atom(self.sig.generator_id(name), comp, 0, self._zeros)

    def _eval_ref(self, node: Node, env) -> Expression:
        name, idx = node.data[:2]
        entry = self.defs.get(name)
        if entry is None:
            return self.sig.from_atom(self._atom(node, env))
        values = tuple(self._index_value(item, env) for item in idx)
        value = self._instances.get((name, values))
        if value is None:
            value = self._eval(entry.body, dict(zip(entry.params, values)))
        elif value.sig is self.sig:
            return value
        else:
            value = _transfer(value, self.sig)  # an instance of the expander extended
        self._instances[name, values] = value
        return value

    # -- gauge operators -----------------------------------------------------------

    def operator_table(self, node: Node, env) -> Dict[tuple, Dict[tuple, Expression]]:
        """Expand an EL(...)-linear expression into Noether-operator coefficients:
        each monomial of a term reads ``coeff * D_alpha EL(u)[c]``."""
        self._prepare(node, env)
        base = self.base
        nbase = len(base.generators)
        table: Dict[tuple, Dict[tuple, Expression]] = {}
        for sign, term in node.data:
            parts: Dict[tuple, list] = {}
            product = Expression.sum_of_products(self.sig, self._eval_product(term, env, sign))
            for (even, odd), c in product._nums:
                # EL coordinates are even and sort after every base atom
                if not even or even[-1][0].gen < nbase:
                    raise ParseError(
                        "gauge operator terms must contain one EL(...) factor", term.line, term.col
                    )
                el, power = even[-1]
                if power > 1 or (len(even) > 1 and even[-2][0].gen >= nbase):
                    raise ParseError(
                        "gauge operator terms must be linear in EL(...)", term.line, term.col
                    )
                field = (base.generators[el.gen - nbase].name, el.comp)
                parts.setdefault((field, el.mindex), []).append(((even[:-1], odd), c))
            for (field, mindex), terms in parts.items():
                entry = table.setdefault(field, {})
                coeff = Expression.from_terms(base, terms, product.den)
                # '+' rather than one Expression.sum: bench/test_bench.py requires
                # gauge_cli to reach Expression.__add__ (core.add), and this is where
                entry[mindex] = entry.get(mindex, base.zero()) + coeff
        return table


def _eps_sign(values) -> int:
    if len(set(values)) != len(values):
        return 0
    inversions = sum(a > b for i, a in enumerate(values) for b in values[i + 1 :])
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# public expression API


def _context_signature(context) -> Signature:
    from .bv import BVExtension

    if isinstance(context, Signature):
        return context
    if isinstance(context, Theory):
        return context.signature
    if isinstance(context, BVExtension):
        return context.signature
    raise TypeError("context must be a Signature, Theory, or BVExtension")


def parse_expression(text: str, context, line: int = 1, col: int = 1) -> Expression:
    """Parse one expression in the given theory context; positions in errors
    count from ``line`` and ``col``."""
    sig = _context_signature(context)
    ast = _Parser(tokenize(text, line, col)).parse_full()
    return Expander(sig).expression(ast)


def parse_operator(text: str, context) -> Dict[tuple, Dict[tuple, Expression]]:
    """Parse an EL(...)-linear gauge operator into its coefficient table:
    field component -> derivative multi-index -> coefficient.  Operator
    indices pair with the EL system, so no metric factors are inserted."""
    sig = _context_signature(context)
    ast = _Parser(tokenize(text)).parse_full()
    return Expander(sig, operator_mode=True).operator_table(ast, {})


def _split_top_level(tokens: List[Token]) -> List[List[Token]]:
    """Split a token stream at semicolons outside any parentheses."""
    chunks: List[List[Token]] = []
    current: List[Token] = []
    depth = 0
    end = tokens[-1]
    for tok in tokens[:-1]:
        if tok.kind == "(":
            depth += 1
        elif tok.kind == ")":
            depth -= 1
        if tok.kind == ";" and depth == 0:
            chunks.append(current)
            current = []
            continue
        current.append(tok)
    chunks.append(current)
    return [c + [Token("end", "", end.line, end.col)] for c in chunks if c]


def parse_assignments(text: str, context) -> Dict[tuple, Expression]:
    """Parse ``ref = expr [; ref = expr]*``.  The left side is a field
    reference, checked as ``EL(...)``'s body is; letters on it enumerate
    components."""
    sig = _context_signature(context)
    out: Dict[tuple, Expression] = {}
    for tokens in _split_top_level(tokenize(text)):
        parser = _Parser(tokens)
        head, idx = parser.reference()
        parser.expect("=")
        body = parser.parse_full()
        expander = Expander(sig)
        gen = expander._check_reference(head.text, idx, head, head)[0]
        letters = []
        for item, (lo, hi) in zip(idx, gen.index_ranges):
            if item.kind == "letter" and not expander._is_variable(item.value):
                letters.append((item.value, lo, hi))
        for values in itertools.product(*[range(lo, hi + 1) for _, lo, hi in letters]):
            env = {name: v for (name, _, _), v in zip(letters, values)}
            comp = tuple(expander._index_value(item, env) for item in idx)
            key = (head.text, comp)
            if key in out:
                raise ParseError(
                    f"component {head.text}{list(comp)} assigned twice", head.line, head.col
                )
            out[key] = expander.expression(body, env)
    return out


# ---------------------------------------------------------------------------
# model files


_RANGE_DIM = object()

# identifiers with grammar-level meaning; not usable as generator names
_RESERVED = frozenset({"d", "eps", "EL", "dim", "diag"})


# statements that declare the signature, so they precede the lagrangian
_DECLARATIONS = ("vars", "metric", "params", "field", "ghost")

# statements given at most once
_ONCE = ("metric", "lagrangian", "master")


def _parse_range(parser: _Parser, nvars: int):
    tok = parser.peek()
    if tok.kind == "name":
        if tok.text != "dim":
            raise ParseError(f"expected a range, got {tok.text!r}", tok.line, tok.col)
        if not nvars:
            raise ParseError("'dim' before any 'vars' statement", tok.line, tok.col)
        parser.next()
        return _RANGE_DIM
    lo = parser.integer()
    parser.expect("..")
    hi = parser.integer()
    if lo > hi:
        raise IndexRangeError(f"empty range {lo}..{hi}", tok.line, tok.col)
    return (lo, hi)


def _metric_entry(parser: _Parser) -> Fraction:
    tok = parser.peek()
    num = parser.signed_int()
    den = 1
    if parser.peek().kind == "/":
        parser.next()
        den_tok = parser.peek()
        den = parser.integer()
        if den == 0:
            raise ParseError("metric entry has denominator 0", den_tok.line, den_tok.col)
    if num == 0:
        raise ParseError("metric diagonal entries must be nonzero", tok.line, tok.col)
    return Fraction(num, den)


def _parse_generator_line(parser: _Parser, name: str, role: str, nvars: int):
    ranges = []
    if parser.peek().kind == "[":
        parser.next()
        ranges = parser.comma_list(lambda: _parse_range(parser, nvars))
        parser.expect("]")
    parity = ODD if role == GHOST else EVEN
    ghost_number = 1 if role == GHOST else 0
    ghost_tok = None
    while parser.peek().kind == "name":
        opt = parser.next()
        parser.expect("=")
        if opt.text == "parity":
            val = parser.expect("name")
            if val.text not in ("even", "odd"):
                raise ParseError("parity must be 'even' or 'odd'", val.line, val.col)
            parity = EVEN if val.text == "even" else ODD
        elif opt.text == "ghost":
            ghost_tok = parser.peek()
            ghost_number = parser.signed_int()
        else:
            raise ParseError(f"unknown option {opt.text!r}", opt.line, opt.col)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
    if role == FIELD and ghost_number < 0:
        # its antifield would not have a negative ghost number; such a field (an
        # antighost) has a meaning only with gauge fixing, which jetvar does not do
        raise ParseError(f"field {name!r} must have ghost number >= 0",
                         ghost_tok.line, ghost_tok.col)
    try:
        return Generator(
            name,
            role,
            tuple((0, nvars - 1) if r is _RANGE_DIM else r for r in ranges),
            Grading(parity, ghost_number),
            tuple(r is _RANGE_DIM for r in ranges),
        )
    except ValueError as exc:
        # ranges and parity are checked above, so the ghost number is at fault
        raise ParseError(str(exc), ghost_tok.line, ghost_tok.col) from None


def _logical_lines(text: str):
    """(line_number, content) with comments stripped and backslash continuation."""
    out = []
    pending = ""
    pending_line = None
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if pending:
            line_no = pending_line
            body = pending + body
        else:
            line_no = i
        stripped = body.rstrip()
        if stripped.endswith("\\"):
            # keep the line break, so tokens after the join keep their positions
            pending = stripped[:-1] + "\n"
            pending_line = line_no
            continue
        pending = ""
        if stripped.strip():
            out.append((line_no, stripped))
    if pending.strip():
        out.append((pending_line, pending.rstrip()))
    return out


class _ModelBuilder:
    def __init__(self):
        self.variables: List[str] = []
        self.metric: Optional[List[Fraction]] = None
        self.metric_tok: Optional[Token] = None
        self.parameters: List[str] = []
        self.fields: List[Generator] = []
        self.ghost_specs: List[Generator] = []
        self.defs: Dict[str, DefEntry] = {}
        self.def_uses: Dict[str, Node] = {}  # def -> a use of it, at its name
        self.names: Dict[str, Token] = {}  # every declared name -> its declaring token
        self.lagrangian_ast: Optional[Node] = None
        self.gauge_lines: List[tuple] = []
        self.master_ast: Optional[Node] = None
        self.signature: Optional[Signature] = None

    def declare(self, tok: Token) -> str:
        """Claim a new name; every error is reported at its token."""
        name = tok.text
        if name in _RESERVED:
            raise ParseError(f"{name!r} is reserved", tok.line, tok.col)
        if name.endswith("*"):
            raise ParseError(f"{name!r}: a trailing '*' is reserved for antifields",
                             tok.line, tok.col)
        if name in self.names:
            raise ParseError(f"duplicate declaration of {name!r}", tok.line, tok.col)
        self.names[name] = tok
        return name

    def build_signature(self, line):
        if not self.variables:
            raise ParseError("no independent variables declared", line, 1)
        metric = self.metric if self.metric is not None else [Fraction(1)] * len(self.variables)
        if len(metric) != len(self.variables):
            tok = self.metric_tok
            raise MetricDimensionError(
                f"metric has {len(metric)} entries for {len(self.variables)} variables",
                tok.line,
                tok.col,
            )
        # names are unique and metric entries nonzero by now, so Signature accepts these
        gens = [Generator(v, VAR) for v in self.variables]
        gens += [Generator(p, PARAM) for p in self.parameters]
        gens += self.fields
        self.signature = Signature(gens, metric)


def parse_model(text: str):
    """Parse a model file; returns a Theory, or a BVExtension when gauge or
    master sections are present."""
    builder = _ModelBuilder()
    given = set()

    for line_no, content in _logical_lines(text):
        tokens = tokenize(content, line=line_no)
        head = tokens[0]
        if head.kind != "name":
            raise ParseError(f"expected a statement, got {head.text!r}", head.line, head.col)
        rest = _Parser(tokens[1:])
        keyword = head.text
        if keyword in _DECLARATIONS and builder.signature is not None:
            raise ParseError("declarations must precede the lagrangian", head.line, head.col)
        if keyword in _ONCE:
            if keyword in given:
                raise ParseError(f"second {keyword!r} statement", head.line, head.col)
            given.add(keyword)

        if keyword == "vars":
            builder.variables += [builder.declare(tok) for tok in rest.names()]
            rest.expect("end")
        elif keyword == "metric":
            tag = rest.expect("name")
            if tag.text != "diag":
                raise ParseError("expected 'diag(...)'", tag.line, tag.col)
            rest.expect("(")
            builder.metric_tok = head
            builder.metric = rest.comma_list(lambda: _metric_entry(rest))
            rest.expect(")")
            rest.expect("end")
        elif keyword == "params":
            builder.parameters += [builder.declare(tok) for tok in rest.names()]
            rest.expect("end")
        elif keyword in ("field", "ghost"):
            role = FIELD if keyword == "field" else GHOST
            name = builder.declare(rest.expect("name"))
            gen = _parse_generator_line(rest, name, role, len(builder.variables))
            (builder.fields if role == FIELD else builder.ghost_specs).append(gen)
        elif keyword == "def":
            name_tok = rest.expect("name")
            name = builder.declare(name_tok)
            params = rest.letter_header()
            rest.expect("=")
            body = rest.parse_expr()
            rest.expect("end")
            builder.defs[name] = DefEntry(params, body)
            at = (name_tok.line, name_tok.col)
            use = [Index("letter", p, *at) for p in params]
            builder.def_uses[name] = Node("ref", (name, use), *at)
        elif keyword == "lagrangian":
            builder.build_signature(head.line)
            builder.lagrangian_ast = rest.parse_expr()
            rest.expect("end")
        elif keyword == "gauge":
            name_tok = rest.expect("name")
            letters = rest.letter_header()
            rest.expect(":")
            body = rest.parse_full()
            builder.gauge_lines.append((name_tok, letters, body))
        elif keyword == "master":
            builder.master_ast = rest.parse_expr()
            rest.expect("end")
        else:
            raise ParseError(f"unknown statement {keyword!r}", head.line, head.col)

    if builder.lagrangian_ast is None:
        raise ParseError("model file has no lagrangian", 1, 1)
    sig = builder.signature
    expanders = [Expander(sig, builder.defs)]
    model = Theory(sig, expanders[0].expression(builder.lagrangian_ast))
    if builder.gauge_lines or builder.master_ast is not None or builder.ghost_specs:
        model = _bv_model(builder, model, expanders)
    # a def that no line expanded is analysed as a use of it in the lagrangian
    used = {body for x in expanders for body, _ in x._bodies}
    for name, use in builder.def_uses.items():
        if builder.defs[name].body not in used:
            expanders[0]._body(use, builder.defs[name].params, 0)
    return model


def _bv_model(builder: _ModelBuilder, theory: Theory, expanders: List[Expander]):
    """The BV extension of a parsed model; appends the expanders it uses to
    ``expanders``, whose first one is the lagrangian's."""
    from .bv import extend_to_bv

    sig = theory.signature
    # assemble the BV extension: gauge lines attach operators to ghost components
    ghosts = {g.name: g for g in builder.ghost_specs}
    tables: Dict[str, Dict[tuple, Dict]] = {}
    op_expander = Expander(sig, builder.defs, operator_mode=True)
    expanders.append(op_expander)
    for name_tok, letters, body in builder.gauge_lines:
        ghost = ghosts.get(name_tok.text)
        if ghost is None:
            raise UndeclaredIdentifierError(
                f"gauge block names undeclared ghost {name_tok.text!r}",
                name_tok.line,
                name_tok.col,
            )
        if len(letters) != len(ghost.index_ranges):
            raise IndexRangeError(
                f"gauge header for {ghost.name!r} must bind {len(ghost.index_ranges)} letters",
                name_tok.line,
                name_tok.col,
            )
        per_comp = tables.setdefault(ghost.name, {})
        for comp in ghost.components():
            env = dict(zip(letters, comp))
            raw = op_expander.operator_table(body, env)
            if comp in per_comp:
                raise ParseError(
                    f"gauge block for {ghost.name}{list(comp)} given twice",
                    name_tok.line,
                    name_tok.col,
                )
            per_comp[comp] = NoetherOperator(theory, raw)

    gauge = []
    for ghost in builder.ghost_specs:
        ops = tables.get(ghost.name)
        if ops is None:
            at = builder.names[ghost.name]
            raise ParseError(f"ghost {ghost.name!r} has no gauge block", at.line, at.col)
        gauge.append((ghost, ops))
    bv = extend_to_bv(theory, gauge)
    if builder.master_ast is not None:
        expanders.append(expanders[0].extended(bv.signature))
        bv = bv.with_master(expanders[-1].expression(builder.master_ast))
    return bv
