"""Recursive-descent parser for connection-spec expressions.

Grammar (UTF-8 input, identifiers ASCII):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom (('^' nonneg-int) | ('/' posint))*
    atom   := integer | 'i' | ident | deriv | '(' expr ')'
    deriv  := ('d'|'d2'|'d3'|...) '(' ident (',' coord)+ ')'

One regular expression splits the text into tokens at Unicode whitespace;
any character that starts no token is an error.  Integers are decimal digit
runs; rationals arise from '/' which divides by a positive integer only.
'i' is the imaginary unit and cannot be declared.  'd' and 'dN' directly
followed by '(' are derivative markers; 'dN' requires exactly N coordinate
arguments.  Every other identifier must be declared in the supplied symbol
table.  Parentheses nest at most MAX_DEPTH levels deep, which keeps the
descent well inside Python's recursion limit, and exponents are at most
MAX_EXPONENT.

The size of what an expression builds is bounded while it expands.  Before
each product (a '*' or a step of the square-and-multiply behind '^') the
operands' term counts n and m must satisfy n * m <= MAX_TERMS, which bounds
both the work of the step and the terms of its result; a sum may hold at
most MAX_TERMS terms too.  An integer literal, every product and the parsed
result (sums and divisions grow coefficients as well) have coefficients of
at most MAX_COEFF_BITS bits, measured on the (a + b*i)/d form of each
coefficient.  Curvature is quadratic in the connection, so the cap stays
far below Python's 4,300-digit limit on int-to-str conversion even after
several doublings.  A product whose exponent would pass the ring's bound
MAX_DEGREE (projconn.poly) is refused too.  Errors carry the byte offset
into the input.
"""

from __future__ import annotations

import collections
import re as _re

from .errors import DegreeError, ParseError
from .poly import ONE_POLY, DiffPoly
from .rational import GaussianRational, _power
from .symbols import COORDINATE, FUNCTION, SymbolTable

# whitespace is what no group matches; group 4 is any other character, an error
_TOKEN = _re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^,])|(\S)")
_KINDS = {1: "int", 2: "ident", 3: "op"}

_DERIV_MARKER = _re.compile(r"^d([0-9]*)$")

MAX_DEPTH = 100
MAX_EXPONENT = 64
MAX_TERMS = 1_000
MAX_COEFF_BITS = 1024
# a literal with more digits than 2**MAX_COEFF_BITS is refused before int(),
# so that no literal reaches the int-conversion limit
_MAX_DIGITS = len(str(2**MAX_COEFF_BITS))


# kind: "int" | "ident" | "op" | "end"; pos: the character index into the source
_Token = collections.namedtuple("_Token", "kind text pos")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[4]:
            raise ParseError(f"unexpected character {m[4]!r}", _byte_offset(text, m.start()))
        tokens.append(_Token(_KINDS[m.lastindex], m[0], m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: SymbolTable):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, _byte_offset(self.text, tok.pos))

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            self.error(f"expected {op!r}")
        return self.advance()

    def integer(self, tok: _Token) -> int:
        """The value of an integer token of at most MAX_COEFF_BITS bits."""
        if len(tok.text) <= _MAX_DIGITS:
            value = int(tok.text)
            if value.bit_length() <= MAX_COEFF_BITS:
                return value
        self.error(f"integer exceeds the bound of {MAX_COEFF_BITS} bits", tok)

    def bits_bounded(self, value: DiffPoly, tok: _Token) -> DiffPoly:
        """value, unless a coefficient has more than MAX_COEFF_BITS bits."""
        if any(c.bit_height() > MAX_COEFF_BITS for c in value.coefficients()):
            self.error(f"a coefficient exceeds the bound of {MAX_COEFF_BITS} bits", tok)
        return value

    def product(self, x: DiffPoly, y: DiffPoly, tok: _Token) -> DiffPoly:
        """x * y, refused before it is formed when it pairs too many terms."""
        if len(x) * len(y) > MAX_TERMS:
            self.error(f"expansion exceeds the bound of {MAX_TERMS} terms", tok)
        try:
            value = x * y
        except DegreeError as exc:
            self.error(str(exc), tok)
        return self.bits_bounded(value, tok)

    def power(self, base: DiffPoly, exponent: int, tok: _Token) -> DiffPoly:
        """base ** exponent by square-and-multiply, each step a checked product."""
        return _power(base, exponent, ONE_POLY, lambda x, y: self.product(x, y, tok))

    # -- grammar -------------------------------------------------------------

    def parse(self) -> DiffPoly:
        start = self.peek()
        value = self.expr()
        if self.peek().kind != "end":
            self.error("trailing input after expression")
        return self.bits_bounded(value, start)

    def expr(self) -> DiffPoly:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        value = self.term() * sign
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value - rhs if tok.text == "-" else value + rhs
                if len(value) > MAX_TERMS:
                    self.error(f"sum exceeds the bound of {MAX_TERMS} terms", tok)
            else:
                return value

    def term(self) -> DiffPoly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = self.product(value, self.factor(), tok)
            else:
                return value

    def factor(self) -> DiffPoly:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind != "int":
                    self.error("exponent must be a nonnegative integer")
                exponent = self.integer(exp_tok)
                if exponent > MAX_EXPONENT:
                    self.error(f"exponent exceeds the bound of {MAX_EXPONENT}", exp_tok)
                self.advance()
                value = self.power(value, exponent, tok)
            elif tok.kind == "op" and tok.text == "/":
                self.advance()
                div_tok = self.peek()
                if div_tok.kind != "int":
                    self.error("divisor must be a positive integer")
                self.advance()
                divisor = self.integer(div_tok)
                if divisor == 0:
                    self.error("division by zero", div_tok)
                value = value / divisor
            else:
                return value

    def atom(self) -> DiffPoly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return DiffPoly.constant(self.integer(tok))
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_DEPTH:
                self.error(f"parentheses nested deeper than {MAX_DEPTH} levels")
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return value
        if tok.kind == "ident":
            if tok.text == "i":
                self.advance()
                return DiffPoly.constant(GaussianRational(0, 1))
            marker = _DERIV_MARKER.match(tok.text)
            nxt = self.tokens[self.index + 1]
            if marker and nxt.kind == "op" and nxt.text == "(":
                return self.derivative(marker)
            self.advance()
            sym = self.table.lookup(tok.text)
            if sym is None:
                self.error(f"undeclared identifier {tok.text!r}", tok)
            return DiffPoly.of(sym)
        self.error("expected a number, identifier or parenthesized expression")

    def derivative(self, marker) -> DiffPoly:
        head = self.advance()
        declared_order = int(marker.group(1)) if marker.group(1) else None
        self.expect_op("(")
        name_tok = self.peek()
        if name_tok.kind != "ident":
            self.error("expected a function name")
        self.advance()
        base = self.table.lookup(name_tok.text)
        if base is None:
            self.error(f"undeclared identifier {name_tok.text!r}", name_tok)
        if base.kind != FUNCTION:
            self.error(f"{name_tok.text!r} is not a function symbol", name_tok)
        derived, order = base, 0
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == ",":
                self.advance()
                coord_tok = self.peek()
                if coord_tok.kind != "ident":
                    self.error("expected a coordinate name")
                self.advance()
                coord = self.table.lookup(coord_tok.text)
                if coord is None or coord.kind != COORDINATE:
                    self.error(
                        f"{coord_tok.text!r} is not a declared coordinate", coord_tok
                    )
                if coord.name not in base.depends_on:
                    self.error(
                        f"{base.name!r} does not depend on {coord.name!r}", coord_tok
                    )
                derived = derived.derivative(coord.name)
                order += 1
            elif tok.kind == "op" and tok.text == ")":
                self.advance()
                break
            else:
                self.error("expected ',' or ')'")
        if not order:
            self.error("derivative needs at least one coordinate", head)
        if declared_order is not None and declared_order != order:
            self.error(
                f"marker {head.text!r} expects {declared_order} coordinates, got {order}",
                head,
            )
        return DiffPoly.of(derived)


def parse_expr(text: str, table: SymbolTable) -> DiffPoly:
    """Parse and canonicalize one expression against declared identifiers."""
    return _Parser(text, table).parse()


def parse_constant(text: str) -> GaussianRational:
    """Parse a constant of Q(i); rejects anything with free identifiers."""
    value = parse_expr(text, SymbolTable())
    return value.constant_value()
