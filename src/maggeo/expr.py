"""Arithmetic expression parser/evaluator for user-defined field entries.

Grammar (standard precedence, ^ right-associative and binding tighter
than unary minus):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := number | identifier | identifier '(' expr ')' | '(' expr ')'

Identifiers are the coordinates x1..xn, the energy parameter k, and the
function names sin cos tan exp log sqrt abs sinh cosh.  An expression
evaluates at one point or at a stack of points in one pass of numpy
ufuncs; evaluation is total on its domain, and a domain violation or an
overflow at any point raises ``EvalError`` instead of propagating inf or
NaN.  Every node supports symbolic differentiation with
respect to a coordinate, which gives analytic derivative callbacks for
expression-defined systems.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sinh": np.sinh,
    "cosh": np.cosh,
}

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_][A-Za-z_0-9]*)|(.))")


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'name', 'op'
    text: str
    offset: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        num, name, op = m.groups()
        start = m.start(1) if num else (m.start(2) if name else m.start(3))
        if num:
            tokens.append(Token("num", m.group(0).strip(), start))
        elif name:
            tokens.append(Token("name", name, start))
        elif op.strip():
            if op not in "+-*/^()":
                raise ParseError(f"unexpected character {op!r}", start)
            tokens.append(Token("op", op, start))
        pos = m.end()
    return tokens


# -- AST ---------------------------------------------------------------------


class Node:
    def __call__(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __call__(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def __call__(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Num(1.0 if self.name == var else 0.0)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Unary(Node):
    child: Node

    def __call__(self, env):
        return -self.child(env)

    def diff(self, var):
        return Unary(self.child.diff(var))

    def __str__(self):
        return f"(-{self.child})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def __call__(self, env):
        a = self.left(env)
        b = self.right(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(b == 0.0):
                raise EvalError("division by zero")
            return a / b
        # power
        if np.any((a == 0.0) & (b < 0.0)):
            raise EvalError("zero raised to a negative power")
        if np.any((a < 0.0) & (b != np.trunc(b))):
            raise EvalError("negative base with non-integer exponent")
        return a ** b

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return BinOp("+", da, db)
        if self.op == "-":
            return BinOp("-", da, db)
        if self.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
        if self.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("*", b, b))
        # d(a^b) = a^b * (db * log a + b * da / a); constant exponents keep
        # the derivative polynomial when possible
        if isinstance(b, Num):
            return BinOp("*", BinOp("*", b, BinOp("^", a, Num(b.value - 1.0))), da)
        log_a = Call("log", a)
        return BinOp("*", self, BinOp("+", BinOp("*", db, log_a),
                                      BinOp("/", BinOp("*", b, da), a)))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node

    def __call__(self, env):
        x = self.arg(env)
        if self.fn == "log" and np.any(x <= 0.0):
            raise EvalError("log of a non-positive value")
        if self.fn == "sqrt" and np.any(x < 0.0):
            raise EvalError("sqrt of a negative value")
        return FUNCTIONS[self.fn](x)

    def diff(self, var):
        a, da = self.arg, self.arg.diff(var)
        outer = {
            "sin": lambda: Call("cos", a),
            "cos": lambda: Unary(Call("sin", a)),
            "tan": lambda: BinOp("/", Num(1.0), BinOp("^", Call("cos", a), Num(2.0))),
            "exp": lambda: Call("exp", a),
            "log": lambda: BinOp("/", Num(1.0), a),
            "sqrt": lambda: BinOp("/", Num(0.5), Call("sqrt", a)),
            "sinh": lambda: Call("cosh", a),
            "cosh": lambda: Call("sinh", a),
        }
        if self.fn == "abs":
            raise EvalError("abs is not differentiable; use analytic fields without abs")
        return BinOp("*", outer[self.fn](), da)

    def __str__(self):
        return f"{self.fn}({self.arg})"


@dataclass(frozen=True)
class Expression:
    """Parsed expression over x1..xn and the parameter k."""

    root: Node
    source: str
    variables: Tuple[str, ...]

    def __call__(self, coords, k=None):
        """Value at the point or stack ``coords`` (coordinates last), with
        the leading axes of the stack; a constant stays a scalar."""
        coords = np.asarray(coords, dtype=float)
        env = {f"x{i+1}": coords[..., i] for i in range(coords.shape[-1])}
        if k is not None:
            env["k"] = float(k)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return self.root(env)
        except (FloatingPointError, OverflowError) as exc:
            raise EvalError(f"{exc} in {self.source!r}") from None

    def diff(self, var):
        return Expression(self.root.diff(var), f"d({self.source})/d{var}", self.variables)

    def max_coordinate(self):
        worst = 0
        for name in self.variables:
            if name.startswith("x") and name[1:].isdigit():
                worst = max(worst, int(name[1:]))
        return worst

    def __str__(self):
        return str(self.root)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = set()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != op:
            off = tok.offset if tok else len(self.text)
            raise ParseError(f"expected {op!r}", off)
        return self.next()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "+-":
            self.next()
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "*/":
            self.next()
            node = BinOp(tok.text, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "-":
            self.next()
            return Unary(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            return BinOp("^", base, self.factor())  # right-associative
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in FUNCTIONS:
                raise ParseError(f"function {tok.text!r} needs parentheses", tok.offset)
            if tok.text != "k" and not re.fullmatch(r"x\d+", tok.text):
                raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
            self.names.add(tok.text)
            return Var(tok.text)
        if tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.offset)


def parse_expression(text):
    """Parse an arithmetic expression into an ``Expression``."""
    parser = _Parser(text)
    root = parser.parse()
    return Expression(root, text, tuple(sorted(parser.names)))
