"""Small expression language for the free functions of chain families.

Grammar (lowest to highest precedence):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right-associative
    atom   := NUMBER | "s" | "t" | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Known functions: exp, log, sin, cos, sqrt, abs (all unary).  Values are real.
`compile_expr` is the one evaluator: it builds a tree once into closures, and
`eval_expr` compiles for a single point.  Domain violations (division by zero,
log of a nonpositive number, sqrt of a negative number, a negative base with a
non-integer exponent, overflow, sin or cos of an infinite argument, a
non-finite result) raise DomainEvalError carrying the offending sub-expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EvoalgError


class ExprError(EvoalgError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class ArityError(ExprSyntaxError):
    pass


class DomainEvalError(ExprError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in {to_string(subexpr)!r}")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "s" or "t"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | Bin | Call

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")
VARIABLES = ("s", "t")


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < n and (
                    text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
                ):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i) from None
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, got {t.text or 'end of input'!r}", t.pos)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            return Bin("^", base, self.parse_factor())
        return base

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(float(t.text))
        if t.kind == "name":
            self.next()
            if self.peek().kind == "(":
                if t.text not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {t.text!r}", t.pos)
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(f"{t.text} takes 1 argument, got {len(args)}", t.pos)
                return Call(t.text, args[0])
            if t.text in VARIABLES:
                return Var(t.text)
            raise UnknownIdentifierError(f"unknown identifier {t.text!r}", t.pos)
        if t.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected {t.text or 'end of input'!r}", t.pos)


def parse_expr(text: str) -> Expr:
    """Parse an expression in the variables s and t."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(_tokenize(text))
    node = p.parse_expr()
    tail = p.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return node


def eval_expr(e: Expr, s: float, t: float) -> float:
    """`e` at (s, t), compiled for this one call; build a callable once with
    `compile_expr` to evaluate many points."""
    return compile_expr(e)(s, t)


def compile_expr(e: Expr):
    """`e` built once into a callable (s, t) -> float, one closure per node.
    Children run left to right before their node's domain check; a node that
    is not an expression raises TypeError here, before anything runs."""
    f = _compile(e)

    def run(s, t):
        v = f(s, t)
        if not math.isfinite(v):
            raise DomainEvalError("non-finite result", e)
        return v

    return run


_CALLS = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
          "sqrt": math.sqrt, "abs": abs}
# the arguments a function refuses before it is called
_OUTSIDE = {"log": (lambda x: x <= 0.0, "log of a nonpositive number"),
            "sqrt": (lambda x: x < 0.0, "sqrt of a negative number")}


def _compile(e: Expr):
    """The closure of one node."""
    if isinstance(e, Num):
        v = e.value
        return lambda s, t: v
    if isinstance(e, Var):
        return (lambda s, t: s) if e.name == "s" else (lambda s, t: t)
    if isinstance(e, Neg):
        f = _compile(e.arg)
        return lambda s, t: -f(s, t)
    if isinstance(e, Bin):
        l, r = _compile(e.left), _compile(e.right)
        if e.op == "+":
            return lambda s, t: l(s, t) + r(s, t)
        if e.op == "-":
            return lambda s, t: l(s, t) - r(s, t)
        if e.op == "*":
            return lambda s, t: l(s, t) * r(s, t)
        if e.op == "/":
            def div(s, t):
                a = l(s, t)
                b = r(s, t)
                if b == 0.0:
                    raise DomainEvalError("division by zero", e)
                return a / b

            return div

        def power(s, t):
            a = l(s, t)
            b = r(s, t)
            if a == 0.0 and b < 0.0:
                raise DomainEvalError("zero raised to a negative power", e)
            if a < 0.0 and b % 1 != 0:
                raise DomainEvalError("negative base with non-integer exponent", e)
            try:
                return float(a**b)
            except OverflowError:
                raise DomainEvalError("overflow", e) from None

        return power
    if isinstance(e, Call) and e.fn in _CALLS:
        f, fn = _compile(e.arg), _CALLS[e.fn]
        outside, message = _OUTSIDE.get(e.fn, (None, None))

        def call(s, t):
            x = f(s, t)
            if outside is not None and outside(x):
                raise DomainEvalError(message, e)
            try:
                return fn(x)
            except OverflowError:
                raise DomainEvalError("overflow", e) from None
            except ValueError:  # sin or cos of an infinite argument
                raise DomainEvalError("infinite argument", e) from None

        return call
    raise TypeError(f"not an expression node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_string(x)) == x structurally."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        out = repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
        return out
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = _render(e.arg, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if parent_prec > _PREC["neg"] else out
    if isinstance(e, Bin):
        p = _PREC[e.op]
        # left-assoc for + - * /: right child needs a bump; ^ is right-assoc
        if e.op == "^":
            left = _render(e.left, p + 1)
            right = _render(e.right, p)
        else:
            left = _render(e.left, p)
            right = _render(e.right, p + 1)
        out = f"{left}{e.op}{right}"
        return f"({out})" if parent_prec > p else out
    raise TypeError(f"not an expression node: {e!r}")
