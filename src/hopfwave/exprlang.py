"""Coefficient expression language with exact symbolic derivatives.

Grammar (standard precedence, parentheses allowed):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' ['+'|'-'] INTEGER)?
    atom   := NUMBER | 'pi' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables: x, lambda, u1, u2, u3, u4.  Functions: sin, cos, exp, sqrt, tanh.
Exponents are integer literals only, so powers never hit branch cuts.

Expressions are immutable trees of seven node kinds (Num, Pi, Var, Pow,
Neg, Fun, and BinOp for + - * /); `eval` accepts floats or numpy arrays and
broadcasts, `diff` returns a new tree (orders up to 3 stay small thanks to
constant folding on construction). No stronger simplification is attempted:
only evaluation equivalence is guaranteed.

Each node is compiled once, on its first evaluation, into a Python function
of straight-line numpy code cached on the node. `eval` runs it with numpy's
floating-point warnings off and gives the caller's error state back;
`eval_unguarded` leaves that state to a caller that enters it once around
many evaluations, with the same exceptions and finiteness check.
Integer powers are evaluated by square-and-multiply, so a result may differ
from `pow` in the last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ParseError, UnknownIdentifier

VARIABLES = ("x", "lambda", "u1", "u2", "u3", "u4")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "tanh")


class _Emitter:
    """Straight-line source of one expression: each node appends a statement
    `t<i> = ...` and returns its value's name, so no source nests deeper."""

    def __init__(self):
        self.lines = []
        self.ns = {name: getattr(np, name) for name in FUNCTIONS}

    def tmp(self, rhs):
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {rhs}")
        return name

    def const(self, value):
        # bound by value: repr(1e400) would be the undefined name inf
        name = f"k{len(self.ns)}"
        self.ns[name] = value
        return name

    def power(self, base, n):
        """base^n, n >= 1, by square-and-multiply: log2(n) deep, not n."""
        if n == 1:
            return base
        half = self.power(base, n // 2)
        sq = self.tmp(f"{half} * {half}")
        return self.tmp(f"{sq} * {base}") if n % 2 else sq


class Expr:
    """Base node. Subclasses are frozen dataclasses; trees are shareable."""

    __slots__ = ("_fn",)    # the compiled function, set by the first evaluation

    def eval(self, env):
        """Evaluate at a binding of the free variables.

        env maps variable names to floats or numpy arrays. Raises
        EvalDomainError when the result is not finite (division by zero,
        sqrt of a negative number, overflow).
        """
        with np.errstate(all="ignore"):
            return self.eval_unguarded(env)

    def eval_unguarded(self, env):
        """eval inside the caller's numpy error state, for a caller that
        enters np.errstate(all="ignore") once around many evaluations."""
        fn = getattr(self, "_fn", None) or self._compile()
        try:
            val = fn(env)
        except KeyError as err:
            raise EvalDomainError(f"unbound variable {err.args[0]!r}") from None
        except (ZeroDivisionError, OverflowError) as err:
            raise EvalDomainError(f"{err} in: {self}") from None
        # the ufunc reduction itself: ndarray.all adds a Python-level call
        if not np.logical_and.reduce(np.isfinite(val), axis=None):
            raise EvalDomainError(f"expression not finite at the given point: {self}")
        return val

    def _compile(self):
        em = _Emitter()
        out = self._src(em)
        if em.lines:
            body = "".join(f"    {line}\n" for line in em.lines)
            exec(compile(f"def fn(env):\n{body}    return {out}\n", "<exprlang>",
                         "exec"), em.ns)
            fn = em.ns.pop("fn")    # so em.ns, fn's globals, holds no cycle back
        else:   # a constant: no statements, so no code to compile
            fn = lambda env, value=em.ns[out]: value
        object.__setattr__(self, "_fn", fn)
        return fn

    def diff(self, var, order=1):
        """Exact partial derivative of the given order."""
        if var not in VARIABLES:
            raise UnknownIdentifier(f"unknown variable {var!r}", 0, "one of " + ", ".join(VARIABLES))
        if order < 1:
            raise ValueError("order must be a positive integer")
        e = self
        for _ in range(order):
            e = e._d(var)
        return e

    def __str__(self):
        return self._fmt(0)

    # precedence levels for printing: 0 add, 1 mul, 2 unary, 3 power/atom


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def _src(self, em):
        return em.const(self.value)

    def _d(self, var):
        return Num(0.0)

    def _fmt(self, prec):
        if self.value < 0:
            s = repr(self.value)
            return f"({s})" if prec >= 2 else s
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def _src(self, em):
        return em.tmp(f"env[{self.name!r}]")

    def _d(self, var):
        return Num(1.0) if self.name == var else Num(0.0)

    def _fmt(self, prec):
        return self.name


@dataclass(frozen=True, slots=True)
class Pi(Expr):
    def _src(self, em):
        return em.const(math.pi)

    def _d(self, var):
        return Num(0.0)

    def _fmt(self, prec):
        return "pi"


_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1}   # printing precedence of each op


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str     # one of + - * /
    a: Expr
    b: Expr

    def _src(self, em):
        return em.tmp(f"{self.a._src(em)} {self.op} {self.b._src(em)}")

    def _d(self, var):
        da, db = self.a._d(var), self.b._d(var)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, self.b), mul(self.a, db))
        # (a/b)' = a'/b - a b'/b^2
        return sub(div(da, self.b), div(mul(self.a, db), mul(self.b, self.b)))

    def _fmt(self, prec):
        level = _LEVEL[self.op]
        op = f" {self.op} " if level == 0 else self.op
        s = f"{self.a._fmt(level)}{op}{self.b._fmt(level + 1)}"
        return f"({s})" if prec > level else s


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    n: int

    def _src(self, em):
        base = self.base._src(em)
        p = em.power(base, abs(self.n)) if self.n else em.tmp(f"{base} ** 0")
        return p if self.n >= 0 else em.tmp(f"1.0 / {p}")

    def _d(self, var):
        if self.n == 0:
            return Num(0.0)
        return mul(mul(Num(float(self.n)), powi(self.base, self.n - 1)),
                   self.base._d(var))

    def _fmt(self, prec):
        s = f"{self.base._fmt(3)}^{self.n}"
        return f"({s})" if prec > 2 else s


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr

    def _src(self, em):
        return em.tmp(f"-{self.a._src(em)}")

    def _d(self, var):
        return neg(self.a._d(var))

    def _fmt(self, prec):
        s = f"-{self.a._fmt(2)}"
        return f"({s})" if prec >= 2 else s


@dataclass(frozen=True, slots=True)
class Fun(Expr):
    name: str
    arg: Expr

    def _src(self, em):
        return em.tmp(f"{self.name}({self.arg._src(em)})")

    def _d(self, var):
        da = self.arg._d(var)
        if self.name == "sin":
            outer = Fun("cos", self.arg)
        elif self.name == "cos":
            outer = neg(Fun("sin", self.arg))
        elif self.name == "exp":
            outer = self
        elif self.name == "sqrt":
            outer = div(Num(0.5), self)
        elif self.name == "tanh":
            outer = sub(Num(1.0), mul(self, self))
        else:  # pragma: no cover - names are validated at parse time
            raise UnknownIdentifier(f"unknown function {self.name!r}", 0)
        return mul(outer, da)

    def _fmt(self, prec):
        return f"{self.name}({self.arg._fmt(0)})"


# ---------------------------------------------------------------------------
# smart constructors: constant folding and identity pruning keep derivative
# trees small; they preserve evaluation equivalence only.

def _const(e):
    return isinstance(e, Num)


def add(a, b):
    if _const(a) and _const(b):
        return Num(a.value + b.value)
    if _const(a) and a.value == 0.0:
        return b
    if _const(b) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if _const(a) and _const(b):
        return Num(a.value - b.value)
    if _const(b) and b.value == 0.0:
        return a
    if _const(a) and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if _const(a) and _const(b):
        return Num(a.value * b.value)
    if (_const(a) and a.value == 0.0) or (_const(b) and b.value == 0.0):
        return Num(0.0)
    if _const(a) and a.value == 1.0:
        return b
    if _const(b) and b.value == 1.0:
        return a
    return BinOp("*", a, b)


def div(a, b):
    if _const(a) and a.value == 0.0:
        return Num(0.0)
    if _const(b) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def neg(a):
    if _const(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(base, n):
    if n == 0:
        return Num(1.0)
    if n == 1:
        return base
    if _const(base):
        try:
            return Num(base.value ** n if n >= 0 else 1.0 / base.value ** (-n))
        except (ZeroDivisionError, OverflowError):
            pass    # left unfolded, so eval reports the domain error
    return Pow(base, n)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_OPS = "+-*/^()"


def _tokenize(text):
    tokens = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i, "a numeric literal")
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, "an operator, number or name")
    tokens.append(("end", None, n))
    return tokens


_BUILD = {"+": add, "-": sub, "*": mul, "/": div}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"got {value!r}", pos, f"'{op}'")
        return self.take()

    def expr(self):
        return self._chain("+-", self.term)

    def term(self):
        return self._chain("*/", self.unary)

    def _chain(self, ops, operand):
        """operand ((op in ops) operand)*, folded to the left."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.take()
            node = _BUILD[value](node, operand())

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner = self.unary()
            return inner if value == "+" else neg(inner)
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
                kind, value, pos = self.peek()
            if kind != "num" or not float(value).is_integer():
                raise ParseError(f"got {value!r}", pos, "an integer exponent")
            self.take()
            return powi(base, sign * int(value))
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value == "pi":
                return Pi()
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Fun(value, arg)
            if value in VARIABLES:
                return Var(value)
            raise UnknownIdentifier(
                f"unknown identifier {value!r}", pos,
                "a variable (" + ", ".join(VARIABLES) + "), pi, or a function")
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"got {value!r}", pos, "a number, name or '('")


def parse(text):
    """Parse expression text into an Expr tree."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos, "end of expression")
    return node


def free_variables(e):
    """Set of variable names appearing in the tree."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, BinOp):
            stack.extend((node.a, node.b))
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Neg):
            stack.append(node.a)
        elif isinstance(node, Fun):
            stack.append(node.arg)
    return out
