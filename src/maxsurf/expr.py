"""Expression language for holomorphic functions of one complex variable.

Parsing, evaluation, compilation (to scalar closures or to numpy functions
of arrays), symbolic differentiation and canonical printing of a small
closed language:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ['^' ['-'] digits]
    atom   := number | 'i' | 'z' | name '(' expr ')' | '(' expr ')'

Functions: exp, log, sin, cos, sinh, cosh, tanh, sqrt.  log and sqrt use
principal branches.  Exponents are integer literals; write exp(w*log(z)) for
anything else.  The input syntax also accepts ``sconj(e)``, the Schwarz
conjugate z -> conj(e(conj(z))); the parser applies the ``sconj``
constructor, so no tree carries it (see ``sconj``).

Canonical printing is deterministic.  Parsing the printed form rebuilds an
identical tree when every constant is real or +-i; any other constant prints
as arithmetic on i (``Const(-0.5j)`` as ``-0.5*i``), which parses to a
different tree that evaluates to the same values.
Expression trees are immutable and all operations here are pure, so they
are safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "Add",
    "Call",
    "Const",
    "Div",
    "EvalError",
    "Expr",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Sub",
    "Var",
    "compile_array",
    "compile_fn",
    "differentiate",
    "evaluate",
    "format_expr",
    "parse",
    "sconj",
    "substitute",
]


class ParseError(Exception):
    """Malformed input; carries the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str):
        super().__init__(f"at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


class EvalError(Exception):
    """Evaluation fault (division by zero, log of zero, overflow)."""

    def __init__(self, message: str, node: "Expr | None" = None):
        self.node = node
        if node is not None:
            message = f"{message} in '{format_expr(node)}'"
        super().__init__(message)


@dataclass(frozen=True)
class Const:
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

_FUNCTIONS: dict[str, Callable[[complex], complex]] = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "tanh": cmath.tanh,
    "sqrt": cmath.sqrt,
}

_NP_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}

# the derivative of each function, as a tree in its argument a (the chain rule's outer factor)
_DERIVATIVES: dict[str, Callable[[Expr], Expr]] = {
    "exp": lambda a: Call("exp", a),
    "log": lambda a: Div(Const(1), a),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: _neg(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "tanh": lambda a: _sub(Const(1), Pow(Call("tanh", a), 2)),
    "sqrt": lambda a: Div(Const(0.5), Call("sqrt", a)),
}


def sconj(e: Expr) -> Expr:
    """Schwarz conjugate of an expression: z -> conj(e(conj(z))).

    Every function of the language has real coefficients, so on its
    principal branch f(conj w) = conj(f(w)), bit for bit in cmath and numpy;
    arithmetic commutes with conj as well.  The conjugate is therefore the
    same tree with every constant conjugated, and sconj is an involution.
    """
    return _map_leaves(e, lambda leaf: Const(leaf.value.conjugate()) if isinstance(leaf, Const) else leaf)


def _map_leaves(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """The tree e with every Const and Var node x replaced by leaf(x)."""
    if isinstance(e, (Const, Var)):
        return leaf(e)
    if isinstance(e, Neg):
        return Neg(_map_leaves(e.arg, leaf))
    if isinstance(e, Call):
        return Call(e.func, _map_leaves(e.arg, leaf))
    if isinstance(e, Pow):
        return Pow(_map_leaves(e.base, leaf), e.exponent)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(_map_leaves(e.left, leaf), _map_leaves(e.right, leaf))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# parsing

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXPONENT = re.compile(r"-?\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str | None:
        self._ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(self.pos, f"'{ch}'")
        self.pos += 1

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                e = Add(e, self.term())
            elif ch == "-":
                self.pos += 1
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                e = Mul(e, self.factor())
            elif ch == "/":
                self.pos += 1
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            e = self.factor()
            # fold signed literals so printed constants re-parse structurally
            if isinstance(e, Const):
                return Const(-e.value)
            return Neg(e)
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        if self._peek() == "^":
            self.pos += 1
            self._ws()
            m = _EXPONENT.match(self.text, self.pos)
            if m is None:
                raise ParseError(self.pos, "integer exponent")
            self.pos = m.end()
            return Pow(e, int(m.group()))
        return e

    def atom(self) -> Expr:
        ch = self._peek()
        if ch is None:
            raise ParseError(self.pos, "operand")
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        if ch.isdecimal():  # as \d: '²' is a digit to str.isdigit, but not decimal
            m = _NUMBER.match(self.text, self.pos)
            x = float(m.group())
            if not math.isfinite(x):  # 1e999 reads as inf
                raise ParseError(self.pos, "finite number")
            self.pos = m.end()
            return Const(complex(x))
        m = _NAME.match(self.text, self.pos)
        if m is None:
            raise ParseError(self.pos, "operand")
        name = m.group()
        start = self.pos
        self.pos = m.end()
        if name == "z":
            return Var()
        if name == "i":
            return Const(1j)
        if name == "sconj" or name in _FUNCTIONS:
            self._expect("(")
            e = self.expr()
            self._expect(")")
            return sconj(e) if name == "sconj" else Call(name, e)
        raise ParseError(start, "known function or variable")


def parse(text: str) -> Expr:
    """Parse an expression string, raising ParseError with the fault offset."""
    p = _Parser(text)
    e = p.expr()
    p._ws()
    if p.pos != len(text):
        raise ParseError(p.pos, "end of input")
    return e


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, z: complex) -> complex:
    """Evaluate at a point with principal branches: the compile_fn closure of e
    at z, raising its EvalError faults."""
    return compile_fn(e)(complex(z))


def compile_fn(e: Expr) -> Callable[[complex], complex]:
    """Compile to a closure of z that raises EvalError, naming the faulting node,
    on division by zero, a zero base with a negative exponent, the log of zero
    and overflow.  Operands are evaluated left to right, so where both faulted
    the left one's fault is raised."""
    return _compile(e, _SCALAR)


def compile_array(*trees: Expr) -> Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]]:
    """Compile trees to one function of a complex array, evaluated elementwise with numpy, that returns
    the tree's array, or one array per tree; a subtree they share by identity is computed once.

    Branches are those of compile_fn (principal, signed zeros as in cmath).  Instead of raising, an
    operation whose result is not finite yields NaN, which stays NaN up the tree; z, constants and
    their negations are used as given (exp(z) at z = -inf is 0).  Where compile_fn would raise
    EvalError the array holds NaN.  The converse does not hold (scalar arithmetic may pass through an
    infinity and come back finite); callers rerun non-finite elements through compile_fn.
    """
    program, memo = _ArrayProgram(), {}
    target = program.target()
    roots = [program.array(program.guard(_compile(e, target, memo))) for e in trees]

    def run(z: np.ndarray) -> np.ndarray | tuple[np.ndarray, ...]:
        v = [np.asarray(z, dtype=complex)]
        with np.errstate(all="ignore"):
            for step in program.steps:
                v.append(step(v))
        return v[roots[0]] if len(roots) == 1 else tuple(v[r] for r in roots)

    return run


def _compile(e: Expr, target: dict, memo: dict | None = None) -> Callable:
    """The one tree walk behind compile_fn and compile_array: ``target`` maps each node type to a
    builder of that node's closure (an array step's register) from the node and what its children
    built.  With a ``memo`` dict, a node met again by identity is built once."""
    if memo is not None and id(e) in memo:
        return memo[id(e)]
    build = target.get(t := type(e))
    if build is None:
        raise TypeError(f"not an Expr node: {e!r}")
    if t is Const or t is Var:
        out = build(e)
    elif t is Neg or t is Call:
        out = build(e, _compile(e.arg, target, memo))
    elif t is Pow:
        out = build(e, _compile(e.base, target, memo))
    else:
        out = build(e, _compile(e.left, target, memo), _compile(e.right, target, memo))
    if memo is not None:
        memo[id(e)] = out
    return out


def _scalar_div(e: Div, l, r):
    def div(z):
        try:
            return l(z) / r(z)
        except ZeroDivisionError:
            raise EvalError("division by zero", e) from None

    return div


def _scalar_pow(e: Pow, b):
    n = e.exponent

    def power(z):
        try:
            return b(z) ** n
        except ZeroDivisionError:
            raise EvalError("zero base with negative exponent", e) from None
        except OverflowError:
            raise EvalError("overflow", e) from None

    return power


def _scalar_call(e: Call, a):
    fn = _FUNCTIONS[e.func]

    def call(z):
        arg = a(z)
        try:
            return fn(arg)
        except (ValueError, OverflowError) as exc:
            message = "log of zero" if e.func == "log" and arg == 0 else str(exc)
            raise EvalError(message, e) from None

    return call


_SCALAR: dict[type, Callable] = {
    Const: lambda e: lambda z, v=e.value: v,
    Var: lambda e: lambda z: z,
    Neg: lambda e, a: lambda z: -a(z),
    Add: lambda e, l, r: lambda z: l(z) + r(z),
    Sub: lambda e, l, r: lambda z: l(z) - r(z),
    Mul: lambda e, l, r: lambda z: l(z) * r(z),
    Div: _scalar_div,
    Pow: _scalar_pow,
    Call: _scalar_call,
}


def _finite(x: np.ndarray) -> np.ndarray:
    """x with every non-finite element replaced by NaN."""
    return x if np.isfinite(x).all() else np.where(np.isfinite(x), x, np.nan)


class _ArrayProgram:
    """The array target of _compile: a straight-line program over registers v, where v[0] is z and
    each step appends one value.  A builder returns its node's register, or a Const node, which a
    binary step takes as a Python complex scalar and any other step fills to z's shape.  +, -, *,
    negation, positive powers and numerators keep a non-finite value non-finite, while a function, a
    denominator or a negative power may make it finite (exp(-inf) = 0, 1/inf = 0), so only a computed
    value that feeds one of those, or is a result, is guarded: made NaN where it is not finite."""

    OPERATORS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}

    def __init__(self):
        self.steps: list[Callable] = []
        self._guarded = {0: 0}  # register -> the register of its guarded value; z and its negations are their own

    def target(self) -> dict:
        """The builders for _compile, made per use: kept on self, they would make a reference cycle."""
        return {Const: lambda e: e, Var: lambda e: 0, Neg: self._neg, Pow: self._pow, Call: self._call,
                **dict.fromkeys(self.OPERATORS, self._binary)}

    def _emit(self, step: Callable) -> int:
        self.steps.append(step)
        return len(self.steps)

    def array(self, r) -> int:
        """r's register; a Const is filled to the shape of z."""
        return self._emit(lambda v, c=r.value: np.full(v[0].shape, c)) if type(r) is Const else r

    def guard(self, r):
        """r, or for a computed value the register of its guarded value, once per register."""
        if type(r) is Const:
            return r
        if r not in self._guarded:
            self._guarded[r] = self._emit(lambda v: _finite(v[r]))
        return self._guarded[r]

    def _neg(self, e: Neg, a):
        if type(a) is Const:  # negation is exact, so it folds
            return Const(-a.value)
        r = self._emit(lambda v: -v[a])
        if self._guarded.get(a) == a:
            self._guarded[r] = r
        return r

    def _call(self, e: Call, a) -> int:
        fn, i = _NP_FUNCTIONS[e.func], self.array(self.guard(a))
        return self._emit(lambda v: fn(v[i]))

    def _pow(self, e: Pow, b) -> int:
        n, i = e.exponent, self.array(self.guard(b) if e.exponent < 0 else b)
        if n == 0:  # numpy gives nan^0 = 1, but a non-finite base must give NaN
            return self._emit(lambda v: np.where(np.isfinite(v[i]), 1 + 0j, np.nan))
        return self._emit(lambda v: v[i] ** n)

    def _binary(self, e, left, right) -> int:
        op = self.OPERATORS[type(e)]
        right = self.guard(right) if op is np.divide else right
        if type(left) is Const and type(right) is Const:
            left = self.array(left)
        if type(left) is Const:
            return self._emit(lambda v, c=left.value: op(c, v[right]))
        if type(right) is Const:
            return self._emit(lambda v, c=right.value: op(v[left], c))
        return self._emit(lambda v: op(v[left], v[right]))


# ---------------------------------------------------------------------------
# differentiation

def _is_const(e: Expr, v: complex) -> bool:
    return isinstance(e, Const) and e.value == v


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return Const(0)
    if _is_const(b, 1):
        return a
    return Div(a, b)


def _pow(b: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1)
    if n == 1:
        return b
    return Pow(b, n)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative."""
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        a, b = e.left, e.right
        return _add(_mul(differentiate(a), b), _mul(a, differentiate(b)))
    if isinstance(e, Div):
        a, b = e.left, e.right
        num = _sub(_mul(differentiate(a), b), _mul(a, differentiate(b)))
        return _div(num, Pow(b, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0)
        inner = _mul(Const(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(inner, differentiate(e.base))
    if isinstance(e, Call):
        return _mul(_DERIVATIVES[e.func](e.arg), differentiate(e.arg))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, w: Expr) -> Expr:
    """Replace the variable z by the expression w (composition e o w)."""
    return _map_leaves(e, lambda leaf: w if isinstance(leaf, Var) else leaf)


# ---------------------------------------------------------------------------
# printing

_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5
_OPERATOR_SYNTAX = {Add: ("+", _P_ADD), Sub: ("-", _P_ADD), Mul: ("*", _P_MUL), Div: ("/", _P_MUL)}


def _fmt_real(x: float) -> str:
    if abs(x) < 1e16 and x == int(x):  # int() of a non-finite x raises
        return str(int(x))
    return repr(x)


def _fmt_const(v: complex) -> tuple[str, int]:
    re_, im_ = v.real, v.imag
    if im_ == 0:
        s = _fmt_real(re_)
        return s, (_P_NEG if s.startswith("-") else _P_ATOM)
    if re_ == 0:
        if im_ == 1:
            return "i", _P_ATOM
        if im_ == -1:
            return "-i", _P_NEG
        s = _fmt_real(im_) + "*i"
        return s, (_P_NEG if s.startswith("-") else _P_MUL)
    ims = "i" if abs(im_) == 1 else _fmt_real(abs(im_)) + "*i"
    sign = "+" if im_ > 0 else "-"
    return f"({_fmt_real(re_)}{sign}{ims})", _P_ATOM


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "z", _P_ATOM
    if isinstance(e, Neg):
        s, p = _fmt(e.arg)
        if p < _P_NEG:
            s = f"({s})"
        return f"-{s}", _P_NEG
    if isinstance(e, (Add, Sub, Mul, Div)):
        op, prec = _OPERATOR_SYNTAX[type(e)]
        ls, lp = _fmt(e.left)
        rs, rp = _fmt(e.right)
        if lp < prec:
            ls = f"({ls})"
        if rp <= prec:
            rs = f"({rs})"
        return f"{ls}{op}{rs}", prec
    if isinstance(e, Pow):
        bs, bp = _fmt(e.base)
        if bp < _P_ATOM:
            bs = f"({bs})"
        return f"{bs}^{e.exponent}", _P_POW
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg)[0]})", _P_ATOM
    raise TypeError(f"not an Expr node: {e!r}")


def format_expr(e: Expr) -> str:
    """Canonical printing.  parse(format_expr(e)) rebuilds e when its constants
    are real or +-i, and otherwise a tree with the same values."""
    return _fmt(e)[0]
