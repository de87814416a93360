"""Expression language for holomorphic functions of one complex variable.

Parsing, evaluation, compilation (to scalar closures or to numpy functions
of arrays), symbolic differentiation, a small normal form (``_NormalForm``,
in which ``extension.extend`` writes the reflected formulas) and canonical
printing of a small closed language:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ['^' ['-'] digits]
    atom   := number | 'i' | 'z' | name '(' expr ')' | '(' expr ')'

At most 100 brackets (``_NESTING``), those of calls included, may be open at once, and at most
200 operations (``_HEIGHT``: operators, signs, powers and calls) nested in the tree, from its root
to any leaf.
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
import struct
from dataclasses import FrozenInstanceError
from typing import Callable, NamedTuple, Union


class _LazyNumpy:
    """numpy, imported on the first attribute read.  A module binds ``np = _LazyNumpy(globals())``; that
    read imports numpy and rebinds the module's ``np`` to numpy itself, so later reads cost nothing extra,
    and a process that never touches an array (eval, catenoid, a config error) never imports numpy."""

    __slots__ = ("_scope",)

    def __init__(self, scope: dict):
        self._scope = scope

    def __getattr__(self, name: str):
        import numpy

        self._scope["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())

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


class _Slotted:
    """An immutable value with slots (the tree nodes, and LVector) that its __init__ sets once: equal by exact
    type and fields, hashed by its fields, printed as a dataclass, rebuilt by copy and pickle through __init__."""

    __slots__ = __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Const(_Slotted):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: complex):
        _set_value(self, complex(value))


class Var(_Slotted):
    __slots__ = ()


class Neg(_Slotted):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: "Expr"):
        _set_arg(self, arg)


class _Binary(_Slotted):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        _set_left(self, left)
        _set_right(self, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Slotted):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: "Expr", exponent: int):
        _set_base(self, base)
        _set_exponent(self, exponent)


class Call(_Slotted):
    __slots__ = __match_args__ = ("func", "arg")

    def __init__(self, func: str, arg: "Expr"):
        _set_func(self, func)
        _set_call_arg(self, arg)


# the slots' own setters, through which __init__ sets each field once: __setattr__ refuses
_set_value, _set_arg, _set_left, _set_right = Const.value.__set__, Neg.arg.__set__, _Binary.left.__set__, _Binary.right.__set__
_set_base, _set_exponent, _set_func, _set_call_arg = Pow.base.__set__, Pow.exponent.__set__, Call.func.__set__, Call.arg.__set__

Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5
# each binary operator's symbol and precedence, as it parses and prints
_OPERATOR_SYNTAX = {Add: ("+", _P_ADD), Sub: ("-", _P_ADD), Mul: ("*", _P_MUL), Div: ("/", _P_MUL)}


class _Function(NamedTuple):
    scalar: Callable[[complex], complex]
    array: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[Expr], Expr]  # as a tree in its argument a (the chain rule's outer factor)


# each array function looks its ufunc up when it is called, so that building the table imports no numpy
_FUNCTIONS: dict[str, _Function] = {
    "exp": _Function(cmath.exp, lambda x: np.exp(x), lambda a: Call("exp", a)),
    "log": _Function(cmath.log, lambda x: np.log(x), lambda a: Div(Const(1), a)),
    "sin": _Function(cmath.sin, lambda x: np.sin(x), lambda a: Call("cos", a)),
    "cos": _Function(cmath.cos, lambda x: np.cos(x), lambda a: _neg(Call("sin", a))),
    "sinh": _Function(cmath.sinh, lambda x: np.sinh(x), lambda a: Call("cosh", a)),
    "cosh": _Function(cmath.cosh, lambda x: np.cosh(x), lambda a: Call("sinh", a)),
    "tanh": _Function(cmath.tanh, lambda x: np.tanh(x), lambda a: _sub(Const(1), Pow(Call("tanh", a), 2))),
    "sqrt": _Function(cmath.sqrt, lambda x: np.sqrt(x), lambda a: Div(Const(0.5), Call("sqrt", a))),
}

# the target of _compile that rebuilds each node from its rebuilt children; sconj and substitute add the leaves
_REBUILD: dict[type, Callable] = {
    Neg: lambda e, a: Neg(a),
    Call: lambda e, a: Call(e.func, a),
    Pow: lambda e, b: Pow(b, e.exponent),
    **dict.fromkeys(_OPERATOR_SYNTAX, lambda e, left, right: type(e)(left, right)),
}
_SCONJ = {**_REBUILD, Const: lambda e: Const(e.value.conjugate()), Var: lambda e: e}


def sconj(e: Expr) -> Expr:
    """Schwarz conjugate of an expression: z -> conj(e(conj(z))).

    Every function of the language has real coefficients, so on its
    principal branch f(conj w) = conj(f(w)), bit for bit in cmath and numpy;
    arithmetic commutes with conj as well.  The conjugate is therefore the
    same tree with every constant conjugated, and sconj is an involution.
    """
    return _compile(e, _SCONJ)


def substitute(e: Expr, w: Expr) -> Expr:
    """Replace the variable z by the expression w (composition e o w)."""
    return _compile(e, {**_REBUILD, Const: lambda c: c, Var: lambda v: w})


# ---------------------------------------------------------------------------
# parsing

# a token and the whitespace after it; an exponent also with the whitespace before it
_NUMBER = re.compile(r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)[ \t]*")
_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)[ \t]*")
_EXPONENT = re.compile(r"[ \t]*(?:(-?\d+)[ \t]*)?")
# the node of each binary operator's symbol, for sums and for products
_SUMS, _PRODUCTS = ({symbol: node for node, (symbol, q) in _OPERATOR_SYNTAX.items() if q == p} for p in (_P_ADD, _P_MUL))
_NESTING = 100  # brackets open at once, calls' included: each costs three frames of the descent below
# operations nested in a tree, its height: every walk of a tree (compile_fn and its closures, the array program,
# differentiate, _NormalForm, format_expr, == and hash) recurses on it, the normal form two frames a level
_HEIGHT = 200


def parse(text: str) -> Expr:
    """Parse an expression string, raising ParseError with the fault offset."""
    e, i, _ = _sum(text + "\0", 0, 0)  # the NUL past the end matches no token, so a lookahead needs no bounds test
    if i != len(text):
        raise ParseError(i, "end of input")
    return e


def _too_high(at: int) -> ParseError:
    """The fault of the operation at offset ``at``, the first whose node stands higher than _HEIGHT."""
    return ParseError(at, f"at most {_HEIGHT} nested operations")


# Each level reads s from offset i with depth brackets open and returns its tree, the offset past its whitespace
# and the tree's height.
def _sum(s: str, i: int, depth: int) -> tuple[Expr, int, int]:
    e, i, h = _product(s, i, depth)
    while (node := _SUMS.get(s[i])) is not None:
        right, j, r = _product(s, i + 1, depth)
        h = (h if h > r else r) + 1
        if h > _HEIGHT:
            raise _too_high(i)
        e, i = node(e, right), j
    return e, i, h


def _product(s: str, i: int, depth: int) -> tuple[Expr, int, int]:
    e, i, h = _factor(s, i, depth)
    while (node := _PRODUCTS.get(s[i])) is not None:
        right, j, r = _factor(s, i + 1, depth)
        h = (h if h > r else r) + 1
        if h > _HEIGHT:
            raise _too_high(i)
        e, i = node(e, right), j
    return e, i, h


def _factor(s: str, i: int, depth: int) -> tuple[Expr, int, int]:
    """factor, power and atom of the grammar, as one level, from the whitespace before it."""
    signs, start, h = 0, i, 0
    while (c := s[i]) in " \t-":
        signs += c == "-"
        i += 1
    e = name = None
    if c.isdecimal():  # as \d: '²' is a digit to str.isdigit, but not decimal
        m = _NUMBER.match(s, i)
        x = float(m[1])
        if not math.isfinite(x):  # 1e999 reads as inf
            raise ParseError(i, "finite number")
        e, i = Const(x), m.end()
    elif c != "(":
        m = _NAME.match(s, i)
        if m is None:
            raise ParseError(i, "operand")
        name = m[1]
        if name == "z":
            e = Var()
        elif name == "i":
            e = Const(1j)
        elif name != "sconj" and name not in _FUNCTIONS:
            raise ParseError(i, "known function or variable")
        elif s[m.end()] != "(":
            raise ParseError(m.end(), "'('")
        i = m.end()
    if e is None:  # s[i] is the '(' of a bracket or of a call
        if depth == _NESTING:
            raise ParseError(i, f"at most {_NESTING} nested brackets")
        e, i, h = _sum(s, i + 1, depth + 1)
        if s[i] != ")":
            raise ParseError(i, "')'")
        i += 1
        while s[i] in " \t":
            i += 1
        if name == "sconj":
            e = sconj(e)
        elif name is not None:
            if h == _HEIGHT:
                raise _too_high(m.start())  # at the call's name
            e, h = Call(name, e), h + 1
    if s[i] == "^":
        m = _EXPONENT.match(s, i + 1)
        if m[1] is None:
            raise ParseError(m.end(), "integer exponent")
        if h == _HEIGHT:
            raise _too_high(i)
        e, i, h = Pow(e, int(m[1])), m.end(), h + 1
    if signs:
        if type(e) is Const:  # fold signed literals so printed constants re-parse structurally
            return (Const(-e.value) if signs % 2 else e), i, 0
        if h + signs > _HEIGHT:  # at the sign whose Neg stands at _HEIGHT + 1, the last sign's being innermost
            raise _too_high([k for k in range(start, i) if s[k] == "-"][h + signs - _HEIGHT - 1])
        for _ in range(signs):
            e = Neg(e)
        h += signs
    return e, i, h


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
    the tree's array, or one array per tree; each distinct operation of theirs is computed once.

    Branches are those of compile_fn (principal, signed zeros as in cmath).  Instead of raising, an
    operation whose result is not finite yields NaN, which stays NaN up the tree; z, constants and
    their negations are used as given (exp(z) at z = -inf is 0).  Where compile_fn would raise
    EvalError the array holds NaN.  The converse does not hold (scalar arithmetic may pass through an
    infinity and come back finite); callers rerun non-finite elements through compile_fn.  This is one
    run of a fresh _ArrayProgram; a patch keeps its own program, grown by the trees of f' and g'.
    """
    program = _ArrayProgram()
    return program.runner(program.values(*trees))


def _compile(e: Expr, target: dict, memo: dict | None = None) -> Callable:
    """The one tree walk of every pass over a tree: ``target`` maps each node type to a builder of what
    the pass makes of that node from the node and what its children built.  The targets are compile_fn's
    closures (_SCALAR), compile_array's registers (_ArrayProgram.target), differentiation's derivatives
    (_DERIVATIVE), format_expr's (text, precedence) pairs (_FORMAT), and the rebuilt trees of sconj and
    substitute (_REBUILD with their leaves).  With a ``memo`` dict, a node met again by identity is built
    once; a leaf is built each time."""
    t = type(e)
    if t is Const or t is Var:
        return target[t](e)
    if memo is not None and (out := memo.get(id(e))) is not None:  # no builder returns None
        return out
    build = target.get(t)
    if build is None:
        raise TypeError(f"not an Expr node: {e!r}")
    if t is Neg or t is Call:
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
    fn = _FUNCTIONS[e.func].scalar

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


_PAIR = struct.Struct("<2d")


def _bits(c: complex) -> bytes:
    """The bits of a constant, which tell 0.0 from -0.0: log(-1+0j) and log(-1-0j) lie apart by 2*pi*i."""
    return _PAIR.pack(c.real, c.imag)


class _ArrayProgram:
    """The array target of _compile: a straight-line program over registers v, where v[0] is z and
    each step appends one value.  A builder returns its node's register, or a Const node, which a
    binary step takes as a Python complex scalar and any other step fills to z's shape.  +, -, *,
    negation, positive powers and numerators keep a non-finite value non-finite, while a function, a
    denominator or a negative power may make it finite (exp(-inf) = 0, 1/inf = 0), so only a computed
    value that feeds one of those, or is a result, is guarded: made NaN where it is not finite.

    Steps are value-numbered: an operation on the operands of an earlier step (registers, or constants
    with the same bits) is that step's register, so a subtree written twice is computed once.  A program
    grows: each ``values`` call adds trees, and a node an earlier call compiled, by identity, is not
    walked again.  A ``runner`` runs the steps up to its roots'."""

    def __init__(self):
        self.operators = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}  # numpy's, per program
        self.steps: list[Callable] = []
        self._last: dict[int, int] = {}  # register -> the index of the last step that reads it
        self._numbers: dict[tuple, int] = {}  # (operation, operand registers or constant bits) -> register
        self._clean = {0}  # the registers that are their own guarded value: z and its negations
        self._memo: dict[int, object] = {}  # id(node) -> its register or Const, from every values call
        self._trees: list[Expr] = []  # every tree compiled, kept so that no id in _memo is reused

    def target(self) -> dict:
        """The builders for _compile, made per use: kept on self, they would make a reference cycle."""
        return {Const: lambda e: e, Var: lambda e: 0, Neg: self._neg, Pow: self._pow, Call: self._call,
                **dict.fromkeys(self.operators, self._binary)}

    def values(self, *trees: Expr) -> list[int]:
        """The registers of the trees' guarded values."""
        target = self.target()
        self._trees += trees
        return [self.array(self.guard(_compile(e, target, self._memo))) for e in trees]

    def runner(self, roots: list[int]) -> Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]]:
        """The function of z that runs the steps up to the last root's, in order, and returns the roots'
        arrays (one root's array alone).  Trees compiled earlier come first, so the run of an earlier
        call's roots is a prefix of the program.  A register other than a root is dropped after the step
        that reads it last, and kept to the end of the run where that step lies past the prefix.  The
        plan is made here, once."""
        roots, end = tuple(roots), max(roots)
        dead = [()] * end
        for r, k in self._last.items():
            if k < end and r not in roots:
                dead[k] += (r,)
        plan = list(zip(self.steps, dead))

        def run(z: np.ndarray) -> np.ndarray | tuple[np.ndarray, ...]:
            v = [np.asarray(z, dtype=complex)]
            with np.errstate(all="ignore"):
                for step, drop in plan:
                    v.append(step(v))
                    for r in drop:
                        v[r] = None
            return v[roots[0]] if len(roots) == 1 else tuple(v[r] for r in roots)

        return run

    def _emit(self, op, a, b=None) -> int:
        """The register of op on the operands a and b (registers, or Consts): an earlier step's where its
        operation and operands are the same, else a new step's, built only then."""
        key = (op, _bits(a.value) if type(a) is Const else a, _bits(b.value) if type(b) is Const else b)
        r = self._numbers.get(key)
        if r is None:
            self._last.update({x: len(self.steps) for x in (a, b) if type(x) is int})
            self.steps.append(_step(op, a, b))
            r = self._numbers[key] = len(self.steps)
        return r

    def array(self, r) -> int:
        """r's register; a Const is filled to the shape of z."""
        return self._emit(np.full_like, 0, r) if type(r) is Const else r

    def guard(self, r):
        """r, or for a computed value the register of its guarded value."""
        if type(r) is Const or r in self._clean:
            return r
        return self._emit(_finite, r)

    def _neg(self, e: Neg, a):
        if type(a) is Const:  # negation is exact, so it folds
            return Const(-a.value)
        r = self._emit(np.negative, a)
        if a in self._clean:
            self._clean.add(r)
        return r

    def _call(self, e: Call, a) -> int:
        return self._emit(_FUNCTIONS[e.func].array, self.array(self.guard(a)))

    def _pow(self, e: Pow, b) -> int:
        return self._emit((np.power, e.exponent), self.array(self.guard(b) if e.exponent < 0 else b))

    def _binary(self, e, left, right) -> int:
        op = self.operators[type(e)]
        right = self.guard(right) if op is np.divide else right
        if type(left) is Const and type(right) is Const:
            left = self.array(left)
        return self._emit(op, left, right)


def _step(op, a, b) -> Callable[[list], np.ndarray]:
    """The step of _ArrayProgram that computes op, a function or (np.power, n), on the operands of _emit."""
    if type(op) is tuple:
        n = op[1]  # numpy gives nan^0 = 1, but a non-finite base must give NaN
        return (lambda v: v[a] ** n) if n else lambda v: np.where(np.isfinite(v[a]), 1 + 0j, np.nan)
    if b is None:
        return lambda v: op(v[a])
    if type(a) is Const:
        return lambda v, c=a.value: op(c, v[b])
    if type(b) is Const:
        return lambda v, c=b.value: op(v[a], c)
    return lambda v: op(v[a], v[b])


# ---------------------------------------------------------------------------
# differentiation

def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# The folds of Const(0) and Const(1) test a Const operand by type and value, and the constants they
# make are shared, as Consts are immutable: building derivative trees is most of a match report's compile.
_ZERO, _ONE = Const(0), Const(1)


def _add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and a.value == 0:
        return b
    if type(b) is Const and b.value == 0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const and b.value == 0:
        return a
    if type(a) is Const and a.value == 0:
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    ka, kb = a.value if type(a) is Const else None, b.value if type(b) is Const else None
    if ka == 0 or kb == 0:
        return _ZERO
    if ka == 1:
        return b
    if kb == 1:
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if type(a) is Const and a.value == 0:
        return _ZERO
    if type(b) is Const and b.value == 1:
        return a
    return Div(a, b)


def _pow(b: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return b
    return Pow(b, n)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative."""
    return _derivative(e, {})


def _derivative(e: Expr, memo: dict) -> Expr:
    """The derivative of e; a subtree met again by identity, here or in an earlier call with the same
    ``memo``, is differentiated once, so its derivative is shared by identity too."""
    return _compile(e, _DERIVATIVE, memo)


# each builder has the node e and its operands' derivatives
_DERIVATIVE: dict[type, Callable] = {
    Const: lambda e: _ZERO,
    Var: lambda e: _ONE,
    Neg: lambda e, da: _neg(da),
    Add: lambda e, da, db: _add(da, db),
    Sub: lambda e, da, db: _sub(da, db),
    Mul: lambda e, da, db: _add(_mul(da, e.right), _mul(e.left, db)),
    Div: lambda e, da, db: _div(_sub(_mul(da, e.right), _mul(e.left, db)), Pow(e.right, 2)),
    Pow: lambda e, db: _mul(_mul(Const(e.exponent), _pow(e.base, e.exponent - 1)), db),  # Const(0) for x^0
    Call: lambda e, da: _mul(_FUNCTIONS[e.func].derivative(e.arg), da),
}


# ---------------------------------------------------------------------------
# normal form

def _readable(v: complex) -> complex:
    """v with the signs of zero that parsing its printed form gives: -x reads as -(x+0j), b*i as
    b*(0+1j), whose real part is +0, and -i as -(0+1j)."""
    re_, im_ = v.real + 0.0, v.imag + 0.0  # -0.0 + 0.0 is 0.0
    if im_ == 0:
        return complex(re_, -0.0 if re_ < 0 else 0.0)
    if re_ == 0:
        return complex(-0.0 if im_ == -1 else 0.0, im_)
    return complex(re_, im_)


def _reads_back(v: complex) -> bool:
    """Whether the printed constant v parses to v bit for bit, signs of zero included."""
    w = _readable(v)
    return math.copysign(1, v.real) == math.copysign(1, w.real) and math.copysign(1, v.imag) == math.copysign(1, w.imag)


def _as_read(e: Expr) -> Expr:
    """A finite constant with the signs of zero its printed form reads back with; any other tree as it is."""
    kept = type(e) is not Const or not cmath.isfinite(e.value) or _reads_back(e.value)
    return e if kept else Const(_readable(e.value))


def _negative(k: complex | None) -> bool:
    """Whether the constant k prints with a leading minus."""
    return k is not None and (k.real < 0 if k.imag == 0 else k.real == 0 and k.imag < 0)


def _divisor(k: complex) -> Const | None:
    """The divisor 1/k for a real 0 < k < 1 where it prints shorter than k, divides back to it and has
    a finite square, which the quotient rule takes (x/2 for 0.5*x); else None."""
    if k.imag != 0 or not 0 < k.real < 1:
        return None
    c = 1 / k.real
    return Const(c) if 1 / c == k.real and c * c < math.inf and len(_fmt_real(c)) < len(_fmt_real(k.real)) else None


def _product_tree(k: complex | None, factors: list[tuple[Expr, int, int]]) -> tuple[int, Callable[[], Expr]]:
    """The node count of k * prod(f^n), from (f, node count of f, n) and k, None for no constant, and
    a function that builds it: the constant first, or as a divisor where it prints shorter, a negation
    on the first factor for k = -1, and the factors of negative exponent as one denominator; without
    anything above the line and with k = +-1, negative powers (z^-2 has fewer nodes than 1/z^2)."""
    if k is not None and (k == 0 or not factors):
        return 1, lambda: Const(k)
    above = [(f, size, n) for f, size, n in factors if n > 0]
    below = [(f, size, -n) for f, size, n in factors if n < 0]
    divisor = _divisor(-k if _negative(k) else k) if k is not None and above and not below else None
    negate = _negative(k) and (k == -1 or divisor is not None)
    if negate:
        k = -k
    if divisor is not None:
        below = [(divisor, 1, 1)]
    elif k is not None and k != 1:
        above.insert(0, (Const(k), 1, 1))
    elif not above:  # negative powers
        above, below = factors, []
    size = sum(size + (n != 1) for _, size, n in above) + sum(size + (n != 1) for _, size, n in below)
    size += len(above) + len(below) - 1 + negate

    def build() -> Expr:
        parts = [_pow(f, n) for f, _, n in above]
        if negate:
            parts[0] = Neg(parts[0])
        tree = _joined(Mul, parts)
        return Div(tree, _joined(Mul, [_pow(f, n) for f, _, n in below])) if below else tree

    return size, build


def _joined(node: type, parts: list[Expr]) -> Expr:
    out = parts[0]
    for part in parts[1:]:
        out = node(out, part)
    return out


class _NormalForm:
    """The normal form of trees, reduced with one identity memo: a subtree met again by identity is
    reduced once, so trees that share it share its normal form.

    Constants fold, and so does a function of a constant where its value prints no longer than the
    call (sqrt(4) is 2; sqrt(2) keeps its 7 characters), or where the constant would not read back
    from its printed form (log(-1+0j) is 3.141592653589793*i, as -1 reads as -(1+0j), on the other
    side of log's branch cut).  Negations, products, quotients and integer
    powers are collected into one k * prod(f^n), where a factor f is z or a structurally equal opaque
    subtree (a call, a sum, or a constant that is not finite).  A factor whose exponents cancel goes,
    and with it any singularity it had: z/z is 1, at z = 0 too.  A fold that is not finite, that
    underflows to 0, or that divides by zero leaves its node as an opaque factor.  Every constant
    written reads back from its printed form bit for bit, signs of zero included; a fold of constants
    alone that would not (-1.5+0.5 is -1+0j, while -1 reads as -(1+0j)) stays unfolded.  Sums are not
    distributed over and their terms are not collected; a right operand whose constant prints with a
    minus flips the sum's sign instead (a+-2*z is a-2*z).  A constant term of a sum, folded or not,
    is taken as it reads back (the 1-0j of sconj is 1), so sums that only a written file would make
    equal are one factor: sconj(1-z^2)/(1-z^2) is 1.  No floating-point gcd is taken and no
    function identity applied.  A chain of products is written as its collected product where that
    has fewer nodes than the chain with its leaves reduced, and stays that chain otherwise, so a
    normal form never has more nodes than its input.  Values move at round-off: folded constants and
    collected products round in another order, and where a part of a value is exactly zero its sign
    may differ.
    """

    def __init__(self):
        self._memo: dict[int, tuple] = {}  # id(node) -> (node, its reduction), holding node so that its id stays its own
        self._keys: dict[int, tuple] = {}  # id(tree) -> (tree, key), likewise
        self._shapes: dict[tuple, int] = {}  # (kind, constant or function or exponent, children's keys) -> key
        self._factors: dict[int, tuple[Expr, int]] = {}  # key -> the first factor tree of that key, its node count

    def __call__(self, e: Expr) -> Expr:
        return self._tree(self._reduce(e))

    def _key(self, e: Expr) -> int:
        """A number per structure, with the bits of its constants (Const's own equality takes 0.0 for
        -0.0, but log(-1.5+0j) and log(-1.5-0j) are apart by 2*pi*i): trees get the same number
        where their kinds, constants, functions, exponents and children's numbers are the same."""
        hit = self._keys.get(id(e))
        if hit is None:
            t = type(e)
            if t is Const:
                v = e.value
                shape = (t, v, math.copysign(1, v.real), math.copysign(1, v.imag))
            elif t is Var:
                shape = (t,)
            elif t is Neg or t is Call:
                shape = (t, getattr(e, "func", None), self._key(e.arg))
            elif t is Pow:
                shape = (t, e.exponent, self._key(e.base))
            else:
                shape = (t, self._key(e.left), self._key(e.right))
            hit = self._keys[id(e)] = (e, self._shapes.setdefault(shape, len(self._shapes)))
        return hit[1]

    def _factor(self, tree: Expr, size: int) -> list:
        """An opaque factor: tree as the product of itself, under its key."""
        key = self._key(tree)
        tree, size = self._factors.setdefault(key, (tree, size))
        return [tree, size, None, {key: 1}, True]

    def _tree(self, r: list) -> Expr:
        """The tree of a reduction.  A product is written out only where its tree is used, at the top
        of a chain of products: the collected product where it has fewer nodes than the chain with its
        leaves reduced, else that chain."""
        if r[0] is None:
            k, factors = r[2], r[3]
            if factors or r[4] or _reads_back(k):  # else the exact value of constants alone does not read back
                size, build = self._product_of(k, factors)
                if size < r[1]:
                    r[0], r[1] = build(), size
                    return r[0]
            r[0] = self._chain(r[5])
        return r[0]

    def _product_of(self, k: complex | None, factors: dict) -> tuple[int, Callable[[], Expr]]:
        trees = self._factors
        return _product_tree(k, [(*trees[key], n) for key, n in factors.items()])

    def _chain(self, e: Expr) -> Expr:
        """The chain of products at e with its leaves reduced, each constant as it reads back; a negated
        constant folds, as parse folds -c."""
        t, r = type(e), self._memo[id(e)][1]
        if not (t is Neg or t is Pow or t is Mul or t is Div) or r[0] is not None:
            return _as_read(self._tree(r))
        if t is Neg:
            x = self._chain(e.arg)
            return _as_read(Const(-x.value)) if type(x) is Const else e if x is e.arg else Neg(x)
        if t is Pow:
            x = self._chain(e.base)
            return e if x is e.base else Pow(x, e.exponent)
        left, right = self._chain(e.left), self._chain(e.right)
        return e if left is e.left and right is e.right else t(left, right)

    def _reduce(self, e: Expr) -> list:
        """[tree, node count, k, factors, had factors]: the normal form of e, None for a product until
        its tree is used, and its node count (for that product the count of the chain with its leaves
        reduced), and the product k * prod(f^n) it is, the factors by key, where k is None for a
        product without a constant (so that a constant kept as given is not multiplied by 1)."""
        hit = self._memo.get(id(e))
        if hit is not None:
            return hit[1]
        t = type(e)
        if t is Const:
            out = [e, 1, e.value, {}, False] if cmath.isfinite(e.value) else self._factor(e, 1)
        elif t is Var:
            out = self._factor(e, 1)
        elif t is Call:
            out = self._call(e, self._reduce(e.arg))
        elif t is Add or t is Sub:
            out = self._sum(t, self._reduce(e.left), self._reduce(e.right))
        else:
            out = self._product(e)
        self._memo[id(e)] = (e, out)
        return out

    def _call(self, e: Call, arg: list) -> list:
        tree = self._tree(arg)
        if type(tree) is Const:
            try:
                v = _FUNCTIONS[e.func].scalar(tree.value)
            except (ValueError, OverflowError):
                v = math.inf
            short = len(_fmt_const(v)[0]) <= len(e.func) + 2 + len(_fmt_const(tree.value)[0])
            if cmath.isfinite(v) and _reads_back(v) and (short or not _reads_back(tree.value)):
                return [Const(v), 1, v, {}, False]
        return self._factor(e if tree is e.arg else Call(e.func, tree), arg[1] + 1)

    def _sum(self, t: type, left: list, right: list) -> list:
        tl, tr = _as_read(self._tree(left)), _as_read(self._tree(right))
        sl, sr, k, factors = left[1], *right[1:4]
        if type(tr) is Const and cmath.isfinite(tr.value):  # the right constant as it reads back
            k = tr.value
        if type(tl) is Const and type(tr) is Const:
            v = tl.value + k if t is Add else tl.value - k
            if cmath.isfinite(v) and _reads_back(v):
                return [Const(v), 1, v, {}, False]
        elif _negative(k) and (factors or type(tr) is Const):  # a+-2*z is a-2*z, a--2*z is a+2*z
            size, build = self._product_of(_readable(-k), factors)
            if size <= sr:
                t, tr, sr = (Sub if t is Add else Add), build(), size
        return self._factor(t(tl, tr), sl + sr + 1)

    def _product(self, e: Expr) -> list:
        t = type(e)
        if t is Neg:
            _, size, a, factors, had = self._reduce(e.arg)[:5]
            size, ks, k = (1 if type(_) is Const else size + 1), (a,), -(1 + 0j if a is None else a)
        elif t is Pow:
            _, size, b, f, had = self._reduce(e.base)[:5]
            n, size, ks = e.exponent, size + 1, (b,)
            factors = {x: m * n for x, m in f.items()} if n else {}
            try:
                k = None if b is None else b ** n
            except (ZeroDivisionError, OverflowError):
                k = math.inf
        else:
            (_, ls, a, lf, lh), (_, rs, b, rf, rh) = self._reduce(e.left)[:5], self._reduce(e.right)[:5]
            size, ks, had = ls + rs + 1, (a, b), lh or rh
            if not rf:
                factors = lf
            else:
                factors, s = dict(lf), (1 if t is Mul else -1)
                for x, n in rf.items():
                    factors[x] = factors.get(x, 0) + s * n
                if t is Div or lf:
                    factors = {x: n for x, n in factors.items() if n}
            try:
                k = a if b is None else (b if a is None else a * b) if t is Mul else (1 + 0j if a is None else a) / b
            except ZeroDivisionError:
                k = math.inf
        if k is not None and (not cmath.isfinite(k) or k == 0 and 0 not in ks):  # the node stays, as a factor
            self._memo[id(e)] = (e, [None])  # undecided, so that _chain walks on below e
            return self._factor(self._chain(e), size)
        if not factors and had:  # the factors cancel: z/z is 1
            k = 1 + 0j if k is None else k
        return [None, size, k if k is None or not factors and not had else _readable(k), factors, had, e]


# ---------------------------------------------------------------------------
# printing

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
        return _fmt_real(im_) + "*i", _P_MUL  # a product, also with a sign: x/(-0.5*i) is not x/-0.5*i
    ims = "i" if abs(im_) == 1 else _fmt_real(abs(im_)) + "*i"
    sign = "+" if im_ > 0 else "-"
    return f"({_fmt_real(re_)}{sign}{ims})", _P_ATOM


def _wrap(printed: tuple[str, int], least: int) -> str:
    """The text of a (text, precedence) pair, in parentheses where its precedence is below least."""
    return printed[0] if printed[1] >= least else f"({printed[0]})"


def _fmt_binary(e: Expr, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
    op, prec = _OPERATOR_SYNTAX[type(e)]
    return f"{_wrap(left, prec)}{op}{_wrap(right, prec + 1)}", prec


# each builder returns its node's (text, precedence) from its operands'
_FORMAT: dict[type, Callable] = {
    Const: lambda e: _fmt_const(e.value),
    Var: lambda e: ("z", _P_ATOM),
    Neg: lambda e, a: (f"-{_wrap(a, _P_NEG)}", _P_NEG),
    Pow: lambda e, b: (f"{_wrap(b, _P_ATOM)}^{e.exponent}", _P_POW),
    Call: lambda e, a: (f"{e.func}({a[0]})", _P_ATOM),
    **dict.fromkeys(_OPERATOR_SYNTAX, _fmt_binary),
}


def format_expr(e: Expr) -> str:
    """Canonical printing.  parse(format_expr(e)) rebuilds e when its constants
    are real or +-i, and otherwise a tree with the same values."""
    return _compile(e, _FORMAT)[0]
