"""Compare ``maxsurf.expr.parse`` with a reference parser on seeded inputs.

    python3 tools/parse_parity.py [--seed N] [--count K]

The reference, ``Reference``, is the recursive-descent parser that ``parse``
replaced: one method per grammar rule, with a whitespace-skipping lookahead
call per token.  K inputs are drawn from a ``random.Random(N)``, alternating
two generators:

  - ``token_string``: a few tokens of the grammar and of its faults (names
    known and unknown, numbers, ``1e999``, ``²``, ``^-``, brackets that need
    not balance, spaces and tabs), joined in any order;
  - ``grammar_string``: an expression drawn from the grammar, spaced with
    spaces and tabs, with one character replaced, inserted or deleted in one
    input of five.

Each input must give the same tree on both sides, every constant compared by
its ``struct``-packed bits, or a ``ParseError`` at the same offset with the
same expected text.  Prints the counts of identical trees, identical errors
and mismatches (the first few mismatches in full) and exits 1 on any
mismatch.  Inputs nest far fewer brackets than the parser's bound of 100
and far fewer operations than its bound of 200, past either of which the two
part by design: ``parse`` refuses what the reference parsed, or overflowed
the stack on.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from maxsurf.expr import (  # noqa: E402
    _FUNCTIONS, Add, Call, Const, Div, Mul, Neg, ParseError, Pow, Sub, Var, parse, sconj,
)

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXPONENT = re.compile(r"-?\d+")
_SUMS, _PRODUCTS = {"+": Add, "-": Sub}, {"*": Mul, "/": Div}


class Reference:
    """The reference parser: ``Reference(text).parse()``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        e = self.expr()
        self._ws()
        if self.pos != len(self.text):
            raise ParseError(self.pos, "end of input")
        return e

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

    def expr(self):
        e = self.term()
        while (node := _SUMS.get(self._peek())) is not None:
            self.pos += 1
            e = node(e, self.term())
        return e

    def term(self):
        e = self.factor()
        while (node := _PRODUCTS.get(self._peek())) is not None:
            self.pos += 1
            e = node(e, self.factor())
        return e

    def factor(self):
        if self._peek() == "-":
            self.pos += 1
            e = self.factor()
            if isinstance(e, Const):
                return Const(-e.value)
            return Neg(e)
        return self.power()

    def power(self):
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

    def atom(self):
        ch = self._peek()
        if ch is None:
            raise ParseError(self.pos, "operand")
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        if ch.isdecimal():
            m = _NUMBER.match(self.text, self.pos)
            x = float(m.group())
            if not math.isfinite(x):
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


def shape(e) -> tuple:
    """The tree as nested tuples, each constant as the bits of its two parts."""
    if type(e) is Const:
        return ("Const", struct.pack("<2d", e.value.real, e.value.imag))
    return (type(e).__name__, *(shape(f) if hasattr(f, "__match_args__") else f
                                for f in (getattr(e, name) for name in e.__match_args__)))


def outcome(parser, text: str) -> tuple:
    """("tree", shape) or ("error", offset, expected) of one parser on text."""
    try:
        return ("tree", shape(parser(text)))
    except ParseError as exc:
        return ("error", exc.offset, exc.expected)


def reference(text: str):
    return Reference(text).parse()


NAMES = ("z", "i", "exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt", "sconj", "foo", "zz", "z2", "_", "e")
NUMBERS = ("0", "2", "0.5", "10", "3.25", "1e3", "2.5e-2", "7E+1", "1e999", "٣", "1.", ".5", "00", "4e")
TOKENS = NAMES + NUMBERS + ("+", "-", "*", "/", "^", "^-", "(", ")", "²", " ", "\t", "  ", ",", "!", "\0", "é")
SPACES = ("", "", "", " ", "\t", " \t ")


def token_string(rng: random.Random) -> str:
    return "".join(rng.choice(TOKENS) for _ in range(rng.randrange(12)))


def _grammar(rng: random.Random, depth: int) -> str:
    sp = lambda: rng.choice(SPACES)  # noqa: E731
    kind = rng.randrange(9 if depth < 6 else 3)
    if kind == 0:
        return rng.choice(NUMBERS[:8])
    if kind == 1:
        return rng.choice(("z", "i"))
    if kind == 2:
        return "-" + sp() + _grammar(rng, depth + 1)
    if kind == 3:
        return _grammar(rng, depth + 1) + sp() + "^" + sp() + rng.choice(("2", "-1", "0", "3", "-2", "12"))
    if kind == 4:
        return "(" + sp() + _grammar(rng, depth + 1) + sp() + ")"
    if kind == 5:
        name = rng.choice(("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt", "sconj"))
        return name + sp() + "(" + sp() + _grammar(rng, depth + 1) + sp() + ")"
    op = rng.choice("+-*/")
    return _grammar(rng, depth + 1) + sp() + op + sp() + _grammar(rng, depth + 1)


def grammar_string(rng: random.Random) -> str:
    text = rng.choice(SPACES) + _grammar(rng, 0) + rng.choice(SPACES)
    if rng.randrange(5) == 0:  # one character replaced, inserted or deleted
        k, what = rng.randrange(len(text) + 1), rng.randrange(3)
        ch = rng.choice("()+-*/^ \t2.ez²")
        text = text[:k] + ch + text[k + (what == 0):] if what < 2 else text[:k] + text[k + 1:]
    return text


def compare(seed: int, count: int) -> tuple[int, int, list[tuple[str, tuple, tuple]]]:
    """(identical trees, identical errors, mismatches as (text, reference outcome, parse outcome))."""
    rng, trees, errors, mismatches = random.Random(seed), 0, 0, []
    for k in range(count):
        text = (token_string if k % 2 == 0 else grammar_string)(rng)
        want, got = outcome(reference, text), outcome(parse, text)
        if want != got:
            mismatches.append((text, want, got))
        elif want[0] == "tree":
            trees += 1
        else:
            errors += 1
    return trees, errors, mismatches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=10_000)
    args = ap.parse_args(argv)
    trees, errors, mismatches = compare(args.seed, args.count)
    print(f"{args.count} inputs (seed {args.seed}): {trees} identical trees, {errors} identical errors, "
          f"{len(mismatches)} mismatches")
    for text, want, got in mismatches[:10]:
        print(f"  {text!r}\n    reference: {want}\n    parse:     {got}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
