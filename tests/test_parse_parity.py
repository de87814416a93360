"""expr.parse against the reference parser of tools/parse_parity.py: the same tree, constant bits
included, or the same ParseError offset and expected text, on every input; and its bounds on nested
brackets and on nested operations."""

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import tool, tree_height
from maxsurf.expr import _HEIGHT, _NESTING, Call, Neg, ParseError, Var, parse

TOOL = tool("parse_parity")
_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

spaces = st.sampled_from(TOOL.SPACES)
token_strings = st.lists(st.sampled_from(TOOL.TOKENS), max_size=14).map("".join)
leaves = st.sampled_from(TOOL.NUMBERS[:8] + ("z", "i", "1e999", "²"))


def _extend(inner):
    name = st.sampled_from(("exp", "log", "sin", "sqrt", "tanh", "sconj", "foo"))
    return st.one_of(
        st.tuples(st.just("-"), spaces, inner),
        st.tuples(inner, spaces, st.sampled_from(("^", "^-", "^ -")), spaces, st.sampled_from(("2", "1", "0", "", "x"))),
        st.tuples(st.just("("), spaces, inner, spaces, st.sampled_from((")", ")", ""))),
        st.tuples(name, spaces, st.just("("), inner, st.sampled_from((")", ")", "", "))"))),
        st.tuples(inner, spaces, st.sampled_from("+-*/"), spaces, inner),
    ).map("".join)


def _corrupt(args):
    text, k, what, ch = args
    k %= len(text) + 1
    return text[:k] + ch + text[k + (what == 0):] if what < 2 else text[:k] + text[k + 1:]


grammar_strings = st.one_of(
    st.recursive(leaves, _extend, max_leaves=12),
    st.tuples(st.recursive(leaves, _extend, max_leaves=12), st.integers(0, 60), st.integers(0, 2),
              st.sampled_from("()+-*/^ \t2.ez²\0")).map(_corrupt),
)


@_SETTINGS
@given(text=st.one_of(token_strings, grammar_strings))
def test_parse_gives_the_reference_parsers_tree_or_error(text):
    assert TOOL.outcome(parse, text) == TOOL.outcome(TOOL.reference, text)


def test_a_seeded_sample_of_the_parity_tool_has_no_mismatch():
    trees, errors, mismatches = TOOL.compare(seed=0, count=3000)
    assert mismatches == [] and trees > 500 and errors > 500


def test_the_tool_reports_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(TOOL, "parse", lambda text: Var())
    assert TOOL.main(["--seed", "1", "--count", "20"]) == 1
    assert " mismatches\n" in capsys.readouterr().out


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("sin(", ")"), ("sconj (", " )"), ("\t( ", ")")])
def test_brackets_nest_to_the_bound_and_the_next_one_is_refused_at_its_offset(opener, closer):
    deepest = opener * _NESTING + "z" + closer * _NESTING
    assert TOOL.outcome(parse, deepest) == TOOL.outcome(TOOL.reference, deepest)
    with pytest.raises(ParseError) as exc:
        parse(opener * (_NESTING + 1) + "z" + closer * (_NESTING + 1))
    assert exc.value.offset == len(opener) * _NESTING + opener.index("(")
    assert exc.value.expected == f"at most {_NESTING} nested brackets"


def test_only_brackets_open_at_once_count_and_the_bound_is_the_same_deep_in_a_call_stack():
    assert parse("+".join(["(sin(z))"] * (_NESTING + 50))) == parse("+".join(["sin(z)"] * (_NESTING + 50)))
    deepest, past = "cos(" * _NESTING + "z" + ")" * _NESTING, "cos(" * (_NESTING + 1) + "z" + ")" * (_NESTING + 1)

    def at_depth(n, text):
        return at_depth(n - 1, text) if n else parse(text)

    for n in (0, 200, 400):
        tree = at_depth(n, deepest)
        for _ in range(_NESTING):
            assert type(tree) is Call
            tree = tree.arg
        assert tree == Var()
        with pytest.raises(ParseError, match=f"at offset {4 * _NESTING + 3}: expected at most"):
            at_depth(n, past)


# shape: (the text of a tree n operations high, the offset of the operation that stands at n when n = _HEIGHT + 1)
_SHAPES = {
    "sum": (lambda n: "+".join(["z"] * (n + 1)), 2 * _HEIGHT + 1),
    "difference of calls": (lambda n: "-".join(["sin(z)"] * n), 7 * (_HEIGHT - 1) + 6),
    "product": (lambda n: "z" + "*1" * n, 2 * _HEIGHT + 1),
    "signs": (lambda n: "-" * n + "z", 0),
    "spaced signs": (lambda n: "- \t" * n + "z", 0),
    "signs over a power": (lambda n: "-" * (n - 1) + "z^2", 0),
    "a sum over signs": (lambda n: "z+" + "-" * (n - 1) + "z", 1),
    "a sum in calls": (lambda n: "exp(" * 50 + "+".join(["z"] * (n - 49)) + ")" * 50, 0),
    "powers of a sum": (lambda n: "(" * 50 + "+".join(["z"] * (n - 49)) + ")^2" * 50, 50 + 2 * (_HEIGHT - 48) - 1 + 3 * 49 + 1),
    "sconj of a sum": (lambda n: "sconj(" + "+".join(["z"] * (n + 1)) + ")", 6 + 2 * _HEIGHT + 1),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_operations_nest_to_the_bound_and_the_next_one_is_refused_at_its_offset(shape):
    make, offset = _SHAPES[shape]
    deepest = parse(make(_HEIGHT))
    assert tree_height(deepest) == _HEIGHT
    with pytest.raises(ParseError) as exc:
        parse(make(_HEIGHT + 1))
    assert (exc.value.offset, exc.value.expected) == (offset, f"at most {_HEIGHT} nested operations")


def test_signs_on_a_number_fold_and_stand_no_higher():
    assert parse("-" * (_HEIGHT + 1) + "2") == parse("-2")
    assert parse("-" * (_HEIGHT + 2) + "2") == parse("2")
    tree = parse("-" * _HEIGHT + "z")
    for _ in range(_HEIGHT):
        assert type(tree) is Neg
        tree = tree.arg
    assert tree == Var()
