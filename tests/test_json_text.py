"""scenario.json_text lays out json's indent=2 text itself; json.dumps with
indent=2 and allow_nan=False is the byte oracle, exceptions included."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnopinion.scenario import json_text

ORACLE = settings(max_examples=400, deadline=None, derandomize=True)

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7]),
)
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
)
TEXT = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),   # control characters
    st.sampled_from(["", "é", " ", "\U0001D11E", '"\\/', "\x7f"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
KEYS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
SINGLE_TYPE = st.one_of(st.lists(INTS, max_size=6), st.lists(FLOATS, max_size=6),
                        st.lists(TEXT, max_size=6))
LEAVES = st.one_of(
    SCALARS,
    SINGLE_TYPE,
    SINGLE_TYPE.map(tuple),
    st.lists(SCALARS, max_size=6),                        # mixed scalars
    st.lists(st.one_of(INTS, st.booleans()), max_size=6),  # bools among ints
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=12,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def outcome(write, value):
    """The text `write` returns for `value`, or the type of what it raised."""
    try:
        return write(value)
    except Exception as exc:   # the oracle decides which exceptions are right
        return type(exc)


def oracle(value):
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


@ORACLE
@given(VALUES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": [[]], "d": ({},)})
@example([1e308, 1e308])          # finite floats whose sum overflows
@example([True, 1, False, 0])
@example({1: "a", "1": "b", 1.5: None, None: 0, True: [0.0, -0.0]})
@example({"opinions": [0.1 * i for i in range(50)], "ids": list(range(50)),
          "names": [chr(i) for i in range(40)]})
def test_json_text_matches_json_dumps(value):
    assert outcome(json_text, value) == outcome(oracle, value)


@ORACLE
@given(VALUES, NON_FINITE, st.booleans(),
       st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=4))
@example(0.5, math.nan, False, [])   # a float list with a NaN entry
@example(0.5, math.inf, True, ["dict"])
def test_a_non_finite_float_anywhere_raises_value_error(value, bad, as_key, path):
    doc = {bad: value} if as_key else [value, bad]
    for wrap in path:
        doc = {"list": [value, doc], "tuple": (doc, value), "dict": {"v": value, "w": doc}}[wrap]
    assert outcome(json_text, doc) is ValueError
    assert outcome(oracle, doc) is ValueError


@pytest.mark.parametrize("doc", [
    {(1, 2): 0},
    {"a": [{(): 1}]},
    {frozenset(): 1},
    [1, object()],
    {"a": {1, 2}},
])
def test_keys_and_values_json_cannot_write_raise_type_error(doc):
    assert outcome(json_text, doc) is TypeError
    assert outcome(oracle, doc) is TypeError
