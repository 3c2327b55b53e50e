"""`jsonio.dumps` against the stdlib encoder it replaces."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voroseg import jsonio

DATA = Path(__file__).parent / "data"
# inputs, not `dumps` outputs: a form document, and a belts listing and the pinned
# draws of tests/test_polytope.py's strategy with one entry per line
NOT_RENDERED = {"form_d4_mixed.json", "belts_off.json", "symmetric_draws.json"}

documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(documents)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}, [[]]], "": {"": {}}})
@example([1, True, 0, False, None])
@example(["1", 1, "-1", -1])
@example({"\xe9": "\xfc \u2603 \U0001d11e \u2028\u2029", "\x00\x1f\x7f": "\"\\\n\t\r\b\f/", "\ud800": ["\udfff", "\x1b"]})
@example([-1, 0, -(10**40), 10**300, [2**64, -(2**63)]])
def test_dumps_matches_stdlib_indent_encoder(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_refuses_what_the_documents_never_hold():
    with pytest.raises(TypeError):
        jsonio.dumps({1: "a"})  # json.dumps would write the key as "1"
    with pytest.raises(TypeError):
        jsonio.dumps({"a": [object()]})


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json") if p.name not in NOT_RENDERED))
def test_dumps_reproduces_every_cli_golden(name):
    text = (DATA / name).read_text()
    assert jsonio.dumps(json.loads(text)) == text
