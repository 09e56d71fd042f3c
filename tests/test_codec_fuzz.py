"""Property test of the JSON codec boundary: a valid `to_json` document with
one node replaced by an arbitrary JSON value either loads as an Automaton
(which then round-trips and meets the schema entry by entry) or raises
FormatError, never anything else.  The FormatError is never the loader's
internal error, which is raised only when the whole-list passes refuse a
document that the per-state walk finds no fault in, and its message stays
under 200 characters, however long the value it names."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from adicaut import Automaton, FormatError, build_union, from_json, to_json  # noqa: E402

DOCUMENTS = [json.loads(to_json(build_union(Ms, n))) for Ms, n in (
    ([[[2]]], 3),
    ([[[1]], [[3]]], 2),
    ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 2),
)]

SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
# a value far past the 40 characters an error message may show of it
LONG = st.integers(1000, 5000).map(lambda k: "x" * k) | st.integers(1000, 5000).map(lambda k: list(range(k)))
JSON_VALUES = SCALARS | LONG | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=st.sampled_from(DOCUMENTS), depth=st.integers(0, 4), data=st.data())
def test_one_replaced_node_loads_or_raises_format_error(doc, depth, data):
    # walk down `depth` levels (root, top-level key, state, field, entry) and replace the node there
    root = {"doc": copy.deepcopy(doc)}
    holder, key = root, "doc"
    for _ in range(depth):
        node = holder[key]
        if not isinstance(node, (dict, list)) or not node:
            break
        holder, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    holder[key] = data.draw(JSON_VALUES)
    try:
        aut = from_json(json.dumps(root["doc"]))
    except FormatError as e:
        assert not str(e).startswith("internal error"), str(e)
        assert len(str(e)) < 200, str(e)[:300]
        return
    assert isinstance(aut, Automaton)
    assert from_json(to_json(aut)) == aut
    assert_schema(root["doc"])


def assert_schema(obj):
    "The loaded document itself, entry by entry: a document that loads when it should not fails here."
    n, d, states = obj["n"], obj["d"], obj["states"]
    assert type(n) is int and n >= 2 and type(d) is int and d >= 1
    alphabet = n ** d
    for st in states:
        assert type(st["m"]) is int and 0 <= st["m"] < len(obj["matrices"])
        assert type(st["v"]) is list and len(st["v"]) == d and all(type(c) is int for c in st["v"])
        for name, limit in (("out", alphabet), ("next", len(states))):
            table = st[name]
            assert type(table) is list and len(table) == alphabet
            assert all(type(t) is int and 0 <= t < limit for t in table)
        assert sorted(st["out"]) == list(range(alphabet))
    labels = [(st["m"], tuple(st["v"])) for st in states]
    assert len(set(labels)) == len(labels)
    assert [m for m, _ in labels] == sorted(m for m, _ in labels)
