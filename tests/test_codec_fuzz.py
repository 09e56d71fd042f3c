"""Property test of the JSON codec boundary: a valid `to_json` document with
one node replaced by an arbitrary JSON value either loads as an Automaton
(which then round-trips) or raises FormatError, never anything else."""

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
JSON_VALUES = SCALARS | st.recursive(
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
    except FormatError:
        return
    assert isinstance(aut, Automaton)
    assert from_json(to_json(aut)) == aut
