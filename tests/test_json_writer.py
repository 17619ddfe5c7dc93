"""`cli.dumps_indent2` against `json.dumps(indent=2, ensure_ascii=False)`."""
from __future__ import annotations

import json
import math
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.cli import dumps_indent2
from ppanalyze.corpus import load_policy
from ppanalyze.extraction.pipeline import extract_document
from ppanalyze.graph import build_graph


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


_text = (st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
         | st.sampled_from(["", '"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", "  ", "é",
                            "\U0001F600", "a\"b\\c"]))
_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2, 2)
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300])
           | _text)
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=30,
)


@given(value=_values)
@settings(max_examples=400)
def test_writer_matches_json_dumps(value):
    assert dumps_indent2(value) == reference(value)


class Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]],
    {"flag": True, "count": 1, "none": None, "zero": 0, "false": False},
    [True, 1, False, 0, None],
    {"float": 1.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "big": 10 ** 30},
    {"nested": {"list": [1, {"deep": ("t", "u")}], "text": "line\nbreak"}},
    # values of a subclass go through json.dumps, at their depth
    {"ordered": OrderedDict([("b", [1, 2]), ("a", {"c": None})])},
    [Level.LOW, {"level": Level.LOW}],
    "top-level string", 7, None,
])
def test_writer_matches_json_dumps_on_edge_values(value):
    assert dumps_indent2(value) == reference(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"ok": {None: 1}}, [{("t",): 1}], {True: 0}])
def test_non_string_key_is_refused(value):
    # json.dumps would convert the key; the writer refuses it
    with pytest.raises(TypeError):
        dumps_indent2(value)


def test_value_json_cannot_write_is_refused():
    with pytest.raises(TypeError):
        dumps_indent2({"set": {1, 2}})


def test_writer_matches_json_dumps_on_the_fixture_audit_files(fixture_policy_path,
                                                              policy_replay_backend, taxonomy):
    doc = load_policy(str(fixture_policy_path), "policy_example.org")
    result = extract_document(doc, policy_replay_backend, taxonomy)
    build_log = build_graph(result, doc.service_id, "urn:pp-analyze:policy#x",
                            taxonomy.version).build_log
    for obj in (result.to_audit_dict(), build_log.to_dict()):
        assert dumps_indent2(obj) == reference(obj)
