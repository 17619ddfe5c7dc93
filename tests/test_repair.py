from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.extraction.prompts import TASK_SHAPES, FieldSpec, ResponseShape, TaskKind
from ppanalyze.extraction.repair import ParseError, repair_and_parse

from .conftest import FIXTURES
from .oracles import reference_repair_and_parse

DATA = TASK_SHAPES[TaskKind.DATA_RECOGNITION]
PARTY = TASK_SHAPES[TaskKind.PARTY_RECOGNITION]
ACTION = TASK_SHAPES[TaskKind.ACTION_RECOGNITION]
CLASSIFY = TASK_SHAPES[TaskKind.DATA_CLASSIFICATION]
RELATION = TASK_SHAPES[TaskKind.RELATION_RECOGNITION]


class TestProseStrip:
    def test_leading_prose_stripped(self):
        items, trace = repair_and_parse('Here are the entities: ["email address"]', DATA)
        assert items == [{"text": "email address"}]
        assert "prose_strip" in trace.stages

    def test_code_fence_stripped(self):
        raw = '```json\n{"entities": [{"text": "ip address"}]}\n```'
        items, trace = repair_and_parse(raw, DATA)
        assert items == [{"text": "ip address"}]
        assert "prose_strip" in trace.stages

    def test_trailing_prose_stripped(self):
        raw = '{"entities": [{"text": "name"}]} Hope that helps!'
        items, trace = repair_and_parse(raw, DATA)
        assert items == [{"text": "name"}]


class TestStructuralRepair:
    def test_single_quotes_trailing_comma_and_synonym_key(self):
        # worked stage-by-stage: extract {...}; repair quotes and the
        # trailing comma; map data_entities -> entities; unwrap
        items, trace = repair_and_parse("{'data_entities': ['email',]}", DATA)
        assert items == [{"text": "email"}]
        assert "structural_repair" in trace.stages
        assert "key_normalization" in trace.stages

    def test_unclosed_bracket(self):
        items, _ = repair_and_parse('{"entities": [{"text": "email"', DATA)
        assert items == [{"text": "email"}]

    @pytest.mark.parametrize("raw, items", [
        ('{"entities": [{"text": "ip"}}', [{"text": "ip"}]),
        ('[{"text": "ip"]', [{"text": "ip"}]),
        ('{"entities": ["ip", "email"}', [{"text": "ip"}, {"text": "email"}]),
        ('{]', []),
        ('[}', []),
        ('[: "ip"]', [{"text": "ip"}]),
    ])
    def test_mismatched_closers_and_stray_colons_end(self, raw, items):
        assert repair_and_parse(raw, DATA)[0] == items

    # a non-hex \u escape reads like any unknown escape; a surrogate pair
    # joins into one character, as json.loads does
    @pytest.mark.parametrize("raw, items", [
        (r"['\uZZZZ']", [{"text": "uZZZZ"}]),
        (r'[{"text": "a\u12"}]', [{"text": "au12"}]),
        (r"['\ud83d\ude00 email']", [{"text": "\U0001F600 email"}]),
        (r'["\ud83d\ude00",]', [{"text": "\U0001F600"}]),
    ])
    def test_unicode_escapes(self, raw, items):
        assert repair_and_parse(raw, DATA)[0] == items

    def test_bare_keys_and_values(self):
        items, _ = repair_and_parse("{entities: [{text: email address}]}", DATA)
        assert items == [{"text": "email address"}]

    def test_python_literals(self):
        items, _ = repair_and_parse("{'entities': None}", DATA)
        assert items == []


class TestKeyNormalization:
    def test_case_insensitive_keys(self):
        items, _ = repair_and_parse('{"Entities": [{"Text": "email"}]}', DATA)
        assert items == [{"text": "email"}]

    def test_enum_synonyms(self):
        items, _ = repair_and_parse(
            '{"actions": [{"text": "collect", "type": "Collection-Use"}]}', ACTION)
        assert items == [{"text": "collect", "subtype": "collection_use"}]

    def test_mapping_answer_for_classification(self):
        items, _ = repair_and_parse('{"email address": "EmailAddress"}', CLASSIFY)
        assert items == [{"entity_text": "email address", "term": "EmailAddress"}]

    def test_positional_tuples_for_relations(self):
        items, _ = repair_and_parse('[["a0", "e0", "has data"]]', RELATION)
        assert items == [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}]

    def test_missing_required_field_drops_item(self):
        items, trace = repair_and_parse('{"actions": [{"text": "collect"}]}', ACTION)
        assert items == []
        assert trace.dropped_items

    def test_unknown_required_enum_drops_item(self):
        items, trace = repair_and_parse(
            '{"actions": [{"text": "collect", "subtype": "martian"}]}', ACTION)
        assert items == []
        assert "martian" in trace.dropped_items[0][1]

    def test_unknown_optional_enum_keeps_item_without_field(self):
        items, _ = repair_and_parse(
            '{"parties": [{"text": "we", "subtype": "martian"}]}', PARTY)
        assert items == [{"text": "we"}]

    def test_party_without_subtype_is_kept(self):
        items, _ = repair_and_parse('{"parties": [{"text": "we"}]}', PARTY)
        assert items == [{"text": "we"}]

    def test_single_object_wrapped_into_list(self):
        items, _ = repair_and_parse('{"text": "email"}', DATA)
        assert items == [{"text": "email"}]


class TestFallbackAndRefusals:
    @pytest.mark.parametrize("raw", [
        "no entities found", "None", "N/A", "none", "  NONE.  ", "", "nothing",
    ])
    def test_refusal_phrases_mean_empty(self, raw):
        items, trace = repair_and_parse(raw, DATA)
        assert items == []
        assert not trace.dropped_items

    def test_plain_lines_become_entries(self):
        items, trace = repair_and_parse("- email address\n* your name\n2. phone", DATA)
        assert items == [{"text": "email address"}, {"text": "your name"}, {"text": "phone"}]
        assert "line_fallback" in trace.stages

    def test_refusal_not_a_one_element_list(self):
        items, _ = repair_and_parse("no entities found", DATA)
        assert items != [{"text": "no entities found"}]

    def test_fallback_rejected_for_structured_shapes(self):
        with pytest.raises(ParseError) as err:
            repair_and_parse("I really cannot answer this question properly.", RELATION)
        assert str(err.value) == "no JSON region in response"


class TestIdempotence:
    CASES = [
        ('{"entities": [{"text": "email address"}]}', DATA),
        ("{'data_entities': ['email',]}", DATA),
        ('[["a0", "e0", "HAS_DATA"]]', RELATION),
        ('{"parties": [{"text": "we", "subtype": "first party"}]}', PARTY),
    ]

    @pytest.mark.parametrize("raw,shape", CASES)
    def test_reparse_of_own_output_is_fixed_point(self, raw, shape):
        items, _ = repair_and_parse(raw, shape)
        again, trace = repair_and_parse(json.dumps(items), shape)
        assert again == items

    @given(st.lists(st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=25
    ).map(str.strip).filter(bool), max_size=6))
    @settings(max_examples=100)
    def test_clean_payloads_parse_exactly(self, texts):
        payload = json.dumps({"entities": [{"text": t} for t in texts]})
        items, trace = repair_and_parse(payload, DATA)
        assert items == [{"text": t.strip()} for t in texts]


_FIELD_NAMES = sorted({name for shape in TASK_SHAPES.values() for f in shape.fields
                       for name in (f.name, *f.synonyms)})
_ENUMS = sorted({v for shape in TASK_SHAPES.values() for f in shape.fields
                 for v in (*f.enum_values, *(alias for alias, _ in f.enum_synonyms))})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.sampled_from(_ENUMS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


# \u escapes as a model writes them: hex or not, whole or cut, paired or lone
u_escapes = st.builds("\\u{}".format, st.text("0123456789abcdefABCDEFZ\"'}", max_size=4)) \
    | st.sampled_from(["\\ud83d\\ude00", "\\ud83d", "\\ude00"])
escaped_text = st.lists(u_escapes | st.text(max_size=4), max_size=5).map("".join)


@st.composite
def raw_responses(draw) -> str:
    """Arbitrary text, or a JSON value or a list holding \\u-escaped text,
    which may be enveloped, fenced or wrapped in prose, sometimes cut short."""
    form = draw(st.sampled_from(["text", "json", "escaped"]))
    if form == "text":
        return draw(st.text(max_size=60))
    if form == "escaped":
        quote = draw(st.sampled_from("\"'"))
        raw = draw(st.sampled_from(["[{q}{s}{q}]", '[{{"text": {q}{s}{q}}}]'])).format(
            q=quote, s=draw(escaped_text))
    else:
        value = draw(json_values)
        if draw(st.booleans()):
            shape = draw(st.sampled_from(list(TASK_SHAPES.values())))
            value = {draw(st.sampled_from(shape.envelope_keys) | st.text(max_size=6)): value}
        raw = json.dumps(value)
    if draw(st.booleans()):
        raw = draw(st.sampled_from(["```json\n{}\n```", "```\n{}", "Here you go: {} Thanks",
                                    "{}"])).replace("{}", raw)
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


class TestFuzz:
    @given(raw_responses(), st.sampled_from(list(TASK_SHAPES)))
    @settings(max_examples=300)
    def test_returns_dicts_or_raises_parse_error(self, raw, task):
        try:
            items, _ = repair_and_parse(raw, TASK_SHAPES[task])
        except ParseError:
            return
        assert isinstance(items, list)
        assert all(isinstance(item, dict) for item in items)


def _outcome(parse, raw, shape):
    try:
        items, trace = parse(raw, shape)
    except ParseError as exc:
        return "error", str(exc)
    return items, trace.stages, trace.dropped_items


class TestRepairOracle:
    """Same items, stages, dropped items and errors as the staged path
    that rebuilt every label table on each call."""

    @given(raw_responses(), st.sampled_from(list(TASK_SHAPES)))
    @settings(max_examples=300)
    def test_equals_reference_on_fuzzed_answers(self, raw, task):
        shape = TASK_SHAPES[task]
        assert _outcome(repair_and_parse, raw, shape) \
            == _outcome(reference_repair_and_parse, raw, shape)

    @pytest.mark.parametrize("raw", [
        # well-formed JSON holding a fence or a single quote
        '{"entities": [{"text": "a ```json b``` c"}]}',
        '["```", "email"]',
        '{"entities": [{"text": "user\'s email"}]}',
        '  {"entities": [{"text": "it\'s"}, "ip"]}  ',
        # synonym keys in mixed case, enum aliases
        '{"Data_Entities": [{"SPAN": "email"}]}',
        '{"RESULTS": [{"Entity": "we", "Party-Type": "1st Party"}]}',
        '{"Actions": [{"Phrase": "share", "Action Type": "Sharing"}]}',
        '{"tuples": [{"Subject": "a0", "Object_ID": "e0", "Relation": "Recipient"}]}',
        '[{"text": "x", "text": "y", "Text": "z", "subtype": "USE", "kind": "storage"}]',
        # mapping and single-object answers
        '{"email address": "EmailAddress", "ip": "IPAddress"}',
        '{"we": "first party", "they": "martian"}',
        '{"text": "email"}',
        '{"Entity_Text": "email", "Class": "EmailAddress", "extra": 1}',
        '{"id1": "a0", "id2": "e0", "type": "has data"}',
        # other JSON values, whole or with prose around them
        '[]', '{}', '[null, 1, true, 2.5, [], {}]', '"email"', '[[["x"]]]',
        '{"entities": {"text": "ip"}}', '{"entities": 5}', '{"junk": [1, "ip"]}',
        'Sure: {"entities": ["ip"]}', '{"entities": ["ip"]} Done.',
        '```json\n["ip"]\n```', '[1, 2] [3]', '{"a": 1',
        # text that is not JSON as it stands, with prose after it
        "{'entities': ['ip',]} Done.", "['ip', 'email'] and [x]", '["ip",] {"a": 1}',
    ])
    def test_equals_reference_on_edge_cases(self, raw):
        for task, shape in TASK_SHAPES.items():
            assert _outcome(repair_and_parse, raw, shape) \
                == _outcome(reference_repair_and_parse, raw, shape), task

    # labels that normalize alike across fields, envelopes and enums,
    # where the first in declaration order must win
    CLASHING = ResponseShape(
        envelope_keys=("items", "Items", "i-tems", "list"),
        fields=(FieldSpec("text", synonyms=("Name", "kind")),
                FieldSpec("kind", synonyms=("TEXT", "name", "type"), required=False,
                          enum_values=("a_b", "AB", "c"),
                          enum_synonyms=(("a-b", "AB"), ("c", "a_b"), ("x", "c"), ("X", "AB")))),
    )

    @pytest.mark.parametrize("raw", [
        '{"items": [{"TEXT": "t", "Type": "A B"}]}', '{"I-TEMS": [{"name": "n", "type": "x"}]}',
        '{"list": [{"kind": "k", "type": "C"}]}', '[{"text": "t", "kind": "ab"}]',
        '{"Name": "n", "type": "a-b"}', '{"t": "ab", "u": "X"}', '[["t", "c"]]',
    ])
    def test_first_declared_label_wins(self, raw):
        assert _outcome(repair_and_parse, raw, self.CLASHING) \
            == _outcome(reference_repair_and_parse, raw, self.CLASHING)

    @pytest.mark.parametrize("cache", ["replay_cache.jsonl", "gold/replay_cache.jsonl",
                                       "gold/replay_cache_empty.jsonl"])
    def test_equals_reference_on_fixture_answers(self, cache):
        lines = (FIXTURES / cache).read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            shape = TASK_SHAPES[TaskKind(record["task"])]
            raw = record["response"]
            assert _outcome(repair_and_parse, raw, shape) \
                == _outcome(reference_repair_and_parse, raw, shape), raw
