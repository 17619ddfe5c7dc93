"""The audit and run-log writers against `json.dumps`.

`ExtractionResult.audit_json` must write the text of
`json.dumps(audit, indent=2, ensure_ascii=False)` and
`ExtractionResult.run_log_text` one `json.dumps(record, ensure_ascii=False)`
line per run-log record,
where the audit object and the records are built as
`tests/oracles.py` builds them.  Checked on the fixture policy, on a
`perfbench/gen.py` corpus, on edge results and on generated results.
A value json would convert (a non-`str` task name) or cannot write (a
set) is refused.
"""
from __future__ import annotations

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.cli import main
from ppanalyze.corpus import load_policy
from ppanalyze.extraction.pipeline import (
    EntitySpan,
    ExtractionResult,
    RelationTuple,
    SegmentExtraction,
    TaskTrace,
    extract_document,
)
from ppanalyze.extraction.prompts import TaskKind
from ppanalyze.graph import build_graph

from .conftest import FIXTURE_MODEL, FIXTURES, replay_backend
from .oracles import reference_audit_dict, reference_run_log_records


def reference_audit(result: ExtractionResult) -> str:
    return json.dumps(reference_audit_dict(result), indent=2, ensure_ascii=False) + "\n"


def reference_run_log(service_id: str, result: ExtractionResult) -> str:
    return "".join(json.dumps(record, ensure_ascii=False) + "\n"
                   for record in reference_run_log_records(service_id, result))


def assert_writers_match(result: ExtractionResult):
    assert result.audit_json() + "\n" == reference_audit(result)
    assert result.run_log_text() == reference_run_log(result.service_id, result)


# strings json must escape: quotes, backslashes, control characters; and
# ones it must not: U+2028 and non-BMP characters
_text = (st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
         | st.sampled_from(["", '"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", "  ",
                            "\u2028\u2029", "\U0001F600", 'a"b\\c', "é"]))
_optional_text = st.none() | _text
_strings = st.lists(_text, max_size=3).map(tuple)

_spans = st.builds(EntitySpan, local_id=_text,
                   kind=st.sampled_from(["data", "purpose", "party", "action"]),
                   text=_text, segment_index=st.integers(0, 3) | st.integers(),
                   subtype=_optional_text, grounded_term=_optional_text,
                   unresolved_term=_optional_text, non_leaf=st.booleans(),
                   non_verbatim=st.booleans())
_relations = st.builds(RelationTuple, _text, _text, _text)
# answered, failed (error, with or without an answer) and skipped traces;
# no writer writes the answer
_traces = st.builds(TaskTrace, raw=_optional_text,
                    digest=st.none() | st.text("0123456789abcdef"),
                    from_cache=st.booleans(), repaired=st.booleans(),
                    repair_stages=_strings, dropped_items=_strings,
                    error=_optional_text, skipped=st.booleans())
_segments = st.builds(
    SegmentExtraction, segment_index=st.integers(0, 3) | st.integers(0, 10 ** 6),
    segment_text=_text,
    spans=st.lists(_spans, max_size=3).map(tuple),
    relations=st.lists(_relations, max_size=2).map(tuple),
    traces=st.dictionaries(st.sampled_from([t.value for t in TaskKind]) | _text, _traces,
                           max_size=3),
    notes=_strings, failed=st.booleans())
_results = st.builds(ExtractionResult, service_id=_text, source_uri=_text,
                     segments=st.lists(_segments, max_size=3).map(tuple))


@given(result=_results)
@settings(max_examples=300)
def test_writer_matches_json_dumps(result):
    assert_writers_match(result)


class Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [
    ExtractionResult("", "", ()),
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, ""),)),
    # a call with every field at its default
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", traces={
        "data-recognition": TaskTrace()}),)),
    # one list of a call empty, the other not
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", traces={
        "data-recognition": TaskTrace(raw="[1]", dropped_items=("1",))}),)),
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", spans=(
        EntitySpan("e0", "data", "t", 0),)),)),
    ExtractionResult("s", "memory:s", tuple(SegmentExtraction(i, "") for i in range(3))),
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", relations=(
        RelationTuple("", "", ""),)),)),
    # a span with every field written
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", spans=(
        EntitySpan("a0", "action", "t", 0, subtype="collect", grounded_term="x",
                   unresolved_term="y", non_leaf=True, non_verbatim=True),)),)),
    # a call with every flag set, and a failed segment
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", traces={
        "data-recognition": TaskTrace(raw="", digest="0", from_cache=True, repaired=True,
                                      repair_stages=("fence", "refusal"),
                                      dropped_items=("", "x"), error="e", skipped=True)},
        notes=("n",), failed=True),)),
    ExtractionResult("s", "memory:s", (SegmentExtraction(10 ** 30, "t", spans=(
        EntitySpan("e0", "data", "t", -1),)),)),
    ExtractionResult('line\nbreak "q" \\', " \U0001F600", (SegmentExtraction(
        0, "a\nb\tc\x00\x1f\x7f", spans=(EntitySpan("e\n", "data", "é", 0,
                                                     subtype="\x08\x0c"),),
        traces={"x\ny": TaskTrace(raw='{"a": "\\n"}', error="\r")},
        notes=(" ",)),)),
    # calls in a dict subclass, out of task-name order
    ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", traces=OrderedDict([
        ("relation", TaskTrace(skipped=True)),
        ("data-recognition", TaskTrace(raw="[]"))])),)),
    # an index of an int subclass writes as the int
    ExtractionResult("s", "memory:s", (SegmentExtraction(Level.LOW, "t", spans=(
        EntitySpan("e0", "data", "t", Level.LOW),)),)),
])
def test_writer_matches_json_dumps_on_edge_values(value):
    assert_writers_match(value)


@pytest.mark.parametrize("value", [
    {1: TaskTrace()}, {None: TaskTrace()}, {("t",): TaskTrace()},
    {True: TaskTrace()},
])
def test_non_string_key_is_refused(value):
    # json.dumps would convert the task name; the run-log writer refuses
    # it, and the audit, which names no task, is written as json writes it
    result = ExtractionResult("s", "memory:s", (SegmentExtraction(0, "t", traces=value),))
    assert result.audit_json() + "\n" == reference_audit(result)
    with pytest.raises(TypeError):
        result.run_log_text()


def test_value_json_cannot_write_is_refused():
    result = ExtractionResult("s", "memory:s", (SegmentExtraction({1, 2}, "t"),))
    with pytest.raises(TypeError):
        reference_audit(result)
    with pytest.raises(TypeError):
        result.audit_json()
    with pytest.raises(TypeError):
        result.run_log_text()
    # in a field of a span, which the audit writes
    result = ExtractionResult("s", "memory:s", (
        SegmentExtraction(0, "t", spans=(EntitySpan("e0", "data", "t", {1}),)),))
    with pytest.raises(TypeError):
        reference_audit(result)
    with pytest.raises(TypeError):
        result.audit_json()
    # and in a field of a call, which the run log writes
    result = ExtractionResult("s", "memory:s", (
        SegmentExtraction(0, "t", traces={"t": TaskTrace(error={1})}),))
    with pytest.raises(TypeError):
        reference_run_log(result.service_id, result)
    with pytest.raises(TypeError):
        result.run_log_text()


def test_result_without_segments():
    result = ExtractionResult("s", "memory:s", ())
    assert result.audit_json() == '{\n  "service_id": "s",\n  "source_uri": "memory:s",\n' \
                                  '  "segments": []\n}'
    assert_writers_match(result)


def test_to_audit_dict_reads_the_audit_text():
    span = EntitySpan("e0", "data", 'say "hi" ', 0, non_verbatim=True)
    result = ExtractionResult("s", "memory:s", (SegmentExtraction(
        0, "text", (span,), (), {"data-recognition": TaskTrace(
            raw="[]", repair_stages=("refusal",))}),))
    assert result.to_audit_dict() == json.loads(json.dumps(reference_audit_dict(result)))


def test_writer_matches_json_dumps_on_the_fixture_audit_files(fixture_policy_path,
                                                              policy_replay_backend,
                                                              taxonomy, tmp_path):
    """The files `analyze` writes are the reference texts."""
    out = tmp_path / "out"
    assert main(["analyze", str(fixture_policy_path), "--replay", "--cache",
                 str(FIXTURES / "replay_cache.jsonl"), "--model", FIXTURE_MODEL,
                 "--out", str(out)]) == 0
    service_id = fixture_policy_path.stem
    doc = load_policy(str(fixture_policy_path), service_id)
    result = extract_document(doc, policy_replay_backend, taxonomy)
    build_log = build_graph(result, service_id, "urn:pp-analyze:policy#x",
                            taxonomy.version).build_log
    assert (out / "audit" / f"{service_id}.json").read_text(encoding="utf-8") \
        == reference_audit(result)
    assert (out / "logs" / f"{service_id}.build.json").read_text(encoding="utf-8") \
        == json.dumps(build_log.to_dict(), indent=2, ensure_ascii=False) + "\n"
    assert (out / "run_log.jsonl").read_text(encoding="utf-8") \
        == reference_run_log(service_id, result)


def test_writers_match_json_dumps_on_a_generated_corpus(gen, taxonomy, tmp_path):
    policies = gen.make_corpus(5, "writer", 4, 12)
    table, _ = gen.plan_calls(policies, 5, "writer")
    paths = gen.write_policies(policies, tmp_path / "policies")
    gen.write_cache(table, tmp_path / "cache.jsonl")
    backend = replay_backend(tmp_path / "cache.jsonl", gen.MODEL)
    for path in paths:
        doc = load_policy(str(path), path.stem)
        assert_writers_match(extract_document(doc, backend, taxonomy))
