from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.extraction import pipeline
from ppanalyze.extraction.backend import Backend, BackendConfig, TransportError, prompt_digest
from ppanalyze.extraction.pipeline import (
    DocumentError,
    EntitySpan,
    extract_document,
    run_task,
)
from ppanalyze.extraction.prompts import SPAN_KINDS, TaskKind, build_prompt
from ppanalyze.extraction.repair import RepairTrace, repair_and_parse
from ppanalyze.graph import BuildLog

from .conftest import FIXTURES, make_document, record_backend
from .scripted import (
    RICH_PLAN,
    RICH_SEGMENT,
    cache_answers,
    scripted_transport,
    segment_text_of,
    surrogate_plans,
    task_of,
)

D, P, PA, A = (TaskKind.DATA_RECOGNITION, TaskKind.PURPOSE_RECOGNITION,
               TaskKind.PARTY_RECOGNITION, TaskKind.ACTION_RECOGNITION)
DC, PC, R = (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION,
             TaskKind.RELATION_RECOGNITION)


class TestExtractDocument:
    def test_rich_segment_produces_spans_and_tuples(self, tmp_path, taxonomy):
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, RICH_PLAN))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        kinds = [s.kind for s in seg.spans]
        assert kinds == ["data", "purpose", "party", "action"]
        data_span = seg.spans[0]
        assert data_span.grounded_term == "https://w3id.org/dpv/pd#EmailAddress"
        assert seg.spans[3].subtype == "collection_use"
        assert {(r.subject_id, r.object_id, r.event_type) for r in seg.relations} == {
            ("a0", "e0", "HAS_DATA"), ("a0", "e2", "PERFORMED_BY"),
        }
        # the answer is in the cache under the call's digest, though it parsed
        digest = seg.traces["data-recognition"].digest
        assert backend.cache.get(digest)["response"] == RICH_PLAN[(0, D)]

    def test_empty_document(self, tmp_path, taxonomy):
        doc = make_document("")
        backend = record_backend(tmp_path, lambda prompt, config: "[]")
        result = extract_document(doc, backend, taxonomy)
        assert result.segments == ()
        assert backend.invocations == 0

    def test_empty_segment_skips_classification_and_relations(self, tmp_path, taxonomy):
        doc = make_document("This policy may change.\n")
        backend = record_backend(tmp_path, lambda prompt, config: "[]")
        result = extract_document(doc, backend, taxonomy)
        assert backend.invocations == 4  # the four recognition queries only
        (seg,) = result.segments
        assert seg.traces["relation-recognition"].skipped
        assert seg.traces["data-classification"].skipped

    def test_one_query_per_executed_task(self, tmp_path, taxonomy):
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, RICH_PLAN))
        extract_document(doc, backend, taxonomy)
        assert backend.invocations == 7  # 4 recognition + 2 classification + 1 relation

    def test_dangling_relation_dropped_and_logged(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, R)] = '{"relations": [{"id1": "a0", "id2": "e9", "type": "HAS_DATA"}]}'
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        assert seg.relations == ()
        assert any("e9" in note and "dropped" in note for note in seg.notes)

    def test_swapped_relation_reoriented(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, R)] = '{"relations": [{"id1": "e0", "id2": "a0", "type": "HAS_DATA"}]}'
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        assert [(r.subject_id, r.object_id) for r in seg.relations] == [("a0", "e0")]
        assert any("swapped" in note for note in seg.notes)

    def test_non_verbatim_span_flagged(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "residential address"}]}'
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "residential address", '
                         '"term": "PhysicalAddress"}]}')
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        span = result.segments[0].spans[0]
        assert span.non_verbatim
        assert any("non-verbatim" in note for note in result.segments[0].notes)

    def test_case_difference_is_still_verbatim(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "Email Address"}]}'
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "Email Address", '
                         '"term": "EmailAddress"}]}')
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        assert not result.segments[0].spans[0].non_verbatim

    def test_unresolved_term_recorded_not_dropped(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "your email address", '
                         '"term": "Martian"}]}')
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        span = result.segments[0].spans[0]
        assert span.grounded_term is None
        assert span.unresolved_term == "Martian"

    @pytest.mark.usefixtures("no_retries")
    def test_partial_failure_does_not_abort_document(self, tmp_path, taxonomy):
        doc = make_document("line one\nline two\n")

        def transport(prompt, config):
            if segment_text_of(prompt) == "line one":
                raise TransportError("down")
            return "[]"

        backend = record_backend(tmp_path, transport)
        result = extract_document(doc, backend, taxonomy)
        assert result.segments[0].failed
        assert not result.segments[1].failed
        assert result.failed_segments == 1

    @pytest.mark.usefixtures("no_retries")
    def test_all_segments_failed_raises_document_error(self, tmp_path, taxonomy):
        doc = make_document("line one\nline two\n")

        def transport(prompt, config):
            raise TransportError("down")

        backend = record_backend(tmp_path, transport)
        with pytest.raises(DocumentError) as raised:
            extract_document(doc, backend, taxonomy)
        # the error holds the failed calls, for the run log
        assert raised.value.result.calls() == {(task.value, True): 2 for task in (D, P, PA, A)}

    def test_cache_witnesses_one_query_per_executed_task(self, taxonomy, fixture_policy_path):
        # the recorded fixture cache holds exactly one entry per executed
        # task, so replaying and counting non-skipped traces must agree
        # with both the cache size and the invocation counter
        from ppanalyze.corpus import load_policy
        from ppanalyze.extraction.backend import ResponseCache
        doc = load_policy(fixture_policy_path, "example.org")
        backend = Backend(BackendConfig(
            model_name="fixture-model", cache_mode="replay",
            cache_path=FIXTURES / "replay_cache.jsonl"))
        result = extract_document(doc, backend, taxonomy)
        executed = sum(
            1 for seg in result.segments for trace in seg.traces.values()
            if not trace.skipped and trace.digest
        )
        assert executed == backend.invocations
        assert executed == len(ResponseCache(FIXTURES / "replay_cache.jsonl"))

    def test_parallel_run_preserves_order_and_results(self, tmp_path, taxonomy,
                                                      fixture_policy_path):
        # a replay runs its segments in sequence at any `jobs`, so record
        from ppanalyze.corpus import load_policy
        doc = load_policy(fixture_policy_path, "example.org")
        answers = cache_answers(FIXTURES / "replay_cache.jsonl")

        def backend() -> Backend:
            return record_backend(tmp_path, lambda prompt, _: answers[prompt.system, prompt.user],
                                  "fixture-model")

        sequential = extract_document(doc, backend(), taxonomy, jobs=1)
        parallel = extract_document(doc, backend(), taxonomy, jobs=6)
        assert json.dumps(sequential.to_audit_dict()) == json.dumps(parallel.to_audit_dict())
        assert [s.segment_index for s in parallel.segments] == list(range(len(doc.segments)))


class TestClassifyEntities:
    """Purpose grounding through `extract_document`'s classification step."""

    @staticmethod
    def purpose_span(tmp_path, taxonomy, text: str, term: str):
        doc = make_document(f"We use data for {text}.")
        plan = {
            (0, P): json.dumps({"entities": [{"text": text}]}),
            (0, PC): json.dumps({"classifications": [{"entity_text": text, "term": term}]}),
        }
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        (span,) = seg.spans
        return span, seg.notes

    def test_exact_leaf_iri_keeps_non_leaf_false(self, tmp_path, taxonomy):
        span, _ = self.purpose_span(tmp_path, taxonomy, "targeted ads",
                                    "https://w3id.org/dpv#TargetedAdvertising")
        assert span.grounded_term == "https://w3id.org/dpv#TargetedAdvertising"
        assert not span.non_leaf

    def test_non_leaf_purpose_flagged_but_kept(self, tmp_path, taxonomy):
        span, notes = self.purpose_span(tmp_path, taxonomy, "marketing stuff", "Marketing")
        assert span.non_leaf
        assert span.grounded_term == "https://w3id.org/dpv#Marketing"
        assert any("non-leaf purpose term" in note for note in notes)

    def test_wrong_kind_prediction_is_unresolved(self, tmp_path, taxonomy):
        span, _ = self.purpose_span(tmp_path, taxonomy, "stuff", "Personal Data")
        assert span.grounded_term is None
        assert span.unresolved_term == "Personal Data"


class TestLoneSurrogates:
    @given(plan=surrogate_plans())
    @settings(max_examples=100, deadline=None)
    def test_extraction_returns_and_audit_encodes(self, tmp_path_factory, taxonomy, plan):
        # the second segment answers "[]" throughout, so it never fails
        doc = make_document(RICH_SEGMENT + "\nThis policy may change.")
        backend = record_backend(tmp_path_factory.getbasetemp(), scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        json.dumps(result.to_audit_dict(), ensure_ascii=False).encode("utf-8")
        for seg in result.segments:
            for span in seg.spans:
                span.text.encode("utf-8")

    def test_item_with_an_escaped_lone_surrogate_dropped(self, tmp_path, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "\\ud800"}, {"text": "your email address"}]}'
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, plan))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        assert [s.text for s in seg.spans if s.kind == "data"] == ["your email address"]
        assert seg.traces["data-recognition"].dropped_items == (
            "{'text': '\\ud800'}: lone surrogate in 'text'",)


class TestRunTask:
    def test_returns_items_and_trace(self, tmp_path):
        doc = make_document("We collect data.")
        answer = '{"entities": [{"text": "data"}]}'
        backend = record_backend(tmp_path, lambda prompt, config: answer)
        items, trace = run_task(D, doc.segments[0], None, backend)
        assert items == [{"text": "data"}]
        assert backend.cache.get(trace.digest)["response"] == answer and not trace.repaired
        # held in memory too, for in-process readers
        assert trace.raw == answer


class TestUnparseableAnswer:
    def test_replayed_answer_keeps_its_digest_in_the_run_log(self, taxonomy, tmp_path):
        """The run log names the cache record of an answer that did not
        parse; the audit holds no copy of the answer."""
        # the purpose classifier answers in prose; record the answers, then replay them
        doc = make_document(RICH_SEGMENT)
        plan = {**RICH_PLAN, (0, PC): "I cannot classify these."}
        cache = tmp_path / "cache.jsonl"
        recorder = Backend(BackendConfig(model_name="scripted", cache_mode="record",
                                         cache_path=cache),
                           transport=scripted_transport(doc, plan))
        extract_document(doc, recorder, taxonomy)
        replay = Backend(BackendConfig(model_name="scripted", cache_mode="replay",
                                       cache_path=cache))
        result = extract_document(doc, replay, taxonomy)
        (record,) = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()
                     if json.loads(line)["response"] == plan[(0, PC)]]

        (seg,) = result.to_audit_dict()["segments"]
        assert seg["failed"] is False and plan[(0, PC)] not in result.audit_json()
        (call,) = [json.loads(line) for line in result.run_log_text(BuildLog()).splitlines()
                   if json.loads(line).get("task") == PC.value]
        assert call["error"] and call["digest"] == record["key"]
        assert replay.cache.get(call["digest"])["response"] == plan[(0, PC)]


class TestCallWithoutAnswer:
    """A call that got no answer names its prompt's digest in the run
    log, and no answer is stored under it."""

    @pytest.mark.usefixtures("no_retries")
    @pytest.mark.parametrize("failure", ["replay-miss", "transport-failure"])
    def test_digest_in_the_run_log(self, taxonomy, tmp_path, failure):
        doc = make_document(RICH_SEGMENT)
        answer = scripted_transport(doc, RICH_PLAN)
        if failure == "transport-failure":
            def transport(prompt, config):
                if task_of(prompt) is R:
                    raise TransportError("down")
                return answer(prompt, config)

            backend = record_backend(tmp_path, transport)
        else:
            # record every answer, then forget the relation query's
            cache = tmp_path / "cache.jsonl"
            extract_document(doc, Backend(BackendConfig(model_name="scripted",
                                                        cache_mode="record",
                                                        cache_path=cache),
                                          transport=answer), taxonomy)
            kept = [line for line in cache.read_text(encoding="utf-8").splitlines(keepends=True)
                    if json.loads(line)["task"] != R.value]
            cache.write_text("".join(kept), encoding="utf-8")
            backend = Backend(BackendConfig(model_name="scripted", cache_mode="replay",
                                            cache_path=cache))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.segments
        digest = prompt_digest("scripted", R.value,
                               build_prompt(R, seg.segment_text, seg.spans))

        (audited,) = result.to_audit_dict()["segments"]
        assert audited["spans"] and digest not in result.audit_json()
        (call,) = [json.loads(line) for line in result.run_log_text(BuildLog()).splitlines()
                   if json.loads(line).get("task") == R.value]
        assert call["error"] and call["digest"] == digest
        assert backend.cache.get(digest) is None


_GROUNDINGS = st.fixed_dictionaries({
    "grounded_term": st.none() | st.text(max_size=30),
    "unresolved_term": st.none() | st.text(max_size=30),
    "non_leaf": st.booleans(),
})
_SPANS = st.builds(EntitySpan, local_id=st.from_regex(r"[ea][0-9]{1,2}", fullmatch=True),
                   kind=st.sampled_from(SPAN_KINDS), text=st.text(min_size=1, max_size=30),
                   segment_index=st.integers(0, 50),
                   subtype=st.none() | st.sampled_from(["first_party", "collection_use"]),
                   non_verbatim=st.booleans())


@given(segment=st.text(max_size=60),
       spans=st.lists(st.tuples(_SPANS, _GROUNDINGS), min_size=1, max_size=6))
def test_grounding_leaves_the_relation_prompt_unchanged(segment, spans):
    """The relation query is asked before classification answers are in:
    grounding a span must not change the relation prompt."""
    before = build_prompt(R, segment, [span for span, _ in spans])
    after = build_prompt(R, segment, [replace(span, **grounding) for span, grounding in spans])
    assert after == before


class TestAuditDict:
    def test_span_of_segment_0_keeps_its_index(self, tmp_path, taxonomy):
        doc = make_document(RICH_SEGMENT)
        backend = record_backend(tmp_path, scripted_transport(doc, RICH_PLAN))
        result = extract_document(doc, backend, taxonomy)
        (seg,) = result.to_audit_dict()["segments"]
        assert seg["index"] == 0 and seg["spans"]
        for span in seg["spans"]:
            assert span["segment_index"] == 0
            # None and False fields are left out
            assert "non_verbatim" not in span and "unresolved_term" not in span


class TestParseMemo:
    """`run_task` parses each distinct (task, answer) once per process."""

    # three segments that draw the same answer for each task: one answer
    # loses an item, one needs repair, one does not parse
    SEGMENTS = ("We collect your email address to send newsletters.",
                "We also collect your email address to send newsletters.",
                "Sometimes we collect your email address to send newsletters.")
    ANSWERS = {
        **{task: answer for (_, task), answer in RICH_PLAN.items()},
        D: '{"entities": [{"text": "your email address"}, 42]}',
        P: "Here they are: ['send newsletters',]",
        PC: "I cannot classify these.",
    }

    def run(self, tmp_path, taxonomy):
        doc = make_document("\n".join(self.SEGMENTS))
        transport = scripted_transport(doc, {(i, task): answer for i in range(len(self.SEGMENTS))
                                             for task, answer in self.ANSWERS.items()})
        backend = record_backend(tmp_path, transport)
        return extract_document(doc, backend, taxonomy), backend

    def test_each_distinct_answer_parsed_once(self, tmp_path, taxonomy, monkeypatch):
        calls = []

        def spy(raw, shape):
            calls.append((shape, raw))
            return repair_and_parse(raw, shape)

        monkeypatch.setattr(pipeline, "repair_and_parse", spy)
        result, backend = self.run(tmp_path, taxonomy)
        answered = [(name, backend.cache.get(trace.digest)["response"])
                    for seg in result.segments for name, trace in seg.traces.items()]
        assert len(answered) == 7 * len(self.SEGMENTS)
        assert len(calls) == len(set(answered)) == 7

    def test_same_outcome_as_parsing_every_call(self, tmp_path, taxonomy, monkeypatch):
        memoized, backend = self.run(tmp_path, taxonomy)
        monkeypatch.setattr(pipeline, "_parse", pipeline._parse.__wrapped__)
        unmemoized, _ = self.run(tmp_path, taxonomy)
        assert memoized == unmemoized
        assert memoized.audit_json() == unmemoized.audit_json()
        for seg in memoized.segments:
            assert seg.traces[D.value].dropped_items == ("42: not an object",)
            assert seg.traces[P.value].repaired
            failed = seg.traces[PC.value]
            assert failed.error and backend.cache.get(failed.digest)["response"] \
                == self.ANSWERS[PC]

    def test_bound_is_the_module_constant(self):
        assert pipeline._parse.cache_parameters()["maxsize"] == pipeline.PARSE_MEMO_SIZE == 4096
        for i in range(pipeline.PARSE_MEMO_SIZE + 1):
            pipeline._parse(D, f'["item {i}"]')
        assert pipeline._parse.cache_info().currsize == pipeline.PARSE_MEMO_SIZE

    # the next two run in this order: the first leaves entries behind, and
    # the `fresh_parse_memo` fixture must clear them before the second
    def test_a_parse_leaves_an_entry(self):
        pipeline._parse(D, self.ANSWERS[D])
        assert pipeline._parse.cache_info().currsize == 1

    def test_b_patched_parser_sees_no_earlier_entry(self, monkeypatch):
        assert pipeline._parse.cache_info().currsize == 0
        monkeypatch.setattr(pipeline, "repair_and_parse",
                            lambda raw, shape: ([{"text": "patched"}], RepairTrace()))
        assert pipeline._parse(D, self.ANSWERS[D]).items == ({"text": "patched"},)
