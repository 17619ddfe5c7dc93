from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from ppanalyze.extraction import (
    Backend,
    BackendConfig,
    DocumentError,
    TaskKind,
    TransportError,
    extract_document,
    run_task,
)
from .conftest import FIXTURES, make_document
from .scripted import (
    RICH_PLAN,
    RICH_SEGMENT,
    scripted_transport,
    segment_text_of,
    surrogate_plans,
)

D, P, PA, A = (TaskKind.DATA_RECOGNITION, TaskKind.PURPOSE_RECOGNITION,
               TaskKind.PARTY_RECOGNITION, TaskKind.ACTION_RECOGNITION)
DC, PC, R = (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION,
             TaskKind.RELATION_RECOGNITION)


def live_backend(transport) -> Backend:
    return Backend(BackendConfig(model_name="scripted", cache_mode="live"),
                   transport=transport)


class TestExtractDocument:
    def test_rich_segment_produces_spans_and_tuples(self, taxonomy):
        doc = make_document(RICH_SEGMENT)
        backend = live_backend(scripted_transport(doc, RICH_PLAN))
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
        # raw responses retained for audit even though parsing succeeded
        assert seg.traces["data-recognition"].raw == RICH_PLAN[(0, D)]

    def test_empty_document(self, taxonomy):
        doc = make_document("")
        backend = live_backend(lambda prompt, config: "[]")
        result = extract_document(doc, backend, taxonomy)
        assert result.segments == ()
        assert backend.invocations == 0

    def test_empty_segment_skips_classification_and_relations(self, taxonomy):
        doc = make_document("This policy may change.\n")
        backend = live_backend(lambda prompt, config: "[]")
        result = extract_document(doc, backend, taxonomy)
        assert backend.invocations == 4  # the four recognition queries only
        (seg,) = result.segments
        assert seg.traces["relation-recognition"].skipped
        assert seg.traces["data-classification"].skipped

    def test_one_query_per_executed_task(self, taxonomy):
        doc = make_document(RICH_SEGMENT)
        backend = live_backend(scripted_transport(doc, RICH_PLAN))
        extract_document(doc, backend, taxonomy)
        assert backend.invocations == 7  # 4 recognition + 2 classification + 1 relation

    def test_dangling_relation_dropped_and_logged(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, R)] = '{"relations": [{"id1": "a0", "id2": "e9", "type": "HAS_DATA"}]}'
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        (seg,) = result.segments
        assert seg.relations == ()
        assert any("e9" in note and "dropped" in note for note in seg.notes)

    def test_swapped_relation_reoriented(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, R)] = '{"relations": [{"id1": "e0", "id2": "a0", "type": "HAS_DATA"}]}'
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        (seg,) = result.segments
        assert [(r.subject_id, r.object_id) for r in seg.relations] == [("a0", "e0")]
        assert any("swapped" in note for note in seg.notes)

    def test_non_verbatim_span_flagged(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "residential address"}]}'
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "residential address", '
                         '"term": "PhysicalAddress"}]}')
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        span = result.segments[0].spans[0]
        assert span.non_verbatim
        assert any("non-verbatim" in note for note in result.segments[0].notes)

    def test_case_difference_is_still_verbatim(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "Email Address"}]}'
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "Email Address", '
                         '"term": "EmailAddress"}]}')
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        assert not result.segments[0].spans[0].non_verbatim

    def test_unresolved_term_recorded_not_dropped(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, DC)] = ('{"classifications": [{"entity_text": "your email address", '
                         '"term": "Martian"}]}')
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        span = result.segments[0].spans[0]
        assert span.grounded_term is None
        assert span.unresolved_term == "Martian"

    def test_partial_failure_does_not_abort_document(self, taxonomy):
        doc = make_document("line one\nline two\n")

        def transport(prompt, config):
            if segment_text_of(prompt) == "line one":
                raise TransportError("down")
            return "[]"

        backend = Backend(
            BackendConfig(cache_mode="live", max_retries=0, retry_base_delay=0.0),
            transport=transport,
        )
        result = extract_document(doc, backend, taxonomy)
        assert result.segments[0].failed
        assert not result.segments[1].failed
        assert result.failed_segments == 1

    def test_all_segments_failed_raises_document_error(self, taxonomy):
        doc = make_document("line one\nline two\n")

        def transport(prompt, config):
            raise TransportError("down")

        backend = Backend(
            BackendConfig(cache_mode="live", max_retries=0, retry_base_delay=0.0),
            transport=transport,
        )
        with pytest.raises(DocumentError):
            extract_document(doc, backend, taxonomy)

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

    def test_parallel_run_preserves_order_and_results(self, taxonomy, fixture_policy_path):
        from ppanalyze.corpus import load_policy
        doc = load_policy(fixture_policy_path, "example.org")
        config = BackendConfig(model_name="fixture-model", cache_mode="replay",
                               cache_path=FIXTURES / "replay_cache.jsonl")
        sequential = extract_document(doc, Backend(config), taxonomy, jobs=1)
        parallel = extract_document(doc, Backend(config), taxonomy, jobs=6)
        assert json.dumps(sequential.to_audit_dict()) == json.dumps(parallel.to_audit_dict())
        assert [s.segment_index for s in parallel.segments] == list(range(len(doc.segments)))


class TestClassifyEntities:
    """Purpose grounding through `extract_document`'s classification step."""

    @staticmethod
    def purpose_span(taxonomy, text: str, term: str):
        doc = make_document(f"We use data for {text}.")
        plan = {
            (0, P): json.dumps({"entities": [{"text": text}]}),
            (0, PC): json.dumps({"classifications": [{"entity_text": text, "term": term}]}),
        }
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        (seg,) = result.segments
        (span,) = seg.spans
        return span, seg.notes

    def test_exact_leaf_iri_keeps_non_leaf_false(self, taxonomy):
        span, _ = self.purpose_span(taxonomy, "targeted ads",
                                    "https://w3id.org/dpv#TargetedAdvertising")
        assert span.grounded_term == "https://w3id.org/dpv#TargetedAdvertising"
        assert not span.non_leaf

    def test_non_leaf_purpose_flagged_but_kept(self, taxonomy):
        span, notes = self.purpose_span(taxonomy, "marketing stuff", "Marketing")
        assert span.non_leaf
        assert span.grounded_term == "https://w3id.org/dpv#Marketing"
        assert any("non-leaf purpose term" in note for note in notes)

    def test_wrong_kind_prediction_is_unresolved(self, taxonomy):
        span, _ = self.purpose_span(taxonomy, "stuff", "Personal Data")
        assert span.grounded_term is None
        assert span.unresolved_term == "Personal Data"


class TestLoneSurrogates:
    @given(plan=surrogate_plans())
    @settings(max_examples=100, deadline=None)
    def test_extraction_returns_and_audit_encodes(self, taxonomy, plan):
        # the second segment answers "[]" throughout, so it never fails
        doc = make_document(RICH_SEGMENT + "\nThis policy may change.")
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        json.dumps(result.to_audit_dict(), ensure_ascii=False).encode("utf-8")
        for seg in result.segments:
            for span in seg.spans:
                span.text.encode("utf-8")

    def test_item_with_an_escaped_lone_surrogate_dropped(self, taxonomy):
        plan = dict(RICH_PLAN)
        plan[(0, D)] = '{"entities": [{"text": "\\ud800"}, {"text": "your email address"}]}'
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, plan)), taxonomy)
        (seg,) = result.segments
        assert [s.text for s in seg.spans if s.kind == "data"] == ["your email address"]
        assert seg.traces["data-recognition"].dropped_items == (
            "{'text': '\\ud800'}: lone surrogate in 'text'",)


class TestRunTask:
    def test_returns_items_and_trace(self):
        doc = make_document("We collect data.")
        backend = live_backend(lambda prompt, config: '{"entities": [{"text": "data"}]}')
        items, trace = run_task(D, doc.segments[0], None, backend)
        assert items == [{"text": "data"}]
        assert trace.raw and trace.digest and not trace.repaired


class TestAuditDict:
    def test_span_of_segment_0_keeps_its_index(self, taxonomy):
        doc = make_document(RICH_SEGMENT)
        result = extract_document(doc, live_backend(scripted_transport(doc, RICH_PLAN)),
                                  taxonomy)
        (seg,) = result.to_audit_dict()["segments"]
        assert seg["index"] == 0 and seg["spans"]
        for span in seg["spans"]:
            assert span["segment_index"] == 0
            # None and False fields are left out
            assert "non_verbatim" not in span and "unresolved_term" not in span
