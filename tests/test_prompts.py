from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppanalyze.extraction.pipeline import EntitySpan
from ppanalyze.extraction.prompts import (
    ENTITIES_MARK,
    SEGMENT_MARK,
    SPAN_KINDS,
    SYSTEM_TEXTS,
    TaskKind,
    build_prompt,
    number_spans,
    read_prompt,
)


class TestRecognitionPrompts:
    def test_user_text_is_segment_verbatim(self):
        segment = "We collect your email address."
        prompt = build_prompt(TaskKind.DATA_RECOGNITION, segment)
        assert prompt.user == segment
        assert "data" in prompt.system.lower()
        assert "JSON" in prompt.system

    def test_each_task_mentions_its_subject(self):
        for task, keyword in [
            (TaskKind.DATA_RECOGNITION, "data"),
            (TaskKind.PURPOSE_RECOGNITION, "purpose"),
            (TaskKind.PARTY_RECOGNITION, "party"),
            (TaskKind.ACTION_RECOGNITION, "practice"),
        ]:
            assert keyword in build_prompt(task, "x").system.lower()

    def test_system_has_schema_and_special_cases(self):
        system = build_prompt(TaskKind.ACTION_RECOGNITION, "x").system
        assert '"actions"' in system
        assert "collection_use" in system
        assert "empty list" in system


class TestMultipartPrompts:
    def test_classification_carries_segment_and_entities(self):
        segment = "We collect your email address."
        prompt = build_prompt(TaskKind.DATA_CLASSIFICATION, segment, ["email address"])
        assert SEGMENT_MARK in prompt.user
        assert ENTITIES_MARK in prompt.user
        assert segment in prompt.user
        assert '"email address"' in prompt.user
        # the boundary marks are named in the system message
        assert SEGMENT_MARK in prompt.system
        assert ENTITIES_MARK in prompt.system

    def test_relation_lists_ids_and_requests_tuples(self):
        extras = [("e0", "data", "email address"), ("a0", "action", "collect")]
        prompt = build_prompt(TaskKind.RELATION_RECOGNITION, "seg", extras)
        assert '"e0"' in prompt.user and '"a0"' in prompt.user
        for event_type in ("HAS_DATA", "HAS_PURPOSE", "PERFORMED_BY",
                           "DATA_PROVIDED_BY", "DATA_SHARED_WITH"):
            assert event_type in prompt.system
        assert "id1" in prompt.system and "id2" in prompt.system

    @pytest.mark.parametrize("task", [
        TaskKind.DATA_CLASSIFICATION,
        TaskKind.PURPOSE_CLASSIFICATION,
        TaskKind.RELATION_RECOGNITION,
    ])
    def test_missing_extras_rejected(self, task):
        message = f"task {task.value} requires a non-empty entity list"
        with pytest.raises(ValueError, match=message):
            build_prompt(task, "segment")
        with pytest.raises(ValueError, match=message):
            build_prompt(task, "segment", [])

    def test_system_text_independent_of_segment(self):
        a = build_prompt(TaskKind.DATA_RECOGNITION, "one")
        b = build_prompt(TaskKind.DATA_RECOGNITION, "two")
        assert a.system == b.system


class TestSpanIds:
    def test_entities_share_one_count_and_actions_have_their_own(self):
        by_kind = {"action": ["collect", "share"], "party": ["we"],
                   "data": ["email", "ip"], "purpose": None}
        assert number_spans(by_kind) == [
            ("e0", "data", "email"), ("e1", "data", "ip"), ("e2", "party", "we"),
            ("a0", "action", "collect"), ("a1", "action", "share")]

    def test_kinds_in_numbering_order(self):
        assert SPAN_KINDS == ("data", "purpose", "party", "action")
        assert number_spans({}) == []

    def test_a_span_is_its_relation_row(self):
        spans = [EntitySpan("e0", "data", "email", 3, grounded_term="x"),
                 EntitySpan("a0", "action", "collect", 3, subtype="collection_use")]
        assert [tuple(span) for span in spans] == [("e0", "data", "email"),
                                                   ("a0", "action", "collect")]
        assert build_prompt(TaskKind.RELATION_RECOGNITION, "seg", spans) == \
            build_prompt(TaskKind.RELATION_RECOGNITION, "seg", list(map(tuple, spans)))


_TEXT = st.lists(st.sampled_from(["a", " ", "\n", "=", SEGMENT_MARK, ENTITIES_MARK,
                                  '"', "\u00e9"]), max_size=12).map("".join)


@given(task=st.sampled_from(list(TaskKind)), segment=_TEXT, item=_TEXT)
def test_read_prompt_reverses_build_prompt(task, segment, item):
    """Whatever the segment and listed texts hold, marks and line breaks
    included, a prompt reads back as its task and segment."""
    extras = None
    if task is TaskKind.RELATION_RECOGNITION:
        extras = [("e0", "data", item)]
    elif task in (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION):
        extras = [item]
    prompt = build_prompt(task, segment, extras)
    assert prompt.system == SYSTEM_TEXTS[task]
    assert read_prompt(prompt) == (task, segment)
