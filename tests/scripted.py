"""Scripted transport for pipeline tests: planned responses by (segment, task)."""
from __future__ import annotations

import json
from pathlib import Path

from hypothesis import strategies as st

from ppanalyze.corpus import PolicyDocument
from ppanalyze.extraction.prompts import TaskKind, read_prompt


def task_of(prompt) -> TaskKind:
    return read_prompt(prompt)[0]


def segment_text_of(prompt) -> str:
    return read_prompt(prompt)[1]


def cache_answers(cache: Path) -> dict[tuple[str, str], str]:
    """The answer of each (system, user) prompt of a cache file."""
    answers = {}
    for line in cache.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        answers[record["prompt"]["system"], record["prompt"]["user"]] = record["response"]
    return answers


def scripted_transport(doc: PolicyDocument, planned: dict, default: str = "[]"):
    index_of = {seg.text: seg.index for seg in doc.segments}

    def transport(prompt, config):
        task, segment_text = read_prompt(prompt)
        return planned.get((index_of[segment_text], task), default)

    return transport


RICH_SEGMENT = "We collect your email address to send newsletters."
RICH_PLAN = {
    (0, TaskKind.DATA_RECOGNITION): '{"entities": [{"text": "your email address"}]}',
    (0, TaskKind.PURPOSE_RECOGNITION): '{"entities": [{"text": "send newsletters"}]}',
    (0, TaskKind.PARTY_RECOGNITION): '{"parties": [{"text": "We", "subtype": "first_party"}]}',
    (0, TaskKind.ACTION_RECOGNITION):
        '{"actions": [{"text": "collect", "subtype": "collection_use"}]}',
    (0, TaskKind.DATA_CLASSIFICATION):
        '{"classifications": [{"entity_text": "your email address", "term": "EmailAddress"}]}',
    (0, TaskKind.PURPOSE_CLASSIFICATION):
        '{"classifications": [{"entity_text": "send newsletters", "term": "DirectMarketing"}]}',
    (0, TaskKind.RELATION_RECOGNITION):
        ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
         '{"id1": "a0", "id2": "e2", "type": "PERFORMED_BY"}]}'),
}

# text holding a lone surrogate, as a \\u escape or as the raw character
_LONE = st.integers(0xD800, 0xDFFF)
_SURROGATE_TEXT = st.builds("{}{}{}".format, st.text(max_size=3),
                            _LONE.map(chr) | _LONE.map("\\u{:04x}".format),
                            st.text(max_size=3))
_ANSWER_FORMS = (
    '{{"entities": [{{"text": "{0}"}}, {{"text": "email"}}]}}',
    '{{"parties": [{{"text": "{0}", "subtype": "{0}"}}]}}',
    '{{"actions": [{{"text": "{0}", "subtype": "collection_use"}}]}}',
    '{{"classifications": [{{"entity_text": "{0}", "term": "{0}"}}]}}',
    '{{"relations": [{{"id1": "a0", "id2": "{0}", "type": "PERFORMED_BY"}}]}}',
    "['{0}', 'email']",
    "- {0}\n- email",
)


def surrogate_plans():
    """RICH_PLAN with some answers for segment 0 replaced by answers whose
    text holds a lone surrogate.  The relation answer is left out: its ids
    would point at other spans once a recognition answer is rejected."""
    base = {key: answer for key, answer in RICH_PLAN.items()
            if key[1] is not TaskKind.RELATION_RECOGNITION}
    answers = st.builds(str.format, st.sampled_from(_ANSWER_FORMS), _SURROGATE_TEXT)
    return st.dictionaries(st.sampled_from(list(TaskKind)), answers, min_size=1).map(
        lambda fuzzed: {**base, **{(0, task): answer for task, answer in fuzzed.items()}})
