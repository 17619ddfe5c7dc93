"""Per-task prompt construction and response shape declarations.

Every task gets a system message built from four blocks: a role
statement, a task description, a description of the expected JSON
output, and special-case instructions.  The user message carries the
segment; multi-part inputs (classification, relation) are delimited
with boundary marks that the system message names explicitly;
`read_prompt` reverses that layout.  The relation prompt lists spans by
id, and `number_spans` is the one id rule, which the pipeline and the
gold view share so that predicted and gold tuples compare.

The ResponseShape declared next to each prompt is the same schema the
response parser normalizes against, so prompt text and parsing can
never drift apart.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..textnorm import normalize_label


class TaskKind(str, Enum):
    DATA_RECOGNITION = "data-recognition"
    PURPOSE_RECOGNITION = "purpose-recognition"
    PARTY_RECOGNITION = "party-recognition"
    ACTION_RECOGNITION = "action-recognition"
    DATA_CLASSIFICATION = "data-classification"
    PURPOSE_CLASSIFICATION = "purpose-classification"
    RELATION_RECOGNITION = "relation-recognition"


RECOGNITION_TASKS = (
    TaskKind.DATA_RECOGNITION,
    TaskKind.PURPOSE_RECOGNITION,
    TaskKind.PARTY_RECOGNITION,
    TaskKind.ACTION_RECOGNITION,
)
CLASSIFICATION_TASKS = (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION)
# The span kind each task finds (recognition) or grounds in the taxonomy
# (classification); the relation task has none.  Every task but the four
# recognitions takes an entity list.
TASK_KIND: dict[TaskKind, str] = {
    TaskKind.DATA_RECOGNITION: "data",
    TaskKind.PURPOSE_RECOGNITION: "purpose",
    TaskKind.PARTY_RECOGNITION: "party",
    TaskKind.ACTION_RECOGNITION: "action",
    TaskKind.DATA_CLASSIFICATION: "data",
    TaskKind.PURPOSE_CLASSIFICATION: "purpose",
}
# the span kinds in numbering order: entities (data, purpose, party), then actions
SPAN_KINDS = tuple(TASK_KIND[task] for task in RECOGNITION_TASKS)

PARTY_SUBTYPES = ("first_party", "third_party", "user")
ACTION_SUBTYPES = (
    "collection_use",
    "third_party_sharing_disclosure",
    "storage_retention_deletion",
    "security_protection",
)
EVENT_TYPES = ("HAS_DATA", "HAS_PURPOSE", "PERFORMED_BY", "DATA_PROVIDED_BY", "DATA_SHARED_WITH")

SEGMENT_MARK = "=== SEGMENT ==="
ENTITIES_MARK = "=== ENTITIES ==="


def number_spans(by_kind: Mapping[str, Optional[Iterable]]) -> list[tuple[str, str, Any]]:
    """(local id, kind, span) of each span of `by_kind` (kind -> spans or
    None), kinds in `SPAN_KINDS` order: entities e0.. across their kinds,
    actions a0..."""
    entities, actions = count(), count()
    return [(f"a{next(actions)}" if kind == "action" else f"e{next(entities)}", kind, span)
            for kind in SPAN_KINDS for span in by_kind.get(kind) or ()]


def _first_wins(pairs) -> dict[str, str]:
    """Map each normalized label to the value of its first pair."""
    table: dict[str, str] = {}
    for label, value in pairs:
        table.setdefault(normalize_label(label), value)
    return table


@dataclass(frozen=True)
class FieldSpec:
    name: str
    synonyms: tuple[str, ...] = ()
    required: bool = True
    enum_values: tuple[str, ...] = ()
    enum_synonyms: tuple[tuple[str, str], ...] = ()  # (alias, canonical)
    # derived: normalized enum value or alias -> canonical value
    enum_table: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "enum_table", _first_wins(
            [(v, v) for v in self.enum_values] + list(self.enum_synonyms)))


@dataclass(frozen=True)
class ResponseShape:
    """What a task's JSON answer looks like after normalization.

    The lookup tables are derived from the declaration when the shape is
    built; each keeps the first match in declaration order.
    """
    envelope_keys: tuple[str, ...]          # wrapper keys accepted around the list
    fields: tuple[FieldSpec, ...]           # at least one
    allow_string_items: bool = False        # bare string coerces to {first field: s}
    # derived: normalized field name or synonym -> field name
    field_table: dict[str, str] = field(init=False, repr=False, compare=False)
    # derived: the normalized envelope keys
    envelope_labels: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "field_table", _first_wins(
            (label, f.name) for f in self.fields for label in (f.name, *f.synonyms)))
        object.__setattr__(self, "envelope_labels",
                           frozenset(map(normalize_label, self.envelope_keys)))


_PARTY_ENUM_SYNONYMS = (
    ("firstparty", "first_party"), ("1stparty", "first_party"),
    ("company", "first_party"), ("we", "first_party"),
    ("thirdparty", "third_party"), ("3rdparty", "third_party"),
    ("user", "user"), ("datasubject", "user"),
)
_ACTION_ENUM_SYNONYMS = (
    ("collectionuse", "collection_use"), ("collection", "collection_use"),
    ("collectanduse", "collection_use"), ("use", "collection_use"),
    ("datacollection", "collection_use"),
    ("thirdpartysharingdisclosure", "third_party_sharing_disclosure"),
    ("sharing", "third_party_sharing_disclosure"),
    ("sharingdisclosure", "third_party_sharing_disclosure"),
    ("disclosure", "third_party_sharing_disclosure"),
    ("thirdpartysharing", "third_party_sharing_disclosure"),
    ("storageretentiondeletion", "storage_retention_deletion"),
    ("storage", "storage_retention_deletion"),
    ("retention", "storage_retention_deletion"),
    ("storageretention", "storage_retention_deletion"),
    ("securityprotection", "security_protection"),
    ("security", "security_protection"),
    ("protection", "security_protection"),
)
_EVENT_ENUM_SYNONYMS = (
    ("hasdata", "HAS_DATA"), ("data", "HAS_DATA"),
    ("haspurpose", "HAS_PURPOSE"), ("purpose", "HAS_PURPOSE"),
    ("performedby", "PERFORMED_BY"), ("performer", "PERFORMED_BY"),
    ("datacollector", "PERFORMED_BY"),
    ("dataprovidedby", "DATA_PROVIDED_BY"), ("dataprovider", "DATA_PROVIDED_BY"),
    ("datasharedwith", "DATA_SHARED_WITH"), ("datareceiver", "DATA_SHARED_WITH"),
    ("recipient", "DATA_SHARED_WITH"),
)

_TEXT_FIELD = FieldSpec("text", synonyms=("entity", "span", "phrase", "value", "name"))
_CLASSIFICATION_SHAPE = ResponseShape(
    envelope_keys=("classifications", "entities", "results", "terms"),
    fields=(
        FieldSpec("entity_text", synonyms=("entity", "text", "span")),
        FieldSpec("term", synonyms=("class", "dpv_term", "dpv_class", "label", "category")),
    ),
)

TASK_SHAPES: dict[TaskKind, ResponseShape] = {
    TaskKind.DATA_RECOGNITION: ResponseShape(
        envelope_keys=("entities", "data_entities", "data", "results", "spans"),
        fields=(_TEXT_FIELD,),
        allow_string_items=True,
    ),
    TaskKind.PURPOSE_RECOGNITION: ResponseShape(
        envelope_keys=("entities", "purpose_entities", "purposes", "results", "spans"),
        fields=(_TEXT_FIELD,),
        allow_string_items=True,
    ),
    TaskKind.PARTY_RECOGNITION: ResponseShape(
        envelope_keys=("parties", "entities", "party_entities", "results"),
        fields=(
            _TEXT_FIELD,
            # party subtype is recoverable later from context, so a span
            # without one is kept rather than dropped
            FieldSpec("subtype", synonyms=("type", "party_type", "kind", "category"),
                      required=False,
                      enum_values=PARTY_SUBTYPES, enum_synonyms=_PARTY_ENUM_SYNONYMS),
        ),
    ),
    TaskKind.ACTION_RECOGNITION: ResponseShape(
        envelope_keys=("actions", "entities", "practices", "results"),
        fields=(
            _TEXT_FIELD,
            FieldSpec("subtype", synonyms=("type", "action_type", "practice_type", "kind", "category"),
                      enum_values=ACTION_SUBTYPES, enum_synonyms=_ACTION_ENUM_SYNONYMS),
        ),
    ),
    TaskKind.DATA_CLASSIFICATION: _CLASSIFICATION_SHAPE,
    TaskKind.PURPOSE_CLASSIFICATION: _CLASSIFICATION_SHAPE,
    TaskKind.RELATION_RECOGNITION: ResponseShape(
        envelope_keys=("relations", "tuples", "results"),
        fields=(
            FieldSpec("id1", synonyms=("subject", "subject_id", "source", "from")),
            FieldSpec("id2", synonyms=("object", "object_id", "target", "to")),
            FieldSpec("type", synonyms=("event_type", "relation", "relation_type", "label"),
                      enum_values=EVENT_TYPES, enum_synonyms=_EVENT_ENUM_SYNONYMS),
        ),
    ),
}


@dataclass(frozen=True)
class PromptMessages:
    system: str
    user: str


class PromptError(ValueError):
    """A task was given inconsistent inputs (e.g. missing entity list)."""


_ROLE = (
    "You are an annotator of privacy policies. You analyze one segment of a "
    "privacy policy at a time and answer strictly in JSON."
)

_TASK_DESCRIPTIONS = {
    TaskKind.DATA_RECOGNITION: (
        "Task: find every text span in the segment that names a data entity, "
        "i.e. a kind of data about the user that the service handles "
        "(for example: email address, medical data, IP address)."
    ),
    TaskKind.PURPOSE_RECOGNITION: (
        "Task: find every text span in the segment that names a purpose for "
        "which data is handled (for example: advertising, account security)."
    ),
    TaskKind.PARTY_RECOGNITION: (
        "Task: find every text span in the segment that names a party, and "
        "classify each as first_party (the service itself), third_party "
        "(an external organisation), or user (the data subject)."
    ),
    TaskKind.ACTION_RECOGNITION: (
        "Task: find every text span in the segment that describes a data "
        "practice action, and classify each as collection_use, "
        "third_party_sharing_disclosure, storage_retention_deletion, or "
        "security_protection."
    ),
    TaskKind.DATA_CLASSIFICATION: (
        "Task: for each listed data entity, choose the canonical data "
        "category term from the Data Privacy Vocabulary (DPV) that most "
        "precisely describes it. Prefer the most specific (leaf) term."
    ),
    TaskKind.PURPOSE_CLASSIFICATION: (
        "Task: for each listed purpose entity, choose the canonical purpose "
        "term from the Data Privacy Vocabulary (DPV) that most precisely "
        "describes it. Purposes form a hierarchy; predict the most accurate "
        "leaf term, not a broad ancestor."
    ),
    TaskKind.RELATION_RECOGNITION: (
        "Task: decide how the listed entities relate to the listed practice "
        "actions. Return tuples (id1, id2, type) where id1 is an action id, "
        "id2 is an entity id, and type is one of: "
        "HAS_DATA (the action handles that data entity), "
        "HAS_PURPOSE (the action serves that purpose), "
        "PERFORMED_BY (that party performs the action), "
        "DATA_PROVIDED_BY (that party provides the data), "
        "DATA_SHARED_WITH (the data is shared with that party)."
    ),
}

_ENTITIES_SCHEMA = ('Output: a JSON object {"entities": [{"text": "..."}]} listing each '
                    "span verbatim as it appears in the segment.")
_CLASSIFY_EVERY = "Classify every listed entity, even when unsure; pick the closest term."

_SCHEMA_DESCRIPTIONS = {
    TaskKind.DATA_RECOGNITION: _ENTITIES_SCHEMA,
    TaskKind.PURPOSE_RECOGNITION: _ENTITIES_SCHEMA,
    TaskKind.PARTY_RECOGNITION: (
        'Output: a JSON object {"parties": [{"text": "...", "subtype": '
        '"first_party|third_party|user"}]} with each span verbatim.'
    ),
    TaskKind.ACTION_RECOGNITION: (
        'Output: a JSON object {"actions": [{"text": "...", "subtype": '
        '"collection_use|third_party_sharing_disclosure|'
        'storage_retention_deletion|security_protection"}]} with each span verbatim.'
    ),
    TaskKind.DATA_CLASSIFICATION: (
        'Output: a JSON object {"classifications": [{"entity_text": "...", '
        '"term": "..."}]} with one item per listed entity; "term" is the DPV '
        "term name (for example EmailAddress)."
    ),
    TaskKind.PURPOSE_CLASSIFICATION: (
        'Output: a JSON object {"classifications": [{"entity_text": "...", '
        '"term": "..."}]} with one item per listed entity; "term" is the DPV '
        "term name (for example TargetedAdvertising)."
    ),
    TaskKind.RELATION_RECOGNITION: (
        'Output: a JSON object {"relations": [{"id1": "...", "id2": "...", '
        '"type": "..."}]} using only the ids given in the input.'
    ),
}

_SPECIAL_CASES = {
    TaskKind.DATA_RECOGNITION: (
        "If the segment mentions no data entity, return an empty list. Never "
        "invent spans that do not occur in the segment."
    ),
    TaskKind.PURPOSE_RECOGNITION: (
        "If the segment states no purpose, return an empty list. Never invent "
        "spans that do not occur in the segment."
    ),
    TaskKind.PARTY_RECOGNITION: (
        "If the segment names no party, return an empty list. Pronouns count "
        "when they clearly denote the service or the user."
    ),
    TaskKind.ACTION_RECOGNITION: (
        "If the segment describes no data practice, return an empty list."
    ),
    TaskKind.DATA_CLASSIFICATION: _CLASSIFY_EVERY,
    TaskKind.PURPOSE_CLASSIFICATION: _CLASSIFY_EVERY,
    TaskKind.RELATION_RECOGNITION: (
        "Only use ids from the input. If no relation holds, return an empty list."
    ),
}

_MULTIPART_NOTE = (
    f"The user message has two parts: the policy segment after the line "
    f"'{SEGMENT_MARK}', and the items to process after the line '{ENTITIES_MARK}'."
)


def _system_text(task: TaskKind) -> str:
    blocks = [_ROLE, _TASK_DESCRIPTIONS[task], _SCHEMA_DESCRIPTIONS[task], _SPECIAL_CASES[task]]
    if task not in RECOGNITION_TASKS:
        blocks.append(_MULTIPART_NOTE)
    return "\n\n".join(blocks)


# built once: every query of a task sends the same system text
SYSTEM_TEXTS = {task: _system_text(task) for task in TaskKind}
_TASK_OF_SYSTEM = {system: task for task, system in SYSTEM_TEXTS.items()}
# one encoder for every listing: `json.dumps` with a non-default argument
# builds a new encoder on each call
_encode_listing = json.JSONEncoder(ensure_ascii=False).encode


def build_prompt(task: TaskKind, segment_text: str,
                 extras: Optional[Sequence] = None) -> PromptMessages:
    """Build the system/user message pair for one task over one segment.

    `extras` is required for classification tasks (entity texts) and the
    relation task (the (id, kind, text) row of each span).
    """
    system = SYSTEM_TEXTS[task]
    if task in RECOGNITION_TASKS:
        return PromptMessages(system=system, user=segment_text)
    if not extras:
        raise PromptError(f"task {task.value} requires a non-empty entity list")

    if task in CLASSIFICATION_TASKS:
        listing = _encode_listing([str(e) for e in extras])
    else:
        listing = _encode_listing([{"id": eid, "kind": kind, "text": text}
                                   for eid, kind, text in extras])

    user = f"{SEGMENT_MARK}\n{segment_text}\n{ENTITIES_MARK}\n{listing}"
    return PromptMessages(system=system, user=user)


def read_prompt(prompt: PromptMessages) -> tuple[TaskKind, str]:
    """The task and segment text of a prompt that `build_prompt` built (a
    listing is one line of JSON, so the last entities mark ends the segment)."""
    task = _TASK_OF_SYSTEM[prompt.system]
    if task in RECOGNITION_TASKS:
        return task, prompt.user
    return task, prompt.user[len(SEGMENT_MARK) + 1:].rsplit(f"\n{ENTITIES_MARK}\n", 1)[0]
