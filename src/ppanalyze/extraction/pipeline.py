"""Per-document extraction: recognition, classification, relations.

Each pipeline step is one model query per segment.  Segments that yield
no entities and no actions skip the classification and relation steps
entirely (cost control).  Every raw response is retained for audit even
when parsing succeeds, and every skip/drop decision is logged as a
structured note on the segment, so a run can be reconstructed from its
audit dump alone.

Hallucination guard: a span whose text does not occur in its segment
(case-insensitive, whitespace-collapsed) is kept but flagged
non_verbatim; graph building excludes flagged spans.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .. import Error
from ..corpus import PolicyDocument, Segment
from ..taxonomy import Taxonomy, UnresolvedTermError
from ..textnorm import normalize_text
from .backend import Backend, BackendError
from .prompts import (
    CLASSIFICATION_TASKS,
    RECOGNITION_TASKS,
    TASK_KIND,
    TASK_SHAPES,
    TaskKind,
    build_prompt,
)
from .repair import ParseError, repair_and_parse

SPAN_KINDS = tuple(TASK_KIND[task] for task in RECOGNITION_TASKS)


@dataclass(frozen=True)
class EntitySpan:
    local_id: str                      # "e0", "e1", ... entities; "a0", ... actions
    kind: str                          # data | purpose | party | action
    text: str
    segment_index: int
    subtype: Optional[str] = None      # party and action spans carry one
    grounded_term: Optional[str] = None
    unresolved_term: Optional[str] = None
    non_leaf: bool = False
    non_verbatim: bool = False


@dataclass(frozen=True)
class RelationTuple:
    subject_id: str
    object_id: str
    event_type: str


@dataclass(frozen=True)
class TaskTrace:
    task: str
    raw: Optional[str] = None
    digest: Optional[str] = None
    from_cache: bool = False
    repaired: bool = False
    repair_stages: tuple[str, ...] = ()
    dropped_items: tuple[str, ...] = ()
    error: Optional[str] = None
    skipped: bool = False


@dataclass
class SegmentExtraction:
    segment_index: int
    segment_text: str
    spans: tuple[EntitySpan, ...] = ()
    relations: tuple[RelationTuple, ...] = ()
    traces: dict[str, TaskTrace] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    failed: bool = False

    @property
    def actions(self) -> tuple[EntitySpan, ...]:
        return tuple(s for s in self.spans if s.kind == "action")


@dataclass
class ExtractionResult:
    service_id: str
    source_uri: str
    segments: tuple[SegmentExtraction, ...] = ()

    @property
    def failed_segments(self) -> int:
        return sum(1 for s in self.segments if s.failed)

    def audit_json(self) -> str:
        """The audit text: `json.dumps(audit, indent=2, ensure_ascii=False)`
        of the audit object, written directly, since `json` runs `indent`
        through its pure-Python encoder.

        Per segment: its index, text and failure flag, its spans and
        relations, its notes, and one response entry per task in task-name
        order.  A span leaves out its None and False fields, a response
        its task name and its None, False and empty fields.
        """
        segments = ",".join(map(_audit_segment, self.segments))
        return ('{\n  "service_id": ' + _str(self.service_id)
                + ',\n  "source_uri": ' + _str(self.source_uri)
                + ',\n  "segments": ' + (f"[{segments}\n  ]" if segments else "[]") + "\n}")

    def to_audit_dict(self) -> dict:
        """The audit object, read back from `audit_json`."""
        return json.loads(self.audit_json())


# json.dumps(ensure_ascii=False) of one string
_str = json.encoder.encode_basestring
# what opens each field of a span, relation or response object
_FIELD = "\n          "


def _array(values: list[str], pad: str) -> str:
    """A JSON array of written values in `indent=2` layout, opened on a
    line indented by `pad`."""
    if not values:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(values) + "\n" + pad + "]"


def _fields(fields: list[str]) -> str:
    """A span, relation or response object of written `"key": value` fields."""
    if not fields:
        return "{}"
    return "{" + _FIELD + ("," + _FIELD).join(fields) + "\n        }"


def _audit_span(span: EntitySpan) -> str:
    fields = ['"local_id": ' + _str(span.local_id), '"kind": ' + _str(span.kind),
              '"text": ' + _str(span.text), f'"segment_index": {span.segment_index:d}']
    if span.subtype is not None:
        fields.append('"subtype": ' + _str(span.subtype))
    if span.grounded_term is not None:
        fields.append('"grounded_term": ' + _str(span.grounded_term))
    if span.unresolved_term is not None:
        fields.append('"unresolved_term": ' + _str(span.unresolved_term))
    if span.non_leaf:
        fields.append('"non_leaf": true')
    if span.non_verbatim:
        fields.append('"non_verbatim": true')
    return _fields(fields)


def _audit_relation(rel: RelationTuple) -> str:
    return _fields(['"subject_id": ' + _str(rel.subject_id),
                    '"object_id": ' + _str(rel.object_id),
                    '"event_type": ' + _str(rel.event_type)])


def _audit_response(trace: TaskTrace) -> str:
    fields = []
    if trace.raw is not None:
        fields.append('"raw": ' + _str(trace.raw))
    if trace.digest is not None:
        fields.append('"digest": ' + _str(trace.digest))
    if trace.from_cache:
        fields.append('"from_cache": true')
    if trace.repaired:
        fields.append('"repaired": true')
    if trace.repair_stages:
        fields.append('"repair_stages": '
                      + _array(list(map(_str, trace.repair_stages)), "          "))
    if trace.dropped_items:
        fields.append('"dropped_items": '
                      + _array(list(map(_str, trace.dropped_items)), "          "))
    if trace.error is not None:
        fields.append('"error": ' + _str(trace.error))
    if trace.skipped:
        fields.append('"skipped": true')
    return _fields(fields)


def _audit_segment(seg: SegmentExtraction) -> str:
    """One item of the audit's "segments" array, from the line it opens on."""
    responses = [_str(name) + ": " + _audit_response(trace)
                 for name, trace in sorted(seg.traces.items())]
    return ('\n    {\n      "index": ' + f"{seg.segment_index:d}"
            + ',\n      "text": ' + _str(seg.segment_text)
            + ',\n      "failed": ' + ("true" if seg.failed else "false")
            + ',\n      "spans": ' + _array(list(map(_audit_span, seg.spans)), "      ")
            + ',\n      "relations": ' + _array(list(map(_audit_relation, seg.relations)),
                                                   "      ")
            + ',\n      "notes": ' + _array(list(map(_str, seg.notes)), "      ")
            + ',\n      "responses": '
            + ("{\n        " + ",\n        ".join(responses) + "\n      }" if responses
               else "{}")
            + "\n    }")


class DocumentError(Error):
    """Every segment of a document failed."""


# Answers repeat across segments and policies (boilerplate lines draw the
# same answer), so each process parses a distinct (task, answer) once.
PARSE_MEMO_SIZE = 4096


class _Parsed(NamedTuple):
    """One answer parsed for one task, shared by every call that gets it."""
    items: Optional[tuple[dict, ...]]           # None: the answer did not parse
    repaired: bool = False
    repair_stages: tuple[str, ...] = ()
    dropped_items: tuple[str, ...] = ()
    error: Optional[str] = None                 # the ParseError message


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(task: TaskKind, raw: str) -> _Parsed:
    try:
        items, repair = repair_and_parse(raw, TASK_SHAPES[task])
    except ParseError as exc:
        return _Parsed(None, error=str(exc))
    return _Parsed(tuple(items), repair.repaired, tuple(repair.stages),
                   tuple(f"{item!r}: {reason}" for item, reason in repair.dropped_items))


def run_task(task: TaskKind, segment: Segment, extras: Optional[Sequence],
             backend: Backend) -> tuple[Optional[list[dict]], TaskTrace]:
    """Execute one pipeline step for one segment: exactly one model query.

    Returns the parsed items and the call's trace.  A failed call returns
    None for the items, and its trace holds the error: a `BackendError`
    (no answer) leaves `raw` empty, an unparseable answer keeps it for
    audit.  A failed trace has no digest.

    The answer is parsed through a per-process memo of the last
    `PARSE_MEMO_SIZE` distinct (task, answer) pairs, so calls that get
    the same answer share its item dicts, which callers must not change.
    The trace is built per call, with that call's digest and cache flag.
    """
    prompt = build_prompt(task, segment.text, extras)
    try:
        response = backend.invoke(task, prompt)
    except BackendError as exc:
        return None, TaskTrace(task=task.value, error=str(exc))
    parsed = _parse(task, response.raw)
    if parsed.items is None:
        return None, TaskTrace(task=task.value, raw=response.raw, error=parsed.error)
    trace = TaskTrace(
        task=task.value,
        raw=response.raw,
        digest=response.digest,
        from_cache=response.from_cache,
        repaired=parsed.repaired,
        repair_stages=parsed.repair_stages,
        dropped_items=parsed.dropped_items,
    )
    return list(parsed.items), trace


def _ground(kind: str, spans: Sequence[EntitySpan], items: list[dict],
            taxonomy: Taxonomy) -> tuple[list[EntitySpan], list[str]]:
    """Apply classification items to data/purpose spans; return them with notes.

    Predictions are matched back to spans by entity text; unresolved
    terms are recorded on the span (never dropped), and a resolved
    non-leaf purpose is kept but flagged non_leaf.
    """
    notes: list[str] = []
    predictions: dict[str, str] = {}
    for item in items:
        predictions.setdefault(normalize_text(item["entity_text"]), item["term"])

    updated: list[EntitySpan] = []
    for span in spans:
        term = predictions.get(normalize_text(span.text))
        if term is None:
            notes.append(f"{span.local_id}: classifier returned no term for {span.text!r}")
            updated.append(span)
            continue
        try:
            node = taxonomy.resolve_term(term, kind)
        except UnresolvedTermError:
            notes.append(f"{span.local_id}: unresolved {kind} term {term!r}")
            updated.append(replace(span, unresolved_term=term))
            continue
        non_leaf = kind == "purpose" and not taxonomy.is_leaf(node)
        if non_leaf:
            notes.append(f"{span.local_id}: non-leaf purpose term {node.iri}")
        updated.append(replace(span, grounded_term=node.iri, non_leaf=non_leaf))
    return updated, notes


def _extract_segment(segment: Segment, backend: Backend,
                     taxonomy: Taxonomy) -> SegmentExtraction:
    traces: dict[str, TaskTrace] = {}
    notes: list[str] = []

    def attempt(task: TaskKind, extras: Optional[Sequence]) -> Optional[list[dict]]:
        """Run one step and record its trace; None if it failed."""
        items, traces[task.value] = run_task(task, segment, extras, backend)
        return items

    recognized = {TASK_KIND[task]: attempt(task, None) for task in RECOGNITION_TASKS}

    # entities (data, purpose, party) are numbered e0.., actions a0..; actions
    # come last in SPAN_KINDS, so len(spans) counts entities only
    spans: list[EntitySpan] = []
    segment_text = normalize_text(segment.text)
    for kind in SPAN_KINDS:
        for i, item in enumerate(recognized[kind] or ()):
            span = EntitySpan(
                local_id=f"a{i}" if kind == "action" else f"e{len(spans)}",
                kind=kind,
                text=item["text"],
                segment_index=segment.index,
                subtype=item.get("subtype"),
                non_verbatim=normalize_text(item["text"]) not in segment_text,
            )
            if span.non_verbatim:
                notes.append(f"{span.local_id}: non-verbatim span {span.text!r}")
            spans.append(span)

    if not spans:
        if all(items is None for items in recognized.values()):
            return SegmentExtraction(segment.index, segment.text, (), (),
                                     traces, tuple(notes), failed=True)
        notes.append("no entities and no actions: classification and relation steps skipped")
        for task in (*CLASSIFICATION_TASKS, TaskKind.RELATION_RECOGNITION):
            traces[task.value] = TaskTrace(task=task.value, skipped=True)
        return SegmentExtraction(segment.index, segment.text, (), (), traces, tuple(notes))

    for task in CLASSIFICATION_TASKS:
        kind = TASK_KIND[task]
        subset = [s for s in spans if s.kind == kind]
        if not subset:
            continue
        items = attempt(task, [s.text for s in subset])
        if items is not None:
            updated, cls_notes = _ground(kind, subset, items, taxonomy)
            notes.extend(cls_notes)
            by_id = {s.local_id: s for s in updated}
            spans = [by_id.get(s.local_id, s) for s in spans]

    relations: list[RelationTuple] = []
    items = attempt(TaskKind.RELATION_RECOGNITION, spans)
    known_ids = {s.local_id for s in spans}
    action_ids = {s.local_id for s in spans if s.kind == "action"}
    for item in items or ():
        id1, id2 = item["id1"], item["id2"]
        if id1 not in known_ids or id2 not in known_ids:
            notes.append(f"relation ({id1}, {id2}, {item['type']}) dropped: unknown id")
            continue
        if id2 in action_ids and id1 not in action_ids:
            notes.append(f"relation ({id1}, {id2}, {item['type']}) swapped: action must be first")
            id1, id2 = id2, id1
        relations.append(RelationTuple(id1, id2, item["type"]))

    return SegmentExtraction(
        segment_index=segment.index,
        segment_text=segment.text,
        spans=tuple(spans),
        relations=tuple(relations),
        traces=traces,
        notes=tuple(notes),
    )


def extract_document(doc: PolicyDocument, backend: Backend, taxonomy: Taxonomy,
                     jobs: int = 1) -> ExtractionResult:
    """Run the full per-segment pipeline over one policy document.

    Per-segment errors are aggregated without aborting; DocumentError is
    raised only when every segment failed.  Segment order is preserved
    regardless of worker completion order.
    """
    if not doc.segments:
        return ExtractionResult(doc.service_id, doc.source_uri, ())

    if jobs <= 1 or len(doc.segments) == 1:
        extractions = [_extract_segment(seg, backend, taxonomy) for seg in doc.segments]
    else:
        # imported here, where threads start: most runs start none
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_extract_segment, seg, backend, taxonomy)
                       for seg in doc.segments]
            extractions = [f.result() for f in futures]

    result = ExtractionResult(doc.service_id, doc.source_uri, tuple(extractions))
    if result.failed_segments == len(doc.segments):
        raise DocumentError(
            f"every segment of {doc.service_id} failed "
            f"({result.failed_segments}/{len(doc.segments)})"
        )
    return result
