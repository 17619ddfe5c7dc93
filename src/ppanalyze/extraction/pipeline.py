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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
    def entities(self) -> tuple[EntitySpan, ...]:
        return tuple(s for s in self.spans if s.kind != "action")

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

    def to_audit_dict(self) -> dict:
        return {
            "service_id": self.service_id,
            "source_uri": self.source_uri,
            "segments": [
                {
                    "index": seg.segment_index,
                    "text": seg.segment_text,
                    "failed": seg.failed,
                    "spans": [
                        {k: v for k, v in vars(span).items() if v is not None and v is not False}
                        for span in seg.spans
                    ],
                    "relations": [vars(rel) for rel in seg.relations],
                    "notes": list(seg.notes),
                    "responses": {
                        name: {k: v for k, v in vars(trace).items() if k != "task" and v not in (None, (), False)}
                        for name, trace in sorted(seg.traces.items())
                    },
                }
                for seg in self.segments
            ],
        }


class DocumentError(Error):
    """Every segment of a document failed."""


def run_task(task: TaskKind, segment: Segment, extras: Optional[Sequence],
             backend: Backend) -> tuple[Optional[list[dict]], TaskTrace]:
    """Execute one pipeline step for one segment: exactly one model query.

    Returns the parsed items and the call's trace.  A failed call returns
    None for the items, and its trace holds the error: a `BackendError`
    (no answer) leaves `raw` empty, an unparseable answer keeps it for
    audit.  A failed trace has no digest.
    """
    prompt = build_prompt(task, segment.text, extras)
    try:
        response = backend.invoke(task, prompt)
        items, repair = repair_and_parse(response.raw, TASK_SHAPES[task])
    except (BackendError, ParseError) as exc:
        raw = exc.raw if isinstance(exc, ParseError) else None
        return None, TaskTrace(task=task.value, raw=raw, error=str(exc))
    trace = TaskTrace(
        task=task.value,
        raw=response.raw,
        digest=response.digest,
        from_cache=response.from_cache,
        repaired=repair.repaired,
        repair_stages=tuple(repair.stages),
        dropped_items=tuple(f"{item!r}: {reason}" for item, reason in repair.dropped_items),
    )
    return items, trace


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
                     taxonomy: Optional[Taxonomy]) -> SegmentExtraction:
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
    for kind in SPAN_KINDS:
        for i, item in enumerate(recognized[kind] or ()):
            span = EntitySpan(
                local_id=f"a{i}" if kind == "action" else f"e{len(spans)}",
                kind=kind,
                text=item["text"],
                segment_index=segment.index,
                subtype=item.get("subtype"),
                non_verbatim=normalize_text(item["text"]) not in normalize_text(segment.text),
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

    if taxonomy is not None:
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


def extract_document(doc: PolicyDocument, backend: Backend,
                     taxonomy: Optional[Taxonomy] = None,
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
