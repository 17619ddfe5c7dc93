"""Per-document extraction: recognition, classification, relations.

Each pipeline step is one model query per segment.  Segments that yield
no entities and no actions skip the classification and relation steps
entirely (cost control).  Every raw response is retained for audit even
when parsing succeeds, in the call's `TaskTrace`, filed under its task
name; and every skip/drop decision is logged as a structured note on
the segment, so a run can be read from its audit dump alone (and
replayed from the cache file that every asking run writes).

Hallucination guard: a span whose text does not occur in its segment
(case-insensitive, whitespace-collapsed) is kept but flagged
non_verbatim; graph building excludes flagged spans.
"""
from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Any, Collection, Iterable, Iterator, NamedTuple,
                    Optional, Sequence)

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
    number_spans,
)
from .repair import ParseError, repair_and_parse

if TYPE_CHECKING:
    from ..graph import BuildLog


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

    def __iter__(self) -> Iterator[str]:
        """(local_id, kind, text): a span is its relation-prompt row."""
        return iter((self.local_id, self.kind, self.text))


@dataclass(frozen=True)
class RelationTuple:
    subject_id: str
    object_id: str
    event_type: str


@dataclass(frozen=True, kw_only=True)
class TaskTrace:
    """One task on one segment: its call, or its skip; filed under its task name."""
    raw: Optional[str] = None
    digest: Optional[str] = None
    from_cache: bool = False
    repaired: bool = False
    repair_stages: tuple[str, ...] = ()
    dropped_items: tuple[str, ...] = ()
    error: Optional[str] = None
    skipped: bool = False


# A run-log record leaves out the answer and the dropped items, and
# `skipped` only picks its event name.
_RUN_LOG_OMITS = ("raw", "dropped_items", "skipped")


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

    def calls(self) -> Counter:
        """The model calls of each task, counted by (task name, whether the call failed)."""
        return Counter((name, trace.error is not None) for seg in self.segments
                       for name, trace in seg.traces.items() if not trace.skipped)

    def audit_json(self) -> str:
        """The audit text: `json.dumps(audit, indent=2, ensure_ascii=False)`
        of the audit object, written directly, since `json` runs `indent`
        through its pure-Python encoder.

        Per segment: its index, text and failure flag, its spans and
        relations, its notes, and one response entry per task in task-name
        order.  A span, relation or response holds its fields in
        declaration order, but those at their declared default.
        """
        segments = ",".join(map(_audit_segment, self.segments))
        return ('{\n  "service_id": ' + _str(self.service_id)
                + ',\n  "source_uri": ' + _str(self.source_uri)
                + ',\n  "segments": ' + (f"[{segments}\n  ]" if segments else "[]") + "\n}")

    def to_audit_dict(self) -> dict:
        """The audit object, read back from `audit_json`."""
        return json.loads(self.audit_json())

    def run_log_text(self, build_log: BuildLog) -> str:
        """The policy's run-log lines: its calls and skips, segment notes and
        build skips, each the `json.dumps(record, ensure_ascii=False)` of its
        record, written directly.

        A call or skip record holds the task name, then every field of its
        trace in declaration order, but those in `_RUN_LOG_OMITS`.
        """
        policy = ', "service_id": ' + _str(self.service_id)
        lines: list[str] = []
        append = lines.append
        for seg in self.segments:
            at = f'{policy}, "segment": {seg.segment_index:d}'
            call_at = at + ', "task": '
            for name, trace in sorted(seg.traces.items()):
                append(('{"event": "task_skipped"' if trace.skipped
                        else '{"event": "backend_call"') + call_at + _str(name))
                values = trace.__dict__
                for attr, key, _ in _RUN_LOG_FIELDS:
                    value = values[attr]
                    append(key + _RUN_LOG_VALUES.get(type(value), _scalar)(value))
                append("}\n")
            for note in seg.notes:
                append(f'{{"event": "note"{at}, "note": {_str(note)}}}\n')
        for record in build_log.records:
            append(f'{{"event": "build_skip"{policy}, "note": {_str(record)}}}\n')
        return "".join(lines)


# json.dumps(ensure_ascii=False) of one string
_str = json.encoder.encode_basestring


def _scalar(value: Any) -> str:
    """`json.dumps` of a value of a str or int subclass, which `_SCALARS`
    has no writer for; a value of any other type raises `TypeError`."""
    return _str(value) if isinstance(value, str) else int.__repr__(value)


def _array(values: list[str], pad: str) -> str:
    """A JSON array of written values in `indent=2` layout, opened on a
    line indented by `pad`."""
    if not values:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(values) + "\n" + pad + "]"


# the writer of a field value of each type the fields declare
_SCALARS = {str: _str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}
_AUDIT_VALUES = {**_SCALARS, tuple: lambda value: _array(list(map(_str, value)), "          ")}
_RUN_LOG_VALUES = {**_SCALARS, tuple: lambda value: "[" + ", ".join(map(_str, value)) + "]"}


def _layout(cls: type, omit: Collection[str] = (),
            lead: str = "") -> tuple[tuple[str, str, Any], ...]:
    """(name, `lead` and the written `"name": ` key, declared default) of each
    field of the dataclass `cls` but those in `omit`, in declaration order;
    a field without a default has `MISSING`, which no value equals."""
    return tuple((f.name, lead + _str(f.name) + ": ", f.default)
                 for f in fields(cls) if f.name not in omit)


_SPAN_FIELDS = _layout(EntitySpan)
_RELATION_FIELDS = _layout(RelationTuple)
_RESPONSE_FIELDS = _layout(TaskTrace)
_RUN_LOG_FIELDS = _layout(TaskTrace, _RUN_LOG_OMITS, lead=", ")
# what opens each field of a span, relation or response object
_FIELD = "\n          "


def _audit_object(obj: Any, layout: tuple[tuple[str, str, Any], ...]) -> str:
    """A span, relation or response object: the fields of `layout` whose
    value is not their declared default."""
    values = obj.__dict__
    written = []
    for name, key, default in layout:
        value = values[name]
        if value != default:
            written.append(key + _AUDIT_VALUES.get(type(value), _scalar)(value))
    if not written:
        return "{}"
    return "{" + _FIELD + ("," + _FIELD).join(written) + "\n        }"


def _audit_segment(seg: SegmentExtraction) -> str:
    """One item of the audit's "segments" array, from the line it opens on."""
    responses = [_str(name) + ": " + _audit_object(trace, _RESPONSE_FIELDS)
                 for name, trace in sorted(seg.traces.items())]
    spans = [_audit_object(span, _SPAN_FIELDS) for span in seg.spans]
    relations = [_audit_object(rel, _RELATION_FIELDS) for rel in seg.relations]
    return ('\n    {\n      "index": ' + f"{seg.segment_index:d}"
            + ',\n      "text": ' + _str(seg.segment_text)
            + ',\n      "failed": ' + ("true" if seg.failed else "false")
            + ',\n      "spans": ' + _array(spans, "      ")
            + ',\n      "relations": ' + _array(relations, "      ")
            + ',\n      "notes": ' + _array(list(map(_str, seg.notes)), "      ")
            + ',\n      "responses": '
            + ("{\n        " + ",\n        ".join(responses) + "\n      }" if responses
               else "{}")
            + "\n    }")


class DocumentError(Error):
    """Every segment of a document failed."""


# Request slots per job on a record run: the endpoint sees at most
# this many requests per job at once, one from each segment in flight.
SLOTS_PER_JOB = 4


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
    None for the items, and its trace holds the error and the prompt's
    digest: a `BackendError` (no answer) leaves `raw` empty, and an
    unparseable answer keeps it, with its cache flag, for audit.

    The answer is parsed through a per-process memo of the last
    `PARSE_MEMO_SIZE` distinct (task, answer) pairs, so calls that get
    the same answer share its item dicts, which callers must not change.
    The trace is built per call, with that call's digest and cache flag.
    """
    prompt = build_prompt(task, segment.text, extras)
    try:
        response = backend.invoke(task, prompt)
    except BackendError as exc:
        return None, TaskTrace(digest=exc.digest, error=str(exc))
    parsed = _parse(task, response.raw)
    trace = TaskTrace(
        raw=response.raw,
        digest=response.digest,
        from_cache=response.from_cache,
        repaired=parsed.repaired,
        repair_stages=parsed.repair_stages,
        dropped_items=parsed.dropped_items,
        error=parsed.error,
    )
    return (None if parsed.items is None else list(parsed.items)), trace


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


def _extract_segment(segment: Segment, backend: Backend, taxonomy: Taxonomy) -> SegmentExtraction:
    """Extract one segment, one model query at a time, in task order: the
    recognition queries, then each classification query that has spans,
    then the relation query."""
    traces: dict[str, TaskTrace] = {}
    notes: list[str] = []

    recognized = {}
    for task in RECOGNITION_TASKS:
        recognized[TASK_KIND[task]], traces[task.value] = run_task(task, segment, None, backend)

    spans: list[EntitySpan] = []
    segment_text = normalize_text(segment.text)
    for local_id, kind, item in number_spans(recognized):
        span = EntitySpan(local_id=local_id, kind=kind, text=item["text"],
                          segment_index=segment.index, subtype=item.get("subtype"),
                          non_verbatim=normalize_text(item["text"]) not in segment_text)
        if span.non_verbatim:
            notes.append(f"{span.local_id}: non-verbatim span {span.text!r}")
        spans.append(span)

    if not spans:
        if all(items is None for items in recognized.values()):
            return SegmentExtraction(segment.index, segment.text, (), (),
                                     traces, tuple(notes), failed=True)
        notes.append("no entities and no actions: classification and relation steps skipped")
        for task in (*CLASSIFICATION_TASKS, TaskKind.RELATION_RECOGNITION):
            traces[task.value] = TaskTrace(skipped=True)
        return SegmentExtraction(segment.index, segment.text, (), (), traces, tuple(notes))

    for task in CLASSIFICATION_TASKS:
        kind = TASK_KIND[task]
        subset = [s for s in spans if s.kind == kind]
        if not subset:
            continue
        items, traces[task.value] = run_task(task, segment, [s.text for s in subset], backend)
        if items is not None:
            updated, cls_notes = _ground(kind, subset, items, taxonomy)
            notes.extend(cls_notes)
            by_id = {s.local_id: s for s in updated}
            spans = [by_id.get(s.local_id, s) for s in spans]

    relation_items, traces[TaskKind.RELATION_RECOGNITION.value] = run_task(
        TaskKind.RELATION_RECOGNITION, segment, spans, backend)
    relations: list[RelationTuple] = []
    known_ids = {s.local_id for s in spans}
    action_ids = {s.local_id for s in spans if s.kind == "action"}
    for item in relation_items or ():
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


def extract_documents(docs: Iterable[PolicyDocument | Error], backend: Backend,
                      taxonomy: Taxonomy, jobs: int = 1) -> Iterator[ExtractionResult | Error]:
    """Run the full per-segment pipeline over each document, in input order.

    Yields each document's `ExtractionResult`, or the `DocumentError` of a
    document whose every segment failed; an `Error` in place of a document
    (one that could not be read) comes out at its place.  Per-segment
    errors are aggregated without aborting, and segment order is kept
    whatever order the segments finish in.

    Each segment asks its queries one at a time, in task order.  A replay
    runs the segments in sequence and starts no thread: it waits on no
    model.  A record run streams the segments of all the documents
    through one window of `SLOTS_PER_JOB` x `jobs` segment threads, so at
    most that many requests are in flight.  A document's segments are
    queued when it is taken from `docs`, and the stream waits on a
    document only once a window's worth of later segments are queued
    behind it: the slots stay full while its last segments are answered
    and while the caller handles its result, and only a few documents'
    segments are queued at a time.  Only the run's tail, its last few
    segments' round trips, leaves slots idle.  The threads are joined
    when the stream ends or is closed.
    """
    extract = partial(_extract_segment, backend=backend, taxonomy=taxonomy)
    if backend.config.cache_mode == "replay":
        for doc in docs:
            yield _result(doc, () if isinstance(doc, Error) else map(extract, doc.segments))
        return
    # imported here, where threads start: a replay starts none
    from concurrent.futures import ThreadPoolExecutor
    width = SLOTS_PER_JOB * jobs
    with ThreadPoolExecutor(max_workers=width) as window:
        ahead: deque = deque()      # (document or error, its segments' futures)
        queued = 0                  # futures in `ahead`
        try:
            for doc in docs:
                futures = [] if isinstance(doc, Error) else [
                    window.submit(extract, seg) for seg in doc.segments]
                ahead.append((doc, futures))
                queued += len(futures)
                # never empties `ahead`: its last document has nothing behind it
                while queued - len(ahead[0][1]) >= width:
                    first, futures = ahead.popleft()
                    queued -= len(futures)
                    yield _result(first, (future.result() for future in futures))
            for first, futures in ahead:
                yield _result(first, (future.result() for future in futures))
        finally:
            # a consumer that stops early leaves no queued segment to run
            window.shutdown(cancel_futures=True)


def _result(doc: PolicyDocument | Error,
            extractions: Iterable[SegmentExtraction]) -> ExtractionResult | Error:
    """A document's result from the extractions of its segments, in order."""
    if isinstance(doc, Error):
        return doc
    result = ExtractionResult(doc.service_id, doc.source_uri, tuple(extractions))
    if doc.segments and result.failed_segments == len(doc.segments):
        return DocumentError(f"every segment of {doc.service_id} failed "
                             f"({result.failed_segments}/{len(doc.segments)})")
    return result


def extract_document(doc: PolicyDocument, backend: Backend, taxonomy: Taxonomy,
                     jobs: int = 1) -> ExtractionResult:
    """`extract_documents` of one document: its result, or its
    `DocumentError` raised."""
    (result,) = extract_documents([doc], backend, taxonomy, jobs)
    if isinstance(result, DocumentError):
        raise result
    return result
