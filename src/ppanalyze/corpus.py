"""Policy documents, line segmentation, and brat standoff gold annotations.

Segmentation is by line: one segment per non-blank line (a line ends at
CRLF, CR or LF), text trimmed, offsets pointing at the trimmed core inside
the document's text as read, as brat offsets do.  Invariant:
text[seg.char_start:seg.char_end] == seg.text for every segment, and
segments are non-overlapping and strictly ascending.

Brat standoff support covers T (text-bound entity), E (event), R (relation),
A (attribute) and # (note) lines.  A gold entity keeps what scoring reads:
the start of its covering span (a discontinuous span's first start to its
last end), the document text over that span, and its DPV grounding from
the A or # lines.  A relation keeps its id and label; the ids it names
are checked, not kept.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import Error
from .textnorm import normalize_label


class CorpusError(Error):
    """An unreadable or non-text file, or a brat pair that does not parse,
    names unknown ids or has a span outside every segment."""


def _brat_error(path: str, message: str, line_no: int, line: str) -> CorpusError:
    return CorpusError(f"{path}: {message} (line {line_no}: {line!r})")


@dataclass(frozen=True)
class Segment:
    index: int
    char_start: int
    char_end: int
    text: str


@dataclass(frozen=True)
class PolicyDocument:
    service_id: str
    source_uri: str
    segments: tuple[Segment, ...]


def segment_lines(raw_text: str) -> list[Segment]:
    """Split raw text into one segment per non-blank line; CRLF, CR and LF
    each end a line.

    Leading/trailing whitespace is trimmed from the segment text; offsets
    point at the trimmed core, so raw_text[start:end] == text always holds.
    Blank and whitespace-only lines yield no segment.
    """
    segments: list[Segment] = []
    offset = 0
    # CR read as LF, one character for one, so offsets stay those of raw_text
    for line in raw_text.replace("\r", "\n").split("\n"):
        stripped = line.strip()
        if stripped:
            core_start = offset + len(line) - len(line.lstrip())
            segments.append(Segment(len(segments), core_start, core_start + len(stripped),
                                    stripped))
        offset += len(line) + 1
    return segments


def load_policy(path: Union[str, Path], service_id: str) -> PolicyDocument:
    """Read a UTF-8 text policy file and segment it by line.

    Segment offsets index the text as read, line ends included.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read policy file {p}: {exc}") from exc
    if b"\x00" in data:
        raise CorpusError(f"{p} does not look like a text file (NUL bytes present)")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{p} is not valid UTF-8: {exc}") from exc
    return PolicyDocument(
        service_id=service_id,
        source_uri=str(p),
        segments=tuple(segment_lines(text)),
    )


# -- brat standoff --

@dataclass(frozen=True)
class GoldEntity:
    id: str
    type: str
    char_start: int                         # start of the covering span, over every fragment
    covering_text: str                      # document text over the covering span
    fine_grained: Optional[str] = None      # DPV term label/IRI from A or # channel


@dataclass(frozen=True)
class GoldEvent:
    id: str
    type: str
    trigger: GoldEntity
    roles: tuple[tuple[str, str], ...]  # (role label, target id) in file order


@dataclass(frozen=True)
class GoldRelation:
    id: str
    label: str


@dataclass(frozen=True)
class GoldAnnotationSet:
    doc_id: str
    entities: tuple[GoldEntity, ...]
    events: tuple[GoldEvent, ...]
    relations: tuple[GoldRelation, ...]
    ann_path: str = ""                      # the .ann file, named in errors


# Attribute names whose value carries a fine-grained DPV grounding.
GROUNDING_ATTRIBUTE_NAMES = frozenset({"dpv", "dpvterm", "grounding", "finegrained", "term"})

_T_LINE = re.compile(r"^(T\d+)\t(\S+) ([0-9; ]+)\t(.*)$", re.S)
_E_LINE = re.compile(r"^(E\d+)\t(\S+):(\S+)((?: \S+:\S+)*)\s*$")
_R_LINE = re.compile(r"^(R\d+)\t(\S+) Arg1:(\S+) Arg2:(\S+)\s*$")
_A_LINE = re.compile(r"^(A\d+)\t(\S+) (\S+)(?: (.*))?$")
_NOTE_LINE = re.compile(r"^(#\d*)\t(\S+) (\S+)\t(.*)$", re.S)
_ID = re.compile(r"([A-Z#]+)(\d+)")


def _looks_like_term(note: str) -> bool:
    # single token: a CURIE, IRI, or CamelCase label; prose notes have spaces
    return bool(note) and not any(ch.isspace() for ch in note)


def _id_key(item_id: str) -> tuple[str, int]:
    m = _ID.match(item_id)
    return (m.group(1), int(m.group(2))) if m else (item_id, 0)


def _read_text(path: Union[str, Path], newline: Optional[str] = None) -> str:
    """The UTF-8 text of `path`; `newline=""` keeps its line ends as they are."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc


def parse_brat(text_file: Union[str, Path], ann_file: Union[str, Path]) -> GoldAnnotationSet:
    """Parse a brat .txt/.ann pair into a gold annotation set.

    Every entity's surface text is validated against the document text
    (fragments joined with a single space for discontinuous spans).  An
    entity's grounding is its first grounding attribute, else its first
    single-token note.  Dangling role/relation targets raise CorpusError.
    Offsets index the document text as read, line ends included.
    """
    doc_text = _read_text(text_file, newline="")
    spans: dict[str, tuple[str, int, int]] = {}        # T id -> type, covering span
    events: dict[str, tuple[str, str, tuple[tuple[str, str], ...]]] = {}
    relations: list[GoldRelation] = []
    references: list[str] = []          # ids that roles, relations, A and # lines name
    attribute_groundings: dict[str, str] = {}
    note_groundings: dict[str, str] = {}

    ann_path = str(ann_file)
    ann_lines = _read_text(ann_file).split("\n")
    for line_no, line in enumerate(ann_lines, start=1):
        if not line.strip():
            continue
        head = line[0]
        if head == "T":
            m = _T_LINE.match(line)
            if not m:
                raise _brat_error(ann_path, "malformed T line", line_no, line)
            tid, etype, span_str, surface = m.groups()
            try:
                fragments = [
                    (int(a), int(b))
                    for a, b in (frag.split() for frag in span_str.split(";"))
                ]
            except ValueError:
                raise _brat_error(ann_path, "malformed span in T line", line_no, line) from None
            for a, b in fragments:
                if a >= b or b > len(doc_text):
                    raise _brat_error(ann_path, "invalid span offsets", line_no, line)
            # brat writes newlines inside spans as spaces in the text column
            expected = " ".join(doc_text[a:b] for a, b in fragments).replace("\n", " ")
            if expected != surface:
                raise _brat_error(
                    ann_path, f"surface text {surface!r} does not match document text {expected!r}",
                    line_no, line,
                )
            spans[tid] = (etype, min(a for a, _ in fragments), max(b for _, b in fragments))
        elif head == "E":
            m = _E_LINE.match(line)
            if not m:
                raise _brat_error(ann_path, "malformed E line", line_no, line)
            eid, etype, trigger, rest = m.groups()
            roles = tuple(tuple(part.split(":", 1)) for part in rest.split())
            events[eid] = (etype, trigger, roles)
            references.extend(target for _, target in roles)
        elif head == "R":
            m = _R_LINE.match(line)
            if not m:
                raise _brat_error(ann_path, "malformed R line", line_no, line)
            rid, label, arg1, arg2 = m.groups()
            relations.append(GoldRelation(id=rid, label=label))
            references.extend((arg1, arg2))
        elif head == "A" or head == "M":
            m = _A_LINE.match(line)
            if not m:
                raise _brat_error(ann_path, "malformed A line", line_no, line)
            _, name, target, value = m.groups()
            references.append(target)
            if value and normalize_label(name) in GROUNDING_ATTRIBUTE_NAMES:
                attribute_groundings.setdefault(target, value)
        elif head == "#":
            m = _NOTE_LINE.match(line)
            if not m:
                raise _brat_error(ann_path, "malformed note line", line_no, line)
            _, _, target, text = m.groups()
            references.append(target)
            if _looks_like_term(text.strip()):
                note_groundings.setdefault(target, text.strip())
        else:
            raise _brat_error(ann_path, "unknown annotation line type", line_no, line)

    dangling = {trigger for _, trigger, _ in events.values() if trigger not in spans}
    dangling.update(ref for ref in references if ref not in spans and ref not in events)
    if dangling:
        raise CorpusError(f"{ann_path}: annotation references unknown ids: "
                          f"{', '.join(sorted(dangling))}")

    entities = {
        tid: GoldEntity(
            id=tid, type=etype, char_start=start,
            covering_text=doc_text[start:end],
            fine_grained=attribute_groundings.get(tid, note_groundings.get(tid)),
        )
        for tid, (etype, start, end) in spans.items()
    }
    gold_events = []
    for eid in sorted(events, key=_id_key):
        etype, trigger, roles = events[eid]
        gold_events.append(GoldEvent(id=eid, type=etype, trigger=entities[trigger], roles=roles))
    return GoldAnnotationSet(
        doc_id=Path(text_file).stem,
        entities=tuple(entities[tid] for tid in sorted(entities, key=_id_key)),
        events=tuple(gold_events),
        relations=tuple(relations),
        ann_path=ann_path,
    )


def read_annotation_conf(path: Union[str, Path]) -> dict[str, set[str]]:
    """Read the label inventory from a brat annotation.conf file.

    Returns the declared names per section (entities, relations, events,
    attributes).  Macro lines (!name) and option assignments are ignored;
    hierarchy indentation is flattened since only the inventory matters.
    """
    sections: dict[str, set[str]] = {}
    current = None
    for line in _read_text(path).split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = re.match(r"^\[(\w+)\]$", stripped)
        if m:
            current = m.group(1).lower()
            sections.setdefault(current, set())
            continue
        if current is None or stripped.startswith("!") or "=" in stripped.split("\t")[0]:
            continue
        name = stripped.split("\t")[0].split()[0].lstrip("-").strip()
        if name:
            sections[current].add(name)
    return sections


def validate_gold_labels(gold: GoldAnnotationSet, conf: dict[str, set[str]]) -> list[str]:
    """Check a gold set's labels against an annotation.conf inventory, as
    `read_annotation_conf` returns it.

    Returns human-readable problems for labels not declared in the conf;
    an empty list means the gold set matches the schema.
    """
    entity_labels = conf.get("entities", set()) | conf.get("events", set())
    problems = []
    for ent in gold.entities:
        if ent.type not in entity_labels:
            problems.append(f"entity {ent.id}: undeclared type {ent.type!r}")
    for ev in gold.events:
        if ev.type not in conf.get("events", set()):
            problems.append(f"event {ev.id}: undeclared type {ev.type!r}")
    for rel in gold.relations:
        if rel.label not in conf.get("relations", set()):
            problems.append(f"relation {rel.id}: undeclared label {rel.label!r}")
    return problems


# -- alignment of gold annotations to segments --

@dataclass(frozen=True)
class GoldSlice:
    """One segment's gold: its entities, event triggers left out, in
    (char_start, id) order, and its events in (trigger char_start, id)
    order."""
    entities: tuple[GoldEntity, ...] = ()
    events: tuple[GoldEvent, ...] = ()


def align_gold(gold: GoldAnnotationSet, doc: PolicyDocument) -> dict[int, GoldSlice]:
    """Assign each gold entity/event to the segment containing its span
    start (an event's span is its trigger's), by segment index.

    Span starts on blank lines (no segment) raise CorpusError listing the
    offending ids.
    """
    starts = [seg.char_start for seg in doc.segments]

    def locate(pos: int) -> Optional[int]:
        i = bisect_right(starts, pos) - 1
        if i >= 0 and doc.segments[i].char_start <= pos < doc.segments[i].char_end:
            return i
        return None

    triggers = {ev.trigger.id for ev in gold.events}
    orphans: list[str] = []
    per_segment: dict[int, tuple[list[GoldEntity], list[GoldEvent]]] = {}
    for ent in sorted(gold.entities, key=lambda e: (e.char_start, e.id)):
        seg_idx = locate(ent.char_start)
        if seg_idx is None:
            orphans.append(ent.id)
        elif ent.id not in triggers:
            per_segment.setdefault(seg_idx, ([], []))[0].append(ent)
    for ev in sorted(gold.events, key=lambda e: (e.trigger.char_start, e.id)):
        seg_idx = locate(ev.trigger.char_start)
        if seg_idx is None:
            orphans.append(ev.id)
        else:
            per_segment.setdefault(seg_idx, ([], []))[1].append(ev)
    if orphans:
        raise CorpusError(f"{gold.ann_path}: annotation span starts outside every segment: "
                          f"{', '.join(sorted(orphans))}")
    return {idx: GoldSlice(tuple(entities), tuple(events))
            for idx, (entities, events) in sorted(per_segment.items())}
