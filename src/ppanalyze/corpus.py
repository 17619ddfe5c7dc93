"""Policy documents, line segmentation, and brat standoff gold annotations.

Segmentation is by line: one segment per non-blank line, text trimmed,
offsets pointing at the trimmed core inside the document's raw text.
Invariant: raw_text[seg.char_start:seg.char_end] == seg.text for every
segment, and segments are non-overlapping and strictly ascending.

Brat standoff support covers T (text-bound entity), E (event), R (relation),
A (attribute) and # (note) lines.  Discontinuous T spans are kept as their
fragment list plus the covering span; the covering span's surface text is
what downstream scoring uses.
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
    """Unreadable or non-text policy input."""


class BratParseError(Error):
    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"{message} (line {line_no}: {line!r})")
        self.line_no = line_no
        self.line = line


class DanglingReferenceError(Error):
    def __init__(self, ids: list[str]):
        super().__init__(f"annotation references unknown ids: {', '.join(sorted(ids))}")
        self.ids = sorted(ids)


class AlignmentError(Error):
    def __init__(self, ids: list[str]):
        super().__init__(f"annotation span starts outside every segment: {', '.join(sorted(ids))}")
        self.ids = sorted(ids)


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
    raw_text: str
    segments: tuple[Segment, ...]


def segment_lines(raw_text: str) -> list[Segment]:
    """Split raw text into one segment per non-blank line.

    Leading/trailing whitespace is trimmed from the segment text; offsets
    point at the trimmed core, so raw_text[start:end] == text always holds.
    Blank and whitespace-only lines yield no segment.
    """
    segments: list[Segment] = []
    offset = 0
    for line in raw_text.split("\n"):
        stripped = line.strip()
        if stripped:
            lead = len(line) - len(line.lstrip())
            core_start = offset + lead
            core_end = core_start + len(stripped)
            segments.append(Segment(len(segments), core_start, core_end, raw_text[core_start:core_end]))
        offset += len(line) + 1
    return segments


def load_policy(path: Union[str, Path], service_id: str) -> PolicyDocument:
    """Read a UTF-8 text policy file and segment it by line.

    CRLF / CR line endings are normalized to LF before segmentation, so
    stored offsets index into the normalized raw_text.
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
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return PolicyDocument(
        service_id=service_id,
        source_uri=str(p),
        raw_text=text,
        segments=tuple(segment_lines(text)),
    )


# -- brat standoff --

@dataclass(frozen=True)
class GoldEntity:
    id: str
    type: str
    char_start: int
    char_end: int
    text: str                               # surface text as written in the .ann T line
    fragments: tuple[tuple[int, int], ...]  # >1 entry for discontinuous spans
    covering_text: str                      # document text over [char_start, char_end)
    fine_grained: Optional[str] = None      # DPV term label/IRI from A or # channel
    attributes: tuple[tuple[str, Optional[str]], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def discontinuous(self) -> bool:
        return len(self.fragments) > 1


@dataclass(frozen=True)
class GoldEvent:
    id: str
    type: str
    trigger_id: str
    roles: tuple[tuple[str, str], ...]  # (role label, target id) in file order


@dataclass(frozen=True)
class GoldRelation:
    id: str
    label: str
    subject_id: str
    object_id: str


@dataclass(frozen=True)
class GoldAnnotationSet:
    doc_id: str
    entities: tuple[GoldEntity, ...]
    events: tuple[GoldEvent, ...]
    relations: tuple[GoldRelation, ...]

    def entity_by_id(self, eid: str) -> GoldEntity:
        for e in self.entities:
            if e.id == eid:
                return e
        raise KeyError(eid)


# Attribute names whose value carries a fine-grained DPV grounding.
GROUNDING_ATTRIBUTE_NAMES = frozenset({"dpv", "dpvterm", "grounding", "finegrained", "term"})

_T_LINE = re.compile(r"^(T\d+)\t(\S+) ([0-9; ]+)\t(.*)$", re.S)
_E_LINE = re.compile(r"^(E\d+)\t(\S+):(\S+)((?: \S+:\S+)*)\s*$")
_R_LINE = re.compile(r"^(R\d+)\t(\S+) Arg1:(\S+) Arg2:(\S+)\s*$")
_A_LINE = re.compile(r"^(A\d+)\t(\S+) (\S+)(?: (.*))?$")
_NOTE_LINE = re.compile(r"^(#\d*)\t(\S+) (\S+)\t(.*)$", re.S)


def _looks_like_term(note: str) -> bool:
    # single token: a CURIE, IRI, or CamelCase label; prose notes have spaces
    return bool(note) and not any(ch.isspace() for ch in note)


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc


def parse_brat(text_file: Union[str, Path], ann_file: Union[str, Path]) -> GoldAnnotationSet:
    """Parse a brat .txt/.ann pair into a gold annotation set.

    Every entity's surface text is validated against the document text
    (fragments joined with a single space for discontinuous spans).
    Dangling role/relation targets raise DanglingReferenceError.
    """
    doc_text = _read_text(text_file)
    entities: dict[str, GoldEntity] = {}
    events: dict[str, GoldEvent] = {}
    relations: list[GoldRelation] = []
    attrs: list[tuple[str, str, Optional[str], int, str]] = []
    notes: list[tuple[str, str, int, str]] = []

    ann_lines = _read_text(ann_file).split("\n")
    for line_no, line in enumerate(ann_lines, start=1):
        if not line.strip():
            continue
        head = line[0]
        if head == "T":
            m = _T_LINE.match(line)
            if not m:
                raise BratParseError("malformed T line", line_no, line)
            tid, etype, span_str, surface = m.groups()
            try:
                fragments = tuple(
                    (int(a), int(b))
                    for a, b in (frag.split() for frag in span_str.split(";"))
                )
            except ValueError:
                raise BratParseError("malformed span in T line", line_no, line) from None
            for a, b in fragments:
                if a >= b or b > len(doc_text):
                    raise BratParseError("invalid span offsets", line_no, line)
            # brat writes newlines inside spans as spaces in the text column
            expected = " ".join(doc_text[a:b] for a, b in fragments).replace("\n", " ")
            if expected != surface:
                raise BratParseError(
                    f"surface text {surface!r} does not match document text {expected!r}",
                    line_no, line,
                )
            start = min(a for a, _ in fragments)
            end = max(b for _, b in fragments)
            entities[tid] = GoldEntity(
                id=tid, type=etype, char_start=start, char_end=end,
                text=surface, fragments=fragments, covering_text=doc_text[start:end],
            )
        elif head == "E":
            m = _E_LINE.match(line)
            if not m:
                raise BratParseError("malformed E line", line_no, line)
            eid, etype, trigger, rest = m.groups()
            roles = tuple(
                (part.split(":", 1)[0], part.split(":", 1)[1])
                for part in rest.split()
            )
            events[eid] = GoldEvent(id=eid, type=etype, trigger_id=trigger, roles=roles)
        elif head == "R":
            m = _R_LINE.match(line)
            if not m:
                raise BratParseError("malformed R line", line_no, line)
            rid, label, arg1, arg2 = m.groups()
            relations.append(GoldRelation(id=rid, label=label, subject_id=arg1, object_id=arg2))
        elif head == "A" or head == "M":
            m = _A_LINE.match(line)
            if not m:
                raise BratParseError("malformed A line", line_no, line)
            aid, name, target, value = m.groups()
            attrs.append((aid, name, value, line_no, target))
        elif head == "#":
            m = _NOTE_LINE.match(line)
            if not m:
                raise BratParseError("malformed note line", line_no, line)
            nid, _kind, target, text = m.groups()
            notes.append((nid, target, line_no, text))
        else:
            raise BratParseError("unknown annotation line type", line_no, line)

    known = set(entities) | set(events)
    dangling: set[str] = set()
    for ev in events.values():
        if ev.trigger_id not in entities:
            dangling.add(ev.trigger_id)
        for _, target in ev.roles:
            if target not in known:
                dangling.add(target)
    for rel in relations:
        for ref in (rel.subject_id, rel.object_id):
            if ref not in known:
                dangling.add(ref)
    for _, _, _, _, target in attrs:
        if target not in known:
            dangling.add(target)
    for _, target, _, _ in notes:
        if target not in known:
            dangling.add(target)
    if dangling:
        raise DanglingReferenceError(sorted(dangling))

    # attach attributes and notes; A-channel groundings win over notes
    by_target_attrs: dict[str, list[tuple[str, Optional[str]]]] = {}
    for _, name, value, _, target in attrs:
        by_target_attrs.setdefault(target, []).append((name, value))
    by_target_notes: dict[str, list[str]] = {}
    for _, target, _, text in notes:
        by_target_notes.setdefault(target, []).append(text)

    final_entities = []
    for ent in entities.values():
        ent_attrs = tuple(by_target_attrs.get(ent.id, ()))
        ent_notes = tuple(by_target_notes.get(ent.id, ()))
        grounding = None
        for name, value in ent_attrs:
            if value and normalize_label(name) in GROUNDING_ATTRIBUTE_NAMES:
                grounding = value
                break
        if grounding is None:
            for note in ent_notes:
                if _looks_like_term(note.strip()):
                    grounding = note.strip()
                    break
        final_entities.append(
            GoldEntity(
                id=ent.id, type=ent.type, char_start=ent.char_start, char_end=ent.char_end,
                text=ent.text, fragments=ent.fragments, covering_text=ent.covering_text,
                fine_grained=grounding, attributes=ent_attrs, notes=ent_notes,
            )
        )

    def _tid_key(item_id: str) -> tuple[str, int]:
        m = re.match(r"([A-Z#]+)(\d+)", item_id)
        return (m.group(1), int(m.group(2))) if m else (item_id, 0)

    return GoldAnnotationSet(
        doc_id=Path(text_file).stem,
        entities=tuple(sorted(final_entities, key=lambda e: _tid_key(e.id))),
        events=tuple(sorted(events.values(), key=lambda e: _tid_key(e.id))),
        relations=tuple(relations),
    )


def serialize_entity_line(entity: GoldEntity) -> str:
    """Re-serialize a gold entity as its brat T line (round-trip check)."""
    span_str = ";".join(f"{a} {b}" for a, b in entity.fragments)
    return f"{entity.id}\t{entity.type} {span_str}\t{entity.text}"


def read_annotation_conf(path: Union[str, Path]) -> dict[str, set[str]]:
    """Read the label inventory from a brat annotation.conf file.

    Returns the declared names per section (entities, relations, events,
    attributes).  Macro lines (!name) and option assignments are ignored;
    hierarchy indentation is flattened since only the inventory matters.
    """
    sections: dict[str, set[str]] = {}
    current = None
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
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
class AlignedEntity:
    entity: GoldEntity
    segment_index: int
    crosses_boundary: bool


@dataclass(frozen=True)
class AlignedEvent:
    event: GoldEvent
    trigger: GoldEntity
    segment_index: int
    crosses_boundary: bool


@dataclass(frozen=True)
class GoldSlice:
    entities: tuple[AlignedEntity, ...] = ()
    events: tuple[AlignedEvent, ...] = ()


def align_gold(gold: GoldAnnotationSet, doc: PolicyDocument) -> dict[int, GoldSlice]:
    """Assign each gold entity/event to the segment containing its span start.

    Entities reaching past their segment's end are flagged as
    boundary-crossing.  Span starts on blank lines (no segment) raise
    AlignmentError listing the offending ids.
    """
    starts = [seg.char_start for seg in doc.segments]

    def locate(pos: int) -> Optional[int]:
        i = bisect_right(starts, pos) - 1
        if i >= 0 and doc.segments[i].char_start <= pos < doc.segments[i].char_end:
            return i
        return None

    entity_seg: dict[str, int] = {}
    orphans: list[str] = []
    per_segment_entities: dict[int, list[AlignedEntity]] = {}
    for ent in gold.entities:
        seg_idx = locate(ent.char_start)
        if seg_idx is None:
            orphans.append(ent.id)
            continue
        entity_seg[ent.id] = seg_idx
        crosses = ent.char_end > doc.segments[seg_idx].char_end
        per_segment_entities.setdefault(seg_idx, []).append(AlignedEntity(ent, seg_idx, crosses))

    per_segment_events: dict[int, list[AlignedEvent]] = {}
    for ev in gold.events:
        trigger = gold.entity_by_id(ev.trigger_id)
        seg_idx = entity_seg.get(ev.trigger_id)
        if seg_idx is None:
            orphans.append(ev.id)
            continue
        crosses = trigger.char_end > doc.segments[seg_idx].char_end
        per_segment_events.setdefault(seg_idx, []).append(AlignedEvent(ev, trigger, seg_idx, crosses))

    if orphans:
        raise AlignmentError(orphans)

    out: dict[int, GoldSlice] = {}
    for idx in sorted(set(per_segment_entities) | set(per_segment_events)):
        out[idx] = GoldSlice(
            entities=tuple(per_segment_entities.get(idx, ())),
            events=tuple(per_segment_events.get(idx, ())),
        )
    return out
