"""Per-task views over gold annotations, aligned to segments.

Maps brat entity/event/role labels onto the seven pipeline tasks.  The
label maps below are views of the rows of `vocab`, which covers the
obvious naming schemes; labels are looked up after normalization, and a
label none of them knows adds nothing to the gold answer.

For the relation task, gold entities and event triggers are numbered by
`prompts.number_spans`, as the pipeline numbers its spans, so predicted
and gold tuples are directly comparable.  `asks_model` tells which
samples make a query.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .. import Error
from ..corpus import (
    GoldAnnotationSet,
    GoldEntity,
    GoldEvent,
    GoldSlice,
    PolicyDocument,
    align_gold,
    load_policy,
    parse_brat,
)
from ..extraction.prompts import (
    CLASSIFICATION_TASKS,
    RECOGNITION_TASKS,
    SPAN_KINDS,
    TASK_KIND,
    TASK_SHAPES,
    TaskKind,
    number_spans,
)
from ..taxonomy import Taxonomy, UnresolvedTermError
from ..textnorm import normalize_label
from ..vocab import ACTIONS, KIND_LABELS, PARTIES, ROLES, Term


def _labels(terms: tuple[Term, ...]) -> dict[str, str]:
    """Each brat label of vocabulary rows -> the row's canonical name."""
    return {label: term.name for term in terms for label in term.brat}


PARTY_SUBTYPE_MAP = _labels(PARTIES)
EVENT_SUBTYPE_MAP = _labels(ACTIONS)
ROLE_EVENT_MAP = _labels(ROLES)
# an entity's kind: its kind label, or the label of a party subtype or of a
# role that links a party
ENTITY_KIND_MAP = {label: kind for kind, labels in KIND_LABELS.items() for label in labels}
ENTITY_KIND_MAP.update((label, "party") for term in PARTIES + ROLES
                       if term in PARTIES or term.target == "party" for label in term.brat)


def _label(table: dict[str, str], label: str) -> Optional[str]:
    """Look a brat label up in one of the tables above."""
    return table.get(normalize_label(label))


@dataclass(frozen=True)
class GoldDocument:
    doc: PolicyDocument
    gold: GoldAnnotationSet
    alignment: dict[int, GoldSlice]


class GoldCorpusError(Error):
    pass


def load_gold_corpus(gold_dir: Union[str, Path]) -> list[GoldDocument]:
    """Load every .txt/.ann pair under a directory into aligned gold docs."""
    root = Path(gold_dir)
    if not root.is_dir():
        raise GoldCorpusError(f"not a directory: {root}")
    pairs = sorted(p for p in root.glob("*.txt") if p.with_suffix(".ann").exists())
    if not pairs:
        raise GoldCorpusError(f"no .txt/.ann pairs under {root}")
    out = []
    for text_path in pairs:
        doc = load_policy(text_path, service_id=text_path.stem)
        gold = parse_brat(text_path, text_path.with_suffix(".ann"))
        out.append(GoldDocument(doc=doc, gold=gold, alignment=align_gold(gold, doc)))
    return out


@dataclass(frozen=True)
class SegmentTask:
    """One sample: a segment, the task inputs, and the gold answer."""
    doc_id: str
    segment_index: int
    segment_text: str
    extras: Optional[tuple] = None          # prompt extras, task-dependent
    gold_spans: tuple[str, ...] = ()        # recognition tasks
    gold_pairs: tuple[tuple[str, str], ...] = ()   # classification: (text, term IRI)
    gold_items: tuple[dict, ...] = ()       # canonical answer items for export

    @property
    def is_empty(self) -> bool:
        return not (self.gold_spans or self.gold_pairs or self.gold_items)


def asks_model(task: TaskKind, sample: SegmentTask) -> bool:
    """Whether `sample` makes a query: a classification or relation sample
    without inputs asks nothing."""
    return task in RECOGNITION_TASKS or bool(sample.extras)


def _entities_of_kind(slice_: GoldSlice, kind: str) -> list[GoldEntity]:
    """A segment's gold spans of one kind, in offset order."""
    return [ent for ent in slice_.entities if _label(ENTITY_KIND_MAP, ent.type) == kind]


def _relation_answer(item: dict) -> str:
    """A relation item as the one string its scoring compares."""
    return f"{item['id1']} {item['id2']} {item['type']}"


def _local_ids(slice_: GoldSlice) -> tuple[tuple[tuple[str, str, str], ...],
                                           list[tuple[str, GoldEvent]], dict[str, str]]:
    """Number a segment's gold entities and events (by trigger) with `number_spans`.

    Returns the relation prompt's (id, kind, text) rows, the events with
    their ids, and the local id of each brat id a role may target.  An
    entity id wins over an event id, an event id over a trigger id, and
    of two events sharing a trigger the last one wins.
    """
    numbered = number_spans({kind: slice_.events if kind == "action"
                             else _entities_of_kind(slice_, kind) for kind in SPAN_KINDS})
    events = [(a, ev) for a, kind, ev in numbered if kind == "action"]
    local_id = {ev.trigger.id: a for a, ev in events}
    local_id.update((ev.id, a) for a, ev in events)
    local_id.update((ent.id, e) for e, kind, ent in numbered if kind != "action")
    rows = tuple((i, kind, (span.trigger if kind == "action" else span).covering_text)
                 for i, kind, span in numbered)
    return rows, events, local_id


def _gold_fields(task: TaskKind, slice_: GoldSlice, taxonomy: Taxonomy) -> dict:
    """The task-dependent SegmentTask fields for one segment's gold."""
    if task in RECOGNITION_TASKS:
        kind = TASK_KIND[task]
        if kind == "action":
            found = [(ev.trigger.covering_text, _label(EVENT_SUBTYPE_MAP, ev.type))
                     for ev in slice_.events]
        else:
            found = [(ent.covering_text, _label(PARTY_SUBTYPE_MAP, ent.type))
                     for ent in _entities_of_kind(slice_, kind)]
        items = tuple({"text": text, "subtype": subtype} if subtype else {"text": text}
                      for text, subtype in found)
        return {"gold_spans": tuple(text for text, _ in found), "gold_items": items}

    if task in CLASSIFICATION_TASKS:
        kind = TASK_KIND[task]
        pairs = []
        items = []
        for ent in _entities_of_kind(slice_, kind):
            term = ent.fine_grained
            if not term:
                continue
            try:
                iri = taxonomy.resolve_term(term, kind).iri
            except UnresolvedTermError:
                continue
            pairs.append((ent.covering_text, iri))
            items.append({"entity_text": ent.covering_text, "term": term})
        return {"extras": tuple(p[0] for p in pairs) or None,
                "gold_pairs": tuple(pairs), "gold_items": tuple(items)}

    # the one task left: relation recognition
    extras, events, local_id = _local_ids(slice_)
    items = []
    for a, ev in events:
        for role, target in ev.roles:
            event_type = _label(ROLE_EVENT_MAP, re.sub(r"\d+$", "", role))
            if event_type is not None and target in local_id:
                items.append({"id1": a, "id2": local_id[target], "type": event_type})
    return {"extras": extras or None, "gold_items": tuple(items),
            "gold_spans": tuple(map(_relation_answer, items))}


def segment_tasks(gold_doc: GoldDocument, task: TaskKind,
                  taxonomy: Taxonomy) -> list[SegmentTask]:
    """Build one SegmentTask per segment of the document for this task."""
    return [
        SegmentTask(doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                    segment_text=segment.text,
                    **_gold_fields(task, gold_doc.alignment.get(segment.index, GoldSlice()),
                                   taxonomy))
        for segment in gold_doc.doc.segments
    ]


def expected_answer(task: TaskKind, sample: SegmentTask) -> str:
    """Canonical assistant answer for a gold sample, as compact JSON."""
    envelope = TASK_SHAPES[task].envelope_keys[0]
    return json.dumps({envelope: list(sample.gold_items)}, ensure_ascii=False)
