"""Per-task views over gold annotations, aligned to segments.

Maps brat entity/event/role labels onto the seven pipeline tasks.  The
label tables below cover the obvious naming schemes; labels are looked
up after normalization, and a label none of them knows adds nothing to
the gold answer.

For the relation task, gold entities and event triggers receive the
same local ids ("e0".. for data, purpose, party spans in offset order,
"a0".. for triggers) that the pipeline would assign, so predicted and
gold tuples are directly comparable.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .. import Error
from ..corpus import (
    AlignedEntity,
    AlignedEvent,
    GoldAnnotationSet,
    GoldSlice,
    PolicyDocument,
    align_gold,
    load_policy,
    parse_brat,
)
from ..extraction.prompts import (
    CLASSIFICATION_TASKS,
    RECOGNITION_TASKS,
    TASK_KIND,
    TASK_SHAPES,
    TaskKind,
)
from ..taxonomy import Taxonomy, UnresolvedTermError
from ..textnorm import normalize_label


ENTITY_KIND_MAP = {
    "data": "data",
    "dataentity": "data",
    "purpose": "purpose",
    "purposeentity": "purpose",
    "party": "party",
    "firstparty": "party",
    "firstpartyentity": "party",
    "thirdparty": "party",
    "thirdpartyentity": "party",
    "user": "party",
    "datacollector": "party",
    "dataprovider": "party",
    "datareceiver": "party",
    "datasharer": "party",
    "dataholder": "party",
    "dataprotector": "party",
}

PARTY_SUBTYPE_MAP = {
    "firstparty": "first_party",
    "firstpartyentity": "first_party",
    "thirdparty": "third_party",
    "thirdpartyentity": "third_party",
    "user": "user",
}

EVENT_SUBTYPE_MAP = {
    "collectionuse": "collection_use",
    "datacollectionuse": "collection_use",
    "thirdpartysharingdisclosure": "third_party_sharing_disclosure",
    "thirdpartycollectionuse": "third_party_sharing_disclosure",
    "storageretentiondeletion": "storage_retention_deletion",
    "datastorageretentiondeletion": "storage_retention_deletion",
    "securityprotection": "security_protection",
    "datasecurityprotection": "security_protection",
}

ROLE_EVENT_MAP = {
    "data": "HAS_DATA",
    "datacollected": "HAS_DATA",
    "datashared": "HAS_DATA",
    "dataretained": "HAS_DATA",
    "purpose": "HAS_PURPOSE",
    "purposeargument": "HAS_PURPOSE",
    "datacollector": "PERFORMED_BY",
    "datasharer": "PERFORMED_BY",
    "dataholder": "PERFORMED_BY",
    "dataprotector": "PERFORMED_BY",
    "dataprovider": "DATA_PROVIDED_BY",
    "datareceiver": "DATA_SHARED_WITH",
}


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


def _ordered_entities(slice_: GoldSlice, kind: str) -> list[AlignedEntity]:
    """A segment's gold spans of one kind, event triggers excluded, in offset order."""
    triggers = {ev.event.trigger_id for ev in slice_.events}
    return sorted(
        (ae for ae in slice_.entities
         if _label(ENTITY_KIND_MAP, ae.entity.type) == kind
         and ae.entity.id not in triggers),
        key=lambda ae: (ae.entity.char_start, ae.entity.id),
    )


def _ordered_events(slice_: GoldSlice) -> list[AlignedEvent]:
    """A segment's gold events in trigger offset order."""
    return sorted(slice_.events, key=lambda ev: (ev.trigger.char_start, ev.event.id))


def _local_ids(slice_: GoldSlice) -> tuple[tuple[tuple[str, str, str], ...],
                                           list[tuple[str, AlignedEvent]], dict[str, str]]:
    """Assign pipeline-style local ids to a segment's gold spans.

    Returns the relation prompt's (id, kind, text) rows, the events with
    their ids, and the local id of each brat id a role may target.  An
    entity id wins over an event id, an event id over a trigger id, and
    of two events sharing a trigger the last one wins.
    """
    rows = [(kind, ae) for kind in ("data", "purpose", "party")
            for ae in _ordered_entities(slice_, kind)]
    entities = [(f"e{i}", kind, ae) for i, (kind, ae) in enumerate(rows)]
    events = [(f"a{i}", ev) for i, ev in enumerate(_ordered_events(slice_))]
    local_id = {ev.event.trigger_id: a for a, ev in events}
    local_id.update((ev.event.id, a) for a, ev in events)
    local_id.update((ae.entity.id, e) for e, _, ae in entities)
    extras = tuple((e, kind, ae.entity.covering_text) for e, kind, ae in entities) \
        + tuple((a, "action", ev.trigger.covering_text) for a, ev in events)
    return extras, events, local_id


def _gold_fields(task: TaskKind, slice_: GoldSlice, taxonomy: Optional[Taxonomy]) -> dict:
    """The task-dependent SegmentTask fields for one segment's gold."""
    if task in RECOGNITION_TASKS:
        kind = TASK_KIND[task]
        if kind == "action":
            found = [(ev.trigger.covering_text, _label(EVENT_SUBTYPE_MAP, ev.event.type))
                     for ev in _ordered_events(slice_)]
        else:
            found = [(ae.entity.covering_text, _label(PARTY_SUBTYPE_MAP, ae.entity.type))
                     for ae in _ordered_entities(slice_, kind)]
        items = tuple({"text": text, "subtype": subtype} if subtype else {"text": text}
                      for text, subtype in found)
        return {"gold_spans": tuple(text for text, _ in found), "gold_items": items}

    if task in CLASSIFICATION_TASKS:
        kind = TASK_KIND[task]
        pairs = []
        items = []
        for ae in _ordered_entities(slice_, kind):
            term = ae.entity.fine_grained
            if not term:
                continue
            iri = term
            if taxonomy is not None:
                try:
                    iri = taxonomy.resolve_term(term, kind).iri
                except UnresolvedTermError:
                    continue
            pairs.append((ae.entity.covering_text, iri))
            items.append({"entity_text": ae.entity.covering_text, "term": term})
        return {"extras": tuple(p[0] for p in pairs) or None,
                "gold_pairs": tuple(pairs), "gold_items": tuple(items)}

    if task is TaskKind.RELATION_RECOGNITION:
        extras, events, local_id = _local_ids(slice_)
        items = []
        for a, ev in events:
            for role, target in ev.event.roles:
                event_type = _label(ROLE_EVENT_MAP, re.sub(r"\d+$", "", role))
                if event_type is not None and target in local_id:
                    items.append({"id1": a, "id2": local_id[target], "type": event_type})
        return {"extras": extras or None, "gold_items": tuple(items),
                "gold_spans": tuple(f"{i['id1']} {i['id2']} {i['type']}" for i in items)}

    raise ValueError(f"unknown task: {task}")


def segment_tasks(gold_doc: GoldDocument, task: TaskKind,
                  taxonomy: Optional[Taxonomy] = None) -> list[SegmentTask]:
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
