"""Per-task views over gold annotations, aligned to segments.

Maps brat entity/event/role labels onto the seven pipeline tasks.  The
label maps are configuration with defaults covering the obvious naming
schemes; corpora with different inventories supply their own maps.

For the relation task, gold entities and event triggers receive the
same local ids ("e0".. for data, purpose, party spans in offset order,
"a0".. for triggers) that the pipeline would assign, so predicted and
gold tuples are directly comparable.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

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
from ..extraction.prompts import TASK_SHAPES, TaskKind
from ..taxonomy import Taxonomy, UnresolvedTermError
from ..textnorm import normalize_label


DEFAULT_ENTITY_KIND_MAP = {
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

DEFAULT_PARTY_SUBTYPE_MAP = {
    "firstparty": "first_party",
    "firstpartyentity": "first_party",
    "thirdparty": "third_party",
    "thirdpartyentity": "third_party",
    "user": "user",
}

DEFAULT_EVENT_SUBTYPE_MAP = {
    "collectionuse": "collection_use",
    "datacollectionuse": "collection_use",
    "thirdpartysharingdisclosure": "third_party_sharing_disclosure",
    "thirdpartycollectionuse": "third_party_sharing_disclosure",
    "storageretentiondeletion": "storage_retention_deletion",
    "datastorageretentiondeletion": "storage_retention_deletion",
    "securityprotection": "security_protection",
    "datasecurityprotection": "security_protection",
}

DEFAULT_ROLE_EVENT_MAP = {
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


@dataclass(frozen=True)
class LabelMaps:
    entity_kind: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ENTITY_KIND_MAP))
    party_subtype: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PARTY_SUBTYPE_MAP))
    event_subtype: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_EVENT_SUBTYPE_MAP))
    role_event: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ROLE_EVENT_MAP))

    def kind_of(self, entity_type: str) -> Optional[str]:
        return self.entity_kind.get(normalize_label(entity_type))

    def party_subtype_of(self, entity_type: str) -> Optional[str]:
        return self.party_subtype.get(normalize_label(entity_type))

    def action_subtype_of(self, event_type: str) -> Optional[str]:
        return self.event_subtype.get(normalize_label(event_type))

    def event_type_of(self, role: str) -> Optional[str]:
        return self.role_event.get(normalize_label(re.sub(r"\d+$", "", role)))


@dataclass(frozen=True)
class GoldDocument:
    doc: PolicyDocument
    gold: GoldAnnotationSet
    alignment: dict[int, GoldSlice]


class GoldCorpusError(Exception):
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


def _ordered_entities(slice_: GoldSlice, maps: LabelMaps, kind: str) -> list[AlignedEntity]:
    """A segment's gold spans of one kind, event triggers excluded, in offset order."""
    triggers = {ev.event.trigger_id for ev in slice_.events}
    return sorted(
        (ae for ae in slice_.entities
         if maps.kind_of(ae.entity.type) == kind and ae.entity.id not in triggers),
        key=lambda ae: (ae.entity.char_start, ae.entity.id),
    )


def _ordered_events(slice_: GoldSlice) -> list[AlignedEvent]:
    """A segment's gold events in trigger offset order."""
    return sorted(slice_.events, key=lambda ev: (ev.trigger.char_start, ev.event.id))


def _local_ids(slice_: GoldSlice, maps: LabelMaps) -> tuple[list[tuple[str, str, AlignedEntity]], list[tuple[str, AlignedEvent]]]:
    """Assign pipeline-style local ids to a segment's gold spans."""
    entities: list[tuple[str, str, AlignedEntity]] = []
    for kind in ("data", "purpose", "party"):
        for ae in _ordered_entities(slice_, maps, kind):
            entities.append((f"e{len(entities)}", kind, ae))
    events = [(f"a{i}", ev) for i, ev in enumerate(_ordered_events(slice_))]
    return entities, events


def segment_tasks(gold_doc: GoldDocument, task: TaskKind,
                  taxonomy: Optional[Taxonomy] = None,
                  maps: Optional[LabelMaps] = None) -> list[SegmentTask]:
    """Build one SegmentTask per segment of the document for this task."""
    maps = maps or LabelMaps()
    out = []
    for segment in gold_doc.doc.segments:
        slice_ = gold_doc.alignment.get(segment.index, GoldSlice())
        if task is TaskKind.DATA_RECOGNITION or task is TaskKind.PURPOSE_RECOGNITION:
            kind = "data" if task is TaskKind.DATA_RECOGNITION else "purpose"
            spans = [ae.entity.covering_text for ae in _ordered_entities(slice_, maps, kind)]
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(spans),
                gold_items=tuple({"text": s} for s in spans),
            ))
        elif task is TaskKind.PARTY_RECOGNITION:
            items = []
            for ae in _ordered_entities(slice_, maps, "party"):
                item = {"text": ae.entity.covering_text}
                subtype = maps.party_subtype_of(ae.entity.type)
                if subtype:
                    item["subtype"] = subtype
                items.append(item)
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(i["text"] for i in items),
                gold_items=tuple(items),
            ))
        elif task is TaskKind.ACTION_RECOGNITION:
            items = []
            for ev in _ordered_events(slice_):
                subtype = maps.action_subtype_of(ev.event.type)
                item = {"text": ev.trigger.covering_text}
                if subtype:
                    item["subtype"] = subtype
                items.append(item)
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                gold_spans=tuple(i["text"] for i in items),
                gold_items=tuple(items),
            ))
        elif task in (TaskKind.DATA_CLASSIFICATION, TaskKind.PURPOSE_CLASSIFICATION):
            kind = "data" if task is TaskKind.DATA_CLASSIFICATION else "purpose"
            pairs = []
            items = []
            for ae in _ordered_entities(slice_, maps, kind):
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
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                extras=tuple(p[0] for p in pairs) or None,
                gold_pairs=tuple(pairs),
                gold_items=tuple(items),
            ))
        elif task is TaskKind.RELATION_RECOGNITION:
            entities, events = _local_ids(slice_, maps)
            entity_id_of = {ae.entity.id: local_id for local_id, _, ae in entities}
            action_id_of = {ev.event.id: local_id for local_id, ev in events}
            trigger_id_of = {ev.event.trigger_id: local_id for local_id, ev in events}
            items = []
            for local_id, ev in events:
                for role, target in ev.event.roles:
                    event_type = maps.event_type_of(role)
                    if event_type is None:
                        continue
                    target_id = entity_id_of.get(target) or action_id_of.get(target) \
                        or trigger_id_of.get(target)
                    if target_id is None:
                        continue
                    items.append({"id1": local_id, "id2": target_id, "type": event_type})
            extras = tuple(
                (local_id, kind, ae.entity.covering_text) for local_id, kind, ae in entities
            ) + tuple(
                (local_id, "action", ev.trigger.covering_text) for local_id, ev in events
            )
            out.append(SegmentTask(
                doc_id=gold_doc.gold.doc_id, segment_index=segment.index,
                segment_text=segment.text,
                extras=extras or None,
                gold_items=tuple(items),
                gold_spans=tuple(f"{i['id1']} {i['id2']} {i['type']}" for i in items),
            ))
        else:
            raise ValueError(f"unknown task: {task}")
    return out


def expected_answer(task: TaskKind, sample: SegmentTask) -> str:
    """Canonical assistant answer for a gold sample, as compact JSON."""
    envelope = TASK_SHAPES[task].envelope_keys[0]
    return json.dumps({envelope: list(sample.gold_items)}, ensure_ascii=False)
