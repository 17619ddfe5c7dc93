"""The practice vocabulary: every consumer reads the rows of `vocab`, and
the texts and files that spell the same terms outside it agree with them."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ppanalyze import vocab
from ppanalyze.eval import gold
from ppanalyze.extraction.prompts import (
    ACTION_SUBTYPES,
    EVENT_TYPES,
    PARTY_SUBTYPES,
    SYSTEM_TEXTS,
    TaskKind,
)
from ppanalyze.graph import _ROLES
from ppanalyze.textnorm import normalize_label

from . import oracles

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["ENTITY_KIND_MAP", "PARTY_SUBTYPE_MAP",
                                  "EVENT_SUBTYPE_MAP", "ROLE_EVENT_MAP"])
def test_gold_maps_equal_the_written_out_maps(name):
    assert getattr(gold, name) == getattr(oracles, name)


def test_roles_and_event_types_are_one_list():
    assert tuple(_ROLES) == EVENT_TYPES == tuple(term.name for term in vocab.ROLES)


def test_synonyms_and_labels_are_normalized():
    for terms in (vocab.PARTIES, vocab.ACTIONS, vocab.ROLES):
        for term in terms:
            for label in (*term.synonyms, *term.brat):
                assert normalize_label(label) == label, (term.name, label)
    for labels in vocab.KIND_LABELS.values():
        assert all(normalize_label(label) == label for label in labels)


def _listed(text: str, lead: str) -> list[str]:
    """The names a prompt lists after `lead`, up to the sentence's end,
    with their parenthetical glosses left out."""
    listing = text.split(lead, 1)[1].split(".", 1)[0]
    return re.split(r",\s*(?:or\s+)?|\s+or\s+", re.sub(r"\s*\([^)]*\)", "", listing))


@pytest.mark.parametrize("task, names", [
    (TaskKind.PARTY_RECOGNITION, PARTY_SUBTYPES),
    (TaskKind.ACTION_RECOGNITION, ACTION_SUBTYPES),
])
def test_subtype_prompts_name_exactly_the_rows(task, names):
    system = SYSTEM_TEXTS[task]
    assert _listed(system, "classify each as ") == list(names)
    (schema,) = re.findall(r'"subtype": "([^"]*)"', system)
    assert schema.split("|") == list(names)


def test_relation_prompt_names_each_role_once():
    system = SYSTEM_TEXTS[TaskKind.RELATION_RECOGNITION]
    assert _listed(system, "type is one of: ") == list(EVENT_TYPES)
    assert [system.count(role) for role in EVENT_TYPES] == [1] * len(EVENT_TYPES)


NEW_ROLE = """
import json
from ppanalyze import vocab
vocab.ROLES += (vocab.Term("DATA_SOLD_TO", ("soldto",), ("databuyer",), "dataSoldTo", "party"),)

from ppanalyze import graph
from ppanalyze.eval import gold
from ppanalyze.extraction.pipeline import (
    EntitySpan, ExtractionResult, RelationTuple, SegmentExtraction)
from ppanalyze.extraction.prompts import TASK_SHAPES, TaskKind
from ppanalyze.extraction.repair import repair_and_parse
from ppanalyze.policyconv import PROFILE_KEYS

shape = TASK_SHAPES[TaskKind.RELATION_RECOGNITION]
(type_field,) = [f for f in shape.fields if f.name == "type"]
items, _ = repair_and_parse('[{"id1": "a0", "id2": "e0", "type": "Sold-To"}]', shape)
spans = (EntitySpan("a0", "action", "sell", 0, subtype="third_party_sharing_disclosure"),
         EntitySpan("e0", "party", "brokers", 0, subtype="third_party"))
result = ExtractionResult("test.example", "memory:", (SegmentExtraction(
    0, "We sell it to brokers.", spans, (RelationTuple("a0", "e0", "DATA_SOLD_TO"),)),))
g = graph.build_graph(result, "test.example", "urn:pp-analyze:policy#test.example").triples
((_, practices),) = graph.policy_practices(g)
print(json.dumps({
    "repair": [type_field.enum_table["soldto"], type_field.enum_table["datasoldto"],
               items[0]["type"]],
    "graph": [graph._ROLES["DATA_SOLD_TO"][0].value, graph._ROLES["DATA_SOLD_TO"][1]],
    "written": sorted(p.value for _, p, _ in g.triples if p.value.endswith("dataSoldTo")),
    "read": [len(practice.parties["DATA_SOLD_TO"]) for practice in practices],
    "gold": [gold.ROLE_EVENT_MAP["databuyer"], gold.ENTITY_KIND_MAP["databuyer"]],
    "profile": "DATA_SOLD_TO" in PROFILE_KEYS["role_map"][1],
}))
"""


def test_a_new_role_row_reaches_every_consumer():
    """One row added to `vocab.ROLES` before the package loads is seen by
    response repair, the graph writer and reader, the gold maps and the
    profile check; a fresh interpreter keeps the row from other tests."""
    result = subprocess.run([sys.executable, "-c", NEW_ROLE], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "repair": ["DATA_SOLD_TO"] * 3,
        "graph": ["urn:pp-analyze:core#dataSoldTo", "party"],
        "written": ["urn:pp-analyze:core#dataSoldTo"],
        "read": [1],
        "gold": ["DATA_SOLD_TO", "party"],
        "profile": True,
    }


def _conf_sections(path: Path) -> dict[str, list[str]]:
    """Each section of a brat annotation.conf as its lines."""
    sections: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), [])
        elif line.strip():
            current.append(line)
    return sections


def test_fixture_annotation_conf_resolves_through_the_table():
    sections = _conf_sections(ROOT / "fixtures" / "gold" / "annotation.conf")
    entity_maps = (gold.ENTITY_KIND_MAP, gold.EVENT_SUBTYPE_MAP)   # a trigger is an entity too
    for label in sections["entities"]:
        assert any(normalize_label(label) in table for table in entity_maps), label
    roles = []
    for line in sections["events"]:
        label, arguments = line.split("\t")
        assert normalize_label(label) in gold.EVENT_SUBTYPE_MAP, label
        roles += [argument.split(":")[0].rstrip("?*+") for argument in arguments.split(", ")]
    assert roles
    for role in roles:
        assert normalize_label(role) in gold.ROLE_EVENT_MAP, role


def test_benchmark_brat_labels_map_back_to_their_names(gen):
    for labels, table in ((gen.BRAT_PARTY, gold.PARTY_SUBTYPE_MAP),
                          (gen.BRAT_EVENT, gold.EVENT_SUBTYPE_MAP),
                          (gen.BRAT_ROLE, gold.ROLE_EVENT_MAP)):
        assert labels
        for name, label in labels.items():
            assert table[normalize_label(label)] == name
