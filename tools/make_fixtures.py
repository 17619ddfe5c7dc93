#!/usr/bin/env python3
"""Regenerate the bundled fixtures.

Produces, under fixtures/:
  replay_cache.jsonl            scripted responses for policy_example.org.txt,
                                asked through the real pipeline so digests
                                always match what replay runs will ask for
  gold/acme.txt, gold/acme.ann  a small brat-annotated gold document
                                (offsets computed, never hand-counted)
  gold/annotation.conf          label inventory for the gold schema
  gold/replay_cache.jsonl       correct answers for every task/segment
  gold/replay_cache_empty.jsonl empty answers for every task/segment

Run from the repository root:  python tools/make_fixtures.py
"""
from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ppanalyze.corpus import load_policy
from ppanalyze.eval.gold import asks_model, expected_answer, load_gold_corpus, segment_tasks
from ppanalyze.extraction.backend import Backend, BackendConfig, ResponseCache, cache_record
from ppanalyze.extraction.pipeline import extract_document
from ppanalyze.extraction.prompts import TaskKind, build_prompt, read_prompt
from ppanalyze.taxonomy import default_snapshot_path, load_taxonomy

FIXTURES = ROOT / "fixtures"
MODEL = "fixture-model"
# every cache record carries this timestamp, so the files regenerate byte for byte
TIMESTAMP = "1970-01-01T00:00:00Z"

D = TaskKind.DATA_RECOGNITION
P = TaskKind.PURPOSE_RECOGNITION
PA = TaskKind.PARTY_RECOGNITION
A = TaskKind.ACTION_RECOGNITION
DC = TaskKind.DATA_CLASSIFICATION
PC = TaskKind.PURPOSE_CLASSIFICATION
R = TaskKind.RELATION_RECOGNITION

# Planned model behaviour for the bundled policy, by (segment index, task).
# Segment 3's data response is deliberately ill-formed (prose + single
# quotes + trailing comma) to exercise response repair end to end.
PLANNED: dict[tuple[int, TaskKind], str] = {
    # 0: "Example.org Privacy Policy"
    (0, D): "[]", (0, P): '{"entities": []}', (0, PA): "none", (0, A): "[]",
    # 1: "1. Information We Collect"
    (1, D): '{"entities": []}', (1, P): "[]", (1, PA): "[]", (1, A): "none",
    # 2: "We collect your email address when you create an account."
    (2, D): '{"entities": [{"text": "your email address"}]}',
    (2, P): '{"entities": []}',
    (2, PA): '{"parties": [{"text": "We", "subtype": "first_party"}, {"text": "you", "subtype": "user"}]}',
    (2, A): '{"actions": [{"text": "collect", "subtype": "collection_use"}]}',
    (2, DC): '{"classifications": [{"entity_text": "your email address", "term": "EmailAddress"}]}',
    (2, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "PERFORMED_BY"}, '
             '{"id1": "a0", "id2": "e2", "type": "DATA_PROVIDED_BY"}, '
             '{"id1": "a0", "id2": "e9", "type": "HAS_DATA"}]}'),
    # 3: "We also collect your IP address and device information for security purposes."
    (3, D): ("Sure! Here are the data entities I found: "
             "{'data_entities': ['IP address', 'device information'],}"),
    (3, P): '{"entities": [{"text": "security purposes"}]}',
    (3, PA): '{"parties": [{"text": "We", "subtype": "first_party"}]}',
    (3, A): '{"actions": [{"text": "collect", "subtype": "collection_use"}]}',
    (3, DC): ('{"classifications": [{"entity_text": "IP address", "term": "IPAddress"}, '
              '{"entity_text": "device information", "term": "DeviceInformation"}]}'),
    (3, PC): '{"classifications": [{"entity_text": "security purposes", "term": "EnforceSecurity"}]}',
    (3, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e2", "type": "HAS_PURPOSE"}, '
             '{"id1": "a0", "id2": "e3", "type": "PERFORMED_BY"}]}'),
    # 4: "Our payment processor collects your credit card number to process payments."
    (4, D): '{"entities": [{"text": "your credit card number"}]}',
    (4, P): '{"entities": [{"text": "process payments"}]}',
    (4, PA): '{"parties": [{"text": "Our payment processor", "subtype": "third_party"}]}',
    (4, A): '{"actions": [{"text": "collects", "subtype": "collection_use"}]}',
    (4, DC): '{"classifications": [{"entity_text": "your credit card number", "term": "CreditCardNumber"}]}',
    (4, PC): '{"classifications": [{"entity_text": "process payments", "term": "PaymentManagement"}]}',
    (4, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "HAS_PURPOSE"}, '
             '{"id1": "a0", "id2": "e2", "type": "PERFORMED_BY"}]}'),
    # 5: "2. How We Use Your Information"
    (5, D): "no entities found", (5, P): "[]", (5, PA): '{"parties": []}', (5, A): "[]",
    # 6: "We use your email address to send newsletters and marketing communications."
    (6, D): '{"entities": [{"text": "your email address"}]}',
    (6, P): '{"entities": [{"text": "sending newsletters"}, {"text": "marketing communications"}]}',
    (6, PA): '{"parties": [{"text": "We", "subtype": "first_party"}]}',
    (6, A): '{"actions": [{"text": "use", "subtype": "collection_use"}]}',
    (6, DC): '{"classifications": [{"entity_text": "your email address", "term": "EmailAddress"}]}',
    (6, PC): ('{"classifications": [{"entity_text": "sending newsletters", "term": "DirectMarketing"}, '
              '{"entity_text": "marketing communications", "term": "Marketing"}]}'),
    (6, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "HAS_PURPOSE"}, '
             '{"id1": "a0", "id2": "e2", "type": "HAS_PURPOSE"}, '
             '{"id1": "a0", "id2": "e3", "type": "PERFORMED_BY"}]}'),
    # 7: "Your location data helps us personalise the service."
    (7, D): '{"entities": [{"text": "location data"}]}',
    (7, P): '{"entities": [{"text": "personalise the service"}]}',
    (7, PA): '{"parties": [{"text": "us", "subtype": "first_party"}]}',
    (7, A): '{"actions": [{"text": "personalise", "subtype": "collection_use"}]}',
    (7, DC): '{"classifications": [{"entity_text": "location data", "term": "Location"}]}',
    (7, PC): '{"classifications": [{"entity_text": "personalise the service", "term": "ServicePersonalisation"}]}',
    (7, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "HAS_PURPOSE"}, '
             '{"id1": "a0", "id2": "e2", "type": "PERFORMED_BY"}]}'),
    # 8: "We retain your information for as long as your account is active."
    (8, D): '{"entities": [{"text": "your information"}]}',
    (8, P): "none",
    (8, PA): '{"parties": [{"text": "We", "subtype": "first_party"}]}',
    (8, A): '{"actions": [{"text": "retain", "subtype": "storage_retention_deletion"}]}',
    (8, DC): '{"classifications": [{"entity_text": "your information", "term": "PersonalData"}]}',
    (8, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
             '{"id1": "a0", "id2": "e1", "type": "PERFORMED_BY"}]}'),
    # 9: "3. Sharing"
    (9, D): "[]", (9, P): "None", (9, PA): "[]", (9, A): '{"actions": []}',
    # 10: "We share your browsing history with advertising partners for targeted advertising."
    (10, D): '{"entities": [{"text": "your browsing history"}]}',
    (10, P): '{"entities": [{"text": "targeted advertising"}]}',
    (10, PA): ('{"parties": [{"text": "We", "subtype": "first_party"}, '
               '{"text": "advertising partners", "subtype": "third_party"}]}'),
    (10, A): '{"actions": [{"text": "share", "subtype": "third_party_sharing_disclosure"}]}',
    (10, DC): '{"classifications": [{"entity_text": "your browsing history", "term": "BrowserHistory"}]}',
    (10, PC): '{"classifications": [{"entity_text": "targeted advertising", "term": "TargetedAdvertising"}]}',
    (10, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
              '{"id1": "a0", "id2": "e1", "type": "HAS_PURPOSE"}, '
              '{"id1": "a0", "id2": "e2", "type": "PERFORMED_BY"}, '
              '{"id1": "a0", "id2": "e3", "type": "DATA_SHARED_WITH"}]}'),
    # 11: "We may disclose your personal information to law enforcement when required by law."
    (11, D): '{"entities": [{"text": "your personal information"}]}',
    (11, P): "[]",
    (11, PA): ('{"parties": [{"text": "We", "subtype": "first_party"}, '
               '{"text": "law enforcement", "subtype": "third_party"}]}'),
    (11, A): '{"actions": [{"text": "disclose", "subtype": "third_party_sharing_disclosure"}]}',
    (11, DC): '{"classifications": [{"entity_text": "your personal information", "term": "PersonalData"}]}',
    (11, R): ('{"relations": [{"id1": "a0", "id2": "e0", "type": "HAS_DATA"}, '
              '{"id1": "a0", "id2": "e1", "type": "PERFORMED_BY"}, '
              '{"id1": "a0", "id2": "e2", "type": "DATA_SHARED_WITH"}]}'),
    # 12: "4. Miscellaneous"
    (12, D): "[]", (12, P): "[]", (12, PA): "[]", (12, A): "[]",
    # 13: "This policy may change from time to time."
    (13, D): '{"entities": []}', (13, P): '{"entities": []}',
    (13, PA): '{"parties": []}', (13, A): '{"actions": []}',
    # 14: "Contact us at privacy@example.org with any questions."
    (14, D): "[]", (14, P): "N/A",
    (14, PA): '{"parties": [{"text": "us", "subtype": "first_party"}]}',
    (14, A): '{"actions": []}',
    (14, R): "no relations found",
}


def make_policy_cache() -> None:
    """Ask the planned answers through the pipeline, then write each prompt
    asked and its answer in segment order, then task order."""
    cache_path = FIXTURES / "replay_cache.jsonl"
    if cache_path.exists():
        cache_path.unlink()
    doc = load_policy(FIXTURES / "policy_example.org.txt", "example.org")
    index_of = {seg.text: seg.index for seg in doc.segments}
    asked = {}      # (segment index, task) -> prompt

    def transport(prompt, config):
        task, segment_text = read_prompt(prompt)
        key = (index_of[segment_text], task)
        if key not in PLANNED:
            raise AssertionError(f"no planned response for segment {key[0]} task {task.value}")
        asked[key] = prompt
        return PLANNED[key]

    taxonomy = load_taxonomy(default_snapshot_path())
    with tempfile.TemporaryDirectory() as scratch:      # the answers asked, with run timestamps
        config = BackendConfig(model_name=MODEL, cache_path=Path(scratch, "answers.jsonl"))
        result = extract_document(doc, Backend(config, transport=transport), taxonomy)
    cache = ResponseCache(cache_path)
    for seg in doc.segments:
        for task in TaskKind:
            if (seg.index, task) in asked:
                cache.put(cache_record(MODEL, task.value, asked[seg.index, task],
                                       PLANNED[seg.index, task], TIMESTAMP))
    practices = sum(
        1 for seg in result.segments for span in seg.spans
        if span.kind == "action" and not span.non_verbatim
    )
    print(f"replay_cache.jsonl: {len(cache)} responses, "
          f"{practices} verbatim actions")


GOLD_TEXT = """Acme Privacy Notice

We collect your email address for marketing purposes.
We share your location data with our partners.

1. Support

You can contact our support team at any time.
Our team answers within two business days.

2. Retention

We store your purchase history to manage your orders.
"""

def make_gold() -> None:
    gold_dir = FIXTURES / "gold"
    gold_dir.mkdir(exist_ok=True)
    (gold_dir / "acme.txt").write_text(GOLD_TEXT, encoding="utf-8")

    def span(surface: str, occurrence: int = 0) -> tuple[int, int]:
        pos = -1
        for _ in range(occurrence + 1):
            pos = GOLD_TEXT.index(surface, pos + 1)
        return pos, pos + len(surface)

    lines = []

    def t(tid, etype, surface, occurrence=0):
        a, b = span(surface, occurrence)
        lines.append(f"{tid}\t{etype} {a} {b}\t{surface}")

    t("T1", "data", "your email address")
    t("T2", "purpose", "marketing purposes")
    t("T3", "first-party", "We", 0)
    t("T4", "collection-use", "collect")
    t("T5", "data", "your location data")
    t("T6", "third-party", "our partners")
    t("T7", "first-party", "We", 1)
    t("T8", "third-party-sharing-disclosure", "share")
    t("T9", "data", "your purchase history")
    t("T10", "purpose", "manage your orders")
    t("T11", "first-party", "We", 2)
    t("T12", "storage-retention-deletion", "store")
    lines.append("E1\tcollection-use:T4 data:T1 purpose:T2 data-collector:T3")
    lines.append("E2\tthird-party-sharing-disclosure:T8 data:T5 data-receiver:T6 data-sharer:T7")
    lines.append("E3\tstorage-retention-deletion:T12 data:T9 purpose:T10 data-holder:T11")
    lines.append("R1\trelated Arg1:T1 Arg2:T5")
    lines.append("A1\tDPV T1 EmailAddress")
    lines.append("A2\tDPV T5 Location")
    lines.append("#1\tAnnotatorNotes T2\tdpv:DirectMarketing")
    lines.append("#2\tAnnotatorNotes T9\tpd:PurchasesAndSpendingHabit")
    lines.append("#3\tAnnotatorNotes T10\tCustomerOrderManagement")
    (gold_dir / "acme.ann").write_text("\n".join(lines) + "\n", encoding="utf-8")

    (gold_dir / "annotation.conf").write_text(
        "[entities]\n"
        "data\npurpose\nfirst-party\nthird-party\nuser\n"
        "collection-use\nthird-party-sharing-disclosure\n"
        "storage-retention-deletion\nsecurity-protection\n"
        "\n[relations]\nrelated\tArg1:<ENTITY>, Arg2:<ENTITY>\n"
        "\n[events]\n"
        "collection-use\tdata?:data, purpose?:purpose, data-collector?:<ENTITY>, data-provider?:<ENTITY>\n"
        "third-party-sharing-disclosure\tdata?:data, data-receiver?:<ENTITY>, data-sharer?:<ENTITY>\n"
        "storage-retention-deletion\tdata?:data, purpose?:purpose, data-holder?:<ENTITY>\n"
        "security-protection\tdata?:data, data-protector?:<ENTITY>\n"
        "\n[attributes]\nDPV\tArg:<ENTITY>, Value:<GLOB>\n",
        encoding="utf-8",
    )
    # sanity: the generated pair must parse and align
    [gold_doc] = load_gold_corpus(gold_dir)
    print(f"gold/acme.ann: {len(gold_doc.gold.entities)} entities, "
          f"{len(gold_doc.gold.events)} events")


def make_gold_caches() -> None:
    gold_dir = FIXTURES / "gold"
    [gold_doc] = load_gold_corpus(gold_dir)
    taxonomy = load_taxonomy(default_snapshot_path())

    for name, correct in (("replay_cache.jsonl", True), ("replay_cache_empty.jsonl", False)):
        path = gold_dir / name
        if path.exists():
            path.unlink()
        cache = ResponseCache(path)
        for task in TaskKind:
            for sample in segment_tasks(gold_doc, task, taxonomy):
                if not asks_model(task, sample):
                    continue
                prompt = build_prompt(task, sample.segment_text, sample.extras)
                response = expected_answer(task, sample if correct
                                           else replace(sample, gold_items=()))
                cache.put(cache_record(MODEL, task.value, prompt, response, TIMESTAMP))
        print(f"gold/{name}: {len(cache)} responses")


if __name__ == "__main__":
    make_policy_cache()
    make_gold()
    make_gold_caches()
