"""Acceptance suite: one test per release criterion.

Each test prints one PASS/FAIL line (run with `pytest -s` or read the
captured output).  Criteria marked data-dependent skip with the reason
when their inputs are absent.
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from ppanalyze.corpus import load_policy
from ppanalyze.eval.finetune import FinetuneSpec, select_finetune_data
from ppanalyze.eval.metrics import lcs_ratio, match_spans, prf1
from ppanalyze.extraction.backend import Backend, BackendConfig
from ppanalyze.extraction.pipeline import (
    EntitySpan,
    ExtractionResult,
    RelationTuple,
    SegmentExtraction,
    extract_document,
)
from ppanalyze.extraction.prompts import TaskKind
from ppanalyze.graph import (
    DATA_PRACTICE,
    HAS_DATA,
    HAS_PRACTICE,
    HAS_PURPOSE,
    HAS_SERVICE,
    PPA,
    PRIVACY_POLICY,
    BuildLog,
    build_graph,
)
from ppanalyze.policyconv import (
    ODRL_PERMISSION,
    ConversionProfile,
    to_odrl,
)
from ppanalyze.rdfio import RDF_TYPE, IRI, parse, serialize
from .conftest import FIXTURES
from .finetune_corpus import synthetic_gold_corpus
from .oracles import brute_force_lcs_ratio, optimal_matching_credit

PRACTICE_CLASSES = (DATA_PRACTICE, IRI(PPA + "DataCollectionUse"),
                    IRI(PPA + "ThirdPartySharingDisclosure"))

@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def random_string(rng: random.Random, alphabet: str, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def mutate(rng: random.Random, text: str, alphabet: str) -> str:
    if not text:
        return rng.choice(alphabet)
    i = rng.randrange(len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1:]                       # delete
    if op == 1:
        return text[:i] + rng.choice(alphabet) + text[i:]    # insert
    return text[:i] + rng.choice(alphabet) + text[i + 1:]    # substitute


def test_metric_oracle_equivalence():
    with criterion("metric oracle equivalence (greedy vs optimal; lcs vs brute force)"):
        started = time.monotonic()
        rng = random.Random(20240901)
        alphabet = "ab"

        equal = 0
        instances = 1000
        for _ in range(instances):
            gold = [random_string(rng, alphabet, 12) for _ in range(rng.randint(0, 6))]
            pred = []
            for _ in range(rng.randint(0, 6)):
                if gold and rng.random() < 0.5:
                    pred.append(mutate(rng, rng.choice(gold), alphabet))
                else:
                    pred.append(random_string(rng, alphabet, 12))
            greedy = match_spans(pred, gold).tp
            optimal = optimal_matching_credit(pred, gold)
            assert greedy <= optimal + 1e-9, (pred, gold)
            if math.isclose(greedy, optimal, abs_tol=1e-9):
                equal += 1
        assert equal >= 0.95 * instances, f"greedy == optimal in only {equal}/{instances}"

        rng = random.Random(20240902)
        pair_alphabet = "abcdef -."
        for _ in range(1000):
            a = random_string(rng, pair_alphabet, 40)
            b = (mutate(rng, a, pair_alphabet) if rng.random() < 0.5
                 else random_string(rng, pair_alphabet, 40))
            assert lcs_ratio(a, b) == brute_force_lcs_ratio(a, b), (a, b)

        elapsed = time.monotonic() - started
        assert elapsed < 60, f"oracle comparison took {elapsed:.1f}s (budget 60s)"


def test_f1_swap_invariance():
    with criterion("F1 swap-invariance over 10000 random count triples"):
        rng = random.Random(7)
        for _ in range(10000):
            tp = rng.random() * rng.randint(0, 40)
            fp = rng.randint(0, 40)
            fn = rng.randint(0, 40)
            _, _, conventional = prf1(tp, fp, fn)
            p_swapped = tp / (tp + fn) if tp + fn else 0.0
            r_swapped = tp / (tp + fp) if tp + fp else 0.0
            swapped = (2 * p_swapped * r_swapped / (p_swapped + r_swapped)
                       if p_swapped + r_swapped else 0.0)
            assert abs(conventional - swapped) < 1e-12, (tp, fp, fn)


def test_worked_relaxed_metric_cases():
    with criterion("worked relaxed-metric cases at threshold 0.9"):
        exact = match_spans(["email address"], ["email address"], threshold=0.9)
        assert (exact.tp, exact.fp, exact.fn) == (1.0, 0, 0)

        rejected = match_spans(["your email address"], ["email address"], threshold=0.9)
        assert math.isclose(lcs_ratio("your email address", "email address"), 13 / 18)
        assert (rejected.tp, rejected.fp, rejected.fn) == (0.0, 1, 1)

        credited = match_spans(["personal information we collect."],
                               ["personal information we collect"], threshold=0.9)
        assert math.isclose(lcs_ratio("personal information we collect.",
                                      "personal information we collect"), 31 / 32)
        assert math.isclose(credited.tp, 31 / 32)
        assert (credited.fp, credited.fn) == (0, 0)


def test_finetune_export_cardinality(taxonomy):
    with criterion("fine-tune export cardinality for 10-30-2-6, 20-20-4-4, 40-80-10-20"):
        corpus = synthetic_gold_corpus(n_nonempty=55, n_empty=110)
        expected = {"10-30-2-6": (40, 8), "20-20-4-4": (40, 8), "40-80-10-20": (120, 30)}
        for spec_string, (n_train, n_val) in expected.items():
            spec = FinetuneSpec.parse(spec_string, seed=17)
            train, val = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION, spec, taxonomy)
            assert (len(train), len(val)) == (n_train, n_val), spec_string

            train_again, val_again = select_finetune_data(
                corpus, TaskKind.DATA_RECOGNITION, spec, taxonomy)
            assert (train, val) == (train_again, val_again), "seed instability"

            users = lambda records: {r["messages"][1]["content"] for r in records}
            assert not users(train) & users(val), "train/validation overlap"


def test_end_to_end_replay_determinism(taxonomy):
    with criterion("end-to-end replay determinism + ill-formed response recovery"):
        doc = load_policy(FIXTURES / "policy_example.org.txt", "example.org")
        assert len(doc.segments) >= 12

        config = BackendConfig(model_name="fixture-model", cache_mode="replay",
                               cache_path=FIXTURES / "replay_cache.jsonl")
        policy_uri = "urn:pp-analyze:policy#example.org"

        results = []
        turtles = []
        for _ in range(2):
            result = extract_document(doc, Backend(config), taxonomy)
            graph = build_graph(result, "example.org", policy_uri, taxonomy.version)
            results.append(result)
            turtles.append(serialize(graph.triples, "turtle"))
        assert turtles[0] == turtles[1], "replay runs produced different Turtle bytes"

        # fixture coverage: collection-use, sharing, empty segments
        subtypes = {s.subtype for seg in results[0].segments for s in seg.actions}
        assert "collection_use" in subtypes
        assert "third_party_sharing_disclosure" in subtypes
        assert any(not seg.spans for seg in results[0].segments), "no empty segment"

        # the ill-formed cached response was recovered by repair, per the run log
        repaired = [
            record
            for record in map(json.loads, results[0].run_log_text(BuildLog()).splitlines())
            if record.get("repaired") and "structural_repair" in record["repair_stages"]
        ]
        assert repaired, "no structurally repaired response recorded in the run log"
        assert all(r["error"] is None for r in repaired)


def _random_extraction(rng: random.Random, taxonomy, segments: int) -> ExtractionResult:
    data_terms = [n.iri for n in taxonomy.nodes.values() if n.kind == "data"]
    purpose_terms = [n.iri for n in taxonomy.nodes.values() if n.kind == "purpose"]
    action_subtypes = ["collection_use", "third_party_sharing_disclosure",
                       "storage_retention_deletion", "security_protection"]
    out = []
    for index in range(segments):
        spans: list[EntitySpan] = []
        relations: list[RelationTuple] = []
        entity_counter = 0
        for a in range(rng.randint(0, 3)):
            spans.append(EntitySpan(f"a{a}", "action", f"verb{a}", index,
                                    subtype=rng.choice(action_subtypes)))
        n_actions = sum(1 for s in spans if s.kind == "action")
        for _ in range(rng.randint(0, 4)):
            grounded = rng.choice(data_terms) if rng.random() < 0.8 else None
            span = EntitySpan(f"e{entity_counter}", "data", f"datum{entity_counter}",
                              index, grounded_term=grounded)
            spans.append(span)
            if n_actions and rng.random() < 0.9:
                relations.append(RelationTuple(
                    f"a{rng.randrange(n_actions)}", span.local_id, "HAS_DATA"))
            entity_counter += 1
        for _ in range(rng.randint(0, 2)):
            span = EntitySpan(f"e{entity_counter}", "purpose", f"why{entity_counter}",
                              index, grounded_term=rng.choice(purpose_terms))
            spans.append(span)
            if n_actions:
                relations.append(RelationTuple(
                    f"a{rng.randrange(n_actions)}", span.local_id, "HAS_PURPOSE"))
            entity_counter += 1
        if n_actions and rng.random() < 0.5:
            span = EntitySpan(f"e{entity_counter}", "party", "somebody", index,
                              subtype=rng.choice(["first_party", "third_party", "user"]))
            spans.append(span)
            relations.append(RelationTuple(
                f"a{rng.randrange(n_actions)}", span.local_id,
                rng.choice(["PERFORMED_BY", "DATA_SHARED_WITH", "DATA_PROVIDED_BY"])))
        out.append(SegmentExtraction(index, f"segment text {index}",
                                     tuple(spans), tuple(relations)))
    return ExtractionResult("rand.example", "memory:", tuple(out))


def _assert_graph_invariants(graph, taxonomy) -> None:
    g = graph.triples
    rdf_type = IRI(RDF_TYPE)
    practices = set()
    for cls in PRACTICE_CLASSES:
        practices |= g.subjects_of_type(cls)
    policies = g.subjects_of_type(PRIVACY_POLICY)
    assert len(policies) == 1
    for practice in practices:
        segments = [o for (s, p, o) in g.triples
                    if s == practice and p.value.endswith("sourceSegment")]
        assert len(segments) == 1, "practice must carry exactly one segment literal"
        owners = [s for (s, p, o) in g.triples if p == HAS_PRACTICE and o == practice]
        assert len(owners) == 1, "practice must belong to exactly one policy"
    for policy in policies:
        services = [o for (s, p, o) in g.triples if s == policy and p == HAS_SERVICE]
        assert len(services) == 1, "policy must link to exactly one service"
    for (s, p, o) in g.triples:
        if p == HAS_DATA:
            assert o.value in taxonomy.nodes and taxonomy.nodes[o.value].kind == "data"
        elif p == HAS_PURPOSE:
            assert o.value in taxonomy.nodes and taxonomy.nodes[o.value].kind == "purpose"
    for fmt in ("turtle", "ntriples"):
        assert parse(serialize(g, fmt), fmt).triples == g.triples


def test_graph_invariant_suite(taxonomy):
    with criterion("graph invariant suite over fixture and generated graphs"):
        doc = load_policy(FIXTURES / "policy_example.org.txt", "example.org")
        config = BackendConfig(model_name="fixture-model", cache_mode="replay",
                               cache_path=FIXTURES / "replay_cache.jsonl")
        result = extract_document(doc, Backend(config), taxonomy)
        fixture_graph = build_graph(result, "example.org",
                                    "urn:pp-analyze:policy#example.org", taxonomy.version)
        _assert_graph_invariants(fixture_graph, taxonomy)

        rng = random.Random(123)
        for i in range(25):
            extraction = _random_extraction(rng, taxonomy, segments=rng.randint(0, 4))
            graph = build_graph(extraction, "rand.example",
                                f"urn:pp-analyze:policy#rand{i}", taxonomy.version)
            _assert_graph_invariants(graph, taxonomy)


def test_conversion_conservation(taxonomy):
    with criterion("ODRL conversion conservation over 100 random graphs"):
        rng = random.Random(321)
        profile = ConversionProfile.default()
        mapped = set(profile.action_map)
        for i in range(100):
            extraction = _random_extraction(rng, taxonomy, segments=rng.randint(1, 4))
            graph = build_graph(extraction, "rand.example",
                                f"urn:pp-analyze:policy#conv{i}", taxonomy.version)
            g = graph.triples

            # independent expectation: count hasData triples on practices
            # whose most specific class is in the profile's action map
            expected = 0
            typed: dict = {}
            for cls in PRACTICE_CLASSES:
                for node in g.subjects_of_type(cls):
                    typed.setdefault(node, set()).add(cls.value.split("#")[-1])
            for node, classes in typed.items():
                specific = ("DataCollectionUse" if "DataCollectionUse" in classes
                            else "ThirdPartySharingDisclosure"
                            if "ThirdPartySharingDisclosure" in classes else "DataPractice")
                if specific in mapped:
                    expected += sum(1 for (s, p, o) in g.triples
                                    if s == node and p == HAS_DATA)

            out, report = to_odrl(g, profile)
            permissions = sum(1 for (s, p, o) in out.triples if p == ODRL_PERMISSION)
            assert permissions == expected == report.permissions

            source_iris = {t.value for (s, p, o) in g.triples
                           for t in (s, o) if isinstance(t, IRI)}
            for (s, p, o) in out.triples:
                if p.value.endswith(("target", "rightOperand")):
                    assert o.value in source_iris, f"invented IRI {o.value}"


@pytest.mark.skipif(
    "PPA_TOP100_GRAPH" not in os.environ,
    reason="paper-scale statistics are data-dependent: set PPA_TOP100_GRAPH to the "
           "released top-100 practice graph file to enable",
)
def test_paper_scale_statistics():
    with criterion("published corpus statistics on the released top-100 graph"):
        from ppanalyze.graph import stats
        path = Path(os.environ["PPA_TOP100_GRAPH"])
        st = stats([parse(path.read_bytes())])
        assert st.triple_count == 84329
        assert st.practice_count == 11800
        assert st.practice_type_counts.get("DataCollectionUse") == 6488
        assert st.practice_type_counts.get("ThirdPartySharingDisclosure") == 1324
        assert st.distinct_data_classes == 128
        assert st.distinct_purpose_classes == 78
