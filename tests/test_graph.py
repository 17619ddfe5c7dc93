from __future__ import annotations

import os
from pathlib import Path

import pytest

from ppanalyze.extraction.pipeline import (
    EntitySpan,
    ExtractionResult,
    RelationTuple,
    SegmentExtraction,
)
from ppanalyze.graph import (
    DATA_COLLECTION_USE,
    DATA_PRACTICE,
    PPA,
    PRIVACY_POLICY,
    SERVICE_CLASS,
    THIRD_PARTY,
    THIRD_PARTY_SHARING,
    build_graph,
    check_invariants,
    stats,
)
from ppanalyze.rdfio import RDF_TYPE, BNode, Graph, IRI, Literal, parse, serialize

POLICY = "urn:pp-analyze:policy#test.example"
EMAIL = "https://w3id.org/dpv/pd#EmailAddress"


def segment_extraction(spans, relations, index=0, text="We collect your email address."):
    return SegmentExtraction(segment_index=index, segment_text=text,
                             spans=tuple(spans), relations=tuple(relations))


def simple_result(**kwargs) -> ExtractionResult:
    spans = [
        EntitySpan("e0", "data", "email address", 0, grounded_term=EMAIL),
        EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
    ]
    relations = [RelationTuple("a0", "e0", "HAS_DATA")]
    return ExtractionResult("test.example", "memory:", (
        segment_extraction(spans, relations, **kwargs),
    ))


class TestBuildGraph:
    def test_collection_use_practice(self, taxonomy):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        practices = g.triples.subjects_of_type(DATA_COLLECTION_USE)
        assert len(practices) == 1
        (practice,) = practices
        assert g.triples.objects(practice, IRI(PPA + "hasData")) == [IRI(EMAIL)]
        assert len(g.triples.objects(practice, IRI(PPA + "sourceSegment"))) == 1
        assert len(g.triples.subjects_of_type(PRIVACY_POLICY)) == 1
        assert len(g.triples.subjects_of_type(SERVICE_CLASS)) == 1
        assert check_invariants(g.triples, taxonomy) == []

    def test_zero_actions_yields_policy_and_service_only(self, taxonomy):
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction([], []),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        assert len(g.triples.subjects_of_type(DATA_COLLECTION_USE)) == 0
        assert len(g.triples.subjects_of_type(DATA_PRACTICE)) == 0
        assert len(g.triples.subjects_of_type(PRIVACY_POLICY)) == 1
        assert len(g.triples.subjects_of_type(SERVICE_CLASS)) == 1
        assert stats([g.triples]).practice_count == 0

    def test_sharing_practice_with_recipient(self, taxonomy):
        spans = [
            EntitySpan("e0", "party", "partners", 0, subtype="third_party"),
            EntitySpan("a0", "action", "share", 0,
                       subtype="third_party_sharing_disclosure"),
        ]
        relations = [RelationTuple("a0", "e0", "DATA_SHARED_WITH")]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations, text="We share data with partners."),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(THIRD_PARTY_SHARING)
        (recipient,) = g.triples.objects(practice, IRI(PPA + "dataSharedWith"))
        assert isinstance(recipient, BNode)
        assert (recipient, IRI(RDF_TYPE), THIRD_PARTY) in g.triples

    def test_other_subtypes_become_plain_practice_with_annotation(self, taxonomy):
        spans = [EntitySpan("a0", "action", "retain", 0,
                            subtype="storage_retention_deletion")]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, [], text="We retain data."),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(DATA_PRACTICE)
        assert g.triples.objects(practice, IRI(PPA + "practiceSubtype")) == [
            Literal("storage_retention_deletion")
        ]

    def test_ungrounded_data_skipped_and_counted(self, taxonomy):
        spans = [
            EntitySpan("e0", "data", "mystery data", 0),   # no grounded_term
            EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
        ]
        relations = [RelationTuple("a0", "e0", "HAS_DATA")]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(DATA_COLLECTION_USE)
        assert g.triples.objects(practice, IRI(PPA + "hasData")) == []
        assert g.build_log.skipped_ungrounded == 1

    def test_links_to_a_span_of_another_kind_skipped_and_counted(self, taxonomy):
        spans = [
            EntitySpan("e0", "data", "email address", 0, grounded_term=EMAIL),
            EntitySpan("e1", "party", "We", 0, subtype="first_party"),
            EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
        ]
        relations = [RelationTuple("a0", "e0", "HAS_PURPOSE"),   # a data span
                     RelationTuple("a0", "e1", "HAS_DATA")]      # a party: ungrounded
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(DATA_COLLECTION_USE)
        assert g.triples.objects(practice, IRI(PPA + "hasPurpose")) == []
        assert g.triples.objects(practice, IRI(PPA + "hasData")) == []
        assert (g.build_log.dropped_tuples, g.build_log.skipped_ungrounded) == (1, 1)
        assert g.build_log.records == [
            "segment 0: HAS_PURPOSE link to e0 skipped (data span 'email address')",
            "segment 0: HAS_DATA link to e1 skipped (ungrounded 'We')",
        ]
        assert check_invariants(g.triples, taxonomy) == []

    def test_non_verbatim_action_skipped_and_accounted(self, taxonomy):
        spans = [
            EntitySpan("a0", "action", "collect", 0, subtype="collection_use",
                       non_verbatim=True),
            EntitySpan("a1", "action", "collect", 0, subtype="collection_use"),
        ]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, []),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        verbatim_actions = 2 - g.build_log.skipped_actions
        assert stats([g.triples]).practice_count == verbatim_actions == 1

    def test_taxonomy_version_attached_to_policy(self, taxonomy):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        assert (IRI(POLICY), IRI(PPA + "taxonomyVersion"),
                Literal(taxonomy.version)) in g.triples


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["turtle", "ntriples"])
    def test_round_trip(self, taxonomy, fmt):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        assert parse(serialize(g.triples, fmt), fmt).triples == g.triples.triples

    def test_two_builds_are_byte_identical(self, taxonomy):
        a = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        b = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        assert serialize(a.triples) == serialize(b.triples)
        assert serialize(a.triples, "ntriples") == serialize(b.triples, "ntriples")

    def test_empty_graph_serializes_to_prefixes_only(self):
        from ppanalyze.rdfio import Graph
        from ppanalyze.graph import bind_standard_prefixes
        g = Graph()
        bind_standard_prefixes(g)
        text = serialize(g, "turtle").decode()
        assert all(line.startswith("@prefix") or not line for line in text.split("\n"))
        assert serialize(g, "ntriples") == b""


class TestStats:
    def test_single_graph_counts(self, taxonomy):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        st = stats([g.triples])
        assert st.practice_count == 1
        assert st.practice_type_counts == {"DataCollectionUse": 1}
        assert st.data_class_mentions == {EMAIL: 1}
        assert st.purpose_class_mentions == {}

    def test_most_specific_practice_type_wins(self):
        from ppanalyze.graph import practice_types
        from ppanalyze.rdfio import Graph
        g = Graph()
        a, b, c = (IRI(f"urn:pp-analyze:node#{n}") for n in "abc")
        for node, classes in ((a, (DATA_PRACTICE, THIRD_PARTY_SHARING, DATA_COLLECTION_USE)),
                              (b, (DATA_PRACTICE, THIRD_PARTY_SHARING)), (c, (DATA_PRACTICE,))):
            for cls in classes:
                g.add(node, IRI(RDF_TYPE), cls)
        g.add(IRI(POLICY), IRI(RDF_TYPE), PRIVACY_POLICY)
        assert practice_types(g) == {a: "DataCollectionUse",
                                     b: "ThirdPartySharingDisclosure", c: "DataPractice"}
        assert stats([g]).practice_type_counts == {
            "DataCollectionUse": 1, "ThirdPartySharingDisclosure": 1, "DataPractice": 1}

    def test_empty_input(self):
        st = stats([])
        assert st.triple_count == 0
        assert st.practice_count == 0
        assert st.top_classes("data") == []

    def test_mention_totals_equal_class_sums(self, taxonomy, fixture_policy_path,
                                             policy_replay_backend):
        from ppanalyze.corpus import load_policy
        from ppanalyze.extraction import extract_document
        doc = load_policy(fixture_policy_path, "example.org")
        result = extract_document(doc, policy_replay_backend, taxonomy)
        g = build_graph(result, "example.org", POLICY, taxonomy.version)
        st = stats([g.triples])
        assert st.data_mentions == sum(st.data_class_mentions.values())
        assert sum(st.practice_type_counts.values()) == st.practice_count
        assert st.top_classes("data", 3) == sorted(
            st.data_class_mentions.items(), key=lambda kv: (-kv[1], kv[0])
        )[:3]

    def test_practice_count_equals_actions_minus_skips(self, taxonomy, fixture_policy_path,
                                                       policy_replay_backend):
        from ppanalyze.corpus import load_policy
        from ppanalyze.extraction import extract_document
        doc = load_policy(fixture_policy_path, "example.org")
        result = extract_document(doc, policy_replay_backend, taxonomy)
        g = build_graph(result, "example.org", POLICY, taxonomy.version)
        action_spans = sum(
            1 for seg in result.segments for s in seg.spans if s.kind == "action"
        )
        assert stats([g.triples]).practice_count == action_spans - g.build_log.skipped_actions

    @pytest.mark.skipif(
        "PPA_TOP100_GRAPH" not in os.environ,
        reason="set PPA_TOP100_GRAPH to the released top-100 practice graph to check "
               "published corpus statistics (84329 triples, 11800 practices, ...)",
    )
    def test_released_corpus_statistics(self):
        path = Path(os.environ["PPA_TOP100_GRAPH"])
        st = stats([parse(path.read_bytes())])
        assert st.triple_count == 84329
        assert st.practice_count == 11800
        assert st.practice_type_counts.get("DataCollectionUse") == 6488
        assert st.practice_type_counts.get("ThirdPartySharingDisclosure") == 1324
        assert st.distinct_data_classes == 128
        assert st.distinct_purpose_classes == 78


class TestInvariantOrder:
    def test_taxonomy_problems_in_term_order(self, taxonomy):
        g = Graph()
        data, purpose = IRI(PPA + "hasData"), IRI(PPA + "hasPurpose")
        marketing = IRI("https://w3id.org/dpv#Marketing")
        links = [
            (IRI("urn:x:3"), data, IRI("urn:unknown:b")),
            (IRI("urn:x:1"), purpose, IRI(EMAIL)),
            (IRI("urn:x:2"), data, Literal("email")),
            (IRI("urn:x:1"), data, marketing),
            (IRI("urn:x:3"), data, IRI("urn:unknown:a")),
            (BNode("x0"), purpose, IRI("urn:unknown:c")),
        ]
        for link in links:
            g.add(*link)
        assert check_invariants(g, taxonomy) == [
            f"<urn:x:1>: <{marketing.value}> is not a data term",
            "<urn:x:2>: data object 'email' not in taxonomy",
            "<urn:x:3>: data object <urn:unknown:a> not in taxonomy",
            "<urn:x:3>: data object <urn:unknown:b> not in taxonomy",
            f"<urn:x:1>: <{EMAIL}> is not a purpose term",
            "_:x0: purpose object <urn:unknown:c> not in taxonomy",
        ]
