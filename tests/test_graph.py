from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ppanalyze.extraction.pipeline import (
    EntitySpan,
    ExtractionResult,
    RelationTuple,
    SegmentExtraction,
)
from ppanalyze.graph import (
    DATA_PRACTICE,
    HAS_DATA,
    HAS_PRACTICE,
    HAS_PURPOSE,
    HAS_SERVICE,
    PPA,
    PRACTICE_SUBTYPE,
    PRIVACY_POLICY,
    SERVICE_CLASS,
    SOURCE_SEGMENT,
    build_graph,
    check_invariants,
    policy_iri,
    policy_practices,
    service_iri,
    stats,
)
from ppanalyze.rdfio import RDF_TYPE, BNode, Graph, IRI, Literal, parse, serialize

from .oracles import reference_check_invariants

POLICY = "urn:pp-analyze:policy#test.example"
DATA_COLLECTION_USE = IRI(PPA + "DataCollectionUse")
THIRD_PARTY_SHARING = IRI(PPA + "ThirdPartySharingDisclosure")
THIRD_PARTY = IRI(PPA + "ThirdParty")
PERFORMED_BY = IRI(PPA + "performedBy")
DATA_SHARED_WITH = IRI(PPA + "dataSharedWith")
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
        # the kind is checked before the grounding: a span of the wrong
        # kind is a dropped tuple, grounded or not
        spans = [
            EntitySpan("e0", "data", "email address", 0, grounded_term=EMAIL),
            EntitySpan("e1", "party", "We", 0, subtype="first_party"),
            EntitySpan("e2", "purpose", "ads", 0),                 # no grounded_term
            EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
            EntitySpan("a1", "action", "use", 0, subtype="security_protection"),
        ]
        relations = [RelationTuple("a0", "e0", "HAS_PURPOSE"),   # a data span
                     RelationTuple("a0", "e1", "HAS_DATA"),      # a party span
                     RelationTuple("a0", "a1", "HAS_PURPOSE"),   # an action span
                     RelationTuple("a0", "e2", "HAS_DATA")]      # an ungrounded purpose span
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(DATA_COLLECTION_USE)
        assert g.triples.objects(practice, IRI(PPA + "hasPurpose")) == []
        assert g.triples.objects(practice, IRI(PPA + "hasData")) == []
        assert (g.build_log.dropped_tuples, g.build_log.skipped_ungrounded) == (4, 0)
        assert g.build_log.records == [
            "segment 0: HAS_PURPOSE link to e0 skipped (data span 'email address')",
            "segment 0: HAS_DATA link to e1 skipped (party span 'We')",
            "segment 0: HAS_PURPOSE link to a1 skipped (action span 'use')",
            "segment 0: HAS_DATA link to e2 skipped (purpose span 'ads')",
        ]
        assert check_invariants(g.triples, taxonomy) == []

    def test_relations_the_graph_cannot_hold_are_dropped_and_counted(self, taxonomy):
        spans = [
            EntitySpan("e0", "data", "email address", 0, grounded_term=EMAIL),
            EntitySpan("e1", "purpose", "marketing", 0,
                       grounded_term="https://w3id.org/dpv#Marketing"),
            EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
        ]
        relations = [RelationTuple("e0", "e1", "HAS_PURPOSE"),    # no action subject
                     RelationTuple("a0", "e0", "PERFORMED_BY"),   # a party role, a data span
                     RelationTuple("a0", "e0", "HAS_DATA")]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(DATA_COLLECTION_USE)
        assert g.triples.objects(practice, IRI(PPA + "hasData")) == [IRI(EMAIL)]
        assert g.triples.objects(practice, IRI(PPA + "hasPurpose")) == []
        assert g.triples.objects(practice, IRI(PPA + "performedBy")) == []
        assert g.build_log.dropped_tuples == 2
        assert g.build_log.records == [
            "segment 0: PERFORMED_BY link to e0 skipped (data span 'email address')",
            "segment 0: tuple (e0, e1, HAS_PURPOSE) dropped (subject is not an action)",
        ]
        assert check_invariants(g.triples, taxonomy) == []

    def test_links_to_a_party_without_a_usable_subtype_skipped_and_counted(self, taxonomy):
        spans = [
            EntitySpan("e0", "party", "them", 0),                       # subtype None
            EntitySpan("e1", "party", "vendors", 0, subtype="vendor"),
            EntitySpan("a0", "action", "share", 0,
                       subtype="third_party_sharing_disclosure"),
        ]
        relations = [RelationTuple("a0", "e0", "DATA_SHARED_WITH"),
                     RelationTuple("a0", "e1", "DATA_SHARED_WITH")]
        result = ExtractionResult("test.example", "memory:", (
            segment_extraction(spans, relations, text="We share data with them and vendors."),
        ))
        g = build_graph(result, "test.example", POLICY, taxonomy.version)
        (practice,) = g.triples.subjects_of_type(THIRD_PARTY_SHARING)
        assert g.triples.objects(practice, IRI(PPA + "dataSharedWith")) == []
        assert (g.build_log.skipped_ungrounded, g.build_log.dropped_tuples) == (2, 0)
        assert g.build_log.records == [
            "segment 0: party e0 has no usable subtype (None)",
            "segment 0: party e1 has no usable subtype ('vendor')",
        ]

    def test_policy_and_service_iris_quote_the_service_id(self):
        assert policy_iri("a b/c") == IRI("urn:pp-analyze:policy#a%20b%2Fc")
        assert service_iri("a b/c") == IRI("urn:pp-analyze:service#a%20b%2Fc")

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


class TestPolicyPractices:
    def test_hand_built_graph(self):
        rdf_type = IRI(RDF_TYPE)
        g = Graph()
        policy_b, policy_a = IRI(POLICY + "-b"), IRI(POLICY + "-a")
        for policy in (policy_b, policy_a):
            g.add(policy, rdf_type, PRIVACY_POLICY)
        retained, plain, shared, untyped, collected = (
            IRI("urn:pp-analyze:node#" + name) for name in "dcbae")
        g.add(retained, rdf_type, DATA_PRACTICE)
        g.add(retained, PRACTICE_SUBTYPE, Literal("storage_retention_deletion"))
        g.add(retained, HAS_DATA, IRI(EMAIL))
        g.add(retained, HAS_DATA, Literal("email"))
        g.add(retained, HAS_PURPOSE, Literal("marketing"))
        g.add(plain, rdf_type, DATA_PRACTICE)
        g.add(shared, rdf_type, DATA_PRACTICE)
        g.add(shared, rdf_type, THIRD_PARTY_SHARING)
        g.add(shared, PRACTICE_SUBTYPE, Literal("not read: the class is more specific"))
        g.add(shared, PERFORMED_BY, BNode("we"))
        g.add(shared, DATA_SHARED_WITH, BNode("partner-2"))
        g.add(shared, DATA_SHARED_WITH, BNode("partner-1"))
        for practice in (retained, plain, shared, untyped):
            g.add(policy_a, HAS_PRACTICE, practice)
        g.add(policy_b, HAS_PRACTICE, collected)
        g.add(collected, rdf_type, DATA_COLLECTION_USE)

        got = [(policy, [(p.node, p.class_name, p.type_key, p.data, p.purposes, p.parties)
                         for p in practices])
               for policy, practices in policy_practices(g)]
        no_parties = {"PERFORMED_BY": (), "DATA_PROVIDED_BY": (), "DATA_SHARED_WITH": ()}
        assert got == [
            (policy_a, [
                (shared, "ThirdPartySharingDisclosure", "ThirdPartySharingDisclosure", (), (),
                 {**no_parties, "PERFORMED_BY": (BNode("we"),),
                  "DATA_SHARED_WITH": (BNode("partner-1"), BNode("partner-2"))}),
                (plain, "DataPractice", "DataPractice", (), (), no_parties),
                (retained, "DataPractice", "storage_retention_deletion", (IRI(EMAIL),), (),
                 no_parties),
            ]),
            (policy_b, [(collected, "DataCollectionUse", "DataCollectionUse", (), (),
                         no_parties)]),
        ]


class TestStats:
    def test_single_graph_counts(self, taxonomy):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version)
        st = stats([g.triples])
        assert st.practice_count == 1
        assert st.practice_type_counts == {"DataCollectionUse": 1}
        assert st.data_class_mentions == {EMAIL: 1}
        assert st.purpose_class_mentions == {}

    def test_most_specific_practice_type_wins(self):
        # the three readers agree on each node's class: policy_practices
        # names it, stats counts it, check_invariants checks it as a practice
        g = Graph()
        a, b, c = (IRI(f"urn:pp-analyze:node#{n}") for n in "abc")
        for node, classes in ((a, (DATA_PRACTICE, THIRD_PARTY_SHARING, DATA_COLLECTION_USE)),
                              (b, (DATA_PRACTICE, THIRD_PARTY_SHARING)), (c, (DATA_PRACTICE,))):
            for cls in classes:
                g.add(node, IRI(RDF_TYPE), cls)
            g.add(IRI(POLICY), HAS_PRACTICE, node)
        g.add(IRI(POLICY), IRI(RDF_TYPE), PRIVACY_POLICY)
        g.add(IRI(POLICY), HAS_SERVICE, service_iri("test.example"))
        g.add(service_iri("test.example"), IRI(RDF_TYPE), SERVICE_CLASS)
        classes = {a: "DataCollectionUse", b: "ThirdPartySharingDisclosure", c: "DataPractice"}
        ((_, practices),) = policy_practices(g)
        assert {p.node: p.class_name for p in practices} == classes
        assert stats([g]).practice_type_counts == {
            "DataCollectionUse": 1, "ThirdPartySharingDisclosure": 1, "DataPractice": 1}
        # no node has a source segment: exactly the three practices are flagged
        assert check_invariants(g) == [
            f"{node!r}: 0 source segment literals (want 1)" for node in (a, b, c)]

    def test_stats_builds_no_subject_index(self, monkeypatch, taxonomy):
        g = build_graph(simple_result(), "test.example", POLICY, taxonomy.version).triples

        def no_index(self):
            raise AssertionError("stats built the subject index")
        monkeypatch.setattr(Graph, "by_subject", no_index)
        assert stats([g]).practice_type_counts == {"DataCollectionUse": 1}

    def test_empty_input(self):
        st = stats([])
        assert st.triple_count == 0
        assert st.practice_count == 0
        assert st.top_classes("data") == []

    def test_mention_totals_equal_class_sums(self, taxonomy, fixture_policy_path,
                                             policy_replay_backend):
        from ppanalyze.corpus import load_policy
        from ppanalyze.extraction.pipeline import extract_document
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
        from ppanalyze.extraction.pipeline import extract_document
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


_POLICIES = [IRI("urn:pp-analyze:policy#a"), IRI("urn:pp-analyze:policy#b"), BNode("policy")]
_PRACTICES = [IRI("urn:pp-analyze:node#p0"), IRI("urn:pp-analyze:node#p1"), BNode("p2")]
_SERVICES = [IRI("urn:pp-analyze:service#s0"), IRI("urn:pp-analyze:service#s1")]
# in the taxonomy as data, in it as purpose, outside it, and not an IRI
_LINK_OBJECTS = [IRI(EMAIL), IRI("https://w3id.org/dpv#Marketing"), IRI("urn:unknown:x"),
                 Literal("email")]


def _up_to_two(items):
    return hst.lists(hst.sampled_from(items), max_size=2, unique=True)


@hst.composite
def practice_graphs(draw) -> Graph:
    """Small graphs of policies with 0-2 services and practices with 0-2
    classes, owning policies, source segments and data or purpose links."""
    g = Graph()
    for policy in _POLICIES:
        if draw(hst.booleans()):
            g.add(policy, IRI(RDF_TYPE), PRIVACY_POLICY)
        for service in draw(_up_to_two(_SERVICES)):
            g.add(policy, HAS_SERVICE, service)
    classes = [DATA_PRACTICE, THIRD_PARTY_SHARING, DATA_COLLECTION_USE, SERVICE_CLASS]
    for practice in _PRACTICES:
        for cls in draw(_up_to_two(classes)):
            g.add(practice, IRI(RDF_TYPE), cls)
        for owner in draw(_up_to_two(_POLICIES)):
            g.add(owner, HAS_PRACTICE, practice)
        for text in draw(_up_to_two(["We collect it.", "We share it."])):
            g.add(practice, SOURCE_SEGMENT, Literal(text))
        for predicate in (HAS_DATA, HAS_PURPOSE):
            for obj in draw(_up_to_two(_LINK_OBJECTS)):
                g.add(practice, predicate, obj)
    return g


@given(g=practice_graphs(), with_taxonomy=hst.booleans())
@settings(max_examples=300, deadline=None)
def test_invariant_problems_equal_a_scan_of_the_triples(taxonomy, g, with_taxonomy):
    taxonomy = taxonomy if with_taxonomy else None
    assert check_invariants(g, taxonomy) == reference_check_invariants(g, taxonomy)
