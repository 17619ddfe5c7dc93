from __future__ import annotations

import json

import pytest

from ppanalyze import Error
from ppanalyze.extraction.pipeline import (
    EntitySpan,
    ExtractionResult,
    RelationTuple,
    SegmentExtraction,
)
from ppanalyze.graph import (
    HAS_DATA,
    HAS_PRACTICE,
    HAS_PURPOSE,
    LABEL,
    build_graph,
    policy_practices,
)
from ppanalyze.policyconv import (
    ODRL,
    ODRL_ACTION,
    ODRL_CONSTRAINT,
    ODRL_PERMISSION,
    ODRL_RIGHT_OPERAND,
    ODRL_SET,
    ODRL_TARGET,
    ConversionProfile,
    convert,
    to_odrl,
    to_psdtou,
)
from ppanalyze.rdfio import RDF_TYPE, IRI, BNode

POLICY = "urn:pp-analyze:policy#test.example"
EMAIL = "https://w3id.org/dpv/pd#EmailAddress"
LOCATION = "https://w3id.org/dpv/pd#Location"
MARKETING = "https://w3id.org/dpv#Marketing"


def result_with(spans_and_relations):
    segments = []
    for index, (spans, relations) in enumerate(spans_and_relations):
        segments.append(SegmentExtraction(
            segment_index=index, segment_text=f"segment {index}",
            spans=tuple(spans), relations=tuple(relations),
        ))
    return ExtractionResult("test.example", "memory:", tuple(segments))


def single_practice_graph(data=(EMAIL,), purposes=(MARKETING,), subtype="collection_use"):
    spans = [EntitySpan("a0", "action", "collect", 0, subtype=subtype)]
    relations = []
    for i, term in enumerate(data):
        spans.append(EntitySpan(f"e{i}", "data", f"data {i}", 0, grounded_term=term))
        relations.append(RelationTuple("a0", f"e{i}", "HAS_DATA"))
    offset = len(data)
    for i, term in enumerate(purposes):
        spans.append(EntitySpan(f"e{offset + i}", "purpose", f"purpose {i}", 0,
                                grounded_term=term))
        relations.append(RelationTuple("a0", f"e{offset + i}", "HAS_PURPOSE"))
    return build_graph(result_with([(spans, relations)]), "test.example", POLICY, "v").triples


def party_roles_graph(subtype):
    """One practice with one data link and a party in each party role."""
    spans = [EntitySpan("a0", "action", "send", 0, subtype=subtype),
             EntitySpan("e0", "data", "email", 0, grounded_term=EMAIL),
             EntitySpan("e1", "party", "we", 0, subtype="first_party"),
             EntitySpan("e2", "party", "you", 0, subtype="user"),
             EntitySpan("e3", "party", "partners", 0, subtype="third_party")]
    relations = [RelationTuple("a0", "e0", "HAS_DATA"),
                 RelationTuple("a0", "e1", "PERFORMED_BY"),
                 RelationTuple("a0", "e2", "DATA_PROVIDED_BY"),
                 RelationTuple("a0", "e3", "DATA_SHARED_WITH")]
    return build_graph(result_with([(spans, relations)]), "test.example", POLICY, "v").triples


class TestOdrl:
    def test_single_practice_single_permission(self):
        g = single_practice_graph()
        out, report = to_odrl(g)
        perms = [o for (s, p, o) in out.triples if p == ODRL_PERMISSION]
        assert len(perms) == 1 == report.permissions
        (perm,) = perms
        assert out.objects(perm, ODRL_ACTION) == [IRI(ODRL + "use")]
        assert out.objects(perm, ODRL_TARGET) == [IRI(EMAIL)]
        (constraint,) = out.objects(perm, ODRL_CONSTRAINT)
        assert out.objects(constraint, ODRL_RIGHT_OPERAND) == [IRI(MARKETING)]

    def test_empty_graph_zero_rules(self):
        g = build_graph(result_with([([], [])]), "test.example", POLICY, "v").triples
        out, report = to_odrl(g)
        assert report.permissions == 0
        assert not out.triples

    def test_cartesian_expansion_two_data_one_purpose(self):
        # DERIVED oracle: one permission per data target, each carrying
        # the practice's purpose constraint -> 2 permissions here
        g = single_practice_graph(data=(EMAIL, LOCATION))
        out, report = to_odrl(g)
        assert report.permissions == 2
        perms = [o for (s, p, o) in out.triples if p == ODRL_PERMISSION]
        targets = {out.objects(perm, ODRL_TARGET)[0].value for perm in perms}
        assert targets == {EMAIL, LOCATION}
        for perm in perms:
            (constraint,) = out.objects(perm, ODRL_CONSTRAINT)
            assert out.objects(constraint, ODRL_RIGHT_OPERAND) == [IRI(MARKETING)]

    def test_sharing_uses_share_action(self):
        g = single_practice_graph(subtype="third_party_sharing_disclosure")
        out, _ = to_odrl(g)
        actions = {o.value for (s, p, o) in out.triples if p == ODRL_ACTION}
        assert actions == {ODRL + "share"}

    def test_unmapped_type_reported_not_fatal(self):
        g = single_practice_graph(subtype="storage_retention_deletion")
        out, report = to_odrl(g)
        assert report.permissions == 0
        assert report.unmapped_types == ["storage_retention_deletion"]
        assert not out.subjects_of_type(ODRL_SET)

    def test_practice_without_data_links_skipped(self):
        g = single_practice_graph(data=())
        out, report = to_odrl(g)
        assert report.permissions == 0
        assert any("no data links" in s for s in report.skipped_practices)
        assert not out.subjects_of_type(ODRL_SET)

    @pytest.mark.parametrize("subtype, recipients", [
        ("collection_use", {}),
        ("third_party_sharing_disclosure", {"urn:pp-analyze:core#recipient": "partners"}),
    ])
    def test_each_mapped_role_names_its_party(self, subtype, recipients):
        # the performer and provider roles go on every permission, the
        # recipient role only on a sharing practice's
        out, _ = to_odrl(party_roles_graph(subtype))
        (perm,) = [o for (s, p, o) in out.triples if p == ODRL_PERMISSION]
        parties = {p.value: out.objects(o, LABEL)[0].lexical
                   for p, o in out.predicate_objects(perm) if isinstance(o, BNode)}
        assert parties == {ODRL + "assignee": "we",
                           "urn:pp-analyze:core#dataProvider": "you", **recipients}

    def test_role_map_keys_outside_the_party_roles_add_nothing(self):
        # a key that is no party role adds no statement, and a party role
        # the profile leaves out is left off
        default = ConversionProfile.default()
        profile = ConversionProfile(default.action_map, {
            "HAS_DATA": "urn:x:data", "PERFORMED_BY": "urn:x:performer",
            "DATA_SHARED_WITH": "urn:x:recipient"}, default.psdtou)
        out, _ = to_odrl(party_roles_graph("third_party_sharing_disclosure"), profile)
        (perm,) = [o for (s, p, o) in out.triples if p == ODRL_PERMISSION]
        assert {p.value for p, _ in out.predicate_objects(perm)} == {
            RDF_TYPE, ODRL + "action", ODRL + "target", "urn:x:performer", "urn:x:recipient"}

    def test_unknown_keys_name_what_no_practice_can_match(self):
        default = ConversionProfile.default()
        assert default.unknown_keys() == []
        profile = ConversionProfile({
            "DataPractice": "urn:x:a", "storage_retention_deletion": "urn:x:b",
            "collection_use": "urn:x:c", "ThirdParty": "urn:x:d"}, {
            "PERFORMED_BY": "urn:x:e", "HAS_DATA": "urn:x:f", "recipient": "urn:x:g"},
            default.psdtou)
        assert profile.unknown_keys() == [
            "action_map key 'collection_use' names no practice type",
            "action_map key 'ThirdParty' names no practice type",
            "role_map key 'HAS_DATA' names no party role",
            "role_map key 'recipient' names no party role"]

    def test_emitted_iris_exist_in_source(self):
        g = single_practice_graph(data=(EMAIL, LOCATION))
        out, _ = to_odrl(g)
        source_iris = {t.value for (s, p, o) in g.triples for t in (s, o)
                       if isinstance(t, IRI)}
        for (s, p, o) in out.triples:
            if p in (ODRL_TARGET, ODRL_RIGHT_OPERAND):
                assert o.value in source_iris


class TestPsdtou:
    def test_one_practice_app_policy(self):
        g = single_practice_graph()
        out, report = to_psdtou(g)
        assert report.input_specs == 1
        assert report.sharing_entries == 0
        profile = ConversionProfile.default()
        (app,) = out.subjects_of_type(profile.dtou_iri("app_policy_class"))
        (ispec,) = out.objects(app, profile.dtou_iri("has_input"))
        assert out.objects(ispec, profile.dtou_iri("data")) == [IRI(EMAIL)]
        assert out.objects(ispec, profile.dtou_iri("purpose")) == [IRI(MARKETING)]

    def test_practice_without_data_links_skipped(self):
        g = single_practice_graph(data=())
        ((_, (practice,)),) = policy_practices(g)
        out, report = to_psdtou(g)
        assert report.input_specs == 0
        assert report.skipped_practices == [f"{practice.node!r}: no data links"]

    def test_sharing_entry_carries_recipient_type(self):
        spans = [
            EntitySpan("a0", "action", "share", 0, subtype="third_party_sharing_disclosure"),
            EntitySpan("e0", "data", "history", 0, grounded_term=EMAIL),
            EntitySpan("e1", "party", "partners", 0, subtype="third_party"),
        ]
        relations = [RelationTuple("a0", "e0", "HAS_DATA"),
                     RelationTuple("a0", "e1", "DATA_SHARED_WITH")]
        g = build_graph(result_with([(spans, relations)]), "test.example", POLICY, "v").triples
        out, report = to_psdtou(g)
        assert report.sharing_entries == 1
        profile = ConversionProfile.default()
        (snode,) = out.subjects_of_type(profile.dtou_iri("sharing_class"))
        recipients = out.objects(snode, profile.dtou_iri("recipient_type"))
        assert recipients == [IRI("urn:pp-analyze:core#ThirdParty")]

    def test_shared_data_class_deduplicated(self):
        # DERIVED oracle: two practices over the same class -> one input
        # spec carrying both purposes
        seg0 = single_practice_graph(purposes=(MARKETING,))
        spans = [
            EntitySpan("a0", "action", "use", 1, subtype="collection_use"),
            EntitySpan("e0", "data", "email", 1, grounded_term=EMAIL),
            EntitySpan("e1", "purpose", "ads", 1,
                       grounded_term="https://w3id.org/dpv#TargetedAdvertising"),
        ]
        relations = [RelationTuple("a0", "e0", "HAS_DATA"),
                     RelationTuple("a0", "e1", "HAS_PURPOSE")]
        both = result_with([
            (list(seg0_spans()), list(seg0_relations())),
            (spans, relations),
        ])
        g = build_graph(both, "test.example", POLICY, "v").triples
        out, report = to_psdtou(g)
        assert report.input_specs == 1
        profile = ConversionProfile.default()
        (ispec,) = out.subjects_of_type(profile.dtou_iri("input_spec_class"))
        purposes = {o.value for o in out.objects(ispec, profile.dtou_iri("purpose"))}
        assert purposes == {MARKETING, "https://w3id.org/dpv#TargetedAdvertising"}


def seg0_spans():
    return [
        EntitySpan("a0", "action", "collect", 0, subtype="collection_use"),
        EntitySpan("e0", "data", "email", 0, grounded_term=EMAIL),
        EntitySpan("e1", "purpose", "marketing", 0, grounded_term=MARKETING),
    ]


def seg0_relations():
    return [RelationTuple("a0", "e0", "HAS_DATA"),
            RelationTuple("a0", "e1", "HAS_PURPOSE")]


class TestConvert:
    def test_each_format_keeps_its_skip_rules(self):
        # an unmapped practice without data links is, for ODRL, only
        # unmapped and, for psDToU, only without data links; a sharing
        # practice without a recipient still gets its sharing entry
        unmapped = [EntitySpan("a0", "action", "keep", 0, subtype="storage_retention_deletion"),
                    EntitySpan("e0", "purpose", "security", 0, grounded_term=MARKETING)]
        shared = [EntitySpan("a0", "action", "share", 1, subtype="third_party_sharing_disclosure"),
                  EntitySpan("e0", "data", "email", 1, grounded_term=EMAIL)]
        g = build_graph(result_with([(unmapped, [RelationTuple("a0", "e0", "HAS_PURPOSE")]),
                                     (shared, [RelationTuple("a0", "e0", "HAS_DATA")])]),
                        "test.example", POLICY, "v").triples
        node = "<urn:pp-analyze:node#practice-ff523dc978f0ebd5>"
        classes = {p.node: p.class_name for _, practices in policy_practices(g) for p in practices}
        assert classes[IRI(node[1:-1])] == "DataPractice"
        profile = ConversionProfile.default()
        (_, odrl_report), (dtou, dtou_report) = convert(g, profile)
        assert odrl_report.to_dict() == {
            "permissions": 1, "input_specs": 0, "sharing_entries": 0,
            "unmapped_types": ["storage_retention_deletion"],
            "skipped_practices": [f"{node}: unmapped type storage_retention_deletion"]}
        assert dtou_report.to_dict() == {
            "permissions": 0, "input_specs": 1, "sharing_entries": 1, "unmapped_types": [],
            "skipped_practices": [f"{node}: no data links"]}
        (snode,) = dtou.subjects_of_type(profile.dtou_iri("sharing_class"))
        assert dtou.objects(snode, profile.dtou_iri("data")) == [IRI(EMAIL)]
        assert dtou.objects(snode, profile.dtou_iri("recipient_type")) == []


class TestProfile:
    def test_custom_action_mapping(self, tmp_path):
        profile_data = ConversionProfile.default()
        payload = {
            "action_map": {"DataCollectionUse": "urn:custom:consume"},
            "role_map": dict(profile_data.role_map),
            "psdtou": dict(profile_data.psdtou),
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        profile = ConversionProfile.load(path)
        out, _ = to_odrl(single_practice_graph(), profile)
        actions = {o.value for (s, p, o) in out.triples if p == ODRL_ACTION}
        assert actions == {"urn:custom:consume"}

    @pytest.mark.parametrize("profile, untyped_practice, outcome", [
        pytest.param("[]", False, "profile <dir>/profile.json does not hold a JSON object",
                     id="profile-not-an-object"),
        pytest.param(None, True, (1, []), id="practice-without-a-class-ignored"),
    ])
    def test_odrl_conversion(self, tmp_path, profile, untyped_practice, outcome):
        """The permission count and skipped practices of converting one
        practice, or the message of the error that stops it."""
        g = single_practice_graph()
        if untyped_practice:
            g.add(IRI(POLICY), HAS_PRACTICE, IRI("urn:x:untyped"))
        path = tmp_path / "profile.json"
        path.write_text(profile or json.dumps(ConversionProfile.default().__dict__),
                        encoding="utf-8")
        try:
            _, report = to_odrl(g, ConversionProfile.load(path))
            got = (report.permissions, report.skipped_practices)
        except Error as exc:
            got = str(exc).replace(str(tmp_path), "<dir>")
        assert got == outcome

    def test_missing_table_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"action_map": {}}', encoding="utf-8")
        with pytest.raises(Error, match="'role_map' is missing or not an object of strings"):
            ConversionProfile.load(path)

    def test_conversion_is_deterministic(self):
        g = single_practice_graph(data=(EMAIL, LOCATION))
        from ppanalyze.rdfio import serialize
        assert serialize(to_odrl(g)[0]) == serialize(to_odrl(g)[0])
        assert serialize(to_psdtou(g)[0]) == serialize(to_psdtou(g)[0])
