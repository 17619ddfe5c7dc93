"""Assemble extraction results into the privacy-practice knowledge graph.

The graph is centred on practice nodes: one per recognized action span,
typed DataCollectionUse or ThirdPartySharingDisclosure for the two
dominant practice types and plain DataPractice (with a subtype
annotation) otherwise.  Every practice carries exactly one source
segment literal, belongs to exactly one PrivacyPolicy node, and that
policy links to exactly one Service node.

Node IRIs are content-derived (digest of policy URI, segment index,
action ordinal) so repeated runs produce identical graphs; parties are
local blank nodes typed first-party / third-party / user.  Ungrounded
data/purpose spans, party spans without one of those subtypes,
non-verbatim spans, links to a span of a kind their role does not take
and relations whose subject is not an action never enter the graph;
each exclusion is accounted for in the build log.
"""
from __future__ import annotations

import hashlib
import urllib.parse
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .rdfio import RDF_TYPE, XSD, BNode, Graph, IRI, Literal, Subject
from .taxonomy import DPV, DPV_PD, Taxonomy

if TYPE_CHECKING:       # `stats` and `convert` read graphs and never load the pipeline
    from .extraction.pipeline import EntitySpan, ExtractionResult

PPA = "urn:pp-analyze:core#"
NODE = "urn:pp-analyze:node#"
SERVICE = "urn:pp-analyze:service#"
POLICY = "urn:pp-analyze:policy#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"

# classes
DATA_PRACTICE = IRI(PPA + "DataPractice")
DATA_COLLECTION_USE = IRI(PPA + "DataCollectionUse")
THIRD_PARTY_SHARING = IRI(PPA + "ThirdPartySharingDisclosure")
PRIVACY_POLICY = IRI(PPA + "PrivacyPolicy")
SERVICE_CLASS = IRI(PPA + "Service")
FIRST_PARTY = IRI(PPA + "FirstParty")
THIRD_PARTY = IRI(PPA + "ThirdParty")
USER_PARTY = IRI(PPA + "User")

# predicates
HAS_PRACTICE = IRI(PPA + "hasPractice")
HAS_DATA = IRI(PPA + "hasData")
HAS_PURPOSE = IRI(PPA + "hasPurpose")
PERFORMED_BY = IRI(PPA + "performedBy")
DATA_PROVIDED_BY = IRI(PPA + "dataProvidedBy")
DATA_SHARED_WITH = IRI(PPA + "dataSharedWith")
SOURCE_SEGMENT = IRI(PPA + "sourceSegment")
SEGMENT_INDEX = IRI(PPA + "segmentIndex")
PRACTICE_SUBTYPE = IRI(PPA + "practiceSubtype")
HAS_SERVICE = IRI(PPA + "hasService")
TAXONOMY_VERSION = IRI(PPA + "taxonomyVersion")
LABEL = IRI(RDFS + "label")

# practice classes from least to most specific
_SPECIFICITY = {DATA_PRACTICE: 0, THIRD_PARTY_SHARING: 1, DATA_COLLECTION_USE: 2}
_PRACTICE_CLASS_NAMES = ("DataPractice", "ThirdPartySharingDisclosure", "DataCollectionUse")

_SUBTYPE_CLASS = {
    "collection_use": DATA_COLLECTION_USE,
    "third_party_sharing_disclosure": THIRD_PARTY_SHARING,
}
_PARTY_CLASS = {
    "first_party": FIRST_PARTY,
    "third_party": THIRD_PARTY,
    "user": USER_PARTY,
}
# each relation role's predicate and the span kind its object must be
_ROLES = {
    "HAS_DATA": (HAS_DATA, "data"),
    "HAS_PURPOSE": (HAS_PURPOSE, "purpose"),
    "PERFORMED_BY": (PERFORMED_BY, "party"),
    "DATA_PROVIDED_BY": (DATA_PROVIDED_BY, "party"),
    "DATA_SHARED_WITH": (DATA_SHARED_WITH, "party"),
}


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:16]


# the prefixes of every practice graph
STANDARD_PREFIXES = {
    "ppa": PPA,
    "rdfs": RDFS,
    "xsd": XSD,
    "dpv": DPV,
    "dpvpd": DPV_PD,
}


def bind_standard_prefixes(g: Graph) -> None:
    for prefix, namespace in STANDARD_PREFIXES.items():
        g.bind(prefix, namespace)


@dataclass
class BuildLog:
    records: list[str] = field(default_factory=list)
    skipped_actions: int = 0
    skipped_ungrounded: int = 0
    skipped_non_verbatim: int = 0
    dropped_tuples: int = 0

    def note(self, message: str) -> None:
        self.records.append(message)

    def to_dict(self) -> dict:
        return {
            "skipped_actions": self.skipped_actions,
            "skipped_ungrounded": self.skipped_ungrounded,
            "skipped_non_verbatim": self.skipped_non_verbatim,
            "dropped_tuples": self.dropped_tuples,
            "records": list(self.records),
        }


@dataclass
class PrPrGraph:
    triples: Graph
    provenance: dict[str, tuple[int, str]]  # practice IRI -> (segment index, text)
    build_log: BuildLog = field(default_factory=BuildLog)

    def __len__(self) -> int:
        return len(self.triples)


def service_iri(service_id: str) -> IRI:
    return IRI(SERVICE + urllib.parse.quote(service_id, safe=""))


def policy_iri(service_id: str) -> IRI:
    return IRI(POLICY + urllib.parse.quote(service_id, safe=""))


def build_graph(result: ExtractionResult, service_id: str, policy_uri: str,
                taxonomy_version: str = "unknown") -> PrPrGraph:
    """Build the practice graph for one document's extraction result.

    Nothing here is fatal: spans that cannot enter the graph (ungrounded
    terms, non-verbatim flags, a link to a span of a kind its role does
    not take, a relation whose subject is not an action) are skipped and
    accounted for in the build log.  Every relation names known spans
    and an event type of `_ROLES`: the pipeline has dropped the others.
    """
    g = Graph()
    bind_standard_prefixes(g)
    log = BuildLog()

    policy = IRI(policy_uri)
    service = service_iri(service_id)
    g.add(policy, IRI(RDF_TYPE), PRIVACY_POLICY)
    g.add(policy, HAS_SERVICE, service)
    g.add(policy, TAXONOMY_VERSION, Literal(taxonomy_version))
    g.add(service, IRI(RDF_TYPE), SERVICE_CLASS)
    g.add(service, LABEL, Literal(service_id))

    provenance: dict[str, tuple[int, str]] = {}

    for seg in result.segments:
        spans = {s.local_id: s for s in seg.spans}
        party_nodes: dict[str, BNode] = {}

        def party_node(span: EntitySpan) -> Optional[BNode]:
            if span.subtype not in _PARTY_CLASS:
                log.skipped_ungrounded += 1     # no party class to point to
                log.note(f"segment {seg.segment_index}: party {span.local_id} "
                         f"has no usable subtype ({span.subtype!r})")
                return None
            if span.local_id not in party_nodes:
                node = BNode("party-" + _digest(policy_uri, str(seg.segment_index), span.local_id))
                party_nodes[span.local_id] = node
                g.add(node, IRI(RDF_TYPE), _PARTY_CLASS[span.subtype])
                g.add(node, LABEL, Literal(span.text))
            return party_nodes[span.local_id]

        actions = seg.actions
        for ordinal, action in enumerate(actions):
            if action.non_verbatim:
                log.skipped_actions += 1
                log.skipped_non_verbatim += 1
                log.note(f"segment {seg.segment_index}: action {action.local_id} "
                         f"skipped (non-verbatim {action.text!r})")
                continue
            practice = IRI(NODE + "practice-" + _digest(policy_uri, str(seg.segment_index), str(ordinal)))
            practice_class = _SUBTYPE_CLASS.get(action.subtype or "", DATA_PRACTICE)
            g.add(practice, IRI(RDF_TYPE), practice_class)
            if practice_class is DATA_PRACTICE and action.subtype:
                g.add(practice, PRACTICE_SUBTYPE, Literal(action.subtype))
            g.add(practice, SOURCE_SEGMENT, Literal(seg.segment_text))
            g.add(practice, SEGMENT_INDEX, Literal(str(seg.segment_index), datatype=IRI(XSD + "integer")))
            g.add(practice, LABEL, Literal(action.text))
            g.add(policy, HAS_PRACTICE, practice)
            provenance[practice.value] = (seg.segment_index, seg.segment_text)

            for rel in seg.relations:
                if rel.subject_id != action.local_id:
                    continue
                target = spans[rel.object_id]
                if target.non_verbatim:
                    log.skipped_non_verbatim += 1
                    log.note(f"segment {seg.segment_index}: link to {target.local_id} "
                             f"skipped (non-verbatim {target.text!r})")
                    continue
                predicate, kind = _ROLES[rel.event_type]
                if kind != "party" and target.grounded_term is None:
                    log.skipped_ungrounded += 1
                    log.note(f"segment {seg.segment_index}: {rel.event_type} link to "
                             f"{target.local_id} skipped (ungrounded {target.text!r})")
                    continue
                if target.kind != kind:
                    log.dropped_tuples += 1
                    log.note(f"segment {seg.segment_index}: {rel.event_type} link to "
                             f"{target.local_id} skipped ({target.kind} span {target.text!r})")
                    continue
                node = party_node(target) if kind == "party" else IRI(target.grounded_term)
                if node is not None:
                    g.add(practice, predicate, node)

        action_ids = {action.local_id for action in actions}
        for rel in seg.relations:
            if rel.subject_id not in action_ids:
                log.dropped_tuples += 1
                log.note(f"segment {seg.segment_index}: tuple ({rel.subject_id}, "
                         f"{rel.object_id}, {rel.event_type}) dropped (subject is not an action)")

    return PrPrGraph(triples=g, provenance=provenance, build_log=log)


# -- invariant checking --

def practice_types(g: Graph) -> dict[Subject, str]:
    """Map each practice node to the local name of its most specific class.

    One scan of the triples that builds no lookup index.  A node typed with
    several practice classes takes DataCollectionUse over
    ThirdPartySharingDisclosure over plain DataPractice.
    """
    rdf_type = IRI(RDF_TYPE)
    best: dict = {}
    for (s, p, o) in g.triples:
        if p == rdf_type:
            rank = _SPECIFICITY.get(o)
            if rank is not None and rank > best.get(s, -1):
                best[s] = rank
    return {s: _PRACTICE_CLASS_NAMES[rank] for s, rank in best.items()}


def check_invariants(g: Graph, taxonomy: Optional[Taxonomy] = None) -> list[str]:
    """The invariant violations, in term order (empty list = graph is sound)."""
    problems: list[str] = []

    owners = Counter(o for (_, p, o) in g.triples if p == HAS_PRACTICE)
    for practice in sorted(practice_types(g)):
        segments = g.objects(practice, SOURCE_SEGMENT)
        if len(segments) != 1:
            problems.append(f"{practice!r}: {len(segments)} source segment literals (want 1)")
        if owners[practice] != 1:
            problems.append(f"{practice!r}: belongs to {owners[practice]} policies (want 1)")
    for policy in sorted(g.subjects_of_type(PRIVACY_POLICY)):
        services = g.objects(policy, HAS_SERVICE)
        if len(services) != 1:
            problems.append(f"{policy!r}: links to {len(services)} services (want 1)")

    if taxonomy is not None:
        for predicate, kind in ((HAS_DATA, "data"), (HAS_PURPOSE, "purpose")):
            # (subject, object, problem): the set is walked in hash order
            bad = []
            for (s, p, o) in g.triples:
                if p == predicate:
                    if not isinstance(o, IRI) or o.value not in taxonomy.nodes:
                        bad.append((s, o, f"{s!r}: {kind} object {o!r} not in taxonomy"))
                    elif taxonomy.nodes[o.value].kind != kind:
                        bad.append((s, o, f"{s!r}: {o!r} is not a {kind} term"))
            problems.extend(problem for _, _, problem in sorted(bad))
    return problems


# -- corpus statistics --

@dataclass
class GraphStats:
    triple_count: int
    practice_count: int
    practice_type_counts: dict[str, int]
    data_class_mentions: dict[str, int]
    purpose_class_mentions: dict[str, int]

    @property
    def distinct_data_classes(self) -> int:
        return len(self.data_class_mentions)

    @property
    def distinct_purpose_classes(self) -> int:
        return len(self.purpose_class_mentions)

    @property
    def data_mentions(self) -> int:
        return sum(self.data_class_mentions.values())

    @property
    def purpose_mentions(self) -> int:
        return sum(self.purpose_class_mentions.values())

    def top_classes(self, which: str, k: int = 10) -> list[tuple[str, int]]:
        table = self.data_class_mentions if which == "data" else self.purpose_class_mentions
        return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def to_dict(self, top_k: int = 10) -> dict:
        return {
            "triple_count": self.triple_count,
            "practice_count": self.practice_count,
            "practice_type_counts": dict(sorted(self.practice_type_counts.items())),
            "data": {
                "distinct_classes": self.distinct_data_classes,
                "mentions": self.data_mentions,
                "top": self.top_classes("data", top_k),
            },
            "purpose": {
                "distinct_classes": self.distinct_purpose_classes,
                "mentions": self.purpose_mentions,
                "top": self.top_classes("purpose", top_k),
            },
        }

    def to_tsv(self, top_k: int = 10) -> str:
        lines = [
            f"triples\t{self.triple_count}",
            f"practices\t{self.practice_count}",
        ]
        for name, count in sorted(self.practice_type_counts.items()):
            lines.append(f"practices[{name}]\t{count}")
        lines.append(f"data_classes\t{self.distinct_data_classes}")
        lines.append(f"data_mentions\t{self.data_mentions}")
        lines.append(f"purpose_classes\t{self.distinct_purpose_classes}")
        lines.append(f"purpose_mentions\t{self.purpose_mentions}")
        for iri, count in self.top_classes("data", top_k):
            lines.append(f"top_data\t{iri}\t{count}")
        for iri, count in self.top_classes("purpose", top_k):
            lines.append(f"top_purpose\t{iri}\t{count}")
        return "\n".join(lines) + "\n"


def stats(graphs: Sequence[Graph]) -> GraphStats:
    """Aggregate statistics over any number of practice graphs."""
    triple_count = 0
    practice_type_counts: dict[str, int] = {}
    practice_count = 0
    data_mentions: dict[str, int] = {}
    purpose_mentions: dict[str, int] = {}

    for g in graphs:
        triple_count += len(g)
        types = practice_types(g)
        practice_count += len(types)
        for name in types.values():
            practice_type_counts[name] = practice_type_counts.get(name, 0) + 1
        for (s, p, o) in g.triples:
            if p == HAS_DATA and isinstance(o, IRI):
                data_mentions[o.value] = data_mentions.get(o.value, 0) + 1
            elif p == HAS_PURPOSE and isinstance(o, IRI):
                purpose_mentions[o.value] = purpose_mentions.get(o.value, 0) + 1

    return GraphStats(
        triple_count=triple_count,
        practice_count=practice_count,
        practice_type_counts=practice_type_counts,
        data_class_mentions=data_mentions,
        purpose_class_mentions=purpose_mentions,
    )
