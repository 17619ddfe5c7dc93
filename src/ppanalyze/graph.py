"""Write the privacy-practice knowledge graph, and read its practices back.

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

Each reader takes one pass over a graph: `check_invariants` and
`policy_practices` walk its subject index (`Graph.by_subject`, term
order); `stats` scans its triples and builds no index.  All three take a
node's practice class by one rule, `_practice_class`: DataCollectionUse
over ThirdPartySharingDisclosure over DataPractice.  `policy_practices`
reads links by `_ROLES`, the table that `build_graph` writes by.  That
table and the practice and party classes come from the rows of `vocab`.
"""
from __future__ import annotations

import hashlib
import urllib.parse
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .rdfio import RDF_TYPE, XSD, BNode, Graph, IRI, Literal, Object, Subject
from .taxonomy import DPV, DPV_PD, Taxonomy
from .vocab import ACTIONS, PARTIES, PRACTICE_CLASS, ROLES

if TYPE_CHECKING:       # `stats` and `convert` read graphs and never load the pipeline
    from .extraction.pipeline import EntitySpan, ExtractionResult

PPA = "urn:pp-analyze:core#"
NODE = "urn:pp-analyze:node#"
SERVICE = "urn:pp-analyze:service#"
POLICY = "urn:pp-analyze:policy#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"

# classes
PRIVACY_POLICY = IRI(PPA + "PrivacyPolicy")
SERVICE_CLASS = IRI(PPA + "Service")

# predicates
_TYPE = IRI(RDF_TYPE)
HAS_PRACTICE = IRI(PPA + "hasPractice")
SOURCE_SEGMENT = IRI(PPA + "sourceSegment")
SEGMENT_INDEX = IRI(PPA + "segmentIndex")
PRACTICE_SUBTYPE = IRI(PPA + "practiceSubtype")
HAS_SERVICE = IRI(PPA + "hasService")
TAXONOMY_VERSION = IRI(PPA + "taxonomyVersion")
LABEL = IRI(RDFS + "label")

# the vocabulary's classes and predicates, read from the rows of `vocab`
# practice classes from least to most specific: DataPractice, then the
# subtype classes in reverse row order
PRACTICE_CLASSES = (PRACTICE_CLASS, *(term.ppa for term in reversed(ACTIONS) if term.ppa))
_CLASS_NAMES = {IRI(PPA + name): name for name in reversed(PRACTICE_CLASSES)}   # most specific first
DATA_PRACTICE = IRI(PPA + PRACTICE_CLASS)
_SUBTYPE_CLASS = {term.name: IRI(PPA + term.ppa) for term in ACTIONS if term.ppa}
_PARTY_CLASS = {term.name: IRI(PPA + term.ppa) for term in PARTIES}
# each relation role's predicate and the span kind its object must be
_ROLES = {term.name: (IRI(PPA + term.ppa), term.target) for term in ROLES}
HAS_DATA = _ROLES["HAS_DATA"][0]
HAS_PURPOSE = _ROLES["HAS_PURPOSE"][0]


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
    """What `build_graph` kept out of the graph: a note per skip, each
    counted under one or more counters."""
    skipped_actions: int = 0
    skipped_ungrounded: int = 0
    skipped_non_verbatim: int = 0
    dropped_tuples: int = 0
    records: list[str] = field(default_factory=list)    # the notes, in build order

    def skip(self, note: str, counter: str, *more: str) -> None:
        """Record one span or link kept out of the graph: its note, and one
        more under each counter named, so that no note goes uncounted."""
        self.records.append(note)
        for name in (counter, *more):
            setattr(self, name, getattr(self, name) + 1)

    def to_dict(self) -> dict:
        """The build log file's object: the counters, then the notes."""
        return asdict(self)


@dataclass
class PrPrGraph:
    triples: Graph
    practices: int
    build_log: BuildLog = field(default_factory=BuildLog)
    provenance = property(lambda self: range(self.practices))   # `perfbench/layers.py` takes its len()

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
    g.add(policy, _TYPE, PRIVACY_POLICY)
    g.add(policy, HAS_SERVICE, service)
    g.add(policy, TAXONOMY_VERSION, Literal(taxonomy_version))
    g.add(service, _TYPE, SERVICE_CLASS)
    g.add(service, LABEL, Literal(service_id))

    practices = 0

    for seg in result.segments:
        spans = {s.local_id: s for s in seg.spans}
        party_nodes: dict[str, BNode] = {}

        def party_node(span: EntitySpan) -> Optional[BNode]:
            if span.subtype not in _PARTY_CLASS:       # no party class to point to
                log.skip(f"segment {seg.segment_index}: party {span.local_id} "
                         f"has no usable subtype ({span.subtype!r})", "skipped_ungrounded")
                return None
            if span.local_id not in party_nodes:
                node = BNode("party-" + _digest(policy_uri, str(seg.segment_index), span.local_id))
                party_nodes[span.local_id] = node
                g.add(node, _TYPE, _PARTY_CLASS[span.subtype])
                g.add(node, LABEL, Literal(span.text))
            return party_nodes[span.local_id]

        actions = seg.actions
        for ordinal, action in enumerate(actions):
            if action.non_verbatim:
                log.skip(f"segment {seg.segment_index}: action {action.local_id} "
                         f"skipped (non-verbatim {action.text!r})",
                         "skipped_actions", "skipped_non_verbatim")
                continue
            practice = IRI(NODE + "practice-" + _digest(policy_uri, str(seg.segment_index), str(ordinal)))
            practice_class = _SUBTYPE_CLASS.get(action.subtype or "", DATA_PRACTICE)
            g.add(practice, _TYPE, practice_class)
            if practice_class is DATA_PRACTICE and action.subtype:
                g.add(practice, PRACTICE_SUBTYPE, Literal(action.subtype))
            g.add(practice, SOURCE_SEGMENT, Literal(seg.segment_text))
            g.add(practice, SEGMENT_INDEX, Literal(str(seg.segment_index), datatype=IRI(XSD + "integer")))
            g.add(practice, LABEL, Literal(action.text))
            g.add(policy, HAS_PRACTICE, practice)
            practices += 1

            for rel in seg.relations:
                if rel.subject_id != action.local_id:
                    continue
                target = spans[rel.object_id]
                if target.non_verbatim:
                    log.skip(f"segment {seg.segment_index}: link to {target.local_id} "
                             f"skipped (non-verbatim {target.text!r})", "skipped_non_verbatim")
                    continue
                predicate, kind = _ROLES[rel.event_type]
                if target.kind != kind:
                    log.skip(f"segment {seg.segment_index}: {rel.event_type} link to "
                             f"{target.local_id} skipped ({target.kind} span {target.text!r})",
                             "dropped_tuples")
                    continue
                if kind != "party" and target.grounded_term is None:
                    log.skip(f"segment {seg.segment_index}: {rel.event_type} link to "
                             f"{target.local_id} skipped (ungrounded {target.text!r})",
                             "skipped_ungrounded")
                    continue
                node = party_node(target) if kind == "party" else IRI(target.grounded_term)
                if node is not None:
                    g.add(practice, predicate, node)

        action_ids = {action.local_id for action in actions}
        for rel in seg.relations:
            if rel.subject_id not in action_ids:
                log.skip(f"segment {seg.segment_index}: tuple ({rel.subject_id}, {rel.object_id}, "
                         f"{rel.event_type}) dropped (subject is not an action)", "dropped_tuples")

    return PrPrGraph(triples=g, practices=practices, build_log=log)


# -- reading practices --

def _practice_class(types: Sequence[Object]) -> Optional[str]:
    """The local name of the most specific practice class among a node's
    `rdf:type` objects, or None if it has none."""
    return next((name for iri, name in _CLASS_NAMES.items() if iri in types), None)


@dataclass(frozen=True)
class Practice:
    """One practice node of a policy, as the converters read it."""
    node: Subject
    class_name: str             # its most specific practice class
    type_key: str               # `action_map` key: a plain DataPractice's subtype, else class_name
    data: tuple[IRI, ...]
    purposes: tuple[IRI, ...]
    parties: dict[str, tuple[Object, ...]]      # party role of `_ROLES` -> party nodes


def policy_practices(g: Graph) -> Iterator[tuple[Subject, list[Practice]]]:
    """Each PrivacyPolicy node with its practices, both in `str` order.

    Untyped `hasPractice` objects and literal data or purpose objects are left out.
    """
    index = g.by_subject()
    for policy in sorted(g.subjects_of_type(PRIVACY_POLICY), key=str):
        practices = []
        for node in sorted(index[policy].get(HAS_PRACTICE, ()), key=str):
            links = index.get(node, {})
            class_name = _practice_class(links.get(_TYPE, ()))
            if class_name is None:
                continue
            subtypes = [o.lexical for o in links.get(PRACTICE_SUBTYPE, ()) if isinstance(o, Literal)]
            practices.append(Practice(
                node=node, class_name=class_name,
                type_key=subtypes[0] if subtypes and class_name == PRACTICE_CLASS else class_name,
                data=tuple(o for o in links.get(HAS_DATA, ()) if isinstance(o, IRI)),
                purposes=tuple(o for o in links.get(HAS_PURPOSE, ()) if isinstance(o, IRI)),
                parties={role: tuple(links.get(predicate, ()))
                         for role, (predicate, kind) in _ROLES.items() if kind == "party"},
            ))
        yield policy, practices


# -- invariant checking --

def check_invariants(g: Graph, taxonomy: Optional[Taxonomy] = None) -> list[str]:
    """The invariant violations (empty list = graph is sound): of the
    practices, then of the policies, each in term order; then of the data
    and the purpose links, each in (subject, object) term order.  One walk
    of the subject index gives them all."""
    owners: Counter = Counter()
    practices: list[tuple[Subject, int]] = []       # (practice, its source segments)
    policy_problems: list[str] = []
    link_problems: dict[str, list[str]] = {"data": [], "purpose": []}
    for s, by_pred in g.by_subject().items():
        owners.update(by_pred.get(HAS_PRACTICE, ()))
        types = by_pred.get(_TYPE, ())
        if _practice_class(types):
            practices.append((s, len(by_pred.get(SOURCE_SEGMENT, ()))))
        if PRIVACY_POLICY in types:
            services = len(by_pred.get(HAS_SERVICE, ()))
            if services != 1:
                policy_problems.append(f"{s!r}: links to {services} services (want 1)")
        if taxonomy is not None:
            for predicate, kind in ((HAS_DATA, "data"), (HAS_PURPOSE, "purpose")):
                for o in by_pred.get(predicate, ()):
                    node = taxonomy.nodes.get(o.value) if isinstance(o, IRI) else None
                    if node is None:
                        link_problems[kind].append(f"{s!r}: {kind} object {o!r} not in taxonomy")
                    elif node.kind != kind:
                        link_problems[kind].append(f"{s!r}: {o!r} is not a {kind} term")

    problems: list[str] = []
    for practice, segments in practices:
        if segments != 1:
            problems.append(f"{practice!r}: {segments} source segment literals (want 1)")
        if owners[practice] != 1:
            problems.append(f"{practice!r}: belongs to {owners[practice]} policies (want 1)")
    return problems + policy_problems + link_problems["data"] + link_problems["purpose"]


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
        """The rows of `to_dict`, one tab-separated line each."""
        d = self.to_dict(top_k)
        lines = [f"triples\t{d['triple_count']}", f"practices\t{d['practice_count']}",
                 *(f"practices[{name}]\t{count}" for name, count in d["practice_type_counts"].items())]
        for which in ("data", "purpose"):
            lines += [f"{which}_classes\t{d[which]['distinct_classes']}",
                      f"{which}_mentions\t{d[which]['mentions']}"]
        for which in ("data", "purpose"):
            lines += [f"top_{which}\t{iri}\t{count}" for iri, count in d[which]["top"]]
        return "\n".join(lines) + "\n"


def stats(graphs: Sequence[Graph]) -> GraphStats:
    """Aggregate statistics over the union of any number of practice
    graphs, from one scan of its triples: a triple in two graphs (a
    policy's graph and a `corpus.ttl` that holds it) counts once, since
    node labels are derived from content."""
    triples = set().union(*(g.triples for g in graphs))
    types: dict[Subject, list[IRI]] = {}    # practice node -> its practice classes
    mentions = {HAS_DATA: Counter(), HAS_PURPOSE: Counter()}
    for (s, p, o) in triples:
        if p == _TYPE:
            if o in _CLASS_NAMES:
                types.setdefault(s, []).append(o)
        elif p in mentions and isinstance(o, IRI):
            mentions[p][o.value] += 1
    practice_type_counts = Counter(map(_practice_class, types.values()))

    return GraphStats(
        triple_count=len(triples),
        practice_count=sum(practice_type_counts.values()),
        practice_type_counts=practice_type_counts,
        data_class_mentions=mentions[HAS_DATA],
        purpose_class_mentions=mentions[HAS_PURPOSE],
    )
