"""DPV data-category and purpose hierarchies: loading, lookup, leaf tests.

The taxonomy is loaded from a vendored snapshot file (never fetched live)
so that graph grounding stays reproducible.  Two input formats:

  * RDF class hierarchies (Turtle or N-Triples with rdfs:subClassOf),
  * a simplified 3-column tab-separated format: child-IRI, parent-IRI,
    label.  A row with an empty parent column declares a root.  A row
    with an empty child column, like an RDF class `<>` read with no
    `@base`, is refused: a graph grounded on it would hold `<>`, which
    other RDF readers resolve against the document's URL.  An IRI
    the Turtle writer cannot write (one holding whitespace, a backslash
    or one of <>"{}|^`) is refused, naming its file and line.

The suffix picks the format (.tsv, .tab, .txt; .ttl, .turtle, .nt,
.ntriples).  Without a known one, the first line that is not blank, a
comment or a directive decides: three tab-separated columns make it TSV,
anything else RDF.

Kinds (data vs purpose) are inferred from the roots: an IRI whose local
name is "Purpose" roots the purpose hierarchy, "PersonalData" (or "Data")
the data hierarchy (DEFAULT_ROOT_KINDS).  A label, local name or synonym
that several nodes of one kind share resolves to the shallowest.  The
snapshot version is read from a `#! version=...` directive (TSV) or an
owl:versionInfo literal (RDF) and is attached to every emitted graph.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Union

from . import Error, rdfio
from .rdfio import IRI, Literal
from .textnorm import normalize_label

RDFS_SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
SKOS_ALT = "http://www.w3.org/2004/02/skos/core#altLabel"
OWL_VERSION = "http://www.w3.org/2002/07/owl#versionInfo"

DPV = "https://w3id.org/dpv#"
DPV_PD = "https://w3id.org/dpv/pd#"

KNOWN_PREFIXES = {
    "dpv": DPV,
    "pd": DPV_PD,
    "dpv-pd": DPV_PD,
    "dpvpd": DPV_PD,
}

DEFAULT_ROOT_KINDS = {
    "purpose": "purpose",
    "personaldata": "data",
    "data": "data",
    "personaldatacategory": "data",
}


class UnresolvedTermError(Error):
    def __init__(self, term: str, kind: str):
        super().__init__(f"cannot resolve {kind} term: {term!r}")


def local_name(iri: str) -> str:
    return re.split(r"[#/:]", iri)[-1]


@dataclass(frozen=True)
class TaxonomyNode:
    iri: str
    label: str
    kind: str                      # "data" | "purpose"
    parents: tuple[str, ...]
    children: tuple[str, ...]
    synonyms: tuple[str, ...] = ()
    depth: int = 0                 # shortest distance from a root


class Taxonomy:
    def __init__(self, nodes: dict[str, TaxonomyNode], version: str = "unknown"):
        self.nodes = nodes
        self.version = version
        # a name that nodes of one kind share names the shallowest, then the first by IRI
        self.label_index: dict[tuple[str, str], str] = {}
        for node in sorted(nodes.values(), key=lambda n: (n.depth, n.iri)):
            for name in (node.label, local_name(node.iri), *node.synonyms):
                key = (node.kind, normalize_label(name))
                if key[1]:
                    self.label_index.setdefault(key, node.iri)
        self._ancestor_cache: dict[str, tuple[str, ...]] = {}

    def resolve_term(self, label_or_iri: str, kind: str) -> TaxonomyNode:
        """Resolve a predicted label, CURIE, or IRI to a taxonomy node.

        Resolution order: exact IRI, known-prefix CURIE expansion,
        normalized label of the full input, normalized tail after the
        last ':', '/' or '#'.  No match raises UnresolvedTermError.
        """
        term = label_or_iri.strip()
        if not term:
            raise UnresolvedTermError(label_or_iri, kind)
        if term in self.nodes:
            node = self.nodes[term]
            if node.kind == kind:
                return node
            raise UnresolvedTermError(label_or_iri, kind)
        node = self.nodes.get(_expand_curie(term))
        if node is not None and node.kind == kind:
            return node
        for candidate in (term, local_name(term)):
            iri = self.label_index.get((kind, normalize_label(candidate)))
            if iri is not None:
                return self.nodes[iri]
        raise UnresolvedTermError(label_or_iri, kind)

    def is_leaf(self, node: TaxonomyNode) -> bool:
        self._check_member(node)
        return not node.children

    def ancestors(self, node: TaxonomyNode) -> list[TaxonomyNode]:
        """Root-to-parent path; for multi-parent nodes, the
        lexicographically smallest root path (by IRI sequence)."""
        self._check_member(node)
        return [self.nodes[iri] for iri in self._ancestor_path(node.iri)]

    def _ancestor_path(self, iri: str) -> tuple[str, ...]:
        if iri in self._ancestor_cache:
            return self._ancestor_cache[iri]
        node = self.nodes[iri]
        if not node.parents:
            path: tuple[str, ...] = ()
        else:
            path = min(self._ancestor_path(p) + (p,) for p in node.parents)
        self._ancestor_cache[iri] = path
        return path

    def _check_member(self, node: TaxonomyNode) -> None:
        if self.nodes.get(node.iri) is not node and self.nodes.get(node.iri) != node:
            raise Error(f"node not in this taxonomy: {node.iri}")


def _assemble(edges: set[tuple[str, str]], labels: dict[str, str],
              synonyms: dict[str, list[str]], declared_roots: set[str],
              version: str) -> Taxonomy:
    parents: dict[str, set[str]] = {}
    children: dict[str, set[str]] = {}
    all_iris: set[str] = set(declared_roots) | set(labels)
    for child, parent in edges:
        all_iris.add(child)
        all_iris.add(parent)
        parents.setdefault(child, set()).add(parent)
        children.setdefault(parent, set()).add(child)
    for iri in all_iris:
        parents.setdefault(iri, set())
        children.setdefault(iri, set())

    # graphlib walks a cycle from parent to child; report it child -> parent
    try:
        TopologicalSorter({iri: sorted(parents[iri]) for iri in sorted(parents)}).prepare()
    except CycleError as exc:
        raise Error("cycle in class hierarchy: " + " -> ".join(exc.args[1][::-1])) from None

    roots = sorted(iri for iri in all_iris if not parents[iri])
    kind_map: dict[str, str] = {}
    for root in roots:
        kind = DEFAULT_ROOT_KINDS.get(normalize_label(local_name(root)))
        if kind is None:
            raise Error(
                f"cannot infer kind (data/purpose) for root {root}; "
                "name the root 'Purpose' or 'PersonalData'"
            )
        kind_map[root] = kind

    # BFS from roots: kind + shortest depth
    depth: dict[str, int] = {r: 0 for r in roots}
    frontier = list(roots)
    while frontier:
        nxt: list[str] = []
        for iri in frontier:
            for child in sorted(children[iri]):
                if child not in kind_map:
                    kind_map[child] = kind_map[iri]
                    depth[child] = depth[iri] + 1
                    nxt.append(child)
                elif kind_map[child] != kind_map[iri]:
                    raise Error(f"node {child} reachable from both data and purpose roots")
        frontier = nxt

    nodes = {
        iri: TaxonomyNode(
            iri=iri,
            label=labels.get(iri, local_name(iri)),
            kind=kind_map[iri],
            parents=tuple(sorted(parents[iri])),
            children=tuple(sorted(children[iri])),
            synonyms=tuple(synonyms.get(iri, ())),
            depth=depth[iri],
        )
        for iri in sorted(all_iris)
    }
    return Taxonomy(nodes, version=version)


def _expand_curie(token: str) -> str:
    if token.startswith(("http://", "https://", "urn:")):
        return token
    prefix, sep, local = token.partition(":")
    if sep and prefix.casefold() in KNOWN_PREFIXES:
        return KNOWN_PREFIXES[prefix.casefold()] + local
    return token


def _load_tabular(path: Path, text: str) -> Taxonomy:
    edges: set[tuple[str, str]] = set()
    labels: dict[str, str] = {}
    declared_roots: set[str] = set()
    version = "unknown"
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#!"):
            m = re.search(r"version\s*=\s*(\S+)", line)
            if m:
                version = m.group(1)
            continue
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise Error(f"{path}:{line_no}: expected 3 tab-separated columns, got {len(parts)}")
        child, parent, label = (p.strip() for p in parts)
        child, parent = _expand_curie(child), _expand_curie(parent)
        if not child:
            raise Error(f"{path}:{line_no}: the child column is empty")
        for iri in (child, parent):
            if not rdfio._writable_iri(iri):
                raise Error(f"{path}:{line_no}: IRI {iri!r} cannot be written to "
                            "Turtle (it holds whitespace, a backslash or one of <>\"{}|^`)")
        if label:
            labels[child] = label
        if parent:
            edges.add((child, parent))
        else:
            declared_roots.add(child)
    return _assemble(edges, labels, {}, declared_roots, version)


def _load_rdf(path: Path, text: str) -> Taxonomy:
    try:
        g = rdfio.parse_turtle(text)
    except rdfio.RdfError as exc:
        raise Error(f"cannot parse {path}: {exc}") from exc
    edges: set[tuple[str, str]] = set()
    labels: dict[str, str] = {}
    synonyms: dict[str, list[str]] = {}
    version = "unknown"
    for s, p, o in g.sorted_triples():
        if IRI("") in (s, o) and p.value in (RDFS_SUBCLASS, RDFS_LABEL, SKOS_ALT):
            raise Error(f"{path}: a class has the empty IRI <> (a relative IRI with no @base)")
        if p.value == RDFS_SUBCLASS and isinstance(s, IRI) and isinstance(o, IRI):
            edges.add((s.value, o.value))
        elif p.value == RDFS_LABEL and isinstance(s, IRI) and isinstance(o, Literal):
            labels.setdefault(s.value, o.lexical)
        elif p.value == SKOS_ALT and isinstance(s, IRI) and isinstance(o, Literal):
            synonyms.setdefault(s.value, []).append(o.lexical)
        elif p.value == OWL_VERSION and isinstance(o, Literal):
            version = o.lexical
    if not edges:
        raise Error(f"{path} contains no rdfs:subClassOf statements")
    return _assemble(edges, labels, synonyms, set(), version)


def load_taxonomy(path: Union[str, Path]) -> Taxonomy:
    """Load a taxonomy from Turtle/N-Triples or the 3-column TSV format."""
    p = Path(path)
    if not p.exists():
        raise Error(f"taxonomy file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8-sig")     # one leading byte-order mark is skipped
    except OSError as exc:
        raise Error(f"cannot read taxonomy file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise Error(f"taxonomy file {p} is not valid UTF-8: {exc}") from exc
    if p.suffix in (".tsv", ".tab", ".txt"):
        return _load_tabular(p, text)
    if p.suffix in (".ttl", ".turtle", ".nt", ".ntriples"):
        return _load_rdf(p, text)
    # sniff: the first line that is not blank, a comment or a directive is
    # a TSV row if it has exactly three tab-separated columns; a tab that
    # indents Turtle makes no such line, and a TSV row never opens with the
    # `<` or `_:` of a tab-separated N-Triples subject
    first = next((line for line in text.split("\n")
                  if line.strip() and not line.startswith(("#", "@"))), "")
    if first.count("\t") == 2 and not first.startswith(("<", "_:")):
        return _load_tabular(p, text)
    return _load_rdf(p, text)


def default_snapshot_path() -> Path:
    return Path(__file__).parent / "data" / "dpv_snapshot.tsv"
