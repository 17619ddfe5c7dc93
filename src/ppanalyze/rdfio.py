"""Minimal RDF triple model with deterministic Turtle / N-Triples I/O.

Covers exactly what this toolchain needs: IRIs, labelled blank nodes,
plain/typed/language literals, and a set-of-triples graph.  Serialization
is fully deterministic (sorted triples, stable formatting) so that equal
graphs always produce equal bytes.  The parsers accept the subset of
Turtle / N-Triples this package emits plus common class-hierarchy files
(prefixed names, `a`, comma/semicolon lists, triple-quoted strings,
numeric and boolean literals).

Lookups on a `Graph` go through two lazy indexes, subject -> predicate ->
objects and predicate -> object -> subjects.  The first is built whole on
the first lookup that needs it; the second one predicate at a time, on
the first lookup of that predicate, because callers ask about one or two
predicates.  Every `add` or `update` drops both, so a graph that is built
first and queried afterwards pays for each build once.
The indexes rely on one rule: `Graph.triples` is changed only through
`add` and `update`, never directly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"

_PN_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


class RdfError(Exception):
    """Raised on malformed RDF input."""


@dataclass(frozen=True)
class IRI:
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class BNode:
    label: str

    def __repr__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: Optional[IRI] = None
    lang: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.lexical!r}"


Subject = Union[IRI, BNode]
Object = Union[IRI, BNode, Literal]
Triple = tuple[Subject, IRI, Object]


def term_key(term: Object) -> tuple:
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, IRI):
        return (0, term.value, "", "")
    if isinstance(term, BNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value if term.datatype else "", term.lang or "")


def triple_key(t: Triple) -> tuple:
    return (term_key(t[0]), term_key(t[1]), term_key(t[2]))


@dataclass
class Graph:
    """A set of triples plus prefix bindings used for Turtle output.

    Change `triples` only through `add` and `update`: they drop the lazy
    lookup indexes, which a direct change to the set would leave stale.
    """

    triples: set[Triple] = field(default_factory=set)
    prefixes: dict[str, str] = field(default_factory=dict)
    # subject -> predicate -> objects, and predicate -> object -> subjects
    # (filled one predicate at a time, on the first lookup of it)
    _spo: Optional[dict] = field(default=None, init=False, compare=False, repr=False)
    _pos: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def add(self, s: Subject, p: IRI, o: Object) -> None:
        self.triples.add((s, p, o))
        self._spo = self._pos = None

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def update(self, other: "Graph") -> None:
        self.triples |= other.triples
        self._spo = self._pos = None
        for k, v in other.prefixes.items():
            self.prefixes.setdefault(k, v)

    def _by_subject(self) -> dict:
        if self._spo is None:
            spo: dict = {}
            for s, p, o in self.triples:
                spo.setdefault(s, {}).setdefault(p, []).append(o)
            self._spo = spo
        return self._spo

    def _by_object(self, predicate: IRI) -> dict:
        if self._pos is None:
            self._pos = {}
        by_object = self._pos.get(predicate)
        if by_object is None:
            by_object = self._pos[predicate] = {}
            for s, p, o in self.triples:
                if p == predicate:
                    by_object.setdefault(o, []).append(s)
        return by_object

    def subjects(self, predicate: IRI, obj: Object) -> set[Subject]:
        return set(self._by_object(predicate).get(obj, ()))

    def subjects_of_type(self, type_iri: IRI) -> set[Subject]:
        return self.subjects(IRI(RDF_TYPE), type_iri)

    def objects(self, subject: Subject, predicate: IRI) -> list[Object]:
        return sorted(self._by_subject().get(subject, {}).get(predicate, ()), key=term_key)

    def predicate_objects(self, subject: Subject) -> Iterator[tuple[IRI, Object]]:
        """Every (predicate, object) pair of one subject, in no set order."""
        for p, objs in self._by_subject().get(subject, {}).items():
            for o in objs:
                yield p, o

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples, key=triple_key)

    def _sorted_subjects(self) -> Iterator[tuple[Subject, list[tuple[IRI, list[Object]]]]]:
        """Each subject with its predicates and their objects, all in term order."""
        spo = self._by_subject()
        for s in sorted(spo, key=term_key):
            by_pred = spo[s]
            yield s, [(p, sorted(by_pred[p], key=term_key))
                      for p in sorted(by_pred, key=term_key)]


# -- serialization --

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _escape_literal(text: str) -> str:
    return text.translate(_ESCAPES)


def _qname(iri: IRI, prefixes: dict[str, str]) -> Optional[str]:
    for prefix, ns in prefixes.items():
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if _PN_LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return None


def _format_term(term: Object, prefixes: dict[str, str]) -> str:
    if isinstance(term, IRI):
        q = _qname(term, prefixes)
        return q if q is not None else f"<{term.value}>"
    if isinstance(term, BNode):
        return f"_:{term.label}"
    out = f'"{_escape_literal(term.lexical)}"'
    if term.lang:
        return f"{out}@{term.lang}"
    if term.datatype:
        dt = _qname(term.datatype, prefixes)
        return f"{out}^^{dt}" if dt else f"{out}^^<{term.datatype.value}>"
    return out


def _term_formatter(prefixes: dict[str, str]) -> Callable[[Object], str]:
    """`_format_term` memoized for the terms of one serialization."""
    memo: dict[Object, str] = {}

    def fmt(term: Object) -> str:
        out = memo.get(term)
        if out is None:
            out = memo[term] = _format_term(term, prefixes)
        return out
    return fmt


def serialize_ntriples(graph: Graph) -> bytes:
    fmt = _term_formatter({})
    lines = []
    for s, pred_objs in graph._sorted_subjects():
        subject = fmt(s)
        for p, objs in pred_objs:
            head = f"{subject} {fmt(p)} "
            lines.extend(f"{head}{fmt(o)} ." for o in objs)
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def serialize_turtle(graph: Graph) -> bytes:
    prefixes = dict(sorted(graph.prefixes.items()))
    fmt = _term_formatter(prefixes)
    out: list[str] = []
    for prefix, ns in prefixes.items():
        out.append(f"@prefix {prefix}: <{ns}> .")
    if prefixes:
        out.append("")

    rdf_type = IRI(RDF_TYPE)
    for subject, pred_objs in graph._sorted_subjects():
        # rdf:type first, remaining predicates in sorted order
        pred_objs.sort(key=lambda po: po[0] != rdf_type)
        lines = []
        for p, objs in pred_objs:
            pred_str = "a" if p == rdf_type else fmt(p)
            obj_str = ", ".join(fmt(o) for o in objs)
            lines.append(f"    {pred_str} {obj_str}")
        out.append(fmt(subject) + " " + lines[0].lstrip() + (" ;" if len(lines) > 1 else " ."))
        for i, line in enumerate(lines[1:], start=1):
            out.append(line + (" ;" if i < len(lines) - 1 else " ."))
        out.append("")
    text = "\n".join(out).rstrip("\n")
    return (text + "\n" if text else "").encode("utf-8")


def serialize(graph: Graph, fmt: str = "turtle") -> bytes:
    if fmt == "turtle":
        return serialize_turtle(graph)
    if fmt == "ntriples":
        return serialize_ntriples(graph)
    raise ValueError(f"unknown RDF format: {fmt!r}")


# -- parsing --

# PN_PREFIX / PN_LOCAL parts may contain '.' but must not end with one,
# otherwise the token would swallow the statement terminator.
_PN_PART = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
# Whitespace and comments; each token match also skips those after it.
# They trail the token so that the regex never backtracks into them.
_SKIP = r"(?:\s+|\#[^\n]*)*"
_TOKEN_RE = re.compile(
    r"""(?:
    (?P<iri><[^<>"{}|^`\\\s]*>)
  | (?P<triple_quote>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<single>'(?:[^'\\\n]|\\.)*')
  | (?P<bnode>_:PNPART)
  | (?P<prefix_decl>@prefix|@base|PREFIX\b|BASE\b)
  | (?P<langtag>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<pname>(?:PNPART)?:(?:PNPART)?)
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<keyword>\ba\b|true\b|false\b)
  | (?P<punct>[;,.\[\]()])
    )""".replace("PNPART", _PN_PART) + _SKIP,
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)
# Turtle constructs the reader does not support, by their opening token.
_UNSUPPORTED = {"[": "blank-node property list", "(": "collection"}

_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "u" and i + 5 < len(text):
                out.append(chr(int(text[i + 2:i + 6], 16)))
                i += 6
                continue
            if nxt == "U" and i + 9 < len(text):
                out.append(chr(int(text[i + 2:i + 10], 16)))
                i += 10
                continue
            out.append(_UNESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = _SKIP_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RdfError(f"unparseable RDF near: {text[pos:pos + 40]!r}")
        pos = m.end()
        kind = m.lastgroup
        yield (kind, m.group(kind))


def parse_turtle(data: Union[str, bytes]) -> Graph:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    g = Graph()
    prefixes: dict[str, str] = {}
    base = ""

    tokens = list(_tokenize(data))
    i = 0

    def expand_pname(tok: str) -> IRI:
        prefix, _, local = tok.partition(":")
        if prefix not in prefixes:
            raise RdfError(f"undeclared prefix in {tok!r}")
        return IRI(prefixes[prefix] + local)

    def token(j: int) -> tuple[str, str]:
        if j >= len(tokens):
            raise RdfError("unexpected end of input")
        return tokens[j]

    def term_at(j: int) -> tuple[Object, int]:
        kind, tok = token(j)
        if kind == "iri":
            value = tok[1:-1]
            if base and not re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value):
                value = base + value
            return IRI(_unescape(value)), j + 1
        if kind == "pname":
            return expand_pname(tok), j + 1
        if kind == "bnode":
            return BNode(tok[2:]), j + 1
        if kind in ("string", "single", "triple_quote"):
            if kind == "triple_quote":
                lex = _unescape(tok[3:-3])
            else:
                lex = _unescape(tok[1:-1])
            j += 1
            if j < len(tokens) and tokens[j][0] == "langtag":
                return Literal(lex, lang=tokens[j][1][1:]), j + 1
            if j < len(tokens) and tokens[j][0] == "dtype":
                dt, j2 = term_at(j + 1)
                if not isinstance(dt, IRI):
                    raise RdfError("literal datatype must be an IRI")
                return Literal(lex, datatype=dt), j2
            return Literal(lex), j
        if kind == "number":
            dt = XSD + ("decimal" if ("." in tok or "e" in tok or "E" in tok) else "integer")
            return Literal(tok, datatype=IRI(dt)), j + 1
        if kind == "keyword" and tok in ("true", "false"):
            return Literal(tok, datatype=IRI(XSD + "boolean")), j + 1
        if kind == "keyword" and tok == "a":
            return IRI(RDF_TYPE), j + 1
        if tok in _UNSUPPORTED:
            raise RdfError(f"unsupported Turtle syntax: {_UNSUPPORTED[tok]} ({tok!r}); "
                           "only triples of IRIs, prefixed names, labelled blank "
                           "nodes and literals are read")
        raise RdfError(f"unexpected token {tok!r}")

    while i < len(tokens):
        kind, tok = tokens[i]
        if kind == "prefix_decl":
            decl = tok.lower().lstrip("@")
            if decl == "prefix":
                pname = token(i + 1)[1]
                iri_tok = token(i + 2)[1]
                prefixes[pname.rstrip(":").partition(":")[0]] = iri_tok[1:-1]
                i += 3
            else:
                base = token(i + 1)[1][1:-1]
                i += 2
            if i < len(tokens) and tokens[i] == ("punct", "."):
                i += 1
            continue

        subject, i = term_at(i)
        if isinstance(subject, Literal):
            raise RdfError("literal cannot be a triple subject")
        while True:
            predicate, i = term_at(i)
            if not isinstance(predicate, IRI):
                raise RdfError("predicate must be an IRI")
            while True:
                obj, i = term_at(i)
                g.add(subject, predicate, obj)
                if i < len(tokens) and tokens[i] == ("punct", ","):
                    i += 1
                    continue
                break
            if i < len(tokens) and tokens[i] == ("punct", ";"):
                i += 1
                # tolerate trailing ';' before '.'
                if i < len(tokens) and tokens[i] == ("punct", "."):
                    i += 1
                    break
                continue
            if i < len(tokens) and tokens[i] == ("punct", "."):
                i += 1
                break
            raise RdfError("statement not terminated with '.'")

    for prefix, ns in prefixes.items():
        g.prefixes.setdefault(prefix, ns)
    return g


def parse(data: Union[str, bytes], fmt: str = "turtle") -> Graph:
    # N-Triples is a syntactic subset of what the Turtle reader accepts.
    if fmt not in ("turtle", "ntriples"):
        raise ValueError(f"unknown RDF format: {fmt!r}")
    return parse_turtle(data)
