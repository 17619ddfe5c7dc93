"""Minimal RDF triple model with deterministic Turtle / N-Triples I/O.

Covers exactly what this toolchain needs: IRIs, labelled blank nodes,
plain/typed/language literals, and a set-of-triples graph.  Serialization
is fully deterministic (sorted triples, stable formatting) so that equal
graphs always produce equal bytes.  The Turtle writer is a prefix header,
one statement block per subject and a join, so that graphs with disjoint
subjects are written as one by merging their blocks.  The parsers accept
the subset of Turtle / N-Triples this package emits plus common
class-hierarchy files (prefixed names, `a`, comma/semicolon lists,
triple-quoted strings, numeric and boolean literals).  The reader scans
the text once into a token list and expands each distinct prefixed name
once.

Terms are tagged tuples and are their own sort key: `IRI(v)` is
`(0, v, "", "")`, `BNode(l)` is `(1, l, "", "")` and a `Literal` is
`(2, lexical, datatype IRI or "", language tag or "")`.  So hashing,
equality and ordering run in C, and terms sort IRIs first, then blank
nodes, then literals.  The tag keeps an IRI, a blank node and a literal
with one string apart.  A term equals the plain tuple of its items, so a
graph must hold terms only, never plain tuples.

Lookups on a `Graph` go through one lazy index, subject -> predicate ->
objects, built whole on the first lookup.  Every `add` or `update` drops
it, so a graph that is built first and queried afterwards pays for the
build once.  The index is filled from the sorted triples, so its
subjects, predicates and objects come out in term order and the
serializers sort nothing again.  It relies on one rule: `Graph.triples`
is changed only through `add` and `update`, never directly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from . import Error

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"

_PN_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


class RdfError(Error):
    """Raised on malformed RDF input."""


class IRI(tuple):
    """An IRI, stored as the tuple `(0, value, "", "")`."""
    __slots__ = ()

    def __new__(cls, value: str) -> "IRI":
        return tuple.__new__(cls, (0, value, "", ""))

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    value = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"<{self[1]}>"


class BNode(tuple):
    """A labelled blank node, stored as the tuple `(1, label, "", "")`."""
    __slots__ = ()

    def __new__(cls, label: str) -> "BNode":
        return tuple.__new__(cls, (1, label, "", ""))

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    label = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"_:{self[1]}"


class Literal(tuple):
    """A literal, stored as the tuple `(2, lexical, datatype IRI or "", lang or "")`.

    An empty language tag or datatype IRI is stored as no tag or datatype,
    so `Literal(x, lang="")` and `Literal(x, datatype=IRI(""))` equal
    `Literal(x)`; the reader makes neither.
    """
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Optional[IRI] = None,
                lang: Optional[str] = None) -> "Literal":
        return tuple.__new__(cls, (2, lexical, datatype[1] if datatype else "", lang or ""))

    def __getnewargs__(self) -> tuple:
        return (self[1], self.datatype, self.lang)

    lexical = property(itemgetter(1))

    @property
    def datatype(self) -> Optional[IRI]:
        return IRI(self[2]) if self[2] else None

    @property
    def lang(self) -> Optional[str]:
        return self[3] or None

    def __repr__(self) -> str:
        return f"{self[1]!r}"


Subject = Union[IRI, BNode]
Object = Union[IRI, BNode, Literal]
Triple = tuple[Subject, IRI, Object]


@dataclass
class Graph:
    """A set of triples plus prefix bindings used for Turtle output.

    Change `triples` only through `add` and `update`: they drop the lazy
    lookup index, which a direct change to the set would leave stale.
    """

    triples: set[Triple] = field(default_factory=set)
    prefixes: dict[str, str] = field(default_factory=dict)
    # subject -> predicate -> objects
    _spo: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def add(self, s: Subject, p: IRI, o: Object) -> None:
        self.triples.add((s, p, o))
        self._spo = None

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def update(self, other: "Graph") -> None:
        self.triples |= other.triples
        self._spo = None
        for k, v in other.prefixes.items():
            self.prefixes.setdefault(k, v)

    def _by_subject(self) -> dict:
        if self._spo is None:
            # filled in term order, so that its keys and lists are sorted
            spo: dict = {}
            for s, p, o in sorted(self.triples):
                spo.setdefault(s, {}).setdefault(p, []).append(o)
            self._spo = spo
        return self._spo

    def subjects_of_type(self, type_iri: IRI) -> set[Subject]:
        rdf_type = IRI(RDF_TYPE)
        return {s for s, by_pred in self._by_subject().items()
                if type_iri in by_pred.get(rdf_type, ())}

    def objects(self, subject: Subject, predicate: IRI) -> list[Object]:
        return list(self._by_subject().get(subject, {}).get(predicate, ()))

    def predicate_objects(self, subject: Subject) -> Iterator[tuple[IRI, Object]]:
        """Every (predicate, object) pair of one subject, in term order."""
        for p, objs in self._by_subject().get(subject, {}).items():
            for o in objs:
                yield p, o

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples)

    def _sorted_subjects(self) -> Iterator[tuple[Subject, list[tuple[IRI, list[Object]]]]]:
        """Each subject with its predicates and their objects, all in term order."""
        for s, by_pred in self._by_subject().items():
            yield s, list(by_pred.items())


# -- serialization --

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _qname(iri: str, prefixes: dict[str, str]) -> Optional[str]:
    for prefix, ns in prefixes.items():
        if iri.startswith(ns):
            local = iri[len(ns):]
            if _PN_LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return None


def _format_term(term: Object, prefixes: dict[str, str]) -> str:
    tag, text, datatype, lang = term
    if tag == 0:
        q = _qname(text, prefixes)
        return q if q is not None else f"<{text}>"
    if tag == 1:
        return f"_:{text}"
    out = f'"{text.translate(_ESCAPES)}"'
    if lang:
        return f"{out}@{lang}"
    if datatype:
        dt = _qname(datatype, prefixes)
        return f"{out}^^{dt}" if dt else f"{out}^^<{datatype}>"
    return out


class _Formats(dict):
    """`_format_term` memoized for the terms of one serialization: a hit is
    a plain dict lookup."""

    def __init__(self, prefixes: dict[str, str]) -> None:
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, term: Object) -> str:
        out = self[term] = _format_term(term, self.prefixes)
        return out


def serialize_ntriples(graph: Graph) -> bytes:
    fmt = _Formats({}).__getitem__
    lines = []
    for s, pred_objs in graph._sorted_subjects():
        subject = fmt(s)
        for p, objs in pred_objs:
            head = f"{subject} {fmt(p)} "
            lines.append(head + (" .\n" + head).join(map(fmt, objs)) + " .")
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def turtle_header(prefixes: dict[str, str]) -> str:
    """The `@prefix` lines of a Turtle document, sorted by prefix."""
    return "\n".join(f"@prefix {prefix}: <{ns}> ." for prefix, ns in sorted(prefixes.items()))


def turtle_blocks(graph: Graph) -> list[tuple[Subject, str]]:
    """Each subject with its Turtle statement, in term order of the subjects."""
    fmt = _Formats(dict(sorted(graph.prefixes.items()))).__getitem__
    rdf_type = IRI(RDF_TYPE)
    blocks = []
    for subject, pred_objs in graph._sorted_subjects():
        # rdf:type first, remaining predicates in sorted order
        pred_objs.sort(key=lambda po: po[0] != rdf_type)
        lines = [("a" if p == rdf_type else fmt(p)) + " " + ", ".join(map(fmt, objs))
                 for p, objs in pred_objs]
        blocks.append((subject, fmt(subject) + " " + " ;\n    ".join(lines) + " ."))
    return blocks


def join_turtle(header: str, blocks: Iterable[str]) -> bytes:
    """A Turtle document: the header, then the statements, a blank line apart.

    Statements of one subject must all be in one block: blocks from
    graphs with disjoint subjects, merged in term order, give the bytes
    of the union graph bound to the same prefixes.
    """
    text = "\n\n".join(chain((header,) if header else (), blocks))
    return (text + "\n" if text else "").encode("utf-8")


def serialize_turtle(graph: Graph) -> bytes:
    return join_turtle(turtle_header(graph.prefixes), map(itemgetter(1), turtle_blocks(graph)))


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
# A character an IRI token may hold between its <>.  The writer writes an
# IRI between <> as it is, so an IRI holding any other character would not
# read back: `_writable_iri` keeps such IRIs out of the graphs.
_IRI_CHAR = r'[^<>"{}|^`\\\s]'
_IRI_RE = re.compile(_IRI_CHAR + "*")


def _writable_iri(value: str) -> bool:
    """Whether the writer's `<value>` reads back as the IRI `value`."""
    return _IRI_RE.fullmatch(value) is not None


# Whitespace and comments; each token match also skips those after it.
# They trail the token so that the regex never backtracks into them.
_SKIP = r"(?:\s+|\#[^\n]*)*"
# Alternatives are tried in order and the first that matches wins.  The
# most frequent tokens, punctuation and prefixed names, come first; where
# two alternatives can match at one place, the earlier one is the one meant
# (bnode and prefix_decl before pname, pname before number and keyword,
# triple_quote before string, prefix_decl before langtag).
_TOKEN_RE = re.compile(
    r"""(?:
    (?P<punct>[;,.\[\]()])
  | (?P<bnode>_:PNPART)
  | (?P<prefix_decl>@prefix|@base|PREFIX\b|BASE\b)
  | (?P<pname>(?:PNPART)?:(?:PNPART)?)
  | (?P<iri><IRICHAR*>)
  | (?P<triple_quote>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<single>'(?:[^'\\\n]|\\.)*')
  | (?P<langtag>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<keyword>\ba\b|true\b|false\b)
    )""".replace("PNPART", _PN_PART).replace("IRICHAR", _IRI_CHAR) + _SKIP,
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)
# Turtle constructs the reader does not support, by their opening token.
_UNSUPPORTED = {"[": "blank-node property list", "(": "collection"}

_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}
# digits after \u and \U
_UCHAR_WIDTH = {"u": 4, "U": 8}
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            width = _UCHAR_WIDTH.get(nxt)
            if width:
                escape = text[i:i + 2 + width]
                if len(escape) < 2 + width or not _HEX_RE.fullmatch(escape, 2):
                    raise RdfError(f"bad escape {escape!r}: want {width} hex digits")
                code = int(escape[2:], 16)
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    raise RdfError(f"bad escape {escape!r}: not a Unicode character")
                out.append(chr(code))
                i += 2 + width
                continue
            if nxt not in _UNESCAPES:
                raise RdfError(f"bad escape {text[i:i + 2]!r}: not a Turtle escape")
            out.append(_UNESCAPES[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kind and the text of every token, from one scan of `text`."""
    kinds: list[str] = []
    texts: list[str] = []
    pos = _SKIP_RE.match(text).end()
    for m in _TOKEN_RE.finditer(text, pos):
        if m.start() != pos:        # the scan skipped text no token matches
            break
        kind = m.lastgroup
        kinds.append(kind)
        texts.append(m[kind])
        pos = m.end()
    if pos < len(text):
        raise RdfError(f"unparseable RDF near: {text[pos:pos + 40]!r}")
    return kinds, texts


_ABSOLUTE_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")
# RFC 3986 appendix B: scheme, authority, path and query of a base (its
# fragment is never read), and authority, path, query and fragment of a
# relative reference; an absent component is None
_BASE_PARTS_RE = re.compile(r"(?:([^:/?#]+):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?")
_REFERENCE_PARTS_RE = re.compile(r"(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.DOTALL)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4: `path` without its "." and ".." segments."""
    if "." not in path:
        return path
    segments = path.split("/")
    out: list[str] = []
    for segment in segments:
        if segment == "..":
            if out and out != [""]:     # never above the root of an absolute path
                out.pop()
        elif segment != ".":
            out.append(segment)
    if segments[-1] in (".", ".."):     # a path that ends in one ends in "/"
        out.append("")
    return "/".join(out)


def _resolve_reference(base: str, reference: str) -> str:
    """RFC 3986 §5.2.2 and §5.3: the IRI that the relative `reference`
    names against `base`, for a base of any scheme."""
    scheme, authority, path, query = _BASE_PARTS_RE.match(base).groups()
    ref_authority, ref_path, ref_query, fragment = _REFERENCE_PARTS_RE.fullmatch(
        reference).groups()
    if ref_authority is not None:
        authority, path, query = ref_authority, _remove_dot_segments(ref_path), ref_query
    elif ref_path:
        if not ref_path.startswith("/"):        # §5.2.3: merge with the base path
            ref_path = ("/" if authority is not None and not path
                        else path[:path.rfind("/") + 1]) + ref_path
        path, query = _remove_dot_segments(ref_path), ref_query
    elif ref_query is not None:
        query = ref_query
    return "".join((
        "" if scheme is None else scheme + ":",
        "" if authority is None else "//" + authority,
        path,
        "" if query is None else "?" + query,
        "" if fragment is None else "#" + fragment,
    ))


def parse_turtle(data: Union[str, bytes]) -> Graph:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")     # one leading byte-order mark is skipped
        except UnicodeDecodeError as exc:
            raise RdfError(f"not valid UTF-8: {exc}") from None
    kinds, texts = _tokenize(data)
    n = len(texts)
    prefixes: dict[str, str] = {}
    base = ""
    # token text -> term, for the tokens that stand for one term whatever
    # follows them; IRIs and prefixed names depend on the directives read
    # so far, so every directive clears it
    named: dict[str, Object] = {}

    def resolve(tok: str) -> str:
        """An IRI token's IRI: a relative one is resolved against the base."""
        value = _unescape(tok[1:-1])
        if base and not _ABSOLUTE_IRI_RE.match(value):
            return _resolve_reference(base, value)
        return value

    def term_at(j: int) -> tuple[Object, int]:
        if j >= n:
            raise RdfError("unexpected end of input")
        tok = texts[j]
        term = named.get(tok)
        if term is not None:
            return term, j + 1
        kind = kinds[j]
        if kind in ("string", "single", "triple_quote"):
            if kind == "triple_quote":
                lex = _unescape(tok[3:-3])
            else:
                lex = _unescape(tok[1:-1])
            j += 1
            if j < n and kinds[j] == "langtag":
                return Literal(lex, lang=texts[j][1:]), j + 1
            if j < n and kinds[j] == "dtype":
                dt, j2 = term_at(j + 1)
                if not isinstance(dt, IRI):
                    raise RdfError("literal datatype must be an IRI")
                return Literal(lex, datatype=dt), j2
            return Literal(lex), j
        if kind == "iri":
            term = IRI(resolve(tok))
        elif kind == "pname":
            prefix, _, local = tok.partition(":")
            if prefix not in prefixes:
                raise RdfError(f"undeclared prefix in {tok!r}")
            term = IRI(prefixes[prefix] + local)
        elif kind == "bnode":
            term = BNode(tok[2:])
        elif kind == "number":
            dt = XSD + ("decimal" if ("." in tok or "e" in tok or "E" in tok) else "integer")
            term = Literal(tok, datatype=IRI(dt))
        elif kind == "keyword" and tok in ("true", "false"):
            term = Literal(tok, datatype=IRI(XSD + "boolean"))
        elif kind == "keyword" and tok == "a":
            term = IRI(RDF_TYPE)
        elif tok in _UNSUPPORTED:
            raise RdfError(f"unsupported Turtle syntax: {_UNSUPPORTED[tok]} ({tok!r}); "
                           "only triples of IRIs, prefixed names, labelled blank "
                           "nodes and literals are read")
        else:
            raise RdfError(f"unexpected token {tok!r}")
        named[tok] = term
        return term, j + 1

    triples: set[Triple] = set()
    add = triples.add
    i = 0
    # a token's text alone tells punctuation apart: no other token is one
    # of ",", ";" or "."
    while i < n:
        if kinds[i] == "prefix_decl":
            named.clear()
            # `@prefix ex: <namespace>` or `@base <base>`: a prefix is a
            # prefixed name with an empty local part
            end = i + (3 if texts[i].lower().lstrip("@") == "prefix" else 2)
            if end > n:
                raise RdfError("unexpected end of input")
            *prefix, iri = texts[i + 1:end]
            well_formed = kinds[end - 1] == "iri" and (
                not prefix or kinds[i + 1] == "pname" and prefix[0].endswith(":"))
            if not well_formed:
                raise RdfError(f"malformed {texts[i]} directive: {' '.join(texts[i:end])!r}")
            if prefix:
                prefixes[prefix[0][:-1]] = resolve(iri)
            else:
                base = resolve(iri)
            i = end
            if i < n and texts[i] == ".":
                i += 1
            continue

        subject, i = term_at(i)
        if isinstance(subject, Literal):
            raise RdfError("literal cannot be a triple subject")
        while True:
            predicate, i = term_at(i)
            if not isinstance(predicate, IRI):
                raise RdfError("predicate must be an IRI")
            obj, i = term_at(i)
            add((subject, predicate, obj))
            while i < n and texts[i] == ",":
                obj, i = term_at(i + 1)
                add((subject, predicate, obj))
            if i < n and texts[i] == ";":
                i += 1
                # tolerate trailing ';' before '.'
                if i < n and texts[i] == ".":
                    i += 1
                    break
                continue
            if i < n and texts[i] == ".":
                i += 1
                break
            raise RdfError("statement not terminated with '.'")

    return Graph(triples=triples, prefixes=dict(prefixes))


def parse(data: Union[str, bytes], fmt: str = "turtle") -> Graph:
    # N-Triples is a syntactic subset of what the Turtle reader accepts.
    if fmt not in ("turtle", "ntriples"):
        raise ValueError(f"unknown RDF format: {fmt!r}")
    return parse_turtle(data)
