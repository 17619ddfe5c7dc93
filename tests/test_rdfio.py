from __future__ import annotations

import copy
import heapq
import pickle
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.rdfio import (
    RDF_TYPE,
    XSD,
    BNode,
    Graph,
    IRI,
    Literal,
    RdfError,
    join_turtle,
    parse,
    parse_turtle,
    serialize,
    turtle_blocks,
    turtle_header,
)

from .oracles import (
    RefBNode,
    RefIRI,
    RefLiteral,
    reference_corpus_turtle,
    reference_ntriples,
    reference_term_key,
    reference_turtle,
)


def sample_graph() -> Graph:
    g = Graph()
    g.bind("ppa", "urn:pp-analyze:core#")
    g.bind("xsd", XSD)
    practice = IRI("urn:pp-analyze:node#p1")
    g.add(practice, IRI(RDF_TYPE), IRI("urn:pp-analyze:core#DataCollectionUse"))
    g.add(practice, IRI("urn:pp-analyze:core#sourceSegment"),
          Literal('He said "ok",\nthen left.\ttab\\slash'))
    g.add(practice, IRI("urn:pp-analyze:core#segmentIndex"),
          Literal("3", datatype=IRI(XSD + "integer")))
    g.add(BNode("party-1"), IRI(RDF_TYPE), IRI("urn:pp-analyze:core#ThirdParty"))
    g.add(practice, IRI("urn:pp-analyze:core#performedBy"), BNode("party-1"))
    g.add(practice, IRI("http://www.w3.org/2000/01/rdf-schema#label"),
          Literal("bonjour", lang="fr"))
    return g


@pytest.mark.parametrize("fmt", ["turtle", "ntriples"])
class TestRoundTrip:
    def test_round_trip_equals_triple_set(self, fmt):
        g = sample_graph()
        assert parse(serialize(g, fmt), fmt).triples == g.triples

    def test_empty_graph(self, fmt):
        g = Graph()
        data = serialize(g, fmt)
        if fmt == "ntriples":
            assert data == b""
        assert parse(data, fmt).triples == set()

    def test_serialization_is_deterministic(self, fmt):
        a, b = sample_graph(), sample_graph()
        assert serialize(a, fmt) == serialize(b, fmt)

    def test_insertion_order_does_not_matter(self, fmt):
        g1 = sample_graph()
        g2 = Graph(prefixes=dict(g1.prefixes))
        for t in reversed(sorted(g1.triples, key=repr)):
            g2.add(*t)
        assert serialize(g1, fmt) == serialize(g2, fmt)


class TestTurtleSubset:
    def test_prefixed_and_lists(self):
        ttl = """
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix dpv: <https://w3id.org/dpv#> .
        dpv:Marketing a rdfs:Class, dpv:Concept ;
            rdfs:subClassOf dpv:Purpose ;
            rdfs:label \"\"\"Marketing\"\"\" .
        """
        g = parse(ttl, "turtle")
        assert (IRI("https://w3id.org/dpv#Marketing"),
                IRI("http://www.w3.org/2000/01/rdf-schema#subClassOf"),
                IRI("https://w3id.org/dpv#Purpose")) in g.triples
        assert len(g) == 4

    def test_numeric_and_boolean_literals(self):
        g = parse('<urn:s> <urn:p> 42 . <urn:s> <urn:q> true .', "turtle")
        assert g.triples == {
            (IRI("urn:s"), IRI("urn:p"), Literal("42", datatype=IRI(XSD + "integer"))),
            (IRI("urn:s"), IRI("urn:q"), Literal("true", datatype=IRI(XSD + "boolean")))}

    def test_comments_ignored(self):
        g = parse("# hello\n<urn:s> <urn:p> <urn:o> . # trailing\n", "turtle")
        assert len(g) == 1

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(RdfError):
            parse("dpv:Marketing a dpv:Thing .", "turtle")

    @pytest.mark.parametrize("directive", [
        '@prefix ex: "lit" .',              # a literal for the namespace
        "@prefix ex: ex2:foo .",            # a prefixed name for the namespace
        "@prefix <urn:x> <urn:y> .",        # an IRI for the prefix
        '@base "x" .',                      # a literal for the base
    ])
    def test_malformed_directive_rejected(self, directive):
        keyword = directive.split()[0]
        with pytest.raises(RdfError, match=f"malformed {keyword} directive"):
            parse("@prefix ex2: <urn:ex2#> .\n" + directive + "\n<urn:s> <urn:p> <urn:o> .",
                  "turtle")

    def test_unterminated_statement_rejected(self):
        with pytest.raises(RdfError):
            parse("<urn:s> <urn:p> <urn:o>", "turtle")

    def test_bad_token_after_long_whitespace_and_comments_named(self):
        junk = " \n  # note # more\n" * 2000
        with pytest.raises(RdfError, match=r"unparseable RDF near: '\$'"):
            parse("<urn:s> <urn:p> <urn:o> ." + junk + "$", "turtle")

    def test_bad_token_between_good_ones_named(self):
        with pytest.raises(RdfError, match=r"unparseable RDF near: '\$ <urn:o> \.'"):
            parse("<urn:s> <urn:p> $ <urn:o> .", "turtle")

    def test_names_read_after_a_directive_use_its_binding(self):
        g = parse("@prefix ex: <urn:a#> . @base <urn:b/> . ex:s <p> ex:o .\n"
                  "@prefix ex: <urn:c#> . @base <urn:d/> . ex:s <p> ex:o .\n", "turtle")
        assert g.sorted_triples() == [
            (IRI("urn:a#s"), IRI("urn:b/p"), IRI("urn:a#o")),
            (IRI("urn:c#s"), IRI("urn:d/p"), IRI("urn:c#o")),
        ]
        assert g.prefixes == {"ex": "urn:c#"}

    @pytest.mark.parametrize("directives", [
        "prefix ex: <urn:a#> base <urn:b/>",
        "Prefix ex: <urn:a#> Base <urn:b/>",
        "PREFIX ex: <urn:a#> BASE <urn:b/>",
        "pReFiX ex: <urn:a#>\nbAsE <urn:b/>",
    ])
    def test_sparql_directives_read_in_any_case(self, directives):
        # Turtle 1.1 §2.4: PREFIX and BASE match case-insensitively, with no '.'
        g = parse(directives + "\nex:s <p> ex:o .", "turtle")
        assert g.sorted_triples() == [(IRI("urn:a#s"), IRI("urn:b/p"), IRI("urn:a#o"))]
        assert g.prefixes == {"ex": "urn:a#"}

    @pytest.mark.parametrize("name", ["PREFIX", "prefix", "BASE", "Base"])
    def test_directive_keyword_as_a_prefix_is_a_prefixed_name(self, name):
        g = parse(f"@prefix {name}: <urn:p#> .\n{name}:s {name}:p {name}:o .", "turtle")
        assert g.sorted_triples() == [(IRI("urn:p#s"), IRI("urn:p#p"), IRI("urn:p#o"))]
        assert g.prefixes == {name: "urn:p#"}

    def test_directive_iris_resolve_against_the_base_like_triple_iris(self):
        g = parse("@base <http://x.org/> . @prefix ex: <y#> . ex:a <p> <o> .", "turtle")
        assert g.sorted_triples() == [
            (IRI("http://x.org/y#a"), IRI("http://x.org/p"), IRI("http://x.org/o")),
        ]
        assert g.prefixes == {"ex": "http://x.org/y#"}

    def test_relative_base_after_an_absolute_one_resolves_against_it(self):
        g = parse("@base <http://x.org/> . @base <sub/> . <a> <p> <o> .", "turtle")
        assert g.sorted_triples() == [
            (IRI("http://x.org/sub/a"), IRI("http://x.org/sub/p"), IRI("http://x.org/sub/o")),
        ]

    # RFC 3986 §5.4.1, the normal examples, and §5.4.2, the abnormal ones
    # (with "http:g" read the strict way), against the base http://a/b/c/d;p?q
    RFC3986_EXAMPLES = {
        "g:h": "g:h", "g": "http://a/b/c/g", "./g": "http://a/b/c/g",
        "g/": "http://a/b/c/g/", "/g": "http://a/g", "//g": "http://g",
        "?y": "http://a/b/c/d;p?y", "g?y": "http://a/b/c/g?y", "#s": "http://a/b/c/d;p?q#s",
        "g#s": "http://a/b/c/g#s", "g?y#s": "http://a/b/c/g?y#s", ";x": "http://a/b/c/;x",
        "g;x": "http://a/b/c/g;x", "g;x?y#s": "http://a/b/c/g;x?y#s",
        "": "http://a/b/c/d;p?q", ".": "http://a/b/c/", "./": "http://a/b/c/",
        "..": "http://a/b/", "../": "http://a/b/", "../g": "http://a/b/g",
        "../..": "http://a/", "../../": "http://a/", "../../g": "http://a/g",
        "../../../g": "http://a/g", "../../../../g": "http://a/g", "/./g": "http://a/g",
        "/../g": "http://a/g", "g.": "http://a/b/c/g.", ".g": "http://a/b/c/.g",
        "g..": "http://a/b/c/g..", "..g": "http://a/b/c/..g", "./../g": "http://a/b/g",
        "./g/.": "http://a/b/c/g/", "g/./h": "http://a/b/c/g/h", "g/../h": "http://a/b/c/h",
        "g;x=1/./y": "http://a/b/c/g;x=1/y", "g;x=1/../y": "http://a/b/c/y",
        "g?y/./x": "http://a/b/c/g?y/./x", "g?y/../x": "http://a/b/c/g?y/../x",
        "g#s/./x": "http://a/b/c/g#s/./x", "g#s/../x": "http://a/b/c/g#s/../x",
        "http:g": "http:g",
    }

    @pytest.mark.parametrize("reference,target", RFC3986_EXAMPLES.items())
    def test_relative_iri_resolves_as_rfc3986_says(self, reference, target):
        g = parse(f"@base <http://a/b/c/d;p?q> . <urn:s> <urn:p> <{reference}> .", "turtle")
        assert g.sorted_triples() == [(IRI("urn:s"), IRI("urn:p"), IRI(target))]

    def test_relative_iri_drops_the_last_base_segment_and_dot_segments(self):
        g = parse("@base <http://x.org/a/b> . <c> <p> <../o> .", "turtle")
        assert g.sorted_triples() == [
            (IRI("http://x.org/a/c"), IRI("http://x.org/a/p"), IRI("http://x.org/o")),
        ]

    def test_relative_iri_resolves_against_a_base_without_authority(self):
        g = parse("@base <urn:x:a/b> . <c> <../p> <#o> .", "turtle")
        assert g.sorted_triples() == [
            (IRI("urn:x:a/c"), IRI("urn:p"), IRI("urn:x:a/b#o")),
        ]

    @pytest.mark.parametrize("text", [
        "@prefix", "@prefix ex:", "@base", "<a:b>", "<a:b> <c:d>", '<a:b> <c:d> "x"^^',
    ])
    def test_truncated_input_rejected(self, text):
        with pytest.raises(RdfError, match="unexpected end of input"):
            parse(text, "turtle")

    def test_literal_subject_rejected(self):
        with pytest.raises(RdfError):
            parse('"text" <urn:p> <urn:o> .', "turtle")

    @pytest.mark.parametrize("text, outcome", [
        # a ';' right before '.' ends the statement
        ("<urn:s> <urn:p> <urn:o> ; .", "<urn:s> <urn:p> <urn:o> .\n"),
        ('<urn:s> <urn:p> "x"^^"y" .', "literal datatype must be an IRI"),
        ('<urn:s> _:p <urn:o> .', "predicate must be an IRI"),
    ])
    def test_statement_read_or_refused(self, text, outcome):
        """The N-Triples of what is read, or the reader's error message."""
        try:
            got = serialize(parse(text, "turtle"), "ntriples").decode()
        except RdfError as exc:
            got = str(exc)
        assert got == outcome

    @pytest.mark.parametrize("call", [lambda: parse("", "rdfxml"),
                                      lambda: serialize(Graph(), "rdfxml")])
    def test_unknown_format_rejected(self, call):
        with pytest.raises(ValueError, match="unknown RDF format: 'rdfxml'"):
            call()

    # Examples from the Turtle 1.1 specification (https://www.w3.org/TR/turtle/),
    # sections 2.5.2 and 2.8.
    SPEC_BLANK_NODE_LISTS = [
        '@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n'
        '# Someone knows someone else, who has the name "Bob".\n'
        '[] foaf:knows [ foaf:name "Bob" ] .\n',
        '@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n'
        '[ foaf:name "Alice" ] foaf:knows [\n'
        '    foaf:name "Bob" ;\n'
        '    foaf:knows [\n'
        '        foaf:name "Eve" ] ;\n'
        '    foaf:mbox <bob@example.com> ] .\n',
    ]
    SPEC_COLLECTION = (
        '@prefix : <http://example.org/foo> .\n'
        '# the object of this triple is the RDF collection blank node\n'
        ':subject :predicate ( :a :b :c ) .\n'
        '# an empty collection value - rdf:nil\n'
        ':subject :predicate2 () .\n'
    )

    @pytest.mark.parametrize("text", SPEC_BLANK_NODE_LISTS)
    def test_blank_node_property_list_named_as_unsupported(self, text):
        with pytest.raises(RdfError, match=r"unsupported Turtle syntax: blank-node property list"):
            parse(text, "turtle")

    def test_collection_named_as_unsupported(self):
        with pytest.raises(RdfError, match=r"unsupported Turtle syntax: collection"):
            parse(self.SPEC_COLLECTION, "turtle")


_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=40,
)


@given(texts=st.lists(_literal_text, min_size=1, max_size=8))
@settings(max_examples=100)
def test_arbitrary_literals_round_trip(texts):
    g = Graph()
    for i, text in enumerate(texts):
        g.add(IRI(f"urn:s{i}"), IRI("urn:p"), Literal(text))
    for fmt in ("turtle", "ntriples"):
        assert parse(serialize(g, fmt), fmt).triples == g.triples


# -- lookup indexes against a brute-force scan --

_SUBJECTS = [IRI("urn:s0"), IRI("urn:s1"), BNode("b0")]
_PREDICATES = [IRI(RDF_TYPE), IRI("urn:p0"), IRI("urn:p1")]
_OBJECTS = _SUBJECTS + [IRI("urn:T"), Literal("x"), Literal("x", lang="en")]
_triple = st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                    st.sampled_from(_OBJECTS))
_operation = st.one_of(
    st.tuples(st.just("add"), _triple),
    st.tuples(st.just("update"), st.lists(_triple, max_size=4)),
    st.just(("lookup", None)),
)


def _pair_key(pair: tuple) -> tuple:
    return (reference_term_key(pair[0]), reference_term_key(pair[1]))


def assert_lookups_match_scan(g: Graph) -> None:
    triples = set(g.triples)
    for s in _SUBJECTS:
        assert sorted(g.predicate_objects(s), key=_pair_key) == sorted(
            [(p, o) for (s2, p, o) in triples if s2 == s], key=_pair_key)
        for p in _PREDICATES:
            assert g.objects(s, p) == sorted(
                [o for (s2, p2, o) in triples if (s2, p2) == (s, p)], key=reference_term_key)
    for o in _OBJECTS:
        assert g.subjects_of_type(o) == {s for (s, p, o2) in triples
                                         if p == IRI(RDF_TYPE) and o2 == o}


@given(operations=st.lists(_operation, max_size=12))
@settings(max_examples=150)
def test_index_lookups_equal_scan_after_any_interleaving(operations):
    g = Graph()
    for kind, arg in operations:
        if kind == "add":
            g.add(*arg)
        elif kind == "update":
            other = Graph()
            for t in arg:
                other.add(*t)
            g.update(other)
        else:
            assert_lookups_match_scan(g)
    assert_lookups_match_scan(g)


@given(triples=st.lists(_triple, max_size=12))
@settings(max_examples=100)
def test_by_subject_is_in_term_order(triples):
    g = Graph()
    for t in triples:
        g.add(*t)
    walked = [(s, p, o) for s, by_pred in g.by_subject().items()
              for p, objs in by_pred.items() for o in objs]
    assert walked == sorted(set(triples), key=lambda t: tuple(map(reference_term_key, t)))


def test_update_adds_new_prefixes_and_keeps_its_own_bindings():
    g, other = Graph(), Graph()
    g.bind("ex", "http://example.org/mine#")
    other.bind("ex", "http://example.org/theirs#")
    other.bind("dpv", "https://w3id.org/dpv#")
    other.add(IRI("http://example.org/theirs#a"), IRI(RDF_TYPE), IRI("https://w3id.org/dpv#B"))
    g.update(other)
    assert g.prefixes == {"ex": "http://example.org/mine#", "dpv": "https://w3id.org/dpv#"}
    assert g.triples == other.triples


def test_lookup_results_are_copies():
    g = sample_graph()
    practice = IRI("urn:pp-analyze:node#p1")
    g.objects(practice, IRI(RDF_TYPE)).clear()
    g.subjects_of_type(IRI("urn:pp-analyze:core#DataCollectionUse")).clear()
    assert g.objects(practice, IRI(RDF_TYPE)) == [IRI("urn:pp-analyze:core#DataCollectionUse")]
    assert g.subjects_of_type(IRI("urn:pp-analyze:core#DataCollectionUse")) == {practice}


def test_index_is_not_part_of_equality():
    indexed, plain = sample_graph(), sample_graph()
    indexed.objects(IRI("urn:pp-analyze:node#p1"), IRI(RDF_TYPE))
    assert indexed == plain
    assert "_spo" not in repr(indexed)


# -- serializer bytes against the sort-everything reference --

_NAMESPACES = ["urn:pp-analyze:core#", "https://w3id.org/dpv#", "http://example.org/x/"]
_PREFIXES = {"ppa": "urn:pp-analyze:core#", "dpv": "https://w3id.org/dpv#",
             "ex": "http://example.org/", "exx": "http://example.org/x/"}
_iri = st.builds(lambda ns, local: IRI(ns + local), st.sampled_from(_NAMESPACES),
                 st.sampled_from(["a", "b1", "c-d", "1x", "e.f", "g_h", ""]))
_bnode = st.builds(BNode, st.sampled_from(["b0", "b1", "party-x"]))
_literal = st.builds(
    Literal,
    st.text(alphabet='ab "\\\n\t\ré', max_size=6),
    st.one_of(st.none(), st.sampled_from([IRI(XSD + "integer"), IRI("urn:dt")])),
    st.sampled_from([None, "en", "fr-CA"]),
)
_any_triple = st.tuples(st.one_of(_iri, _bnode),
                        st.one_of(_iri, st.just(IRI(RDF_TYPE))),
                        st.one_of(_iri, _bnode, _literal))


@given(triples=st.lists(_any_triple, max_size=25),
       prefixes=st.dictionaries(st.sampled_from(sorted(_PREFIXES)),
                                st.sampled_from(sorted(_PREFIXES.values()))))
@settings(max_examples=200)
def test_serializers_match_reference_bytes(triples, prefixes):
    g = Graph(prefixes=dict(prefixes))
    for t in triples:
        g.add(*t)
    assert serialize(g, "turtle") == reference_turtle(g.triples, g.prefixes)
    assert serialize(g, "ntriples") == reference_ntriples(g.triples)
    # a second serialization walks the already-built index
    assert serialize(g, "turtle") == reference_turtle(g.triples, g.prefixes)


@given(triples=st.lists(_any_triple, max_size=25), parts=st.integers(1, 4),
       prefixes=st.dictionaries(st.sampled_from(sorted(_PREFIXES)),
                                st.sampled_from(sorted(_PREFIXES.values()))))
@settings(max_examples=200)
def test_merged_blocks_of_disjoint_graphs_equal_the_union(triples, parts, prefixes):
    # each subject goes to one part, so the parts have disjoint subjects
    subjects = sorted({s for s, _, _ in triples})
    graphs = [Graph(prefixes=dict(prefixes)) for _ in range(parts)]
    for s, p, o in triples:
        graphs[subjects.index(s) % parts].add(s, p, o)
    merged = heapq.merge(*map(turtle_blocks, graphs), key=itemgetter(0))
    assert (join_turtle(turtle_header(prefixes), map(itemgetter(1), merged))
            == reference_corpus_turtle(graphs, prefixes))


# -- escaping --

_escape_heavy = st.lists(
    st.sampled_from(["\\", '"', "\n", "\t", "\r", "\\u00e9", "\\U0001F600", "\u00e9",
                     "\U0001F600", "'", "a", " "]),
    max_size=12,
).map("".join)


@given(texts=st.lists(_escape_heavy, min_size=1, max_size=6))
@settings(max_examples=150)
def test_escape_heavy_literals_round_trip(texts):
    g = Graph()
    for i, text in enumerate(texts):
        g.add(IRI(f"urn:s{i}"), IRI("urn:p"), Literal(text, lang="en" if i % 2 else None))
    for fmt in ("turtle", "ntriples"):
        assert parse(serialize(g, fmt), fmt).triples == g.triples


def test_numeric_escapes_are_unescaped():
    g = parse('<urn:s> <urn:p> "caf\\u00e9 \\U0001F600\\tend" .', "turtle")
    assert g.objects(IRI("urn:s"), IRI("urn:p")) == [Literal("caf\u00e9 \U0001F600\tend")]


def test_one_leading_byte_order_mark_is_skipped():
    data = '@prefix x: <urn:x#> .\nx:s x:p "caf\u00e9" .\n'.encode("utf-8")
    bom = "\ufeff".encode("utf-8")
    assert parse_turtle(bom + data) == parse_turtle(data)
    with pytest.raises(RdfError):
        parse_turtle(bom + bom + data)


# -- terms against the frozen-dataclass reference --

def native(ref):
    if isinstance(ref, RefIRI):
        return IRI(ref.value)
    if isinstance(ref, RefBNode):
        return BNode(ref.label)
    return Literal(ref.lexical, native(ref.datatype) if ref.datatype else None, ref.lang)


_shared = st.sampled_from(["x", "urn:x", "", "a b", 'q"\\', "\n\t\r", "é", "\U0001F600"])
_strings = _shared | st.text(max_size=5)
_ref_terms = st.one_of(
    st.builds(RefIRI, _strings),
    st.builds(RefBNode, _strings),
    # no empty language tag or datatype IRI: see test_empty_tag_and_datatype_mean_none
    st.builds(RefLiteral, _strings,
              st.none() | st.builds(RefIRI, st.sampled_from([XSD + "integer", "urn:dt", "x"])),
              st.sampled_from([None, "en", "fr-CA", "EN", "x"])),
)


@given(refs=st.lists(_ref_terms, max_size=12))
@settings(max_examples=300)
def test_terms_agree_with_the_reference(refs):
    terms = [native(r) for r in refs]
    for ref, term in zip(refs, terms):
        assert repr(term) == repr(ref)
        assert tuple(term) == reference_term_key(ref)
        for ref2, term2 in zip(refs, terms):
            assert (term == term2) == (ref == ref2)
            assert (term < term2) == (reference_term_key(ref) < reference_term_key(ref2))
    assert sorted(terms) == [native(r) for r in sorted(refs, key=reference_term_key)]
    for k in range(len(refs) + 1):
        ref_set, term_set = set(refs[:k]), set(terms[:k])
        assert len(term_set) == len(ref_set)
        assert [t in term_set for t in terms] == [r in ref_set for r in refs]
    positions = {term: i for i, term in enumerate(terms)}
    ref_positions = {ref: i for i, ref in enumerate(refs)}
    assert [positions[t] for t in terms] == [ref_positions[r] for r in refs]


@given(ref=_ref_terms)
def test_term_attributes_pickle_and_copy(ref):
    term = native(ref)
    for name in ("value", "label", "lexical", "lang"):
        assert getattr(term, name, None) == getattr(ref, name, None)
    if isinstance(ref, RefLiteral):
        assert term.datatype == (native(ref.datatype) if ref.datatype else None)
    for clone in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert clone == term and type(clone) is type(term)


def test_terms_sharing_one_string_stay_apart():
    terms = [IRI("x"), BNode("x"), Literal("x"), Literal("x", lang="en"),
             Literal("x", datatype=IRI("x")), Literal("x", datatype=IRI("y"))]
    assert len(set(terms)) == len(terms)
    assert sorted(reversed(terms)) == [IRI("x"), BNode("x"), Literal("x"),
                                       Literal("x", lang="en"), Literal("x", datatype=IRI("x")),
                                       Literal("x", datatype=IRI("y"))]


def test_empty_tag_and_datatype_mean_none():
    # The dataclass terms kept Literal("x", lang="") and
    # Literal("x", datatype=IRI("")) apart from Literal("x") although all
    # three had one sort key; a term now is its sort key, so they are one
    # term.  The reader never makes either.
    assert Literal("x", lang="") == Literal("x") == Literal("x", datatype=IRI(""))
    assert Literal("x", lang="").lang is None
    assert Literal("x", datatype=IRI("")).datatype is None
    assert RefLiteral("x", lang="") != RefLiteral("x")


def test_a_term_equals_the_plain_tuple_of_its_items():
    # which is why a graph holds terms only, never plain tuples
    assert IRI("x") == (0, "x", "", "") and hash(IRI("x")) == hash((0, "x", "", ""))


_round_trip_iri = st.builds(RefIRI, st.text(alphabet="abz09:/#-._~é", min_size=1, max_size=8))
_round_trip_terms = st.tuples(
    _round_trip_iri | st.builds(RefBNode, st.sampled_from(["b0", "b1", "party-x"])),
    _round_trip_iri,
    # RDF gives a literal a language tag or a datatype, not both
    _round_trip_iri | st.builds(RefLiteral, _escape_heavy,
                                st.none() | st.just(RefIRI(XSD + "integer")))
    | st.builds(RefLiteral, _escape_heavy, st.none(), st.just("en")),
)


@given(triples=st.lists(_round_trip_terms, max_size=12))
@settings(max_examples=150)
def test_reference_terms_round_trip_in_reference_order(triples):
    g = Graph(prefixes={"xsd": XSD})
    for t in triples:
        g.add(*map(native, t))
    for fmt in ("turtle", "ntriples"):
        parsed = parse(serialize(g, fmt), fmt)
        assert parsed.triples == g.triples
        expected = sorted(set(triples), key=lambda t: tuple(map(reference_term_key, t)))
        assert parsed.sorted_triples() == [tuple(map(native, t)) for t in expected]
