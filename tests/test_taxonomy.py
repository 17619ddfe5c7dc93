from __future__ import annotations

import re
from collections import Counter

import pytest

from ppanalyze import Error
from ppanalyze.taxonomy import (
    DPV,
    DPV_PD,
    Taxonomy,
    TaxonomyNode,
    UnresolvedTermError,
    default_snapshot_path,
    load_taxonomy,
    local_name,
    normalize_label,
)


def write_tsv(tmp_path, rows, version=None):
    lines = []
    if version:
        lines.append(f"#! version={version}")
    lines += ["\t".join(row) for row in rows]
    p = tmp_path / "tax.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def descendants(taxonomy, iri):
    """IRIs below `iri`, by closing over `children`."""
    found = set()
    stack = list(taxonomy.nodes[iri].children)
    while stack:
        child = stack.pop()
        if child not in found:
            found.add(child)
            stack.extend(taxonomy.nodes[child].children)
    return found


class TestLoadTabular:
    def test_two_node_purpose_hierarchy(self, tmp_path):
        p = write_tsv(tmp_path, [
            ("dpv:Purpose", "", "Purpose"),
            ("dpv:Marketing", "dpv:Purpose", "Marketing"),
        ])
        tax = load_taxonomy(p)
        assert len(tax.nodes) == 2
        marketing = tax.resolve_term("Marketing", "purpose")
        assert tax.is_leaf(marketing)
        assert not tax.is_leaf(tax.nodes[DPV + "Purpose"])

    def test_cycle_detected(self, tmp_path):
        p = write_tsv(tmp_path, [
            ("dpv:Purpose", "", "Purpose"),
            ("urn:a", "urn:b", "A"),
            ("urn:b", "urn:a", "B"),
        ])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == "cycle in class hierarchy: urn:a -> urn:b -> urn:a"

    def test_cycle_reported_child_to_parent(self, tmp_path):
        # a has two parents, the root and c; the cycle runs a -> c -> b -> a
        p = write_tsv(tmp_path, [
            ("dpv:Purpose", "", "Purpose"),
            ("urn:a", "dpv:Purpose", "A"),
            ("urn:a", "urn:c", "A"),
            ("urn:c", "urn:b", "C"),
            ("urn:b", "urn:a", "B"),
        ])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == "cycle in class hierarchy: urn:a -> urn:c -> urn:b -> urn:a"

    def test_version_directive(self, tmp_path):
        p = write_tsv(tmp_path, [("dpv:Purpose", "", "Purpose")], version="v42")
        assert load_taxonomy(p).version == "v42"

    def test_unknown_root_kind_rejected(self, tmp_path):
        p = write_tsv(tmp_path, [("urn:Mystery", "", "Mystery")])
        with pytest.raises(Error, match="cannot infer kind .* for root urn:Mystery"):
            load_taxonomy(p)

    @pytest.mark.parametrize("column", ["child", "parent"])
    @pytest.mark.parametrize("iri, written", [
        ("pd:Email Address", DPV_PD + "Email Address"),
        ("urn:x:a\u00a0b", "urn:x:a\u00a0b"),
        *((f"urn:x:a{c}b", f"urn:x:a{c}b") for c in '<>"{}|^`\\'),
    ])
    def test_iri_the_turtle_writer_cannot_write_is_refused(self, tmp_path, column, iri,
                                                           written):
        row = (iri, "dpv:Purpose", "A") if column == "child" else ("urn:x:a", iri, "A")
        p = write_tsv(tmp_path, [("dpv:Purpose", "", "Purpose"), row])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value).startswith(f"{p}:2: IRI {written!r} cannot be written to Turtle")


class TestFormatWithoutSuffix:
    def test_tsv(self, tmp_path):
        tsv = write_tsv(tmp_path, [("dpv:Purpose", "", "Purpose"),
                                   ("dpv:Marketing", "dpv:Purpose", "Marketing")], version="v7")
        p = tmp_path / "taxonomy"
        p.write_text("# a comment\n\n" + tsv.read_text(encoding="utf-8"), encoding="utf-8")
        tax = load_taxonomy(p)
        assert (tax.version, sorted(tax.nodes)) == ("v7", [DPV + "Marketing", DPV + "Purpose"])

    def test_tab_indented_turtle(self, tmp_path):
        # the last line has three tab-separated columns, as a TSV row would
        p = tmp_path / "taxonomy"
        p.write_text("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
                     "@prefix dpv: <https://w3id.org/dpv#> .\n"
                     "dpv:Marketing\n"
                     "\trdfs:subClassOf dpv:Purpose ;\n"
                     "\trdfs:label \"Marketing\" .\n"
                     "dpv:Advertising rdfs:subClassOf dpv:Marketing ;\n"
                     "\t\trdfs:label \"Advertising\" .\n", encoding="utf-8")
        tax = load_taxonomy(p)
        node = tax.resolve_term("Advertising", "purpose")
        assert [a.label for a in tax.ancestors(node)] == ["Purpose", "Marketing"]

    @pytest.mark.parametrize("first", [
        "",
        '_:release\t<http://www.w3.org/2002/07/owl#versionInfo>\t"v9" .\n',
    ], ids=["iri subject", "blank node subject"])
    def test_tab_separated_ntriples(self, tmp_path, first):
        data = (first + f"<{DPV}Marketing>\t<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
                f"\t<{DPV}Purpose> .\n"
                f'<{DPV}Marketing>\t<http://www.w3.org/2000/01/rdf-schema#label>\t"Marketing" .\n'
                ).encode("utf-8")
        (tmp_path / "taxonomy").write_bytes(data)
        (tmp_path / "taxonomy.nt").write_bytes(data)
        sniffed, named = (load_taxonomy(tmp_path / name) for name in ("taxonomy", "taxonomy.nt"))
        assert (sniffed.version, sniffed.nodes) == (named.version, named.nodes)
        assert sorted(named.nodes) == [DPV + "Marketing", DPV + "Purpose"]


class TestByteOrderMark:
    """A file that opens with a UTF-8 byte-order mark loads as it would without."""

    def test_tsv_snapshot(self, tmp_path):
        plain = default_snapshot_path()
        p = tmp_path / "snapshot.tsv"
        p.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
        tax, expected = load_taxonomy(p), load_taxonomy(plain)
        assert (tax.version, tax.nodes) == (expected.version, expected.nodes)

    def test_turtle(self, tmp_path):
        p = tmp_path / "tax.ttl"
        p.write_text("\ufeff" + TestLoadRdf.TTL.lstrip(), encoding="utf-8")
        tax = load_taxonomy(p)
        assert tax.version == "2.0-test"
        assert sorted(tax.nodes) == [DPV + "Advertising", DPV + "Marketing", DPV + "Purpose"]


class TestLoadErrors:
    """Each taxonomy that cannot be loaded ends in one `Error`."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(Error) as err:
            load_taxonomy(tmp_path / "absent.tsv")
        assert str(err.value) == f"taxonomy file not found: {tmp_path / 'absent.tsv'}"

    def test_tsv_row_with_two_columns(self, tmp_path):
        p = write_tsv(tmp_path, [("urn:x:Purpose", "", "Purpose"), ("urn:x:a", "urn:x:Purpose")])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == f"{p}:2: expected 3 tab-separated columns, got 2"

    def test_unparseable_turtle_names_the_file(self, tmp_path):
        p = tmp_path / "tax.ttl"
        p.write_text("@prefix x: <urn:x#> .\nx:a x:b .\n", encoding="utf-8")
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == f"cannot parse {p}: unexpected token '.'"

    def test_tsv_row_with_an_empty_child_column(self, tmp_path):
        p = write_tsv(tmp_path, [("dpv:Purpose", "", "Purpose"), ("", "dpv:Purpose", "Marketing")])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == f"{p}:2: the child column is empty"

    def test_rdf_class_with_the_empty_iri(self, tmp_path):
        p = tmp_path / "tax.ttl"
        p.write_text("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
                     "@prefix dpv: <https://w3id.org/dpv#> .\n"
                     "<> rdfs:subClassOf dpv:Purpose .\n", encoding="utf-8")
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == f"{p}: a class has the empty IRI <> (a relative IRI with no @base)"

    def test_rdf_without_subclass_statements(self, tmp_path):
        p = tmp_path / "tax.nt"
        p.write_text('<urn:x:a> <http://www.w3.org/2000/01/rdf-schema#label> "a" .\n',
                     encoding="utf-8")
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == f"{p} contains no rdfs:subClassOf statements"

    def test_node_under_a_data_and_a_purpose_root(self, tmp_path):
        p = write_tsv(tmp_path, [("urn:x:Purpose", "", "Purpose"),
                                 ("urn:x:PersonalData", "", "Personal data"),
                                 ("urn:x:both", "urn:x:Purpose", "both"),
                                 ("urn:x:both", "urn:x:PersonalData", "both")])
        with pytest.raises(Error) as err:
            load_taxonomy(p)
        assert str(err.value) == "node urn:x:both reachable from both data and purpose roots"


class TestLoadRdf:
    TTL = """
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix skos: <http://www.w3.org/2004/02/skos/core#> .
    @prefix owl: <http://www.w3.org/2002/07/owl#> .
    @prefix dpv: <https://w3id.org/dpv#> .
    dpv: owl:versionInfo "2.0-test" .
    dpv:Marketing rdfs:subClassOf dpv:Purpose ;
        rdfs:label "Marketing" ; skos:altLabel "Promotion" .
    dpv:Advertising rdfs:subClassOf dpv:Marketing ; rdfs:label "Advertising" .
    """

    def test_turtle_hierarchy(self, tmp_path):
        p = tmp_path / "tax.ttl"
        p.write_text(self.TTL, encoding="utf-8")
        tax = load_taxonomy(p)
        assert tax.version == "2.0-test"
        assert len(tax.nodes) == 3
        node = tax.resolve_term("Advertising", "purpose")
        assert [a.label for a in tax.ancestors(node)] == ["Purpose", "Marketing"]

    def test_synonym_resolves(self, tmp_path):
        p = tmp_path / "tax.ttl"
        p.write_text(self.TTL, encoding="utf-8")
        tax = load_taxonomy(p)
        assert tax.resolve_term("Promotion", "purpose").iri == DPV + "Marketing"

    def test_node_count_matches_subclass_scan(self):
        # DERIVED oracle: scan the snapshot independently of the loader
        path = default_snapshot_path()
        iris = set()
        for line in path.read_text(encoding="utf-8").split("\n"):
            if not line.strip() or line.startswith("#"):
                continue
            child, parent, _label = line.split("\t")
            for token in (child, parent):
                if not token:
                    continue
                token = token.replace("dpv:", DPV).replace("pd:", DPV_PD)
                iris.add(token)
        tax = load_taxonomy(path)
        assert len(tax.nodes) == len(iris)


class TestResolveTerm:
    def test_curie_and_label_variants(self, taxonomy):
        marketing = taxonomy.nodes[DPV + "Marketing"]
        for term in ("dpv:Marketing", "marketing", "Marketing", DPV + "Marketing"):
            assert taxonomy.resolve_term(term, "purpose") is marketing

    def test_label_with_spaces(self, taxonomy):
        node = taxonomy.resolve_term("Targeted Advertising", "purpose")
        assert node.iri == DPV + "TargetedAdvertising"

    def test_unresolved(self, taxonomy):
        with pytest.raises(UnresolvedTermError) as err:
            taxonomy.resolve_term("FlyingToTheMoon", "purpose")
        assert str(err.value) == "cannot resolve purpose term: 'FlyingToTheMoon'"

    def test_wrong_kind_is_unresolved(self, taxonomy):
        taxonomy.resolve_term("Personal Data", "data")
        with pytest.raises(UnresolvedTermError):
            taxonomy.resolve_term("Personal Data", "purpose")

    def test_every_unique_label_resolves_to_its_node(self, taxonomy):
        # how many nodes of a kind each normalized label, local name or synonym names
        named = Counter(key for node in taxonomy.nodes.values()
                        for key in {(node.kind, normalize_label(name)) for name in
                                    (node.label, local_name(node.iri), *node.synonyms)})
        for node in taxonomy.nodes.values():
            if named[node.kind, normalize_label(node.label)] > 1:
                continue
            assert taxonomy.resolve_term(node.label, node.kind) is node


class TestHierarchyOps:
    def test_chain_ancestors(self, taxonomy):
        node = taxonomy.nodes[DPV + "TargetedAdvertising"]
        assert [a.iri for a in taxonomy.ancestors(node)] == [
            DPV + "Purpose", DPV + "Marketing", DPV + "Advertising",
            DPV + "PersonalisedAdvertising",
        ]

    def test_root_has_no_ancestors(self, taxonomy):
        assert taxonomy.ancestors(taxonomy.nodes[DPV + "Purpose"]) == []

    def test_descendants_of_root_is_everything_else(self, taxonomy):
        roots = [n for n in taxonomy.nodes.values() if n.depth == 0]
        assert sorted(n.kind for n in roots) == ["data", "purpose"]
        for root in roots:
            kind_nodes = {n.iri for n in taxonomy.nodes.values() if n.kind == root.kind}
            assert descendants(taxonomy, root.iri) == kind_nodes - {root.iri}

    def test_is_leaf_iff_no_descendants(self, taxonomy):
        for node in taxonomy.nodes.values():
            assert taxonomy.is_leaf(node) == (not descendants(taxonomy, node.iri))

    def test_node_in_descendants_of_each_ancestor(self, taxonomy):
        for node in taxonomy.nodes.values():
            for ancestor in taxonomy.ancestors(node):
                assert node.iri in descendants(taxonomy, ancestor.iri)

    def test_foreign_node_rejected(self, taxonomy):
        foreign = TaxonomyNode("urn:other", "Other", "data", (), ())
        with pytest.raises(Error, match="^node not in this taxonomy: urn:other$"):
            taxonomy.is_leaf(foreign)

    def test_multi_parent_ancestors_deterministic(self, tmp_path):
        p = write_tsv(tmp_path, [
            ("dpv:Purpose", "", "Purpose"),
            ("urn:x:A", "dpv:Purpose", "A"),
            ("urn:x:B", "dpv:Purpose", "B"),
            ("urn:x:C", "urn:x:A", "C"),
        ])
        # add the second parent edge for C
        with p.open("a", encoding="utf-8") as f:
            f.write("urn:x:C\turn:x:B\tC\n")
        tax = load_taxonomy(p)
        node = tax.nodes["urn:x:C"]
        assert node.parents == ("urn:x:A", "urn:x:B")
        # lexicographically smallest root path goes through urn:x:A
        assert [a.iri for a in tax.ancestors(node)] == [
            "https://w3id.org/dpv#Purpose", "urn:x:A",
        ]


class TestCollisions:
    def test_shallower_node_wins(self, tmp_path):
        p = write_tsv(tmp_path, [
            ("dpv:Purpose", "", "Purpose"),
            ("urn:x:shallow", "dpv:Purpose", "SameName"),
            ("urn:x:mid", "dpv:Purpose", "Mid"),
            ("urn:x:deep", "urn:x:mid", "SameName"),
        ])
        tax = load_taxonomy(p)
        assert tax.resolve_term("SameName", "purpose").iri == "urn:x:shallow"
        # the deeper node keeps its IRI
        assert tax.resolve_term("urn:x:deep", "purpose").label == "SameName"
