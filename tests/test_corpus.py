from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze import Error
from ppanalyze.corpus import (
    AlignmentError,
    BratParseError,
    CorpusError,
    DanglingReferenceError,
    align_gold,
    load_policy,
    parse_brat,
    read_annotation_conf,
    segment_lines,
    validate_gold_labels,
)

from .oracles import scan_lines


def entity_fields(entity) -> tuple:
    return (entity.id, entity.type, entity.char_start, entity.covering_text)


def t_line_fields(line: str, text: str) -> tuple:
    """A brat T line's id, type and covering span start with the text over
    the covering span, read independently of `parse_brat`."""
    tid, middle, _surface = line.split("\t")
    etype, span_str = middle.split(" ", 1)
    offsets = [int(x) for fragment in span_str.split(";") for x in fragment.split()]
    start, end = min(offsets), max(offsets)
    return (tid, etype, start, text[start:end])


class TestSegmentLines:
    def test_two_lines_around_blank(self):
        segments = segment_lines("a\n\nb")
        assert [(s.char_start, s.char_end, s.text) for s in segments] == [
            (0, 1, "a"), (3, 4, "b"),
        ]

    def test_empty_text(self):
        assert segment_lines("") == []

    def test_whitespace_only(self):
        assert segment_lines("  \n\t\n") == []

    def test_offsets_point_at_trimmed_core(self):
        text = "  hello world  \n\tnext\n"
        segments = segment_lines(text)
        for seg in segments:
            assert text[seg.char_start:seg.char_end] == seg.text
            assert seg.text == seg.text.strip()

    def test_matches_independent_line_scanner(self):
        text = "First line.\n\n  indented line\t\n\n\nlast\n   \n"
        segments = segment_lines(text)
        assert [(s.char_start, s.char_end, s.text) for s in segments] == scan_lines(text)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
    @settings(max_examples=200)
    def test_agrees_with_scanner_on_arbitrary_text(self, text):
        # the scanner treats only '\n' as a line break, like the segmenter
        segments = segment_lines(text)
        assert [(s.char_start, s.char_end, s.text) for s in segments] == scan_lines(text)

    @given(st.text(max_size=120))
    def test_invariants(self, text):
        segments = segment_lines(text)
        previous_end = -1
        for i, seg in enumerate(segments):
            assert seg.index == i
            assert seg.char_start < seg.char_end
            assert seg.char_start > previous_end
            previous_end = seg.char_end
            assert text[seg.char_start:seg.char_end] == seg.text
            assert seg.text.strip() == seg.text and seg.text
        # concatenation reproduces the non-blank trimmed lines
        trimmed = [line.strip() for line in text.split("\n") if line.strip()]
        assert [s.text for s in segments] == trimmed

    @given(st.text(max_size=120))
    def test_idempotent_on_segment_text(self, text):
        for seg in segment_lines(text):
            again = segment_lines(seg.text)
            assert len(again) == 1
            assert again[0].text == seg.text


class TestLoadPolicy:
    def test_counts_segments(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("one\ntwo\nthree\n", encoding="utf-8")
        doc = load_policy(p, "example.org")
        assert doc.service_id == "example.org"
        assert len(doc.segments) == 3

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        assert load_policy(p, "x").segments == ()

    def test_blank_lines_keep_offsets_valid(self, tmp_path):
        p = tmp_path / "p.txt"
        text = "para one\n\n\npara two\n"
        p.write_text(text, encoding="utf-8")
        doc = load_policy(p, "x")
        assert [(s.char_start, s.char_end, s.text) for s in doc.segments] == scan_lines(text)
        for seg in doc.segments:
            assert text[seg.char_start:seg.char_end] == seg.text

    def test_crlf_normalized(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_bytes(b"one\r\ntwo\r\n")
        doc = load_policy(p, "x")
        # offsets index the text read with LF line endings: "one\ntwo\n"
        assert [(s.char_start, s.char_end, s.text) for s in doc.segments] == [
            (0, 3, "one"), (4, 7, "two")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_policy(tmp_path / "nope.txt", "x")

    def test_binary_rejected(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"PK\x00\x01binary")
        with pytest.raises(CorpusError):
            load_policy(p, "x")

    def test_bad_utf8_rejected(self, tmp_path):
        p = tmp_path / "latin.txt"
        p.write_bytes(b"caf\xe9")
        with pytest.raises(CorpusError):
            load_policy(p, "x")


def write_pair(tmp_path, text, ann):
    t = tmp_path / "doc.txt"
    a = tmp_path / "doc.ann"
    t.write_text(text, encoding="utf-8")
    a.write_text(ann, encoding="utf-8")
    return t, a


class TestParseBrat:
    def test_entity_line(self, tmp_path):
        text = "0123456789email addresses tail"
        t, a = write_pair(tmp_path, text, "T1\tdata 10 25\temail addresses\n")
        gold = parse_brat(t, a)
        (ent,) = gold.entities
        assert (ent.type, ent.char_start, ent.covering_text) == ("data", 10, "email addresses")

    def test_event_line(self, tmp_path):
        text = "we collect your email"
        ann = (
            "T1\tfirst-party 0 2\twe\n"
            "T2\tdata 11 21\tyour email\n"
            "T3\tcollection-use 3 10\tcollect\n"
            "E1\tcollection-use:T3 data-collector:T1 data:T2\n"
        )
        t, a = write_pair(tmp_path, text, ann)
        gold = parse_brat(t, a)
        (event,) = gold.events
        assert (event.trigger.id, event.trigger.covering_text) == ("T3", "collect")
        assert event.roles == (("data-collector", "T1"), ("data", "T2"))

    def test_dangling_reference(self, tmp_path):
        text = "we collect data"
        ann = "T1\tdata 11 15\tdata\nE1\tcollection-use:T1 data:T99\n"
        t, a = write_pair(tmp_path, text, ann)
        with pytest.raises(DanglingReferenceError) as err:
            parse_brat(t, a)
        assert "T99" in str(err.value)
        assert str(err.value).startswith(f"{a}: ")

    def test_malformed_line_reports_position(self, tmp_path):
        t, a = write_pair(tmp_path, "text", "T1\tbroken\n")
        with pytest.raises(BratParseError) as err:
            parse_brat(t, a)
        assert str(err.value) == f"{a}: malformed T line (line 1: 'T1\\tbroken')"

    @pytest.mark.parametrize("line, reason", [
        ("E1 collection-use:T1", "malformed E line"),
        ("E1\tcollection-use", "malformed E line"),
        ("R1\trelated Arg1:T1", "malformed R line"),
        ("A1\tDPV", "malformed A line"),
        ("#1\tAnnotatorNotes T1", "malformed note line"),
        ("X1\tsomething", "unknown annotation line type"),
        ("T1\tdata 11 99\tdata", "invalid span offsets"),     # past the end of the text
        ("T1\tdata 5 2\tx", "invalid span offsets"),          # ends before it starts
        ("T1\tdata 1x 5\tdata", "malformed T line"),          # a non-numeric offset
        ("T1\tdata 0 2 5\twe", "malformed span in T line"),   # three offsets
    ], ids=["E-without-tab", "E-without-trigger", "R-without-Arg2", "A-without-target",
            "note-without-text", "unknown-type", "span-past-end", "span-reversed",
            "non-numeric-offset", "three-offsets"])
    def test_bad_line_named_with_its_reason(self, tmp_path, line, reason):
        t, a = write_pair(tmp_path, "we collect data", line + "\n")
        with pytest.raises(BratParseError) as err:
            parse_brat(t, a)
        assert str(err.value) == f"{a}: {reason} (line 1: {line!r})"

    def test_surface_mismatch_rejected(self, tmp_path):
        t, a = write_pair(tmp_path, "hello world", "T1\tdata 0 5\tworld\n")
        with pytest.raises(BratParseError):
            parse_brat(t, a)

    def test_discontinuous_span(self, tmp_path):
        text = "collect and also share data"
        ann = "T1\taction 0 7;17 22\tcollect share\n"
        t, a = write_pair(tmp_path, text, ann)
        gold = parse_brat(t, a)
        (ent,) = gold.entities
        assert (ent.char_start, ent.covering_text) == (0, text[0:22])

    def test_grounding_from_attribute_beats_note(self, tmp_path):
        text = "your email"
        ann = (
            "T1\tdata 0 10\tyour email\n"
            "A1\tDPV T1 EmailAddress\n"
            "#1\tAnnotatorNotes T1\tSomethingElse\n"
        )
        t, a = write_pair(tmp_path, text, ann)
        (ent,) = parse_brat(t, a).entities
        assert ent.fine_grained == "EmailAddress"

    def test_grounding_from_single_token_note(self, tmp_path):
        text = "your email"
        ann = "T1\tdata 0 10\tyour email\n#1\tAnnotatorNotes T1\tdpv:EmailAddress\n"
        t, a = write_pair(tmp_path, text, ann)
        assert parse_brat(t, a).entities[0].fine_grained == "dpv:EmailAddress"

    def test_prose_note_is_not_a_grounding(self, tmp_path):
        text = "your email"
        ann = "T1\tdata 0 10\tyour email\n#1\tAnnotatorNotes T1\tunsure about this one\n"
        t, a = write_pair(tmp_path, text, ann)
        assert parse_brat(t, a).entities[0].fine_grained is None

    def test_t_line_round_trip(self, tmp_path):
        text = "collect and also share data here"
        t, a = write_pair(tmp_path, text,
                          "T1\tdata 23 27\tdata\nT2\taction 0 7;17 22\tcollect share\n")
        assert [entity_fields(e) for e in parse_brat(t, a).entities] == [
            ("T1", "data", 23, "data"),
            ("T2", "action", 0, "collect and also share"),
        ]

    def test_fixture_gold_round_trip(self, gold_dir):
        gold = parse_brat(gold_dir / "acme.txt", gold_dir / "acme.ann")
        text = (gold_dir / "acme.txt").read_text(encoding="utf-8")
        ann_lines = (gold_dir / "acme.ann").read_text(encoding="utf-8").split("\n")
        t_lines = [line for line in ann_lines if line.startswith("T")]
        assert [entity_fields(e) for e in gold.entities] == \
            [t_line_fields(line, text) for line in t_lines]


class TestAlignGold:
    def test_entity_on_second_segment(self, tmp_path):
        t, a = write_pair(tmp_path, "a\n\nb", "T1\tdata 3 4\tb\n")
        gold = parse_brat(t, a)
        doc = load_policy(t, "x")
        aligned = align_gold(gold, doc)
        assert list(aligned) == [1]
        assert aligned[1].entities[0].id == "T1"

    def test_empty_gold(self, tmp_path):
        t, a = write_pair(tmp_path, "a\nb\n", "")
        assert align_gold(parse_brat(t, a), load_policy(t, "x")) == {}

    def test_two_entities_same_line(self, tmp_path):
        text = "email and phone\n"
        ann = "T1\tdata 0 5\temail\nT2\tdata 10 15\tphone\n"
        t, a = write_pair(tmp_path, text, ann)
        aligned = align_gold(parse_brat(t, a), load_policy(t, "x"))
        assert len(aligned[0].entities) == 2

    def test_span_on_blank_line_is_error(self, tmp_path):
        # annotate the newline gap between segments
        text = "ab\n  \ncd\n"
        ann = "T1\tdata 3 5\t  \n"
        t = tmp_path / "doc.txt"
        t.write_text(text, encoding="utf-8")
        # surface check would fail for whitespace; craft gold directly
        from ppanalyze.corpus import GoldAnnotationSet, GoldEntity
        gold = GoldAnnotationSet(
            doc_id="doc",
            entities=(GoldEntity("T1", "data", 3, 5, "  "),),
            events=(), relations=(), ann_path="doc.ann",
        )
        doc = load_policy(t, "x")
        with pytest.raises(AlignmentError) as err:
            align_gold(gold, doc)
        assert str(err.value) == "doc.ann: annotation span starts outside every segment: T1"

    def test_alignment_contract(self, gold_dir, tmp_path):
        # annotations out of file order; T2 crosses into the next line and
        # T5 triggers two events
        text = "we share it and collect data\nthen keep it\n"
        ann = (
            "T5\tcollection-use 16 23\tcollect\n"
            "T2\tdata 24 33\tdata then\n"
            "T1\tdata 9 11\tit\n"
            "T3\tthird-party-sharing-disclosure 3 8\tshare\n"
            "T4\tstorage-retention-deletion 34 38\tkeep\n"
            "E3\tcollection-use:T5 data:T2\n"
            "E2\tthird-party-sharing-disclosure:T3 data:T1\n"
            "E1\tcollection-use:T5\n"
            "E4\tstorage-retention-deletion:T4\n"
        )
        t, a = write_pair(tmp_path, text, ann)
        pairs = [(t, a), (gold_dir / "acme.txt", gold_dir / "acme.ann")]
        for text_path, ann_path in pairs:
            gold = parse_brat(text_path, ann_path)
            doc = load_policy(text_path, "x")
            aligned = align_gold(gold, doc)
            triggers = {ev.trigger.id for ev in gold.events}
            assert triggers
            for index, slice_ in aligned.items():
                seg = doc.segments[index]
                for ent in slice_.entities:
                    assert seg.char_start <= ent.char_start < seg.char_end
                    assert ent.id not in triggers
                for ev in slice_.events:
                    assert seg.char_start <= ev.trigger.char_start < seg.char_end
                assert list(slice_.entities) == \
                    sorted(slice_.entities, key=lambda e: (e.char_start, e.id))
                assert list(slice_.events) == \
                    sorted(slice_.events, key=lambda e: (e.trigger.char_start, e.id))
            # every entity but a trigger, and every event, is in exactly one slice
            assert sorted(e.id for s in aligned.values() for e in s.entities) == \
                sorted(e.id for e in gold.entities if e.id not in triggers)
            assert sorted(e.id for s in aligned.values() for e in s.events) == \
                sorted(e.id for e in gold.events)
        gold = parse_brat(t, a)
        aligned = align_gold(gold, load_policy(t, "x"))
        assert [[e.id for e in s.entities] for s in aligned.values()] == [["T1", "T2"], []]
        assert [[e.id for e in s.events] for s in aligned.values()] == \
            [["E2", "E1", "E3"], ["E4"]]


DECLARED = "[entities]\ndata\nact\n[events]\nact\n"


@pytest.mark.parametrize("ann, conf, outcome", [
    pytest.param(None, DECLARED,
                 "cannot read <dir>/doc.ann: [Errno 21] Is a directory: '<dir>/doc.ann'",
                 id="unreadable-ann"),
    pytest.param("T1\tdata 0 4\tsome\n", "[entities]\n!data\ndata = x\n",
                 ["entity T1: undeclared type 'data'"], id="macro-and-option-lines"),
    pytest.param("T1\tdata 0 4\tsome\nT2\tact 8 12\ttext\nE1\tact:T2 data:T1\n"
                 "R1\trel Arg1:T1 Arg2:T2\n", "[entities]\ndata\nact\n",
                 ["event E1: undeclared type 'act'", "relation R1: undeclared label 'rel'"],
                 id="undeclared-event-and-relation"),
    pytest.param("T1\tdata 0 4\tsome\nT2\tact 6 7\t \nE1\tact:T2 data:T1\n", DECLARED,
                 "<dir>/doc.ann: annotation span starts outside every segment: E1, T2",
                 id="trigger-on-blank-line"),
])
def test_gold_pair_checked(tmp_path, ann, conf, outcome):
    """The label problems of a gold pair read, aligned and checked against
    `conf`, or the message of the error that stops it."""
    t, a = write_pair(tmp_path, "some\n  \ntext\n", ann or "")
    if ann is None:
        a.unlink()
        a.mkdir()
    conf_path = tmp_path / "annotation.conf"
    conf_path.write_text(conf, encoding="utf-8")
    try:
        gold = parse_brat(t, a)
        align_gold(gold, load_policy(t, "x"))
        got = validate_gold_labels(gold, read_annotation_conf(conf_path))
    except Error as exc:
        got = str(exc).replace(str(tmp_path), "<dir>")
    assert got == outcome


class TestAnnotationConf:
    def test_fixture_inventory(self, gold_dir):
        conf = read_annotation_conf(gold_dir / "annotation.conf")
        assert "data" in conf["entities"]
        assert "collection-use" in conf["events"]
        assert "related" in conf["relations"]
        assert "DPV" in conf["attributes"]

    def test_fixture_gold_matches_its_schema(self, gold_dir):
        gold = parse_brat(gold_dir / "acme.txt", gold_dir / "acme.ann")
        conf = read_annotation_conf(gold_dir / "annotation.conf")
        assert validate_gold_labels(gold, conf) == []

    def test_undeclared_label_reported(self, tmp_path, gold_dir):
        t, a = write_pair(tmp_path, "some text", "T1\tmystery 0 4\tsome\n")
        gold = parse_brat(t, a)
        problems = validate_gold_labels(gold, read_annotation_conf(gold_dir / "annotation.conf"))
        assert problems and "mystery" in problems[0]
