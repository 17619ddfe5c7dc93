from __future__ import annotations

import importlib.util
import shutil

import pytest

from ppanalyze.eval.benchmark import ALL_TASKS, format_report_table, run_benchmark
from ppanalyze.eval.gold import (
    GoldCorpusError,
    asks_model,
    expected_answer,
    load_gold_corpus,
    segment_tasks,
)
from ppanalyze.extraction.backend import (
    Backend,
    BackendConfig,
    ResponseCache,
    TransportError,
    prompt_digest,
)
from ppanalyze.extraction.prompts import TASK_SHAPES, TaskKind, build_prompt
from ppanalyze.taxonomy import load_taxonomy

from .conftest import FIXTURE_MODEL
from .oracles import reference_segment_tasks


@pytest.fixture(scope="module")
def corpus(gold_dir_module):
    return load_gold_corpus(gold_dir_module)


@pytest.fixture(scope="module")
def gold_dir_module():
    from .conftest import FIXTURES
    return FIXTURES / "gold"


class TestRunBenchmark:
    def test_primed_cache_scores_all_ones(self, corpus, gold_replay_backend, taxonomy):
        report = run_benchmark(corpus, gold_replay_backend, taxonomy=taxonomy)
        for task in ALL_TASKS:
            score = report.scores[task]
            assert score.f1 == 1.0, task
            assert score.f1_n == 1.0, task
            assert score.f1_e == 1.0, task
            assert score.n_failed == 0

    def test_empty_answers_score_f1e_one_f1n_zero(self, corpus, gold_empty_backend, taxonomy):
        report = run_benchmark(corpus, gold_empty_backend, taxonomy=taxonomy)
        for task in ALL_TASKS:
            score = report.scores[task]
            assert score.f1_n == 0.0, task
            assert score.f1_e == 1.0, task

    @pytest.mark.usefixtures("no_retries")
    def test_failed_query_scored_as_empty_prediction(self, corpus, taxonomy):
        def transport(prompt, config):
            raise TransportError("down")

        backend = Backend(BackendConfig(cache_mode="live"), transport=transport)
        report = run_benchmark(corpus, backend, tasks=[TaskKind.DATA_RECOGNITION],
                               taxonomy=taxonomy)
        score = report.scores[TaskKind.DATA_RECOGNITION]
        assert score.f1_n == 0.0
        assert score.f1_e == 1.0     # empty prediction is right where gold is empty
        assert score.n_failed > 0
        assert all(row.error for row in score.rows if not row.gold_empty)

    def test_task_subset(self, corpus, gold_replay_backend, taxonomy):
        report = run_benchmark(corpus, gold_replay_backend,
                               tasks=[TaskKind.PARTY_RECOGNITION], taxonomy=taxonomy)
        assert set(report.scores) == {TaskKind.PARTY_RECOGNITION}

    def test_samples_cover_every_segment(self, corpus, gold_replay_backend, taxonomy):
        report = run_benchmark(corpus, gold_replay_backend,
                               tasks=[TaskKind.DATA_RECOGNITION], taxonomy=taxonomy)
        total_segments = sum(len(gd.doc.segments) for gd in corpus)
        assert report.scores[TaskKind.DATA_RECOGNITION].n_samples == total_segments


class TestFixtureAnswers:
    def test_caches_hold_expected_answers(self, corpus, gold_dir_module, taxonomy):
        primed = ResponseCache(gold_dir_module / "replay_cache.jsonl")
        empty = ResponseCache(gold_dir_module / "replay_cache_empty.jsonl")
        queried = 0
        for gold_doc in corpus:
            for task in ALL_TASKS:
                for sample in segment_tasks(gold_doc, task, taxonomy):
                    if not asks_model(task, sample):
                        continue    # nothing to classify or relate: no query
                    prompt = build_prompt(task, sample.segment_text, sample.extras)
                    digest = prompt_digest(FIXTURE_MODEL, task.value, prompt)
                    assert primed.get(digest)["response"] == expected_answer(task, sample)
                    envelope = TASK_SHAPES[task].envelope_keys[0]
                    assert empty.get(digest)["response"] == '{"%s": []}' % envelope
                    queried += 1
        assert queried == len(primed) == len(empty)

    def test_fixture_tool_reproduces_gold_files(self, gold_dir_module, tmp_path, monkeypatch):
        """The tool rewrites the bundled policy's replay cache and the gold
        files byte for byte."""
        from .conftest import FIXTURES, ROOT
        spec = importlib.util.spec_from_file_location(
            "make_fixtures", ROOT / "tools" / "make_fixtures.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "FIXTURES", tmp_path)
        shutil.copy(FIXTURES / "policy_example.org.txt", tmp_path)
        tool.make_policy_cache()
        assert (tmp_path / "replay_cache.jsonl").read_bytes() == \
            (FIXTURES / "replay_cache.jsonl").read_bytes()
        tool.make_gold()
        tool.make_gold_caches()
        names = ["acme.ann", "acme.txt", "annotation.conf",
                 "replay_cache.jsonl", "replay_cache_empty.jsonl"]
        assert sorted(p.name for p in gold_dir_module.iterdir()) == names
        for name in names:
            assert (tmp_path / "gold" / name).read_bytes() == \
                (gold_dir_module / name).read_bytes(), name


class TestMixedCorpusMacroMeans:
    def test_facets_match_hand_computed_means(self, taxonomy):
        # four segments scored by hand:
        #   gold [a],  pred [a]  -> 1.0   (non-empty)
        #   gold [b],  pred []   -> 0.0   (non-empty)
        #   gold [],   pred []   -> 1.0   (empty)
        #   gold [],   pred [x]  -> 0.0   (empty)
        # f1 = 0.5, f1_n = 0.5, f1_e = 0.5
        from ppanalyze.corpus import GoldAnnotationSet, GoldEntity, align_gold
        from ppanalyze.eval.gold import GoldDocument
        from .conftest import make_document
        from .scripted import scripted_transport

        text = "alpha data here.\nbeta data here.\nplain line.\nanother plain line.\n"
        doc = make_document(text, "mixed")
        entities = []
        for i, surface in enumerate(["alpha data", "beta data"]):
            start = text.index(surface)
            entities.append(GoldEntity(
                id=f"T{i + 1}", type="data", char_start=start, covering_text=surface,
            ))
        gold = GoldAnnotationSet("mixed", tuple(entities), (), ())
        corpus = [GoldDocument(doc=doc, gold=gold, alignment=align_gold(gold, doc))]

        planned = {
            (0, TaskKind.DATA_RECOGNITION): '{"entities": [{"text": "alpha data"}]}',
            (1, TaskKind.DATA_RECOGNITION): '{"entities": []}',
            (2, TaskKind.DATA_RECOGNITION): '{"entities": []}',
            (3, TaskKind.DATA_RECOGNITION): '{"entities": [{"text": "plain"}]}',
        }
        backend = Backend(BackendConfig(cache_mode="live"),
                          transport=scripted_transport(doc, planned))
        report = run_benchmark(corpus, backend,
                               tasks=[TaskKind.DATA_RECOGNITION], taxonomy=taxonomy)
        score = report.scores[TaskKind.DATA_RECOGNITION]
        assert (score.f1, score.f1_n, score.f1_e) == (0.5, 0.5, 0.5)
        assert [row.f1 for row in score.rows] == [1.0, 0.0, 1.0, 0.0]


class TestReportTable:
    def test_shape_and_markers(self, corpus, gold_replay_backend, taxonomy):
        report = run_benchmark(corpus, gold_replay_backend, taxonomy=taxonomy)
        table = format_report_table([report])
        lines = table.strip().split("\n")
        assert len(lines) == 3  # task header, facet header, one model row
        assert "data-recognition (rx)" in lines[0]
        assert "relation-recognition" in lines[0]
        assert "relation-recognition (rx)" not in lines[0]
        assert lines[1].split("\t")[1:4] == ["f1_n", "f1_e", "f1"]
        row = lines[2].split("\t")
        assert row[0] == "fixture-model"
        assert len(row) == 1 + 3 * len(ALL_TASKS)

    def test_absent_facet_rendered_as_dash(self, taxonomy, gold_replay_backend):
        # a corpus slice with only non-empty gold leaves f1_e absent
        from ppanalyze.eval.benchmark import ScoreReport, TaskScore
        report = ScoreReport(model="m", scores={
            TaskKind.DATA_RECOGNITION: TaskScore(
                task=TaskKind.DATA_RECOGNITION, relaxed=True,
                f1=1.0, f1_n=1.0, f1_e=None),
        })
        table = format_report_table([report])
        assert table.strip().split("\n")[2].split("\t") == ["m", "1.000", "-", "1.000"]

    def test_task_a_report_lacks_rendered_as_dashes(self):
        from ppanalyze.eval.benchmark import ScoreReport, TaskScore

        def report(model, *tasks):
            return ScoreReport(model=model, scores={
                task: TaskScore(task=task, relaxed=False, f1=0.5, f1_n=0.25, f1_e=1.0)
                for task in tasks})
        both = (TaskKind.DATA_RECOGNITION, TaskKind.RELATION_RECOGNITION)
        table = format_report_table([report("a", *both), report("b", both[1])])
        assert [line.split("\t") for line in table.strip().split("\n")[2:]] == [
            ["a", "0.250", "1.000", "0.500", "0.250", "1.000", "0.500"],
            ["b", "-", "-", "-", "0.250", "1.000", "0.500"],
        ]


PD = "https://w3id.org/dpv/pd#"


@pytest.mark.parametrize("ann, outcome", [
    pytest.param(None, "not a directory: <dir>/gold", id="not-a-directory"),
    pytest.param("T1\tdata 11 21\tyour email\nA1\tDPV T1 EmailAddress\n",
                 [(("your email", PD + "EmailAddress"),)], id="grounded"),
    pytest.param("T1\tdata 11 21\tyour email\n", [()], id="ungrounded-left-out"),
])
def test_gold_classification_pairs(tmp_path, taxonomy, ann, outcome):
    """Each segment's data classification gold of a one-document gold
    directory, or the message of the error that stops reading it."""
    root = tmp_path / "gold"
    if ann is None:
        root.write_text("", encoding="utf-8")
    else:
        root.mkdir()
        (root / "doc.txt").write_text("We collect your email.\n", encoding="utf-8")
        (root / "doc.ann").write_text(ann, encoding="utf-8")
    try:
        [gold_doc] = load_gold_corpus(root)
        got = [sample.gold_pairs
               for sample in segment_tasks(gold_doc, TaskKind.DATA_CLASSIFICATION, taxonomy)]
    except GoldCorpusError as exc:
        got = str(exc).replace(str(tmp_path), "<dir>")
    assert got == outcome


# A brat document with the cases the gold views must get right: an
# unmapped entity label, an unmapped event type, two pairs of events that
# share a trigger, numbered roles, roles that target another event, a
# trigger and a span of another segment, unmapped role labels, and
# classification terms that do not resolve.
EDGE_TEXT = ("Acme Notice\n\n"
             "We collect your email address and cookies for analytics and ads.\n"
             "We also share and sell your device data with vendors.\n")
EDGE_SPANS = [   # (id, label, line, surface)
    ("T1", "first-party", 2, "We"),
    ("T2", "collection-use", 2, "collect"),
    ("T3", "data", 2, "your email address"),
    ("T4", "mystery-thing", 2, "cookies"),
    ("T5", "purpose", 2, "analytics"),
    ("T6", "purpose", 2, "ads"),
    ("T7", "first-party", 3, "We"),
    ("T8", "third-party-sharing-disclosure", 3, "share"),
    ("T9", "data", 3, "your device data"),
    ("T10", "third-party", 3, "vendors"),
    ("T11", "strange-event", 3, "sell"),
]
EDGE_REST = [
    "E1\tcollection-use:T2 data:T3 data2:T4 purpose:T5 purpose2:T6 data-collector:T1",
    "E2\todd-practice:T2 purpose:E1 whatever:T3 data:T9",
    "E3\tthird-party-sharing-disclosure:T8 data:T9 data-receiver:T10 data-sharer:T7",
    "E4\tstrange-event:T11 data:T9 purpose:T8 data2:E3 data3:T2",
    "E5\tthird-party-sharing-disclosure:T8 data:T9 data-receiver:T10",
    "A1\tDPV T3 EmailAddress",
    "A2\tDPV T5 NoSuchPurposeTerm",
    "A3\tDPV T6 Advertising",
    "A4\tDPV T9 NoSuchDataTerm",
]


def _edge_gold_dir(root):
    lines = EDGE_TEXT.split("\n")
    ann = []
    for tid, label, line, surface in EDGE_SPANS:
        start = sum(len(l) + 1 for l in lines[:line]) + lines[line].index(surface)
        ann.append(f"{tid}\t{label} {start} {start + len(surface)}\t{surface}")
    root.mkdir()
    (root / "edge.txt").write_text(EDGE_TEXT, encoding="utf-8")
    (root / "edge.ann").write_text("\n".join(ann + EDGE_REST) + "\n", encoding="utf-8")
    return root


def _small_taxonomy(root):
    path = root / "small.tsv"
    path.write_text("dpv:Purpose\t\tPurpose\n"
                    "dpv:Marketing\tdpv:Purpose\tMarketing\n"
                    "pd:PersonalData\t\tPersonal Data\n"
                    "pd:EmailAddress\tpd:PersonalData\tEmail Address\n", encoding="utf-8")
    return path


class TestSegmentTasksOracle:
    """`segment_tasks` equals the earlier one-branch-per-task version."""

    @pytest.mark.parametrize("task", ALL_TASKS)
    @pytest.mark.parametrize("default_taxonomy", [True, False])
    def test_equals_reference(self, task, default_taxonomy, corpus, taxonomy, tmp_path):
        edge = load_gold_corpus(_edge_gold_dir(tmp_path / "edge"))
        # the small taxonomy resolves EmailAddress and Marketing only, so most
        # gold terms that the default one grounds are dropped
        tax = taxonomy if default_taxonomy else load_taxonomy(_small_taxonomy(tmp_path))
        for gold_doc in [*corpus, *edge]:
            assert segment_tasks(gold_doc, task, tax) == \
                reference_segment_tasks(gold_doc, task, tax)

    def test_edge_document_exercises_its_cases(self, taxonomy, tmp_path):
        [gold_doc] = load_gold_corpus(_edge_gold_dir(tmp_path / "edge"))
        first, second = (segment_tasks(gold_doc, TaskKind.RELATION_RECOGNITION, taxonomy)[i]
                         for i in (1, 2))
        # actions sort by trigger offset, then event id: E1 a0, E2 a1; E3 a0, E5 a1, E4 a2
        assert [row for row in first.extras if row[1] == "action"] == \
            [("a0", "action", "collect"), ("a1", "action", "collect")]
        assert {"id1": "a1", "id2": "a0", "type": "HAS_PURPOSE"} in first.gold_items
        # a trigger shared by two events stands for the last of them (E5, not E3)
        assert {"id1": "a2", "id2": "a1", "type": "HAS_PURPOSE"} in second.gold_items
        assert {"id1": "a2", "id2": "a0", "type": "HAS_DATA"} in second.gold_items
        assert not any(row[2] == "cookies" for row in first.extras)
        actions = segment_tasks(gold_doc, TaskKind.ACTION_RECOGNITION, taxonomy)[2]
        assert {"text": "sell"} in actions.gold_items
        purposes = segment_tasks(gold_doc, TaskKind.PURPOSE_CLASSIFICATION, taxonomy)[1]
        assert [text for text, _ in purposes.gold_pairs] == ["ads"]
        data = segment_tasks(gold_doc, TaskKind.DATA_CLASSIFICATION, taxonomy)[2]
        assert data.gold_pairs == () and data.extras is None
