from __future__ import annotations

import pytest

from ppanalyze.eval.benchmark import ALL_TASKS, format_report_table, run_benchmark
from ppanalyze.eval.gold import expected_answer, load_gold_corpus, segment_tasks
from ppanalyze.extraction import Backend, BackendConfig, TaskKind, TransportError
from ppanalyze.extraction.backend import ResponseCache, prompt_digest
from ppanalyze.extraction.prompts import RECOGNITION_TASKS, TASK_SHAPES, build_prompt

from .conftest import FIXTURE_MODEL


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

    def test_failed_query_scored_as_empty_prediction(self, corpus, taxonomy):
        def transport(prompt, config):
            raise TransportError("down")

        backend = Backend(
            BackendConfig(cache_mode="live", max_retries=0, retry_base_delay=0.0),
            transport=transport,
        )
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
                    if task not in RECOGNITION_TASKS and not sample.extras:
                        continue    # nothing to classify or relate: no query
                    prompt = build_prompt(task, sample.segment_text, sample.extras)
                    digest = prompt_digest(FIXTURE_MODEL, task.value, prompt)
                    assert primed.get(digest)["response"] == expected_answer(task, sample)
                    envelope = TASK_SHAPES[task].envelope_keys[0]
                    assert empty.get(digest)["response"] == '{"%s": []}' % envelope
                    queried += 1
        assert queried == len(primed) == len(empty)


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
                id=f"T{i + 1}", type="data", char_start=start,
                char_end=start + len(surface), text=surface,
                fragments=((start, start + len(surface)),), covering_text=surface,
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
