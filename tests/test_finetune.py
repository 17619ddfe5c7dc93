from __future__ import annotations

import json

import pytest

from ppanalyze import Error
from ppanalyze.eval.finetune import FinetuneSpec, select_finetune_data, write_jsonl
from ppanalyze.eval.gold import load_gold_corpus
from ppanalyze.extraction.prompts import TaskKind

from .finetune_corpus import synthetic_gold_corpus as synthetic_corpus


class TestSpecParsing:
    def test_dash_string_round_trip(self):
        spec = FinetuneSpec.parse("10-30-2-6", seed=5)
        assert (spec.n_train_nonempty, spec.n_train_empty,
                spec.n_val_nonempty, spec.n_val_empty) == (10, 30, 2, 6)
        assert spec.seed == 5
        assert spec.to_string() == "10-30-2-6"

    @pytest.mark.parametrize("bad", ["10-30-2", "a-b-c-d", "10-30-2-6-1", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(Error, match=f"^bad selection spec {bad!r}: expected 'a-b-c-d' "):
            FinetuneSpec.parse(bad)


class TestSelection:
    def test_counts_10_30_2_6(self, taxonomy):
        corpus = synthetic_corpus(12, 36)
        train, val = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                          FinetuneSpec.parse("10-30-2-6", seed=1), taxonomy)
        assert (len(train), len(val)) == (40, 8)

    def test_zero_spec_gives_empty_files(self, taxonomy):
        corpus = synthetic_corpus(1, 1)
        train, val = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                          FinetuneSpec.parse("0-0-0-0"), taxonomy)
        assert train == [] and val == []

    def test_same_seed_identical_output(self, taxonomy):
        corpus = synthetic_corpus(15, 40)
        spec = FinetuneSpec.parse("10-30-2-6", seed=99)
        a = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION, spec, taxonomy)
        b = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION, spec, taxonomy)
        assert a == b

    def test_different_seed_differs(self, taxonomy):
        corpus = synthetic_corpus(15, 40)
        a = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                 FinetuneSpec.parse("10-30-2-6", seed=1), taxonomy)
        b = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                 FinetuneSpec.parse("10-30-2-6", seed=2), taxonomy)
        assert a != b

    def test_train_validation_disjoint(self, taxonomy):
        corpus = synthetic_corpus(15, 40)
        train, val = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                          FinetuneSpec.parse("10-30-2-6", seed=3), taxonomy)
        train_users = {r["messages"][1]["content"] for r in train}
        val_users = {r["messages"][1]["content"] for r in val}
        assert not train_users & val_users

    def test_insufficient_stratum_named(self, taxonomy):
        corpus = synthetic_corpus(5, 100)
        with pytest.raises(Error, match="^non-empty stratum has 5 samples for task "
                                        "data-recognition, but spec 10-30-2-6 needs 12$") as err:
            select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                 FinetuneSpec.parse("10-30-2-6"), taxonomy)
        assert "non-empty" in str(err.value)
        assert "5" in str(err.value)

    def test_record_shape_is_chat_format(self, taxonomy):
        corpus = synthetic_corpus(2, 2)
        train, _ = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                        FinetuneSpec.parse("1-1-0-0"), taxonomy)
        record = train[0]
        roles = [m["role"] for m in record["messages"]]
        assert roles == ["system", "user", "assistant"]
        answer = json.loads(record["messages"][2]["content"])
        assert "entities" in answer

    def test_nonempty_answers_carry_gold_spans(self, taxonomy):
        corpus = synthetic_corpus(3, 0)
        train, _ = select_finetune_data(corpus, TaskKind.DATA_RECOGNITION,
                                        FinetuneSpec.parse("3-0-0-0"), taxonomy)
        for record in train:
            answer = json.loads(record["messages"][2]["content"])
            assert answer["entities"]
            for item in answer["entities"]:
                assert item["text"] in record["messages"][1]["content"]


class TestGoldFixtureExport:
    def test_classification_task_uses_extras(self, gold_dir, taxonomy):
        corpus = load_gold_corpus(gold_dir)
        train, val = select_finetune_data(corpus, TaskKind.DATA_CLASSIFICATION,
                                          FinetuneSpec.parse("2-0-1-0"), taxonomy)
        assert len(train) == 2 and len(val) == 1
        for record in train:
            assert "=== ENTITIES ===" in record["messages"][1]["content"]

    def test_relation_task_exports_tuples(self, gold_dir, taxonomy):
        corpus = load_gold_corpus(gold_dir)
        train, _ = select_finetune_data(corpus, TaskKind.RELATION_RECOGNITION,
                                        FinetuneSpec.parse("3-0-0-0"), taxonomy)
        answers = [json.loads(r["messages"][2]["content"]) for r in train]
        assert all(a["relations"] for a in answers)
        kinds = {t["type"] for a in answers for t in a["relations"]}
        assert kinds <= {"HAS_DATA", "HAS_PURPOSE", "PERFORMED_BY",
                         "DATA_PROVIDED_BY", "DATA_SHARED_WITH"}


def test_write_jsonl_round_trip(tmp_path):
    records = [{"messages": [{"role": "user", "content": "héllo"}]}]
    path = tmp_path / "out" / "train.jsonl"
    write_jsonl(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == records
