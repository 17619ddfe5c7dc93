"""Stratified fine-tuning dataset export.

A selection spec is the dash string "a-b-c-d": non-empty training,
empty training, non-empty validation, empty validation counts.
"Non-empty" samples are segments whose gold annotation for the task is
non-empty.  Sampling is without replacement from deterministically
ordered pools with a seeded RNG, and validation draws from what
training left over, so the two sets are disjoint and a given
(spec, seed) always reproduces the same files.

Each exported record is one chat example:

    {"messages": [{"role": "system", ...}, {"role": "user", ...},
                  {"role": "assistant", "content": <expected answer>}]}
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Sequence

from .. import Error
from ..extraction.prompts import TaskKind, build_prompt
from ..taxonomy import Taxonomy
from .gold import GoldDocument, SegmentTask, asks_model, expected_answer, segment_tasks


@dataclass(frozen=True)
class FinetuneSpec:
    n_train_nonempty: int
    n_train_empty: int
    n_val_nonempty: int
    n_val_empty: int
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FinetuneSpec":
        m = re.fullmatch(r"(\d+)-(\d+)-(\d+)-(\d+)", spec.strip())
        if not m:
            raise Error(
                f"bad selection spec {spec!r}: expected 'a-b-c-d' "
                "(non-empty train, empty train, non-empty val, empty val)"
            )
        a, b, c, d = (int(x) for x in m.groups())
        return cls(a, b, c, d, seed)

    def to_string(self) -> str:
        return f"{self.n_train_nonempty}-{self.n_train_empty}-{self.n_val_nonempty}-{self.n_val_empty}"


def _record(task: TaskKind, sample: SegmentTask) -> dict:
    prompt = build_prompt(task, sample.segment_text, sample.extras)
    return {
        "messages": [
            {"role": "system", "content": prompt.system},
            {"role": "user", "content": prompt.user},
            {"role": "assistant", "content": expected_answer(task, sample)},
        ]
    }


def select_finetune_data(corpus: Sequence[GoldDocument], task: TaskKind,
                         spec: FinetuneSpec, taxonomy: Taxonomy,
                         ) -> tuple[list[dict], list[dict]]:
    """Sample (train, validation) chat records for one task.

    Raises `Error` naming the stratum when a pool is too small.
    Samples that ask nothing (`gold.asks_model`) cannot form a prompt and
    are excluded from the pools.
    """
    nonempty: list[SegmentTask] = []
    empty: list[SegmentTask] = []
    for gold_doc in corpus:
        for sample in segment_tasks(gold_doc, task, taxonomy):
            if not asks_model(task, sample):
                continue
            (empty if sample.is_empty else nonempty).append(sample)

    nonempty.sort(key=lambda s: (s.doc_id, s.segment_index))
    empty.sort(key=lambda s: (s.doc_id, s.segment_index))

    demand = {
        "non-empty": (nonempty, spec.n_train_nonempty + spec.n_val_nonempty),
        "empty": (empty, spec.n_train_empty + spec.n_val_empty),
    }
    for stratum, (pool, needed) in demand.items():
        if len(pool) < needed:
            raise Error(
                f"{stratum} stratum has {len(pool)} samples for task "
                f"{task.value}, but spec {spec.to_string()} needs {needed}"
            )

    rng = random.Random(spec.seed)

    def draw(pool: list[SegmentTask], n_train: int, n_val: int
             ) -> tuple[list[SegmentTask], list[SegmentTask]]:
        chosen = rng.sample(pool, n_train + n_val)
        return chosen[:n_train], chosen[n_train:]

    train_n, val_n = draw(nonempty, spec.n_train_nonempty, spec.n_val_nonempty)
    train_e, val_e = draw(empty, spec.n_train_empty, spec.n_val_empty)

    train = [_record(task, s) for s in train_n + train_e]
    validation = [_record(task, s) for s in val_n + val_e]
    return train, validation


def jsonl_text(records: Sequence[dict]) -> str:
    """One JSON line per record."""
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
