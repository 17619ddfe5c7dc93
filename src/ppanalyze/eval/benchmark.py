"""Benchmark pipeline steps against gold annotations.

Every task is executed independently per segment: classification and
relation steps receive gold-derived inputs so each step is scored in
isolation.  A segment whose query failed is scored as an empty
prediction and the failure is recorded in the report.  Recognition and
classification tasks use relaxed matching; the relation task is scored
on exact tuple equality.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..extraction.backend import Backend
from ..extraction.pipeline import run_task
from ..extraction.prompts import CLASSIFICATION_TASKS, RECOGNITION_TASKS, TASK_KIND, TaskKind
from ..taxonomy import Taxonomy
from .gold import GoldDocument, SegmentTask, segment_tasks
from .metrics import (
    DEFAULT_THRESHOLD,
    facet_means,
    outcome_f1,
    sample_f1,
    score_classification,
)

ALL_TASKS = tuple(TaskKind)

# every task with a span kind is scored by relaxed matching
RELAXED_TASKS = frozenset(TASK_KIND)


@dataclass
class SampleRow:
    doc_id: str
    segment_index: int
    f1: float
    gold_empty: bool
    error: Optional[str] = None


@dataclass
class TaskScore:
    task: TaskKind
    relaxed: bool
    f1: Optional[float]
    f1_n: Optional[float]
    f1_e: Optional[float]
    rows: list[SampleRow] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.rows)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.error)

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "relaxed": self.relaxed,
            "f1": self.f1,
            "f1_n": self.f1_n,
            "f1_e": self.f1_e,
            "samples": self.n_samples,
            "failed_queries": self.n_failed,
        }


@dataclass
class ScoreReport:
    model: str
    scores: dict[TaskKind, TaskScore] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "tasks": [self.scores[t].to_dict() for t in ALL_TASKS if t in self.scores],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _score_sample(task: TaskKind, sample: SegmentTask, pred_items: list[dict],
                  taxonomy: Optional[Taxonomy], threshold: float,
                  denominator: str) -> float:
    if task in CLASSIFICATION_TASKS:
        pred_pairs = [(i.get("entity_text", ""), i.get("term", "")) for i in pred_items]
        return outcome_f1(score_classification(pred_pairs, list(sample.gold_pairs),
                                               taxonomy, TASK_KIND[task], threshold,
                                               denominator))
    if task is TaskKind.RELATION_RECOGNITION:
        pred = [f"{i.get('id1', '')} {i.get('id2', '')} {i.get('type', '')}" for i in pred_items]
        return sample_f1(pred, list(sample.gold_spans), threshold=1.0)
    pred = [i.get("text", "") for i in pred_items]
    return sample_f1(pred, list(sample.gold_spans), threshold=threshold,
                     denominator=denominator)


def run_benchmark(corpus: Sequence[GoldDocument], backend: Backend,
                  tasks: Optional[Sequence[TaskKind]] = None,
                  taxonomy: Optional[Taxonomy] = None,
                  threshold: float = DEFAULT_THRESHOLD,
                  denominator: str = "max") -> ScoreReport:
    """Run each task over every segment of the corpus and score it."""
    report = ScoreReport(model=backend.config.model_name)
    for task in tasks or ALL_TASKS:
        rows: list[SampleRow] = []
        for gold_doc in corpus:
            for sample in segment_tasks(gold_doc, task, taxonomy):
                pred_items = error = None
                # a classification or relation sample without inputs asks nothing
                if task in RECOGNITION_TASKS or sample.extras:
                    segment = gold_doc.doc.segments[sample.segment_index]
                    pred_items, trace = run_task(task, segment, sample.extras, backend)
                    error = trace.error
                f1 = _score_sample(task, sample, pred_items or [], taxonomy,
                                   threshold, denominator)
                rows.append(SampleRow(
                    doc_id=sample.doc_id,
                    segment_index=sample.segment_index,
                    f1=f1,
                    gold_empty=sample.is_empty,
                    error=error,
                ))
        f1, f1_n, f1_e = facet_means([(r.f1, r.gold_empty) for r in rows])
        report.scores[task] = TaskScore(
            task=task,
            relaxed=task in RELAXED_TASKS,
            f1=f1,
            f1_n=f1_n,
            f1_e=f1_e,
            rows=rows,
        )
    return report


def format_report_table(reports: Sequence[ScoreReport]) -> str:
    """Tab-separated table: one row per model, one column group per task
    with f1_n / f1_e / f1 sub-columns; relaxed tasks are marked `rx`."""
    tasks = [t for t in ALL_TASKS if any(t in r.scores for r in reports)]
    header1 = ["model"]
    header2 = [""]
    for task in tasks:
        name = task.value + (" (rx)" if task in RELAXED_TASKS else "")
        header1 += [name, "", ""]
        header2 += ["f1_n", "f1_e", "f1"]
    lines = ["\t".join(header1), "\t".join(header2)]

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.3f}"

    for report in reports:
        row = [report.model]
        for task in tasks:
            score = report.scores.get(task)
            if score is None:
                row += ["-", "-", "-"]
            else:
                row += [fmt(score.f1_n), fmt(score.f1_e), fmt(score.f1)]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
