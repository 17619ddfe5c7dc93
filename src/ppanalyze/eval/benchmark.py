"""Benchmark pipeline steps against gold annotations.

Every task is executed independently per segment: classification and
relation steps receive gold-derived inputs so each step is scored in
isolation.  A segment whose query failed is scored as an empty
prediction and the failure is recorded in the report.  Recognition and
classification tasks use relaxed matching; the relation task is scored
on exact tuple equality.

`score_document` scores one document, so documents can be scored in any
process; `build_report` adds their rows up in corpus order, so
the means are summed in one order however the documents were scored.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..extraction.backend import Backend
from ..extraction.pipeline import run_task
from ..extraction.prompts import CLASSIFICATION_TASKS, TASK_KIND, TaskKind
from ..taxonomy import Taxonomy
from .gold import GoldDocument, SegmentTask, _relation_answer, asks_model, segment_tasks
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
                  taxonomy: Taxonomy, threshold: float,
                  denominator: str) -> float:
    if task in CLASSIFICATION_TASKS:
        pred_pairs = [(i.get("entity_text", ""), i.get("term", "")) for i in pred_items]
        return outcome_f1(score_classification(pred_pairs, list(sample.gold_pairs),
                                               taxonomy, TASK_KIND[task], threshold,
                                               denominator))
    if task is TaskKind.RELATION_RECOGNITION:
        pred = [_relation_answer(i) for i in pred_items]
        return sample_f1(pred, list(sample.gold_spans), threshold=1.0)
    pred = [i.get("text", "") for i in pred_items]
    return sample_f1(pred, list(sample.gold_spans), threshold=threshold,
                     denominator=denominator)


def score_document(gold_doc: GoldDocument, backend: Backend, taxonomy: Taxonomy,
                   tasks: Sequence[TaskKind] = ALL_TASKS,
                   threshold: float = DEFAULT_THRESHOLD,
                   denominator: str = "max") -> list[list[SampleRow]]:
    """Run each task over every segment of one document and score it:
    the document's rows for each of `tasks`, in that order."""
    rows_by_task = []
    for task in tasks:
        rows: list[SampleRow] = []
        for sample in segment_tasks(gold_doc, task, taxonomy):
            pred_items = error = None
            if asks_model(task, sample):
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
        rows_by_task.append(rows)
    return rows_by_task


def build_report(model: str, tasks: Sequence[TaskKind],
                 documents: Iterable[list[list[SampleRow]]]) -> ScoreReport:
    """The report of `tasks` from each document's `score_document` rows,
    in corpus order."""
    rows_by_task: list[list[SampleRow]] = [[] for _ in tasks]
    for document in documents:
        for rows, doc_rows in zip(rows_by_task, document):
            rows.extend(doc_rows)
    report = ScoreReport(model=model)
    for task, rows in zip(tasks, rows_by_task):
        f1, f1_n, f1_e = facet_means([(r.f1, r.gold_empty) for r in rows])
        report.scores[task] = TaskScore(task, task in RELAXED_TASKS, f1, f1_n, f1_e, rows)
    return report


def run_benchmark(corpus: Sequence[GoldDocument], backend: Backend, taxonomy: Taxonomy,
                  tasks: Optional[Sequence[TaskKind]] = None,
                  threshold: float = DEFAULT_THRESHOLD,
                  denominator: str = "max") -> ScoreReport:
    """Run each task over every segment of the corpus and score it."""
    tasks = tuple(tasks or ALL_TASKS)
    return build_report(backend.config.model_name, tasks, (
        score_document(gold_doc, backend, taxonomy, tasks, threshold, denominator)
        for gold_doc in corpus))


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
