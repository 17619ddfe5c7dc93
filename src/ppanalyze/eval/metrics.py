"""Relaxed span matching and macro-F1 scoring.

Span pairs are matched in two passes: exact matches (case-folded,
whitespace-collapsed) first, then, among the leftovers, pairs whose
longest-common-substring ratio clears the threshold, greedily in
descending ratio order.  A relaxed match earns fractional true-positive
credit equal to the ratio; below-threshold pairs never match.

F1 is 2*tp / (2*tp + fp + fn) however precision and recall are oriented;
per-sample scores use the empty-gold convention (empty gold + empty
prediction scores 1, empty gold + non-empty prediction scores 0), which
makes the f1-empty facet well-defined.
"""
from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Callable, Optional, Sequence

from ..textnorm import normalize_text

DEFAULT_THRESHOLD = 0.9


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common contiguous substring.

    With no junk elements `SequenceMatcher`'s longest match is exact.
    """
    return SequenceMatcher(None, a, b, autojunk=False).find_longest_match().size


def lcs_ratio(a: str, b: str, denominator: str = "max") -> float:
    """Longest-common-substring ratio of two texts in [0, 1].

    Texts are normalized (case-fold, whitespace collapse) first.  Both
    empty -> 1.0; exactly one empty -> 0.0.  The denominator mode is a
    knob: "max" (default, symmetric), "gold" (second argument's length),
    or "mean" (average of both lengths).
    """
    na, nb = normalize_text(a), normalize_text(b)
    if not na and not nb:
        return 1.0
    if not na or not nb:
        return 0.0
    length = lcs_length(na, nb)
    if denominator == "max":
        denom = max(len(na), len(nb))
    elif denominator == "gold":
        denom = len(nb)
    elif denominator == "mean":
        denom = (len(na) + len(nb)) / 2
    else:
        raise ValueError(f"unknown denominator mode: {denominator!r}")
    return length / denom


@dataclass(frozen=True)
class MatchOutcome:
    tp: float
    fp: int
    fn: int
    pairs: tuple[tuple[str, str, float], ...]  # (pred, gold, credit)


def _match(pred: Sequence[str], gold: Sequence[str], threshold: float,
           denominator: str,
           compatible: Optional[Callable[[int, int], bool]] = None) -> MatchOutcome:
    """Two-pass one-to-one matching of span texts.

    Pass 1 pairs exact (normalized) text matches with credit 1; pass 2
    pairs the remainder greedily in descending lcs-ratio order (ties in
    pair order) where the ratio clears the threshold, with credit equal
    to the ratio.  Only pairs (i, j) that `compatible` accepts, when
    given, can match.  Unmatched predictions are fp, unmatched gold fn.
    """
    pred_norm = [normalize_text(p) for p in pred]
    gold_norm = [normalize_text(g) for g in gold]
    pred_free = set(range(len(pred)))
    gold_free = set(range(len(gold)))
    pairs: list[tuple[str, str, float]] = []

    for i in sorted(pred_free):
        for j in sorted(gold_free):
            if pred_norm[i] == gold_norm[j] and (compatible is None or compatible(i, j)):
                pairs.append((pred[i], gold[j], 1.0))
                pred_free.discard(i)
                gold_free.discard(j)
                break

    candidates = []
    for i in sorted(pred_free):
        for j in sorted(gold_free):
            if compatible is not None and not compatible(i, j):
                continue
            ratio = lcs_ratio(pred[i], gold[j], denominator)
            if ratio >= threshold:
                candidates.append((-ratio, i, j))
    candidates.sort()
    for neg_ratio, i, j in candidates:
        if i in pred_free and j in gold_free:
            pairs.append((pred[i], gold[j], -neg_ratio))
            pred_free.discard(i)
            gold_free.discard(j)

    return MatchOutcome(
        tp=sum(credit for _, _, credit in pairs),
        fp=len(pred_free),
        fn=len(gold_free),
        pairs=tuple(pairs),
    )


def match_spans(pred: Sequence[str], gold: Sequence[str],
                threshold: float = DEFAULT_THRESHOLD,
                denominator: str = "max") -> MatchOutcome:
    """Match predicted spans against gold spans, one-to-one (see `_match`)."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    return _match(pred, gold, threshold, denominator)


def prf1(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    """Precision, recall, F1.  Degenerate denominators score 0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def outcome_f1(outcome: MatchOutcome) -> float:
    """Per-sample F1 with the empty-gold convention.

    Nothing matched, predicted or missed means empty gold and an empty
    prediction, which scores 1.
    """
    if not (outcome.tp or outcome.fp or outcome.fn):
        return 1.0
    return prf1(outcome.tp, outcome.fp, outcome.fn)[2]


def sample_f1(pred: Sequence[str], gold: Sequence[str],
              threshold: float = DEFAULT_THRESHOLD,
              denominator: str = "max") -> float:
    """Per-sample F1 of matched spans with the empty-gold convention."""
    return outcome_f1(match_spans(pred, gold, threshold, denominator))


def facet_means(rows: Sequence[tuple[float, bool]]
                ) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """Mean per-sample F1 over all rows, non-empty-gold rows and
    empty-gold rows, from (f1, gold_empty) rows.

    A facet with no samples is reported as None (absent), never as 0.
    """
    def mean(xs: list[float]) -> Optional[float]:
        return sum(xs) / len(xs) if xs else None

    return (mean([f for f, _ in rows]),
            mean([f for f, empty in rows if not empty]),
            mean([f for f, empty in rows if empty]))


def score_classification(pred: Sequence[tuple[str, str]],
                         gold: Sequence[tuple[str, str]],
                         taxonomy, kind: str,
                         threshold: float = DEFAULT_THRESHOLD,
                         denominator: str = "max") -> MatchOutcome:
    """Score (entity text, term) predictions against gold groundings.

    A prediction is a true positive iff its entity text matches a gold
    entity (exact or relaxed, as in match_spans) AND its term resolves
    to the same taxonomy IRI as the gold term; the credit is the entity
    match credit.  Unresolved predicted terms count as false positives.
    """
    def resolve(term: str) -> Optional[str]:
        from ..taxonomy import UnresolvedTermError
        try:
            return taxonomy.resolve_term(term, kind).iri
        except UnresolvedTermError:
            return None

    pred_iris = [resolve(term) for _, term in pred]
    gold_iris = [resolve(term) for _, term in gold]
    return _match([text for text, _ in pred], [text for text, _ in gold],
                  threshold, denominator,
                  lambda i, j: pred_iris[i] is not None and pred_iris[i] == gold_iris[j])
