from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppanalyze.eval.metrics import (
    facet_means,
    lcs_length,
    lcs_ratio,
    match_spans,
    normalize_text,
    prf1,
    sample_f1,
    score_classification,
)

from .oracles import (
    brute_force_lcs,
    brute_force_lcs_ratio,
    dp_lcs_length,
    optimal_matching_credit,
    reference_match_spans,
    reference_score_classification,
)

short_text = st.text(alphabet="abcde -", max_size=20)


class TestLcsRatio:
    def test_identity(self):
        assert lcs_ratio("device information", "device information") == 1.0

    def test_disjoint_alphabets(self):
        assert lcs_ratio("abc", "xyz") == 0.0

    def test_hyphenated_near_match(self):
        assert math.isclose(lcs_ratio("email address", "e-mail address"), 12 / 14)

    def test_both_empty(self):
        assert lcs_ratio("", "") == 1.0

    def test_one_empty(self):
        assert lcs_ratio("abc", "") == 0.0
        assert lcs_ratio("", "abc") == 0.0

    def test_case_folded(self):
        assert lcs_ratio("Email Address", "email address") == 1.0

    def test_whitespace_runs_collapsed(self):
        assert lcs_ratio("email  address", "email address") == 1.0

    def test_denominator_modes(self):
        assert math.isclose(lcs_ratio("your email address", "email address",
                                      denominator="gold"), 1.0)
        assert math.isclose(lcs_ratio("your email address", "email address",
                                      denominator="mean"), 13 / 15.5)
        with pytest.raises(ValueError):
            lcs_ratio("a", "b", denominator="median")

    @given(short_text, short_text)
    @settings(max_examples=300)
    def test_agrees_with_brute_force(self, a, b):
        assert math.isclose(lcs_ratio(a, b), brute_force_lcs_ratio(a, b), abs_tol=1e-12)

    @given(st.text(alphabet="abc", max_size=30), st.text(alphabet="abc", max_size=30))
    @settings(max_examples=500)
    def test_length_equals_dp_table(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        r = lcs_ratio(a, b)
        assert 0.0 <= r <= 1.0
        assert math.isclose(r, lcs_ratio(b, a))

    @given(short_text)
    def test_one_iff_equal_after_normalization(self, a):
        assert lcs_ratio(a, a) == 1.0

    @given(short_text, short_text)
    def test_zero_iff_no_shared_character(self, a, b):
        na, nb = normalize_text(a), normalize_text(b)
        if na and nb:
            assert (lcs_ratio(a, b) == 0.0) == (not set(na) & set(nb))


class TestMatchSpans:
    def test_exact_match(self):
        m = match_spans(["email address"], ["email address"])
        assert (m.tp, m.fp, m.fn) == (1.0, 0, 0)

    def test_below_threshold_rejected(self):
        m = match_spans(["your email address"], ["email address"])
        assert (m.tp, m.fp, m.fn) == (0.0, 1, 1)
        assert math.isclose(lcs_ratio("your email address", "email address"), 13 / 18)

    def test_above_threshold_fractional_credit(self):
        m = match_spans(["personal information we collect."],
                        ["personal information we collect"])
        assert math.isclose(m.tp, 31 / 32)
        assert (m.fp, m.fn) == (0, 0)

    def test_exact_pass_wins_over_relaxed(self):
        # the exact pair must not be stolen by a relaxed competitor
        m = match_spans(["email address", "email address!"],
                        ["email address"])
        assert m.pairs[0][:2] == ("email address", "email address")
        assert m.pairs[0][2] == 1.0
        assert (m.fp, m.fn) == (1, 0)

    def test_duplicates_matched_one_to_one(self):
        m = match_spans(["a", "a"], ["a"])
        assert (m.tp, m.fp, m.fn) == (1.0, 1, 0)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            match_spans([], [], threshold=0.0)

    @given(st.lists(short_text, max_size=5), st.lists(short_text, max_size=5))
    @settings(max_examples=200)
    def test_conservation(self, pred, gold):
        m = match_spans(pred, gold)
        assert len(m.pairs) + m.fp == len(pred)
        assert len(m.pairs) + m.fn == len(gold)
        assert m.tp <= min(len(pred), len(gold)) + 1e-9
        for _, _, credit in m.pairs:
            assert 0.0 < credit <= 1.0

    @given(st.lists(short_text, max_size=5), st.lists(short_text, max_size=5))
    @settings(max_examples=200)
    def test_never_beats_optimal(self, pred, gold):
        greedy = match_spans(pred, gold).tp
        assert greedy <= optimal_matching_credit(pred, gold) + 1e-9


class TestPrf1:
    def test_perfect(self):
        assert prf1(1, 0, 0) == (1.0, 1.0, 1.0)

    def test_all_wrong(self):
        assert prf1(0, 1, 1) == (0.0, 0.0, 0.0)

    def test_fractional_tp_with_no_errors(self):
        p, r, f1 = prf1(0.969, 0, 0)
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_all_zero(self):
        assert prf1(0, 0, 0) == (0.0, 0.0, 0.0)

    @given(st.floats(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_swap_invariance(self, tp, fp, fn):
        # precision/recall orientation cannot change F1:
        # both orientations reduce to 2tp / (2tp + fp + fn)
        _, _, conventional = prf1(tp, fp, fn)
        swapped_p = tp / (tp + fn) if tp + fn else 0.0
        swapped_r = tp / (tp + fp) if tp + fp else 0.0
        swapped = (2 * swapped_p * swapped_r / (swapped_p + swapped_r)
                   if swapped_p + swapped_r else 0.0)
        assert math.isclose(conventional, swapped, abs_tol=1e-12)


def macro_scores(samples):
    """(f1, f1_n, f1_e) of (pred, gold) samples, as `run_benchmark` averages them."""
    return facet_means([(sample_f1(pred, gold), not gold) for pred, gold in samples])


class TestMacroF1:
    def test_empty_and_perfect(self):
        assert macro_scores([([], []), (["a"], ["a"])]) == (1.0, 1.0, 1.0)

    def test_prediction_on_empty_gold(self):
        assert macro_scores([(["a"], [])]) == (0.0, None, 0.0)

    def test_mixed_four_samples(self):
        scores = macro_scores([
            (["a"], ["a"]), (["b"], ["b"]),   # perfect non-empty
            ([], []),                          # perfect empty
            (["x"], []),                       # failed empty
        ])
        assert scores == (0.75, 1.0, 0.5)

    def test_absent_facets_are_none_not_zero(self):
        assert macro_scores([]) == (None, None, None)
        assert macro_scores([(["a"], ["a"])])[2] is None

    @given(st.lists(st.tuples(st.lists(short_text, max_size=3),
                              st.lists(short_text, max_size=3)), max_size=6))
    def test_permutation_invariant(self, samples):
        rng = random.Random(0)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        for x, y in zip(macro_scores(samples), macro_scores(shuffled)):
            assert (x is None and y is None) or math.isclose(x, y)


EMAIL = "https://w3id.org/dpv/pd#EmailAddress"
CONTACT = "https://w3id.org/dpv/pd#Contact"


class TestScoreClassification:
    def test_exact_pair(self, taxonomy):
        m = score_classification([("email address", "EmailAddress")],
                                 [("email address", EMAIL)], taxonomy, "data")
        assert (m.tp, m.fp, m.fn) == (1.0, 0, 0)

    def test_parent_term_is_wrong(self, taxonomy):
        m = score_classification([("email address", "Contact")],
                                 [("email address", EMAIL)], taxonomy, "data")
        assert (m.tp, m.fp, m.fn) == (0.0, 1, 1)

    def test_relaxed_entity_with_correct_term(self, taxonomy):
        pred_text = "personal information we collect."
        gold_text = "personal information we collect"
        m = score_classification([(pred_text, "EmailAddress")],
                                 [(gold_text, EMAIL)], taxonomy, "data")
        assert math.isclose(m.tp, 31 / 32)
        assert (m.fp, m.fn) == (0, 0)

    def test_unresolved_term_is_fp(self, taxonomy):
        m = score_classification([("email address", "NotATerm")],
                                 [("email address", EMAIL)], taxonomy, "data")
        assert (m.tp, m.fp, m.fn) == (0.0, 1, 1)


class TestSampleF1:
    def test_empty_gold_conventions(self):
        assert sample_f1([], []) == 1.0
        assert sample_f1(["x"], []) == 0.0

    def test_regular_sample(self):
        assert sample_f1(["a"], ["a", "b"]) == pytest.approx(2 / 3)


_BASES = ["email address", "ip address", "send newsletters", "location", "device id"]


@st.composite
def span_variants(draw) -> str:
    """A base span, possibly re-cased, re-spaced, or cut or extended into a
    near miss either side of the usual thresholds (e.g. 12/13, 11/13)."""
    text = draw(st.sampled_from(_BASES))
    text = draw(st.sampled_from([str, str.upper, str.title]))(text)
    text = text.replace(" ", draw(st.sampled_from([" ", "  ", "\t", " \n "])))
    cut = draw(st.integers(0, 3))
    text = text[:len(text) - cut] + draw(st.sampled_from(["", "s", "es", " data"]))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


thresholds = st.sampled_from([0.75, 0.8, 0.85, 0.9, 0.92, 0.95, 1.0]) | st.floats(0.01, 1.0)
denominators = st.sampled_from(["max", "gold", "mean"])
# resolvable for "data", for "purpose", for neither; several spellings of one term
TERMS = ["EmailAddress", "pd:EmailAddress", EMAIL, "email address", "IPAddress",
         "Location", "Contact", "dpv:Marketing", "DirectMarketing", "NotATerm", ""]


class TestMatcherOracle:
    """The merged matcher returns what the two separate matchers returned."""

    @given(st.lists(span_variants(), max_size=6), st.lists(span_variants(), max_size=6),
           thresholds, denominators)
    @settings(max_examples=200)
    def test_match_spans_equals_reference(self, pred, gold, threshold, denominator):
        m = match_spans(pred, gold, threshold, denominator)
        assert (m.tp, m.fp, m.fn, m.pairs) == reference_match_spans(
            pred, gold, threshold, denominator)

    @given(st.lists(st.tuples(span_variants(), st.sampled_from(TERMS)), max_size=6),
           st.lists(st.tuples(span_variants(), st.sampled_from(TERMS)), max_size=6),
           st.sampled_from(["data", "purpose"]), thresholds, denominators)
    @settings(max_examples=200)
    def test_score_classification_equals_reference(self, taxonomy, pred, gold, kind,
                                                   threshold, denominator):
        m = score_classification(pred, gold, taxonomy, kind, threshold, denominator)
        assert (m.tp, m.fp, m.fn, m.pairs) == reference_score_classification(
            pred, gold, taxonomy, kind, threshold, denominator)
