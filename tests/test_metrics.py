import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion.metrics import FoldMetrics, MetricsReport, auprc, auroc, ece


def brute_force_auroc(scores, labels):
    """All positive/negative pairs, ties counted half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def brute_force_auprc(scores, labels):
    """Average precision: sweep unique thresholds in descending order."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    area = 0.0
    prev_tp = 0
    for t in sorted(set(scores), reverse=True):
        keep = scores >= t
        tp = int(labels[keep].sum())
        area += (tp / keep.sum()) * ((tp - prev_tp) / n_pos)
        prev_tp = tp
    return area


def tie_rich_cases(rng, count=30, max_rows=400):
    """(scores, labels) pairs of 4 to `max_rows` rows: scores on a grid of 2
    to 20 values, so most rows tie, and labels of a random prevalence."""
    for _ in range(count):
        n = int(rng.integers(4, max_rows + 1))
        scores = rng.integers(0, int(rng.integers(2, 21)), n) / 4.0
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
        yield scores, labels


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize(
        "labels", [[0, 1, np.nan, np.nan, 0, 1], [0, 1, 2, 2, 0, 1], [0, 1, None, None, 0, 1]],
        ids=["nan", "class-2", "none"],
    )
    def test_labels_outside_0_1_rejected(self, labels):
        # unchecked, the NaN case read 1.25: unlabeled rows must be dropped, not scored
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auroc(np.arange(6), labels)

    def test_matches_brute_force_random(self, rng):
        for scores, labels in tie_rich_cases(rng):
            if labels.sum() in (0, len(labels)):
                continue
            assert auroc(scores, labels) == brute_force_auroc(scores, labels)

    def test_exhaustive_small_grids(self):
        # every labeling and every score grid on <= 5 points from {0.0, 0.5, 1.0}
        for n in (2, 3, 4):
            for scores in itertools.product((0.0, 0.5, 1.0), repeat=n):
                for labels in itertools.product((0, 1), repeat=n):
                    if sum(labels) in (0, n):
                        continue
                    assert auroc(list(scores), list(labels)) == brute_force_auroc(scores, labels), (scores, labels)

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariant(self, scores):
        labels = [i % 2 for i in range(len(scores))]
        a = auroc(scores, labels)
        b = auroc([np.expm1(s) for s in scores], labels)  # strictly increasing map
        assert abs(a - b) < 1e-12


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_scores_give_prevalence(self):
        assert abs(auprc([0.3] * 8, [1, 0, 0, 1, 0, 0, 0, 0]) - 0.25) < 1e-12

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            auprc([0.1, 0.9], [0, 0])

    def test_each_nan_score_is_its_own_threshold(self):
        # NaN equals nothing, so two NaN scores are two thresholds, not one tie group
        assert auprc([np.nan, np.nan], [1, 0]) == 1.0

    def test_bool_labels_match_int_labels(self, rng):
        for scores, labels in tie_rich_cases(rng, count=10):
            if labels.sum() in (0, len(labels)):
                continue
            assert auprc(scores, labels.astype(bool)) == auprc(scores, labels)
            assert auroc(scores, labels.astype(bool)) == auroc(scores, labels)

    @pytest.mark.parametrize("labels", [[2, 1, 0], [np.nan, 1, 0]], ids=["class-2", "nan"])
    def test_labels_outside_0_1_rejected(self, labels):
        # unchecked, the class-2 case read 5.5: a multi-class task is scored one-vs-rest
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auprc([0.9, 0.8, 0.1], labels)

    def test_matches_brute_force_random(self, rng):
        for scores, labels in tie_rich_cases(rng):
            if labels.sum() == 0:
                continue
            assert auprc(scores, labels) == brute_force_auprc(scores, labels)

    def test_exhaustive_small_grids(self):
        for n in (2, 3, 4):
            for scores in itertools.product((0.0, 0.5, 1.0), repeat=n):
                for labels in itertools.product((0, 1), repeat=n):
                    if sum(labels) == 0:
                        continue
                    assert auprc(list(scores), list(labels)) == brute_force_auprc(scores, labels), (scores, labels)


class TestEce:
    def test_perfectly_calibrated_sharp(self):
        # confident and always correct: zero gap
        assert ece([0.99, 0.99, 0.01, 0.01], [1, 1, 0, 0], bins=10) < 0.011

    def test_hand_binned_oracle(self):
        probs = np.array([0.9, 0.9, 0.8, 0.3])
        labels = np.array([1, 0, 1, 0])
        # predictions: 1,1,1,0; confidences: 0.9,0.9,0.8,0.7; all in (0.5,1] bin
        want = abs(3 / 4 - (0.9 + 0.9 + 0.8 + 0.7) / 4)
        assert abs(ece(probs, labels, bins=2) - want) < 1e-12

    def test_two_bin_split(self):
        probs = np.array([0.55, 0.95])
        labels = np.array([1, 1])
        # bins=4 edges at 0.75: conf 0.55 in (0.5,0.75], 0.95 in (0.75,1]
        want = 0.5 * abs(1 - 0.55) + 0.5 * abs(1 - 0.95)
        assert abs(ece(probs, labels, bins=4) - want) < 1e-12

    def test_multiclass_input(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        labels = np.array([0, 2])
        # confidences 0.7 and 0.8 share the (0.6, 0.8] bin, both correct
        want = abs(1.0 - 0.75)
        assert ece(probs, labels, bins=5) == pytest.approx(want, abs=1e-12)

    def test_overconfident_worse_than_calibrated(self, rng):
        n = 2000
        labels = rng.integers(0, 2, n)
        calibrated = np.where(labels == 1, 0.7, 0.3) + rng.normal(0, 0.01, n)
        overconfident = np.where(labels == 1, 0.99, 0.6)
        assert ece(np.clip(calibrated, 0, 1), labels) < ece(overconfident, labels)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            ece([0.5], [1], bins=0)

    @pytest.mark.parametrize("labels", [[2, 0], [-1, 0], [0.5, 1]])
    def test_binary_labels_are_0_or_1(self, labels):
        # [2, 0] scored 0.55: a 2 counted as a wrong prediction of class 1
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ece([0.9, 0.2], labels)

    @pytest.mark.parametrize("labels", [[3, 0], [-1, 0], [1.5, 0]])
    def test_multiclass_labels_are_class_indices(self, labels):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        with pytest.raises(ValueError, match=r"labels must be integers in \[0, 3\)"):
            ece(probs, labels)


class TestReport:
    def test_summary_mean_std(self):
        rep = MetricsReport("toy")
        rep.add(FoldMetrics(0, "risk", 0.8, 0.5, 0.1))
        rep.add(FoldMetrics(1, "risk", 0.6, 0.3, 0.3))
        s = rep.summary("risk")
        assert s["auroc"]["mean"] == pytest.approx(0.7)
        assert s["auroc"]["std"] == pytest.approx(0.1)

    def test_save_and_format(self, tmp_path):
        import json

        rep = MetricsReport("toy", manifest={"seed": 1})
        rep.add(FoldMetrics(0, "risk", 0.9, 0.7, 0.05))
        rep.save(tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["dataset"] == "toy"
        assert loaded["folds"][0]["auroc"] == 0.9
        text = rep.format_text()
        assert "fold 0" in text and "mean:" in text
