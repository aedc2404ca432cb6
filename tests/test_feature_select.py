import warnings

import numpy as np
import pytest

import tabfusion.feature_select as feature_select
from conftest import random_snapshots, small_schema
from tabfusion.data import Asset, DataError, FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.feature_select import (
    EliminationTrace,
    StopRule,
    backward_eliminate,
    featurize,
    fit_logistic_probe,
    permutation_importance,
)


def label_copy_dataset(n=200, n_noise=3, seed=0):
    """One feature equal to the label, plus pure-noise numerics."""
    rng = np.random.default_rng(seed)
    feats = [FeatureSpec("signal", "numeric")] + [
        FeatureSpec(f"noise{i}", "numeric") for i in range(n_noise)
    ]
    schema = FeatureSchema(feats, [TaskSpec("y", 2)])
    snaps = []
    for _ in range(n):
        label = int(rng.integers(2))
        values = {"signal": float(label)}
        for i in range(n_noise):
            values[f"noise{i}"] = float(rng.normal())
        snaps.append(Snapshot(values, {"y": label}))
    return schema, snaps


class TestFeaturize:
    def test_column_layout(self):
        schema = small_schema(with_assets=True)
        snaps = random_snapshots(schema, 5, seed=1)
        x, ranges = featurize(snaps, schema, "recency", 0)
        # 2 numerics (2 cols each) + cat(4) + mcat(5) + emb(6) + memb(6)
        assert x.shape == (5, 2 + 2 + 4 + 5 + 6 + 6)
        assert ranges["age"] == (0, 2)
        assert ranges["region"] == (4, 8)
        assert ranges["creatives"] == (19, 25)

    def test_missing_flag_column(self):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        snaps = [Snapshot({"x": 2.5}), Snapshot({"x": None})]
        x, _ = featurize(snaps, schema, "recency", 0)
        np.testing.assert_allclose(x, [[2.5, 0.0], [0.0, 1.0]])

    def test_multi_hot(self):
        schema = FeatureSchema([FeatureSpec("t", "multi_categorical", vocab_size=4)], [])
        snaps = [Snapshot({"t": (0, 2)}), Snapshot({"t": ()})]
        x, _ = featurize(snaps, schema, "recency", 0)
        np.testing.assert_allclose(x, [[1, 0, 1, 0], [0, 0, 0, 0]])

    def test_asset_mean(self):
        schema = FeatureSchema([FeatureSpec("m", "multi_embedding", dim=2, max_count=3)], [])
        snaps = [Snapshot({"m": [Asset(np.array([1.0, 0.0])), Asset(np.array([3.0, 2.0]))]})]
        x, _ = featurize(snaps, schema, "recency", 0)
        np.testing.assert_allclose(x, [[2.0, 1.0]])

    @pytest.mark.parametrize(
        "criterion, mean",
        [("recency", [3.0, 2.0]), ("engagement", [5.0, 4.0])],
        ids=["recency", "engagement"],
    )
    def test_asset_mean_over_the_encoders_top_k(self, criterion, mean):
        """Four assets for two slots: the mean runs over the two the encoder
        keeps (timestamps 3 and 2, or engagement 0.9 and 0.7), not all four."""
        schema = FeatureSchema([FeatureSpec("m", "multi_embedding", dim=2, max_count=2)], [])
        assets = [([1.0, 0.0], 3.0, 0.1), ([3.0, 2.0], 1.0, 0.9), ([5.0, 4.0], 2.0, 0.5), ([7.0, 6.0], 0.0, 0.7)]
        snaps = [Snapshot({"m": [Asset(np.array(v), t, e) for v, t, e in assets]})]
        x, _ = featurize(snaps, schema, asset_criterion=criterion, asset_seed=0)
        np.testing.assert_array_equal(x, [mean])

    @pytest.mark.parametrize(
        "spec, value",
        [
            (FeatureSpec("c", "categorical", vocab_size=3), -1),
            (FeatureSpec("c", "categorical", vocab_size=3), 3),
            (FeatureSpec("c", "multi_categorical", vocab_size=3), (-1,)),
        ],
        ids=["categorical-minus-1", "categorical-vocab-size", "tag-set-minus-1"],
    )
    def test_out_of_range_category_raises(self, spec, value):
        """As in the encoder: -1 must not one-hot the last column."""
        schema = FeatureSchema([spec], [])
        with pytest.raises(IndexError, match="out of range for 'c'"):
            featurize([Snapshot({"c": value})], schema, "recency", 0)


class TestPermutationImportance:
    def test_label_copy_has_high_importance(self):
        schema, snaps = label_copy_dataset()
        y = np.array([s.labels["y"] for s in snaps], dtype=float)
        x, ranges = featurize(snaps, schema, "recency", 0)
        tr, va = np.arange(140), np.arange(140, 200)
        imp = permutation_importance(
            fit_logistic_probe(x[tr], y[tr]), x[va], y[va], ranges["signal"],
            rng=np.random.default_rng(1),
        )
        # breaking a perfect predictor costs roughly the full 0.5 of AUROC
        assert imp > 0.35

    def test_noise_has_near_zero_importance(self):
        schema, snaps = label_copy_dataset()
        y = np.array([s.labels["y"] for s in snaps], dtype=float)
        x, ranges = featurize(snaps, schema, "recency", 0)
        tr, va = np.arange(140), np.arange(140, 200)
        imp = permutation_importance(
            fit_logistic_probe(x[tr], y[tr]), x[va], y[va], ranges["noise0"],
            rng=np.random.default_rng(2),
        )
        assert abs(imp) < 0.1

    def test_redundant_twin_has_low_importance(self):
        # two identical copies of the signal: permuting one leaves the other
        rng = np.random.default_rng(3)
        schema = FeatureSchema(
            [FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")],
            [TaskSpec("y", 2)],
        )
        snaps = []
        for _ in range(200):
            label = int(rng.integers(2))
            v = float(label) + float(rng.normal(0, 0.05))
            snaps.append(Snapshot({"a": v, "b": v}, {"y": label}))
        y = np.array([s.labels["y"] for s in snaps], dtype=float)
        x, ranges = featurize(snaps, schema, "recency", 0)
        tr, va = np.arange(140), np.arange(140, 200)
        imp = permutation_importance(
            fit_logistic_probe(x[tr], y[tr]), x[va], y[va], ranges["a"],
            rng=np.random.default_rng(4),
        )
        assert imp < 0.15


class TestBackwardElimination:
    def test_noise_removed_signal_kept(self):
        schema, snaps = label_copy_dataset(n_noise=4)
        reduced, trace = backward_eliminate(snaps, schema, "y", StopRule(tolerance=0.02), 0, "recency")
        kept = [f.name for f in reduced]
        assert "signal" in kept
        removed = [r[1] for r in trace.rounds]
        assert all(nm.startswith("noise") for nm in removed)
        assert len(removed) >= 3

    def test_min_features_respected(self):
        schema, snaps = label_copy_dataset(n_noise=3)
        reduced, _ = backward_eliminate(snaps, schema, "y", StopRule(tolerance=1.0, min_features=3), 0, "recency")
        assert len(reduced) == 3

    def test_deterministic(self):
        schema, snaps = label_copy_dataset(n_noise=3, seed=5)
        a = backward_eliminate(snaps, schema, "y", StopRule(), 11, "recency")
        b = backward_eliminate(snaps, schema, "y", StopRule(), 11, "recency")
        assert [r[1] for r in a[1].rounds] == [r[1] for r in b[1].rounds]
        assert [f.name for f in a[0]] == [f.name for f in b[0]]

    def test_trace_metrics_within_tolerance(self):
        schema, snaps = label_copy_dataset(n_noise=4)
        rule = StopRule(tolerance=0.02)
        _, trace = backward_eliminate(snaps, schema, "y", rule, 0, "recency")
        for _, _, _, metric in trace.rounds:
            assert metric >= trace.baseline_metric - rule.tolerance

    def test_scores_only_labeled_rows(self):
        """Rows without a label for the task (None or absent) are left out,
        so interleaving them changes nothing."""
        schema, snaps = label_copy_dataset(n_noise=3)
        _, extra = label_copy_dataset(n=60, n_noise=3, seed=9)
        for i, s in enumerate(extra):
            if i % 2:
                s.labels["y"] = None
            else:
                s.labels.clear()
        mixed = [row for pair in zip(snaps, extra) for row in pair] + snaps[len(extra):]
        rule = StopRule(tolerance=0.02)
        want_schema, want = backward_eliminate(snaps, schema, "y", rule, 0, "recency")
        got_schema, got = backward_eliminate(mixed, schema, "y", rule, 0, "recency")
        assert (got.baseline_metric, got.rounds) == (want.baseline_metric, want.rounds)
        assert [f.name for f in got_schema] == [f.name for f in want_schema]

    def test_multi_class_task_scores_class_1_against_the_rest(self):
        # labels in {0, 1, 2} made auroc raise ("labels must be 0 or 1")
        schema = small_schema()
        snaps = random_snapshots(schema, 60, seed=0, label_rule=lambda v, rng: int(rng.integers(3)))
        binary = random_snapshots(schema, 60, seed=0, label_rule=lambda v, rng: int(rng.integers(3)))
        for s in binary:
            s.labels["risk"] = int(s.labels["risk"] == 1)
        assert {s.labels["risk"] for s in snaps} == {0, 1, 2}
        rule = StopRule(tolerance=0.05)
        got_schema, got = backward_eliminate(snaps, schema, "risk", rule, 0, "recency")
        want_schema, want = backward_eliminate(binary, schema, "risk", rule, 0, "recency")
        assert (got.baseline_metric, got.rounds) == (want.baseline_metric, want.rounds)
        assert [f.name for f in got_schema] == [f.name for f in want_schema]

    def test_no_labeled_row_is_a_data_error(self):
        schema, snaps = label_copy_dataset(n=20)
        for s in snaps:
            s.labels["y"] = None
        with pytest.raises(DataError, match="labeled for task 'y'"):
            backward_eliminate(snaps, schema, "y", StopRule(), 0, "recency")

    def test_one_class_validation_split_is_a_data_error(self, monkeypatch):
        """Both classes are labeled, but the split puts the only positive in
        training: AUROC on the validation rows is undefined. The check runs
        before any probe is fitted."""
        schema, snaps = label_copy_dataset(n=10)
        last_train_row = np.random.default_rng(0).permutation(10)[-1]
        for i, s in enumerate(snaps):
            s.labels["y"] = int(i == last_train_row)
        monkeypatch.setattr(feature_select, "fit_logistic_probe", None)
        with pytest.raises(DataError, match="validation rows for task 'y' are all one class"):
            backward_eliminate(snaps, schema, "y", StopRule(), 0, "recency")

    def test_one_labeled_row_is_a_data_error_without_warnings(self):
        # it fitted a probe on an empty training split first, warning on the empty means
        schema, snaps = label_copy_dataset(n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="task 'y'"):
                backward_eliminate(snaps, schema, "y", StopRule(), 0, "recency")

    def test_single_feature_schema_rejected(self):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [TaskSpec("y", 2)])
        snaps = [Snapshot({"x": float(i % 2)}, {"y": i % 2}) for i in range(20)]
        with pytest.raises(ValueError):
            backward_eliminate(snaps, schema, "y", StopRule(), 0, "recency")

    def test_works_across_seeds(self):
        # the signal feature survives elimination for every seed
        for seed in range(5):
            schema, snaps = label_copy_dataset(n_noise=3, seed=seed)
            reduced, _ = backward_eliminate(snaps, schema, "y", StopRule(tolerance=0.02), seed, "recency")
            assert "signal" in [f.name for f in reduced]

    def test_one_probe_fit_per_evaluated_subset(self, monkeypatch):
        """The baseline and each candidate subset are fitted once; permuted
        validation copies are scored by that fit, not refitted."""
        fits = []
        fit = feature_select.fit_logistic_probe

        def counted_fit(x, y):
            fits.append(x.shape)
            return fit(x, y)

        monkeypatch.setattr(feature_select, "fit_logistic_probe", counted_fit)
        schema, snaps = label_copy_dataset(n_noise=4)
        reduced, trace = backward_eliminate(snaps, schema, "y", StopRule(tolerance=0.02), 0, "recency")
        stopped_early = len(reduced) > StopRule().min_features
        assert len(fits) == 1 + len(trace.rounds) + stopped_early
        # one fit per subset: every fit has one feature fewer than the one before
        assert [cols for _, cols in fits] == [2 * k for k in range(len(schema), len(schema) - len(fits), -1)]


class TestPinnedTrace:
    """A fixed elimination over every feature kind, as literal floats: the
    probe, the permutations and the metrics must reproduce it bit for bit."""

    def test_trace(self):
        schema = small_schema()
        snaps = random_snapshots(schema, 80, seed=2, label_rule=lambda v, rng: int(v["age"] + rng.normal() > 0))
        reduced, trace = backward_eliminate(snaps, schema, "risk", StopRule(tolerance=0.05), 2, "recency")
        assert (trace.baseline_metric, trace.rounds) == (0.6783216783216783, [
            (1, "page_vec", -0.029370629370629352, 0.7202797202797203),
            (2, "tags", -0.03916083916083912, 0.8321678321678322),
            (3, "region", 0.01118881118881121, 0.8321678321678322),
            (4, "creatives", 0.02237762237762244, 0.8391608391608392),
            (5, "spend", 0.025174825174825187, 0.8321678321678322),
        ])
        assert [f.name for f in reduced] == ["age"]
