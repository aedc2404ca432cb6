import math

import numpy as np
import pytest

from conftest import random_snapshots, small_schema
from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.encoder import FeatureEncoder
from tabfusion.model import Model
from tabfusion.pretrain import (
    AugmentConfig,
    LossWeights,
    PretrainConfig,
    ReconstructionHeads,
    cutmix,
    info_nce,
    mixup,
    pretrain_loop,
    pretrain_total_loss,
    reconstruction_loss,
)
from tabfusion.tensor import Tensor


class TestCutmix:
    def test_swap_rate_matches_probability(self):
        rng = np.random.default_rng(0)
        a = Snapshot({f"f{i}": 0.0 for i in range(10)})
        b = Snapshot({f"f{i}": 1.0 for i in range(10)})
        total = swapped = 0
        for _ in range(5000):
            mixed = cutmix(a, b, 0.2, rng)
            swapped += sum(v == 1.0 for v in mixed.values.values())
            total += 10
        assert abs(swapped / total - 0.2) < 0.01

    def test_prob_zero_and_one(self):
        rng = np.random.default_rng(1)
        a = Snapshot({"x": 1.0, "y": 2.0})
        b = Snapshot({"x": 9.0, "y": 8.0})
        assert cutmix(a, b, 0.0, rng).values == a.values
        assert cutmix(a, b, 1.0, rng).values == b.values

    def test_values_are_copies(self):
        rng = np.random.default_rng(2)
        a = Snapshot({"v": np.zeros(3)})
        b = Snapshot({"v": np.ones(3)})
        mixed = cutmix(a, b, 1.0, rng)
        mixed.values["v"][0] = 99.0
        assert b.values["v"][0] == 1.0

    def test_assets_are_copies_and_immutable_values_shared(self):
        rng = np.random.default_rng(4)
        tags = (1, 3)
        a = Snapshot({"assets": [Asset(np.zeros(2), 1.0, 0.5)], "tags": tags, "x": 1.0})
        b = Snapshot({"assets": [Asset(np.ones(2), 2.0, 0.25)], "tags": (), "x": 2.0})
        mixed = cutmix(a, b, 0.0, rng)
        assert mixed.values["tags"] is tags and mixed.values["x"] == 1.0
        (asset,) = mixed.values["assets"]
        assert mixed.values["assets"] is not a.values["assets"] and asset is not a.values["assets"][0]
        assert (asset.timestamp, asset.engagement) == (1.0, 0.5) and np.array_equal(asset.vector, np.zeros(2))
        asset.vector[0] = 99.0
        asset.timestamp = 7.0
        original = a.values["assets"][0]
        assert original.timestamp == 1.0 and np.array_equal(original.vector, np.zeros(2))

    def test_keeps_anchor_labels(self):
        rng = np.random.default_rng(3)
        a = Snapshot({"x": 1.0}, {"risk": 1})
        b = Snapshot({"x": 2.0}, {"risk": 0})
        assert cutmix(a, b, 1.0, rng).labels == {"risk": 1}

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cutmix(Snapshot({"x": 1.0}), Snapshot({"y": 1.0}), 0.5, np.random.default_rng(0))


class TestMixup:
    def test_midpoint(self):
        h = mixup(Tensor([2.0, 4.0]), Tensor([4.0, 0.0]), 0.5)
        np.testing.assert_allclose(h.data, [3.0, 2.0])

    def test_alpha_one_returns_anchor(self):
        a, b = Tensor([1.0, 2.0]), Tensor([7.0, 7.0])
        np.testing.assert_allclose(mixup(a, b, 1.0).data, a.data)

    def test_gradient_splits_by_alpha(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        mixup(a, b, 0.3).sum().backward()
        np.testing.assert_allclose(a.grad, [0.3])
        np.testing.assert_allclose(b.grad, [0.7])


class TestReconstructionLoss:
    def zeroed_heads(self, schema, d):
        heads = ReconstructionHeads(schema, d, np.random.default_rng(0))
        for lin in heads.decoders.values():
            lin.weight.data[...] = 0.0
            lin.bias.data[...] = 0.0
        return heads

    @staticmethod
    def inputs(schema, snaps, **encoder_kwargs):
        return FeatureEncoder(schema, 4, np.random.default_rng(0), **encoder_kwargs).inputs(snaps)

    def test_numeric_mse(self):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"x": 1.0}), Snapshot({"x": -3.0})]
        tokens = Tensor(np.zeros((2, 1, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        # zeroed decoder predicts 0: mean of (1^2, 3^2) = 5
        assert abs(parts["num"].item() - 5.0) < 1e-6
        assert parts["ce"].item() == 0.0

    def test_numeric_missing_excluded(self):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"x": 2.0}), Snapshot({"x": None})]
        tokens = Tensor(np.zeros((2, 1, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        assert abs(parts["num"].item() - 4.0) < 1e-6

    def test_categorical_uniform_logits_give_log_vocab(self):
        schema = FeatureSchema([FeatureSpec("c", "categorical", vocab_size=7)], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"c": 3}), Snapshot({"c": 0})]
        tokens = Tensor(np.zeros((2, 1, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        assert abs(parts["ce"].item() - math.log(7)) < 1e-6

    def test_multilabel_zero_logits_give_vocab_ln2(self):
        schema = FeatureSchema([FeatureSpec("t", "multi_categorical", vocab_size=5)], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"t": (0, 2)}), Snapshot({"t": ()})]
        tokens = Tensor(np.zeros((2, 1, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        # zero logits: every class costs ln 2 regardless of the target
        assert abs(parts["mcat"].item() - 5 * math.log(2)) < 1e-5

    def test_embedding_mse_normalized_by_dim(self):
        schema = FeatureSchema([FeatureSpec("e", "embedding", dim=4)], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"e": np.array([2.0, 0.0, 0.0, 0.0], dtype=np.float32)})]
        tokens = Tensor(np.zeros((1, 1, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        assert abs(parts["emb"].item() - 4.0 / 4.0) < 1e-6

    def test_per_type_mean_over_features(self):
        schema = FeatureSchema([FeatureSpec("a", "numeric"), FeatureSpec("b", "numeric")], [])
        heads = self.zeroed_heads(schema, 4)
        snaps = [Snapshot({"a": 1.0, "b": 3.0})]
        tokens = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)
        assert abs(parts["num"].item() - (1.0 + 9.0) / 2.0) < 1e-6

    def test_asset_targets_follow_the_encoder_criterion(self):
        # four assets for two slots: by engagement the top two are assets 1
        # and 3, by recency (the default) assets 3 and 2
        schema = FeatureSchema([FeatureSpec("m", "multi_embedding", dim=2, max_count=2)], [])
        heads = self.zeroed_heads(schema, 4)
        vectors = [[1.0, 2.0], [3.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        engagement = [0.1, 0.9, 0.2, 0.5]
        assets = [Asset(np.array(v, dtype=np.float32), timestamp=float(i), engagement=e)
                  for i, (v, e) in enumerate(zip(vectors, engagement))]
        snaps = [Snapshot({"m": assets}), Snapshot({"m": assets[:1]})]
        tokens = Tensor(np.zeros((2, 2, 4), dtype=np.float32))
        parts = reconstruction_loss(tokens, self.inputs(schema, snaps, asset_criterion="engagement"), heads)
        # zeroed decoder predicts 0: squared norms of assets 1, 3 and (row 2) 0
        # over 3 present slots of dim 2
        assert abs(parts["memb"].item() - (9.0 + 8.0 + 5.0) / (3 * 2)) < 1e-6
        recency = reconstruction_loss(tokens, self.inputs(schema, snaps), heads)["memb"].item()
        assert abs(recency - (8.0 + 1.0 + 5.0) / (3 * 2)) < 1e-6


class TestInfoNce:
    def test_identical_rows_give_log_batch(self):
        z = Tensor(np.ones((4, 3), dtype=np.float64))
        loss = info_nce(z, z * 1.0, tau=0.1)
        assert abs(loss.item() - math.log(4)) < 1e-9

    def test_orthogonal_pair_closed_form(self):
        # B=2 orthonormal anchors matching their positives, tau=1:
        # per-anchor loss = log(1 + e^-1)
        z = Tensor(np.eye(2))
        loss = info_nce(z, Tensor(np.eye(2)), tau=1.0)
        assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-9

    def test_scale_invariance(self, rng):
        z = Tensor(rng.standard_normal((5, 8)))
        p = Tensor(rng.standard_normal((5, 8)))
        a = info_nce(z, p, tau=0.2).item()
        b = info_nce(z * 3.7, p * 0.04, tau=0.2).item()
        assert abs(a - b) < 1e-9

    def test_sharpens_with_temperature(self, rng):
        # aligned positives: lower tau pushes the loss toward zero
        z = Tensor(rng.standard_normal((6, 4)))
        noisy = Tensor(z.data + 0.01 * rng.standard_normal((6, 4)))
        assert info_nce(z, noisy, tau=0.05).item() < info_nce(z, noisy, tau=1.0).item()

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            info_nce(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), tau=0.1)


class TestTotalLoss:
    def test_weighted_sum_oracle(self):
        parts = {k: Tensor(np.array(v)) for k, v in
                 [("num", 1.0), ("ce", 2.0), ("mcat", 3.0), ("con", 4.0), ("emb", 5.0), ("memb", 6.0)]}
        w = LossWeights(num=1.0, ce=0.5, mcat=0.0, con=2.0, emb=1.0, memb=0.1)
        total = pretrain_total_loss(parts, w)
        assert abs(total.item() - (1.0 + 1.0 + 0.0 + 8.0 + 5.0 + 0.6)) < 1e-6

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            LossWeights(num=-1.0)
        with pytest.raises(ValueError):
            LossWeights(num=0, ce=0, mcat=0, con=0, emb=0, memb=0)
        with pytest.raises(ValueError):
            LossWeights(tau=0.0)


def tiny_model(schema, seed=0):
    return Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=16, seed=seed)


class TestPretrainLoop:
    def cfg(self, steps=5, seed=0):
        return PretrainConfig(
            steps=steps,
            batch_size=6,
            augment=AugmentConfig(seed=seed),
            seed=seed,
        )

    def test_returns_curve_with_all_terms(self):
        schema = small_schema()
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 12, seed=1)
        curve = pretrain_loop(model, snaps, self.cfg(steps=3))
        assert len(curve) == 3
        for rec in curve:
            for key in ("total", "num", "ce", "mcat", "con", "emb", "memb", "lr"):
                assert key in rec and np.isfinite(rec[key])

    def test_deterministic_given_seed(self):
        schema = small_schema()
        snaps = random_snapshots(schema, 12, seed=2)
        curves = []
        for _ in range(2):
            model = tiny_model(schema, seed=7)
            curves.append(pretrain_loop(model, snaps, self.cfg(steps=4, seed=3)))
        assert [r["total"] for r in curves[0]] == [r["total"] for r in curves[1]]

    def test_gradient_reaches_all_parameter_families(self):
        schema = small_schema()
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 12, seed=4)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        pretrain_loop(model, snaps, self.cfg(steps=2))
        moved = {k for k, p in model.parameters().items() if not np.array_equal(p.data, before[k])}
        for family in ("encoder.", "trunk.", "recon."):
            assert any(k.startswith(family) for k in moved), family

    def test_loss_trends_down(self):
        schema = small_schema(with_assets=False)
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 24, seed=5)
        cfg = self.cfg(steps=60)
        cfg.schedule.initial_lr = 3e-3
        cfg.schedule.warmup_steps = 5
        cfg.schedule.warmup_target_multiplier = 1.0
        cfg.schedule.decay_steps = 60
        curve = pretrain_loop(model, snaps, cfg)
        first = np.mean([r["total"] for r in curve[:10]])
        last = np.mean([r["total"] for r in curve[-10:]])
        assert last < first

    def test_writes_loss_log(self, tmp_path):
        schema = small_schema()
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 10, seed=6)
        log = tmp_path / "loss.log"
        pretrain_loop(model, snaps, self.cfg(steps=2), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines and "total=" in lines[0]


def graph_nodes_per_step(model, snaps, batch_size, monkeypatch) -> int:
    """Interior (non-leaf) nodes of one pretrain step's loss graph."""
    counts = []
    backward = Tensor.backward

    def counting(root):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node.requires_grad:
                seen.add(id(node))
                stack.extend(node._parents)
        counts.append(len(seen) - len(model.parameters()))
        backward(root)

    monkeypatch.setattr(Tensor, "backward", counting)
    pretrain_loop(model, snaps, PretrainConfig(steps=1, batch_size=batch_size))
    return counts[0]


class TestGraphSize:
    """Fused ops keep the pretrain graph small: a spectral linear layer is
    two nodes, an attention core one, all numeric features of a batch one
    and an MLP block one plus its two weights' normalizations (before
    fusion: 1869 and 353; before the numeric node: 832 and 183; before the
    ffn node: 666 and 129)."""

    def test_default_size_step(self, monkeypatch):
        # every feature kind, 16 tokens per row
        feats = [FeatureSpec(f"num{i}", "numeric") for i in range(6)] + [
            FeatureSpec("plan", "categorical", vocab_size=4),
            FeatureSpec("region", "categorical", vocab_size=12),
            FeatureSpec("industry", "categorical", vocab_size=50),
            FeatureSpec("tags", "multi_categorical", vocab_size=20),
            FeatureSpec("profile", "embedding", dim=16),
            FeatureSpec("assets", "multi_embedding", dim=16, max_count=5),
        ]
        schema = FeatureSchema(feats, [TaskSpec("risk", 2)])
        assert schema.token_count() == 16
        snaps = random_snapshots(schema, 64, seed=0, missing_rate=0.1)
        assert graph_nodes_per_step(Model(schema), snaps, 64, monkeypatch) <= 610

    def test_criterion_9_model_step(self, monkeypatch):
        schema = FeatureSchema([FeatureSpec("x1", "numeric"), FeatureSpec("x2", "numeric")], [TaskSpec("y", 2)])
        snaps = random_snapshots(schema, 32, seed=0)
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0)
        assert graph_nodes_per_step(model, snaps, 16, monkeypatch) <= 121
