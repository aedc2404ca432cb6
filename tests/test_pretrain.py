import math
import weakref

import numpy as np
import pytest

from conftest import graph_bytes, random_snapshots, small_schema
from tabfusion.data import TOPK_CRITERIA, Asset, FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.encoder import FeatureEncoder, feature_inputs
from tabfusion.model import Model
import tabfusion.nn as nn_mod
from tabfusion.config import LossWeights, RunConfig
from tabfusion.pretrain import (
    ReconstructionHeads,
    cutmix,
    info_nce,
    mixup,
    pretrain_loop,
    pretrain_total_loss,
    reconstruction_loss,
)
from tabfusion.tensor import Tensor


def old_cutmix(x_i: Snapshot, x_j: Snapshot, swap_prob: float, rng) -> Snapshot:
    """The Snapshot-level CutMix that the array `cutmix` replaced: each value
    from the partner x_j with probability swap_prob, one draw per feature in
    the snapshot's value order (schema order for loaded rows)."""
    return Snapshot({name: (x_j if rng.random() < swap_prob else x_i).values[name] for name in x_i.values})


def ramp_inputs(b, n_features):
    """Featurized-shape inputs whose row i holds i in every feature."""
    ramp = np.arange(b, dtype=np.float32)
    return {f"f{k}": (ramp.copy(), np.ones(b, dtype=np.float32)) for k in range(n_features)}


class TestCutmix:
    def test_swap_rate_matches_probability(self):
        rng = np.random.default_rng(0)
        inputs = ramp_inputs(500, 10)
        partner = np.roll(np.arange(500), 1)
        swapped = total = 0
        for _ in range(10):
            mixed = cutmix(inputs, partner, 0.2, rng)
            swapped += sum(int((values != inputs[name][0]).sum()) for name, (values, _) in mixed.items())
            total += 500 * 10
        assert abs(swapped / total - 0.2) < 0.01

    def test_prob_zero_and_one(self):
        rng = np.random.default_rng(1)
        schema = small_schema()
        inputs = feature_inputs(schema, random_snapshots(schema, 6, seed=1), "recency", 0)
        partner = np.array([3, 0, 5, 1, 2, 4])
        for p, rows in ((0.0, np.arange(6)), (1.0, partner)):
            mixed = cutmix(inputs, partner, p, rng)
            assert list(mixed) == list(inputs)
            for name, arrays in inputs.items():
                assert len(mixed[name]) == 2
                for got, want in zip(mixed[name], arrays):
                    assert got.dtype == want.dtype and np.array_equal(got, want[rows])

    def test_values_are_copies(self):
        # every kind, asset slots included; neither the anchor's nor the partner's arrays are shared
        rng = np.random.default_rng(2)
        schema = small_schema()
        inputs = feature_inputs(schema, random_snapshots(schema, 4, seed=2), "recency", 0)
        before = {name: tuple(a.copy() for a in arrays) for name, arrays in inputs.items()}
        for p in (0.0, 0.5, 1.0):
            for arrays in cutmix(inputs, np.array([1, 2, 3, 0]), p, rng).values():
                for a in arrays:
                    a[...] = 99.0
        for name, arrays in inputs.items():
            for got, want in zip(arrays, before[name]):
                assert np.array_equal(got, want)

    def test_assets_are_copies_and_immutable_values_shared(self):
        # the asset slots and the values a Snapshot shared (tag tuples, floats) come back as
        # the anchor's, in arrays of their own that share no memory with the inputs
        rng = np.random.default_rng(4)
        schema = FeatureSchema(
            [
                FeatureSpec("assets", "multi_embedding", dim=2, max_count=2),
                FeatureSpec("tags", "multi_categorical", vocab_size=4),
                FeatureSpec("x", "numeric"),
            ],
            [],
        )
        a = Snapshot({"assets": [Asset(np.zeros(2), 1.0, 0.5)], "tags": (1, 3), "x": 1.0})
        b = Snapshot({"assets": [Asset(np.ones(2), 2.0, 0.25)], "tags": (), "x": 2.0})
        inputs = feature_inputs(schema, [a, b], "recency", 0)
        mixed = cutmix(inputs, np.array([1, 0]), 0.0, rng)
        vectors, slots = mixed["assets"]
        assert np.array_equal(vectors[0], np.zeros((2, 2))) and np.array_equal(slots[0], [1.0, 0.0])
        assert np.array_equal(mixed["tags"][0][0], [0.0, 1.0, 0.0, 1.0]) and mixed["x"][0][0] == 1.0
        for name, arrays in mixed.items():
            for got, given in zip(arrays, inputs[name]):
                assert got is not given and not np.shares_memory(got, given)
        vectors[0, 0, 0] = 99.0
        slots[0, 1] = 1.0
        assert np.array_equal(inputs["assets"][0][0], np.zeros((2, 2)))
        assert np.array_equal(inputs["assets"][1][0], [1.0, 0.0])

    @pytest.mark.parametrize("criterion", TOPK_CRITERIA)
    def test_equals_featurizing_the_snapshot_cutmix(self, criterion):
        # all five kinds, missing values, and up to max_count + 3 assets per row
        feats = [
            FeatureSpec("age", "numeric"),
            FeatureSpec("region", "categorical", vocab_size=4),
            FeatureSpec("tags", "multi_categorical", vocab_size=5),
            FeatureSpec("page_vec", "embedding", dim=3),
            FeatureSpec("creatives", "multi_embedding", dim=3, max_count=4),
            FeatureSpec("spend", "numeric"),
        ]
        schema = FeatureSchema(feats, [TaskSpec("risk", 2)])
        for seed in range(5):
            snaps = random_snapshots(schema, 24, seed=seed, missing_rate=0.3)
            for s in snaps:
                s.values["creatives"] = s.values["creatives"] + [
                    Asset(v.vector[::-1].copy(), v.timestamp + 0.5, v.engagement / 2) for v in s.values["creatives"][:2]
                ]
            assert max(len(s.values["creatives"]) for s in snaps) > 4
            partner = np.random.default_rng(seed).permutation(len(snaps))
            old_rng, new_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
            reference = [old_cutmix(snaps[i], snaps[partner[i]], 0.4, old_rng) for i in range(len(snaps))]
            want = feature_inputs(schema, reference, criterion, 3)
            got = cutmix(feature_inputs(schema, snaps, criterion, 3), partner, 0.4, new_rng)
            assert list(got) == list(want)
            for name in want:
                for g, w in zip(got[name], want[name]):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert old_rng.random() == new_rng.random()  # both drew B x F doubles


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
    def inputs(schema, snaps, asset_criterion="recency"):
        return FeatureEncoder(schema, 4, np.random.default_rng(0), asset_criterion, 0).inputs(snaps)

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
    return Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=16, seed=seed))


class TestPretrainLoop:
    def cfg(self, steps=5, seed=0, **run):
        return RunConfig(pretrain_steps=steps, batch_size=6, seed=seed, **run).pretrain_config()

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
        cfg = self.cfg(steps=60, initial_lr=3e-3, warmup_steps=5, warmup_target_pretrain=1.0, decay_steps=60)
        curve = pretrain_loop(model, snaps, cfg)
        first = np.mean([r["total"] for r in curve[:10]])
        last = np.mean([r["total"] for r in curve[-10:]])
        assert last < first

    def test_curve_is_pinned(self):
        # captured before CutMix moved from snapshots to featurized arrays;
        # the same draws give bitwise the same augmented views
        schema = small_schema()
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 16, seed=8, missing_rate=0.2)
        cfg = RunConfig(pretrain_steps=3, batch_size=6, cutmix_swap_prob=0.5, seed=0).pretrain_config()
        curve = [[r[k] for k in ("total", "num", "ce", "mcat", "emb", "memb", "con")] for r in pretrain_loop(model, snaps, cfg)]
        assert curve == [
            [9.096773147583008, 0.6204533576965332, 1.3625364303588867, 3.400743007659912,
             0.7006582021713257, 1.2745920419692993, 1.7377898693084717],
            [12.542098999023438, 1.0847212076187134, 1.415462613105774, 3.4196815490722656,
             0.8649378418922424, 1.447375774383545, 4.309920310974121],
            [9.122856140136719, 0.41386088728904724, 1.5517455339431763, 3.4811148643493652,
             0.9824678897857666, 1.211272954940796, 1.4823942184448242],
        ]

    def test_writes_loss_log(self, tmp_path):
        schema = small_schema()
        model = tiny_model(schema)
        snaps = random_snapshots(schema, 10, seed=6)
        log = tmp_path / "loss.log"
        pretrain_loop(model, snaps, self.cfg(steps=2), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines and "total=" in lines[0]


def default_size_schema() -> FeatureSchema:
    """Every feature kind, 16 tokens per row."""
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
    return schema


def graph_nodes_per_step(model, snaps, batch_size, monkeypatch) -> int:
    """Interior (non-leaf) nodes of one pretrain step's loss graph."""
    counts = []
    backward = Tensor.backward

    def counting(root):
        seen, stack = set(), [root._node]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
        counts.append(len(seen) - len(model.parameters()))
        backward(root)

    monkeypatch.setattr(Tensor, "backward", counting)
    pretrain_loop(model, snaps, RunConfig(pretrain_steps=1, batch_size=batch_size).pretrain_config())
    return counts[0]


class TestGraphSize:
    """Fused ops keep the pretrain graph small: a spectral linear layer is
    two nodes, an attention block one plus its three weights'
    normalizations, all numeric features of a batch one and an MLP block
    one plus its two weights' normalizations (before fusion: 1869 and 353;
    before the numeric node: 832 and 183; before the ffn node: 666 and 129;
    before the attention node took its q, k and v projections: 610 and
    121)."""

    def test_default_size_step(self, monkeypatch):
        schema = default_size_schema()
        snaps = random_snapshots(schema, 64, seed=0, missing_rate=0.1)
        assert graph_nodes_per_step(Model(schema, RunConfig()), snaps, 64, monkeypatch) <= 538

    def test_criterion_9_model_step(self, monkeypatch):
        schema = FeatureSchema([FeatureSpec("x1", "numeric"), FeatureSpec("x2", "numeric")], [TaskSpec("y", 2)])
        snaps = random_snapshots(schema, 32, seed=0)
        model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0))
        assert graph_nodes_per_step(model, snaps, 16, monkeypatch) <= 109


class TestGraphBytes:
    def test_default_size_graph_keeps_no_normalized_weight(self, monkeypatch):
        """At the default width and batch 256, the graph of a pretrain step
        at the start of its backward holds no spectral layer's W / sigma:
        each node that reads one keeps its node's recipe, the raw weight and
        1/sigma, and rebuilds W / sigma in its backward. The loop's frame
        holds the step's inputs, tokens and pooled outputs, none a W / sigma.
        Every linear, ffn and attention node used to keep the W / sigma of
        its weights, and ffn a contiguous copy of w1^T too: the closures
        held 44.2 MiB, parameters included, and now hold 31.3."""
        schema = default_size_schema()
        snaps = random_snapshots(schema, 256, seed=0, missing_rate=0.1)
        cfg = RunConfig(pretrain_steps=1, batch_size=256)
        model = Model(schema, cfg)
        made, normalize, backward, seen = [], nn_mod.spectral_normalize, Tensor.backward, {}

        def recording(w, u, v, eps):
            out = normalize(w, u, v, eps)
            made.append(weakref.ref(out.data))
            return out

        def measuring(root):
            seen["alive"] = sum(ref() is not None for ref in made)
            seen["bytes"] = graph_bytes(root, [p.data for p in model.parameters().values()])
            backward(root)

        monkeypatch.setattr(nn_mod, "spectral_normalize", recording)
        monkeypatch.setattr(Tensor, "backward", measuring)
        pretrain_loop(model, snaps, cfg.pretrain_config())
        # 12 spectral layers per trunk layer (5 in its rows, 7 in ISA), 6 layers, 2 trunk calls
        assert len(made) == 144 and seen["alive"] == 0
        held, param = seen["bytes"]
        assert held + param < 32 * 2**20
