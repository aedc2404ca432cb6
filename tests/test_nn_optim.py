from dataclasses import replace

import numpy as np
import pytest

from conftest import fd_gradient_check, random_snapshots, small_schema
from tabfusion.checkpoint import load_checkpoint
from tabfusion.data import FeatureSchema, FeatureSpec, TaskSpec
from tabfusion.config import RunConfig
from tabfusion.finetune import finetune_loop
from tabfusion.model import Model
import tabfusion.nn as tfn
from tabfusion.nn import SPECTRAL_EPS, Linear, Mlp, Module, SpectralLinear, advance_power_iteration, power_iteration
from tabfusion.optim import AdamW, CosineWarmupSchedule, NanGradientError, Trainer
from tabfusion.pretrain import pretrain_loop
from tabfusion.tensor import Tensor, no_grad, spectral_normalize
from tabfusion.trunk import attention


class TestPowerIteration:
    def test_diagonal_matrix(self):
        w = np.diag([3.0, 1.0])
        sigma, u, v = power_iteration(w, np.array([0.6, 0.8]), iters=50)
        assert abs(sigma - 3.0) < 1e-6
        assert abs(np.linalg.norm(u) - 1.0) < 1e-6
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_zero_matrix(self):
        sigma, _, _ = power_iteration(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))
        assert sigma == 0.0

    def test_matches_svd(self, rng):
        for _ in range(10):
            w = rng.standard_normal((5, 5))
            u0 = rng.standard_normal(5)
            sigma, _, _ = power_iteration(w, u0 / np.linalg.norm(u0), iters=50)
            assert abs(sigma - np.linalg.svd(w, compute_uv=False)[0]) < 1e-4

    def test_monotone_on_psd(self, rng):
        a = rng.standard_normal((6, 6))
        w = a @ a.T  # symmetric PSD
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        prev = -np.inf
        for _ in range(30):
            sigma, u, _ = power_iteration(w, u, iters=1)
            assert sigma >= prev - 1e-9
            prev = sigma

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["random", "zero-matrix", "zero-product"])
    def test_step_norms_are_linalg_norm_bitwise(self, case, dtype, rng):
        """_power_step takes each norm as sqrt(a . a); the step of the
        np.linalg.norm form gives the same bits."""

        def linalg_step(w, u):
            wu = w.T @ u
            nu = np.linalg.norm(wu)
            if nu == 0.0:
                return u, np.zeros(w.shape[1], dtype=w.dtype), False
            v = wu / nu
            wv = w @ v
            nv = np.linalg.norm(wv)
            if nv == 0.0:
                return u, v, False
            return wv / nv, v, True

        w = rng.standard_normal((48, 96)).astype(dtype)
        u = rng.standard_normal(48).astype(dtype)
        if case == "zero-matrix":
            w[...] = 0.0
        elif case == "zero-product":  # u lies on a zero row of w: W^T u is zero
            w[3] = 0.0
            u = np.zeros(48, dtype=dtype)
            u[3] = 1.0
        for _ in range(3):
            (u_got, v_got, ok), (u_want, v_want, ok_want) = tfn._power_step(w, u), linalg_step(w, u)
            assert ok == ok_want == (case == "random")
            for got, want in ((u_got, u_want), (v_got, v_want)):
                assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
            u = u_got

    @pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
    def test_advance_is_power_iterations_step_bitwise(self, zero, rng):
        # advance_power_iteration skips sigma; u and v are those of power_iteration
        layer = SpectralLinear(6, 4, rng, bias=False)
        if zero:
            layer.weight = Tensor(np.zeros((4, 6), dtype=np.float32), requires_grad=True)
        for _ in range(3):
            _, u, v = power_iteration(layer.weight.data, layer.u)
            advance_power_iteration([layer])
            assert np.array_equal(layer.u, u) and np.array_equal(layer.v, v)
            assert layer.u.dtype == u.dtype and layer.v.dtype == v.dtype


class TestSpectralLinear:
    def test_diagonal_normalization(self, rng):
        layer = SpectralLinear(2, 2, rng, bias=False)
        layer.weight.data[...] = np.diag([3.0, 1.0]).astype(np.float32)
        for _ in range(50):
            advance_power_iteration([layer])
        w_eff = layer.effective_weight().data
        np.testing.assert_allclose(w_eff, np.diag([1.0, 1 / 3]), atol=1e-4)

    def test_degenerate_guard(self, rng):
        layer = SpectralLinear(3, 3, rng, bias=False)
        layer.weight.data[...] = 0.0
        advance_power_iteration([layer])
        w_eff = layer.effective_weight().data
        np.testing.assert_array_equal(w_eff, np.zeros((3, 3)))

    def test_sigma_in_unit_band(self, rng):
        for _ in range(20):
            layer = SpectralLinear(6, 4, rng, bias=False)
            layer.weight.data[...] = rng.standard_normal((4, 6)).astype(np.float32) * 2
            for _ in range(100):
                advance_power_iteration([layer])
            w_eff = layer.effective_weight().data
            sigma = np.linalg.svd(w_eff, compute_uv=False)[0]
            assert 0.999 <= sigma <= 1.001

    def test_forward_is_lipschitz(self, rng):
        layer = SpectralLinear(8, 8, rng)
        layer.weight.data[...] = rng.standard_normal((8, 8)).astype(np.float32) * 3
        for _ in range(100):
            advance_power_iteration([layer])
        for _ in range(50):
            x = rng.standard_normal((1, 8)).astype(np.float32)
            y = rng.standard_normal((1, 8)).astype(np.float32)
            fx = layer(Tensor(x)).data
            fy = layer(Tensor(y)).data
            assert np.linalg.norm(fx - fy) <= (1 + 1e-3) * np.linalg.norm(x - y) + 1e-6

    def test_gradient_with_frozen_power_iter(self, rng):
        layer = SpectralLinear(4, 3, rng)
        layer.weight = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        layer.bias = Tensor(rng.standard_normal(3), requires_grad=True)
        for _ in range(60):
            advance_power_iteration([layer])
        x = Tensor(rng.standard_normal((2, 4)))
        assert fd_gradient_check(lambda: (layer(x) ** 2.0).sum(), [layer.weight, layer.bias]) < 1e-4

    @staticmethod
    def float64_spectral(layer: SpectralLinear, rng) -> list[Tensor]:
        """Float64 leaves in place of the layer's weight (and bias), with u
        and v converged by 60 steps and then frozen; returns the leaves."""
        out_dim, in_dim = layer.weight.shape
        layer.weight = Tensor(rng.standard_normal((out_dim, in_dim)) * 0.5, requires_grad=True)
        if layer.bias is not None:
            layer.bias = Tensor(rng.standard_normal(out_dim), requires_grad=True)
        for _ in range(60):
            advance_power_iteration([layer])
        return [layer.weight] + ([] if layer.bias is None else [layer.bias])

    def test_spectral_mlp_gradient_through_ffn(self, rng):
        """The ffn node rebuilds each W / sigma from the raw weight and
        1/sigma in its backward; the chain through spectral_normalize still
        gives the raw weights', the biases' and the input's gradients."""
        mlp = Mlp(4, 6, 3, rng, spectral=True)
        leaves = self.float64_spectral(mlp.fc1, rng) + self.float64_spectral(mlp.fc2, rng)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 3, 3)))
        assert fd_gradient_check(lambda: (mlp(x) * c).sum(), [x, *leaves]) < 1e-4

    def test_spectral_attention_gradient(self, rng):
        """trunk.attention over three SpectralLinear projections: one
        multi_head_attention node that rebuilds the three W / sigma in its
        backward."""
        w_q, w_k, w_v = (SpectralLinear(4, 4, rng, bias=False) for _ in range(3))
        leaves = [w for layer in (w_q, w_k, w_v) for w in self.float64_spectral(layer, rng)]
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 3, 4)))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

        def loss():
            return (attention(x, w_q, w_k, w_v, heads=2, key_mask=mask) * c).sum()

        assert fd_gradient_check(loss, [x, *leaves]) < 1e-4

    def test_inference_does_not_mutate_state(self, rng):
        layer = SpectralLinear(4, 4, rng)
        u_before = layer.u.copy()
        layer(Tensor(rng.standard_normal((2, 4)).astype(np.float32)))
        np.testing.assert_array_equal(layer.u, u_before)


def served(layer, x) -> np.ndarray:
    """An inference forward: it fills and uses the layer's W / sigma cache."""
    with no_grad():
        return layer(x).data


def fresh_twin(layer: SpectralLinear) -> SpectralLinear:
    """A layer with copies of `layer`'s arrays and nothing cached."""
    out_dim, in_dim = layer.weight.shape
    twin = SpectralLinear(in_dim, out_dim, np.random.default_rng(0))
    twin.weight = Tensor(layer.weight.data.copy(), requires_grad=True)
    twin.bias = Tensor(layer.bias.data.copy(), requires_grad=True)
    twin.u, twin.v = layer.u.copy(), layer.v.copy()
    return twin


def graph_embed(model, rows) -> np.ndarray:
    """Pooled embeddings from a graph-building forward, which never uses the cache."""
    x, mask = model.encoder.assemble_tokens(rows)
    return model.trunk(x, mask, mode="finetune")[1].data


class TestInferenceWeightCache:
    """A no_grad call reuses W / sigma until another
    array is set as the weight's data, u or v. Each case fills the cache,
    changes the layer the way the library does, and checks that the next
    inference forward is that of a layer with nothing cached."""

    def make(self, rng):
        layer = SpectralLinear(6, 5, rng)
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        served(layer, x)
        return layer, x

    def assert_fresh(self, layer, x):
        assert np.array_equal(served(layer, x), served(fresh_twin(layer), x))

    def test_reused_only_by_inference_calls(self, rng):
        layer, _ = self.make(rng)
        with no_grad():
            cached = layer.effective_weight()
            assert layer.effective_weight() is cached
        assert layer.effective_weight() is not cached
        assert layer.effective_weight().requires_grad

    def test_serves_one_weight_whose_transpose_is_contiguous(self, rng):
        # the row kernels read W / sigma as a contiguous [in, out] array: the
        # cached layout spares every request a copy of it
        layer, _ = self.make(rng)
        with no_grad():
            w = layer.effective_weight().data
            assert w.T.flags.c_contiguous
            assert layer.effective_weight().data is w
        assert np.array_equal(w, spectral_normalize(layer.weight, layer.u, layer.v, SPECTRAL_EPS).data)

    def test_after_adamw_step(self, rng):
        layer, x = self.make(rng)
        opt = AdamW({"weight": layer.weight, "bias": layer.bias}, 0.0)
        (layer(x) ** 2.0).sum().backward()
        opt.step(0.1)
        self.assert_fresh(layer, x)

    def test_after_an_explicit_power_iteration_advance(self, rng):
        layer, x = self.make(rng)
        u, v = layer.u, layer.v
        (layer(x) ** 2.0).sum().backward()  # a graph-building forward leaves u and v alone
        assert layer.u is u and layer.v is v
        advance_power_iteration([layer])  # sets new u and v
        assert layer.u is not u and layer.v is not v
        self.assert_fresh(layer, x)

    def test_after_assigning_a_new_weight_tensor(self, rng):
        layer, x = self.make(rng)
        layer.weight = Tensor(rng.standard_normal((5, 6)).astype(np.float32), requires_grad=True)
        self.assert_fresh(layer, x)

    def test_plain_linear_serves_its_parameter(self, rng):
        # the row kernel copies W^T into the contiguous layout it reads, so a
        # plain layer keeps no cache and serves the graph-building call's bits
        layer = Linear(6, 5, rng)
        assert vars(layer).keys() == {"weight", "bias"}
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        want = layer(x).data
        assert layer.effective_weight() is layer.weight
        with no_grad():
            assert layer.effective_weight() is layer.weight
            assert np.array_equal(layer(x).data, want)
        layer.weight = Tensor(rng.standard_normal((5, 6)).astype(np.float32), requires_grad=True)
        with no_grad():
            assert np.array_equal(layer(x).data, (x @ layer.weight.transpose(1, 0) + layer.bias).data)

    def test_no_grad_and_graph_forward_bitwise_equal(self, rng):
        model = Model(small_schema(), RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=4))
        rows = random_snapshots(small_schema(), 7, seed=1, missing_rate=0.2)
        x, mask = model.encoder.assemble_tokens(rows)
        for _ in range(2):  # fills the caches, then uses them
            served_tokens, served_pooled = model.trunk(x, mask, mode="inference")
        tokens, pooled = model.trunk(x, mask, mode="finetune")
        assert np.array_equal(served_tokens.data, tokens.data)
        assert np.array_equal(served_pooled.data, pooled.data)
        assert not served_pooled.requires_grad
        assert pooled.requires_grad and pooled._node.parents and pooled._node.backward is not None

    def test_after_finetune_best_state_restore(self):
        schema = FeatureSchema(
            [FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")], [TaskSpec("risk", 2)]
        )
        snaps = random_snapshots(schema, 40, seed=0, label_rule=lambda v, rng: int(v["x"] > 0))
        model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0))
        cfg = replace(RunConfig(finetune_steps=20, batch_size=16, d_rf=32).finetune_config(), eval_every=1, patience=1)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg, val_indices=list(range(10)))
        # stopped early: the last evaluation served the last step's weights,
        # and the restore replaced them with the best ones
        assert len(curve) < cfg.steps
        assert np.array_equal(model.embed(snaps), graph_embed(model, snaps))

    def test_after_model_load(self, tmp_path, monkeypatch, rng):
        schema = small_schema()
        rows = random_snapshots(schema, 6, seed=2)
        model = Model(schema, RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=1))
        for p in model.parameters().values():  # away from the initial weights
            p.data = p.data + rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
        want = model.embed(rows)
        model.save(tmp_path / "m.ckpt", {})
        build = Model._build  # builds the module tree for __init__ and for load

        def build_and_serve(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self.embed(rows)  # caches W / sigma of the placeholder weights

        monkeypatch.setattr(Model, "_build", build_and_serve)
        loaded = Model.load(tmp_path / "m.ckpt")
        assert np.array_equal(loaded.embed(rows), want)

    def test_cache_is_not_saved(self, tmp_path):
        model = Model(small_schema(), RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=1))
        model.embed(random_snapshots(small_schema(), 3, seed=2))
        model.save(tmp_path / "m.ckpt", {})
        _, arrays = load_checkpoint(tmp_path / "m.ckpt")
        assert arrays and not [name for name in arrays if "_cached" in name]


class TestModule:
    def test_walk_names_state_by_attribute_path(self, rng):
        class Block(Module):
            def __init__(self):
                self.lin = SpectralLinear(3, 2, rng, bias=False)
                self.tables = {"a": Tensor(np.zeros(2), requires_grad=True)}
                self.stack = [Linear(2, 2, rng)]
                self.scale = np.ones(2)
                self.pair = (Tensor(np.zeros(1)), np.zeros(1))  # a tuple is not walked
                self._cache = np.ones(2)  # nor is an attribute named with "_"
                self.unset = None

        block = Block()
        assert block.parameters() == {
            "lin.weight": block.lin.weight, "tables.a": block.tables["a"],
            "stack.0.weight": block.stack[0].weight, "stack.0.bias": block.stack[0].bias,
        }
        assert block.buffers() == {"lin.u": block.lin.u, "lin.v": block.lin.v, "scale": block.scale}
        slots = {path: (owner, key) for path, owner, key, _ in block.named_state()}
        assert slots["lin.bias"] == (block.lin, "bias") and slots["unset"] == (block, "unset")
        assert slots["stack.0.weight"] == (block.stack[0], "weight") and slots["tables.a"] == (block.tables, "a")

    def test_every_graph_leaf_is_a_model_parameter(self, monkeypatch):
        """A trainable tensor kept where the walk does not look would never
        be optimised or saved: every requires_grad leaf of a pretrain loss
        and of a two-task fine-tune loss must be in model.parameters()."""
        schema = small_schema()
        snaps = random_snapshots(schema, 16, seed=0)
        for snap in snaps:
            snap.labels["churn"] = 1 - snap.labels["risk"]
        model = Model(schema, RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=3))
        leaves = []
        backward = Tensor.backward

        def recording(root):
            seen, stack = set(), [root._node]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node.parents)
                    if node.op == "leaf":
                        leaves.append(node)
            backward(root)

        monkeypatch.setattr(Tensor, "backward", recording)
        pretrain_loop(model, snaps, RunConfig(pretrain_steps=1, batch_size=8).pretrain_config())
        pretrain_leaves, leaves = leaves, []
        finetune_loop(model, snaps, [TaskSpec("risk"), TaskSpec("churn")],
                      RunConfig(finetune_steps=1, batch_size=8, d_rf=16).finetune_config())
        params = {id(p._node) for p in model.parameters().values()}
        for found in (pretrain_leaves, leaves):
            assert found and all(id(leaf) in params for leaf in found)
        assert any(leaf is model.heads["churn"].beta.weight._node for leaf in leaves)


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self, rng):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW({"p": p}, 0.0)
        p.grad = np.zeros(3, dtype=p.dtype)
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_single_step_matches_closed_form(self):
        # scalar param, g=1, fresh moments: update = -lr * mhat/(sqrt(vhat)+eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = AdamW({"p": p}, 0.0, betas=(b1, b2), eps=eps)
        p.grad = np.array([1.0], dtype=p.dtype)
        opt.step(lr)
        mhat = (1 - b1) * 1.0 / (1 - b1)
        vhat = (1 - b2) * 1.0 / (1 - b2)
        expected = -lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-6)
        assert abs(expected + lr) < 1e-6  # ~ -lr * 1.0 bias-corrected

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=p.dtype)
        opt.step(0.1)
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-6)

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"theta": p}, 0.0)
        p.grad = np.array([np.nan], dtype=p.dtype)
        with pytest.raises(NanGradientError, match="theta"):
            opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0])  # step aborted

    def test_deterministic(self, rng):
        g = rng.standard_normal(5).astype(np.float32)
        results = []
        for _ in range(2):
            p = Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
            opt = AdamW({"p": p}, weight_decay=0.01)
            for _ in range(10):
                p.grad = g * 1.0
                opt.step(0.05)
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])


class TestTrainer:
    def test_pretrain_slots_give_every_parameter_and_spectral_layer(self):
        model = Model(small_schema(), RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=0))
        trainer = Trainer(model.named_state(), RunConfig().pretrain_config().schedule, 0.0, 0)
        expected = [
            layer
            for row in model.trunk.layers
            for layer in (row.w_q, row.w_k, row.w_v, row.ffn.fc1, row.ffn.fc2, row.isa.project, row.isa.restore,
                          row.isa.w_q, row.isa.w_k, row.isa.w_v, row.isa.ffn.fc1, row.isa.ffn.fc2)
        ]
        assert [id(layer) for layer in trainer.spectral] == [id(layer) for layer in expected]
        assert trainer.params == model.parameters()

    def test_finetune_slots_give_no_isa_layer(self, monkeypatch):
        import tabfusion.finetune as ft

        made = []

        class Recording(Trainer):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(ft, "Trainer", Recording)
        schema = small_schema()
        model = Model(schema, RunConfig(d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=0))
        finetune_loop(model, random_snapshots(schema, 12, seed=1), [TaskSpec("risk")],
                      RunConfig(finetune_steps=1, batch_size=4, d_rf=16).finetune_config())
        (trainer,) = made
        isa = {id(o) for path, o, key, _ in model.named_state() if ".isa." in path and key == "u"}
        rows = {id(row.w_q) for row in model.trunk.layers}
        spectral = {id(layer) for layer in trainer.spectral}
        assert isa and not spectral & isa and rows <= spectral
        assert not [path for path in trainer.params if ".isa." in path]

    def test_step_returns_the_scheduled_rate_and_draws_distinct_rows(self):
        p = Tensor(np.ones(3), requires_grad=True)
        schedule = RunConfig(initial_lr=1e-2, warmup_steps=4, decay_steps=20).pretrain_config().schedule
        trainer = Trainer([("p", None, "p", p)], schedule, 0.0, 0)
        for step in (0, 3, 9):
            assert trainer.step(step, (p * p).sum()) == schedule.lr_at(step)
            assert p.grad is None  # AdamW has read it: the step frees it
        assert trainer.opt.step_count == 3
        assert len(set(trainer.batch(10, 4).tolist())) == 4 and sorted(trainer.batch(3, 8).tolist()) == [0, 1, 2]

    def test_non_finite_loss_raises_before_any_parameter_moves(self):
        p = Tensor(np.ones(3), requires_grad=True)
        trainer = Trainer([("p", None, "p", p)], RunConfig().pretrain_config().schedule, 0.0, 0)
        data = p.data
        with pytest.raises(RuntimeError, match="non-finite loss at step 4"):
            trainer.step(4, (p * np.nan).sum())
        assert p.data is data and p.grad is None and trainer.opt.step_count == 0

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_a_loop_on_a_non_finite_loss_names_the_step(self, stage):
        # fine-tuning used to fail in AdamW naming the first parameter in
        # its dict with a NaN gradient, not the loss
        schema = FeatureSchema([FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")], [TaskSpec("risk", 2)])
        snaps = random_snapshots(schema, 8, seed=0)
        for s in snaps:
            s.values["x"] = float("nan")
        model = Model(schema, RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0))
        before = {path: p.data for path, p in model.parameters().items()}
        with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
            if stage == "pretrain":
                pretrain_loop(model, snaps, RunConfig(pretrain_steps=2, batch_size=4).pretrain_config())
            else:
                finetune_loop(model, snaps, [TaskSpec("risk")],
                              RunConfig(finetune_steps=2, batch_size=4, d_rf=16).finetune_config())
        assert all(model.parameters()[path].data is data for path, data in before.items())


class TestSchedule:
    def make(self):
        return CosineWarmupSchedule(
            initial_lr=5e-5,
            warmup_target_multiplier=10.0,
            warmup_steps=100,
            cosine_alpha=0.1,
            decay_steps=1000,
        )

    def test_step_zero_is_initial_lr(self):
        assert self.make().lr_at(0) == 5e-5

    def test_warmup_end_hits_peak(self):
        s = self.make()
        assert abs(s.lr_at(100) - 5e-4) < 1e-12

    def test_decay_end_hits_alpha_times_peak(self):
        s = self.make()
        assert abs(s.lr_at(1100) - 0.1 * 5e-4) < 1e-12
        assert abs(s.lr_at(5000) - 5e-5) < 1e-12  # clamps beyond decay_steps

    def test_continuous_at_warmup_boundary(self):
        s = self.make()
        assert abs(s.lr_at(99) - s.lr_at(100)) < 1.1 * (s.peak_lr - s.initial_lr) / s.warmup_steps

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            self.make().lr_at(-1)
