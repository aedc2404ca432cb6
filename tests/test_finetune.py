import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_snapshots, small_schema, traced
from tabfusion.config import ConfigError
from tabfusion.data import FeatureSchema, FeatureSpec, TaskSpec
from tabfusion.finetune import (
    INVERSE_LEAF,
    VARIANCE_PANEL_COLS,
    FinetuneConfig,
    SngpHead,
    finetune_loop,
    fit_heads_covariance,
    focal_loss,
    _invert_lower,
    predict_scores,
)
import tabfusion.finetune as finetune_mod
from tabfusion.metrics import auprc, auroc
from tabfusion.model import Model
import tabfusion.tensor as tensor_mod
from tabfusion.tensor import Tensor, linear, softmax
from tabfusion.trunk import Trunk


class TestRandomFeatures:
    def test_feature_map_closed_form(self, rng):
        head = SngpHead(2, 2, rng, d_rf=3)
        head.omega = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        head.phase = np.array([0.0, math.pi / 2.0, 0.0], dtype=np.float32)
        phi = head.features(Tensor(np.array([[math.pi, 0.0]], dtype=np.float64))).data[0]
        scale = math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(
            phi, [scale * math.cos(math.pi), scale * math.cos(math.pi / 2), scale * math.cos(math.pi)],
            atol=1e-6,
        )

    def test_feature_norm_bounded(self, rng):
        head = SngpHead(4, 2, rng, d_rf=256)
        x = Tensor(rng.standard_normal((10, 4)))
        phi = head.features(x).data
        assert np.all(np.abs(phi) <= math.sqrt(2.0 / 256) + 1e-6)

    def test_kernel_monte_carlo(self, rng):
        # phi(x) . phi(y) approximates the RBF kernel exp(-|x-y|^2 / (2 l^2))
        ell = 2.0
        head = SngpHead(3, 2, rng, d_rf=4096, length_scale=ell)
        for _ in range(5):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            phi = head.features(Tensor(np.stack([x, y]))).data
            got = float(phi[0] @ phi[1])
            want = math.exp(-np.sum((x - y) ** 2) / (2.0 * ell * ell))
            assert abs(got - want) < 0.05

    def test_omega_is_laid_out_once_per_array(self, rng):
        # the row kernel reads Omega^T as a contiguous [in, d_rf] array: the
        # head keeps that copy until another array is set as omega
        head = SngpHead(8, 2, rng, d_rf=64)
        x = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
        phase = Tensor(head.phase)
        want = (linear(x, Tensor(head.omega), phase).cos() * math.sqrt(2.0 / 64)).data
        assert np.array_equal(head.features(x).data, want)
        laid_out = head._omega[1]
        assert laid_out.data.T.flags.c_contiguous
        assert np.array_equal(head.features(x).data, want) and head._omega[1] is laid_out
        head.omega = rng.standard_normal((64, 8)).astype(np.float32)
        want = (linear(x, Tensor(head.omega), phase).cos() * math.sqrt(2.0 / 64)).data
        assert np.array_equal(head.features(x).data, want) and head._omega[1] is not laid_out


class TestLaplaceCovariance:
    def test_rank_one_matches_sherman_morrison(self, rng):
        head = SngpHead(2, 2, rng, d_rf=6, ridge=1.0)
        phi = rng.standard_normal((1, 6))
        p = 0.3
        head.fit_covariance(phi, np.array([[1 - p, p]]))
        w = p * (1 - p)
        s = float(phi[0] @ phi[0])
        want = s - w * s * s / (1.0 + w * s)  # (I + w phi phi^T)^-1 quadratic form
        got = head.variance(phi)[0]
        assert abs(got - want) < 1e-10

    def test_matches_direct_inverse(self, rng):
        head = SngpHead(2, 2, rng, d_rf=8, ridge=0.5)
        phi = rng.standard_normal((20, 8))
        probs = rng.uniform(0.05, 0.95, size=20)
        head.fit_covariance(phi, probs)
        w = probs * (1 - probs)
        lam = 0.5 * np.eye(8) + (phi * w[:, None]).T @ phi
        want = np.einsum("ij,jk,ik->i", phi, np.linalg.inv(lam), phi)
        np.testing.assert_allclose(head.variance(phi), want, rtol=1e-8)

    def test_precision_is_exactly_symmetric(self, rng):
        head = SngpHead(2, 2, rng, d_rf=256, ridge=0.7)
        phi = rng.standard_normal((300, 256)) * 0.1
        probs = rng.uniform(0.0, 1.0, size=300)
        lam = head.fit_covariance(phi, probs)
        assert np.array_equal(lam, lam.T)
        w = probs * (1 - probs)
        want = 0.7 * np.eye(256) + (phi * w[:, None]).T @ phi
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_order_independent(self, rng):
        head = SngpHead(2, 2, rng, d_rf=8)
        phi = rng.standard_normal((15, 8))
        probs = rng.uniform(0.1, 0.9, size=15)
        head.fit_covariance(phi, probs)
        lam1 = head.precision.copy()
        order = rng.permutation(15)
        head.fit_covariance(phi[order], probs[order])
        np.testing.assert_allclose(head.precision, lam1, rtol=1e-10)

    def test_more_data_shrinks_variance(self, rng):
        head = SngpHead(2, 2, rng, d_rf=8)
        phi = rng.standard_normal((1, 8))
        head.fit_covariance(phi, np.array([0.5]))
        v1 = head.variance(phi)[0]
        head.fit_covariance(np.vstack([phi, phi]), np.array([0.5, 0.5]))
        v2 = head.variance(phi)[0]
        assert v2 < v1

    def test_variance_is_bitwise_batch_independent_at_default_size(self, rng):
        # criterion 5 at the default d_rf: a row's variance must not depend
        # on which rows share its batch or where it sits in it
        head = SngpHead(8, 2, rng, d_rf=1024)
        head.fit_covariance(
            head.features(Tensor(rng.standard_normal((300, 8)))).data, rng.uniform(0.05, 0.95, 300)
        )
        pooled = Tensor(rng.standard_normal((50, 8)))
        phi = head.features(pooled).data
        batch = head.variance(phi)
        alone = np.concatenate([head.variance(phi[i : i + 1]) for i in range(50)])
        order = rng.permutation(50)
        shuffled = np.empty(50)
        shuffled[order] = head.variance(phi[order])
        in_13s = np.concatenate([head.variance(phi[lo : lo + 13]) for lo in range(0, 50, 13)])
        for other in (alone, shuffled, in_13s):
            np.testing.assert_array_equal(other, batch)
        probs = head.predict(pooled)["probs"]
        for i in range(50):
            np.testing.assert_array_equal(head.predict(pooled[i : i + 1])["probs"][0], probs[i])

    @pytest.mark.parametrize("d_rf", [16, 32, 200, 1024])
    def test_panels_give_the_dense_factor_variance(self, d_rf, rng):
        head = SngpHead(8, 2, rng, d_rf=d_rf)
        head.fit_covariance(
            head.features(Tensor(rng.standard_normal((300, 8)))).data, rng.uniform(0.05, 0.95, 300)
        )
        phi = head.features(Tensor(rng.standard_normal((20, 8)))).data
        y = phi @ np.linalg.inv(np.linalg.cholesky(head.precision)).T
        np.testing.assert_allclose(head.variance(phi), np.einsum("ij,ij->i", y, y), rtol=1e-12, atol=0.0)
        # only the upper-triangular column panels are kept
        starts = range(0, d_rf, VARIANCE_PANEL_COLS)
        assert [p.shape for p in head._factor[1]] == [
            (min(c0 + VARIANCE_PANEL_COLS, d_rf), min(VARIANCE_PANEL_COLS, d_rf - c0)) for c0 in starts
        ]

    @pytest.mark.parametrize("d_rf", [200, 1024])
    def test_variance_bitwise_alone_and_in_batches_of_1_to_17(self, d_rf, rng):
        head = SngpHead(8, 2, rng, d_rf=d_rf)
        head.fit_covariance(
            head.features(Tensor(rng.standard_normal((300, 8)))).data, rng.uniform(0.05, 0.95, 300)
        )
        phi = head.features(Tensor(rng.standard_normal((17, 8)))).data
        alone = head.variance(phi[:1])[0]
        for size in range(1, 18):
            rows = np.roll(phi[:size], size // 2, axis=0)  # row 0 sits at index size // 2
            assert head.variance(rows)[size // 2] == alone

    def test_refit_and_load_invalidate_cached_factor(self, rng):
        head = SngpHead(2, 2, rng, d_rf=8, ridge=0.5)
        phi = rng.standard_normal((20, 8))
        head.fit_covariance(phi[:10], rng.uniform(0.1, 0.9, 10))
        head.variance(phi)  # caches the factor of the first fit
        probs = rng.uniform(0.1, 0.9, 20)
        head.fit_covariance(phi, probs)
        w = probs * (1 - probs)
        lam = 0.5 * np.eye(8) + (phi * w[:, None]).T @ phi
        want = np.einsum("ij,jk,ik->i", phi, np.linalg.inv(lam), phi)
        np.testing.assert_allclose(head.variance(phi), want, rtol=1e-8)
        head.precision = 0.5 * np.eye(8)  # as Model.load sets a stored precision
        np.testing.assert_allclose(head.variance(phi), (phi * phi).sum(axis=1) / 0.5, rtol=1e-12)
        head.precision = lam
        np.testing.assert_allclose(head.variance(phi), want, rtol=1e-8)

    def test_refit_frees_the_old_precision_and_panels_first(self, rng):
        head = SngpHead(8, 2, rng, d_rf=1024)
        phi = head.features(Tensor(rng.standard_normal((256, 8)).astype(np.float32))).data
        probs = rng.uniform(0.05, 0.95, 256)
        tracemalloc.start()
        try:
            head.fit_covariance(phi, probs)
            head.variance(phi[:1])  # makes the panels
            first = head.precision.copy()  # not a reference, which would keep the old array alive
            _, peak = traced(lambda: head.fit_covariance(phi, probs))
        finally:
            tracemalloc.stop()
        lam = head.precision
        assert np.array_equal(lam, first)
        # the old precision and panels (12.5 MB) go before the new precision
        # and the one weighted float64 copy of phi (10 MB) are made, so the
        # refit barely rises above its start; holding both sets of arrays and
        # a second copy of phi, it rose 12 MB above it
        assert peak < 0.05 * lam.nbytes

    def test_first_variance_inverts_only_leaf_blocks(self, rng, monkeypatch):
        head = SngpHead(8, 2, rng, d_rf=1024)
        phi = head.features(Tensor(rng.standard_normal((300, 8)))).data
        head.fit_covariance(phi, rng.uniform(0.05, 0.95, 300))
        inv, widths = np.linalg.inv, []
        monkeypatch.setattr(np.linalg, "inv", lambda a: widths.append(a.shape[-1]) or inv(a))
        head.variance(phi[:1])
        monkeypatch.undo()
        assert INVERSE_LEAF == 64 and 0 < max(widths) <= INVERSE_LEAF
        dense = inv(np.linalg.cholesky(head.precision)).T
        for c0, panel in zip(range(0, 1024, VARIANCE_PANEL_COLS), head._factor[1]):
            want = dense[: c0 + VARIANCE_PANEL_COLS, c0 : c0 + VARIANCE_PANEL_COLS]
            np.testing.assert_allclose(panel, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 300])
    def test_triangular_inverse_in_place(self, n, rng):
        a = rng.standard_normal((n, n))
        low = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        want = np.linalg.inv(low)
        got = low.copy()
        assert _invert_lower(got) is got
        assert not np.triu(got, 1).any()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    def test_variance_requires_fit(self, rng):
        head = SngpHead(2, 2, rng, d_rf=4)
        with pytest.raises(RuntimeError):
            head.variance(np.zeros((1, 4)))


class TestMeanFieldCalibration:
    def test_high_variance_pulls_probs_to_uniform(self, rng):
        head = SngpHead(3, 2, rng, d_rf=16, ridge=1e-8)
        head.beta.weight.data[...] = rng.standard_normal((2, 16)).astype(np.float32)
        # near-zero ridge: variance is huge, calibrated probs near 0.5
        head.fit_covariance(np.zeros((0, 16)), np.zeros(0))
        out = head.predict(Tensor(rng.standard_normal((4, 3))))
        assert out["calibrated"]
        np.testing.assert_allclose(out["probs"], 0.5, atol=0.02)

    def test_argmax_preserved(self, rng):
        head = SngpHead(3, 3, rng, d_rf=32)
        head.fit_covariance(rng.standard_normal((10, 32)), rng.uniform(0.2, 0.8, 10))
        x = Tensor(rng.standard_normal((8, 3)))
        raw = head.logits(x).data
        out = head.predict(x)
        np.testing.assert_array_equal(out["probs"].argmax(axis=1), raw.argmax(axis=1))

    def test_uncalibrated_fallback(self, rng):
        head = SngpHead(3, 2, rng, d_rf=16)
        out = head.predict(Tensor(rng.standard_normal((2, 3))))
        assert not out["calibrated"]
        assert np.all(np.isnan(out["variance"]))


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        probs = Tensor(np.array([[0.8, 0.2], [0.4, 0.6]]))
        loss = focal_loss(probs, [0, 1], gamma=0.0)
        want = -(math.log(0.8) + math.log(0.6)) / 2.0
        assert abs(loss.item() - want) < 1e-9

    def test_gamma_one_closed_form(self):
        probs = Tensor(np.array([[0.5, 0.5]]))
        loss = focal_loss(probs, [0], gamma=1.0)
        assert abs(loss.item() - 0.5 * math.log(2.0)) < 1e-9

    def test_easy_examples_downweighted(self):
        easy = Tensor(np.array([[0.99, 0.01]]))
        hard = Tensor(np.array([[0.55, 0.45]]))
        ratio_focal = focal_loss(easy, [0], 2.0).item() / focal_loss(hard, [0], 2.0).item()
        ratio_ce = focal_loss(easy, [0], 0.0).item() / focal_loss(hard, [0], 0.0).item()
        assert ratio_focal < ratio_ce

    def test_numerically_safe_at_zero_prob(self):
        probs = Tensor(np.array([[1.0, 0.0]]))
        assert np.isfinite(focal_loss(probs, [1], gamma=2.0).item())

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(Tensor(np.array([[0.5, 0.5]])), [0], gamma=-1.0)

    def test_gradient_flows(self):
        logits = Tensor(np.array([[0.2, -0.1]]), requires_grad=True)
        focal_loss(softmax(logits, axis=-1), [0], gamma=2.0).backward()
        assert logits.grad is not None and np.any(logits.grad != 0)


def separable_setup(n=60, seed=0):
    schema = FeatureSchema(
        [FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")],
        [TaskSpec("risk", 2)],
    )
    snaps = random_snapshots(schema, n, seed=seed, label_rule=lambda v, rng: int(v["x"] > 0))
    model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=seed)
    return schema, snaps, model


def quick_cfg(**kw):
    cfg = FinetuneConfig(steps=80, batch_size=32, d_rf=64, seed=0, eval_every=1000)
    cfg.schedule.initial_lr = 2e-3
    cfg.schedule.warmup_steps = 5
    cfg.schedule.warmup_target_multiplier = 1.0
    cfg.schedule.decay_steps = 100
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


class TestFinetuneLoop:
    def test_learns_separable_data(self):
        _, snaps, model = separable_setup()
        tasks = [TaskSpec("risk", 2, gamma=2.0)]
        curve = finetune_loop(model, snaps, tasks, quick_cfg(steps=250))
        assert curve[0]["total"] > curve[-1]["total"]
        scores = predict_scores(model, snaps, "risk", calibrated=True)
        labels = np.array([s.labels["risk"] for s in snaps])
        assert auroc(scores, labels) >= 0.95

    def test_covariance_fitted_after_loop(self):
        _, snaps, model = separable_setup()
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=3))
        assert model.heads["risk"].precision is not None

    def test_linear_probe_freezes_backbone(self):
        # frozen weights are not enough: moving u or v alone changes W / sigma
        # and so the embeddings
        _, snaps, model = separable_setup()
        before = {k: p.data.copy() for k, p in model.parameters().items() if not k.startswith("heads.")}
        vectors = {k: v for k, v in model.buffers().items() if k.endswith((".u", ".v"))}
        embedded = model.embed(snaps)
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=20, linear_probe=True))
        after = model.parameters()
        for k, b in before.items():
            np.testing.assert_array_equal(after[k].data, b)
        assert vectors and all(model.buffers()[k] is v for k, v in vectors.items())
        np.testing.assert_array_equal(model.embed(snaps), embedded)
        assert np.any(model.heads["risk"].beta.weight.data != 0)

    def test_linear_probe_embeds_its_rows_once(self, monkeypatch):
        """A probe's backbone is fixed: its training rows, its held-out rows
        and the covariance pass are embedded once each, and every evaluation
        scores exactly what a fresh embedding of the held-out rows gives."""
        import tabfusion.metrics as metrics

        _, snaps, model = separable_setup()
        val = list(range(20))
        embed, auprc_of = model.embed, metrics.auprc
        calls, scored = [], []

        def counting(rows, *args, **kw):
            calls.append(len(rows))
            return embed(rows, *args, **kw)

        def fresh_auprc(scores, labels):
            pooled = embed([snaps[i] for i in val])
            fresh = model.heads["risk"].predict(Tensor(pooled), calibrated=False)["probs"][:, 1]
            scored.append(np.array_equal(scores, fresh))
            return auprc_of(scores, labels)

        monkeypatch.setattr(model, "embed", counting)
        monkeypatch.setattr(metrics, "auprc", fresh_auprc)
        cfg = quick_cfg(steps=10, eval_every=2, patience=100, linear_probe=True)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg, val)
        assert calls == [40, 20, 40]  # training rows, held-out rows, covariance pass
        assert scored == [True] * 5 and len([rec for rec in curve if "val_auprc.risk" in rec]) == 5

    def test_isa_is_neither_trained_nor_power_iterated(self, monkeypatch):
        import tabfusion.optim as optim

        made = []

        class Recording(optim.AdamW):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                made.append(self)

        monkeypatch.setattr(optim, "AdamW", Recording)
        _, snaps, model = separable_setup()

        def arrays(where):
            return {path: value.data if isinstance(value, Tensor) else value
                    for path, _, _, value in model.named_state() if where(path)}

        isa = arrays(lambda path: ".isa." in path)
        row_u = model.trunk.layers[0].w_q.u
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=3))
        assert isa and all(arrays(lambda path: path in isa)[k] is v for k, v in isa.items())
        assert model.trunk.layers[0].w_q.u is not row_u  # the layers a step runs do advance
        (opt,) = made
        assert opt.m.keys() == opt.v.keys() and any(k.startswith("trunk.") for k in opt.m)
        assert not [k for k in opt.m if ".isa." in k]

    def test_backbone_training_under_another_head_is_refused(self):
        _, snaps, model = separable_setup(n=20)
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=1))
        for s in snaps:
            s.labels["churn"] = 1 - s.labels["risk"]
        with pytest.raises(ConfigError, match="head 'risk'.*linear_probe"):
            finetune_loop(model, snaps, [TaskSpec("churn", 2)], quick_cfg(steps=1))
        assert list(model.heads) == ["risk"]

    def test_two_identical_tasks_have_equal_losses(self):
        schema = FeatureSchema(
            [FeatureSpec("x", "numeric")],
            [TaskSpec("a", 2), TaskSpec("b", 2)],
        )
        snaps = random_snapshots(schema, 20, seed=1)
        for s in snaps:
            s.labels["b"] = s.labels["a"]
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0)
        # give both tasks bitwise-identical heads so the symmetry is exact
        model.heads["a"] = SngpHead(8, 2, np.random.default_rng(42), d_rf=64)
        model.heads["b"] = SngpHead(8, 2, np.random.default_rng(42), d_rf=64)
        tasks = [TaskSpec("a", 2), TaskSpec("b", 2)]
        curve = finetune_loop(model, snaps, tasks, quick_cfg(steps=3))
        for rec in curve:
            assert abs(rec["loss.a"] - rec["loss.b"]) < 1e-6

    def test_unlabeled_task_rejected(self):
        _, snaps, model = separable_setup(n=10)
        for s in snaps:
            s.labels.clear()
        with pytest.raises(ValueError, match="no labeled"):
            finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=1))

    @pytest.mark.parametrize("label", [-1, 2, 1.0, "1"])
    def test_label_outside_the_task_classes_rejected(self, label):
        # -1 used to train as class 1 by negative indexing; 2 died in focal_loss
        _, snaps, model = separable_setup(n=10)
        snaps[3].labels["risk"] = label
        with pytest.raises(ValueError, match=r"task 'risk' has label .*\[0, 2\)"):
            finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=1))
        assert model.heads == {}

    def test_early_stopping_restores_best(self):
        _, snaps, model = separable_setup(n=40)
        cfg = quick_cfg(steps=40, eval_every=5, patience=2)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg, val_indices=list(range(10)))
        # the loop either ran out of steps or stopped early; both leave a
        # fitted covariance and a usable model
        assert model.heads["risk"].precision is not None
        assert len(curve) <= 40

    def test_validation_split_holds_out_exactly_val_indices(self, monkeypatch):
        import tabfusion.finetune as ft

        _, snaps, model = separable_setup(n=30)
        seen = []
        monkeypatch.setattr(ft, "fit_heads_covariance", lambda m, rows, tasks: seen.extend(rows))
        val = np.array([7, 0, 29])
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=1), val_indices=val)
        assert [id(s) for s in seen] == [id(s) for i, s in enumerate(snaps) if i not in (0, 7, 29)]

    def test_validation_skips_rows_without_label(self):
        _, snaps, model = separable_setup(n=40)
        val = list(range(12))
        for i in val[:4]:
            snaps[i].labels["risk"] = None
        assert any(snaps[i].labels["risk"] == 1 for i in val[4:])
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=4, eval_every=2), val)
        assert all(np.isfinite(rec["val_auprc.risk"]) for rec in curve[1::2])

    def test_validation_without_positive_skips_early_stopping(self):
        _, snaps, model = separable_setup(n=40)
        val = list(range(10))
        for i in val:
            snaps[i].labels["risk"] = 0
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=6, eval_every=1, patience=1), val)
        assert len(curve) == 6
        assert not any("val_auprc.risk" in rec for rec in curve)
        assert model.heads["risk"].precision is not None

    def test_three_class_validation_scores_class_1_one_vs_rest(self):
        # scored on the raw labels, class-2 rows counted as two positives each
        schema = FeatureSchema([FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")], [TaskSpec("tier", 3)])
        snaps = random_snapshots(schema, 60, seed=2, label_rule=lambda v, rng: int(np.digitize(v["x"], [-0.5, 0.5])))
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=2)
        val = list(range(20))
        labels = np.array([snaps[i].labels["tier"] for i in val])
        assert set(labels.tolist()) == {0, 1, 2}
        curve = finetune_loop(model, snaps, [TaskSpec("tier", 3)], quick_cfg(steps=4, eval_every=4), val)
        pooled = model.embed([snaps[i] for i in val])
        scores = model.heads["tier"].predict(Tensor(pooled), calibrated=False)["probs"][:, 1]
        assert curve[-1]["val_auprc.tier"] == auprc(scores, labels == 1)
        assert 0.0 < curve[-1]["val_auprc.tier"] <= 1.0

    def test_early_stopping_restores_best_mean_over_tasks(self):
        # task a's best step is not the best step of the mean over a and b
        schema = FeatureSchema(
            [FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")],
            [TaskSpec("a", 2), TaskSpec("b", 2)],
        )
        snaps = random_snapshots(schema, 60, seed=0, label_rule=lambda v, rng: int(v["x"] > 0))
        for s in snaps:
            s.labels["b"] = int(s.values["noise"] > 0)
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=0)
        val = list(range(20))
        cfg = quick_cfg(steps=12, eval_every=1, patience=100)
        curve = finetune_loop(model, snaps, [TaskSpec("a", 2), TaskSpec("b", 2)], cfg, val)
        per_task = {t: np.array([rec[f"val_auprc.{t}"] for rec in curve]) for t in ("a", "b")}
        best = int(np.argmax((per_task["a"] + per_task["b"]) / 2))
        assert per_task["a"][best] < per_task["a"].max()
        pooled = model.embed([snaps[i] for i in val])
        for t in ("a", "b"):
            scores = model.heads[t].predict(Tensor(pooled), calibrated=False)["probs"][:, 1]
            labels = np.array([snaps[i].labels[t] for i in val])
            assert auprc(scores, labels) == curve[best][f"val_auprc.{t}"]

    def test_early_stopping_restores_the_scored_model_bitwise(self, monkeypatch):
        """Power iteration moves every spectral layer's u and v after the
        best evaluation; the restored model must embed as the scored one."""
        _, snaps, model = separable_setup(n=60)
        val = list(range(20))
        scored = []
        embed = model.embed

        def recording(rows, *args, **kw):
            out = embed(rows, *args, **kw)
            if len(rows) == len(val):
                scored.append(out)
            return out

        monkeypatch.setattr(model, "embed", recording)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=30, eval_every=3, patience=100), val)
        metrics = [rec["val_auprc.risk"] for rec in curve if "val_auprc.risk" in rec]
        assert len(scored) == len(metrics) == 10
        best = int(np.argmax(metrics))
        assert best < len(metrics) - 1  # the loop went on past the best evaluation
        assert np.array_equal(embed([snaps[i] for i in val]), scored[best])

    def test_evaluates_at_every_scheduled_step_trained_or_not(self):
        # a batch with no labeled row used to skip the evaluation of its step
        # and that evaluation's patience count
        _, snaps, model = separable_setup(n=52)
        val = list(range(10))
        for i, s in enumerate(snaps[10:]):
            if i % 7:
                s.labels["risk"] = None
        cfg = quick_cfg(steps=40, batch_size=2, eval_every=4, patience=100)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg, val)
        evaluated = [rec["step"] for rec in curve if "val_auprc.risk" in rec]
        assert evaluated == list(range(3, 40, 4))
        untrained = [rec for rec in curve if "total" not in rec]
        assert untrained and all(set(rec) == {"step", "val_auprc.risk"} for rec in untrained)
        assert all("loss.risk" in rec for rec in curve if "total" in rec)

    def test_a_batch_with_no_labeled_row_runs_no_forward(self, monkeypatch):
        # such a batch ran the encoder and the trunk, and advanced power
        # iteration, then threw the result away: 40 trunk calls for 11 steps
        _, snaps, model = separable_setup(n=52)
        for i, s in enumerate(snaps[10:]):
            if i % 7:
                s.labels["risk"] = None
        calls, trunk_call, advance = [], Trunk.__call__, finetune_mod.advance_power_iteration

        def counting_trunk(self, x, mask=None, mode="inference"):
            calls.append(mode)
            return trunk_call(self, x, mask, mode)

        def counting_advance(layers):
            calls.append("advance")
            advance(layers)

        monkeypatch.setattr(Trunk, "__call__", counting_trunk)
        monkeypatch.setattr(finetune_mod, "advance_power_iteration", counting_advance)
        cfg = quick_cfg(steps=40, batch_size=2, eval_every=4, patience=100)
        curve = finetune_loop(model, snaps, [TaskSpec("risk", 2)], cfg, list(range(10)))
        trained = [rec for rec in curve if "total" in rec]
        assert len(trained) == 11
        assert calls.count("finetune") == calls.count("advance") == len(trained)

    def test_curve_is_pinned(self):
        # captured before the training step moved into optim.Trainer: two
        # tasks, held-out rows and early stopping after step 5, then a linear
        # probe of the restored best state
        schema = FeatureSchema([FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")],
                               [TaskSpec("risk", 2), TaskSpec("churn", 2)])
        snaps = random_snapshots(schema, 48, seed=4, label_rule=lambda v, rng: int(v["x"] > 0))
        for i, s in enumerate(snaps):
            s.labels["churn"] = None if i % 3 == 0 else int(s.values["noise"] > 0)
        model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=2)
        tasks = [TaskSpec("risk", 2), TaskSpec("churn", 2, gamma=0.0)]
        cfg = FinetuneConfig(steps=30, batch_size=8, d_rf=32, eval_every=2, patience=2, seed=5)
        cfg.schedule.initial_lr = 2e-3
        cfg.schedule.warmup_steps = 3
        curve = finetune_loop(model, snaps, tasks, cfg, val_indices=list(range(36, 48)))
        probe = FinetuneConfig(steps=3, batch_size=8, d_rf=32, linear_probe=True, seed=6)
        curve += finetune_loop(model, snaps, tasks[:1], probe)
        assert curve == [
            {"step": 0, "loss.risk": 0.19218206405639648, "loss.churn": 0.6317104697227478,
             "total": 0.8238925337791443},
            {"step": 1, "loss.risk": 0.17268182337284088, "loss.churn": 0.6937146186828613,
             "total": 0.866396427154541, "val_auprc.risk": 0.6083333333333333,
             "val_auprc.churn": 0.8095238095238095},
            {"step": 2, "loss.risk": 0.17982560396194458, "loss.churn": 0.6400575637817383,
             "total": 0.8198831677436829},
            {"step": 3, "loss.risk": 0.15299402177333832, "loss.churn": 0.651024341583252,
             "total": 0.8040183782577515, "val_auprc.risk": 0.6083333333333333,
             "val_auprc.churn": 0.8095238095238095},
            {"step": 4, "loss.risk": 0.16608527302742004, "loss.churn": 0.6183924674987793,
             "total": 0.784477710723877},
            {"step": 5, "loss.risk": 0.1828915923833847, "loss.churn": 0.6303713917732239,
             "total": 0.8132629990577698, "val_auprc.risk": 0.5845238095238094,
             "val_auprc.churn": 0.8333333333333333},
            {"step": 0, "loss.risk": 0.180012047290802, "total": 0.180012047290802},
            {"step": 1, "loss.risk": 0.1797809898853302, "total": 0.1797809898853302},
            {"step": 2, "loss.risk": 0.16704192757606506, "total": 0.16704192757606506},
        ]


def two_task_setup():
    """Task `a` fully labeled, task `b` labeled on every third row."""
    schema = FeatureSchema(
        [FeatureSpec("x", "numeric"), FeatureSpec("noise", "numeric")],
        [TaskSpec("a", 2), TaskSpec("b", 2)],
    )
    snaps = random_snapshots(schema, 40, seed=4, label_rule=lambda v, rng: int(v["x"] > 0))
    for i, s in enumerate(snaps):
        s.labels["b"] = None if i % 3 else 1 - s.labels["a"]
    model = Model(schema, d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=8, seed=4)
    finetune_loop(model, snaps, [TaskSpec("a", 2), TaskSpec("b", 2)], quick_cfg(steps=3))
    return snaps, model


class TestInferencePath:
    def test_covariance_pass_fits_each_head_on_its_labeled_rows(self):
        snaps, model = two_task_setup()
        for task in ("a", "b"):
            head = model.heads[task]
            fitted = head.precision
            rows = [s for s in snaps if s.labels[task] is not None]
            phi = head.features(Tensor(model.embed(rows)))
            probs = softmax(head.beta(phi), axis=-1).data  # float32, as the pass computes it
            assert len(rows) == (40 if task == "a" else 14)
            np.testing.assert_array_equal(head.fit_covariance(phi.data, probs), fitted)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_model_predict_is_the_head_on_embeddings(self, batch_size):
        snaps, model = two_task_setup()
        pooled = Tensor(model.embed(snaps))
        for task in ("a", "b"):
            want = model.heads[task].predict(pooled)
            got = model.predict(snaps, task, batch_size=batch_size)
            assert got["calibrated"] is True
            np.testing.assert_array_equal(got["probs"], want["probs"])
            np.testing.assert_array_equal(got["variance"], want["variance"])
            np.testing.assert_array_equal(predict_scores(model, snaps, task), want["probs"][:, 1])
            raw = model.predict(snaps, task, calibrated=False, batch_size=batch_size)
            logits = model.heads[task].logits(pooled).data.astype(np.float64)
            np.testing.assert_allclose(raw["probs"].sum(axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.argmax(raw["probs"], axis=1), np.argmax(logits, axis=1))
            assert raw["calibrated"] is False and np.all(np.isnan(raw["variance"]))

    def test_single_rows_are_bitwise_their_batch_rows_at_default_width(self, monkeypatch):
        """Criterion 5 at d 32, 8 heads, 16 tokens and d_rf 1024: a 100-row
        batch crosses several attention and ffn blocks and ends in a partial
        block of each, and every single-row answer equals its batch row."""
        feats = [FeatureSpec(f"num{i}", "numeric") for i in range(6)]
        feats += [FeatureSpec(f"cat{i}", "categorical", vocab_size=5 + 7 * i) for i in range(3)]
        feats += [
            FeatureSpec("tags", "multi_categorical", vocab_size=20),
            FeatureSpec("profile", "embedding", dim=16),
            FeatureSpec("assets", "multi_embedding", dim=16, max_count=5),
        ]
        schema = FeatureSchema(feats, [TaskSpec("risk", 2)])
        assert schema.token_count() == 16
        snaps = random_snapshots(schema, 100, seed=7, missing_rate=0.15)
        model = Model(schema, d=32, n_layers=2, heads=8, ffn_dim=512, seed=3)
        finetune_loop(model, snaps, [TaskSpec("risk", 2)], quick_cfg(steps=2, batch_size=32, d_rf=1024))
        sizes, blocks = {}, tensor_mod._example_blocks

        def spy(n, per_example):
            out = blocks(n, per_example)
            sizes.setdefault(per_example, [s.stop - s.start for s in out])
            return out

        monkeypatch.setattr(tensor_mod, "_example_blocks", spy)
        batch = model.predict(snaps, "risk")
        # float32 bytes per example: attention weights plus q, k, v and
        # output rows, and the ffn's hidden activation
        assert sizes[(8 * 16 * 16 + 4 * 16 * 32) * 4] == [32, 32, 32, 4]
        assert sizes[16 * 512 * 4] == [16] * 6 + [4]
        assert batch["calibrated"]
        for i, s in enumerate(snaps):
            one = model.predict([s], "risk")
            assert np.array_equal(one["probs"][0], batch["probs"][i])
            assert np.array_equal(one["variance"][0], batch["variance"][i])

    def test_inference_passes_record_no_graph(self, monkeypatch):
        snaps, model = two_task_setup()
        seen = []
        trunk, head = model.trunk, model.heads["a"]
        features = head.features

        def spy_trunk(x, mask=None, mode="inference"):
            out = trunk(x, mask, mode)
            seen.extend([x, *out])
            return out

        def spy_features(pooled):
            seen.append(features(pooled))
            return seen[-1]

        monkeypatch.setattr(model, "trunk", spy_trunk)
        monkeypatch.setattr(head, "features", spy_features)
        model.predict(snaps, "a")
        fit_heads_covariance(model, snaps, [TaskSpec("a", 2)])
        assert len(seen) == 8  # tokens in, tokens and pooled out, features; twice
        assert all(not t.requires_grad and t._node is None for t in seen)

    def test_model_predict_on_no_rows(self):
        _, model = two_task_setup()
        out = model.predict([], "b")
        assert out["probs"].shape == (0, 2) and out["variance"].shape == (0,)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("t", classes=1)
        with pytest.raises(ValueError):
            TaskSpec("t", gamma=-0.5)
