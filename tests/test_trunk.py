import weakref

import numpy as np
import pytest

from conftest import graph_arrays
import tabfusion.nn as nn_mod
import tabfusion.tensor as tensor_mod
import tabfusion.trunk as trunk_mod
from tabfusion.nn import Linear
from tabfusion.tensor import Tensor, linear, mac_count, no_grad, reset_mac_count
from tabfusion.trunk import IsaBlock, Trunk, TrunkConfig, TrunkLayer, attention, masked_mean


def naive_attention(x, wq, wk, wv, heads, mask=None):
    """Three-loop reference implementation, no batching tricks."""
    b, t, d = x.shape
    dh = d // heads
    out = np.zeros_like(x)
    for bi in range(b):
        q = x[bi] @ wq.T
        k = x[bi] @ wk.T
        v = x[bi] @ wv.T
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            qs, ks, vs = q[:, sl], k[:, sl], v[:, sl]
            for i in range(t):
                logits = qs[i] @ ks.T / np.sqrt(dh)
                if mask is not None:
                    logits = logits + (mask[bi] - 1.0) * 1e9
                e = np.exp(logits - logits.max())
                a = e / e.sum()
                out[bi, i, sl] = a @ vs
    return out


def plain_qkv(d, rng):
    layers = []
    for _ in range(3):
        lin = Linear(d, d, rng, bias=False)
        lin.weight.data = rng.standard_normal((d, d)).astype(np.float64)
        layers.append(lin)
    return layers


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_naive_loops(self, heads, rng):
        b, t, d = 3, 5, 8
        wq, wk, wv = plain_qkv(d, rng)
        x = rng.standard_normal((b, t, d))
        got = attention(Tensor(x), wq, wk, wv, heads=heads).data
        want = naive_attention(x, wq.weight.data, wk.weight.data, wv.weight.data, heads)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_masked_matches_naive(self, rng):
        b, t, d = 2, 4, 8
        wq, wk, wv = plain_qkv(d, rng)
        x = rng.standard_normal((b, t, d))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]], dtype=np.float64)
        got = attention(Tensor(x), wq, wk, wv, heads=2, key_mask=mask).data
        want = naive_attention(x, wq.weight.data, wk.weight.data, wv.weight.data, 2, mask)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_single_token_is_value_projection(self, rng):
        # with one token the softmax is trivially 1, output = x W_v^T
        wq, wk, wv = plain_qkv(6, rng)
        x = rng.standard_normal((2, 1, 6))
        got = attention(Tensor(x), wq, wk, wv, heads=2).data
        np.testing.assert_allclose(got, x @ wv.weight.data.T, rtol=1e-6)

    def test_masked_keys_ignored(self, rng):
        wq, wk, wv = plain_qkv(4, rng)
        x = rng.standard_normal((1, 3, 4))
        mask = np.array([[1.0, 1.0, 0.0]])
        base = attention(Tensor(x), wq, wk, wv, heads=1, key_mask=mask).data
        x2 = x.copy()
        x2[0, 2] = 99.0  # only the masked token changes
        got = attention(Tensor(x2), wq, wk, wv, heads=1, key_mask=mask).data
        np.testing.assert_allclose(got[0, :2], base[0, :2], rtol=1e-6)


class TestIsa:
    def cfg(self, **kw):
        base = dict(d=32, n_tokens=3, n_layers=1, heads=8, ffn_dim=16, d_prime=16)
        base.update(kw)
        return TrunkConfig(**base)

    def test_shapes(self, rng):
        block = IsaBlock(self.cfg(), rng)
        x = Tensor(rng.standard_normal((5, 3, 32)).astype(np.float32))
        out = block(x)
        assert out.shape == (5, 3, 32)

    def test_internal_projection_shapes(self, rng):
        cfg = self.cfg()
        block = IsaBlock(cfg, rng)
        x = Tensor(rng.standard_normal((4, 3, 32)).astype(np.float32))
        flat = x.reshape(1, 4, 3 * 32)
        assert flat.shape == (1, 4, 96)
        proj = block.project(flat)
        assert proj.shape == (1, 4, cfg.d_prime) == (1, 4, 16)

    def test_single_example_batch_works(self, rng):
        block = IsaBlock(self.cfg(), rng)
        out = block(Tensor(rng.standard_normal((1, 3, 32)).astype(np.float32)))
        assert out.shape == (1, 3, 32)
        assert np.all(np.isfinite(out.data))

    def test_mixes_information_across_examples(self, rng):
        block = IsaBlock(self.cfg(), rng)
        x = rng.standard_normal((4, 3, 32)).astype(np.float32)
        base = block(Tensor(x)).data
        x2 = x.copy()
        x2[3] += 1.0  # perturb a different example
        got = block(Tensor(x2)).data
        assert not np.allclose(got[0], base[0])


class TestTrunk:
    def cfg(self, **kw):
        base = dict(d=8, n_tokens=4, n_layers=2, heads=2, ffn_dim=16, d_prime=8)
        base.update(kw)
        return TrunkConfig(**base)

    def test_output_shapes(self, rng):
        trunk = Trunk(self.cfg(), rng)
        x = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
        tokens, pooled = trunk(x, mode="pretrain")
        assert tokens.shape == (3, 4, 8)
        assert pooled.shape == (3, 8)

    def test_isa_bypassed_outside_pretrain(self, rng):
        # zeroing every non-ISA residual path makes finetune mode an identity,
        # while pretrain mode still moves the input through ISA
        cfg = self.cfg(spectral_norm=False)
        trunk = Trunk(cfg, rng)
        for layer in trunk.layers:
            layer.w_v.weight.data[...] = 0.0
            layer.ffn.fc2.weight.data[...] = 0.0
            layer.ffn.fc2.bias.data[...] = 0.0
        x = rng.standard_normal((3, 4, 8)).astype(np.float32)
        tokens_ft, _ = trunk(Tensor(x), mode="finetune")
        np.testing.assert_allclose(tokens_ft.data, x, atol=1e-6)
        tokens_pt, _ = trunk(Tensor(x), mode="pretrain")
        assert not np.allclose(tokens_pt.data, x, atol=1e-4)

    def test_batch_independence_outside_pretrain(self, rng):
        trunk = Trunk(self.cfg(), rng)
        x = rng.standard_normal((6, 4, 8)).astype(np.float32)
        full, pooled_full = trunk(Tensor(x), mode="inference")
        one, pooled_one = trunk(Tensor(x[2:3]), mode="inference")
        np.testing.assert_array_equal(full.data[2], one.data[0])
        np.testing.assert_array_equal(pooled_full.data[2], pooled_one.data[0])

    @pytest.mark.parametrize("mode", ["pretrain", "finetune", "inference"])
    def test_only_inference_is_graph_free(self, mode, rng):
        trunk = Trunk(self.cfg(), rng)
        x = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32), requires_grad=True)
        for out in trunk(x, mode=mode):
            node = out._node
            graph = node is not None
            recorded = out.requires_grad, graph and bool(node.parents), graph and node.backward is not None
            assert recorded == ((False,) * 3 if mode == "inference" else (True,) * 3)

    def test_pretrain_not_batch_independent(self, rng):
        trunk = Trunk(self.cfg(), rng)
        x = rng.standard_normal((6, 4, 8)).astype(np.float32)
        full, _ = trunk(Tensor(x), mode="pretrain")
        one, _ = trunk(Tensor(x[2:3]), mode="pretrain")
        assert not np.allclose(full.data[2], one.data[0])

    def test_zero_layers_is_pooling_only(self, rng):
        trunk = Trunk(self.cfg(n_layers=0), rng)
        x = rng.standard_normal((2, 4, 8)).astype(np.float32)
        tokens, pooled = trunk(Tensor(x))
        np.testing.assert_array_equal(tokens.data, x)
        np.testing.assert_allclose(pooled.data, x.mean(axis=1), rtol=1e-6)

    def test_masked_mean(self):
        x = Tensor(np.array([[[2.0, 4.0], [6.0, 8.0], [100.0, 100.0]]]))
        pooled = masked_mean(x, np.array([[1.0, 1.0, 0.0]]))
        np.testing.assert_allclose(pooled.data, [[4.0, 6.0]])

    def test_unknown_mode_rejected(self, rng):
        trunk = Trunk(self.cfg(), rng)
        with pytest.raises(ValueError, match="mode"):
            trunk(Tensor(np.zeros((1, 4, 8), dtype=np.float32)), mode="train")

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            self.cfg(heads=3)

    def test_activations_bounded_with_spectral_norm(self, rng):
        # spectrally normalized stacks should not blow activations up
        trunk = Trunk(self.cfg(n_layers=4), rng)
        x = rng.standard_normal((4, 4, 8)).astype(np.float32)
        tokens, _ = trunk(Tensor(x), mode="pretrain")
        assert np.all(np.isfinite(tokens.data))
        assert np.abs(tokens.data).max() < 100.0 * max(1.0, np.abs(x).max())


    def test_pretrain_graph_keeps_no_ffn_activation(self, rng):
        """No closure of a pretrain-mode graph holds an array of B*T rows of
        ffn_dim: the ffn nodes recompute their hidden activation."""
        # B*T = 24 rows, apart from the 32 rows of the [d, ffn_dim] weights
        b, t, cfg = 3, 8, self.cfg(d=32, n_tokens=8, heads=8, ffn_dim=512, d_prime=128)
        trunk = Trunk(cfg, rng)
        x = Tensor(rng.standard_normal((b, t, 32)).astype(np.float32), requires_grad=True)
        tokens, pooled = trunk(x, mode="pretrain")

        held = graph_arrays(tokens._node, pooled._node)
        assert len(held) > 50
        hidden = [a.shape for a in held if a.ndim and a.shape[-1] == cfg.ffn_dim and a.size == b * t * cfg.ffn_dim]
        assert hidden == []

    def test_pretrain_graph_keeps_no_attention_projection(self, rng, monkeypatch):
        """No closure of a pretrain-mode graph holds the q, k or v of a row
        attention ([B, T, d]) or of ISA's attention ([1, B, d']), nor a view
        of one: each attention node keeps its input and the three weights,
        and its backward recomputes the projections."""
        b, t, cfg = 3, 8, self.cfg(d=32, n_tokens=8, heads=8, ffn_dim=512, d_prime=128)
        trunk = Trunk(cfg, rng)
        inputs, projections, attend = [], [], trunk_mod.multi_head_attention

        def spy(x, w_q, w_k, w_v, heads=1, key_mask=None):
            inputs.append(x.data)
            with no_grad():
                projections.extend(linear(x, w).data for w in (w_q, w_k, w_v))
            return attend(x, w_q, w_k, w_v, heads, key_mask)

        monkeypatch.setattr(trunk_mod, "multi_head_attention", spy)
        x = Tensor(rng.standard_normal((b, t, cfg.d)).astype(np.float32), requires_grad=True)
        tokens, pooled = trunk(x, mode="pretrain")
        monkeypatch.undo()
        assert [p.shape for p in projections] == ([(b, t, cfg.d)] * 3 + [(1, b, cfg.d_prime)] * 3) * cfg.n_layers
        owners = [a if a.base is None else a.base for a in graph_arrays(tokens._node, pooled._node)]
        assert all(any(o is a for o in owners) for a in inputs)  # each node keeps its input
        kept = [p.shape for p in projections if any(o.shape == p.shape and np.array_equal(o, p) for o in owners)]
        assert kept == []

    def test_pretrain_graph_frees_the_values_no_backward_reads(self, rng, monkeypatch):
        """Once a pretrain-mode forward returns and the caller holds only the
        loss, each layer's row attention output, row ffn output and the two
        residual sums that only an add and a layer_norm consume are freed:
        add reads no operand, and layer_norm keeps its own output. The sum
        that ISA projects stays, since its projection's weight gradient
        reads it."""
        b, t, cfg = 4, 8, self.cfg(d=32, n_tokens=8, heads=8, ffn_dim=512, d_prime=128)
        trunk = Trunk(cfg, rng)
        outputs = {"attention": [], "ffn": [], "add": []}

        def spying(name, fn):
            def spy(*args, **kwargs):
                out = fn(*args, **kwargs)
                if out.shape == (b, t, cfg.d):  # the row ops, not ISA's [1, B, d']
                    outputs[name].append(weakref.ref(out.data))
                return out

            return spy

        monkeypatch.setattr(trunk_mod, "multi_head_attention", spying("attention", trunk_mod.multi_head_attention))
        monkeypatch.setattr(nn_mod, "ffn", spying("ffn", nn_mod.ffn))
        monkeypatch.setattr(tensor_mod, "add", spying("add", tensor_mod.add))
        x = Tensor(rng.standard_normal((b, t, cfg.d)).astype(np.float32), requires_grad=True)
        loss = trunk(x, mode="pretrain")[1].sum()
        monkeypatch.undo()
        assert [len(refs) for refs in outputs.values()] == [2, 2, 6]
        alive = {name: [ref() is not None for ref in refs] for name, refs in outputs.items()}
        # per layer: x + attention, x + ffn (ISA's input), x + isa
        assert alive == {"attention": [False, False], "ffn": [False, False], "add": [False, True, False] * 2}
        loss.backward()
        assert x.grad is not None

class TestIsaCost:
    def test_mac_count_linear_in_batch(self, rng):
        """The ISA block cost grows linearly in B for fixed d' (attention term
        is B^2 * d', dominated here by the linear projections at small B)."""
        cfg = TrunkConfig(d=8, n_tokens=4, n_layers=1, heads=2, ffn_dim=16, d_prime=8)
        trunk = Trunk(cfg, rng)
        costs = {}
        for b in (8, 16, 32):
            x = Tensor(rng.standard_normal((b, 4, 8)).astype(np.float32))
            reset_mac_count()
            trunk(x, mode="pretrain")
            costs[b] = mac_count()
        # doubling B should roughly double the MACs (quadratic term is tiny)
        r1 = costs[16] / costs[8]
        r2 = costs[32] / costs[16]
        assert 1.8 < r1 < 2.3
        assert 1.8 < r2 < 2.4
