import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import every_op, fd_gradient_check, graph_arrays, small_schema, traced
from tabfusion.model import Model
import tabfusion.tensor as tensor_mod
from tabfusion.tensor import (
    Node,
    ShapeError,
    Tensor,
    _row_max,
    concat,
    ffn,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    multi_head_attention,
    no_grad,
    numeric_encoding,
    reduce_mean,
    reduce_sum,
    softmax,
    spectral_normalize,
)


def t64(x, grad=True):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_softmax_stability(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_layer_norm_constant_vector(self):
        out = layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-6)

    def test_matmul_identity(self, rng):
        a = rng.standard_normal((3, 3))
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(out.data, a, rtol=1e-6)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError, match="add"):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4,)))

    def test_gelu_values(self):
        out = gelu(Tensor([0.0]))
        assert out.data[0] == 0.0
        # tanh-approximation reference at x=1
        assert abs(gelu(Tensor([1.0])).data[0] - 0.841192) < 1e-5

    def test_concat_and_reshape(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 1)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 3)
        assert out.reshape(6).shape == (6,)

    def test_reductions(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert reduce_sum(x).item() == 15.0
        np.testing.assert_allclose(reduce_mean(x, axis=1).data, [1.0, 4.0])


class TestBackward:
    def test_square_gradient(self):
        x = t64([3.0])
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ShapeError):
            x.backward()

    def test_softmax_cross_entropy_uniform_gradient(self):
        # 3 classes, uniform logits, true class 0: grad = p - onehot
        logits = t64([0.0, 0.0, 0.0])
        loss = -(log_softmax(logits) * Tensor(np.array([1.0, 0.0, 0.0]))).sum()
        loss.backward()
        np.testing.assert_allclose(logits.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_dag_node_visited_once(self):
        # diamond graph: y = (x + x) * (x + x); d/dx = 8x
        x = t64([2.0])
        s = x + x
        (s * s).sum().backward()
        np.testing.assert_allclose(x.grad, [16.0])

    def test_composite_graph_matches_finite_differences(self, rng):
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((4, 2)))
        c = t64(rng.standard_normal((3, 2)))

        def build():
            h = matmul(a, b).tanh() + c
            return (softmax(h, axis=-1) * h).sum()

        assert fd_gradient_check(build, [a, b, c]) < 1e-4

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x.exp().sum(),
            lambda x: (x + 5.1).log().sum(),
            lambda x: x.sin().sum(),
            lambda x: x.cos().sum(),
            lambda x: gelu(x).sum(),
            lambda x: layer_norm(x).sum(axis=None),
            lambda x: softmax(x, axis=-1).sum(axis=None) + (softmax(x, axis=-1) ** 2.0).sum(),
            lambda x: log_softmax(x, axis=-1).mean(),
            lambda x: (x[1:3, :] * x[0:2, :]).sum(),
            lambda x: x.reshape(12).mean() + x.transpose(1, 0).sum(),
        ],
    )
    def test_primitive_gradients(self, op, rng):
        x = t64(rng.standard_normal((4, 3)))
        assert fd_gradient_check(lambda: op(x), [x]) < 1e-4

    def test_broadcast_gradients(self, rng):
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((1, 4)))

        def build():
            return ((a + b) * b).sum()

        assert fd_gradient_check(build, [a, b]) < 1e-4


class TestNoGrad:
    def test_ops_record_no_graph(self, rng):
        x, w = t64(rng.standard_normal((4, 3))), t64(rng.standard_normal((3, 3)))
        with no_grad():
            outs = every_op(x, w)
        assert all(not o.requires_grad and o._node is None for o in outs)
        assert all(o.requires_grad and o._node.parents and o._node.backward is not None for o in every_op(x, w))

    def test_same_values_as_with_graph(self, rng):
        x, w = t64(rng.standard_normal((4, 3))), t64(rng.standard_normal((3, 3)))
        with no_grad():
            frozen = every_op(x, w)
        for a, b in zip(frozen, every_op(x, w)):
            assert np.array_equal(a.data, b.data)

    def test_nests_and_restores_on_raise(self):
        x = t64([1.0])
        with pytest.raises(KeyError):
            with no_grad():
                with no_grad():
                    pass
                assert not (x * x).requires_grad  # the inner exit restored "off"
                raise KeyError("boom")
        assert (x * x).requires_grad


class TestBackwardRelease:
    def test_interior_nodes_freed_leaf_grads_kept(self, rng):
        x = t64(rng.standard_normal((4, 3)))
        h = layer_norm(x).tanh()
        s = h * h
        loss = s.sum()
        loss.backward()
        for out in (h, s, loss):
            assert out.grad is None and out._node.parents == () and out._node.backward is None
        assert x.grad is not None and x.grad.shape == x.shape

    def test_leaf_grads_match_copying_sweep_that_frees_nothing(self, rng, monkeypatch):
        """A model's graph (trunk with ISA, residual adds, shared weights)
        walked by backward gives bitwise the gradients of a sweep that copies
        every first gradient and keeps every node."""
        model = Model(small_schema(), d=8, n_layers=2, heads=2, ffn_dim=16, d_prime=8, seed=3)
        params = model.trunk.parameters()
        x0 = rng.standard_normal((5, model.trunk.cfg.n_tokens, 8)).astype(np.float32)

        def loss_fn():
            for p in params.values():
                p.grad = None
            tokens, pooled = model.trunk(Tensor(x0), mode="pretrain")
            return (pooled * pooled).sum() + tokens.mean()

        loss_fn().backward()
        got = {k: p.grad for k, p in params.items()}

        def copying(self, g):
            if self.grad is None:
                self.grad = g.astype(self.dtype, copy=True)
            else:
                self.grad += g

        monkeypatch.setattr(Node, "accumulate", copying)
        root = loss_fn()
        topo, seen, stack = [], set(), [(root._node, False)]
        while stack:  # the same post-order as backward, so the same summation order
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node.parents)
        root.grad = np.ones_like(root.data)
        for node in reversed(topo):
            if node.backward is not None:
                node.backward(node.grad)
        assert all(p.grad is not None for p in params.values())
        for k, p in params.items():
            assert np.array_equal(got[k], p.grad), k

    @pytest.mark.parametrize("a_first", [True, False])
    def test_add_operands_do_not_share_a_gradient(self, a_first):
        # add hands its own gradient to its first operand; a later
        # accumulation into one operand's gradient must not reach the other
        a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
        terms = [(a + b).sum(), (a * 3.0).sum()]
        (terms[0] + terms[1] if a_first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        # the same operand twice
        x = t64([1.0, 2.0])
        terms = [(x + x).sum(), (x * 3.0).sum()]
        (terms[0] + terms[1] if a_first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])
        # two products, whose fresh gradients add hands on without a copy
        a, b, c = t64([1.0, 2.0]), t64([3.0, 4.0]), t64([5.0, 6.0])
        h = a * c
        terms = [(h + b * c).sum(), (h * 2.0).sum()]
        (terms[0] + terms[1] if a_first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(a.grad, [15.0, 18.0])
        np.testing.assert_array_equal(b.grad, [5.0, 6.0])
        np.testing.assert_array_equal(c.grad, [6.0, 10.0])

    def test_root_without_graph_raises(self):
        x = t64([1.0, 2.0])
        with no_grad():
            loss = (x * x).sum()
        with pytest.raises(RuntimeError, match="no graph"):
            loss.backward()
        with pytest.raises(RuntimeError, match="no graph"):
            Tensor([1.0]).backward()
        assert x.grad is None

    def test_second_backward_raises(self):
        x = t64([1.0, 2.0])
        h = x * x
        loss = h.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (h * 2.0).sum().backward()  # a new root over the consumed graph
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_root_raises_shape_error_first(self):
        with no_grad():
            out = t64([1.0, 2.0]) * 2.0
        with pytest.raises(ShapeError):
            out.backward()

    def test_backward_peak_memory_stays_a_few_arrays(self):
        """tracemalloc sees numpy buffers: freeing each node as the sweep
        passes it keeps the peak near the live gradient, not the chain."""
        n = 1 << 17  # 1 MiB of float64 per array
        x = t64(np.linspace(-1.0, 1.0, n))
        y = x
        for _ in range(10):
            y = y.sin()
        loss = y.sum()
        _, peak = traced(loss.backward)
        assert peak / x.data.nbytes < 4.0


class TestFusedOps:
    """gelu and layer_norm are single graph nodes with hand-written backward
    passes; matmul against a 2-D weight takes its gradient in one gemm."""

    @pytest.mark.parametrize("op", [gelu, layer_norm], ids=["gelu", "layer_norm"])
    def test_weighted_sum_gradient(self, op, rng):
        # a random weight: layer_norm(x).sum() alone has a zero gradient
        x = t64(rng.standard_normal((2, 3, 5)))
        w = t64(rng.standard_normal((2, 3, 5)), grad=False)
        assert op(x)._node.parents == (x._node,)
        assert fd_gradient_check(lambda: (op(x) * w).sum(), [x]) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 16, 32), (256, 16, 32), (1, 256, 128), (7, 5), (3, 1, 16, 33)])
    def test_layer_norm_is_the_np_mean_form_bitwise(self, shape, dtype, rng):
        x = Tensor((rng.standard_normal(shape) * 3.0 + 1.0).astype(dtype), requires_grad=True)
        g = rng.standard_normal(shape).astype(dtype)
        out = layer_norm(x)
        (out * Tensor(g)).sum().backward()  # out's gradient is g exactly
        y = x.data - np.mean(x.data, axis=-1, keepdims=True)
        inv = (np.mean(y * y, axis=-1, keepdims=True) + 1e-5) ** -0.5
        y *= inv
        gx = g - np.mean(g, axis=-1, keepdims=True)
        gx -= y * np.mean(g * y, axis=-1, keepdims=True)
        gx *= inv
        assert out.dtype == dtype and x.grad.dtype == dtype
        assert np.array_equal(out.data, y)
        assert np.array_equal(x.grad, gx)

    def test_batched_activation_times_weight_gradients(self, rng):
        a = t64(rng.standard_normal((3, 4, 5)))
        w = t64(rng.standard_normal((5, 2)))
        c = t64(rng.standard_normal((3, 4, 2)), grad=False)
        assert fd_gradient_check(lambda: (matmul(a, w) * c).sum(), [a, w]) < 1e-4

    def test_float32_forward_matches_float64_reference(self, rng):
        x64 = rng.standard_normal((4, 6, 16)) * 3.0
        x64[0, 0] = 2.5  # a constant row
        x32 = Tensor(x64.astype(np.float32))
        c, k = np.sqrt(2.0 / np.pi), 0.044715
        gelu_ref = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + k * x64**3)))
        centered = x64 - x64.mean(axis=-1, keepdims=True)
        ln_ref = centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5)
        for out, ref in ((gelu(x32), gelu_ref), (layer_norm(x32), ln_ref)):
            assert out.dtype == np.float32
            np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)
        assert np.all(layer_norm(x32).data[0, 0] == 0.0)


def per_feature_numeric_encoding(values, miss, freqs, missing) -> Tensor:
    """The composition numeric_encoding replaces: each feature's sinusoid
    from elementwise ops, then its missing-value blend, stacked on axis 1."""
    b, n = values.shape
    tokens = []
    for k in range(n):
        d = missing[k].shape[0]
        arg = Tensor(values[:, k : k + 1]) * freqs[k].reshape(1, -1) * math.pi
        s = arg.sin().reshape(b, d // 2, 1)
        c = arg.cos().reshape(b, d // 2, 1)
        se = concat([s, c], axis=2).reshape(b, d)
        m = Tensor(miss[:, k : k + 1])
        tokens.append((se * (1.0 - m) + missing[k].reshape(1, d) * m).reshape(b, 1, d))
    return concat(tokens, axis=1)


class TestOneNodeOps:
    """linear, spectral_normalize, multi_head_attention and numeric_encoding
    are single graph nodes with analytic backward passes, checked in float64
    against finite differences through a random output weight."""

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_linear_gradient(self, shape, bias, rng):
        x = t64(rng.standard_normal(shape))
        w = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal(3)) if bias else None
        c = t64(rng.standard_normal(shape[:-1] + (3,)), grad=False)
        out = linear(x, w, b)
        assert out._node.parents == ((x._node, w._node, b._node) if bias else (x._node, w._node))
        np.testing.assert_allclose(out.data, x.data @ w.data.T + (b.data if bias else 0.0), rtol=1e-12)
        assert fd_gradient_check(lambda: (linear(x, w, b) * c).sum(), [x, w] + ([b] if bias else [])) < 1e-4

    def test_linear_forward_is_matmul_plus_bias_bitwise(self, rng):
        w = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal(6).astype(np.float32))
        for shape in ((7, 5), (3, 4, 5)):
            x = Tensor(rng.standard_normal(shape).astype(np.float32))
            want = (matmul(x, w.transpose(1, 0)) + b).data
            assert np.array_equal(linear(x, w, b).data, want)

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.ones(3)))

    def test_spectral_normalize_gradient_with_u_v_frozen(self, rng):
        w = t64(rng.standard_normal((4, 3)))
        u, v = rng.standard_normal(4), rng.standard_normal(3)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        u *= np.sign(u @ w.data @ v)  # sigma > 0, so the eps guard leaves the node in place
        c = t64(rng.standard_normal((4, 3)), grad=False)
        out = spectral_normalize(w, u, v, 1e-8)
        assert out._node.parents == (w._node,)
        np.testing.assert_allclose(out.data, w.data / (u @ w.data @ v), rtol=1e-12)
        assert fd_gradient_check(lambda: (spectral_normalize(w, u, v, 1e-8) * c).sum(), [w]) < 1e-4

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_attention_gradient(self, heads, masked, rng):
        x, ws = attention_leaves(rng, 2, 3, 4, d_in=5)  # the projections take d_in 5 to d 4
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]) if masked else None
        c = t64(rng.standard_normal((2, 3, 4)), grad=False)
        assert multi_head_attention(x, *ws, heads, mask)._node.parents == tuple(t._node for t in (x, *ws))

        def build():
            return (multi_head_attention(x, *ws, heads, mask) * c).sum()

        assert fd_gradient_check(build, [x, *ws]) < 1e-4

    def test_attention_shape_errors(self):
        x, w = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 4)))
        with pytest.raises(ShapeError):
            multi_head_attention(x, w, w, Tensor(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            multi_head_attention(x, w, w, w, heads=3)
        with pytest.raises(ShapeError):
            multi_head_attention(x, *[Tensor(np.ones((4, 3)))] * 3)
        with pytest.raises(ShapeError):
            multi_head_attention(Tensor(np.ones((3, 4))), w, w, w)

    def test_numeric_encoding_gradient(self, rng):
        b, n, h = 5, 3, 4
        x = t64(rng.standard_normal((b, n)))
        miss = (rng.random((b, n)) < 0.3).astype(np.float64)
        miss[0] = [1.0, 0.0, 1.0]
        x.data[miss == 1.0] = 0.0  # missing slots are zero-filled
        freqs = [t64(rng.uniform(0.1, 2.0, h)) for _ in range(n)]
        missing = [t64(rng.standard_normal(2 * h)) for _ in range(n)]
        c = t64(rng.standard_normal((b, n, 2 * h)), grad=False)
        out = numeric_encoding(x, miss, freqs, missing)
        assert out.shape == (b, n, 2 * h)
        assert out._node.parents == tuple(t._node for t in (x, *freqs, *missing))

        def build():
            return (numeric_encoding(x, miss, freqs, missing) * c).sum()

        assert fd_gradient_check(build, [x] + freqs + missing) < 1e-4

    @pytest.mark.parametrize("b, n, d", [(1, 6, 32), (7, 1, 8), (64, 6, 32), (33, 4, 16)])
    def test_numeric_encoding_is_per_feature_composition_bitwise(self, b, n, d, rng):
        values = (rng.standard_normal((b, n)) * 10.0 ** rng.integers(-2, 3, (b, n))).astype(np.float32)
        miss = (rng.random((b, n)) < 0.2).astype(np.float32)
        values[miss == 1.0] = 0.0
        freqs = [Tensor(np.geomspace(0.1, 10.0, d // 2).astype(np.float32) * (k + 1)) for k in range(n)]
        missing = [Tensor(rng.standard_normal(d).astype(np.float32)) for _ in range(n)]
        got = numeric_encoding(Tensor(values), miss, freqs, missing).data
        assert np.array_equal(got, per_feature_numeric_encoding(values, miss, freqs, missing).data)

    @pytest.mark.parametrize("n", range(1, 34))
    def test_row_max_equals_numpy_max_bitwise(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((40, 3, n)).astype(np.float32)
        pick = rng.random(x.shape)
        x[pick < 0.05] = np.inf
        x[(pick >= 0.05) & (pick < 0.15)] = -np.inf
        x[(pick >= 0.15) & (pick < 0.18)] = np.nan
        x[:2] = -np.inf  # rows with no finite value
        got, want = _row_max(x), x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(_row_max(x.astype(np.float64)), want.astype(np.float64), equal_nan=True)


class TestFfn:
    """ffn is linear -> gelu -> linear as one node that walks axis 0 in
    blocks of examples and keeps only its input and w1^T."""

    @staticmethod
    def leaves(rng, d_in, hidden, d_out, dtype=np.float64, grad=True):
        def t(*shape, scale=1.0):
            return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=grad)

        return t(hidden, d_in, scale=0.5), t(hidden), t(d_out, hidden, scale=0.5), t(d_out)

    @pytest.mark.parametrize("shape", [(5, 4), (5, 3, 4), (1, 5, 4)], ids=["2d", "3d", "isa"])
    def test_gradient_over_blocks_with_a_tail(self, shape, rng, monkeypatch):
        hidden = 6
        # two examples per block, so a batch of 5 ends in a block of one
        per_example = math.prod(shape[1:-1]) * hidden * 8
        monkeypatch.setattr(tensor_mod, "_BLOCK_BYTES", 2 * per_example)
        x = t64(rng.standard_normal(shape))
        w1, b1, w2, b2 = self.leaves(rng, 4, hidden, 3)
        c = t64(rng.standard_normal(shape[:-1] + (3,)), grad=False)
        out = ffn(x, w1, b1, w2, b2)
        assert out._node.parents == tuple(t._node for t in (x, w1, b1, w2, b2))
        with no_grad():
            want = linear(gelu(linear(x, w1, b1)), w2, b2).data
        np.testing.assert_allclose(out.data, want, rtol=1e-12)
        assert fd_gradient_check(lambda: (ffn(x, w1, b1, w2, b2) * c).sum(), [x, w1, b1, w2, b2]) < 1e-4

    @pytest.mark.parametrize("shape", [(40, 16, 32), (600, 8), (1, 300, 32)], ids=["3d", "2d", "isa"])
    def test_forward_is_the_three_ops_bitwise_in_any_batch(self, shape, rng):
        hidden = 512 if len(shape) == 3 else 256
        # a [40, 16] or [600] batch spans three blocks of _BLOCK_BYTES
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        params = self.leaves(rng, shape[-1], hidden, 16, np.float32, grad=False)
        with no_grad():
            got = ffn(x, *params).data
            want = linear(gelu(linear(x, *params[:2])), *params[2:]).data
            assert np.array_equal(got, want)
            if shape[0] > 1:
                for i in (0, 17, shape[0] - 1):
                    assert np.array_equal(ffn(Tensor(x.data[i : i + 1]), *params).data, got[i : i + 1])

    def test_counts_the_macs_of_two_linears(self, rng):
        x = Tensor(rng.standard_normal((7, 3, 4)).astype(np.float32))
        params = self.leaves(rng, 4, 10, 5, np.float32)
        tensor_mod.reset_mac_count()
        linear(linear(x, *params[:2]), *params[2:])
        want = tensor_mod.mac_count()
        tensor_mod.reset_mac_count()
        ffn(x, *params)
        assert tensor_mod.mac_count() == want

    def test_shape_errors(self, rng):
        x = Tensor(np.ones((2, 4)))
        w1, b1, w2, b2 = self.leaves(rng, 4, 6, 3)
        for args in ((Tensor(np.ones((2, 5))), w1, b1, w2, b2), (x, w1, b2, w2, b2), (x, w1, b1, w1, b2),
                     (Tensor(np.ones(4)), w1, b1, w2, b2)):
            with pytest.raises(ShapeError, match="ffn"):
                ffn(*args)

    def test_node_keeps_no_hidden_sized_array(self, rng):
        """tracemalloc sees numpy buffers: after the forward the node holds
        its output and the contiguous w1^T, nothing hidden-sized; linear ->
        gelu -> linear held four hidden-sized arrays (fc1's output, gelu's
        output, th and x^2)."""
        x = t64(rng.standard_normal((128, 8, 16)))
        w1, b1, w2, b2 = self.leaves(rng, 16, 256, 16)
        hidden_bytes = 128 * 8 * 256 * 8  # 2 MiB, four blocks
        outs = []
        kept, _ = traced(lambda: outs.append(ffn(x, w1, b1, w2, b2)))
        out = outs[0]
        _, peak = traced(lambda: (out * out).sum().backward())
        assert kept - out.data.nbytes < 0.1 * hidden_bytes
        # the backward adds three block buffers (the recomputed pre-activation
        # shares one with gelu's output and the gradient at it) and a few
        # output-sized arrays: under four blocks in all
        assert 4 * out.data.nbytes == tensor_mod._BLOCK_BYTES
        assert peak < 3 * tensor_mod._BLOCK_BYTES + 4 * out.data.nbytes
        assert w1.grad is not None and x.grad is not None

    def test_fused_gelu_derivative_is_the_tanh_form(self):
        """Half of _gelu's x s and of _gelu_grad's s + c (1 + 3k x^2) h (2 - s)
        against the textbook 0.5 x (1 + th) and 0.5 (1 + th) + 0.5 x (1 - th^2)
        c (1 + 3k x^2), in float64 over [-12, 12]: th saturates to -1 and 1 at
        the ends. Where gelu' is tiny (x near -5), s = 1 + th keeps only a few
        digits of th's rounding in both forms, hence rtol 1e-8."""
        x = np.linspace(-12.0, 12.0, 24001)
        c, k = tensor_mod._GELU_C, tensor_mod._GELU_K
        th = np.tanh(c * (x + k * x**3))
        want = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * c * (1.0 + 3.0 * k * x * x)
        g = np.linspace(-2.0, 2.0, x.size)
        x2, s, h = (np.empty_like(x) for _ in range(3))
        tensor_mod._gelu(x, s, h, x2)
        np.testing.assert_allclose(0.5 * h, 0.5 * x * (1.0 + th), rtol=1e-10, atol=1e-300)
        tensor_mod._gelu_grad(x2, s, h)
        got = 0.5 * (h * g)
        np.testing.assert_allclose(got, g * want, rtol=1e-8, atol=0.0)
        assert got[0] == 0.0 and got[-1] == g[-1]  # saturated: gelu' is exactly 0 and 1
        # the gelu node's backward is the same helper
        xt = t64(x)
        (gelu(xt) * Tensor(g)).sum().backward()
        assert np.array_equal(xt.grad, got)


def qkv_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, key_mask) -> Tensor:
    """The attention node over q, k and v that `multi_head_attention` was
    before it took over their projections, kept verbatim (less its shape
    check and product count) as the reference its bits are checked against:
    three `linear` nodes feeding this one make the old composition."""
    b, t, d = q.shape
    dh = d // heads
    dtype = np.result_type(q.data, k.data)
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(a.shape[0], t, heads, dh).transpose(0, 2, 1, 3)

    def by_example(a):
        return a.transpose(1, 2, 0, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    bias = None if key_mask is None else ((np.asarray(key_mask, dtype=np.float32) - 1.0) * 1e9).T
    blocks = tensor_mod._example_blocks(b, (heads * t * t + 4 * t * d) * dtype.itemsize)
    block = (t, blocks[0].stop if blocks else 0, heads, t)

    def weights(s, a):
        np.matmul(kh[s], np.swapaxes(qh[s], -1, -2), out=by_example(a))
        a *= dtype.type(scale)
        if bias is not None:
            a += bias[:, s, None, None]
        a -= np.maximum.reduce(a, axis=0)
        np.exp(a, out=a)
        a /= np.add.reduce(a, axis=0)

    attn = np.empty(block, dtype=dtype)
    data = np.empty(q.shape, dtype=np.result_type(dtype, v.data))
    for s in blocks:
        a = attn[:, : s.stop - s.start]
        weights(s, a)
        np.matmul(a.transpose(1, 2, 3, 0), vh[s], out=split(data[s]))
    qn, kn, vn = q._node, k._node, v._node

    def bwd(g):
        gh = split(g)
        want_qk = qn is not None or kn is not None
        gq, gk, gv = (np.empty(n.shape, dtype=np.result_type(dtype, g)) if n is not None else None for n in (qn, kn, vn))
        attn = np.empty(block, dtype=dtype)
        work = np.empty(block, dtype=np.result_type(g, vh)) if want_qk else None
        for s in blocks:
            n = s.stop - s.start
            a, gs = attn[:, :n], gh[s]
            weights(s, a)
            if gv is not None:
                np.matmul(by_example(a), gs, out=split(gv[s]))
            if not want_qk:
                continue
            ga = work[:, :n]
            np.matmul(vh[s], np.swapaxes(gs, -1, -2), out=by_example(ga))
            ga *= a
            a *= np.add.reduce(ga, axis=0)
            ga -= a
            ga *= ga.dtype.type(scale)
            if gq is not None:
                np.matmul(ga.transpose(1, 2, 3, 0), kh[s], out=split(gq[s]))
            if gk is not None:
                np.matmul(by_example(ga), qh[s], out=split(gk[s]))
        for n, gx in zip((qn, kn, vn), (gq, gk, gv)):
            if gx is not None:
                n.accumulate(gx)

    return Tensor._make(data, (q, k, v), bwd, "qkv_attention")


def attention_leaves(rng, b, t, d, dtype=np.float64, d_in=None):
    """x [b, t, d_in] and three [d, d_in] weights scaled by 1/sqrt(d_in), as
    leaves that require grad."""
    d_in = d if d_in is None else d_in
    x = Tensor(rng.standard_normal((b, t, d_in)).astype(dtype), requires_grad=True)
    ws = [Tensor((rng.standard_normal((d, d_in)) / math.sqrt(d_in)).astype(dtype), requires_grad=True) for _ in range(3)]
    return x, ws


class TestBlockedAttention:
    """multi_head_attention walks axis 0 in blocks of whole examples of
    _BLOCK_BYTES, as ffn does, keeping no attention weights and no
    projections: its backward recomputes q, k and v, then the weights block
    by block."""

    @staticmethod
    def spy_blocks(monkeypatch):
        """The block sizes of every _example_blocks call, in call order."""
        sizes, blocks = [], tensor_mod._example_blocks

        def spy(n, per_example):
            out = blocks(n, per_example)
            sizes.append([s.stop - s.start for s in out])
            return out

        monkeypatch.setattr(tensor_mod, "_example_blocks", spy)
        return sizes

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_gradient_over_blocks_with_a_tail(self, heads, masked, rng, monkeypatch):
        b, t, d = 5, 3, 4
        x, ws = attention_leaves(rng, b, t, d)
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mask = mask if masked else None
        c = t64(rng.standard_normal((b, t, d)), grad=False)
        with no_grad():
            whole = multi_head_attention(x, *ws, heads, mask).data
        # two float64 examples per block, so a batch of 5 ends in a block of one
        monkeypatch.setattr(tensor_mod, "_BLOCK_BYTES", 2 * (heads * t * t + 4 * t * d) * 8)
        sizes = self.spy_blocks(monkeypatch)
        out = multi_head_attention(x, *ws, heads, mask)
        assert sizes == [[2, 2, 1]] and out._node.parents == tuple(a._node for a in (x, *ws))
        assert np.array_equal(out.data, whole)

        def build():
            return (multi_head_attention(x, *ws, heads, mask) * c).sum()

        assert fd_gradient_check(build, [x, *ws]) < 1e-4

    @pytest.mark.parametrize("heads", [1, 8])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_one_example_alone_is_bitwise_its_rows_of_a_multi_block_batch(self, heads, masked, rng, monkeypatch):
        b, t, d = 130, 16, 32
        x, ws = attention_leaves(rng, b, t, d, np.float32)
        mask = None
        if masked:
            mask = (rng.random((b, t)) < 0.7).astype(np.float32)
            mask[:, 0] = 1.0
        sizes = self.spy_blocks(monkeypatch)
        with no_grad():
            got = multi_head_attention(x, *ws, heads, mask).data
        assert len(sizes[0]) >= 3 and sizes[0][-1] < sizes[0][0]  # ends in a partial block
        # the graph-recording forward runs the same blocks: same bits
        assert np.array_equal(multi_head_attention(x, *ws, heads, mask).data, got)
        with no_grad():
            for i in (0, 31, 32, 64, b - 1):
                alone = multi_head_attention(Tensor(x.data[i : i + 1]), *ws, heads, None if mask is None else mask[i : i + 1]).data
                assert np.array_equal(alone, got[i : i + 1])

    @staticmethod
    def oracle(x, ws, g, heads, mask):
        """The attention and its gradients at x and the three weights for
        upstream g, composed from plain numpy: the projections, then
        [B, H, T, dh] heads with query-major weights."""
        wq, wk, wv = ws
        q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
        b, t, d = q.shape
        dh = d // heads

        def split(a):
            return a.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

        def merge(a):
            return a.transpose(0, 2, 1, 3).reshape(b, t, d)

        qh, kh, vh, gh = split(q), split(k), split(v), split(g)
        logits = qh @ kh.swapaxes(-1, -2) / math.sqrt(dh) + ((mask - 1.0) * 1e9)[:, None, None, :]
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        gw = gh @ vh.swapaxes(-1, -2)
        gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) / math.sqrt(dh)
        gq, gk, gv = merge(gl @ kh), merge(gl.swapaxes(-1, -2) @ qh), merge(w.swapaxes(-1, -2) @ gh)
        rows = x.reshape(-1, x.shape[-1])
        return (merge(w @ vh), gq @ wq + gk @ wk + gv @ wv, *(gp.reshape(-1, d).T @ rows for gp in (gq, gk, gv)))

    def test_matches_a_plain_numpy_oracle_in_float64(self, rng):
        b, t, d, heads = 6, 16, 32, 8
        x, ws = attention_leaves(rng, b, t, d)
        g = rng.standard_normal((b, t, d))
        mask = (rng.random((b, t)) < 0.6).astype(np.float64)
        mask[:, 3] = 1.0
        mask[2] = 0.0
        mask[2, 9] = 1.0  # a single real key: every query puts all its weight there
        out = multi_head_attention(x, *ws, heads, mask)
        (out * Tensor(g)).sum().backward()
        want = self.oracle(x.data, [w.data for w in ws], g, heads, mask)
        for got, ref in zip((out.data, x.grad, *(w.grad for w in ws)), want):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        # example 2 outputs v's row 9 for every query
        wv = ws[2].data
        np.testing.assert_allclose(out.data[2], np.broadcast_to(x.data[2, 9] @ wv.T, (t, d)), rtol=1e-12)
        # and its gradient at q vanishes: x's gradient comes only through v's row 9
        assert np.abs(np.delete(x.grad[2], 9, axis=0)).max() < 1e-12 * np.abs(x.grad).max()
        np.testing.assert_allclose(x.grad[2, 9], g[2].sum(axis=0) @ wv, rtol=1e-12)

    def test_is_bitwise_three_linear_nodes_and_an_attention_over_q_k_v(self, rng):
        """At default width (d 32, 8 heads, 16 tokens) in float32, masked and
        over blocks that end in a partial one, the output and the gradients
        at x and all three weights are byte for byte those of the
        composition the node replaced: three `linear` nodes feeding
        `qkv_attention`."""
        b, t, d, heads = 70, 16, 32, 8
        x, ws = attention_leaves(rng, b, t, d, np.float32)
        mask = (rng.random((b, t)) < 0.7).astype(np.float32)
        mask[:, 0] = 1.0
        g = Tensor(rng.standard_normal((b, t, d)).astype(np.float32))
        out = multi_head_attention(x, *ws, heads, mask)
        (out * g).sum().backward()
        leaves = [Tensor(a.data, requires_grad=True) for a in (x, *ws)]
        ref = qkv_attention(*(linear(leaves[0], w) for w in leaves[1:]), heads, mask)
        (ref * g).sum().backward()
        assert len(tensor_mod._example_blocks(b, (heads * t * t + 4 * t * d) * 4)) == 3  # 32, 32 and 6
        for got, want in zip((out.data, x.grad, *(w.grad for w in ws)), (ref.data, *(a.grad for a in leaves))):
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_node_keeps_no_weights_and_backward_two_work_blocks(self, rng, monkeypatch):
        """The node keeps x, the three weights and the mask bias, and
        nothing else. tracemalloc sees numpy buffers: the forward keeps
        its output and nothing [T_k, B, H, T_q]- or q-sized, and at its peak
        holds q, k, v and one block of weights beside the output. Beyond
        the recomputed q, k and v, their gradients and out's upstream
        gradient, the backward allocates two block-sized buffers (the
        recomputed weights and the gradient at them) plus small arrays
        (per-block key sums and numpy's bounded ufunc buffers)."""
        b, t, d, heads = 128, 16, 32, 8
        per_example = (heads * t * t + 4 * t * d) * 8
        monkeypatch.setattr(tensor_mod, "_BLOCK_BYTES", 32 * per_example)  # four blocks
        x, ws = attention_leaves(rng, b, t, d)
        c = t64(rng.standard_normal((b, t, d)), grad=False)
        mask = (rng.random((b, t)) < 0.7).astype(np.float32)
        weights = t * b * heads * t * 8  # 2 MiB
        work = 32 * heads * t * t * 8  # 512 KiB
        projection = b * t * d * 8  # 512 KiB, one of q, k and v
        outs = []
        kept, forward_peak = traced(lambda: outs.append(multi_head_attention(x, *ws, heads, mask)))
        out = outs[0]
        held = graph_arrays(out._node)  # before the backward frees the graph
        loss = (out * c).sum()
        _, peak = traced(loss.backward)
        assert kept - out.data.nbytes < 0.05 * min(weights, projection)
        assert all(any(a is leaf.data for a in held) for leaf in (x, *ws))
        assert sorted(a.shape for a in held) == [(t, b), (d, d), (d, d), (d, d), (b, t, d)]  # the bias is keys-major
        assert 3 * projection + work <= forward_peak - out.data.nbytes < 3 * projection + 1.5 * work
        grads = 6 * projection + out.data.nbytes
        assert 2 * work <= peak - grads < 2.5 * work
        assert x.grad is not None and all(w.grad is not None for w in ws)

    def test_backward_recomputes_the_forward_weights_bitwise(self, rng, monkeypatch):
        """The backward's projections and weights come from the forward's
        own calls: spying on _row_product, the call that makes q, k and v,
        and on np.exp, the one call that writes each block's weights before
        their normalization, sees the same arrays in both passes."""
        b, t, d, heads = 9, 5, 8, 2
        monkeypatch.setattr(tensor_mod, "_BLOCK_BYTES", 4 * (heads * t * t + 4 * t * d) * 4)
        x, ws = attention_leaves(rng, b, t, d, np.float32)
        mask = (rng.random((b, t)) < 0.7).astype(np.float32)
        mask[:, 0] = 1.0
        seen, exp, row_product = [], np.exp, tensor_mod._row_product

        def spying(fn):
            def spy(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append(out.copy())
                return out

            return spy

        monkeypatch.setattr(tensor_mod.np, "exp", spying(exp))
        monkeypatch.setattr(tensor_mod, "_row_product", spying(row_product))
        out = multi_head_attention(x, *ws, heads, mask)
        forward = seen[:]
        del seen[:]
        (out * out).sum().backward()
        monkeypatch.undo()
        assert len(forward) == 6 and len(seen) == 6  # q, k, v, then blocks of 4, 4 and 1 examples
        for a, r in zip(forward, seen):
            assert np.array_equal(a.view(np.uint32), r.view(np.uint32))


class TestBatchStability:
    def test_2d_matmul_row_stable(self, rng):
        a = rng.standard_normal((32, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        full = matmul(Tensor(a), Tensor(b)).data
        part = matmul(Tensor(a[:5]), Tensor(b)).data
        assert np.array_equal(full[:5], part)


@given(st.integers(2, 6), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_softmax_rows_sum_to_one(n, m):
    rng = np.random.default_rng(n * 100 + m)
    x = Tensor(rng.standard_normal((n, m)))
    s = softmax(x, axis=-1).data.sum(axis=-1)
    np.testing.assert_allclose(s, np.ones(n), atol=1e-6)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_layer_norm_output_standardized(vals):
    x = Tensor(np.array(vals, dtype=np.float64))
    out = layer_norm(x).data
    if np.std(vals) > 1e-3:
        assert abs(out.mean()) < 1e-8
        # the eps guard scales the std to sqrt(var / (var + eps)), not 1
        var = np.var(vals)
        assert abs(out.std() - np.sqrt(var / (var + 1e-5))) < 1e-6
