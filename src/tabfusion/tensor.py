"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed autodiff engine. The graph is kept apart from the
values: every recorded op makes a `Node` in a DAG of nodes, holding the
closure that scatters the upstream gradient to its parent nodes, and the
`Tensor` it returns holds that node and its value. A closure captures the
parent nodes and only the arrays its backward reads, never a Tensor, so an
interior value is freed as soon as the caller drops its Tensor unless some
backward reads it.
Under ``no_grad`` ops record nothing, so an inference forward holds no graph.
``backward`` frees each interior node's gradient and closure as soon as it
has run, so a graph can be walked back once and only leaf ``.grad`` survives.
Training paths run in float32; oracles and gradient checks can request
float64 by constructing tensors with ``dtype=np.float64``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "grad_enabled",
    "add",
    "mul",
    "matmul",
    "linear",
    "spectral_normalize",
    "multi_head_attention",
    "numeric_encoding",
    "reshape",
    "transpose",
    "concat",
    "reduce_sum",
    "reduce_mean",
    "softmax",
    "log_softmax",
    "layer_norm",
    "gelu",
    "ffn",
    "reset_mac_count",
    "mac_count",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an op."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")
        self.op = op
        self.shapes = shapes


# global multiply-accumulate counter, used by scaling property tests
_MAC_COUNT = 0


def reset_mac_count() -> None:
    global _MAC_COUNT
    _MAC_COUNT = 0


def mac_count() -> int:
    return _MAC_COUNT


# graph recording is off inside no_grad(); inference forwards then make no
# nodes or closures, so their activations are freed as soon as unused
_GRAD_ENABLED = True


class no_grad:
    """Context in which ops record no graph: outputs have no node, so
    requires_grad is False. Nests; the previous state is restored on exit,
    also when the block raises."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    """Whether ops record a graph: False inside no_grad."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting; `grad` itself
    when nothing was summed, so a fresh array stays one the caller can own."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad if grad.shape == shape else grad.reshape(shape)


class Node:
    """One recorded op of the graph: its gradient, its parent nodes, the
    backward closure that scatters a gradient to them, the shape and dtype
    of its value, and the op name. It holds no value; a leaf that requires
    grad has a node of op "leaf" with no parents and no closure.

    A `spectral_normalize` node also has a `recipe`: the raw weight array
    and the [1, 1] array inv = 1/sigma whose product raw * inv is its value.
    A node that reads that value in its backward keeps the recipe, not the
    value (`_kept`), and rebuilds the value there (`_value`)."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype", "op", "recipe")

    def __init__(self, parents: tuple, backward, shape: tuple, dtype, op: str):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward
        self.shape = shape
        self.dtype = dtype
        self.op = op
        self.recipe: tuple | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # own an array the backward allocated or the upstream node hands
            # on (add passes its own gradient); copy a view, since reshape,
            # transpose and concat pass on aliases of the upstream gradient
            owned = type(g) is np.ndarray and g.base is None and g.dtype == self.dtype
            self.grad = g if owned else g.astype(self.dtype, copy=True)
        else:
            self.grad += g


class Tensor:
    """A value and, when it records a graph, its `Node`: `.grad` is the
    node's gradient and `requires_grad` whether there is a node."""

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self._data = arr
        self._node = Node((), None, arr.shape, arr.dtype, "leaf") if requires_grad else None

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        """The output of an op: a node over the parents that record a graph
        when recording is on and there is one, else a value alone."""
        out = Tensor.__new__(Tensor)
        out._data = data
        out._node = None
        if _GRAD_ENABLED:
            nodes = tuple(p._node for p in parents if p._node is not None)
            if nodes:
                out._node = Node(nodes, backward, data.shape, data.dtype, op)
        return out

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        node = self._node
        if node is not None and node.op == "leaf":  # a leaf's gradient takes its array's dtype
            node.shape, node.dtype = value.shape, value.dtype

    @property
    def grad(self) -> np.ndarray | None:
        node = self._node
        return None if node is None else node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise RuntimeError("grad: the tensor records no graph")

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return float(self._data)

    # ---- autodiff --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; visits each node exactly once.

        Each interior node's gradient, closure, recipe and parents are
        dropped once its closure has run, so the arrays the closures read
        and the gradients are freed during the sweep and only leaf `.grad`
        survives.
        A graph is walked back once: a root built under no_grad, or a graph
        that an earlier backward consumed, raises RuntimeError.
        """
        if self._data.size != 1:
            raise ShapeError("backward", self.shape)
        root = self._node
        if root is None:
            raise RuntimeError("backward: the root records no graph (built under no_grad or from constants)")
        topo: list[Node] = []
        seen: set[Node] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in seen:
                continue
            if node.backward is None and node.op != "leaf":
                raise RuntimeError("backward: the graph was already consumed by an earlier backward")
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        root.grad = np.ones_like(self._data)
        while topo:
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.grad = node.backward = node.recipe = None
                node.parents = ()

    # ---- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __radd__(self, other):
        return add(self._coerce(other), self)

    def __sub__(self, other):
        other = self._coerce(other)
        return add(self, -other)

    def __rsub__(self, other):
        return add(self._coerce(other), -self)

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __rmul__(self, other):
        return mul(self._coerce(other), self)

    def __truediv__(self, other):
        other = self._coerce(other)
        return mul(self, other ** -1.0)

    def __rtruediv__(self, other):
        return mul(self._coerce(other), self ** -1.0)

    def __neg__(self):
        data = -self._data
        xn = self._node

        def bwd(g):
            xn.accumulate(-g)

        return Tensor._make(data, (self,), bwd, "neg")

    def __pow__(self, exponent: float):
        e = float(exponent)
        xd, xn = self._data, self._node
        data = xd ** e

        def bwd(g):
            xn.accumulate(g * e * xd ** (e - 1.0))

        return Tensor._make(data, (self,), bwd, "pow")

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, idx):
        data = self._data[idx]
        xn = self._node

        def bwd(g):
            full = np.zeros(xn.shape, dtype=xn.dtype)
            np.add.at(full, idx, g)
            xn.accumulate(full)

        return Tensor._make(data, (self,), bwd, "getitem")

    def __repr__(self):
        op = None if self._node is None else self._node.op
        return f"Tensor(shape={self.shape}, op={op}, grad={'set' if self.grad is not None else 'none'})"

    # ---- elementwise math ------------------------------------------------

    def exp(self):
        data = np.exp(self._data)
        xn = self._node

        def bwd(g):
            xn.accumulate(g * data)

        return Tensor._make(data, (self,), bwd, "exp")

    def log(self):
        xd, xn = self._data, self._node
        data = np.log(xd)

        def bwd(g):
            xn.accumulate(g / xd)

        return Tensor._make(data, (self,), bwd, "log")

    def tanh(self):
        data = np.tanh(self._data)
        xn = self._node

        def bwd(g):
            xn.accumulate(g * (1.0 - data * data))

        return Tensor._make(data, (self,), bwd, "tanh")

    def sin(self):
        xd, xn = self._data, self._node
        data = np.sin(xd)

        def bwd(g):
            xn.accumulate(g * np.cos(xd))

        return Tensor._make(data, (self,), bwd, "sin")

    def cos(self):
        xd, xn = self._data, self._node
        data = np.cos(xd)

        def bwd(g):
            xn.accumulate(g * -np.sin(xd))

        return Tensor._make(data, (self,), bwd, "cos")

    def clip_min(self, floor: float):
        """Lower clamp; gradient passes only where the input is above the floor."""
        xd, xn = self._data, self._node
        data = np.maximum(xd, floor)

        def bwd(g):
            xn.accumulate(g * (xd > floor))

        return Tensor._make(data, (self,), bwd, "clip_min")

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


# ---- binary ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None
    an, bn = a._node, b._node

    def bwd(g):
        if an is not None:
            an.accumulate(_unbroadcast(g, an.shape))
        if bn is not None:
            gb = _unbroadcast(g, bn.shape)
            # a may now own g: b gets its own array, or a later accumulation
            # into one operand's gradient would reach the other's
            bn.accumulate(gb.copy() if gb is g and an is not None and an.grad is g else gb)

    return Tensor._make(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None
    an, bn = a._node, b._node
    # each operand's gradient reads the other's value
    ad = None if bn is None else a.data
    bd = None if an is None else b.data

    def bwd(g):
        if an is not None:
            an.accumulate(_unbroadcast(g * bd, an.shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g * ad, bn.shape))

    return Tensor._make(data, (a, b), bwd, "mul")


def _row_product(a: np.ndarray, wt: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a [..., in] times wt [in, out]: the one kernel of every product with a
    2-D right operand (matmul, linear, ffn and spectral_normalize's sigma).

    wt is read as a C-contiguous [in, out] array, copied only when it is not
    one: BLAS runs the small per-example products up to twice as fast on it
    as on a transposed view. A 2-D a is multiplied one row at a time and a
    stacked a one example at a time, so a row's bits never depend on the
    rest of the batch (one 2-D gemm reblocks by the row count). The result
    goes into `out` when given.
    """
    wt = np.ascontiguousarray(wt)
    if a.ndim == 2:
        rows = np.matmul(a[:, None, :], wt, out=None if out is None else out[:, None, :])
        return rows[:, 0, :]
    return np.matmul(a, wt, out=out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [..., k] @ b [k, n]. b must be 2-D (ShapeError otherwise): the
    product goes through the row kernel (`_row_product`), so each row of a
    gets the same bits in any batch."""
    global _MAC_COUNT
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        data = _row_product(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None
    # multiply-accumulate count: product of output extents times inner dim
    _MAC_COUNT += int(np.prod(data.shape)) * a.shape[-1]
    an, bn = a._node, b._node
    ad = None if bn is None else a.data
    bd = None if an is None else b.data

    def bwd(g):
        if an is not None:
            an.accumulate(np.matmul(g, bd.T))
        if bn is not None:
            # a shared 2-D weight: one gemm over all rows of every batch
            k, n = bn.shape
            bn.accumulate(ad.reshape(-1, k).T @ g.reshape(-1, n))

    return Tensor._make(data, (a, b), bwd, "matmul")


def _kept(w: Tensor):
    """What a node keeps to read w's value in its backward: the recipe of a
    spectral weight's node (the raw parameter array, alive anyway, and
    1/sigma), else the value itself."""
    node = w._node
    recipe = None if node is None else node.recipe
    return w.data if recipe is None else recipe


def _value(kept) -> np.ndarray:
    """The value `_kept` stands for. A recipe is rebuilt with
    spectral_normalize's own expression, so bitwise its output."""
    if type(kept) is tuple:
        raw, inv = kept
        return raw * inv
    return kept


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x w^T + b as one graph node; w is [out, in], x is [..., in].

    The product is matmul's row kernel on w^T read as a contiguous [in, out]
    array, so it is bitwise matmul(x, w^T) + b and a row's output is the
    same in any batch. The backward takes dw in one gemm over all rows.
    For x's gradient the node keeps w through `_kept`: a spectral weight's
    W / sigma is rebuilt in the backward, not kept.
    """
    global _MAC_COUNT
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError("linear", x.shape, w.shape)
    try:
        data = _row_product(x.data, w.data.T)
    except ValueError:
        raise ShapeError("linear", x.shape, w.shape) from None
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError("linear", x.shape, w.shape, b.shape)
        data += b.data  # the product is fresh: add in place
    _MAC_COUNT += math.prod(data.shape) * w.shape[1]
    xn, wn, bn = x._node, w._node, None if b is None else b._node
    xd = None if wn is None else x.data
    wk = None if xn is None else _kept(w)

    def bwd(g):
        if xn is not None:
            xn.accumulate(np.matmul(g, _value(wk)))
        if wn is not None:
            n, k = wn.shape
            wn.accumulate(g.reshape(-1, n).T @ xd.reshape(-1, k))
        if bn is not None:
            bn.accumulate(_unbroadcast(g, bn.shape))

    return Tensor._make(data, (x, w) if b is None else (x, w, b), bwd, "linear")


def spectral_normalize(w: Tensor, u: np.ndarray, v: np.ndarray, eps: float) -> Tensor:
    """W / sigma with sigma = u^T W v, as one graph node.

    u and v are the singular-vector estimates of power iteration and are
    constants of the node, so the backward is the spectral-norm gradient
    dW = G / sigma - (<G, W> / sigma^2) u v^T (Miyato et al. 2018). sigma is
    computed with matmul's row kernel and counts its products. A sigma
    below `eps` leaves W unnormalized: w itself is returned.

    The node's recipe is (W, inv), inv = 1/sigma: the nodes that consume
    W / sigma keep it and rebuild W / sigma in their backward, so no graph
    keeps a W / sigma array. The backward reads W as it was at the forward,
    which holds because library code never writes into a parameter array.
    """
    global _MAC_COUNT
    u = u.astype(w.dtype, copy=False).reshape(1, -1)
    v = v.astype(w.dtype, copy=False).reshape(-1, 1)
    sigma = _row_product(_row_product(u, w.data), v)  # [1, 1]
    _MAC_COUNT += w.data.size + w.shape[1]
    if sigma[0, 0] < eps:
        return w
    inv = sigma ** -1.0
    wd, wn = w.data, w._node
    data = wd * inv

    def bwd(g):
        gw = g * inv
        coef = np.vdot(g, wd) * (inv[0, 0] * inv[0, 0])
        gw -= np.outer(u * coef, v)
        wn.accumulate(gw)

    out = Tensor._make(data, (w,), bwd, "spectral_normalize")
    if out._node is not None:
        out._node.recipe = (wd, inv)
    return out


def multi_head_attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor, heads: int, key_mask=None) -> Tensor:
    """softmax(q k^T / sqrt(dh) + mask) v over the tokens of x [B, T, d_in],
    with q, k, v = x W_q^T, x W_k^T, x W_v^T, as one graph node.

    The weights are [d, d_in]. Each projection is linear's row kernel on
    W^T, so q, k and v are bitwise the three `linear` outputs and count
    their products as linear does. They are viewed as [B, H, T, dh] heads
    and the output merged back into one [B, T, d] array; masked keys
    (key_mask [B, T] of 0/1) get -1e9 before the softmax. Axis B is walked
    in blocks of whole examples that fit _BLOCK_BYTES, as ffn does. A
    block's attention weights are stored keys-major, as [T_k, n, H, T_q], in
    one block-sized buffer: the mask bias is added to contiguous [H, T_q]
    slices, and the softmax max and sum reduce over the outer key axis,
    elementwise and in key order, so an example's output is bitwise the same
    alone or in any batch. The logits, softmax and product with v run in
    place in that buffer, and every product reads the weights through a
    transposed view that BLAS takes as it is.

    The node keeps no q, k, v or attention weights, only x (which the
    `layer_norm` before it keeps anyway), the three weights through `_kept`
    (a spectral weight's recipe, not its W / sigma) and the mask bias. Its
    backward rebuilds the weights, then recomputes q, k and v and each
    block's weights with the forward's own calls, so they are bitwise the
    forward's, and works in two block buffers: the weights and one for the
    gradient at them. It then takes linear's backward over the whole
    gradients at q, k and v: each weight's gradient in one gemm over all
    rows, and x's as gq W_q + gk W_k + gv W_v, summed in that order.
    """
    global _MAC_COUNT
    ws = (w_q, w_k, w_v)
    if (
        x.ndim != 3 or any(w.ndim != 2 or w.shape != w_q.shape for w in ws)
        or w_q.shape[1] != x.shape[-1] or w_q.shape[0] % heads
    ):
        raise ShapeError("multi_head_attention", x.shape, *(w.shape for w in ws))
    b, t, d_in = x.shape
    d = w_q.shape[0]
    dh = d // heads
    xd = x.data
    scale = 1.0 / math.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:  # a view of [n, T, d] as [n, H, T, dh]
        return a.reshape(a.shape[0], t, heads, dh).transpose(0, 2, 1, 3)

    def by_example(a: np.ndarray) -> np.ndarray:  # [T_k, n, H, T_q] as [n, H, T_k, T_q]
        return a.transpose(1, 2, 0, 3)

    def project(wd) -> list[np.ndarray]:
        """q, k and v as [B, H, T, dh] head views, by linear's own call."""
        return [split(_row_product(xd, w.T)) for w in wd]

    qh, kh, vh = project([w.data for w in ws])
    dtype = np.result_type(qh, kh)
    # [T_k, B] keys-major, so a block's bias broadcasts over [H, T_q]
    bias = None if key_mask is None else ((np.asarray(key_mask, dtype=np.float32) - 1.0) * 1e9).T
    blocks = _example_blocks(b, (heads * t * t + 4 * t * d) * dtype.itemsize)
    block = (t, blocks[0].stop if blocks else 0, heads, t)

    def weights(qh: np.ndarray, kh: np.ndarray, s: slice, a: np.ndarray) -> None:
        """The attention weights of the examples in s into a [T_k, n, H, T_q]."""
        np.matmul(kh[s], np.swapaxes(qh[s], -1, -2), out=by_example(a))
        a *= dtype.type(scale)
        if bias is not None:
            a += bias[:, s, None, None]
        a -= np.maximum.reduce(a, axis=0)
        np.exp(a, out=a)
        a /= np.add.reduce(a, axis=0)

    attn = np.empty(block, dtype=dtype)
    data = np.empty((b, t, d), dtype=np.result_type(dtype, vh))
    for s in blocks:
        a = attn[:, : s.stop - s.start]
        weights(qh, kh, s, a)
        np.matmul(a.transpose(1, 2, 3, 0), vh[s], out=split(data[s]))
    _MAC_COUNT += 3 * b * t * d * d_in + 2 * b * heads * t * t * dh
    xn, wn = x._node, tuple(w._node for w in ws)
    kept = tuple(_kept(w) for w in ws)

    def bwd(g):
        wd = [_value(k) for k in kept]
        qh, kh, vh = project(wd)
        gh = split(g)
        # x's gradient reads all three projection gradients, a weight's its own
        gq, gk, gv = (
            np.empty((b, t, d), dtype=np.result_type(dtype, g)) if xn is not None or n is not None else None
            for n in wn
        )
        want_qk = gq is not None or gk is not None
        attn = np.empty(block, dtype=dtype)
        work = np.empty(block, dtype=np.result_type(g, vh)) if want_qk else None
        for s in blocks:
            n = s.stop - s.start
            a, gs = attn[:, :n], gh[s]
            weights(qh, kh, s, a)
            if gv is not None:
                np.matmul(by_example(a), gs, out=split(gv[s]))
            if not want_qk:
                continue
            # d logits = a (ga - sum_k ga a), ga = g v^T keys-major; a is not
            # read again, so it takes a * sum_k ga a in place
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
        del qh, kh, vh, attn, work  # freed before x's gradient, so the loop holds the backward's peak
        for n, gp in zip(wn, (gq, gk, gv)):
            if n is not None:
                n.accumulate(gp.reshape(-1, d).T @ xd.reshape(-1, d_in))
        if xn is not None:
            gx = np.matmul(gq, wd[0])
            gx += np.matmul(gk, wd[1])
            gx += np.matmul(gv, wd[2])
            xn.accumulate(gx)

    return Tensor._make(data, (x, *ws), bwd, "multi_head_attention")


def numeric_encoding(
    values: Tensor, missing_mask, freqs: Sequence[Tensor], missing: Sequence[Tensor]
) -> Tensor:
    """Sinusoid tokens of n numeric features, missing-value blend included,
    as one graph node.

    values [B, n] hold the features (missing slots zero-filled) and
    missing_mask [B, n] is 1 where a value is missing. Feature k has
    frequencies freqs[k] [d/2] and missing embedding missing[k] [d]; each of
    these tensors is a parent. With a = (x f) pi, feature k's token is
    (sin a_0, cos a_0, sin a_1, cos a_1, ...) (1 - m) + missing[k] m, so the
    output is [B, n, d]. The elementwise operations and their order are
    those of composing the ops one feature at a time.
    """
    b, n = values.shape
    if not n or len(freqs) != n or len(missing) != n:
        raise ShapeError("numeric_encoding", values.shape, *(t.shape for t in (*freqs, *missing)))
    f = np.stack([t.data for t in freqs])  # [n, d/2]
    e = np.stack([t.data for t in missing])  # [n, d]
    if e.shape != (n, 2 * f.shape[1]):
        raise ShapeError("numeric_encoding", values.shape, f.shape, e.shape)
    arg = values.data[:, :, None] * f  # [B, n, d/2]
    pi = arg.dtype.type(math.pi)
    arg *= pi
    sin, cos = np.sin(arg), np.cos(arg)
    m = np.asarray(missing_mask, dtype=np.float32).reshape(b, n, 1)
    keep = 1.0 - m
    tok = np.empty(arg.shape + (2,), dtype=arg.dtype)
    tok[..., 0] = sin
    tok[..., 1] = cos
    data = tok.reshape(b, n, e.shape[1]) * keep
    data += e * m
    vn, vd = values._node, values.data
    fn, en = [t._node for t in freqs], [t._node for t in missing]

    def bwd(g):
        if any(en):
            ge = (g * m).sum(axis=0)
            for k, node in enumerate(en):
                if node is not None:
                    node.accumulate(ge[k])
        if vn is not None or any(fn):
            gp = g.reshape(b, n, -1, 2)
            ga = gp[..., 0] * cos
            ga -= gp[..., 1] * sin
            ga *= keep
            ga *= pi
            if vn is not None:
                vn.accumulate((ga * f).sum(axis=2))
            gf = (ga * vd[:, :, None]).sum(axis=0)
            for k, node in enumerate(fn):
                if node is not None:
                    node.accumulate(gf[k])

    return Tensor._make(data, (values, *freqs, *missing), bwd, "numeric_encoding")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", x.shape, shape) from None
    xn = x._node

    def bwd(g):
        xn.accumulate(g.reshape(xn.shape))

    return Tensor._make(data, (x,), bwd, "reshape")


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = np.argsort(axes)
    xn = x._node

    def bwd(g):
        xn.accumulate(np.transpose(g, inv))

    return Tensor._make(data, (x,), bwd, "transpose")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in tensors]) from None
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = [t._node for t in tensors]

    def bwd(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                node.accumulate(g[tuple(sl)])

    return Tensor._make(data, tuple(tensors), bwd, "concat")


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)
    xn = x._node

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        xn.accumulate(np.broadcast_to(g, xn.shape).copy())

    return Tensor._make(np.asarray(data), (x,), bwd, "reduce_sum")


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    return reduce_sum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


# ---- neural-net ops; each is a single graph node ---------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax: numpy's maximum over the axis is
    subtracted before exponentiation. Only the heads' small logits and the
    losses come here; attention runs its own softmax in its node."""
    moved = np.moveaxis(x.data, axis, -1)
    e = moved - moved.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    data = np.moveaxis(e, -1, axis)
    xn = x._node

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        xn.accumulate(data * (g - dot))

    return Tensor._make(data, (x,), bwd, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    moved = np.moveaxis(x.data, axis, -1)
    shifted = np.moveaxis(moved - moved.max(axis=-1, keepdims=True), -1, axis)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)
    xn = x._node

    def bwd(g):
        xn.accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (x,), bwd, "log_softmax")


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis. A constant vector maps to zeros (eps guard).

    One graph node: it keeps the output y and inv = (var + eps)^-1/2, and its
    backward is inv * (g - mean(g) - y * mean(g * y)) over the last axis.
    Each mean is a sum divided by n, which is bitwise np.mean without its
    per-call overhead.
    """
    n = x.shape[-1]
    y = x.data - x.data.sum(axis=-1, keepdims=True) / n
    inv = np.square(y).sum(axis=-1, keepdims=True)
    inv /= n
    inv += eps
    inv **= -0.5
    y *= inv
    xn = x._node

    def bwd(g):
        gy = g * y
        gx = g - g.sum(axis=-1, keepdims=True) / n
        np.multiply(y, gy.sum(axis=-1, keepdims=True) / n, out=gy)
        gx -= gy
        gx *= inv
        xn.accumulate(gx)

    return Tensor._make(y, (x,), bwd, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu(x: np.ndarray, s: np.ndarray, out: np.ndarray, x2: np.ndarray | None = None) -> None:
    """Twice the tanh-approximation gelu of x into out, in x's dtype, in 7
    passes: s receives 1 + tanh(x (c + c k x^2)) and out x s = 2 gelu(x).
    out may be x. x2, when given, receives x^2 for _gelu_grad;
    otherwise s holds it on the way. Doubling is exact, so half of out is
    bitwise 0.5 x (1 + th) and no pass is spent on the 0.5."""
    x2 = s if x2 is None else x2
    np.square(x, out=x2)
    np.multiply(x2, _GELU_C * _GELU_K, out=s)
    s += _GELU_C
    s *= x
    np.tanh(s, out=s)
    s += 1.0
    np.multiply(x, s, out=out)


def _gelu_grad(x2: np.ndarray, s: np.ndarray, h: np.ndarray) -> None:
    """h = 2 gelu'(x) in 6 passes, from x2, s and h = x s of _gelu; x2 is
    overwritten.

    With s = 1 + th, 1 - th^2 = s (2 - s), so
    2 gelu'(x) = (1 + th) + x (1 - th^2) c (1 + 3k x^2)
               = s + c (1 + 3k x^2) h (2 - s).
    Each of its two terms is exactly twice the matching term of the
    undoubled form s/2 + 2c (1 + 3k x^2) (h/2) (1 - s/2), so half of h is
    bitwise that form's value.
    """
    x2 *= 3.0 * _GELU_C * _GELU_K
    x2 += _GELU_C
    x2 *= h
    np.subtract(2.0, s, out=h)
    h *= x2
    h += s


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu (the form recorded in model configs).

    One graph node: x s / 2 with s = 1 + tanh(c (x + k x^3)), computed in
    the input dtype by ffn's helpers. The node keeps s and its output; the
    backward doubles the output back to x s.
    """
    xd = x.data
    s, data = np.empty_like(xd), np.empty_like(xd)
    _gelu(xd, s, data)
    data *= 0.5
    xn = x._node

    def bwd(g):
        gx = data * 2.0
        _gelu_grad(np.square(xd), s, gx)
        gx *= g
        gx *= 0.5
        xn.accumulate(gx)

    return Tensor._make(data, (x,), bwd, "gelu")


# bytes per block of examples in ffn and multi_head_attention: 256 rows of
# 512 float32, sized so a block's few temporaries stay in cache
_BLOCK_BYTES = 256 * 512 * 4


def _example_blocks(n: int, per_example: int) -> list[slice]:
    """Slices of axis 0 (length n) in blocks of whole examples: as many
    examples of `per_example` bytes as fit _BLOCK_BYTES, at least one."""
    step = max(1, _BLOCK_BYTES // max(per_example, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one graph node.

    w1 is [hidden, in] and w2 [out, hidden]. Axis 0 of x is walked in blocks
    of whole examples whose hidden activation fits _BLOCK_BYTES; each block
    uses linear's row kernel on w1^T and w2^T, each read as a contiguous
    [in, out] array, so the output is bitwise that of the three ops and does
    not depend on the batch. The helpers yield 2 gelu, so the [..., out]
    product is halved before b2 is added.

    The node keeps no hidden-sized array, only x, b1 and the two weights
    through `_kept` (a spectral weight's recipe, not its W / sigma). Its
    backward rebuilds the weights and the contiguous w1^T, then recomputes
    each block's pre-activation p with the forward's own call, so p is
    bitwise the forward's, and works in three block buffers: one holds p,
    then 2 gelu(p), then twice the gradient at p; one x^2, then the
    gradient at the hidden activation; one s. A gradient taken from the
    doubled forms is halved once it is reduced to its small [hidden, in],
    [hidden], [out, hidden] or [..., in] array.
    """
    global _MAC_COUNT
    if (
        x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[1] or w2.shape[1] != w1.shape[0]
        or b1.shape != w1.shape[:1] or b2.shape != w2.shape[:1]
    ):
        raise ShapeError("ffn", x.shape, w1.shape, b1.shape, w2.shape, b2.shape)
    (hidden, d_in), d_out = w1.shape, w2.shape[0]
    lead = x.shape[:-1]
    dtype = np.result_type(x.data, w1.data)
    blocks = _example_blocks(lead[0], math.prod(lead[1:]) * hidden * dtype.itemsize)
    block = (blocks[0].stop if blocks else 0,) + lead[1:] + (hidden,)
    xd, b1d = x.data, b1.data
    w1t, w2t = np.ascontiguousarray(w1.data.T), np.ascontiguousarray(w2.data.T)

    def pre_activation(s: slice, w1t: np.ndarray, out: np.ndarray) -> None:
        _row_product(xd[s], w1t, out=out)
        out += b1d

    work = np.empty((2,) + block, dtype=dtype)
    data = np.empty(lead + (d_out,), dtype=np.result_type(dtype, w2.data))
    for s in blocks:
        n = s.stop - s.start
        h, sg = work[0, :n], work[1, :n]
        pre_activation(s, w1t, h)
        _gelu(h, sg, h)
        y = data[s]
        _row_product(h, w2t, out=y)
        y *= 0.5
        y += b2.data
    _MAC_COUNT += math.prod(lead) * (hidden * d_in + d_out * hidden)
    nodes = (x._node, w1._node, b1._node, w2._node, b2._node)
    xn, w1n, b1n, w2n, b2n = nodes
    w1k, w2k = _kept(w1), _kept(w2)

    def bwd(g):
        w1d, w2d = _value(w1k), _value(w2k)
        w1t = np.ascontiguousarray(w1d.T)
        want_pre = xn is not None or w1n is not None or b1n is not None
        grads = [None if n is None else np.zeros(n.shape, dtype=n.dtype) for n in (w1n, b1n, w2n, b2n)]
        gw1, gb1, gw2, gb2 = grads
        gx = None if xn is None else np.empty(xn.shape, dtype=np.result_type(g, w1d))
        buf = np.empty((3,) + block, dtype=np.result_type(dtype, g))
        for s in blocks:
            n = s.stop - s.start
            g2 = g[s].reshape(-1, d_out)
            h, x2, sg = buf[0, :n], buf[1, :n], buf[2, :n]
            pre_activation(s, w1t, h)
            _gelu(h, sg, h, x2)
            if gw2 is not None:
                gw2 += g2.T @ h.reshape(-1, hidden)
            if gb2 is not None:
                gb2 += g2.sum(axis=0)
            if not want_pre:
                continue
            _gelu_grad(x2, sg, h)
            # the gradient at the hidden activation takes x2's place, in one
            # gemm over the block: only the forward must keep linear's kernels
            np.matmul(g2, w2d, out=x2.reshape(-1, hidden))
            h *= x2  # twice the gradient at p
            p2 = h.reshape(-1, hidden)
            if gw1 is not None:
                gw1 += p2.T @ xd[s].reshape(-1, d_in)
            if gb1 is not None:
                gb1 += p2.sum(axis=0)
            if gx is not None:
                np.matmul(h, w1d, out=gx[s])
        for gt in (gx, gw1, gb1, gw2):  # all but gb2 come from the doubled forms
            if gt is not None:
                gt *= 0.5
        for n, gt in zip(nodes, (gx, *grads)):
            if gt is not None:
                n.accumulate(gt)

    return Tensor._make(data, (x, w1, b1, w2, b2), bwd, "ffn")
