"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed autodiff engine: every op builds a node in a DAG and
records a closure that scatters the upstream gradient to its parents.
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


# graph recording is off inside no_grad(); inference forwards then keep no
# parents or closures, so their activations are freed as soon as unused
_GRAD_ENABLED = True


class no_grad:
    """Context in which ops record no graph: outputs have no parents, no
    backward closure and requires_grad False. Nests; the previous state is
    restored on exit, also when the block raises."""

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out._parents = parents if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        out._op = op
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # own an array the backward allocated or the upstream node hands
            # on (add passes its own gradient); copy a view, since reshape,
            # transpose and concat pass on aliases of the upstream gradient
            owned = type(g) is np.ndarray and g.base is None and g.dtype == self.data.dtype
            self.grad = g if owned else g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    # ---- autodiff --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; visits each node exactly once.

        Each interior node's gradient, closure and parents are dropped once
        its closure has run, so activations and gradients are freed during
        the sweep and only leaf `.grad` survives. A graph is walked back
        once: a root built under no_grad, or a graph that an earlier
        backward consumed, raises RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        if not self.requires_grad:
            raise RuntimeError("backward: the root records no graph (built under no_grad or from constants)")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is None and node._op != "leaf":
                raise RuntimeError("backward: the graph was already consumed by an earlier backward")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = node._backward = None
                node._parents = ()

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
        data = -self.data

        def bwd(g):
            self._accumulate(-g)

        return Tensor._make(data, (self,), bwd, "neg")

    def __pow__(self, exponent: float):
        e = float(exponent)
        data = self.data ** e

        def bwd(g):
            self._accumulate(g * e * self.data ** (e - 1.0))

        return Tensor._make(data, (self,), bwd, "pow")

    def __matmul__(self, other):
        return matmul(self, self._coerce(other))

    def __getitem__(self, idx):
        data = self.data[idx]

        def bwd(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._make(data, (self,), bwd, "getitem")

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={'set' if self.grad is not None else 'none'})"

    # ---- elementwise math ------------------------------------------------

    def exp(self):
        data = np.exp(self.data)

        def bwd(g):
            self._accumulate(g * data)

        return Tensor._make(data, (self,), bwd, "exp")

    def log(self):
        data = np.log(self.data)

        def bwd(g):
            self._accumulate(g / self.data)

        return Tensor._make(data, (self,), bwd, "log")

    def tanh(self):
        data = np.tanh(self.data)

        def bwd(g):
            self._accumulate(g * (1.0 - data * data))

        return Tensor._make(data, (self,), bwd, "tanh")

    def sin(self):
        data = np.sin(self.data)

        def bwd(g):
            self._accumulate(g * np.cos(self.data))

        return Tensor._make(data, (self,), bwd, "sin")

    def cos(self):
        data = np.cos(self.data)

        def bwd(g):
            self._accumulate(g * -np.sin(self.data))

        return Tensor._make(data, (self,), bwd, "cos")

    def clip_min(self, floor: float):
        """Lower clamp; gradient passes only where the input is above the floor."""
        data = np.maximum(self.data, floor)

        def bwd(g):
            self._accumulate(g * (self.data > floor))

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

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            # a may now own g: b gets its own array, or a later accumulation
            # into one operand's gradient would reach the other's
            b._accumulate(gb.copy() if gb is g and a.grad is g else gb)

    return Tensor._make(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

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
    """a @ b; a 2-D b goes through the row kernel (`_row_product`), so each
    row of a gets the same bits in any batch."""
    global _MAC_COUNT
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        data = _row_product(a.data, b.data) if b.ndim == 2 else np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None
    # multiply-accumulate count: product of output extents times inner dim
    _MAC_COUNT += int(np.prod(data.shape)) * a.shape[-1]

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # a shared 2-D weight: one gemm over all rows of every batch
                k, n = b.shape
                b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))

    return Tensor._make(data, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x w^T + b as one graph node; w is [out, in], x is [..., in].

    The product is matmul's row kernel on w^T read as a contiguous [in, out]
    array, so it is bitwise matmul(x, w^T) + b and a row's output is the
    same in any batch. The backward takes dw in one gemm over all rows.
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

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.matmul(g, w.data))
        if w.requires_grad:
            n, k = w.shape
            w._accumulate(g.reshape(-1, n).T @ x.data.reshape(-1, k))
        if b is not None and b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._make(data, (x, w) if b is None else (x, w, b), bwd, "linear")


def spectral_normalize(w: Tensor, u: np.ndarray, v: np.ndarray, eps: float) -> Tensor:
    """W / sigma with sigma = u^T W v, as one graph node.

    u and v are the singular-vector estimates of power iteration and are
    constants of the node, so the backward is the spectral-norm gradient
    dW = G / sigma - (<G, W> / sigma^2) u v^T (Miyato et al. 2018). sigma is
    computed with matmul's row kernel and counts its products. A sigma
    below `eps` leaves W unnormalized: w itself is returned.
    """
    global _MAC_COUNT
    u = u.astype(w.dtype, copy=False).reshape(1, -1)
    v = v.astype(w.dtype, copy=False).reshape(-1, 1)
    sigma = _row_product(_row_product(u, w.data), v)  # [1, 1]
    _MAC_COUNT += w.data.size + w.shape[1]
    if sigma[0, 0] < eps:
        return w
    inv = sigma ** -1.0
    data = w.data * inv

    def bwd(g):
        gw = g * inv
        coef = np.vdot(g, w.data) * (inv[0, 0] * inv[0, 0])
        gw -= np.outer(u * coef, v)
        w._accumulate(gw)

    return Tensor._make(data, (w,), bwd, "spectral_normalize")


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1, key_mask=None) -> Tensor:
    """softmax(q k^T / sqrt(dh) + mask) v over the tokens of [B, T, d]
    inputs, as one graph node.

    The inputs are viewed as [B, H, T, dh] heads and the output merged back
    into one [B, T, d] array; masked keys (key_mask [B, T] of 0/1) get -1e9
    before the softmax. The attention weights are stored keys-major, as
    [T_k, B, H, T_q]: the mask bias is added to contiguous [H, T_q] slices,
    and the softmax max and sum reduce over the outer key axis, elementwise
    and in key order, so an example's output is bitwise the same alone or in
    any batch. Axis B is walked in blocks of whole examples that fit
    _BLOCK_BYTES, as ffn does: each block's logits, softmax and product with
    v run in place in its slice of the weights, and every product reads the
    weights through a transposed view that BLAS takes as it is. The node
    keeps only the weights; its backward walks the same blocks with one
    block-sized work buffer and overwrites each block's weights once it has
    read them, since a graph is walked back once.
    """
    global _MAC_COUNT
    if q.ndim != 3 or not q.shape == k.shape == v.shape or q.shape[-1] % heads:
        raise ShapeError("multi_head_attention", q.shape, k.shape, v.shape)
    b, t, d = q.shape
    dh = d // heads
    dtype = np.result_type(q.data, k.data)
    scale = 1.0 / math.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:  # a view of [n, T, d] as [n, H, T, dh]
        return a.reshape(a.shape[0], t, heads, dh).transpose(0, 2, 1, 3)

    def by_example(a: np.ndarray) -> np.ndarray:  # [T_k, n, H, T_q] as [n, H, T_k, T_q]
        return a.transpose(1, 2, 0, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # [T_k, B] keys-major, so a block's bias broadcasts over [H, T_q]
    bias = None if key_mask is None else ((np.asarray(key_mask, dtype=np.float32) - 1.0) * 1e9).T
    blocks = _example_blocks(b, (heads * t * t + 4 * t * d) * dtype.itemsize)
    rows = blocks[0].stop if blocks else 0
    keep = _GRAD_ENABLED and any(x.requires_grad for x in (q, k, v))
    attn = np.empty((t, (b if keep else rows), heads, t), dtype=dtype)
    data = np.empty(q.shape, dtype=np.result_type(dtype, v.data))
    for s in blocks:
        a = attn[:, s] if keep else attn[:, : s.stop - s.start]
        np.matmul(kh[s], np.swapaxes(qh[s], -1, -2), out=by_example(a))
        a *= dtype.type(scale)
        if bias is not None:
            a += bias[:, s, None, None]
        a -= np.maximum.reduce(a, axis=0)
        np.exp(a, out=a)
        a /= np.add.reduce(a, axis=0)
        np.matmul(a.transpose(1, 2, 3, 0), vh[s], out=split(data[s]))
    _MAC_COUNT += 2 * b * heads * t * t * dh

    def bwd(g):
        gh = split(g)
        want_qk = q.requires_grad or k.requires_grad
        gq, gk, gv = (np.empty(x.shape, dtype=np.result_type(dtype, g)) if x.requires_grad else None for x in (q, k, v))
        work = np.empty((t, rows, heads, t), dtype=np.result_type(g, v.data)) if want_qk else None
        for s in blocks:
            a, gs = attn[:, s], gh[s]
            if gv is not None:
                np.matmul(by_example(a), gs, out=split(gv[s]))
            if not want_qk:
                continue
            # d logits = a (ga - sum_k ga a), ga = g v^T keys-major; a is not
            # read again, so it takes a * sum_k ga a in place
            ga = work[:, : s.stop - s.start]
            np.matmul(vh[s], np.swapaxes(gs, -1, -2), out=by_example(ga))
            ga *= a
            a *= np.add.reduce(ga, axis=0)
            ga -= a
            ga *= ga.dtype.type(scale)
            if gq is not None:
                np.matmul(ga.transpose(1, 2, 3, 0), kh[s], out=split(gq[s]))
            if gk is not None:
                np.matmul(by_example(ga), qh[s], out=split(gk[s]))
        for x, gx in zip((q, k, v), (gq, gk, gv)):
            if gx is not None:
                x._accumulate(gx)

    return Tensor._make(data, (q, k, v), bwd, "multi_head_attention")


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

    def bwd(g):
        if any(t.requires_grad for t in missing):
            ge = (g * m).sum(axis=0)
            for k, t in enumerate(missing):
                if t.requires_grad:
                    t._accumulate(ge[k])
        if values.requires_grad or any(t.requires_grad for t in freqs):
            gp = g.reshape(b, n, -1, 2)
            ga = gp[..., 0] * cos
            ga -= gp[..., 1] * sin
            ga *= keep
            ga *= pi
            if values.requires_grad:
                values._accumulate((ga * f).sum(axis=2))
            gf = (ga * values.data[:, :, None]).sum(axis=0)
            for k, t in enumerate(freqs):
                if t.requires_grad:
                    t._accumulate(gf[k])

    return Tensor._make(data, (values, *freqs, *missing), bwd, "numeric_encoding")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", x.shape, shape) from None

    def bwd(g):
        x._accumulate(g.reshape(x.shape))

    return Tensor._make(data, (x,), bwd, "reshape")


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = np.argsort(axes)

    def bwd(g):
        x._accumulate(np.transpose(g, inv))

    return Tensor._make(data, (x,), bwd, "transpose")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in tensors]) from None
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(data, tuple(tensors), bwd, "concat")


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor._make(np.asarray(data), (x,), bwd, "reduce_sum")


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]
    return reduce_sum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


# ---- neural-net ops; each is a single graph node ---------------------------


def _row_max(x: np.ndarray) -> np.ndarray:
    """The maximum over the last axis, keepdims; the input itself when that
    axis has length 1.

    Folds the axis in halves with np.maximum, which is exact and propagates
    NaN, so the result equals x.max(axis=-1, keepdims=True) (a zero maximum
    may differ in sign, which x - max and its exp do not see). Over short
    rows it is several times faster than numpy's per-row reduction.
    """
    m = x
    while m.shape[-1] > 1:
        n = m.shape[-1]
        h = n // 2
        folded = np.maximum(m[..., :h], m[..., h : 2 * h])
        if n % 2:
            np.maximum(folded[..., :1], m[..., 2 * h :], out=folded[..., :1])
        m = folded
    return m


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtracted before exponentiation)."""
    moved = np.moveaxis(x.data, axis, -1)
    e = moved - _row_max(moved)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    data = np.moveaxis(e, -1, axis)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (g - dot))

    return Tensor._make(data, (x,), bwd, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    moved = np.moveaxis(x.data, axis, -1)
    shifted = np.moveaxis(moved - _row_max(moved), -1, axis)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)

    def bwd(g):
        x._accumulate(g - p * g.sum(axis=axis, keepdims=True))

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
    inv = (y * y).sum(axis=-1, keepdims=True)
    inv /= n
    inv += eps
    inv **= -0.5
    y *= inv

    def bwd(g):
        gy = g * y
        gx = g - g.sum(axis=-1, keepdims=True) / n
        np.multiply(y, gy.sum(axis=-1, keepdims=True) / n, out=gy)
        gx -= gy
        gx *= inv
        x._accumulate(gx)

    return Tensor._make(y, (x,), bwd, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu(x: np.ndarray, s: np.ndarray, out: np.ndarray, x2: np.ndarray | None = None) -> None:
    """tanh-approximation gelu of x into out, in x's dtype, in 8 passes:
    s receives 0.5 (1 + tanh(x (c + c k x^2))) and out x s. out may be s,
    which then ends as gelu(x). x2, when given, receives x^2 for
    _gelu_grad; otherwise s holds it on the way."""
    x2 = s if x2 is None else x2
    np.multiply(x, x, out=x2)
    np.multiply(x2, _GELU_C * _GELU_K, out=s)
    s += _GELU_C
    s *= x
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    np.multiply(x, s, out=out)


def _gelu_grad(x2: np.ndarray, s: np.ndarray, h: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """out = g * gelu'(x) in 7 passes, from x2, s and h = x s of _gelu; x2
    is overwritten and out may be h.

    With s = 0.5 (1 + th), 1 - th^2 = 4 s (1 - s), so
    gelu'(x) = 0.5 (1 + th) + 0.5 x (1 - th^2) c (1 + 3k x^2)
             = s + 2c (1 + 3k x^2) h (1 - s).
    """
    x2 *= 6.0 * _GELU_C * _GELU_K
    x2 += 2.0 * _GELU_C
    x2 *= h
    np.subtract(1.0, s, out=out)
    out *= x2
    out += s
    out *= g


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu (the form recorded in model configs).

    One graph node: x s with s = 0.5 (1 + tanh(c (x + k x^3))), computed in
    the input dtype by ffn's helpers. The backward reuses s.
    """
    xd = x.data
    s, data = np.empty_like(xd), np.empty_like(xd)
    _gelu(xd, s, data)

    def bwd(g):
        gx = np.empty_like(xd)
        _gelu_grad(xd * xd, s, data, g, gx)
        x._accumulate(gx)

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
    not depend on the batch. The node keeps only the pre-activation
    x w1^T + b1; its backward recomputes gelu from it one block at a time,
    keeping x^2 and s for the fused derivative (_gelu_grad): 15 passes over
    the hidden block in all.
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
    w1t, w2t = np.ascontiguousarray(w1.data.T), np.ascontiguousarray(w2.data.T)

    keep = _GRAD_ENABLED and any(t.requires_grad for t in (x, w1, b1, w2, b2))
    pre = np.empty(lead + (hidden,), dtype=dtype) if keep else None
    block = (blocks[0].stop if blocks else 0,) + lead[1:] + (hidden,)
    work = np.empty((2,) + block, dtype=dtype)
    data = np.empty(lead + (d_out,), dtype=np.result_type(dtype, w2.data))
    for s in blocks:
        n = s.stop - s.start
        p, h = (pre[s] if keep else work[0, :n]), work[1, :n]
        _row_product(x.data[s], w1t, out=p)
        p += b1.data
        _gelu(p, h, h)
        y = data[s]
        _row_product(h, w2t, out=y)
        y += b2.data
    _MAC_COUNT += math.prod(lead) * (hidden * d_in + d_out * hidden)

    def bwd(g):
        want_pre = x.requires_grad or w1.requires_grad or b1.requires_grad
        grads = [np.zeros(t.shape, dtype=t.dtype) if t.requires_grad else None for t in (w1, b1, w2, b2)]
        gw1, gb1, gw2, gb2 = grads
        gx = np.empty(x.shape, dtype=np.result_type(g, w1.data)) if x.requires_grad else None
        buf = np.empty((4,) + block, dtype=np.result_type(dtype, g))
        for s in blocks:
            n = s.stop - s.start
            p, g2 = pre[s], g[s].reshape(-1, d_out)
            x2, sg, h, dh = buf[0, :n], buf[1, :n], buf[2, :n], buf[3, :n]
            _gelu(p, sg, h, x2)
            if gw2 is not None:
                gw2 += g2.T @ h.reshape(-1, hidden)
            if gb2 is not None:
                gb2 += g2.sum(axis=0)
            if not want_pre:
                continue
            # one gemm over the block: only the forward must keep linear's kernels
            np.matmul(g2, w2.data, out=dh.reshape(-1, hidden))
            dp = h  # the gradient at the pre-activation takes h's place
            _gelu_grad(x2, sg, h, dh, dp)
            p2 = dp.reshape(-1, hidden)
            if gw1 is not None:
                gw1 += p2.T @ x.data[s].reshape(-1, d_in)
            if gb1 is not None:
                gb1 += p2.sum(axis=0)
            if gx is not None:
                np.matmul(dp, w1.data, out=gx[s])
        for t, gt in zip((x, w1, b1, w2, b2), (gx, *grads)):
            if gt is not None:
                t._accumulate(gt)

    return Tensor._make(data, (x, w1, b1, w2, b2), bwd, "ffn")
