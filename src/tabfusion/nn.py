"""The Module base, linear layers, spectral normalization and the MLP block."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ffn, grad_enabled, linear, spectral_normalize

__all__ = [
    "Module",
    "Linear",
    "SpectralLinear",
    "Mlp",
    "power_iteration",
    "advance_power_iteration",
]

# a spectral layer whose estimated sigma is below this uses W unnormalized
SPECTRAL_EPS = 1e-8


def _power_step(w: np.ndarray, u: np.ndarray):
    """One power-iteration step from u: (u', v, ok) with v = W^T u / |W^T u|
    and u' = W v / |W v|, two matvecs. A zero product ends the step early
    with ok False: v is zero when W^T u is, and u' is u when W v is. Each
    norm is sqrt(a . a), np.linalg.norm's own path for a 1-D array, without
    its per-call checks."""
    wu = w.T @ u
    nu = np.sqrt(wu.dot(wu))
    if nu == 0.0:
        return u, np.zeros(w.shape[1], dtype=w.dtype), False
    v = wu / nu
    wv = w @ v
    nv = np.sqrt(wv.dot(wv))
    if nv == 0.0:
        return u, v, False
    return wv / nv, v, True


def power_iteration(w: np.ndarray, u: np.ndarray, iters: int = 1):
    """Estimate the largest singular value of a matrix.

    Returns (sigma, u, v) with u, v unit-norm. Warm-started from the passed
    u so a single iteration per training step converges over time. A zero
    matrix yields sigma 0; the caller guards the division.
    """
    w = np.asarray(w)
    for _ in range(max(1, iters)):
        u, v, ok = _power_step(w, u)
        if not ok:
            return 0.0, u, v
    return float(u @ w @ v), u, v


def advance_power_iteration(layers) -> None:
    """One power-iteration step for each SpectralLinear in `layers`: new u and v
    arrays. Forwards never move them; the training loops call this right
    before each forward of the spectral layers they train. The step skips
    power_iteration's sigma, which spectral_normalize computes itself."""
    for layer in layers:
        layer.u, layer.v, _ = _power_step(layer.weight.data, layer.u)


class Module:
    """Base of every layer and model: its state is found by one walk.

    The walk goes over the instance's attributes and enters Modules, dicts
    and lists. A Tensor it reaches is a parameter, a numpy array a buffer,
    and each is named by its dotted attribute path, such as
    `trunk.layers.0.w_q.weight` or `heads.risk.precision`. Attributes whose
    names start with "_", and values of any other type, are not walked.
    """

    def named_state(self):
        """Yield (path, owner, key, value) for every slot the walk reaches
        that holds a Tensor, a numpy array or None; `owner` is the Module,
        dict or list that holds `value` under `key`."""
        return _walk(self, "")

    def parameters(self) -> dict:
        return {path: v for path, _, _, v in self.named_state() if isinstance(v, Tensor)}

    def buffers(self) -> dict:
        """Non-learned arrays that must survive save and load."""
        return {path: v for path, _, _, v in self.named_state() if isinstance(v, np.ndarray)}


def _walk(node, prefix: str):
    if isinstance(node, Module):
        items = ((k, v) for k, v in vars(node).items() if not k.startswith("_"))
    else:
        items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = f"{prefix}{key}"
        if value is None or isinstance(value, (Tensor, np.ndarray)):
            yield path, node, key, value
        elif isinstance(value, (Module, dict, list)):
            yield from _walk(value, path + ".")


class _Placeholders:
    """Stands in for a Generator where a module tree is built only to be
    filled from a checkpoint: it draws nothing. `uniform` gives float32 zeros
    (calloc'd, so a weight never touches its pages before the file's array
    replaces it) and `standard_normal` ones, so that normalizing a draw stays
    finite. A spectral layer on a zero weight skips its warm start."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.zeros(size, dtype=np.float32)

    def standard_normal(self, size=None):
        return np.ones(size, dtype=np.float32)


class Linear(Module):
    """Dense layer y = x W^T + b with Kaiming-uniform init. It serves its
    parameter W in every mode and keeps nothing beside its parameters."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(np.float32, copy=False),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True) if bias else None
        )

    def effective_weight(self) -> Tensor:
        """W itself, in every mode: the row kernel copies W^T into the
        contiguous [in, out] layout it reads, so serving needs no cache."""
        return self.weight

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.effective_weight(), self.bias)


class SpectralLinear(Linear):
    """Linear layer whose effective weight is W / max(sigma(W), eps).

    sigma is estimated by warm-started power iteration, advanced by the
    training loops (`advance_power_iteration`) one step per training forward.
    The backward pass treats the singular vectors u, v as constants and
    differentiates through sigma = u^T W v, the standard spectral-norm
    estimator trick. The raw W stays in the optimizer; only the forward
    pass sees the normalized weight.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        super().__init__(in_dim, out_dim, rng, bias=bias)
        u = rng.standard_normal(out_dim).astype(np.float32)
        u = u / np.linalg.norm(u)
        w = self.weight.data
        # a zero weight has sigma 0 and nothing to warm-start toward: what
        # power_iteration would return, without its matvec
        _, self.u, self.v = power_iteration(w, u, 5) if w.any() else (0.0, u, np.zeros(in_dim, w.dtype))
        # the W / sigma of the last no_grad call and the weight.data, u and v
        # it was made from; not saved
        self._cached_weight: tuple | None = None

    def effective_weight(self) -> Tensor:
        """W / sigma, or W itself when sigma < eps, with the current u and v.

        A graph-building call returns a `spectral_normalize` output whose
        node records W and 1/sigma: the nodes that consume it keep those and
        rebuild W / sigma in their backward, so a training graph keeps no
        W / sigma array. A call under no_grad reuses the last such result
        while `weight.data`, `u` and `v` are the same array objects as when
        it was made, so a served request neither renormalizes a layer (two
        products for sigma and a full pass over W) nor copies W / sigma:
        the cached array is the transpose of a C-contiguous [in, out] array,
        the layout the row kernels read. Library code therefore assigns new
        arrays and never writes into these: writing into `weight.data`
        after a no_grad call leaves a stale W / sigma. Graph-building calls
        never use the cache.
        """
        w = self.weight
        if grad_enabled():
            return spectral_normalize(w, self.u, self.v, SPECTRAL_EPS)
        c = self._cached_weight
        if c is None or c[0] is not w.data or c[1] is not self.u or c[2] is not self.v:
            ws = spectral_normalize(w, self.u, self.v, SPECTRAL_EPS).data
            c = (w.data, self.u, self.v, Tensor(np.ascontiguousarray(ws.T).T))
            self._cached_weight = c
        return c[3]


class Mlp(Module):
    """Two-layer feed-forward block with gelu, optionally spectrally normalized.

    One `ffn` graph node over the effective weights and biases of `fc1` and
    `fc2`: it runs in blocks of examples and keeps no hidden-sized array for
    the backward, only its input, fc1's bias and the two weights, a
    spectral weight as its raw W and 1/sigma, not W / sigma; the backward
    rebuilds the weights and recomputes fc1's output block by block. The
    layers stay modules, so parameter names do not change.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        spectral: bool = False,
    ):
        cls = SpectralLinear if spectral else Linear
        self.fc1 = cls(in_dim, hidden_dim, rng)
        self.fc2 = cls(hidden_dim, out_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        fc1, fc2 = self.fc1, self.fc2
        return ffn(x, fc1.effective_weight(), fc1.bias, fc2.effective_weight(), fc2.bias)

