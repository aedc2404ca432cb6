"""Linear layers, spectral normalization, and small parameter containers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, gelu, matmul

__all__ = [
    "Linear",
    "SpectralLinear",
    "Mlp",
    "power_iteration",
    "training_mode",
]

# power-iteration state advances only inside training_mode(); inference
# forwards are pure so predictions never depend on call history
_TRAINING = False


class training_mode:
    def __enter__(self):
        global _TRAINING
        self._prev = _TRAINING
        _TRAINING = True
        return self

    def __exit__(self, *exc):
        global _TRAINING
        _TRAINING = self._prev
        return False


def power_iteration(w: np.ndarray, u: np.ndarray, iters: int = 1):
    """Estimate the largest singular value of a matrix.

    Returns (sigma, u, v) with u, v unit-norm. Warm-started from the passed
    u so a single iteration per training step converges over time. A zero
    matrix yields sigma 0; the caller guards the division.
    """
    w = np.asarray(w)
    sigma = 0.0
    v = np.zeros(w.shape[1], dtype=w.dtype)
    for _ in range(max(1, iters)):
        wu = w.T @ u
        nu = np.linalg.norm(wu)
        if nu == 0.0:
            return 0.0, u, v
        v = wu / nu
        wv = w @ v
        nv = np.linalg.norm(wv)
        if nv == 0.0:
            return 0.0, u, v
        u = wv / nv
        sigma = float(u @ w @ v)
    return sigma, u, v


class Linear:
    """Dense layer y = x W^T + b with Kaiming-uniform init."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(np.float32),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True) if bias else None
        )

    def parameters(self) -> dict:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def effective_weight(self) -> Tensor:
        return self.weight

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.effective_weight().transpose(1, 0))
        if self.bias is not None:
            y = y + self.bias
        return y


class SpectralLinear(Linear):
    """Linear layer whose effective weight is W / max(sigma(W), eps).

    sigma is estimated by warm-started power iteration (one step per forward
    during training). The backward pass treats the singular vectors u, v as
    constants and differentiates through sigma = u^T W v, the standard
    spectral-norm estimator trick. The raw W stays in the optimizer; only the
    forward pass sees the normalized weight.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        bias: bool = True,
        n_power_iters: int = 1,
        eps: float = 1e-8,
    ):
        super().__init__(in_dim, out_dim, rng, bias=bias)
        u = rng.standard_normal(out_dim).astype(np.float32)
        self.n_power_iters = n_power_iters
        self.eps = eps
        self.update_power_iter = True  # frozen during finite-difference checks
        _, self.u, self.v = power_iteration(self.weight.data, u / np.linalg.norm(u), 5)

    def effective_weight(self) -> Tensor:
        w = self.weight
        if _TRAINING and self.update_power_iter:
            sigma_est, self.u, self.v = power_iteration(w.data, self.u, self.n_power_iters)
        else:
            sigma_est = float(self.u @ w.data @ self.v)
        if sigma_est < self.eps:
            return w
        u = Tensor(self.u.reshape(1, -1).astype(w.dtype))
        v = Tensor(self.v.reshape(-1, 1).astype(w.dtype))
        sigma = matmul(matmul(u, w), v).reshape(1, 1)
        return w * sigma ** -1.0


class Mlp:
    """Two-layer feed-forward block with gelu, optionally spectrally normalized."""

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

    def parameters(self) -> dict:
        return {
            **{f"fc1.{k}": v for k, v in self.fc1.parameters().items()},
            **{f"fc2.{k}": v for k, v in self.fc2.parameters().items()},
        }

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


def _spectral_of(mod, prefix: str) -> dict:
    if isinstance(mod, SpectralLinear):
        return {prefix: mod}
    if isinstance(mod, Mlp):
        return {**_spectral_of(mod.fc1, f"{prefix}.fc1"), **_spectral_of(mod.fc2, f"{prefix}.fc2")}
    return {}


def spectral_layers(named_modules: dict) -> dict:
    """name -> SpectralLinear over a dict of (name, Linear|Mlp) pairs."""
    out = {}
    for name, mod in named_modules.items():
        out.update(_spectral_of(mod, name))
    return out
