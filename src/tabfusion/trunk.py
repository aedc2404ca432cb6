"""Dual-attention transformer trunk: row self-attention over tokens plus
projection-based inter-sample attention (ISA) over the batch axis.

ISA flattens each example's N*d token block, projects it to d', attends
across examples, and projects back, cutting the inter-sample attention cost
from O(B^2*N*d) to O(B^2*d'). The whole ISA block sits behind a residual
connection and is skipped entirely at fine-tune/inference time so each
prediction depends only on its own example.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .nn import Linear, Mlp, Module, SpectralLinear
from .tensor import Tensor, layer_norm, multi_head_attention, no_grad

__all__ = ["TrunkConfig", "attention", "IsaBlock", "TrunkLayer", "Trunk"]

MODES = ("pretrain", "finetune", "inference")


@dataclass
class TrunkConfig:
    d: int
    n_tokens: int
    n_layers: int
    heads: int
    ffn_dim: int
    d_prime: int  # ISA projected dim
    spectral_norm: bool = True

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.d_prime < 1:
            raise ValueError("d_prime must be >= 1")


def attention(x: Tensor, w_q: Linear, w_k: Linear, w_v: Linear, heads: int, key_mask=None) -> Tensor:
    """Scaled dot-product attention over the token axis of x [B, T, d].

    One `multi_head_attention` node over x and the effective weights of the
    three projection layers: multi-head split/merge when heads > 1; masked
    keys get -1e9 pre-softmax. The node keeps x and the weights, not the
    projections q, k and v, and its backward recomputes them; a spectral
    layer's weight is kept as its raw W and 1/sigma and W / sigma rebuilt
    in the backward. The layers stay modules, so parameter names do not
    change.
    """
    return multi_head_attention(
        x, w_q.effective_weight(), w_k.effective_weight(), w_v.effective_weight(), heads, key_mask
    )


class IsaBlock(Module):
    """Projection-based inter-sample attention at reduced dimension d'."""

    def __init__(self, cfg: TrunkConfig, rng: np.random.Generator):
        nd = cfg.n_tokens * cfg.d
        dp = cfg.d_prime
        cls = SpectralLinear if cfg.spectral_norm else Linear
        self.project = cls(nd, dp, rng)
        self.restore = cls(dp, nd, rng)
        self.w_q = cls(dp, dp, rng, bias=False)
        self.w_k = cls(dp, dp, rng, bias=False)
        self.w_v = cls(dp, dp, rng, bias=False)
        self.ffn = Mlp(dp, dp, dp, rng, spectral=cfg.spectral_norm)

    def __call__(self, x: Tensor) -> Tensor:
        b, n, d = x.shape
        flat = x.reshape(1, b, n * d)  # batch axis becomes the attention axis
        proj = self.project(flat)  # [1, B, d']
        proj = layer_norm(proj)
        attn = attention(proj, self.w_q, self.w_k, self.w_v, heads=1)
        restored = self.restore(self.ffn(attn))  # [1, B, N*d]
        return restored.reshape(b, n, d)


class TrunkLayer(Module):
    """Pre-norm transformer layer: row attention + FFN, then residual ISA.
    Built without ISA (`isa` None) when only fine-tuning and inference will
    run it."""

    def __init__(self, cfg: TrunkConfig, rng: np.random.Generator, isa: bool):
        cls = SpectralLinear if cfg.spectral_norm else Linear
        self.w_q = cls(cfg.d, cfg.d, rng, bias=False)
        self.w_k = cls(cfg.d, cfg.d, rng, bias=False)
        self.w_v = cls(cfg.d, cfg.d, rng, bias=False)
        self.ffn = Mlp(cfg.d, cfg.ffn_dim, cfg.d, rng, spectral=cfg.spectral_norm)
        self.isa = IsaBlock(cfg, rng) if isa else None
        self.cfg = cfg

    def __call__(self, x: Tensor, mask, use_isa: bool) -> Tensor:
        x = x + attention(layer_norm(x), self.w_q, self.w_k, self.w_v, self.cfg.heads, key_mask=mask)
        x = x + self.ffn(layer_norm(x))
        if use_isa:
            x = x + self.isa(x)
        return x


class Trunk(Module):
    def __init__(self, cfg: TrunkConfig, rng: np.random.Generator, isa: bool = True):
        """`isa` False builds the layers without their ISA blocks, as a model
        loaded from a checkpoint that leaves them out is: pretrain mode,
        the only one that runs them, then refuses."""
        self.cfg = cfg
        self.layers = [TrunkLayer(cfg, rng, isa) for _ in range(cfg.n_layers)]

    def __call__(self, x: Tensor, mask=None, mode: str = "inference"):
        """Run the stack; returns (tokens [B, N, d], pooled [B, d]).

        ISA blocks execute only in pretrain mode; in finetune/inference they
        are identity (residual contribution removed), so outputs for one
        example never depend on the rest of the batch. Inference mode runs
        under no_grad: its outputs record no graph.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode '{mode}'")
        b, n, d = x.shape
        if mask is None:
            mask = np.ones((b, n), dtype=np.float32)
        use_isa = mode == "pretrain"
        if use_isa and any(layer.isa is None for layer in self.layers):
            raise ConfigError("pretrain mode runs the ISA blocks, which this trunk was built without "
                              "(part 'isa', which a fine-tuned checkpoint leaves out)")
        with no_grad() if mode == "inference" else nullcontext():
            for layer in self.layers:
                x = layer(x, mask, use_isa)
            pooled = masked_mean(x, mask)
        return x, pooled


def masked_mean(tokens: Tensor, mask) -> Tensor:
    m = np.asarray(mask, dtype=np.float32)
    weights = m / np.maximum(m.sum(axis=1, keepdims=True), 1e-12)
    return (tokens * Tensor(weights[:, :, None])).sum(axis=1)
