"""AdamW with decoupled weight decay and the warmup + cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AdamW", "CosineWarmupSchedule", "NanGradientError"]


class NanGradientError(RuntimeError):
    """A parameter received a non-finite gradient; the step is aborted."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter '{param_name}'")
        self.param_name = param_name


@dataclass
class CosineWarmupSchedule:
    """Linear warmup from initial_lr to warmup_target_multiplier * initial_lr,
    then cosine decay down to cosine_alpha * peak over decay_steps."""

    initial_lr: float = 5e-5
    warmup_target_multiplier: float = 10.0
    warmup_steps: int = 100
    cosine_alpha: float = 0.1
    decay_steps: int = 10_000

    @property
    def peak_lr(self) -> float:
        return self.initial_lr * self.warmup_target_multiplier

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        peak = self.peak_lr
        if step < self.warmup_steps:
            frac = step / self.warmup_steps
            return self.initial_lr + frac * (peak - self.initial_lr)
        t = min(step - self.warmup_steps, self.decay_steps)
        cos = 0.5 * (1.0 + math.cos(math.pi * t / self.decay_steps))
        return peak * (self.cosine_alpha + (1.0 - self.cosine_alpha) * cos)


class AdamW:
    """Decoupled-weight-decay Adam over a name -> Tensor parameter dict."""

    def __init__(
        self,
        params: dict,
        lr: float = 5e-5,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NanGradientError(name)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            # decoupled decay: applied to the parameter directly, not the moments;
            # a new array, so caches keyed on the old one (SpectralLinear's) miss
            p.data = p.data - lr * (update + self.weight_decay * p.data)
