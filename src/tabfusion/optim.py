"""AdamW with decoupled weight decay, the warmup + cosine schedule, and the
training step both stages run."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import SpectralLinear
from .tensor import Tensor

__all__ = ["AdamW", "CosineWarmupSchedule", "NanGradientError", "Trainer"]


class NanGradientError(RuntimeError):
    """A parameter received a non-finite gradient; the step is aborted."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter '{param_name}'")
        self.param_name = param_name


@dataclass
class CosineWarmupSchedule:
    """Linear warmup from initial_lr to warmup_target_multiplier * initial_lr,
    then cosine decay down to cosine_alpha * peak over decay_steps."""

    initial_lr: float
    warmup_target_multiplier: float
    warmup_steps: int
    cosine_alpha: float
    decay_steps: int

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

    def __init__(self, params: dict, weight_decay: float, betas: tuple = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float) -> None:
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


class Trainer:
    """The training step of both stages, over `slots`, entries of
    `Module.named_state`: the Tensors among them are the parameters, under
    one AdamW, and the SpectralLinear owners of their `u` slots are the
    spectral layers (`spectral`), whose power iteration the caller advances
    before each forward. The engine draws the batches from one rng seeded
    `seed` (`rng`) and takes each step at `schedule.lr_at(step)`."""

    def __init__(self, slots, schedule: CosineWarmupSchedule, weight_decay: float, seed: int):
        slots = list(slots)
        self.params = {path: value for path, _, _, value in slots if isinstance(value, Tensor)}
        self.spectral = [owner for _, owner, key, _ in slots if isinstance(owner, SpectralLinear) and key == "u"]
        self.schedule = schedule
        self.opt = AdamW(self.params, weight_decay=weight_decay)
        self.rng = np.random.default_rng(seed)

    def batch(self, n: int, size: int) -> np.ndarray:
        """Indices of min(size, n) distinct rows of n."""
        return self.rng.choice(n, size=min(size, n), replace=False)

    def step(self, step: int, loss: Tensor) -> float:
        """Backpropagate `loss` and take the AdamW step; returns its rate.
        A non-finite loss raises RuntimeError naming the step before any
        parameter moves. The step frees the gradients once AdamW has read
        them, so none is held through the next forward or after the loop."""
        if not np.isfinite(loss.item()):
            raise RuntimeError(f"non-finite loss at step {step}")
        self.opt.zero_grad()
        loss.backward()
        lr = self.schedule.lr_at(step)
        self.opt.step(lr)
        self.opt.zero_grad()
        return lr
