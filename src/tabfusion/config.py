"""Run configuration: the full hyperparameter record, which declares every
run default, its validation, and the stage records the training loops read."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .data import TOPK_CRITERIA
from .optim import CosineWarmupSchedule

__all__ = ["RunConfig", "ConfigError", "AugmentConfig", "LossWeights", "PretrainConfig", "FinetuneConfig"]


class ConfigError(ValueError):
    pass


# the values a RunConfig field of each declared type takes; a bool is an
# int to Python, so it passes only as a bool
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class RunConfig:
    # architecture
    d: int = 32
    heads: int = 8
    n_layers: int = 6
    ffn_dim: int = 512
    d_prime: int = 128
    spectral_norm: bool = True
    # optimization (production batch 32768 scaled down for desk CPUs)
    batch_size: int = 256
    initial_lr: float = 5e-5
    cosine_alpha: float = 0.1
    warmup_target_pretrain: float = 10.0
    warmup_target_finetune: float = 2.0
    warmup_steps: int = 100
    decay_steps: int = 10_000
    weight_decay: float = 0.0
    # pretraining
    pretrain_steps: int = 0
    cutmix_swap_prob: float = 0.2
    mixup_alpha: float = 0.8
    contrastive_tau: float = 0.1
    # fine-tuning
    finetune_steps: int = 500
    focal_gamma: float = 2.0
    d_rf: int = 1024
    gp_length_scale: float = 2.0
    gp_ridge: float = 1.0
    linear_probe: bool = False
    # data / misc
    asset_criterion: str = "recency"
    folds: int = 5
    seed: int = 0

    def validate(self) -> None:
        """Raise ConfigError naming the first field whose value is not of its
        declared type or is out of range."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        checks = [
            (self.d > 0 and self.d % 2 == 0, "d must be a positive even integer"),
            (self.heads > 0 and self.d % self.heads == 0, "d must be divisible by heads"),
            (self.n_layers >= 0, "n_layers must be >= 0"),
            (self.ffn_dim >= 1, "ffn_dim must be >= 1"),
            (self.d_prime >= 1, "d_prime must be >= 1"),
            (0.0 <= self.cutmix_swap_prob <= 1.0, "cutmix_swap_prob must be in [0,1]"),
            (0.0 <= self.mixup_alpha <= 1.0, "mixup_alpha must be in [0,1]"),
            (self.contrastive_tau > 0, "contrastive_tau must be positive"),
            (self.initial_lr >= 0, "initial_lr must be >= 0"),
            (0.0 <= self.cosine_alpha <= 1.0, "cosine_alpha must be in [0,1]"),
            (self.warmup_target_pretrain >= 0, "warmup_target_pretrain must be >= 0"),
            (self.warmup_target_finetune >= 0, "warmup_target_finetune must be >= 0"),
            (self.warmup_steps >= 0, "warmup_steps must be >= 0"),
            (self.decay_steps >= 1, "decay_steps must be >= 1"),
            (self.weight_decay >= 0, "weight_decay must be >= 0"),
            (self.pretrain_steps >= 0, "pretrain_steps must be >= 0"),
            (self.finetune_steps >= 0, "finetune_steps must be >= 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.folds >= 2, "folds must be >= 2"),
            (self.d_rf >= 1, "d_rf must be >= 1"),
            (self.gp_length_scale > 0, "gp_length_scale must be positive"),
            (self.gp_ridge > 0, "gp_ridge must be positive"),
            (self.focal_gamma >= 0, "focal_gamma must be >= 0"),
            (self.asset_criterion in TOPK_CRITERIA, f"asset_criterion must be one of {list(TOPK_CRITERIA)}"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)

    def to_dict(self) -> dict:
        return asdict(self)

    def pretrain_config(self) -> PretrainConfig:
        return PretrainConfig(
            steps=self.pretrain_steps, batch_size=self.batch_size,
            augment=AugmentConfig(self.cutmix_swap_prob, self.mixup_alpha, seed=self.seed),
            weights=LossWeights(tau=self.contrastive_tau), schedule=self._schedule(self.warmup_target_pretrain),
            weight_decay=self.weight_decay, seed=self.seed,
        )

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(
            steps=self.finetune_steps, batch_size=self.batch_size, schedule=self._schedule(self.warmup_target_finetune),
            weight_decay=self.weight_decay, d_rf=self.d_rf, length_scale=self.gp_length_scale, ridge=self.gp_ridge,
            linear_probe=self.linear_probe, seed=self.seed,
        )

    def _schedule(self, warmup_target: float) -> CosineWarmupSchedule:
        """The learning-rate schedule, peaking at `warmup_target` times the initial rate."""
        return CosineWarmupSchedule(
            initial_lr=self.initial_lr, warmup_target_multiplier=warmup_target, warmup_steps=self.warmup_steps,
            cosine_alpha=self.cosine_alpha, decay_steps=self.decay_steps,
        )

    def model_record(self) -> dict:
        """The fields `Model` is built from, as its keyword arguments; the CLI
        checks them against a checkpoint's record (`seed` seeds the `random`
        asset criterion), so training-only fields never block a load."""
        return dict(
            d=self.d, n_layers=self.n_layers, heads=self.heads, ffn_dim=self.ffn_dim, d_prime=self.d_prime,
            spectral_norm=self.spectral_norm, asset_criterion=self.asset_criterion, seed=self.seed,
        )

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config is a JSON object of fields, not a {type(d).__name__}")
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**d)
        cfg.validate()
        return cfg

    @staticmethod
    def load(path) -> "RunConfig":
        try:
            return RunConfig.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


@dataclass
class AugmentConfig:
    cutmix_swap_prob: float  # probability a feature is taken from the partner
    mixup_alpha: float  # weight on the anchor in the latent interpolation
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.cutmix_swap_prob <= 1.0:
            raise ValueError("cutmix_swap_prob must be in [0, 1]")
        if not 0.0 <= self.mixup_alpha <= 1.0:
            raise ValueError("mixup_alpha must be in [0, 1]")


@dataclass
class LossWeights:
    num: float = 1.0
    ce: float = 1.0
    mcat: float = 1.0
    con: float = 1.0
    emb: float = 1.0
    memb: float = 1.0
    tau: float = 0.1

    def __post_init__(self):
        parts = (self.num, self.ce, self.mcat, self.con, self.emb, self.memb)
        if any(a < 0 for a in parts):
            raise ValueError("loss weights must be non-negative")
        if all(a == 0 for a in parts):
            raise ValueError("at least one loss weight must be positive")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")


@dataclass
class PretrainConfig:
    steps: int
    batch_size: int
    augment: AugmentConfig
    weights: LossWeights
    schedule: CosineWarmupSchedule
    weight_decay: float
    seed: int


@dataclass
class FinetuneConfig:
    steps: int
    batch_size: int
    schedule: CosineWarmupSchedule
    weight_decay: float
    d_rf: int
    length_scale: float
    ridge: float
    linear_probe: bool  # freeze everything but the heads
    seed: int
    eval_every: int = 50
    patience: int = 10  # early-stopping patience in eval intervals, on val AUPRC
