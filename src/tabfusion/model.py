"""Model container tying encoder, trunk, reconstruction decoders, and heads."""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import FeatureSchema
from .encoder import FeatureEncoder
from .finetune import SngpHead
from .nn import Module, _Placeholders
from .pretrain import ReconstructionHeads
from .tensor import Tensor, no_grad
from .trunk import Trunk, TrunkConfig

__all__ = ["Model"]

# the SngpHead arguments a checkpoint stores per head: all but in_dim and rng
HEAD_FIELDS = ("classes", "d_rf", "length_scale", "ridge", "kappa")


class Model(Module):
    def __init__(
        self,
        schema: FeatureSchema,
        d: int = 32,
        n_layers: int = 6,
        heads: int = 8,
        ffn_dim: int = 512,
        d_prime: int | None = None,
        spectral_norm: bool = True,
        asset_criterion: str = "recency",
        seed: int = 0,
    ):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        d_prime = d_prime if d_prime is not None else 4 * d
        self._build(schema, rng, dict(
            d=d, n_layers=n_layers, heads=heads, ffn_dim=ffn_dim, d_prime=d_prime,
            spectral_norm=spectral_norm, asset_criterion=asset_criterion, seed=seed,
        ))

    def _build(self, schema: FeatureSchema, rng, fields: dict) -> None:
        """The module tree of `fields` (the constructor fields, as the checkpoint
        record stores them), its arrays drawn from `rng`."""
        self.schema = schema
        self.d = d = fields["d"]
        self.fields = fields
        self.encoder = FeatureEncoder(schema, d, rng, asset_criterion=fields["asset_criterion"],
                                      asset_seed=fields["seed"])
        self.trunk = Trunk(TrunkConfig(
            d=d, n_tokens=schema.token_count(),
            **{k: fields[k] for k in ("n_layers", "heads", "ffn_dim", "d_prime", "spectral_norm")},
        ), rng)
        self.recon = ReconstructionHeads(schema, d, rng)
        self.heads: dict = {}  # task name -> SngpHead, created at fine-tune

    # ---- persistence -----------------------------------------------------

    def save(self, path, config_dict: dict) -> None:
        """Write every parameter and buffer under its attribute path, plus the
        record `load` rebuilds the model from: the training schema (with its
        normalization), the constructor fields, each head's fields and
        `config_dict`."""
        arrays = {**{k: p.data for k, p in self.parameters().items()}, **self.buffers()}
        record = {
            "schema": self.schema.to_dict(),
            "model": self.fields,
            "heads": {task: {k: getattr(head, k) for k in HEAD_FIELDS} for task, head in self.heads.items()},
            "config": config_dict,
        }
        save_checkpoint(path, arrays, record)

    @staticmethod
    def load(path, schema: FeatureSchema | None = None, config_dict: dict | None = None, **model_kwargs) -> "Model":
        """Rebuild a model, its heads and its training schema from the checkpoint
        record alone, then set each array `load_checkpoint` read, cast to the
        slot's dtype if it differs, as the parameter's data or the buffer its
        name points to. The constructors that build a fresh model build the
        tree, but its slots are placeholders: the load draws no random number
        and runs no power iteration, so every array the model ends with is
        the file's. A missing array, a shape mismatch or an array that names
        no attribute raises CheckpointError. `schema` (normalization aside),
        `config_dict` and `model_kwargs` are only checked against the record:
        a mismatch raises CheckpointError naming the feature or field."""
        record, arrays = load_checkpoint(path)
        saved = FeatureSchema.from_dict(record["schema"])
        if schema is not None:
            _check_schema(schema, saved)
        if config_dict is not None:
            _check_fields("config", config_dict, record["config"], config_dict.keys() | record["config"].keys())
        _check_fields("model", model_kwargs, record["model"], model_kwargs.keys())
        placeholders = _Placeholders()
        model = Model.__new__(Model)
        model._build(saved, placeholders, record["model"])
        for task, fields in record["heads"].items():
            model.heads[task] = SngpHead(model.d, rng=placeholders, **fields)
        slots = {name: (owner, key, value) for name, owner, key, value in model.named_state()}
        for name, (_, _, value) in slots.items():
            if value is not None and name not in arrays:
                raise CheckpointError(f"checkpoint missing array '{name}'")
        for name, array in arrays.items():
            if name not in slots:
                raise CheckpointError(f"checkpoint array '{name}' names no attribute of the model")
            owner, key, value = slots[name]
            if value is not None and value.shape != array.shape:
                raise CheckpointError(f"shape mismatch for '{name}'")
            # the file's own array, cast only when its dtype is not the slot's
            # (a head's precision is None until a fit): a new object in
            # every slot, so no cache keyed on the old one survives
            fresh = array if value is None else array.astype(value.dtype, copy=False)
            if isinstance(value, Tensor):
                value.data = fresh
            elif isinstance(owner, Module):
                setattr(owner, key, fresh)
            else:
                owner[key] = fresh
        return model

    # ---- inference -------------------------------------------------------

    def embed(self, snapshots, batch_size: int = 256) -> np.ndarray:
        """Pooled inference-mode embeddings, [n, d].

        The one inference pass through encoder and trunk, run under no_grad.
        ISA is bypassed, so a row's embedding is bitwise the same alone or in
        any batch.
        """
        chunks = []
        for lo in range(0, len(snapshots), batch_size):
            with no_grad():
                x, mask = self.encoder.assemble_tokens(snapshots[lo : lo + batch_size])
                _, pooled = self.trunk(x, mask, mode="inference")
            chunks.append(pooled.data)
        return np.concatenate(chunks) if chunks else np.zeros((0, self.d), dtype=np.float32)

    def predict(self, snapshots, task: str, calibrated: bool = True, batch_size: int = 256) -> dict:
        """`SngpHead.predict` of the task's head on `embed`'s rows, batch_size
        at a time: probs [n, classes], variance [n] and calibrated."""
        pooled = self.embed(snapshots, batch_size)
        parts = [  # an empty input still gets one (empty) call
            self.heads[task].predict(Tensor(pooled[lo : lo + batch_size]), calibrated)
            for lo in range(0, max(len(pooled), 1), batch_size)
        ]
        out = {key: np.concatenate([p[key] for p in parts]) for key in ("probs", "variance")}
        return {**out, "calibrated": parts[0]["calibrated"]}


def _check_fields(what: str, given: dict, saved: dict, keys) -> None:
    for key in sorted(keys):
        if given.get(key) != saved.get(key):
            raise CheckpointError(
                f"{what} field '{key}' is {given.get(key)!r} here but {saved.get(key)!r} in the checkpoint"
            )


def _check_schema(given: FeatureSchema, saved: FeatureSchema) -> None:
    """Same features in the same order with the same specs; normalization may differ."""
    for mine, theirs in zip_longest(given.to_dict()["features"], saved.to_dict()["features"], fillvalue={}):
        name = (theirs or mine)["name"]
        _check_fields(f"schema feature {name!r}", mine, theirs, (mine.keys() | theirs.keys()) - {"normalization"})
