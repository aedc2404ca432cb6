"""Model container tying encoder, trunk, reconstruction decoders, and heads."""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import FeatureSchema
from .encoder import FeatureEncoder
from .finetune import SngpHead
from .nn import spectral_layers
from .pretrain import ReconstructionHeads
from .tensor import Tensor, no_grad
from .trunk import Trunk, TrunkConfig

__all__ = ["Model"]

# the SngpHead arguments a checkpoint stores per head: all but in_dim and rng
HEAD_FIELDS = ("classes", "d_rf", "length_scale", "ridge", "kappa")


class Model:
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
        self.schema = schema
        self.d = d
        d_prime = d_prime if d_prime is not None else 4 * d
        # the constructor fields, as the checkpoint record stores them
        self.fields = dict(
            d=d, n_layers=n_layers, heads=heads, ffn_dim=ffn_dim, d_prime=d_prime,
            spectral_norm=spectral_norm, asset_criterion=asset_criterion, seed=seed,
        )
        self.encoder = FeatureEncoder(schema, d, rng, asset_criterion=asset_criterion, asset_seed=seed)
        self.trunk_config = TrunkConfig(
            d=d, n_tokens=schema.token_count(), n_layers=n_layers, heads=heads, ffn_dim=ffn_dim, d_prime=d_prime,
            spectral_norm=spectral_norm,
        )
        self.trunk = Trunk(self.trunk_config, rng)
        self.recon = ReconstructionHeads(schema, d, rng)
        self.heads: dict = {}  # task name -> SngpHead, created at fine-tune

    def backbone_parameters(self) -> dict:
        params = {}
        params.update(self.encoder.parameters())
        params.update(self.trunk.parameters())
        return params

    def parameters(self) -> dict:
        params = self.backbone_parameters()
        params.update(self.recon.parameters())
        for name, head in self.heads.items():
            params.update({f"head.{name}.{k}": v for k, v in head.parameters().items()})
        return params

    def buffers(self) -> dict:
        """Non-learned arrays that must survive save/load: SNGP state and
        the power-iteration vectors of every spectrally normalized layer."""
        out = {}
        for name, head in self.heads.items():
            for k, v in head.buffers().items():
                out[f"head.{name}.{k}"] = v
        for name, layer in spectral_layers(self.trunk.named_modules()).items():
            out[f"sn.{name}.u"] = layer.u
            out[f"sn.{name}.v"] = layer.v
        return out

    # ---- persistence -----------------------------------------------------

    def save(self, path, config_dict: dict) -> None:
        """Write the arrays plus the record `load` rebuilds the model from:
        the training schema (with its normalization), the constructor
        fields, each head's fields and `config_dict`."""
        arrays = {k: p.data for k, p in self.parameters().items()}
        arrays.update({f"buf.{k}": v for k, v in self.buffers().items()})
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
        record alone. `schema` (normalization aside), `config_dict` and
        `model_kwargs` are only checked against the record: a mismatch raises
        CheckpointError naming the feature or field."""
        record, arrays = load_checkpoint(path)
        saved = FeatureSchema.from_dict(record["schema"])
        if schema is not None:
            _check_schema(schema, saved)
        if config_dict is not None:
            _check_fields("config", config_dict, record["config"], config_dict.keys() | record["config"].keys())
        _check_fields("model", model_kwargs, record["model"], model_kwargs.keys())
        model = Model(saved, **record["model"])
        for task, fields in record["heads"].items():
            head = model.heads[task] = SngpHead(model.d, rng=np.random.default_rng(0), **fields)
            prefix = f"buf.head.{task}."
            head.load_buffers({k[len(prefix) :]: v for k, v in arrays.items() if k.startswith(prefix)})
        for name, p in model.parameters().items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing parameter '{name}'")
            if arrays[name].shape != p.data.shape:
                raise CheckpointError(f"shape mismatch for '{name}'")
            p.data[...] = arrays[name].astype(p.data.dtype)
        for name, layer in spectral_layers(model.trunk.named_modules()).items():
            layer.u, layer.v = (arrays[f"buf.sn.{name}.{k}"].astype(np.float32) for k in "uv")
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
