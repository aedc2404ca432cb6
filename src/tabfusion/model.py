"""Model container tying encoder, trunk, reconstruction decoders, and heads."""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import FeatureSchema, _is_int
from .encoder import FeatureEncoder
from .finetune import INFERENCE_BATCH, SngpHead, packed_size
from .nn import Module, _Placeholders
from .pretrain import PRETRAINING_PARTS, ReconstructionHeads
from .tensor import Tensor, no_grad
from .trunk import Trunk, TrunkConfig

__all__ = ["Model"]

# the SngpHead arguments a checkpoint stores per head: all but in_dim and rng
HEAD_FIELDS = ("classes", "d_rf", "length_scale", "ridge", "kappa")
# the parts of a model: the state under each top-level attribute, with
# ISA's (`.isa.` in a trunk layer's path) a part of its own
PARTS = ("encoder", "trunk", "isa", "recon", "heads")


class Model(Module):
    def __init__(self, schema: FeatureSchema, cfg: RunConfig):
        """A fresh model of `cfg.model_record()`, its arrays drawn from a
        generator spawned from `cfg.seed`."""
        fields = cfg.model_record()
        self._build(schema, np.random.default_rng(np.random.SeedSequence(fields["seed"]).spawn(1)[0]), fields, PARTS)

    def _build(self, schema: FeatureSchema, rng, fields: dict, parts) -> None:
        """The module tree of `fields` (`RunConfig.model_record()`, as the
        checkpoint record stores it) with the ISA blocks and reconstruction
        decoders only when `parts` names them, its arrays drawn from `rng`."""
        self.schema = schema
        self.d = d = fields["d"]
        self.fields = fields
        self.parts = tuple(parts)
        self.encoder = FeatureEncoder(schema, d, rng, fields["asset_criterion"], fields["seed"])
        self.trunk = Trunk(TrunkConfig(
            d=d, n_tokens=schema.token_count(),
            **{k: fields[k] for k in ("n_layers", "heads", "ffn_dim", "d_prime", "spectral_norm")},
        ), rng, isa="isa" in parts)
        self.recon = ReconstructionHeads(schema, d, rng) if "recon" in parts else None
        self.heads: dict = {}  # task name -> SngpHead, created at fine-tune

    # ---- persistence -----------------------------------------------------

    def save(self, path, config_dict: dict) -> None:
        """Write the model's parameters and buffers under their attribute
        paths, plus the record `load` rebuilds the model from: the training
        schema (with its normalization), the model record, each head's
        fields, the parts the file holds and `config_dict`.

        A model with heads is saved for serving: the file leaves out the ISA
        blocks and reconstruction decoders, which only pre-training runs,
        and holds each fitted head's variance factor (`SngpHead.packed_factor`,
        made as it is written when no calibrated request has made it) as
        `heads.<task>.factor` in place of its precision. A model without
        heads keeps every part."""
        parts = [p for p in self.parts if not (self.heads and p in PRETRAINING_PARTS)]
        # a precision is written as its factor, in its place; a factor slot that
        # is set then writes the same array again under that name
        factors = {f"heads.{t}.precision": (f"heads.{t}.factor", h.packed_factor) for t, h in self.heads.items()}
        arrays = {}
        for name, value in {**{k: p.data for k, p in self.parameters().items()}, **self.buffers()}.items():
            if _part(name) in parts:
                name, value = factors.get(name, (name, value))
                arrays[name] = value
        record = {
            "schema": self.schema.to_dict(),
            "model": self.fields,
            "heads": {task: {k: getattr(head, k) for k in HEAD_FIELDS} for task, head in self.heads.items()},
            "parts": parts,
            "config": config_dict,
        }
        save_checkpoint(path, arrays, record)

    @staticmethod
    def load(path, schema: FeatureSchema | None = None, config_dict: dict | None = None, **model_kwargs) -> "Model":
        """Rebuild a model, its heads and its training schema from the checkpoint
        record alone, then set each array `load_checkpoint` read, cast to the
        slot's dtype if it differs, as the parameter's data or the buffer its
        name points to. Only the parts the record names are built (a
        version-3 record names none, and holds them all): a model loaded
        from a served file has no ISA blocks or reconstruction decoders, so
        pre-training it raises ConfigError. Each head gets the file's
        variance factor, so its calibrated answers run no factorisation; a
        version-3 head gets its precision, and factorises it on first use.
        The constructors that build a fresh model build the tree, but its
        slots are placeholders: the load draws no random number and runs no
        power iteration, so every array the model ends with is the file's. A
        missing array, a shape mismatch, an array that names no attribute,
        a head record that does not hold exactly HEAD_FIELDS of valid types
        and a `parts` that is not a list of names from PARTS raise
        CheckpointError. `schema` (normalization aside), `config_dict`
        and `model_kwargs` are only checked against the record: a mismatch
        raises CheckpointError naming the feature or field."""
        record, arrays = load_checkpoint(path)
        _check_heads_and_parts(record)
        saved = FeatureSchema.from_dict(record["schema"])
        if schema is not None:
            _check_schema(schema, saved)
        if config_dict is not None:
            _check_fields("config", config_dict, record["config"], config_dict.keys() | record["config"].keys())
        _check_fields("model", model_kwargs, record["model"], model_kwargs.keys())
        placeholders = _Placeholders()
        model = Model.__new__(Model)
        model._build(saved, placeholders, record["model"], record.get("parts", PARTS))
        # the heads in their arrays' order, which `save` kept; the record's JSON sorts its keys
        position = {name: i for i, name in enumerate(arrays)}
        for task in sorted(record["heads"], key=lambda t: position.get(f"heads.{t}.beta.weight", -1)):
            model.heads[task] = SngpHead(model.d, rng=placeholders, **record["heads"][task])
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
            # a head's factor slot is empty until set: its length follows from d_rf
            if isinstance(owner, SngpHead) and key == "factor" and array.shape != (packed_size(owner.d_rf),):
                raise CheckpointError(f"shape mismatch for '{name}'")
            # the file's own array, cast only when its dtype is not the slot's
            # (a head's precision or factor is None until set): a new object
            # in every slot, so no cache keyed on the old one survives
            fresh = array if value is None else array.astype(value.dtype, copy=False)
            if isinstance(value, Tensor):
                value.data = fresh
            elif isinstance(owner, Module):
                setattr(owner, key, fresh)
            else:
                owner[key] = fresh
        return model

    # ---- inference -------------------------------------------------------

    def embed(self, snapshots) -> np.ndarray:
        """Pooled inference-mode embeddings, [n, d].

        The one inference pass through encoder and trunk, run under no_grad,
        INFERENCE_BATCH rows at a time. ISA is bypassed, so a row's embedding
        is bitwise the same alone or in any batch.
        """
        chunks = []
        for lo in range(0, len(snapshots), INFERENCE_BATCH):
            with no_grad():
                x, mask = self.encoder.assemble_tokens(snapshots[lo : lo + INFERENCE_BATCH])
                _, pooled = self.trunk(x, mask, mode="inference")
            chunks.append(pooled.data)
        return np.concatenate(chunks) if chunks else np.zeros((0, self.d), dtype=np.float32)

    def predict(self, snapshots, task: str, calibrated: bool = True) -> dict:
        """`SngpHead.predict` of the task's head on each INFERENCE_BATCH chunk
        as `embed` makes it: probs [n, classes], variance [n] and calibrated."""
        parts = [  # an empty input still gets one (empty) call
            self.heads[task].predict(Tensor(self.embed(snapshots[lo : lo + INFERENCE_BATCH])), calibrated)
            for lo in range(0, max(len(snapshots), 1), INFERENCE_BATCH)
        ]
        out = {key: np.concatenate([p[key] for p in parts]) for key in ("probs", "variance")}
        return {**out, "calibrated": parts[0]["calibrated"]}


def _part(path: str) -> str:
    """The part (PARTS) that the state at `path` belongs to."""
    return "isa" if ".isa." in path else path.split(".", 1)[0]


def _check_heads_and_parts(record: dict) -> None:
    """CheckpointError unless each head of `record` holds exactly HEAD_FIELDS,
    integers classes >= 2 and d_rf >= 1, finite numbers length_scale > 0,
    ridge > 0 and kappa >= 0, and its `parts` (which a version-3 record
    lacks) is a list of names from PARTS."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    valid = {
        "classes": lambda v: _is_int(v) and v >= 2,
        "d_rf": lambda v: _is_int(v) and v >= 1,
        "length_scale": lambda v: number(v) and v > 0,
        "ridge": lambda v: number(v) and v > 0,
        "kappa": lambda v: number(v) and v >= 0,
    }
    heads = record.get("heads")
    if not isinstance(heads, dict):
        raise CheckpointError(f"checkpoint record's heads are {heads!r}, not an object of task heads")
    for task, head in heads.items():
        if not (isinstance(head, dict) and head.keys() == set(HEAD_FIELDS)):
            raise CheckpointError(f"checkpoint head '{task}' is {head!r}; a head holds exactly {list(HEAD_FIELDS)}")
        bad = next((k for k in HEAD_FIELDS if not valid[k](head[k])), None)
        if bad is not None:
            raise CheckpointError(f"checkpoint head '{task}' has {bad} {head[bad]!r}")
    parts = record.get("parts", PARTS)
    if not (isinstance(parts, (list, tuple)) and all(p in PARTS for p in parts)):
        raise CheckpointError(f"checkpoint parts are {parts!r}, not a list of names from {list(PARTS)}")


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
