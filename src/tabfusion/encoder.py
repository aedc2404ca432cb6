"""Per-feature encoders mapping heterogeneous inputs to d-dimensional tokens.

A batch is featurized once into per-feature arrays (`feature_inputs`) that
are the encoder's input, pre-training's reconstruction target and feature
selection's columns. Numerics use learned-frequency sinusoidal encoding,
categoricals use summed embedding-table rows, and precomputed modality
embeddings pass through a small projector MLP of hidden width d. Missing
values take a learned embedding and empty asset slots a learned pad; no
positional encoding is added (the token set is unordered).
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .data import FeatureKind, FeatureSchema, Snapshot, select_top_k_assets
from .nn import Mlp, Module
from .tensor import Tensor, concat, matmul, numeric_encoding

__all__ = ["FeatureEncoder", "feature_inputs"]


class FeatureEncoder(Module):
    def __init__(self, schema: FeatureSchema, d: int, rng: np.random.Generator, asset_criterion: str, asset_seed: int):
        if d % 2 != 0:
            raise ValueError("token dimension d must be even")
        self.schema = schema
        self.d = d
        self.asset_criterion = asset_criterion
        self.asset_seed = asset_seed

        self.freqs: dict[str, Tensor] = {}
        self.tables: dict[str, Tensor] = {}
        self.missing: dict[str, Tensor] = {}
        self.pads: dict[str, Tensor] = {}
        self.projectors: dict[int, Mlp] = {}

        scale = 1.0 / math.sqrt(d)
        for f in schema:
            if f.kind == FeatureKind.NUMERIC:
                # geometric frequency ladder spanning coarse to fine scales
                self.freqs[f.name] = Tensor(
                    np.geomspace(0.1, 10.0, d // 2).astype(np.float32), requires_grad=True
                )
                self.missing[f.name] = self._missing_param(rng, scale)
            elif f.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL):
                self.tables[f.name] = Tensor(
                    (rng.standard_normal((f.vocab_size, d)) * scale).astype(np.float32),
                    requires_grad=True,
                )
                self.missing[f.name] = self._missing_param(rng, scale)
            else:
                if f.dim not in self.projectors:
                    self.projectors[f.dim] = Mlp(f.dim, d, d, rng)
                if f.kind == FeatureKind.EMBEDDING:
                    self.missing[f.name] = self._missing_param(rng, scale)
                else:
                    self.pads[f.name] = self._missing_param(rng, scale)

    def _missing_param(self, rng, scale) -> Tensor:
        return Tensor((rng.standard_normal(self.d) * scale).astype(np.float32), requires_grad=True)

    # ---- featurization and assembly --------------------------------------

    def inputs(self, snapshots: list[Snapshot]) -> dict:
        """`feature_inputs` of a batch under the encoder's asset criterion and seed."""
        return feature_inputs(self.schema, snapshots, self.asset_criterion, self.asset_seed)

    def assemble_tokens(self, snapshots: list[Snapshot]):
        """Encode a batch into (X: [B, N, d], mask: [B, N]): `tokens` of `inputs`."""
        return self.tokens(self.inputs(snapshots))

    def tokens(self, inputs: dict):
        """Encode `inputs(snapshots)` into (X: [B, N, d], mask: [B, N]).

        The numerics are one sinusoid node; a categorical or tag-set token
        sums table rows by index count; embedding vectors and asset slots
        pass through the projector of their dim. A missing value takes the
        feature's missing embedding, an empty asset slot its pad embedding.
        mask is 1 for real tokens, 0 for empty asset slots.
        """
        b = len(next(iter(inputs.values()))[0])
        mask = np.ones((b, self.schema.token_count()), dtype=np.float32)
        numeric = [f.name for f in self.schema if f.kind == FeatureKind.NUMERIC]
        if numeric:
            values = np.empty((b, len(numeric)), dtype=np.float32)
            present = np.empty_like(values)
            for j, k in enumerate(numeric):
                values[:, j], present[:, j] = inputs[k]
            freqs, missing = [self.freqs[k] for k in numeric], [self.missing[k] for k in numeric]
            num = numeric_encoding(Tensor(values), 1.0 - present, freqs, missing)
        blocks = []  # None marks a numeric token; `num` holds them in schema order
        for f, start, count in self.schema.token_slots():
            values, present = inputs[f.name]
            if f.kind == FeatureKind.NUMERIC:
                blocks.append(None)
                continue
            if f.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL):
                tok = matmul(Tensor(values), self.tables[f.name])
            else:
                tok = self.projectors[f.dim](Tensor(values.reshape(-1, f.dim)))
            if f.kind == FeatureKind.MULTI_EMBEDDING:
                mask[:, start : start + count] = present
                blocks.append(self._fill(tok.reshape(b, count, self.d), present, self.pads[f.name]))
                continue
            if f.kind != FeatureKind.MULTI_CATEGORICAL:
                tok = self._fill(tok, present, self.missing[f.name])
            blocks.append(tok.reshape(b, 1, self.d))
        parts, start = [], 0
        for is_numeric, run in groupby(blocks, key=lambda blk: blk is None):
            run = list(run)
            if is_numeric:  # one slice of `num` per run of consecutive numeric tokens
                stop = start + len(run)
                parts.append(num if len(run) == len(numeric) else num[:, start:stop])
                start = stop
            else:
                parts.extend(run)
        return concat(parts, axis=1), mask

    def _fill(self, tok: Tensor, present: np.ndarray, fill: Tensor) -> Tensor:
        """tok where present is 1, the [d] embedding `fill` where it is 0."""
        p = Tensor(present.reshape(present.shape + (1,)))
        return tok * p + fill.reshape((1,) * present.ndim + (self.d,)) * (1.0 - p)


def feature_inputs(schema: FeatureSchema, snapshots: list[Snapshot], asset_criterion: str, asset_seed: int) -> dict:
    """Each feature's float32 input arrays for a batch, name -> (values, present).

    - numeric: values [B] (missing zero-filled), present [B];
    - categorical and multi-categorical: index counts [B, vocab] and
      present [B]; a tag set is never missing, only empty;
    - embedding: vectors [B, dim] (missing zero-filled), present [B];
    - multi-embedding: the top max_count assets by `asset_criterion` and
      `asset_seed`, vectors [B, max_count, dim] and present [B, max_count].

    The encoder encodes these arrays, pre-training reconstructs them and
    feature selection flattens them.
    """
    b = len(snapshots)
    out = {}
    for f in schema:
        raw = [s.values.get(f.name) for s in snapshots]
        if f.kind == FeatureKind.MULTI_CATEGORICAL:  # a tag set is never missing, only empty
            out[f.name] = (_counts(f, [v or () for v in raw]), np.ones(b, dtype=np.float32))
            continue
        if f.kind == FeatureKind.MULTI_EMBEDDING:
            values = np.zeros((b, f.max_count, f.dim), dtype=np.float32)
            present = np.zeros((b, f.max_count), dtype=np.float32)
            for i, assets in enumerate(raw):
                top = select_top_k_assets(assets or [], f.max_count, criterion=asset_criterion, seed=asset_seed)
                for j, a in enumerate(top):
                    values[i, j] = a.vector
                    present[i, j] = 1.0
            out[f.name] = (values, present)
            continue
        present = np.array([v is not None for v in raw], dtype=np.float32)
        if f.kind == FeatureKind.NUMERIC:
            values = np.array([0.0 if v is None else v for v in raw], dtype=np.float32)
        elif f.kind == FeatureKind.CATEGORICAL:
            values = _counts(f, [() if v is None else (v,) for v in raw])
        else:
            values = np.zeros((b, f.dim), dtype=np.float32)
            for i, v in enumerate(raw):
                if v is not None:
                    values[i] = v
        out[f.name] = (values, present)
    return out


def _counts(f, index_sets) -> np.ndarray:
    """[B, vocab] counts of the indices in each row's set."""
    counts = np.zeros((len(index_sets), f.vocab_size), dtype=np.float32)
    for i, idxs in enumerate(index_sets):
        for j in idxs:
            if not 0 <= j < f.vocab_size:
                raise IndexError(f"category index {j} out of range for '{f.name}'")
            counts[i, j] += 1.0
    return counts
