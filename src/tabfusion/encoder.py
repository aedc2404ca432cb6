"""Per-feature encoders mapping heterogeneous inputs to d-dimensional tokens.

Numerics use learned-frequency sinusoidal encoding, categoricals use summed
embedding-table rows, and precomputed modality embeddings pass through a
small projector MLP of hidden width d. Every feature has a learned missing
embedding; no positional encoding is added (the token set is unordered).
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .data import FeatureKind, FeatureSchema, Snapshot, select_top_k_assets
from .nn import Mlp, Module
from .tensor import Tensor, concat, matmul, numeric_encoding

__all__ = ["FeatureEncoder"]


class FeatureEncoder(Module):
    def __init__(
        self,
        schema: FeatureSchema,
        d: int,
        rng: np.random.Generator,
        asset_criterion: str = "recency",
        asset_seed: int = 0,
    ):
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

    # ---- per-kind encoders (batched) ------------------------------------

    def encode_numeric(self, names, values, missing_mask) -> Tensor:
        """Tokens [B, n, d] of the numeric features `names`, in one node.

        values: [B, n] floats (missing slots zero-filled), missing_mask: [B, n] 0/1.
        """
        b, n = len(values), len(names)
        x = Tensor(np.asarray(values, dtype=np.float32).reshape(b, n))
        freqs, missing = [self.freqs[k] for k in names], [self.missing[k] for k in names]
        return numeric_encoding(x, missing_mask, freqs, missing)

    def encode_categorical(self, feature_name: str, index_sets, missing_mask=None) -> Tensor:
        """index_sets: per-example iterable of indices (singleton for univalent).

        Summation over the set; an empty set yields the zero vector.
        """
        table = self.tables[feature_name]
        vocab = table.shape[0]
        hot = np.zeros((len(index_sets), vocab), dtype=np.float32)
        for i, idxs in enumerate(index_sets):
            for j in idxs:
                if not 0 <= j < vocab:
                    raise IndexError(f"category index {j} out of range for '{feature_name}'")
                hot[i, j] += 1.0
        tok = matmul(Tensor(hot), table)
        if missing_mask is not None:
            tok = self._blend_missing(tok, feature_name, missing_mask)
        return tok

    def encode_embedding_feature(self, dim: int, vectors: np.ndarray) -> Tensor:
        """Project [B, dim] input vectors to [B, d] tokens."""
        if vectors.shape[-1] != dim:
            raise ValueError(f"expected dim {dim}, got {vectors.shape[-1]}")
        return self.projectors[dim](Tensor(vectors.astype(np.float32)))

    def _blend_missing(self, tok: Tensor, feature_name: str, missing_mask) -> Tensor:
        m = Tensor(np.asarray(missing_mask, dtype=np.float32).reshape(-1, 1))
        miss = self.missing[feature_name].reshape(1, self.d)
        return tok * (1.0 - m) + miss * m

    # ---- full assembly ---------------------------------------------------

    def assemble_tokens(self, snapshots: list[Snapshot]):
        """Encode a batch into (X: [B, N, d], mask: [B, N]).

        mask is 1 for real tokens, 0 for multi-embedding pad slots.
        """
        b = len(snapshots)
        numeric = [f.name for f in self.schema if f.kind == FeatureKind.NUMERIC]
        if numeric:
            raw = [[s.values.get(name) for name in numeric] for s in snapshots]
            miss = [[1.0 if v is None else 0.0 for v in row] for row in raw]
            vals = [[0.0 if v is None else v for v in row] for row in raw]
            num = self.encode_numeric(numeric, vals, miss)
        blocks = []  # None marks a numeric token; `num` holds them in schema order
        mask_cols = []
        for f in self.schema:
            if f.kind == FeatureKind.NUMERIC:
                blocks.append(None)
                mask_cols.append(np.ones((b, 1), dtype=np.float32))
            elif f.kind == FeatureKind.CATEGORICAL:
                vals = [s.values.get(f.name) for s in snapshots]
                miss = [1.0 if v is None else 0.0 for v in vals]
                sets = [[] if v is None else [v] for v in vals]
                blocks.append(self.encode_categorical(f.name, sets, miss).reshape(b, 1, self.d))
                mask_cols.append(np.ones((b, 1), dtype=np.float32))
            elif f.kind == FeatureKind.MULTI_CATEGORICAL:
                sets = [s.values.get(f.name) or () for s in snapshots]
                blocks.append(self.encode_categorical(f.name, sets).reshape(b, 1, self.d))
                mask_cols.append(np.ones((b, 1), dtype=np.float32))
            elif f.kind == FeatureKind.EMBEDDING:
                vecs = np.zeros((b, f.dim), dtype=np.float32)
                miss = np.zeros(b, dtype=np.float32)
                for i, s in enumerate(snapshots):
                    v = s.values.get(f.name)
                    if v is None:
                        miss[i] = 1.0
                    else:
                        vecs[i] = v
                tok = self.encode_embedding_feature(f.dim, vecs)
                blocks.append(self._blend_missing(tok, f.name, miss).reshape(b, 1, self.d))
                mask_cols.append(np.ones((b, 1), dtype=np.float32))
            else:  # multi-embedding: max_count slots, padded and masked
                slots = f.max_count
                vecs = np.zeros((b, slots, f.dim), dtype=np.float32)
                present = np.zeros((b, slots), dtype=np.float32)
                for i, s in enumerate(snapshots):
                    assets = s.values.get(f.name) or []
                    assets = select_top_k_assets(
                        assets, slots, criterion=self.asset_criterion, seed=self.asset_seed
                    )
                    for j, a in enumerate(assets):
                        vecs[i, j] = a.vector
                        present[i, j] = 1.0
                proj = self.encode_embedding_feature(f.dim, vecs.reshape(b * slots, f.dim))
                proj = proj.reshape(b, slots, self.d)
                p = Tensor(present.reshape(b, slots, 1))
                pad = self.pads[f.name].reshape(1, 1, self.d)
                blocks.append(proj * p + pad * (1.0 - p))
                mask_cols.append(present)
        parts, start = [], 0
        for is_numeric, run in groupby(blocks, key=lambda blk: blk is None):
            run = list(run)
            if is_numeric:  # one slice of `num` per run of consecutive numeric tokens
                stop = start + len(run)
                parts.append(num if len(run) == len(numeric) else num[:, start:stop])
                start = stop
            else:
                parts.extend(run)
        x = concat(parts, axis=1)
        mask = np.concatenate(mask_cols, axis=1)
        return x, mask
