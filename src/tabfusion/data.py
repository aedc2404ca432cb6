"""Feature schema, snapshot records, dataset IO, splitting, and asset selection.

Dataset layout: a JSON schema file, a delimited text file for scalar values,
and (when embedding features are present) a binary sidecar of little-endian
float32 values referenced by element offset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureKind",
    "FeatureSpec",
    "FeatureSchema",
    "Asset",
    "Snapshot",
    "DatasetSplit",
    "DataError",
    "load_dataset",
    "save_dataset",
    "select_top_k_assets",
    "make_folds",
    "chronological_split",
]


class DataError(ValueError):
    """Malformed dataset content; carries row number and feature name."""

    def __init__(self, message: str, row: int | None = None, feature: str | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if feature is not None:
            loc.append(f"feature '{feature}'")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.row = row
        self.feature = feature


class FeatureKind:
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    MULTI_CATEGORICAL = "multi_categorical"
    EMBEDDING = "embedding"
    MULTI_EMBEDDING = "multi_embedding"

    ALL = (NUMERIC, CATEGORICAL, MULTI_CATEGORICAL, EMBEDDING, MULTI_EMBEDDING)


@dataclass
class FeatureSpec:
    name: str
    kind: str
    vocab_size: int = 0
    dim: int = 0
    max_count: int = 0
    vocab: list | None = None  # optional string tokens -> index mapping
    normalization: dict | None = None  # {"mean": m, "std": s} for numerics

    def __post_init__(self):
        if self.kind not in FeatureKind.ALL:
            raise DataError(f"unknown feature kind '{self.kind}'", feature=self.name)
        if self.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL) and self.vocab_size < 1:
            raise DataError("vocab_size must be >= 1", feature=self.name)
        if self.kind in (FeatureKind.EMBEDDING, FeatureKind.MULTI_EMBEDDING) and self.dim < 1:
            raise DataError("dim must be >= 1", feature=self.name)
        if self.kind == FeatureKind.MULTI_EMBEDDING and self.max_count < 1:
            raise DataError("max_count must be >= 1", feature=self.name)

    def token_index(self, token: str, row: int | None = None) -> int:
        if self.vocab is not None:
            try:
                return self.vocab.index(token)
            except ValueError:
                raise DataError(f"token '{token}' not in vocabulary", row=row, feature=self.name) from None
        try:
            idx = int(token)
        except ValueError:
            raise DataError(f"expected integer index, got '{token}'", row=row, feature=self.name) from None
        if not 0 <= idx < self.vocab_size:
            raise DataError(f"index {idx} outside vocabulary of size {self.vocab_size}", row=row, feature=self.name)
        return idx


@dataclass
class TaskSpecLite:
    name: str
    classes: int = 2


@dataclass
class FeatureSchema:
    features: list
    tasks: list = field(default_factory=list)

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            raise DataError("duplicate feature names in schema")
        self._by_name = {f.name: f for f in self.features}

    def __iter__(self):
        return iter(self.features)

    def __len__(self):
        return len(self.features)

    def get(self, name: str) -> FeatureSpec:
        return self._by_name[name]

    def of_kind(self, kind: str) -> list:
        return [f for f in self.features if f.kind == kind]

    def token_count(self) -> int:
        """Number of transformer tokens one snapshot produces."""
        n = 0
        for f in self.features:
            n += f.max_count if f.kind == FeatureKind.MULTI_EMBEDDING else 1
        return n

    def token_slots(self):
        """(feature, start, count) token ranges in assembly order."""
        slots = []
        pos = 0
        for f in self.features:
            count = f.max_count if f.kind == FeatureKind.MULTI_EMBEDDING else 1
            slots.append((f, pos, count))
            pos += count
        return slots

    def to_dict(self) -> dict:
        return {
            "features": [
                {k: v for k, v in vars(f).items() if v not in (None, 0, [])}
                for f in self.features
            ],
            "tasks": [{"name": t.name, "classes": t.classes} for t in self.tasks],
        }

    @staticmethod
    def from_dict(d: dict) -> "FeatureSchema":
        feats = [FeatureSpec(**f) for f in d["features"]]
        tasks = [TaskSpecLite(**t) for t in d.get("tasks", [])]
        return FeatureSchema(feats, tasks)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @staticmethod
    def load(path) -> "FeatureSchema":
        return FeatureSchema.from_dict(json.loads(Path(path).read_text()))


@dataclass
class Asset:
    vector: np.ndarray
    timestamp: float = 0.0
    engagement: float = 0.0


@dataclass
class Snapshot:
    """One example: feature values keyed by schema name plus optional labels.

    Numeric values are floats or None (missing). Categorical values are int
    indices or None. Multi-categorical values are sorted tuples of indices.
    Embedding values are float arrays or None. Multi-embedding values are
    lists of Asset.
    """

    values: dict
    labels: dict = field(default_factory=dict)

    def validate(self, schema: FeatureSchema, row: int | None = None) -> None:
        for f in schema:
            v = self.values.get(f.name)
            if v is None and f.kind != FeatureKind.MULTI_EMBEDDING:
                continue
            if f.kind == FeatureKind.CATEGORICAL and not 0 <= v < f.vocab_size:
                raise DataError(f"index {v} outside vocabulary", row=row, feature=f.name)
            if f.kind == FeatureKind.MULTI_CATEGORICAL:
                for i in v:
                    if not 0 <= i < f.vocab_size:
                        raise DataError(f"index {i} outside vocabulary", row=row, feature=f.name)
            if f.kind == FeatureKind.EMBEDDING and len(v) != f.dim:
                raise DataError(f"embedding dim {len(v)} != {f.dim}", row=row, feature=f.name)
            if f.kind == FeatureKind.MULTI_EMBEDDING:
                for a in v or []:
                    if len(a.vector) != f.dim:
                        raise DataError(f"embedding dim {len(a.vector)} != {f.dim}", row=row, feature=f.name)


# ---- IO -------------------------------------------------------------------


def _parse_cell(cell: str, f: FeatureSpec, row: int, sidecar: np.ndarray | None):
    if cell == "":
        return [] if f.kind == FeatureKind.MULTI_EMBEDDING else (
            tuple() if f.kind == FeatureKind.MULTI_CATEGORICAL else None
        )
    if f.kind == FeatureKind.NUMERIC:
        try:
            return float(cell)
        except ValueError:
            raise DataError(f"bad numeric value '{cell}'", row=row, feature=f.name) from None
    if f.kind == FeatureKind.CATEGORICAL:
        return f.token_index(cell, row)
    if f.kind == FeatureKind.MULTI_CATEGORICAL:
        return tuple(sorted(f.token_index(tok, row) for tok in cell.split("|")))
    if f.kind == FeatureKind.EMBEDDING:
        off = int(cell)
        _check_sidecar(sidecar, off, f, row)
        return sidecar[off : off + f.dim].copy()
    # multi-embedding: "offset:timestamp:engagement;..."
    assets = []
    for part in cell.split(";"):
        bits = part.split(":")
        off = int(bits[0])
        _check_sidecar(sidecar, off, f, row)
        ts = float(bits[1]) if len(bits) > 1 else 0.0
        eng = float(bits[2]) if len(bits) > 2 else 0.0
        assets.append(Asset(sidecar[off : off + f.dim].copy(), ts, eng))
    return assets


def _check_sidecar(sidecar, off, f, row):
    if sidecar is None:
        raise DataError("embedding feature but no embeddings sidecar supplied", row=row, feature=f.name)
    if off < 0 or off + f.dim > sidecar.size:
        raise DataError(f"sidecar offset {off} out of range", row=row, feature=f.name)


def load_dataset(data_path, schema, embeddings_path=None):
    """Load (schema, snapshots) and z-score-normalize numerics in place.

    `schema` is a schema file or a FeatureSchema, such as a loaded model's;
    a copy of it is returned. Missing values are kept as explicit None/empty
    markers, never imputed. Normalization parameters come from the schema
    when present, otherwise they are computed from the data and written
    into the returned schema.
    """
    schema = schema if isinstance(schema, FeatureSchema) else FeatureSchema.load(schema)
    schema = FeatureSchema.from_dict(schema.to_dict())  # a copy: normalization is filled in below
    sidecar = None
    if embeddings_path is not None:
        sidecar = np.fromfile(embeddings_path, dtype="<f4")

    snapshots = []
    data_path = Path(data_path)
    with data_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return schema, []
        label_cols = {}
        col_of = {}
        for i, col in enumerate(header):
            if col.startswith("label:"):
                label_cols[col[len("label:") :]] = i
            else:
                col_of[col] = i
        for f in schema:
            if f.name not in col_of:
                raise DataError("feature missing from data header", feature=f.name)
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
            values = {f.name: _parse_cell(row[col_of[f.name]], f, row_no, sidecar) for f in schema}
            labels = {}
            for task, i in label_cols.items():
                labels[task] = int(row[i]) if row[i] != "" else None
            snapshots.append(Snapshot(values, labels))

    _normalize_numerics(schema, snapshots)
    return schema, snapshots


def _normalize_numerics(schema, snapshots):
    for f in schema.of_kind(FeatureKind.NUMERIC):
        if f.normalization is None:
            obs = [s.values[f.name] for s in snapshots if s.values[f.name] is not None]
            mean = float(np.mean(obs)) if obs else 0.0
            std = float(np.std(obs)) if obs else 1.0
            f.normalization = {"mean": mean, "std": std if std > 1e-12 else 1.0}
        m, s = f.normalization["mean"], f.normalization["std"]
        for snap in snapshots:
            v = snap.values[f.name]
            if v is not None:
                snap.values[f.name] = (v - m) / s


def save_dataset(snapshots, schema, data_path, embeddings_path=None):
    """Inverse of load_dataset for round-tripping (numerics stay normalized:
    the written schema carries identity normalization)."""
    emb_values = []

    def sidecar_offset(vec):
        off = len(emb_values)
        emb_values.extend(np.asarray(vec, dtype="<f4").tolist())
        return off

    out_schema = FeatureSchema.from_dict(schema.to_dict())
    for f in out_schema.of_kind(FeatureKind.NUMERIC):
        f.normalization = {"mean": 0.0, "std": 1.0}

    header = [f.name for f in schema] + [f"label:{t.name}" for t in schema.tasks]
    with Path(data_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for snap in snapshots:
            row = []
            for f in schema:
                v = snap.values.get(f.name)
                if f.kind == FeatureKind.NUMERIC:
                    row.append("" if v is None else repr(float(v)))
                elif f.kind == FeatureKind.CATEGORICAL:
                    if v is None:
                        row.append("")
                    else:
                        row.append(f.vocab[v] if f.vocab is not None else str(v))
                elif f.kind == FeatureKind.MULTI_CATEGORICAL:
                    row.append("|".join(str(i) for i in v))
                elif f.kind == FeatureKind.EMBEDDING:
                    row.append("" if v is None else str(sidecar_offset(v)))
                else:
                    row.append(
                        ";".join(
                            f"{sidecar_offset(a.vector)}:{a.timestamp}:{a.engagement}" for a in (v or [])
                        )
                    )
            for t in schema.tasks:
                lab = snap.labels.get(t.name)
                row.append("" if lab is None else str(lab))
            writer.writerow(row)
    if embeddings_path is not None:
        np.asarray(emb_values, dtype="<f4").tofile(embeddings_path)
    return out_schema


# ---- asset selection ------------------------------------------------------

TOPK_CRITERIA = ("recency", "engagement", "centroid_outlier", "random")


def select_top_k_assets(assets, k: int, criterion: str = "recency", seed: int | None = None):
    """Pick at most k representative assets, deterministically.

    recency/engagement sort descending by the metadata field;
    centroid_outlier keeps ceil(k/2) nearest-to-centroid and floor(k/2)
    farthest; random uses the seed. Ties break by stable input order then
    lexicographic vector comparison.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if criterion not in TOPK_CRITERIA:
        raise ValueError(f"unknown criterion '{criterion}'")
    assets = list(assets)
    if len(assets) <= k:
        return assets

    def tie_key(i):
        return (i, tuple(np.asarray(assets[i].vector).tolist()))

    idx = list(range(len(assets)))
    if criterion == "recency":
        idx.sort(key=lambda i: (-assets[i].timestamp,) + tie_key(i))
    elif criterion == "engagement":
        idx.sort(key=lambda i: (-assets[i].engagement,) + tie_key(i))
    elif criterion == "random":
        rng = np.random.default_rng(seed)
        idx = list(rng.permutation(len(assets)))
    else:  # centroid_outlier
        vecs = np.stack([np.asarray(a.vector, dtype=np.float64) for a in assets])
        centroid = vecs.mean(axis=0)
        dist = np.linalg.norm(vecs - centroid, axis=1)
        near = sorted(range(len(assets)), key=lambda i: (dist[i],) + tie_key(i))
        far = sorted(range(len(assets)), key=lambda i: (-dist[i],) + tie_key(i))
        n_near = math.ceil(k / 2)
        chosen = near[:n_near]
        taken = set(chosen)
        for i in far:
            if len(chosen) == k:
                break
            if i not in taken:
                chosen.append(i)
                taken.add(i)
        idx = chosen
    return [assets[i] for i in idx[:k]]


# ---- splitting ------------------------------------------------------------


@dataclass
class DatasetSplit:
    """Fold assignments for k-fold CV plus optional train/val/test index lists."""

    folds: list  # list of np.ndarray index arrays, a partition of range(n)
    seed: int
    train: np.ndarray | None = None
    validation: np.ndarray | None = None
    test: np.ndarray | None = None

    def fold_split(self, fold: int):
        """(train_idx, test_idx) for one CV fold."""
        test = self.folds[fold]
        train = np.concatenate([f for i, f in enumerate(self.folds) if i != fold])
        return np.sort(train), np.sort(test)


def make_folds(n: int, k: int, seed: int, labels=None) -> DatasetSplit:
    """k folds of sizes differing by at most 1, stratified when labels given."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} examples")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    if labels is None:
        order = rng.permutation(n)
        for pos, i in enumerate(order):
            folds[pos % k].append(i)
    else:
        labels = np.asarray(labels)
        slot = 0
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(len(members))]
            for i in members:
                folds[slot % k].append(int(i))
                slot += 1
    return DatasetSplit([np.sort(np.array(f, dtype=np.int64)) for f in folds], seed)


def chronological_split(timestamps, train_frac: float = 0.8, val_frac: float = 0.1) -> DatasetSplit:
    """Order by timestamp and cut into train < validation < test."""
    order = np.argsort(np.asarray(timestamps), kind="stable")
    n = len(order)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    return DatasetSplit(
        folds=[],
        seed=0,
        train=order[:n_train],
        validation=order[n_train : n_train + n_val],
        test=order[n_train + n_val :],
    )
