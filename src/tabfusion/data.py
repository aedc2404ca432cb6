"""Feature schema, snapshot records, dataset IO, splitting, and asset selection.

Dataset layout: a JSON schema file, a delimited text file for scalar values,
and (when embedding features are present) a binary sidecar of little-endian
float32 values referenced by element offset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field, replace
from itertools import islice, repeat
from operator import methodcaller
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureKind",
    "FeatureSpec",
    "FeatureSchema",
    "Asset",
    "Snapshot",
    "TaskSpec",
    "DatasetSplit",
    "DataError",
    "load_dataset",
    "save_dataset",
    "normalize_split",
    "select_top_k_assets",
    "make_folds",
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


def _is_int(v) -> bool:
    """An integer, numpy's included; a bool (JSON `true`) is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        for key in ("vocab_size", "dim", "max_count"):
            if not _is_int(getattr(self, key)):
                raise DataError(f"{key} must be an integer, not {getattr(self, key)!r}", feature=self.name)
        if self.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL) and self.vocab_size < 1:
            raise DataError("vocab_size must be >= 1", feature=self.name)
        if self.kind in (FeatureKind.EMBEDDING, FeatureKind.MULTI_EMBEDDING) and self.dim < 1:
            raise DataError("dim must be >= 1", feature=self.name)
        if self.kind == FeatureKind.MULTI_EMBEDDING and self.max_count < 1:
            raise DataError("max_count must be >= 1", feature=self.name)
        # a token's position indexes the embedding table, which has vocab_size rows
        vocab = self.vocab
        if vocab is not None and not (
            isinstance(vocab, list) and all(isinstance(t, str) for t in vocab) and len(vocab) <= self.vocab_size
        ):
            raise DataError(f"vocab must be a list of at most vocab_size {self.vocab_size} strings", feature=self.name)
        # every token must read back from its CSV cell
        if vocab is not None and "" in vocab:
            raise DataError("vocab holds an empty token, which a CSV cell reads back as missing", feature=self.name)
        if vocab is not None and self.kind == FeatureKind.MULTI_CATEGORICAL:
            bad = next((t for t in vocab if "|" in t), None)
            if bad is not None:
                raise DataError(f"vocab token {bad!r} holds '|', which separates a tag set's tokens",
                                feature=self.name)
        norm = self.normalization
        if norm is not None and not (
            isinstance(norm, dict) and norm.keys() == {"mean", "std"}
            and all((_is_int(v) or isinstance(v, float)) and math.isfinite(v) for v in norm.values())
            and norm["std"] > 0
        ):
            raise DataError(f'normalization must be {{"mean": m, "std": s}}, finite with s > 0, not {norm!r}',
                            feature=self.name)


@dataclass
class TaskSpec:
    """A labelled task: its label column is `label:<name>`, its labels are
    integers in [0, classes), and fine-tuning weighs it by a focal loss
    with focusing parameter `gamma`. A schema file stores only `name` and
    `classes`; a run sets `gamma` from its config."""

    name: str
    classes: int = 2
    gamma: float = 2.0

    def __post_init__(self):
        if not _is_int(self.classes) or self.classes < 2:
            raise DataError(f"task '{self.name}' needs an integer classes >= 2, not {self.classes!r}")
        if self.gamma < 0:
            raise DataError(f"task '{self.name}' has gamma {self.gamma}; gamma must be >= 0")


# kept only because bench/workloads.py imports this name
TaskSpecLite = TaskSpec


@dataclass
class FeatureSchema:
    features: list
    tasks: list = field(default_factory=list)

    def __post_init__(self):
        for what, names in (("feature", [f.name for f in self.features]), ("task", [t.name for t in self.tasks])):
            if len(names) != len(set(names)):
                raise DataError(f"duplicate {what} names in schema")
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

    def copy(self) -> "FeatureSchema":
        """New feature records with their own normalization dicts, so one
        copy's fitted normalization leaves the other as it was; the task
        records, gamma included, are kept as they are."""
        feats = [replace(f, normalization=None if f.normalization is None else dict(f.normalization))
                 for f in self.features]
        return FeatureSchema(feats, list(self.tasks))

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
        """The schema of `to_dict`'s record, a schema file's content: a
        `features` list of FeatureSpec fields and an optional `tasks` list
        of `name` and `classes`. A record of any other shape raises DataError."""
        if not (isinstance(d, dict) and isinstance(d.get("features"), list) and isinstance(d.get("tasks", []), list)
                and d.keys() <= {"features", "tasks"}):
            raise DataError("a schema is a JSON object with a 'features' list and an optional 'tasks' list")
        feats = [FeatureSpec(**_record(f, FeatureSpec, "feature")) for f in d["features"]]
        tasks = [TaskSpec(**_record(t, TaskSpec, "task", keys=("name", "classes"))) for t in d.get("tasks", [])]
        return FeatureSchema(feats, tasks)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @staticmethod
    def load(path) -> "FeatureSchema":
        try:
            d = json.loads(Path(path).read_text())
        except ValueError as e:  # invalid JSON or UTF-8
            raise DataError(f"schema file {path} is not valid JSON: {e}") from None
        return FeatureSchema.from_dict(d)


def _record(d, cls, what: str, keys=None) -> dict:
    """`d`, one schema-file object for `cls`, once it is known to hold every
    field of `cls` without a default and no key outside `keys` (by default
    the fields of `cls`)."""
    if not isinstance(d, dict):
        raise DataError(f"a {what} is a JSON object, not {d!r}")
    fields = cls.__dataclass_fields__
    keys = list(keys or fields)
    missing = [k for k, f in fields.items() if f.default is MISSING and k not in d]
    unknown = sorted(d.keys() - set(keys))
    if missing or unknown:
        problem = f"lacks {missing}" if missing else f"has unknown keys {unknown}"
        raise DataError(f"{what} {d.get('name', '')!r} {problem}; its keys are {keys}")
    return d


@dataclass(slots=True)
class Asset:
    vector: np.ndarray
    timestamp: float = 0.0
    engagement: float = 0.0


@dataclass(slots=True)
class Snapshot:
    """One example: feature values keyed by schema name plus optional labels.

    Numeric values are floats or None (missing). Categorical values are int
    indices or None. Multi-categorical values are sorted tuples of indices.
    Embedding values are float arrays or None. Multi-embedding values are
    lists of Asset.
    """

    values: dict
    labels: dict = field(default_factory=dict)


# ---- IO -------------------------------------------------------------------


# Rows read and converted at a time: bounds the raw text held in memory.
LOAD_CHUNK_ROWS = 256


def load_dataset(data_path, schema, embeddings_path=None):
    """Load (schema, snapshots) with z-score-normalized numerics.

    `schema` is a schema file or a FeatureSchema, such as a loaded model's;
    a copy of it is returned. Missing values are kept as explicit None/empty
    markers, never imputed. Normalization parameters come from the schema
    when present, otherwise they are computed from the data and written
    into the returned schema. Label cells are integers, in `[0, classes)`
    for a task the schema declares. Malformed content, a non-finite numeric
    cell or referenced sidecar vector included, raises DataError naming the
    first bad row and its feature or `label:<task>` column; so does a header
    that names a column twice. A sidecar whose length is not a multiple of
    4 bytes raises DataError naming the file.

    The file is read LOAD_CHUNK_ROWS rows at a time and converted one column
    at a time; each chunk's embedding vectors are rows of one array gathered
    from the sidecar per feature.
    """
    schema = schema if isinstance(schema, FeatureSchema) else FeatureSchema.load(schema)
    schema = schema.copy()  # normalization is filled in below
    sidecar = None
    if embeddings_path is not None:
        size = Path(embeddings_path).stat().st_size
        if size % 4:  # np.fromfile would drop the trailing bytes
            raise DataError(f"embeddings sidecar {embeddings_path} holds {size} bytes, not whole float32 values")
        sidecar = np.fromfile(embeddings_path, dtype="<f4")

    with Path(data_path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return schema, []
        _check_header(header)
        label_cols = {col[len("label:") :]: i for i, col in enumerate(header) if col.startswith("label:")}
        col_of = {col: i for i, col in enumerate(header) if not col.startswith("label:")}
        for f in schema:
            if f.name not in col_of:
                raise DataError("feature missing from data header", feature=f.name)
        classes = {t.name: t.classes for t in schema.tasks}
        # (header index, column name, converter, converted values)
        columns = [(col_of[f.name], f.name, _column_converter(f, sidecar), []) for f in schema]
        columns += [(i, f"label:{task}", _label_converter(classes.get(task)), []) for task, i in label_cols.items()]
        first = 2  # file row of the chunk's first row, the header being row 1
        while rows := list(islice(reader, LOAD_CHUNK_ROWS)):
            if set(map(len, rows)) != {len(header)}:
                bad = next(i for i, row in enumerate(rows) if len(row) != len(header))
                _convert_chunk(columns, rows[:bad], first)  # a bad cell above it comes first
                raise DataError(f"expected {len(header)} cells, got {len(rows[bad])}", row=first + bad)
            _convert_chunk(columns, rows, first)
            first += len(rows)

    for f, (_, _, _, values) in zip(schema, columns):
        if f.kind == FeatureKind.NUMERIC:
            values[:] = _normalize(f, values)
    names = [f.name for f in schema]
    tasks = list(label_cols)
    n_rows = first - 2
    table = zip(*(values for _, _, _, values in columns)) if columns else repeat((), n_rows)
    snapshots = [Snapshot(dict(zip(names, row)), dict(zip(tasks, row[len(names) :]))) for row in table]
    return schema, snapshots


def _check_header(names) -> None:
    """DataError naming the first column a CSV header names twice: a reader
    keyed on names would keep the last copy alone."""
    seen = set()
    for name in names:
        if name in seen:
            raise DataError("the header names this column twice", feature=name)
        seen.add(name)


def _convert_chunk(columns, rows, first):
    """Convert each column of `rows` onto its values. On bad cells raise the
    DataError of the first bad row, the feature first in schema order (then
    the labels) breaking ties."""
    if not rows:
        return
    cells = list(zip(*rows))
    errors = []
    for i, name, convert, values in columns:
        try:
            values.extend(_convert(convert, cells[i], first, name))
        except DataError as e:
            errors.append(e)
    if errors:
        raise min(errors, key=lambda e: e.row)


def _convert(convert, cells, first, name):
    """`convert(cells)`; when it fails, a DataError naming the first cell that
    fails on its own."""
    try:
        return convert(cells)
    except (ValueError, KeyError):
        for i, cell in enumerate(cells):
            try:
                convert((cell,))
            except KeyError as e:
                raise DataError(f"token {e.args[0]!r} not in vocabulary", row=first + i, feature=name) from None
            except ValueError as e:
                raise DataError(str(e), row=first + i, feature=name) from None
        raise


def _spread(cells, values):
    """`values`, one per non-empty cell, with None at the empty cells."""
    if len(values) == len(cells):
        return values
    it = iter(values)
    return [next(it) if cell else None for cell in cells]


def _in_range(values, stop, what):
    """`values` when each lies in [0, stop) or `stop` is None; ValueError otherwise."""
    if values and stop is not None:
        lo, hi = min(values), max(values)
        if lo < 0 or hi >= stop:
            raise ValueError(f"{what} {lo if lo < 0 else hi} outside [0, {stop})")
    return values


def _first_positions(vocab: list) -> dict:
    """Each token of `vocab` and its first position: the index a cell
    holding that token reads back as."""
    position = {}
    for i, token in enumerate(vocab):
        position.setdefault(token, i)
    return position


def _column_converter(f: FeatureSpec, sidecar):
    """A function from one column of `f`'s cells to their values.

    Numerics are floats, categoricals int indices (or vocabulary positions,
    the first for a repeated token), multi-categoricals sorted index tuples,
    embeddings sidecar vectors and multi-embeddings lists of Asset built from
    `offset[:timestamp[:engagement]]` parts joined by `;`. An empty cell is
    None, () or [] by kind. A non-finite numeric, asset timestamp or
    engagement, or sidecar value fails.
    """
    if f.kind == FeatureKind.NUMERIC:
        return lambda cells: _spread(cells, _finite(list(map(float, filter(None, cells)))))
    if f.kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL):
        if f.vocab is not None:
            position = _first_positions(f.vocab)

            def index(tokens):
                return list(map(position.__getitem__, tokens))
        else:

            def index(tokens):
                return _in_range(list(map(int, tokens)), f.vocab_size, "vocabulary index")

        if f.kind == FeatureKind.CATEGORICAL:
            return lambda cells: _spread(cells, index(filter(None, cells)))

        def multi_categorical(cells):
            counts = [cell.count("|") + 1 if cell else 0 for cell in cells]
            it = iter(index(_split_column(cells, "|")))
            return [tuple(sorted(islice(it, n))) for n in counts]

        return multi_categorical
    if f.kind == FeatureKind.EMBEDDING:
        return lambda cells: _spread(cells, _gather(sidecar, f, list(map(int, filter(None, cells)))))

    def multi_embedding(cells):
        counts = [cell.count(";") + 1 if cell else 0 for cell in cells]
        parts = _split_column(cells, ";")
        assets = []
        if parts:
            colons = list(map(methodcaller("count", ":"), parts))
            if max(colons) > 2:
                raise ValueError(f"asset with {max(colons) + 1} fields; the format is offset:timestamp:engagement")
            if min(colons) < 2:  # an omitted timestamp or engagement is 0
                parts = [part + ":0" * (2 - n) for part, n in zip(parts, colons)]
            fields = ":".join(parts).split(":")
            vectors = _gather(sidecar, f, list(map(int, fields[0::3])))
            timestamps = _finite(list(map(float, fields[1::3])))
            engagements = _finite(list(map(float, fields[2::3])))
            assets = list(map(Asset, vectors, timestamps, engagements))
        it = iter(assets)
        return [list(islice(it, n)) for n in counts]

    return multi_embedding


def _split_column(cells, sep):
    """The `sep`-separated items of every non-empty cell, in order, from one split."""
    joined = sep.join(filter(None, cells))
    return joined.split(sep) if joined else []


def _gather(sidecar, f: FeatureSpec, offsets):
    """The sidecar vectors at `offsets`: rows of one freshly gathered array."""
    if not offsets:
        return []
    if sidecar is None:
        raise ValueError("embedding feature but no embeddings sidecar supplied")
    _in_range(offsets, sidecar.size - f.dim + 1, "sidecar offset")
    vectors = sidecar[np.array(offsets, dtype=np.int64)[:, None] + np.arange(f.dim)]
    if not np.isfinite(vectors).all():
        raise ValueError("non-finite value in the sidecar vector")
    return list(vectors)


def _finite(values):
    """`values`, a list of floats, when each is finite; ValueError otherwise.
    Their sum, one pass in C, is finite unless a value is not or the sum
    overflows; only then are the values looked at one by one."""
    if not math.isfinite(sum(values)):
        bad = next((v for v in values if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"non-finite value {bad}")
    return values


def _label_converter(classes):
    """A function from one label column to int labels, in [0, classes) unless
    `classes` is None (a task the schema does not declare); an empty cell
    means unlabeled."""
    return lambda cells: _spread(cells, _in_range(list(map(int, filter(None, cells))), classes, "label"))


def _normalize(f: FeatureSpec, column):
    """`column` z-scored by `f.normalization`, which is fitted on the column's
    observed values when unset; None stays None."""
    values = np.array(column, dtype=object)
    seen = np.not_equal(values, None)
    obs = values[seen].astype(np.float64)
    if f.normalization is None:
        mean = float(np.mean(obs)) if obs.size else 0.0
        std = float(np.std(obs)) if obs.size else 1.0
        f.normalization = {"mean": mean, "std": std if std > 1e-12 else 1.0}
    values[seen] = (obs - f.normalization["mean"]) / f.normalization["std"]
    return values.tolist()


def normalize_split(schema, fit, *rest):
    """A schema copy whose unset numeric normalization is fitted on the
    snapshots `fit`, then copies of `fit` and of each of `rest` with numerics
    z-scored by it: held-out rows never shape the statistics."""
    schema = schema.copy()
    out = [schema]
    for rows in (fit, *rest):
        copies = [Snapshot(dict(s.values), dict(s.labels)) for s in rows]
        for f in schema.of_kind(FeatureKind.NUMERIC):
            for snap, v in zip(copies, _normalize(f, [s.values[f.name] for s in rows])):
                snap.values[f.name] = v
        out.append(copies)
    return out


def save_dataset(snapshots, schema, data_path, embeddings_path=None):
    """Inverse of load_dataset for round-tripping (numerics stay normalized:
    the written schema carries identity normalization). A value
    load_dataset would refuse or read back as another, raises DataError
    naming the snapshot's index and the feature (or `label:<task>`) before
    anything is written: a non-finite numeric or embedding value or asset
    timestamp or engagement, a categorical or tag index that is not an
    integer in [0, vocab_size) (or [0, len(vocab)) with a vocab), an
    embedding or asset vector that is not `dim` values, an index past
    its token's first position in a vocab that repeats the token, and a
    label that is not an integer in [0, classes)."""
    emb_values = []
    firsts = {f.name: _first_positions(f.vocab) for f in schema if f.vocab is not None}

    def sidecar_offset(f: FeatureSpec, vec):
        vec = np.asarray(vec, dtype="<f4")
        if vec.shape != (f.dim,):
            raise ValueError(f"vector of shape {vec.shape}; the feature's vectors are ({f.dim},)")
        values = _finite(vec.tolist())
        off = len(emb_values)
        emb_values.extend(values)
        return off

    def token(f: FeatureSpec, v) -> str:
        stop = f.vocab_size if f.vocab is None else len(f.vocab)
        if not (_is_int(v) and 0 <= v < stop):
            raise ValueError(f"vocabulary index {v!r} outside [0, {stop})")
        if f.vocab is None:
            return str(v)
        tok = f.vocab[v]
        first = firsts[f.name][tok]
        if first != v:
            raise ValueError(f"vocabulary index {v} holds token {tok!r}, which reads back as its first "
                             f"position {first}")
        return tok

    def cell(f: FeatureSpec, v) -> str:
        if f.kind == FeatureKind.NUMERIC:
            return "" if v is None else repr(_finite([float(v)])[0])
        if f.kind == FeatureKind.CATEGORICAL:
            return "" if v is None else token(f, v)
        if f.kind == FeatureKind.MULTI_CATEGORICAL:
            return "|".join(token(f, i) for i in v)
        if f.kind == FeatureKind.EMBEDDING:
            return "" if v is None else str(sidecar_offset(f, v))
        parts = []
        for a in v or []:
            _finite([float(a.timestamp), float(a.engagement)])
            parts.append(f"{sidecar_offset(f, a.vector)}:{a.timestamp}:{a.engagement}")
        return ";".join(parts)

    rows = []
    for i, snap in enumerate(snapshots):
        row = []
        for f in schema:
            try:
                row.append(cell(f, snap.values.get(f.name)))
            except ValueError as e:
                raise DataError(f"{e} in snapshot {i}", feature=f.name) from None
        for t in schema.tasks:
            lab = snap.labels.get(t.name)
            if lab is not None and not (_is_int(lab) and 0 <= lab < t.classes):
                raise DataError(f"label {lab!r} outside [0, {t.classes}) in snapshot {i}", feature=f"label:{t.name}")
            row.append("" if lab is None else str(lab))
        rows.append(row)

    out_schema = schema.copy()
    for f in out_schema.of_kind(FeatureKind.NUMERIC):
        f.normalization = {"mean": 0.0, "std": 1.0}
    header = [f.name for f in schema] + [f"label:{t.name}" for t in schema.tasks]
    with Path(data_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if embeddings_path is not None:
        np.asarray(emb_values, dtype="<f4").tofile(embeddings_path)
    return out_schema


# ---- asset selection ------------------------------------------------------

TOPK_CRITERIA = ("recency", "engagement", "centroid_outlier", "random")


def select_top_k_assets(assets, k: int, criterion: str, seed: int):
    """Pick at most k representative assets, deterministically.

    recency/engagement sort descending by the metadata field;
    centroid_outlier keeps ceil(k/2) nearest-to-centroid and floor(k/2)
    farthest; random uses the seed. Each sort is stable, so ties keep
    input order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if criterion not in TOPK_CRITERIA:
        raise ValueError(f"unknown criterion '{criterion}'")
    assets = list(assets)
    if len(assets) <= k:
        return assets

    idx = list(range(len(assets)))
    if criterion == "recency":
        idx.sort(key=lambda i: -assets[i].timestamp)
    elif criterion == "engagement":
        idx.sort(key=lambda i: -assets[i].engagement)
    elif criterion == "random":
        rng = np.random.default_rng(seed)
        idx = list(rng.permutation(len(assets)))
    else:  # centroid_outlier
        vecs = np.stack([np.asarray(a.vector, dtype=np.float64) for a in assets])
        centroid = vecs.mean(axis=0)
        dist = np.linalg.norm(vecs - centroid, axis=1)
        near = sorted(range(len(assets)), key=lambda i: dist[i])
        far = sorted(range(len(assets)), key=lambda i: -dist[i])
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
    """Fold assignments for k-fold CV."""

    folds: list  # list of np.ndarray index arrays, a partition of range(n)

    def fold_split(self, fold: int):
        """(train_idx, test_idx) for one CV fold."""
        test = self.folds[fold]
        train = np.concatenate([f for i, f in enumerate(self.folds) if i != fold])
        return np.sort(train), np.sort(test)


def make_folds(n: int, k: int, seed: int, labels=None) -> DatasetSplit:
    """k folds of sizes differing by at most 1, stratified when labels given.
    Fewer than k examples raise DataError."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise DataError(f"cannot make {k} folds from {n} examples")
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
    return DatasetSplit([np.sort(np.array(f, dtype=np.int64)) for f in folds])

