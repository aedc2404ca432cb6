import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_snapshots, small_schema
import tabfusion.data as tfd
from tabfusion.data import (
    Asset,
    DataError,
    FeatureKind,
    FeatureSchema,
    FeatureSpec,
    Snapshot,
    TaskSpec,
    load_dataset,
    make_folds,
    save_dataset,
    select_top_k_assets,
)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            FeatureSchema([FeatureSpec("x", "numeric"), FeatureSpec("x", "numeric")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            FeatureSpec("x", "ordinal")

    def test_token_count_expands_multi_embedding(self):
        schema = small_schema(with_assets=True)
        # 5 single-token features + a 2-slot multi-embedding feature
        assert schema.token_count() == 7
        slots = schema.token_slots()
        assert slots[-1][0].name == "creatives"
        assert slots[-1][1:] == (5, 2)

    def test_dict_round_trip(self):
        schema = small_schema()
        clone = FeatureSchema.from_dict(schema.to_dict())
        assert [f.name for f in clone] == [f.name for f in schema]
        assert clone.get("region").vocab_size == 4
        assert clone.tasks[0].name == "risk"


    def test_copy_keeps_task_gamma(self, tmp_path):
        """Regression: the loader, normalize_split and save_dataset copied the
        schema through its file record, which stores no gamma, so every task
        came back with gamma 2.0."""
        base = small_schema()
        schema = FeatureSchema(base.features, [TaskSpec("risk", 2, gamma=0.5)])
        snaps = random_snapshots(schema, 8, seed=1)
        saved = save_dataset(snaps, schema, tmp_path / "d.csv", tmp_path / "e.bin")
        loaded, _ = load_dataset(tmp_path / "d.csv", schema, tmp_path / "e.bin")
        split, _ = tfd.normalize_split(schema, snaps)
        for copy in (saved, loaded, split):
            assert copy.tasks == [TaskSpec("risk", 2, gamma=0.5)]
        assert saved.to_dict()["tasks"] == [{"name": "risk", "classes": 2}]

    def test_copy_has_its_own_feature_records(self):
        schema = small_schema()
        schema.get("age").normalization = {"mean": 1.0, "std": 2.0}
        clone = schema.copy()
        assert clone.to_dict() == schema.to_dict() and clone.tasks == schema.tasks
        clone.get("age").normalization["mean"] = 5.0
        clone.get("spend").normalization = {"mean": 0.0, "std": 1.0}
        assert schema.get("age").normalization == {"mean": 1.0, "std": 2.0}
        assert schema.get("spend").normalization is None

class TestIo:
    def test_round_trip(self, tmp_path):
        schema = small_schema()
        snaps = random_snapshots(schema, 12, seed=3, missing_rate=0.2)
        data = tmp_path / "data.csv"
        emb = tmp_path / "emb.bin"
        sch = tmp_path / "schema.json"
        out_schema = save_dataset(snaps, schema, data, emb)
        out_schema.save(sch)
        schema2, snaps2 = load_dataset(data, sch, emb)
        assert len(snaps2) == len(snaps)
        for a, b in zip(snaps, snaps2):
            assert a.labels == b.labels
            for f in schema:
                va, vb = a.values[f.name], b.values[f.name]
                if f.kind == "numeric":
                    assert (va is None) == (vb is None)
                    if va is not None:
                        assert abs(va - vb) < 1e-6
                elif f.kind in ("categorical", "multi_categorical"):
                    assert va == vb
                elif f.kind == "embedding":
                    assert (va is None) == (vb is None)
                    if va is not None:
                        np.testing.assert_allclose(va, vb, atol=1e-6)
                else:
                    assert len(va) == len(vb)
                    for x, y in zip(va, vb):
                        np.testing.assert_allclose(x.vector, y.vector, atol=1e-6)
                        assert x.timestamp == y.timestamp

    def test_normalization_written_back(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        (tmp_path / "d.csv").write_text("x\n1.0\n3.0\n")
        schema.save(tmp_path / "s.json")
        schema2, snaps = load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert schema2.get("x").normalization["mean"] == 2.0
        np.testing.assert_allclose([s.values["x"] for s in snaps], [-1.0, 1.0])

    def test_missing_numeric_stays_missing(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        (tmp_path / "d.csv").write_text("x,label:risk\n,1\n2.0,0\n")
        schema.save(tmp_path / "s.json")
        _, snaps = load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert snaps[0].values["x"] is None
        assert snaps[0].labels["risk"] == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("feature, bad", [
        ("age", math.nan),
        ("spend", -math.inf),
        ("page_vec", np.full(6, np.inf)),
        ("page_vec", np.full(6, 1e300)),  # saved as float32, so inf
        ("creatives", Asset(np.full(6, np.nan, np.float32), 1.0, 0.5)),
        ("creatives", Asset(np.ones(6, np.float32), math.inf, 0.5)),
        ("creatives", Asset(np.ones(6, np.float32), 1.0, math.nan)),
    ])
    def test_save_refuses_what_load_would_refuse_before_writing(self, tmp_path, feature, bad):
        """save_dataset wrote such a cell, and the file then failed to load."""
        schema = small_schema()
        snaps = random_snapshots(schema, 6, seed=1)
        if feature == "creatives":  # behind a good asset
            bad = [Asset(np.ones(6, np.float32), 2.0, 0.5), bad]
        snaps[4].values[feature] = bad
        with pytest.raises(DataError, match=rf"^non-finite value \S+ in snapshot 4 \(feature '{feature}'\)$"):
            save_dataset(snaps, schema, tmp_path / "d.csv", tmp_path / "e.bin")
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "e.bin").exists()

    def test_bad_numeric_reports_row_and_feature(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        (tmp_path / "d.csv").write_text("x\nok\n")
        schema.save(tmp_path / "s.json")
        with pytest.raises(DataError, match=r"row 2.*'x'"):
            load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_finite_numerics_whose_sum_overflows_load(self, tmp_path):
        # the loader screens a column by its sum before looking at each value
        schema = FeatureSchema([FeatureSpec("x", "numeric", normalization={"mean": 0.0, "std": 1.0})], [])
        (tmp_path / "d.csv").write_text("x\n1e308\n1e308\n-1e308\n")
        _, snaps = load_dataset(tmp_path / "d.csv", schema)
        assert [s.values["x"] for s in snaps] == [1e308, 1e308, -1e308]

    def test_out_of_vocab_index_rejected(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("c", "categorical", vocab_size=3)], [])
        (tmp_path / "d.csv").write_text("c\n7\n")
        schema.save(tmp_path / "s.json")
        with pytest.raises(DataError, match="vocabulary"):
            load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_string_vocab_lookup(self, tmp_path):
        schema = FeatureSchema(
            [FeatureSpec("c", "categorical", vocab_size=3, vocab=["a", "b", "c"])], []
        )
        (tmp_path / "d.csv").write_text("c\nb\n")
        schema.save(tmp_path / "s.json")
        _, snaps = load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert snaps[0].values["c"] == 1

    def test_missing_column_rejected(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("x", "numeric"), FeatureSpec("y", "numeric")], [])
        (tmp_path / "d.csv").write_text("x\n1.0\n")
        schema.save(tmp_path / "s.json")
        with pytest.raises(DataError, match="'y'"):
            load_dataset(tmp_path / "d.csv", tmp_path / "s.json")


def _canonical(v):
    """A value with its Python type: floats as hex, arrays with dtype and bytes."""
    if isinstance(v, np.ndarray):
        return ("ndarray", v.dtype.str, v.shape, v.tobytes().hex())
    if isinstance(v, Asset):
        return ("Asset", _canonical(v.vector), _canonical(v.timestamp), _canonical(v.engagement))
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, tuple(_canonical(x) for x in v))
    if isinstance(v, float):
        return (type(v).__name__, v.hex())
    return (type(v).__name__, v)


def load_digest(schema, snapshots) -> str:
    h = hashlib.sha256(json.dumps(schema.to_dict(), sort_keys=True).encode())
    for s in snapshots:
        for d in (s.values, s.labels):
            h.update(repr([(k, _canonical(v)) for k, v in d.items()]).encode())
    return h.hexdigest()


def test_loaded_dataset_digest(tmp_path):
    """Schema and snapshots loaded from a fixed dataset with all five kinds,
    missing cells, a string vocabulary with a repeated token and unlabeled
    rows, pinned by value and Python type: a faster loader must not move them."""
    schema = FeatureSchema([
        FeatureSpec("age", "numeric"),
        FeatureSpec("spend", "numeric"),
        FeatureSpec("region", "categorical", vocab_size=7),
        FeatureSpec("plan", "categorical", vocab_size=4, vocab=["basic", "pro", "basic", "team"]),
        FeatureSpec("tags", "multi_categorical", vocab_size=9),
        FeatureSpec("page_vec", "embedding", dim=5),
        FeatureSpec("creatives", "multi_embedding", dim=5, max_count=3),
    ], [TaskSpec("risk", 2), TaskSpec("tier", 3)])
    snaps = random_snapshots(schema, 2500, seed=11, missing_rate=0.15)
    for i, s in enumerate(snaps):
        s.labels["tier"] = None if i % 7 == 0 else i % 3
    save_dataset(snaps, schema, tmp_path / "d.csv", tmp_path / "e.f32")
    fitted, rows = load_dataset(tmp_path / "d.csv", schema, tmp_path / "e.f32")
    assert load_digest(fitted, rows) == DIGEST
    # the fitted statistics applied again give the same values
    assert load_digest(*load_dataset(tmp_path / "d.csv", fitted, tmp_path / "e.f32")) == DIGEST


DIGEST = "81f807d5368cd498d473efb3bebc1968a15c77ed36f5b87bf94f630c455406b2"


# ---- loader: round trip, memory, errors ------------------------------------

ASCII = st.characters(min_codepoint=32, max_codepoint=126)


@st.composite
def datasets(draw):
    """(schema, snapshots) over all five kinds with missing cells, string
    vocabularies (categorical and multi-categorical), empty asset lists and
    vectors drawn from a small pool. A multi-categorical token holds no "|",
    the separator of its cell. Numerics, asset timestamps and engagements
    and vectors are finite: the loader refuses a non-finite one
    (TestLoaderErrors)."""
    features = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(FeatureKind.ALL), min_size=1, max_size=6))):
        size = draw(st.integers(1, 4))
        vocab = None
        if kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL) and draw(st.booleans()):
            chars = ASCII.filter(lambda c: c != "|") if kind == FeatureKind.MULTI_CATEGORICAL else ASCII
            vocab = draw(st.lists(st.text(chars, min_size=1, max_size=3), min_size=size, max_size=size, unique=True))
        features.append(FeatureSpec(f"f{i}", kind, vocab_size=size, dim=size, max_count=size, vocab=vocab))
    tasks = [TaskSpec(f"t{i}", draw(st.integers(2, 4))) for i in range(draw(st.integers(0, 2)))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    vec = st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=4, max_size=4).map(lambda v: np.array(v, dtype=np.float32))
    pool = draw(st.lists(vec, min_size=1, max_size=3))  # a feature of dim d takes the first d entries
    snaps = []
    for _ in range(draw(st.integers(0, 8))):
        values = {}
        for f in features:
            if f.kind == FeatureKind.NUMERIC:
                values[f.name] = draw(st.none() | finite)
            elif f.kind == FeatureKind.CATEGORICAL:
                values[f.name] = draw(st.none() | st.integers(0, f.vocab_size - 1))
            elif f.kind == FeatureKind.MULTI_CATEGORICAL:
                values[f.name] = tuple(sorted(draw(st.sets(st.integers(0, f.vocab_size - 1)))))
            elif f.kind == FeatureKind.EMBEDDING:
                values[f.name] = None if draw(st.booleans()) else draw(st.sampled_from(pool))[: f.dim].copy()
            else:
                values[f.name] = [
                    Asset(draw(st.sampled_from(pool))[: f.dim].copy(), draw(st.just(0.0) | finite),
                          draw(st.just(0.0) | finite))
                    for _ in range(draw(st.integers(0, 3)))
                ]
        labels = {t.name: draw(st.none() | st.integers(0, t.classes - 1)) for t in tasks}
        snaps.append(Snapshot(values, labels))
    return FeatureSchema(features, tasks), snaps


def compact_assets(schema, data, emb):
    """Rewrite asset cells in the shorter forms the format allows: trailing
    zero engagement and timestamp left out, and one sidecar offset for
    equal vectors."""
    sidecar = np.fromfile(emb, dtype="<f4")
    with data.open(newline="") as fh:
        rows = list(csv.reader(fh))
    first_offset = {}
    for f in schema.of_kind(FeatureKind.MULTI_EMBEDDING):
        col = rows[0].index(f.name)
        for row in rows[1:]:
            parts = []
            for part in filter(None, row[col].split(";")):
                off, ts, eng = part.split(":")
                off = first_offset.setdefault((f.dim, sidecar[int(off) : int(off) + f.dim].tobytes()), off)
                bits = [off, ts, eng]
                while len(bits) > 1 and bits[-1] == "0.0":
                    bits.pop()
                parts.append(":".join(bits))
            row[col] = ";".join(parts)
    with data.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestLoader:
    @given(datasets(), st.booleans())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_keeps_values_and_types(self, tmp_path, dataset, compact):
        schema, snaps = dataset
        data, emb = tmp_path / "d.csv", tmp_path / "e.f32"
        saved = save_dataset(snaps, schema, data, emb)
        if compact:
            compact_assets(schema, data, emb)
        loaded_schema, loaded = load_dataset(data, saved, emb)
        assert loaded_schema.to_dict() == saved.to_dict()
        assert len(loaded) == len(snaps)
        for a, b in zip(snaps, loaded):
            assert [(k, _canonical(v)) for k, v in b.values.items()] == [
                (f.name, _canonical(a.values[f.name])) for f in schema
            ]
            assert b.labels == a.labels
            assert all(type(v) is type(a.labels[k]) for k, v in b.labels.items())

    def test_no_two_cells_share_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tfd, "LOAD_CHUNK_ROWS", 3)
        schema = FeatureSchema([FeatureSpec("v", "embedding", dim=2), FeatureSpec("a", "multi_embedding", dim=2, max_count=2)])
        (tmp_path / "d.csv").write_text("v,a\n" + "".join(f"{i % 3},0;{i % 2}:1;2\n" for i in range(8)))
        np.arange(8, dtype="<f4").tofile(tmp_path / "e.f32")
        _, snaps = load_dataset(tmp_path / "d.csv", schema, tmp_path / "e.f32")
        vectors = [v for s in snaps for v in [s.values["v"]] + [a.vector for a in s.values["a"]]]
        assert len(vectors) == 32
        for i, u in enumerate(vectors):
            assert not any(np.shares_memory(u, w) for w in vectors[i + 1 :])
        assert snaps[0].values["a"][1].vector.tolist() == [0.0, 1.0]

    def test_repeated_vocabulary_token_takes_its_first_index(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("c", "categorical", vocab_size=3, vocab=["a", "b", "a"])])
        (tmp_path / "d.csv").write_text("c\na\nb\n")
        _, snaps = load_dataset(tmp_path / "d.csv", schema)
        assert [s.values["c"] for s in snaps] == [0, 1]

    def test_multi_categorical_vocabulary_is_written_as_tokens(self, tmp_path):
        # the indices (0|2) used to be written, which the loader then looked
        # up as tokens: "token '0' not in vocabulary"
        schema = FeatureSchema([FeatureSpec("tags", "multi_categorical", vocab_size=3, vocab=["x", "y", "z"])])
        save_dataset([Snapshot({"tags": (0, 2)}), Snapshot({"tags": ()})], schema, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines() == ["tags", "x|z", '""']
        _, snaps = load_dataset(tmp_path / "d.csv", schema)
        assert [s.values["tags"] for s in snaps] == [(0, 2), ()]

    def test_asset_fields_default_to_zero(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("a", "multi_embedding", dim=1, max_count=3)])
        (tmp_path / "d.csv").write_text("a\n0;1:5;2:6:0.5\n")
        np.arange(3, dtype="<f4").tofile(tmp_path / "e.f32")
        _, snaps = load_dataset(tmp_path / "d.csv", schema, tmp_path / "e.f32")
        assert [(a.vector.tolist(), a.timestamp, a.engagement) for a in snaps[0].values["a"]] == [
            ([0.0], 0.0, 0.0), ([1.0], 5.0, 0.0), ([2.0], 6.0, 0.5),
        ]

    @pytest.mark.parametrize("label", ["-1", "2"])
    def test_label_outside_the_declared_classes_rejected(self, tmp_path, label):
        # -1 used to train as class 1; 2 (== classes) passed the loader and
        # crashed fine-tuning with an IndexError
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [TaskSpec("risk", 2)])
        (tmp_path / "d.csv").write_text(f"x,label:risk\n1.0,1\n2.0,{label}\n")
        with pytest.raises(DataError, match=r"label .* outside \[0, 2\)") as err:
            load_dataset(tmp_path / "d.csv", schema)
        assert (err.value.row, err.value.feature) == (3, "label:risk")

    def test_labels_of_an_undeclared_task_need_only_be_integers(self, tmp_path):
        schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
        (tmp_path / "d.csv").write_text("x,label:other\n1.0,7\n2.0,\n")
        _, snaps = load_dataset(tmp_path / "d.csv", schema)
        assert [s.labels for s in snaps] == [{"other": 7}, {"other": None}]


# every kind of malformed cell: (column, bad cell); the error names row 7
MALFORMED = {
    "bad numeric": ("x", "1.2.3"),
    "non-integer index": ("c", "1.5"),
    "index out of range": ("c", "3"),
    "negative index": ("tags", "0|-1"),
    "unknown token": ("s", "zz"),
    "bad offset": ("v", "abc"),
    "offset out of range": ("v", "9"),
    "bad asset offset": ("a", "zz:1:2"),
    "bad asset timestamp": ("a", "2:abc:2"),
    "bad asset engagement": ("a", "0:1:x"),
    "asset with four fields": ("a", "0:1:2:3"),
    "empty asset": ("a", "0:1:2;"),
    "non-integer label": ("label:risk", "yes"),
    "label out of range": ("label:risk", "2"),
    # float() accepts these, and the column used to normalize to all NaN
    "non-finite numeric": ("x", "nan"),
    "infinite numeric": ("x", "-inf"),
}


def malformed_dataset(tmp_path, *bad, sidecar=True):
    """A 12-row dataset, three chunks of 4 rows, with each (column, text) of
    `bad` on row 7 and a bad numeric below them on row 9."""
    schema = FeatureSchema(
        [
            FeatureSpec("x", "numeric"),
            FeatureSpec("c", "categorical", vocab_size=3),
            FeatureSpec("s", "categorical", vocab_size=2, vocab=["a", "b"]),
            FeatureSpec("tags", "multi_categorical", vocab_size=3),
            FeatureSpec("v", "embedding", dim=2),
            FeatureSpec("a", "multi_embedding", dim=2, max_count=2),
        ],
        [TaskSpec("risk", 2)],
    )
    header = ["x", "c", "s", "tags", "v", "a", "label:risk"]
    rows = [[f"{i}.5", str(i % 3), "ab"[i % 2], "0|2", str(i % 7), f"{i % 7}:1:0.5", str(i % 2)] for i in range(12)]
    rows[7][0] = "oops"  # row 9 of the file
    for col, text in bad:
        rows[5][header.index(col)] = text
    with (tmp_path / "d.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    np.arange(8, dtype="<f4").tofile(tmp_path / "e.f32")
    return tmp_path / "d.csv", schema, (tmp_path / "e.f32") if sidecar else None


class TestLoaderErrors:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(tfd, "LOAD_CHUNK_ROWS", 4)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_first_bad_cell_is_named(self, tmp_path, kind):
        column, _ = MALFORMED[kind]
        with pytest.raises(DataError) as err:
            load_dataset(*malformed_dataset(tmp_path, MALFORMED[kind]))
        assert (err.value.row, err.value.feature) == (7, column)

    def test_only_later_rows_bad_names_the_later_row(self, tmp_path):
        with pytest.raises(DataError, match="could not convert") as err:
            load_dataset(*malformed_dataset(tmp_path))
        assert (err.value.row, err.value.feature) == (9, "x")

    def test_wrong_cell_count_names_its_row(self, tmp_path):
        data, schema, emb = malformed_dataset(tmp_path)
        lines = data.read_text().splitlines()
        lines[6] += ",extra"
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="expected 7 cells, got 8") as err:
            load_dataset(data, schema, emb)
        assert (err.value.row, err.value.feature) == (7, None)

    def test_bad_cell_above_a_short_row_comes_first(self, tmp_path):
        data, schema, emb = malformed_dataset(tmp_path, ("label:risk", "9"))
        lines = data.read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(data, schema, emb)
        assert (err.value.row, err.value.feature) == (7, "label:risk")

    def test_in_one_row_the_first_feature_is_named(self, tmp_path):
        with pytest.raises(DataError, match="outside") as err:
            load_dataset(*malformed_dataset(tmp_path, ("label:risk", "x"), ("s", "zz"), ("c", "8")))
        assert (err.value.row, err.value.feature) == (7, "c")

    def test_missing_sidecar_names_the_first_embedding_cell(self, tmp_path):
        with pytest.raises(DataError, match="no embeddings sidecar") as err:
            load_dataset(*malformed_dataset(tmp_path, sidecar=False))
        assert (err.value.row, err.value.feature) == (2, "v")

    @pytest.mark.parametrize("column, cell", [("v", "8"), ("a", "0:1:2;8:1:0.5")])
    def test_non_finite_sidecar_vector_names_the_row_that_references_it(self, tmp_path, column, cell):
        # a NaN vector used to load, and training then failed naming a parameter
        data, schema, emb = malformed_dataset(tmp_path, (column, cell))
        sidecar = np.arange(10, dtype="<f4")
        sidecar[9] = np.nan
        sidecar.tofile(emb)
        with pytest.raises(DataError, match="non-finite") as err:
            load_dataset(data, schema, emb)
        assert (err.value.row, err.value.feature) == (7, column)

    @pytest.mark.parametrize("cell", ["0:nan:0;2:5:0;4:3:0;6:inf:0", "2:5:0;4:3:0;6:inf:0;0:nan:0", "0:1:0;2:3:-inf"])
    def test_non_finite_asset_timestamp_or_engagement_names_its_row(self, tmp_path, cell):
        # float() accepts these: the first two cells loaded, and the recency
        # pick of their assets then depended on the assets' order
        with pytest.raises(DataError, match="non-finite value") as err:
            load_dataset(*malformed_dataset(tmp_path, ("a", cell)))
        assert (err.value.row, err.value.feature) == (7, "a")

    def test_a_non_finite_sidecar_value_no_row_references_loads(self, tmp_path):
        data, schema, emb = malformed_dataset(tmp_path)
        data.write_text(data.read_text().replace("oops", "0.5"))
        sidecar = np.arange(10, dtype="<f4")
        sidecar[9] = np.inf
        sidecar.tofile(emb)
        _, snaps = load_dataset(data, schema, emb)
        assert len(snaps) == 12


def make_assets(vals):
    """vals: list of (first_component, timestamp, engagement)."""
    return [Asset(np.array([v, 0.0]), ts, eng) for v, ts, eng in vals]


class TestTopK:
    def test_fewer_than_k_passthrough(self):
        assets = make_assets([(1, 0, 0)])
        assert select_top_k_assets(assets, 3) == assets

    def test_recency(self):
        assets = make_assets([(1, 5, 0), (2, 9, 0), (3, 1, 0)])
        picked = select_top_k_assets(assets, 2, "recency")
        assert [a.timestamp for a in picked] == [9, 5]

    def test_engagement(self):
        assets = make_assets([(1, 0, 0.1), (2, 0, 0.9), (3, 0, 0.5)])
        picked = select_top_k_assets(assets, 2, "engagement")
        assert [a.engagement for a in picked] == [0.9, 0.5]

    def test_ties_break_by_input_order(self):
        assets = make_assets([(1, 7, 0), (2, 7, 0), (3, 7, 0)])
        picked = select_top_k_assets(assets, 2, "recency")
        assert [a.vector[0] for a in picked] == [1, 2]

    def test_centroid_outlier_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 10))
            assets = [Asset(rng.normal(size=3)) for _ in range(n)]
            k = int(rng.integers(2, n))
            picked = select_top_k_assets(assets, k, "centroid_outlier")
            vecs = np.stack([a.vector for a in assets])
            dist = np.linalg.norm(vecs - vecs.mean(axis=0), axis=1)
            order_near = np.argsort(dist, kind="stable")
            n_near = -(-k // 2)
            expect_near = set(order_near[:n_near].tolist())
            got = {id(a) for a in picked}
            assert {id(assets[i]) for i in expect_near} <= got
            # the rest are the farthest not already chosen
            remaining = [i for i in np.argsort(-dist, kind="stable") if i not in expect_near]
            expect = expect_near | set(remaining[: k - n_near])
            assert got == {id(assets[i]) for i in expect}

    @pytest.mark.parametrize("criterion", ["recency", "engagement", "centroid_outlier", "random"])
    def test_picks_match_the_vector_tie_break_it_replaced(self, criterion):
        # the sorts once broke ties by (index, vector); the index is unique,
        # so a stable sort on each criterion's own key picks the same assets
        def old_pick(assets, k):
            def tie_key(i):
                return (i, tuple(np.asarray(assets[i].vector).tolist()))

            idx = list(range(len(assets)))
            if criterion == "recency":
                idx.sort(key=lambda i: (-assets[i].timestamp,) + tie_key(i))
            elif criterion == "engagement":
                idx.sort(key=lambda i: (-assets[i].engagement,) + tie_key(i))
            elif criterion == "random":
                idx = list(np.random.default_rng(3).permutation(len(assets)))
            else:
                vecs = np.stack([np.asarray(a.vector, dtype=np.float64) for a in assets])
                dist = np.linalg.norm(vecs - vecs.mean(axis=0), axis=1)
                near = sorted(range(len(assets)), key=lambda i: (dist[i],) + tie_key(i))
                far = sorted(range(len(assets)), key=lambda i: (-dist[i],) + tie_key(i))
                idx = near[: -(-k // 2)]
                idx += [i for i in far if i not in idx][: k - len(idx)]
            return [assets[i] for i in idx[:k]]

        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            # few distinct values, so ties in every key are common
            assets = [Asset(rng.integers(0, 2, size=2).astype(np.float32), float(rng.integers(0, 3)),
                            float(rng.integers(0, 2))) for _ in range(n)]
            k = int(rng.integers(1, n))  # k >= n returns the list as it is
            got = select_top_k_assets(assets, k, criterion, seed=3)
            assert [id(a) for a in got] == [id(a) for a in old_pick(assets, k)]

    def test_random_deterministic_per_seed(self, rng):
        assets = [Asset(rng.normal(size=2)) for _ in range(8)]
        a = select_top_k_assets(assets, 3, "random", seed=5)
        b = select_top_k_assets(assets, 3, "random", seed=5)
        assert [id(x) for x in a] == [id(x) for x in b]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            select_top_k_assets([], 0)
        with pytest.raises(ValueError, match="criterion"):
            select_top_k_assets(make_assets([(1, 0, 0)] * 3), 2, "magic")


class TestFolds:
    def test_partition(self):
        split = make_folds(23, 5, seed=1)
        allidx = np.concatenate(split.folds)
        assert sorted(allidx.tolist()) == list(range(23))
        sizes = sorted(len(f) for f in split.folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_stratification(self, rng):
        labels = np.array([0] * 40 + [1] * 10)
        split = make_folds(50, 5, seed=2, labels=labels)
        for f in split.folds:
            pos = labels[f].sum()
            assert 1 <= pos <= 3

    def test_deterministic(self):
        a = make_folds(30, 5, seed=9)
        b = make_folds(30, 5, seed=9)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_fold_split_disjoint(self):
        split = make_folds(20, 4, seed=0)
        train, test = split.fold_split(2)
        assert set(train) & set(test) == set()
        assert len(train) + len(test) == 20

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            make_folds(3, 5, seed=0)

    @given(st.integers(10, 60), st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, k, seed):
        if n < k:
            return
        split = make_folds(n, k, seed)
        assert sorted(np.concatenate(split.folds).tolist()) == list(range(n))
