import numpy as np
import pytest

from conftest import fd_gradient_check, random_snapshots, small_schema
from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot
from tabfusion.encoder import FeatureEncoder
from tabfusion.tensor import Tensor


def numeric_encoder(d=8, rng=None):
    schema = FeatureSchema([FeatureSpec("x", "numeric")], [])
    return FeatureEncoder(schema, d, rng or np.random.default_rng(0), "recency", 0)


def first_tokens(enc, values, name):
    """Tokens [B, d] that assemble_tokens gives the first feature, `name`,
    for one row per value."""
    x, _ = enc.assemble_tokens([Snapshot({name: v}) for v in values])
    return x[:, 0]


class TestNumericEncoding:
    def test_zero_input_alternates_sin_cos(self):
        # sin(0)=0 and cos(0)=1 regardless of frequency, interleaved
        enc = numeric_encoder(d=8)
        tok = first_tokens(enc, [0.0], "x").data[0]
        np.testing.assert_allclose(tok, [0.0, 1.0] * 4, atol=1e-7)

    def test_half_at_unit_frequency(self):
        # x=0.5, f=1: sin(pi/2)=1, cos(pi/2)=0
        enc = numeric_encoder(d=4)
        enc.freqs["x"].data[...] = [1.0, 2.0]
        tok = first_tokens(enc, [0.5], "x").data[0]
        np.testing.assert_allclose(tok[:2], [1.0, 0.0], atol=1e-6)
        # f=2: sin(pi)=0, cos(pi)=-1
        np.testing.assert_allclose(tok[2:], [0.0, -1.0], atol=1e-6)

    def test_bounded_in_unit_interval(self, rng):
        enc = numeric_encoder(d=16, rng=rng)
        vals = rng.normal(scale=100.0, size=50)
        toks = first_tokens(enc, vals.tolist(), "x").data
        assert np.all(np.abs(toks) <= 1.0 + 1e-6)

    def test_missing_uses_learned_embedding(self):
        enc = numeric_encoder(d=6)
        tok = first_tokens(enc, [None], "x").data[0]
        np.testing.assert_allclose(tok, enc.missing["x"].data, atol=1e-7)

    def test_default_frequency_ladder(self):
        enc = numeric_encoder(d=8)
        f = enc.freqs["x"].data
        assert abs(f[0] - 0.1) < 1e-6 and abs(f[-1] - 10.0) < 1e-5
        ratios = f[1:] / f[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-4)

    def test_gradient_flows_to_frequencies(self, rng):
        enc = numeric_encoder(d=4, rng=rng)
        enc.freqs["x"] = Tensor(np.array([0.5, 2.0]), requires_grad=True)
        enc.missing["x"] = Tensor(rng.standard_normal(4), requires_grad=True)

        def build():
            return (first_tokens(enc, [0.3, None], "x") ** 2.0).sum()

        assert fd_gradient_check(build, [enc.freqs["x"], enc.missing["x"]]) < 1e-4


class TestCategoricalEncoding:
    def make(self, vocab=5, d=6):
        schema = FeatureSchema([FeatureSpec("c", "multi_categorical", vocab_size=vocab)], [])
        return FeatureEncoder(schema, d, np.random.default_rng(1), "recency", 0)

    def test_singleton_is_table_row(self):
        enc = self.make()
        tok = first_tokens(enc, [(2,)], "c").data[0]
        np.testing.assert_allclose(tok, enc.tables["c"].data[2], atol=1e-7)

    def test_set_encoding_is_additive(self):
        enc = self.make()
        ab, a, b = first_tokens(enc, [(0, 3), (0,), (3,)], "c").data
        np.testing.assert_allclose(ab, a + b, atol=1e-6)

    def test_order_invariant(self):
        enc = self.make()
        x, y = first_tokens(enc, [(1, 4, 2), (4, 2, 1)], "c").data
        np.testing.assert_allclose(x, y, atol=1e-7)

    def test_empty_set_is_zero(self):
        enc = self.make()
        tok = first_tokens(enc, [()], "c").data[0]
        np.testing.assert_allclose(tok, np.zeros(6), atol=1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            first_tokens(self.make(), [(9,)], "c")

    def test_gradient_flows_to_table(self, rng):
        enc = self.make()
        enc.tables["c"] = Tensor(rng.standard_normal((5, 6)), requires_grad=True)

        def build():
            return (first_tokens(enc, [(0, 2), (4,)], "c") ** 2.0).sum()

        assert fd_gradient_check(build, [enc.tables["c"]]) < 1e-4


class TestInputs:
    def test_arrays_per_feature_kind(self):
        schema = FeatureSchema([
            FeatureSpec("x", "numeric"), FeatureSpec("c", "categorical", vocab_size=3),
            FeatureSpec("t", "multi_categorical", vocab_size=4), FeatureSpec("e", "embedding", dim=2),
            FeatureSpec("m", "multi_embedding", dim=2, max_count=2),
        ])
        enc = FeatureEncoder(schema, 4, np.random.default_rng(0), asset_criterion="engagement", asset_seed=0)
        assets = [Asset(np.full(2, float(i), dtype=np.float32), timestamp=-i, engagement=i) for i in range(4)]
        rows = [Snapshot({"x": 1.5, "c": 2, "t": (0, 3), "e": np.array([1.0, -1.0]), "m": assets}),
                Snapshot({"x": None, "c": None, "t": (), "e": None, "m": []})]
        got = enc.inputs(rows)
        assert list(got) == ["x", "c", "t", "e", "m"]
        want = {
            "x": ([1.5, 0.0], [1, 0]),
            "c": ([[0, 0, 1], [0, 0, 0]], [1, 0]),
            "t": ([[1, 0, 0, 1], [0, 0, 0, 0]], [1, 1]),  # a tag set, empty or not, is present
            "e": ([[1, -1], [0, 0]], [1, 0]),
            "m": ([[[3, 3], [2, 2]], [[0, 0], [0, 0]]], [[1, 1], [0, 0]]),  # the two most engaging
        }
        for name, (values, present) in want.items():
            assert got[name][0].dtype == got[name][1].dtype == np.float32
            np.testing.assert_array_equal(got[name][0], values)
            np.testing.assert_array_equal(got[name][1], present)


class TestAssembly:
    def test_shapes_and_mask(self):
        schema = small_schema(with_assets=True)
        enc = FeatureEncoder(schema, 8, np.random.default_rng(2), "recency", 0)
        snaps = random_snapshots(schema, 4, seed=5)
        x, mask = enc.assemble_tokens(snaps)
        assert x.shape == (4, schema.token_count(), 8)
        assert mask.shape == (4, schema.token_count())
        # the 5 single-slot features are always unmasked
        assert np.all(mask[:, :5] == 1.0)
        for i, s in enumerate(snaps):
            n_assets = min(len(s.values["creatives"]), 2)
            assert mask[i, 5:].sum() == n_assets

    def test_all_missing_snapshot_is_finite(self):
        schema = small_schema(with_assets=True)
        enc = FeatureEncoder(schema, 8, np.random.default_rng(3), "recency", 0)
        empty = Snapshot({f.name: ([] if f.kind == "multi_embedding" else
                                   (tuple() if f.kind == "multi_categorical" else None))
                          for f in schema})
        x, mask = enc.assemble_tokens([empty])
        assert np.all(np.isfinite(x.data))
        assert mask[0, 5:].sum() == 0

    def test_batch_rows_independent(self):
        schema = small_schema(with_assets=True)
        enc = FeatureEncoder(schema, 8, np.random.default_rng(4), "recency", 0)
        snaps = random_snapshots(schema, 6, seed=7, missing_rate=0.2)
        full, mfull = enc.assemble_tokens(snaps)
        one, mone = enc.assemble_tokens(snaps[2:3])
        np.testing.assert_array_equal(full.data[2], one.data[0])
        np.testing.assert_array_equal(mfull[2], mone[0])

    def test_feature_permutation_permutes_tokens(self):
        # reordering single-slot schema features reorders tokens identically
        specs = [
            FeatureSpec("a", "numeric"),
            FeatureSpec("b", "categorical", vocab_size=3),
            FeatureSpec("c", "numeric"),
        ]
        snaps = [Snapshot({"a": 0.4, "b": 1, "c": -0.7})]
        enc1 = FeatureEncoder(FeatureSchema(list(specs)), 6, np.random.default_rng(8), "recency", 0)
        enc2 = FeatureEncoder(FeatureSchema([specs[2], specs[0], specs[1]]), 6, np.random.default_rng(0), "recency", 0)
        # share parameters so only ordering differs
        enc2.freqs = enc1.freqs
        enc2.tables = enc1.tables
        enc2.missing = enc1.missing
        x1, _ = enc1.assemble_tokens(snaps)
        x2, _ = enc2.assemble_tokens(snaps)
        np.testing.assert_allclose(x2.data[0], x1.data[0][[2, 0, 1]], atol=1e-7)

    def test_interleaved_numerics_gradient(self, rng):
        # numerics split by another feature are slices of the one numeric node
        schema = FeatureSchema(
            [FeatureSpec("a", "numeric"), FeatureSpec("b", "categorical", vocab_size=3),
             FeatureSpec("c", "numeric"), FeatureSpec("e", "numeric")], []
        )
        enc = FeatureEncoder(schema, 4, np.random.default_rng(12), "recency", 0)
        for p in enc.parameters().values():
            p.data = p.data.astype(np.float64)
        snaps = [Snapshot({"a": 0.4, "b": 1, "c": None, "e": 2.5}), Snapshot({"a": None, "b": 2, "c": -0.7})]
        weight = Tensor(rng.standard_normal((2, 4, 4)))
        leaves = [enc.freqs[k] for k in "ace"] + [enc.missing[k] for k in "ace"]
        assert fd_gradient_check(lambda: (enc.assemble_tokens(snaps)[0] * weight).sum(), leaves) < 1e-4

    def test_numerics_around_multi_embeddings_match_per_feature_encoding(self, rng):
        # each numeric token, wherever it sits among multi-slot features, is
        # its own feature's encoding and sends its gradient to its own leaves
        schema = FeatureSchema(
            [FeatureSpec("a", "numeric"), FeatureSpec("m", "multi_embedding", dim=3, max_count=2),
             FeatureSpec("b", "numeric"), FeatureSpec("c", "categorical", vocab_size=3),
             FeatureSpec("e", "numeric"), FeatureSpec("n", "multi_embedding", dim=3, max_count=1),
             FeatureSpec("g", "numeric")], []
        )
        enc = FeatureEncoder(schema, 4, np.random.default_rng(14), "recency", 0)
        for p in enc.parameters().values():
            p.data = p.data.astype(np.float64)
        asset = Asset(np.ones(3, dtype=np.float32), timestamp=0.0)
        snaps = [Snapshot({"a": 0.4, "m": [asset], "b": -1.1, "c": 1, "e": None, "n": [], "g": 2.5}),
                 Snapshot({"a": None, "m": [], "b": 0.3, "c": 2, "e": 0.9, "n": [asset], "g": -0.2})]
        x, mask = enc.assemble_tokens(snaps)
        assert x.shape == (2, schema.token_count(), 4) and mask.shape == (2, schema.token_count())

        positions = {"a": 0, "b": 3, "e": 5, "g": 7}
        weight = Tensor(rng.standard_normal((2, schema.token_count(), 4)))
        leaves = [enc.freqs[k] for k in positions] + [enc.missing[k] for k in positions]
        (x * weight).sum().backward()
        got = [leaf.grad for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None
        ref_loss = 0.0
        for name, pos in positions.items():
            alone = FeatureEncoder(FeatureSchema([schema.get(name)]), 4, np.random.default_rng(0), "recency", 0)
            alone.freqs[name], alone.missing[name] = enc.freqs[name], enc.missing[name]
            tok, _ = alone.assemble_tokens([Snapshot({name: s.values[name]}) for s in snaps])
            np.testing.assert_array_equal(x.data[:, pos:pos + 1], tok.data)
            ref_loss = (tok * weight[:, pos:pos + 1]).sum() + ref_loss
        ref_loss.backward()
        for g, leaf in zip(got, leaves):
            np.testing.assert_allclose(g, leaf.grad, rtol=1e-12, atol=1e-12)

    def test_asset_overflow_uses_selection(self):
        schema = FeatureSchema(
            [FeatureSpec("m", "multi_embedding", dim=3, max_count=2)], []
        )
        enc = FeatureEncoder(schema, 6, np.random.default_rng(9), asset_criterion="recency", asset_seed=0)
        assets = [Asset(np.full(3, float(i), dtype=np.float32), timestamp=float(i)) for i in range(5)]
        x, mask = enc.assemble_tokens([Snapshot({"m": assets})])
        # the two most recent assets (4 and 3) fill the slots
        expect = enc.projectors[3](Tensor(np.array([[4.0] * 3, [3.0] * 3], dtype=np.float32)))
        np.testing.assert_allclose(x.data[0], expect.data, atol=1e-6)
        assert mask[0].tolist() == [1.0, 1.0]

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            FeatureEncoder(small_schema(), 7, np.random.default_rng(0), "recency", 0)

    def test_projectors_shared_by_dim(self):
        schema = FeatureSchema(
            [
                FeatureSpec("e1", "embedding", dim=4),
                FeatureSpec("e2", "embedding", dim=4),
                FeatureSpec("e3", "embedding", dim=6),
            ],
            [],
        )
        enc = FeatureEncoder(schema, 8, np.random.default_rng(10), "recency", 0)
        assert set(enc.projectors.keys()) == {4, 6}

    def test_end_to_end_gradient(self, rng):
        schema = small_schema(with_assets=True)
        enc = FeatureEncoder(schema, 4, np.random.default_rng(11), "recency", 0)
        snaps = random_snapshots(schema, 2, seed=13)
        params = {k: v for k, v in enc.parameters().items()}
        for p in params.values():
            p.data = p.data.astype(np.float64)

        def build():
            # note: sum of squares would hide the frequencies entirely
            # (sin^2 + cos^2 = 1), so probe with a cubic instead
            x, mask = enc.assemble_tokens(snaps)
            return (x ** 3.0).sum()

        build().backward()
        touched = [k for k, p in params.items() if p.grad is not None and np.any(p.grad != 0)]
        # every parameter family participates for this batch
        assert any(k.startswith("freqs.") for k in touched)
        assert any(k.startswith("tables.") for k in touched)
        assert any(k.startswith("projectors.") for k in touched)
