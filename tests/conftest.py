import numpy as np
import pytest

from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot, TaskSpec


def fd_gradient_check(build, leaves, h=1e-4, rtol=1e-4, max_entries=40, rng=None):
    """Compare analytic gradients against central finite differences.

    `build` rebuilds the scalar loss from the (float64) leaf tensors each
    call. Checks up to max_entries coordinates per leaf. Returns the worst
    relative error seen.
    """
    rng = rng or np.random.default_rng(0)
    loss = build()
    for leaf in leaves:
        leaf.grad = None
    loss = build()
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        assert leaf.grad is not None, "leaf received no gradient"
        analytic = leaf.grad.reshape(-1)
        flat = leaf.data.reshape(-1)
        idx = np.arange(flat.size)
        if flat.size > max_entries:
            idx = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            fp = build().item()
            flat[i] = old - h
            fm = build().item()
            flat[i] = old
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(numeric), abs(analytic[i]), 1e-6)
            err = abs(numeric - analytic[i]) / denom
            worst = max(worst, err)
            assert err < rtol, f"grad mismatch at coord {i}: analytic {analytic[i]}, fd {numeric}"
    return worst


def small_schema(with_assets=True):
    feats = [
        FeatureSpec("age", "numeric"),
        FeatureSpec("spend", "numeric"),
        FeatureSpec("region", "categorical", vocab_size=4),
        FeatureSpec("tags", "multi_categorical", vocab_size=5),
        FeatureSpec("page_vec", "embedding", dim=6),
    ]
    if with_assets:
        feats.append(FeatureSpec("creatives", "multi_embedding", dim=6, max_count=2))
    return FeatureSchema(feats, [TaskSpec("risk", 2)])


def random_snapshots(schema, n, seed=0, label_rule=None, missing_rate=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        values = {}
        for f in schema:
            if f.kind == "numeric":
                values[f.name] = None if rng.random() < missing_rate else float(rng.normal())
            elif f.kind == "categorical":
                values[f.name] = None if rng.random() < missing_rate else int(rng.integers(f.vocab_size))
            elif f.kind == "multi_categorical":
                k = int(rng.integers(0, 3))
                values[f.name] = tuple(sorted(set(rng.integers(0, f.vocab_size, k).tolist())))
            elif f.kind == "embedding":
                values[f.name] = None if rng.random() < missing_rate else rng.normal(size=f.dim).astype(np.float32)
            else:
                count = int(rng.integers(0, f.max_count + 2))
                values[f.name] = [
                    Asset(rng.normal(size=f.dim).astype(np.float32), float(t), float(rng.random()))
                    for t in range(count)
                ]
        if label_rule is None:
            label = int(rng.integers(2))
        else:
            label = label_rule(values, rng)
        out.append(Snapshot(values, {t.name: label for t in schema.tasks}))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
