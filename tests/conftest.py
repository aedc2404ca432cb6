import tracemalloc

import numpy as np
import pytest

from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot, TaskSpec
from tabfusion.tensor import (
    Node,
    Tensor,
    concat,
    ffn,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    multi_head_attention,
    numeric_encoding,
    softmax,
    spectral_normalize,
)


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


def traced(fn) -> tuple[int, int]:
    """(kept, peak): the bytes fn() leaves allocated and the most it held at
    once, both above the level at its start, as tracemalloc sees them (numpy
    buffers included). Called while a trace the caller started runs, it
    measures within that trace, so memory allocated before the call and
    freed during it counts too (and that trace's peak is reset)."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not outer:
            tracemalloc.stop()
    return now - start, peak - start


def every_op(x, w):
    """One output of each op on leaves x [4, 3] and w [3, 3]."""
    h = matmul(x, w)
    x3 = x.reshape(2, 2, 3)
    su, _, svt = np.linalg.svd(w.data)
    return [
        x + w[0], x - 1.0, x * w[1], x / 2.0, -x, x ** 2.0, h, x[1:3], x.exp(), (x + 5.0).log(),
        x.tanh(), x.sin(), x.cos(), x.clip_min(0.0), x.reshape(12), x.transpose(1, 0),
        concat([x, h], axis=1), x.sum(), x.mean(axis=0), softmax(x), log_softmax(x), layer_norm(x), gelu(x),
        linear(x, w), linear(x3, w, w[2]), spectral_normalize(w, su[:, 0], svt[0], 1e-8),
        multi_head_attention(x3, w, w * 2.0, w.transpose(1, 0), heads=3, key_mask=np.array([[1.0, 0.0], [1.0, 1.0]])),
        numeric_encoding(x, np.eye(4, 3), [w[0], w[1], w[2]], [x[:2].reshape(6)] * 3),
        ffn(x, w, w[0], w, w[1]), ffn(x3, w * 2.0, w[2], w, w[0]),
    ]


def held_values(root) -> list[tuple[str, object]]:
    """(path, value) for every Tensor and numpy array that `root` reaches
    through closure cells, nested closures included, tuples, lists, dicts
    and graph nodes (a node's parents and closure). Each object is visited
    once; a path is the dotted names of the cells on the way."""
    found, seen = [], set()

    def visit(v, path):
        if id(v) in seen:
            return
        seen.add(id(v))
        if isinstance(v, (Tensor, np.ndarray)):
            found.append((path, v))
        elif isinstance(v, Node):
            visit(v.backward, f"{path}.backward")
            for i, p in enumerate(v.parents):
                visit(p, f"{path}.parents[{i}]")
        elif isinstance(v, (tuple, list)):
            for i, item in enumerate(v):
                visit(item, f"{path}[{i}]")
        elif isinstance(v, dict):
            for k, item in v.items():
                visit(item, f"{path}[{k!r}]")
        elif callable(v) and getattr(v, "__closure__", None):
            for name, cell in zip(v.__code__.co_freevars, v.__closure__):
                try:
                    contents = cell.cell_contents
                except ValueError:  # a cell not yet assigned
                    continue
                visit(contents, f"{path}.{name}")

    visit(root, "root")
    return found


def graph_arrays(*nodes) -> list[np.ndarray]:
    """Every array the backward closures of the graph upstream of `nodes`
    hold (a held Tensor gives its value)."""
    return [v.data if isinstance(v, Tensor) else v for _, v in held_values(nodes)]


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
