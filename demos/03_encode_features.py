"""Encoding a heterogeneous example into transformer tokens.

One record mixes a number, a category, a tag set, a precomputed embedding,
and a variable-length list of embedded assets; every feature becomes one or
more d-dimensional tokens plus a padding mask.
"""

import numpy as np

from tabfusion.data import Asset, FeatureSchema, FeatureSpec, Snapshot
from tabfusion.encoder import FeatureEncoder

schema = FeatureSchema(
    [
        FeatureSpec("monthly_spend", "numeric"),
        FeatureSpec("industry", "categorical", vocab_size=6),
        FeatureSpec("channels", "multi_categorical", vocab_size=4),
        FeatureSpec("page_embedding", "embedding", dim=5),
        FeatureSpec("creatives", "multi_embedding", dim=5, max_count=3),
    ]
)

rng = np.random.default_rng(2)
record = Snapshot(
    {
        "monthly_spend": 0.42,
        "industry": 3,
        "channels": (0, 2),
        "page_embedding": rng.normal(size=5).astype(np.float32),
        "creatives": [
            Asset(rng.normal(size=5).astype(np.float32), timestamp=t) for t in (3.0, 1.0)
        ],
    }
)
missing = Snapshot(
    {"monthly_spend": None, "industry": None, "channels": (), "page_embedding": None, "creatives": []}
)

encoder = FeatureEncoder(schema, d=8, rng=rng, asset_criterion="recency", asset_seed=0)
tokens, mask = encoder.assemble_tokens([record, missing])
print(f"token tensor: {tokens.shape}  (2 examples, {schema.token_count()} tokens, d=8)")
print(f"mask:\n{mask}")
print("(the missing record gets learned missing embeddings; empty asset slots are masked)")
print(f"\nfirst token of the full record:\n{np.round(tokens.data[0, 0], 3)}")
