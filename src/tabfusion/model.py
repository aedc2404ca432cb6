"""Model container tying encoder, trunk, reconstruction decoders, and heads."""

from __future__ import annotations

import numpy as np

from .data import FeatureSchema
from .encoder import FeatureEncoder
from .pretrain import ReconstructionHeads
from .tensor import Tensor
from .trunk import Trunk, TrunkConfig

__all__ = ["Model"]


class Model:
    def __init__(
        self,
        schema: FeatureSchema,
        d: int = 32,
        n_layers: int = 6,
        heads: int = 8,
        ffn_dim: int = 512,
        d_prime: int | None = None,
        isa_enabled: bool = True,
        spectral_norm: bool = True,
        asset_criterion: str = "recency",
        seed: int = 0,
    ):
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.schema = schema
        self.d = d
        self.encoder = FeatureEncoder(schema, d, rng, asset_criterion=asset_criterion, asset_seed=seed)
        self.trunk_config = TrunkConfig(
            d=d,
            n_tokens=schema.token_count(),
            n_layers=n_layers,
            heads=heads,
            ffn_dim=ffn_dim,
            d_prime=d_prime if d_prime is not None else 4 * d,
            isa_enabled=isa_enabled,
            spectral_norm=spectral_norm,
        )
        self.trunk = Trunk(self.trunk_config, rng)
        self.recon = ReconstructionHeads(schema, d, rng)
        self.heads: dict = {}  # task name -> SngpHead, created at fine-tune

    def backbone_parameters(self) -> dict:
        params = {}
        params.update(self.encoder.parameters())
        params.update(self.trunk.parameters())
        return params

    def parameters(self) -> dict:
        params = self.backbone_parameters()
        params.update(self.recon.parameters())
        for name, head in self.heads.items():
            params.update({f"head.{name}.{k}": v for k, v in head.parameters().items()})
        return params

    def buffers(self) -> dict:
        """Non-learned arrays that must survive save/load: SNGP state and
        the power-iteration vectors of every spectrally normalized layer."""
        from .nn import spectral_layers

        out = {}
        for name, head in self.heads.items():
            for k, v in head.buffers().items():
                out[f"head.{name}.{k}"] = v
        for name, layer in spectral_layers(self.trunk.named_modules()).items():
            out[f"sn.{name}.u"] = layer.u
            out[f"sn.{name}.v"] = layer.v
        return out

    # ---- persistence -----------------------------------------------------

    def save(self, path, config_dict: dict) -> None:
        from .checkpoint import save_checkpoint

        arrays = {k: p.data for k, p in self.parameters().items()}
        arrays.update({f"buf.{k}": v for k, v in self.buffers().items()})
        save_checkpoint(path, arrays, config_dict)

    @staticmethod
    def load(path, schema: FeatureSchema, config_dict: dict, **model_kwargs) -> "Model":
        """Rebuild a model from a checkpoint; rejects config digest mismatch.

        Task heads are reconstructed from the stored beta/omega shapes.
        """
        from .checkpoint import load_checkpoint
        from .finetune import SngpHead

        arrays = load_checkpoint(path, config_dict)
        model = Model(schema, **model_kwargs)
        rng = np.random.default_rng(0)
        for name in list(arrays):
            if name.startswith("buf.head.") and name.endswith(".omega"):
                task = name[len("buf.head.") : -len(".omega")]
                omega = arrays[name]
                beta = arrays[f"head.{task}.beta.weight"]
                head = SngpHead(omega.shape[1], beta.shape[0], rng, d_rf=omega.shape[0])
                buffers = {
                    k[len(f"buf.head.{task}.") :]: v
                    for k, v in arrays.items()
                    if k.startswith(f"buf.head.{task}.")
                }
                head.load_buffers(buffers)
                model.heads[task] = head
        params = model.parameters()
        for name, p in params.items():
            if name not in arrays:
                raise KeyError(f"checkpoint missing parameter '{name}'")
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for '{name}'")
            p.data[...] = arrays[name].astype(p.data.dtype)
        from .nn import spectral_layers

        for name, layer in spectral_layers(model.trunk.named_modules()).items():
            if f"buf.sn.{name}.u" in arrays:
                layer.u = arrays[f"buf.sn.{name}.u"].astype(np.float32)
                layer.v = arrays[f"buf.sn.{name}.v"].astype(np.float32)
        return model

    # ---- inference -------------------------------------------------------

    def embed(self, snapshots, batch_size: int = 256) -> np.ndarray:
        """Pooled inference-mode embeddings, [n, d].

        The one inference pass through encoder and trunk. ISA is bypassed, so
        a row's embedding is bitwise the same alone or in any batch.
        """
        chunks = []
        for lo in range(0, len(snapshots), batch_size):
            x, mask = self.encoder.assemble_tokens(snapshots[lo : lo + batch_size])
            _, pooled = self.trunk(x, mask, mode="inference")
            chunks.append(pooled.data.copy())
        return np.concatenate(chunks) if chunks else np.zeros((0, self.d), dtype=np.float32)

    def predict(self, snapshots, task: str, calibrated: bool = True, batch_size: int = 256) -> dict:
        """`SngpHead.predict` of the task's head on `embed`'s rows, batch_size
        at a time: probs [n, classes], variance [n] and calibrated."""
        pooled = self.embed(snapshots, batch_size)
        parts = [  # an empty input still gets one (empty) call
            self.heads[task].predict(Tensor(pooled[lo : lo + batch_size]), calibrated)
            for lo in range(0, max(len(pooled), 1), batch_size)
        ]
        out = {key: np.concatenate([p[key] for p in parts]) for key in ("probs", "variance")}
        return {**out, "calibrated": parts[0]["calibrated"]}
