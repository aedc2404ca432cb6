"""Spectral normalization in action.

Power iteration converges to the largest singular value, and a normalized
layer is (at most) 1-Lipschitz: stretching the weights 10x changes nothing
about the output scale.
"""

import numpy as np

from tabfusion.nn import SpectralLinear, advance_power_iteration, power_iteration
from tabfusion.tensor import Tensor

rng = np.random.default_rng(1)

w = rng.standard_normal((6, 6)) * 3.0
u = rng.standard_normal(6)
u /= np.linalg.norm(u)
for iters in (1, 2, 5, 20):
    sigma, _, _ = power_iteration(w, u, iters=iters)
    print(f"power iteration ({iters:2d} steps): sigma = {sigma:.6f}")
print(f"numpy SVD reference:           sigma = {np.linalg.svd(w, compute_uv=False)[0]:.6f}")

layer = SpectralLinear(6, 6, rng)
layer.weight.data = w.astype(np.float32) * 10.0  # deliberately huge; a new array, not a write
for _ in range(50):  # what a training loop does, one step per forward
    advance_power_iteration([layer])

x = rng.standard_normal((1, 6)).astype(np.float32)
y = rng.standard_normal((1, 6)).astype(np.float32)
fx = layer(Tensor(x)).data
fy = layer(Tensor(y)).data
print(f"\n|f(x) - f(y)| = {np.linalg.norm(fx - fy):.4f}")
print(f"|x - y|       = {np.linalg.norm(x - y):.4f}  (normalized layer never expands)")
