"""A tour of the reverse-mode autodiff core.

Builds a small computation graph on numpy arrays, runs backward(), and
cross-checks one gradient entry against a central finite difference. Then
repeats the forward under no_grad, which builds no graph.
"""

import numpy as np

from tabfusion.tensor import Tensor, layer_norm, matmul, no_grad, softmax

rng = np.random.default_rng(0)

w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
x = Tensor(rng.standard_normal((2, 4)))


def loss_fn():
    h = layer_norm(matmul(x, w)).tanh()
    return (softmax(h, axis=-1) * h).sum()


loss = loss_fn()
loss.backward()
print(f"loss = {loss.item():.6f}")
print(f"dL/dw shape = {w.grad.shape}, |dL/dw| max = {np.abs(w.grad).max():.4f}")

# verify one coordinate numerically
h = 1e-5
old = w.data[1, 2]
w.data[1, 2] = old + h
up = loss_fn().item()
w.data[1, 2] = old - h
down = loss_fn().item()
w.data[1, 2] = old
numeric = (up - down) / (2 * h)
print(f"analytic dL/dw[1,2] = {w.grad[1, 2]:.8f}")
print(f"numeric  dL/dw[1,2] = {numeric:.8f}")

# the interior nodes were freed as backward walked them: only leaf .grad survives
print(f"after backward: loss keeps parents = {bool(loss._node.parents)}, w.grad kept = {w.grad is not None}")

# inference: under no_grad the same forward records no graph node at all
with no_grad():
    frozen = loss_fn()
print(f"under no_grad: loss = {frozen.item():.6f}, requires_grad = {frozen.requires_grad}, "
      f"graph node = {frozen._node}")
try:
    frozen.backward()
except RuntimeError as e:
    print(f"backward on it raises RuntimeError: {e}")
