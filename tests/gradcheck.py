"""Central finite-difference gradient checking, shared by op and model tests.

The numeric side perturbs raw parameter arrays in place and re-runs the
forward pass, so it is independent of the backward implementation it
checks.  All checks run in 64-bit.  ``tape_nodes`` lists a loss's tape,
for tests of what backward() leaves behind.
"""

import numpy as np

from entrex import autograd as ag
from entrex.autograd import Tensor


def mean_all(x: Tensor) -> Tensor:
    """The mean of every element of ``x``, a scalar built from reshape and matmul."""
    n = x.data.size
    column = Tensor(np.full((n, 1), 1.0 / n, dtype=x.data.dtype))
    return ag.reshape(ag.matmul(ag.reshape(x, (1, n)), column), ())


def tape_nodes(loss: Tensor) -> list[Tensor]:
    """Every tensor on the tape behind ``loss`` that requires a gradient."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.requires_grad:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def finite_difference_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of the scalar ``loss_fn()`` w.r.t. ``x`` (in place)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = loss_fn()
        flat[i] = orig - h
        f_minus = loss_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_gradients(build_loss, params: dict, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """Compare backward() gradients against finite differences for each param.

    ``build_loss()`` must rebuild the forward graph from the live
    parameter tensors and return a scalar Tensor.
    """
    loss = build_loss()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        assert p.grad is not None, f"no gradient for {name}"
        analytic[name] = p.grad.copy()
        p.grad = None
    errors = {}
    for name, p in params.items():
        numeric = finite_difference_grad(lambda: build_loss().item(), p.data, h=h)
        errors[name] = max_rel_error(analytic[name], numeric)
        assert errors[name] < tol, f"{name}: max rel error {errors[name]:.3e} >= {tol}"
    return errors
