"""Stable activations, seeded randomness, gradient checking.

Everything here operates on 64-bit floats. Random streams come from
numpy's PCG64 so that a given seed yields a bit-identical sequence on
every platform and every run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError

__all__ = [
    "sigmoid",
    "softmax",
    "finite_diff_grad",
    "make_rng",
]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given 64-bit unsigned seed."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-safe for any finite input.

    Branches on sign so the exponential argument is always non-positive.
    Accepts scalars or arrays; saturates to 0/1 instead of overflowing.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over a 1-D vector; components sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"softmax needs a non-empty 1-D vector, got shape {v.shape}")
    e = np.exp(v - v.max())
    return e / e.sum()


def finite_diff_grad(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Per coordinate i: (f(theta + eps*e_i) - f(theta - eps*e_i)) / (2*eps).
    `f` must be pure and deterministic; raises NumericError naming the
    offending coordinate if it returns a non-finite value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = grad.ravel()
    work = theta.copy()
    wflat = work.ravel()
    for i in range(wflat.size):
        orig = wflat[i]
        wflat[i] = orig + eps
        f_plus = f(work)
        wflat[i] = orig - eps
        f_minus = f(work)
        wflat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite function value at coordinate {i}")
        flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad
