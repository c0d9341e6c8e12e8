"""Stable activations and seeded randomness.

Everything here operates on 64-bit floats. Random streams come from
numpy's PCG64 so that a given seed yields a bit-identical sequence on
every platform and every run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "softmax",
    "make_rng",
]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) for the given 64-bit unsigned seed."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-safe for any finite input.

    With e = exp(-|x|), never above 1, it is 1/(1+e) where x >= 0 and
    e/(1+e) elsewhere: one exponential and one division per element and
    no branch. -|x| is taken as min(x, -x), which passes a NaN on with
    its sign bit. Accepts scalars or arrays; saturates to 0/1 instead of
    overflowing.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    if out.ndim == 0:
        return float(out)
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; each row sums to 1.

    An entry of -inf gets weight exactly 0, which is how a row is masked.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {v.shape}")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
