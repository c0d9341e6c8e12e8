"""Gradient-check oracles: central finite differences over the flat parameter vector."""

from typing import Callable

import numpy as np

from cegl.errors import NumericError
from cegl.graph import GraphBatch
from cegl.model import ModelParams, backward, forward, loss


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


def check_gradients(batch: GraphBatch, params, labels, weights=None, rtol=1e-4, atol=1e-8):
    """Assert that backward matches finite differences of the batch's weighted loss.

    The analytic side comes from a recorded pass. Each finite-difference
    evaluation writes the perturbed vector into one probe's parameters and
    runs an inference-only pass, which reads only the prediction.
    """
    labels = np.asarray(labels)
    weights = np.ones(len(batch)) if weights is None else np.asarray(weights)
    analytic = backward(forward(batch, params), labels, weights).vector
    probe = ModelParams(params.config, params.vector.copy())

    def f(vec):
        probe.vector[...] = vec
        return float(weights @ loss(forward(batch, probe, record=False).prediction, labels))

    numeric = finite_diff_grad(f, params.vector, eps=1e-5)
    err = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    bad = np.flatnonzero(err > bound)
    assert bad.size == 0, (
        f"{params.config.aggregator_kind}/{params.config.readout_kind}: mismatch at {bad[:5]}, "
        f"analytic {analytic[bad[:5]]}, numeric {numeric[bad[:5]]}"
    )
