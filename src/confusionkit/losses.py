"""Metric-learning training objectives with closed-form values and gradients.

The private ``_*_core`` functions are the only implementation of each
objective: the triplet hinge on normalized-embedding distances, the
prototypical softmax over negative distances to support-set means, the
generalized end-to-end (GE2E) softmax over scaled cosines to centroids,
and batch cross-entropy. ``training``'s batch functions are thin
backprop wrappers over them, and the acceptance criteria check them
directly. Each core returns exact analytic gradients w.r.t. its array
inputs; ``finite_difference_check`` verifies them. ``multitask_loss``
combines a metric loss with per-utterance reconstruction losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError

# Below this separation, distance gradients take the zero subgradient.
_DIST_TINY = 1e-12


@dataclass
class GE2EParams:
    """Learnable scale and bias applied to cosine similarities."""

    w: float = 10.0
    b: float = -5.0

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("cosine scale w must be positive")


SCHEMES = ("TL1", "TL2", "PL1", "PL2", "GL1", "GL2", "CE")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _neg_log_likelihood(logits: np.ndarray, labels: np.ndarray) -> float:
    if logits.shape[1] < 2:
        raise ValueError("need at least 2 classes")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels must lie in [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


def _ce_core(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean softmax cross-entropy: (value, probs, d value / d logits)."""
    n = logits.shape[0]
    value = _neg_log_likelihood(logits, labels)
    probs = _softmax_rows(logits)
    g_logits = probs / n
    g_logits[np.arange(n), labels] -= 1.0 / n
    return value, probs, g_logits


def _triplet_core(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, margin: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """max(0, |u - v| - |u - w| + margin) and its subgradients w.r.t. u, v, w;
    the zero branch is chosen at the hinge point."""
    d_pos = float(np.linalg.norm(u - v))
    d_neg = float(np.linalg.norm(u - w))
    value = d_pos - d_neg + margin
    if value <= 0.0:
        zero = np.zeros_like(u)
        return 0.0, zero, zero.copy(), zero.copy()
    g_pos = (u - v) / d_pos if d_pos > _DIST_TINY else np.zeros_like(u)
    g_neg = (u - w) / d_neg if d_neg > _DIST_TINY else np.zeros_like(u)
    return value, g_pos - g_neg, -g_pos, g_neg


def _prototypical_core(
    queries: np.ndarray, labels: np.ndarray, protos: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean NLL of a softmax over negative L2 distances to the prototypes:
    (value, probs, query grads, prototype grads)."""
    m = queries.shape[0]
    diff = queries[:, None, :] - protos[None, :, :]  # (m, I, D)
    dist = np.linalg.norm(diff, axis=2)  # (m, I)
    probs = _softmax_rows(-dist)
    value = _neg_log_likelihood(-dist, labels)
    # dL/d dist_ji = (1/m) (1[i == z_j] - p_ji); chain through the distance.
    coeff = -probs / m
    coeff[np.arange(m), labels] += 1.0 / m
    safe = np.where(dist > _DIST_TINY, dist, 1.0)
    unit = np.where(dist[:, :, None] > _DIST_TINY, diff / safe[:, :, None], 0.0)
    contrib = coeff[:, :, None] * unit
    return value, probs, contrib.sum(axis=1), -contrib.sum(axis=0)


def _ge2e_core(
    probes: np.ndarray, labels: np.ndarray, centroids: np.ndarray, w: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Softmax over w * cos(probe, centroid), then mean NLL.

    probes (n, D) are unit-norm; centroids (n, I, D) hold each probe's own
    row of per-speaker centroids. Returns (value, probs, probe grads,
    centroid grads, w grad). The bias b shifts every logit equally, so it
    cancels out of the softmax and has no gradient.
    """
    c_norm = np.linalg.norm(centroids, axis=2)  # (n, I)
    cos = np.einsum("nd,nid->ni", probes, centroids) / c_norm
    value, probs, g_logit = _ce_core(w * cos, labels)
    w_grad = float(np.sum(g_logit * cos))
    unit_c = centroids / c_norm[:, :, None]
    # d cos / d probe (tangent to the unit sphere) and d cos / d centroid.
    dcos_dp = unit_c - cos[:, :, None] * probes[:, None, :]
    dcos_dc = (probes[:, None, :] - cos[:, :, None] * unit_c) / c_norm[:, :, None]
    probe_grads = w * (g_logit[:, :, None] * dcos_dp).sum(axis=1)
    centroid_grads = w * g_logit[:, :, None] * dcos_dc
    return value, probs, probe_grads, centroid_grads, w_grad


def multitask_loss(
    recon_losses: Sequence[float], metric_loss: float, beta: float
) -> float:
    """beta-weighted metric loss plus the mean per-utterance reconstruction loss."""
    if len(recon_losses) == 0:
        raise ValueError("need at least one reconstruction loss")
    return beta * metric_loss + float(np.mean(recon_losses))


def finite_difference_check(
    evaluator: Callable[[np.ndarray], tuple[float, np.ndarray]],
    inputs: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The evaluator maps a flat parameter vector to (loss, flat gradient).
    Per coordinate, the error is |analytic - numeric| / max(1e-8, |numeric|).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    inputs = np.asarray(inputs, dtype=np.float64)
    _, analytic = evaluator(inputs)
    analytic = np.asarray(analytic, dtype=np.float64)
    worst = 0.0
    for i in range(inputs.size):
        bumped = inputs.copy()
        bumped[i] = inputs[i] + eps
        hi, _ = evaluator(bumped)
        bumped[i] = inputs[i] - eps
        lo, _ = evaluator(bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise DivergenceError("non-finite loss at a perturbed point")
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst
