"""Metric-learning training objectives with closed-form values and gradients.

The private ``_*_core`` functions are the only implementation of each
objective: the triplet hinge on normalized-embedding distances, the
prototypical softmax over negative distances to support-set means, the
generalized end-to-end (GE2E) softmax over scaled cosines to centroids,
and batch cross-entropy. ``training``'s batch functions are thin
backprop wrappers over them, and the acceptance criteria check them
directly. Each core takes rows (one per triplet, query or probe) and
returns exact analytic gradients w.r.t. its array inputs, which the tests
check against central differences. ``multitask_loss`` combines a metric
loss with per-utterance reconstruction losses. Norms, sums and means are
written as the reductions np.linalg.norm, np.sum and np.mean make, with
their bits, and without their wrappers' cost on a batch's small arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Below this separation, distance gradients take the zero subgradient.
_DIST_TINY = 1e-12


@dataclass
class GE2EParams:
    """Learnable scale on cosine similarities (a bias would cancel in the softmax)."""

    w: float = 10.0

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("cosine scale w must be positive")


SCHEMES = ("TL1", "TL2", "PL1", "PL2", "GL1", "GL2", "CE")


def _softmax_nll(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean negative log-likelihood of the labels under a softmax over
    each row, and that softmax, from one max-shift and one exp."""
    if logits.shape[1] < 2:
        raise ValueError("need at least 2 classes")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels must lie in [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(len(labels)), labels]
    nll = np.log(total[:, 0]) - picked
    return float(np.add.reduce(nll) / nll.size), exp / total


def _ce_core(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean softmax cross-entropy: (value, probs, d value / d logits)."""
    n = logits.shape[0]
    value, probs = _softmax_nll(logits, labels)
    g_logits = probs / n
    g_logits[np.arange(n), labels] -= 1.0 / n
    return value, probs, g_logits


def _triplet_core(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """max(0, |u - v| - |u - w| + margin) per row of (..., D) arrays, and its
    subgradients w.r.t. u, v, w; rows at or below the hinge point get zeros. A
    distance is the root of a vecdot, which rounds as np.linalg.norm does."""
    to_pos, to_neg = u - v, u - w
    d_pos, d_neg = (np.sqrt(np.vecdot(x, x)) for x in (to_pos, to_neg))
    value = d_pos - d_neg + margin
    g_pos, g_neg = (
        np.where(((value > 0.0) & (d > _DIST_TINY))[..., None],
                 x / np.where(d > _DIST_TINY, d, 1.0)[..., None], 0.0)
        for x, d in ((to_pos, d_pos), (to_neg, d_neg))
    )
    return np.maximum(value, 0.0), g_pos - g_neg, -g_pos, g_neg


def _prototypical_core(
    queries: np.ndarray, labels: np.ndarray, protos: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean NLL of a softmax over negative L2 distances to the prototypes:
    (value, probs, query grads, prototype grads)."""
    m = queries.shape[0]
    diff = queries[:, None, :] - protos[None, :, :]  # (m, I, D)
    dist = np.sqrt(np.add.reduce(diff * diff, axis=2))  # (m, I)
    value, probs = _softmax_nll(-dist, labels)
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
    centroid grads, w grad).
    """
    c_norm = np.sqrt(np.add.reduce(centroids * centroids, axis=2))  # (n, I)
    cos = np.einsum("nd,nid->ni", probes, centroids) / c_norm
    value, probs, g_logit = _ce_core(w * cos, labels)
    w_grad = float(np.add.reduce(g_logit * cos, axis=None))
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
    recon = np.asarray(recon_losses, dtype=np.float64)
    return beta * metric_loss + float(np.add.reduce(recon) / recon.size)
