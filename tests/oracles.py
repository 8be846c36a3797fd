"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written the slow way (plain loops,
high-precision arithmetic, or one vector at a time) and never imports the
code paths under test.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 50

SI_SDR_EPS = 1e-8
CAP_DB = 60.0


def si_sdr_oracle(est, ref, eps: float = SI_SDR_EPS, cap: float = CAP_DB) -> float:
    """High-precision SI-SDR: project, compare energies, clamp at +/- cap."""
    est = [mpmath.mpf(float(x)) for x in est]
    ref = [mpmath.mpf(float(x)) for x in ref]
    dot_er = mpmath.fsum(e * r for e, r in zip(est, ref))
    dot_rr = mpmath.fsum(r * r for r in ref)
    scale = dot_er / dot_rr
    target = [scale * r for r in ref]
    noise = [e - t for e, t in zip(est, target)]
    e_t = mpmath.fsum(t * t for t in target)
    e_n = mpmath.fsum(n * n for n in noise)
    if e_t == 0:
        return -cap
    value = 10 * mpmath.log(e_t / (e_n + mpmath.mpf(eps) * e_t), 10)
    return float(max(min(value, mpmath.mpf(cap)), mpmath.mpf(-cap)))


def l2_distance_oracle(a, b) -> float:
    """Euclidean distance between two vectors: np.linalg.norm of their difference."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def cosine_oracle(a, b) -> float:
    """Cosine of two nonzero vectors: np.dot over the product of their np.linalg.norm."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    return float(np.dot(a, b) / (na * nb))


def softmax_oracle(logits) -> list[float]:
    """Direct softmax by definition, in high precision."""
    exps = [mpmath.e ** mpmath.mpf(float(x)) for x in logits]
    total = mpmath.fsum(exps)
    return [float(e / total) for e in exps]


def nll_oracle(logits, label: int) -> float:
    """Negative log-likelihood of one label under a direct softmax."""
    return float(-mpmath.log(softmax_oracle(logits)[label]))


def prototypical_probs_oracle(query, prototypes) -> list[float]:
    """Softmax over negative Euclidean distances to each prototype."""
    dists = []
    for p in prototypes:
        dists.append(math.sqrt(sum((q - c) ** 2 for q, c in zip(query, p))))
    return softmax_oracle([-d for d in dists])


def frame_count_oracle(n_samples: int, frame_length: int, hop: int) -> int:
    """Count full frames by walking the signal."""
    count = 0
    start = 0
    while start + frame_length <= n_samples:
        count += 1
        start += hop
    return count


def mel_bin_oracle(freq_hz: float, n_mels: int, sample_rate: int) -> int:
    """Index of the triangular mel filter responding most strongly at freq_hz."""

    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [
        from_mel(i * to_mel(sample_rate / 2.0) / (n_mels + 1))
        for i in range(n_mels + 2)
    ]
    best, best_resp = 0, -1.0
    for i in range(n_mels):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        if left <= freq_hz <= center:
            resp = (freq_hz - left) / (center - left)
        elif center < freq_hz <= right:
            resp = (right - freq_hz) / (right - center)
        else:
            resp = 0.0
        if resp > best_resp:
            best, best_resp = i, resp
    return best


def brute_force_rectangular(records, grid_step: float = 0.1):
    """Triple-loop exhaustive rectangular-border search with the tie-break rule.

    records: list of (pi, phi, keep_value, subtract_value).
    Returns ((Pi, Phi), objective).
    """
    steps = int(round(2.0 / grid_step))
    grid = [round(i * grid_step, 10) for i in range(steps + 1)]
    best_key, best = None, None
    for a in grid:
        for b in grid:
            objective = 0.0
            flagged = 0
            for pi, phi, keep, sub in records:
                if pi > a and phi < b:
                    objective += sub
                    flagged += 1
                else:
                    objective += keep
            key = (-objective, flagged, a, b)
            if best_key is None or key < best_key:
                best_key, best = key, ((a, b), objective)
    return best


def brute_force_linear(records, grid_step: float = 0.1):
    """Exhaustive linear-border search, mu in [0, 2], lambda in [-1, 1]."""
    mu_grid = [round(i * grid_step, 10) for i in range(int(round(2.0 / grid_step)) + 1)]
    lam_grid = [
        round(-1.0 + i * grid_step, 10)
        for i in range(int(round(2.0 / grid_step)) + 1)
    ]
    best_key, best = None, None
    for m in mu_grid:
        for l in lam_grid:
            objective = 0.0
            flagged = 0
            for pi, phi, keep, sub in records:
                if phi < m * pi + l:
                    objective += sub
                    flagged += 1
                else:
                    objective += keep
            key = (-objective, flagged, m, l)
            if best_key is None or key < best_key:
                best_key, best = key, ((m, l), objective)
    return best


def embedding_quality_oracle(feats, labels, projection):
    """(intra, inter, accuracy) of unit embeddings `feats @ projection.T`:
    mean chord distances over the upper-triangle pairs from `triu_indices`,
    split by whether a pair shares its label, and nearest-centroid accuracy
    with the first half (at least one) of each label's rows as the centroid,
    one probe at a time."""
    raw = feats @ projection.T
    E = raw / np.linalg.norm(raw, axis=1)[:, None]
    dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(E @ E.T, -1.0, 1.0)))
    upper_i, upper_j = np.triu_indices(len(labels), k=1)
    same = labels[upper_i] == labels[upper_j]
    intra = float(dist[upper_i[same], upper_j[same]].mean())
    inter = float(dist[upper_i[~same], upper_j[~same]].mean())
    cents, probes = [], []
    for k in range(int(labels.max()) + 1):
        idx = np.flatnonzero(labels == k)
        half = max(1, idx.size // 2)
        cents.append(E[idx[:half]].mean(axis=0))
        probes.extend((k, E[u]) for u in idx[half:])
    correct = sum(int(np.argmin(np.linalg.norm(np.stack(cents) - e, axis=1)) == k)
                  for k, e in probes)
    return intra, inter, correct / max(1, len(probes))


def finite_difference_check(evaluator, inputs, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The evaluator maps a flat parameter vector to (loss, flat gradient).
    Per coordinate, the error is |analytic - numeric| / max(1e-8, |numeric|).
    A non-finite loss at a perturbed point raises FloatingPointError.
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
            raise FloatingPointError("non-finite loss at a perturbed point")
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst
