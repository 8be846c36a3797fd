"""Desk-scale gradient-descent training of the toy encoder.

Plain full-gradient descent per batch under a chosen metric-learning
scheme (triplet, prototypical, generalized end-to-end, or the
cross-entropy baseline), combined with reconstruction losses in the
multi-task objective. Those losses, and scheme 2's probe features, come
from a per-epoch estimate table: every sample's toy-separator estimate,
with the epoch folded into the seed, reduced one estimate at a time to
its reconstruction loss and pooled features. Scheme-2 variants embed the
estimates, so they build the table every epoch. Scheme-1 variants never
embed an estimate, and the encoder is not coupled to the separator, so
their reconstruction losses carry no gradient: they build the table
once, from the epoch-0 estimates.

Each scheme's batch objective lives in its own function mapping the
projection matrix to (loss, gradient), so gradients are directly
checkable by finite differences. These functions embed the features,
call the objective's core in ``losses`` and backpropagate its embedding
gradients into the projection; they hold no loss arithmetic of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .audio import si_sdr
from .embedding import FrontendConfig, ToyEncoder, init_encoder, pooled_features
from .errors import CorpusError, DivergenceError
from .losses import (
    SCHEMES,
    GE2EParams,
    _ce_core,
    _ge2e_core,
    _prototypical_core,
    _triplet_core,
    multitask_loss,
)
from .simulate import Corpus, fold_seed, labeled_utterances, toy_separator

_STREAM_TRAIN = 7
_STREAM_HEAD = 8
_W_FLOOR = 1e-3

# Pool offsets of the four utterances each sample contributes.
_POOL_ENROLL_T = 0
_POOL_ENROLL_I = 1
_POOL_SOURCE_T = 2
_POOL_SOURCE_I = 3


@dataclass
class TrainConfig:
    """Hyperparameters for one training run; defaults follow the shipped config."""

    scheme: str = "PL1"
    beta: float = 0.2
    alpha: float = 1.0
    support_size: int = 5
    learning_rate: float = 0.2
    epochs: int = 300
    batch_size: int = 8
    embed_dim: int = 16
    bank_cap: int = 10
    seed: int = 0
    frontend: FrontendConfig = field(default_factory=FrontendConfig)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning rate must be finite and positive, got {self.learning_rate!r}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.support_size < 1:
            raise ValueError("support size must be at least 1")
        if self.bank_cap < 1:
            raise ValueError("bank cap must be at least 1")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass
class EmbeddingQuality:
    """Cluster statistics of an encoder on a labeled corpus."""

    intra: float
    inter: float
    accuracy: float

    @property
    def ratio(self) -> float:
        return self.inter / self.intra


@dataclass
class TrainReport:
    scheme: str
    seed: int
    # Multi-task totals. A scheme-1 run's reconstruction term comes from the
    # epoch-0 estimates in every epoch; scheme 2 uses each epoch's own.
    epoch_losses: list[float]
    metric_losses: list[float]  # the scheme's own loss
    final_quality: EmbeddingQuality


def _embed(feats: np.ndarray, projection: np.ndarray):
    """Rows of feats through the projection, L2-normalized; returns (E, norms)."""
    raw = feats @ projection.T
    norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None], norms


def _chain(dP: np.ndarray, g: np.ndarray, e: np.ndarray, norm: float, m: np.ndarray):
    # Backprop through e = P m / |P m|: project g off e, divide by |P m|.
    gu = (g - e * np.dot(e, g)) / norm
    dP += np.outer(gu, m)


def triplet_batch(
    projection: np.ndarray,
    anchor_feats: np.ndarray,
    positive_feats: np.ndarray,
    negative_feats: np.ndarray,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """Batch-mean triplet loss and its gradient w.r.t. the projection."""
    n = anchor_feats.shape[0]
    ea, na = _embed(anchor_feats, projection)
    ep, np_, = _embed(positive_feats, projection)
    en, nn = _embed(negative_feats, projection)
    value = 0.0
    dP = np.zeros_like(projection)
    for j in range(n):
        v, gu, gv, gw = _triplet_core(ea[j], ep[j], en[j], alpha)
        value += v / n
        if v > 0.0:
            _chain(dP, gu / n, ea[j], na[j], anchor_feats[j])
            _chain(dP, gv / n, ep[j], np_[j], positive_feats[j])
            _chain(dP, gw / n, en[j], nn[j], negative_feats[j])
    return value, dP


def prototypical_batch(
    projection: np.ndarray,
    query_feats: np.ndarray,
    labels: np.ndarray,
    support_feats: list[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Prototypical loss over one batch; gradients flow through queries
    and through every support member behind each prototype."""
    qe, qn = _embed(query_feats, projection)
    sup = [_embed(f, projection) for f in support_feats]
    protos = np.stack([e.mean(axis=0) for e, _ in sup])
    value, _, dQ, dR = _prototypical_core(qe, labels, protos)
    dP = np.zeros_like(projection)
    for j in range(qe.shape[0]):
        _chain(dP, dQ[j], qe[j], qn[j], query_feats[j])
    for k, (e, norms) in enumerate(sup):
        g = dR[k] / e.shape[0]
        for u in range(e.shape[0]):
            _chain(dP, g, e[u], norms[u], support_feats[k][u])
    return value, dP


def ge2e_batch(
    projection: np.ndarray,
    probe_feats: np.ndarray,
    labels: np.ndarray,
    bank_feats: list[np.ndarray],
    member_pos: np.ndarray,
    w: float,
) -> tuple[float, np.ndarray, float]:
    """Generalized end-to-end loss over one batch.

    member_pos[j] is the probe's row inside its own speaker's bank (or -1),
    driving the exclude-self centroid. Gradients flow through probes and
    through every bank member behind each centroid.
    """
    n = probe_feats.shape[0]
    n_spk = len(bank_feats)
    dim = projection.shape[0]
    pe, pn = _embed(probe_feats, projection)
    banks = [_embed(f, projection) for f in bank_feats]
    sums = np.stack([e.sum(axis=0) for e, _ in banks])
    sizes = np.asarray([e.shape[0] for e, _ in banks])

    centroids = np.broadcast_to(sums / sizes[:, None], (n, n_spk, dim)).copy()
    for j in range(n):
        z = labels[j]
        if member_pos[j] >= 0:
            if sizes[z] < 2:
                raise ValueError("exclude-self needs at least 2 bank members")
            centroids[j, z] = (sums[z] - banks[z][0][member_pos[j]]) / (sizes[z] - 1)

    value, _, g_probe, d_cent, dw = _ge2e_core(pe, labels, centroids, w)
    dP = np.zeros_like(projection)
    for j in range(n):
        _chain(dP, g_probe[j], pe[j], pn[j], probe_feats[j])
    for i in range(n_spk):
        e, norms = banks[i]
        g_shared = np.zeros(dim)  # plain-mean contributions
        g_excl = np.zeros((e.shape[0], dim))  # exclude-self corrections
        for j in range(n):
            if labels[j] == i and member_pos[j] >= 0:
                g = d_cent[j, i] / (sizes[i] - 1)
                g_excl += g
                g_excl[member_pos[j]] -= g
            else:
                g_shared += d_cent[j, i] / sizes[i]
        for u in range(e.shape[0]):
            _chain(dP, g_shared + g_excl[u], e[u], norms[u], bank_feats[i][u])
    return value, dP, dw


def ce_batch(
    projection: np.ndarray,
    query_feats: np.ndarray,
    labels: np.ndarray,
    head_w: np.ndarray,
    head_b: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-entropy speaker classification over one batch."""
    n = query_feats.shape[0]
    qe, qn = _embed(query_feats, projection)
    value, _, g_logit = _ce_core(qe @ head_w.T + head_b, labels)
    dW = g_logit.T @ qe
    db = g_logit.sum(axis=0)
    dP = np.zeros_like(projection)
    for j in range(n):
        _chain(dP, head_w.T @ g_logit[j], qe[j], qn[j], query_feats[j])
    return value, dP, dW, db


def _estimate_table(corpus: Corpus, epoch: int, frontend: FrontendConfig | None):
    """Every sample's toy-separator estimate, with the epoch folded into the
    seed, as its reconstruction loss (negative SI-SDR against the target)
    and, given a front-end, its pooled features (else None). One estimate
    is alive at a time."""
    cfg = replace(corpus.confusion, seed=fold_seed(corpus.confusion.seed, epoch))
    recon = np.empty(len(corpus.samples))
    feats = []
    for m, s in enumerate(corpus.samples):
        est = toy_separator(s, cfg)
        recon[m] = -si_sdr(est, s.source_target)
        if frontend is not None:
            feats.append(pooled_features(est, frontend))
    return recon, None if frontend is None else np.stack(feats)


def _pool_features(corpus: Corpus, frontend: FrontendConfig, task: str):
    """Pooled features of labeled_utterances(corpus), their speaker labels
    0..K-1 in speaker-id order, and the K speaker ids."""
    pool = labeled_utterances(corpus)
    speakers, labels = np.unique([lab for _, lab, _ in pool], return_inverse=True)
    if speakers.size < 2:
        raise CorpusError(f"{task} requires at least 2 speakers")
    return np.stack([pooled_features(w, frontend) for _, _, w in pool]), labels, speakers


def train_encoder(
    corpus: Corpus, config: TrainConfig
) -> tuple[ToyEncoder, GE2EParams | None, TrainReport]:
    """Train the encoder projection (and GE2E scale or CE head) on a corpus.

    Deterministic for a fixed config seed. Raises CorpusError when the
    corpus is too small and DivergenceError on a non-finite loss.
    """
    feats, pool_label, speakers = _pool_features(corpus, config.frontend, "training")
    n_speakers = speakers.size
    by_speaker = [np.flatnonzero(pool_label == i) for i in range(n_speakers)]
    min_utts = max(2, config.support_size + 1)
    for s, idxs in zip(speakers, by_speaker):
        if idxs.size < min_utts:
            raise CorpusError(
                f"speaker {s} has {idxs.size} utterances, needs at least {min_utts}"
            )
    # Sample m's target speaker: the label of its target enrollment, pool row 4m.
    sample_label = pool_label[_POOL_ENROLL_T::4]

    n_samples = len(corpus.samples)
    projection = init_encoder(
        config.embed_dim, config.frontend, seed=config.seed
    ).projection.copy()

    is_ge2e = config.scheme in ("GL1", "GL2")
    is_proto = config.scheme in ("PL1", "PL2")
    is_triplet = config.scheme in ("TL1", "TL2")
    scheme2 = config.scheme in ("TL2", "PL2", "GL2")
    ge2e = GE2EParams() if is_ge2e else None
    if config.scheme == "CE":
        head_rng = np.random.default_rng([_STREAM_HEAD, config.seed])
        bound = 1.0 / np.sqrt(config.embed_dim)
        head_w = head_rng.uniform(-bound, bound, size=(n_speakers, config.embed_dim))
        head_b = np.zeros(n_speakers)

    if not scheme2:
        recon_all, _ = _estimate_table(corpus, 0, None)
        probes = feats[_POOL_ENROLL_T::4]

    step = config.learning_rate * config.beta
    epoch_losses: list[float] = []
    metric_losses: list[float] = []
    for epoch in range(config.epochs):
        if scheme2:
            recon_all, probes = _estimate_table(corpus, epoch, config.frontend)
        rng = np.random.default_rng([_STREAM_TRAIN, config.seed, epoch])
        if is_proto:
            support_idx = [
                rng.choice(idxs, size=config.support_size, replace=False)
                for idxs in by_speaker
            ]
        if is_ge2e:
            bank_idx = [
                rng.choice(idxs, size=min(config.bank_cap, idxs.size), replace=False)
                for idxs in by_speaker
            ]
            # Each pool row's position in its speaker's bank, or -1; a scheme-2
            # probe is an estimate, never a bank member.
            bank_pos = np.full(len(pool_label), -1)
            if not scheme2:
                for idx in bank_idx:
                    bank_pos[idx] = np.arange(idx.size)
        perm = rng.permutation(n_samples)
        batch_totals: list[float] = []
        batch_metrics: list[float] = []
        for start in range(0, n_samples, config.batch_size):
            batch = perm[start : start + config.batch_size]
            target_lab = sample_label[batch]
            probe_feats = probes[batch]

            if is_triplet:
                value, dP = triplet_batch(
                    projection,
                    feats[4 * batch + _POOL_SOURCE_T],
                    probe_feats,
                    feats[4 * batch + _POOL_ENROLL_I],
                    config.alpha,
                )
            elif is_proto:
                value, dP = prototypical_batch(
                    projection,
                    probe_feats,
                    target_lab,
                    [feats[idx] for idx in support_idx],
                )
            elif is_ge2e:
                value, dP, dw = ge2e_batch(
                    projection,
                    probe_feats,
                    target_lab,
                    [feats[idx] for idx in bank_idx],
                    bank_pos[4 * batch + _POOL_ENROLL_T],
                    ge2e.w,
                )
                ge2e = GE2EParams(w=max(_W_FLOOR, ge2e.w - step * dw))
            else:
                value, dP, dW, db = ce_batch(
                    projection, probe_feats, target_lab, head_w, head_b
                )
                head_w -= step * dW
                head_b -= step * db

            total = multitask_loss(recon_all[batch], value, config.beta)
            if not np.isfinite(total):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            projection -= step * dP
            batch_totals.append(total)
            batch_metrics.append(float(value))
        epoch_losses.append(float(np.mean(batch_totals)))
        metric_losses.append(float(np.mean(batch_metrics)))

    encoder = ToyEncoder(
        projection=projection, frontend=config.frontend, seed=config.seed
    )
    report = TrainReport(
        scheme=config.scheme,
        seed=config.seed,
        epoch_losses=epoch_losses,
        metric_losses=metric_losses,
        final_quality=_quality(feats, pool_label, projection),
    )
    return encoder, ge2e, report


def eval_embedding_quality(enc: ToyEncoder, corpus: Corpus) -> EmbeddingQuality:
    """Mean intra/inter speaker distances and nearest-centroid accuracy.

    Distances are Euclidean between unit-norm embeddings over all
    utterance pairs. For accuracy, the first half of each speaker's
    utterances forms the centroid and the rest are classified to the
    nearest one.
    """
    feats, labels, _ = _pool_features(corpus, enc.frontend, "quality evaluation")
    return _quality(feats, labels, enc.projection)


def _quality(feats: np.ndarray, labels: np.ndarray, projection: np.ndarray) -> EmbeddingQuality:
    """eval_embedding_quality's statistics on pooled features with speaker
    labels 0..K-1 (every label present)."""
    E, _ = _embed(feats, projection)
    gram = np.clip(E @ E.T, -1.0, 1.0)
    dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * gram))
    upper_i, upper_j = np.triu_indices(len(labels), k=1)
    same = labels[upper_i] == labels[upper_j]
    intra = float(dist[upper_i[same], upper_j[same]].mean())
    inter = float(dist[upper_i[~same], upper_j[~same]].mean())

    correct = 0
    total = 0
    centroids = []
    probes: list[tuple[int, np.ndarray]] = []
    for k in range(int(labels.max()) + 1):
        idx = np.flatnonzero(labels == k)
        half = max(1, idx.size // 2)
        centroids.append(E[idx[:half]].mean(axis=0))
        probes.extend((k, E[u]) for u in idx[half:])
    cents = np.stack(centroids)
    for k, e in probes:
        d = np.linalg.norm(cents - e, axis=1)
        correct += int(np.argmin(d) == k)
        total += 1
    return EmbeddingQuality(intra=intra, inter=inter, accuracy=correct / max(1, total))
