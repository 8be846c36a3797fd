"""Desk-scale gradient-descent training of the toy encoder.

Plain full-gradient descent per batch under a chosen metric-learning
scheme (triplet, prototypical, generalized end-to-end, or the
cross-entropy baseline), combined with precomputed reconstruction losses
in the multi-task objective. Scheme-2 variants consume toy-separator
estimates regenerated each epoch with the epoch folded into the seed.
Scheme-1 variants never embed an estimate, and the encoder is not
coupled to the separator, so their reconstruction losses carry no
gradient: they are computed once, from the epoch-0 estimates.

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
from .simulate import (
    ConfusionConfig,
    Corpus,
    ExtractionSample,
    fold_seed,
    labeled_utterances,
    toy_separator,
)

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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.support_size < 1:
            raise ValueError("support size must be at least 1")
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
    b: float,
) -> tuple[float, np.ndarray, float]:
    """Generalized end-to-end loss over one batch.

    member_pos[j] is the probe's row inside its own speaker's bank (or -1),
    driving the exclude-self centroid. Gradients flow through probes and
    through every bank member behind each centroid; the bias b cancels in
    the softmax and receives none.
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


def _separate(samples: list[ExtractionSample], confusion: ConfusionConfig, epoch: int):
    """Toy-separator estimates with the epoch folded into the seed, and
    their reconstruction losses (negative SI-SDR against the target)."""
    cfg = replace(confusion, seed=fold_seed(confusion.seed, epoch))
    estimates = [toy_separator(s, cfg) for s in samples]
    recon = [-si_sdr(est, s.source_target) for est, s in zip(estimates, samples)]
    return estimates, recon


def train_encoder(
    corpus: Corpus, config: TrainConfig
) -> tuple[ToyEncoder, GE2EParams | None, TrainReport]:
    """Train the encoder projection (and GE2E scale or CE head) on a corpus.

    Deterministic for a fixed config seed. Raises CorpusError when the
    corpus is too small and DivergenceError on a non-finite loss.
    """
    pool = labeled_utterances(corpus)
    labels_raw = [lab for _, lab, _ in pool]
    speakers = sorted(set(labels_raw))
    if len(speakers) < 2:
        raise CorpusError("training requires at least 2 speakers")
    speaker_index = {s: i for i, s in enumerate(speakers)}
    n_speakers = len(speakers)
    min_utts = max(2, config.support_size + 1)
    for s in speakers:
        have = labels_raw.count(s)
        if have < min_utts:
            raise CorpusError(
                f"speaker {s} has {have} utterances, needs at least {min_utts}"
            )

    feats = np.stack([pooled_features(w, config.frontend) for _, _, w in pool])
    pool_label = np.asarray([speaker_index[lab] for lab in labels_raw])
    by_speaker = [np.flatnonzero(pool_label == i) for i in range(n_speakers)]

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
        recon_fixed = np.asarray(_separate(corpus.samples, corpus.confusion, 0)[1])

    step = config.learning_rate * config.beta
    epoch_losses: list[float] = []
    metric_losses: list[float] = []
    for epoch in range(config.epochs):
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
        perm = rng.permutation(n_samples)
        batch_totals: list[float] = []
        batch_metrics: list[float] = []
        for start in range(0, n_samples, config.batch_size):
            batch = perm[start : start + config.batch_size]
            samples = [corpus.samples[m] for m in batch]
            target_lab = np.asarray([speaker_index[s.spk_target] for s in samples])
            if scheme2:
                estimates, recon = _separate(samples, corpus.confusion, epoch)
                probe_feats = np.stack(
                    [pooled_features(est, config.frontend) for est in estimates]
                )
            else:
                recon = recon_fixed[batch]
                probe_feats = feats[4 * batch + _POOL_ENROLL_T]

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
                member_pos = np.full(len(batch), -1)
                if not scheme2:
                    for j, m in enumerate(batch):
                        hits = np.flatnonzero(
                            bank_idx[target_lab[j]] == 4 * m + _POOL_ENROLL_T
                        )
                        if hits.size:
                            member_pos[j] = hits[0]
                value, dP, dw = ge2e_batch(
                    projection,
                    probe_feats,
                    target_lab,
                    [feats[idx] for idx in bank_idx],
                    member_pos,
                    ge2e.w,
                    ge2e.b,
                )
                ge2e = GE2EParams(w=max(_W_FLOOR, ge2e.w - step * dw), b=ge2e.b)
            else:
                value, dP, dW, db = ce_batch(
                    projection, probe_feats, target_lab, head_w, head_b
                )
                head_w -= step * dW
                head_b -= step * db

            total = multitask_loss(recon, value, config.beta)
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
    pool = labeled_utterances(corpus)
    labels_raw = [lab for _, lab, _ in pool]
    speakers = sorted(set(labels_raw))
    if len(speakers) < 2:
        raise CorpusError("quality evaluation requires at least 2 speakers")
    feats = np.stack([pooled_features(w, enc.frontend) for _, _, w in pool])
    labels = np.asarray([speakers.index(lab) for lab in labels_raw])
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
