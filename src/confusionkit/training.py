"""Desk-scale gradient-descent training of the toy encoder.

Plain full-gradient descent per batch under a chosen metric-learning
scheme (triplet, prototypical, generalized end-to-end, or the
cross-entropy baseline), combined with reconstruction losses in the
multi-task objective. Those losses, and scheme 2's probe features, come
from a per-epoch estimate table: every sample's toy-separator estimate,
with the epoch folded into the seed, reduced one estimate at a time to
its reconstruction loss and pooled features. Scheme-2 variants embed the
estimates, so they read the table every epoch. Scheme-1 variants never
embed an estimate, and the encoder is not coupled to the separator, so
their reconstruction losses carry no gradient: they read the table
once, from the epoch-0 estimates. The table's rows (postfilter.estimate_row) are
kept apart from scoring's and shared by every scheme and seed.

Each scheme's batch objective lives in its own function mapping the
projection matrix to (loss, gradient), so gradients are directly
checkable by finite differences. These functions embed the features
with one stacked product per run of equal-size blocks (_embed_blocks),
with the bits of one product per block, call the objective's core in
``losses`` and backpropagate its embedding gradients into the projection
in one array pass (_chain), with the bits of a per-row loop; they hold no
loss arithmetic of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .embedding import ToyEncoder, init_encoder, pooled_features
from .errors import CorpusError, DivergenceError
from .losses import (
    SCHEMES,
    _ce_core,
    _ge2e_core,
    _prototypical_core,
    _triplet_core,
    multitask_loss,
)
from .postfilter import estimate_row
from .simulate import Corpus, check_number, check_seed, fold_seed

_STREAM_TRAIN = 7
_STREAM_HEAD = 8
# GE2E's learned cosine scale w starts here and never falls below the floor;
# its bias is left out, because it cancels in the softmax.
_W_START = 10.0
_W_FLOOR = 1e-3

# Pool offsets of the four utterances each sample contributes.
_POOL_ENROLL_T = 0
_POOL_ENROLL_I = 1
_POOL_SOURCE_T = 2


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

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("learning_rate", "alpha", "beta"):
            check_number(name.replace("_", " "), getattr(self, name))
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning rate must be finite and positive, got {self.learning_rate!r}"
            )
        for name, least in (("epochs", 1), ("batch_size", 1), ("support_size", 1),
                            ("bank_cap", 1), ("embed_dim", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name.replace('_', ' ')} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name.replace('_', ' ')} must be at least {least}")
        if self.scheme == "GL1" and self.bank_cap < 2:
            raise ValueError("bank cap must be at least 2 for GL1, whose probes "
                             "leave themselves out of their own bank's centroid")
        check_seed("seed", self.seed)
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
    """Rows of feats (n, F), or of a stack of equal-size blocks (k, n, F), through
    the projection, L2-normalized; returns (E, norms). np.matmul runs each
    stacked block's own gemm, so a block's rows have the bits of its own
    ``f @ projection.T`` (one product over concatenated blocks rounds
    differently), and the norm is np.linalg.norm's formula for one real axis."""
    raw = feats @ projection.T
    norms = np.sqrt(np.add.reduce(raw * raw, axis=-1))
    return raw / norms[..., None], norms


def _embed_blocks(blocks: list[np.ndarray], projection: np.ndarray):
    """A batch's feature blocks embedded with one stacked _embed per run of
    consecutive blocks with one row count (a batch's support sets or banks
    sit next to each other, so they share one product unless ragged).

    Returns the unit rows E, their norms and the feature rows M, each
    concatenated in block order, and each block's sum of unit rows; a sum
    adds the rows in order over the stack's row axis, as ``e.sum(axis=0)``
    does for one block.
    """
    E, norms, sums = [], [], []
    for _, run in itertools.groupby(blocks, key=len):
        e, n = _embed(np.array(list(run)), projection)
        E.append(e.reshape(-1, e.shape[2]))
        norms.append(n.ravel())
        sums.append(np.add.reduce(e, axis=1))
    return np.concatenate(E), np.concatenate(norms), np.concatenate(blocks), np.concatenate(sums)


def _chain(G: np.ndarray, E: np.ndarray, norms: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Backprop rows of embedding gradients G through e = P m / |P m| (rows of
    E, norms and M) into the projection, with the bits of a per-row np.dot,
    np.outer and += loop: vecdot rounds as np.dot, and summing the C-contiguous
    (n, D, F) product over its leading axis adds the rows in order. (einsum,
    (E * G).sum(1) and a GU.T @ M gemm each round differently.)"""
    GU = (G - E * np.vecdot(E, G)[:, None]) / norms[:, None]
    return (GU[:, :, None] * M[:, None, :]).sum(axis=0)


def triplet_batch(
    projection: np.ndarray,
    anchor_feats: np.ndarray,
    positive_feats: np.ndarray,
    negative_feats: np.ndarray,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """Batch-mean triplet loss and its gradient w.r.t. the projection."""
    n, dim = anchor_feats.shape[0], projection.shape[0]
    M = np.array([anchor_feats, positive_feats, negative_feats])
    E, norms = _embed(M, projection)
    values, *grads = _triplet_core(*E, alpha)
    active = values > 0.0
    # The mean summed in row order, as a running += does (np.sum adds pairwise).
    value = float(np.cumsum(values / n)[-1])
    # Each active hinge's anchor, positive and negative rows, in that order.
    G, E, norms, M = (x[:, active].swapaxes(0, 1) for x in (np.array(grads), E, norms, M))
    return value, _chain(G.reshape(-1, dim) / n, E.reshape(-1, dim),
                         norms.ravel(), M.reshape(-1, M.shape[2]))


def prototypical_batch(
    projection: np.ndarray,
    query_feats: np.ndarray,
    labels: np.ndarray,
    support_feats: list[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Prototypical loss over one batch; gradients flow through queries
    and through every support member behind each prototype."""
    E, norms, M, sums = _embed_blocks([query_feats, *support_feats], projection)
    sizes = np.array([f.shape[0] for f in support_feats])
    value, _, dQ, dR = _prototypical_core(E[: len(query_feats)], labels, sums[1:] / sizes[:, None])
    # The queries, then each speaker's support members, who share dR[k] / size.
    G = np.concatenate([dQ, np.repeat(dR / sizes[:, None], sizes, axis=0)])
    return value, _chain(G, E, norms, M)


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
    E, norms, M, sums = _embed_blocks([probe_feats, *bank_feats], projection)
    pe, sums = E[:n], sums[1:]
    sizes = np.array([f.shape[0] for f in bank_feats])
    owner = np.repeat(np.arange(sizes.size), sizes)  # bank of each member row

    # Exclude-self probes: their own bank's centroid leaves their own row out.
    jx = np.flatnonzero(member_pos >= 0)
    zx = labels[jx]
    if np.any(sizes[zx] < 2):
        raise ValueError("exclude-self needs at least 2 bank members")
    rows = np.cumsum(sizes)[zx] - sizes[zx] + member_pos[jx]  # among the member rows
    centroids = np.broadcast_to(sums / sizes[:, None], (n, *sums.shape)).copy()
    centroids[jx, zx] = (sums[zx] - E[n + rows]) / (sizes[zx] - 1)[:, None]

    value, _, g_probe, d_cent, dw = _ge2e_core(pe, labels, centroids, w)
    # A member's gradient: the plain-mean shares of the probes not excluding
    # themselves from its bank, plus exclude-self corrections in probe order
    # (+g to the bank, -g to the own row), each summed from +0.0.
    shared = d_cent / sizes[:, None]
    shared[jx, zx] = 0.0
    g = d_cent[jx, zx] / (sizes[zx] - 1)[:, None]
    g_excl = np.zeros((owner.size, g.shape[1]))
    for z, row, g_j in zip(zx, rows, g):
        g_excl[owner == z] += g_j
        g_excl[row] -= g_j
    g_bank = np.add.reduce(shared, axis=0, initial=0.0)[owner] + g_excl
    return value, _chain(np.concatenate([g_probe, g_bank]), E, norms, M), dw


def ce_batch(
    projection: np.ndarray,
    query_feats: np.ndarray,
    labels: np.ndarray,
    head_w: np.ndarray,
    head_b: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-entropy speaker classification over one batch."""
    qe, qn = _embed(query_feats, projection)
    value, _, g_logit = _ce_core(qe @ head_w.T + head_b, labels)
    dW = g_logit.T @ qe
    db = g_logit.sum(axis=0)
    # A stacked matmul makes one gemv per row, as head_w.T @ g_logit[j] did; a
    # single g_logit @ head_w gemm rounds differently.
    G = np.matmul(head_w.T, g_logit[:, :, None])[:, :, 0]
    return value, _chain(G, qe, qn, query_feats), dW, db


def _estimate_table(corpus: Corpus, epoch: int):
    """Every sample's estimate row, with the epoch folded into the seed, as reconstruction
    losses (negative SI-SDR against the target) and stacked pooled features."""
    cfg = replace(corpus.confusion, seed=fold_seed(corpus.confusion.seed, epoch))
    rows = [estimate_row(s, cfg) for s in corpus.samples]
    return np.array([-sdr for sdr, _ in rows]), np.array([pooled for _, pooled in rows])


def _pool_features(corpus: Corpus, task: str):
    """Pooled features of each sample's four utterances in _POOL_* order, their
    speaker labels 0..K-1 in speaker-id order, and the K speaker ids."""
    samples = corpus.samples
    speakers, labels = np.unique(
        [spk for s in samples for spk in (s.spk_target, s.spk_interferer) * 2],
        return_inverse=True)
    if speakers.size < 2:
        raise CorpusError(f"{task} requires at least 2 speakers")
    return np.array([
        pooled_features(w)
        for s in samples
        for w in (s.enroll_target, s.enroll_interferer, s.source_target, s.source_interferer)
    ]), labels, speakers


def train_encoder(
    corpus: Corpus, config: TrainConfig
) -> tuple[ToyEncoder, float | None, TrainReport]:
    """Train the encoder projection (and GE2E scale or CE head) on a corpus;
    returns the encoder, the GE2E scale w (None for other schemes) and a report.

    Deterministic for a fixed config seed. Raises CorpusError when the
    corpus is too small and DivergenceError on a non-finite loss.
    """
    feats, pool_label, speakers = _pool_features(corpus, "training")
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
    projection = init_encoder(config.embed_dim, seed=config.seed).projection.copy()

    is_ge2e = config.scheme in ("GL1", "GL2")
    is_proto = config.scheme in ("PL1", "PL2")
    is_triplet = config.scheme in ("TL1", "TL2")
    scheme2 = config.scheme in ("TL2", "PL2", "GL2")
    w = _W_START
    if config.scheme == "CE":
        head_rng = np.random.default_rng([_STREAM_HEAD, config.seed])
        bound = 1.0 / np.sqrt(config.embed_dim)
        head_w = head_rng.uniform(-bound, bound, size=(n_speakers, config.embed_dim))
        head_b = np.zeros(n_speakers)

    if not scheme2:
        recon_all, _ = _estimate_table(corpus, 0)
        probes = feats[_POOL_ENROLL_T::4]

    step = config.learning_rate * config.beta
    epoch_losses: list[float] = []
    metric_losses: list[float] = []
    for epoch in range(config.epochs):
        if scheme2:
            recon_all, probes = _estimate_table(corpus, epoch)
        rng = np.random.default_rng([_STREAM_TRAIN, config.seed, epoch])
        if is_proto:
            support = [feats[rng.choice(idxs, size=config.support_size, replace=False)]
                       for idxs in by_speaker]
        if is_ge2e:
            bank_idx = [rng.choice(idxs, size=min(config.bank_cap, idxs.size), replace=False)
                        for idxs in by_speaker]
            bank = [feats[idx] for idx in bank_idx]
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
                    support,
                )
            elif is_ge2e:
                value, dP, dw = ge2e_batch(
                    projection,
                    probe_feats,
                    target_lab,
                    bank,
                    bank_pos[4 * batch + _POOL_ENROLL_T],
                    w,
                )
                w = max(_W_FLOOR, w - step * dw)
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

    encoder = ToyEncoder(projection=projection, seed=config.seed)
    report = TrainReport(
        scheme=config.scheme,
        seed=config.seed,
        epoch_losses=epoch_losses,
        metric_losses=metric_losses,
        final_quality=_quality(feats, pool_label, projection),
    )
    return encoder, w if is_ge2e else None, report


def eval_embedding_quality(enc: ToyEncoder, corpus: Corpus) -> EmbeddingQuality:
    """Mean intra/inter speaker distances and nearest-centroid accuracy.

    Distances are Euclidean between unit-norm embeddings over all
    utterance pairs. For accuracy, the first half of each speaker's
    utterances forms the centroid and the rest are classified to the
    nearest one.
    """
    feats, labels, _ = _pool_features(corpus, "quality evaluation")
    return _quality(feats, labels, enc.projection)


def _quality(feats: np.ndarray, labels: np.ndarray, projection: np.ndarray) -> EmbeddingQuality:
    """eval_embedding_quality's statistics on pooled features with speaker
    labels 0..K-1 (every label present)."""
    E, _ = _embed(feats, projection)
    gram = E @ E.T
    n, dim = E.shape
    # Chord distances of the upper-triangle pairs in row-major order; clipping
    # and the distance act per element, so they run on those pairs only.
    order = np.arange(n)
    upper = order[:, None] < order
    dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(gram[upper], -1.0, 1.0)))
    same = (labels[:, None] == labels)[upper]
    intra, inter = float(dist[same].mean()), float(dist[~same].mean())

    # Each label's first half (at least one) of its rows in pool order forms its
    # centroid. A row's rank among its label's rows comes from one stable sort;
    # the heads sit zero-padded in (K, max head, D), so reducing over the middle
    # axis adds each centroid's rows in order, as E[head].mean(axis=0) does, and
    # then zeros, which leave the sum as it is. (np.add.reduceat adds in another
    # order from the third row on.)
    counts = np.bincount(labels)
    by_label = np.argsort(labels, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_label] = order - np.repeat(np.cumsum(counts) - counts, counts)
    half = np.maximum(1, counts // 2)
    head = rank < half[labels]
    padded = np.zeros((counts.size, half.max(), dim))
    padded[labels[head], rank[head]] = E[head]
    cents = np.add.reduce(padded, axis=1) / half[:, None]
    diff = cents - E[~head][:, None, :]
    to_cent = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    correct = int(np.count_nonzero(to_cent.argmin(axis=1) == labels[~head]))
    return EmbeddingQuality(intra=intra, inter=inter, accuracy=correct / max(1, n - int(head.sum())))
