import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from confusionkit import postfilter
from confusionkit.embedding import encode, init_encoder
from confusionkit.errors import CorpusError
from confusionkit.evaluate import paired_eval_records
from confusionkit.losses import (
    SCHEMES,
    _ce_core,
    _ge2e_core,
    _prototypical_core,
    _triplet_core,
)
from confusionkit.simulate import ConfusionConfig, build_corpus, fold_seed, subset
from confusionkit.training import (
    TrainConfig,
    _embed_blocks,
    _quality,
    ce_batch,
    eval_embedding_quality,
    ge2e_batch,
    prototypical_batch,
    train_encoder,
    triplet_batch,
)

from oracles import (
    embedding_quality_oracle,
    finite_difference_check,
    l2_distance_oracle,
)


@pytest.fixture(scope="module")
def two_speaker_corpus():
    """2 speakers, 12 samples: every sample pairs both speakers."""
    return build_corpus(
        2,
        12,
        ConfusionConfig(probability=0.1, leakage=0.05, noise_snr_db=20.0, seed=2),
        duration_s=1.0,
        seed=17,
    )


class TestTrainEncoder:
    def test_loss_decreases(self, two_speaker_corpus):
        config = TrainConfig(scheme="PL1", epochs=50, support_size=4, seed=0)
        _, _, report = train_encoder(two_speaker_corpus, config)
        assert report.metric_losses[-1] < report.metric_losses[0]
        assert len(report.epoch_losses) == 50

    def test_deterministic_reports(self, two_speaker_corpus):
        config = TrainConfig(scheme="PL1", epochs=10, support_size=4, seed=3)
        enc_a, _, rep_a = train_encoder(two_speaker_corpus, config)
        enc_b, _, rep_b = train_encoder(two_speaker_corpus, config)
        assert rep_a == rep_b
        np.testing.assert_array_equal(enc_a.projection, enc_b.projection)

    def test_single_speaker_rejected(self, two_speaker_corpus):
        lying = replace(
            two_speaker_corpus,
            samples=[
                replace(s, spk_target=0, spk_interferer=0)
                for s in two_speaker_corpus.samples
            ],
        )
        with pytest.raises(CorpusError):
            train_encoder(lying, TrainConfig(scheme="PL1", epochs=1))

    def test_starved_speaker_rejected(self, two_speaker_corpus):
        config = TrainConfig(scheme="PL1", epochs=1, support_size=40)
        with pytest.raises(CorpusError):
            train_encoder(two_speaker_corpus, config)

    def test_ge2e_scheme_returns_params(self, two_speaker_corpus):
        config = TrainConfig(scheme="GL1", epochs=5, support_size=4, seed=1)
        _, ge2e, _ = train_encoder(two_speaker_corpus, config)
        assert ge2e is not None and ge2e.w > 0

    def test_non_ge2e_scheme_returns_none(self, two_speaker_corpus):
        config = TrainConfig(scheme="CE", epochs=5, support_size=4, seed=1)
        _, ge2e, _ = train_encoder(two_speaker_corpus, config)
        assert ge2e is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme="XX")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for bad in (0.0, -0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="learning rate"):
                TrainConfig(learning_rate=bad)
        for bad in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha"):
                TrainConfig(alpha=bad)
            with pytest.raises(ValueError, match="beta"):
                TrainConfig(beta=bad)
        with pytest.raises(ValueError):
            TrainConfig(support_size=0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="bank cap"):
                TrainConfig(bank_cap=bad)
        TrainConfig(alpha=0.0, beta=0.0)  # zero weights are allowed

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("epochs", True), ("batch_size", 2.5), ("support_size", 3.0),
        ("bank_cap", 4.0), ("embed_dim", 4.0), ("embed_dim", False), ("epochs", "3"),
    ])
    def test_non_integer_size_rejected(self, field, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == f"{field.replace('_', ' ')} must be an integer, got {value!r}"

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_embed_dim_below_two_rejected(self, dim):
        with pytest.raises(ValueError, match="^embed dim must be at least 2$"):
            TrainConfig(embed_dim=dim)

    @pytest.mark.parametrize("seed", [1.5, -1, True, None, "0"])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(ValueError) as info:
            TrainConfig(seed=seed)
        assert str(info.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_gl1_needs_two_bank_members(self, two_speaker_corpus):
        """A GL1 probe leaves itself out of its own bank, so a 1-member bank
        is refused up front; a GL2 probe is an estimate, never a member."""
        with pytest.raises(ValueError, match="^bank cap must be at least 2 for GL1"):
            TrainConfig(scheme="GL1", bank_cap=1)
        config = TrainConfig(scheme="GL2", bank_cap=1, epochs=1, support_size=4)
        _, ge2e, _ = train_encoder(two_speaker_corpus, config)
        assert ge2e is not None

    def test_numpy_integers_accepted(self, two_speaker_corpus):
        ints = dict(epochs=np.int64(2), batch_size=np.int32(5), support_size=np.int16(4),
                    bank_cap=np.int64(3), embed_dim=np.uint8(8), seed=np.int64(3))
        enc_np, _, rep_np = train_encoder(two_speaker_corpus, TrainConfig(scheme="GL1", **ints))
        plain = {k: int(v) for k, v in ints.items()}
        enc, _, rep = train_encoder(two_speaker_corpus, TrainConfig(scheme="GL1", **plain))
        assert rep_np == rep
        assert enc_np.projection.tobytes() == enc.projection.tobytes()

    @pytest.mark.parametrize("scheme,tables", [("PL1", 1), ("GL1", 1), ("PL2", 3), ("GL2", 3)])
    def test_separator_runs_once_per_sample_and_table(
        self, two_speaker_corpus, separator_calls, scheme, tables
    ):
        """Scheme 1 reads the estimate table once; scheme 2 once per epoch.
        A fresh copy's samples have no rows yet, so every read computes."""
        corpus = copy.deepcopy(two_speaker_corpus)
        config = TrainConfig(scheme=scheme, epochs=3, support_size=4, seed=0)
        train_encoder(corpus, config)
        n = len(corpus.samples)
        assert separator_calls == list(range(n)) * tables

    @pytest.mark.parametrize("scheme", ["PL1", "PL2"])
    def test_memoized_features_train_the_same_bits(self, corpus_small, log_mel_calls, scheme):
        """A second run on the same corpus object reuses its utterances' pooled
        features and its estimate rows, so it makes no front-end call, and
        matches a run on a fresh copy byte for byte."""
        corpus = copy.deepcopy(corpus_small)
        config = TrainConfig(scheme=scheme, epochs=2, seed=0)
        first, _, _ = train_encoder(corpus, config)
        log_mel_calls.clear()
        again, _, _ = train_encoder(corpus, config)
        assert log_mel_calls == []
        fresh, _, _ = train_encoder(copy.deepcopy(corpus), config)
        assert again.projection.tobytes() == first.projection.tobytes()
        assert fresh.projection.tobytes() == first.projection.tobytes()

    def test_estimate_rows_shared_across_schemes_and_seeds(
        self, two_speaker_corpus, separator_calls
    ):
        """Seven schemes make N rows per epoch of scheme 2, and scheme 1
        reads the epoch-0 ones; another training seed reuses them all and
        trains the bits a fresh copy trains."""
        corpus = copy.deepcopy(two_speaker_corpus)
        n = len(corpus.samples)

        def train_all(corp, seed):
            return [
                train_encoder(corp, TrainConfig(scheme=s, epochs=3, support_size=4, seed=seed))[0]
                for s in SCHEMES
            ]

        train_all(corpus, 0)
        assert len(separator_calls) == n * 3
        separator_calls.clear()
        warm = train_all(corpus, 1)
        assert separator_calls == []
        fresh = train_all(copy.deepcopy(two_speaker_corpus), 1)
        for a, b in zip(warm, fresh):
            assert a.projection.tobytes() == b.projection.tobytes()

    def test_new_confusion_config_makes_fresh_rows(self, two_speaker_corpus, separator_calls):
        """Rows are keyed by the confusion config: another seed is never
        served the old estimates."""
        corpus = copy.deepcopy(two_speaker_corpus)
        config = TrainConfig(scheme="PL1", epochs=1, support_size=4, seed=0)
        train_encoder(corpus, config)
        separator_calls.clear()
        reseeded = replace(corpus, confusion=replace(corpus.confusion, seed=3))
        _, _, report = train_encoder(reseeded, config)
        assert separator_calls == list(range(len(corpus.samples)))
        _, _, fresh = train_encoder(copy.deepcopy(reseeded), config)
        assert report.epoch_losses == fresh.epoch_losses

    def test_subset_reuses_parent_rows(self, two_speaker_corpus, separator_calls):
        corpus = copy.deepcopy(two_speaker_corpus)
        config = TrainConfig(scheme="PL2", epochs=2, support_size=2, seed=0)
        train_encoder(corpus, config)
        separator_calls.clear()
        train_encoder(subset(corpus, [5, 0, 3, 8, 1, 10]), config)
        assert separator_calls == []

    def test_training_scores_estimates_not_mixtures(self, two_speaker_corpus, monkeypatch):
        """Every epoch's estimate is scored against the target, but no
        mixture: only scoring reads the mixture's own SI-SDR."""
        scored = []
        si_sdr = postfilter.si_sdr

        def counting(est, ref):
            scored.append(est)
            return si_sdr(est, ref)

        monkeypatch.setattr(postfilter, "si_sdr", counting)
        corpus = copy.deepcopy(two_speaker_corpus)
        train_encoder(corpus, TrainConfig(scheme="PL2", epochs=3, support_size=4, seed=0))
        mixtures = {id(s.mixture) for s in corpus.samples}
        assert len(scored) == 3 * len(corpus.samples)
        assert not any(id(w) in mixtures for w in scored)
        keys = [key for s in corpus.samples for key in s.mixture.derived]
        assert len(keys) == len(scored)
        assert all(isinstance(cfg, ConfusionConfig) and kind == "train" for _, cfg, kind in keys)

    def test_scoring_reads_no_training_row(self, two_speaker_corpus, separator_calls):
        """Training keeps its rows apart from scoring's, so a scoring pass
        after it on the same corpus object runs the separator once per
        sample, and a repeated pass reads the whole rows it stored."""
        corpus = copy.deepcopy(two_speaker_corpus)
        config = TrainConfig(scheme="PL2", epochs=2, support_size=4, seed=0)
        enc, _, _ = train_encoder(corpus, config)
        separator_calls.clear()
        first = postfilter.build_validation_records(corpus, enc)
        assert separator_calls == [s.index for s in corpus.samples]
        assert postfilter.build_validation_records(corpus, enc) == first
        assert separator_calls == [s.index for s in corpus.samples]

    def test_scoring_config_equal_to_a_training_epochs(self, two_speaker_corpus, separator_calls):
        """Scoring under the config a training epoch used reads none of that
        epoch's rows: it runs the separator once per role, and its records
        equal those of a fresh copy."""
        corpus = copy.deepcopy(two_speaker_corpus)
        cfg0 = replace(corpus.confusion, seed=fold_seed(corpus.confusion.seed, 0))
        enc, _, _ = train_encoder(corpus, TrainConfig(scheme="PL2", epochs=1, support_size=4))
        separator_calls.clear()

        def score(corp):
            return (postfilter.build_validation_records(corp, enc), paired_eval_records(corp, enc))

        scored = score(replace(corpus, confusion=cfg0))
        assert separator_calls == [s.index for s in corpus.samples] * 2  # role 1, then role 2
        fresh = copy.deepcopy(corpus)
        assert scored == score(replace(fresh, confusion=cfg0))

    def test_rows_freed_with_their_samples(self, two_speaker_corpus):
        corpus = copy.deepcopy(two_speaker_corpus)
        train_encoder(corpus, TrainConfig(scheme="PL2", epochs=1, support_size=4, seed=0))
        refs = [weakref.ref(s) for s in corpus.samples]
        mixtures = [weakref.ref(s.mixture) for s in corpus.samples]
        cfg0 = replace(corpus.confusion, seed=fold_seed(corpus.confusion.seed, 0))
        assert all((postfilter._ROLE(s), cfg0, "train") in s.mixture.derived
                   for s in corpus.samples)
        del corpus
        gc.collect()
        assert all(r() is None for r in refs + mixtures)

    def test_waveforms_freed_by_reference_counting_alone(self, two_speaker_corpus):
        """No value stored on a waveform refers to that waveform, so a trained
        and scored corpus frees every waveform without the cycle collector."""
        gc.disable()
        try:
            corpus = copy.deepcopy(two_speaker_corpus)
            config = TrainConfig(scheme="PL2", epochs=1, support_size=4, seed=0)
            enc, _, _ = train_encoder(corpus, config)
            paired_eval_records(corpus, enc)
            refs = [
                weakref.ref(w)
                for s in corpus.samples
                for w in (s.mixture, s.source_target, s.source_interferer,
                          s.enroll_target, s.enroll_interferer)
            ]
            del corpus
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_trained_encoder_distinguishes_speakers(self, corpus_small, encoder_trained):
        """Same-speaker segments embed closer than different-speaker ones."""
        s = corpus_small.samples[0]
        anchor = encode(encoder_trained, s.source_target)
        same = encode(encoder_trained, s.enroll_target)
        other = encode(encoder_trained, s.enroll_interferer)
        assert l2_distance_oracle(anchor, same) < l2_distance_oracle(anchor, other)


_DIGEST_SCHEMES = """
import hashlib, pickle, sys
from confusionkit.training import TrainConfig, train_encoder
with open(sys.argv[1], "rb") as fh:
    corpus = pickle.load(fh)
for scheme in ("TL1", "PL1", "GL1", "CE"):
    encoder, _, _ = train_encoder(corpus, TrainConfig(scheme=scheme, epochs=10, seed=0))
    print(scheme, hashlib.sha256(encoder.projection.tobytes()).hexdigest())
"""


def test_scheme1_training_is_blas_thread_independent(corpus_small, tmp_path):
    """One pickled corpus trained at 1 and at 2 BLAS threads gives the same
    projection bytes. Scheme 2 is left out: the separator's and SI-SDR's long
    dot products split between threads."""
    path = tmp_path / "corpus.pkl"
    with open(path, "wb") as fh:
        pickle.dump(corpus_small, fh)
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCHEMES, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].splitlines()) == 4
    assert digests[0] == digests[1]


class TestEvalEmbeddingQuality:
    def test_degenerate_clusters(self, two_speaker_corpus):
        """Identical utterances per speaker give intra 0 and accuracy 1."""
        base = two_speaker_corpus.samples[0]
        cloned = replace(
            two_speaker_corpus,
            samples=[
                replace(
                    base,
                    source_target=base.enroll_target,
                    source_interferer=base.enroll_interferer,
                    index=i,
                )
                for i in range(4)
            ],
        )
        q = eval_embedding_quality(init_encoder(16, seed=0), cloned)
        assert q.intra == pytest.approx(0.0, abs=1e-9)
        assert q.accuracy == 1.0

    def test_untrained_baseline_recorded(self, corpus_small):
        q = eval_embedding_quality(init_encoder(16, seed=0), corpus_small)
        assert 0.0 < q.intra < 2.0
        assert 0.0 < q.inter < 2.0
        assert 0.0 <= q.accuracy <= 1.0

    def test_trained_beats_untrained_ratio(self, corpus_small, encoder_trained):
        trained = eval_embedding_quality(encoder_trained, corpus_small)
        untrained = eval_embedding_quality(init_encoder(16, seed=0), corpus_small)
        assert trained.ratio > untrained.ratio


class TestBatchGradients:
    """Finite-difference checks of every scheme's projection gradient."""

    def _projection(self, rng, d=5, f=9):
        return rng.normal(scale=0.3, size=(d, f))

    def test_triplet_batch_gradient(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p0 = self._projection(rng)
            a, p, n = (rng.normal(size=(4, 9)) for _ in range(3))

            def ev(flat):
                value, grad = triplet_batch(flat.reshape(5, 9), a, p, n, 1.0)
                return value, grad.ravel()

            assert finite_difference_check(ev, p0.ravel(), eps=1e-6) < 1e-4

    def test_prototypical_batch_gradient(self):
        for seed in range(5):
            rng = np.random.default_rng(10 + seed)
            p0 = self._projection(rng)
            q = rng.normal(size=(3, 9))
            labels = rng.integers(0, 3, size=3)
            support = [rng.normal(size=(4, 9)) for _ in range(3)]

            def ev(flat):
                value, grad = prototypical_batch(
                    flat.reshape(5, 9), q, labels, support
                )
                return value, grad.ravel()

            assert finite_difference_check(ev, p0.ravel(), eps=1e-6) < 1e-4

    def test_ge2e_batch_gradient_with_exclusion(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            p0 = self._projection(rng)
            probes = rng.normal(size=(3, 9))
            labels = np.array([0, 1, 2])
            banks = [rng.normal(size=(4, 9)) for _ in range(3)]
            member_pos = np.array([2, -1, 0])

            def ev(flat):
                value, grad, _ = ge2e_batch(
                    flat.reshape(5, 9), probes, labels, banks, member_pos, 7.0
                )
                return value, grad.ravel()

            assert finite_difference_check(ev, p0.ravel(), eps=1e-6) < 1e-4

    def test_ce_batch_gradient(self):
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            p0 = self._projection(rng)
            q = rng.normal(size=(4, 9))
            labels = rng.integers(0, 3, size=4)
            head_w = rng.normal(size=(3, 5))
            head_b = rng.normal(size=3)

            def ev(flat):
                value, grad, _, _ = ce_batch(
                    flat.reshape(5, 9), q, labels, head_w, head_b
                )
                return value, grad.ravel()

            assert finite_difference_check(ev, p0.ravel(), eps=1e-6) < 1e-4


# Per-row reference backprop: every gradient row projected off its embedding
# and accumulated into dP with np.dot, np.outer and +=, one row at a time.


def _embed_rows(feats, projection):
    raw = feats @ projection.T
    norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None], norms


def _chain_row(dP, g, e, norm, m):
    gu = (g - e * np.dot(e, g)) / norm
    dP += np.outer(gu, m)


def triplet_rows(projection, anchor, positive, negative, alpha):
    n = anchor.shape[0]
    (ea, na), (ep, np_), (en, nn) = (_embed_rows(f, projection) for f in (anchor, positive, negative))
    value, active, dP = 0.0, 0, np.zeros_like(projection)
    for j in range(n):
        v, gu, gv, gw = _triplet_core(ea[j], ep[j], en[j], alpha)
        value += v / n
        if v > 0.0:
            active += 1
            _chain_row(dP, gu / n, ea[j], na[j], anchor[j])
            _chain_row(dP, gv / n, ep[j], np_[j], positive[j])
            _chain_row(dP, gw / n, en[j], nn[j], negative[j])
    return value, dP, active


def prototypical_rows(projection, queries, labels, support):
    qe, qn = _embed_rows(queries, projection)
    sup = [_embed_rows(f, projection) for f in support]
    protos = np.stack([e.mean(axis=0) for e, _ in sup])
    value, _, dQ, dR = _prototypical_core(qe, labels, protos)
    dP = np.zeros_like(projection)
    for j in range(qe.shape[0]):
        _chain_row(dP, dQ[j], qe[j], qn[j], queries[j])
    for k, (e, norms) in enumerate(sup):
        for u in range(e.shape[0]):
            _chain_row(dP, dR[k] / e.shape[0], e[u], norms[u], support[k][u])
    return value, dP


def ge2e_rows(projection, probes, labels, banks, member_pos, w):
    n, n_spk, dim = probes.shape[0], len(banks), projection.shape[0]
    pe, pn = _embed_rows(probes, projection)
    emb = [_embed_rows(f, projection) for f in banks]
    sums = np.stack([e.sum(axis=0) for e, _ in emb])
    sizes = np.asarray([e.shape[0] for e, _ in emb])
    centroids = np.broadcast_to(sums / sizes[:, None], (n, n_spk, dim)).copy()
    for j in range(n):
        z = labels[j]
        if member_pos[j] >= 0:
            if sizes[z] < 2:
                raise ValueError("exclude-self needs at least 2 bank members")
            centroids[j, z] = (sums[z] - emb[z][0][member_pos[j]]) / (sizes[z] - 1)
    value, _, g_probe, d_cent, dw = _ge2e_core(pe, labels, centroids, w)
    dP = np.zeros_like(projection)
    for j in range(n):
        _chain_row(dP, g_probe[j], pe[j], pn[j], probes[j])
    for i, (e, norms) in enumerate(emb):
        g_shared = np.zeros(dim)
        g_excl = np.zeros((e.shape[0], dim))
        for j in range(n):
            if labels[j] == i and member_pos[j] >= 0:
                g = d_cent[j, i] / (sizes[i] - 1)
                g_excl += g
                g_excl[member_pos[j]] -= g
            else:
                g_shared += d_cent[j, i] / sizes[i]
        for u in range(e.shape[0]):
            _chain_row(dP, g_shared + g_excl[u], e[u], norms[u], banks[i][u])
    return value, dP, dw


def ce_rows(projection, queries, labels, head_w, head_b):
    qe, qn = _embed_rows(queries, projection)
    value, _, g_logit = _ce_core(qe @ head_w.T + head_b, labels)
    dP = np.zeros_like(projection)
    for j in range(qe.shape[0]):
        _chain_row(dP, head_w.T @ g_logit[j], qe[j], qn[j], queries[j])
    return value, dP, g_logit.T @ qe, g_logit.sum(axis=0)


class TestBatchBackpropBits:
    """Each batch function's one-pass backprop gives the per-row loop's bytes."""

    D, F = 16, 40

    def _setup(self, seed, n=8, speakers=4):
        rng = np.random.default_rng(seed)
        return (rng, rng.normal(scale=0.3, size=(self.D, self.F)),
                rng.normal(size=(n, self.F)), rng.integers(0, speakers, size=n))

    @staticmethod
    def _same(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_triplet(self, seed):
        rng, P, a, _ = self._setup(seed)
        pos, neg = rng.normal(size=a.shape), rng.normal(size=a.shape)
        pos[:3], neg[:3] = a[:3], -a[:3]  # d_pos 0, d_neg 2: inactive
        value, dP = triplet_batch(P, a, pos, neg, 0.5)
        ref_value, ref_dP, active = triplet_rows(P, a, pos, neg, 0.5)
        assert 0 < active < len(a)
        assert value == ref_value
        self._same(dP, ref_dP)

    def test_triplet_without_an_active_hinge(self):
        """Every positive equals its anchor and alpha is 0: a zero gradient."""
        rng, P, a, _ = self._setup(4)
        neg = rng.normal(size=a.shape)
        value, dP = triplet_batch(P, a, a, neg, 0.0)
        ref_value, ref_dP, active = triplet_rows(P, a, a, neg, 0.0)
        assert active == 0 and value == ref_value == 0.0
        self._same(dP, ref_dP)
        assert not dP.any()

    def test_triplet_with_one_active_hinge(self):
        rng, P, a, _ = self._setup(5)
        pos, neg = a.copy(), -a  # d_pos 0, d_neg 2: inactive
        pos[3], neg[3] = rng.normal(size=self.F), a[3] + 0.01 * rng.normal(size=self.F)
        value, dP = triplet_batch(P, a, pos, neg, 0.5)
        ref_value, ref_dP, active = triplet_rows(P, a, pos, neg, 0.5)
        assert active == 1 and value == ref_value > 0.0
        self._same(dP, ref_dP)

    @pytest.mark.parametrize("support_size", [1, 5])
    def test_prototypical(self, support_size):
        rng, P, q, labels = self._setup(10 + support_size)
        support = [rng.normal(size=(support_size, self.F)) for _ in range(4)]
        value, dP = prototypical_batch(P, q, labels, support)
        ref_value, ref_dP = prototypical_rows(P, q, labels, support)
        assert value == ref_value
        self._same(dP, ref_dP)

    @pytest.mark.parametrize("exclude", [False, True], ids=["plain", "exclude_self"])
    def test_ge2e(self, exclude):
        rng, P, probes, _ = self._setup(20)
        labels = np.array([0, 1, 1, 2, 1, 3, 0, 2])
        banks = [rng.normal(size=(size, self.F)) for size in (4, 5, 2, 3)]
        # Three probes of speaker 1 exclude their own rows, one of them twice.
        member_pos = np.array([2, 0, 4, -1, 0, -1, -1, 1]) if exclude else np.full(8, -1)
        value, dP, dw = ge2e_batch(P, probes, labels, banks, member_pos, 7.0)
        ref_value, ref_dP, ref_dw = ge2e_rows(P, probes, labels, banks, member_pos, 7.0)
        assert (value, dw) == (ref_value, ref_dw)
        self._same(dP, ref_dP)

    # Banks of one size (the training path: one stacked product for all of
    # them), and repeated sizes apart from each other.
    @pytest.mark.parametrize("sizes", [(6, 6, 6, 6), (8, 8, 8, 8), (4, 5, 4, 3, 5)])
    @pytest.mark.parametrize("exclude", [False, True], ids=["plain", "exclude_self"])
    def test_ge2e_stacked_banks(self, sizes, exclude):
        rng, P, probes, _ = self._setup(22 + len(sizes))
        labels = np.array([0, 1, 1, 2, 1, 3, 0, 2])
        banks = [rng.normal(size=(size, self.F)) for size in sizes]
        member_pos = np.array([2, 0, 4, -1, 0, -1, -1, 1]) if exclude else np.full(8, -1)
        value, dP, dw = ge2e_batch(P, probes, labels, banks, member_pos, 7.0)
        ref_value, ref_dP, ref_dw = ge2e_rows(P, probes, labels, banks, member_pos, 7.0)
        assert (value, dw) == (ref_value, ref_dw)
        self._same(dP, ref_dP)

    # Support sets of the queries' size (8), so queries and supports share one
    # product, and repeated sizes apart from each other.
    @pytest.mark.parametrize("sizes", [(8, 8, 8, 8), (4, 5, 4, 3)])
    def test_prototypical_stacked_support(self, sizes):
        rng, P, q, labels = self._setup(12 + sizes[1])
        support = [rng.normal(size=(size, self.F)) for size in sizes]
        value, dP = prototypical_batch(P, q, labels, support)
        ref_value, ref_dP = prototypical_rows(P, q, labels, support)
        assert value == ref_value
        self._same(dP, ref_dP)

    @pytest.mark.parametrize("rows", range(1, 12))
    def test_embed_blocks_match_each_blocks_own_product(self, rows):
        """Twelve stacked blocks of one row count, then one of another, against
        each block's own f @ P.T, np.linalg.norm and sum over its rows."""
        rng, P, _, _ = self._setup(60 + rows)
        blocks = [rng.normal(size=(r, self.F)) for r in [rows] * 12 + [rows % 11 + 1]]
        E, norms, M, sums = _embed_blocks(blocks, P)
        want = [_embed_rows(f, P) for f in blocks]
        self._same(E, np.concatenate([e for e, _ in want]))
        self._same(norms, np.concatenate([n for _, n in want]))
        self._same(M, np.concatenate(blocks))
        self._same(sums, np.stack([e.sum(axis=0) for e, _ in want]))

    def test_ge2e_exclude_self_needs_two_members(self):
        rng, P, probes, _ = self._setup(21, n=2)
        banks = [rng.normal(size=(3, self.F)), rng.normal(size=(1, self.F))]
        with pytest.raises(ValueError, match="at least 2 bank members"):
            ge2e_batch(P, probes, np.array([0, 1]), banks, np.array([-1, 0]), 7.0)

    def test_ce(self):
        rng, P, q, labels = self._setup(30)
        head_w, head_b = rng.normal(size=(4, self.D)), rng.normal(size=4)
        got = ce_batch(P, q, labels, head_w, head_b)
        want = ce_rows(P, q, labels, head_w, head_b)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            self._same(g, w)

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_accuracy(self, seed):
        rng, P, _, _ = self._setup(40 + seed)
        labels = np.concatenate([np.arange(5), rng.integers(0, 5, size=25)])
        feats = rng.normal(size=(labels.size, self.F)) + labels[:, None]
        assert _quality(feats, labels, P).accuracy == embedding_quality_oracle(feats, labels, P)[2]

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_matches_oracle(self, seed):
        """Four speakers with 1, 2, 6 and 11 utterances, shuffled through the pool."""
        rng, P, _, _ = self._setup(50 + seed)
        labels = rng.permutation(np.repeat(np.arange(4), [1, 2, 6, 11]))
        feats = rng.normal(size=(labels.size, self.F)) + labels[:, None]
        q = _quality(feats, labels, P)
        got = np.array([q.intra, q.inter, q.accuracy])
        assert got.tobytes() == np.array(embedding_quality_oracle(feats, labels, P)).tobytes()
