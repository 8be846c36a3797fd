import numpy as np
import pytest
from dataclasses import replace

from confusionkit import training
from confusionkit.embedding import encode, init_encoder, l2_distance_normed
from confusionkit.errors import CorpusError
from confusionkit.losses import finite_difference_check
from confusionkit.simulate import ConfusionConfig, build_corpus, toy_separator
from confusionkit.training import (
    TrainConfig,
    ce_batch,
    eval_embedding_quality,
    ge2e_batch,
    prototypical_batch,
    train_encoder,
    triplet_batch,
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

    @pytest.mark.parametrize("scheme,tables", [("PL1", 1), ("GL1", 1), ("PL2", 3), ("GL2", 3)])
    def test_separator_runs_once_per_sample_and_table(
        self, two_speaker_corpus, monkeypatch, scheme, tables
    ):
        """Scheme 1 builds the estimate table once; scheme 2 once per epoch."""
        calls = []

        def counting(sample, cfg):
            calls.append(sample.index)
            return toy_separator(sample, cfg)

        monkeypatch.setattr(training, "toy_separator", counting)
        config = TrainConfig(scheme=scheme, epochs=3, support_size=4, seed=0)
        train_encoder(two_speaker_corpus, config)
        n = len(two_speaker_corpus.samples)
        assert calls == list(range(n)) * tables

    def test_trained_encoder_distinguishes_speakers(self, corpus_small, encoder_trained):
        """Same-speaker segments embed closer than different-speaker ones."""
        s = corpus_small.samples[0]
        anchor = encode(encoder_trained, s.source_target)
        same = encode(encoder_trained, s.enroll_target)
        other = encode(encoder_trained, s.enroll_interferer)
        assert l2_distance_normed(anchor, same) < l2_distance_normed(anchor, other)


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
