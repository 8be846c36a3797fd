import pytest

from confusionkit import embedding, postfilter
from confusionkit.embedding import init_encoder
from confusionkit.simulate import ConfusionConfig, build_corpus, generate_corpus, toy_separator
from confusionkit.training import TrainConfig, train_encoder


@pytest.fixture(scope="session")
def corpus_small():
    """Shared in-memory corpus: 6 speakers, moderate confusion."""
    return build_corpus(
        6,
        36,
        ConfusionConfig(probability=0.25, leakage=0.03, noise_snr_db=25.0, seed=3),
        duration_s=1.5,
        seed=11,
        speaker_seed=5,
    )


@pytest.fixture(scope="session")
def corpus_clean():
    """Zero-leakage, noise-free corpus for exact-recovery checks."""
    return build_corpus(
        5,
        20,
        ConfusionConfig(probability=0.3, leakage=0.0, noise_snr_db=None, seed=7),
        duration_s=1.5,
        seed=13,
        speaker_seed=5,
    )


@pytest.fixture(scope="session")
def encoder_untrained():
    return init_encoder(16, seed=0)


@pytest.fixture(scope="session")
def encoder_trained(corpus_small):
    """Trained encoder shared by post-filter and evaluation tests."""
    config = TrainConfig(scheme="PL1", epochs=300, learning_rate=0.2, seed=0)
    enc, _, _ = train_encoder(corpus_small, config)
    return enc


@pytest.fixture
def separator_calls(monkeypatch):
    """Index of every sample the separator runs on (for a row, or for
    run_pipeline's audio files), in order."""
    calls = []

    def counting(sample, cfg):
        calls.append(sample.index)
        return toy_separator(sample, cfg)

    monkeypatch.setattr(postfilter, "toy_separator", counting)
    return calls


@pytest.fixture
def log_mel_calls(monkeypatch):
    """Every waveform sent through the log-mel front-end, in call order."""
    calls = []
    original = embedding.log_mel_features

    def counting(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(embedding, "log_mel_features", counting)
    return calls


@pytest.fixture(scope="session")
def disk_corpus(tmp_path_factory):
    """Small corpus written to disk for CLI and I/O tests."""
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(
        4,
        10,
        ConfusionConfig(probability=0.3, leakage=0.05, noise_snr_db=20.0, seed=9),
        out,
        duration_s=1.0,
        seed=21,
    )
    return manifest
