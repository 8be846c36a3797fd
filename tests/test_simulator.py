import filecmp

import numpy as np
import pytest
from scipy.stats import binom

from confusionkit.audio import CAP_DB, Waveform, si_sdr, si_sdr_improvement
from confusionkit.errors import ZeroSignalError
from confusionkit.simulate import (
    ConfusionConfig,
    ExtractionSample,
    build_corpus,
    confusion_draw,
    generate_corpus,
    labeled_utterances,
    load_corpus,
    make_extraction_sample,
    make_speakers,
    subset,
    swap_roles,
    synth_utterance,
    toy_separator,
    utterance_params,
)


@pytest.fixture(scope="module")
def speakers():
    return make_speakers(4, seed=3)


class TestSynthUtterance:
    def test_deterministic(self, speakers):
        a = synth_utterance(speakers[0], 1.0, seed=5)
        b = synth_utterance(speakers[0], 1.0, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_peak_normalized(self, speakers):
        for seed in range(4):
            w = synth_utterance(speakers[1], 1.0, seed=seed)
            assert abs(np.max(np.abs(w.samples)) - 0.9) < 1e-6

    def test_spectral_peak_at_jittered_f0(self, speakers):
        """DFT argmax lands within one bin of the per-utterance f0."""
        for spk in speakers:
            for seed in (0, 1):
                w = synth_utterance(spk, 2.0, seed=seed)
                f0, _ = utterance_params(spk, seed)
                spectrum = np.abs(np.fft.rfft(w.samples))
                peak = int(np.argmax(spectrum))
                expected = f0 * len(w.samples) / w.sample_rate
                assert abs(peak - expected) <= 1.0

    def test_jitter_clamped_to_valid_band(self, speakers):
        for spk in speakers:
            for seed in range(6):
                f0, formants = utterance_params(spk, seed)
                assert 50.0 <= f0 <= 3800.0
                assert all(50.0 <= f <= 3800.0 for f in formants)

    def test_too_short_rejected(self, speakers):
        with pytest.raises(ValueError):
            synth_utterance(speakers[0], 0.2, seed=0)


class TestMakeExtractionSample:
    def test_exact_mixing_identity(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=7)
        residual = s.mixture.samples - (
            s.source_target.samples + s.source_interferer.samples
        )
        assert np.max(np.abs(residual)) == 0.0

    def test_swap_keeps_mixture(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=8)
        m = swap_roles(s)
        np.testing.assert_array_equal(m.mixture.samples, s.mixture.samples)
        assert m.spk_target == s.spk_interferer
        np.testing.assert_array_equal(
            m.source_target.samples, s.source_interferer.samples
        )
        assert m.swapped and not s.swapped

    def test_equal_energy_mixture_sits_near_zero_db(self, speakers):
        """With both sources scaled to equal energy, si_sdr(y, s_t) is ~0 dB."""
        s = make_extraction_sample(speakers[2], speakers[3], 1.5, seed=9)
        st = s.source_target.samples
        si = s.source_interferer.samples
        si = si * np.sqrt(np.dot(st, st) / np.dot(si, si))
        y = Waveform(st + si, 8000)
        got = si_sdr(y, Waveform(st, 8000))
        assert abs(got) <= 1.0

    def test_same_speaker_rejected(self, speakers):
        with pytest.raises(ValueError):
            make_extraction_sample(speakers[0], speakers[0], 1.0, seed=1)

    def test_duration_respected(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[2], 1.0, seed=11)
        for w in (
            s.mixture,
            s.source_target,
            s.source_interferer,
            s.enroll_target,
            s.enroll_interferer,
        ):
            assert len(w) == 8000


class TestToySeparator:
    def test_clean_path_is_target(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=12)
        cfg = ConfusionConfig(probability=0.0, leakage=0.0, noise_snr_db=None, seed=1)
        est = toy_separator(s, cfg)
        assert si_sdr(est, s.source_target) == CAP_DB

    def test_confused_path_is_strongly_negative(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=13)
        cfg = ConfusionConfig(probability=1.0, leakage=0.0, noise_snr_db=None, seed=1)
        est = toy_separator(s, cfg)
        assert si_sdr_improvement(est, s.mixture, s.source_target) < -30.0

    def test_confusion_count_within_binomial_interval(self, speakers):
        """500 seeded Bernoulli draws at p=0.1 fall in the central 99% interval."""
        tiny = Waveform(np.ones(8), 8000)
        cfg = ConfusionConfig(probability=0.1, seed=17)
        count = 0
        for m in range(500):
            sample = ExtractionSample(
                mixture=tiny,
                source_target=tiny,
                source_interferer=tiny,
                enroll_target=tiny,
                enroll_interferer=tiny,
                spk_target=0,
                spk_interferer=1,
                index=m,
            )
            count += confusion_draw(sample, cfg)
        lo, hi = binom.ppf([0.005, 0.995], 500, 0.1)
        assert lo <= count <= hi

    def test_changing_probability_keeps_audio_streams(self, speakers):
        """Noise draws are independent of the flip stream."""
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=14)
        a = toy_separator(s, ConfusionConfig(probability=0.0, leakage=0.0, noise_snr_db=20.0, seed=2))
        b = toy_separator(s, ConfusionConfig(probability=1e-9, leakage=0.0, noise_snr_db=20.0, seed=2))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_deterministic(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=15)
        cfg = ConfusionConfig(probability=0.5, leakage=0.1, noise_snr_db=15.0, seed=3)
        np.testing.assert_array_equal(
            toy_separator(s, cfg).samples, toy_separator(s, cfg).samples
        )

    def test_noise_snr_honored(self, speakers):
        s = make_extraction_sample(speakers[0], speakers[1], 1.5, seed=16)
        cfg = ConfusionConfig(probability=0.0, leakage=0.0, noise_snr_db=20.0, seed=4)
        est = toy_separator(s, cfg)
        # rescaling against the mixture keeps SNR near the configured level
        assert 15.0 < si_sdr(est, s.source_target) < 26.0

    def test_all_zero_estimate_rejected(self):
        silent = Waveform(np.zeros(800), 8000)
        sample = ExtractionSample(silent, silent, silent, silent, silent, 0, 1, index=3)
        cfg = ConfusionConfig(probability=0.0, leakage=0.05, noise_snr_db=None, seed=1)
        with pytest.raises(ZeroSignalError, match="sample 3"):
            toy_separator(sample, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConfusionConfig(probability=1.5)
        with pytest.raises(ValueError):
            ConfusionConfig(leakage=1.0)


class TestCorpus:
    def test_build_corpus_flags_match_draws(self):
        corpus = build_corpus(
            3, 12, ConfusionConfig(probability=0.5, seed=5), duration_s=1.0, seed=31
        )
        redrawn = [confusion_draw(s, corpus.confusion) for s in corpus.samples]
        assert corpus.confused_flags == redrawn

    def test_clean_nonconfused_estimates_near_cap(self, corpus_clean):
        for sample, flag in zip(corpus_clean.samples, corpus_clean.confused_flags):
            est = toy_separator(sample, corpus_clean.confusion)
            value = si_sdr(est, sample.source_target)
            if flag:
                assert value < 0.0
            else:
                assert value >= CAP_DB - 1.0

    def test_speaker_seed_reuses_population(self):
        a = build_corpus(3, 2, ConfusionConfig(seed=1), 1.0, seed=50, speaker_seed=9)
        b = build_corpus(3, 2, ConfusionConfig(seed=1), 1.0, seed=51, speaker_seed=9)
        assert a.speakers == b.speakers
        assert not np.array_equal(
            a.samples[0].mixture.samples, b.samples[0].mixture.samples
        )

    def test_subset_preserves_indices(self):
        corpus = build_corpus(3, 6, ConfusionConfig(seed=2), 1.0, seed=52)
        sub = subset(corpus, [1, 4])
        assert [s.index for s in sub.samples] == [1, 4]
        assert sub.confused_flags == [corpus.confused_flags[1], corpus.confused_flags[4]]

    def test_labeled_utterances_shape(self):
        corpus = build_corpus(3, 5, ConfusionConfig(seed=2), 1.0, seed=53)
        pool = labeled_utterances(corpus)
        assert len(pool) == 20
        uids = [uid for uid, _, _ in pool]
        assert len(set(uids)) == 20


class TestGenerateCorpus:
    def test_manifest_and_files(self, tmp_path):
        cfg = ConfusionConfig(probability=0.4, seed=6)
        manifest = generate_corpus(3, 8, cfg, tmp_path / "c", duration_s=1.0, seed=33)
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert lines[0] == (
            "sample_id,mixture,source_target,source_interferer,"
            "enroll_target,enroll_interferer,spk_target,spk_interferer,confused_flag"
        )
        for row in lines[1:]:
            for rel in row.split(",")[1:6]:
                assert (manifest.parent / rel).exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = ConfusionConfig(probability=0.4, seed=6)
        m1 = generate_corpus(3, 4, cfg, tmp_path / "a", duration_s=1.0, seed=34)
        m2 = generate_corpus(3, 4, cfg, tmp_path / "b", duration_s=1.0, seed=34)
        assert m1.read_bytes() == m2.read_bytes()
        assert (m1.parent / "meta.json").read_bytes() == (
            m2.parent / "meta.json"
        ).read_bytes()
        wav = "wav/sample_00000_mixture.wav"
        assert filecmp.cmp(m1.parent / wav, m2.parent / wav, shallow=False)

    def test_flags_match_separator_branches(self, tmp_path):
        """Manifest flags agree with the separator's actual branch choice."""
        cfg = ConfusionConfig(probability=0.5, leakage=0.0, noise_snr_db=None, seed=8)
        manifest = generate_corpus(3, 10, cfg, tmp_path / "f", duration_s=1.0, seed=35)
        corpus = load_corpus(manifest)
        for sample, flag in zip(corpus.samples, corpus.confused_flags):
            est = toy_separator(sample, corpus.confusion)
            confused_by_metric = si_sdr(est, sample.source_target) < 0.0
            assert confused_by_metric == flag

    def test_load_roundtrip(self, tmp_path):
        cfg = ConfusionConfig(probability=0.2, seed=9)
        manifest = generate_corpus(3, 5, cfg, tmp_path / "r", duration_s=1.0, seed=36)
        corpus = load_corpus(manifest)
        assert len(corpus.samples) == 5
        assert corpus.duration_s == 1.0
        assert corpus.confusion.probability == 0.2
        rebuilt = build_corpus(3, 5, cfg, duration_s=1.0, seed=36)
        got = corpus.samples[2].mixture.samples
        expect = rebuilt.samples[2].mixture.samples.astype(np.float32)
        np.testing.assert_array_equal(got, expect.astype(np.float64))
