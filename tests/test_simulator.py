import copy
import dataclasses
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sp_signal
from scipy.stats import binom

from confusionkit import simulate
from confusionkit.audio import CAP_DB, Waveform, load_wav, save_wav, si_sdr
from confusionkit.errors import CorpusError, ZeroSignalError
from confusionkit.simulate import (
    ConfusionConfig,
    Corpus,
    ExtractionSample,
    build_corpus,
    confusion_draw,
    generate_corpus,
    load_corpus,
    make_extraction_sample,
    make_speakers,
    subset,
    swap_roles,
    synth_utterance,
    toy_separator,
    utterance_params,
)

TESTS_DIR = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def speakers():
    return make_speakers(4, seed=3)


def check_block_edges():
    """synth_utterance equals _one_shot_synth byte for byte at block edges."""
    cases = [
        (4095, 4096),  # one short block
        (4096, 4096),  # n = block
        (4097, 4096),  # n = block + 1
        (4097, 2048),  # a 1-row tail
        (6146, 2048),  # a 2-row tail
        (28000, 2048),  # the 3.5 s utterances of a 3 s sample
    ]
    by_f0 = sorted(make_speakers(8, seed=42), key=lambda spk: spk.fundamental_f0)
    shipped = simulate._SYNTH_BLOCK
    try:
        for n, block in cases:
            simulate._SYNTH_BLOCK = block
            for spk in (by_f0[0], by_f0[-1]):  # the most and the fewest harmonics
                got = synth_utterance(spk, n / simulate.SAMPLE_RATE, seed=n).samples
                want = _one_shot_synth(spk, n, seed=n)
                assert got.tobytes() == want.tobytes(), (n, block, spk.id)
    finally:
        simulate._SYNTH_BLOCK = shipped


def _one_shot_synth(spk, n, seed):
    """synth_utterance with the harmonic sum as one n x K product."""
    f0, formants = utterance_params(spk, seed)
    rng = simulate._derive_seed(simulate._STREAM_UTTERANCE, spk.id, seed, 1)
    t = np.arange(n) / simulate.SAMPLE_RATE
    k = np.arange(1, max(1, int(simulate.FREQ_CEIL // f0)) + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(k))
    amplitudes = 1.0 / k.astype(np.float64) ** 2
    source = np.sin(np.outer(t, 2.0 * np.pi * f0 * k) + phases) @ amplitudes
    shaped = source.copy()
    for f_c, bw in zip(formants, spk.formant_bandwidths):
        b, a = sp_signal.iirpeak(f_c, Q=f_c / bw, fs=simulate.SAMPLE_RATE)
        shaped += 0.5 * sp_signal.lfilter(b, a, source)
    duration_s = n / simulate.SAMPLE_RATE
    knots = max(3, int(np.ceil(duration_s * 3.0)) + 1)
    knot_pos = np.linspace(0.0, n - 1, knots)
    shaped *= np.interp(np.arange(n), knot_pos, rng.uniform(0.4, 1.0, size=knots))
    return shaped * (0.9 / np.max(np.abs(shaped)))


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
        with pytest.raises(ValueError, match="no finite sample count"):
            synth_utterance(speakers[0], 1e308, seed=0)

    def test_blocked_harmonic_sum_matches_one_shot(self):
        """Run at one BLAS thread, where the one-shot product is defined for
        every length: with more threads, gemv's split of the rows between
        threads changes its last bits for some lengths."""
        env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
        paths = [str(TESTS_DIR.parent / "src"), str(TESTS_DIR), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import test_simulator; test_simulator.check_block_edges()"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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
        assert si_sdr(est, s.source_target) - si_sdr(s.mixture, s.source_target) < -30.0

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

    def test_kept_draw_equals_a_fresh_stream(self, speakers):
        """The draw kept on the mixture decides as a fresh stream would: for
        both roles, for other indices sharing the mixture, for the same seed's
        probabilities in either order, and on a deep copy, which starts empty."""
        sample = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=18)

        def fresh(s, cfg):
            rng = np.random.default_rng([3, cfg.seed, s.index, int(s.swapped)])
            return bool(rng.random() < cfg.probability)

        configs = [ConfusionConfig(probability=p, seed=6) for p in (0.0, 0.3, 0.7, 1.0)]
        roles = [sample, swap_roles(sample)]
        roles += [dataclasses.replace(r, index=k) for r in roles for k in range(1, 6)]
        for order in (configs, configs[::-1]):
            for s in copy.deepcopy(roles):
                for cfg in order:
                    assert confusion_draw(s, cfg) is fresh(s, cfg)
        # The cases differ: some role's uniform lies between 0.3 and 0.7, and
        # the roles' decisions at 0.7 are not all alike.
        assert any(fresh(s, configs[1]) != fresh(s, configs[2]) for s in roles)
        assert {fresh(s, configs[2]) for s in roles} == {False, True}
        confusion_draw(sample, configs[1])
        copied = copy.deepcopy(sample)
        assert sample.mixture.derived and copied.mixture.derived == {}
        assert confusion_draw(copied, configs[2]) is fresh(copied, configs[2])

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

    def test_sample_and_config_are_immutable(self, speakers):
        sample = make_extraction_sample(speakers[0], speakers[1], 1.0, seed=3)
        cfg = ConfusionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.spk_target = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.swapped = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1
        assert hash(cfg) == hash(ConfusionConfig())
        assert dataclasses.replace(sample) == sample
        assert dataclasses.replace(sample, index=1) != sample

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConfusionConfig(probability=1.5)
        with pytest.raises(ValueError):
            ConfusionConfig(leakage=1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="noise SNR"):
                ConfusionConfig(noise_snr_db=bad)
        ConfusionConfig(noise_snr_db=None)  # no added noise


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
        speakers = make_speakers(3, 9)
        for corpus, seed in ((a, 50), (b, 51)):
            s = corpus.samples[0]
            expect = make_extraction_sample(
                speakers[s.spk_target], speakers[s.spk_interferer], 1.0, seed, index=0
            )
            np.testing.assert_array_equal(s.mixture.samples, expect.mixture.samples)
        assert not np.array_equal(
            a.samples[0].mixture.samples, b.samples[0].mixture.samples
        )

    def test_pool_size_leaves_output_unchanged(self, monkeypatch):
        pools = []

        class Recording(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)

        def build():
            return build_corpus(4, 6, ConfusionConfig(probability=0.5, seed=4), 2.0, seed=54)

        def fingerprint(corpus):
            return [
                (s.index, s.spk_target, s.spk_interferer, s.swapped, flag)
                + tuple(
                    w.samples.tobytes()
                    for w in (s.mixture, s.source_target, s.source_interferer,
                              s.enroll_target, s.enroll_interferer)
                )
                for s, flag in zip(corpus.samples, corpus.confused_flags)
            ]

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        default = fingerprint(build())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = fingerprint(build())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        wide = fingerprint(build())
        assert [i for i, *_ in serial] == list(range(6))
        assert default == serial
        assert wide == serial
        # Never more threads than samples or available CPUs.
        assert pools == [min(6, cpus), 1, 6]

    def test_sample_error_reaches_caller(self, monkeypatch):
        error = RuntimeError("sample 3 failed")
        original = simulate.make_extraction_sample

        def failing(*args, index, **kwargs):
            if index == 3:
                raise error
            return original(*args, index=index, **kwargs)

        monkeypatch.setattr(simulate, "make_extraction_sample", failing)
        with pytest.raises(RuntimeError) as info:
            build_corpus(3, 6, ConfusionConfig(seed=2), 1.0, seed=55)
        assert info.value is error

    def test_flags_follow_the_samples(self):
        """confused_flags is derived, so it stays right under dataclasses.replace."""
        corpus = build_corpus(3, 5, ConfusionConfig(probability=0.5, seed=2), 1.0, seed=57)
        part = dataclasses.replace(corpus, samples=corpus.samples[:2])
        assert part.confused_flags == [
            confusion_draw(s, corpus.confusion) for s in corpus.samples[:2]
        ]
        assert [f.name for f in dataclasses.fields(Corpus)] == ["samples", "confusion"]

    def test_empty_corpus(self):
        corpus = build_corpus(3, 0, ConfusionConfig(seed=2), 1.0, seed=56)
        assert corpus.samples == []
        assert corpus.confused_flags == []
        with pytest.raises(ValueError, match="sample count"):
            build_corpus(3, -3, ConfusionConfig(seed=2), 1.0, seed=56)

    @pytest.mark.parametrize("duration", [float("inf"), 1e308, float("nan"), 0.01, 0.49, -0.3])
    @pytest.mark.parametrize("n_samples", [0, 2])
    def test_duration_must_be_finite_and_half_a_second(self, duration, n_samples):
        with pytest.raises(ValueError, match="duration must be finite and at least 0.5 s"):
            build_corpus(3, n_samples, ConfusionConfig(seed=2), duration, seed=56)

    def test_half_second_duration_accepted(self):
        corpus = build_corpus(3, 1, ConfusionConfig(seed=2), 0.5, seed=56)
        assert len(corpus.samples[0].mixture) == 4000

    def test_subset_preserves_indices(self):
        corpus = build_corpus(3, 6, ConfusionConfig(seed=2), 1.0, seed=52)
        sub = subset(corpus, [1, 4])
        assert [s.index for s in sub.samples] == [1, 4]
        assert sub.confused_flags == [corpus.confused_flags[1], corpus.confused_flags[4]]


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

    @staticmethod
    def rewrite_rows(manifest, keep, edit=None):
        """Rewrite the manifest with rows keep (0-based, after the header)."""
        header, *rows = manifest.read_text().splitlines()
        rows = [rows[i] for i in keep]
        if edit is not None:
            rows = [edit(r) for r in rows]
        manifest.write_text("\n".join([header, *rows]) + "\n")

    def test_subset_manifest_keeps_sample_identity(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 6, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        full = load_corpus(manifest)
        self.rewrite_rows(manifest, [5, 1, 3])
        part = load_corpus(manifest)
        assert [s.index for s in part.samples] == [5, 1, 3]
        for s, flag in zip(part.samples, part.confused_flags):
            ref = full.samples[s.index]
            assert flag == full.confused_flags[s.index]
            np.testing.assert_array_equal(
                toy_separator(s, part.confusion).samples,
                toy_separator(ref, full.confusion).samples,
            )

    def test_flipped_flag_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 6, cfg, tmp_path / "s", duration_s=1.0, seed=37)

        def flip(row):
            head, flag = row.rsplit(",", 1)
            return f"{head},{1 - int(flag)}"

        self.rewrite_rows(manifest, [2], edit=flip)
        with pytest.raises(CorpusError, match="sample_00002"):
            load_corpus(manifest)

    def test_malformed_sample_id_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        self.rewrite_rows(manifest, [0], edit=lambda r: r.replace("sample_00000,", "s0,", 1))
        with pytest.raises(CorpusError, match="'s0'"):
            load_corpus(manifest)

    @pytest.mark.parametrize("sid", ["sample_1", "sample_000001"])
    def test_noncanonical_sample_id_rejected(self, tmp_path, sid):
        """Every output names a sample by its canonical id, so the manifest must too."""
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        self.rewrite_rows(manifest, [1], edit=lambda r: r.replace("sample_00001,", f"{sid},", 1))
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == (
            f"{manifest}: sample_id {sid!r} is not canonical, expected 'sample_00001'"
        )

    def test_missing_column_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        rows = [line.split(",") for line in manifest.read_text().splitlines()]
        drop = rows[0].index("spk_interferer")
        manifest.write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows))
        with pytest.raises(CorpusError, match=r"manifest\.csv: missing columns \['spk_interferer'\]"):
            load_corpus(manifest)

    def test_short_row_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        self.rewrite_rows(manifest, [0, 1], edit=lambda r: r.rsplit(",", 1)[0])
        with pytest.raises(CorpusError, match="'sample_00000' has fewer fields"):
            load_corpus(manifest)

    def test_repeated_sample_id_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        self.rewrite_rows(manifest, [0, 1, 0])
        with pytest.raises(CorpusError, match="'sample_00000' is listed twice"):
            load_corpus(manifest)

    @pytest.mark.parametrize(
        "key", ["seed", "speaker_seed", "speaker_count", "duration_s", "confusion"]
    )
    def test_meta_missing_key_rejected(self, tmp_path, key):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        meta_path = manifest.parent / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CorpusError, match=f"meta.json: missing key '{key}'"):
            load_corpus(manifest)

    def test_meta_nonfinite_noise_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        meta_path = manifest.parent / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["confusion"]["noise_snr_db"] = float("nan")
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CorpusError, match="meta.json: malformed metadata"):
            load_corpus(manifest)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "x", None])
    def test_meta_malformed_confusion_seed_rejected(self, tmp_path, seed):
        """1.5 once escaped as a TypeError, true loaded as seed 1, and the
        rest failed in numpy with a message naming no file."""
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        meta_path = manifest.parent / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["confusion"]["seed"] = seed
        meta_path.write_text(json.dumps(meta))
        message = f"malformed metadata (confusion seed must be a non-negative integer, got {seed!r})"
        with pytest.raises(CorpusError, match=re.escape(f"meta.json: {message}")):
            load_corpus(manifest)

    @pytest.mark.parametrize(
        "column,value,message",
        [("spk_target", "x", "spk_target 'x', expected an integer"),
         ("spk_target", "", "spk_target '', expected an integer"),
         ("spk_interferer", "1.0", "spk_interferer '1.0', expected an integer"),
         ("confused_flag", "yes", "confused_flag 'yes', expected an integer"),
         ("confused_flag", "2", "confused_flag 2, expected 0 or 1"),
         ("confused_flag", "-1", "confused_flag -1, expected 0 or 1")],
    )
    def test_malformed_integer_cell_rejected(self, tmp_path, column, value, message):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        position = simulate.MANIFEST_FIELDS.index(column)

        def edit(row):
            cells = row.split(",")
            cells[position] = value
            return ",".join(cells)

        self.rewrite_rows(manifest, [1], edit=edit)
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == f"{manifest}: sample_00001 has {message}"

    @pytest.mark.parametrize(
        "wav,edit,message",
        [("sample_00001_source_target", lambda w: Waveform(w.samples[:5000], w.sample_rate),
          "sample_00001 has source_target of 5000 samples, its mixture of 8000"),
         ("sample_00002_enroll_target", lambda w: Waveform(w.samples, 16000),
          "sample_00002 has enroll_target at 16000 Hz, its mixture at 8000 Hz"),
         ("sample_00002_mixture", lambda w: Waveform(w.samples, 16000),
          "sample_00002 has source_target at 8000 Hz, its mixture at 16000 Hz")],
        ids=["short_source", "enrollment_at_16k", "mixture_at_16k"],
    )
    def test_row_waveforms_disagreeing_with_the_mixture_rejected(self, tmp_path, wav, edit, message):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 4, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        path = manifest.parent / "wav" / f"{wav}.wav"
        save_wav(edit(load_wav(path)), path)
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == f"{manifest}: {message}"

    @pytest.mark.parametrize("column", ["mixture", "enroll_target", "enroll_interferer"])
    def test_wav_shorter_than_one_frame_rejected(self, tmp_path, column):
        """A 199-sample WAV cannot make one 200-sample front-end frame at 8 kHz."""
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        path = manifest.parent / "wav" / f"sample_00001_{column}.wav"
        original = load_wav(path)
        save_wav(Waveform(original.samples[:199], 8000), path)
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == (f"{manifest}: sample_00001 has {column} of 199 samples, "
                                   "shorter than one 200-sample front-end frame")
        save_wav(Waveform(original.samples[:200], 8000), path)
        if column != "mixture":  # a one-frame mixture is still shorter than its sources
            assert len(getattr(load_corpus(manifest).samples[1], column)) == 200

    @pytest.mark.parametrize("rate", [1, 40, 50])
    def test_rate_with_a_zero_sample_hop_rejected(self, tmp_path, rate):
        """At 50 Hz and below the front-end's 10 ms hop rounds to 0 samples;
        1301 Hz, the lowest rate that fills every mel band, loads."""
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        wavs = sorted((manifest.parent / "wav").glob("*.wav"))
        for path in wavs:
            save_wav(Waveform(load_wav(path).samples, rate), path)
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == (f"{manifest}: sample_00000 has mixture at {rate} Hz, "
                                   "where the front-end's 10 ms hop is 0 samples")
        for path in wavs:
            save_wav(Waveform(load_wav(path).samples, 1301), path)
        assert load_corpus(manifest).samples[0].mixture.sample_rate == 1301

    @pytest.mark.parametrize("rate,empty", [(51, 40), (1300, 10), (2580, 1)])
    def test_rate_with_an_empty_mel_band_rejected(self, tmp_path, rate, empty):
        """Above 50 Hz the hop is at least 1 sample, but below 1301 Hz and at
        1944-2580 Hz some mel bands hold no FFT bin."""
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        for path in (manifest.parent / "wav").glob("*.wav"):
            save_wav(Waveform(load_wav(path).samples, rate), path)
        with pytest.raises(CorpusError) as info:
            load_corpus(manifest)
        assert str(info.value) == (f"{manifest}: sample_00000 has mixture at {rate} Hz, "
                                   f"where {empty} of the front-end's 40 mel bands are empty")

    def test_enrollments_of_another_length_accepted(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        path = manifest.parent / "wav" / "sample_00001_enroll_interferer.wav"
        save_wav(Waveform(load_wav(path).samples[:5000], 8000), path)
        assert len(load_corpus(manifest).samples[1].enroll_interferer) == 5000

    def test_meta_not_json_rejected(self, tmp_path):
        cfg = ConfusionConfig(probability=0.5, seed=10)
        manifest = generate_corpus(3, 2, cfg, tmp_path / "s", duration_s=1.0, seed=37)
        meta_path = manifest.parent / "meta.json"
        meta_path.write_text(meta_path.read_text()[:2])
        with pytest.raises(CorpusError, match=f"^{meta_path}: malformed metadata \\(Expecting"):
            load_corpus(manifest)

    def test_load_roundtrip(self, tmp_path):
        cfg = ConfusionConfig(probability=0.2, seed=9)
        manifest = generate_corpus(3, 5, cfg, tmp_path / "r", duration_s=1.0, seed=36)
        corpus = load_corpus(manifest)
        assert len(corpus.samples) == 5
        assert len(corpus.samples[0].mixture) == 8000
        assert corpus.confusion.probability == 0.2
        rebuilt = build_corpus(3, 5, cfg, duration_s=1.0, seed=36)
        got = corpus.samples[2].mixture.samples
        expect = rebuilt.samples[2].mixture.samples.astype(np.float32)
        np.testing.assert_array_equal(got, expect.astype(np.float64))
