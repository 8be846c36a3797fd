import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from confusionkit.audio import (
    CAP_DB,
    Waveform,
    load_wav,
    mix,
    save_wav,
    si_sdr,
    truncate_random,
)
from confusionkit.errors import (
    ChannelCountError,
    EncodingError,
    LengthMismatchError,
    SampleRateMismatchError,
    ZeroSignalError,
)

from oracles import si_sdr_oracle


class TestWavIO:
    def test_pcm16_scaling_convention(self, tmp_path):
        """Integer sample 16384 maps to 0.5 (divide by 32768)."""
        path = tmp_path / "a.wav"
        wavfile.write(path, 8000, np.array([16384, -16384], dtype=np.int16))
        w = load_wav(path)
        np.testing.assert_allclose(w.samples, [0.5, -0.5])

    def test_header_passthrough(self, tmp_path):
        path = tmp_path / "b.wav"
        wavfile.write(path, 8000, np.zeros(24000, dtype=np.int16))
        w = load_wav(path)
        assert len(w) == 24000
        assert w.sample_rate == 8000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ChannelCountError):
            load_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "int32.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=np.int32))
        with pytest.raises(EncodingError):
            load_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.wav"
        wavfile.write(path, 8000, np.array([0.0, bad, 0.5], dtype=np.float32))
        with pytest.raises(EncodingError, match="nonfinite.wav"):
            load_wav(path)

    @pytest.mark.parametrize("rate, n", [(8000, 0), (0, 4)], ids=["no_samples", "zero_rate"])
    def test_empty_or_zero_rate_names_the_file(self, tmp_path, rate, n):
        """Both would fail in Waveform with a message naming no file."""
        path = tmp_path / "degenerate.wav"
        wavfile.write(path, rate, np.zeros(n, dtype=np.float32))
        with pytest.raises(EncodingError, match=f"degenerate.wav: {n} samples at {rate} Hz"):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_directory_is_not_a_file(self, tmp_path):
        """An empty manifest cell resolves to the corpus directory itself."""
        with pytest.raises(FileNotFoundError, match="no such file"):
            load_wav(tmp_path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"definitely not riff")
        with pytest.raises(EncodingError):
            load_wav(path)

    def test_float32_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-1, 1, 500).astype(np.float32).astype(np.float64)
        w = Waveform(samples, 8000)
        path = tmp_path / "f.wav"
        save_wav(w, path)
        back = load_wav(path)
        assert np.array_equal(back.samples, samples)

    def test_nan_rejected(self, tmp_path):
        w = Waveform(np.array([0.1, np.nan]), 8000)
        with pytest.raises(ValueError):
            save_wav(w, tmp_path / "nan.wav")


class TestWaveform:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 8000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0]), 0)


class TestMix:
    def test_minimum_mode_length(self):
        a = Waveform(np.ones(8), 8000)
        b = Waveform(np.ones(6), 8000)
        assert len(mix(a, b)) == 6

    def test_additive_identity(self):
        s = Waveform(np.arange(5, dtype=float), 8000)
        z = Waveform(np.zeros(10), 8000)
        np.testing.assert_array_equal(mix(s, z).samples, s.samples)

    def test_cancellation(self):
        a = Waveform(np.array([1.0, 1.0]), 8000)
        b = Waveform(np.array([-1.0, -1.0]), 8000)
        np.testing.assert_array_equal(mix(a, b).samples, [0.0, 0.0])

    def test_rate_mismatch(self):
        with pytest.raises(SampleRateMismatchError):
            mix(Waveform(np.ones(4), 8000), Waveform(np.ones(4), 16000))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutative_at_min_length(self, seed):
        rng = np.random.default_rng(seed)
        a = Waveform(rng.normal(size=rng.integers(2, 30)), 8000)
        b = Waveform(rng.normal(size=rng.integers(2, 30)), 8000)
        np.testing.assert_array_equal(mix(a, b).samples, mix(b, a).samples)


class TestTruncateRandom:
    def test_three_seconds_at_8khz(self):
        w = Waveform(np.arange(40000, dtype=float), 8000)
        out = truncate_random(w, 3.0, seed=4)
        assert len(out) == 24000

    def test_exact_length_identity(self):
        w = Waveform(np.arange(8000, dtype=float), 8000)
        out = truncate_random(w, 1.0, seed=99)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_deterministic(self):
        w = Waveform(np.arange(20000, dtype=float), 8000)
        a = truncate_random(w, 1.0, seed=7)
        b = truncate_random(w, 1.0, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_contiguous_slice(self):
        w = Waveform(np.arange(20000, dtype=float), 8000)
        out = truncate_random(w, 1.0, seed=3)
        start = int(out.samples[0])
        np.testing.assert_array_equal(out.samples, w.samples[start : start + 8000])

    def test_too_short(self):
        w = Waveform(np.zeros(100), 8000)
        with pytest.raises(ValueError):
            truncate_random(w, 1.0, seed=0)


class TestSiSdr:
    def test_forced_zero_db(self):
        """Projection [0.5, 0] and residual [0, 0.5] have equal energy."""
        est = Waveform(np.array([0.5, 0.5]), 8000)
        ref = Waveform(np.array([1.0, 0.0]), 8000)
        assert abs(si_sdr(est, ref)) < 1e-6

    def test_perfect_scaled_reconstruction_caps(self):
        ref = Waveform(np.array([0.1, -0.4, 0.3]), 8000)
        est = Waveform(2.0 * ref.samples, 8000)
        assert si_sdr(est, ref) == CAP_DB

    def test_three_sample_case_matches_oracle(self):
        est = Waveform(np.array([0.3, 0.4, 0.1]), 8000)
        ref = Waveform(np.array([1.0, 2.0, 3.0]), 8000)
        got = si_sdr(est, ref)
        expect = si_sdr_oracle([0.3, 0.4, 0.1], [1.0, 2.0, 3.0])
        assert got == pytest.approx(expect, abs=1e-9)
        assert got == pytest.approx(0.66946789, abs=1e-6)

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            est = rng.normal(size=16)
            ref = rng.normal(size=16)
            got = si_sdr(Waveform(est, 8000), Waveform(ref, 8000))
            assert got == pytest.approx(si_sdr_oracle(est, ref), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            si_sdr(Waveform(np.ones(3), 8000), Waveform(np.ones(4), 8000))

    def test_rate_mismatch(self):
        with pytest.raises(SampleRateMismatchError):
            si_sdr(Waveform(np.ones(4), 16000), Waveform(np.arange(4.0), 8000))

    def test_zero_reference(self):
        with pytest.raises(ZeroSignalError):
            si_sdr(Waveform(np.ones(4), 8000), Waveform(np.zeros(4), 8000))

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(min_value=1e-18, max_value=1e18).filter(lambda c: c != 0),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, seed, c, negate):
        rng = np.random.default_rng(seed)
        est = rng.normal(size=12)
        ref = rng.normal(size=12)
        scale = -c if negate else c
        base = si_sdr(Waveform(est, 8000), Waveform(ref, 8000))
        scaled = si_sdr(Waveform(scale * est, 8000), Waveform(ref, 8000))
        assert abs(base - scaled) < 1e-6


class TestSiSdrImprovement:
    """SI-SDRi is the estimate's SI-SDR minus the mixture's, both against the reference."""

    def test_estimate_equals_mixture_is_zero(self):
        rng = np.random.default_rng(5)
        mixture = Waveform(rng.normal(size=32), 8000)
        ref = Waveform(rng.normal(size=32), 8000)
        assert si_sdr(mixture, ref) - si_sdr(mixture, ref) == 0.0

    def test_perfect_estimate_is_cap_minus_baseline(self):
        rng = np.random.default_rng(6)
        ref = Waveform(rng.normal(size=32), 8000)
        interferer = Waveform(rng.normal(size=32), 8000)
        mixture = mix(ref, interferer)
        got = si_sdr(ref, ref) - si_sdr(mixture, ref)
        assert got == CAP_DB - si_sdr(mixture, ref)

    def test_random_case_matches_oracle_composition(self):
        rng = np.random.default_rng(7)
        est = rng.normal(size=16)
        mixture = rng.normal(size=16)
        ref = rng.normal(size=16)
        got = si_sdr(Waveform(est, 8000), Waveform(ref, 8000)) - si_sdr(
            Waveform(mixture, 8000), Waveform(ref, 8000))
        expect = si_sdr_oracle(est, ref) - si_sdr_oracle(mixture, ref)
        assert got == pytest.approx(expect, abs=1e-9)
