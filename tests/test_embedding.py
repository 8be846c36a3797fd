import copy
import dataclasses
import gc
import json
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confusionkit import embedding
from confusionkit.audio import Waveform
from confusionkit.embedding import (
    FRONTEND,
    ToyEncoder,
    encode,
    front_end_refusal,
    init_encoder,
    load_encoder,
    log_mel_features,
    mel_filterbank,
    pooled_features,
    save_encoder,
)
from confusionkit.errors import ConfusionKitError
from confusionkit.postfilter import similarity_features

from oracles import cosine_oracle, frame_count_oracle, l2_distance_oracle, mel_bin_oracle

def unit(v):
    """Unit rows along the last axis."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def pair(est, e_t, e_f):
    """similarity_features of one vector each."""
    return similarity_features(est, e_t, e_f)


class TestLogMel:
    def test_zero_input_hits_log_floor(self):
        w = Waveform(np.zeros(8000), 8000)
        feats = log_mel_features(w)
        np.testing.assert_allclose(feats.frames, np.log(FRONTEND["log_floor"]))

    def test_frame_count_three_seconds(self):
        w = Waveform(np.random.default_rng(0).normal(size=24000), 8000)
        feats = log_mel_features(w)
        assert feats.frames.shape == (298, 40)
        assert feats.frames.shape[0] == frame_count_oracle(24000, 200, 80)

    def test_frame_count_matches_oracle_various_lengths(self):
        for n in (200, 279, 280, 281, 1000, 12345):
            w = Waveform(np.ones(n), 8000)
            feats = log_mel_features(w)
            assert feats.frames.shape[0] == frame_count_oracle(n, 200, 80)

    @pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 129])
    def test_blocked_stft_matches_one_shot(self, n_frames):
        # 200-sample frames, hop 80, n_fft 256 at 8 kHz
        rng = np.random.default_rng(n_frames)
        w = Waveform(rng.normal(size=200 + 80 * (n_frames - 1)), 8000)
        frames = np.lib.stride_tricks.sliding_window_view(w.samples, 200)[::80]
        magnitude = np.abs(np.fft.rfft(frames * np.hanning(200), n=256, axis=1))
        want = np.log(magnitude @ mel_filterbank(40, 256, 8000).T + FRONTEND["log_floor"])
        got = log_mel_features(w).frames
        assert got.shape == (n_frames, 40)
        assert got.tobytes() == want.tobytes()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError) as info:
            log_mel_features(Waveform(np.ones(100), 8000))
        assert str(info.value) == ("waveform of 100 samples, shorter than one 200-sample "
                                   "front-end frame")

    @pytest.mark.parametrize("rate", [1, 40, 50])
    def test_rate_with_a_zero_sample_hop_rejected(self, rate):
        with pytest.raises(ValueError) as info:
            log_mel_features(Waveform(np.ones(400), rate))
        assert str(info.value) == (f"waveform at {rate} Hz, where the front-end's 10 ms hop "
                                   "is 0 samples")

    # Empty bands of 40 at the edges of the rates that fill every band:
    # 1301-1943 Hz and from 2581 Hz up. 51 Hz is the lowest rate with a 1-sample hop.
    @pytest.mark.parametrize("rate,empty", [(51, 40), (100, 40), (1000, 9), (1300, 10),
                                            (1944, 1), (2000, 1), (2580, 1)])
    def test_rate_with_an_empty_mel_band_rejected(self, rate, empty):
        w = Waveform(np.ones(4 * rate), rate)
        assert front_end_refusal(w) == (f"at {rate} Hz, where {empty} of the front-end's "
                                        "40 mel bands are empty")
        with pytest.raises(ValueError) as info:
            log_mel_features(w)
        assert str(info.value) == (f"waveform at {rate} Hz, where {empty} of the front-end's "
                                   "40 mel bands are empty")

    @pytest.mark.parametrize("rate", [1301, 1943, 2581, 8000, 16000])
    def test_rate_with_every_mel_band_accepted(self, rate):
        """Noise puts energy into every band: no feature sits at the log floor."""
        w = Waveform(np.random.default_rng(rate).normal(size=rate), rate)
        assert front_end_refusal(w) is None
        frames = log_mel_features(w).frames
        assert frames.shape[1] == 40
        assert (frames > np.log(FRONTEND["log_floor"])).all()

    def test_a_new_rate_builds_its_filterbank_once(self, monkeypatch):
        """The refusals and the STFT read one table per rate, so 9001 Hz, a rate
        no other test uses, builds its mel filterbank once for both."""
        calls = []

        def counted(*args):
            calls.append(args)
            return mel_filterbank(*args)

        monkeypatch.setattr(embedding, "mel_filterbank", counted)
        w = Waveform(np.random.default_rng(9001).normal(size=9001), 9001)
        assert front_end_refusal(w) is None
        log_mel_features(w)
        assert len(calls) == 1

    def test_pure_tone_peaks_at_expected_mel_bin(self):
        t = np.arange(24000) / 8000
        w = Waveform(np.sin(2 * np.pi * 1000.0 * t), 8000)
        feats = log_mel_features(w)
        got = int(np.argmax(feats.frames.mean(axis=0)))
        assert got == mel_bin_oracle(1000.0, 40, 8000)

    def test_filterbank_spans_zero_to_nyquist(self):
        bank = mel_filterbank(40, 256, 8000)
        assert bank.shape == (40, 129)
        assert np.all(bank >= 0)
        assert np.all(bank.max(axis=1) > 0)


class TestEncode:
    def test_identity_projection_gives_normalized_mean_feature(self):
        enc = ToyEncoder(projection=np.eye(40))
        w = Waveform(np.random.default_rng(3).normal(size=8000), 8000)
        e = encode(enc, w)
        m = log_mel_features(w).frames.mean(axis=0)
        np.testing.assert_allclose(e, m / np.linalg.norm(m))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-9

    def test_projection_needs_one_column_per_mel_band(self):
        with pytest.raises(ValueError, match="D x 40 matrix"):
            ToyEncoder(projection=np.ones((16, 20)))

    def test_output_is_unit_norm(self):
        enc = init_encoder(16, seed=5)
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = Waveform(rng.normal(size=4000), 8000)
            e = encode(enc, w)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-9

    def test_deterministic(self):
        enc = init_encoder(16, seed=5)
        w = Waveform(np.random.default_rng(9).normal(size=4000), 8000)
        np.testing.assert_array_equal(encode(enc, w), encode(enc, w))

    def test_init_encoder_bounds_and_determinism(self):
        enc = init_encoder(16, seed=1)
        again = init_encoder(16, seed=1)
        np.testing.assert_array_equal(enc.projection, again.projection)
        assert np.all(np.abs(enc.projection) <= 1.0 / np.sqrt(40))


class TestPooledFeaturesMemo:
    @staticmethod
    def wave(seed, n=4000):
        return Waveform(np.random.default_rng(seed).normal(size=n), 8000)

    def test_second_call_reuses_the_first(self, log_mel_calls):
        w = self.wave(11)
        first = pooled_features(w)
        second = pooled_features(w)
        assert log_mel_calls == [w]
        assert second.tobytes() == first.tobytes()
        assert first.tobytes() == log_mel_features(w).frames.mean(axis=0).tobytes()

    def test_one_entry_per_waveform(self, log_mel_calls):
        w = self.wave(12)
        assert pooled_features(w).shape == (40,)
        assert len(log_mel_calls) == 1
        assert list(w.derived) == ["pooled"]

    def test_vector_is_read_only(self):
        pooled = pooled_features(self.wave(13))
        with pytest.raises(ValueError, match="read-only"):
            pooled[0] = 0.0

    def test_waveform_is_immutable(self):
        w = self.wave(14)
        with pytest.raises(ValueError, match="read-only"):
            w.samples[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.samples = np.zeros(4000)
        with pytest.raises(ValueError, match="read-only"):
            copy.deepcopy(w).samples[0] = 0.0

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda w: pickle.loads(pickle.dumps(w)),
        dataclasses.replace,
    ], ids=["copy", "deepcopy", "pickle", "replace"])
    def test_copies_start_with_an_empty_store(self, clone, log_mel_calls):
        """A copy is a new waveform: it runs the front-end once more, to the
        same bytes, and never shares the original's store."""
        w = self.wave(16)
        first = pooled_features(w)
        twin = clone(w)
        assert twin is not w and twin.derived == {}
        assert pooled_features(twin).tobytes() == first.tobytes()
        assert log_mel_calls == [w, twin]
        assert list(w.derived) == list(twin.derived) == ["pooled"]

    def test_memo_keeps_no_waveform_alive(self):
        w = self.wave(15)
        pooled_features(w)
        ref = weakref.ref(w)
        del w
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_get_the_serial_bytes(self, threads):
        """Concurrent misses on one waveform may both compute, but every
        caller gets the serial bytes and the waveform keeps one entry."""
        waves = [self.wave(20 + i) for i in range(8)]
        serial = [log_mel_features(w).frames.mean(axis=0).tobytes() for w in waves]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                got = list(pool.map(lambda w: pooled_features(w).tobytes(),
                                    waves * 3, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == serial * 3
        assert all(list(w.derived) == ["pooled"] for w in waves)


class TestDistances:
    """similarity_features' (pi, phi) against the one-vector oracles."""

    def test_l2_identity(self):
        a = unit([1, 0, 0])
        got = pair(a, a, a)
        assert (got.pi, got.phi) == (0.0, 0.0)

    def test_l2_antipodal(self):
        a = unit([0, 1, 0])
        b = unit([0, -1, 0])
        assert pair(a, b, a).pi == pytest.approx(2.0)
        assert pair(a, a, b).phi == pytest.approx(2.0)

    def test_l2_orthogonal(self):
        a = unit([1, 0])
        b = unit([0, 1])
        assert pair(a, b, a).pi == pytest.approx(np.sqrt(2.0))
        assert pair(a, a, b).phi == pytest.approx(np.sqrt(2.0))

    def test_cosine_identity_and_orthogonal(self):
        a = unit([3, 4])
        assert cosine_oracle(a, a) == pytest.approx(1.0)
        assert cosine_oracle(unit([1, 0]), unit([0, 1])) == pytest.approx(0.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_l2_squared_equals_two_minus_two_cos(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (unit(rng.normal(size=(5, 8))) for _ in range(3))
        got = similarity_features(a, b, c)
        for i, (pi, phi) in enumerate(zip(got.pi, got.phi)):
            assert pi**2 == pytest.approx(2.0 - 2.0 * cosine_oracle(a[i], b[i]), abs=1e-9)
            assert phi**2 == pytest.approx(2.0 - 2.0 * cosine_oracle(a[i], c[i]), abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = unit(rng.normal(size=(4, 6)))
        b = unit(rng.normal(size=(4, 6)))
        assert similarity_features(a, b, b).pi.tolist() == similarity_features(b, a, a).phi.tolist()
        assert [cosine_oracle(x, y) for x, y in zip(a, b)] == [
            cosine_oracle(y, x) for x, y in zip(a, b)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_have_the_oracle_bits(self, seed):
        """A block's distances equal the one-vector norm, exactly, whatever the
        block size, and so do those of a block stacked along a further axis."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        a, b, c = (unit(rng.normal(size=(n, 16))) for _ in range(3))
        got = similarity_features(a, b, c)
        assert got.pi.shape == got.phi.shape == (n,)
        assert list(zip(got.pi.tolist(), got.phi.tolist())) == [
            (l2_distance_oracle(x, y), l2_distance_oracle(x, z)) for x, y, z in zip(a, b, c)]
        stacked = similarity_features(np.stack([a, b], 1), np.stack([b, c], 1), np.stack([c, a], 1))
        assert stacked.pi.shape == (n, 2)
        assert stacked.pi[:, 0].tolist() == got.pi.tolist()
        assert stacked.phi[:, 0].tolist() == got.phi.tolist()


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        enc = init_encoder(16, seed=77)
        path = tmp_path / "enc.json"
        save_encoder(enc, path)
        back = load_encoder(path)
        np.testing.assert_array_equal(back.projection, enc.projection)
        assert json.loads(path.read_text())["frontend"] == FRONTEND
        assert back.seed == 77
        assert back.embed_dim == 16
        assert back.n_mels == 40

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "stub.json"
        path.write_text('{"embed_dim": 2}')
        with pytest.raises(ConfusionKitError, match=r"stub\.json.*'frontend'"):
            load_encoder(path)

    def test_stored_encoder_round_trips_byte_for_byte(self, tmp_path):
        stored = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "encoder_pl2.json"
        path = tmp_path / "enc.json"
        save_encoder(load_encoder(stored), path)
        assert path.read_bytes() == stored.read_bytes()

    @pytest.mark.parametrize("key,value", [
        ("frame_length_ms", 20.0), ("hop_ms", 12.5), ("n_mels", 20), ("log_floor", 1e-8),
    ])
    def test_other_frontend_record_refused(self, tmp_path, key, value):
        path = tmp_path / "other.json"
        save_encoder(init_encoder(16, seed=3), path)
        doc = json.loads(path.read_text())
        doc["frontend"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfusionKitError, match=r"other\.json.*front-end"):
            load_encoder(path)

    @pytest.mark.parametrize("key,value", [
        ("embed_dim", -1), ("embed_dim", 0), ("embed_dim", 8), ("embed_dim", 16.0),
        ("embed_dim", True), ("n_mels", -40), ("n_mels", "40"),
    ])
    def test_dimensions_must_size_the_projection(self, tmp_path, key, value):
        """embed_dim -1 once loaded, with reshape inferring the dimension."""
        path = tmp_path / "dims.json"
        save_encoder(init_encoder(16, seed=3), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfusionKitError, match=r"dims\.json: embed_dim .* must be positive"):
            load_encoder(path)

    @pytest.mark.parametrize("seed", ["abc", -5, 1.5, True, [1]])
    def test_seed_other_than_null_or_non_negative_integer_refused(self, tmp_path, seed):
        path = tmp_path / "seeded.json"
        save_encoder(init_encoder(16, seed=3), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "seed": seed}))
        with pytest.raises(ConfusionKitError, match=r"seeded\.json: malformed encoder file "
                                                    r"\(seed must be a non-negative integer"):
            load_encoder(path)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_null_or_integer_seed_loads(self, tmp_path, seed):
        path = tmp_path / "seeded.json"
        save_encoder(init_encoder(16, seed=3), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "seed": seed}))
        assert load_encoder(path).seed == seed

    def test_zero_projection_refused_naming_the_file(self, tmp_path):
        """It once loaded, to fail at the first projection naming no file."""
        path = tmp_path / "zero.json"
        save_encoder(init_encoder(16, seed=3), path)
        doc = json.loads(path.read_text())
        doc["projection"] = [0.0] * len(doc["projection"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfusionKitError, match=r"zero\.json: .*projection is all zeros"):
            load_encoder(path)
        with pytest.raises(ValueError, match="all zeros"):
            ToyEncoder(projection=np.zeros((16, 40)))
