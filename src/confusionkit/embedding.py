"""Log-mel front-end and the toy linear speaker encoder.

The encoder mean-pools log-mel frames over time, applies a trainable
D x F projection, and L2-normalizes the result.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .audio import Waveform, memo, write_json
from .errors import ConfusionKitError, ZeroSignalError


# The one log-mel front-end: 25 ms Hann frames, a 10 ms hop, 40 mel bands and
# log(x + log_floor), in the key order of the encoder file's "frontend" record.
FRONTEND = {"frame_length_ms": 25.0, "hop_ms": 10.0, "n_mels": 40, "log_floor": 1e-10}
N_MELS = FRONTEND["n_mels"]


@dataclass
class FeatureMatrix:
    """T x F matrix of log-mel energies."""

    frames: np.ndarray


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters (n_mels x n_fft//2+1) spanning 0 to Nyquist."""
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2)
    hz_points = np.asarray(mel_to_hz(mel_points))
    bin_freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    bank = np.zeros((n_mels, bin_freqs.size))
    for i in range(n_mels):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def frame_and_hop(sample_rate: int) -> tuple[int, int]:
    """The front-end's frame length (the shortest waveform it takes) and hop, in
    samples at a sample rate; the hop is 0 at 50 Hz and below."""
    return tuple(int(round(FRONTEND[key] * sample_rate / 1000.0))
                 for key in ("frame_length_ms", "hop_ms"))


def _fft_size(frame_length: int) -> int:
    """The smallest power of two holding one frame."""
    return 1 << (frame_length - 1).bit_length()


@functools.lru_cache(maxsize=16)
def empty_mel_bands(sample_rate: int) -> int:
    """How many of the front-end's mel bands hold no FFT bin with a non-zero
    weight at a sample rate whose hop is at least 1 sample. Every band is
    filled at 1301-1943 Hz and from 2581 Hz up; the front-end refuses a rate
    with an empty band, whose log-mel feature would be the log floor alone."""
    frame_length, _ = frame_and_hop(sample_rate)
    bank = mel_filterbank(N_MELS, _fft_size(frame_length), sample_rate)
    return int(np.count_nonzero(~bank.any(axis=1)))


def front_end_refusal(w: Waveform) -> str | None:
    """Why the front-end refuses a waveform, as a phrase to follow its name ("at 40 Hz,
    where ..."), or None when it takes it: a rate with a 0-sample hop or an empty mel
    band, or fewer samples than one frame. Every caller states the refusals this way."""
    rate = w.sample_rate
    frame_length, hop = frame_and_hop(rate)
    if hop == 0:
        return f"at {rate} Hz, where the front-end's {FRONTEND['hop_ms']:g} ms hop is 0 samples"
    empty = empty_mel_bands(rate)
    if empty:
        return f"at {rate} Hz, where {empty} of the front-end's {N_MELS} mel bands are empty"
    if len(w) < frame_length:
        return f"of {len(w)} samples, shorter than one {frame_length}-sample front-end frame"
    return None


@functools.lru_cache(maxsize=16)
def _stft_constants(sample_rate: int) -> tuple[int, int, np.ndarray, int, np.ndarray]:
    """(frame length, hop, Hann window, FFT size, transposed mel filterbank) of
    the front-end at a sample rate that front_end_refusal takes.

    Built once per rate and shared by every caller, so the arrays are
    read-only.
    """
    frame_length, hop = frame_and_hop(sample_rate)
    window = np.hanning(frame_length)
    n_fft = _fft_size(frame_length)
    bank_t = mel_filterbank(N_MELS, n_fft, sample_rate).T
    window.flags.writeable = False
    bank_t.flags.writeable = False
    return frame_length, hop, window, n_fft, bank_t


def log_mel_features(w: Waveform) -> FeatureMatrix:
    """Hann-windowed STFT magnitudes through a mel filterbank, then log(x + floor);
    ValueError for a waveform that front_end_refusal refuses."""
    refusal = front_end_refusal(w)
    if refusal is not None:
        raise ValueError(f"waveform {refusal}")
    frame_length, hop, window, n_fft, bank_t = _stft_constants(w.sample_rate)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, frame_length)[::hop]
    mel = np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1)) @ bank_t
    return FeatureMatrix(frames=np.log(mel + FRONTEND["log_floor"]))


@dataclass
class ToyEncoder:
    """Linear speaker encoder: mean-pooled log-mel features -> D-dim unit vector."""

    projection: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if self.projection.ndim != 2 or self.projection.shape[1] != N_MELS:
            raise ValueError(f"projection must be a D x {N_MELS} matrix")
        if self.projection.shape[0] < 2:
            raise ValueError("embedding dimension must be at least 2")
        if not np.all(np.isfinite(self.projection)):
            raise ValueError("projection contains non-finite entries")
        if not self.projection.any():
            raise ValueError("projection is all zeros")

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def n_mels(self) -> int:
        return self.projection.shape[1]


def init_encoder(embed_dim: int = 16, seed: int = 0) -> ToyEncoder:
    """Seeded encoder with projection entries uniform in [-1/sqrt(F), 1/sqrt(F)]."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(N_MELS)
    projection = rng.uniform(-bound, bound, size=(embed_dim, N_MELS))
    return ToyEncoder(projection=projection, seed=seed)


def pooled_features(w: Waveform) -> np.ndarray:
    """Mean over time of the log-mel feature matrix (F-vector), read-only.
    Computed once per waveform, freed with it."""
    return memo(w.derived, "pooled", _pool, w)


def _pool(w: Waveform) -> np.ndarray:
    pooled = log_mel_features(w).frames.mean(axis=0)
    pooled.flags.writeable = False
    return pooled


def project_rows(enc: ToyEncoder, pooled: np.ndarray) -> np.ndarray:
    """Project an R x F array of pooled feature vectors to R x D unit rows.

    One gemv per row and one dot per norm, so each row has the bits a
    single vector's `projection @ pooled` and `np.linalg.norm` give, and
    `encode` is its one-row call.
    """
    raw = np.matmul(enc.projection, pooled[:, :, None])[:, :, 0]
    norms = np.sqrt(np.vecdot(raw, raw))
    if not norms.all():
        raise ZeroSignalError("projected feature vector is all zeros")
    rows = raw / norms[:, None]
    if not np.isfinite(rows).all():
        raise ValueError("embedding contains non-finite entries")
    return rows


def encode(enc: ToyEncoder, w: Waveform) -> np.ndarray:
    """Embed a waveform as a unit D-vector: project_rows on its pooled features."""
    return project_rows(enc, pooled_features(w)[None])[0]


def save_encoder(enc: ToyEncoder, path: str | os.PathLike) -> None:
    """Persist an encoder as a JSON document with a row-major projection."""
    write_json({
        "embed_dim": enc.embed_dim,
        "n_mels": enc.n_mels,
        "projection": enc.projection.ravel().tolist(),
        "frontend": FRONTEND,
        "seed": enc.seed,
    }, path)


def load_encoder(path: str | os.PathLike) -> ToyEncoder:
    """Load an encoder saved by save_encoder; ConfusionKitError naming the file if
    malformed, including a "frontend" record other than FRONTEND, an embed_dim
    or n_mels that does not size the projection, and an all-zero projection."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc["frontend"] != FRONTEND:
            raise ConfusionKitError(
                f"{path}: front-end {doc['frontend']!r} is not the fixed {FRONTEND!r}"
            )
        projection = np.asarray(doc["projection"], dtype=np.float64)
        shape = (doc["embed_dim"], doc["n_mels"])
        sized = all(type(n) is int and n > 0 for n in shape)
        if not sized or shape[0] * shape[1] != projection.size:
            raise ConfusionKitError(
                f"{path}: embed_dim {shape[0]!r} x n_mels {shape[1]!r} must be positive "
                f"integers whose product is the projection's length {projection.size}"
            )
        return ToyEncoder(projection=projection.reshape(shape), seed=doc["seed"])
    except KeyError as exc:
        raise ConfusionKitError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfusionKitError(f"{path}: malformed encoder file ({exc})") from exc
