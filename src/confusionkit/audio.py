"""Mono waveforms, WAV, JSON and CSV I/O, mixing, truncation, and scale-invariant SDR metrics.

All metric math runs on float64 samples in nominal range [-1, 1]. Files
are read as PCM16 or float32 and written as float32.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from .errors import (
    ChannelCountError,
    EncodingError,
    LengthMismatchError,
    SampleRateMismatchError,
    ZeroSignalError,
)

# Guard inside the SI-SDR ratio, relative to the projected-signal energy.
SI_SDR_EPS = 1e-8
# Symmetric cap: (near-)perfect reconstructions pin at +CAP_DB, degenerate
# ones at -CAP_DB, so exact-recovery tests stay deterministic.
CAP_DB = 60.0

_PCM16_SCALE = 32768.0


@dataclass(eq=False, frozen=True)
class Waveform:
    """Immutable mono audio: float64 samples plus a positive integer sample rate in Hz.

    `samples` is a read-only view; a float64 input array is aliased, not copied.
    `derived` caches values computed from it; every copy starts it empty. A value kept
    there lives exactly as long as the waveform, so none may refer to the waveform.
    """

    samples: np.ndarray
    sample_rate: int
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64).view()
        if samples.ndim != 1:
            raise ChannelCountError(f"waveform must be mono (1-D), got shape {samples.shape}")
        if samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(rate))

    def __reduce__(self):  # copies and unpickles rerun __post_init__: read-only too
        return Waveform, (self.samples, self.sample_rate)

    def __len__(self) -> int:
        return self.samples.size


def load_wav(path: str | os.PathLike) -> Waveform:
    """Read a mono RIFF/WAVE file (PCM16 or float32) into [-1, 1] float64.

    Raises FileNotFoundError (also for a directory), ChannelCountError, or
    EncodingError (also for non-finite float32 samples, no samples or a 0 Hz rate).
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise EncodingError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if data.ndim != 1:
        raise ChannelCountError(
            f"{path}: expected mono, got {data.shape[1]} channels"
        )
    if data.size == 0 or rate <= 0:
        raise EncodingError(f"{path}: {data.size} samples at {rate} Hz, need samples at a rate > 0")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.float32:
        if not np.all(np.isfinite(data)):
            raise EncodingError(f"{path}: float32 samples include NaN or inf")
        samples = data.astype(np.float64)
    else:
        raise EncodingError(
            f"{path}: unsupported sample encoding {data.dtype}, "
            "expected PCM 16-bit or 32-bit float"
        )
    return Waveform(samples, rate)


def save_wav(w: Waveform, path: str | os.PathLike) -> None:
    """Write a waveform as mono float32 WAV, exact for float32-representable
    samples; ValueError for non-finite samples."""
    if not np.all(np.isfinite(w.samples)):
        raise ValueError("cannot save non-finite samples")
    wavfile.write(path, w.sample_rate, w.samples.astype(np.float32))


def write_json(doc, path: str | os.PathLike) -> None:
    """Write doc as JSON, indented by 2 spaces with a trailing newline: every JSON file's layout."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_table(columns: list[str], rows, path: str | os.PathLike) -> None:
    """Write mappings as CSV under a header of columns, each row's cells in column
    order: floats as repr, bools as 0/1, None as an empty cell; every CSV file's layout."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return int(v)
        return repr(v) if isinstance(v, float) else v

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([cell(row[c]) for c in columns] for row in rows)


def mix(a: Waveform, b: Waveform) -> Waveform:
    """Sample-wise sum truncated to the shorter operand ('minimum' mode)."""
    if a.sample_rate != b.sample_rate:
        raise SampleRateMismatchError(
            f"cannot mix {a.sample_rate} Hz with {b.sample_rate} Hz"
        )
    n = min(len(a), len(b))
    return Waveform(a.samples[:n] + b.samples[:n], a.sample_rate)


def truncate_random(w: Waveform, duration_s: float, seed: int) -> Waveform:
    """Take a contiguous segment of duration_s seconds at a seeded random offset."""
    n = int(round(duration_s * w.sample_rate))
    if len(w) < n:
        raise ValueError(
            f"waveform of {len(w)} samples shorter than requested {n}"
        )
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(w) - n + 1))
    return Waveform(w.samples[start : start + n].copy(), w.sample_rate)


def si_sdr(est: Waveform, ref: Waveform) -> float:
    """Scale-invariant SDR of an estimate against a reference, in dB.

    Projects the estimate onto the reference, compares projected versus
    residual energy, and caps the result at +/- CAP_DB.
    """
    if est.sample_rate != ref.sample_rate:
        raise SampleRateMismatchError(
            f"estimate at {est.sample_rate} Hz, reference at {ref.sample_rate} Hz"
        )
    if len(est) != len(ref):
        raise LengthMismatchError(
            f"length mismatch: estimate {len(est)} vs reference {len(ref)}"
        )
    x, r = est.samples, ref.samples
    ref_energy = float(np.dot(r, r))
    if ref_energy == 0.0:
        raise ZeroSignalError("reference signal is all zeros")
    s_target = float(np.dot(x, r)) / ref_energy * r
    e_noise = x - s_target
    target_energy = float(np.dot(s_target, s_target))
    noise_energy = float(np.dot(e_noise, e_noise))
    if target_energy == 0.0:
        return -CAP_DB
    # Epsilon is relative to the target energy so the metric stays exactly
    # scale invariant; the clip realizes the +/- CAP_DB caps.
    ratio = target_energy / (noise_energy + SI_SDR_EPS * target_energy)
    return float(np.clip(10.0 * np.log10(ratio), -CAP_DB, CAP_DB))
