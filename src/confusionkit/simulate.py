"""Synthetic speakers, two-speaker mixtures, and a controllable toy separator.

Speakers are harmonic sources colored by three formant resonators.
Extraction samples obey the exact additive model y = s_t + s_i; the toy
separator leaks, adds noise, and flips target and interferer with a
configured probability, standing in for a real extraction network with a
tunable confusion rate.
"""

from __future__ import annotations

import csv
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, load_wav, mix, save_wav, truncate_random, write_json, write_table
from .embedding import front_end_refusal
from .errors import CorpusError, ZeroSignalError

SAMPLE_RATE = 8000
FREQ_FLOOR = 50.0
FREQ_CEIL = 3800.0
_SYNTH_BLOCK = 2048  # rows of the harmonic sum computed at once; a multiple of 4

# Independent RNG stream tags; every stream is keyed by these plus the
# user seed and sample index, so e.g. changing the confusion probability
# re-flips only the Bernoulli draws and never the audio.
_STREAM_SPEAKER = 1
_STREAM_UTTERANCE = 2
_STREAM_CONFUSION = 3
_STREAM_NOISE = 4
_STREAM_TRUNCATE = 5
_STREAM_PAIRING = 6

# Roles of the four utterances inside an extraction sample.
_ROLE_SOURCE_T = 0
_ROLE_SOURCE_I = 1
_ROLE_ENROLL_T = 2
_ROLE_ENROLL_I = 3

MANIFEST_NAME = "manifest.csv"
META_NAME = "meta.json"
MANIFEST_FIELDS = [
    "sample_id",
    "mixture",
    "source_target",
    "source_interferer",
    "enroll_target",
    "enroll_interferer",
    "spk_target",
    "spk_interferer",
    "confused_flag",
]
# The five waveforms of an ExtractionSample, by field and manifest column.
_WAVE_FIELDS = MANIFEST_FIELDS[1:6]
_INT_FIELDS = MANIFEST_FIELDS[6:]  # both speakers, then confused_flag


def _derive_seed(*parts: int) -> np.random.Generator:
    return np.random.default_rng(list(parts))


def check_seed(name: str, seed) -> None:
    """ValueError unless seed is a non-negative integer (not a bool): every seed's rule."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def fold_seed(*parts: int) -> int:
    """Stable derived integer seed from integer components."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class SyntheticSpeaker:
    """Voice parameters; per-utterance jitter makes utterances vary."""

    id: int
    fundamental_f0: float
    formant_centers: tuple[float, float, float]
    formant_bandwidths: tuple[float, float, float]
    f0_jitter: float
    formant_jitter: float


@dataclass(frozen=True)
class ConfusionConfig:
    """Controls the separator: flip probability, leakage, noise, seed (immutable)."""

    probability: float = 0.1
    leakage: float = 0.05
    noise_snr_db: float | None = 20.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("confusion probability must lie in [0, 1]")
        if not 0.0 <= self.leakage < 1.0:
            raise ValueError("leakage fraction must lie in [0, 1)")
        if self.noise_snr_db is not None and not np.isfinite(self.noise_snr_db):
            raise ValueError(f"noise SNR must be finite or None, got {self.noise_snr_db!r}")
        check_seed("confusion seed", self.seed)


@dataclass(frozen=True)
class ExtractionSample:
    """One evaluation unit: mixture, both sources, both enrollments. Immutable;
    equal exactly when it holds the same waveform objects and other fields."""

    mixture: Waveform
    source_target: Waveform
    source_interferer: Waveform
    enroll_target: Waveform
    enroll_interferer: Waveform
    spk_target: int
    spk_interferer: int
    index: int = 0
    swapped: bool = False

    @property
    def sample_id(self) -> str:
        """The sample's manifest id, which also names its files."""
        return f"sample_{self.index:05d}"


def make_speakers(count: int, seed: int = 0) -> list[SyntheticSpeaker]:
    """Draw reproducible speaker parameter sets."""
    rng = _derive_seed(_STREAM_SPEAKER, seed)
    speakers = []
    for i in range(count):
        speakers.append(
            SyntheticSpeaker(
                id=i,
                fundamental_f0=float(rng.uniform(105.0, 235.0)),
                formant_centers=(
                    float(rng.uniform(350.0, 850.0)),
                    float(rng.uniform(1000.0, 2100.0)),
                    float(rng.uniform(2400.0, 3300.0)),
                ),
                formant_bandwidths=(
                    float(rng.uniform(60.0, 100.0)),
                    float(rng.uniform(80.0, 140.0)),
                    float(rng.uniform(120.0, 200.0)),
                ),
                f0_jitter=float(rng.uniform(0.04, 0.08)),
                formant_jitter=float(rng.uniform(0.03, 0.06)),
            )
        )
    return speakers


def utterance_params(
    spk: SyntheticSpeaker, seed: int
) -> tuple[float, list[float]]:
    """Jittered f0 and formant centers for one utterance (clamped, never an error)."""
    rng = _derive_seed(_STREAM_UTTERANCE, spk.id, seed)
    f0 = spk.fundamental_f0 * (1.0 + spk.f0_jitter * rng.uniform(-1.0, 1.0))
    formants = [
        f * (1.0 + spk.formant_jitter * rng.uniform(-1.0, 1.0))
        for f in spk.formant_centers
    ]
    f0 = float(np.clip(f0, FREQ_FLOOR, FREQ_CEIL))
    formants = [float(np.clip(f, FREQ_FLOOR, FREQ_CEIL)) for f in formants]
    return f0, formants


def synth_utterance(
    spk: SyntheticSpeaker, duration_s: float, seed: int
) -> Waveform:
    """Harmonic source shaped by formant resonators under a slow envelope.

    The fundamental carries the strongest spectral line; peak amplitude is
    normalized to 0.9. Deterministic per (speaker, seed).
    """
    if not (duration_s >= 0.5 and np.isfinite(duration_s * SAMPLE_RATE)):
        raise ValueError(f"utterance of {duration_s} s: under 0.5 s or no finite sample count")
    # Imported here, not at module level: scipy.signal takes most of a second to
    # import, and only synthesis needs it, so the CLI's other commands skip it.
    from scipy import signal as sp_signal

    f0, formants = utterance_params(spk, seed)
    rng = _derive_seed(_STREAM_UTTERANCE, spk.id, seed, 1)
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    n_harmonics = max(1, int(FREQ_CEIL // f0))
    k = np.arange(1, n_harmonics + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_harmonics)
    # 1/k^2 rolloff keeps the fundamental dominant after formant coloring.
    amplitudes = 1.0 / k.astype(np.float64) ** 2
    omega = 2.0 * np.pi * f0 * k
    # sin(t * omega + phases) @ amplitudes in row blocks, bit for bit: blocks
    # start at multiples of 4, where gemv groups rows as for the whole matrix,
    # and a 1-row tail, which numpy would send to ddot, joins the block before.
    source = np.empty(n)
    buf = np.empty((min(n, _SYNTH_BLOCK + 1), n_harmonics))
    for start in range(0, n - 1, _SYNTH_BLOCK):
        stop = n if n - start <= _SYNTH_BLOCK + 1 else start + _SYNTH_BLOCK
        blk = buf[: stop - start]
        np.multiply.outer(t[start:stop], omega, out=blk)
        blk += phases
        np.sin(blk, out=blk)
        source[start:stop] = blk @ amplitudes

    shaped = source.copy()
    for f_c, bw in zip(formants, spk.formant_bandwidths):
        b, a = sp_signal.iirpeak(f_c, Q=f_c / bw, fs=SAMPLE_RATE)
        shaped += 0.5 * sp_signal.lfilter(b, a, source)

    knots = max(3, int(np.ceil(duration_s * 3.0)) + 1)
    knot_pos = np.linspace(0.0, n - 1, knots)
    envelope = np.interp(np.arange(n), knot_pos, rng.uniform(0.4, 1.0, size=knots))
    shaped *= envelope
    return Waveform(shaped * (0.9 / np.max(np.abs(shaped))), SAMPLE_RATE)


def make_extraction_sample(
    spk_t: SyntheticSpeaker,
    spk_i: SyntheticSpeaker,
    duration_s: float,
    seed: int,
    index: int = 0,
) -> ExtractionSample:
    """Synthesize sources and enrollments, mix, and package one sample.

    Each of the four utterances is synthesized slightly long and randomly
    truncated to the requested duration. The interferer source has its
    target-parallel component removed (a ~-45 dB adjustment) so that the
    two-speaker subtraction algebra is exactly well-posed.
    """
    if spk_t.id == spk_i.id:
        raise ValueError("target and interferer must be different speakers")

    def utt(spk: SyntheticSpeaker, role: int) -> Waveform:
        long = synth_utterance(spk, duration_s + 0.5, fold_seed(seed, index, role))
        return truncate_random(
            long, duration_s, fold_seed(_STREAM_TRUNCATE, seed, index, role)
        )

    s_t = utt(spk_t, _ROLE_SOURCE_T)
    s_i = utt(spk_i, _ROLE_SOURCE_I)
    e_t = utt(spk_t, _ROLE_ENROLL_T)
    e_i = utt(spk_i, _ROLE_ENROLL_I)

    coeff = np.dot(s_i.samples, s_t.samples) / np.dot(s_t.samples, s_t.samples)
    s_i = Waveform(s_i.samples - coeff * s_t.samples, SAMPLE_RATE)

    return ExtractionSample(
        mixture=mix(s_t, s_i),
        source_target=s_t,
        source_interferer=s_i,
        enroll_target=e_t,
        enroll_interferer=e_i,
        spk_target=spk_t.id,
        spk_interferer=spk_i.id,
        index=index,
    )


def swap_roles(sample: ExtractionSample) -> ExtractionSample:
    """The same mixture with target and interferer roles exchanged: a fresh sample
    sharing every waveform, built positionally (dataclasses.replace costs more)."""
    return ExtractionSample(sample.mixture, sample.source_interferer, sample.source_target,
                            sample.enroll_interferer, sample.enroll_target, sample.spk_interferer,
                            sample.spk_target, sample.index, not sample.swapped)


def confusion_draw(sample: ExtractionSample, cfg: ConfusionConfig) -> bool:
    """The Bernoulli confusion decision the separator will make for this sample,
    drawn afresh from the sample's confusion stream on every call."""
    rng = _derive_seed(_STREAM_CONFUSION, cfg.seed, sample.index, int(sample.swapped))
    return bool(rng.random() < cfg.probability)


def toy_separator(sample: ExtractionSample, cfg: ConfusionConfig) -> Waveform:
    """Simulated extraction output: leaky target (or interferer when confused).

    Optionally adds white noise at the configured SNR, then least-squares
    rescales against the mixture so subtraction is energetically meaningful.
    Deterministic per (config seed, sample index).
    """
    confused = confusion_draw(sample, cfg)
    keep = sample.source_interferer if confused else sample.source_target
    leak = sample.source_target if confused else sample.source_interferer
    est = (1.0 - cfg.leakage) * keep.samples + cfg.leakage * leak.samples
    if cfg.noise_snr_db is not None:
        rng = _derive_seed(_STREAM_NOISE, cfg.seed, sample.index, int(sample.swapped))
        power = float(np.mean(est**2))
        sigma = np.sqrt(power / 10.0 ** (cfg.noise_snr_db / 10.0))
        est = est + rng.normal(0.0, sigma, size=est.size)
    energy = float(np.dot(est, est))
    if energy == 0.0:
        raise ZeroSignalError(f"sample {sample.index}: toy-separator estimate is all zeros")
    scale = float(np.dot(sample.mixture.samples, est)) / energy
    return Waveform(scale * est, sample.mixture.sample_rate)


@dataclass
class Corpus:
    """Extraction samples and the confusion config their separator runs under."""

    samples: list[ExtractionSample]
    confusion: ConfusionConfig

    @property
    def confused_flags(self) -> list[bool]:
        """Each sample's seeded confusion draw, in sample order."""
        return [confusion_draw(s, self.confusion) for s in self.samples]


def build_corpus(
    speaker_count: int,
    n_samples: int,
    confusion: ConfusionConfig,
    duration_s: float = 3.0,
    seed: int = 0,
    speaker_seed: int | None = None,
) -> Corpus:
    """Generate a corpus in memory: seeded speakers, pairings, and samples.

    Pass a fixed speaker_seed with different sample seeds to build
    held-out corpora over the same speaker population. Samples are
    synthesized on up to one thread per available CPU; the output does not
    depend on how many.
    """
    if speaker_count < 2:
        raise ValueError("need at least 2 speakers")
    if n_samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {n_samples}")
    if not (duration_s >= 0.5 and np.isfinite(duration_s * SAMPLE_RATE)):
        raise ValueError(f"duration must be finite and at least 0.5 s, with a finite sample "
                         f"count at {SAMPLE_RATE} Hz, got {duration_s}")
    speakers = make_speakers(
        speaker_count, seed if speaker_seed is None else speaker_seed
    )
    pair_rng = _derive_seed(_STREAM_PAIRING, seed)
    pairs = [pair_rng.choice(speaker_count, size=2, replace=False) for _ in range(n_samples)]
    # Each sample has its own seed streams, so the pool changes no output
    # bit; np.sin and lfilter release the GIL, so the threads overlap.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max(1, min(n_samples, cpus or 1))) as pool:
        samples = list(pool.map(lambda m: make_extraction_sample(
            speakers[pairs[m][0]], speakers[pairs[m][1]], duration_s, seed, index=m
        ), range(n_samples)))
    return Corpus(samples, confusion)


def subset(corpus: Corpus, positions: list[int]) -> Corpus:
    """A view of the samples at positions, in that order; sample indices (and
    hence seeds) are kept."""
    return Corpus([corpus.samples[i] for i in positions], corpus.confusion)


def generate_corpus(
    speaker_count: int,
    n_samples: int,
    confusion: ConfusionConfig,
    out_dir: str | os.PathLike,
    duration_s: float = 3.0,
    seed: int = 0,
    speaker_seed: int | None = None,
) -> Path:
    """Write a corpus to disk: WAV files, manifest CSV, and a metadata sidecar.

    Returns the manifest path. Paths inside the manifest are relative to it.
    """
    corpus = build_corpus(
        speaker_count, n_samples, confusion, duration_s, seed, speaker_seed
    )
    out = Path(out_dir)
    (out / "wav").mkdir(parents=True, exist_ok=True)

    rows = []
    for sample, flag in zip(corpus.samples, corpus.confused_flags):
        sid = sample.sample_id
        row = {"sample_id": sid}
        for name in _WAVE_FIELDS:
            row[name] = f"wav/{sid}_{name}.wav"
            save_wav(getattr(sample, name), out / row[name])
        row["spk_target"] = sample.spk_target
        row["spk_interferer"] = sample.spk_interferer
        row["confused_flag"] = int(flag)
        rows.append(row)

    manifest = out / MANIFEST_NAME
    write_table(MANIFEST_FIELDS, rows, manifest)

    write_json({
        "seed": seed,
        "speaker_seed": seed if speaker_seed is None else speaker_seed,
        "speaker_count": speaker_count,
        "n_samples": n_samples,
        "duration_s": duration_s,
        "sample_rate": SAMPLE_RATE,
        "confusion": asdict(confusion),
    }, out / META_NAME)
    return manifest


def load_corpus(manifest_path: str | os.PathLike) -> Corpus:
    """Reload a generated corpus from its manifest and metadata sidecar.

    Each sample's index (hence its separator seeds and estimate file names)
    comes from its sample_id, so a subset or reordered manifest keeps every
    sample's identity. Samples load in index order, so a reordered manifest
    loads the same corpus. Raises CorpusError for missing manifest columns or
    fields, a malformed, non-canonical or repeated sample_id, a non-integer
    speaker, a WAV at another rate than its row's mixture, one the front-end
    refuses (front_end_refusal) or, for a source, one of another length, a
    confused_flag not 0 or 1 or at odds with the seeded confusion draw, or a
    meta.json that is not JSON, lacks a key or has a malformed confusion config.
    """
    manifest = Path(manifest_path)
    base = manifest.parent
    meta_path = base / META_NAME
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        for key in ("seed", "speaker_seed", "speaker_count", "duration_s", "confusion"):
            if key not in meta:
                raise CorpusError(f"{meta_path}: missing key {key!r}")
        confusion = ConfusionConfig(**meta["confusion"])
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"{meta_path}: malformed metadata ({exc})") from exc
    samples = []
    seen: set[int] = set()
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in MANIFEST_FIELDS if c not in (reader.fieldnames or ())]
        if missing:
            raise CorpusError(f"{manifest}: missing columns {missing}")
        for row in reader:
            sid = row["sample_id"]
            if None in row.values():
                raise CorpusError(f"{manifest}: row {sid!r} has fewer fields than the header")
            match = re.fullmatch(r"sample_(\d+)", sid)
            if match is None:
                raise CorpusError(f"{manifest}: malformed sample_id {sid!r}")
            if int(match[1]) in seen:
                raise CorpusError(f"{manifest}: sample_id {sid!r} is listed twice")
            seen.add(int(match[1]))
            for column in _INT_FIELDS:
                if re.fullmatch(r"\s*[-+]?\d+\s*", row[column]) is None:
                    raise CorpusError(
                        f"{manifest}: {sid} has {column} {row[column]!r}, expected an integer"
                    )
            spk_target, spk_interferer, flag = (int(row[c]) for c in _INT_FIELDS)
            if flag not in (0, 1):
                raise CorpusError(f"{manifest}: {sid} has confused_flag {flag}, expected 0 or 1")
            waves = {name: load_wav(base / row[name]) for name in _WAVE_FIELDS}
            mixture = waves["mixture"]
            for column, w in waves.items():  # the mixture first, so a refused rate names it
                if w.sample_rate != mixture.sample_rate:
                    raise CorpusError(f"{manifest}: {sid} has {column} at {w.sample_rate} Hz, "
                                      f"its mixture at {mixture.sample_rate} Hz")
                refusal = front_end_refusal(w)
                if refusal is not None:
                    raise CorpusError(f"{manifest}: {sid} has {column} {refusal}")
                if column.startswith("source") and len(w) != len(mixture):
                    raise CorpusError(f"{manifest}: {sid} has {column} of {len(w)} samples, "
                                      f"its mixture of {len(mixture)}")
            sample = ExtractionSample(**waves, spk_target=spk_target,
                                      spk_interferer=spk_interferer, index=int(match[1]))
            if sid != sample.sample_id:
                raise CorpusError(f"{manifest}: sample_id {sid!r} is not canonical, "
                                  f"expected {sample.sample_id!r}")
            if flag != confusion_draw(sample, confusion):
                raise CorpusError(
                    f"{manifest}: {sid} has confused_flag {flag}, "
                    "which disagrees with its seeded confusion draw"
                )
            samples.append(sample)
    return Corpus(sorted(samples, key=lambda s: s.index), confusion)
