"""Inference-time detection and rectification of confused extraction outputs.

Each estimate is scored by two embedding distances: pi to the target
enrollment and phi to the interferer enrollment. A decision border over
(pi, phi), tuned by exhaustive grid search on a validation set, flags
confused samples, which are then rectified by subtracting the estimate
from the mixture.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .audio import Waveform, save_wav, si_sdr
from .embedding import Embedding, ToyEncoder, encode, l2_distance_normed
from .errors import ConfusionKitError, LengthMismatchError, SampleRateMismatchError
from .simulate import ConfusionConfig, Corpus, ExtractionSample, toy_separator

GRID_STEP = 0.1


def _grid(lo: float, step: float = GRID_STEP) -> np.ndarray:
    """One-decimal values from lo to lo + 2 inclusive: every tuner grid."""
    return np.round(np.arange(lo, lo + 2.0 + 1e-9, step), 1)


PI_GRID = _grid(0.0)
PHI_GRID = PI_GRID
MU_GRID = PI_GRID
LAMBDA_GRID = _grid(-1.0)


@dataclass
class SimilarityPair:
    """The two post-filter features of one sample: distances to enrollments."""

    pi: float
    phi: float


@dataclass
class PostFilterParams:
    """Tuned decision border, either rectangular (Pi, Phi) or linear (mu, lam).

    Values are quantized to one decimal place; only the active variant's
    fields are meaningful.
    """

    variant: str
    pi_threshold: float | None = None
    phi_threshold: float | None = None
    mu: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.variant == "rectangular":
            if self.pi_threshold is None or self.phi_threshold is None:
                raise ValueError("rectangular variant needs Pi and Phi thresholds")
        elif self.variant == "linear":
            if self.mu is None or self.lam is None:
                raise ValueError("linear variant needs mu and lambda")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class ValidationRecord:
    """Tuning-set entry: features plus both precomputed branch payoffs.

    keep_value is the SI-SDRi of passing the estimate through; subtract_value
    is the SI-SDRi after mixture subtraction. Ground truth is consulted only
    here, never at inference.
    """

    pair: SimilarityPair
    keep_value: float
    subtract_value: float


@dataclass
class ScoredSample:
    """One sample's pass through separator and encoder.

    baseline is the mixture's SI-SDR, keep the SI-SDRi of the estimate;
    e_t_emb is the target enrollment's embedding.
    """

    sample: ExtractionSample
    estimate: Waveform
    pair: SimilarityPair
    baseline: float
    keep: float
    e_t_emb: Embedding

    def payoff(self, flagged: bool) -> float:
        """SI-SDRi of the branch taken; the subtraction is computed only if flagged."""
        if not flagged:
            return self.keep
        subtracted = apply_postfilter(self.sample.mixture, self.estimate, True)
        return si_sdr(subtracted, self.sample.source_target) - self.baseline


@dataclass
class PipelineRecord:
    """Per-sample output of the inference pipeline."""

    sample_id: str
    pi: float
    phi: float
    flagged: bool
    si_sdri_raw: float
    si_sdri_final: float


def similarity_features(
    est_emb: Embedding, e_t_emb: Embedding, e_f_emb: Embedding
) -> SimilarityPair:
    """Distances from the estimate's embedding to both enrollment embeddings."""
    return SimilarityPair(
        pi=l2_distance_normed(est_emb, e_t_emb),
        phi=l2_distance_normed(est_emb, e_f_emb),
    )


def decide_confused(p: SimilarityPair, params: PostFilterParams) -> bool:
    """Apply the decision border; inequalities are strict on both sides."""
    if params.variant == "rectangular":
        return p.pi > params.pi_threshold and p.phi < params.phi_threshold
    return p.phi < params.mu * p.pi + params.lam


def _grid_argmax(
    records: list[ValidationRecord],
    candidates: list[tuple[float, float]],
    flag_fn,
) -> tuple[tuple[float, float], float]:
    """Pick the candidate maximizing the summed payoff.

    Ties prefer fewer flagged samples, then the lexicographically smallest
    parameters.
    """
    pi = np.asarray([r.pair.pi for r in records])
    phi = np.asarray([r.pair.phi for r in records])
    keep = np.asarray([r.keep_value for r in records])
    sub = np.asarray([r.subtract_value for r in records])
    best = None
    for a, b in candidates:
        flags = flag_fn(pi, phi, a, b)
        objective = float(np.where(flags, sub, keep).sum())
        key = (-objective, int(flags.sum()), a, b)
        if best is None or key < best[0]:
            best = (key, (a, b), objective)
    return best[1], best[2]


def _on_tenths(x) -> bool:
    """x is a finite real number (not a bool) with one decimal place."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        tenths = float(x) * 10.0
    except OverflowError:  # an int beyond float range
        return False
    return bool(np.isfinite(tenths)) and abs(tenths - round(tenths)) < 1e-9


def _check_grid_step(grid_step: float) -> None:
    """Steps must keep every grid value on one decimal place (params.json)."""
    if not (_on_tenths(grid_step) and grid_step > 0):
        raise ValueError(
            f"grid step must be a positive multiple of 0.1, got {grid_step!r}"
        )


def tune_rectangular(
    records: list[ValidationRecord], grid_step: float = GRID_STEP
) -> tuple[PostFilterParams, float]:
    """Exhaustive search of the rectangular border over one-decimal thresholds.

    The grid contains the flag-nothing setting (Phi = 0), so the tuned
    objective never falls below the unfiltered one.
    """
    if not records:
        raise ValueError("cannot tune on an empty record set")
    _check_grid_step(grid_step)
    grid = _grid(0.0, grid_step)
    candidates = [(float(a), float(b)) for a in grid for b in grid]
    (a, b), objective = _grid_argmax(
        records, candidates, lambda pi, phi, a, b: (pi > a) & (phi < b)
    )
    return PostFilterParams("rectangular", pi_threshold=a, phi_threshold=b), objective


def tune_linear(
    records: list[ValidationRecord], grid_step: float = GRID_STEP
) -> tuple[PostFilterParams, float]:
    """Exhaustive search of the linear border phi < mu * pi + lambda.

    mu spans [0, 2] and lambda [-1, 1]; (mu=0, lambda=-1) flags nothing
    since phi is never negative.
    """
    if not records:
        raise ValueError("cannot tune on an empty record set")
    _check_grid_step(grid_step)
    lam_grid = _grid(-1.0, grid_step)
    candidates = [(float(m), float(l)) for m in _grid(0.0, grid_step) for l in lam_grid]
    (m, l), objective = _grid_argmax(
        records, candidates, lambda pi, phi, m, l: phi < m * pi + l
    )
    return PostFilterParams("linear", mu=m, lam=l), objective


def apply_postfilter(y: Waveform, estimate: Waveform, flagged: bool) -> Waveform:
    """Subtract a flagged estimate from the mixture; pass others through."""
    if y.sample_rate != estimate.sample_rate:
        raise SampleRateMismatchError(
            f"mixture at {y.sample_rate} Hz, estimate at {estimate.sample_rate} Hz"
        )
    if len(y) != len(estimate):
        raise LengthMismatchError(
            f"mixture length {len(y)} != estimate length {len(estimate)}"
        )
    if not flagged:
        return estimate
    return Waveform(y.samples - estimate.samples, y.sample_rate)


def score_corpus(
    samples: list[ExtractionSample],
    confusion: ConfusionConfig,
    enc: ToyEncoder,
    estimates: list[Waveform] | None = None,
) -> Iterator[ScoredSample]:
    """Score each sample in turn: estimate, (pi, phi) and the keep payoff.

    Estimates default to the toy separator under the given confusion
    config. Each enrollment waveform object is embedded once per call, so
    samples that share enrollments (a sample and its swapped roles) reuse
    them. Estimates are not kept once their sample is yielded. Raises
    ValueError when iteration starts if estimates and samples differ in
    number.
    """
    if estimates is not None and len(estimates) != len(samples):
        raise ValueError(f"{len(estimates)} estimates for {len(samples)} samples")
    # `samples` keeps every enrollment alive, so its id is stable here.
    enrolled: dict[int, Embedding] = {}
    for pos, sample in enumerate(samples):
        est = estimates[pos] if estimates is not None else toy_separator(sample, confusion)
        for w in (sample.enroll_target, sample.enroll_interferer):
            if id(w) not in enrolled:
                enrolled[id(w)] = encode(enc, w)
        e_t_emb = enrolled[id(sample.enroll_target)]
        baseline = si_sdr(sample.mixture, sample.source_target)
        yield ScoredSample(
            sample=sample,
            estimate=est,
            pair=similarity_features(
                encode(enc, est), e_t_emb, enrolled[id(sample.enroll_interferer)]
            ),
            baseline=baseline,
            keep=si_sdr(est, sample.source_target) - baseline,
            e_t_emb=e_t_emb,
        )


def build_validation_records(corpus: Corpus, enc: ToyEncoder) -> list[ValidationRecord]:
    """Score every corpus sample for tuning: features plus both branch payoffs."""
    return [
        ValidationRecord(pair=s.pair, keep_value=s.keep, subtract_value=s.payoff(True))
        for s in score_corpus(corpus.samples, corpus.confusion, enc)
    ]


def run_pipeline(
    corpus: Corpus,
    enc: ToyEncoder,
    params: PostFilterParams,
    estimates: list[Waveform] | None = None,
    out_dir: str | os.PathLike | None = None,
) -> list[PipelineRecord]:
    """Full inference pass: estimate, score, decide, rectify, and record.

    The decision path sees only the mixture, estimate, and enrollments;
    ground-truth sources enter only the reported SI-SDRi columns. With
    out_dir set, each sample's rectified and raw audio is written as it is
    scored, and the records CSV at the end.
    """
    audio_dir = None if out_dir is None else Path(out_dir) / "audio"
    if audio_dir is not None:
        audio_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for s in score_corpus(corpus.samples, corpus.confusion, enc, estimates):
        flagged = decide_confused(s.pair, params)
        record = PipelineRecord(
            sample_id=f"sample_{s.sample.index:05d}",
            pi=s.pair.pi,
            phi=s.pair.phi,
            flagged=flagged,
            si_sdri_raw=s.keep,
            si_sdri_final=s.payoff(flagged),
        )
        records.append(record)
        if audio_dir is not None:
            final = apply_postfilter(s.sample.mixture, s.estimate, flagged)
            save_wav(final, audio_dir / f"{record.sample_id}_output.wav")
            save_wav(s.estimate, audio_dir / f"{record.sample_id}_estimate.wav")
    if out_dir is not None:
        write_records(records, Path(out_dir) / "records.csv")
    return records


def _write_table(cls, records: list, path: str | os.PathLike) -> None:
    """Dataclass records as CSV, one column per field in field order:
    floats as repr, bools as 0/1, None as an empty cell."""
    names = [f.name for f in fields(cls)]

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return int(v)
        return repr(v) if isinstance(v, float) else v

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([cell(getattr(r, n)) for n in names] for r in records)


def _read_table(cls, path: str | os.PathLike) -> list:
    """Records written by _write_table, parsed by each field's annotation
    (str, float, bool, or either of the last two or None)."""
    parse = {"str": str, "float": float, "bool": lambda text: bool(int(text))}

    def value(text: str, kind: str):
        base, _, optional = kind.partition(" | ")
        return None if optional and text == "" else parse[base](text)

    with open(path, newline="") as fh:
        return [
            cls(**{f.name: value(row[f.name], f.type) for f in fields(cls)})
            for row in csv.DictReader(fh)
        ]


def write_records(records: list[PipelineRecord], path: str | os.PathLike) -> None:
    _write_table(PipelineRecord, records, path)


def read_records(path: str | os.PathLike) -> list[PipelineRecord]:
    return _read_table(PipelineRecord, path)


def save_params(params: PostFilterParams, path: str | os.PathLike) -> None:
    """Persist tuned parameters as {variant, Pi, Phi, mu, lambda}."""
    doc = {
        "variant": params.variant,
        "Pi": params.pi_threshold,
        "Phi": params.phi_threshold,
        "mu": params.mu,
        "lambda": params.lam,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_params(path: str | os.PathLike) -> PostFilterParams:
    """Load parameters saved by save_params; ConfusionKitError if malformed,
    including an active-variant value that is not a one-decimal number."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        params = PostFilterParams(
            variant=doc["variant"],
            pi_threshold=doc["Pi"],
            phi_threshold=doc["Phi"],
            mu=doc["mu"],
            lam=doc["lambda"],
        )
    except KeyError as exc:
        raise ConfusionKitError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfusionKitError(f"{path}: malformed params file ({exc})") from exc
    for key in ("Pi", "Phi") if params.variant == "rectangular" else ("mu", "lambda"):
        if not _on_tenths(doc[key]):
            raise ConfusionKitError(
                f"{path}: {key!r} must be a one-decimal number, got {doc[key]!r}"
            )
    return params
