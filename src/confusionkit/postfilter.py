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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, save_wav, si_sdr_improvement
from .embedding import ToyEncoder, encode, l2_distance_normed
from .errors import ConfusionKitError, LengthMismatchError, SampleRateMismatchError
from .simulate import Corpus, ExtractionSample, toy_separator

GRID_STEP = 0.1


def _grid(lo: float, step: float = GRID_STEP) -> np.ndarray:
    """One-decimal values from lo to lo + 2 inclusive: every tuner grid."""
    return np.round(np.arange(lo, lo + 2.0 + 1e-9, step), 1)


PI_GRID = _grid(0.0)
PHI_GRID = PI_GRID
MU_GRID = PI_GRID
LAMBDA_GRID = _grid(-1.0)

RECORDS_FIELDS = ["sample_id", "pi", "phi", "flagged", "si_sdri_raw", "si_sdri_final"]


@dataclass
class SimilarityPair:
    """The two post-filter features of one sample: distances to enrollments."""

    pi: float
    phi: float
    index: int = 0


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
class PipelineRecord:
    """Per-sample output of the inference pipeline."""

    sample_id: str
    pi: float
    phi: float
    flagged: bool
    si_sdri_raw: float
    si_sdri_final: float


def similarity_features(
    estimate: Waveform, e_t: Waveform, e_f: Waveform, enc: ToyEncoder, index: int = 0
) -> SimilarityPair:
    """Distances from the estimate's embedding to both enrollment embeddings."""
    est_emb = encode(enc, estimate)
    return SimilarityPair(
        pi=l2_distance_normed(est_emb, encode(enc, e_t)),
        phi=l2_distance_normed(est_emb, encode(enc, e_f)),
        index=index,
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


def _check_grid_step(grid_step: float) -> None:
    """Steps must keep every grid value on one decimal place (params.json)."""
    tenths = grid_step * 10.0
    on_grid = np.isfinite(grid_step) and abs(tenths - round(tenths)) < 1e-9
    if not (on_grid and grid_step > 0):
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


def build_validation_records(
    corpus: Corpus,
    enc: ToyEncoder,
    estimates: list[Waveform] | None = None,
) -> list[ValidationRecord]:
    """Score every corpus sample for tuning: features plus both branch payoffs.

    Estimates default to the toy separator run under the corpus's own
    confusion config.
    """
    records = []
    for pos, sample in enumerate(corpus.samples):
        est = (
            estimates[pos]
            if estimates is not None
            else toy_separator(sample, corpus.confusion)
        )
        pair = similarity_features(
            est, sample.enroll_target, sample.enroll_interferer, enc, sample.index
        )
        records.append(
            ValidationRecord(
                pair=pair,
                keep_value=si_sdri_of(est, sample),
                subtract_value=si_sdri_of(
                    apply_postfilter(sample.mixture, est, True), sample
                ),
            )
        )
    return records


def si_sdri_of(est: Waveform, sample: ExtractionSample) -> float:
    """SI-SDR improvement of an estimate for a sample's target source."""
    return si_sdr_improvement(est, sample.mixture, sample.source_target)


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
    out_dir set, rectified audio and the records CSV are written there.
    """
    records = []
    outputs = []
    used_estimates = []
    for pos, sample in enumerate(corpus.samples):
        est = (
            estimates[pos]
            if estimates is not None
            else toy_separator(sample, corpus.confusion)
        )
        used_estimates.append(est)
        pair = similarity_features(
            est, sample.enroll_target, sample.enroll_interferer, enc, sample.index
        )
        flagged = decide_confused(pair, params)
        final = apply_postfilter(sample.mixture, est, flagged)
        outputs.append(final)
        records.append(
            PipelineRecord(
                sample_id=f"sample_{sample.index:05d}",
                pi=pair.pi,
                phi=pair.phi,
                flagged=flagged,
                si_sdri_raw=si_sdri_of(est, sample),
                si_sdri_final=si_sdri_of(final, sample),
            )
        )
    if out_dir is not None:
        out = Path(out_dir)
        audio_dir = out / "audio"
        audio_dir.mkdir(parents=True, exist_ok=True)
        for record, final, est in zip(records, outputs, used_estimates):
            save_wav(final, audio_dir / f"{record.sample_id}_output.wav")
            save_wav(est, audio_dir / f"{record.sample_id}_estimate.wav")
        write_records(records, out / "records.csv")
    return records


def write_records(records: list[PipelineRecord], path: str | os.PathLike) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.sample_id,
                    repr(r.pi),
                    repr(r.phi),
                    int(r.flagged),
                    repr(r.si_sdri_raw),
                    repr(r.si_sdri_final),
                ]
            )


def read_records(path: str | os.PathLike) -> list[PipelineRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                PipelineRecord(
                    sample_id=row["sample_id"],
                    pi=float(row["pi"]),
                    phi=float(row["phi"]),
                    flagged=bool(int(row["flagged"])),
                    si_sdri_raw=float(row["si_sdri_raw"]),
                    si_sdri_final=float(row["si_sdri_final"]),
                )
            )
    return records


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
    """Load parameters saved by save_params; ConfusionKitError if malformed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return PostFilterParams(
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
