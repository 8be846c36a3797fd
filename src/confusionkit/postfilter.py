"""Inference-time detection and rectification of confused extraction outputs.

Each estimate is scored by two embedding distances: pi to the target
enrollment and phi to the interferer enrollment. A decision border over
(pi, phi), tuned by exhaustive grid search on a validation set, flags
confused samples, which are then rectified by subtracting the estimate
from the mixture.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .audio import Waveform, save_wav, si_sdr, write_json, write_table
from .embedding import ToyEncoder, pooled_features, project_rows
from .errors import ConfusionKitError, LengthMismatchError, SampleRateMismatchError
from .simulate import (ConfusionConfig, Corpus, ExtractionSample, check_number, confusion_draw,
                       swap_roles, toy_separator)

GRID_STEP = 0.1


@functools.lru_cache(maxsize=16)
def _grid(lo: float) -> np.ndarray:
    """One-decimal values from lo to lo + 2 inclusive: every tuner grid, shared, so read-only."""
    grid = np.round(np.arange(lo, lo + 2.0 + 1e-9, GRID_STEP), 1)
    grid.flags.writeable = False
    return grid


@dataclass
class SimilarityPair:
    """The two post-filter features, distances to enrollments: of one sample as
    floats, or of many as arrays of one shape."""

    pi: float | np.ndarray
    phi: float | np.ndarray


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
    """One scored sample, for tuning and for the pipeline's report: features
    plus both precomputed branch payoffs.

    keep_value is the SI-SDRi of passing the estimate through; subtract_value
    is the SI-SDRi after mixture subtraction. Ground truth is consulted only
    for these payoffs, never by the decision border.
    """

    pair: SimilarityPair
    keep_value: float
    subtract_value: float


@dataclass(slots=True)
class EstimateRow:
    """One role's scored separator estimate under one confusion config: SI-SDRs
    against the target of the estimate, of the mixture and of the mixture minus
    the estimate, pooled features and the separator's confusion draw (None for a
    given estimate)."""

    sdr: float
    pooled: np.ndarray
    baseline: float
    subtract: float
    confused: bool | None = None

    def payoff(self, flagged: bool) -> float:
        """SI-SDRi of the branch taken."""
        return (self.subtract if flagged else self.sdr) - self.baseline


# Rows live in the store of the mixture every role shares (swap_roles builds a fresh
# sample): scoring's under (_ROLE(sample), config), training's with "train" appended.
_ROLE = attrgetter(
    "swapped", *(f.name for f in fields(ExtractionSample) if f.name not in ("mixture", "swapped")))


def estimate_row(sample: ExtractionSample, confusion: ConfusionConfig) -> tuple[float, np.ndarray]:
    """Training's row of the sample: its toy-separator estimate's SI-SDR against
    the target and pooled features, kept once per role and config in a process."""
    key = (_ROLE(sample), confusion, "train")
    row = sample.mixture.derived.get(key)
    if row is None:
        est = toy_separator(sample, confusion)
        row = sample.mixture.derived[key] = si_sdr(est, sample.source_target), pooled_features(est)
    return row


def scored_row(sample: ExtractionSample, confusion: ConfusionConfig,
               est: Waveform | None = None) -> EstimateRow:
    """The sample's scored row, whole when made: of a given estimate, fresh and never
    stored; otherwise the toy separator's, kept once per role and config in a process
    and made from one separator call, whose estimate goes once the row is made."""
    store = {} if est is not None else sample.mixture.derived
    key = (_ROLE(sample), confusion)
    row = store.get(key)
    if row is None:
        confused = None if est is not None else confusion_draw(sample, confusion)
        est = toy_separator(sample, confusion) if est is None else est
        y, target = sample.mixture, sample.source_target
        row = store[key] = EstimateRow(si_sdr(est, target), pooled_features(est), si_sdr(y, target),
                                       si_sdr(apply_postfilter(y, est, True), target), confused)
    return row


def scored_rows(s: ExtractionSample, confusion: ConfusionConfig) -> tuple[EstimateRow, EstimateRow]:
    """The scored rows of s and of swap_roles(s); the swapped sample is built only
    when its row is missing."""
    swapped = (not s.swapped, s.source_interferer, s.source_target, s.enroll_interferer,
               s.enroll_target, s.spk_interferer, s.spk_target, s.index)  # _ROLE(swap_roles(s))
    one, two = scored_row(s, confusion), s.mixture.derived.get((swapped, confusion))
    if two is None:
        two = scored_row(swap_roles(s), confusion)
    return one, two


@dataclass
class PipelineRecord:
    """Per-sample output of the inference pipeline."""

    sample_id: str
    pi: float
    phi: float
    flagged: bool
    si_sdri_raw: float
    si_sdri_final: float


def similarity_features(est: np.ndarray, e_t: np.ndarray, e_f: np.ndarray) -> SimilarityPair:
    """(pi, phi) as arrays over the leading axes: Euclidean distances from ... x D
    unit estimate embeddings to the target's and the interferer's enrollment
    embeddings."""
    return SimilarityPair(*(np.sqrt(np.vecdot(d, d)) for d in (est - e_t, est - e_f)))


# The decision borders, strict on both sides, over floats or broadcast arrays.
def _rectangular(pi, phi, pi_threshold, phi_threshold):
    return (pi > pi_threshold) & (phi < phi_threshold)


def _linear(pi, phi, mu, lam):
    return phi < mu * pi + lam


def decide_confused(p: SimilarityPair, params: PostFilterParams) -> bool:
    """Apply the decision border of the params' variant, elementwise if p holds arrays."""
    if params.variant == "rectangular":
        return _rectangular(p.pi, p.phi, params.pi_threshold, params.phi_threshold)
    return _linear(p.pi, p.phi, params.mu, params.lam)


def _grid_argmax(
    records: list[ValidationRecord], a_lo: float, b_lo: float, flag_fn
) -> tuple[tuple[float, float], float]:
    """Pick the (a, b) grid candidate, from (a_lo, b_lo), maximizing the summed payoff.

    All candidates are scored at once as a (candidates x records) flag
    matrix. Ties prefer fewer flagged samples, then the lexicographically
    smallest parameters. A record with a non-finite value is refused.
    """
    if not records:
        raise ValueError("cannot tune on an empty record set")
    values = np.array([(r.pair.pi, r.pair.phi, r.keep_value, r.subtract_value) for r in records])
    bad = np.argwhere(~np.isfinite(values.T))  # by column, then by record
    if bad.size:
        column, i = bad[0]
        name = ("pi", "phi", "keep_value", "subtract_value")[column]
        raise ValueError(f"record {i} has non-finite {name} {float(values[i, column])!r}")
    pi, phi, keep, sub = values.T
    a, b = _grid(a_lo), _grid(b_lo)
    # (a, b) candidates in lexicographic order, as meshgrid(a, b, indexing="ij") lists them.
    flags = flag_fn(pi, phi, a[:, None, None], b[:, None]).reshape(-1, len(records))
    objective = np.where(flags, sub, keep).sum(axis=1)
    top = np.fmax.reduce(objective)  # a NaN sum (an overflow) ranks last, as lexsort ranked it
    ties = np.flatnonzero((objective == top) | np.isnan(top))
    best = ties[np.count_nonzero(flags[ties], axis=1).argmin()]  # the first with the fewest flags
    return (float(a[best // b.size]), float(b[best % b.size])), float(objective[best])


def _on_tenths(x) -> bool:
    """x is a finite real number (not a bool) with one decimal place."""
    try:
        check_number("threshold", x)
        tenths = float(x) * 10.0
    except (ValueError, OverflowError):  # not a number, or an int beyond float range
        return False
    return bool(np.isfinite(tenths)) and abs(tenths - round(tenths)) < 1e-9


def tune_rectangular(records: list[ValidationRecord]) -> tuple[PostFilterParams, float]:
    """Exhaustive search of the rectangular border over one-decimal thresholds.

    The grid contains the flag-nothing setting (Phi = 0), so the tuned
    objective never falls below the unfiltered one.
    """
    (a, b), objective = _grid_argmax(records, 0.0, 0.0, _rectangular)
    return PostFilterParams("rectangular", pi_threshold=a, phi_threshold=b), objective


def tune_linear(records: list[ValidationRecord]) -> tuple[PostFilterParams, float]:
    """Exhaustive search of the linear border phi < mu * pi + lambda.

    mu spans [0, 2] and lambda [-1, 1]; (mu=0, lambda=-1) flags nothing
    since phi is never negative.
    """
    (m, l), objective = _grid_argmax(records, 0.0, -1.0, _linear)
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
    corpus: Corpus, enc: ToyEncoder, estimates: list[Waveform] | None = None
) -> list[ValidationRecord]:
    """Score every corpus sample: (pi, phi) plus both branch payoffs.

    Estimates default to the toy separator under the corpus's confusion
    config, scored once per process through scored_row. `pooled_features`
    runs the front-end once per waveform, so enrollments shared with swapped
    roles or with later calls are not redone. Every row's estimate features
    and both enrollments go through one projection and one
    `similarity_features` call. Raises ValueError if estimates and samples
    differ in number.
    """
    samples = corpus.samples
    if estimates is not None and len(estimates) != len(samples):
        raise ValueError(f"{len(estimates)} estimates for {len(samples)} samples")
    if not samples:
        return []
    rows = [scored_row(s, corpus.confusion, est)
            for s, est in zip(samples, estimates or [None] * len(samples))]
    n = len(samples)
    emb = project_rows(enc, np.array(
        [row.pooled for row in rows] + [pooled_features(s.enroll_target) for s in samples]
        + [pooled_features(s.enroll_interferer) for s in samples]))
    pairs = similarity_features(emb[:n], emb[n : 2 * n], emb[2 * n :])
    return [ValidationRecord(SimilarityPair(pi, phi), row.payoff(False), row.payoff(True))
            for row, pi, phi in zip(rows, pairs.pi.tolist(), pairs.phi.tolist())]


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
    out_dir set, each sample's rectified and raw audio is written from its
    estimate, given or re-made by the deterministic separator, and the
    records CSV at the end.
    """
    scored = build_validation_records(corpus, enc, estimates)
    audio_dir = None if out_dir is None else Path(out_dir) / "audio"
    if audio_dir is not None:
        audio_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, (s, v) in enumerate(zip(corpus.samples, scored)):
        flagged = decide_confused(v.pair, params)
        record = PipelineRecord(
            sample_id=s.sample_id,
            pi=v.pair.pi,
            phi=v.pair.phi,
            flagged=flagged,
            si_sdri_raw=v.keep_value,
            si_sdri_final=v.subtract_value if flagged else v.keep_value,
        )
        records.append(record)
        if audio_dir is not None:
            est = toy_separator(s, corpus.confusion) if estimates is None else estimates[i]
            save_wav(apply_postfilter(s.mixture, est, flagged),
                     audio_dir / f"{record.sample_id}_output.wav")
            save_wav(est, audio_dir / f"{record.sample_id}_estimate.wav")
    if out_dir is not None:
        write_records(records, Path(out_dir) / "records.csv")
    return records


def write_records(records: list[PipelineRecord], path: str | os.PathLike) -> None:
    write_table([f.name for f in fields(PipelineRecord)], map(asdict, records), path)


# params.json's key for each PostFilterParams field after variant, in file order.
_PARAM_KEYS = {"pi_threshold": "Pi", "phi_threshold": "Phi", "mu": "mu", "lam": "lambda"}


def save_params(params: PostFilterParams, path: str | os.PathLike) -> None:
    """Persist tuned parameters as {variant, Pi, Phi, mu, lambda}."""
    write_json({"variant": params.variant,
                **{key: getattr(params, name) for name, key in _PARAM_KEYS.items()}}, path)


def load_params(path: str | os.PathLike) -> PostFilterParams:
    """Load parameters saved by save_params; ConfusionKitError if malformed,
    including an active-variant value that is not a one-decimal number."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        params = PostFilterParams(doc["variant"],
                                  **{name: doc[key] for name, key in _PARAM_KEYS.items()})
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
