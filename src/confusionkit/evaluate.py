"""Corpus-level statistics: quadrant counts, confusion rates, margin analysis.

Every sample is evaluated twice, with each speaker set as the target in
turn, yielding per-sample SI-SDRi pairs plus the embedding similarities
needed to reproduce the scatter analyses externally.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import write_json, write_table
from .embedding import ToyEncoder, pooled_features, project_rows
from .postfilter import PostFilterParams, decide_confused, scored_rows, similarity_features
from .simulate import Corpus


@dataclass
class EvalRecord:
    """Both-roles evaluation of one mixture.

    Role 1 keeps the generated target assignment; role 2 swaps speakers.
    cos_tgt/cos_int are enrollment-to-source cosine similarities; confused_*
    are the simulator's ground-truth flags (None when unavailable).
    """

    sample_id: str
    si_sdri_1: float
    si_sdri_2: float
    pi_1: float
    phi_1: float
    pi_2: float
    phi_2: float
    cos_tgt_1: float
    cos_int_1: float
    cos_tgt_2: float
    cos_int_2: float
    flagged_1: bool
    flagged_2: bool
    confused_1: bool | None = None
    confused_2: bool | None = None


def paired_eval_records(
    corpus: Corpus,
    enc: ToyEncoder,
    params: PostFilterParams | None = None,
) -> list[EvalRecord]:
    """Evaluate every sample with both speakers as target, optionally filtered.

    Without params, records carry the raw separator performance
    (flagged_* stay False); with params, the post-filtered one. Both roles'
    rows come from scored_rows, each made whole once. Then one projection
    embeds every mixture's six waveforms (two estimates, two enrollments, two
    sources), each through the front-end once. The cosines have the bits of
    `np.dot(a, b) / (norm(a) * norm(b))` on `encode` rows.
    """
    samples = corpus.samples
    if not samples:
        return []
    rows = [scored_rows(s, corpus.confusion) for s in samples]
    # Per mixture: target and interferer enrollments and sources, then both roles' estimates.
    emb = project_rows(enc, np.array([
        v for s, (one, two) in zip(samples, rows)
        for v in (*map(pooled_features, (s.enroll_target, s.enroll_interferer, s.source_target,
                                         s.source_interferer)), one.pooled, two.pooled)
    ])).reshape(len(samples), 6, -1)
    norms = np.sqrt(np.vecdot(emb[:, :4], emb[:, :4]))
    enroll, source = [0, 0, 1, 1], [2, 3, 3, 2]  # cos_tgt_1, cos_int_1, cos_tgt_2, cos_int_2
    cosines = (np.vecdot(emb[:, enroll], emb[:, source])
               / (norms[:, enroll] * norms[:, source])).tolist()
    # Both roles' (pi, phi); role 2's target enrollment is the interferer's.
    pairs = similarity_features(emb[:, 4:], emb[:, :2], emb[:, 1::-1])
    flags = np.zeros(pairs.pi.shape, bool) if params is None else decide_confused(pairs, params)
    records = []
    for s, (one, two), cos, (pi_1, pi_2), (phi_1, phi_2), (flag_1, flag_2) in zip(
            samples, rows, cosines, pairs.pi.tolist(), pairs.phi.tolist(), flags.tolist()):
        records.append(EvalRecord(
            s.sample_id, one.payoff(flag_1), two.payoff(flag_2), pi_1, phi_1, pi_2, phi_2,
            *cos, flag_1, flag_2, one.confused, two.confused,
        ))
    return records


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def quadrant_stats(records: list[EvalRecord], threshold: float = 5.0) -> dict[str, int]:
    """Partition SI-SDRi pairs by which roles clear the threshold."""
    if not records:
        raise ValueError("no records to partition")
    _check_finite("quadrant threshold", threshold)
    counts = {"both_above": 0, "s1_below": 0, "s2_below": 0, "both_below": 0}
    for r in records:
        a, b = r.si_sdri_1 > threshold, r.si_sdri_2 > threshold
        if a and b:
            counts["both_above"] += 1
        elif b:
            counts["s1_below"] += 1
        elif a:
            counts["s2_below"] += 1
        else:
            counts["both_below"] += 1
    return counts


def confusion_rate(records: list[EvalRecord], threshold_db: float = -5.0) -> float:
    """Fraction of roles (two per record) whose SI-SDRi falls below the threshold."""
    if not records:
        raise ValueError("no records")
    _check_finite("confusion threshold", threshold_db)
    below = sum(
        (r.si_sdri_1 < threshold_db) + (r.si_sdri_2 < threshold_db) for r in records
    )
    return below / (2 * len(records))


def margin_analysis(records: list[EvalRecord], margin: float = 0.1) -> dict[str, float]:
    """Enrollment-side similarity margins over all roles.

    fraction_correct_side: roles whose enrollment is closer (by cosine) to
    the target source than to the interferer. fraction_beyond_margin: roles
    where that similarity gap exceeds the margin. confusion_fraction_beyond:
    among ground-truth confused roles, the fraction whose gap does NOT
    exceed the margin (0.0 when no role is confused).
    """
    if not records:
        raise ValueError("no records")
    _check_finite("similarity margin", margin)
    gaps = []
    confused = []
    for r in records:
        gaps.append(r.cos_tgt_1 - r.cos_int_1)
        gaps.append(r.cos_tgt_2 - r.cos_int_2)
        confused.append(bool(r.confused_1))
        confused.append(bool(r.confused_2))
    gaps = np.asarray(gaps)
    confused = np.asarray(confused)
    n_confused = int(confused.sum())
    beyond_among_confused = (
        float((gaps[confused] <= margin).sum() / n_confused) if n_confused else 0.0
    )
    return {
        "fraction_correct_side": float((gaps > 0.0).mean()),
        "fraction_beyond_margin": float((gaps > margin).mean()),
        "confusion_fraction_beyond": beyond_among_confused,
    }


def emit_report(
    records: list[EvalRecord],
    stats: dict,
    path: str | os.PathLike,
    format: str = "json",
) -> None:
    """Write records and stats to disk, as one JSON document or as CSV.

    CSV mode writes the record table to `path` (plot-ready columns) and the
    stats to `path` + '.stats.json'. Refuses to write empty reports.
    """
    if not records:
        raise ValueError("refusing to emit a report with no records")
    if not stats:
        raise ValueError("refusing to emit a report with no stats")
    if format == "json":
        write_json({"stats": stats, "records": [asdict(r) for r in records]}, path)
    elif format == "csv":
        write_table([f.name for f in fields(EvalRecord)], map(asdict, records), path)
        write_json(stats, f"{path}.stats.json")
    else:
        raise ValueError(f"unknown report format {format!r}")

