"""Corpus-level statistics: quadrant counts, confusion rates, margin analysis.

Every sample is evaluated twice, with each speaker set as the target in
turn, yielding per-sample SI-SDRi pairs plus the embedding similarities
needed to reproduce the scatter analyses externally.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .embedding import ToyEncoder, cosine_similarity, encode
from .postfilter import (
    PostFilterParams,
    _read_table,
    _write_table,
    decide_confused,
    score_corpus,
)
from .simulate import Corpus, confusion_draw, swap_roles


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
    (flagged_* stay False); with params, the post-filtered one. Both roles
    are scored in one pass, so each mixture's six waveforms (two estimates,
    two enrollments, two sources) are embedded once each.
    """
    roles = [r for s in corpus.samples for r in (s, swap_roles(s))]
    scored = score_corpus(roles, corpus.confusion, enc)
    records = []
    for sample in corpus.samples:
        sources = {
            id(w): encode(enc, w) for w in (sample.source_target, sample.source_interferer)
        }
        row = {"sample_id": f"sample_{sample.index:05d}"}
        for role in (1, 2):
            sc = next(scored)
            s = sc.sample
            flagged = params is not None and decide_confused(sc.pair, params)
            tgt, itf = sources[id(s.source_target)], sources[id(s.source_interferer)]
            row.update({
                f"si_sdri_{role}": sc.payoff(flagged),
                f"pi_{role}": sc.pair.pi,
                f"phi_{role}": sc.pair.phi,
                f"cos_tgt_{role}": cosine_similarity(sc.e_t_emb, tgt),
                f"cos_int_{role}": cosine_similarity(sc.e_t_emb, itf),
                f"flagged_{role}": flagged,
                f"confused_{role}": confusion_draw(s, corpus.confusion),
            })
        records.append(EvalRecord(**row))
    return records


def quadrant_stats(records: list[EvalRecord], threshold: float = 5.0) -> dict[str, int]:
    """Partition SI-SDRi pairs by which roles clear the threshold."""
    if not records:
        raise ValueError("no records to partition")
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
        doc = {"stats": stats, "records": [asdict(r) for r in records]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        _write_table(EvalRecord, records, path)
        with open(f"{path}.stats.json", "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def read_report_csv(path: str | os.PathLike) -> list[EvalRecord]:
    return _read_table(EvalRecord, path)


def read_report_json(path: str | os.PathLike) -> tuple[list[EvalRecord], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return [EvalRecord(**r) for r in doc["records"]], doc["stats"]
