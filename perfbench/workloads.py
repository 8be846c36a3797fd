"""The four benchmark workloads, written against confusionkit's public API.

Each workload has three steps:

- ``prepare(case, ctx)`` builds the inputs outside the timed region;
- ``rep(inputs)`` is one timed repetition, returning its outputs;
- ``check(inputs, outputs)`` runs untimed and returns the work done, the
  named sha256 digests of the outputs the README promises byte-identical,
  and deterministic quality figures.

Library functions are always looked up through their module
(``simulate.build_corpus``), so a tracer that patches module namespaces
sees every call the benchmark makes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from confusionkit import cli, embedding, evaluate, losses, postfilter, simulate, training

HERE = Path(__file__).resolve().parent
ENCODER_PATH = HERE / "data" / "encoder_pl2.json"
# Input cases per workload: a run uses case ``seed % CASES``, and
# reference.json holds the output digests of every case.
CASES = 16

# Criterion-5 per-scheme settings (learning rate, GE2E bank cap); epochs
# are the workload's own, reduced count.
SCHEME_SETTINGS = {
    "TL1": dict(learning_rate=0.2),
    "TL2": dict(learning_rate=0.2),
    "PL1": dict(learning_rate=0.2),
    "PL2": dict(learning_rate=0.2),
    "GL1": dict(learning_rate=0.1, bank_cap=6),
    "GL2": dict(learning_rate=0.3, bank_cap=4),
    "CE": dict(learning_rate=0.2),
}

# The confusion settings of Criterion 4 (scored corpus) and Criterion 5
# (training corpora); the case shifts every seed so inputs differ per case.
# The speaker population stays fixed: synthesis cost grows as f0 falls, so
# a per-case population would make throughput depend on the seed.
SCORE_CONFUSION = dict(probability=0.15, leakage=0.05, noise_snr_db=20.0)
TRAIN_CONFUSION = dict(probability=0.05, leakage=0.05, noise_snr_db=20.0)
SPEAKER_SEED = 42


@dataclass(frozen=True)
class Size:
    """Input sizes: FULL is what the benchmark measures, TINY feeds the self-test."""

    corpus_samples: int = 32
    corpus_duration_s: float = 3.0
    train_speakers: int = 8
    train_samples: int = 48
    held_samples: int = 24
    train_duration_s: float = 2.0
    train_epochs: int = 4
    score_samples: int = 48
    score_duration_s: float = 3.0
    cli_speakers: int = 4
    cli_samples: int = 12
    cli_duration_s: float = 2.0
    cli_epochs: int = 20


FULL = Size()
TINY = Size(corpus_samples=2, corpus_duration_s=1.0, train_speakers=4,
            train_samples=12, held_samples=6, train_duration_s=1.0, train_epochs=1,
            score_samples=6, score_duration_s=1.0, cli_duration_s=1.0, cli_epochs=2)


@dataclass(frozen=True)
class Context:
    """What every prepare step may need besides the case."""

    size: Size
    encoder_sha256: str
    scratch: Path


@dataclass
class Checked:
    work: int
    parts: dict[str, str]
    quality: dict[str, float] = field(default_factory=dict)


class Digest:
    """sha256 over arrays and scalars; remembers whether all were finite."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.finite = True

    def array(self, values) -> "Digest":
        arr = np.ascontiguousarray(values, dtype=np.float64)
        self.finite &= bool(np.all(np.isfinite(arr)))
        self._h.update(repr(arr.shape).encode())
        self._h.update(arr.tobytes())
        return self

    def value(self, v) -> "Digest":
        items = v if isinstance(v, tuple) else (v,)
        self.finite &= all(np.isfinite(x) for x in items if isinstance(x, float))
        self._h.update(repr(v).encode() + b";")
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest() if self.finite else "non-finite output"


def _confusion(settings: dict, seed: int) -> simulate.ConfusionConfig:
    return simulate.ConfusionConfig(seed=seed, **settings)


def _corpus_digest(corpus) -> Digest:
    d = Digest()
    for s in corpus.samples:
        d.value((s.index, s.spk_target, s.spk_interferer))
        for w in (s.mixture, s.source_target, s.source_interferer,
                  s.enroll_target, s.enroll_interferer):
            d.array(w.samples)
    return d


# --- corpus: in-memory synthesis only -------------------------------------

@dataclass
class CorpusInputs:
    size: Size
    confusion: simulate.ConfusionConfig
    seed: int


def corpus_prepare(case: int, ctx: Context) -> CorpusInputs:
    inputs = CorpusInputs(ctx.size, _confusion(SCORE_CONFUSION, 9 + 1000 * case), 301 + 1000 * case)
    # Warm-up: one sample, so lazy imports and first-call costs fall here.
    simulate.build_corpus(8, 1, inputs.confusion, 1.0, seed=inputs.seed,
                          speaker_seed=SPEAKER_SEED)
    return inputs


def corpus_rep(inp: CorpusInputs):
    return simulate.build_corpus(8, inp.size.corpus_samples, inp.confusion,
                                 inp.size.corpus_duration_s, seed=inp.seed,
                                 speaker_seed=SPEAKER_SEED)


def corpus_check(inp: CorpusInputs, corpus) -> Checked:
    flags = Digest().value(tuple(corpus.confused_flags))
    return Checked(len(corpus.samples), {"audio": _corpus_digest(corpus).hexdigest(),
                                         "flags": flags.hexdigest()})


# --- train: the seven schemes' training loops ------------------------------

@dataclass
class TrainInputs:
    size: Size
    case: int
    train: simulate.Corpus
    held: simulate.Corpus


def train_prepare(case: int, ctx: Context) -> TrainInputs:
    size = ctx.size
    confusion = _confusion(TRAIN_CONFUSION, 1 + 1000 * case)
    build = lambda n, seed: simulate.build_corpus(
        size.train_speakers, n, confusion, size.train_duration_s,
        seed=seed, speaker_seed=SPEAKER_SEED)
    return TrainInputs(size, case, build(size.train_samples, 101 + 1000 * case),
                       build(size.held_samples, 202 + 1000 * case))


def train_rep(inp: TrainInputs):
    runs = []
    for scheme in losses.SCHEMES:
        config = training.TrainConfig(scheme=scheme, epochs=inp.size.train_epochs,
                                      seed=inp.case, **SCHEME_SETTINGS[scheme])
        encoder, ge2e, report = training.train_encoder(inp.train, config)
        runs.append((scheme, encoder, ge2e, report,
                     training.eval_embedding_quality(encoder, inp.held)))
    return runs


def train_check(inp: TrainInputs, runs) -> Checked:
    # Only the learned projection is pinned: the reported losses include the
    # gradient-free reconstruction term, which may change without changing
    # what is learned.
    parts = {scheme: Digest().array(encoder.projection).hexdigest()
             for scheme, encoder, *_ in runs}
    work = len(runs) * inp.size.train_epochs * len(inp.train.samples)
    ratio = float(np.mean([held.ratio for *_, held in runs]))
    return Checked(work, parts, {"embed_ratio": ratio})


# --- score: validation, tuning, pipeline and paired evaluation -------------

@dataclass
class ScoreInputs:
    corpus: simulate.Corpus
    dev: simulate.Corpus
    test: simulate.Corpus
    encoder: embedding.ToyEncoder


def load_fixed_encoder(expected_sha256: str) -> embedding.ToyEncoder:
    """The stored Criterion-4 encoder, refused unless its file digest matches."""
    actual = hashlib.sha256(ENCODER_PATH.read_bytes()).hexdigest()
    if actual != expected_sha256:
        raise RuntimeError(f"{ENCODER_PATH.name}: sha256 {actual} != reference {expected_sha256}")
    return embedding.load_encoder(ENCODER_PATH)


def score_prepare(case: int, ctx: Context) -> ScoreInputs:
    size, n = ctx.size, ctx.size.score_samples
    corpus = simulate.build_corpus(8, n, _confusion(SCORE_CONFUSION, 9 + 1000 * case),
                                   size.score_duration_s, seed=301 + 1000 * case,
                                   speaker_seed=SPEAKER_SEED)
    return ScoreInputs(corpus, simulate.subset(corpus, list(range(0, n, 2))),
                       simulate.subset(corpus, list(range(1, n, 2))),
                       load_fixed_encoder(ctx.encoder_sha256))


def score_rep(inp: ScoreInputs):
    dev_records = postfilter.build_validation_records(inp.dev, inp.encoder)
    linear, _ = postfilter.tune_linear(dev_records)
    rectangular, _ = postfilter.tune_rectangular(dev_records)
    pipeline = postfilter.run_pipeline(inp.test, inp.encoder, linear)
    evals = evaluate.paired_eval_records(inp.corpus, inp.encoder, linear)
    stats = (evaluate.quadrant_stats(evals), evaluate.confusion_rate(evals),
             evaluate.margin_analysis(evals))
    return dev_records, linear, rectangular, pipeline, evals, stats


def score_check(inp: ScoreInputs, out) -> Checked:
    dev_records, linear, rectangular, pipeline, evals, stats = out
    params = Digest()
    for p in (linear, rectangular):
        params.value((p.variant, p.pi_threshold, p.phi_threshold, p.mu, p.lam))
    records = Digest()
    for r in pipeline:
        records.value((r.sample_id, r.pi, r.phi, r.flagged, r.si_sdri_raw, r.si_sdri_final))
    paired = Digest()
    for r in evals:
        paired.value(tuple(vars(r).values()))

    flags = [postfilter.decide_confused(r.pair, linear) for r in dev_records]
    planted = inp.dev.confused_flags
    tp = sum(f and p for f, p in zip(flags, planted))
    quality = {
        "gain_db": float(np.mean([r.si_sdri_final - r.si_sdri_raw for r in pipeline])),
        "detect_precision": tp / max(1, sum(flags)),
        "detect_recall": tp / max(1, sum(planted)),
    }
    parts = {"params": params.hexdigest(), "pipeline": records.hexdigest(),
             "paired_eval": paired.hexdigest()}
    return Checked(len(inp.corpus.samples), parts, quality)


# --- cli: the README walkthrough through files -----------------------------

@dataclass
class CliInputs:
    size: Size
    case: int
    scratch: Path


def _walkthrough(size: Size, case: int, samples: int, epochs: int, work: Path) -> list[list[str]]:
    corpus, manifest = work / "corpus", str(work / "corpus" / simulate.MANIFEST_NAME)
    enc, params = str(work / "encoder.json"), str(work / "params.json")
    model = ["--manifest", manifest, "--encoder", enc]
    return [
        ["simulate", "--speakers", str(size.cli_speakers), "--samples", str(samples),
         "--duration-s", str(size.cli_duration_s), "--speaker-seed", str(SPEAKER_SEED),
         "--seed", str(case), "--out", str(corpus)],
        ["train", "--manifest", manifest, "--scheme", "PL1", "--epochs", str(epochs),
         "--seed", str(case), "--out-encoder", enc,
         "--out-report", str(work / "train_report.json")],
        ["tune", *model, "--variant", "lin", "--out", params],
        ["run", *model, "--params", params, "--out", str(work / "run_out")],
        ["analyze", *model, "--params", params, "--format", "json",
         "--out", str(work / "report.json")],
    ]


def _run_cli(argvs: list[list[str]]) -> None:
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"confusionkit {argv[0]} exited with code {code}")


def cli_prepare(case: int, ctx: Context) -> CliInputs:
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    # Warm-up: a one-stage walkthrough on a throwaway directory.
    work = Path(tempfile.mkdtemp(dir=ctx.scratch))
    try:
        _run_cli(_walkthrough(ctx.size, case, 2, 1, work)[:1])
    finally:
        shutil.rmtree(work)
    return CliInputs(ctx.size, case, ctx.scratch)


def cli_rep(inp: CliInputs) -> Path:
    work = Path(tempfile.mkdtemp(dir=inp.scratch))
    _run_cli(_walkthrough(inp.size, inp.case, inp.size.cli_samples, inp.size.cli_epochs, work))
    return work


def _files_digest(root: Path, paths: list[Path], extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cli_check(inp: CliInputs, work: Path) -> Checked:
    try:
        tree = lambda d: [p for p in (work / d).rglob("*") if p.is_file()]
        # As in train_check, the multi-task loss totals are left out.
        report = json.loads((work / "train_report.json").read_text())
        del report["epoch_losses"]
        parts = {
            "simulate": _files_digest(work, tree("corpus")),
            "train": _files_digest(work, [work / "encoder.json"],
                                   json.dumps(report, sort_keys=True).encode()),
            "tune": _files_digest(work, [work / "params.json"]),
            "run": _files_digest(work, tree("run_out")),
            "analyze": _files_digest(work, [work / "report.json"]),
        }
        with open(work / "run_out" / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gain = float(np.mean([float(r["si_sdri_final"]) - float(r["si_sdri_raw"]) for r in rows]))
    finally:
        shutil.rmtree(work)
    if not np.isfinite(gain):
        parts["run"] = "non-finite output"
    return Checked(inp.size.cli_samples, parts, {"gain_db": gain})


@dataclass(frozen=True)
class Workload:
    prepare: object
    rep: object
    check: object
    item: str


WORKLOADS = {
    "corpus": Workload(corpus_prepare, corpus_rep, corpus_check, "samples"),
    "train": Workload(train_prepare, train_rep, train_check, "sample-epochs"),
    "score": Workload(score_prepare, score_rep, score_check, "corpus samples"),
    "cli": Workload(cli_prepare, cli_rep, cli_check, "corpus samples"),
}
