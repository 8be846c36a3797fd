"""Command-line entry point: simulate | train | tune | run | analyze.

Configuration precedence is built-in defaults, then a flat JSON config
file, then explicit flags. The CONFUSIONKIT_SEED environment variable is
the fallback seed when neither a flag nor the config provides one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import evaluate, postfilter, simulate, training
from .audio import load_wav, write_json
from .embedding import load_encoder, save_encoder
from .errors import ConfusionKitError
from .losses import SCHEMES

# Keys whose null means "not set": a fresh speaker population, no added noise.
_NULLABLE_KEYS = {"speaker_seed", "noise_snr_db"}

# The TrainConfig fields that the CLI sets and the training report echoes.
_TRAIN_KEYS = [f.name for f in fields(training.TrainConfig) if f.name != "bank_cap"]

_DEFAULTS = {
    **{f.name: f.default for f in fields(training.TrainConfig) if f.name in _TRAIN_KEYS},
    "speakers": 8,
    "samples": 100,
    "duration_s": 3.0,
    "confusion_p": 0.1,
    "leakage": 0.05,
    "noise_snr_db": 20.0,
    "speaker_seed": None,
    "variant": "lin",
    "grid_step": 0.1,
    "threshold_db": -5.0,
    "quadrant_db": 5.0,
    "margin": 0.1,
}

# Each config key takes its default's type; speaker_seed (default None) takes int.
_CONFIG_KEYS = {k: int if v is None else type(v) for k, v in _DEFAULTS.items()}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfusionKitError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfusionKitError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfusionKitError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        expected = _CONFIG_KEYS[key]
        if value is None and key in _NULLABLE_KEYS:
            continue
        if isinstance(value, bool) or not (
            isinstance(value, expected) or (expected is float and isinstance(value, int))
        ):
            raise ConfusionKitError(
                f"config key {key!r} must be {expected.__name__}, got {value!r}"
            )
        doc[key] = expected(value)
    return doc


def _load_samples(manifest: str) -> simulate.Corpus:
    """load_corpus, refusing a manifest that lists no samples."""
    corpus = simulate.load_corpus(manifest)
    if not corpus.samples:
        raise ConfusionKitError(f"{manifest}: the manifest lists no samples")
    return corpus


class _Resolver:
    """defaults < config file < flags, with the env var as seed fallback."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, key: str):
        value = self._lookup(key)
        if key in ("seed", "speaker_seed") and value is not None:
            simulate.check_seed(key, value)
        return value

    def _lookup(self, key: str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            return self.config[key]
        env = os.environ.get("CONFUSIONKIT_SEED") if key == "seed" else None
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ConfusionKitError(f"CONFUSIONKIT_SEED={env!r} is not an integer") from None
        return _DEFAULTS[key]


def _confusion_config(r: _Resolver) -> simulate.ConfusionConfig:
    return simulate.ConfusionConfig(
        probability=r.get("confusion_p"),
        leakage=r.get("leakage"),
        noise_snr_db=r.get("noise_snr_db"),
        seed=simulate.fold_seed(r.get("seed"), 1),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    manifest = simulate.generate_corpus(
        speaker_count=r.get("speakers"),
        n_samples=r.get("samples"),
        confusion=_confusion_config(r),
        out_dir=args.out,
        duration_s=r.get("duration_s"),
        seed=r.get("seed"),
        speaker_seed=r.get("speaker_seed"),
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    corpus = _load_samples(args.manifest)
    config = training.TrainConfig(**{k: r.get(k) for k in _TRAIN_KEYS})
    encoder, ge2e, report = training.train_encoder(corpus, config)
    save_encoder(encoder, args.out_encoder)
    write_json({
        **asdict(report),
        "ge2e": None if ge2e is None else {"w": ge2e.w},
        "config": {k: getattr(config, k) for k in _TRAIN_KEYS},
    }, args.out_report)
    q = report.final_quality
    print(
        f"trained {config.scheme}: loss {report.epoch_losses[0]:.3f} -> "
        f"{report.epoch_losses[-1]:.3f}, intra {q.intra:.3f}, inter {q.inter:.3f}, "
        f"accuracy {q.accuracy:.3f}"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    corpus = _load_samples(args.manifest)
    encoder = load_encoder(args.encoder)
    records = postfilter.build_validation_records(corpus, encoder)
    variant = r.get("variant")
    if variant in ("rec", "rectangular"):
        params, objective = postfilter.tune_rectangular(records, r.get("grid_step"))
    elif variant in ("lin", "linear"):
        params, objective = postfilter.tune_linear(records, r.get("grid_step"))
    else:
        raise ConfusionKitError(f"unknown variant {variant!r}, use 'rec' or 'lin'")
    postfilter.save_params(params, args.out)
    unfiltered = sum(rec.keep_value for rec in records)
    flagged = sum(postfilter.decide_confused(rec.pair, params) for rec in records)
    print(f"tuned {params.variant}: objective {objective:.3f} (unfiltered {unfiltered:.3f}), "
          f"flagged {flagged} of {len(records)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _Resolver(args)  # reads and checks --config; run takes no key from it
    corpus = _load_samples(args.manifest)
    encoder = load_encoder(args.encoder)
    params = postfilter.load_params(args.params)
    estimates = [] if args.estimates_dir else None
    for s in corpus.samples if args.estimates_dir else []:
        path = Path(args.estimates_dir) / f"{s.sample_id}_estimate.wav"
        est, mix = load_wav(path), s.mixture
        if (len(est), est.sample_rate) != (len(mix), mix.sample_rate):
            raise ConfusionKitError(f"{path}: estimate of {len(est)} samples at {est.sample_rate} "
                                    f"Hz, its mixture of {len(mix)} at {mix.sample_rate} Hz")
        estimates.append(est)
    records = postfilter.run_pipeline(
        corpus, encoder, params, estimates=estimates, out_dir=args.out
    )
    n = len(records)
    raw = sum(rec.si_sdri_raw for rec in records) / n
    final = sum(rec.si_sdri_final for rec in records) / n
    flagged = sum(rec.flagged for rec in records)
    print(
        f"processed {n} samples, flagged {flagged}; "
        f"mean SI-SDRi {raw:.2f} dB -> {final:.2f} dB"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    corpus = _load_samples(args.manifest)
    encoder = load_encoder(args.encoder)
    params = postfilter.load_params(args.params) if args.params else None
    records = evaluate.paired_eval_records(corpus, encoder, params)
    stats = {
        "quadrants": evaluate.quadrant_stats(records, r.get("quadrant_db")),
        "confusion_rate": evaluate.confusion_rate(records, r.get("threshold_db")),
        "margin": evaluate.margin_analysis(records, r.get("margin")),
    }
    evaluate.emit_report(records, stats, args.out, format=args.format)
    print(json.dumps(stats, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confusionkit",
        description="Two-speaker extraction confusion test bed: "
        "simulate, train, tune, run, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="top-level seed")

    p = sub.add_parser("simulate", help="generate a synthetic two-speaker corpus")
    add_common(p)
    p.add_argument("--speakers", type=int, help="number of synthetic speakers")
    p.add_argument("--samples", type=int, help="number of extraction samples")
    p.add_argument("--duration-s", dest="duration_s", type=float, help="utterance seconds")
    p.add_argument("--confusion-p", dest="confusion_p", type=float, help="confusion probability")
    p.add_argument("--leakage", type=float, help="interferer leakage fraction")
    p.add_argument("--noise-snr-db", dest="noise_snr_db", type=float, help="estimate noise SNR")
    p.add_argument("--speaker-seed", dest="speaker_seed", type=int, help="reuse a speaker population")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train the toy encoder on a corpus")
    add_common(p)
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--scheme", choices=SCHEMES, help="metric-learning scheme")
    p.add_argument("--beta", type=float, help="metric loss weight")
    p.add_argument("--alpha", type=float, help="triplet margin")
    p.add_argument("--support", dest="support_size", type=int, help="support set size")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--out-encoder", default="encoder.json", help="encoder JSON path")
    p.add_argument("--out-report", default="train_report.json", help="report JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tune", help="grid-search post-filter decision borders")
    add_common(p)
    p.add_argument("--manifest", required=True, help="validation corpus manifest")
    p.add_argument("--encoder", required=True, help="encoder JSON")
    p.add_argument("--variant", choices=["rec", "lin", "rectangular", "linear"])
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--out", required=True, help="params JSON path")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("run", help="apply the tuned post-filter to a corpus")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--params", required=True, help="tuned params JSON")
    p.add_argument(
        "--estimates-dir",
        dest="estimates_dir",
        help="directory of pre-supplied <sample_id>_estimate.wav files",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="corpus statistics and report emission")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--params", help="optional tuned params JSON")
    p.add_argument("--threshold-db", dest="threshold_db", type=float, help="confusion label threshold")
    p.add_argument("--quadrant-db", dest="quadrant_db", type=float, help="quadrant threshold")
    p.add_argument("--margin", type=float, help="similarity margin")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", required=True, help="report path")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfusionKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
