"""Regenerate the stored score encoder and the reference output digests.

    python3 perfbench/make_reference.py             # digests only
    python3 perfbench/make_reference.py --encoder   # retrain the encoder too

Run it only when the program's outputs are meant to change; the digests
are what every benchmark run checks its outputs against.

The encoder follows the Criterion-4 recipe: PL2, 500 epochs, learning
rate 0.2, seed 0, on the 48 x 2 s corpus with speaker_seed 42. Digests
are taken from one repetition of each workload for every input case
(``workloads.CASES`` of them).
"""

import run  # pins BLAS threads before numpy loads; keep first

import argparse
import hashlib
import json
import shutil
import sys


def train_fixed_encoder(path) -> None:
    from confusionkit import embedding, simulate, training

    corpus = simulate.build_corpus(
        8, 48, simulate.ConfusionConfig(probability=0.05, leakage=0.05, noise_snr_db=20.0, seed=1),
        duration_s=2.0, seed=101, speaker_seed=42)
    config = training.TrainConfig(scheme="PL2", epochs=500, learning_rate=0.2, seed=0)
    encoder, _, _ = training.train_encoder(corpus, config)
    path.parent.mkdir(exist_ok=True)
    embedding.save_encoder(encoder, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--encoder", action="store_true", help="retrain the stored encoder")
    args = parser.parse_args()
    run.import_package()
    import workloads

    if args.encoder:
        train_fixed_encoder(workloads.ENCODER_PATH)
    reference = {
        "encoder_sha256": hashlib.sha256(workloads.ENCODER_PATH.read_bytes()).hexdigest(),
        "digests": {},
    }
    scratch = run.OUT / "tmp-reference"
    ctx = workloads.Context(workloads.FULL, reference["encoder_sha256"], scratch)
    try:
        for name, wl in workloads.WORKLOADS.items():
            digests = reference["digests"].setdefault(name, {})
            for case in range(workloads.CASES):
                inputs = wl.prepare(case, ctx)
                digests[str(case)] = wl.check(inputs, wl.rep(inputs)).parts
                print(f"{name} case {case}: {digests[str(case)]}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
