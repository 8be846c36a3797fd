"""Golden sha256 digests of seeded outputs.

Refactors that promise bit-identical results are proven here: a tiny
corpus's audio, the log-mel features of its utterances, a short training
run of each of the seven schemes (projection and final quality), one
linear tuning result, both tuners' parameters and objectives at three
grid steps, the pipeline's records and the paired evaluation's
records (raw and post-filtered), the bytes of the records and
analysis CSV files written from them, and the bytes of the JSON files
(params.json of both variants, a `confusionkit train` report and the
analysis stats sidecar), are each pinned to the digest the reference
code produced. A deliberate numerical change must update the
pinned value and say why.
"""

import hashlib

import numpy as np
import pytest

from confusionkit.cli import main
from confusionkit.embedding import log_mel_features
from confusionkit.evaluate import (
    confusion_rate,
    emit_report,
    margin_analysis,
    paired_eval_records,
    quadrant_stats,
)
from confusionkit.losses import SCHEMES
from confusionkit.postfilter import (
    PostFilterParams,
    build_validation_records,
    run_pipeline,
    save_params,
    tune_linear,
    tune_rectangular,
    write_records,
)
from confusionkit.simulate import ConfusionConfig, build_corpus, generate_corpus
from confusionkit.training import TrainConfig, train_encoder

GOLDEN = {
    "corpus_audio": "de338756abd228e9a176d579ab936d70720ef0e81c5dcfab8b54b1366b018603",
    "log_mel": "18e1cc132dafc8920523e4ed0613ee4e35272d6b6abdbb428dc96ecf1e897d9e",
    "TL1_projection": "cffdfe1446622de6ec9a80e53c5424f58c35dafbf983f82d27f7c164978ead46",
    "TL1_final_quality": "e765080a3ea0c9465cfa67b57af0e4c21282099d6b93c5457e9a202a39ea3255",
    "TL2_projection": "d53bcf4de63f952fba919d8264e0dbcdd0c11cfdc57edd2cfc024126b7976a90",
    "TL2_final_quality": "a71c059b76cb986fa4b9982cbc9e745cb814635e4e85e73d8020ff24b2f998c5",
    "PL1_projection": "adee82fc4be4444f4a0b74e836c2ac5201cbfc139bb4db9ab634a099033a519c",
    "PL1_final_quality": "597f347bcb4f263df6ba83a6c70125a799e23661840b180fc60e91da5c3c3dae",
    "PL2_projection": "cbd6a1342d4a239877ed70c37206f750843780c6e586e277c3146bd34a0b4984",
    "PL2_final_quality": "8a9860a59288e242b3c75c7de2e3c1cea56f52ef6f3905c45f76a74097c6fad3",
    "GL1_projection": "8be31db9109b14377eda8a40085b9a844304f57e1073ab6a80692f9e32eb8957",
    "GL1_final_quality": "fc175a7dc5a9b45ab22173af76e4e982b4292b4a8372c2f6b24c457595ecaea5",
    "GL2_projection": "c6459f001d07c23e7241bc1ef505d27dadab58250c400e00b961b3f097a6e237",
    "GL2_final_quality": "891da85abd15cf322611bd5700da049d3718a689c87da60de91179bc37022e0e",
    "CE_projection": "e0723840c95b94243891fd4939b6d5c19cca0c91bf326a58c522fd429e292258",
    "CE_final_quality": "f25f5ab3d79c92c68c098c7f5621f3ac74b67cb903238cc84fece257e2d47a6e",
    "tune_linear": "c860b3b1b3ead405b813ceb8fe355ef32555d18b34245a21b55a32ddd042f089",
    "pipeline": "5f52eaf13e1b33372a053805f61b7f78c2d937b17d2d48b1430b8a18a550376a",
    "paired_eval_raw": "838be66c32d992826a29e1d0c47fa29a9bf8928eea514093c35c70c85d45e1ca",
    "paired_eval_filtered": "4ab19157486f6c6ddf5a1b3ee48c51bc42a0683d68a1104eb7a3c6bbc1716953",
    "records_csv": "7d4eb60f95453501a88681e4bd6797f03620e9badfa32d4743ff19bab92dbd0a",
    "analysis_csv_raw": "3f8868e5fc992fe93c3e1b62fa60bd2cfbd05363b6936ba1579565e1abf18aaa",
    "analysis_csv_filtered": "c06f8a5cf8eb8c288d76b195eb05f1fc42e84bfabd8a114ba432343a4af93484",
    "params_json_rectangular": "a37776ee0aed17593aba543a671699dc7bd27b498a386407a3df525bd0c2d154",
    "params_json_linear": "ac4df7d15a2d58a17c3be5c1f9a3536658492c0ae3e75e26467447757d0bd081",
    "train_report_json_PL1": "7bbe10be6ac666913b4db0d38e59945bc806805429708bd30b7e69eeecafc95e",
    "train_report_json_GL1": "ca0c799df634a631535fed0ff534413d31a74bfc06681c0316e5e97e8569b49d",
    "analysis_stats_json": "1795417628290e71b1788b6095868db18c164af2d80b1db7d815fdb38c622d4a",
}

# (grid step) -> linear (mu, lambda, repr(objective)) and rectangular
# (Pi, Phi, repr(objective)) on the tiny corpus with the PL1 encoder.
TUNED = {
    0.1: ((0.1, 1.0, "225.9677057397356"), (1.1, 1.2, "225.9677057397356")),
    0.2: ((0.4, 0.6, "225.9677057397356"), (1.2, 1.2, "225.9677057397356")),
    0.5: ((0.5, 0.5, "225.9677057397356"), (1.0, 1.5, "181.82228136454694")),
}

# Flags 4 of 12 pipeline samples and both roles of some paired samples.
BORDER = PostFilterParams("linear", mu=0.6, lam=0.3)


def _digest(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            arr = np.ascontiguousarray(item, dtype=np.float64)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(item).encode() + b";")
    return h.hexdigest()


# The tiny corpus: 4 speakers, 12 one-second samples.
TINY = dict(
    speaker_count=4,
    n_samples=12,
    confusion=ConfusionConfig(probability=0.25, leakage=0.05, noise_snr_db=20.0, seed=4),
    duration_s=1.0,
    seed=31,
    speaker_seed=6,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(**TINY)


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    runs = {}
    for scheme in SCHEMES:
        config = TrainConfig(scheme=scheme, epochs=3, support_size=3, bank_cap=4, seed=2)
        encoder, _, report = train_encoder(tiny_corpus, config)
        runs[scheme] = (encoder, report)
    return runs


def test_corpus_audio(tiny_corpus):
    arrays = [
        w.samples
        for s in tiny_corpus.samples
        for w in (s.mixture, s.source_target, s.source_interferer,
                  s.enroll_target, s.enroll_interferer)
    ]
    assert _digest(*arrays, tuple(tiny_corpus.confused_flags)) == GOLDEN["corpus_audio"]


def test_log_mel_features(tiny_corpus):
    frames = [
        log_mel_features(w).frames
        for s in tiny_corpus.samples
        for w in (s.enroll_target, s.enroll_interferer, s.source_target, s.source_interferer)
    ]
    assert _digest(*frames) == GOLDEN["log_mel"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_training_run(trained, scheme):
    encoder, report = trained[scheme]
    q = report.final_quality
    assert _digest(encoder.projection) == GOLDEN[f"{scheme}_projection"]
    assert _digest(q.intra, q.inter, q.accuracy) == GOLDEN[f"{scheme}_final_quality"]


def test_tune_linear(tiny_corpus, trained):
    records = build_validation_records(tiny_corpus, trained["PL1"][0])
    params, objective = tune_linear(records)
    assert _digest(params.mu, params.lam, objective) == GOLDEN["tune_linear"]


@pytest.mark.parametrize("step", sorted(TUNED))
def test_both_tuners(tiny_corpus, trained, step):
    records = build_validation_records(tiny_corpus, trained["PL1"][0])
    lin, lin_objective = tune_linear(records, step)
    rect, rect_objective = tune_rectangular(records, step)
    assert (lin.mu, lin.lam, repr(lin_objective)) == TUNED[step][0]
    assert (rect.pi_threshold, rect.phi_threshold, repr(rect_objective)) == TUNED[step][1]


def _records_digest(records) -> str:
    return _digest(*(tuple(vars(r).values()) for r in records))


def test_pipeline_records(tiny_corpus, trained):
    records = run_pipeline(tiny_corpus, trained["PL1"][0], BORDER)
    assert _records_digest(records) == GOLDEN["pipeline"]


@pytest.mark.parametrize("params", [None, BORDER], ids=["raw", "filtered"])
def test_paired_eval_records(tiny_corpus, trained, params):
    records = paired_eval_records(tiny_corpus, trained["PL1"][0], params)
    key = "paired_eval_raw" if params is None else "paired_eval_filtered"
    assert _records_digest(records) == GOLDEN[key]


def test_records_csv_bytes(tiny_corpus, trained, tmp_path):
    path = tmp_path / "records.csv"
    write_records(run_pipeline(tiny_corpus, trained["PL1"][0], BORDER), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["records_csv"]


@pytest.mark.parametrize("params", [None, BORDER], ids=["raw", "filtered"])
def test_analysis_csv_bytes(tiny_corpus, trained, params, tmp_path):
    path = tmp_path / "report.csv"
    records = paired_eval_records(tiny_corpus, trained["PL1"][0], params)
    emit_report(records, {"n": len(records)}, path, format="csv")
    key = "analysis_csv_raw" if params is None else "analysis_csv_filtered"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[key]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("params", [
    PostFilterParams("rectangular", pi_threshold=1.1, phi_threshold=1.2), BORDER,
], ids=["rectangular", "linear"])
def test_params_json_bytes(params, tmp_path):
    path = tmp_path / "params.json"
    save_params(params, path)
    assert _sha256(path) == GOLDEN[f"params_json_{params.variant}"]


@pytest.mark.parametrize("scheme", ["PL1", "GL1"])
def test_train_report_json_bytes(scheme, tmp_path):
    """Key order, epoch_losses and all: the report `confusionkit train` writes
    for the tiny corpus, generated to disk, after 3 epochs."""
    manifest = generate_corpus(**TINY, out_dir=tmp_path / "corpus")
    report = tmp_path / "train_report.json"
    argv = ["train", "--manifest", str(manifest), "--scheme", scheme, "--epochs", "3",
            "--support", "3", "--seed", "2", "--out-encoder", str(tmp_path / "encoder.json"),
            "--out-report", str(report)]
    assert main(argv) == 0
    assert _sha256(report) == GOLDEN[f"train_report_json_{scheme}"]


def test_analysis_stats_json_bytes(tiny_corpus, trained, tmp_path):
    path = tmp_path / "report.csv"
    records = paired_eval_records(tiny_corpus, trained["PL1"][0], BORDER)
    stats = {
        "quadrants": quadrant_stats(records, 5.0),
        "confusion_rate": confusion_rate(records, -5.0),
        "margin": margin_analysis(records, 0.1),
    }
    emit_report(records, stats, path, format="csv")
    assert _sha256(tmp_path / "report.csv.stats.json") == GOLDEN["analysis_stats_json"]
