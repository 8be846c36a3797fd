"""Golden sha256 digests of seeded outputs.

Refactors that promise bit-identical results are proven here: a tiny
corpus's audio, the log-mel features of its utterances, short PL1 and
GL2 training runs (projection and final quality), one linear tuning
result, the pipeline's records and the paired evaluation's records (raw
and post-filtered), and the bytes of the records and analysis CSV files
written from them, are each pinned to the digest the reference code
produced. A deliberate numerical change must update the pinned value and
say why.
"""

import hashlib

import numpy as np
import pytest

from confusionkit.embedding import log_mel_features
from confusionkit.evaluate import emit_report, paired_eval_records
from confusionkit.postfilter import (
    PostFilterParams,
    build_validation_records,
    run_pipeline,
    tune_linear,
    write_records,
)
from confusionkit.simulate import ConfusionConfig, build_corpus, labeled_utterances
from confusionkit.training import TrainConfig, train_encoder

GOLDEN = {
    "corpus_audio": "de338756abd228e9a176d579ab936d70720ef0e81c5dcfab8b54b1366b018603",
    "log_mel": "18e1cc132dafc8920523e4ed0613ee4e35272d6b6abdbb428dc96ecf1e897d9e",
    "PL1_projection": "adee82fc4be4444f4a0b74e836c2ac5201cbfc139bb4db9ab634a099033a519c",
    "PL1_final_quality": "597f347bcb4f263df6ba83a6c70125a799e23661840b180fc60e91da5c3c3dae",
    "GL2_projection": "c6459f001d07c23e7241bc1ef505d27dadab58250c400e00b961b3f097a6e237",
    "GL2_final_quality": "891da85abd15cf322611bd5700da049d3718a689c87da60de91179bc37022e0e",
    "tune_linear": "c860b3b1b3ead405b813ceb8fe355ef32555d18b34245a21b55a32ddd042f089",
    "pipeline": "5f52eaf13e1b33372a053805f61b7f78c2d937b17d2d48b1430b8a18a550376a",
    "paired_eval_raw": "838be66c32d992826a29e1d0c47fa29a9bf8928eea514093c35c70c85d45e1ca",
    "paired_eval_filtered": "4ab19157486f6c6ddf5a1b3ee48c51bc42a0683d68a1104eb7a3c6bbc1716953",
    "records_csv": "7d4eb60f95453501a88681e4bd6797f03620e9badfa32d4743ff19bab92dbd0a",
    "analysis_csv_raw": "3f8868e5fc992fe93c3e1b62fa60bd2cfbd05363b6936ba1579565e1abf18aaa",
    "analysis_csv_filtered": "c06f8a5cf8eb8c288d76b195eb05f1fc42e84bfabd8a114ba432343a4af93484",
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


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        4,
        12,
        ConfusionConfig(probability=0.25, leakage=0.05, noise_snr_db=20.0, seed=4),
        duration_s=1.0,
        seed=31,
        speaker_seed=6,
    )


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    runs = {}
    for scheme in ("PL1", "GL2"):
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
    frames = [log_mel_features(w).frames for _, _, w in labeled_utterances(tiny_corpus)]
    assert _digest(*frames) == GOLDEN["log_mel"]


@pytest.mark.parametrize("scheme", ["PL1", "GL2"])
def test_training_run(trained, scheme):
    encoder, report = trained[scheme]
    q = report.final_quality
    assert _digest(encoder.projection) == GOLDEN[f"{scheme}_projection"]
    assert _digest(q.intra, q.inter, q.accuracy) == GOLDEN[f"{scheme}_final_quality"]


def test_tune_linear(tiny_corpus, trained):
    records = build_validation_records(tiny_corpus, trained["PL1"][0])
    params, objective = tune_linear(records)
    assert _digest(params.mu, params.lam, objective) == GOLDEN["tune_linear"]


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
