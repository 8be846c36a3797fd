import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from confusionkit.audio import Waveform, load_wav, save_wav
from confusionkit.cli import main
from confusionkit.embedding import load_encoder
from confusionkit.postfilter import build_validation_records, decide_confused, load_params
from confusionkit.simulate import load_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + trained encoder + tuned params produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert (
        main(
            [
                "simulate",
                "--speakers", "4",
                "--samples", "10",
                "--duration-s", "1.0",
                "--confusion-p", "0.3",
                "--seed", "5",
                "--out", str(corpus),
            ]
        )
        == 0
    )
    manifest = corpus / "manifest.csv"
    encoder = root / "encoder.json"
    report = root / "report.json"
    assert (
        main(
            [
                "train",
                "--manifest", str(manifest),
                "--scheme", "PL1",
                "--support", "3",
                "--epochs", "40",
                "--seed", "5",
                "--out-encoder", str(encoder),
                "--out-report", str(report),
            ]
        )
        == 0
    )
    params = root / "params.json"
    assert (
        main(
            [
                "tune",
                "--manifest", str(manifest),
                "--encoder", str(encoder),
                "--variant", "lin",
                "--out", str(params),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "manifest": manifest,
        "encoder": encoder,
        "report": report,
        "params": params,
    }


@pytest.fixture
def empty_manifest(workspace, tmp_path):
    """A manifest with the header row only, next to the workspace's meta.json."""
    shutil.copy(workspace["manifest"].parent / "meta.json", tmp_path / "meta.json")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(workspace["manifest"].read_text().splitlines()[0] + "\n")
    return manifest


class TestSimulate:
    def test_outputs_exist(self, workspace):
        assert workspace["manifest"].exists()
        assert (workspace["manifest"].parent / "meta.json").exists()

    def test_rerun_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        main(
            [
                "simulate",
                "--speakers", "4",
                "--samples", "10",
                "--duration-s", "1.0",
                "--confusion-p", "0.3",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert (out / "manifest.csv").read_bytes() == workspace["manifest"].read_bytes()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--speakers", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--samples", "-3", "sample count"), ("--noise-snr-db", "nan", "noise SNR"),
         ("--noise-snr-db", "inf", "noise SNR"), ("--duration-s", "inf", "duration"),
         ("--duration-s", "1e308", "duration"),
         ("--duration-s", "nan", "duration"), ("--duration-s", "0.01", "duration"),
         ("--duration-s", "-0.3", "duration"),
         ("--seed", "-1", "seed must be a non-negative integer, got -1"),
         ("--speaker-seed", "-2", "speaker_seed must be a non-negative integer, got -2")],
    )
    def test_bad_value_is_validation_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "c"
        code = main(["simulate", "--speakers", "3", "--samples", "2", "--duration-s", "1.0",
                     flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_artifacts_written(self, workspace):
        doc = json.loads(workspace["report"].read_text())
        assert doc["scheme"] == "PL1"
        assert doc["config"]["beta"] == 0.2
        assert doc["config"]["alpha"] == 1.0
        assert len(doc["epoch_losses"]) == 40
        enc = json.loads(workspace["encoder"].read_text())
        assert enc["embed_dim"] == 16

    def test_invalid_scheme_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train",
                    "--manifest", str(workspace["manifest"]),
                    "--scheme", "NOPE",
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--beta", "-0.5"), ("--alpha", "-1"), ("--beta", "nan"),
         ("--learning-rate", "nan"), ("--learning-rate", "inf")],
    )
    def test_negative_or_nonfinite_weight_is_validation_error(
        self, workspace, tmp_path, capsys, flag, value
    ):
        code = main(
            [
                "train",
                "--manifest", str(workspace["manifest"]),
                flag, value,
                "--epochs", "1",
                "--out-encoder", str(tmp_path / "e.json"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", " ") in err
        assert not (tmp_path / "e.json").exists()

    def test_ge2e_report_keeps_the_scale_only(self, workspace, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "train",
                "--manifest", str(workspace["manifest"]),
                "--scheme", "GL1",
                "--support", "3",
                "--epochs", "2",
                "--out-encoder", str(tmp_path / "e.json"),
                "--out-report", str(report),
            ]
        )
        assert code == 0
        assert set(json.loads(report.read_text())["ge2e"]) == {"w"}

    def test_zero_epochs_is_validation_error(self, workspace, capsys):
        code = main(
            [
                "train",
                "--manifest", str(workspace["manifest"]),
                "--scheme", "PL1",
                "--epochs", "0",
                "--out-encoder", "unused.json",
                "--out-report", "unused2.json",
            ]
        )
        assert code == 1
        assert "epochs" in capsys.readouterr().err

    def test_empty_manifest_fails(self, empty_manifest, tmp_path, capsys):
        code = main(
            [
                "train",
                "--manifest", str(empty_manifest),
                "--out-encoder", str(tmp_path / "enc.json"),
                "--out-report", str(tmp_path / "rep.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty_manifest}: the manifest lists no samples\n"
        assert not (tmp_path / "enc.json").exists()

    @pytest.mark.parametrize(
        "column,value,message",
        [("spk_target", "x", "{manifest}: sample_00000 has spk_target 'x', expected an integer"),
         ("spk_interferer", "", "{manifest}: sample_00000 has spk_interferer '', expected an integer"),
         ("confused_flag", "yes", "{manifest}: sample_00000 has confused_flag 'yes', expected an integer"),
         ("confused_flag", "2", "{manifest}: sample_00000 has confused_flag 2, expected 0 or 1"),
         ("mixture", "", "no such file: {corpus}"),
         ("sample_id", "sample_0",
          "{manifest}: sample_id 'sample_0' is not canonical, expected 'sample_00000'"),
         ("sample_id", "\udcff", "{manifest}: not UTF-8 text ('utf-8' codec can't decode "
          "byte 0xff in position {position}: invalid start byte)")],
    )
    def test_malformed_manifest_cell_fails_cleanly(
        self, workspace, tmp_path, capsys, column, value, message
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["manifest"].parent, corpus)
        manifest = corpus / "manifest.csv"
        header, first, *rest = manifest.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        text = "\n".join([header, ",".join(cells), *rest]) + "\n"
        manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main(
            [
                "train",
                "--manifest", str(manifest),
                "--epochs", "1",
                "--out-encoder", str(tmp_path / "enc.json"),
                "--out-report", str(tmp_path / "rep.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        position = text.find("\udcff")
        assert err == "error: " + message.format(manifest=manifest, corpus=corpus,
                                                 position=position) + "\n"
        assert not (tmp_path / "enc.json").exists()

    def test_bool_in_meta_confusion_fails_cleanly(self, workspace, tmp_path, capsys):
        """true once loaded as a 1 dB separator SNR, and the command ran on."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["manifest"].parent, corpus)
        meta_path = corpus / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["confusion"]["noise_snr_db"] = True
        meta_path.write_text(json.dumps(meta))
        code = main(
            [
                "train",
                "--manifest", str(corpus / "manifest.csv"),
                "--epochs", "1",
                "--out-encoder", str(tmp_path / "enc.json"),
                "--out-report", str(tmp_path / "rep.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (f"error: {meta_path}: malformed metadata "
                                           "(noise SNR must be a number, got True)\n")
        assert not (tmp_path / "enc.json").exists()


    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize(
        "wav,edit,message",
        [("sample_00001_source_target", lambda w: Waveform(w.samples[:5000], w.sample_rate),
          "sample_00001 has source_target of 5000 samples, its mixture of 8000"),
         ("sample_00002_enroll_target", lambda w: Waveform(w.samples, 16000),
          "sample_00002 has enroll_target at 16000 Hz, its mixture at 8000 Hz"),
         ("sample_00001_enroll_target", lambda w: Waveform(w.samples[:10], w.sample_rate),
          "sample_00001 has enroll_target of 10 samples, "
          "shorter than one 200-sample front-end frame")],
        ids=["short_source", "enrollment_at_16k", "enrollment_below_one_frame"],
    )
    def test_row_waveform_disagreeing_with_its_mixture_fails_cleanly(
        self, workspace, tmp_path, capsys, command, wav, edit, message
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["manifest"].parent, corpus)
        path = corpus / "wav" / f"{wav}.wav"
        save_wav(edit(load_wav(path)), path)
        manifest = corpus / "manifest.csv"
        out = tmp_path / "out.json"
        argv = {"train": ["--epochs", "1", "--out-encoder", str(out),
                          "--out-report", str(tmp_path / "rep.json")],
                "tune": ["--encoder", str(workspace["encoder"]), "--out", str(out)]}[command]
        code = main([command, "--manifest", str(manifest), *argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
        assert not out.exists()

    def test_manifest_at_a_zero_sample_hop_rate_fails_naming_the_sample(
        self, workspace, tmp_path, capsys
    ):
        """Every WAV rewritten at 40 Hz, where the front-end's 10 ms hop is 0 samples."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["manifest"].parent, corpus)
        for path in (corpus / "wav").glob("*.wav"):
            save_wav(Waveform(load_wav(path).samples, 40), path)
        manifest = corpus / "manifest.csv"
        code = main(["train", "--manifest", str(manifest), "--epochs", "1",
                     "--out-encoder", str(tmp_path / "enc.json"),
                     "--out-report", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: sample_00000 has mixture at 40 Hz, "
            "where the front-end's 10 ms hop is 0 samples\n")
        assert not (tmp_path / "enc.json").exists()

    def test_manifest_wav_without_samples_fails_naming_it(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["manifest"].parent, corpus)
        path = corpus / "wav" / "sample_00001_enroll_target.wav"
        wavfile.write(path, 8000, np.zeros(0, dtype=np.float32))
        code = main(["train", "--manifest", str(corpus / "manifest.csv"), "--epochs", "1",
                     "--out-encoder", str(tmp_path / "enc.json"),
                     "--out-report", str(tmp_path / "rep.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 0 samples at 8000 Hz, need samples at a rate > 0\n")
        assert not (tmp_path / "enc.json").exists()


class TestTune:
    def test_params_are_one_decimal(self, workspace):
        doc = json.loads(workspace["params"].read_text())
        assert doc["variant"] == "linear"
        for key in ("mu", "lambda"):
            assert doc[key] == round(doc[key], 1)

    def test_does_not_import_scipy_signal(self, workspace, tmp_path):
        """Only synthesis uses scipy.signal, which takes most of a second to
        import, so a fresh process running tune never loads it."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import sys\nfrom confusionkit.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
        proc = subprocess.run([sys.executable, "-c", code, "tune",
                               "--manifest", str(workspace["manifest"]),
                               "--encoder", str(workspace["encoder"]),
                               "--out", str(tmp_path / "params.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "params.json").read_bytes() == workspace["params"].read_bytes()

    def test_rectangular_variant(self, workspace, tmp_path):
        out = tmp_path / "rec.json"
        code = main(
            [
                "tune",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--variant", "rec",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "rectangular"
        assert doc["Pi"] is not None and doc["Phi"] is not None

    def test_reports_flagged_count_at_the_optimum(self, workspace, tmp_path, capsys):
        out = tmp_path / "lin.json"
        model = ["--manifest", str(workspace["manifest"]), "--encoder", str(workspace["encoder"])]
        assert main(["tune", *model, "--variant", "lin", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert out.read_bytes() == workspace["params"].read_bytes()
        corpus = load_corpus(workspace["manifest"])
        records = build_validation_records(corpus, load_encoder(workspace["encoder"]))
        params = load_params(out)
        flagged = sum(decide_confused(r.pair, params) for r in records)
        assert line.endswith(f", flagged {flagged} of {len(records)}")

    def test_zero_projection_is_an_error(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["encoder"].read_text())
        doc["projection"] = [0.0] * len(doc["projection"])
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(doc))
        code = main(["tune", "--manifest", str(workspace["manifest"]), "--encoder", str(zero),
                     "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {zero}: malformed encoder file "
                                                  "(projection is all zeros)")
        assert not (tmp_path / "p.json").exists()

    def test_variant_is_the_one_setting(self, workspace, tmp_path, capsys):
        """No grid step, by flag or config key, and only the short variant names."""
        tune = ["tune", "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]), "--out", str(tmp_path / "p.json")]
        for extra in (["--grid-step", "0.1"], ["--variant", "linear"],
                      ["--variant", "rectangular"]):
            with pytest.raises(SystemExit) as exc:
                main([*tune, *extra])
            assert exc.value.code == 2
        config = tmp_path / "conf.json"
        for doc, message in (
                ({"grid_step": 0.1}, "unknown config keys: ['grid_step']"),
                ({"variant": "linear"}, "unknown variant 'linear', use 'rec' or 'lin'")):
            config.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main([*tune, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.json").exists()

    def test_missing_manifest_fails(self, workspace, tmp_path, capsys):
        code = main(
            [
                "tune",
                "--manifest", str(tmp_path / "missing.csv"),
                "--encoder", str(workspace["encoder"]),
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1


class TestRun:
    def test_outputs(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--params", str(workspace["params"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        records = (out / "records.csv").read_text().splitlines()
        assert records[0] == "sample_id,pi,phi,flagged,si_sdri_raw,si_sdri_final"
        assert len(records) == 11
        assert (out / "audio" / "sample_00000_output.wav").exists()

    @pytest.mark.parametrize("cut", ["half", "keys"])
    def test_truncated_encoder_fails(self, workspace, tmp_path, capsys, cut):
        text = workspace["encoder"].read_text()
        bad = tmp_path / "truncated.json"
        bad.write_text(text[: len(text) // 2] if cut == "half" else '{"embed_dim": 2}')
        code = main(
            [
                "run",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(bad),
                "--params", str(workspace["params"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated.json" in err

    def test_empty_manifest_fails(self, workspace, empty_manifest, tmp_path, capsys):
        code = main(
            [
                "run",
                "--manifest", str(empty_manifest),
                "--encoder", str(workspace["encoder"]),
                "--params", str(workspace["params"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_params_off_the_grid_fail(self, workspace, tmp_path, capsys):
        params = tmp_path / "params.json"
        doc = json.loads(workspace["params"].read_text())
        params.write_text(json.dumps({**doc, "variant": "linear", "mu": "x", "lambda": 0.3}))
        code = main(
            [
                "run",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--params", str(params),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'mu'" in err

    def test_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "run",
                    "--manifest", str(workspace["manifest"]),
                    "--encoder", str(workspace["encoder"]),
                    "--params", str(workspace["params"]),
                    "--out", str(out),
                ]
            )
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_presupplied_estimates_dir(self, workspace, tmp_path):
        first = tmp_path / "first"
        main(
            [
                "run",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--params", str(workspace["params"]),
                "--out", str(first),
            ]
        )
        second = tmp_path / "second"
        code = main(
            [
                "run",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--params", str(workspace["params"]),
                "--estimates-dir", str(first / "audio"),
                "--out", str(second),
            ]
        )
        assert code == 0

        def column(run, name):
            with open(run / "records.csv", newline="") as fh:
                return [row[name] for row in csv.DictReader(fh)]

        # estimates pass through a float32 WAV round trip, so features agree
        # to float32 precision and decisions agree exactly
        assert column(first, "flagged") == column(second, "flagged")
        for name, atol in (("pi", 1e-5), ("si_sdri_final", 1e-3)):
            np.testing.assert_allclose(
                [float(v) for v in column(first, name)],
                [float(v) for v in column(second, name)], atol=atol
            )


    @pytest.mark.parametrize(
        "edit,found",
        [(lambda w: Waveform(w.samples[:7000], w.sample_rate), "7000 samples at 8000 Hz"),
         (lambda w: Waveform(w.samples, 16000), "8000 samples at 16000 Hz")],
        ids=["short", "at_16k"],
    )
    def test_presupplied_estimate_off_its_mixture_fails_naming_it(
        self, workspace, tmp_path, capsys, edit, found
    ):
        """An estimate WAV of another length or rate than its mixture is refused
        before scoring, naming the file."""
        estimates = tmp_path / "estimates"
        estimates.mkdir()
        for s in load_corpus(workspace["manifest"]).samples:
            save_wav(s.mixture, estimates / f"{s.sample_id}_estimate.wav")
        path = estimates / "sample_00003_estimate.wav"
        save_wav(edit(load_wav(path)), path)
        out = tmp_path / "out"
        code = main(["run", "--manifest", str(workspace["manifest"]),
                     "--encoder", str(workspace["encoder"]),
                     "--params", str(workspace["params"]),
                     "--estimates-dir", str(estimates), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: estimate of {found}, its mixture of 8000 at 8000 Hz\n")
        assert not out.exists()


class TestAnalyze:
    def test_json_report(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--params", str(workspace["params"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["stats"]) == {"quadrants", "confusion_rate", "margin"}
        assert sum(doc["stats"]["quadrants"].values()) == 10
        assert len(doc["records"]) == 10

    def test_empty_manifest_fails(self, workspace, empty_manifest, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--manifest", str(empty_manifest),
                "--encoder", str(workspace["encoder"]),
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flag,message",
        [("--margin", "similarity margin"), ("--threshold-db", "confusion threshold"),
         ("--quadrant-db", "quadrant threshold")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_threshold_fails(self, workspace, tmp_path, capsys, flag, message, value):
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                flag, value,
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} must be finite") and "Traceback" not in err
        assert not out.exists()

    def test_nan_in_config_fails(self, workspace, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text('{"margin": NaN}')
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--config", str(config),
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: similarity margin must be finite")
        assert not out.exists()

    def test_csv_report(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "report.csv.stats.json").exists()


class TestConfigPrecedence:
    def test_config_file_used_and_flag_overrides(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"speakers": 3, "samples": 4, "duration_s": 1.0, "seed": 8}))
        out1 = tmp_path / "c1"
        main(["simulate", "--config", str(config), "--out", str(out1)])
        assert len((out1 / "manifest.csv").read_text().splitlines()) == 5
        out2 = tmp_path / "c2"
        main(["simulate", "--config", str(config), "--samples", "6", "--out", str(out2)])
        assert len((out2 / "manifest.csv").read_text().splitlines()) == 7

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"speakerz": 3}))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "speakerz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,expected",
        [({"margin": "0.1"}, "float"), ({"epochs": True}, "int"), ({"samples": 4.0}, "int"),
         ({"scheme": 1}, "str"), ({"seed": None}, "int")],
    )
    def test_config_value_of_wrong_type_rejected(self, workspace, tmp_path, capsys, doc, expected):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        code = main(
            [
                "tune",
                "--config", str(config),
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(next(iter(doc))) in err and expected in err
        assert not (tmp_path / "p.json").exists()

    def test_config_int_accepted_for_float(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(
            json.dumps({"speakers": 3, "samples": 2, "duration_s": 1, "seed": 8,
                        "noise_snr_db": None})
        )
        as_int = tmp_path / "int"
        assert main(["simulate", "--config", str(config), "--out", str(as_int)]) == 0
        config.write_text(
            json.dumps({"speakers": 3, "samples": 2, "duration_s": 1.0, "seed": 8,
                        "noise_snr_db": None})
        )
        as_float = tmp_path / "float"
        assert main(["simulate", "--config", str(config), "--out", str(as_float)]) == 0
        assert (as_int / "meta.json").read_text() == (as_float / "meta.json").read_text()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_truncated_config_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "cut.json"
        config.write_text('{"speakers": 3,\n')
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not valid JSON (")
        assert not (tmp_path / "x").exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFUSIONKIT_SEED", "5")
        out = tmp_path / "env"
        main(
            [
                "simulate",
                "--speakers", "4",
                "--samples", "3",
                "--duration-s", "1.0",
                "--confusion-p", "0.3",
                "--out", str(out),
            ]
        )
        monkeypatch.delenv("CONFUSIONKIT_SEED")
        out2 = tmp_path / "flag"
        main(
            [
                "simulate",
                "--speakers", "4",
                "--samples", "3",
                "--duration-s", "1.0",
                "--confusion-p", "0.3",
                "--seed", "5",
                "--out", str(out2),
            ]
        )
        a = (out / "wav" / "sample_00000_mixture.wav").read_bytes()
        b = (out2 / "wav" / "sample_00000_mixture.wav").read_bytes()
        assert a == b

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONFUSIONKIT_SEED", "abc")
        out = tmp_path / "x"
        code = main(["simulate", "--speakers", "3", "--samples", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: CONFUSIONKIT_SEED='abc' is not an integer\n"
        assert not out.exists()

    def test_run_reads_its_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": 1}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--manifest", str(workspace["manifest"]),
                     "--encoder", str(workspace["encoder"]), "--params", str(workspace["params"]),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['bogus']\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,doc,env,key,value", [
        ("train", ["--seed", "-1"], {}, None, "seed", -1),
        ("simulate", [], {"seed": -4}, None, "seed", -4),
        ("simulate", [], {"speaker_seed": -2}, None, "speaker_seed", -2),
        ("simulate", [], {}, "-3", "seed", -3),
    ], ids=["train_flag", "config", "config_speaker_seed", "env"])
    def test_negative_seed_names_key_and_value(
        self, workspace, tmp_path, monkeypatch, capsys, command, flags, doc, env, key, value
    ):
        """Each case once failed in numpy with a message naming no key; the
        simulate flags are cases of test_bad_value_is_validation_error."""
        if env is None:
            monkeypatch.delenv("CONFUSIONKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("CONFUSIONKIT_SEED", env)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if command == "train":
            paths = ["--manifest", str(workspace["manifest"]), "--epochs", "1",
                     "--out-encoder", str(out / "e.json"), "--out-report", str(out / "r.json")]
        else:
            paths = ["--speakers", "3", "--samples", "1", "--duration-s", "1.0", "--out", str(out)]
        assert main([command, "--config", str(config), *flags, *paths]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a non-negative integer, got {value}\n"
        assert not out.exists()

    def test_help_on_every_subcommand(self, capsys):
        for sub in ("simulate", "train", "tune", "run", "analyze"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            assert "--seed" in capsys.readouterr().out

    def test_unknown_flag_fails_fast(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", "x", "--bogus", "1"])
        assert exc.value.code == 2


class TestEncoderSeed:
    @pytest.mark.parametrize("command", ["tune", "run", "analyze"])
    def test_seed_other_than_null_or_non_negative_integer_fails(
        self, workspace, tmp_path, capsys, command
    ):
        doc = json.loads(workspace["encoder"].read_text())
        bad = tmp_path / "seeded.json"
        bad.write_text(json.dumps({**doc, "seed": "abc"}))
        out = tmp_path / "out"
        code = main([command, "--manifest", str(workspace["manifest"]), "--encoder", str(bad),
                     *(["--params", str(workspace["params"])] if command != "tune" else []),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed encoder file "
            "(seed must be a non-negative integer, got 'abc')\n")
        assert not out.exists()


class TestPathErrors:
    @pytest.mark.parametrize(
        "command,flag",
        [("tune", "--config"), ("tune", "--encoder"), ("tune", "--out"),
         ("run", "--config"), ("run", "--params"), ("analyze", "--out")],
    )
    def test_directory_for_a_file_fails_cleanly(
        self, workspace, tmp_path, capsys, command, flag
    ):
        """Any OSError, here IsADirectoryError, is reported without a traceback."""
        args = {
            "--manifest": str(workspace["manifest"]),
            "--encoder": str(workspace["encoder"]),
            "--out": str(tmp_path / "out"),
        }
        if command == "run":
            args["--params"] = str(workspace["params"])
        args[flag] = str(tmp_path)
        code = main([command, *(part for item in args.items() for part in item)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err


class TestManifestOrder:
    def test_permuted_manifest_writes_the_same_files(self, tmp_path):
        """train, tune, run and analyze on a manifest and on a copy listing the
        same rows in another order write byte-identical files: samples load in
        index order."""
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--speakers", "6", "--samples", "30", "--duration-s", "1.0",
                     "--confusion-p", "0.2", "--seed", "11", "--out", str(corpus)]) == 0
        header, *rows = (corpus / "manifest.csv").read_text().splitlines()
        permuted = corpus / "permuted.csv"
        order = np.random.default_rng(0).permutation(len(rows))
        permuted.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        assert permuted.read_text() != (corpus / "manifest.csv").read_text()
        trees = []
        for name, manifest in (("given", corpus / "manifest.csv"), ("permuted", permuted)):
            out, common = tmp_path / name, ["--manifest", str(manifest)]
            encoder = ["--encoder", str(out / "encoder.json")]
            out.mkdir()
            assert main(["train", *common, "--scheme", "PL1", "--epochs", "5", "--support", "3",
                         "--out-encoder", str(out / "encoder.json"),
                         "--out-report", str(out / "train_report.json")]) == 0
            assert main(["tune", *common, *encoder, "--out", str(out / "params.json")]) == 0
            params = ["--params", str(out / "params.json")]
            assert main(["run", *common, *encoder, *params, "--out", str(out / "run")]) == 0
            assert main(["analyze", *common, *encoder, *params,
                         "--out", str(out / "report.json")]) == 0
            assert main(["analyze", *common, *encoder, *params, "--format", "csv",
                         "--out", str(out / "report.csv")]) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        assert {"encoder.json", "train_report.json", "params.json", "run/records.csv",
                "report.json", "report.csv", "report.csv.stats.json"} <= set(trees[0])
        assert trees[0] == trees[1]

    def test_permuted_subset_keeps_each_samples_rows(self, workspace, tmp_path):
        """run's records.csv rows and analyze's records for a permuted subset of
        a manifest, listing the same WAVs, equal the full run's rows for those
        sample ids, in index order."""
        corpus = workspace["manifest"].parent
        with open(workspace["manifest"], newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
        order = [7, 2, 9, 0, 4]
        subset = tmp_path / "subset" / "manifest.csv"
        subset.parent.mkdir()
        shutil.copy(corpus / "meta.json", subset.parent / "meta.json")
        with open(subset, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for i in order:
                writer.writerow({k: str(corpus / v) if v.endswith(".wav") else v
                                 for k, v in rows[i].items()})
        model = ["--encoder", str(workspace["encoder"]), "--params", str(workspace["params"])]
        outputs = []
        for name, manifest in (("full", workspace["manifest"]), ("subset", subset)):
            out = tmp_path / name
            assert main(["run", "--manifest", str(manifest), *model, "--out", str(out)]) == 0
            assert main(["analyze", "--manifest", str(manifest), *model,
                         "--out", str(out / "report.json")]) == 0
            with open(out / "records.csv", newline="") as fh:
                records = list(csv.DictReader(fh))
            outputs.append((records, json.loads((out / "report.json").read_text())["records"]))
        ids = sorted(rows[i]["sample_id"] for i in order)
        for full, part in zip(*outputs):
            assert [r["sample_id"] for r in part] == ids
            assert part == [r for r in full if r["sample_id"] in ids]
