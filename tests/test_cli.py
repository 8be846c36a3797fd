import json
import shutil

import numpy as np
import pytest

from confusionkit.cli import main


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
         ("--noise-snr-db", "inf", "noise SNR")],
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


class TestTune:
    def test_params_are_one_decimal(self, workspace):
        doc = json.loads(workspace["params"].read_text())
        assert doc["variant"] == "linear"
        for key in ("mu", "lambda"):
            assert doc[key] == round(doc[key], 1)

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

    @pytest.mark.parametrize("step", ["-0.1", "0", "0.05"])
    def test_grid_step_off_one_decimal_fails(self, workspace, tmp_path, capsys, step):
        code = main(
            [
                "tune",
                "--manifest", str(workspace["manifest"]),
                "--encoder", str(workspace["encoder"]),
                "--grid-step", step,
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: grid step")
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
        from confusionkit.postfilter import read_records

        a = read_records(first / "records.csv")
        b = read_records(second / "records.csv")
        # estimates pass through a float32 WAV round trip, so features agree
        # to float32 precision and decisions agree exactly
        assert [r.flagged for r in a] == [r.flagged for r in b]
        np.testing.assert_allclose(
            [r.pi for r in a], [r.pi for r in b], atol=1e-5
        )
        np.testing.assert_allclose(
            [r.si_sdri_final for r in a], [r.si_sdri_final for r in b], atol=1e-3
        )


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
        [({"grid_step": "0.1"}, "float"), ({"epochs": True}, "int"), ({"samples": 4.0}, "int"),
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
