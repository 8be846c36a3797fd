import json

import numpy as np
import pytest

from confusionkit import postfilter
from confusionkit.evaluate import (
    EvalRecord,
    confusion_rate,
    emit_report,
    margin_analysis,
    paired_eval_records,
    quadrant_stats,
    read_report_csv,
    read_report_json,
)
from confusionkit.postfilter import PostFilterParams, build_validation_records
from confusionkit.simulate import subset


def rec(sample_id, s1, s2, **kw):
    base = dict(
        pi_1=0.5, phi_1=1.5, pi_2=0.5, phi_2=1.5,
        cos_tgt_1=0.9, cos_int_1=0.1, cos_tgt_2=0.9, cos_int_2=0.1,
        flagged_1=False, flagged_2=False,
    )
    base.update(kw)
    return EvalRecord(sample_id=sample_id, si_sdri_1=s1, si_sdri_2=s2, **base)


class TestQuadrantStats:
    def test_both_above(self):
        counts = quadrant_stats([rec("a", 6.0, 7.0)], threshold=5.0)
        assert counts == {"both_above": 1, "s1_below": 0, "s2_below": 0, "both_below": 0}

    def test_s2_below_only(self):
        counts = quadrant_stats([rec("a", 6.0, 4.0)], threshold=5.0)
        assert counts["s2_below"] == 1

    def test_partition_is_exact(self):
        rng = np.random.default_rng(1)
        records = [
            rec(f"r{i}", float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
            for i in range(57)
        ]
        counts = quadrant_stats(records)
        assert sum(counts.values()) == 57

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quadrant_stats([])


class TestConfusionRate:
    def test_all_positive_is_zero(self):
        records = [rec("a", 10.0, 12.0), rec("b", 8.0, 6.0)]
        assert confusion_rate(records, threshold_db=-5.0) == 0.0

    def test_counts_roles_not_records(self):
        records = [rec("a", -10.0, 12.0)]
        assert confusion_rate(records, threshold_db=-5.0) == 0.5

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        records = [
            rec(f"r{i}", float(rng.uniform(-40, 40)), float(rng.uniform(-40, 40)))
            for i in range(40)
        ]
        rates = [confusion_rate(records, t) for t in (-20.0, -10.0, -5.0, 0.0, 10.0)]
        assert rates == sorted(rates)

    def test_deep_threshold_is_zero_given_capping(self):
        records = [rec("a", -120.0, -120.0)]
        assert confusion_rate(records, threshold_db=-1000.0) == 0.0

    def test_matches_planted_flags_on_clean_corpus(self, corpus_clean, encoder_trained):
        """With no leakage or noise, SI-SDRi < -5 dB identifies exactly the
        injected confusions (role 1 carries the corpus's planted flags)."""
        records = paired_eval_records(corpus_clean, encoder_trained)
        for r, planted in zip(records, corpus_clean.confused_flags):
            assert r.confused_1 == planted
            assert (r.si_sdri_1 < -5.0) == planted
            assert (r.si_sdri_2 < -5.0) == r.confused_2


class TestMarginAnalysis:
    def test_perfectly_separated(self):
        records = [rec(f"r{i}", 10.0, 10.0) for i in range(5)]
        stats = margin_analysis(records, margin=0.1)
        assert stats["fraction_correct_side"] == 1.0
        assert stats["fraction_beyond_margin"] == 1.0

    def test_margin_zero_collapses_to_correct_side(self):
        rng = np.random.default_rng(3)
        records = []
        for i in range(30):
            ct, ci = rng.uniform(-1, 1, 2)
            records.append(
                rec(f"r{i}", 10.0, 10.0, cos_tgt_1=ct, cos_int_1=ci,
                    cos_tgt_2=ci, cos_int_2=ct)
            )
        stats = margin_analysis(records, margin=0.0)
        assert stats["fraction_beyond_margin"] == stats["fraction_correct_side"]

    def test_confused_roles_counted_within_margin(self):
        records = [
            rec("a", 0.0, 0.0, confused_1=True, confused_2=False,
                cos_tgt_1=0.5, cos_int_1=0.45, cos_tgt_2=0.9, cos_int_2=0.1),
            rec("b", 0.0, 0.0, confused_1=True, confused_2=False,
                cos_tgt_1=0.9, cos_int_1=0.2, cos_tgt_2=0.9, cos_int_2=0.1),
        ]
        stats = margin_analysis(records, margin=0.1)
        # two confused roles: gaps 0.05 (within margin) and 0.7 (beyond)
        assert stats["confusion_fraction_beyond"] == 0.5

    def test_trained_beats_untrained_on_correct_side(
        self, corpus_small, encoder_trained, encoder_untrained
    ):
        trained = margin_analysis(paired_eval_records(corpus_small, encoder_trained))
        untrained = margin_analysis(paired_eval_records(corpus_small, encoder_untrained))
        assert trained["fraction_correct_side"] >= untrained["fraction_correct_side"]


class TestPairedRecords:
    def test_roles_swap_features(self, corpus_small, encoder_trained):
        records = paired_eval_records(corpus_small, encoder_trained)
        assert len(records) == len(corpus_small.samples)
        r = records[0]
        assert r.confused_1 is not None and r.confused_2 is not None

    def test_postfilter_params_change_flags(self, corpus_small, encoder_trained):
        aggressive = PostFilterParams("linear", mu=2.0, lam=1.0)
        records = paired_eval_records(corpus_small, encoder_trained, aggressive)
        assert any(r.flagged_1 or r.flagged_2 for r in records)

    def test_six_distinct_waveforms_embedded_per_sample(
        self, corpus_small, encoder_trained, encode_calls
    ):
        """Two estimates, two enrollments and two sources, each embedded once."""
        paired_eval_records(corpus_small, encoder_trained)
        assert len(encode_calls) == 6 * len(corpus_small.samples)
        assert len({id(w) for w in encode_calls}) == len(encode_calls)

    def test_unfiltered_roles_skip_the_subtraction_payoff(
        self, corpus_small, encoder_untrained, monkeypatch
    ):
        """Without params, each role costs the mixture baseline and the keep
        payoff only: two SI-SDR calls, no subtraction."""
        calls = []
        si_sdr = postfilter.si_sdr

        def counting(est, ref):
            calls.append(est)
            return si_sdr(est, ref)

        monkeypatch.setattr(postfilter, "si_sdr", counting)
        small = subset(corpus_small, [0, 1, 2])
        paired_eval_records(small, encoder_untrained)
        assert len(calls) == 2 * 2 * len(small.samples)

    def test_role_one_matches_validation_records(self, corpus_small, encoder_trained):
        records = paired_eval_records(corpus_small, encoder_trained)
        validation = build_validation_records(corpus_small, encoder_trained)
        assert [(r.pi_1, r.phi_1, r.si_sdri_1) for r in records] == [
            (v.pair.pi, v.pair.phi, v.keep_value) for v in validation
        ]


class TestEmitReport:
    def _records(self):
        return [
            rec("a", 6.0, -7.25, confused_1=True, confused_2=None),
            rec("b", 0.125, 3.5, flagged_1=True),
        ]

    def test_json_roundtrip(self, tmp_path):
        records = self._records()
        stats = {"quadrants": {"both_above": 1}, "confusion_rate": 0.25}
        path = tmp_path / "report.json"
        emit_report(records, stats, path, format="json")
        back_records, back_stats = read_report_json(path)
        assert back_records == records
        assert back_stats == stats

    def test_csv_roundtrip(self, tmp_path):
        records = self._records()
        stats = {"confusion_rate": 0.25}
        path = tmp_path / "report.csv"
        emit_report(records, stats, path, format="csv")
        assert read_report_csv(path) == records
        assert json.loads((tmp_path / "report.csv.stats.json").read_text()) == stats

    def test_csv_cells(self, tmp_path):
        """Floats as repr, bools as 0/1, None as an empty cell."""
        path = tmp_path / "report.csv"
        emit_report(self._records(), {"confusion_rate": 0.25}, path, format="csv")
        assert path.read_bytes() == (
            b"sample_id,si_sdri_1,si_sdri_2,pi_1,phi_1,pi_2,phi_2,cos_tgt_1,cos_int_1,"
            b"cos_tgt_2,cos_int_2,flagged_1,flagged_2,confused_1,confused_2\r\n"
            b"a,6.0,-7.25,0.5,1.5,0.5,1.5,0.9,0.1,0.9,0.1,0,0,1,\r\n"
            b"b,0.125,3.5,0.5,1.5,0.5,1.5,0.9,0.1,0.9,0.1,1,0,,\r\n"
        )

    def test_empty_stats_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._records(), {}, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], {"a": 1}, tmp_path / "y.json")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._records(), {"a": 1}, tmp_path / "z.xml", format="xml")
