import copy
import csv
import gc
import json
import weakref

import numpy as np
import pytest

from confusionkit import postfilter, simulate
from confusionkit.embedding import encode
from confusionkit.evaluate import (
    EvalRecord,
    confusion_rate,
    emit_report,
    margin_analysis,
    paired_eval_records,
    quadrant_stats,
)
from confusionkit.postfilter import PostFilterParams, build_validation_records
from confusionkit.simulate import Corpus, subset, swap_roles

from oracles import cosine_oracle

LINEAR = PostFilterParams("linear", mu=0.6, lam=0.3)
RECTANGULAR = PostFilterParams("rectangular", pi_threshold=0.5, phi_threshold=0.6)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "stat,message",
    [
        (quadrant_stats, "quadrant threshold"),
        (confusion_rate, "confusion threshold"),
        (margin_analysis, "similarity margin"),
    ],
)
def test_nonfinite_threshold_rejected(stat, message, bad):
    """NaN compares false with everything, so it would put every role on
    one side; infinities do the same. All three are refused."""
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        stat([rec("a", 6.0, -7.0)], bad)


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
        self, corpus_small, encoder_trained, log_mel_calls
    ):
        """Two estimates, two enrollments and two sources, each through the
        front-end once. A deep copy has fresh waveforms, so none of their
        pooled features is memoized yet."""
        fresh = copy.deepcopy(corpus_small)
        paired_eval_records(fresh, encoder_trained)
        assert len(log_mel_calls) == 6 * len(fresh.samples)
        assert len({id(w) for w in log_mel_calls}) == len(log_mel_calls)

    def test_each_role_scores_both_payoffs_once(
        self, corpus_small, encoder_untrained, monkeypatch
    ):
        """A cold role costs three SI-SDR calls, even without params: the
        estimate's, the mixture's and the subtraction's, all when its row is
        first scored. A warm pass, with or without params, costs none."""
        calls = []
        si_sdr = postfilter.si_sdr

        def counting(est, ref):
            calls.append(est)
            return si_sdr(est, ref)

        monkeypatch.setattr(postfilter, "si_sdr", counting)
        small = copy.deepcopy(subset(corpus_small, [0, 1, 2]))
        paired_eval_records(small, encoder_untrained)
        assert len(calls) == 3 * 2 * len(small.samples)
        calls.clear()
        for params in (None, LINEAR):
            paired_eval_records(small, encoder_untrained, params)
        assert calls == []

    def test_swapped_rows_live_with_their_unswapped_sample(
        self, corpus_small, encoder_untrained, separator_calls
    ):
        """swap_roles builds a fresh sample on every call, so a swapped
        role's rows are stored under the mixture it shares with its
        unswapped sample: a second call reuses both roles' rows, and they
        are freed with the corpus."""
        small = copy.deepcopy(subset(corpus_small, [0, 1, 2]))
        paired_eval_records(small, encoder_untrained)
        assert separator_calls == [i for s in small.samples for i in (s.index, s.index)]
        separator_calls.clear()
        paired_eval_records(small, encoder_untrained)
        assert separator_calls == []
        stored = [(*key, row) for s in small.samples for key, row in s.mixture.derived.items()]
        assert all(cfg == small.confusion and row.baseline is not None for _, cfg, row in stored)
        swapped = [row for role, _, row in stored if role[0]]
        assert len(swapped) == len(small.samples)
        refs = [weakref.ref(row.pooled) for row in swapped]
        del small, stored, swapped
        gc.collect()
        assert all(r() is None for r in refs)

    def test_each_role_builds_streams_on_its_first_pass_only(
        self, corpus_small, encoder_untrained, monkeypatch
    ):
        """A role's first pass builds two confusion streams, one for its row's
        flag and one for the separator, and one noise stream; a repeated pass
        reads the rows and builds no stream."""
        built = []
        derive = simulate._derive_seed

        def counting(*parts):
            built.append(parts[0])
            return derive(*parts)

        monkeypatch.setattr(simulate, "_derive_seed", counting)
        small = copy.deepcopy(subset(corpus_small, [0, 1, 2]))
        paired_eval_records(small, encoder_untrained)
        roles = 2 * len(small.samples)
        assert sorted(built) == (
            [simulate._STREAM_CONFUSION] * 2 * roles + [simulate._STREAM_NOISE] * roles
        )
        built.clear()
        paired_eval_records(small, encoder_untrained)
        assert built == []

    def test_cosines_match_encode(self, corpus_small, encoder_trained):
        """In one projection of six rows per mixture, each role's cosines
        equal the oracle cosine of encoded enrollment and sources, exactly,
        on a warm pass and on a deep copy's cold pass."""
        warm = subset(corpus_small, list(range(17)))
        paired_eval_records(warm, encoder_trained)
        for small in (warm, copy.deepcopy(warm)):
            records = paired_eval_records(small, encoder_trained)
            for r, sample in zip(records, small.samples):
                for role, s in ((1, sample), (2, swap_roles(sample))):
                    e_t = encode(encoder_trained, s.enroll_target)
                    assert getattr(r, f"cos_tgt_{role}") == cosine_oracle(
                        e_t, encode(encoder_trained, s.source_target))
                    assert getattr(r, f"cos_int_{role}") == cosine_oracle(
                        e_t, encode(encoder_trained, s.source_interferer))

    def test_role_one_matches_validation_records(self, corpus_small, encoder_trained):
        records = paired_eval_records(corpus_small, encoder_trained)
        validation = build_validation_records(corpus_small, encoder_trained)
        assert [(r.pi_1, r.phi_1, r.si_sdri_1) for r in records] == [
            (v.pair.pi, v.pair.phi, v.keep_value) for v in validation
        ]

    @pytest.mark.parametrize("params", [None, LINEAR], ids=["raw", "linear"])
    def test_no_estimate_outlives_its_row(
        self, corpus_small, encoder_untrained, monkeypatch, params
    ):
        """At each separator call of a cold pass, no earlier estimate is
        alive: each role's subtraction is scored with its row, from the
        estimate that row was made from (none is made twice)."""
        small = copy.deepcopy(subset(corpus_small, list(range(17))))
        made, alive = [], []

        def tracking(sample, cfg):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            est = simulate.toy_separator(sample, cfg)
            made.append(weakref.ref(est))
            return est

        monkeypatch.setattr(postfilter, "toy_separator", tracking)
        records = paired_eval_records(small, encoder_untrained, params)
        assert len(made) == 2 * len(small.samples)
        assert alive == [0] * len(made)
        assert (params is not None) == any(r.flagged_1 or r.flagged_2 for r in records)

    @pytest.mark.parametrize("params", [None, LINEAR, RECTANGULAR],
                             ids=["raw", "linear", "rectangular"])
    def test_each_role_is_the_other_corpus_role(self, corpus_small, encoder_untrained, params):
        """A corpus and the same corpus rebuilt from swap_roles: role 2 of
        one is role 1 of the other, field for field and byte for byte, on
        cold passes (deep copies), on repeated passes, and on the swapped
        samples of the same objects, which reuse the first corpus's rows."""
        def role(records, k):
            names = ("si_sdri", "pi", "phi", "cos_tgt", "cos_int", "flagged", "confused")
            return [tuple(repr(getattr(r, f"{name}_{k}")) for name in names) for r in records]

        def swapped(corpus):
            return Corpus([swap_roles(s) for s in corpus.samples], corpus.confusion)

        base = subset(corpus_small, list(range(12)))
        one, two = copy.deepcopy(base), swapped(copy.deepcopy(base))
        passes = [(paired_eval_records(one, encoder_untrained, params),
                   paired_eval_records(two, encoder_untrained, params)) for _ in range(2)]
        passes.append((passes[0][0], paired_eval_records(swapped(one), encoder_untrained, params)))
        for first, second in passes:
            assert role(first, 2) == role(second, 1)
            assert role(first, 1) == role(second, 2)
        flagged = [r.flagged_1 or r.flagged_2 for r in passes[0][0]]
        assert any(flagged) == (params is not None) and not all(flagged)

    def test_warm_pass_builds_no_swapped_sample(self, corpus_small, encoder_untrained,
                                                 monkeypatch):
        """Once both roles are scored, a pass finds role 2's row and draw
        without swap_roles, with or without params. A cold pass builds one
        swapped sample per mixture."""
        small = copy.deepcopy(subset(corpus_small, list(range(6))))
        calls = []

        def counting(sample):
            calls.append(sample.index)
            return swap_roles(sample)

        monkeypatch.setattr(postfilter, "swap_roles", counting)
        paired_eval_records(small, encoder_untrained, LINEAR)
        assert calls == [s.index for s in small.samples]
        calls.clear()
        for params in (LINEAR, None):
            paired_eval_records(small, encoder_untrained, params)
        assert calls == []


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
        doc = json.loads(path.read_text())
        assert [EvalRecord(**r) for r in doc["records"]] == records
        assert doc["stats"] == stats

    def test_csv_roundtrip(self, tmp_path):
        records = self._records()
        stats = {"confusion_rate": 0.25}
        path = tmp_path / "report.csv"
        emit_report(records, stats, path, format="csv")

        def cell(name, text):
            if name == "sample_id":
                return text
            if name.startswith(("flagged", "confused")):
                return None if text == "" else text == "1"
            return float(text)

        with open(path, newline="") as fh:
            back = [EvalRecord(**{k: cell(k, v) for k, v in row.items()})
                    for row in csv.DictReader(fh)]
        assert back == records
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
