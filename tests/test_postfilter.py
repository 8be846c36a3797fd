import copy
import csv
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confusionkit.audio import CAP_DB, Waveform, si_sdr
from confusionkit import evaluate, postfilter
from confusionkit.embedding import ToyEncoder, encode
from confusionkit.errors import ConfusionKitError, LengthMismatchError, ZeroSignalError
from confusionkit.evaluate import paired_eval_records
from confusionkit.postfilter import (
    PipelineRecord,
    PostFilterParams,
    SimilarityPair,
    ValidationRecord,
    apply_postfilter,
    build_validation_records,
    decide_confused,
    load_params,
    run_pipeline,
    save_params,
    scored_row,
    similarity_features,
    tune_linear,
    tune_rectangular,
    write_records,
)
from confusionkit.simulate import Corpus, subset, swap_roles, toy_separator

from oracles import brute_force_linear, brute_force_rectangular, l2_distance_oracle


# A pi or phi, on a one-decimal grid value or between them, and an exactly summable payoff.
FEATURE = st.one_of(st.sampled_from(postfilter._grid(0.0).tolist()), st.floats(0.0, 2.0))
QUARTER = st.integers(-40, 40).map(lambda q: q / 4)


def record(pi, phi, keep, sub):
    return ValidationRecord(SimilarityPair(pi, phi), keep, sub)


def random_records(rng, n):
    out = []
    for _ in range(n):
        out.append(
            record(
                float(rng.uniform(0, 2)),
                float(rng.uniform(0, 2)),
                float(rng.uniform(-40, 40)),
                float(rng.uniform(-40, 40)),
            )
        )
    return out


def as_tuples(records):
    return [(r.pair.pi, r.pair.phi, r.keep_value, r.subtract_value) for r in records]


def read_records_csv(path):
    """A records CSV parsed column by column, as PipelineRecords."""
    with open(path, newline="") as fh:
        return [
            PipelineRecord(r["sample_id"], float(r["pi"]), float(r["phi"]), r["flagged"] == "1",
                           float(r["si_sdri_raw"]), float(r["si_sdri_final"]))
            for r in csv.DictReader(fh)
        ]


def loop_grid_argmax(records, candidates, flag_fn):
    """The tuners' grid search as one candidate at a time: the summed
    payoff, then fewest flags, then the smallest parameters."""
    pi = np.asarray([r.pair.pi for r in records])
    phi = np.asarray([r.pair.phi for r in records])
    keep = np.asarray([r.keep_value for r in records])
    sub = np.asarray([r.subtract_value for r in records])
    best = None
    for a, b in candidates:
        flags = flag_fn(pi, phi, a, b)
        objective = float(np.where(flags, sub, keep).sum())
        key = (-objective, int(flags.sum()), a, b)
        if best is None or key < best[0]:
            best = (key, (a, b), objective)
    return best[1], best[2]


def loop_tuners(records):
    grid = [float(v) for v in np.round(np.arange(0.0, 2.0 + 1e-9, 0.1), 1)]
    lam_grid = [float(v) for v in np.round(np.arange(-1.0, 1.0 + 1e-9, 0.1), 1)]
    linear = loop_grid_argmax(records, [(m, l) for m in grid for l in lam_grid],
                              lambda pi, phi, m, l: phi < m * pi + l)
    rectangular = loop_grid_argmax(records, [(a, b) for a in grid for b in grid],
                                   lambda pi, phi, a, b: (pi > a) & (phi < b))
    return linear, rectangular


def per_sample_scores(samples, confusion, enc, estimates=None):
    """(pi, phi, keep) of each sample from its own encode calls."""
    out = []
    for pos, s in enumerate(samples):
        est = toy_separator(s, confusion) if estimates is None else estimates[pos]
        e = encode(enc, est)
        pi = l2_distance_oracle(e, encode(enc, s.enroll_target))
        phi = l2_distance_oracle(e, encode(enc, s.enroll_interferer))
        out.append((pi, phi, si_sdr(est, s.source_target) - si_sdr(s.mixture, s.source_target)))
    return out


class TestSimilarityFeatures:
    def test_estimate_equal_to_target_enrollment(self, corpus_small, encoder_untrained):
        s = corpus_small.samples[0]
        e_t = encode(encoder_untrained, s.enroll_target)
        e_f = encode(encoder_untrained, s.enroll_interferer)
        pair = similarity_features(e_t, e_t, e_f)
        assert pair.pi == 0.0
        assert pair.phi > 0.0

    def test_estimate_equal_to_interferer_enrollment(self, corpus_small, encoder_untrained):
        s = corpus_small.samples[0]
        e_t = encode(encoder_untrained, s.enroll_target)
        e_f = encode(encoder_untrained, s.enroll_interferer)
        pair = similarity_features(e_f, e_t, e_f)
        assert pair.phi == 0.0

    def test_confused_samples_sit_at_high_pi_low_phi(self, corpus_clean, encoder_trained):
        """pi - phi rank-correlates with the ground-truth confusion flags."""
        from scipy.stats import spearmanr

        records = build_validation_records(corpus_clean, encoder_trained)
        flags = corpus_clean.confused_flags
        assert any(flags) and not all(flags)
        gap = [r.pair.pi - r.pair.phi for r in records]
        rho = spearmanr(gap, [int(f) for f in flags]).statistic
        assert rho > 0.5


class TestScoreCorpus:
    @pytest.mark.parametrize("count", [1, 3], ids=["short", "long"])
    def test_estimate_count_must_match(self, corpus_small, encoder_untrained, count, tmp_path):
        """Refused on call, and before run_pipeline writes anything."""
        small = subset(corpus_small, [0, 1])
        estimates = [toy_separator(small.samples[0], small.confusion)] * count
        with pytest.raises(ValueError, match="estimates"):
            build_validation_records(small, encoder_untrained, estimates)
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        with pytest.raises(ValueError, match="estimates"):
            run_pipeline(small, encoder_untrained, params, estimates, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("swapped", [False, True], ids=["roles", "swapped"])
    @pytest.mark.parametrize("given, cold", [(False, False), (True, False), (False, True),
                                             (True, True)],
                             ids=["separator", "given", "separator_cold", "given_cold"])
    def test_blocks_match_per_sample_scoring(
        self, corpus_small, encoder_trained, swapped, given, cold
    ):
        """In one projection of many rows, pi, phi and keep equal a per-sample
        encode and the oracle L2 distance, exactly: warm, cold (a deep copy
        has no estimate rows) and with given estimates."""
        samples = corpus_small.samples[:17]
        if cold:
            samples = copy.deepcopy(samples)
        if swapped:
            samples = [swap_roles(s) for s in samples]
        cfg = corpus_small.confusion
        corpus = Corpus(samples, cfg)
        if not cold:
            build_validation_records(corpus, encoder_trained)
        estimates = [toy_separator(s, cfg) for s in samples] if given else None
        got = [(r.pair.pi, r.pair.phi, r.keep_value)
               for r in build_validation_records(corpus, encoder_trained, estimates)]
        assert got == per_sample_scores(samples, cfg, encoder_trained, estimates)
        assert all(type(v) is float for row in got for v in row)

    def test_paired_rectangular_border_matches_per_sample_scoring(
        self, corpus_small, encoder_trained
    ):
        """Under a tuned rectangular border, paired records are the same warm
        and cold (a deep copy), and each role's pi, phi and payoff equal a
        per-sample encode, the oracle L2 distance and the branch's SI-SDRi."""
        small = subset(corpus_small, list(range(17)))
        params, _ = tune_rectangular(build_validation_records(small, encoder_trained))
        paired_eval_records(small, encoder_trained, params)
        warm = paired_eval_records(small, encoder_trained, params)
        cold = paired_eval_records(copy.deepcopy(small), encoder_trained, params)
        assert [tuple(map(repr, vars(r).values())) for r in warm] == [
            tuple(map(repr, vars(r).values())) for r in cold]
        cfg = small.confusion
        for role, samples in ((1, small.samples), (2, [swap_roles(s) for s in small.samples])):
            for r, s, (pi, phi, keep) in zip(
                    warm, samples, per_sample_scores(samples, cfg, encoder_trained)):
                flagged = getattr(r, f"flagged_{role}")
                subtracted = apply_postfilter(s.mixture, toy_separator(s, cfg), True)
                payoff = (si_sdr(subtracted, s.source_target) - si_sdr(s.mixture, s.source_target)
                          if flagged else keep)
                assert (getattr(r, f"pi_{role}"), getattr(r, f"phi_{role}"),
                        getattr(r, f"si_sdri_{role}")) == (pi, phi, payoff)
        flags = [f for r in warm for f in (r.flagged_1, r.flagged_2)]
        assert any(flags) and not all(flags)

    def test_warm_pass_projects_once(self, corpus_small, encoder_untrained, monkeypatch):
        """With every estimate row memoized, validation, the pipeline and
        paired evaluation each project once: paired evaluation's six rows per
        mixture hold both roles' estimates, enrollments and sources."""
        small = copy.deepcopy(subset(corpus_small, list(range(17))))
        paired_eval_records(small, encoder_untrained)  # memoizes both roles' rows
        rows = []
        original = postfilter.project_rows

        def counting(enc, pooled):
            rows.append(len(pooled))
            return original(enc, pooled)

        monkeypatch.setattr(postfilter, "project_rows", counting)
        monkeypatch.setattr(evaluate, "project_rows", counting)
        n, params = len(small.samples), PostFilterParams("linear", mu=0.6, lam=0.3)
        for run, expected in (
            (lambda: build_validation_records(small, encoder_untrained), [3 * n]),
            (lambda: run_pipeline(small, encoder_untrained, params), [3 * n]),
            (lambda: paired_eval_records(small, encoder_untrained, params), [6 * n]),
        ):
            rows.clear()
            run()
            assert rows == expected

    def test_no_estimate_outlives_its_row(self, corpus_small, encoder_untrained, monkeypatch,
                                          tmp_path):
        """Earlier separator outputs alive at each separator call: none on a
        cold scoring pass, which lets each estimate go once its row is
        scored, and at most one while run_pipeline re-makes estimates for
        its WAV files."""
        small = copy.deepcopy(subset(corpus_small, list(range(17))))
        made, alive = [], []

        def tracking(sample, cfg):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            est = toy_separator(sample, cfg)
            made.append(weakref.ref(est))
            return est

        monkeypatch.setattr(postfilter, "toy_separator", tracking)
        n = len(small.samples)
        build_validation_records(small, encoder_untrained)
        assert alive == [0] * n
        alive.clear()
        run_pipeline(small, encoder_untrained, PostFilterParams("linear", mu=0.6, lam=0.3),
                     out_dir=tmp_path)
        assert alive[0] == 0 and max(alive) == 1 and len(alive) == n
        assert len(made) == 2 * n

    def test_empty_corpus_scores_nothing(self, corpus_small, encoder_untrained):
        empty = Corpus([], corpus_small.confusion)
        assert build_validation_records(empty, encoder_untrained) == []
        assert paired_eval_records(empty, encoder_untrained) == []

    def test_zero_projection_raises(self, corpus_small, encoder_untrained):
        """ToyEncoder refuses a zero projection; one zeroed in place still fails to score."""
        zero = ToyEncoder(encoder_untrained.projection.copy())
        zero.projection[:] = 0.0
        small = subset(corpus_small, [0, 1])
        with pytest.raises(ZeroSignalError):
            build_validation_records(small, zero)
        with pytest.raises(ZeroSignalError):
            paired_eval_records(small, zero)

    def test_validation_and_pipeline_embed_three_waveforms_per_sample(
        self, corpus_small, encoder_untrained, log_mel_calls
    ):
        """The estimate and both enrollments, each through the front-end
        once. A deep copy has fresh waveforms and no estimate rows yet."""
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        for run in (
            lambda small: build_validation_records(small, encoder_untrained),
            lambda small: run_pipeline(small, encoder_untrained, params),
        ):
            small = copy.deepcopy(subset(corpus_small, [0, 1, 2, 3]))
            log_mel_calls.clear()
            run(small)
            assert len(log_mel_calls) == 3 * len(small.samples)
            assert len({id(w) for w in log_mel_calls}) == len(log_mel_calls)

    def test_repeated_scoring_reuses_the_rows(
        self, corpus_small, encoder_untrained, separator_calls, log_mel_calls
    ):
        """A second pass over the same corpus object runs neither the
        separator nor the front-end, and scores what a fresh copy scores."""
        small = copy.deepcopy(subset(corpus_small, [0, 1, 2, 3, 4, 5]))
        params = PostFilterParams("linear", mu=0.6, lam=0.3)

        def score(corpus):
            return (
                build_validation_records(corpus, encoder_untrained),
                run_pipeline(corpus, encoder_untrained, params),
                paired_eval_records(corpus, encoder_untrained, params),
            )

        score(small)
        separator_calls.clear()
        log_mel_calls.clear()
        warm = score(small)
        assert separator_calls == [] and log_mel_calls == []
        assert warm == score(copy.deepcopy(small))

    def test_warm_pipeline_writes_the_cold_bytes(
        self, corpus_small, encoder_untrained, separator_calls, tmp_path
    ):
        """On a row hit the estimate is re-made once per sample for its WAVs,
        and a flagged sample's subtraction is scored from it."""
        small = copy.deepcopy(subset(corpus_small, list(range(8))))
        flag_none = PostFilterParams("linear", mu=0.0, lam=-1.0)
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        cold = run_pipeline(copy.deepcopy(small), encoder_untrained, params, out_dir=tmp_path / "cold")
        assert any(r.flagged for r in cold) and not all(r.flagged for r in cold)
        run_pipeline(small, encoder_untrained, flag_none)
        separator_calls.clear()
        warm = run_pipeline(small, encoder_untrained, params, out_dir=tmp_path / "warm")
        assert separator_calls == [s.index for s in small.samples]
        assert warm == cold

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        written = tree(tmp_path / "cold")
        assert len(written) == 2 * len(small.samples) + 1  # two WAVs each, records.csv
        assert tree(tmp_path / "warm") == written

    def test_swapped_roles_alone_reuse_their_rows(
        self, corpus_small, encoder_untrained, separator_calls
    ):
        """Rows live with the mixture every role shares, so scoring only the
        fresh swap_roles objects twice runs the separator once per sample."""
        small = copy.deepcopy(subset(corpus_small, [0, 1, 2, 3]))

        def score():
            swapped = [swap_roles(s) for s in small.samples]
            return [r.pair for r in build_validation_records(Corpus(swapped, small.confusion),
                                                             encoder_untrained)]

        first = score()
        assert score() == first
        assert separator_calls == [s.index for s in small.samples]

    def test_samples_sharing_a_mixture_keep_their_own_rows(
        self, corpus_small, encoder_untrained, separator_calls
    ):
        """Samples that dataclasses.replace builds around one mixture differ in
        what the separator reads, so each gets its own row, made whole from
        one separator call: its mixture and subtraction SI-SDRs come from its
        own target. A given estimate is scored afresh and leaves the stored
        row in place."""
        base = copy.deepcopy(corpus_small.samples[0])
        clones = [replace(base, index=i) for i in range(4)]
        clones.append(replace(base, source_target=base.source_interferer,
                              source_interferer=base.source_target))
        cfg = corpus_small.confusion
        rows = [scored_row(s, cfg) for s in clones]
        assert separator_calls == [0, 1, 2, 3, 0]
        separator_calls.clear()
        for s, row in zip(clones, rows):
            assert scored_row(s, cfg) is row
            est = toy_separator(s, cfg)
            assert row.sdr == si_sdr(est, s.source_target)
            assert row.baseline == si_sdr(s.mixture, s.source_target)
            assert row.subtract == si_sdr(apply_postfilter(s.mixture, est, True), s.source_target)
            (kept,) = build_validation_records(Corpus([s], cfg), encoder_untrained)
            assert (kept.keep_value, kept.subtract_value) == (row.payoff(False), row.payoff(True))
            (given,) = build_validation_records(Corpus([s], cfg), encoder_untrained, [est])
            assert given == kept and scored_row(s, cfg) is row
        build_validation_records(Corpus(clones, cfg), encoder_untrained)
        assert separator_calls == []
        assert rows[0].baseline == rows[3].baseline != rows[4].baseline


class TestDecideConfused:
    def test_rectangular_tuned_example(self):
        params = PostFilterParams("rectangular", pi_threshold=0.8, phi_threshold=1.0)
        assert decide_confused(SimilarityPair(0.9, 0.2), params)

    def test_boundary_is_strict(self):
        params = PostFilterParams("rectangular", pi_threshold=0.8, phi_threshold=1.0)
        assert not decide_confused(SimilarityPair(0.8, 0.2), params)
        assert not decide_confused(SimilarityPair(0.9, 1.0), params)

    def test_linear_tuned_example(self):
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        assert decide_confused(SimilarityPair(1.0, 0.8), params)
        assert not decide_confused(SimilarityPair(1.0, 0.9), params)

    def test_rectangular_monotonicity(self):
        rng = np.random.default_rng(2)
        pairs = [SimilarityPair(*rng.uniform(0, 2, 2)) for _ in range(100)]
        base = PostFilterParams("rectangular", pi_threshold=0.7, phi_threshold=0.9)
        tighter_pi = PostFilterParams("rectangular", pi_threshold=0.9, phi_threshold=0.9)
        tighter_phi = PostFilterParams("rectangular", pi_threshold=0.7, phi_threshold=0.7)
        for p in pairs:
            if not decide_confused(p, base):
                assert not decide_confused(p, tighter_pi)
                assert not decide_confused(p, tighter_phi)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PostFilterParams("rectangular", pi_threshold=0.5)
        with pytest.raises(ValueError):
            PostFilterParams("diagonal", mu=1.0, lam=0.0)


class TestTuners:
    def test_no_benefit_picks_degenerate_rectangular(self):
        rng = np.random.default_rng(3)
        records = [
            record(rng.uniform(0, 2), rng.uniform(0, 2), 10.0, -10.0) for _ in range(30)
        ]
        params, objective = tune_rectangular(records)
        assert objective == pytest.approx(300.0)
        assert not any(
            decide_confused(r.pair, params) for r in records
        )

    def test_no_benefit_picks_degenerate_linear(self):
        rng = np.random.default_rng(4)
        records = [
            record(rng.uniform(0, 2), rng.uniform(0, 2), 5.0, -5.0) for _ in range(30)
        ]
        params, objective = tune_linear(records)
        assert objective == pytest.approx(150.0)
        assert not any(decide_confused(r.pair, params) for r in records)

    def test_planted_rectangular_border_recovered(self):
        """Confused records planted strictly inside pi>0.8, phi<0.3."""
        rng = np.random.default_rng(5)
        records = []
        planted = []
        for i in range(60):
            confused = i % 4 == 0
            if confused:
                pi = rng.uniform(0.95, 1.8)
                phi = rng.uniform(0.02, 0.22)
                records.append(record(pi, phi, -20.0, 25.0))
            else:
                pi = rng.uniform(0.05, 0.72)
                phi = rng.uniform(0.42, 1.9)
                records.append(record(pi, phi, 20.0, -25.0))
            planted.append(confused)
        params, objective = tune_rectangular(records)
        flags = [decide_confused(r.pair, params) for r in records]
        assert flags == planted
        (oa, ob), oracle_obj = brute_force_rectangular(as_tuples(records))
        assert objective == pytest.approx(oracle_obj, abs=1e-9)
        assert (params.pi_threshold, params.phi_threshold) == (oa, ob)

    def test_planted_linear_border_recovered(self):
        rng = np.random.default_rng(6)
        records = []
        planted = []
        for i in range(60):
            confused = i % 5 == 0
            pi = rng.uniform(0.1, 1.9)
            # confused records sit clearly below phi = 0.5 pi, clean ones above
            phi = pi * 0.5 + (rng.uniform(-0.45, -0.15) if confused else rng.uniform(0.15, 0.45))
            records.append(record(pi, max(0.0, phi), 15.0 if not confused else -15.0,
                                  -20.0 if not confused else 20.0))
            planted.append(confused)
        params, objective = tune_linear(records)
        flags = [decide_confused(r.pair, params) for r in records]
        assert flags == planted
        (om, ol), oracle_obj = brute_force_linear(as_tuples(records))
        assert objective == pytest.approx(oracle_obj, abs=1e-9)
        assert (params.mu, params.lam) == (om, ol)

    def test_single_record_takes_best_branch(self):
        r = record(1.0, 0.1, keep=-5.0, sub=30.0)
        params, objective = tune_rectangular([r])
        assert objective == pytest.approx(30.0)
        assert decide_confused(r.pair, params)
        params, objective = tune_rectangular([record(1.0, 0.1, keep=8.0, sub=-3.0)])
        assert objective == pytest.approx(8.0)

    def test_tie_break_prefers_fewest_flags_then_lexicographic(self):
        """With keep == subtract everywhere, every border ties; the
        flag-nothing lexicographic minimum must win."""
        records = [record(1.0, 0.5, 7.0, 7.0), record(0.3, 1.2, -1.0, -1.0)]
        params, _ = tune_rectangular(records)
        assert (params.pi_threshold, params.phi_threshold) == (0.0, 0.0)
        lin_params, _ = tune_linear(records)
        assert (lin_params.mu, lin_params.lam) == (0.0, -1.0)

    def test_overflowing_sum_ranks_last(self):
        """Finite payoffs near the float limit sum to NaN where no record is
        flagged; those candidates rank below every finite objective."""
        big = [1e308, 1e308, -1e308, -1e308, 1.0, 1.0, 1.0, 1.0]
        records = [record(1.0, 0.1, keep, 0.0) for keep in big]
        with np.errstate(over="ignore", invalid="ignore"):
            rect, rect_obj = tune_rectangular(records)
            lin, lin_obj = tune_linear(records)
        assert ((rect.pi_threshold, rect.phi_threshold), rect_obj) == ((0.0, 0.2), 0.0)
        assert ((lin.mu, lin.lam), lin_obj) == ((0.0, 0.2), 0.0)

    def test_matches_oracle_on_random_sets(self):
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            records = random_records(rng, 40)
            params, objective = tune_rectangular(records)
            (oa, ob), oracle_obj = brute_force_rectangular(as_tuples(records))
            assert (params.pi_threshold, params.phi_threshold) == (oa, ob)
            assert objective == pytest.approx(oracle_obj, abs=1e-9)
            lin, lin_obj = tune_linear(records)
            (om, ol), lin_oracle = brute_force_linear(as_tuples(records))
            assert (lin.mu, lin.lam) == (om, ol)
            assert lin_obj == pytest.approx(lin_oracle, abs=1e-9)

    @given(st.lists(st.tuples(*[st.one_of(FEATURE, st.floats(0.0, 1e6))] * 2,
                              *[st.floats(-1e6, 1e6)] * 2), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_tuned_never_below_unfiltered(self, rows):
        """Each grid holds a flag-nothing candidate, so for any finite records
        with pi, phi >= 0 the tuned objective is at least the unfiltered sum,
        and it is the payoff sum of the flags the tuned params pick, summed as
        the tuner sums a candidate's payoffs. Payoffs are bounded so that no
        sum overflows."""
        records = [record(*row) for row in rows]
        pairs = SimilarityPair(*np.array([(r.pair.pi, r.pair.phi) for r in records]).T)
        keep, sub = np.array([(r.keep_value, r.subtract_value) for r in records]).T
        for tune in (tune_rectangular, tune_linear):
            params, objective = tune(records)
            assert objective >= keep.sum()
            assert objective == np.where(decide_confused(pairs, params), sub, keep).sum()

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            tune_rectangular([])
        with pytest.raises(ValueError):
            tune_linear([])

    @pytest.mark.parametrize("field", ["pi", "phi", "keep_value", "subtract_value"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_record_rejected(self, field, bad):
        values = {"pi": 0.5, "phi": 0.6, "keep_value": 1.0, "subtract_value": 2.0, field: bad}
        records = [record(0.4, 0.3, 1.0, 2.0), record(*values.values())]
        for tune in (tune_rectangular, tune_linear):
            with pytest.raises(ValueError, match=f"^record 1 has non-finite {field} "):
                tune(records)

    def test_matrix_matches_candidate_loop_on_ties(self):
        """Values on coarse lattices and keep == subtract force ties in the
        objective and the flag count; params and objective bits must be
        those of the one-candidate-at-a-time search."""
        rng = np.random.default_rng(1)
        for n in [1, 2, 3, 5, 8, 13, 40, 100, 300]:
            for lattice in (0.5, 0.1):
                def pick(low, high, size=n):
                    return np.round(rng.uniform(low, high, size) / lattice) * lattice

                pi, phi = pick(0, 2), pick(0, 2)
                keep, sub = pick(-10, 10), pick(-10, 10)
                tied = rng.random(n) < 0.5
                sub[tied] = keep[tied]
                records = [record(*map(float, v)) for v in zip(pi, phi, keep, sub)]
                (lin_ab, lin_obj), (rect_ab, rect_obj) = loop_tuners(records)
                lin, lobj = tune_linear(records)
                rect, robj = tune_rectangular(records)
                assert ((lin.mu, lin.lam), repr(lobj)) == (lin_ab, repr(lin_obj))
                assert ((rect.pi_threshold, rect.phi_threshold), repr(robj)) == (
                    rect_ab, repr(rect_obj))

    @given(st.lists(st.tuples(FEATURE, FEATURE, QUARTER, QUARTER), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_objective_is_the_payoff_decide_confused_picks(self, rows):
        """Tuners and decide_confused share one border: the tuned objective is
        the sum of the payoffs decide_confused picks under the tuned params,
        also for features on a grid value, hence on a border. Payoffs are
        quarters, so every summation order gives the same sum."""
        records = [record(*row) for row in rows]
        for tune in (tune_rectangular, tune_linear):
            params, objective = tune(records)
            assert objective == sum(r.subtract_value if decide_confused(r.pair, params)
                                    else r.keep_value for r in records)


class TestApplyPostfilter:
    def test_passthrough_when_not_flagged(self):
        y = Waveform(np.array([1.0, 2.0, 3.0]), 8000)
        est = Waveform(np.array([0.5, 0.25, 0.125]), 8000)
        out = apply_postfilter(y, est, flagged=False)
        assert out is est

    def test_exact_subtraction_recovers_target(self):
        """Dyadic samples make y = s_t + s_i exact, so y - s_i == s_t bitwise."""
        rng = np.random.default_rng(7)
        s_t = np.round(rng.uniform(-1, 1, 64) * 1024) / 1024
        s_i = np.round(rng.uniform(-1, 1, 64) * 1024) / 1024
        y = Waveform(s_t + s_i, 8000)
        out = apply_postfilter(y, Waveform(s_i, 8000), flagged=True)
        np.testing.assert_array_equal(out.samples, s_t)
        assert si_sdr(out, Waveform(s_t, 8000)) == CAP_DB

    def test_false_positive_cost_measured(self, corpus_clean, encoder_trained):
        """Subtracting a clean estimate degrades SI-SDRi."""
        records = build_validation_records(corpus_clean, encoder_trained)
        clean = [r for r, f in zip(records, corpus_clean.confused_flags) if not f]
        assert clean
        for r in clean:
            assert r.subtract_value < r.keep_value

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            apply_postfilter(
                Waveform(np.ones(4), 8000), Waveform(np.ones(5), 8000), True
            )


class TestRunPipeline:
    def test_deterministic(self, corpus_small, encoder_trained):
        params = PostFilterParams("rectangular", pi_threshold=0.8, phi_threshold=1.0)
        a = run_pipeline(corpus_small, encoder_trained, params)
        b = run_pipeline(corpus_small, encoder_trained, params)
        assert a == b

    def test_tuned_filter_improves_confused_corpus(self, corpus_small, encoder_trained):
        dev = subset(corpus_small, list(range(0, len(corpus_small.samples), 2)))
        test = subset(corpus_small, list(range(1, len(corpus_small.samples), 2)))
        params, _ = tune_linear(build_validation_records(dev, encoder_trained))
        records = run_pipeline(test, encoder_trained, params)
        raw = np.mean([r.si_sdri_raw for r in records])
        final = np.mean([r.si_sdri_final for r in records])
        assert final > raw

    def test_clean_corpus_unchanged_within_false_positive_cost(
        self, corpus_small, encoder_trained
    ):
        """With no confusions injected, sane params leave the mean nearly alone."""
        clean = subset(
            corpus_small,
            [i for i, f in enumerate(corpus_small.confused_flags) if not f],
        )
        params = PostFilterParams("rectangular", pi_threshold=0.8, phi_threshold=0.4)
        records = run_pipeline(clean, encoder_trained, params)
        false_pos = [r for r in records if r.flagged]
        unflagged = [r for r in records if not r.flagged]
        for r in unflagged:
            assert r.si_sdri_final == r.si_sdri_raw
        drop = sum(r.si_sdri_raw - r.si_sdri_final for r in false_pos)
        mean_raw = np.mean([r.si_sdri_raw for r in records])
        mean_final = np.mean([r.si_sdri_final for r in records])
        assert mean_final == pytest.approx(mean_raw - drop / len(records), abs=1e-9)

    def test_outputs_written(self, corpus_small, encoder_trained, tmp_path):
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        small = subset(corpus_small, [0, 1, 2])
        records = run_pipeline(
            small, encoder_trained, params, out_dir=tmp_path / "out"
        )
        assert (tmp_path / "out" / "records.csv").exists()
        for r in records:
            assert (tmp_path / "out" / "audio" / f"{r.sample_id}_output.wav").exists()
        back = read_records_csv(tmp_path / "out" / "records.csv")
        assert [r.sample_id for r in back] == [r.sample_id for r in records]
        np.testing.assert_allclose(
            [r.si_sdri_final for r in back], [r.si_sdri_final for r in records]
        )

    def test_presupplied_estimates_used(self, corpus_small, encoder_trained):
        small = subset(corpus_small, [0, 1])
        estimates = [toy_separator(s, corpus_small.confusion) for s in small.samples]
        params = PostFilterParams("rectangular", pi_threshold=2.0, phi_threshold=0.0)
        a = run_pipeline(small, encoder_trained, params, estimates=estimates)
        b = run_pipeline(small, encoder_trained, params)
        assert a == b


class TestRecordsAndParamsIO:
    def test_records_roundtrip(self, tmp_path):
        records = [
            PipelineRecord("sample_00000", 0.1234567890123, 1.9, True, -31.5, 60.0),
            PipelineRecord("sample_00001", 0.5, 0.25, False, 12.25, 12.25),
        ]
        path = tmp_path / "records.csv"
        write_records(records, path)
        assert path.read_bytes() == (
            b"sample_id,pi,phi,flagged,si_sdri_raw,si_sdri_final\r\n"
            b"sample_00000,0.1234567890123,1.9,1,-31.5,60.0\r\n"
            b"sample_00001,0.5,0.25,0,12.25,12.25\r\n"
        )
        assert read_records_csv(path) == records

    def test_params_roundtrip_and_schema(self, tmp_path):
        import json

        params = PostFilterParams("rectangular", pi_threshold=0.8, phi_threshold=1.0)
        path = tmp_path / "params.json"
        save_params(params, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"variant", "Pi", "Phi", "mu", "lambda"}
        assert doc["Pi"] == 0.8 and doc["Phi"] == 1.0
        assert doc["mu"] is None and doc["lambda"] is None
        assert load_params(path) == params

    def test_linear_params_roundtrip(self, tmp_path):
        params = PostFilterParams("linear", mu=0.6, lam=0.3)
        path = tmp_path / "lin.json"
        save_params(params, path)
        assert load_params(path) == params

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"variant": "linear", "mu": 0.5}')
        with pytest.raises(ConfusionKitError, match=r"partial\.json.*'Pi'"):
            load_params(path)

    @pytest.mark.parametrize(
        "value", ["x", True, float("nan"), 0.123], ids=["str", "bool", "nan", "off-grid"]
    )
    def test_active_value_must_be_one_decimal_number(self, tmp_path, value):
        import json

        path = tmp_path / "bad.json"
        doc = {"variant": "linear", "Pi": None, "Phi": None, "mu": value, "lambda": 0.3}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfusionKitError, match=r"bad\.json: 'mu' must be"):
            load_params(path)
        doc = {"variant": "rectangular", "Pi": 0.5, "Phi": value, "mu": value, "lambda": None}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfusionKitError, match=r"bad\.json: 'Phi' must be"):
            load_params(path)
