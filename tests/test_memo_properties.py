"""Memo invariants, drawn by Hypothesis: whatever scoring, evaluation and
training calls a corpus object went through before, its validation, pipeline
and paired records equal those of a fresh deep copy, and role 2 of paired
evaluation is role 1 of the corpus rebuilt with swap_roles. A subset of a
corpus, in any order, gets the records the whole corpus gets for its samples."""

import copy
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from confusionkit.embedding import init_encoder
from confusionkit.evaluate import paired_eval_records
from confusionkit.postfilter import (PostFilterParams, build_validation_records, estimate_row,
                                     run_pipeline)
from confusionkit.simulate import (ConfusionConfig, Corpus, build_corpus, subset, swap_roles,
                                   toy_separator)
from confusionkit.training import TrainConfig, train_encoder

CORPUS = build_corpus(3, 4, ConfusionConfig(probability=0.5, leakage=0.03, noise_snr_db=25.0,
                                            seed=3), duration_s=1.0, seed=11)
ENC = init_encoder(16, seed=0)
PARAMS = PostFilterParams("linear", mu=0.6, lam=0.3)


def swapped(corpus):
    return Corpus([swap_roles(s) for s in corpus.samples], corpus.confusion)


def reseeded(corpus, seed):
    return replace(corpus, confusion=replace(corpus.confusion, seed=seed))


# Each prior call by name, applied to the corpus with the drawn arguments.
PRIOR = {
    "validation": lambda c: build_validation_records(c, ENC),
    "pipeline": lambda c, mu, lam: run_pipeline(c, ENC, PostFilterParams("linear", mu=mu,
                                                                          lam=lam)),
    "paired": lambda c, filtered: paired_eval_records(c, ENC, PARAMS if filtered else None),
    "swapped_validation": lambda c: build_validation_records(swapped(c), ENC),
    "reseeded": lambda c, seed: build_validation_records(reseeded(c, seed), ENC),
    "train": lambda c: train_encoder(c, TrainConfig(scheme="PL2", epochs=1, support_size=2)),
    "estimate_row": lambda c, i, swap: estimate_row(
        swap_roles(c.samples[i]) if swap else c.samples[i], c.confusion),
    "given_estimates": lambda c: build_validation_records(
        c, ENC, [toy_separator(s, c.confusion) for s in c.samples]),
}
TENTHS = st.integers(0, 20).map(lambda k: k / 10)
CALLS = st.one_of(
    st.just(("validation",)),
    st.tuples(st.just("pipeline"), TENTHS, TENTHS.map(lambda v: round(v - 1.0, 1))),
    st.tuples(st.just("paired"), st.booleans()),
    st.just(("swapped_validation",)),
    st.tuples(st.just("reseeded"), st.integers(4, 6)),
    st.just(("train",)),
    st.tuples(st.just("estimate_row"), st.integers(0, len(CORPUS.samples) - 1), st.booleans()),
    st.just(("given_estimates",)),
)


def outputs(corpus):
    return repr((build_validation_records(corpus, ENC), run_pipeline(corpus, ENC, PARAMS),
                 paired_eval_records(corpus, ENC), paired_eval_records(corpus, ENC, PARAMS)))


def role(records, k):
    names = ("si_sdri", "pi", "phi", "cos_tgt", "cos_int", "flagged", "confused")
    return [repr(tuple(getattr(r, f"{name}_{k}") for name in names)) for r in records]


@given(st.lists(CALLS, max_size=5))
@settings(max_examples=60, deadline=None)
def test_prior_calls_change_no_output(calls):
    corpus, fresh = copy.deepcopy(CORPUS), copy.deepcopy(CORPUS)
    for name, *args in calls:
        PRIOR[name](corpus, *args)
    assert outputs(corpus) == outputs(fresh)
    paired = paired_eval_records(corpus, ENC, PARAMS)
    other = paired_eval_records(swapped(corpus), ENC, PARAMS)
    assert role(paired, 2) == role(other, 1) and role(paired, 1) == role(other, 2)


def by_sample(corpus):
    """Each sample's validation, pipeline and unfiltered and filtered paired records."""
    return [repr(r) for r in zip(build_validation_records(corpus, ENC),
                                 run_pipeline(corpus, ENC, PARAMS), paired_eval_records(corpus, ENC),
                                 paired_eval_records(corpus, ENC, PARAMS))]


WARM = copy.deepcopy(CORPUS)
FULL = by_sample(WARM)


@given(st.lists(st.integers(0, len(CORPUS.samples) - 1), unique=True))
@settings(max_examples=40, deadline=None)
def test_subset_gets_the_full_corpus_records(positions):
    """Drawn positions are a permutation of a drawn subset; the subset is taken
    both from a corpus the full pass warmed and from a fresh deep copy."""
    expected = [FULL[i] for i in positions]
    assert by_sample(subset(WARM, positions)) == expected
    assert by_sample(subset(copy.deepcopy(CORPUS), positions)) == expected
