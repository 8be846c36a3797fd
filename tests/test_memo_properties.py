"""Memo invariants, drawn by Hypothesis: whatever scoring, evaluation and
training calls a corpus object went through before, its validation, pipeline
and paired records equal those of a fresh deep copy, and role 2 of paired
evaluation is role 1 of the corpus rebuilt with swap_roles."""

import copy
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from confusionkit.embedding import init_encoder
from confusionkit.evaluate import paired_eval_records
from confusionkit.postfilter import (PostFilterParams, build_validation_records, estimate_row,
                                     run_pipeline, score_corpus)
from confusionkit.simulate import ConfusionConfig, Corpus, build_corpus, swap_roles
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
    "score_swapped": lambda c: list(score_corpus(swapped(c).samples, c.confusion, ENC)),
    "reseeded": lambda c, seed: build_validation_records(reseeded(c, seed), ENC),
    "train": lambda c: train_encoder(c, TrainConfig(scheme="PL2", epochs=1, support_size=2)),
    "estimate_row": lambda c, i, swap: estimate_row(
        swap_roles(c.samples[i]) if swap else c.samples[i], c.confusion),
}
TENTHS = st.integers(0, 20).map(lambda k: k / 10)
CALLS = st.one_of(
    st.just(("validation",)),
    st.tuples(st.just("pipeline"), TENTHS, TENTHS.map(lambda v: round(v - 1.0, 1))),
    st.tuples(st.just("paired"), st.booleans()),
    st.just(("score_swapped",)),
    st.tuples(st.just("reseeded"), st.integers(4, 6)),
    st.just(("train",)),
    st.tuples(st.just("estimate_row"), st.integers(0, len(CORPUS.samples) - 1), st.booleans()),
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
