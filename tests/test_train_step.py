"""The O(batch) training step against the dense reference step.

train updates, re-masks and re-checks only the embedding rows a batch
reads and measures sparsity only when masks change; oracles.oracle_train
does every step in full over every tensor. Both must leave the same
bytes: values (so -0.0 counts), masks and the whole TrainStep history.
"""

import math

import numpy as np
import pytest

import synth
from conftest import corpus_of, sent
from nerprune.corpus import TAGSET
from nerprune.errors import DivergenceError
from nerprune.pruning import ParamTensor, PruneSchedule, PruneStrategy, Role
from nerprune.tagger import (
    TaggerConfig,
    _masked_row_max,
    _max_abs_masked,
    build_vocab,
    init_model,
    train,
)
from oracles import oracle_train
from test_tagger import toy_corpus

C05_CONFIG = TaggerConfig(
    embed_dim=8, window=1, hidden_dim=16, learning_rate=0.5,
    epochs=30, batch_size=4, seed=3,
)
C09_CONFIG = TaggerConfig(
    embed_dim=20, window=1, hidden_dim=10, learning_rate=0.4,
    epochs=25, batch_size=16, seed=11,
)


def _history_bytes(history):
    return [
        (s.step, *(np.float64(v).tobytes()
                   for v in (s.loss, s.sparsity, s.max_abs_masked)))
        for s in history
    ]


def assert_matches_oracle(make_model, data, schedule, strategy, ramp="cubic"):
    model, history = train(
        make_model(), data, schedule=schedule, strategy=strategy, ramp=ramp
    )
    reference = make_model()
    expected = oracle_train(reference, data, schedule, strategy, ramp)
    assert _history_bytes(history) == _history_bytes(expected)
    for name, tensor in model.params.items():
        want = reference.params[name]
        assert tensor.values.tobytes() == want.values.tobytes(), name
        assert tensor.mask.tobytes() == want.mask.tobytes(), name


@pytest.mark.parametrize("schedule, strategy, ramp", [
    (PruneSchedule(5, 45, 5, 0.7), PruneStrategy.PARTIAL, "cubic"),
    (PruneSchedule(0, 60, 10, 0.9), PruneStrategy.PARTIAL, "linear"),
    (PruneSchedule(10, 40, 15, 0.5), PruneStrategy.INCL_EMBEDDINGS, "cubic"),
    (PruneSchedule(30, 30, 1, 0.98), PruneStrategy.INCL_EMBEDDINGS, "linear"),
])
def test_c05_configs_match_the_dense_step(schedule, strategy, ramp):
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    assert_matches_oracle(
        lambda: init_model(C05_CONFIG, vocab), corpus, schedule, strategy, ramp
    )


@pytest.mark.parametrize("strategy", list(PruneStrategy))
def test_c09_config_matches_the_dense_step(strategy):
    trains, _, _ = synth.build_world()
    data = [trains[lang] for lang in synth.LANGUAGES]
    vocab = build_vocab(data)
    assert_matches_oracle(
        lambda: init_model(C09_CONFIG, vocab), data,
        PruneSchedule(200, 1000, 100, 0.98), strategy,
    )


def _zipf_corpus(rng, n_sentences=60, n_types=150):
    weights = 1.0 / np.arange(1, n_types + 1)
    weights /= weights.sum()
    sentences = [sent([], [])]  # an empty sentence; alone it is an empty batch
    for _ in range(n_sentences):
        length = int(rng.integers(1, 13))
        ids = rng.choice(n_types, size=length, p=weights)
        tags = rng.integers(0, len(TAGSET), size=length)
        sentences.append(sent([f"z{i}" for i in ids], [TAGSET[t] for t in tags]))
    return corpus_of(sentences, split="train")


@pytest.mark.parametrize("strategy, batch_size, premask", [
    (PruneStrategy.INCL_EMBEDDINGS, 4, False),
    (PruneStrategy.INCL_EMBEDDINGS, 1, True),
    (PruneStrategy.PARTIAL, 1, False),
    (PruneStrategy.PARTIAL, 4, True),
])
def test_zipfian_config_matches_the_dense_step(strategy, batch_size, premask):
    """Repeated ids in a batch, window pads, rare tokens as <unk>, an
    empty sentence, and optionally embedding entries masked up front
    with their values still in place."""
    rng = np.random.default_rng([1709, batch_size])
    corpus = _zipf_corpus(rng)
    vocab = build_vocab(corpus, min_count=2)
    config = TaggerConfig(
        embed_dim=6, window=2, hidden_dim=12, learning_rate=0.3,
        epochs=3, batch_size=batch_size, seed=5,
    )
    premasked = rng.random((len(vocab), config.embed_dim)) < 0.1

    def make_model():
        model = init_model(config, vocab)
        if premask:
            model.params["E"].mask[premasked] = 0
        return model

    steps = config.epochs * math.ceil(len(corpus) / batch_size)
    if premask:
        # one event: a ramp's first target, 0, is below the pre-masked count
        schedule = PruneSchedule(steps // 2, steps // 2, 1, 0.9)
    else:
        schedule = PruneSchedule(2, 2 + 10 * (steps // 20), steps // 20, 0.9)
    assert_matches_oracle(make_model, corpus, schedule, strategy)


def test_masked_nan_makes_the_check_nan_and_stays():
    tensor = ParamTensor(
        "W", np.array([[1.0, 2.0], [3.0, np.nan]]), Role.DENSE,
        np.array([[1, 0], [1, 0]]),
    )
    assert np.isnan(_max_abs_masked([tensor]))
    tensor.values[1, 1] = 0.0
    assert _max_abs_masked([tensor]) == 2.0

    emb = np.array([[0.0, np.nan], [0.5, 0.0], [4.0, 0.0]])
    mask = np.array([[1, 0], [1, 0], [1, 1]], dtype=np.uint8)
    rows_worst = _masked_row_max(emb, mask)
    assert np.isnan(_max_abs_masked([], rows_worst))
    # a later step re-checks only the rows it touched; row 0 keeps its NaN
    rows = np.array([1, 2])
    rows_worst[rows] = _masked_row_max(emb[rows], mask[rows])
    assert np.isnan(_max_abs_masked([], rows_worst))


def test_training_stops_at_a_nan_masked_weight():
    corpus = toy_corpus()
    model = init_model(C05_CONFIG, build_vocab(corpus))
    emb = model.params["E"]
    emb.values[-1, 0] = np.nan
    emb.mask[-1, 0] = 0
    with pytest.raises(DivergenceError, match="at step 1:"):
        train(model, corpus)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_stops_at_a_non_finite_loss():
    corpus = toy_corpus()
    config = TaggerConfig(
        embed_dim=8, hidden_dim=16, learning_rate=1e4, epochs=30, batch_size=2,
    )
    model = init_model(config, build_vocab(corpus))
    with pytest.raises(DivergenceError, match=r"at step \d+: loss nan"):
        train(model, corpus, schedule=PruneSchedule(2, 10, 2, 0.5))
