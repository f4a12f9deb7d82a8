"""The parts of a training step that replaced per-call numpy overhead,
each against the form it replaced.

The embedding gradient sums with bincount where the reference uses
np.add.at, the loss divides a sum where the reference takes a mean,
batches are slices of one gather per epoch where the reference
concatenates each batch's sentences, and each batch's embedding rows
come from one plan per epoch where the reference calls np.unique per
batch. The ReLU backward is a bitwise AND where the reference stores
through a boolean mask, the picked tags are one flat index where the
reference indexes with a tuple, and the log-softmax and the forward pass
run in place, so the ReLU backward reads the activations where the
reference reads their input. All must give the same bytes.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import synth
from conftest import corpus_of, sent
from nerprune import tagger
from nerprune.errors import DivergenceError
from nerprune.experiment import ExperimentConfig, Paths, build_bundle
from nerprune.pruning import PruneSchedule, PruneStrategy
from nerprune.tagger import (
    PAD_ID,
    TaggerConfig,
    _embedding_grad,
    _flat_picks,
    _forward,
    _log_softmax,
    _plan_rows,
    _zero_dead,
    build_vocab,
    encode_windows,
    init_model,
    load_model,
    save_model,
    train,
)
from oracles import oracle_embedding_grad, oracle_train
from test_tagger import toy_corpus
from test_train_step import _history_bytes, assert_matches_oracle

# signed zeros, the smallest subnormals, a subnormal near the normal
# range and the smallest normal, mixed with finite values small enough
# that no sum overflows (np.add.at would warn)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]
floats_st = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


def _cuts(draw, n):
    """Batch bounds 0 = c0 <= c1 <= ... = n, some batches empty."""
    inner = draw(st.lists(st.integers(0, n), max_size=4))
    return [0, *sorted(inner), n]


@st.composite
def gradient_terms(draw):
    d = draw(st.integers(1, 8))
    vocab_size = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    # few ids over many terms, so rows repeat
    flat_ids = draw(hnp.arrays(np.int64, n, elements=st.integers(0, vocab_size - 1)))
    gx = draw(hnp.arrays(np.float64, (n, d), elements=floats_st))
    return flat_ids, gx, vocab_size, _cuts(draw, n)


@settings(max_examples=400, deadline=None)
@given(gradient_terms())
# -0.0 alone sums to +0.0 from the 0.0 start; in input order
# (1.0 + 1e-16) - 1.0 is 0.0, where adding 1.0 and -1.0 first keeps the 1e-16
@example((np.array([3, 1, 3, 3]), np.array([[1.0], [-0.0], [1e-16], [-1.0]]), 4, [0, 4]))
def test_bincount_embedding_grad_has_the_bytes_of_add_at(case):
    """Over each batch's (rows, slot) from _plan_rows, with window width 1
    so entry i is window row i."""
    flat_ids, gx, vocab_size, cuts = case
    plan_rows, first, slots = _plan_rows(flat_ids[:, None], cuts, vocab_size)
    # the bins of the largest batch serve every batch, as in train
    max_rows = max(np.diff(first))
    bins = np.arange(max_rows * gx.shape[1]).reshape(max_rows, -1)
    for b, (a, c) in enumerate(zip(cuts[:-1], cuts[1:])):
        rows = plan_rows[first[b]:first[b + 1]]
        grad = _embedding_grad(slots[a:c], rows.size, gx[a:c], bins)
        full = oracle_embedding_grad(flat_ids[a:c], gx[a:c], vocab_size)
        assert rows.tolist() == sorted(set(flat_ids[a:c].tolist()))
        assert grad.shape == (rows.size, gx.shape[1])
        assert grad.tobytes() == full[rows].tobytes()


@st.composite
def epochs_of_windows(draw):
    """Window ids of sentences laid end to end (some empty, so some
    batches are), with pads at sentence edges and ids that repeat, cut
    into batches of batch_size sentences as train cuts an epoch. Small
    vocabs mostly take _plan_rows's counting route and large ones its
    np.unique route."""
    vocab_size = draw(st.integers(3, 8) | st.integers(9, 300))
    window = draw(st.integers(0, 2))
    batch_size = draw(st.integers(1, 4))
    ids = st.integers(2, vocab_size - 1)
    sentences = draw(st.lists(st.lists(ids, max_size=6), min_size=1, max_size=10))
    vocab = {f"t{i}": i for i in range(vocab_size)}
    encoded = encode_windows(vocab, window, corpus_of([
        sent([f"t{i}" for i in s], ["O"] * len(s)) for s in sentences]))
    n = len(sentences)
    firsts = np.minimum(np.arange(math.ceil(n / batch_size) + 1) * batch_size, n)
    return encoded.ids, encoded.offsets[firsts].tolist(), vocab_size


def _plan_rows_route(ids, bounds, vocab_size):
    """_plan_rows's result, and whether it took the counting route, that
    is, made no np.unique call."""
    with mock.patch.object(tagger.np, "unique", wraps=np.unique) as unique:
        plan = _plan_rows(ids, bounds, vocab_size)
    return plan, not unique.called


@settings(max_examples=300, deadline=None)
@given(epochs_of_windows())
@example((np.full((4, 3), PAD_ID, dtype=np.int64), [0, 0, 4], 3))
# a table of 2 * 10 keys against 4 * 5: the counting route at its bound
@example((np.array([[2], [3], [2], [9], [4]]), [0, 3, 5], 10))
# a table of 2 * 11 keys, past the bound: np.unique
@example((np.array([[2], [3], [2], [9], [4]]), [0, 3, 5], 11))
def test_epoch_row_plan_matches_per_batch_unique(case):
    ids, bounds, vocab_size = case
    k = ids.shape[1]
    (plan_rows, first, slots), counted = _plan_rows_route(ids, bounds, vocab_size)
    assert counted == ((len(bounds) - 1) * vocab_size <= 4 * ids.size)
    assert len(first) == len(bounds)
    assert slots.shape == (ids.size,)
    for b, (a, c) in enumerate(zip(bounds[:-1], bounds[1:])):
        rows, slot = np.unique(ids[a:c].reshape(-1), return_inverse=True)
        assert plan_rows[first[b]:first[b + 1]].tolist() == rows.tolist()
        assert slots[k * a:k * c].tolist() == slot.tolist()


@settings(max_examples=400, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 70), elements=floats_st))
def test_sum_over_n_has_the_bytes_of_mean(x):
    assert np.float64(-(x.sum() / len(x))).tobytes() == np.float64(-x.mean()).tobytes()


# every float the ReLU backward can meet, non-finite ones included
relu_floats_st = st.one_of(floats_st, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def relu_cases(draw):
    n = draw(st.integers(1, 40))
    return (draw(hnp.arrays(np.float64, n, elements=relu_floats_st)),
            draw(hnp.arrays(np.float64, n, elements=relu_floats_st)))


@settings(max_examples=400, deadline=None)
@given(relu_cases())
# a negative gradient at a dead unit: gh *= z1 > 0 would leave -0.0 there
@example((np.array([-1.5, 2.0, np.nan, -np.inf]), np.array([-1.0, 0.0, -0.0, -2.0])))
# NaN z1 is not <= 0, so its gradient stays, whatever it is
@example((np.array([-1.5, np.nan, np.inf]), np.array([np.nan, np.nan, np.nan])))
def test_relu_backward_has_the_bytes_of_the_mask_store(case):
    gh, z1 = case
    want = gh.copy()
    want[z1 <= 0.0] = 0.0
    got = gh.copy()
    _zero_dead(got, z1)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(relu_cases())
# np.maximum gives +-0.0 for -0.0 and a negative subnormal, keeps NaN and
# passes a positive subnormal through
@example((np.array([-1.5, 2.0, np.nan, 3.0, -np.inf]),
          np.array([-0.0, -5e-324, np.nan, 5e-324, -np.inf])))
def test_relu_backward_on_the_activations_has_the_bytes_of_the_mask_store(case):
    """The step passes _zero_dead the ReLU's output, not its input."""
    gh, z1 = case
    want = gh.copy()
    want[z1 <= 0.0] = 0.0
    got = gh.copy()
    _zero_dead(got, np.maximum(z1, 0.0))
    assert got.tobytes() == want.tobytes()


@st.composite
def picked_tags(draw):
    n, n_tags = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    return (draw(hnp.arrays(np.float64, (n, n_tags), elements=floats_st)),
            draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_tags - 1))))


@settings(max_examples=200, deadline=None)
@given(picked_tags())
def test_flat_picks_index_as_the_tuple_index(case):
    a, tags = case
    n, n_tags = a.shape
    picked = (np.arange(n), tags)
    flat = _flat_picks(tags, n_tags)
    assert a.take(flat).tobytes() == a[picked].tobytes()
    want, got = a.copy(), a.copy()
    want[picked] -= 1.0
    got.reshape(-1)[flat] -= 1.0
    assert got.tobytes() == want.tobytes()


# two quiet NaNs whose payloads and signs differ
NAN_A, NAN_B = np.array([0x7FF8000000000001, 0xFFF800000000BEEF], dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 12)),
                  elements=relu_floats_st))
@example(np.array([[0.0, -0.0, -40.0], [-0.0, -0.0, -800.0]]))
@example(np.array([[1.0, NAN_A, -2.0, NAN_B], [NAN_B, 0.0, NAN_A, 3.0], [1.0, 2.0, 3.0, 4.0]]))
@example(np.array([[np.inf, -np.inf, 0.0], [-np.inf, 5.0, np.inf], [1.0, -0.0, 0.0]]))
@example(np.array([[-np.inf, -np.inf, -np.inf], [-1.0, -np.inf, -2.0]]))
def test_in_place_log_softmax_has_the_bytes_of_the_shifted_form(scores):
    """The row max may take a NaN's payload from another entry than the
    reference does, so NaN is pinned by place; every other entry, and
    every entry of an input without NaN, has the reference's bytes."""
    with np.errstate(all="ignore"):
        shifted = scores - scores.max(axis=1, keepdims=True)
        want = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        got = _log_softmax(scores.copy())
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    if not np.isnan(scores).any():
        assert got.tobytes() == want.tobytes()


GATHER_CONFIG = TaggerConfig(
    embed_dim=5, window=1, hidden_dim=7, learning_rate=0.5,
    epochs=4, batch_size=3, seed=2,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_score_stops_training_at_the_reference_step():
    """A NaN embedding row for a token of one late sentence makes its
    batch's scores NaN; training stops at the step where the reference,
    which takes each row max along the row, first reads a NaN loss."""
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    config = replace(GATHER_CONFIG, batch_size=1)
    models = [init_model(config, vocab) for _ in range(2)]
    for model in models:
        model.params["E"].values[vocab["nothing"]] = np.nan
    expected = oracle_train(models[1], corpus, None, PruneStrategy.PARTIAL)
    step = next(s.step for s in expected if math.isnan(s.loss))
    assert step > 1
    with pytest.raises(DivergenceError, match=f"at step {step}: loss nan"):
        train(models[0], corpus)


def test_tag_picks_are_built_once_per_epoch():
    """No per-step fixed cost creeps back: train makes one _flat_picks
    call per epoch, however many steps the epoch has."""
    corpus = toy_corpus()
    config = replace(GATHER_CONFIG, batch_size=1)
    model = init_model(config, build_vocab(corpus))
    with mock.patch.object(tagger, "_flat_picks", wraps=tagger._flat_picks) as picks:
        _, history = train(model, corpus)
    assert len(history) == config.epochs * len(corpus)
    assert picks.call_count == config.epochs


def test_forward_pass_has_the_bytes_of_the_unfused_form():
    corpus = toy_corpus()
    model = init_model(GATHER_CONFIG, build_vocab(corpus))
    ids = encode_windows(model.vocab, GATHER_CONFIG.window, corpus).ids
    p = {name: tensor.values for name, tensor in model.params.items()}
    x = p["E"][ids.reshape(-1)].reshape(len(ids), -1)
    h = np.maximum(x @ p["W1"] + p["b1"], 0.0)
    want = (x, h, h @ p["W2"] + p["b2"])
    got = _forward(model.params, ids)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _with_empties(slots):
    """toy_corpus's 5 sentences with an empty one at each of slots, the
    positions in the result."""
    rows = list(toy_corpus().sentences)
    return corpus_of([sent([], []) if i in slots else rows.pop(0)
                      for i in range(len(rows) + len(slots))], split="train")


@pytest.mark.parametrize("batch_size, slots", [
    (64, ()),         # one batch holds every sentence
    (2, ()),          # the last of 3 batches has one sentence
    (3, (0,)),        # first
    (3, (2, 3)),      # two side by side in the middle
    (1, (5,)),        # last; batch_size 1 gives empty batches
    (4, (0, 3, 7)),   # first, middle and last
])
@pytest.mark.parametrize("strategy", list(PruneStrategy))
def test_epoch_gather_matches_the_dense_step(batch_size, slots, strategy):
    corpus = _with_empties(slots)
    config = replace(GATHER_CONFIG, batch_size=batch_size)
    vocab = build_vocab(corpus)
    steps = config.epochs * math.ceil(len(corpus) / batch_size)
    schedule = PruneSchedule(1, 1 + 2 * (steps // 3), steps // 3, 0.6)
    assert_matches_oracle(lambda: init_model(config, vocab), corpus, schedule, strategy)


@pytest.mark.parametrize("strategy", list(PruneStrategy))
def test_multilingual_bundle_matches_the_dense_step(strategy):
    trains, tests, _ = synth.build_world()
    config = ExperimentConfig(
        mode="multilingual", languages=synth.LANGUAGES, sparsity_levels=(0,),
        seeds=(0,), perturbation_seed=0, paths=Paths("c", "m", "o"), scopes=(),
        tagger=TaggerConfig(embed_dim=6, window=1, hidden_dim=8,
                            learning_rate=0.4, epochs=2, batch_size=16),
    )
    bundle = build_bundle(config, synth.LANGUAGES, trains, tests, {})
    sentences = [trains[language] for language in synth.LANGUAGES]
    n_sentences = sum(len(corpus) for corpus in sentences)
    assert len(bundle.train.offsets) - 1 == n_sentences
    schedule = PruneSchedule(10, 150, 20, 0.8)

    model, history = train(init_model(config.tagger, bundle.train.vocab),
                           bundle.train, schedule=schedule, strategy=strategy)
    reference = init_model(config.tagger, bundle.train.vocab)
    expected = oracle_train(reference, sentences, schedule, strategy)
    assert _history_bytes(history) == _history_bytes(expected)
    for name, tensor in model.params.items():
        assert tensor.values.tobytes() == reference.params[name].values.tobytes(), name
        assert tensor.mask.tobytes() == reference.params[name].mask.tobytes(), name


@pytest.mark.parametrize("strategy", list(PruneStrategy))
def test_training_twice_and_reloading_keeps_the_oracle_bytes(strategy, tmp_path):
    """A second train call starts from dense tensors that are views of
    the first call's flat array; the checkpoint it leaves reloads to the
    bytes of the reference."""
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    model = init_model(GATHER_CONFIG, vocab)
    reference = init_model(GATHER_CONFIG, vocab)
    # the second call's one event adds masks to those of the first
    for schedule in (PruneSchedule(2, 8, 2, 0.7), PruneSchedule(4, 4, 1, 0.8)):
        model, history = train(model, corpus, schedule=schedule, strategy=strategy)
        expected = oracle_train(reference, corpus, schedule, strategy)
        assert _history_bytes(history) == _history_bytes(expected)
    assert model.params["W1"].values.base is model.params["b2"].values.base is not None

    save_model(tmp_path / "model", model)
    save_model(tmp_path / "reference", reference)
    for path in sorted((tmp_path / "reference").iterdir()):
        assert (tmp_path / "model" / path.name).read_bytes() == path.read_bytes(), path.name
    loaded = load_model(tmp_path / "model")
    for name, tensor in loaded.params.items():
        want = reference.params[name]
        assert tensor.values.tobytes() == want.values.tobytes(), name
        assert tensor.mask.tobytes() == want.mask.tobytes(), name
