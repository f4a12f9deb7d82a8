import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, sent
from oracles import oracle_encode_sentence, oracle_predict
from nerprune.corpus import TAGSET
from nerprune.errors import CheckpointError, ConfigError, ScheduleError
from nerprune import tagger
from nerprune.pruning import PruneSchedule, PruneStrategy, Role, measure_sparsity
from nerprune.tagger import (
    PAD_ID,
    PREDICT_CHUNK,
    UNK_ID,
    TaggerConfig,
    _distinct_rows,
    build_vocab,
    encode_sentence,
    encode_windows,
    grad_check,
    init_model,
    load_model,
    predict,
    predict_ids,
    save_model,
    train,
)

SMALL = TaggerConfig(
    embed_dim=8, window=1, hidden_dim=16, learning_rate=1.0,
    epochs=60, batch_size=4, seed=0,
)


def toy_corpus(split="train"):
    rows = [
        (["ada", "went", "to", "oslo"], ["B-PER", "O", "O", "B-LOC"]),
        (["bo", "visited", "acme", "corp"], ["B-PER", "O", "B-ORG", "I-ORG"]),
        (["oslo", "likes", "ada"], ["B-LOC", "O", "B-PER"]),
        (["acme", "corp", "hired", "bo"], ["B-ORG", "I-ORG", "O", "B-PER"]),
        (["nothing", "happened"], ["O", "O"]),
    ]
    return corpus_of([sent(t, g) for t, g in rows], split=split)


def fitted(config=SMALL, schedule=None, strategy=PruneStrategy.PARTIAL):
    corpus = toy_corpus()
    model = init_model(config, build_vocab(corpus))
    return train(model, corpus, schedule=schedule, strategy=strategy)


def test_config_validation():
    for kwargs in (
        {"embed_dim": 0}, {"window": -1}, {"learning_rate": 0.0},
        {"epochs": 0}, {"batch_size": 0}, {"seed": -1}, {"vocab_min_count": 0},
    ):
        with pytest.raises(ConfigError):
            TaggerConfig(**kwargs)


def test_vocab_reserves_sentinels_and_orders_by_frequency():
    corpus = corpus_of(
        [sent(["b", "a", "a", "c", "c"], ["O"] * 5)], split="train"
    )
    vocab = build_vocab(corpus)
    assert vocab["<unk>"] == UNK_ID
    assert vocab["<pad>"] == PAD_ID
    assert vocab["a"] == 2 and vocab["c"] == 3 and vocab["b"] == 4


def test_vocab_min_count_filters_rare_tokens():
    corpus = corpus_of([sent(["a", "a", "b"], ["O"] * 3)], split="train")
    vocab = build_vocab(corpus, min_count=2)
    assert "a" in vocab and "b" not in vocab


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["b", "a", "B", "é", "ab", "<unk>", "<pad>"]),
                         max_size=6), max_size=8),
       st.integers(1, 3))
def test_vocab_order_is_count_then_token(rows, min_count):
    corpus = corpus_of([sent(row, ["O"] * len(row)) for row in rows], split="train")
    counts = {}
    for token in (token for row in rows for token in row):
        counts[token] = counts.get(token, 0) + 1
    kept = sorted((token for token, count in counts.items()
                   if count >= min_count and token not in ("<unk>", "<pad>")),
                  key=lambda token: (-counts[token], token))
    assert list(build_vocab(corpus, min_count).items()) == [
        ("<unk>", UNK_ID), ("<pad>", PAD_ID), *((token, i) for i, token in enumerate(kept, 2))]


def test_init_is_seed_deterministic_and_role_tagged():
    vocab = build_vocab(toy_corpus())
    m1 = init_model(SMALL, vocab)
    m2 = init_model(SMALL, vocab)
    for name in ("E", "W1", "b1", "W2", "b2"):
        assert (m1.params[name].values == m2.params[name].values).all()
    assert m1.params["E"].role is Role.EMBEDDING
    assert m1.params["W1"].role is Role.DENSE
    assert m1.params["W2"].role is Role.DENSE
    assert m1.params["b1"].role is Role.EXCLUDED
    assert m1.params["b2"].role is Role.EXCLUDED
    assert m1.params["E"].shape == (len(vocab), SMALL.embed_dim)
    assert m1.params["W1"].shape == (3 * SMALL.embed_dim, SMALL.hidden_dim)
    assert m1.params["W2"].shape == (SMALL.hidden_dim, len(TAGSET))
    assert (m1.params["b1"].values == 0).all()


def test_init_rejects_broken_vocab():
    with pytest.raises(ConfigError, match="<unk>"):
        init_model(SMALL, {"<pad>": 0, "<unk>": 1})
    with pytest.raises(ConfigError, match="contiguous"):
        init_model(SMALL, {"<unk>": 0, "<pad>": 1, "a": 5})


def test_encode_pads_window_edges_and_maps_oov():
    model = init_model(SMALL, {"<unk>": 0, "<pad>": 1, "ada": 2})
    ids, tags = encode_sentence(model, sent(["ada", "mystery"], ["B-PER", "O"]))
    assert ids.tolist() == [[PAD_ID, 2, UNK_ID], [2, UNK_ID, PAD_ID]]
    assert tags.tolist() == [1, 0]


# "zz" and "qq" are out of vocabulary
token_st = st.sampled_from(["ada", "oslo", "acme", "zz", "qq"])
sentence_st = st.lists(st.tuples(token_st, st.sampled_from(TAGSET)), max_size=5).map(
    lambda pairs: sent([t for t, _ in pairs], [g for _, g in pairs]))


@settings(max_examples=150, deadline=None)
@given(window=st.integers(0, 3), sentences=st.lists(sentence_st, max_size=8))
def test_encode_windows_matches_the_per_sentence_loop(window, sentences):
    config = TaggerConfig(embed_dim=2, window=window, hidden_dim=2)
    model = init_model(config, {"<unk>": 0, "<pad>": 1, "ada": 2, "oslo": 3, "acme": 4})
    encoded = encode_windows(model.vocab, window, corpus_of(sentences))
    ids, tags, offsets = encoded.ids, encoded.tags, encoded.offsets
    expected = [oracle_encode_sentence(model, s) for s in sentences]
    assert offsets.tolist() == np.cumsum([0] + [len(s) for s in sentences]).tolist()
    assert ids.dtype == tags.dtype == np.int64
    assert ids.shape == (len(tags), 2 * window + 1)
    for i, (want_ids, want_tags) in enumerate(expected):
        assert np.array_equal(ids[offsets[i]:offsets[i + 1]], want_ids)
        assert np.array_equal(tags[offsets[i]:offsets[i + 1]], want_tags)
    if sentences:
        one_ids, one_tags = encode_sentence(model, sentences[0])
        assert np.array_equal(one_ids, expected[0][0])
        assert np.array_equal(one_tags, expected[0][1])


# ids drawn from a few values per example (with <unk> and <pad>), so rows
# repeat. At window 2 a key packing a whole row, vocab ** 5, does not fit
# in int64: at vocab 2**16 its first id is multiplied by 2**64, which
# wraps to 0, so rows that differ only there would share a key
@settings(max_examples=200, deadline=None)
@example(window=2, vocab_size=2**16, data=None)
@example(window=2, vocab_size=10**5, data=None)
@given(window=st.sampled_from([0, 1, 2]), vocab_size=st.integers(2, 10**5), data=st.data())
def test_distinct_rows_are_distinct_and_give_the_ids_back(window, vocab_size, data):
    k = 2 * window + 1
    if data is None:  # the largest ids, repeats, and rows that differ in one id
        top = vocab_size - 1
        ids = np.array([[top] * k, [top] * k, [UNK_ID] * k,
                        [PAD_ID, *[top] * (k - 1)], [UNK_ID, *[top] * (k - 1)]])
    else:
        values = data.draw(st.lists(st.integers(0, vocab_size - 1), max_size=3))
        value_st = st.sampled_from([UNK_ID, PAD_ID, *values])
        rows = data.draw(st.lists(st.lists(value_st, min_size=k, max_size=k), max_size=30))
        ids = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    rows, inverse = _distinct_rows(ids, vocab_size)
    assert rows.dtype == inverse.dtype == np.int64
    assert rows.shape[1] == k and inverse.shape == (len(ids),)
    assert np.array_equal(rows[inverse], ids)
    assert len(set(map(tuple, rows.tolist()))) == len(rows)


def test_predict_matches_per_sentence_prediction_across_chunks():
    # 150 random 10-token sentences over 150 tokens give more distinct
    # windows than two chunks; each appears twice, and the toy sentences
    # 40 times, so most windows repeat
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(150)]
    drawn = [sent(rng.choice(words, 10).tolist(), ["O"] * 10) for _ in range(150)]
    rows = [s for _ in range(40) for s in toy_corpus()] + drawn + drawn
    rows.append(sent(["oslo"], ["B-LOC"]))
    # empty sentences first, last, and where the rows pass each chunk edge
    lengths = np.cumsum([len(s) for s in rows])
    edges = [0, len(rows)] + [int(np.searchsorted(lengths, PREDICT_CHUNK * c)) for c in (1, 2)]
    for edge in sorted(edges, reverse=True):
        rows.insert(edge, sent([], []))
    big = corpus_of(rows)
    model = init_model(SMALL, build_vocab(big))
    ids = encode_windows(model.vocab, SMALL.window, big).ids
    distinct = len(np.unique(ids, axis=0))
    assert 2 * PREDICT_CHUNK < distinct < len(ids) / 1.5
    predictions = predict(model, big)
    assert predictions == oracle_predict(model, big)
    assert len({tag for labels in predictions for tag in labels}) > 1
    assert predict(model, corpus_of([])) == oracle_predict(model, corpus_of([])) == []


def test_an_encoded_set_finds_its_distinct_windows_once(monkeypatch):
    corpus = toy_corpus()
    model = init_model(SMALL, build_vocab(corpus))
    calls = []

    def counted(*args):
        calls.append(args)
        return _distinct_rows(*args)

    monkeypatch.setattr(tagger, "_distinct_rows", counted)
    encoded = encode_windows(model.vocab, SMALL.window, corpus)
    first = predict_ids(model, encoded)
    trained, _ = train(init_model(SMALL, model.vocab), encoded)
    assert np.array_equal(predict_ids(model, encoded), first)
    assert len(calls) == 1
    assert not np.array_equal(predict_ids(trained, encoded), first)
    assert len(calls) == 1
    # the cached rows stay those of the ids because the ids cannot change
    with pytest.raises(ValueError, match="read-only"):
        encoded.ids[0, 0] = PAD_ID


def test_predict_ids_refuses_ids_of_another_vocab_or_window():
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    model = init_model(SMALL, vocab)
    # an equal copy of the vocab (as the grid's bundle holds) is accepted
    assert model.vocab is not vocab
    expected = predict_ids(model, encode_windows(model.vocab, SMALL.window, corpus))
    assert np.array_equal(predict_ids(model, encode_windows(vocab, SMALL.window, corpus)),
                          expected)
    with pytest.raises(ConfigError, match="another vocab or window"):
        predict_ids(model, encode_windows(vocab, SMALL.window + 1, corpus))
    # "oslo" gets an id past the model's embedding table
    bigger = {**vocab, "oslo": len(vocab)}
    with pytest.raises(ConfigError, match="another vocab or window"):
        predict_ids(model, encode_windows(bigger, SMALL.window, corpus))


def test_gradients_match_finite_differences():
    corpus = toy_corpus()
    model = init_model(SMALL, build_vocab(corpus))
    err = grad_check(model, corpus.sentences[0], samples_per_tensor=40)
    assert err is not None and err < 1e-4


def test_grad_check_restores_weights():
    corpus = toy_corpus()
    model = init_model(SMALL, build_vocab(corpus))
    before = {n: p.values.copy() for n, p in model.params.items()}
    grad_check(model, corpus.sentences[0], samples_per_tensor=10)
    for name, copy in before.items():
        assert (model.params[name].values == copy).all()


def test_loss_decreases_and_model_memorizes():
    model, history = fitted()
    assert history[-1].loss < history[0].loss
    corpus = toy_corpus()
    predictions = predict(model, corpus)
    assert predictions == [list(s.tags) for s in corpus]


def test_training_is_deterministic():
    _, h1 = fitted()
    _, h2 = fitted()
    assert [(s.step, s.loss) for s in h1] == [(s.step, s.loss) for s in h2]


def test_history_steps_count_epochs_times_batches():
    _, history = fitted()
    assert len(history) == SMALL.epochs * 2
    assert [s.step for s in history[:3]] == [1, 2, 3]


def test_train_rejects_empty_data_and_oversized_schedule():
    model = init_model(SMALL, {"<unk>": 0, "<pad>": 1})
    with pytest.raises(ConfigError, match="no sentences"):
        train(model, corpus_of([], split="train"))
    with pytest.raises(ConfigError, match="no sentences"):
        train(model, encode_windows(model.vocab, SMALL.window, corpus_of([], split="train")))
    corpus = toy_corpus()
    model = init_model(SMALL, build_vocab(corpus))
    too_long = PruneSchedule(0, 10_000, 100, 0.5)
    with pytest.raises(ScheduleError, match="runs 120 updates"):
        train(model, corpus, schedule=too_long)


def test_pre_encoded_training_set_trains_the_same_model():
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    arrays = encode_windows(vocab, SMALL.window, corpus)
    schedule = PruneSchedule(10, 60, 10, 0.5)
    models = []
    for data in (corpus, arrays, arrays):
        model = init_model(SMALL, vocab)
        models.append(train(model, data, schedule=schedule,
                            strategy=PruneStrategy.INCL_EMBEDDINGS))
    (first, h1), *rest = models
    for model, history in rest:
        assert history == h1
        for name, tensor in model.params.items():
            assert tensor.values.tobytes() == first.params[name].values.tobytes()
            assert np.array_equal(tensor.mask, first.params[name].mask)


def test_pre_encoded_training_set_must_match_vocab_and_window():
    corpus = toy_corpus()
    vocab = build_vocab(corpus)
    model = init_model(SMALL, vocab)
    with pytest.raises(ConfigError, match="another vocab or window"):
        train(model, encode_windows(vocab, SMALL.window + 1, corpus))
    with pytest.raises(ConfigError, match="another vocab or window"):
        train(model, encode_windows({**vocab, "extra": len(vocab)}, SMALL.window, corpus))


def test_scheduled_pruning_reaches_target_and_masks_stick():
    schedule = PruneSchedule(4, 20, 4, 0.5)
    model, history = fitted(schedule=schedule)
    assert history[-1].sparsity == 0.5
    assert all(step.max_abs_masked == 0.0 for step in history)
    sparsities = [step.sparsity for step in history]
    assert sparsities == sorted(sparsities)
    assert sparsities[2] == 0.0
    tensors = model.param_list
    assert measure_sparsity(tensors, PruneStrategy.PARTIAL) == 0.5
    assert (model.params["E"].mask == 1).all()


def test_incl_embeddings_training_masks_the_embedding_table():
    schedule = PruneSchedule(4, 20, 4, 0.5)
    model, _ = fitted(schedule=schedule, strategy=PruneStrategy.INCL_EMBEDDINGS)
    assert measure_sparsity(model.param_list, PruneStrategy.INCL_EMBEDDINGS) == 0.5
    assert (model.params["E"].mask == 0).any()


def test_joint_training_accepts_multiple_corpora():
    first = toy_corpus()
    second = corpus_of(
        [sent(["lima", "shone"], ["B-LOC", "O"], "yy")], "yy", "train"
    )
    vocab = build_vocab([first, second])
    assert "lima" in vocab
    model = init_model(SMALL, vocab)
    model, history = train(model, [first, second])
    assert len(history) == SMALL.epochs * 2
    assert predict(model, corpus_of([sent(["lima"], ["O"], "yy")], "yy"))


def test_predict_breaks_ties_toward_o():
    model = init_model(SMALL, {"<unk>": 0, "<pad>": 1})
    for name in ("E", "W1", "b1", "W2", "b2"):
        model.params[name].values[:] = 0.0
    predictions = predict(model, corpus_of([sent(["a", "b"], ["O", "O"])]))
    assert predictions == [["O", "O"]]


def test_model_round_trip(tmp_path):
    model, _ = fitted(schedule=PruneSchedule(4, 20, 4, 0.5))
    save_model(tmp_path / "m", model)
    loaded = load_model(tmp_path / "m")
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    for name in ("E", "W1", "b1", "W2", "b2"):
        assert (loaded.params[name].values == model.params[name].values).all()
        assert (loaded.params[name].mask == model.params[name].mask).all()
    corpus = toy_corpus(split="test")
    assert predict(loaded, corpus) == predict(model, corpus)


@pytest.mark.parametrize("extra", [
    ["naïve", "東京", 'say "hi"', "back\\slash", "tab\there", "\x00\x1f\x7f", "\u2028", "😀"],
    [],
])
def test_sidecar_bytes_are_those_of_json_dump(tmp_path, extra):
    """model.json holds exactly what json.dump(indent=2, sort_keys=True)
    writes, for escapes, non-ASCII text and the two reserved tokens
    alone."""
    vocab = {"<unk>": 0, "<pad>": 1}
    for token in extra:
        vocab[token] = len(vocab)
    model = init_model(TaggerConfig(embed_dim=2, hidden_dim=3), vocab)
    save_model(tmp_path / "m", model)
    sidecar = {
        "config": dataclasses.asdict(model.config),
        "tagset": list(TAGSET),
        "vocab_tokens": list(vocab),
    }
    with open(tmp_path / "want.json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    assert ((tmp_path / "m" / "model.json").read_bytes()
            == (tmp_path / "want.json").read_bytes())


def test_load_model_validates_sidecar(tmp_path):
    model, _ = fitted()
    save_model(tmp_path / "m", model)
    sidecar = tmp_path / "m" / "model.json"
    text = sidecar.read_text().replace('"<unk>"', '"<oov>"')
    sidecar.write_text(text)
    with pytest.raises(CheckpointError, match="<unk>"):
        load_model(tmp_path / "m")
    with pytest.raises(CheckpointError, match="no model sidecar"):
        load_model(tmp_path)


@pytest.mark.parametrize("name, role", [("W2", "excluded"), ("E", "dense"), ("b1", "dense")])
def test_load_model_refuses_a_tensor_of_another_role(tmp_path, name, role):
    # the manifest names each tensor's role; the tagger's own table decides
    model, _ = fitted()
    save_model(tmp_path / "m", model)
    manifest_path = tmp_path / "m" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry, = (e for e in manifest["tensors"] if e["name"] == name)
    want = entry["role"]
    entry["role"] = role
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=(
            f"^{name}: role '{role}' in the checkpoint, "
            f"but the tagger's {name} is '{want}'$")):
        load_model(tmp_path / "m")
