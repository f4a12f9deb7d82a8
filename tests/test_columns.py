"""A corpus is columns: the hot paths read them without building the
per-sentence view, and a corpus built from columns equals one built from
Sentence objects, zero-length sentences included."""

from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from conftest import corpus_of, sent
from nerprune.corpus import (
    ENTITY_TYPES,
    TAG_IDS,
    TAGSET,
    Corpus,
    count_mentions,
    decode_spans,
    entity_overlap,
    parse_iob2,
    serialize_iob2,
)
from nerprune.evaluation import score_corpus
from nerprune.experiment import ExperimentConfig, Paths, build_bundle, build_perturbed
from nerprune.perturb import SCOPE_NAMES, Scope, build_pool, perturb_corpus
from nerprune.tagger import TaggerConfig, build_vocab, encode_windows, init_model, predict


def _unbuilt(*corpora):
    return not any("sentences" in vars(corpus) for corpus in corpora)


def test_hot_paths_do_not_build_sentences():
    def parsed(corpus):
        return parse_iob2(serialize_iob2(corpus), corpus.language, corpus.split)

    trains, tests, _ = synth.build_world()
    trains = {language: parsed(c) for language, c in trains.items()}
    tests = {language: parsed(c) for language, c in tests.items()}
    corpora = [*trains.values(), *tests.values()]
    assert _unbuilt(*corpora)

    pool = build_pool(list(tests.values()), synth.META, Scope.IN_SCRIPT, "Synth")
    out, _ = perturb_corpus(tests["l1"], pool, 0)
    assert _unbuilt(*corpora, out)
    vocab = build_vocab(list(trains.values()))
    assert _unbuilt(*corpora)
    assert entity_overlap(trains["l1"], tests["l1"]) is not None
    assert _unbuilt(*corpora)

    config = ExperimentConfig(
        mode="multilingual", languages=synth.LANGUAGES, sparsity_levels=(0,),
        seeds=(0,), perturbation_seed=0, paths=Paths("c", "m", "o"), scopes=SCOPE_NAMES,
        tagger=TaggerConfig(embed_dim=4, window=1, hidden_dim=4, epochs=1),
    )
    perturbed = build_perturbed(synth.META, tests, synth.LANGUAGES, SCOPE_NAMES, 0)
    build_bundle(config, synth.LANGUAGES, trains, tests, perturbed)
    corpora += [corpus for corpus, _ in perturbed.values()]
    assert _unbuilt(*corpora)

    model = init_model(config.tagger, vocab)
    predicted = predict(model, out)
    assert _unbuilt(*corpora, out)
    score_corpus(out, predicted)
    assert _unbuilt(*corpora, out)


token_st = st.sampled_from(["ada", "oslo", "acme", "zz"])
rows_st = st.lists(st.lists(st.tuples(token_st, st.sampled_from(TAGSET)), max_size=4),
                   max_size=6)


@settings(max_examples=150, deadline=None)
@given(rows=rows_st, window=st.integers(0, 2))
def test_columns_and_sentences_give_the_same_corpus(rows, window):
    # rows may be empty: zero-length sentences
    sentences = tuple(sent([t for t, _ in row], [g for _, g in row]) for row in rows)
    from_sentences = corpus_of(sentences)
    from_columns = Corpus.from_columns(
        tuple(t for row in rows for t, _ in row),
        np.array([TAG_IDS[g] for row in rows for _, g in row], dtype=np.int8),
        np.array([0, *accumulate(map(len, rows))], dtype=np.int64), "xx", "test")
    assert from_columns == from_sentences
    assert len(from_columns) == len(from_sentences) == len(rows)
    for name in ("offsets", "spans"):
        assert np.array_equal(getattr(from_columns, name), getattr(from_sentences, name))
    per_sentence = {etype: tuple(s.tokens[a:b] for s in sentences
                                 for a, b, e in decode_spans(s.tags) if e == etype)
                    for etype in ENTITY_TYPES}
    assert from_columns.mention_surfaces == from_sentences.mention_surfaces == per_sentence
    assert count_mentions(from_columns) == count_mentions(from_sentences)
    assert serialize_iob2(from_columns) == serialize_iob2(from_sentences) == "".join(
        "".join(f"{t}\t{g}\n" for t, g in row) + "\n" for row in rows)
    vocab = {"<unk>": 0, "<pad>": 1, "ada": 2, "oslo": 3}
    for got, want in zip(encode_windows(vocab, window, from_columns)[:3],
                         encode_windows(vocab, window, from_sentences)[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert "sentences" not in vars(from_columns)
    assert from_columns.sentences == sentences
