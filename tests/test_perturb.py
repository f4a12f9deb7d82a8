import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, sent
from leniency_cases import EDGE_ROWS, QUIET_ROWS, corpus_from_rows, corpus_st
from oracles import oracle_build_pool, oracle_perturb_corpus
from nerprune.corpus import (
    TAGSET,
    LanguageMeta,
    decode_spans,
    encode_tags,
    serialize_iob2,
)
from nerprune.errors import EmptyGroupError, MissingMetadataError
from nerprune.perturb import (
    EntityPool,
    ReplacementRecord,
    Scope,
    build_pool,
    perturb_corpus,
    write_replacement_log,
)

META = {
    "aa": LanguageMeta("aa", "Latin", "Fam1", 100, 0.1),
    "bb": LanguageMeta("bb", "Latin", "Fam2", 100, 0.1),
    "cc": LanguageMeta("cc", "Greek", "Fam1", 100, 0.1),
}


def pool_of(by_type, scope=Scope.IN_LANGUAGE, group_key="aa"):
    return EntityPool(scope=scope, group_key=group_key, by_type=by_type)


def perturb_one(sentence, pool, seed):
    """The perturbed sentence and log of a one-sentence corpus."""
    out, records = perturb_corpus(corpus_of([sentence], "aa"), pool, seed)
    return out.sentences[0], records


def test_scope_parse_and_group_keys():
    assert Scope.parse("in-script") is Scope.IN_SCRIPT
    with pytest.raises(ValueError, match="unknown scope"):
        Scope.parse("global")
    meta = META["aa"]
    assert Scope.IN_LANGUAGE.group_key(meta) == "aa"
    assert Scope.IN_SCRIPT.group_key(meta) == "Latin"
    assert Scope.IN_FAMILY.group_key(meta) == "Fam1"


def test_pool_validates_entries():
    with pytest.raises(ValueError, match="entity type"):
        pool_of({"GPE": (("x",),)})
    with pytest.raises(ValueError, match="duplicate"):
        pool_of({"LOC": (("x",), ("x",))})
    with pytest.raises(ValueError, match="empty surface"):
        pool_of({"LOC": ((),)})
    assert pool_of({"LOC": (("x",), ("y", "z"))}).size() == 2


def corpus_aa():
    return corpus_of(
        [
            sent(["Ada", "saw", "Oslo"], ["B-PER", "O", "B-LOC"], "aa"),
            sent(["Oslo", "greets", "Ada", "Lovelace"],
                 ["B-LOC", "O", "B-PER", "I-PER"], "aa"),
        ],
        "aa",
    )


def corpus_bb():
    return corpus_of([sent(["Lima"], ["B-LOC"], "bb")], "bb")


def corpus_cc():
    return corpus_of([sent(["Atene"], ["B-LOC"], "cc")], "cc")


def test_build_pool_keeps_first_occurrence_order():
    pool = build_pool([corpus_aa()], META, Scope.IN_LANGUAGE, "aa")
    assert pool.by_type["LOC"] == (("Oslo",),)
    assert pool.by_type["PER"] == (("Ada",), ("Ada", "Lovelace"))
    assert "ORG" not in pool.by_type


def test_build_pool_filters_by_scope_group():
    corpora = [corpus_aa(), corpus_bb(), corpus_cc()]
    latin = build_pool(corpora, META, Scope.IN_SCRIPT, "Latin")
    assert latin.by_type["LOC"] == (("Oslo",), ("Lima",))
    fam1 = build_pool(corpora, META, Scope.IN_FAMILY, "Fam1")
    assert fam1.by_type["LOC"] == (("Oslo",), ("Atene",))


@settings(max_examples=150, deadline=None)
@given(corpora=st.tuples(corpus_st("aa"), corpus_st("bb"), corpus_st("cc")))
@example(corpora=(corpus_from_rows(EDGE_ROWS, "aa"), corpus_from_rows(QUIET_ROWS, "bb"),
                  corpus_from_rows(EDGE_ROWS[::-1], "cc")))
def test_build_pool_matches_the_per_sentence_oracle(corpora):
    for scope in Scope:
        for group_key in {scope.group_key(META[c.language]) for c in corpora}:
            pool = build_pool(corpora, META, scope, group_key)
            want = oracle_build_pool(corpora, META, scope, group_key)
            assert pool.by_type == want
            # the checked constructor accepts the same surfaces
            assert pool == EntityPool(scope, group_key, want)
            assert pool.positions == {
                etype: {s: i for i, s in enumerate(surfaces)}
                for etype, surfaces in want.items()}


def test_build_pool_rejects_bad_inputs():
    with pytest.raises(MissingMetadataError):
        build_pool([corpus_aa()], {}, Scope.IN_LANGUAGE, "aa")
    with pytest.raises(EmptyGroupError, match="Cyrillic"):
        build_pool([corpus_aa()], META, Scope.IN_SCRIPT, "Cyrillic")
    train = corpus_of([sent(["x"], ["O"], "aa")], "aa", "train")
    with pytest.raises(ValueError, match="test splits"):
        build_pool([train], META, Scope.IN_LANGUAGE, "aa")


def test_single_candidate_replacement_is_deterministic():
    pool = pool_of({"LOC": (("Peru",), ("Carbon", "Cliff", ",", "Illinois"))})
    s = sent(["I", "left", "Peru", "yesterday"], ["O", "O", "B-LOC", "O"], "aa")
    out, records = perturb_one(s, pool, 0)
    assert out.tokens == ("I", "left", "Carbon", "Cliff", ",", "Illinois", "yesterday")
    assert out.tags == ("O", "O", "B-LOC", "I-LOC", "I-LOC", "I-LOC", "O")
    assert records[0].replaced is True
    assert records[0].original == ("Peru",)
    assert records[0].replacement == ("Carbon", "Cliff", ",", "Illinois")


def test_mention_without_candidates_is_kept_and_logged():
    pool = pool_of({"LOC": (("Peru",),)})
    s = sent(["Peru", "won"], ["B-LOC", "O"], "aa")
    out, records = perturb_one(s, pool, 0)
    assert out.tokens == s.tokens
    assert records[0].replaced is False
    assert records[0].draw_index is None


def test_adjacent_mentions_stay_distinct():
    pool = pool_of({
        "PER": (("Ada",), ("Bo",)),
        "LOC": (("Oslo",), ("Lima",)),
    })
    s = sent(["Ada", "Oslo"], ["B-PER", "B-LOC"], "aa")
    out, _ = perturb_one(s, pool, 0)
    assert out.tokens == ("Bo", "Lima")
    assert out.tags == ("B-PER", "B-LOC")


def test_ill_formed_input_tags_come_out_strict():
    pool = pool_of({"LOC": (("Lima",), ("Oslo",))})
    s = sent(["x", "somewhere"], ["O", "I-LOC"], "aa")
    out, records = perturb_one(s, pool, 1)
    assert out.tags[0] == "O"
    assert out.tags[1].startswith("B-")
    assert records[0].replaced is True


def test_corpus_draw_indices_count_only_replacements():
    pool = pool_of({
        "PER": (("Ada",), ("Bo",)),
        "LOC": (("Oslo",),),
    })
    corpus = corpus_of(
        [
            sent(["Ada", "left", "Oslo"], ["B-PER", "O", "B-LOC"], "aa"),
            sent(["Bo"], ["B-PER"], "aa"),
        ],
        "aa",
    )
    _, records = perturb_corpus(corpus, pool, seed=5)
    assert [r.replaced for r in records] == [True, False, True]
    assert [r.draw_index for r in records] == [0, None, 1]
    assert [r.sentence_index for r in records] == [0, 0, 1]


def test_same_seed_gives_identical_output_bytes():
    corpus = corpus_aa()
    pool = build_pool(
        [corpus, corpus_bb()], META, Scope.IN_SCRIPT, "Latin"
    )
    out1, log1 = perturb_corpus(corpus, pool, seed=123)
    out2, log2 = perturb_corpus(corpus, pool, seed=123)
    assert serialize_iob2(out1) == serialize_iob2(out2)
    assert log1 == log2


surface_st = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=3
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    tags=st.lists(st.sampled_from(TAGSET), min_size=1, max_size=12),
    surfaces=st.sets(surface_st, min_size=1, max_size=5),
    seed=st.integers(0, 1000),
)
def test_perturbation_preserves_structure(tags, surfaces, seed):
    s = sent([f"w{i}" for i in range(len(tags))], tags, "aa")
    by_type = {etype: tuple(sorted(surfaces)) for etype in ("PER", "LOC", "ORG")}
    pool = pool_of(by_type)
    out, records = perturb_one(s, pool, seed)
    before = decode_spans(s.tags)
    after = decode_spans(out.tags)
    assert [etype for *_, etype in after] == [etype for *_, etype in before]
    assert len(records) == len(before)
    assert encode_tags(len(out), after) == out.tags
    gaps_before = [t for t, g in zip(s.tokens, s.tags) if g == "O"]
    gaps_after = [t for t, g in zip(out.tokens, out.tags) if g == "O"]
    assert gaps_before == gaps_after
    for (start, end, _), record in zip(after, records):
        assert out.tokens[start:end] == record.replacement


def test_replacement_log_round_trip(tmp_path):
    records = [
        ReplacementRecord(0, 1, 2, "LOC", ("Peru",), ("Lima",), 0, True),
        ReplacementRecord(3, 0, 2, "PER", ("Ada", "L"), ("Ada", "L"), None, False),
    ]
    path = tmp_path / "log.jsonl"
    write_replacement_log(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {**vars(record), "original": list(record.original),
         "replacement": list(record.replacement)}
        for record in records
    ]


# a small alphabet so that mentions often are pool surfaces
mention_token_st = st.sampled_from(["x", "y", "z"])
tagged_sentence_st = st.lists(
    st.tuples(mention_token_st, st.sampled_from(TAGSET)), max_size=7
).map(lambda pairs: sent([t for t, _ in pairs], [g for _, g in pairs], "aa"))
pool_surfaces_st = st.lists(
    st.lists(mention_token_st, min_size=1, max_size=3).map(tuple),
    max_size=6, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(
    sentences=st.lists(tagged_sentence_st, max_size=6),
    # a type is missing from the pool, or holds zero or more surfaces
    by_type=st.dictionaries(st.sampled_from(["PER", "LOC", "ORG"]), pool_surfaces_st),
    seed=st.integers(0, 1000),
)
# own surfaces first, in the middle, last and absent from the pool;
# ORG ("x",) has no candidate and LOC no pool
@example(sentences=corpus_from_rows(EDGE_ROWS, "aa").sentences,
         by_type={"PER": [("y",), ("x", "y"), ("x",)], "ORG": [("x",)]}, seed=3)
@example(sentences=corpus_from_rows(EDGE_ROWS, "aa").sentences, by_type={}, seed=0)
@example(sentences=corpus_from_rows(QUIET_ROWS, "aa").sentences,
         by_type={"PER": [("x",)]}, seed=0)
def test_perturb_corpus_matches_the_candidate_list_draw(sentences, by_type, seed):
    pool = pool_of({etype: tuple(s) for etype, s in by_type.items() if s})
    corpus = corpus_of(sentences, "aa")
    out, records = perturb_corpus(corpus, pool, seed)
    want_out, want_records = oracle_perturb_corpus(corpus, pool, seed)
    assert out == want_out
    assert records == want_records
    assert serialize_iob2(out) == serialize_iob2(want_out)


def test_one_pool_indexes_its_surfaces_once_for_every_corpus():
    by_type = {"PER": (("y",), ("x", "y"), ("x",)), "ORG": (("x",),)}
    pool = pool_of(by_type)
    corpora = [corpus_from_rows(EDGE_ROWS, "aa"), corpus_from_rows(QUIET_ROWS, "aa")]
    for seed, corpus in enumerate(corpora * 2):
        assert perturb_corpus(corpus, pool, seed) == oracle_perturb_corpus(corpus, pool, seed)
    positions = pool.positions
    assert pool.positions is positions
    assert positions == {"PER": {("y",): 0, ("x", "y"): 1, ("x",): 2}, "ORG": {("x",): 0}}
    # the index is not a field, so equality is unchanged
    assert pool == pool_of(by_type)
