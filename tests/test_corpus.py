import io
from collections import Counter
from itertools import accumulate, chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, sent
from leniency_cases import CASES, EDGE_ROWS, QUIET_ROWS, corpus_from_rows, corpus_st
from oracles import oracle_parse_iob2, oracle_spans
from nerprune.corpus import (
    ENTITY_TYPES,
    TAG_IDS,
    TAGSET,
    Corpus,
    LanguageMeta,
    Sentence,
    count_mentions,
    decode_spans,
    encode_tags,
    entity_overlap,
    load_language_metadata,
    parse_iob2,
    serialize_iob2,
)
from nerprune.corpus import _bulk_columns, _text, _walk
from nerprune.errors import MetadataError, ParseError, TagError

tokens_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
tagged_st = st.lists(st.tuples(tokens_st, st.sampled_from(TAGSET)), min_size=1, max_size=12)


def build_sentence(pairs, language="xx"):
    tokens, tags = zip(*pairs)
    return Sentence(tokens, tags, language)


def test_sentence_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="tokens vs"):
        Sentence(("a", "b"), ("O",), "en")


def test_sentence_rejects_bad_tokens():
    for bad in ("", "a\tb", "a\nb", "a\rb"):
        with pytest.raises(ValueError, match="invalid token"):
            Sentence((bad,), ("O",), "en")


def test_sentence_rejects_unknown_tags():
    with pytest.raises(TagError, match="B-MISC"):
        Sentence(("a",), ("B-MISC",), "en")


def test_sentence_rejects_empty_language():
    with pytest.raises(ValueError, match="language"):
        Sentence(("a",), ("O",), "")


def test_corpus_rejects_foreign_sentences():
    with pytest.raises(ValueError, match="sentence language"):
        Corpus((sent(["a"], ["O"], "de"),), "en", "test")


def test_corpus_rejects_unknown_split():
    with pytest.raises(ValueError, match="split"):
        Corpus((), "en", "eval")


def test_parse_tab_separated():
    corpus = parse_iob2("John\tB-PER\nsmiled\tO\n\n", "en")
    assert len(corpus) == 1
    assert corpus.sentences[0].tokens == ("John", "smiled")
    assert corpus.sentences[0].tags == ("B-PER", "O")
    assert corpus.language == "en"
    assert corpus.split == "test"


def test_parse_space_separated():
    corpus = parse_iob2("John B-PER\nsmiled O\n", "en")
    assert corpus.sentences[0].tokens == ("John", "smiled")


def test_parse_splits_sentences_on_blank_lines():
    text = "a\tO\n\nb\tO\n\n\nc\tO\n"
    corpus = parse_iob2(text, "en")
    assert [s.tokens for s in corpus] == [("a",), ("b",), ("c",)]


def test_parse_accepts_file_objects():
    corpus = parse_iob2(io.StringIO("a\tO\n"), "en", split="train")
    assert corpus.split == "train"
    assert len(corpus) == 1


@pytest.mark.parametrize("text", [
    "ada\tB-PER\nsaw\tO\n\nlima\tB-LOC\n", "\n\nada\tB-PER\n", "", "\n",
])
def test_one_leading_byte_order_mark_is_dropped(text):
    plain = parse_iob2(text, "en")
    assert parse_iob2("\ufeff" + text, "en") == plain
    assert parse_iob2(io.StringIO("\ufeff" + text), "en") == plain
    assert load_language_metadata("\ufeff" + META_CSV) == load_language_metadata(META_CSV)


def test_only_one_byte_order_mark_is_dropped():
    corpus = parse_iob2("\ufeff\ufeffada\tB-PER\nbo\tB-PER\n", "en")
    assert corpus.sentences[0].tokens == ("\ufeffada", "bo")
    assert parse_iob2("ada\tB-PER\n\ufeffbo\tB-PER\n", "en").sentences[0].tokens == (
        "ada", "\ufeffbo")
    with pytest.raises(MetadataError, match=":1: header"):
        load_language_metadata("\ufeff\ufeff" + META_CSV)


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match=r"corpus\.iob2:3"):
        parse_iob2("a\tO\nb\tO\na b c\n", "en", name="corpus.iob2")
    with pytest.raises(TagError, match=r"<iob2>:2.*B-GPE"):
        parse_iob2("a\tO\nb\tB-GPE\n", "en")


def test_lone_carriage_return_ends_a_line_as_in_a_file(tmp_path):
    path = tmp_path / "c.iob2"
    path.write_bytes(b"a\rb\tO\n")
    with open(path, encoding="utf-8") as f, pytest.raises(ParseError) as from_file:
        parse_iob2(f, "en", name="c.iob2")
    with pytest.raises(ParseError) as from_str:
        parse_iob2("a\rb\tO\n", "en", name="c.iob2")
    assert str(from_str.value) == str(from_file.value) == (
        "c.iob2:1: expected TOKEN<sep>TAG, got 1 fields: 'a'")
    lf = parse_iob2("a\tO\n\nb\tB-PER\n", "en")
    assert parse_iob2("a\tO\r\n\r\nb\tB-PER\r\n", "en") == lf
    assert parse_iob2("a\tO\r\rb\tB-PER\r", "en") == lf


def test_line_separators_other_than_newlines_stay_in_tokens():
    text = "a\x85b\tO\nc\u2028d\tB-LOC\ne\x1cf\tO\n"
    corpus = parse_iob2(text, "en")
    assert corpus.tokens == ("a\x85b", "c\u2028d", "e\x1cf")
    assert parse_iob2(serialize_iob2(corpus), "en") == corpus


# lines of an IOB2 text: well-formed pairs, whitespace-only lines, and
# malformed ones (one or three fields, an unknown tag, an empty token);
# tokens hold multi-byte and astral characters, and unknown tags include
# ones of a known tag's length and known tags with non-ASCII after them
token_text_st = st.builds(
    "".join, st.tuples(st.sampled_from(["", "xx:"]),
                       st.text(alphabet="ab :\x85\u2028\x0bé€𝄞", max_size=3)))
pair_line_st = st.builds(
    "".join, st.tuples(token_text_st, st.sampled_from(["\t", " "]), st.sampled_from(TAGSET)))
blank_line_st = st.sampled_from(["", "\t", "  ", "\x0b", " \t "])
bad_line_st = st.one_of(
    token_text_st,
    st.builds("{}\t{}\t{}".format, token_text_st, st.sampled_from(TAGSET),
              st.sampled_from(TAGSET)),
    st.builds("{}{}{}".format, token_text_st, st.sampled_from(["\t", " "]),
              st.sampled_from(["B-MISC", "o", "", "O ", "B-PEO", "X-PER", "B_LOC", "I-ORg",
                               "BBPER", "0", "B-PER\xa0", "O\u2028"])),
)


@st.composite
def iob2_text_st(draw):
    lines = draw(st.lists(st.one_of(pair_line_st, blank_line_st), max_size=10))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_line_st))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if endings and draw(st.booleans()):
        text = text[:-len(endings[-1])]
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _parse_outcome(parse, text):
    """Each sentence's tokens and tags under parse(text), or the type and
    message of what it raised."""
    try:
        sentences = parse(text, "xx", name="t.iob2")
    except Exception as exc:
        return type(exc), str(exc)
    return ([s.tokens for s in sentences], [s.tags for s in sentences])


@settings(max_examples=400, deadline=None)
@given(text=iob2_text_st())
# two tabs in all, but foo has none and the next line two: line 1 raises
@example(text="foo\nO\tO\tO\n")
@example(text="a b\tO\n  \nc O\r\n\x0b\rd\tB-PER")
# an entity tag with no line end after it, as the text's last bytes
@example(text="a\tO\nb\tI-LOC")
@example(text="a B-ORG")
# runs of empty lines at the start, in the middle and at the end
@example(text="\n\n\na\tB-ORG\n\n\n\nb\tO\nc\tI-PER\n\n\n")
# a lone surrogate, which only a str source can hold
@example(text="\ud800x\tB-PER\ny\udfff\tO\n")
def test_parse_matches_the_line_walk(text):
    want = _parse_outcome(oracle_parse_iob2, text)
    assert _parse_outcome(parse_iob2, text) == want
    if isinstance(want[0], list):
        corpus = parse_iob2(text, "xx")
        tokens, tags = want
        assert corpus.tokens == tuple(chain.from_iterable(tokens))
        assert corpus.tag_ids.tolist() == [TAG_IDS[t] for t in chain.from_iterable(tags)]
        assert corpus.offsets.tolist() == [0, *accumulate(map(len, tokens))]
        assert "sentences" not in vars(corpus)


@st.composite
def bulk_text_st(draw):
    """Texts of pair lines and empty lines alone, with one separator
    throughout, which the byte route parses whole."""
    sep = draw(st.sampled_from(["\t", " "]))
    token_st = st.text(alphabet="ab:\x85\u2028\x0bé€𝄞" + " " * (sep == "\t"),
                       min_size=1, max_size=4)
    pair_st = st.builds("{}{}{}".format, token_st, st.just(sep), st.sampled_from(TAGSET))
    lines = draw(st.lists(st.one_of(pair_st, st.just("")), max_size=10))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=200, deadline=None)
@given(text=bulk_text_st())
@example(text="\ufeffa b\tB-PER\r\n\r\n\r\nc\tI-PER\r\n")
@example(text="\n\né€ B-LOC\n𝄞 O")
def test_pair_and_empty_lines_never_walk(text):
    with mock.patch("nerprune.corpus._walk", side_effect=AssertionError("walked")):
        corpus = parse_iob2(text, "xx")
    assert list(corpus.sentences) == oracle_parse_iob2(text, "xx")


@settings(max_examples=300, deadline=None)
@given(text=iob2_text_st())
@example(text=" \t \n\x0b\na O\n\t\nb\tB-ORG\n  \n")
def test_the_byte_route_takes_every_text_the_walk_writes(text):
    try:
        walked = _walk(_text(text, "t.iob2", ParseError).split("\n"), "t.iob2")
    except (ParseError, TagError):
        return
    assert _bulk_columns(walked, "\t") is not None


@given(st.lists(tagged_st, min_size=0, max_size=5))
def test_serialize_parse_round_trip(sentence_specs):
    corpus = corpus_of([build_sentence(pairs) for pairs in sentence_specs])
    assert parse_iob2(serialize_iob2(corpus), "xx") == corpus


@pytest.mark.parametrize("tags,expected", CASES)
def test_lenient_decoding_cases(tags, expected):
    assert decode_spans(tags) == expected


def test_decode_accepts_generators():
    assert decode_spans(iter(["O", "B-LOC", "I-LOC"])) == [(1, 3, "LOC")]


@given(st.lists(st.sampled_from(TAGSET), max_size=20))
def test_decoded_spans_cover_exactly_the_tagged_positions(tags):
    spans = decode_spans(tags)
    covered = sorted(i for start, end, _ in spans for i in range(start, end))
    assert covered == [i for i, t in enumerate(tags) if t != "O"]
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@given(st.lists(st.sampled_from(TAGSET), max_size=20))
def test_reencoding_decoded_spans_is_stable(tags):
    spans = decode_spans(tags)
    strict = encode_tags(len(tags), spans)
    assert decode_spans(strict) == spans


def test_encode_writes_strict_iob2():
    tags = encode_tags(5, [(0, 2, "PER"), (3, 4, "LOC")])
    assert tags == ("B-PER", "I-PER", "O", "B-LOC", "O")


def test_encode_rejects_overlap_and_out_of_range():
    with pytest.raises(ValueError, match="overlapping"):
        encode_tags(4, [(0, 2, "PER"), (1, 3, "LOC")])
    with pytest.raises(ValueError, match="outside"):
        encode_tags(2, [(1, 3, "PER")])
    with pytest.raises(ValueError, match="entity type"):
        encode_tags(2, [(0, 1, "GPE")])


def test_entity_overlap_counts_test_mentions_with_multiplicity():
    train = corpus_of(
        [sent(["Lima", "rocks"], ["B-LOC", "O"])], split="train"
    )
    test = corpus_of(
        [
            sent(["Lima", "and", "Lima"], ["B-LOC", "O", "B-LOC"]),
            sent(["Oslo"], ["B-LOC"]),
            sent(["Lima"], ["B-PER"]),
        ]
    )
    assert entity_overlap(train, test) == pytest.approx(2 / 4)


def test_entity_overlap_is_none_without_test_mentions():
    train = corpus_of([sent(["Lima"], ["B-LOC"])], split="train")
    test = corpus_of([sent(["quiet"], ["O"])])
    assert entity_overlap(train, test) is None


def test_count_mentions_by_type():
    corpus = corpus_of(
        [
            sent(["Ada", "met", "Bo"], ["B-PER", "O", "B-PER"]),
            sent(["Acme"], ["B-ORG"]),
        ]
    )
    assert count_mentions(corpus) == {"PER": 2, "ORG": 1}


@settings(max_examples=150, deadline=None)
@given(train=corpus_st("xx", "train"), test=corpus_st("xx"))
@example(train=corpus_from_rows(EDGE_ROWS, "xx", "train"),
         test=corpus_from_rows(EDGE_ROWS, "xx"))
@example(train=corpus_from_rows(QUIET_ROWS, "xx", "train"),
         test=corpus_from_rows(EDGE_ROWS, "xx"))
@example(train=corpus_from_rows(EDGE_ROWS, "xx", "train"),
         test=corpus_from_rows(QUIET_ROWS, "xx"))
def test_corpus_mentions_match_the_per_sentence_route(train, test):
    def per_sentence(corpus):
        return [(etype, s.tokens[start:end])
                for s in corpus for start, end, etype in decode_spans(s.tags)]

    want = per_sentence(test)
    assert test.mention_surfaces == {
        etype: tuple(s for e, s in want if e == etype) for etype in ENTITY_TYPES}
    assert test.mention_surfaces is test.mention_surfaces
    assert test == Corpus(test.sentences, test.language, test.split)
    train_keys = set(per_sentence(train))
    assert entity_overlap(train, test) == (
        sum(m in train_keys for m in want) / len(want) if want else None)
    assert count_mentions(test) == Counter(etype for etype, _ in want)


@settings(max_examples=150, deadline=None)
@given(corpus=corpus_st("xx"))
@example(corpus=corpus_from_rows(EDGE_ROWS, "xx"))
@example(corpus=corpus_from_rows(QUIET_ROWS, "xx"))
def test_corpus_spans_rebased_per_sentence_are_its_spans(corpus):
    offsets = corpus.offsets.tolist()
    assert offsets == [0, *accumulate(len(s) for s in corpus)]
    starts, ends, etypes = corpus.span_bounds()
    bounds = list(zip(starts.tolist(), ends.tolist(),
                      [ENTITY_TYPES[t] for t in etypes.tolist()]))
    per_sentence = [
        [(start - lo, end - lo, etype) for start, end, etype in bounds if lo <= start < hi]
        for lo, hi in zip(offsets, offsets[1:])
    ]
    assert per_sentence == [oracle_spans(s.tags) for s in corpus]
    assert sum(map(len, per_sentence)) == len(bounds)
    assert corpus.spans is corpus.spans and corpus.offsets is corpus.offsets
    assert not corpus.spans.flags.writeable and not corpus.offsets.flags.writeable


META_CSV = (
    "code,script,family,train_size,pretrain_pct\n"
    "af,Latin,Indo-European,5000,0.21\n"
    "zh,Han,Sino-Tibetan,20000,2.93\n"
)


def test_metadata_loads_by_code():
    meta = load_language_metadata(META_CSV)
    assert set(meta) == {"af", "zh"}
    assert meta["af"] == LanguageMeta("af", "Latin", "Indo-European", 5000, 0.21)


def test_metadata_rejects_wrong_header():
    with pytest.raises(MetadataError, match="header"):
        load_language_metadata("lang,script,family,train_size,pretrain_pct\n")


def test_metadata_rejects_duplicates_with_line_number():
    bad = META_CSV + "af,Latin,Indo-European,5000,0.21\n"
    with pytest.raises(MetadataError, match=":4: duplicate"):
        load_language_metadata(bad)


def test_metadata_rejects_non_numeric_sizes():
    bad = "code,script,family,train_size,pretrain_pct\naf,Latin,IE,many,0.2\n"
    with pytest.raises(MetadataError, match=":2: train_size"):
        load_language_metadata(bad)


def test_metadata_rejects_bad_values():
    bad = "code,script,family,train_size,pretrain_pct\naf,Latin,IE,0,0.2\n"
    with pytest.raises(MetadataError, match="positive"):
        load_language_metadata(bad)
    bad = "code,script,family,train_size,pretrain_pct\naf,Latin,IE,10,-1\n"
    with pytest.raises(MetadataError, match="non-negative"):
        load_language_metadata(bad)
    for value in ("nan", "inf"):
        bad = META_CSV + f"aa,Latn,x,100,{value}\n"
        with pytest.raises(MetadataError, match=f":4: aa: pretrain_pct must be finite, got {value}"):
            load_language_metadata(bad)
