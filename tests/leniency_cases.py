"""Hand-enumerated lenient span decoding cases, including ill-formed IOB2.

Each case pairs a tag sequence with the exact spans it must decode to:
B-X always opens, I-X continues a same-type span and otherwise opens,
O closes, and a span still open at the end of the sentence is flushed.
The corpora below put the same shapes into whole corpora, for decoders
that run over many sentences at once.
"""

from hypothesis import strategies as st

from nerprune.corpus import TAGSET, Corpus, Sentence

CASES = [
    ((), []),
    (("O",), []),
    (("O", "O", "O"), []),
    (("B-PER",), [(0, 1, "PER")]),
    (("I-PER",), [(0, 1, "PER")]),
    (("I-ORG",), [(0, 1, "ORG")]),
    (("B-PER", "I-PER"), [(0, 2, "PER")]),
    (("B-PER", "I-PER", "I-PER"), [(0, 3, "PER")]),
    (("B-PER", "B-PER"), [(0, 1, "PER"), (1, 2, "PER")]),
    (("B-PER", "B-LOC"), [(0, 1, "PER"), (1, 2, "LOC")]),
    (("B-PER", "I-LOC"), [(0, 1, "PER"), (1, 2, "LOC")]),
    (("O", "I-LOC", "I-LOC"), [(1, 3, "LOC")]),
    (("I-PER", "I-PER"), [(0, 2, "PER")]),
    (("I-PER", "B-PER"), [(0, 1, "PER"), (1, 2, "PER")]),
    (("B-PER", "O", "I-PER"), [(0, 1, "PER"), (2, 3, "PER")]),
    (
        ("I-PER", "O", "I-PER", "I-PER", "B-PER"),
        [(0, 1, "PER"), (2, 4, "PER"), (4, 5, "PER")],
    ),
    (
        ("B-PER", "I-ORG", "I-ORG", "I-LOC", "B-LOC"),
        [(0, 1, "PER"), (1, 3, "ORG"), (3, 4, "LOC"), (4, 5, "LOC")],
    ),
    (("B-LOC", "I-LOC", "O", "O", "B-LOC"), [(0, 2, "LOC"), (4, 5, "LOC")]),
    (("O", "B-ORG", "I-ORG", "I-ORG"), [(1, 4, "ORG")]),
    (("I-LOC", "B-LOC", "I-LOC"), [(0, 1, "LOC"), (1, 3, "LOC")]),
    (
        ("B-ORG", "I-ORG", "B-ORG", "I-ORG"),
        [(0, 2, "ORG"), (2, 4, "ORG")],
    ),
    (
        ("I-PER", "I-LOC", "I-ORG"),
        [(0, 1, "PER"), (1, 2, "LOC"), (2, 3, "ORG")],
    ),
    (
        ("O", "I-PER", "O", "B-ORG", "O", "I-LOC"),
        [(1, 2, "PER"), (3, 4, "ORG"), (5, 6, "LOC")],
    ),
    (
        ("B-PER", "I-PER", "I-LOC", "I-LOC", "I-PER"),
        [(0, 2, "PER"), (2, 4, "LOC"), (4, 5, "PER")],
    ),
]


# (token, tag) rows: empty sentences first, in the middle and last, a
# sentence-initial and a stray I-X, adjacent B-X B-X, mentions that end
# their sentence and a sentence that opens with the type the one before
# it closed with
EDGE_ROWS = (
    (),
    (("y", "I-PER"), ("x", "O"), ("x", "I-LOC"), ("y", "I-LOC")),
    (),
    (("x", "B-ORG"), ("x", "B-ORG"), ("z", "O"), ("x", "B-PER"), ("y", "I-PER")),
    (("y", "I-PER"), ("z", "O"), ("y", "I-ORG"), ("x", "I-PER")),
    (),
)
QUIET_ROWS = ((), (("x", "O"), ("y", "O")), ())


def corpus_from_rows(rows, language, split="test"):
    return Corpus(
        tuple(Sentence(tuple(t for t, _ in row), tuple(g for _, g in row), language)
              for row in rows),
        language, split,
    )


def corpus_st(language, split="test"):
    """Corpora of up to six sentences, each of up to seven tokens drawn
    from three strings so that surfaces repeat, with any tag anywhere."""
    row_st = st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from(TAGSET)),
                      max_size=7)
    return st.lists(row_st, max_size=6).map(
        lambda rows: corpus_from_rows(rows, language, split))
