"""IOB2 corpora: parsing, serialization, span decoding and language metadata.

A corpus is a sequence of sentences for one language and one split. Tags
come from a fixed three-type tagset (PER, LOC, ORG). Span decoding is
lenient: a stray I-X after O, after a different type, or at the start of
a sentence opens a new entity instead of being dropped, and B-X always
opens one. Every non-O token therefore belongs to exactly one mention.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import MetadataError, ParseError, TagError

ENTITY_TYPES = ("PER", "LOC", "ORG")
TAGSET = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG")
VALID_TAGS = frozenset(TAGSET)
TAG_IDS = {tag: i for i, tag in enumerate(TAGSET)}
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class Sentence:
    """One tokenized sentence with aligned IOB2 tags.

    Tokens must be non-empty and free of tabs and line breaks so that
    serialization round-trips. Tags must come from the fixed tagset but
    need not be well-formed IOB2; decoding is lenient.
    """

    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    language: str

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags"
            )
        for tok in self.tokens:
            if not tok or "\t" in tok or "\n" in tok or "\r" in tok:
                raise ValueError(f"invalid token {tok!r}")
        for tag in self.tags:
            if tag not in VALID_TAGS:
                raise TagError(f"unknown tag {tag!r}")
        if not self.language:
            raise ValueError("empty language code")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """Sentences of a single language and split."""

    sentences: tuple[Sentence, ...]
    language: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not self.language:
            raise ValueError("empty language code")
        for sent in self.sentences:
            if sent.language != self.language:
                raise ValueError(
                    f"sentence language {sent.language!r} in corpus "
                    f"{self.language!r}"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Sentence i owns positions offsets[i]:offsets[i + 1] of the
        corpus laid end to end."""
        offsets = np.cumsum([0, *map(len, self.sentences)], dtype=np.int64)
        offsets.flags.writeable = False
        return offsets

    @cached_property
    def spans(self) -> np.ndarray:
        """decode_span_ids keys of the sentences' tags laid end to end,
        decoded once: the corpus is immutable, so they are kept on it."""
        tag_ids = np.fromiter(
            map(TAG_IDS.__getitem__, chain.from_iterable(s.tags for s in self.sentences)),
            dtype=np.int64, count=int(self.offsets[-1]),
        )
        spans = decode_span_ids(tag_ids, self.offsets)
        spans.flags.writeable = False
        return spans

    def span_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Starts, ends (both positions laid end to end) and entity type
        indices of spans, in sentence-then-position order."""
        rest, etypes = np.divmod(self.spans, len(ENTITY_TYPES))
        starts, ends = np.divmod(rest, self.offsets[-1] + 1)
        return starts, ends, etypes

    @cached_property
    def mentions(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(entity type, surface) of every mention in sentence-then-position
        order, from spans."""
        tokens = list(chain.from_iterable(s.tokens for s in self.sentences))
        starts, ends, etypes = self.span_bounds()
        return tuple(
            (ENTITY_TYPES[t], tuple(tokens[start:end]))
            for start, end, t in zip(starts.tolist(), ends.tolist(), etypes.tolist())
        )


def _lines(source: str | TextIO | Iterable[str]) -> Iterable[str]:
    """source's lines, less one leading byte-order mark (U+FEFF)."""
    lines = iter(io.StringIO(source) if isinstance(source, str) else source)
    first = next(lines, None)
    return () if first is None else chain((first.removeprefix("\ufeff"),), lines)


def parse_iob2(
    source: str | TextIO | Iterable[str],
    language: str,
    split: str = "test",
    strip_prefix: bool = False,
    name: str = "<iob2>",
) -> Corpus:
    """Parse token/tag lines into a Corpus.

    A line holds one token and one tag separated by a tab, or by a single
    space when no tab is present. Blank lines end sentences. When
    strip_prefix is set, a leading "<language>:" on the token is removed
    (the raw export format prefixes tokens this way). One leading UTF-8
    byte-order mark is dropped.

    Raises ParseError or TagError with the 1-based line number on any
    malformed line.
    """
    prefix = f"{language}:"
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush():
        if tokens:
            sentences.append(Sentence(tuple(tokens), tuple(tags), language))
            tokens.clear()
            tags.clear()

    lineno = 0
    try:
        for lineno, raw in enumerate(_lines(source), start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                flush()
                continue
            fields = line.split("\t") if "\t" in line else line.split(" ")
            if len(fields) != 2:
                raise ParseError(
                    f"{name}:{lineno}: expected TOKEN<sep>TAG, "
                    f"got {len(fields)} fields: {line!r}"
                )
            token, tag = fields
            if strip_prefix and token.startswith(prefix):
                token = token[len(prefix):]
            if not token:
                raise ParseError(f"{name}:{lineno}: empty token")
            if tag not in VALID_TAGS:
                raise TagError(f"{name}:{lineno}: unknown tag {tag!r}")
            tokens.append(token)
            tags.append(tag)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 text: {exc.reason}") from None
    flush()
    return Corpus(tuple(sentences), language, split)


def serialize_iob2(corpus: Corpus) -> str:
    """Render a corpus as tab-separated token/tag lines.

    Sentences are separated by one blank line; the output ends with one.
    parse_iob2(serialize_iob2(c)) reproduces c up to separator choice.
    """
    parts: list[str] = []
    for sent in corpus.sentences:
        for token, tag in zip(sent.tokens, sent.tags):
            parts.append(f"{token}\t{tag}\n")
        parts.append("\n")
    return "".join(parts)


def decode_spans(tags: Iterable[str]) -> list[tuple[int, int, str]]:
    """Decode a tag sequence into (start, end, type) spans, leniently.

    B-X always opens a span. I-X continues an open span of type X and
    otherwise opens a new one. O closes. Spans are maximal, sorted and
    cover exactly the non-O positions.
    """
    spans: list[tuple[int, int, str]] = []
    start = -1
    current = ""
    length = 0
    for i, tag in enumerate(tags):
        length = i + 1
        if tag == "O":
            if current:
                spans.append((start, i, current))
                current = ""
            continue
        prefix, etype = tag.split("-", 1)
        if prefix == "B" or etype != current:
            if current:
                spans.append((start, i, current))
            start, current = i, etype
    if current:
        spans.append((start, length, current))
    return spans


# per tag id: entity type index (-1 for O) and whether the tag is B-X
_TAG_TYPE = np.array([ENTITY_TYPES.index(t[2:]) if t != "O" else -1 for t in TAGSET])
_TAG_OPENS = np.array([t.startswith("B-") for t in TAGSET])


def decode_span_ids(tag_ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Lenient spans of tag ids laid end to end, sentence i owning
    positions offsets[i]:offsets[i + 1], as sorted int64 keys.

    The rules are decode_spans': B-X opens a span, I-X continues an open
    span of type X and otherwise opens one, O closes. A sentence's first
    token always opens, so no span crosses a sentence boundary. A span
    [start, end) of type index t has key ((start * (N + 1)) + end) * T + t
    for N positions and T entity types.
    """
    n = tag_ids.size
    etype = _TAG_TYPE[tag_ids]
    entity = etype >= 0
    opens = entity & _TAG_OPENS[tag_ids]
    opens[1:] |= entity[1:] & (etype[1:] != etype[:-1])
    firsts = offsets[:-1][offsets[:-1] < n]
    opens[firsts] = entity[firsts]
    starts = np.flatnonzero(opens)
    stops = np.flatnonzero(np.append(~entity | opens, True))
    ends = stops[np.searchsorted(stops, starts, side="right")]
    return (starts * (n + 1) + ends) * len(ENTITY_TYPES) + etype[starts]


def encode_tags(length: int, spans: Iterable[tuple[int, int, str]]) -> tuple[str, ...]:
    """Write spans back as strict IOB2 tags over a sentence of given length.

    Spans must be within range, typed and non-overlapping. Adjacent spans
    stay distinct because each opens with B-X.
    """
    tags = ["O"] * length
    for start, end, etype in spans:
        if not 0 <= start < end <= length:
            raise ValueError(f"span [{start}, {end}) outside sentence of {length}")
        if etype not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {etype!r}")
        for i in range(start, end):
            if tags[i] != "O":
                raise ValueError(f"overlapping spans at position {i}")
            tags[i] = f"I-{etype}"
        tags[start] = f"B-{etype}"
    return tuple(tags)


def entity_overlap(train: Corpus, test: Corpus) -> float | None:
    """Fraction of test mentions whose (type, surface) occurs in train.

    Test mentions count with multiplicity; the train side is a set.
    Returns None when the test corpus has no mentions at all.
    """
    if not test.mentions:
        return None
    train_keys = set(train.mentions)
    return sum(m in train_keys for m in test.mentions) / len(test.mentions)


def count_mentions(corpus: Corpus) -> Counter:
    """Mention counts per entity type, for quick corpus summaries."""
    return Counter(etype for etype, _ in corpus.mentions)


METADATA_HEADER = ("code", "script", "family", "train_size", "pretrain_pct")


@dataclass(frozen=True)
class LanguageMeta:
    """Static per-language attributes used for grouping and pool scoping."""

    code: str
    script: str
    family: str
    train_size: int
    pretrain_pct: float

    def __post_init__(self):
        if not self.code or not self.script or not self.family:
            raise MetadataError(f"empty field in metadata for {self.code!r}")
        if self.train_size <= 0:
            raise MetadataError(
                f"{self.code}: train_size must be positive, got {self.train_size}"
            )
        if self.pretrain_pct < 0:
            raise MetadataError(
                f"{self.code}: pretrain_pct must be non-negative, "
                f"got {self.pretrain_pct}"
            )


def load_language_metadata(
    source: str | TextIO | Iterable[str], name: str = "<metadata>"
) -> dict[str, LanguageMeta]:
    """Load the language metadata CSV keyed by language code.

    The header must be exactly code,script,family,train_size,pretrain_pct,
    after one leading UTF-8 byte-order mark, if any, is dropped.
    Duplicate codes and non-numeric sizes are rejected with the offending
    line number.
    """
    try:
        rows = list(csv.reader(_lines(source)))
    except UnicodeDecodeError as exc:
        raise MetadataError(f"{name}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise MetadataError(f"{name}: empty metadata file")
    if tuple(h.strip() for h in rows[0]) != METADATA_HEADER:
        raise MetadataError(
            f"{name}:1: header must be {','.join(METADATA_HEADER)}"
        )
    result: dict[str, LanguageMeta] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise MetadataError(f"{name}:{lineno}: expected 5 fields, got {len(row)}")
        code, script, family, size_s, pct_s = (f.strip() for f in row)
        if code in result:
            raise MetadataError(f"{name}:{lineno}: duplicate language code {code!r}")
        try:
            size = int(size_s)
        except ValueError:
            raise MetadataError(
                f"{name}:{lineno}: train_size must be an integer, got {size_s!r}"
            ) from None
        try:
            pct = float(pct_s)
        except ValueError:
            raise MetadataError(
                f"{name}:{lineno}: pretrain_pct must be a number, got {pct_s!r}"
            ) from None
        try:
            result[code] = LanguageMeta(code, script, family, size, pct)
        except MetadataError as exc:
            raise MetadataError(f"{name}:{lineno}: {exc}") from None
    return result
