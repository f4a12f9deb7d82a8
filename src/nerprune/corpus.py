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
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import MetadataError, NerpruneError, ParseError, TagError

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


class Corpus:
    """Sentences of a single language and split, held as columns: the
    tokens laid end to end, their TAG_IDS as int8 and offsets, so that
    sentence i owns positions offsets[i]:offsets[i + 1]. The columns are
    immutable, so decodes of them are kept on the corpus. Corpus(sentences,
    language, split) lays Sentence objects out so; from_columns takes the
    columns as they are, and the per-sentence view is built on first use."""

    def __init__(self, sentences: Iterable[Sentence], language: str, split: str):
        sentences = tuple(sentences)
        vars(self).update(vars(Corpus.from_columns(
            tuple(chain.from_iterable(s.tokens for s in sentences)),
            np.array([TAG_IDS[t] for s in sentences for t in s.tags], dtype=np.int8),
            np.cumsum([0, *map(len, sentences)], dtype=np.int64), language, split)))
        for sent in sentences:
            if sent.language != language:
                raise ValueError(f"sentence language {sent.language!r} in corpus {language!r}")
        self.sentences = sentences

    @classmethod
    def from_columns(cls, tokens: tuple[str, ...], tag_ids: np.ndarray,
                     offsets: np.ndarray, language: str, split: str) -> Corpus:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        if not language:
            raise ValueError("empty language code")
        tag_ids.flags.writeable = offsets.flags.writeable = False
        corpus = cls.__new__(cls)
        vars(corpus).update(tokens=tokens, tag_ids=tag_ids, offsets=offsets,
                            language=language, split=split)
        return corpus

    def __eq__(self, other) -> bool:
        return (isinstance(other, Corpus) and (self.language, self.split, self.tokens)
                == (other.language, other.split, other.tokens)
                and np.array_equal(self.tag_ids, other.tag_ids)
                and np.array_equal(self.offsets, other.offsets))

    def __repr__(self) -> str:
        return f"Corpus({self.sentences!r}, {self.language!r}, {self.split!r})"

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    @cached_property
    def sentences(self) -> tuple[Sentence, ...]:
        """One Sentence per sentence, from the columns."""
        tags = list(map(TAGSET.__getitem__, self.tag_ids.tolist()))
        bounds = self.offsets.tolist()
        return tuple(Sentence(self.tokens[a:b], tuple(tags[a:b]), self.language)
                     for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def spans(self) -> np.ndarray:
        """decode_span_ids keys of the tag ids, decoded once."""
        spans = decode_span_ids(self.tag_ids, self.offsets)
        spans.flags.writeable = False
        return spans

    def span_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Starts, ends (both positions laid end to end) and entity type
        indices of spans, in sentence-then-position order."""
        rest, etypes = np.divmod(self.spans, len(ENTITY_TYPES))
        starts, ends = np.divmod(rest, self.offsets[-1] + 1)
        return starts, ends, etypes

    @cached_property
    def mention_surfaces(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """Per entity type (every one of ENTITY_TYPES), the surfaces of its
        mentions in sentence-then-position order, sliced once from spans."""
        tokens, (starts, ends, etypes) = self.tokens, self.span_bounds()
        return {etype: tuple([tokens[a:b] for a, b in zip(starts[etypes == t].tolist(),
                                                          ends[etypes == t].tolist())])
                for t, etype in enumerate(ENTITY_TYPES)}


def _text(source: str | TextIO, name: str, error: type[NerpruneError]) -> str:
    """source's text less one leading byte-order mark (U+FEFF), with each
    line end (\\n, \\r\\n or \\r, as a text file splits lines) as \\n."""
    try:
        text = source if isinstance(source, str) else source.read()
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not UTF-8 text: {exc.reason}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_json_object(path: str | Path, what: str, error: type[NerpruneError]) -> dict:
    """The JSON object in the UTF-8 file at path, read as _text reads it.
    A fault of the file, its text or its JSON, or a value other than an
    object, raises error with a message that names path, and never
    quotes the file's content."""
    try:
        with open(path, encoding="utf-8") as f:
            value = json.loads(_text(f, str(path), error))
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return value


def parse_iob2(
    source: str | TextIO,
    language: str,
    split: str = "test",
    name: str = "<iob2>",
) -> Corpus:
    """Parse token/tag lines into a Corpus.

    Lines end at \\n, \\r\\n or \\r, as a text file splits them. A line
    holds one token and one tag separated by a tab, or by a single space
    when no tab is present. Whitespace-only lines end sentences. Tokens
    are read as written. One leading UTF-8 byte-order mark is dropped.

    The text is split and checked in bulk. Text that fails a check is
    walked line by line instead, which raises ParseError or TagError with
    the 1-based number of the first bad line.
    """
    text = _text(source, name, ParseError)
    columns = _bulk_columns(text, "\t" if "\t" in text else " ")
    columns = columns or _bulk_columns(_walk(text.split("\n"), name), "\t")
    return Corpus.from_columns(*columns, language, split)


def _bulk_columns(text: str, sep: str) -> tuple | None:
    """Tokens, tag ids and offsets of text from bulk splits, when every
    line is empty or one non-empty token, sep and a known tag; else None.
    Empty lines end sentences."""
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # line i spans codes[bounds[i] + 1:bounds[i + 1]]
    bounds = np.concatenate(([-1], np.flatnonzero(codes == 10), [codes.size]))
    filled = np.diff(bounds) > 1
    seps = np.diff(np.searchsorted(np.flatnonzero(codes == ord(sep)), bounds))
    # with one sep per filled line, fields pair up unless one is empty
    fields = list(filter(None, text.replace("\n", sep).split(sep)))
    n = int(np.count_nonzero(filled))
    if (seps != filled).any() or len(fields) != 2 * n:
        return None
    tag_ids = np.fromiter(map(TAG_IDS.get, fields[1::2], repeat(-1)), dtype=np.int8, count=n)
    if (tag_ids < 0).any():
        return None
    ends = np.cumsum(filled)[~filled]
    return tuple(fields[0::2]), tag_ids, np.unique(np.concatenate(([0], ends, [n])))


def _walk(lines: list[str], name: str) -> str:
    """lines checked one by one, raising on the first malformed one, and
    rewritten as token<TAB>tag lines and empty lines."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            out.append("")
            continue
        fields = line.split("\t") if "\t" in line else line.split(" ")
        if len(fields) != 2:
            raise ParseError(f"{name}:{lineno}: expected TOKEN<sep>TAG, "
                             f"got {len(fields)} fields: {line!r}")
        token, tag = fields
        if not token:
            raise ParseError(f"{name}:{lineno}: empty token")
        if tag not in VALID_TAGS:
            raise TagError(f"{name}:{lineno}: unknown tag {tag!r}")
        out.append(f"{token}\t{tag}")
    return "\n".join(out)


def serialize_iob2(corpus: Corpus) -> str:
    """Render a corpus as tab-separated token/tag lines.

    Sentences are separated by one blank line; the output ends with one.
    parse_iob2(serialize_iob2(c)) reproduces c up to separator choice.
    """
    rows = list(map("{}\t{}\n".format, corpus.tokens,
                    map(TAGSET.__getitem__, corpus.tag_ids.tolist())))
    bounds = corpus.offsets.tolist()
    return "".join("".join(rows[a:b]) + "\n" for a, b in zip(bounds, bounds[1:]))


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
    if not test.spans.size:
        return None
    return sum(sum(map(set(train.mention_surfaces[etype]).__contains__, surfaces))
               for etype, surfaces in test.mention_surfaces.items()) / test.spans.size


def count_mentions(corpus: Corpus) -> Counter:
    """Mention counts per entity type, for quick corpus summaries."""
    return Counter(ENTITY_TYPES[t] for t in corpus.span_bounds()[2].tolist())


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
        if not math.isfinite(self.pretrain_pct):
            raise MetadataError(
                f"{self.code}: pretrain_pct must be finite, got {self.pretrain_pct}")


def load_language_metadata(
    source: str | TextIO, name: str = "<metadata>"
) -> dict[str, LanguageMeta]:
    """Load the language metadata CSV keyed by language code.

    The header must be exactly code,script,family,train_size,pretrain_pct,
    after one leading UTF-8 byte-order mark, if any, is dropped.
    Duplicate codes and non-numeric sizes are rejected with the offending
    line number: the physical line a row ends on, as a quoted field may
    hold a line break.
    """
    reader = csv.reader(io.StringIO(_text(source, name, MetadataError)))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        raise MetadataError(f"{name}:{reader.line_num}: {exc}") from None
    if not rows:
        raise MetadataError(f"{name}: empty metadata file")
    if tuple(h.strip() for h in rows[0][1]) != METADATA_HEADER:
        raise MetadataError(
            f"{name}:1: header must be {','.join(METADATA_HEADER)}"
        )
    result: dict[str, LanguageMeta] = {}
    for lineno, row in rows[1:]:
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
