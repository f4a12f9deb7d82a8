"""Entity mention replacement for robustness testing.

Every decoded mention in a test sentence is swapped for another surface
of the same entity type, drawn uniformly from a pool built over a scope
group: the language itself, all languages sharing its script, or all
languages sharing its family. The replacement is written back as strict
IOB2 (B-X I-X ...) so adjacent mentions never merge, and tokens outside
mentions are untouched.

One seeded generator drives a whole corpus, consuming exactly one draw
per replaced mention in sentence-then-mention order, which makes runs
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import ENTITY_TYPES, TAG_IDS, Corpus, LanguageMeta, encode_tags
from .errors import EmptyGroupError, MissingMetadataError


class Scope(Enum):
    """Which languages contribute replacement surfaces."""

    IN_LANGUAGE = "in-language"
    IN_SCRIPT = "in-script"
    IN_FAMILY = "in-family"

    @classmethod
    def parse(cls, text: str) -> "Scope":
        for scope in cls:
            if scope.value == text:
                return scope
        raise ValueError(f"unknown scope {text!r}")

    def group_key(self, meta: LanguageMeta) -> str:
        if self is Scope.IN_LANGUAGE:
            return meta.code
        if self is Scope.IN_SCRIPT:
            return meta.script
        return meta.family


SCOPE_NAMES = tuple(s.value for s in Scope)


@dataclass(frozen=True)
class EntityPool:
    """Deduplicated mention surfaces per entity type for one scope group.

    Surfaces keep first-occurrence order over the contributing corpora,
    so a pool is a pure function of its inputs. build_pool makes them
    unique and non-empty, so its pools skip __post_init__'s checks.
    """

    scope: Scope
    group_key: str
    by_type: Mapping[str, tuple[tuple[str, ...], ...]]

    def __post_init__(self):
        for etype, surfaces in self.by_type.items():
            if etype not in ENTITY_TYPES:
                raise ValueError(f"unknown entity type {etype!r}")
            seen = set()
            for surface in surfaces:
                if not surface:
                    raise ValueError(f"{etype}: empty surface")
                if surface in seen:
                    raise ValueError(f"{etype}: duplicate surface {surface}")
                seen.add(surface)

    def size(self) -> int:
        return sum(len(s) for s in self.by_type.values())

    @cached_property
    def positions(self) -> dict[str, dict[tuple[str, ...], int]]:
        """Per entity type, each surface's position in its tuple, kept on the
        immutable pool: build_pool sets it, a pool made by hand builds it."""
        return {
            etype: {surface: i for i, surface in enumerate(surfaces)}
            for etype, surfaces in self.by_type.items()
        }


def build_pool(
    corpora: Sequence[Corpus],
    meta: Mapping[str, LanguageMeta],
    scope: Scope,
    group_key: str,
) -> EntityPool:
    """Collect mention surfaces from the corpora belonging to the group.

    Corpora must be test splits and their languages must resolve in
    meta. A group with no member corpora raises EmptyGroupError.
    """
    missing = {c.language for c in corpora if c.language not in meta}
    if missing:
        raise MissingMetadataError(missing)
    for corpus in corpora:
        if corpus.split != "test":
            raise ValueError(
                f"pools are built from test splits, got {corpus.split!r} "
                f"for {corpus.language}"
            )
    members = [
        c for c in corpora if scope.group_key(meta[c.language]) == group_key
    ]
    if not members:
        raise EmptyGroupError(
            f"no corpora in {scope.value} group {group_key!r}"
        )
    by_type, positions = {}, {}
    for etype in ENTITY_TYPES:
        # one hash per mention: each surface's first occurrence is its
        # position, and the index keeps that order
        index: dict[tuple[str, ...], int] = {}
        for surface in chain.from_iterable(c.mention_surfaces[etype] for c in members):
            index.setdefault(surface, len(index))
        if index:
            by_type[etype], positions[etype] = tuple(index), index
    pool = object.__new__(EntityPool)
    vars(pool).update(scope=scope, group_key=group_key, by_type=by_type,
                      positions=positions)
    return pool


@dataclass(frozen=True)
class ReplacementRecord:
    """Log entry for one mention of one sentence.

    draw_index counts uniform draws over the whole corpus, 0-based, and
    is None for mentions kept because no candidate existed. Spans refer
    to the original sentence.
    """

    sentence_index: int
    start: int
    end: int
    entity_type: str
    original: tuple[str, ...]
    replacement: tuple[str, ...]
    draw_index: int | None
    replaced: bool


def perturb_corpus(
    corpus: Corpus, pool: EntityPool, seed: int
) -> tuple[Corpus, list[ReplacementRecord]]:
    """Swap each mention for a same-type pool surface, in one draw stream.

    Candidates exclude the mention's own surface (exact token match).
    When none remain the mention is kept and the log entry is flagged
    with replaced=False. All mentions, kept or replaced, are re-tagged
    as strict IOB2 in the output. Mentions are taken from the corpus's
    spans, in sentence-then-position order, so the log and the output
    are fully determined by (corpus, pool, seed).

    A draw is O(1): it picks among the surfaces other than the mention's
    own by skipping the own position, which consumes the same draws as
    picking from the list of candidates; the own position comes from
    pool.positions, built once per pool and shared by every corpus
    perturbed against it.
    """
    rng = np.random.default_rng(seed)
    tokens, offsets = corpus.tokens, corpus.offsets
    starts, ends, etypes = corpus.span_bounds()
    owners = np.searchsorted(offsets, starts, side="right") - 1
    mentions = zip(owners.tolist(), offsets[owners].tolist(), starts.tolist(),
                   ends.tolist(), etypes.tolist())
    records: list[ReplacementRecord] = []
    pieces: list[tuple[str, ...]] = []
    cursor = draws = 0
    for index, base, start, end, t in mentions:
        entity_type = ENTITY_TYPES[t]
        surface = tokens[start:end]
        surfaces = pool.by_type.get(entity_type, ())
        own = pool.positions.get(entity_type, {}).get(surface)
        n_candidates = len(surfaces) - (own is not None)
        replaced = n_candidates > 0
        if replaced:
            pick_index = int(rng.integers(n_candidates))
            if own is not None and pick_index >= own:
                pick_index += 1
            pick = surfaces[pick_index]
        else:
            pick = surface
        records.append(ReplacementRecord(index, start - base, end - base, entity_type,
                                         surface, pick, draws if replaced else None, replaced))
        draws += replaced
        pieces += (tokens[cursor:start], pick)
        cursor = end
    pieces.append(tokens[cursor:])
    # each mention moves by the length change of the mentions before it,
    # and a sentence bound by that of the mentions ending at or before it
    lengths = np.array([len(r.replacement) for r in records], dtype=np.int64)
    shift = np.concatenate(([0], np.cumsum(lengths - (ends - starts))))
    new_starts = starts + shift[:-1]
    spans = zip(new_starts.tolist(), (new_starts + lengths).tolist(),
                (r.entity_type for r in records))
    new_offsets = offsets + shift[np.searchsorted(ends, offsets, side="right")]
    tags = map(TAG_IDS.__getitem__, encode_tags(int(new_offsets[-1]), spans))
    return Corpus.from_columns(tuple(chain.from_iterable(pieces)), np.fromiter(tags, np.int8),
                               new_offsets, corpus.language, corpus.split), records


def write_replacement_log(
    records: Iterable[ReplacementRecord], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            # same bytes as dataclasses.asdict (json writes tuples as
            # arrays) without its deep copy of every value
            f.write(json.dumps(vars(record), sort_keys=True) + "\n")
