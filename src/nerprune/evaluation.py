"""Entity-level scoring and per-run result records.

Scores are micro-averaged over exact-match mentions: a predicted mention
counts as a true positive only when its span boundaries and type both
match a gold mention of the same sentence. Precision, recall and F1 fall
back to 0 whenever their denominator is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import ENTITY_TYPES, TAG_IDS, TAGSET, Corpus
from .errors import AlignmentError, TagError
from .perturb import SCOPE_NAMES
from .pruning import PruneStrategy

STRATEGY_NAMES = tuple(s.value for s in PruneStrategy)
SPLIT_NAMES = ("regular",) + tuple(f"perturbed-{s}" for s in SCOPE_NAMES)
SPARSITY_LEVELS = (0, 50, 70, 80, 90, 95, 98)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class ScoreReport:
    """Micro-averaged counts and scores, optionally broken down by type.

    per_type is None for reports read back from the wire format, which
    only carries the totals.
    """

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_type: Mapping[str, tuple[int, int, int]] | None = None

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("negative counts")
        for name in ("precision", "recall", "f1"):
            value = getattr(self, name)
            if not 0 <= value <= 1:  # NaN fails this too
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.per_type is not None:
            sums = [0, 0, 0]
            for counts in self.per_type.values():
                for i in range(3):
                    sums[i] += counts[i]
            if (self.tp, self.fp, self.fn) != tuple(sums):
                raise ValueError("totals do not match per_type sums")

    @classmethod
    def from_counts(cls, per_type: Mapping[str, tuple[int, int, int]]) -> "ScoreReport":
        tp = sum(c[0] for c in per_type.values())
        fp = sum(c[1] for c in per_type.values())
        fn = sum(c[2] for c in per_type.values())
        precision, recall, f1 = _prf(tp, fp, fn)
        return cls(tp, fp, fn, precision, recall, f1, dict(per_type))


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


def score_ids(gold_spans: np.ndarray, tag_ids: np.ndarray,
              offsets: np.ndarray) -> ScoreReport:
    """Score predicted tag ids against gold span keys of decode_span_ids
    over the same positions and offsets."""
    t = len(ENTITY_TYPES)
    predicted = decode_span_ids(tag_ids, offsets)
    hits = np.intersect1d(gold_spans, predicted, assume_unique=True)
    tp = np.bincount(hits % t, minlength=t)
    fp = np.bincount(predicted % t, minlength=t) - tp
    fn = np.bincount(gold_spans % t, minlength=t) - tp
    return ScoreReport.from_counts({
        etype: (int(tp[i]), int(fp[i]), int(fn[i]))
        for i, etype in enumerate(ENTITY_TYPES)
    })


def score_corpus(gold: Corpus, predicted: Sequence[Sequence[str]]) -> ScoreReport:
    """Score predicted tag sequences against a gold corpus.

    predicted holds one tag sequence per gold sentence, aligned by index
    and by token count. Ill-formed IOB2 is accepted on both sides and
    decoded leniently. Misaligned predictions raise AlignmentError,
    unknown predicted tags TagError.
    """
    if len(predicted) != len(gold.sentences):
        raise AlignmentError(
            f"{len(predicted)} predictions for {len(gold.sentences)} sentences"
        )
    gold_ids: list[int] = []
    pred_ids: list[int] = []
    lengths: list[int] = []
    for idx, (sent, tags) in enumerate(zip(gold.sentences, predicted)):
        if len(tags) != len(sent):
            raise AlignmentError(
                f"sentence {idx}: {len(tags)} predicted tags "
                f"for {len(sent)} tokens"
            )
        row = [TAG_IDS.get(tag) for tag in tags]
        if None in row:
            unknown = tags[row.index(None)]
            raise TagError(f"sentence {idx}: unknown predicted tag {unknown!r}")
        pred_ids.extend(row)
        gold_ids.extend(TAG_IDS[tag] for tag in sent.tags)
        lengths.append(len(sent))
    offsets = np.concatenate(([0], np.cumsum(np.array(lengths, dtype=np.int64))))
    gold_spans = decode_span_ids(np.array(gold_ids, dtype=np.int64), offsets)
    return score_ids(gold_spans, np.array(pred_ids, dtype=np.int64), offsets)


@dataclass(frozen=True)
class RunRecord:
    """One (language, sparsity, strategy, seed, split) evaluation result."""

    language: str
    sparsity: int
    strategy: str
    seed: int
    split: str
    report: ScoreReport

    def __post_init__(self):
        if self.sparsity not in SPARSITY_LEVELS:
            raise ValueError(
                f"sparsity must be one of {SPARSITY_LEVELS}, got {self.sparsity}"
            )
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {self.split!r}")

    def to_json_dict(self) -> dict:
        r = self.report
        return {
            "language": self.language,
            "sparsity": self.sparsity,
            "strategy": self.strategy,
            "seed": self.seed,
            "split": self.split,
            "tp": r.tp,
            "fp": r.fp,
            "fn": r.fn,
            "precision": r.precision,
            "recall": r.recall,
            "f1": r.f1,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunRecord":
        """A record from its JSON dict. A value not of its field's type is a
        TypeError: 50.7 is not sparsity 50, and true is not F1 1.0."""
        ints = {k: _typed(data, k, int, "an integer")
                for k in ("sparsity", "seed", "tp", "fp", "fn")}
        reals = {k: _typed(data, k, (int, float), "a real number")
                 for k in ("precision", "recall", "f1")}
        strings = {k: _typed(data, k, str, "a string")
                   for k in ("language", "strategy", "split")}
        report = ScoreReport(tp=ints["tp"], fp=ints["fp"], fn=ints["fn"], **reals)
        return cls(sparsity=ints["sparsity"], seed=ints["seed"], report=report, **strings)


def _typed(data: Mapping, key: str, kind, what: str):
    """data[key], which must be of kind and not a bool; never converted."""
    value = data[key]
    if type(value) is bool or not isinstance(value, kind):
        raise TypeError(f"{key} must be {what}, got {value!r}")
    return value


def read_run_records(path: str | Path) -> list[RunRecord]:
    """Read a JSON-lines result file, ignoring unknown extra keys."""
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(RunRecord.from_json_dict(json.loads(line)))
    return records
