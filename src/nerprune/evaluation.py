"""Entity-level scoring and per-run result records.

Scores are micro-averaged over exact-match mentions: a predicted mention
counts as a true positive only when its span boundaries and type both
match a gold mention of the same sentence. Precision, recall and F1 fall
back to 0 whenever their denominator is 0.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import ENTITY_TYPES, TAG_IDS, Corpus, decode_span_ids
from .errors import AlignmentError, ConfigError, TagError
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


def score_ids(gold_spans: np.ndarray, tag_ids: np.ndarray, offsets: np.ndarray,
              starts: np.ndarray | None = None) -> list[ScoreReport]:
    """Score predicted tag ids against gold span keys of decode_span_ids
    over the same positions and offsets: one report per group of
    sentences starts[g]:starts[g + 1], or one of all the sentences when
    starts is None."""
    t = len(ENTITY_TYPES)
    firsts = offsets[:1] if starts is None else offsets[starts[:-1]]
    predicted = decode_span_ids(tag_ids, offsets)
    hits = np.intersect1d(gold_spans, predicted, assume_unique=True)
    def counts(keys):
        # a key // ((N + 1) * T) is its span's start; of groups that share a
        # first position, all but the last are empty
        group = np.searchsorted(firsts, keys // ((tag_ids.size + 1) * t), side="right") - 1
        return np.bincount(group * t + keys % t, minlength=len(firsts) * t).reshape(-1, t)
    tp = counts(hits)
    fp = counts(predicted) - tp
    fn = counts(gold_spans) - tp
    return [ScoreReport.from_counts(dict(zip(ENTITY_TYPES, zip(*rows))))
            for rows in zip(tp.tolist(), fp.tolist(), fn.tolist())]


def score_corpus(gold: Corpus, predicted: Sequence[Sequence[str]]) -> ScoreReport:
    """Score predicted tag sequences against a gold corpus.

    predicted holds one tag sequence per gold sentence, aligned by index
    and by token count. Ill-formed IOB2 is accepted on both sides and
    decoded leniently. Misaligned predictions raise AlignmentError,
    unknown predicted tags TagError.
    """
    if len(predicted) != len(gold):
        raise AlignmentError(
            f"{len(predicted)} predictions for {len(gold)} sentences"
        )
    lengths = np.diff(gold.offsets)
    found = np.fromiter(map(len, predicted), dtype=np.int64, count=len(predicted))
    pred_ids = list(map(TAG_IDS.get, chain.from_iterable(predicted)))
    if None in pred_ids or not np.array_equal(found, lengths):
        # walk the sentences to name the first bad one
        for idx, (n, tags) in enumerate(zip(lengths.tolist(), predicted)):
            if len(tags) != n:
                raise AlignmentError(
                    f"sentence {idx}: {len(tags)} predicted tags for {n} tokens")
            for tag in tags:
                if tag not in TAG_IDS:
                    raise TagError(f"sentence {idx}: unknown predicted tag {tag!r}")
    return score_ids(gold.spans, np.array(pred_ids, dtype=np.int64), gold.offsets)[0]


# (key, accepted types, what the TypeError calls them) of every field a
# record's JSON dict must carry, in the order they are checked; a bool is
# never accepted, although it is an int
_RECORD_FIELDS = (
    *((key, int, "an integer") for key in ("sparsity", "seed", "tp", "fp", "fn")),
    *((key, (int, float), "a real number") for key in ("precision", "recall", "f1")),
    *((key, str, "a string") for key in ("language", "strategy", "split")),
)
# a decoded line's field values, in _RECORD_FIELDS order
_record_values = itemgetter(*(key for key, _, _ in _RECORD_FIELDS))
# the exact types of each field's column: JSON yields only exact int,
# float, str and bool, so these accept what from_json_dict accepts
_COLUMN_TYPES = tuple(frozenset(kind if isinstance(kind, tuple) else (kind,))
                      for _, kind, _ in _RECORD_FIELDS)
_scan_json = json.JSONDecoder().scan_once


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
        values = {}
        for key, kind, what in _RECORD_FIELDS:
            value = data[key]
            if type(value) is bool or not isinstance(value, kind):
                raise TypeError(f"{key} must be {what}, got {value!r}")
            values[key] = value
        report = ScoreReport(values["tp"], values["fp"], values["fn"],
                             values["precision"], values["recall"], values["f1"])
        return cls(values["language"], values["sparsity"], values["strategy"],
                   values["seed"], values["split"], report)


@dataclass(frozen=True, eq=False)
class RunTable:
    """Run records as columns, in record order: a tuple for each key and
    count column, a float64 array for each score. Iterating or indexing
    a table builds RunRecords one at a time."""

    language: tuple[str, ...]
    sparsity: tuple[int, ...]
    strategy: tuple[str, ...]
    seed: tuple[int, ...]
    split: tuple[str, ...]
    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    def __len__(self) -> int:
        return len(self.language)

    def __getitem__(self, i: int) -> RunRecord:
        report = ScoreReport(self.tp[i], self.fp[i], self.fn[i], float(self.precision[i]),
                             float(self.recall[i]), float(self.f1[i]))
        return RunRecord(self.language[i], self.sparsity[i], self.strategy[i],
                         self.seed[i], self.split[i], report)

    def __iter__(self) -> Iterator[RunRecord]:
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "RunTable":
        return _table(list(zip(*(_record_values(r.to_json_dict()) for r in records))))


def _table(columns: list[tuple]) -> RunTable:
    """The table of columns of field values in _RECORD_FIELDS order."""
    sparsity, seed, tp, fp, fn, precision, recall, f1, language, strategy, split = (
        columns or [()] * len(_RECORD_FIELDS))
    return RunTable(language, sparsity, strategy, seed, split, tp, fp, fn,
                    *np.array((precision, recall, f1), dtype=np.float64))


def _bulk_table(lines: Iterable[str]) -> RunTable | None:
    """The records in the lines of a results file, or None when a line is
    not a valid record or not UTF-8, or two records share a key. Each
    line is decoded by one call of json's C scanner and cut to its row at
    once, so no decoded dict outlives its line; each field is then
    checked once over its column."""
    rows = []
    try:
        for line in lines:
            line = line.strip()
            if line:
                data, end = _scan_json(line, 0)
                if end != len(line):
                    return None
                rows.append(_record_values(data))
    except (StopIteration, ValueError, KeyError, TypeError, RecursionError):
        return None
    columns = list(zip(*rows))
    if not all(set(map(type, column)) <= kinds
               for column, kinds in zip(columns, _COLUMN_TYPES)):
        return None
    try:
        t = _table(columns)
    except OverflowError:  # an int too large for a float, so out of range
        return None
    scores = np.concatenate((t.precision, t.recall, t.f1))
    if not (set(t.sparsity) <= set(SPARSITY_LEVELS)
            and set(t.strategy) <= set(STRATEGY_NAMES) and set(t.split) <= set(SPLIT_NAMES)
            and min(t.tp + t.fp + t.fn, default=0) >= 0
            and ((scores >= 0) & (scores <= 1)).all()  # NaN fails too
            and len(set(zip(t.language, t.sparsity, t.strategy, t.seed, t.split))) == len(t)):
        return None
    return t


def _walk_records(path: str | Path) -> list[RunRecord]:
    """read_run_records line by line, raising at the first bad line."""
    records = []
    first_line: dict[tuple, int] = {}
    lineno = 0
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if line:
                    record = RunRecord.from_json_dict(json.loads(line))
                    key = astuple(record)[:5]  # (language, sparsity, strategy, seed, split)
                    first = first_line.setdefault(key, lineno)
                    if first != lineno:
                        raise ConfigError(f"{path}:{lineno}: duplicate record of {key!r}, "
                                          f"first at line {first}")
                    records.append(record)
    except UnicodeDecodeError as exc:
        # text is decoded in blocks, so the line is not known
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}:{lineno}: malformed results file: {detail}") from None
    return records


def read_run_records(path: str | Path) -> RunTable:
    """Read a JSON-lines result file, ignoring unknown extra keys. A line
    that is not a valid record, or that repeats the (language, sparsity,
    strategy, seed, split) of an earlier one, is a ConfigError that names
    its path and line number."""
    with open(path, encoding="utf-8") as f:
        table = _bulk_table(f)
    # the walk raises the error of the first bad line or bad text
    return RunTable.from_records(_walk_records(path)) if table is None else table
