"""Aggregation and reporting over run records.

All statistics work on per-language F1 values that were first averaged
across seeds. Groupings come from the language metadata table: training
set size bucket, language family, or script. Undefined quantities (a
ratio against zero, a correlation on fully tied data) come back as None
rather than a made-up number.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .corpus import LanguageMeta
from .errors import MetadataError, MissingMetadataError
from .evaluation import STRATEGY_NAMES, RunRecord

ALL_GROUP = "all"


class GroupDimension(Enum):
    SIZE = "size"
    FAMILY = "family"
    SCRIPT = "script"

    @classmethod
    def parse(cls, text: str) -> "GroupDimension":
        for dim in cls:
            if dim.value == text:
                return dim
        raise ValueError(f"unknown dimension {text!r}")

    def key(self, meta: LanguageMeta):
        if self is GroupDimension.SIZE:
            return meta.train_size
        if self is GroupDimension.FAMILY:
            return meta.family
        return meta.script


def relative_delta(sparse_f1: float, dense_f1: float) -> float | None:
    """(sparse - dense) / dense, or None when the dense score is 0."""
    if dense_f1 == 0:
        return None
    return (sparse_f1 - dense_f1) / dense_f1


def robustness_ratio(perturbed_f1: float, regular_f1: float) -> float | None:
    """perturbed / regular, or None when the regular score is 0."""
    if regular_f1 == 0:
        return None
    return perturbed_f1 / regular_f1


def _stat(values: Sequence[float], stat: str) -> float:
    n = len(values)
    if stat == "mean":
        return sum(values) / n
    if stat == "median":
        ordered = sorted(values)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2
    if stat == "std":
        mean = sum(values) / n
        return math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    raise ValueError(f"unknown stat {stat!r}")


@dataclass(frozen=True)
class SeedStats:
    """F1 aggregate across seeds: mean, population std, sample count."""

    mean: float
    std: float
    n: int


GroupKey = tuple[str, int, str, str]


def aggregate_seeds(records: Iterable[RunRecord]) -> dict[GroupKey, SeedStats]:
    """Aggregate F1 across seeds per (language, sparsity, strategy, split),
    keyed in the order the keys first occur in records."""
    groups: dict[GroupKey, list[float]] = {}
    for r in records:
        groups.setdefault((r.language, r.sparsity, r.strategy, r.split), []).append(
            r.report.f1)
    return {key: SeedStats(_stat(values, "mean"), _stat(values, "std"), len(values))
            for key, values in groups.items()}


def _grouped_f1(
    stats: Mapping[GroupKey, SeedStats],
    meta: Mapping[str, LanguageMeta],
    dim: GroupDimension,
) -> dict[tuple[int, str, str], dict[object, list[float]]]:
    """Seed-mean F1 values per (sparsity, strategy, split) cell and group,
    then an "all" entry over every language of the cell. Values keep the
    order of stats, so sums over them do not depend on the grouping.
    Languages missing from meta raise MissingMetadataError, and a language
    whose group is named "all" raises MetadataError."""
    missing = {lang for (lang, _, _, _) in stats if lang not in meta}
    if missing:
        raise MissingMetadataError(missing)
    cells: dict[tuple[int, str, str], dict[object, list[float]]] = {}
    every: dict[tuple[int, str, str], list[float]] = {}
    for (lang, sparsity, strategy, split), entry in stats.items():
        group = dim.key(meta[lang])
        if group == ALL_GROUP:
            raise MetadataError(
                f"language {lang!r}: {dim.value} {ALL_GROUP!r} is reserved "
                "for the group of every language")
        cell_key = (sparsity, strategy, split)
        cells.setdefault(cell_key, {}).setdefault(group, []).append(entry.mean)
        every.setdefault(cell_key, []).append(entry.mean)
    for cell_key, values in every.items():
        cells[cell_key][ALL_GROUP] = values
    return cells


def group_stats(
    records: Iterable[RunRecord],
    meta: Mapping[str, LanguageMeta],
    dim: GroupDimension,
    stat: str = "mean",
) -> dict[tuple[int, str, str], dict]:
    """Per-group statistic of seed-mean F1.

    Returns, for every (sparsity, strategy, split) present in the
    records, a mapping from group key to the statistic over the group's
    languages, plus an "all" entry over every language. Languages
    missing from meta raise MissingMetadataError.
    """
    return {
        cell_key: {group: _stat(values, stat) for group, values in groups.items()}
        for cell_key, groups in _grouped_f1(aggregate_seeds(records), meta, dim).items()
    }


def kendall_tau(
    xs: Sequence[float], ys: Sequence[float], tie_correction: bool = True
) -> float | None:
    """Kendall rank correlation by visiting every pair once.

    With tie_correction (the default) this is the tie-corrected variant
    whose denominator shrinks with tied pairs; without it the plain
    pair-count denominator n(n-1)/2 is used. Returns None when the
    tie-corrected denominator vanishes, i.e. one side is fully tied.
    Requires len(xs) == len(ys) >= 2. O(n^2) is enough: callers pass one
    value per language.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observations")
    n0 = n * (n - 1) // 2
    n1 = n2 = numerator = 0  # x-tied pairs, y-tied pairs, concordant - discordant
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            n1 += not dx
            n2 += not dy
            numerator += dx * dy
    if tie_correction:
        denominator_sq = (n0 - n1) * (n0 - n2)
        if denominator_sq == 0:
            return None
        return numerator / math.sqrt(denominator_sq)
    if n1 == n0 or n2 == n0:
        return None
    return numerator / n0


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _pairs(
    stats: Mapping[GroupKey, SeedStats], base_key: Callable[[GroupKey], GroupKey]
) -> Iterator[tuple[GroupKey, float, float]]:
    """(key, base mean, mean) for each seed-mean in key order whose base
    key, base_key(key), is another key with a seed-mean. A key that is its
    own base (a dense run for deltas, a regular split for ratios) gets no
    row."""
    for key, entry in sorted(stats.items()):
        base = base_key(key)
        if base != key and base in stats:
            yield key, stats[base].mean, entry.mean


def emit_report(
    records: Sequence[RunRecord],
    meta: Mapping[str, LanguageMeta],
    out_dir: str | Path,
    overlaps: Mapping[str, float] | None = None,
) -> list[Path]:
    """Write the CSV tables and JSON summary for a result set.

    Produces per_language.csv, by_size.csv, by_family.csv, by_script.csv,
    deltas.csv (absolute and relative change against the dense run of the
    same strategy), ratios.csv (perturbed over regular per scope), an
    optional overlap_f1.csv pairing train/test entity overlap with dense
    regular F1, and summary.json, whose mean_f1 is the "all" group's mean.
    Numbers are fixed to 4 decimal places and rows are sorted, so
    identical inputs give identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregated = aggregate_seeds(records)
    grouped = {dim: _grouped_f1(aggregated, meta, dim) for dim in GroupDimension}
    written = []

    rows = [
        (*key, _fmt(stats.mean), _fmt(stats.std), stats.n)
        for key, stats in sorted(aggregated.items())
    ]
    path = out_dir / "per_language.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "mean_f1", "std_f1", "n_seeds"), rows)
    written.append(path)

    for dim, cells in grouped.items():
        rows = [
            (group_key, *cell_key,
             _fmt(_stat(values, "mean")), _fmt(_stat(values, "median")),
             _fmt(_stat(values, "std")), len(values))
            for cell_key, groups in sorted(cells.items())
            for group_key, values in sorted(groups.items(), key=lambda kv: str(kv[0]))
        ]
        path = out_dir / f"by_{dim.value}.csv"
        _write_csv(path, ("group", "sparsity", "strategy", "split",
                          "mean_f1", "median_f1", "std_f1", "n_languages"), rows)
        written.append(path)

    rows = [
        (*key, _fmt(dense), _fmt(sparse), _fmt(sparse - dense),
         _fmt(relative_delta(sparse, dense)))
        for key, dense, sparse in _pairs(
            aggregated, lambda key: (key[0], 0, key[2], key[3]))
    ]
    path = out_dir / "deltas.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "dense_f1", "sparse_f1", "abs_delta", "rel_delta"), rows)
    written.append(path)

    rows = [
        (*key, _fmt(regular), _fmt(perturbed),
         _fmt(robustness_ratio(perturbed, regular)))
        for key, regular, perturbed in _pairs(
            aggregated, lambda key: (key[0], key[1], key[2], "regular"))
    ]
    path = out_dir / "ratios.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "regular_f1", "perturbed_f1", "ratio"), rows)
    written.append(path)

    if overlaps is not None:
        rows = []
        for lang in sorted(overlaps):
            dense = None
            for strategy in STRATEGY_NAMES:
                key = (lang, 0, strategy, "regular")
                if key in aggregated:
                    dense = aggregated[key].mean
                    break
            rows.append((lang, _fmt(overlaps[lang]), _fmt(dense)))
        path = out_dir / "overlap_f1.csv"
        _write_csv(path, ("language", "entity_overlap", "dense_f1"), rows)
        written.append(path)

    mean_f1: dict[str, dict] = {}
    for (sparsity, strategy, split), groups in grouped[GroupDimension.SIZE].items():
        mean_f1.setdefault(split, {}).setdefault(strategy, {})[str(sparsity)] = round(
            _stat(groups[ALL_GROUP], "mean"), 4)
    summary = {
        "n_records": len(records),
        "languages": sorted({r.language for r in records}),
        "sparsity_levels": sorted({r.sparsity for r in records}),
        "strategies": sorted({r.strategy for r in records}),
        "splits": sorted({r.split for r in records}),
        "mean_f1": mean_f1,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
