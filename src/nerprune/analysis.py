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
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import LanguageMeta
from .errors import MissingMetadataError
from .evaluation import STRATEGY_NAMES, RunRecord, aggregate_seeds

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


def seed_mean_f1(
    records: Iterable[RunRecord],
) -> dict[tuple[str, int, str, str], float]:
    """Per-language F1 averaged over seeds, keyed like aggregate_seeds."""
    return {key: stats.mean for key, stats in aggregate_seeds(records).items()}


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


def _grouped_f1(
    means: Mapping[tuple[str, int, str, str], float],
    meta: Mapping[str, LanguageMeta],
    dim: GroupDimension,
) -> dict[tuple[int, str, str], dict[object, list[float]]]:
    """Seed-mean F1 values per (sparsity, strategy, split) cell and group,
    then an "all" entry over every language of the cell. Values keep the
    order of means, so sums over them do not depend on the grouping.
    Languages missing from meta raise MissingMetadataError."""
    missing = {lang for (lang, _, _, _) in means if lang not in meta}
    if missing:
        raise MissingMetadataError(missing)
    cells: dict[tuple[int, str, str], dict[object, list[float]]] = {}
    every: dict[tuple[int, str, str], list[float]] = {}
    for (lang, sparsity, strategy, split), value in means.items():
        cell_key = (sparsity, strategy, split)
        cells.setdefault(cell_key, {}).setdefault(dim.key(meta[lang]), []).append(value)
        every.setdefault(cell_key, []).append(value)
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
        for cell_key, groups in _grouped_f1(seed_mean_f1(records), meta, dim).items()
    }


def _merge_count(ys: list) -> int:
    """Strict inversions of ys via bottom-up merge sort."""
    items = list(ys)
    n = len(items)
    buffer = [None] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if items[j] < items[i]:
                    buffer[k] = items[j]
                    inversions += mid - i
                    j += 1
                else:
                    buffer[k] = items[i]
                    i += 1
                k += 1
            buffer[k:hi] = items[i:mid] if i < mid else items[j:hi]
            items[lo:hi] = buffer[lo:hi]
        width *= 2
    return inversions


def _tie_pairs(values: Iterable) -> int:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def kendall_tau(
    xs: Sequence[float], ys: Sequence[float], tie_correction: bool = True
) -> float | None:
    """Kendall rank correlation via sort and merge counting.

    With tie_correction (the default) this is the tie-corrected variant
    whose denominator shrinks with tied pairs; without it the plain
    pair-count denominator n(n-1)/2 is used. Returns None when the
    tie-corrected denominator vanishes, i.e. one side is fully tied.
    Requires len(xs) == len(ys) >= 2.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observations")
    pairs = sorted(zip(xs, ys))
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs)
    n2 = _tie_pairs(ys)
    n3 = _tie_pairs(pairs)
    # sorting by (x, y) makes within-x-group pairs non-inverted, so the
    # merge count is exactly the strictly discordant pair count
    discordant = _merge_count([y for _, y in pairs])
    concordant = n0 - n1 - n2 + n3 - discordant
    numerator = concordant - discordant
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
    regular F1, and summary.json. Numbers are fixed to 4 decimal places
    and rows are sorted, so identical inputs give identical bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregated = aggregate_seeds(records)
    means = {key: stats.mean for key, stats in aggregated.items()}
    grouped = {dim: _grouped_f1(means, meta, dim) for dim in GroupDimension}
    written = []

    rows = [
        (lang, sparsity, strategy, split,
         _fmt(stats.mean), _fmt(stats.std), stats.n)
        for (lang, sparsity, strategy, split), stats in sorted(aggregated.items())
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

    rows = []
    for (lang, sparsity, strategy, split), value in sorted(means.items()):
        if sparsity == 0:
            continue
        dense = means.get((lang, 0, strategy, split))
        if dense is None:
            continue
        rows.append((
            lang, sparsity, strategy, split,
            _fmt(dense), _fmt(value),
            _fmt(value - dense), _fmt(relative_delta(value, dense)),
        ))
    path = out_dir / "deltas.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "dense_f1", "sparse_f1", "abs_delta", "rel_delta"), rows)
    written.append(path)

    rows = []
    for (lang, sparsity, strategy, split), value in sorted(means.items()):
        if split == "regular":
            continue
        regular = means.get((lang, sparsity, strategy, "regular"))
        if regular is None:
            continue
        rows.append((
            lang, sparsity, strategy, split,
            _fmt(regular), _fmt(value),
            _fmt(robustness_ratio(value, regular)),
        ))
    path = out_dir / "ratios.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "regular_f1", "perturbed_f1", "ratio"), rows)
    written.append(path)

    if overlaps is not None:
        rows = []
        for lang in sorted(overlaps):
            dense = None
            for strategy in STRATEGY_NAMES:
                dense = means.get((lang, 0, strategy, "regular"))
                if dense is not None:
                    break
            rows.append((lang, _fmt(overlaps[lang]), _fmt(dense)))
        path = out_dir / "overlap_f1.csv"
        _write_csv(path, ("language", "entity_overlap", "dense_f1"), rows)
        written.append(path)

    overall: dict[str, dict] = {}
    for (lang, sparsity, strategy, split), value in means.items():
        overall.setdefault(split, {}).setdefault(strategy, {}).setdefault(
            str(sparsity), []
        ).append(value)
    summary = {
        "n_records": len(records),
        "languages": sorted({r.language for r in records}),
        "sparsity_levels": sorted({r.sparsity for r in records}),
        "strategies": sorted({r.strategy for r in records}),
        "splits": sorted({r.split for r in records}),
        "mean_f1": {
            split: {
                strategy: {
                    sparsity: round(sum(vals) / len(vals), 4)
                    for sparsity, vals in sorted(by_sparsity.items())
                }
                for strategy, by_sparsity in sorted(by_strategy.items())
            }
            for split, by_strategy in sorted(overall.items())
        },
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
