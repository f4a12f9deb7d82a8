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
from itertools import count, repeat
from operator import sub
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import LanguageMeta
from .errors import MetadataError, MissingMetadataError
from .evaluation import STRATEGY_NAMES, RunRecord, RunTable

ALL_GROUP = "all"


class GroupDimension(Enum):
    SIZE = "size"
    FAMILY = "family"
    SCRIPT = "script"

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


def _ids(keys: Iterable[Hashable]) -> tuple[dict, np.ndarray]:
    """Each distinct key mapped to its id, in order of first occurrence,
    and the id of each key."""
    keys = list(keys)
    ids = dict(zip(dict.fromkeys(keys), count()))
    return ids, np.array(list(map(ids.__getitem__, keys)), dtype=np.intp)


def _stats(ids: np.ndarray, values: np.ndarray, size: int) -> list[np.ndarray]:
    """Count, mean, median and population std of the values of each id in
    range(size), every id present. Sums add the values in order from 0.0,
    as Python 3.11's sum() does, and each squared deviation is Python's
    (v - mean) ** 2, whose pow can round otherwise than a product."""
    n = np.bincount(ids, minlength=size)
    mean = np.bincount(ids, values, size) / n
    deviations = (values - mean[ids]).tolist()
    squares = np.fromiter(map(pow, deviations, repeat(2)), np.float64, len(deviations))
    ordered = values[np.lexsort((values, ids))]
    mid = np.cumsum(n) - n + n // 2
    median = np.where(n % 2, ordered[mid], (ordered[mid - 1] + ordered[mid]) / 2)
    return [n, mean, median, np.sqrt(np.bincount(ids, squares, size) / n)]


GroupKey = tuple[str, int, str, str]


def _seed_stats(records: RunTable | Iterable[RunRecord]):
    """Each (language, sparsity, strategy, split) of records mapped to its
    index, in order of first occurrence, and per index the seed count,
    mean, median and population std of F1."""
    if not isinstance(records, RunTable):
        records = RunTable.from_records(records)
    ids, key_ids = _ids(zip(records.language, records.sparsity, records.strategy,
                            records.split))
    return [ids, *_stats(key_ids, records.f1, len(ids))]


def _grouped(keys: Sequence[GroupKey], means: np.ndarray,
             meta: Mapping[str, LanguageMeta], dims: Iterable[GroupDimension]) -> dict:
    """Per dimension, ((sparsity, strategy, split), group) labels in order
    of first occurrence, then each cell's "all" group, and the _stats of
    the seed-means under each label, which keep the order of keys. A
    language missing from meta raises MissingMetadataError, and one whose
    group is named "all" MetadataError."""
    languages = [key[0] for key in keys]
    missing = {lang for lang in languages if lang not in meta}
    if missing:
        raise MissingMetadataError(missing)
    cells, cell_ids = _ids(key[1:] for key in keys)
    cell_keys = list(cells)
    every = _stats(cell_ids, means, len(cells))
    grouped = {}
    for dim in dims:
        group_of = {lang: dim.key(meta[lang]) for lang in dict.fromkeys(languages)}
        for lang, group in group_of.items():
            if group == ALL_GROUP:
                raise MetadataError(
                    f"language {lang!r}: {dim.value} {ALL_GROUP!r} is reserved "
                    "for the group of every language")
        groups, group_ids = _ids(zip(cell_ids.tolist(), map(group_of.__getitem__, languages)))
        labels = [(cell_keys[c], group) for c, group in groups]
        grouped[dim] = (labels + [(cell, ALL_GROUP) for cell in cell_keys], *map(
            np.concatenate, zip(_stats(group_ids, means, len(groups)), every)))
    return grouped


def group_stats(
    records: RunTable | Iterable[RunRecord],
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
    ids, _, means, _, _ = _seed_stats(records)
    labels, _, *columns = _grouped(list(ids), means, meta, [dim])[dim]
    column = dict(zip(("mean", "median", "std"), columns)).get(stat)
    if column is None:
        raise ValueError(f"unknown stat {stat!r}")
    cells: dict[tuple[int, str, str], dict] = {}
    for (cell, group), value in zip(labels, column.tolist()):
        cells.setdefault(cell, {})[group] = value
    return cells


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


def _fmt(values: Iterable[float | None]) -> list[str]:
    """Each value to 4 decimal places, None to an empty field."""
    return ["" if value is None else f"{value:.4f}" for value in values]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(
    records: RunTable | Iterable[RunRecord],
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
    ids, n_seeds, means, _, stds = _seed_stats(records)
    keys = list(ids)
    grouped = _grouped(keys, means, meta, GroupDimension)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    mean_list = means.tolist()
    mean_text = _fmt(mean_list)
    written = []

    std_text = _fmt(stds.tolist())
    counts = n_seeds.tolist()
    path = out_dir / "per_language.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "mean_f1", "std_f1", "n_seeds"),
               [(*keys[i], mean_text[i], std_text[i], counts[i]) for i in order])
    written.append(path)

    for dim, (labels, n, *columns) in grouped.items():
        mean, median, std = (_fmt(column.tolist()) for column in columns)
        counts = n.tolist()
        path = out_dir / f"by_{dim.value}.csv"
        _write_csv(path, ("group", "sparsity", "strategy", "split",
                          "mean_f1", "median_f1", "std_f1", "n_languages"),
                   [(labels[i][1], *labels[i][0], mean[i], median[i], std[i], counts[i])
                    for i in sorted(range(len(labels)),
                                    key=lambda i: (labels[i][0], str(labels[i][1])))])
        written.append(path)

    def pairs(base_key: Callable[[GroupKey], GroupKey]) -> tuple[list, list, list]:
        """(index, base index) of each key, in key order, whose base_key is
        another key, and the means of both; a key that is its own base (a
        dense run for deltas, a regular split for ratios) gets no row."""
        found = ((i, ids.get(base_key(keys[i]))) for i in order)
        found = [(i, base) for i, base in found if base is not None and base != i]
        return (found, [mean_list[i] for i, _ in found],
                [mean_list[base] for _, base in found])

    found, sparse, dense = pairs(lambda key: (key[0], 0, key[2], key[3]))
    path = out_dir / "deltas.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "dense_f1", "sparse_f1", "abs_delta", "rel_delta"),
               [(*keys[i], mean_text[base], mean_text[i], delta, relative)
                for (i, base), delta, relative in zip(
                    found, _fmt(map(sub, sparse, dense)),
                    _fmt(map(relative_delta, sparse, dense)))])
    written.append(path)

    found, perturbed, regular = pairs(lambda key: (key[0], key[1], key[2], "regular"))
    path = out_dir / "ratios.csv"
    _write_csv(path, ("language", "sparsity", "strategy", "split",
                      "regular_f1", "perturbed_f1", "ratio"),
               [(*keys[i], mean_text[base], mean_text[i], ratio)
                for (i, base), ratio in zip(
                    found, _fmt(map(robustness_ratio, perturbed, regular)))])
    written.append(path)

    if overlaps is not None:
        languages = sorted(overlaps)
        dense = []
        for lang in languages:
            found = (ids.get((lang, 0, strategy, "regular")) for strategy in STRATEGY_NAMES)
            dense.append(next((mean_list[i] for i in found if i is not None), None))
        path = out_dir / "overlap_f1.csv"
        _write_csv(path, ("language", "entity_overlap", "dense_f1"),
                   zip(languages, _fmt(map(overlaps.__getitem__, languages)), _fmt(dense)))
        written.append(path)

    # the "all" groups are the same in every dimension
    labels, _, mean, *_ = grouped[GroupDimension.SIZE]
    mean_f1: dict[str, dict] = {}
    for ((sparsity, strategy, split), group), value in zip(labels, mean.tolist()):
        if group == ALL_GROUP:
            mean_f1.setdefault(split, {}).setdefault(strategy, {})[
                str(sparsity)] = round(value, 4)
    summary = {
        "n_records": int(n_seeds.sum()),
        "languages": sorted({key[0] for key in keys}),
        "sparsity_levels": sorted({key[1] for key in keys}),
        "strategies": sorted({key[2] for key in keys}),
        "splits": sorted({key[3] for key in keys}),
        "mean_f1": mean_f1,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
