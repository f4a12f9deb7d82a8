import csv
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerprune.analysis import (
    GroupDimension,
    aggregate_seeds,
    emit_report,
    group_stats,
    kendall_tau,
    relative_delta,
    robustness_ratio,
)
from nerprune.corpus import LanguageMeta
from nerprune.errors import MetadataError, MissingMetadataError
from nerprune.evaluation import RunRecord, ScoreReport
from oracles import oracle_tau

META = {
    "aa": LanguageMeta("aa", "Latin", "Fam1", 100, 0.1),
    "bb": LanguageMeta("bb", "Latin", "Fam2", 1000, 0.2),
    "cc": LanguageMeta("cc", "Greek", "Fam1", 100, 0.3),
}


def record(lang, sparsity, f1, strategy="partial", seed=0, split="regular"):
    return RunRecord(
        lang, sparsity, strategy, seed, split, ScoreReport(0, 0, 0, f1, f1, f1)
    )


def test_dimension_parse_and_keys():
    assert GroupDimension.parse("family") is GroupDimension.FAMILY
    with pytest.raises(ValueError, match="unknown dimension"):
        GroupDimension.parse("region")
    meta = META["bb"]
    assert GroupDimension.SIZE.key(meta) == 1000
    assert GroupDimension.FAMILY.key(meta) == "Fam2"
    assert GroupDimension.SCRIPT.key(meta) == "Latin"


def test_delta_and_ratio_conventions():
    assert relative_delta(0.55, 0.5) == pytest.approx(0.1)
    assert relative_delta(0.5, 0.0) is None
    assert robustness_ratio(0.3, 0.6) == pytest.approx(0.5)
    assert robustness_ratio(0.3, 0.0) is None


def test_seed_mean_averages_over_seeds_only():
    records = [
        record("aa", 50, 0.4, seed=0),
        record("aa", 50, 0.6, seed=1),
        record("aa", 70, 0.2, seed=0),
    ]
    stats = aggregate_seeds(records)
    assert stats[("aa", 50, "partial", "regular")].mean == pytest.approx(0.5)
    assert stats[("aa", 70, "partial", "regular")].mean == pytest.approx(0.2)


def test_group_stats_by_each_dimension():
    records = [
        record("aa", 50, 0.2),
        record("bb", 50, 0.4),
        record("cc", 50, 0.9),
    ]
    cell = (50, "partial", "regular")
    by_size = group_stats(records, META, GroupDimension.SIZE)[cell]
    assert by_size[100] == pytest.approx((0.2 + 0.9) / 2)
    assert by_size[1000] == pytest.approx(0.4)
    assert by_size["all"] == pytest.approx(0.5)
    by_family = group_stats(records, META, GroupDimension.FAMILY)[cell]
    assert by_family["Fam1"] == pytest.approx((0.2 + 0.9) / 2)
    by_script = group_stats(records, META, GroupDimension.SCRIPT, "median")[cell]
    assert by_script["Latin"] == pytest.approx(0.3)
    stds = group_stats(records, META, GroupDimension.SCRIPT, "std")[cell]
    assert stds["Latin"] == pytest.approx(0.1)


def test_group_stats_median_of_even_and_odd_counts():
    records = [
        record("aa", 0, 0.1),
        record("bb", 0, 0.2),
        record("cc", 0, 0.7),
    ]
    cells = group_stats(records, META, GroupDimension.SIZE, "median")
    assert cells[(0, "partial", "regular")]["all"] == pytest.approx(0.2)
    cells = group_stats(records[:2], META, GroupDimension.SIZE, "median")
    assert cells[(0, "partial", "regular")]["all"] == pytest.approx(0.15)


def test_group_stats_requires_metadata():
    with pytest.raises(MissingMetadataError) as info:
        group_stats([record("zz", 0, 0.5)], META, GroupDimension.SIZE)
    assert "zz" in str(info.value)


def test_group_named_all_is_rejected_under_its_dimension_only():
    meta = {**META, "aa": LanguageMeta("aa", "Latin", "all", 100, 0.1)}
    records = [record("aa", 50, 0.2), record("bb", 50, 0.8)]
    with pytest.raises(MetadataError, match="'aa'"):
        group_stats(records, meta, GroupDimension.FAMILY)
    by_script = group_stats(records, meta, GroupDimension.SCRIPT)
    assert by_script[(50, "partial", "regular")]["all"] == pytest.approx(0.5)


def test_tau_on_known_sequences():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)
    assert kendall_tau([1, 1, 2], [1, 2, 3], tie_correction=False) == pytest.approx(2 / 3)


def test_tau_handles_fully_tied_sides():
    assert kendall_tau([1, 1, 1], [1, 2, 3]) is None
    assert kendall_tau([1, 1, 1], [1, 2, 3], tie_correction=False) is None


def test_tau_input_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        kendall_tau([1, 2], [1])
    with pytest.raises(ValueError, match="at least two"):
        kendall_tau([1], [1])


# small ints, or floats with ties between -0.0 and 0.0
TIED_VALUES = (st.integers(0, 5), st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]))


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.sampled_from(TIED_VALUES).flatmap(
        lambda values: st.lists(st.tuples(values, values), min_size=2, max_size=30)
    ),
    tie_correction=st.booleans(),
)
def test_tau_matches_pair_counting_exactly(pairs, tie_correction):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    assert kendall_tau(xs, ys, tie_correction) == oracle_tau(xs, ys, tie_correction)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=20))
def test_tau_is_symmetric_under_swap(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    assert kendall_tau(xs, ys) == kendall_tau(ys, xs)


REPORT_RECORDS = [
    record("aa", 0, 0.8),
    record("aa", 0, 0.9, seed=1),
    record("aa", 50, 0.68),
    record("aa", 50, 0.72, seed=1),
    record("aa", 0, 0.6, split="perturbed-in-language"),
    record("aa", 50, 0.3, split="perturbed-in-language"),
    record("bb", 0, 0.5),
    record("bb", 50, 0.55),
]


def test_report_files_and_contents(tmp_path):
    written = emit_report(REPORT_RECORDS, META, tmp_path, overlaps={"aa": 0.42})
    names = {p.name for p in written}
    assert names == {
        "per_language.csv", "by_size.csv", "by_family.csv", "by_script.csv",
        "deltas.csv", "ratios.csv", "overlap_f1.csv", "summary.json",
    }
    deltas = (tmp_path / "deltas.csv").read_text().splitlines()
    row = next(line for line in deltas if line.startswith("aa,50,partial,regular"))
    assert row.split(",")[4:] == ["0.8500", "0.7000", "-0.1500", "-0.1765"]
    ratios = (tmp_path / "ratios.csv").read_text().splitlines()
    row = next(line for line in ratios if line.startswith("aa,50"))
    assert row.split(",")[-1] == "0.4286"
    overlap = (tmp_path / "overlap_f1.csv").read_text().splitlines()
    assert overlap[1] == "aa,0.4200,0.8500"
    per_language = (tmp_path / "per_language.csv").read_text().splitlines()
    row = next(line for line in per_language if line.startswith("aa,0,partial,regular"))
    assert row.endswith(",2")


def test_report_group_table_text(tmp_path):
    emit_report(REPORT_RECORDS, META, tmp_path)
    assert (tmp_path / "by_size.csv").read_text().splitlines() == [
        "group,sparsity,strategy,split,mean_f1,median_f1,std_f1,n_languages",
        "100,0,partial,perturbed-in-language,0.6000,0.6000,0.0000,1",
        "all,0,partial,perturbed-in-language,0.6000,0.6000,0.0000,1",
        "100,0,partial,regular,0.8500,0.8500,0.0000,1",
        "1000,0,partial,regular,0.5000,0.5000,0.0000,1",
        "all,0,partial,regular,0.6750,0.6750,0.1750,2",
        "100,50,partial,perturbed-in-language,0.3000,0.3000,0.0000,1",
        "all,50,partial,perturbed-in-language,0.3000,0.3000,0.0000,1",
        "100,50,partial,regular,0.7000,0.7000,0.0000,1",
        "1000,50,partial,regular,0.5500,0.5500,0.0000,1",
        "all,50,partial,regular,0.6250,0.6250,0.0750,2",
    ]


def test_report_bytes_are_deterministic(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_report(REPORT_RECORDS, META, first)
    emit_report(list(reversed(REPORT_RECORDS)), META, second)
    for name in ("per_language.csv", "by_size.csv", "deltas.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_report_requires_metadata(tmp_path):
    with pytest.raises(MissingMetadataError):
        emit_report([record("zz", 0, 0.5)], META, tmp_path)


def test_report_summary_and_pairs_agree_with_the_tables(tmp_path):
    # 3 languages in 2 families and 2 scripts; a few seed-means are
    # missing so that some rows have no dense or no regular partner
    rng = random.Random(11)
    absent = {("cc", 0, "incl_embeddings", "regular"), ("bb", 0, "partial", "regular"),
              ("aa", 50, "partial", "regular"), ("cc", 98, "partial", "perturbed-in-language")}
    records = [
        record(lang, sparsity, rng.random(), strategy, seed, split)
        for lang in META
        for sparsity in (0, 50, 98)
        for strategy in ("partial", "incl_embeddings")
        for split in ("regular", "perturbed-in-language")
        for seed in (0, 1)
        if (lang, sparsity, strategy, split) not in absent
    ]
    rng.shuffle(records)
    emit_report(records, META, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())["mean_f1"]
    cells = {(split, strategy, sparsity)
             for split, by_strategy in summary.items()
             for strategy, by_sparsity in by_strategy.items()
             for sparsity in by_sparsity}
    for dim in GroupDimension:
        with open(tmp_path / f"by_{dim.value}.csv", encoding="utf-8") as f:
            rows = [row for row in csv.DictReader(f) if row["group"] == "all"]
        assert {(r["split"], r["strategy"], r["sparsity"]) for r in rows} == cells
        assert len(rows) == len(cells)
        for r in rows:
            value = summary[r["split"]][r["strategy"]][r["sparsity"]]
            assert f"{value:.4f}" == r["mean_f1"]

    def keys(name):
        with open(tmp_path / name, encoding="utf-8") as f:
            return [(r["language"], int(r["sparsity"]), r["strategy"], r["split"])
                    for r in csv.DictReader(f)]

    means = {(r.language, r.sparsity, r.strategy, r.split) for r in records}
    assert keys("deltas.csv") == sorted(
        (lang, sparsity, strategy, split) for lang, sparsity, strategy, split in means
        if sparsity != 0 and (lang, 0, strategy, split) in means)
    assert keys("ratios.csv") == sorted(
        (lang, sparsity, strategy, split) for lang, sparsity, strategy, split in means
        if split != "regular" and (lang, sparsity, strategy, "regular") in means)
