import json
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, sent
from nerprune.corpus import TAG_IDS, TAGSET, decode_spans
from nerprune.analysis import aggregate_seeds
from nerprune.errors import AlignmentError, TagError
from nerprune.evaluation import (
    RunRecord,
    ScoreReport,
    decode_span_ids,
    read_run_records,
    score_corpus,
    score_ids,
)
from nerprune.experiment import ExperimentConfig, build_bundle
from oracles import oracle_score_corpus

tags_st = st.lists(st.sampled_from(TAGSET), min_size=1, max_size=10)


def test_report_scores_follow_zero_denominator_convention():
    empty = ScoreReport.from_counts({"PER": (0, 0, 0)})
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)
    no_hits = ScoreReport.from_counts({"PER": (0, 2, 3)})
    assert (no_hits.precision, no_hits.recall, no_hits.f1) == (0.0, 0.0, 0.0)


def test_report_from_counts_sums_types():
    report = ScoreReport.from_counts({"PER": (1, 0, 1), "LOC": (2, 1, 0)})
    assert (report.tp, report.fp, report.fn) == (3, 1, 1)
    assert report.precision == pytest.approx(3 / 4)
    assert report.recall == pytest.approx(3 / 4)
    assert report.f1 == pytest.approx(3 / 4)


def test_report_rejects_negative_and_inconsistent_counts():
    with pytest.raises(ValueError, match="negative"):
        ScoreReport(-1, 0, 0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="per_type"):
        ScoreReport(5, 0, 0, 1.0, 1.0, 1.0, per_type={"PER": (1, 0, 0)})


def test_perfect_predictions_score_one():
    gold = corpus_of([sent(["Ada", "met", "Bo"], ["B-PER", "O", "B-PER"])])
    report = score_corpus(gold, [["B-PER", "O", "B-PER"]])
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.f1 == 1.0


def test_boundary_and_type_errors_count_both_ways():
    gold = corpus_of(
        [sent(["New", "York", "is", "big"], ["B-LOC", "I-LOC", "O", "O"])]
    )
    short = score_corpus(gold, [["B-LOC", "O", "O", "O"]])
    assert (short.tp, short.fp, short.fn) == (0, 1, 1)
    wrong_type = score_corpus(gold, [["B-ORG", "I-ORG", "O", "O"]])
    assert (wrong_type.tp, wrong_type.fp, wrong_type.fn) == (0, 1, 1)


def test_ill_formed_predictions_are_decoded_leniently():
    gold = corpus_of([sent(["a", "b"], ["B-LOC", "I-LOC"])])
    report = score_corpus(gold, [["I-LOC", "I-LOC"]])
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)


def test_per_type_buckets_sum_to_totals():
    gold = corpus_of(
        [sent(["Ada", "in", "Oslo"], ["B-PER", "O", "B-LOC"])]
    )
    report = score_corpus(gold, [["B-PER", "O", "B-ORG"]])
    assert report.per_type["PER"] == (1, 0, 0)
    assert report.per_type["LOC"] == (0, 0, 1)
    assert report.per_type["ORG"] == (0, 1, 0)


def test_misaligned_predictions_are_rejected():
    gold = corpus_of([sent(["a", "b"], ["O", "O"])])
    with pytest.raises(AlignmentError, match="0 predictions for 1"):
        score_corpus(gold, [])
    with pytest.raises(AlignmentError, match="sentence 0"):
        score_corpus(gold, [["O"]])
    with pytest.raises(TagError, match="B-GPE"):
        score_corpus(gold, [["O", "B-GPE"]])


@given(st.lists(tags_st, min_size=1, max_size=5))
def test_scoring_gold_against_itself_counts_every_mention(tag_rows):
    gold = corpus_of([sent(["w"] * len(tags), tags) for tags in tag_rows])
    total = sum(len(decode_spans(tags)) for tags in tag_rows)
    report = score_corpus(gold, tag_rows)
    assert (report.tp, report.fp, report.fn) == (total, 0, 0)
    all_o = score_corpus(gold, [["O"] * len(tags) for tags in tag_rows])
    assert (all_o.tp, all_o.fp, all_o.fn) == (0, 0, total)


@st.composite
def aligned_rows(draw):
    """Gold and predicted tag rows of equal lengths, each row empty, all
    O, or any tags at all (stray I-X included)."""
    lengths = draw(st.lists(st.integers(0, 8), max_size=6))

    def row(n):
        return draw(st.one_of(
            st.just(["O"] * n),
            st.lists(st.sampled_from(TAGSET), min_size=n, max_size=n),
        ))

    return [row(n) for n in lengths], [row(n) for n in lengths]


# an I-PER ends sentence 0 and another I-PER starts sentence 1
ACROSS_BOUNDARY = [["O", "I-PER"], ["I-PER", "O"]]


def _bundle_report(gold, pred_rows):
    """Score as a grid cell does: gold spans from the split's bundle,
    predictions as tag ids."""
    train = corpus_of([sent(["w"], ["O"])], split="train")
    config = ExperimentConfig(
        mode="monolingual", languages=("xx",), sparsity_levels=(0,), seeds=(0,),
        perturbation_seed=0, corpus_root="c", metadata_path="m",
        output_dir="o", scopes=(),
    )
    bundle = build_bundle(config, ["xx"], {"xx": train}, {"xx": gold}, {})
    (split,) = bundle.splits
    predicted = np.array([TAG_IDS[t] for row in pred_rows for t in row], dtype=np.int64)
    return score_ids(split.gold_spans, predicted, split.encoded.offsets)


@settings(max_examples=300, deadline=None)
@given(aligned_rows())
@example((ACROSS_BOUNDARY, ACROSS_BOUNDARY))
@example((ACROSS_BOUNDARY, [["I-PER", "I-PER"], ["I-PER", "I-PER"]]))
@example(([[], ["O", "O"], []], [[], ["I-LOC", "I-LOC"], []]))
def test_array_scoring_matches_the_per_sentence_oracle(rows):
    gold_rows, pred_rows = rows
    gold = corpus_of([sent(["w"] * len(row), row) for row in gold_rows])
    expected = oracle_score_corpus(gold, pred_rows)
    assert score_corpus(gold, pred_rows) == expected
    assert _bundle_report(gold, pred_rows) == expected


def test_spans_never_cross_a_sentence_boundary():
    gold = corpus_of([sent(["a", "b"], ACROSS_BOUNDARY[0]),
                      sent(["c", "d"], ACROSS_BOUNDARY[1])])
    report = score_corpus(gold, ACROSS_BOUNDARY)
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    tag_ids = np.array([TAG_IDS[t] for row in ACROSS_BOUNDARY for t in row])
    spans = decode_span_ids(tag_ids, np.array([0, 2, 4]))
    assert len(spans) == 2


def test_run_record_validates_fields():
    report = ScoreReport(0, 0, 0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="sparsity"):
        RunRecord("af", 45, "partial", 0, "regular", report)
    with pytest.raises(ValueError, match="strategy"):
        RunRecord("af", 50, "full", 0, "regular", report)
    with pytest.raises(ValueError, match="split"):
        RunRecord("af", 50, "partial", 0, "dev", report)


def test_run_records_round_trip_through_jsonl(tmp_path):
    records = [
        RunRecord("af", 50, "partial", 3, "regular", ScoreReport(4, 1, 2, 0.8, 2 / 3, 8 / 11)),
        RunRecord("sw", 0, "incl_embeddings", 0, "perturbed-in-language", ScoreReport(0, 0, 0, 0.0, 0.0, 0.0)),
    ]
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(
        json.dumps(record.to_json_dict(), sort_keys=True) + "\n" for record in records))
    assert read_run_records(path) == records


def test_read_run_records_ignores_extra_keys(tmp_path):
    row = RunRecord("af", 0, "partial", 0, "regular", ScoreReport(1, 0, 0, 1.0, 1.0, 1.0)).to_json_dict()
    row["run_id"] = "mono-af-s0-partial-seed0"
    row["train_seconds"] = 12.5
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(row) + "\n\n")
    records = read_run_records(path)
    assert len(records) == 1
    assert records[0].language == "af"


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8))
def test_aggregate_seeds_uses_population_std(f1s):
    records = [
        RunRecord("af", 50, "partial", seed, "regular", ScoreReport(0, 0, 0, f1, f1, f1))
        for seed, f1 in enumerate(f1s)
    ]
    stats = aggregate_seeds(records)
    entry = stats[("af", 50, "partial", "regular")]
    assert entry.n == len(f1s)
    assert entry.mean == pytest.approx(statistics.fmean(f1s))
    assert entry.std == pytest.approx(statistics.pstdev(f1s), abs=1e-12)


def test_aggregate_seeds_groups_by_all_four_keys():
    report = ScoreReport(0, 0, 0, 0.5, 0.5, 0.5)
    records = [
        RunRecord("af", 50, "partial", 0, "regular", report),
        RunRecord("af", 50, "partial", 1, "regular", report),
        RunRecord("af", 50, "incl_embeddings", 0, "regular", report),
        RunRecord("af", 70, "partial", 0, "regular", report),
        RunRecord("sw", 50, "partial", 0, "regular", report),
        RunRecord("af", 50, "partial", 0, "perturbed-in-language", report),
    ]
    stats = aggregate_seeds(records)
    assert len(stats) == 5
    assert stats[("af", 50, "partial", "regular")].n == 2
