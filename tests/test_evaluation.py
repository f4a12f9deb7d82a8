import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_of, sent
from nerprune.corpus import TAG_IDS, TAGSET, decode_spans
from nerprune.errors import AlignmentError, ConfigError, TagError
from nerprune.evaluation import (
    SPARSITY_LEVELS,
    SPLIT_NAMES,
    STRATEGY_NAMES,
    RunRecord,
    ScoreReport,
    decode_span_ids,
    read_run_records,
    score_corpus,
    score_ids,
)
from nerprune.experiment import ExperimentConfig, build_bundle
from oracles import oracle_read_run_records, oracle_score_corpus

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
    # the first bad sentence is named, whichever error comes later
    gold = corpus_of([sent(["a"], ["O"]), sent(["b", "c"], ["O", "O"]),
                      sent(["d", "e"], ["B-PER", "I-PER"])])
    with pytest.raises(AlignmentError) as info:
        score_corpus(gold, [["O"], ["O", "O"], ["O"]])
    assert str(info.value) == "sentence 2: 1 predicted tags for 2 tokens"
    with pytest.raises(TagError) as info:
        score_corpus(gold, [["O"], ["O", "B-GPE"], ["O"]])
    assert str(info.value) == "sentence 1: unknown predicted tag 'B-GPE'"
    with pytest.raises(AlignmentError) as info:
        score_corpus(gold, [["O"], ["O", "O", "O"], ["X", "O"]])
    assert str(info.value) == "sentence 1: 3 predicted tags for 2 tokens"


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
    """Score as a grid cell does: gold spans from the bundle's one test
    set, predictions as tag ids."""
    train = corpus_of([sent(["w"], ["O"])], split="train")
    config = ExperimentConfig(
        mode="monolingual", languages=("xx",), sparsity_levels=(0,), seeds=(0,),
        perturbation_seed=0, corpus_root="c", metadata_path="m",
        output_dir="o", scopes=(),
    )
    bundle = build_bundle(config, ["xx"], {"xx": train}, {"xx": gold}, {})
    assert bundle.pairs == (("xx", "regular"),)
    predicted = np.array([TAG_IDS[t] for row in pred_rows for t in row], dtype=np.int64)
    (report,) = score_ids(bundle.gold_spans, predicted, bundle.test.offsets, bundle.starts)
    return report


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


@settings(max_examples=200, deadline=None)
@given(st.lists(aligned_rows(), max_size=4))
@example([(ACROSS_BOUNDARY, ACROSS_BOUNDARY), ([], []),
          (ACROSS_BOUNDARY, [["I-PER", "I-PER"], ["I-PER", "I-PER"]]), ([], [])])
@example([([], []), ([["B-LOC"], []], [["B-LOC"], []])])
def test_grouped_scoring_matches_each_corpus_alone(groups):
    """Corpora laid end to end, each one group of starts: each report is
    the corpus's own, as score_corpus and the per-sentence oracle give it."""
    golds = [corpus_of([sent(["w"] * len(row), row) for row in gold_rows])
             for gold_rows, _ in groups]
    whole = corpus_of([s for gold in golds for s in gold])
    predicted = np.array([TAG_IDS[t] for _, pred_rows in groups for row in pred_rows
                          for t in row], dtype=np.int64)
    starts = np.cumsum([0, *map(len, golds)])
    reports = score_ids(whole.spans, predicted, whole.offsets, starts)
    assert reports == [score_corpus(gold, pred_rows)
                       for gold, (_, pred_rows) in zip(golds, groups)]
    assert reports == [oracle_score_corpus(gold, pred_rows)
                       for gold, (_, pred_rows) in zip(golds, groups)]


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
    assert list(read_run_records(path)) == records


def test_read_run_records_ignores_extra_keys(tmp_path):
    row = RunRecord("af", 0, "partial", 0, "regular", ScoreReport(1, 0, 0, 1.0, 1.0, 1.0)).to_json_dict()
    row["run_id"] = "mono-af-s0-partial-seed0"
    row["train_seconds"] = 12.5
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(row) + "\n\n")
    records = read_run_records(path)
    assert len(records) == 1
    assert records[0].language == "af"


@pytest.mark.parametrize("bad_line, detail", [
    ("{'language': 'af'}", "Expecting property name enclosed in double quotes"),
    ("missing-f1", "missing key 'f1'"),
    ("[1, 2]", "list indices must be integers"),
])
def test_read_run_records_names_the_line_of_a_bad_record(tmp_path, bad_line, detail):
    good = RunRecord("af", 0, "partial", 0, "regular", ScoreReport(1, 0, 0, 1.0, 1.0, 1.0)).to_json_dict()
    if bad_line == "missing-f1":
        bad_line = json.dumps({key: value for key, value in good.items() if key != "f1"})
    path = tmp_path / "runs.jsonl"
    # a blank line still counts: the bad record is on line 4
    path.write_text(f"{json.dumps(good)}\n\n{json.dumps({**good, 'seed': 1})}\n{bad_line}\n")
    with pytest.raises(ConfigError) as info:
        read_run_records(path)
    message = str(info.value)
    assert message.startswith(f"{path}:4: malformed results file: ")
    assert detail in message


GOOD_FIELDS = {
    "sparsity": st.sampled_from(SPARSITY_LEVELS),
    "seed": st.integers(-2, 3),
    **{key: st.integers(0, 9) for key in ("tp", "fp", "fn")},
    **{key: st.one_of(st.floats(0, 1), st.sampled_from([0, 1]))
       for key in ("precision", "recall", "f1")},
    # line separators other than \n stay inside a line
    "language": st.sampled_from(["af", "a\u2028b", "c\x85d", "sw"]),
    "strategy": st.sampled_from(STRATEGY_NAMES),
    "split": st.sampled_from(SPLIT_NAMES),
}
# values of the wrong type or out of range for some field
ODD_VALUES = st.sampled_from([
    True, False, 1.0, 50.0, 3, -1, 1.5, float("nan"), float("inf"), 45,
    "full", "dev", "s", None, [1],
])


@st.composite
def record_lines(draw):
    """A record line, good or with one field odd, missing or extra."""
    data = draw(st.fixed_dictionaries(GOOD_FIELDS))
    change = draw(st.sampled_from(["none"] * 4 + ["extra", "odd", "missing"]))
    key = draw(st.sampled_from(sorted(GOOD_FIELDS)))
    if change == "extra":
        data["run_id"] = draw(st.one_of(ODD_VALUES, st.just({"k": [1]})))
    elif change == "odd":
        data[key] = draw(ODD_VALUES)
    elif change == "missing":
        del data[key]
    return json.dumps(data, ensure_ascii=draw(st.booleans()))


GOOD_LINE = json.dumps(RunRecord(
    "af", 0, "partial", 0, "regular", ScoreReport(1, 0, 0, 1.0, 1.0, 1.0)).to_json_dict())

# mostly records and blank lines, so that many files are valid; one fixed
# record, so that some files repeat a key
results_lines = st.one_of(
    record_lines(),
    record_lines(),
    st.just(GOOD_LINE),
    record_lines().map(lambda line: f" \t{line}\u2028"),
    st.sampled_from(["", "  ", "\t", "\u2028", "\x85"]),
    st.sampled_from(["[1, 2]", "3", '"s"', "{'language': 'af'}", "{", "NaN"]),
    st.tuples(record_lines(), record_lines()).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(results_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                max_size=8),
       st.booleans(), st.none() | st.integers(0))
# a NaN score after a good one, which a min and max check would miss
@example([(GOOD_LINE.replace('"seed": 0', '"seed": 1'), "\n"),
          (GOOD_LINE.replace('"f1": 1.0', '"f1": NaN'), "\n")], True, None)
# the key of line 1 again on line 3, with another score
@example([(GOOD_LINE, "\n"), ("", "\n"), (GOOD_LINE.replace('"f1": 1.0', '"f1": 0.5'), "\n")],
         True, None)
def test_reader_matches_the_line_walk(lines, ends_with_newline, latin1_at):
    text = "".join(line + end for line, end in lines)
    if lines and not ends_with_newline:
        text = text[:-len(lines[-1][1])]
    data = text.encode("utf-8")
    if data and latin1_at is not None:  # a Latin-1 "é", not UTF-8 on its own
        at = latin1_at % len(data)
        data = data[:at] + b"\xe9" + data[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.jsonl"
        path.write_bytes(data)
        try:
            expected = oracle_read_run_records(path)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                read_run_records(path)
            assert str(info.value) == str(exc)
        else:
            assert list(read_run_records(path)) == expected
