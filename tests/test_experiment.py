import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nerprune import experiment
from nerprune.cli import main
from nerprune.corpus import decode_span_ids, serialize_iob2
from nerprune.errors import ConfigError, MissingMetadataError
from nerprune.evaluation import read_run_records, score_corpus
from nerprune.experiment import (
    DEFAULT_SCHEDULE_TABLE,
    ExperimentConfig,
    RunSpec,
    build_bundle,
    build_perturbed,
    config_from_dict,
    config_from_file,
    execute_run,
    load_metadata,
    load_split,
    plan,
    run,
)
from nerprune.pruning import PruneSchedule, schedule_events
from nerprune.tagger import TaggerConfig, load_model, predict
from worlds import DIVERGING_TAGGER, trace_without_timing, write_world


@pytest.fixture
def world(tmp_path):
    return config_from_file(write_world(tmp_path))


def base_kwargs(**overrides):
    kwargs = dict(
        mode="monolingual",
        languages=("aa",),
        sparsity_levels=(0, 50),
        seeds=(0,),
        perturbation_seed=7,
        corpus_root="corpus",
        metadata_path="languages.csv",
        output_dir="out",
    )
    kwargs.update(overrides)
    return kwargs


def test_config_validation_catches_bad_grids():
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(**base_kwargs(mode="bilingual"))
    with pytest.raises(ConfigError, match="duplicate languages"):
        ExperimentConfig(**base_kwargs(languages=("aa", "aa")))
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig(**base_kwargs(sparsity_levels=(50, 0)))
    with pytest.raises(ConfigError, match="not in supported"):
        ExperimentConfig(**base_kwargs(sparsity_levels=(0, 45)))
    with pytest.raises(ConfigError, match="unknown strategy"):
        ExperimentConfig(**base_kwargs(strategies=("dense",)))
    with pytest.raises(ConfigError, match="unknown scope"):
        ExperimentConfig(**base_kwargs(scopes=("global",)))
    with pytest.raises(ConfigError, match="multiple of frequency"):
        ExperimentConfig(**base_kwargs(schedule_table=((100, (0, 10, 3)),)))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(**base_kwargs(seeds=(0, 0)))
    # each run trains with its own seed, so this one would only move the hash
    with pytest.raises(ConfigError, match="tagger.seed must be 0"):
        ExperimentConfig(**base_kwargs(tagger=TaggerConfig(seed=5)))


def test_config_hash_ignores_base_dir_but_not_contents():
    a = ExperimentConfig(**base_kwargs())
    b = ExperimentConfig(**base_kwargs(base_dir="/somewhere/else"))
    c = ExperimentConfig(**base_kwargs(languages=("aa", "bb")))
    d = ExperimentConfig(**base_kwargs(corpus_root="other"))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert a.config_hash != d.config_hash


def test_config_hash_is_pinned():
    # the hash names the output directory, so a change moves every grid
    config = ExperimentConfig(**base_kwargs())
    assert config.config_hash == (
        "438c88ef34465ff659e0c2ce9661cb66f1216244626c3de405e4c874efe7d3fd"
    )


# the grid rejects any tagger.seed but 0, so only the other fields can change
@pytest.mark.parametrize(
    "field", [f.name for f in fields(TaggerConfig) if f.name != "seed"])
def test_config_hash_covers_every_tagger_field(field):
    config = ExperimentConfig(**base_kwargs())
    value = getattr(config.tagger, field) * 2 + 1
    changed = replace(config, tagger=replace(config.tagger, **{field: value}))
    assert changed.config_hash != config.config_hash


def test_config_round_trips_through_canonical_dict():
    config = ExperimentConfig(**base_kwargs(languages=("aa", "bb")))
    rebuilt = config_from_dict(config.canonical_dict(), base_dir=".")
    assert rebuilt == config
    assert rebuilt.config_hash == config.config_hash


def test_config_from_dict_rejects_unknown_and_missing_keys():
    good = ExperimentConfig(**base_kwargs()).canonical_dict()
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({**good, "turbo": True})
    with pytest.raises(ConfigError, match="missing config keys"):
        config_from_dict({k: v for k, v in good.items() if k != "mode"})
    bad_paths = {**good, "paths": {"corpus_root": "x", "metadata": "y"}}
    with pytest.raises(ConfigError, match="missing path keys"):
        config_from_dict(bad_paths)
    bad_paths = {**good, "paths": {**good["paths"], "scratch": "z"}}
    with pytest.raises(ConfigError, match="unknown path keys"):
        config_from_dict(bad_paths)


def test_config_defaults_fill_strategies_scopes_and_schedule():
    minimal = {
        "mode": "monolingual",
        "languages": ["aa"],
        "sparsity_levels": [0, 50],
        "seeds": [0],
        "perturbation_seed": 1,
        "paths": {"corpus_root": "c", "metadata": "m", "output": "o"},
    }
    config = config_from_dict(minimal)
    assert config.strategies == ("partial", "incl_embeddings")
    assert config.scopes == ("in-language", "in-script", "in-family")
    assert config.schedule_table == DEFAULT_SCHEDULE_TABLE


def test_config_from_file_resolves_against_its_directory(tmp_path):
    path = write_world(tmp_path)
    config = config_from_file(path)
    assert config.corpus_root_path == (tmp_path / "corpus").resolve()
    assert config.metadata_file == (tmp_path / "languages.csv").resolve()
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        config_from_file(bad)


def test_schedule_lookup_prefers_exact_then_largest_below():
    config = ExperimentConfig(**base_kwargs())
    assert config.schedule_for(5000) == (500, 1200, 100)
    assert config.schedule_for(12000) == (500, 1200, 100)
    assert config.schedule_for(17000) == (700, 1800, 100)
    assert config.schedule_for(50) == (10, 60, 10)
    assert config.schedule_for(10 ** 6) == (1000, 2400, 200)


def test_run_ids_name_mode_language_and_cell():
    mono = RunSpec("monolingual", "af", 50, "partial", 3)
    assert mono.run_id == "mono-af-s50-partial-seed3"
    multi = RunSpec("multilingual", None, 98, "incl_embeddings", 0)
    assert multi.run_id == "multi-s98-incl_embeddings-seed0"


def test_plan_enumerates_the_grid(world):
    specs = plan(world)
    assert len(specs) == 2 * 2 * 1 * 1
    assert len({s.run_id for s in specs}) == len(specs)
    multi = config_from_dict(
        {**world.canonical_dict(), "mode": "multilingual"}, world.base_dir
    )
    multi_specs = plan(multi)
    assert len(multi_specs) == 2 * 1 * 1
    assert all(s.language is None for s in multi_specs)


def test_load_split_reports_missing_files(world):
    with pytest.raises(ConfigError, match="dev.iob2"):
        load_split(world.corpus_root_path, "aa", "dev")


def test_monolingual_run_produces_full_grid(world):
    results = run(world)
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert len(lines) == 4 * 2
    assert {l["run_id"] for l in lines} == {s.run_id for s in plan(world)}
    assert {l["split"] for l in lines} == {"regular", "perturbed-in-language"}
    for line in lines:
        assert line["config_hash"] == world.config_hash
        if line["sparsity"] == 50:
            assert line["achieved_sparsity"] == 0.5
            assert line["schedule"] == [2, 10, 2]
        else:
            assert line["achieved_sparsity"] == 0.0
            assert line["schedule"] is None
    out_dir = results.parent
    assert (out_dir / "config_snapshot.json").is_file()
    for spec in plan(world):
        assert (out_dir / "checkpoints" / spec.run_id / "manifest.json").is_file()
    for lang in ("aa", "bb"):
        assert (out_dir / "perturbed" / f"{lang}.in-language.iob2").is_file()
        assert (out_dir / "perturbed" / f"{lang}.in-language.log.jsonl").is_file()
    records = read_run_records(results)
    assert len(records) == len(lines)


def test_rerun_is_idempotent(world, monkeypatch):
    results = run(world)
    before = results.read_bytes()
    perturbed_dir = results.parent / "perturbed"
    perturbed = {p.name: p.read_bytes() for p in perturbed_dir.iterdir()}
    # a write stamps the file with the current time
    files = [p for p in results.parent.rglob("*") if p.is_file()]
    for path in files:
        os.utime(path, ns=(0, 0))
    calls = []
    for name in ("load_metadata", "load_split", "build_perturbed", "write_perturbed"):
        def counted(*args, _name=name, _original=getattr(experiment, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    assert run(world) == results
    assert results.read_bytes() == before
    # nothing is pending, so nothing is prepared and no file is written;
    # failures.jsonl used to be emptied all the same
    assert calls == []
    assert {p.name: p.read_bytes() for p in perturbed_dir.iterdir()} == perturbed
    assert {p: p.stat().st_mtime_ns for p in files} == dict.fromkeys(files, 0)


def test_results_written_before_the_trace_resume_without_rerunning(world, monkeypatch):
    results = run(world)
    before = results.read_text().splitlines(keepends=True)
    # the first two runs' lines as they were written when each line also
    # carried the run's train_seconds
    old = [json.dumps({**json.loads(l), "train_seconds": 0.123}, sort_keys=True) + "\n"
           for l in before[:4]]
    results.write_text("".join(old))
    calls = []
    _count_calls(monkeypatch, "train", calls)
    run(world)
    assert len(calls) == len(plan(world)) - 2
    assert results.read_text().splitlines(keepends=True) == old + before[4:]


# an event at step 0 runs at step 1, before the first update
@pytest.mark.parametrize("schedule", [(2, 10, 2), (0, 10, 2)])
def test_every_cell_leaves_a_trace_of_its_training(tmp_path, schedule):
    config = config_from_file(write_world(
        tmp_path, schedule=schedule, extra={"strategies": ["partial", "incl_embeddings"]}))
    results = run(config)
    checkpoints = results.parent / "checkpoints"
    achieved = {l["run_id"]: l["achieved_sparsity"]
                for l in map(json.loads, results.read_text().splitlines())}
    specs = plan(config)
    assert sorted(p.parent.name for p in checkpoints.glob("*/trace.jsonl")) == sorted(
        s.run_id for s in specs)
    for spec in specs:
        trace = [json.loads(l) for l in
                 (checkpoints / spec.run_id / "trace.jsonl").read_text().splitlines()]
        n_sentences = len(load_split(config.corpus_root_path, spec.language, "train"))
        per_epoch = math.ceil(n_sentences / config.tagger.batch_size)
        steps = config.tagger.epochs * per_epoch
        epochs = [t for t in trace if t["kind"] == "epoch"]
        assert [t["steps"] for t in epochs] == list(range(per_epoch, steps + 1, per_epoch))
        assert all(math.isfinite(t["loss"]) for t in epochs)
        events = [t for t in trace if t["kind"] == "event"]
        expected = schedule_events(PruneSchedule(
            *config.schedule_for(n_sentences), spec.sparsity / 100)) if spec.sparsity else []
        assert [(t["step"], t["target"]) for t in events] == expected
        final, timing = trace[-2:]
        assert [t["kind"] for t in trace] == (
            ["epoch"] * len(epochs) + ["event"] * len(events) + ["final", "timing"])
        assert final["steps"] == steps
        assert final["max_abs_masked"] == 0
        n_prunable = sum(final["prunable"].values())
        # each event masks floor(target * n_prunable) weights
        assert all(abs(t["sparsity"] - t["target"]) < 1 / n_prunable for t in events)
        if events:
            assert events[-1]["sparsity"] == achieved[spec.run_id]
        assert sum(final["masked"].values()) == round(achieved[spec.run_id] * n_prunable)
        assert (final["prunable"]["E"] > 0) == (spec.strategy == "incl_embeddings")
        assert set(timing) == {"kind", "train_s", "save_s", "predict_score_s", "max_rss_kb"}
        assert all(v >= 0 for k, v in timing.items() if k != "kind")


def test_interrupted_run_resumes_missing_cells(world):
    results = run(world)
    lines = results.read_text().splitlines()
    kept_id = json.loads(lines[0])["run_id"]
    kept = [l for l in lines if json.loads(l)["run_id"] == kept_id]
    results.write_text("\n".join(kept) + "\n")
    run(world)
    final = [json.loads(l) for l in results.read_text().splitlines()]
    assert len(final) == len(lines)
    assert {l["run_id"] for l in final} == {s.run_id for s in plan(world)}


# (whole lines, then bytes) cut off the end: only the newline, inside the
# last line, inside the first line of the last run, or exactly the last
# line, which leaves the last run short of a line with no torn line
@pytest.mark.parametrize("lines_cut, bytes_cut", [(0, 1), (0, 40), (1, 40), (1, 0)])
def test_torn_last_line_is_cut_and_its_run_reruns(world, lines_cut, bytes_cut):
    results = run(world)
    before = results.read_bytes()
    lines = before.splitlines(keepends=True)
    kept = lines[:len(lines) - lines_cut]
    data = b"".join(kept)
    results.write_bytes(data[:len(data) - bytes_cut])
    torn_id = json.loads(kept[-1])["run_id"]
    (results.parent / "checkpoints" / torn_id / "manifest.json").unlink()
    run(world)
    assert results.read_bytes() == before
    assert (results.parent / "checkpoints" / torn_id / "manifest.json").is_file()


def test_malformed_complete_results_line_is_a_config_error(world, capsys):
    results = run(world)
    lines = results.read_text().splitlines(keepends=True)
    torn = lines[:1] + [lines[1][:20] + "\n"] + lines[2:]
    results.write_text("".join(torn))
    with pytest.raises(ConfigError, match="results.jsonl:2: malformed"):
        run(world)
    # a run id that is not a string used to die with "unhashable type"
    listed = lines[:1] + [json.dumps({**json.loads(lines[1]), "run_id": ["x"]}) + "\n"]
    results.write_text("".join(listed + lines[2:]))
    with pytest.raises(ConfigError, match="results.jsonl:2: malformed.*run_id must be a string"):
        run(world)
    assert main(["experiment", "--config", str(Path(world.base_dir) / "config.json")]) == 2
    assert "results.jsonl:2: malformed results line" in capsys.readouterr().err


def test_run_with_more_lines_than_its_count_is_a_config_error(world, monkeypatch, capsys):
    results = run(world)
    lines = results.read_text().splitlines(keepends=True)
    first_id = json.loads(lines[0])["run_id"]
    cell = [l for l in lines if json.loads(l)["run_id"] == first_id]
    # one cell's lines appended twice used to count as that run done
    results.write_text("".join(cell + cell))
    calls = []
    _count_calls(monkeypatch, "train", calls)
    assert main(["experiment", "--config", str(Path(world.base_dir) / "config.json")]) == 2
    assert capsys.readouterr().err == (
        f"nerprune: error: {results}:{len(cell) + 1}: run {first_id} has more than "
        f"its {len(cell)} lines\n")
    assert calls == []
    assert results.read_text() == "".join(cell + cell)


# a line of a run the plan does not hold used to be cut without a word
# when it came last, and kept when a whole run followed it
@pytest.mark.parametrize("last", [True, False])
def test_run_not_in_the_plan_is_a_config_error(world, monkeypatch, capsys, last):
    results = run(world)
    lines = results.read_text().splitlines(keepends=True)
    stranger = "mono-cc-s50-partial-seed0"
    line = json.dumps({**json.loads(lines[0]), "run_id": stranger}) + "\n"
    edited = "".join(lines + [line] if last else [line] + lines)
    results.write_text(edited)
    calls = []
    _count_calls(monkeypatch, "train", calls)
    assert main(["experiment", "--config", str(Path(world.base_dir) / "config.json")]) == 2
    number = len(lines) + 1 if last else 1
    assert capsys.readouterr().err == (
        f"nerprune: error: {results}:{number}: run {stranger} is not in this "
        "config's plan\n")
    assert calls == []
    assert results.read_text() == edited


def test_failures_are_recorded_and_do_not_stop_the_grid(tmp_path):
    config = config_from_file(
        write_world(tmp_path, schedule=(2, 1000, 2))
    )
    results = run(config)
    failures = [
        json.loads(l)
        for l in (results.parent / "failures.jsonl").read_text().splitlines()
    ]
    assert len(failures) == 2
    assert all(f["error"] == "ScheduleError" for f in failures)
    assert {f["run_id"] for f in failures} == {
        "mono-aa-s50-partial-seed0", "mono-bb-s50-partial-seed0"
    }
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert {l["sparsity"] for l in lines} == {0}
    assert len(lines) == 2 * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_cells_are_failures_not_zero_scores(tmp_path):
    config = config_from_file(
        write_world(tmp_path, extra={"tagger": DIVERGING_TAGGER})
    )
    results = run(config)
    failures = [
        json.loads(l)
        for l in (results.parent / "failures.jsonl").read_text().splitlines()
    ]
    assert {f["run_id"] for f in failures} == {s.run_id for s in plan(config)}
    assert all(f["error"] == "DivergenceError" for f in failures)
    assert all("at step" in f["message"] for f in failures)
    assert results.read_text() == ""
    # no run slot and no staging directory
    assert list(results.parent.glob("checkpoints/*")) == []


def test_output_directory_guard_rejects_foreign_configs(world):
    out_dir = world.output_path / world.config_hash[:12]
    out_dir.mkdir(parents=True)
    (out_dir / "config_snapshot.json").write_text(
        json.dumps({"config_hash": "bogus"})
    )
    with pytest.raises(ConfigError, match="different config"):
        run(world)


def test_multilingual_run_scores_every_language(tmp_path):
    config = config_from_file(write_world(tmp_path, mode="multilingual"))
    results = run(config)
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert len(lines) == 2 * 2 * 2
    assert all(l["run_id"].startswith("multi-") for l in lines)
    assert {l["language"] for l in lines} == {"aa", "bb"}
    by_run = {}
    for line in lines:
        by_run.setdefault(line["run_id"], set()).add(line["language"])
    assert all(langs == {"aa", "bb"} for langs in by_run.values())


def test_parallel_run_matches_serial_results(world, monkeypatch):
    original = experiment.train

    def slow_first_and_one_failing(model, data, **kwargs):
        if kwargs["schedule"] is None:
            # the first cell of each language set finishes after the second
            time.sleep(0.3)
        elif "ada" in model.vocab:
            raise RuntimeError("injected into mono-aa-s50-partial-seed0")
        return original(model, data, **kwargs)

    monkeypatch.setattr(experiment, "train", slow_first_and_one_failing)
    files = {}
    for workers in (1, 2):
        results = run(world, workers=workers)
        out_dir = results.parent
        files[workers] = (
            results.read_bytes(),
            (out_dir / "failures.jsonl").read_bytes(),
            {p.parent.name: trace_without_timing(p)
             for p in out_dir.glob("checkpoints/*/trace.jsonl")},
        )
        results.unlink()
        shutil.rmtree(out_dir / "checkpoints")
    assert files[2] == files[1]
    results, failures, traces = files[1]
    lines = [json.loads(l) for l in results.splitlines()]
    assert sorted(traces) == sorted({l["run_id"] for l in lines})
    assert [l["run_id"] for l in lines[::2]] == [
        s.run_id for s in plan(world) if s.run_id != "mono-aa-s50-partial-seed0"]
    assert failures.count(b"\n") == 1


def test_serial_grid_writes_each_cell_before_the_next_trains(world, monkeypatch):
    original = experiment.train
    results = world.output_path / world.config_hash[:12] / "results.jsonl"
    on_disk = []

    def counting(*args, **kwargs):
        on_disk.append(len(results.read_text().splitlines()) if results.exists() else 0)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "train", counting)
    run(world)
    # two lines (regular and one perturbed split) per cell
    assert on_disk == [0, 2, 4, 6]


def test_subset_of_perturbed_sets_matches_the_full_build(tmp_path):
    config = config_from_file(write_world(
        tmp_path, extra={"scopes": ["in-language", "in-script", "in-family"]}
    ))
    meta = load_metadata(config.metadata_file)
    tests = {l: load_split(config.corpus_root_path, l, "test") for l in config.languages}
    seed = config.perturbation_seed
    full = build_perturbed(meta, tests, config.languages, config.scopes, seed)
    assert len(full) == 2 * 3
    for languages, scopes in ((["bb"], ["in-script"]), (["aa"], config.scopes)):
        subset = build_perturbed(meta, tests, languages, scopes, seed)
        assert set(subset) == {(l, s) for l in languages for s in scopes}
        for key, (corpus, records) in subset.items():
            assert serialize_iob2(corpus) == serialize_iob2(full[key][0])
            assert records == full[key][1]


def test_metadata_must_cover_the_languages(tmp_path):
    path = write_world(tmp_path)
    (tmp_path / "languages.csv").write_text(
        "code,script,family,train_size,pretrain_pct\naa,Latin,Fam1,4,0.1\n"
    )
    config = config_from_file(path)
    with pytest.raises(MissingMetadataError):
        run(config)


def _failures(results):
    return [json.loads(l)
            for l in (results.parent / "failures.jsonl").read_text().splitlines()]


def _count_calls(monkeypatch, name, calls):
    original = getattr(experiment, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, name, counted)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode, bundles", [("monolingual", 2), ("multilingual", 1)])
def test_one_bundle_per_language_set_and_one_training_per_cell(
        tmp_path, monkeypatch, mode, bundles, workers):
    config = config_from_file(write_world(tmp_path, mode=mode))
    vocab_calls, train_calls, builds = [], [], []
    _count_calls(monkeypatch, "build_vocab", vocab_calls)
    _count_calls(monkeypatch, "train", train_calls)
    original = experiment.build_bundle
    alive = []

    def tracked(*args, **kwargs):
        # (built on the main thread, bundles still alive); a pool thread
        # may drop its last reference to a bundle a moment after its cell
        # is done, so only the serial grid pins the second
        builds.append((threading.current_thread() is threading.main_thread(),
                       sum(ref() is not None for ref in alive)))
        bundle = original(*args, **kwargs)
        alive.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(experiment, "build_bundle", tracked)
    run(config, workers=workers)
    assert len(vocab_calls) == bundles
    assert all(main for main, _ in builds)
    if workers == 1:
        assert [held for _, held in builds] == [0] * bundles
    assert len(train_calls) == len(plan(config))
    vocab_calls.clear()
    train_calls.clear()
    run(config, workers=workers)
    assert vocab_calls == train_calls == []


def test_cells_score_like_predict_and_score_corpus(tmp_path):
    config = config_from_file(write_world(tmp_path, mode="multilingual"))
    trains, tests = ({l: load_split(config.corpus_root_path, l, split)
                      for l in config.languages} for split in ("train", "test"))
    perturbed = build_perturbed(load_metadata(config.metadata_file), tests,
                                config.languages, config.scopes, config.perturbation_seed)
    bundle = build_bundle(config, config.languages, trains, tests, perturbed)
    assert np.array_equal(
        bundle.gold_spans, decode_span_ids(bundle.test.tags, bundle.test.offsets))
    spec = plan(config)[-1]
    lines = execute_run(spec, config, bundle, checkpoint_dir=tmp_path / "ckpt")
    model = load_model(tmp_path / "ckpt")
    assert [(l["language"], l["split"]) for l in lines] == [
        ("aa", "regular"), ("aa", "perturbed-in-language"),
        ("bb", "regular"), ("bb", "perturbed-in-language"),
    ]
    for line in lines:
        corpus = (tests[line["language"]] if line["split"] == "regular"
                  else perturbed[(line["language"], "in-language")][0])
        report = score_corpus(corpus, predict(model, corpus))
        assert [line[k] for k in ("tp", "fp", "fn", "precision", "recall", "f1")] == [
            report.tp, report.fp, report.fn, report.precision, report.recall, report.f1]


def test_an_empty_test_split_scores_zero_and_leaves_the_others_alone(tmp_path):
    def lines(root, empty_test):
        config = config_from_file(write_world(root, mode="multilingual"))
        if empty_test:
            (root / "corpus" / "aa" / "test.iob2").write_text("")
        results = run(config)
        assert (results.parent / "failures.jsonl").read_text() == ""
        return [json.loads(l) for l in results.read_text().splitlines()]

    full, empty = lines(tmp_path / "full", False), lines(tmp_path / "empty", True)
    assert [(l["run_id"], l["language"], l["split"]) for l in empty] == [
        (l["run_id"], l["language"], l["split"]) for l in full]
    for before, after in zip(full, empty):
        if after["language"] == "aa":
            assert [after[k] for k in ("tp", "fp", "fn", "precision", "recall", "f1")] == [
                0, 0, 0, 0.0, 0.0, 0.0]
        else:  # aa's empty splits come first and shift no span of bb's
            assert after == before


def test_language_set_without_training_sentences_fails_its_cells(tmp_path):
    config = config_from_file(write_world(tmp_path))
    (tmp_path / "corpus" / "bb" / "train.iob2").write_text("")
    results = run(config)
    failures = _failures(results)
    assert {f["run_id"] for f in failures} == {
        "mono-bb-s0-partial-seed0", "mono-bb-s50-partial-seed0"}
    assert all(f["error"] == "ConfigError" for f in failures)
    assert all("no sentences" in f["message"] for f in failures)
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert {l["run_id"] for l in lines} == {
        "mono-aa-s0-partial-seed0", "mono-aa-s50-partial-seed0"}


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
def test_unexpected_exception_fails_only_its_cell(world, monkeypatch, error):
    original = experiment.train

    def flaky(model, data, **kwargs):
        # only mono-aa-s50-partial-seed0 is pruned and knows "ada"
        if kwargs["schedule"] is not None and "ada" in model.vocab:
            raise error("injected")
        return original(model, data, **kwargs)

    monkeypatch.setattr(experiment, "train", flaky)
    results = run(world)
    (failure,) = _failures(results)
    assert "in flaky" in failure.pop("traceback")
    assert failure == {
        "run_id": "mono-aa-s50-partial-seed0",
        "error": error.__name__,
        "message": "injected",
    }
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert {l["run_id"] for l in lines} == {
        s.run_id for s in plan(world)} - {"mono-aa-s50-partial-seed0"}
    assert not (results.parent / "checkpoints" / "mono-aa-s50-partial-seed0").exists()


def test_checkpoint_replaces_a_stale_directory(world):
    checkpoints = world.output_path / world.config_hash[:12] / "checkpoints"
    stale = checkpoints / "mono-aa-s50-partial-seed0"
    stale.mkdir(parents=True)
    (stale / "stray.bin").write_bytes(b"left by an interrupted attempt")
    (stale / "manifest.json").write_text("{}")
    run(world)
    fresh = sorted(p.name for p in (checkpoints / "mono-bb-s50-partial-seed0").iterdir())
    assert sorted(p.name for p in stale.iterdir()) == fresh
    assert "stray.bin" not in fresh
    assert json.loads((stale / "manifest.json").read_text())["tensors"]
    assert sorted(p.name for p in checkpoints.iterdir()) == sorted(
        s.run_id for s in plan(world))


# the staging directory holds the saved checkpoint when the trace fails
def test_cell_that_fails_after_staging_leaves_no_staging(world, monkeypatch):
    original = experiment._write_trace
    calls = []

    def flaky(path, *args):
        calls.append(path)
        if len(calls) == 3:  # the plan's third cell
            assert (path.parent / "manifest.json").is_file()
            raise RuntimeError("injected")
        return original(path, *args)

    failing = plan(world)[2].run_id
    monkeypatch.setattr(experiment, "_write_trace", flaky)
    results = run(world)
    (failure,) = _failures(results)
    assert "in flaky" in failure.pop("traceback")
    assert failure == {"run_id": failing, "error": "RuntimeError", "message": "injected"}
    checkpoints = results.parent / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == sorted(
        s.run_id for s in plan(world) if s.run_id != failing)


# a leftover that rmtree cannot remove (as under another owner's
# permissions) fails its cell, and the leftover stays as it was
@pytest.mark.parametrize("name, error", [
    ("mono-aa-s50-partial-seed0", "OSError"),
    (".mono-aa-s50-partial-seed0.partial", "FileExistsError"),
])
def test_a_leftover_that_cannot_be_removed_fails_its_cell(world, monkeypatch, name, error):
    stale = world.output_path / world.config_hash[:12] / "checkpoints" / name
    stale.mkdir(parents=True)
    (stale / "notes.txt").write_text("cannot be removed")
    rmtree = shutil.rmtree
    monkeypatch.setattr(shutil, "rmtree", lambda path, **kwargs: (
        None if Path(path) == stale else rmtree(path, **kwargs)))
    results = run(world)
    (failure,) = _failures(results)
    assert (failure["run_id"], failure["error"]) == ("mono-aa-s50-partial-seed0", error)
    assert "mono-aa-s50-partial-seed0" not in results.read_text()
    assert [p.name for p in stale.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in stale.parent.iterdir()) == sorted(
        [name] + [s.run_id for s in plan(world) if s.run_id != "mono-aa-s50-partial-seed0"])


def test_cells_under_a_checkpoints_file_fail_before_training(world, monkeypatch, capsys):
    checkpoints = world.output_path / world.config_hash[:12] / "checkpoints"
    checkpoints.parent.mkdir(parents=True)
    checkpoints.write_text("a regular file")
    calls = []
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: calls.append(args))
    assert main(["experiment", "--config", str(Path(world.base_dir) / "config.json")]) == 0
    results = Path(capsys.readouterr().out.strip())
    failures = _failures(results)
    assert [f["run_id"] for f in failures] == [s.run_id for s in plan(world)]
    assert all(f["error"] == "ConfigError" for f in failures)
    assert all(f["message"].endswith("checkpoints: not a directory") for f in failures)
    assert calls == []
    assert results.read_text() == ""
    assert checkpoints.read_text() == "a regular file"


# what a kill between staging and renaming leaves is cleared on resume
def test_grid_clears_a_stale_staging_directory(world):
    checkpoints = world.output_path / world.config_hash[:12] / "checkpoints"
    stale = checkpoints / ".mono-aa-s50-partial-seed0.partial"
    stale.mkdir(parents=True)
    (stale / "W1.values.bin").write_bytes(b"left by a killed attempt")
    run(world)
    assert sorted(p.name for p in checkpoints.iterdir()) == sorted(
        s.run_id for s in plan(world))


# Runs the grid of the config file argv[1] and SIGKILLs itself at a fixed
# point of the third cell: right after its checkpoint is renamed into
# place ("renamed"), or after writing the first argv[3] characters of its
# result lines ("torn"); or after writing half of the config snapshot
# ("snapshot").
KILLED_GRID = """
import os, pathlib, signal, sys
from nerprune import experiment

config_path, point, cut = sys.argv[1], sys.argv[2], int(sys.argv[3])
count = 0

def third():
    global count
    count += 1
    return count == 3

def die():
    os.kill(os.getpid(), signal.SIGKILL)

if point == "renamed":
    rename = pathlib.Path.rename

    def renaming(self, target):
        result = rename(self, target)
        if third():
            die()
        return result

    pathlib.Path.rename = renaming
elif point == "snapshot":
    write_text = pathlib.Path.write_text

    def cutting(self, data, **kwargs):
        if "config_snapshot" in self.name:
            write_text(self, data[:len(data) // 2], **kwargs)
            die()
        return write_text(self, data, **kwargs)

    pathlib.Path.write_text = cutting
else:
    class Torn:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:cut])
            self.f.flush()
            die()

    def opening(path, mode="r", **kwargs):
        f = open(path, mode, **kwargs)
        if pathlib.Path(path).name == "results.jsonl" and mode == "a" and third():
            return Torn(f)
        return f

    experiment.open = opening
experiment.run(experiment.config_from_file(config_path))
raise SystemExit("the grid finished without reaching its kill point")
"""


def _kill_grid(config_path, point, cut=0):
    """Run KILLED_GRID on the config file config_path in a child process,
    which must die by its SIGKILL."""
    src = str(Path(experiment.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", KILLED_GRID, str(config_path), point, str(cut)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr


# the third cell's lines are cut inside its first line or inside its last
# line; either way the second cell's lines are whole and stay
@pytest.mark.parametrize("point, cut", [("renamed", 0), ("torn", 40), ("torn", -40)])
def test_grid_killed_mid_cell_resumes_to_the_uninterrupted_results(tmp_path, point, cut):
    whole = config_from_file(write_world(tmp_path / "whole"))
    expected = run(whole).read_bytes()
    config_path = write_world(tmp_path / "killed")
    _kill_grid(config_path, point, cut)
    config = config_from_file(config_path)
    out_dir = config.output_path / config.config_hash[:12]
    killed_cell = plan(config)[2].run_id
    if point == "renamed":
        assert (out_dir / "checkpoints" / killed_cell).is_dir()
        assert killed_cell not in (out_dir / "results.jsonl").read_text()
    else:
        assert not (out_dir / "results.jsonl").read_bytes().endswith(b"\n")
    assert run(config).read_bytes() == expected
    assert sorted(p.name for p in (out_dir / "checkpoints").iterdir()) == sorted(
        s.run_id for s in plan(config))


# a snapshot cut short used to fail every resume with exit 2
def test_grid_killed_writing_its_snapshot_resumes_to_the_uninterrupted_results(
        tmp_path, capsys):
    whole = run(config_from_file(write_world(tmp_path / "whole"))).parent
    config_path = write_world(tmp_path / "killed")
    _kill_grid(config_path, "snapshot")
    config = config_from_file(config_path)
    out_dir = config.output_path / config.config_hash[:12]
    assert not (out_dir / "results.jsonl").exists()
    assert main(["experiment", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out == f"{out_dir / 'results.jsonl'}\n"
    for name in ("results.jsonl", "config_snapshot.json"):
        assert (out_dir / name).read_bytes() == (whole / name).read_bytes()
