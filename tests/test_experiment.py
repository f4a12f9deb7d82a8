import json

import pytest

from nerprune.errors import ConfigError, MissingMetadataError
from nerprune.evaluation import read_run_records
from nerprune.experiment import (
    DEFAULT_SCHEDULE_TABLE,
    ExperimentConfig,
    RunSpec,
    config_from_dict,
    config_from_file,
    load_split,
    plan,
    run,
    train_test_overlaps,
)
from worlds import DIVERGING_TAGGER, write_world


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
    with pytest.raises(ConfigError, match="multiple of the frequency"):
        ExperimentConfig(**base_kwargs(schedule_table=((100, (0, 10, 3)),)))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(**base_kwargs(seeds=(0, 0)))


def test_config_hash_ignores_base_dir_but_not_contents():
    a = ExperimentConfig(**base_kwargs())
    b = ExperimentConfig(**base_kwargs(base_dir="/somewhere/else"))
    c = ExperimentConfig(**base_kwargs(languages=("aa", "bb")))
    d = ExperimentConfig(**base_kwargs(corpus_root="other"))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert a.config_hash != d.config_hash


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
        load_split(world, "aa", "dev")


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


def test_rerun_is_idempotent(world):
    results = run(world)
    before = results.read_bytes()
    assert run(world) == results
    assert results.read_bytes() == before


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


def test_parallel_run_matches_serial_results(world):
    results = run(world)
    serial = sorted(
        json.dumps({k: v for k, v in json.loads(l).items() if k != "train_seconds"},
                   sort_keys=True)
        for l in results.read_text().splitlines()
    )
    results.unlink()
    run(world, workers=2)
    parallel = sorted(
        json.dumps({k: v for k, v in json.loads(l).items() if k != "train_seconds"},
                   sort_keys=True)
        for l in results.read_text().splitlines()
    )
    assert parallel == serial


def test_overlap_helper_skips_mention_free_test_sets(world):
    from conftest import corpus_of, sent
    from nerprune.experiment import load_corpora

    trains, tests = load_corpora(world)
    trains = {**trains, "cc": corpus_of([sent(["x"], ["O"], "cc")], "cc", "train")}
    tests = {**tests, "cc": corpus_of([sent(["y"], ["O"], "cc")], "cc", "test")}
    overlaps = train_test_overlaps(trains, tests)
    assert set(overlaps) == {"aa", "bb"}
    assert 0.0 <= overlaps["aa"] <= 1.0


def test_metadata_must_cover_the_languages(tmp_path):
    path = write_world(tmp_path)
    (tmp_path / "languages.csv").write_text(
        "code,script,family,train_size,pretrain_pct\naa,Latin,Fam1,4,0.1\n"
    )
    config = config_from_file(path)
    with pytest.raises(MissingMetadataError):
        run(config)
