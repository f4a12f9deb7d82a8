import json
import shutil
import subprocess
from pathlib import Path

import pytest

import nerprune.experiment
from nerprune.cli import build_parser, main
from worlds import AA_TEST, BB_TEST, DIVERGING_TAGGER, METADATA, write_world

HELP_DIR = Path(__file__).parent / "data" / "cli_help"

AA_TEST_FILE = """\
ada\tB-PER
saw\tO
lima\tB-LOC

oslo\tB-LOC
wins\tO
"""


@pytest.mark.parametrize(
    "command",
    [None, "validate", "perturb", "train", "evaluate",
     "experiment", "analyze", "report"],
)
def test_help_text_is_stable(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 0
    expected = (HELP_DIR / f"{command or 'main'}.txt").read_text()
    assert capsys.readouterr().out == expected


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["perturb", "x.iob2", "--scope", "everywhere",
              "--seed", "1", "--meta", "m", "--out-dir", "o"])
    assert info.value.code == 1


def test_validate_prints_counts(tmp_path, capsys):
    path = tmp_path / "aa.iob2"
    path.write_text(AA_TEST_FILE)
    assert main(["validate", str(path), "--language", "aa"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "sentences": 2,
        "tokens": 5,
        "mentions": {"PER": 1, "LOC": 2, "ORG": 0},
    }


def test_validate_rejects_malformed_input_with_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.iob2"
    path.write_text("token with too many fields\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.iob2:1" in err


def test_validate_rejects_an_empty_language_with_exit_two(tmp_path, capsys):
    path = tmp_path / "aa.iob2"
    path.write_text(AA_TEST_FILE)
    assert main(["validate", str(path), "--language", ""]) == 2
    assert "--language must be non-empty" in capsys.readouterr().err


def test_validate_strip_prefix(tmp_path, capsys):
    path = tmp_path / "aa.iob2"
    path.write_text("aa:ada\tB-PER\n")
    assert main(["validate", str(path), "--language", "aa", "--strip-prefix"]) == 0
    assert json.loads(capsys.readouterr().out)["tokens"] == 1


def test_perturb_writes_corpora_and_logs(tmp_path, capsys):
    corpus = tmp_path / "aa.iob2"
    corpus.write_text(AA_TEST_FILE)
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    out = tmp_path / "out"
    argv = [
        "perturb", str(corpus), "--scope", "in-language",
        "--seed", "5", "--meta", str(meta), "--out-dir", str(out),
    ]
    assert main(argv) == 0
    assert "of 3 mentions replaced" in capsys.readouterr().out
    produced = (out / "aa.in-language.iob2").read_text()
    assert produced != AA_TEST_FILE
    log = (out / "aa.in-language.log.jsonl").read_text().splitlines()
    assert len(log) == 3
    first = produced
    assert main(argv) == 0
    assert (out / "aa.in-language.iob2").read_text() == first


@pytest.mark.parametrize("names, extra, message", [
    (["aa.iob2"], ["--seed", "-1"], "seed must be non-negative"),
    (["aa.x.iob2", "aa.y.iob2"], ["--seed", "5"], "aa.y.iob2: a second input"),
    (["aa.iob2", "zz.iob2"], ["--seed", "5"], "no metadata for language(s): zz"),
], ids=["negative-seed", "duplicate-language", "missing-metadata"])
def test_perturb_rejects_bad_inputs_with_exit_two(tmp_path, capsys,
                                                  names, extra, message):
    for name in names:
        (tmp_path / name).write_text(AA_TEST_FILE)
    (tmp_path / "languages.csv").write_text(METADATA)
    assert main([
        "perturb", *(str(tmp_path / name) for name in names),
        "--scope", "in-language", *extra,
        "--meta", str(tmp_path / "languages.csv"), "--out-dir", str(tmp_path / "out"),
    ]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CC_TEST = """\
zeus\tB-PER
rules\tO
delphi\tB-LOC

sparta\tB-ORG
fights\tO
"""


def test_perturb_matches_the_grids_perturbed_sets(tmp_path, capsys):
    config = write_world(tmp_path, sparsity_levels=(0,), extra={
        "languages": ["aa", "bb", "cc"], "scopes": ["in-script"],
    })
    (tmp_path / "corpus" / "cc").mkdir()
    for split in ("train", "test"):
        (tmp_path / "corpus" / "cc" / f"{split}.iob2").write_text(CC_TEST)
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA + "cc,Greek,Fam1,4,0.1\n")
    assert main(["experiment", "--config", str(config)]) == 0
    grid_dir = Path(capsys.readouterr().out.strip()).parent / "perturbed"

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths = []
    for language, text in (("aa", AA_TEST), ("bb", BB_TEST), ("cc", CC_TEST)):
        paths.append(inputs / f"{language}.test.iob2")
        paths[-1].write_text(text)
    out = tmp_path / "cli"
    assert main([
        "perturb", *map(str, paths), "--scope", "in-script", "--seed", "7",
        "--meta", str(meta), "--out-dir", str(out),
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["aa", "bb", "cc"]
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in grid_dir.iterdir())
    assert len(names) == 6
    for name in names:
        assert (out / name).read_bytes() == (grid_dir / name).read_bytes()


def test_train_then_evaluate_round_trip(tmp_path, capsys):
    config = write_world(tmp_path)
    ckpt = tmp_path / "ckpt"
    argv = [
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "50", "--seed", "0", "--out", str(ckpt),
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == "mono-aa-s50-partial-seed0"
    assert payload["achieved_sparsity"] == 0.5
    assert "aa" in payload["regular_f1"]
    assert (ckpt / "manifest.json").is_file()

    assert main([
        "evaluate", "--config", str(config), "--checkpoint", str(ckpt),
        "--language", "aa", "--split", "regular",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["language"] == "aa"
    assert set(report["per_type"]) == {"PER", "LOC", "ORG"}
    assert report["f1"] == payload["regular_f1"]["aa"]

    assert main([
        "evaluate", "--config", str(config), "--checkpoint", str(ckpt),
        "--language", "aa", "--split", "perturbed-in-language",
    ]) == 0
    perturbed = json.loads(capsys.readouterr().out)
    assert perturbed["split"] == "perturbed-in-language"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_exits_two(tmp_path, capsys):
    config = write_world(tmp_path, extra={"tagger": DIVERGING_TAGGER})
    ckpt = tmp_path / "ckpt"
    assert main([
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "50", "--seed", "0", "--out", str(ckpt),
    ]) == 2
    assert "diverged at step" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_replaces_a_checkpoint_directory_whole(tmp_path, capsys):
    config = write_world(tmp_path)
    argv = ["train", "--config", str(config), "--language", "aa",
            "--sparsity", "50", "--seed", "0", "--out"]
    fresh = tmp_path / "fresh"
    assert main(argv + [str(fresh)]) == 0
    ckpt = tmp_path / "ckpt"
    assert main(argv + [str(ckpt)]) == 0
    (ckpt / "stray.bin").write_bytes(b"left by an earlier attempt")
    assert main(argv + [str(ckpt)]) == 0
    assert sorted(p.name for p in ckpt.iterdir()) == sorted(p.name for p in fresh.iterdir())
    assert not list(tmp_path.glob(".*.partial"))


def _notes_directory(out):
    out.mkdir()
    (out / "notes.txt").write_text("not a checkpoint")
    return out / "notes.txt"


def _notes_file(out):
    out.write_text("not a checkpoint")
    return out


@pytest.mark.parametrize("occupy, message", [
    (_notes_directory, "without manifest.json"),
    (_notes_file, "not a directory"),
])
def test_train_refuses_an_out_that_is_not_a_checkpoint(tmp_path, capsys, occupy, message):
    config = write_world(tmp_path)
    out = tmp_path / "notes"
    kept = occupy(out)
    assert main([
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "50", "--seed", "0", "--out", str(out),
    ]) == 2
    assert message in capsys.readouterr().err
    assert kept.read_text() == "not a checkpoint"
    assert not list(tmp_path.glob(".*.partial"))


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("out, cwd, message", [
    (".", "world", "holds the working directory"),
    (".", "elsewhere", "holds the config file's directory"),
    ("corpus", "elsewhere", "holds a corpus directory"),
    ("corpus/aa", "elsewhere", "holds a corpus directory"),
    ("..", "world", "holds the working directory"),
])
def test_train_never_replaces_a_directory_with_its_inputs(
        tmp_path, monkeypatch, capsys, out, cwd, message):
    world = tmp_path / "world"
    world.mkdir()
    config = write_world(world)
    # as a checkpoint saved straight into the directory would have left it
    (world / out / "manifest.json").write_text("{}")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / cwd)
    before = _tree(tmp_path)
    argv = ["train", "--config", str(config), "--language", "aa",
            "--sparsity", "50", "--seed", "0", "--out", str(world / out)]
    for _ in range(2):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert _tree(tmp_path) == before


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A world and a checkpoint trained on it, made once for the module."""
    root = tmp_path_factory.mktemp("trained")
    config = write_world(root)
    assert main([
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "50", "--seed", "0", "--out", str(root / "ckpt"),
    ]) == 0
    return config, root / "ckpt"


def _drop_values_file(ckpt):
    (ckpt / "W1.values.bin").unlink()


def _garble_sidecar(ckpt):
    (ckpt / "model.json").write_text("{not json")


def _drop_tensor_name(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["tensors"][0]["name"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _non_integer_shape(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"][0]["shape"] = ["x"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _manifest_not_an_object(ckpt):
    (ckpt / "manifest.json").write_text("[]")


def _set_sidecar_config(ckpt, **fields):
    sidecar = json.loads((ckpt / "model.json").read_text())
    sidecar["config"].update(fields)
    (ckpt / "model.json").write_text(json.dumps(sidecar))


def _sidecar_window_two(ckpt):
    # the checkpoint was trained with window 1
    _set_sidecar_config(ckpt, window=2)


def _sidecar_hidden_dim_seven(ckpt):
    # the checkpoint was trained with hidden_dim 6
    _set_sidecar_config(ckpt, hidden_dim=7)


@pytest.mark.parametrize("corrupt, message", [
    (_drop_values_file, "W1.values.bin"),
    (_garble_sidecar, "malformed model sidecar"),
    (_drop_tensor_name, "malformed tensor entry"),
    (_non_integer_shape, "malformed tensor entry"),
    (_manifest_not_an_object, "manifest.json"),
    (_sidecar_window_two, "W1 shape (12, 6) does not match the (20, 6)"),
    (_sidecar_hidden_dim_seven, "W1 shape (12, 6) does not match the (12, 7)"),
])
def test_evaluate_broken_checkpoint_exits_two(trained, tmp_path, capsys,
                                              corrupt, message):
    config, ckpt = trained
    broken = tmp_path / "ckpt"
    shutil.copytree(ckpt, broken)
    corrupt(broken)
    assert main([
        "evaluate", "--config", str(config), "--checkpoint", str(broken),
        "--language", "aa",
    ]) == 2
    assert message in capsys.readouterr().err


def test_experiment_with_malformed_snapshot_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    (results.parent / "config_snapshot.json").write_text('{"config_hash": ')
    assert main(["experiment", "--config", str(config)]) == 2
    assert "config_snapshot.json: malformed" in capsys.readouterr().err


def test_train_parses_the_cells_train_split_only(tmp_path, monkeypatch):
    config = write_world(tmp_path)
    calls = []
    load_split = nerprune.experiment.load_split

    def recording(root, language, split):
        calls.append(f"{language}/{split}")
        return load_split(root, language, split)

    monkeypatch.setattr(nerprune.experiment, "load_split", recording)
    assert main([
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "0", "--seed", "0", "--out", str(tmp_path / "c"),
    ]) == 0
    assert sorted(calls) == ["aa/test", "aa/train", "bb/test"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.3", 10**400])
def test_bad_learning_rate_exits_two(tmp_path, capsys, value):
    config = write_world(tmp_path)
    data = json.loads(config.read_text())
    data["tagger"]["learning_rate"] = value
    config.write_text(json.dumps(data))
    assert main(["experiment", "--config", str(config)]) == 2
    assert "learning_rate must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("embed_dim", 2.0), ("hidden_dim", 6.5), ("epochs", 1.5), ("batch_size", 2.5),
])
def test_non_integer_tagger_field_exits_two(tmp_path, capsys, field, value):
    config = write_world(tmp_path)
    data = json.loads(config.read_text())
    data["tagger"][field] = value
    config.write_text(json.dumps(data))
    assert main(["experiment", "--config", str(config)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


# each value used to be converted into a valid one: 50.7 ran as 50, "ab"
# as languages a and b, a fourth schedule entry was dropped, ["corpus"]
# named a directory "['corpus']"
@pytest.mark.parametrize("key, value, message", [
    ("sparsity_levels", [0, 50.7], "sparsity_levels entry must be an integer"),
    ("perturbation_seed", 7.9, "perturbation_seed must be an integer"),
    ("seeds", "0", "seeds must be an array"),
    ("seeds", [True], "seeds entry must be an integer"),
    ("languages", "ab", "languages must be an array"),
    ("schedule_table", {"4": [2.5, 10, 2]}, "schedule for size 4: entry must be an integer"),
    ("schedule_table", {"4": [2, 10, 2, 9]}, "must be [start, end, frequency]"),
    ("paths", {"corpus_root": ["corpus"], "metadata": "languages.csv", "output": "out"},
     "corpus_root must be a string"),
    # a code names a directory and a file-name stem that perturb splits at "."
    ("languages", ["aa", "a/a"], "languages entry must be non-empty letters"),
    ("languages", ["aa", ""], "languages entry must be non-empty letters"),
    ("languages", ["aa", "a.b"], "languages entry must be non-empty letters"),
], ids=["float-level", "float-perturbation-seed", "string-seeds", "bool-seed",
        "string-languages", "float-schedule-start", "four-schedule-entries",
        "array-corpus-root", "slash-language", "empty-language", "dotted-language"])
def test_grid_value_that_is_not_of_its_type_exits_two(tmp_path, capsys, key,
                                                      value, message):
    config = write_world(tmp_path)
    data = json.loads(config.read_text())
    data[key] = value
    config.write_text(json.dumps(data))
    assert main(["experiment", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_validates_language_against_mode(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main([
        "train", "--config", str(config),
        "--sparsity", "0", "--seed", "0", "--out", str(tmp_path / "c"),
    ]) == 2
    assert "--language is required" in capsys.readouterr().err
    assert main([
        "train", "--config", str(config), "--language", "zz",
        "--sparsity", "0", "--seed", "0", "--out", str(tmp_path / "c"),
    ]) == 2
    assert main([
        "train", "--config", str(config), "--language", "aa",
        "--sparsity", "70", "--seed", "0", "--out", str(tmp_path / "c"),
    ]) == 2
    assert "not in config levels" in capsys.readouterr().err

    multi = write_world(tmp_path / "multi", mode="multilingual")
    assert main([
        "train", "--config", str(multi), "--language", "aa",
        "--sparsity", "0", "--seed", "0", "--out", str(tmp_path / "c"),
    ]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_experiment_analyze_report_pipeline(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    assert results.is_file()

    meta = tmp_path / "languages.csv"
    assert main([
        "analyze", "--results", str(results), "--meta", str(meta),
        "--dim", "family", "--stat", "mean",
    ]) == 0
    cells = json.loads(capsys.readouterr().out)
    key = "sparsity=0 strategy=partial split=regular"
    assert key in cells
    assert set(cells[key]) == {"Fam1", "all"}

    report_dir = tmp_path / "report"
    assert main([
        "report", "--results", str(results), "--meta", str(meta),
        "--out-dir", str(report_dir),
        "--corpus-root", str(tmp_path / "corpus"),
    ]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(report_dir / "summary.json") in printed
    assert (report_dir / "overlap_f1.csv").is_file()
    assert (report_dir / "deltas.csv").is_file()


def test_analyze_rejects_missing_results_file(tmp_path, capsys):
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main([
        "analyze", "--results", str(tmp_path / "absent.jsonl"),
        "--meta", str(meta),
    ]) == 2
    assert "absent.jsonl" in capsys.readouterr().err


def _record(**overrides):
    return json.dumps({
        "language": "aa", "sparsity": 0, "strategy": "partial", "seed": 0,
        "split": "regular", "tp": 1, "fp": 0, "fn": 0,
        "precision": 1.0, "recall": 1.0, "f1": 1.0, **overrides,
    })


@pytest.mark.parametrize("command, line", [
    ("analyze", "[1, 2]"),
    ("report", json.dumps({
        "language": "aa", "sparsity": 0, "strategy": "partial", "seed": 0,
        "split": "regular", "tp": 1, "fp": 0, "fn": 0,
        "precision": 1.0, "recall": 1.0, "f1": None,
    })),
    # each used to be converted: 50.7 grouped as sparsity 50, true read as F1 1.0
    *(("analyze", _record(**{key: value})) for key, value in [
        ("sparsity", 50.7), ("sparsity", True), ("seed", "0"), ("tp", 1.5),
        ("fn", False), ("precision", "1.0"), ("f1", True), ("language", 7),
        ("strategy", None), ("split", ["regular"])]),
    # each used to exit 0, and analyze printed NaN, which is not JSON
    *(("analyze", _record(**{key: value})) for key, value in [
        ("f1", float("nan")), ("f1", 7.5), ("precision", -0.5),
        ("recall", float("inf"))]),
], ids=["analyze-non-object-line", "report-null-f1", "float-sparsity", "bool-sparsity",
        "string-seed", "float-tp", "bool-fn", "string-precision", "bool-f1",
        "int-language", "null-strategy", "array-split", "nan-f1", "f1-above-one",
        "negative-precision", "infinite-recall"])
def test_malformed_results_record_exits_two(tmp_path, capsys, command, line):
    results = tmp_path / "results.jsonl"
    results.write_text(line + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    argv = [command, "--results", str(results), "--meta", str(meta)]
    if command == "report":
        argv += ["--out-dir", str(tmp_path / "report")]
    assert main(argv) == 2
    assert "malformed results file" in capsys.readouterr().err


def test_well_typed_results_record_is_read(tmp_path, capsys):
    # the record the malformed rows above each break in one field
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(["analyze", "--results", str(results), "--meta", str(meta)]) == 0


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_family_named_all_exits_two(tmp_path, capsys, command):
    # "all" names the group of every language, which would hide aa's group
    results = tmp_path / "results.jsonl"
    results.write_text(_record(f1=0.2) + "\n" + _record(language="bb", f1=0.8) + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA.replace("aa,Latin,Fam1", "aa,Latin,all"))
    argv = [command, "--results", str(results), "--meta", str(meta)]
    if command == "analyze":
        argv += ["--dim", "family"]
    else:
        argv += ["--out-dir", str(tmp_path / "report")]
    assert main(argv) == 2
    assert "language 'aa': family 'all' is reserved" in capsys.readouterr().err


def test_report_with_missing_corpus_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = capsys.readouterr().out.strip()
    missing = tmp_path / "absent"
    assert main([
        "report", "--results", results, "--meta", str(tmp_path / "languages.csv"),
        "--out-dir", str(tmp_path / "report"), "--corpus-root", str(missing),
    ]) == 2
    assert str(missing / "aa" / "train.iob2") in capsys.readouterr().err


# each output path runs through a regular file named "blocked"; each
# command used to die with a NotADirectoryError or FileExistsError traceback
@pytest.mark.parametrize("command", ["experiment", "report", "perturb", "train"])
def test_blocked_output_path_exits_two(tmp_path, capsys, command):
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    if command == "experiment":
        config = write_world(tmp_path, extra={"paths": {
            "corpus_root": "corpus", "metadata": "languages.csv", "output": "blocked"}})
        argv = ["experiment", "--config", str(config)]
    elif command == "report":
        results = tmp_path / "results.jsonl"
        results.write_text(_record() + "\n")
        argv = ["report", "--results", str(results), "--meta", str(meta),
                "--out-dir", str(blocked)]
    elif command == "perturb":
        corpus = tmp_path / "aa.iob2"
        corpus.write_text(AA_TEST_FILE)
        argv = ["perturb", str(corpus), "--scope", "in-language", "--seed", "1",
                "--meta", str(meta), "--out-dir", str(blocked)]
    else:
        config = write_world(tmp_path)
        argv = ["train", "--config", str(config), "--language", "aa",
                "--sparsity", "0", "--seed", "0", "--out", str(blocked / "ck")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nerprune: error: " in err
    assert "blocked" in err
    assert "Traceback" not in err


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("nerprune")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = tmp_path / "aa.iob2"
    path.write_text(AA_TEST_FILE)
    proc = subprocess.run(
        [exe, "validate", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sentences"] == 2
