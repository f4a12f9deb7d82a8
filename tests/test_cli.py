import csv
import fcntl
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nerprune.experiment
from nerprune.cli import _COMMANDS, build_parser, main
from nerprune.evaluation import RunRecord, ScoreReport, read_run_records
from worlds import (
    AA_TEST, BB_TEST, METADATA, trace_without_timing, write_world,
)

HELP_DIR = Path(__file__).parent / "data" / "cli_help"

AA_TEST_FILE = """\
ada\tB-PER
saw\tO
lima\tB-LOC

oslo\tB-LOC
wins\tO
"""


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_text_is_stable(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 0
    expected = (HELP_DIR / f"{command or 'main'}.txt").read_text()
    assert capsys.readouterr().out == expected


def test_help_fixtures_are_the_commands():
    assert {path.stem for path in HELP_DIR.glob("*.txt")} == {"main", *_COMMANDS}


def _readme_commands():
    """Each line of the README's sh blocks that runs nerprune, with its
    backslash continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("nerprune ")]


README_COMMANDS = _readme_commands()


def test_the_readme_shows_every_command():
    assert {line.split()[1] for line in README_COMMANDS} == set(_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_parses(line):
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"the README's command does not parse: {line}")


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
    assert main(["validate", str(path)]) == 0
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


# the corpus is the scope's output name; the metadata file is its log's;
# the output name links to the corpus; the working directory is the
# output directory, as in `--out-dir .`
@pytest.mark.parametrize("corpus_name, meta_name, link", [
    ("aa.in-language.iob2", "languages.csv", None),
    ("aa.iob2", "aa.in-language.log.jsonl", None),
    ("aa.iob2", "languages.csv", "symlink_to"),
    ("aa.iob2", "languages.csv", "hardlink_to"),
], ids=["the corpus", "the metadata", "a symlink to the corpus", "a hard link to the corpus"])
def test_perturb_never_overwrites_an_input(
        tmp_path, monkeypatch, capsys, corpus_name, meta_name, link):
    (tmp_path / corpus_name).write_text(AA_TEST_FILE)
    (tmp_path / meta_name).write_text(METADATA)
    if link:
        getattr(tmp_path / "aa.in-language.iob2", link)(tmp_path / corpus_name)
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert main(["perturb", corpus_name, "--scope", "in-language", "--seed", "5",
                 "--meta", meta_name, "--out-dir", "."]) == 2
    overwritten = corpus_name if link or corpus_name != "aa.iob2" else meta_name
    assert capsys.readouterr().err == (
        f"nerprune: error: {overwritten}: an input, which an output would overwrite\n")
    assert _tree(tmp_path) == before


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


SCORES = ("tp", "fp", "fn", "precision", "recall", "f1")
AA_CELL = "mono-aa-s50-partial-seed0"


def _aa_slot(config):
    """The checkpoint slot of AA_CELL in the grid of the config file config."""
    grid = nerprune.experiment.config_from_file(config)
    return grid.output_path / grid.config_hash[:12] / "checkpoints" / AA_CELL


# at 200 epochs the world's tagger finds entities; at 10 it finds none,
# and every score would be 0 on both sides
def test_evaluate_reproduces_the_grid(tmp_path, capsys):
    config = write_world(tmp_path, extra={"tagger": {
        "embed_dim": 4, "hidden_dim": 6, "learning_rate": 0.3, "epochs": 200, "batch_size": 2,
    }})
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    lines = [json.loads(l) for l in results.read_text().splitlines()]
    assert len(lines) == 8
    assert {l["achieved_sparsity"] for l in lines if l["sparsity"] == 50} == {0.5}
    for line in lines:
        assert line["tp"] > 0
        assert main([
            "evaluate", "--config", str(config),
            "--checkpoint", str(results.parent / "checkpoints" / line["run_id"]),
            "--language", line["language"], "--split", line["split"],
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["language"], report["split"]) == (line["language"], line["split"])
        assert set(report["per_type"]) == {"PER", "LOC", "ORG"}
        assert [report[k] for k in SCORES] == [line[k] for k in SCORES]


# the world's config scores languages aa and bb, regular and in-language;
# the split is checked before the checkpoint is read
@pytest.mark.parametrize("language, split", [
    ("cc", "regular"), ("aa", "perturbed-in-script")])
def test_evaluate_refuses_a_split_the_config_does_not_score(tmp_path, capsys, language, split):
    config = write_world(tmp_path)
    assert main(["evaluate", "--config", str(config), "--checkpoint", str(tmp_path / "none"),
                 "--language", language, "--split", split]) == 2
    assert (f"the config scores no {split} split of {language!r}"
            in capsys.readouterr().err)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A world and the checkpoint of its grid's cell AA_CELL, made once
    for the module."""
    root = tmp_path_factory.mktemp("trained")
    config = write_world(root, sparsity_levels=(50,))
    assert main(["experiment", "--config", str(config)]) == 0
    return config, _aa_slot(config)


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


def _set_b2_shape(ckpt, shape):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    entry, = (e for e in manifest["tensors"] if e["name"] == "b2")
    entry["shape"] = shape
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _negative_shape(ckpt):
    # b2 holds 9 entries, so the dims' product matches its files
    _set_b2_shape(ckpt, [-3, -3])


def _boolean_dim(ckpt):
    _set_b2_shape(ckpt, [True, 9])


def _manifest_not_an_object(ckpt):
    (ckpt / "manifest.json").write_text("[]")


def _sidecar_not_an_object(ckpt):
    (ckpt / "model.json").write_text("[]")


def _format_version_two(ckpt):
    # used to exit 0: any version loaded as version 1
    manifest = json.loads((ckpt / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps({**manifest, "format_version": 2}))


def _set_sidecar(ckpt, config=(), **fields):
    """Updates the sidecar's config with config and the sidecar with fields."""
    sidecar = json.loads((ckpt / "model.json").read_text())
    sidecar["config"].update(config)
    sidecar.update(fields)
    (ckpt / "model.json").write_text(json.dumps(sidecar))


def _sidecar_window_two(ckpt):
    # the checkpoint was trained with window 1
    _set_sidecar(ckpt, config={"window": 2})


def _sidecar_hidden_dim_seven(ckpt):
    # the checkpoint was trained with hidden_dim 6
    _set_sidecar(ckpt, config={"hidden_dim": 7})


def _sidecar_embed_dim_zero(ckpt):
    _set_sidecar(ckpt, config={"embed_dim": 0})


def _sidecar_learning_rate_text(ckpt):
    _set_sidecar(ckpt, config={"learning_rate": "x"})


def _sidecar_tagset_o(ckpt):
    _set_sidecar(ckpt, tagset=["O"])


def _sidecar_unk_not_first(ckpt):
    _set_sidecar(ckpt, vocab_tokens=["x", "<unk>", "<pad>"])


def _set_last_token(value):
    def corrupt(ckpt):
        # used to exit 0: the entry became a vocab key
        tokens = json.loads((ckpt / "model.json").read_text())["vocab_tokens"]
        _set_sidecar(ckpt, vocab_tokens=[*tokens[:-1], value])
    return corrupt


def _sidecar_repeated_token(ckpt):
    # used to blame E's shape, naming no file
    tokens = json.loads((ckpt / "model.json").read_text())["vocab_tokens"]
    _set_sidecar(ckpt, vocab_tokens=[*tokens, tokens[2]])


def _edit_manifest(ckpt, edit):
    """Applies edit to the manifest's list of tensor entries."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest["tensors"])
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _e_listed_twice(ckpt):
    # used to exit 0: the model kept one of the two
    _edit_manifest(ckpt, lambda tensors: tensors.append(tensors[0]))


def _name_climbs_out(ckpt):
    _edit_manifest(ckpt, lambda tensors: tensors[0].update(name="../E"))


def _unknown_role(ckpt):
    _edit_manifest(ckpt, lambda tensors: tensors[0].update(role="sparse"))


def _e_dense_and_w2_excluded(ckpt):
    # used to load, and compute_masks then pruned E under partial
    def edit(tensors):
        roles = {"E": "dense", "W2": "excluded"}
        for entry in tensors:
            entry["role"] = roles.get(entry["name"], entry["role"])
    _edit_manifest(ckpt, edit)


def _b2_unlisted(ckpt):
    _edit_manifest(ckpt, lambda tensors: tensors.pop())


def _short_mask_file(ckpt):
    (ckpt / "b2.mask.bin").write_bytes(b"\x01" * 6)


def _set_value(ckpt, name, pick, value):
    """Sets the first entry whose mask passes pick to value."""
    values = np.fromfile(ckpt / f"{name}.values.bin", dtype="<f8")
    mask = np.fromfile(ckpt / f"{name}.mask.bin", dtype=np.uint8)
    values[np.flatnonzero(pick(mask))[0]] = value
    values.tofile(ckpt / f"{name}.values.bin")


def _nan_in_w2(ckpt):
    _set_value(ckpt, "W2", lambda mask: mask == 1, float("nan"))


def _masked_weight_in_w1(ckpt):
    # the checkpoint was trained to 50 % sparsity, so W1 has masked entries
    _set_value(ckpt, "W1", lambda mask: mask == 0, 0.5)


@pytest.mark.parametrize("corrupt, message", [
    (_drop_values_file, "W1.values.bin"),
    (_nan_in_w2, "W2: values hold NaN or infinity"),
    (_masked_weight_in_w1, "W1: a weight under a zero mask is not 0"),
    (_garble_sidecar, "model.json: Expecting property name enclosed in double quotes"),
    (_drop_tensor_name, "malformed tensor entry"),
    (_non_integer_shape, "malformed tensor entry"),
    (_negative_shape, "dims must be non-negative integers"),
    (_boolean_dim, "dims must be non-negative integers"),
    (_manifest_not_an_object, "manifest.json: manifest must be a JSON object"),
    (_sidecar_not_an_object, "model.json: model sidecar must be a JSON object"),
    (_format_version_two, "manifest.json: unsupported format_version 2"),
    (_set_last_token(5), "model.json: vocab_tokens must be a list of strings"),
    (_set_last_token(None), "model.json: vocab_tokens must be a list of strings"),
    (_sidecar_window_two, "W1 shape (12, 6) does not match the (20, 6)"),
    (_sidecar_hidden_dim_seven, "W1 shape (12, 6) does not match the (12, 7)"),
    # a config that fails TaggerConfig's checks used to print without the path
    (_sidecar_embed_dim_zero, "model.json: malformed model sidecar: "
     "ConfigError('embed_dim and hidden_dim must be >= 1')"),
    (_sidecar_learning_rate_text, "model.json: malformed model sidecar: "
     "ConfigError(\"learning_rate must be a finite positive number, got 'x'\")"),
    (_sidecar_tagset_o, "model.json: unsupported tagset ('O',)"),
    (_sidecar_unk_not_first, "model.json: vocab must map <unk> to 0 and <pad> to 1"),
    (_sidecar_repeated_token, "model.json: vocab ids must be a contiguous range from 0"),
    (_e_listed_twice, "duplicate tensor names: ['E', 'W1', 'b1', 'W2', 'b2', 'E']"),
    (_name_climbs_out, "unsafe tensor name '../E'"),
    (_unknown_role, "E: unknown role 'sparse'"),
    (_e_dense_and_w2_excluded,
     "E: role 'dense' in the checkpoint, but the tagger's E is 'embedding'"),
    (_b2_unlisted, "checkpoint tensors ['E', 'W1', 'W2', 'b1'] do not match"),
    (_short_mask_file, "b2: mask file holds 6 bytes, expected 7"),
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
    snapshot = Path(capsys.readouterr().out.strip()).parent / "config_snapshot.json"
    for text, message in [
        ('{"config_hash": ', "Expecting value: line 1 column 17 (char 16)"),
        ("[]", "config snapshot must be a JSON object"),
    ]:
        snapshot.write_text(text)
        assert main(["experiment", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"nerprune: error: {snapshot}: {message}\n"


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
# named a directory "['corpus']", and each schedule key ran as size 4
# under the config hash of another spelling
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
    ("paths", "corpus", "paths must be an object"),
    ("tagger", [4, 6], "tagger must be an object"),
    ("tagger", {"embed_dim": 4, "turbo": True}, "unknown tagger keys: ['turbo']"),
    ("schedule_table", None, "schedule_table: "),
    ("schedule_table", [[4, 2, 10, 2]], "schedule_table: "),
    *(("schedule_table", {key: [2, 10, 2]},
       f"schedule_table: size {key!r} is not a plain decimal integer")
      for key in ["+4", " 4", "0_4", "04", "\u0664"]),
    # values of their type, but out of range
    ("seeds", [0, -1], "seeds must be non-negative"),
    ("perturbation_seed", -1, "perturbation_seed must be non-negative"),
    ("schedule_table", {"0": [2, 10, 2]}, "schedule_table sizes must be unique, positive"),
    ("schedule_table", {"-4": [2, 10, 2]}, "schedule_table sizes must be unique, positive"),
], ids=["float-level", "float-perturbation-seed", "string-seeds", "bool-seed",
        "string-languages", "float-schedule-start", "four-schedule-entries",
        "array-corpus-root", "slash-language", "empty-language", "dotted-language",
        "string-paths", "array-tagger", "unknown-tagger-key", "null-schedule-table",
        "array-schedule-table", "signed-schedule-size",
        "spaced-schedule-size", "underscored-schedule-size", "zero-padded-schedule-size",
        "arabic-indic-schedule-size", "negative-seed",
        "negative-perturbation-seed", "zero-schedule-size", "negative-schedule-size"])
def test_grid_value_that_is_not_of_its_type_exits_two(tmp_path, capsys, key,
                                                      value, message):
    config = write_world(tmp_path)
    data = json.loads(config.read_text())
    data[key] = value
    config.write_text(json.dumps(data))
    assert main(["experiment", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[]")
    assert main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"nerprune: error: {config}: config must be a JSON object\n")


def test_experiment_with_no_workers_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config), "--workers", "0"]) == 2
    assert capsys.readouterr().err == "nerprune: error: workers must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_experiment_report_pipeline(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    assert results.is_file()

    meta = tmp_path / "languages.csv"
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
    by_family = (report_dir / "by_family.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in by_family
            if ",0,partial,regular," in row] == ["Fam1", "all"]


def test_report_overlap_skips_a_mention_free_test_split(tmp_path, capsys):
    write_world(tmp_path)
    (tmp_path / "corpus" / "cc").mkdir()
    (tmp_path / "corpus" / "cc" / "train.iob2").write_text("x\tO\n")
    (tmp_path / "corpus" / "cc" / "test.iob2").write_text("y\tO\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA + "cc,Latin,Fam1,4,0.1\n")
    results = tmp_path / "results.jsonl"
    results.write_text("".join(_record(language=l) + "\n" for l in ("cc", "bb", "aa")))
    assert main([*_report_argv(tmp_path, results, meta),
                 "--corpus-root", str(tmp_path / "corpus")]) == 0
    # every test mention of aa and bb occurs in its train split
    assert (tmp_path / "report" / "overlap_f1.csv").read_text().splitlines() == [
        "language,entity_overlap,dense_f1", "aa,1.0000,1.0000", "bb,1.0000,1.0000"]


def test_report_rejects_missing_results_file(tmp_path, capsys):
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main([
        "report", "--results", str(tmp_path / "absent.jsonl"),
        "--meta", str(meta), "--out-dir", str(tmp_path / "report"),
    ]) == 2
    assert "absent.jsonl" in capsys.readouterr().err


def _record(**overrides):
    return json.dumps({
        "language": "aa", "sparsity": 0, "strategy": "partial", "seed": 0,
        "split": "regular", "tp": 1, "fp": 0, "fn": 0,
        "precision": 1.0, "recall": 1.0, "f1": 1.0, **overrides,
    })


def _report_argv(tmp_path, results, meta):
    return ["report", "--results", str(results), "--meta", str(meta),
            "--out-dir", str(tmp_path / "report")]


@pytest.mark.parametrize("line", [
    "[1, 2]",
    _record(f1=None),
    # each used to be converted: 50.7 grouped as sparsity 50, true read as F1 1.0
    *(_record(**{key: value}) for key, value in [
        ("sparsity", 50.7), ("sparsity", True), ("seed", "0"), ("tp", 1.5),
        ("fn", False), ("precision", "1.0"), ("f1", True), ("language", 7),
        ("strategy", None), ("split", ["regular"])]),
    # each used to exit 0
    *(_record(**{key: value}) for key, value in [
        ("f1", float("nan")), ("f1", 7.5), ("precision", -0.5),
        ("recall", float("inf"))]),
], ids=["non-object-line", "report-null-f1", "float-sparsity", "bool-sparsity",
        "string-seed", "float-tp", "bool-fn", "string-precision", "bool-f1",
        "int-language", "null-strategy", "array-split", "nan-f1", "f1-above-one",
        "negative-precision", "infinite-recall"])
def test_malformed_results_record_exits_two(tmp_path, capsys, line):
    results = tmp_path / "results.jsonl"
    results.write_text(line + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert "malformed results file" in capsys.readouterr().err


def test_malformed_results_record_names_its_line(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    record = json.loads(_record())
    del record["f1"]
    results.write_text(_record() + "\n" + json.dumps(record) + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert capsys.readouterr().err == (
        f"nerprune: error: {results}:2: malformed results file: missing key 'f1'\n")


def test_duplicated_results_record_exits_two(tmp_path, capsys):
    # a second record of one key used to count as one more seed
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n" + _record(seed=1) + "\n\n" + _record(f1=0.5) + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert capsys.readouterr().err == (
        f"nerprune: error: {results}:4: duplicate record of "
        "('aa', 0, 'partial', 0, 'regular'), first at line 1\n")


# one JSON value nested deeper than the interpreter's recursion limit
DEEP_LINE = "[" * 100_000 + "]" * 100_000


def test_results_line_nested_past_the_recursion_limit_exits_two(tmp_path, capsys):
    # used to die with a RecursionError traceback and exit 1
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n" + DEEP_LINE + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert f"{results}:2: malformed results file" in capsys.readouterr().err


def test_resume_from_a_line_nested_past_the_recursion_limit_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    n_lines = len(results.read_text().splitlines())
    with open(results, "a", encoding="utf-8") as f:
        f.write(DEEP_LINE + "\n")
    assert main(["experiment", "--config", str(config)]) == 2
    assert f"{results}:{n_lines + 1}: malformed results line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["experiment", "evaluate"])
def test_config_nested_past_the_recursion_limit_exits_two(tmp_path, capsys, command):
    # used to die with a RecursionError traceback and exit 1
    config = tmp_path / "config.json"
    config.write_text(DEEP_LINE)
    argv = [command, "--config", str(config)]
    if command == "evaluate":
        argv += ["--checkpoint", str(tmp_path / "ckpt"), "--language", "aa"]
    assert main(argv) == 2
    assert f"{config}: maximum recursion depth" in capsys.readouterr().err


def test_snapshot_nested_past_the_recursion_limit_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    snapshot = Path(capsys.readouterr().out.strip()).parent / "config_snapshot.json"
    snapshot.write_text(DEEP_LINE)
    assert main(["experiment", "--config", str(config)]) == 2
    assert f"{snapshot}: maximum recursion depth" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["model.json", "manifest.json"])
def test_checkpoint_json_nested_past_the_recursion_limit_exits_two(
        trained, tmp_path, capsys, name):
    config, ckpt = trained
    broken = tmp_path / "ckpt"
    shutil.copytree(ckpt, broken)
    (broken / name).write_text(DEEP_LINE)
    assert main([
        "evaluate", "--config", str(config), "--checkpoint", str(broken),
        "--language", "aa",
    ]) == 2
    assert f"{broken / name}: " in capsys.readouterr().err


def test_metadata_field_over_the_csv_limit_exits_two(tmp_path, capsys):
    # used to die with a csv.Error traceback and exit 1
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA + "cc,Latin," + "F" * (csv.field_size_limit() + 1) + ",4,0.1\n")
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert capsys.readouterr().err == (
        f"nerprune: error: {meta}:4: field larger than field limit "
        f"({csv.field_size_limit()})\n")


# each names the file, and a bad row its physical line; a quoted field
# may hold a line break, which used to shift every later number back by one
@pytest.mark.parametrize("text, message", [
    (None, ": [Errno 2] No such file or directory"),
    ("", ": empty metadata file"),
    (METADATA + "cc,Latin,Fam1,4\n", ":4: expected 5 fields, got 4"),
    (METADATA + "cc,Latin,Fam1,4,lots\n", ":4: pretrain_pct must be a number, got 'lots'"),
    ("code,script,family,train_size,pretrain_pct\n"
     'aa,Latin,"Fam\n1",4,0.1\nbb,Latin,Fam1,4,0.1\naa,Latin,Fam1,4,0.1\n',
     ":5: duplicate language code 'aa'"),
], ids=["missing", "empty", "four-fields", "text-pretrain-pct", "after-a-quoted-break"])
def test_bad_metadata_file_exits_two(tmp_path, capsys, text, message):
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    meta = tmp_path / "languages.csv"
    if text is not None:
        meta.write_text(text)
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert capsys.readouterr().err.startswith(f"nerprune: error: {meta}{message}")


def test_experiment_on_a_held_output_directory_exits_two(tmp_path, capsys):
    config = write_world(tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    results = Path(capsys.readouterr().out.strip())
    out_dir = results.parent
    # a cut-short grid with a failure on record: a resume would empty
    # failures.jsonl and append the missing cell's lines
    lines = results.read_text().splitlines(keepends=True)
    results.write_text("".join(lines[:len(lines) // 2]))
    (out_dir / "failures.jsonl").write_text('{"run_id": "x"}\n')

    def files():
        return {path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in sorted(out_dir.rglob("*")) if path.is_file()}

    before = files()
    with open(out_dir / ".lock", "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(["experiment", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"nerprune: error: {out_dir}: held by another nerprune run\n")
        assert files() == before
    # the lock's release lets the resume run
    assert main(["experiment", "--config", str(config)]) == 0
    assert results.read_text() == "".join(lines)


def test_report_builds_no_record_objects(tmp_path, capsys, monkeypatch):
    write_world(tmp_path)
    results = tmp_path / "results.jsonl"
    results.write_text("".join(
        _record(language=lang, sparsity=sparsity, seed=seed, f1=f1) + "\n"
        for lang, f1 in (("aa", 0.5), ("bb", 0.25)) for sparsity in (0, 50)
        for seed in (0, 1)))
    built = []
    for cls in (RunRecord, ScoreReport):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    argv = _report_argv(tmp_path, results, tmp_path / "languages.csv")
    assert main(argv) == 0
    assert main([*argv, "--corpus-root", str(tmp_path / "corpus")]) == 0
    assert (tmp_path / "report" / "overlap_f1.csv").is_file()
    assert built == []
    # the count sees records when they are built
    assert len(list(read_run_records(results))) == 8
    assert built == ["ScoreReport", "RunRecord"] * 8


def test_well_typed_results_record_is_read(tmp_path, capsys):
    # the record the malformed rows above each break in one field
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA)
    assert main(_report_argv(tmp_path, results, meta)) == 0


def test_family_named_all_exits_two(tmp_path, capsys):
    # "all" names the group of every language, which would hide aa's group
    results = tmp_path / "results.jsonl"
    results.write_text(_record(f1=0.2) + "\n" + _record(language="bb", f1=0.8) + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA.replace("aa,Latin,Fam1", "aa,Latin,all"))
    assert main(_report_argv(tmp_path, results, meta)) == 2
    assert "language 'aa': family 'all' is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_pretrain_pct_exits_two(tmp_path, capsys, value):
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    meta = tmp_path / "languages.csv"
    meta.write_text(METADATA + f"zz,Latn,x,100,{value}\n")
    argv = ["report", "--results", str(results), "--meta", str(meta),
            "--out-dir", str(tmp_path / "report")]
    assert main(argv) == 2
    line = len(METADATA.splitlines()) + 1
    assert capsys.readouterr().err == (
        f"nerprune: error: {meta}:{line}: zz: pretrain_pct must be finite, got {value}\n")


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
@pytest.mark.parametrize("command", ["experiment", "report", "perturb"])
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
    else:
        corpus = tmp_path / "aa.iob2"
        corpus.write_text(AA_TEST_FILE)
        argv = ["perturb", str(corpus), "--scope", "in-language", "--seed", "1",
                "--meta", str(meta), "--out-dir", str(blocked)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nerprune: error: " in err
    assert "blocked" in err
    assert "Traceback" not in err


# each used to die with a UnicodeDecodeError traceback and exit 1, or,
# for the JSON files read back, to exit 2 with another message: the
# config snapshot's and model.json's quoted the whole file
@pytest.mark.parametrize("command, bad", [
    ("validate", "corpus"), ("perturb", "corpus"), ("perturb", "meta"),
    ("report", "meta"), ("experiment", "config"),
    ("experiment", "world-corpus"), ("experiment", "meta"), ("report", "results"),
    ("experiment", "snapshot"), ("evaluate", "manifest"), ("evaluate", "sidecar"),
])
def test_input_that_is_not_utf8_exits_two(tmp_path, capsys, command, bad):
    config = write_world(tmp_path)
    corpus = tmp_path / "aa.iob2"
    corpus.write_text(AA_TEST_FILE)
    meta = tmp_path / "languages.csv"
    results = tmp_path / "results.jsonl"
    results.write_text(_record() + "\n")
    ckpt = _aa_slot(config)
    argv = {
        "validate": ["validate", str(corpus)],
        "perturb": ["perturb", str(corpus), "--scope", "in-language", "--seed", "1",
                    "--meta", str(meta), "--out-dir", str(tmp_path / "p")],
        "report": _report_argv(tmp_path, results, meta),
        "experiment": ["experiment", "--config", str(config)],
        "evaluate": ["evaluate", "--config", str(config), "--checkpoint", str(ckpt),
                     "--language", "aa"],
    }[command]
    if bad == "snapshot" or command == "evaluate":
        assert main(["experiment", "--config", str(config)]) == 0
    capsys.readouterr()
    target = {"corpus": corpus, "meta": meta, "config": config, "results": results,
              "world-corpus": tmp_path / "corpus" / "aa" / "test.iob2",
              "manifest": ckpt / "manifest.json", "sidecar": ckpt / "model.json",
              "snapshot": next(tmp_path.glob("out/*/config_snapshot.json"), None)}[bad]
    # a lone Latin-1 byte, as in "caf\xe9"
    target.write_bytes(target.read_bytes().replace(b"a", b"\xe9", 1))
    try:
        target.read_bytes().decode()
    except UnicodeDecodeError as exc:
        reason = exc.reason
    assert main(argv) == 2
    # the file is named, and none of its content is quoted
    assert capsys.readouterr().err == (
        f"nerprune: error: {target}: not UTF-8 text: {reason}\n")


def _run_in_world(root, argv, capsys, mark=None, first=None):
    """Exit code, stdout and output files of argv run in a fresh world
    under root, after the command first, if any, has run there and a
    UTF-8 byte-order mark is written before the file that the glob mark
    names. In argv and first, {root} is root and {slot} the checkpoint
    slot of AA_CELL. Traces drop their timing line, which varies by run,
    and the marked file is read back less its mark."""
    slot = _aa_slot(write_world(root))
    (root / "aa.iob2").write_text(AA_TEST_FILE)
    if first is not None:
        assert main([arg.format(root=root, slot=slot) for arg in first]) == 0
        capsys.readouterr()
    marked = next(root.glob(mark)) if mark is not None else None
    if marked is not None:
        marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
    code = main([arg.format(root=root, slot=slot) for arg in argv])
    files = {}
    for path in sorted((root / "out").rglob("*")):
        if path.name == "trace.jsonl":
            files[path.relative_to(root)] = trace_without_timing(path)
        elif path.is_file():
            data = path.read_bytes()
            files[path.relative_to(root)] = (
                data.removeprefix(b"\xef\xbb\xbf") if path == marked else data)
    return code, capsys.readouterr().out.replace(str(root), "<root>"), files


_EXPERIMENT = ["experiment", "--config", "{root}/config.json"]


# the mark used to become part of the first token, or to fail the
# metadata header or the JSON of the config, the config snapshot (on a
# resume), the manifest or the model sidecar; the checkpoint's rows keep
# ids that name it ckpt
@pytest.mark.parametrize("command, mark", [
    ("validate", "aa.iob2"), ("perturb", "aa.iob2"), ("perturb", "languages.csv"),
    ("experiment", "config.json"), ("experiment", "corpus/aa/test.iob2"),
    ("experiment", "corpus/aa/train.iob2"), ("experiment", "languages.csv"),
    ("resume", "out/*/config_snapshot.json"),
    *(pytest.param("evaluate", f"out/*/checkpoints/{AA_CELL}/{name}",
                   id=f"evaluate-ckpt/{name}") for name in ("manifest.json", "model.json")),
])
def test_input_with_a_byte_order_mark_runs_like_its_twin(tmp_path, capsys, command, mark):
    argv = {
        "validate": ["validate", "{root}/aa.iob2"],
        "perturb": ["perturb", "{root}/aa.iob2", "--scope", "in-language", "--seed", "1",
                    "--meta", "{root}/languages.csv", "--out-dir", "{root}/out"],
        "experiment": _EXPERIMENT,
        "resume": _EXPERIMENT,
        "evaluate": ["evaluate", "--config", "{root}/config.json",
                     "--checkpoint", "{slot}", "--language", "aa"],
    }[command]
    first = _EXPERIMENT if command in ("resume", "evaluate") else None
    plain = _run_in_world(tmp_path / "plain", argv, capsys, first=first)
    assert plain[0] == 0
    assert _run_in_world(tmp_path / "marked", argv, capsys, mark, first) == plain


def test_module_runs_as_a_process_from_the_source_tree(tmp_path):
    src = str(Path(nerprune.experiment.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    good, bad = tmp_path / "aa.iob2", tmp_path / "bad.iob2"
    good.write_text(AA_TEST_FILE)
    bad.write_text("ada\tB-GPE\n")

    def validate(path):
        return subprocess.run([sys.executable, "-m", "nerprune", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)

    proc = validate(good)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "sentences": 2, "tokens": 5, "mentions": {"PER": 1, "LOC": 2, "ORG": 0}}
    proc = validate(bad)
    assert proc.returncode == 2
    assert "unknown tag 'B-GPE'" in proc.stderr


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
