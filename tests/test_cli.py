import json
import shutil
import subprocess
from pathlib import Path

import pytest

from nerprune.cli import build_parser, main
from worlds import DIVERGING_TAGGER, METADATA, write_world

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
