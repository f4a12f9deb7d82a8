"""Command line entry point.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown
subcommands), 2 on data errors (malformed corpora, missing or unwritable
files, bad configs). Every stochastic subcommand takes an explicit seed;
nothing falls back to wall-clock randomness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import analysis, experiment, perturb, tagger
from .corpus import count_mentions, load_language_metadata, parse_iob2
from .errors import ConfigError, NerpruneError
from .evaluation import SPLIT_NAMES, STRATEGY_NAMES, read_run_records, score_corpus

PROG = "nerprune"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for data
    errors, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description=(
            "Train, prune and perturb small multilingual NER taggers, "
            "then aggregate the results."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "validate", help="check an IOB2 corpus file and print counts",
        description=(
            "Parse an IOB2 corpus file, reporting sentence, token and "
            "mention counts. Exits 2 with a line-numbered message on "
            "malformed input."
        ),
    )
    p.add_argument("corpus", help="path to a corpus file in IOB2 format")
    p.add_argument("--language", default="und",
                   help="language code recorded for the corpus (default: und)")
    p.add_argument("--strip-prefix", action="store_true",
                   help="strip a leading '<language>:' prefix from each token")

    p = sub.add_parser(
        "perturb", help="write entity-perturbed copies of test corpora",
        description=(
            "Replace every entity mention with another surface of the "
            "same type drawn from the scope group's pool. Input files "
            "must be named <language>[.<anything>].iob2; outputs are "
            "<language>.<scope>.iob2 plus a replacement log."
        ),
    )
    p.add_argument("corpora", nargs="+", help="test corpus files to perturb")
    p.add_argument("--scope", required=True,
                   choices=perturb.SCOPE_NAMES,
                   help="which languages contribute replacement surfaces")
    p.add_argument("--seed", required=True, type=int,
                   help="seed for the draw stream (one stream per corpus)")
    p.add_argument("--meta", required=True,
                   help="language metadata CSV (code,script,family,...)")
    p.add_argument("--out-dir", required=True,
                   help="directory for perturbed corpora and logs")

    p = sub.add_parser(
        "train", help="train a single grid cell from an experiment config",
        description=(
            "Train one (language, sparsity, strategy, seed) cell of the "
            "grid described by an experiment config and save the model "
            "checkpoint."
        ),
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--language",
                   help="language to train on (required in monolingual mode)")
    p.add_argument("--sparsity", required=True, type=int,
                   help="target sparsity percent, 0 trains dense")
    p.add_argument("--strategy", default="partial",
                   choices=STRATEGY_NAMES,
                   help="pruning strategy (default: partial)")
    p.add_argument("--seed", required=True, type=int, help="training seed")
    p.add_argument("--out", required=True, help="checkpoint output directory")

    p = sub.add_parser(
        "evaluate", help="score a saved checkpoint on a test split",
        description=(
            "Load a model checkpoint and score it on one language's "
            "regular or perturbed test set; prints a JSON report."
        ),
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--language", required=True, help="language to evaluate")
    p.add_argument("--split", default="regular",
                   choices=SPLIT_NAMES,
                   help="test condition (default: regular)")

    p = sub.add_parser(
        "experiment", help="run every pending cell of an experiment grid",
        description=(
            "Run the full grid of an experiment config. Completed runs "
            "found in the output directory are skipped, so the command "
            "can resume after interruption."
        ),
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel training runs (default: 1)")

    p = sub.add_parser(
        "analyze", help="print grouped statistics for a results file",
        description=(
            "Aggregate a results.jsonl across seeds and print the chosen "
            "statistic of per-language F1 for each group as JSON."
        ),
    )
    p.add_argument("--results", required=True, help="results.jsonl path")
    p.add_argument("--meta", required=True, help="language metadata CSV")
    p.add_argument("--dim", default="size",
                   choices=[d.value for d in analysis.GroupDimension],
                   help="grouping dimension (default: size)")
    p.add_argument("--stat", default="mean",
                   choices=["mean", "median", "std"],
                   help="statistic over each group (default: mean)")

    p = sub.add_parser(
        "report", help="write CSV tables and a JSON summary for results",
        description=(
            "Emit per-language, per-group, delta and robustness-ratio "
            "CSV tables plus summary.json for a results file. With "
            "--corpus-root, adds train/test entity overlap per language."
        ),
    )
    p.add_argument("--results", required=True, help="results.jsonl path")
    p.add_argument("--meta", required=True, help="language metadata CSV")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.add_argument("--corpus-root",
                   help="corpus root for the overlap table (optional)")
    return parser


def _cmd_validate(args) -> int:
    if not args.language:
        raise ConfigError("--language must be non-empty")
    with open(args.corpus, encoding="utf-8") as f:
        corpus = parse_iob2(
            f, args.language, split="test",
            strip_prefix=args.strip_prefix, name=args.corpus,
        )
    mentions = count_mentions(corpus)
    summary = {
        "sentences": len(corpus),
        "tokens": sum(len(s) for s in corpus),
        "mentions": {etype: mentions.get(etype, 0)
                     for etype in ("PER", "LOC", "ORG")},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_perturb(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    with open(args.meta, encoding="utf-8") as f:
        meta = load_language_metadata(f, name=args.meta)
    tests = {}
    for path in args.corpora:
        language = Path(path).name.split(".")[0]
        if not language:
            raise ConfigError(f"{path}: cannot read language code from file name")
        if language in tests:
            raise ConfigError(f"{path}: a second input for language {language!r}")
        with open(path, encoding="utf-8") as f:
            tests[language] = parse_iob2(f, language, split="test", name=path)
    perturbed = experiment.build_perturbed(
        meta, tests, list(tests), [args.scope], args.seed
    )
    experiment.write_perturbed(Path(args.out_dir), perturbed)
    for (language, _), (_, records) in perturbed.items():
        print(f"{language}: {sum(1 for r in records if r.replaced)} "
              f"of {len(records)} mentions replaced")
    return 0


def _cmd_train(args) -> int:
    config = experiment.config_from_file(args.config)
    if config.mode == "monolingual":
        if not args.language:
            raise ConfigError("--language is required in monolingual mode")
        if args.language not in config.languages:
            raise ConfigError(
                f"language {args.language!r} not in config languages"
            )
        language = args.language
    else:
        if args.language:
            raise ConfigError("--language does not apply in multilingual mode")
        language = None
    if args.sparsity != 0 and args.sparsity not in config.sparsity_levels:
        raise ConfigError(
            f"sparsity {args.sparsity} not in config levels "
            f"{list(config.sparsity_levels)}"
        )
    spec = experiment.RunSpec(
        config.mode, language, args.sparsity, args.strategy, args.seed
    )
    languages = spec.languages(config)
    inputs = experiment.load_cell_inputs(config, languages)
    bundle = experiment.build_bundle(config, languages, *inputs)
    lines = experiment.execute_run(
        spec, config, bundle, checkpoint_dir=Path(args.out)
    )
    regular = [l for l in lines if l["split"] == "regular"]
    print(json.dumps({
        "run_id": spec.run_id,
        "checkpoint": args.out,
        "achieved_sparsity": lines[0]["achieved_sparsity"],
        "regular_f1": {l["language"]: l["f1"] for l in regular},
    }, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    config = experiment.config_from_file(args.config)
    if args.language not in config.languages:
        raise ConfigError(f"language {args.language!r} not in config languages")
    model = tagger.load_model(args.checkpoint)
    root = config.corpus_root_path
    if args.split == "regular":
        corpus = experiment.load_split(root, args.language, "test")
    else:
        scope_name = args.split.removeprefix("perturbed-")
        if scope_name not in config.scopes:
            raise ConfigError(f"scope {scope_name!r} not in config scopes")
        meta = experiment.load_metadata(config)
        tests = {l: experiment.load_split(root, l, "test") for l in config.languages}
        perturbed = experiment.build_perturbed(
            meta, tests, [args.language], [scope_name], config.perturbation_seed
        )
        corpus = perturbed[(args.language, scope_name)][0]
    report = score_corpus(corpus, tagger.predict(model, corpus))
    payload = dataclasses.asdict(report)
    payload.update({"language": args.language, "split": args.split})
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    config = experiment.config_from_file(args.config)
    results = experiment.run(config, workers=args.workers)
    print(results)
    return 0


def _cmd_analyze(args) -> int:
    records = _read_results(args.results)
    with open(args.meta, encoding="utf-8") as f:
        meta = load_language_metadata(f, name=args.meta)
    dim = analysis.GroupDimension.parse(args.dim)
    cells = analysis.group_stats(records, meta, dim, args.stat)
    payload = {
        f"sparsity={sparsity} strategy={strategy} split={split}": {
            str(group): round(value, 4)
            for group, value in sorted(groups.items(), key=lambda kv: str(kv[0]))
        }
        for (sparsity, strategy, split), groups in sorted(cells.items())
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    records = _read_results(args.results)
    with open(args.meta, encoding="utf-8") as f:
        meta = load_language_metadata(f, name=args.meta)
    overlaps = None
    if args.corpus_root:
        languages = sorted({r.language for r in records})
        overlaps = experiment.train_test_overlaps(
            *experiment.load_corpora(args.corpus_root, languages)
        )
    written = analysis.emit_report(records, meta, args.out_dir, overlaps=overlaps)
    for path in written:
        print(path)
    return 0


def _read_results(path: str):
    try:
        return read_run_records(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed results file: {exc}") from None


_COMMANDS = {
    "validate": _cmd_validate,
    "perturb": _cmd_perturb,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NerpruneError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
