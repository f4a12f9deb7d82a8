"""Grid runner: trains and evaluates every cell of an experiment config.

A config pins the mode (one model per language, or one joint model over
all languages), the sparsity levels, pruning strategies, seeds and
perturbation scopes. Results land under
<output>/<config-hash>/results.jsonl, one JSON record per (run,
language, split), plus per-run checkpoints and the perturbed test sets
with their replacement logs. Completed run ids are skipped on rerun, so
the command is safe to restart.

Perturbed test sets are generated once per (language, scope) from the
single perturbation seed and shared by every run, mirroring a fixed
benchmark that all models face identically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import shutil
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    Corpus,
    LanguageMeta,
    entity_overlap,
    load_language_metadata,
    parse_iob2,
    serialize_iob2,
)
from .errors import (
    ConfigError,
    MissingMetadataError,
    NerpruneError,
    PruningError,
    ScheduleError,
)
from .evaluation import (
    SPARSITY_LEVELS,
    STRATEGY_NAMES,
    RunRecord,
    decode_span_ids,
    score_ids,
)
from .perturb import SCOPE_NAMES, Scope, build_pool, perturb_corpus, write_replacement_log
from .pruning import MANIFEST_NAME, PruneSchedule, PruneStrategy, measure_sparsity
from .tagger import (
    Encoded,
    TaggerConfig,
    TrainArrays,
    build_vocab,
    encode_train,
    encode_windows,
    init_model,
    predict_ids,
    require_int,
    save_model,
    train,
)

# start step, end step, event frequency per training set size
DEFAULT_SCHEDULE_TABLE = (
    (100, (10, 60, 10)),
    (1000, (100, 300, 50)),
    (5000, (500, 1200, 100)),
    (10000, (500, 1200, 100)),
    (15000, (700, 1800, 100)),
    (20000, (1000, 2400, 200)),
)

MODES = ("monolingual", "multilingual")
HASH_PREFIX_LEN = 12


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; hashable and JSON-round-trippable.

    Paths are kept as written and resolved against base_dir, normally
    the directory of the config file. The config hash covers everything
    except base_dir, so a config file moved together with its data keeps
    its hash and its result directory.
    """

    mode: str
    languages: tuple[str, ...]
    sparsity_levels: tuple[int, ...]
    seeds: tuple[int, ...]
    perturbation_seed: int
    corpus_root: str
    metadata_path: str
    output_dir: str
    strategies: tuple[str, ...] = STRATEGY_NAMES
    scopes: tuple[str, ...] = SCOPE_NAMES
    tagger: TaggerConfig = TaggerConfig()
    schedule_table: tuple[tuple[int, tuple[int, int, int]], ...] = (
        DEFAULT_SCHEDULE_TABLE
    )
    base_dir: str = "."

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for axis in ("languages", "strategies", "scopes", "sparsity_levels", "seeds"):
            values = getattr(self, axis)
            if not isinstance(values, tuple):
                raise ConfigError(f"{axis} must be an array, got {values!r}")
        named = [("corpus_root", self.corpus_root), ("metadata_path", self.metadata_path),
                 ("output_dir", self.output_dir)]
        named += [("languages entry", language) for language in self.languages]
        for name, value in named:
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        for language in self.languages:
            # a code names a corpus directory and a file-name stem
            if not re.fullmatch(r"[A-Za-z0-9_-]+", language):
                raise ConfigError(
                    "languages entry must be non-empty letters, digits, '_' or '-', "
                    f"got {language!r}")
        for axis in ("sparsity_levels", "seeds"):
            for value in getattr(self, axis):
                require_int(f"{axis} entry", value)
        require_int("perturbation_seed", self.perturbation_seed)
        for size, row in self.schedule_table:
            if not isinstance(row, tuple) or len(row) != 3:
                raise ConfigError(
                    f"schedule for size {size} must be [start, end, frequency], "
                    f"got {row!r}")
            for value in row:
                require_int(f"schedule for size {size}: entry", value)
        for axis in ("languages", "sparsity_levels", "strategies", "seeds",
                     "schedule_table"):
            if not getattr(self, axis):
                raise ConfigError(f"{axis} must be non-empty")
        for axis in ("languages", "strategies", "seeds", "scopes"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {axis}")
        if list(self.sparsity_levels) != sorted(set(self.sparsity_levels)):
            raise ConfigError("sparsity_levels must be strictly ascending")
        for level in self.sparsity_levels:
            if level not in SPARSITY_LEVELS:
                raise ConfigError(
                    f"sparsity level {level} not in supported {SPARSITY_LEVELS}"
                )
        for strategy in self.strategies:
            if strategy not in STRATEGY_NAMES:
                raise ConfigError(f"unknown strategy {strategy!r}")
        for scope in self.scopes:
            if scope not in SCOPE_NAMES:
                raise ConfigError(f"unknown scope {scope!r}")
        for seed in self.seeds:
            if seed < 0:
                raise ConfigError("seeds must be non-negative")
        if self.tagger.seed != 0:
            raise ConfigError(
                f"tagger.seed must be 0, got {self.tagger.seed!r}: each run "
                "trains with its own entry of seeds")
        if self.perturbation_seed < 0:
            raise ConfigError("perturbation_seed must be non-negative")
        sizes = [size for size, _ in self.schedule_table]
        if sizes != sorted(set(sizes)) or any(size <= 0 for size in sizes):
            raise ConfigError("schedule_table sizes must be unique, positive, ascending")
        for size, row in self.schedule_table:
            try:
                PruneSchedule(*row, 0.0)
            except ScheduleError as exc:
                raise ConfigError(f"schedule for size {size}: {exc}") from None

    def canonical_dict(self) -> dict:
        return {
            "mode": self.mode,
            "languages": list(self.languages),
            "sparsity_levels": list(self.sparsity_levels),
            "strategies": list(self.strategies),
            "seeds": list(self.seeds),
            "scopes": list(self.scopes),
            "perturbation_seed": self.perturbation_seed,
            "tagger": asdict(self.tagger),
            "schedule_table": {
                str(size): list(row) for size, row in self.schedule_table
            },
            "paths": {
                "corpus_root": self.corpus_root,
                "metadata": self.metadata_path,
                "output": self.output_dir,
            },
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _resolve(self, raw: str) -> Path:
        return (Path(self.base_dir) / Path(raw)).resolve()

    @property
    def corpus_root_path(self) -> Path:
        return self._resolve(self.corpus_root)

    @property
    def metadata_file(self) -> Path:
        return self._resolve(self.metadata_path)

    @property
    def output_path(self) -> Path:
        return self._resolve(self.output_dir)

    def schedule_for(self, train_size: int) -> tuple[int, int, int]:
        """Schedule row of the largest size not above a training set
        size, or the smallest row when every size is above it."""
        best = self.schedule_table[0][1]
        for size, row in self.schedule_table:
            if size <= train_size:
                best = row
        return best


_TOP_KEYS = {
    "mode", "languages", "sparsity_levels", "strategies", "seeds", "scopes",
    "perturbation_seed", "tagger", "schedule_table", "paths",
}
_PATH_KEYS = {"corpus_root", "metadata", "output"}


def _tuple(value):
    """A JSON array as a tuple; any other value is left for
    ExperimentConfig to reject, never converted."""
    return tuple(value) if isinstance(value, list) else value


def config_from_dict(data: Mapping, base_dir: str | Path = ".") -> ExperimentConfig:
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    required = {"mode", "languages", "sparsity_levels", "seeds",
                "perturbation_seed", "paths"}
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    paths = data["paths"]
    if not isinstance(paths, Mapping):
        raise ConfigError("paths must be an object")
    unknown = set(paths) - _PATH_KEYS
    if unknown:
        raise ConfigError(f"unknown path keys: {sorted(unknown)}")
    missing = _PATH_KEYS - set(paths)
    if missing:
        raise ConfigError(f"missing path keys: {sorted(missing)}")
    try:
        tagger = TaggerConfig(**data.get("tagger", {}))
    except TypeError as exc:
        raise ConfigError(f"tagger: {exc}") from None
    schedule_raw = data.get("schedule_table")
    if schedule_raw is None:
        schedule_table = DEFAULT_SCHEDULE_TABLE
    else:
        try:
            schedule_table = tuple(sorted(
                (int(size), _tuple(row)) for size, row in schedule_raw.items()
            ))
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"schedule_table: {exc}") from None
    try:
        return ExperimentConfig(
            mode=data["mode"],
            languages=_tuple(data["languages"]),
            sparsity_levels=_tuple(data["sparsity_levels"]),
            seeds=_tuple(data["seeds"]),
            perturbation_seed=data["perturbation_seed"],
            corpus_root=paths["corpus_root"],
            metadata_path=paths["metadata"],
            output_dir=paths["output"],
            strategies=_tuple(data.get("strategies", STRATEGY_NAMES)),
            scopes=_tuple(data.get("scopes", SCOPE_NAMES)),
            tagger=tagger,
            schedule_table=schedule_table,
            base_dir=str(base_dir),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_from_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(data, base_dir=path.parent)


@dataclass(frozen=True)
class RunSpec:
    """One training run of the grid. language is None in multilingual
    mode, where a single joint model serves every language."""

    mode: str
    language: str | None
    sparsity: int
    strategy: str
    seed: int

    def languages(self, config: ExperimentConfig) -> list[str]:
        """Languages this run trains on and is scored on."""
        return [self.language] if self.language is not None else list(config.languages)

    @property
    def run_id(self) -> str:
        if self.mode == "monolingual":
            return (f"mono-{self.language}-s{self.sparsity}"
                    f"-{self.strategy}-seed{self.seed}")
        return f"multi-s{self.sparsity}-{self.strategy}-seed{self.seed}"


def plan(config: ExperimentConfig) -> list[RunSpec]:
    """Cartesian product of the grid. Sparsity 0 cells train dense and
    skip pruning; they are kept per strategy so every strategy column
    has its own dense baseline row."""
    languages = config.languages if config.mode == "monolingual" else (None,)
    return [
        RunSpec(config.mode, language, sparsity, strategy, seed)
        for language in languages
        for sparsity in config.sparsity_levels
        for strategy in config.strategies
        for seed in config.seeds
    ]


def load_metadata(config: ExperimentConfig) -> dict[str, LanguageMeta]:
    path = config.metadata_file
    try:
        with open(path, encoding="utf-8") as f:
            return load_language_metadata(f, name=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_split(root: str | Path, language: str, split: str) -> Corpus:
    """Parse <root>/<language>/<split>.iob2."""
    path = Path(root) / language / f"{split}.iob2"
    try:
        with open(path, encoding="utf-8") as f:
            return parse_iob2(f, language, split, name=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_corpora(
    root: str | Path, languages: Sequence[str],
) -> tuple[dict[str, Corpus], dict[str, Corpus]]:
    trains = {l: load_split(root, l, "train") for l in languages}
    tests = {l: load_split(root, l, "test") for l in languages}
    return trains, tests


def build_perturbed(
    meta: Mapping[str, LanguageMeta],
    tests: Mapping[str, Corpus],
    languages: Sequence[str],
    scopes: Sequence[str],
    seed: int,
) -> dict[tuple[str, str], tuple[Corpus, list]]:
    """Perturbed test set and replacement log per (language, scope) of the
    given languages and scopes. Pools draw on every corpus in tests, so a
    set is the same whichever others are built with it. Languages of tests
    missing from meta raise MissingMetadataError."""
    missing = [l for l in tests if l not in meta]
    if missing:
        raise MissingMetadataError(missing)
    corpora = list(tests.values())
    result = {}
    pools: dict[tuple[str, str], object] = {}
    for scope_name in scopes:
        scope = Scope.parse(scope_name)
        for language in languages:
            group_key = scope.group_key(meta[language])
            cache_key = (scope_name, group_key)
            if cache_key not in pools:
                pools[cache_key] = build_pool(corpora, meta, scope, group_key)
            result[(language, scope_name)] = perturb_corpus(
                tests[language], pools[cache_key], seed
            )
    return result


def write_perturbed(
    out_dir: Path, perturbed: Mapping[tuple[str, str], tuple[Corpus, list]]
) -> None:
    """Write each set of build_perturbed as <language>.<scope>.iob2 with
    its replacement log <language>.<scope>.log.jsonl."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for (language, scope_name), (corpus, records) in sorted(perturbed.items()):
        stem = f"{language}.{scope_name}"
        (out_dir / f"{stem}.iob2").write_text(serialize_iob2(corpus), encoding="utf-8")
        write_replacement_log(records, out_dir / f"{stem}.log.jsonl")


def load_cell_inputs(config: ExperimentConfig, languages: Sequence[str]) -> tuple:
    """What the cells that train on languages read, as build_bundle takes
    it: the train splits of languages, the test splits of every config
    language (the perturbation pools draw on all of them) and the
    perturbed sets of languages."""
    meta = load_metadata(config)
    root = config.corpus_root_path
    trains = {l: load_split(root, l, "train") for l in languages}
    tests = {l: load_split(root, l, "test") for l in config.languages}
    return trains, tests, build_perturbed(
        meta, tests, languages, config.scopes, config.perturbation_seed)


def train_test_overlaps(
    trains: Mapping[str, Corpus], tests: Mapping[str, Corpus]
) -> dict[str, float]:
    """Train/test entity overlap per language, skipping languages whose
    test split has no mentions."""
    overlaps = {}
    for language, test in tests.items():
        value = entity_overlap(trains[language], test)
        if value is not None:
            overlaps[language] = value
    return overlaps


@dataclass(frozen=True)
class ScoredSplit:
    """A test split encoded with one vocab and window, and its gold
    spans as decode_span_ids keys."""

    language: str
    name: str
    encoded: Encoded
    gold_spans: np.ndarray


@dataclass(frozen=True)
class Bundle:
    """What every cell of one language set shares: the training set
    encoded with its vocab (train.vocab), and each split the cells are
    scored on, in result-line order."""

    train: TrainArrays
    splits: tuple[ScoredSplit, ...]


def build_bundle(
    config: ExperimentConfig,
    languages: Sequence[str],
    trains: Mapping[str, Corpus],
    tests: Mapping[str, Corpus],
    perturbed: Mapping[tuple[str, str], tuple[Corpus, list]],
) -> Bundle:
    """Vocab, encoded training set and encoded splits with gold spans for
    the cells that train on languages. A training set without sentences
    is a ConfigError."""
    train_corpora = [trains[l] for l in languages]
    vocab = build_vocab(train_corpora, config.tagger.vocab_min_count)
    window = config.tagger.window
    train_arrays = encode_train(vocab, window, train_corpora)
    splits = []
    for language in languages:
        named = [("regular", tests[language])] + [
            (f"perturbed-{scope_name}", perturbed[(language, scope_name)][0])
            for scope_name in config.scopes
        ]
        for name, corpus in named:
            encoded = encode_windows(vocab, window, corpus.sentences)
            gold_spans = decode_span_ids(encoded.tags, encoded.offsets)
            splits.append(ScoredSplit(language, name, encoded, gold_spans))
    return Bundle(train_arrays, tuple(splits))


def _check_replaceable(checkpoint_dir: Path, config: ExperimentConfig) -> None:
    """Raise ConfigError unless execute_run may delete checkpoint_dir
    whole. It must hold neither the working directory nor any path the
    config reads or writes. Outside the config's output directory, whose checkpoints a grid run
    replaces whatever they hold, it must also be absent, empty or a
    checkpoint."""
    if checkpoint_dir.exists() and not checkpoint_dir.is_dir():
        raise ConfigError(f"{checkpoint_dir}: not a directory")
    kept = [
        ("the working directory", Path.cwd()),
        ("the config file's directory", Path(config.base_dir).resolve()),
        ("metadata", config.metadata_file),
        ("output", config.output_path),
    ]
    kept += [("a corpus directory", config.corpus_root_path / language)
             for language in config.languages]
    for name, path in kept:
        if path == checkpoint_dir or checkpoint_dir in path.parents:
            raise ConfigError(
                f"{checkpoint_dir}: holds {name} {path}, so it cannot be "
                "replaced by a checkpoint")
    if (config.output_path not in checkpoint_dir.parents
            and checkpoint_dir.is_dir() and any(checkpoint_dir.iterdir())
            and not (checkpoint_dir / MANIFEST_NAME).is_file()):
        raise ConfigError(
            f"{checkpoint_dir}: a non-empty directory without "
            f"{MANIFEST_NAME} is not a checkpoint to replace")


def execute_run(
    spec: RunSpec,
    config: ExperimentConfig,
    bundle: Bundle,
    checkpoint_dir: Path,
) -> list[dict]:
    """Train one grid cell on its language set's bundle, save it to
    checkpoint_dir and score it on every split it owes.

    Returns the result line dicts. The nominal sparsity must be achieved
    within 1/N of the prunable weight count or the run fails. The
    checkpoint is written to .<name>.partial beside checkpoint_dir and,
    once the cell is scored, renamed over whatever stands there, so an
    earlier attempt leaves none of its files in it. Before any training,
    a checkpoint_dir that is not safe to delete (see _check_replaceable)
    is a ConfigError.
    """
    checkpoint_dir = Path(checkpoint_dir).resolve()
    _check_replaceable(checkpoint_dir, config)
    staging = checkpoint_dir.with_name(f".{checkpoint_dir.name}.partial")
    shutil.rmtree(staging, ignore_errors=True)
    model = init_model(replace(config.tagger, seed=spec.seed), bundle.train.vocab)
    strategy = PruneStrategy(spec.strategy)
    if spec.sparsity == 0:
        schedule = None
        schedule_row = None
    else:
        schedule_row = config.schedule_for(len(bundle.train.ids))
        start, end, freq = schedule_row
        schedule = PruneSchedule(start, end, freq, spec.sparsity / 100)
    started = time.perf_counter()
    train(model, bundle.train, schedule=schedule, strategy=strategy)
    elapsed = time.perf_counter() - started
    achieved = measure_sparsity(model.param_list, strategy)
    n_prunable = sum(
        p.size for p in model.param_list if p.role in strategy.prunable_roles
    )
    if abs(achieved - spec.sparsity / 100) > 1 / n_prunable + 1e-12:
        raise PruningError(
            f"{spec.run_id}: achieved sparsity {achieved:.6f} misses "
            f"nominal {spec.sparsity / 100:.2f}"
        )
    save_model(staging, model)
    lines = []
    for split in bundle.splits:
        predicted = predict_ids(model, split.encoded)
        record = RunRecord(
            language=split.language,
            sparsity=spec.sparsity,
            strategy=spec.strategy,
            seed=spec.seed,
            split=split.name,
            report=score_ids(split.gold_spans, predicted, split.encoded.offsets),
        )
        line = record.to_json_dict()
        line.update({
            "run_id": spec.run_id,
            "config_hash": config.config_hash,
            "schedule": list(schedule_row) if schedule_row else None,
            "train_seconds": round(elapsed, 3),
            "achieved_sparsity": achieved,
        })
        lines.append(line)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    staging.rename(checkpoint_dir)
    return lines


def _failure(spec: RunSpec, exc: Exception) -> tuple[str, str]:
    failure = {"run_id": spec.run_id, "error": type(exc).__name__, "message": str(exc)}
    if not isinstance(exc, NerpruneError):
        # a fault of the program, not of its input: say where it arose
        failure["traceback"] = "".join(traceback.format_exception(exc))
    return "failures.jsonl", json.dumps(failure, sort_keys=True) + "\n"


def _cell_outcome(spec: RunSpec, config: ExperimentConfig, bundle: Bundle,
                  out_dir: Path) -> tuple[str, str]:
    """Run one cell; returns the file name under out_dir and the text to
    append to it: the cell's result lines, or its failure record."""
    try:
        lines = execute_run(spec, config, bundle, out_dir / "checkpoints" / spec.run_id)
    except Exception as exc:  # a bug or MemoryError fails its cell only
        return _failure(spec, exc)
    return "results.jsonl", "".join(json.dumps(l, sort_keys=True) + "\n" for l in lines)


def _language_set_outcomes(config, languages, specs, inputs, out_dir, mapper):
    """Outcomes of one language set's cells, in plan order. The bundle is
    built on the calling thread and lives until the last cell is done;
    mapper is map or a thread pool's map."""
    try:
        bundle = build_bundle(config, languages, *inputs)
    except Exception as exc:
        for spec in specs:
            yield _failure(spec, exc)
        return
    yield from mapper(lambda spec: _cell_outcome(spec, config, bundle, out_dir), specs)


def _existing_run_ids(results_path: Path, line_counts: Mapping[str, int]) -> set[str]:
    """Run ids with all their line_counts[run_id] lines on disk. A run
    appends its lines in one write, so a kill or a full disk can cut only
    the last run short, inside a line or at a line boundary: the file is
    truncated just past the last line that completes a run, and the cut
    run reruns. A malformed complete line is a ConfigError."""
    if not results_path.is_file():
        return set()
    data = results_path.read_bytes()
    seen: dict[str, int] = {}
    done = set()
    offset = end = 0  # end: just past the last line that completes a run
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        offset += len(line) + 1
        if line.strip():
            try:
                run_id = json.loads(line)["run_id"]
                if not isinstance(run_id, str):
                    raise TypeError(f"run_id must be a string, got {run_id!r}")
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"{results_path}:{number}: malformed results line: {exc!r}"
                ) from None
            seen[run_id] = seen.get(run_id, 0) + 1
            if seen[run_id] == line_counts.get(run_id):
                done.add(run_id)
                end = offset
    if end < len(data):
        with open(results_path, "r+b") as f:
            f.truncate(end)
    return done


def run(config: ExperimentConfig, workers: int = 1) -> Path:
    """Execute every pending grid cell; returns the results.jsonl path.

    Completed run ids found in an existing results file are skipped, so
    rerunning a finished experiment writes nothing new and reads no
    metadata or corpus. Failures are recorded per run in failures.jsonl
    and do not stop the rest of the grid. Each language set with a
    pending cell gets one bundle, built before its cells start and
    dropped when they finish. With workers > 1 a language set's runs
    execute on a thread pool, and each cell's outcome is appended in plan
    order once it and the earlier cells of its set are done.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    out_dir = config.output_path / config.config_hash[:HASH_PREFIX_LEN]
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path = out_dir / "config_snapshot.json"
    snapshot = {"config_hash": config.config_hash, "config": config.canonical_dict()}
    if snapshot_path.is_file():
        try:
            existing = json.loads(snapshot_path.read_text(encoding="utf-8"))
            existing_hash = existing["config_hash"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"{snapshot_path}: malformed config snapshot: {exc!r}"
            ) from None
        if existing_hash != config.config_hash:
            raise ConfigError(
                f"{snapshot_path}: directory belongs to a different config"
            )
    else:
        snapshot_path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    results_path = out_dir / "results.jsonl"
    (out_dir / "failures.jsonl").write_text("", encoding="utf-8")
    specs = plan(config)
    done = _existing_run_ids(results_path, {
        spec.run_id: len(spec.languages(config)) * (1 + len(config.scopes))
        for spec in specs})
    pending = [spec for spec in specs if spec.run_id not in done]
    if not pending:
        return results_path

    inputs = load_cell_inputs(config, config.languages)
    write_perturbed(out_dir / "perturbed", inputs[2])
    groups: dict[tuple[str, ...], list[RunSpec]] = {}
    for spec in pending:
        groups.setdefault(tuple(spec.languages(config)), []).append(spec)
    with (ThreadPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for languages, specs in groups.items():
            for name, text in _language_set_outcomes(
                    config, languages, specs, inputs, out_dir,
                    pool.map if pool else map):
                with open(out_dir / name, "a", encoding="utf-8") as f:
                    f.write(text)
    if not results_path.is_file():
        results_path.write_text("", encoding="utf-8")
    return results_path
