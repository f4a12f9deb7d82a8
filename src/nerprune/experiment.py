"""Grid runner: trains and evaluates every cell of an experiment config.

A config pins the mode (one model per language, or one joint model over
all languages), the sparsity levels, pruning strategies, seeds and
perturbation scopes. Results land under
<output>/<config-hash>/results.jsonl, one JSON record per (run,
language, split), plus per-run checkpoints with their training traces
and the perturbed test sets with their replacement logs. Completed run
ids are skipped on rerun, so the command is safe to restart.

Perturbed test sets are generated once per (language, scope) from the
single perturbation seed and shared by every run, mirroring a fixed
benchmark that all models face identically.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import re
import resource
import shutil
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    Corpus,
    LanguageMeta,
    decode_span_ids,
    load_language_metadata,
    parse_iob2,
    read_json_object,
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
    _scan_json,
    score_ids,
)
from .perturb import SCOPE_NAMES, Scope, build_pool, perturb_corpus, write_replacement_log
from .pruning import PruneSchedule, PruneStrategy, Role, schedule_events
from .tagger import (
    Encoded,
    TaggerConfig,
    build_vocab,
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
TRACE_NAME = "trace.jsonl"
LOCK_NAME = ".lock"


@dataclass(frozen=True)
class Paths:
    """The config's paths object, each path as written."""

    corpus_root: str
    metadata: str
    output: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; hashable and JSON-round-trippable.

    Its fields but base_dir are the config file's keys, and those of
    paths and tagger its nested objects' keys. Paths are kept as written
    and resolved against base_dir, normally the directory of the config
    file. The config hash covers everything except base_dir, so a config
    file moved together with its data keeps its hash and its result
    directory.
    """

    mode: str
    languages: tuple[str, ...]
    sparsity_levels: tuple[int, ...]
    seeds: tuple[int, ...]
    perturbation_seed: int
    paths: Paths
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
        named = [(f.name, getattr(self.paths, f.name)) for f in fields(Paths)]
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
        data = asdict(self)
        del data["base_dir"]
        data["schedule_table"] = {str(size): list(row) for size, row in self.schedule_table}
        return data

    @cached_property
    def config_hash(self) -> str:
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _resolve(self, raw: str) -> Path:
        return (Path(self.base_dir) / Path(raw)).resolve()

    @property
    def corpus_root_path(self) -> Path:
        return self._resolve(self.paths.corpus_root)

    @property
    def metadata_file(self) -> Path:
        return self._resolve(self.paths.metadata)

    @property
    def output_path(self) -> Path:
        return self._resolve(self.paths.output)

    def schedule_for(self, train_size: int) -> tuple[int, int, int]:
        """Schedule row of the largest size not above a training set
        size, or the smallest row when every size is above it."""
        best = self.schedule_table[0][1]
        for size, row in self.schedule_table:
            if size <= train_size:
                best = row
        return best


def _keys_checked(cls, data, name: str, noun: str) -> Mapping:
    """data, a JSON value read as the fields of the dataclass cls: it must
    be an object, with no key that is not a field of cls and every field
    that has no default. base_dir is no key: it is where the file is."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name} must be an object")
    unknown = set(data) - {f.name for f in fields(cls) if f.name != "base_dir"}
    if unknown:
        raise ConfigError(f"unknown {noun} keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
    if missing:
        raise ConfigError(f"missing {noun} keys: {sorted(missing)}")
    return data


def _tuple(value):
    """A JSON array as a tuple; any other value is left for
    ExperimentConfig to reject, never converted."""
    return tuple(value) if isinstance(value, list) else value


def config_from_dict(data: Mapping, base_dir: str | Path = ".") -> ExperimentConfig:
    """The config of a JSON object; a key left out takes its field's
    default, and a JSON array of a tuple field is read as a tuple."""
    values = dict(_keys_checked(ExperimentConfig, data, "config", "config"))
    values["paths"] = Paths(**_keys_checked(Paths, values["paths"], "paths", "path"))
    if "tagger" in values:
        values["tagger"] = TaggerConfig(
            **_keys_checked(TaggerConfig, values["tagger"], "tagger", "tagger"))
    if "schedule_table" in values:
        raw = values["schedule_table"]
        try:
            values["schedule_table"] = tuple(sorted(
                (int(size), _tuple(row)) for size, row in raw.items()
            ))
            for key in raw:  # not coerced: "+100" or "0100" is no size
                if str(int(key)) != key:
                    raise ValueError(f"size {key!r} is not a plain decimal integer")
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"schedule_table: {exc}") from None
    for field in fields(ExperimentConfig):
        if field.name in values and field.type.startswith("tuple"):
            values[field.name] = _tuple(values[field.name])
    try:
        return ExperimentConfig(**values, base_dir=str(base_dir))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def config_from_file(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "config", ConfigError),
                            base_dir=Path(path).parent)


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


def load_metadata(path: str | Path) -> dict[str, LanguageMeta]:
    """Parse the language metadata CSV at path."""
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
    out_dir: Path, perturbed: Mapping[tuple[str, str], tuple[Corpus, list]],
    inputs: Sequence[str | Path] = (),
) -> None:
    """Write each set of build_perturbed as <language>.<scope>.iob2 with
    its replacement log <language>.<scope>.log.jsonl. An output that is
    the same file as one of inputs (by path, symlink or hard link) is a
    ConfigError, raised before any file is written."""
    for language, scope_name in perturbed:
        for suffix in ("iob2", "log.jsonl"):
            output = out_dir / f"{language}.{scope_name}.{suffix}"
            for path in inputs:
                if output.exists() and output.samefile(path):
                    raise ConfigError(f"{path}: an input, which an output would overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)
    for (language, scope_name), (corpus, records) in sorted(perturbed.items()):
        stem = f"{language}.{scope_name}"
        (out_dir / f"{stem}.iob2").write_text(serialize_iob2(corpus), encoding="utf-8")
        write_replacement_log(records, out_dir / f"{stem}.log.jsonl")


def load_cell_inputs(config: ExperimentConfig) -> tuple:
    """What the grid's cells read, as build_bundle takes it: the train
    and test splits of every config language and the perturbed set of
    each config language and scope."""
    meta = load_metadata(config.metadata_file)
    root = config.corpus_root_path
    trains = {l: load_split(root, l, "train") for l in config.languages}
    tests = {l: load_split(root, l, "test") for l in config.languages}
    return trains, tests, build_perturbed(
        meta, tests, config.languages, config.scopes, config.perturbation_seed)


def scored_splits(config: ExperimentConfig, languages: Sequence[str]) -> list[tuple[str, str]]:
    """The (language, split name) pairs a cell that trains on languages
    owes result lines for, in their order: per language, regular, then
    perturbed-<scope> for each config scope."""
    return [(language, name) for language in languages
            for name in ("regular", *(f"perturbed-{scope}" for scope in config.scopes))]


@dataclass(frozen=True)
class Bundle:
    """What every cell of one language set shares: the training set encoded
    with its vocab (train.vocab), and the scored_splits pairs laid end to end
    as one test set with its gold spans as decode_span_ids keys, split g
    (pairs[g]) owning test's sentences starts[g]:starts[g + 1]."""

    train: Encoded
    test: Encoded
    pairs: tuple[tuple[str, str], ...]
    starts: np.ndarray
    gold_spans: np.ndarray


def build_bundle(
    config: ExperimentConfig,
    languages: Sequence[str],
    trains: Mapping[str, Corpus],
    tests: Mapping[str, Corpus],
    perturbed: Mapping[tuple[str, str], tuple[Corpus, list]],
) -> Bundle:
    """Vocab, encoded training set and encoded test set with gold spans
    for the cells that train on languages. The test set's distinct rows
    are found here, before any cell reads them: cached_property takes no
    lock, so pool threads could each find them."""
    train_corpora = [trains[l] for l in languages]
    vocab = build_vocab(train_corpora, config.tagger.vocab_min_count)
    window = config.tagger.window
    train_set = encode_windows(vocab, window, train_corpora)
    pairs = scored_splits(config, languages)
    corpora = [tests[language] if name == "regular"
               else perturbed[(language, name.removeprefix("perturbed-"))][0]
               for language, name in pairs]
    test = encode_windows(vocab, window, corpora)
    test.distinct
    return Bundle(train_set, test, tuple(pairs), np.cumsum([0, *map(len, corpora)]),
                  decode_span_ids(test.tags, test.offsets))


def execute_run(
    spec: RunSpec,
    config: ExperimentConfig,
    bundle: Bundle,
    checkpoint_dir: Path,
) -> list[dict]:
    """Train one grid cell on its language set's bundle, save it and its
    trace.jsonl (see _write_trace) to checkpoint_dir and score it on every
    split it owes.

    Returns the result line dicts. The nominal sparsity must be achieved
    within 1/N of the prunable weight count or the run fails. Once the
    cell is scored, the checkpoint is written to .<name>.partial beside
    checkpoint_dir, which this call makes and which must not exist yet,
    and renamed onto checkpoint_dir; a failure in between removes that
    directory. No file that stood before the call is deleted or
    overwritten.
    """
    model = init_model(replace(config.tagger, seed=spec.seed), bundle.train.vocab)
    strategy = PruneStrategy(spec.strategy)
    if spec.sparsity == 0:
        schedule = None
        schedule_row = None
    else:
        schedule_row = config.schedule_for(len(bundle.train.offsets) - 1)
        start, end, freq = schedule_row
        schedule = PruneSchedule(start, end, freq, spec.sparsity / 100)
    started = time.perf_counter()
    model, history = train(model, bundle.train, schedule=schedule, strategy=strategy)
    trained = time.perf_counter()
    # the last full pass measured the final masks
    achieved = history[-1].sparsity
    # per tensor a strategy may prune, its weights that this one prunes
    prunable = {t.name: t.size if t.role in strategy.prunable_roles else 0
                for t in model.param_list if t.role is not Role.EXCLUDED}
    n_prunable = sum(prunable.values())
    if abs(achieved - spec.sparsity / 100) > 1 / n_prunable + 1e-12:
        raise PruningError(
            f"{spec.run_id}: achieved sparsity {achieved:.6f} misses "
            f"nominal {spec.sparsity / 100:.2f}"
        )
    reports = score_ids(bundle.gold_spans, predict_ids(model, bundle.test),
                        bundle.test.offsets, bundle.starts)
    scored = time.perf_counter()
    cell = {
        "run_id": spec.run_id,
        "config_hash": config.config_hash,
        "schedule": list(schedule_row) if schedule_row else None,
        "achieved_sparsity": achieved,
    }
    lines = [{**RunRecord(language, spec.sparsity, spec.strategy, spec.seed, split,
                          report).to_json_dict(), **cell}
             for (language, split), report in zip(bundle.pairs, reports)]
    staging = checkpoint_dir.with_name(f".{checkpoint_dir.name}.partial")
    staging.mkdir()
    try:
        save_model(staging, model)
        timings = {"train_s": trained - started, "predict_score_s": scored - trained,
                   "save_s": time.perf_counter() - scored}
        _write_trace(staging / TRACE_NAME, history, len(history) // config.tagger.epochs,
                     schedule_events(schedule) if schedule else [], model, prunable, timings)
        staging.rename(checkpoint_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return lines


def _write_trace(path, history, steps_per_epoch, events, model, prunable, timings):
    """Write a run's trace.jsonl: per epoch, the steps so far and the mean
    step loss; per pruning event, its step, target and the sparsity
    measured at the step it ran (step 1 for an event at step 0); a final
    line with the step count, the largest masked magnitude and the masked
    and prunable counts per tensor; last, the stage timings and peak RSS,
    the only line that varies between runs of one config."""
    k = steps_per_epoch
    losses = [h.loss for h in history]
    trace = [{"kind": "epoch", "steps": end, "loss": sum(losses[end - k:end]) / k}
             for end in range(k, len(history) + 1, k)]
    trace += [{"kind": "event", "step": step, "target": target,
               "sparsity": history[max(step, 1) - 1].sparsity} for step, target in events]
    masked = {name: model.params[name].size - int(np.count_nonzero(model.params[name].mask))
              for name in prunable}
    trace.append({"kind": "final", "steps": len(history), "masked": masked,
                  "prunable": prunable,
                  "max_abs_masked": max(h.max_abs_masked for h in history)})
    trace.append({"kind": "timing", **{name: round(t, 6) for name, t in timings.items()},
                  "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in trace),
                    encoding="utf-8")


def _failure(spec: RunSpec, exc: Exception) -> tuple[str, str]:
    failure = {"run_id": spec.run_id, "error": type(exc).__name__, "message": str(exc)}
    if not isinstance(exc, NerpruneError):
        # a fault of the program, not of its input: say where it arose
        failure["traceback"] = "".join(traceback.format_exception(exc))
    return "failures.jsonl", json.dumps(failure, sort_keys=True) + "\n"


def _cell_outcome(spec: RunSpec, config: ExperimentConfig, bundle: Bundle,
                  out_dir: Path) -> tuple[str, str]:
    """Run one cell; returns the file name under out_dir and the text to
    append to it: the cell's result lines, or its failure record. What an
    earlier attempt left in the cell's checkpoint slot or its staging
    directory is removed first, so that execute_run finds the slot absent;
    a removal that fails, other than of a missing path, fails the cell
    before it trains."""
    slot = out_dir / "checkpoints" / spec.run_id
    try:
        for path in (slot, slot.with_name(f".{spec.run_id}.partial")):
            with contextlib.suppress(FileNotFoundError):
                shutil.rmtree(path)
        lines = execute_run(spec, config, bundle, slot)
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


def _loads_line(line: bytes):
    """json.loads(line). A line that is one JSON value alone in UTF-8, as
    run writes them, is decoded by one call of json's C scanner, which
    skips json.loads's encoding detection and whitespace passes; any other
    line goes to json.loads, which decodes it or raises its own error."""
    try:
        text = line.decode()
        value, end = _scan_json(text, 0)
        if end == len(text):
            return value
    except (UnicodeDecodeError, StopIteration, ValueError):
        pass
    return json.loads(line)


def _existing_run_ids(results_path: Path, line_counts: Mapping[str, int]) -> set[str]:
    """Run ids with all their line_counts[run_id] lines on disk. A run
    appends its lines in one write, so a kill or a full disk can cut only
    the last run short, inside a line or at a line boundary: the file is
    truncated just past the last line that completes a run, and the cut
    run reruns. A malformed complete line, a line of a run the plan does
    not hold, or a line past its run's count, is a ConfigError, and so is
    a results_path that is there but is no regular file."""
    if not results_path.exists():
        return set()
    if not results_path.is_file():
        raise ConfigError(f"{results_path}: not a regular file")
    data = results_path.read_bytes()
    seen: dict[str, int] = {}
    done = set()
    offset = end = 0  # end: just past the last line that completes a run
    for number, line in enumerate(data.split(b"\n")[:-1], 1):
        offset += len(line) + 1
        if line.strip():
            try:
                run_id = _loads_line(line)["run_id"]
                if not isinstance(run_id, str):
                    raise TypeError(f"run_id must be a string, got {run_id!r}")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ConfigError(
                    f"{results_path}:{number}: malformed results line: {exc!r}"
                ) from None
            count = line_counts.get(run_id)
            if count is None:
                raise ConfigError(f"{results_path}:{number}: run {run_id} is not "
                                  "in this config's plan")
            seen[run_id] = seen.get(run_id, 0) + 1
            if seen[run_id] == count:
                done.add(run_id)
                end = offset
            elif run_id in done:
                raise ConfigError(f"{results_path}:{number}: run {run_id} has more "
                                  f"than its {count} lines")
    if end < len(data):
        with open(results_path, "r+b") as f:
            f.truncate(end)
    return done


def run(config: ExperimentConfig, workers: int = 1) -> Path:
    """Execute every pending grid cell; returns the results.jsonl path.

    Completed run ids found in an existing results file are skipped, so
    rerunning a finished experiment writes no file and reads no
    metadata or corpus. With a cell pending, checkpoints/ is made before
    anything else is written or read, and a regular file in its place
    raises FileExistsError. Failures are recorded per run in
    failures.jsonl and do not stop the rest of the grid. Each language set with a
    pending cell gets one bundle, built before its cells start and
    dropped when they finish. With workers > 1 a language set's runs
    execute on a thread pool, and each cell's outcome is appended in plan
    order once it and the earlier cells of its set are done. While one
    run holds the output directory's lock, another on it raises
    ConfigError before it reads or writes any file there.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    out_dir = config.output_path / config.config_hash[:HASH_PREFIX_LEN]
    out_dir.mkdir(parents=True, exist_ok=True)
    # one writer per output directory: held until run returns, and dropped
    # by the kernel when its holder dies, so a killed run never blocks its
    # resume; nothing is written, so the cheapest open (binary, unbuffered)
    with open(out_dir / LOCK_NAME, "ab", buffering=0) as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"{out_dir}: held by another nerprune run") from None
        snapshot_path = out_dir / "config_snapshot.json"
        if snapshot_path.is_file():
            existing = read_json_object(snapshot_path, "config snapshot", ConfigError)
            if existing.get("config_hash") != config.config_hash:
                raise ConfigError(
                    f"{snapshot_path}: directory belongs to a different config"
                )
        else:
            # written whole under another name first, so that a kill
            # mid-write leaves no torn snapshot to block the resume
            snapshot = {"config_hash": config.config_hash, "config": config.canonical_dict()}
            staging = out_dir / ".config_snapshot.json.partial"
            staging.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            staging.replace(snapshot_path)

        results_path = out_dir / "results.jsonl"
        specs = plan(config)
        done = _existing_run_ids(results_path, {
            spec.run_id: len(scored_splits(config, spec.languages(config)))
            for spec in specs})
        pending = [spec for spec in specs if spec.run_id not in done]
        if not pending:
            return results_path

        (out_dir / "checkpoints").mkdir(exist_ok=True)
        (out_dir / "failures.jsonl").write_text("", encoding="utf-8")
        inputs = load_cell_inputs(config)
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
