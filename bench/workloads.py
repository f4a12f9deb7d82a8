"""The three benchmark workloads.

Each workload generates its inputs from the seed (``prepare``, not
timed), has a set-up that precedes the timed part (``setup``, timed as
``setup_s``), a timed part (``timed``) and a correctness check of the
timed part's outputs (``check``). Every call into nerprune goes through
a module attribute looked up at call time, so the tracer's wrappers see
it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import gen

import nerprune.analysis as analysis
import nerprune.cli as cli
import nerprune.corpus as corpus
import nerprune.evaluation as evaluation
import nerprune.experiment as experiment
import nerprune.perturb as perturb
import nerprune.pruning as pruning
import nerprune.tagger as tagger

PRUNABLE_ROLES = {"partial": {"dense"}, "incl_embeddings": {"dense", "embedding"}}
# about 2.5 s per grid of 12 cells on a 2-core Xeon, so a run repeats it
# a dozen times
GRID_EPOCHS = 3
# sentences of the train-zipf corpus trained on in the timed part (125
# steps); the vocab comes from the whole corpus
TRAIN_SENTENCES = 2000
# sentences of the target's test set perturbed in the timed part (two
# mentions each); pools are built from every test set
PERTURB_SENTENCES = 100


class Gate:
    """Correctness checks; every breach is counted and named."""

    def __init__(self):
        self.attempted = 0
        self.breaches: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.breaches.append(f"{name}: {detail}" if detail else name)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_history(gate: Gate, label: str, history) -> None:
    masked = max((step.max_abs_masked for step in history), default=0.0)
    gate.check(f"{label}.masked_stay_zero",
               all(step.max_abs_masked == 0.0 for step in history),
               f"max |masked weight| {masked!r}")
    gate.check(f"{label}.loss_finite",
               all(math.isfinite(step.loss) for step in history),
               "non-finite loss")


def check_sparsity(gate: Gate, label: str, achieved: float, nominal: int,
                   n_prunable: int) -> None:
    gate.check(f"{label}.sparsity",
               abs(achieved - nominal / 100) <= 1 / n_prunable + 1e-12,
               f"achieved {achieved!r} vs nominal {nominal}%")


def check_model_sparsity(gate: Gate, label: str, model, strategy, nominal: int) -> None:
    params = model.param_list
    n = sum(p.size for p in params if p.role in strategy.prunable_roles)
    check_sparsity(gate, label, pruning.measure_sparsity(params, strategy), nominal, n)


def load_split(path: Path, language: str, split: str):
    with open(path, encoding="utf-8") as f:
        return corpus.parse_iob2(f, language, split, name=str(path))


class Workload:
    name = ""
    workers = 1
    setup_first = True       # set-up runs before the first timed part

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.sizes: dict = {}
        self.tokens = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def timed(self, state, i: int):
        raise NotImplementedError

    def check(self, outputs, gate: Gate) -> dict[str, str]:
        """Run the checks; returns the digests of the outputs."""
        raise NotImplementedError

    @contextlib.contextmanager
    def hooks(self):
        yield


class GridSynth(Workload):
    """The README's grid: ``nerprune experiment`` over the synthetic
    three-language world, multilingual mode, one worker. With two thread
    workers the hand-offs of the interpreter lock made the run-to-run
    spread of wall time exceed 25 % on a 2-vCPU VM."""

    name = "grid-synth"
    setup_first = False

    def prepare(self):
        self.sizes = gen.make_grid_synth(self.root, self.work, self.seed)
        smoke = self.smoke
        self.config = {
            "mode": "multilingual",
            "languages": self.sizes["languages"],
            "sparsity_levels": [0, 50] if smoke else [0, 50, 98],
            "strategies": ["partial"] if smoke else ["partial", "incl_embeddings"],
            "seeds": [0] if smoke else [0, 1],
            "scopes": list(gen.SCOPES),
            "perturbation_seed": 13,
            "tagger": {"embed_dim": 20, "hidden_dim": 10, "window": 1,
                       "learning_rate": 0.4, "epochs": 1 if smoke else GRID_EPOCHS,
                       "batch_size": 16, "seed": 0},
            "schedule_table": {"100": [10, 60, 10] if smoke else [50, 250, 50]},
            "paths": {"corpus_root": "../corpus", "metadata": "../languages.csv",
                      "output": "out"},
        }
        cells = (len(self.config["sparsity_levels"]) * len(self.config["strategies"])
                 * len(self.config["seeds"]))
        self.sizes.update(cells=cells, workers=self.workers)
        self.histories = []
        self.last_config = None

    def _scored_tokens(self, out_dir: Path) -> int:
        n = self.sizes["test_tokens"]
        for path in (out_dir / "perturbed").glob("*.iob2"):
            with open(path, encoding="utf-8") as f:
                n += sum(1 for line in f if line.strip())
        return n

    @contextlib.contextmanager
    def hooks(self):
        """Keep each cell's training history for the gate."""
        original = experiment.train

        def keep_history(*args, **kwargs):
            model, history = original(*args, **kwargs)
            self.histories.append(history)
            return model, history

        experiment.train = keep_history
        try:
            yield
        finally:
            experiment.train = original

    def setup(self):
        # a no-op resume of the grid that just finished
        config = experiment.config_from_file(self.last_config)
        experiment.run(config, workers=self.workers)

    def timed(self, state, i):
        it_dir = self.work / f"iter{i}"
        it_dir.mkdir()
        config_path = it_dir / "config.json"
        config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")
        self.histories = []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["experiment", "--config", str(config_path),
                             "--workers", str(self.workers)])
        if self.last_config is not None:
            shutil.rmtree(self.last_config.parent)
        self.last_config = config_path
        return code, config_path, stdout.getvalue().strip(), list(self.histories)

    def check(self, outputs, gate):
        code, config_path, printed, histories = outputs
        gate.check("cli.exit_code", code == 0, f"exit code {code}")
        config = experiment.config_from_file(config_path)
        results = Path(printed) if printed else None
        gate.check("cli.results_path", results is not None and results.is_file(),
                   f"printed {printed!r}")
        if results is None or not results.is_file():
            return {}
        out_dir = results.parent
        if not self.tokens:
            cells = self.sizes["cells"]
            self.tokens = cells * (
                config.tagger.epochs * self.sizes["train_tokens"]
                + self._scored_tokens(out_dir)
            )
        failures = out_dir / "failures.jsonl"
        gate.check("grid.failures_empty",
                   failures.is_file() and failures.read_text(encoding="utf-8") == "",
                   "failures.jsonl is not empty")
        lines = [json.loads(line) for line in
                 results.read_text(encoding="utf-8").splitlines() if line.strip()]
        planned = [spec.run_id for spec in experiment.plan(config)]
        present = {line["run_id"] for line in lines}
        for run_id in planned:
            gate.check(f"grid.{run_id}.present", run_id in present, "missing")
        gate.check("grid.histories", len(histories) == len(planned),
                   f"{len(histories)} trainings for {len(planned)} cells")
        for k, history in enumerate(histories):
            check_history(gate, f"grid.train{k}", history)
        checked = set()
        for line in lines:
            if line["run_id"] in checked:
                continue
            checked.add(line["run_id"])
            manifest = json.loads((out_dir / "checkpoints" / line["run_id"]
                                   / "manifest.json").read_text(encoding="utf-8"))
            roles = PRUNABLE_ROLES[line["strategy"]]
            n = sum(math.prod(t["shape"]) for t in manifest["tensors"]
                    if t["role"] in roles)
            check_sparsity(gate, f"grid.{line['run_id']}",
                           line["achieved_sparsity"], line["sparsity"], n)
        stripped = []
        for line in lines:
            line.pop("train_seconds", None)
            stripped.append(json.dumps(line, sort_keys=True))
        bins = sorted((out_dir / "checkpoints").glob("*/*.bin"),
                      key=lambda p: (p.parent.name, p.name))
        return {
            "results": sha256_text("\n".join(sorted(stripped))),
            "checkpoints": sha256_files(bins),
        }


class TrainZipf(Workload):
    """One pruned training pass with a vocab of about 22k, built from
    the whole corpus, so per-step work over the whole embedding table
    dominates. The timed part trains one epoch over the corpus's first
    TRAIN_SENTENCES sentences, short enough that a run repeats it many
    times."""

    name = "train-zipf"

    def prepare(self):
        n_train, n_heldout = (200, 50) if self.smoke else (8000, 1000)
        n_step = 160 if self.smoke else TRAIN_SENTENCES
        self.sizes = gen.make_train_zipf(self.work, self.seed, n_train, n_heldout)
        full = load_split(self.work / "train.iob2", "zz", "train")
        self.vocab_corpus = full
        self.train_corpus = corpus.Corpus(full.sentences[:n_step], "zz", "train")
        self.heldout = load_split(self.work / "heldout.iob2", "zz", "test")
        self.tagger_config = tagger.TaggerConfig(
            embed_dim=32, hidden_dim=64, window=1, learning_rate=0.05,
            epochs=1, batch_size=16, seed=self.seed,
        )
        steps = math.ceil(n_step / 16)
        start, end, freq = (2, 8, 2) if self.smoke else (25, 100, 25)
        self.schedule = pruning.PruneSchedule(start, end, freq, 0.9)
        step_tokens = sum(len(s) for s in self.train_corpus)
        self.tokens = step_tokens + self.sizes["heldout_tokens"]
        self.sizes.update(epochs=1, steps=steps, batch_size=16, workers=1,
                          step_sentences=n_step, step_tokens=step_tokens,
                          sparsity="90% incl_embeddings")

    def setup(self):
        vocab = tagger.build_vocab(self.vocab_corpus)
        self.sizes["vocab"] = len(vocab)
        return tagger.init_model(self.tagger_config, vocab)

    def timed(self, model, i):
        model, history = tagger.train(
            model, self.train_corpus, schedule=self.schedule,
            strategy=pruning.PruneStrategy.INCL_EMBEDDINGS,
        )
        report = evaluation.score_corpus(
            self.heldout, tagger.predict(model, self.heldout))
        ckpt = self.work / f"ckpt{i}"
        tagger.save_model(ckpt, model)
        return model, history, report, ckpt

    def check(self, outputs, gate):
        model, history, report, ckpt = outputs
        check_history(gate, "train", history)
        check_model_sparsity(gate, "train", model, pruning.PruneStrategy.INCL_EMBEDDINGS, 90)
        gate.check("train.steps", len(history) == self.sizes["steps"],
                   f"{len(history)} steps")
        digests = {
            "results": sha256_text(json.dumps(dataclasses.asdict(report), sort_keys=True)),
            "checkpoints": sha256_files(sorted(ckpt.glob("*.bin"))),
        }
        shutil.rmtree(ckpt)
        return digests


class EvalPerturb(Workload):
    """The read side: parse, build pools of three sizes, perturb the
    first PERTURB_SENTENCES sentences of the target's test set against
    each, load a checkpoint, predict and score the regular splits of
    the target's script group and the perturbed splits, and report a
    40-language grid. Nothing is trained in the timed part."""

    name = "eval-perturb"

    def prepare(self):
        base, n_train = (60, 100) if self.smoke else (2000, 1000)
        self.n_perturbed = 10 if self.smoke else PERTURB_SENTENCES
        self.sizes = gen.make_eval_perturb(self.root, self.work, self.seed, base, n_train)
        self.train_corpus = load_split(self.work / "train.iob2", gen.EVAL_TARGET, "train")
        self.tagger_config = tagger.TaggerConfig(
            embed_dim=32, hidden_dim=64, window=1, learning_rate=0.05,
            epochs=1, batch_size=16, seed=self.seed,
        )
        self.schedule = pruning.PruneSchedule(2, 6, 2, 0.5) if self.smoke else \
            pruning.PruneSchedule(10, 50, 10, 0.5)
        self.ckpt = self.work / "checkpoint"
        self.languages = sorted(self.sizes["surfaces"])
        self.sizes.update(
            workers=1,
            perturbed_sentences=self.n_perturbed,
            pool_surfaces={"in-language": base, "in-script": 4 * base,
                           "in-family": 16 * base},
        )

    def setup(self):
        # the checkpoint every timed part loads: vocab, model, a short
        # pruned training run and the save
        vocab = tagger.build_vocab(self.train_corpus)
        model = tagger.init_model(self.tagger_config, vocab)
        model, self.setup_history = tagger.train(
            model, self.train_corpus, schedule=self.schedule,
            strategy=pruning.PruneStrategy.PARTIAL,
        )
        if self.ckpt.exists():
            shutil.rmtree(self.ckpt)
        tagger.save_model(self.ckpt, model)
        self.setup_model = model
        self.sizes["vocab"] = len(vocab)
        return self.ckpt

    def timed(self, ckpt, i):
        out = self.work / f"iter{i}"
        out.mkdir()
        with open(self.work / "languages.csv", encoding="utf-8") as f:
            meta = corpus.load_language_metadata(f)
        tests = {lang: load_split(self.work / "corpus" / f"{lang}.test.iob2", lang, "test")
                 for lang in self.languages}
        target = gen.EVAL_TARGET
        sample = corpus.Corpus(tests[target].sentences[:self.n_perturbed], target, "test")
        splits = {lang: tests[lang] for lang in self.languages
                  if meta[lang].script == meta[target].script}
        for scope_name in gen.SCOPES:
            scope = perturb.Scope.parse(scope_name)
            pool = perturb.build_pool(list(tests.values()), meta, scope,
                                      scope.group_key(meta[target]))
            perturbed, records = perturb.perturb_corpus(sample, pool, 13)
            stem = f"{target}.{scope_name}"
            (out / f"{stem}.iob2").write_text(corpus.serialize_iob2(perturbed),
                                              encoding="utf-8")
            perturb.write_replacement_log(records, out / f"{stem}.log.jsonl")
            splits[f"{target}/perturbed-{scope_name}"] = perturbed
        model = tagger.load_model(ckpt)
        scores = {}
        for key, split in splits.items():
            report = evaluation.score_corpus(split, tagger.predict(model, split))
            scores[key] = dataclasses.asdict(report)
        records = evaluation.read_run_records(self.work / "results.jsonl")
        with open(self.work / "all_languages.csv", encoding="utf-8") as f:
            all_meta = corpus.load_language_metadata(f)
        analysis.emit_report(records, all_meta, out / "report")
        if not self.tokens:
            # parsed, perturbed and predicted tokens
            parsed = sum(len(s) for c in tests.values() for s in c)
            pert = sum(len(s) for k, c in splits.items() if "/" in k for s in c)
            predicted = sum(len(s) for c in splits.values() for s in c)
            self.tokens = parsed + pert + predicted
            self.sizes.update(predicted_splits=len(splits),
                              sample_mentions=sum(t.startswith("B-") for s in sample
                                                  for t in s.tags))
        return out, scores, len(records)

    def check(self, outputs, gate):
        out, scores, n_records = outputs
        check_history(gate, "checkpoint", self.setup_history)
        check_model_sparsity(gate, "checkpoint", self.setup_model,
                             pruning.PruneStrategy.PARTIAL, 50)
        gate.check("report.records", n_records == self.sizes["results_records"],
                   f"{n_records} records")
        for scope_name in gen.SCOPES:
            log = out / f"{gen.EVAL_TARGET}.{scope_name}.log.jsonl"
            lines = log.read_text(encoding="utf-8").splitlines()
            gate.check(f"perturb.{scope_name}.mentions",
                       len(lines) == self.sizes["sample_mentions"],
                       f"{len(lines)} logged")
        digests = {
            "perturbed": sha256_files(sorted(out.glob("*.iob2")) + sorted(out.glob("*.jsonl"))),
            "results": sha256_text(json.dumps(scores, sort_keys=True)),
            "report": sha256_files(sorted((out / "report").iterdir())),
            "checkpoints": sha256_files(sorted(self.ckpt.glob("*.bin"))),
        }
        shutil.rmtree(out)
        return digests


WORKLOADS = {w.name: w for w in (GridSynth, TrainZipf, EvalPerturb)}
