"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain files (IOB2
corpora, language CSVs, a results JSON-lines file) into a directory.
The files are written here, not through nerprune, so the inputs do not
change when the program's own writers change. Sizes are fixed by the
constants below; the seed only changes which tokens land where, so run
time does not drift from seed to seed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np

ENTITY_TYPES = ("PER", "LOC", "ORG")
SPARSITY_LEVELS = (0, 50, 70, 80, 90, 95, 98)
STRATEGIES = ("partial", "incl_embeddings")
SCOPES = ("in-language", "in-script", "in-family")
META_HEADER = ("code", "script", "family", "train_size", "pretrain_pct")


def write_iob2(path: Path, sentences) -> int:
    """Write (tokens, tags) pairs as IOB2; returns the token count."""
    parts = []
    n = 0
    for tokens, tags in sentences:
        for token, tag in zip(tokens, tags):
            parts.append(f"{token}\t{tag}\n")
        parts.append("\n")
        n += len(tokens)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(parts), encoding="utf-8")
    return n


def write_meta(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(META_HEADER)
        writer.writerows(rows)


def read_meta_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return [row for row in rows[1:] if row]


def _zipf_sampler(n_types: int, exponent: float):
    cdf = np.cumsum(1.0 / np.arange(1, n_types + 1) ** exponent)
    cdf /= cdf[-1]

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return np.minimum(np.searchsorted(cdf, rng.random(size)), n_types - 1)

    return draw


def _tagged(length: int, spans) -> list[str]:
    tags = ["O"] * length
    for start, end, etype in spans:
        tags[start] = f"B-{etype}"
        for i in range(start + 1, end):
            tags[i] = f"I-{etype}"
    return tags


# --- grid-synth -----------------------------------------------------------


def load_synth(root: Path):
    """The three-language world module of the test suite, imported from
    its file without touching the tests package."""
    spec = importlib.util.spec_from_file_location(
        "_bench_synth", root / "tests" / "synth.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_grid_synth(root: Path, out: Path, seed: int) -> dict:
    """Write the synthetic world's train and test splits and its
    metadata CSV; returns token and sentence counts."""
    synth = load_synth(root)
    trains, tests, _ = synth.build_world(seed)
    sizes = {"train_tokens": 0, "test_tokens": 0, "train_sentences": 0,
             "test_sentences": 0}
    for lang in synth.LANGUAGES:
        for split, corpus in (("train", trains[lang]), ("test", tests[lang])):
            sizes[f"{split}_tokens"] += write_iob2(
                out / "corpus" / lang / f"{split}.iob2",
                ((s.tokens, s.tags) for s in corpus),
            )
            sizes[f"{split}_sentences"] += len(corpus)
    write_meta(out / "languages.csv", [
        (m.code, m.script, m.family, m.train_size, m.pretrain_pct)
        for m in synth.META.values()
    ])
    sizes["languages"] = list(synth.LANGUAGES)
    return sizes


# --- train-zipf -----------------------------------------------------------

ZIPF_CONTEXT_TYPES = 60000
ZIPF_ENTITY_TYPES = 6000
ZIPF_EXPONENT = 1.05


def _zipf_sentences(rng, count, min_len, max_len, lang):
    """Sentences of min_len..max_len tokens; zero to two mentions each,
    entity tokens drawn per type, context tokens from one Zipfian
    inventory."""
    context = _zipf_sampler(ZIPF_CONTEXT_TYPES, ZIPF_EXPONENT)
    entity = _zipf_sampler(ZIPF_ENTITY_TYPES, ZIPF_EXPONENT)
    lengths = rng.integers(min_len, max_len + 1, size=count)
    sentences = []
    for length in lengths:
        length = int(length)
        tokens = [f"{lang}.w{i}" for i in context(rng, length)]
        spans = []
        n_mentions = int(rng.integers(0, 3))
        slot = length // max(n_mentions, 1)
        for m in range(n_mentions):
            span_len = int(rng.integers(1, 4))
            start = m * slot + int(rng.integers(0, max(slot - span_len, 0) + 1))
            end = min(start + span_len, (m + 1) * slot, length)
            if end <= start:
                continue
            etype = ENTITY_TYPES[int(rng.integers(3))]
            for pos in range(start, end):
                tokens[pos] = f"{lang}.{etype.lower()}{int(entity(rng, 1)[0])}"
            spans.append((start, end, etype))
        sentences.append((tokens, _tagged(length, spans)))
    return sentences


def make_train_zipf(out: Path, seed: int, n_train: int, n_heldout: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    train = _zipf_sentences(rng, n_train, 5, 24, "zz")
    heldout = _zipf_sentences(rng, n_heldout, 5, 24, "zz")
    return {
        "train_sentences": n_train,
        "train_tokens": write_iob2(out / "train.iob2", train),
        "heldout_sentences": n_heldout,
        "heldout_tokens": write_iob2(out / "heldout.iob2", heldout),
    }


# --- eval-perturb ---------------------------------------------------------

EVAL_TARGET = "de"


def pool_plan(meta_rows, target: str, base: int) -> dict[str, int]:
    """Mention surfaces per language so that the target's in-language,
    in-script and in-family pools hold base, 4 * base and 16 * base
    surfaces. Only the target's family is written, so the in-script
    group is the family members sharing its script."""
    by_code = {row[0]: row for row in meta_rows}
    script, family = by_code[target][1], by_code[target][2]
    same_script = [r[0] for r in meta_rows
                   if r[2] == family and r[1] == script and r[0] != target]
    other_script = [r[0] for r in meta_rows if r[2] == family and r[1] != script]
    plan = {target: base}
    for codes, total in ((same_script, 3 * base), (other_script, 12 * base)):
        share, extra = divmod(total, len(codes))
        for i, code in enumerate(codes):
            plan[code] = share + (1 if i < extra else 0)
    return plan


def _mention_sentences(rng, lang, n_mentions):
    """Test sentences of two mentions each, all with distinct surfaces,
    so the language contributes exactly n_mentions surfaces to a pool."""
    context = _zipf_sampler(5000, ZIPF_EXPONENT)
    types = rng.integers(0, 3, size=n_mentions)
    span_lens = rng.integers(1, 4, size=n_mentions)
    sentences = []
    m = 0
    while m < n_mentions:
        k = min(2, n_mentions - m)
        tokens = []
        spans = []
        for j in range(k):
            tokens.extend(f"{lang}.w{i}" for i in context(rng, int(rng.integers(2, 6))))
            etype = ENTITY_TYPES[int(types[m + j])]
            start = len(tokens)
            tokens.extend(
                f"{lang}.{etype.lower()}{m + j}.{p}" for p in range(int(span_lens[m + j]))
            )
            spans.append((start, len(tokens), etype))
        tokens.extend(f"{lang}.w{i}" for i in context(rng, int(rng.integers(1, 5))))
        sentences.append((tokens, _tagged(len(tokens), spans)))
        m += k
    return sentences


def make_eval_perturb(root: Path, out: Path, seed: int, base: int,
                      n_train: int) -> dict:
    """Test sets for the target's language family, a train split for the
    target (trained once during set-up) and a results file for a full
    grid over every language in the reference metadata."""
    ref_rows = read_meta_rows(root / "tests" / "data" / "reference" / "languages.csv")
    plan = pool_plan(ref_rows, EVAL_TARGET, base)
    write_meta(out / "languages.csv", [r for r in ref_rows if r[0] in plan])
    write_meta(out / "all_languages.csv", ref_rows)
    sizes = {"test_tokens": 0, "test_sentences": 0, "surfaces": dict(plan)}
    for idx, lang in enumerate(sorted(plan)):
        rng = np.random.default_rng([seed, 3, idx])
        sents = _mention_sentences(rng, lang, plan[lang])
        sizes["test_tokens"] += write_iob2(out / "corpus" / f"{lang}.test.iob2", sents)
        sizes["test_sentences"] += len(sents)
    rng = np.random.default_rng([seed, 4])
    train = _zipf_sentences(rng, n_train, 5, 24, EVAL_TARGET)
    sizes["train_tokens"] = write_iob2(out / "train.iob2", train)
    sizes["train_sentences"] = n_train
    sizes["results_records"] = make_results(
        out / "results.jsonl", [r[0] for r in ref_rows], seed
    )
    sizes["target"] = EVAL_TARGET
    return sizes


def make_results(path: Path, languages, seed: int, seeds=(0, 1, 2)) -> int:
    """Results lines for every (language, sparsity, strategy, seed,
    split) of a full grid, with consistent counts and scores."""
    rng = np.random.default_rng([seed, 5])
    splits = ("regular",) + tuple(f"perturbed-{s}" for s in SCOPES)
    lines = []
    for lang in languages:
        for sparsity in SPARSITY_LEVELS:
            for strategy in STRATEGIES:
                for s in seeds:
                    for split in splits:
                        gold = int(rng.integers(200, 2000))
                        tp = int(rng.integers(0, gold + 1))
                        fp = int(rng.integers(0, gold // 2 + 1))
                        fn = gold - tp
                        p = tp / (tp + fp) if tp + fp else 0.0
                        r = tp / gold
                        f1 = 2 * p * r / (p + r) if p + r else 0.0
                        lines.append(json.dumps({
                            "language": lang, "sparsity": sparsity,
                            "strategy": strategy, "seed": s, "split": split,
                            "tp": tp, "fp": fp, "fn": fn,
                            "precision": p, "recall": r, "f1": f1,
                        }, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)
