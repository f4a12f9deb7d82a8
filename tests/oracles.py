"""Independent re-derivations used to cross-check the package.

Everything here is written down a different route than the library:
span decoding via an explicit start predicate, scoring via greedy
per-mention matching or per-sentence span sets, rank correlation via quadratic pair counting,
mask selection via a full three-key sort, training via a dense step
that updates, re-masks and re-checks every tensor in full (its
embedding gradient through np.add.at into a full-size table), window
encoding via a per-position loop, prediction one sentence at a time,
pools sentence by sentence into lists,
perturbation by drawing from a freshly built candidate list, IOB2
parsing by walking the lines of a universal-newline text stream into
one Sentence per sentence, results files by decoding and checking one
record per line against every earlier one, and the report by grouping
every seed-mean under each dimension and computing each statistic on its
own, with sums as plain loops. Slow and obvious on purpose.
"""

import csv
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nerprune.corpus import (
    ENTITY_TYPES,
    TAGSET,
    VALID_TAGS,
    Corpus,
    Sentence,
    encode_tags,
)
from nerprune.analysis import (
    ALL_GROUP,
    GroupDimension,
    relative_delta,
    robustness_ratio,
)
from nerprune.errors import (
    AlignmentError,
    ConfigError,
    MetadataError,
    MissingMetadataError,
    ParseError,
    TagError,
)
from nerprune.evaluation import STRATEGY_NAMES, RunRecord, ScoreReport
from nerprune.perturb import ReplacementRecord
from nerprune.pruning import _target_count, apply_masks, measure_sparsity, schedule_events
from nerprune.tagger import PAD_ID, UNK_ID, TrainStep, _forward, _log_softmax


def oracle_spans(tags):
    """Lenient span decoding from a start predicate, O(n^2)-ish."""

    def starts(i):
        tag = tags[i]
        if tag == "O":
            return False
        prefix, etype = tag.split("-")
        if prefix == "B":
            return True
        if i == 0 or tags[i - 1] == "O":
            return True
        return tags[i - 1].split("-")[1] != etype

    spans = []
    i = 0
    while i < len(tags):
        if starts(i):
            etype = tags[i].split("-")[1]
            j = i + 1
            while j < len(tags) and tags[j] == f"I-{etype}":
                j += 1
            spans.append((i, j, etype))
            i = j
        else:
            i += 1
    return spans


def oracle_build_pool(corpora, meta, scope, group_key):
    """Pool surfaces per type of the group's corpora, sentence by sentence
    through oracle_spans, each kept at its first occurrence."""
    by_type = {}
    for corpus in corpora:
        if scope.group_key(meta[corpus.language]) != group_key:
            continue
        for sentence in corpus:
            for start, end, etype in oracle_spans(sentence.tags):
                surfaces = by_type.setdefault(etype, [])
                if sentence.tokens[start:end] not in surfaces:
                    surfaces.append(sentence.tokens[start:end])
    return {etype: tuple(surfaces) for etype, surfaces in by_type.items()}


def oracle_counts(gold_rows, pred_rows):
    """(tp, fp, fn) by greedy matching of each predicted mention."""
    tp = fp = fn = 0
    for gold_tags, pred_tags in zip(gold_rows, pred_rows):
        gold = oracle_spans(gold_tags)
        used = [False] * len(gold)
        for span in oracle_spans(pred_tags):
            hit = False
            for k, g in enumerate(gold):
                if not used[k] and g == span:
                    used[k] = True
                    hit = True
                    break
            if hit:
                tp += 1
            else:
                fp += 1
        fn += used.count(False)
    return tp, fp, fn


def oracle_score_corpus(gold, predicted):
    """ScoreReport from decoding each sentence's gold and predicted tags
    as strings and intersecting their span sets."""
    if len(predicted) != len(gold.sentences):
        raise AlignmentError(
            f"{len(predicted)} predictions for {len(gold.sentences)} sentences"
        )
    per_type = {etype: [0, 0, 0] for etype in ENTITY_TYPES}
    for idx, (sent, tags) in enumerate(zip(gold.sentences, predicted)):
        if len(tags) != len(sent):
            raise AlignmentError(
                f"sentence {idx}: {len(tags)} predicted tags "
                f"for {len(sent)} tokens"
            )
        for tag in tags:
            if tag not in VALID_TAGS:
                raise TagError(f"sentence {idx}: unknown predicted tag {tag!r}")
        gold_spans = set(oracle_spans(sent.tags))
        pred_spans = set(oracle_spans(tags))
        for span in pred_spans:
            bucket = per_type[span[2]]
            if span in gold_spans:
                bucket[0] += 1
            else:
                bucket[1] += 1
        for span in gold_spans - pred_spans:
            per_type[span[2]][2] += 1
    return ScoreReport.from_counts(
        {etype: tuple(counts) for etype, counts in per_type.items()}
    )


def oracle_tau(xs, ys, tie_correction=True):
    """Rank correlation by examining every pair once."""
    n = len(xs)
    n0 = n * (n - 1) // 2
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx and dy:
                if dx == dy:
                    concordant += 1
                else:
                    discordant += 1
    numerator = concordant - discordant
    if tie_correction:
        denominator_sq = (n0 - tied_x) * (n0 - tied_y)
        if denominator_sq == 0:
            return None
        return numerator / math.sqrt(denominator_sq)
    if tied_x == n0 or tied_y == n0:
        return None
    return numerator / n0


def oracle_mask_group(tensors, sparsity):
    """Mask the extra weights by sorting every live weight on (magnitude,
    name rank, flat index); NaN magnitudes sort last."""
    n = sum(t.size for t in tensors)
    masked = sum(int((t.mask == 0).sum()) for t in tensors)
    extra = _target_count(sparsity, n) - masked
    mags, owner, flat_idx = [], [], []
    for rank, tensor in enumerate(tensors):
        idx = np.nonzero(tensor.mask.reshape(-1) == 1)[0]
        mags.append(np.abs(tensor.values.reshape(-1)[idx]))
        owner.append(np.full(idx.size, rank, dtype=np.int64))
        flat_idx.append(idx)
    mags = np.concatenate(mags)
    owner = np.concatenate(owner)
    flat_idx = np.concatenate(flat_idx)
    chosen = np.lexsort((flat_idx, owner, mags))[:extra]
    for rank, tensor in enumerate(tensors):
        tensor.mask.flat[flat_idx[chosen[owner[chosen] == rank]]] = 0


def oracle_compute_masks(params, sparsity, strategy):
    prunable = sorted(
        (p for p in params if p.role in strategy.prunable_roles),
        key=lambda p: p.name,
    )
    oracle_mask_group(prunable, sparsity)


def oracle_embedding_grad(flat_ids, gx, vocab_size):
    """Full-size embedding gradient: row i of gx added into row
    flat_ids[i] of a zeroed (vocab_size, d) table, with np.add.at."""
    grad = np.zeros((vocab_size, gx.shape[1]))
    np.add.at(grad, flat_ids, gx)
    return grad


def _dense_loss_grads(params, ids, tags):
    """Batch loss and full-size gradients; E's via add.at into zeros."""
    e = params["E"].values
    w1, b1 = params["W1"].values, params["b1"].values
    w2, b2 = params["W2"].values, params["b2"].values
    n, k = ids.shape
    d = e.shape[1]
    x = e[ids.reshape(-1)].reshape(n, k * d)
    z1 = x @ w1 + b1
    h = np.maximum(z1, 0.0)
    logp = _log_softmax(h @ w2 + b2)
    loss = float(-logp[np.arange(n), tags].mean())
    g = np.exp(logp)
    g[np.arange(n), tags] -= 1.0
    g /= n
    gh = g @ w2.T
    gh[z1 <= 0.0] = 0.0
    grad_e = oracle_embedding_grad(ids.reshape(-1), (gh @ w1.T).reshape(n * k, d), len(e))
    return loss, {
        "E": grad_e, "W1": x.T @ gh, "b1": gh.sum(axis=0),
        "W2": h.T @ g, "b2": g.sum(axis=0),
    }


def _dense_max_abs_masked(tensors):
    maxima = [np.abs(t.values[t.mask == 0]).max(initial=0.0) for t in tensors]
    return float(np.max(maxima))


def oracle_train(model, train_data, schedule, strategy, ramp="cubic"):
    """Pruned SGD where every step updates, re-masks, measures and
    re-checks every tensor in full; returns the TrainStep history."""
    config = model.config
    corpora = [train_data] if isinstance(train_data, Corpus) else train_data
    sentences = [s for corpus in corpora for s in corpus]
    n_batches = math.ceil(len(sentences) / config.batch_size)
    events = schedule_events(schedule, ramp) if schedule is not None else []
    encoded = [oracle_encode_sentence(model, s) for s in sentences]
    rng = np.random.default_rng([config.seed, 1])
    tensors = model.param_list
    history = []
    step = ev = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(sentences))
        for b in range(n_batches):
            step += 1
            while ev < len(events) and events[ev][0] <= step:
                oracle_compute_masks(tensors, events[ev][1], strategy)
                ev += 1
            chosen = order[b * config.batch_size:(b + 1) * config.batch_size]
            ids = np.concatenate([encoded[i][0] for i in chosen])
            tags = np.concatenate([encoded[i][1] for i in chosen])
            loss = 0.0
            if len(tags):
                loss, grads = _dense_loss_grads(model.params, ids, tags)
                for name, tensor in model.params.items():
                    tensor.values -= config.learning_rate * grads[name]
            apply_masks(tensors)
            history.append(TrainStep(
                step, loss, measure_sparsity(tensors, strategy),
                _dense_max_abs_masked(tensors),
            ))
    return history


def oracle_encode_sentence(model, sentence):
    """Window ids (n, 2w+1) and tag ids (n,) filled one position at a time."""
    w = model.config.window
    n = len(sentence)
    token_ids = [model.vocab.get(token, UNK_ID) for token in sentence.tokens]
    ids = np.full((n, 2 * w + 1), PAD_ID, dtype=np.int64)
    for i in range(n):
        for j, pos in enumerate(range(i - w, i + w + 1)):
            if 0 <= pos < n:
                ids[i, j] = token_ids[pos]
    tags = np.array([TAGSET.index(tag) for tag in sentence.tags], dtype=np.int64)
    return ids, tags


def oracle_predict(model, corpus):
    """Labels from one forward pass per sentence."""
    out = []
    for sentence in corpus:
        if len(sentence) == 0:
            out.append([])
            continue
        scores = _forward(model.params, oracle_encode_sentence(model, sentence)[0])[2]
        out.append([model.tagset[i] for i in scores.argmax(axis=1)])
    return out


def oracle_perturb_corpus(corpus, pool, seed):
    """Each mention draws from the list of its type's pool surfaces
    without its own surface, rebuilt for every mention."""
    rng = np.random.default_rng(seed)
    sentences, records = [], []
    for index, sentence in enumerate(corpus):
        tokens, spans, cursor = [], [], 0
        for start, end, etype in oracle_spans(sentence.tags):
            surface = sentence.tokens[start:end]
            tokens.extend(sentence.tokens[cursor:start])
            candidates = [
                other for other in pool.by_type.get(etype, ()) if other != surface
            ]
            pick = surface
            if candidates:
                pick = candidates[int(rng.integers(len(candidates)))]
            draws = sum(r.replaced for r in records)
            records.append(ReplacementRecord(
                index, start, end, etype, surface, pick,
                draws if candidates else None, bool(candidates),
            ))
            spans.append((len(tokens), len(tokens) + len(pick), etype))
            tokens.extend(pick)
            cursor = end
        tokens.extend(sentence.tokens[cursor:])
        sentences.append(Sentence(
            tuple(tokens), encode_tags(len(tokens), spans), sentence.language))
    return Corpus(tuple(sentences), corpus.language, corpus.split), records


def oracle_parse_iob2(text, language, name="<iob2>"):
    """Sentences of an IOB2 text by the line-by-line walk: lines as a
    text file splits them (at \\n, \\r\\n and \\r), less one leading
    byte-order mark; whitespace-only lines end sentences; the first
    malformed line raises with its 1-based number."""
    sentences, tokens, tags = [], [], []

    def flush():
        if tokens:
            sentences.append(Sentence(tuple(tokens), tuple(tags), language))
            tokens.clear()
            tags.clear()

    lines = io.StringIO(text, newline=None).readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            flush()
            continue
        fields = line.split("\t") if "\t" in line else line.split(" ")
        if len(fields) != 2:
            raise ParseError(
                f"{name}:{lineno}: expected TOKEN<sep>TAG, "
                f"got {len(fields)} fields: {line!r}"
            )
        token, tag = fields
        if not token:
            raise ParseError(f"{name}:{lineno}: empty token")
        if tag not in VALID_TAGS:
            raise TagError(f"{name}:{lineno}: unknown tag {tag!r}")
        tokens.append(token)
        tags.append(tag)
    flush()
    return sentences


def oracle_read_run_records(path):
    """Records of a results file by the line walk: json.loads and
    RunRecord.from_json_dict on each non-blank line of the text file, the
    first bad line, or the first line that repeats an earlier record's
    (language, sparsity, strategy, seed, split), raising a ConfigError
    with its number."""
    records, lines = [], []
    lineno = 0
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if line:
                    record = RunRecord.from_json_dict(json.loads(line))
                    key = (record.language, record.sparsity, record.strategy,
                           record.seed, record.split)
                    for first, earlier in enumerate(records):
                        if key == (earlier.language, earlier.sparsity, earlier.strategy,
                                   earlier.seed, earlier.split):
                            raise ConfigError(
                                f"{path}:{lineno}: duplicate record of {key!r}, "
                                f"first at line {lines[first]}")
                    records.append(record)
                    lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except (ValueError, KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}:{lineno}: malformed results file: {detail}") from None
    return records


def _oracle_sum(values):
    """Values added in order from 0.0, by the plain loop that Python 3.11's
    sum() runs (3.12's sum() compensates, and rounds differently)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _oracle_stat(values, stat):
    n = len(values)
    if stat == "mean":
        return _oracle_sum(values) / n
    if stat == "median":
        ordered = sorted(values)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2
    if stat == "std":
        mean = _oracle_sum(values) / n
        return math.sqrt(_oracle_sum([(v - mean) ** 2 for v in values]) / n)
    raise ValueError(f"unknown stat {stat!r}")


class _SeedStats(NamedTuple):
    mean: float
    std: float
    n: int


def _oracle_aggregate_seeds(records):
    groups = {}
    for r in records:
        groups.setdefault((r.language, r.sparsity, r.strategy, r.split), []).append(
            r.report.f1)
    return {key: _SeedStats(_oracle_stat(values, "mean"), _oracle_stat(values, "std"),
                            len(values))
            for key, values in groups.items()}


def _oracle_grouped_f1(stats, meta, dim):
    """Seed-means per cell and group, each entry's group looked up anew."""
    missing = {lang for (lang, _, _, _) in stats if lang not in meta}
    if missing:
        raise MissingMetadataError(missing)
    cells, every = {}, {}
    for (lang, sparsity, strategy, split), entry in stats.items():
        group = dim.key(meta[lang])
        if group == ALL_GROUP:
            raise MetadataError(
                f"language {lang!r}: {dim.value} {ALL_GROUP!r} is reserved "
                "for the group of every language")
        cell_key = (sparsity, strategy, split)
        cells.setdefault(cell_key, {}).setdefault(group, []).append(entry.mean)
        every.setdefault(cell_key, []).append(entry.mean)
    for cell_key, values in every.items():
        cells[cell_key][ALL_GROUP] = values
    return cells


def _oracle_fmt(value):
    return "" if value is None else f"{value:.4f}"


def _oracle_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _oracle_pairs(stats, base_key):
    for key, entry in sorted(stats.items()):
        base = base_key(key)
        if base != key and base in stats:
            yield key, stats[base].mean, entry.mean


def oracle_emit_report(records, meta, out_dir, overlaps=None):
    """The report's files, with every statistic computed on its own and
    the seed-means sorted again for each table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = _oracle_fmt
    aggregated = _oracle_aggregate_seeds(records)
    grouped = {dim: _oracle_grouped_f1(aggregated, meta, dim) for dim in GroupDimension}
    written = []

    rows = [(*key, fmt(stats.mean), fmt(stats.std), stats.n)
            for key, stats in sorted(aggregated.items())]
    path = out_dir / "per_language.csv"
    _oracle_write_csv(path, ("language", "sparsity", "strategy", "split",
                             "mean_f1", "std_f1", "n_seeds"), rows)
    written.append(path)

    for dim, cells in grouped.items():
        rows = [
            (group_key, *cell_key,
             fmt(_oracle_stat(values, "mean")), fmt(_oracle_stat(values, "median")),
             fmt(_oracle_stat(values, "std")), len(values))
            for cell_key, groups in sorted(cells.items())
            for group_key, values in sorted(groups.items(), key=lambda kv: str(kv[0]))
        ]
        path = out_dir / f"by_{dim.value}.csv"
        _oracle_write_csv(path, ("group", "sparsity", "strategy", "split",
                                 "mean_f1", "median_f1", "std_f1", "n_languages"), rows)
        written.append(path)

    rows = [
        (*key, fmt(dense), fmt(sparse), fmt(sparse - dense),
         fmt(relative_delta(sparse, dense)))
        for key, dense, sparse in _oracle_pairs(
            aggregated, lambda key: (key[0], 0, key[2], key[3]))
    ]
    path = out_dir / "deltas.csv"
    _oracle_write_csv(path, ("language", "sparsity", "strategy", "split",
                             "dense_f1", "sparse_f1", "abs_delta", "rel_delta"), rows)
    written.append(path)

    rows = [
        (*key, fmt(regular), fmt(perturbed), fmt(robustness_ratio(perturbed, regular)))
        for key, regular, perturbed in _oracle_pairs(
            aggregated, lambda key: (key[0], key[1], key[2], "regular"))
    ]
    path = out_dir / "ratios.csv"
    _oracle_write_csv(path, ("language", "sparsity", "strategy", "split",
                             "regular_f1", "perturbed_f1", "ratio"), rows)
    written.append(path)

    if overlaps is not None:
        rows = []
        for lang in sorted(overlaps):
            dense = None
            for strategy in STRATEGY_NAMES:
                key = (lang, 0, strategy, "regular")
                if key in aggregated:
                    dense = aggregated[key].mean
                    break
            rows.append((lang, fmt(overlaps[lang]), fmt(dense)))
        path = out_dir / "overlap_f1.csv"
        _oracle_write_csv(path, ("language", "entity_overlap", "dense_f1"), rows)
        written.append(path)

    mean_f1 = {}
    for (sparsity, strategy, split), groups in grouped[GroupDimension.SIZE].items():
        mean_f1.setdefault(split, {}).setdefault(strategy, {})[str(sparsity)] = round(
            _oracle_stat(groups[ALL_GROUP], "mean"), 4)
    summary = {
        "n_records": len(records),
        "languages": sorted({r.language for r in records}),
        "sparsity_levels": sorted({r.sparsity for r in records}),
        "strategies": sorted({r.strategy for r in records}),
        "splits": sorted({r.split for r in records}),
        "mean_f1": mean_f1,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
