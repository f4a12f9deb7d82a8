"""Independent re-derivations used to cross-check the package.

Everything here is written down a different route than the library:
span decoding via an explicit start predicate, scoring via greedy
per-mention matching, rank correlation via quadratic pair counting,
mask selection via a full three-key sort and training via a dense step
that updates, re-masks and re-checks every tensor in full. Slow and
obvious on purpose.
"""

import math

import numpy as np

from nerprune.pruning import _target_count, apply_masks, measure_sparsity, schedule_events
from nerprune.tagger import TrainStep, _log_softmax, _sentences, encode_sentence


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


def oracle_compute_masks(params, sparsity, strategy, scope="global"):
    prunable = sorted(
        (p for p in params if p.role in strategy.prunable_roles),
        key=lambda p: p.name,
    )
    groups = [[p] for p in prunable] if scope == "per_tensor" else [prunable]
    for group in groups:
        oracle_mask_group(group, sparsity)


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
    grad_e = np.zeros_like(e)
    np.add.at(grad_e, ids.reshape(-1), (gh @ w1.T).reshape(n * k, d))
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
    sentences = _sentences(train_data)
    n_batches = math.ceil(len(sentences) / config.batch_size)
    events = schedule_events(schedule, ramp) if schedule is not None else []
    encoded = [encode_sentence(model, s) for s in sentences]
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
