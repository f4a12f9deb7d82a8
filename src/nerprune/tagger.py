"""Window-based feed-forward tagger with manual backpropagation.

Each token is classified from the concatenated embeddings of a context
window around it: one hidden ReLU layer, then a linear layer over the
tagset. Everything runs in float64, gradients are derived by hand, and
updates are plain SGD so training composes cleanly with the masking
pass that runs after every step.

Parameter roles: the embedding table E prunes only under the strategy
that includes embeddings, the two weight matrices W1 and W2 always
prune, the biases b1 and b2 never do.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import TAGSET, Corpus, Sentence, read_json_object
from .errors import CheckpointError, ConfigError, DivergenceError, ScheduleError
from .pruning import (
    ParamTensor,
    PruneSchedule,
    PruneStrategy,
    Role,
    apply_masks,
    compute_masks,
    load_checkpoint,
    measure_sparsity,
    save_checkpoint,
    schedule_events,
)

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
UNK_ID = 0
PAD_ID = 1

MODEL_SIDECAR = "model.json"

# sentences per forward pass in predict_ids
PREDICT_CHUNK = 64


def require_int(name: str, value) -> None:
    """The rule for every integer config value: an int and not a bool,
    so 2.5, "2" and true are rejected rather than coerced."""
    if type(value) is bool or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TaggerConfig:
    embed_dim: int = 32
    window: int = 1
    hidden_dim: int = 64
    learning_rate: float = 7e-5
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0
    vocab_min_count: int = 1

    def __post_init__(self):
        for field in fields(self):
            if field.type == "int":
                require_int(field.name, getattr(self, field.name))
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be >= 1")
        if self.window < 0:
            raise ConfigError("window must be >= 0")
        lr = self.learning_rate
        # NaN fails both comparisons; an int too large for a float fails
        # the second instead of overflowing in the first update
        if (type(lr) is bool or not isinstance(lr, numbers.Real)
                or not 0 < lr <= sys.float_info.max):
            raise ConfigError(
                f"learning_rate must be a finite positive number, got {lr!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.vocab_min_count < 1:
            raise ConfigError("vocab_min_count must be >= 1")


@dataclass
class TaggerModel:
    config: TaggerConfig
    vocab: dict[str, int]
    tagset: tuple[str, ...]
    params: dict[str, ParamTensor]

    @property
    def param_list(self) -> list[ParamTensor]:
        return [self.params[name] for name in ("E", "W1", "b1", "W2", "b2")]


@dataclass(frozen=True)
class TrainStep:
    """Per-update training history entry.

    max_abs_masked is the largest magnitude among masked weights right
    after the update's masking pass; it must stay exactly 0 throughout.
    """

    step: int
    loss: float
    sparsity: float
    max_abs_masked: float


def build_vocab(
    data: Corpus | Sequence[Corpus], min_count: int = 1
) -> dict[str, int]:
    """Token vocabulary with reserved ids 0 (<unk>) and 1 (<pad>).

    Tokens occurring at least min_count times are kept, ordered by
    descending frequency then lexicographically, with ids from 2.
    """
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    corpora = [data] if isinstance(data, Corpus) else data
    counts = Counter(chain.from_iterable(c.tokens for c in corpora))
    counts.pop(UNK_TOKEN, None)
    counts.pop(PAD_TOKEN, None)
    kept = sorted(token for token, count in counts.items() if count >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay sorted
    vocab = {UNK_TOKEN: UNK_ID, PAD_TOKEN: PAD_ID}
    vocab.update(zip(kept, range(2, len(kept) + 2)))
    return vocab


def _param_shapes(config: TaggerConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of each tensor of a model with config over vocab_size tokens."""
    d, h, t = config.embed_dim, config.hidden_dim, len(TAGSET)
    return {
        "E": (vocab_size, d),
        "W1": ((2 * config.window + 1) * d, h),
        "b1": (h,),
        "W2": (h, t),
        "b2": (t,),
    }


def _check_vocab(vocab: Mapping[str, int]) -> None:
    """The rule for every vocab: <unk> is 0, <pad> is 1 and the ids are
    the contiguous range from 0; a ConfigError names the broken part."""
    if vocab.get(UNK_TOKEN) != UNK_ID or vocab.get(PAD_TOKEN) != PAD_ID:
        raise ConfigError("vocab must map <unk> to 0 and <pad> to 1")
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise ConfigError("vocab ids must be a contiguous range from 0")


def init_model(config: TaggerConfig, vocab: dict[str, int]) -> TaggerModel:
    """Initialize weights uniformly in [-0.1, 0.1], biases at zero.

    Draw order is fixed (E, then W1, then W2) so a seed pins the exact
    parameter values.
    """
    _check_vocab(vocab)
    rng = np.random.default_rng(config.seed)
    shapes = _param_shapes(config, len(vocab))
    params = {
        "E": ParamTensor("E", rng.uniform(-0.1, 0.1, shapes["E"]), Role.EMBEDDING),
        "W1": ParamTensor("W1", rng.uniform(-0.1, 0.1, shapes["W1"]), Role.DENSE),
        "b1": ParamTensor("b1", np.zeros(shapes["b1"]), Role.EXCLUDED),
        "W2": ParamTensor("W2", rng.uniform(-0.1, 0.1, shapes["W2"]), Role.DENSE),
        "b2": ParamTensor("b2", np.zeros(shapes["b2"]), Role.EXCLUDED),
    }
    return TaggerModel(config, dict(vocab), TAGSET, params)


class Encoded(NamedTuple):
    """Sentences laid end to end: window token ids (N, 2w+1), gold tag
    ids (N,) and offsets (sentences + 1,); sentence i owns rows
    offsets[i]:offsets[i + 1]. vocab and window are those the ids were
    encoded with, so that train can check them."""

    ids: np.ndarray
    tags: np.ndarray
    offsets: np.ndarray
    vocab: Mapping[str, int]
    window: int


def encode_windows(
    vocab: Mapping[str, int], window: int, data: Corpus | Sequence[Corpus]
) -> Encoded:
    """Encode the sentences of data's corpora, laid end to end, against
    a vocab in one vectorised pass.

    Out-of-vocabulary tokens map to <unk>, positions beyond the edge of
    a token's own sentence to <pad>.
    """
    w = window
    corpora = [data] if isinstance(data, Corpus) else data
    empty = np.zeros(0, dtype=np.int64)
    lengths = np.concatenate([empty, *(np.diff(c.offsets) for c in corpora)])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    tags = np.concatenate([empty, *(c.tag_ids for c in corpora)])
    n = int(offsets[-1])
    tokens = chain.from_iterable(c.tokens for c in corpora)
    flat = np.fromiter(map(vocab.get, tokens, repeat(UNK_ID)), dtype=np.int64, count=n)
    position = np.arange(n) - np.repeat(offsets[:-1], lengths)
    length = np.repeat(lengths, lengths)
    padded = np.concatenate((np.full(w, PAD_ID), flat, np.full(w, PAD_ID)))
    ids = np.empty((n, 2 * w + 1), dtype=np.int64)
    for j in range(2 * w + 1):
        source = position + (j - w)
        inside = (source >= 0) & (source < length)
        ids[:, j] = np.where(inside, padded[j:j + n], PAD_ID)
    return Encoded(ids, tags, offsets, vocab, window)


def encode_sentence(
    model: TaggerModel, sentence: Sentence
) -> tuple[np.ndarray, np.ndarray]:
    """Window token ids (n, 2w+1) and gold tag ids (n,) for one sentence."""
    corpus = Corpus((sentence,), sentence.language, "test")
    return encode_windows(model.vocab, model.config.window, corpus)[:2]


def _forward(params: dict[str, ParamTensor],
             ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass on window ids (n, k): the gathered embeddings x (n,
    k * embed_dim), the hidden activations h (n, hidden_dim) and the
    scores (n, n_tags). The ReLU runs in place, so h <= 0.0 holds exactly
    where its input did: np.maximum gives +-0.0 there and keeps NaN."""
    e = params["E"].values
    n, k = ids.shape
    x = e.take(ids.reshape(-1), axis=0).reshape(n, k * e.shape[1])
    h = x @ params["W1"].values
    h += params["b1"].values
    np.maximum(h, 0.0, out=h)
    scores = h @ params["W2"].values
    scores += params["b2"].values
    return x, h, scores


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-softmax over each row of scores, computed in place in scores."""
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    scores -= np.log(np.add.reduce(np.exp(scores), axis=1, keepdims=True))
    return scores


def _flat_picks(tags: np.ndarray, n_tags: int) -> np.ndarray:
    """Positions of row i's entry tags[i] in a C-ordered (len(tags),
    n_tags) array's flat layout: one index array in place of the tuple
    (arange(n), tags), which numpy indexes more slowly."""
    return np.arange(len(tags)) * n_tags + tags


def _zero_dead(gh: np.ndarray, z1: np.ndarray) -> None:
    """gh[z1 <= 0.0] = 0.0, in place, as one bitwise AND of gh's bits:
    the mask is 0 where z1 <= 0.0 and all ones elsewhere, so dead
    entries become exactly +0.0 (whatever gh held, NaN and inf too) and
    the rest keep their bits. A boolean-mask store over entries of
    random sign costs several times more; gh *= z1 > 0 would leave -0.0
    for a negative gh."""
    keep = (z1 <= 0.0).astype(np.int64)
    keep -= 1
    bits = gh.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)


def _embedding_grad(slot: np.ndarray, n_rows: int, gx: np.ndarray) -> np.ndarray:
    """Per embedding row a batch reads, the sum of its gx rows; entry i of
    gx belongs to row slot[i]. bincount adds each row's terms in input
    order from 0.0, as np.add.at into a zeroed table does, so the bits are
    the same. Entry (i, j) of gx goes to bin slot[i] * d + j: the bins of
    each row are gathered from one arange, which costs less than
    broadcasting slot[:, None] * d + arange(d)."""
    d = gx.shape[1]
    bins = np.arange(n_rows * d).reshape(n_rows, d).take(slot, axis=0)
    grad = np.bincount(bins.reshape(-1), weights=gx.reshape(-1), minlength=n_rows * d)
    return grad.reshape(n_rows, d)


def _plan_rows(ids: np.ndarray, batch_bounds: Sequence[int],
               vocab_size: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Each batch's embedding rows, planned for a whole epoch of window
    ids (N, k) whose batch b is window rows a:c, with a = batch_bounds[b]
    and c = batch_bounds[b + 1]. Returns (rows, first, slots): batch b
    reads rows[first[b]:first[b + 1]] (sorted, unique), and
    slots[k * a:k * c] holds the position among them of each of its ids
    in row-major order. One np.unique over the keys batch * vocab_size +
    id gives them all; keys sort by batch first, so each batch's rows and
    slots are those np.unique gives for the batch alone."""
    k = ids.shape[1]
    n_batches = len(batch_bounds) - 1
    batch = np.repeat(np.arange(n_batches), np.diff(batch_bounds) * k)
    keys, inverse = np.unique(batch * vocab_size + ids.reshape(-1),
                              return_inverse=True)
    first = np.searchsorted(keys, np.arange(n_batches + 1) * vocab_size)
    return keys % vocab_size, first.tolist(), inverse - first[batch]


DENSE = ("W1", "b1", "W2", "b2")


def _flat_views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of flat with the given shapes."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)]


def _flatten_dense(params: dict[str, ParamTensor]) -> tuple[np.ndarray, np.ndarray]:
    """Rebind the values and masks of the DENSE tensors as views of one
    flat values array and one flat mask array, which are returned."""
    tensors = [params[name] for name in DENSE]
    shapes = [t.shape for t in tensors]
    values = np.concatenate([t.values.reshape(-1) for t in tensors])
    mask = np.concatenate([t.mask.reshape(-1) for t in tensors])
    for tensor, v, m in zip(tensors, _flat_views(values, shapes), _flat_views(mask, shapes)):
        tensor.values, tensor.mask = v, m
    return values, mask


def _batch_loss_grads(
    params: dict[str, ParamTensor], ids: np.ndarray, tags: np.ndarray,
    rows: np.ndarray, slot: np.ndarray, grads: Mapping[str, np.ndarray],
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch tokens and the gradient of the
    embedding rows the batch reads, which are rows (sorted, unique) with
    entry i of ids.reshape(-1) at rows[slot[i]]: shape (rows, embed_dim),
    from _embedding_grad. The DENSE gradients are written into grads,
    arrays of their tensors' shapes.
    """
    w1, w2 = params["W1"].values, params["W2"].values
    n, k = ids.shape
    x, h, scores = _forward(params, ids)
    logp = _log_softmax(scores)
    picked = _flat_picks(tags, logp.shape[1])
    # the bits of -logp[arange(n), tags].mean(), without its wrapper's cost
    loss = float(-(logp.take(picked).sum() / n))

    g = np.exp(logp)
    g.reshape(-1)[picked] -= 1.0
    g /= n

    np.matmul(h.T, g, out=grads["W2"])
    np.add.reduce(g, axis=0, out=grads["b2"])
    gh = g @ w2.T
    _zero_dead(gh, h)
    np.matmul(x.T, gh, out=grads["W1"])
    np.add.reduce(gh, axis=0, out=grads["b1"])
    gx = (gh @ w1.T).reshape(n * k, -1)
    return loss, _embedding_grad(slot, rows.size, gx)


def train(
    model: TaggerModel,
    train_data: Corpus | Sequence[Corpus] | Encoded,
    schedule: PruneSchedule | None = None,
    strategy: PruneStrategy = PruneStrategy.PARTIAL,
    ramp: str = "cubic",
) -> tuple[TaggerModel, list[TrainStep]]:
    """SGD training with an optional in-loop pruning schedule.

    Sentence order is reshuffled every epoch from the config seed. At a
    schedule event step the masking pass runs before that step's update,
    and masks are re-applied after every update so masked weights stay
    exactly zero. A schedule whose end_step exceeds the total number of
    updates is rejected up front. Training stops with DivergenceError at
    the first step whose loss is not finite or that leaves NaN in a
    masked weight. Training data without sentences is a ConfigError.
    train_data may come encoded by encode_windows with the model's vocab
    and window, so models that share them encode it once.

    A step's cost scales with the batch, not the vocabulary: it updates,
    re-masks and re-checks only the embedding rows its batch reads (with
    one gather and one scatter while E holds a masked entry), and
    sparsity is measured only when masks change. The first step and
    event steps make a full pass over every tensor. Fixed costs are few:
    batches are slices of one gather per epoch, each batch's embedding
    rows are slices of one _plan_rows per epoch, and the embedding
    gradient is one bincount. The dense tensors W1, b1, W2 and b2 are
    rebound as views of one flat values array and one flat mask array
    (arrays read from them before the call no longer follow the model),
    so a step updates and (only while one holds a masked weight)
    re-masks them in one call each. The masked-weight check scans only
    what the step re-masked, and only for NaN (see _max_abs_masked);
    with no masked weight anywhere it is skipped.
    """
    config = model.config
    if not isinstance(train_data, Encoded):
        train_data = encode_windows(model.vocab, config.window, train_data)
    elif train_data.window != config.window or train_data.vocab != model.vocab:
        raise ConfigError("training arrays were encoded with another vocab or window")
    if len(train_data.offsets) == 1:
        raise ConfigError("training data has no sentences")
    offsets = train_data.offsets
    n_sentences = len(offsets) - 1
    n_batches = math.ceil(n_sentences / config.batch_size)
    total_steps = config.epochs * n_batches
    if schedule is not None and schedule.end_step > total_steps:
        raise ScheduleError(
            f"schedule ends at step {schedule.end_step} but training "
            f"runs {total_steps} updates"
        )
    events = schedule_events(schedule, ramp) if schedule is not None else []

    rng = np.random.default_rng([config.seed, 1])
    params = model.params
    tensors = model.param_list
    emb = params["E"]
    # the dense tensors' values and masks become views of one flat array
    # each, and their gradients views of one flat gradient, so a step
    # updates, re-masks and checks all four in one call each
    dense, dense_mask = _flatten_dense(params)
    dense_grad = np.empty_like(dense)
    grads = dict(zip(DENSE, _flat_views(dense_grad, [params[n].shape for n in DENSE])))
    k = train_data.ids.shape[1]
    lr = config.learning_rate
    history: list[TrainStep] = []
    step = 0
    ev = 0
    for _ in range(config.epochs):
        # the epoch's rows in shuffled sentence order, gathered at once;
        # batch b is rows bounds[b]:bounds[b + 1]
        order = rng.permutation(n_sentences)
        lengths = np.diff(offsets)[order]
        ends = np.cumsum(lengths)
        gather = np.repeat(offsets[order] - ends + lengths, lengths) + np.arange(ends[-1])
        epoch_ids, epoch_tags = train_data.ids[gather], train_data.tags[gather]
        firsts = np.minimum(np.arange(n_batches + 1) * config.batch_size, n_sentences)
        bounds = np.concatenate(([0], ends))[firsts]
        plan_rows, plan_first, slots = _plan_rows(epoch_ids, bounds, emb.shape[0])
        bounds = bounds.tolist()
        for b in range(n_batches):
            step += 1
            full_pass = step == 1
            while ev < len(events) and events[ev][0] <= step:
                compute_masks(tensors, events[ev][1], strategy)
                ev += 1
                full_pass = True
            start, stop = bounds[b], bounds[b + 1]
            # the (values, mask) pairs this step re-masks, to be checked
            checked = []
            if start == stop:
                loss = 0.0
            else:
                rows = plan_rows[plan_first[b]:plan_first[b + 1]]
                loss, grad_rows = _batch_loss_grads(
                    params, epoch_ids[start:stop], epoch_tags[start:stop],
                    rows, slots[k * start:k * stop], grads)
                # update (and re-mask) E's rows in one gather and one
                # scatter, in place in grad_rows
                grad_rows *= lr
                new_rows = np.subtract(emb.values.take(rows, axis=0), grad_rows,
                                       out=grad_rows)
                if not full_pass and emb_masked:
                    mask_rows = emb.mask.take(rows, axis=0)
                    new_rows *= mask_rows
                    checked.append((new_rows, mask_rows))
                emb.values[rows] = new_rows
                dense_grad *= lr
                dense -= dense_grad
            if full_pass:
                apply_masks(tensors)
                sparsity = measure_sparsity(tensors, strategy)
                # until masks change, the dense tensors and E's rows need
                # re-masking and checking only while they hold a masked weight
                dense_masked = not dense_mask.all()
                emb_masked = not emb.mask.all()
                checked = [(dense, dense_mask), (emb.values, emb.mask)]
            elif dense_masked:
                dense *= dense_mask
                checked.append((dense, dense_mask))
            worst = _max_abs_masked(*checked)
            if not math.isfinite(loss) or math.isnan(worst):
                raise DivergenceError(
                    f"training diverged at step {step}: loss {loss}, "
                    f"largest masked magnitude {worst}"
                )
            history.append(TrainStep(
                step=step,
                loss=loss,
                sparsity=sparsity,
                max_abs_masked=worst,
            ))
    return model, history


def _max_abs_masked(*checked: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest magnitude among the masked entries of (values, mask) pairs
    re-masked as values * mask, 0.0 for no pairs. A masked entry is then
    v * 0, +-0 unless NaN, so values are scanned for NaN and the exact
    maximum is taken only for an array that holds one."""
    worst = 0.0
    for values, mask in checked:
        if np.isnan(values).any():
            worst = np.maximum(worst, np.abs(values[mask == 0]).max(initial=0.0))
    return float(worst)


def predict_ids(model: TaggerModel, encoded: Encoded) -> np.ndarray:
    """Most likely tag id per row of sentences encoded with the model's
    vocab and window; ties resolve to the lowest id, which puts O first.

    Sentences are scored PREDICT_CHUNK at a time, which bounds the size
    of the hidden and score arrays.
    """
    ids, offsets = encoded.ids, encoded.offsets
    best = np.empty(len(ids), dtype=np.int64)
    n_sentences = len(offsets) - 1
    for begin in range(0, n_sentences, PREDICT_CHUNK):
        a = offsets[begin]
        b = offsets[min(begin + PREDICT_CHUNK, n_sentences)]
        best[a:b] = _forward(model.params, ids[a:b])[2].argmax(axis=1)
    return best


def predict(model: TaggerModel, corpus: Corpus) -> list[list[str]]:
    """Most likely tag per token, from predict_ids."""
    encoded = encode_windows(model.vocab, model.config.window, corpus)
    labels = [model.tagset[i] for i in predict_ids(model, encoded).tolist()]
    bounds = encoded.offsets.tolist()
    return [labels[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def grad_check(
    model: TaggerModel,
    sentence: Sentence,
    epsilon: float = 1e-5,
    samples_per_tensor: int = 100,
    seed: int = 0,
) -> float | None:
    """Largest relative error of analytic vs central-difference gradients.

    Samples at least samples_per_tensor coordinates per tensor (all of
    them for small tensors). Returns None for a zero-loss sentence where
    there is nothing to check. Weights are restored exactly afterwards.
    The analytic gradients come from the batch step train runs, on the
    sentence's rows as _plan_rows plans them.
    """
    if len(sentence) == 0:
        return None
    ids, tags = encode_sentence(model, sentence)
    rows, _, slot = _plan_rows(ids, [0, len(ids)], len(model.vocab))
    grads = {name: np.empty(model.params[name].shape) for name in DENSE}
    loss0, grad_rows = _batch_loss_grads(model.params, ids, tags, rows, slot, grads)
    if loss0 == 0.0:
        return None
    grads["E"] = np.zeros_like(model.params["E"].values)
    grads["E"][rows] = grad_rows
    # the probes below write their DENSE gradients into a scratch set
    batch = (ids, tags, rows, slot, {name: np.empty_like(grads[name]) for name in DENSE})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in ("E", "W1", "b1", "W2", "b2"):
        tensor = model.params[name]
        size = tensor.size
        if size <= samples_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=samples_per_tensor, replace=False)
        grad_flat = grads[name].reshape(-1)
        for i in coords:
            original = tensor.values.flat[i]
            tensor.values.flat[i] = original + epsilon
            plus = _batch_loss_grads(model.params, *batch)[0]
            tensor.values.flat[i] = original - epsilon
            minus = _batch_loss_grads(model.params, *batch)[0]
            tensor.values.flat[i] = original
            fd = (plus - minus) / (2.0 * epsilon)
            analytic = grad_flat[i]
            err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


def save_model(directory: str | Path, model: TaggerModel) -> Path:
    """Checkpoint plus a JSON sidecar with config, tagset and vocab."""
    directory = Path(directory)
    save_checkpoint(directory, model.param_list)
    tokens = sorted(model.vocab, key=model.vocab.__getitem__)
    sidecar = {
        "config": asdict(model.config),
        "tagset": list(model.tagset),
        "vocab_tokens": None,
    }
    # the bytes json.dump(indent=2, sort_keys=True) writes, but the token
    # list (sorted last) is joined from the C string encoder's output
    text = json.dumps(sidecar, indent=2, sort_keys=True).removesuffix("null\n}")
    listed = ",\n    ".join(map(json.encoder.encode_basestring_ascii, tokens))
    (directory / MODEL_SIDECAR).write_text(
        f"{text}[\n    {listed}\n  ]\n}}\n", encoding="utf-8")
    return directory


def load_model(directory: str | Path) -> TaggerModel:
    directory = Path(directory)
    sidecar_path = directory / MODEL_SIDECAR
    if not sidecar_path.is_file():
        raise CheckpointError(f"{sidecar_path}: no model sidecar")
    sidecar = read_json_object(sidecar_path, "model sidecar", CheckpointError)
    tokens = sidecar.get("vocab_tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"{sidecar_path}: vocab_tokens must be a list of strings")
    try:
        config = TaggerConfig(**sidecar["config"])
        tagset = tuple(sidecar["tagset"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(
            f"{sidecar_path}: malformed model sidecar: {exc!r}"
        ) from None
    vocab = {token: idx for idx, token in enumerate(tokens)}
    if tagset != TAGSET:
        raise CheckpointError(f"{sidecar_path}: unsupported tagset {tagset}")
    try:
        _check_vocab(vocab)
    except ConfigError as exc:
        raise CheckpointError(f"{sidecar_path}: {exc}") from None
    params_list, _ = load_checkpoint(directory)
    params = {p.name: p for p in params_list}
    shapes = _param_shapes(config, len(vocab))
    if set(params) != set(shapes):
        raise CheckpointError(
            f"checkpoint tensors {sorted(params)} do not match {sorted(shapes)}"
        )
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"{name} shape {params[name].shape} does not match the "
                f"{shape} of its vocab and config"
            )
    return TaggerModel(config, vocab, tagset, params)
