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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import TAGSET, Corpus, Sentence
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
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be >= 1")
        if self.window < 0:
            raise ConfigError("window must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
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


def _sentences(data: Corpus | Sequence[Corpus]) -> list[Sentence]:
    if isinstance(data, Corpus):
        return list(data.sentences)
    merged: list[Sentence] = []
    for corpus in data:
        merged.extend(corpus.sentences)
    return merged


def build_vocab(
    data: Corpus | Sequence[Corpus], min_count: int = 1
) -> dict[str, int]:
    """Token vocabulary with reserved ids 0 (<unk>) and 1 (<pad>).

    Tokens occurring at least min_count times are kept, ordered by
    descending frequency then lexicographically, with ids from 2.
    """
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    counts: dict[str, int] = {}
    for sent in _sentences(data):
        for token in sent.tokens:
            counts[token] = counts.get(token, 0) + 1
    vocab = {UNK_TOKEN: UNK_ID, PAD_TOKEN: PAD_ID}
    kept = [
        token for token, count in counts.items()
        if count >= min_count and token not in vocab
    ]
    kept.sort(key=lambda token: (-counts[token], token))
    for token in kept:
        vocab[token] = len(vocab)
    return vocab


def init_model(config: TaggerConfig, vocab: dict[str, int]) -> TaggerModel:
    """Initialize weights uniformly in [-0.1, 0.1], biases at zero.

    Draw order is fixed (E, then W1, then W2) so a seed pins the exact
    parameter values.
    """
    if vocab.get(UNK_TOKEN) != UNK_ID or vocab.get(PAD_TOKEN) != PAD_ID:
        raise ConfigError("vocab must map <unk> to 0 and <pad> to 1")
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise ConfigError("vocab ids must be a contiguous range from 0")
    rng = np.random.default_rng(config.seed)
    v = len(vocab)
    d, h = config.embed_dim, config.hidden_dim
    k = 2 * config.window + 1
    t = len(TAGSET)
    params = {
        "E": ParamTensor("E", rng.uniform(-0.1, 0.1, (v, d)), Role.EMBEDDING),
        "W1": ParamTensor("W1", rng.uniform(-0.1, 0.1, (k * d, h)), Role.DENSE),
        "b1": ParamTensor("b1", np.zeros(h), Role.EXCLUDED),
        "W2": ParamTensor("W2", rng.uniform(-0.1, 0.1, (h, t)), Role.DENSE),
        "b2": ParamTensor("b2", np.zeros(t), Role.EXCLUDED),
    }
    return TaggerModel(config, dict(vocab), TAGSET, params)


_TAG_TO_ID = {tag: i for i, tag in enumerate(TAGSET)}


def encode_sentence(
    model: TaggerModel, sentence: Sentence
) -> tuple[np.ndarray, np.ndarray]:
    """Window token ids (n, 2w+1) and gold tag ids (n,) for one sentence.

    Out-of-vocabulary tokens map to <unk>, positions beyond the sentence
    edge to <pad>.
    """
    w = model.config.window
    n = len(sentence)
    token_ids = [model.vocab.get(token, UNK_ID) for token in sentence.tokens]
    ids = np.full((n, 2 * w + 1), PAD_ID, dtype=np.int64)
    for i in range(n):
        for j, pos in enumerate(range(i - w, i + w + 1)):
            if 0 <= pos < n:
                ids[i, j] = token_ids[pos]
    tags = np.array([_TAG_TO_ID[tag] for tag in sentence.tags], dtype=np.int64)
    return ids, tags


def _scores(params: dict[str, ParamTensor], ids: np.ndarray) -> np.ndarray:
    """Forward pass on window ids, returns (n, n_tags) scores."""
    e = params["E"].values
    n, k = ids.shape
    x = e[ids.reshape(-1)].reshape(n, k * e.shape[1])
    z1 = x @ params["W1"].values + params["b1"].values
    h = np.maximum(z1, 0.0)
    return h @ params["W2"].values + params["b2"].values


def forward(model: TaggerModel, sentence: Sentence) -> np.ndarray:
    """Per-token tag scores for one sentence, shape (n_tokens, n_tags)."""
    if len(sentence) == 0:
        return np.zeros((0, len(model.tagset)))
    ids, _ = encode_sentence(model, sentence)
    return _scores(model.params, ids)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _batch_loss(params: dict[str, ParamTensor], ids: np.ndarray,
                tags: np.ndarray) -> float:
    logp = _log_softmax(_scores(params, ids))
    return float(-logp[np.arange(len(tags)), tags].mean())


def _batch_loss_grads(
    params: dict[str, ParamTensor], ids: np.ndarray, tags: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch tokens, the embedding rows the
    batch reads (sorted, unique) and gradients for all five tensors.

    The E gradient covers only those rows, shape (rows, embed_dim); it
    is accumulated in token order, as into a zeroed full-size table.
    """
    e = params["E"].values
    w1, b1 = params["W1"].values, params["b1"].values
    w2, b2 = params["W2"].values, params["b2"].values
    n, k = ids.shape
    d = e.shape[1]

    x = e[ids.reshape(-1)].reshape(n, k * d)
    z1 = x @ w1 + b1
    h = np.maximum(z1, 0.0)
    scores = h @ w2 + b2

    logp = _log_softmax(scores)
    loss = float(-logp[np.arange(n), tags].mean())

    g = np.exp(logp)
    g[np.arange(n), tags] -= 1.0
    g /= n

    grad_w2 = h.T @ g
    grad_b2 = g.sum(axis=0)
    gh = g @ w2.T
    gh[z1 <= 0.0] = 0.0
    grad_w1 = x.T @ gh
    grad_b1 = gh.sum(axis=0)
    gx = (gh @ w1.T).reshape(n * k, d)
    rows, slot = np.unique(ids.reshape(-1), return_inverse=True)
    grad_e = np.zeros((rows.size, d))
    np.add.at(grad_e, slot, gx)
    return loss, rows, {
        "E": grad_e, "W1": grad_w1, "b1": grad_b1,
        "W2": grad_w2, "b2": grad_b2,
    }


def loss_and_gradients(
    model: TaggerModel, sentence: Sentence
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy loss and analytic gradients for a single sentence."""
    if len(sentence) == 0:
        return 0.0, {name: np.zeros_like(p.values)
                     for name, p in model.params.items()}
    ids, tags = encode_sentence(model, sentence)
    loss, rows, grads = _batch_loss_grads(model.params, ids, tags)
    grad_e = np.zeros_like(model.params["E"].values)
    grad_e[rows] = grads["E"]
    return loss, {**grads, "E": grad_e}


def train(
    model: TaggerModel,
    train_data: Corpus | Sequence[Corpus],
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
    masked weight.

    A step's cost scales with the batch, not the vocabulary: it updates,
    re-masks and re-checks only the embedding rows its batch reads (and
    only tensors that hold a masked weight), and sparsity is measured
    only when masks change. The first step and event steps make a full
    pass over every tensor.
    """
    config = model.config
    sentences = _sentences(train_data)
    if not sentences:
        raise ConfigError("training data has no sentences")
    n_batches = math.ceil(len(sentences) / config.batch_size)
    total_steps = config.epochs * n_batches
    if schedule is not None and schedule.end_step > total_steps:
        raise ScheduleError(
            f"schedule ends at step {schedule.end_step} but training "
            f"runs {total_steps} updates"
        )
    events = schedule_events(schedule, ramp) if schedule is not None else []

    encoded = [encode_sentence(model, sent) for sent in sentences]
    rng = np.random.default_rng([config.seed, 1])
    params = model.params
    tensors = model.param_list
    emb = params["E"]
    rest = [tensor for tensor in tensors if tensor is not emb]
    lr = config.learning_rate
    history: list[TrainStep] = []
    step = 0
    ev = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(sentences))
        for b in range(n_batches):
            step += 1
            full_pass = step == 1
            while ev < len(events) and events[ev][0] <= step:
                compute_masks(tensors, events[ev][1], strategy)
                ev += 1
                full_pass = True
            chosen = order[b * config.batch_size:(b + 1) * config.batch_size]
            ids = np.concatenate([encoded[i][0] for i in chosen])
            tags = np.concatenate([encoded[i][1] for i in chosen])
            if len(tags) == 0:
                loss, rows = 0.0, np.zeros(0, dtype=np.int64)
            else:
                loss, rows, grads = _batch_loss_grads(params, ids, tags)
                emb.values[rows] -= lr * grads["E"]
                for tensor in rest:
                    tensor.values -= lr * grads[tensor.name]
            if full_pass:
                apply_masks(tensors)
                sparsity = measure_sparsity(tensors, strategy)
                # until masks next change, a tensor without a masked entry
                # needs no re-masking and adds nothing to the check
                masked = [tensor for tensor in rest if not tensor.mask.all()]
                emb_masked = not emb.mask.all()
                emb_worst = _masked_row_max(emb.values, emb.mask)
            else:
                apply_masks(masked)
                if emb_masked:
                    mask_rows = emb.mask[rows]
                    emb.values[rows] = kept = emb.values[rows] * mask_rows
                    emb_worst[rows] = _masked_row_max(kept, mask_rows)
            worst = _max_abs_masked(masked, emb_worst)
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


def _masked_row_max(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the largest magnitude among masked entries (0 if none);
    NaN wherever a masked entry is NaN."""
    return np.abs(np.where(mask == 0, values, 0.0)).max(axis=1, initial=0.0)


def _max_abs_masked(tensors: Iterable[ParamTensor],
                    *row_maxima: np.ndarray) -> float:
    """Largest magnitude among the masked weights of tensors and among
    row maxima from _masked_row_max; NaN if any of them is NaN."""
    maxima = [np.abs(t.values[t.mask == 0]).max(initial=0.0) for t in tensors]
    maxima += [rows.max(initial=0.0) for rows in row_maxima]
    return float(np.max(maxima, initial=0.0))


def predict(model: TaggerModel, corpus: Corpus) -> list[list[str]]:
    """Most likely tag per token; ties resolve to the lowest tag id,
    which puts O first."""
    out = []
    for sent in corpus:
        if len(sent) == 0:
            out.append([])
            continue
        scores = forward(model, sent)
        out.append([model.tagset[i] for i in scores.argmax(axis=1)])
    return out


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
    """
    if len(sentence) == 0:
        return None
    loss0, grads = loss_and_gradients(model, sentence)
    if loss0 == 0.0:
        return None
    ids, tags = encode_sentence(model, sentence)
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
            plus = _batch_loss(model.params, ids, tags)
            tensor.values.flat[i] = original - epsilon
            minus = _batch_loss(model.params, ids, tags)
            tensor.values.flat[i] = original
            fd = (plus - minus) / (2.0 * epsilon)
            analytic = grad_flat[i]
            err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


def save_model(directory: str | Path, model: TaggerModel) -> Path:
    """Checkpoint plus a JSON sidecar with config, tagset and vocab."""
    directory = Path(directory)
    save_checkpoint(directory, model.param_list, extra={"kind": "window_tagger"})
    tokens = [None] * len(model.vocab)
    for token, idx in model.vocab.items():
        tokens[idx] = token
    sidecar = {
        "config": asdict(model.config),
        "tagset": list(model.tagset),
        "vocab_tokens": tokens,
    }
    with open(directory / MODEL_SIDECAR, "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    return directory


def load_model(directory: str | Path) -> TaggerModel:
    directory = Path(directory)
    sidecar_path = directory / MODEL_SIDECAR
    if not sidecar_path.is_file():
        raise CheckpointError(f"{sidecar_path}: no model sidecar")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    config = TaggerConfig(**sidecar["config"])
    tagset = tuple(sidecar["tagset"])
    if tagset != TAGSET:
        raise CheckpointError(f"unsupported tagset {tagset}")
    vocab = {token: idx for idx, token in enumerate(sidecar["vocab_tokens"])}
    if vocab.get(UNK_TOKEN) != UNK_ID or vocab.get(PAD_TOKEN) != PAD_ID:
        raise CheckpointError("vocab sidecar must map <unk> to 0 and <pad> to 1")
    params_list, _ = load_checkpoint(directory)
    params = {p.name: p for p in params_list}
    expected = {"E", "W1", "b1", "W2", "b2"}
    if set(params) != expected:
        raise CheckpointError(
            f"checkpoint tensors {sorted(params)} do not match {sorted(expected)}"
        )
    model = TaggerModel(config, vocab, tagset, params)
    if params["E"].shape != (len(vocab), config.embed_dim):
        raise CheckpointError("embedding shape does not match vocab and config")
    return model
