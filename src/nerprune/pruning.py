"""Iterative magnitude pruning over named parameter tensors.

Masks are binary, only ever flip from 1 to 0, and are selected globally:
across every tensor a strategy may prune, the smallest-magnitude live
weights are masked until the masked count equals floor(s * N). Bias-like
tensors carry the Excluded role and are never touched. Schedules ramp
the target cubically from zero to the final sparsity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import read_json_object
from .errors import CheckpointError, MonotonicityError, PruningError, ScheduleError

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class Role(Enum):
    EMBEDDING = "embedding"
    DENSE = "dense"
    EXCLUDED = "excluded"


class PruneStrategy(Enum):
    """Which roles a pruning pass may touch."""

    PARTIAL = "partial"
    INCL_EMBEDDINGS = "incl_embeddings"

    @property
    def prunable_roles(self) -> frozenset[Role]:
        if self is PruneStrategy.PARTIAL:
            return frozenset({Role.DENSE})
        return frozenset({Role.DENSE, Role.EMBEDDING})


class ParamTensor:
    """A named weight tensor with a same-shaped binary mask.

    Values are float64 and mutable in place; the mask starts all-ones.
    After apply_masks, values are exactly 0 wherever the mask is 0.
    """

    def __init__(self, name: str, values: np.ndarray, role: Role,
                 mask: np.ndarray | None = None):
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"tensor name {name!r} not filesystem safe")
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)
        self.role = role
        if mask is None:
            mask = np.ones(self.values.shape, dtype=np.uint8)
        else:
            mask = np.asarray(mask)
            if mask.shape != self.values.shape:
                raise ValueError(
                    f"{name}: mask shape {mask.shape} vs values {self.values.shape}"
                )
            # any other dtype is checked before the cast, which would turn
            # 0.5, 256 and NaN into 0 and 1.9 into 1
            if mask.dtype in (np.uint8, np.bool_):
                binary = mask.max(initial=0) <= 1
            else:
                binary = ((mask == 0) | (mask == 1)).all()
            if not binary:
                raise ValueError(f"{name}: mask entries must be 0 or 1")
            mask = mask.astype(np.uint8, copy=False)
        self.mask = mask

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.shape}, role={self.role.value})"


@dataclass(frozen=True)
class PruneSchedule:
    """Pruning event grid: steps start, start+freq, ..., end.

    The distance from start to end must be an exact multiple of the
    frequency so the final event lands on end_step and reaches the
    target exactly.
    """

    start_step: int
    end_step: int
    frequency: int
    target_sparsity: float

    def __post_init__(self):
        if self.start_step < 0 or self.end_step < self.start_step:
            raise ScheduleError(
                f"need 0 <= start <= end, got [{self.start_step}, {self.end_step}]"
            )
        if self.frequency < 1:
            raise ScheduleError(f"frequency must be >= 1, got {self.frequency}")
        if (self.end_step - self.start_step) % self.frequency != 0:
            raise ScheduleError(
                f"end - start = {self.end_step - self.start_step} is not a "
                f"multiple of frequency {self.frequency}"
            )
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ScheduleError(
                f"target sparsity must be in [0, 1), got {self.target_sparsity}"
            )


def schedule_events(
    schedule: PruneSchedule, ramp: str = "cubic"
) -> list[tuple[int, float]]:
    """Expand a schedule into (step, target sparsity) events.

    The default cubic ramp is s(t) = S * (1 - (1 - u)^3) with u the
    fraction of the way from start to end; "linear" uses s(t) = S * u.
    Targets are non-decreasing and the final event hits S exactly.
    """
    if ramp not in ("cubic", "linear"):
        raise ValueError(f"unknown ramp {ramp!r}")
    start, end = schedule.start_step, schedule.end_step
    target = schedule.target_sparsity
    if start == end:
        return [(start, target)]
    events = []
    for step in range(start, end + 1, schedule.frequency):
        u = (step - start) / (end - start)
        s = target * (1.0 - (1.0 - u) ** 3) if ramp == "cubic" else target * u
        events.append((step, s))
    events[-1] = (end, target)
    return events


def _target_count(sparsity: float, n: int) -> int:
    """floor(sparsity * n), snapping to the nearest integer when the
    product is within 1e-9 of one so exact percentages never round down."""
    product = sparsity * n
    nearest = round(product)
    if abs(product - nearest) < 1e-9:
        return int(nearest)
    return int(np.floor(product))


def _require_unique_names(params: Sequence[ParamTensor], error: type[Exception]) -> None:
    """The rule for every tensor set: no name twice, else error listing
    the names."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise error(f"duplicate tensor names: {names}")


def _masked_count(params: Sequence[ParamTensor],
                  strategy: PruneStrategy) -> tuple[list[ParamTensor], int, int]:
    """The tensors of params that strategy may prune, sorted by name, their
    weight count and how many of those are masked. Duplicate names, or no
    prunable weight at all, raise PruningError."""
    _require_unique_names(params, PruningError)
    roles = strategy.prunable_roles
    tensors = sorted((p for p in params if p.role in roles), key=lambda p: p.name)
    n = sum(t.size for t in tensors)
    if n == 0:
        raise PruningError(f"no prunable weights for {strategy.value}")
    return tensors, n, n - sum(np.count_nonzero(t.mask) for t in tensors)


# a pruning event ranks the live magnitudes alone when fewer than this
# share of the prunable weights is live, else every magnitude with the
# masked ones at inf or NaN; a 90 % cubic schedule's events have 100, 37
# and 13 % live. The full array is written in place, 8 bytes per weight,
# while a gather also holds a tensor's int64 index of its live weights
# (np.compress would build one too, besides its copy), up to 16 bytes per
# live weight, so the two peak alike at half live. The cut is set by
# memory: on 723k weights at 30 to 90 % live, a gathered event took
# 4.0-6.3 ms and a full one 4.0-4.9 ms (two runs on a 2-vCPU VM)
_LIVE_ONLY_BELOW = 0.5


def _magnitudes(tensors: list[ParamTensor], n: int, masked: int) -> np.ndarray:
    """A new array of the tensors' magnitudes: of the live weights alone
    when few are live, else of every weight with the masked ones at inf
    or NaN, both of which sort after every number."""
    if n - masked < _LIVE_ONLY_BELOW * n:
        mags = np.empty(n - masked)
        end = 0
        for t in tensors:
            where = np.flatnonzero(t.mask.view(bool))  # read only
            part = mags[end:end + where.size]
            # indices are in range; "raise" would buffer a copy of part
            t.values.take(where, out=part, mode="clip")
            end += where.size
    else:
        mags = np.empty(n)
        end = 0
        for t in tensors:
            part = mags[end:end + t.size].reshape(t.shape)
            # a live weight's v / 1 is v; a masked one's v / 0 is inf or NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(t.values, t.mask, out=part)
            end += t.size
    return np.abs(mags, out=mags)


def compute_masks(
    params: Sequence[ParamTensor],
    sparsity: float,
    strategy: PruneStrategy,
) -> Sequence[ParamTensor]:
    """Mask the smallest-magnitude live weights up to floor(s * N).

    Already masked entries stay masked; the pass only adds new zeros.
    All prunable tensors are ranked together; ties are broken by tensor
    name, then flat index. Requesting a sparsity below the current
    achieved level raises MonotonicityError.

    An event allocates one magnitude array (see _LIVE_ONLY_BELOW) and
    partitions it in place to read the threshold, the extra-th smallest
    magnitude, then drops it. Each tensor's own values are then compared
    with the threshold, and the weights chosen are cleared in its mask:
    beyond that array, an event holds a few booleans per weight of one
    tensor at a time.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise PruningError(f"sparsity must be in [0, 1], got {sparsity}")
    tensors, n, masked = _masked_count(params, strategy)
    target = _target_count(sparsity, n)
    if target < masked:
        raise MonotonicityError(
            f"target count {target} below already masked {masked}"
        )
    extra = target - masked
    if extra == 0:
        return params
    mags = _magnitudes(tensors, n, masked)
    mags.partition(extra - 1)
    threshold = mags[extra - 1]
    del mags
    if np.isfinite(threshold):
        # strictly below, then ties; |v| < t without an abs temporary
        classes = (lambda v: (v < threshold) & (v > -threshold),
                   lambda v: (v == threshold) | (v == -threshold))
    else:
        # every number, then live inf, then NaN, as they sort
        classes = (np.isfinite, np.isinf, np.isnan)
    # each class is taken in (name, flat index) order up to extra; only
    # the last class reached can hold more live weights than are left
    for select in classes:
        for t in tensors:
            chosen = select(t.values)
            chosen &= t.mask.view(bool)  # read only
            count = np.count_nonzero(chosen)
            if count > extra:
                # the first extra in C order; ravel copies a chosen that
                # follows the layout of a non-contiguous t.values
                chosen = chosen.ravel()
                chosen[np.flatnonzero(chosen)[extra]:] = False
                chosen, count = chosen.reshape(t.shape), extra
            if count:
                t.mask ^= chosen  # chosen weights are live: 1 ^ 1 is 0
                extra -= count
                if extra == 0:
                    return params
    return params


def apply_masks(params: Sequence[ParamTensor]) -> Sequence[ParamTensor]:
    """Zero values wherever the mask is zero. Idempotent."""
    for tensor in params:
        tensor.values *= tensor.mask
    return params


def measure_sparsity(params: Sequence[ParamTensor],
                     strategy: PruneStrategy) -> float:
    """Fraction of prunable weights currently masked."""
    _, n, masked = _masked_count(params, strategy)
    return masked / n


MANIFEST_NAME = "manifest.json"


def save_checkpoint(directory: str | Path, params: Sequence[ParamTensor]) -> Path:
    """Write tensors to a directory: a JSON manifest of the format version
    and each tensor's name, shape and role, plus, per tensor, little-endian
    float64 values and byte-per-element mask files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _require_unique_names(params, CheckpointError)
    manifest = {
        "format_version": 1,
        "tensors": [
            {"name": p.name, "shape": list(p.shape), "role": p.role.value}
            for p in params
        ],
    }
    for tensor in params:
        # written from the arrays' own buffers, without a bytes copy
        values = np.ascontiguousarray(tensor.values, dtype="<f8")
        (directory / f"{tensor.name}.values.bin").write_bytes(values)
        mask = np.ascontiguousarray(tensor.mask, dtype=np.uint8)
        (directory / f"{tensor.name}.mask.bin").write_bytes(mask)
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return directory


def load_checkpoint(directory: str | Path) -> tuple[list[ParamTensor], dict]:
    """Read a checkpoint directory back; returns (tensors, manifest).
    The manifest must be of format version 1 and list its tensors in an
    array. Tensor names must be unique, and values finite and exactly 0
    (either sign) under a zero mask."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"{manifest_path}: no manifest")
    manifest = read_json_object(manifest_path, "manifest", CheckpointError)
    version = manifest.get("format_version")
    if type(version) is not int or version != 1:
        raise CheckpointError(f"{manifest_path}: unsupported format_version {version!r}")
    if not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"{manifest_path}: tensors must be a JSON array")
    params = []
    for entry in manifest["tensors"]:
        try:
            name, role, shape = entry["name"], entry["role"], tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise ValueError("dims must be non-negative integers")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{manifest_path}: malformed tensor entry {entry!r}: {exc!r}"
            ) from None
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise CheckpointError(f"unsafe tensor name {name!r}")
        count = math.prod(shape)
        try:
            role = Role(role)
        except ValueError:
            raise CheckpointError(f"{name}: unknown role {role!r}") from None
        try:
            values_raw = (directory / f"{name}.values.bin").read_bytes()
            mask_raw = (directory / f"{name}.mask.bin").read_bytes()
        except OSError as exc:
            raise CheckpointError(f"{name}: {exc}") from None
        if len(values_raw) != count * 8:
            raise CheckpointError(
                f"{name}: values file holds {len(values_raw)} bytes, "
                f"expected {count * 8}"
            )
        if len(mask_raw) != count:
            raise CheckpointError(
                f"{name}: mask file holds {len(mask_raw)} bytes, expected {count}"
            )
        values = np.frombuffer(values_raw, dtype="<f8").astype(np.float64).reshape(shape)
        mask = np.frombuffer(mask_raw, dtype=np.uint8).copy().reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{name}: values hold NaN or infinity")
        if values[mask == 0].any():  # -0.0 is 0
            raise CheckpointError(f"{name}: a weight under a zero mask is not 0")
        try:
            params.append(ParamTensor(name, values, role, mask))
        except ValueError as exc:  # a mask entry that is not 0 or 1
            raise CheckpointError(str(exc)) from None
    _require_unique_names(params, CheckpointError)
    return params, manifest
