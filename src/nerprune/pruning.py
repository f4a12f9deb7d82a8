"""Iterative magnitude pruning over named parameter tensors.

Masks are binary, only ever flip from 1 to 0, and are selected globally:
across every tensor a strategy may prune, the smallest-magnitude live
weights are masked until the masked count equals floor(s * N). Bias-like
tensors carry the Excluded role and are never touched. Schedules ramp
the target cubically from zero to the final sparsity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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
            mask = np.asarray(mask, dtype=np.uint8)
            if mask.shape != self.values.shape:
                raise ValueError(
                    f"{name}: mask shape {mask.shape} vs values {self.values.shape}"
                )
            if not np.isin(mask, (0, 1)).all():
                raise ValueError(f"{name}: mask entries must be 0 or 1")
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


def _prunable(params: Sequence[ParamTensor],
              strategy: PruneStrategy) -> list[ParamTensor]:
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise PruningError(f"duplicate tensor names: {names}")
    roles = strategy.prunable_roles
    return [p for p in params if p.role in roles]


def compute_masks(
    params: Sequence[ParamTensor],
    sparsity: float,
    strategy: PruneStrategy,
    scope: str = "global",
) -> Sequence[ParamTensor]:
    """Mask the smallest-magnitude live weights up to floor(s * N).

    Already masked entries stay masked; the pass only adds new zeros.
    scope "global" ranks all prunable tensors together, "per_tensor"
    ranks within each tensor and masks floor(s * size) of it. Ties are
    broken by tensor name, then flat index. Requesting a sparsity below
    the current achieved level raises MonotonicityError.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise PruningError(f"sparsity must be in [0, 1], got {sparsity}")
    if scope not in ("global", "per_tensor"):
        raise ValueError(f"unknown scope {scope!r}")
    prunable = _prunable(params, strategy)
    if not prunable or sum(p.size for p in prunable) == 0:
        raise PruningError(f"no prunable weights for {strategy.value}")
    prunable = sorted(prunable, key=lambda p: p.name)
    if scope == "per_tensor":
        for tensor in prunable:
            _mask_group([tensor], sparsity)
    else:
        _mask_group(prunable, sparsity)
    return params


def _mask_group(tensors: list[ParamTensor], sparsity: float) -> None:
    # live weights of every tensor in (name rank, flat index) order, so a
    # position in their concatenation is the tie-break rank
    live_idx = [np.flatnonzero(t.mask) for t in tensors]
    n = sum(t.size for t in tensors)
    masked = n - sum(idx.size for idx in live_idx)
    target = _target_count(sparsity, n)
    if target < masked:
        raise MonotonicityError(
            f"target count {target} below already masked {masked}"
        )
    extra = target - masked
    if extra == 0:
        return
    mags = np.abs(np.concatenate(
        [t.values.reshape(-1)[idx] for t, idx in zip(tensors, live_idx)]
    ))
    threshold = np.partition(mags, extra - 1)[extra - 1]
    if np.isnan(threshold):
        # NaN magnitudes rank after every number, as they sort
        below, ties = ~np.isnan(mags), np.isnan(mags)
    else:
        below, ties = mags < threshold, mags == threshold
    n_ties = extra - int(below.sum())
    chosen = below
    chosen[np.flatnonzero(ties)[:n_ties]] = True
    start = 0
    for tensor, idx in zip(tensors, live_idx):
        hits = idx[chosen[start:start + idx.size]]
        start += idx.size
        tensor.mask.flat[hits] = 0


def apply_masks(params: Sequence[ParamTensor]) -> Sequence[ParamTensor]:
    """Zero values wherever the mask is zero. Idempotent."""
    for tensor in params:
        tensor.values *= tensor.mask
    return params


def measure_sparsity(params: Sequence[ParamTensor],
                     strategy: PruneStrategy) -> float:
    """Fraction of prunable weights currently masked."""
    prunable = _prunable(params, strategy)
    n = sum(p.size for p in prunable)
    if n == 0:
        raise PruningError(f"no prunable weights for {strategy.value}")
    masked = sum(int((p.mask == 0).sum()) for p in prunable)
    return masked / n


MANIFEST_NAME = "manifest.json"


def save_checkpoint(
    directory: str | Path,
    params: Sequence[ParamTensor],
    extra: dict | None = None,
) -> Path:
    """Write tensors to a directory: a JSON manifest plus, per tensor,
    little-endian float64 values and byte-per-element mask files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise CheckpointError(f"duplicate tensor names: {names}")
    achieved = {}
    for strategy in PruneStrategy:
        try:
            achieved[strategy.value] = measure_sparsity(params, strategy)
        except PruningError:
            achieved[strategy.value] = None
    manifest = {
        "format_version": 1,
        "tensors": [
            {"name": p.name, "shape": list(p.shape), "role": p.role.value}
            for p in params
        ],
        "achieved_sparsity": achieved,
        "extra": extra or {},
    }
    for tensor in params:
        values = np.ascontiguousarray(tensor.values, dtype="<f8")
        (directory / f"{tensor.name}.values.bin").write_bytes(values.tobytes())
        mask = np.ascontiguousarray(tensor.mask, dtype=np.uint8)
        (directory / f"{tensor.name}.mask.bin").write_bytes(mask.tobytes())
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return directory


def load_checkpoint(directory: str | Path) -> tuple[list[ParamTensor], dict]:
    """Read a checkpoint directory back; returns (tensors, manifest)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"{manifest_path}: no manifest")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{manifest_path}: {exc}") from None
    params = []
    for entry in manifest.get("tensors", []):
        name = entry["name"]
        if not _NAME_RE.fullmatch(name):
            raise CheckpointError(f"unsafe tensor name {name!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        try:
            role = Role(entry["role"])
        except ValueError:
            raise CheckpointError(f"{name}: unknown role {entry['role']!r}") from None
        values_raw = (directory / f"{name}.values.bin").read_bytes()
        mask_raw = (directory / f"{name}.mask.bin").read_bytes()
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
        if not np.isin(mask, (0, 1)).all():
            raise CheckpointError(f"{name}: mask entries must be 0 or 1")
        params.append(ParamTensor(name, values, role, mask))
    return params, manifest
