"""Span tracing by swapping nerprune's module attributes for wrappers.

nerprune's modules call one another through module attributes (the
grid runner calls ``nerprune.experiment.train``, the trainer calls
``nerprune.tagger.apply_masks``, and so on). ``Tracer.install`` replaces
every such attribute that refers to a traced function with a wrapper
that records a span, and ``uninstall`` puts the originals back. No file
of the program changes.

Spans live in memory: name, start, end, parent span, thread, the id of
the request they belong to (a grid cell's run id, or the benchmark
iteration) and a few counts taken from the call's arguments and result.
Each thread keeps its own span stack. A span opened on a worker thread
with an empty stack takes as parent the innermost open span of the main
thread, which is the grid runner waiting for its pool.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    run_id: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tokens(corpus) -> int:
    return sum(len(s) for s in corpus)


def _parse_counts(args, kwargs, result):
    return {"lines": _tokens(result) + len(result)}


def _pool_counts(args, kwargs, result):
    return {"scope": result.scope.value, "surfaces": result.size()}


def _perturb_counts(args, kwargs, result):
    records = result[1]
    pool = args[1] if len(args) > 1 else kwargs["pool"]
    return {
        "scope": pool.scope.value,
        "mentions": len(records),
        "replaced": sum(1 for r in records if r.replaced),
    }


def _checkpoint_counts(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    # float64 values plus one mask byte per element
    return {"bytes": sum(p.size * 9 for p in params)}


def _first_len(key):
    def counts(args, kwargs, result):
        return {key: len(args[0] if args else next(iter(kwargs.values())))}
    return counts


def _cell_run_id(args, kwargs):
    return (args[0] if args else kwargs["spec"]).run_id


# spans that start a request of their own: a grid cell is one
REQUEST_ID = {"experiment.cell": _cell_run_id}


# (module, function, span name, counts taken from the call)
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("experiment", "run", "experiment.run", None),
    ("experiment", "execute_run", "experiment.cell", None),
    ("corpus", "parse_iob2", "corpus.parse", _parse_counts),
    ("corpus", "serialize_iob2", "corpus.serialize", None),
    ("perturb", "build_pool", "perturb.build_pool", _pool_counts),
    ("perturb", "perturb_corpus", "perturb.perturb", _perturb_counts),
    ("tagger", "build_vocab", "tagger.build_vocab",
     lambda a, k, r: {"vocab_size": len(r)}),
    ("tagger", "encode_sentence", "tagger.encode", None),
    ("tagger", "train", "tagger.train", None),
    ("tagger", "predict", "tagger.predict",
     lambda a, k, r: {"tokens": sum(len(tags) for tags in r)}),
    ("tagger", "save_model", "tagger.save", None),
    ("tagger", "load_model", "tagger.load", None),
    ("pruning", "apply_masks", "pruning.apply_masks", None),
    ("pruning", "measure_sparsity", "pruning.measure_sparsity", None),
    ("pruning", "compute_masks", "pruning.compute_masks", None),
    ("pruning", "save_checkpoint", "pruning.save_checkpoint", _checkpoint_counts),
    ("evaluation", "score_corpus", "evaluation.score", _first_len("sentences")),
    ("analysis", "emit_report", "analysis.report", _first_len("records")),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def open(self, name: str, run_id: str | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and threading.get_ident() != self._main else None
        span = Span(
            id=next(self._ids), name=name, start=time.perf_counter(),
            parent=parent.id if parent else None,
            thread=threading.get_ident(),
            run_id=run_id or (parent.run_id if parent else ""),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, counts: Callable | None):
        tracer = self
        request_id = REQUEST_ID.get(name)

        def traced(*args, **kwargs):
            span = tracer.open(name, request_id(args, kwargs) if request_id else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every nerprune module attribute that refers to a traced
        function for its wrapper, wherever the function was imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nerprune" or n.startswith("nerprune."))]
        for module_name, attr, span_name, counts in TRACED:
            original = getattr(sys.modules[f"nerprune.{module_name}"], attr)
            wrapper = self.wrap(span_name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "run_id": s.run_id,
                    "counts": s.counts, "error": s.error,
                }, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the time its child spans cover."""
    children = _children(spans)
    return {
        s.id: s.duration - _covered(
            [(c.start, c.end) for c in children.get(s.id, ())], s.start, s.end
        )
        for s in spans
    }


def subtree(spans: list[Span], roots: list[Span]) -> list[Span]:
    """Spans descending from the roots, roots included."""
    children = _children(spans)
    out = list(roots)
    frontier = list(roots)
    while frontier:
        frontier = [c for s in frontier for c in children.get(s.id, ())]
        out.extend(frontier)
    return out


def layer_metrics(spans: list[Span], roots: list[Span], workers: int,
                  cpu_s: float, wall_s: float) -> dict[str, float]:
    """Per-layer numbers for one traced repetition: its timed part and
    the set-up done with it, given as the benchmark's own root spans.
    Times are summed inclusive (or, for _self_s, self) durations in
    seconds; cpu_s and wall_s are the timed part's."""
    tree = subtree(spans, roots)
    selfs = self_times(tree)
    by_name: dict[str, list[Span]] = {}
    for s in tree:
        by_name.setdefault(s.name, []).append(s)

    def total(name, use_self=False):
        return sum(selfs[s.id] if use_self else s.duration
                   for s in by_name.get(name, ()))

    def count(name, key=None):
        group = by_name.get(name, ())
        return len(group) if key is None else sum(s.counts.get(key, 0) for s in group)

    perturbs = by_name.get("perturb.perturb", ())
    mentions = count("perturb.perturb", "mentions")
    cells = sorted(s.duration for s in by_name.get("experiment.cell", ()))
    m = {
        "tagger.train_self_s": total("tagger.train", use_self=True),
        "pruning.apply_masks_s": total("pruning.apply_masks"),
        "pruning.apply_masks_calls": count("pruning.apply_masks"),
        "pruning.measure_sparsity_s": total("pruning.measure_sparsity"),
        "pruning.measure_sparsity_calls": count("pruning.measure_sparsity"),
        "pruning.compute_masks_s": total("pruning.compute_masks"),
        "pruning.events": count("pruning.compute_masks"),
        "tagger.build_vocab_s": total("tagger.build_vocab"),
        "tagger.vocab_size": max(
            (s.counts["vocab_size"] for s in by_name.get("tagger.build_vocab", ())),
            default=0),
        "tagger.encode_s": total("tagger.encode"),
        "perturb.build_pool_s": total("perturb.build_pool"),
        "perturb.perturb_s": total("perturb.perturb"),
        "perturb.mentions": mentions,
        "perturb.replaced_ratio": (
            count("perturb.perturb", "replaced") / mentions if mentions else 0.0),
        "perturb.pool_surfaces": count("perturb.build_pool", "surfaces"),
        "corpus.parse_s": total("corpus.parse"),
        "corpus.parse_lines": count("corpus.parse", "lines"),
        "corpus.serialize_s": total("corpus.serialize"),
        "tagger.predict_s": total("tagger.predict"),
        "tagger.predict_tokens": count("tagger.predict", "tokens"),
        "evaluation.score_s": total("evaluation.score"),
        "evaluation.sentences": count("evaluation.score", "sentences"),
        "tagger.save_s": total("tagger.save"),
        "tagger.load_s": total("tagger.load"),
        "pruning.checkpoint_bytes": count("pruning.save_checkpoint", "bytes"),
        "analysis.report_s": total("analysis.report"),
        "analysis.records": count("analysis.report", "records"),
        "experiment.cells": len(cells),
        "experiment.cells_failed": sum(
            1 for s in by_name.get("experiment.cell", ()) if s.error),
        "experiment.cell_s_p50": cells[len(cells) // 2] if cells else 0.0,
        "experiment.cell_s_max": cells[-1] if cells else 0.0,
        "experiment.cpu_util": cpu_s / (wall_s * workers),
        "cli.self_s": total("cli.main", use_self=True),
        "trace.uncovered_s": sum(selfs[r.id] for r in roots),
    }
    for scope in ("in-language", "in-script", "in-family"):
        m[f"perturb.perturb_s.{scope}"] = sum(
            s.duration for s in perturbs if s.counts.get("scope") == scope)
        m[f"perturb.pool_surfaces.{scope}"] = sum(
            s.counts["surfaces"] for s in by_name.get("perturb.build_pool", ())
            if s.counts.get("scope") == scope)
    return m
