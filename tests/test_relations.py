"""Relations between the cells of one grid, which sharing work between
cells relies on and no single-cell oracle can see.

R1: the dense cells of every strategy of a (language set, seed) are one
computation. They start from the same weights, see the same batches and
prune nothing, so their checkpoints, sidecars and step histories are
byte-identical, and their traces differ only in the timing line and in
the final line's prunable counts, which name the strategy's roles.
"""

import json

import pytest

from nerprune import experiment
from nerprune.experiment import config_from_file, plan, run
from worlds import write_world

STRATEGIES = ["partial", "incl_embeddings"]


@pytest.fixture(scope="module", params=["monolingual", "multilingual"])
def grid(request, tmp_path_factory):
    """A two-seed grid of both strategies, with each cell's history kept
    in plan order (one worker, so cells train in that order)."""
    root = tmp_path_factory.mktemp(request.param)
    config = config_from_file(write_world(
        root, mode=request.param, extra={"strategies": STRATEGIES, "seeds": [0, 1]}))
    histories = []
    original = experiment.train

    def keep_history(*args, **kwargs):
        model, history = original(*args, **kwargs)
        histories.append(history)
        return model, history

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "train", keep_history)
        results = run(config)
    specs = plan(config)
    assert len(histories) == len(specs)
    return config, results.parent / "checkpoints", dict(zip(specs, histories))


def _trace(path):
    """A trace's lines but timing, with the final line's prunable apart."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-1]["kind"] == "timing" and lines[-2]["kind"] == "final"
    return lines[:-1], lines[-2].pop("prunable")


def test_r1_dense_cells_of_every_strategy_are_one_computation(grid):
    config, checkpoints, histories = grid
    dense = {}
    for spec, history in histories.items():
        if spec.sparsity == 0:
            dense.setdefault((spec.language, spec.seed), []).append((spec, history))
    assert len(dense) == len(config.seeds) * (
        len(config.languages) if config.mode == "monolingual" else 1)
    for cells in dense.values():
        assert [spec.strategy for spec, _ in cells] == STRATEGIES
        (first, first_history), *others = cells
        files = sorted(p.name for p in (checkpoints / first.run_id).iterdir())
        assert "model.json" in files and "E.values.bin" in files
        first_trace, first_prunable = _trace(checkpoints / first.run_id / "trace.jsonl")
        # partial may not prune E; the strategies differ in nothing else
        assert first_prunable["E"] == 0
        for spec, history in others:
            cell = checkpoints / spec.run_id
            assert sorted(p.name for p in cell.iterdir()) == files
            for name in files:
                if name != "trace.jsonl":
                    assert (cell / name).read_bytes() == (
                        checkpoints / first.run_id / name).read_bytes(), name
            assert history == first_history
            trace, prunable = _trace(cell / "trace.jsonl")
            assert trace == first_trace
            assert prunable["E"] > 0 and {**prunable, "E": 0} == first_prunable
