import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerprune.errors import (
    CheckpointError,
    MonotonicityError,
    PruningError,
    ScheduleError,
)
from nerprune.pruning import (
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
from oracles import oracle_compute_masks


def tensor_set(rng, with_excluded=True):
    params = [
        ParamTensor("embed", rng.normal(size=(7, 4)), Role.EMBEDDING),
        ParamTensor("dense.0", rng.normal(size=(12, 5)), Role.DENSE),
        ParamTensor("dense.1", rng.normal(size=(5, 3)), Role.DENSE),
    ]
    if with_excluded:
        params.append(ParamTensor("bias", rng.normal(size=(5,)), Role.EXCLUDED))
    return params


def test_tensor_rejects_unsafe_names_and_bad_masks():
    with pytest.raises(ValueError, match="not filesystem safe"):
        ParamTensor("a/b", np.zeros(2), Role.DENSE)
    with pytest.raises(ValueError, match="mask shape"):
        ParamTensor("w", np.zeros(3), Role.DENSE, mask=np.ones(2, dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        ParamTensor("w", np.zeros(2), Role.DENSE, mask=np.array([1, 2]))


def test_strategy_role_scope():
    assert PruneStrategy.PARTIAL.prunable_roles == {Role.DENSE}
    assert PruneStrategy.INCL_EMBEDDINGS.prunable_roles == {Role.DENSE, Role.EMBEDDING}


def test_schedule_validates_grid():
    with pytest.raises(ScheduleError, match="multiple of frequency"):
        PruneSchedule(0, 10, 3, 0.5)
    with pytest.raises(ScheduleError, match="start <= end"):
        PruneSchedule(10, 5, 1, 0.5)
    with pytest.raises(ScheduleError, match="frequency"):
        PruneSchedule(0, 10, 0, 0.5)
    with pytest.raises(ScheduleError, match=r"\[0, 1\)"):
        PruneSchedule(0, 10, 5, 1.0)


def test_cubic_ramp_shape():
    events = schedule_events(PruneSchedule(100, 300, 50, 0.8))
    steps = [step for step, _ in events]
    assert steps == [100, 150, 200, 250, 300]
    targets = [t for _, t in events]
    assert targets[0] == 0.0
    assert targets[-1] == 0.8
    u = 0.25
    assert targets[1] == pytest.approx(0.8 * (1 - (1 - u) ** 3))
    assert all(a <= b for a, b in zip(targets, targets[1:]))


def test_linear_ramp_and_degenerate_schedule():
    events = schedule_events(PruneSchedule(0, 100, 25, 0.6), ramp="linear")
    assert [t for _, t in events] == pytest.approx([0.0, 0.15, 0.3, 0.45, 0.6])
    assert schedule_events(PruneSchedule(7, 7, 1, 0.5)) == [(7, 0.5)]
    with pytest.raises(ValueError, match="ramp"):
        schedule_events(PruneSchedule(0, 10, 5, 0.5), ramp="quadratic")


def test_partial_never_touches_embeddings_or_biases():
    params = tensor_set(np.random.default_rng(0))
    compute_masks(params, 0.9, PruneStrategy.PARTIAL)
    by_name = {p.name: p for p in params}
    assert (by_name["embed"].mask == 1).all()
    assert (by_name["bias"].mask == 1).all()
    dense_n = by_name["dense.0"].size + by_name["dense.1"].size
    masked = (by_name["dense.0"].mask == 0).sum() + (by_name["dense.1"].mask == 0).sum()
    assert masked == int(0.9 * dense_n)


def test_incl_embeddings_pools_dense_and_embedding_weights():
    params = tensor_set(np.random.default_rng(1))
    compute_masks(params, 0.5, PruneStrategy.INCL_EMBEDDINGS)
    by_name = {p.name: p for p in params}
    n = by_name["embed"].size + by_name["dense.0"].size + by_name["dense.1"].size
    masked = sum(
        (by_name[k].mask == 0).sum() for k in ("embed", "dense.0", "dense.1")
    )
    assert masked == n // 2
    assert (by_name["bias"].mask == 1).all()


def test_global_scope_selects_smallest_magnitudes_across_tensors():
    params = [
        ParamTensor("a", np.array([0.1, 5.0, 6.0]), Role.DENSE),
        ParamTensor("b", np.array([-0.2, 7.0, 0.3]), Role.DENSE),
    ]
    compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    assert params[0].mask.tolist() == [0, 1, 1]
    assert params[1].mask.tolist() == [0, 1, 0]


def test_per_tensor_scope_masks_each_tensor_independently():
    params = [
        ParamTensor("a", np.array([0.1, 0.2, 5.0, 6.0]), Role.DENSE),
        ParamTensor("b", np.array([8.0, 9.0, 10.0, 11.0]), Role.DENSE),
    ]
    compute_masks(params, 0.5, PruneStrategy.PARTIAL, scope="per_tensor")
    assert params[0].mask.tolist() == [0, 0, 1, 1]
    assert params[1].mask.tolist() == [0, 0, 1, 1]


def test_magnitude_ties_break_by_name_then_index():
    params = [
        ParamTensor("b", np.array([1.0, 1.0]), Role.DENSE),
        ParamTensor("a", np.array([1.0, 1.0]), Role.DENSE),
    ]
    compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    assert params[1].mask.tolist() == [0, 0]
    assert params[0].mask.tolist() == [1, 1]


def test_masks_only_grow():
    params = tensor_set(np.random.default_rng(2))
    compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    before = [p.mask.copy() for p in params]
    compute_masks(params, 0.7, PruneStrategy.PARTIAL)
    for old, p in zip(before, params):
        assert (p.mask <= old).all()
    with pytest.raises(MonotonicityError):
        compute_masks(params, 0.3, PruneStrategy.PARTIAL)


def test_already_masked_entries_do_not_count_twice():
    params = [ParamTensor("w", np.array([0.1, 0.2, 0.3, 4.0]), Role.DENSE)]
    compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    compute_masks(params, 0.75, PruneStrategy.PARTIAL)
    assert params[0].mask.tolist() == [0, 0, 0, 1]


def test_masking_requires_prunable_weights():
    params = [ParamTensor("bias", np.ones(3), Role.EXCLUDED)]
    with pytest.raises(PruningError, match="no prunable"):
        compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    with pytest.raises(PruningError, match="no prunable"):
        measure_sparsity(params, PruneStrategy.PARTIAL)


def test_rejects_duplicate_tensor_names():
    params = [
        ParamTensor("w", np.ones(2), Role.DENSE),
        ParamTensor("w", np.ones(2), Role.DENSE),
    ]
    with pytest.raises(PruningError, match="duplicate"):
        compute_masks(params, 0.5, PruneStrategy.PARTIAL)


def test_apply_masks_zeroes_values_and_is_idempotent():
    params = [ParamTensor("w", np.array([1.0, 2.0, 3.0, 4.0]), Role.DENSE)]
    compute_masks(params, 0.5, PruneStrategy.PARTIAL)
    apply_masks(params)
    assert params[0].values.tolist() == [0.0, 0.0, 3.0, 4.0]
    snapshot = params[0].values.copy()
    apply_masks(params)
    assert (params[0].values == snapshot).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pct=st.sampled_from([0, 50, 70, 80, 90, 95, 98]),
    strategy=st.sampled_from(list(PruneStrategy)),
)
def test_masked_count_is_exactly_the_floor_target(seed, pct, strategy):
    rng = np.random.default_rng(seed)
    params = tensor_set(rng)
    compute_masks(params, pct / 100, strategy)
    roles = strategy.prunable_roles
    n = sum(p.size for p in params if p.role in roles)
    masked = sum(int((p.mask == 0).sum()) for p in params if p.role in roles)
    assert masked == (pct * n) // 100
    assert measure_sparsity(params, strategy) == masked / n


# few distinct values, both zeros and NaN, so magnitude ties are the norm
TIE_VALUES = (0.0, -0.0, 0.25, -0.25, 1.0, -1.0, np.inf, np.nan)


@st.composite
def tie_heavy_tensors(draw):
    # listed out of name order, so the name rank of a tie matters
    specs = (("w2", Role.DENSE), ("emb", Role.EMBEDDING),
             ("w1", Role.DENSE), ("bias", Role.EXCLUDED))
    params = []
    for name, role in specs:
        size = draw(st.integers(1, 12))
        values = draw(st.lists(st.sampled_from(TIE_VALUES),
                               min_size=size, max_size=size))
        mask = draw(st.lists(st.sampled_from((1, 1, 1, 0)),
                             min_size=size, max_size=size))
        params.append(ParamTensor(name, np.array(values), role, np.array(mask)))
    return params


@settings(max_examples=200, deadline=None)
@given(
    params=tie_heavy_tensors(),
    levels=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 0.98, 1.0]),
                    min_size=1, max_size=3).map(sorted),
    strategy=st.sampled_from(list(PruneStrategy)),
    scope=st.sampled_from(["global", "per_tensor"]),
)
def test_mask_selection_matches_the_full_sort(params, levels, strategy, scope):
    reference = [
        ParamTensor(p.name, p.values.copy(), p.role, p.mask.copy())
        for p in params
    ]
    for sparsity in levels:
        try:
            compute_masks(params, sparsity, strategy, scope)
        except MonotonicityError:
            return  # pre-masked entries already exceed this level
        oracle_compute_masks(reference, sparsity, strategy, scope)
        for got, want in zip(params, reference):
            assert got.mask.tobytes() == want.mask.tobytes()


def test_checkpoint_round_trip(tmp_path):
    params = tensor_set(np.random.default_rng(3))
    compute_masks(params, 0.7, PruneStrategy.PARTIAL)
    apply_masks(params)
    save_checkpoint(tmp_path / "ckpt", params, extra={"step": 42})
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["extra"] == {"step": 42}
    assert manifest["format_version"] == 1
    assert manifest["achieved_sparsity"]["partial"] == pytest.approx(
        measure_sparsity(params, PruneStrategy.PARTIAL)
    )
    assert [p.name for p in loaded] == [p.name for p in params]
    for src, dst in zip(params, loaded):
        assert dst.role is src.role
        assert (dst.values == src.values).all()
        assert (dst.mask == src.mask).all()


def test_checkpoint_rejects_corruption(tmp_path):
    params = [ParamTensor("w", np.ones((2, 2)), Role.DENSE)]
    path = save_checkpoint(tmp_path / "ckpt", params)
    (path / "w.values.bin").write_bytes(b"\0" * 8)
    with pytest.raises(CheckpointError, match="values file"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_mask_bytes(tmp_path):
    params = [ParamTensor("w", np.ones(4), Role.DENSE)]
    path = save_checkpoint(tmp_path / "ckpt", params)
    (path / "w.mask.bin").write_bytes(bytes([1, 1, 2, 1]))
    with pytest.raises(CheckpointError, match="0 or 1"):
        load_checkpoint(path)


def test_checkpoint_requires_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="no manifest"):
        load_checkpoint(tmp_path)
