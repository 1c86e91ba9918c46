import numpy as np
import pytest

from nfar.blocks import BlockPlan
from nfar.model import DenoiserConfig, init_params
from nfar.numerics import Tensor
from nfar.schedule import SamplerConfig
from nfar.streaming import (
    discontinuity_score,
    generate_full_recompute,
    generate_stream,
    zero_shot_experiment,
)

RNG = np.random.default_rng(7)


def toy_setup(seed=0):
    config = DenoiserConfig(n_layers=2, n_heads=2, d_model=32, d_latent=8, d_cond=16, d_ff=32)
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name in params.denoiser_names():
        params.values[name] = params.values[name] + 0.05 * rng.standard_normal(params.values[name].shape)
    x_ref = rng.standard_normal((2, config.d_latent))
    cond = rng.standard_normal(config.d_cond)
    return params, x_ref, cond


SAMPLER = SamplerConfig.uniform(3)


def test_single_block_matches_oracle_bitwise():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(1)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False, seed=5)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=5)
    assert np.array_equal(seq.values, oracle.values)


def test_cached_equals_recompute_n3():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(3)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False, seed=5)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=5)
    assert np.abs(seq.values - oracle.values).max() <= 1e-10


def test_cached_equals_recompute_float32():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(3)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False,
                             seed=5, dtype=np.float32)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=5,
                                     dtype=np.float32)
    assert np.abs(seq.values - oracle.values).max() <= 1e-4


def test_generation_deterministic():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(4)
    a, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, seed=9)
    b, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, seed=9)
    assert np.array_equal(a.values, b.values)


def test_context_bounded_with_convkv():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(8)
    _, report = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=True, seed=2)
    assert report.context_chunks[2:] == [6] * 6
    assert len(set(report.context_floats[2:])) == 1


def test_context_grows_without_convkv():
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(6)
    _, report = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False, seed=2)
    expected = [2] + [2 + 6 + 8 * (b - 1) for b in range(1, 6)]
    assert report.context_chunks == expected


def test_convkv_vs_recompute_lossy_but_finite():
    # Compression is lossy by design: differences are nonzero yet bounded.
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(6)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=True, seed=3)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=3)
    diff = np.abs(seq.values - oracle.values).max()
    assert diff > 0.0
    assert np.isfinite(diff)


def test_generation_builds_no_tape(monkeypatch):
    params, x_ref, cond = toy_setup()
    params.meta["mask_mode"] = "none"
    created = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    plan = BlockPlan.default(6)
    for bounded in (True, False):
        generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=bounded, seed=1)
    generate_full_recompute(params, x_ref, cond, BlockPlan.default(3), SAMPLER, seed=1)
    zero_shot_experiment(params, x_ref, cond, BlockPlan.default(3), SAMPLER, seed=1)
    assert not created
    Tensor(np.zeros(2))  # the patch counts
    assert created == [1]


def test_discontinuity_score_anchors_at_one():
    # A sequence whose gaps are identically distributed across boundaries
    # scores ~1; a planted boundary jump scores higher.
    plan = BlockPlan.default(4)
    smooth = np.cumsum(RNG.standard_normal((plan.total_chunks, 8)), axis=0) * 0 + \
        np.arange(plan.total_chunks)[:, None] * np.ones(8)
    assert abs(discontinuity_score(smooth, plan) - 1.0) < 1e-12
    jumped = smooth.copy()
    for s in plan.starts[1:]:
        jumped[s:] += 5.0
    assert discontinuity_score(jumped, plan) > 2.0


def test_zero_shot_refuses_causal_checkpoint():
    params, x_ref, cond = toy_setup()
    params.meta["mask_mode"] = "causal"
    with pytest.raises(ValueError):
        zero_shot_experiment(params, x_ref, cond, BlockPlan.default(3), SAMPLER, seed=0)


def test_zero_shot_returns_all_variants_deterministically():
    params, x_ref, cond = toy_setup()
    params.meta["mask_mode"] = "none"
    plan = BlockPlan.default(3)
    a = zero_shot_experiment(params, x_ref, cond, plan, SAMPLER, seed=4)
    b = zero_shot_experiment(params, x_ref, cond, plan, SAMPLER, seed=4)
    assert set(a) == {"same-step", "clean-history", "independent-noise"}
    assert a == b
