from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar import streaming
from nfar.blocks import BlockPlan
from nfar.checks import TINY, randomized_params
from nfar.convkv import cache_roll, new_cache, set_reference
from nfar.model import DenoiserConfig, denoiser_forward, init_params, step_conditioning
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
    params = params.astype(np.float32)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False, seed=5)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=5)
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


def test_report_times_the_setup_before_block_zero(monkeypatch):
    params, x_ref, cond = toy_setup()
    calls = []
    prefill = streaming._prefill_reference
    monkeypatch.setattr(streaming, "_prefill_reference", lambda *a: calls.append(a) or prefill(*a))
    _, report = generate_stream(params, x_ref, cond, BlockPlan.default(2), SAMPLER, seed=2)
    assert len(calls) == 1  # one batched prefill for every sampler step
    assert report.setup_seconds > 0.0
    assert f"setup time: {report.setup_seconds:.4f}s" in report.summary()


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


@pytest.mark.parametrize("use_convkv", [True, False])
def test_the_oracle_uses_none_of_the_cache_code(monkeypatch, use_convkv):
    # The oracle is the training forward run block by block, so a defect in
    # the stream's own cache code cannot cancel out of the comparison.
    params, x_ref, cond = toy_setup()

    def never(*args, **kwargs):
        raise AssertionError("the oracle called the stream's cache code")

    for name in ("new_cache", "_prefill_reference", "set_reference", "cache_context_view"):
        monkeypatch.setattr(streaming, name, never)
    generate_full_recompute(params, x_ref, cond, BlockPlan.default(3), SAMPLER, seed=1, use_convkv=use_convkv)


def test_the_oracle_catches_a_reference_rotated_one_position_early(monkeypatch):
    params, x_ref, cond = toy_setup()
    plan = BlockPlan.default(3)

    def early(weights, config, x_ref, cond, cache, steps):
        n_steps, pos = steps.t.size, np.arange(-2, 0)
        batch, conds = np.repeat(x_ref[None], n_steps, axis=0), np.broadcast_to(cond, (n_steps, np.size(cond)))
        _, kv = denoiser_forward(weights, config, batch, pos - 1, steps.t, conds, np.ones((2, 2)),
                                 conditioning=steps)
        set_reference(cache, kv, pos)

    monkeypatch.setattr(streaming, "_prefill_reference", early)
    seq, _ = generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=False, seed=5)
    oracle = generate_full_recompute(params, x_ref, cond, plan, SAMPLER, seed=5)
    assert np.abs(seq.values - oracle.values).max() > 1e-10


@pytest.mark.parametrize("use_convkv", [True, False])
def test_a_stream_makes_one_cache_and_rolls_it_once_per_block(monkeypatch, use_convkv):
    params, x_ref, cond = toy_setup()
    made, rolls = [], []

    def making(*args, **kwargs):
        made.append(new_cache(*args, **kwargs))
        return made[-1]

    def rolling(cache, *args, **kwargs):
        rolls.append(cache)
        cache_roll(cache, *args, **kwargs)

    monkeypatch.setattr(streaming, "new_cache", making)
    monkeypatch.setattr(streaming, "cache_roll", rolling)
    plan = BlockPlan.default(5)
    generate_stream(params, x_ref, cond, plan, SAMPLER, use_convkv=use_convkv, seed=1)
    assert len(made) == 1 and made[0].steps == tuple(SAMPLER.grid[:-1])
    assert len(rolls) == plan.n_blocks and all(cache is made[0] for cache in rolls)


@pytest.mark.parametrize("use_convkv", [True, False])
def test_unknown_compression_mode_is_refused_before_any_work(monkeypatch, use_convkv):
    params, x_ref, cond = toy_setup()

    def never(*args, **kwargs):
        raise AssertionError("the stream was set up before its compression mode was checked")

    monkeypatch.setattr(streaming, "_step_conditionings", never)
    monkeypatch.setattr(streaming, "new_cache", never)
    with pytest.raises(ValueError, match="unknown compression mode 'average'"):
        generate_stream(params, x_ref, cond, BlockPlan.default(2), SAMPLER, use_convkv=use_convkv,
                        compression_mode="average")


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8), lam=st.integers(1, 6), n_steps=st.integers(1, 3),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 1000))
def test_bounded_stream_equals_the_bounded_oracle(sizes, lam, n_steps, dtype, seed):
    # The bounded cache shows each block what stage 2 trains it to see: streaming
    # equals the stage-2 forward under convkv.bounded_view, with a compressor
    # that is not the averaging init.
    params = randomized_params(replace(TINY, compress_ratio=lam), seed=seed, compressor=True).astype(dtype)
    rng = np.random.default_rng(seed)
    x_ref, cond = rng.standard_normal((2, TINY.d_latent)), rng.standard_normal(TINY.d_cond)
    plan, sampler = BlockPlan(tuple(sizes)), SamplerConfig.uniform(n_steps)
    seq, _ = generate_stream(params, x_ref, cond, plan, sampler, use_convkv=True, seed=seed)
    oracle = generate_full_recompute(params, x_ref, cond, plan, sampler, seed=seed, use_convkv=True)
    assert np.abs(seq.values - oracle.values).max() <= (1e-10 if dtype == np.float64 else 1e-4)


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


def conditioning_arrays(step):
    out = [step.freqs.freqs]
    for part in [*step.layers, {"final": step.final}]:
        for name in sorted(part):
            out += list(part[name]) if isinstance(part[name], tuple) else [part[name]]
    return out


@settings(max_examples=40, deadline=None)
@given(n_steps=st.sampled_from([1, 2, 3]), dtype=st.sampled_from([np.float64, np.float32]),
       n_layers=st.sampled_from([1, 2, 3]), n_heads=st.sampled_from([1, 2, 4]), seed=st.integers(0, 1000))
def test_batched_setup_equals_one_step_at_a_time(n_steps, dtype, n_layers, n_heads, seed):
    # A stream's setup builds every step's conditioning and reference K/V in
    # one batched call each; step k of it must equal, bit for bit, what a
    # one-step build and a one-step forward at t_k give.
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads)
    params = randomized_params(config, seed=seed).astype(dtype)
    rng = np.random.default_rng(seed)
    x_ref = rng.standard_normal((2, config.d_latent)).astype(dtype)
    cond = rng.standard_normal(config.d_cond)
    sampler = SamplerConfig.uniform(n_steps)
    batch, steps = streaming._step_conditionings(params, cond, sampler)
    cache = new_cache(config.n_layers, config.d_model, sampler.grid[:-1], batch.freqs, dtype=dtype)
    streaming._prefill_reference(params.values, config, x_ref, cond, cache, batch)
    assert len(steps) == len(cache.steps) == n_steps
    ref = cache.reference
    for k, (t, step) in enumerate(zip(sampler.grid[:-1], steps)):
        one = step_conditioning(params.values, config, float(t), cond)
        assert type(step.t) is float and step.t == one.t
        for got, want in zip(conditioning_arrays(step), conditioning_arrays(one), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        _, kv = denoiser_forward(params.values, config, x_ref, np.arange(-2, 0), float(t), cond, np.ones((2, 2)))
        for got, want in ((ref.keys, kv.keys), (ref.rotated, kv.rotated), (ref.vals, kv.vals)):
            assert got.dtype == want.dtype and np.array_equal(got[:, k], want)
