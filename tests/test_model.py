import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar.blocks import BlockPlan
from nfar.model import (
    ContextKV,
    DenoiserConfig,
    RopeFrequencies,
    StepTagError,
    block_causal_mask,
    denoiser_forward,
    expand_mask_with_ref,
    init_params,
    rope_angles,
    rope_apply,
    step_conditioning,
    time_embed,
    wrap_params,
)
from nfar.numerics import (
    ShapeError,
    Tensor,
    add,
    attention,
    concat,
    conv1d_strided,
    data_of,
    gated_residual,
    grad_of,
    key_mask,
    layer_norm,
    linear_tanh,
    matmul,
    mul,
    slice2d,
    transformer_layer,
)
from testkit import sum_all

RNG = np.random.default_rng(42)


def small_config(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=16, d_latent=4, d_cond=8, d_ff=16)
    base.update(kw)
    return DenoiserConfig(**base)


def randomized_params(config, seed=0, scale=0.05):
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name in params.denoiser_names():
        params.values[name] = params.values[name] + scale * rng.standard_normal(params.values[name].shape)
    return params


def slab_context(keys, vals, positions, step_tag, room):
    """A ContextKV of the given rotated keys and values, in slabs with `room` rows after them."""
    n_layers, n, d = keys.shape
    slab = np.zeros((2, n_layers, n + room, d), dtype=keys.dtype)
    slab[:, :, :n] = keys, vals
    return ContextKV(slab[0], slab[1], np.asarray(positions), step_tag)


# -- blocks / mask -----------------------------------------------------------

def test_block_plan_default_sizes():
    plan = BlockPlan.default(4)
    assert plan.sizes == (6, 8, 8, 8)
    assert plan.total_chunks == 30
    assert plan.starts == (0, 6, 14, 22)
    assert plan.chunk_range(2) == (14, 22)


def test_block_starts_are_cached_without_changing_plan_identity():
    sizes = tuple(int(s) for s in np.random.default_rng(0).integers(1, 9, size=1000))
    plan = BlockPlan(sizes)
    assert plan.starts == tuple(np.cumsum((0,) + sizes[:-1]))
    assert plan.starts is plan.starts  # built once, not per chunk_range call
    assert plan.chunk_range(999) == (sum(sizes[:-1]), sum(sizes))
    fresh = BlockPlan(sizes)
    assert plan == fresh and hash(plan) == hash(fresh)
    assert {plan: 1}[fresh] == 1
    assert plan != BlockPlan(sizes[:-1] + (sizes[-1] + 1,))


def test_mask_uniform_plans_match_floor_oracle():
    for m in (1, 2, 3, 8):
        for n_blocks in (1, 3, 5):
            n = m * n_blocks
            if n > 40:
                continue
            got = block_causal_mask(BlockPlan.uniform(n_blocks, m))
            for i in range(n):
                for j in range(n):
                    assert got[i, j] == (1.0 if j // m <= i // m else 0.0)


def test_mask_first_block_boundary():
    # Plan (6, 8): chunk 5 sees chunk 0, but not chunk 6.
    mask = block_causal_mask(BlockPlan((6, 8)))
    assert mask[5, 0] == 1.0
    assert mask[5, 6] == 0.0


def test_expand_mask_with_ref_layout():
    mask = expand_mask_with_ref(block_causal_mask(BlockPlan((2, 2))))
    assert mask.shape == (6, 6)
    assert (mask[:2, :2] == 1.0).all() and (mask[:2, 2:] == 0.0).all()
    assert (mask[2:, :2] == 1.0).all()


# -- rope / time embed ---------------------------------------------------------

def test_rope_identity_at_position_zero():
    freqs = RopeFrequencies.create(8, 10000.0)
    x = RNG.standard_normal((3, 8))
    out = rope_apply(Tensor(x), np.zeros(3), freqs)
    assert np.array_equal(out.data, x)


def test_rope_preserves_norm_and_inverts():
    freqs = RopeFrequencies.create(8, 10000.0)
    x = RNG.standard_normal((4, 8))
    pos = np.array([1.0, 5.0, -2.0, 100.0])
    out = rope_apply(Tensor(x), pos, freqs)
    assert np.allclose(np.linalg.norm(out.data, axis=1), np.linalg.norm(x, axis=1))
    back = rope_apply(out, -pos, freqs)
    assert np.abs(back.data - x).max() < 1e-12


def test_rope_rotates_every_head_group_alike():
    freqs = RopeFrequencies.create(4, 100.0)
    x = RNG.standard_normal((3, 12))
    pos = np.array([0.0, 2.0, 9.0])
    out = rope_apply(Tensor(x), pos, freqs).data
    for h in range(3):
        group = slice(4 * h, 4 * h + 4)
        assert np.array_equal(out[:, group], rope_apply(Tensor(x[:, group]), pos, freqs).data)


def test_rope_gradient_is_inverse_rotation():
    freqs = RopeFrequencies.create(4, 100.0)
    x = Tensor(RNG.standard_normal((2, 4)))
    pos = np.array([3.0, 7.0])
    out = rope_apply(x, pos, freqs)
    (g,) = grad_of(sum_all(out), [x])
    expected = rope_apply(Tensor(np.ones((2, 4))), -pos, freqs).data
    assert np.abs(g - expected).max() < 1e-12


def test_time_embed_injective_on_grid():
    d = 16
    grid = np.linspace(0.0, 1.0, 1001)
    embeds = np.stack([time_embed(float(t), d) for t in grid])
    # Sorting by the linear t channel makes the pairwise check O(n log n).
    diffs = np.abs(np.diff(embeds, axis=0)).max(axis=1)
    assert (diffs > 0).all()


def test_time_embed_contains_reciprocal_channel():
    assert time_embed(0.5, 8)[2] == 2.0
    assert time_embed(0.0, 8)[2] == time_embed(0.02, 8)[2]  # clamped


# -- forward ----------------------------------------------------------------

def _single_pass(params, tokens, positions, t, cond, mask):
    return denoiser_forward(wrap_params(params), params.config, tokens, positions, t, cond, mask)


def test_zero_initialized_head_predicts_zero():
    config = small_config()
    params = init_params(config, seed=1)
    plan = BlockPlan((2, 2))
    tokens = RNG.standard_normal((4, 4))
    mask = block_causal_mask(plan)
    vel, _ = _single_pass(params, tokens, np.arange(4), 0.5, np.zeros(8), mask)
    assert (vel.data == 0.0).all()


def test_causality_bitwise_under_later_block_perturbation():
    config = small_config()
    params = randomized_params(config, seed=2)
    plan = BlockPlan((2, 2, 2))
    tokens = RNG.standard_normal((6, 4))
    mask = block_causal_mask(plan)
    base, _ = _single_pass(params, tokens, np.arange(6), 0.4, RNG.standard_normal(8) * 0 + 1, mask)
    for j in range(6):
        perturbed = tokens.copy()
        perturbed[j] += 10.0
        out, _ = _single_pass(params, perturbed, np.arange(6), 0.4, np.ones(8), mask)
        for i in range(6):
            if i // 2 < j // 2:
                assert np.array_equal(out.data[i], base.data[i]), (i, j)


def test_cached_two_pass_equals_single_pass():
    config = small_config()
    params = randomized_params(config, seed=3)
    plan = BlockPlan((3, 3))
    tokens = RNG.standard_normal((6, 4))
    cond = RNG.standard_normal(8)
    t = 0.3
    mask = block_causal_mask(plan)
    full, _ = _single_pass(params, tokens, np.arange(6), t, cond, mask)

    pt = wrap_params(params)
    _, kv1 = denoiser_forward(pt, config, tokens[:3], np.arange(3), t, cond, np.ones((3, 3)))
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    ctx = slab_context(rope_apply(kv1.keys, np.arange(3), freqs), kv1.vals, np.arange(3), t, room=3)
    out2, _ = denoiser_forward(pt, config, tokens[3:], np.arange(3, 6), t, cond,
                               np.ones((3, 6)), ctx=ctx)
    assert np.abs(out2.data - full.data[3:]).max() <= 1e-10


def test_step_tag_mismatch_rejected():
    config = small_config()
    params = init_params(config, seed=4)
    pt = wrap_params(params)
    tokens = RNG.standard_normal((2, 4))
    _, kv = denoiser_forward(pt, config, tokens, np.arange(2), 0.5, np.zeros(8), np.ones((2, 2)))
    ctx = slab_context(kv.rotated, kv.vals, np.arange(2), 0.5, room=2)
    with pytest.raises(StepTagError):
        denoiser_forward(pt, config, tokens, np.arange(2), 0.7, np.zeros(8),
                         np.ones((2, 4)), ctx=ctx)


def _forward_inputs(config, n=6):
    return RNG.standard_normal((n, config.d_latent)), np.arange(n), RNG.standard_normal(config.d_cond)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bare_weights_give_the_taped_forward_bit_for_bit(dtype):
    config = small_config()
    params = randomized_params(config, seed=6)
    rng = np.random.default_rng(6)
    for name in params.compressor_names():
        params.values[name] = params.values[name] + 0.05 * rng.standard_normal(params.values[name].shape)
    params = params.astype(dtype)
    tokens, pos, cond = _forward_inputs(config, n=12)
    ctx_k, ctx_v = rng.standard_normal((2, config.n_layers, 3, config.d_model)).astype(dtype)
    cases = {
        "none": dict(mask=block_causal_mask(BlockPlan((6, 6)))),
        "ctx": dict(mask=np.ones((12, 15)), ctx=slab_context(ctx_k, ctx_v, np.arange(-3, 0), 0.3, room=12)),
        "memory": dict(mask=np.ones((12, 14)), memory=2),  # windows over rows 2..11, after two reference rows
    }
    for case, kw in cases.items():
        bare, bare_kv = denoiser_forward(params.values, config, tokens, pos, 0.3, cond, **kw)
        taped, taped_kv = denoiser_forward(wrap_params(params), config, tokens, pos, 0.3, cond, **kw)
        assert type(bare) is np.ndarray and isinstance(taped, Tensor), case
        assert bare.dtype == dtype and np.array_equal(bare, taped.data), case
        for bare_a, taped_a in zip(bare_kv, taped_kv):
            assert type(bare_a) is np.ndarray and np.array_equal(bare_a, taped_a), case
        step = step_conditioning(params.values, config, 0.3, cond)
        given, _ = denoiser_forward(params.values, config, tokens, pos, 0.3, cond, conditioning=step, **kw)
        assert np.array_equal(given, bare), case


def test_conditioning_of_another_step_rejected():
    config = small_config()
    params = randomized_params(config, seed=7)
    tokens, pos, cond = _forward_inputs(config, n=2)
    step = step_conditioning(params.values, config, 0.5, cond)
    assert step.t == 0.5
    with pytest.raises(StepTagError):
        denoiser_forward(params.values, config, tokens, pos, 0.7, cond, np.ones((2, 2)), conditioning=step)
    with pytest.raises(StepTagError):
        denoiser_forward(wrap_params(params), config, tokens, pos, 0.7, cond, np.ones((2, 2)),
                         conditioning=step_conditioning(wrap_params(params), config, 0.5, cond))
    batch, conds, t = np.stack([tokens, tokens]), np.stack([cond, cond]), np.array([0.5, 0.7])
    steps = step_conditioning(params.values, config, t, conds)
    given, _ = denoiser_forward(params.values, config, batch, pos, t.copy(), conds, np.ones((2, 2)),
                                conditioning=steps)
    assert np.array_equal(given, denoiser_forward(params.values, config, batch, pos, t, conds, np.ones((2, 2)))[0])
    with pytest.raises(StepTagError):
        denoiser_forward(params.values, config, batch, pos, t[::-1], conds, np.ones((2, 2)), conditioning=steps)


def test_mask_key_count_mismatch_rejected():
    config = small_config()
    params = init_params(config, seed=4)
    with pytest.raises(ValueError):
        _single_pass(params, RNG.standard_normal((3, 4)), np.arange(3), 0.5,
                     np.zeros(8), np.ones((3, 5)))


@pytest.mark.parametrize("memory", [2, 1, -1])
def test_memory_windows_that_overrun_the_tokens_rejected(memory):
    # Windows of 5 rows after 2 reference rows: two need 12 tokens, one needs 7, and 6 hold neither.
    config = small_config()
    params = init_params(config, seed=4)
    n = 6
    tokens, pos, cond = _forward_inputs(config, n=n)
    with pytest.raises(ShapeError, match="memory windows"):
        denoiser_forward(params.values, config, tokens, pos, 0.5, cond, np.ones((n, n + memory)), memory=memory)


def test_finite_inputs_finite_outputs():
    config = small_config(n_layers=3)
    params = randomized_params(config, seed=5, scale=0.5)
    tokens = RNG.standard_normal((6, 4)) * 100
    vel, _ = _single_pass(params, tokens, np.arange(6), 0.02, np.ones(8) * 50,
                          block_causal_mask(BlockPlan((3, 3))))
    assert np.isfinite(vel.data).all()


def test_config_validation():
    with pytest.raises(ValueError):
        DenoiserConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        DenoiserConfig(d_model=9, n_heads=3)  # odd head_dim breaks rotary pairs
    DenoiserConfig(d_model=12, n_heads=3)  # head_dim 4, fine
    for n_ref in (3, 1, 0, -1):  # the cache and the CLI stream exactly two reference chunks
        with pytest.raises(ValueError, match="n_ref_chunks"):
            DenoiserConfig(n_ref_chunks=n_ref)
    for n_layers in (0, -1):
        with pytest.raises(ValueError, match="n_layers"):
            DenoiserConfig(n_layers=n_layers)
    for base in (float("nan"), float("inf"), -float("inf"), 0.0, -2.0):
        with pytest.raises(ValueError, match="rope_base"):
            DenoiserConfig(rope_base=base)
    DenoiserConfig(n_layers=1, rope_base=2.0)


def test_a_batched_step_is_refused_by_a_one_step_forward():
    config = small_config()
    params = randomized_params(config, seed=8)
    tokens, pos, cond = _forward_inputs(config, n=2)
    steps = step_conditioning(params.values, config, np.array([0.5, 0.7]), np.stack([cond, cond]))
    with pytest.raises(StepTagError):
        denoiser_forward(params.values, config, tokens, pos, 0.5, cond, np.ones((2, 2)), conditioning=steps)
    one = step_conditioning(params.values, config, 0.5, cond)
    with pytest.raises(StepTagError):  # and the other way round
        denoiser_forward(params.values, config, np.stack([tokens, tokens]), pos, np.array([0.5, 0.5]),
                         np.stack([cond, cond]), np.ones((2, 2)), conditioning=one)


def test_a_batched_forward_has_no_room_in_a_context():
    config = small_config()
    params = randomized_params(config, seed=9)
    tokens, pos, cond = _forward_inputs(config, n=2)
    ctx_k, ctx_v = RNG.standard_normal((2, config.n_layers, 3, config.d_model))
    ctx = slab_context(ctx_k, ctx_v, np.arange(-3, 0), 0.5, room=4)
    with pytest.raises(ShapeError, match="no room"):
        denoiser_forward(params.values, config, np.stack([tokens, tokens]), pos, np.array([0.5, 0.5]),
                         np.stack([cond, cond]), np.ones((2, 5)), ctx=ctx)


# -- one transformer layer against the chain of public ops ---------------------

def slab_rows(slab, start, a):
    """Write rows `a` into `slab` at row `start` and return the slab's rows up to them, a view: on the tape,
    only `a` gets a gradient, the view's last rows'."""
    stop = start + data_of(a).shape[-2]
    slab[start:stop] = data_of(a)
    return Tensor(slab[:stop], (a,), lambda g: (g[start:],)) if isinstance(a, Tensor) else slab[:stop]


def chain_layer(h, weights, step, pos, key_pos, freqs, mask, n_heads, slabs=None, memory=None):
    """The layer as the chain of public ops it stands for, on the tape of its Tensor operands."""
    g1, b1, wqkv, wo, bo, g3, b3, w1, c1, w2, c2 = weights
    s1, t1, gate1, cond, s3, t3, gate3 = step
    d = data_of(wqkv).shape[0]
    n = data_of(h).shape[-2]
    u = layer_norm(h, g1, b1, s1, t1)
    qkv = matmul(u, wqkv)
    q, k, v = (slice2d(qkv, cols=slice(i * d, (i + 1) * d)) for i in range(3))
    keys, vals = data_of(k), data_of(v)
    if memory is not None:
        span, wk, bk, wv, bv = memory
        k = concat([k, conv1d_strided(slice2d(k, rows=span), wk, bk)])
        v = concat([v, conv1d_strided(slice2d(v, rows=span), wv, bv)])
    k = rope_apply(k, key_pos, freqs)
    rotated = data_of(k)[..., :n, :]
    if slabs is not None:
        key_slab, val_slab, unrotated_slab, start = slabs
        if unrotated_slab is not None:
            unrotated_slab[start:start + n] = keys
        k, v = slab_rows(key_slab, start, k), slab_rows(val_slab, start, v)
    heads = attention(rope_apply(q, pos, freqs), k, v, mask, n_heads)
    h = add(gated_residual(h, heads, wo, bo, gate1), cond)
    f1 = linear_tanh(layer_norm(h, g3, b3, s3, t3), w1, c1)
    return gated_residual(h, f1, w2, c2, gate3), keys, rotated, vals


@st.composite
def layer_cases(draw):
    n_heads, hd = draw(st.integers(1, 2)), draw(st.sampled_from([2, 4]))
    d, dff, n = n_heads * hd, draw(st.integers(1, 6)), draw(st.integers(1, 6))
    context = draw(st.sampled_from(["none", "bounded", "unbounded", "memory"]))
    lead = () if context in ("bounded", "unbounded") else draw(st.sampled_from([(), (2,), (3,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def a(*shape):
        return rng.standard_normal(shape).astype(dtype)

    weights = [a(d), a(d), a(d, 3 * d), a(d, d), a(d), a(d), a(d), a(d, dff), a(dff), a(dff, d), a(d)]
    step = [a(*lead, 1, d) for _ in range(7)]
    pos = rng.integers(-2, 30, size=n).astype(float)
    m, n_ctx, memory, ratio = n, 0, [], draw(st.integers(1, 3))
    if context == "memory":
        n_mem = draw(st.integers(1, n // ratio)) if n >= ratio else 0
        start = draw(st.integers(0, n - n_mem * ratio))
        memory = [slice(start, start + n_mem * ratio), a(ratio, d, d), a(d), a(ratio, d, d), a(d)] if n_mem else []
        m += n_mem
    elif context != "none":
        n_ctx = draw(st.integers(0, 5))
        m += n_ctx
    mask = np.ones((n, m))
    if draw(st.booleans()):  # a partial mask that leaves every row a key
        mask = (rng.random((n, m)) < 0.5).astype(float)
        mask[np.arange(n), rng.integers(0, m, size=n)] = 1.0
    operands = [a(*lead, n, d), *weights, *step, *memory[1:]]
    taped = draw(st.lists(st.booleans(), min_size=len(operands), max_size=len(operands)))
    return dict(operands=operands, taped=taped, pos=pos, mask=mask, n_heads=n_heads, context=context, n_ctx=n_ctx,
                span=memory[0] if memory else None, ratio=ratio, rng=rng, dtype=dtype)


def _slabs(case, d):
    """Two identical sets of slabs, each (rows, d) with random context rows: the layer's and the chain's."""
    n_ctx, n, rng, dtype = case["n_ctx"], case["operands"][0].shape[-2], case["rng"], case["dtype"]
    rows = n_ctx + n + 2
    filled = [rng.standard_normal((rows, d)).astype(dtype) for _ in range(3)]
    out = []
    for _ in range(2):
        if case["context"] == "bounded":
            slabs = [f.copy() for f in filled]
        else:  # the unbounded cache's keys are stored rows last; it keeps no un-rotated keys
            key_slab = np.empty((d, rows), dtype).swapaxes(0, 1)
            key_slab[...] = filled[0]
            slabs = [key_slab, filled[1].copy(), None]
        out.append((*slabs, n_ctx))
    return out


@settings(max_examples=80, deadline=None)
@given(case=layer_cases())
def test_the_layer_is_the_chain_of_ops_bit_for_bit(case):
    ops, taped, pos, mask, n_heads = case["operands"], case["taped"], case["pos"], case["mask"], case["n_heads"]
    d = ops[1].shape[0]
    freqs = RopeFrequencies.create(d // n_heads, 100.0)
    n, span = ops[0].shape[-2], case["span"]
    key_pos = pos if span is None else np.concatenate([pos, pos[span][::case["ratio"]]])
    layer_slabs, chain_slabs = _slabs(case, d) if case["context"] in ("bounded", "unbounded") else (None, None)
    results = []
    for run in ("layer", "chain"):
        leaves = [Tensor(o) if t else o for o, t in zip(ops, taped)]
        h, weights, step, kernels = leaves[0], leaves[1:12], leaves[12:19], leaves[19:]
        memory = None if span is None else (span, *kernels)
        if run == "layer":
            angles = rope_angles(pos, freqs, case["dtype"])
            key_angles = None if span is None else rope_angles(key_pos, freqs, case["dtype"])
            out, *kv = transformer_layer(h, weights, step, angles, key_mask(mask, n, mask.shape[1]), n_heads,
                                         key_angles, layer_slabs, memory)
        else:
            out, *kv = chain_layer(h, weights, step, pos, key_pos, freqs, mask, n_heads, chain_slabs, memory)
        grads = []
        if any(taped):
            proj = np.random.default_rng(0).standard_normal(out.shape).astype(case["dtype"])
            grads = grad_of(sum_all(mul(out, proj)), [leaf for leaf in leaves if isinstance(leaf, Tensor)])
        else:
            assert type(out) is np.ndarray
        results.append([data_of(out), *kv, *grads])
    for got, want in zip(*results, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    if layer_slabs is not None:  # the K/V the layer wrote, and every row it left alone
        for got, want in zip(layer_slabs[:3], chain_slabs[:3]):
            assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))
