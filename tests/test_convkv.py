from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfar import numerics, streaming
from nfar.blocks import BlockPlan
from nfar.checks import TINY, randomized_params
from nfar.convkv import (
    LAYOUT,
    LONG_TERM_CAPACITY,
    SHORT_TERM_CAPACITY,
    CacheStepError,
    Segment,
    bounded_view,
    cache_append,
    cache_context_view,
    cache_roll,
    coverage_accounting,
    new_cache,
    set_reference,
)
from nfar.model import (
    BlockKV,
    DenoiserConfig,
    RopeFrequencies,
    denoiser_forward,
    init_params,
    rope_apply,
    wrap_params,
)
from nfar.io import load_checkpoint, save_checkpoint
from nfar.numerics import Tensor, window_products
from nfar.schedule import SamplerConfig
from nfar.synthdata import LatentDynamics, make_dataset
from nfar.training import TrainConfig, train_stage2_convkv
from testkit import non_current_digest, segment_digest, snapshot

RNG = np.random.default_rng(99)
N_LAYERS, D_KV = 2, 16
FREQS = RopeFrequencies.create(D_KV // 2, 10000.0)  # two heads, as in averaging_comp


def fake_kv(positions, dtype=np.float64, lead=()):
    """Random K/V of chunks at `positions`, (N_LAYERS, *lead, n, D_KV), keys also rotated by them, as a
    forward returns it."""
    keys, vals = RNG.standard_normal((2, N_LAYERS, *lead, len(positions), D_KV)).astype(dtype)
    return BlockKV(keys, rope_apply(keys, positions, FREQS), vals)


def make_ready_cache(steps=(0.5,), **kwargs):
    cache = new_cache(N_LAYERS, D_KV, steps, FREQS, **kwargs)
    set_reference(cache, fake_kv([-2, -1], lead=(len(steps),)), [-2, -1])
    return cache


def averaging_comp(lam=5):
    config = DenoiserConfig(n_layers=N_LAYERS, d_model=D_KV, n_heads=2,
                            d_latent=4, d_cond=4, d_ff=8, compress_ratio=lam)
    weights = init_params(config, seed=0).values
    return weights["compressor.w"], weights["compressor.b"]


def run_blocks(cache, comp, sizes, mode="conv"):
    pos = cache.next_chunk_id
    for n in sizes:
        positions = list(range(pos, pos + n))
        cache_append(cache, fake_kv(positions), positions, 0)
        pos += n
        cache_roll(cache, comp, mode=mode)
    return pos


STEPS = (0.75, 0.5, 0.25)


def refused(cache, call):
    """`call` raises CacheStepError and leaves the cache as it was."""
    before = (snapshot(cache), cache.appended)
    with pytest.raises(CacheStepError):
        call()
    assert (snapshot(cache), cache.appended) == before


@pytest.mark.parametrize("bounded", [True, False])
def test_append_out_of_step_order_is_refused(bounded):
    cache, block = make_ready_cache(STEPS, bounded=bounded), [0, 1, 2]
    refused(cache, lambda: cache_append(cache, fake_kv(block), block, 1))
    cache_append(cache, fake_kv(block), block, 0)
    refused(cache, lambda: cache_append(cache, fake_kv(block), block, 2))


@pytest.mark.parametrize("bounded", [True, False])
def test_repeated_step_is_refused(bounded):
    cache, block = make_ready_cache(STEPS, bounded=bounded), [0, 1, 2]
    for k in range(len(STEPS)):
        cache_append(cache, fake_kv(block), block, k)
        refused(cache, lambda: cache_append(cache, fake_kv(block), block, k))
    refused(cache, lambda: cache_append(cache, fake_kv(block), block, len(STEPS)))  # every step has appended
    cache_roll(cache, None, mode="subsample")
    refused(cache, lambda: cache_append(cache, fake_kv([3]), [3], 1))  # a new block starts at step 0


@pytest.mark.parametrize("bounded", [True, False])
def test_roll_before_every_step_has_appended_is_refused(bounded):
    cache, block = make_ready_cache(STEPS, bounded=bounded), [0, 1, 2]
    refused(cache, lambda: cache_roll(cache, None, mode="subsample"))
    for k in range(len(STEPS)):
        refused(cache, lambda: cache_roll(cache, None, mode="subsample"))
        cache_append(cache, fake_kv(block), block, k)
    cache_roll(cache, None, mode="subsample")
    refused(cache, lambda: cache_roll(cache, None, mode="subsample"))


def test_view_past_the_steps_is_refused_and_views_carry_their_step():
    cache = make_ready_cache(STEPS)
    for k in (len(STEPS), -1):
        with pytest.raises(CacheStepError):
            cache_context_view(cache, k)
    views = [cache_context_view(cache, k) for k in range(len(STEPS))]
    assert [ctx.step_tag for ctx in views] == list(STEPS)
    for k, ctx in enumerate(views):  # step k's reference rows, and only step k's
        assert np.array_equal(ctx.keys, cache.reference.rotated[:, k])


def test_append_rejects_positions_that_do_not_continue():
    cache = make_ready_cache((0.5, 0.25))
    for k in range(2):
        cache_append(cache, fake_kv([0, 1, 2]), [0, 1, 2], k)
    cache_roll(cache, None, mode="subsample")
    for bad in ([4, 5, 6], [2, 3, 4], [3, 5, 4]):  # step 0 continues from the last block
        with pytest.raises(ValueError):
            cache_append(cache, fake_kv(bad), bad, 0)
    cache_append(cache, fake_kv([3, 4, 5]), [3, 4, 5], 0)
    for bad in ([4, 5, 6], [3, 4], [3, 4, 5, 6]):  # a later step repeats step 0's positions
        with pytest.raises(ValueError):
            cache_append(cache, fake_kv(bad), bad, 1)
    cache_append(cache, fake_kv([3, 4, 5]), [3, 4, 5], 1)


def test_reference_capacity_enforced():
    cache = new_cache(N_LAYERS, D_KV, [0.5], FREQS)
    for bad in (fake_kv([-3, -2, -1], lead=(1,)), fake_kv([-2, -1]), fake_kv([-2, -1], lead=(2,))):
        with pytest.raises(ValueError):
            set_reference(cache, bad, list(range(-bad.vals.shape[-2], 0)))


def test_append_is_append_only():
    cache = make_ready_cache()
    cache_append(cache, fake_kv(range(6)), list(range(6)), 0)
    cache_roll(cache, averaging_comp())
    before = non_current_digest(cache)
    cache_append(cache, fake_kv(range(6, 14)), list(range(6, 14)), 0)
    assert non_current_digest(cache) == before


def test_roll_arithmetic_first_blocks():
    # Block 1 (6 chunks): 4 pending, no compression yet; block 2 (8): first
    # two windows compress; context is 6 chunks from then on.
    cache = make_ready_cache()
    comp = averaging_comp()
    run_blocks(cache, comp, [6])
    assert (cache.long_term.n_chunks, cache.short_term.n_chunks, cache.pending.n_chunks) == (0, 2, 4)
    assert cache.context_chunks == 4
    run_blocks(cache, comp, [8])
    assert (cache.long_term.n_chunks, cache.short_term.n_chunks, cache.pending.n_chunks) == (2, 2, 2)
    assert cache.context_chunks == 6
    for _ in range(5):
        run_blocks(cache, comp, [8])
        assert cache.context_chunks == 6
        assert cache.pending.n_chunks < cache.lam


def test_fifo_eviction_and_coverage_conservation():
    cache = make_ready_cache()
    comp = averaging_comp()
    total = run_blocks(cache, comp, [6] + [8] * 20)
    acc = coverage_accounting(cache)
    ids = sorted(sum(acc.values(), []))
    assert ids == list(range(total))
    # Dropped spans leave in arrival order.
    assert acc["dropped"] == sorted(acc["dropped"])
    assert cache.long_term.n_chunks == LONG_TERM_CAPACITY


def test_bounded_cache_keeps_nothing_that_grows_with_the_stream():
    # Arrays measured by nbytes and containers by len, everything the cache
    # holds is as big after 2,000 rolls as after 10.
    def size(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            return len(value), [size(v) for v in value]
        if hasattr(value, "__dict__"):
            return size(vars(value))
        return None

    cache, comp = make_ready_cache(), averaging_comp()
    run_blocks(cache, comp, [6] + [8] * 9)
    early = {name: size(value) for name, value in vars(cache).items()}
    run_blocks(cache, comp, [8] * 1990)
    assert cache.next_chunk_id == 6 + 8 * 1999 and len(cache.dropped_spans) > 3000
    assert {name: size(value) for name, value in vars(cache).items()} == early


def test_compressed_position_is_window_start():
    cache = make_ready_cache()
    run_blocks(cache, averaging_comp(), [6, 8])
    assert cache.long_term.positions.tolist() == [0.0, 5.0]
    assert cache.long_term.spans == [(0, 5), (5, 10)]


def test_averaging_init_reproduces_window_mean():
    W, b = averaging_comp()
    assert W.shape == (2 * N_LAYERS, 5, D_KV, D_KV) and b.shape == (2 * N_LAYERS, D_KV)
    KV = RNG.standard_normal((2 * N_LAYERS, 10, D_KV))  # key layers, then value layers
    m = window_products(KV, W, b)
    assert m.shape == (2 * N_LAYERS, 2, D_KV)
    assert np.abs(m - KV.reshape(2 * N_LAYERS, 2, 5, D_KV).mean(axis=2)).max() < 1e-12


def test_rope_reset_angle_matches_position_s():
    # Consuming a compressed chunk rotates it by the window-start tag s;
    # check against a manual rotation by angle s * freq per dimension pair.
    cache = make_ready_cache()
    run_blocks(cache, averaging_comp(), [6, 8])
    freqs = RopeFrequencies.create(D_KV, 10000.0)
    s = float(cache.long_term.positions[1])
    stored = cache.long_term.keys[0, 0, 1:2]
    consumed = rope_apply(Tensor(stored), np.array([s]), freqs).data[0]
    half = D_KV // 2
    ang = s * freqs.freqs
    manual = np.concatenate([
        stored[0, :half] * np.cos(ang) - stored[0, half:] * np.sin(ang),
        stored[0, :half] * np.sin(ang) + stored[0, half:] * np.cos(ang),
    ])
    assert s == 5.0
    assert np.abs(consumed - manual).max() < 1e-12


def test_context_view_order_and_labels():
    cache = make_ready_cache()
    run_blocks(cache, averaging_comp(), [6, 8, 8])
    ctx = cache_context_view(cache, 0)
    labels = [name for name in LAYOUT for _ in range(cache.counts[name])]  # context rows' segments
    assert labels == ["reference"] * 2 + ["long_term"] * 2 + ["short_term"] * 2
    assert ctx.positions.tolist() == [-2, -1, 10, 15, 20, 21]
    assert ctx.n_tokens == 6
    assert ctx.step_tag == 0.5


def test_unbounded_mode_accumulates_history():
    cache = make_ready_cache(bounded=False)
    run_blocks(cache, None, [6, 8, 8])
    assert cache.history.n_chunks == 22
    assert cache.context_chunks == 24


def test_subsample_mode_needs_no_weights():
    cache = make_ready_cache()
    run_blocks(cache, None, [6, 8], mode="subsample")
    assert cache.long_term.n_chunks == 2
    with pytest.raises(ValueError):
        run_blocks(make_ready_cache(), None, [6, 8], mode="conv")


def test_roll_rejects_a_bad_compressor_or_mode():
    W, b = averaging_comp()
    for comp, mode in (((W[:, :3], b), "conv"), (None, "conv"), ((W, b), "average")):
        cache = make_ready_cache()
        cache_append(cache, fake_kv(range(8)), list(range(8)), 0)
        with pytest.raises(ValueError):
            cache_roll(cache, comp, mode=mode)


def test_snapshot_mentions_every_segment():
    text = snapshot(make_ready_cache())
    for name in ("reference", "long_term", "short_term", "pending", "current"):
        assert name in text


def test_float32_cache_stays_float32():
    for weight_dtype in (np.float32, np.float64):  # the cache's dtype wins over the weights'
        cache = new_cache(N_LAYERS, D_KV, [0.5], FREQS, dtype=np.float32)
        set_reference(cache, fake_kv([-2, -1], np.float32, lead=(1,)), [-2, -1])
        comp = tuple(a.astype(weight_dtype) for a in averaging_comp())
        pos = 0
        for n in (6, 8, 8):
            positions = list(range(pos, pos + n))
            cache_append(cache, fake_kv(positions, np.float32), positions, 0)
            pos += n
            cache_roll(cache, comp)
        ctx = cache_context_view(cache, 0)
        assert ctx.keys.dtype == np.float32 and ctx.vals.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rolled_memory_equals_training_memory_bit_for_bit(dtype, monkeypatch):
    # Stage-2 training convolves a span inline in denoiser_forward, from the
    # first row after the two reference rows; the cache compresses the same
    # K/V window by window as rolls fill them. Both must give the same bits
    # for 1-, 2- (the default stage-2 span) and 3-window spans.
    config = DenoiserConfig()
    params = randomized_params(config, seed=4)
    rng = np.random.default_rng(4)
    for name in params.values:
        if name.startswith("compressor."):
            params.values[name] = params.values[name] + 0.05 * rng.standard_normal(params.values[name].shape)
    params = params.astype(dtype)
    ptensors = wrap_params(params)
    lam, n_ref, n = config.compress_ratio, config.n_ref_chunks, 22
    x = rng.standard_normal((n_ref + n, config.d_latent))
    cond = rng.standard_normal(config.d_cond)

    conv, trained = numerics.window_products, []

    def recording_conv(*args):  # the layer's memory convolutions; the cache's roll calls its own import
        trained.append(conv(*args))
        return trained[-1]

    monkeypatch.setattr(numerics, "window_products", recording_conv)
    for n_win in (1, 2, 3):
        trained.clear()
        _, kv = denoiser_forward(ptensors, config, x, np.arange(-n_ref, n), 0.5, cond,
                                 np.ones((n_ref + n, n_ref + n + n_win)), memory=n_win)
        assert len(trained) == 2 * config.n_layers  # per layer: keys, then values

        cache = new_cache(config.n_layers, config.d_model, [0.5], lam=lam, dtype=dtype,
                          freqs=RopeFrequencies.create(config.head_dim, config.rope_base))
        rolled = {}
        for a, e in ((0, 6), (6, 14), (14, 22)):
            cache_append(cache, BlockKV(*(arr[:, n_ref + a:n_ref + e] for arr in kv)), list(range(a, e)), 0)
            cache_roll(cache, (params.values["compressor.w"], params.values["compressor.b"]))
            for i, span in enumerate(cache.long_term.spans):
                rolled[span] = (cache.long_term.keys[:, 0, i], cache.long_term.vals[:, 0, i])
        for w in range(n_win):
            keys, vals = rolled[(w * lam, (w + 1) * lam)]
            for l in range(config.n_layers):
                assert np.array_equal(trained[2 * l][w], keys[l])
                assert np.array_equal(trained[2 * l + 1][w], vals[l])


def roll_and_check(sizes, mode, dtype, lam=5):
    """Roll blocks of the given sizes, checking the ledger after every roll.

    Returns the most windows one roll compressed and the most long-term
    chunks one roll evicted.
    """
    W, b = averaging_comp(lam)
    W = (W + 0.05 * RNG.standard_normal(W.shape)).astype(dtype)
    b = b.astype(dtype)
    cache = new_cache(N_LAYERS, D_KV, [0.5], FREQS, lam=lam, dtype=dtype)
    raw_k = np.zeros((N_LAYERS, 0, D_KV), dtype=dtype)
    raw_v = np.zeros((N_LAYERS, 0, D_KV), dtype=dtype)
    most_windows = most_evicted = 0
    for n in sizes:
        positions = list(range(cache.next_chunk_id, cache.next_chunk_id + n))
        kv = fake_kv(positions, dtype)
        raw_k = np.concatenate([raw_k, kv.keys], axis=1)
        raw_v = np.concatenate([raw_v, kv.vals], axis=1)
        before = cache.dropped_spans + cache.long_term.spans
        dropped_before = len(cache.dropped_spans)
        cache_append(cache, kv, positions, 0)
        cache_roll(cache, (W, b), mode=mode)

        acc = coverage_accounting(cache)
        assert sorted(sum(acc.values(), [])) == list(range(raw_k.shape[1]))
        # The layout is a closed form of the chunk count and the last block's size.
        total, short = raw_k.shape[1], min(SHORT_TERM_CAPACITY, n)
        windows = (total - short) // lam
        kept = min(windows, LONG_TERM_CAPACITY)
        assert cache.next_chunk_id == total
        assert cache.counts == dict(cache.counts, short_term=short, long_term=kept, current=0,
                                    pending=total - short - lam * windows)
        assert len(acc["dropped"]) == lam * (windows - kept)
        assert cache.pending.n_chunks < cache.lam
        assert cache.long_term.n_chunks <= LONG_TERM_CAPACITY
        assert cache.long_term.positions.tolist() == [s for s, _ in cache.long_term.spans]
        # FIFO: windows join at the back in chunk order and leave from the front.
        after = cache.dropped_spans + cache.long_term.spans
        assert after[:len(before)] == before
        assert all(e == s2 for (_, e), (s2, _) in zip(after, after[1:]))
        most_windows = max(most_windows, len(after) - len(before))
        most_evicted = max(most_evicted, len(cache.dropped_spans) - dropped_before)
        for i, (s, e) in enumerate(cache.long_term.spans):
            if mode == "conv":
                want_k = window_products(raw_k[:, s:e], W[:N_LAYERS], b[:N_LAYERS])[:, 0]
                want_v = window_products(raw_v[:, s:e], W[N_LAYERS:], b[N_LAYERS:])[:, 0]
            else:
                want_k, want_v = raw_k[:, s], raw_v[:, s]
            assert np.array_equal(cache.long_term.keys[:, 0, i], want_k)
            assert np.array_equal(cache.long_term.vals[:, 0, i], want_v)
    return most_windows, most_evicted


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 20), min_size=1, max_size=12),
       mode=st.sampled_from(["conv", "subsample"]),
       dtype=st.sampled_from([np.float64, np.float32]), lam=st.integers(1, 6))
@example(sizes=[20, 20, 3, 17], mode="conv", dtype=np.float64, lam=5)
def test_roll_ledger_over_random_block_sizes(sizes, mode, dtype, lam):
    roll_and_check(sizes, mode, dtype, lam)


def test_roll_ledger_covers_multi_window_rolls():
    # The explicit example above: a roll compressing >= 3 windows and one
    # evicting more than one long-term chunk.
    most_windows, most_evicted = roll_and_check([20, 20, 3, 17], "conv", np.float64)
    assert most_windows >= 3 and most_evicted > 1


@settings(max_examples=60, deadline=None)
@given(n_steps=st.integers(1, 4), lam=st.integers(1, 6), sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       dtype=st.sampled_from([np.float64, np.float32]), kind=st.sampled_from(["conv", "subsample", "unbounded"]))
def test_each_step_equals_a_one_step_cache(n_steps, lam, sizes, dtype, kind):
    # Step k of a T-step cache holds, bit for bit, what a one-step cache fed
    # step k's K/V holds, after every append and every roll. Blocks of more
    # than 8 chunks double the slabs at their append.
    W, b = averaging_comp(lam)
    comp = ((W + 0.05 * RNG.standard_normal(W.shape)).astype(dtype), b.astype(dtype))
    mode, steps = "conv" if kind == "unbounded" else kind, np.linspace(1.0, 0.0, n_steps, endpoint=False)
    cache = new_cache(N_LAYERS, D_KV, steps, FREQS, lam, kind != "unbounded", dtype)
    ref = fake_kv([-2, -1], dtype, (n_steps,))
    set_reference(cache, ref, [-2, -1])
    ones = [new_cache(N_LAYERS, D_KV, [t], FREQS, lam, cache.bounded, dtype) for t in steps]
    for k, one in enumerate(ones):
        set_reference(one, BlockKV(*(a[:, k:k + 1] for a in ref)), [-2, -1])

    def same(k):
        one, filled = ones[k], cache.context_chunks + cache.counts["current"]
        for slab, one_slab in zip(cache.slabs, one.slabs, strict=True):
            assert np.array_equal(slab[:, k, :filled], one_slab[:, 0, :filled])
        assert np.array_equal(cache.positions[:filled], one.positions[:filled])
        pending = cache.counts["pending"]
        assert np.array_equal(cache.pending_kv[:, :, k, :pending], one.pending_kv[:, :, 0, :pending])
        assert (cache.counts, cache.next_chunk_id) == (one.counts, one.next_chunk_id)
        assert coverage_accounting(cache) == coverage_accounting(one)

    for n in sizes:
        positions = list(range(cache.next_chunk_id, cache.next_chunk_id + n))
        kv = fake_kv(positions, dtype, lead=(n_steps,))
        for k in range(n_steps):
            cache_append(cache, BlockKV(*(a[:, k] for a in kv)), positions, k)
            cache_append(ones[k], BlockKV(*(a[:, k] for a in kv)), positions, 0)
            same(k)
        cache_roll(cache, comp, mode=mode)
        for k in range(n_steps):
            cache_roll(ones[k], comp, mode=mode)
            same(k)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=12), lam=st.integers(1, 6))
def test_bounded_view_matches_the_ledger(sizes, lam):
    # Before each block runs, the view's raw chunks outside the block are the
    # cache's short-term chunks, and its memory columns its long-term windows.
    plan = BlockPlan(tuple(sizes))
    view, F = bounded_view(plan, lam), plan.total_chunks
    cache = make_ready_cache(lam=lam)
    for b, n in enumerate(sizes):
        start, end = plan.chunk_range(b)
        for row in view[start:end]:
            assert np.flatnonzero(row[:start]).tolist() == cache.short_term.positions.tolist()
            assert (row[start:end] == 1.0).all() and not row[end:F].any()
            assert np.flatnonzero(row[F:]).tolist() == (cache.long_term.positions / lam).tolist()
        run_blocks(cache, None, [n], mode="subsample")


def test_context_views_are_read_only_and_outlive_later_rolls():
    cache = make_ready_cache(bounded=False)
    run_blocks(cache, None, [6])
    early = cache_context_view(cache, 0)
    kept = (early.keys.copy(), early.vals.copy())
    capacity = cache.positions.size
    for arr in (early.keys, early.vals, early.positions):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    run_blocks(cache, None, [8] * (capacity // 8 + 2))  # enough rows to double the capacity
    assert cache.positions.size > capacity
    late = cache_context_view(cache, 0)
    for a, a1, a0 in zip((early.keys, early.vals), (late.keys, late.vals), kept):
        assert np.array_equal(a, a0)
        assert np.array_equal(a1[:, :a0.shape[1]], a0)
    assert np.array_equal(late.positions, np.arange(-2, cache.next_chunk_id))
    bounded = make_ready_cache()
    run_blocks(bounded, averaging_comp(), [6, 8])
    ctx = cache_context_view(bounded, 0)
    with pytest.raises(ValueError):
        ctx.keys[0, 0, 0] = 1.0


def test_digests_cover_the_rotated_copies():
    for cache, comp in ((make_ready_cache(), averaging_comp()), (make_ready_cache(bounded=False), None)):
        run_blocks(cache, comp, [6, 8, 8])
        for name in ("reference", "short_term", "long_term", "history"):
            seg = getattr(cache, name)
            if seg.n_chunks == 0:
                continue
            assert seg.rotated is not None
            tampered = Segment(seg.keys, seg.vals, seg.positions, seg.spans, seg.rotated + 1.0)
            assert segment_digest(tampered) != segment_digest(seg), name
        assert "rotated" in snapshot(cache)


def test_unbounded_reference_goes_before_any_chunk():
    cache = new_cache(N_LAYERS, D_KV, [0.5], FREQS, bounded=False)
    run_blocks(cache, None, [6])
    with pytest.raises(ValueError):
        set_reference(cache, fake_kv([-2, -1], lead=(1,)), [-2, -1])


def test_new_cache_rejects_frequencies_that_do_not_fit():
    with pytest.raises(ValueError):
        new_cache(N_LAYERS, D_KV, [0.5], RopeFrequencies.create(6, 10000.0))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5), bounded=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]), n_steps=st.sampled_from([2, 3]),
       seed=st.integers(0, 1000), n_layers=st.sampled_from([1, 2, 3]), n_heads=st.sampled_from([1, 2, 4]))
def test_streamed_context_keys_are_rotated_once(sizes, bounded, dtype, n_steps, seed, n_layers, n_heads):
    # Every context view hands out keys equal, bit for bit, to one rotation of
    # the un-rotated keys this test records (long-term: the cache's compressed
    # keys) by the view's positions; the ledger conserves every chunk id after
    # every roll; and the unbounded stream matches the full recompute. The
    # layer and head counts vary, so a mis-stacked layer axis breaks the bits.
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads)
    params = randomized_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name in params.compressor_names():
        params.values[name] = params.values[name] + 0.05 * rng.standard_normal(params.values[name].shape)
    x_ref = rng.standard_normal((2, config.d_latent))
    cond = rng.standard_normal(config.d_cond)
    plan, sampler = BlockPlan(tuple(sizes)), SamplerConfig.uniform(n_steps)
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    raw = []  # per step: reference keys, then every appended block's keys
    views = []

    def recording_reference(cache, kv, positions):
        raw.extend([kv.keys[:, k]] for k in range(len(cache.steps)))
        set_reference(cache, kv, positions)

    def recording_append(cache, kv, positions, k):
        raw[k].append(kv.keys)
        cache_append(cache, kv, positions, k)

    def checking_view(cache, k):
        ctx = cache_context_view(cache, k)
        if cache.bounded:
            unrotated = np.concatenate([raw[k][0], cache.long_term.keys[:, k], cache.short_term.keys[:, k]], axis=1)
        else:
            unrotated = np.concatenate(raw[k], axis=1)
        assert ctx.keys.dtype == np.dtype(dtype)
        assert not any(a.flags.writeable for a in (ctx.keys, ctx.vals))
        assert np.array_equal(ctx.keys, rope_apply(unrotated, ctx.positions, freqs))
        assert ctx.n_tokens == cache.context_chunks
        views.append(ctx)
        return ctx

    def checking_roll(cache, compressor=None, mode="conv"):
        cache_roll(cache, compressor, mode=mode)
        assert sorted(sum(coverage_accounting(cache).values(), [])) == list(range(cache.next_chunk_id))

    with mock.patch.object(streaming, "set_reference", recording_reference), \
            mock.patch.object(streaming, "cache_append", recording_append), \
            mock.patch.object(streaming, "cache_context_view", checking_view), \
            mock.patch.object(streaming, "cache_roll", checking_roll):
        seq, _ = streaming.generate_stream(params.astype(dtype), x_ref, cond, plan, sampler,
                                           use_convkv=bounded, seed=seed)
    assert len(views) == plan.n_blocks * n_steps
    if not bounded:
        oracle = streaming.generate_full_recompute(params.astype(dtype), x_ref, cond, plan, sampler, seed=seed)
        assert np.abs(seq.values - oracle.values).max() <= (1e-10 if dtype == np.float64 else 1e-5)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12), bounded=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]), n_steps=st.sampled_from([2, 3]),
       seed=st.integers(0, 1000), n_layers=st.sampled_from([1, 2, 3]), n_heads=st.sampled_from([1, 2, 4]))
@example(sizes=[8] * 12, bounded=False, dtype=np.float64, n_steps=2, seed=0, n_layers=2, n_heads=2)
def test_slab_views_show_only_filled_rows_and_keep_them(sizes, bounded, dtype, n_steps, seed, n_layers, n_heads):
    # Every context view shows exactly the cache's context rows, read-only. An
    # unbounded view keeps its values for as long as it is held, through later
    # blocks and slab doublings; a bounded view lives until the next roll, and
    # a bounded cache never re-allocates its slabs or pending.
    config = replace(TINY, n_layers=n_layers, n_heads=n_heads)
    params = randomized_params(config, seed=seed).astype(dtype)
    rng = np.random.default_rng(seed)
    x_ref = rng.standard_normal((2, config.d_latent))
    cond = rng.standard_normal(config.d_cond)
    plan, sampler = BlockPlan(tuple(sizes)), SamplerConfig.uniform(n_steps)
    held = []  # unbounded: every view with copies of what it showed
    storage = {}  # bounded: the cache's slab and pending data pointers and K/V bytes

    def pointers(cache):
        return [a.__array_interface__["data"][0] for a in (*cache.slabs, cache.pending_kv)] + [cache.kv_bytes]

    def checking_view(cache, k):
        ctx = cache_context_view(cache, k)
        assert ctx.n_tokens == cache.context_chunks
        assert ctx.keys.shape == ctx.vals.shape == (n_layers, ctx.n_tokens, config.d_model)
        assert ctx.slab_keys.shape[1] >= ctx.n_tokens + max(sizes)  # room for the block
        assert not any(a.flags.writeable for a in (ctx.keys, ctx.vals, ctx.positions))
        if cache.bounded:
            assert storage.setdefault(id(cache), pointers(cache)) == pointers(cache)
        else:
            held.append((ctx, ctx.keys.copy(), ctx.vals.copy(), ctx.positions.copy()))
        return ctx

    def checking_roll(cache, compressor=None, mode="conv"):
        cache_roll(cache, compressor, mode=mode)
        if cache.bounded:
            assert storage[id(cache)] == pointers(cache)

    with mock.patch.object(streaming, "cache_context_view", checking_view), \
            mock.patch.object(streaming, "cache_roll", checking_roll):
        streaming.generate_stream(params, x_ref, cond, plan, sampler, use_convkv=bounded, seed=seed)
    assert len(storage) == (1 if bounded else 0)
    for ctx, keys, vals, positions in held:
        assert np.array_equal(ctx.keys, keys) and np.array_equal(ctx.vals, vals)
        assert np.array_equal(ctx.positions, positions)
        assert np.array_equal(positions, np.arange(-2, positions.size - 2))
    if not bounded and sum(sizes) > 6 + max(sizes):  # more rows than the slabs were made with
        assert len({id(ctx.slab_keys) for ctx, *_ in held}) > 1  # so they doubled


# -- the compressor stack ------------------------------------------------------

def rolled_long_term(config, compressor):
    """Long-term keys and values of a bounded cache rolled over blocks (6, 8) of fixed K/V with `compressor`."""
    rng = np.random.default_rng(7)
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    cache = new_cache(config.n_layers, config.d_model, [0.5], freqs, lam=config.compress_ratio)
    for s, n in ((0, 6), (6, 8)):
        keys, vals = rng.standard_normal((2, config.n_layers, n, config.d_model))
        positions = np.arange(s, s + n)
        cache_append(cache, BlockKV(keys, rope_apply(keys, positions, freqs), vals), positions, 0)
        cache_roll(cache, compressor)
    return cache.long_term.keys, cache.long_term.vals


@pytest.mark.parametrize("change", ["in_place", "reassigned", "copy", "astype", "checkpoint",
                                    "checkpoint_mixed_dtypes", "stage2"])
def test_compressor_arrays_follow_the_current_values(tmp_path, change):
    # However the compressor changes, a roll given the params' current arrays compresses with them.
    config = replace(TINY, d_latent=8, d_cond=16)
    params = randomized_params(config, seed=0)  # live output heads: stage 2 moves the compressor
    before = tuple(params.values[name].copy() for name in ("compressor.w", "compressor.b"))
    if change == "in_place":
        params.values["compressor.w"][3] += 1.0
        params.values["compressor.b"][0] = 3.0
    elif change == "reassigned":
        params.values["compressor.w"] = params.values["compressor.w"] + 1.0
    elif change == "copy":
        original, params = params, params.copy()
        params.values["compressor.w"] *= 2.0
        kept = (original.values["compressor.w"], original.values["compressor.b"])
        assert all(np.array_equal(a, b) for a, b in zip(rolled_long_term(config, kept),
                                                        rolled_long_term(config, before)))
    elif change == "astype":
        params = params.astype(np.float32)
        params.values["compressor.b"] += 1.0
        assert params.values["compressor.w"].dtype == np.float32
    elif change == "checkpoint":
        params.values["compressor.b"][2] += 1.0
        save_checkpoint(tmp_path / "m.ckpt", params)
        params = load_checkpoint(tmp_path / "m.ckpt")
    elif change == "checkpoint_mixed_dtypes":  # a file may store each tensor in its own dtype
        params.values["compressor.w"] = params.values["compressor.w"].astype(np.float32)
        save_checkpoint(tmp_path / "m.ckpt", params)
        params = load_checkpoint(tmp_path / "m.ckpt")
        assert [params.values[name].dtype for name in ("compressor.w", "compressor.b")] == [np.float32, np.float64]
    else:
        dataset = make_dataset(LatentDynamics.create(seed=1, latent_dim=config.d_latent), 4, 22, seed=2)
        params, _ = train_stage2_convkv(TrainConfig(total_steps=2, plan=BlockPlan.default(3), seed=0),
                                        dataset, params)
    now = rolled_long_term(config, (params.values["compressor.w"], params.values["compressor.b"]))
    current = tuple(params.values[name].copy() for name in ("compressor.w", "compressor.b"))
    assert all(np.array_equal(a, b) for a, b in zip(now, rolled_long_term(config, current)))
    assert not all(np.array_equal(a, b) for a, b in zip(now, rolled_long_term(config, before)))


def test_roll_after_an_in_place_edit_compresses_with_the_edited_weights():
    # Row l of the stack compresses layer l's keys, row N_LAYERS + l its values.
    config = DenoiserConfig(n_layers=N_LAYERS, d_model=D_KV, n_heads=2, d_latent=4, d_cond=4, d_ff=8)
    params = init_params(config, seed=0)
    averaging = [params.values[name].copy() for name in ("compressor.w", "compressor.b")]
    params.values["compressor.w"][0] *= 2.0
    params.values["compressor.b"][N_LAYERS + 1] += 1.0
    ref, blocks = fake_kv([-2, -1], lead=(1,)), [fake_kv(range(s, s + 8)) for s in (0, 8)]

    def long_term(comp):
        cache = new_cache(N_LAYERS, D_KV, [0.5], FREQS)
        set_reference(cache, ref, [-2, -1])
        for s, kv in zip((0, 8), blocks):
            cache_append(cache, kv, np.arange(s, s + 8), 0)
            cache_roll(cache, comp)
        return cache.long_term

    edited = long_term((params.values["compressor.w"], params.values["compressor.b"]))
    old = long_term(averaging)
    assert edited.n_chunks > 0
    changed = [[not np.array_equal(e[l], o[l]) for l in range(N_LAYERS)]
               for e, o in ((edited.keys, old.keys), (edited.vals, old.vals))]
    assert changed == [[True, False], [False, True]]  # layer-0 keys and layer-1 values only



# -- write-once K/V ------------------------------------------------------------

def same_rows(a, b):
    """Whether `a` and `b` view the same elements: the same memory, shape and strides."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


@pytest.mark.parametrize("bounded", [True, False])
def test_a_context_forward_writes_its_block_once_into_the_slabs(bounded):
    # The forward writes step k's rotated keys, values and (bounded) un-rotated
    # keys into the rows after the context and returns views of those rows;
    # appending them leaves every slab byte as the forward wrote it.
    config = TINY
    params = randomized_params(config, seed=5)
    rng = np.random.default_rng(5)
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    cache = new_cache(config.n_layers, config.d_model, STEPS, freqs, lam=config.compress_ratio, bounded=bounded,
                      block_rows=4)
    ref = rng.standard_normal((2, config.n_layers, len(STEPS), 2, config.d_model))
    set_reference(cache, BlockKV(ref[0], rope_apply(ref[0], [-2, -1], freqs), ref[1]), [-2, -1])
    cond = rng.standard_normal(config.d_cond)
    for block in ([0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10]):
        positions, n = np.array(block), len(block)
        for k, t in enumerate(STEPS):
            ctx = cache_context_view(cache, k)
            rows = slice(ctx.n_tokens, ctx.n_tokens + n)
            _, kv = denoiser_forward(params.values, config, rng.standard_normal((n, config.d_latent)), positions, t,
                                     cond, np.ones((n, ctx.n_tokens + n)), ctx=ctx)
            assert same_rows(kv.rotated, cache.slabs[0][:, k, rows]) and same_rows(kv.vals, cache.slabs[1][:, k, rows])
            if bounded:
                assert same_rows(kv.keys, cache.slabs[2][:, k, rows])
            else:  # no slab holds them: an array of the forward's own
                assert type(kv.keys) is np.ndarray and kv.keys.base is None and kv.keys.shape == kv.rotated.shape
            assert np.array_equal(kv.rotated, rope_apply(kv.keys, positions, freqs))
            written = [slab.copy() for slab in cache.slabs]
            cache_append(cache, kv, positions, k)
            assert all(np.array_equal(a, b) for a, b in zip(cache.slabs, written, strict=True))
        cache_roll(cache, None, mode="subsample")


@pytest.mark.parametrize("bounded", [True, False])
def test_a_block_that_doubles_the_slabs_is_stored(bounded):
    # Explicit K/V of a block larger than the room left double the slabs at
    # step 0's append; the reference, the earlier block and every step's new
    # rows survive the copy, and the rotated keys keep their layout: unbounded,
    # transposed, so a dimension's keys are contiguous.
    cache = new_cache(N_LAYERS, D_KV, STEPS, FREQS, bounded=bounded, block_rows=2)
    ref, first, big = (fake_kv(p, lead=(len(STEPS),)) for p in ([-2, -1], [0, 1], list(range(2, 9))))
    set_reference(cache, ref, [-2, -1])
    layout = np.argsort(cache.slabs[0].strides)
    assert (cache.slabs[0].strides[-2] < cache.slabs[0].strides[-1]) == (not bounded)
    for positions, kv in (([0, 1], first), (list(range(2, 9)), big)):
        capacity, slab = cache.positions.size, cache.slabs[0]
        for k in range(len(STEPS)):
            cache_append(cache, BlockKV(*(a[:, k] for a in kv)), positions, k)
        if kv is big:
            assert cache.positions.size > capacity and not np.shares_memory(cache.slabs[0], slab)
            assert np.array_equal(np.argsort(cache.slabs[0].strides), layout)
            current = cache.current
            assert np.array_equal(current.rotated, kv.rotated) and np.array_equal(current.vals, kv.vals)
            assert not bounded or np.array_equal(current.keys, kv.keys)
            assert np.array_equal(cache.reference.rotated, ref.rotated)
            earlier = cache.short_term if bounded else cache.history
            assert np.array_equal(earlier.rotated, first.rotated) and np.array_equal(earlier.vals, first.vals)
        cache_roll(cache, None, mode="subsample")
