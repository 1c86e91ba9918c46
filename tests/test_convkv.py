import numpy as np
import pytest

from nfar.convkv import (
    CacheStepError,
    LONG_TERM_CAPACITY,
    Segment,
    cache_append,
    cache_context_view,
    cache_roll,
    compress_segment,
    compressor_arrays,
    coverage_accounting,
    new_cache,
    set_reference,
    snapshot,
)
from nfar.model import DenoiserConfig, RopeFrequencies, init_params, rope_apply
from nfar.numerics import Tensor

RNG = np.random.default_rng(99)
N_LAYERS, D_KV = 2, 16


def fake_kv(n):
    return [(RNG.standard_normal((n, D_KV)), RNG.standard_normal((n, D_KV)))
            for _ in range(N_LAYERS)]


def make_ready_cache():
    cache = new_cache(N_LAYERS, D_KV, step_tag=0.5)
    set_reference(cache, fake_kv(2), [-2, -1])
    return cache


def averaging_comp():
    config = DenoiserConfig(n_layers=N_LAYERS, d_model=D_KV, n_heads=2,
                            d_latent=4, d_cond=4, d_ff=8)
    return compressor_arrays(init_params(config, seed=0))


def run_blocks(cache, comp, sizes, mode="conv"):
    pos = cache.next_position
    for n in sizes:
        cache_append(cache, fake_kv(n), list(range(pos, pos + n)), 0.5)
        pos += n
        cache_roll(cache, comp, mode=mode)
    return pos


def test_step_tag_enforced_on_append():
    cache = make_ready_cache()
    with pytest.raises(CacheStepError):
        cache_append(cache, fake_kv(3), [0, 1, 2], 0.7)


def test_append_rejects_positions_that_do_not_continue():
    cache = make_ready_cache()
    cache_append(cache, fake_kv(3), [0, 1, 2], 0.5)
    for bad in ([4, 5, 6], [2, 3, 4], [3, 5, 4]):
        with pytest.raises(ValueError):
            cache_append(cache, fake_kv(3), bad, 0.5)
    cache_append(cache, fake_kv(3), [3, 4, 5], 0.5)


def test_reference_capacity_enforced():
    cache = new_cache(N_LAYERS, D_KV, step_tag=0.5)
    with pytest.raises(ValueError):
        set_reference(cache, fake_kv(3), [-3, -2, -1])


def test_append_is_append_only():
    cache = make_ready_cache()
    cache_append(cache, fake_kv(6), list(range(6)), 0.5)
    cache_roll(cache, averaging_comp())
    before = cache.non_current_digest()
    cache_append(cache, fake_kv(8), list(range(6, 14)), 0.5)
    assert cache.non_current_digest() == before


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


def test_compressed_position_is_window_start():
    cache = make_ready_cache()
    run_blocks(cache, averaging_comp(), [6, 8])
    assert cache.long_term.positions.tolist() == [0.0, 5.0]
    assert cache.long_term.spans == [(0, 5), (5, 10)]


def test_averaging_init_reproduces_window_mean():
    comp = averaging_comp()
    kw, kb, vw, vb = comp[0]
    K = RNG.standard_normal((5, D_KV))
    V = RNG.standard_normal((5, D_KV))
    m_k, m_v, s = compress_segment(kw, kb, vw, vb, K, V, 7.0, 5)
    assert np.abs(m_k - K.mean(axis=0)).max() < 1e-12
    assert np.abs(m_v - V.mean(axis=0)).max() < 1e-12
    assert s == 7.0


def test_rope_reset_angle_matches_position_s():
    # Consuming a compressed chunk rotates it by the window-start tag s;
    # check against a manual rotation by angle s * freq per dimension pair.
    cache = make_ready_cache()
    run_blocks(cache, averaging_comp(), [6, 8])
    freqs = RopeFrequencies.create(D_KV, 10000.0)
    s = float(cache.long_term.positions[1])
    stored = cache.long_term.keys[0][1:2]
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
    ctx, labels = cache_context_view(cache)
    assert labels == ["reference"] * 2 + ["long_term"] * 2 + ["short_term"] * 2
    assert ctx.n_tokens == 6
    assert ctx.step_tag == 0.5


def test_unbounded_mode_accumulates_history():
    cache = new_cache(N_LAYERS, D_KV, step_tag=0.5, bounded=False)
    set_reference(cache, fake_kv(2), [-2, -1])
    run_blocks(cache, None, [6, 8, 8])
    assert cache.history.n_chunks == 22
    assert cache.context_chunks == 24


def test_subsample_mode_needs_no_weights():
    cache = make_ready_cache()
    run_blocks(cache, None, [6, 8], mode="subsample")
    assert cache.long_term.n_chunks == 2
    with pytest.raises(ValueError):
        run_blocks(make_ready_cache(), None, [6, 8], mode="conv")


def test_snapshot_mentions_every_segment():
    text = snapshot(make_ready_cache())
    for name in ("reference", "long_term", "short_term", "pending", "current"):
        assert name in text


def test_float32_cache_stays_float32():
    for weight_dtype in (np.float32, np.float64):  # the cache's dtype wins over the weights'
        cache = new_cache(N_LAYERS, D_KV, step_tag=0.5, dtype=np.float32)
        kv32 = [(k.astype(np.float32), v.astype(np.float32)) for k, v in fake_kv(2)]
        set_reference(cache, kv32, [-2, -1])
        comp = [tuple(a.astype(weight_dtype) for a in layer) for layer in averaging_comp()]
        pos = 0
        for n in (6, 8, 8):
            kv = [(k.astype(np.float32), v.astype(np.float32)) for k, v in fake_kv(n)]
            cache_append(cache, kv, list(range(pos, pos + n)), 0.5)
            pos += n
            cache_roll(cache, comp)
        ctx, _ = cache_context_view(cache)
        assert all(k.dtype == np.float32 and v.dtype == np.float32 for k, v in ctx.layers)
