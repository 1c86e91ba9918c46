"""Invariant checks shared by the acceptance tests and ``nfar verify``.

Each check returns ``(ok, metric)``. With ``seed=0`` a check builds exactly
the inputs of its acceptance test; any other seed shifts every seed the
check derives by the same amount.
"""

from __future__ import annotations

import numpy as np

from . import convkv
from .blocks import BlockPlan
from .model import (
    BlockKV,
    DenoiserConfig,
    DenoiserParams,
    RopeFrequencies,
    block_causal_mask,
    init_params,
    rope_apply,
    tape_leaves,
    wrap_params,
)
from .numerics import finite_difference_grad, grad_of
from .rng import STREAM_DATA, make_rng
from .schedule import GenericSchedule, SamplerConfig, expected_neighbor_distance, monte_carlo_prop2
from .streaming import generate_full_recompute, generate_stream
from .synthdata import LatentDynamics, check_prop1, generate_state_path, render_and_encode
from .training import neighbor_forcing_loss

SMALL = DenoiserConfig(n_layers=2, n_heads=2, d_model=32, d_latent=8, d_cond=16, d_ff=32)
TINY = DenoiserConfig(n_layers=2, n_heads=2, d_model=8, d_latent=4, d_cond=8, d_ff=8)


def randomized_params(config: DenoiserConfig, seed: int, scale: float = 0.05,
                      compressor: bool = False) -> DenoiserParams:
    """Seeded init plus Gaussian noise on the denoiser weights, so the zero-init heads act, and with
    `compressor` on the compressor too, drawn after them, so it leaves the averaging init."""
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name in params.denoiser_names() + (params.compressor_names() if compressor else []):
        params.values[name] = params.values[name] + scale * rng.standard_normal(params.values[name].shape)
    return params


def prop2_closed_form(seed: int = 0) -> tuple[bool, str]:
    """Monte Carlo neighbor distance vs its closed form over (alpha, sigma, d, gap) corners."""
    rng = make_rng(seed, STREAM_DATA)
    worst = 0.0
    for alpha, sigma in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)):
        schedule = GenericSchedule(steps=(0.5,), alphas=(alpha,), sigmas=(sigma,))
        for d in (4, 16):
            for scale in (0.1, 2.0):
                za = rng.standard_normal(d)
                zb = za + scale * rng.standard_normal(d)
                exact = expected_neighbor_distance(alpha, sigma, d, float(((zb - za) ** 2).sum()))
                est = monte_carlo_prop2((za, zb), schedule, 0.5, 100_000, seed=seed + 1)
                worst = max(worst, abs(est - exact) / exact)
    return worst < 0.02, f"max_rel_err={worst:.5f} (tol 0.02, 1e5 samples)"


def prop1_bound(seed: int = 0) -> tuple[bool, str]:
    """The certified neighbor bound holds on 20 paths and flags a planted jump."""

    def path(i):
        dyn = LatentDynamics.create(seed=100 + seed + i)
        u = generate_state_path(500, dyn.delta_u, seed=100 + seed + i)
        _, z0 = render_and_encode(dyn, u, dyn.residual_bound, seed=600 + seed + i)
        return dyn, u, z0

    worst, violations = 0.0, 0
    for i in range(20):
        rep = check_prop1(*path(i))
        worst = max(worst, rep.tightness)
        violations += 0 if rep.holds else 1
    dyn, u, z0 = path(0)
    z0 = z0.copy()
    z0[250, 0] += 2.0 * dyn.neighbor_bound
    planted = not check_prop1(dyn, z0, u).holds
    return (violations == 0 and planted,
            f"violations={violations}/20 worst_tightness={worst:.4f} planted_detected={planted}")


def mask_correctness(seed: int = 0) -> tuple[bool, str]:
    """Block-causal masks of uniform plans vs the floor oracle; exhaustive, so ``seed`` is unused."""
    ok = True
    for m in (1, 2, 3, 8):
        for n_blocks in range(1, 40 // m + 1):
            n = m * n_blocks
            got = block_causal_mask(BlockPlan.uniform(n_blocks, m))
            want = np.fromfunction(lambda i, j: (j // m <= i // m).astype(float), (n, n))
            # Double-loop oracle, written out:
            for i in range(n):
                for j in range(n):
                    ok &= got[i, j] == (1.0 if j // m <= i // m else 0.0)
            ok &= np.array_equal(got, want)
    boundary = block_causal_mask(BlockPlan.default(3))
    ok &= boundary[5, 0] == 1.0 and boundary[5, 6] == 0.0
    return bool(ok), "floor-oracle m in {1,2,3,8}, n<=40; (6,8) boundary pair"


def cache_equivalence(seed: int = 0) -> tuple[bool, str]:
    """Cached streaming equals the full-recompute oracle, the training forward run block by block with no
    cache, over 10 seeds: the unbounded cache the stage-1 forward, and the bounded one, under a perturbed
    compressor, the stage-2 forward of `convkv.bounded_view`."""
    plan = BlockPlan.default(4)
    sampler = SamplerConfig.uniform(3)
    worst = {False: 0.0, True: 0.0}
    for s in range(seed, seed + 10):
        params = randomized_params(SMALL, seed=s, compressor=True)
        rng = np.random.default_rng(s + 50)
        x_ref = rng.standard_normal((2, SMALL.d_latent))
        cond = rng.standard_normal(SMALL.d_cond)
        for bounded in (False, True):
            a, _ = generate_stream(params, x_ref, cond, plan, sampler, use_convkv=bounded, seed=s)
            b = generate_full_recompute(params, x_ref, cond, plan, sampler, seed=s, use_convkv=bounded)
            worst[bounded] = max(worst[bounded], float(np.abs(a.values - b.values).max()))
    return max(worst.values()) <= 1e-10, (f"max_abs_diff unbounded={worst[False]:.3e} bounded={worst[True]:.3e} "
                                          f"(tol 1e-10, 10 seeds, N=4, T=3)")


def constant_memory(seed: int = 0) -> tuple[bool, str]:
    """Over 200 blocks the bounded context stays at 6 chunks and its cache's K/V bytes at their size
    when made; the unbounded context grows by each block, and its slabs with it."""
    params = randomized_params(SMALL, seed=4 + seed)
    rng = np.random.default_rng(4 + seed)
    x_ref = rng.standard_normal((2, SMALL.d_latent))
    cond = rng.standard_normal(SMALL.d_cond)
    sampler = SamplerConfig.uniform(2)
    plan = BlockPlan.default(200)
    _, bounded = generate_stream(params, x_ref, cond, plan, sampler, use_convkv=True, seed=1 + seed)
    ok = all(c == 6 for c in bounded.context_chunks[2:])
    _, unbounded = generate_stream(params, x_ref, cond, plan, sampler, use_convkv=False, seed=1 + seed)
    grow = unbounded.context_chunks
    # Context before generating block N (1-based): 2 refs + all prior chunks.
    expected = [2] + [2 + 6 + 8 * (b - 1) for b in range(1, 200)]
    ok &= grow == expected
    ok &= all(b > a for a, b in zip(grow, grow[1:]))
    # K/V bytes the cache owns when made (entering block 1) bound every later count, the last roll's too.
    ok &= max(bounded.kv_bytes) == bounded.kv_bytes[0] and unbounded.kv_bytes[-1] > unbounded.kv_bytes[0]
    return ok, (f"bounded context==6 for blocks 3..200, K/V bytes {max(bounded.kv_bytes)} <= "
                f"{bounded.kv_bytes[0]} as made; unbounded strictly grows to {grow[-1]} chunks, "
                f"{unbounded.kv_bytes[0]} -> {unbounded.kv_bytes[-1]} bytes")


def coverage_ledger(seed: int = 0) -> tuple[bool, str]:
    """Over 100 rolls every raw chunk is accounted exactly once and pending stays below a window."""
    config = DenoiserConfig()
    weights = init_params(config, seed=seed).values
    comp = weights["compressor.w"], weights["compressor.b"]
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    cache = convkv.new_cache(config.n_layers, config.d_model, [0.5], freqs)
    rng = np.random.default_rng(seed)

    def kv(positions):
        keys, vals = rng.standard_normal((2, config.n_layers, len(positions), config.d_model))
        return BlockKV(keys, rope_apply(keys, positions, freqs), vals)

    convkv.set_reference(cache, BlockKV(*(a[:, None] for a in kv([-2, -1]))), [-2, -1])  # the one step's
    ok, total = True, 0
    for roll in range(100):
        n = 6 if roll == 0 else 8
        positions = list(range(total, total + n))
        convkv.cache_append(cache, kv(positions), positions, 0)
        total += n
        convkv.cache_roll(cache, comp)
        acc = convkv.coverage_accounting(cache)
        ok &= sorted(sum(acc.values(), [])) == list(range(total))
        ok &= cache.pending.n_chunks < cache.lam
    return ok, f"100 rolls, {total} chunks each accounted exactly once"


def gradient_integrity(seed: int = 0) -> tuple[bool, str]:
    """Tape gradients of every parameter vs central differences, 3 batches, both stages' losses."""
    config = TINY
    params = init_params(config, seed=9 + seed)
    rng = np.random.default_rng(9 + seed)
    for name in params.values:
        params.values[name] = params.values[name] + 0.05 * rng.standard_normal(params.values[name].shape)
    plan_s1 = BlockPlan((2, 2))
    plan_s2 = BlockPlan.default(3)  # (6, 8, 8): its bounded view holds two memory windows
    worst = 0.0
    for batch in range(3):
        brng = np.random.default_rng(1000 + seed + batch)
        seqs1 = brng.standard_normal((1, 4, 4))
        conds = brng.standard_normal((1, 8))
        t = brng.uniform(0.1, 0.9, size=1)
        eps1 = brng.standard_normal((1, 4, 4))
        seqs2 = brng.standard_normal((1, plan_s2.total_chunks, 4))
        eps2 = brng.standard_normal((1, plan_s2.total_chunks, 4))

        def loss_of(weights, stage):
            if stage == 1:
                return neighbor_forcing_loss(weights, config, seqs1, conds, t, eps1, plan_s1)
            return neighbor_forcing_loss(weights, config, seqs2, conds, t, eps2, plan_s2, bounded=True)

        for name in params.values:
            stage = 2 if name.startswith("compressor.") else 1
            pt = wrap_params(params)
            # A compressor stack's leaves are its rows, so its gradient is the stack of theirs.
            g = np.stack(grad_of(loss_of(pt, stage), tape_leaves(pt, [name]))).reshape(params.values[name].shape)
            # The differences need no tape: bare weights give the same loss bits.
            fd = finite_difference_grad(
                lambda x, n=name, s=stage: loss_of({**params.values, n: x}, s).item(),
                params.values[name])
            worst = max(worst, float(np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8)))
    return worst < 1e-4, f"max_rel_err={worst:.2e} over every parameter, 3 batches (tol 1e-4)"
