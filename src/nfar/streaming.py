"""Block-wise autoregressive generation with step-aligned KV reuse.

One segmented cache with a sampler-step axis: within a step t, context
K/V produced at t are reused append-only across blocks; after a block
finalizes, the cache rolls once for every step (compressing when bounded).
Includes the uncached full-recompute oracle, the zero-shot conditioning
experiment, and latency/memory reporting. Every path runs the denoiser on
the bare weights, so no forward builds a gradient tape, and computes each
sampler step's conditioning once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockPlan
from .convkv import (
    COMPRESSION_MODES,
    bounded_view,
    cache_append,
    cache_context_view,
    cache_roll,
    new_cache,
    set_reference,
)
from .model import (
    DenoiserParams,
    StepConditioning,
    block_causal_mask,
    chunk_forward,
    denoiser_forward,
    step_conditioning,
)
from .rng import STREAM_GENERATE, make_rng
from .schedule import SamplerConfig, euler_integrate
from .synthdata import LatentSequence


class GenerationAborted(RuntimeError):
    def __init__(self, block: int, reason: str):
        super().__init__(f"generation aborted at block {block}: {reason}")
        self.block = block


@dataclass
class GenerationReport:
    block_times: list[float] = field(default_factory=list)   # per block, cache roll included
    roll_times: list[float] = field(default_factory=list)    # per block, its one cache roll over every step
    context_chunks: list[int] = field(default_factory=list)   # visible context per block
    context_floats: list[int] = field(default_factory=list)
    kv_bytes: list[int] = field(default_factory=list)  # the cache's K/V bytes (all steps) per block, then at the end
    dropped_spans: list[tuple[int, int]] = field(default_factory=list)
    total_chunks: int = 0
    use_convkv: bool = True
    setup_seconds: float = 0.0  # call start to block 0: conditioning, reference prefill, cache set-up

    def summary(self) -> str:
        lines = [
            f"blocks={len(self.block_times)} chunks={self.total_chunks} convkv={self.use_convkv}",
            f"context chunks per block: {self.context_chunks}",
            f"setup time: {self.setup_seconds:.4f}s",
            f"median block time: {np.median(self.block_times):.4f}s" if self.block_times else "no blocks",
        ]
        return "\n".join(lines)


def _integrate_block(b: int, velocity, x: np.ndarray, sampler: SamplerConfig) -> np.ndarray:
    """Denoise block b from noise x; a non-finite value aborts the generation."""
    try:
        return euler_integrate(velocity, x, sampler)
    except FloatingPointError as err:
        raise GenerationAborted(b, str(err)) from err


def _step_conditionings(params: DenoiserParams, cond, sampler: SamplerConfig) -> tuple[StepConditioning, list]:
    """Every sampler step's conditioning, on the bare weights, from one batched build.

    Returns the (T,)-step batch and its rows, one StepConditioning per step.
    """
    t = np.asarray(sampler.grid[:-1])
    batch = step_conditioning(params.values, params.config, t, np.broadcast_to(cond, (t.size, np.size(cond))))
    return batch, [batch.row(k) for k in range(t.size)]


def _prefill_reference(weights, config, x_ref, cond, cache, steps: StepConditioning) -> None:
    """Every step's reference K/V from one forward over x_ref repeated once per step of `steps`."""
    n_ref, n_steps = x_ref.shape[0], steps.t.size
    pos, mask = np.arange(-n_ref, 0), np.ones((n_ref, n_ref))
    batch, conds = np.repeat(x_ref[None], n_steps, axis=0), np.broadcast_to(cond, (n_steps, np.size(cond)))
    _, kv = denoiser_forward(weights, config, batch, pos, steps.t, conds, mask, conditioning=steps)
    set_reference(cache, kv, pos)


def generate_stream(
    params: DenoiserParams,
    x_ref: np.ndarray,
    cond: np.ndarray,
    plan: BlockPlan,
    sampler: SamplerConfig,
    use_convkv: bool = True,
    seed: int = 0,
    compression_mode: str = "conv",
) -> tuple[LatentSequence, GenerationReport]:
    """Generate plan.total_chunks latent chunks block by block, in the dtype of the weights.

    Deterministic in (params, x_ref, cond, plan, sampler, flags, seed). An
    unknown `compression_mode` is refused before any work, bounded or not.
    """
    if compression_mode not in COMPRESSION_MODES:
        raise ValueError(f"unknown compression mode {compression_mode!r}")
    start = time.monotonic()
    config, weights = params.config, params.values
    dtype = weights["input.w"].dtype
    grid = sampler.grid
    batch, steps = _step_conditionings(params, cond, sampler)
    cache = new_cache(config.n_layers, config.d_model, grid[:-1], batch.freqs, lam=config.compress_ratio,
                      bounded=use_convkv, dtype=dtype, block_rows=max(plan.sizes))
    _prefill_reference(weights, config, np.asarray(x_ref, dtype=dtype), cond, cache, batch)
    compressor = weights["compressor.w"], weights["compressor.b"]  # read by conv-mode bounded rolls only

    rng = make_rng(seed, STREAM_GENERATE)
    report = GenerationReport(total_chunks=plan.total_chunks, use_convkv=use_convkv)
    out = np.zeros((plan.total_chunks, config.d_latent), dtype=dtype)
    report.setup_seconds = time.monotonic() - start
    for b in range(plan.n_blocks):
        s, e = plan.chunk_range(b)
        n = e - s
        positions = np.arange(s, e)
        x = rng.standard_normal((n, config.d_latent)).astype(dtype)
        report.context_chunks.append(cache.context_chunks)
        report.context_floats.append(cache.context_floats())
        report.kv_bytes.append(cache.kv_bytes)
        t0 = time.monotonic()
        mask = np.ones((n, cache.context_chunks + n))  # every step shows the same context

        def velocity(x, k):
            vel, kv = denoiser_forward(weights, config, x, positions, float(grid[k]), cond, mask,
                                       ctx=cache_context_view(cache, k), conditioning=steps[k])
            cache_append(cache, kv, positions, k)
            return vel

        out[s:e] = _integrate_block(b, velocity, x, sampler)
        t1 = time.monotonic()
        cache_roll(cache, compressor, mode=compression_mode)
        t2 = time.monotonic()
        report.roll_times.append(t2 - t1)
        report.block_times.append(t2 - t0)
    report.kv_bytes.append(cache.kv_bytes)
    report.dropped_spans = cache.dropped_spans
    return LatentSequence(out.astype(np.float64)), report


def generate_full_recompute(
    params: DenoiserParams,
    x_ref: np.ndarray,
    cond: np.ndarray,
    plan: BlockPlan,
    sampler: SamplerConfig,
    seed: int = 0,
    use_convkv: bool = False,
) -> LatentSequence:
    """Equivalence oracle: no cache; each block's forward recomputes the keys of the reference and of every
    earlier block, the training forward run block by block.

    At block b, step t_k, the keys of every earlier block are recomputed
    from that block's own intermediate state at step t_k — the same values
    the cached path stored. Each block is `model.chunk_forward` over the
    chunks so far: unbounded under the block-causal mask (the stage-1
    forward); with `use_convkv` under what the bounded cache (conv mode)
    shows it, `convkv.bounded_view`, its long-term windows convolved inline
    (the stage-2 forward). Same noise stream discipline and dtype as
    generate_stream.
    """
    config, weights = params.config, params.values
    dtype = weights["input.w"].dtype
    grid = sampler.grid
    _, steps = _step_conditionings(params, cond, sampler)
    x_ref = np.asarray(x_ref, dtype=dtype)
    rng = make_rng(seed, STREAM_GENERATE)
    out = np.zeros((plan.total_chunks, config.d_latent), dtype=dtype)
    # traj[b][k]: block b's state entering step k (what the cached path keyed).
    traj: list[list[np.ndarray]] = []
    for b in range(plan.n_blocks):
        s, e = plan.chunk_range(b)
        n = e - s
        x = rng.standard_normal((n, config.d_latent)).astype(dtype)
        states: list[np.ndarray] = []
        seen = BlockPlan(plan.sizes[:b + 1])
        chunk_mask = bounded_view(seen, config.compress_ratio) if use_convkv else block_causal_mask(seen)

        def velocity(x, k):
            states.append(x)
            chunks = np.concatenate([traj[a][k] for a in range(b)] + [x])
            return chunk_forward(weights, config, x_ref, chunks, 0, chunk_mask, float(grid[k]), cond,
                                 conditioning=steps[k])[-n:]

        out[s:e] = _integrate_block(b, velocity, x, sampler)
        traj.append(states)
    return LatentSequence(out.astype(np.float64))


def discontinuity_score(latents: np.ndarray, plan: BlockPlan) -> float:
    """Mean block-boundary gap over mean within-block consecutive gap."""
    gaps = np.linalg.norm(np.diff(latents, axis=0), axis=1)
    starts = set(plan.starts[1:])
    boundary = [gaps[s - 1] for s in starts]
    interior = [g for i, g in enumerate(gaps) if (i + 1) not in starts]
    if not boundary or not interior:
        raise ValueError("plan has no boundaries or no interior gaps to compare")
    return float(np.mean(boundary) / np.mean(interior))


ZERO_SHOT_VARIANTS = ("same-step", "clean-history", "independent-noise")


def zero_shot_experiment(
    params: DenoiserParams,
    x_ref: np.ndarray,
    cond: np.ndarray,
    plan: BlockPlan,
    sampler: SamplerConfig,
    seed: int = 0,
) -> dict[str, float]:
    """Chain a block-wise-trained bidirectional model without any retraining.

    The model must have been trained with ``mask_mode="none"`` (full
    attention over single blocks). Each variant conditions block n on a
    different representation of block n-1 at the current step:
    same-step intermediate state, the fully denoised clean block, or the
    clean block re-noised at an independently drawn step.
    """
    if params.meta.get("mask_mode") != "none":
        raise ValueError(
            "zero-shot experiment requires a bidirectional (mask_mode='none') model, "
            f"got mask_mode={params.meta.get('mask_mode')!r}"
        )
    config, weights = params.config, params.values
    grid = sampler.grid
    _, steps = _step_conditionings(params, cond, sampler)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    scores: dict[str, float] = {}
    for variant in ZERO_SHOT_VARIANTS:
        rng = make_rng(seed, STREAM_GENERATE)  # identical noise across variants
        out = np.zeros((plan.total_chunks, config.d_latent))
        prev_states: list[np.ndarray] | None = None  # per-step intermediates
        prev_clean: np.ndarray | None = None
        prev_range = (0, 0)
        for b in range(plan.n_blocks):
            s, e = plan.chunk_range(b)
            n = e - s
            x = rng.standard_normal((n, config.d_latent))
            t_indep = rng.uniform(0.02, 0.98, size=sampler.n_steps)
            eps_indep = rng.standard_normal((n, config.d_latent)) if b > 0 else None
            states: list[np.ndarray] = []
            sizes = tuple(m for m in (prev_range[1] - prev_range[0], n) if m)  # block b - 1, if any, and b
            mask = block_causal_mask(BlockPlan(sizes))

            def velocity(x, k):
                states.append(x)
                if b == 0:
                    prev = x[:0]
                elif variant == "same-step":
                    prev = prev_states[k]
                elif variant == "clean-history":
                    prev = prev_clean
                else:
                    tp = float(t_indep[k])
                    prev = (1.0 - tp) * prev_clean + tp * eps_indep[: prev_clean.shape[0]]
                return chunk_forward(weights, config, x_ref, np.concatenate([prev, x]), prev_range[0], mask,
                                     float(grid[k]), cond, conditioning=steps[k])[-n:]

            x = euler_integrate(velocity, x, sampler)
            out[s:e] = x
            prev_states, prev_clean, prev_range = states, x, (s, e)
        scores[variant] = discontinuity_score(out, plan)
    return scores


def bench_overhead(
    params: DenoiserParams,
    x_ref: np.ndarray,
    cond: np.ndarray,
    plan: BlockPlan,
    sampler: SamplerConfig,
    repetitions: int = 5,
    seed: int = 0,
) -> dict:
    """Isolate the compressor's latency cost from its context-size savings.

    The comparison baseline keeps the bounded layout identical but swaps
    the convolution for a free subsampling summarizer, so both runs attend
    the same number of context chunks. The overhead is the difference of
    the two modes' median steady-state roll times over the baseline's
    median steady-state block time: timing the rolls alone keeps the
    attention's run-to-run noise out of the difference. Also reports
    per-block latency of the unbounded cache at the final block, where the
    bounded context must win.
    """
    steady = slice(3, None)  # the bounded layout fills up over the first three blocks
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if plan.n_blocks <= steady.start:
        raise ValueError(f"a plan of {plan.n_blocks} blocks has no steady-state block; "
                         f"use more than {steady.start}")

    def run(mode: str, bounded: bool) -> GenerationReport:
        return generate_stream(params, x_ref, cond, plan, sampler, use_convkv=bounded,
                               seed=seed, compression_mode=mode)[1]

    conv, base, unbounded_reports = [], [], []
    for rep in range(repetitions + 1):
        runs = [("conv", True, conv), ("subsample", True, base), ("conv", False, unbounded_reports)]
        # Interleaved in alternating order, so drift in machine speed hits every mode alike.
        for mode, bounded, reports in runs if rep % 2 == 0 else runs[::-1]:
            report = run(mode, bounded)
            if rep > 0:  # first round is warm-up
                reports.append(report)
    unbounded = np.asarray([r.block_times for r in unbounded_reports])
    conv_blocks, base_blocks = (np.asarray([r.block_times for r in rs]) for rs in (conv, base))
    conv_roll, base_roll = (float(np.median([r.roll_times[steady] for r in rs])) for rs in (conv, base))
    base_block = float(np.median(base_blocks[:, steady]))
    return {
        "latency_with_convkv": float(np.median(conv_blocks[:, steady])),
        "latency_without_compression_ops": base_block,
        "overhead_fraction": (conv_roll - base_roll) / base_block,
        "roll_overhead": conv_roll - base_roll,  # seconds per block the conv roll costs over subsampling
        "bounded_last_block": float(np.median(conv_blocks[:, -1])),
        "unbounded_last_block": float(np.median(unbounded[:, -1])),
        "per_block_with": np.median(conv_blocks, axis=0).tolist(),
        "per_block_without": np.median(base_blocks, axis=0).tolist(),
        "per_block_unbounded": np.median(unbounded, axis=0).tolist(),
    }
