"""Acceptance gate: twelve checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
under plain ``pytest`` the per-test PASSED/FAILED verdicts carry the same
information. Seven checks live in ``nfar.checks`` (``nfar verify`` runs the
same functions); seed 0 is their acceptance input.
"""

import time

import numpy as np

from nfar import checks
from nfar.blocks import BlockPlan
from nfar.checks import randomized_params
from nfar.convkv import cache_append, cache_roll, new_cache
from nfar.model import (
    BlockKV,
    DenoiserConfig,
    RopeFrequencies,
    block_causal_mask,
    denoiser_forward,
    init_params,
    rope_apply,
    wrap_params,
)
from nfar.numerics import Tensor, grad_of
from nfar.schedule import SamplerConfig
from nfar.streaming import bench_overhead, zero_shot_experiment
from nfar.synthdata import (
    Dataset,
    LatentDynamics,
    condition_vector,
    generate_state_path,
    make_dataset,
    render_and_encode,
)
from nfar.training import TrainConfig, smoothed, train_stage1
from testkit import sum_all


def report(name: str, ok: bool, metric: str, budget: float, elapsed: float):
    print(f"\nCHECK {name} {'PASS' if ok else 'FAIL'} {metric} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {metric}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def run_shared(name: str, check, budget: float):
    t0 = time.monotonic()
    ok, metric = check(seed=0)
    report(name, ok, metric, budget, time.monotonic() - t0)


def test_01_prop2_closed_form():
    run_shared("prop2-closed-form", checks.prop2_closed_form, 30)


def test_02_prop1_bound():
    run_shared("prop1-bound", checks.prop1_bound, 10)


def test_03_mask_correctness():
    run_shared("mask-correctness", checks.mask_correctness, 1)


def test_04_causality_bitwise():
    t0 = time.monotonic()
    config = DenoiserConfig(n_layers=2, n_heads=2, d_model=16, d_latent=4, d_cond=8, d_ff=16)
    params = randomized_params(config, seed=7)
    pt = wrap_params(params)
    plan = BlockPlan((2, 2, 2))
    mask = block_causal_mask(plan)
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((6, 4))
    cond = rng.standard_normal(8)
    pos = np.arange(6)

    def outputs_and_grad(toks):
        x = Tensor(toks)
        vel, _ = denoiser_forward(pt, config, x, pos, 0.4, cond, mask)
        early = sum_all(vel * Tensor(np.array([[1.0]] * 2 + [[0.0]] * 4) * np.ones((6, 4))))
        (g,) = grad_of(early, [x])
        return vel.data, g

    base_out, base_grad = outputs_and_grad(tokens)
    ok = True
    for j in range(6):
        pert = tokens.copy()
        pert[j] += 10.0
        out, grad = outputs_and_grad(pert)
        for i in range(6):
            if i // 2 < j // 2:
                ok &= np.array_equal(out[i], base_out[i])
        if j // 2 > 0:  # perturbing beyond block 0: block-0 loss gradient rows unchanged
            ok &= np.array_equal(grad[:2], base_grad[:2])
    ok &= (base_grad[2:] == 0.0).all()  # later blocks never reach the early loss
    report("causality-bitwise", ok, "exhaustive (i, j) pairs over a 3-block toy, exact",
           10, time.monotonic() - t0)


def test_05_step_aligned_kv_reuse():
    run_shared("step-aligned-kv-reuse", checks.cache_equivalence, 60)


def test_06_constant_memory():
    run_shared("constant-memory", checks.constant_memory, 300)


def test_07_coverage_ledger():
    run_shared("coverage-ledger", checks.coverage_ledger, 10)


def test_08_averaging_fixed_point():
    t0 = time.monotonic()
    config = DenoiserConfig()
    weights = init_params(config, seed=0).values
    comp = weights["compressor.w"], weights["compressor.b"]
    rng = np.random.default_rng(5)
    K = rng.standard_normal((config.n_layers, 14, config.d_model))
    V = rng.standard_normal((config.n_layers, 14, config.d_model))
    freqs = RopeFrequencies.create(config.head_dim, config.rope_base)
    cache = new_cache(config.n_layers, config.d_model, [0.5], freqs)
    for a, e in ((0, 6), (6, 14)):  # the second roll compresses windows [0, 5) and [5, 10)
        pos = list(range(a, e))
        cache_append(cache, BlockKV(K[:, a:e], rope_apply(K[:, a:e], pos, freqs), V[:, a:e]), pos, 0)
        cache_roll(cache, comp)
    lt = cache.long_term
    s = float(lt.positions[1])
    err = max(np.abs(lt.keys[:, 0, 1] - K[:, 5:10].mean(axis=1)).max(),
              np.abs(lt.vals[:, 0, 1] - V[:, 5:10].mean(axis=1)).max())
    m_k = lt.keys[0, 0, 1:2]  # layer 0 of the one step
    hd = config.head_dim
    consumed = rope_apply(Tensor(m_k[:, :hd]), np.array([s]), freqs).data[0]
    ang = s * freqs.freqs
    manual = np.concatenate([
        m_k[0, :hd // 2] * np.cos(ang) - m_k[0, hd // 2:hd] * np.sin(ang),
        m_k[0, :hd // 2] * np.sin(ang) + m_k[0, hd // 2:hd] * np.cos(ang),
    ])
    rope_err = np.abs(consumed - manual).max()
    ok = err < 1e-12 and rope_err < 1e-12 and s == 5.0 and lt.spans[1] == (5, 10)
    report("averaging-fixed-point", ok,
           f"mean_err={err:.2e} rope_reset_err={rope_err:.2e} (tol 1e-12)",
           1, time.monotonic() - t0)


def test_09_gradient_integrity():
    run_shared("gradient-integrity", checks.gradient_integrity, 300)


def test_10_training_efficacy():
    t0 = time.monotonic()
    # Default synthetic dataset: smoothed loss at step 2000 under half of start.
    dyn = LatentDynamics.create(seed=0)
    plan = BlockPlan.default(3)
    ds = make_dataset(dyn, 32, plan.total_chunks, seed=1)
    tc = TrainConfig(total_steps=2000, plan=plan, seed=1)
    _, hist = train_stage1(tc, ds, init_params(DenoiserConfig(), seed=2))
    sm = smoothed([h[1] for h in hist])
    ratio = sm[-1] / sm[49]
    # Linearly-solvable micro-dataset: constant-direction latents.
    d = 16
    v = np.ones(d) / np.sqrt(d)
    amps = np.array([0.75, 1.0, 1.25, 1.5])
    seqs = np.stack([a * np.tile(v, (plan.total_chunks, 1)) for a in amps])
    conds = np.stack([condition_vector(s) for s in seqs])
    micro = Dataset(sequences=seqs, conditions=conds, dynamics=dyn)
    tc2 = TrainConfig(total_steps=5000, plan=plan, seed=2, batch_size=8,
                      learning_rate=1e-3, lr_schedule="cosine")
    _, hist2 = train_stage1(tc2, micro, init_params(DenoiserConfig(), seed=3))
    micro_final = smoothed([h[1] for h in hist2])[-1]
    ok = ratio < 0.5 and micro_final < 1e-3
    report("training-efficacy", ok,
           f"smoothed ratio@2000={ratio:.3f} (<0.5); micro smoothed@5000={micro_final:.2e} (<1e-3)",
           900, time.monotonic() - t0)


def test_11_zero_shot_direction():
    t0 = time.monotonic()
    dyn = LatentDynamics.create(seed=0)
    plan_train = BlockPlan.default(3)
    ds = make_dataset(dyn, 32, plan_train.total_chunks, seed=1)
    tc = TrainConfig(total_steps=1200, plan=plan_train, seed=1, mask_mode="none")
    params, _ = train_stage1(tc, ds, init_params(DenoiserConfig(), seed=2))
    plan = BlockPlan.default(6)
    sampler = SamplerConfig.uniform(3)
    res = {}
    for s in range(20):
        u = generate_state_path(plan.total_chunks, dyn.delta_u, seed=1000 + s)
        _, z0 = render_and_encode(dyn, u, dyn.residual_bound, seed=2000 + s)
        scores = zero_shot_experiment(params, z0[:2], condition_vector(z0), plan, sampler, seed=s)
        for k, val in scores.items():
            res.setdefault(k, []).append(val)
    medians = {k: float(np.median(vals)) for k, vals in res.items()}
    ok = medians["same-step"] < medians["independent-noise"]
    report("zero-shot-direction", ok,
           "medians over 20 seeds: " + " ".join(f"{k}={v:.3f}" for k, v in sorted(medians.items())),
           600, time.monotonic() - t0)


def test_12_overhead_sanity():
    t0 = time.monotonic()
    config = DenoiserConfig()
    params = randomized_params(config, seed=12)
    rng = np.random.default_rng(12)
    x_ref = rng.standard_normal((2, config.d_latent))
    cond = rng.standard_normal(config.d_cond)
    plan = BlockPlan.default(50)
    result = bench_overhead(params, x_ref, cond, plan, SamplerConfig.uniform(2),
                            repetitions=5, seed=12)
    ok = result["overhead_fraction"] < 0.10
    ok &= result["bounded_last_block"] < result["unbounded_last_block"]
    report("overhead-sanity", ok,
           f"overhead={result['overhead_fraction']:+.3f} (<0.10); "
           f"block50 bounded={result['bounded_last_block']*1e3:.2f}ms "
           f"unbounded={result['unbounded_last_block']*1e3:.2f}ms",
           300, time.monotonic() - t0)
