"""Property net for the batch axis: batched ops and the one-forward loss against per-slice oracles.

A batched op's forward must equal its per-slice 2-D calls bit for bit; its
gradients, and the batched loss and its gradients, must equal the serial
computation to 1e-12 relative (weight gradients are summed over the batch
in one product, so their bits may move).
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar.blocks import BlockPlan
from nfar.checks import TINY
from nfar.convkv import bounded_view
from nfar.model import (
    InlineMemorySpec,
    RopeFrequencies,
    block_causal_mask,
    denoiser_forward,
    expand_mask_with_ref,
    init_params,
    rope_apply,
    tape_leaves,
    wrap_params,
)
from nfar.numerics import (
    Tensor,
    add,
    attention,
    concat,
    conv1d_strided,
    gated_residual,
    grad_of,
    layer_norm,
    linear_tanh,
    matmul,
    mean_all,
    mul,
    slice2d,
    sub,
)
from nfar.schedule import noise_forward
from nfar.training import Adam, neighbor_forcing_loss
from testkit import sum_all

TOL = 1e-12
STAGE2 = dataclasses.replace(TINY, compress_ratio=2)  # small plans form memory windows


def rel_err(got, want) -> float:
    err = float(np.abs(got - want).max())
    return err / max(float(np.abs(want).max()), 1e-300) if err else 0.0


def random_mask(rng, n, m):
    mask = (rng.random((n, m)) < 0.6).astype(float)
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1.0  # every row keeps a key
    return mask


# Each case: (op over its operands, operands, which operands carry the batch axis).
def op_cases(rng, B, n, d):
    H = 2
    hd = 2 * max(1, d // 4)
    dm = H * hd
    m = n + int(rng.integers(0, 3))
    L = 2 * n + 1
    mask = random_mask(rng, n, m)
    freqs = RopeFrequencies.create(hd, 100.0)
    pos = rng.integers(-3, 20, size=n).astype(float)

    def a(*shape):
        return rng.standard_normal(shape)

    return {
        "matmul": (matmul, [a(B, n, d), a(d, 3)], [True, False]),
        "layer_norm": (layer_norm, [a(B, n, d), a(d), a(d), a(B, 1, d), a(B, 1, d)], [True, False, False, True, True]),
        "gated_residual": (gated_residual, [a(B, n, 3), a(B, n, d), a(d, 3), a(3), a(B, 1, 3)],
                           [True, True, False, False, True]),
        "gated_residual-row": (gated_residual, [a(B, n, 3), a(B, 1, d), a(d, 3), a(3), a(B, 1, 3)],
                               [True, True, False, False, True]),
        "linear_tanh": (linear_tanh, [a(B, n, d), a(d, 3), a(3)], [True, False, False]),
        "attention": (lambda q, k, v: attention(q, k, v, mask, H), [a(B, n, dm), a(B, m, dm), a(B, m, dm)],
                      [True, True, True]),
        "slice2d": (lambda x: slice2d(x, rows=slice(1, None), cols=slice(0, d - 1)), [a(B, n + 1, d)], [True]),
        "concat": (concat, [a(B, n, d), a(B, 2, d)], [True, True]),
        "add": (add, [a(B, n, d), a(d)], [True, False]),
        "mul": (mul, [a(B, n, d), a(B, 1, d)], [True, True]),
        "conv1d_strided": (conv1d_strided, [a(B, L, d), a(2, d, d), a(d)], [True, False, False]),
        "rope_apply": (lambda x: rope_apply(x, pos, freqs), [a(B, n, dm)], [True]),
    }


def _call(op, arrays, wrap):
    ops = [Tensor(x) for x in arrays] if wrap else arrays
    return op(*ops) if op is not concat else concat(ops), ops


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), B=st.integers(1, 4), n=st.integers(1, 5), d=st.integers(2, 6))
def test_batched_ops_equal_their_per_slice_calls(seed, B, n, d):
    rng = np.random.default_rng(seed)
    for name, (op, arrays, batched) in op_cases(rng, B, n, d).items():
        out, leaves = _call(op, arrays, wrap=True)
        proj = rng.standard_normal(out.shape)
        grads = grad_of(sum_all(mul(out, proj)), leaves)
        summed = [np.zeros_like(x) for x, b in zip(arrays, batched) if not b]
        for i in range(B):
            parts = [x[i] if b else x for x, b in zip(arrays, batched)]
            out_i, leaves_i = _call(op, parts, wrap=True)
            assert np.array_equal(out_i.data, out.data[i]), name
            grads_i = grad_of(sum_all(mul(out_i, proj[i])), leaves_i)
            shared = iter(summed)
            for g, g_i, b in zip(grads, grads_i, batched):
                if b:
                    assert rel_err(g[i], g_i) <= TOL, name
                else:
                    next(shared)[...] += g_i
        shared = iter(summed)
        for g, b in zip(grads, batched):
            if not b:
                assert rel_err(g, next(shared)) <= TOL, name


def serial_loss(ptensors, config, sequences, conds, t_shared, eps, plan, bounded=False,
                mask_mode="causal", block_choice=None):
    """The per-element oracle: one 2-D forward per sequence, with the flow-matching formulas inline."""
    n_ref, lam = config.n_ref_chunks, config.compress_ratio
    chunk_mask = bounded_view(plan, lam) if bounded else block_causal_mask(plan)
    n_mem = chunk_mask.shape[1] - chunk_mask.shape[0]  # memory windows of lam chunks from chunk 0
    causal_mask = expand_mask_with_ref(chunk_mask, n_ref)
    memory = InlineMemorySpec(n_ref, n_mem, lam) if n_mem else None
    loss = None
    for i in range(sequences.shape[0]):
        x0, t = sequences[i], float(t_shared[i])
        x_t = (1.0 - t) * x0 + t * eps[i]
        target = eps[i] - x0
        if mask_mode == "none":
            s, e = plan.chunk_range(int(block_choice[i]))
            mask = np.ones((n_ref + e - s, n_ref + e - s))
        else:
            s, e = 0, plan.total_chunks
            mask = causal_mask
        tokens = np.concatenate([x0[:n_ref], x_t[s:e]])
        positions = np.concatenate([np.arange(-n_ref, 0), np.arange(s, e)])
        vel, _ = denoiser_forward(ptensors, config, tokens, positions, t, conds[i], mask, memory=memory)
        diff = sub(slice2d(vel, rows=slice(n_ref, None)), target[s:e])
        term = mean_all(mul(diff, diff))
        loss = term if loss is None else add(loss, term)
    return mul(loss, 1.0 / sequences.shape[0])


def perturbed_params(config, seed):
    params = init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name, value in params.values.items():
        params.values[name] = value + 0.1 * rng.standard_normal(value.shape)
    return params


@st.composite
def loss_inputs(draw):
    """A plan, a batch, steps and a mask mode: causal, bounded (stage 2) or none."""
    plan = BlockPlan(tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))))
    mode = draw(st.sampled_from(["causal", "none", "stage2"]))
    batch = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    F = plan.total_chunks
    inputs = dict(sequences=rng.standard_normal((batch, F, STAGE2.d_latent)),
                  conds=rng.standard_normal((batch, STAGE2.d_cond)),
                  t_shared=rng.uniform(0.0, 1.0, size=batch),
                  eps=rng.standard_normal((batch, F, STAGE2.d_latent)))
    extra = {}
    if mode == "none":
        extra = dict(mask_mode="none", block_choice=rng.integers(0, plan.n_blocks, size=batch))
    elif mode == "stage2":
        extra = dict(bounded=True)
    return plan, inputs, extra, seed


@settings(max_examples=60, deadline=None)
@given(case=loss_inputs())
def test_batched_loss_and_gradients_equal_the_serial_oracle(case):
    plan, inputs, extra, seed = case
    params = perturbed_params(STAGE2, seed % 1000)
    memory = "bounded" in extra and bounded_view(plan, STAGE2.compress_ratio).shape[1] > plan.total_chunks
    names = list(params.values) if memory else params.denoiser_names()  # the compressor is on the tape
    pt = wrap_params(params)
    batched = neighbor_forcing_loss(pt, STAGE2, plan=plan, **inputs, **extra)
    serial = serial_loss(pt, STAGE2, plan=plan, **inputs, **extra)
    assert rel_err(batched.data, serial.data) <= TOL
    leaves = tape_leaves(pt, names)
    got, want = grad_of(batched, leaves), grad_of(serial, leaves)
    for leaf, g, w in zip(leaves, got, want):
        assert rel_err(g, w) <= TOL, leaf
    # Bare weights and frozen (bare) weights give the taped loss bit for bit.
    bare = neighbor_forcing_loss(params.values, STAGE2, plan=plan, **inputs, **extra)
    frozen = neighbor_forcing_loss(wrap_params(params, names[:1]), STAGE2, plan=plan, **inputs, **extra)
    assert not isinstance(bare, Tensor)
    assert bare.item() == batched.item() == frozen.item()


def test_batched_noising_is_the_inline_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    x0, eps = rng.standard_normal((2, 5, 4, 3))
    t = rng.uniform(size=5)
    x_t = noise_forward(x0, t[:, None, None], eps)
    for i in range(5):
        assert np.array_equal(x_t[i], (1.0 - float(t[i])) * x0[i] + float(t[i]) * eps[i])


def test_flat_adam_matches_a_per_tensor_reference():
    rng = np.random.default_rng(4)
    shapes = [(3, 4), (4,), (2, 3, 3)]
    values = [rng.standard_normal(s) for s in shapes]
    flat = np.concatenate(values, axis=None)
    opt = Adam(flat, 1e-2, (0.9, 0.999), 1e-8)
    ref_values = [v.copy() for v in values]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for step in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        opt.step(grads)
        for j, g in enumerate(grads):  # the textbook update, one tensor at a time
            m[j] = 0.9 * m[j] + 0.1 * g
            v[j] = 0.999 * v[j] + 0.001 * g * g
            mhat, vhat = m[j] / (1 - 0.9 ** step), v[j] / (1 - 0.999 ** step)
            ref_values[j] = ref_values[j] - 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
    assert rel_err(flat, np.concatenate(ref_values, axis=None)) <= 1e-12
