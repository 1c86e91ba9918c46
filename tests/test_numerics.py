import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfar.numerics import (
    GradientTape,
    MaskError,
    ShapeError,
    TapeError,
    Tensor,
    add,
    attention,
    concat,
    conv1d_strided,
    finite_difference_grad,
    gated_residual,
    grad_of,
    layer_norm,
    linear_tanh,
    matmul,
    mean_all,
    mul,
    slice2d,
    sub,
    sum_all,
    window_products,
)

RNG = np.random.default_rng(1234)


def fd_check(build, x0, rtol=1e-6):
    """Compare tape gradient of a scalar graph against central differences."""
    leaf = Tensor(x0)
    loss = build(leaf)
    (g,) = grad_of(loss, [leaf])
    fd = finite_difference_grad(lambda x: build(Tensor(x)).item(), x0)
    denom = max(np.abs(fd).max(), 1e-8)
    assert np.abs(g - fd).max() / denom < rtol, (g, fd)


def test_add_mul_broadcast_gradients():
    x = RNG.standard_normal((3, 4))
    b = Tensor(RNG.standard_normal(4))
    fd_check(lambda t: sum_all(mul(add(t, b), add(t, b))), x)


def test_bias_broadcast_gradient_shape():
    x = Tensor(RNG.standard_normal((3, 4)))
    b = Tensor(RNG.standard_normal(4))
    loss = sum_all(add(x, b))
    gb = grad_of(loss, [b])[0]
    assert gb.shape == (4,)
    assert np.allclose(gb, 3.0)


def test_matmul_gradient():
    a0 = RNG.standard_normal((3, 5))
    b = Tensor(RNG.standard_normal((5, 2)))
    proj = RNG.standard_normal((3, 2))
    fd_check(lambda t: sum_all(mul(matmul(t, b), proj)), a0)
    fd_check(lambda t: sum_all(mul(matmul(Tensor(a0), t), proj)), b.data)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match="inner extents"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_slice_concat_gradients():
    x0 = RNG.standard_normal((4, 6))

    def build(t):
        s = slice2d(t, rows=slice(1, 3), cols=slice(0, 4))
        c = concat([s, s], axis=1)
        return mean_all(mul(c, c))

    fd_check(build, x0)


def test_layer_norm_gradient_and_normalization():
    x0 = RNG.standard_normal((3, 8))
    g, b = Tensor(RNG.standard_normal(8)), Tensor(RNG.standard_normal(8))
    scale, shift = RNG.standard_normal((1, 8)), RNG.standard_normal((1, 8))
    out = layer_norm(Tensor(x0), Tensor(np.ones(8)), Tensor(np.zeros(8)), np.ones((1, 8)), np.zeros((1, 8)))
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    assert np.array_equal(layer_norm(x0, np.ones(8), np.zeros(8), scale, shift), out.data * scale + shift)
    fd_check(lambda t: sum_all(mul(layer_norm(t, g, b, scale, shift), layer_norm(t, g, b, scale, shift))), x0,
             rtol=1e-5)


# The fused ops, with operands that broadcast as the model's do: (B, 1, d) modulation and gate rows.
FUSED = {
    "layer_norm": (layer_norm, [(2, 3, 4), (4,), (4,), (2, 1, 4), (2, 1, 4)]),
    "gated_residual": (gated_residual, [(2, 3, 5), (2, 3, 4), (4, 5), (5,), (2, 1, 5)]),
    # the condition path: one projected row per element, broadcast over the stream's tokens
    "gated_residual-row": (gated_residual, [(2, 3, 5), (2, 1, 4), (4, 5), (5,), (2, 1, 5)]),
    "linear_tanh": (linear_tanh, [(2, 3, 4), (4, 5), (5,)]),
}


@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_gradients_match_finite_differences(name):
    # Every operand, both as the only Tensor among bare operands (stage 2 runs
    # Tensor activations through bare, frozen weights) and among Tensors.
    op, shapes = FUSED[name]
    arrays = [RNG.standard_normal(s) for s in shapes]
    proj = RNG.standard_normal(op(*arrays).shape)
    for i in range(len(arrays)):
        for others in (lambda a: a, Tensor):
            def build(t):
                return sum_all(mul(op(*[t if j == i else others(a) for j, a in enumerate(arrays)]), proj))

            fd_check(build, arrays[i], rtol=1e-5)


@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_is_one_tape_node(name):
    op, shapes = FUSED[name]
    leaves = [Tensor(RNG.standard_normal(s)) for s in shapes]
    out = op(*leaves)
    assert out.parents == tuple(leaves)
    x = leaves[1] if op is gated_residual else leaves[0]
    only_x = op(*[o if o is x else o.data for o in leaves])
    assert only_x.parents == (x,) and np.array_equal(only_x.data, out.data)


def test_gated_residual_has_the_bits_of_its_composition():
    # Each fused op computes the NumPy expressions of the elementary ops it
    # stands for, in the same order, forward and backward.
    h, x, w, b = (RNG.standard_normal(s) for s in ((2, 3, 5), (2, 3, 4), (4, 5), (5,)))
    row, gate = RNG.standard_normal((2, 1, 4)), RNG.standard_normal((2, 1, 5))
    proj = RNG.standard_normal((2, 3, 5))

    def gated(h, x, w, b, gate):
        return add(h, mul(add(matmul(x, w), b), gate))

    cases = {
        "gated_residual": ([h, x, w, b, gate], gated_residual, gated),
        "gated_residual-row": ([h, row, w, b, gate], gated_residual, gated),
    }
    for name, (arrays, fused, composed) in cases.items():
        results = []
        for op in (fused, composed):
            leaves = [Tensor(a) for a in arrays]
            out = op(*leaves)
            results.append([out.data, *grad_of(sum_all(mul(out, proj)), leaves)])
        for got, want in zip(*results, strict=True):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_norm_has_the_bits_of_var_and_the_modulation(dtype):
    x, g, b = (RNG.standard_normal(s).astype(dtype) for s in ((2, 5, 7), (7,), (7,)))
    scale, shift = (RNG.standard_normal((2, 1, 7)).astype(dtype) for _ in range(2))
    xhat = (x - x.mean(axis=-1, keepdims=True)) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6))
    assert np.array_equal(layer_norm(x, g, b, scale, shift), (xhat * g + b) * scale + shift)


def test_linear_tanh_is_tanh_of_the_projection():
    x, w, b = RNG.standard_normal((2, 3, 4)), RNG.standard_normal((4, 5)), RNG.standard_normal(5)
    assert np.array_equal(linear_tanh(x, w, b), np.tanh(x @ w + b))


def test_slice_gradients_add_into_a_buffer_of_their_own():
    # u is read through two overlapping slices and through `add`, whose VJP
    # hands the same gradient array to both of its parents: adding a slice's
    # gradient into that array in place would corrupt v's gradient.
    x0, v0 = RNG.standard_normal((4, 6)), RNG.standard_normal((4, 6))
    p1, p2, p3 = RNG.standard_normal((2, 6)), RNG.standard_normal((3, 4)), RNG.standard_normal((4, 6))

    def build(x, v):
        u = mul(x, 2.0)
        s1 = slice2d(u, rows=slice(0, 2))
        s2 = slice2d(u, rows=slice(1, 4), cols=slice(2, 6))
        return add(add(sum_all(mul(s1, p1)), sum_all(mul(s2, p2))), sum_all(mul(add(u, v), p3)))

    x, v = Tensor(x0), Tensor(v0)
    gx, gv = grad_of(build(x, v), [x, v])
    assert np.array_equal(gv, p3)
    want = 2.0 * p3
    want[0:2] += 2.0 * p1
    want[1:4, 2:6] += 2.0 * p2
    assert np.allclose(gx, want, rtol=1e-14, atol=0)
    fd_check(lambda t: build(t, Tensor(v0)), x0)


def attention_mask(n, m):
    mask = np.ones((n, m))
    mask[0, 2] = 0.0
    mask[2, :2] = 0.0
    mask[1, 3:] = 0.0
    return mask


def per_head_attention(q, k, v, mask, n_heads):
    """Reference: each head's masked softmax(q k^T / sqrt(hd)) v, heads side by side."""
    hd = q.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        cols = slice(h * hd, (h + 1) * hd)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(hd)
        e = np.where(mask != 0, np.exp(scores - scores.max(axis=1, keepdims=True)), 0.0)
        outs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_gradients(n_heads):
    q0, k0, v0 = (RNG.standard_normal((r, 8)) for r in (3, 5, 5))
    mask = attention_mask(3, 5)
    w = Tensor(RNG.standard_normal((3, 8)))
    out = attention(Tensor(q0), Tensor(k0), Tensor(v0), mask, n_heads)
    assert len(out.parents) == 3  # one tape node
    q, k, v = Tensor(q0), Tensor(k0), Tensor(v0)
    fd_check(lambda t: sum_all(mul(attention(t, k, v, mask, n_heads), w)), q0, rtol=1e-5)
    fd_check(lambda t: sum_all(mul(attention(q, t, v, mask, n_heads), w)), k0, rtol=1e-5)
    fd_check(lambda t: sum_all(mul(attention(q, k, t, mask, n_heads), w)), v0, rtol=1e-5)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_matches_a_per_head_loop(n_heads):
    q, k, v = (RNG.standard_normal((r, 8)) * 3 for r in (4, 6, 6))
    mask = attention_mask(4, 6)
    out = attention(Tensor(q), Tensor(k), Tensor(v), mask, n_heads).data
    assert np.abs(out - per_head_attention(q, k, v, mask, n_heads)).max() < 1e-12


def test_attention_masked_keys_do_not_reach_the_output():
    q, k, v = (RNG.standard_normal((r, 8)) for r in (3, 5, 5))
    mask = attention_mask(3, 5)
    base = attention(Tensor(q), Tensor(k), Tensor(v), mask, 2).data
    for j in range(5):
        kp, vp = k.copy(), v.copy()
        kp[j] += 0.5
        vp[j] += 0.5
        out = attention(Tensor(q), Tensor(kp), Tensor(vp), mask, 2).data
        for i in range(3):
            assert np.array_equal(out[i], base[i]) == (mask[i, j] == 0)


def softmax_attention_oracle(q, k, v, mask, n_heads, g):
    """Attention and its VJP by the formula the op's in-place softmax stands for.

    np.where masks the scaled scores, then exp(s - max), then e / sum: each
    step a new array. Returns the output and the gradients of q, k and v.
    """
    hd = q.shape[-1] // n_heads
    scale = 1.0 / math.sqrt(hd)

    def heads(a):
        return a.reshape(*a.shape[:-1], n_heads, hd).swapaxes(-2, -3)

    def rows(a):
        a = a.swapaxes(-2, -3)
        return a.reshape(*a.shape[:-2], -1)

    qh, kh, vh, gh = heads(q), heads(k), heads(v), heads(g)
    scores = np.where(mask != 0, (qh @ kh.swapaxes(-1, -2)) * scale, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = gh @ vh.swapaxes(-1, -2)
    ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * scale
    return rows(p @ vh), rows(ds @ kh), rows(ds.swapaxes(-1, -2) @ qh), rows(p.swapaxes(-1, -2) @ gh)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(1, 6),
       m=st.integers(1, 9), n_heads=st.integers(1, 3), hd=st.integers(1, 4),
       dtype=st.sampled_from([np.float64, np.float32]), visible=st.booleans())
def test_attention_has_the_bits_of_the_softmax_formula(seed, lead, n, m, n_heads, hd, dtype, visible):
    rng = np.random.default_rng(seed)
    q, g = (rng.standard_normal((*lead, n, n_heads * hd)).astype(dtype) * 2 for _ in range(2))
    k, v = (rng.standard_normal((*lead, m, n_heads * hd)).astype(dtype) * 2 for _ in range(2))
    mask = np.ones((n, m))
    if not visible:  # a partial mask with at least one key on in every row
        mask = (rng.random((n, m)) < 0.5).astype(float)
        mask[np.arange(n), rng.integers(0, m, n)] = 1.0
    out = attention(Tensor(q), Tensor(k), Tensor(v), mask, n_heads)
    got = [out.data, *out.vjp(g)]
    want = softmax_attention_oracle(q, k, v, mask, n_heads, g)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == dtype and np.array_equal(a, b)
    assert np.array_equal(attention(q, k, v, mask, n_heads), out.data)
    with pytest.raises(ShapeError):  # an all-ones mask skips the masking pass, not the shape check
        attention(q, k, v, np.ones((n, m + 1)), n_heads)


def layer_norm_oracle(x, gain, bias, scale, shift, g, eps=1e-6):
    """layer_norm and its VJP with every row mean by ndarray.mean, for (..., n, d) x and (..., 1, d) modulation."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv
    y = xhat * gain + bias
    out = y * scale + shift
    gs, gt = (a.sum(axis=-2, keepdims=True) for a in (g * y, g))
    gy = g * scale
    gxhat = gy * gain
    gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return out, gx, (gy * xhat).reshape(-1, x.shape[-1]).sum(axis=0), gy.reshape(-1, x.shape[-1]).sum(axis=0), gs, gt


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(1, 6),
       d=st.integers(1, 9), dtype=st.sampled_from([np.float64, np.float32]))
def test_layer_norm_has_the_bits_of_its_mean_formula(seed, lead, n, d, dtype):
    rng = np.random.default_rng(seed)
    x, g = (rng.standard_normal((*lead, n, d)).astype(dtype) * 3 for _ in range(2))
    gain, bias = (rng.standard_normal(d).astype(dtype) for _ in range(2))
    scale, shift = (rng.standard_normal((*lead, 1, d)).astype(dtype) for _ in range(2))
    out = layer_norm(*(Tensor(a) for a in (x, gain, bias, scale, shift)))
    got = [out.data, *out.vjp(g)]
    want = layer_norm_oracle(x, gain, bias, scale, shift, g)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == dtype and a.shape == b.shape and np.array_equal(a, b)


def test_attention_all_masked_row_rejected():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(MaskError):
        attention(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))),
                  np.array([[1.0, 1, 1], [0, 0, 0]]), 2)


def test_conv1d_strided_partitions_input():
    # kernel == stride: perturbing input chunk q touches only output chunk q // k.
    lam, c = 5, 3
    w = Tensor(RNG.standard_normal((lam, c, c)))
    b = Tensor(RNG.standard_normal(c))
    x = RNG.standard_normal((10, c))
    base = conv1d_strided(Tensor(x), w, b).data
    for q in range(10):
        xp = x.copy()
        xp[q] += 1.0
        out = conv1d_strided(Tensor(xp), w, b).data
        changed = np.where(np.any(out != base, axis=1))[0]
        assert list(changed) == [q // lam]


def test_conv1d_strided_gradient_and_remainder():
    lam, c = 2, 3
    w = Tensor(RNG.standard_normal((lam, c, c)))
    b = Tensor(RNG.standard_normal(c))
    x0 = RNG.standard_normal((5, c))  # trailing odd chunk dropped
    out = conv1d_strided(Tensor(x0), w, b)
    assert out.shape == (2, c)
    assert len(out.parents) == 3  # one tape node
    fd_check(lambda t: sum_all(conv1d_strided(t, w, b)), x0)
    x = Tensor(x0)
    proj = Tensor(RNG.standard_normal((2, c)))
    fd_check(lambda t: sum_all(mul(conv1d_strided(x, t, b), proj)), w.data)
    fd_check(lambda t: sum_all(mul(conv1d_strided(x, w, t), proj)), b.data)


def test_window_products_rows_do_not_depend_on_batching():
    # Each window must equal its own 1-row product, however many windows and
    # kernels share the call, and with a leading sampler-step axis the
    # kernels broadcast over: the inference cache's one roll relies on it.
    k, c, steps = 5, 8, 3
    for dtype in (np.float64, np.float32):
        W = RNG.standard_normal((4, k, c, c)).astype(dtype)
        b = RNG.standard_normal((4, c)).astype(dtype)
        for n in (1, 2, 3, 7):
            x = RNG.standard_normal((4, steps, n * k + 2, c)).astype(dtype)
            out = window_products(x[:, 0], W, b)
            stepped = window_products(x, W[:, None], b[:, None])
            assert out.shape == (4, n, c) and stepped.shape == (4, steps, n, c)
            assert out.dtype == stepped.dtype == dtype
            for j in range(4):
                for s in range(steps):
                    for p in range(n):
                        row = x[j, s, p * k:(p + 1) * k].reshape(1, k * c) @ W[j].reshape(k * c, c) + b[j]
                        assert np.array_equal(stepped[j, s, p], row[0])
                        assert s > 0 or np.array_equal(out[j, p], row[0])


def test_conv1d_rejects_bad_weights_and_short_input():
    w = Tensor(np.zeros((2, 3, 3)))
    b = Tensor(np.zeros(3))
    with pytest.raises(ShapeError):
        conv1d_strided(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 3, 4))), b)
    with pytest.raises(ShapeError):
        conv1d_strided(Tensor(np.zeros((4, 3))), Tensor(np.zeros((6, 3))), b)
    with pytest.raises(ShapeError):
        conv1d_strided(Tensor(np.zeros((1, 3))), w, b)


def test_tape_leaf_off_graph_rejected():
    x = Tensor(np.ones((2, 2)))
    y = Tensor(np.ones((2, 2)))
    loss = sum_all(mul(x, x))
    with pytest.raises(TapeError):
        GradientTape(loss).gradients([y])


def test_gradient_accumulates_over_reused_node():
    x0 = RNG.standard_normal((3, 3))
    fd_check(lambda t: sum_all(add(mul(t, t), mul(t, t))), x0)


def test_sub_and_scalar_ops():
    x0 = RNG.standard_normal((2, 4))
    fd_check(lambda t: mean_all(mul(sub(t, 0.5), 3.0)), x0)


def test_deep_chain_does_not_recurse():
    # Iterative traversal must survive graphs deeper than the recursion limit.
    x = Tensor(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = add(y, x)
    (g,) = grad_of(sum_all(y), [x])
    assert g[0, 0] == 5001.0


def test_float32_storage_propagates():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = mul(add(x, x), 0.5)
    assert y.dtype == np.float32
    qkv = Tensor(RNG.standard_normal((3, 4)).astype(np.float32))
    att = attention(qkv, qkv, qkv, np.tril(np.ones((3, 3))), 2)
    assert att.dtype == np.float32
    assert grad_of(sum_all(att), [qkv])[0].dtype == np.float32


# -- bare-array path ----------------------------------------------------------

def _arrays(dtype, *shapes):
    return [RNG.standard_normal(s).astype(dtype) for s in shapes]


# op name -> (op over the operands, operand shapes)
OPS = {
    "add": (add, [(3, 4), (4,)]),
    "sub": (sub, [(3, 4), (3, 4)]),
    "mul": (mul, [(3, 4), (1, 4)]),
    "linear_tanh": (linear_tanh, [(3, 4), (4, 5), (5,)]),
    "concat": (lambda a, b: concat([a, b], axis=1), [(3, 4), (3, 2)]),
    "slice2d": (lambda a: slice2d(a, rows=slice(1, 3), cols=slice(0, 2)), [(3, 4)]),
    "matmul": (matmul, [(3, 4), (4, 5)]),
    "layer_norm": (layer_norm, [(3, 4), (4,), (4,), (1, 4), (1, 4)]),
    "gated_residual": (gated_residual, [(3, 5), (3, 4), (4, 5), (5,), (1, 5)]),
    "attention": (lambda q, k, v: attention(q, k, v, attention_mask(3, 5), 2), [(3, 8), (5, 8), (5, 8)]),
    "sum_all": (sum_all, [(3, 4)]),
    "mean_all": (mean_all, [(3, 4)]),
    "conv1d_strided": (conv1d_strided, [(7, 3), (2, 3, 3), (3,)]),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(OPS))
def test_bare_operands_give_the_taped_result_as_a_bare_array(name, dtype):
    op, shapes = OPS[name]
    arrays = _arrays(dtype, *shapes)
    bare = op(*arrays)
    taped = op(*[Tensor(a) for a in arrays])
    assert type(bare) is np.ndarray and isinstance(taped, Tensor)
    assert bare.dtype == taped.dtype == dtype
    assert np.array_equal(bare, taped.data)
    mixed = op(Tensor(arrays[0]), *arrays[1:])  # one Tensor operand puts the result on the tape
    assert isinstance(mixed, Tensor) and np.array_equal(mixed.data, bare)


def test_scalar_operand_takes_the_dtype_of_a_bare_array():
    x = np.ones((2, 2), dtype=np.float32)
    for op in (add, sub, mul):
        assert op(x, 0.5).dtype == np.float32
        assert np.array_equal(op(x, 0.5), op(Tensor(x), 0.5).data)


# op name -> (call that must fail, operand arrays, expected error)
BAD = {
    "matmul-inner": (matmul, [np.zeros((2, 3)), np.zeros((4, 5))], ShapeError),
    "matmul-rank": (matmul, [np.zeros(3), np.zeros((3, 5))], ShapeError),
    "slice2d-rank": (lambda a: slice2d(a, rows=slice(0, 1)), [np.zeros(3)], ShapeError),
    "layer_norm-rank": (layer_norm, [np.zeros(4), np.ones(4), np.zeros(4), np.zeros(4), np.zeros(4)], ShapeError),
    "layer_norm-modulation": (layer_norm, [np.zeros((2, 4)), np.ones(4), np.zeros(4), np.zeros((3, 1, 4)),
                                           np.zeros((1, 4))], ShapeError),
    "gated_residual-inner": (gated_residual, [np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(5),
                                              np.zeros((1, 5))], ShapeError),
    "gated_residual-stream": (gated_residual, [np.zeros((1, 5)), np.zeros((2, 4)), np.zeros((4, 5)), np.zeros(5),
                                               np.zeros((1, 5))], ShapeError),
    "linear_tanh-inner": (linear_tanh, [np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(5)], ShapeError),
    "attention-heads": (lambda q, k, v: attention(q, k, v, np.ones((2, 3)), 3),
                        [np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 4))], ShapeError),
    "attention-mask-shape": (lambda q, k, v: attention(q, k, v, np.ones((2, 2)), 2),
                             [np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 4))], ShapeError),
    "attention-masked-row": (lambda q, k, v: attention(q, k, v, np.array([[1.0, 1, 1], [0, 0, 0]]), 2),
                             [np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 4))], MaskError),
    "conv1d-weights": (conv1d_strided, [np.zeros((4, 3)), np.zeros((2, 3, 4)), np.zeros(3)], ShapeError),
    "conv1d-short": (conv1d_strided, [np.zeros((1, 3)), np.zeros((2, 3, 3)), np.zeros(3)], ShapeError),
}


@pytest.mark.parametrize("case", list(BAD))
def test_bad_operands_raise_the_same_error_on_both_paths(case):
    op, arrays, error = BAD[case]
    with pytest.raises(error) as bare:
        op(*arrays)
    with pytest.raises(error) as taped:
        op(*[Tensor(a) for a in arrays])
    assert str(bare.value) == str(taped.value)
