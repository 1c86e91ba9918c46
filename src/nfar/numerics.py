"""Dense arrays with optional reverse-mode gradients on NumPy storage.

Every op takes plain arrays or :class:`Tensor` operands. With no
:class:`Tensor` operand it returns a bare ``np.ndarray`` and records
nothing: generation and held-out evaluation run this way. With at least
one, it wraps the same result in a :class:`Tensor` that records its
Tensor operands as parents and a vector-Jacobian closure, so a scalar
result can be walked backwards by :class:`GradientTape` to produce one
gradient per leaf. A bare operand is a constant: it gets no gradient and
no place on the tape. Each op computes its result once, the same way on
both paths, so the two agree bit for bit. Reduction order inside every op
is fixed (plain NumPy loops/BLAS calls, no reordering), which is what lets
cached-vs-recomputed comparisons use tight tolerances.

Row-wise ops take ``(..., n, d)`` operands: leading axes are a batch that
shares the weights, and a matrix is the case with none. Each slice of a
batched forward has the bits of its own 2-D call; a weight's gradient is
one product over the rows of every slice.

A transformer layer is one tape node. Each formula is written once, as
array-level halves: a forward (``_layer_norm_fwd``, ``_attention_fwd``,
``_gated_residual_fwd``, ``_linear_tanh_fwd``, ``rotate_pairs``,
``window_products``) that returns its result and what its VJP reads, and a
VJP (``*_vjp``) that returns one gradient per operand, skipping those not
needed. The public ops wrap one pair each as one node and compute the NumPy
expressions of the elementary-op chain they stand for, in its order.
``transformer_layer`` calls the halves in the order of the layer's chain of
public ops, so its bits, forward and backward, are that chain's; on bare
operands it is plain NumPy calls, and with a Tensor operand one node.

``attention`` runs its softmax in the one buffer that the score product
returns: scaling, masking, max-shift, ``exp`` and normalisation each write
in place, and a mask with every key visible skips the masking pass. These
are the ufuncs of the ``np.where`` / ``exp(s - max)`` / ``e / sum`` formula
in its order, so the bits are that formula's; so are ``layer_norm``'s row
means, which call ``np.add.reduce`` and divide in place as ``ndarray.mean``
does, without its Python wrapper.

``window_products``, the strided-conv kernel of both stage-2 training and
the inference cache's roll, stacks the windows that share a kernel into
zero-padded GEMMs of exactly ``WINDOW_ROWS`` rows. A product's bits depend
on its shape, so with one shape a window's bits are its own, whatever
windows share its call.

Default precision is float64; float32 is an explicit opt-in for the
streaming benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = frozenset({np.dtype(np.float64), np.dtype(np.float32)})
LAYER_NORM_EPS = 1e-6  # added to each row's variance
FD_STEP = 1e-5  # finite_difference_grad's central-difference step
WINDOW_ROWS = 4  # rows of every window_products GEMM: the bits of a product depend on its shape


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class MaskError(ValueError):
    """An attention mask is malformed (e.g. a fully masked row)."""


class TapeError(ValueError):
    """A gradient was requested for a node that is not on the tape."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Immutable dense array plus the tape record that produced it."""

    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents: tuple = (), vjp: Callable | None = None):
        self.data = _as_array(data)
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def data_of(x):
    """The array behind an op's result: a Tensor's data, or the bare array itself.

    An ndarray has a ``.data`` attribute of its own (a memoryview), so code
    that may receive either kind reads values through this, never ``.data``.
    """
    return x.data if isinstance(x, Tensor) else x


def _array(x) -> np.ndarray:
    """An operand's float array: a Tensor's data, a float ndarray as is, anything else converted."""
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, np.ndarray) and x.dtype in FLOAT_DTYPES:
        return x
    return _as_array(x)


def _node(out: np.ndarray, operands: tuple, vjp: Callable) -> Tensor:
    """`out` as a tape node whose parents are the Tensor operands.

    `vjp(g)` returns one gradient per operand, and None for an operand that
    is not a Tensor: ops skip that gradient's arithmetic, and a bare operand
    (a constant, or a frozen weight) never becomes a leaf on the tape.
    """
    keep = [isinstance(o, Tensor) for o in operands]
    if all(keep):
        return Tensor(out, operands, vjp)
    parents = tuple(o for o, k in zip(operands, keep) if k)
    return Tensor(out, parents, lambda g: [pg for pg, k in zip(vjp(g), keep) if k])


def _taped(out: np.ndarray, operands: tuple, vjp: Callable, saved: tuple) -> Tensor | np.ndarray:
    """`out` as is when no operand is a Tensor, else a node whose VJP is vjp(g, saved, need), `need` saying
    which operands are Tensors."""
    need = tuple(isinstance(o, Tensor) for o in operands)
    if not any(need):
        return out
    return _node(out, operands, lambda g: vjp(g, saved, need))


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., d) -> (rows, d): every leading axis flattened into one row axis."""
    return a.reshape(-1, a.shape[-1])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of NumPy broadcasting)."""
    lead = grad.ndim - len(shape)
    if lead:
        grad = grad.sum(axis=tuple(range(lead)))
    ones = tuple(i for i, extent in enumerate(shape) if extent == 1 and grad.shape[i] != 1)
    return grad.sum(axis=ones, keepdims=True) if ones else grad


# -- elementwise ops ------------------------------------------------------

def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Operand arrays; a scalar operand takes the dtype of an array or Tensor partner."""
    if isinstance(b, (Tensor, np.ndarray)):
        y = _array(b)
        return (_array(a) if isinstance(a, (Tensor, np.ndarray)) else _as_array(a, y.dtype)), y
    x = _array(a)
    return x, _as_array(b, x.dtype)


def add(a, b) -> Tensor | np.ndarray:
    x, y = _pair(a, b)
    out = x + y
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return out

    def vjp(g):
        return _unbroadcast(g, x.shape) if ta else None, _unbroadcast(g, y.shape) if tb else None

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor | np.ndarray:
    x, y = _pair(a, b)
    out = x - y
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return out

    def vjp(g):
        return _unbroadcast(g, x.shape) if ta else None, -_unbroadcast(g, y.shape) if tb else None

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor | np.ndarray:
    x, y = _pair(a, b)
    out = x * y
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return out

    def vjp(g):
        return _unbroadcast(g * y, x.shape) if ta else None, _unbroadcast(g * x, y.shape) if tb else None

    return _node(out, (a, b), vjp)


# -- structural ops -------------------------------------------------------

def concat(tensors: Sequence, axis: int = -2) -> Tensor | np.ndarray:
    """Join along `axis`, by default the token axis of (..., n, d) operands."""
    arrays = [_array(t) for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    keep = [isinstance(t, Tensor) for t in tensors]
    if not any(keep):
        return out
    cuts = np.cumsum([x.shape[axis] for x in arrays[:-1]])

    def vjp(g):
        return [part if k else None for part, k in zip(np.split(g, cuts, axis=axis), keep)]

    return _node(out, tuple(tensors), vjp)


def slice2d(a, rows: slice | None = None, cols: slice | None = None) -> Tensor | np.ndarray:
    """Rows and columns of the last two axes of a (..., n, d) operand."""
    x = _array(a)
    if x.ndim < 2:
        raise ShapeError(f"slice2d expects a matrix or a stack of them, got shape {x.shape}")
    r = rows if rows is not None else slice(None)
    c = cols if cols is not None else slice(None)
    out = x[..., r, c].copy()
    if not isinstance(a, Tensor):
        return out

    index = (Ellipsis, r, c)
    # A sparse gradient: the walk adds g into its own zero buffer at `index`.
    return _node(out, (a,), lambda g: ((index, g),))


def mean_all(a) -> Tensor | np.ndarray:
    x = _array(a)
    out = np.asarray(x.mean())
    if not isinstance(a, Tensor):
        return out
    n = x.size

    def vjp(g):
        return (np.full(x.shape, g / n, dtype=x.dtype),)

    return _node(out, (a,), vjp)


# -- linear algebra -------------------------------------------------------

def _check_matmul(x: np.ndarray, w: np.ndarray) -> None:
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"matmul expects (..., n, d) rows and a matrix, got shapes {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {x.shape} x {w.shape}")


def _matmul_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, tx: bool, tw: bool) -> tuple:
    """Gradients of x @ w for its Tensor operands: the matrix's is one GEMM over all rows."""
    gx = (_rows(g) @ w.T).reshape(x.shape) if tx else None
    return gx, _rows(x).T @ _rows(g) if tw else None


def matmul(a, b) -> Tensor | np.ndarray:
    """(..., n, d) rows times a (d, e) matrix.

    The forward is one product per (n, d) slice, so each slice's bits match
    its own 2-D call; the matrix's gradient is one GEMM over all rows.
    """
    x, y = _array(a), _array(b)
    _check_matmul(x, y)
    out = x @ y
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return out
    return _node(out, (a, b), lambda g: _matmul_grads(g, x, y, ta, tb))


def _linear_tanh_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """tanh(x @ w + b), and what its VJP reads."""
    z = x @ w + b
    out = np.tanh(z, out=z)
    return out, (x, w, b, out)


def _linear_tanh_vjp(g: np.ndarray, saved: tuple, need) -> tuple:
    x, w, b, out = saved
    tx, tw, tb = need
    gz = g * (1.0 - out * out)
    return (*_matmul_grads(gz, x, w, tx, tw), _unbroadcast(gz, b.shape) if tb else None)


def linear_tanh(x, w, b) -> Tensor | np.ndarray:
    """tanh(x @ w + b) for (..., n, d) rows x, a (d, e) matrix w and an (e,) bias: one tape node."""
    xa, wa, ba = _array(x), _array(w), _array(b)
    _check_matmul(xa, wa)
    out, saved = _linear_tanh_fwd(xa, wa, ba)
    return _taped(out, (x, w, b), _linear_tanh_vjp, saved)


def _gated_residual_fwd(h: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray, gate: np.ndarray
                       ) -> tuple[np.ndarray, tuple]:
    """h + (x @ w + b)·gate, and what its VJP reads."""
    z = x @ w + b
    r = z * gate
    return h + r, (x, w, b, gate, z, r.shape)


def _gated_residual_vjp(g: np.ndarray, saved: tuple, need) -> tuple:
    x, w, b, gate, z, r_shape = saved
    th, tx, tw, tb, tg = need
    gz = gg = None
    if tx or tw or tb or tg:
        gr = _unbroadcast(g, r_shape)
        gz = _unbroadcast(gr * gate, z.shape) if tx or tw or tb else None
        gg = _unbroadcast(gr * z, gate.shape) if tg else None
    return g if th else None, *_matmul_grads(gz, x, w, tx, tw), _unbroadcast(gz, b.shape) if tb else None, gg


def gated_residual(h, x, w, b, gate) -> Tensor | np.ndarray:
    """h + (x @ w + b)·gate: a gated projection of (..., n, d) rows x added to the stream h. One tape node.

    The projection and the gate broadcast against h, e.g. one (..., 1, e)
    row per leading index; the result has h's shape.
    """
    ha, xa, wa = _array(h), _array(x), _array(w)
    _check_matmul(xa, wa)
    out, saved = _gated_residual_fwd(ha, xa, wa, _array(b), _array(gate))
    if out.shape != ha.shape:
        raise ShapeError(f"gated projection {saved[-1]} does not broadcast to the stream's shape {ha.shape}")
    return _taped(out, (h, x, w, b, gate), _gated_residual_vjp, saved)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) by the same two ufunc calls, without ndarray.mean's Python wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def _layer_norm_fwd(a: np.ndarray, gain: np.ndarray, bias: np.ndarray, scale: np.ndarray, shift: np.ndarray
                   ) -> tuple[np.ndarray, tuple]:
    """(x̂·gain + bias)·scale + shift of (..., n, d) rows a, and what its VJP reads."""
    xhat = a - _row_mean(a)  # centred, then scaled in place
    var = _row_mean(np.square(xhat))  # the ufunc calls of a.var(axis=-1), mean reused
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    y = xhat * gain + bias
    return y * scale + shift, (xhat, inv, y, gain, scale, shift)


def _layer_norm_vjp(g: np.ndarray, saved: tuple, need) -> tuple:
    xhat, inv, y, gain, scale, shift = saved
    tx, tg, tb, ts, tt = need
    gs = _unbroadcast(g * y, scale.shape) if ts else None
    gt = _unbroadcast(g, shift.shape) if tt else None
    g = g * scale  # the gradient of y
    gx = None
    if tx:
        gxhat = g * gain
        gx = inv * (gxhat - _row_mean(gxhat) - xhat * _row_mean(gxhat * xhat))
        gx = gx.astype(xhat.dtype, copy=False)
    return gx, _rows(g * xhat).sum(axis=0) if tg else None, _rows(g).sum(axis=0) if tb else None, gs, gt


def layer_norm(x, gain, bias, scale, shift) -> Tensor | np.ndarray:
    """Layer norm over the last axis of (..., n, d) rows, then adaLN modulation: (x̂·gain + bias)·scale + shift.

    scale and shift broadcast against x, e.g. one (..., 1, d) row per leading index. One tape node.
    """
    a = _array(x)
    if a.ndim < 2:
        raise ShapeError(f"layer_norm expects a matrix or a stack of them, got shape {a.shape}")
    sc, sh = _array(scale), _array(shift)
    out, saved = _layer_norm_fwd(a, _array(gain), _array(bias), sc, sh)
    if out.shape != saved[2].shape:
        raise ShapeError(f"scale {sc.shape} and shift {sh.shape} do not broadcast to the rows' shape "
                         f"{saved[2].shape}")
    return _taped(out, (x, gain, bias, scale, shift), _layer_norm_vjp, saved)


def key_mask(mask, n: int, m: int) -> np.ndarray | None:
    """The masked entries of an (n, m) attention mask (nonzero is on), or None when every key is on.

    Checked once: a mask of the wrong shape, or one that leaves a row with no
    key, is refused here.
    """
    on = np.asarray(mask) != 0
    if on.shape != (n, m):
        raise ShapeError(f"mask shape {on.shape} != scores shape ({n}, {m})")
    if on.all():  # no key masked: no masking pass, and no row can be empty
        return None
    if not on.any(axis=1).all():
        bad = int(np.flatnonzero(~on.any(axis=1))[0])
        raise MaskError(f"row {bad} of the attention mask has no unmasked entry")
    return ~on


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., rows, H*hd) -> (..., H, rows, hd), a view."""
    return a.reshape(*a.shape[:-1], n_heads, a.shape[-1] // n_heads).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., H, rows, hd) -> (..., rows, H*hd)."""
    a = a.swapaxes(-2, -3)
    return a.reshape(*a.shape[:-2], -1)


def _attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, masked: np.ndarray | None, n_heads: int
                  ) -> tuple[np.ndarray, tuple]:
    """Softmax attention of q over k, v with the `key_mask` entries `masked` off, and what its VJP reads."""
    qh, kh, vh = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)  # a Python float: a NumPy scalar would promote float32
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if masked is not None:
        np.copyto(p, -np.inf, where=masked)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)  # exp(-inf) = 0 exactly on masked entries
    p /= p.sum(axis=-1, keepdims=True)
    return _merge_heads(p @ vh), (qh, kh, vh, p, scale, n_heads)


def _attention_vjp(g: np.ndarray, saved: tuple, need) -> tuple:
    qh, kh, vh, p, scale, n_heads = saved
    tq, tk, tv = need
    gh = _heads(g, n_heads)
    gq = gk = None
    if tq or tk:
        ds = gh @ vh.swapaxes(-1, -2)  # dp, then (dp - sum(dp * p)) * p * scale in place
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        gq = _merge_heads(ds @ kh) if tq else None
        gk = _merge_heads(ds.swapaxes(-1, -2) @ qh) if tk else None
    return gq, gk, _merge_heads(p.swapaxes(-1, -2) @ gh) if tv else None


def attention(q, k, v, mask, n_heads: int) -> Tensor | np.ndarray:
    """Masked multi-head attention of (..., n, H*hd) queries over (..., m, H*hd) keys and values.

    Head h owns columns [h*hd, (h+1)*hd) of q, k, v and the (..., n, H*hd)
    output. Scores are scaled by 1/sqrt(hd) and soft-maxed over the keys that
    the (n, m) mask, shared by every head and every leading index, leaves
    on: masked weights are exactly 0, so masked keys and values cannot reach
    the output. One tape node.

    The softmax runs in place in the score product's buffer, with no
    masking pass when the mask leaves every key on; its bits, and those of
    the VJP's score gradient, are those of np.where, exp(s - max), e / sum.
    """
    qa, ka, va = _array(q), _array(k), _array(v)
    if qa.ndim < 2 or ka.shape != va.shape or ka.shape[:-2] != qa.shape[:-2] \
            or ka.shape[-1] != qa.shape[-1] or qa.shape[-1] % n_heads:
        raise ShapeError(f"attention operands q {qa.shape}, k {ka.shape}, v {va.shape} "
                         f"do not split into {n_heads} heads")
    out, saved = _attention_fwd(qa, ka, va, key_mask(mask, qa.shape[-2], ka.shape[-2]), n_heads)
    return _taped(out, (q, k, v), _attention_vjp, saved)


def rotate_pairs(a: np.ndarray, cos: np.ndarray, signed_sin: np.ndarray) -> np.ndarray:
    """Each group [r1 | r2] of 2 * half columns of (..., n, d) rows turned: [r1 c - r2 sin | r2 c + r1 sin].

    `cos` and `signed_sin` broadcast against (..., n, d // (2 * half), 2, half)
    pairs, half = cos.shape[-1]: cos, and [-sin | sin] on the pair axis, so the
    result is r c + [r2 | r1] [-sin | sin]. Rotating by -sin inverts it (the VJP).
    """
    half = cos.shape[-1]
    r = a.reshape(*a.shape[:-1], a.shape[-1] // (2 * half), 2, half)
    out = r * cos
    out += r[..., ::-1, :] * signed_sin
    return out.reshape(a.shape)


def window_products(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(..., n*k + r, c) -> (..., n, c): each k-row window times its (k, c, c) kernel, plus bias.

    Weights (..., k, c, c) and bias (..., c) broadcast against x's leading
    axes. The windows that share a kernel (its n, and those of every trailing
    leading axis the kernels broadcast over) are stacked, zero-padded, into
    products of exactly WINDOW_ROWS rows, so a window's bits do not depend on
    how many windows or kernels share the call, nor on its place among them.
    The r < k remainder is dropped.
    """
    k, c = weights.shape[-3], weights.shape[-1]
    lead, n = x.shape[:-2], x.shape[-2] // k
    if weights.ndim - 3 > len(lead):
        raise ShapeError(f"kernels {weights.shape} have more leading axes than the rows {x.shape}")
    kernel_axes = weights.ndim - 3  # the kernels' own leading axes: all but their trailing extent-1 ones
    while kernel_axes and weights.shape[kernel_axes - 1] == 1:
        kernel_axes -= 1
    split = len(lead) - (weights.ndim - 3) + kernel_axes if kernel_axes else 0  # lead[split:] share a kernel
    kernels, per = lead[:split], math.prod(lead[split:]) * n  # per kernel: its windows
    padded = -(-per // WINDOW_ROWS) * WINDOW_ROWS
    rows = np.zeros(kernels + (padded, k * c), dtype=x.dtype)
    # A view: slicing the row axis and splitting it copies nothing.
    rows[..., :per, :].reshape(lead + (n, k * c))[...] = x[..., :n * k, :].reshape(lead + (n, k * c))
    out = (rows.reshape(kernels + (padded // WINDOW_ROWS, WINDOW_ROWS, k * c))
           @ weights.reshape(weights.shape[:kernel_axes] + (1, k * c, c)))
    return out.reshape(kernels + (padded, c))[..., :per, :].reshape(lead + (n, c)) + bias[..., None, :]


def conv1d_strided(x, weights, bias) -> Tensor | np.ndarray:
    """Non-overlapping 1-D convolution whose stride is its kernel length.

    x: (..., L, c), weights: (k, c, c) mapping in-channel to out-channel,
    bias: (c,). Output row p mixes exactly input rows [p*k, p*k+k).
    A trailing remainder shorter than one window is dropped.
    """
    a, w, b = _array(x), _array(weights), _array(bias)
    if a.ndim < 2 or w.ndim != 3:
        raise ShapeError(f"bad operand ranks: x {a.shape}, weights {w.shape}")
    L, c = a.shape[-2:]
    k = w.shape[0]
    if w.shape != (k, c, c):
        raise ShapeError(f"weights shape {w.shape} != ({k}, {c}, {c})")
    if L < k:
        raise ShapeError(f"input length {L} is shorter than the kernel {k}")
    return _taped(window_products(a, w, b), (x, weights, bias), _conv1d_strided_vjp, (a, w))


def _conv1d_strided_vjp(g: np.ndarray, saved: tuple, need) -> tuple:
    """Gradients of window_products(x, weights, bias), saved = (x, weights), for (..., n, c) g and (k, c, c)
    weights."""
    x, weights = saved
    tx, tw, tb = need
    k, c, n = weights.shape[0], weights.shape[-1], g.shape[-2]
    gx = None
    if tx:
        gx = np.zeros_like(x)
        gx[..., :n * k, :] = (g @ weights.reshape(k * c, c).T).reshape(*x.shape[:-2], n * k, c)
    gw = None
    if tw:
        windows = x[..., :n * k, :].reshape(-1, k * c)  # one row per window
        gw = (windows.T @ _rows(g)).reshape(k, c, c)
    return gx, gw, _rows(g).sum(axis=0) if tb else None


# -- the transformer layer ------------------------------------------------

def transformer_layer(h, weights: Sequence, step: Sequence, angles: tuple, masked: np.ndarray | None,
                      n_heads: int, key_angles: tuple | None = None, slabs: tuple | None = None,
                      memory: tuple | None = None) -> tuple:
    """One adaLN transformer layer over the (..., n, d) stream h, in one call and one tape node.

    It runs the chain of ops in their order: layer norm under mod1, QKV, RoPE,
    memory or slab writes, attention, the out-projection gated by gate1, the
    condition row, layer norm under mod3, the tanh FFN and its gated residual.
    Each step is the array-level half that the chain's public op calls, so the
    result and every gradient have that chain's bits. On bare operands it
    records nothing; with any Tensor operand it is one node whose VJP runs the
    chain's VJPs backwards.

    - weights: ln1 gain, ln1 bias, qkv (d, 3d) as [q | k | v], out-projection
      w and b, ln3 gain, ln3 bias, ffn w1, b1, w2 and b2.
    - step: mod1 scale, mod1 shift, gate1, condition row, mod3 scale, mod3
      shift and gate3, rows that broadcast against h.
    - angles: the (cos, signed sin) tables of the tokens' positions, which
      turn the queries, and the keys unless `key_angles` gives the keys' own;
      queries and keys that share them turn in one pass.
    - masked: `key_mask` of the (n, keys) attention mask.
    - slabs: (rotated-key slab, value slab, un-rotated-key slab or None,
      start), for unbatched h without memory. The layer writes its keys and
      values into rows [start, start + n) of those (rows, d) slabs and attends
      over rows [:start + n], the rows before start being the context.
    - memory: (span, key kernels, key bias, value kernels, value bias). The
      keys and values of the rows `span`, convolved by window_products, join
      the keys as memory, turned by `key_angles`' last rows.

    Returns the new stream and the tokens' un-rotated keys, rotated keys and
    values, as arrays.
    """
    span, *kernels = (None,) if memory is None else memory
    operands = (h, *weights, *step, *kernels)
    need = [isinstance(o, Tensor) for o in operands]
    taped = any(need)
    ha, g1, b1, wqkv, wo, bo, g3, b3, w1, c1, w2, c2, s1, t1, gate1, cond, s3, t3, gate3, *kernels = \
        [o.data if t else o for o, t in zip(operands, need)] if taped else operands
    u, ln1 = _layer_norm_fwd(ha, g1, b1, s1, t1)
    qkv = u @ wqkv
    n, d = qkv.shape[-2], qkv.shape[-1] // 3
    q, k_rows, v_rows = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
    k, v = k_rows, v_rows
    if span is not None:
        k = np.concatenate([k, window_products(k[..., span, :], *kernels[:2])], axis=-2)
        v = np.concatenate([v, window_products(v[..., span, :], *kernels[2:])], axis=-2)
    if key_angles is None:
        qk = rotate_pairs(qkv[..., :2 * d], *angles)
        q_rot, k_rot = qk[..., :d], qk[..., d:]
    else:
        q_rot, k_rot = rotate_pairs(q, *angles), rotate_pairs(k, *key_angles)
    k_att, v_att = k_rot, v
    if slabs is not None:
        key_slab, val_slab, unrotated_slab, start = slabs
        stop = start + n
        if unrotated_slab is not None:
            unrotated_slab[start:stop] = k
        key_slab[start:stop] = k_rot
        val_slab[start:stop] = v
        k_att, v_att = key_slab[:stop], val_slab[:stop]
    heads, att = _attention_fwd(q_rot, k_att, v_att, masked, n_heads)
    h1, res1 = _gated_residual_fwd(ha, heads, wo, bo, gate1)
    h2 = h1 + cond
    u3, ln3 = _layer_norm_fwd(h2, g3, b3, s3, t3)
    f1, ffn = _linear_tanh_fwd(u3, w1, c1)
    out, res3 = _gated_residual_fwd(h2, f1, w2, c2, gate3)
    block = k_rows, k_rot[..., :n, :], v_rows
    if not taped:
        return (out, *block)

    # Which intermediates are on the tape: those downstream of a Tensor operand.
    th, tg1, tb1, twqkv, two, tbo, tg3, tb3, tw1, tc1, tw2, tc2, ts1, tt1, tgate1, tcond, ts3, tt3, tgate3, \
        *tkernels = need
    tu = th or tg1 or tb1 or ts1 or tt1
    tqkv = tu or twqkv
    tk = tqkv or any(tkernels[:2])
    tv = tqkv or any(tkernels[2:])
    th1 = th or tk or tv or two or tbo or tgate1
    th2 = th1 or tcond
    tu3 = th2 or tg3 or tb3 or ts3 or tt3
    tf1 = tu3 or tw1 or tc1
    kc, ks = angles if key_angles is None else key_angles

    def through_memory(g, rows, kernels, need_kernels):
        """The gradients of k's or v's token rows and of its kernels and bias, from that of [rows || memory]."""
        g_rows = g[..., :n, :]
        gx, gw, gb = _conv1d_strided_vjp(g[..., n:, :], (rows[..., span, :], kernels[0]), (tqkv, *need_kernels))
        if tqkv:
            g_rows = g_rows.copy()
            g_rows[..., span, :] += gx
        return g_rows, gw, gb

    def vjp(g):
        gh2, gf1, gw2, gc2, ggate3 = _gated_residual_vjp(g, res3, (th2, tf1, tw2, tc2, tgate3))
        gu3, gw1, gc1 = _linear_tanh_vjp(gf1, ffn, (tu3, tw1, tc1)) if tf1 else (None,) * 3
        g_ln3 = _layer_norm_vjp(gu3, ln3, (th2, tg3, tb3, ts3, tt3)) if tu3 else (None,) * 5
        if th2:  # both halves of the layer read the stream after the condition row
            gh2 = gh2 + g_ln3[0]
        gcond = _unbroadcast(gh2, cond.shape) if tcond else None
        gh, gheads, gwo, gbo, ggate1 = \
            _gated_residual_vjp(gh2, res1, (th, tk or tv, two, tbo, tgate1)) if th1 else (None,) * 5
        gq = gk = gv = None
        gkernels = [None] * len(kernels)
        if tk or tv:
            gq, gk, gv = _attention_vjp(gheads, att, (tqkv, tk, tv))
            if slabs is not None:  # the context rows before `start` are not on the tape
                gk, gv = gk[start:], gv[start:]
            if tqkv:
                gq = rotate_pairs(gq, angles[0], -angles[1])
            if tk:
                gk = rotate_pairs(gk, kc, -ks)
            if span is not None:
                if tk:
                    gk, gkernels[0], gkernels[1] = through_memory(gk, k_rows, kernels[:2], tkernels[:2])
                if tv:
                    gv, gkernels[2], gkernels[3] = through_memory(gv, v_rows, kernels[2:], tkernels[2:])
        gu, gwqkv = _matmul_grads(np.concatenate([gq, gk, gv], axis=-1), u, wqkv, tu, twqkv) if tqkv else (None,) * 2
        g_ln1 = _layer_norm_vjp(gu, ln1, (th, tg1, tb1, ts1, tt1)) if tu else (None,) * 5
        if th:  # the layer's input feeds both the first layer norm and the residual
            gh = gh + g_ln1[0]
        return (gh, *g_ln1[1:3], gwqkv, gwo, gbo, *g_ln3[1:3], gw1, gc1, gw2, gc2, *g_ln1[3:], ggate1, gcond,
                *g_ln3[3:], ggate3, *gkernels)

    return (_node(out, operands, vjp), *block)


# -- gradients ------------------------------------------------------------

class GradientTape:
    """Reverse walker over the operation graph hanging off one scalar node."""

    def __init__(self, root: Tensor):
        if root.data.size != 1:
            raise ShapeError(f"gradient root must be a scalar, got shape {root.shape}")
        self.root = root
        self._order: list[Tensor] = []   # every node after all of its parents
        self._on_tape: set[int] = {id(root)}
        # Iterative post-order DFS, each node pushed once; graphs can be deep.
        stack = [(root, iter(root.parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in self._on_tape:
                    self._on_tape.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            else:
                stack.pop()
                self._order.append(node)

    def contains(self, node: Tensor) -> bool:
        return id(node) in self._on_tape

    def gradients(self, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        for leaf in leaves:
            if not self.contains(leaf):
                raise TapeError(f"leaf {leaf!r} is not on the tape of {self.root!r}")
        return self._accumulate(leaves)

    def _accumulate(self, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        grads: dict[int, np.ndarray] = {
            id(self.root): np.ones(self.root.shape, dtype=self.root.data.dtype)
        }
        # Gradients in buffers this walk allocated, which it may add into in
        # place. Never an array a VJP returned: `add` hands one g to both parents.
        owned: set[int] = set()
        for node in reversed(self._order):
            g = grads.get(id(node))
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                key = id(parent)
                acc = grads.get(key)
                if type(pg) is tuple:  # (index, grad): the gradient of parent[index]
                    index, pg = pg
                    if key not in owned:
                        acc = grads[key] = np.zeros(parent.shape, parent.dtype) if acc is None else acc.copy()
                        owned.add(key)
                    acc[index] += pg
                elif acc is None:
                    grads[key] = pg
                elif key in owned:
                    acc += pg
                else:
                    grads[key] = acc + pg
                    owned.add(key)
        out = []
        for leaf in leaves:
            g = grads.get(id(leaf))
            out.append(np.zeros(leaf.shape, dtype=leaf.data.dtype) if g is None else g)
        return out


def grad_of(loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss node w.r.t. each requested leaf."""
    return GradientTape(loss).gradients(leaves)


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time, with step FD_STEP."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = float(f(x))
        flat[i] = orig - FD_STEP
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad
