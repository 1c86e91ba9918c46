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

A transformer sublayer is one tape node: ``layer_norm`` (with adaLN
modulation), ``gated_residual`` and ``linear_tanh`` compute the NumPy
expressions of the elementary-op chain they stand for, in its order, so
their bits, forward and backward, are that chain's.

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


def write_rows(buffer: np.ndarray, start: int, a) -> Tensor | np.ndarray:
    """Write (n, d) rows `a` into `buffer` at row `start`; return buffer's rows [:start + n] as a view.

    The rows before `start` are not copied, and the view changes when they
    do. On the tape only `a` gets a gradient: the view's last n rows.
    """
    x = _array(a)
    stop = start + x.shape[-2]
    buffer[start:stop] = x
    out = buffer[:stop]
    if not isinstance(a, Tensor):
        return out
    return _node(out, (a,), lambda g: (g[start:],))


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


def linear_tanh(x, w, b) -> Tensor | np.ndarray:
    """tanh(x @ w + b) for (..., n, d) rows x, a (d, e) matrix w and an (e,) bias: one tape node."""
    xa, wa, ba = _array(x), _array(w), _array(b)
    _check_matmul(xa, wa)
    out = np.tanh(xa @ wa + ba)
    tx, tw, tb = isinstance(x, Tensor), isinstance(w, Tensor), isinstance(b, Tensor)
    if not (tx or tw or tb):
        return out

    def vjp(g):
        gz = g * (1.0 - out * out)
        return (*_matmul_grads(gz, xa, wa, tx, tw), _unbroadcast(gz, ba.shape) if tb else None)

    return _node(out, (x, w, b), vjp)


def gated_residual(h, x, w, b, gate) -> Tensor | np.ndarray:
    """h + (x @ w + b)·gate: a gated projection of (..., n, d) rows x added to the stream h. One tape node.

    The projection and the gate broadcast against h, e.g. one (..., 1, e)
    row per leading index; the result has h's shape.
    """
    ha, xa, wa, ba, ga = _array(h), _array(x), _array(w), _array(b), _array(gate)
    _check_matmul(xa, wa)
    z = xa @ wa + ba
    r = z * ga
    out = ha + r
    if out.shape != ha.shape:
        raise ShapeError(f"gated projection {r.shape} does not broadcast to the stream's shape {ha.shape}")
    th, tx, tw = isinstance(h, Tensor), isinstance(x, Tensor), isinstance(w, Tensor)
    tb, tg = isinstance(b, Tensor), isinstance(gate, Tensor)
    if not (th or tx or tw or tb or tg):
        return out

    def vjp(g):
        gz = gg = None
        if tx or tw or tb or tg:
            gr = _unbroadcast(g, r.shape)
            gz = _unbroadcast(gr * ga, z.shape) if tx or tw or tb else None
            gg = _unbroadcast(gr * z, ga.shape) if tg else None
        return (g if th else None, *_matmul_grads(gz, xa, wa, tx, tw), _unbroadcast(gz, ba.shape) if tb else None,
                gg)

    return _node(out, (h, x, w, b, gate), vjp)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) by the same two ufunc calls, without ndarray.mean's Python wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def layer_norm(x, gain, bias, scale, shift) -> Tensor | np.ndarray:
    """Layer norm over the last axis of (..., n, d) rows, then adaLN modulation: (x̂·gain + bias)·scale + shift.

    scale and shift broadcast against x, e.g. one (..., 1, d) row per leading index. One tape node.
    """
    a, g_, b_ = _array(x), _array(gain), _array(bias)
    if a.ndim < 2:
        raise ShapeError(f"layer_norm expects a matrix or a stack of them, got shape {a.shape}")
    centered = a - _row_mean(a)
    var = _row_mean(np.square(centered))  # the ufunc calls of a.var(axis=-1), mean reused
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    y = xhat * g_ + b_
    sc, sh = _array(scale), _array(shift)
    out = y * sc + sh
    if out.shape != y.shape:
        raise ShapeError(f"scale {sc.shape} and shift {sh.shape} do not broadcast to the rows' shape {y.shape}")
    tx, tg, tb = isinstance(x, Tensor), isinstance(gain, Tensor), isinstance(bias, Tensor)
    ts, tt = isinstance(scale, Tensor), isinstance(shift, Tensor)
    if not (tx or tg or tb or ts or tt):
        return out

    def vjp(g):
        gs = _unbroadcast(g * y, sc.shape) if ts else None
        gt = _unbroadcast(g, sh.shape) if tt else None
        g = g * sc  # the gradient of y
        gx = None
        if tx:
            gxhat = g * g_
            gx = inv * (gxhat - _row_mean(gxhat) - xhat * _row_mean(gxhat * xhat))
            gx = gx.astype(a.dtype, copy=False)
        return (gx, _rows(g * xhat).sum(axis=0) if tg else None, _rows(g).sum(axis=0) if tb else None, gs, gt)

    return _node(out, (x, gain, bias, scale, shift), vjp)


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
    n, m = qa.shape[-2], ka.shape[-2]
    on = np.asarray(mask) != 0
    if on.shape != (n, m):
        raise ShapeError(f"mask shape {on.shape} != scores shape ({n}, {m})")
    visible = bool(on.all())  # no key masked: no masking pass, and no row can be empty
    if not visible and not on.any(axis=1).all():
        bad = int(np.flatnonzero(~on.any(axis=1))[0])
        raise MaskError(f"row {bad} of the attention mask has no unmasked entry")
    hd = qa.shape[-1] // n_heads
    scale = 1.0 / math.sqrt(hd)  # a Python float: a NumPy scalar would promote float32 to float64

    def heads(a):  # (..., rows, H*hd) -> (..., H, rows, hd)
        return a.reshape(*a.shape[:-1], n_heads, hd).swapaxes(-2, -3)

    def rows(a):  # (..., H, rows, hd) -> (..., rows, H*hd)
        a = a.swapaxes(-2, -3)
        return a.reshape(*a.shape[:-2], -1)

    qh, kh, vh = heads(qa), heads(ka), heads(va)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if not visible:
        np.copyto(p, -np.inf, where=~on)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)  # exp(-inf) = 0 exactly on masked entries
    p /= p.sum(axis=-1, keepdims=True)
    out = rows(p @ vh)
    tq, tk, tv = isinstance(q, Tensor), isinstance(k, Tensor), isinstance(v, Tensor)
    if not (tq or tk or tv):
        return out

    def vjp(g):
        gh = heads(g)
        gq = gk = None
        if tq or tk:
            ds = gh @ vh.swapaxes(-1, -2)  # dp, then (dp - sum(dp * p)) * p * scale in place
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            gq = rows(ds @ kh) if tq else None
            gk = rows(ds.swapaxes(-1, -2) @ qh) if tk else None
        return gq, gk, rows(p.swapaxes(-1, -2) @ gh) if tv else None

    return _node(out, (q, k, v), vjp)


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
    n = L // k
    out = window_products(a, w, b)
    tx, tw, tb = isinstance(x, Tensor), isinstance(weights, Tensor), isinstance(bias, Tensor)
    if not (tx or tw or tb):
        return out

    def vjp(g):
        gx = None
        if tx:
            gx = np.zeros_like(a)
            gx[..., :n * k, :] = (g @ w.reshape(k * c, c).T).reshape(*a.shape[:-2], n * k, c)
        gw = None
        if tw:
            windows = a[..., :n * k, :].reshape(-1, k * c)  # one row per window
            gw = (windows.T @ _rows(g)).reshape(k, c, c)
        return gx, gw, _rows(g).sum(axis=0) if tb else None

    return _node(out, (x, weights, bias), vjp)


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
