"""Dense tensors with reverse-mode gradients on NumPy storage.

Everything in this project computes on :class:`Tensor`, a thin immutable
wrapper around a row-major float array. Each operation records its
parents and a vector-Jacobian closure, so a scalar result can be walked
backwards by :class:`GradientTape` to produce one gradient per leaf.
Reduction order inside every op is fixed (plain NumPy loops/BLAS calls,
no reordering), which is what lets cached-vs-recomputed comparisons use
tight tolerances.

Default precision is float64; float32 is an explicit opt-in for the
streaming benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float64, np.float32)


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

    def __init__(self, data, parents: tuple = (), vjp: Callable | None = None, dtype=None):
        arr = _as_array(data, dtype)
        if arr.dtype not in FLOAT_DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype}")
        self.data = arr
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


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of NumPy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ops ------------------------------------------------------

def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    """Pair coercion that keeps python-scalar operands in the tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, (Tensor, np.ndarray)):
        return a, as_tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor) and not isinstance(a, (Tensor, np.ndarray)):
        return as_tensor(a, dtype=b.dtype), b
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, (a, b), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (a,), vjp)


# -- structural ops -------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return Tensor(out, tuple(tensors), vjp)


def slice2d(a, rows: slice | None = None, cols: slice | None = None) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"slice2d expects a matrix, got shape {a.shape}")
    r = rows if rows is not None else slice(None)
    c = cols if cols is not None else slice(None)
    out = a.data[r, c].copy()

    def vjp(g):
        full = np.zeros_like(a.data)
        full[r, c] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum()

    def vjp(g):
        return (np.full(a.shape, g, dtype=a.data.dtype),)

    return Tensor(out, (a,), vjp)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    out = a.data.mean()

    def vjp(g):
        return (np.full(a.shape, g / n, dtype=a.data.dtype),)

    return Tensor(out, (a,), vjp)


# -- linear algebra -------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out, (a, b), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Row-wise layer norm over the last axis of a matrix."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        d = x.shape[1]
        gxhat = g * gain.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
        )
        return gx.astype(x.data.dtype, copy=False), (g * xhat).sum(axis=0), g.sum(axis=0)

    return Tensor(out, (x, gain, bias), vjp)


def attention(q, k, v, mask, n_heads: int) -> Tensor:
    """Masked multi-head attention of (n, H*hd) queries over (m, H*hd) keys and values.

    Head h owns columns [h*hd, (h+1)*hd) of q, k, v and the (n, H*hd) output.
    Scores are scaled by 1/sqrt(hd) and soft-maxed over the keys that the
    (n, m) mask, shared by every head, leaves on: masked weights are exactly
    0, so masked keys and values cannot reach the output. One tape node.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1] \
            or q.shape[1] % n_heads:
        raise ShapeError(f"attention operands q {q.shape}, k {k.shape}, v {v.shape} "
                         f"do not split into {n_heads} heads")
    n, m = q.shape[0], k.shape[0]
    on = np.asarray(mask) != 0
    if on.shape != (n, m):
        raise ShapeError(f"mask shape {on.shape} != scores shape ({n}, {m})")
    if not on.any(axis=1).all():
        bad = int(np.flatnonzero(~on.any(axis=1))[0])
        raise MaskError(f"row {bad} of the attention mask has no unmasked entry")
    hd = q.shape[1] // n_heads
    scale = 1.0 / math.sqrt(hd)  # a Python float: a NumPy scalar would promote float32 to float64

    def heads(a):  # (rows, H*hd) -> (H, rows, hd)
        return a.reshape(a.shape[0], n_heads, hd).transpose(1, 0, 2)

    def rows(a):  # (H, rows, hd) -> (rows, H*hd)
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scores = np.where(on, (qh @ kh.transpose(0, 2, 1)) * scale, -np.inf)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))  # exp(-inf) = 0 exactly on masked entries
    p = e / e.sum(axis=2, keepdims=True)

    def vjp(g):
        gh = heads(g)
        dp = gh @ vh.transpose(0, 2, 1)
        ds = (dp - (dp * p).sum(axis=2, keepdims=True)) * p * scale
        return rows(ds @ kh), rows(ds.transpose(0, 2, 1) @ qh), rows(p.transpose(0, 2, 1) @ gh)

    return Tensor(rows(p @ vh), (q, k, v), vjp)


def window_products(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(..., n*k + r, c) -> (..., n, c): each k-row window times its (k, c, c) kernel, plus bias.

    Leading axes broadcast against weights (..., k, c, c) and bias (..., c).
    Each window is its own 1-row product, so its bits do not depend on how
    many windows or kernels share the call. The r < k remainder is dropped.
    """
    k, c = weights.shape[-3], weights.shape[-1]
    n = x.shape[-2] // k
    rows = x[..., :n * k, :].reshape(*x.shape[:-2], n, 1, k * c)
    out = rows @ weights.reshape(*weights.shape[:-3], 1, k * c, c)
    return out[..., 0, :] + bias[..., None, :]


def conv1d_strided(x, weights, bias) -> Tensor:
    """Non-overlapping 1-D convolution whose stride is its kernel length.

    x: (L, c), weights: (k, c, c) mapping in-channel to out-channel,
    bias: (c,). Output row p mixes exactly input rows [p*k, p*k+k).
    A trailing remainder shorter than one window is dropped.
    """
    x, weights, bias = as_tensor(x), as_tensor(weights), as_tensor(bias)
    if x.ndim != 2 or weights.ndim != 3:
        raise ShapeError(f"bad operand ranks: x {x.shape}, weights {weights.shape}")
    L, c = x.shape
    k = weights.shape[0]
    if weights.shape != (k, c, c):
        raise ShapeError(f"weights shape {weights.shape} != ({k}, {c}, {c})")
    if L < k:
        raise ShapeError(f"input length {L} is shorter than the kernel {k}")
    n = L // k
    out = window_products(x.data, weights.data, bias.data)

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:n * k] = (g @ weights.data.reshape(k * c, c).T).reshape(n * k, c)
        return gx, (x.data[:n * k].reshape(n, k * c).T @ g).reshape(k, c, c), g.sum(axis=0)

    return Tensor(out, (x, weights, bias), vjp)


# -- gradients ------------------------------------------------------------

class GradientTape:
    """Reverse walker over the operation graph hanging off one scalar node."""

    def __init__(self, root: Tensor):
        if root.data.size != 1:
            raise ShapeError(f"gradient root must be a scalar, got shape {root.shape}")
        self.root = root
        self._order: list[Tensor] = []
        self._on_tape: set[int] = set()
        # Iterative post-order DFS; graphs can be deep.
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in self._on_tape:
                continue
            if expanded:
                self._on_tape.add(id(node))
                self._order.append(node)
            else:
                stack.append((node, True))
                for p in node.parents:
                    if id(p) not in self._on_tape:
                        stack.append((p, False))

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
        for node in reversed(self._order):
            g = grads.get(id(node))
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        out = []
        for leaf in leaves:
            g = grads.get(id(leaf))
            out.append(np.zeros(leaf.shape, dtype=leaf.data.dtype) if g is None else g)
        return out


def grad_of(loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss node w.r.t. each requested leaf."""
    return GradientTape(loss).gradients(leaves)


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
