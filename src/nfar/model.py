"""Toy DiT-style velocity denoiser with block-causal attention.

One token per latent chunk. Rotary positions are assigned per chunk
index; the two reference chunks sit at positions -2 and -1, before
chunk 0. Step conditioning is adaLN-style: every modulation/gate head
reads a raw time-feature vector (which includes 1/t alongside the
sinusoids), so step-dependent rescalings of the velocity field are
inside the linear span of the heads. Everything a forward computes from
(t, cond, weights) alone is folded into one StepConditioning per step.
A forward runs one sequence, or a batch of sequences that share their
positions and mask, each with its own step and condition. It checks its
inputs, the mask and the step tags once, builds the RoPE tables once, and
runs each layer as one `numerics.transformer_layer` call: plain NumPy on
bare weights, one tape node on Tensor weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import BlockPlan
from .numerics import ShapeError, Tensor, add, data_of, key_mask, matmul, mul, rotate_pairs, slice2d, transformer_layer
from .rng import STREAM_INIT, make_rng

T_FLOOR = 0.02  # clamp for the reciprocal time feature
REF_CAPACITY = 2  # reference chunks: training, the cache and the CLI all take exactly this many
# Each layer's weights, after "layers.{l}.", in the order numerics.transformer_layer takes them.
_LAYER_WEIGHTS = ("ln1.g", "ln1.b", "attn.qkv.w", "attn.o.w", "attn.o.b", "ln3.g", "ln3.b",
                  "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


@dataclass(frozen=True)
class DenoiserConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 64
    d_latent: int = 16
    d_cond: int = 32
    d_ff: int = 128
    rope_base: float = 10000.0
    n_ref_chunks: int = REF_CAPACITY
    compress_ratio: int = 5

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if not (math.isfinite(self.rope_base) and self.rope_base > 0):
            raise ValueError(f"rope_base must be finite and positive, got {self.rope_base}")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError(f"head_dim {self.d_model // self.n_heads} must be even for RoPE")
        if self.compress_ratio < 1:
            raise ValueError("compress_ratio must be >= 1")
        if self.n_ref_chunks != REF_CAPACITY:
            raise ValueError(f"n_ref_chunks must be {REF_CAPACITY}, got {self.n_ref_chunks}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class RopeFrequencies:
    """Per-dimension-pair angular frequencies; rotation at position 0 is identity."""

    freqs: np.ndarray  # (head_dim // 2,)

    @classmethod
    def create(cls, head_dim: int, base: float) -> "RopeFrequencies":
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        if base <= 0:
            raise ValueError("rope base must be positive")
        half = head_dim // 2
        return cls(base ** (-2.0 * np.arange(half) / head_dim))


_PAIR_SIGN = np.array([[-1.0], [1.0]])


def rope_angles(positions, freqs: RopeFrequencies, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The (cos, [-sin | sin]) tables, (n, 1, 1 | 2, half) in `dtype`, of positions[i] * frequency."""
    # (n, 1, 1, half): one angle per row and pair, broadcast over heads and the pair axis.
    angles = np.multiply.outer(np.asarray(positions, dtype=np.float64), freqs.freqs)[:, None, None, :]
    return np.cos(angles).astype(dtype, copy=False), (np.sin(angles) * _PAIR_SIGN).astype(dtype, copy=False)


def rope_apply(x, positions, freqs: RopeFrequencies) -> Tensor | np.ndarray:
    """Rotate the dimension pairs of each head_dim column group of (..., n, H*head_dim) rows.

    Row i of every leading index turns by positions[i] * frequency in every
    head's group, by `numerics.rotate_pairs` over the `rope_angles` tables.
    Like the `numerics` ops, a bare array in gives a bare array out; a Tensor
    goes on the tape.
    """
    a = data_of(x)
    half = freqs.freqs.size
    if a.ndim < 2 or a.shape[-1] % (2 * half) != 0:
        raise ShapeError(f"rope input shape {a.shape} does not split into groups of {half} pairs")
    if np.shape(positions) != (a.shape[-2],):
        raise ShapeError(f"positions shape {np.shape(positions)} != ({a.shape[-2]},)")
    c, s = rope_angles(positions, freqs, a.dtype)
    out = rotate_pairs(a, c, s)
    if not isinstance(x, Tensor):
        return out
    return Tensor(out, (x,), lambda g: (rotate_pairs(g, c, -s),))


def time_embed(t, d: int) -> np.ndarray:
    """Deterministic step embedding: [1, t, 1/max(t, floor), sin/cos bank].

    A step gives a (d,) vector; an array of steps gives one row per step.
    """
    t = np.asarray(t, dtype=np.float64)
    if not 0.0 <= t.min() <= t.max() <= 1.0:  # false for a NaN too
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if d < 4:
        raise ValueError("embedding dim must be >= 4")
    feats = np.zeros(t.shape + (d,))
    feats[..., 0] = 1.0
    feats[..., 1] = t
    feats[..., 2] = 1.0 / np.maximum(t, T_FLOOR)
    n_pairs = (d - 3) // 2
    if n_pairs > 0:
        j = np.arange(n_pairs)
        omega = 2.0 * math.pi * (200.0 ** (j / max(n_pairs - 1, 1)))
        feats[..., 3:3 + n_pairs] = np.sin(omega * t[..., None])
        feats[..., 3 + n_pairs:3 + 2 * n_pairs] = np.cos(omega * t[..., None])
    return feats


def block_causal_mask(plan: BlockPlan) -> np.ndarray:
    """Chunk-level mask: entry (i, j) = 1 iff block(j) <= block(i)."""
    blk = plan.block_of()
    if blk.size == 0:
        raise ValueError("empty block plan")
    return (blk[None, :] <= blk[:, None]).astype(np.float64)


def expand_mask_with_ref(mask: np.ndarray) -> np.ndarray:
    """Prepend the REF_CAPACITY reference rows/cols: refs attend to refs; all chunks see refs."""
    n_ref = REF_CAPACITY
    out = np.zeros((n_ref + mask.shape[0], n_ref + mask.shape[1]))
    out[:, :n_ref] = 1.0
    out[n_ref:, n_ref:] = mask
    return out


# -- parameters -------------------------------------------------------------

@dataclass
class DenoiserParams:
    """Flat name -> array store for all learnable weights (compressor included).

    The compressor is two stacks, `compressor.w` (2*n_layers, lam, d, d) and
    `compressor.b` (2*n_layers, d): row l compresses layer l's keys, row
    n_layers + l its values.
    """

    config: DenoiserConfig
    values: dict[str, np.ndarray]
    meta: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(self.config, {k: v.copy() for k, v in self.values.items()}, dict(self.meta))

    def astype(self, dtype) -> "DenoiserParams":
        return DenoiserParams(
            self.config, {k: v.astype(dtype) for k, v in self.values.items()}, dict(self.meta)
        )

    def equal(self, other: "DenoiserParams") -> bool:
        return set(self.values) == set(other.values) and all(
            np.array_equal(self.values[k], other.values[k]) for k in self.values
        )

    def denoiser_names(self) -> list[str]:
        return [k for k in self.values if not k.startswith("compressor.")]

    def compressor_names(self) -> list[str]:
        return [k for k in self.values if k.startswith("compressor.")]


def param_layout(config: DenoiserConfig) -> dict[str, tuple[tuple[int, ...], int | str]]:
    """Every learnable tensor as name -> (shape, init), in initialization order.

    ``init`` is "zeros", "ones", "average" (window-averaging compressor:
    each output channel averages its own channel) or an int fan-in for a
    Gaussian draw scaled by 1/sqrt(fan_in). Checkpoints are validated
    against the same table. It holds `n_tensors(config)` = 8 + 14 * n_layers
    tensors: six outside the layers, fourteen per layer and two compressor stacks.
    """
    dm, dc, dff, dl = config.d_model, config.d_cond, config.d_ff, config.d_latent
    out: dict[str, tuple[tuple[int, ...], int | str]] = {
        "input.w": ((dl, dm), dl),
        "input.b": ((dm,), "zeros"),
        # Every adaLN head, as d_model-wide column blocks: layer l's seven start at
        # block 7*l, [mod1 scale | mod1 shift | gate1 | gate2 | mod3 scale | mod3 shift | gate3],
        # and the last two are [final scale | final shift].
        "adaln.w": ((dm, (7 * config.n_layers + 2) * dm), "zeros"),
        "adaln.b": (((7 * config.n_layers + 2) * dm,), "zeros"),
        "output.w": ((dm, dl), "zeros"),  # zero-init head: untrained model predicts zero velocity
        "output.b": ((dl,), "zeros"),
    }
    for l in range(config.n_layers):
        p = f"layers.{l}"
        out[f"{p}.ln1.g"] = ((dm,), "ones")
        out[f"{p}.ln1.b"] = ((dm,), "zeros")
        out[f"{p}.attn.qkv.w"] = ((dm, 3 * dm), dm)  # columns: [q heads | k heads | v heads]
        out[f"{p}.attn.o.w"] = ((dm, dm), dm)
        out[f"{p}.attn.o.b"] = ((dm,), "zeros")
        out[f"{p}.cross.v"] = ((dc, dm), dc)
        out[f"{p}.cross.o.w"] = ((dm, dm), dm)
        out[f"{p}.cross.o.b"] = ((dm,), "zeros")
        out[f"{p}.ln3.g"] = ((dm,), "ones")
        out[f"{p}.ln3.b"] = ((dm,), "zeros")
        out[f"{p}.ffn.w1"] = ((dm, dff), dm)
        out[f"{p}.ffn.b1"] = ((dff,), "zeros")
        out[f"{p}.ffn.w2"] = ((dff, dm), dff)
        out[f"{p}.ffn.b2"] = ((dm,), "zeros")
    rows = 2 * config.n_layers  # every layer's key compressor, then every layer's value compressor
    out["compressor.w"] = ((rows, config.compress_ratio, dm, dm), "average")
    out["compressor.b"] = ((rows, dm), "zeros")
    return out


def n_tensors(config: DenoiserConfig) -> int:
    """len(param_layout(config)), without building it."""
    return 8 + 14 * config.n_layers


def init_params(config: DenoiserConfig, seed: int, meta: dict[str, str] | None = None) -> DenoiserParams:
    rng = make_rng(seed, STREAM_INIT)
    v: dict[str, np.ndarray] = {}
    for name, (shape, init) in param_layout(config).items():
        if init == "zeros":
            v[name] = np.zeros(shape)
        elif init == "ones":
            v[name] = np.ones(shape)
        elif init == "average":
            rows, lam, c, _ = shape
            v[name] = np.tile(np.eye(c) / lam, (rows, lam, 1, 1))
        else:
            v[name] = rng.standard_normal(shape) / math.sqrt(init)
    return DenoiserParams(config, v, dict(meta or {}))


def wrap_params(params: DenoiserParams, names=None) -> dict:
    """Weights for one loss evaluation: the named ones (all by default) as Tensor leaves, the rest bare.

    Bare weights stay off the tape, so no gradient is computed for them. A
    compressor stack becomes a tuple of one leaf per row, which the forward
    indexes as it indexes the bare stack.
    """
    taped = params.values.keys() if names is None else set(names)

    def wrap(name, a):
        if name not in taped:
            return a
        return tuple(Tensor(row) for row in a) if name.startswith("compressor.") else Tensor(a)

    return {k: wrap(k, a) for k, a in params.values.items()}


def tape_leaves(ptensors: dict, names) -> list[Tensor]:
    """The leaves of the named weights from `wrap_params`, in the order of their values."""
    return [leaf for n in names for leaf in (ptensors[n] if isinstance(ptensors[n], tuple) else (ptensors[n],))]


# -- forward ----------------------------------------------------------------

class BlockKV(NamedTuple):
    """A forward's K/V of its own tokens, each (n_layers, *batch, n, d_model): un-rotated keys
    (what the compressor reads), the keys rotated by the tokens' positions (what attention
    read), and values."""

    keys: np.ndarray
    rotated: np.ndarray
    vals: np.ndarray


@dataclass
class ContextKV:
    """Cached K/V consumed by an incremental forward, held in slabs with room for the forward's block.

    `slab_keys` (rotated) and `slab_vals` are (n_layers, rows, d_model); their
    first n_tokens = len(positions) rows are the context, each key rotated
    once, where it was computed, by its position. A forward writes its own
    block's rotated keys and values into the rows after them, and its
    un-rotated keys into the same rows of `slab_unrotated` when there is one
    (a bounded cache's, for its compressor), and attends over
    `slab[l, :n_tokens + n]`, so the context is never copied. `keys` and
    `vals` are read-only views of the context rows; `step_tag` is the
    sampler step that produced them, and a forward at another step is
    refused.
    """

    slab_keys: np.ndarray
    slab_vals: np.ndarray
    positions: np.ndarray  # (n_tokens,)
    step_tag: float
    slab_unrotated: np.ndarray | None = None

    @property
    def n_tokens(self) -> int:
        return self.positions.shape[0]

    @property
    def keys(self) -> np.ndarray:
        return _read_only_rows(self.slab_keys, self.n_tokens)

    @property
    def vals(self) -> np.ndarray:
        return _read_only_rows(self.slab_vals, self.n_tokens)


def _read_only_rows(slab: np.ndarray, n: int) -> np.ndarray:
    rows = slab[:, :n]
    rows.setflags(write=False)
    return rows


class StepTagError(ValueError):
    """Cached context was produced at a different diffusion step."""


@dataclass(frozen=True)
class StepConditioning:
    """The part of a forward that depends only on (t, cond, weights), computed once per step.

    Per layer, in `layers`: "mod1" and "mod3" as (1 + gamma, beta) pairs,
    the gates "gate1" and "gate3", and "cond", the gated condition row
    cross * gate2. `final` is the output's (1 + gamma, beta) pair. Each is a
    (1, d) row for one step, or (B, 1, d) rows for a batch of B steps. These
    are bare arrays from bare weights and tape nodes from Tensor weights.
    """

    t: float | np.ndarray
    layers: tuple[dict, ...]
    final: tuple
    freqs: RopeFrequencies

    def row(self, k: int) -> "StepConditioning":
        """Batch element k of a batch of bare steps, as the one-step conditioning at step t[k]."""

        def pick(a):
            return tuple(pick(b) for b in a) if isinstance(a, tuple) else a[k]

        layers = tuple({name: pick(a) for name, a in layer.items()} for layer in self.layers)
        return StepConditioning(float(self.t[k]), layers, pick(self.final), self.freqs)


def _scale_offsets(config: DenoiserConfig, dtype) -> np.ndarray:
    """1 on every adaLN scale block of the heads (mod1 and mod3 of each layer, and final), 0 elsewhere."""
    blocks = np.zeros((7 * config.n_layers + 2, config.d_model), dtype=dtype)
    blocks[[*range(0, 7 * config.n_layers, 7), *range(4, 7 * config.n_layers, 7), -2]] = 1.0
    return blocks.reshape(-1)


def step_conditioning(ptensors: dict, config: DenoiserConfig, t, cond) -> StepConditioning:
    """Every modulation, gate and condition row of a forward at step `t`, tagged with `t`.

    `t` is one step with one `cond` vector, or a (B,) array of steps with
    (B, d_cond) conditions, one per batch element.
    """
    dtype = ptensors["input.w"].dtype
    phi = time_embed(t, config.d_model)
    lead = phi.shape[:-1]  # () for one step, (B,) for a batch
    phi = phi.reshape(*lead, 1, -1).astype(dtype)
    cond_row = np.asarray(cond).astype(dtype, copy=False)
    if cond_row.size != phi.size // config.d_model * config.d_cond:
        raise ShapeError(f"cond shape {cond_row.shape} does not give {config.d_cond} values per step {lead}")
    cond_row = cond_row.reshape(*lead, 1, config.d_cond)
    dm = config.d_model
    # One projection for every head; its column blocks are laid out as `param_layout` documents.
    # A scale enters as the multiplier 1 + gamma: one add of 1 on every scale block.
    heads = add(add(matmul(phi, ptensors["adaln.w"]), ptensors["adaln.b"]), _scale_offsets(config, dtype))
    blocks = [slice2d(heads, cols=slice(i * dm, (i + 1) * dm)) for i in range(7 * config.n_layers + 2)]
    layers = []
    for l in range(config.n_layers):
        p = f"layers.{l}"
        mod1_scale, mod1_shift, gate1, gate2, mod3_scale, mod3_shift, gate3 = blocks[7 * l:7 * l + 7]
        # The condition is one token, so attention over it has weight 1 for
        # every query: it enters as a single gated row broadcast over tokens.
        cross = add(matmul(matmul(cond_row, ptensors[f"{p}.cross.v"]), ptensors[f"{p}.cross.o.w"]),
                    ptensors[f"{p}.cross.o.b"])
        layers.append({"mod1": (mod1_scale, mod1_shift), "gate1": gate1, "cond": mul(cross, gate2),
                       "mod3": (mod3_scale, mod3_shift), "gate3": gate3})
    final_scale, final_shift = blocks[-2:]
    return StepConditioning(t, tuple(layers), (final_scale, final_shift),
                            RopeFrequencies.create(config.head_dim, config.rope_base))


def denoiser_forward(
    ptensors: dict,
    config: DenoiserConfig,
    x_tokens,
    positions,
    t,
    cond,
    mask: np.ndarray,
    ctx: ContextKV | None = None,
    memory: int = 0,
    conditioning: StepConditioning | None = None,
) -> tuple[Tensor | np.ndarray, BlockKV]:
    """Predict per-token velocity; also return the new tokens' K/V as one BlockKV.

    `ptensors` maps weight names to bare arrays (no tape: the velocity is
    an ndarray) or to Tensors (the velocity is a Tensor on their tape); a
    bare weight in a taped forward is frozen. `x_tokens` is (n, d_latent),
    or a (B, n, d_latent) batch that shares positions and mask, with one
    step in `t` and one row of `cond` per element.
    `mask` must cover (n_tokens, n_keys) where the key axis is
    [ctx || tokens] when a context is supplied, [tokens || memory] when
    `memory` windows are, and [tokens] otherwise. The windows (stage 2's
    compressed memory, convolved inline) span `compress_ratio` token rows
    each, back to back from row `n_ref_chunks`, just after the reference;
    each becomes one memory key at the position of its first row. A context's keys
    come rotated; the forward rotates only the keys it computes, writes them
    and its values (and un-rotated keys, given a slab for them) into the
    context slabs' rows after the context (an unbatched forward, in the
    slabs' dtype), and returns its tokens' keys, un-rotated and rotated, in
    the BlockKV: views of those slab rows, where the forward wrote them.
    `conditioning`, from `step_conditioning` with the same weights, step
    and cond, saves recomputing it; it is built here when omitted.
    """
    if ctx is not None and memory:
        raise ValueError("cached context and inline memory cannot be combined")
    dtype = ptensors["input.w"].dtype
    x = x_tokens if isinstance(x_tokens, Tensor) else np.asarray(x_tokens).astype(dtype, copy=False)
    n = x.shape[-2]
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (n,):
        raise ShapeError(f"positions shape {pos.shape} != ({n},)")
    n_keys = n
    if ctx is not None:
        n_keys += ctx.n_tokens
        if ctx.slab_keys.dtype != dtype or x.ndim != 2 or ctx.slab_keys.shape[-2] < n_keys:
            raise ShapeError(f"context slabs {ctx.slab_keys.shape} of {ctx.slab_keys.dtype} have no room for "
                             f"{x.shape[:-1]} {dtype} tokens after {ctx.n_tokens} context rows")
        if not _same_step(ctx.step_tag, t):
            raise StepTagError(f"cache step tag {ctx.step_tag} != forward step {t}")
    elif memory:
        span = slice(config.n_ref_chunks, config.n_ref_chunks + memory * config.compress_ratio)
        if memory < 0 or span.stop > n:
            raise ShapeError(f"{memory} memory windows of {config.compress_ratio} rows after "
                             f"{config.n_ref_chunks} reference rows do not fit in {n} tokens")
        n_keys += memory
    masked = key_mask(mask, n, n_keys)
    if conditioning is None:
        conditioning = step_conditioning(ptensors, config, t, cond)
    elif not _same_step(conditioning.t, t):
        raise StepTagError(f"conditioning step {conditioning.t} != forward step {t}")
    freqs = conditioning.freqs
    angles = rope_angles(pos, freqs, dtype)  # every layer's queries, and its keys unless memory joins them
    key_angles = None if not memory else rope_angles(
        np.concatenate([pos, pos[span][::config.compress_ratio]]), freqs, dtype)
    L = config.n_layers

    h = add(matmul(x, ptensors["input.w"]), ptensors["input.b"])
    keys, rotated, vals = [], [], []
    for l in range(L):
        p, s = f"layers.{l}.", conditioning.layers[l]
        slabs = memory_rows = None
        if ctx is not None:
            slabs = (ctx.slab_keys[l], ctx.slab_vals[l],
                     None if ctx.slab_unrotated is None else ctx.slab_unrotated[l], ctx.n_tokens)
        elif memory:  # layer l's key kernels and bias, then its value kernels and bias
            w, b = ptensors["compressor.w"], ptensors["compressor.b"]
            memory_rows = (span, w[l], b[l], w[L + l], b[L + l])
        h, k, k_rot, v = transformer_layer(
            h, [ptensors[p + name] for name in _LAYER_WEIGHTS],
            (*s["mod1"], s["gate1"], s["cond"], *s["mod3"], s["gate3"]), angles, masked, config.n_heads,
            key_angles, slabs, memory_rows)
        keys.append(k)
        rotated.append(k_rot)
        vals.append(v)

    scale, shift = conditioning.final
    out = add(mul(h, scale), shift)
    vel = add(matmul(out, ptensors["output.w"]), ptensors["output.b"])
    if not np.isfinite(data_of(vel)).all():
        raise FloatingPointError("denoiser produced non-finite velocities")
    if ctx is None:
        return vel, BlockKV(np.stack(keys), np.stack(rotated), np.stack(vals))
    rows = slice(ctx.n_tokens, n_keys)
    keys = np.stack(keys) if ctx.slab_unrotated is None else ctx.slab_unrotated[:, rows]
    return vel, BlockKV(keys, ctx.slab_keys[:, rows], ctx.slab_vals[:, rows])


def _same_step(a, b) -> bool:
    """The one rule for step tags: one step or a batch of them, equal in shape and values."""
    return a == b if isinstance(a, float) and isinstance(b, float) else np.array_equal(a, b)


def chunk_forward(ptensors: dict, config: DenoiserConfig, x_ref, chunks, first: int, chunk_mask: np.ndarray, t,
                  cond, conditioning: StepConditioning | None = None) -> Tensor | np.ndarray:
    """The velocity rows of `chunks`, the n chunks from chunk `first`, run after the reference as tokens.

    The one reference-then-chunks layout of training (both mask modes), of
    the recompute oracles and of the zero-shot chain: the config's n_ref
    reference chunks at positions -n_ref..-1, attending only to themselves,
    then the chunks at first..first + n - 1 under `chunk_mask`, a
    chunk-level (n, n + W) mask whose last W columns are memory windows of
    `compress_ratio` chunks from the first chunk, convolved inline. `x_ref`
    and `chunks` are (n_ref | n, d_latent), or batches of them as
    `denoiser_forward` takes; an `x_ref` of another size is refused.
    """
    n_ref, n = config.n_ref_chunks, chunks.shape[-2]
    if np.shape(x_ref)[-2:-1] != (n_ref,):
        raise ShapeError(f"x_ref shape {np.shape(x_ref)} does not hold the config's {n_ref} reference chunks")
    vel, _ = denoiser_forward(ptensors, config, np.concatenate([x_ref, chunks], axis=-2),
                              np.concatenate([np.arange(-n_ref, 0), np.arange(first, first + n)]), t, cond,
                              expand_mask_with_ref(chunk_mask), memory=chunk_mask.shape[1] - n,
                              conditioning=conditioning)
    return slice2d(vel, rows=slice(n_ref, None))
