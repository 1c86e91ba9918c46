"""Bounded-memory segmented KV cache with convolutional compression.

Keys and values are stored un-rotated together with a per-chunk position
tag; rotary encoding is applied when a context view is consumed. A
compressed chunk carries the starting position of the window it
summarizes, which realizes the positional reset exactly instead of
approximating it with inverse rotations.

Segments (bounded mode): reference (2 chunks) | long_term (2 compressed
chunks) | short_term (2 raw chunks) | current block, plus a pending
buffer of evicted raw chunks waiting to fill a compression window.

A roll compresses every full window of pending, all layers and K/V at
once, with numerics.window_products, the kernel stage-2 training's
conv1d_strided runs: a compressed chunk equals its training-time memory
token bit for bit at any span length.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .model import ContextKV, DenoiserParams
from .numerics import window_products

REF_CAPACITY = 2
LONG_TERM_CAPACITY = 2
SHORT_TERM_CAPACITY = 2


class CacheStepError(ValueError):
    """An append or read was attempted at the wrong diffusion step."""


@dataclass
class Segment:
    """Per-layer K/V chunks with position tags and raw-chunk coverage."""

    keys: np.ndarray        # (n_layers, n_chunks, d_kv)
    vals: np.ndarray
    positions: np.ndarray   # (n_chunks,) rope positions
    spans: list[tuple[int, int]]  # covered raw-chunk id range per stored chunk

    @classmethod
    def empty(cls, n_layers: int, d_kv: int, dtype=np.float64) -> "Segment":
        return cls(
            keys=np.zeros((n_layers, 0, d_kv), dtype=dtype),
            vals=np.zeros((n_layers, 0, d_kv), dtype=dtype),
            positions=np.zeros(0),
            spans=[],
        )

    @property
    def n_chunks(self) -> int:
        return self.keys.shape[1]

    def appended(self, keys, vals, positions, spans) -> "Segment":
        return Segment(
            keys=np.concatenate([self.keys, keys], axis=1),
            vals=np.concatenate([self.vals, vals], axis=1),
            positions=np.concatenate([self.positions, np.asarray(positions, dtype=np.float64)]),
            spans=self.spans + list(spans),
        )

    def tail(self, n: int) -> "Segment":
        if n <= 0:
            return Segment(self.keys[:, :0].copy(), self.vals[:, :0].copy(), self.positions[:0].copy(), [])
        return Segment(self.keys[:, -n:], self.vals[:, -n:], self.positions[-n:], self.spans[-n:])

    def head(self, n: int) -> "Segment":
        return Segment(self.keys[:, :n], self.vals[:, :n], self.positions[:n], self.spans[:n])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.keys).tobytes())
        h.update(np.ascontiguousarray(self.vals).tobytes())
        h.update(np.ascontiguousarray(self.positions).tobytes())
        h.update(repr(self.spans).encode())
        return h.hexdigest()


@dataclass
class SegmentedKVCache:
    n_layers: int
    d_kv: int
    step_tag: float
    lam: int = 5
    bounded: bool = True
    dtype: object = np.float64
    reference: Segment = None
    long_term: Segment = None
    short_term: Segment = None
    current: Segment = None
    pending: Segment = None
    history: Segment = None          # unbounded mode only
    dropped_spans: list[tuple[int, int]] = field(default_factory=list)
    next_position: int = 0           # monotone chunk-position counter
    next_chunk_id: int = 0

    def __post_init__(self):
        for name in ("reference", "long_term", "short_term", "current", "pending", "history"):
            if getattr(self, name) is None:
                setattr(self, name, Segment.empty(self.n_layers, self.d_kv, self.dtype))

    @property
    def context_chunks(self) -> int:
        """Non-current chunks visible to attention."""
        if self.bounded:
            return self.reference.n_chunks + self.long_term.n_chunks + self.short_term.n_chunks
        return self.reference.n_chunks + self.history.n_chunks

    def context_floats(self) -> int:
        segs = (
            [self.reference, self.long_term, self.short_term]
            if self.bounded
            else [self.reference, self.history]
        )
        return sum(s.keys.size + s.vals.size for s in segs)

    def non_current_digest(self) -> str:
        h = hashlib.sha256()
        for seg in (self.reference, self.long_term, self.short_term, self.pending, self.history):
            h.update(seg.digest().encode())
        return h.hexdigest()


def new_cache(n_layers: int, d_kv: int, step_tag: float, lam: int = 5, bounded: bool = True,
              dtype=np.float64) -> SegmentedKVCache:
    return SegmentedKVCache(n_layers=n_layers, d_kv=d_kv, step_tag=step_tag, lam=lam,
                            bounded=bounded, dtype=dtype)


def set_reference(cache: SegmentedKVCache, kv_layers, positions) -> None:
    """Install the reference-image K/V (occupies the reference segment)."""
    keys = np.stack([k for k, _ in kv_layers])
    vals = np.stack([v for _, v in kv_layers])
    n = keys.shape[1]
    if n != REF_CAPACITY:
        raise ValueError(f"reference segment holds {REF_CAPACITY} chunks, got {n}")
    cache.reference = Segment(keys, vals, np.asarray(positions, dtype=np.float64),
                              [(-1, -1)] * n)


def cache_append(cache: SegmentedKVCache, new_kv, positions, step: float) -> None:
    """Append the freshly computed block K/V to the current segment.

    Strictly append-only: no previously stored tensor is modified.
    """
    if step != cache.step_tag:
        raise CacheStepError(f"append at step {step} into a cache tagged {cache.step_tag}")
    keys = np.stack([k for k, _ in new_kv])
    vals = np.stack([v for _, v in new_kv])
    n = keys.shape[1]
    if not np.array_equal(positions, np.arange(cache.next_position, cache.next_position + n)):
        raise ValueError(f"positions {list(positions)} do not continue from {cache.next_position}")
    ids = list(range(cache.next_chunk_id, cache.next_chunk_id + n))
    cache.current = cache.current.appended(keys, vals, positions, [(i, i + 1) for i in ids])
    cache.next_chunk_id += n
    cache.next_position += n


def compressor_arrays(params: DenoiserParams) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (W (2*n_layers, lam, d, d), b (2*n_layers, d)): key layers, then value layers."""
    names = [f"compressor.{l}.{kind}" for kind in ("key", "val") for l in range(params.config.n_layers)]
    return (np.stack([params.values[f"{name}.w"] for name in names]),
            np.stack([params.values[f"{name}.b"] for name in names]))


def cache_roll(cache: SegmentedKVCache, compressor=None, mode: str = "conv") -> None:
    """Finalize the current block and re-establish the bounded layout.

    The last two chunks of the finalized block become short-term memory;
    displaced short-term chunks and the block's earlier chunks join the
    pending buffer; every full lam-window in pending is compressed into
    long-term memory (FIFO-evicted beyond capacity).
    """
    cur = cache.current
    cache.current = Segment.empty(cache.n_layers, cache.d_kv, cache.dtype)
    if not cache.bounded:
        cache.history = cache.history.appended(cur.keys, cur.vals, cur.positions, cur.spans)
        return
    if mode not in ("conv", "subsample"):
        raise ValueError(f"unknown compression mode {mode!r}")
    if mode == "conv" and (compressor is None or compressor[0].shape[-3] != cache.lam):
        raise ValueError(f"conv mode requires compressor weights of kernel length {cache.lam}")
    keep = min(SHORT_TERM_CAPACITY, cur.n_chunks)
    evicted, old_st = cur.head(cur.n_chunks - keep), cache.short_term
    cache.short_term = cur.tail(keep)
    # Chronological order: pending < displaced short-term < evicted current.
    pending = cache.pending.appended(old_st.keys, old_st.vals, old_st.positions, old_st.spans)
    pending = pending.appended(evicted.keys, evicted.vals, evicted.positions, evicted.spans)

    lam = cache.lam
    used = pending.n_chunks // lam * lam
    if mode == "conv":
        m = window_products(np.concatenate([pending.keys, pending.vals]), *compressor).astype(cache.dtype, copy=False)
        m_k, m_v = m[:cache.n_layers], m[cache.n_layers:]
    else:
        # Free summarizer used by the overhead benchmark: the first chunk of
        # each window stands in for the whole window.
        m_k, m_v = pending.keys[:, :used:lam], pending.vals[:, :used:lam]
    spans = [(pending.spans[i][0], pending.spans[i + lam - 1][1]) for i in range(0, used, lam)]
    long_term = cache.long_term.appended(m_k, m_v, pending.positions[:used:lam], spans)
    cache.dropped_spans += long_term.spans[:-LONG_TERM_CAPACITY]
    cache.long_term = long_term.tail(LONG_TERM_CAPACITY)
    cache.pending = pending.tail(pending.n_chunks - used)


def cache_context_view(cache: SegmentedKVCache) -> tuple[ContextKV, list[str]]:
    """Read-only concatenation reference || long_term || short_term.

    (reference || history in unbounded mode.) Returns the per-layer K/V
    plus one segment label per context chunk.
    """
    if cache.bounded:
        segs = [("reference", cache.reference), ("long_term", cache.long_term),
                ("short_term", cache.short_term)]
    else:
        segs = [("reference", cache.reference), ("history", cache.history)]
    labels: list[str] = []
    for name, seg in segs:
        labels += [name] * seg.n_chunks
    keys = np.concatenate([seg.keys for _, seg in segs], axis=1)
    vals = np.concatenate([seg.vals for _, seg in segs], axis=1)
    positions = np.concatenate([seg.positions for _, seg in segs])
    layers = [(keys[l], vals[l]) for l in range(cache.n_layers)]
    return ContextKV(layers=layers, positions=positions, step_tag=cache.step_tag), labels


def coverage_accounting(cache: SegmentedKVCache) -> dict[str, list[int]]:
    """Raw-chunk ids accounted per location (for the conservation ledger)."""

    def ids_of(spans):
        out = []
        for s, e in spans:
            if s >= 0:
                out.extend(range(s, e))
        return out

    return {
        "short_term": ids_of(cache.short_term.spans),
        "pending": ids_of(cache.pending.spans),
        "long_term": ids_of(cache.long_term.spans),
        "dropped": ids_of(cache.dropped_spans),
        "current": ids_of(cache.current.spans),
    }


def snapshot(cache: SegmentedKVCache) -> str:
    """Human-readable debug snapshot: shapes, position tags, digests."""
    lines = [f"step_tag={cache.step_tag} lam={cache.lam} bounded={cache.bounded}"]
    for name in ("reference", "long_term", "short_term", "pending", "current", "history"):
        seg: Segment = getattr(cache, name)
        lines.append(
            f"{name}: chunks={seg.n_chunks} positions={seg.positions.tolist()} "
            f"spans={seg.spans} sha256={seg.digest()[:16]}"
        )
    return "\n".join(lines)
