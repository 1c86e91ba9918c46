"""Bounded-memory segmented KV cache with convolutional compression.

K/V keep one (n_layers, n_chunks, d_kv) layout from the forward to the
cache and back: the cache stores a forward's `BlockKV` (un-rotated keys,
rotated keys, values) as given, and a context view hands rotated keys and
values back as one `ContextKV`.

Each key is rotated once, where it is computed. A stored chunk's rotary
position never changes: a raw chunk keeps its own position, by which its
forward already rotated it, and a compressed chunk carries the starting
position of the window it summarizes, which realizes the positional reset
exactly instead of approximating it with inverse rotations. So the cache
rotates only the long-term windows it compresses, at their window start.

Segments (bounded mode): reference (2 chunks) | long_term (2 compressed
chunks) | short_term (2 raw chunks) | current block, plus a pending
buffer of evicted raw chunks waiting to fill a compression window.

Unbounded mode keeps reference || history as rotated keys and values
only, in buffers that double their capacity: a roll writes the finalized
block in place, and a context view is a read-only slice of the filled
rows.

A roll compresses every full window of pending, all layers and K/V at
once, with numerics.window_products, the kernel stage-2 training's
conv1d_strided runs: a compressed chunk equals its training-time memory
token bit for bit at any span length.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .model import BlockKV, ContextKV, DenoiserParams, RopeFrequencies, rope_apply
from .numerics import window_products

REF_CAPACITY = 2
LONG_TERM_CAPACITY = 2
SHORT_TERM_CAPACITY = 2


class CacheStepError(ValueError):
    """An append or read was attempted at the wrong diffusion step."""


@dataclass(slots=True)
class Segment:
    """K/V chunks with position tags and raw-chunk coverage.

    Arrays are (n_layers, n_chunks, d_kv), as a `BlockKV` carries them.
    `keys` are un-rotated, for the compressor; `rotated` are the keys turned
    by `positions`, for attention. Only unbounded reference and history
    (views of `GrowingRows`), which nothing compresses, have None for `keys`.
    """

    keys: np.ndarray | None
    vals: np.ndarray
    positions: np.ndarray   # (n_chunks,) rope positions
    spans: list[tuple[int, int]]  # covered raw-chunk id range per stored chunk
    rotated: np.ndarray

    @classmethod
    def empty(cls, n_layers: int, d_kv: int, dtype=np.float64) -> "Segment":
        no_rows = np.zeros((n_layers, 0, d_kv), dtype=dtype)
        return cls(no_rows, no_rows, np.zeros(0), [], no_rows)

    @property
    def n_chunks(self) -> int:
        return self.vals.shape[1]

    @staticmethod
    def joined(segs: list["Segment"]) -> "Segment":
        """The segments' chunks in order."""
        return Segment(np.concatenate([seg.keys for seg in segs], axis=1),
                       np.concatenate([seg.vals for seg in segs], axis=1),
                       np.concatenate([seg.positions for seg in segs]),
                       [span for seg in segs for span in seg.spans],
                       np.concatenate([seg.rotated for seg in segs], axis=1))

    def rows(self, start: int, stop: int | None = None) -> "Segment":
        """Chunks [start:stop], sliced as a Python sequence is."""
        sel = slice(start, stop)
        return Segment(self.keys[:, sel], self.vals[:, sel], self.positions[sel], self.spans[sel],
                       self.rotated[:, sel])

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in (self.keys, self.rotated, self.vals, self.positions):
            h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
        h.update(repr(self.spans).encode())
        return h.hexdigest()


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class GrowingRows:
    """Rotated keys, values and positions written once, in buffers that double their capacity.

    The first `n` rows are filled. A write lands past every row handed out
    before it, and a doubling copies into new buffers, so a slice taken
    earlier keeps its values.
    """

    def __init__(self, n_layers: int, d_kv: int, dtype, capacity: int = 64):
        self.rotated = np.empty((n_layers, capacity, d_kv), dtype=dtype)
        self.vals = np.empty_like(self.rotated)
        self.positions = np.empty(capacity)
        self.n = 0

    def extend(self, seg: Segment) -> None:
        start, stop = self.n, self.n + seg.n_chunks
        if stop > self.positions.size:
            capacity = max(2 * self.positions.size, stop)
            n_layers, _, d_kv = self.rotated.shape
            rotated, vals = (np.empty((n_layers, capacity, d_kv), dtype=self.rotated.dtype) for _ in range(2))
            positions = np.empty(capacity)
            rotated[:, :start], vals[:, :start], positions[:start] = (
                self.rotated[:, :start], self.vals[:, :start], self.positions[:start])
            self.rotated, self.vals, self.positions = rotated, vals, positions
        self.rotated[:, start:stop] = seg.rotated
        self.vals[:, start:stop] = seg.vals
        self.positions[start:stop] = seg.positions
        self.n = stop

    def segment(self, start: int, stop: int, spans: list[tuple[int, int]]) -> Segment:
        """Rows [start, stop) as a read-only Segment of views."""
        seg = Segment(None, self.vals[:, start:stop], self.positions[start:stop], spans,
                      self.rotated[:, start:stop])
        _read_only(seg.vals, seg.positions, seg.rotated)
        return seg


@dataclass
class SegmentedKVCache:
    n_layers: int
    d_kv: int
    step_tag: float
    freqs: RopeFrequencies
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
    buffer: GrowingRows = None       # unbounded mode: reference || history

    def __post_init__(self):
        for name in ("reference", "long_term", "short_term", "current", "pending", "history"):
            if getattr(self, name) is None:
                setattr(self, name, Segment.empty(self.n_layers, self.d_kv, self.dtype))
        if not self.bounded and self.buffer is None:
            self.buffer = GrowingRows(self.n_layers, self.d_kv, self.dtype)

    @property
    def context_chunks(self) -> int:
        """Non-current chunks visible to attention."""
        return sum(s.n_chunks for s in self._context_segments())

    def context_floats(self) -> int:
        """Floats attention reads from the context: its keys and values, one copy of each."""
        return sum(s.rotated.size + s.vals.size for s in self._context_segments())

    def _context_segments(self) -> list[Segment]:
        if self.bounded:
            return [self.reference, self.long_term, self.short_term]
        return [self.reference, self.history]

    def non_current_digest(self) -> str:
        h = hashlib.sha256()
        for seg in (self.reference, self.long_term, self.short_term, self.pending, self.history):
            h.update(seg.digest().encode())
        return h.hexdigest()


def new_cache(n_layers: int, d_kv: int, step_tag: float, freqs: RopeFrequencies, lam: int = 5,
              bounded: bool = True, dtype=np.float64) -> SegmentedKVCache:
    """An empty cache that rotates the windows it compresses by the model's frequencies."""
    if d_kv % (2 * freqs.freqs.size) != 0:
        raise ValueError(f"d_kv {d_kv} does not split into rotary groups of {2 * freqs.freqs.size}")
    return SegmentedKVCache(n_layers=n_layers, d_kv=d_kv, step_tag=step_tag, freqs=freqs, lam=lam,
                            bounded=bounded, dtype=dtype)


def set_reference(cache: SegmentedKVCache, kv: BlockKV, positions) -> None:
    """Install the reference-image K/V (occupies the reference segment)."""
    n = kv.vals.shape[1]
    if n != REF_CAPACITY:
        raise ValueError(f"reference segment holds {REF_CAPACITY} chunks, got {n}")
    ref = Segment(kv.keys, kv.vals, np.asarray(positions, dtype=np.float64), [(-1, -1)] * n, kv.rotated)
    if cache.bounded:
        cache.reference = ref
        return
    if cache.history.n_chunks:
        raise ValueError("an unbounded cache takes its reference before any chunk is stored")
    cache.buffer.n = 0
    cache.buffer.extend(ref)
    cache.reference = cache.buffer.segment(0, n, ref.spans)


def cache_append(cache: SegmentedKVCache, kv: BlockKV, positions, step: float) -> None:
    """Append the freshly computed block K/V to the current segment.

    Strictly append-only: no previously stored tensor is modified.
    """
    if step != cache.step_tag:
        raise CacheStepError(f"append at step {step} into a cache tagged {cache.step_tag}")
    n = kv.vals.shape[1]
    if not np.array_equal(positions, np.arange(cache.next_position, cache.next_position + n)):
        raise ValueError(f"positions {list(positions)} do not continue from {cache.next_position}")
    ids = range(cache.next_chunk_id, cache.next_chunk_id + n)
    block = Segment(kv.keys, kv.vals, np.asarray(positions, dtype=np.float64), [(i, i + 1) for i in ids],
                    kv.rotated)
    cache.current = Segment.joined([cache.current, block])
    cache.next_chunk_id += n
    cache.next_position += n


def compressor_arrays(params: DenoiserParams) -> tuple[np.ndarray, np.ndarray]:
    """The params' own (W (2*n_layers, lam, d, d), b (2*n_layers, d)): key layers, then value layers."""
    return params.values["compressor.w"], params.values["compressor.b"]


def cache_roll(cache: SegmentedKVCache, compressor=None, mode: str = "conv") -> None:
    """Finalize the current block and re-establish the bounded layout.

    The last two chunks of the finalized block become short-term memory;
    displaced short-term chunks and the block's earlier chunks join the
    pending buffer; every full lam-window in pending is compressed into
    long-term memory (FIFO-evicted beyond capacity), its keys rotated here,
    once, at the window start. Unbounded, the whole block joins the
    history.
    """
    cur = cache.current
    cache.current = Segment.empty(cache.n_layers, cache.d_kv, cache.dtype)
    if not cache.bounded:
        cache.buffer.extend(cur)
        cache.history = cache.buffer.segment(cache.reference.n_chunks, cache.buffer.n,
                                           cache.history.spans + cur.spans)
        return
    if mode not in ("conv", "subsample"):
        raise ValueError(f"unknown compression mode {mode!r}")
    if mode == "conv" and (compressor is None or compressor[0].shape[-3] != cache.lam):
        raise ValueError(f"conv mode requires compressor weights of kernel length {cache.lam}")
    keep = min(SHORT_TERM_CAPACITY, cur.n_chunks)
    evicted, fresh = cur.rows(0, cur.n_chunks - keep), cur.rows(cur.n_chunks - keep)
    # Chronological order: pending < displaced short-term < evicted current.
    pending = Segment.joined([cache.pending, cache.short_term, evicted])

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
    starts = pending.positions[:used:lam]
    cache.short_term = fresh
    long_term = Segment.joined([cache.long_term,
                                Segment(m_k, m_v, starts, spans, rope_apply(m_k, starts, cache.freqs))])
    cache.dropped_spans += long_term.spans[:-LONG_TERM_CAPACITY]
    cache.long_term = long_term.rows(-LONG_TERM_CAPACITY)
    cache.pending = pending.rows(used)


def cache_context_view(cache: SegmentedKVCache) -> tuple[ContextKV, list[str]]:
    """Read-only rotated K/V of reference || long_term || short_term.

    (reference || history in unbounded mode, sliced from the history
    buffers without a copy.) Returns the (n_layers, n_ctx, d_kv) K/V plus
    one segment label per context chunk. Every returned array is
    non-writeable.
    """
    if cache.bounded:
        segs = [("reference", cache.reference), ("long_term", cache.long_term),
                ("short_term", cache.short_term)]
        keys = np.concatenate([seg.rotated for _, seg in segs], axis=1)
        vals = np.concatenate([seg.vals for _, seg in segs], axis=1)
        positions = np.concatenate([seg.positions for _, seg in segs])
    else:
        segs = [("reference", cache.reference), ("history", cache.history)]
        buf = cache.buffer
        keys, vals, positions = buf.rotated[:, :buf.n], buf.vals[:, :buf.n], buf.positions[:buf.n]
    _read_only(keys, vals, positions)
    labels: list[str] = []
    for name, seg in segs:
        labels += [name] * seg.n_chunks
    return ContextKV(keys, vals, positions, cache.step_tag), labels


def coverage_accounting(cache: SegmentedKVCache) -> dict[str, list[int]]:
    """Raw-chunk ids accounted per location (for the conservation ledger)."""

    def ids_of(spans):
        return [i for s, e in spans if s >= 0 for i in range(s, e)]

    return {
        "short_term": ids_of(cache.short_term.spans),
        "pending": ids_of(cache.pending.spans),
        "long_term": ids_of(cache.long_term.spans),
        "dropped": ids_of(cache.dropped_spans),
        "current": ids_of(cache.current.spans),
        "history": ids_of(cache.history.spans),
    }


def snapshot(cache: SegmentedKVCache) -> str:
    """Human-readable debug snapshot: shapes, position tags, stored copies, digests."""
    lines = [f"step_tag={cache.step_tag} lam={cache.lam} bounded={cache.bounded}"]
    for name in ("reference", "long_term", "short_term", "pending", "current", "history"):
        seg: Segment = getattr(cache, name)
        copies = "+".join(c for c in ("keys", "rotated") if getattr(seg, c) is not None)
        lines.append(
            f"{name}: chunks={seg.n_chunks} positions={seg.positions.tolist()} "
            f"spans={seg.spans} stores={copies} sha256={seg.digest()[:16]}"
        )
    return "\n".join(lines)
