"""Bounded-memory segmented KV cache with convolutional compression.

A cache keeps its K/V in slabs, (n_layers, rows, d_kv) as a `BlockKV`
carries them: rotated keys, values and, bounded only, the un-rotated keys
the compressor reads. One block of room follows the filled rows:

- bounded: fixed slots reference (2 chunks) | long_term (2 compressed) |
  short_term (2 raw) | current block, packed with no gaps and allocated
  with the cache, plus a pending buffer of evicted raw chunks waiting to
  fill a compression window;
- unbounded: reference | history | current block, in slabs that double
  whenever less than one block of room is left.

A context view hands the forward the slabs and the context length; the
forward writes its block's rotated keys and values into the room and
attends over the slice, and `cache_append` records the block there. An
unbounded roll only advances the fill mark, so an unbounded view is valid
for as long as it is held (rows are written only past it; a doubling
copies into new slabs); a bounded roll shifts at most four slot rows in
place, so a bounded view is valid until the next roll.

Each key is rotated once, where it is computed, and keeps its position: a
raw chunk its own, a compressed chunk the start of the window it
summarizes (the positional reset, exactly). A roll compresses every full
window of pending, all layers and K/V at once, with
numerics.window_products, the kernel stage-2 training's conv1d_strided
runs, so a compressed chunk equals its training-time memory token bit for
bit, and rotates the new long-term chunks at their window starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .model import BlockKV, ContextKV, DenoiserParams, RopeFrequencies, rope_angles, rope_apply
from .numerics import window_products

REF_CAPACITY = 2
LONG_TERM_CAPACITY = 2
SHORT_TERM_CAPACITY = 2
LAYOUT = ("reference", "long_term", "short_term", "history", "current")  # slab segments in row order


class CacheStepError(ValueError):
    """An append or read was attempted at the wrong diffusion step."""


@dataclass(slots=True)
class Segment:
    """A copy of a segment's chunks, (n_layers, n_chunks, d_kv), with position tags and raw-chunk coverage.

    `keys` are un-rotated, for the compressor (None unbounded); `rotated` are
    turned by `positions`, for attention (None in pending).
    """

    keys: np.ndarray | None
    vals: np.ndarray
    positions: np.ndarray   # (n_chunks,) rope positions
    spans: list[tuple[int, int]]  # covered raw-chunk id range per stored chunk
    rotated: np.ndarray | None

    @property
    def n_chunks(self) -> int:
        return self.vals.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in (self.keys, self.rotated, self.vals, self.positions):
            h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
        h.update(repr(self.spans).encode())
        return h.hexdigest()


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """A copy of `a` with `rows` rows on its row axis (the next-to-last one, or the only one)."""
    axis = max(a.ndim - 2, 0)
    out = np.empty(a.shape[:axis] + (rows,) + a.shape[axis + 1:], dtype=a.dtype)
    out[(slice(None),) * axis + (slice(0, a.shape[axis]),)] = a
    return out


class SegmentedKVCache:
    """One sampler step's K/V: the slabs with per-row positions and spans, and pending.

    `slabs` holds rotated keys, values and (bounded only) un-rotated keys,
    each (n_layers, rows, d_kv); `counts` holds each LAYOUT segment's rows
    and `spans` the raw-chunk ids each filled row covers. `pending_kv` stacks
    un-rotated keys and values, (2, n_layers, rows, d_kv): reshaped, the
    compressor's input. `cache.<segment>` (a LAYOUT name or "pending")
    copies the segment's rows into a `Segment`.
    """

    def __init__(self, n_layers: int, d_kv: int, step_tag: float, freqs: RopeFrequencies, lam: int,
                 bounded: bool, dtype, block_rows: int):
        self.n_layers, self.d_kv, self.step_tag, self.freqs = n_layers, d_kv, step_tag, freqs
        self.lam, self.bounded, self.dtype, self.block_rows = lam, bounded, dtype, block_rows
        self.counts = dict.fromkeys(LAYOUT, 0)
        self.spans: list[tuple[int, int]] = []
        self.dropped_spans: list[tuple[int, int]] = []
        self.next_position = 0  # monotone chunk-position counter
        self.next_chunk_id = 0
        rows = REF_CAPACITY + LONG_TERM_CAPACITY + SHORT_TERM_CAPACITY + block_rows
        # One array per slab: stacked, the unbounded slabs raised perfbench's peak RSS by ~3 MB.
        self.slabs = [np.empty((n_layers, rows, d_kv), dtype=dtype) for _ in range(3 if bounded else 2)]
        self.positions = np.empty(rows)
        # Room for lam - 1 leftovers and a whole slab. Raw chunk i sits at position i, so pending's positions
        # are its spans' starts.
        self.pending_kv = np.empty((2, n_layers, rows + lam if bounded else 0, d_kv), dtype=dtype)
        self.pending_spans: list[tuple[int, int]] = []
        self.window_angles = rope_angles(np.zeros(0), freqs, dtype)  # see `_window_angles`

    @property
    def context_chunks(self) -> int:
        """Non-current chunks visible to attention."""
        return len(self.spans) - self.counts["current"]

    def context_floats(self) -> int:
        """Floats attention reads from the context: its keys and values, one copy of each."""
        return 2 * self.n_layers * self.context_chunks * self.d_kv

    @property
    def kv_bytes(self) -> int:
        """Bytes of the K/V arrays the cache owns: its slabs and pending."""
        return sum(a.nbytes for a in self.slabs) + self.pending_kv.nbytes

    def __getattr__(self, name: str) -> Segment:
        if name == "pending":
            n = len(self.pending_spans)
            keys, vals = self.pending_kv[:, :, :n].copy()
            positions = np.array([s for s, _ in self.pending_spans], dtype=np.float64)
            return Segment(keys, vals, positions, list(self.pending_spans), None)
        if name not in LAYOUT:
            raise AttributeError(name)
        start = sum(self.counts[seg] for seg in LAYOUT[:LAYOUT.index(name)])
        rows = slice(start, start + self.counts[name])
        rotated, vals, *keys = (slab[:, rows].copy() for slab in self.slabs)
        return Segment(keys[0] if keys else None, vals, self.positions[rows].copy(), self.spans[rows], rotated)

    def non_current_digest(self) -> str:
        h = hashlib.sha256()
        for name in ("reference", "long_term", "short_term", "pending", "history"):
            h.update(getattr(self, name).digest().encode())
        return h.hexdigest()

    def _reserve(self, stop: int) -> None:
        """Slab rows up to `stop`: the capacity doubles until they fit, pending's with it."""
        rows = self.positions.size
        if stop <= rows:
            return
        rows = max(2 * rows, stop)
        self.slabs, self.positions = [_grown(slab, rows) for slab in self.slabs], _grown(self.positions, rows)
        if self.bounded:
            self.pending_kv = _grown(self.pending_kv, rows + self.lam)

    def _write(self, start: int, parts, positions, spans: list) -> None:
        """Slab rows [start, start + len(spans)) set to chunks of `parts` (rotated keys, values, keys).

        An unbounded cache ignores the keys.
        """
        rows = slice(start, start + len(spans))
        for slab, part in zip(self.slabs, parts):
            slab[:, rows] = part
        self.positions[rows] = positions
        self.spans[rows] = spans

    def _window_angles(self, spans: list) -> tuple[np.ndarray, np.ndarray]:
        """`rope_angles` of the windows with these spans, as rows k of one table: window k starts at k * lam."""
        first, stop = (spans[0][0] // self.lam, spans[-1][0] // self.lam + 1) if spans else (0, 0)
        if stop > len(self.window_angles[0]):
            self.window_angles = rope_angles(np.arange(2 * stop) * self.lam, self.freqs, self.dtype)
        return tuple(a[first:stop] for a in self.window_angles)

    def _move(self, dst: int, src: int, n: int) -> None:
        """Slab rows [src, src + n) to rows [dst, dst + n)."""
        if n == 0 or dst == src:
            return
        to, rows = slice(dst, dst + n), slice(src, src + n)
        for slab in self.slabs:
            slab[:, to] = slab[:, rows]
        self.positions[to] = self.positions[rows]
        self.spans[to] = self.spans[rows]


def new_cache(n_layers: int, d_kv: int, step_tag: float, freqs: RopeFrequencies, lam: int = 5,
              bounded: bool = True, dtype=np.float64, block_rows: int = 8) -> SegmentedKVCache:
    """An empty cache with room for blocks of `block_rows` chunks (a larger block doubles the slabs at its
    append) that rotates its compressed windows by `freqs`."""
    if d_kv % (2 * freqs.freqs.size) != 0:
        raise ValueError(f"d_kv {d_kv} does not split into rotary groups of {2 * freqs.freqs.size}")
    return SegmentedKVCache(n_layers, d_kv, step_tag, freqs, lam, bounded, dtype, block_rows)


def set_reference(cache: SegmentedKVCache, kv: BlockKV, positions) -> None:
    """Install the reference-image K/V in the slabs' first rows, before any chunk is stored."""
    n = kv.vals.shape[1]
    if n != REF_CAPACITY:
        raise ValueError(f"reference segment holds {REF_CAPACITY} chunks, got {n}")
    if cache.next_chunk_id:
        raise ValueError("a cache takes its reference before any chunk is stored")
    cache._write(0, (kv.rotated, kv.vals, kv.keys), positions, [(-1, -1)] * n)
    cache.counts["reference"] = n


def cache_append(cache: SegmentedKVCache, kv: BlockKV, positions, step: float) -> None:
    """Store a freshly computed block's K/V in the rows after the filled ones, as current chunks.

    A forward given this cache's context view has written the block's
    rotated keys and values there already, so they are written onto
    themselves. Append-only: no row before the block is written; if the
    block does not fit, the slabs double.
    """
    if step != cache.step_tag:
        raise CacheStepError(f"append at step {step} into a cache tagged {cache.step_tag}")
    n = kv.vals.shape[1]
    if not np.array_equal(positions, np.arange(cache.next_position, cache.next_position + n)):
        raise ValueError(f"positions {list(positions)} do not continue from {cache.next_position}")
    start, first = len(cache.spans), cache.next_chunk_id
    cache._reserve(start + n)
    cache._write(start, (kv.rotated, kv.vals, kv.keys), positions, [(i, i + 1) for i in range(first, first + n)])
    cache.counts["current"] += n
    cache.next_chunk_id += n
    cache.next_position += n


def compressor_arrays(params: DenoiserParams) -> tuple[np.ndarray, np.ndarray]:
    """The params' own (W (2*n_layers, lam, d, d), b (2*n_layers, d)): key layers, then value layers."""
    return params.values["compressor.w"], params.values["compressor.b"]


def cache_roll(cache: SegmentedKVCache, compressor=None, mode: str = "conv") -> None:
    """Finalize the current block and re-establish the bounded layout, in place.

    The last two chunks of the finalized block become short-term memory;
    displaced short-term chunks and the block's earlier chunks join the
    pending buffer; every full lam-window in pending is compressed into
    long-term memory (FIFO-evicted beyond capacity), its keys rotated here,
    once, at the window start. Unbounded, the whole block joins the
    history, and the slabs keep room for one more block.
    """
    counts = cache.counts
    if not cache.bounded:
        counts["history"] += counts["current"]
        counts["current"] = 0
        cache._reserve(len(cache.spans) + cache.block_rows)
        return
    if mode not in ("conv", "subsample"):
        raise ValueError(f"unknown compression mode {mode!r}")
    if mode == "conv" and (compressor is None or compressor[0].shape[-3] != cache.lam):
        raise ValueError(f"conv mode requires compressor weights of kernel length {cache.lam}")
    ref, n_long, lam, L = counts["reference"], counts["long_term"], cache.lam, cache.n_layers
    keep = min(SHORT_TERM_CAPACITY, counts["current"])
    # Chronological order: pending < displaced short-term < evicted current, slab rows [start, stop).
    start, stop = ref + n_long, len(cache.spans) - keep
    p, q = len(cache.pending_spans), len(cache.pending_spans) + stop - start
    cache.pending_kv[0, :, p:q] = cache.slabs[2][:, start:stop]  # un-rotated keys
    cache.pending_kv[1, :, p:q] = cache.slabs[1][:, start:stop]
    cache.pending_spans += cache.spans[start:stop]

    used = q // lam * lam
    pending = cache.pending_kv[:, :, :q].reshape(2 * L, q, cache.d_kv)
    if mode == "conv":
        m = window_products(pending, *compressor).astype(cache.dtype, copy=False)
    else:
        # Free summarizer used by the overhead benchmark: the first chunk of
        # each window stands in for the whole window.
        m = pending[:, :used:lam]
    pending_spans = cache.pending_spans
    spans = [(pending_spans[i][0], pending_spans[i + lam - 1][1]) for i in range(0, used, lam)]
    # Long-term keeps the newest LONG_TERM_CAPACITY windows of old || new.
    evicted = max(0, n_long + len(spans) - LONG_TERM_CAPACITY)
    old = min(evicted, n_long)
    cache.dropped_spans += cache.spans[ref:ref + old] + spans[:evicted - old]
    cache._move(ref, ref + old, n_long - old)
    new, spans = slice(evicted - old, None), spans[evicted - old:]
    m_k, m_v, starts = m[:L, new], m[L:, new], [s for s, _ in spans]
    rotated = rope_apply(m_k, starts, cache.freqs, cache._window_angles(spans))
    cache._write(ref + n_long - old, (rotated, m_v, m_k), starts, spans)
    n_long = n_long - old + len(spans)
    cache._move(ref + n_long, stop, keep)
    del cache.spans[ref + n_long + keep:]
    counts.update(long_term=n_long, short_term=keep, current=0)
    if used:
        cache.pending_kv[:, :, :q - used] = cache.pending_kv[:, :, used:q]
        del pending_spans[:used]


def cache_context_view(cache: SegmentedKVCache) -> tuple[ContextKV, list[str]]:
    """The context, reference || long_term || short_term (reference || history unbounded), over the slabs.

    Returns a `ContextKV` whose first n_ctx slab rows are the context and
    whose rows after them are room for the forward's block, plus one segment
    label per context chunk. Its `keys`, `vals` and `positions` are
    read-only. A bounded view is valid until the next roll, an unbounded
    one for as long as it is held.
    """
    n = cache.context_chunks
    positions = cache.positions[:n]
    positions.setflags(write=False)
    labels: list[str] = []
    for name in LAYOUT[:-1]:
        labels += [name] * cache.counts[name]
    return ContextKV(cache.slabs[0], cache.slabs[1], positions, cache.step_tag), labels


def coverage_accounting(cache: SegmentedKVCache) -> dict[str, list[int]]:
    """Raw-chunk ids accounted per location (for the conservation ledger)."""

    def ids_of(spans):
        return [i for s, e in spans if s >= 0 for i in range(s, e)]

    accounts = {name: ids_of(getattr(cache, name).spans)
                for name in ("short_term", "pending", "long_term", "current", "history")}
    return accounts | {"dropped": ids_of(cache.dropped_spans)}


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
