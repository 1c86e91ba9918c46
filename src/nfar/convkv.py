"""Bounded-memory segmented KV cache with convolutional compression.

One cache holds every sampler step's K/V under one ledger: step k reads
only what step k produced, and nothing else differs between the steps. Its
slabs are (n_layers, T, rows, d_kv), step k's rows at [:, k] as a `BlockKV`
carries them: rotated keys, values and, bounded only, the un-rotated keys
the compressor reads. An unbounded cache stores its rotated keys
transposed, allocated as (n_layers, T, d_kv, rows) and held as its
swapaxes view, so attention's score product over the growing context
reads each dimension's keys as one contiguous row. One block of room
follows the filled rows:

- bounded: fixed slots reference (2 chunks) | long_term (2 compressed) |
  short_term (2 raw) | current block, packed with no gaps and allocated
  with the cache, plus a pending buffer of evicted raw chunks waiting to
  fill a compression window;
- unbounded: reference | history | current block, in slabs that double
  whenever less than one block of room is left.

A context view hands step k's forward its slabs and the context length;
the forward writes its block's K/V into the room, once, attends over the
slice and returns views of the rows it wrote, and `cache_append` records
the block there without copying them again, the steps in order. One roll
per block then moves every step's rows. An unbounded roll only advances
the fill mark, so an unbounded view is valid for as long as it is held
(rows are written only past it; a doubling copies into new slabs); a
bounded roll shifts at most four slot rows in place, so a bounded view is
valid until the next roll.

Each key is rotated once, where it is computed, and keeps its position: a
raw chunk its own, a compressed chunk the start of the window it
summarizes (the positional reset, exactly). A roll compresses every full
window of pending, all layers, steps and K/V at once, with
numerics.window_products, the kernel stage-2 training's conv1d_strided
runs: each kernel's windows of every step go through GEMMs of exactly
WINDOW_ROWS rows, so a compressed chunk equals its training-time memory
token bit for bit. The roll rotates the new long-term chunks at their
window starts.

Chunks move FIFO, so raw-chunk ids run dropped | long_term | pending |
short_term | current (history | current unbounded), and `counts`,
`next_chunk_id` and the rows' positions are the whole ledger: a raw row at
position p covers chunk p, a long-term row the window [p, p + lam). After a
roll with N chunks whose last block had n, short-term holds s = min(2, n),
W = (N - s) // lam windows have formed, long-term holds min(W, 2) of them,
pending N - s - lam*W chunks, and lam*(W - min(W, 2)) ids are dropped.
`bounded_view` applies this closed form to every block of a plan: the
chunk-level mask of what each block sees through the cache, which stage-2
training and the bounded full-recompute oracle attend under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPlan
from .model import REF_CAPACITY, BlockKV, ContextKV, RopeFrequencies, rope_angles
from .numerics import rotate_pairs, window_products

LONG_TERM_CAPACITY = 2
SHORT_TERM_CAPACITY = 2
COMPRESSION_MODES = ("conv", "subsample")  # learned window conv, or each window's first chunk
LAYOUT = ("reference", "long_term", "short_term", "history", "current")  # slab segments in row order
RUNS = ("long_term", "pending", "short_term", "history", "current")  # chunk-id runs in id order, after dropped


class CacheStepError(ValueError):
    """A step appended, rolled or read out of order, or a step index past the cache's steps."""


@dataclass(slots=True)
class Segment:
    """A copy of a segment's chunks, (n_layers, T, n_chunks, d_kv), with position tags and raw-chunk coverage.

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
        return self.vals.shape[-2]


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """A copy of `a` with `rows` rows on its row axis (the next-to-last one, or the only one), laid out in
    memory as `a` is."""
    axis = max(a.ndim - 2, 0)
    out = np.empty_like(a, shape=a.shape[:axis] + (rows,) + a.shape[axis + 1:])
    out[(slice(None),) * axis + (slice(0, a.shape[axis]),)] = a
    return out


class SegmentedKVCache:
    """The T `steps`' K/V: the slabs with per-row positions, and pending, under one ledger.

    `slabs` holds rotated keys, values and (bounded only) un-rotated keys,
    each (n_layers, T, rows, d_kv); `counts` holds each LAYOUT segment's
    rows and pending's chunks, and `appended` the steps that have stored
    the current block. `pending_kv` stacks un-rotated keys and values,
    (2, n_layers, T, rows, d_kv): reshaped, the compressor's input.
    `cache.<segment>` (a LAYOUT name or "pending") copies the segment's rows
    into a `Segment`, with the spans the ledger derives.
    """

    def __init__(self, n_layers: int, d_kv: int, steps, freqs: RopeFrequencies, lam: int,
                 bounded: bool, dtype, block_rows: int):
        self.n_layers, self.d_kv, self.steps, self.freqs = n_layers, d_kv, tuple(map(float, steps)), freqs
        self.lam, self.bounded, self.dtype, self.block_rows = lam, bounded, dtype, block_rows
        self.counts = dict.fromkeys(LAYOUT + ("pending",), 0)
        self.next_chunk_id = 0  # raw chunk i sits at position i
        self.appended = 0
        rows, n_steps = REF_CAPACITY + LONG_TERM_CAPACITY + SHORT_TERM_CAPACITY + block_rows, len(self.steps)
        # One array per slab: stacked, the unbounded slabs raised perfbench's peak RSS by ~3 MB. Unbounded,
        # the rotated keys are stored rows last, so the score product over the growing context reads each
        # dimension's keys as one contiguous row. Bounded, the context stays at most 14 rows and every roll
        # moves slot rows, which that layout makes 3-4x slower: there they stay rows first.
        shape = (n_layers, n_steps, rows, d_kv)
        rotated = np.empty(shape, dtype) if bounded else np.empty(shape[:2] + (d_kv, rows), dtype).swapaxes(-1, -2)
        self.slabs = [rotated, *(np.empty(shape, dtype) for _ in range(2 if bounded else 1))]
        self.positions = np.empty(rows)
        # Room for lam - 1 leftovers and a whole slab.
        self.pending_kv = np.empty((2, n_layers, n_steps, rows + lam if bounded else 0, d_kv), dtype=dtype)

    @property
    def context_chunks(self) -> int:
        """Non-current chunks visible to attention: the filled rows before the current block."""
        return sum(self.counts[name] for name in LAYOUT[:-1])

    def run_start(self, name: str) -> int:
        """The first raw-chunk id of `name`'s run (a RUNS name; "dropped" starts at 0)."""
        later = RUNS[RUNS.index(name):]
        return self.next_chunk_id - sum(self.counts[n] * (self.lam if n == "long_term" else 1) for n in later)

    @property
    def dropped_spans(self) -> list[tuple[int, int]]:
        """The windows evicted from long-term memory, oldest first: every window before the first kept one."""
        return [(s, s + self.lam) for s in range(0, self.run_start("long_term"), self.lam)]

    def context_floats(self) -> int:
        """Floats attention reads from the context: its keys and values, one copy of each."""
        return 2 * self.n_layers * self.context_chunks * self.d_kv

    @property
    def kv_bytes(self) -> int:
        """Bytes of the K/V arrays the cache owns: its slabs and pending."""
        return sum(a.nbytes for a in self.slabs) + self.pending_kv.nbytes

    def __getattr__(self, name: str) -> Segment:
        if name == "pending":
            n, first = self.counts["pending"], self.run_start("pending")
            keys, vals = self.pending_kv[..., :n, :].copy()
            return Segment(keys, vals, np.arange(first, first + n, dtype=np.float64),
                           [(i, i + 1) for i in range(first, first + n)], None)
        if name not in LAYOUT:
            raise AttributeError(name)
        start = sum(self.counts[seg] for seg in LAYOUT[:LAYOUT.index(name)])
        rows = slice(start, start + self.counts[name])
        rotated, vals, *keys = (slab[..., rows, :].copy() for slab in self.slabs)
        positions = self.positions[rows].copy()
        width = self.lam if name == "long_term" else 1
        spans = [(-1, -1) if name == "reference" else (int(p), int(p) + width) for p in positions]
        return Segment(keys[0] if keys else None, vals, positions, spans, rotated)

    def _reserve(self, stop: int) -> None:
        """Slab rows up to `stop`: the capacity doubles, one slab at a time, until they fit, pending's with it."""
        rows = self.positions.size
        if stop <= rows:
            return
        rows = max(2 * rows, stop)
        for i in range(len(self.slabs)):
            self.slabs[i] = _grown(self.slabs[i], rows)
        self.positions = _grown(self.positions, rows)
        if self.bounded:
            self.pending_kv = _grown(self.pending_kv, rows + self.lam)

    def _write(self, start: int, parts, positions, step=slice(None)) -> None:
        """Slab rows [start, start + len(positions)) of `step` (default: all) set to chunks of `parts`
        (rotated keys, values, keys; an unbounded cache ignores the keys). A part that is a view of its
        own destination rows, as a forward given a context view returns them, is not copied: NumPy skips
        assigning an array onto itself."""
        rows = slice(start, start + len(positions))
        for slab, part in zip(self.slabs, parts):
            slab[:, step, rows] = part
        self.positions[rows] = positions


def new_cache(n_layers: int, d_kv: int, steps, freqs: RopeFrequencies, lam: int = 5,
              bounded: bool = True, dtype=np.float64, block_rows: int = 8) -> SegmentedKVCache:
    """An empty cache for the T sampler `steps` (floats), with room for blocks of `block_rows` chunks (a
    larger block doubles the slabs at its append), that rotates its compressed windows by `freqs`."""
    if d_kv % (2 * freqs.freqs.size) != 0:
        raise ValueError(f"d_kv {d_kv} does not split into rotary groups of {2 * freqs.freqs.size}")
    return SegmentedKVCache(n_layers, d_kv, steps, freqs, lam, bounded, dtype, block_rows)


def set_reference(cache: SegmentedKVCache, kv: BlockKV, positions) -> None:
    """Install every step's reference-image K/V, (n_layers, T, REF_CAPACITY, d_kv), in the slabs' first
    rows, before any chunk is stored."""
    if kv.vals.shape[1:-1] != (len(cache.steps), REF_CAPACITY):
        raise ValueError(f"reference K/V {kv.vals.shape} is not {REF_CAPACITY} chunks of {len(cache.steps)} steps")
    if cache.next_chunk_id:
        raise ValueError("a cache takes its reference before any chunk is stored")
    cache._write(0, (kv.rotated, kv.vals, kv.keys), positions)
    cache.counts["reference"] = REF_CAPACITY


def cache_append(cache: SegmentedKVCache, kv: BlockKV, positions, k: int) -> None:
    """Store step k's K/V of a freshly computed block in the rows after the filled ones, as current chunks.

    Steps 0 to T - 1 append the same positions in order, then the cache
    rolls; step 0's append advances the ledger. A forward given step k's
    context view has written the block's K/V there already and returns
    views of those rows, which are not copied again. Append-only: no row
    before the block is written; if the block does not fit, the slabs double
    (and copy the block's K/V from where they are).
    """
    if k != cache.appended or k >= len(cache.steps):
        raise CacheStepError(f"append at step {k} after {cache.appended} of {len(cache.steps)} steps appended")
    n, stop = kv.vals.shape[1], cache.next_chunk_id
    expected = np.arange(stop, stop + n) if k == 0 else np.arange(stop - cache.counts["current"], stop)
    if not np.array_equal(positions, expected):
        raise ValueError(f"positions {list(positions)} are not the block's {expected.tolist()}")
    if k == 0:
        cache._reserve(cache.context_chunks + n)
        cache.counts["current"] = n
        cache.next_chunk_id += n
    cache._write(cache.context_chunks, (kv.rotated, kv.vals, kv.keys), positions, k)
    cache.appended += 1


def cache_roll(cache: SegmentedKVCache, compressor=None, mode: str = "conv") -> None:
    """Finalize the current block and re-establish the bounded layout, in place, for every step at once.

    Every step must have appended the block. `compressor` is (W (2*n_layers,
    lam, d, d), b (2*n_layers, d)), key layers then value layers, as the
    params hold them. The last two chunks of the finalized block become
    short-term memory; displaced short-term chunks and the block's earlier
    chunks join the pending buffer; every full lam-window in pending is
    compressed into long-term memory (FIFO-evicted beyond capacity), its
    keys rotated here, once, at the window start. Unbounded, the whole block
    joins the history, and the slabs keep room for one more block.
    """
    if cache.appended != len(cache.steps):
        raise CacheStepError(f"roll after {cache.appended} of {len(cache.steps)} steps appended the block")
    counts = cache.counts
    if not cache.bounded:
        counts["history"] += counts["current"]
        counts["current"] = cache.appended = 0
        cache._reserve(cache.context_chunks + cache.block_rows)
        return
    if mode not in COMPRESSION_MODES:
        raise ValueError(f"unknown compression mode {mode!r}")
    if mode == "conv" and (compressor is None or compressor[0].shape[-3] != cache.lam):
        raise ValueError(f"conv mode requires compressor weights of kernel length {cache.lam}")
    ref, n_long, lam, L = counts["reference"], counts["long_term"], cache.lam, cache.n_layers
    keep = min(SHORT_TERM_CAPACITY, counts["current"])
    first = cache.run_start("pending")  # a multiple of lam: window k of pending starts at first + k * lam
    # Chronological order: pending < displaced short-term < evicted current, slab rows [start, stop).
    start, stop = ref + n_long, cache.context_chunks + counts["current"] - keep
    p, q = counts["pending"], counts["pending"] + stop - start
    cache.pending_kv[0, ..., p:q, :] = cache.slabs[2][..., start:stop, :]  # un-rotated keys
    cache.pending_kv[1, ..., p:q, :] = cache.slabs[1][..., start:stop, :]

    used = q // lam * lam
    pending = cache.pending_kv[..., :q, :].reshape(2 * L, len(cache.steps), q, cache.d_kv)
    if mode == "conv":
        # Each window is a row of a fixed-shape product, so a step's bits are those of a one-step cache.
        w, b = compressor
        m = window_products(pending, w[:, None], b[:, None]).astype(cache.dtype, copy=False)
    else:
        # Free summarizer used by the overhead benchmark: the first chunk of
        # each window stands in for the whole window.
        m = pending[..., :used:lam, :]
    # Long-term keeps the newest LONG_TERM_CAPACITY windows of old || new; the rest are dropped. In every slab,
    # and in positions, the kept old windows shift down, the new ones follow them, then the kept chunks.
    evicted = max(0, n_long + used // lam - LONG_TERM_CAPACITY)
    old = min(evicted, n_long)
    new = slice(evicted - old, None)
    m_k, m_v, starts = m[:L, :, new], m[L:, :, new], np.arange(first + (evicted - old) * lam, first + used, lam)
    kept, top = slice(ref + old, ref + n_long), ref + n_long - old  # top: the first new window's row
    n_long = n_long - old + starts.size
    rows, short = slice(top, ref + n_long), slice(ref + n_long, ref + n_long + keep)
    parts = rotate_pairs(m_k, *rope_angles(starts, cache.freqs, cache.dtype)), m_v, m_k
    for slab, part in zip(cache.slabs, parts):
        slab[..., ref:top, :] = slab[..., kept, :]
        slab[..., rows, :] = part
        slab[..., short, :] = slab[..., stop:stop + keep, :]
    p = cache.positions
    p[ref:top], p[rows], p[short] = p[kept], starts, p[stop:stop + keep]
    counts.update(long_term=n_long, short_term=keep, current=0, pending=q - used)
    cache.appended = 0
    if used:
        cache.pending_kv[..., :q - used, :] = cache.pending_kv[..., used:q, :]


def bounded_view(plan: BlockPlan, lam: int) -> np.ndarray:
    """What each block of `plan` sees through a bounded cache of window `lam`, as a chunk-level (F, F + W) mask.

    Column F + w is memory window w, the raw chunks [lam*w, lam*w + lam), and W
    the windows formed before the last block. By the closed form above, a
    block after N chunks, whose previous block had n, sees its own block, the
    short-term chunks [N - s, N) with s = min(SHORT_TERM_CAPACITY, n), and the
    newest min(W_b, LONG_TERM_CAPACITY) of the W_b = (N - s) // lam windows
    formed; pending and dropped chunks are hidden. The reference, which every
    block sees, is left to `model.chunk_forward`.
    """

    def first_short_term(b: int) -> int:
        return plan.starts[b] - (min(SHORT_TERM_CAPACITY, plan.sizes[b - 1]) if b else 0)

    F = plan.total_chunks
    mask = np.zeros((F, F + first_short_term(plan.n_blocks - 1) // lam))  # N - s never falls from block to block
    for b in range(plan.n_blocks):
        (start, end), first = plan.chunk_range(b), first_short_term(b)
        windows = first // lam
        mask[start:end, first:end] = 1.0
        mask[start:end, F + max(0, windows - LONG_TERM_CAPACITY):F + windows] = 1.0
    return mask


def cache_context_view(cache: SegmentedKVCache, k: int) -> ContextKV:
    """Step k's context, reference || long_term || short_term (reference || history unbounded), over the
    slabs, tagged with steps[k].

    Returns a `ContextKV` whose first n_ctx slab rows are the context and
    whose rows after them are room for the forward's block; context row i
    belongs to the LAYOUT segment whose `counts` cover it. Its `keys`,
    `vals` and `positions` are read-only. A bounded view is valid until the
    next roll, an unbounded one for as long as it is held.
    """
    if not 0 <= k < len(cache.steps):
        raise CacheStepError(f"step {k} of a cache of {len(cache.steps)} steps")
    positions = cache.positions[:cache.context_chunks]
    positions.setflags(write=False)
    slabs = cache.slabs
    unrotated = slabs[2][:, k] if cache.bounded else None
    return ContextKV(slabs[0][:, k], slabs[1][:, k], positions, cache.steps[k], unrotated)


def coverage_accounting(cache: SegmentedKVCache) -> dict[str, list[int]]:
    """Raw-chunk ids accounted per location (for the conservation ledger)."""

    def ids_of(spans):
        return [i for s, e in spans if s >= 0 for i in range(s, e)]

    accounts = {name: ids_of(getattr(cache, name).spans)
                for name in ("short_term", "pending", "long_term", "current", "history")}
    return accounts | {"dropped": ids_of(cache.dropped_spans)}

