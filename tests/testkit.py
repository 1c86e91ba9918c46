"""Helpers shared by the tests: a scalar reduction for gradient checks, and digests of a cache's segments."""

from __future__ import annotations

import hashlib

import numpy as np

from nfar.convkv import Segment, SegmentedKVCache
from nfar.numerics import Tensor


def sum_all(a) -> Tensor | np.ndarray:
    """The sum of every element of `a`; a scalar tape node when `a` is a Tensor, as the numerics ops do."""
    x = a.data if isinstance(a, Tensor) else np.asarray(a)
    out = np.asarray(x.sum())
    if not isinstance(a, Tensor):
        return out
    return Tensor(out, (a,), lambda g: (np.full(x.shape, g, dtype=x.dtype),))


def segment_digest(seg: Segment) -> str:
    """A hash of everything a segment copy holds: its K/V copies, positions and spans."""
    h = hashlib.sha256()
    for a in (seg.keys, seg.rotated, seg.vals, seg.positions):
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    h.update(repr(seg.spans).encode())
    return h.hexdigest()


def non_current_digest(cache: SegmentedKVCache) -> str:
    """A hash of every segment but the current block."""
    h = hashlib.sha256()
    for name in ("reference", "long_term", "short_term", "pending", "history"):
        h.update(segment_digest(getattr(cache, name)).encode())
    return h.hexdigest()


def snapshot(cache: SegmentedKVCache) -> str:
    """A readable dump of the cache: shapes, position tags, stored copies and digests, per segment."""
    lines = [f"steps={list(cache.steps)} lam={cache.lam} bounded={cache.bounded}"]
    for name in ("reference", "long_term", "short_term", "pending", "current", "history"):
        seg: Segment = getattr(cache, name)
        copies = "+".join(c for c in ("keys", "rotated") if getattr(seg, c) is not None)
        lines.append(
            f"{name}: chunks={seg.n_chunks} positions={seg.positions.tolist()} "
            f"spans={seg.spans} stores={copies} sha256={segment_digest(seg)[:16]}"
        )
    return "\n".join(lines)
