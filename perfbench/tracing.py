"""Outside-in tracer for the nfar layers.

The tracer wraps the public functions of each layer module where their
callers look them up: ``model`` calls ``matmul`` through its own module
global, so the wrapper is installed in ``nfar.model`` as well as in
``nfar.numerics``. Each wrapped call records one span (name, parent span,
start, end) in flat in-memory arrays; self time and per-name counts are
computed after the traced calls return. Nothing in ``src/`` changes, and
``uninstall`` puts every original object back and verifies that it did.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("numerics", "model", "convkv", "streaming", "training", "io", "synthdata")

# as_tensor/constant run inside every numerics op: wrapping them would double
# the tracing cost, and their time stays in the calling op's self time.
UNWRAPPED = frozenset({"numerics.as_tensor", "numerics.constant"})
# Private functions whose boundary a per-layer metric needs.
EXTRA = frozenset({"streaming._prefill_reference"})
# Methods wrapped on their class: (layer, class, method).
METHODS = (("training", "Adam", "step"),)


def _forward_hook(counts, args, kwargs):
    """Context tokens and attention-score entries of one denoiser_forward."""
    config = args[1]
    mask = args[6] if len(args) > 6 else kwargs["mask"]
    ctx = args[7] if len(args) > 7 else kwargs.get("ctx")
    if ctx is not None:
        counts["model.context_tokens"] += ctx.n_tokens
    counts["model.attn_score_entries"] += config.n_layers * config.n_heads * mask.shape[0] * mask.shape[1]


class Tracer:
    """Spans and counts of every wrapped nfar call made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {"numerics.tensors_created": 0,
                                       "model.context_tokens": 0,
                                       "model.attn_score_entries": 0}
        self.first_backward = None   # (loss, leaves) of the first grad_of call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        code = self._name_index[name]
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        hook = None
        if name == "model.denoiser_forward":
            hook = _forward_hook
        elif name == "numerics.grad_of":
            def hook(_counts, args, kwargs):
                if self.first_backward is None:
                    self.first_backward = (args[0], list(args[1]))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(counts, args, kwargs)
            i = len(start)
            name_of.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.perfbench_traced = True
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "nfar" or n.startswith("nfar.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"nfar.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in EXTRA) and name not in UNWRAPPED):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"nfar.{layer}"], cls_name)
            self._patch(cls, method, self._wrap(vars(cls)[method], f"{layer}.{cls_name}.{method}"))
        tensor = sys.modules["nfar.numerics"].Tensor
        init, counts = tensor.__init__, self.counts

        def counting_init(obj, *args, **kwargs):
            counts["numerics.tensors_created"] += 1
            init(obj, *args, **kwargs)

        counting_init.perfbench_traced = True
        self._patch(tensor, "__init__", counting_init)

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        missed = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches if vars(o)[a] is not orig]
        for name, mod in list(sys.modules.items()):
            if name == "nfar" or name.startswith("nfar."):
                for attr, obj in vars(mod).items():
                    if getattr(obj, "perfbench_traced", False):
                        missed.append(f"{name}.{attr}")
                    elif inspect.isclass(obj) and obj.__module__ == name:
                        missed += [f"{name}.{attr}.{m}" for m, f in vars(obj).items()
                                   if getattr(f, "perfbench_traced", False)]
        if missed:
            raise RuntimeError(f"tracer left wrapped functions behind: {sorted(set(missed))}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time = duration - children's durations."""
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start).astype(np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ms and inclusive ms (inclusive counts
        only outermost spans of the name, so recursion is not double-counted)."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_ms = np.bincount(a["name"], weights=a["self"], minlength=n) / 1e6
        parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)
        outer = parent_name != a["name"]
        incl_ms = np.bincount(a["name"][outer], weights=a["dur"][outer], minlength=n) / 1e6
        return {nm: {"calls": int(calls[i]), "self_ms": float(self_ms[i]), "incl_ms": float(incl_ms[i])}
                for i, nm in enumerate(self.names) if calls[i]}

    def save(self, path) -> None:
        """Write every span (and the name table) to one .npz file."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 start_ns=a["start"], end_ns=a["end"])
