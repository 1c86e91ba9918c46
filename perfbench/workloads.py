"""The nfar benchmark workloads, driven from outside through the public API.

Four workloads, one per process run:

- ``stream-bounded``: ``generate_stream`` with the conv-compressed bounded
  cache. This is the paper's path: the context stays at 6 chunks, so the
  per-block cost is flat and Python dispatch in the denoiser forward
  dominates; ``cache_roll`` compression is a visible share.
- ``stream-unbounded``: the same inputs with the unbounded cache. The
  context grows by 8 chunks per block, so attention, RoPE re-rotation of
  every context key and the context concatenation dominate, and the roll
  only appends. It bypasses any compression change.
- ``train-stage1``: ``train_stage1`` on the test_10 setup. Tape building,
  the ``grad_of`` walk and Adam do all the work; ``convkv`` and
  ``streaming`` are never called, so it bypasses inference-only changes.
- ``train-stage2``: ``train_stage2_convkv`` from stage-1 weights. The
  inline-memory conv is on the tape and only the compressor is updated, so
  pruning the walk to trainable leaves shows here and not in stage 1.

One unit of work is one generated block (stream) or one training step
(train). Every measured call is checked outside its timed region; a call
that raises or fails its check counts as a failed operation. Times are
reported at a fixed reference machine speed (see ``calibrate``).
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from nfar import io, model, streaming, synthdata, training
from nfar.blocks import BlockPlan
from nfar.convkv import LONG_TERM_CAPACITY, REF_CAPACITY, SHORT_TERM_CAPACITY
from nfar.model import DenoiserConfig
from nfar.schedule import SamplerConfig

from tracing import Tracer

BOUNDED_CONTEXT = REF_CAPACITY + LONG_TERM_CAPACITY + SHORT_TERM_CAPACITY
RECOMPUTE_TOL = 1e-10   # the cached-vs-recompute gate of test_05, unchanged
PARAM_NOISE = 0.05      # perturbs the zero-init heads so rollouts are non-trivial
CAL_REF_S = 55e-6       # calibration seconds per iteration at the reference machine speed


@dataclass(frozen=True)
class Size:
    config: DenoiserConfig = DenoiserConfig()
    blocks: int = 200        # rollout length: test_06's horizon
    sampler_steps: int = 2
    check_blocks: int = 4    # short plan of the cached-vs-recompute check
    setup_reps: int = 15
    sequences: int = 32      # test_10: 32 sequences, plan (6, 8, 8), batch 4
    train_blocks: int = 3
    batch: int = 4
    steps: int = 20          # training steps per measured call
    warm_steps: int = 5      # stage-1 steps that make stage 2's starting weights
    cal_long: int = 1000     # calibration iterations around a measured call (~55 ms)
    cal_short: int = 200     # ... around a one-unit call or a set-up (~11 ms)


FULL = Size()
TOY = Size(config=DenoiserConfig(d_model=16, d_latent=8, d_cond=16, d_ff=16), blocks=6,
           check_blocks=3, setup_reps=3, sequences=4, batch=2, steps=2,
           warm_steps=3, cal_long=40, cal_short=8)


# -- output checks (each returns the list of problems; empty means correct) ----

def check_rollout(values, context_chunks, plan: BlockPlan, bounded: bool, reference=None) -> list[str]:
    problems = []
    if not np.isfinite(values).all():
        problems.append("non-finite latents")
    if len(context_chunks) != plan.n_blocks:
        problems.append(f"{len(context_chunks)} context records for {plan.n_blocks} blocks")
    elif bounded:
        if any(c != BOUNDED_CONTEXT for c in context_chunks[2:]):
            problems.append(f"bounded context left {BOUNDED_CONTEXT} chunks after block 3")
    elif list(context_chunks) != [REF_CAPACITY + s for s in plan.starts]:
        problems.append("unbounded context does not grow by each finished block")
    if reference is not None and not np.array_equal(values, reference[: len(values)]):
        problems.append("latents differ from the same seed's first rollout")
    return problems


def check_recompute(cached, recomputed) -> list[str]:
    err = float(np.abs(np.asarray(cached) - np.asarray(recomputed)).max())
    return [] if err <= RECOMPUTE_TOL else [f"cached vs recompute max diff {err:.3e} > {RECOMPUTE_TOL}"]


def check_training(stage: int, start, params, history, steps: int, reference=None) -> list[str]:
    problems = []
    losses = [h[1] for h in history]
    if len(losses) != steps:
        problems.append(f"{len(losses)} losses for {steps} steps")
    if not np.isfinite(losses).all():
        problems.append("non-finite loss")
    trained, frozen = start.denoiser_names(), start.compressor_names()
    if stage == 2:
        trained, frozen = frozen, trained
    if any(not np.array_equal(params.values[n], start.values[n]) for n in frozen):
        problems.append(f"stage {stage} changed weights it must not train")
    if all(np.array_equal(params.values[n], start.values[n]) for n in trained):
        problems.append(f"stage {stage} left its trainable weights unchanged")
    if reference is not None and losses != reference[: len(losses)]:
        problems.append("losses differ from the same seed's first call")
    return problems


# -- workloads ----------------------------------------------------------------

@dataclass
class State:
    seed: int
    size: Size
    inputs: dict
    reference: object = None          # first correct output, for determinism checks


class Stream:
    unit = "block"
    first_calls = 20   # one-block calls after each rollout

    def __init__(self, bounded: bool):
        self.bounded = bounded

    def setup(self, seed: int, size: Size, workdir: Path) -> tuple[dict, list[str]]:
        """Params built, saved and reloaded, plus reference inputs, as `nfar generate` does."""
        params = model.init_params(size.config, seed=seed)
        rng = np.random.default_rng(seed)
        for name in params.denoiser_names():
            params.values[name] += PARAM_NOISE * rng.standard_normal(params.values[name].shape)
        path = workdir / "model.ckpt"
        io.save_checkpoint(path, params)
        loaded = io.load_checkpoint(path)
        plan = BlockPlan.default(size.blocks)
        dyn = synthdata.LatentDynamics.create(seed, latent_dim=size.config.d_latent)
        u = synthdata.generate_state_path(plan.total_chunks, dyn.delta_u, seed=seed, state_dim=dyn.state_dim)
        _, z0 = synthdata.render_and_encode(dyn, u, dyn.residual_bound, seed=seed + 500_000)
        inputs = {"params": loaded, "x_ref": z0[:2], "cond": synthdata.condition_vector(z0),
                  "plan": plan, "sampler": SamplerConfig.uniform(size.sampler_steps)}
        return inputs, [] if loaded.equal(params) else ["checkpoint round trip changed the weights"]

    def _generate(self, state: State, plan: BlockPlan, bounded: bool):
        i = state.inputs
        return streaming.generate_stream(i["params"], i["x_ref"], i["cond"], plan, i["sampler"],
                                         use_convkv=bounded, seed=state.seed)

    def preflight(self, state: State) -> list[str]:
        """Cached vs full recompute on a short plan; only the unbounded cache has an exact oracle."""
        i = state.inputs
        plan = BlockPlan.default(state.size.check_blocks)
        cached, _ = self._generate(state, plan, bounded=False)
        oracle = streaming.generate_full_recompute(i["params"], i["x_ref"], i["cond"], plan,
                                                   i["sampler"], seed=state.seed)
        return check_recompute(cached.values, oracle.values)

    def warm(self, state: State) -> None:
        self._generate(state, BlockPlan.default(min(10, state.size.blocks)), self.bounded)

    def units(self, state: State) -> int:
        return state.inputs["plan"].n_blocks

    def run(self, state: State):
        return self._generate(state, state.inputs["plan"], self.bounded)

    def check(self, state: State, out) -> list[str]:
        seq, report = out
        return check_rollout(seq.values, report.context_chunks, state.inputs["plan"],
                             self.bounded, state.reference)

    def first(self, state: State):
        return self._generate(state, BlockPlan.default(1), self.bounded)

    def check_first(self, state: State, out) -> list[str]:
        seq, report = out
        return check_rollout(seq.values, report.context_chunks, BlockPlan.default(1),
                             self.bounded, state.reference)

    def reference_of(self, out):
        return out[0].values


class Train:
    unit = "step"
    first_calls = 5    # one-step calls after each measured call

    def __init__(self, stage: int):
        self.stage = stage

    def setup(self, seed: int, size: Size, workdir: Path) -> tuple[dict, list[str]]:
        """The make_dataset build."""
        plan = BlockPlan.default(size.train_blocks)
        dyn = synthdata.LatentDynamics.create(seed, latent_dim=size.config.d_latent)
        dataset = synthdata.make_dataset(dyn, size.sequences, plan.total_chunks, seed=seed)
        config = training.TrainConfig(total_steps=size.steps, plan=plan, batch_size=size.batch, seed=seed)
        ok = np.isfinite(dataset.sequences).all()
        return {"dataset": dataset, "config": config}, [] if ok else ["non-finite dataset"]

    def preflight(self, state: State) -> list[str]:
        """Make the starting weights: init for stage 1, a short stage-1 run for stage 2."""
        i = state.inputs
        start = model.init_params(state.size.config, seed=state.seed)
        if self.stage == 2:
            warm = replace(i["config"], total_steps=state.size.warm_steps)
            start, history = training.train_stage1(warm, i["dataset"], start)
            if not np.isfinite([h[1] for h in history]).all():
                return ["non-finite loss while making the stage-1 weights"]
        i["start"] = start
        return []

    def _train(self, state: State, config):
        i = state.inputs
        fn = training.train_stage1 if self.stage == 1 else training.train_stage2_convkv
        return fn(config, i["dataset"], i["start"])

    def warm(self, state: State) -> None:
        self._train(state, replace(state.inputs["config"], total_steps=2))

    def units(self, state: State) -> int:
        return state.inputs["config"].total_steps

    def run(self, state: State):
        return self._train(state, state.inputs["config"])

    def check(self, state: State, out) -> list[str]:
        params, history = out
        return check_training(self.stage, state.inputs["start"], params, history,
                              self.units(state), state.reference)

    def first(self, state: State):
        return self._train(state, replace(state.inputs["config"], total_steps=1))

    def check_first(self, state: State, out) -> list[str]:
        params, history = out
        return check_training(self.stage, state.inputs["start"], params, history, 1, state.reference)

    def reference_of(self, out):
        return [h[1] for h in out[1]]


WORKLOADS = {
    "stream-bounded": Stream(bounded=True),
    "stream-unbounded": Stream(bounded=False),
    "train-stage1": Train(stage=1),
    "train-stage2": Train(stage=2),
}

END_TO_END = {"unit_ms": "ms", "first_call_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


# -- running ------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += problems
        return not problems


def _call(fn, *args):
    """(seconds, result, problems) of one call; an exception is a problem."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as err:  # a raising operation is a failed operation
        return time.perf_counter() - t0, None, [f"{type(err).__name__}: {err}"]
    return time.perf_counter() - t0, out, []


def _checked(workload, state: State, tally: Tally, first: bool = False, tracer: Tracer | None = None):
    """One timed call, checked after its timer stops: (seconds, output), or Nones if it failed."""
    fn = workload.first if first else workload.run
    if tracer is None:
        dt, out, problems = _call(fn, state)
    else:
        with tracer:
            dt, out, problems = _call(fn, state)
    if not problems:
        problems = (workload.check_first if first else workload.check)(state, out)
    if not tally.record(problems):
        return None, None
    if state.reference is None and not first:
        state.reference = workload.reference_of(out)
    return dt, out


def _prepare(workload, seed: int, size: Size, workdir: Path, tally: Tally, setup_tracer=None):
    """Set up `setup_reps` times, then run the preflight check and a warm-up call.

    Returns the state and each set-up's seconds with the calibration times
    taken before and after it.
    """
    timed, inputs = [], None
    cal = calibrate(size.cal_short)
    for _ in range(size.setup_reps):
        t0 = time.perf_counter()
        if setup_tracer is None:
            inputs, problems = workload.setup(seed, size, workdir)
        else:
            with setup_tracer:
                inputs, problems = workload.setup(seed, size, workdir)
        dt = time.perf_counter() - t0
        tally.record(problems)
        timed.append((dt, cal, cal := calibrate(size.cal_short)))
    state = State(seed=seed, size=size, inputs=inputs)
    for step in (workload.preflight, workload.warm):
        _, problems, errors = _call(step, state)
        tally.record(errors or problems or [])
    return state, timed


class _Box:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


def calibrate(iters: int) -> float:
    """Seconds per iteration of a fixed kernel shaped like nfar's hot path.

    On a shared host this machine's speed changes by up to 2x within
    seconds. nfar's cost is Python dispatch over small numpy ops that stream
    ~1.3 MB of weights, plus some larger vectorized ops. A kernel that mixes
    the two, timed right before and right after each measured call, tracks
    that change. It uses no nfar code, so no change to nfar can move it.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 64))
    rows = rng.standard_normal((192, 64))
    weights = [rng.standard_normal((64, 64)) / 8.0 for _ in range(40)]
    b = np.zeros(64)
    x = _Box(a)
    t0 = time.perf_counter()
    for i in range(iters):
        w = weights[i % 40]
        y = _Box(np.tanh(x.data @ w + b), (x,))
        x = _Box(y.data * 0.5 + a)
        if i % 4 == 0:
            h = np.tanh(rows @ w)
            (h * h).sum(axis=1)
    return (time.perf_counter() - t0) / iters


def highest_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def describe(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    p = highest_percentile(len(samples))
    out = {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3,
           "percentile": p}
    if p is not None:
        out["percentile_value"] = float(np.percentile(samples, p))
    return out


def measure(name: str, seed: int, seconds: float, size: Size, workdir: Path) -> dict:
    """Untraced run: the end-to-end metrics.

    Each time is reported at the reference machine speed: multiplied by
    CAL_REF_S over the mean of the calibration kernel's per-iteration times
    taken just before and just after it. The raw times are in the detail.
    """
    workload = WORKLOADS[name]
    tally = Tally()
    raw = {"unit_ms": [], "first_call_ms": [], "setup_s": []}
    scaled = {"unit_ms": [], "first_call_ms": [], "setup_s": []}
    cals = []

    def record(key, samples, cal_before, cal_after):
        cals.append(cal_after)
        raw[key] += samples
        scaled[key] += [v * 2 * CAL_REF_S / (cal_before + cal_after) for v in samples]

    state, setups = _prepare(workload, seed, size, workdir, tally)
    for dt, before, after in setups:
        record("setup_s", [dt], before, after)
    units = workload.units(state)
    cal = calibrate(size.cal_long)
    deadline = time.perf_counter() + seconds
    while True:
        dt, _ = _checked(workload, state, tally)
        record("unit_ms", [] if dt is None else [dt / units * 1e3], cal, cal := calibrate(size.cal_long))
        for _ in range(workload.first_calls):
            dt, _ = _checked(workload, state, tally, first=True)
            record("first_call_ms", [] if dt is None else [dt * 1e3], cal, cal := calibrate(size.cal_short))
        cal = calibrate(size.cal_long)
        if time.perf_counter() >= deadline:
            break
    values = {k: statistics.median(v) if v else 0.0 for k, v in scaled.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {k: describe(v) for k, v in scaled.items()}
    detail["raw"] = {k: describe(v) for k, v in raw.items()}
    detail["calibration_s_per_iter"] = describe(cals)
    prefix = "block" if workload.unit == "block" else f"stage{workload.stage}_step"
    first_name = "first_block_ms" if workload.unit == "block" else f"first_{prefix}_ms"
    detail["aliases"] = {f"{prefix}_ms": values["unit_ms"], first_name: values["first_call_ms"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"tally": tally, "metrics": metrics, "detail": detail}


# -- traced run ---------------------------------------------------------------

OP_CALLS = ("numerics.matmul", "numerics.add", "numerics.mul", "numerics.concat", "numerics.slice2d",
            "numerics.softmax_rows", "numerics.layer_norm", "numerics.tanh", "numerics.transpose2d",
            "model.rope_apply")

# Per-layer metrics. "/unit" is per generated block (stream) or per training
# step (train), summed over the traced calls and divided by their units.
PER_LAYER = {
    "numerics.op_calls": "count/unit",
    "numerics.tensors_created": "count/unit",
    "numerics.matmul_ms": "ms/unit",
    "numerics.softmax_ms": "ms/unit",
    "numerics.layer_norm_ms": "ms/unit",
    "numerics.backward_ms": "ms/unit",
    "numerics.self_ms": "ms/unit",
    "model.forward_ms": "ms/unit",
    "model.forward_calls": "count/unit",
    "model.context_tokens": "count/unit",
    "model.attn_score_entries": "count/unit",
    "model.rope_ms": "ms/unit",
    "model.time_embed_calls": "count/unit",
    "model.self_ms": "ms/unit",
    "convkv.roll_ms": "ms/unit",
    "convkv.compress_windows": "count/unit",
    "convkv.compress_ms": "ms/unit",
    "convkv.context_view_ms": "ms/unit",
    "convkv.append_ms": "ms/unit",
    "convkv.self_ms": "ms/unit",
    "convkv.context_chunks_last": "count",
    "convkv.context_floats_last": "count",
    "convkv.dropped_chunks": "count",
    "streaming.self_ms": "ms/unit",
    "streaming.block_ms_p50": "ms",
    "streaming.block_ms_p99": "ms",
    "streaming.prefill_ms": "ms/call",
    "training.loss_forward_ms": "ms/unit",
    "training.adam_ms": "ms/unit",
    "training.self_ms": "ms/unit",
    "training.trainable_fraction": "ratio",
    "io.load_checkpoint_ms": "ms/call",
    "io.save_checkpoint_ms": "ms/call",
    "synthdata.make_dataset_ms": "ms/call",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


def trainable_fraction(loss, leaves) -> float:
    """Floats of the requested leaves over floats of every leaf on the tape."""
    seen, stack, on_tape = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.parents:
            stack.extend(node.parents)
        else:
            on_tape += node.data.size
    return sum(leaf.data.size for leaf in leaves) / on_tape


def block_times_ms(tracer: Tracer, calls: int, blocks: int, steps: int) -> np.ndarray:
    """Per-block wall time between successive block-final cache_roll returns.

    Every block ends with one roll per sampler step; the first block of each
    call has no earlier roll and is left out.
    """
    if "convkv.cache_roll" not in tracer.names:
        return np.zeros(0)
    a = tracer.arrays()
    ends = a["end"][a["name"] == tracer.names.index("convkv.cache_roll")]
    if ends.size != calls * blocks * steps:
        return np.zeros(0)
    block_end = ends.reshape(calls, blocks, steps)[:, :, -1]
    return np.diff(block_end, axis=1).ravel() / 1e6


def traced(name: str, seed: int, seconds: float, size: Size, workdir: Path, spans_path: Path) -> dict:
    """Traced run: per-layer metrics, with untraced calls interleaved for the overhead."""
    workload = WORKLOADS[name]
    tally = Tally()
    setup_tracer, tracer = Tracer(), Tracer()
    state, _ = _prepare(workload, seed, size, workdir, tally, setup_tracer)
    units = workload.units(state)
    plain_ms, traced_ms, ratios, calls, last = [], [], [], 0, None
    deadline = time.perf_counter() + seconds
    while True:
        plain, _ = _checked(workload, state, tally)
        traced_s, out = _checked(workload, state, tally, tracer=tracer)
        calls += 1
        if plain is not None and traced_s is not None:
            plain_ms.append(plain / units * 1e3)
            traced_ms.append(traced_s / units * 1e3)
            ratios.append(traced_s / plain)
            last = out
        if time.perf_counter() >= deadline:
            break
    tracer.save(spans_path)

    total = calls * units
    spans = tracer.summary()
    setup = setup_tracer.summary()

    def self_ms(span):
        return spans.get(span, {}).get("self_ms", 0.0) / total

    def incl_ms(span, per=total):
        return spans.get(span, {}).get("incl_ms", 0.0) / per

    def per_call(span):
        entry = setup.get(span)
        return entry["incl_ms"] / entry["calls"] if entry else 0.0

    def count(span):
        return spans.get(span, {}).get("calls", 0) / total

    layer_self = {layer: sum(v["self_ms"] for k, v in spans.items() if k.split(".")[0] == layer) / total
                  for layer in ("numerics", "model", "convkv", "streaming", "training")}
    blocks = block_times_ms(tracer, calls, units, size.sampler_steps) if workload.unit == "block" else np.zeros(0)
    report = last[1] if last is not None and workload.unit == "block" else None
    backward = tracer.first_backward
    values = {
        "numerics.op_calls": sum(spans.get(op, {}).get("calls", 0) for op in OP_CALLS) / total,
        "numerics.tensors_created": tracer.counts["numerics.tensors_created"] / total,
        "numerics.matmul_ms": self_ms("numerics.matmul"),
        "numerics.softmax_ms": self_ms("numerics.softmax_rows"),
        "numerics.layer_norm_ms": self_ms("numerics.layer_norm"),
        "numerics.backward_ms": self_ms("numerics.grad_of"),
        "numerics.self_ms": layer_self["numerics"],
        "model.forward_ms": self_ms("model.denoiser_forward"),
        "model.forward_calls": count("model.denoiser_forward"),
        "model.context_tokens": tracer.counts["model.context_tokens"] / total,
        "model.attn_score_entries": tracer.counts["model.attn_score_entries"] / total,
        "model.rope_ms": self_ms("model.rope_apply"),
        "model.time_embed_calls": count("model.time_embed"),
        "model.self_ms": layer_self["model"],
        "convkv.roll_ms": self_ms("convkv.cache_roll"),
        "convkv.compress_windows": count("convkv.compress_segment"),
        "convkv.compress_ms": self_ms("convkv.compress_segment"),
        "convkv.context_view_ms": self_ms("convkv.cache_context_view"),
        "convkv.append_ms": self_ms("convkv.cache_append"),
        "convkv.self_ms": layer_self["convkv"],
        "convkv.context_chunks_last": report.context_chunks[-1] if report else 0,
        "convkv.context_floats_last": report.context_floats[-1] if report else 0,
        "convkv.dropped_chunks": sum(e - s for s, e in report.dropped_spans) if report else 0,
        "streaming.self_ms": layer_self["streaming"],
        "streaming.block_ms_p50": float(np.percentile(blocks, 50)) if blocks.size else 0.0,
        "streaming.block_ms_p99": float(np.percentile(blocks, 99)) if blocks.size else 0.0,
        "streaming.prefill_ms": incl_ms("streaming._prefill_reference", per=calls),
        "training.loss_forward_ms": incl_ms("training.neighbor_forcing_loss"),
        "training.adam_ms": self_ms("training.Adam.step"),
        "training.self_ms": layer_self["training"],
        "training.trainable_fraction": trainable_fraction(*backward) if backward else 0.0,
        "io.load_checkpoint_ms": per_call("io.load_checkpoint"),
        "io.save_checkpoint_ms": per_call("io.save_checkpoint"),
        "synthdata.make_dataset_ms": per_call("synthdata.make_dataset"),
        "trace.overhead_frac": statistics.median(ratios) - 1.0 if ratios else float("nan"),
        "trace.accounted_frac": (sum(v["self_ms"] for v in spans.values()) / (sum(plain_ms) * units)
                                 - 1.0 if len(plain_ms) == calls else float("nan")),
    }
    detail = {"untraced_unit_ms": describe(plain_ms), "traced_unit_ms": describe(traced_ms),
              "traced_calls": calls, "spans": len(tracer.start), "block_ms_samples": int(blocks.size),
              "spans_file": str(spans_path), "unit": workload.unit}
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}
    return {"tally": tally, "metrics": metrics, "detail": detail}
