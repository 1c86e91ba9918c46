"""Two-stage optimization: step-aligned AR training, then compressor training.

Stage 1 trains the denoiser with every chunk of a sequence noised at one
shared diffusion step (the step-aligned regime). Stage 2 freezes the
denoiser and trains the KV compressor under the bounded view: every block
attends to what the bounded cache shows it at inference
(`convkv.bounded_view`), its long-term memory computed inline from the
raw chunks it summarizes.

A training step runs its whole batch through one forward, keeps the
frozen weights bare (off the tape) and updates every trainable weight with
one Adam step over a flat buffer that the weights are views into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockPlan
from .convkv import bounded_view
from .model import DenoiserParams, block_causal_mask, chunk_forward, denoiser_forward, tape_leaves, wrap_params
from .numerics import ShapeError, add, grad_of, mean_all, mul, slice2d, sub
from .rng import STREAM_TRAIN, make_rng
from .schedule import noise_forward, velocity_target
from .synthdata import Dataset

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
T_RANGE = (0.02, 0.98)  # training steps t are drawn from this range, stratified over the batch
EVAL_STEPS = (0.1, 0.3, 0.5, 0.7, 0.9)  # evaluate_loss's fixed step grid
SMOOTHING_WINDOW = 50  # points in smoothed's trailing mean


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, history: list):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step
        self.history = history


def _check_loss_inputs(batch, config, sequences, conds, t_shared, eps, plan, bounded, mask_mode,
                       block_choice) -> None:
    if sequences.ndim != 3 or sequences.shape != eps.shape or t_shared.shape != (batch,):
        raise ShapeError(
            f"batch shapes disagree: sequences {sequences.shape}, eps {eps.shape}, t {t_shared.shape}"
        )
    if sequences.shape[1] != plan.total_chunks:
        raise ShapeError(f"sequence length {sequences.shape[1]} != plan chunks {plan.total_chunks}")
    if conds.shape != (batch, config.d_cond):
        raise ShapeError(f"conds shape {conds.shape} != ({batch}, {config.d_cond}): one condition per sequence")
    if mask_mode not in ("causal", "none"):
        raise ValueError(f"unknown mask mode {mask_mode!r}")
    if mask_mode == "causal":
        return
    if bounded:
        raise ValueError("the bounded view needs mask_mode='causal'")
    if block_choice is None:
        raise ValueError("mask_mode='none' needs a block_choice per sequence")
    if block_choice.shape != (batch,):
        raise ShapeError(f"block_choice shape {block_choice.shape} != ({batch},)")
    if not np.issubdtype(block_choice.dtype, np.integer) \
            or not ((block_choice >= 0) & (block_choice < plan.n_blocks)).all():
        raise ValueError(f"block_choice must hold block indices in [0, {plan.n_blocks}), got {block_choice}")


def neighbor_forcing_loss(
    ptensors: dict,
    config,
    sequences: np.ndarray,
    conds: np.ndarray,
    t_shared: np.ndarray,
    eps: np.ndarray,
    plan: BlockPlan,
    bounded: bool = False,
    mask_mode: str = "causal",
    block_choice: np.ndarray | None = None,
):
    """Mean squared velocity error with one shared step per batch element.

    A scalar Tensor on the tape of Tensor weights; a bare NumPy float from bare weights.
    Every element shares the plan, so the whole batch runs as one forward,
    under the block-causal mask, or, ``bounded``, under the bounded cache's
    view with its memory windows convolved inline.

    With ``mask_mode="none"`` each element trains a single block (picked by
    ``block_choice``) under full bidirectional attention — the non-AR
    backbone used by the zero-shot experiment. Elements that picked the
    same block share one forward.
    """
    batch = sequences.shape[0]
    t_shared = np.asarray(t_shared)
    if block_choice is not None:
        block_choice = np.asarray(block_choice)
    _check_loss_inputs(batch, config, sequences, conds, t_shared, eps, plan, bounded, mask_mode, block_choice)
    n_ref = config.n_ref_chunks
    x_t = noise_forward(sequences, t_shared[:, None, None], eps)  # one step for every chunk of an element
    target = velocity_target(sequences, eps)
    if mask_mode == "none":
        groups = [(block_choice == b, plan.chunk_range(b)) for b in np.unique(block_choice)]
    else:
        groups = [(slice(None), (0, plan.total_chunks))]
        chunk_mask = bounded_view(plan, config.compress_ratio) if bounded else block_causal_mask(plan)
    loss = None
    for rows, (s, e) in groups:
        x_ref, chunks = sequences[rows, :n_ref], x_t[rows, s:e]
        if mask_mode == "none":  # the reference attends to the block too, so not chunk_forward's layout
            tokens = np.concatenate([x_ref, chunks], axis=1)
            positions = np.concatenate([np.arange(-n_ref, 0), np.arange(s, e)])
            vel, _ = denoiser_forward(ptensors, config, tokens, positions, t_shared[rows], conds[rows],
                                      np.ones((tokens.shape[1], tokens.shape[1])))
            vel = slice2d(vel, rows=slice(n_ref, None))
        else:
            vel = chunk_forward(ptensors, config, x_ref, chunks, 0, chunk_mask, t_shared, conds)
        diff = sub(vel, target[rows, s:e])
        # Each element's mean counts once: the group's mean over its share of the batch.
        term = mul(mean_all(mul(diff, diff)), chunks.shape[0] / batch)
        loss = term if loss is None else add(loss, term)
    return loss


@dataclass
class TrainConfig:
    total_steps: int
    plan: BlockPlan
    learning_rate: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    mask_mode: str = "causal"         # "causal" or "none" (non-AR backbone)
    lr_schedule: str = "constant"     # "constant" or "cosine" (decay to 0)

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and non-negative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.mask_mode not in ("causal", "none"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


class Adam:
    """Adam over one flat parameter buffer, updated in place.

    The moments are kept undivided by (1 - beta): m = sum_k b1^(t-k) g_k and
    v = sum_k b2^(t-k) g_k^2, which saves a pass per update, and the bias
    corrections fold into scalars. Every pass writes into a buffer allocated
    once, so a step touches no fresh memory.
    """

    def __init__(self, flat: np.ndarray, lr: float, betas: tuple[float, float], eps: float):
        self.flat = flat
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._g = np.empty_like(flat)
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """One update from per-tensor gradients listed in the buffer's order."""
        self.t += 1
        g = np.concatenate(grads, axis=None, out=self._g)
        self.m *= self.b1
        self.m += g
        g *= g
        self.v *= self.b2
        self.v += g
        # lr * mhat / (sqrt(vhat) + eps) with mhat = c1 m, vhat = c2 v
        c1 = (1 - self.b1) / (1 - self.b1 ** self.t)
        root_c2 = math.sqrt((1 - self.b2) / (1 - self.b2 ** self.t))
        np.sqrt(self.v, out=g)
        g += self.eps / root_c2
        np.divide(self.m, g, out=g)
        g *= self.lr * c1 / root_c2
        self.flat -= g


def _flat_views(values: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """Copy the named arrays into one contiguous buffer and make each a view into it."""
    flat = np.concatenate([values[n] for n in names], axis=None)
    offset = 0
    for n in names:
        size = values[n].size
        values[n] = flat[offset:offset + size].reshape(values[n].shape)
        offset += size
    return flat


def _stratified_t(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    # One draw per stratum keeps the per-step gradient spread across steps.
    u = rng.random(n)
    return lo + (hi - lo) * (np.arange(n) + u) / n


def _run_training(
    config: TrainConfig,
    dataset: Dataset,
    params: DenoiserParams,
    trainable: list[str],
    bounded: bool,
) -> tuple[DenoiserParams, list[tuple[int, float, float]]]:
    if dataset.sequences.shape[0] == 0:
        raise ValueError(f"the dataset holds no sequences (shape {dataset.sequences.shape})")
    trained = set(trainable)
    # The flat buffer copies the trained weights, so only the frozen ones are copied here.
    params = DenoiserParams(params.config, {k: a if k in trained else a.copy() for k, a in params.values.items()},
                            dict(params.meta))
    rng = make_rng(config.seed, STREAM_TRAIN)
    opt = Adam(_flat_views(params.values, trainable), config.learning_rate, ADAM_BETAS, ADAM_EPS)
    n_seq, F, d = dataset.sequences.shape
    history: list[tuple[int, float, float]] = []
    for step in range(config.total_steps):
        idx = rng.integers(0, n_seq, size=config.batch_size)
        t_shared = _stratified_t(rng, config.batch_size, *T_RANGE)
        eps = rng.standard_normal((config.batch_size, F, d))
        block_choice = None
        if config.mask_mode == "none":
            block_choice = rng.integers(0, config.plan.n_blocks, size=config.batch_size)
        ptensors = wrap_params(params, trainable)
        loss = neighbor_forcing_loss(
            ptensors,
            params.config,
            dataset.sequences[idx],
            dataset.conditions[idx],
            t_shared,
            eps,
            config.plan,
            bounded=bounded,
            mask_mode=config.mask_mode,
            block_choice=block_choice,
        )
        loss_val = loss.item()
        history.append((step, loss_val, float(t_shared.mean())))
        if not np.isfinite(loss_val):
            raise TrainingDiverged(step, history)
        grads = grad_of(loss, tape_leaves(ptensors, trainable))
        if config.lr_schedule == "cosine":
            opt.lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / config.total_steps))
        opt.step(grads)
    return params, history


def train_stage1(
    config: TrainConfig, dataset: Dataset, init: DenoiserParams
) -> tuple[DenoiserParams, list[tuple[int, float, float]]]:
    """Stage-1 step-aligned AR training of the denoiser weights."""
    params, history = _run_training(config, dataset, init, init.denoiser_names(), False)
    params.meta["stage"] = "1"
    params.meta["mask_mode"] = config.mask_mode
    return params, history


def train_stage2_convkv(
    config: TrainConfig, dataset: Dataset, stage1: DenoiserParams
) -> tuple[DenoiserParams, list[tuple[int, float, float]]]:
    """Stage-2 compressor training under the bounded view; the denoiser is frozen.

    A plan that forms no compression window before its last block is refused.
    """
    if bounded_view(config.plan, stage1.config.compress_ratio).shape[1] == config.plan.total_chunks:
        raise ValueError(f"block plan {config.plan.sizes} forms no compression window of "
                         f"{stage1.config.compress_ratio} chunks before its last block")
    params, history = _run_training(config, dataset, stage1, stage1.compressor_names(), True)
    params.meta["stage"] = "2"
    params.meta.setdefault("mask_mode", "causal")
    return params, history


def evaluate_loss(
    params: DenoiserParams,
    dataset: Dataset,
    plan: BlockPlan,
    seed: int,
    bounded: bool = False,
) -> float:
    """Deterministic held-out loss averaged over the steps EVAL_STEPS."""
    rng = make_rng(seed, STREAM_TRAIN)
    n_seq, F, d = dataset.sequences.shape
    total = 0.0
    for t in EVAL_STEPS:
        eps = rng.standard_normal((n_seq, F, d))
        loss = neighbor_forcing_loss(
            params.values,
            params.config,
            dataset.sequences,
            dataset.conditions,
            np.full(n_seq, t),
            eps,
            plan,
            bounded=bounded,
        )
        total += loss.item()
    return total / len(EVAL_STEPS)


def smoothed(series: list[float]) -> list[float]:
    out = []
    for i in range(len(series)):
        lo = max(0, i - SMOOTHING_WINDOW + 1)
        out.append(float(np.mean(series[lo:i + 1])))
    return out
