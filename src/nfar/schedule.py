"""Diffusion-step coefficient maps, forward noising, and the sampler.

The flow-matching schedule is the straight-line path
``x_t = (1 - t) x0 + t eps``; the generic schedule carries arbitrary
``(alpha_t, sigma_t)`` pairs for the same-step-distance analytics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError
from .rng import STREAM_MONTE_CARLO, make_rng


class FlowSchedule:
    """Pure map t -> (alpha, sigma) = (1 - t, t) on [0, 1]."""

    def coeffs(self, t):
        """(1 - t, t) for a step, or elementwise for an array of steps."""
        if not np.all((0.0 <= t) & (t <= 1.0)):
            raise ValueError(f"t must lie in [0, 1], got {t}")
        return 1.0 - t, t


@dataclass(frozen=True)
class GenericSchedule:
    """Ordered list of steps with per-step (alpha, sigma) coefficients."""

    steps: tuple[float, ...]
    alphas: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.steps) == len(self.alphas) == len(self.sigmas)):
            raise ValueError("steps/alphas/sigmas must have equal lengths")
        if any(s < 0.0 for s in self.sigmas):
            raise ValueError("sigma must be non-negative")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly increasing")

    def coeffs(self, t: float) -> tuple[float, float]:
        idx = self.steps.index(t)
        return self.alphas[idx], self.sigmas[idx]


@dataclass(frozen=True)
class SamplerConfig:
    """Denoising step grid t_T > ... > t_0 = 0."""

    grid: tuple[float, ...]

    def __post_init__(self):
        if len(self.grid) < 2:
            raise ValueError("grid needs at least two points")
        if any(b >= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly decreasing")
        if self.grid[-1] != 0.0:
            raise ValueError("grid must end at t = 0")

    @classmethod
    def uniform(cls, n_steps: int) -> "SamplerConfig":
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        return cls(tuple(k / n_steps for k in range(n_steps, -1, -1)))

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1


def noise_forward(x0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """Forward noising on the flow schedule: alpha_t * x0 + sigma_t * eps.

    `t` may be an array that broadcasts against `x0`, e.g. one step per sequence.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    alpha, sigma = FlowSchedule().coeffs(t)
    return alpha * x0 + sigma * eps


def velocity_target(x0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Flow-matching regression target eps - x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    return eps - x0


def expected_neighbor_distance(alpha: float, sigma: float, d: int, dz0_sq: float) -> float:
    """Closed-form E ||z_t^{f+1} - z_t^f||^2 = alpha^2 * dz0_sq + 2 sigma^2 d."""
    if d < 1:
        raise ValueError(f"latent dim must be >= 1, got {d}")
    if dz0_sq < 0.0:
        raise ValueError(f"squared clean gap must be >= 0, got {dz0_sq}")
    return alpha * alpha * dz0_sq + 2.0 * sigma * sigma * d


def monte_carlo_prop2(
    z0_pair: tuple[np.ndarray, np.ndarray],
    schedule,
    t: float,
    n_samples: int,
    seed: int,
    t_second: float | None = None,
) -> float:
    """Empirical mean of ||z_t^{f+1} - z_t^f||^2 with i.i.d. per-frame noise.

    When ``t_second`` is given, the later frame is noised at that step
    instead (the mismatched-step contrast); otherwise both frames share t.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    za = np.asarray(z0_pair[0], dtype=np.float64)
    zb = np.asarray(z0_pair[1], dtype=np.float64)
    if za.shape != zb.shape or za.ndim != 1:
        raise ShapeError(f"z0 pair must be equal-shape vectors, got {za.shape}, {zb.shape}")
    alpha, sigma = schedule.coeffs(t)
    a2, s2 = schedule.coeffs(t if t_second is None else t_second)
    rng = make_rng(seed, STREAM_MONTE_CARLO)
    d = za.size
    total = 0.0
    remaining = n_samples
    # Chunked so 1e5 samples stay memory-light at any d.
    while remaining > 0:
        n = min(remaining, 20000)
        ea = rng.standard_normal((n, d))
        eb = rng.standard_normal((n, d))
        diff = (a2 * zb + s2 * eb) - (alpha * za + sigma * ea)
        total += float((diff * diff).sum())
        remaining -= n
    return total / n_samples


def euler_integrate(velocity, x_init: np.ndarray, sampler: SamplerConfig) -> np.ndarray:
    """First-order integration of a velocity field down to t = 0.

    ``velocity(x, k)`` returns the velocity (eps - x0 convention) at the
    state ``x`` and grid step ``sampler.grid[k]``, with the shape of ``x``.
    The state keeps the dtype of ``x_init``.
    """
    x = np.asarray(x_init)
    grid = sampler.grid
    for k in range(len(grid) - 1):
        v = np.asarray(velocity(x, k))
        if v.shape != x.shape:
            raise ShapeError(f"velocity shape {v.shape} != state shape {x.shape}")
        x = x + (grid[k + 1] - grid[k]) * v
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite state after step {k} (t={grid[k]} -> {grid[k + 1]})")
    return x
