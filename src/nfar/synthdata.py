"""Synthetic latent trajectories with certified smoothness constants.

A low-dimensional state path u is rendered into ambient space through
``g(u) = tanh(A u)`` (tanh has Lipschitz constant 1, so L_g is exactly
the operator norm of A) and encoded back down by a linear map E whose
operator norm L_E is exact. That makes the temporal-neighbor bound
``|z0^{f+1} - z0^f| <= L_E (L_g * delta_u + 2 * eps_r)`` checkable by
brute-force scans with no slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import STREAM_DATA, make_rng

DEFAULT_STATE_DIM = 4
DEFAULT_AMBIENT_DIM = 64
DEFAULT_LATENT_DIM = 16
DEFAULT_DELTA_U = 0.1
DEFAULT_RESIDUAL_BOUND = 0.01


@dataclass(frozen=True)
class LatentDynamics:
    """Rendering/encoding maps plus the certified constants they induce."""

    render_weight: np.ndarray      # (D, m)
    encoder: np.ndarray            # (d, D)
    delta_u: float
    residual_bound: float
    lipschitz_render: float = field(init=False, default=0.0)
    lipschitz_encoder: float = field(init=False, default=0.0)

    def __post_init__(self):
        D, m = self.render_weight.shape
        d = self.encoder.shape[0]
        if not m < d < D:
            raise ValueError(f"need state dim < latent dim < ambient dim, got {m}, {d}, {D}")
        if self.encoder.shape[1] != D:
            raise ValueError(f"encoder shape {self.encoder.shape} incompatible with ambient dim {D}")
        if not all(np.isfinite(b) and b >= 0 for b in (self.delta_u, self.residual_bound)):
            raise ValueError(f"delta_u and residual_bound must be finite and non-negative, "
                             f"got {self.delta_u} and {self.residual_bound}")
        # tanh is 1-Lipschitz, so both constants are plain operator norms.
        object.__setattr__(self, "lipschitz_render", float(np.linalg.norm(self.render_weight, 2)))
        object.__setattr__(self, "lipschitz_encoder", float(np.linalg.norm(self.encoder, 2)))

    @property
    def state_dim(self) -> int:
        return self.render_weight.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.render_weight.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.encoder.shape[0]

    @property
    def neighbor_bound(self) -> float:
        """Certified bound on consecutive clean-latent gaps."""
        return self.lipschitz_encoder * (
            self.lipschitz_render * self.delta_u + 2.0 * self.residual_bound
        )

    def render(self, u: np.ndarray) -> np.ndarray:
        return np.tanh(u @ self.render_weight.T)

    def encode(self, x: np.ndarray) -> np.ndarray:
        return x @ self.encoder.T

    @classmethod
    def create(
        cls,
        seed: int,
        latent_dim: int = DEFAULT_LATENT_DIM,
        delta_u: float = DEFAULT_DELTA_U,
        residual_bound: float = DEFAULT_RESIDUAL_BOUND,
    ) -> "LatentDynamics":
        rng = make_rng(seed, STREAM_DATA)
        A = rng.standard_normal((DEFAULT_AMBIENT_DIM, DEFAULT_STATE_DIM)) * (1.0 / np.sqrt(DEFAULT_STATE_DIM))
        E = rng.standard_normal((latent_dim, DEFAULT_AMBIENT_DIM))
        E = E * (4.0 / np.linalg.norm(E, 2))  # the encoder's spectral norm is 4
        return cls(render_weight=A, encoder=E, delta_u=delta_u, residual_bound=residual_bound)


@dataclass(frozen=True)
class LatentSequence:
    """A length-F sequence of d-dimensional latent chunks."""

    values: np.ndarray  # (F, d)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError(f"latent sequence must be (F>=1, d), got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("latent sequence contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.values.shape[1]


def generate_state_path(F: int, delta_u: float, seed: int, state_dim: int = DEFAULT_STATE_DIM) -> np.ndarray:
    """Random walk whose every step norm is <= delta_u (exactly, by rescaling)."""
    if F < 2:
        raise ValueError(f"need at least 2 frames, got {F}")
    if delta_u < 0:
        raise ValueError(f"delta_u must be >= 0, got {delta_u}")
    rng = make_rng(seed, STREAM_DATA)
    u = np.empty((F, state_dim))
    u[0] = rng.standard_normal(state_dim)
    steps = rng.standard_normal((F - 1, state_dim)) * (delta_u / max(np.sqrt(state_dim), 1.0))
    norms = np.linalg.norm(steps, axis=1)
    over = norms > delta_u
    if delta_u == 0.0:
        steps[:] = 0.0
    elif over.any():
        steps[over] *= (delta_u / norms[over])[:, None]
    u[1:] = u[0] + np.cumsum(steps, axis=0)
    return u


def render_and_encode(
    dyn: LatentDynamics,
    u_path: np.ndarray,
    residual_scale: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ambient frames x^f = g(u^f) + r^f and their clean latents z0^f = E(x^f)."""
    if residual_scale > dyn.residual_bound:
        raise ValueError(
            f"residual scale {residual_scale} exceeds the certified bound {dyn.residual_bound}"
        )
    rng = make_rng(seed, STREAM_DATA)
    F = u_path.shape[0]
    x = dyn.render(u_path)
    if residual_scale > 0.0:
        r = rng.standard_normal((F, dyn.ambient_dim))
        norms = np.linalg.norm(r, axis=1, keepdims=True)
        r = r / norms * residual_scale  # every residual sits on the eps_r sphere or below
        x = x + r
    z0 = dyn.encode(x)
    return x, z0


@dataclass(frozen=True)
class NeighborBoundReport:
    max_gap: float
    bound: float
    holds: bool
    tightness: float  # max_gap / bound (inf when bound == 0 and max_gap > 0)
    n_frames: int


def check_prop1(dyn: LatentDynamics, z0_path: np.ndarray, u_path: np.ndarray) -> NeighborBoundReport:
    """Scan every consecutive latent gap against the certified bound."""
    gaps = np.linalg.norm(np.diff(z0_path, axis=0), axis=1)
    max_gap = float(gaps.max()) if gaps.size else 0.0
    bound = dyn.neighbor_bound
    if bound > 0:
        tightness = max_gap / bound
    else:
        tightness = 0.0 if max_gap == 0.0 else float("inf")
    return NeighborBoundReport(
        max_gap=max_gap,
        bound=bound,
        holds=bool(max_gap <= bound + 1e-12),
        tightness=tightness,
        n_frames=z0_path.shape[0],
    )


@dataclass(frozen=True)
class Dataset:
    """Latent sequences plus per-sequence condition vectors."""

    sequences: np.ndarray   # (n, F, d)
    conditions: np.ndarray  # (n, 2 * d)
    dynamics: LatentDynamics


def condition_vector(z0: np.ndarray) -> np.ndarray:
    """Deterministic condition embedding: sequence-mean latent + first latent.

    Plays the role of the driving (audio/text) signal: informative about the
    whole trajectory, fixed dimension 2*d.
    """
    return np.concatenate([z0.mean(axis=0), z0[0]])


def make_dataset(dyn: LatentDynamics, n_sequences: int, F: int, seed: int) -> Dataset:
    """Reproducible dataset of noisy-rendered latent trajectories."""
    if n_sequences < 0:
        raise ValueError("n_sequences must be >= 0")
    d = dyn.latent_dim
    seqs = np.zeros((n_sequences, F, d))
    conds = np.zeros((n_sequences, 2 * d))
    for i in range(n_sequences):
        u = generate_state_path(F, dyn.delta_u, seed=seed * 1_000_003 + i, state_dim=dyn.state_dim)
        _, z0 = render_and_encode(dyn, u, dyn.residual_bound, seed=seed * 1_000_003 + i + 500_000)
        seqs[i] = z0
        conds[i] = condition_vector(z0)
    return Dataset(sequences=seqs, conditions=conds, dynamics=dyn)
