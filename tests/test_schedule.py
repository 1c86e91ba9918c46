import numpy as np
import pytest

from nfar.schedule import (
    FlowSchedule,
    GenericSchedule,
    SamplerConfig,
    euler_integrate,
    expected_neighbor_distance,
    monte_carlo_prop2,
    noise_forward,
    velocity_target,
)

RNG = np.random.default_rng(77)


def test_flow_schedule_coeffs():
    sch = FlowSchedule()
    assert sch.coeffs(0.0) == (1.0, 0.0)
    assert sch.coeffs(1.0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        sch.coeffs(1.5)


def test_path_linearity_on_grid():
    x0 = RNG.standard_normal((5, 3))
    eps = RNG.standard_normal((5, 3))
    for t in np.linspace(0.0, 1.0, 11):
        lhs = noise_forward(x0, float(t), eps)
        rhs = x0 + t * (eps - x0)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_velocity_target_is_path_derivative():
    x0 = RNG.standard_normal((4, 2))
    eps = RNG.standard_normal((4, 2))
    h = 1e-6
    deriv = (noise_forward(x0, 0.5 + h, eps) - noise_forward(x0, 0.5 - h, eps)) / (2 * h)
    assert np.abs(deriv - velocity_target(x0, eps)).max() < 1e-8


def test_generic_schedule_validation():
    with pytest.raises(ValueError):
        GenericSchedule(steps=(0.5, 0.2), alphas=(1.0, 1.0), sigmas=(0.0, 0.0))
    with pytest.raises(ValueError):
        GenericSchedule(steps=(0.2,), alphas=(1.0,), sigmas=(-0.1,))


def test_sampler_grid_validation():
    with pytest.raises(ValueError):
        SamplerConfig((1.0, 0.5, 0.6, 0.0))
    with pytest.raises(ValueError):
        SamplerConfig((1.0, 0.5))  # does not end at 0
    s = SamplerConfig.uniform(3)
    assert s.n_steps == 3
    assert s.grid[0] == 1.0 and s.grid[-1] == 0.0


def test_expected_neighbor_distance_degenerate():
    # alpha=1, sigma=0: distance is the clean gap; alpha=0: pure noise floor.
    assert expected_neighbor_distance(1.0, 0.0, 8, 2.5) == 2.5
    assert expected_neighbor_distance(0.0, 1.0, 8, 2.5) == 16.0


def test_monte_carlo_matches_closed_form():
    za = RNG.standard_normal(6)
    zb = za + 0.3 * RNG.standard_normal(6)
    dz0_sq = float(((zb - za) ** 2).sum())
    sch = FlowSchedule()
    for t in (0.25, 0.75):
        alpha, sigma = sch.coeffs(t)
        exact = expected_neighbor_distance(alpha, sigma, 6, dz0_sq)
        est = monte_carlo_prop2((za, zb), sch, t, 50_000, seed=5)
        assert abs(est - exact) / exact < 0.03


def test_monte_carlo_mismatched_step_exceeds_same_step():
    # Noising the two frames at different steps breaks the closeness bound.
    za = RNG.standard_normal(8)
    zb = za + 0.05 * RNG.standard_normal(8)
    sch = FlowSchedule()
    same = monte_carlo_prop2((za, zb), sch, 0.2, 20_000, seed=9)
    mismatched = monte_carlo_prop2((za, zb), sch, 0.2, 20_000, seed=9, t_second=0.9)
    assert mismatched > same


def test_monte_carlo_deterministic_in_seed():
    za, zb = np.zeros(4), np.ones(4)
    sch = FlowSchedule()
    a = monte_carlo_prop2((za, zb), sch, 0.5, 1000, seed=3)
    b = monte_carlo_prop2((za, zb), sch, 0.5, 1000, seed=3)
    assert a == b


def test_euler_exact_field_step_count_invariant():
    # With the exact constant velocity, the endpoint is step-count invariant.
    x0 = RNG.standard_normal((3, 4))
    eps = RNG.standard_normal((3, 4))
    v = eps - x0

    ends = [
        euler_integrate(lambda x, k: v, eps, SamplerConfig.uniform(T))
        for T in (1, 8)
    ]
    assert np.abs(ends[0] - ends[1]).max() < 1e-10
    assert np.abs(ends[0] - x0).max() < 1e-10


def test_euler_keeps_the_state_dtype_and_passes_the_step_index():
    seen = []

    def velocity(x, k):
        seen.append((k, x.dtype))
        return np.ones_like(x)

    out = euler_integrate(velocity, np.zeros((2, 3), dtype=np.float32), SamplerConfig.uniform(3))
    assert out.dtype == np.float32
    assert seen == [(0, np.float32), (1, np.float32), (2, np.float32)]
    assert np.allclose(out, -1.0)


def test_euler_aborts_on_non_finite():
    with pytest.raises(FloatingPointError):
        euler_integrate(lambda x, k: x * np.inf, np.ones((2, 2)), SamplerConfig.uniform(2))
