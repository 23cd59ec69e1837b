"""Value-type construction and validation rules."""

import numpy as np
import pytest

from varid import DiscreteState, ParameterVector, TimeGrid, Trajectory


def test_time_grid_samples_and_duration():
    grid = TimeGrid(t0=0.5, dt=0.01, steps=100)
    times = grid.times()
    assert times.shape == (101,)
    assert times[0] == 0.5
    assert grid.t(100) == pytest.approx(1.5, abs=1e-12)
    assert grid.duration == pytest.approx(1.0, abs=1e-12)
    # uniform spacing to round-off
    assert np.max(np.abs(np.diff(times) - 0.01)) < 1e-12


def test_time_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.0, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=-0.1, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.1, steps=0)


def test_discrete_state_shapes():
    s = DiscreteState(q=[1.0, 2.0], p=[0.1, 0.2], lam=[3.0])
    assert s.n_q == 2
    assert s.lam.shape == (1,)
    with pytest.raises(ValueError):
        DiscreteState(q=[1.0, 2.0], p=[0.1])


def test_discrete_state_arrays_frozen():
    s = DiscreteState(q=[1.0], p=[2.0], lam=[])
    with pytest.raises(ValueError):
        s.q[0] = 9.0


def test_parameter_vector_positive_floor():
    rho = ParameterVector.positive([2.0, 1e-6], floor=1e-6)
    assert rho.values[0] == 2.0
    assert rho.n == 2
    assert np.all(rho.lower_bounds == 1e-6)
    # infeasible construction is rejected, not silently repaired
    with pytest.raises(ValueError):
        ParameterVector.positive([2.0, -1.0], floor=1e-6)


def test_parameter_vector_clamp_idempotent():
    rho = ParameterVector.positive([0.5, 3.0], floor=1e-3)
    again = rho.clamped(rho.values)
    assert np.array_equal(again.values, rho.values)
    pushed = rho.clamped([-5.0, 4.0])
    assert pushed.values[0] == 1e-3
    assert pushed.values[1] == 4.0


def test_trajectory_accessors():
    grid = TimeGrid(t0=0.0, dt=0.1, steps=2)
    states = [
        DiscreteState([float(k)], [2.0 * k], [0.5 * k]) for k in range(3)
    ]
    traj = Trajectory(grid=grid, states=tuple(states))
    assert len(traj) == 3
    assert traj.n_q == 1
    assert np.array_equal(traj.q_array(), [[0.0], [1.0], [2.0]])
    assert np.array_equal(traj.p_array(), [[0.0], [2.0], [4.0]])
    assert np.array_equal(traj.lambda_array(), [[0.0], [0.5], [1.0]])


def test_trajectory_length_must_match_grid():
    grid = TimeGrid(t0=0.0, dt=0.1, steps=3)
    states = tuple(DiscreteState([0.0], [0.0], []) for _ in range(3))
    with pytest.raises(ValueError):
        Trajectory(grid=grid, states=states)
