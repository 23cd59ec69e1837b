"""Implicit stepping, rollouts, conservation behavior, and trajectory I/O."""

import math

import numpy as np
import pytest

from varid import (
    ChainModel,
    DiscreteState,
    InfeasibleStartError,
    IngestionError,
    NewtonConvergenceError,
    PendulumModel,
    SingularKKTError,
    SolverSettings,
    TimeGrid,
    constraint_residuals,
    continuous_oracle,
    discrete_energy,
    project_to_constraint,
    read_trajectory_csv,
    rollout,
    simulate,
    step,
    trajectory_energies,
    write_trajectory_csv,
    write_trajectory_json,
)

from conftest import TIGHT, DegenerateMassModel, FreeParticle, RedundantConstraintModel


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)
    with pytest.raises(ValueError):
        SolverSettings(predictor="clairvoyant")


def test_free_particle_is_exact():
    model = FreeParticle(mass=1.4)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=100)
    v0 = np.array([1.0, -2.0])
    traj = simulate(model, [0.0, 0.0], v0, np.zeros(0), grid, TIGHT)
    for k, s in enumerate(traj.states):
        assert np.allclose(s.q, grid.t(k) * v0, atol=1e-13)
        assert np.allclose(s.p, 1.4 * v0, atol=1e-13)


def test_cyclic_momentum_is_conserved():
    """Rotating the whole chain is a Lagrangian symmetry with no gravity or
    springs, so the first joint momentum is a discrete invariant."""
    chain = ChainModel(
        link_lengths=[0.4, 0.3, 0.2],
        link_masses=[0.5, 0.3, 0.2],
        gravity=0.0,
    )
    grid = TimeGrid(t0=0.0, dt=0.01, steps=1000)
    traj = simulate(chain, [0.2, -0.4, 0.7], [0.5, 0.3, -0.2], np.zeros(0), grid, TIGHT)
    p0_series = traj.p_array()[:, 0]
    assert np.max(np.abs(p0_series - p0_series[0])) < 1e-12


def test_order_two_convergence_against_oracle():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81)
    rho = np.zeros(0)
    q0, v0 = np.array([0.1]), np.array([0.0])
    _, q_ref, _ = continuous_oracle(model, q0, v0, rho, duration=1.0, steps=100000)

    def max_error(dt):
        steps = round(1.0 / dt)
        grid = TimeGrid(t0=0.0, dt=dt, steps=steps)
        traj = simulate(model, q0, v0, rho, grid, TIGHT)
        stride = 100000 // steps
        return float(np.max(np.abs(traj.q_array()[:, 0] - q_ref[::stride, 0])))

    e1, e2 = max_error(0.01), max_error(0.005)
    assert 3.5 < e1 / e2 < 4.5


def test_energy_band_and_trend_unforced_pendulum():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=20000)
    traj = simulate(model, [0.5], [0.0], np.zeros(0), grid)
    e = trajectory_energies(model, traj, np.zeros(0))
    assert np.max(e) - np.min(e) < 1e-3  # bounded oscillation, no growth
    k = np.arange(e.size)
    slope = np.polyfit(k, e, 1)[0]
    assert abs(slope) < 1e-8


def test_damped_pendulum_energy_decreases():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81, damping=0.2)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=2000)
    traj = simulate(model, [1.0], [0.0], np.zeros(0), grid)
    e = trajectory_energies(model, traj, np.zeros(0))
    # monotone up to the dt^3 quadrature wiggle where the swing reverses
    assert np.all(np.diff(e) <= 1e-6)
    assert np.mean(np.diff(e) > 0.0) < 0.02
    assert e[-1] < e[0] - 1.0  # dissipated a visible amount


def test_equilibrium_energy_is_potential():
    model = PendulumModel(mass=2.0, length=0.5, gravity=9.81)
    q_eq = np.array([0.0])
    e = discrete_energy(model, q_eq, q_eq, np.zeros(0), 0.01)
    assert e == pytest.approx(model.potential_energy(q_eq, np.zeros(0)), rel=1e-14)


def test_time_reversal_of_unforced_midpoint():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=50)
    fwd = simulate(model, [0.7], [0.3], np.zeros(0), grid, TIGHT)
    last = fwd.states[-1]
    back = rollout(
        model,
        DiscreteState(last.q, -last.p, np.zeros(0)),
        np.zeros(0),
        grid,
        TIGHT,
    )
    assert np.max(np.abs(back.states[-1].q - fwd.states[0].q)) < 1e-8


def test_loop_rollout_keeps_constraint(loop6):
    rho = np.array([4.0, 1.0])
    rng = np.random.default_rng(2)
    q0 = project_to_constraint(loop6, loop6.closed_rest + 0.05 * rng.standard_normal(6), rho)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=200)
    traj = simulate(loop6, q0, np.zeros(6), rho, grid)
    res = constraint_residuals(loop6, traj, rho)
    assert res.shape == (201,)
    assert np.max(res) < 1e-10
    # multipliers: absent at sample zero, two entries afterwards
    lam = traj.lambda_array()
    assert lam.shape == (201, 2)
    assert np.array_equal(lam[0], [0.0, 0.0])


def test_predictor_choice_does_not_change_the_solution(chain4):
    rho = np.array([1.5, 0.7])
    grid = TimeGrid(t0=0.0, dt=0.01, steps=50)
    hold = SolverSettings(newton_tol=1e-13, max_iters=80, predictor="hold")
    extrap = SolverSettings(
        newton_tol=1e-13, max_iters=80, predictor="linear-extrapolation"
    )
    t1 = simulate(chain4, [0.3, -0.2, 0.4, 0.1], np.zeros(4), rho, grid, hold)
    t2 = simulate(chain4, [0.3, -0.2, 0.4, 0.1], np.zeros(4), rho, grid, extrap)
    assert np.max(np.abs(t1.q_array() - t2.q_array())) < 1e-11


def test_infeasible_start_raises(loop6):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=10)
    with pytest.raises(InfeasibleStartError):
        simulate(loop6, loop6.closed_rest + 0.3, np.zeros(6), [4.0, 1.0], grid)


def test_newton_divergence_reports_step():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81)
    starved = SolverSettings(newton_tol=1e-16, max_iters=1)
    state = DiscreteState([1.0], [0.0], [])
    with pytest.raises(NewtonConvergenceError) as exc_info:
        step(model, state, np.zeros(0), 0.0, 0.5, starved, step_index=7)
    assert exc_info.value.step_index == 7


def test_singular_mass_matrix_is_classified():
    model = DegenerateMassModel()
    state = DiscreteState([0.0, 0.0], [0.1, 0.1], [])
    with pytest.raises(SingularKKTError) as exc_info:
        step(model, state, np.zeros(0), 0.0, 0.01)
    assert exc_info.value.kind == "mass-matrix"


def test_redundant_constraint_is_classified():
    model = RedundantConstraintModel()
    state = DiscreteState([0.0, 1.0], [0.0, 0.5], [0.0, 0.0])
    with pytest.raises(SingularKKTError) as exc_info:
        step(model, state, np.zeros(0), 0.0, 0.01)
    assert exc_info.value.kind == "constraint-rank"


def test_oracle_free_particle_and_validation():
    model = FreeParticle(mass=2.0)
    times, qs, vs = continuous_oracle(
        model, [0.0, 1.0], [1.0, -1.0], np.zeros(0), duration=2.0, steps=200
    )
    assert np.allclose(qs[-1], [2.0, -1.0], atol=1e-12)
    assert np.allclose(vs, vs[0], atol=1e-13)
    with pytest.raises(ValueError):
        continuous_oracle(model, [0.0, 0.0], [0.0, 0.0], np.zeros(0), 0.0, 10)
    with pytest.raises(ValueError):
        continuous_oracle(
            RedundantConstraintModel(), [0.0, 0.0], [0.0, 0.0], np.zeros(0), 1.0, 10
        )


def test_oracle_small_angle_period():
    l, g = 1.0, 9.81
    model = PendulumModel(mass=1.0, length=l, gravity=g)
    period = 2.0 * math.pi * math.sqrt(l / g)
    times, qs, _ = continuous_oracle(
        model, [0.01], [0.0], np.zeros(0), duration=1.2 * period, steps=24000
    )
    th = qs[:, 0]
    # successive downward zero crossings are half a period apart
    crossings = []
    for k in range(1, th.size):
        if th[k - 1] > 0.0 >= th[k]:
            frac = th[k - 1] / (th[k - 1] - th[k])
            crossings.append(times[k - 1] + frac * (times[k] - times[k - 1]))
    measured = 2.0 * (crossings[1] - crossings[0]) if len(crossings) > 1 else 4.0 * crossings[0]
    assert abs(measured - period) / period < 1e-3


def test_oracle_energy_drift_is_negligible():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81)
    rho = np.zeros(0)
    _, qs, vs = continuous_oracle(model, [0.3], [0.0], rho, duration=1.0, steps=100000)
    energies = np.array(
        [
            model.kinetic_energy(q, v, rho) + model.potential_energy(q, rho)
            for q, v in zip(qs, vs)
        ]
    )
    assert np.max(np.abs(energies - energies[0])) < 1e-10


def test_trajectory_csv_round_trip(tmp_path, loop6):
    rho = np.array([4.0, 1.0])
    grid = TimeGrid(t0=0.0, dt=0.01, steps=20)
    traj = simulate(loop6, loop6.closed_rest, np.full(6, 0.1), rho, grid)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    again = read_trajectory_csv(path)
    assert again.grid.steps == traj.grid.steps
    assert again.grid.dt == pytest.approx(traj.grid.dt, abs=1e-12)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(again.q_array(), traj.q_array())
    assert np.array_equal(again.p_array(), traj.p_array())
    assert np.array_equal(again.lambda_array(), traj.lambda_array())


def test_read_trajectory_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "traj.csv"
    header = "k,t,q_0,p_0\n"
    bad = {
        "non-numeric cell": header + "0,0.0,0.1,0.2\n1,0.1,abc,0.2\n",
        "wrong header": "step,time,q_0,p_0\n0,0.0,0.1,0.2\n1,0.1,0.1,0.2\n",
        "non-uniform times": header + "0,0.0,0.1,0.2\n1,0.1,0.1,0.2\n2,0.3,0.1,0.2\n",
    }
    for text in bad.values():
        path.write_text(text)
        with pytest.raises(IngestionError):
            read_trajectory_csv(path)
    path.write_text(bad["non-numeric cell"])
    with pytest.raises(IngestionError, match=r"traj\.csv:3"):
        read_trajectory_csv(path)


def test_trajectory_json_contents(tmp_path):
    model = FreeParticle()
    grid = TimeGrid(t0=0.0, dt=0.1, steps=3)
    traj = simulate(model, [0.0, 0.0], [1.0, 0.0], np.zeros(0), grid)
    path = tmp_path / "traj.json"
    write_trajectory_json(traj, path, metadata={"note": "unit"})
    import json

    doc = json.loads(path.read_text())
    assert doc["grid"] == {"t0": 0.0, "dt": 0.1, "steps": 3}
    assert len(doc["q"]) == 4
    assert doc["metadata"]["note"] == "unit"
