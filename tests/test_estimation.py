"""Cost, adjoint gradient, projected descent, feedback forcing, series I/O."""

import numpy as np
import pytest

from varid import (
    CoordinateObservation,
    CostSpec,
    DescentSettings,
    FeedbackForce,
    ForcedModel,
    IngestionError,
    LinkPositionObservation,
    ParameterVector,
    PendulumModel,
    SolverError,
    TimeGrid,
    adjoint_gradient,
    cost,
    forward_kinematics,
    identify,
    ingest_series,
    linearize_trajectory,
    read_series_csv,
    simulate,
    state_transition,
    write_series_csv,
)

from conftest import TIGHT


def _playback(grid, n_q, actuated, torques):
    """Open-loop torque playback (gain zero ignores the coordinate series)."""
    m = len(actuated)
    return FeedbackForce(
        grid, n_q, actuated, torques, np.zeros((grid.steps + 1, m)), 0.0
    )


def _sinusoid_torques(grid, channels, amp=0.3, freq=0.7):
    t = grid.times()
    return np.stack(
        [amp * np.sin(2.0 * np.pi * freq * t + 0.4 * i) for i in range(channels)],
        axis=1,
    )


def _synthetic_problem(model, rho_true, grid, actuated, q0, v0, gain=1.5, seed=0):
    """Generate measured series from a forced truth rollout, then return
    (forced model under feedback, cost spec) for gradient studies."""
    tau = _sinusoid_torques(grid, len(actuated))
    truth = simulate(
        ForcedModel(model, _playback(grid, model.n_q, actuated, tau)),
        q0,
        v0,
        rho_true,
        grid,
        TIGHT,
    )
    b_meas = truth.q_array()[:, actuated]
    obs = CoordinateObservation(range(model.n_q), model.n_q)
    rng = np.random.default_rng(seed)
    measured = np.stack([obs.value(s.q) for s in truth.states])
    measured += 0.01 * rng.standard_normal(measured.shape)
    force = FeedbackForce(grid, model.n_q, actuated, tau, b_meas, gain)
    return ForcedModel(model, force), CostSpec(observation=obs, measured=measured)


def test_coordinate_observation():
    obs = CoordinateObservation([2, 0], 4)
    assert obs.dim == 2
    q = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(obs.value(q), [3.0, 1.0])
    jac = obs.jacobian(q)
    assert jac.shape == (2, 4)
    assert jac[0, 2] == 1.0 and jac[1, 0] == 1.0
    assert np.sum(jac) == 2.0
    with pytest.raises(ValueError):
        CoordinateObservation([4], 4)
    with pytest.raises(ValueError):
        CoordinateObservation([], 4)


def test_link_position_observation(chain4):
    obs = LinkPositionObservation(chain4, link=3)
    assert obs.dim == 2
    q = np.array([0.3, -0.2, 0.5, 0.1])
    assert np.allclose(obs.value(q), forward_kinematics(chain4, q, 3))
    assert obs.jacobian(q).shape == (2, 4)


def test_cost_zero_when_measured_equals_simulated(pendulum):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=50)
    traj = simulate(pendulum, [0.3], [0.0], [2.0], grid)
    obs = CoordinateObservation([0], 1)
    measured = traj.q_array()
    spec = CostSpec(observation=obs, measured=measured)
    assert cost(traj, spec, [2.0]) == 0.0


def test_cost_constant_offset_closed_form(pendulum):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=40)
    traj = simulate(pendulum, [0.3], [0.0], [2.0], grid)
    obs = CoordinateObservation([0], 1)
    delta = 0.05
    spec = CostSpec(observation=obs, measured=traj.q_array() - delta)
    # running sum over k = 1..k_f plus the terminal term: (k_f + 1) d delta^2
    want = (40 + 1) * 1 * delta**2
    assert cost(traj, spec, [2.0]) == pytest.approx(want, rel=1e-12)


def test_cost_matches_brute_force_resummation(chain4):
    rng = np.random.default_rng(3)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=25)
    rho = np.array([1.5, 0.7])
    traj = simulate(chain4, [0.2, -0.1, 0.3, 0.0], np.zeros(4), rho, grid)
    obs = CoordinateObservation([1, 3], 4)
    measured = rng.standard_normal((26, 2))
    weights = rng.uniform(0.5, 2.0, 26)
    spec = CostSpec(
        observation=obs, measured=measured, weights=weights, terminal_weight=1.7
    )

    total = 0.0
    for k in range(1, 26):
        eps = obs.value(traj.states[k].q) - measured[k]
        total += weights[k] * float(eps @ eps)
    eps = obs.value(traj.states[25].q) - measured[25]
    total += 1.7 * float(eps @ eps)
    assert cost(traj, spec, rho) == pytest.approx(total, rel=1e-13)


def test_cost_spec_validation():
    obs = CoordinateObservation([0], 2)
    with pytest.raises(ValueError):
        CostSpec(observation=obs, measured=np.zeros((10, 3)))
    with pytest.raises(ValueError):
        CostSpec(observation=obs, measured=np.zeros((10, 1)), weights=np.ones(9))

    # row count must cover every grid sample
    from conftest import FreeParticle

    grid = TimeGrid(t0=0.0, dt=0.1, steps=3)
    traj = simulate(FreeParticle(), [0.0, 0.0], [1.0, 0.0], np.zeros(0), grid)
    too_short = CostSpec(observation=obs, measured=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        cost(traj, too_short, np.zeros(0))


def test_zero_weights_give_zero_gradient(pendulum):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=30)
    rho = np.array([2.0])
    traj = simulate(pendulum, [0.3], [0.0], rho, grid, TIGHT)
    obs = CoordinateObservation([0], 1)
    spec = CostSpec(
        observation=obs,
        measured=np.ones((31, 1)),
        weights=np.zeros(31),
        terminal_weight=0.0,
    )
    sens = linearize_trajectory(pendulum, traj, rho)
    grad = adjoint_gradient(traj, sens, spec, rho)
    assert np.array_equal(grad, [0.0])


def test_unreferenced_parameter_gradient_is_zero():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81, n_rho=1)
    rho = np.array([5.0])
    grid = TimeGrid(t0=0.0, dt=0.01, steps=20)
    traj = simulate(model, [0.4], [0.0], rho, grid, TIGHT)
    obs = CoordinateObservation([0], 1)
    spec = CostSpec(observation=obs, measured=np.zeros((21, 1)))
    sens = linearize_trajectory(model, traj, rho)
    grad = adjoint_gradient(traj, sens, spec, rho)
    assert np.array_equal(grad, [0.0])


def _fd_gradient(forced, q0, v0, rho, grid, spec, eps=1e-6):
    g = np.zeros(rho.size)
    for j in range(rho.size):
        r_p, r_m = rho.copy(), rho.copy()
        r_p[j] += eps
        r_m[j] -= eps
        j_p = cost(simulate(forced, q0, v0, r_p, grid, TIGHT), spec, r_p)
        j_m = cost(simulate(forced, q0, v0, r_m, grid, TIGHT), spec, r_m)
        g[j] = (j_p - j_m) / (2.0 * eps)
    return g


def _adjoint_gradient_of(forced, q0, v0, rho, grid, spec):
    traj = simulate(forced, q0, v0, rho, grid, TIGHT)
    sens = linearize_trajectory(forced, traj, rho)
    return adjoint_gradient(traj, sens, spec, rho)


def test_adjoint_matches_fd_pendulum_with_feedback(pendulum):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=120)
    rho = np.array([2.5])
    forced, spec = _synthetic_problem(
        pendulum, np.array([2.2]), grid, [0], np.array([0.3]), np.array([0.0])
    )
    g = _adjoint_gradient_of(forced, [0.3], [0.0], rho, grid, spec)
    g_fd = _fd_gradient(forced, [0.3], [0.0], rho, grid, spec)
    assert np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g_fd))) < 1e-6


def test_adjoint_matches_fd_chain_with_feedback(chain4):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=100)
    rho = np.array([1.5, 0.7])
    q0 = np.array([0.2, -0.1, 0.3, 0.0])
    forced, spec = _synthetic_problem(
        chain4, np.array([1.2, 0.9]), grid, [0, 2], q0, np.zeros(4)
    )
    g = _adjoint_gradient_of(forced, q0, np.zeros(4), rho, grid, spec)
    g_fd = _fd_gradient(forced, q0, np.zeros(4), rho, grid, spec)
    assert np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g_fd))) < 1e-5


def test_adjoint_matches_fd_loop_with_feedback(loop6):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=100)
    rho = np.array([4.0, 1.0])
    q0 = loop6.closed_rest
    forced, spec = _synthetic_problem(
        loop6, np.array([4.45252, 0.96969]), grid, [2, 3], q0, np.zeros(6)
    )
    g = _adjoint_gradient_of(forced, q0, np.zeros(6), rho, grid, spec)
    g_fd = _fd_gradient(forced, q0, np.zeros(6), rho, grid, spec)
    assert np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g_fd))) < 1e-5


def test_adjoint_equals_transition_matrix_double_sum(pendulum):
    """Brute-force expansion: every stage gradient paired with every earlier
    parameter block through the state transition product."""
    grid = TimeGrid(t0=0.0, dt=0.01, steps=12)
    rho = np.array([2.0])
    rng = np.random.default_rng(9)
    traj = simulate(pendulum, [0.4], [0.1], rho, grid, TIGHT)
    obs = CoordinateObservation([0], 1)
    measured = traj.q_array() + 0.1 * rng.standard_normal((13, 1))
    weights = rng.uniform(0.5, 1.5, 13)
    spec = CostSpec(
        observation=obs, measured=measured, weights=weights, terminal_weight=2.0
    )
    sens = linearize_trajectory(pendulum, traj, rho)
    g_adj = adjoint_gradient(traj, sens, spec, rho)

    def stage_row(k, weight):
        eps = obs.value(traj.states[k].q) - measured[k]
        row = np.zeros(2)
        row[:1] = 2.0 * weight * (eps @ obs.jacobian(traj.states[k].q))
        return row

    k_f = grid.steps
    g_bf = np.zeros(1)
    for k in range(1, k_f + 1):
        row = stage_row(k, weights[k])
        if k == k_f:
            row = row + stage_row(k_f, 2.0)
        dx_k = np.zeros((2, 1))
        for s in range(k):
            dx_k += state_transition(sens, s + 1, k) @ sens[s].B
        g_bf += row @ dx_k
    assert np.max(np.abs(g_adj - g_bf)) < 1e-10


def test_adjoint_rejects_mismatched_sensitivities(pendulum):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=10)
    rho = np.array([2.0])
    traj = simulate(pendulum, [0.3], [0.0], rho, grid)
    obs = CoordinateObservation([0], 1)
    spec = CostSpec(observation=obs, measured=np.zeros((11, 1)))
    sens = linearize_trajectory(pendulum, traj, rho)
    with pytest.raises(ValueError):
        adjoint_gradient(traj, sens[:-1], spec, rho)


def test_descent_settings_validation():
    with pytest.raises(ValueError):
        DescentSettings(alpha=0.0)
    with pytest.raises(ValueError):
        DescentSettings(alpha=1.0)
    with pytest.raises(ValueError):
        DescentSettings(beta=1.2)
    with pytest.raises(ValueError):
        DescentSettings(initial_step=0.0)


def _identification_setup(rho_true, steps=200, gain=1.0, seed=4):
    model = PendulumModel(mass=1.0, length=0.8, gravity=9.81, damping=0.1, spring_param=0)
    grid = TimeGrid(t0=0.0, dt=0.01, steps=steps)
    q0, v0 = np.array([0.4]), np.array([0.0])
    tau = _sinusoid_torques(grid, 1, amp=0.4, freq=0.5)
    truth = simulate(
        ForcedModel(model, _playback(grid, 1, [0], tau)), q0, v0, rho_true, grid, TIGHT
    )
    b_meas = truth.q_array()[:, [0]]
    obs = CoordinateObservation([0], 1)
    measured = np.stack([obs.value(s.q) for s in truth.states])
    force = FeedbackForce(grid, 1, [0], tau, b_meas, gain)
    spec = CostSpec(observation=obs, measured=measured)
    return model, grid, q0, v0, spec, force


def test_identify_recovers_pendulum_stiffness():
    rho_true = np.array([2.5])
    model, grid, q0, v0, spec, force = _identification_setup(rho_true)
    settings = DescentSettings(max_iters=40, grad_tol=1e-5, initial_step=5.0)
    result = identify(
        model, q0, v0, grid, spec,
        ParameterVector.positive([5.0]),
        settings=settings,
        force=force,
    )
    assert result.termination == "grad_tol"
    assert abs(result.rho_opt.values[0] - 2.5) / 2.5 < 0.01
    assert np.all(np.diff(result.cost_history) <= 0.0)
    # histories cover the initial point plus every accepted iterate
    assert len(result.cost_history) == result.iterations + 1
    assert len(result.grad_norm_history) == result.iterations + 1
    assert result.rho_history.shape == (result.iterations + 1, 1)


def test_identify_at_truth_stops_immediately():
    rho_true = np.array([2.5])
    model, grid, q0, v0, spec, force = _identification_setup(rho_true)
    settings = DescentSettings(max_iters=5, grad_tol=1e-3, initial_step=1.0)
    result = identify(
        model, q0, v0, grid, spec,
        ParameterVector.positive(rho_true),
        settings=settings,
        force=force,
    )
    assert result.termination == "grad_tol"
    assert result.iterations <= 2
    assert result.cost_history[0] < 1e-15


def test_identify_respects_lower_bound():
    rho_true = np.array([0.001])
    model, grid, q0, v0, spec, force = _identification_setup(rho_true, steps=120)
    settings = DescentSettings(max_iters=6, grad_tol=1e-12, initial_step=10.0)
    result = identify(
        model, q0, v0, grid, spec,
        ParameterVector.positive([0.5], floor=1e-6),
        settings=settings,
        force=force,
    )
    assert np.all(result.rho_history >= 1e-6)
    assert np.all(np.isfinite(result.cost_history))
    assert np.all(np.isfinite(result.rho_history))


def test_identify_reports_line_search_failure():
    rho_true = np.array([2.5])
    model, grid, q0, v0, spec, force = _identification_setup(rho_true, steps=80)
    settings = DescentSettings(
        max_iters=10, grad_tol=1e-14, initial_step=1e9, max_backtracks=1
    )
    result = identify(
        model, q0, v0, grid, spec,
        ParameterVector.positive([5.0]),
        settings=settings,
        force=force,
    )
    assert result.termination == "line_search_failure"
    assert result.iterations == 0


def test_identify_callback_sees_every_iterate():
    rho_true = np.array([2.5])
    model, grid, q0, v0, spec, force = _identification_setup(rho_true, steps=100)
    seen = []

    def watcher(it, rho, j, g, traj):
        seen.append((it, float(rho.values[0]), j, g, len(traj)))

    settings = DescentSettings(max_iters=3, grad_tol=1e-14, initial_step=2.0)
    result = identify(
        model, q0, v0, grid, spec,
        ParameterVector.positive([4.0]),
        settings=settings,
        force=force,
        callback=watcher,
    )
    assert len(seen) == result.iterations + 1
    assert [s[0] for s in seen] == list(range(result.iterations + 1))
    assert all(s[4] == 101 for s in seen)


def test_identify_raises_when_initial_simulation_fails(loop6):
    grid = TimeGrid(t0=0.0, dt=0.01, steps=20)
    obs = CoordinateObservation([0], 6)
    spec = CostSpec(observation=obs, measured=np.zeros((21, 1)))
    with pytest.raises(SolverError):
        identify(
            loop6,
            loop6.closed_rest + 0.5,  # violates the loop closure
            np.zeros(6),
            grid,
            spec,
            ParameterVector.positive([4.0, 1.0]),
        )


def test_feedback_force_laws():
    grid = TimeGrid(t0=0.0, dt=0.1, steps=4)
    tau = np.arange(5.0).reshape(5, 1)
    b_ref = 0.5 * np.ones((5, 1))
    f = FeedbackForce(grid, 3, [1], tau, b_ref, 2.0)

    # exact tracking: force equals the measured torque
    out = f.value(np.array([9.0, 0.5, 9.0]), np.zeros(3), 0.2)
    assert np.allclose(out, [0.0, 2.0, 0.0])
    # unit disturbance on the actuated coordinate: correction is -gain
    out = f.value(np.array([9.0, 1.5, 9.0]), np.zeros(3), 0.2)
    assert out[1] == pytest.approx(2.0 - 2.0 * 1.0, abs=1e-14)
    # torque interpolates linearly between samples
    out = f.value(np.array([0.0, 0.5, 0.0]), np.zeros(3), 0.25)
    assert out[1] == pytest.approx(2.5, abs=1e-14)

    fq, fv = f.jacobians(np.zeros(3), np.zeros(3), 0.2)
    want = np.zeros((3, 3))
    want[1, 1] = -2.0
    assert np.array_equal(fq, want)
    assert np.array_equal(fv, np.zeros((3, 3)))


def test_zero_gain_ignores_coordinate_error():
    grid = TimeGrid(t0=0.0, dt=0.1, steps=2)
    tau = np.array([[1.0], [2.0], [3.0]])
    f = FeedbackForce(grid, 2, [0], tau, np.zeros((3, 1)), 0.0)
    out = f.value(np.array([123.0, 0.0]), np.zeros(2), 0.1)
    assert out[0] == pytest.approx(2.0, abs=1e-14)


def test_feedback_force_validation():
    grid = TimeGrid(t0=0.0, dt=0.1, steps=2)
    good = np.zeros((3, 1))
    with pytest.raises(ValueError):
        FeedbackForce(grid, 2, [], good, good, 1.0)
    with pytest.raises(ValueError):
        FeedbackForce(grid, 2, [2], good, good, 1.0)
    with pytest.raises(ValueError):
        FeedbackForce(grid, 2, [0], np.zeros((4, 1)), good, 1.0)
    with pytest.raises(ValueError):
        FeedbackForce(grid, 2, [0], good, good, -1.0)


def test_series_csv_round_trip(tmp_path):
    grid = TimeGrid(t0=0.0, dt=0.05, steps=10)
    rng = np.random.default_rng(6)
    values = rng.standard_normal((11, 3))
    path = tmp_path / "series.csv"
    write_series_csv(path, grid.times(), values, ["a", "b", "c"])
    times, back, names = read_series_csv(path)
    assert names == ["a", "b", "c"]
    assert np.array_equal(back, values)  # 17 digits round-trip exactly
    aligned = ingest_series(path, grid)
    assert np.array_equal(aligned, values)


def test_ingest_rejects_misaligned_series(tmp_path):
    grid = TimeGrid(t0=0.0, dt=0.05, steps=10)
    values = np.zeros((11, 1))
    path = tmp_path / "series.csv"
    write_series_csv(path, grid.times() + 1e-6, values, ["a"])
    with pytest.raises(IngestionError):
        ingest_series(path, grid)
    # wrong sample count
    short = TimeGrid(t0=0.0, dt=0.05, steps=9)
    with pytest.raises(IngestionError):
        ingest_series(path, short)


def test_read_series_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(IngestionError):
        read_series_csv(p)
    p.write_text("x,a\n0,1\n")
    with pytest.raises(IngestionError):
        read_series_csv(p)
    p.write_text("t\n0\n")
    with pytest.raises(IngestionError):
        read_series_csv(p)
    p.write_text("t,a\n0,1,2\n")
    with pytest.raises(IngestionError):
        read_series_csv(p)
    p.write_text("t,a\n0,notanumber\n")
    with pytest.raises(IngestionError):
        read_series_csv(p)
    # non-finite cells would turn the cost into NaN; each names file:line
    for cell in ("nan", "inf", "-inf"):
        p.write_text(f"t,a\n0,1\n0.01,{cell}\n")
        with pytest.raises(IngestionError, match=r"bad\.csv:3"):
            read_series_csv(p)
    p.write_text("t,a\n")
    with pytest.raises(IngestionError):
        read_series_csv(p)
