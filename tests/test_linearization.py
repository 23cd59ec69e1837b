"""Step sensitivities: closed forms, implicit-function consistency, chaining."""

import numpy as np
import pytest

from varid import (
    DiscreteState,
    PendulumModel,
    SingularKKTError,
    TimeGrid,
    accumulate_param_sensitivity,
    linearize_step,
    linearize_trajectory,
    project_to_constraint,
    simulate,
    slot_derivatives,
    state_transition,
    step,
)

from conftest import TIGHT, FreeParticle, RedundantConstraintModel


def _solve_and_linearize(model, state, rho, t, dt):
    result = step(model, state, rho, t, dt, TIGHT)
    sens = linearize_step(model, state, result.next, rho, t, dt)
    return result, sens


def test_free_particle_transition_closed_form():
    m, dt = 1.7, 0.02
    model = FreeParticle(mass=m)
    state = DiscreteState([0.3, -0.1], [0.4, 0.9], [])
    _, sens = _solve_and_linearize(model, state, np.zeros(0), 0.0, dt)
    eye = np.eye(2)
    want = np.block([[eye, (dt / m) * eye], [np.zeros((2, 2)), eye]])
    assert np.allclose(sens.A, want, atol=1e-12)
    assert sens.B.shape == (4, 0)


def test_unreferenced_parameter_has_zero_sensitivity():
    # the parameter vector has one entry that no model term uses
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81, n_rho=1)
    state = DiscreteState([0.4], [0.2], [])
    _, sens = _solve_and_linearize(model, state, np.array([3.0]), 0.0, 0.01)
    assert np.array_equal(sens.B, np.zeros((2, 1)))
    assert np.array_equal(sens.dlambda_drho, np.zeros((0, 1)))


def test_position_momentum_block_solves_newton_system(chain4):
    """dq1/dp0 satisfies newton_matrix @ X = -I, straight from implicit
    differentiation of the stepping residual."""
    rho = np.array([1.5, 0.7])
    state = DiscreteState([0.2, -0.1, 0.3, 0.0], [0.1, 0.0, -0.2, 0.05], [])
    result, sens = _solve_and_linearize(chain4, state, rho, 0.0, 0.01)
    sd = slot_derivatives(chain4, state.q, result.next.q, rho, 0.0, 0.01)
    n = chain4.n_q
    dq1_dp0 = sens.A[:n, n:]
    assert np.allclose(sd.newton_matrix @ dq1_dp0, -np.eye(n), atol=1e-10)


def test_transition_blocks_match_finite_differences(loop6):
    rho = np.array([4.0, 1.0])
    dt = 0.01
    q0 = project_to_constraint(loop6, loop6.closed_rest + 0.02, rho)
    grid = TimeGrid(t0=0.0, dt=dt, steps=3)
    traj = simulate(loop6, q0, np.full(6, 0.1), rho, grid, TIGHT)
    state = traj.states[2]
    result, sens = _solve_and_linearize(loop6, state, rho, grid.t(2), dt)

    def next_state(q, p):
        r = step(
            loop6,
            DiscreteState(q, p, state.lam),
            rho,
            grid.t(2),
            dt,
            TIGHT,
            q_guess=result.next.q,
        )
        return np.concatenate([r.next.q, r.next.p])

    eps = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(3):
        dq = rng.standard_normal(6)
        dp = rng.standard_normal(6)
        plus = next_state(state.q + eps * dq, state.p + eps * dp)
        minus = next_state(state.q - eps * dq, state.p - eps * dp)
        fd = (plus - minus) / (2.0 * eps)
        predicted = sens.A @ np.concatenate([dq, dp])
        assert np.max(np.abs(predicted - fd)) < 1e-6


def test_transition_blocks_on_constraint_tangent_directions(loop6):
    """Perturbations restricted to the constraint tangent plane, the
    directions a constrained trajectory can actually realize."""
    rho = np.array([4.0, 1.0])
    dt = 0.01
    q0 = project_to_constraint(loop6, loop6.closed_rest - 0.03, rho)
    state0 = DiscreteState(q0, np.full(6, 0.05), np.zeros(2))
    result, sens = _solve_and_linearize(loop6, state0, rho, 0.0, dt)

    jac = loop6.constraint_jacobian(q0, rho)
    _, _, vt = np.linalg.svd(jac)
    tangent = vt[2:]  # null space rows of the (2, 6) jacobian

    eps = 1e-6
    for row in tangent[:3]:
        perturbed = DiscreteState(q0 + eps * row, state0.p, state0.lam)
        r_plus = step(loop6, perturbed, rho, 0.0, dt, TIGHT, q_guess=result.next.q)
        perturbed = DiscreteState(q0 - eps * row, state0.p, state0.lam)
        r_minus = step(loop6, perturbed, rho, 0.0, dt, TIGHT, q_guess=result.next.q)
        fd = (
            np.concatenate([r_plus.next.q, r_plus.next.p])
            - np.concatenate([r_minus.next.q, r_minus.next.p])
        ) / (2.0 * eps)
        predicted = sens.A @ np.concatenate([row, np.zeros(6)])
        assert np.max(np.abs(predicted - fd)) < 1e-6


def test_multiplier_parameter_sensitivity_matches_fd(loop6):
    rho = np.array([4.0, 1.0])
    dt = 0.01
    q0 = project_to_constraint(loop6, loop6.closed_rest + 0.04, rho)
    state = DiscreteState(q0, np.full(6, -0.02), np.zeros(2))
    result, sens = _solve_and_linearize(loop6, state, rho, 0.0, dt)

    eps = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        r_p = rho.copy()
        r_p[j] += eps
        r_m = rho.copy()
        r_m[j] -= eps
        lam_p = step(loop6, state, r_p, 0.0, dt, TIGHT, q_guess=result.next.q).next.lam
        lam_m = step(loop6, state, r_m, 0.0, dt, TIGHT, q_guess=result.next.q).next.lam
        fd[:, j] = (lam_p - lam_m) / (2.0 * eps)
    assert np.max(np.abs(sens.dlambda_drho - fd)) < 1e-5


def test_accumulated_sensitivity_matches_end_to_end_fd():
    model = PendulumModel(mass=1.0, length=0.8, gravity=9.81, spring_param=0)
    rho = np.array([2.0])
    grid = TimeGrid(t0=0.0, dt=0.01, steps=30)
    q0, v0 = np.array([0.4]), np.array([0.0])

    traj = simulate(model, q0, v0, rho, grid, TIGHT)
    sens = linearize_trajectory(model, traj, rho)
    assert [s.step_index for s in sens] == list(range(30))
    z = accumulate_param_sensitivity(sens)
    assert z.shape == (31, 2, 1)
    assert np.array_equal(z[0], np.zeros((2, 1)))

    eps = 1e-6
    t_p = simulate(model, q0, v0, rho + eps, grid, TIGHT)
    t_m = simulate(model, q0, v0, rho - eps, grid, TIGHT)
    for k in (1, 10, 30):
        fd = (
            np.concatenate([t_p.states[k].q, t_p.states[k].p])
            - np.concatenate([t_m.states[k].q, t_m.states[k].p])
        ) / (2.0 * eps)
        assert np.max(np.abs(z[k][:, 0] - fd)) < 1e-6


def test_redundant_constraint_is_diagnosed_not_linearized():
    """A rank-deficient constraint Jacobian makes the step's saddle matrix
    singular; linearizing it raises the stepper's diagnosis instead of
    returning non-finite blocks."""
    model = RedundantConstraintModel()
    state = DiscreteState([0.0, 0.0], [0.0, 1.0], [0.0, 0.0])
    nxt = DiscreteState([0.0, 0.01], [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(SingularKKTError) as exc_info:
        linearize_step(model, state, nxt, np.zeros(0), 0.0, 0.01, step_index=4)
    assert exc_info.value.kind == "constraint-rank"
    assert exc_info.value.step_index == 4


def test_state_transition_semigroup(chain4):
    rho = np.array([1.0, 1.0])
    grid = TimeGrid(t0=0.0, dt=0.01, steps=6)
    traj = simulate(chain4, [0.2, 0.1, -0.1, 0.0], np.zeros(4), rho, grid, TIGHT)
    sens = linearize_trajectory(chain4, traj, rho)
    phi_02 = state_transition(sens, 0, 2)
    phi_26 = state_transition(sens, 2, 6)
    phi_06 = state_transition(sens, 0, 6)
    assert np.allclose(phi_26 @ phi_02, phi_06, atol=1e-12)
    assert np.array_equal(state_transition(sens, 4, 4), np.eye(8))
    with pytest.raises(ValueError):
        state_transition(sens, 3, 1)


def test_accumulate_requires_steps():
    with pytest.raises(ValueError):
        accumulate_param_sensitivity([])
