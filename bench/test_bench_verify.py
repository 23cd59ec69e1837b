"""The benchmark's output checks accept correct outputs and reject wrong ones.

Small problems (a 6-link loop over a few dozen steps) keep this under a
second or two.  Run with ``python -m pytest bench`` from the repository
root.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import verify  # noqa: E402
from varid import (  # noqa: E402
    CoordinateObservation,
    CostSpec,
    FeedbackForce,
    ForcedModel,
    StiffnessGrouping,
    TimeGrid,
    adjoint_gradient,
    cost,
    linearize_trajectory,
    regular_closed_loop,
    simulate,
)

RADIUS = 0.355
RHO_TRUE = np.array([4.45252, 0.96969])


@pytest.fixture(scope="module")
def loop():
    model = regular_closed_loop(
        n_links=6, radius=RADIUS, total_mass=0.132,
        stiffness_groups=StiffnessGrouping(((0, 1, 2), (3, 4, 5))),
        gravity=0.0, damping=0.02,
    )
    grid = TimeGrid(t0=0.0, dt=0.01, steps=40)
    tau = 0.25 * np.sin(2.0 * np.pi * np.outer(grid.times(), [0.4, 0.65]) + [0.0, 1.3])
    drive = FeedbackForce(grid, 6, [2, 3], tau, np.zeros_like(tau), gain=0.0)
    sim_model = ForcedModel(model, drive)
    q0, v0 = model.closed_rest, np.zeros(6)
    truth = simulate(sim_model, q0, v0, RHO_TRUE, grid)
    return sim_model, q0, v0, grid, truth


def _fit_result(rho):
    return {"rho_opt": list(rho), "termination": "grad_tol",
            "cost_history": [0.4, 0.1, 0.1, 0.01]}


def test_fit_check_rejects_rho_off_by_two_percent():
    assert verify.fit_errors(_fit_result(RHO_TRUE * 1.005), RHO_TRUE) == []
    for i in range(2):
        off = RHO_TRUE.copy()
        off[i] *= 1.02
        assert verify.fit_errors(_fit_result(off), RHO_TRUE)


def test_fit_check_rejects_other_terminations_and_cost_increase():
    doc = _fit_result(RHO_TRUE)
    assert verify.fit_errors(dict(doc, termination="max_iters"), RHO_TRUE)
    assert verify.fit_errors(dict(doc, cost_history=[0.4, 0.1, 0.2]), RHO_TRUE)


def test_gradient_check_rejects_one_component_scaled(loop):
    sim_model, q0, v0, grid, truth = loop
    measured = truth.q_array()[:, [1, 4]] + 0.005 * np.random.default_rng(1).standard_normal(
        (grid.steps + 1, 2)
    )
    spec = CostSpec(observation=CoordinateObservation([1, 4], 6), measured=measured)
    rho = np.array([4.7, 3.0])
    traj = simulate(sim_model, q0, v0, rho, grid)

    def own_cost(r):
        return verify.mismatch_cost(
            simulate(sim_model, q0, v0, r, grid).q_array()[:, [1, 4]], measured
        )

    assert verify.cost_errors(cost(traj, spec, rho), own_cost(rho)) == []
    gradient = adjoint_gradient(traj, linearize_trajectory(sim_model, traj, rho), spec, rho)
    fd = verify.central_difference(own_cost, rho)
    assert verify.gradient_errors(gradient, fd) == []
    for i in range(2):
        wrong = gradient.copy()
        wrong[i] *= 1.01
        assert verify.gradient_errors(wrong, fd)


def test_closure_check_rejects_loop_opened_by_1e_6(loop, tmp_path):
    from varid import write_trajectory_csv

    *_, truth = loop
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(truth, path)
    q = verify.read_q_columns(path)
    np.testing.assert_array_equal(q, truth.q_array())
    assert verify.closure_errors(q, RADIUS) == []
    # turning the last joint by d moves the tip by d times the link length
    length = 2.0 * RADIUS * np.sin(np.pi / 6)
    opened = q.copy()
    opened[7:, -1] += 1e-6 / length
    assert verify.closure_errors(opened, RADIUS)
