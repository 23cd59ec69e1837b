"""Discrete Lagrangian, slot derivatives, and discrete forces on one interval."""

import numpy as np
import pytest

from varid import (
    discrete_force_minus,
    discrete_lagrangian,
    slot_derivatives,
)
from varid.checks import finite_difference_jacobian, relative_error

from conftest import FreeParticle


def test_free_particle_discrete_lagrangian_closed_form():
    # v = (1 - 0)/0.5 = 2, L = 0.5*2^2 = 2, Ld = dt*L = 1
    model = FreeParticle(mass=1.0)
    ld = discrete_lagrangian(model, [0.0, 0.0], [1.0, 0.0], np.zeros(0), 0.5)
    assert ld == pytest.approx(1.0, abs=1e-15)


def test_discrete_lagrangian_rejects_nonpositive_dt(pendulum):
    with pytest.raises(ValueError):
        discrete_lagrangian(pendulum, [0.1], [0.2], [1.0], 0.0)
    with pytest.raises(ValueError):
        slot_derivatives(pendulum, [0.1], [0.2], [1.0], 0.0, -0.01)


def test_midpoint_quadrature_is_locally_third_order(pendulum):
    """Against dense quadrature along the same linear path, the one-interval
    action error shrinks ~8x when dt halves."""
    rho = np.array([2.0])

    def action_error(dt):
        q0 = np.array([0.3])
        q1 = np.array([0.3 + 0.4 * dt])  # fixed slope, shrinking interval
        v = (q1 - q0) / dt
        # composite Simpson along the linear interpolant, effectively exact here
        ts = np.linspace(0.0, dt, 201)
        vals = [pendulum.lagrangian(q0 + s * v, v, rho) for s in ts]
        exact = np.trapezoid(vals, ts)
        return abs(discrete_lagrangian(pendulum, q0, q1, rho, dt) - exact)

    e1, e2 = action_error(0.08), action_error(0.04)
    assert 6.0 < e1 / e2 < 10.0


def test_slot_gradients_match_finite_differences(pendulum, chain4):
    rng = np.random.default_rng(11)
    for model, rho in ((pendulum, np.array([2.0])), (chain4, np.array([1.5, 0.7]))):
        q0 = 0.2 * rng.standard_normal(model.n_q)
        q1 = q0 + 0.05 * rng.standard_normal(model.n_q)
        dt, t = 0.01, 0.37
        sd = slot_derivatives(model, q0, q1, rho, t, dt)

        fd1 = finite_difference_jacobian(
            lambda x: discrete_lagrangian(model, x, q1, rho, dt), q0
        )
        fd2 = finite_difference_jacobian(
            lambda x: discrete_lagrangian(model, q0, x, rho, dt), q1
        )
        assert relative_error(sd.d1_ld, fd1) < 1e-8
        assert relative_error(sd.d2_ld, fd2) < 1e-8

        fd31 = finite_difference_jacobian(
            lambda r: slot_derivatives(model, q0, q1, r, t, dt).d1_ld, rho
        )
        fd32 = finite_difference_jacobian(
            lambda r: slot_derivatives(model, q0, q1, r, t, dt).d2_ld, rho
        )
        assert relative_error(sd.d3d1_ld, fd31) < 1e-8
        assert relative_error(sd.d3d2_ld, fd32) < 1e-8


def test_second_slot_blocks_are_consistent(chain4):
    rng = np.random.default_rng(5)
    rho = np.array([1.1, 0.6])
    q0 = 0.3 * rng.standard_normal(4)
    q1 = q0 + 0.04 * rng.standard_normal(4)
    sd = slot_derivatives(chain4, q0, q1, rho, 0.0, 0.01)
    assert np.allclose(sd.d11_ld, sd.d11_ld.T, atol=1e-13)
    assert np.allclose(sd.d22_ld, sd.d22_ld.T, atol=1e-13)
    # mixed blocks are transposes of each other
    assert np.array_equal(sd.d21_ld, sd.d12_ld.T)
    # Newton matrix is the q1 derivative of the stepping residual
    assert np.allclose(sd.newton_matrix, sd.d12_ld + sd.d2_f_minus, atol=1e-15)


def test_discrete_force_legs(pendulum):
    # damping enters the discrete force at the midpoint
    rho = np.array([2.0])
    q0, q1, dt, t = np.array([0.2]), np.array([0.26]), 0.01, 1.2
    vm = (q1 - q0) / dt
    fm = discrete_force_minus(pendulum, q0, q1, rho, t, dt)
    assert fm[0] == pytest.approx(dt * (-pendulum.damping * vm[0]), rel=1e-13)


def test_force_jacobian_legs_match_finite_differences(chain4):
    rng = np.random.default_rng(3)
    rho = np.array([1.0, 1.0])
    q0 = 0.1 * rng.standard_normal(4)
    q1 = q0 + 0.02 * rng.standard_normal(4)
    dt, t = 0.01, 0.0
    sd = slot_derivatives(chain4, q0, q1, rho, t, dt)
    fd1 = finite_difference_jacobian(
        lambda x: discrete_force_minus(chain4, x, q1, rho, t, dt), q0
    )
    fd2 = finite_difference_jacobian(
        lambda x: discrete_force_minus(chain4, q0, x, rho, t, dt), q1
    )
    assert relative_error(sd.d1_f_minus, fd1) < 1e-8
    assert relative_error(sd.d2_f_minus, fd2) < 1e-8
