"""Step linearization by implicit differentiation.

At a converged step the pair ``(q_{k+1}, lam_k)`` satisfies

    R1 = p_k + d1_ld + f_minus - Dh(q_k)^T lam_k = 0
    R2 = h(q_{k+1}) = 0.

Differentiating this system once and factoring its Newton matrix a
single time (with the stepper's own saddle-system solve) yields every
sensitivity block with one multi-column back-solve: the response of
``(q_{k+1}, lam_k)`` to ``q_k``, ``p_k``, and the parameters.  The
momentum rows then follow from the explicit update ``p_{k+1} = d2_ld``.

The ``B`` block is the partial derivative of the single step with its
start state held fixed; this is what the backward adjoint sweep
consumes.  :func:`accumulate_param_sensitivity` chains the partials
forward into total trajectory sensitivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrator import _solve_saddle
from .model import MechanicalModel, slot_derivatives
from .types import DiscreteState, Trajectory

__all__ = [
    "StepSensitivity",
    "linearize_step",
    "linearize_trajectory",
    "accumulate_param_sensitivity",
    "state_transition",
]


@dataclass(frozen=True)
class StepSensitivity:
    """Derivatives of one converged step.

    ``A`` is the ``(2 n_q, 2 n_q)`` state-transition block and ``B`` the
    ``(2 n_q, n_rho)`` parameter block, both over the packed state
    ``[q; p]``.  The multiplier blocks give the response of ``lam_k`` to
    the same perturbations.
    """

    A: np.ndarray
    B: np.ndarray
    step_index: int
    dlambda_dq: np.ndarray
    dlambda_dp: np.ndarray
    dlambda_drho: np.ndarray


def linearize_step(
    model: MechanicalModel,
    state: DiscreteState,
    next_state: DiscreteState,
    rho,
    t_k: float,
    dt: float,
    step_index: int = 0,
) -> StepSensitivity:
    """Sensitivities of the converged step that took ``state`` to
    ``next_state``, with the per-step partial parameter block ``B``.

    Raises :class:`SingularKKTError` when the step's Newton matrix is
    singular or nearly so, as :func:`varid.integrator.step` does.
    """
    rho = np.asarray(rho, dtype=float)
    n, n_h, n_rho = model.n_q, model.n_h, model.n_rho
    q0, q1, lam = state.q, next_state.q, next_state.lam

    sd = slot_derivatives(model, q0, q1, rho, t_k, dt)

    # residual derivatives with respect to the start configuration
    r1_q = sd.d11_ld + sd.d1_f_minus
    if n_h:
        ddh0 = model.constraint_hessian(q0, rho)
        r1_q = r1_q - np.einsum("c,cij->ij", lam, ddh0)

    # columns: start configuration, start momentum, parameters; the
    # constraint rows have no explicit dependence on any of them
    rhs = np.zeros((n + n_h, 2 * n + n_rho))
    rhs[:n, :n] = -r1_q
    rhs[:n, n : 2 * n] = -np.eye(n)
    rhs[:n, 2 * n :] = -(sd.d3d1_ld + sd.d3_f_minus)
    sol = _solve_saddle(
        sd.newton_matrix,
        model.constraint_jacobian(q0, rho),
        model.constraint_jacobian(q1, rho),
        rhs,
        step_index,
    )
    dq1_dq = sol[:n, :n]
    dq1_dp = sol[:n, n : 2 * n]
    dq1_drho = sol[:n, 2 * n :]

    # momentum rows from the explicit update
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = dq1_dq
    a[:n, n:] = dq1_dp
    a[n:, :n] = sd.d22_ld @ dq1_dq + sd.d21_ld
    a[n:, n:] = sd.d22_ld @ dq1_dp

    b = np.zeros((2 * n, n_rho))
    b[:n] = dq1_drho
    b[n:] = sd.d22_ld @ dq1_drho + sd.d3d2_ld

    return StepSensitivity(
        A=a,
        B=b,
        step_index=step_index,
        dlambda_dq=sol[n:, :n],
        dlambda_dp=sol[n:, n : 2 * n],
        dlambda_drho=sol[n:, 2 * n :],
    )


def linearize_trajectory(
    model: MechanicalModel, traj: Trajectory, rho
) -> list:
    """Per-step sensitivities along a stored trajectory.

    Every entry carries the partial parameter block (no forward
    chaining); use :func:`accumulate_param_sensitivity` to thread the
    chain rule when total trajectory sensitivities are wanted.
    """
    return [
        linearize_step(
            model,
            traj.states[k],
            traj.states[k + 1],
            rho,
            traj.grid.t(k),
            traj.grid.dt,
            step_index=k,
        )
        for k in range(traj.grid.steps)
    ]


def accumulate_param_sensitivity(sens: Sequence[StepSensitivity]) -> np.ndarray:
    """Total parameter sensitivity of every sample, shape
    ``(len(sens) + 1, 2 n_q, n_rho)``.

    Sample 0 is parameter-independent by definition; each later sample
    accumulates ``Z_{k+1} = A_k Z_k + B_k`` with the partial ``B_k``.
    """
    if not sens:
        raise ValueError("need at least one step sensitivity")
    two_n, n_rho = sens[0].B.shape
    z = np.zeros((len(sens) + 1, two_n, n_rho))
    for k, s in enumerate(sens):
        z[k + 1] = s.A @ z[k] + s.B
    return z


def state_transition(
    sens: Sequence[StepSensitivity], k_from: int, k_to: int
) -> np.ndarray:
    """Product of step transition blocks mapping sample ``k_from`` to
    ``k_to``; the identity when the indices coincide.

    ``sens`` must be the full per-step list of a trajectory, so that
    ``sens[k]`` is the step leaving sample ``k``.
    """
    if k_to < k_from:
        raise ValueError("k_to must be >= k_from")
    two_n = sens[0].A.shape[0]
    phi = np.eye(two_n)
    for k in range(k_from, k_to):
        phi = sens[k].A @ phi
    return phi
