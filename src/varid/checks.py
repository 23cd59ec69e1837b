"""Finite-difference verification of every analytic derivative path.

These helpers are deliberately dumb: central differences of the public
evaluation entry points, compared block by block against the closed-form
derivatives.  They back the ``check`` CLI command and double as test
oracles.  Each check is named after the block it probes so a failure
points straight at the broken derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimation import CostSpec, adjoint_gradient, cost
from .integrator import SolverSettings, rollout, simulate, step
from .linearization import linearize_step, linearize_trajectory
from .model import (
    ForcedModel,
    GeneralizedForce,
    MechanicalModel,
    discrete_lagrangian,
    discrete_force_minus,
    slot_derivatives,
)
from .models import project_to_constraint
from .types import DiscreteState, TimeGrid, Trajectory

__all__ = [
    "CheckResult",
    "finite_difference_jacobian",
    "relative_error",
    "check_slot_derivatives",
    "check_step_linearization",
    "check_adjoint_gradient",
    "sample_states",
    "run_derivative_checks",
]

_FD_EPS = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.error < self.tol)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {self.name}: max_rel_err={self.error:.3e} tol={self.tol:.0e} {status}"


def finite_difference_jacobian(
    f: Callable, x: np.ndarray, eps: float = _FD_EPS
) -> np.ndarray:
    """Central differences of a vector (or scalar) function.

    The step for component ``i`` is ``eps * (1 + |x_i|)``.  Returns an
    array of shape ``f(x).shape + (len(x),)``.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = eps * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def relative_error(a, b) -> float:
    """Scaled max-norm discrepancy, robust near zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def check_slot_derivatives(
    model: MechanicalModel, q0, q1, rho, t: float, dt: float, tol: float = 1e-6
) -> list:
    """Compare every slot-derivative block against finite differences."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    rho = np.asarray(rho, dtype=float)
    sd = slot_derivatives(model, q0, q1, rho, t, dt)

    ld_q0 = lambda x: discrete_lagrangian(model, x, q1, rho, dt)
    ld_q1 = lambda x: discrete_lagrangian(model, q0, x, rho, dt)
    d1_of = lambda a, b, r: slot_derivatives(model, a, b, r, t, dt).d1_ld
    d2_of = lambda a, b, r: slot_derivatives(model, a, b, r, t, dt).d2_ld
    fm_of = lambda a, b, r: discrete_force_minus(model, a, b, r, t, dt)

    out = [
        ("slot.d1_ld", sd.d1_ld, finite_difference_jacobian(ld_q0, q0)),
        ("slot.d2_ld", sd.d2_ld, finite_difference_jacobian(ld_q1, q1)),
        ("slot.d11_ld", sd.d11_ld, finite_difference_jacobian(lambda x: d1_of(x, q1, rho), q0)),
        ("slot.d12_ld", sd.d12_ld, finite_difference_jacobian(lambda x: d1_of(q0, x, rho), q1)),
        ("slot.d22_ld", sd.d22_ld, finite_difference_jacobian(lambda x: d2_of(q0, x, rho), q1)),
        ("slot.f_minus.d1", sd.d1_f_minus, finite_difference_jacobian(lambda x: fm_of(x, q1, rho), q0)),
        ("slot.f_minus.d2", sd.d2_f_minus, finite_difference_jacobian(lambda x: fm_of(q0, x, rho), q1)),
    ]
    if model.n_rho:
        out += [
            ("slot.d3d1_ld", sd.d3d1_ld, finite_difference_jacobian(lambda r: d1_of(q0, q1, r), rho)),
            ("slot.d3d2_ld", sd.d3d2_ld, finite_difference_jacobian(lambda r: d2_of(q0, q1, r), rho)),
            ("slot.f_minus.d3", sd.d3_f_minus, finite_difference_jacobian(lambda r: fm_of(q0, q1, r), rho)),
        ]
    if model.n_h:
        h_of = lambda x: model.constraint(x, rho)
        dh_of = lambda x: model.constraint_jacobian(x, rho)
        out += [
            ("constraint.jacobian", model.constraint_jacobian(q0, rho), finite_difference_jacobian(h_of, q0)),
            ("constraint.hessian", model.constraint_hessian(q0, rho), finite_difference_jacobian(dh_of, q0)),
        ]
    return [CheckResult(name, relative_error(a, b), tol) for name, a, b in out]


_TIGHT = SolverSettings(newton_tol=1e-13, max_iters=60, predictor="hold")


def check_step_linearization(
    model: MechanicalModel,
    state: DiscreteState,
    rho,
    t: float,
    dt: float,
    tol: float = 1e-6,
    lambda_tol: float = 1e-5,
) -> list:
    """Compare one step's sensitivity blocks against differences taken
    straight through the converged Newton solve."""
    rho = np.asarray(rho, dtype=float)
    n, n_h = model.n_q, model.n_h
    result = step(model, state, rho, t, dt, _TIGHT)
    sens = linearize_step(model, state, result.next, rho, t, dt)

    def solved(q0, p0, r):
        res = step(model, DiscreteState(q0, p0, state.lam), r, t, dt, _TIGHT)
        return np.concatenate([res.next.q, res.next.p, res.next.lam])

    fd_q = finite_difference_jacobian(lambda x: solved(x, state.p, rho), state.q)
    fd_p = finite_difference_jacobian(lambda x: solved(state.q, x, rho), state.p)
    checks = [
        ("lin.A.q_q", sens.A[:n, :n], fd_q[:n]),
        ("lin.A.p_q", sens.A[n:, :n], fd_q[n : 2 * n]),
        ("lin.A.q_p", sens.A[:n, n:], fd_p[:n]),
        ("lin.A.p_p", sens.A[n:, n:], fd_p[n : 2 * n]),
    ]
    lam_checks = []
    if n_h:
        lam_checks += [
            ("lin.dlambda_dq", sens.dlambda_dq, fd_q[2 * n :]),
            ("lin.dlambda_dp", sens.dlambda_dp, fd_p[2 * n :]),
        ]
    if model.n_rho:
        fd_r = finite_difference_jacobian(lambda r: solved(state.q, state.p, r), rho)
        checks += [
            ("lin.B.q", sens.B[:n], fd_r[:n]),
            ("lin.B.p", sens.B[n:], fd_r[n : 2 * n]),
        ]
        if n_h:
            lam_checks.append(("lin.dlambda_drho", sens.dlambda_drho, fd_r[2 * n :]))
    return [CheckResult(name, relative_error(a, b), tol) for name, a, b in checks] + [
        CheckResult(name, relative_error(a, b), lambda_tol) for name, a, b in lam_checks
    ]


def check_adjoint_gradient(
    model: MechanicalModel,
    initial_q,
    initial_v,
    rho,
    grid: TimeGrid,
    spec: CostSpec,
    force: Optional[GeneralizedForce] = None,
    tol: float = 1e-5,
) -> list:
    """Adjoint gradient against finite differences of the full cost."""
    rho = np.asarray(rho, dtype=float)
    sim_model = model if force is None else ForcedModel(model, force)
    tight = SolverSettings(newton_tol=1e-12, max_iters=60)

    def objective(r):
        traj = simulate(sim_model, initial_q, initial_v, r, grid, tight)
        return cost(traj, spec, r)

    traj = simulate(sim_model, initial_q, initial_v, rho, grid, tight)
    sens = linearize_trajectory(sim_model, traj, rho)
    grad = adjoint_gradient(traj, sens, spec, rho)
    fd = finite_difference_jacobian(lambda r: np.array([objective(r)]), rho)[0]
    err = float(np.max(np.abs(grad - fd)) / (1.0 + np.max(np.abs(fd))))
    return [CheckResult("adjoint.gradient", err, tol)]


class _SinusoidDrive(GeneralizedForce):
    """Small multi-frequency torque used to land on generic states."""

    def __init__(self, n_q: int, amplitude: float, rng: np.random.Generator):
        self.n_q = n_q
        self.amp = amplitude * (0.5 + rng.random(n_q))
        self.freq = 0.3 + 1.2 * rng.random(n_q)
        self.phase = 2.0 * math.pi * rng.random(n_q)

    def value(self, q, v, t):
        return self.amp * np.sin(2.0 * math.pi * self.freq * t + self.phase)


def sample_states(
    model: MechanicalModel,
    rho,
    rng: np.random.Generator,
    count: int,
    rest_q=None,
    dt: float = 0.01,
    steps: int = 60,
    drive: float = 0.2,
) -> tuple:
    """States visited by a short, generically forced rollout.

    Returns ``(samples, forced_model)`` where ``samples`` is a list of
    ``(step_index, state)`` pairs and ``forced_model`` is the drive-wrapped
    model that produced them.

    Starting near ``rest_q`` (projected onto the constraint when there
    is one) guarantees the sampled states are dynamically consistent,
    which keeps the tight Newton solves of the difference oracles inside
    their convergence basin.
    """
    rho = np.asarray(rho, dtype=float)
    n = model.n_q
    if rest_q is None:
        rest_q = np.zeros(n)
    q0 = np.asarray(rest_q, dtype=float) + 0.05 * rng.standard_normal(n)
    if model.n_h:
        q0 = project_to_constraint(model, q0, rho)
    v0 = 0.3 * rng.standard_normal(n)
    forced = ForcedModel(model, _SinusoidDrive(n, drive, rng))
    p0 = forced.lagrangian_derivatives(q0, v0, rho).v_grad
    grid = TimeGrid(t0=0.0, dt=dt, steps=steps)
    traj = rollout(forced, DiscreteState(q0, p0, np.zeros(model.n_h)), rho, grid, _TIGHT)
    picks = rng.choice(np.arange(1, steps), size=count, replace=False)
    return [(int(k), traj.states[k]) for k in sorted(picks)], forced


def run_derivative_checks(
    model: MechanicalModel,
    rho,
    rest_q=None,
    seed: int = 0,
    points: int = 5,
    dt: float = 0.01,
) -> list:
    """Full battery: slot derivatives, step sensitivities, adjoint.

    Returns a list of :class:`CheckResult`; callers render or assert.
    """
    rho = np.asarray(rho, dtype=float)
    rng = np.random.default_rng(seed)
    states, forced = sample_states(model, rho, rng, points, rest_q=rest_q, dt=dt)
    results = []
    for k, s in states:
        t_k = k * dt
        q1_probe = s.q + 0.05 * rng.standard_normal(model.n_q)
        results += check_slot_derivatives(forced, s.q, q1_probe, rho, t_k, dt)
        results += check_step_linearization(forced, s, rho, t_k, dt)

    # short adjoint horizon over the same forced model
    grid = TimeGrid(t0=0.0, dt=dt, steps=40)
    q0 = states[0][1].q
    if model.n_h:
        q0 = project_to_constraint(model, q0, rho)
    v0 = 0.1 * rng.standard_normal(model.n_q)
    traj = simulate(forced, q0, v0, rho, grid, _TIGHT)
    from .estimation import CoordinateObservation

    obs = CoordinateObservation(range(model.n_q), model.n_q)
    target = np.stack([obs.value(st.q) for st in traj.states])
    target += 0.01 * rng.standard_normal(target.shape)
    spec = CostSpec(observation=obs, measured=target)
    results += check_adjoint_gradient(forced, q0, v0, rho, grid, spec)

    # collapse duplicate block names to their worst case
    worst = {}
    for r in results:
        cur = worst.get(r.name)
        if cur is None or r.error > cur.error:
            worst[r.name] = r
    return list(worst.values())
