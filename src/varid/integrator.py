"""Implicit one-step integrator for forced, constrained systems.

Each step advances ``(q_k, p_k)`` to ``(q_{k+1}, p_{k+1})`` by solving

    p_k + d1_ld(q_k, q_{k+1}) + f_minus(q_k, q_{k+1}) - Dh(q_k)^T lam_k = 0
    h(q_{k+1}) = 0

for ``(q_{k+1}, lam_k)`` with Newton's method, then evaluating

    p_{k+1} = d2_ld(q_k, q_{k+1}).

The constraint force acts through the Jacobian at the current
configuration while the constraint itself is enforced at the new one;
that asymmetry is what keeps the discrete flow on the manifold.  The
Newton matrix is the saddle system

    [ d12_ld + d2_f_minus   -Dh(q_k)^T ]
    [ Dh(q_{k+1})                0     ]

which one helper assembles and factors for both the Newton step and the
step linearization.  Its conditioning is checked at every
factorization; a reciprocal condition estimate below 1e-12 aborts with a
diagnosis of which block degenerated.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack as _lapack

from .errors import (
    InfeasibleStartError,
    IngestionError,
    NewtonConvergenceError,
    SingularKKTError,
)
from .model import MechanicalModel, slot_derivatives
from .types import DiscreteState, TimeGrid, Trajectory

__all__ = [
    "SolverSettings",
    "StepResult",
    "step",
    "rollout",
    "simulate",
    "discrete_energy",
    "trajectory_energies",
    "constraint_residuals",
    "continuous_oracle",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_trajectory_json",
]

_RCOND_FLOOR = 1e-12

_PREDICTORS = ("hold", "linear-extrapolation")


@dataclass(frozen=True)
class SolverSettings:
    """Newton solve controls.

    ``predictor`` selects the initial guess for ``q_{k+1}``: ``"hold"``
    reuses ``q_k``, ``"linear-extrapolation"`` (the default) uses
    ``2 q_k - q_{k-1}`` whenever a previous configuration is available.
    """

    newton_tol: float = 1e-10
    max_iters: int = 50
    predictor: str = "linear-extrapolation"

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.predictor not in _PREDICTORS:
            raise ValueError(f"predictor must be one of {_PREDICTORS}")


@dataclass(frozen=True)
class StepResult:
    """Outcome of one converged step."""

    next: DiscreteState
    newton_iters: int
    residual: float


def _classify_singular(m_block, dh1):
    n_h = dh1.shape[0]
    if n_h and np.linalg.matrix_rank(dh1) < n_h:
        return "constraint-rank"
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(m_block)
    if not np.isfinite(cond) or cond > 1.0 / _RCOND_FLOOR:
        return "mass-matrix"
    return "unknown"


def _solve_saddle(m_block, dh0, dh1, rhs, step_index=None):
    """Solve the step's saddle system ``K x = rhs`` with

        K = [ m_block  -dh0^T ]
            [ dh1         0   ]

    by one LU factorization.  ``dh0`` and ``dh1`` are the constraint
    Jacobians at the interval's start and end, ``(0, n_q)`` arrays for
    unconstrained models.  ``rhs`` may hold one column or several.
    Raises :class:`SingularKKTError` when the reciprocal condition
    estimate of ``K`` falls below 1e-12.
    """
    n, n_h = m_block.shape[0], dh1.shape[0]
    if n_h:
        kkt = np.zeros((n + n_h, n + n_h))
        kkt[:n, :n] = m_block
        kkt[:n, n:] = -dh0.T
        kkt[n:, :n] = dh1
    else:
        kkt = m_block
    # an exactly zero pivot needs no check of its own: it gives rcond 0
    lu, piv, _ = _lapack.dgetrf(kkt)
    rcond, info = _lapack.dgecon(lu, np.linalg.norm(kkt, 1))
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
        kind = _classify_singular(m_block, dh1)
        raise SingularKKTError(kind, float(rcond), step_index)
    x, _ = _lapack.dgetrs(lu, piv, rhs)
    return x


def step(
    model: MechanicalModel,
    state: DiscreteState,
    rho,
    t_k: float,
    dt: float,
    settings: Optional[SolverSettings] = None,
    q_guess=None,
    step_index: Optional[int] = None,
) -> StepResult:
    """Advance one interval from ``state`` at time ``t_k``.

    ``q_guess`` overrides the predictor (used by :func:`rollout` for
    extrapolation).  The previous step's multipliers in ``state.lam``
    warm-start the Newton iteration when their size matches.
    """
    settings = settings or SolverSettings()
    rho = np.asarray(rho, dtype=float)
    n, n_h = model.n_q, model.n_h
    q0, p0 = state.q, state.p

    q1 = np.array(q0 if q_guess is None else q_guess, dtype=float)
    lam = (
        np.array(state.lam, dtype=float)
        if state.lam.size == n_h
        else np.zeros(n_h)
    )
    dh0 = model.constraint_jacobian(q0, rho)

    iters = 0
    for attempt in range(settings.max_iters + 1):
        sd = slot_derivatives(model, q0, q1, rho, t_k, dt)
        residual = np.concatenate(
            [p0 + sd.d1_ld + sd.f_minus - dh0.T @ lam, model.constraint(q1, rho)]
        )
        res = np.max(np.abs(residual))
        if not np.isfinite(res):
            raise NewtonConvergenceError(iters, float(res), step_index)
        if res <= settings.newton_tol:
            nxt = DiscreteState(q1, sd.d2_ld, lam)
            return StepResult(next=nxt, newton_iters=iters, residual=float(res))
        if attempt == settings.max_iters:
            break
        delta = _solve_saddle(
            sd.newton_matrix,
            dh0,
            model.constraint_jacobian(q1, rho),
            -residual,
            step_index,
        )
        q1 = q1 + delta[:n]
        lam = lam + delta[n:]
        iters += 1

    raise NewtonConvergenceError(iters, float(res), step_index)


def rollout(
    model: MechanicalModel,
    state0: DiscreteState,
    rho,
    grid: TimeGrid,
    settings: Optional[SolverSettings] = None,
) -> Trajectory:
    """Integrate ``grid.steps`` intervals from an explicit initial state."""
    settings = settings or SolverSettings()
    states = [state0]
    q_prev = None
    extrapolate = settings.predictor == "linear-extrapolation"
    for k in range(grid.steps):
        cur = states[-1]
        guess = None
        if extrapolate and q_prev is not None:
            guess = 2.0 * cur.q - q_prev
        result = step(
            model, cur, rho, grid.t(k), grid.dt, settings, q_guess=guess, step_index=k
        )
        q_prev = cur.q
        states.append(result.next)
    return Trajectory(grid=grid, states=tuple(states))


def simulate(
    model: MechanicalModel,
    initial_q,
    initial_v,
    rho,
    grid: TimeGrid,
    settings: Optional[SolverSettings] = None,
) -> Trajectory:
    """Simulate from a configuration/velocity pair.

    The initial momentum is the continuous velocity gradient of the
    Lagrangian at ``(initial_q, initial_v)``, so discrete and continuous
    descriptions agree at the first sample.  The initial configuration
    must already satisfy the constraints; project it first if needed.
    """
    rho = np.asarray(rho, dtype=float)
    q0 = np.asarray(initial_q, dtype=float)
    v0 = np.asarray(initial_v, dtype=float)
    if q0.shape != (model.n_q,) or v0.shape != (model.n_q,):
        raise ValueError("initial_q and initial_v must have length n_q")
    if model.n_h:
        h0 = model.constraint(q0, rho)
        if np.max(np.abs(h0)) > 1e-8:
            raise InfeasibleStartError(
                f"initial configuration violates the constraint "
                f"(|h| = {np.max(np.abs(h0)):.3e}); project it first"
            )
    p0 = model.lagrangian_derivatives(q0, v0, rho).v_grad
    state0 = DiscreteState(q0, p0, np.zeros(model.n_h))
    return rollout(model, state0, rho, grid, settings)


def discrete_energy(model: MechanicalModel, q0, q1, rho, dt: float) -> float:
    """Energy of one interval, evaluated at the midpoint pair."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    rho = np.asarray(rho, dtype=float)
    qm = 0.5 * (q0 + q1)
    vm = (q1 - q0) / dt
    return model.kinetic_energy(qm, vm, rho) + model.potential_energy(qm, rho)


def trajectory_energies(model: MechanicalModel, traj: Trajectory, rho) -> np.ndarray:
    """Per-interval discrete energy, shape ``(steps,)``."""
    dt = traj.grid.dt
    return np.array(
        [
            discrete_energy(model, traj.states[k].q, traj.states[k + 1].q, rho, dt)
            for k in range(traj.grid.steps)
        ]
    )


def constraint_residuals(model: MechanicalModel, traj: Trajectory, rho) -> np.ndarray:
    """Max-abs constraint violation at every sample, shape ``(steps + 1,)``."""
    rho = np.asarray(rho, dtype=float)
    if model.n_h == 0:
        return np.zeros(len(traj))
    return np.array(
        [np.max(np.abs(model.constraint(s.q, rho))) for s in traj.states]
    )


def continuous_oracle(
    model: MechanicalModel,
    initial_q,
    initial_v,
    rho,
    duration: float,
    steps: int,
    t0: float = 0.0,
):
    """Reference continuous solution by classic fourth-order explicit
    integration of the unconstrained equations of motion.

    The acceleration comes from the forced Euler-Lagrange equations:
    ``vv * a = F + Lq - qv^T v``.  Only unconstrained models are
    supported; the discrete flow is its own reference on the manifold.
    Returns ``(times, q, v)`` arrays with ``steps + 1`` samples.
    """
    if model.n_h != 0:
        raise ValueError("the continuous reference only supports unconstrained models")
    if steps < 1 or duration <= 0.0:
        raise ValueError("duration must be positive and steps >= 1")
    rho = np.asarray(rho, dtype=float)
    n = model.n_q
    dt = duration / steps

    def accel(q, v, t):
        b = model.lagrangian_derivatives(q, v, rho)
        f = model.force(q, v, rho, t)
        return np.linalg.solve(b.vv, f + b.q_grad - b.qv.T @ v)

    times = t0 + dt * np.arange(steps + 1)
    qs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    qs[0] = np.asarray(initial_q, dtype=float)
    vs[0] = np.asarray(initial_v, dtype=float)
    for k in range(steps):
        t, q, v = times[k], qs[k], vs[k]
        k1q, k1v = v, accel(q, v, t)
        k2q = v + 0.5 * dt * k1v
        k2v = accel(q + 0.5 * dt * k1q, k2q, t + 0.5 * dt)
        k3q = v + 0.5 * dt * k2v
        k3v = accel(q + 0.5 * dt * k2q, k3q, t + 0.5 * dt)
        k4q = v + dt * k3v
        k4v = accel(q + dt * k3q, k4q, t + dt)
        qs[k + 1] = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        vs[k + 1] = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return times, qs, vs


# -- serialization ------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``k,t,q_*,p_*,lambda_*`` rows; floats round-trip exactly."""
    n = traj.n_q
    n_h = traj.states[-1].lam.size
    cols = (
        ["k", "t"]
        + [f"q_{i}" for i in range(n)]
        + [f"p_{i}" for i in range(n)]
        + [f"lambda_{i}" for i in range(n_h)]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k, s in enumerate(traj.states):
            lam = s.lam if s.lam.size == n_h else np.zeros(n_h)
            vals = [str(k), _fmt(traj.grid.t(k))]
            vals += [_fmt(x) for x in s.q]
            vals += [_fmt(x) for x in s.p]
            vals += [_fmt(x) for x in lam]
            fh.write(",".join(vals) + "\n")


def _read_csv(path, kind: str):
    """Header and float rows of a CSV file of ``kind`` ("series",
    "trajectory"); an empty file or a short, non-numeric or non-finite
    row raises :class:`IngestionError` naming ``file:line``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise IngestionError(f"empty {kind} file: {path}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise IngestionError(f"{path}:{line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise IngestionError(f"{path}:{line_no}: non-finite value")
            rows.append(values)
    if not rows:
        raise IngestionError(f"{kind} file has no data rows: {path}")
    return header, np.asarray(rows)


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of :func:`write_trajectory_csv`."""
    header, data = _read_csv(path, "trajectory")
    n = sum(c.startswith("q_") for c in header)
    n_h = sum(c.startswith("lambda_") for c in header)
    if n == 0 or header[:2] != ["k", "t"] or len(header) != 2 + 2 * n + n_h:
        raise IngestionError(f"not a trajectory file: {path}")
    steps = len(data) - 1
    if steps < 1:
        raise IngestionError(f"{path}: a trajectory needs at least two samples")
    t = data[:, 1]
    dt = (t[-1] - t[0]) / steps
    if not dt > 0.0 or np.max(np.abs(t[0] + dt * np.arange(steps + 1) - t)) > 1e-9:
        raise IngestionError(f"{path}: trajectory times are not uniformly increasing")
    grid = TimeGrid(t0=t[0], dt=dt, steps=steps)
    states = [
        DiscreteState(row[2 : 2 + n], row[2 + n : 2 + 2 * n], row[2 + 2 * n :])
        for row in data
    ]
    return Trajectory(grid=grid, states=tuple(states))


def write_trajectory_json(traj: Trajectory, path, metadata: Optional[dict] = None) -> None:
    """JSON mirror of the CSV layout plus free-form run metadata."""
    doc = {
        "grid": {"t0": traj.grid.t0, "dt": traj.grid.dt, "steps": traj.grid.steps},
        "q": traj.q_array().tolist(),
        "p": traj.p_array().tolist(),
        "lambda": traj.lambda_array().tolist(),
        "metadata": metadata or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
