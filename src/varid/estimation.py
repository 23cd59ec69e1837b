"""Parameter identification from measured trajectories.

The mismatch cost is a weighted sum of squared observation errors over
the samples ``k = 1 .. k_f`` plus a terminal term at ``k_f``:

    J(rho) = sum_k w_k |y(q_k) - y_meas_k|^2 + w_T |y(q_{k_f}) - y_meas_{k_f}|^2.

Its gradient is assembled by one backward sweep over the per-step
sensitivities: the adjoint row vector obeys

    mu_{k_f} = dl_{k_f} + dm_{k_f}
    mu_k     = mu_{k+1} A_k + dl_k,

and the gradient is ``sum_{k=1..k_f} mu_k B_{k-1}`` plus any explicit
parameter dependence of the cost terms.  The ``B`` blocks here are the
per-step partials (no forward chaining); the sweep itself performs the
chaining, which is what makes it equivalent to the transition-matrix
double sum at a fraction of the cost.

``identify`` wraps the gradient in projected steepest descent with
backtracking: candidates are clamped onto the parameter box, a failed
simulation counts as infinite cost, and the loop reports how it
terminated instead of raising.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IngestionError, SolverError
from .model import ForcedModel, GeneralizedForce, MechanicalModel
from .linearization import StepSensitivity, linearize_trajectory
from .integrator import SolverSettings, _read_csv, simulate
from .models import ChainModel, forward_kinematics, forward_kinematics_jacobian
from .types import ParameterVector, TimeGrid, Trajectory

__all__ = [
    "Observation",
    "CoordinateObservation",
    "LinkPositionObservation",
    "CostSpec",
    "cost",
    "adjoint_gradient",
    "DescentSettings",
    "IdentificationResult",
    "identify",
    "FeedbackForce",
    "read_series_csv",
    "write_series_csv",
    "ingest_series",
]


class Observation(ABC):
    """Differentiable map from a configuration to observed quantities."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def value(self, q) -> np.ndarray: ...

    @abstractmethod
    def jacobian(self, q) -> np.ndarray:
        """Shape ``(dim, n_q)``."""


class CoordinateObservation(Observation):
    """Observe a subset of the configuration coordinates directly."""

    def __init__(self, indices: Sequence[int], n_q: int):
        self.indices = np.asarray(list(indices), dtype=int)
        self.n_q = int(n_q)
        if self.indices.size == 0:
            raise ValueError("need at least one observed coordinate")
        if self.indices.min() < 0 or self.indices.max() >= n_q:
            raise ValueError("observed coordinate index out of range")

    @property
    def dim(self):
        return self.indices.size

    def value(self, q):
        return np.asarray(q, dtype=float)[self.indices]

    def jacobian(self, q):
        j = np.zeros((self.dim, self.n_q))
        j[np.arange(self.dim), self.indices] = 1.0
        return j


class LinkPositionObservation(Observation):
    """Observe the planar position of one link end of a chain model."""

    def __init__(self, model: ChainModel, link: int):
        if not 0 <= link < model.n_q:
            raise ValueError(f"link index {link} out of range")
        self.model = model
        self.link = int(link)

    @property
    def dim(self):
        return 2

    def value(self, q):
        return forward_kinematics(self.model, q, self.link)

    def jacobian(self, q):
        return forward_kinematics_jacobian(self.model, q, self.link)


@dataclass(frozen=True)
class CostSpec:
    """Weighted observation-mismatch cost over a trajectory.

    ``measured`` has one row per grid sample (``steps + 1``); row 0 is
    kept for alignment but never enters the cost, which starts at the
    first evolved sample.  ``weights`` defaults to ones.
    """

    observation: Observation
    measured: np.ndarray
    weights: Optional[np.ndarray] = None
    terminal_weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "measured", np.asarray(self.measured, dtype=float)
        )
        if self.measured.ndim != 2 or self.measured.shape[1] != self.observation.dim:
            raise ValueError(
                f"measured must be (samples, {self.observation.dim})"
            )
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.measured.shape[0],):
                raise ValueError("weights must have one entry per sample")
            object.__setattr__(self, "weights", w)

    def weight(self, k: int) -> float:
        return 1.0 if self.weights is None else float(self.weights[k])

    def residual(self, k: int, q) -> np.ndarray:
        return self.observation.value(q) - self.measured[k]


def cost(traj: Trajectory, spec: CostSpec, rho) -> float:
    """Evaluate the mismatch cost along a trajectory."""
    k_f = traj.grid.steps
    if spec.measured.shape[0] != k_f + 1:
        raise ValueError(
            f"measured series has {spec.measured.shape[0]} rows, "
            f"trajectory needs {k_f + 1}"
        )
    total = 0.0
    for k in range(1, k_f + 1):
        eps = spec.residual(k, traj.states[k].q)
        total += spec.weight(k) * float(eps @ eps)
    eps = spec.residual(k_f, traj.states[k_f].q)
    total += spec.terminal_weight * float(eps @ eps)
    return total


def _stage_gradient(spec: CostSpec, k: int, q, weight: float) -> np.ndarray:
    """Row gradient of one squared-error term with respect to ``q_k``."""
    eps = spec.residual(k, q)
    return 2.0 * weight * (eps @ spec.observation.jacobian(q))


def adjoint_gradient(
    traj: Trajectory,
    sens: Sequence[StepSensitivity],
    spec: CostSpec,
    rho,
) -> np.ndarray:
    """Cost gradient with respect to the parameters by a backward sweep.

    ``sens`` must hold one entry per step with partial parameter blocks,
    exactly as produced by :func:`varid.linearization.linearize_trajectory`.
    """
    k_f = traj.grid.steps
    if len(sens) != k_f:
        raise ValueError(f"need {k_f} step sensitivities, got {len(sens)}")
    n = traj.n_q
    n_rho = sens[0].B.shape[1]

    def stage(k: int) -> np.ndarray:
        row = np.zeros(2 * n)
        row[:n] = _stage_gradient(spec, k, traj.states[k].q, spec.weight(k))
        return row

    # terminal sample carries both the running and the terminal term
    mu = stage(k_f)
    mu[:n] += _stage_gradient(spec, k_f, traj.states[k_f].q, spec.terminal_weight)

    grad = np.zeros(n_rho)
    for k in range(k_f, 0, -1):
        grad += mu @ sens[k - 1].B
        if k > 1:
            mu = mu @ sens[k - 1].A + stage(k - 1)
    # the cost has no explicit parameter dependence; hooks would add
    # per-stage and terminal parameter gradients here
    return grad


@dataclass(frozen=True)
class DescentSettings:
    """Projected steepest-descent controls (backtracking line search)."""

    alpha: float = 0.4
    beta: float = 0.4
    max_iters: int = 100
    grad_tol: float = 1e-3
    initial_step: float = 1.0
    max_backtracks: int = 40

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.initial_step <= 0.0:
            raise ValueError("initial_step must be positive")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of :func:`identify`.

    ``termination`` is one of ``"grad_tol"``, ``"max_iters"``, or
    ``"line_search_failure"``.  ``cost_history`` starts with the cost at
    the initial guess and is non-increasing by construction;
    ``rho_history`` aligns with it.
    """

    rho_opt: ParameterVector
    iterations: int
    termination: str
    cost_history: np.ndarray
    grad_norm_history: np.ndarray
    rho_history: np.ndarray


def _projected_gradient(gradient, rho: ParameterVector, tol: float = 1e-12):
    """Zero the components that push an active bound further out."""
    pg = np.array(gradient, dtype=float, copy=True)
    at_bound = rho.values <= rho.lower_bounds + tol
    pg[at_bound & (pg > 0.0)] = 0.0
    return pg


def identify(
    model: MechanicalModel,
    initial_q,
    initial_v,
    grid: TimeGrid,
    spec: CostSpec,
    rho0: ParameterVector,
    settings: Optional[DescentSettings] = None,
    force: Optional[GeneralizedForce] = None,
    solver: Optional[SolverSettings] = None,
    callback: Optional[Callable] = None,
) -> IdentificationResult:
    """Fit parameters by projected steepest descent on the mismatch cost.

    Each iteration simulates the model, runs the adjoint sweep for the
    gradient, and backtracks from ``initial_step`` until the clamped
    candidate achieves sufficient decrease.  A candidate whose
    simulation fails is treated as infinitely costly and backtracked
    past.  ``callback(iteration, rho, cost_value, grad_norm, traj)`` is
    invoked once per accepted iterate (including the initial one).
    """
    settings = settings or DescentSettings()
    solver = solver or SolverSettings()
    sim_model = model if force is None else ForcedModel(model, force)

    def evaluate(values) -> tuple:
        try:
            traj = simulate(sim_model, initial_q, initial_v, values, grid, solver)
        except SolverError:
            return np.inf, None
        return cost(traj, spec, values), traj

    rho = rho0
    j_cur, traj = evaluate(rho.values)
    if traj is None:
        raise SolverError(
            "simulation failed at the initial parameter guess; "
            "identification cannot start"
        )

    cost_hist = [j_cur]
    rho_hist = [rho.values.copy()]
    grad_hist = []
    termination = "max_iters"
    iterations = 0

    for it in range(settings.max_iters + 1):
        sens = linearize_trajectory(sim_model, traj, rho.values)
        gradient = adjoint_gradient(traj, sens, spec, rho.values)
        pg_norm = float(np.linalg.norm(_projected_gradient(gradient, rho)))
        grad_hist.append(pg_norm)
        if callback is not None:
            callback(it, rho, j_cur, pg_norm, traj)
        if pg_norm < settings.grad_tol:
            termination = "grad_tol"
            break
        if it == settings.max_iters:
            termination = "max_iters"
            break

        g_sq = float(gradient @ gradient)
        gamma = settings.initial_step
        accepted = False
        for _ in range(settings.max_backtracks):
            candidate = rho.clamped(rho.values - gamma * gradient)
            j_cand, traj_cand = evaluate(candidate.values)
            if j_cand <= j_cur - settings.alpha * gamma * g_sq:
                rho, j_cur, traj = candidate, j_cand, traj_cand
                accepted = True
                break
            gamma *= settings.beta
        if not accepted:
            termination = "line_search_failure"
            break
        iterations = it + 1
        cost_hist.append(j_cur)
        rho_hist.append(rho.values.copy())

    return IdentificationResult(
        rho_opt=rho,
        iterations=iterations,
        termination=termination,
        cost_history=np.asarray(cost_hist),
        grad_norm_history=np.asarray(grad_hist),
        rho_history=np.asarray(rho_hist),
    )


class FeedbackForce(GeneralizedForce):
    """Measured torque playback with proportional tracking feedback.

    On the actuated coordinates the applied force is

        F(t) = T_meas(t) - K (b(t) - b_meas(t)),

    where ``b`` is the simulated actuated sub-configuration and the
    measured series are interpolated linearly in time.  All other
    coordinates receive zero.  Because the simulated coordinates enter
    the feedback term, the force contributes ``-K`` to the configuration
    Jacobian on the actuated block; that coupling must flow into the
    step linearization, which is why this is a state-dependent force and
    not a precomputed torque table.
    """

    def __init__(self, grid: TimeGrid, n_q: int, actuated, torques, coords, gain):
        self.grid = grid
        self.n_q = int(n_q)
        self.actuated = np.asarray(list(actuated), dtype=int)
        m = self.actuated.size
        if m == 0:
            raise ValueError("need at least one actuated coordinate")
        if self.actuated.min() < 0 or self.actuated.max() >= n_q:
            raise ValueError("actuated index out of range")
        self.torques = np.asarray(torques, dtype=float)
        self.coords = np.asarray(coords, dtype=float)
        want = (grid.steps + 1, m)
        if self.torques.shape != want or self.coords.shape != want:
            raise ValueError(f"torque and coordinate series must have shape {want}")
        gain = np.asarray(gain, dtype=float)
        if gain.ndim == 0:
            gain = np.full(m, float(gain))
        if gain.shape != (m,) or np.any(gain < 0.0):
            raise ValueError("gain must be a nonnegative scalar or per-channel vector")
        self.gain = gain
        self._times = grid.times()

    def _interp(self, series, t):
        return np.array(
            [np.interp(t, self._times, series[:, i]) for i in range(series.shape[1])]
        )

    def value(self, q, v, t):
        f = np.zeros(self.n_q)
        tau = self._interp(self.torques, t)
        b_ref = self._interp(self.coords, t)
        b = np.asarray(q, dtype=float)[self.actuated]
        f[self.actuated] = tau - self.gain * (b - b_ref)
        return f

    def jacobians(self, q, v, t):
        fq = np.zeros((self.n_q, self.n_q))
        fq[self.actuated, self.actuated] = -self.gain
        return fq, np.zeros((self.n_q, self.n_q))


# -- measured-data files -------------------------------------------------------


def write_series_csv(path, times, values, names) -> None:
    """Write a measured series as ``t,<names...>`` rows."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if values.shape != (times.size, len(names)):
        raise ValueError("series shape must be (len(times), len(names))")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        for t, row in zip(times, values):
            cells = [format(float(x), ".17g") for x in (t, *row)]
            fh.write(",".join(cells) + "\n")


def read_series_csv(path):
    """Read a ``t,<names...>`` file; returns ``(times, values, names)``.
    Every cell must be a finite number.
    """
    header, data = _read_csv(path, "series")
    if header[0] != "t":
        raise IngestionError(f"series file must start with a 't' column: {path}")
    if len(header) == 1:
        raise IngestionError(f"series file has no value columns: {path}")
    return data[:, 0], data[:, 1:], header[1:]


def ingest_series(path, grid: TimeGrid) -> np.ndarray:
    """Read a series file and verify it lies on the grid.

    Sample times must match ``grid.times()`` to within 1e-9 seconds;
    anything else raises :class:`IngestionError`.
    """
    times, values, _ = read_series_csv(path)
    expected = grid.times()
    if times.size != expected.size:
        raise IngestionError(
            f"{path}: has {times.size} samples, grid expects {expected.size}"
        )
    worst = float(np.max(np.abs(times - expected)))
    if worst > 1e-9:
        raise IngestionError(
            f"{path}: sample times deviate from the grid by up to {worst:.3e} s"
        )
    return values
