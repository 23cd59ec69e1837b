"""Core value types shared across the package.

Configurations, momenta, velocities, and parameter values are plain
float64 numpy arrays throughout; the dataclasses here bundle them with
the bookkeeping the algorithms need (time grid, constraint multipliers,
box bounds).  All containers are frozen and hold read-only arrays so a
trajectory can be shared between the integrator, the linearization, and
the estimator without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "DiscreteState",
    "ParameterVector",
    "Trajectory",
]


def _freeze(a, dtype=float) -> np.ndarray:
    """Copy to a contiguous read-only float64 array."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid ``t_k = t0 + k*dt`` for ``k = 0..steps``.

    ``steps`` counts intervals, so the grid holds ``steps + 1`` sample
    times.  Times are always derived from ``(t0, dt, k)`` rather than
    accumulated, which keeps long rollouts free of summation drift.
    """

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def t(self, k: int) -> float:
        """Time of sample ``k``."""
        return self.t0 + k * self.dt

    def times(self) -> np.ndarray:
        """All ``steps + 1`` sample times."""
        return self.t0 + self.dt * np.arange(self.steps + 1)

    @property
    def duration(self) -> float:
        return self.steps * self.dt


@dataclass(frozen=True)
class DiscreteState:
    """One sample of the discrete flow: configuration, conjugate momentum,
    and the constraint multipliers of the step that produced it.

    ``lam`` is empty for unconstrained models and at the initial sample,
    where no step has been taken yet.
    """

    q: np.ndarray
    p: np.ndarray
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "q", _freeze(self.q))
        object.__setattr__(self, "p", _freeze(self.p))
        object.__setattr__(self, "lam", _freeze(self.lam))
        if self.q.ndim != 1 or self.p.ndim != 1 or self.lam.ndim != 1:
            raise ValueError("q, p, lam must be one-dimensional")
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have the same length")

    @property
    def n_q(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class ParameterVector:
    """Parameter values with elementwise lower bounds.

    The identification loop keeps iterates inside the box by clamping,
    so the bounds live next to the values.  Bounds default to -inf
    (unbounded); use :meth:`positive` for strictly positive parameters
    such as spring stiffnesses.
    """

    values: np.ndarray
    lower_bounds: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.lower_bounds is None:
            lb = np.full(self.values.shape, -np.inf)
        else:
            lb = np.asarray(self.lower_bounds, dtype=float)
        object.__setattr__(self, "lower_bounds", _freeze(lb))
        if self.values.ndim != 1:
            raise ValueError("parameter values must be one-dimensional")
        if self.lower_bounds.shape != self.values.shape:
            raise ValueError("lower_bounds must match values in shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter values must be finite")
        if np.any(self.values < self.lower_bounds):
            raise ValueError("parameter values must respect lower bounds")

    @classmethod
    def positive(cls, values, floor: float = 1e-6) -> "ParameterVector":
        """Parameters bounded below by a small positive floor."""
        values = np.asarray(values, dtype=float)
        return cls(values, np.full(values.shape, floor))

    @property
    def n(self) -> int:
        return self.values.size

    def clamped(self, new_values) -> "ParameterVector":
        """New vector with ``new_values`` pushed onto the feasible box."""
        clipped = np.maximum(np.asarray(new_values, dtype=float), self.lower_bounds)
        return ParameterVector(clipped, self.lower_bounds)


@dataclass(frozen=True)
class Trajectory:
    """A sequence of discrete states on a uniform grid.

    ``states[k]`` corresponds to grid sample ``k``; the sequence length
    must equal ``grid.steps + 1``.
    """

    grid: TimeGrid
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != self.grid.steps + 1:
            raise ValueError(
                f"trajectory holds {len(self.states)} states but the grid "
                f"expects {self.grid.steps + 1}"
            )

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_q(self) -> int:
        return self.states[0].n_q

    def q_array(self) -> np.ndarray:
        """Configurations stacked as ``(steps + 1, n_q)``."""
        return np.stack([s.q for s in self.states])

    def p_array(self) -> np.ndarray:
        """Momenta stacked as ``(steps + 1, n_q)``."""
        return np.stack([s.p for s in self.states])

    def lambda_array(self) -> np.ndarray:
        """Multipliers stacked as ``(steps + 1, n_h)``; row 0 is zero."""
        n_h = max(s.lam.size for s in self.states)
        out = np.zeros((len(self.states), n_h))
        for k, s in enumerate(self.states):
            if s.lam.size:
                out[k] = s.lam
        return out
