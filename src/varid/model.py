"""Mechanical model interface and midpoint discretization.

A model supplies the continuous ingredients of a forced, holonomically
constrained Lagrangian system:

* the Lagrangian ``L(q, v, rho)`` with gradients, Hessian blocks, and
  parameter cross-derivatives,
* a generalized force ``F(q, v, rho, t)`` with Jacobians,
* a constraint map ``h(q)`` with first and second derivatives; it does
  not depend on the parameters, though its methods take ``rho`` too.

This module turns those ingredients into the discrete quantities the
implicit stepper and its linearization consume.  The quadrature is the
midpoint rule: with ``qm = (q0 + q1)/2`` and ``vm = (q1 - q0)/dt``,

    Ld(q0, q1, rho)  = dt * L(qm, vm, rho)
    f_minus(q0, q1)  = dt * F(qm, vm, rho, t + dt/2)

The whole interval force enters the stepping equation as ``f_minus``;
the momentum update carries no force term.

Slot derivatives (derivatives with respect to the first argument, the
second argument, or the parameters) follow by the chain rule through
``(qm, vm)`` and are assembled in closed form in :func:`slot_derivatives`.

Derivative conventions used everywhere: for a vector-valued function
``f`` of ``x``, the Jacobian ``J[i, j] = d f_i / d x_j``.  The mixed
Lagrangian block is ``Lqv[i, j] = d^2 L / (dq_i dv_j)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LagrangianBundle",
    "MechanicalModel",
    "GeneralizedForce",
    "ForcedModel",
    "DiscreteSlotDerivatives",
    "discrete_lagrangian",
    "slot_derivatives",
]


@dataclass(frozen=True)
class LagrangianBundle:
    """All Lagrangian derivatives at one ``(q, v, rho)`` point.

    Fields follow the conventions documented in the module docstring:
    ``qq``, ``vv`` are symmetric Hessian blocks, ``qv[i, j]`` is
    ``d^2 L / (dq_i dv_j)``, and ``q_rho``/``v_rho`` are the ``(n_q, n_rho)``
    parameter cross-derivatives of the two gradients.
    """

    value: float
    q_grad: np.ndarray
    v_grad: np.ndarray
    qq: np.ndarray
    qv: np.ndarray
    vv: np.ndarray
    q_rho: np.ndarray
    v_rho: np.ndarray


class MechanicalModel(ABC):
    """Continuous mechanical system on configuration space ``R^n_q``.

    Subclasses must provide sizes and the Lagrangian bundle; the force
    and constraint families default to "absent" (zero force, no
    constraints) so simple models stay short.
    """

    @property
    @abstractmethod
    def n_q(self) -> int:
        """Number of configuration coordinates."""

    @property
    def n_h(self) -> int:
        """Number of holonomic constraint equations."""
        return 0

    @property
    @abstractmethod
    def n_rho(self) -> int:
        """Number of identifiable parameters."""

    # -- energies -----------------------------------------------------

    @abstractmethod
    def kinetic_energy(self, q, v, rho) -> float: ...

    @abstractmethod
    def potential_energy(self, q, rho) -> float: ...

    def lagrangian(self, q, v, rho) -> float:
        return self.kinetic_energy(q, v, rho) - self.potential_energy(q, rho)

    # -- Lagrangian derivatives ----------------------------------------

    @abstractmethod
    def lagrangian_derivatives(self, q, v, rho) -> LagrangianBundle:
        """Value, gradients, Hessian blocks, parameter cross-derivatives."""

    # -- generalized force ---------------------------------------------

    def force(self, q, v, rho, t) -> np.ndarray:
        return np.zeros(self.n_q)

    def force_jacobians(self, q, v, rho, t):
        """Returns ``(Fq, Fv, Frho)`` Jacobians of :meth:`force`."""
        n, m = self.n_q, self.n_rho
        return np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, m))

    # -- holonomic constraints ------------------------------------------

    def constraint(self, q, rho) -> np.ndarray:
        return np.zeros(0)

    def constraint_jacobian(self, q, rho) -> np.ndarray:
        return np.zeros((0, self.n_q))

    def constraint_hessian(self, q, rho) -> np.ndarray:
        """Second derivative, shape ``(n_h, n_q, n_q)``."""
        return np.zeros((0, self.n_q, self.n_q))


class GeneralizedForce(ABC):
    """External generalized force applied on top of a model's own force.

    Implementations are parameter-independent: they may depend on state
    and time but not on the identified parameter vector.
    """

    @abstractmethod
    def value(self, q, v, t) -> np.ndarray: ...

    def jacobians(self, q, v, t):
        """Returns ``(Fq, Fv)``; defaults to state-independent forcing."""
        n = np.asarray(q).size
        return np.zeros((n, n)), np.zeros((n, n))


class ForcedModel(MechanicalModel):
    """A model with an extra applied generalized force.

    Delegates everything to the wrapped model and adds the applied force
    (and its state Jacobians) into the force channel, so downstream code
    never needs to know whether forcing is intrinsic or applied.
    """

    def __init__(self, base: MechanicalModel, applied: GeneralizedForce):
        self.base = base
        self.applied = applied

    @property
    def n_q(self):
        return self.base.n_q

    @property
    def n_h(self):
        return self.base.n_h

    @property
    def n_rho(self):
        return self.base.n_rho

    def kinetic_energy(self, q, v, rho):
        return self.base.kinetic_energy(q, v, rho)

    def potential_energy(self, q, rho):
        return self.base.potential_energy(q, rho)

    def lagrangian_derivatives(self, q, v, rho):
        return self.base.lagrangian_derivatives(q, v, rho)

    def force(self, q, v, rho, t):
        return self.base.force(q, v, rho, t) + self.applied.value(q, v, t)

    def force_jacobians(self, q, v, rho, t):
        fq, fv, frho = self.base.force_jacobians(q, v, rho, t)
        aq, av = self.applied.jacobians(q, v, t)
        return fq + aq, fv + av, frho

    def constraint(self, q, rho):
        return self.base.constraint(q, rho)

    def constraint_jacobian(self, q, rho):
        return self.base.constraint_jacobian(q, rho)

    def constraint_hessian(self, q, rho):
        return self.base.constraint_hessian(q, rho)


@dataclass(frozen=True)
class DiscreteSlotDerivatives:
    """Slot derivatives of the discrete Lagrangian and the discrete force
    for one interval ``(q0, q1)``.

    Naming: ``d1``/``d2`` differentiate with respect to the first/second
    configuration slot, ``d3`` with respect to parameters.
    """

    d1_ld: np.ndarray
    d2_ld: np.ndarray
    d11_ld: np.ndarray
    d12_ld: np.ndarray
    d22_ld: np.ndarray
    d3d1_ld: np.ndarray
    d3d2_ld: np.ndarray
    f_minus: np.ndarray
    d1_f_minus: np.ndarray
    d2_f_minus: np.ndarray
    d3_f_minus: np.ndarray

    @property
    def d21_ld(self) -> np.ndarray:
        """Slot-(2,1) second derivative; the transpose of ``d12_ld``."""
        return self.d12_ld.T

    @property
    def newton_matrix(self) -> np.ndarray:
        """Derivative of the stepping residual with respect to ``q1``."""
        return self.d12_ld + self.d2_f_minus


def _midpoint(q0, q1, dt):
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    return 0.5 * (q0 + q1), (q1 - q0) / dt


def discrete_lagrangian(model: MechanicalModel, q0, q1, rho, dt: float) -> float:
    """Midpoint-quadrature action of one interval."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    qm, vm = _midpoint(q0, q1, dt)
    return dt * model.lagrangian(qm, vm, np.asarray(rho, dtype=float))


def discrete_force_minus(model: MechanicalModel, q0, q1, rho, t: float, dt: float) -> np.ndarray:
    """Discrete force of one interval (midpoint quadrature)."""
    qm, vm = _midpoint(q0, q1, dt)
    return dt * model.force(qm, vm, np.asarray(rho, dtype=float), t + 0.5 * dt)


def slot_derivatives(
    model: MechanicalModel, q0, q1, rho, t: float, dt: float
) -> DiscreteSlotDerivatives:
    """All slot derivatives of ``Ld`` and the discrete force on one interval.

    ``t`` is the time of the interval's left endpoint.  The closed forms
    follow from differentiating the midpoint map ``(q0, q1) -> (qm, vm)``:
    ``d qm / d q0 = I/2``, ``d vm / d q0 = -I/dt``, and the mirrored
    signs for ``q1``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rho = np.asarray(rho, dtype=float)
    qm, vm = _midpoint(q0, q1, dt)
    b = model.lagrangian_derivatives(qm, vm, rho)

    half_dt = 0.5 * dt
    d1_ld = half_dt * b.q_grad - b.v_grad
    d2_ld = half_dt * b.q_grad + b.v_grad

    qq = 0.25 * dt * b.qq
    sym = 0.5 * (b.qv + b.qv.T)
    skew = 0.5 * (b.qv - b.qv.T)
    vv_dt = b.vv / dt
    d11_ld = qq - sym + vv_dt
    d12_ld = qq + skew - vv_dt
    d22_ld = qq + sym + vv_dt

    d3d1_ld = half_dt * b.q_rho - b.v_rho
    d3d2_ld = half_dt * b.q_rho + b.v_rho

    tm = t + half_dt
    f = model.force(qm, vm, rho, tm)
    fq, fv, frho = model.force_jacobians(qm, vm, rho, tm)
    f_minus = dt * f
    d1_f_minus = half_dt * fq - fv
    d2_f_minus = half_dt * fq + fv
    d3_f_minus = dt * frho

    return DiscreteSlotDerivatives(
        d1_ld=d1_ld,
        d2_ld=d2_ld,
        d11_ld=d11_ld,
        d12_ld=d12_ld,
        d22_ld=d22_ld,
        d3d1_ld=d3d1_ld,
        d3d2_ld=d3d2_ld,
        f_minus=f_minus,
        d1_f_minus=d1_f_minus,
        d2_f_minus=d2_f_minus,
        d3_f_minus=d3_f_minus,
    )
