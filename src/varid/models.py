"""Concrete planar models: torsional pendulum, serial chain, closed loop.

The chain family uses relative joint angles as coordinates.  Joint ``i``
rotates link ``i`` relative to link ``i - 1`` (link 0 relative to the
``+x`` axis), each link ``i`` has length ``l_i`` with a point mass at its
far end, and the base joint sits at the origin.  With absolute headings
``phi_i = q_0 + ... + q_i``, the end of link ``j`` is

    r_j(q) = sum_{m <= j} l_m * (cos phi_m, sin phi_m).

Every derivative reduces to prefix sums of the edge vectors ``w_m`` and
their quarter-turn rotations ``wp_m`` (:meth:`ChainModel._edges`).  The
loop constraint ``h``, its Jacobian and Hessian, the energies and the
forward kinematics read cumulative sums of the edges directly; only the
Lagrangian bundle builds the ``(n, n, 2)`` tables of
:meth:`ChainModel._tables`.

Torsional springs act on joint deflections ``q_i - rest_i``.  Joints are
partitioned into stiffness groups that share one parameter each, so the
identifiable vector ``rho`` holds one stiffness per group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleStartError
from .model import LagrangianBundle, MechanicalModel

__all__ = [
    "PendulumModel",
    "StiffnessGrouping",
    "ChainModel",
    "ClosedLoopModel",
    "forward_kinematics",
    "forward_kinematics_jacobian",
    "project_to_constraint",
    "regular_closed_loop",
    "load_model",
    "model_config",
]


class PendulumModel(MechanicalModel):
    """Planar pendulum: point mass ``m`` on a rigid rod of length ``l``.

    The angle is measured from the downward vertical, so ``q = 0`` is the
    stable hanging equilibrium.  An optional torsional spring at the
    pivot contributes ``0.5 * rho[spring_param] * (q - rest_angle)^2`` to
    the potential; viscous damping with known coefficient enters the
    force channel.
    """

    def __init__(
        self,
        mass: float = 1.0,
        length: float = 1.0,
        gravity: float = 9.81,
        damping: float = 0.0,
        spring_param: Optional[int] = None,
        rest_angle: float = 0.0,
        n_rho: Optional[int] = None,
    ):
        if mass <= 0.0 or length <= 0.0:
            raise ValueError("mass and length must be positive")
        self.mass = float(mass)
        self.length = float(length)
        self.gravity = float(gravity)
        self.damping = float(damping)
        self.spring_param = spring_param
        self.rest_angle = float(rest_angle)
        if n_rho is None:
            n_rho = 0 if spring_param is None else spring_param + 1
        if spring_param is not None and not (0 <= spring_param < n_rho):
            raise ValueError("spring_param must index into the parameter vector")
        self._n_rho = int(n_rho)

    @property
    def n_q(self):
        return 1

    @property
    def n_rho(self):
        return self._n_rho

    def _stiffness(self, rho):
        if self.spring_param is None:
            return 0.0
        return float(np.asarray(rho, dtype=float)[self.spring_param])

    def kinetic_energy(self, q, v, rho):
        v0 = float(np.asarray(v)[0])
        return 0.5 * self.mass * self.length**2 * v0**2

    def potential_energy(self, q, rho):
        th = float(np.asarray(q)[0])
        k = self._stiffness(rho)
        return (
            -self.mass * self.gravity * self.length * math.cos(th)
            + 0.5 * k * (th - self.rest_angle) ** 2
        )

    def lagrangian_derivatives(self, q, v, rho):
        th = float(np.asarray(q)[0])
        v0 = float(np.asarray(v)[0])
        m, l, g = self.mass, self.length, self.gravity
        k = self._stiffness(rho)
        dth = th - self.rest_angle
        q_rho = np.zeros((1, self._n_rho))
        if self.spring_param is not None:
            q_rho[0, self.spring_param] = -dth
        return LagrangianBundle(
            value=0.5 * m * l**2 * v0**2 + m * g * l * math.cos(th) - 0.5 * k * dth**2,
            q_grad=np.array([-m * g * l * math.sin(th) - k * dth]),
            v_grad=np.array([m * l**2 * v0]),
            qq=np.array([[-m * g * l * math.cos(th) - k]]),
            qv=np.zeros((1, 1)),
            vv=np.array([[m * l**2]]),
            q_rho=q_rho,
            v_rho=np.zeros((1, self._n_rho)),
        )

    def force(self, q, v, rho, t):
        return np.array([-self.damping * float(np.asarray(v)[0])])

    def force_jacobians(self, q, v, rho, t):
        fv = np.array([[-self.damping]])
        return np.zeros((1, 1)), fv, np.zeros((1, self._n_rho))


@dataclass(frozen=True)
class StiffnessGrouping:
    """Partition of joint indices into groups sharing one stiffness each.

    ``groups[g]`` lists the joints whose springs use parameter ``g``.
    The groups must partition ``{0, ..., n_joints - 1}`` exactly.
    """

    groups: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
        )
        flat = [i for g in self.groups for i in g]
        if not flat:
            raise ValueError("grouping must contain at least one joint")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must partition the joint index set")

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def n_joints(self):
        return sum(len(g) for g in self.groups)

    def parameter_map(self) -> np.ndarray:
        """Per-joint parameter index, shape ``(n_joints,)``."""
        out = np.empty(self.n_joints, dtype=int)
        for g, joints in enumerate(self.groups):
            for i in joints:
                out[i] = g
        return out

    @classmethod
    def from_map(cls, parameter_map: Sequence[int]) -> "StiffnessGrouping":
        pm = np.asarray(parameter_map, dtype=int)
        groups = [[] for _ in range(pm.max() + 1)]
        for joint, g in enumerate(pm):
            groups[g].append(joint)
        return cls(tuple(tuple(g) for g in groups))


def _padded_cumsum(x: np.ndarray) -> np.ndarray:
    """Cumulative sum of the rows of ``x`` after a leading zero row."""
    out = np.zeros((x.shape[0] + 1, x.shape[1]))
    np.cumsum(x, axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class _ChainTables:
    """Prefix-sum tables of one configuration; see module docstring.

    ``t0[a, j] = sum_{m=a..j} w_m`` and ``t1`` likewise for the rotated
    edges ``wp_m``; entries with ``a > j`` are zero.  ``ends[j]`` is the
    position of link ``j``'s far end.
    """

    wp: np.ndarray
    ends: np.ndarray
    t0: np.ndarray
    t1: np.ndarray


class ChainModel(MechanicalModel):
    """Serial chain of rigid links with point masses at the link ends."""

    def __init__(
        self,
        link_lengths: Sequence[float],
        link_masses: Sequence[float],
        gravity: float = 9.81,
        rest_angles: Optional[Sequence[float]] = None,
        stiffness_groups: Optional[StiffnessGrouping] = None,
        damping=None,
    ):
        self.link_lengths = np.asarray(link_lengths, dtype=float)
        self.link_masses = np.asarray(link_masses, dtype=float)
        n = self.link_lengths.size
        if n < 1:
            raise ValueError("a chain needs at least one link")
        if self.link_masses.shape != (n,):
            raise ValueError("link_masses must match link_lengths in length")
        if np.any(self.link_lengths <= 0) or np.any(self.link_masses <= 0):
            raise ValueError("link lengths and masses must be positive")
        self.gravity = float(gravity)
        if rest_angles is None:
            rest_angles = np.zeros(n)
        self.rest_angles = np.asarray(rest_angles, dtype=float)
        if self.rest_angles.shape != (n,):
            raise ValueError("rest_angles must have one entry per joint")
        if stiffness_groups is not None and not isinstance(
            stiffness_groups, StiffnessGrouping
        ):
            stiffness_groups = StiffnessGrouping(tuple(stiffness_groups))
        if stiffness_groups is not None and stiffness_groups.n_joints != n:
            raise ValueError("stiffness grouping must cover every joint")
        self.stiffness_groups = stiffness_groups
        self._param_map = (
            stiffness_groups.parameter_map() if stiffness_groups is not None else None
        )
        if damping is None:
            damping = np.zeros(n)
        self.damping = np.broadcast_to(
            np.asarray(damping, dtype=float), (n,)
        ).copy()

    @property
    def n_q(self):
        return self.link_lengths.size

    @property
    def n_rho(self):
        return 0 if self.stiffness_groups is None else self.stiffness_groups.n_groups

    # -- kinematics ------------------------------------------------------

    def _edges(self, q):
        """Edges ``w_m = l_m (cos phi_m, sin phi_m)`` and their rotations
        ``wp_m = l_m (-sin phi_m, cos phi_m)``, each ``(n, 2)``."""
        phi = np.cumsum(np.asarray(q, dtype=float))
        w = np.empty((phi.size, 2))
        np.cos(phi, out=w[:, 0])
        np.sin(phi, out=w[:, 1])
        w *= self.link_lengths[:, None]
        # negation is exact, so wp holds the bits of l * (-sin phi, cos phi)
        return w, w[:, ::-1] * (-1.0, 1.0)

    def _tables(self, q) -> _ChainTables:
        n = self.n_q
        w, wp = self._edges(q)
        # prefix sums with a zero row so t[a, j] = cum[j + 1] - cum[a]
        cum0 = _padded_cumsum(w)
        cum1 = _padded_cumsum(wp)
        mask = (np.arange(n)[:, None] <= np.arange(n)[None, :])[:, :, None]
        t0 = (cum0[None, 1:] - cum0[:n, None]) * mask
        t1 = (cum1[None, 1:] - cum1[:n, None]) * mask
        return _ChainTables(wp=wp, ends=cum0[1:], t0=t0, t1=t1)

    def _joint_stiffness(self, rho) -> np.ndarray:
        if self._param_map is None:
            return np.zeros(self.n_q)
        return np.asarray(rho, dtype=float)[self._param_map]

    # -- energies ----------------------------------------------------------

    def kinetic_energy(self, q, v, rho):
        _, wp = self._edges(q)
        v = np.asarray(v, dtype=float)
        av = np.cumsum(wp * np.cumsum(v)[:, None], axis=0)
        return 0.5 * float(np.einsum("jx,jx,j->", av, av, self.link_masses))

    def potential_energy(self, q, rho):
        w, _ = self._edges(q)
        q = np.asarray(q, dtype=float)
        vg = self.gravity * float(self.link_masses @ np.cumsum(w, axis=0)[:, 1])
        kappa = self._joint_stiffness(rho)
        delta = q - self.rest_angles
        return vg + 0.5 * float(kappa @ delta**2)

    # -- Lagrangian bundle ---------------------------------------------------

    def lagrangian_derivatives(self, q, v, rho):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        n = self.n_q
        m_j = self.link_masses
        tb = self._tables(q)
        t0, t1 = tb.t0, tb.t1

        cv = np.cumsum(v)
        # velocity of each link end and its q-contractions
        av = np.cumsum(tb.wp * cv[:, None], axis=0)  # (n, 2)

        # g0[e, j] = sum_a v_a t0[max(a, e), j]  (and g1 from t1)
        def weighted_max_contraction(t):
            s = v[:, None, None] * t
            cs = np.cumsum(s, axis=0)
            tail = cs[-1][None, :, :] - cs
            return cv[:, None, None] * t + tail

        g0 = weighted_max_contraction(t0)
        g1 = weighted_max_contraction(t1)

        idx = np.arange(n)
        maxab = np.maximum.outer(idx, idx)

        mass_mat = np.einsum("ajx,bjx,j->ab", t1, t1, m_j)
        ke = 0.5 * float(np.einsum("jx,jx,j->", av, av, m_j))
        lv = mass_mat @ v

        # hv[c, j] = sum_a v_a * hess[j, a, c] = -g0[c, j]
        lq_ke = -np.einsum("jx,cjx,j->c", av, g0, m_j)
        # terms that read table row max(b, c): contract the rows, then index
        u0 = np.einsum("jx,ejx,j->e", av, t0, m_j)
        u1 = np.einsum("jx,ejx,j->e", av, g1, m_j)
        # qv block: d^2 L / dq_c dv_b
        lqv = -u0[maxab] - np.einsum("cjx,bjx,j->cb", g0, t1, m_j)
        lqq_ke = -u1[maxab] + np.einsum("cjx,djx,j->cd", g0, g0, m_j)

        # gravity
        g = self.gravity
        vg_grad = g * np.einsum("aj,j->a", t1[:, :, 1], m_j)
        vg_hess = -g * np.einsum("ej,j->e", t0[:, :, 1], m_j)[maxab]

        # springs
        kappa = self._joint_stiffness(rho)
        delta = q - self.rest_angles
        vs = 0.5 * float(kappa @ delta**2)
        vg = g * float(m_j @ tb.ends[:, 1])

        q_rho = np.zeros((n, self.n_rho))
        if self._param_map is not None:
            q_rho[idx, self._param_map] = -delta

        return LagrangianBundle(
            value=ke - vg - vs,
            q_grad=lq_ke - vg_grad - kappa * delta,
            v_grad=lv,
            qq=lqq_ke - vg_hess - np.diag(kappa),
            qv=lqv,
            vv=mass_mat,
            q_rho=q_rho,
            v_rho=np.zeros((n, self.n_rho)),
        )

    # -- forces -------------------------------------------------------------

    def force(self, q, v, rho, t):
        return -self.damping * np.asarray(v, dtype=float)

    def force_jacobians(self, q, v, rho, t):
        n = self.n_q
        return np.zeros((n, n)), -np.diag(self.damping), np.zeros((n, self.n_rho))


class ClosedLoopModel(ChainModel):
    """Serial chain whose last link end is pinned to a fixed anchor.

    The two-equation constraint ``h(q) = r_last(q) - anchor`` closes the
    chain into a loop.  By default the anchor is wherever the rest shape
    ends, so an unstressed regular polygon closes exactly.  Construction
    verifies that a feasible configuration exists by projecting the rest
    angles onto the constraint; the result is kept as ``closed_rest`` and
    makes a convenient initial configuration.
    """

    def __init__(
        self,
        link_lengths,
        link_masses,
        gravity: float = 9.81,
        rest_angles=None,
        stiffness_groups=None,
        damping=None,
        anchor=None,
    ):
        super().__init__(
            link_lengths,
            link_masses,
            gravity=gravity,
            rest_angles=rest_angles,
            stiffness_groups=stiffness_groups,
            damping=damping,
        )
        if anchor is None:
            anchor = forward_kinematics(self, self.rest_angles, self.n_q - 1)
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != (2,):
            raise ValueError("anchor must be a 2-vector")
        if np.linalg.norm(self.anchor) > self.link_lengths.sum() + 1e-12:
            raise InfeasibleStartError(
                "anchor lies outside the chain's reach: "
                f"|anchor| = {np.linalg.norm(self.anchor):.6g} > "
                f"total length {self.link_lengths.sum():.6g}"
            )
        self.closed_rest = project_to_constraint(
            self, self.rest_angles, np.zeros(self.n_rho)
        )

    @property
    def n_h(self):
        return 2

    def constraint(self, q, rho):
        w, _ = self._edges(q)
        return np.cumsum(w, axis=0)[-1] - self.anchor

    def constraint_jacobian(self, q, rho):
        # rows: x, y of the last link end; columns: joints
        n = self.n_q
        cum1 = _padded_cumsum(self._edges(q)[1])
        return (cum1[n] - cum1[:n]).T

    def constraint_hessian(self, q, rho):
        n = self.n_q
        cum0 = _padded_cumsum(self._edges(q)[0])
        idx = np.arange(n)
        h = -(cum0[n] - cum0[:n])[np.maximum.outer(idx, idx)]  # (a, b, 2)
        return np.transpose(h, (2, 0, 1))


def forward_kinematics(model: ChainModel, q, link: int) -> np.ndarray:
    """Position of the far end of ``link`` (0-based)."""
    if not 0 <= link < model.n_q:
        raise ValueError(f"link index {link} out of range")
    w, _ = model._edges(q)
    return np.cumsum(w, axis=0)[link]


def forward_kinematics_jacobian(model: ChainModel, q, link: int) -> np.ndarray:
    """Jacobian of :func:`forward_kinematics`, shape ``(2, n_q)``."""
    if not 0 <= link < model.n_q:
        raise ValueError(f"link index {link} out of range")
    n = model.n_q
    cum1 = _padded_cumsum(model._edges(q)[1])
    return ((cum1[link + 1] - cum1[:n]) * (np.arange(n) <= link)[:, None]).T


def project_to_constraint(
    model: MechanicalModel, q, rho, tol: float = 1e-10, max_iters: int = 50
) -> np.ndarray:
    """Project a configuration onto the constraint manifold.

    Gauss-Newton with the pseudoinverse step, so the correction is the
    minimum-norm one.  Returns the input unchanged when it is already
    feasible.  Raises :class:`InfeasibleStartError` when no feasible
    point is found within the iteration budget.
    """
    q = np.array(q, dtype=float, copy=True)
    rho = np.asarray(rho, dtype=float)
    if model.n_h == 0:
        return q
    for _ in range(max_iters):
        h = model.constraint(q, rho)
        if np.max(np.abs(h)) < tol:
            return q
        jac = model.constraint_jacobian(q, rho)
        delta, *_ = np.linalg.lstsq(jac, -h, rcond=None)
        q += delta
    raise InfeasibleStartError(
        f"constraint projection did not reach |h| < {tol:g} in {max_iters} iterations "
        f"(final residual {np.max(np.abs(model.constraint(q, rho))):.3e})"
    )


def regular_closed_loop(
    n_links: int,
    radius: float,
    total_mass: float,
    stiffness_groups: Optional[StiffnessGrouping] = None,
    gravity: float = 9.81,
    damping=0.0,
) -> ClosedLoopModel:
    """Closed loop whose rest shape is a regular polygon.

    The polygon is inscribed in a circle of the given radius, stands on a
    vertex at the origin (the clamp), and distributes the total mass
    uniformly over the link ends.  Joint rest angles are the polygon's
    exterior turn, so the unstressed shape closes onto the anchor at the
    origin.
    """
    if n_links < 3:
        raise ValueError("a closed loop needs at least 3 links")
    side = 2.0 * radius * math.sin(math.pi / n_links)
    rest = np.full(n_links, 2.0 * math.pi / n_links)
    rest[0] = 0.5 * math.pi - math.pi / n_links
    return ClosedLoopModel(
        link_lengths=np.full(n_links, side),
        link_masses=np.full(n_links, total_mass / n_links),
        gravity=gravity,
        rest_angles=rest,
        stiffness_groups=stiffness_groups,
        damping=damping,
        anchor=np.zeros(2),
    )


# -- JSON round trip ---------------------------------------------------------


def model_config(model: MechanicalModel) -> dict:
    """Canonical JSON-serializable description of a bundled model."""
    if isinstance(model, PendulumModel):
        return {
            "type": "pendulum",
            "mass": model.mass,
            "length": model.length,
            "gravity": model.gravity,
            "damping": model.damping,
            "spring_param": model.spring_param,
            "rest_angle": model.rest_angle,
            "n_params": model.n_rho,
        }
    if isinstance(model, ChainModel):
        doc = {
            "type": "closed_loop" if isinstance(model, ClosedLoopModel) else "chain",
            "link_lengths": model.link_lengths.tolist(),
            "link_masses": model.link_masses.tolist(),
            "gravity": model.gravity,
            "rest_angles": model.rest_angles.tolist(),
            "damping": model.damping.tolist(),
            "stiffness_groups": None
            if model.stiffness_groups is None
            else [list(g) for g in model.stiffness_groups.groups],
        }
        if isinstance(model, ClosedLoopModel):
            doc["anchor"] = model.anchor.tolist()
        return doc
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def load_model(doc) -> MechanicalModel:
    """Build a model from a JSON document (dict, JSON string, or path)."""
    if isinstance(doc, str):
        if doc.lstrip().startswith("{"):
            doc = json.loads(doc)
        else:
            with open(doc) as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("model document must be a JSON object")
    kind = doc.get("type")
    try:
        if kind == "pendulum":
            return PendulumModel(
                mass=doc.get("mass", 1.0),
                length=doc.get("length", 1.0),
                gravity=doc.get("gravity", 9.81),
                damping=doc.get("damping", 0.0),
                spring_param=doc.get("spring_param"),
                rest_angle=doc.get("rest_angle", 0.0),
                n_rho=doc.get("n_params"),
            )
        if kind in ("chain", "closed_loop"):
            if "link_lengths" in doc:
                lengths = np.asarray(doc["link_lengths"], dtype=float)
            elif kind == "closed_loop" and "n_links" in doc and "radius" in doc:
                n = int(doc["n_links"])
                lengths = np.full(n, 2.0 * doc["radius"] * math.sin(math.pi / n))
            else:
                raise ConfigError("chain model needs link_lengths")
            n = lengths.size
            if "link_masses" in doc:
                masses = np.asarray(doc["link_masses"], dtype=float)
            elif "total_mass" in doc:
                masses = np.full(n, float(doc["total_mass"]) / n)
            else:
                raise ConfigError("chain model needs link_masses or total_mass")
            groups = doc.get("stiffness_groups")
            if groups is not None:
                groups = StiffnessGrouping(tuple(tuple(g) for g in groups))
            rest = doc.get("rest_angles")
            if rest is None and kind == "closed_loop":
                rest = np.full(n, 2.0 * math.pi / n)
                rest[0] = 0.5 * math.pi - math.pi / n
            common = dict(
                link_lengths=lengths,
                link_masses=masses,
                gravity=doc.get("gravity", 9.81),
                rest_angles=rest,
                stiffness_groups=groups,
                damping=doc.get("damping", 0.0),
            )
            if kind == "chain":
                return ChainModel(**common)
            return ClosedLoopModel(anchor=doc.get("anchor"), **common)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model document: {exc}") from exc
    raise ConfigError(f"unknown model type: {kind!r}")
