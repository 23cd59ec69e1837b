"""Output checks that do not trust the program under test.

Every check recomputes its reference from first principles (numpy only)
or tests a property the method guarantees, and returns a list of
human-readable failures; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

RHO_REL_TOL = 0.01  # fitted stiffness within 1% of the generating value
GRADIENT_REL_TOL = 1e-5  # same tolerance as the program's adjoint check
CLOSURE_TOL = 1e-10  # the integrator's Newton tolerance on |h|


def fit_errors(result: dict, rho_true) -> list:
    """Check one ``result.json`` of ``varid identify``."""
    errors = []
    rho = np.asarray(result["rho_opt"], dtype=float)
    truth = np.asarray(rho_true, dtype=float)
    rel = np.max(np.abs(rho / truth - 1.0))
    if not rel <= RHO_REL_TOL:
        errors.append(f"fitted rho {rho.tolist()} is {rel:.3e} from rho_true")
    if result["termination"] != "grad_tol":
        errors.append(f"termination {result['termination']!r}, expected 'grad_tol'")
    costs = np.asarray(result["cost_history"], dtype=float)
    if costs.size < 1 or np.any(np.diff(costs) > 0.0):
        errors.append("cost history increases (Armijo descent must not)")
    return errors


def mismatch_cost(observed, measured, terminal_weight: float = 1.0) -> float:
    """Observation mismatch over samples 1..K plus the terminal term at K.

    Written from the cost's definition, not from the program's code.
    """
    eps = np.asarray(observed, dtype=float) - np.asarray(measured, dtype=float)
    running = float(np.sum(eps[1:] ** 2))
    return running + terminal_weight * float(np.sum(eps[-1] ** 2))


def stencil(x, eps: float = 1e-6):
    """Central-difference points around ``x`` and their steps.

    The points are ``x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ...`` with
    ``h_i = eps * (1 + |x_i|)``.
    """
    x = np.asarray(x, dtype=float)
    steps = eps * (1.0 + np.abs(x))
    points = []
    for i in range(x.size):
        for sign in (1.0, -1.0):
            p = x.copy()
            p[i] += sign * steps[i]
            points.append(p)
    return points, steps


def central_quotients(values, steps) -> np.ndarray:
    """Central differences from a function's values at ``stencil`` points."""
    pairs = np.asarray(values, dtype=float).reshape(-1, 2)
    return (pairs[:, 0] - pairs[:, 1]) / (2.0 * np.asarray(steps, dtype=float))


def central_difference(f, x, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function, step ``eps * (1 + |x_i|)``."""
    points, steps = stencil(x, eps)
    return central_quotients([f(p) for p in points], steps)


def gradient_errors(gradient, reference) -> list:
    """Componentwise relative agreement, so no small component can hide."""
    g = np.asarray(gradient, dtype=float)
    ref = np.asarray(reference, dtype=float)
    rel = np.abs(g - ref) / np.abs(ref)
    if g.shape != ref.shape or not np.all(rel <= GRADIENT_REL_TOL):
        return [
            f"adjoint gradient {g.tolist()} vs finite differences {ref.tolist()}: "
            f"relative error {rel.tolist()}"
        ]
    return []


def cost_errors(program_cost: float, own_cost: float) -> list:
    if not abs(program_cost - own_cost) <= 1e-12 * max(1.0, abs(own_cost)):
        return [f"program cost {program_cost!r} vs recomputed {own_cost!r}"]
    return []


def loop_tip(q, radius: float) -> np.ndarray:
    """Far end of a regular closed loop's last link for each row of ``q``.

    Link length ``2 r sin(pi / n)``; absolute link angles are the
    cumulative joint angles.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = q.shape[1]
    length = 2.0 * radius * math.sin(math.pi / n)
    phi = np.cumsum(q, axis=1)
    return length * np.stack([np.cos(phi).sum(axis=1), np.sin(phi).sum(axis=1)], axis=1)


def read_q_columns(path) -> np.ndarray:
    """The ``q_*`` columns of a ``trajectory.csv``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [i for i, name in enumerate(header) if name.startswith("q_")]
    if not cols:
        raise ValueError(f"{path}: no q_ columns")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def closure_errors(q, radius: float, anchor=(0.0, 0.0)) -> list:
    """The loop's tip stays on its anchor at every sample."""
    gap = np.max(np.abs(loop_tip(q, radius) - np.asarray(anchor, dtype=float)))
    if not gap <= CLOSURE_TOL:
        return [f"loop opens by {gap:.3e} (tolerance {CLOSURE_TOL:.0e})"]
    return []
