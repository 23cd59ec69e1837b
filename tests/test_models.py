"""Bundled model families: derivatives, kinematics, constraints, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varid import (
    ChainModel,
    ClosedLoopModel,
    ConfigError,
    InfeasibleStartError,
    PendulumModel,
    StiffnessGrouping,
    continuous_oracle,
    forward_kinematics,
    forward_kinematics_jacobian,
    load_model,
    model_config,
    project_to_constraint,
    regular_closed_loop,
)
from varid.checks import finite_difference_jacobian, relative_error


def _bundle_matches_fd(model, rho, seed=0, tol=1e-7):
    """Compare every LagrangianBundle field against differences of L."""
    rng = np.random.default_rng(seed)
    q = 0.4 * rng.standard_normal(model.n_q)
    v = 0.8 * rng.standard_normal(model.n_q)
    rho = np.asarray(rho, dtype=float)
    b = model.lagrangian_derivatives(q, v, rho)

    assert b.value == pytest.approx(model.lagrangian(q, v, rho), rel=1e-12)
    fd_q = finite_difference_jacobian(lambda x: model.lagrangian(x, v, rho), q)
    fd_v = finite_difference_jacobian(lambda x: model.lagrangian(q, x, rho), v)
    assert relative_error(b.q_grad, fd_q) < tol
    assert relative_error(b.v_grad, fd_v) < tol

    grad_q = lambda x, y, r: model.lagrangian_derivatives(x, y, r).q_grad
    grad_v = lambda x, y, r: model.lagrangian_derivatives(x, y, r).v_grad
    assert relative_error(
        b.qq, finite_difference_jacobian(lambda x: grad_q(x, v, rho), q)
    ) < tol
    assert relative_error(
        b.vv, finite_difference_jacobian(lambda x: grad_v(q, x, rho), v)
    ) < tol
    # qv[i, j] = d^2 L / dq_i dv_j: differentiate the q gradient in v
    assert relative_error(
        b.qv, finite_difference_jacobian(lambda x: grad_q(q, x, rho), v)
    ) < tol
    if model.n_rho:
        assert relative_error(
            b.q_rho, finite_difference_jacobian(lambda r: grad_q(q, v, r), rho)
        ) < tol
        assert relative_error(
            b.v_rho, finite_difference_jacobian(lambda r: grad_v(q, v, r), rho)
        ) < tol
    # regularity invariants
    assert np.allclose(b.qq, b.qq.T, atol=1e-12)
    assert np.allclose(b.vv, b.vv.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(b.vv) > 0.0)


def test_pendulum_bundle_matches_finite_differences(pendulum):
    _bundle_matches_fd(pendulum, [2.0], seed=1)


def test_chain_bundle_matches_finite_differences(chain4):
    _bundle_matches_fd(chain4, [1.5, 0.7], seed=2)


def test_loop_bundle_matches_finite_differences(loop6):
    _bundle_matches_fd(loop6, [4.0, 1.0], seed=3)


def test_pendulum_potential_closed_form():
    model = PendulumModel(
        mass=2.0, length=0.5, gravity=10.0, spring_param=0, rest_angle=0.1
    )
    rho = np.array([3.0])
    q = np.array([0.4])
    # -m g l cos(q) + 0.5 k (q - rest)^2
    want = -2.0 * 10.0 * 0.5 * math.cos(0.4) + 0.5 * 3.0 * (0.4 - 0.1) ** 2
    assert model.potential_energy(q, rho) == pytest.approx(want, rel=1e-14)
    assert model.kinetic_energy(q, [2.0], rho) == pytest.approx(
        0.5 * 2.0 * 0.5**2 * 4.0, rel=1e-14
    )


def test_chain_kinetic_energy_positive(chain4, loop6):
    rng = np.random.default_rng(4)
    for model in (chain4, loop6):
        rho = np.ones(model.n_rho)
        for _ in range(10):
            q = rng.uniform(-math.pi, math.pi, model.n_q)
            v = rng.standard_normal(model.n_q)
            if np.linalg.norm(v) < 1e-6:
                continue
            assert model.kinetic_energy(q, v, rho) > 0.0


def test_single_link_chain_is_a_shifted_pendulum():
    """One chain link with the angle measured from the x axis equals the
    pendulum with its angle measured from the hanging vertical."""
    m, l, g = 1.3, 0.6, 9.81
    chain = ChainModel(link_lengths=[l], link_masses=[m], gravity=g)
    pend = PendulumModel(mass=m, length=l, gravity=g)
    rng = np.random.default_rng(7)
    for _ in range(5):
        th = rng.uniform(-2.0, 2.0)
        w = rng.uniform(-3.0, 3.0)
        lc = chain.lagrangian([th - 0.5 * math.pi], [w], np.zeros(0))
        lp = pend.lagrangian([th], [w], np.zeros(0))
        assert lc == pytest.approx(lp, rel=1e-12, abs=1e-12)


def test_forward_kinematics_closed_forms():
    chain = ChainModel(link_lengths=[1.0, 1.0], link_masses=[1.0, 1.0])
    assert np.allclose(forward_kinematics(chain, [0.0, 0.0], 0), [1.0, 0.0])
    assert np.allclose(forward_kinematics(chain, [0.0, 0.0], 1), [2.0, 0.0])
    up = forward_kinematics(chain, [0.5 * math.pi, 0.0], 1)
    assert np.allclose(up, [0.0, 2.0], atol=1e-15)
    # relative angles accumulate: quarter turn at each joint folds the chain
    folded = forward_kinematics(chain, [0.5 * math.pi, 0.5 * math.pi], 1)
    assert np.allclose(folded, [-1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        forward_kinematics(chain, [0.0, 0.0], 2)


def test_forward_kinematics_jacobian_matches_fd(chain4):
    rng = np.random.default_rng(9)
    q = rng.uniform(-1.0, 1.0, 4)
    for link in range(4):
        jac = forward_kinematics_jacobian(chain4, q, link)
        fd = finite_difference_jacobian(
            lambda x: forward_kinematics(chain4, x, link), q
        )
        assert relative_error(jac, fd) < 1e-8


def test_stiffness_grouping_maps():
    g = StiffnessGrouping(((0, 2), (1, 3)))
    assert g.n_groups == 2
    assert g.n_joints == 4
    assert np.array_equal(g.parameter_map(), [0, 1, 0, 1])
    round_trip = StiffnessGrouping.from_map(g.parameter_map())
    assert round_trip.groups == ((0, 2), (1, 3))


def test_stiffness_grouping_must_partition():
    with pytest.raises(ValueError):
        StiffnessGrouping(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        StiffnessGrouping(((0,), (2,)))  # gap
    with pytest.raises(ValueError):
        StiffnessGrouping(())


def test_chain_rejects_mismatched_grouping():
    with pytest.raises(ValueError):
        ChainModel(
            link_lengths=[1.0, 1.0],
            link_masses=[1.0, 1.0],
            stiffness_groups=StiffnessGrouping(((0, 1, 2),)),
        )


def test_chain_rejects_bad_geometry():
    with pytest.raises(ValueError):
        ChainModel(link_lengths=[], link_masses=[])
    with pytest.raises(ValueError):
        ChainModel(link_lengths=[1.0, -1.0], link_masses=[1.0, 1.0])
    with pytest.raises(ValueError):
        ChainModel(link_lengths=[1.0], link_masses=[1.0, 1.0])


def test_regular_loop_geometry(loop6):
    n, radius = 6, 0.355
    side = 2.0 * radius * math.sin(math.pi / n)
    assert np.allclose(loop6.link_lengths, side)
    assert np.allclose(loop6.anchor, [0.0, 0.0])
    # unstressed polygon closes onto the anchor
    h_rest = loop6.constraint(loop6.rest_angles, np.ones(2))
    assert np.max(np.abs(h_rest)) < 1e-12
    assert np.max(np.abs(loop6.constraint(loop6.closed_rest, np.ones(2)))) < 1e-10
    assert loop6.n_h == 2


def test_loop_constraint_derivatives_match_fd(loop6):
    rng = np.random.default_rng(12)
    rho = np.array([4.0, 1.0])
    q = loop6.closed_rest + 0.1 * rng.standard_normal(6)
    jac = loop6.constraint_jacobian(q, rho)
    fd = finite_difference_jacobian(lambda x: loop6.constraint(x, rho), q)
    assert relative_error(jac, fd) < 1e-8
    hess = loop6.constraint_hessian(q, rho)
    fd2 = finite_difference_jacobian(lambda x: loop6.constraint_jacobian(x, rho), q)
    assert relative_error(hess, fd2) < 1e-8


def test_loop_anchor_must_be_reachable():
    with pytest.raises(InfeasibleStartError):
        # total length 3, anchor 5 away
        ClosedLoopModel(
            link_lengths=[1.0, 1.0, 1.0],
            link_masses=[0.1, 0.1, 0.1],
            anchor=[5.0, 0.0],
        )


def test_projection_restores_feasibility(loop6):
    rng = np.random.default_rng(15)
    rho = np.array([4.0, 1.0])
    q_bad = loop6.closed_rest + 0.2 * rng.standard_normal(6)
    q_fixed = project_to_constraint(loop6, q_bad, rho)
    assert np.max(np.abs(loop6.constraint(q_fixed, rho))) < 1e-10
    # feasible input comes back unchanged
    same = project_to_constraint(loop6, q_fixed, rho)
    assert np.allclose(same, q_fixed, atol=1e-12)


def test_free_chain_conserves_energy_along_oracle():
    # no gravity, no springs, no damping: total energy is a motion invariant
    chain = ChainModel(
        link_lengths=[0.4, 0.3, 0.2],
        link_masses=[0.5, 0.3, 0.2],
        gravity=0.0,
    )
    rho = np.zeros(0)
    q0 = np.array([0.3, -0.4, 0.9])
    v0 = np.array([1.0, -0.5, 0.7])
    _, qs, vs = continuous_oracle(chain, q0, v0, rho, duration=1.0, steps=4000)
    energies = [
        chain.kinetic_energy(q, v, rho) + chain.potential_energy(q, rho)
        for q, v in zip(qs, vs)
    ]
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-8


def test_model_config_round_trip(pendulum, chain4, loop6):
    for model in (pendulum, chain4, loop6):
        doc = model_config(model)
        again = load_model(doc)
        assert type(again) is type(model)
        assert again.n_q == model.n_q
        assert again.n_rho == model.n_rho
        rng = np.random.default_rng(21)
        q = 0.3 * rng.standard_normal(model.n_q)
        v = rng.standard_normal(model.n_q)
        rho = np.ones(model.n_rho)
        assert again.lagrangian(q, v, rho) == pytest.approx(
            model.lagrangian(q, v, rho), rel=1e-12
        )


def test_load_model_shortcuts_and_errors():
    loop = load_model(
        {
            "type": "closed_loop",
            "n_links": 6,
            "radius": 0.355,
            "total_mass": 0.132,
            "gravity": 0.0,
        }
    )
    assert loop.n_q == 6
    assert np.allclose(loop.link_masses, 0.132 / 6)
    with pytest.raises(ConfigError):
        load_model({"type": "warp_drive"})
    with pytest.raises(ConfigError):
        load_model({"type": "chain"})  # no geometry at all
    with pytest.raises(ConfigError):
        load_model(["not", "a", "dict"])


# -- lean kinematics against the prefix tables ---------------------------------


@st.composite
def _chain_point(draw):
    """A random chain or closed loop of 3-24 links and a random (q, v, rho)."""
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(1, 3))
    cls = draw(st.sampled_from([ChainModel, ClosedLoopModel]))
    model = cls(
        link_lengths=rng.uniform(0.05, 2.0, n),
        link_masses=rng.uniform(0.05, 2.0, n),
        gravity=rng.uniform(0.0, 20.0),
        rest_angles=rng.uniform(-math.pi, math.pi, n),
        stiffness_groups=StiffnessGrouping.from_map(np.arange(n) % n_groups),
    )
    q = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
    v = 3.0 * rng.standard_normal(n)
    rho = rng.uniform(0.0, 10.0, n_groups)
    return model, q, v, rho


def _gathered_bundle_blocks(model, q, v, rho):
    """``qv``, ``qq`` and ``q_grad`` of the chain bundle through the
    ``(n, n, n, 2)`` gathers ``t0[maxab]`` and ``g1[maxab]``: the oracle
    for the contract-then-index form in ``ChainModel.lagrangian_derivatives``."""
    n = model.n_q
    m_j = model.link_masses
    tb = model._tables(q)
    t0, t1 = tb.t0, tb.t1
    cv = np.cumsum(v)
    av = np.cumsum(tb.wp * cv[:, None], axis=0)

    def weighted_max_contraction(t):
        s = v[:, None, None] * t
        cs = np.cumsum(s, axis=0)
        tail = cs[-1][None, :, :] - cs
        return cv[:, None, None] * t + tail

    g0 = weighted_max_contraction(t0)
    g1 = weighted_max_contraction(t1)
    idx = np.arange(n)
    maxab = np.maximum.outer(idx, idx)
    lq_ke = -np.einsum("jx,cjx,j->c", av, g0, m_j)
    t0max = t0[maxab]
    lqv = -np.einsum("jx,bcjx,j->cb", av, t0max, m_j) - np.einsum(
        "cjx,bjx,j->cb", g0, t1, m_j
    )
    lqq_ke = -np.einsum("jx,cdjx,j->cd", av, g1[maxab], m_j) + np.einsum(
        "cjx,djx,j->cd", g0, g0, m_j
    )
    g = model.gravity
    vg_grad = g * np.einsum("aj,j->a", t1[:, :, 1], m_j)
    vg_hess = -g * np.einsum("abj,j->ab", t0max[:, :, :, 1], m_j)
    kappa = model._joint_stiffness(rho)
    delta = q - model.rest_angles
    return lqv, lqq_ke - vg_hess - np.diag(kappa), lq_ke - vg_grad - kappa * delta


@settings(max_examples=200, deadline=None)
@given(_chain_point())
def test_lean_kinematics_bit_identical_to_tables(point):
    model, q, v, rho = point
    n = model.n_q
    tb = model._tables(q)
    idx = np.arange(n)
    maxab = np.maximum.outer(idx, idx)

    for link in range(n):
        assert np.array_equal(forward_kinematics(model, q, link), tb.ends[link])
        assert np.array_equal(
            forward_kinematics_jacobian(model, q, link), tb.t1[:, link, :].T
        )

    cv = np.cumsum(v)
    av = np.cumsum(tb.wp * cv[:, None], axis=0)
    ke = 0.5 * float(np.einsum("jx,jx,j->", av, av, model.link_masses))
    kappa = model._joint_stiffness(rho)
    delta = q - model.rest_angles
    pe = model.gravity * float(model.link_masses @ tb.ends[:, 1]) + 0.5 * float(
        kappa @ delta**2
    )
    assert model.kinetic_energy(q, v, rho) == ke
    assert model.potential_energy(q, rho) == pe

    b = model.lagrangian_derivatives(q, v, rho)
    qv, qq, q_grad = _gathered_bundle_blocks(model, q, v, rho)
    assert np.array_equal(b.qv, qv)
    assert np.array_equal(b.qq, qq)
    assert np.array_equal(b.q_grad, q_grad)

    if isinstance(model, ClosedLoopModel):
        assert np.array_equal(model.constraint(q, rho), tb.ends[-1] - model.anchor)
        assert np.array_equal(model.constraint_jacobian(q, rho), tb.t1[:, -1, :].T)
        assert np.array_equal(
            model.constraint_hessian(q, rho),
            np.transpose(-tb.t0[maxab, -1, :], (2, 0, 1)),
        )


def test_only_the_bundle_builds_chain_tables(loop6, monkeypatch):
    def no_tables(self, q):
        raise AssertionError("prefix tables built outside the bundle")

    monkeypatch.setattr(ChainModel, "_tables", no_tables)
    rng = np.random.default_rng(31)
    rho = np.array([4.0, 1.0])
    q = loop6.closed_rest + 0.1 * rng.standard_normal(6)
    v = rng.standard_normal(6)
    loop6.constraint(q, rho)
    loop6.constraint_jacobian(q, rho)
    loop6.constraint_hessian(q, rho)
    loop6.kinetic_energy(q, v, rho)
    loop6.potential_energy(q, rho)
    forward_kinematics(loop6, q, 3)
    forward_kinematics_jacobian(loop6, q, 3)
    # the default anchor and the projection of the rest shape
    ClosedLoopModel(
        link_lengths=loop6.link_lengths,
        link_masses=loop6.link_masses,
        rest_angles=loop6.rest_angles + 0.05,
    )
