"""Command-line front end: data synthesis, simulation, checks, identification.

One experiment is one JSON config document.  Relative paths inside the
config resolve against the config file's directory; the output directory
may be overridden with ``--out`` and the noise seed with ``--seed``.

Exit codes: 0 success, 2 configuration or data-ingestion error, 3 solver
failure, 4 derivative-check failure.  Every failure prints one
machine-parseable line to stderr of the form

    error code=<config|solver|check>: <human text>

Determinism: all data artifacts written by a command are byte-identical
across reruns with the same config and seed.  Wall-clock timings, the one
unavoidably nondeterministic record, are confined to ``manifest.json``,
which also stores sha256 digests of every other artifact so reruns can be
compared through the manifest alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, IngestionError, SolverError
from .estimation import (
    CoordinateObservation,
    CostSpec,
    DescentSettings,
    FeedbackForce,
    LinkPositionObservation,
    identify,
    ingest_series,
    write_series_csv,
)
from .integrator import (
    SolverSettings,
    constraint_residuals,
    simulate,
    trajectory_energies,
    write_trajectory_csv,
    write_trajectory_json,
)
from .linearization import linearize_trajectory
from .checks import run_derivative_checks
from .model import ForcedModel
from .models import ChainModel, ClosedLoopModel, load_model
from .types import ParameterVector, TimeGrid

__all__ = ["main"]

# the check battery draws distinct states from a 60-step sampling rollout
_MAX_CHECK_POINTS = 59


# -- config plumbing -----------------------------------------------------------


def _read_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc["_sha256"] = hashlib.sha256(raw).hexdigest()
    doc["_dir"] = os.path.dirname(os.path.abspath(path))
    return doc


def _resolve(cfg: dict, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(cfg["_dir"], path)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field '{key}'")
    return cfg[key]


_REQUIRED = object()


@contextlib.contextmanager
def _reading(field: str):
    """Report a ``TypeError`` or ``ValueError`` raised while reading
    config ``field`` as a :class:`ConfigError` naming the field."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {field}: {exc}") from None


def _field(doc: dict, key: str, convert=float, default=_REQUIRED, section: str = ""):
    """``convert(doc[key])``, or ``convert(default)`` when ``key`` is
    absent; a missing required field or a value ``convert`` rejects
    raises :class:`ConfigError` naming ``section.key``."""
    name = f"{section}.{key}" if section else key
    if key not in doc and default is _REQUIRED:
        raise ConfigError(f"config is missing required field '{name}'")
    with _reading(name):
        return convert(doc.get(key, default))


def _section(cfg: dict, key: str) -> dict:
    doc = cfg.get(key, {})
    if not isinstance(doc, dict):
        raise ConfigError(f"'{key}' must be an object")
    return doc


def _vector(value, n: int) -> np.ndarray:
    """A number or a list, broadcast to a length-``n`` float array."""
    a = np.asarray(value, dtype=float)
    try:
        return np.broadcast_to(a, (n,)).astype(float)
    except ValueError:
        raise ValueError(f"must be a number or a length-{n} array") from None


def _nonnegative(value) -> float:
    x = float(value)
    if not x >= 0.0:
        raise ValueError(f"must be nonnegative, got {x:g}")
    return x


def _build_grid(cfg: dict) -> TimeGrid:
    g = _require(cfg, "grid")
    if not isinstance(g, dict):
        raise ConfigError("'grid' must be an object with dt and steps")
    with _reading("grid"):
        return TimeGrid(
            t0=_field(g, "t0", float, 0.0, "grid"),
            dt=_field(g, "dt", float, section="grid"),
            steps=_field(g, "steps", int, section="grid"),
        )


def _build_model(cfg: dict):
    doc = _require(cfg, "model")
    if isinstance(doc, str):
        doc = _resolve(cfg, doc)
        if not os.path.exists(doc):
            raise ConfigError(f"model file not found: {doc}")
    with _reading("model"):
        return load_model(doc)


def _rest_configuration(model) -> np.ndarray:
    if isinstance(model, ClosedLoopModel):
        return np.array(model.closed_rest)
    if isinstance(model, ChainModel):
        return np.array(model.rest_angles)
    return np.zeros(model.n_q)


def _initial_conditions(model, cfg: dict):
    init = _section(cfg, "initial")
    n = model.n_q
    q = init.get("q", "rest")
    if isinstance(q, str):
        if q != "rest":
            raise ConfigError(f"initial.q must be an array or \"rest\", got {q!r}")
        q = _rest_configuration(model)
    else:
        q = _field(init, "q", lambda v: np.asarray(v, dtype=float), section="initial")
    if q.shape != (n,):
        raise ConfigError(f"initial.q must have length {n}")
    v = _field(init, "v", lambda v: _vector(v, n), 0.0, "initial")
    return q, v


def _build_observation(model, cfg: dict):
    doc = cfg.get("observation")
    if doc is None:
        return CoordinateObservation(range(model.n_q), model.n_q)
    if not isinstance(doc, dict):
        raise ConfigError("'observation' must be an object")
    kind = doc.get("type")
    if kind == "coordinates":
        return _field(
            doc, "indices", lambda v: CoordinateObservation(v, model.n_q),
            section="observation",
        )
    if kind == "link_position":
        if not isinstance(model, ChainModel):
            raise ConfigError("link_position observation needs a chain model")
        return _field(
            doc, "link", lambda v: LinkPositionObservation(model, int(v)),
            section="observation",
        )
    raise ConfigError(f"unknown observation type: {kind!r}")


def _actuated(model, cfg: dict):
    if cfg.get("actuated") is None:
        return None
    idx = _field(cfg, "actuated", lambda v: np.asarray(list(v), dtype=int))
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= model.n_q:
        raise ConfigError("'actuated' must list valid joint indices")
    if np.unique(idx).size != idx.size:
        raise ConfigError("'actuated' must not repeat joints")
    return idx


def _excitation_series(cfg: dict, grid: TimeGrid, actuated) -> np.ndarray:
    """Applied-torque samples on the grid, shape ``(steps + 1, m)``.

    The drive is sampled once and played back by linear interpolation, so
    the synthesis run and the later identification run see exactly the
    same force law.
    """
    m = actuated.size
    doc = cfg.get("excitation")
    if doc is None:
        return np.zeros((grid.steps + 1, m))
    if not isinstance(doc, dict):
        raise ConfigError("'excitation' must be an object")
    kind = doc.get("type", "sinusoid")
    if kind != "sinusoid":
        raise ConfigError(f"unknown excitation type: {kind!r}")

    def channel(key, default):
        return _field(doc, key, lambda v: _vector(v, m), default, "excitation")

    amp = channel("amplitude", 0.0)
    freq = channel("frequency", 1.0)
    phase = channel("phase", 0.0)
    offset = channel("offset", 0.0)
    t = grid.times()[:, None]
    return offset + amp * np.sin(2.0 * np.pi * freq * t + phase)


def _solver_settings(cfg: dict) -> SolverSettings:
    doc = _section(cfg, "solver")
    with _reading("solver settings"):
        return SolverSettings(
            newton_tol=_field(doc, "newton_tol", float, 1e-10, "solver"),
            max_iters=_field(doc, "max_iters", int, 50, "solver"),
            predictor=doc.get("predictor", "linear-extrapolation"),
        )


def _descent_settings(cfg: dict) -> DescentSettings:
    doc = _section(cfg, "descent")
    with _reading("descent settings"):
        return DescentSettings(
            alpha=_field(doc, "alpha", float, 0.4, "descent"),
            beta=_field(doc, "beta", float, 0.4, "descent"),
            max_iters=_field(doc, "max_iters", int, 100, "descent"),
            grad_tol=_field(doc, "grad_tol", float, 1e-3, "descent"),
            initial_step=_field(doc, "initial_step", float, 1.0, "descent"),
            max_backtracks=_field(doc, "max_backtracks", int, 40, "descent"),
        )


def _rho_values(cfg: dict, model, key: str) -> np.ndarray:
    if key not in cfg and model.n_rho == 0:
        return np.zeros(0)
    rho = _field(cfg, key, lambda v: np.asarray(v, dtype=float))
    if rho.shape != (model.n_rho,):
        raise ConfigError(f"'{key}' must have length {model.n_rho}")
    return rho


def _effective_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        seed = _field(_section(cfg, "noise"), "seed", int, 0, "noise")
    if seed < 0:
        raise ConfigError(f"the noise seed must be nonnegative, got {seed}")
    return seed


def _output_dir(cfg: dict, args) -> str:
    if args.out is not None:
        out = args.out
    else:
        out = _field(cfg, "output_dir", lambda p: _resolve(cfg, p), "out")
    os.makedirs(out, exist_ok=True)
    return out


# -- artifacts ------------------------------------------------------------------


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, command, cfg, seed, artifacts, timings) -> None:
    """Atomic run record: config digest, artifact digests, timings."""
    doc = {
        "command": command,
        "version": __version__,
        "config_sha256": cfg["_sha256"],
        "seed": seed,
        "artifacts": {
            name: _sha256_file(os.path.join(out_dir, name)) for name in sorted(artifacts)
        },
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    _write_json(tmp, doc)
    os.replace(tmp, path)


def _playback_model(model, cfg: dict, grid: TimeGrid, actuated):
    """``(model, torques)``: the model driven by open-loop playback of the
    configured excitation on the actuated joints, and the sampled drive;
    ``(model, None)`` when nothing is actuated.  Identification later
    replays the identical interpolant with feedback switched on."""
    if actuated is None:
        return model, None
    torques = _excitation_series(cfg, grid, actuated)
    force = FeedbackForce(
        grid, model.n_q, actuated, torques, np.zeros_like(torques), gain=0.0
    )
    return ForcedModel(model, force), torques


def _dump_linearization(model, traj, rho, path) -> None:
    sens = linearize_trajectory(model, traj, rho)
    doc = {
        "n_q": traj.n_q,
        "n_rho": int(np.asarray(rho).size),
        "steps": [
            {"k": s.step_index, "A": s.A.tolist(), "B": s.B.tolist()}
            for s in sens
        ],
    }
    _write_json(path, doc)


def _series_names(prefix: str, indices) -> list:
    return [f"{prefix}_{int(i)}" for i in indices]


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    """Synthesize measured data: simulate at the true parameters, sample
    torques, actuated coordinates, and observations, add optional noise."""
    t_start = time.perf_counter()
    cfg = _read_config(args.config)
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    rho = _rho_values(cfg, model, "rho_true")
    q0, v0 = _initial_conditions(model, cfg)
    solver = _solver_settings(cfg)
    observation = _build_observation(model, cfg)
    actuated = _actuated(model, cfg)
    out_dir = _output_dir(cfg, args)
    seed = _effective_seed(cfg, args)
    noise = _section(cfg, "noise")
    obs_std = _field(noise, "observation_std", _nonnegative, 0.0, "noise")
    coord_std = _field(noise, "coordinate_std", _nonnegative, 0.0, "noise")
    torque_std = _field(noise, "torque_std", _nonnegative, 0.0, "noise")
    sim_model, torques = _playback_model(model, cfg, grid, actuated)

    t_sim = time.perf_counter()
    traj = simulate(sim_model, q0, v0, rho, grid, solver)
    sim_seconds = time.perf_counter() - t_sim

    times = grid.times()
    q_all = traj.q_array()
    observations = np.stack([observation.value(s.q) for s in traj.states])
    rng = np.random.default_rng(seed)

    artifacts = ["trajectory.csv", "trajectory.json", "observations.csv",
                 "observations_clean.csv"]
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    write_trajectory_json(
        traj,
        os.path.join(out_dir, "trajectory.json"),
        metadata={"rho_true": rho.tolist(), "config_sha256": cfg["_sha256"]},
    )

    obs_names = _series_names("y", range(observation.dim))
    write_series_csv(
        os.path.join(out_dir, "observations_clean.csv"), times, observations, obs_names
    )
    noisy_obs = observations + obs_std * rng.standard_normal(observations.shape)
    write_series_csv(
        os.path.join(out_dir, "observations.csv"), times, noisy_obs, obs_names
    )

    if actuated is not None:
        coords = q_all[:, actuated]
        coord_names = _series_names("b", actuated)
        tau_names = _series_names("tau", actuated)
        write_series_csv(
            os.path.join(out_dir, "coordinates_clean.csv"), times, coords, coord_names
        )
        noisy_coords = coords + coord_std * rng.standard_normal(coords.shape)
        write_series_csv(
            os.path.join(out_dir, "coordinates.csv"), times, noisy_coords, coord_names
        )
        write_series_csv(
            os.path.join(out_dir, "torques_clean.csv"), times, torques, tau_names
        )
        noisy_torques = torques + torque_std * rng.standard_normal(torques.shape)
        write_series_csv(
            os.path.join(out_dir, "torques.csv"), times, noisy_torques, tau_names
        )
        artifacts += ["coordinates.csv", "coordinates_clean.csv",
                      "torques.csv", "torques_clean.csv"]

    _write_manifest(
        out_dir, "generate", cfg, seed, artifacts,
        {"total": time.perf_counter() - t_start, "simulate": sim_seconds},
    )
    print(f"generate: wrote {len(artifacts)} artifacts to {out_dir}")
    return 0


def cmd_simulate(args) -> int:
    """Simulate a config and write the trajectory plus per-step energy
    and constraint-residual diagnostics."""
    t_start = time.perf_counter()
    cfg = _read_config(args.config)
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    key = "rho_true" if "rho_true" in cfg or "rho_initial" not in cfg else "rho_initial"
    rho = _rho_values(cfg, model, key)
    q0, v0 = _initial_conditions(model, cfg)
    solver = _solver_settings(cfg)
    actuated = _actuated(model, cfg)
    out_dir = _output_dir(cfg, args)
    seed = _effective_seed(cfg, args)
    sim_model, _ = _playback_model(model, cfg, grid, actuated)

    t_sim = time.perf_counter()
    traj = simulate(sim_model, q0, v0, rho, grid, solver)
    sim_seconds = time.perf_counter() - t_sim

    artifacts = ["trajectory.csv", "trajectory.json", "energy.csv"]
    write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    write_trajectory_json(
        traj,
        os.path.join(out_dir, "trajectory.json"),
        metadata={"rho": rho.tolist(), "config_sha256": cfg["_sha256"]},
    )

    energies = trajectory_energies(sim_model, traj, rho)
    residuals = constraint_residuals(sim_model, traj, rho)
    with open(os.path.join(out_dir, "energy.csv"), "w", newline="") as fh:
        fh.write("k,t,energy,constraint_residual\n")
        for k in range(1, grid.steps + 1):
            fh.write(
                f"{k},{grid.t(k):.17g},{energies[k - 1]:.17g},{residuals[k]:.17g}\n"
            )

    if args.dump_linearization:
        _dump_linearization(
            sim_model, traj, rho, os.path.join(out_dir, "linearization.json")
        )
        artifacts.append("linearization.json")

    _write_manifest(
        out_dir, "simulate", cfg, seed, artifacts,
        {"total": time.perf_counter() - t_start, "simulate": sim_seconds},
    )
    print(
        f"simulate: {grid.steps} steps, "
        f"final |h| = {residuals[-1]:.3e}, wrote {out_dir}"
    )
    return 0


def cmd_check(args) -> int:
    """Run the finite-difference oracle battery and report per-block lines."""
    cfg = _read_config(args.config)
    model = _build_model(cfg)
    key = "rho_true" if "rho_true" in cfg else "rho_initial"
    if key in cfg:
        rho = _rho_values(cfg, model, key)
    else:
        rho = np.ones(model.n_rho)
    check_doc = _section(cfg, "check")
    points = _field(check_doc, "points", int, 5, "check")
    if not 1 <= points <= _MAX_CHECK_POINTS:
        raise ConfigError(f"check.points must lie in [1, {_MAX_CHECK_POINTS}]")
    dt = _field(check_doc, "dt", float, _section(cfg, "grid").get("dt", 0.01), "check")
    if not dt > 0.0:
        raise ConfigError("check.dt must be positive")
    seed = _effective_seed(cfg, args)

    results = run_derivative_checks(
        model, rho, rest_q=_rest_configuration(model), seed=seed, points=points, dt=dt
    )
    failures = 0
    for r in sorted(results, key=lambda r: r.name):
        print(r.line())
        failures += not r.passed
    if failures:
        sys.stderr.write(
            f"error code=check: {failures} derivative check(s) failed\n"
        )
        return 4
    print(f"check: all {len(results)} derivative blocks pass")
    return 0


def cmd_identify(args) -> int:
    """Fit parameters to ingested measurement files and write the result,
    the convergence history, and per-iteration observation paths."""
    t_start = time.perf_counter()
    cfg = _read_config(args.config)
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    q0, v0 = _initial_conditions(model, cfg)
    solver = _solver_settings(cfg)
    descent = _descent_settings(cfg)
    observation = _build_observation(model, cfg)
    actuated = _actuated(model, cfg)
    out_dir = _output_dir(cfg, args)
    seed = _effective_seed(cfg, args)

    rho_init = _rho_values(cfg, model, "rho_initial")
    floor = _field(cfg, "parameter_floor", float, 1e-6)
    if np.any(rho_init < floor):
        raise ConfigError(
            f"rho_initial must be >= parameter_floor ({floor:g}) in every entry"
        )
    rho0 = ParameterVector.positive(rho_init, floor)
    terminal_weight = _field(cfg, "terminal_weight", float, 1.0)
    if actuated is not None:
        gain = _field(cfg, "gain", lambda v: _vector(v, actuated.size), 0.0)
        if np.any(gain < 0.0):
            raise ConfigError("gain must be nonnegative")

    data = _section(cfg, "data")
    # measured files default to the effective output directory, so a
    # generate/identify pair shares one config without extra plumbing
    data_dir = out_dir
    if "dir" in data:
        data_dir = _field(data, "dir", lambda p: _resolve(cfg, p), section="data")
    paths = {
        key: _field(data, key, lambda p: os.path.join(data_dir, p), f"{key}.csv", "data")
        for key in ("observations", "torques", "coordinates")
    }

    measured = ingest_series(paths["observations"], grid)
    if measured.shape[1] != observation.dim:
        raise IngestionError(
            f"observation file has {measured.shape[1]} channels, "
            f"the configured observation has {observation.dim}"
        )
    spec = CostSpec(
        observation=observation, measured=measured, terminal_weight=terminal_weight
    )

    force = None
    if actuated is not None:
        torques = ingest_series(paths["torques"], grid)
        coords = ingest_series(paths["coordinates"], grid)
        if torques.shape[1] != actuated.size or coords.shape[1] != actuated.size:
            raise IngestionError(
                "torque/coordinate files must have one column per actuated joint"
            )
        force = FeedbackForce(grid, model.n_q, actuated, torques, coords, gain)

    times = grid.times()
    obs_names = _series_names("y", range(observation.dim))
    path_rows = []

    def record_path(iteration, rho, cost_value, grad_norm, traj):
        for k, s in enumerate(traj.states):
            y = observation.value(s.q)
            path_rows.append((iteration, k, times[k], y))

    t_fit = time.perf_counter()
    result = identify(
        model, q0, v0, grid, spec, rho0,
        settings=descent, force=force, solver=solver, callback=record_path,
    )
    fit_seconds = time.perf_counter() - t_fit

    artifacts = ["result.json", "convergence.csv", "iteration_paths.csv"]
    _write_json(
        os.path.join(out_dir, "result.json"),
        {
            "rho_opt": result.rho_opt.values.tolist(),
            "iterations": result.iterations,
            "termination": result.termination,
            "cost_history": result.cost_history.tolist(),
            "grad_norm_history": result.grad_norm_history.tolist(),
            "rho_history": result.rho_history.tolist(),
            "config_sha256": cfg["_sha256"],
        },
    )

    with open(os.path.join(out_dir, "convergence.csv"), "w", newline="") as fh:
        rho_cols = ",".join(_series_names("rho", range(rho0.n)))
        fh.write(f"iteration,cost,grad_norm,{rho_cols}\n")
        for i, (c, g) in enumerate(
            zip(result.cost_history, result.grad_norm_history)
        ):
            rho_vals = ",".join(f"{x:.17g}" for x in result.rho_history[i])
            fh.write(f"{i},{c:.17g},{g:.17g},{rho_vals}\n")

    with open(os.path.join(out_dir, "iteration_paths.csv"), "w", newline="") as fh:
        fh.write("iteration,k,t," + ",".join(obs_names) + "\n")
        for iteration, k, t, y in path_rows:
            cells = ",".join(f"{x:.17g}" for x in y)
            fh.write(f"{iteration},{k},{t:.17g},{cells}\n")

    if args.dump_linearization:
        sim_model = model if force is None else ForcedModel(model, force)
        traj = simulate(sim_model, q0, v0, result.rho_opt.values, grid, solver)
        _dump_linearization(
            sim_model, traj, result.rho_opt.values,
            os.path.join(out_dir, "linearization.json"),
        )
        artifacts.append("linearization.json")

    _write_manifest(
        out_dir, "identify", cfg, seed, artifacts,
        {"total": time.perf_counter() - t_start, "identify": fit_seconds},
    )
    rho_txt = ", ".join(f"{x:.6g}" for x in result.rho_opt.values)
    print(
        f"identify: termination={result.termination} after {result.iterations} "
        f"iterations, cost {result.cost_history[0]:.6g} -> "
        f"{result.cost_history[-1]:.6g}, rho = [{rho_txt}]"
    )
    return 0


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varid",
        description=(
            "Simulate constrained mechanical systems with a variational "
            "integrator and identify stiffness parameters from trajectories."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": (cmd_generate, "synthesize measured data at the true parameters"),
        "simulate": (cmd_simulate, "roll out a trajectory and energy diagnostics"),
        "check": (cmd_check, "verify analytic derivatives against finite differences"),
        "identify": (cmd_identify, "fit parameters to measured data files"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON document")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--seed", type=int, default=None, help="override the config noise seed"
        )
        if name in ("simulate", "identify"):
            p.add_argument(
                "--dump-linearization",
                action="store_true",
                help="also write per-step sensitivity blocks as JSON",
            )
        p.set_defaults(func=func)
    return parser


def _one_line(text: str) -> str:
    return " ".join(str(text).split())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestionError) as exc:
        sys.stderr.write(f"error code=config: {_one_line(exc)}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error code=config: file not found: {_one_line(exc)}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"error code=solver: {_one_line(exc)}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
