"""One benchmark process: set a workload up, then run its operations.

``run.py`` starts this file once per set-up sample and once for the load.
It prints ``READY`` when the workload's inputs exist; in ``setup`` mode it
stops there.  In ``load`` mode it runs one untimed warm-up operation and
then ``--reps`` timed ones; in ``trace`` mode it runs a warm-up, one
untraced reference operation and the same operation again under the
tracer.  Every operation's output is checked.  The last stdout line is a
JSON object with the outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracer import Tracer
import verify

from varid import cli, estimation, integrator, linearization, models
from varid.model import ForcedModel
from varid.types import TimeGrid


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"varid {argv[0]} exited with status {code}")


def _artifact_bytes(out_dir) -> int:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        names = json.load(fh)["artifacts"]
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


class FitLoop6:
    """``varid identify`` on loop6 data that ``varid generate`` made.

    The horizon is cut from 2000 to 280 steps so one fit takes seconds;
    280 is the shortest horizon tried (100-320) on which the fit still
    ends by ``grad_tol`` with rho within 1% of the truth.
    """

    steps = 280
    same_output_every_op = True

    def __init__(self, root, out, seed, reps):
        self.root, self.out, self.seed = root, out, seed
        self.config = os.path.join(out, "config.json")
        self.fit_dir = os.path.join(out, "fit")

    def setup(self):
        with open(os.path.join(self.root, "configs", "loop6.json")) as fh:
            cfg = json.load(fh)
        cfg["grid"]["steps"] = self.steps
        cfg["data"] = {"dir": "data"}
        self.rho_true = cfg["rho_true"]
        with open(self.config, "w") as fh:
            json.dump(cfg, fh, indent=2)
        _run_cli(["generate", "--config", self.config,
                  "--out", os.path.join(self.out, "data"), "--seed", str(self.seed)])

    def operation(self, index):
        _run_cli(["identify", "--config", self.config, "--out", self.fit_dir,
                  "--seed", str(self.seed)])

    def result(self, index):
        path = os.path.join(self.fit_dir, "result.json")
        with open(path) as fh:
            doc = json.load(fh)
        errors = verify.fit_errors(doc, self.rho_true)
        return _sha256(path), errors

    def run_errors(self):
        return []

    def artifact_bytes(self):
        return _artifact_bytes(self.fit_dir)


class GradientLoop12:
    """One cost-and-gradient evaluation on the full 2000-step loop12
    against noisy measurements, at a fixed sequence of rho points.

    The warm-up (index 0) evaluates at the midpoint of the segment from
    the initial guess to the truth; the timed operations then walk the
    central-difference stencil around that midpoint, round after round.
    The costs of one round, recomputed by the benchmark, give the finite
    differences that the warm-up's adjoint gradient is checked against,
    so the check costs no rollouts of its own.
    """

    observation_std = 0.005
    same_output_every_op = False

    def __init__(self, root, out, seed, reps):
        self.root, self.out, self.seed = root, out, seed
        self.last = None
        self.own_costs = {}
        self.center_gradient = None

    def setup(self):
        with open(os.path.join(self.root, "configs", "loop12.json")) as fh:
            cfg = json.load(fh)
        cfg["noise"]["observation_std"] = self.observation_std
        config = os.path.join(self.out, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh, indent=2)
        data = os.path.join(self.out, "data")
        _run_cli(["generate", "--config", config, "--out", data,
                  "--seed", str(self.seed)])

        g = cfg["grid"]
        self.grid = TimeGrid(t0=g["t0"], dt=g["dt"], steps=g["steps"])
        series = {
            name: estimation.ingest_series(os.path.join(data, f"{name}.csv"), self.grid)
            for name in ("observations", "torques", "coordinates")
        }
        model = models.load_model(cfg["model"])
        force = estimation.FeedbackForce(
            self.grid, model.n_q, cfg["actuated"],
            series["torques"], series["coordinates"], cfg["gain"],
        )
        self.model = ForcedModel(model, force)
        self.q0, self.v0 = model.closed_rest, np.zeros(model.n_q)
        self.observed = cfg["observation"]["indices"]
        self.measured = series["observations"]
        self.spec = estimation.CostSpec(
            observation=estimation.CoordinateObservation(self.observed, model.n_q),
            measured=self.measured,
        )
        rho_true = np.asarray(cfg["rho_true"], dtype=float)
        rho_initial = np.asarray(cfg["rho_initial"], dtype=float)
        self.center = 0.5 * (rho_true + rho_initial)
        self.points, self.steps = verify.stencil(self.center)

    def rho(self, index):
        if index == 0:
            return self.center
        return self.points[(index - 1) % len(self.points)]

    def own_cost(self, traj):
        return verify.mismatch_cost(traj.q_array()[:, self.observed], self.measured)

    def operation(self, index):
        rho = self.rho(index)
        traj = integrator.simulate(self.model, self.q0, self.v0, rho, self.grid)
        value = estimation.cost(traj, self.spec, rho)
        sens = linearization.linearize_trajectory(self.model, traj, rho)
        gradient = estimation.adjoint_gradient(traj, sens, self.spec, rho)
        self.last = (rho, traj, value, gradient)

    def result(self, index):
        rho, traj, value, gradient = self.last
        own = self.own_cost(traj)
        self.own_costs.setdefault(index, own)
        errors = verify.cost_errors(value, own)
        if not np.all(np.isfinite(gradient)):
            errors.append(f"gradient is not finite: {gradient.tolist()}")
        if index == 0:
            self.center_gradient = gradient
        fingerprint = hashlib.sha256(
            np.asarray(rho).tobytes() + np.float64(value).tobytes() + gradient.tobytes()
        ).hexdigest()
        return fingerprint, errors

    def run_errors(self):
        """The warm-up's adjoint gradient against central differences of
        the recomputed cost over the first stencil round."""
        indices = range(1, len(self.points) + 1)
        if self.center_gradient is None or any(i not in self.own_costs for i in indices):
            return ["no whole stencil round: the finite-difference check was not made"]
        fd = verify.central_quotients([self.own_costs[i] for i in indices], self.steps)
        return verify.gradient_errors(self.center_gradient, fd)

    def artifact_bytes(self):
        return 0


class SimulateLoop12:
    """``varid simulate`` on ``configs/loop12.json`` as shipped."""

    artifacts = ("trajectory.csv", "trajectory.json", "energy.csv")
    same_output_every_op = True

    def __init__(self, root, out, seed, reps):
        self.root, self.out, self.seed = root, out, seed
        self.config = os.path.join(root, "configs", "loop12.json")
        self.sim_dir = os.path.join(out, "simulate")

    def setup(self):
        with open(self.config) as fh:
            doc = json.load(fh)["model"]
        self.radius = float(doc["radius"])
        # the model a user builds from this config; the command builds its own
        models.load_model(doc)

    def operation(self, index):
        _run_cli(["simulate", "--config", self.config, "--out", self.sim_dir,
                  "--seed", str(self.seed)])

    def result(self, index):
        q = verify.read_q_columns(os.path.join(self.sim_dir, "trajectory.csv"))
        errors = verify.closure_errors(q, self.radius)
        digest = "".join(
            _sha256(os.path.join(self.sim_dir, name)) for name in self.artifacts
        )
        return digest, errors

    def run_errors(self):
        return []

    def artifact_bytes(self):
        return _artifact_bytes(self.sim_dir)


WORKLOADS = {
    "fit-loop6": FitLoop6,
    "gradient-loop12": GradientLoop12,
    "simulate-loop12": SimulateLoop12,
}


class Runner:
    """Runs operations, checks each output, counts failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, index):
        """One operation; returns (seconds, fingerprint) or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.wl.operation(index)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        seconds = time.perf_counter() - t0
        fingerprint, errors = self.wl.result(index)
        self.errors += [f"operation {index}: {e}" for e in errors]
        return seconds, fingerprint


def _load(runner, reps):
    """Warm-up plus ``reps`` timed operations: the end-to-end metrics."""
    done = [runner.run(index) for index in range(reps + 1)]
    times = [d[0] for d in done[1:] if d is not None]
    prints = {d[1] for d in done if d is not None}
    if runner.wl.same_output_every_op and len(prints) > 1:
        # the CLI promises byte-identical artifacts for one config and seed
        runner.errors.append("artifacts differ between repetitions")
    runner.errors += runner.wl.run_errors()
    print("op_s samples: " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_s": statistics.median(times),
        "peak_rss_mb": rss_mb,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _trace(runner):
    """Warm-up, a reference operation, then the same operation traced."""
    runner.run(0)
    plain = runner.run(1)
    tracer = Tracer()
    with tracer:
        traced = runner.run(1)
    if plain is None or traced is None:
        return {}
    if plain[1] != traced[1]:
        runner.errors.append("the traced operation's output differs from the untraced one")
    seconds = traced[0]

    get = tracer.stat
    step = get("integrator.step")
    rollout = get("integrator.rollout")
    identify = get("estimation.identify")
    rollouts = get("estimation.identify.rollouts").units
    searched = rollouts - identify.calls  # candidate rollouts of the line search

    def us(key):
        s = get(key)
        return _ratio(s.total_s, s.calls) * 1e6

    def ms_per_1000_steps(key):
        s = get(key)
        return _ratio(s.total_s, s.units) * 1e6

    metrics = {}
    for name in ("lagrangian_derivatives", "constraint", "constraint_jacobian",
                 "constraint_hessian"):
        metrics[f"models.{name}.calls"] = get(f"models.{name}").calls
        metrics[f"models.{name}.us"] = us(f"models.{name}")
    metrics.update({
        "models.self_s": tracer.self_seconds("models"),
        "model.slot_derivatives.per_step": _ratio(get("model.slot_derivatives").calls, step.calls),
        "model.slot_derivatives.us": us("model.slot_derivatives"),
        "model.self_s": tracer.self_seconds("model"),
        "integrator.newton_iters_per_step": _ratio(step.units, step.calls),
        "integrator.step.us": us("integrator.step"),
        "integrator.rollout.calls": rollout.calls,
        "integrator.rollout.ms_per_1000_steps": ms_per_1000_steps("integrator.rollout"),
        "integrator.self_s": tracer.self_seconds("integrator"),
        "linearization.linearize_trajectory.ms_per_1000_steps":
            ms_per_1000_steps("linearization.linearize_trajectory"),
        "linearization.linearize_step.us": us("linearization.linearize_step"),
        "linearization.self_s": tracer.self_seconds("linearization"),
        "estimation.adjoint_gradient.ms_per_1000_steps":
            ms_per_1000_steps("estimation.adjoint_gradient"),
        "estimation.cost.ms_per_1000_steps": ms_per_1000_steps("estimation.cost"),
        "estimation.FeedbackForce.value.us": us("estimation.FeedbackForce.value"),
        "estimation.ingest_series.ms": us("estimation.ingest_series") / 1e3,
        "estimation.identify.iterations": identify.units,
        "estimation.identify.rollouts": rollouts,
        "estimation.line_search.rollouts_per_iter": _ratio(searched, identify.units),
        "estimation.line_search.accepted_per_rollout": _ratio(identify.units, searched),
        "estimation.self_s": tracer.self_seconds("estimation"),
        "cli.self_s": tracer.self_seconds("cli"),
        "cli.artifact_bytes": runner.wl.artifact_bytes(),
        "trace.overhead_s": traced[0] - plain[0],
        "trace.covered_share": _ratio(tracer.top_s, seconds),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "load", "trace"))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](args.root, args.out, args.seed, args.reps)
    workload.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(workload)
    metrics = _load(runner, args.reps) if args.mode == "load" else _trace(runner)
    for line in runner.errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors and runner.attempted > runner.failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
