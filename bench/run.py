"""Benchmark for varid: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fit-loop6 --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics: the median set-up time of
several fresh processes, the median time of the workload's operation,
and the load process's peak RSS.  ``--trace 1`` runs the operation once
more with per-layer spans and prints the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# per workload: nominal seconds of one operation and operations in one
# round (the gradient walks a 4-point finite-difference stencil).  A run
# does whole rounds, as many as fill --seconds nominally and at least
# one: fixed work, never a time budget.
NOMINAL_OP_S = {"fit-loop6": 11.0, "gradient-loop12": 3.0, "simulate-loop12": 2.5}
ROUND_OPS = {"fit-loop6": 1, "gradient-loop12": 4, "simulate-loop12": 1}
# fresh processes per run, the load process last; a gradient-loop12
# set-up generates a 2000-step rollout, so it takes two samples, not three
SETUP_SAMPLES = {"fit-loop6": 3, "gradient-loop12": 2, "simulate-loop12": 3}
RUN_TIMEOUT_S = 170.0


def _child_env(root):
    env = dict(os.environ)
    # the program is single-threaded; keep BLAS from spreading small
    # factorizations over both CPUs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, mode, reps, env, deadline):
    """Start one worker; returns (seconds until READY, last stdout line)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--reps", str(reps), "--root", args.root, "--out", args.out,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=args.root)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    ready_s, last = None, ""
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - t0
            elif line.strip():
                last = line.strip()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready_s is None:
        raise RuntimeError(f"worker ({mode}) failed with status {proc.returncode}")
    return ready_s, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    args.root = os.getcwd()
    needed = ["BENCHMARK.json", "src/varid/__init__.py", "configs/loop6.json",
              "configs/loop12.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(args.root, p))]
    if missing:
        print(f"not a varid checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    args.out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = _child_env(args.root)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    per_round = ROUND_OPS[args.workload]
    rounds = max(1, round(args.seconds / (per_round * NOMINAL_OP_S[args.workload])))
    reps = rounds * per_round

    try:
        if args.trace:
            _, last = _spawn(args, "trace", 1, env, deadline)
            result = json.loads(last)
            values = result["metrics"]
        else:
            setups = [
                _spawn(args, "setup", 0, env, deadline)[0]
                for _ in range(SETUP_SAMPLES[args.workload] - 1)
            ]
            ready_s, last = _spawn(args, "load", reps, env, deadline)
            setups.append(ready_s)
            print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
            result = json.loads(last)
            values = dict(result["metrics"], setup_s=statistics.median(setups))
        if set(values) != set(units):
            raise ValueError(f"metrics {sorted(values)} do not match BENCHMARK.json")
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }
    except (RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
