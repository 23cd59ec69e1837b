"""Command-line workflows: artifacts, determinism, noise, exit codes."""

import json
import hashlib

import numpy as np
import pytest

import varid.cli as cli

from conftest import CorruptedPendulum


def _write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _pendulum_config(steps=300, noise_std=0.0, seed=3, out="out"):
    return {
        "model": {
            "type": "pendulum",
            "mass": 1.0,
            "length": 0.8,
            "gravity": 9.81,
            "damping": 0.1,
            "spring_param": 0,
            "n_params": 1,
        },
        "grid": {"t0": 0.0, "dt": 0.01, "steps": steps},
        "initial": {"q": [0.5], "v": [0.0]},
        "rho_true": [2.5],
        "rho_initial": [5.0],
        "observation": {"type": "coordinates", "indices": [0]},
        "actuated": [0],
        "gain": 1.0,
        "excitation": {
            "type": "sinusoid",
            "amplitude": [0.4],
            "frequency": [0.5],
            "phase": [0.0],
        },
        "noise": {"observation_std": noise_std, "seed": seed},
        "descent": {
            "alpha": 0.4,
            "beta": 0.4,
            "max_iters": 60,
            "grad_tol": 1e-4,
            "initial_step": 5.0,
        },
        "output_dir": out,
    }


def _loop_config(steps=200, out="out"):
    return {
        "model": {
            "type": "closed_loop",
            "n_links": 6,
            "radius": 0.355,
            "total_mass": 0.132,
            "gravity": 0.0,
            "damping": 0.02,
            "stiffness_groups": [[0, 1, 2], [3, 4, 5]],
        },
        "grid": {"t0": 0.0, "dt": 0.01, "steps": steps},
        "initial": {"q": "rest", "v": 0.0},
        "rho_true": [4.45252, 0.96969],
        "observation": {"type": "coordinates", "indices": [1, 4]},
        "actuated": [2, 3],
        "excitation": {
            "type": "sinusoid",
            "amplitude": [0.25, 0.25],
            "frequency": [0.4, 0.65],
            "phase": [0.0, 1.3],
        },
        "output_dir": out,
    }


def test_generate_writes_expected_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=100))
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    for name in (
        "trajectory.csv",
        "trajectory.json",
        "observations.csv",
        "observations_clean.csv",
        "coordinates.csv",
        "coordinates_clean.csv",
        "torques.csv",
        "torques_clean.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name

    # noiseless: measured files equal their clean copies byte for byte
    assert (out / "observations.csv").read_bytes() == (
        out / "observations_clean.csv"
    ).read_bytes()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3
    assert "timings_s" in manifest
    # recorded hashes match the files on disk
    for name, digest in manifest["artifacts"].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name

    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0].startswith("k,t,q_0,p_0")
    assert len(rows) == 102  # header + steps + 1


def test_generate_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=150, noise_std=0.01))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["generate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["generate", "--config", cfg, "--out", str(b)]) == 0
    for name in (
        "trajectory.csv",
        "trajectory.json",
        "observations.csv",
        "observations_clean.csv",
        "coordinates.csv",
        "torques.csv",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # manifests agree on everything except wall-clock timings
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timings_s")
    mb.pop("timings_s")
    assert ma == mb


def test_generate_noise_magnitude_and_seed_override(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json", _pendulum_config(steps=2500, noise_std=0.005)
    )
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0

    def column(path):
        rows = path.read_text().strip().splitlines()[1:]
        return np.array([float(r.split(",")[1]) for r in rows])

    noise = column(out / "observations.csv") - column(out / "observations_clean.csv")
    assert noise.size >= 2000
    assert abs(np.std(noise) - 0.005) / 0.005 < 0.10

    # a different seed draws different noise; the same seed reproduces it
    out2 = tmp_path / "run2"
    assert cli.main(["generate", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert (out / "observations.csv").read_bytes() != (
        out2 / "observations.csv"
    ).read_bytes()
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["seed"] == 9
    out3 = tmp_path / "run3"
    assert cli.main(["generate", "--config", cfg, "--out", str(out3), "--seed", "9"]) == 0
    assert (out2 / "observations.csv").read_bytes() == (
        out3 / "observations.csv"
    ).read_bytes()


def test_simulate_writes_energy_and_linearization(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=80))
    out = tmp_path / "run"
    code = cli.main(
        ["simulate", "--config", cfg, "--out", str(out), "--dump-linearization"]
    )
    assert code == 0
    rows = (out / "energy.csv").read_text().strip().splitlines()
    assert rows[0] == "k,t,energy,constraint_residual"
    assert len(rows) == 81  # header + one row per step

    lin = json.loads((out / "linearization.json").read_text())
    assert lin["n_q"] == 1
    assert lin["n_rho"] == 1
    assert len(lin["steps"]) == 80
    first = lin["steps"][0]
    assert np.asarray(first["A"]).shape == (2, 2)
    assert np.asarray(first["B"]).shape == (2, 1)


@pytest.mark.parametrize("command", ["generate", "check"])
def test_dump_linearization_is_rejected_where_unused(tmp_path, capsys, command):
    # only simulate and identify write linearization.json
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=80))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--dump-linearization"])
    assert exc.value.code == 2
    assert "--dump-linearization" in capsys.readouterr().err


def test_simulate_loop_keeps_constraint_residual_small(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _loop_config(steps=200))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "energy.csv").read_text().strip().splitlines()[1:]
    residuals = np.array([float(r.split(",")[3]) for r in rows])
    assert residuals.size == 200
    assert np.max(residuals) < 1e-10


def test_check_passes_on_stock_model(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config())
    assert cli.main(["check", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text
    assert "adjoint.gradient" in text


def test_check_fails_and_names_block_on_corrupted_model(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config())
    broken = CorruptedPendulum(
        mass=1.0, length=0.8, gravity=9.81, damping=0.1, spring_param=0
    )
    monkeypatch.setattr(cli, "_build_model", lambda _cfg: broken)
    code = cli.main(["check", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 4
    assert "error code=check:" in captured.err
    # the offending derivative block is named in the report
    assert any(
        "FAIL" in line and "slot.d" in line for line in captured.out.splitlines()
    )


def test_identify_round_trip_and_determinism(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=300))
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["identify", "--config", cfg, "--out", str(out)]) == 0

    result = json.loads((out / "result.json").read_text())
    assert result["termination"] == "grad_tol"
    assert abs(result["rho_opt"][0] - 2.5) / 2.5 < 0.01
    costs = result["cost_history"]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert len(costs) == result["iterations"] + 1
    assert "timings" not in result and "timings_s" not in result

    conv = (out / "convergence.csv").read_text().strip().splitlines()
    assert conv[0] == "iteration,cost,grad_norm,rho_0"
    assert len(conv) == len(costs) + 1

    paths = (out / "iteration_paths.csv").read_text().strip().splitlines()
    assert paths[0] == "iteration,k,t,y_0"
    assert len(paths) == 1 + len(costs) * 301

    first = (out / "result.json").read_bytes()
    assert cli.main(["identify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "result.json").read_bytes() == first


def test_exit_codes_and_error_lines(tmp_path, capsys):
    # missing config file
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=config:")
    assert err.count("\n") == 1

    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error code=config:")

    # unknown model type
    cfg = _pendulum_config()
    cfg["model"]["type"] = "hovercraft"
    p = _write_config(tmp_path / "h.json", cfg)
    assert cli.main(["simulate", "--config", p]) == 2
    assert capsys.readouterr().err.startswith("error code=config:")

    # infeasible start on the constrained model
    loop = _loop_config(steps=20)
    loop["initial"] = {"q": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1], "v": 0.0}
    p = _write_config(tmp_path / "l.json", loop)
    assert cli.main(["simulate", "--config", p, "--out", str(tmp_path / "lr")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error code=solver:")
    assert err.count("\n") == 1


MALFORMED_FIELDS = [
    ("generate", "rho_true", "stiff"),
    ("generate", "rho_true", ["stiff"]),
    ("generate", "rho_true", [1.0, 2.0]),
    ("generate", "noise.seed", "three"),
    ("generate", "noise.seed", -1),
    ("generate", "noise.observation_std", "small"),
    ("generate", "noise.torque_std", -0.1),
    ("generate", "actuated", "first"),
    ("generate", "actuated", 0),
    ("generate", "initial.v", [0.0, 0.0, 0.0]),
    ("generate", "initial.q", ["up"]),
    ("generate", "grid.dt", "fast"),
    ("generate", "excitation.amplitude", [0.1, 0.2]),
    ("generate", "observation.indices", 0),
    ("generate", "solver.newton_tol", None),
    ("generate", "output_dir", 7),
    ("identify", "gain", "high"),
    ("identify", "gain", -1.0),
    ("identify", "parameter_floor", "low"),
    ("identify", "terminal_weight", "heavy"),
    ("identify", "descent.alpha", "half"),
    ("identify", "data.dir", 7),
    ("check", "check.points", "five"),
    ("check", "check.points", 0),
    ("check", "check.dt", -0.01),
]


@pytest.mark.parametrize("command,field,value", MALFORMED_FIELDS)
def test_malformed_config_field_exits_2(tmp_path, capsys, command, field, value):
    doc = _pendulum_config(steps=20, out=str(tmp_path / "out"))
    *parents, leaf = field.split(".")
    target = doc
    for key in parents:
        target = target.setdefault(key, {})
    target[leaf] = value
    cfg = _write_config(tmp_path / "c.json", doc)
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error code=config:")
    assert leaf in lines[0]


def test_identify_rejects_initial_below_floor(tmp_path, capsys):
    cfg = _pendulum_config(steps=50)
    cfg["rho_initial"] = [-2.0]
    p = _write_config(tmp_path / "c.json", cfg)
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", p, "--out", str(out)]) == 0
    assert cli.main(["identify", "--config", p, "--out", str(out)]) == 2
    assert "parameter_floor" in capsys.readouterr().err


def test_identify_requires_generated_data(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _pendulum_config(steps=50))
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["identify", "--config", cfg, "--out", str(empty)]) == 2
    assert capsys.readouterr().err.startswith("error code=config:")


def test_identify_rejects_mismatched_grid(tmp_path, capsys):
    cfg_doc = _pendulum_config(steps=60)
    cfg = _write_config(tmp_path / "c.json", cfg_doc)
    out = tmp_path / "run"
    assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
    # same data, different grid: cadence mismatch must be an ingestion error
    cfg_doc["grid"]["steps"] = 90
    cfg2 = _write_config(tmp_path / "c2.json", cfg_doc)
    assert cli.main(["identify", "--config", cfg2, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error code=config:")


def test_config_relative_output_dir_resolves_against_config(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    doc = _pendulum_config(steps=30, out="../rundir")
    cfg = _write_config(sub / "c.json", doc)
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "rundir" / "trajectory.csv").exists()
