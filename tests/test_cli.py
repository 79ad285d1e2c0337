"""Command-line interface: exit codes, artifacts, determinism."""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from tcbayes import gpc, porous_flow
from tcbayes import scenario as scenario_module
from tcbayes.bayes import table_thetas
from tcbayes.cli import load_chain_csv, main, packaged_config_text, resolve_config
from tcbayes.samplers import MarkovChain, ParticleHistory
from tcbayes.scenario import ConfigError, Scenario, ScenarioConfig


def _read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# ---------------------------------------------------------------------------
# config resolution and argument errors
# ---------------------------------------------------------------------------


def test_resolve_packaged_names():
    assert resolve_config("model1").model == 1
    assert resolve_config("model2.json").model == 2
    assert resolve_config("model3").model == 3


def test_resolve_missing_config():
    with pytest.raises(ConfigError, match="neither a file"):
        resolve_config("does_not_exist.json")


def test_resolve_config_file(tiny_model1_dict, write_config):
    path = write_config(tiny_model1_dict)
    assert resolve_config(path).model == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tcbayes" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [("build-surrogate", "--theta", v) for v in ("-5", "0", "nan", "inf", "abc")]
    + [("simulate-forward", "--theta", "-5"), ("simulate-forward", "--q", "nan"),
       ("simulate-forward", "--phi", "1.5"), ("simulate-forward", "--phi", "0")],
)
def test_out_of_domain_argument_is_usage_error(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "model1", "--output", str(tmp_path), f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: {value!r} is not" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tiny_model1_dict, write_config, capsys):
    tiny_model1_dict["bogus"] = True
    path = write_config(tiny_model1_dict)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_file_exits_2(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
    assert "neither a file" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_invalid_model_params_exit_2(value, tiny_model1_dict, write_config, capsys):
    tiny_model1_dict["model_params"] = {"kappa_solid": value}
    path = write_config(tiny_model1_dict)
    assert main(["run", "--config", path]) == 2
    assert "kappa_solid must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["wall_temp", "diffusivity", "t_constraint"])
def test_nan_geometry_exits_2(key, tiny_model2_dict, write_config, capsys):
    tiny_model2_dict["geometry"][key] = float("nan")
    path = write_config(tiny_model2_dict)
    assert main(["run", "--config", path]) == 2
    assert f"{key} must be positive" in capsys.readouterr().err


_NON_FINITE_KEYS = [
    ("model1", "constraint.t_max"),
    ("model1", "scan.tol"),
    ("model1", "prior.mean"),
    ("model1", "data.theta_true"),
    ("model1", "data.noise_std"),
    ("model1", "germ.q.mean"),
    ("model1", "germ.phi.std"),
    ("model1", "sampler.proposal_std"),
    ("model1", "sampler.theta_init"),
    ("model2", "constraint.t_max"),
    ("model2", "germ.q.std"),
    ("model2", "prior.low"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name, key", _NON_FINITE_KEYS)
def test_non_finite_config_number_exits_2(name, key, value, write_config, tmp_path, capsys):
    # json writes these as NaN and Infinity, which json.load reads back
    raw = json.loads(packaged_config_text(name))
    *blocks, leaf = key.split(".")
    block = raw
    for part in blocks:
        block = block[part]
    block[leaf] = value
    path = write_config(raw)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out")]) == 2
    assert f"config invalid at {key.replace('.', '/')}: numbers must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["obs,nan", "obs,-inf", "obs 512.0", "obs,5x12"])
def test_bad_observation_file_exits_2(line, tiny_model1_dict, write_config, tmp_path, capsys):
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    csv_path = tmp_path / "obs.csv"
    source.to_csv(str(csv_path))
    source.save_provenance(str(tmp_path / "obs.json"))
    csv_path.write_text(csv_path.read_text() + line + "\n")  # line 6, after 4 observations
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tiny_model1_dict), "--output", str(out)])
    assert rc == 2
    assert f"{csv_path}, line 6" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


def _drop_noise_std(meta: dict) -> dict:
    del meta["groups"][0]["noise_std"]
    return meta


def _zero_noise_std(meta: dict) -> dict:
    meta["groups"][0]["noise_std"] = 0.0
    return meta


@pytest.mark.parametrize(
    "sidecar",
    [None, "{not json", _drop_noise_std, _zero_noise_std],
    ids=["missing", "not-json", "no-noise-std", "zero-noise-std"],
)
def test_bad_observation_sidecar_exits_2(sidecar, tiny_model1_dict, write_config, tmp_path, capsys):
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    csv_path = tmp_path / "obs.csv"
    source.to_csv(str(csv_path))
    json_path = tmp_path / "obs.json"
    if sidecar is not None:
        source.save_provenance(str(json_path))
        if callable(sidecar):
            json_path.write_text(json.dumps(sidecar(json.loads(json_path.read_text()))))
        else:
            json_path.write_text(sidecar)
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tiny_model1_dict), "--output", str(out)])
    assert rc == 2
    assert f"observation provenance {json_path}" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


@pytest.mark.parametrize("porosity", [1.5, 0.0, math.nan, "0.2"])
def test_sidecar_porosity_outside_0_1_exits_2(porosity, tiny_model1_dict, write_config, tmp_path, capsys):
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    csv_path, json_path = tmp_path / "obs.csv", tmp_path / "obs.json"
    source.to_csv(str(csv_path))
    source.save_provenance(str(json_path))
    meta = json.loads(json_path.read_text())
    meta["groups"][0]["porosity"] = porosity
    json_path.write_text(json.dumps(meta))
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tiny_model1_dict), "--output", str(out)])
    assert rc == 2
    label = meta["groups"][0]["label"]
    want = f"observation provenance {json_path}: group {label!r} needs a porosity in (0, 1)"
    assert want in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


@pytest.mark.parametrize("heat_flux", ["abc", math.nan, math.inf, [462.675]])
def test_sidecar_heat_flux_not_a_finite_number_exits_2(
    heat_flux, tiny_model1_dict, write_config, tmp_path, capsys
):
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    csv_path, json_path = tmp_path / "obs.csv", tmp_path / "obs.json"
    source.to_csv(str(csv_path))
    source.save_provenance(str(json_path))
    meta = json.loads(json_path.read_text())
    meta["groups"][0]["heat_flux"] = heat_flux
    json_path.write_text(json.dumps(meta))
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tiny_model1_dict), "--output", str(out)])
    assert rc == 2
    label = meta["groups"][0]["label"]
    want = f"observation provenance {json_path}: group {label!r} needs a finite heat_flux"
    assert want in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


# (CSV text after the header, or None to keep it; sidecar text, or None to keep it)
_MALFORMED_OBSERVATION_DATA = {
    "header-only": ("", None),
    "sidecar-list": (None, "[]"),
    "groups-not-a-list": (None, '{"groups": 5}'),
    "group-not-an-object": (None, '{"groups": [1]}'),
    "group-without-label": (None, '{"groups": [{"noise_std": 1.0}]}'),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_OBSERVATION_DATA))
def test_malformed_observation_data_exits_2(case, tiny_model1_dict, write_config, tmp_path, capsys):
    body, sidecar = _MALFORMED_OBSERVATION_DATA[case]
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    csv_path, json_path = tmp_path / "obs.csv", tmp_path / "obs.json"
    source.to_csv(str(csv_path))
    source.save_provenance(str(json_path))
    if body is not None:
        csv_path.write_text("group,value\n" + body)
    if sidecar is not None:
        json_path.write_text(sidecar)
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tiny_model1_dict), "--output", str(out)])
    assert rc == 2
    assert str(csv_path if body is not None else json_path) in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


@pytest.mark.parametrize("key", ["order", "n_quad"])
@pytest.mark.parametrize("model", [2, 3])
def test_interface_model_with_expansion_settings_exits_2(
    model, key, tiny_model2_dict, write_config, tmp_path, capsys
):
    # the exit is exactly order 1 in the flux, so these settings would change nothing
    tiny_model2_dict["surrogate"][key] = 3
    if model == 3:
        tiny_model2_dict["model"] = 3
        tiny_model2_dict["germ"] = {"strips": [{"mean": 450.0, "std": 14.0}] * 4}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tiny_model2_dict), "--output", str(out)]) == 2
    assert "model-1 settings" in capsys.readouterr().err
    assert not out.exists()


def test_model1_with_geometry_exits_2(tiny_model1_dict, tiny_model2_dict, write_config, capsys):
    tiny_model1_dict["geometry"] = tiny_model2_dict["geometry"]
    path = write_config(tiny_model1_dict)
    assert main(["run", "--config", path]) == 2
    assert "geometry" in capsys.readouterr().err


# (block, settings, a key the message must name); a None setting drops the key
_SHIPPED_MODEL1_MISTAKES = {
    "reversed-range": ("scan", {"theta_range": [900.0, 300.0]}, "scan/theta_range"),
    "negative-range": ("scan", {"theta_range": [-10.0, 300.0]}, "scan/theta_range/0"),
    "negative-truth": ("data", {"theta_true": -5.0}, "data/theta_true"),
    "empty-uniform": ("prior", {"kind": "uniform", "low": 900.0, "high": 300.0}, "prior"),
    "gaussian-without-mean": ("prior", {"mean": None}, "mean"),
}


@pytest.mark.parametrize(
    "block, settings, key",
    _SHIPPED_MODEL1_MISTAKES.values(),
    ids=_SHIPPED_MODEL1_MISTAKES.keys(),
)
def test_config_mistake_exits_2_naming_the_key(block, settings, key, write_config, tmp_path, capsys):
    raw = json.loads(packaged_config_text("model1"))
    raw[block] = {k: v for k, v in {**raw[block], **settings}.items() if v is not None}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(raw), "--output", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "model, path, value, key",
    [
        (2, ("data", "groups", 0, "porosity"), 0.0, "data/groups/0/porosity"),
        (2, ("data", "groups", 0, "porosity"), 1.2, "data/groups/0/porosity"),
        (1, ("germ", "phi", "mean"), 0.0, "germ/phi"),
        (1, ("germ", "phi", "std"), 0.05, "germ/phi"),
    ],
    ids=["group-zero", "group-above-one", "phi-mean-zero", "phi-too-wide"],
)
def test_porosity_mistake_exits_2(
    model, path, value, key, tiny_model1_dict, tiny_model2_dict, write_config, tmp_path, capsys
):
    # a porosity outside (0, 1), given or at a model-1 collocation node
    raw = tiny_model1_dict if model == 1 else tiny_model2_dict
    block = raw
    for part in path[:-1]:
        block = block[part]
    block[path[-1]] = value
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(raw), "--output", str(out)]) == 2
    assert f"config invalid at {key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_loads_neither_jsonschema_nor_package_metadata(tiny_model1_dict, write_config, tmp_path):
    # a fresh interpreter: this test process may have imported jsonschema already
    script = """
import sys
before = set(sys.modules)
import tcbayes.cli as cli
for name in cli.PACKAGED_SCENARIOS:
    cli.resolve_config(name)
assert "jsonschema" not in sys.modules, "resolving a config imported jsonschema"
rc = cli.main(["run", "--config", sys.argv[1], "--output", sys.argv[2]])
loaded = {"jsonschema", "importlib.metadata"} & (set(sys.modules) - before)
assert not loaded, f"a run imported {loaded}"
sys.exit(rc)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", script, write_config(tiny_model1_dict), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    versions = json.loads((out / "provenance.json").read_text())["versions"]
    assert set(versions) == {"python", "numpy", "tcbayes"}


def test_infeasible_start_exits_3(tiny_model1_dict, write_config, tmp_path, capsys):
    tiny_model1_dict["sampler"]["theta_init"] = 400.0  # below the feasible boundary
    path = write_config(tiny_model1_dict)
    rc = main(["run", "--config", path, "--output", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "feasible interval" in err
    assert "theta_init" in err


# ---------------------------------------------------------------------------
# run pipeline
# ---------------------------------------------------------------------------


def test_run_artifacts_and_determinism(tiny_model1_dict, write_config, tmp_path):
    path = write_config(tiny_model1_dict)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", path, "--output", out1]) == 0
    assert main(["run", "--config", path, "--output", out2]) == 0

    expected = [
        "observations.csv",
        "observations.json",
        "feasible_scan.csv",
        "chain.csv",
        "reference.csv",
        "histogram.csv",
        "diagnostics.json",
        "l2_series.csv",
        "provenance.json",
    ]
    for name in expected:
        assert os.path.exists(os.path.join(out1, name)), name
    # a strip-only scenario has no interface field to snapshot
    assert not os.path.exists(os.path.join(out1, "field_initial.csv"))

    # everything except wall-clock timing is reproducible bit for bit
    header, rows1 = _read_csv(os.path.join(out1, "chain.csv"))
    _, rows2 = _read_csv(os.path.join(out2, "chain.csv"))
    assert header == ["index", "theta", "accepted", "feasible", "log_post", "cumulative_seconds"]
    timing_col = header.index("cumulative_seconds")
    for r1, r2 in zip(rows1, rows2):
        assert r1[:timing_col] == r2[:timing_col]
    assert (
        open(os.path.join(out1, "histogram.csv")).read()
        == open(os.path.join(out2, "histogram.csv")).read()
    )

    prov = json.load(open(os.path.join(out1, "provenance.json")))
    assert prov["command"] == "run"
    assert prov["master_seed"] == 0
    assert prov["chain_seeds"] == [0]
    assert prov["feasible_intervals"]
    assert prov["config"]["model"] == 1
    assert "numpy" in prov["versions"]
    l2_header, _ = _read_csv(os.path.join(out1, "l2_series.csv"))
    assert l2_header == ["n_samples", "l2_error", "wall_seconds"]
    # the scan's oracle counters: deterministic, so identical across the two runs
    oracle = prov["oracle"]
    assert set(oracle) == {"evaluations", "build_failures", "mc_draws"}
    assert oracle["evaluations"] > 0 and oracle["build_failures"] == 0
    # model 1's probability is exact: no germ draws
    assert oracle["mc_draws"] == 0
    assert json.load(open(os.path.join(out2, "provenance.json")))["oracle"] == oracle
    # the strip exit coefficients came from one checked table
    exit_table = prov["exit_table"]
    assert set(exit_table) == {"nodes", "terms", "max_rel_error"}
    assert exit_table["nodes"] == 32 and 1 <= exit_table["terms"] <= 32
    assert 0.0 <= exit_table["max_rel_error"] <= 1e-12

    diag = json.load(open(os.path.join(out1, "diagnostics.json")))
    assert 0.0 < diag["acceptance_rate"] <= 1.0
    assert diag["infeasible_fraction"] == 0.0


def test_run_seed_override_changes_chain(tiny_model1_dict, write_config, tmp_path):
    path = write_config(tiny_model1_dict)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", path, "--output", out1, "--seed", "5"]) == 0
    assert main(["run", "--config", path, "--output", out2, "--seed", "6"]) == 0
    c1 = load_chain_csv(os.path.join(out1, "chain.csv"))
    c2 = load_chain_csv(os.path.join(out2, "chain.csv"))
    assert not np.array_equal(c1.samples, c2.samples)
    prov = json.load(open(os.path.join(out1, "provenance.json")))
    assert prov["master_seed"] == 5 and prov["chain_seeds"] == [5]


def test_run_model2_writes_fields_and_bg(tiny_model2_dict, write_config, tmp_path):
    tiny_model2_dict["sampler"]["n_chains"] = 2
    path = write_config(tiny_model2_dict)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--output", out]) == 0

    for name in ("chain_00.csv", "chain_01.csv", "field_initial.csv", "field_constraint.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    header, rows = _read_csv(os.path.join(out, "field_initial.csv"))
    assert header == ["z", "temperature"]
    z = np.array([float(r[0]) for r in rows])
    assert z[0] == 0.0 and z[-1] == 1.0 and len(z) == 120
    # multi-chain Markov runs get a shrink-ratio series
    assert os.path.exists(os.path.join(out, "bg_series.csv"))


def _allow_cpus(monkeypatch, n: int) -> list:
    """Report ``n`` CPUs to the chain runner; the returned list gathers the pid of
    every worker forked."""
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_chains_match_serial_chains(tiny_model2_dict, write_config, tmp_path, monkeypatch):
    tiny_model2_dict["sampler"]["n_chains"] = 3
    path = write_config(tiny_model2_dict)
    outputs = {}
    for cpus, n_workers in ((3, 2), (1, 0)):
        forked = _allow_cpus(monkeypatch, cpus)
        outputs[cpus] = out = tmp_path / f"cpus{cpus}"
        assert main(["run", "--config", path, "--output", str(out)]) == 0
        assert len(forked) == n_workers
        _no_child_left()
    for name in ("chain_00.csv", "chain_01.csv", "chain_02.csv"):
        forked, serial = (load_chain_csv(str(outputs[cpus] / name)) for cpus in (3, 1))
        for column in ("samples", "accepted", "log_post"):
            assert getattr(forked, column).tobytes() == getattr(serial, column).tobytes()
    prov = json.loads((outputs[3] / "provenance.json").read_text())
    assert prov["artifacts"]["chains"] == ["chain_00.csv", "chain_01.csv", "chain_02.csv"]
    for name in ("provenance.json", "histogram.csv", "bg_series.csv", "reference.csv"):
        assert (outputs[3] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize(
    "where, error, code",
    [("worker", "infeasible", 3), ("parent", "infeasible", 3), ("worker", "config", 2)],
)
def test_a_failing_chain_exits_and_leaves_no_process(
    where, error, code, tiny_model2_dict, write_config, tmp_path, monkeypatch, capsys
):
    tiny_model2_dict["sampler"]["n_chains"] = 3
    path = write_config(tiny_model2_dict)
    parent, run_chain = os.getpid(), Scenario.run_chain

    def failing_run_chain(self, seed):
        if (os.getpid() == parent) == (where == "parent"):
            if error == "config":
                raise ConfigError("bad sampler block")
            # an infeasible start, below the scanned interval [300, 1000]
            self = self.with_sampler(dict(self.config.sampler, theta_init=200.0))
        return run_chain(self, seed)

    monkeypatch.setattr(Scenario, "run_chain", failing_run_chain)
    forked = _allow_cpus(monkeypatch, 3)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out")]) == code
    assert len(forked) == 2
    _no_child_left()
    err = capsys.readouterr().err
    if error == "infeasible":
        assert "scanned feasible interval(s)" in err and "theta_init" in err
    else:
        assert "bad sampler block" in err


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the parent-death signal is Linux's")
def test_a_worker_dies_with_its_run():
    script = (
        "import time\n"
        "from tcbayes.cli import _fork\n"
        "pid, _ = _fork(lambda i: time.sleep(60), 0)\n"
        "print(pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
    worker = None
    try:
        worker = int(run.stdout.readline())
        run.kill()
        run.wait()
        for _ in range(100):
            if not _running(worker):
                break
            time.sleep(0.05)
        assert not _running(worker)
    finally:
        run.kill()
        run.wait()
        run.stdout.close()
        if worker is not None and _running(worker):
            os.kill(worker, 9)


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is None, reason="needs matplotlib")
def test_run_plots(tiny_model1_dict, write_config, tmp_path):
    path = write_config(tiny_model1_dict)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--output", out, "--plots"]) == 0
    assert os.path.exists(os.path.join(out, "posterior.svg"))


def test_run_plots_draw_histogram_heights_over_their_bins(
    tiny_model1_dict, write_config, tmp_path, monkeypatch
):
    # a recording stand-in for matplotlib, so the drawn bars are checked without it
    bars = []

    class Axes:
        def bar(self, x, height, width, align, **kwargs):
            bars.append((np.asarray(x), np.asarray(height), np.broadcast_to(width, np.shape(x)), align))

        def __getattr__(self, name):
            return lambda *args, **kwargs: None

    class Figure:
        def savefig(self, path):
            open(path, "w").close()

    pyplot = type(sys)("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (Figure(), Axes())
    pyplot.close = lambda fig: None
    matplotlib = type(sys)("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tiny_model1_dict), "--output", out, "--plots"]) == 0
    assert os.path.exists(os.path.join(out, "posterior.svg"))
    hist = np.loadtxt(os.path.join(out, "histogram.csv"), delimiter=",", skiprows=1, ndmin=2)
    ((x, height, width, align),) = bars
    assert align == "edge"
    assert x.tolist() == hist[:, 0].tolist()
    assert height.tolist() == hist[:, 2].tolist()
    assert width.tolist() == (hist[:, 1] - hist[:, 0]).tolist()


# ---------------------------------------------------------------------------
# sample / diagnose round trip
# ---------------------------------------------------------------------------


def test_sample_then_diagnose(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    sample_dir = str(tmp_path / "sample")
    assert main(["sample", "--config", path, "--output", sample_dir]) == 0
    chain_path = os.path.join(sample_dir, "chain.csv")
    assert os.path.exists(chain_path)
    assert os.path.exists(os.path.join(sample_dir, "provenance.json"))
    assert "acceptance" in capsys.readouterr().out

    diag_dir = str(tmp_path / "diag")
    rc = main(["diagnose", "--config", path, "--chains", chain_path, "--output", diag_dir])
    assert rc == 0
    payload = json.load(open(os.path.join(diag_dir, "diagnostics.json")))
    assert payload["n_chains"] == 1
    assert os.path.exists(os.path.join(diag_dir, "l2_series.csv"))


def test_diagnose_particles(tiny_model1_dict, write_config, tmp_path):
    tiny_model1_dict["sampler"] = {
        "kind": "csvgd",
        "n_particles": 8,
        "n_generations": 12,
        "step_size": 5.0,
        "delta": 0.2,
    }
    tiny_model1_dict["diagnostics"]["checkpoints"] = [16, 48, 96]
    path = write_config(tiny_model1_dict)
    sample_dir = str(tmp_path / "sample")
    assert main(["sample", "--config", path, "--output", sample_dir]) == 0
    particles = os.path.join(sample_dir, "particles.csv")
    assert os.path.exists(particles)

    diag_dir = str(tmp_path / "diag")
    assert main(["diagnose", "--config", path, "--chains", particles, "--output", diag_dir]) == 0
    payload = json.load(open(os.path.join(diag_dir, "diagnostics.json")))
    assert payload["acceptance_rate"] is None
    assert 0.0 <= payload["infeasible_fraction"] <= 1.0


@pytest.mark.parametrize("command", ["run", "sample"])
@pytest.mark.parametrize("kind", ["csvgd", "projected_svgd"])
def test_particle_sampler_with_two_chains_is_a_config_error(
    kind, command, tiny_model1_dict, write_config, tmp_path, monkeypatch, capsys
):
    def no_march(*args, **kwargs):
        raise AssertionError("n_chains must be rejected before any march")

    monkeypatch.setattr(Scenario, "run_chain", no_march)
    tiny_model1_dict["sampler"] = {
        "kind": kind,
        "n_particles": 8,
        "n_generations": 12,
        "step_size": 5.0,
        "n_chains": 2,
    }
    out = str(tmp_path / "out")
    assert main([command, "--config", write_config(tiny_model1_dict), "--output", out]) == 2
    assert "sampler/n_chains" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "particles.csv"))


def test_diagnose_particles_keeps_run_wall_seconds(tiny_model1_dict, write_config, tmp_path):
    tiny_model1_dict["sampler"] = {
        "kind": "csvgd",
        "n_particles": 8,
        "n_generations": 12,
        "step_size": 5.0,
        "delta": 0.2,
    }
    tiny_model1_dict["diagnostics"]["checkpoints"] = [16, 48, 96]
    path = write_config(tiny_model1_dict)
    run_dir, diag_dir = str(tmp_path / "run"), str(tmp_path / "diag")
    assert main(["run", "--config", path, "--output", run_dir]) == 0
    particles = os.path.join(run_dir, "particles.csv")
    assert main(["diagnose", "--config", path, "--chains", particles, "--output", diag_dir]) == 0
    header, ran = _read_csv(os.path.join(run_dir, "l2_series.csv"))
    _, diagnosed = _read_csv(os.path.join(diag_dir, "l2_series.csv"))
    col = header.index("wall_seconds")
    assert [row[col] for row in diagnosed] == [row[col] for row in ran]
    assert all(float(row[col]) > 0.0 for row in ran)


def test_diagnose_checkpoints_must_fit_run(tiny_model1_dict, write_config, tmp_path, capsys):
    tiny_model1_dict["sampler"] = {
        "kind": "csvgd",
        "n_particles": 8,
        "n_generations": 12,
        "step_size": 5.0,
        "delta": 0.2,
    }
    path = write_config(tiny_model1_dict)  # diagnostics checkpoints reach 300 > 96
    sample_dir = str(tmp_path / "sample")
    assert main(["sample", "--config", path, "--output", sample_dir]) == 0
    particles = os.path.join(sample_dir, "particles.csv")
    rc = main(["diagnose", "--config", path, "--chains", particles, "--output", str(tmp_path)])
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err


def test_diagnose_chain_checkpoints_must_fit_run(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    sample_dir = str(tmp_path / "sample")
    assert main(["sample", "--config", path, "--output", sample_dir]) == 0
    chain_path = os.path.join(sample_dir, "chain.csv")
    tiny_model1_dict["diagnostics"]["checkpoints"] = [100, 400]  # the chain has 300 samples
    path = write_config(tiny_model1_dict, "long.json")
    rc = main(["diagnose", "--config", path, "--chains", chain_path, "--output", str(tmp_path)])
    assert rc == 2
    assert "300 samples" in capsys.readouterr().err


def test_diagnose_other_checkpoint_text_is_not_usage_error(
    tiny_model1_dict, write_config, tmp_path, monkeypatch, capsys
):
    path = write_config(tiny_model1_dict)
    sample_dir = str(tmp_path / "sample")
    assert main(["sample", "--config", path, "--output", sample_dir]) == 0

    def broken(*args, **kwargs):
        raise ValueError("corrupt checkpoint store")

    monkeypatch.setattr("tcbayes.cli.diagnostics_summary", broken)
    chain_path = os.path.join(sample_dir, "chain.csv")
    rc = main(["diagnose", "--config", path, "--chains", chain_path, "--output", str(tmp_path)])
    assert rc == 1
    assert "ValueError: corrupt checkpoint store" in capsys.readouterr().err


def _cut_rows(lines):
    return lines[:-1]  # a run killed inside its last generation


def _header_only(lines):
    return lines[:1]


def _four_of_six_cells(lines):
    return [lines[0], ",".join(lines[1].split(",")[:4])]


@pytest.mark.parametrize(
    "kind, damage",
    [
        ("particles", _cut_rows),
        ("particles", _header_only),
        ("chain", _header_only),
        ("chain", _four_of_six_cells),
    ],
)
def test_run_csv_that_is_no_whole_run_exits_2(
    tiny_model1_dict, write_config, tmp_path, capsys, kind, damage
):
    if kind == "chain":
        run = MarkovChain(np.array([700.0]), np.ones(1, bool), np.ones(1, bool), [-5.0], [0.1])
    else:
        run = ParticleHistory(np.linspace(600.0, 800.0, 12).reshape(4, 3), [0.1, 0.2, 0.3])
    path = str(tmp_path / f"{kind}.csv")
    run.to_csv(path)
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(damage(lines)) + "\n")
    with pytest.raises(ConfigError, match=f"{kind}.csv"):
        load_chain_csv(path)
    config = write_config(tiny_model1_dict)
    rc = main(["diagnose", "--config", config, "--chains", path, "--output", str(tmp_path / "d")])
    assert rc == 2
    assert f"{kind}.csv" in capsys.readouterr().err


def test_a_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["scan-feasible", "--config", str(tmp_path)]) == 2
    assert f"cannot read config {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
def test_an_unreadable_run_csv_exits_2(name, tiny_model1_dict, write_config, tmp_path, capsys):
    path = tmp_path / name
    if name == "a_directory":
        path.mkdir()
    with pytest.raises(ConfigError, match=f"cannot read run CSV {path}"):
        load_chain_csv(str(path))
    config = write_config(tiny_model1_dict)
    rc = main(["diagnose", "--config", config, "--chains", str(path), "--output", str(tmp_path / "d")])
    assert rc == 2
    assert f"cannot read run CSV {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "scan-feasible"])
def test_a_missing_observation_csv_beside_its_sidecar_exits_2(
    command, tiny_model1_dict, write_config, tmp_path, capsys
):
    Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations().save_provenance(
        str(tmp_path / "obs.json")
    )
    csv_path = tmp_path / "obs.csv"
    tiny_model1_dict["data"] = {"path": str(csv_path)}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tiny_model1_dict), "--output", str(out)]) == 2
    assert f"observation CSV {csv_path}" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


@pytest.mark.parametrize("kind", ["config", "run CSV", "observation CSV"])
def test_a_file_that_is_not_utf8_text_exits_2(kind, tiny_model1_dict, write_config, tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00binary")
    if kind == "config":
        argv = ["scan-feasible", "--config", str(path)]
    elif kind == "run CSV":
        argv = ["diagnose", "--config", write_config(tiny_model1_dict), "--chains", str(path)]
    else:
        Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations().save_provenance(
            str(tmp_path / "binary.json")
        )
        tiny_model1_dict["data"] = {"path": str(path)}
        argv = ["scan-feasible", "--config", write_config(tiny_model1_dict)]
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    assert f"cannot read {kind} {path}" in capsys.readouterr().err


def test_run_checkpoints_beyond_the_chain_exit_2(tiny_model1_dict, write_config, tmp_path, capsys):
    tiny_model1_dict["diagnostics"]["checkpoints"] = [100, 400]  # the chain has 300 samples
    path = write_config(tiny_model1_dict)
    assert main(["run", "--config", path, "--output", str(tmp_path / "chain")]) == 2
    assert "300 samples" in capsys.readouterr().err

    tiny_model1_dict["sampler"] = {
        "kind": "csvgd",
        "n_particles": 8,
        "n_generations": 12,
        "step_size": 5.0,
        "delta": 0.2,
    }
    path = write_config(tiny_model1_dict, "particles.json")
    assert main(["run", "--config", path, "--output", str(tmp_path / "particles")]) == 2
    assert "exceeds 96 recorded particle samples" in capsys.readouterr().err


def test_load_chain_csv_roundtrip(tiny_model1_dict, write_config, tmp_path):
    path = write_config(tiny_model1_dict)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", path, "--output", out]) == 0
    chain = load_chain_csv(os.path.join(out, "chain.csv"))
    assert isinstance(chain, MarkovChain)
    assert chain.samples.shape == (300,)
    assert set(np.unique(chain.accepted)) <= {0, 1}

    tiny_model1_dict["sampler"] = {
        "kind": "projected_svgd",
        "n_particles": 6,
        "n_generations": 10,
        "step_size": 0.5,
    }
    path2 = write_config(tiny_model1_dict, "psvgd.json")
    out2 = str(tmp_path / "out2")
    assert main(["sample", "--config", path2, "--output", out2]) == 0
    hist = load_chain_csv(os.path.join(out2, "particles.csv"))
    assert isinstance(hist, ParticleHistory)
    assert hist.generations.shape == (11, 6)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_rows_are_sampler_by_checkpoint(tiny_model1_dict, write_config, tmp_path):
    tiny_model1_dict["compare"] = {
        "samplers": {
            "crw": {"proposal_std": 120.0, "n_samples": 200, "theta_init": 700.0},
            "csvgd": {
                "n_particles": 10,
                "n_generations": 20,
                "step_size": 5.0,
                "delta": 0.2,
            },
        },
        "checkpoints": [50, 100],
    }
    path = write_config(tiny_model1_dict)
    out = str(tmp_path / "out")
    rc = main(["compare", "--config", path, "--output", out, "--samplers", "crw,csvgd"])
    assert rc == 0
    header, rows = _read_csv(os.path.join(out, "compare.csv"))
    assert header == ["sampler", "n_samples", "l2_error", "wall_seconds"]
    assert [(r[0], int(r[1])) for r in rows] == [
        ("crw", 50),
        ("crw", 100),
        ("csvgd", 50),
        ("csvgd", 100),
    ]
    for row in rows:
        assert float(row[2]) >= 0.0
        assert float(row[3]) >= 0.0


def test_compare_rejects_unordered_checkpoints(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    rc = main(
        ["compare", "--config", path, "--output", str(tmp_path / "o"),
         "--samplers", "crw", "--checkpoints", "100,50"]
    )
    assert rc == 2
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["abc", "100,x", "1,,2"])
def test_compare_malformed_checkpoints_are_usage_errors(text, tiny_model1_dict, write_config, capsys):
    path = write_config(tiny_model1_dict)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", path, "--samplers", "crw", "--checkpoints", text])
    assert exc.value.code == 2
    assert "argument --checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0", "50,0", "-5"])
def test_compare_checkpoints_below_one_are_usage_errors(text, tiny_model1_dict, write_config, capsys):
    path = write_config(tiny_model1_dict)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", path, "--samplers", "crw", "--checkpoints", text])
    assert exc.value.code == 2
    assert "argument --checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("command, seed", [("run", "-1"), ("sample", "-3"), ("compare", "-1"),
                                           ("run", "1.5"), ("sample", "abc")])
def test_a_seed_that_is_no_non_negative_integer_is_a_usage_error(command, seed, tiny_model1_dict,
                                                                 write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--output", str(tmp_path / "o"), "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed:" in err and (f"{seed!r} is negative" in err) == seed.startswith("-")
    assert not (tmp_path / "o").exists()


def test_compare_rejects_checkpoint_beyond_chain(tiny_model1_dict, write_config, tmp_path):
    path = write_config(tiny_model1_dict)
    rc = main(
        ["compare", "--config", path, "--output", str(tmp_path / "o"),
         "--samplers", "crw", "--checkpoints", "50,5000"]
    )
    assert rc == 2


def test_compare_requires_hyperparameters(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)  # no compare block, sampler is crw
    rc = main(
        ["compare", "--config", path, "--output", str(tmp_path / "o"), "--samplers", "chmc"]
    )
    assert rc == 2
    assert "compare.samplers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# remaining subcommands
# ---------------------------------------------------------------------------


def test_simulate_forward(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    out = str(tmp_path / "out")
    assert main(["simulate-forward", "--config", path, "--output", out, "--theta", "700"]) == 0
    assert "pressure" in capsys.readouterr().out

    header, rows = _read_csv(os.path.join(out, "trajectory.csv"))
    assert header == ["x", "t_fluid", "t_solid", "density", "velocity"]
    assert len(rows) == 401  # n_steps + 1
    x = np.array([float(r[0]) for r in rows])
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.0)

    from tcbayes.porous_flow import forward_pressure_at_mean
    from tcbayes.scenario import ScenarioConfig

    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    expected = forward_pressure_at_mean(cfg.params, (462.675, 0.111), 700.0, n_steps=400)
    last = rows[-1]
    assert float(last[1]) * float(last[3]) == pytest.approx(expected, rel=1e-12)


def test_build_surrogate_strip_prints_probability(
    tiny_model1_dict, write_config, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    path = write_config(tiny_model1_dict)
    out = tmp_path / "out"
    assert main(["build-surrogate", "--config", path, "--output", str(out), "--theta", "700"]) == 0
    text = capsys.readouterr().out
    assert "built in" in text
    match = re.search(r"P\(f2 <= T_max=[^)]*\) = (\S+)", text)
    assert match, text
    assert 0.0 <= float(match.group(1)) <= 1.0
    assert not list(tmp_path.rglob("*.npz"))


@pytest.mark.parametrize("model", [1, 2])
def test_build_surrogate_marches_one_theta(
    model, tiny_model1_dict, tiny_model2_dict, write_config, monkeypatch, capsys
):
    def no_table(self):
        raise AssertionError("build-surrogate must not build the exit table")

    monkeypatch.setattr(Scenario, "exit_table", no_table)
    path = write_config(tiny_model1_dict if model == 1 else tiny_model2_dict)
    assert main(["build-surrogate", "--config", path, "--theta", "700"]) == 0
    assert "built in" in capsys.readouterr().out


def test_build_surrogate_interface_prints_probability(
    tiny_model2_dict, write_config, tmp_path, capsys
):
    path = write_config(tiny_model2_dict)
    out = tmp_path / "out"
    assert main(["build-surrogate", "--config", path, "--output", str(out), "--theta", "700"]) == 0
    text = capsys.readouterr().out
    assert "built in" in text
    prob = float(text.split("P(f2 <= T_max=420) = ")[1].split()[0])
    assert 0.0 <= prob <= 1.0
    assert not list(tmp_path.rglob("*.npz"))


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """The thetas of every batched Euler march, at each caller's binding of the kernel."""
    real_kernel, calls = porous_flow.march_batch, []

    def counting(*args, **kwargs):
        calls.append(np.unique(np.broadcast_arrays(*args[1:4])[2]))
        return real_kernel(*args, **kwargs)

    for module in (porous_flow, scenario_module):
        monkeypatch.setattr(module, "march_batch", counting)
    return calls


@pytest.mark.parametrize("model", [1, 2, 3])
def test_shipped_run_marches_the_strips_once(model, tmp_path, monkeypatch, kernel_calls):
    def no_galerkin(*args, **kwargs):
        raise AssertionError("a run builds its expansions by collocation")

    monkeypatch.setattr(gpc, "_galerkin_march", no_galerkin)
    out = str(tmp_path / "out")
    assert main(["run", "--config", f"model{model}", "--output", out, "--seed", "0"]) == 0
    # one march of every table, the exit table's and each group's forward
    # table, over the 32 nodes, 31 midpoints and 2 ends of theta_range, and of
    # the data's truth at theta_true; no extension piece, no theta alone
    want = np.unique(np.concatenate([table_thetas((300.0, 1000.0)), [700.0]]))
    assert len(kernel_calls) == 1
    assert np.array_equal(kernel_calls[0], want)
    with open(os.path.join(out, "provenance.json")) as fh:
        provenance = json.load(fh)
    assert "terms" in provenance["exit_table"]
    assert all("terms" in record for record in provenance["forward_tables"].values())


@pytest.mark.parametrize("theta", ["700", "1200"])
def test_build_surrogate_marches_its_theta_alone(theta, kernel_calls, capsys):
    # inside theta_range and outside it: one march of the one theta, no table stage
    assert main(["build-surrogate", "--config", "model2", "--theta", theta]) == 0
    assert "built in" in capsys.readouterr().out
    assert [calls.tolist() for calls in kernel_calls] == [[float(theta)]]


def test_build_surrogate_rejects_a_nan_theta(tiny_model1_dict, write_config, monkeypatch, capsys):
    def no_march(*args, **kwargs):
        raise AssertionError("a NaN theta must be rejected before the march")

    monkeypatch.setattr(gpc, "_galerkin_march", no_march)
    monkeypatch.setattr(scenario_module, "interface_state_batch", no_march)
    path = write_config(tiny_model1_dict)
    with pytest.raises(SystemExit) as exc:
        main(["build-surrogate", "--config", path, "--theta", "nan"])
    assert exc.value.code == 2
    assert "--theta: 'nan' is not a positive finite number" in capsys.readouterr().err


def test_scan_feasible_prints_intervals(tiny_model1_dict, write_config, tmp_path, capsys):
    path = write_config(tiny_model1_dict)
    out = str(tmp_path / "out")
    assert main(["scan-feasible", "--config", path, "--output", out]) == 0
    assert "feasible interval" in capsys.readouterr().out
    header, rows = _read_csv(os.path.join(out, "feasible_scan.csv"))
    assert rows, "scan csv must not be empty"
