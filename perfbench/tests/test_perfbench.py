"""Self-tests of the benchmark's tracer, correctness gate and generated configs.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""
from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import gate  # noqa: E402
from perfbench.tracer import Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, generate_config, shipped_config  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    name_id = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(self_times(name_id, parent, start, end), [3.0, 2.0, 1.0, 4.0])
    # dropping a re-parents b onto root and gives a no self time
    keep = [True, False, True, True]
    np.testing.assert_allclose(
        self_times(name_id, parent, start, end, keep=keep), [5.0, 0.0, 1.0, 4.0]
    )


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake")
    exec(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_wraps_bindings_and_reports_absent(fake_module):
    tracer = Tracer()
    tracer.install(
        [
            ("inner", "perfbench_fake.inner", lambda args, result: args[0]),
            ("outer", "perfbench_fake.outer", None),
            ("gone", "perfbench_fake.deleted_function", None),
        ]
    )
    assert tracer.span("root", fake_module.outer, 3) == 8
    tracer.uninstall()
    assert tracer.absent == ["perfbench_fake.deleted_function"]
    assert fake_module.inner.__name__ == "inner" and not hasattr(fake_module.inner, "__wrapped__")
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names == ["root", "outer", "inner"]
    assert list(spans["parent"]) == [-1, 0, 1]
    assert np.all(self_times(**spans) >= 0.0)
    assert tracer.observed["inner"] == [3]


def _write_bundle(out_dir, chain_thetas, density_scale=1.0):
    """A minimal ``run`` artifact bundle with one interval [540.5, 1000]."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "chain.csv"), "w") as fh:
        fh.write("index,theta,accepted,feasible,log_post,cumulative_seconds\n")
        for i, theta in enumerate(chain_thetas):
            fh.write(f"{i},{theta!r},1,1,-1.0,{0.001 * (i + 1)!r}\n")
    grid = np.linspace(300.0, 1000.0, 201)
    density = np.where(grid >= 540.5, 1.0, 0.0)
    density = density_scale * density / np.trapezoid(density, grid)
    with open(os.path.join(out_dir, "reference.csv"), "w") as fh:
        fh.write("theta,density\n")
        fh.writelines(f"{float(t)!r},{float(d)!r}\n" for t, d in zip(grid, density))
    with open(os.path.join(out_dir, "l2_series.csv"), "w") as fh:
        fh.write("n_samples,l2_error,cpu_seconds\n2,0.5,0.01\n4,0.25,0.02\n")
    provenance = {
        "feasible_intervals": [[540.5, 1000.0]],
        "artifacts": {"chains": "chain.csv", "reference": "reference.csv", "l2_series": "l2_series.csv"},
    }
    with open(os.path.join(out_dir, "provenance.json"), "w") as fh:
        json.dump(provenance, fh)
    return out_dir


def _gate(out_dir):
    return gate.check_run_outputs(out_dir, (540.28, 1000.0), tol=0.5, allowance=1.0, crw=True)


def test_gate_accepts_a_valid_bundle(tmp_path):
    assert _gate(_write_bundle(str(tmp_path), [600.0, 700.0, 999.0, 541.0])) == 0.25


def test_gate_rejects_a_chain_sample_outside_the_interval(tmp_path):
    out = _write_bundle(str(tmp_path), [600.0, 700.0, 530.0, 541.0])
    with pytest.raises(gate.GateError, match="outside the scanned intervals"):
        _gate(out)


def test_gate_rejects_a_reference_that_does_not_integrate_to_one(tmp_path):
    out = _write_bundle(str(tmp_path), [600.0, 700.0], density_scale=1.01)
    with pytest.raises(gate.GateError, match="integrates to"):
        _gate(out)


def test_gate_rejects_a_moved_boundary(tmp_path):
    out = _write_bundle(str(tmp_path), [600.0])
    with pytest.raises(gate.GateError, match="lower boundary"):
        gate.check_run_outputs(out, (545.0, 1000.0), tol=0.5, allowance=1.0, crw=True)


def test_digest_ignores_timing_columns_only(tmp_path):
    a = _write_bundle(str(tmp_path / "a"), [600.0, 700.0])
    b = _write_bundle(str(tmp_path / "b"), [600.0, 700.0])
    with open(os.path.join(b, "chain.csv")) as fh:
        text = fh.read().replace("0.001,", "0.5,")
    with open(os.path.join(b, "chain.csv"), "w") as fh:
        fh.write(text)
    assert gate.digest(a) == gate.digest(b)
    c = _write_bundle(str(tmp_path / "c"), [600.0, 700.5])
    assert gate.digest(a) != gate.digest(c)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_validate(name):
    from tcbayes.scenario import ScenarioConfig

    workload = WORKLOADS[name]
    raw = generate_config(workload, shipped_config(os.path.join(ROOT, "src"), workload.scenario), 7)
    config = ScenarioConfig.from_dict(raw)
    assert config.seed == 7 and config.data.seed == 7
    if workload.command == "compare":
        last = raw["compare"]["checkpoints"][-1]
        for kind, block in raw["compare"]["samplers"].items():
            capacity = block.get("n_samples") or block["n_particles"] * block["n_generations"]
            assert capacity >= last, kind


def test_benchmark_json_matches_the_code():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }


def test_absent_binding_marks_only_its_metrics():
    from perfbench.layers import absent_metrics

    assert absent_metrics(["tcbayes.chance_constraint.evaluate_interface_batch"]) == [
        "heat_interface.eval_calls",
        "heat_interface.eval_self_s",
        "heat_interface.eval_rows",
    ]
    # gpc metrics stay present while either build binding resolves
    assert absent_metrics(["tcbayes.scenario.build_strip_surrogate"]) == []
