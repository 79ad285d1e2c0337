"""Which bindings the traced run wraps, and the per-layer metrics made from them.

Every wrap names the binding the caller looks up (see ``tracer``). Stage
times come from the ``Scenario`` methods: a stage span's time is its
duration minus the stage spans nested in it, so a lazily triggered scan
inside ``reference()`` counts as scan time. Layer self times use the full
span tree: a span's duration minus every wrapped call made inside it.
"""
from __future__ import annotations

import os

import numpy as np

from .tracer import ROOT, self_times


def _sampler_run(args, result):
    seconds = getattr(result, "cumulative_seconds", None)
    accepted = getattr(result, "accepted", None)
    return {
        "steps": len(result) if seconds is not None else getattr(result, "n_generations", 0),
        "accepted": None if accepted is None else np.asarray(accepted, dtype=bool),
        "divergences": int(getattr(result, "divergences", 0)),
        "seconds": None if seconds is None else np.asarray(seconds, dtype=float),
    }


def _oracle_instance(args, result):
    return args[0] if args else None


def _n_rows(args, result):
    return len(args[1]) if len(args) > 1 else 0


def _n_nodes(args, result):
    return len(args[0]) if args else 0


# (span name, dotted binding, hook)
WRAPS = (
    ("scenario.observations", "tcbayes.scenario.Scenario.observations", None),
    ("scenario.scan", "tcbayes.scenario.Scenario.scan", None),
    ("scenario.chains", "tcbayes.scenario.Scenario.run_all_chains", None),
    ("scenario.chain", "tcbayes.scenario.Scenario.run_chain", None),
    ("scenario.reference", "tcbayes.scenario.Scenario.reference", None),
    ("scenario.snapshot", "tcbayes.scenario.Scenario.mean_field_snapshot", None),
    ("porous_flow.forward", "tcbayes.bayes.forward_pressure_at_mean", None),
    ("gpc.build", "tcbayes.scenario.build_strip_surrogate", None),
    ("gpc.build_batch", "tcbayes.scenario.build_strip_surrogate_batch", None),
    ("heat_interface.assemble", "tcbayes.scenario.assemble_interface_from_coeffs", None),
    ("heat_interface.eval", "tcbayes.chance_constraint.evaluate_interface_batch", _n_rows),
    (
        "chance_constraint.oracle",
        "tcbayes.chance_constraint.ChanceConstraintOracle.probability",
        _oracle_instance,
    ),
    ("chance_constraint.prob", "tcbayes.chance_constraint.satisfaction_probability", None),
    ("bayes.log_post", "tcbayes.scenario.log_unconstrained_posterior", None),
    ("bayes.grad", "tcbayes.scenario.grad_log_posterior", None),
    ("samplers.crw", "tcbayes.scenario.run_crw", _sampler_run),
    ("samplers.chmc", "tcbayes.scenario.run_chmc", _sampler_run),
    ("samplers.csvgd", "tcbayes.scenario.run_csvgd", _sampler_run),
    ("samplers.projected_svgd", "tcbayes.scenario.run_projected_svgd", _sampler_run),
    ("diagnostics.reference", "tcbayes.scenario.reference_posterior", _n_nodes),
    ("diagnostics.summary", "tcbayes.cli.diagnostics_summary", None),
    ("diagnostics.histogram", "tcbayes.cli.chain_histogram", None),
)

STAGES = {
    "scenario.observations_s": ("scenario.observations",),
    "scenario.scan_s": ("scenario.scan",),
    "scenario.chains_s": ("scenario.chains", "scenario.chain"),
    "scenario.reference_s": ("scenario.reference",),
    "scenario.snapshot_s": ("scenario.snapshot",),
}
SAMPLERS = ("samplers.crw", "samplers.chmc", "samplers.csvgd", "samplers.projected_svgd")

# name -> (unit, better, span names it is made from; all absent means "absent")
PER_LAYER = {
    **{name: ("s", "lower", spans) for name, spans in STAGES.items()},
    "porous_flow.forward_calls": ("count", "lower", ("porous_flow.forward",)),
    "porous_flow.forward_self_s": ("s", "lower", ("porous_flow.forward",)),
    "porous_flow.forward_us": ("us", "lower", ("porous_flow.forward",)),
    "gpc.builds": ("count", "lower", ("gpc.build", "gpc.build_batch")),
    "gpc.build_self_s": ("s", "lower", ("gpc.build", "gpc.build_batch")),
    "gpc.build_ms": ("ms", "lower", ("gpc.build", "gpc.build_batch")),
    "heat_interface.assemble_calls": ("count", "lower", ("heat_interface.assemble",)),
    "heat_interface.assemble_self_s": ("s", "lower", ("heat_interface.assemble",)),
    "heat_interface.assemble_ms": ("ms", "lower", ("heat_interface.assemble",)),
    "heat_interface.eval_calls": ("count", "lower", ("heat_interface.eval",)),
    "heat_interface.eval_self_s": ("s", "lower", ("heat_interface.eval",)),
    "heat_interface.eval_rows": ("count", "lower", ("heat_interface.eval",)),
    "chance_constraint.oracle_calls": ("count", "lower", ("chance_constraint.oracle",)),
    "chance_constraint.oracle_evals": ("count", "lower", ("chance_constraint.oracle",)),
    "chance_constraint.oracle_hit_ratio": ("ratio", "higher", ("chance_constraint.oracle",)),
    "chance_constraint.build_failures": ("count", "lower", ("chance_constraint.oracle",)),
    "chance_constraint.prob_self_s": ("s", "lower", ("chance_constraint.prob",)),
    "chance_constraint.mc_draws": ("count", "lower", ("chance_constraint.oracle",)),
    "bayes.log_post_calls": ("count", "lower", ("bayes.log_post",)),
    "bayes.log_post_self_s": ("s", "lower", ("bayes.log_post",)),
    "bayes.grad_calls": ("count", "lower", ("bayes.grad",)),
    "bayes.grad_self_s": ("s", "lower", ("bayes.grad",)),
    "samplers.steps": ("count", "higher", SAMPLERS),
    "samplers.self_s": ("s", "lower", SAMPLERS),
    "samplers.acceptance_rate": ("ratio", "higher", SAMPLERS),
    "samplers.divergences": ("count", "lower", SAMPLERS),
    "samplers.step_us_p50": ("us", "lower", SAMPLERS),
    "samplers.step_us_p99": ("us", "lower", SAMPLERS),
    "diagnostics.reference_self_s": ("s", "lower", ("diagnostics.reference",)),
    "diagnostics.reference_nodes": ("count", "lower", ("diagnostics.reference",)),
    "diagnostics.summary_s": ("s", "lower", ("diagnostics.summary", "diagnostics.histogram")),
    "diagnostics.l2_final": ("ratio", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "cli.files_written": ("count", "lower", ()),
    "cli.bytes_written": ("bytes", "lower", ()),
    "trace.run_wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.unattributed_share": ("ratio", "lower", ()),
}


def absent_metrics(absent_bindings) -> list[str]:
    """Per-layer metrics whose every source binding failed to resolve."""
    missing = {name for name, dotted, _ in WRAPS if dotted in set(absent_bindings)}
    return [m for m, (_, _, spans) in PER_LAYER.items() if spans and set(spans) <= missing]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def summarize(tracer, n_prob_samples: int, out_dir: str) -> dict:
    """Per-layer metrics of a finished traced run, except the trace.* ones.

    The root span is the call into the pipeline entry point.
    """
    spans = tracer.arrays()
    name_id, start, end = spans["name_id"], spans["start"], spans["end"]
    duration = end - start
    own = self_times(**spans)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(name_id, wanted)

    def self_s(*names):
        return float(own[mask(*names)].sum())

    stage_own = self_times(**spans, keep=mask(*(s for group in STAGES.values() for s in group)))
    out = {name: float(stage_own[mask(*group)].sum()) for name, group in STAGES.items()}

    forward = mask("porous_flow.forward")
    builds = mask("gpc.build", "gpc.build_batch")
    assemble = mask("heat_interface.assemble")
    out.update(
        {
            "porous_flow.forward_calls": int(forward.sum()),
            "porous_flow.forward_self_s": self_s("porous_flow.forward"),
            "porous_flow.forward_us": 1e6 * _median(duration[forward]),
            "gpc.builds": int(builds.sum()),
            "gpc.build_self_s": self_s("gpc.build", "gpc.build_batch"),
            "gpc.build_ms": 1e3 * _median(duration[builds]),
            "heat_interface.assemble_calls": int(assemble.sum()),
            "heat_interface.assemble_self_s": self_s("heat_interface.assemble"),
            "heat_interface.assemble_ms": 1e3 * _median(duration[assemble]),
            "heat_interface.eval_calls": int(mask("heat_interface.eval").sum()),
            "heat_interface.eval_self_s": self_s("heat_interface.eval"),
            "heat_interface.eval_rows": int(sum(tracer.observed.get("heat_interface.eval", []))),
        }
    )

    oracles = {id(o): o for o in tracer.observed.get("chance_constraint.oracle", []) if o is not None}
    calls = int(mask("chance_constraint.oracle").sum())
    evals = sum(int(getattr(o, "evaluations", 0)) for o in oracles.values())
    out.update(
        {
            "chance_constraint.oracle_calls": calls,
            "chance_constraint.oracle_evals": evals,
            "chance_constraint.oracle_hit_ratio": (calls - evals) / calls if calls else 0.0,
            "chance_constraint.build_failures": sum(
                int(getattr(o, "build_failures", 0)) for o in oracles.values()
            ),
            "chance_constraint.prob_self_s": self_s("chance_constraint.prob"),
            "chance_constraint.mc_draws": evals * int(n_prob_samples),
            "bayes.log_post_calls": int(mask("bayes.log_post").sum()),
            "bayes.log_post_self_s": self_s("bayes.log_post"),
            "bayes.grad_calls": int(mask("bayes.grad").sum()),
            "bayes.grad_self_s": self_s("bayes.grad"),
        }
    )

    runs = [r for name in SAMPLERS for r in tracer.observed.get(name, [])]
    accepted = [r["accepted"] for r in runs if r["accepted"] is not None]
    steps_us = [1e6 * np.diff(r["seconds"], prepend=0.0) for r in runs if r["seconds"] is not None]
    steps_us = np.concatenate(steps_us) if steps_us else np.zeros(0)
    out.update(
        {
            "samplers.steps": int(sum(r["steps"] for r in runs)),
            "samplers.self_s": self_s(*SAMPLERS),
            "samplers.acceptance_rate": float(np.concatenate(accepted).mean()) if accepted else 0.0,
            "samplers.divergences": int(sum(r["divergences"] for r in runs)),
            "samplers.step_us_p50": float(np.percentile(steps_us, 50)) if steps_us.size else 0.0,
            "samplers.step_us_p99": float(np.percentile(steps_us, 99)) if steps_us.size else 0.0,
            "diagnostics.reference_self_s": self_s("diagnostics.reference"),
            "diagnostics.reference_nodes": int(sum(tracer.observed.get("diagnostics.reference", []))),
            "diagnostics.summary_s": float(
                duration[mask("diagnostics.summary", "diagnostics.histogram")].sum()
            ),
            "cli.self_s": self_s(ROOT),
        }
    )

    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    files = [f for f in files if os.path.isfile(f)]
    out["cli.files_written"] = len(files)
    out["cli.bytes_written"] = int(sum(os.path.getsize(f) for f in files))
    return out
