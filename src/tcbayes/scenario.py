"""Scenario assembly: parse a config file and wire the full pipeline.

A scenario bundles the porous-strip physics, the uncertain-input germ, the
chance constraint, the prior/data model, and one sampler configuration. The
three shipped setups are

* model 1: one strip, bivariate germ (heat flux, porosity), pressure data
  from a single sensor group;
* model 2: a strip array over two porosity sections with one shared
  heat-flux germ, two sensor groups, and the transient interface
  temperature constraint;
* model 3: sixty strips with independent per-strip heat-flux germs.

Configuration is a single strict-schema JSON document; keys starting with
an underscore are ignored everywhere (notes). ``Scenario`` wires a validated
``ScenarioConfig`` into the inversion's stages: observations, the strip exit
table, the forward tables, the constraint oracle and its boundary scan, the
posterior and the reference density. Each stage is built on first use and
kept in one memo, which ``Scenario.with_sampler`` clones share, so a stage
is built once however many samplers run; the sampler runs themselves are
not kept. One batched Euler march per scenario (``Scenario._tables``)
gives every Chebyshev table: the strip exit table and each observation
group's forward table. Only thetas outside the tables' range march alone.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bayes import (
    GROUP_KEYS,
    ChebyshevTable,
    ObservationGroup,
    ObservationSet,
    Posterior,
    PriorSpec,
    fit_table,
    generate_observations,
    table_record,
    table_thetas,
)
from .chance_constraint import (
    ChanceConstraintOracle,
    ChanceConstraintSpec,
    FeasibilityScan,
    InterfaceMaxConstraint,
    StripExitConstraint,
    scan_feasible_boundary,
)
from .diagnostics import (
    DEFAULT_BURN_IN,
    DEFAULT_CONFIDENCE,
    DEFAULT_N_BINS,
    DEFAULT_REFERENCE_NODES,
    ReferenceDensity,
    reference_posterior,
)
from .gpc import (
    DEFAULT_N_QUAD,
    DEFAULT_ORDER,
    GermSpec,
    GermVariable,
    porosity_projection,
    strip_exit_law,
)
from .heat_interface import (
    DEFAULT_CFL,
    DEFAULT_N_Z,
    InterfaceField,
    InterfaceGeometry,
    InterfaceSurrogate,
    assemble_interface_from_coeffs,
)
from .porous_flow import DEFAULT_N_STEPS, ModelParams, interface_state_batch, march_batch
from .samplers import (
    interval_membership,
    interval_projection,
    penalized_gradient,
    run_chmc,
    run_crw,
    run_csvgd,
    run_projected_svgd,
)


class ConfigError(ValueError):
    """Raised when a scenario configuration fails schema or semantic checks."""


_MAX_REDRAWS = 100


def _strip_notes(obj):
    if isinstance(obj, dict):
        return {k: _strip_notes(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, list):
        return [_strip_notes(v) for v in obj]
    return obj


def _non_finite_paths(obj, path: tuple = ()):
    """Key paths of the NaN and infinite numbers in a parsed config.

    JSON parsing accepts NaN and Infinity, and schema bounds let NaN through.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        yield "/".join(map(str, path))
    elif isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _non_finite_paths(value, path + (key,))


def _load_schema() -> dict:
    text = resources.files("tcbayes").joinpath("config_schema.json").read_text()
    return json.loads(text)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_LIMITS = {
    "minimum": ("number", operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum of"),
    "maximum": ("number", operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": ("number", operator.ge, "is greater than or equal to the maximum of"),
    "minItems": ("array", lambda v, n: len(v) < n, "has fewer items than"),
    "maxItems": ("array", lambda v, n: len(v) > n, "has more items than"),
}
_KEYWORDS = {"type", "enum", *_LIMITS, "properties", "patternProperties", "additionalProperties",
             "required", "items", "oneOf", "allOf", "$schema", "title", "description", "definitions"}


def schema_errors(instance, schema: dict, root: dict | None = None, path: tuple = ()):
    """Yield ``(path, message)`` for each draft-07 ``schema`` keyword ``instance`` breaks.

    Implements the packaged config schema's keywords; any other raises
    NotImplementedError, so a schema edit cannot pass unchecked. NaN passes every bound.
    """
    root = schema if root is None else root
    while "$ref" in schema:  # draft 07 ignores the siblings of a reference
        schema = root["definitions"][schema["$ref"].removeprefix("#/definitions/")]
    if isinstance(instance, dict):
        properties, patterns = schema.get("properties", {}), schema.get("patternProperties", {})
        for key, item in instance.items():
            subschemas = [properties[key]] if key in properties else []
            subschemas += [sub for pattern, sub in patterns.items() if re.search(pattern, key)]
            if not subschemas and schema.get("additionalProperties") is False:
                yield path, f"unexpected key {key!r}"
            for subschema in subschemas:
                yield from schema_errors(item, subschema, root, path + (key,))
    for keyword, value in schema.items():
        if keyword not in _KEYWORDS or keyword == "additionalProperties" and value is not False:
            raise NotImplementedError(f"schema keyword {keyword!r}: {value!r} is not implemented")
        elif keyword == "type" and not _TYPES[value](instance):
            yield path, f"{instance!r} is not of type {value!r}"
        elif keyword == "enum" and not any(
            e == instance and isinstance(e, bool) == isinstance(instance, bool) for e in value
        ):
            yield path, f"{instance!r} is not one of {value!r}"
        elif keyword in _LIMITS:
            kind, violates, words = _LIMITS[keyword]
            if _TYPES[kind](instance) and violates(instance, value):
                yield path, f"{instance!r} {words} {value!r}"
        elif keyword == "required" and isinstance(instance, dict):
            for key in [key for key in value if key not in instance]:
                yield path, f"{key!r} is a required property"
        elif keyword == "items" and isinstance(instance, list):
            for index, item in enumerate(instance):
                yield from schema_errors(item, value, root, path + (index,))
        elif keyword == "allOf":
            for sub in value:
                yield from schema_errors(instance, sub, root, path)
        elif keyword == "oneOf":
            n_valid = sum(next(schema_errors(instance, sub, root, path), None) is None
                          for sub in value)
            if n_valid != 1:
                yield path, f"{instance!r} is valid under {n_valid} oneOf schemas, not exactly one"


def strip_flux_profile(rule: dict, n_strips: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-strip heat-flux germ means and stds from a generator rule.

    The sinusoidal rule modulates a base flux along the strip array:
    mean_i = base * (1 + amplitude * sin(2*pi*periods*(i+1/2)/n)).
    """
    if rule.get("rule") != "sinusoidal":
        raise ConfigError(f"unknown strip rule {rule.get('rule')!r}")
    base = float(rule["base_mean"])
    amplitude = float(rule["amplitude"])
    periods = float(rule.get("periods", 1.0))
    rel_std = float(rule["relative_std"])
    centers = (np.arange(n_strips) + 0.5) / n_strips
    means = base * (1.0 + amplitude * np.sin(2.0 * math.pi * periods * centers))
    if np.any(means <= 0.0):
        raise ConfigError("sinusoidal rule produced a nonpositive mean flux")
    return means, rel_std * means


@dataclass(frozen=True)
class DataConfig:
    theta_true: float | None
    noise_std: float | None
    n_obs: int
    seed: int
    groups: tuple[dict, ...]
    path: str | None


@dataclass(frozen=True)
class ScanConfig:
    theta_range: tuple[float, float] | None
    n_coarse: int = 33
    tol: float = 0.5


@dataclass(frozen=True)
class DiagnosticsConfig:
    n_bins: int = DEFAULT_N_BINS
    confidence: float = DEFAULT_CONFIDENCE
    reference_nodes: int = DEFAULT_REFERENCE_NODES
    checkpoints: tuple[int, ...] | None = None


def _given(block: dict, **casts) -> dict:
    """The ``casts`` keys a config block sets, each cast; absent keys keep class defaults."""
    return {key: cast(block[key]) for key, cast in casts.items() if key in block}


_SAMPLER_REQUIRED = {
    "crw": ("proposal_std", "n_samples"),
    "chmc": ("mass", "step", "max_leapfrog", "n_samples"),
    "csvgd": ("n_particles", "n_generations", "step_size"),
    "projected_svgd": ("n_particles", "n_generations", "step_size"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario settings; ``raw`` keeps the original document."""

    model: int
    params: ModelParams
    germ: GermSpec
    geometry: InterfaceGeometry | None
    n_z: int
    cfl: float
    order: int | None  # model 1's porosity expansion, as n_quad
    n_quad: int | None
    n_steps: int
    constraint: ChanceConstraintSpec
    oracle_mode: str
    pointwise: bool
    prior: PriorSpec
    data: DataConfig
    sampler: dict
    scan: ScanConfig
    diagnostics: DiagnosticsConfig
    seed: int
    output_dir: str
    classic_iid: bool
    raw: dict = dataclasses.field(compare=False, default_factory=dict)

    @staticmethod
    def load(path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ScenarioConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        errors = sorted(schema_errors(raw, _load_schema()), key=lambda error: error[0])
        if errors:
            path, message = errors[0]
            where = "/".join(map(str, path)) or "<root>"
            raise ConfigError(f"config invalid at {where}: {message}")
        cfg = _strip_notes(raw)

        model = cfg["model"]
        try:
            params = ModelParams(**cfg.get("model_params", {}))
        except ValueError as exc:
            raise ConfigError(f"invalid model_params: {exc}") from exc

        germ_cfg = cfg["germ"]
        geo_cfg = cfg.get("geometry") or {}
        geometry = _parse_geometry(geo_cfg, model)
        # model_params and geometry name their own bad fields; the rest is checked here
        where = next(_non_finite_paths(cfg), None)
        if where is not None:
            raise ConfigError(f"config invalid at {where}: numbers must be finite")
        germ = _parse_germ(germ_cfg, model, geometry)

        surr = cfg.get("surrogate", {})
        if model != 1 and {"order", "n_quad"} & surr.keys():
            raise ConfigError(
                "surrogate order and n_quad are model-1 settings: the exit temperature "
                "is affine in the heat flux, so models 2 and 3 expand it exactly to order 1"
            )
        order = int(surr.get("order", DEFAULT_ORDER)) if model == 1 else None
        n_quad = int(surr.get("n_quad", DEFAULT_N_QUAD)) if model == 1 else None
        n_steps = int(surr.get("n_steps", DEFAULT_N_STEPS))
        if model == 1 and n_quad < order + 1:
            raise ConfigError("surrogate n_quad must be at least order + 1")
        try:  # gpc's own check of the porosity at its collocation nodes
            if model == 1:
                porosity_projection(germ.variables[1], order, n_quad)
        except ValueError as exc:
            raise ConfigError(f"config invalid at germ/phi: {exc}") from exc

        con = cfg["constraint"]
        constraint = ChanceConstraintSpec(
            beta=float(con["t_max"]),
            alpha=float(con["alpha"]),
            **_given(con, n_prob_samples=int, seed=int),
        )
        oracle_mode = con.get("oracle", "interval")
        pointwise = bool(con.get("pointwise", False))

        try:
            prior = PriorSpec.from_json(cfg["prior"])
        except (KeyError, ValueError) as exc:  # a gaussian without mean, low >= high
            raise ConfigError(f"invalid prior: {exc}") from exc
        data = _parse_data(cfg["data"])
        sampler = _parse_sampler(cfg["sampler"])

        scan_cfg = cfg.get("scan", {})
        theta_range = scan_cfg.get("theta_range")
        if theta_range is not None and not theta_range[0] < theta_range[1]:
            raise ConfigError(f"config invalid at scan/theta_range: {theta_range} is not increasing")
        scan = ScanConfig(
            theta_range=tuple(theta_range) if theta_range is not None else None,
            **_given(scan_cfg, n_coarse=int, tol=float),
        )
        diag_cfg = cfg.get("diagnostics", {})
        diagnostics = DiagnosticsConfig(
            **_given(diag_cfg, n_bins=int, confidence=float, reference_nodes=int, checkpoints=tuple)
        )

        return ScenarioConfig(
            model=model,
            params=params,
            germ=germ,
            geometry=geometry,
            n_z=int(geo_cfg.get("n_z", DEFAULT_N_Z)),
            cfl=float(geo_cfg.get("cfl", DEFAULT_CFL)),
            order=order,
            n_quad=n_quad,
            n_steps=n_steps,
            constraint=constraint,
            oracle_mode=oracle_mode,
            pointwise=pointwise,
            prior=prior,
            data=data,
            sampler=sampler,
            scan=scan,
            diagnostics=diagnostics,
            seed=int(cfg.get("seed", 0)),
            output_dir=cfg.get("output_dir", f"runs/model{model}"),
            classic_iid=bool(cfg.get("classic_iid", False)),
            raw=raw,
        )

    def theta_range(self) -> tuple[float, float]:
        if self.scan.theta_range is not None:
            return self.scan.theta_range
        if self.prior.kind == "uniform":
            return (self.prior.low, self.prior.high)
        lo = self.prior.mean - 4.0 * self.prior.std
        hi = self.prior.mean + 4.0 * self.prior.std
        # Reynolds number is positive; a wide gaussian prior can reach below
        return (max(lo, 1.0), hi)


def _parse_geometry(geo_cfg: dict, model: int) -> InterfaceGeometry | None:
    if model == 1:
        if geo_cfg:
            raise ConfigError("model-1 configs must not carry geometry")
        return None
    keys = ("d1", "d2", "n_strips", "wall_temp", "diffusivity", "t_constraint")
    kwargs = {key: geo_cfg[key] for key in keys if key in geo_cfg}
    if "sections" in geo_cfg:
        kwargs["section_porosities"] = tuple(tuple(sec) for sec in geo_cfg["sections"])
    try:
        return InterfaceGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid geometry: {exc}") from exc


def _gaussian(name: str, block: dict) -> GermVariable:
    return GermVariable(name, float(block["mean"]), float(block["std"]))


def _parse_germ(germ_cfg, model, geometry) -> GermSpec:
    """The germ: model 1's (q, phi), model 2's shared flux q, model 3's q per strip."""
    has_q = "q" in germ_cfg
    has_phi = "phi" in germ_cfg
    has_strips = "strips" in germ_cfg
    if model == 1:
        if not (has_q and has_phi) or has_strips:
            raise ConfigError("model 1 requires germ variables 'q' and 'phi'")
        return GermSpec((_gaussian("q", germ_cfg["q"]), _gaussian("phi", germ_cfg["phi"])))
    if model == 2:
        if not has_q or has_phi or has_strips:
            raise ConfigError("model 2 requires exactly one shared germ variable 'q'")
        return GermSpec((_gaussian("q", germ_cfg["q"]),))
    n = geometry.n_strips
    if not has_strips or has_q or has_phi:
        raise ConfigError("model 3 requires per-strip germ distributions under 'strips'")
    strips = germ_cfg["strips"]
    if isinstance(strips, dict):
        strips = [{"mean": m, "std": s} for m, s in zip(*strip_flux_profile(strips, n))]
    elif len(strips) != n:
        raise ConfigError(f"model 3 needs {n} strip distributions, got {len(strips)}")
    return GermSpec(tuple(_gaussian(f"q_{i:02d}", strip) for i, strip in enumerate(strips)))


def _parse_data(data_cfg: dict) -> DataConfig:
    path = data_cfg.get("path")
    theta_true = data_cfg.get("theta_true")
    noise_std = data_cfg.get("noise_std")
    if path is None:
        missing = [k for k in ("theta_true", "noise_std") if data_cfg.get(k) is None]
        if missing:
            raise ConfigError(f"data block needs {missing} (or a 'path' to existing data)")
    groups = tuple(data_cfg.get("groups", ()))
    labels = [g["label"] for g in groups]
    if len(set(labels)) != len(labels):
        raise ConfigError("data group labels must be unique")
    return DataConfig(
        theta_true=float(theta_true) if theta_true is not None else None,
        noise_std=float(noise_std) if noise_std is not None else None,
        n_obs=int(data_cfg.get("n_obs", 10)),
        seed=int(data_cfg.get("seed", 0)),
        groups=groups,
        path=path,
    )


def _parse_sampler(sampler_cfg: dict) -> dict:
    kind = sampler_cfg["kind"]
    missing = [k for k in _SAMPLER_REQUIRED[kind] if k not in sampler_cfg]
    if missing:
        raise ConfigError(f"sampler '{kind}' requires {missing}")
    out = dict(sampler_cfg)
    out.setdefault("n_chains", 1)
    if kind in ("csvgd", "projected_svgd") and out["n_chains"] != 1:
        raise ConfigError(
            "config invalid at sampler/n_chains: a particle sampler runs one ensemble, "
            "so n_chains must be 1"
        )
    out.setdefault("burn_in_fraction", DEFAULT_BURN_IN)
    out.setdefault("delta", 0.0)
    return out


def load_observations(csv_path: str, provenance_path: str | None = None) -> ObservationSet:
    """Read an observation CSV (group,value) with its provenance sidecar.

    A malformed line or a value that is not a finite number raises
    ConfigError naming the file and line, and a file without observations
    one naming the file. A missing or malformed sidecar (not an object whose
    ``groups`` is a list of objects with a ``label``), or an entry without a
    positive ``noise_std``, with a ``porosity`` outside (0, 1) or with a
    ``heat_flux`` that is not a finite number, raises one naming the sidecar.
    """
    if provenance_path is None:
        provenance_path = csv_path.rsplit(".", 1)[0] + ".json"
    try:
        with open(provenance_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"observation provenance {provenance_path}: {exc}") from exc
    group_list = meta.get("groups", []) if isinstance(meta, dict) else None
    if not isinstance(group_list, list) or not all(
        isinstance(g, dict) and "label" in g for g in group_list
    ):
        raise ConfigError(
            f"observation provenance {provenance_path}: expected an object whose "
            "'groups' is a list of objects with a 'label'"
        )
    values: dict[str, list[float]] = {}
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "group,value":
            raise ConfigError(f"unexpected observation CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            label, _, cell = line.partition(",")
            try:
                value = float(cell)
            except ValueError:  # a line without a comma too
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(
                    f"{csv_path}, line {lineno}: expected 'group,value' with a finite "
                    f"number, got {line!r}"
                )
            values.setdefault(label, []).append(value)
    if not values:
        raise ConfigError(f"{csv_path} holds no observation")

    groups = []
    group_meta = {g["label"]: g for g in group_list}
    for label, group_values in values.items():
        info = group_meta.get(label)
        if info is None:
            raise ConfigError(f"observation group {label!r} missing from provenance")
        for key, valid, needs in (("porosity", lambda v: 0 < v < 1, "a porosity in (0, 1)"),
                                  ("heat_flux", math.isfinite, "a finite heat_flux")):
            value = info.get(key)
            if value is not None and not (isinstance(value, (int, float)) and valid(value)):
                raise ConfigError(
                    f"observation provenance {provenance_path}: group {label!r} needs "
                    f"{needs}, got {value!r}"
                )
        try:
            groups.append(ObservationGroup(
                label,
                np.array(group_values),
                float(info["noise_std"]),
                heat_flux=info.get("heat_flux"),
                porosity=info.get("porosity"),
                provenance={k: v for k, v in info.items() if k not in GROUP_KEYS},
            ))
        except (KeyError, TypeError, ValueError) as exc:  # noise_std missing or not positive
            raise ConfigError(
                f"observation provenance {provenance_path}: group {label!r} needs a "
                f"positive noise_std, got {info.get('noise_std')!r}"
            ) from exc
    return ObservationSet(tuple(groups))


class Scenario:
    """The pipeline stages of one validated configuration, each built once into one memo."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._stages: dict = {}

    def with_sampler(self, sampler: dict) -> "Scenario":
        """Clone with a different sampler block, sharing the built stages."""
        clone = Scenario(dataclasses.replace(self.config, sampler=_parse_sampler(sampler)))
        clone._stages = self._stages
        return clone

    def _once(self, stage: str, build):
        """The memo's ``stage``, from ``build()`` on first use; a None result is kept too."""
        if stage not in self._stages:
            self._stages[stage] = build()
        return self._stages[stage]

    # constraint side ------------------------------------------------------

    def default_flux(self) -> float:
        cfg = self.config
        if cfg.model in (1, 2):
            return cfg.germ.variables[0].mean
        return cfg.params.heat_flux_nominal

    def surrogate_factory(self):
        """theta -> F2Surrogate for the configured model, over ``exit_coeffs``."""
        return lambda theta: self._surrogate(self.exit_coeffs(theta))

    def marched_surrogate(self, theta: float):
        """F2Surrogate at one theta from a one-theta march, without the exit table."""
        return self._surrogate(self._strip_exit_coeffs([theta])[0])

    def _surrogate(self, coeffs: np.ndarray):
        cfg = self.config
        if cfg.model == 1:
            return StripExitConstraint(cfg.germ, coeffs)
        return InterfaceMaxConstraint(self._assemble_interface(coeffs), cfg.pointwise)

    def exit_table(self) -> ChebyshevTable | None:
        """Chebyshev table over ``theta_range()`` of the strip exit coefficients
        (``_tables``), or None: every theta then marches alone."""
        return self._once("exit_table", lambda: self._once("tables", self._tables)[0])

    def exit_coeffs(self, theta: float) -> np.ndarray:
        """Strip exit coefficients at one theta: read from the exit table
        inside ``theta_range()``, else from a one-theta march."""
        lo, hi = self.config.theta_range()
        table = self.exit_table() if lo <= theta <= hi else None
        if table is None:
            return self._strip_exit_coeffs([theta])[0]
        return table(float(theta))

    def _exit_law(self):
        """The elements ``q``, ``phi`` of ``gpc.strip_exit_law`` for the strips
        and flux germs of ``config.germ`` (model 2's one germ on every strip),
        and the map from their exit T_f to the strip exit coefficients. Model
        1's strips are the nodes of its porosity rule, and its map projects
        their (c0, c1) onto He_k(xi_phi)."""
        cfg = self.config
        if cfg.model == 1:
            q, phi = cfg.germ.variables
            flux, (porosities, project) = (q,), porosity_projection(phi, cfg.order, cfg.n_quad)
        else:
            flux, porosities, project = cfg.germ.variables, cfg.geometry.strip_porosities(), None
        means, stds = np.resize([(v.mean, v.std) for v in flux], (porosities.size, 2)).T
        q, phi, coeffs = strip_exit_law(means, stds, porosities)
        return q, phi, coeffs if project is None else lambda tf: project @ coeffs(tf)

    def _strip_exit_coeffs(self, thetas) -> np.ndarray:
        """Strip fluid exit coefficients (c0, c1) at many thetas in one march
        of the strip exit law's elements: (n_thetas, n_strips, 2) for models 2
        and 3. Model 1 marches one strip per node of its porosity rule and
        projects onto He_k(xi_phi): (n_thetas, K+1, 2)."""
        q, phi, exit_law = self._exit_law()
        thetas = np.ravel(thetas)[:, None, None]
        tf, _, _ = interface_state_batch(self.config.params, q, phi, thetas, self.config.n_steps)
        return exit_law(tf)

    def _tables(self) -> tuple:
        """The exit table and the forward tables (point -> table), from one
        ``march_batch`` call at every ``table_thetas`` theta over the strip
        exit law's elements (``_exit_law``) and each group's
        evaluation point. A table with an element that hits the guard or
        goes non-finite is None (a forward one is left out); the others are
        still built."""
        cfg = self.config
        theta_range = cfg.theta_range()
        thetas = table_thetas(theta_range)
        if thetas is None:
            return None, {}
        exit_q, exit_phi, exit_law = self._exit_law()
        points = dict.fromkeys(g.evaluation_point(cfg.params) for g in self.observations().groups)
        points = [p for p in points if 0.0 < p[1] < 1.0]  # the others fail in their direct march
        n = exit_q.size
        q = np.concatenate([exit_q.ravel(), [p[0] for p in points]])
        phi = np.concatenate([exit_phi.ravel(), [p[1] for p in points]])
        # the exit law marches the config's steps and F the default: one call in
        # every shipped config
        steps = np.repeat([cfg.n_steps, DEFAULT_N_STEPS], [n, len(points)])
        states, ok = np.empty((3, thetas.size, q.size)), np.empty(q.size, bool)
        for n_steps in set(steps.tolist()):
            k = steps == n_steps
            states[:, :, k], hit = march_batch(cfg.params, q[k], phi[k], thetas[:, None], n_steps)
            ok[k] = ~(hit | ~np.isfinite(states[:, :, k]).all(axis=0)).any(axis=0)
        tf, _, rho = states
        exit_table = None
        if ok[:n].all():
            coeffs = exit_law(tf[:, :n].reshape(thetas.size, *exit_q.shape))
            exit_table = fit_table(theta_range, coeffs)
        pressures = {p: tf[:, k] * rho[:, k] for k, p in enumerate(points, n) if ok[k]}
        forward = {p: fit_table(theta_range, values) for p, values in pressures.items()}
        return exit_table, {p: table for p, table in forward.items() if table is not None}

    def oracle(self) -> ChanceConstraintOracle:
        return self._once("oracle", lambda: ChanceConstraintOracle(
            self.config.constraint, self.surrogate_factory()
        ))

    def scan(self) -> FeasibilityScan:
        cfg = self.config
        return self._once("scan", lambda: scan_feasible_boundary(
            cfg.theta_range(), self.oracle(), tol=cfg.scan.tol, n_coarse=cfg.scan.n_coarse
        ))

    def intervals(self) -> tuple[tuple[float, float], ...]:
        return self.scan().intervals

    def feasibility(self):
        """In-chain feasibility test per the configured oracle mode.

        "surrogate" queries the probability oracle at every theta (cached by
        quantized value); "interval" freezes the scanned boundary and tests
        membership, which keeps samplers cheap.
        """
        if self.config.oracle_mode == "surrogate":
            return self.oracle()
        return interval_membership(self.intervals())

    # data and posterior ---------------------------------------------------

    def observations(self) -> ObservationSet:
        return self._once("observations", self._build_observations)

    def _build_observations(self) -> ObservationSet:
        cfg = self.config
        data = cfg.data
        if data.path is not None:
            return load_observations(data.path)
        groups = data.groups or ({"label": "obs"},)
        merged: ObservationSet | None = None
        for i, group in enumerate(groups):
            flux = float(group.get("heat_flux", self.default_flux()))
            porosity = float(group.get("porosity", cfg.params.porosity))
            obs = generate_observations(
                cfg.params,
                data.theta_true,
                (flux, porosity),
                float(group.get("noise_std", data.noise_std)),
                int(group.get("n_obs", data.n_obs)),
                data.seed + i,
                label=group["label"],
            )
            merged = obs if merged is None else merged.merge(obs)
        return merged

    def forward_map(self) -> dict:
        """Evaluation point -> Chebyshev table of F over ``theta_range()``
        (``_tables``); a point without one keeps the direct march."""
        return self._once("forward_tables", lambda: self._once("tables", self._tables)[1])

    def forward_tables(self) -> dict:
        """Per group label: ``table_record`` of the group's forward table."""
        tables = self.forward_map()
        return {
            group.label: table_record(tables.get(group.evaluation_point(self.config.params)))
            for group in self.observations().groups
        }

    def posterior(self) -> Posterior:
        """The unconstrained log posterior over the forward tables, built once."""
        cfg = self.config
        return self._once("posterior", lambda: Posterior(
            self.observations(), cfg.prior, cfg.params, cfg.classic_iid, self.forward_map()
        ))

    def log_posterior(self, theta: float) -> float:
        return self.posterior()(float(theta))

    def grad_log_posterior(self, theta: float) -> float:
        return self.posterior().grad(float(theta))

    def penalized_grad(self, delta: float):
        """Scalar gradient with the feasibility penalty and, for a uniform
        prior, the support guard (``samplers.penalized_gradient``)."""
        prior = self.config.prior
        support = (prior.low, prior.high) if prior.kind == "uniform" else None
        return penalized_gradient(
            self.posterior().grad, self.feasibility(), self.intervals(), delta, support
        )

    def initial_particles(self, n: int, seed: int) -> np.ndarray:
        """n prior draws with theta > 0; non-positive draws are redrawn.

        A particle at theta <= 0 has a NaN gradient, which the Stein kernel
        would spread to every particle. Redraws come from the same generator
        after the first n draws, so a seed without such a draw is unchanged.
        """
        prior = self.config.prior
        rng = np.random.default_rng(seed)

        def draw(k: int) -> np.ndarray:
            if prior.kind == "gaussian":
                return prior.mean + prior.std * rng.standard_normal(k)
            return rng.uniform(prior.low, prior.high, k)

        particles = draw(n)
        for _ in range(_MAX_REDRAWS):
            bad = ~(particles > 0.0)
            if not bad.any():
                return particles
            particles[bad] = draw(int(bad.sum()))
        raise ConfigError("the prior puts too little mass on theta > 0 to draw particles")

    def reference(self) -> ReferenceDensity:
        cfg = self.config
        return self._once("reference", lambda: reference_posterior(
            np.linspace(*cfg.theta_range(), cfg.diagnostics.reference_nodes),
            self.posterior(),
            self.feasibility(),
        ))

    # samplers ------------------------------------------------------------

    def theta_init(self) -> float:
        cfg = self.config
        if "theta_init" in cfg.sampler:
            return float(cfg.sampler["theta_init"])
        if cfg.data.theta_true is not None:
            return cfg.data.theta_true
        raise ConfigError("sampler needs theta_init (no data.theta_true to fall back on)")

    def run_chain(self, seed: int):
        """One sampler run with the given seed; chain or particle history."""
        cfg = self.config
        sampler = cfg.sampler
        kind = sampler["kind"]
        if kind == "crw":
            return run_crw(
                self.posterior(),
                self.feasibility(),
                float(sampler["proposal_std"]),
                int(sampler["n_samples"]),
                self.theta_init(),
                seed,
            )
        if kind == "chmc":
            return run_chmc(
                self.posterior(),
                self.penalized_grad(float(sampler["delta"])),
                float(sampler["mass"]),
                float(sampler["step"]),
                int(sampler["max_leapfrog"]),
                int(sampler["n_samples"]),
                self.theta_init(),
                seed,
                feasibility_oracle=self.feasibility(),
            )
        n_particles = int(sampler["n_particles"])
        initial = self.initial_particles(n_particles, seed)
        delta = float(sampler["delta"]) if kind == "csvgd" else 0.0
        grad = self.penalized_grad(delta)

        def per_particle(thetas: np.ndarray) -> np.ndarray:
            return np.array([grad(float(t)) for t in thetas])

        if kind == "csvgd":
            return run_csvgd(
                per_particle,
                n_particles,
                int(sampler["n_generations"]),
                initial_particles=initial,
                step_size=float(sampler["step_size"]),
                seed=seed,
            )
        return run_projected_svgd(
            per_particle,
            interval_projection(self.intervals()),
            n_particles,
            int(sampler["n_generations"]),
            initial_particles=initial,
            step_size=float(sampler["step_size"]),
            seed=seed,
        )

    def chain_seeds(self) -> list[int]:
        n_chains = int(self.config.sampler["n_chains"])
        return [self.config.seed + i for i in range(n_chains)]

    def run_all_chains(self):
        return [self.run_chain(s) for s in self.chain_seeds()]

    # interface snapshots ---------------------------------------------------

    def _assemble_interface(self, coeffs: np.ndarray, t_end: float | None = None) -> InterfaceSurrogate:
        cfg = self.config
        geometry = cfg.geometry
        if t_end is None:
            t_end = geometry.t_constraint
        return assemble_interface_from_coeffs(
            geometry, coeffs, cfg.germ, geometry.diffusivity, t_end, cfg.n_z, cfg.cfl
        )

    def interface_surrogate(self, theta: float, t_end: float | None = None) -> InterfaceSurrogate:
        """Interface expansion at one theta, diffused to t_end (models 2-3)."""
        if self.config.model == 1:
            raise ConfigError("model 1 has no interface field")
        return self._assemble_interface(self.exit_coeffs(theta), t_end)

    def mean_field_snapshot(self, theta: float, t_end: float | None = None) -> InterfaceField:
        """Interface temperature at the germ mean (all modes drop out)."""
        isurr = self.interface_surrogate(theta, t_end)
        return InterfaceField(isurr.z_grid, isurr.base_field, isurr.time)
