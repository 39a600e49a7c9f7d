"""Run configuration: JSON document parsing, strict validation, defaults.

Configs are plain JSON with nested blocks.  Unknown keys are rejected with
the offending key named, range violations name the exact field, and every
default is applied here so a resolved config is self-contained and
hashable for the run manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .datagen import DEFAULT_CARDINALITIES, ScenarioSpec, scenario_preset
from .estimation import LOSS_KINDS, GreedyConfig
from .likelihood import LikelihoodConfig
from .mcmc import SamplerConfig
from .priors import CalibrationSpec, EppParams, calibrate_recursive

COMMANDS = (
    "simulate",
    "calibrate",
    "sample-prior",
    "run",
    "estimate",
    "evaluate",
    "summarize",
)


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


@dataclass(frozen=True)
class PriorConfig:
    family: str = "bbap"
    cap: int | None = None
    theta: float = 1.0
    calibration: CalibrationSpec | None = None

    def build(self, n: int):
        if self.family == "epp":
            return EppParams(theta=self.theta)
        return calibrate_recursive(self.calibration, n)


@dataclass(frozen=True)
class EstimationConfig:
    losses: tuple[str, ...] = LOSS_KINDS
    samples_used: int = 2000
    sweeps: int = 100
    max_clusters: int | None = None

    def greedy(self, seed: int) -> GreedyConfig:
        return GreedyConfig(sweeps=self.sweeps, max_clusters=self.max_clusters, seed=seed)


@dataclass(frozen=True)
class RunConfig:
    command: str
    output_dir: str
    seed: int
    dataset: str | None
    scenario: ScenarioSpec | None
    prior: PriorConfig
    likelihood: LikelihoodConfig
    sampler: SamplerConfig
    estimation: EstimationConfig
    draws: int
    resolved: dict = field(repr=False, default_factory=dict)


def _require_object(block, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, not {type(block).__name__}")


def _reject_unknown(block: dict, allowed: set[str], where: str) -> None:
    _require_object(block, f"'{where[:-1]}'" if where else "the config document")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{where}{key}'")


def _get(block: dict, key: str, default, caster, where: str):
    if key not in block or block[key] is None:
        return default
    try:
        return caster(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{where}{key}': {exc}") from exc


def _parse_scenario(block: dict) -> ScenarioSpec:
    allowed = {"id", "clusters", "psi", "cardinalities", "sizes", "weights", "seed"}
    _reject_unknown(block, allowed, "scenario.")
    seed = _get(block, "seed", 0, int, "scenario.")
    clusters = _get(block, "clusters", 200, int, "scenario.")
    cards = tuple(_get(block, "cardinalities", DEFAULT_CARDINALITIES, lambda v: [int(x) for x in v], "scenario."))
    psi = _get(block, "psi", 0.05, _scalar_or_floats, "scenario.")
    scenario_id = _get(block, "id", None, int, "scenario.")
    if scenario_id is not None:
        try:
            spec = scenario_preset(scenario_id, clusters, psi, cards, seed)
        except ValueError as exc:
            raise ConfigError(f"scenario: {exc}") from exc
        if "sizes" in block or "weights" in block:
            raise ConfigError("scenario: give either 'id' or explicit 'sizes'/'weights', not both")
        return spec
    sizes = _get(block, "sizes", None, lambda v: tuple(int(s) for s in v), "scenario.")
    weights = _get(block, "weights", None, lambda v: tuple(float(w) for w in v), "scenario.")
    if sizes is None or weights is None:
        raise ConfigError("scenario needs an 'id' or explicit 'sizes' and 'weights'")
    if isinstance(psi, float):
        psi = tuple(psi for _ in cards)
    try:
        return ScenarioSpec(
            name="custom",
            n_clusters=clusters,
            sizes=sizes,
            weights=weights,
            psi=psi,
            cardinalities=cards,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def _scalar_or_floats(value) -> float | tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(p) for p in value)
    return float(value)


def _parse_calibration(block: dict, cap: int, cv: float, base_dir: str) -> CalibrationSpec:
    allowed = {"family", "p", "r", "pi", "path"}
    _reject_unknown(block, allowed, "prior.calibration.")
    family = block.get("family", "geometric")
    pi = block.get("pi")
    if family == "informed":
        path = block.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("'prior.calibration.path' must name a file for the informed family")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        try:
            with open(full) as fh:
                pi = json.load(fh)["pi"]
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load informed calibration from '{full}': {exc}") from exc
        family = "explicit"
    where = "prior.calibration."
    p = _get(block, "p", 0.5 if family in ("geometric", "negbin") else None, float, where)
    r = _get(block, "r", None, float, where)
    try:
        return CalibrationSpec(
            family=family,
            cap=cap,
            cv=cv,
            p=p,
            r=r,
            pi=tuple(pi) if pi is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"prior.calibration: {exc}") from exc


def _parse_prior(block: dict, base_dir: str) -> PriorConfig:
    allowed = {"family", "cap", "theta", "calibration", "cv"}
    _reject_unknown(block, allowed, "prior.")
    family = block.get("family", "bbap")
    if family not in ("bbap", "epp"):
        raise ConfigError(f"'prior.family' must be 'bbap' or 'epp'; got '{family}'")
    if family == "epp":
        theta = _get(block, "theta", 1.0, float, "prior.")
        if theta <= 0:
            raise ConfigError("'prior.theta' must be positive")
        return PriorConfig(family="epp", theta=theta)
    cap = _get(block, "cap", None, int, "prior.")
    if cap is None:
        raise ConfigError("'prior.cap' is required for the bbap family")
    if cap < 2:
        raise ConfigError("'prior.cap' must be at least 2")
    cv = _get(block, "cv", 0.25, float, "prior.")
    if cv <= 0:
        raise ConfigError("'prior.cv' must be positive")
    calibration = _parse_calibration(block.get("calibration", {}), cap, cv, base_dir)
    return PriorConfig(family="bbap", cap=cap, calibration=calibration)


def _parse_likelihood(block: dict) -> LikelihoodConfig:
    allowed = {"psi_prior_mean", "psi_prior_sd", "smoothing_eps", "psi_fixed"}
    _reject_unknown(block, allowed, "likelihood.")
    mean = _get(block, "psi_prior_mean", 0.01, float, "likelihood.")
    sd = _get(block, "psi_prior_sd", 0.01, float, "likelihood.")
    eps = _get(block, "smoothing_eps", 0.01, float, "likelihood.")
    psi_fixed = _get(
        block, "psi_fixed", None,
        lambda v: tuple(float(p) for p in v) if isinstance(v, (list, tuple)) else float(v),
        "likelihood.",
    )
    try:
        return LikelihoodConfig(mean, sd, eps, psi_fixed)
    except ValueError as exc:
        raise ConfigError(f"likelihood: {exc}") from exc


def _parse_sampler(block: dict, seed: int) -> SamplerConfig:
    allowed = {
        "iterations", "burn_in", "thin", "chains", "move_mix",
        "chaperone_floor", "inner_sweeps", "snapshot_stride", "check_every",
    }
    _reject_unknown(block, allowed, "sampler.")
    try:
        return SamplerConfig(
            iterations=_get(block, "iterations", 20_000, int, "sampler."),
            burn_in=_get(block, "burn_in", 10_000, int, "sampler."),
            thin=_get(block, "thin", 1, int, "sampler."),
            chains=_get(block, "chains", 2, int, "sampler."),
            seed=seed,
            move_mix=_get(block, "move_mix", 0.9, float, "sampler."),
            chaperone_floor=_get(block, "chaperone_floor", 0.1, float, "sampler."),
            inner_sweeps=_get(block, "inner_sweeps", 5, int, "sampler."),
            snapshot_stride=_get(block, "snapshot_stride", 10, int, "sampler."),
            check_every=_get(block, "check_every", 1000, int, "sampler."),
        )
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc


def _parse_estimation(block: dict) -> EstimationConfig:
    allowed = {"losses", "samples_used", "sweeps", "max_clusters"}
    _reject_unknown(block, allowed, "estimation.")
    losses = block.get("losses", list(LOSS_KINDS))
    if not isinstance(losses, list) or not all(isinstance(v, str) for v in losses):
        raise ConfigError("'estimation.losses' must be a list of loss names")
    losses = tuple(losses)
    for loss in losses:
        if loss not in LOSS_KINDS:
            raise ConfigError(f"'estimation.losses' entry '{loss}' is not one of {LOSS_KINDS}")
    samples_used = _get(block, "samples_used", 2000, int, "estimation.")
    sweeps = _get(block, "sweeps", 100, int, "estimation.")
    if samples_used < 1 or sweeps < 1:
        raise ConfigError("'estimation.samples_used' and 'estimation.sweeps' must be positive")
    max_clusters = _get(block, "max_clusters", None, int, "estimation.")
    if max_clusters is not None and max_clusters < 1:
        raise ConfigError("'estimation.max_clusters' must be at least 1")
    return EstimationConfig(losses, samples_used, sweeps, max_clusters)


def parse_config(
    path: str | None = None,
    command: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Load, override, validate, and resolve a run configuration.

    Accepts either a plain config document or a previously written manifest
    (whose embedded resolved config is reused, making reruns exact).
    Override values win over file values.
    """
    raw: dict = {}
    base_dir = "."
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config '{path}': {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc
        base_dir = os.path.dirname(os.path.abspath(path))
    _require_object(raw, "the config document")
    if "config" in raw and "config_hash" in raw:
        command = command or raw.get("command")
        raw = raw["config"]
        _require_object(raw, "the manifest's 'config'")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        block = raw
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1]):
            block = block.setdefault(part, {})
            _require_object(block, f"'{'.'.join(parts[:depth + 1])}'")
        block[parts[-1]] = value

    allowed = {
        "command", "dataset", "scenario", "prior", "likelihood",
        "sampler", "estimation", "output_dir", "seed", "draws",
    }
    _reject_unknown(raw, allowed, "")
    command = command or raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"'command' must be one of {COMMANDS}; got {command!r}")
    seed = _get(raw, "seed", 0, int, "")
    draws = _get(raw, "draws", 1000, int, "")
    if draws < 1:
        raise ConfigError("'draws' must be positive")
    output_dir = raw.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        raise ConfigError("'output_dir' is required as a path string")
    dataset = raw.get("dataset")
    if dataset is not None and not isinstance(dataset, str):
        raise ConfigError(f"'dataset' must be a path string, not {type(dataset).__name__}")
    if dataset is not None and not os.path.isabs(dataset):
        dataset = os.path.join(base_dir, dataset)
    scenario = _parse_scenario(raw["scenario"]) if raw.get("scenario") else None
    if dataset is None and scenario is None and command != "estimate":
        raise ConfigError("give a 'dataset' path or a 'scenario' block")
    prior = _parse_prior(raw.get("prior", {"family": "bbap", "cap": 15}), base_dir)
    like = _parse_likelihood(raw.get("likelihood", {}))
    sampler = _parse_sampler(raw.get("sampler", {}), seed)
    estimation = _parse_estimation(raw.get("estimation", {}))
    cfg = RunConfig(
        command=command,
        output_dir=output_dir,
        seed=seed,
        dataset=dataset,
        scenario=scenario,
        prior=prior,
        likelihood=like,
        sampler=sampler,
        estimation=estimation,
        draws=draws,
    )
    object.__setattr__(cfg, "resolved", resolved_dict(cfg))
    return cfg


def resolved_dict(cfg: RunConfig) -> dict:
    """Fully resolved config as plain JSON-ready data."""
    out: dict = {
        "command": cfg.command,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
        "draws": cfg.draws,
        "dataset": cfg.dataset,
        "prior": {
            "family": cfg.prior.family,
        },
        "likelihood": asdict(cfg.likelihood),
        "sampler": {k: v for k, v in asdict(cfg.sampler).items() if k != "seed"},
        "estimation": asdict(cfg.estimation),
    }
    if cfg.prior.family == "epp":
        out["prior"]["theta"] = cfg.prior.theta
    else:
        cal = cfg.prior.calibration
        out["prior"]["cap"] = cfg.prior.cap
        out["prior"]["cv"] = cal.cv
        out["prior"]["calibration"] = {
            "family": cal.family,
            "p": cal.p,
            "r": cal.r,
            "pi": list(cal.pi) if cal.pi is not None else None,
        }
    if cfg.scenario is not None:
        out["scenario"] = {
            "id": None,
            "clusters": cfg.scenario.n_clusters,
            "sizes": list(cfg.scenario.sizes),
            "weights": list(cfg.scenario.weights),
            "psi": list(cfg.scenario.psi),
            "cardinalities": list(cfg.scenario.cardinalities),
            "seed": cfg.scenario.seed,
        }
    return out
