"""Run configuration: JSON document parsing, strict validation, defaults.

Configs are plain JSON with nested blocks.  Unknown keys are rejected with
the offending key named, range violations name the exact field, and every
default is applied here so a resolved config is self-contained and
hashable for the run manifest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

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
    theta: float = 1.0
    calibration: CalibrationSpec | None = None

    def build(self, n: int):
        if self.family == "epp":
            return EppParams(theta=self.theta)
        cap = self.calibration.cap
        if n < cap:
            raise ConfigError(f"'prior.cap' is {cap}, more than the {n} records")
        return calibrate_recursive(self.calibration, n)


@dataclass(frozen=True)
class EstimationConfig:
    losses: tuple[str, ...] = LOSS_KINDS
    samples_used: int = 2000
    sweeps: int = 100
    max_clusters: int | None = None

    def __post_init__(self):
        losses = self.losses
        if not isinstance(losses, tuple) or not all(isinstance(v, str) for v in losses):
            raise ValueError("'estimation.losses' must be a list of loss names")
        for loss in losses:
            if loss not in LOSS_KINDS:
                raise ValueError(f"'estimation.losses' entry '{loss}' is not one of {LOSS_KINDS}")
        if not losses:
            raise ValueError("'estimation.losses' must name at least one loss")
        if len(set(losses)) < len(losses):
            raise ValueError(f"'estimation.losses' names a loss more than once: {list(losses)}")
        if self.samples_used < 1 or self.sweeps < 1:
            raise ValueError("'estimation.samples_used' and 'estimation.sweeps' must be positive")
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ValueError("'estimation.max_clusters' must be at least 1")

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


def _int(value) -> int:
    """A JSON integer, or a float with an integral value (1e4 is 10000);
    booleans and fractional numbers are rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """A finite number: NaN and +-Infinity, which Python's json reads, are
    rejected."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _floats(value) -> tuple[float, ...]:
    return tuple(_float(v) for v in value)


def _seed(value) -> int:
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"{seed} is negative")
    return seed


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
    seed = _get(block, "seed", 0, _seed, "scenario.")
    clusters = _get(block, "clusters", 200, _int, "scenario.")
    cards = tuple(_get(block, "cardinalities", DEFAULT_CARDINALITIES, lambda v: [_int(x) for x in v], "scenario."))
    psi = _get(block, "psi", 0.05, _scalar_or_floats, "scenario.")
    scenario_id = _get(block, "id", None, _int, "scenario.")
    if scenario_id is not None:
        try:
            spec = scenario_preset(scenario_id, clusters, psi, cards, seed)
        except ValueError as exc:
            raise ConfigError(f"scenario: {exc}") from exc
        if "sizes" in block or "weights" in block:
            raise ConfigError("scenario: give either 'id' or explicit 'sizes'/'weights', not both")
        return spec
    sizes = _get(block, "sizes", None, lambda v: tuple(_int(s) for s in v), "scenario.")
    weights = _get(block, "weights", None, _floats, "scenario.")
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
        return _floats(value)
    return _float(value)


def _list_as_tuple(value):
    """A JSON list as a tuple; any other value is passed on for the
    dataclass to reject."""
    return tuple(value) if isinstance(value, list) else value


# the caster of each declared field type of a block read by _parse_block
_CASTERS = {
    "int": _int,
    "int | None": _int,
    "float": _float,
    "float | tuple[float, ...] | None": _scalar_or_floats,
    "tuple[str, ...]": _list_as_tuple,
}


def _parse_block(block: dict, cls, where: str, defaults: dict | None = None, **given):
    """The block as an instance of the dataclass cls.  Its keys are the
    fields of cls less those in given, each read with the caster of its
    declared type; a missing or null key takes defaults' value, else the
    field's own default.  A ValueError from cls becomes a ConfigError
    naming the block."""
    keys = [f for f in fields(cls) if f.name not in given]
    _reject_unknown(block, {f.name for f in keys}, where)
    defaults = defaults or {}
    values = {
        f.name: _get(block, f.name, defaults.get(f.name, f.default), _CASTERS[f.type], where)
        for f in keys
    }
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where[:-1]}: {exc}") from exc


def _reject_inapplicable(block: dict, applicable: tuple[str, ...], where: str,
                         family: str) -> None:
    """A key family does not read must be absent or null, as manifests write it."""
    for key, value in block.items():
        if key != "family" and key not in applicable and value is not None:
            raise ConfigError(f"'{where}{key}' does not apply to the {family} family")


# the keys each calibration family reads
_CALIBRATION_KEYS = {"geometric": ("p",), "negbin": ("p", "r"), "explicit": ("pi",),
                     "informed": ("path",)}


def _parse_calibration(block: dict, cap: int, cv: float, base_dir: str) -> CalibrationSpec:
    allowed = {"family", "p", "r", "pi", "path"}
    _reject_unknown(block, allowed, "prior.calibration.")
    family = block.get("family", "geometric")
    where = "prior.calibration."
    # an unknown family is left for CalibrationSpec to reject
    if isinstance(family, str) and family in _CALIBRATION_KEYS:
        _reject_inapplicable(block, _CALIBRATION_KEYS[family], where, family)
    pi = _get(block, "pi", None, _floats, where)
    if family == "informed":
        path = block.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("'prior.calibration.path' must name a file for the informed family")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        try:
            with open(full) as fh:
                pi = json.load(fh)["pi"]
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load informed calibration from '{full}': {exc}") from exc
        try:
            pi = _floats(pi)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for 'pi' in '{full}': {exc}") from exc
        family = "explicit"
    p = _get(block, "p", 0.5 if family in ("geometric", "negbin") else None, _float, where)
    r = _get(block, "r", None, _float, where)
    try:
        return CalibrationSpec(
            family=family,
            cap=cap,
            cv=cv,
            p=p,
            r=r,
            pi=pi,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"prior.calibration: {exc}") from exc


def _parse_prior(block: dict, base_dir: str) -> PriorConfig:
    allowed = {"family", "cap", "theta", "calibration", "cv"}
    _reject_unknown(block, allowed, "prior.")
    family = block.get("family", "bbap")
    if family not in ("bbap", "epp"):
        raise ConfigError(f"'prior.family' must be 'bbap' or 'epp'; got '{family}'")
    _reject_inapplicable(block, ("theta",) if family == "epp" else ("cap", "cv", "calibration"),
                         "prior.", family)
    if family == "epp":
        theta = _get(block, "theta", PriorConfig.theta, _float, "prior.")
        if theta <= 0:
            raise ConfigError("'prior.theta' must be positive")
        return PriorConfig(family="epp", theta=theta)
    cap = _get(block, "cap", None, _int, "prior.")
    if cap is None:
        raise ConfigError("'prior.cap' is required for the bbap family")
    if cap < 2:
        raise ConfigError("'prior.cap' must be at least 2")
    cv = _get(block, "cv", 0.25, _float, "prior.")
    if cv <= 0:
        raise ConfigError("'prior.cv' must be positive")
    calibration = _parse_calibration(block.get("calibration", {}), cap, cv, base_dir)
    return PriorConfig(family="bbap", calibration=calibration)


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
    seed = _get(raw, "seed", 0, _seed, "")
    draws = _get(raw, "draws", 1000, _int, "")
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
    like = _parse_block(raw.get("likelihood", {}), LikelihoodConfig, "likelihood.")
    sampler = _parse_block(raw.get("sampler", {}), SamplerConfig, "sampler.",
                           {"iterations": 20_000, "burn_in": 10_000}, seed=seed)
    estimation = _parse_block(raw.get("estimation", {}), EstimationConfig, "estimation.")
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
        out["prior"]["cap"] = cal.cap
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
