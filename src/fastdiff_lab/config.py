"""Experiment configuration: dataclasses, JSON loading, validation.

Precedence: command-line flags > config file > defaults.  The resolved
config is echoed into every report so a run can be reproduced from its own
output.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter

from .closedform import admissible_modes, derive_params
from .geometry import step_count

__all__ = [
    "ConfigError",
    "ModelConfig",
    "GridConfig",
    "TimeConfig",
    "InitialDataConfig",
    "AnalysisConfig",
    "OutputConfig",
    "ExperimentConfig",
    "CONFIG_SCHEMA_VERSION",
]

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (what the field must be, the test, the fields): the types validate's
# value checks take for granted; a bool is an int to Python, and a JSON
# list arrives as a tuple
_FIELD_TYPES = [
    ("an integer", _is_int,
     ["model.n", "grid.count", "initial_data.k", "initial_data.seed"]),
    ("an integer >= 1", lambda v: _is_int(v) and v >= 1,
     ["time.record_every", "time.snapshot_every"]),
    ("an integer >= 1", lambda v: v is None or _is_int(v) and v >= 1,
     ["jobs"]),
    ("a number", _is_real,
     ["model.m", "model.B", "grid.s_max", "time.dt", "time.t_final",
      "initial_data.amplitude", "initial_data.tau0", "initial_data.bplus",
      "analysis.fit_value_lo", "analysis.fit_value_hi"]),
    ("a number or null", lambda v: v is None or _is_real(v),
     ["analysis.lambda_target"]),
    ("a list of numbers",
     lambda v: isinstance(v, tuple) and all(map(_is_real, v)),
     ["initial_data.centers", "analysis.etas", "analysis.sweep_m"]),
    ("a list of strings",
     lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v),
     ["output.formats"]),
    ("a string or null", lambda v: v is None or isinstance(v, str),
     ["output.directory"]),
    ("true or false", lambda v: isinstance(v, bool),
     ["initial_data.project_mass"]),
]


@dataclass(frozen=True)
class ModelConfig:
    n: int = 3
    m: float = 2.0 / 3.0
    B: float = 1.0  # a scaling symmetry: derive_params refuses B != 1


@dataclass(frozen=True)
class GridConfig:
    s_max: float = 12.0
    count: int = 1200


@dataclass(frozen=True)
class TimeConfig:
    dt: float = 4e-3
    t_final: float = 3.0
    record_every: int = 5
    snapshot_every: int = 10


@dataclass(frozen=True)
class InitialDataConfig:
    kind: str = "bump"  # eigenmode | bump | delayed-barenblatt
    amplitude: float = 0.05
    k: int = 1  # eigenmode data: the radial mode v_{0k}
    seed: int = 7
    tau0: float = 0.1
    bplus: float = 1.0
    centers: tuple[float, float] = (0.5, 3.0)
    project_mass: bool = True


@dataclass(frozen=True)
class AnalysisConfig:
    etas: tuple[float, ...] = ()
    lambda_target: float | None = None
    fit_value_lo: float = 1e-8
    fit_value_hi: float = 1e-2
    sweep_m: tuple[float, ...] = ()


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    initial_data: InitialDataConfig = field(default_factory=InitialDataConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    jobs: int | None = None
    schema_version: int = CONFIG_SCHEMA_VERSION

    def validate(self) -> "ExperimentConfig":
        if self.schema_version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: expected {CONFIG_SCHEMA_VERSION}, "
                f"got {self.schema_version}"
            )
        for kind, ok, names in _FIELD_TYPES:
            for name in names:
                value = attrgetter(name)(self)
                if not ok(value):
                    raise ConfigError(f"{name}: must be {kind}, got {value!r}")
        mc, g, t, i, a = (self.model, self.grid, self.time,
                          self.initial_data, self.analysis)
        try:
            params = derive_params(mc.n, mc.m, mc.B)
            # eigenmode data's k, from the l=0 modes admissible at eta_cr
            ks = [md.k for md, _ in admissible_modes(params.eta_cr, params)
                  if md.ell == 0] if i.kind == "eigenmode" else None
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"model: {exc}") from exc
        if g.s_max <= 0:
            raise ConfigError(f"grid.s_max: must be positive, got {g.s_max}")
        if g.count < 16:
            raise ConfigError(f"grid.count: must be >= 16, got {g.count}")
        if t.dt <= 0:
            raise ConfigError(f"time.dt: must be positive, got {t.dt}")
        if t.t_final <= 0:
            raise ConfigError(f"time.t_final: must be positive, got {t.t_final}")
        try:
            step_count(0.0, t.t_final, t.dt)
        except ValueError as exc:
            raise ConfigError(f"time.t_final/time.dt: {exc}") from exc
        if i.kind not in ("eigenmode", "bump", "delayed-barenblatt"):
            raise ConfigError(f"initial_data.kind: unknown kind {i.kind!r}")
        if i.kind == "eigenmode":
            if i.k not in ks:
                raise ConfigError(
                    f"initial_data.k: eigenmode data needs an l=0 mode "
                    f"admissible at eta_cr, 0 <= k <= {max(ks)} for "
                    f"p={params.p:.6g}, got {i.k}"
                )
        if i.bplus <= 0:
            raise ConfigError(f"initial_data.bplus: must be positive, got {i.bplus}")
        if i.kind != "delayed-barenblatt":
            if not (0 < abs(i.amplitude) < 1):
                raise ConfigError(
                    f"initial_data.amplitude: need 0 < |amplitude| < 1, "
                    f"got {i.amplitude}"
                )
            if 1.0 + abs(i.amplitude) == 1.0:
                # then 1 + w == 1 at every node and every flux is zero
                raise ConfigError(
                    f"initial_data.amplitude: {i.amplitude} cannot perturb "
                    f"v = 1 + w, as 1 + |amplitude| rounds to 1"
                )
        if a.fit_value_lo >= a.fit_value_hi:
            raise ConfigError("analysis.fit_value_lo/hi: empty value window")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _tupled(value):
    return tuple(value) if isinstance(value, list) else value


def _build(cls, data: dict, path: str):
    fields = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    return cls(**{k: _tupled(v) for k, v in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    parts = {}
    for name, cls in [("model", ModelConfig), ("grid", GridConfig),
                      ("time", TimeConfig), ("initial_data", InitialDataConfig),
                      ("analysis", AnalysisConfig), ("output", OutputConfig)]:
        if name in data:
            sub = data.pop(name)
            if not isinstance(sub, dict):
                raise ConfigError(f"{name}: expected an object")
            parts[name] = _build(cls, sub, name)
    jobs = data.pop("jobs", None)
    schema = data.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if data:
        raise ConfigError(f"unknown top-level fields {sorted(data)}")
    return ExperimentConfig(jobs=jobs, schema_version=schema, **parts)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(data)


def apply_overrides(cfg: ExperimentConfig, **sections) -> ExperimentConfig:
    """Replace fields given as {'model': {'m': 0.7}, ...} (flag overrides)."""
    updates = {}
    for name, fields in sections.items():
        fields = {k: _tupled(v) for k, v in fields.items() if v is not None}
        if not fields:
            continue
        if name == "jobs":
            updates["jobs"] = fields["jobs"]
            continue
        updates[name] = replace(getattr(cfg, name), **fields)
    return replace(cfg, **updates) if updates else cfg
