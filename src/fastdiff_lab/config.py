"""Experiment configuration: dataclasses, JSON loading, validation.

Precedence: command-line flags > config file > defaults.  The resolved
config is echoed into every report so a run can be reproduced from its own
output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

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


@dataclass(frozen=True)
class ModelConfig:
    n: int = 3
    m: float = 2.0 / 3.0
    B: float = 1.0


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
    ell_list: tuple[int, ...] = (0, 1, 2)
    eigen_count: int = 4
    fit_value_lo: float = 1e-8
    fit_value_hi: float = 1e-2
    fit_t_lo: float | None = None
    fit_t_hi: float | None = None
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
        mc = self.model
        try:
            params = derive_params(mc.n, mc.m, mc.B)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"model: {exc}") from exc
        g = self.grid
        if g.s_max <= 0:
            raise ConfigError(f"grid.s_max: must be positive, got {g.s_max}")
        if g.count < 16:
            raise ConfigError(f"grid.count: must be >= 16, got {g.count}")
        t = self.time
        if t.dt <= 0:
            raise ConfigError(f"time.dt: must be positive, got {t.dt}")
        if t.t_final <= 0:
            raise ConfigError(f"time.t_final: must be positive, got {t.t_final}")
        try:
            step_count(0.0, t.t_final, t.dt)
        except ValueError as exc:
            raise ConfigError(f"time.t_final/time.dt: {exc}") from exc
        for name in ("record_every", "snapshot_every"):
            _require_count(f"time.{name}", getattr(t, name))
        i = self.initial_data
        if i.kind not in ("eigenmode", "bump", "delayed-barenblatt"):
            raise ConfigError(f"initial_data.kind: unknown kind {i.kind!r}")
        if i.kind == "eigenmode":
            ks = [md.k for md, _ in admissible_modes(params.eta_cr, params)
                  if md.ell == 0]
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
        a = self.analysis
        if a.fit_value_lo >= a.fit_value_hi:
            raise ConfigError("analysis.fit_value_lo/hi: empty value window")
        if self.jobs is not None:
            _require_count("jobs", self.jobs)
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _require_count(name: str, value) -> None:
    """Refuse anything but an int >= 1 (a bool or an integral float too)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name}: must be an integer >= 1, got {value!r}")


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
