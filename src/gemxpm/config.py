"""Experiment configuration: schema validation, unit conversion, presets
round-trip.

One config format (YAML mappings with arrays).  A kind accepts, builds
and echoes only the top-level sections ``SECTIONS`` names.  Each section
is parsed, unit-scaled, validated and echoed from the fields of the
dataclass it builds, so a key, its type and its default are written once,
on that dataclass.  Unknown keys are refused with their dot-path.
Lab-unit configs (``units: {system: lab, gamma: <rate in rad/us>}``) give
the keys in ``_RATES`` in rad/us and those in ``_TIMES`` in us;
conversion to internal gamma-units is plain scaling by the supplied gamma
and refuses to run when gamma is missing.
"""

from __future__ import annotations

import copy
import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .errors import ConfigError, ProtocolError
from .gate import DIM, GateParams
from .gem import BLOCK_ROWS, RECORD_BUDGET_BYTES, check_window, member_bytes
from .model import EnsembleParams, GradientSchedule, Grid, PulseSpec
from .xpm import HOLD_SAMPLES, check_protocol

#: The top-level sections each experiment kind reads, besides experiment
#: and name: a config that sets any other is refused, and only these echo.
SECTIONS: Dict[str, Tuple[str, ...]] = {
    "storage": ("units", "ensemble", "probe", "signal", "schedule", "grid"),
    "xpm-free": ("units", "ensemble", "xpm_free"),
    "xpm-double": ("units", "ensemble", "probe", "signal", "schedule",
                   "grid"),
    "gate": ("units", "gate", "targets"),
    "tomography": ("units", "gate", "targets"),
    "sweep": ("sweep", "base"),
}

#: Keys a lab-unit config gives in rad/us (divided by its gamma) and in us
#: (multiplied by it); every other key is dimensionless.
_RATES = frozenset(("gamma", "gamma0", "g", "Delta", "DeltaPrime", "delta3",
                    "delta4", "OmegaC", "OmegaCPrime", "peak_amplitude",
                    "omega_s"))
_TIMES = frozenset(("center_time", "duration", "t_max", "tau", "t_end",
                    "t_gate"))
#: GateRunSpec fields a gate trace (t_end, n_samples) or a tomography run
#: (t_gate) does not read.
_GATE_SKIP = {"gate": ("params", "t_gate"),
              "tomography": ("params", "t_end", "n_samples")}

@dataclass(frozen=True)
class XpmFreeSpec:
    omega_s: Tuple[float, ...]
    tau: float


@dataclass(frozen=True)
class GateRunSpec:
    params: GateParams
    t_end: float = 15.0
    n_samples: int = 151
    t_gate: float = 15.0

    def __post_init__(self):
        for name in ("t_end", "t_gate"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.n_samples < 2:
            raise ValueError(
                f"n_samples must be at least 2, got {self.n_samples}")


@dataclass(frozen=True)
class SweepSpec:
    path: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    name: str
    ensemble: Optional[EnsembleParams] = None
    probe: Optional[PulseSpec] = None
    signal: Optional[PulseSpec] = None
    schedule: Optional[GradientSchedule] = None
    grid: Optional[Grid] = None
    xpm_free: Optional[XpmFreeSpec] = None
    gate: Optional[GateRunSpec] = None
    targets: Optional[Dict[str, Tuple[float, float]]] = None
    sweep: Optional[SweepSpec] = None
    base: Optional[Dict[str, Any]] = None
    points: Tuple["ExperimentConfig", ...] = ()   # a sweep's, in value order


def _fail(path: str, msg: str) -> None:
    raise ConfigError(path, msg)


def _expect_mapping(obj: Any, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        _fail(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _expect_number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {obj!r}")
    try:
        x = float(obj)
    except OverflowError:   # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {x!r}")
    return x


def _expect_int(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {obj!r}")
    return int(obj)


def _expect_bool(obj: Any, path: str) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected a boolean, got {obj!r}")
    return obj


def _expect_str(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {obj!r}")
    return obj


def _check_keys(d: Mapping, allowed: Sequence[str], path: str,
                what: str = "unknown key") -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        _fail(f"{path}.{unknown[0]}" if path else unknown[0],
              f"{what} (allowed: {', '.join(sorted(allowed))})")


def _number_list(obj: Any, path: str, minimum_len: int = 1) -> Tuple[float, ...]:
    if not isinstance(obj, (list, tuple)):
        _fail(path, f"expected a list of numbers, got {obj!r}")
    vals = tuple(_expect_number(v, f"{path}[{i}]") for i, v in enumerate(obj))
    if len(vals) < minimum_len:
        _fail(path, f"need at least {minimum_len} entries, got {len(vals)}")
    return vals


class _Units:
    """Scaling between a lab-unit config and internal gamma-units."""

    def __init__(self, raw: Optional[Mapping], path: str):
        raw = {} if raw is None else _expect_mapping(raw, path)
        _check_keys(raw, ("system", "gamma"), path)
        self.system = _expect_str(raw.get("system", "gamma"), f"{path}.system")
        if self.system not in ("gamma", "lab"):
            _fail(f"{path}.system", "must be 'gamma' or 'lab'")
        self.gamma = 1.0   # gamma-units: scaling by 1.0 is exact
        if self.system == "lab":
            if "gamma" not in raw:
                _fail(f"{path}.gamma",
                      "lab-unit configs must supply gamma (rad/us)")
            self.gamma = _expect_number(raw["gamma"], f"{path}.gamma")
            if self.gamma <= 0:
                _fail(f"{path}.gamma", "gamma must be positive")
        elif "gamma" in raw:
            _fail(f"{path}.gamma", "read only with system: lab")

    def rate(self, x: float) -> float:
        return x / self.gamma

    def time(self, x: float) -> float:
        return x * self.gamma

    def scale(self, key: str, x: float) -> float:
        """Value of config key ``key`` in gamma-units."""
        if key in _RATES:
            return self.rate(x)
        return self.time(x) if key in _TIMES else x

    def fixed(self) -> Dict[str, float]:
        """Fields a lab-unit config fixes: gamma is its unit of rate."""
        return {"gamma": 1.0} if self.system == "lab" else {}


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """(name, annotated type, required) of each field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _keys(cls: type, skip: Sequence[str] = ()) -> Tuple[str, ...]:
    return tuple(name for name, _, _ in _schema(cls) if name not in skip)


def _value(obj: Any, hint: Any, units: _Units, key: str, path: str) -> Any:
    """Check one config value against its field type; scale it to gamma-units."""
    if hint is str:
        return _expect_str(obj, path)
    if hint is bool:
        return _expect_bool(obj, path)
    if hint is int:
        return _expect_int(obj, path)
    if hint is float:
        return units.scale(key, _expect_number(obj, path))
    if hint == Tuple[float, ...]:
        return tuple(units.scale(key, x) for x in _number_list(obj, path))
    raise TypeError(f"no config reader for field {key!r} of type {hint!r}")


def _section(cls: type, raw: Optional[Mapping], units: _Units, path: str,
             skip: Sequence[str] = (), **given: Any) -> Any:
    """Build dataclass ``cls`` from config mapping ``raw`` (None: empty).

    Every field not in ``skip`` is a key; an absent key takes the field's
    default, or is refused when the field has none.  ``given`` sets fields
    the config does not control and wins over any key of the same name.
    """
    raw = {} if raw is None else _expect_mapping(raw, path)
    _check_keys(raw, _keys(cls, skip), path)
    values: Dict[str, Any] = {}
    for name, hint, required in _schema(cls):
        if name in raw:
            values[name] = _value(raw[name], hint, units, name,
                                  f"{path}.{name}")
        elif required and name not in skip:
            _fail(f"{path}.{name}", "required key missing")
    values.update(given)
    try:
        return cls(**values)
    except ValueError as exc:
        _fail(path, str(exc))


def _echo(obj: Any, skip: Sequence[str] = ()) -> Dict[str, Any]:
    """The config section that ``_section`` reads back into ``obj``."""
    out = {}
    for name in _keys(type(obj), skip):
        v = getattr(obj, name)
        out[name] = list(v) if isinstance(v, tuple) else v
    return out


def _parse_schedule(raw: Any, units: _Units, path: str) -> GradientSchedule:
    if not isinstance(raw, (list, tuple)) or not raw:
        _fail(path, "expected a non-empty list of [start, end, eta] rows")
    segs = []
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            _fail(f"{path}[{i}]", f"expected [start, end, eta], got {row!r}")
        a = units.time(_expect_number(row[0], f"{path}[{i}][0]"))
        b = units.time(_expect_number(row[1], f"{path}[{i}][1]"))
        e = units.rate(_expect_number(row[2], f"{path}[{i}][2]"))
        segs.append((a, b, e))
    try:
        return GradientSchedule(tuple(segs))
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_gate(raw: Optional[Mapping], units: _Units, path: str,
                skip: Sequence[str]) -> GateRunSpec:
    """One flat mapping holds the GateParams and the GateRunSpec keys
    not in ``skip``."""
    raw = {} if raw is None else _expect_mapping(raw, path)
    run_keys = _keys(GateRunSpec, skip)
    _check_keys(raw, _keys(GateParams) + run_keys, path)
    params = _section(GateParams,
                      {k: v for k, v in raw.items() if k not in run_keys},
                      units, path, **units.fixed())
    return _section(GateRunSpec,
                    {k: v for k, v in raw.items() if k in run_keys},
                    units, path, skip, params=params)


def _parse_targets(raw: Optional[Mapping],
                   kind: str) -> Optional[Dict[str, Tuple[float, float]]]:
    """Target intervals of phi_mrad (and, for tomography, process_fidelity)."""
    if raw is None:
        return None
    raw = _expect_mapping(raw, "targets")
    _check_keys(raw, ("phi_mrad", "process_fidelity") if kind == "tomography"
                else ("phi_mrad",), "targets")
    out = {}
    for key, v in raw.items():
        pair = _number_list(v, f"targets.{key}", minimum_len=2)
        if len(pair) != 2 or pair[0] > pair[1]:
            _fail(f"targets.{key}", "expected [low, high] with low <= high")
        out[key] = (pair[0], pair[1])
    return out


def parse_config(raw: Any, default_name: str = "run") -> ExperimentConfig:
    """Validate a raw mapping and build the typed configuration."""
    raw = _expect_mapping(raw, "")
    if "experiment" not in raw:
        _fail("experiment", "required key missing")
    kind = _expect_str(raw["experiment"], "experiment")
    if kind not in SECTIONS:
        _fail("experiment",
              f"unknown experiment {kind!r}; one of {tuple(SECTIONS)}")
    _check_keys(raw, ("experiment", "name") + SECTIONS[kind], "",
                f"{kind} experiments do not read this key")
    name = _expect_str(raw.get("name", default_name), "name")
    units = _Units(raw.get("units"), "units")

    if kind == "sweep":
        sweep = _section(SweepSpec, raw.get("sweep"), units, "sweep")
        if raw.get("base") is None:
            _fail("base", "sweeps need a base experiment config")
        base = dict(_expect_mapping(raw["base"], "base"))
        if base.get("experiment") == "sweep":
            _fail("base.experiment", "nested sweeps are not supported")
        points = []
        for value in sweep.values:
            point = set_sweep_value(base, sweep.path, value)
            try:
                points.append(parse_config(point, f"{name}_point"))
            except ConfigError as exc:   # at its path in the file
                raise ConfigError(f"base.{exc.path}", f"{exc.args[1]} "
                                  f"(sweep value {value!r})") from None
        return ExperimentConfig(kind=kind, name=name, sweep=sweep, base=base,
                                points=tuple(points))

    if kind in ("gate", "tomography"):
        gate = _parse_gate(raw.get("gate"), units, "gate", _GATE_SKIP[kind])
        most = RECORD_BUDGET_BYTES // (DIM * DIM * 16)   # trajectory samples
        if gate.n_samples > most:
            _fail("gate.n_samples", f"the trajectory of {gate.n_samples} "
                  f"samples exceeds the {RECORD_BUDGET_BYTES / 2**30:g} GiB "
                  f"budget (at most {most})")
        return ExperimentConfig(kind=kind, name=name, gate=gate,
                                targets=_parse_targets(raw.get("targets"),
                                                       kind))

    ensemble = _section(EnsembleParams, raw.get("ensemble"), units,
                        "ensemble", **units.fixed())
    if kind == "xpm-free":
        spec = _section(XpmFreeSpec, raw.get("xpm_free"), units, "xpm_free")
        return ExperimentConfig(kind=kind, name=name, ensemble=ensemble,
                                xpm_free=spec)

    def section(key: str, cls: type, skip: Sequence[str] = (), **given):
        return (None if raw.get(key) is None
                else _section(cls, raw[key], units, key, skip, **given))

    probe = section("probe", PulseSpec)
    signal = section("signal", PulseSpec)
    schedule = (None if raw.get("schedule") is None
                else _parse_schedule(raw["schedule"], units, "schedule"))
    grid = section("grid", Grid, ("L",), L=ensemble.L)
    for fld, v in (("probe", probe), ("schedule", schedule), ("grid", grid)):
        if v is None:
            _fail(fld, f"required for {kind} experiments")
    if kind == "xpm-double" and signal is None:
        _fail("signal", "required for xpm-double experiments")
    # each of a run's three members at most also fills blocks of sigma and
    # E, which the peak-k reductions turn into spectra: 3 * BLOCK_ROWS per z
    need = 3 * (member_bytes(grid) + 16 * 3 * BLOCK_ROWS * grid.nz) / 2**30
    if need > RECORD_BUDGET_BYTES / 2**30:
        _fail("grid", f"the march's stage tables and buffers need {need:.4g}"
              f" GiB, above the {RECORD_BUDGET_BYTES / 2**30:g} GiB budget")
    try:
        if kind == "xpm-double":
            hold = check_protocol(probe, signal, schedule, grid.t_max)[1]
        else:
            check_window(probe, schedule, grid.t_max)
    except (ValueError, ProtocolError) as exc:
        _fail("schedule", str(exc))
    if kind == "xpm-double":
        t = grid.t
        n = int(np.count_nonzero((t >= hold[0]) & (t <= hold[1])))
        if n < HOLD_SAMPLES:
            _fail("grid", f"the hold [{hold[0]}, {hold[1]}] spans {n} "
                  f"time samples; its quadrature needs {HOLD_SAMPLES}")
    return ExperimentConfig(kind=kind, name=name, ensemble=ensemble,
                            probe=probe, signal=signal, schedule=schedule,
                            grid=grid)


def set_sweep_value(base: Dict[str, Any], path: str, value: float) -> Dict[str, Any]:
    """``base`` with ``value`` at dot-path ``path``, as an int if it is
    integral and replaces an int (so that grid.nt can be swept).  A path
    that is not in ``base`` is refused at its first missing prefix."""
    out = copy.deepcopy(base)
    parts = path.split(".")
    node: Any = out
    for i, part in enumerate(parts):
        if not isinstance(node, Mapping) or part not in node:
            _fail(f"base.{'.'.join(parts[:i + 1])}",
                  f"sweep axis path {path!r} not found")
        parent, node = node, node[part]
    if type(node) is int and float(value).is_integer():
        value = int(value)
    parent[parts[-1]] = value
    return out


def load_config(path: str, default_name: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        _fail(str(path), "config file not found")
    except OSError as exc:
        _fail(str(path), f"cannot read config file: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(str(path), f"config file is not UTF-8 text: {exc}")
    except yaml.YAMLError as exc:
        _fail(str(path), f"not valid YAML: {exc}")
    if raw is None:
        _fail(str(path), "config file is empty")
    name = Path(path).stem if default_name is None else default_name
    return parse_config(_expect_mapping(raw, str(path)), default_name=name)


def config_to_dict(cfg: ExperimentConfig) -> Dict[str, Any]:
    """The sections cfg's kind reads, resolved: gamma units, defaults filled.

    parse_config(config_to_dict(cfg)) reproduces cfg exactly; the echo is
    written into every run summary.
    """
    out: Dict[str, Any] = {"experiment": cfg.kind, "name": cfg.name}
    for key in SECTIONS[cfg.kind]:
        v = getattr(cfg, key, None)   # no units: the echo is in gamma-units
        if v is None:
            continue
        if key == "gate":
            v = {**_echo(v.params), **_echo(v, _GATE_SKIP[cfg.kind])}
        elif key == "schedule":
            v = [list(seg) for seg in v.segments]
        elif key == "targets":
            v = {k: list(pair) for k, pair in v.items()}
        elif key == "base":
            v = copy.deepcopy(v)
        else:
            v = _echo(v, ("L",) if key == "grid" else ())
        out[key] = v
    return out
