"""Experiment configuration: schema validation, unit conversion, presets
round-trip.

One config format (YAML mappings with arrays).  Unknown keys are rejected
with the offending dot-path.  Lab-unit configs (``units: {system: lab,
gamma: <rate in rad/us>}``) give rates and detunings in rad/us and times
in us; conversion to internal gamma-units is plain scaling by the supplied
gamma and refuses to run when gamma is missing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .errors import ConfigError
from .gate import GateParams
from .gem import check_window
from .model import EnsembleParams, GradientSchedule, Grid, PulseSpec
from .xpm import HOLD_SAMPLES

KINDS = ("storage", "xpm-free", "xpm-double", "gate", "tomography", "sweep")

_ENSEMBLE_KEYS = ("gamma", "gamma0", "g", "N", "L", "calN", "Delta",
                  "DeltaPrime", "delta3", "delta4", "OmegaC", "OmegaCPrime")
_ENSEMBLE_RATE_KEYS = ("gamma", "gamma0", "g", "Delta", "DeltaPrime",
                       "delta3", "delta4", "OmegaC", "OmegaCPrime")
_PULSE_KEYS = ("peak_amplitude", "center_time", "duration")
_GRID_KEYS = ("nz", "nt", "t_max")
_GATE_KEYS = ("gamma", "OmegaC", "OmegaCPrime", "Delta", "DeltaPrime",
              "delta4", "g", "N", "bandwidth", "stored_signal_coupling",
              "t_end", "n_samples", "t_gate", "renormalize")
_GATE_RATE_KEYS = ("gamma", "OmegaC", "OmegaCPrime", "Delta", "DeltaPrime",
                   "delta4", "g")

#: Bytes the (nt, nz) complex records of one run may take; a larger grid is
#: refused (exit 2).  Diagnostics add a few arrays of the same size.
RECORD_BUDGET_BYTES = 2 << 30
#: Records kept: sigma and E of the run, or of probe, signal and reference.
RECORDS_KEPT = {"storage": 2, "xpm-double": 6}


@dataclass(frozen=True)
class XpmFreeSpec:
    omega_s: Tuple[float, ...]
    tau: float


@dataclass(frozen=True)
class GateRunSpec:
    params: GateParams
    stored_signal_coupling: bool = False
    t_end: float = 15.0
    n_samples: int = 151
    t_gate: float = 15.0
    renormalize: str = "global"

    def effective_params(self) -> GateParams:
        return (self.params.with_stored_signal_coupling()
                if self.stored_signal_coupling else self.params)


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
    signal_detuning: str = "delta3"
    schedule: Optional[GradientSchedule] = None
    grid: Optional[Grid] = None
    xpm_free: Optional[XpmFreeSpec] = None
    gate: Optional[GateRunSpec] = None
    targets: Optional[Dict[str, Tuple[float, float]]] = None
    sweep: Optional[SweepSpec] = None
    base: Optional[Dict[str, Any]] = None


def _fail(path: str, msg: str) -> None:
    raise ConfigError(path, msg)


def _expect_mapping(obj: Any, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        _fail(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _expect_number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {obj!r}")
    return float(obj)


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


def _check_keys(d: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        _fail(f"{path}.{unknown[0]}" if path else unknown[0],
              f"unknown key (allowed: {', '.join(sorted(allowed))})")


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
        if raw is None:
            self.system = "gamma"
            self.gamma = 1.0
            return
        raw = _expect_mapping(raw, path)
        _check_keys(raw, ("system", "gamma"), path)
        self.system = _expect_str(raw.get("system", "gamma"), f"{path}.system")
        if self.system not in ("gamma", "lab"):
            _fail(f"{path}.system", "must be 'gamma' or 'lab'")
        if self.system == "lab":
            if "gamma" not in raw:
                _fail(f"{path}.gamma",
                      "lab-unit configs must supply gamma (rad/us)")
            self.gamma = _expect_number(raw["gamma"], f"{path}.gamma")
            if self.gamma <= 0:
                _fail(f"{path}.gamma", "gamma must be positive")
        else:
            self.gamma = 1.0

    def rate(self, x: float) -> float:
        return x / self.gamma if self.system == "lab" else x

    def time(self, x: float) -> float:
        return x * self.gamma if self.system == "lab" else x


def _parse_ensemble(raw: Optional[Mapping], units: _Units,
                    path: str) -> EnsembleParams:
    values: Dict[str, float] = {}
    if raw is not None:
        raw = _expect_mapping(raw, path)
        _check_keys(raw, _ENSEMBLE_KEYS, path)
        for key, v in raw.items():
            x = _expect_number(v, f"{path}.{key}")
            values[key] = units.rate(x) if key in _ENSEMBLE_RATE_KEYS else x
    if units.system == "lab":
        values["gamma"] = 1.0
    try:
        return EnsembleParams(**values)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_pulse(raw: Mapping, units: _Units, path: str) -> PulseSpec:
    raw = _expect_mapping(raw, path)
    _check_keys(raw, _PULSE_KEYS, path)
    for key in _PULSE_KEYS:
        if key not in raw:
            _fail(f"{path}.{key}", "required key missing")
    try:
        return PulseSpec(
            peak_amplitude=units.rate(_expect_number(raw["peak_amplitude"],
                                                     f"{path}.peak_amplitude")),
            center_time=units.time(_expect_number(raw["center_time"],
                                                  f"{path}.center_time")),
            duration=units.time(_expect_number(raw["duration"],
                                               f"{path}.duration")))
    except ValueError as exc:
        _fail(path, str(exc))


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


def _parse_grid(raw: Mapping, units: _Units, path: str,
                L: float) -> Grid:
    raw = _expect_mapping(raw, path)
    _check_keys(raw, _GRID_KEYS, path)
    for key in _GRID_KEYS:
        if key not in raw:
            _fail(f"{path}.{key}", "required key missing")
    try:
        return Grid(nz=_expect_int(raw["nz"], f"{path}.nz"),
                    nt=_expect_int(raw["nt"], f"{path}.nt"),
                    t_max=units.time(_expect_number(raw["t_max"],
                                                    f"{path}.t_max")),
                    L=L)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_gate(raw: Optional[Mapping], units: _Units, path: str) -> GateRunSpec:
    raw = _expect_mapping(raw, path) if raw is not None else {}
    _check_keys(raw, _GATE_KEYS, path)
    pkw: Dict[str, float] = {}
    for key in ("gamma", "OmegaC", "OmegaCPrime", "Delta", "DeltaPrime",
                "delta4", "g", "N", "bandwidth"):
        if key in raw:
            x = _expect_number(raw[key], f"{path}.{key}")
            pkw[key] = units.rate(x) if key in _GATE_RATE_KEYS else x
    if units.system == "lab":
        pkw["gamma"] = 1.0
    stored = _expect_bool(raw.get("stored_signal_coupling", False),
                          f"{path}.stored_signal_coupling")
    t_end = units.time(_expect_number(raw.get("t_end", 15.0), f"{path}.t_end"))
    n_samples = _expect_int(raw.get("n_samples", 151), f"{path}.n_samples")
    t_gate = units.time(_expect_number(raw.get("t_gate", 15.0),
                                       f"{path}.t_gate"))
    renorm = _expect_str(raw.get("renormalize", "global"),
                         f"{path}.renormalize")
    if renorm not in ("global", "none"):
        _fail(f"{path}.renormalize", "must be global or none")
    if n_samples < 2:
        _fail(f"{path}.n_samples", "need at least 2 samples")
    try:
        params = GateParams(**pkw)
    except ValueError as exc:
        _fail(path, str(exc))
    return GateRunSpec(params=params, stored_signal_coupling=stored,
                       t_end=t_end, n_samples=n_samples,
                       t_gate=t_gate, renormalize=renorm)


def _parse_targets(raw: Optional[Mapping],
                   path: str) -> Optional[Dict[str, Tuple[float, float]]]:
    if raw is None:
        return None
    raw = _expect_mapping(raw, path)
    _check_keys(raw, ("phi_mrad", "process_fidelity"), path)
    out = {}
    for key, v in raw.items():
        pair = _number_list(v, f"{path}.{key}", minimum_len=2)
        if len(pair) != 2 or pair[0] > pair[1]:
            _fail(f"{path}.{key}", "expected [low, high] with low <= high")
        out[key] = (pair[0], pair[1])
    return out


_TOP_KEYS = ("experiment", "name", "units", "ensemble", "probe", "signal",
             "signal_detuning", "schedule", "grid", "xpm_free", "gate",
             "targets", "sweep", "base")


def parse_config(raw: Any, default_name: str = "run") -> ExperimentConfig:
    """Validate a raw mapping and build the typed configuration."""
    raw = _expect_mapping(raw, "")
    _check_keys(raw, _TOP_KEYS, "")
    if "experiment" not in raw:
        _fail("experiment", "required key missing")
    kind = _expect_str(raw["experiment"], "experiment")
    if kind not in KINDS:
        _fail("experiment", f"unknown experiment {kind!r}; one of {KINDS}")
    name = _expect_str(raw.get("name", default_name), "name")
    units = _Units(raw.get("units"), "units")

    if kind == "sweep":
        if raw.get("sweep") is None:
            _fail("sweep", "required for sweeps")
        sweep_raw = _expect_mapping(raw["sweep"], "sweep")
        _check_keys(sweep_raw, ("path", "values"), "sweep")
        spath = _expect_str(sweep_raw.get("path", ""), "sweep.path")
        if not spath:
            _fail("sweep.path", "required key missing")
        values = _number_list(sweep_raw.get("values"), "sweep.values")
        base = raw.get("base")
        if base is None:
            _fail("base", "sweeps need a base experiment config")
        base = dict(_expect_mapping(base, "base"))
        inner = parse_config(base, default_name=f"{name}_point")
        if inner.kind == "sweep":
            _fail("base.experiment", "nested sweeps are not supported")
        _resolve_sweep_path(base, spath)   # fail early on a bad axis path
        return ExperimentConfig(kind=kind, name=name,
                                targets=_parse_targets(raw.get("targets"),
                                                       "targets"),
                                sweep=SweepSpec(path=spath, values=values),
                                base=base)

    ensemble = _parse_ensemble(raw.get("ensemble"), units, "ensemble")
    probe = (None if raw.get("probe") is None
             else _parse_pulse(raw["probe"], units, "probe"))
    signal = (None if raw.get("signal") is None
              else _parse_pulse(raw["signal"], units, "signal"))
    detuning = _expect_str(raw.get("signal_detuning", "delta3"),
                           "signal_detuning")
    if detuning not in ("delta3", "delta4"):
        _fail("signal_detuning", "must be 'delta3' or 'delta4'")
    schedule = (None if raw.get("schedule") is None
                else _parse_schedule(raw["schedule"], units, "schedule"))
    grid = (None if raw.get("grid") is None
            else _parse_grid(raw["grid"], units, "grid", ensemble.L))
    targets = _parse_targets(raw.get("targets"), "targets")

    if kind in ("storage", "xpm-double"):
        for fld, v in (("probe", probe), ("schedule", schedule),
                       ("grid", grid)):
            if v is None:
                _fail(fld, f"required for {kind} experiments")
        if kind == "xpm-double" and signal is None:
            _fail("signal", "required for xpm-double experiments")
        need = RECORDS_KEPT[kind] * grid.nt * grid.nz * 16 / 2**30
        if need > RECORD_BUDGET_BYTES / 2**30:
            _fail("grid", f"records need {need:.4g} GiB, above the "
                  f"{RECORD_BUDGET_BYTES / 2**30:g} GiB budget")
        try:
            check_window(probe, schedule, grid.t_max)
        except ValueError as exc:
            _fail("schedule", str(exc))
        hold = schedule.hold_window()
        if kind == "xpm-double" and hold is not None:
            t = grid.t
            n = int(np.count_nonzero((t >= hold[0]) & (t <= hold[1])))
            if n < HOLD_SAMPLES:
                _fail("grid", f"the hold [{hold[0]}, {hold[1]}] spans {n} "
                      f"time samples; its quadrature needs {HOLD_SAMPLES}")

    xpm_free = None
    if kind == "xpm-free":
        xf = raw.get("xpm_free")
        if xf is None:
            _fail("xpm_free", "required for xpm-free experiments")
        xf = _expect_mapping(xf, "xpm_free")
        _check_keys(xf, ("omega_s", "tau"), "xpm_free")
        if "omega_s" not in xf or "tau" not in xf:
            _fail("xpm_free", "needs omega_s (list) and tau")
        omegas = tuple(units.rate(v) for v in
                       _number_list(xf["omega_s"], "xpm_free.omega_s"))
        xpm_free = XpmFreeSpec(omega_s=omegas,
                               tau=units.time(_expect_number(
                                   xf["tau"], "xpm_free.tau")))

    gate = None
    if kind in ("gate", "tomography"):
        gate = _parse_gate(raw.get("gate"), units, "gate")

    return ExperimentConfig(kind=kind, name=name, ensemble=ensemble,
                            probe=probe, signal=signal,
                            signal_detuning=detuning, schedule=schedule,
                            grid=grid, xpm_free=xpm_free, gate=gate,
                            targets=targets)


def _resolve_sweep_path(base: Dict[str, Any], path: str) -> None:
    node: Any = base
    parts = path.split(".")
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, Mapping) or part not in node:
            _fail(f"base.{'.'.join(parts[:i + 1])}",
                  f"sweep axis path {path!r} not found")
        node = node[part]
    if not isinstance(node, Mapping) or parts[-1] not in node:
        _fail(f"base.{path}", f"sweep axis path {path!r} not found")


def set_sweep_value(base: Dict[str, Any], path: str, value: float) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    node = out
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return out


def load_config(path: str, default_name: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        _fail(str(path), "config file not found")
    except yaml.YAMLError as exc:
        _fail(str(path), f"not valid YAML: {exc}")
    if raw is None:
        _fail(str(path), "config file is empty")
    name = default_name
    if name is None:
        import os
        name = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_config(raw, default_name=name)


def config_to_dict(cfg: ExperimentConfig) -> Dict[str, Any]:
    """Canonical resolved form (gamma units, defaults filled).

    parse_config(config_to_dict(cfg)) reproduces cfg exactly; the echo is
    written into every run summary.
    """
    out: Dict[str, Any] = {"experiment": cfg.kind, "name": cfg.name}
    if cfg.kind == "sweep":
        out["sweep"] = {"path": cfg.sweep.path,
                        "values": list(cfg.sweep.values)}
        out["base"] = copy.deepcopy(cfg.base)
        if cfg.targets:
            out["targets"] = {k: list(v) for k, v in cfg.targets.items()}
        return out
    if cfg.ensemble is not None:
        out["ensemble"] = {k: getattr(cfg.ensemble, k) for k in _ENSEMBLE_KEYS}
    for fld in ("probe", "signal"):
        pulse = getattr(cfg, fld)
        if pulse is not None:
            out[fld] = {"peak_amplitude": pulse.peak_amplitude,
                        "center_time": pulse.center_time,
                        "duration": pulse.duration}
    if cfg.signal is not None or cfg.kind in ("storage", "xpm-double"):
        out["signal_detuning"] = cfg.signal_detuning
    if cfg.schedule is not None:
        out["schedule"] = [list(s) for s in cfg.schedule.segments]
    if cfg.grid is not None:
        out["grid"] = {"nz": cfg.grid.nz, "nt": cfg.grid.nt,
                       "t_max": cfg.grid.t_max}
    if cfg.xpm_free is not None:
        out["xpm_free"] = {"omega_s": list(cfg.xpm_free.omega_s),
                           "tau": cfg.xpm_free.tau}
    if cfg.gate is not None:
        g = cfg.gate
        out["gate"] = {"gamma": g.params.gamma, "OmegaC": g.params.OmegaC,
                       "OmegaCPrime": g.params.OmegaCPrime,
                       "Delta": g.params.Delta,
                       "DeltaPrime": g.params.DeltaPrime,
                       "delta4": g.params.delta4, "g": g.params.g,
                       "N": g.params.N, "bandwidth": g.params.bandwidth,
                       "stored_signal_coupling": g.stored_signal_coupling,
                       "t_end": g.t_end, "n_samples": g.n_samples,
                       "t_gate": g.t_gate, "renormalize": g.renormalize}
    if cfg.targets:
        out["targets"] = {k: list(v) for k, v in cfg.targets.items()}
    return out
