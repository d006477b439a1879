"""Batch front end: config-driven experiments, sweeps, and preset runs.

Commands:

    gemxpm simulate <config.yaml> [--out DIR] [--workers N]
    gemxpm presets  list
    gemxpm presets  show <name>
    gemxpm presets  run <name> [--out DIR] ...

Exit codes: 0 success, 2 config error, 3 numerical or I/O failure.  Every
command loads its config through ``parse_config``, which also parses a
sweep's points and checks a double-storage protocol, so exit 2 comes
before any solve.  Every runner returns one (table, results, report)
triple; a run writes the table as ``<name>.csv`` (figure data) and the
results, the target report, the fully resolved config and provenance as
``<name>.summary.json``, and nothing else.  Every solver here is
deterministic, so a config fully determines its outputs.

Storage points of a sweep on one ensemble, schedule and grid form one
group and march as one exit-only batch; any other point is a group of its
own.  ``--workers`` maps over the groups.  A sweep's columns are the
point kind's ``SWEPT`` entries, read off each point's results.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import yaml

from . import __version__
from .config import (ExperimentConfig, config_to_dict, load_config,
                     parse_config)
from .errors import ConfigError, GemXpmError
from .gate import phase_trace
from .gem import (StarkDrive, apply_stark_drive, check_window,
                  excitation_balance, peak_k_trajectory, polariton_transform,
                  propagate, storage_batch, verify_fourier_relation)
from .presets import get_preset, preset_names
from .reporting import ResultTable, config_hash, write_summary
from .tomography import (ChoiMatrix, channel_from_gate, choi_matrix,
                         ideal_cphase_choi, process_fidelity)
from .xpm import phi_free_signal, phi_stored_pair, double_storage_run


def _provenance(config: Dict[str, Any], wall: float) -> Dict[str, Any]:
    return {"solver": f"gemxpm {__version__}",
            "config_sha256": config_hash(config),
            "wall_time_s": f"{wall:.3f}"}


def _stark(cfg: ExperimentConfig) -> Optional[StarkDrive]:
    if cfg.signal is None:
        return None
    return apply_stark_drive(cfg.signal, cfg.ensemble,
                             cfg.ensemble.delta3)


def _run_storage(cfg: ExperimentConfig):
    params, grid, probe = cfg.ensemble, cfg.grid, cfg.probe
    t, last = grid.t, grid.nt - 1
    # Rows the diagnostics read, reduced as the march hands them out: the
    # Fourier relation's at t_mid, the polariton k drift's over [drift_lo,
    # flip] (8 at least) and the excitation balance's first and last.
    flip = check_window(probe, cfg.schedule, grid.t_max)
    flip = flip if flip is not None else grid.t_max
    t_mid = 0.5 * (probe.center_time + 2.0 * probe.duration + flip)
    n_mid = int(round(t_mid / grid.dt))
    drift_lo = probe.center_time + 3.0 * probe.duration
    drift = (t >= drift_lo) & (t <= flip)
    drift &= np.count_nonzero(drift) >= 8
    kept, kk = {}, []

    def reduce(n0, sigma, field):
        for n in (0, n_mid, last):
            if n0 <= n < n0 + len(sigma):
                row = slice(n - n0, n - n0 + 1)
                kept[n] = sigma[row].copy(), field[row].copy()
        window = drift[n0:n0 + len(sigma)]
        if window.any():
            kk.append(peak_k_trajectory(*polariton_transform(
                sigma[window], field[window], params, grid)))

    result = propagate(params, probe, cfg.schedule, grid, stark=_stark(cfg),
                       on_block=reduce)
    residual = verify_fourier_relation(*kept[n_mid], params, grid)
    kdrift_dev_bins = math.nan
    if kk:
        kk = np.concatenate(kk)
        eta0 = cfg.schedule.eta(0.5 * (drift_lo + flip))
        line = kk[0] + (-eta0) * (t[drift] - t[drift][0])
        kdrift_dev_bins = float(np.max(np.abs(kk - line))
                                / (2.0 * math.pi / params.L))
    inflow = probe.envelope(t)
    balance = (excitation_balance(
        np.concatenate([kept[0][0], kept[last][0]]), (0, last), inflow,
        result.exit_field, params, grid)
        if params.gamma0 == 0.0 and cfg.signal is None else math.nan)

    table = ResultTable(
        columns=["t", "abs_in", "abs_out", "phase_out"],
        units=["1/gamma", "gamma", "gamma", "rad"],
        values=np.column_stack((t, np.abs(inflow), np.abs(result.exit_field),
                                np.angle(result.exit_field))))
    results = {
        "efficiency": result.efficiency,
        "input_energy": result.input_energy,
        "echo_energy": result.echo_energy,
        "echo_phase_rad": result.echo_phase,
        "xpm_phase_rad": result.xpm_phase,
        "flip_time": result.flip_time,
        "fourier_residual": residual,
        "fourier_residual_time": t_mid,
        "kdrift_max_dev_bins": kdrift_dev_bins,
        "excitation_balance_residual": balance,
        "march_steps": grid.nt - 1,
        "dt_over_limit": grid.dt / result.dt_limit,
    }
    return table, results, None


def _run_xpm_free(cfg: ExperimentConfig):
    params = cfg.ensemble
    spec = cfg.xpm_free
    phis = [phi_free_signal(o, params.delta3, spec.tau, params.gamma)
            for o in spec.omega_s]
    table = ResultTable(columns=["Omega_s", "phi"], units=["gamma", "rad"],
                        values=np.column_stack((spec.omega_s, phis)))
    results = {"delta3": params.delta3, "tau": spec.tau,
               "phi_max_rad": max(phis)}
    return table, results, None


def _run_xpm_double(cfg: ExperimentConfig):
    params, grid = cfg.ensemble, cfg.grid
    res = double_storage_run(params, cfg.probe, cfg.signal, cfg.schedule, grid)
    table = ResultTable(
        columns=["t", "kpeak_probe", "kpeak_signal"],
        units=["1/gamma", "rad/L", "rad/L"],
        values=np.column_stack((grid.t, res.kpeak_probe, res.kpeak_signal)))
    quad = phi_stored_pair(res.effective_signal_envelope, params.delta4,
                           params.gamma, res.tau1, res.tau2)
    results = {
        "xpm_phase_rad": res.xpm.phase,
        "loss_factor": res.xpm.loss_factor,
        "interaction_time": res.xpm.interaction_time,
        "probe_efficiency": res.probe_efficiency,
        "reference_efficiency": res.reference_efficiency,
        "quadrature_phase_rad": quad.phase,
        "quadrature_loss_factor": quad.loss_factor,
        "march_steps": grid.nt - 1,
        "dt_over_limit": grid.dt / res.dt_limit,
    }
    return table, results, None


def _phi_targets_report(cfg: ExperimentConfig, phi: float,
                        extra: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    if not cfg.targets:
        return None
    gate = cfg.gate
    p_bare = replace(gate.params, stored_signal_coupling=False)
    p_dressed = p_bare.with_stored_signal_coupling()
    t = gate.t_end if cfg.kind == "gate" else gate.t_gate
    denom = p_bare.gamma ** 2 + p_bare.delta4 ** 2

    def analytic_mrad(g24: float) -> float:
        # gamma = delta4 = 0 leaves the light-shift estimate undefined,
        # while the simulation itself is well defined.
        if denom == 0.0:
            return math.nan
        return 1e3 * g24 ** 2 * p_bare.delta4 * t / denom

    report: Dict[str, Any] = {
        "parameters": {
            "stored_signal_coupling": gate.params.stored_signal_coupling,
            "g24_bare": p_bare.g24, "g24_stored": p_dressed.g24,
            "gamma": p_bare.gamma, "delta4": p_bare.delta4,
            "t": t,
        },
        "analytic_phi_mrad": {
            "bare_coupling": analytic_mrad(p_bare.g24),
            "stored_coupling": analytic_mrad(p_dressed.g24),
        },
    }
    report.update(extra)
    checks = {}
    if "phi_mrad" in cfg.targets:
        lo, hi = cfg.targets["phi_mrad"]
        val = abs(phi) * 1e3
        checks["phi_mrad"] = {"value": val, "interval": [lo, hi],
                              "in_interval": bool(lo <= val <= hi)}
    if "process_fidelity" in cfg.targets:
        lo, hi = cfg.targets["process_fidelity"]
        best = max(extra["fidelity_candidates"].values())
        checks["process_fidelity"] = {"value": best, "interval": [lo, hi],
                                      "in_interval": bool(lo <= best <= hi)}
    report["checks"] = checks
    report["all_in_interval"] = all(c["in_interval"] for c in checks.values())
    if not report["all_in_interval"]:
        report["note"] = (
            "at least one quantity missed its target interval; see "
            "'checks', the analytic per-coupling estimates, and the "
            "leakage/fidelity candidates for the discrepancy context")
    return report


def _run_gate(cfg: ExperimentConfig):
    gate = cfg.gate
    trace = phase_trace(gate.params, t_end=gate.t_end,
                        n_samples=gate.n_samples)
    table = ResultTable(
        columns=["t", "phi", "fidelity"], units=["1/gamma", "rad", "1"],
        values=np.column_stack((trace.times, trace.phi, trace.fidelity)))
    phi_end = float(trace.phi[-1])
    results = {
        "phi_end_rad": phi_end,
        "phi_end_mrad": 1e3 * phi_end,
        "fidelity_end": float(trace.fidelity[-1]),
        "t_end": gate.t_end,
        "max_trace_drift": trace.max_trace_drift,
        "final_min_eigenvalue": trace.min_eigenvalue,
    }
    return table, results, _phi_targets_report(cfg, phi_end, {})


def choi_table(chi: ChoiMatrix) -> ResultTable:
    """The 16x16 Choi state as 32 rows: the real parts, then the imaginary."""
    return ResultTable(columns=[f"c{j}" for j in range(16)], units=["1"] * 16,
                       values=np.vstack([chi.chi.real, chi.chi.imag]))


def _run_tomography(cfg: ExperimentConfig):
    gate = cfg.gate
    channel = channel_from_gate(gate.params, gate.t_gate)
    chi = choi_matrix(channel)
    phi = channel.phase
    candidates = {
        "identity": process_fidelity(chi, ideal_cphase_choi(0.0)),
        "cphase_plus_phi": process_fidelity(chi, ideal_cphase_choi(phi)),
        "cphase_minus_phi": process_fidelity(chi, ideal_cphase_choi(-phi)),
    }
    report = _phi_targets_report(cfg, phi, {
        "fidelity_candidates": candidates,
        "leakage": {"max": channel.max_leakage,
                    "per_input": channel.leakage},
    })
    table = choi_table(chi)
    results = {
        "t_gate": gate.t_gate,
        "conditional_phase_rad": phi,
        "fidelity_candidates": candidates,
        "best_fidelity": max(candidates.values()),
        "cptp": {
            "trace": chi.trace,
            "min_eigenvalue": chi.min_eigenvalue,
            "tp_residual": chi.tp_residual,
            "hermiticity_residual": chi.hermiticity_residual,
            "eigenvalues": np.sort(chi.eigenvalues)[::-1],
            "purity": chi.purity,
            "completely_positive": chi.completely_positive,
            "trace_preserving": chi.trace_preserving,
        },
        "max_leakage": channel.max_leakage,
    }
    return table, results, report


_RUNNERS = {
    "storage": _run_storage,
    "xpm-free": _run_xpm_free,
    "xpm-double": _run_xpm_double,
    "gate": _run_gate,
    "tomography": _run_tomography,
}

#: The columns a sweep tabulates for each point kind, in order:
#: (column, key of the point's results, unit).
SWEPT = {
    "storage": (("efficiency", "efficiency", "1"),
                ("echo_phase", "echo_phase_rad", "rad"),
                ("xpm_phase", "xpm_phase_rad", "rad")),
    "xpm-free": (("phi_max", "phi_max_rad", "rad"),),
    "xpm-double": (("xpm_phase", "xpm_phase_rad", "rad"),
                   ("loss_factor", "loss_factor", "1"),
                   ("probe_efficiency", "probe_efficiency", "1")),
    "gate": (("phi_end", "phi_end_rad", "rad"),
             ("fidelity_end", "fidelity_end", "1")),
    "tomography": (("best_fidelity", "best_fidelity", "1"),
                   ("conditional_phase", "conditional_phase_rad", "rad")),
}


def _sweep_group(job: Tuple[str, List[ExperimentConfig]]
                 ) -> List[Dict[str, Any]]:
    where, points = job
    try:
        if points[0].kind != "storage":
            return [_RUNNERS[p.kind](p)[1] for p in points]
        first = points[0]
        runs = storage_batch(first.ensemble, first.schedule, first.grid,
                             [(p.probe, _stark(p)) for p in points])
    except Exception as exc:   # pickled with the error from a worker
        exc.sweep_group = where
        raise
    return [{"efficiency": r.efficiency, "echo_phase_rad": r.echo_phase,
             "xpm_phase_rad": r.xpm_phase} for r in runs]


def _run_sweep(cfg: ExperimentConfig, workers: int):
    values, points = cfg.sweep.values, cfg.points
    groups: Dict[Any, List[int]] = {}   # point indices by group
    for i, p in enumerate(points):
        key = (p.ensemble, p.schedule, p.grid) if p.kind == "storage" else i
        groups.setdefault(key, []).append(i)
    jobs = [(f"{cfg.sweep.path} in {[values[i] for i in group]}",
             [points[i] for i in group]) for group in groups.values()]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_group, jobs))
    else:
        done = [_sweep_group(j) for j in jobs]
    by_index = dict(zip(itertools.chain(*groups.values()),
                        itertools.chain(*done)))
    swept = SWEPT[points[0].kind]
    columns = [c for c, _, _ in swept]
    rows = [[v] + [by_index[i][key] for _, key, _ in swept]
            for i, v in enumerate(values)]
    table = ResultTable(columns=[cfg.sweep.path.split(".")[-1]] + columns,
                        units=["1"] + [u for _, _, u in swept],
                        values=np.array(rows))
    results = {
        "axis_path": cfg.sweep.path,
        "axis_values": list(values),
        "points": [{"value": r[0], **dict(zip(columns, r[1:]))} for r in rows],
    }
    return table, results, None


def run_config(cfg: ExperimentConfig, out_dir: Path,
               workers: int = 1) -> Dict[str, Path]:
    """Execute one experiment config; returns the written file paths."""
    t0 = time.perf_counter()
    table, results, report = (_run_sweep(cfg, workers) if cfg.kind == "sweep"
                              else _RUNNERS[cfg.kind](cfg))
    wall = time.perf_counter() - t0

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = config_to_dict(cfg)
    table.provenance = _provenance(resolved, wall)

    paths = {"csv": out_dir / f"{cfg.name}.csv",
             "summary": out_dir / f"{cfg.name}.summary.json"}
    table.write_csv(paths["csv"])
    write_summary(paths["summary"], cfg.name, cfg.kind, resolved, results,
                  wall, target_report=report)
    return paths


def _execute(cfg: ExperimentConfig, out_dir: str, workers: int) -> int:
    """Run a loaded config and map its failures to exit 3."""
    try:
        paths = run_config(cfg, Path(out_dir), workers=workers)
    except (GemXpmError, OSError, MemoryError, ArithmeticError) as exc:
        where = f" at {exc.sweep_group}" if hasattr(exc, "sweep_group") else ""
        print(f"error: {cfg.kind} config '{cfg.name}'{where}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for kind, p in sorted(paths.items()):
        print(f"{kind}: {p}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gemxpm",
        description="Gradient-echo-memory XPM simulator: storage, phase "
                    "imprinting, gate, and tomography experiments")
    parser.add_argument("--version", action="version",
                        version=f"gemxpm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_opts(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker pool size for sweep points")

    p_sim = sub.add_parser("simulate", help="run one experiment config")
    p_sim.add_argument("config")
    add_run_opts(p_sim)

    p_presets = sub.add_parser("presets", help="list, show, or run presets")
    p_presets.add_argument("action", choices=["list", "show", "run"])
    p_presets.add_argument("name", nargs="?")
    add_run_opts(p_presets)

    args = parser.parse_args(argv)

    if args.command == "presets":
        if args.action == "list":
            for name in preset_names():
                print(name)
            return 0
        if args.name is None:
            print("error: preset name required", file=sys.stderr)
            return 2
        try:
            preset = get_preset(args.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.action == "show":
            print(yaml.safe_dump(preset, sort_keys=False).rstrip())
            return 0

    try:
        cfg = (parse_config(preset, default_name=args.name)
               if args.command == "presets" else load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _execute(cfg, args.out, args.workers)


if __name__ == "__main__":
    sys.exit(main())
