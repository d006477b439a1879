"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with the measured values (run with ``pytest -v -s``).

Every tolerance is pinned here, not configurable.  Criteria whose targets
carry documented model ambiguity (criterion 8) pass either inside the
target interval or by emitting a complete discrepancy report; the printed
line states which branch was taken.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gemxpm import (EnsembleParams, GateParams, GradientSchedule, Grid,
                    PiecewiseConstant, PulseSpec, build_hamiltonian,
                    constant_stark_drive, evolve, initial_state,
                    peak_k_trajectory, phase_trace,
                    phi_stored_pair, polariton_transform, propagate,
                    scattering_consistency, single_photon_estimate,
                    verify_fourier_relation)
from gemxpm.cli import run_config
from gemxpm.config import parse_config
from gemxpm.gate import DIM, basis_index
from gemxpm.presets import get_preset, preset_names
from gemxpm.reporting import csv_body
from gemxpm.tomography import (TwoQubitChannel, channel_from_gate,
                               choi_matrix, ideal_cphase_choi,
                               process_fidelity)
from gemxpm.xpm import EXPERIMENT_GEOMETRY

from _reference import FullRecords

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
TWO_PI = 2.0 * math.pi


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {tag}: {desc}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_agreement():
    t0 = time.perf_counter()
    omegas = (0.2, 0.7, 1.5, 3.0, 10.0)
    deltas = (0.5, 5.0, 40.0, 200.0)
    worst = 0.0
    count = 0
    for i, (omega, delta) in enumerate(itertools.product(omegas, deltas)):
        gamma = 0.5 + 0.25 * (i % 4)
        tau1, tau2 = 1.0 + 0.1 * i, 4.0 + 0.3 * i
        res = phi_stored_pair(np.full(101, omega), delta, gamma, tau1, tau2)
        closed = (tau2 - tau1) * omega ** 2 * delta / (gamma ** 2 + delta ** 2)
        worst = max(worst, abs(res.phase / closed - 1.0))
        count += 1
    wall = time.perf_counter() - t0
    _report(1, count == 20 and worst < 1e-10 and wall < 1.0,
            "rectangular-envelope quadrature matches the closed form",
            f"20-point grid, worst rel err {worst:.2e}, {wall:.2f}s")


def _sweep_points(base, path, values, out_dir):
    """``results.points`` of a sweep of ``path`` over ``values`` on
    ``base``, run through run_config like any shipped sweep."""
    cfg = parse_config({"experiment": "sweep", "name": "scan",
                        "sweep": {"path": path, "values": values},
                        "base": base})
    summary = run_config(cfg, out_dir)["summary"]
    return json.loads(summary.read_text())["results"]["points"]


def test_criterion_02_intensity_linearity(tmp_path):
    t0 = time.perf_counter()
    amps = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    points = _sweep_points(get_preset("fig2b_spm")["base"],
                           "signal.peak_amplitude", amps, tmp_path)
    x = np.array(amps) ** 2
    y = np.array([p["xpm_phase"] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r_squared = 1.0 - float(np.dot(resid, resid)) / float(
        np.dot(y - y.mean(), y - y.mean()))
    rel_intercept = abs(intercept) / np.abs(y).max()
    wall = time.perf_counter() - t0
    _report(2, r_squared > 0.999 and rel_intercept < 0.01 and wall < 120.0,
            "recalled phase is linear in signal intensity",
            f"R^2 {r_squared:.6f}, rel intercept {rel_intercept:.2e},"
            f" {wall:.1f}s")


def test_criterion_03_spm_immunity(tmp_path):
    t0 = time.perf_counter()
    driven = get_preset("fig2b_spm")["base"]
    spreads = []
    for name, base in (("undriven", dict(driven, signal=None)),
                       ("driven", driven)):
        phases = [p["echo_phase"] for p in _sweep_points(
            base, "probe.peak_amplitude", [0.1, 1.0, 10.0], tmp_path / name)]
        spreads.append(max(phases) - min(phases))
    wall = time.perf_counter() - t0
    _report(3, max(spreads) < 1e-6 and wall < 60.0,
            "recalled phase independent of probe amplitude {0.1, 1, 10}",
            f"spread without/with signal {spreads[0]:.2e}/{spreads[1]:.2e},"
            f" {wall:.1f}s")


def test_criterion_04_storage_baseline():
    t0 = time.perf_counter()
    params = EnsembleParams()
    probe = PulseSpec(1.0, 3.0, 1.0)
    eta = 8.0
    schedule = GradientSchedule(((0.0, 9.0, eta), (9.0, 20.0, -eta)))
    grid = Grid(nz=256, nt=4096, t_max=20.0)
    records = FullRecords()
    res = propagate(params, probe, schedule, grid, on_block=records)
    sigma, field = records.sigma, records.field
    rows = [int(round(t / grid.dt)) for t in (6.0, 6.5, 7.5)]
    residuals = [verify_fourier_relation(sigma[n:n + 1], field[n:n + 1],
                                         params, grid) for n in rows]
    t_axis = grid.t
    mask = (t_axis >= 6.0) & (t_axis <= 9.0)
    kk = peak_k_trajectory(*polariton_transform(sigma[mask], field[mask],
                                                params, grid))
    # drift rate is -eta with the exp(-ikz) spatial transform
    line = kk[0] - eta * (t_axis[mask] - t_axis[mask][0])
    dev_bins = float(np.max(np.abs(kk - line)) / (TWO_PI / grid.L))
    wall = time.perf_counter() - t0
    ok = (res.efficiency > 0.8
          and all(r is not None and r < 1e-2 for r in residuals)
          and dev_bins <= 1.0 and wall < 120.0)
    _report(4, ok, "storage baseline: efficiency, Fourier relation, k drift",
            f"eff {res.efficiency:.4f}, residuals "
            f"{max(residuals):.2e}, |k - (-eta t)| max {dev_bins:.2f} bins,"
            f" {wall:.1f}s")


def test_criterion_05_scattering_consistency():
    t0 = time.perf_counter()
    params = EnsembleParams()
    probe = PulseSpec(1.0, 3.0, 1.0)
    schedule = GradientSchedule(((0.0, 6.0, 8.0), (6.0, 16.0, 0.0),
                                 (16.0, 26.0, -8.0)))
    coupling = PiecewiseConstant(((0.0, 6.0, 1.0), (6.0, 16.0, 0.0),
                                  (16.0, 26.0, 1.0)))
    grid = Grid(nz=256, nt=4096, t_max=26.0)
    target_exponent = 2.02
    hold = 10.0
    intensity = target_exponent / (2.0 * hold / params.gamma)
    drive = constant_stark_drive(intensity, detuning=0.0, gamma=params.gamma,
                                 window=(6.0, 16.0))
    ref = propagate(params, probe, schedule, grid, coupling=coupling)
    hit = propagate(params, probe, schedule, grid, stark=drive,
                    coupling=coupling)
    ratio = hit.efficiency / ref.efficiency
    implied = scattering_consistency(hit.efficiency, ref.efficiency)
    wall = time.perf_counter() - t0
    ok = abs(ratio / (7.0 / 53.0) - 1.0) < 0.10 and wall < 120.0
    _report(5, ok, "calibrated scattering reproduces the 7/53 recall ratio",
            f"ratio {ratio:.4f} vs {7/53:.4f}, implied exponent "
            f"{implied:.3f} (target {target_exponent}), {wall:.1f}s")


def test_criterion_06_single_photon_estimate():
    t0 = time.perf_counter()
    est = single_photon_estimate(**EXPERIMENT_GEOMETRY)
    wall = time.perf_counter() - t0
    ok = 1e-13 <= est.phase <= 1e-11 and wall < 1.0
    _report(6, ok, "single-photon phase estimate in the expected decade",
            f"phi {est.phase:.3e} rad, Rabi {est.single_photon_rabi:.1f}"
            f" rad/s, {wall:.2f}s")


def test_criterion_07_master_equation_hygiene():
    t0 = time.perf_counter()
    params = GateParams()
    h = build_hamiltonian(params)

    traj = evolve(initial_state(), h, params.gamma, 15.0, 31)
    trace_drift = max(abs(r.trace().real - 1.0) for r in traj.states)
    min_eig = min(float(np.linalg.eigvalsh(r).min()) for r in traj.states)

    traj0 = evolve(initial_state(), h, 0.0, 15.0, 31)
    purities = [float(np.trace(r @ r).real) for r in traj0.states]
    purity_drift = max(abs(p - purities[0]) for p in purities)

    rho0 = np.zeros((DIM, DIM), dtype=complex)
    i3 = basis_index("3", 0, 0)
    rho0[i3, i3] = 1.0
    decay = evolve(rho0, np.zeros((DIM, DIM), dtype=complex), 1.0, 5.0, 11)
    decay_err = max(abs(r[i3, i3].real - math.exp(-t))
                    for t, r in zip(decay.times, decay.states))

    wall = time.perf_counter() - t0
    ok = (trace_drift < 1e-8 and min_eig >= -1e-8 and purity_drift < 1e-8
          and decay_err < 1e-6 and wall < 60.0)
    _report(7, ok, "master-equation hygiene on the reference set to 15/gamma",
            f"trace drift {trace_drift:.1e}, min eig {min_eig:.1e}, "
            f"gamma=0 purity drift {purity_drift:.1e}, two-level decay err "
            f"{decay_err:.1e}, {wall:.1f}s")


def test_criterion_08_gate_reproduction_targets():
    phi_interval = (0.005, 0.08)       # mrad
    fid_interval = (0.75, 0.95)

    cfg = parse_config(get_preset("fig4b_tomo"), default_name="fig4b_tomo")
    gate = cfg.gate

    trace = phase_trace(gate, t_end=15.0, n_samples=16)
    phi_mrad = abs(trace.phi[-1]) * 1e3

    channel = channel_from_gate(gate, gate.t_gate)
    chi = choi_matrix(channel)
    phi_signed = float(trace.phi[-1])
    candidates = {
        "identity": process_fidelity(chi, ideal_cphase_choi(0.0)),
        "cphase_plus_phi": process_fidelity(chi, ideal_cphase_choi(phi_signed)),
        "cphase_minus_phi": process_fidelity(chi,
                                             ideal_cphase_choi(-phi_signed)),
    }
    best = max(candidates.values())

    phi_ok = phi_interval[0] <= phi_mrad <= phi_interval[1]
    fid_ok = fid_interval[0] <= best <= fid_interval[1]

    # out-of-interval results must come with a complete discrepancy report
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        paths = run_config(cfg, Path(td))
        summary = json.loads(paths["summary"].read_text())
    report = summary.get("target_report")
    report_complete = (
        report is not None
        and "parameters" in report
        and "leakage" in report
        and "fidelity_candidates" in report
        and "checks" in report)

    details = (f"|phi| {phi_mrad:.4f} mrad (target {list(phi_interval)}), "
               f"best fidelity {best:.4f} (target {list(fid_interval)}), "
               f"candidates identity/{candidates['identity']:.4f}")
    if phi_ok and fid_ok:
        _report(8, True, "gate numbers inside both target intervals", details)
    else:
        missed = []
        if not phi_ok:
            missed.append("phi")
        if not fid_ok:
            missed.append("fidelity")
        _report(8, report_complete,
                f"{'/'.join(missed)} outside target interval; discrepancy "
                "report emitted with parameters, leakage, and candidate "
                "fidelities", details)


def test_criterion_09_tomography_oracles():
    t0 = time.perf_counter()
    ident = choi_matrix(TwoQubitChannel.identity())
    phi_vec = np.zeros(16)
    for i in range(4):
        phi_vec[i * 4 + i] = 0.5
    fid_identity = float(np.real(phi_vec @ ident.chi @ phi_vec))

    cp_pi = ideal_cphase_choi(math.pi)
    u = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    direct = choi_matrix(TwoQubitChannel.from_unitary(u))
    entrywise = float(np.abs(cp_pi.chi - direct.chi).max())

    cross = process_fidelity(ideal_cphase_choi(0.0), cp_pi)
    wall = time.perf_counter() - t0
    ok = (abs(fid_identity - 1.0) < 1e-8 and entrywise < 1e-8
          and abs(cross - 0.25) < 1e-8 and wall < 60.0)
    _report(9, ok, "tomography correctness oracles",
            f"identity overlap {fid_identity:.10f}, cphase(pi) entrywise "
            f"{entrywise:.1e}, cross fidelity {cross:.10f}, {wall:.1f}s")


def test_criterion_10_determinism_and_goldens(tmp_path):
    t0 = time.perf_counter()
    failures = []
    for name in preset_names():
        cfg = parse_config(get_preset(name), default_name=name)
        paths_a = run_config(cfg, tmp_path / "a")
        paths_b = run_config(cfg, tmp_path / "b")
        produced = {k: v for k, v in paths_a.items()
                    if v.suffix == ".csv"}
        for key, path_a in produced.items():
            body_a = csv_body(path_a)
            body_b = csv_body(paths_b[key])
            if body_a != body_b:
                failures.append(f"{name}:{key} not reproducible")
                continue
            golden = GOLDEN_DIR / path_a.name
            if not golden.exists():
                failures.append(f"{name}:{key} golden file missing")
            elif golden.read_text(encoding="utf-8") != body_a:
                failures.append(f"{name}:{key} differs from golden")
    wall = time.perf_counter() - t0
    _report(10, not failures,
            "presets byte-reproducible and matching checked-in goldens",
            f"{len(preset_names())} presets, "
            f"{'; '.join(failures) if failures else 'all identical'},"
            f" {wall:.0f}s")
