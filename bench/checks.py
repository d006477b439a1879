"""Correctness checks on the files a workload config wrote.

Preset CSV bodies (provenance lines stripped) must equal ``golden/`` byte
for byte; on a mismatch the report gives per-column max abs/rel deltas.
The scan sweeps are tied to the goldens at their anchor points and
checked against physical invariants elsewhere.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List

import numpy as np

from gemxpm.reporting import csv_body
from gemxpm.tomography import ideal_cphase_choi

import workloads

# xpm_phase / Omega_s^2 is constant across the sweep to about 1e-7
# relative; the tolerance leaves room for re-rounding from a changed
# summation order without admitting a wrong intensity dependence.
XPM_SCALING_RTOL = 1e-6
# The anchor fidelity is recomputed from the golden Choi matrix with the
# same arithmetic, so only round-off separates the two.
FIDELITY_ATOL = 1e-12
# The anchor phase comes from the exact propagator, the fig4a_gate golden
# from the RK4 stepper; they agree to about 2e-14 rad at t = 15.
PHASE_ATOL = 1e-10


def _rows(body: str) -> List[List[str]]:
    return [ln.split(",") for ln in body.splitlines() if ln]


def _column_deltas(produced: str, golden: str) -> str:
    """Per-column max abs/rel deltas between two CSV bodies."""
    a, b = _rows(produced), _rows(golden)
    lines, header = [], None
    if a and b and not _is_number(a[0][0]):
        header, a = a[0], a[1:]
        if b[0] != header:
            lines.append(f"  header {','.join(header)} vs golden "
                         f"{','.join(b[0])}")
        b = b[1:]
    if len(a) != len(b):
        lines.append(f"  row count {len(a)} vs golden {len(b)}")
    n = min(len(a), len(b))
    width = min(len(r) for r in a[:n] + b[:n]) if n else 0
    for j in range(width):
        x = np.array([float(r[j]) for r in a[:n]])
        y = np.array([float(r[j]) for r in b[:n]])
        diff = np.abs(x - y)
        scale = np.maximum(np.abs(y), np.finfo(float).tiny)
        name = header[j] if header else f"col{j}"
        lines.append(f"  {name}: max_abs={diff.max():.3e} "
                     f"max_rel={(diff / scale).max():.3e}")
    return "\n".join(lines)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def golden_failures(paths: Dict[str, Path], golden_dir: Path) -> List[str]:
    failures = []
    for path in paths.values():
        if path.suffix != ".csv":
            continue
        golden = golden_dir / path.name
        if not golden.exists():
            failures.append(f"{path.name}: golden file missing")
            continue
        produced = csv_body(path)
        expected = golden.read_text(encoding="utf-8")
        if produced != expected:
            failures.append(f"{path.name} differs from golden:\n"
                            + _column_deltas(produced, expected))
    return failures


def _table(path: Path) -> Dict[str, List[str]]:
    rows = _rows(csv_body(path))
    names = [c.split("[")[0] for c in rows[0]]
    return {n: [r[j] for r in rows[1:]] for j, n in enumerate(names)}


def scan_xpm_failures(path: Path, values: List[float],
                      golden_dir: Path) -> List[str]:
    table = _table(path)
    omega = [float(v) for v in table["peak_amplitude"]]
    if omega != values:
        return [f"scan_xpm: sweep axis {omega} != requested {values}"]
    # The anchor point is fig2b_spm's probe-amplitude-1 row cell for cell.
    golden = _table(golden_dir / "fig2b_spm.csv")
    ref = golden["peak_amplitude"].index("1")
    i = omega.index(workloads.XPM_ANCHOR)
    failures = [f"scan_xpm: anchor {col} {table[col][i]} != fig2b_spm "
                f"golden {golden[col][ref]}"
                for col in ("efficiency", "echo_phase", "xpm_phase")
                if table[col][i] != golden[col][ref]]
    phase = [float(v) for v in table["xpm_phase"]]
    anchor = phase[i] / omega[i] ** 2
    for o, p in zip(omega, phase):
        if not math.isclose(p / o ** 2, anchor, rel_tol=XPM_SCALING_RTOL):
            failures.append(f"scan_xpm: xpm_phase/Omega_s^2 at {o} is "
                            f"{p / o ** 2!r}, anchor {anchor!r}")
    return failures


def _golden_choi(golden_dir: Path) -> np.ndarray:
    rows = _rows((golden_dir / "fig4b_tomo.csv").read_text(encoding="utf-8"))
    block = np.array([[float(v) for v in r] for r in rows[1:]])
    return block[:16] + 1j * block[16:]


def scan_tomo_failures(path: Path, values: List[float],
                       golden_dir: Path) -> List[str]:
    table = _table(path)
    t_gate = [float(v) for v in table["t_gate"]]
    if t_gate != values:
        return [f"scan_tomo: sweep axis {t_gate} != requested {values}"]
    fid = [float(v) for v in table["best_fidelity"]]
    phi = [float(v) for v in table["conditional_phase"]]
    failures = [f"scan_tomo: fidelity {f!r} at t_gate={t} outside [0, 1]"
                for t, f in zip(t_gate, fid) if not 0.0 <= f <= 1.0]
    failures += [f"scan_tomo: non-finite phase at t_gate={t}"
                 for t, p in zip(t_gate, phi) if not math.isfinite(p)]
    # At t_gate = 15 the sweep point is fig4b_tomo: its best candidate
    # fidelity must follow from the golden Choi matrix and the point's
    # phase, and that phase must match fig4a_gate's at the same time.
    i = t_gate.index(workloads.TOMO_ANCHOR)
    gate = _table(golden_dir / "fig4a_gate.csv")
    phi_gate = float(gate["phi"][gate["t"].index("15")])
    if abs(phi[i] - phi_gate) > PHASE_ATOL:
        failures.append(f"scan_tomo: anchor phase {phi[i]!r} != "
                        f"{phi_gate!r} from the fig4a_gate golden")
    chi = _golden_choi(golden_dir)
    expected = max(
        float(complex(np.trace(ideal_cphase_choi(x).chi @ chi)).real)
        for x in (0.0, phi[i], -phi[i]))
    if abs(fid[i] - expected) > FIDELITY_ATOL:
        failures.append(f"scan_tomo: anchor fidelity {fid[i]!r} != "
                        f"{expected!r} from the fig4b_tomo golden")
    return failures


def config_failures(name: str, paths: Dict[str, Path], golden_dir: Path,
                    sweeps: Dict[str, List[float]]) -> List[str]:
    if name == "scan_xpm":
        return scan_xpm_failures(paths["csv"], sweeps[name], golden_dir)
    if name == "scan_tomo":
        return scan_tomo_failures(paths["csv"], sweeps[name], golden_dir)
    return golden_failures(paths, golden_dir)
