"""Benchmark workloads: which configs each one runs, and why.

Every workload is a closed loop over its configs, one ``run_config`` call
at a time.  Presets are the shipped traffic and take no seed; the seed
only draws the non-anchor values of the two ``scan`` sweeps.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

# Anchor sweep values reproduce a preset exactly and are checked against
# its golden; the others are drawn from these ranges.
XPM_ANCHOR = 0.5
XPM_RANGE = (0.2, 1.25)
XPM_DRAWN = 4
TOMO_ANCHOR = 15.0
TOMO_RANGE = (5.0, 15.0)
TOMO_DRAWN = 3

# Configs of each workload, in the order one pass runs them.  Why each
# workload was chosen is its "why" in BENCHMARK.json.
WORKLOADS: Dict[str, List[str]] = {
    "storage": ["storage_baseline", "fig2a_theory", "fig3b_double",
                "fig2b_spm"],
    "gate": ["fig4a_gate", "fig4b_tomo"],
    "scan": ["scan_xpm", "scan_tomo"],
}

# Which ROADMAP optimisation each workload exercises or bypasses.
ROADMAP_ROLE = {
    "storage": {"gate engine / propagator reuse": "bypassed",
                "batched Maxwell-Bloch stepper": "exercised",
                "lazy imports": "shows in setup_s"},
    "gate": {"gate engine / propagator reuse": "exercised",
             "batched Maxwell-Bloch stepper": "bypassed",
             "lazy imports": "shows in setup_s"},
    "scan": {"gate engine / propagator reuse": "exercised",
             "batched Maxwell-Bloch stepper": "exercised",
             "lazy imports": "shows in setup_s"},
}


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """One uniform draw in each of n equal slices of [lo, hi].

    Stratifying keeps the spread of values, and so the work per run,
    similar from seed to seed.
    """
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), 6) for i in range(n)]


def sweep_values(seed: int) -> Dict[str, List[float]]:
    rng = random.Random(seed)
    xpm = sorted([XPM_ANCHOR] + _stratified(rng, *XPM_RANGE, XPM_DRAWN))
    tomo = sorted([TOMO_ANCHOR] + _stratified(rng, *TOMO_RANGE, TOMO_DRAWN))
    return {"scan_xpm": xpm, "scan_tomo": tomo}


def raw_configs(workload: str, seed: int,
                get_preset: Callable[[str], Dict[str, Any]]
                ) -> List[Tuple[str, Dict[str, Any]]]:
    """(name, raw config mapping) for every config of ``workload``."""
    if workload != "scan":
        return [(name, get_preset(name)) for name in WORKLOADS[workload]]
    values = sweep_values(seed)
    tomo_base = get_preset("fig4b_tomo")
    tomo_base["name"] = "scan_tomo_point"
    return [
        ("scan_xpm", {"experiment": "sweep", "name": "scan_xpm",
                      "sweep": {"path": "signal.peak_amplitude",
                                "values": values["scan_xpm"]},
                      "base": get_preset("fig2b_spm")["base"]}),
        ("scan_tomo", {"experiment": "sweep", "name": "scan_tomo",
                       "sweep": {"path": "gate.t_gate",
                                 "values": values["scan_tomo"]},
                       "base": tomo_base}),
    ]

# Calls per config of each traced function in one pass, as the program
# makes them today.  A traced run reports any count that reads zero where
# one is expected (a missed binding site) and any count that changed.
_WRITE = {"cli.run_config": 1, "reporting.write_csv": 1,
          "reporting.write_summary": 1}
_STORAGE_POINT = {"gem.propagate": 1, "gem.polariton_transform": 1,
                  "gem.peak_k_trajectory": 1,
                  "gem.verify_fourier_relation": 1}
# A storage point with a signal adds its signal-free reference run and
# skips the excitation balance, which needs an undriven run.
_XPM_POINT = dict(_STORAGE_POINT, **{"config.parse_config": 1,
                                     "gem.propagate": 2})
# cli._run_tomography builds its own propagator beside channel_from_gate's,
# and each of the three fidelity candidates builds an ideal Choi matrix.
_TOMO_POINT = {"gate.build_hamiltonian": 2, "gate.liouvillian_matrix": 2,
               "gate.propagator": 2, "tomography.channel_from_gate": 1,
               "tomography.choi_matrix": 4,
               "tomography.process_fidelity": 3}


def _times(point: Dict[str, int], n: int) -> Dict[str, int]:
    return {k: n * v for k, v in point.items()}


EXPECTED_CALLS: Dict[str, Dict[str, int]] = {
    "storage_baseline": dict(_WRITE, **_STORAGE_POINT,
                             **{"gem.excitation_balance": 1}),
    "fig2a_theory": dict(_WRITE),
    "fig3b_double": dict(_WRITE, **{"xpm.double_storage_run": 1,
                                    "gem.propagate": 1,
                                    "gem.polariton_transform": 2,
                                    "gem.peak_k_trajectory": 2}),
    "fig2b_spm": dict(_WRITE, **_times(_XPM_POINT, 3)),
    "fig4a_gate": dict(_WRITE, **{"gate.phase_trace": 1, "gate.evolve": 1,
                                  "gate.build_hamiltonian": 1}),
    "fig4b_tomo": dict(_WRITE, **_TOMO_POINT, **{"reporting.choi_export": 1}),
    "scan_xpm": dict(_WRITE, **_times(_XPM_POINT, 1 + XPM_DRAWN)),
    "scan_tomo": dict(_WRITE, **_times(dict(_TOMO_POINT, **{
        "config.parse_config": 1}), 1 + TOMO_DRAWN)),
}
