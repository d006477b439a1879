"""Shipped experiment presets.

Every preset is a plain config mapping (the same schema the CLI accepts),
in internal gamma units.  Numerical choices that the source experiments do
not pin down (pulse durations, gradient magnitudes, grid sizes, the
free-signal detuning and interaction time) are desk-scale assumptions and
are documented in the README.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Dict, List

_TWO_PI = 2.0 * math.pi

#: Baseline storage medium: Raman ratio 0.2, effective absorption
#: coefficient coupling_density*(OmegaC/Delta)^2 = 10, gradient beta ~ 1.25.
_BASELINE_ENSEMBLE = {
    "gamma": 1.0, "gamma0": 0.0, "coupling_density": 250.0,
    "Delta": 40.0, "delta3": 400.0, "OmegaC": 8.0,
}

#: Double-storage medium: same absorption coefficient but Raman ratio
#: 0.05, so the signal coherence's coupling-field scattering
#: gamma*(OmegaCPrime/DeltaPrime)^2 = 2.5e-3 stays negligible over the hold.
_DOUBLE_ENSEMBLE = {
    "gamma": 1.0, "gamma0": 0.0, "coupling_density": 4000.0,
    "Delta": 160.0, "DeltaPrime": 160.0, "delta4": 40.0, "OmegaC": 8.0,
    "OmegaCPrime": 8.0,
}

_STORAGE_BASE = {
    "experiment": "storage",
    "ensemble": dict(_BASELINE_ENSEMBLE),
    "probe": {"peak_amplitude": 1.0, "center_time": 3.0, "duration": 1.0},
    "schedule": [[0.0, 9.0, 8.0], [9.0, 20.0, -8.0]],
    "grid": {"nz": 256, "nt": 4096, "t_max": 20.0},
}

PRESETS: Dict[str, Dict[str, Any]] = {
    # Plain storage/recall at high optical depth; no signal field.
    "storage_baseline": dict(_STORAGE_BASE, name="storage_baseline"),

    # Closed-form nonlinear phase versus signal Rabi frequency
    # (far-detuned free-propagating signal, delta3 = 400 gamma, 15 us-scale
    # interaction expressed as 283/gamma).
    "fig2a_theory": {
        "experiment": "xpm-free",
        "name": "fig2a_theory",
        "ensemble": {"gamma": 1.0, "delta3": 400.0},
        "xpm_free": {
            "omega_s": [round(0.1 * i, 1) for i in range(21)],
            "tau": 283.0,
        },
    },

    # Probe-amplitude sweep at fixed signal drive: the recalled phase is
    # expected to be independent of the probe intensity.
    "fig2b_spm": {
        "experiment": "sweep",
        "name": "fig2b_spm",
        "sweep": {"path": "probe.peak_amplitude", "values": [0.1, 1.0, 10.0]},
        "base": dict(
            copy.deepcopy(_STORAGE_BASE),
            name="fig2b_point",
            signal={"peak_amplitude": 0.5, "center_time": 6.0,
                    "duration": 1.0},
        ),
    },

    # Two coherences held simultaneously: write both pulses under opposite
    # gradients, hold eta = 0 on [11, 21] with the probe coupling off and
    # the signal coupling on, recall the probe at t = 21.
    "fig3b_double": {
        "experiment": "xpm-double",
        "name": "fig3b_double",
        "ensemble": dict(_DOUBLE_ENSEMBLE),
        "probe": {"peak_amplitude": 1.0, "center_time": 2.5, "duration": 1.0},
        "signal": {"peak_amplitude": 1.0, "center_time": 6.0, "duration": 1.0},
        "schedule": [[0.0, 11.0, _TWO_PI], [11.0, 21.0, 0.0],
                     [21.0, 34.0, -_TWO_PI]],
        "grid": {"nz": 256, "nt": 8192, "t_max": 34.0},
    },

    # Conditional phase and gate fidelity of the master-equation gate on
    # the reference parameter set, with the signal photon entering at its
    # stored-polariton coupling.
    "fig4a_gate": {
        "experiment": "gate",
        "name": "fig4a_gate",
        "gate": {"stored_signal_coupling": True, "t_end": 15.0,
                 "n_samples": 151},
        "targets": {"phi_mrad": [0.005, 0.08]},
    },

    # Process tomography of the same gate at t = 15/gamma.
    "fig4b_tomo": {
        "experiment": "tomography",
        "name": "fig4b_tomo",
        "gate": {"stored_signal_coupling": True, "t_gate": 15.0},
        "targets": {"phi_mrad": [0.005, 0.08],
                    "process_fidelity": [0.75, 0.95]},
    },
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Dict[str, Any]:
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return copy.deepcopy(PRESETS[name])
