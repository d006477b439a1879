import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import gemxpm
from gemxpm import apply_stark_drive, channel_from_gate, propagate
from gemxpm.cli import (_RUNNERS, SWEPT, _run_storage, choi_table, main,
                        run_config)
from gemxpm.config import (SECTIONS, UNREAD, GateRunSpec, config_to_dict,
                           parse_config, set_sweep_value)
from gemxpm.errors import ConfigError
from gemxpm.gem import member_bytes
from gemxpm.model import EnsembleParams
from gemxpm.presets import get_preset, preset_names
from gemxpm.reporting import (ResultTable, config_hash, csv_body,
                              format_float)
from gemxpm.tomography import choi_matrix, ideal_cphase_choi

STORAGE_CONFIG = {
    "experiment": "storage",
    "name": "small_storage",
    "ensemble": {"coupling_density": 250.0, "Delta": 40.0, "OmegaC": 8.0},
    "probe": {"peak_amplitude": 1.0, "center_time": 3.0, "duration": 1.0},
    "schedule": [[0.0, 9.0, 8.0], [9.0, 20.0, -8.0]],
    "grid": {"nz": 96, "nt": 2048, "t_max": 20.0},
}
SIGNAL = {"peak_amplitude": 0.5, "center_time": 6.0, "duration": 1.0}
XPM_DOUBLE = dict(STORAGE_CONFIG, experiment="xpm-double", signal=SIGNAL,
                  schedule=[[0.0, 8.0, 8.0], [8.0, 12.0, 0.0],
                            [12.0, 20.0, -8.0]],
                  grid={"nz": 32, "nt": 512, "t_max": 20.0})
XPM_FREE = {"experiment": "xpm-free",
            "xpm_free": {"omega_s": [1.0], "tau": 1.0}}
# a gate with a visible conditional phase whose runs stay short
SMALL_GATE = {"Delta": 20.0, "DeltaPrime": 20.0, "delta4": 2.0,
              "OmegaC": 2.0, "OmegaCPrime": 2.0}


def write_yaml(tmp_path, payload, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(p)


def record_march_sizes(monkeypatch):
    """Make gem.march, as the storage and double-storage runs call it,
    record each march's member count; return the list."""
    from gemxpm import gem, xpm
    sizes, march = [], gem.march

    def sized(schedule, grid, members, *args, **kwargs):
        sizes.append(len(members))
        return march(schedule, grid, members, *args, **kwargs)

    monkeypatch.setattr(gem, "march", sized)
    monkeypatch.setattr(xpm, "march", sized)
    return sizes


def run_python(*args, **env):
    """Run a fresh interpreter with this gemxpm importable and ``env`` as
    extra environment variables."""
    src = str(Path(gemxpm.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300,
                          env={"PYTHONPATH": src, **env})


class TestConfigValidation:
    def test_empty_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "empty.yaml"
        p.write_text("", encoding="utf-8")
        code = main(["simulate", str(p), "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 2

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error at '{tmp_path}': cannot read config file" in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.yaml"
        p.write_bytes("experiment: storage\nname: caf\u00e9\n".encode("latin-1"))
        assert main(["simulate", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error at '{p}': config file is not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_yaml_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("experiment: [storage\n", encoding="utf-8")
        assert main(["simulate", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error at '{p}': not valid YAML" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected_with_path(self):
        bad = dict(STORAGE_CONFIG, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(bad)

    def test_nested_unknown_key_path(self):
        bad = dict(STORAGE_CONFIG, probe={"peak_amplitude": 1.0,
                                          "center_time": 3.0,
                                          "duration": 1.0, "chirp": 2.0})
        with pytest.raises(ConfigError, match="probe.chirp"):
            parse_config(bad)

    def test_missing_required_block(self):
        bad = {k: v for k, v in STORAGE_CONFIG.items() if k != "schedule"}
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(bad)

    def test_bad_experiment_kind(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({"experiment": "warp-drive"})

    def test_sweep_axis_path_checked(self):
        cfg = {
            "experiment": "sweep",
            "sweep": {"path": "probe.nonexistent", "values": [1.0]},
            "base": dict(STORAGE_CONFIG),
        }
        with pytest.raises(ConfigError, match="nonexistent"):
            parse_config(cfg)

    def test_gate_dt_refused(self, tmp_path, capsys):
        cfg = {"experiment": "gate", "gate": {"dt": 0.01}}
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "gate.dt" in capsys.readouterr().err

    def test_per_input_renormalisation_refused(self, tmp_path, capsys):
        cfg = {"experiment": "tomography",
               "gate": {"renormalize": "per-input"}}
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "gate.renormalize" in capsys.readouterr().err

    def test_zero_raman_detuning_refused(self, tmp_path, capsys):
        # a storage run reads no DeltaPrime; a stored pair reads both
        for base, key in ((STORAGE_CONFIG, "Delta"),
                          (XPM_DOUBLE, "DeltaPrime")):
            cfg = dict(base, ensemble=dict(base["ensemble"], **{key: 0.0}))
            assert main(["simulate", write_yaml(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert f"'ensemble': {key} must be nonzero" in err

    @pytest.mark.parametrize("edit, path", [
        ({"schedule": [[0.0, 9.0, 8.0], [9.0, 15.0, -8.0]]}, "schedule"),
        ({"probe": {"peak_amplitude": 1.0, "center_time": 8.0,
                    "duration": 1.0}}, "schedule"),
        ({"schedule": [[0.0, 20.0, 8.0]],
          "probe": {"peak_amplitude": 1.0, "center_time": 19.0,
                    "duration": 1.0}}, "schedule"),
        ({"schedule": [[-5.0, -1.0, 8.0], [-1.0, 20.0, -8.0]],
          "probe": {"peak_amplitude": 1.0, "center_time": -3.0,
                    "duration": 0.5}}, "schedule"),
        ({"experiment": "xpm-double", "signal": SIGNAL,
          "schedule": [[0.0, 8.0, 8.0], [8.0, 12.0, 0.0],
                       [12.0, 20.0, -8.0]],
          "grid": {"nz": 32, "nt": 200, "t_max": 20.0}}, "grid"),
    ], ids=["schedule_short", "probe_after_flip", "probe_after_end",
            "flip_before_zero", "hold_undersampled"])
    def test_solver_window_refused(self, tmp_path, capsys, edit, path):
        # each raised a ValueError traceback from the solver (exit 1)
        cfg = dict(STORAGE_CONFIG, **edit)
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"config error at '{path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, code, message", [
        ({"experiment": "gate", "gate": {"t_end": -1.0, "n_samples": 2}},
         2, "config error at 'gate': t_end must be positive"),
        ({"experiment": "tomography", "gate": {"t_gate": -1.0}},
         2, "config error at 'gate': t_gate must be positive"),
        ({"experiment": "sweep",
          "sweep": {"path": "gate.t_gate", "values": [-1.0]},
          "base": {"experiment": "tomography", "gate": {"t_gate": 15.0}}},
         2, "config error at 'base.gate': t_gate must be positive"),
        ({"experiment": "gate", "gate": {"gamma": math.nan, "n_samples": 2}},
         2, "config error at 'gate.gamma': expected a finite number"),
        ({"experiment": "gate", "gate": {"t_end": math.nan, "n_samples": 2}},
         2, "config error at 'gate.t_end': expected a finite number"),
        ({"experiment": "gate", "gate": {"g": math.inf, "n_samples": 2}},
         2, "config error at 'gate.g': expected a finite number"),
        ({"experiment": "xpm-free",
          "xpm_free": {"omega_s": [1.0], "tau": math.nan}},
         2, "config error at 'xpm_free.tau': expected a finite number"),
        ({"experiment": "xpm-free",
          "xpm_free": {"omega_s": [10 ** 400], "tau": 1.0}},
         2, "config error at 'xpm_free.omega_s[0]': expected a finite"),
        ({"experiment": "tomography", "gate": {"t_gate": 1.0e+300}},
         3, "NumericalError: exp(L*t) is not finite"),
        ({"experiment": "tomography", "gate": {"OmegaC": 1.0e+200}},
         3, "NumericalError: exp(L*t) is not finite"),
        ({"experiment": "xpm-free", "ensemble": {"N": 1.0e7},
          "xpm_free": {"omega_s": [1.0], "tau": 1.0}},
         2, "config error at 'ensemble.N': unknown key"),
        ({"experiment": "gate", "gate": {"bandwidth": 1.0, "n_samples": 2}},
         2, "config error at 'gate.bandwidth': unknown key"),
        ({"experiment": "sweep",
          "sweep": {"path": "gate.t_gate", "values": [-1.0, -2.0]},
          "base": {"experiment": "tomography", "gate": {"t_gate": 15.0}}},
         2, "config error at 'base.gate': t_gate must be positive"),
        ({"experiment": "sweep",
          "sweep": {"path": "grid.t_max", "values": [20.0, 19.0]},
          "base": dict(STORAGE_CONFIG,
                       schedule=[[0.0, 9.0, 500.0], [9.0, 20.0, -500.0]],
                       grid={"nz": 32, "nt": 64, "t_max": 20.0})},
         3, "StabilityError: time step dt=3.175e-01 exceeds"),
        ({"experiment": "sweep",
          "sweep": {"path": "grid.nt", "values": [64.5]},
          "base": STORAGE_CONFIG},
         2, "config error at 'base.grid.nt': expected an integer, got 64.5"),
        ({"experiment": "gate", "gate": {"n_samples": 1000000000}},
         2, "config error at 'gate.n_samples': the trajectory of 1000000000 "
            "samples exceeds the 2 GiB budget (at most 171196)"),
        (dict(STORAGE_CONFIG, targets={"phi_mrad": [0.0, 1.0]}),
         2, "config error at 'targets': storage experiments do not read"),
        (dict(STORAGE_CONFIG, experiment="xpm-double", signal=SIGNAL,
              targets={"phi_mrad": [0.0, 1.0]}),
         2, "config error at 'targets': xpm-double experiments do not read"),
        ({"experiment": "xpm-free", "xpm_free": {"omega_s": [1.0], "tau": 1.0},
          "targets": {"phi_mrad": [0.0, 1.0]}},
         2, "config error at 'targets': xpm-free experiments do not read"),
        ({"experiment": "sweep", "targets": {"phi_mrad": [0.0, 1.0]},
          "sweep": {"path": "gate.t_gate", "values": [5.0, 15.0]},
          "base": {"experiment": "tomography", "gate": {"t_gate": 15.0}}},
         2, "config error at 'targets': sweep experiments do not read"),
        ({"experiment": "gate", "gate": {"n_samples": 2},
          "targets": {"process_fidelity": [0.75, 0.95]}},
         2, "config error at 'targets.process_fidelity': unknown key"),
        (dict(STORAGE_CONFIG, gate="garbage", xpm_free=[1, "x"]),
         2, "config error at 'gate': storage experiments do not read"),
        ({"experiment": "gate", "gate": {"n_samples": 2},
          "probe": STORAGE_CONFIG["probe"], "grid": STORAGE_CONFIG["grid"],
          "schedule": STORAGE_CONFIG["schedule"]},
         2, "config error at 'grid': gate experiments do not read"),
        (dict(STORAGE_CONFIG, experiment="xpm-double", signal=SIGNAL,
              signal_detuning="delta3",
              schedule=[[0.0, 8.0, 8.0], [8.0, 12.0, 0.0],
                        [12.0, 20.0, -8.0]],
              grid={"nz": 32, "nt": 512, "t_max": 20.0}),
         2, "config error at 'signal_detuning': xpm-double experiments do "
            "not read"),
        (dict(STORAGE_CONFIG, signal_detuning="delta4"),
         2, "config error at 'signal_detuning': storage experiments do not "
            "read this key"),
        ({"experiment": "tomography", "gate": {"n_samples": 1000000000}},
         2, "config error at 'gate.n_samples': unknown key"),
        ({"experiment": "gate", "gate": {"n_samples": 2, "t_gate": 5.0}},
         2, "config error at 'gate.t_gate': unknown key"),
        ({"experiment": "sweep", "units": {"system": "lab", "gamma": 2.0},
          "sweep": {"path": "xpm_free.tau", "values": [1.0]},
          "base": {"experiment": "xpm-free",
                   "xpm_free": {"omega_s": [1.0], "tau": 1.0}}},
         2, "config error at 'units': sweep experiments do not read"),
        ({"experiment": "sweep",
          "sweep": {"path": "ensemble.delta3", "values": [100.0, 400.0]},
          "base": {"experiment": "tomography", "ensemble": {"delta3": 400.0},
                   "gate": {"t_gate": 15.0}}},
         2, "config error at 'base.ensemble': tomography experiments do not "
            "read"),
        ({"experiment": "tomography",
          "gate": {"renormalize": "none", "stored_signal_coupling": True}},
         2, "config error at 'gate.renormalize': unknown key"),
        (dict(XPM_DOUBLE, schedule=[[0.0, 9.0, 8.0], [9.0, 20.0, -8.0]]),
         2, "config error at 'schedule': schedule has no eta = 0 hold"),
        (dict(XPM_DOUBLE, schedule=[[0.0, 8.0, 8.0], [8.0, 12.0, 0.0],
                                    [12.0, 20.0, 8.0]]),
         2, "config error at 'schedule': schedule has no recall sign flip"),
        (dict(XPM_DOUBLE, probe={"peak_amplitude": 1.0, "center_time": 6.5,
                                 "duration": 0.5}),
         2, "config error at 'schedule': probe must precede the signal"),
        ({"experiment": "sweep",
          "sweep": {"path": "gate.t_gate", "values": [15, -1]},
          "base": {"experiment": "tomography", "gate": {"t_gate": 15.0}}},
         2, "config error at 'base.gate': t_gate must be positive and finite, "
            "got -1.0 (sweep value -1.0)"),
        ([{"experiment": "gate"}, {"experiment": "tomography"}],
         2, "config error at '<file>': expected a mapping, got list"),
        (15.0, 2, "config error at '<file>': expected a mapping, got float"),
        (dict(STORAGE_CONFIG, units={"gamma": 5.0}),
         2, "config error at 'units.gamma': read only with system: lab"),
        (dict(STORAGE_CONFIG, units={"system": "gamma", "gamma": 5.0}),
         2, "config error at 'units.gamma': read only with system: lab"),
        ({"experiment": "xpm-free", "xpm_free": {"omega_s": [], "tau": 1.0}},
         2, "config error at 'xpm_free.omega_s': need at least 1 entries, "
            "got 0"),
        (dict(STORAGE_CONFIG, grid={"nz": 2 ** 24, "nt": 64, "t_max": 20.0}),
         2, "config error at 'grid': the march's stage tables and buffers "
            "need"),
        (dict(STORAGE_CONFIG, grid={"nz": 16, "nt": 2 ** 24, "t_max": 20.0}),
         2, "config error at 'grid': the march's stage tables and buffers "
            "need"),
        ({"experiment": "gate",
          "gate": {"stored_signal_coupling": 1, "n_samples": 2}},
         2, "config error at 'gate.stored_signal_coupling': expected a "
            "boolean, got 1"),
        ({"experiment": "xpm-free", "xpm_free": {"omega_s": 1.0, "tau": 1.0}},
         2, "config error at 'xpm_free.omega_s': expected a list of numbers, "
            "got 1.0"),
        (dict(STORAGE_CONFIG, schedule=5),
         2, "config error at 'schedule': expected a non-empty list of "
            "[start, end, eta] rows"),
        (dict(STORAGE_CONFIG, schedule=[[0.0, 9.0], [9.0, 20.0, -8.0]]),
         2, "config error at 'schedule[0]': expected [start, end, eta], got "
            "[0.0, 9.0]"),
        ({"experiment": "sweep",
          "sweep": {"path": "probe.peak_amplitude", "values": [1.0]}},
         2, "config error at 'base': sweeps need a base experiment config"),
        ({"experiment": "sweep",
          "sweep": {"path": "sweep.values", "values": [1.0]},
          "base": {"experiment": "sweep",
                   "sweep": {"path": "probe.peak_amplitude", "values": [1.0]},
                   "base": STORAGE_CONFIG}},
         2, "config error at 'base.experiment': nested sweeps are not "
            "supported"),
        ({k: v for k, v in XPM_DOUBLE.items() if k != "signal"},
         2, "config error at 'signal': required for xpm-double experiments"),
        (dict(STORAGE_CONFIG, units={"system": "lab", "gamma": 2.0},
              ensemble={"gamma": 5.0}),
         2, "config error at 'ensemble.gamma': unknown key"),
        ({"experiment": "gate", "units": {"system": "lab", "gamma": 2.0},
          "gate": {"gamma": 5.0, "n_samples": 2}},
         2, "config error at 'gate.gamma': unknown key"),
        # every gate key is type-checked before GateParams' value checks
        ({"experiment": "gate", "gate": {"OmegaC": -1.0, "t_end": "x"}},
         2, "config error at 'gate.t_end': expected a number, got 'x'"),
        ({"experiment": "sweep",
          "sweep": {"path": "ensemble.delta4",
                    "values": [20.0, 30.0, 40.0, 50.0, 60.0]},
          "base": get_preset("storage_baseline")},
         2, "config error at 'base.ensemble.delta4': sweep axis path "
            "'ensemble.delta4' not found"),
        ({"experiment": "sweep",
          "sweep": {"path": "ensemble.delta4",
                    "values": [20.0, 30.0, 40.0, 50.0, 60.0]},
          "base": dict(get_preset("storage_baseline"), ensemble=dict(
              get_preset("storage_baseline")["ensemble"], delta4=40.0))},
         2, "config error at 'base.ensemble.delta4': unknown key"),
        # a hold past t_max, and one from t = 0, left the probe's coupling
        # switch a reversed or empty segment
        (dict(get_preset("fig3b_double"),
              schedule=[[0.0, 11.0, 2 * math.pi], [11.0, 21.0, 0.0],
                        [21.0, 80.0, -2 * math.pi]],
              grid={"nz": 32, "nt": 2048, "t_max": 20.0}),
         2, "config error at 'schedule': hold [11.0, 21.0] must lie inside "
            "(0, t_max = 20.0)"),
        (dict(get_preset("fig3b_double"),
              probe={"peak_amplitude": 1.0, "center_time": -4.0,
                     "duration": 2.0},
              signal={"peak_amplitude": 1.0, "center_time": -2.0,
                      "duration": 1.0},
              schedule=[[-10.0, 0.0, 2 * math.pi], [0.0, 10.0, 0.0],
                        [10.0, 20.0, -2 * math.pi]],
              grid={"nz": 32, "nt": 2048, "t_max": 20.0}),
         2, "config error at 'schedule': hold [0.0, 10.0] must lie inside "
            "(0, t_max = 20.0)"),
        # the recall is t_max when the flip lies past it, so a probe
        # entering after t_max is refused; a sweep ran it, recalling nothing
        ({"experiment": "sweep",
          "sweep": {"path": "probe.peak_amplitude", "values": [0.5, 1.0]},
          "base": dict(STORAGE_CONFIG,
                       probe={"peak_amplitude": 1.0, "center_time": 19.0,
                              "duration": 1.0},
                       schedule=[[0.0, 30.0, 8.0], [30.0, 40.0, -8.0]],
                       grid={"nz": 32, "nt": 512, "t_max": 20.0})},
         2, "config error at 'base.schedule': probe pulse must substantially "
            "enter between t = 0 and the recall (center 19.0 + 2*duration "
            "1.0 outside [0, 20.0])"),
        # |E|^2 of a probe this strong overflowed in the run's energies and
        # echo phase: inf energies and a NaN efficiency, or NaN phases
        (dict(STORAGE_CONFIG, probe=dict(STORAGE_CONFIG["probe"],
                                         peak_amplitude=1.0e+300)),
         2, "config error at 'probe.peak_amplitude': 1e+300 is above "
            "3.12e+144"),
        (dict(XPM_DOUBLE, probe=dict(XPM_DOUBLE["probe"],
                                     peak_amplitude=1.0e+300)),
         2, "config error at 'probe.peak_amplitude': 1e+300 is above "
            "3.12e+144"),
        # gamma^2 + delta4^2 underflows to 0: the light shift's limit,
        # c_loss = inf, wipes the held probe out
        (dict(XPM_DOUBLE, ensemble=dict(XPM_DOUBLE["ensemble"],
                                        gamma=1.0e-310, delta4=0.0)),
         3, "NumericalError: the signal's fluence over the hold, or its "
            "factor, is beyond float range"),
        # gamma^2 + delta3^2 underflows to 0 with both nonzero: the light
        # shift's limit, c_shift = inf, wrote phi inf (NaN at Omega_s = 0)
        (dict(XPM_FREE, ensemble={"gamma": 1.0e-310, "delta3": 1.0e-310},
              xpm_free={"omega_s": [0.0, 1.0, 2.0], "tau": 1.0}),
         3, "NumericalError: the phase of Omega_s 0 over tau 1 at the light "
            "shift c_shift inf (gamma 1e-310, delta3 1e-310) is beyond "
            "float range"),
    ], ids=["gate_t_end_negative", "tomography_t_gate_negative",
            "sweep_t_gate_negative", "gate_gamma_nan", "gate_t_end_nan",
            "gate_g_inf", "xpm_free_tau_nan", "integer_beyond_float",
            "tomography_t_gate_huge", "tomography_OmegaC_huge",
            "ensemble_N_removed", "gate_bandwidth_removed",
            "pooled_sweep_t_gate_negative", "pooled_sweep_unstable",
            "sweep_nt_fractional", "gate_n_samples_over_budget",
            "storage_targets", "xpm_double_targets", "xpm_free_targets",
            "sweep_targets", "gate_process_fidelity_target",
            "storage_gate_sections", "gate_storage_sections",
            "xpm_double_signal_detuning", "signal_detuning_without_signal",
            "tomography_n_samples", "gate_t_gate", "sweep_units",
            "tomography_base_ensemble_axis", "tomography_renormalize_none",
            "xpm_double_no_hold", "xpm_double_no_recall",
            "xpm_double_probe_after_signal", "sweep_second_value_bad",
            "top_level_list", "top_level_scalar", "units_gamma_no_system",
            "units_gamma_in_gamma_units", "xpm_free_omega_s_empty",
            "grid_nz_oversized", "grid_nt_oversized",
            "gate_stored_signal_coupling_int", "xpm_free_omega_s_scalar",
            "schedule_scalar", "schedule_row_two_entries", "sweep_no_base",
            "sweep_nested", "xpm_double_no_signal", "lab_ensemble_gamma",
            "lab_gate_gamma", "gate_types_before_values",
            "storage_sweep_delta4_absent",
            "storage_sweep_delta4_set", "xpm_double_hold_past_t_max",
            "xpm_double_hold_from_zero", "storage_sweep_probe_after_t_max",
            "storage_probe_beyond_float_range",
            "xpm_double_probe_beyond_float_range",
            "xpm_double_light_shift_underflow",
            "xpm_free_light_shift_underflow"])
    def test_refused_without_traceback(self, tmp_path, capsys, cfg, code,
                                       message):
        # each ended in a traceback or exited 0 with NaN results, and the
        # removed keys and a units.gamma outside lab units were accepted
        # without changing any output; a sweep of two or more groups runs
        # them in a two-process pool, whose errors must reach the parent
        # intact.  '<file>' in a message stands for the config file's path
        path = write_yaml(tmp_path, cfg)
        assert main(["simulate", path, "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == code
        err = capsys.readouterr().err
        assert message.replace("<file>", path) in err
        assert "Traceback" not in err

    def test_flip_past_window_end_recalls_nothing(self, tmp_path, capsys):
        # the recall is the flip clamped to t_max, so a flip at t = 100 on
        # [0, 20] leaves the echo window empty; the Fourier residual's row
        # lay past the grid, a KeyError
        cfg = dict(get_preset("storage_baseline"),
                   probe={"peak_amplitude": 1.0, "center_time": 3.0,
                          "duration": 1.0},
                   schedule=[[0.0, 100.0, 8.0], [100.0, 200.0, -8.0]],
                   grid={"nz": 32, "nt": 512, "t_max": 20.0})
        out = tmp_path / "out"
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        results = json.loads((out / "storage_baseline.summary.json")
                             .read_text())["results"]
        assert results["echo_phase_rad"] == "nan"
        assert results["efficiency"] == 0.0
        assert results["fourier_residual_time"] <= 20.0
        assert results["flip_time"] == 100.0

    @pytest.mark.parametrize("base, key", [
        (STORAGE_CONFIG, "delta4"), (STORAGE_CONFIG, "DeltaPrime"),
        (STORAGE_CONFIG, "OmegaCPrime"), (XPM_DOUBLE, "delta3"),
        (XPM_FREE, "OmegaC"),
        *((b, k) for b in (STORAGE_CONFIG, XPM_DOUBLE, XPM_FREE)
          for k in ("g", "calN", "L"))],
        ids=["storage_delta4", "storage_DeltaPrime", "storage_OmegaCPrime",
             "xpm_double_delta3", "xpm_free_OmegaC",
             *(f"{b}_{k}" for b in ("storage", "xpm_double", "xpm_free")
               for k in ("g", "calN", "L"))])
    def test_ensemble_key_the_kind_does_not_read_refused(self, tmp_path,
                                                         capsys, base, key):
        # each ran at the field's default, or g and calN, now the one key
        # coupling_density, set the same number twice; the cell length is
        # grid.L, never an ensemble key
        cfg = dict(base, ensemble={**base.get("ensemble", {}), key: 1.0})
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error at 'ensemble.{key}': unknown key" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unread_table_names_fields(self):
        # a misspelt entry would leave the field it meant settable
        for kind, sections in UNREAD.items():
            assert set(sections) <= set(SECTIONS[kind])
            for section, unread in sections.items():
                cls = EnsembleParams if section == "ensemble" else GateRunSpec
                assert set(unread) < set(cls.__dataclass_fields__), kind

    def test_lab_units_gate_defaults(self):
        # an omitted time is GateRunSpec's default in gamma-units, not
        # the default read as microseconds
        cfg = parse_config({"experiment": "tomography",
                            "units": {"system": "lab", "gamma": 2.0},
                            "gate": {"OmegaC": 40.0}})
        assert cfg.gate.t_gate == cfg.gate.t_end == 15.0
        assert cfg.gate.OmegaC == 20.0
        assert cfg.gate.gamma == 1.0

    @pytest.mark.parametrize("key", ["g13", "g24", "g1p3p"])
    def test_derived_gate_coupling_refused(self, tmp_path, capsys, key):
        # the couplings derive from g, N and stored_signal_coupling
        assert main(["simulate", write_yaml(tmp_path, {
            "experiment": "gate", "gate": {key: 1.0, "n_samples": 2}}),
            "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error at 'gate.{key}': unknown key" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, run_keys, sha", [
        ("fig4a_gate", {"t_end": 15.0, "n_samples": 151},
         "500b70c10b1e3012f2f2c7ceec27517a6ee1ec03737b1112f60021bea455db1a"),
        ("fig4b_tomo", {"t_gate": 15.0},
         "00a946a7cc569372881be9f59622fdc5108822eaab56caf7d7d3d50636cd74d7")])
    def test_gate_echo_and_hash_stable(self, name, run_keys, sha):
        # one flat gate mapping: the GateParams fields, then the run's
        # keys, in field order; the hash is that of the summaries so far
        cfg = parse_config(get_preset(name), default_name=name)
        assert cfg.gate.stored_signal_coupling is True
        resolved = config_to_dict(cfg)
        assert list(resolved["gate"].items()) == [
            ("gamma", 1.0), ("OmegaC", 20.0), ("OmegaCPrime", 20.0),
            ("Delta", 600.0), ("DeltaPrime", 600.0), ("delta4", 20.0),
            ("g", 0.085), ("N", 1.0e7), ("stored_signal_coupling", True),
            *run_keys.items()]
        assert config_hash(resolved) == sha
        assert parse_config(resolved) == cfg

    def test_lab_units_require_gamma(self):
        cfg = dict(STORAGE_CONFIG, units={"system": "lab"})
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(cfg)

    def test_lab_units_exact_scaling(self):
        # gamma = 2 rad/us: rates halve, times double
        lab = {
            "experiment": "storage",
            "name": "lab",
            "units": {"system": "lab", "gamma": 2.0},
            "ensemble": {"Delta": 80.0, "OmegaC": 16.0,
                         "coupling_density": 500.0},
            "probe": {"peak_amplitude": 2.0, "center_time": 1.5,
                      "duration": 0.5},
            "schedule": [[0.0, 4.5, 16.0], [4.5, 10.0, -16.0]],
            "grid": {"nz": 96, "nt": 2048, "t_max": 10.0},
        }
        cfg = parse_config(lab)
        assert cfg.ensemble.gamma == 1.0
        assert cfg.ensemble.Delta == 40.0
        assert cfg.ensemble.OmegaC == 8.0
        assert cfg.ensemble.coupling_density == 250.0
        assert cfg.probe.peak_amplitude == 1.0
        assert cfg.probe.center_time == 3.0
        assert cfg.schedule.segments == ((0.0, 9.0, 8.0), (9.0, 20.0, -8.0))
        assert cfg.grid.t_max == 20.0


class TestRoundTrip:
    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_roundtrip(self, preset):
        cfg = parse_config(get_preset(preset), default_name=preset)
        echoed = config_to_dict(cfg)
        again = parse_config(echoed, default_name=preset)
        assert again == cfg

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_echoes_only_what_its_kind_reads(self, preset):
        # a gate trace reads no t_gate, tomography no t_end or n_samples,
        # and neither reads an ensemble
        other_gate_kind = {"gate": {"t_gate"},
                           "tomography": {"t_end", "n_samples"}}
        cfg = parse_config(get_preset(preset), default_name=preset)
        echoed = config_to_dict(cfg)
        assert set(echoed) <= {"experiment", "name", *SECTIONS[cfg.kind]}
        assert not set(echoed.get("gate", {})) & other_gate_kind.get(
            cfg.kind, set())

    @pytest.mark.parametrize("preset, keys", [
        ("storage_baseline", {"gamma", "gamma0", "coupling_density",
                              "Delta", "delta3", "OmegaC"}),
        ("fig2a_theory", {"gamma", "delta3"}),
        ("fig3b_double", {"gamma", "gamma0", "coupling_density",
                          "Delta", "DeltaPrime", "delta4", "OmegaC",
                          "OmegaCPrime"})])
    def test_ensemble_echo_holds_the_kinds_keys(self, preset, keys):
        # storage signals are detuned by delta3, a stored pair's by delta4,
        # and the closed-form xpm-free phase reads gamma and delta3 alone
        cfg = parse_config(get_preset(preset), default_name=preset)
        assert set(config_to_dict(cfg)["ensemble"]) == keys

    @pytest.mark.parametrize("cfg", [
        STORAGE_CONFIG, XPM_DOUBLE, XPM_FREE,
        {"experiment": "tomography", "gate": {"OmegaC": 40.0}}],
        ids=["storage", "xpm_double", "xpm_free", "tomography"])
    def test_lab_units_roundtrip(self, cfg):
        # the echo is in gamma-units, where gamma is a key again
        cfg = parse_config(dict(cfg, units={"system": "lab", "gamma": 2.0}))
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_storage_roundtrip(self):
        cfg = parse_config(STORAGE_CONFIG)
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_grid_length_is_a_grid_key(self):
        # L lives on the grid alone: default 1, echoed, and read back
        cfg = parse_config(STORAGE_CONFIG)
        assert cfg.grid.L == 1.0 and "L" not in config_to_dict(cfg)["ensemble"]
        long = parse_config(dict(STORAGE_CONFIG,
                                 grid=dict(STORAGE_CONFIG["grid"], L=2.0)))
        assert config_to_dict(long)["grid"]["L"] == 2.0
        assert long.grid.dz == 2.0 * cfg.grid.dz
        assert parse_config(config_to_dict(long)) == long

    def test_lab_unit_sweep_echoes_resolved(self, tmp_path):
        # a sweep echoes its base as its first point, resolved, and its
        # values in gamma-units, so a lab-unit sweep round-trips and
        # echoes, hashes and tabulates as the gamma-unit sweep of the same
        # points
        def sweep(base, values):
            return parse_config({
                "experiment": "sweep", "name": "taus",
                "sweep": {"path": "xpm_free.tau", "values": values},
                "base": {"experiment": "xpm-free", **base}})

        lab = sweep({"units": {"system": "lab", "gamma": 2.0},
                     "xpm_free": {"omega_s": [1.0], "tau": 1.0}}, [1.0, 3.0])
        gamma = sweep({"xpm_free": {"omega_s": [0.5], "tau": 2.0}},
                      [2.0, 6.0])
        echo = config_to_dict(lab)
        assert "units" not in echo["base"]
        assert echo["sweep"]["values"] == [2.0, 6.0]
        assert parse_config(echo) == lab
        assert lab.points == gamma.points
        assert config_hash(echo) == config_hash(config_to_dict(gamma))
        run_config(lab, tmp_path / "lab")
        run_config(gamma, tmp_path / "gamma")
        assert csv_body(tmp_path / "lab" / "taus.csv") == \
            csv_body(tmp_path / "gamma" / "taus.csv")


class TestRunStorage:
    def test_run_writes_outputs(self, tmp_path):
        code = main(["simulate", write_yaml(tmp_path, STORAGE_CONFIG),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        csv = tmp_path / "out" / "small_storage.csv"
        summary = tmp_path / "out" / "small_storage.summary.json"
        assert csv.exists() and summary.exists()
        payload = json.loads(summary.read_text())
        assert payload["results"]["efficiency"] > 0.8
        assert payload["provenance"]["config_sha256"]
        # summary echo parses back to the same config
        echoed = parse_config(payload["config"])
        assert echoed == parse_config(STORAGE_CONFIG)

    def test_determinism_byte_identical_bodies(self, tmp_path):
        cfg = write_yaml(tmp_path, STORAGE_CONFIG)
        assert main(["simulate", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", cfg, "--out", str(tmp_path / "b")]) == 0
        body_a = csv_body(tmp_path / "a" / "small_storage.csv")
        body_b = csv_body(tmp_path / "b" / "small_storage.csv")
        assert body_a == body_b

    def test_oversized_grid_refused_without_traceback(self, tmp_path):
        # 2**24 rows of 2**24 samples: refused by the bound on the march's
        # stage tables and buffers at parse time, before any array exists
        cfg = dict(STORAGE_CONFIG,
                   grid={"nz": 16777216, "nt": 16777216, "t_max": 20.0})
        proc = run_python("-m", "gemxpm.cli", "simulate",
                          write_yaml(tmp_path, cfg),
                          "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "config error at 'grid'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("path", [
        "simulate", "sweep", "xpm_double", "fig3b_double", "fig2a_theory",
        "fig4a_gate", "fig4b_tomo", "tomography_sweep"])
    def test_storage_run_imports_no_scipy(self, tmp_path, path):
        # a driven storage run, a storage sweep (fig2b_spm, one batched
        # march through storage_batch), an xpm-double run and preset (their
        # quadrature phase included), the xpm-free preset, both gate
        # presets and a tomography sweep over the gate time
        configs = {"simulate": dict(STORAGE_CONFIG, signal=SIGNAL),
                   "xpm_double": XPM_DOUBLE,
                   "tomography_sweep": {
                       "experiment": "sweep",
                       "sweep": {"path": "gate.t_gate", "values": [1.0, 2.0]},
                       "base": {"experiment": "tomography",
                                "gate": dict(SMALL_GATE, t_gate=2.0)}}}
        argv = (["simulate", write_yaml(tmp_path, configs[path])]
                if path in configs else
                ["presets", "run", "fig2b_spm" if path == "sweep" else path])
        argv += ["--out", str(tmp_path / "out")]
        code = ("import sys\n"
                "from gemxpm.cli import main\n"
                f"rc = main({argv!r})\n"
                "print('scipy' in sys.modules)\n"
                "sys.exit(rc)\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_gate_preset_runs_with_scipy_blocked(self, tmp_path):
        # with scipy made unimportable, any import of it, however late or
        # lazy, fails the run instead of passing unseen
        argv = ["presets", "run", "fig4a_gate", "--out", str(tmp_path)]
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from gemxpm.cli import main\n"
                f"sys.exit(main({argv!r}))\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).resolve().parent.parent / "golden"
        assert csv_body(tmp_path / "fig4a_gate.csv") == (
            golden / "fig4a_gate.csv").read_text(encoding="utf-8")

    def test_xpm_phase_from_batched_reference(self):
        # the signal-free reference marched beside the driven run gives
        # the same echo phase, bit for bit, as a separate run
        cfg = parse_config(dict(STORAGE_CONFIG, signal=SIGNAL))
        _table, results, *_ = _run_storage(cfg)
        args = (cfg.ensemble, cfg.probe, cfg.schedule, cfg.grid)
        driven = propagate(*args, stark=apply_stark_drive(
            cfg.signal, cfg.ensemble, detuning=cfg.ensemble.delta3))
        reference = propagate(*args)
        assert results["echo_phase_rad"] == driven.echo_phase
        assert results["xpm_phase_rad"] == (reference.echo_phase
                                            - driven.echo_phase)
        assert results["xpm_phase_rad"] > 1e-4

    def test_numerical_failure_exit_3(self, tmp_path):
        bad = dict(STORAGE_CONFIG,
                   schedule=[[0.0, 9.0, 500.0], [9.0, 20.0, -500.0]],
                   grid={"nz": 32, "nt": 64, "t_max": 20.0})
        code = main(["simulate", write_yaml(tmp_path, bad),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("cfg, where", [
        # Omega_s ** 2 in phi_free_signal
        ({"experiment": "xpm-free", "name": "huge_omega",
          "xpm_free": {"omega_s": [1.0e+200], "tau": 1.0}},
         "xpm-free config 'huge_omega'"),
        # peak_amplitude ** 2 in apply_stark_drive
        (dict(STORAGE_CONFIG, signal=dict(SIGNAL, peak_amplitude=1.0e+200)),
         "storage config 'small_storage'"),
        # the same, in one group of a sweep: the line names its points
        ({"experiment": "sweep", "name": "huge_signal",
          "sweep": {"path": "signal.peak_amplitude",
                    "values": [0.5, 1.0e+200]},
          "base": dict(STORAGE_CONFIG, signal=SIGNAL)},
         "sweep config 'huge_signal' at signal.peak_amplitude in "
         "[0.5, 1e+200]"),
    ], ids=["xpm_free", "storage_signal", "storage_sweep"])
    def test_overflow_exit_3(self, tmp_path, capsys, cfg, where):
        code = main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"error: {where}: OverflowError" in err
        assert "Traceback" not in err

    def test_free_phase_of_underflowed_light_shift_is_zero(self, tmp_path,
                                                           capsys):
        # gamma^2 + delta3^2 underflows to 0: the light shift's limit,
        # c_shift = 0, imprints no phase (a ValueError traceback before)
        cfg = dict(XPM_FREE, name="underflow",
                   ensemble={"gamma": 1.0e-310, "delta3": 0.0})
        out = tmp_path / "out"
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        results = json.loads((out / "underflow.summary.json")
                             .read_text())["results"]
        assert results["phi_max_rad"] == 0.0

    def test_drive_rate_leaves_step_check(self, tmp_path):
        # a signal whose Stark rate, 0.0025*200^2 = 100 per unit time, is
        # above 1/dt = 102.35 less the undriven rate 5.59: applied by its
        # factor, it adds no stiffness, so the run's step limit is the
        # undriven one and it runs.  Its phase is the rectangular-drive
        # formula Omega_s^2*delta*tau / (gamma^2 + delta^2), with tau =
        # duration*sqrt(pi/2) the Gaussian intensity's width, to 1e-3 of
        # it after unwrapping
        signal = {"peak_amplitude": 200.0, "center_time": 7.0,
                  "duration": 0.5}
        cfg = dict(STORAGE_CONFIG, signal=signal)
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "small_storage.summary.json")
                             .read_text(encoding="utf-8"))["results"]
        delta, gamma = 400.0, 1.0
        expected = (200.0 ** 2 * delta * 0.5 * math.sqrt(math.pi / 2.0)
                    / (gamma ** 2 + delta ** 2))
        turns = round((expected - results["xpm_phase_rad"]) / (2 * math.pi))
        assert results["xpm_phase_rad"] + 2 * math.pi * turns == \
            pytest.approx(expected, rel=1e-3)
        undriven = 4.0 + 250.0 * 0.2 ** 2 / (2 * math.pi)   # eta*L/2, exchange
        assert results["dt_over_limit"] == pytest.approx(
            20.0 / 2047 * undriven, rel=1e-12)

    @pytest.mark.parametrize("signal, ensemble, other", [
        # c_loss*F = 6.2e-6 * 1e304 * 1.25
        ({"peak_amplitude": 1.0e+152, "center_time": 6.0, "duration": 1.0},
         {}, {}),
        # on resonance, c_loss*F = 100 * 6 * 1.25 = 752, although its rate
        # 100 is within the step limit 1/dt = 204.75 less 5.59
        ({"peak_amplitude": 10.0, "center_time": 6.0, "duration": 6.0},
         {"delta3": 0.0}, {}),
        # on resonance, c_loss*F = 42^2 * 0.3 * 1.25 = 663 keeps 1/Phi
        # within MAX_DRIVEN_INPUT (exp(665.4)), but the probe of peak 1000
        # after the signal makes the driven input E(0, t)/Phi(t)
        # 1000*exp(663), beyond it
        ({"peak_amplitude": 42.0, "center_time": 1.0, "duration": 0.3},
         {"delta3": 0.0},
         {"probe": {"peak_amplitude": 1000.0, "center_time": 3.0,
                    "duration": 1.0},
          "grid": {"nz": 32, "nt": 2048, "t_max": 20.0}}),
        # gamma^2 + delta3^2 underflows to 0: the light shift's limit,
        # c_loss = inf, makes 1/Phi inf wherever the fluence is positive
        (SIGNAL, {"gamma": 1.0e-310, "delta3": 0.0}, {}),
    ], ids=["huge_signal", "long_resonant_signal", "driven_input",
            "light_shift_underflow"])
    def test_drive_beyond_float_range_refused(self, tmp_path, capsys,
                                              monkeypatch, signal, ensemble,
                                              other):
        # 1/Phi = exp(c_loss*F) or the march's input E(0, t)/Phi(t) beyond
        # float range: refused with exit 3 before any march, naming the
        # drive, with no warning raised
        cfg = {**STORAGE_CONFIG, "signal": signal,
               "ensemble": dict(STORAGE_CONFIG["ensemble"], **ensemble),
               "grid": dict(STORAGE_CONFIG["grid"], nt=4096), **other}
        sizes = record_march_sizes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", write_yaml(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and sizes == []
        assert ("error: storage config 'small_storage': OverflowError: "
                "Stark drive (c_shift") in err
        assert "beyond float range" in err and "Traceback" not in err


class TestRecordBudget:
    @pytest.mark.parametrize("preset, mib", [
        ("fig3b_double", 32), ("storage_baseline", 16)])
    def test_peak_below_one_record(self, tmp_path, preset, mib):
        # the march hands sigma and E out a block at a time, so a run at
        # its shipped grid peaks below one (nt, nz) complex record (its
        # runs kept whole records peaked at 130.5 and 25.9 MiB)
        cfg = parse_config(get_preset(preset), default_name=preset)
        assert 16 * cfg.grid.nt * cfg.grid.nz == mib << 20
        tracemalloc.start()
        try:
            run_config(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib << 20


class TestMarchTelemetry:
    @pytest.mark.parametrize("preset, dt_over_limit", [
        ("storage_baseline", 0.027309154729762898),
        ("fig3b_double", 0.01965716406706109)],
        ids=["storage_baseline", "fig3b_double"])
    def test_summary_records_steps_and_dt_headroom(self, tmp_path, preset,
                                                   dt_over_limit):
        # the step count and dt over the stability limit reach the summary
        # only.  Neither dt nor the limit depends on nz, so a coarse z grid
        # reports the preset's own headroom, bit for bit.
        assert preset in preset_names()
        raw = get_preset(preset)
        raw["grid"]["nz"] = 16
        cfg = parse_config(raw, default_name=preset)
        results = json.loads(
            run_config(cfg, tmp_path)["summary"].read_text())["results"]
        assert results["march_steps"] == cfg.grid.nt - 1
        assert results["dt_over_limit"] == dt_over_limit

    def test_every_members_exchange_bounds_the_step(self, tmp_path, capsys,
                                                    monkeypatch):
        # fig3b_double with the probe ratio OmegaC/Delta = 8/-40 = -0.2
        # against the signal's 0.05: the probe's exchange
        # 4000*0.2^2*L/2pi enters the limit, where a signed maximum of the
        # two ratios took the signal's 0.05
        raw = get_preset("fig3b_double")
        raw["ensemble"]["Delta"] = -40.0
        raw["grid"]["nz"] = 16
        cfg = parse_config(raw, default_name="fig3b_double")
        results = json.loads(
            run_config(cfg, tmp_path)["summary"].read_text())["results"]
        rate = (1.0 * (8.0 / 160.0) ** 2 + 2.0 * math.pi * 1.0 / 2.0
                + 4000.0 * (8.0 / -40.0) ** 2 * 1.0 / (2.0 * math.pi))
        assert results["dt_over_limit"] == pytest.approx(
            cfg.grid.dt * rate, rel=1e-12)
        # a grid the signal's exchange alone allows: refused before any
        # march
        raw["grid"]["nt"] = 512
        sizes = record_march_sizes(monkeypatch)
        assert main(["simulate", write_yaml(tmp_path, raw),
                     "--out", str(tmp_path / "coarse")]) == 3
        err = capsys.readouterr().err
        assert sizes == [] and "Traceback" not in err
        assert ("error: xpm-double config 'fig3b_double': StabilityError: "
                "time step dt=6.654e-02 exceeds") in err


class TestGateTelemetry:
    @pytest.mark.parametrize("preset", [
        n for n in preset_names() if get_preset(n)["experiment"] == "gate"])
    def test_summary_records_trace_drift_and_min_eigenvalue(self, tmp_path,
                                                            preset):
        # the trajectory's health reaches the summary only: the CSV body
        # stays the golden's, byte for byte
        cfg = parse_config(get_preset(preset), default_name=preset)
        paths = run_config(cfg, tmp_path)
        results = json.loads(paths["summary"].read_text())["results"]
        assert 0.0 <= results["max_trace_drift"] <= 1e-6
        assert -1e-8 <= results["final_min_eigenvalue"] <= 1.0
        golden = Path(__file__).resolve().parent.parent / "golden"
        assert csv_body(paths["csv"]) == (
            golden / f"{preset}.csv").read_text(encoding="utf-8")


    @pytest.mark.parametrize("preset, squarings", [
        ("fig4a_gate", 5), ("fig4b_tomo", 12)])
    def test_summary_records_propagator_blocks(self, tmp_path, preset,
                                               squarings):
        # L's 149 blocks, the 12 the initial state reaches, the widest of
        # those (42) and the most squarings one took reach the summary
        # only: the CSV body stays the golden's, byte for byte
        cfg = parse_config(get_preset(preset), default_name=preset)
        paths = run_config(cfg, tmp_path)
        results = json.loads(paths["summary"].read_text())["results"]
        assert {k: results[k] for k in (
            "liouvillian_blocks", "reached_blocks", "widest_reached_block",
            "max_squarings")} == {
            "liouvillian_blocks": 149, "reached_blocks": 12,
            "widest_reached_block": 42, "max_squarings": squarings}
        golden = Path(__file__).resolve().parent.parent / "golden"
        assert csv_body(paths["csv"]) == (
            golden / f"{preset}.csv").read_text(encoding="utf-8")


class TestRecordDiagnostics:
    @pytest.mark.parametrize("preset, pinned", [
        ("storage_baseline", {"fourier_residual": 0.028574305592486953,
                              "excitation_balance_residual":
                                  0.00012103411819211577,
                              "kdrift_max_dev_bins": 0.8123898905723551}),
        ("fig3b_double", {"quadrature_phase_rad": 0.0041862825813943835,
                          "loss_factor": 0.9998953502527481,
                          "xpm_phase_rad": 0.0039621574026020845}),
    ])
    def test_record_diagnostics_pinned(self, preset, pinned):
        # scalars read off the sigma records and the field rebuilt from
        # them, pinned bit for bit to the runs that stored E beside sigma;
        # the quadrature phase to its weighted mean of the hold's fluence
        # (0.00419859528646225 when cli integrated the hold again)
        raw = get_preset(preset)
        raw["grid"].update(nz=64, nt=1024)
        cfg = parse_config(raw, default_name=preset)
        results = _RUNNERS[cfg.kind](cfg)[1]
        assert {k: results[k] for k in pinned} == pinned


class TestSweep:
    @pytest.mark.parametrize("base, path, value, columns", [
        (STORAGE_CONFIG, "probe.peak_amplitude", 1.0,
         "peak_amplitude[gamma],efficiency[1],echo_phase[rad],"
         "xpm_phase[rad]"),
        ({"experiment": "xpm-free",
          "xpm_free": {"omega_s": [0.5, 1.0], "tau": 1.0}},
         "xpm_free.tau", 2.0, "tau[1/gamma],phi_max[rad]"),
        (XPM_DOUBLE, "signal.peak_amplitude", 0.25,
         "peak_amplitude[gamma],xpm_phase[rad],loss_factor[1],"
         "probe_efficiency[1]"),
        ({"experiment": "gate",
          "gate": dict(SMALL_GATE, t_end=2.0, n_samples=2)},
         "gate.t_end", 1.0, "t_end[1/gamma],phi_end[rad],fidelity_end[1]"),
        ({"experiment": "tomography", "gate": dict(SMALL_GATE, t_gate=2.0)},
         "gate.t_gate", 1.0,
         "t_gate[1/gamma],best_fidelity[1],conditional_phase[rad]"),
    ], ids=["storage", "xpm-free", "xpm-double", "gate", "tomography"])
    def test_single_point_equals_single_run(self, tmp_path, base, path,
                                            value, columns):
        # a sweep row is the point's own results at its SWEPT keys, bit
        # for bit, under the axis in its key's unit and the columns the
        # point kind has always had; a marching point's summary entry
        # carries the run's march telemetry beside them
        sweep_cfg = {"experiment": "sweep", "name": "one_point",
                     "sweep": {"path": path, "values": [value]},
                     "base": base}
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path)]) == 0
        header, row = csv_body(tmp_path / "one_point.csv").split()
        assert header == columns
        single = parse_config(set_sweep_value(base, path, value))
        results = _RUNNERS[single.kind](single)[1]
        np.testing.assert_array_equal(
            [float(x) for x in row.split(",")],
            [value] + [results[key] for _, key, _ in SWEPT[single.kind]])
        (point,) = json.loads((tmp_path / "one_point.summary.json")
                              .read_text())["results"]["points"]
        telemetry = ({"march_steps", "dt_over_limit"}
                     if single.kind in ("storage", "xpm-double") else set())
        assert set(point) == ({"value"} | telemetry
                              | {c for c, _, _ in SWEPT[single.kind]})
        for key in telemetry:
            assert point[key] == results[key]

    def test_rows_ordered_as_given(self, tmp_path):
        sweep_cfg = {
            "experiment": "sweep",
            "name": "ordered",
            "sweep": {"path": "probe.peak_amplitude",
                      "values": [2.0, 0.5, 1.0]},
            "base": dict(STORAGE_CONFIG),
        }
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path / "out")]) == 0
        body = csv_body(tmp_path / "out" / "ordered.csv")
        rows = body.strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [2.0, 0.5, 1.0]

    def test_units_sweep_refused(self, tmp_path, capsys):
        # a gamma-unit echo cannot say which lab unit a point ran in
        cfg = {"experiment": "sweep",
               "sweep": {"path": "units.gamma", "values": [1.0, 2.0]},
               "base": {"experiment": "xpm-free",
                        "units": {"system": "lab", "gamma": 2.0},
                        "xpm_free": {"omega_s": [1.0], "tau": 1.0}}}
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error at 'sweep.path': a sweep cannot set units" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, values", [
        ("delta3", [-400.0, 40.0, 100.0, 400.0, 1000.0]),
        ("gamma0", [0.0, 0.01, 0.02, 0.05, 0.1]),
        ("OmegaC", [6.0, 7.0, 8.0, 9.0, 10.0]),
        ("coupling_density", [150.0, 200.0, 250.0, 300.0, 350.0])])
    def test_ensemble_sweep_is_one_march(self, tmp_path, monkeypatch, key,
                                         values):
        # storage points on one schedule and grid march together whatever
        # their ensembles: five driven points and their references, which
        # are one member when only the signal's detuning differs; each
        # row is its own point's propagate, byte for byte
        raw = get_preset("fig2b_spm")
        raw["sweep"] = {"path": f"ensemble.{key}", "values": values}
        cfg = parse_config(raw)
        rows = []
        for v, p in zip(values, cfg.points):
            r = propagate(p.ensemble, p.probe, p.schedule, p.grid,
                          stark=apply_stark_drive(p.signal, p.ensemble,
                                                  p.ensemble.delta3))
            rows.append([v, r.efficiency, r.echo_phase, r.xpm_phase])
        swept = SWEPT["storage"]
        expected = ResultTable([key] + [c for c, _, _ in swept],
                               ["gamma"] + [u for _, _, u in swept], rows)
        sizes = record_march_sizes(monkeypatch)
        run_config(cfg, tmp_path)
        assert sizes == [6 if key == "delta3" else 10]
        assert csv_body(tmp_path / "fig2b_spm.csv") == \
            "\n".join(expected.body_lines()) + "\n"

    @pytest.mark.parametrize("base, path, unit", [
        (XPM_FREE, "xpm_free.tau", "1/gamma"),
        (dict(XPM_FREE, ensemble={"delta3": 400.0}), "ensemble.delta3",
         "gamma"),
        ({"experiment": "gate",
          "gate": dict(SMALL_GATE, t_end=2.0, n_samples=2)},
         "gate.n_samples", "1"),
    ], ids=["time", "rate", "count"])
    def test_axis_column_in_its_keys_unit(self, tmp_path, base, path, unit):
        # the axis column is headed with the swept key's gamma-unit, the
        # unit its echoed values are in
        sweep_cfg = {"experiment": "sweep", "name": "axis",
                     "sweep": {"path": path, "values": [2, 3]}, "base": base}
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path)]) == 0
        header = csv_body(tmp_path / "axis.csv").splitlines()[0]
        assert header.split(",")[0] == f"{path.split('.')[1]}[{unit}]"

    def test_set_sweep_value_deep_copy(self):
        base = dict(STORAGE_CONFIG)
        out = set_sweep_value(base, "probe.peak_amplitude", 7.0)
        assert out["probe"]["peak_amplitude"] == 7.0
        assert base["probe"]["peak_amplitude"] == 1.0

    def test_worker_pool_matches_serial(self, tmp_path):
        # xpm-free points are served one per group, so two processes run
        sweep_cfg = {
            "experiment": "sweep",
            "name": "pooled",
            "sweep": {"path": "xpm_free.tau", "values": [1.0, 2.0, 3.0]},
            "base": {"experiment": "xpm-free",
                     "xpm_free": {"omega_s": [0.5, 1.0], "tau": 1.0}},
        }
        cfg = write_yaml(tmp_path, sweep_cfg)
        assert main(["simulate", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert main(["simulate", cfg, "--out", str(tmp_path / "pooled"),
                     "--workers", "2"]) == 0
        assert csv_body(tmp_path / "serial" / "pooled.csv") == \
            csv_body(tmp_path / "pooled" / "pooled.csv")

    @pytest.mark.parametrize("path, values, signal, unit, sizes", [
        ("probe.peak_amplitude", [0.1, 0.5, 2.0, 0.5, 10.0], None, "gamma",
         [1]),
        ("probe.peak_amplitude", [0.1, 0.5, 1.0, 2.5, 10.0], SIGNAL, "gamma",
         [2]),
        ("signal.peak_amplitude", [0.25, 0.5, 1.0], SIGNAL, "gamma", [4]),
        ("grid.nt", [512, 256], None, "1", [1, 1]),
    ], ids=["probe_undriven", "probe_driven", "signal", "grid_nt"])
    def test_storage_rows_equal_propagate(self, tmp_path, monkeypatch, path,
                                          values, signal, unit, sizes):
        # one batch per (schedule, grid), marched at nz = 32: probe
        # amplitudes march the unit probe once (driven and its reference
        # with a signal), signal amplitudes one driven member each beside
        # one reference; each row is its own point's propagate, NaN xpm
        # phase included
        base = dict(STORAGE_CONFIG, grid={"nz": 32, "nt": 512, "t_max": 20.0})
        if signal is not None:
            base["signal"] = signal
        sweep_cfg = {"experiment": "sweep", "name": "rows",
                     "sweep": {"path": path, "values": values}, "base": base}
        marched = record_march_sizes(monkeypatch)
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path)]) == 0
        assert marched == sizes
        lines = csv_body(tmp_path / "rows.csv").strip().splitlines()
        assert lines[0] == (f"{path.split('.')[-1]}[{unit}],efficiency[1],"
                            "echo_phase[rad],xpm_phase[rad]")
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        expected = []
        for v in values:
            p = parse_config(set_sweep_value(base, path, v))
            stark = None if signal is None else apply_stark_drive(
                p.signal, p.ensemble, detuning=p.ensemble.delta3)
            r = propagate(p.ensemble, p.probe, p.schedule, p.grid,
                          stark=stark)
            expected.append([v, r.efficiency, r.echo_phase, r.xpm_phase])
        np.testing.assert_array_equal(rows, expected)
        assert all(math.isnan(r[3]) for r in rows) == (signal is None)
        if path == "signal.peak_amplitude":
            # the XPM phase is linear in the signal intensity Omega_s^2
            per_intensity = np.array([r[3] / r[0] ** 2 for r in rows])
            assert np.ptp(per_intensity) < 1e-6 * np.abs(per_intensity).max()

    def test_fig2b_is_one_march(self, tmp_path, monkeypatch):
        from gemxpm import cli, gem
        calls = {"march": 0, "propagate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gem, "march", counted("march", gem.march))
        for module in (gem, cli):
            monkeypatch.setattr(module, "propagate",
                                counted("propagate", module.propagate))
        run_config(parse_config(get_preset("fig2b_spm")), tmp_path)
        assert calls == {"march": 1, "propagate": 0}

    def test_shipped_grid_sweep_marches_nz_over_16(self, tmp_path,
                                                   monkeypatch):
        # nine signal amplitudes are nine driven members and their one
        # shared reference, ten members; at the shipped storage grid (nz =
        # 256, nt = 4096) a march takes up to 4096 // nz = 16 members, so
        # the sweep is one march of all ten
        sizes = record_march_sizes(monkeypatch)
        raw = get_preset("fig2b_spm")
        raw["sweep"] = {"path": "signal.peak_amplitude",
                        "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                   0.9]}
        run_config(parse_config(raw), tmp_path)
        assert sizes == [10]

    def test_small_grid_driven_sweep_is_one_march(self, tmp_path,
                                                  monkeypatch):
        # five signal amplitudes are five driven members and their one
        # shared reference, six members; at nz = 32 a march takes up to
        # 4096 // nz = 128 members, so the sweep is one march of all six
        sizes = record_march_sizes(monkeypatch)
        cfg = parse_config({
            "experiment": "sweep", "name": "small",
            "sweep": {"path": "signal.peak_amplitude",
                      "values": [0.25, 0.5, 1.0, 1.5, 2.0]},
            "base": dict(STORAGE_CONFIG, signal=SIGNAL,
                         grid={"nz": 32, "nt": 512, "t_max": 20.0})})
        run_config(cfg, tmp_path)
        assert sizes == [6]

    def test_budget_caps_members_per_march(self, tmp_path, monkeypatch):
        # a budget that fits one exit-only member marches one at a time,
        # and every row stays what the uncapped batch gives
        from gemxpm import gem
        base = dict(STORAGE_CONFIG, signal=SIGNAL,
                    grid={"nz": 64, "nt": 256, "t_max": 20.0})
        cfg = parse_config({
            "experiment": "sweep", "name": "capped",
            "sweep": {"path": "signal.peak_amplitude",
                      "values": [0.25, 0.5, 1.0, 1.5, 2.0]},
            "base": base})
        run_config(cfg, tmp_path / "whole")
        sizes = record_march_sizes(monkeypatch)
        monkeypatch.setattr(gem, "RECORD_BUDGET_BYTES",
                            gem.member_bytes(cfg.points[0].grid))
        run_config(cfg, tmp_path / "capped")
        assert sizes == [1] * 6
        assert csv_body(tmp_path / "capped" / "capped.csv") == \
            csv_body(tmp_path / "whole" / "capped.csv")

    def test_driven_sweep_within_record_budget(self, tmp_path):
        # 79 signal amplitudes are 79 driven members and their one shared
        # reference, 80 members; marched at once they peak at about 9 MiB,
        # over the 2.5 MiB bound below, so the batch must march them a few
        # at a time
        nz, nt = 256, 128
        base = dict(STORAGE_CONFIG, signal=SIGNAL,
                    grid={"nz": nz, "nt": nt, "t_max": 20.0})
        cfg = parse_config({
            "experiment": "sweep", "name": "many",
            "sweep": {"path": "signal.peak_amplitude",
                      "values": [0.1 * (i + 1) for i in range(79)]},
            "base": base})
        tracemalloc.start()
        try:
            run_config(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    def test_sweep_batches_bound_what_it_keeps(self, tmp_path, monkeypatch):
        # a storage sweep hands storage_batch no more runs at once than fit
        # the record budget, two members' worth each, and reduces each
        # batch to its rows before the next: at two runs a batch, 24
        # points keep about what 8 do (holding every run's exit field and
        # drive factor, they kept 2.6 times as much at nz 16, nt 256), and
        # the rows are the one-batch sweep's byte for byte
        from gemxpm import cli
        base = dict(STORAGE_CONFIG, signal=SIGNAL,
                    grid={"nz": 16, "nt": 256, "t_max": 20.0})

        def sweep(n):
            return parse_config({
                "experiment": "sweep", "name": "kept",
                "sweep": {"path": "signal.peak_amplitude",
                          "values": [0.1 * (i + 1) for i in range(n)]},
                "base": base})

        run_config(sweep(24), tmp_path / "whole")
        batches, batch = [], cli.storage_batch

        def recorded(schedule, grid, runs, *args):
            batches.append(len(runs))
            return batch(schedule, grid, runs, *args)

        monkeypatch.setattr(cli, "storage_batch", recorded)
        monkeypatch.setattr(cli, "RECORD_BUDGET_BYTES",
                            4 * member_bytes(sweep(1).points[0].grid))
        peaks = []
        for n in (8, 24):
            cfg = sweep(n)
            tracemalloc.start()
            try:
                run_config(cfg, tmp_path / f"batched{n}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert batches == [2] * 16
        assert peaks[1] <= 1.1 * peaks[0]
        assert csv_body(tmp_path / "batched24" / "kept.csv") == \
            csv_body(tmp_path / "whole" / "kept.csv")

    @pytest.mark.parametrize("signal", [SIGNAL, None],
                             ids=["driven", "undriven"])
    def test_zero_probe_writes_zeros(self, tmp_path, signal):
        # a zero probe marches as it is, since a unit march scaled by 0
        # gives signed zeros, and phase_out would read -0, 0 and pi
        cfg = dict(STORAGE_CONFIG, grid={"nz": 32, "nt": 512, "t_max": 20.0},
                   probe=dict(STORAGE_CONFIG["probe"], peak_amplitude=0.0))
        if signal is not None:
            cfg["signal"] = signal
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        lines = csv_body(tmp_path / "small_storage.csv").splitlines()
        assert len(lines) == 513
        assert {ln.split(",", 1)[1] for ln in lines[1:]} == {"0,0,0"}


class TestChoiExport:
    def test_run_writes_table_and_summary_only(self, tmp_path):
        # the Choi state is the run's CSV and its diagnostics sit in
        # results.cptp
        cfg = parse_config(get_preset("fig4b_tomo"))
        paths = run_config(cfg, tmp_path)
        assert set(paths) == {"csv", "summary"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig4b_tomo.csv", "fig4b_tomo.summary.json"]
        cptp = json.loads(paths["summary"].read_text())["results"]["cptp"]
        eigs = cptp["eigenvalues"]
        assert len(eigs) == 16 and eigs == sorted(eigs, reverse=True)
        assert sum(eigs) == pytest.approx(cptp["trace"], abs=1e-12)
        chi = choi_matrix(channel_from_gate(cfg.gate, cfg.gate.t_gate))
        assert cptp["purity"] == chi.purity
        assert cptp["completely_positive"] == chi.completely_positive
        assert cptp["trace_preserving"] == chi.trace_preserving

    def test_cphase_pi_export_sign_pattern(self, tmp_path):
        # the tomography run's CSV layout: 16 real rows, then 16 imaginary
        path = choi_table(ideal_cphase_choi(math.pi)).write_csv(
            tmp_path / "chi_pi.csv")
        header, *rows = csv_body(path).strip().splitlines()
        assert header == ",".join(f"c{j}[1]" for j in range(16))
        assert len(rows) == 32
        real = np.array([[float(v) for v in r.split(",")] for r in rows[:16]])
        for i in range(4):
            for j in range(4):
                expect = 0.25 * math.cos(math.pi * ((i == 3) - (j == 3)))
                assert real[i * 4 + i, j * 4 + j] == pytest.approx(expect,
                                                                   abs=1e-12)

    def test_unwritable_path_exit_3(self, tmp_path):
        cfg = {
            "experiment": "tomography",
            "name": "t",
            "gate": {"g": 0.0, "OmegaC": 0.0, "OmegaCPrime": 0.0,
                     "Delta": 0.0, "DeltaPrime": 0.0, "delta4": 0.0,
                     "gamma": 0.0, "t_gate": 15.0},
        }
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory", encoding="utf-8")
        code = main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(target)])
        assert code == 3


class TestBlasThreads:
    @pytest.mark.parametrize("preset", ["fig4a_gate", "fig4b_tomo"])
    def test_gate_bodies_equal_across_blas_threads(self, tmp_path, preset):
        # the block exponentials run through BLAS; the CSV a gate preset
        # writes must not depend on how many threads OpenBLAS uses
        bodies = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            done = run_python("-m", "gemxpm.cli", "presets", "run", preset,
                              "--out", str(out),
                              OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            bodies.append(csv_body(out / f"{preset}.csv"))
        assert bodies[0] == bodies[1]


class TestMainEntry:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "storage_baseline" in out
        assert "fig4b_tomo" in out

    def test_presets_show(self, capsys):
        assert main(["presets", "show", "fig2a_theory"]) == 0
        shown = yaml.safe_load(capsys.readouterr().out)
        assert shown["experiment"] == "xpm-free"

    def test_presets_show_unknown(self, capsys):
        assert main(["presets", "show", "fig9z"]) == 2

    def test_presets_run_without_name(self, tmp_path, capsys):
        assert main(["presets", "run", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: preset name required" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_simulate_command(self, tmp_path):
        cfg = write_yaml(tmp_path, STORAGE_CONFIG)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_gate_targets_with_zero_light_shift_denominator(self, tmp_path,
                                                             capsys):
        # gamma = delta4 = 0: the analytic estimates are undefined, the
        # run is not
        cfg = {
            "experiment": "gate",
            "name": "g0",
            "gate": {"gamma": 0.0, "delta4": 0.0, "t_end": 1.0,
                     "n_samples": 2},
            "targets": {"phi_mrad": [0.0, 1.0]},
        }
        assert main(["simulate", write_yaml(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads(
            (tmp_path / "out" / "g0.summary.json").read_text())
        estimates = summary["target_report"]["analytic_phi_mrad"]
        assert estimates == {"bare_coupling": "nan", "stored_coupling": "nan"}


class TestFormatting:
    def test_body_lines_format_each_cell_as_format_float(self):
        # one %-format per row writes every cell as format_float does,
        # NaN, +-inf, -0.0 and subnormals included
        cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                 2.2250738585072014e-308 / 3.0, 1.0 / 3.0, -1e300, 1.0]
        table = ResultTable(columns=["a", "b", "c"], units=["1"] * 3,
                            values=[[x, y, -y] for x in cells
                                    for y in cells])
        assert table.body_lines() == [table.header()] + [
            ",".join(format_float(v) for v in row)
            for row in table.values.tolist()]

    def test_format_float_17g(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(0.0) == "0"
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"

    def test_result_table_requires_units(self):
        with pytest.raises(ValueError):
            ResultTable(columns=["a", "b"], units=["1"],
                        values=np.empty((0, 2)))

    def test_result_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            ResultTable(columns=["a"], units=["1"], values=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            ResultTable(columns=["a"], units=["1"], values=[[1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            ResultTable(columns=["a"], units=["1"], values=[1.0])
