import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import gemxpm
from gemxpm import apply_stark_drive, channel_from_gate, propagate
from gemxpm.cli import (_RUNNERS, SWEPT, _run_storage, choi_table, main,
                        run_config)
from gemxpm.config import (SECTIONS, config_to_dict, parse_config,
                           set_sweep_value)
from gemxpm.errors import ConfigError
from gemxpm.presets import get_preset, preset_names
from gemxpm.reporting import (ResultTable, config_hash, csv_body,
                              format_float)
from gemxpm.tomography import choi_matrix, ideal_cphase_choi

STORAGE_CONFIG = {
    "experiment": "storage",
    "name": "small_storage",
    "ensemble": {"calN": 250.0, "Delta": 40.0, "OmegaC": 8.0},
    "probe": {"peak_amplitude": 1.0, "center_time": 3.0, "duration": 1.0},
    "schedule": [[0.0, 9.0, 8.0], [9.0, 20.0, -8.0]],
    "grid": {"nz": 96, "nt": 2048, "t_max": 20.0},
}
SIGNAL = {"peak_amplitude": 0.5, "center_time": 6.0, "duration": 1.0}
XPM_DOUBLE = dict(STORAGE_CONFIG, experiment="xpm-double", signal=SIGNAL,
                  schedule=[[0.0, 8.0, 8.0], [8.0, 12.0, 0.0],
                            [12.0, 20.0, -8.0]],
                  grid={"nz": 32, "nt": 512, "t_max": 20.0})
# a gate with a visible conditional phase whose runs stay short
SMALL_GATE = {"Delta": 20.0, "DeltaPrime": 20.0, "delta4": 2.0,
              "OmegaC": 2.0, "OmegaCPrime": 2.0}


def write_yaml(tmp_path, payload, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(p)


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
        for key in ("Delta", "DeltaPrime"):
            cfg = dict(STORAGE_CONFIG,
                       ensemble=dict(STORAGE_CONFIG["ensemble"], **{key: 0.0}))
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
            "grid_nz_oversized", "grid_nt_oversized"])
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

    def test_lab_units_gate_defaults(self):
        # an omitted time is GateRunSpec's default in gamma-units, not
        # the default read as microseconds
        cfg = parse_config({"experiment": "tomography",
                            "units": {"system": "lab", "gamma": 2.0},
                            "gate": {"OmegaC": 40.0}})
        assert cfg.gate.t_gate == cfg.gate.t_end == 15.0
        assert cfg.gate.params.OmegaC == 20.0
        assert cfg.gate.params.gamma == 1.0

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
        assert cfg.gate.params.stored_signal_coupling is True
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
            "ensemble": {"Delta": 80.0, "OmegaC": 16.0, "calN": 250.0},
            "probe": {"peak_amplitude": 2.0, "center_time": 1.5,
                      "duration": 0.5},
            "schedule": [[0.0, 4.5, 16.0], [4.5, 10.0, -16.0]],
            "grid": {"nz": 96, "nt": 2048, "t_max": 10.0},
        }
        cfg = parse_config(lab)
        assert cfg.ensemble.gamma == 1.0
        assert cfg.ensemble.Delta == 40.0
        assert cfg.ensemble.OmegaC == 8.0
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

    def test_storage_roundtrip(self):
        cfg = parse_config(STORAGE_CONFIG)
        assert parse_config(config_to_dict(cfg)) == cfg


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

    @pytest.mark.parametrize("path", ["simulate", "sweep"])
    def test_storage_run_imports_no_scipy(self, tmp_path, path):
        # a driven storage run, and a storage sweep (fig2b_spm, one batched
        # march through storage_batch)
        argv = (["simulate",
                 write_yaml(tmp_path, dict(STORAGE_CONFIG, signal=SIGNAL))]
                if path == "simulate" else ["presets", "run", "fig2b_spm"])
        argv += ["--out", str(tmp_path / "out")]
        code = ("import sys\n"
                "from gemxpm.cli import main\n"
                f"rc = main({argv!r})\n"
                "print('scipy' in sys.modules)\n"
                "sys.exit(rc)\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

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


class TestRecordBudget:
    @pytest.mark.parametrize("preset, mib", [
        ("fig3b_double", 32), ("storage_baseline", 16)])
    def test_peak_below_one_record(self, tmp_path, preset, mib):
        # the march hands sigma and E out a block at a time, so a run at
        # its shipped grid peaks below one (nt, nz) complex record (its
        # runs kept whole records peaked at 130.5 and 25.9 MiB).  scipy is
        # imported first, since its import is a fixed cost of the first
        # xpm-double run, not an array of the grid
        import scipy.integrate  # noqa: F401
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
    @pytest.mark.parametrize("preset", [
        n for n in preset_names()
        if get_preset(n)["experiment"] in ("storage", "xpm-double")])
    def test_summary_records_steps_and_dt_headroom(self, tmp_path, preset):
        # the step count and dt over the stability limit reach the summary
        # only.  Neither dt nor the limit depends on nz, so a coarse z grid
        # reports the preset's own headroom.
        raw = get_preset(preset)
        raw["grid"]["nz"] = 16
        cfg = parse_config(raw, default_name=preset)
        results = json.loads(
            run_config(cfg, tmp_path)["summary"].read_text())["results"]
        assert results["march_steps"] == cfg.grid.nt - 1
        assert 0.0 < results["dt_over_limit"] < 1.0


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


class TestRecordDiagnostics:
    @pytest.mark.parametrize("preset, pinned", [
        ("storage_baseline", {"fourier_residual": 0.028574305592487005,
                              "excitation_balance_residual":
                                  0.00012103411819211573,
                              "kdrift_max_dev_bins": 0.8123898905723551}),
        ("fig3b_double", {"quadrature_phase_rad": 0.004198595286462249,
                          "loss_factor": 0.9998952892382601,
                          "xpm_phase_rad": 0.003975127814592749}),
    ])
    def test_record_diagnostics_pinned(self, preset, pinned):
        # scalars read off the sigma records and the field rebuilt from
        # them, pinned bit for bit to the runs that stored E beside sigma
        raw = get_preset(preset)
        raw["grid"].update(nz=64, nt=1024)
        cfg = parse_config(raw, default_name=preset)
        results = _RUNNERS[cfg.kind](cfg)[1]
        assert {k: results[k] for k in pinned} == pinned


class TestSweep:
    @pytest.mark.parametrize("base, path, value, columns", [
        (STORAGE_CONFIG, "probe.peak_amplitude", 1.0,
         "efficiency[1],echo_phase[rad],xpm_phase[rad]"),
        ({"experiment": "xpm-free",
          "xpm_free": {"omega_s": [0.5, 1.0], "tau": 1.0}},
         "xpm_free.tau", 2.0, "phi_max[rad]"),
        (XPM_DOUBLE, "signal.peak_amplitude", 0.25,
         "xpm_phase[rad],loss_factor[1],probe_efficiency[1]"),
        ({"experiment": "gate",
          "gate": dict(SMALL_GATE, t_end=2.0, n_samples=2)},
         "gate.t_end", 1.0, "phi_end[rad],fidelity_end[1]"),
        ({"experiment": "tomography", "gate": dict(SMALL_GATE, t_gate=2.0)},
         "gate.t_gate", 1.0, "best_fidelity[1],conditional_phase[rad]"),
    ], ids=["storage", "xpm-free", "xpm-double", "gate", "tomography"])
    def test_single_point_equals_single_run(self, tmp_path, base, path,
                                            value, columns):
        # a sweep row is the point's own results at its SWEPT keys, bit
        # for bit, under the columns the point kind has always had
        sweep_cfg = {"experiment": "sweep", "name": "one_point",
                     "sweep": {"path": path, "values": [value]},
                     "base": base}
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path)]) == 0
        header, row = csv_body(tmp_path / "one_point.csv").split()
        assert header == f"{path.split('.')[-1]}[1],{columns}"
        single = parse_config(set_sweep_value(base, path, value))
        results = _RUNNERS[single.kind](single)[1]
        np.testing.assert_array_equal(
            [float(x) for x in row.split(",")],
            [value] + [results[key] for _, key, _ in SWEPT[single.kind]])

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

    @pytest.mark.parametrize("path, values, signal", [
        ("probe.peak_amplitude", [0.5, 2.0, 0.5], None),
        ("probe.peak_amplitude", [0.5, 2.0], SIGNAL),
        ("signal.peak_amplitude", [0.25, 0.5, 1.0], SIGNAL),
        ("grid.nt", [512, 256], None),
    ], ids=["probe_undriven", "probe_driven", "signal", "grid_nt"])
    def test_storage_rows_equal_propagate(self, tmp_path, path, values,
                                          signal):
        # one batch per (ensemble, schedule, grid), several marches at
        # nz = 32: each row is its own point's propagate, NaN xpm phase
        # included
        base = dict(STORAGE_CONFIG, grid={"nz": 32, "nt": 512, "t_max": 20.0})
        if signal is not None:
            base["signal"] = signal
        sweep_cfg = {"experiment": "sweep", "name": "rows",
                     "sweep": {"path": path, "values": values}, "base": base}
        assert main(["simulate", write_yaml(tmp_path, sweep_cfg),
                     "--out", str(tmp_path)]) == 0
        lines = csv_body(tmp_path / "rows.csv").strip().splitlines()
        assert lines[0] == (f"{path.split('.')[-1]}[1],efficiency[1],"
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
        # five driven points and their references are ten members; at the
        # shipped storage grid (nz = 256, nt = 4096) a march takes up to
        # nz // 16 = 16 members, so the sweep is one march of all ten
        from gemxpm import gem
        sizes = []

        def sized(params, schedule, grid, members, *args, **kwargs):
            sizes.append(len(members))
            return march(params, schedule, grid, members, *args, **kwargs)

        march = gem.march
        monkeypatch.setattr(gem, "march", sized)
        raw = get_preset("fig2b_spm")
        raw["sweep"]["values"] = [0.1, 0.5, 1.0, 2.0, 10.0]
        run_config(parse_config(raw), tmp_path)
        assert sizes == [10]

    def test_budget_caps_members_per_march(self, tmp_path, monkeypatch):
        # a budget that fits one exit-only member marches one at a time,
        # and every row stays what the uncapped batch gives
        from gemxpm import gem
        base = dict(STORAGE_CONFIG, signal=SIGNAL,
                    grid={"nz": 64, "nt": 256, "t_max": 20.0})
        cfg = parse_config({
            "experiment": "sweep", "name": "capped",
            "sweep": {"path": "probe.peak_amplitude",
                      "values": [0.5, 1.0, 2.0]},
            "base": base})
        run_config(cfg, tmp_path / "whole")
        sizes = []

        def sized(params, schedule, grid, members, *args, **kwargs):
            sizes.append(len(members))
            return march(params, schedule, grid, members, *args, **kwargs)

        march = gem.march
        monkeypatch.setattr(gem, "march", sized)
        monkeypatch.setattr(gem, "RECORD_BUDGET_BYTES",
                            gem.member_bytes(cfg.points[0].grid))
        run_config(cfg, tmp_path / "capped")
        assert sizes == [1] * 6
        assert csv_body(tmp_path / "capped" / "capped.csv") == \
            csv_body(tmp_path / "whole" / "capped.csv")

    def test_driven_sweep_within_record_budget(self, tmp_path):
        # 40 driven points and their references are 80 members; marched
        # at once they peak at about 9 MiB, over the 2.5 MiB bound below,
        # so the batch must march them a few at a time
        nz, nt = 256, 128
        base = dict(STORAGE_CONFIG, signal=SIGNAL,
                    grid={"nz": nz, "nt": nt, "t_max": 20.0})
        cfg = parse_config({
            "experiment": "sweep", "name": "many",
            "sweep": {"path": "probe.peak_amplitude",
                      "values": [0.1 * (i + 1) for i in range(40)]},
            "base": base})
        tracemalloc.start()
        try:
            run_config(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20


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
        chi = choi_matrix(channel_from_gate(cfg.gate.params, cfg.gate.t_gate))
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
