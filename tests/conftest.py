"""Shared fixtures.  The expensive solver runs are session-scoped so the
unit suite and the acceptance suite reuse one trajectory each."""

from __future__ import annotations

import pytest

from gemxpm import (EnsembleParams, GateParams, GradientSchedule, Grid,
                    PulseSpec, build_hamiltonian, evolve,
                    initial_state, phase_trace, propagate)

from _reference import FullRecords


@pytest.fixture(scope="session")
def baseline_params():
    return EnsembleParams()


@pytest.fixture(scope="session")
def baseline_probe():
    return PulseSpec(peak_amplitude=1.0, center_time=3.0, duration=1.0)


@pytest.fixture(scope="session")
def baseline_schedule():
    return GradientSchedule(((0.0, 9.0, 8.0), (9.0, 20.0, -8.0)))


@pytest.fixture(scope="session")
def baseline_grid(baseline_params):
    return Grid(nz=256, nt=4096, t_max=20.0, L=baseline_params.L)


@pytest.fixture(scope="session")
def baseline_marched(baseline_params, baseline_probe, baseline_schedule,
                     baseline_grid):
    """The baseline run and the whole sigma and E records of its march."""
    records = FullRecords()
    return propagate(baseline_params, baseline_probe, baseline_schedule,
                     baseline_grid, on_block=records), records


@pytest.fixture(scope="session")
def baseline_run(baseline_marched):
    return baseline_marched[0]


@pytest.fixture(scope="session")
def baseline_records(baseline_marched):
    return baseline_marched[1]


@pytest.fixture(scope="session")
def gate_params():
    return GateParams()


@pytest.fixture(scope="session")
def gate_trajectory(gate_params):
    """Reference-parameter run to t = 15/gamma with snapshots."""
    h = build_hamiltonian(gate_params)
    return evolve(initial_state(), h, gate_params.gamma, 15.0, 31)


@pytest.fixture(scope="session")
def dressed_phase_trace(gate_params):
    return phase_trace(gate_params.with_stored_signal_coupling(),
                       t_end=15.0, n_samples=31)
