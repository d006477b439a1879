import dataclasses
import math

import numpy as np
import pytest

from gemxpm import (GateParams, LeakageError, TwoQubitChannel,
                    build_hamiltonian, channel_from_gate, choi_matrix,
                    conditional_phase, ideal_cphase_choi, initial_state,
                    process_fidelity, propagator)
from gemxpm.gate import QUBIT_BASIS, apply_propagator, two_qubit_block
from gemxpm.tomography import QUBIT_DIM

from _reference import channel_from_map


def random_density(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_pure(rng, count, n=4):
    vecs = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def embed(rho_q):
    full = np.zeros((28, 28), dtype=complex)
    full[np.ix_(QUBIT_BASIS, QUBIT_BASIS)] = rho_q
    return full


def maximally_entangled_chi():
    phi = np.zeros(16)
    for i in range(4):
        phi[i * 4 + i] = 0.5
    return np.outer(phi, phi)


@pytest.fixture(scope="module")
def identity_like_channel():
    """Gate channel with no interaction and no decay."""
    p = GateParams(g=0.0, OmegaC=0.0, OmegaCPrime=0.0, Delta=0.0,
                   DeltaPrime=0.0, delta4=0.0, gamma=0.0)
    return channel_from_gate(p, 15.0)


@pytest.fixture(scope="module")
def reference_channel(gate_params):
    return channel_from_gate(gate_params, 15.0)


class TestChannelFromGate:
    def test_no_interaction_is_identity(self, identity_like_channel):
        rng = np.random.default_rng(3)
        for _ in range(4):
            rho = random_density(rng)
            out = identity_like_channel.apply(rho)
            assert np.abs(out - rho).max() < 1e-8

    def test_linearity(self, reference_channel, gate_params):
        rng = np.random.default_rng(11)
        r1, r2 = random_density(rng), random_density(rng)
        mix = 0.5 * r1 + 0.5 * r2
        direct = reference_channel.apply(mix)
        combined = 0.5 * reference_channel.apply(r1) \
            + 0.5 * reference_channel.apply(r2)
        assert np.abs(direct - combined).max() < 1e-8

    def test_embedded_pairs_in_initial_support(self):
        # channel_from_gate builds its propagator on the blocks that
        # initial_state() reaches, so the vec index of every embedded pair
        # |a><b| must lie in that state's support
        pairs = np.add.outer(np.multiply(QUBIT_BASIS, 28), QUBIT_BASIS).ravel()
        assert np.isin(pairs, np.flatnonzero(initial_state())).all()

    def test_channel_consistent_with_direct_evolution(self, gate_params):
        # tabulated images vs evolving mixed and pure states through the
        # same path
        h = build_hamiltonian(gate_params)
        prop = propagator(h, gate_params.gamma, 15.0, initial_state())
        channel = channel_from_gate(gate_params, 15.0)
        rng = np.random.default_rng(5)
        inputs = [random_density(rng)]
        inputs += [np.outer(psi, psi.conj()) for psi in random_pure(rng, 8)]
        for rho_q in inputs:
            reduced, _w = two_qubit_block(apply_propagator(prop,
                                                           embed(rho_q)))
            assert np.abs(channel.apply(rho_q) - reduced).max() < 1e-10
        assert channel.phase == conditional_phase(
            apply_propagator(prop, initial_state()))

    def test_leakage_logged(self, reference_channel):
        assert list(reference_channel.leakage) == ["e0", "e1", "e2", "e3"]
        assert 0.0 <= reference_channel.max_leakage < 0.01
        assert reference_channel.max_leakage >= max(
            reference_channel.leakage.values())

    def test_max_leakage_bounds_every_pure_input(self, gate_params):
        channel = channel_from_gate(gate_params, 15.0)
        rng = np.random.default_rng(17)
        lost = [1.0 - np.trace(channel.apply(np.outer(psi, psi.conj()))).real
                for psi in random_pure(rng, 24)]
        assert max(lost) <= channel.max_leakage + 1e-12
        # the bound is attained: the least-surviving pure input
        survival = np.trace(channel.images, axis1=2, axis2=3).T
        _w, vecs = np.linalg.eigh(0.5 * (survival + survival.conj().T))
        worst = np.outer(vecs[:, 0], vecs[:, 0].conj())
        assert 1.0 - np.trace(channel.apply(worst)).real == pytest.approx(
            channel.max_leakage, abs=1e-12)

    def test_leaky_channel_is_honest_and_its_choi_state_unit_trace(
            self, gate_params):
        # the map keeps the weight it loses; only the Choi state divides
        # by the mean survival
        channel = channel_from_gate(gate_params, 15.0)
        assert channel.max_leakage > 0.0
        for i in range(QUBIT_DIM):
            unit = np.zeros((QUBIT_DIM, QUBIT_DIM), dtype=complex)
            unit[i, i] = 1.0
            assert np.trace(channel.apply(unit)).real == pytest.approx(
                1.0 - channel.leakage[f"e{i}"], abs=1e-14)
        assert channel.mean_survival == pytest.approx(
            1.0 - np.mean(list(channel.leakage.values())), abs=1e-14)
        assert np.trace(choi_matrix(channel).chi).real == pytest.approx(
            1.0, abs=1e-14)

    def test_leakage_error(self):
        # gamma = 0, resonant coupling tuned to park |2> in the excited
        # level exactly at the gate time: inputs involving |2> leak fully
        omega_half_transfer = 0.5 * math.pi / 15.0
        p = GateParams(gamma=0.0, g=0.0, OmegaCPrime=0.0, Delta=0.0,
                       DeltaPrime=0.0, delta4=0.0,
                       OmegaC=omega_half_transfer)
        with pytest.raises(LeakageError) as err:
            channel_from_gate(p, 15.0)
        assert err.value.leakage_report
        assert max(err.value.leakage_report.values()) > 0.2

    def test_dephasing_oracle(self):
        # hand-built pure dephasing of the atomic qubit: off-diagonals in
        # the second factor damp by exp(-Gamma t)
        gamma_t = 0.37

        def dephase(m):
            out = m.astype(complex).copy()
            for a in range(QUBIT_DIM):
                for b in range(QUBIT_DIM):
                    if (a % 2) != (b % 2):   # differing atomic index
                        out[a, b] *= math.exp(-gamma_t)
            return out

        channel = channel_from_map(dephase)
        chi = choi_matrix(channel)
        assert chi.completely_positive
        assert chi.trace_preserving
        damp = math.exp(-gamma_t)
        for i in range(QUBIT_DIM):
            for j in range(QUBIT_DIM):
                expect = 0.25 * (damp if (i % 2) != (j % 2) else 1.0)
                assert chi.chi[i * 4 + i, j * 4 + j] == pytest.approx(expect)


class TestChoiMatrix:
    def test_identity_channel_maximally_entangled(self, identity_like_channel):
        chi = choi_matrix(identity_like_channel)
        assert np.abs(chi.chi - maximally_entangled_chi()).max() < 1e-8
        assert chi.purity == pytest.approx(1.0, abs=1e-8)

    def test_cphase_pi_construction(self):
        chi = ideal_cphase_choi(math.pi)
        u = np.diag([1, 1, 1, -1]).astype(complex)
        direct = TwoQubitChannel.from_unitary(u)
        expect = choi_matrix(direct)
        assert np.abs(chi.chi - expect.chi).max() < 1e-12
        for i in range(4):
            for j in range(4):
                sign = np.exp(1j * math.pi * ((i == 3) - (j == 3)))
                assert chi.chi[i * 4 + i, j * 4 + j] == pytest.approx(
                    0.25 * sign, abs=1e-12)

    def test_identity_state_entries(self):
        chi = choi_matrix(TwoQubitChannel.identity())
        assert np.count_nonzero(chi.chi.real == 0.25) == 16
        assert np.count_nonzero(chi.chi.real == 0.0) == 240
        assert np.all(chi.chi.imag == 0.0)
        assert chi.eigenvalues.sum() == pytest.approx(1.0, abs=1e-8)

    def test_unitary_choi_always_pure(self):
        for phi in (0.0, 0.3, math.pi, -1.2):
            assert ideal_cphase_choi(phi).purity == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_depolarizing(self):
        dep = channel_from_map(
            lambda m: np.eye(4, dtype=complex) * np.trace(m) / 4.0)
        chi = choi_matrix(dep)
        assert np.abs(chi.chi - np.eye(16) / 16.0).max() < 1e-14

    def test_cp_and_trace_for_produced_choi(self, reference_channel,
                                            identity_like_channel):
        for ch in (reference_channel, identity_like_channel):
            chi = choi_matrix(ch)
            assert chi.trace == pytest.approx(1.0, abs=1e-8)
            assert chi.min_eigenvalue >= -1e-8
            assert chi.hermiticity_residual < 1e-12

    def test_diagnostics_follow_a_replaced_state(self):
        # the diagnostics are read off chi, so a replaced chi cannot carry
        # the old state's trace or residuals
        chi = ideal_cphase_choi(0.0)
        bad = dataclasses.replace(chi, chi=2.0 * chi.chi)
        assert bad.trace == pytest.approx(2.0, abs=1e-12)
        assert bad.min_eigenvalue == pytest.approx(
            2.0 * chi.min_eigenvalue, abs=1e-12)
        assert bad.tp_residual == pytest.approx(0.5, abs=1e-12)
        assert not bad.trace_preserving

    def test_tp_residual_for_lossless(self, identity_like_channel):
        chi = choi_matrix(identity_like_channel)
        assert chi.tp_residual < 1e-3

    def test_lossy_residual_attached(self, gate_params):
        channel = channel_from_gate(gate_params, 15.0)
        chi = choi_matrix(channel)
        assert chi.tp_residual >= 0.0
        assert channel.max_leakage > 0.0
        # the map itself is trace-non-increasing
        for i in range(QUBIT_DIM):
            unit = np.zeros((QUBIT_DIM, QUBIT_DIM), dtype=complex)
            unit[i, i] = 1.0
            assert np.trace(channel.apply(unit)).real <= 1.0 + 1e-12

    def test_cphase_zero_is_identity_choi(self, identity_like_channel):
        chi0 = ideal_cphase_choi(0.0)
        assert np.abs(chi0.chi - maximally_entangled_chi()).max() < 1e-14


class TestProcessFidelity:
    def test_self_fidelity_pure(self):
        chi = ideal_cphase_choi(0.7)
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_cphase_pi(self):
        f = process_fidelity(ideal_cphase_choi(0.0), ideal_cphase_choi(math.pi))
        assert f == pytest.approx(0.25, abs=1e-8)

    def test_symmetric(self, reference_channel):
        chi = choi_matrix(reference_channel)
        ideal = ideal_cphase_choi(0.02)
        assert process_fidelity(chi, ideal) == pytest.approx(
            process_fidelity(ideal, chi), abs=1e-12)

    def test_rejects_unnormalised(self):
        chi = ideal_cphase_choi(0.0)
        bad = dataclasses.replace(chi, chi=2.0 * chi.chi)
        with pytest.raises(ValueError):
            process_fidelity(bad, chi)

    def test_gamma_monotone_in_adiabatic_regime(self):
        # weak couplings: decay only decoheres, so fidelity against the
        # matched ideal gate decreases monotonically with gamma
        base = GateParams(OmegaC=2.0, OmegaCPrime=2.0, g=0.01)
        fids = []
        for gamma in (0.0, 0.5, 1.0, 2.0, 4.0):
            p = dataclasses.replace(base, gamma=gamma)
            channel = channel_from_gate(p, 15.0)
            phi = channel.phase
            chi = choi_matrix(channel)
            best = max(process_fidelity(chi, ideal_cphase_choi(s * phi))
                       for s in (1.0, -1.0))
            fids.append(best)
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))

    def test_reference_channel_candidates(self, reference_channel,
                                          gate_trajectory):
        chi = choi_matrix(reference_channel)
        phi = conditional_phase(gate_trajectory.final)
        cands = {s: process_fidelity(chi, ideal_cphase_choi(s * phi))
                 for s in (0.0, 1.0, -1.0)}
        assert all(0.9 < f <= 1.0 for f in cands.values())
