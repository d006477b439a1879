import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from gemxpm import (DIM, GateParams, NumericalError, ProjectionError,
                    UndefinedPhaseError, basis_index, build_hamiltonian,
                    conditional_phase, evolve, gate_fidelity, initial_state,
                    phase_trace, propagator)
from gemxpm import gate
from gemxpm.gate import (LEVELS, apply_propagator, ideal_image_state,
                         liouvillian_matrix)

from _reference import (collapse_operators, dense_liouvillian,
                        dense_propagator, evolve_rk4, evolve_rk4_powered,
                        kron_liouvillian, lindblad_rhs, max_stable_dt)


@pytest.fixture(scope="module")
def caption_h(gate_params):
    return build_hamiltonian(gate_params)


def csr(lv):
    """``liouvillian_matrix``'s (row, col, value) arrays as a CSR matrix."""
    rows, cols, values = lv
    return sp.csr_array((values, (rows, cols)), shape=(DIM * DIM,) * 2)


def dense(prop):
    """A ``Propagator``'s exp(L t) as a dense 784x784 array."""
    out = np.zeros((DIM * DIM + 1,) * 2, complex)   # the last: padding
    out[prop.members[:, :, None], prop.members[:, None, :]] = prop.blocks
    return out[:-1, :-1]


class TestHilbertSpace:
    def test_dimension(self):
        assert DIM == 28
        assert len(LEVELS) == 7

    def test_index_map_atomic_major(self):
        assert basis_index("1", 0, 0) == 0
        assert basis_index("1", 0, 1) == 1
        assert basis_index("1", 1, 0) == 2
        assert basis_index("2", 0, 0) == 4
        assert basis_index("3p", 1, 1) == 27

    def test_rejects_multiphoton(self):
        with pytest.raises(ValueError):
            basis_index("1", 2, 0)


class TestBuildHamiltonian:
    def test_hermitian(self, caption_h):
        assert np.abs(caption_h - caption_h.conj().T).max() == 0.0

    def test_diagonal_when_uncoupled(self):
        p = GateParams(g=0.0, OmegaC=0.0, OmegaCPrime=0.0)
        h = build_hamiltonian(p)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_collective_probe_element(self, gate_params, caption_h):
        row = basis_index("3", 0, 0)
        col = basis_index("1", 1, 0)
        assert caption_h[row, col] == pytest.approx(
            gate_params.g * math.sqrt(gate_params.N))

    def test_signal_couplings(self, gate_params, caption_h):
        assert caption_h[basis_index("4", 0, 0), basis_index("2", 0, 1)] \
            == pytest.approx(gate_params.g24)
        assert caption_h[basis_index("3p", 0, 0), basis_index("1p", 0, 1)] \
            == pytest.approx(gate_params.g1p3p)

    def test_detuning_diagonals(self, gate_params, caption_h):
        assert caption_h[basis_index("3", 0, 0), basis_index("3", 0, 0)] \
            == gate_params.Delta
        assert caption_h[basis_index("4", 1, 1), basis_index("4", 1, 1)] \
            == gate_params.delta4

    def test_default_params_reference_set(self):
        p = GateParams()
        assert p.OmegaC == p.OmegaCPrime == 20.0
        assert p.Delta == p.DeltaPrime == 30.0 * p.OmegaC
        assert p.delta4 == 20.0
        assert p.g == 0.085
        assert p.N == 1e7
        assert p.g13 == p.g1p3p == pytest.approx(0.085 * math.sqrt(1e7))
        assert p.g24 == p.g

    def test_stored_signal_coupling(self):
        p = GateParams()
        d = replace(p, stored_signal_coupling=True)
        w = math.hypot(p.g1p3p, p.OmegaCPrime)
        assert d.g24 == pytest.approx(p.g * p.OmegaCPrime / w)
        assert d.g13 == p.g13


class TestInitialState:
    def test_trace_one(self):
        rho = initial_state()
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)

    def test_ground_coherence_element(self):
        rho = initial_state()
        val = rho[basis_index("1", 0, 0), basis_index("2", 0, 0)]
        assert val == pytest.approx(0.125)

    def test_no_excited_population(self):
        rho = initial_state()
        for level in ("3", "4", "3p"):
            for np_ in (0, 1):
                for ns in (0, 1):
                    i = basis_index(level, np_, ns)
                    assert rho[i, i] == 0.0

    def test_positive_semidefinite(self):
        assert np.linalg.eigvalsh(initial_state()).min() >= -1e-15


class TestLindbladRhs:
    def test_traceless(self, caption_h):
        rho = initial_state()
        d = lindblad_rhs(rho, caption_h, 1.0)
        assert abs(d.trace()) < 1e-12

    def test_ground_population_nondecreasing_from_mixed(self):
        rho = np.eye(DIM, dtype=complex) / DIM
        h = np.diag(np.arange(DIM, dtype=complex))
        d = lindblad_rhs(rho, h, 1.0)
        for level in ("1", "2", "1p", "2p"):
            for np_ in (0, 1):
                for ns in (0, 1):
                    i = basis_index(level, np_, ns)
                    assert d[i, i].real >= -1e-15

    def test_two_level_decay_against_analytic(self):
        rho0 = np.zeros((DIM, DIM), dtype=complex)
        i3 = basis_index("3", 0, 0)
        rho0[i3, i3] = 1.0
        h = np.zeros((DIM, DIM), dtype=complex)
        traj = evolve(rho0, h, 1.0, 5.0, 11)
        for t, rho in zip(traj.times, traj.states):
            assert rho[i3, i3].real == pytest.approx(math.exp(-t), abs=1e-6)

    def test_dimension_mismatch(self, caption_h):
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(4, dtype=complex), caption_h, 1.0)

    def test_matches_collapse_operator_form(self, caption_h):
        # the structured dissipator equals the textbook D[c] sum
        rng = np.random.default_rng(7)
        a = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
        rho = a @ a.conj().T
        rho /= rho.trace()
        gamma = 0.7
        expected = -1j * (caption_h @ rho - rho @ caption_h)
        for c, rate in collapse_operators(gamma):
            cdc = c.conj().T @ c
            expected += rate * (c @ rho @ c.conj().T
                                - 0.5 * (cdc @ rho + rho @ cdc))
        got = lindblad_rhs(rho, caption_h, gamma)
        assert np.abs(got - expected).max() < 1e-12


class TestEvolve:
    def test_identity_evolution(self):
        rho0 = initial_state()
        h = np.zeros((DIM, DIM), dtype=complex)
        traj = evolve(rho0, h, 0.0, 3.0, 61)
        assert np.abs(traj.final - rho0).max() == 0.0

    def test_unitary_purity_conserved_rk4(self):
        # mild Hamiltonian: the explicit oracle stepper holds the purity
        # budget
        p = GateParams(OmegaC=0.5, OmegaCPrime=0.5, Delta=2.0, DeltaPrime=2.0,
                       delta4=1.0, g=1e-4)
        h = build_hamiltonian(p)
        rho0 = initial_state()
        traj = evolve_rk4(rho0, h, 0.0, np.array([0.0, 5.0]), 1e-3)
        pur0 = np.trace(rho0 @ rho0).real
        pur1 = np.trace(traj.final @ traj.final).real
        assert abs(pur1 - pur0) < 1e-8

    def test_unitary_eigenvalues_conserved(self, caption_h):
        rho0 = initial_state()
        traj = evolve(rho0, caption_h, 0.0, 15.0)
        ev0 = np.sort(np.linalg.eigvalsh(rho0))
        ev1 = np.sort(np.linalg.eigvalsh(traj.final))
        assert np.abs(ev1 - ev0).max() < 1e-8

    def test_trace_drift_abort(self, caption_h, monkeypatch):
        # a non-normalised state trips the trace monitor at t = 0, before
        # the 784x784 propagator is built
        def no_expm(*args):
            raise AssertionError("propagator built for a refused rho0")

        monkeypatch.setattr(gate, "propagator", no_expm)
        with pytest.raises(NumericalError, match="trace"):
            evolve(2.0 * initial_state(), caption_h, 1.0, 1.0)
        with pytest.raises(NumericalError, match="trace"):
            evolve(np.full((DIM, DIM), np.nan), caption_h, 1.0, 1.0)

    def test_reference_run_trace_drift(self, gate_trajectory):
        for rho in gate_trajectory.states:
            assert abs(rho.trace().real - 1.0) < 1e-8

    def test_reference_run_positivity(self, gate_trajectory):
        for rho in gate_trajectory.states[::5]:
            assert np.linalg.eigvalsh(rho).min() >= -1e-8


class TestConditionalPhase:
    def test_initial_phase_zero(self):
        assert conditional_phase(initial_state()) == 0.0

    def test_global_phase_invariance(self, gate_trajectory):
        # conjugation by exp(i*theta)*I leaves rho unchanged up to the
        # rounding of the two matrix products themselves (~1e-17/element)
        rho = gate_trajectory.states[-1]
        theta = 0.7321
        u = np.exp(1j * theta) * np.eye(DIM)
        rho2 = u @ rho @ u.conj().T
        assert conditional_phase(rho2) == pytest.approx(
            conditional_phase(rho), abs=1e-12)

    def test_undefined_phase_signalled(self):
        rho = np.zeros((DIM, DIM), dtype=complex)
        rho[basis_index("1p", 0, 0), basis_index("1p", 0, 0)] = 1.0
        with pytest.raises(UndefinedPhaseError):
            conditional_phase(rho)
        with pytest.raises(UndefinedPhaseError):
            conditional_phase(np.full((DIM, DIM), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_non_finite_coherence_refused(self, bad, branch):
        # one finite coherence must not let the other's NaN or inf through
        rho = np.zeros((DIM, DIM), dtype=complex)
        for n_s in (0, 1):
            rho[basis_index("1", 0, n_s), basis_index("2", 0, n_s)] = 0.3
        rho[basis_index("1", 0, branch), basis_index("2", 0, branch)] = bad
        with pytest.raises(UndefinedPhaseError, match="not finite"):
            conditional_phase(rho)

    def test_p_mode_traced_out(self):
        # the coherences split between the p = 0 and p = 1 sectors:
        # c0 = 0.1 + 0.1j and c1 = 0.2 - 0.2j, so phi = -pi/2, where the
        # p = 0 entries alone (0.1 and 0.2) would give 0
        rho = np.zeros((DIM, DIM), dtype=complex)
        for n_p, n_s, value in ((0, 0, 0.1), (1, 0, 0.1j),
                                (0, 1, 0.2), (1, 1, -0.2j)):
            i, j = basis_index("1", n_p, n_s), basis_index("2", n_p, n_s)
            rho[i, j], rho[j, i] = value, np.conj(value)
        assert conditional_phase(rho) == pytest.approx(-math.pi / 2,
                                                       abs=1e-12)

    def test_reference_phase_in_expected_window(self, gate_trajectory):
        # bare couplings: the free s photon shifts |2> by the full
        # g24^2*delta4/(gamma^2+delta4^2); compare at t = 15
        p = GateParams()
        rate = p.g24 ** 2 * p.delta4 / (p.gamma ** 2 + p.delta4 ** 2)
        phi = conditional_phase(gate_trajectory.final)
        assert abs(phi) == pytest.approx(rate * 15.0, rel=0.05)

    def test_dressed_phase_rate_matches_integrand(self, dressed_phase_trace):
        # beyond the transient the phase accrues at the stored-intensity
        # light-shift rate
        tr = dressed_phase_trace
        p = replace(GateParams(), stored_signal_coupling=True)
        rate_expected = p.g24 ** 2 * p.delta4 / (p.gamma ** 2 + p.delta4 ** 2)
        mask = tr.times >= 10.0
        slope = np.polyfit(tr.times[mask], tr.phi[mask], 1)[0]
        assert 0.5 < abs(slope) / rate_expected < 2.0


class TestGateFidelity:
    def test_ideal_image_fidelity_one(self):
        phi = -3.3e-3
        psi = ideal_image_state(phi)
        rho_q = np.outer(psi, psi.conj())
        # embed the two-qubit state back into the full space
        rho = np.zeros((DIM, DIM), dtype=complex)
        idx = [basis_index(lv, 0, ns) for ns in (0, 1) for lv in ("1", "2")]
        rho[np.ix_(idx, idx)] = rho_q
        assert gate_fidelity(rho, phi) == pytest.approx(1.0, abs=1e-12)
        assert conditional_phase(rho) == pytest.approx(phi, abs=1e-12)

    def test_adiabatic_high_fidelity(self):
        # couplings weak enough that every second-order phase accumulated
        # over the window stays well below the fidelity budget
        p = GateParams(OmegaC=0.5, OmegaCPrime=0.5, g=0.00085, gamma=0.0)
        tr = phase_trace(p, t_end=15.0, n_samples=6)
        assert tr.fidelity[-1] > 0.999

    def test_projection_error(self):
        rho = np.zeros((DIM, DIM), dtype=complex)
        rho[basis_index("3p", 0, 0), basis_index("3p", 0, 0)] = 1.0
        with pytest.raises(ProjectionError):
            gate_fidelity(rho, 0.0)

    def test_reference_run_fidelity(self, gate_trajectory):
        rho = gate_trajectory.final
        phi = conditional_phase(rho)
        f = gate_fidelity(rho, phi)
        assert 0.9 < f <= 1.0


class TestPhaseTrace:
    def test_starts_at_zero(self, dressed_phase_trace):
        assert dressed_phase_trace.phi[0] == 0.0
        assert dressed_phase_trace.fidelity[0] == pytest.approx(1.0, abs=1e-12)

    def test_times_increasing(self, dressed_phase_trace):
        assert np.all(np.diff(dressed_phase_trace.times) > 0)

    def test_dressed_phase_magnitude(self, dressed_phase_trace):
        phi_mrad = abs(dressed_phase_trace.phi[-1]) * 1e3
        assert 0.005 <= phi_mrad <= 0.08


class TestPropagator:
    def test_matches_rk4(self, gate_params, caption_h):
        rho0 = initial_state()
        prop = propagator(caption_h, gate_params.gamma, 2.0, rho0)
        via_prop = apply_propagator(prop, rho0)
        via_rk4 = evolve_rk4(rho0, caption_h, gate_params.gamma,
                             np.array([0.0, 2.0]),
                             max_stable_dt(caption_h, gate_params.gamma)).final
        assert np.abs(via_prop - via_rk4).max() < 1e-3
        assert conditional_phase(via_prop) == pytest.approx(
            conditional_phase(via_rk4), abs=1e-8)

    def test_liouvillian_traceless_action(self, caption_h):
        lv = csr(liouvillian_matrix(caption_h, 1.0))
        rho = initial_state()
        d = (lv @ rho.reshape(-1)).reshape(DIM, DIM)
        assert abs(d.trace()) < 1e-12
        assert np.abs(d - lindblad_rhs(rho, caption_h, 1.0)).max() < 1e-12

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_liouvillian_nonzeros_match_dense(self, caption_h, gamma):
        rows, cols, values = liouvillian_matrix(caption_h, gamma)
        expected = dense_liouvillian(caption_h, gamma)
        # nonzeros only, each entry once, in row-major order
        flat = rows * DIM * DIM + cols
        assert (np.diff(flat) > 0).all() and (values != 0).all()
        assert values.size == np.count_nonzero(expected)
        assert np.abs(csr((rows, cols, values)).toarray()
                      - expected).max() < 1e-12

    @pytest.mark.parametrize("case", ["caption", "stored", "fig4a_step",
                                      "no_primed_drive"])
    def test_matches_dense_oracle(self, gate_params, case):
        # caption couplings at t = 2; the fig4b stored-signal gate at
        # t = 15; one fig4a sample step; OmegaCPrime = 0 splits the blocks
        # further
        stored = replace(gate_params, stored_signal_coupling=True)
        params, t = {
            "caption": (gate_params, 2.0),
            "stored": (stored, 15.0),
            "fig4a_step": (stored, 0.1),
            "no_primed_drive": (GateParams(OmegaCPrime=0.0), 15.0),
        }[case]
        h = build_hamiltonian(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prop = propagator(h, params.gamma, t, np.ones((DIM, DIM)))
        expected = dense_propagator(h, params.gamma, t)
        assert np.abs(dense(prop) - expected).max() <= 1e-12
        # every block (t*L on its members, from the dense oracle's L) enters
        # the Pade step pre-scaled by its 2^-s below the norm 4.25 up to
        # which that step is accurate
        lv = dense_liouvillian(h, params.gamma) * t
        norms = [np.abs(lv[np.ix_(m, m)]).sum(axis=0).max() / 2.0 ** s
                 for m, s in zip(prop.members, prop.squarings)
                 for m in [m[m < DIM * DIM]]]
        assert len(norms) == prop.structure["liouvillian_blocks"]
        assert max(norms) <= 4.25

    @pytest.mark.parametrize("t, nan_entry", [
        (math.nan, False), (math.inf, False), (1e300, False), (1.0, True)],
        ids=["t_nan", "t_inf", "t_1e300", "nan_h"])
    def test_non_finite_refused(self, gate_params, caption_h, t, nan_entry):
        # a non-finite t*L, or one whose exponential overflows, is refused
        h = caption_h.copy()
        if nan_entry:
            h[0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite"):
                propagator(h, gate_params.gamma, t, initial_state())

    def test_overflow_stops_squaring(self, gate_params, caption_h,
                                     monkeypatch):
        # at t = 1e300 every block is scaled by 2^-1005; the first stack
        # of reached blocks (the two 9 wide) overflows at its 65th square,
        # and the propagator refuses it there instead of squaring on
        calls = []
        expm = gate._expm

        def counted(a, t):
            calls.append(a.shape)
            return expm(a, t)

        monkeypatch.setattr(gate, "_expm", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite") as info:
                propagator(caption_h, gate_params.gamma, 1e300,
                           initial_state())
        squares, scale = map(int, re.search(r"square (\d+) of (\d+)",
                                            str(info.value)).groups())
        # the squares of the one stack exponentiated are all there were
        assert calls == [(2, 9, 9)]
        assert 0 < squares < 100 and scale == 1005

    @pytest.mark.parametrize("case", ["caption", "stored", "no_decay",
                                      "no_primed_drive"])
    def test_liouvillian_equals_kron_oracle(self, gate_params, case):
        # the index-arithmetic build sums the same terms in the same order
        # as the kron build, so every array is bit-identical
        params = {
            "caption": gate_params,
            "stored": replace(gate_params, stored_signal_coupling=True),
            "no_decay": GateParams(gamma=0.0),
            "no_primed_drive": GateParams(OmegaCPrime=0.0),
        }[case]
        h = build_hamiltonian(params)
        rows, cols, values = liouvillian_matrix(h, params.gamma)
        expected = kron_liouvillian(h, params.gamma)
        assert np.array_equal(rows, np.repeat(np.arange(DIM * DIM),
                                              np.diff(expected.indptr)))
        assert np.array_equal(cols, expected.indices)
        assert values.dtype == expected.data.dtype
        assert values.tobytes() == expected.data.tobytes()

    def test_block_structure(self, gate_params, caption_h, monkeypatch):
        # the README's count: 149 weakly connected blocks, the largest 42
        # wide, found by numpy as scipy's csgraph finds them in the kron
        # oracle's L; initial_state() reaches 12 of them and an all-ones
        # input every one.  Each reached block is exponentiated once, and
        # the propagator stores every entry of it and none outside a block
        n = DIM * DIM
        _, label = connected_components(
            kron_liouvillian(caption_h, gate_params.gamma) != 0,
            connection="weak")
        rows, cols, _ = liouvillian_matrix(caption_h, gate_params.gamma)
        _, block = np.unique(gate._block_labels(rows, cols, n),
                             return_inverse=True)
        assert np.array_equal(block, label)
        sizes = np.bincount(label)
        assert (sizes.size, sizes.max()) == (149, 42)
        expm = gate._expm
        for rho, expected, nnz in [
                (initial_state(),
                 [9, 9, 14, 14, 14, 17, 17, 26, 26, 26, 26, 42], 5796),
                (np.ones((DIM, DIM)), sorted(sizes), 9366)]:
            calls = []

            def counted(a, t):
                calls.extend([a.shape[1]] * a.shape[0])
                return expm(a, t)

            monkeypatch.setattr(gate, "_expm", counted)
            prop = propagator(caption_h, gate_params.gamma, 2.0, rho)
            assert sorted(calls) == expected
            inside = prop.members < n
            widths = inside.sum(axis=1)
            assert sorted(widths) == expected
            assert nnz == sum(size ** 2 for size in calls)
            assert prop.structure == {
                "liouvillian_blocks": 149, "reached_blocks": len(expected),
                "widest_reached_block": 42,
                "max_squarings": prop.squarings.max()}
            for members, width in zip(prop.members, widths):
                # a whole block, in increasing order, then padding
                assert (np.diff(members[:width]) > 0).all()
                assert (label[members[:width]] == label[members[0]]).all()
                assert width == sizes[label[members[0]]]
            # nothing is stored outside a block's own entries
            outside = ~(inside[:, :, None] & inside[:, None, :])
            assert not prop.blocks[outside].any()

    def test_reach_covers_adjoint(self, gate_params, caption_h):
        # a non-Hermitian rho0 whose coherence |1,0,0><2,0,1| lies in a
        # block its transpose does not: re-symmetrisation after each step
        # moves weight there, so the propagator must reach it from the
        # first step on
        a, b = basis_index("1", 0, 0), basis_index("2", 0, 1)
        rho0 = np.zeros((DIM, DIM), dtype=complex)
        rho0[a, a], rho0[a, b] = 1.0, 0.3
        traj = evolve(rho0, caption_h, gate_params.gamma, 0.5, 6)
        prop = dense_propagator(caption_h, gate_params.gamma, 0.1)
        rho = rho0
        for state in traj.states[1:]:
            rho = (prop @ rho.reshape(-1)).reshape(DIM, DIM)
            rho = 0.5 * (rho + rho.conj().T)
            assert np.abs(state - rho).max() <= 1e-12

    def test_reach_of_wrong_shape_refused(self, gate_params, caption_h):
        # the reach is read entry by entry on the DIM x DIM grid of vec(rho)
        with pytest.raises(IndexError):
            propagator(caption_h, gate_params.gamma, 1.0, np.eye(DIM - 1))

    def test_builds_one_liouvillian_and_no_dense_superoperator(
            self, gate_params, caption_h, monkeypatch):
        calls = []
        build = gate.liouvillian_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(gate, "liouvillian_matrix", counted)
        rho = initial_state()
        propagator(caption_h, gate_params.gamma, 2.0, rho)   # warm caches
        tracemalloc.start()
        try:
            propagator(caption_h, gate_params.gamma, 2.0, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 2
        # one complex 784x784 array would take 9.8 MB
        assert peak < (DIM * DIM) ** 2 * 16 // 4


class TestConvergence:
    def test_phi_converged_in_dt(self, gate_params, dressed_phase_trace):
        # the RK4 oracle at 0.7 of its step bound converges on the exact
        # fig4a trajectory: phi and F agree on every one of the 31 samples.
        # Its ~128k steps are taken as powers of the one-step matrix.
        h = build_hamiltonian(
            replace(gate_params, stored_signal_coupling=True))
        dt = 0.7 * max_stable_dt(h, gate_params.gamma)
        exact = dressed_phase_trace
        oracle = evolve_rk4_powered(initial_state(), h, gate_params.gamma,
                                    exact.times, dt)
        phi = np.array([conditional_phase(r) for r in oracle.states])
        fid = np.array([gate_fidelity(r, f)
                        for r, f in zip(oracle.states, phi)])
        assert np.abs(phi - exact.phi).max() <= 1e-9
        assert np.abs(fid - exact.fidelity).max() <= 1e-6
