"""Named routines against dense-matrix references and printed-state checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvm
from qvm import Gate, GateKind, new_process
from qvm.simulator import StateVector, execute, gate_matrix

from oracles import (
    assembled_unitary,
    dft_matrix,
    dump_vector,
    max_dev_up_to_phase,
    run_gates,
)

SQRT1_2 = 1 / math.sqrt(2)


def final_state(build, n, seed=0):
    p = new_process()
    build(p.alloc(n))
    return run_gates(p.code, StateVector.zero(n))


class TestCnotAndBell:
    def test_cnot_on_basis_states(self):
        for source, expected in [(0, 0), (1, 1), (2, 3), (3, 2)]:
            p = new_process()
            a, b = p.alloc(2)
            if source & 2:
                qvm.x(a)
            if source & 1:
                qvm.x(b)
            qvm.cnot(a, b)
            state = run_gates(p.code, StateVector.zero(2))
            assert abs(state.amps[expected] - 1.0) < 1e-12

    def test_cnot_entangles_superposed_control(self):
        state = final_state(lambda qs: (qvm.h(qs[0]), qvm.cnot(qs[0], qs[1])), 2)
        np.testing.assert_allclose(state.amps, [SQRT1_2, 0, 0, SQRT1_2], atol=1e-15)

    def test_cnot_twice_is_identity(self):
        def build(qs):
            qvm.h(qs[0])
            qvm.cnot(qs[0], qs[1])
            qvm.cnot(qs[0], qs[1])

        state = final_state(build, 2)
        expected = final_state(lambda qs: qvm.h(qs[0]), 2)
        assert np.abs(state.amps - expected.amps).max() < 1e-12

    def test_bell_under_control_matches_three_state_output(self):
        p = new_process()
        q0, q1, q2 = p.alloc(3)
        qvm.h(q0)
        with qvm.ctrl(q0):
            qvm.bell(q1, q2)
        snap = p.dump_state([q0, q1, q2])
        data = snap.data
        assert [b for b, _ in data.basis_states] == [0b000, 0b100, 0b111]
        amps = dict(data.basis_states)
        assert abs(amps[0b000] - SQRT1_2) < 1e-9
        assert abs(amps[0b100] - 0.5) < 1e-9
        assert abs(amps[0b111] - 0.5) < 1e-9

    def test_bell_then_adjoint_bell_restores_vacuum(self):
        p = new_process()
        a, b = p.alloc(2)
        qvm.bell(a, b)
        with qvm.adj(p):
            qvm.bell(a, b)
        state = run_gates(p.code, StateVector.zero(2))
        assert abs(state.amps[0] - 1.0) < 1e-12


class TestSwap:
    def test_swap_exchanges_basis_states(self):
        def build(qs):
            qvm.x(qs[0])
            qvm.swap(qs[0], qs[1])

        state = final_state(build, 2)
        assert abs(state.amps[0b01] - 1.0) < 1e-12


@pytest.mark.parametrize("routine", [qvm.cnot, qvm.swap])
def test_failed_controlled_flip_leaves_no_scope_open(routine):
    p = new_process()
    (a,) = p.alloc(1)
    with pytest.raises(qvm.ControlTargetOverlap):
        routine(a, a)
    assert p._scopes == []
    assert p.measure(a).value == 0


class TestQft:
    def test_uniform_superposition_from_zero(self):
        for n in (1, 2, 3, 4):
            state = final_state(lambda qs: qvm.qft(qs), n)
            np.testing.assert_allclose(
                state.amps, np.full(1 << n, 1 / math.sqrt(1 << n)), atol=1e-12
            )

    def test_unitary_equals_dft_matrix(self):
        got = assembled_unitary(lambda qs: qvm.qft(qs), 3)
        assert np.abs(got - dft_matrix(3)).max() < 1e-10

    def test_no_swaps_is_bit_reversed_dft(self):
        got = assembled_unitary(lambda qs: qvm.qft(qs, do_swaps=False), 3)
        reference = dft_matrix(3)
        reverse = [int(format(i, "03b")[::-1], 2) for i in range(8)]
        assert np.abs(got[reverse, :] - reference).max() < 1e-10

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="^qft needs at least one qubit$"):
            qvm.qft([])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_qft_followed_by_adjoint_is_identity(self, n):
        def build(qs):
            qvm.qft(qs)
            with qvm.adj(qs[0].process):
                qvm.qft(qs)

        got = assembled_unitary(build, n)
        assert np.abs(got - np.eye(1 << n)).max() < 1e-10


class TestGroverDiffusor:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_reflection_up_to_global_phase(self, n):
        size = 1 << n
        uniform = np.full((size, 1), 1 / math.sqrt(size))
        reference = -(2 * uniform @ uniform.conj().T - np.eye(size))
        got = assembled_unitary(lambda qs: qvm.grover_diffusor(qs), n)
        assert max_dev_up_to_phase(got, reference) < 1e-10

    def test_uniform_state_is_fixed_axis(self):
        def build(qs):
            for q in qs:
                qvm.h(q)
            qvm.grover_diffusor(qs)

        state = final_state(build, 3)
        uniform = np.full(8, 1 / math.sqrt(8))
        assert max_dev_up_to_phase(state.amps, uniform) < 1e-10

    def test_applied_twice_is_identity_up_to_phase(self):
        def build(qs):
            qvm.grover_diffusor(qs)
            qvm.grover_diffusor(qs)

        got = assembled_unitary(build, 2)
        assert max_dev_up_to_phase(got, np.eye(4)) < 1e-10

    def test_needs_two_qubits(self):
        p = new_process()
        with pytest.raises(ValueError):
            qvm.grover_diffusor(p.alloc(1))


class TestTeleport:
    def test_teleports_zero_state_every_seed(self):
        for seed in range(12):
            p = new_process(seed=seed)
            snap = qvm.teleport(p, lambda q: None)
            assert snap.data.basis_states == ((0, (1 + 0j)),)

    def test_phase_pi_over_4_state_arrives_for_many_seeds(self):
        expected = np.array([SQRT1_2, np.exp(1j * math.pi / 4) * SQRT1_2])
        for seed in range(16):
            p = new_process(seed=seed)
            snap = qvm.teleport(p, lambda q: qvm.phase(math.pi / 4, qvm.h(q)))
            assert max_dev_up_to_phase(dump_vector(snap.data), expected) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_random_preparations_arrive_up_to_global_phase(self, case):
        rng = np.random.default_rng(case)
        theta = float(rng.uniform(0, 2 * math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        expected = (
            gate_matrix(Gate(GateKind.RZ, phi))
            @ gate_matrix(Gate(GateKind.RY, theta))
            @ np.array([1, 0], dtype=complex)
        )
        seed = int(rng.integers(2**32))
        p = new_process(seed=seed)
        snap = qvm.teleport(p, lambda q: (qvm.ry(theta, q), qvm.rz(phi, q)))
        assert max_dev_up_to_phase(dump_vector(snap.data), expected) < 1e-9

    def test_dump_is_independent_of_measurement_outcomes(self):
        vectors = set()
        outcomes = set()
        for seed in range(32):
            p = new_process(seed=seed)
            snap = qvm.teleport(p, lambda q: qvm.ry(1.1, q))
            result = p.execute()
            outcomes.add((result.futures[0], result.futures[1]))
            vectors.add(
                tuple((b, round(a.real, 12), round(a.imag, 12)) for b, a in snap.data.basis_states)
            )
        assert len(vectors) == 1
        assert len(outcomes) == 4  # all four correction paths exercised


class TestBuilderPurity:
    def test_routines_only_use_builder_calls(self, monkeypatch):
        # a recording-only engine: routines must never trigger or need amplitudes
        def refuse(code, seed):
            raise AssertionError("engine must not run while recording")

        monkeypatch.setattr(qvm.simulator, "execute", refuse)
        p = qvm.Process()
        qs = p.alloc(4)
        qvm.bell(qs[0], qs[1])
        qvm.qft(qs)
        qvm.grover_diffusor(qs)
        with qvm.around(p, lambda: qvm.bell(qs[2], qs[3])):
            qvm.z(qs[2])
        kinds = {type(ins) for ins in p.code.instructions}
        assert kinds == {qvm.Alloc, qvm.GateApp}

    @pytest.mark.parametrize(
        "routine, kind",
        [
            (qvm.x, GateKind.PAULI_X),
            (qvm.y, GateKind.PAULI_Y),
            (qvm.z, GateKind.PAULI_Z),
            (qvm.h, GateKind.HADAMARD),
        ],
    )
    def test_fixed_gate_records_one_gate_and_returns_its_handle(self, routine, kind):
        p = new_process()
        _, q = p.alloc(2)
        assert routine(q) is q
        assert p.code.instructions[1:] == (qvm.GateApp(Gate(kind), 1),)
