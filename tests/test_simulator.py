"""Engine semantics: gate matrices, kernels, sampling, snapshots, determinism."""

import copy
import dataclasses
import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qvm
from qvm import Gate, GateKind
from qvm.errors import (
    DegenerateState,
    EngineFailure,
    EntangledSelection,
    IndexOutOfRange,
    IndexOverlap,
    MalformedCode,
)
from qvm.rng import Xoshiro256StarStar
from qvm.simulator import (
    DUST,
    StateVector,
    apply_kernel,
    execute,
    extract_dump,
    gate_matrix,
    measure_kernel,
)

from oracles import (
    ShiftingTuple,
    dense_controlled,
    dump_vector,
    kron_all,
    max_dev_up_to_phase,
    measure_oracle,
    pair_oracle,
    program_oracle,
    run_gates,
)

SQRT1_2 = 1 / math.sqrt(2)

ALL_KINDS = list(GateKind)


def random_gate(rng):
    kind = ALL_KINDS[rng.integers(len(ALL_KINDS))]
    if kind in qvm.ir.PARAMETRIC_KINDS:
        return Gate(kind, float(rng.uniform(-2 * math.pi, 2 * math.pi)))
    return Gate(kind)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def ordered_selections(n):
    """Every permutation of every non-empty subset of ``n`` qubits."""
    return [q for k in range(1, n + 1) for q in itertools.permutations(range(n), k)]


class TestRng:
    def test_first_output_of_known_state(self):
        # for state (1, 2, 3, 4): rotl(2*5, 7) * 9 = 1280 * 9
        gen = Xoshiro256StarStar(0)
        gen._s = [1, 2, 3, 4]
        assert gen.next_u64() == 11520

    def test_streams_are_reproducible(self):
        a = [Xoshiro256StarStar(42).next_u64() for _ in range(5)]
        b = [Xoshiro256StarStar(42).next_u64() for _ in range(5)]
        assert a == b

    def test_uniform_range(self):
        gen = Xoshiro256StarStar(7)
        draws = [gen.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6


class TestGateMatrices:
    def test_hadamard_columns_match_truth_table(self):
        m = gate_matrix(Gate(GateKind.HADAMARD))
        np.testing.assert_allclose(m[:, 0], [SQRT1_2, SQRT1_2], atol=1e-15)
        np.testing.assert_allclose(m[:, 1], [SQRT1_2, -SQRT1_2], atol=1e-15)

    def test_phase_special_cases(self):
        z = gate_matrix(Gate(GateKind.PAULI_Z))
        s = np.diag([1, 1j])
        t = np.diag([1, np.exp(1j * math.pi / 4)])
        assert np.abs(gate_matrix(Gate(GateKind.PHASE, math.pi)) - z).max() < 1e-12
        assert np.abs(gate_matrix(Gate(GateKind.PHASE, math.pi / 2)) - s).max() < 1e-12
        assert np.abs(gate_matrix(Gate(GateKind.PHASE, math.pi / 4)) - t).max() < 1e-12

    @pytest.mark.parametrize("lam", [math.pi / 3, 1.0, 2.5])
    def test_phase_is_rz_up_to_global_phase(self, lam):
        lhs = gate_matrix(Gate(GateKind.PHASE, lam))
        rhs = np.exp(0.5j * lam) * gate_matrix(Gate(GateKind.RZ, lam))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_returned_matrices_are_read_only(self):
        for kind in ALL_KINDS:
            gate = Gate(kind, 0.5) if kind in qvm.ir.PARAMETRIC_KINDS else Gate(kind)
            with pytest.raises(ValueError):
                gate_matrix(gate)[1, 1] = 5
            # equal gates share the one read-only matrix, however they are made
            wire = qvm.serialize(qvm.QuantumCode(1, (qvm.Alloc(1), qvm.GateApp(gate, 0))))
            negated = None if gate.angle is None else -gate.angle
            equals = [
                Gate(kind.value, gate.angle),
                Gate(kind, negated).inverse(),
                dataclasses.replace(gate),
                copy.copy(gate),
                copy.deepcopy(gate),
                pickle.loads(pickle.dumps(gate)),
                qvm.deserialize(wire).instructions[1].gate,
            ]
            for equal in equals:
                assert equal == gate and equal.matrix is gate_matrix(gate)
                with pytest.raises(ValueError):
                    equal.matrix[0, 0] = 5
        state = apply_kernel(StateVector.zero(1), gate_matrix(Gate(GateKind.HADAMARD)), 0)
        assert np.array_equal(state.amps, [SQRT1_2, SQRT1_2])

    @given(st.integers(0, 10**6))
    def test_every_gate_is_unitary_and_inverse_is_dagger(self, seed):
        gate = random_gate(np.random.default_rng(seed))
        m = gate_matrix(gate)
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
        assert np.abs(gate_matrix(gate.inverse()) - m.conj().T).max() < 1e-12


class TestStateVector:
    def test_states_compare_and_hash_by_identity(self):
        # a generated == would compare the amplitude arrays and raise numpy's
        # "truth value of an array is ambiguous"
        state, twin = StateVector.basis(2, 1), StateVector.basis(2, 1)
        assert state == state and not state != state
        assert state != twin and not state == twin
        assert hash(state) == hash(state)
        assert len({state, twin, state}) == 2


class TestApplyKernel:
    def test_cnot_truth_table(self):
        x = gate_matrix(Gate(GateKind.PAULI_X))
        for source, expected in [(0b00, 0b00), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)]:
            state = apply_kernel(StateVector.basis(2, source), x, target=1, controls=[0])
            assert abs(state.amps[expected] - 1.0) < 1e-12

    def test_bell_preparation(self):
        state = StateVector.zero(2)
        apply_kernel(state, gate_matrix(Gate(GateKind.HADAMARD)), 0)
        apply_kernel(state, gate_matrix(Gate(GateKind.PAULI_X)), 1, [0])
        np.testing.assert_allclose(state.amps, [SQRT1_2, 0, 0, SQRT1_2], atol=1e-15)

    def test_index_errors(self):
        state = StateVector.zero(2)
        x = gate_matrix(Gate(GateKind.PAULI_X))
        with pytest.raises(IndexOverlap):
            apply_kernel(state, x, 0, [0])
        with pytest.raises(IndexOutOfRange):
            apply_kernel(state, x, 2)
        with pytest.raises(IndexOutOfRange):
            apply_kernel(state, x, 0, [5])

    def test_view_cache_is_keyed_by_state_size(self):
        x = gate_matrix(Gate(GateKind.PAULI_X))
        apply_kernel(StateVector.zero(3), x, 2)
        with pytest.raises(IndexOutOfRange):
            apply_kernel(StateVector.zero(2), x, 2)

    def test_overlap_raises_on_every_call(self):
        x = gate_matrix(Gate(GateKind.PAULI_X))
        for _ in range(2):
            with pytest.raises(IndexOverlap):
                apply_kernel(StateVector.zero(3), x, 1, [0, 1])

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_index_errors_raise_on_every_call_at_gathered_sizes(self, n):
        # every call below has sides under _IN_PLACE_MIN, so it reads _pair_gather's cache
        assert 1 << (n - 1) < qvm.simulator._IN_PLACE_MIN
        x = gate_matrix(Gate(GateKind.PAULI_X))
        cases = [
            (n, (), IndexOutOfRange),
            (-1, (), IndexOutOfRange),
            (0, (n,), IndexOutOfRange),
            (0, (0,), IndexOverlap),
            (n - 1, (0,) * (n + 1), IndexOverlap),  # more controls than qubits
        ]
        state = StateVector.zero(n)
        for target, controls, error in cases:
            for _ in range(3):
                with pytest.raises(error):
                    apply_kernel(state, x, target, controls)
        assert state.amps[0] == 1 and not state.amps[1:].any()

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_index_errors_raise_on_every_call_at_product_sizes(self, n):
        # states of at most 64 amplitudes, the sizes of short many-shot programs,
        # where a diagonal gate's sides can be one amplitude each
        sim = qvm.simulator
        assert 1 << n <= 64
        cases = [
            (n, (), IndexOutOfRange),
            (-1, (), IndexOutOfRange),
            (0, (n,), IndexOutOfRange),
            (0, (0,), IndexOverlap),
            (n - 1, (0,) * (n + 1), IndexOverlap),  # more controls than qubits
        ]
        state = StateVector.zero(n)
        sim._pair_gather.cache_clear()
        # one gate of each rule, and a Y, which sums products: dense, X, Y and diagonal
        for gate in (
            Gate(GateKind.HADAMARD),
            Gate(GateKind.PAULI_X),
            Gate(GateKind.PAULI_Y),
            Gate(GateKind.RZ, 0.5),
        ):
            for target, controls, error in cases:
                for _ in range(3):
                    with pytest.raises(error):
                        apply_kernel(state, gate_matrix(gate), target, controls)
        assert sim._pair_gather.cache_info().currsize == 0  # nothing cached
        assert state.amps[0] == 1 and not state.amps[1:].any()

    def test_gathered_index_cache_holds_at_most_8_mib(self):
        sim = qvm.simulator
        x = gate_matrix(Gate(GateKind.PAULI_X))
        largest = sim._IN_PLACE_MIN.bit_length() - 1  # sides of _IN_PLACE_MIN / 2
        sim._pair_gather.cache_clear()
        apply_kernel(StateVector.zero(largest), x, 0)
        assert sim._pair_gather.cache_info().currsize == 1
        apply_kernel(StateVector.zero(largest + 1), x, 0)  # sides of _IN_PLACE_MIN: a view
        assert sim._pair_gather.cache_info().currsize == 1
        entry = sim._pair_gather(largest, 0, ())
        # each array owns its indices or is a view of one the entry holds, so the
        # sum below counts every index once
        arrays = [item for item in entry if isinstance(item, np.ndarray)]
        assert all(a.base is None or any(a.base is b for b in arrays) for a in arrays)
        entry_bytes = sys.getsizeof(entry) + sum(map(sys.getsizeof, entry))
        assert entry_bytes * sim._pair_gather.cache_info().maxsize <= 8 << 20

    def test_gathered_indices_cannot_be_written(self):
        # the cache's arrays are shared by every later call on the same qubits
        sim = qvm.simulator
        largest = sim._IN_PLACE_MIN.bit_length() - 1  # sides of _IN_PLACE_MIN / 2
        for n, controls in ((3, ()), (3, (1,)), (largest, ()), (largest + 1, (1,))):
            assert 1 << (n - 1 - len(controls)) < sim._IN_PLACE_MIN
            entry = sim._pair_gather(n, 0, controls)
            arrays = [item for item in entry if isinstance(item, np.ndarray)]
            assert len(arrays) == (7 if controls else 6)
            for array in arrays:
                before = array.copy()
                with pytest.raises(ValueError):
                    array[...] = 0
                with pytest.raises(ValueError):
                    array += 1
                with pytest.raises(ValueError):
                    np.negative(array, out=array)
                assert np.array_equal(array, before)

    @pytest.mark.parametrize("n", [*range(1, 9), 13])
    def test_matches_pair_oracle_in_the_sign_of_zeros(self, n):
        # np.array_equal finds -0.0 equal to 0.0, so this compares bit patterns,
        # on states whose components are often zeros of either sign, for every
        # rule: diagonal, X, and products for the rest, anti-diagonal ones too.
        # Flat indices serve n <= 8, and pair views n = 13, whose sides with at
        # most one control hold _IN_PLACE_MIN or more.
        assert 1 << (13 - 2) >= qvm.simulator._IN_PLACE_MIN
        rng = np.random.default_rng(n)
        matrices = [
            gate_matrix(Gate(GateKind.HADAMARD)),
            gate_matrix(Gate(GateKind.RY, 0.7)),
            gate_matrix(Gate(GateKind.RZ, 0.7)),
            gate_matrix(Gate(GateKind.PHASE, 0.7)),
            gate_matrix(Gate(GateKind.PAULI_Z)),
            gate_matrix(Gate(GateKind.PAULI_X)),
            gate_matrix(Gate(GateKind.PAULI_Y)),
            np.array([[0, np.exp(0.3j)], [np.exp(-1.1j), 0]]),
        ]
        for case in range(60):
            target = int(rng.integers(n))
            others = [q for q in range(n) if q != target]
            rng.shuffle(others)
            controls = others[: rng.integers(0, n if n <= 8 else 2)]
            amps = rng.choice([0.0, -0.0, 0.6, -0.8, 1.5], size=2 << n).view(complex)
            matrix = matrices[case % len(matrices)]
            expected = pair_oracle(amps, n, matrix, target, controls)
            got = apply_kernel(StateVector(n, amps), matrix, target, controls).amps
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (
                n, target, controls, matrix,
            )

    def test_matches_dense_oracle_on_200_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            target = int(rng.integers(n))
            others = [q for q in range(n) if q != target]
            rng.shuffle(others)
            controls = others[: rng.integers(0, len(others) + 1)]
            gate = random_gate(rng)
            state = random_state(rng, n)
            expected = dense_controlled(gate_matrix(gate), n, target, controls) @ state.amps
            got = apply_kernel(state, gate_matrix(gate), target, controls)
            assert np.abs(got.amps - expected).max() < 1e-10

    @pytest.mark.parametrize(
        "low, high, max_controls, cases, forms",
        [
            (1, 8, 3, 300, {False}),
            (9, 14, 3, 60, {False, True}),
            (17, 17, 2, 18, {True}),
            (1, 6, 5, 600, {False}),
        ],
        ids=["two-copy", "mid", "in-place", "coefficients"],
    )
    def test_matches_pair_oracle_bit_for_bit(self, low, high, max_controls, cases, forms):
        # Bit-exactness rests on numpy's rounding (see apply_kernel); it was
        # verified with numpy 2.4.6 on an x86-64 host with AVX-512.
        rng = np.random.default_rng(2026)

        def phase():
            return complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))

        def unitary():
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            return q * (np.diag(r) / np.abs(np.diag(r)))

        matrices = [
            lambda: np.diag([phase(), phase()]),
            lambda: np.diag([1, phase()]),
            lambda: np.diag([phase(), 1]),
            lambda: gate_matrix(Gate(GateKind.PAULI_Z)),
            lambda: gate_matrix(Gate(GateKind.PAULI_X)),
            lambda: gate_matrix(Gate(GateKind.PAULI_Y)),
            lambda: np.array([[0, phase()], [phase(), 0]]),
            lambda: gate_matrix(Gate(GateKind.HADAMARD)),
            unitary,
        ]
        in_place = set()
        for case in range(cases):
            n = int(rng.integers(low, high + 1))
            target = int(rng.integers(n))
            others = [q for q in range(n) if q != target]
            rng.shuffle(others)
            controls = others[: rng.integers(0, min(max_controls, n - 1) + 1)]
            in_place.add(1 << (n - 1 - len(controls)) >= qvm.simulator._IN_PLACE_MIN)
            matrix = np.asarray(matrices[case % len(matrices)](), dtype=complex)
            state = random_state(rng, n)
            expected = pair_oracle(state.amps, n, matrix, target, controls)
            got = apply_kernel(state, matrix, target, controls)
            assert np.array_equal(got.amps, expected), (n, target, controls, matrix)
        # the row's views lie below _IN_PLACE_MIN (False), from it on (True), or both
        assert in_place == forms

    @pytest.mark.parametrize("n, count", [(13, 0), (13, 1), (14, 2)])
    def test_every_pair_view_layout_matches_pair_oracle_bit_for_bit(self, n, count):
        # A pair view reshapes the state around the gate's qubits, so its layout
        # depends on where the target lies among the controls and on which runs
        # of other qubits before, between and after them are empty.  This takes
        # every target with every set of `count` controls, each with one rule in
        # turn, on a state with zeros of either sign, and compares bit patterns.
        assert 1 << (n - 1 - count) >= qvm.simulator._IN_PLACE_MIN
        rng = np.random.default_rng(n + count)
        parts = rng.normal(size=2 << n)
        parts[rng.random(2 << n) < 0.2] = 0.0
        parts[rng.random(2 << n) < 0.1] = -0.0
        base = parts.view(complex)
        a, b, c = (complex(np.exp(1j * angle)) for angle in (0.3, -1.1, 2.0))
        matrices = [
            np.diag([1, a]),  # diagonal with a factor of exactly 1
            np.diag([a, b]),
            gate_matrix(Gate(GateKind.PAULI_X)),
            np.array([[0.6 * a, -0.8 * b], [0.8 * c, 0.6 * c * b / a]]),  # dense
        ]
        patterns = [
            (target, controls)
            for target in range(n)
            for controls in itertools.combinations([q for q in range(n) if q != target], count)
        ]
        for case, (target, controls) in enumerate(patterns):
            matrix = matrices[case % len(matrices)]
            controls = controls[::-1] if case % 2 else controls  # the kernel's order is free
            expected = pair_oracle(base, n, matrix, target, controls)
            got = apply_kernel(StateVector(n, base.copy()), matrix, target, controls).amps
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (
                target, controls, matrix,
            )

    @pytest.mark.parametrize(
        "kind, bound",
        [(GateKind.HADAMARD, 1.5), (GateKind.PAULI_X, 1.1), (GateKind.PAULI_Y, 1.5)],
    )
    def test_uncontrolled_gate_allocates_at_most_bound_states(self, kind, bound):
        n = 16
        state_bytes = 16 << n
        matrix = gate_matrix(Gate(kind))
        for target in (0, n // 2, n - 1):
            state = StateVector.zero(n)
            tracemalloc.start()
            try:
                live, _ = tracemalloc.get_traced_memory()
                apply_kernel(state, matrix, target)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - live <= bound * state_bytes, (target, (peak - live) / state_bytes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        apply_kernel(state, gate_matrix(Gate(GateKind.RY, 1.1)), 2, [0, 3])
        assert abs(state.norm_sq() - 1.0) < 1e-12


class FixedDraw:
    """Stands in for the generator: every ``uniform()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestMeasureKernel:
    def bell_state(self):
        state = StateVector.zero(2)
        apply_kernel(state, gate_matrix(Gate(GateKind.HADAMARD)), 0)
        apply_kernel(state, gate_matrix(Gate(GateKind.PAULI_X)), 1, [0])
        return state

    def test_bell_outcomes_and_frequencies(self):
        counts = {0: 0, 3: 0}
        for seed in range(10000):
            outcome, _ = measure_kernel(self.bell_state(), (0, 1), Xoshiro256StarStar(seed))
            assert outcome in (0, 3)
            counts[outcome] += 1
        assert 0.47 <= counts[0] / 10000 <= 0.53

    def test_partial_measure_collapses_to_consistent_state(self):
        for seed in range(50):
            state = self.bell_state()
            outcome, collapsed = measure_kernel(state, (0,), Xoshiro256StarStar(seed))
            expected = np.zeros(4, dtype=complex)
            expected[0b11 if outcome else 0b00] = 1.0
            np.testing.assert_allclose(collapsed.amps, expected, atol=1e-12)

    def test_basis_state_is_deterministic(self):
        state = StateVector.basis(1, 0)
        outcome, collapsed = measure_kernel(state, (0,), Xoshiro256StarStar(99))
        assert outcome == 0
        np.testing.assert_allclose(collapsed.amps, [1, 0], atol=1e-15)

    def test_first_listed_qubit_is_msb(self):
        state = StateVector.basis(2, 0b01)  # qubit0=0, qubit1=1
        outcome, _ = measure_kernel(state, (1, 0), Xoshiro256StarStar(0))
        assert outcome == 0b10

    def test_empty_selection_rejected_before_the_draw(self):
        state = random_state(np.random.default_rng(3), 3)
        before = state.amps.copy()
        rng = Xoshiro256StarStar(8)
        with pytest.raises(ValueError, match="^measurement selection is empty$"):
            measure_kernel(state, (), rng)
        assert np.array_equal(state.amps.view(np.uint64), before.view(np.uint64))
        assert rng.uniform() == Xoshiro256StarStar(8).uniform()  # no draw taken

    def test_degenerate_state_detected(self):
        state = StateVector(1, np.zeros(2, dtype=complex))
        with pytest.raises(DegenerateState):
            measure_kernel(state, (0,), Xoshiro256StarStar(0))

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "no probability mass left"), (math.inf, "infinite probability mass")],
    )
    def test_non_finite_state_rejected_before_the_draw(self, bad, message):
        state = random_state(np.random.default_rng(4), 3)
        state.amps[5] = bad
        before = state.amps.copy()
        rng = Xoshiro256StarStar(8)
        with pytest.raises(DegenerateState, match=f"^state has {message}$"):
            measure_kernel(state, (2, 0), rng)
        assert np.array_equal(state.amps.view(np.uint64), before.view(np.uint64))
        assert rng.uniform() == Xoshiro256StarStar(8).uniform()  # no draw taken

    def test_draw_past_an_unnormalized_total_takes_the_last_possible_outcome(self):
        state = StateVector(2, np.array([0.5, 0.5, 0, 0], dtype=complex))  # total 0.5
        outcome, collapsed = measure_kernel(state, (0, 1), FixedDraw(0.9))
        assert outcome == 1
        np.testing.assert_array_equal(collapsed.amps, [0, 1, 0, 0])

    def test_sampled_outcome_without_probability_is_degenerate(self):
        state = StateVector(1, np.array([1e-7, 1], dtype=complex))  # p(0) = 1e-14
        with pytest.raises(DegenerateState, match="^sampled outcome 0 has probability "):
            measure_kernel(state, (0,), FixedDraw(0.0))

    def test_matches_per_index_oracle_on_300_random_cases(self):
        rng = np.random.default_rng(2210)
        for seed in range(300):
            n = int(rng.integers(1, 7))
            qubits = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)])
            state = random_state(rng, n)
            state.amps[rng.random(1 << n) < 0.3] = 0  # some outcomes impossible
            state.amps[0] = 1
            state.amps /= np.linalg.norm(state.amps)
            want_outcome, want_amps = measure_oracle(
                state.amps, n, qubits, Xoshiro256StarStar(seed).uniform()
            )
            outcome, collapsed = measure_kernel(state, qubits, Xoshiro256StarStar(seed))
            assert outcome == want_outcome
            assert np.abs(collapsed.amps - want_amps).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_ordered_selection_matches_per_index_oracle(self, n):
        rng = np.random.default_rng(n)
        for qubits in ordered_selections(n):
            state = random_state(rng, n)
            state.amps[rng.random(1 << n) < 0.3] = 0  # some outcomes impossible
            state.amps[rng.integers(1 << n)] = 1
            state.amps /= np.linalg.norm(state.amps)
            for u in (0.0, 0.5, 0.99):
                want_outcome, want_amps = measure_oracle(state.amps, n, qubits, u)
                fresh = StateVector(n, state.amps.copy())
                outcome, collapsed = measure_kernel(fresh, qubits, FixedDraw(u))
                assert outcome == want_outcome, (qubits, u)
                assert np.abs(collapsed.amps - want_amps).max() < 1e-12, (qubits, u)

    def test_statistics_match_born_rule(self):
        # amplitudes fixed arbitrarily; 20000 seeded draws per state
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            state = random_state(rng, n)
            probs = np.abs(state.amps) ** 2
            counts = np.zeros(1 << n)
            trials = 20000
            for seed in range(trials):
                fresh = StateVector(n, state.amps.copy())
                outcome, _ = measure_kernel(fresh, tuple(range(n)), Xoshiro256StarStar(seed))
                counts[outcome] += 1
            assert np.abs(counts / trials - probs).max() <= 0.02


class TestExtractDump:
    def test_full_bell_selection(self):
        state = StateVector(2, np.array([SQRT1_2, 0, 0, SQRT1_2], dtype=complex))
        data = extract_dump(state, (0, 1))
        assert data.qubits == (0, 1)
        assert [b for b, _ in data.basis_states] == [0, 3]
        for _, amp in data.basis_states:
            assert abs(amp - SQRT1_2) < 1e-12

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="^dump selection is empty$"):
            extract_dump(StateVector.zero(1), ())

    @pytest.mark.parametrize("amps", [[0, 0, 0, 0], [0.5, math.nan, 0.5, 0.5]])
    def test_state_without_mass_is_degenerate(self, amps):
        state = StateVector(2, np.array(amps, dtype=complex))
        with pytest.raises(DegenerateState, match="^state has no probability mass left$"):
            extract_dump(state, (0,))

    def test_single_qubit_of_bell_pair_is_entangled(self):
        state = StateVector(2, np.array([SQRT1_2, 0, 0, SQRT1_2], dtype=complex))
        with pytest.raises(EntangledSelection):
            extract_dump(state, (0,))

    def test_separable_selection_of_product_state(self):
        plus = np.array([SQRT1_2, SQRT1_2])
        one = np.array([0, 1])
        state = StateVector(2, np.kron(one, plus).astype(complex))
        data = extract_dump(state, (1,))
        np.testing.assert_allclose(
            [amp for _, amp in data.basis_states], [SQRT1_2, SQRT1_2], atol=1e-12
        )

    def test_sign_convention_flips_negative_leads(self):
        state = StateVector(1, np.array([-SQRT1_2, SQRT1_2], dtype=complex))
        data = extract_dump(state, (0,))
        assert data.basis_states[0][1].real > 0
        assert data.basis_states[1][1].real < 0

    def test_imaginary_lead_in_right_half_plane_is_kept(self):
        state = StateVector(1, np.array([0, 1j], dtype=complex))
        data = extract_dump(state, (0,))
        assert data.basis_states == ((1, 1j),)

    def test_selection_order_sets_bit_order(self):
        state = StateVector.basis(2, 0b01)
        data = extract_dump(state, (1, 0))
        assert data.basis_states == ((0b10, (1 + 0j)),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_ordered_selection_of_a_product_state(self, n):
        # each factor is (±cos θ, e^{iφ} sin θ) with θ < π/4, so the group in
        # which every unselected qubit reads 0 is the reference and its phase
        # is ±1: the dump is the selected factors' kron up to the sign rule
        rng = np.random.default_rng(n)
        for qubits in ordered_selections(n):
            theta = rng.uniform(0.2, 0.7, size=n)
            factors = [
                np.array([rng.choice((-1, 1)) * math.cos(t), np.exp(1j * phi) * math.sin(t)])
                for t, phi in zip(theta, rng.uniform(-math.pi, math.pi, size=n))
            ]
            data = extract_dump(StateVector(n, kron_all(factors).ravel()), qubits)
            want = kron_all(factors[q] for q in qubits).ravel()
            want /= np.linalg.norm(want)
            if want[0].real < 0:
                want = -want
            assert data.qubits == qubits
            assert np.abs(dump_vector(data) - want).max() < 1e-12, qubits

    def test_one_ulp_in_a_group_norm_keeps_the_global_phase(self):
        # qubit 0 is (|0⟩ + i|1⟩)/√2, so the two groups of a qubit-1 dump
        # tie in norm and differ in phase by i
        plus = np.array([SQRT1_2, SQRT1_2])
        tied = np.kron(np.array([SQRT1_2, 1j * SQRT1_2]), plus)
        nudged = tied.copy()
        nudged[2:] *= 1 + 2.0**-52
        want = extract_dump(StateVector(2, tied), (1,))
        got = extract_dump(StateVector(2, nudged), (1,))
        assert got == want


class TestExecute:
    def test_kernels_are_looked_up_on_every_run(self, monkeypatch):
        p = qvm.new_process()
        a, b = p.alloc(2)
        qvm.h(a)
        f = p.measure([a])
        p.branch(f, 1, lambda: qvm.x(b))
        p.dump_state([a, b])
        code = p.code
        first = execute(code, seed=4)  # lowers the program and keeps its ops
        calls = []
        sim = qvm.simulator
        for name in ("apply_kernel", "measure_kernel", "extract_dump"):
            original = getattr(sim, name)
            monkeypatch.setattr(
                sim, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
            )
        norm_sq = StateVector.norm_sq
        monkeypatch.setattr(StateVector, "norm_sq", lambda s: calls.append("norm_sq") or norm_sq(s))
        assert execute(code, seed=4) == first
        gates = 1 + first.futures[0]
        assert calls.count("apply_kernel") == gates
        assert calls.count("measure_kernel") == calls.count("extract_dump") == 1
        assert calls.count("norm_sq") == 1 + gates + 2  # alloc, gates, measure, dump

    def test_a_code_validate_does_not_remember_is_lowered_on_every_run(self):
        # each run reads the program once, in validate: pass 1 is the first run's, pass 2 the second's
        dump = qvm.Dump((0,), 0)
        items = ShiftingTuple(
            (qvm.Alloc(1), dump), (qvm.Alloc(1), qvm.GateApp(Gate(GateKind.PAULI_X), 0), dump), 2
        )
        code = qvm.QuantumCode(1, items, 0, 1)
        assert execute(code).dumps[0].basis_states == ((0, 1 + 0j),)
        assert execute(code).dumps[0].basis_states == ((1, 1 + 0j),)

    def test_alloc_only_program(self):
        code = qvm.QuantumCode(3, (qvm.Alloc(3), qvm.Dump((0, 1, 2), 0)), 0, 1)
        result = execute(code, seed=9)
        assert result.futures == {}
        assert result.dumps[0].basis_states == ((0, (1 + 0j)),)

    def test_mid_program_alloc_extends_with_zeros(self):
        p = qvm.new_process()
        (a,) = p.alloc(1)
        qvm.x(a)
        (b,) = p.alloc(1)
        p.dump_state([a, b])
        result = execute(p.code, seed=0)
        assert result.dumps[0].basis_states == ((0b10, (1 + 0j)),)

    def test_deterministic_in_code_and_seed(self):
        p = qvm.new_process()
        qs = p.alloc(3)
        for q in qs:
            qvm.h(q)
        p.measure(qs)
        p.dump_state(qs)
        code = p.code
        first = execute(code, seed=1234)
        second = execute(code, seed=1234)
        assert first == second

    def test_branch_applied_iff_condition_holds(self):
        for equals, expected in [(1, 1), (0, 0)]:
            p = qvm.new_process()
            a, b = p.alloc(2)
            qvm.x(a)
            f = p.measure([a])
            p.branch(f, equals, lambda: qvm.x(b))
            m = p.measure([b])
            result = execute(p.code, seed=0)
            assert result.futures[f.future_id] == 1
            assert result.futures[m.future_id] == expected

    def test_state_is_freed_when_execute_returns(self, monkeypatch):
        created = []
        zero = StateVector.zero

        def tracked_zero(n):
            state = zero(n)
            created.append(weakref.ref(state))
            return state

        monkeypatch.setattr(StateVector, "zero", tracked_zero)
        p = qvm.new_process()
        a, b = p.alloc(2)
        qvm.h(a)
        f = p.measure([a])
        p.branch(f, 1, lambda: qvm.x(b))
        p.measure([b])
        gc.disable()
        try:
            execute(p.code, seed=0)
            # no reference cycle may hold the state until a collection
            assert len(created) == 1 and created[0]() is None
        finally:
            gc.enable()

    def test_norm_drift_raises_engine_failure(self, monkeypatch):
        def doubling(state, matrix, target, controls=()):
            state.amps *= 2
            return state

        monkeypatch.setattr(qvm.simulator, "apply_kernel", doubling)
        p = qvm.new_process()
        (a,) = p.alloc(1)
        qvm.h(a)
        with pytest.raises(EngineFailure, match="norm drifted"):
            execute(p.code)

    def test_norm_drift_raises_under_python_optimize(self):
        script = (
            "import numpy as np, qvm, qvm.simulator as sim\n"
            "sim.apply_kernel = lambda state, *args: np.multiply(state.amps, 2, out=state.amps)\n"
            "p = qvm.new_process()\n"
            "qvm.h(p.alloc(1)[0])\n"
            "try:\n"
            "    sim.execute(p.code)\n"
            "except qvm.EngineFailure:\n"
            "    print('EngineFailure')\n"
        )
        src = str(Path(qvm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "EngineFailure\n"

    def test_invalid_code_rejected(self):
        bad = qvm.QuantumCode(1, (qvm.Alloc(1), qvm.GateApp(Gate(GateKind.PAULI_X), 5)), 0, 0)
        with pytest.raises(MalformedCode):
            execute(bad)


class TestAlgebraicProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_sequence_then_adjoint_returns_to_prefix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))

        def random_ops(count):
            ops = []
            for _ in range(count):
                gate = random_gate(rng)
                target = int(rng.integers(n))
                controls = []
                if n > 1 and rng.random() < 0.4:
                    controls = [int(c) for c in rng.choice(
                        [q for q in range(n) if q != target],
                        size=rng.integers(1, n),
                        replace=False,
                    )]
                ops.append((gate, target, tuple(controls)))
            return ops

        prefix = random_ops(int(rng.integers(0, 8)))
        middle = random_ops(int(rng.integers(1, 31)))

        def emit(process, qubits, ops):
            for gate, target, controls in ops:
                if controls:
                    process.ctrl_begin([qubits[c] for c in controls])
                process.apply_gate(gate, qubits[target])
                if controls:
                    process.ctrl_end()

        reference = qvm.new_process()
        emit(reference, reference.alloc(n), prefix)

        round_trip = qvm.new_process()
        qs = round_trip.alloc(n)
        emit(round_trip, qs, prefix)
        emit(round_trip, qs, middle)
        with qvm.adj(round_trip):
            emit(round_trip, qs, middle)

        want = run_gates(reference.code, StateVector.zero(n))
        got = run_gates(round_trip.code, StateVector.zero(n))
        assert np.abs(got.amps - want.amps).max() < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_hadamard_equals_ry_then_x(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)

        via_h = StateVector(1, amps.copy())
        apply_kernel(via_h, gate_matrix(Gate(GateKind.HADAMARD)), 0)

        via_ry = StateVector(1, amps.copy())
        apply_kernel(via_ry, gate_matrix(Gate(GateKind.RY, math.pi / 2)), 0)
        apply_kernel(via_ry, gate_matrix(Gate(GateKind.PAULI_X)), 0)

        assert np.abs(via_h.amps - via_ry.amps).max() < 1e-10

    def test_norm_holds_after_every_instruction(self):
        # long random program through the full interpreter
        rng = np.random.default_rng(77)
        p = qvm.new_process()
        qs = p.alloc(4)
        for _ in range(60):
            kind = rng.integers(3)
            target = qs[rng.integers(4)]
            if kind == 0:
                p.apply_gate(random_gate(rng), target)
            elif kind == 1:
                other = qs[(target.index + 1) % 4]
                qvm.cnot(other, target)
            else:
                p.measure([target])
        p.dump_state(qs)
        execute(p.code, seed=3)  # interpreter asserts normalization internally


def gate_apps(allocated):
    """Gates of every kind on ``allocated`` qubits, with 0-2 controls."""
    kinds = st.sampled_from(ALL_KINDS)
    gates = kinds.flatmap(
        lambda kind: st.floats(-10, 10).map(lambda a: Gate(kind, a))
        if kind in qvm.ir.PARAMETRIC_KINDS
        else st.just(Gate(kind))
    )
    qubits = st.lists(
        st.integers(0, allocated - 1), min_size=1, max_size=min(3, allocated), unique=True
    )
    return st.builds(lambda gate, qs: qvm.GateApp(gate, qs[0], tuple(qs[1:])), gates, qubits)


@st.composite
def programs(draw):
    """Programs on 1-4 qubits of up to 25 steps, ending in a dump of every qubit.

    A step is a gate, a measurement of one or more qubits, a branch of 0-2
    gates on an earlier future, or an allocation of the qubits still missing.
    """
    n = draw(st.integers(1, 4))
    allocated = draw(st.integers(1, n))
    instructions = [qvm.Alloc(allocated)]
    widths = []  # qubits measured, by future id
    for _ in range(draw(st.integers(0, 25))):
        step = draw(st.sampled_from(["gate", "gate", "gate", "measure", "branch", "alloc"]))
        if step == "alloc" and allocated < n:
            instructions.append(qvm.Alloc(n - allocated))
            allocated = n
        elif step == "measure":
            qubits = draw(
                st.lists(st.integers(0, allocated - 1), min_size=1, max_size=allocated, unique=True)
            )
            instructions.append(qvm.Measure(tuple(qubits), len(widths)))
            widths.append(len(qubits))
        elif step == "branch" and widths:
            future = draw(st.integers(0, len(widths) - 1))
            equals = draw(st.integers(0, (1 << widths[future]) - 1))
            body = draw(st.lists(gate_apps(allocated), max_size=2))
            instructions.append(qvm.Branch(qvm.Condition(future, equals), tuple(body)))
        else:
            instructions.append(draw(gate_apps(allocated)))
    if allocated < n:
        instructions.append(qvm.Alloc(n - allocated))
    instructions.append(qvm.Dump(tuple(range(n)), 0))
    return qvm.QuantumCode(n, tuple(instructions), len(widths), 1)


TINY_RX = qvm.GateApp(Gate(GateKind.RX, 1e-12), 0)


class TestExecuteAgainstProgramOracle:
    @settings(max_examples=300)
    @given(programs(), st.integers(0, 2**64 - 1))
    # two RX(1e-12) leave an amplitude of magnitude exactly DUST, which the dump drops
    @example(qvm.QuantumCode(1, (qvm.Alloc(1), TINY_RX, TINY_RX, qvm.Dump((0,), 0)), 0, 1), 0)
    def test_futures_exact_and_final_dump_within_1e_12(self, code, seed):
        result = execute(code, seed)
        futures, amps = program_oracle(code, seed)
        assert result.futures == futures
        # the dump's rule: amplitudes of magnitude up to DUST are zero
        expected = np.where(np.abs(amps) > DUST, amps, 0)
        assert max_dev_up_to_phase(dump_vector(result.dumps[0]), expected) < 1e-12
