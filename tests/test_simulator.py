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
    assert_rejected_on_every_call,
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


def product_factors(rng, n):
    """``n`` one-qubit factors (±cos θ, e^{iφ} sin θ) with θ in [0.2, 0.7)."""
    theta = rng.uniform(0.2, 0.7, size=n)
    return [
        np.array([rng.choice((-1, 1)) * math.cos(t), np.exp(1j * phi) * math.sin(t)])
        for t, phi in zip(theta, rng.uniform(-math.pi, math.pi, size=n))
    ]


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

    def test_pair_view_layouts_with_three_controls_match_pair_oracle_bit_for_bit(self):
        # As the test above, one control further: at n = 15 the sides of a gate
        # with three controls hold exactly _IN_PLACE_MIN amplitudes, the
        # smallest pair view.  Every target, with 8 seeded sets of controls
        # each, takes the same four rules one after another.
        n = 15
        assert 1 << (n - 1 - 3) == qvm.simulator._IN_PLACE_MIN
        rng = np.random.default_rng(n + 3)
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
        for target in range(n):
            others = [q for q in range(n) if q != target]
            for _ in range(8):
                controls = tuple(int(q) for q in rng.choice(others, size=3, replace=False))
                for matrix in matrices:
                    expected = pair_oracle(base, n, matrix, target, controls)
                    got = apply_kernel(StateVector(n, base.copy()), matrix, target, controls).amps
                    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (
                        target, controls, matrix,
                    )

    @pytest.mark.parametrize("n", [16, 17])
    def test_blocked_pair_views_match_pair_oracle_bit_for_bit(self, n, monkeypatch):
        # X and dense gates run block by block on sides of more than _BLOCK
        # amplitudes: at n = 16 a gate with two controls still fits one block,
        # and every other gate here takes 2-8.  Every target, with 0, 1 and 2
        # seeded controls, takes the four rules above in turn, and the bits must
        # not depend on where the blocks are cut, so each case also runs with
        # blocks a quarter and twice the size.
        sim = qvm.simulator
        assert 1 << (16 - 1 - 2) == sim._BLOCK
        blocks = (sim._BLOCK, sim._BLOCK >> 2, sim._BLOCK << 1)
        rng = np.random.default_rng(n + 2)
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
        for target in range(n):
            others = [q for q in range(n) if q != target]
            for count in range(3):
                controls = tuple(int(q) for q in rng.choice(others, size=count, replace=False))
                matrix = matrices[(target + count) % len(matrices)]
                expected = pair_oracle(base, n, matrix, target, controls).view(np.uint64)
                for block in blocks:
                    monkeypatch.setattr(sim, "_BLOCK", block)
                    got = apply_kernel(StateVector(n, base.copy()), matrix, target, controls).amps
                    assert np.array_equal(got.view(np.uint64), expected), (
                        target, controls, matrix, block,
                    )

    @pytest.mark.parametrize("n", [16, 18])
    @pytest.mark.parametrize("controls", [(), (3,)], ids=["c0", "c1"])
    @pytest.mark.parametrize(
        "kind, blocks",
        [(GateKind.HADAMARD, 4), (GateKind.PAULI_X, 2), (GateKind.PAULI_Y, 4)],
    )
    def test_gate_on_a_pair_view_allocates_at_most_a_few_blocks(
        self, kind, blocks, controls, n, monkeypatch
    ):
        # the module docstring's table: on a pair view an X takes 2 blocks of
        # 16·_BLOCK bytes and any other dense matrix 4, at any state size, plus
        # a few KiB of array headers; checked at the module's block size and
        # at a smaller and a larger one
        sim = qvm.simulator
        matrix = gate_matrix(Gate(kind))
        for block in (sim._BLOCK >> 2, sim._BLOCK, sim._BLOCK << 2):
            monkeypatch.setattr(sim, "_BLOCK", block)
            bound = blocks * 16 * block + 8 * 1024
            for target in (0, n // 2, n - 1):
                state = StateVector.zero(n)
                tracemalloc.start()
                try:
                    live, _ = tracemalloc.get_traced_memory()
                    apply_kernel(state, matrix, target, controls)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak - live <= bound, (block, target, peak - live)

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

    @pytest.mark.parametrize("controls", [(), (3,), (3, 8)], ids=["c0", "c1", "c2"])
    @pytest.mark.parametrize(
        "gate, uncontrolled, controlled",
        [
            (Gate(GateKind.RZ, 0.7), 1.15, 2.15),
            (Gate(GateKind.PHASE, 0.7), 0.65, 0.65),
            (Gate(GateKind.PAULI_X), 1.15, 1.15),
            (Gate(GateKind.HADAMARD), 4.15, 4.15),
        ],
        ids=["one-product", "side-by-side", "x", "other"],
    )
    def test_flat_index_rule_allocates_at_most_its_table_row(
        self, gate, uncontrolled, controlled, controls
    ):
        # the module docstring's table, in t = 16·2^n / 2^c bytes, at a size
        # whose sides are under _IN_PLACE_MIN; each call first runs once
        # outside the measurement, so its cache entry is already built
        n = 10
        touched = (16 << n) >> len(controls)
        bound = controlled if controls else uncontrolled
        matrix = gate_matrix(gate)
        for target in (0, 5, n - 1):
            state = random_state(np.random.default_rng(target), n)
            apply_kernel(state, matrix, target, controls)
            tracemalloc.start()
            try:
                live, _ = tracemalloc.get_traced_memory()
                apply_kernel(state, matrix, target, controls)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - live <= bound * touched, (target, (peak - live) / touched)

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

    @pytest.mark.parametrize("n", range(5, 11))
    def test_measuring_every_qubit_matches_per_index_oracle(self, n):
        # a full selection fixes every axis of the view, so the kept
        # amplitude is read and scaled as one scalar
        rng = np.random.default_rng(100 + n)
        state = random_state(rng, n)
        state.amps[rng.random(1 << n) < 0.3] = 0  # some outcomes impossible
        state.amps[rng.integers(1 << n)] = 1
        state.amps /= np.linalg.norm(state.amps)
        for qubits in (tuple(range(n)), tuple(reversed(range(n)))):
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

    @pytest.mark.parametrize(
        "amps, qubits",
        [
            ([0.5, math.inf, 0.5, 0.5], (1,)),
            ([0.5, math.inf, 0.5, 0.5], (0, 1)),
            ([0.5, 1e200, 0.5, 0.5], (1,)),  # finite, but its square overflows
            ([0.5, 1e200, 0.5, 0.5], (0, 1)),
        ],
        ids=["inf-q1", "inf-q01", "1e200-q1", "1e200-q01"],
    )
    def test_state_with_infinite_mass_is_degenerate(self, amps, qubits):
        state = StateVector(2, np.array(amps, dtype=complex))
        before = state.amps.copy()
        with np.errstate(over="ignore"), pytest.raises(
            DegenerateState, match="^state has infinite probability mass$"
        ):
            extract_dump(state, qubits)
        assert np.array_equal(state.amps.view(np.uint64), before.view(np.uint64))

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
            factors = product_factors(rng, n)
            data = extract_dump(StateVector(n, kron_all(factors).ravel()), qubits)
            want = kron_all(factors[q] for q in qubits).ravel()
            want /= np.linalg.norm(want)
            if want[0].real < 0:
                want = -want
            assert data.qubits == qubits
            assert np.abs(dump_vector(data) - want).max() < 1e-12, qubits

    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_dump_of_every_qubit_of_a_product_state(self, n, reverse):
        # every amplitude of the kron is at least sin(0.2)^n, above DUST, so
        # the dump lists all 2^n basis states
        factors = product_factors(np.random.default_rng(n + reverse), n)
        qubits = tuple(range(n))[::-1] if reverse else tuple(range(n))
        data = extract_dump(StateVector(n, kron_all(factors).ravel()), qubits)
        want = kron_all(factors[q] for q in qubits).ravel()
        want /= np.linalg.norm(want)
        if want[0].real < 0:
            want = -want
        assert data.qubits == qubits
        assert [b for b, _ in data.basis_states] == list(range(1 << n))
        assert all(type(b) is int and type(amp) is complex for b, amp in data.basis_states)
        assert np.abs(dump_vector(data) - want).max() < 1e-12

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

    @pytest.mark.parametrize(
        "qubits, copied",
        [
            ((0,), False),
            ((7,), True),
            ((0, 1, 2), False),
            ((2, 1, 0), True),
            (tuple(range(16)), False),
            (tuple(reversed(range(16))), True),
        ],
        ids=["k1", "k1-middle", "k3", "k3-reversed", "kn", "kn-reversed"],
    )
    def test_readouts_allocate_at_most_the_docstring_bounds(self, qubits, copied):
        # the module docstring's readout bounds, in S = 16·2^n bytes, at
        # n = 16; what a readout keeps (the dump's tuples) is not counted,
        # and every amplitude of the product state is above DUST, so a dump
        # of every qubit lists all of them
        n, k = 16, len(qubits)
        state_bytes = 16 << n
        amps = kron_all(product_factors(np.random.default_rng(k), n)).ravel()
        readouts = {
            "measure": (
                lambda state: measure_kernel(state, qubits, Xoshiro256StarStar(k)),
                0.5 + 2.0 ** (k - n - 1),
            ),
            "dump": (lambda state: extract_dump(state, qubits), 2 + 4 * 2.0 ** (k - n) + copied),
        }
        for name, (readout, bound) in readouts.items():
            state = StateVector(n, amps.copy())
            tracemalloc.start()
            try:
                kept = readout(state)  # still alive, so ``after`` counts it
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            used = (peak - after) / state_bytes
            assert used <= bound + 0.15, (name, used)

    @pytest.mark.parametrize(
        "qubits",
        [(0,), (7,), (0, 1, 2), (2, 1, 0), (5, 6, 7), tuple(range(16)), tuple(reversed(range(16)))],
        ids=["k1", "k1-middle", "k3", "k3-reversed", "k3-middle", "kn", "kn-reversed"],
    )
    def test_readouts_allocate_at_most_the_blocked_bounds(self, qubits):
        # the rows of the module docstring's readout table that blocks made
        # stricter, in bytes at n = 16, where B = 16·_BLOCK is one block: a
        # measurement of every qubit takes S / 2 + 2·B, and a dump
        # 5·S / 2^(n-k) + S / 2^(k-1) + 4·B, that is, for k = 1 or 3, a few
        # blocks plus four floats per group
        n, k = 16, len(qubits)
        state_bytes, block = 16 << n, 16 * qvm.simulator._BLOCK
        amps = kron_all(product_factors(np.random.default_rng(k), n)).ravel()
        readouts = {
            "dump": (
                lambda state: extract_dump(state, qubits),
                5 * state_bytes / 2 ** (n - k) + state_bytes / 2 ** (k - 1) + 4 * block,
            ),
        }
        if k == n:
            readouts["measure"] = (
                lambda state: measure_kernel(state, qubits, Xoshiro256StarStar(k)),
                state_bytes / 2 + 2 * block,
            )
        for name, (readout, bound) in readouts.items():
            state = StateVector(n, amps.copy())
            tracemalloc.start()
            try:
                kept = readout(state)  # still alive, so ``after`` counts it
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - after <= bound, (name, peak - after, bound)


def unblocked_measure(state, qubits, u):
    """``measure_kernel`` as it was before its wide-state path ran in blocks."""
    k = len(qubits)
    view = qvm.simulator._selection(state, qubits, "measurement")
    probs = (np.abs(view) ** 2).sum(axis=tuple(range(state.n - k))).ravel()
    total = float(probs.sum())
    if not total >= 1e-12:
        raise DegenerateState("state has no probability mass left")
    if math.isinf(total):
        raise DegenerateState("state has infinite probability mass")
    outcome = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    if outcome >= len(probs):
        outcome = int(np.flatnonzero(probs > 0)[-1])
    p = float(probs[outcome])
    if p < 1e-12:
        raise DegenerateState(f"sampled outcome {outcome} has probability {p}")
    index = (..., *((outcome >> (k - 1 - j)) & 1 for j in range(k)))
    kept = view[index] * (1.0 / math.sqrt(p))
    state.amps.fill(0.0)
    view[index] = kept
    return outcome, state


def unblocked_dump(state, qubits):
    """``extract_dump`` as it was before its groups were read in blocks."""
    groups = qvm.simulator._selection(state, qubits, "dump").reshape(-1, 1 << len(qubits))
    norms = np.sqrt((np.abs(groups) ** 2).sum(axis=1))
    largest = norms.max()
    if not largest > 0:
        raise DegenerateState("state has no probability mass left")
    if math.isinf(largest):
        raise DegenerateState("state has infinite probability mass")
    dominant = int(np.argmax(norms >= largest * (1 - 1e-9)))
    reference = groups[dominant] / norms[dominant]
    residual = np.multiply(groups, reference.conj(), out=np.empty(groups.shape, dtype=complex))
    np.multiply.outer(residual.sum(axis=1), reference, out=residual)
    np.subtract(groups, residual, out=residual)
    squares = residual.view(float)
    np.square(squares, out=squares)
    residual_norms = np.sqrt(squares.sum(axis=1))
    if np.any((norms > 1e-9) & (residual_norms > 1e-9 * norms)):
        raise EntangledSelection(f"qubits {qubits} are entangled with the rest of the state")
    significant = np.flatnonzero(np.abs(reference) > DUST)
    vector = reference[significant]
    lead = vector[0]
    if not -math.pi / 2 < math.atan2(lead.imag, lead.real) <= math.pi / 2:
        vector = -vector
    return qvm.simulator.DumpData(qubits, tuple(zip(significant.tolist(), vector.tolist())))


class TestBlockedReadouts:
    @staticmethod
    def result(readout, *args):
        try:
            return readout(*args)
        except (DegenerateState, EntangledSelection) as error:
            return type(error), str(error)

    @pytest.mark.parametrize("n", [8, 13, 14, 16, 17, 18])
    def test_match_the_unblocked_formulas(self, n):
        # the same outcomes, collapsed bits, dumps and errors as the formulas
        # that read the whole state at once, from states of one block to
        # states of many: on an entangled state, a product state, one with
        # half its mass (so a draw of 0.9 passes the total), and states with
        # no, NaN and infinite mass; for k = n, k = n - 1 and k = 1 or 3, in
        # order, reversed and in the middle of the register
        rng = np.random.default_rng(n)
        product = kron_all(product_factors(rng, n)).ravel()
        nan, inf = product.copy(), product.copy()
        nan[5], inf[5] = math.nan, math.inf
        states = [
            random_state(rng, n).amps, product, product * SQRT1_2,
            np.zeros(1 << n, dtype=complex), nan, inf,
        ]
        selections = [
            tuple(range(n)), tuple(reversed(range(n))), tuple(range(1, n)),
            tuple(reversed(range(n - 1))), (0,), (n - 1,), (7,), (0, 1, 2), (2, 1, 0), (5, 6, 7),
        ]
        for case, amps in enumerate(states):
            for qubits in selections:
                for u in (0.0, 0.37, 0.9):
                    want = self.result(unblocked_measure, StateVector(n, amps.copy()), qubits, u)
                    got = self.result(
                        measure_kernel, StateVector(n, amps.copy()), qubits, FixedDraw(u)
                    )
                    if isinstance(want[1], StateVector):
                        assert got[0] == want[0], (case, qubits, u)
                        assert np.array_equal(
                            got[1].amps.view(np.uint64), want[1].amps.view(np.uint64)
                        ), (case, qubits, u)
                    else:
                        assert got == want, (case, qubits, u)
                want = self.result(unblocked_dump, StateVector(n, amps.copy()), qubits)
                got = self.result(extract_dump, StateVector(n, amps.copy()), qubits)
                assert got == want, (case, qubits)
                if isinstance(want, qvm.simulator.DumpData):
                    bits = [
                        np.array([a for _, a in d.basis_states]).view(np.uint64)
                        for d in (got, want)
                    ]
                    assert np.array_equal(*bits), (case, qubits)


class TestDraw:
    @pytest.mark.parametrize("block", [4, None], ids=["block4", "block"])
    def test_matches_one_cumulative_search(self, block, monkeypatch):
        # the outcome of one searchsorted over one cumsum, for draws of 0,
        # each block's last cumulative sum and its neighbours, random draws,
        # the total and past it, on distributions with runs of zero
        # probability across block edges; at a block size of 4 for every
        # length to 19, and at the module's block size for lengths of one
        # block less one, one block, one block and one, and three blocks and five
        sim = qvm.simulator
        if block:
            monkeypatch.setattr(sim, "_BLOCK", block)
            sizes = range(1, 20)
        else:
            block = sim._BLOCK
            sizes = (block - 1, block, block + 1, 3 * block + 5)
        rng = np.random.default_rng(block)
        for size in sizes:
            probs = rng.random(size)
            for edge in range(block, size, block):  # zeros on both sides of a block edge
                probs[max(edge - 2, 0) : edge + 3] = 0.0
            probs[probs < 0.1] = 0.0
            cumulative = np.cumsum(probs)
            ends = cumulative[block - 1 :: block]
            total = cumulative[-1]
            draws = [
                0.0, *ends, *np.nextafter(ends, -1.0), *np.nextafter(ends, 2.0 * total + 1),
                *(rng.random(20) * total), total, np.nextafter(total, np.inf), total + 1.0,
            ]
            for u in draws:
                want = int(np.searchsorted(cumulative, u, side="right"))
                assert sim._draw(probs, float(u)) == want, (size, u)
            assert sim._draw(probs, float(total)) == size


def pair_view(n, target, controls):
    """A gate's pair view of ``np.arange(1, 2^n + 1)``, built as ``apply_kernel`` builds it."""
    shape, index, start = [], [], 0
    for q in (qubits := sorted((target, *controls))):
        shape += (1 << (q - start), 2)
        index += (slice(None), slice(None) if q == target else 1)
        start = q + 1
    front = 1 + qubits.index(target)
    view = np.arange(1.0, (1 << n) + 1).reshape(*shape, 1 << (n - start))[tuple(index)]
    return view.transpose(front, *range(front), *range(front + 1, view.ndim))


@st.composite
def block_cases(draw):
    """``(array, limit, k)``: a pair view (k = 0) or a dump's ``view[None]`` of k qubits."""
    n = draw(st.integers(1, 10))
    limit = 1 << draw(st.integers(0, n + 1))
    qubits = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        target, controls = qubits[0], qubits[1 : draw(st.integers(1, n))]
        return pair_view(n, target, controls), limit, 0
    k = draw(st.integers(1, n))
    rest = sorted(qubits[k:])
    view = np.arange(1.0, (1 << n) + 1).reshape((2,) * n).transpose(rest + qubits[:k])
    return view[None], max(limit, 1 << k), k


def addresses(array):
    """The address in memory of each element of ``array``, in a flat array."""
    offsets = sum(i * stride for i, stride in zip(np.indices(array.shape), array.strides))
    return (array.__array_interface__["data"][0] + offsets).ravel()


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(block_cases())
    def test_cut_disjoint_views_that_cover_the_array(self, case):
        # the pieces are views that hold each of the array's elements once,
        # at the element's own address
        array, limit, k = case
        cut = qvm.simulator._blocks(array, limit)
        if array.size <= limit * len(array):
            assert type(cut) is tuple and len(cut) == 1 and cut[0] is array
        pieces = list(cut)
        for piece in pieces:
            assert len(piece) == len(array) and piece.size <= limit * len(array)
            assert piece.size % (1 << k) == 0  # a dump's blocks hold whole groups
            inner = piece.ndim - 1  # the chunked axis and those inside it
            assert piece.strides[0] == array.strides[0]
            assert piece.strides[1:] == array.strides[array.ndim - inner :]
            assert piece.shape[2:] == array.shape[array.ndim - inner + 1 :]
            assert np.shares_memory(piece, array)
        held = np.sort(np.concatenate([addresses(piece) for piece in pieces]))
        assert np.array_equal(held, np.sort(addresses(array)))


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

    def test_a_code_that_could_change_between_runs_is_rejected_on_every_run(self):
        # its items would differ from the first run to the second, so no run starts
        dump = qvm.Dump((0,), 0)
        items = ShiftingTuple(
            (qvm.Alloc(1), dump), (qvm.Alloc(1), qvm.GateApp(Gate(GateKind.PAULI_X), 0), dump), 2
        )
        code = qvm.QuantumCode(1, items, 0, 1)
        assert_rejected_on_every_call(code, "^program instructions must be a tuple, got ShiftingTuple$")

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

    def test_wide_qft_program_peaks_at_most_half_a_state_above_its_state(self):
        # the benchmark's qft-wide request in one execute at n = 18: no gate or
        # readout holds more than the S / 2 distribution of the full measure
        n = 18
        state_bytes = 16 << n
        p = qvm.new_process()
        qs = p.alloc(n)
        for q in qs[::3]:
            qvm.x(q)
        qvm.qft(qs)
        p.dump_state(qs[:3])
        p.measure(qs)
        code = p.code
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            result = execute(code, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.dumps[0].basis_states) == 8  # a product state, so the dump runs through
        assert peak - live - state_bytes <= state_bytes / 2 + (1 << 20), peak - live - state_bytes

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
