"""Independent reference computations used to check the engine.

Everything here is built from plain dense linear algebra (tensor products of
identities and projectors) and never calls the production kernels, except
where a helper explicitly drives the kernels to assemble a circuit's matrix
for comparison against these references.  ``ShiftingTuple`` is a hostile
container that ``validate`` rejects, and ``assert_rejected_on_every_call``
checks how a hostile program is rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import qvm
from qvm.render import SQRT_DENOM_LIMIT, SQRT_NUMER_LIMIT
from qvm.rng import Xoshiro256StarStar
from qvm.simulator import StateVector, apply_kernel, gate_matrix

I2 = np.eye(2, dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


class ShiftingTuple(tuple):
    """A tuple whose iteration yields ``later`` instead of its items from pass ``switch`` on.

    A code that held one could change after ``validate`` passed it, so
    ``validate`` rejects a tuple subclass in every container slot.
    """

    def __new__(cls, items, later, switch=2):
        self = super().__new__(cls, items)
        self.later, self.switch, self.passes = later, switch, 0
        return self

    def __iter__(self):
        self.passes += 1
        return iter(self.later if self.passes >= self.switch else tuple.__iter__(self))


def assert_rejected_on_every_call(code, message: str | None = None) -> None:
    """``validate``, ``execute`` and ``serialize`` each reject ``code`` twice, and it remembers no ops."""
    for use in (lambda c: c.validate(), qvm.execute, qvm.serialize):
        for _ in range(2):
            with pytest.raises(qvm.MalformedCode, match=message):
                use(code)
    assert "_ops" not in vars(code)


def kron_all(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for factor in factors:
        out = np.kron(out, factor)
    return out


def dense_controlled(matrix: np.ndarray, n: int, target: int, controls) -> np.ndarray:
    """Full 2^n x 2^n matrix of a controlled gate, by projector tensor products.

    Qubit 0 is the first tensor factor, matching the engine's bit layout.
    """
    controls = set(controls)
    active = kron_all(
        matrix if i == target else (P1 if i in controls else I2) for i in range(n)
    )
    gate_off = kron_all(P1 if i in controls else I2 for i in range(n))
    return np.eye(1 << n, dtype=complex) - gate_off + active


def dft_matrix(n: int) -> np.ndarray:
    size = 1 << n
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * np.pi * j * k / size) / math.sqrt(size)


def run_gates(code: qvm.QuantumCode, state: StateVector) -> StateVector:
    """Drive a gates-only program through the production kernel on a raw state."""
    for ins in code.instructions:
        if isinstance(ins, qvm.Alloc):
            continue
        if not isinstance(ins, qvm.GateApp):
            raise TypeError(f"not a pure gate program: {ins!r}")
        apply_kernel(state, gate_matrix(ins.gate), ins.target, ins.controls)
    return state


def assembled_unitary(build, n: int) -> np.ndarray:
    """Matrix of a builder routine, column by column on each basis state."""
    process = qvm.new_process()
    build(process.alloc(n))
    code = process.code
    columns = []
    for k in range(1 << n):
        state = run_gates(code, StateVector.basis(n, k))
        columns.append(state.amps.copy())
    return np.column_stack(columns)


def expand(tree, controls=()) -> list[qvm.GateApp]:
    """The gates a scope tree records, from the plain recursive meaning of scopes.

    A tree is a sequence of nodes: ``("gate", gate, target)``,
    ``("ctrl", qubits, body)``, ``("adj", body)`` or ``("around", outer, inner)``.
    A gate gets the controls passed in, a ``ctrl`` adds its qubits to them, an
    ``adj`` gives the reversed inverses of its body, and an ``around`` gives
    ``outer``, ``inner``, then the reversed inverses of ``outer``.  Nodes are
    visited in recording order, and the first target that is also a control
    raises ``ControlTargetOverlap``, the first repeated control ``DuplicateControl``.
    """

    def inverted(gates):
        return [qvm.GateApp(g.gate.inverse(), g.target, g.controls) for g in reversed(gates)]

    out: list[qvm.GateApp] = []
    for node in tree:
        if node[0] == "gate":
            _, gate, target = node
            if target in controls:
                raise qvm.ControlTargetOverlap(f"qubit {target} is a control")
            out.append(qvm.GateApp(gate, target, tuple(controls)))
        elif node[0] == "ctrl":
            _, qubits, body = node
            if len(set(controls) | set(qubits)) != len(controls) + len(qubits):
                raise qvm.DuplicateControl(f"controls {qubits} repeat one of {controls}")
            out += expand(body, (*controls, *qubits))
        elif node[0] == "adj":
            out += inverted(expand(node[1], controls))
        else:
            outer = expand(node[1], controls)
            out += outer + expand(node[2], controls) + inverted(outer)
    return out


def dump_vector(data: qvm.DumpData) -> np.ndarray:
    out = np.zeros(1 << len(data.qubits), dtype=complex)
    for basis, amp in data.basis_states:
        out[basis] = amp
    return out


def max_dev_up_to_phase(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest entry deviation after factoring out one global phase."""
    anchor = int(np.argmax(np.abs(expected)))
    if abs(got.flat[anchor]) < 1e-12:
        return float(np.abs(got - expected).max())
    phase = expected.flat[anchor] / got.flat[anchor]
    phase /= abs(phase)
    return float(np.abs(got * phase - expected).max())


def measure_oracle(amps: np.ndarray, n: int, qubits, u: float):
    """Outcome and collapsed amplitudes of measuring ``qubits`` against draw ``u``.

    Visits every basis index on its own: the outcome reads the listed qubits
    with the first as MSB, and is the first whose cumulative probability,
    in ascending outcome order, exceeds ``u``.
    """

    def outcome_of(index: int) -> int:
        value = 0
        for q in qubits:
            value = (value << 1) | ((index >> (n - 1 - q)) & 1)
        return value

    probs = [0.0] * (1 << len(qubits))
    for index, amp in enumerate(amps):
        probs[outcome_of(index)] += abs(amp) ** 2
    outcome = max(j for j, p in enumerate(probs) if p > 0)
    cumulative = 0.0
    for j, p in enumerate(probs):
        cumulative += p
        if u < cumulative:
            outcome = j
            break
    scale = 1 / math.sqrt(probs[outcome])
    collapsed = np.array(
        [amp * scale if outcome_of(i) == outcome else 0 for i, amp in enumerate(amps)],
        dtype=complex,
    )
    return outcome, collapsed


def program_oracle(code: qvm.QuantumCode, seed: int):
    """Futures and final amplitudes of running ``code``, from dense matrices.

    An allocation extends the state by ``np.kron``, a gate multiplies it by
    its ``dense_controlled`` matrix, a measurement goes through
    ``measure_oracle`` with the next draw of ``Xoshiro256StarStar(seed)``,
    and a branch body runs iff the future drawn for it equals the literal.
    Dumps are skipped.
    """
    rng = Xoshiro256StarStar(seed)
    futures: dict[int, int] = {}
    amps, n = np.ones(1, dtype=complex), 0

    def run(block):
        nonlocal amps, n
        for ins in block:
            if isinstance(ins, qvm.Alloc):
                fresh = np.zeros(1 << ins.count, dtype=complex)
                fresh[0] = 1
                amps, n = np.kron(amps, fresh), n + ins.count
            elif isinstance(ins, qvm.GateApp):
                amps = dense_controlled(gate_matrix(ins.gate), n, ins.target, ins.controls) @ amps
            elif isinstance(ins, qvm.Measure):
                futures[ins.future], amps = measure_oracle(amps, n, ins.qubits, rng.uniform())
            elif isinstance(ins, qvm.Branch):
                if futures[ins.condition.future] == ins.condition.equals:
                    run(ins.body)

    run(code.instructions)
    return futures, amps


def pair_oracle(amps: np.ndarray, n: int, matrix: np.ndarray, target: int, controls):
    """Amplitudes after a controlled 2x2 gate, bit for bit, from index pairs.

    Lists every pair of flat indices that differ in the target bit and have
    every control bit set, gathers the two sides into arrays ``a0`` and
    ``a1``, and forms ``m00*a0 + m01*a1`` and ``m10*a0 + m11*a1``.  A diagonal
    matrix instead scales each side by its factor unless that is exactly 1,
    and an X swaps the sides.  numpy's complex products round by operand
    order and by loop, so each product is written as the engine's contract
    has it: ``m * a`` into a fresh array for a full matrix, ``a *= m`` for a
    diagonal one.
    """
    bit = 1 << (n - 1 - target)
    mask = sum(1 << (n - 1 - c) for c in controls)
    i0 = [i for i in range(1 << n) if not i & bit and i & mask == mask]
    i1 = [i | bit for i in i0]
    a0, a1 = amps[i0], amps[i1]
    (m00, m01), (m10, m11) = matrix.tolist()
    out = amps.copy()
    if m01 == 0 and m10 == 0:
        for index, side, factor in ((i0, a0, m00), (i1, a1, m11)):
            if factor != 1:
                side *= factor
            out[index] = side
    elif m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:
        out[i0], out[i1] = a1, a0
    else:
        out[i0] = m00 * a0 + m01 * a1
        out[i1] = m10 * a0 + m11 * a1
    return out


def sqrt_fraction_oracle(amplitude: complex) -> tuple[int, int, int] | None:
    """``recognize_sqrt_fraction`` by full search: every numerator is tried
    and the smallest matching b is kept."""
    amplitude = complex(amplitude)
    if abs(amplitude.imag) > 1e-9:
        return None
    value = abs(amplitude.real)
    if value < 0.5 / math.sqrt(SQRT_DENOM_LIMIT):
        return None
    best: tuple[int, int] | None = None
    for a in range(1, SQRT_NUMER_LIMIT + 1):
        exact = (a / value) ** 2
        if exact > SQRT_DENOM_LIMIT + 2:
            continue
        low = max(1, math.floor(exact) - 2)
        high = min(SQRT_DENOM_LIMIT, math.ceil(exact) + 2)
        for b in range(low, high + 1):
            if abs(value - a / math.sqrt(b)) < 1e-9 and math.gcd(a * a, b) == 1:
                if best is None or b < best[1]:
                    best = (a, b)
    if best is None:
        return None
    sign = -1 if amplitude.real < 0 else 1
    return sign, best[0], best[1]
