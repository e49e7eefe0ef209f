"""Gate helpers and named routines built purely from builder calls.

Every function here records instructions through a process; none of them
touch amplitudes directly, so they compose with control and adjoint scopes
like any hand-written gate sequence.  Single-qubit helpers return their input
handle, which allows chaining in the style ``phase(pi / 4, h(q))``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .ir import (
    DumpSnapshot,
    Gate,
    GateKind,
    Process,
    QubitHandle,
    adj,
    around,
    ctrl,
)

PAULI_X = Gate(GateKind.PAULI_X)
PAULI_Y = Gate(GateKind.PAULI_Y)
PAULI_Z = Gate(GateKind.PAULI_Z)
HADAMARD = Gate(GateKind.HADAMARD)


def x(q: QubitHandle) -> QubitHandle:
    """Bit flip (π rotation around the X axis)."""
    return q.process.apply_gate(PAULI_X, q)


def y(q: QubitHandle) -> QubitHandle:
    return q.process.apply_gate(PAULI_Y, q)


def z(q: QubitHandle) -> QubitHandle:
    return q.process.apply_gate(PAULI_Z, q)


def h(q: QubitHandle) -> QubitHandle:
    """Map |0⟩/|1⟩ to the equal superpositions (|0⟩±|1⟩)/√2."""
    return q.process.apply_gate(HADAMARD, q)


def rx(theta: float, q: QubitHandle) -> QubitHandle:
    return q.process.apply_gate(Gate(GateKind.RX, theta), q)


def ry(theta: float, q: QubitHandle) -> QubitHandle:
    return q.process.apply_gate(Gate(GateKind.RY, theta), q)


def rz(theta: float, q: QubitHandle) -> QubitHandle:
    return q.process.apply_gate(Gate(GateKind.RZ, theta), q)


def phase(lam: float, q: QubitHandle) -> QubitHandle:
    """Add a relative phase e^{iλ} to the |1⟩ component."""
    return q.process.apply_gate(Gate(GateKind.PHASE, lam), q)


def cnot(control: QubitHandle, target: QubitHandle) -> tuple[QubitHandle, QubitHandle]:
    """Flip ``target`` where ``control`` is |1⟩."""
    with ctrl(control):
        x(target)
    return control, target


def swap(a: QubitHandle, b: QubitHandle) -> tuple[QubitHandle, QubitHandle]:
    """Exchange two qubits (three alternating controlled flips)."""
    cnot(a, b)
    cnot(b, a)
    cnot(a, b)
    return a, b


def bell(a: QubitHandle, b: QubitHandle) -> tuple[QubitHandle, QubitHandle]:
    """Entangle two |0⟩ qubits into (|00⟩ + |11⟩)/√2."""
    h(a)
    cnot(a, b)
    return a, b


def qft(qubits: Sequence[QubitHandle], do_swaps: bool = True) -> Sequence[QubitHandle]:
    """Fourier-transform network over the listed qubits (first = MSB).

    With ``do_swaps`` the assembled unitary is the DFT matrix with entries
    exp(2πi·jk/2^n)/√(2^n); without, the output wires come out mirrored,
    which is the form usually inlined into larger circuits.
    """
    qs = list(qubits)
    if not qs:
        raise ValueError("qft needs at least one qubit")
    n = len(qs)
    for i in range(n):
        h(qs[i])
        for j in range(i + 1, n):
            with ctrl(qs[j]):
                phase(math.pi / 2 ** (j - i), qs[i])
    if do_swaps:
        for i in range(n // 2):
            swap(qs[i], qs[n - 1 - i])
    return qubits


def grover_diffusor(qubits: Sequence[QubitHandle]) -> Sequence[QubitHandle]:
    """Inversion about the uniform superposition: -(2|u⟩⟨u| - I)."""
    qs = list(qubits)
    if len(qs) < 2:
        raise ValueError("the diffusor needs at least two qubits")
    process = qs[0].process

    def shell():
        for q in qs:
            x(h(q))

    with around(process, shell), ctrl(*qs[1:]):
        z(qs[0])
    return qubits


def teleport(
    process: Process, prepare: Callable[[QubitHandle], None]
) -> DumpSnapshot:
    """Teleport a prepared single-qubit state onto a third qubit.

    Allocates (message, shared, receiver), runs ``prepare`` on the message
    qubit, entangles the shared pair, measures on the sending side, and
    applies the conditioned X/Z corrections.  Returns a snapshot of the
    receiving qubit, which matches the prepared state for every seed.
    """
    message, shared, receiver = process.alloc(3)
    prepare(message)
    bell(shared, receiver)
    with adj(process):
        bell(message, shared)
    m_shared = process.measure([shared])
    m_message = process.measure([message])
    process.branch(m_shared, 1, lambda: x(receiver))
    process.branch(m_message, 1, lambda: z(receiver))
    return process.dump_state([receiver])
