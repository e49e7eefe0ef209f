"""Dense state-vector execution of recorded programs.

Qubit ``i`` occupies bit ``n - 1 - i`` of the amplitude index, so qubit 0 is
the leftmost symbol in |...⟩ labels and the most significant bit of
measurement outcomes.  The kernels read the same amplitudes as a ``(2,)*n``
array whose axis ``i`` is qubit ``i``.  That array is a reshape of the flat
vector, so it is a view, and slicing an axis to ``0:1`` or ``1:2`` selects
the half of the state in which that qubit reads 0 or 1, again as a view:

- A gate takes two views, with every control axis at ``1:2`` and the target
  axis at ``0:1`` and ``1:2``, and updates them in place.  A diagonal matrix
  (Z, RZ, phase and their controlled forms, most of a QFT) only scales the
  views whose factor is not exactly 1.  An anti-diagonal one (X, Y, CNOT and
  any multi-controlled X) swaps the views through a copy of one, scaling
  only by a factor that is not exactly 1.  Any other matrix (H, RX, RY)
  forms ``m00*a0 + m01*a1`` and ``m10*a0 + m11*a1`` from copies of both
  views when they are small; on views of ``_IN_PLACE_MIN`` amplitudes or
  more it copies one view and writes both in place through one more
  half-state buffer, with the same products and sums bit for bit.
- A measurement sums ``|amplitude|²`` over the unmeasured axes, samples an
  outcome, and keeps only that outcome's slice.
- A dump checks every group of amplitudes (one per pattern of the unselected
  qubits) against one reference group in a single rank-1 residual.

Temporary memory per call, for a state of S = 16·2^n bytes: a diagonal gate
allocates nothing; an anti-diagonal one, or a dense one in place, at most S
(the copy of one view, and one product or numpy's copy of the other view)
plus numpy's iteration buffers of 8192 amplitudes per strided operand; a
dense one on small views at most 2·S (the copies of both views and two
products); a measurement at most S (the squared magnitudes, then the kept
slice); and a dump at most 2·S (a copy of the groups where their layout is
not a view of the state, and one buffer for projections and residuals).

The interpreter ``_run_block`` is a module function, not a closure inside
``execute``: a nested function that calls itself holds a reference to its own
cell, and that cycle would keep the run's state vector alive after
``execute`` returns, until the cyclic garbage collector happens to run.  It
finds the kernels and ``gate_matrix`` as module globals at call time.

Execution is a pure function of ``(code, seed)``: one xoshiro256** stream per
run, advanced by exactly one draw per measurement, with the outcome chosen
against the cumulative outcome distribution in ascending outcome order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateState,
    EngineFailure,
    EntangledSelection,
    IndexOutOfRange,
    IndexOverlap,
)
from .ir import Alloc, Branch, Dump, Gate, GateApp, GateKind, Measure, QuantumCode
from .rng import Xoshiro256StarStar

# Amplitudes below this magnitude are treated as zero when snapshotting.
DUST = 1e-12

# The slice of a qubit's axis on which it reads 0 or 1; a slice, not an
# integer, so indexing every axis still yields a view.
_READS = (slice(0, 1), slice(1, 2))

# Dense gates whose views hold at least this many amplitudes (256 KiB) update
# them in place; smaller ones work on contiguous copies of both views.  In
# place takes six ufunc calls on strided views, each 0.7-1.5 µs slower than on
# a contiguous array: 1.4-1.7x the time per gate below this size, and about
# 12% fewer shots a second on the shots-small benchmark (n <= 5).  From this
# size on, the copy form's fresh temporaries cost more: per uncontrolled H on
# a 2-vCPU x86-64 host, 2^13 amplitudes took 89 µs with copies and 114 µs in
# place, 2^14 took 682 and 616 µs, and 2^17 8.0 and 4.4 ms.
_IN_PLACE_MIN = 1 << 14

_SQRT1_2 = 1.0 / math.sqrt(2.0)

_FIXED_MATRICES = {
    GateKind.PAULI_X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.PAULI_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.PAULI_Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.HADAMARD: np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary of a gate.

    Conventions: RX(θ) = [[cos θ/2, -i sin θ/2], [-i sin θ/2, cos θ/2]],
    RY(θ) = [[cos θ/2, -sin θ/2], [sin θ/2, cos θ/2]],
    RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2}), Phase(λ) = diag(1, e^{iλ}).
    The inverse gate's matrix is the conjugate transpose.
    """
    if gate.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[gate.kind]
    t = gate.angle
    if gate.kind is GateKind.RX:
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate.kind is GateKind.RY:
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind is GateKind.RZ:
        return np.array(
            [[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]], dtype=complex
        )
    if gate.kind is GateKind.PHASE:
        return np.array([[1, 0], [0, cmath.exp(1j * t)]], dtype=complex)
    raise ValueError(f"no matrix for gate {gate!r}")


@dataclass
class StateVector:
    """2**n complex amplitudes in a flat vector; the engine's ground truth."""

    n: int
    amps: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def basis(cls, n: int, k: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[k] = 1.0
        return cls(n, amps)

    def tensor(self) -> np.ndarray:
        """The amplitudes as a ``(2,)*n`` view whose axis ``i`` is qubit ``i``."""
        return self.amps.reshape((2,) * self.n)

    def extend(self, count: int) -> None:
        """Append ``count`` fresh qubits in |0⟩ (existing indices keep their qubits)."""
        amps = np.zeros(len(self.amps) << count, dtype=complex)
        amps.reshape(len(self.amps), 1 << count)[:, 0] = self.amps
        self.n += count
        self.amps = amps

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass(frozen=True)
class DumpData:
    """Snapshot of the selected qubits: nonzero amplitudes by basis integer.

    ``basis_states`` is sorted ascending; the first listed qubit is the most
    significant bit of the basis integer.  The overall sign is normalized so
    the first nonzero amplitude has phase in (-π/2, π/2].
    """

    qubits: tuple[int, ...]
    basis_states: tuple[tuple[int, complex], ...]


@dataclass(frozen=True)
class ExecutionResult:
    """Everything a program run produced, keyed by future and dump ids."""

    futures: dict[int, int]
    dumps: dict[int, DumpData]


def _check_qubits(n: int, qubits: tuple[int, ...], overlap: str) -> None:
    """Raise unless every qubit exists in an ``n``-qubit state and none repeats."""
    for q in qubits:
        if not 0 <= q < n:
            raise IndexOutOfRange(f"qubit {q} out of range for {n}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise IndexOverlap(overlap)


def apply_kernel(
    state: StateVector,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a controlled 2x2 gate in place and return the state.

    Touches exactly the amplitude pairs that differ in the target bit and
    have every control bit set to 1.
    """
    controls = tuple(controls)
    n = state.n
    _check_qubits(n, (target, *controls), f"target {target} and controls {controls} overlap")
    index = [slice(None)] * n
    for c in controls:
        index[c] = _READS[1]
    tensor = state.tensor()
    index[target] = _READS[0]
    v0 = tensor[tuple(index)]
    index[target] = _READS[1]
    v1 = tensor[tuple(index)]
    (m00, m01), (m10, m11) = matrix.tolist()
    if m01 == 0 and m10 == 0:
        if m00 != 1:
            v0 *= m00
        if m11 != 1:
            v1 *= m11
        return state
    a0 = v0.copy()
    if m00 == 0 and m11 == 0:
        np.copyto(v0, v1 if m01 == 1 else m01 * v1)
        np.copyto(v1, a0 if m10 == 1 else m10 * a0)
    elif v0.size < _IN_PLACE_MIN:
        a1 = v1.copy()
        v0[...] = m00 * a0 + m01 * a1
        v1[...] = m10 * a0 + m11 * a1
    else:
        # The same products and sums as above, bit for bit: each product puts
        # the factor first and writes to memory apart from its input, because
        # numpy's vector loop rounds ``m * a`` and ``a * m`` differently and
        # falls back to a scalar loop, which rounds differently again, when
        # an output is also an input or interleaves with one.  This was seen
        # with numpy 2.4.6 on an x86-64 host with AVX-512; it is observed
        # behaviour, not a numpy guarantee.  If the bit-exact pair-oracle test
        # fails after a numpy or CPU change while the amplitudes agree to an
        # ulp, suspect that change before this code.
        a1 = m01 * v1
        np.multiply(m00, a0, out=v0)
        v0 += a1
        np.multiply(m11, v1, out=a1)
        np.multiply(m10, a0, out=v1)
        v1 += a1
    return state


def measure_kernel(
    state: StateVector, qubits: Sequence[int], rng: Xoshiro256StarStar
) -> tuple[int, StateVector]:
    """Sample an outcome by the Born rule and collapse the state in place.

    The outcome integer reads the listed qubits with the first as MSB.
    Amplitudes inconsistent with the outcome are zeroed and the rest divided
    by √p, so the state stays normalized.
    """
    qubits = tuple(qubits)
    n = state.n
    _check_qubits(n, qubits, "measured qubits must be distinct")
    tensor = state.tensor()
    rest = tuple(q for q in range(n) if q not in qubits)
    # the sum keeps the measured axes in ascending qubit order
    ascending = sorted(qubits)
    weights = (np.abs(tensor) ** 2).sum(axis=rest)
    probs = weights.transpose([ascending.index(q) for q in qubits]).ravel()
    total = float(probs.sum())
    if total < 1e-12:
        raise DegenerateState("state has no probability mass left")
    cumulative = np.cumsum(probs)
    u = rng.uniform()
    outcome = int(np.searchsorted(cumulative, u, side="right"))
    if outcome >= len(probs):
        outcome = int(np.max(np.nonzero(probs > 0)[0]))
    p = float(probs[outcome])
    if p < 1e-12:
        raise DegenerateState(f"sampled outcome {outcome} has probability {p}")
    index = [slice(None)] * n
    for j, q in enumerate(qubits):
        index[q] = _READS[(outcome >> (len(qubits) - 1 - j)) & 1]
    kept = tensor[tuple(index)] * (1.0 / math.sqrt(p))
    state.amps.fill(0.0)
    tensor[tuple(index)] = kept
    return outcome, state


def extract_dump(state: StateVector, qubits: Sequence[int]) -> DumpData:
    """Read the standalone pure state of the selected qubits.

    The full amplitudes are grouped by the bit pattern of the unselected
    qubits; every group with non-negligible norm must be parallel to the
    reference group (relative residual <= 1e-9), otherwise the selection has
    no pure state of its own and EntangledSelection is raised.  The reference
    is the first group whose norm is within a factor 1 - 1e-9 of the largest,
    so rounding in the norms cannot move the dump's global phase.  The common
    vector is normalized and sign-flipped so its first nonzero amplitude has
    phase in (-π/2, π/2].
    """
    qubits = tuple(qubits)
    n = state.n
    if not qubits:
        raise ValueError("dump selection is empty")
    _check_qubits(n, qubits, "dumped qubits must be distinct")
    rest = [q for q in range(n) if q not in qubits]
    # a view of the state (never written) wherever the strides allow, as for
    # the trailing qubits in order; a copy otherwise
    groups = state.tensor().transpose(rest + list(qubits)).reshape(-1, 1 << len(qubits))
    norms = np.sqrt((np.abs(groups) ** 2).sum(axis=1))
    dominant = int(np.argmax(norms >= norms.max() * (1 - 1e-9)))
    reference = groups[dominant] / norms[dominant]
    # one C-contiguous buffer (so it has a float view) holds the projections
    # of every group onto the reference, then the residuals; numpy sums them,
    # not BLAS matmul, whose first call maps work buffers of its own
    residual = np.multiply(groups, reference.conj(), out=np.empty(groups.shape, dtype=complex))
    np.multiply.outer(residual.sum(axis=1), reference, out=residual)
    np.subtract(groups, residual, out=residual)
    squares = residual.view(float)
    np.square(squares, out=squares)
    residual_norms = np.sqrt(squares.sum(axis=1))
    if np.any((norms > 1e-9) & (residual_norms > 1e-9 * norms)):
        raise EntangledSelection(f"qubits {qubits} are entangled with the rest of the state")
    vector = reference
    significant = np.flatnonzero(np.abs(vector) > DUST)
    if significant.size:
        lead = vector[significant[0]]
        if not -math.pi / 2 < math.atan2(lead.imag, lead.real) <= math.pi / 2:
            vector = -vector
    basis_states = tuple((int(i), complex(vector[i])) for i in significant)
    return DumpData(qubits, basis_states)


def _run_block(
    instructions: Iterable,
    state: StateVector,
    rng: Xoshiro256StarStar,
    futures: dict[int, int],
    dumps: dict[int, DumpData],
) -> None:
    """Run ``instructions`` in order on ``state``, recording futures and dumps."""
    for ins in instructions:
        if isinstance(ins, Alloc):
            state.extend(ins.count)
        elif isinstance(ins, GateApp):
            apply_kernel(state, gate_matrix(ins.gate), ins.target, ins.controls)
        elif isinstance(ins, Measure):
            outcome, _ = measure_kernel(state, ins.qubits, rng)
            futures[ins.future] = outcome
        elif isinstance(ins, Dump):
            dumps[ins.dump] = extract_dump(state, ins.qubits)
        elif isinstance(ins, Branch):
            if futures[ins.condition.future] == ins.condition.equals:
                _run_block(ins.body, state, rng, futures, dumps)
            continue  # no state change to re-check
        norm = state.norm_sq()
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise EngineFailure(f"state norm drifted by {norm - 1.0:.3g} to {norm} after {ins!r}")


def execute(code: QuantumCode, seed: int = 0) -> ExecutionResult:
    """Interpret a program deterministically and collect all results.

    Allocation extends the state with |0⟩ qubits, gates run through
    ``apply_kernel``, measurements through ``measure_kernel``, dumps through
    ``extract_dump``, and a conditioned block runs iff its future, already
    recorded earlier in the run, equals the literal.  A state whose norm
    drifts from 1 by more than 1e-9 raises EngineFailure.
    """
    code.validate()
    futures: dict[int, int] = {}
    dumps: dict[int, DumpData] = {}
    _run_block(code.instructions, StateVector.zero(0), Xoshiro256StarStar(seed), futures, dumps)
    return ExecutionResult(futures=futures, dumps=dumps)
