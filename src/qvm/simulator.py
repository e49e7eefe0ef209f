"""Dense state-vector execution of recorded programs.

Qubit ``i`` occupies bit ``n - 1 - i`` of the amplitude index, so qubit 0 is
the leftmost symbol in |...⟩ labels and the most significant bit of
measurement outcomes.  The kernels read the same amplitudes as a ``(2,)*n``
array whose axis ``i`` is qubit ``i``.  That array is a reshape of the flat
vector, so it is a view, and slicing an axis to ``0:1`` or ``1:2`` selects
the half of the state in which that qubit reads 0 or 1, again as a view:

- A gate takes one pair view, with every control axis at ``1:2`` and the
  target axis moved to the front, so ``pair[:1]`` and ``pair[1:]`` are the
  sides in which the target reads 0 and 1.  Its index and axis order come
  from a bounded cache keyed by ``(n, target, controls)``, and the gate
  updates the view in place.  A diagonal matrix (Z, RZ, phase and their
  controlled forms, most of a QFT) only scales the sides whose factor is not
  exactly 1.  An anti-diagonal one (X, Y, CNOT and any multi-controlled X)
  assigns the pair reversed along the target axis, times the factors
  ``(m01, m10)`` unless it is an X.  Any other matrix (H, RX, RY) forms the
  four products ``m[i, j] * a_j`` in one broadcast multiply and sums them in
  pairs into the view when its sides are small; on sides of
  ``_IN_PLACE_MIN`` amplitudes or more it copies one side and writes both in
  place through one more half-state buffer, with the same products and sums
  bit for bit.
- A measurement sums ``|amplitude|²`` over the unmeasured axes, samples an
  outcome, and keeps only that outcome's slice.
- A dump checks every group of amplitudes (one per pattern of the unselected
  qubits) against one reference group in a single rank-1 residual.

Temporary memory per call, for a state of S = 16·2^n bytes: a diagonal gate
allocates nothing; an anti-diagonal one at most S (the scaled pair, or for
an X numpy's copy of the reversed pair, which overlaps its destination), and
a dense one in place at most S (the copy of one side and one product), each
plus numpy's iteration buffers of 8192 amplitudes per strided operand; a
dense one with small sides at most 2·S (the four products); a measurement at
most S (the squared magnitudes, then the kept slice); and a dump at most
2·S (a copy of the groups where their layout is not a view of the state,
and one buffer for projections and residuals).

``execute`` loops over a stack of open blocks, with no recursion and no closure.

Execution is a pure function of ``(code, seed)``: one xoshiro256** stream per
run, advanced by exactly one draw per measurement, with the outcome chosen
against the cumulative outcome distribution in ascending outcome order.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

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

# Dense gates whose sides hold at least this many amplitudes (32 KiB) update
# them in place, in six ufunc calls through one half-state buffer.  Smaller
# ones take two calls, a broadcast multiply into a fresh array of all four
# products and one add, and that array grows with the view.  Per RY with 0-2
# controls on a 2-vCPU x86-64 host, averaged over targets, the two-call form
# took 0.56-0.77x the in-place time on sides of 2^5-2^8 amplitudes, 0.73-1.02x
# on 2^9-2^10, 1.04-1.27x on 2^11, and up to 3.9x on 2^12, where its array
# and numpy's iteration buffers reach glibc's 128 KiB mmap threshold.
_IN_PLACE_MIN = 1 << 11

# Entries kept by each of the two caches below: gate matrices by gate, and
# pair-view indices by (n, target, controls).  A program with more distinct
# gates or qubit patterns than this recomputes the least recently used.
_CACHE_SIZE = 1024

# Equal gates have equal matrices, so the cache cannot change a result.  Angles
# of +0.0 and -0.0 compare equal and share an entry; the two matrices differ
# at most in the signs of zeros, and both are the identity, which the
# diagonal path of ``apply_kernel`` skips.
@functools.lru_cache(maxsize=_CACHE_SIZE)
def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary of a gate, cached and shared, so it is read-only.

    Conventions: RX(θ) = [[cos θ/2, -i sin θ/2], [-i sin θ/2, cos θ/2]],
    RY(θ) = [[cos θ/2, -sin θ/2], [sin θ/2, cos θ/2]],
    RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2}), Phase(λ) = diag(1, e^{iλ}).
    The inverse gate's matrix is the conjugate transpose.
    """
    kind, t = gate.kind, gate.angle
    if kind is GateKind.PAULI_X:
        rows = [[0, 1], [1, 0]]
    elif kind is GateKind.PAULI_Y:
        rows = [[0, -1j], [1j, 0]]
    elif kind is GateKind.PAULI_Z:
        rows = [[1, 0], [0, -1]]
    elif kind is GateKind.HADAMARD:
        s = 1.0 / math.sqrt(2.0)
        rows = [[s, s], [s, -s]]
    elif kind is GateKind.RX:
        c, s = math.cos(t / 2), math.sin(t / 2)
        rows = [[c, -1j * s], [-1j * s, c]]
    elif kind is GateKind.RY:
        c, s = math.cos(t / 2), math.sin(t / 2)
        rows = [[c, -s], [s, c]]
    elif kind is GateKind.RZ:
        rows = [[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]]
    else:  # ``Gate`` admits no kind but these eight
        rows = [[1, 0], [0, cmath.exp(1j * t)]]
    matrix = np.array(rows, dtype=complex)
    matrix.setflags(write=False)
    return matrix


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pair_index(n: int, target: int, controls: tuple[int, ...]):
    """Index, axis order and half size of a gate's pair view.

    ``state.tensor()[index].transpose(perm)`` holds every amplitude the gate
    touches, with the target axis first; ``half`` is the size of either side.
    The qubit checks run on a miss, and a failing one raises, so only valid
    triples are cached.
    """
    _check_qubits(n, (target, *controls), f"target {target} and controls {controls} overlap")
    index = [slice(None)] * n
    for c in controls:
        index[c] = _READS[1]
    perm = (target, *(q for q in range(n) if q != target))
    return tuple(index), perm, 1 << (n - 1 - len(controls))


def apply_kernel(
    state: StateVector,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a controlled 2x2 gate in place and return the state.

    Touches exactly the amplitude pairs that differ in the target bit and
    have every control bit set to 1.  ``matrix`` is only read, so the shared
    read-only matrices of ``gate_matrix`` serve every call; the checked view
    index comes from ``_pair_index``'s cache.
    """
    index, perm, half = _pair_index(state.n, target, tuple(controls))
    pair = state.tensor()[index].transpose(perm)
    (m00, m01), (m10, m11) = matrix.tolist()
    # Each product puts the factor first and writes to memory apart from its
    # input, or, for a diagonal factor, scales its side in place: numpy's
    # vector loop rounds ``m * a`` and ``a * m`` differently and falls back to
    # a scalar loop, which rounds differently again, when an output is also
    # an input or interleaves with one.  This was seen with numpy 2.4.6 on an
    # x86-64 host with AVX-512; it is observed behaviour, not a numpy
    # guarantee.  If the bit-exact pair-oracle test fails after a numpy or CPU
    # change while the amplitudes agree to an ulp, suspect that change first.
    if m01 == 0 and m10 == 0:
        for side, factor in ((pair[:1], m00), (pair[1:], m11)):
            if factor != 1:
                np.multiply(side, factor, out=side)
        return state
    tail = (1,) * (pair.ndim - 1)
    if m00 == 0 and m11 == 0:
        if m01 == 1 and m10 == 1:
            pair[...] = pair[::-1]
        else:
            pair[...] = np.multiply(matrix[:, ::-1].diagonal().reshape(2, *tail), pair[::-1])
    elif half < _IN_PLACE_MIN:
        # the sum of two terms does not depend on their order, so this is
        # m00*a0 + m01*a1 and m10*a0 + m11*a1 bit for bit
        prod = np.multiply(matrix.reshape(2, 2, *tail), pair)
        np.add(prod[:, 0], prod[:, 1], out=pair)
    else:
        v0, v1 = pair[:1], pair[1:]
        a0 = v0.copy()
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


def execute(code: QuantumCode, seed: int = 0) -> ExecutionResult:
    """Interpret a program deterministically and collect all results.

    Allocation extends the state with |0⟩ qubits, gates run through
    ``apply_kernel``, measurements through ``measure_kernel``, dumps through
    ``extract_dump``, and a conditioned block runs iff its future, already
    recorded earlier in the run, equals the literal.  A state whose norm
    drifts from 1 by more than 1e-9 raises EngineFailure.
    """
    code.validate()
    state, rng = StateVector.zero(0), Xoshiro256StarStar(seed)
    futures: dict[int, int] = {}
    dumps: dict[int, DumpData] = {}
    blocks = [iter(code.instructions)]
    while blocks:
        for ins in blocks[-1]:
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
                    blocks.append(iter(ins.body))
                    break
                continue  # no state change to re-check
            norm = state.norm_sq()
            if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
                raise EngineFailure(f"state norm drifted by {norm - 1.0:.3g} to {norm} after {ins!r}")
        else:
            blocks.pop()
    return ExecutionResult(futures=futures, dumps=dumps)
