"""Dense state-vector execution of recorded programs.

Qubit ``i`` occupies bit ``n - 1 - i`` of the amplitude index, so qubit 0 is
the leftmost symbol in |...⟩ labels and the most significant bit of
measurement outcomes.  The kernels read the same amplitudes as a ``(2,)*n``
array whose axis ``i`` is qubit ``i``.  That array is a reshape of the flat
vector, so it is a view, and slicing an axis to ``0:1`` or ``1:2`` selects
the half of the state in which that qubit reads 0 or 1, again as a view.

- A gate touches the pairs of amplitudes that differ in the target bit and
  have every control bit set; the *sides* are the halves of those pairs in
  which the target reads 0 and 1.  Three rules cover every matrix.  A
  diagonal one (Z, RZ, phase and their controlled forms, most of a QFT) only
  scales the sides whose factor is not exactly 1.  An X (and so CNOT and any
  multi-controlled X) swaps the sides.  Any other matrix (H, RX, RY, Y)
  forms the products ``m[i, j] * a_j`` and sums them in pairs.  Three forms
  do this, with the same products and sums bit for bit, and leave every
  other amplitude as it was, the sign of a zero too.  On a state of at most
  ``_PRODUCT_MAX`` amplitudes (n <= 6), a gate is whole-state products:
  amplitude ``i`` becomes ``c0[i] * a[i] + c1[i] * a[p[i]]``, with the
  coefficients taken from the matrix at indices that, with the partner
  index ``p``, come from a bounded cache keyed by ``(n, target,
  controls)``; the result is written only where the gate acts.  A diagonal
  gate is one product, an X one gather, and any other one gather of every
  amplitude with its partner, one product of both with their coefficients,
  and a sum.  On larger states, and for a diagonal gate with a factor of
  exactly 1 or sides of one amplitude, sides of fewer than
  ``_IN_PLACE_MIN`` amplitudes are gathered by flat index, from a bounded
  cache keyed by ``(n, target, controls)``, into a contiguous ``(2, half)``
  array, and the result is scattered back; a dense gate forms all four
  products in one broadcast multiply.  Larger sides are one pair view, with
  every control axis at ``1:2`` and the target axis moved to the front, its
  index and axis order again from a cache, and a dense gate copies one side
  and writes both in place through one more half-state buffer.
- A measurement sums ``|amplitude|²`` over the unmeasured axes, samples an
  outcome, and keeps only that outcome's slice.
- A dump checks every group of amplitudes (one per pattern of the unselected
  qubits) against one reference group in a single rank-1 residual.

Temporary memory per call, for a state of S = 16·2^n bytes.  In whole-state
products, whose state is at most 1 KiB: a diagonal gate at most 2·S (its
coefficients and product), an X at most S (the gathered partners), and a
dense one at most 4·S (both coefficients, and the state and its partners);
each cached entry keeps 2^(n+1) coefficient indices and 2^(n+1) partner
indices of 8 bytes, and 2^n flags.  On gathered sides, whose state is under
64 KiB: a diagonal gate at most 0.5·S (one gathered side), an X at most S
(the gathered pair), and a dense one at most 3·S (the gathered pair, then
the four products and their sums); each cached index entry keeps 2^n
indices of 8 bytes.  On a pair view: a diagonal gate allocates nothing; an
X at most S (numpy's copy of the reversed pair, which overlaps its
destination), and a dense one at most S (the copy of one side and one
product), each plus numpy's iteration buffers of 8192 amplitudes per
strided operand.  A measurement takes at most S (the squared magnitudes,
then the kept slice), and a dump at most 2·S (a copy of the groups where
their layout is not a view of the state, and one buffer for projections and
residuals).

``execute`` runs the flat ops that ``QuantumCode.validate`` returns, as they
are: a conditioned block is a forward jump, with no tree walk, recursion or
closure, and a gate applies the matrix its ``Gate`` carries.

Execution is a pure function of ``(code, seed)``: one xoshiro256** stream per
run, advanced by exactly one draw per measurement, with the outcome chosen
against the cumulative outcome distribution in ascending outcome order.
"""

from __future__ import annotations

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
from .ir import Branch, Dump, Gate, GateApp, Measure, QuantumCode
from .rng import Xoshiro256StarStar

# Amplitudes below this magnitude are treated as zero when snapshotting.
DUST = 1e-12

# The slice of a qubit's axis on which it reads 0 or 1; a slice, not an
# integer, so indexing every axis still yields a view.
_READS = (slice(0, 1), slice(1, 2))

# On states of more than _PRODUCT_MAX amplitudes, gates whose sides hold at
# least this many amplitudes (32 KiB) work on a strided view of the state, and
# a dense one updates it in place, in six ufunc calls through one half-state
# buffer.  Smaller ones gather their pairs by flat index into a contiguous
# ``(2, half)`` array and scatter the result back; a dense one forms all four
# products in one broadcast multiply, an array twice the state, and adds them
# in pairs.  Per RY with 0-1 controls on a 2-vCPU x86-64 host, averaged over
# targets, the gathered form took 0.4-0.75x the in-place time on sides of
# 2^7-2^10 amplitudes, and up to 2.6x on 2^11, where its product array
# reaches glibc's 128 KiB mmap threshold.  An X gathered took 0.8-1.6x the
# view's time on sides of 2^7-2^10.
_IN_PLACE_MIN = 1 << 11

# Entries kept by the caches keyed by (n, target, controls): of pair views,
# and of whole-state product indices.  A program with more distinct qubit
# patterns than this recomputes the least recently used.  A product entry, on
# at most _PRODUCT_MAX amplitudes, is under 3 KiB with its array headers, so
# that cache holds at most about 3 MiB.
_CACHE_SIZE = 1024

# Entries kept by the cache of gathered pair indices, which the product cache
# below also builds from.  Its largest entry, at sides of _IN_PLACE_MIN / 2,
# is 2^11 indices of 8 bytes (16 KiB) plus under 1 KiB of array headers, so
# at this size it holds at most about 4.3 MiB.
_GATHER_CACHE_SIZE = 256

# States of at most this many amplitudes (1 KiB) take a gate as whole-state
# products, where numpy's dispatch, not arithmetic, is most of a call's time.
# Per call on a 2-vCPU x86-64 host, against the gathered form, the products
# took 0.5-0.95x its time at n <= 7 for H, X, Y, RY and RZ with 0-2 controls;
# at n = 8 0.45-1.3x, losing on dense gates with 2 controls, and at n >= 9
# up to 2x on every controlled dense gate, since they compute the whole state
# where the gathered form computes only the pairs.  A diagonal gate with a
# factor of exactly 1, as a phase gate, took 1.1-1.3x the gathered form's
# time even at n = 2, and scaling that side by 1 could flip the sign of a
# zero, so such a gate keeps the gathered form, which skips the side.
_PRODUCT_MAX = 1 << 6


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary of a gate: ``gate.matrix``, shared by equal gates and read-only."""
    return gate.matrix


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
    """Index and axis order of a gate's pair view.

    ``state.tensor()[index].transpose(perm)`` holds every amplitude the gate
    touches, with the target axis first.  The qubit checks run on a miss, and
    a failing one raises, so only valid triples are cached.
    """
    _check_qubits(n, (target, *controls), f"target {target} and controls {controls} overlap")
    index = [slice(None)] * n
    for c in controls:
        index[c] = _READS[1]
    perm = (target, *(q for q in range(n) if q != target))
    return tuple(index), perm


@functools.lru_cache(maxsize=_GATHER_CACHE_SIZE)
def _pair_gather(n: int, target: int, controls: tuple[int, ...]):
    """Flat indices of a gate's pairs, for sides below ``_IN_PLACE_MIN``.

    ``pairs`` is the pair view of the flat indices, as a ``(2, half)`` array:
    row 0 lists in ascending order every index whose target bit is 0 and
    whose control bits are all 1, and row 1 the same indices with the target
    bit set.  Returns ``pairs``, its two rows and its rows swapped, all views
    of one read-only array, since numpy is slow to split an array per call.
    The qubit checks run in ``_pair_index``.
    """
    index, perm = _pair_index(n, target, controls)
    pairs = np.arange(1 << n).reshape((2,) * n)[index].transpose(perm).reshape(2, -1).copy()
    pairs.setflags(write=False)
    return pairs, pairs[0], pairs[1], pairs[::-1]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pair_products(n: int, target: int, controls: tuple[int, ...]):
    """Indices of a gate's whole-state products, on ``2^n <= _PRODUCT_MAX`` amplitudes.

    The gate maps each amplitude ``i`` it touches to ``c0[i] * a[i] + c1[i] *
    a[p[i]]``: ``p[i]`` is the other side of the pair, and ``c0``, ``c1`` are
    the flat matrix taken at ``k0``, ``k1``, so ``m00``, ``m01`` on side 0 and
    ``m11``, ``m10`` on side 1.  An untouched amplitude has ``p[i] = i`` and
    the indices of side 0, and the kernel writes only where ``touched`` is
    True: a mask, or True itself for a gate without controls, which touches
    every amplitude and so skips numpy's slower masked loop.  Returns ``k``
    (the rows ``k0`` and ``k1``), ``k0``, ``partners`` (the rows ``i`` and
    ``p``), ``p`` and ``touched``, all read-only and split here,
    since numpy is slow to split an array per call.  The qubit checks run in
    ``_pair_index``, through ``_pair_gather``.
    """
    _, i0, i1, _ = _pair_gather(n, target, controls)
    k = np.zeros((2, 1 << n), dtype=np.intp)
    k[1] = 1
    k[0, i1], k[1, i1] = 3, 2
    partners = np.stack((np.arange(1 << n),) * 2)
    partners[1, i0], partners[1, i1] = i1, i0
    touched = np.zeros(1 << n, dtype=bool)
    touched[i0] = touched[i1] = True
    for array in (k, partners, touched):
        array.setflags(write=False)
    return k, k[0], partners, partners[1], touched if controls else True


def apply_kernel(
    state: StateVector,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a controlled 2x2 gate in place and return the state.

    Touches exactly the amplitude pairs that differ in the target bit and
    have every control bit set to 1.  ``matrix`` is only read, so the shared
    read-only matrices that gates carry serve every call; the checked
    indices come from the caches of ``_pair_products``, ``_pair_gather`` and
    ``_pair_index``.
    """
    controls = tuple(controls)
    (m00, m01), (m10, m11) = matrix.tolist()
    # Three rules, in each form: a diagonal matrix scales the sides, an X
    # swaps them, and any other matrix, a Y too, sums the products of both
    # sides, zero ones included, as the pair oracle does.  Each product puts
    # the factor first and writes to memory apart from its input, or to
    # exactly its input, or, for a diagonal factor, scales its side in
    # place: numpy's vector loop rounds ``m * a`` and ``a * m``
    # differently and falls back to a scalar loop, which rounds differently
    # again, when an output interleaves with an input or is its own input of
    # one element.  An output that is its own contiguous input of two or more
    # elements rounds as a fresh one.  Whole-state products are fresh, over
    # the whole state, and written back only where the gate acts, so an
    # untouched amplitude keeps its bits, the sign of a zero too; a diagonal
    # gate whose sides hold one amplitude keeps the gathered form, which
    # scales that amplitude alone in place, as the pair oracle does.  This
    # was seen with numpy 2.4.6 on an x86-64 host with AVX-512; it is
    # observed behaviour, not a numpy guarantee.  If the bit-exact
    # pair-oracle test fails after a numpy or CPU change while the amplitudes
    # agree to an ulp, suspect that change first.
    amps = state.amps
    diagonal = m01 == 0 and m10 == 0
    swap = m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1
    if len(amps) <= _PRODUCT_MAX and not (
        diagonal and (m00 == 1 or m11 == 1 or len(controls) >= state.n - 1)
    ):
        k, k0, partners, p, touched = _pair_products(state.n, target, controls)
        flat = matrix.ravel()
        if diagonal:
            np.copyto(amps, np.multiply(amps, flat[k0]), where=touched)
        elif swap:
            amps[...] = amps[p]
        else:
            pair = amps[partners]
            np.multiply(flat[k], pair, out=pair)
            np.add(pair[0], pair[1], out=amps, where=touched)
        return state
    # sides of 2^(n-1-c) amplitudes; more controls than qubits fail the checks
    if len(amps) >> len(controls) < 2 * _IN_PLACE_MIN:
        pairs, i0, i1, swapped = _pair_gather(state.n, target, controls)
        if diagonal:
            for side, factor in ((i0, m00), (i1, m11)):
                if factor != 1:
                    gathered = amps[side]
                    gathered *= factor
                    amps[side] = gathered
        elif swap:
            amps[pairs] = amps[swapped]
        else:
            # all four products m[i, j] * a_j in one fresh array, summed in
            # pairs; the sum of two terms does not depend on their order, so
            # this is m00*a0 + m01*a1 and m10*a0 + m11*a1 bit for bit
            prod = np.multiply(matrix.reshape(2, 2, 1), amps[pairs])
            amps[pairs] = np.add(prod[:, 0], prod[:, 1])
        return state
    index, perm = _pair_index(state.n, target, controls)
    pair = state.tensor()[index].transpose(perm)
    if diagonal:
        for side, factor in ((pair[:1], m00), (pair[1:], m11)):
            if factor != 1:
                np.multiply(side, factor, out=side)
    elif swap:
        pair[...] = pair[::-1]
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

    Every call validates ``code`` and runs the ops ``validate`` returns as
    they are, each gate with the matrix its ``Gate`` carries; ``code`` is
    never written.  The kernels are looked up when called, so a module
    attribute set in their place is used.
    """
    ops = code.validate()
    state, rng = StateVector.zero(0), Xoshiro256StarStar(seed)
    futures: dict[int, int] = {}
    dumps: dict[int, DumpData] = {}
    pc, end = 0, len(ops)
    while pc < end:
        kind, a, b, c, ins = ops[pc]
        pc += 1
        if kind is GateApp:
            apply_kernel(state, a.matrix, b, c)
        elif kind is Branch:
            if futures[a] != b:
                pc = c  # past the body
            continue  # no state change to re-check
        elif kind is Measure:
            futures[b] = measure_kernel(state, a, rng)[0]
        elif kind is Dump:
            dumps[b] = extract_dump(state, a)
        else:
            state.extend(a)
        norm = state.norm_sq()
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise EngineFailure(f"state norm drifted by {norm - 1.0:.3g} to {norm} after {ins!r}")
    return ExecutionResult(futures=futures, dumps=dumps)
