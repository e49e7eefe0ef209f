"""Dense state-vector execution of recorded programs.

Qubit ``i`` occupies bit ``n - 1 - i`` of the amplitude index, so qubit 0 is
the leftmost symbol in |...⟩ labels and the most significant bit of
measurement outcomes.  Gates address the flat vector (below); the two
readouts share one view of it, ``_selection``, a ``(2,)*n`` reshape with
the unselected qubits' axes first, in qubit order, and the selected ones
last, in the listed order.  Writes through the view reach the state.

- A gate touches the pairs of amplitudes that differ in the target bit and
  have every control bit set; the *sides* are the halves of those pairs in
  which the target reads 0 and 1.  Three rules cover every matrix.  A
  diagonal one (Z, RZ, phase and their controlled forms, most of a QFT) only
  scales the sides whose factor is not exactly 1.  An X (and so CNOT and any
  multi-controlled X) swaps the sides.  Any other matrix (H, RX, RY, Y)
  forms the products ``m[i, j] * a_j`` and sums them in pairs.  Two forms
  do this, with the same products and sums bit for bit, and leave every
  other amplitude as it was, the sign of a zero too.  Sides of fewer than
  ``_IN_PLACE_MIN`` amplitudes work by flat index: a bounded cache keyed by
  ``(n, target, controls)`` lists the touched amplitudes, each one's
  partner ``p`` across the target bit, the two sides, and where in the flat
  matrix each amplitude's coefficients ``c0`` (its own) and ``c1`` (its
  partner's) lie.  A diagonal gate scales the touched amplitudes by ``c0``
  in one product, or scales each side alone when a factor is exactly 1
  or a side is one amplitude; an X gathers the partners; and any other gate
  is ``c0 * a + c1 * a[p]``, one gather of both, one product and one sum.
  The result is written only where the gate acts.  Larger sides are one
  pair view, built on every call without a cache: the flat vector reshaped
  to an axis of 2 for each of the gate's qubits and one axis for each run
  of other qubits around them, every control axis read at 1 and the target
  axis moved to the front.  An X or a dense gate runs on it block by
  block, as it would on the whole view: an X copies the reversed pair, and
  a dense gate copies one side and writes both in place through one more
  buffer of a side.
- ``_squared_magnitudes`` squares the magnitudes for both readouts, in the
  one array that ``np.abs`` writes.
- A measurement sums ``|amplitude|²`` over the view's unselected axes,
  samples an outcome, and keeps only that outcome's slice of the view.  Of
  every qubit, it squares the magnitudes into one new buffer, whose ravel
  copies nothing.  It takes the cumulative sum for the draw block by block.
- A dump checks every row of the view (one group per pattern of the
  unselected qubits) against one reference group by rank-1 residuals,
  block by block, and sums each group's squares in one place, ``per_group``.

``_blocks(array, limit)`` alone cuts the blocks of gates, dumps and the
draw's cumulative sum, as views of at most ``limit`` elements per index of
axis 0: sides of ``_BLOCK`` amplitudes for a gate on a pair view, ``_BLOCK``
outcomes for a draw, and for a dump ``2 * _BLOCK`` amplitudes of groups that
are a view of the state, ``_BLOCK`` of copied ones, or one larger group.

No bit depends on the blocks: each amplitude, sum and product sees the same
operations on the same operand layout as it would on the whole.  Temporary
memory per call, for a state of S = 16·2^n bytes of which a gate with c
controls touches t = S / 2^c, and blocks of B = 16·_BLOCK bytes (128 KiB):

    rule                     by flat index           on a pair view
    diagonal, one product    t, 2·t controlled       nothing
    diagonal, side by side   t / 2                   nothing
    X                        t                       2·B
    any other matrix         4·t                     4·B

By flat index t is under 64 KiB: the gathered amplitudes, coefficients,
products and sums are each t or 2·t, and each cached entry keeps 2.5·t bytes
of indices.  On a pair view, an X copies a block's reversed pair, which
overlaps its destination, and a dense gate a block's side and one product,
plus numpy's iteration buffers of up to a side per strided operand.

    readout of k qubits    temporaries
    measurement            max(S / 2, S / 2^k + b) + S / 2^(n-k+1) for k < n, S / 2 + 2·B for k = n
    dump                   5·S / 2^(n-k) + S / 2^(k-1) + 4·B

A measurement holds its outcomes' distribution throughout, and first the
squared magnitudes, then the kept slice of S / 2^k.  Where that slice is
strided in two or more dimensions (as for one middle qubit), numpy scales it
through an iteration buffer of b = min(S / 2^k, B) (numpy 2.4.6); for any
other slice b is 0.  So measuring one middle qubit takes about S at n = 12.
A dump holds four arrays of one float per group (norms, residual norms and
their comparisons), one block of groups with its squares and residuals, and
up to five vectors of the selection at once (the reference with its
conjugate, then with the indices and values it lists and their negation).
Its groups are a view of the state, never written, when the qubits are one
run in ascending order at either end of the register; otherwise each block
is copied, so a block and its residuals take 2·B either way.  The tuples it
returns take about 8·S more when it lists every amplitude.

``execute`` runs the flat ops that ``QuantumCode.validate`` returns, as they
are: a conditioned block is a forward jump, with no tree walk, recursion or
closure, and a gate applies the matrix its ``Gate`` carries.

Execution is a pure function of ``(code, seed)``: one xoshiro256** stream per
run, advanced by exactly one draw per measurement, with the outcome chosen
against the cumulative outcome distribution in ascending outcome order.
"""

from __future__ import annotations

import functools
import itertools
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

# Gates whose sides hold at least this many amplitudes (32 KiB) work on a
# strided view of the state, and a dense one updates it in place, in six
# ufunc calls per block through one buffer of a side; smaller ones work by
# flat index.
# Per call on a 2-vCPU x86-64 host, averaged over targets, with this bound
# forced each way in one process, the flat-index form took 0.38-0.91x the
# view's time on sides of 2^8-2^9 amplitudes for H, X, RY, RZ and phase with
# 0-2 controls, and 0.54-1.06x on 2^10.  On 2^11 it took 0.65-0.94x without
# controls but up to 1.32x with them, and on 2^12 up to 3.2x.
_IN_PLACE_MIN = 1 << 11

# The limit that _blocks is given, in amplitudes (128 KiB) per side: by
# apply_kernel for X and dense gates on pair views, by _draw for the
# cumulative sum of a measurement's distribution, and by extract_dump for
# its groups (twice this where they are a view of the state).  So their
# temporaries stay a few blocks, not a share of the state.  Per call on a
# 2-vCPU x86-64 host, averaged over targets, in 20 alternating pairs of
# processes against whole sides, H, X and RY with 0 and 1 control took
# 0.44-0.84x the time at n = 17-20 and 0.51-1.04x at n = 16.  At n = 15 an
# X's two blocks cost more calls than they save (1.04-1.07x, about 2 us),
# and dense gates on blocks of 2^13 swing with heap layout (0.80-1.42x), as
# whole sides of 2^13 do.  In 20 more pairs, _blocks alone took 0.95-1.04x
# the time of the walkers it replaced for X and H at n = 12-18, dumps at
# n = 2-18 and readouts at n = 14-18, and 1.04-1.08x (0.6-0.9 us) for
# measurements at n = 2-8.
_BLOCK = 1 << 13

# Entries kept by the cache of flat indices, the kernel's only cache, keyed by
# (n, target, controls).  Its largest entry, for a gate without controls at
# sides of _IN_PLACE_MIN / 2, is 5·2^11 indices of 8 bytes (80 KiB) plus under
# 1 KiB of array headers, so at this size it holds at most about 7.6 MiB.  The
# benchmark's programs use at most 91 patterns per process.  A program that
# cycles through more patterns than this misses on most of them every pass,
# since an LRU smaller than a loop's working set evicts each entry before its
# next use.  On one core of a 2-vCPU host, seeded 600-gate programs with 112-148
# patterns at n = 8-10 took 1.4-1.9x the time per execute that they took with
# 1024 entries.
_GATHER_CACHE_SIZE = 96


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary of a gate: ``gate.matrix``, shared by equal gates and read-only."""
    return gate.matrix


@dataclass(eq=False)  # compared and hashed by identity: == on arrays has no truth value
class StateVector:
    """2**n complex amplitudes in a flat vector; the engine's ground truth."""

    n: int
    amps: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls.basis(n, 0)

    @classmethod
    def basis(cls, n: int, k: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[k] = 1.0
        return cls(n, amps)

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
    the first listed amplitude has phase in (-π/2, π/2].
    """

    qubits: tuple[int, ...]
    basis_states: tuple[tuple[int, complex], ...]


@dataclass(frozen=True)
class ExecutionResult:
    """Everything a program run produced, keyed by future and dump ids."""

    futures: dict[int, int]
    dumps: dict[int, DumpData]


def _check_qubits(n: int, qubits: tuple[int, ...], what: str) -> None:
    """Raise unless the ``what`` selection ``qubits`` is not empty, in range and distinct."""
    if not qubits:
        raise ValueError(f"{what} selection is empty")
    for q in qubits:
        if not 0 <= q < n:
            raise IndexOutOfRange(f"qubit {q} out of range for {n}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise IndexOverlap(f"{what} qubits {qubits} overlap")


def _selection(state: StateVector, qubits: tuple[int, ...], what: str) -> np.ndarray:
    """The readout view of the module docstring, for the ``what`` selection ``qubits``."""
    _check_qubits(state.n, qubits, what)
    rest = [q for q in range(state.n) if q not in qubits]
    return state.amps.reshape((2,) * state.n).transpose(rest + list(qubits))


@functools.lru_cache(maxsize=_GATHER_CACHE_SIZE)
def _pair_gather(n: int, target: int, controls: tuple[int, ...]):
    """Flat indices of a gate's amplitudes, for sides below ``_IN_PLACE_MIN``.

    Row 0 of ``rows`` lists in ascending order every index whose control
    bits are all 1, and row 1 each one's partner across the target bit.
    ``k`` holds the index, in the flat matrix, of the coefficient of each
    amplitude in row 0 (``m00`` or ``m11``) and of its partner's (``m01``
    or ``m10``), and ``side0`` and ``side1`` the indices of row 0 whose
    target bit is 0 and 1.  Returns ``at``, where the kernel writes (row 0,
    or the whole state for a gate without controls, which touches every
    amplitude), ``rows``, row 1, ``k``, ``k[0]`` and the two sides, all
    read-only and split here, since numpy is slow to split an array per
    call.  The qubit checks run on a miss, and a failing one raises, so only
    valid triples are cached.
    """
    _check_qubits(n, (target, *controls), "gate")
    bit = 1 << (n - 1 - target)
    mask = sum(1 << (n - 1 - c) for c in controls)
    indices = np.arange(1 << n)
    at = indices[indices & mask == mask]
    upper = at & bit != 0
    rows, k = np.stack((at, at ^ bit)), np.stack((3 * upper, 1 + upper))
    side0, side1 = at[~upper], at[upper]
    for array in (rows, k, side0, side1):
        array.setflags(write=False)
    return rows[0] if controls else slice(None), rows, rows[1], k, k[0], side0, side1


def apply_kernel(
    state: StateVector,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a controlled 2x2 gate in place and return the state.

    Touches exactly the amplitude pairs that differ in the target bit and
    have every control bit set to 1.  ``matrix`` is only read, so the shared
    read-only matrices that gates carry serve every call.  Small gates take
    their checked flat indices from ``_pair_gather``'s cache; larger ones
    check their qubits and reshape the state into their pair view on every
    call.
    """
    controls = tuple(controls)
    (m00, m01), (m10, m11) = matrix.tolist()
    # Three rules, in each form: a diagonal matrix scales the sides, an X
    # swaps them, and any other matrix, a Y too, sums the products of both
    # sides, zero ones included, as the pair oracle does.  numpy's vector
    # loop rounds ``m * a`` and ``a * m`` differently, and falls back to a
    # scalar loop, which rounds differently again, when an output
    # interleaves with an input or is its own input of one element; an
    # output that is its own contiguous input of two or more elements rounds
    # as a fresh one.  So each product writes to fresh memory or to exactly
    # its input, with the coefficient first in a dense gate and the amplitude
    # first in a diagonal one, as the oracle's in-place scaling does.  A
    # diagonal gate scales a side of one amplitude alone in place, as the
    # oracle does, and skips a factor of exactly 1, since scaling by it can
    # flip the sign of a zero.  This was seen with numpy 2.4.6 on an x86-64
    # host with AVX-512; it is observed behaviour, not a numpy guarantee.  If
    # the bit-exact pair-oracle test fails after a numpy or CPU change while
    # the amplitudes agree to an ulp, suspect that change first.
    amps = state.amps
    diagonal = m01 == 0 and m10 == 0
    swap = m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1
    # sides of 2^(n-1-c) amplitudes; more controls than qubits fail the checks
    if len(amps) >> len(controls) < 2 * _IN_PLACE_MIN:
        at, rows, p, k, k0, side0, side1 = _pair_gather(state.n, target, controls)
        if diagonal and (m00 == 1 or m11 == 1 or len(controls) >= state.n - 1):
            for side, factor in ((side0, m00), (side1, m11)):
                if factor != 1:
                    amps[side] *= factor
        elif diagonal:
            amps[at] *= matrix.ravel()[k0]
        elif swap:
            amps[at] = amps[p]
        else:
            pair = amps[rows]
            np.multiply(matrix.ravel()[k], pair, out=pair)
            if controls:
                amps[at] = np.add(pair[0], pair[1])
            else:  # every amplitude, in index order
                np.add(pair[0], pair[1], out=amps)
        return state
    # An axis of 2 per gate qubit and one per run of other qubits around them
    # (of 1 where a run is empty): 2c + 3 axes for c controls, and c + 3 once
    # each control is read at the integer 1.  The target axis moves to the
    # front with the rest in order, so a side copies in memory order.  Sides
    # of _IN_PLACE_MIN or more bound c by n - 12, so MAX_QUBITS = 24 gives at
    # most 27 axes in the reshape, under numpy 1.x's limit of 32.
    _check_qubits(state.n, (target, *controls), "gate")
    shape, index, start = [], [], 0
    for q in (qubits := sorted((target, *controls))):
        shape += (1 << (q - start), 2)
        index += (slice(None), slice(None) if q == target else 1)
        start = q + 1
    front = 1 + qubits.index(target)  # a run axis before each qubit up to it
    view = amps.reshape(*shape, 1 << (state.n - start))[tuple(index)]
    pair = view.transpose(front, *range(front), *range(front + 1, view.ndim))
    if diagonal:
        for side, factor in ((pair[0], m00), (pair[1], m11)):
            if factor != 1:
                np.multiply(side, factor, out=side)
        return state
    for block in _blocks(pair, _BLOCK):
        if swap:
            block[...] = block[::-1]
        else:
            v0, v1 = block[0], block[1]
            a0 = v0.copy()
            a1 = m01 * v1
            np.multiply(m00, a0, out=v0)
            v0 += a1
            np.multiply(m11, v1, out=a1)
            np.multiply(m10, a0, out=v1)
            v1 += a1
    return state


def _blocks(array: np.ndarray, limit: int):
    """Disjoint views of ``array`` that hold at most ``limit`` elements per index of axis 0.

    Axis 0 stays whole.  An array that fits is returned alone, as ``(array,)``.
    Otherwise the other axes are split from the outermost in: the leading
    ones are fixed and one more is cut into chunks, so the inner axes, and
    with them the layout of every operand, stay as they are.
    """
    if array.size <= limit * len(array):
        return (array,)
    runs = array.shape[1:]
    axis, inner = len(runs) - 1, 1
    while inner * runs[axis] <= limit:
        inner *= runs[axis]
        axis -= 1
    step = limit // inner
    return (
        array[(slice(None), *outer, slice(start, start + step))]
        for outer in itertools.product(*map(range, runs[:axis]))
        for start in range(0, runs[axis], step)
    )


def measure_kernel(
    state: StateVector, qubits: Sequence[int], rng: Xoshiro256StarStar
) -> tuple[int, StateVector]:
    """Sample an outcome by the Born rule and collapse the state in place.

    The outcome integer reads the listed qubits with the first as MSB.
    Amplitudes inconsistent with the outcome are zeroed and the rest divided
    by √p, so the state stays normalized.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    view = _selection(state, qubits, "measurement")
    if k < state.n:
        probs = _squared_magnitudes(view).sum(axis=tuple(range(state.n - k))).ravel()
    else:  # in one C-contiguous buffer, which a sum over no axis would copy
        probs = _squared_magnitudes(view, np.empty(view.shape)).ravel()
    total = float(probs.sum())
    if not total >= 1e-12:  # a NaN total fails too
        raise DegenerateState("state has no probability mass left")
    if math.isinf(total):
        raise DegenerateState("state has infinite probability mass")
    outcome = _draw(probs, rng.uniform())
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


def _draw(probs: np.ndarray, u: float) -> int:
    """``np.searchsorted(np.cumsum(probs), u, side="right")``, ``_BLOCK`` outcomes at a time.

    Each block after the first starts its cumulative sum from the last sum of
    the one before, so the additions are one cumulative sum's, in its order.
    It stops at the block holding ``u``, or returns ``len(probs)``.
    """
    start = 0
    for block in _blocks(probs[None], _BLOCK):
        if start:
            cumulative = np.cumsum(np.concatenate((cumulative[-1:], block[0])))[1:]
        else:
            cumulative = np.cumsum(block[0])
        found = start + int(np.searchsorted(cumulative, u, side="right"))
        start += len(cumulative)
        if found < start:
            return found
    return start


def extract_dump(state: StateVector, qubits: Sequence[int]) -> DumpData:
    """Read the standalone pure state of the selected qubits.

    The full amplitudes are grouped by the bit pattern of the unselected
    qubits; every group with non-negligible norm must be parallel to the
    reference group (relative residual <= 1e-9), otherwise the selection has
    no pure state of its own and EntangledSelection is raised.  The reference
    is the first group whose norm is within a factor 1 - 1e-9 of the largest,
    so rounding in the norms cannot move the dump's global phase.  The common
    vector is normalized, so some amplitude is above ``DUST``; only those are
    listed, sign-flipped so the first has phase in (-π/2, π/2].  A largest
    group norm of zero, NaN or infinity raises DegenerateState.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    view = _selection(state, qubits, "dump")
    # blocks of groups, copied unless the groups are a view of the state
    in_place = qubits in (tuple(range(k)), tuple(range(state.n - k, state.n)))
    limit = max(_BLOCK << in_place, 1 << k)
    copy = np.asarray if in_place else np.ascontiguousarray

    def per_group(squares):
        """Each group's root sum of ``squares(groups)``, block by block, in one array."""
        out, start = np.empty(1 << (state.n - k)), 0
        for block in _blocks(view[None], limit):
            g = copy(block).reshape(-1, 1 << k)
            squares(g).sum(axis=1, out=out[start : start + len(g)])
            start += len(g)
        return np.sqrt(out, out=out)

    norms = per_group(_squared_magnitudes)
    largest = norms.max()
    if not largest > 0:  # a NaN fails too
        raise DegenerateState("state has no probability mass left")
    if math.isinf(largest):
        raise DegenerateState("state has infinite probability mass")
    dominant = int(np.argmax(norms >= largest * (1 - 1e-9)))
    row = view[np.unravel_index(dominant, view.shape[: state.n - k])]
    reference = row.ravel() / norms[dominant]
    conjugate = reference.conj()
    residual_norms = per_group(lambda g: _residual_squares(g, reference, conjugate))
    if np.any((norms > 1e-9) & (residual_norms > 1e-9 * norms)):
        raise EntangledSelection(f"qubits {qubits} are entangled with the rest of the state")
    significant = np.flatnonzero(np.abs(reference) > DUST)
    vector = reference[significant]
    lead = vector[0]
    if not -math.pi / 2 < math.atan2(lead.imag, lead.real) <= math.pi / 2:
        vector = -vector
    return DumpData(qubits, tuple(zip(significant.tolist(), vector.tolist())))


def _squared_magnitudes(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.abs(values) ** 2``, bit for bit, in one array: ``out`` if given, else a new one.

    The magnitudes are squared in place, so no second array is made, even
    below the size from which numpy elides the temporary of ``** 2``.  The
    square runs on a flat view in memory order: in place on the permuted
    axes of a measurement's view, numpy takes a slower loop than ``** 2``
    (about 0.5 µs more at 2^8 amplitudes).  So ``out`` must be one dense
    buffer, as ``np.empty`` makes.
    """
    magnitudes = np.abs(values, out=out)
    flat = magnitudes.ravel("K")  # a view of the one dense buffer
    np.square(flat, out=flat)
    return magnitudes


def _residual_squares(groups: np.ndarray, reference: np.ndarray, conjugate: np.ndarray) -> np.ndarray:
    """Squared parts of each group less its projection onto ``reference``, one group a row.

    ``conjugate`` is the reference conjugated.  Each row holds the squared
    real and imaginary parts of a group's residual, so its sum is the
    squared residual norm.
    """
    # one C-contiguous buffer (so it has a float view) holds the projections
    # of the groups onto the reference, then the residuals; numpy sums them,
    # not BLAS matmul, whose first call maps work buffers of its own
    residual = np.multiply(groups, conjugate, out=np.empty(groups.shape, dtype=complex))
    np.multiply.outer(residual.sum(axis=1), reference, out=residual)
    np.subtract(groups, residual, out=residual)
    squares = residual.view(float)
    return np.square(squares, out=squares)


def execute(code: QuantumCode, seed: int = 0) -> ExecutionResult:
    """Interpret a program deterministically and collect all results.

    Allocation extends the state with |0⟩ qubits, gates run through
    ``apply_kernel``, measurements through ``measure_kernel``, dumps through
    ``extract_dump``, and a conditioned block runs iff its future, already
    recorded earlier in the run, equals the literal.  A state whose norm
    drifts from 1 by more than 1e-9 raises EngineFailure.

    Every call validates ``code`` and runs the ops ``validate`` returns as
    they are, each gate with the matrix its ``Gate`` carries.  No field of
    ``code`` changes, but the first ``validate`` stores the ops under
    ``_ops`` in its ``__dict__``; ``==``, ``hash``, ``repr``, ``pickle`` and
    ``copy`` ignore them.  The kernels are looked up when called, so a
    module attribute set in their place is used.
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
