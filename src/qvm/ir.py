"""Program construction: processes, qubit handles, and the instruction stream.

A :class:`Process` records every quantum operation into an instruction list
instead of performing it.  Gates may be wrapped in control and adjoint scopes
that rewrite the recorded stream, and measurements or state dumps hand back
placeholder values whose first read triggers execution of the accumulated
program.  That single execution freezes the process: afterwards every handle
is invalid and every attempt to extend the program raises
:class:`~qvm.errors.ProcessTerminated`.

Scope rules enforced while recording:

* scopes nest: an ``*_end`` closes only the innermost open scope, and a
  conditioned-block body, like a ``with`` body, must close exactly the
  scopes it opens;
* allocation, measurement, and dumps are rejected inside any open control or
  adjoint scope and inside conditioned-block bodies; an around's body may
  measure and allocate;
* control scopes accumulate: each recorded gate picks up the controls of all
  open control scopes, outermost first;
* adjoint scopes buffer gates and, on close, append the reversed sequence
  with each gate inverted, so nested adjoints cancel pairwise;
* an around runs its ``outer`` once and keeps the gates it recorded; on
  close it appends their reversed inverses, as an adjoint scope does;
* a failing ``around_end``, ``with`` body or conditioned-block body leaves
  no scope open.
"""

from __future__ import annotations

import cmath
import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from .errors import (
    ControlTargetOverlap,
    DuplicateControl,
    InvalidHandle,
    MalformedCode,
    ProcessTerminated,
    ScopeUnderflow,
    ScopeViolation,
    UnknownFuture,
)

if TYPE_CHECKING:
    from .simulator import DumpData, ExecutionResult


class GateKind(str, Enum):
    PAULI_X = "x"
    PAULI_Y = "y"
    PAULI_Z = "z"
    HADAMARD = "h"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    PHASE = "phase"


PARAMETRIC_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.PHASE})

# Most qubits a program may allocate: the engine's state then takes
# 16·2^24 B = 256 MiB, and a dense gate up to twice that again in temporaries.
MAX_QUBITS = 24

# Most conditioned blocks a program may nest, checked in ``QuantumCode.validate``
# and by ``Process.branch``.  The generated ``==``, ``hash`` and ``repr``, pickling
# and the JSON encoder and decoder recurse a few frames per level; at 100 levels,
# on Python 3.11 with the default recursion limit of 1000, ``==``, ``repr`` and a
# pickle round trip hold from a caller up to about 580 frames deep, and
# ``serialize``, ``deserialize`` and ``hash`` up to about 790.
MAX_DEPTH = 100


def short_repr(value) -> str:
    """``repr(value)`` cut to at most 80 characters, so a hostile value cannot flood a message."""
    try:
        text = repr(value)
    except ValueError:  # an integer past the interpreter's limit on digits to print
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= 80 else text[:77] + "..."


# Equal gates have equal matrices, so the cache cannot change a result.  Angles
# of +0.0 and -0.0 compare equal and share an entry; the two matrices differ
# at most in the signs of zeros, and both are the identity, which the
# diagonal path of ``simulator.apply_kernel`` skips.
@functools.lru_cache(maxsize=1024)
def _unitary(kind: GateKind, t: float | None) -> np.ndarray:
    """2x2 unitary of a gate kind and angle, cached and shared, so it is read-only."""
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


@dataclass(frozen=True)
class Gate:
    """A single-qubit gate; rotation and phase kinds carry an angle in radians.

    ``kind`` may also be given by name, such as "rx"; an unknown name raises ValueError.
    ``matrix`` is the gate's 2x2 unitary, shared read-only by every equal gate
    and left out of equality, ``repr`` and pickling, which rebuilds a gate from
    its kind and angle.  RX(θ) = [[cos θ/2, -i sin θ/2], [-i sin θ/2, cos θ/2]],
    RY(θ) = [[cos θ/2, -sin θ/2], [sin θ/2, cos θ/2]], Phase(λ) = diag(1, e^{iλ})
    and RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2}); an inverse's is the conjugate transpose.
    """

    kind: GateKind
    angle: float | None = None
    matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind.__class__ is not GateKind:
            try:
                object.__setattr__(self, "kind", GateKind(self.kind))
            except ValueError:
                raise ValueError(f"unknown gate kind {short_repr(self.kind)}") from None
        if self.kind in PARAMETRIC_KINDS:
            # the class test first keeps the common float angle off isinstance
            if self.angle.__class__ is not float and isinstance(self.angle, (bool, np.bool_)):
                raise TypeError(f"gate angle must be a real number, got {self.angle!r}")
            try:
                finite = self.angle is not None and math.isfinite(self.angle)
            except OverflowError:  # an integer past a float's range
                finite = False
            if not finite:
                raise ValueError(f"gate {self.kind.value!r} requires a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"gate {self.kind.value!r} takes no angle")
        object.__setattr__(self, "matrix", _unitary(self.kind, self.angle))

    def __reduce__(self):
        return self.__class__, (self.kind, self.angle)

    def inverse(self) -> "Gate":
        # X, Y, Z, H are self-inverse; parametric gates invert by negating the angle.
        if self.kind in PARAMETRIC_KINDS:
            return Gate(self.kind, -self.angle)
        return self


@dataclass(frozen=True)
class Alloc:
    count: int


@dataclass(frozen=True)
class GateApp:
    gate: Gate
    target: int
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class Measure:
    qubits: tuple[int, ...]
    future: int


@dataclass(frozen=True)
class Dump:
    qubits: tuple[int, ...]
    dump: int


@dataclass(frozen=True)
class Condition:
    """Equality test of a measurement future against an integer literal."""

    future: int
    equals: int


@dataclass(frozen=True)
class Branch:
    condition: Condition
    body: tuple["Instruction", ...]


Instruction = Union[Alloc, GateApp, Measure, Dump, Branch]


@dataclass(frozen=True)
class QuantumCode:
    """A complete recorded program, ready for execution or serialization."""

    num_qubits: int
    instructions: tuple[Instruction, ...]
    num_futures: int = 0
    num_dumps: int = 0

    def validate(self) -> tuple:
        """Check structural well-formedness and return the program's flat ops.

        Any defect raises MalformedCode.  Qubit references are checked against
        the number of qubits allocated up to that point in program order, so a
        gate can never run before its qubit exists.  Any field of the wrong
        type or shape raises MalformedCode too: a type must be exact, so a
        list or a tuple subclass where the dataclass declares a tuple fails,
        as does a subclass of an instruction, ``Gate``, ``Condition`` or
        ``QuantumCode``.

        The ops are the engine's input: ``simulator.execute`` runs them, and
        every other caller uses this call as a check only.  Each op is
        ``(kind, a, b, c, instruction)`` with ``kind`` the instruction's
        class: ``GateApp`` (gate, target, controls), ``Alloc`` (count),
        ``Measure`` (qubits, future), ``Dump`` (qubits, dump) or ``Branch``
        (future, literal, index of the first op past its body, which follows
        it).  Each field is read once, and the ops hold the values checked.

        A code that passes cannot change, so it remembers its ops and later
        calls return them at once; a failed check is never remembered.
        """
        ops = self.__dict__.get("_ops")
        if ops is not None:
            return ops
        _check_type(self, QuantumCode, "program")
        num_qubits, num_futures, num_dumps = self.num_qubits, self.num_futures, self.num_dumps
        if not all(map(_is_int, (num_qubits, num_futures, num_dumps))):
            raise MalformedCode("header counts must be integers")
        instructions = self.instructions
        _check_type(instructions, tuple, "program instructions")
        allocated = 0
        futures: set[int] = set()
        dumps: set[int] = set()
        ops = []
        append = ops.append
        blocks = [iter(instructions)]
        branches = []  # (index of its op, future, literal, instruction) of each open branch
        while blocks:
            for ins in blocks[-1]:
                kind = type(ins)
                if kind is GateApp:  # first: most instructions are gates
                    gate, target, controls = ins.gate, ins.target, ins.controls
                    if type(gate) is not Gate:
                        raise MalformedCode("gate application without a gate")
                    if type(controls) is not tuple:  # inline, as this runs per gate
                        _check_type(controls, tuple, "gate controls")
                    _check_indices((target, *controls), allocated, "gate")
                    append((GateApp, gate, target, controls, ins))
                elif kind is Alloc:
                    if len(blocks) > 1:
                        raise MalformedCode("allocation inside a conditioned block")
                    count = ins.count
                    if not _is_int(count) or count < 1:
                        raise MalformedCode(f"allocation count must be >= 1, got {short_repr(count)}")
                    allocated += count
                    if allocated > MAX_QUBITS:
                        raise MalformedCode(
                            f"program allocates {short_repr(allocated)} qubits, more than the limit of {MAX_QUBITS}"
                        )
                    append((Alloc, count, None, None, ins))
                elif kind is Measure:
                    if len(blocks) > 1:
                        raise MalformedCode("measurement inside a conditioned block")
                    qubits, future = ins.qubits, ins.future
                    _check_readout(qubits, allocated, "measure", future, "future", futures)
                    append((Measure, qubits, future, None, ins))
                elif kind is Dump:
                    if len(blocks) > 1:
                        raise MalformedCode("dump inside a conditioned block")
                    qubits, dump = ins.qubits, ins.dump
                    _check_readout(qubits, allocated, "dump", dump, "dump", dumps)
                    append((Dump, qubits, dump, None, ins))
                elif kind is Branch:
                    condition, body = ins.condition, ins.body
                    _check_type(condition, Condition, "branch condition")
                    _check_type(body, tuple, "branch body")
                    future, equals = condition.future, condition.equals
                    if not (_is_int(future) and _is_int(equals)):
                        raise MalformedCode(f"condition must hold integers, got {short_repr(condition)}")
                    if future not in futures:
                        raise MalformedCode(f"condition on future {short_repr(future)} with no prior measure")
                    if equals < 0:
                        raise MalformedCode("condition literal must be non-negative")
                    if len(blocks) > MAX_DEPTH:
                        raise MalformedCode(f"conditioned blocks nested too deeply (limit {MAX_DEPTH})")
                    branches.append((len(ops), future, equals, ins))
                    append(None)  # the branch's op, written when its body ends
                    blocks.append(iter(body))
                    break
                else:
                    raise MalformedCode(f"unknown instruction {short_repr(ins)}")
            else:
                blocks.pop()
                if branches:
                    at, future, equals, ins = branches.pop()
                    ops[at] = (Branch, future, equals, len(ops), ins)
        if allocated != num_qubits:
            raise MalformedCode(f"program allocates {allocated} qubits, header says {short_repr(num_qubits)}")
        # lengths first, so a hostile header count builds no huge range
        if len(futures) != num_futures or futures != set(range(num_futures)):
            raise MalformedCode("future ids are not exactly 0..num_futures-1")
        if len(dumps) != num_dumps or dumps != set(range(num_dumps)):
            raise MalformedCode("dump ids are not exactly 0..num_dumps-1")
        ops = tuple(ops)
        self.__dict__["_ops"] = ops
        return ops

    def __getstate__(self):
        # the fields only: ``pickle`` and ``copy`` carry no remembered ops
        state = dict(self.__dict__)
        state.pop("_ops", None)
        return state

    def __deepcopy__(self, memo):
        # every field is immutable, so a shallow copy is a deep one.  It takes
        # microseconds where the generated deep copy, which copies every
        # instruction, takes milliseconds, and it does not recurse, where the
        # generated one fails from 83 levels under a caller 400 frames deep
        return copy.copy(self)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(value, kind: type, what: str) -> None:
    if type(value) is not kind:
        raise MalformedCode(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _check_indices(qubits: Sequence[int], allocated: int, what: str) -> None:
    for q in qubits:
        if not _is_int(q) or not 0 <= q < allocated:
            raise MalformedCode(f"{what} references qubit {short_repr(q)}, only {allocated} allocated")
    if len(set(qubits)) != len(qubits):
        raise MalformedCode(f"{what} lists a qubit more than once")


def _check_readout(qubits, allocated: int, what: str, rid, kind: str, seen: set[int]) -> None:
    """Check a measure's or dump's qubits and id."""
    _check_type(qubits, tuple, f"{what} qubits")
    _check_indices(qubits, allocated, what)
    if not qubits:
        raise MalformedCode(f"{what} covers no qubits")
    if not _is_int(rid):
        raise MalformedCode(f"{kind} id must be an integer, got {short_repr(rid)}")
    if rid in seen:
        raise MalformedCode(f"{kind} id {short_repr(rid)} produced twice")
    seen.add(rid)


class ProcessState(Enum):
    BUILDING = "building"
    EXECUTED = "executed"


@dataclass(slots=True)
class _Scope:
    """One scope frame, and what the open scopes mean while it is on top.

    ``kind`` is "root", "control", "adjoint", "around" or "branch".  The
    derived fields are set once, when the frame opens: ``controls`` holds
    every control in force, outermost first; ``sink`` is where gates go, the
    frame's own buffer for an adjoint or a branch and otherwise the enclosing
    frame's sink; ``guard`` is the innermost kind other than "around", or
    "root", and decides what may be recorded.
    """

    kind: str
    controls: tuple[int, ...]
    sink: list[Instruction]
    guard: str
    # around: what ``outer`` recorded, or None until ``outer`` has returned
    outer: tuple[Instruction, ...] | None = None


_process_ids = itertools.count()


@dataclass(frozen=True)
class QubitHandle:
    """Reference to one qubit of a process; valid only while it is building."""

    process_id: int
    index: int
    process: "Process" = field(repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return self.process.state is ProcessState.BUILDING


@dataclass(frozen=True, eq=False)
class FutureValue:
    """Promise for a measurement outcome; reading it executes the program."""

    process: "Process" = field(repr=False)
    future_id: int = 0

    @property
    def process_id(self) -> int:
        return self.process.id

    @property
    def cached(self) -> int | None:
        result = self.process.result
        return None if result is None else result.futures[self.future_id]

    @property
    def value(self) -> int:
        return self.process.execute().futures[self.future_id]


@dataclass(frozen=True, eq=False)
class DumpSnapshot:
    """Promise for a state snapshot; reading it executes the program."""

    process: "Process" = field(repr=False)
    dump_id: int = 0

    @property
    def cached(self) -> "DumpData | None":
        result = self.process.result
        return None if result is None else result.dumps[self.dump_id]

    @property
    def data(self) -> "DumpData":
        return self.process.execute().dumps[self.dump_id]


class Process:
    """Records quantum instructions and defers their execution.

    Every method that extends the program requires the process to be in the
    building state.  ``execute`` (called implicitly by the first future or
    dump read) runs the recorded program once on the bundled simulator and
    caches the results; it is idempotent afterwards.

    A process and its handles form a single-threaded unit; distinct
    processes are independent and may run concurrently.
    """

    def __init__(self, seed: int = 0):
        if not _is_int(seed):
            raise TypeError(f"seed must be an integer, got {short_repr(seed)}")
        self.id = next(_process_ids)
        self.seed = seed
        self.num_qubits = 0
        self.num_futures = 0
        self.num_dumps = 0
        self._instructions: list[Instruction] = []
        self._root = _Scope("root", (), self._instructions, "root")
        self._scopes: list[_Scope] = []
        self._result: "ExecutionResult | None" = None

    def __repr__(self):
        return (
            f"Process(id={self.id}, qubits={self.num_qubits}, "
            f"state={self.state.value})"
        )

    @property
    def code(self) -> QuantumCode:
        """Snapshot of the program recorded so far (buffered scopes excluded)."""
        return QuantumCode(
            self.num_qubits, tuple(self._instructions), self.num_futures, self.num_dumps
        )

    @property
    def result(self) -> "ExecutionResult | None":
        return self._result

    @property
    def state(self) -> ProcessState:
        return ProcessState.BUILDING if self._result is None else ProcessState.EXECUTED

    # -- internal plumbing ------------------------------------------------

    def _require_building(self) -> None:
        if self._result is not None:
            raise ProcessTerminated(
                f"process {self.id} already executed; allocate a new one"
            )

    def _require_own(self, handle: QubitHandle) -> None:
        if not isinstance(handle, QubitHandle) or handle.process is not self:
            raise InvalidHandle(f"{short_repr(handle)} does not belong to process {self.id}")

    def _own_indices(self, handles: Sequence[QubitHandle], what: str) -> tuple[int, ...]:
        self._require_building()
        handles = tuple(handles)
        if not handles:
            raise ValueError(f"{what} needs at least one qubit")
        for handle in handles:
            self._require_own(handle)
        return tuple(h.index for h in handles)

    def _top(self) -> _Scope:
        return self._scopes[-1] if self._scopes else self._root

    def _open(self, kind: str, controls: tuple[int, ...] = (), buffer=None) -> None:
        top = self._top()
        sink = top.sink if buffer is None else buffer
        guard = top.guard if kind == "around" else kind
        self._scopes.append(_Scope(kind, top.controls + controls, sink, guard))

    def _close(self, kind: str) -> _Scope:
        if not self._scopes or self._scopes[-1].kind != kind:
            raise ScopeUnderflow(f"no open {kind} scope to close")
        return self._scopes.pop()

    def _require_no_scopes(self, what: str) -> None:
        guard = self._top().guard
        if guard == "branch":
            raise ScopeViolation(f"{what} is not allowed inside a conditioned block")
        if guard != "root":
            raise ScopeViolation(f"{what} is not allowed inside an open {guard} scope")

    # -- builder operations -----------------------------------------------

    def alloc(self, count: int) -> list[QubitHandle]:
        """Allocate ``count`` fresh qubits in |0⟩ and return their handles, up to ``MAX_QUBITS`` in all."""
        self._require_building()
        self._require_no_scopes("allocation")
        if not _is_int(count):
            raise TypeError(f"allocation count must be an integer, got {short_repr(count)}")
        if count < 1:
            raise ValueError(f"allocation count must be >= 1, got {count}")
        if self.num_qubits + count > MAX_QUBITS:
            raise ValueError(
                f"{self.num_qubits} qubits and {short_repr(count)} more exceed the limit of {MAX_QUBITS}"
            )
        start = self.num_qubits
        self.num_qubits += count
        self._instructions.append(Alloc(count))
        return [QubitHandle(self.id, start + i, self) for i in range(count)]

    def apply_gate(self, gate: Gate, target: QubitHandle) -> QubitHandle:
        """Record ``gate`` on ``target`` (plus any active controls); returns the handle."""
        self._require_building()
        self._require_own(target)
        if type(gate) is not Gate:
            raise TypeError(f"expected a Gate, got {short_repr(gate)}")
        top = self._top()
        if target.index in top.controls:
            raise ControlTargetOverlap(
                f"qubit {target.index} is an active control and cannot be a target"
            )
        top.sink.append(GateApp(gate, target.index, top.controls))
        return target

    def ctrl_begin(self, controls: Sequence[QubitHandle]) -> None:
        """Open a control scope: gates recorded until ``ctrl_end`` gain these controls."""
        indices = self._own_indices(controls, "control scope")
        active = self._top().controls
        seen: set[int] = set()
        for idx in indices:
            if idx in seen or idx in active:
                raise DuplicateControl(f"qubit {idx} is already an active control")
            seen.add(idx)
        self._open("control", controls=indices)

    def ctrl_end(self) -> None:
        self._close("control")

    def adj_begin(self) -> None:
        """Open an adjoint scope: gates buffer until ``adj_end`` emits their inverse."""
        self._require_building()
        self._open("adjoint", buffer=[])

    def adj_end(self) -> None:
        self._emit_adjoint(self._close("adjoint").sink)

    def _emit_adjoint(self, gates: Sequence[GateApp]) -> None:
        self._top().sink.extend(
            GateApp(g.gate.inverse(), g.target, g.controls) for g in reversed(gates)
        )

    def around_begin(self, outer: Callable[[], None]) -> None:
        """Run ``outer`` once and keep what it recorded; ``around_end`` emits its adjoint."""
        self._require_building()
        self._open("around")
        frame = self._scopes[-1]
        start = len(frame.sink)
        outer()
        frame.outer = tuple(frame.sink[start:])

    def around_end(self) -> None:
        """Emit the adjoint of what the innermost around's ``outer`` recorded.

        If ``outer`` raised or recorded anything but gates, the around closes,
        nothing is emitted, and ``ScopeViolation`` is raised.
        """
        outer = self._close("around").outer
        if outer is None:
            raise ScopeViolation("around closed before its outer section finished")
        if any(ins.__class__ is not GateApp for ins in outer):
            raise ScopeViolation("an around's outer section may record gates only")
        self._emit_adjoint(outer)

    def measure(self, qubits: QubitHandle | Sequence[QubitHandle]) -> FutureValue:
        """Record a measurement; the first listed qubit is the outcome's MSB.

        The qubits collapse at execution time but remain usable for further
        gates within the same program.
        """
        indices = self._check_qubit_list(qubits, "measure")
        future_id = self.num_futures
        self.num_futures += 1
        self._instructions.append(Measure(indices, future_id))
        return FutureValue(self, future_id)

    def dump_state(self, qubits: QubitHandle | Sequence[QubitHandle]) -> DumpSnapshot:
        """Record a snapshot request for the listed qubits (simulator feature)."""
        indices = self._check_qubit_list(qubits, "dump")
        dump_id = self.num_dumps
        self.num_dumps += 1
        self._instructions.append(Dump(indices, dump_id))
        return DumpSnapshot(self, dump_id)

    def _check_qubit_list(self, qubits, what: str) -> tuple[int, ...]:
        indices = self._own_indices((qubits,) if isinstance(qubits, QubitHandle) else qubits, what)
        self._require_no_scopes(what)
        if len(set(indices)) != len(indices):
            raise ValueError(f"{what} lists a qubit more than once")
        return indices

    def branch(self, future: FutureValue, equals: int, body: Callable[[], None]) -> None:
        """Record a block the engine applies only when ``future == equals``.

        The comparison happens during execution; the builder never learns the
        outcome.  The body may record gates and nested branches only, at most
        ``MAX_DEPTH`` blocks deep.
        """
        self._require_building()
        if not isinstance(future, FutureValue) or future.process is not self:
            raise UnknownFuture(f"{short_repr(future)} was not produced by process {self.id}")
        if not _is_int(equals):
            raise TypeError(f"condition literal must be an integer, got {short_repr(equals)}")
        if equals < 0:
            raise ValueError("condition literal must be non-negative")
        if self._top().guard in ("control", "adjoint"):
            raise ScopeViolation("conditioned blocks cannot open inside control/adjoint scopes")
        if sum(scope.kind == "branch" for scope in self._scopes) >= MAX_DEPTH:
            raise ScopeViolation(f"conditioned blocks nested too deeply (limit {MAX_DEPTH})")
        buffer: list[Instruction] = []
        with _ScopeBlock(
            self, lambda: self._open("branch", buffer=buffer), lambda: self._close("branch")
        ):
            body()
        self._top().sink.append(Branch(Condition(future.future_id, equals), tuple(buffer)))

    # -- execution ---------------------------------------------------------

    def execute(self) -> "ExecutionResult":
        """Run the recorded program once with ``simulator.execute``; idempotent."""
        if self._result is not None:
            return self._result
        if self._scopes:
            raise ScopeViolation("cannot execute with open scopes")
        from . import simulator

        result = simulator.execute(self.code, self.seed)
        self._result = result
        return result


def new_process(seed: int = 0) -> Process:
    """Create a fresh process whose reads run its program with ``seed``."""
    return Process(seed=seed)


def _process_of(qubits: Sequence[QubitHandle], what: str) -> Process:
    if not qubits:
        raise ValueError(f"{what} needs at least one qubit")
    first = qubits[0]
    if not isinstance(first, QubitHandle):
        raise InvalidHandle(f"{short_repr(first)} is not a qubit handle")
    return first.process


class _ScopeBlock:
    """A ``with`` block that runs ``begin`` on entry and ``end`` on a clean exit.

    If ``begin``, the body or ``end`` raises, every scope opened since entry,
    this one included, closes without emitting anything more: an adjoint
    buffer and an around's adjoint are dropped, gates already emitted stay,
    and the exception propagates.  A body that returns with a scope left
    open, or with this scope already closed, raises ``ScopeViolation`` in
    the same way, so ``end`` closes only the scope ``begin`` opened.  A block
    is entered once; entering it again raises ``ScopeViolation``.
    """

    def __init__(self, process: Process, begin: Callable[[], None], end: Callable[[], None]):
        self.process, self.begin, self.end = process, begin, end
        self.depth: int | None = None

    def __enter__(self) -> None:
        if self.depth is not None:
            raise ScopeViolation("a scope block can be entered only once")
        self.depth = len(self.process._scopes)
        self._closing_on_failure(self.begin)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and len(self.process._scopes) == self.depth + 1:
            return self._closing_on_failure(self.end)
        del self.process._scopes[self.depth :]
        if exc_type is None:
            raise ScopeViolation("scope body must close exactly the scopes it opens")

    def _closing_on_failure(self, step: Callable[[], None]) -> None:
        try:
            step()
        except BaseException:
            del self.process._scopes[self.depth :]
            raise


def ctrl(*qubits: QubitHandle):
    """Control scope as a ``with`` block; controls come from the handles.

    If the body raises, the scope closes, the gates it recorded stay, and the
    exception propagates.
    """
    process = _process_of(qubits, "ctrl")
    return _ScopeBlock(process, lambda: process.ctrl_begin(qubits), process.ctrl_end)


def adj(process: Process):
    """Adjoint scope as a ``with`` block: the body is emitted inverted.

    If the body raises, the scope closes, its buffered gates are dropped
    unemitted, and the exception propagates.
    """
    return _ScopeBlock(process, process.adj_begin, process.adj_end)


def around(process: Process, outer: Callable[[], None]):
    """Around scope as a ``with`` block: ``outer``, the body, then ``outer``'s adjoint.

    ``outer`` runs once on entry; the adjoint is the reversed inverses of the
    gates it recorded.  If ``outer`` or the body raises, the scope closes, the
    adjoint of ``outer`` is not emitted, the gates already emitted stay, and
    the exception propagates.
    """
    return _ScopeBlock(process, lambda: process.around_begin(outer), process.around_end)


def measure(*qubits: QubitHandle) -> FutureValue:
    """Measure the listed qubits as one integer outcome (first qubit = MSB)."""
    return _process_of(qubits, "measure").measure(qubits)


def dump(*qubits: QubitHandle) -> DumpSnapshot:
    """Request a snapshot of the listed qubits."""
    return _process_of(qubits, "dump").dump_state(qubits)
