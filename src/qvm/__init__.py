"""Deferred quantum programming runtime with a dense state-vector engine.

Programs are recorded into an instruction stream through a :class:`Process`
and executed only when a measurement future or dump snapshot is first read.
The bundled engine simulates up to roughly twenty qubits and is fully
deterministic for a given seed.  Validation rejects a program that allocates
more than ``ir.MAX_QUBITS`` (24) qubits with MalformedCode, before any state
is allocated: a 24-qubit state alone takes 256 MiB.  It likewise rejects
conditioned blocks nested more than ``ir.MAX_DEPTH`` (300) deep.

The package attribute ``qvm.serialize`` is the function, which shadows the
submodule of that name, so ``import qvm.serialize as wire`` binds the
function.  ``from qvm.serialize import ...`` and
``importlib.import_module("qvm.serialize")`` reach the module.
"""

from . import errors
from .errors import (
    BadFormat,
    ControlTargetOverlap,
    DegenerateState,
    DuplicateControl,
    EngineFailure,
    EntangledSelection,
    IndexOutOfRange,
    IndexOverlap,
    InvalidHandle,
    MalformedCode,
    ProcessTerminated,
    QvmError,
    ScopeUnderflow,
    ScopeViolation,
    UnknownFuture,
    WrongArity,
)
from .ir import (
    Alloc,
    Branch,
    Condition,
    Dump,
    DumpSnapshot,
    FutureValue,
    Gate,
    GateApp,
    GateKind,
    Instruction,
    Measure,
    Process,
    ProcessState,
    QuantumCode,
    QubitHandle,
    adj,
    around,
    ctrl,
    dump,
    measure,
    new_process,
)
from .library import (
    bell,
    cnot,
    grover_diffusor,
    h,
    phase,
    qft,
    rx,
    ry,
    rz,
    swap,
    teleport,
    x,
    y,
    z,
)
from .render import (
    BlochCoords,
    FormatSpec,
    bloch_coords,
    bloch_svg,
    parse_format,
    recognize_sqrt_fraction,
    show,
)
from .serialize import deserialize, serialize
from .simulator import (
    DumpData,
    ExecutionResult,
    StateVector,
    apply_kernel,
    execute,
    extract_dump,
    gate_matrix,
    measure_kernel,
)

__version__ = "0.1.0"
