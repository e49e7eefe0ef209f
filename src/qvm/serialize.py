"""JSON wire format for recorded programs.

The document carries ``version`` (currently 1), the qubit/future/dump counts,
and a flat instruction array of tagged objects (spaced here for reading)::

    {"op": "alloc", "count": n}
    {"op": "gate", "kind": "h", "angle": 1.5707, "target": 0, "controls": [1]}
    {"op": "measure", "qubits": [0, 1], "future": 0}
    {"op": "dump", "qubits": [0], "dump": 0}
    {"op": "branch", "future": 0, "equals": 1, "body": [...]}

``angle`` is present only for rx/ry/rz/phase and is given in radians.  This
format is the contract between the command line, the builder, and the engine.
The encoder writes each instruction dataclass of a validated code as one
object, the decoder reads each object back into its dataclass, and neither
reads the flat ops that ``QuantumCode.validate`` returns for the engine.
The decoder checks only JSON shape and ``version``; ``Gate`` and
``QuantumCode.validate`` check every value it puts into the dataclasses.
``serialize`` writes the compact layout: one line with no spaces, then a
newline.  ``deserialize`` reads any JSON whitespace.

The package re-exports ``serialize`` and ``deserialize``, and its attribute
``qvm.serialize`` is the function, not this module: ``import qvm.serialize
as wire`` binds the function.  ``from qvm.serialize import FORMAT_VERSION``
and ``importlib.import_module("qvm.serialize")`` reach the module.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import MalformedCode
from .ir import (
    Alloc,
    Branch,
    Condition,
    Dump,
    Gate,
    GateApp,
    Instruction,
    Measure,
    QuantumCode,
    short_repr,
)

FORMAT_VERSION = 1


def serialize(code: QuantumCode) -> bytes:
    """Encode a validated program as one line of compact UTF-8 JSON.

    ``code.validate()`` runs as a check only; each instruction is then
    written as ``_decode_instruction`` reads it.  Validation caps nesting at
    ``ir.MAX_DEPTH``, which bounds the recursion of ``_encode`` and of
    ``json.dumps``.
    """
    code.validate()
    doc = {
        "version": FORMAT_VERSION,
        "num_qubits": code.num_qubits,
        "num_futures": code.num_futures,
        "num_dumps": code.num_dumps,
        "instructions": list(map(_encode, code.instructions)),
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _encode(ins: Instruction) -> dict[str, Any]:
    """Map one validated instruction onto its JSON object, as ``_decode_instruction`` reads it."""
    kind = type(ins)
    if kind is GateApp:
        gate = ins.gate
        item: dict[str, Any] = {"op": "gate", "kind": gate.kind.value}
        if gate.angle is not None:
            item["angle"] = gate.angle
        item["target"] = ins.target
        item["controls"] = list(ins.controls)
        return item
    if kind is Alloc:
        return {"op": "alloc", "count": ins.count}
    if kind is Measure:
        return {"op": "measure", "qubits": list(ins.qubits), "future": ins.future}
    if kind is Dump:
        return {"op": "dump", "qubits": list(ins.qubits), "dump": ins.dump}
    # a Branch, the one class left that validate admits
    condition = ins.condition
    body = list(map(_encode, ins.body))
    return {"op": "branch", "future": condition.future, "equals": condition.equals, "body": body}


def _need(obj: dict, key: str) -> Any:
    if key not in obj:
        raise MalformedCode(f"missing field {key!r}")
    return obj[key]


def _array(obj: dict, key: str) -> tuple:
    value = _need(obj, key)
    if value.__class__ is not list:
        raise MalformedCode(f"field {key!r} has wrong type: {short_repr(value)}")
    return tuple(value)


def _decode_instruction(obj: Any) -> Instruction:
    """Map one instruction object onto its dataclass, checking JSON shape only."""
    if not isinstance(obj, dict):
        raise MalformedCode(f"instruction must be an object, got {short_repr(obj)}")
    op = _need(obj, "op")
    if op == "alloc":
        return Alloc(_need(obj, "count"))
    if op == "gate":
        angle = obj.get("angle")
        if "angle" in obj and angle.__class__ not in (int, float):  # null too is a wrong type
            raise MalformedCode(f"field 'angle' has wrong type: {short_repr(angle)}")
        try:
            gate = Gate(_need(obj, "kind"), angle)  # Gate judges the kind and the angle
        except ValueError as exc:
            raise MalformedCode(str(exc)) from None
        return GateApp(gate, _need(obj, "target"), _array(obj, "controls"))
    if op == "measure":
        return Measure(_array(obj, "qubits"), _need(obj, "future"))
    if op == "dump":
        return Dump(_array(obj, "qubits"), _need(obj, "dump"))
    if op == "branch":
        return Branch(
            Condition(_need(obj, "future"), _need(obj, "equals")),
            tuple(_decode_instruction(i) for i in _array(obj, "body")),
        )
    raise MalformedCode(f"unknown op {short_repr(op)}")


def deserialize(data: bytes | str) -> QuantumCode:
    """Parse and validate a program document; raises MalformedCode on any defect.

    A document nested deeper than the parser or decoder can recurse is a
    defect too; past ``ir.MAX_DEPTH`` conditioned blocks, validation rejects it.
    """
    try:
        return _decode_document(data)
    except RecursionError:
        raise MalformedCode("document is nested too deeply") from None


def _decode_document(data: bytes | str) -> QuantumCode:
    try:
        doc = json.loads(data)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise MalformedCode(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedCode("top level must be an object")
    version = _need(doc, "version")
    if version.__class__ is not int or version != FORMAT_VERSION:
        raise MalformedCode(f"unsupported version {short_repr(version)}")
    code = QuantumCode(
        num_qubits=_need(doc, "num_qubits"),
        instructions=tuple(_decode_instruction(i) for i in _array(doc, "instructions")),
        num_futures=_need(doc, "num_futures"),
        num_dumps=_need(doc, "num_dumps"),
    )
    code.validate()
    return code
