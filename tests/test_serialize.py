"""Wire-format round trips and rejection of malformed documents."""

import contextlib
import copy
import hashlib
import importlib
import json
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import qvm
from qvm import Gate, GateKind, MalformedCode, deserialize, new_process, serialize
from qvm.examples import EXAMPLES


def bell_code():
    p = new_process()
    a, b = p.alloc(2)
    qvm.bell(a, b)
    p.dump_state([a, b])
    p.measure([a])
    p.measure([b])
    return p.code


def test_bell_round_trip_is_structurally_equal():
    code = bell_code()
    assert deserialize(serialize(code)) == code


def test_layout_is_one_compact_line_and_indented_documents_decode():
    p = new_process()
    a, b = p.alloc(2)
    qvm.rx(0.25, a)
    p.branch(p.measure([a]), 1, lambda: qvm.x(b))
    code = p.code
    data = serialize(code)
    assert data.endswith(b"\n") and data.count(b"\n") == 1 and b" " not in data
    assert deserialize(json.dumps(json.loads(data), indent=2)) == code  # indented documents stay readable


def test_document_shape_matches_contract():
    doc = json.loads(serialize(bell_code()))
    assert doc["version"] == 1
    assert doc["num_qubits"] == 2
    assert doc["num_futures"] == 2
    assert doc["num_dumps"] == 1
    ops = [ins["op"] for ins in doc["instructions"]]
    assert ops == ["alloc", "gate", "gate", "dump", "measure", "measure"]
    gate_h, gate_cx = doc["instructions"][1], doc["instructions"][2]
    assert gate_h == {"op": "gate", "kind": "h", "target": 0, "controls": []}
    assert gate_cx == {"op": "gate", "kind": "x", "target": 1, "controls": [0]}
    assert "angle" not in gate_h


def test_angles_survive_exactly():
    p = new_process()
    (q,) = p.alloc(1)
    qvm.phase(math.pi / 3, q)
    qvm.rz(-2.5000000000000004, q)
    code = p.code
    restored = deserialize(serialize(code))
    assert restored == code  # bitwise float equality via repr round-trip


def test_branch_body_round_trips():
    p = new_process()
    a, b = p.alloc(2)
    f = p.measure([a])

    def body():
        qvm.x(b)
        p.branch(f, 0, lambda: qvm.z(b))

    p.branch(f, 1, body)
    assert deserialize(serialize(p.code)) == p.code


def test_qubit_index_out_of_range_rejected():
    doc = json.loads(serialize(bell_code()))
    doc["instructions"][2]["target"] = 9
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


def test_branch_without_prior_measure_rejected():
    doc = {
        "version": 1,
        "num_qubits": 1,
        "num_futures": 0,
        "num_dumps": 0,
        "instructions": [
            {"op": "alloc", "count": 1},
            {"op": "branch", "future": 0, "equals": 1, "body": []},
        ],
    }
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


def test_measure_inside_branch_rejected():
    doc = {
        "version": 1,
        "num_qubits": 1,
        "num_futures": 2,
        "num_dumps": 0,
        "instructions": [
            {"op": "alloc", "count": 1},
            {"op": "measure", "qubits": [0], "future": 0},
            {
                "op": "branch",
                "future": 0,
                "equals": 1,
                "body": [{"op": "measure", "qubits": [0], "future": 1}],
            },
        ],
    }
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.__setitem__("version", 2),
        lambda doc: doc.pop("num_qubits"),
        lambda doc: doc["instructions"].append({"op": "warp", "factor": 9}),
        lambda doc: doc["instructions"][1].pop("kind"),
        lambda doc: doc["instructions"][1].__setitem__("kind", "cnot"),
        lambda doc: doc["instructions"][1].__setitem__("angle", 0.5),
        lambda doc: doc["instructions"][1].__setitem__("controls", [0, "a"]),
        lambda doc: doc["instructions"][5].__setitem__("future", 0),  # duplicate id
        lambda doc: doc["instructions"][0].__setitem__("count", 0),
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = json.loads(serialize(bell_code()))
    mutate(doc)
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(MalformedCode):
        deserialize(b"\x00\x01 not json")
    with pytest.raises(MalformedCode):
        deserialize(b"[1, 2, 3]")


def test_integer_past_the_digit_limit_rejected():
    digits = "9" * 5000  # json.loads raises a plain ValueError past 4300 digits
    with pytest.raises(MalformedCode, match="^not valid JSON"):
        deserialize('{"version": 1, "num_qubits": %s}' % digits)


def test_gate_missing_angle_rejected():
    doc = {
        "version": 1,
        "num_qubits": 1,
        "num_futures": 0,
        "num_dumps": 0,
        "instructions": [
            {"op": "alloc", "count": 1},
            {"op": "gate", "kind": "rx", "target": 0, "controls": []},
        ],
    }
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "gate",
    [
        {"kind": "h", "angle": None},
        {"kind": "h", "angle": True},
        {"kind": "rx", "angle": None},
        {"kind": "rx", "angle": True},
        {"kind": "rz"},
    ],
    ids=["h-null", "h-true", "rx-null", "rx-true", "rz-missing"],
)
def test_angle_of_wrong_type_or_missing_rejected(gate):
    doc = {
        "version": 1,
        "num_qubits": 1,
        "num_futures": 0,
        "num_dumps": 0,
        "instructions": [
            {"op": "alloc", "count": 1},
            {"op": "gate", **gate, "target": 0, "controls": []},
        ],
    }
    with pytest.raises(MalformedCode):
        deserialize(json.dumps(doc))


@st.composite
def random_programs(draw):
    p = new_process()
    qs = p.alloc(draw(st.integers(1, 4)))
    future = None
    for _ in range(draw(st.integers(0, 10))):
        choice = draw(st.integers(0, 4))
        target = qs[draw(st.integers(0, len(qs) - 1))]
        if choice == 0:
            p.apply_gate(Gate(GateKind.HADAMARD), target)
        elif choice == 1:
            angle = draw(st.floats(-7, 7, allow_nan=False))
            p.apply_gate(Gate(GateKind.PHASE, angle), target)
        elif choice == 2 and len(qs) > 1:
            other = qs[(target.index + 1) % len(qs)]
            qvm.cnot(other, target)
        elif choice == 3:
            future = p.measure([target])
        elif choice == 4 and future is not None:
            p.branch(future, draw(st.integers(0, 1)), lambda: qvm.z(qs[0]))
    p.dump_state([qs[0]])
    return p.code


@given(random_programs())
def test_round_trip_identity_on_random_programs(code):
    assert deserialize(serialize(code)) == code


def nested_code(depth, gate=Gate(GateKind.PAULI_X)):
    """A program whose ``gate`` sits ``depth`` branches deep, built without the builder."""
    body = (qvm.GateApp(gate, 0),)
    for _ in range(depth):
        body = (qvm.Branch(qvm.Condition(0, 0), body),)
    return qvm.QuantumCode(1, (qvm.Alloc(1), qvm.Measure((0,), 0)) + body, num_futures=1)


def test_deep_nesting_is_malformed_on_encode_and_shallower_round_trips():
    with pytest.raises(MalformedCode, match="nested too deeply"):
        serialize(nested_code(600))
    # compared as bytes; the generated ``==`` holds at this depth too, as
    # test_every_walker_accepts_max_depth checks
    data = serialize(nested_code(qvm.ir.MAX_DEPTH))
    assert serialize(deserialize(data)) == data


def test_deep_copy_accepts_max_depth():
    code = nested_code(qvm.ir.MAX_DEPTH)
    code.validate()
    twin = copy.deepcopy(code)
    assert twin == code and twin is not code
    assert "_ops" not in vars(twin)


def test_module_is_reached_by_import_module_and_from_import():
    # the package attribute ``qvm.serialize`` is the function, not the module
    wire = importlib.import_module("qvm.serialize")
    assert wire.deserialize is qvm.deserialize and wire.serialize is qvm.serialize
    from qvm.serialize import FORMAT_VERSION

    assert FORMAT_VERSION == wire.FORMAT_VERSION == 1


def measured_nested_code(depth, first):
    """``nested_code`` with qubit 0 prepared as ``first`` and measured again last.

    The branches run iff the first measurement reads 0, so the second reads 1
    whether they run (the innermost X flips the qubit) or not (it stays 1).
    """
    alloc, measure, branch = nested_code(depth).instructions
    prepare = (qvm.GateApp(Gate(GateKind.PAULI_X), 0),) * first
    return qvm.QuantumCode(
        1, (alloc, *prepare, measure, branch, qvm.Measure((0,), 1)), num_futures=2
    )


def called_from(frames, fn):
    """``fn()`` called from ``frames`` more Python frames than the caller's."""
    return fn() if frames == 0 else called_from(frames - 1, fn)


def nested_document(depth):
    """The wire form of ``nested_code(depth)``, written as text."""
    head = (
        '{"version": 1, "num_qubits": 1, "num_futures": 1, "num_dumps": 0, "instructions": ['
        '{"op": "alloc", "count": 1}, {"op": "measure", "qubits": [0], "future": 0}, '
    )
    gate = '{"op": "gate", "kind": "x", "target": 0, "controls": []}'
    branch = '{"op": "branch", "future": 0, "equals": 0, "body": ['
    return head + branch * depth + gate + "]}" * depth + "]}"


@pytest.mark.parametrize("frames", [0, 200, 400])
def test_every_walker_accepts_max_depth(frames):
    depth = qvm.ir.MAX_DEPTH
    code = nested_code(depth)

    def check():
        code.validate()
        for first in (0, 1):
            result = qvm.execute(measured_nested_code(depth, first), seed=3)
            assert result.futures == {0: first, 1: 1}
        assert code == nested_code(depth)
        assert code != nested_code(depth, Gate(GateKind.PAULI_Z))
        assert hash(code) == hash(nested_code(depth))
        assert repr(code).count("Branch(") == depth
        assert pickle.loads(pickle.dumps(code)) == code
        assert copy.deepcopy(code) == code
        assert deserialize(serialize(code)) == code
        assert deserialize(nested_document(depth)) == code

    called_from(frames, check)


@pytest.mark.parametrize(
    "walk",
    [
        lambda depth: nested_code(depth).validate(),
        lambda depth: qvm.execute(measured_nested_code(depth, 0)),
        lambda depth: serialize(nested_code(depth)),
        lambda depth: deserialize(nested_document(depth)),
    ],
    ids=["validate", "execute", "serialize", "deserialize"],
)
def test_every_walker_rejects_one_level_more(walk):
    with pytest.raises(MalformedCode, match="nested too deeply"):
        walk(qvm.ir.MAX_DEPTH + 1)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
SPLICE_PATHS = [
    (),
    *[(key,) for key in ("version", "num_qubits", "num_futures", "num_dumps", "instructions")],
    *[("instructions", i) for i in range(6)],  # bell_code records six instructions
]


@given(json_values, st.sampled_from(SPLICE_PATHS))
def test_arbitrary_json_decodes_or_raises_a_qvm_error(value, path):
    """Alone, or spliced into a valid document at ``path``."""
    doc = value
    if path:
        doc = json.loads(serialize(bell_code()))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        code = deserialize(json.dumps(doc))
    except qvm.QvmError:
        return
    assert isinstance(code, qvm.QuantumCode)


def every_kind_program(seed=29):
    """A seeded program of every gate kind under 0, 1 and 2 controls.

    The gates sit at top level and in branches nested two deep, beside an
    ``rz(-0.0)``, a ``phase(1e-300)`` and an adjoint.
    """
    rng = random.Random(seed)
    p = new_process()
    qs = p.alloc(3) + p.alloc(1)

    def gates():
        for kind in GateKind:
            for count in range(3):
                target, *controls = rng.sample(qs, 1 + count)
                angle = rng.uniform(-7, 7) if kind in qvm.ir.PARAMETRIC_KINDS else None
                with qvm.ctrl(*controls) if controls else contextlib.nullcontext():
                    p.apply_gate(Gate(kind, angle), target)

    gates()
    qvm.rz(-0.0, qs[0])
    with qvm.adj(p):
        qvm.ry(rng.uniform(-7, 7), qs[1])
        qvm.phase(1e-300, qs[2])
    first = p.measure(qs[:2])
    p.dump_state([qs[3], qs[1]])

    def outer():
        gates()
        p.branch(first, 2, gates)
        qvm.rz(-0.0, qs[3])

    p.branch(first, 1, outer)
    p.branch(p.measure(qs[2]), 0, lambda: p.branch(first, 3, gates))
    return p.code


def example_code(name):
    p = new_process()
    EXAMPLES[name].build(p)
    return p.code


# sha256 of ``serialize`` output, taken before the encoder walked the
# instructions instead of the flat ops, so key order and float text stay;
# nested-max-depth's was taken at depth 100 while the limit was still 300
PINNED_ENCODINGS = {
    "example-around-bell": "5622d0b41e010bb93693bbe8e85c251494ef009ec6f25446b0f6f121405fb950",
    "example-bell": "377181f09ed9bed747028670c9a696c0d065ecb8c8952f566004b9891cabcee9",
    "example-ctrlbell": "2de1a4a67799464656e0099b8317b6fb0ac9833d159a51b1704615457a8afadd",
    "example-ctrlh": "dc90f6b2164e41c8ac33db5b632a8b1dddd37979692b0b8a75670020daff0656",
    "example-grover-diffusor-demo": "29d7bdf0b88fcf6530ed86bc39c53263490270c722f29aef9e49d8acd134b46c",
    "example-hadamard": "361824bcd0be7dc7664b47765705ae89f9d114dd11e2e351914e1e8c9ddb38b7",
    "example-qft-demo": "d703cd5ea44ab3129bc6258e5116ac7792a2f4d25f9aac93e6faf4d9b508e661",
    "example-teleport": "8ecd2882b4fa845797c082e8aca50cc25fac6d69f454b6748df91220b11c3fb0",
    "example-x-gate": "f3b27eefbbdc8a8a2a3bacf18229a9ff7c31b1c5a0f612628bb0ee7810476108",
    "every-kind": "e9570c044d63269ab83ef81ab77fc125a020b7c189e594deeb84d102778d9cbf",
    "nested-max-depth": "31960bc8099d6147aed3e1072b08e3c6b5bd96fa1e0f74ea20a03e641b7f5d21",
}


@pytest.mark.parametrize("name", sorted(PINNED_ENCODINGS))
def test_encoder_bytes_are_pinned(name):
    if name.startswith("example-"):
        code = example_code(name.removeprefix("example-"))
    elif name == "every-kind":
        code = every_kind_program()
    else:
        code = nested_code(qvm.ir.MAX_DEPTH)
    assert hashlib.sha256(serialize(code)).hexdigest() == PINNED_ENCODINGS[name]
