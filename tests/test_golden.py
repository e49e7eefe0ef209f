"""Golden corpus: pinned results of fixed (program, seed) pairs.

``golden.json`` holds every bundled example at four seeds and 300 seeded
random programs on 1-7 qubits, each stored as a wire-format document with
the futures and dumps the engine produced for it.  Replaying the corpus
checks that outcomes stay a pure function of ``(code, seed)``: futures must
match exactly and dump amplitudes within 1e-12, whatever the engine's
kernels look like inside.

The random programs mix gates with 0-2 controls, mid-circuit measurements of
several qubits listed out of order, branches (some nested), and dumps: of
every qubit in shuffled order, of a subset after its complement was
measured, and of the trailing qubits in order after the leading ones were
measured.  A trailing selection in order is a view of the state, so a dump
that wrote to it would change every later result.

Running this file as a script rewrites ``golden.json`` from the current
engine.  Do that only when the corpus itself changes, never to make an
engine change pass::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qvm.errors import QvmError
from qvm.examples import EXAMPLES
from qvm.ir import (
    PARAMETRIC_KINDS,
    Alloc,
    Branch,
    Condition,
    Dump,
    Gate,
    GateApp,
    GateKind,
    Measure,
    QuantumCode,
    new_process,
)
from qvm.serialize import deserialize, serialize
from qvm.simulator import execute

CORPUS = Path(__file__).with_name("golden.json")
RANDOM_PROGRAMS = 300
EXAMPLE_SEEDS = range(4)
DUMP_TOLERANCE = 1e-12

KINDS = list(GateKind)


def _random_gate_app(rng, allocated: int) -> GateApp:
    kind = KINDS[rng.integers(len(KINDS))]
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind in PARAMETRIC_KINDS else None
    qubits = [int(q) for q in rng.permutation(allocated)]
    controls = int(rng.integers(0, min(2, allocated - 1) + 1))
    return GateApp(Gate(kind, angle), qubits[0], tuple(qubits[1 : 1 + controls]))


def _random_branch(rng, allocated: int, widths: list[int], depth: int = 0) -> Branch:
    future = int(rng.integers(len(widths)))
    equals = int(rng.integers(1 << widths[future]))
    body = [_random_gate_app(rng, allocated) for _ in range(rng.integers(1, 5))]
    if depth == 0 and rng.random() < 0.2:
        body.append(_random_branch(rng, allocated, widths, depth + 1))
    return Branch(Condition(future, equals), tuple(body))


def random_program(rng) -> QuantumCode:
    """A valid program whose dumps are all separable selections."""
    n = int(rng.integers(1, 8))
    allocated = int(rng.integers(1, n + 1))
    instructions: list = [Alloc(allocated)]
    widths: list[int] = []  # bit width of each future, by id
    dumps = 0

    def measure(qubits) -> None:
        instructions.append(Measure(tuple(int(q) for q in qubits), len(widths)))
        widths.append(len(qubits))

    def dump(qubits) -> None:
        nonlocal dumps
        instructions.append(Dump(tuple(int(q) for q in qubits), dumps))
        dumps += 1

    for _ in range(rng.integers(5, 41)):
        roll = rng.random()
        if allocated < n and roll < 0.08:
            count = int(rng.integers(1, n - allocated + 1))
            instructions.append(Alloc(count))
            allocated += count
        elif roll < 0.7:
            instructions.append(_random_gate_app(rng, allocated))
        elif roll < 0.82:
            size = int(rng.integers(1, allocated + 1))
            measure(rng.permutation(allocated)[:size])
        elif roll < 0.9:
            if widths:
                instructions.append(_random_branch(rng, allocated, widths))
        elif roll < 0.94 or allocated == 1:
            dump(rng.permutation(allocated))
        elif roll < 0.97:
            split = int(rng.integers(1, allocated))
            measure(rng.permutation(split))
            dump(range(split, allocated))
        else:
            order = rng.permutation(allocated)
            split = int(rng.integers(1, allocated))
            measure(order[:split])
            dump(rng.permutation(order[split:]))
    if allocated < n:
        instructions.append(Alloc(n - allocated))
    dump(range(n))
    measure(rng.permutation(n))
    return QuantumCode(n, tuple(instructions), len(widths), dumps)


def corpus_programs():
    """(name, code, seed) of every case, in corpus order."""
    for name in sorted(EXAMPLES):
        process = new_process()
        EXAMPLES[name].build(process)
        for seed in EXAMPLE_SEEDS:
            yield f"example:{name}", process.code, seed
    for i in range(RANDOM_PROGRAMS):
        rng = np.random.default_rng([2210, 15506, i])
        yield f"random:{i}", random_program(rng), int(rng.integers(1 << 63))


def run_case(code: QuantumCode, seed: int) -> dict:
    """What one run produced, in the corpus's JSON shape."""
    try:
        result = execute(code, seed)
    except QvmError as exc:
        return {"error": type(exc).__name__}
    return {
        "futures": {str(fid): value for fid, value in sorted(result.futures.items())},
        "dumps": {
            str(did): {
                "qubits": list(data.qubits),
                "states": [[basis, amp.real, amp.imag] for basis, amp in data.basis_states],
            }
            for did, data in sorted(result.dumps.items())
        },
    }


def _dense(data: dict) -> np.ndarray:
    out = np.zeros(1 << len(data["qubits"]), dtype=complex)
    for basis, re, im in data["states"]:
        out[basis] = complex(re, im)
    return out


def mismatch(want: dict, got: dict) -> str | None:
    """Why ``got`` differs from the pinned ``want``, or None if it matches."""
    if "error" in want or "error" in got:
        return None if want == got else f"{want.get('error')} != {got.get('error')}"
    if got["futures"] != want["futures"]:
        return f"futures {got['futures']} != {want['futures']}"
    if got["dumps"].keys() != want["dumps"].keys():
        return f"dump ids {sorted(got['dumps'])} != {sorted(want['dumps'])}"
    for did, pinned in want["dumps"].items():
        if got["dumps"][did]["qubits"] != pinned["qubits"]:
            return f"dump {did} covers other qubits"
        deviation = np.abs(_dense(got["dumps"][did]) - _dense(pinned)).max()
        if deviation > DUMP_TOLERANCE:
            return f"dump {did} deviates by {deviation:.3g}"
    return None


def test_engine_reproduces_the_golden_corpus():
    cases = json.loads(CORPUS.read_text())
    assert len(cases) == len(EXAMPLES) * len(EXAMPLE_SEEDS) + RANDOM_PROGRAMS
    failures = []
    for case in cases:
        code = deserialize(json.dumps(case["program"]))
        reason = mismatch(case["expected"], run_case(code, case["seed"]))
        if reason:
            failures.append(f"{case['name']} seed {case['seed']}: {reason}")
    assert not failures, "\n".join(failures)


def write_corpus() -> None:
    lines = [
        json.dumps(
            {
                "name": name,
                "seed": seed,
                "program": json.loads(serialize(code)),
                "expected": run_case(code, seed),
            },
            separators=(",", ":"),
        )
        for name, code, seed in corpus_programs()
    ]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write_corpus()
