"""The benchmark's three workloads: inputs, one request, and its output checks.

Every workload is a closed loop: one caller in one thread sends request
``i + 1`` only after request ``i`` has returned.  Request ``i`` draws its
inputs from ``random.Random(f"{name}:{seed}:{i}")``, so a request's inputs
depend only on the workload seed and its index, never on how many requests
ran before it.  A request raises :class:`CheckFailed` when an output is wrong.

qvm functions are always reached through a module attribute at call time
(``lib.qft``, ``sim.execute``, ...), so the trace wrappers in ``tracing.py``
see the benchmark's own calls as well as qvm's internal ones.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import qvm
import qvm.cli as cli
import qvm.library as lib
import qvm.render as render
import qvm.simulator as sim
from qvm.ir import Branch, GateApp, Measure, adj, around, ctrl

# ``qvm.serialize`` is the re-exported function, not the module.
wire = sys.modules["qvm.serialize"]

TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A request returned, but its output broke the workload's contract."""


@dataclass
class Outcome:
    """What one request did: shots run, futures per shot, instructions recorded."""

    shots: int
    futures: list
    recorded: int


def count_instructions(instructions) -> int:
    return sum(
        1 + (count_instructions(ins.body) if isinstance(ins, Branch) else 0)
        for ins in instructions
    )


def _dense(basis_states, size: int) -> list[complex]:
    vector = [0j] * size
    for basis, amp in basis_states:
        vector[basis] = complex(amp)
    return vector


def _check_state(what: str, basis_states, expected: list[complex], up_to_phase: bool):
    """Compare a dump with ``expected``; dumps only fix the global phase up to sign."""
    got = _dense(basis_states, len(expected))
    ratio = 1.0 + 0j
    if up_to_phase:
        pivot = max(range(len(expected)), key=lambda i: abs(expected[i]))
        ratio = got[pivot] / expected[pivot]
        if abs(abs(ratio) - 1.0) > TOLERANCE:
            raise CheckFailed(f"{what}: dump norm differs from the expected state")
    error = max(abs(g - ratio * e) for g, e in zip(got, expected))
    if error > TOLERANCE:
        raise CheckFailed(f"{what}: dump differs from the expected state by {error:.3g}")


def _record_random_gates(rnd: random.Random, qs, count: int) -> None:
    """Record ``count`` gates of random kind and angle, with 0 to 2 controls."""
    for _ in range(count):
        target, *rest = rnd.sample(qs, 3)
        controls = rest[: rnd.choices((0, 1, 2), weights=(6, 3, 1))[0]]
        kind = rnd.choice(("x", "y", "z", "h", "rx", "ry", "rz", "phase"))
        with contextlib.ExitStack() as scopes:
            if controls:
                scopes.enter_context(ctrl(*controls))
            if kind in ("rx", "ry", "rz", "phase"):
                getattr(lib, kind)(rnd.uniform(-math.pi, math.pi), target)
            else:
                getattr(lib, kind)(target)


class QftWide:
    """QFT of a seeded basis state on 18 qubits: the gate kernel at a 4 MiB state."""

    name = "qft-wide"
    round_size = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 6 if tiny else 18

    def expected_calls(self) -> dict[str, int]:
        return {"simulator.execute": 1, "ir.QuantumCode.validate": 1, "library.qft": 1}

    def request(self, i: int) -> Outcome:
        n = self.n
        rnd = random.Random(f"{self.name}:{self.seed}:{i}")
        k = rnd.getrandbits(n)
        process = qvm.new_process(seed=rnd.getrandbits(64))
        qs = process.alloc(n)
        for j in range(n):
            if k >> (n - 1 - j) & 1:
                lib.x(qs[j])
        lib.qft(qs)
        snapshot = process.dump_state(qs[:3])
        future = process.measure(qs)
        data = snapshot.data
        value = future.value
        # QFT|k> is a product state: qubit m is (|0> + e^{i phi_m}|1>)/sqrt 2.
        phis = [2 * math.pi * (k % (2 << m)) / (2 << m) for m in range(3)]
        expected = [
            cmath.exp(1j * sum(phis[m] for m in range(3) if b >> (2 - m) & 1)) / math.sqrt(8)
            for b in range(8)
        ]
        if data.qubits != (0, 1, 2):
            raise CheckFailed(f"qft-wide: dump covers {data.qubits}")
        _check_state("qft-wide", data.basis_states, expected, up_to_phase=True)
        if not 0 <= value < 1 << n:
            raise CheckFailed(f"qft-wide: outcome {value} out of range")
        return Outcome(1, [{"0": value}], count_instructions(process.code.instructions))


def _teleported() -> list[complex]:
    return [1 / math.sqrt(2), cmath.exp(0.25j * math.pi) / math.sqrt(2)]


def _terminal(process, rnd: random.Random, gates: int) -> None:
    qs = process.alloc(4)
    _record_random_gates(rnd, qs, gates)
    for q in qs:
        process.measure(q)


def _midcircuit(process, rnd: random.Random, gates: int) -> None:
    qs = process.alloc(5)
    done = 0
    while done < gates:
        block = min(gates - done, rnd.randint(20, 40))
        _record_random_gates(rnd, qs, block)
        done += block
        future = process.measure(rnd.choice(qs))
        body = rnd.randint(1, 3)
        process.branch(future, rnd.randint(0, 1), lambda: _record_random_gates(rnd, qs, body))


class ShotsSmall:
    """Multi-shot ``run-ir`` CLI calls on five small programs, cycled in order."""

    name = "shots-small"
    programs = ("random-terminal", "random-midcircuit", "bell", "teleport", "grover-diffusor-demo")
    round_size = len(programs)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.shots = 2 if tiny else 32
        gates = 30 if tiny else 250
        self.paths = {name: workdir / f"{name}.json" for name in self.programs}
        self.num_futures = {}
        rnd = random.Random(f"{self.name}:{seed}:programs")
        for name, build in (("random-terminal", _terminal), ("random-midcircuit", _midcircuit)):
            process = qvm.new_process()
            build(process, rnd, gates)
            self.paths[name].write_bytes(wire.serialize(process.code))
        for name in self.programs[2:]:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["emit-ir", name, "--out", str(self.paths[name])])
            if status != 0:
                raise CheckFailed(f"emit-ir {name} exited with {status}")
        for name, path in self.paths.items():
            self.num_futures[name] = wire.deserialize(path.read_bytes()).num_futures

    def expected_calls(self) -> dict[str, int]:
        return {
            "cli.main": 1,
            "serialize.deserialize": 1,
            "simulator.execute": self.shots,
            "ir.QuantumCode.validate": 1 + self.shots,
        }

    def request(self, i: int) -> Outcome:
        rnd = random.Random(f"{self.name}:{self.seed}:{i}")
        program = self.programs[i % len(self.programs)]
        argv = [
            "run-ir", str(self.paths[program]), "--shots", str(self.shots),
            "--seed", str(rnd.getrandbits(64)), "--output", "json",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        if status != 0:
            raise CheckFailed(f"{program}: exit {status}: {err.getvalue().strip()}")
        lines = out.getvalue().splitlines()
        if len(lines) != self.shots:
            raise CheckFailed(f"{program}: {len(lines)} result lines for {self.shots} shots")
        shots = [json.loads(line) for line in lines]
        futures = [shot["futures"] for shot in shots]
        expected_ids = {str(f) for f in range(self.num_futures[program])}
        for shot in futures:
            if set(shot) != expected_ids:
                raise CheckFailed(f"{program}: futures {sorted(shot)}")
        if program == "bell" and any(shot["0"] != shot["1"] for shot in futures):
            raise CheckFailed("bell: the two qubits disagree")
        if program == "grover-diffusor-demo" and any(shot["0"] != 3 for shot in futures):
            raise CheckFailed("grover-diffusor-demo: outcome other than 3")
        if program == "teleport":
            for shot in shots:
                states = [(s["basis"], complex(s["re"], s["im"])) for s in shot["dumps"]["0"]["states"]]
                _check_state("teleport", states, _teleported(), up_to_phase=True)
        return Outcome(self.shots, futures, 0)


class ProgramIO:
    """Record a scoped circuit, then serialize, deserialize, execute and show it."""

    name = "program-io"
    round_size = 5

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 4 if tiny else 8

    def expected_calls(self) -> dict[str, int]:
        return {
            "serialize.serialize": 1,
            "serialize.deserialize": 1,
            "simulator.execute": 1,
            "ir.QuantumCode.validate": 3,
            "render.show": 1,
            "render.recognize_sqrt_fraction": 1 << self.n,
        }

    def request(self, i: int) -> Outcome:
        n = self.n
        rnd = random.Random(f"{self.name}:{self.seed}:{i}")
        k = rnd.getrandbits(n)
        process = qvm.new_process()
        qs = process.alloc(n)
        for j in range(n):
            if k >> (n - 1 - j) & 1:
                lib.x(qs[j])

        def circuit():
            lib.qft(qs)
            with ctrl(qs[0]):
                lib.grover_diffusor(qs[1:])
            with around(process, lambda: lib.qft(qs)):
                lib.grover_diffusor(qs)

        circuit()
        with adj(process):
            circuit()
        for q in qs:
            lib.h(q)
        process.dump_state(qs)
        future = process.measure(qs[0])
        process.branch(future, 1, lambda: lib.x(qs[0]))
        code = process.code

        data = wire.serialize(code)
        decoded = wire.deserialize(data)
        if decoded != code:
            raise CheckFailed("program-io: deserialize(serialize(code)) != code")
        result = sim.execute(decoded, rnd.getrandbits(64))
        dump = result.dumps[0]
        text = render.show(dump)

        # U adj(U) is the identity, so the dump is the Hadamard transform of |k>.
        signs = [-1 if bin(j & k).count("1") % 2 else 1 for j in range(1 << n)]
        scale = 1 / math.sqrt(1 << n)
        _check_state("program-io", dump.basis_states, [s * scale for s in signs], False)
        amp_lines = text.split("\n")[1::2]
        want = [
            f" {s * scale:.6f}\t≅\t{'-' if s < 0 else ''}1/√{1 << n}" for s in signs
        ]
        if amp_lines != want:
            raise CheckFailed("program-io: show did not print ±1/√2^n on every amplitude")
        if result.futures[0] not in (0, 1):
            raise CheckFailed(f"program-io: outcome {result.futures[0]}")
        return Outcome(1, [{"0": result.futures[0]}], count_instructions(code.instructions))


WORKLOADS = {w.name: w for w in (QftWide, ShotsSmall, ProgramIO)}


def executed_counts(executions) -> dict[str, int]:
    """Counts the engine must make to run each ``(code, futures)`` once.

    Derived from the programs and the futures they produced: ``gates`` are
    executed gate applications, ``steps`` the executed instructions other
    than branches (each is followed by one norm check).
    """
    counts = dict(gates=0, pre_measure_gates=0, measures=0, steps=0, branches=0, taken=0)

    def walk(instructions, futures, measured):
        for ins in instructions:
            if isinstance(ins, Branch):
                counts["branches"] += 1
                if futures[ins.condition.future] == ins.condition.equals:
                    counts["taken"] += 1
                    measured = walk(ins.body, futures, measured)
                continue
            counts["steps"] += 1
            if isinstance(ins, GateApp):
                counts["gates"] += 1
                counts["pre_measure_gates"] += not measured
            elif isinstance(ins, Measure):
                counts["measures"] += 1
                measured = True
        return measured

    for code, futures in executions:
        walk(code.instructions, futures, False)
    return counts
