"""Command-line behavior: output text, exit codes, round trips, determinism."""

import copy
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import qvm.cli
from qvm import EngineFailure, EntangledSelection, MalformedCode, deserialize
from qvm.cli import main
from qvm.examples import EXAMPLES

RESULT_SCHEMA = {
    "type": "object",
    "required": ["futures", "dumps"],
    "additionalProperties": False,
    "properties": {
        "futures": {
            "type": "object",
            "patternProperties": {r"^\d+$": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "dumps": {
            "type": "object",
            "patternProperties": {
                r"^\d+$": {
                    "type": "object",
                    "required": ["qubits", "states"],
                    "additionalProperties": False,
                    "properties": {
                        "qubits": {"type": "array", "items": {"type": "integer"}},
                        "states": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["basis", "re", "im"],
                                "additionalProperties": False,
                                "properties": {
                                    "basis": {"type": "integer", "minimum": 0},
                                    "re": {"type": "number"},
                                    "im": {"type": "number"},
                                },
                            },
                        },
                    },
                }
            },
            "additionalProperties": False,
        },
    },
}


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestRun:
    def test_bell_histogram_only_correlated_outcomes(self, capsys):
        status, out, _ = run_cli(capsys, "run", "bell", "--seed", "7", "--shots", "1000")
        assert status == 0
        assert "|00⟩" in out and "|11⟩" in out
        histogram = {}
        for line in out.strip().split("\n"):
            if ":" in line and "⟩" not in line:
                key, rest = line.split(":")
                histogram[key] = int(rest.strip().split(" ")[0])
        assert set(histogram) == {"0 0", "1 1"}
        assert sum(histogram.values()) == 1000
        assert 450 <= histogram["0 0"] <= 550
        assert 450 <= histogram["1 1"] <= 550

    def test_teleport_prints_phase_state(self, capsys):
        status, out, _ = run_cli(capsys, "run", "teleport", "--seed", "1")
        assert status == 0
        assert "|0⟩ (50.00%)" in out and "|1⟩ (50.00%)" in out
        assert " 0.707107" in out
        assert " 0.500000 + 0.500000i" in out  # e^{iπ/4}/√2

    def test_same_seed_gives_identical_bytes(self, capsys):
        first = run_cli(capsys, "run", "bell", "--shots", "1", "--seed", "3")
        second = run_cli(capsys, "run", "bell", "--shots", "1", "--seed", "3")
        assert first == second

    def test_seeds_wrap_modulo_two_to_the_64(self, capsys):
        def shots(seed, count):
            flags = ("--output", "json", "--seed", str(seed), "--shots", str(count))
            status, out, _ = run_cli(capsys, "run", "teleport", *flags)
            assert status == 0
            return out.splitlines()

        assert len(set(shots(0, 8))) > 1  # the output depends on the seed
        assert shots(-1, 4) == shots(2**64 - 1, 4)
        assert shots(2**64 - 1, 2)[1] == shots(0, 1)[0]

    def test_format_flag(self, capsys):
        status, out, _ = run_cli(capsys, "run", "around-bell", "--format", "i1:i1")
        assert status == 0
        assert "|0⟩|1⟩ (100.00%)" in out

    def test_bad_format_exits_one(self, capsys):
        status, _, err = run_cli(capsys, "run", "bell", "--format", "q9")
        assert status == 1
        assert "error" in err

    def test_unknown_example_exits_one(self, capsys):
        status, _, err = run_cli(capsys, "run", "no-such-example")
        assert status == 1
        assert "unknown example" in err

    def test_json_output_schema_valid_for_every_example(self, capsys):
        for name in EXAMPLES:
            status, out, _ = run_cli(capsys, "run", name, "--output", "json", "--seed", "5")
            assert status == 0
            for line in out.strip().split("\n"):
                jsonschema.validate(json.loads(line), RESULT_SCHEMA)

    def test_json_shots_emit_one_line_each(self, capsys):
        status, out, _ = run_cli(capsys, "run", "bell", "--output", "json", "--shots", "3")
        assert status == 0
        assert len(out.strip().split("\n")) == 3

    def test_every_registered_example_runs_clean(self, capsys):
        for name in EXAMPLES:
            status, _, err = run_cli(capsys, "run", name)
            assert status == 0, f"{name}: {err}"

    def test_registry_contains_required_names(self):
        required = {
            "bell",
            "ctrlh",
            "ctrlbell",
            "around-bell",
            "teleport",
            "qft-demo",
            "grover-diffusor-demo",
            "x-gate",
            "hadamard",
        }
        assert required <= set(EXAMPLES)

    def test_histogram_counts_sum_to_shots(self, capsys):
        status, out, _ = run_cli(
            capsys, "run", "grover-diffusor-demo", "--shots", "77", "--seed", "2"
        )
        assert status == 0
        counts = [
            int(line.split(":")[1].strip().split(" ")[0])
            for line in out.strip().split("\n")
            if ":" in line and "⟩" not in line
        ]
        assert sum(counts) == 77


@pytest.mark.parametrize(
    "error, status, prefix",
    [
        (EngineFailure, 2, "engine failure: "),
        (EntangledSelection, 1, "error: "),
        (MalformedCode, 1, "error: "),
    ],
    ids=["EngineFailure", "EntangledSelection", "MalformedCode"],
)
def test_errors_from_the_engine_map_to_exit_codes(monkeypatch, capsys, error, status, prefix):
    def fail(code, seed=0):
        raise error("no result")

    monkeypatch.setattr("qvm.cli.execute", fail)
    assert run_cli(capsys, "run", "bell") == (status, "", f"{prefix}no result\n")


class TestExitStatus:
    @pytest.mark.parametrize("argv", [(), ("run",), ("run", "bell", "--shots", "x"), ("nope",)])
    def test_rejected_command_line_exits_one_with_usage_on_stderr(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (1, "")
        assert err.startswith("usage: qvm") and "error: " in err

    @pytest.mark.parametrize("argv", [("--help",), ("run", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "") and out.startswith("usage: qvm")

    def test_out_of_memory_exits_one_with_one_error_line(self, monkeypatch, capsys):
        def fail(code, seed=0):
            raise MemoryError

        monkeypatch.setattr("qvm.cli.execute", fail)
        assert run_cli(capsys, "run", "bell") == (1, "", "error: out of memory\n")

    def test_console_script_statuses(self):
        # as a shell sees them; test_errors_from_the_engine_map_to_exit_codes
        # checks 1 for a QvmError and 2 for an engine failure
        src = str(Path(qvm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        statuses = [
            subprocess.run(
                [sys.executable, "-m", "qvm.cli", *argv], env=env, capture_output=True
            ).returncode
            for argv in (("--help",), ("run", "bell", "--shots", "x"), ("run", "nope"))
        ]
        assert statuses == [0, 1, 1]


# sha256 of stdout of ``run <example> --shots 300 --seed 9``, taken before the
# command line streamed its shots, so streaming is checked to keep every byte.
STREAM_DIGESTS = {
    "human": {
        "around-bell": "c768ff6eb485240abee19da5239efb6b9b4a3f3b3ce11f35de4ce1085fdf5b67",
        "bell": "66d42a8fa14d75a71fe5698208daee042e0616f546f8dd0e506b2d88542529e2",
        "ctrlbell": "2f15f9a33005b419c76a5ceca0aa6566990c3a82cb141bdd1906d8331b10a4e6",
        "ctrlh": "bc5744638710d8ee2b34aa94583cc9f4e9a0d4782d888b1d1532a56f73abf8b7",
        "grover-diffusor-demo": "cfa87512e1122d4f263d8fcf0cfc593e5d4eeecd9917547a5ee9b376f112b3b2",
        "hadamard": "cd596c38be56b1561577f3ecd74a7c8f42e456763f28dcde0577472f90033c8d",
        "qft-demo": "93cdc3d459f15cce63ffe77b7d297000d219e155fa4f9e0292cd259faf115586",
        "teleport": "6bc2f82c4d5c1a6cfc4b071a45b0b3de5a227d953c475b2d7deddf58a18b5a57",
        "x-gate": "9907c38342bca2ee179c8c0becc60ac0ef19044d942f9f587220095ac735e2eb",
    },
    "json": {
        "around-bell": "15e1c81b6f3d9dc51a7f4802f00116548dc78d2f9b0d816f8dd336b9a0151b0a",
        "bell": "6d30279a9ab51ac371c8fc9cb1260d2e6530f82b8295037809f28c0fe7820b07",
        "ctrlbell": "400dc47f06e8534bc80e97f6a4550930ae4dcc3d3644f8276cb1f3ef4a7c7346",
        "ctrlh": "a38dc8b7cd661e92797f1c624cb5733357c089532e047d267c78d300935a405d",
        "grover-diffusor-demo": "ddbce03983d0496db6d13019ee8f6d2ef98f8ae82d9f47d95fe38f88d0e2d73d",
        "hadamard": "f0c8f66ad0c4790af88d590a435b4ffc37816f260e9b1f62caed8f5e9ba9b914",
        "qft-demo": "1c92fcd0189b154be98ff4a7b3d823c97ba4bb63aa916c38d2a7997a2efccff6",
        "teleport": "f565e5c0234447aa7dd54ffe5ea8df09259682510aeaa8497446814fc237c0e4",
        "x-gate": "4ab23d17c6b46afd404de1fceb082afd43fd2f45f414baffe023b565bc0cb654",
    },
}


class TestShotStream:
    def watch_execute(self, monkeypatch, fail_on_call=None):
        """Wrap ``qvm.cli.execute``; each call records how many earlier results are alive."""
        execute = qvm.cli.execute
        results, alive = [], []

        def watched(code, seed=0):
            alive.append(sum(ref() is not None for ref in results))
            if len(alive) == fail_on_call:
                raise EngineFailure("shot failed")
            result = execute(code, seed)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr("qvm.cli.execute", watched)
        return alive

    @pytest.mark.parametrize("output", ["human", "json"])
    def test_at_most_one_earlier_result_is_alive(self, monkeypatch, capsys, output):
        alive = self.watch_execute(monkeypatch)
        status, _, _ = run_cli(capsys, "run", "teleport", "--shots", "50", "--output", output)
        assert status == 0
        assert len(alive) == 50 and max(alive) <= 1

    def test_failing_shot_follows_the_lines_of_the_shots_before_it(self, monkeypatch, capsys):
        argv = ("run", "bell", "--output", "json", "--shots")
        _, first_three, _ = run_cli(capsys, *argv, "3")
        alive = self.watch_execute(monkeypatch, fail_on_call=4)
        assert run_cli(capsys, *argv, "10") == (2, first_three, "engine failure: shot failed\n")
        assert first_three.count("\n") == 3 and len(alive) == 4

    @pytest.mark.parametrize("output", ["human", "json"])
    def test_format_that_does_not_fit_fails_after_one_shot(self, monkeypatch, capsys, output):
        alive = self.watch_execute(monkeypatch)
        argv = ("run", "bell", "--shots", "1000", "--format", "b1", "--output", output)
        status, out, err = run_cli(capsys, *argv)
        assert (status, out, len(alive)) == (1, "", 1)
        assert err == "error: format covers 1 qubits, snapshot has 2\n"

    @pytest.mark.parametrize("shots, lines_read", [(2000, 1), (1, 0)])
    def test_reader_that_leaves_early_is_not_a_failure(self, tmp_path, capsys, shots, lines_read):
        # 2000 shots print about 300 KB, more than a pipe holds, so a write
        # after the close fails; one shot's line waits in stdout's buffer
        # (PYTHONUNBUFFERED is dropped) and the close fails its flush
        path = tmp_path / "teleport.json"
        assert run_cli(capsys, "emit-ir", "teleport", "--out", str(path))[0] == 0
        src = str(Path(qvm.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(
            [sys.executable, "-m", "qvm.cli", "run-ir", str(path), "--shots", str(shots),
             "--output", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
        )
        for _ in range(lines_read):
            assert child.stdout.readline().startswith(b"{")
        child.stdout.close()
        try:
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert (child.returncode, err) == (0, b"")

    @pytest.mark.parametrize("output", sorted(STREAM_DIGESTS))
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_run_and_run_ir_keep_their_bytes(self, tmp_path, capsys, name, output):
        path = tmp_path / f"{name}.json"
        assert run_cli(capsys, "emit-ir", name, "--out", str(path))[0] == 0
        flags = ("--shots", "300", "--seed", "9", "--output", output)
        for argv in (("run", name), ("run-ir", str(path))):
            status, out, _ = run_cli(capsys, *argv, *flags)
            assert status == 0
            assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DIGESTS[output][name], argv


class TestIrRoundTrip:
    def test_emit_then_run_matches_run(self, tmp_path, capsys):
        for name in EXAMPLES:
            path = tmp_path / f"{name}.json"
            status, _, _ = run_cli(capsys, "emit-ir", name, "--out", str(path))
            assert status == 0
            direct = run_cli(capsys, "run", name, "--seed", "11", "--shots", "20")
            replayed = run_cli(capsys, "run-ir", str(path), "--seed", "11", "--shots", "20")
            assert direct == replayed

    def test_emit_to_stdout(self, capsys):
        status, out, _ = run_cli(capsys, "emit-ir", "bell")
        assert status == 0
        doc = json.loads(out)
        assert doc["num_qubits"] == 2
        ops = [i["op"] for i in doc["instructions"]]
        assert ops[0] == "alloc" and "measure" in ops

    def test_corrupted_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        run_cli(capsys, "emit-ir", "bell", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["instructions"][1]["target"] = 9
        path.write_text(json.dumps(doc))
        status, _, err = run_cli(capsys, "run-ir", str(path))
        assert status == 1
        assert "error" in err

    def test_missing_file_exits_one(self, capsys):
        status, _, _ = run_cli(capsys, "run-ir", "/nonexistent/program.json")
        assert status == 1

    def test_run_ir_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        assert run_cli(capsys, "emit-ir", "bell", "--out", str(path))[0] == 0
        assert run_cli(capsys, "run-ir", str(path), "--shots", "4")[0] == 0
        gc.collect()
        gc.disable()
        try:
            assert run_cli(capsys, "run-ir", str(path), "--shots", "4")[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


FUZZ_BASE = {
    "version": 1,
    "num_qubits": 3,
    "num_futures": 1,
    "num_dumps": 1,
    "instructions": [
        {"op": "alloc", "count": 3},
        {"op": "gate", "kind": "h", "target": 0, "controls": []},
        {"op": "gate", "kind": "rx", "angle": 0.5, "target": 1, "controls": [0]},
        {"op": "measure", "qubits": [0], "future": 0},
        {
            "op": "branch",
            "future": 0,
            "equals": 1,
            "body": [
                {"op": "gate", "kind": "phase", "angle": 1.25, "target": 2, "controls": [1]},
                {
                    "op": "branch",
                    "future": 0,
                    "equals": 1,
                    "body": [{"op": "gate", "kind": "x", "target": 2, "controls": []}],
                },
            ],
        },
        {"op": "dump", "qubits": [1, 2], "dump": 0},
    ],
}
# Valid sizes stop at 12 qubits to keep the test fast and small; 25-30 are
# over MAX_QUBITS and must be refused before any state is allocated.  An id
# of 10**12 in a header count must be refused without building that range.
FUZZ_VALUES = {
    "angle": st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400])
    | st.floats(-10, 10),
    "qubit": st.integers(-3, 5) | st.sampled_from([1 << 63, -(1 << 63), 10**30]),
    "id": st.integers(-2, 3) | st.sampled_from([1 << 63, 10**12]),
    "size": st.integers(-1, 12) | st.integers(25, 30),
}
FUZZ_FIELDS = {
    "future": "id",
    "dump": "id",
    "equals": "id",
    "angle": "angle",
    "target": "qubit",
    "count": "size",
}


def fuzz_slots(doc):
    """``(container, key, kind)`` for every field of ``doc`` the fuzz may overwrite."""
    slots = [(doc, key, "id") for key in ("num_futures", "num_dumps")]
    slots.append((doc, "num_qubits", "size"))
    stack = list(doc["instructions"])
    while stack:
        ins = stack.pop()
        slots.extend((ins, key, kind) for key, kind in FUZZ_FIELDS.items() if key in ins)
        for key in ("controls", "qubits"):
            slots.extend((ins[key], i, "qubit") for i in range(len(ins.get(key, ()))))
        stack.extend(ins.get("body", ()))
    return slots


# One value of each JSON type, plus arrays, an integer past any index, and two
# values long enough that an error message quoting them whole would flood.
WRONG_TYPES = [None, True, 1.5, "x", [], [0], [True], {}, 10**30, [0] * 100_000, "x" * 100_000]


def value_paths(node, path=()):
    """The key path of every value nested in ``node``, arrays' elements included."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from value_paths(node[key], path + (key,))


class TestHostileInput:
    def run_document(self, tmp_path, capsys, instructions, num_qubits):
        path = tmp_path / "program.json"
        doc = {
            "version": 1,
            "num_qubits": num_qubits,
            "num_futures": 0,
            "num_dumps": 0,
            "instructions": instructions,
        }
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "run-ir", str(path))

    def assert_one_error_line(self, status, out, err):
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_allocation_over_the_qubit_limit_exits_one(self, tmp_path, capsys):
        instructions = [{"op": "alloc", "count": 40}]
        self.assert_one_error_line(*self.run_document(tmp_path, capsys, instructions, 40))

    def test_angle_overflowing_a_float_exits_one(self, tmp_path, capsys):
        instructions = [
            {"op": "alloc", "count": 1},
            {"op": "gate", "kind": "rx", "angle": 10**400, "target": 0, "controls": []},
        ]
        self.assert_one_error_line(*self.run_document(tmp_path, capsys, instructions, 1))

    @pytest.mark.parametrize(
        "depth, message",
        [
            # one past validate's limit, and deeper than the decoder can recurse
            (qvm.ir.MAX_DEPTH + 1, f"conditioned blocks nested too deeply (limit {qvm.ir.MAX_DEPTH})"),
            (1000, "document is nested too deeply"),
        ],
        ids=["max-depth-plus-one", "1000"],
    )
    def test_branch_nested_too_deeply_exits_one(self, tmp_path, capsys, depth, message):
        branch = '{"op": "branch", "future": 0, "equals": 0, "body": ['
        gate = '{"op": "gate", "kind": "x", "target": 0, "controls": []}'
        path = tmp_path / "program.json"
        path.write_text(
            '{"version": 1, "num_qubits": 1, "num_futures": 1, "num_dumps": 0,'
            ' "instructions": [{"op": "alloc", "count": 1},'
            ' {"op": "measure", "qubits": [0], "future": 0}, '
            + branch * depth + gate + "]}" * depth + "]}"
        )
        status, out, err = run_cli(capsys, "run-ir", str(path))
        self.assert_one_error_line(status, out, err)
        assert message in err

    def test_every_value_of_the_wrong_type_decodes_or_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "program.json"
        for keys in value_paths(FUZZ_BASE):
            for value in WRONG_TYPES:
                doc = copy.deepcopy(FUZZ_BASE)
                container = doc
                for key in keys[:-1]:
                    container = container[key]
                container[keys[-1]] = value
                text = json.dumps(doc)
                try:
                    code = deserialize(text)
                except MalformedCode:
                    pass
                else:
                    code.validate()
                path.write_text(text)
                status, _, err = run_cli(capsys, "run-ir", str(path))
                assert status in (0, 1, 2) and "Traceback" not in err, (keys, value)
                if status == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, (keys, value)
                    assert len(err.rstrip("\n")) <= 200, (keys, err[:200])

    @given(st.data())
    @settings(max_examples=200)
    def test_mutated_documents_exit_cleanly(self, tmp_path_factory, data):
        doc = copy.deepcopy(FUZZ_BASE)
        for _ in range(data.draw(st.integers(0, 3))):
            mutation = data.draw(st.sampled_from(("field", "resize", "nest")))
            instructions = doc["instructions"]
            if mutation == "field":
                container, key, kind = data.draw(st.sampled_from(fuzz_slots(doc)))
                container[key] = data.draw(FUZZ_VALUES[kind])
            elif mutation == "resize" and "count" in instructions[0]:
                doc["num_qubits"] = instructions[0]["count"] = data.draw(FUZZ_VALUES["size"])
            else:
                index = data.draw(st.integers(0, len(instructions) - 1))
                for _ in range(data.draw(st.integers(1, 40))):
                    instructions[index] = {
                        "op": "branch",
                        "future": 0,
                        "equals": data.draw(st.integers(0, 1)),
                        "body": [instructions[index]],
                    }
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(doc))
        argv = [
            "run-ir",
            str(path),
            "--shots",
            str(data.draw(st.integers(0, 4))),
            "--seed",
            str(data.draw(st.integers(-(1 << 64), 1 << 64))),
            "--output",
            data.draw(st.sampled_from(("human", "json", "xml"))),
        ]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestBloch:
    def test_x_gate_coordinates(self, capsys):
        status, out, _ = run_cli(capsys, "bloch", "x-gate")
        assert status == 0
        assert out == "x=0.000000 y=0.000000 z=-1.000000\n"

    def test_hadamard_coordinates(self, capsys):
        status, out, _ = run_cli(capsys, "bloch", "hadamard")
        assert status == 0
        assert out == "x=1.000000 y=0.000000 z=0.000000\n"

    def test_bell_exits_one(self, capsys):
        status, _, err = run_cli(capsys, "bloch", "bell")
        assert status == 1
        assert err

    def test_svg_written(self, tmp_path, capsys):
        path = tmp_path / "sphere.svg"
        status, _, _ = run_cli(capsys, "bloch", "hadamard", "--out", str(path))
        assert status == 0
        assert path.read_text().startswith("<svg")

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_every_example_records_a_dump(self, name):
        # ``bloch`` reads the first dump of any example and has no branch for none
        process = qvm.new_process()
        EXAMPLES[name].build(process)
        assert process.code.num_dumps >= 1


def test_examples_listing(capsys):
    status, out, _ = run_cli(capsys, "examples")
    assert status == 0
    for name in EXAMPLES:
        assert name in out
