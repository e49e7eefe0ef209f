"""Command-line entry point.

Subcommands: ``run`` (bundled example), ``run-ir`` (serialized program file),
``emit-ir`` (write a bundled example as JSON), ``bloch`` (coordinates of a
one-qubit snapshot), and ``examples``.  Shots re-execute the whole program
with seeds seed, seed+1, ..., so conditioned blocks resample correctly.
Each shot prints or is tallied as it finishes, and only the first shot's dumps
are kept, so memory does not grow with ``--shots``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from .errors import EngineFailure, EntangledSelection, MalformedCode, QvmError
from .examples import EXAMPLES
from .ir import QuantumCode, new_process
from .render import bloch_coords, bloch_svg, parse_format, show
from .serialize import deserialize, serialize
from .simulator import ExecutionResult, execute


def _build_example(name: str) -> QuantumCode:
    if name not in EXAMPLES:
        raise MalformedCode(
            f"unknown example {name!r}; see the 'examples' subcommand"
        )
    process = new_process()
    EXAMPLES[name].build(process)
    return process.code


def _result_json(result: ExecutionResult) -> dict:
    return {
        "futures": {str(fid): value for fid, value in sorted(result.futures.items())},
        "dumps": {
            str(did): {
                "qubits": list(data.qubits),
                "states": [
                    {"basis": basis, "re": amp.real, "im": amp.imag}
                    for basis, amp in data.basis_states
                ],
            }
            for did, data in sorted(result.dumps.items())
        },
    }


def _run_code(code: QuantumCode, args: argparse.Namespace) -> int:
    if args.shots < 1:
        raise ValueError("shots must be >= 1")
    spec = parse_format(args.format or "")
    sections: list[str] = []
    counts: Counter[tuple[int, ...]] = Counter()
    for shot in range(args.shots):
        result = execute(code, args.seed + shot)
        if shot == 0 and (args.output == "human" or args.format):
            # JSON output prints none of these; rendering them checks that --format fits
            sections = [show(result.dumps[dump_id], spec) for dump_id in sorted(result.dumps)]
        if args.output == "json":
            print(json.dumps(_result_json(result)))
        else:
            counts[tuple(result.futures[fid] for fid in range(code.num_futures))] += 1
    if args.output == "json":
        return 0
    if code.num_futures:
        sections.append("\n".join(
            f"{' '.join(str(v) for v in key)}: {count} ({count / args.shots * 100:.2f}%)"
            for key, count in sorted(counts.items())
        ))
    if sections:
        print("\n\n".join(sections))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_code(_build_example(args.example), args)


def _cmd_run_ir(args: argparse.Namespace) -> int:
    with open(args.path, "rb") as handle:
        data = handle.read()
    return _run_code(deserialize(data), args)


def _cmd_emit_ir(args: argparse.Namespace) -> int:
    data = serialize(_build_example(args.example))
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _cmd_bloch(args: argparse.Namespace) -> int:
    result = execute(_build_example(args.example), args.seed)
    data = result.dumps[min(result.dumps)]
    coords = bloch_coords(data)
    print(
        f"x={coords.x + 0.0:.6f} y={coords.y + 0.0:.6f} z={coords.z + 0.0:.6f}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(bloch_svg(coords))
    return 0


def _cmd_examples(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXAMPLES)
    for name in sorted(EXAMPLES):
        print(f"{name:<{width}}  {EXAMPLES[name].description}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed (64-bit)")
    parser.add_argument("--shots", type=int, default=1, help="number of repetitions")
    parser.add_argument("--format", default=None, help="ket grouping, e.g. i1:i1")
    parser.add_argument("--output", choices=("human", "json"), default="human")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused.

    Building it takes about a millisecond and leaves cyclic garbage, and
    ``parse_args`` does not change it.
    """
    parser = argparse.ArgumentParser(
        prog="qvm", description="Record and simulate small quantum programs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a bundled example")
    run.add_argument("example")
    _add_run_flags(run)
    run.set_defaults(func=_cmd_run)

    run_ir = sub.add_parser("run-ir", help="run a serialized program file")
    run_ir.add_argument("path")
    _add_run_flags(run_ir)
    run_ir.set_defaults(func=_cmd_run_ir)

    emit = sub.add_parser("emit-ir", help="serialize a bundled example")
    emit.add_argument("example")
    emit.add_argument("--out", default=None, help="output path (default: stdout)")
    emit.set_defaults(func=_cmd_emit_ir)

    bloch = sub.add_parser("bloch", help="sphere coordinates of a 1-qubit snapshot")
    bloch.add_argument("example")
    bloch.add_argument("--seed", type=int, default=0)
    bloch.add_argument("--out", default=None, help="write an SVG here as well")
    bloch.set_defaults(func=_cmd_bloch)

    listing = sub.add_parser("examples", help="list bundled examples")
    listing.set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (0) or its usage and error (2)
        return 1 if exc.code else 0  # a rejected command line is bad input, not the engine's
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that left early fails this flush, not the one at exit
        return status
    except BrokenPipeError:  # stdout's reader left early: the run did not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 0
    except EntangledSelection as exc:
        # an EngineFailure, but a failed state inspection is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineFailure as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 2
    except (QvmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the host could not hold the state or a result
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
