"""Self-test of the benchmark: every workload at a tiny size, timed and traced.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that each run prints the result line with exactly the metrics
``BENCHMARK.json`` declares, each with its unit; that no request fails; that
the traced counts repeat exactly between two runs with the same seed; and
that a directory holding only ``BENCHMARK.json`` and the benchmark exits
non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV_KEYS = {"python", "numpy", "cpu_count", "l2_bytes", "l3_bytes", "seed"}


def expect(condition: bool, message: str) -> None:
    # a check that raises, unlike assert, which -O removes
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def run(cwd: Path, workload: str, seed: int, trace: int, *extra: str):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, seed: int, trace: int) -> dict:
    child = run(ROOT, workload, seed, trace, "--tiny")
    where = f"{workload} seed {seed} trace {trace}"
    expect(child.returncode == 0, f"{where}: exit {child.returncode}\n{child.stderr}")
    *_, info_line, result_line = child.stdout.splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] is True, f"{where}: not correct\n{child.stderr}")
    expect(result["attempted"] >= 1 and result["failed"] == 0, where)
    expect(info["failed_frac"] == 0 and info["requests"] == result["attempted"], where)
    expect(set(info["env"]) == ENV_KEYS and info["env"]["seed"] == seed, where)
    expect(info["digest_pinned"], f"{where}: no pinned digest")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == declared, f"{where}: metrics or units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        timed = check_run(workload, 0, 0)
        expect(all(v > 0 for v in timed.values()), f"{workload}: an end-to-end metric is 0")
        first, second = check_run(workload, 1, 1), check_run(workload, 1, 1)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, unit in units.items():
            if unit in ("count", "B"):
                expect(first[name] == second[name], f"{workload}: {name} did not repeat")
        print(f"ok {workload}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        child = run(bare, names[0], 0, 0)
        expect(child.returncode != 0 and child.stdout == "", "bare directory did not fail")
    finally:
        shutil.rmtree(bare)
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
