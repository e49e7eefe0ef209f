"""qvm benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 bench/run.py --workload qft-wide --seed 1 --seconds 10 --trace 0

The workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
measures the end-to-end metrics with nothing wrapped; with ``--trace 1`` it
measures the per-layer metrics through the timing wrappers of ``tracing.py``.
Metric names and units come from ``BENCHMARK.json``; ``README.md`` says what
each one means and which end-to-end metric it should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
workload, the seed, the failure fraction, the futures digest, the wall-clock
figures before the host-speed correction of ``hostspeed.py``, and the
environment.  A failed request or check makes ``correct`` false; a checkout
without qvm's sources makes the run exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# A timed run is split over this many fresh worker processes.
WORKERS = 4
WORKER_TIMEOUT_S = 150

# glibc's sysconf numbers for _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _clock() -> float:
    # CLOCK_MONOTONIC is one clock for the whole machine, so a child's reading
    # can be compared with its parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_qvm() -> None:
    """Import qvm from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "qvm" / "__init__.py").is_file():
        raise SystemExit(f"error: no qvm sources under {src}")
    sys.path.insert(0, str(src))
    import qvm

    if Path(qvm.__file__).resolve().parent != (src / "qvm").resolve():
        raise SystemExit(f"error: imported qvm from {qvm.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy

    caches = {}
    for level, name in ((2, _SC_LEVEL2_CACHE_SIZE), (3, _SC_LEVEL3_CACHE_SIZE)):
        try:
            size = os.sysconf(name) if platform.system() == "Linux" else -1
        except (OSError, ValueError):
            size = -1
        caches[f"l{level}_bytes"] = size if size > 0 else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        **caches,
        "seed": seed,
    }


def futures_digest(outcomes) -> str:
    futures = [outcome.futures for outcome in outcomes]
    return hashlib.sha256(json.dumps(futures, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """Sets up one workload and runs its requests, counting failures."""

    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.workdir = ROOT / ".bench_build" / f"qvm-bench-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            self.workload = WORKLOADS[args.workload](args.seed, self.workdir, args.tiny)
        except BaseException:
            self.close()
            raise
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def close(self) -> None:
        for path in sorted(self.workdir.glob("*")):
            path.unlink()
        self.workdir.rmdir()

    def request(self, i: int):
        """Run request ``i``; return its Outcome, or None if it raised or failed its check."""
        self.attempted += 1
        try:
            return self.workload.request(i)
        except Exception:  # a failed request is counted, and the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check_digest(self, outcomes) -> dict:
        digest = futures_digest(outcomes)
        label = self.workload.name + ("/tiny" if self.args.tiny else "")
        pins = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        pinned = pins.get(label, {}).get(str(self.args.seed))
        if pinned is not None and pinned != digest:
            self.errors.append(f"futures digest {digest} differs from the pinned {pinned}")
        return {"digest": digest, "digest_pinned": pinned is not None}


def worker(runner: Runner) -> dict:
    """One process's share of a timed run: set up, warm up, then a closed loop.

    The loop runs whole rounds: round r is requests ``1 + r*size ..
    (r+1)*size``, so on shots-small, whose programs differ a hundredfold in
    cost, every round runs each program once. Each round is timed on the
    wall clock and, through the host-speed probe, at nominal speed.
    """
    import hostspeed
    import tracing

    args, workload = runner.args, runner.workload
    size = workload.round_size
    tracing.assert_clean()
    prefix = [runner.request(0)]  # the untimed warm-up
    ready = _clock()
    spans = []
    first = 1
    with hostspeed.Probe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            shots = 0
            began = time.perf_counter()
            for i in range(first, first + size):
                outcome = runner.request(i)
                if outcome is not None:
                    shots += outcome.shots
                if i < size:
                    prefix.append(outcome)
            spans.append((began, time.perf_counter(), shots))
            first += size
    rounds = [
        {"wall": ended - began, "corrected": probe.corrected(began, ended),
         "speed": probe.speed(began, ended), "shots": shots}
        for began, ended, shots in spans
    ]
    return {
        "ready": ready,
        "round_size": size,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "info": runner.check_digest([o for o in prefix if o is not None]),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
    }


def timed_run(args) -> dict:
    """Split the run over WORKERS fresh processes, one after another.

    Each worker's set-up, from process start to its first timed request, is
    one set-up sample, and each runs the same request sequence for its share
    of ``--seconds``. The CPUs of a shared virtual machine can differ in speed
    by half, and which is faster changes from minute to minute, so worker k
    is pinned to the k-th allowed CPU in turn: every run samples every CPU
    equally, instead of wherever the scheduler happens to put it.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS), "--worker"]
    cmd += ["--tiny"] if args.tiny else []
    reports = []
    for k in range(WORKERS):
        cpu = cpus[k % len(cpus)]
        start = _clock()
        with subprocess.Popen(cmd + ([] if cpu is None else ["--cpu", str(cpu)]),
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                stdout, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
            except BaseException:
                child.terminate()  # the worker unwinds and removes its files
                raise
        if child.returncode != 0:
            raise SystemExit(f"error: worker exited with {child.returncode}")
        report = json.loads(stdout.splitlines()[-1])
        report["setup_s"] = report["ready"] - start
        reports.append(report)
    digests = {r["info"]["digest"] for r in reports}
    errors = [e for r in reports for e in r["errors"]]
    if len(digests) != 1:
        errors.append(f"workers disagree on the futures digest: {sorted(digests)}")
    rounds = [rnd for r in reports for rnd in r["rounds"]]
    size = reports[0]["round_size"]

    def per_request_ms(key: str) -> float:
        return statistics.median(rnd[key] for rnd in rounds) / size * 1e3

    def per_s(key: str) -> float:
        return sum(rnd["shots"] for rnd in rounds) / sum(rnd[key] for rnd in rounds)

    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "shots_per_s": per_s("corrected"),
        "request_ms.p50": per_request_ms("corrected"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    wall = {
        "rounds": len(rounds),
        "wall_shots_per_s": per_s("wall"),
        "wall_request_ms.p50": per_request_ms("wall"),
        "host_speed.p50": statistics.median(rnd["speed"] for rnd in rounds),
    }
    return {
        "metrics": metrics,
        "info": {**reports[0]["info"], **wall},
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "errors": errors,
    }


def traced_run(runner: Runner) -> dict:
    """Rounds of requests 0 .. round_size-1, untraced then traced, until --seconds."""
    import tracing

    args, workload = runner.args, runner.workload
    size = workload.round_size
    tracing.assert_clean()
    runner.request(0)  # the untimed warm-up
    rounds = []
    info = None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not rounds and runner.failed == 0:
        tracing.assert_clean()
        began = time.perf_counter()
        plain = [runner.request(i) for i in range(size)]
        untraced = time.perf_counter() - began
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            began = time.perf_counter()
            outcomes = [runner.request(i) for i in range(size)]
            traced = time.perf_counter() - began
        if None in plain or None in outcomes:
            continue
        if info is None:
            info = runner.check_digest(plain)
        if [o.futures for o in outcomes] != [o.futures for o in plain]:
            runner.errors.append("traced futures differ from untraced futures")
        check_counts(runner, tracer, outcomes)
        rounds.append((tracer.counts(), tracer.metrics(outcomes, untraced, traced)))
    if not rounds:
        raise SystemExit("error: no traced round completed")
    first_counts = rounds[0][0]
    if any(counts != first_counts for counts, _ in rounds):
        runner.errors.append("traced counts differ between rounds of the same requests")
    names = rounds[0][1]
    metrics = {name: statistics.median(r[1][name] for r in rounds) for name in names}
    return {
        "metrics": metrics,
        "info": {**info, "rounds": len(rounds)},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
    }


def check_counts(runner: Runner, tracer, outcomes) -> None:
    """Traced call counts must equal those derived from the programs run."""
    calls, derived = tracer.calls, tracer.derived()
    expected = {
        "simulator.execute": sum(o.shots for o in outcomes),
        "simulator.apply_kernel": derived["gates"],
        "simulator.measure_kernel": derived["measures"],
        "rng.Xoshiro256StarStar.uniform": derived["measures"],
        "simulator.StateVector.norm_sq": derived["steps"],
        **{span: n * len(outcomes) for span, n in runner.workload.expected_calls().items()},
    }
    for span, want in expected.items():
        if calls[span] != want:
            runner.errors.append(f"traced {span}: {calls[span]} calls, expected {want}")


def declared_units(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qft-wide", "shots-small", "program-io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # On SIGTERM, unwind: a parent kills its running worker, a worker removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.cpu is not None:
        # before numpy is imported, so its BLAS starts one thread
        os.sched_setaffinity(0, {args.cpu})
    import_qvm()
    if args.trace or args.worker:
        runner = Runner(args)
        try:
            result = traced_run(runner) if args.trace else worker(runner)
        finally:
            runner.close()
        if args.worker:
            print(json.dumps(result))
            return 0
    else:
        result = timed_run(args)
    units = declared_units(bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"error: computed metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for error in dict.fromkeys(result["errors"]):  # each distinct error once
        print(f"error: {error}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "requests": attempted,
        "failed_frac": failed / attempted,
        **result["info"],
        "env": environment(args.seed),
    }))
    print(json.dumps({
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
