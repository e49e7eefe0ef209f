"""Timing wrappers around qvm's public functions, for the benchmark's traced run.

The tracer changes nothing under ``src/qvm``.  ``install`` replaces every
binding of each traced function, a module attribute or a class attribute,
with a wrapper that counts the call and times it, and ``remove`` puts the
originals back.  qvm looks these names up at call time (``execute`` finds
``apply_kernel`` in the simulator module, ``cli.main`` finds its own
``execute`` and ``deserialize`` bindings), so the wrappers see internal
calls as well as the benchmark's.

A wrapper's self time is its duration minus the time spent in wrapped calls
it made, wrapper bookkeeping included, so a layer's self time does not grow
with the number of wrapped calls beneath it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from workloads import executed_counts

# (module, attribute path) of every traced function; the span is named
# "<module without 'qvm.'>.<attribute path>".
TRACED = (
    [("qvm.ir", "new_process")]
    + [
        ("qvm.ir", f"Process.{method}")
        for method in (
            "alloc", "apply_gate", "ctrl_begin", "ctrl_end", "adj_begin", "adj_end",
            "around_begin", "around_end", "measure", "dump_state", "branch",
        )
    ]
    + [("qvm.ir", "QuantumCode.validate")]
    + [
        ("qvm.library", name)
        for name in (
            "x", "y", "z", "h", "rx", "ry", "rz", "phase",
            "cnot", "swap", "bell", "qft", "grover_diffusor", "teleport",
        )
    ]
    + [("qvm.serialize", "serialize"), ("qvm.serialize", "deserialize")]
    + [
        ("qvm.simulator", name)
        for name in (
            "execute", "apply_kernel", "measure_kernel", "extract_dump", "gate_matrix",
            "StateVector.norm_sq", "StateVector.extend",
        )
    ]
    + [("qvm.rng", "Xoshiro256StarStar.uniform")]
    + [("qvm.render", name) for name in ("show", "recognize_sqrt_fraction", "parse_format")]
    + [("qvm.cli", "main")]
)

KERNEL_CLASSES = ("diag-c0", "diag-c1", "dense-c0", "dense-c1", "any-c2")

_MARK = "_bench_span"


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('qvm.')}.{path}"


def _qvm_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "qvm" or name.startswith("qvm.")]


def _owner(module: str, path: str):
    """The module or class that defines a traced function, and its name there."""
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _bindings(module: str, path: str):
    """The function, and every (owner, attribute) through which qvm reaches it."""
    owner, attr = _owner(module, path)
    fn = vars(owner)[attr]
    if isinstance(owner, type):
        return fn, [(owner, attr)]
    return fn, [(m, name) for m in _qvm_modules() for name, v in vars(m).items() if v is fn]


def assert_clean() -> None:
    """Raise if any qvm module or traced class still holds a wrapper."""
    owners = set(_qvm_modules()) | {_owner(m, p)[0] for m, p in TRACED}
    for owner in owners:
        for name, value in vars(owner).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"trace wrapper left on {owner.__name__}.{name}")


class Tracer:
    """Per-span call counts and times, plus the counts the metrics need."""

    def __init__(self):
        spans = [span_name(m, p) for m, p in TRACED]
        self.calls = dict.fromkeys(spans, 0)
        self.total = dict.fromkeys(spans, 0.0)
        self.self_time = dict.fromkeys(spans, 0.0)
        self.kernel_calls = dict.fromkeys(KERNEL_CLASSES, 0)
        self.kernel_time = dict.fromkeys(KERNEL_CLASSES, 0.0)
        self.amp_pairs = 0
        self.state_bytes_peak = 0
        self.wire_bytes = 0
        self.sqrt_hits = 0
        self.executions = []  # (code, futures) of every engine run
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- observers: run after the wrapped call returns -------------------

    def _on_apply_kernel(self, args, kwargs, result, elapsed):
        state, matrix = args[0], args[1]
        controls = args[3] if len(args) > 3 else kwargs.get("controls", ())
        c = len(controls)
        if c >= 2:
            kind = "any-c2"
        else:
            diagonal = matrix[0, 1] == 0 and matrix[1, 0] == 0
            kind = f"{'diag' if diagonal else 'dense'}-c{c}"
        self.kernel_calls[kind] += 1
        self.kernel_time[kind] += elapsed
        self.amp_pairs += 1 << (state.n - 1 - c)

    def _on_extend(self, args, kwargs, result, elapsed):
        self.state_bytes_peak = max(self.state_bytes_peak, args[0].amps.nbytes)

    def _on_execute(self, args, kwargs, result, elapsed):
        self.executions.append((args[0], result.futures))

    def _on_serialize(self, args, kwargs, result, elapsed):
        self.wire_bytes += len(result)

    def _on_deserialize(self, args, kwargs, result, elapsed):
        self.wire_bytes += len(args[0])

    def _on_recognize(self, args, kwargs, result, elapsed):
        self.sqrt_hits += result is not None

    def _observer(self, span: str):
        return {
            "simulator.apply_kernel": self._on_apply_kernel,
            "simulator.StateVector.extend": self._on_extend,
            "simulator.execute": self._on_execute,
            "serialize.serialize": self._on_serialize,
            "serialize.deserialize": self._on_deserialize,
            "render.recognize_sqrt_fraction": self._on_recognize,
        }.get(span)

    def _wrap(self, span: str, fn):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        observe = self._observer(span)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                inner = stack.pop()
                calls[span] += 1
                total[span] += elapsed
                self_time[span] += elapsed - inner
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            if stack:
                stack[-1] += perf() - start
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, span)
        return wrapper

    def derived(self) -> dict[str, int]:
        """Counts the engine runs seen so far must have made, from their programs."""
        return executed_counts(self.executions)

    def counts(self) -> dict:
        """Everything counted; repeats exactly when the same requests run again."""
        return {
            "calls": dict(self.calls),
            "kernel_calls": dict(self.kernel_calls),
            "amp_pairs": self.amp_pairs,
            "state_bytes_peak": self.state_bytes_peak,
            "wire_bytes": self.wire_bytes,
            "sqrt_hits": self.sqrt_hits,
            "derived": self.derived(),
        }

    def metrics(self, outcomes, untraced: float, traced: float) -> dict[str, float]:
        """Per-layer metrics of one round: ``outcomes`` ran traced in ``traced``
        seconds, and untraced in ``untraced`` seconds."""
        calls, total, self_time = self.calls, self.total, self.self_time
        derived = self.derived()
        shots = sum(o.shots for o in outcomes)
        recorded = sum(o.recorded for o in outcomes)

        def ratio(a, b):
            return a / b if b else 0.0

        def group_self(prefix: str) -> float:
            return sum(t for span, t in self_time.items() if span.startswith(prefix))

        kernel_s = total["simulator.apply_kernel"]
        record_s = group_self("ir.Process.") + self_time["ir.new_process"]
        recognize = "render.recognize_sqrt_fraction"
        return {
            **{
                f"simulator.apply_kernel_us.{kind}": ratio(self.kernel_time[kind], n) * 1e6
                for kind, n in self.kernel_calls.items()
            },
            "simulator.apply_kernel_s": kernel_s,
            "simulator.apply_kernel_calls": calls["simulator.apply_kernel"],
            "simulator.amp_pairs": self.amp_pairs,
            "simulator.amp_pairs_per_s": ratio(self.amp_pairs, kernel_s),
            "simulator.bytes_computed": 64 * self.amp_pairs,
            "simulator.extract_dump_s": total["simulator.extract_dump"],
            "simulator.measure_kernel_s": total["simulator.measure_kernel"],
            "simulator.norm_sq_s": total["simulator.StateVector.norm_sq"],
            "simulator.norm_sq_calls_per_shot": ratio(calls["simulator.StateVector.norm_sq"], shots),
            "simulator.execute_self_s": self_time["simulator.execute"],
            "simulator.gate_matrix_s": total["simulator.gate_matrix"],
            "simulator.pre_measure_gate_frac": ratio(derived["pre_measure_gates"], derived["gates"]),
            "simulator.branch_taken_frac": ratio(derived["taken"], derived["branches"]),
            "simulator.state_bytes_peak": self.state_bytes_peak,
            "ir.record_s": record_s,
            "ir.record_us_per_instr": ratio(record_s, recorded) * 1e6,
            "ir.validate_s": total["ir.QuantumCode.validate"],
            "ir.validate_calls_per_shot": ratio(calls["ir.QuantumCode.validate"], shots),
            "library.routine_s": group_self("library."),
            "serialize.encode_s": self_time["serialize.serialize"],
            "serialize.decode_s": self_time["serialize.deserialize"],
            "serialize.bytes": self.wire_bytes,
            "render.show_s": total["render.show"],
            "render.sqrt_fraction_us_per_amp": ratio(total[recognize], calls[recognize]) * 1e6,
            "render.sqrt_fraction_hit_frac": ratio(self.sqrt_hits, calls[recognize]),
            "rng.uniform_calls_per_shot": ratio(calls["rng.Xoshiro256StarStar.uniform"], shots),
            "cli.main_self_s": self_time["cli.main"],
            "trace.round_s": untraced,
            "trace.overhead_frac": traced / untraced - 1,
        }

    def install(self) -> None:
        try:
            for module, path in TRACED:
                fn, owners = _bindings(module, path)
                wrapper = self._wrap(span_name(module, path), fn)
                for owner, attr in owners:
                    self._patched.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.remove()
    assert_clean()
