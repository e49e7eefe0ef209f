"""Builder semantics: handles, scopes, rewrites, and the execution lifecycle."""

import copy
import dataclasses
import math
import pickle
import re
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvm
from qvm import (
    Alloc,
    ControlTargetOverlap,
    DuplicateControl,
    Gate,
    GateApp,
    GateKind,
    InvalidHandle,
    Measure,
    ProcessTerminated,
    ScopeUnderflow,
    ScopeViolation,
    UnknownFuture,
    adj,
    around,
    ctrl,
    new_process,
)
from qvm.examples import EXAMPLES

from oracles import ShiftingTuple, expand

GATE_H = Gate(GateKind.HADAMARD)
GATE_X = Gate(GateKind.PAULI_X)


def gate_kinds():
    return st.sampled_from(list(GateKind))


def gates():
    angles = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    return gate_kinds().flatmap(
        lambda kind: st.just(Gate(kind))
        if kind not in qvm.ir.PARAMETRIC_KINDS
        else angles.map(lambda a: Gate(kind, a))
    )


class TestProcessBasics:
    def test_fresh_process_is_empty(self):
        p = new_process()
        assert p.num_qubits == 0
        assert p.state is qvm.ProcessState.BUILDING
        assert p.code.instructions == ()

    def test_process_ids_are_distinct(self):
        assert new_process().id != new_process().id

    def test_alloc_two_records_alloc_instruction(self):
        p = new_process()
        handles = p.alloc(2)
        assert [h.index for h in handles] == [0, 1]
        assert p.code == qvm.QuantumCode(2, (Alloc(2),), 0, 0)

    def test_alloc_count_must_be_positive(self):
        with pytest.raises(ValueError):
            new_process().alloc(0)

    @pytest.mark.parametrize(
        "count, error",
        [(2.0, TypeError), (True, TypeError), (0, ValueError), (24, ValueError), (10**6, ValueError)],
    )
    def test_failed_alloc_changes_nothing(self, count, error):
        p = new_process()
        p.alloc(1)
        with pytest.raises(error):
            p.alloc(count)
        assert p.num_qubits == 1
        assert p.code == qvm.QuantumCode(1, (Alloc(1),))
        assert [h.index for h in p.alloc(1)] == [1]

    def test_alloc_past_the_qubit_limit_names_the_limit(self):
        p = new_process()
        p.alloc(20)
        with pytest.raises(ValueError, match="^20 qubits and 5 more exceed the limit of 24$"):
            p.alloc(5)
        assert [h.index for h in p.alloc(4)] == [20, 21, 22, 23]

    def test_repr_names_id_qubit_count_and_state(self):
        p = new_process()
        p.alloc(2)
        assert repr(p) == f"Process(id={p.id}, qubits=2, state=building)"

    @pytest.mark.parametrize(
        "other",
        [
            (Alloc(1), Measure((0,), 0)),
            qvm.QuantumCode(1, (Alloc(1), Measure((0,), 0)), num_futures=2),
            qvm.QuantumCode(1, (Alloc(1),), num_futures=1),
        ],
        ids=["not-a-code", "other-header", "fewer-instructions"],
    )
    def test_code_differs_from(self, other):
        code = qvm.QuantumCode(1, (Alloc(1), Measure((0,), 0)), num_futures=1)
        assert not code == other and code != other

    def test_handles_compare_by_process_and_index(self):
        p = new_process()
        (a,) = p.alloc(1)
        assert a == qvm.QubitHandle(p.id, 0, p)
        assert a.valid


class TestGateType:
    def test_parametric_gate_requires_angle(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RX)
        with pytest.raises(ValueError):
            Gate(GateKind.RY, math.inf)
        # an integer past a float's range is a bad angle too, not an arithmetic error
        for angle in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="^gate 'rx' requires a finite angle$"):
                Gate("rx", angle)
            process = new_process()
            (q,) = process.alloc(1)
            with pytest.raises(ValueError, match="^gate 'rx' requires a finite angle$"):
                qvm.rx(angle, q)
            assert process.code.instructions == (Alloc(1),)

    def test_fixed_gate_rejects_angle(self):
        with pytest.raises(ValueError):
            Gate(GateKind.HADAMARD, 1.0)

    @pytest.mark.parametrize("angle", [True, False, np.True_])
    def test_bool_angle_is_a_type_error(self, angle):
        with pytest.raises(TypeError, match="^gate angle must be a real number, got "):
            Gate(GateKind.RX, angle)
        with pytest.raises(ValueError, match="takes no angle"):
            Gate(GateKind.HADAMARD, angle)
        process = new_process()
        (q,) = process.alloc(1)
        with pytest.raises(TypeError):
            qvm.rx(angle, q)
        assert process.code.instructions == (Alloc(1),)

    def test_kind_may_be_given_by_name(self):
        assert Gate("rx", 0.5) == Gate(GateKind.RX, 0.5)
        assert Gate("x").kind is GateKind.PAULI_X
        with pytest.raises(ValueError, match="^unknown gate kind 'cnot'$"):
            Gate("cnot")

    @given(gates())
    def test_inverse_is_an_involution(self, gate):
        assert gate.inverse().inverse() == gate


class TestApplyGate:
    def test_returns_same_handle_for_chaining(self):
        p = new_process()
        (q,) = p.alloc(1)
        assert p.apply_gate(GATE_H, q) is q

    def test_foreign_handle_rejected(self):
        p, other = new_process(), new_process()
        (q,) = other.alloc(1)
        with pytest.raises(InvalidHandle):
            p.apply_gate(GATE_H, q)

    def test_non_gate_rejected(self):
        p = new_process()
        (q,) = p.alloc(1)
        with pytest.raises(TypeError, match="^expected a Gate, got 'x'$"):
            p.apply_gate("x", q)
        assert p.code.instructions == (Alloc(1),)

    def test_gate_records_active_controls(self):
        p = new_process()
        a, b, t = p.alloc(3)
        with ctrl(a):
            with ctrl(b):
                p.apply_gate(GATE_X, t)
        assert p.code.instructions[-1] == GateApp(GATE_X, 2, (0, 1))

    def test_target_may_not_be_an_active_control(self):
        p = new_process()
        a, b = p.alloc(2)
        p.ctrl_begin([a])
        with pytest.raises(ControlTargetOverlap):
            p.apply_gate(GATE_X, a)
        p.apply_gate(GATE_X, b)
        p.ctrl_end()


class TestCtrlScopes:
    def test_duplicate_control_in_one_call(self):
        p = new_process()
        (a,) = p.alloc(1)
        with pytest.raises(DuplicateControl):
            p.ctrl_begin([a, a])

    def test_control_already_active_in_enclosing_scope(self):
        p = new_process()
        a, b = p.alloc(2)
        p.ctrl_begin([a])
        with pytest.raises(DuplicateControl):
            p.ctrl_begin([b, a])

    def test_unmatched_end_underflows(self):
        with pytest.raises(ScopeUnderflow):
            new_process().ctrl_end()

    def test_end_does_not_close_adjoint_scope(self):
        p = new_process()
        p.adj_begin()
        with pytest.raises(ScopeUnderflow):
            p.ctrl_end()

    def test_alloc_inside_ctrl_scope_fails(self):
        p = new_process()
        (a,) = p.alloc(1)
        p.ctrl_begin([a])
        with pytest.raises(ScopeViolation):
            p.alloc(1)

    def test_measure_and_dump_inside_ctrl_scope_fail(self):
        p = new_process()
        a, b = p.alloc(2)
        p.ctrl_begin([a])
        with pytest.raises(ScopeViolation):
            p.measure([b])
        with pytest.raises(ScopeViolation):
            p.dump_state([b])


class TestAdjScopes:
    def test_adj_reverses_and_inverts(self):
        p = new_process()
        a, b = p.alloc(2)
        with adj(p):
            qvm.h(a)
            qvm.cnot(a, b)
        assert p.code.instructions[1:] == (
            GateApp(GATE_X, 1, (0,)),
            GateApp(GATE_H, 0),
        )

    def test_adj_negates_rotation_angles(self):
        p = new_process()
        (q,) = p.alloc(1)
        with adj(p):
            qvm.ry(0.75, q)
        assert p.code.instructions[-1] == GateApp(Gate(GateKind.RY, -0.75), 0)

    def test_ctrl_inside_adj_applies_to_rewritten_gates(self):
        p = new_process()
        a, t = p.alloc(2)
        with adj(p):
            with ctrl(a):
                qvm.phase(0.5, t)
            qvm.h(t)
        assert p.code.instructions[1:] == (
            GateApp(GATE_H, 1),
            GateApp(Gate(GateKind.PHASE, -0.5), 1, (0,)),
        )

    def test_scope_blocked_operations(self):
        p = new_process()
        (q,) = p.alloc(1)
        p.adj_begin()
        with pytest.raises(ScopeViolation):
            p.alloc(1)
        with pytest.raises(ScopeViolation):
            p.measure([q])
        with pytest.raises(ScopeViolation):
            p.dump_state([q])
        with pytest.raises(ScopeUnderflow):
            p.adj_end() or p.adj_end()

    @given(st.lists(st.tuples(gates(), st.integers(0, 2)), max_size=12))
    def test_double_adjoint_is_identity_on_the_ir(self, ops):
        def emit(process, qubits):
            for gate, target in ops:
                process.apply_gate(gate, qubits[target])

        direct = new_process()
        emit(direct, direct.alloc(3))

        wrapped = new_process()
        qs = wrapped.alloc(3)
        with adj(wrapped):
            with adj(wrapped):
                emit(wrapped, qs)

        assert wrapped.code.instructions == direct.code.instructions


class TestAround:
    def test_one_shot_emits_outer_inner_adj_outer(self):
        p = new_process()
        a, b = p.alloc(2)
        around(p, lambda: qvm.bell(a, b), lambda: qvm.x(a))
        assert p.code.instructions[1:] == (
            GateApp(GATE_H, 0),
            GateApp(GATE_X, 1, (0,)),
            GateApp(GATE_X, 0),
            GateApp(GATE_X, 1, (0,)),
            GateApp(GATE_H, 0),
        )

    def test_block_form_matches_one_shot(self):
        one_shot = new_process()
        a, b = one_shot.alloc(2)
        around(one_shot, lambda: qvm.bell(a, b), lambda: qvm.z(a))

        block = new_process()
        c, d = block.alloc(2)
        with around(block, lambda: qvm.bell(c, d)):
            qvm.z(c)

        assert one_shot.code.instructions == block.code.instructions

    def test_empty_inner_is_outer_then_its_adjoint(self):
        p = new_process()
        a, b = p.alloc(2)
        around(p, lambda: qvm.bell(a, b), lambda: None)
        result = qvm.execute(
            qvm.QuantumCode(
                2,
                p.code.instructions + (qvm.Dump((0, 1), 0),),
                num_dumps=1,
            ),
            seed=5,
        )
        assert result.dumps[0].basis_states == ((0, (1 + 0j)),)

    def test_unmatched_around_end(self):
        with pytest.raises(ScopeUnderflow):
            new_process().around_end()

    def test_outer_runs_once(self):
        p = new_process()
        (a,) = p.alloc(1)
        calls = []

        def outer():
            calls.append(None)
            qvm.h(a)

        around(p, outer, lambda: qvm.x(a))
        assert len(calls) == 1
        with around(p, outer):
            qvm.z(a)
        assert len(calls) == 2
        assert p.code.instructions[1:] == tuple(
            GateApp(Gate(kind), 0) for kind in "hxhhzh"
        )

    def test_adjoint_is_of_what_outer_recorded(self):
        p = new_process()
        (q,) = p.alloc(1)
        theta = [0.3]
        with around(p, lambda: qvm.rz(theta[0], q)):
            theta[0] = 0.5
        assert p.code.instructions[1:] == (
            GateApp(Gate(GateKind.RZ, 0.3), 0),
            GateApp(Gate(GateKind.RZ, -0.3), 0),
        )


class TestScopesThatRaise:
    """A body that raises closes its scope, emits nothing more, and propagates."""

    def test_ctrl_keeps_recorded_gates(self):
        p = new_process()
        a, b = p.alloc(2)
        with pytest.raises(RuntimeError):
            with ctrl(a):
                qvm.x(b)
                raise RuntimeError("body failed")
        assert p.code.instructions[1:] == (GateApp(GATE_X, 1, (0,)),)
        qvm.x(a)
        assert p.measure([a, b]).value == 0b10

    def test_block_entered_inside_itself_leaves_no_scope_open(self):
        p = new_process()
        (a,) = p.alloc(1)
        block = adj(p)
        with pytest.raises(ScopeViolation, match="^a scope block can be entered only once$"):
            with block:
                with block:
                    qvm.x(a)
        assert p._scopes == []
        assert p.code.instructions[1:] == ()

    def test_adj_drops_its_buffer(self):
        p = new_process()
        (a,) = p.alloc(1)
        with pytest.raises(RuntimeError):
            with adj(p):
                qvm.x(a)
                raise RuntimeError("body failed")
        assert p.code.instructions[1:] == ()
        assert p.measure([a]).value == 0

    def test_around_skips_the_adjoint_of_outer(self):
        p = new_process()
        a, b = p.alloc(2)
        with pytest.raises(RuntimeError):
            with around(p, lambda: qvm.x(a)):
                with ctrl(a):
                    qvm.x(b)
                raise RuntimeError("body failed")
        assert p.code.instructions[1:] == (GateApp(GATE_X, 0), GateApp(GATE_X, 1, (0,)))
        assert p.measure([a, b]).value == 0b11


class TestScopesNest:
    """An ``*_end`` closes only the innermost scope; a failed close leaves none open."""

    def test_around_end_does_not_close_past_a_ctrl_scope(self):
        p = new_process()
        a, b = p.alloc(2)
        p.around_begin(lambda: qvm.h(a))
        p.ctrl_begin([b])
        with pytest.raises(ScopeUnderflow):
            p.around_end()
        assert p.code.instructions[1:] == (GateApp(GATE_H, 0),)
        p.ctrl_end()
        p.around_end()
        assert p.code.instructions[1:] == (GateApp(GATE_H, 0), GateApp(GATE_H, 0))
        assert p.measure([a, b]).value == 0

    def test_branch_body_must_close_its_around(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: p.around_begin(lambda: qvm.x(b)))
        with pytest.raises(ScopeUnderflow):
            p.around_end()
        assert p.code.instructions[1:] == (Measure((0,), 0),)
        assert p.measure([b]).value == 0

    def test_branch_body_must_close_its_ctrl(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: p.ctrl_begin([b]))
        assert p._scopes == []
        assert p.code.instructions[1:] == (Measure((0,), 0),)
        assert p.measure([b]).value == 0

    def test_adj_end_does_not_close_past_an_around(self):
        p = new_process()
        (a,) = p.alloc(1)
        p.adj_begin()
        p.around_begin(lambda: qvm.x(a))
        with pytest.raises(ScopeUnderflow):
            p.adj_end()
        assert p.code.instructions[1:] == ()
        p.around_end()
        p.adj_end()
        assert p.code.instructions[1:] == (GateApp(GATE_X, 0), GateApp(GATE_X, 0))
        assert p.measure([a]).value == 0

    def test_around_whose_outer_measures_fails_on_close_and_leaves_no_scope(self):
        p = new_process()
        a, b = p.alloc(2)

        def outer():
            qvm.x(a)
            p.measure([b])

        with pytest.raises(ScopeViolation):
            with around(p, outer):
                qvm.h(b)
        assert p.code.instructions[1:] == (
            GateApp(GATE_X, 0),
            Measure((1,), 0),
            GateApp(GATE_H, 1),
        )
        assert p.measure([a]).value == 1

    def test_around_end_after_outer_raised_emits_nothing(self):
        p = new_process()
        (a,) = p.alloc(1)

        def outer():
            qvm.x(a)
            raise RuntimeError("outer failed")

        with pytest.raises(RuntimeError):
            p.around_begin(outer)
        with pytest.raises(ScopeViolation):
            p.around_end()
        assert p._scopes == []
        assert p.code.instructions[1:] == (GateApp(GATE_X, 0),)
        assert p.measure([a]).value == 1

    def test_inner_section_of_around_may_measure_and_allocate(self):
        p = new_process()
        (a,) = p.alloc(1)
        with around(p, lambda: qvm.x(a)):
            p.alloc(1)
            f = p.measure([a])
        assert p.code.instructions[1:] == (
            GateApp(GATE_X, 0),
            Alloc(1),
            Measure((0,), 0),
            GateApp(GATE_X, 0),
        )
        assert f.value == 1

    def test_with_block_closes_only_the_scope_it_opened(self):
        p = new_process()
        a, b, c = p.alloc(3)
        with pytest.raises(ScopeViolation):
            with ctrl(a):
                p.ctrl_begin([b])
        assert p._scopes == []
        assert p.code.instructions[1:] == ()
        qvm.x(c)
        assert p.code.instructions[1:] == (GateApp(GATE_X, 2),)
        assert p.measure([c]).value == 1


def open_scopes(stack, p, qubit, kinds):
    """Enter a ``with`` scope of each kind, outermost first, on ``stack``."""
    for kind in kinds:
        if kind == "ctrl":
            stack.enter_context(ctrl(qubit))
        elif kind == "adj":
            stack.enter_context(adj(p))
        else:
            stack.enter_context(around(p, lambda: None))


class TestScopeGuards:
    """The innermost scope that is not an around decides what may be recorded."""

    @pytest.mark.parametrize(
        "kinds, message",
        [
            (("ctrl", "around"), "measure is not allowed inside an open control scope"),
            (("adj", "around", "around"), "measure is not allowed inside an open adjoint scope"),
            (("around",), None),
            (("around", "around"), None),
        ],
        ids=["ctrl-around", "adj-around-around", "around", "around-around"],
    )
    def test_measure_under_arounds(self, kinds, message):
        p = new_process()
        a, b = p.alloc(2)
        with ExitStack() as stack:
            open_scopes(stack, p, a, kinds)
            if message is None:
                p.measure([b])
            else:
                with pytest.raises(ScopeViolation, match=f"^{message}$"):
                    p.measure([b])
        assert p._scopes == []

    def test_branch_under_an_around_in_a_ctrl_is_rejected(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        with pytest.raises(ScopeViolation):
            with ExitStack() as stack:
                open_scopes(stack, p, a, ("ctrl", "around"))
                p.branch(f, 1, lambda: qvm.x(b))
        assert p._scopes == []


N_TREE_QUBITS = 4


def scope_trees(depth=3):
    """Sequences of gate, ``ctrl``, ``adj`` and ``around`` nodes, ``depth`` scopes deep."""
    qubit = st.integers(0, N_TREE_QUBITS - 1)
    node = st.tuples(st.just("gate"), gates(), qubit)
    if depth > 0:
        body = scope_trees(depth - 1)
        node = st.one_of(
            node,
            st.tuples(st.just("ctrl"), st.lists(qubit, min_size=1, max_size=2).map(tuple), body),
            st.tuples(st.just("adj"), body),
            st.tuples(st.just("around"), body, body),
        )
    return st.lists(node, max_size=3)


def record_tree(p, qubits, tree):
    for node in tree:
        if node[0] == "gate":
            p.apply_gate(node[1], qubits[node[2]])
        elif node[0] == "ctrl":
            with ctrl(*(qubits[i] for i in node[1])):
                record_tree(p, qubits, node[2])
        elif node[0] == "adj":
            with adj(p):
                record_tree(p, qubits, node[1])
        else:
            with around(p, lambda outer=node[1]: record_tree(p, qubits, outer)):
                record_tree(p, qubits, node[2])


class TestScopeTreesAgainstTheirMeaning:
    @settings(max_examples=300)
    @given(scope_trees(), st.booleans())
    def test_recorded_gates_match_expand(self, tree, in_branch):
        p = new_process()
        qs = p.alloc(N_TREE_QUBITS)
        prefix = (Alloc(N_TREE_QUBITS),)
        if in_branch:
            future = p.measure([qs[0]])
            prefix += (Measure((0,), 0),)

        def record():
            if in_branch:
                p.branch(future, 1, lambda: record_tree(p, qs, tree))
            else:
                record_tree(p, qs, tree)

        try:
            expected = tuple(expand(tree))
        except (ControlTargetOverlap, DuplicateControl) as exc:
            with pytest.raises(type(exc)):
                record()
            if in_branch:
                assert p.code.instructions == prefix  # a failed branch records nothing
        else:
            record()
            if in_branch:
                expected = (qvm.Branch(qvm.Condition(0, 1), expected),)
            assert p.code.instructions == prefix + expected
        assert p._scopes == []


class TestMeasureAndFutures:
    def test_measure_records_fresh_future(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a, b])
        assert p.code.instructions[-1] == Measure((0, 1), 0)
        assert f.future_id == 0 and f.process_id == p.id
        assert f.cached is None

    def test_duplicate_qubits_rejected(self):
        p = new_process()
        (a,) = p.alloc(1)
        with pytest.raises(ValueError):
            p.measure([a, a])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: p.ctrl_begin([]), "control scope needs at least one qubit"),
            (lambda p: p.measure([]), "measure needs at least one qubit"),
            (lambda p: p.dump_state([]), "dump needs at least one qubit"),
            (lambda p: qvm.measure(), "measure needs at least one qubit"),
            (lambda p: qvm.dump(), "dump needs at least one qubit"),
        ],
        ids=["ctrl_begin", "measure", "dump_state", "qvm.measure", "qvm.dump"],
    )
    def test_empty_qubit_list_rejected(self, call, message):
        p = new_process()
        p.alloc(1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(p)
        assert p.code == qvm.QuantumCode(1, (Alloc(1),))
        assert p._scopes == []

    @pytest.mark.parametrize("readout, op", [(qvm.measure, Measure), (qvm.dump, qvm.Dump)])
    def test_module_level_readout_records_on_the_handles_process(self, readout, op):
        p = new_process()
        a, b = p.alloc(2)
        readout(b, a)
        assert p.code.instructions[-1] == op((1, 0), 0)

    @pytest.mark.parametrize("readout", [qvm.measure, qvm.dump])
    def test_module_level_readout_rejects_a_non_handle(self, readout):
        with pytest.raises(InvalidHandle, match="^0 is not a qubit handle$"):
            readout(0)

    def test_qubits_stay_usable_after_measure(self):
        p = new_process()
        (a,) = p.alloc(1)
        p.measure([a])
        p.apply_gate(GATE_X, a)  # recording continues
        assert isinstance(p.code.instructions[-1], GateApp)

    def test_value_read_executes_once_and_caches(self):
        calls = []

        def engine(code, seed):
            calls.append(seed)
            return qvm.simulator.execute(code, seed)

        p = new_process(seed=3, engine=engine)
        (a,) = p.alloc(1)
        qvm.x(a)
        f = p.measure([a])
        assert f.value == 1
        assert f.value == 1
        assert calls == [3]
        assert f.cached == 1

    def test_engine_failure_propagates(self):
        def engine(code, seed):
            raise qvm.EngineFailure("backend went away")

        p = new_process(engine=engine)
        (a,) = p.alloc(1)
        f = p.measure([a])
        with pytest.raises(qvm.EngineFailure):
            f.value


class TestInvalidationAfterExecution:
    def _executed_process(self):
        p = new_process(seed=1)
        a, b = p.alloc(2)
        qvm.bell(a, b)
        f_a = p.measure([a])
        f_b = p.measure([b])
        assert f_a.value in (0, 1)
        return p, a, b, f_b

    def test_every_builder_call_fails_after_execution(self):
        p, a, b, _ = self._executed_process()
        with pytest.raises(ProcessTerminated):
            p.apply_gate(GATE_H, a)
        with pytest.raises(ProcessTerminated):
            p.alloc(1)
        with pytest.raises(ProcessTerminated):
            p.measure([b])
        with pytest.raises(ProcessTerminated):
            p.dump_state([b])
        with pytest.raises(ProcessTerminated):
            p.ctrl_begin([a])
        with pytest.raises(ProcessTerminated):
            p.adj_begin()

    def test_terminated_counts_as_invalid_handle(self):
        p, a, _, _ = self._executed_process()
        with pytest.raises(InvalidHandle):
            p.apply_gate(GATE_H, a)
        assert not a.valid

    def test_remaining_futures_still_readable(self):
        p, _, _, f_b = self._executed_process()
        assert f_b.value in (0, 1)

    def test_dump_cached_is_none_until_execution(self):
        p = new_process()
        (q,) = p.alloc(1)
        snap = p.dump_state([q])
        assert snap.cached is None
        assert p.state is qvm.ProcessState.BUILDING  # reading it executed nothing
        data = snap.data
        assert snap.cached is data

    def test_execute_with_an_open_scope_fails_and_keeps_building(self):
        p = new_process()
        (q,) = p.alloc(1)
        f = p.measure([q])
        p.adj_begin()
        with pytest.raises(ScopeViolation, match="^cannot execute with open scopes$"):
            f.value
        assert p.state is qvm.ProcessState.BUILDING
        p.adj_end()
        assert f.value == 0

    def test_dump_read_twice_single_execution(self):
        calls = []

        def engine(code, seed):
            calls.append(seed)
            return qvm.simulator.execute(code, seed)

        p = new_process(engine=engine)
        (q,) = p.alloc(1)
        qvm.h(q)
        snap = p.dump_state([q])
        first = snap.data
        assert snap.data == first
        assert len(calls) == 1


class TestBranch:
    def test_branch_records_condition_and_body(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        p.branch(f, 1, lambda: qvm.x(b))
        branch = p.code.instructions[-1]
        assert branch == qvm.Branch(qvm.Condition(0, 1), (GateApp(GATE_X, 1),))

    def test_body_may_not_measure_dump_or_alloc(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: p.measure([b]))
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: p.dump_state([b]))
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: p.alloc(1))

    def test_foreign_future_rejected(self):
        p, other = new_process(), new_process()
        (a,) = other.alloc(1)
        foreign = other.measure([a])
        p.alloc(1)
        with pytest.raises(UnknownFuture):
            p.branch(foreign, 1, lambda: None)

    def test_branch_inside_scope_rejected(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])
        p.ctrl_begin([a])
        with pytest.raises(ScopeViolation):
            p.branch(f, 1, lambda: qvm.x(b))

    def test_always_true_branch_applies_body(self):
        p = new_process()
        a, b = p.alloc(2)
        qvm.x(a)
        f = p.measure([a])
        p.branch(f, 1, lambda: qvm.x(b))
        m = p.measure([b])
        assert m.value == 1

    @pytest.mark.parametrize("equals", [1.0, True])
    def test_literal_must_be_an_integer(self, equals):
        p = new_process()
        (a,) = p.alloc(1)
        f = p.measure([a])
        with pytest.raises(TypeError):
            p.branch(f, equals, lambda: qvm.x(a))
        assert p.code.instructions[1:] == (Measure((0,), 0),)
        assert p._scopes == []

    def test_negative_literal_rejected(self):
        p = new_process()
        (a,) = p.alloc(1)
        f = p.measure([a])
        with pytest.raises(ValueError, match="^condition literal must be non-negative$"):
            p.branch(f, -1, lambda: qvm.x(a))
        assert p.code.instructions[1:] == (Measure((0,), 0),)
        assert p._scopes == []

    def test_unsatisfiable_literal_is_allowed_and_never_fires(self):
        p = new_process()
        a, b = p.alloc(2)
        f = p.measure([a])  # one qubit: outcomes 0 or 1
        p.branch(f, 2, lambda: qvm.x(b))
        assert p.measure([b]).value == 0

    def test_nested_branch(self):
        p = new_process()
        a, b, c = p.alloc(3)
        qvm.x(a)
        qvm.x(b)
        fa = p.measure([a])
        fb = p.measure([b])

        def body():
            p.branch(fb, 1, lambda: qvm.x(c))

        p.branch(fa, 1, body)
        assert p.measure([c]).value == 1


class TestInvariantProperties:
    @given(st.data())
    def test_builder_output_always_validates(self, data):
        p = new_process()
        qs = p.alloc(3)
        steps = data.draw(st.lists(st.integers(0, 5), max_size=15))
        future = None
        for step in steps:
            if step == 0:
                qvm.h(qs[data.draw(st.integers(0, 2))])
            elif step == 1:
                targets = data.draw(st.permutations(range(3)))
                with ctrl(qs[targets[0]]):
                    qvm.x(qs[targets[1]])
            elif step == 2:
                with adj(p):
                    qvm.ry(0.5, qs[data.draw(st.integers(0, 2))])
            elif step == 3:
                future = p.measure([qs[data.draw(st.integers(0, 2))]])
            elif step == 4:
                p.dump_state([qs[data.draw(st.integers(0, 2))]])
            elif step == 5 and future is not None:
                p.branch(future, 1, lambda: qvm.z(qs[0]))
            p.code.validate()  # well-formed after every append

    def test_validity_flips_exactly_at_first_read(self):
        p = new_process()
        a, b = p.alloc(2)
        qvm.h(a)
        f = p.measure([a])
        snap = p.dump_state([b])
        assert a.valid and b.valid
        f.value
        assert not a.valid and not b.valid
        snap.data  # still delivered from the cached execution


MEASURED = (Alloc(1), Measure((0,), 0))  # one qubit, future 0 measured
ON_0 = qvm.Condition(0, 0)


def in_branch(*body):
    """A valid one-qubit program with ``body`` inside a branch on future 0."""
    return qvm.QuantumCode(1, (*MEASURED, qvm.Branch(ON_0, body)), num_futures=1)


VALIDATE_RULES = {
    "alloc-in-branch": (in_branch(Alloc(1)), "allocation inside a conditioned block"),
    "alloc-two-branches-deep": (
        in_branch(qvm.Branch(ON_0, (Alloc(1),))),
        "allocation inside a conditioned block",
    ),
    "alloc-zero": (qvm.QuantumCode(0, (Alloc(0),)), "allocation count must be >= 1, got 0"),
    "alloc-past-the-digit-limit": (
        qvm.QuantumCode(1, (Alloc(10**5000),)),
        "program allocates <unprintable int> qubits, more than the limit of 24",
    ),
    "alloc-over-limit": (
        qvm.QuantumCode(25, (Alloc(20), Alloc(5))),
        "program allocates 25 qubits, more than the limit of 24",
    ),
    "gate-without-gate": (
        qvm.QuantumCode(1, (Alloc(1), GateApp("x", 0))),
        "gate application without a gate",
    ),
    "gate-out-of-range": (
        qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, 2))),
        "gate references qubit 2, only 2 allocated",
    ),
    "gate-negative": (
        qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, -1))),
        "gate references qubit -1, only 2 allocated",
    ),
    "gate-bool-control": (
        qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, 0, (True,)))),
        "gate references qubit True, only 2 allocated",
    ),
    "gate-target-is-control": (
        qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, 1, (1,)))),
        "gate lists a qubit more than once",
    ),
    "gate-in-branch-on-later-qubit": (
        qvm.QuantumCode(
            2, (*MEASURED, qvm.Branch(ON_0, (GateApp(GATE_X, 1),)), Alloc(1)), num_futures=1
        ),
        "gate references qubit 1, only 1 allocated",
    ),
    "measure-in-branch": (in_branch(Measure((0,), 1)), "measurement inside a conditioned block"),
    "measure-no-qubits": (
        qvm.QuantumCode(1, (Alloc(1), Measure((), 0)), num_futures=1),
        "measure covers no qubits",
    ),
    "measure-repeated-id": (
        qvm.QuantumCode(1, (*MEASURED, Measure((0,), 0)), num_futures=1),
        "future id 0 produced twice",
    ),
    "dump-in-branch": (in_branch(qvm.Dump((0,), 0)), "dump inside a conditioned block"),
    "dump-no-qubits": (
        qvm.QuantumCode(1, (Alloc(1), qvm.Dump((), 0)), num_dumps=1),
        "dump covers no qubits",
    ),
    "dump-repeated-id": (
        qvm.QuantumCode(1, (Alloc(1), qvm.Dump((0,), 0), qvm.Dump((0,), 0)), num_dumps=1),
        "dump id 0 produced twice",
    ),
    "condition-on-unmeasured-future": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch(qvm.Condition(1, 0), ())), num_futures=1),
        "condition on future 1 with no prior measure",
    ),
    "condition-negative-literal": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch(qvm.Condition(0, -1), ())), num_futures=1),
        "condition literal must be non-negative",
    ),
    "unknown-instruction": (
        qvm.QuantumCode(1, (Alloc(1), "reset 0")),
        "unknown instruction 'reset 0'",
    ),
    "header-qubits": (
        qvm.QuantumCode(2, (Alloc(1),)),
        "program allocates 1 qubits, header says 2",
    ),
    "header-futures": (
        qvm.QuantumCode(1, MEASURED, num_futures=2),
        "future ids are not exactly 0..num_futures-1",
    ),
    "header-dumps": (
        qvm.QuantumCode(1, (Alloc(1), qvm.Dump((0,), 1)), num_dumps=1),
        "dump ids are not exactly 0..num_dumps-1",
    ),
    "alloc-bool": (qvm.QuantumCode(1, (Alloc(True),)), "allocation count must be >= 1, got True"),
    "measure-bool-id": (
        qvm.QuantumCode(1, (*MEASURED, Measure((0,), True)), num_futures=2),
        "future id must be an integer, got True",
    ),
    "dump-bool-id": (
        qvm.QuantumCode(1, (Alloc(1), qvm.Dump((0,), 0), qvm.Dump((0,), True)), num_dumps=2),
        "dump id must be an integer, got True",
    ),
    "condition-float-literal": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch(qvm.Condition(0, 1.0), ())), num_futures=1),
        "condition must hold integers, got Condition(future=0, equals=1.0)",
    ),
    "condition-bool-future": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch(qvm.Condition(False, 0), ())), num_futures=1),
        "condition must hold integers, got Condition(future=False, equals=0)",
    ),
    "header-bool-count": (
        qvm.QuantumCode(True, (Alloc(1),)),
        "header counts must be integers",
    ),
    "instructions-list": (
        qvm.QuantumCode(1, [Alloc(1)]),
        "program instructions must be a tuple, got list",
    ),
    "gate-list-controls": (
        qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, 0, [1]))),
        "gate controls must be a tuple, got list",
    ),
    "measure-list-qubits": (
        qvm.QuantumCode(1, (Alloc(1), Measure([0], 0)), 1),
        "measure qubits must be a tuple, got list",
    ),
    "measure-int-qubits": (
        qvm.QuantumCode(1, (Alloc(1), Measure(0, 0)), 1),
        "measure qubits must be a tuple, got int",
    ),
    "dump-int-qubits": (
        qvm.QuantumCode(1, (Alloc(1), qvm.Dump(0, 0)), num_dumps=1),
        "dump qubits must be a tuple, got int",
    ),
    "branch-tuple-condition": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch((0, 0), ())), num_futures=1),
        "branch condition must be a Condition, got tuple",
    ),
    "branch-list-body": (
        qvm.QuantumCode(1, (*MEASURED, qvm.Branch(ON_0, [])), num_futures=1),
        "branch body must be a tuple, got list",
    ),
}


@pytest.mark.parametrize(
    "code, message", list(VALIDATE_RULES.values()), ids=list(VALIDATE_RULES)
)
def test_validate_rejects_with_its_message(code, message):
    with pytest.raises(qvm.MalformedCode, match=f"^{re.escape(message)}$"):
        code.validate()


HUGE = [0] * 100_000


def _huge_measure(p, qs):
    p.measure([HUGE])


def _huge_apply_target(p, qs):
    p.apply_gate(GATE_X, HUGE)


def _huge_alloc(p, qs):
    p.alloc(HUGE)


def _huge_gate(p, qs):
    p.apply_gate(HUGE, qs[0])


def _huge_future(p, qs):
    p.branch(HUGE, 0, lambda: None)


def _huge_literal(p, qs):
    p.branch(p.measure(qs[0]), HUGE, lambda: None)


def _huge_module_handle(p, qs):
    qvm.measure(HUGE)


@pytest.mark.parametrize(
    "call, error",
    [
        (_huge_measure, InvalidHandle),
        (_huge_apply_target, InvalidHandle),
        (_huge_alloc, TypeError),
        (_huge_gate, TypeError),
        (_huge_future, UnknownFuture),
        (_huge_literal, TypeError),
        (_huge_module_handle, InvalidHandle),
    ],
    ids=lambda value: getattr(value, "__name__", "").removeprefix("_huge_"),
)
def test_builder_message_of_a_huge_argument_is_short(call, error):
    p = new_process()
    qs = p.alloc(1)
    with pytest.raises(error) as raised:
        call(p, qs)
    assert len(str(raised.value)) <= 200


def bell_code():
    p = new_process()
    a, b = p.alloc(2)
    qvm.h(a)
    with ctrl(a):
        qvm.x(b)
    f = p.measure([a])
    p.branch(f, 1, lambda: qvm.z(b))
    p.dump_state([b])
    return p.code


class TestRememberedValidation:
    def test_tuple_subclass_is_checked_again_on_every_call(self):
        bad_later = (Alloc(1), GateApp(GATE_X, 3))
        code = qvm.QuantumCode(1, ShiftingTuple((Alloc(1), GateApp(GATE_X, 0)), bad_later))
        code.validate()
        with pytest.raises(qvm.MalformedCode, match="^gate references qubit 3, only 1 allocated$"):
            code.validate()

    def test_tuple_subclass_body_is_checked_again(self):
        body = ShiftingTuple((GateApp(GATE_X, 0),), (GateApp(GATE_X, 2),))
        code = qvm.QuantumCode(1, (*MEASURED, qvm.Branch(ON_0, body)), num_futures=1)
        code.validate()
        with pytest.raises(qvm.MalformedCode, match="references qubit 2"):
            code.validate()

    def test_failed_validation_is_not_remembered(self):
        # bad on the first pass, good on the second: the failure must not stick
        code = qvm.QuantumCode(1, ShiftingTuple((Alloc(2),), (Alloc(1),)))
        with pytest.raises(qvm.MalformedCode):
            code.validate()
        code.validate()
        exact = qvm.QuantumCode(2, (Alloc(1),))
        for _ in range(2):
            with pytest.raises(qvm.MalformedCode, match="header says 2"):
                exact.validate()
            with pytest.raises(qvm.MalformedCode):
                qvm.execute(exact)

    def test_remembered_code_compares_serializes_and_round_trips_as_before(self):
        code, fresh = bell_code(), bell_code()
        text = qvm.serialize(fresh)
        for _ in range(3):
            code.validate()
        assert code == fresh and hash(code) == hash(fresh) and repr(code) == repr(fresh)
        assert qvm.serialize(code) == text
        assert qvm.deserialize(qvm.serialize(code)) == code
        assert qvm.execute(code, 7) == qvm.execute(fresh, 7)

    def test_pickle_and_copy_carry_no_remembered_ops(self):
        process = new_process()
        EXAMPLES["teleport"].build(process)
        code = process.code
        fresh = pickle.dumps(code)
        first = qvm.execute(code, 5)
        assert pickle.dumps(code) == fresh
        for twin in (pickle.loads(fresh), copy.copy(code), copy.deepcopy(code)):
            assert "_ops" not in vars(twin)
            assert twin == code and qvm.execute(twin, 5) == first

    def test_replace_gives_a_code_that_validates_afresh(self):
        code = bell_code()
        code.validate()
        with pytest.raises(qvm.MalformedCode, match="header says 3"):
            dataclasses.replace(code, num_qubits=3).validate()
        broken = dataclasses.replace(code, instructions=(*code.instructions, GateApp(GATE_X, 2)))
        with pytest.raises(qvm.MalformedCode, match="references qubit 2"):
            broken.validate()
        dataclasses.replace(code).validate()


DUMP_0 = qvm.Dump((0,), 0)


# Programs whose items are ``seq(items, later)``: ``seq`` is ShiftingTuple for
# a code valid on its first pass and invalid on its second, or a plain choice
# of ``items`` for the same program as an exact code.
def _gate_out_of_range(seq):
    items = seq((Alloc(1), GateApp(GATE_X, 0), DUMP_0), (Alloc(1), GateApp(GATE_X, 5), DUMP_0))
    return qvm.QuantumCode(1, items, 0, 1)


def _not_an_instruction(seq):
    return qvm.QuantumCode(1, seq((Alloc(1), GateApp(GATE_X, 0), DUMP_0), (Alloc(1), "x", DUMP_0)), 0, 1)


def _gate_in_a_branch_body(seq):
    body = seq((GateApp(GATE_X, 0),), (GateApp(GATE_X, 5),))
    return qvm.QuantumCode(1, (*MEASURED, qvm.Branch(ON_0, body), DUMP_0), 1, 1)


def _gate_controls(seq):
    cnot = GateApp(GATE_X, 1, seq((0,), (5,)))
    return qvm.QuantumCode(2, (Alloc(2), GateApp(GATE_X, 0), cnot, qvm.Dump((0, 1), 0)), 0, 1)


def _measured_qubits(seq):
    return qvm.QuantumCode(1, (Alloc(1), GateApp(GATE_X, 0), Measure(seq((0,), (5,)), 0)), 1, 0)


class TestValidatedOps:
    @pytest.mark.parametrize(
        "build",
        [_gate_out_of_range, _not_an_instruction, _gate_in_a_branch_body, _gate_controls, _measured_qubits],
        ids=lambda build: build.__name__.lstrip("_"),
    )
    def test_execute_and_serialize_use_only_the_pass_validate_checked(self, build):
        exact = build(lambda items, later: items)
        for use in (lambda code: qvm.execute(code, 3), qvm.serialize):
            code = build(ShiftingTuple)
            assert use(code) == use(exact)
            with pytest.raises(qvm.MalformedCode):  # the second pass is checked, and fails
                use(code)

    def test_validate_returns_the_flat_ops_and_a_remembered_code_the_same_ones(self):
        code = bell_code()
        ops = code.validate()
        kinds = [Alloc, GateApp, GateApp, Measure, qvm.Branch, GateApp, qvm.Dump]
        assert [op[0] for op in ops] == kinds
        *head, branch, dump = code.instructions
        assert [op[4] for op in ops] == [*head, branch, *branch.body, dump]
        assert ops[4][:4] == (qvm.Branch, 0, 1, 6)  # future, literal, first op past the body
        assert code.validate() is ops
        fresh = dataclasses.replace(code)
        assert fresh.validate() == ops and fresh.validate() is not ops
