"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qvm"


def test_no_assert_statements():
    # ``python -O`` strips asserts, and the package's invariants must hold under it
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/qvm: {', '.join(found)}"


def _dict_stores(tree: ast.AST):
    """(qualified name of the enclosing def, key) of each store into an instance ``__dict__``.

    A store is an assignment or deletion through ``x.__dict__[...]`` or
    ``vars(x)[...]``, or a call of a mutating method on either.  The key is
    the subscript or first argument when it is a string literal, else None.
    """

    def is_dict(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "__dict__"
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"

    def key(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and is_dict(target.value):
                found.append((".".join(scope), key(target.slice)))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear", "__setitem__")
            and is_dict(node.func.value)
        ):
            found.append((".".join(scope), key(node.args[0]) if node.args else None))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_only_instance_dict_store_is_the_ops_validate_remembers():
    # a value kept in an instance's ``__dict__`` is a hidden memo: ``pickle`` and
    # ``copy`` carry it unless ``__getstate__`` drops it, as ``QuantumCode``'s drops ``_ops``
    found = [
        (path.relative_to(SOURCE).as_posix(), *store)
        for path in sorted(SOURCE.rglob("*.py"))
        for store in _dict_stores(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == [("ir.py", "QuantumCode.validate", "_ops")]


def test_the_dict_store_check_sees_each_form():
    source = (
        "class C:\n"
        "    def f(self, other):\n"
        "        self.__dict__['a'] = 1\n"
        "        vars(other)['b'] = 2\n"
        "        self.__dict__.update(c=3)\n"
        "        del self.__dict__['d']\n"
        "        vars(self).setdefault('e', 5)\n"
        "        x = self.__dict__.get('f')\n"
        "def g(obj, k):\n"
        "    obj.__dict__[k] = 1\n"
    )
    assert _dict_stores(ast.parse(source)) == [
        ("C.f", "a"), ("C.f", "b"), ("C.f", None), ("C.f", "d"), ("C.f", "e"), ("g", None),
    ]


def _validate_uses(tree: ast.AST):
    """Line of each reference to a ``validate`` attribute but a bare ``x.validate()`` statement.

    Such a statement runs the check and drops the ops it returns; any other
    reference, a call whose value is used or the bound method itself, can
    reach the ops.
    """
    bare = {
        id(node.value.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "validate" and id(node) not in bare
    ]


def test_only_the_engine_reads_the_ops_validate_returns():
    # the flat ops are the engine's input; every other module calls
    # ``validate`` as a check, so a change to the ops touches ir and simulator only
    found = [
        f"{path.relative_to(SOURCE).as_posix()}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name not in ("ir.py", "simulator.py")
        for line in _validate_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == [], f"validate() results used in src/qvm: {', '.join(found)}"


def test_the_validate_check_sees_each_form():
    source = (
        "def f(code, other):\n"
        "    code.validate()\n"
        "    ops = code.validate()\n"
        "    for op in other.validate():\n"
        "        pass\n"
        "    check = code.validate\n"
        "    code.validate() or other\n"
        "    return len(code.validate())\n"
        "validate = other.check()\n"
        "validate()\n"
    )
    assert sorted(_validate_uses(ast.parse(source))) == [3, 4, 6, 7, 8]


FAILING_PROPERTY_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    if x >= 0:
        raise ValueError(x)


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # hypothesis imports libcst to write a failing example's patch, and libcst
    # warns of a deprecation on import; the config must let the run go on
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    run = subprocess.run([*command, "test_property.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
