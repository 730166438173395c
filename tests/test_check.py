"""The gradient audit covers every tape primitive."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import actf
from actf import attention as A
from actf import check as C
from actf import sketch as S
from actf import tensor as T


def _recording_functions():
    """Functions defined in any actf module that record on the tape through apply_primitive."""
    modules = [importlib.import_module(f"actf.{m.name}")
               for m in pkgutil.iter_modules(actf.__path__)]
    assert {T, S, A} <= set(modules)
    return {
        name for module in modules
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and name != "apply_primitive"
        and "apply_primitive(" in inspect.getsource(fn)
    }


def _called_outside_audit():
    """Functions called in the actf sources other than check.py, as f(...) or
    as module.f(...) through a module imported from the package."""
    called = set()
    for path in pathlib.Path(actf.__file__).parent.glob("*.py"):
        if path.name == "check.py":
            continue
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and not node.module
                   for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                called.add(f.id)
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in modules):
                called.add(f.attr)
    return called


@pytest.fixture(scope="module")
def results():
    return C.run_audit()


def test_every_primitive_is_audited(results):
    primitives = _recording_functions()
    assert {"conv_relu_pool", "compact_bilinear", "bilinear_logits", "weighted_bilinear",
            "reshape"} <= primitives
    missing = primitives - {r.name for r in results}
    assert not missing, f"primitives without a gradient check: {sorted(missing)}"
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_every_primitive_runs_outside_the_audit():
    # a primitive that only the audit and the tests call is API nothing uses
    unused = _recording_functions() - _called_outside_audit()
    assert not unused, f"primitives called only by check.py or the tests: {sorted(unused)}"


def test_every_check_names_a_function(results):
    # the reverse guard: no check outlives the function it audits
    defined = {
        name for module in (T, S, A)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__
    }
    names = {r.name for r in results} - {"model_end_to_end"}
    assert names <= defined, sorted(names - defined)


def test_a_faulty_rule_fails_only_its_own_checks(monkeypatch):
    # matmul's backward off by a relative 1e-3: the checks that read matmul
    # fail, and no other check routes through it on the way to its loss
    matmul = T.matmul

    def faulty(a, b):
        out = matmul(a, b)
        records = T.active_tape()._records if T.active_tape() else []
        if records and records[-1][1] is out:
            inputs, _, backward = records[-1]
            records[-1] = (inputs, out, lambda g: [x * (1 + 1e-3) for x in backward(g)])
        return out

    monkeypatch.setattr(T, "matmul", faulty)
    results = C.run_audit()
    assert len(results) == 29
    assert sorted(r.name for r in results if not r.ok) == (
        ["matmul"] * 3 + ["temporal_weights"])


def test_non_scalar_output_is_projected():
    x = T.Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    x.data = np.where(np.abs(x.data) < 0.1, 0.5, x.data)  # off relu's kink
    assert C.gradient_error(lambda: T.relu(x), [x]) < 1e-6


def test_scalar_output_is_seeded_with_one():
    # <1, f> is f itself: the tape gradient of a mean of four is exactly 1/4 each
    x = T.Tensor(np.array([1.0, -2.0, 3.0, 0.5]), requires_grad=True)
    assert C.gradient_error(lambda: T.mean(x, (0,)), [x]) < 1e-9
    np.testing.assert_array_equal(x.grad, np.full(4, 0.25))
