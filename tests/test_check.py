"""The gradient audit covers every tape primitive."""

import inspect

from actf import check as C
from actf import sketch as S
from actf import tensor as T


def _recording_functions(module):
    """Functions defined in ``module`` that record on the tape through apply_primitive."""
    return {
        name for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and name != "apply_primitive"
        and "apply_primitive(" in inspect.getsource(fn)
    }


def test_every_primitive_is_audited():
    primitives = _recording_functions(T) | _recording_functions(S)
    assert {"conv2d", "count_sketch", "reshape"} <= primitives
    results = C.run_audit()
    missing = primitives - {r.name for r in results}
    assert not missing, f"primitives without a gradient check: {sorted(missing)}"
    assert all(r.ok for r in results), [r for r in results if not r.ok]
