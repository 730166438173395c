"""The benchmark's calls into the package, run at tiny dims.

`bench/checks.py` and `bench/workloads.py` reach the model through
`init_params`, `named_tensors`, `params.actf` and `extract_actf`. Running
their checks here makes a change that breaks one of those calls fail in this
suite, not only in a benchmark run. Nothing under `bench/` is written.
"""

import os
import sys

import pytest

from actf import data as D
from actf import model as M

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import checks  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _dont_write_bytecode

DIMS = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                   out_channels=8, sketch_dim=32, n_classes=4)
SAMPLES = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=16, width=16,
                                     per_class=2, noise=0.01, seed=0))


def _failures(results):
    return [(name, detail) for name, ok, detail in results if not ok]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_model_checks_pass(variant):
    # logits and accuracy against the reference, and the first SGD step
    # against finite differences
    results = [*checks.model_outputs(M.init_params(DIMS, 0, variant), variant, SAMPLES),
               *checks.first_step(DIMS, 0, variant, SAMPLES[:2])]
    assert len(results) == 3
    assert _failures(results) == []


def test_branch_checks_pass():
    # the branch on an unbatched (t, C, H, W) feature map, as the benchmark runs it
    case = workloads.BranchCase.make(M.init_params(DIMS, 0, "full"), DIMS, 1, 0)
    results = [*checks.branch_outputs(case), *checks.branch_gradient(case),
               *checks.sketch_brute_force(case, 0)]
    assert len(results) == 4
    assert _failures(results) == []
