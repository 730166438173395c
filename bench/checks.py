"""Checks of the program's outputs against the independent reference.

Each check yields (name, ok, detail). Tolerances are fixed here, from float64
round-off: the program and the reference sum in different orders, so values
agree to ~1e-13 relative. Finite differences hold every ReLU's on/off
pattern at the base point (see `reference.directional_derivatives`), so with
step 1e-6 they carry only round-off (~1e-10) and a truncation error of
order step^2; each is compared with the directional derivative it estimates.
"""

from __future__ import annotations

import numpy as np

from actf import model as M
from actf import tensor as T
from actf import train as TR

import reference as R

LOGIT_RTOL = 1e-9     # |program - reference| <= LOGIT_RTOL * max(1, max |reference|)
FD_EPS = 1e-6
FD_RTOL = 1e-6        # |fd - <g, u>| <= FD_RTOL * |<g, u>| + FD_ATOL, for |u| = 1
FD_ATOL = 1e-8
SKETCH_LOCATIONS = 6  # brute-force sketch locations per paper-scale check


def _rel_err(a, b):
    """max |a - b| / max(1, max |b|); infinite when the shapes differ or a value is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    err = float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
    return err if np.isfinite(err) else float("inf")


def _close(a, b, rtol):
    err = _rel_err(a, b)
    return err <= rtol, f"max rel err {err:.2e} (tol {rtol:.0e})"


def _gradient_misses(objective, x0, grad, rng):
    """Finite differences of objective(x, relu) at x0 against the gradient `grad`.

    Two unit directions: a random one, and grad / |grad|, along which the
    directional derivative is |grad| itself, so a scale error in the
    backward shows once it exceeds FD_RTOL + FD_ATOL / |grad|. Returns a
    description of each miss.
    """
    grad = np.asarray(grad, dtype=float)
    u = rng.standard_normal(np.shape(x0))
    directions = [("random", u / np.linalg.norm(u))]
    norm = float(np.linalg.norm(grad))
    if norm > 0:
        directions.append(("gradient", grad / norm))
    misses = []
    fds = R.directional_derivatives(objective, x0, [u for _, u in directions], FD_EPS)
    for (kind, u), fd in zip(directions, fds):
        analytic = float(np.sum(grad * u))
        if not abs(fd - analytic) <= FD_RTOL * abs(analytic) + FD_ATOL:
            misses.append(f"{kind} direction: fd {fd:.12e} analytic {analytic:.12e}")
    return misses


def _stack(samples):
    return (np.stack([np.asarray(v.data) for v, _ in samples]),
            np.array([y for _, y in samples]))


def program_logits(params, samples):
    """`train.evaluate` on samples, with the logits of every `model.forward` it makes."""
    captured = []
    forward = M.forward

    def capture(*args, **kwargs):
        out = forward(*args, **kwargs)
        captured.append(np.array(out.data))
        return out

    M.forward = capture
    try:
        acc = TR.evaluate(params, samples)
    finally:
        M.forward = forward
    n_classes = params.dims.n_classes
    return acc, np.concatenate([c.reshape(-1, n_classes) for c in captured])


def model_outputs(params, variant, samples, timed_acc=None):
    """(a) Reference logits and accuracy against the program's."""
    acc, z = program_logits(params, samples)
    videos, labels = _stack(samples)
    w, tables = R.weights_of(params), R.tables_of(params.actf.plan)
    z_ref = R.logits(w, tables, videos, variant)
    ok, detail = _close(z, z_ref, LOGIT_RTOL)
    yield f"logits[{variant}, n={len(samples)}]", ok, detail
    acc_ref = float(np.mean(np.argmax(z_ref, axis=1) == labels))
    accs = [acc, acc_ref] + ([timed_acc] if timed_acc is not None else [])
    yield (f"accuracy[{variant}]", len(set(accs)) == 1,
           "evaluate / reference / timed run: " + " / ".join(f"{a:.4f}" for a in accs))


def first_step(dims, seed, variant, samples):
    """(c) The first SGD step of a one-batch `fit` against finite differences.

    Momentum starts at zero and weight decay is off, so the step is -lr * g.
    Each model tensor is checked along its own directions.
    """
    params = M.init_params(dims, seed, variant)
    before = R.weights_of(params)
    tables = R.tables_of(params.actf.plan)
    cfg = TR.TrainConfig(lr0=0.05, momentum=0.9, weight_decay=0.0, epochs=1,
                         batch_size=len(samples), seed=seed)
    TR.fit(params, samples, cfg)
    after = R.weights_of(params)
    videos, labels = _stack(samples)
    features = R.backbone(before, videos)
    rng = np.random.default_rng([seed, 29])
    bad = []
    for name, theta in before.items():
        grad = (theta - after[name]) / cfg.lr0
        # Only the backbone's own tensors move its features.
        held_features = None if name.startswith("backbone.") else features

        def loss_at(x, relu, name=name, held_features=held_features):
            return R.mean_loss({**before, name: x}, tables, videos, labels, variant, relu,
                               held_features)

        bad += [f"{name}: {miss}" for miss in _gradient_misses(loss_at, theta, grad, rng)]
    yield (f"first-step-gradient[{variant}]", not bad,
           "; ".join(bad) or f"{len(before)} tensors agree")


def time_reversal(params, samples):
    """(d) spatial-only pools over time, so reversing every video keeps its logits and accuracy."""
    reversed_set = [(T.Tensor(np.ascontiguousarray(v.data[::-1])), y) for v, y in samples]
    (a, za), (b, zb) = program_logits(params, samples), program_logits(params, reversed_set)
    ok, detail = _close(zb, za, LOGIT_RTOL)
    yield ("time-reversal[spatial-only]", ok and a == b,
           f"accuracy {a:.4f} forward, {b:.4f} reversed; logits {detail}")


def _branch_reference(case):
    return R.weights_of(case.params), R.tables_of(case.params.actf.plan)


def branch_outputs(case):
    """(a) The branch output against the reference, on the first feature map."""
    w, tables = _branch_reference(case)
    f = case.feats[0]
    ok, detail = _close(case.forward(f).data, R.branch(w, tables, f[None])[0], LOGIT_RTOL)
    yield f"branch-output[C={f.shape[1]}]", ok, detail


def branch_gradient(case):
    """(c) Tape gradients of <branch(F), r> against reference finite differences.

    Run twice: as is, and with the mean-feature weight at zero, where every
    gradient of F flows through the sketch and its circular convolution
    instead of being dominated by the pairwise mean.
    """
    w, tables = _branch_reference(case)
    f = case.feats[0]
    r = case.direction[:, 0]
    corr = R.pair_sketches(tables, f[None], case.params.actf.plan.output_dim)
    rng = np.random.default_rng(31)
    for imf_zero in (False, True):
        F = case.forward_backward(f, imf_weight_zero=imf_zero)
        grads = {"F": F.grad}
        grads.update({name: t.grad for name, t in M.named_tensors(case.params)
                      if t.grad is not None})
        case.clear_grads()
        bad = []
        for name, g in grads.items():
            x0 = f if name == "F" else w[name]

            def objective(x, relu, name=name):
                if name == "F":
                    v = R.branch(w, tables, x[None], imf_weight_zero=imf_zero, relu=relu)
                else:   # the sketches depend on F alone
                    v = R.branch({**w, name: x}, tables, f[None], imf_weight_zero=imf_zero,
                                 relu=relu, corr=corr)
                return float(v[0] @ r)

            bad += [f"{name}: {miss}" for miss in _gradient_misses(objective, x0, g, rng)]
        yield (f"branch-tape-gradient[imf_weight_zero={imf_zero}]", not bad and len(grads) > 1,
               "; ".join(bad) or f"{len(grads)} tensors agree")


def sketch_brute_force(case, seed):
    """(b) The reference sketch against the brute-force sum at sampled locations."""
    _, tables = _branch_reference(case)
    f = case.feats[0]
    t, c, h, w = f.shape
    d = case.params.actf.plan.output_dim
    rng = np.random.default_rng([seed, 37])
    worst = 0.0
    for _ in range(SKETCH_LOCATIONS):
        p, i, j = rng.integers(t - 1), rng.integers(h), rng.integers(w)
        x, y = f[p, :, i, j], f[p + 1, :, i, j]
        worst = max(worst, _rel_err(R.compact_bilinear(x[None], y[None], tables, d)[0],
                                    R.brute_force_sketch(x, y, tables, d)))
    yield (f"sketch-brute-force[{SKETCH_LOCATIONS} locations, C={c}, d={d}]",
           worst <= LOGIT_RTOL, f"max rel err {worst:.2e} (tol {LOGIT_RTOL:.0e})")
