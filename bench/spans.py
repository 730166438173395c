"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces the package's public functions (and the few
methods listed below) with timing wrappers in every `actf` module that holds
them, and `uninstall()` puts the originals back. A span records its calls,
its inclusive time, and its self time: the inclusive time minus the time of
the spans it called. Each tape primitive also gets its backward closures
wrapped, so backward time is kept per primitive. A function that the package
no longer has is listed as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# Tape primitives, timed as `tensor.<op>`; count_sketch lives in actf.sketch.
PRIMITIVES = (
    "conv2d", "avg_pool", "count_sketch", "circular_convolve", "frame", "frame_slice",
    "stack", "take", "matmul", "transpose", "reshape", "scale_frames", "concat_channels",
    "scale", "add", "relu", "sigmoid", "softmax", "cross_entropy",
)

# (module, attribute path, span name) for the layers between the primitives.
LAYERS = (
    ("model", "forward", "model.forward"),
    ("model", "Backbone.apply", "model.backbone"),
    ("branch", "extract_actf", "branch.extract_actf"),
    ("sketch", "compact_bilinear", "sketch.compact_bilinear"),
    ("attention", "temporal_weights", "attention.temporal_weights"),
    ("attention", "fuse_pair", "attention.fuse_pair"),
    ("train", "SgdOptimizer.step", "train.optimizer_step"),
    ("tensor", "Tape.backward", "tape.backward"),
    ("train", "fit", "train.fit"),
    ("train", "evaluate", "train.evaluate"),
    ("data", "generate", "data.generate"),
    ("model", "init_params", "model.init_params"),
    ("sketch", "make_plan", "sketch.make_plan"),
)

_MODULES = ("tensor", "sketch", "attention", "branch", "model", "train", "data", "check", "cli")


class Span:
    __slots__ = ("calls", "total", "self_time", "bwd_calls", "bwd")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.bwd_calls = 0
        self.bwd = 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.absent = []
        self.taped_records = 0
        self._stack = []          # one [span name, child seconds] per open span
        self._in_tape = False
        self._patches = []        # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn, on_bwd=False):
        stack, spans = self._stack, self.spans

        def wrapped(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                s = spans[name]
                if on_bwd:
                    s.bwd_calls += 1
                    s.bwd += dt
                else:
                    s.calls += 1
                    s.total += dt
                    s.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def _current_primitive(self):
        for name, _ in reversed(self._stack):
            if name.startswith("tensor."):
                return name
        return "tensor.other"

    def _wrap_apply_primitive(self, original):
        def apply_primitive(data, inputs, backward):
            op = self._current_primitive()
            out = original(data, inputs, self._timed(op, backward, on_bwd=True))
            if self._in_tape and out.requires_grad:
                self.taped_records += 1
            return out

        return apply_primitive

    def _wrap_forward(self, original):
        taped = self._timed("model.forward_taped", original)
        untaped = self._timed("model.forward", original)
        return lambda *a, **k: (taped if self._in_tape else untaped)(*a, **k)

    def _wrap_tape(self, tape_cls):
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        tracer = self

        def __enter__(tape):
            out = enter(tape)
            tracer._in_tape = True
            return out

        def __exit__(tape, *exc):
            tracer._in_tape = False
            return exit_(tape, *exc)

        self._set(tape_cls, "__enter__", __enter__)
        self._set(tape_cls, "__exit__", __exit__)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        """Rebind every `actf.<module>.<name>` that is `original` to `wrapped`."""
        for modname in _MODULES:
            mod = sys.modules.get(f"actf.{modname}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self):
        from actf import attention, branch, data, model, sketch, tensor, train

        self.absent = []
        mods = dict(tensor=tensor, sketch=sketch, attention=attention, branch=branch,
                    model=model, train=train, data=data)
        apply = getattr(tensor, "apply_primitive", None)
        if apply is None:
            self.absent.append("tensor.apply_primitive")
        else:
            self._replace_everywhere(apply, self._wrap_apply_primitive(apply))
        tape_cls = getattr(tensor, "Tape", None)
        if tape_cls is None:
            self.absent.append("tensor.Tape")
        else:
            self._wrap_tape(tape_cls)
        for op in PRIMITIVES:
            home = sketch if op == "count_sketch" else tensor
            fn = getattr(home, op, None)
            if fn is None:
                self.absent.append(f"tensor.{op}")
                continue
            self._replace_everywhere(fn, self._timed(f"tensor.{op}", fn))
        for modname, path, name in LAYERS:
            owner = mods[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            if name == "model.forward":
                wrapped = self._wrap_forward(fn)
            else:
                wrapped = self._timed(name, fn)
            if outer:
                self._set(owner, attr, wrapped)
            else:
                self._replace_everywhere(fn, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the body with the package's own functions, then trace again."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def reset(self):
        self.spans.clear()
        self.taped_records = 0
