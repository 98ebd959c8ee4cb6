"""Spans and work counters around flowam's public functions, from outside.

Nothing here edits the program: `Tracer.install` swaps each traced function
for a wrapper under every name a flowam module binds it to (modules import
`sample_batch`, `lean_adjoint_batch` and the losses by name), and
`uninstall` puts the originals back.  Spans are aggregated per name as they
close; a span's self time is its duration minus the durations of the spans
opened inside it.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np


def patch_everywhere(owner, attr, make_wrapper):
    """Replace `owner.attr` and every flowam module global bound to the same
    object with `make_wrapper(original)`; returns the undo list."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = make_wrapper(original)
    undo = [(owner, attr, original)]
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "flowam" or mod is owner:
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim == 2 else 1


class Tracer:
    """Per-name span totals plus the per-unit work counters of the trace."""

    def __init__(self):
        self.reset()
        self._undo = []

    def reset(self):
        self.calls = {}  # span name -> calls
        self.rows = {}  # span name -> rows processed
        self.self_s = {}  # span name -> summed self time
        self.counts = {"nnet.repeat_calls": 0, "adjoint.lean_adjoint_batch.steps": 0,
                       "nnet.time_embedding.distinct_times": 0}
        self._stack = []  # open spans: [name, start, child seconds]
        self.end_unit()

    def end_unit(self):
        """Forget what identifies repeated work; called between units."""
        self._seen_forwards = set()
        self._param_keys = {}
        self._times = set()

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, rows=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if before is not None:
                # the counters' own work is no layer's self time
                t0 = time.perf_counter()
                before(args, kwargs)
                if stack:
                    stack[-1][2] += time.perf_counter() - t0
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[2]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if rows is not None:
                    tracer.rows[name] = tracer.rows.get(name, 0) + rows(args, kwargs)
                if after is not None:
                    after()

        return wrapper

    def _wrap(self, owner, attr, name, rows=None, before=None, after=None):
        self._undo += patch_everywhere(
            owner, attr, lambda fn: self._span(name, fn, rows, before, after)
        )

    # -- counters ------------------------------------------------------------

    def _param_key(self, vf):
        arrays = (*vf.weights, *vf.biases)
        ident = tuple(id(a) for a in arrays)
        hit = self._param_keys.get(ident)
        if hit is None:
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            # keep the arrays alive so their ids stay unique within the unit
            hit = self._param_keys[ident] = (h.digest(), arrays)
        return hit[0]

    def _note_forward(self, args, kwargs):
        vf, x, t = args[0], args[1], args[2] if len(args) > 2 else kwargs.get("t")
        x = np.ascontiguousarray(x, dtype=np.float64)
        t = np.ascontiguousarray(t, dtype=np.float64)
        key = (self._param_key(vf), x.shape, x.tobytes(), t.shape, t.tobytes())
        if key in self._seen_forwards:
            self.counts["nnet.repeat_calls"] += 1
        else:
            self._seen_forwards.add(key)

    def _note_times(self, args, kwargs):
        new = set(np.unique(np.asarray(args[0], dtype=np.float64)).tolist())
        self.counts["nnet.time_embedding.distinct_times"] += len(new - self._times)
        self._times |= new

    def _note_backward(self, args, kwargs):
        if any(f[0] == "adjoint.lean_adjoint_batch" for f in self._stack):
            self.counts["adjoint.lean_adjoint_batch.steps"] += 1

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        from flowam import adjoint, checkpoint, config, control, dynamics, evaluation
        from flowam import nnet, tasks, train

        vf_cls = nnet.VelocityField
        x_rows = lambda a, k: _rows(a[1])
        self._wrap(vf_cls, "forward", "nnet.forward", x_rows, self._note_forward)
        self._wrap(vf_cls, "forward_tape", "nnet.forward_tape", x_rows,
                   self._note_forward)
        self._wrap(vf_cls, "input_vjp", "nnet.input_vjp")
        self._wrap(nnet.GradientTape, "backward", "nnet.backward",
                   before=self._note_backward)
        self._wrap(nnet, "time_embedding", "nnet.time_embedding",
                   before=self._note_times)
        self._wrap(dynamics, "sample_batch", "dynamics.sample_batch",
                   lambda a, k: int(a[2] if len(a) > 2 else k["m"]))
        self._wrap(dynamics, "sample_seed", "dynamics.sample_seed")
        self._wrap(adjoint, "lean_adjoint_batch", "adjoint.lean_adjoint_batch")
        for loss in ("am_det_loss_and_grad", "am_sde_loss_and_grad",
                     "draft_loss_and_grad", "refl_loss_and_grad"):
            self._wrap(control, loss, "control.loss_and_grad")
        self._wrap(control, "control_from_adjoint", "control.control_from_adjoint")
        for cls in set(tasks.REWARDS.values()):
            self._wrap(cls, "value", "tasks.reward_value")
            self._wrap(cls, "grad", "tasks.reward_grad")
        for cls in (tasks.Gaussian1D, tasks.GaussianMixture2D):
            self._wrap(cls, "sample", "tasks.dist_sample")
        # an optimizer step ends a training unit (one iteration)
        self._wrap(train, "optimizer_step", "train.optimizer_step",
                   after=self.end_unit)
        self._wrap(evaluation, "diversity_mpd", "evaluation.diversity_mpd")
        self._wrap(evaluation, "energy_distance", "evaluation.distance")
        self._wrap(evaluation, "wasserstein1_1d", "evaluation.distance")
        self._wrap(evaluation, "knn_coverage_recall", "evaluation.knn_coverage_recall")
        self._wrap(checkpoint, "save", "checkpoint.save")
        self._wrap(checkpoint, "load", "checkpoint.load")
        self._wrap(config, "parse_config", "config.parse_config")

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    # -- report --------------------------------------------------------------

    def per_unit(self, units: int) -> dict:
        """Every per-layer counter and self time, divided by `units`."""
        out = {}
        for name in UNIT_SPANS:
            for what in UNIT_SPANS[name]:
                if what == "self_ms":
                    out[f"{name}.self_ms"] = 1e3 * self.self_s.get(name, 0.0) / units
                else:
                    src = self.calls if what == "calls" else self.rows
                    out[f"{name}.{what}"] = src.get(name, 0) / units
        for name, value in self.counts.items():
            out[name] = value / units
        return out

    def setup_self_ms(self) -> dict:
        return {f"{name}.self_ms": 1e3 * self.self_s.get(name, 0.0)
                for name in SETUP_SPANS}


# span name -> what the per-unit report gives for it
UNIT_SPANS = {
    "nnet.forward": ("calls", "rows", "self_ms"),
    "nnet.forward_tape": ("calls", "rows", "self_ms"),
    "nnet.backward": ("calls", "self_ms"),
    "nnet.input_vjp": ("calls", "self_ms"),
    "nnet.time_embedding": ("calls", "self_ms"),
    "dynamics.sample_batch": ("calls", "rows", "self_ms"),
    "dynamics.sample_seed": ("calls", "self_ms"),
    "adjoint.lean_adjoint_batch": ("self_ms",),
    "control.loss_and_grad": ("self_ms",),
    "control.control_from_adjoint": ("self_ms",),
    "tasks.reward_value": ("calls", "self_ms"),
    "tasks.reward_grad": ("calls", "self_ms"),
    "tasks.dist_sample": ("self_ms",),
    "train.optimizer_step": ("calls", "self_ms"),
    "evaluation.diversity_mpd": ("self_ms",),
    "evaluation.distance": ("self_ms",),
    "evaluation.knn_coverage_recall": ("self_ms",),
}

# spans reported as totals over one set-up, not per unit
SETUP_SPANS = ("checkpoint.save", "checkpoint.load", "config.parse_config")
