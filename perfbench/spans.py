"""Layer timing from outside the program: spans around calls into ghznet.

``Tracer.installed()`` replaces each public entry point listed in
``LAYERS`` with a wrapper, everywhere a ghznet module holds a reference to
it (``optimizer`` imports ``execute`` and ``compile_plan`` by name, so
patching only the defining module would miss those calls).  Methods of
``HamiltonianPropagator`` are patched on the class.

A wrapped call records a span only inside an operation opened with
``Tracer.operation()``, so output checks made between operations are not
counted.  Spans are folded into per-layer totals as they close and stay in
memory until ``Tracer.metrics()`` reads them at the end of a pass:

* inclusive time, the span's duration;
* self time, the duration minus the time covered by spans opened inside it;
* call count.

Self times of all layers plus the operations' own self time add up to the
traced wall time, so no interval is counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from ghznet import cli, couplings, dense, optimizer, protocol, symmetric

MODULES = (couplings, dense, symmetric, protocol, optimizer, cli)

# layer name -> functions whose calls are attributed to that layer
LAYERS = {
    "couplings.to_sparse": [couplings.to_sparse],
    "protocol.compile_plan": [protocol.compile_plan],
    "protocol.execute": [protocol.execute, protocol.execute_symmetric],
    "dense.rotation": [dense.apply_rotation, dense.apply_collective_rotation],
    "dense.fidelity": [dense.fidelity_frobenius],
    "symmetric.collective_rotation": [symmetric.collective_rotation],
    "symmetric.entangle_phases": [symmetric.entangle_phases],
    "symmetric.embed": [symmetric.embed],
    "optimizer.objective": [optimizer.objective],
    "optimizer.optimize": [optimizer.optimize],
    "cli.main": [cli.main],
}
METHOD_LAYERS = {
    "protocol.propagator_build": (protocol.HamiltonianPropagator, "__init__"),
    "protocol.propagate": (protocol.HamiltonianPropagator, "propagate"),
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        # time covered by child spans, one entry per open span (root first)
        self._open: list[float] = []
        # (fun, nfev) of each Nelder-Mead start inside the open optimize call
        self._starts: list[tuple[float, int]] = []
        self.optimize_evals = 0
        self.start_evals = 0
        self.best_start_evals = 0

    def _span(self, name: str, fn):
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not open_spans:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur - open_spans.pop()
                self.incl_s[name] += dur
                self.calls[name] += 1
                open_spans[-1] += dur

        return wrapper

    def _optimize(self, fn):
        """Span around ``optimize`` that also credits the winning start."""
        spanned = self._span("optimizer.optimize", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            self._starts = []
            result = spanned(*args, **kwargs)
            self.optimize_evals += result.objective_evaluations
            if self._starts:
                funs = [f for f, _ in self._starts]
                # optimize keeps the first start with the lowest objective
                winner = funs.index(min(funs))
                self.start_evals += sum(n for _, n in self._starts)
                self.best_start_evals += self._starts[winner][1]
            return result

        return wrapper

    def _minimize(self, fn):
        """Record each start's result; not a span, so Nelder-Mead's own
        bookkeeping stays in the optimize span's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self._open:
                self._starts.append((float(res.fun), int(res.nfev)))
            return res

        return wrapper

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation; wrapped calls inside it count."""
        self._open.append(0.0)
        try:
            yield
        finally:
            self._open.pop()

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        replacements = {}
        for name, fns in LAYERS.items():
            for fn in fns:
                if fn is optimizer.optimize:
                    replacements[fn] = self._optimize(fn)
                else:
                    replacements[fn] = self._span(name, fn)
        replacements[optimizer.minimize] = self._minimize(optimizer.minimize)
        undo = []
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(value) if callable(value) else None
                if wrapper is not None:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for name, (cls, attr) in METHOD_LAYERS.items():
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        s, c = self.self_s, self.calls
        return {
            "couplings.to_sparse_s": s["couplings.to_sparse"],
            "couplings.to_sparse_calls": c["couplings.to_sparse"],
            "protocol.propagator_build_s": s["protocol.propagator_build"],
            "protocol.propagator_build_calls": c["protocol.propagator_build"],
            "protocol.propagate_s": s["protocol.propagate"],
            "protocol.propagate_calls": c["protocol.propagate"],
            "protocol.compile_plan_s": s["protocol.compile_plan"],
            "protocol.compile_plan_calls": c["protocol.compile_plan"],
            "protocol.execute_s": s["protocol.execute"],
            "dense.rotation_s": s["dense.rotation"],
            "dense.rotation_calls": c["dense.rotation"],
            "dense.fidelity_s": s["dense.fidelity"],
            "symmetric.collective_rotation_s": s["symmetric.collective_rotation"],
            "symmetric.collective_rotation_calls": c["symmetric.collective_rotation"],
            "symmetric.entangle_phases_s": s["symmetric.entangle_phases"],
            "symmetric.embed_s": s["symmetric.embed"],
            "optimizer.objective_calls": c["optimizer.objective"],
            "optimizer.objective_s": s["optimizer.objective"],
            "optimizer.objective_us": (
                1e6 * self.incl_s["optimizer.objective"] / c["optimizer.objective"]
                if c["optimizer.objective"] else 0.0
            ),
            "optimizer.evals_per_optimize": (
                self.optimize_evals / c["optimizer.optimize"]
                if c["optimizer.optimize"] else 0.0
            ),
            "optimizer.search_s": s["optimizer.optimize"],
            "optimizer.best_start_evals_frac": (
                self.best_start_evals / self.start_evals if self.start_evals else 0.0
            ),
            "cli.main_s": s["cli.main"],
        }
