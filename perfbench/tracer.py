"""Span tracing of weakinv from outside the package.

``Tracer.install`` wraps the public functions the benchmark reports on. A
function imported elsewhere with ``from ... import`` is replaced in every
``weakinv`` module that holds it, and methods are replaced on their class,
so every call site records a span. Spans are kept in memory as
``[name, start_ns, end_ns, parent]`` and written out by ``write``;
``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) for functions, or (module, class, method).
# Names sharing a span name are counted together.
TARGETS = {
    "cli.RunSetup": [("weakinv.cli", "RunSetup", "__init__")],
    "scenarios.build_scenario": [("weakinv.scenarios", "build_scenario")],
    "model.validate": [("weakinv.model", "LindbladModel", "validate")],
    "model.snapshot": [("weakinv.model", "LindbladModel", "snapshot")],
    "superop.apply": [("weakinv.superop", "apply_liouvillian"),
                      ("weakinv.superop", "apply_adjoint")],
    "linalg.hermitian_eigenvalues": [("weakinv.linalg", "hermitian_eigenvalues")],
    "linalg.require_hermitian": [("weakinv.linalg", "require_hermitian")],
    "dynamics.integrate_state": [("weakinv.dynamics", "integrate_state")],
    "dynamics.integrate_invariant": [("weakinv.dynamics", "integrate_invariant")],
    "dynamics.conservation_series": [("weakinv.dynamics", "conservation_series")],
    "dynamics.write_trajectory_csv": [("weakinv.dynamics", "write_trajectory_csv")],
    "invariant.spectrum_series": [("weakinv.invariant", "spectrum_series")],
    "invariant.analyze": [("weakinv.invariant", "analyze")],
    "invariant.write_csv": [("weakinv.invariant", "write_expectation_csv"),
                            ("weakinv.invariant", "write_spectrum_csv")],
    "action.DiscretizedPath": [("weakinv.action", "DiscretizedPath", "__init__")],
    "action.evaluate_action": [("weakinv.action", "evaluate_action")],
    "action.grad_rho": [("weakinv.action", "grad_rho")],
    "action.grad_lam": [("weakinv.action", "grad_lam")],
    "action.gauge_shift_check": [("weakinv.action", "gauge_shift_check")],
}

VERIFY_SUITES = (
    "pairing", "shift", "adjoint_of_identity", "trace_preservation",
    "hermiticity_propagation", "unitary_limit", "liouvillian_matrix",
    "eigensolver_invariance", "conservation", "gauge_exactness",
)
TARGETS.update({f"verify.{s}": [("weakinv.verify", f"check_{s}")] for s in VERIFY_SUITES})

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []
        self.missing: list = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "weakinv"]
        for name, targets in TARGETS.items():
            for target in targets:
                owner = sys.modules.get(target[0])
                if len(target) == 3:
                    owner = getattr(owner, target[1], None)
                attr = target[-1]
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(".".join(target))
                    continue
                wrapper = self.span(name, original)
                if len(target) == 3:
                    self._replace(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: summed self time in seconds and call count.

        Self time is a span's duration minus the durations of its children,
        so the self times of a tree sum exactly to its root's duration.
        """
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, start, end, _), c in zip(self.spans, child):
            seconds[name] += (end - start - c) * 1e-9
            calls[name] += 1
        return dict(seconds), dict(calls)

    def write(self, path, label: str) -> None:
        """Append the spans as CSV rows: label, index, parent, name, start_ns, end_ns."""
        with open(path, "a") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{label},{i},{parent},{name},{start},{end}\n")
