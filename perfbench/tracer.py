"""Span recorder for the traced pass, installed by patching names in the caller's namespace.

Each wrapped call records one span: name, start, end, parent span and the id
of the instance being worked on (the count of ``DlogInstance`` objects the
harness has built so far).  Calls that return an answer also keep their
arguments and result, from which ``finish`` builds a call table (instance,
mode, tolerance, k, reason, the four counters) for the output check and the
per-layer metrics.  Recording appends one tuple per span and leaves all
decoding to ``finish``, to keep the traced pass close to the untraced one.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (namespace, attribute, span name, kind).  ``bench`` binds the solvers, the
# oracles and ``DlogInstance`` at import; ``bsgs_solve`` reaches
# ``naive_solve`` and ``multiplicative_order`` through ``arcrotor.oracles``.
PATCHES = (
    ("bench", "run_sweep", "bench.run_sweep", "plain"),
    ("bench", "precision_scan", "bench.precision_scan", "plain"),
    ("bench", "verify_equivalence", "bench.verify_equivalence", "plain"),
    ("bench", "emit_results", "bench.emit_results", "emit"),
    ("bench", "fit_complexity", "bench.fit_complexity", "plain"),
    ("bench", "generate_instance", "bench.generate_instance", "plain"),
    ("bench", "least_k", "bench.least_k", "oracle"),
    ("bench", "DlogInstance", "rotor.DlogInstance", "inst"),
    ("bench", "rotor_solve_int", "rotor.rotor_solve_int", "rotor_int"),
    ("bench", "rotor_solve_real", "rotor.rotor_solve_real", "rotor_real"),
    ("bench", "naive_solve", "oracles.naive_solve", "oracle"),
    ("bench", "bsgs_solve", "oracles.bsgs_solve", "oracle"),
    ("oracles", "naive_solve", "oracles.naive_solve", "oracle"),
    ("oracles", "multiplicative_order", "oracles.multiplicative_order", "order"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))
CALL_KINDS = ("rotor_int", "rotor_real", "oracle", "order")

# Call-table codes.  Modes: -1 none, 0 exact, 1 float64, b >= 8 fixed:b.
NO_MODE, EXACT, FLOAT64 = -1, 0, 1
FOUND, CYCLE, EXHAUSTED, NO_REASON = 0, 1, 2, -1
REASONS = {"Found": FOUND, "CycleDetected": CYCLE, "ExhaustedIterations": EXHAUSTED}
NONE_K = -1


def mode_code(mode) -> int:
    if mode.kind == "exact":
        return EXACT
    if mode.kind == "float64":
        return FLOAT64
    return mode.fractional_bits


class Tracer:
    """Spans and answered calls of one traced pass."""

    def __init__(self) -> None:
        self._rows: list[tuple] = []  # (span index, name, parent index, instance, t0, t1)
        self._calls: list[tuple] = []  # (span index, kind, args, kwargs, result)
        self._stack = [-1]
        self._state = [0, -1]  # next span index, current instance id
        self.emit_bytes = 0
        self.spans: dict[str, np.ndarray] = {}
        self.calls: dict[str, np.ndarray] = {}

    def _wrap(self, fn, name_idx: int, kind: str):
        rows, calls, stack, state = self._rows, self._calls, self._stack, self._state
        kind_idx = CALL_KINDS.index(kind) if kind in CALL_KINDS else None
        new_instance, emits = kind == "inst", kind == "emit"

        def wrapper(*args, **kwargs):
            i = state[0]
            state[0] = i + 1
            if new_instance:
                state[1] += 1
            parent = stack[-1]
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            # The instance id is read at exit, so a generator owns what it built.
            rows.append((i, name_idx, parent, state[1], t0, t1))
            if kind_idx is not None:
                calls.append((i, kind_idx, args, kwargs, out))
            elif emits:
                self.emit_bytes += os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])
            return out

        return wrapper

    @contextmanager
    def installed(self, arcrotor_modules: dict):
        """Patch every name in ``PATCHES`` that exists; restore on exit."""
        done = []
        try:
            for ns, attr, name, kind in PATCHES:
                module = arcrotor_modules[ns]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(fn, SPAN_NAMES.index(name), kind))
                done.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(done):
                setattr(module, attr, fn)

    def finish(self, default_mode) -> None:
        """Decode the recorded spans and calls into numpy columns; drop the raw records.

        ``default_mode`` is the mode ``rotor_solve_real`` uses when none is passed.
        """
        rows = sorted(self._rows)
        position = np.full(self._state[0] + 1, -1, dtype=np.int64)  # index -1 maps to -1
        cols = np.array(rows, dtype=np.int64).reshape(-1, 6).T
        position[cols[0]] = np.arange(len(rows))
        self.spans = {
            "name": cols[1].astype(np.uint8),
            "parent": position[cols[2]],
            "instance": cols[3],
            "t0": cols[4],
            "t1": cols[5],
        }
        decoded = [self._decode(*call, default_mode) for call in self._calls]
        ints = np.array([d[:-1] for d in decoded], dtype=np.int64).reshape(-1, 12).T
        self.calls = dict(zip(("span", "kind", "p", "x", "y", "mode", "k", "reason",
                               "additions", "subtractions", "comparisons", "outer_steps"), ints))
        self.calls["span"] = position[self.calls["span"]]
        self.calls["tol"] = np.array([d[-1] for d in decoded], dtype=float)
        self._rows, self._calls = [], []

    @staticmethod
    def _decode(span, kind_idx, args, kwargs, out, default_mode) -> tuple:
        kind = CALL_KINDS[kind_idx]
        if kind == "order":
            (x, p), y = args[:2], 0
        else:
            inst = args[0] if args else kwargs["inst"]
            p, x, y = inst.p, inst.x, inst.y
        mode, tol = NO_MODE, math.nan
        if kind == "rotor_int":
            mode = EXACT
        elif kind == "rotor_real":
            mode = mode_code(args[1] if len(args) > 1 else kwargs.get("mode", default_mode))
            t = args[2] if len(args) > 2 else kwargs.get("tolerance")
            tol = math.nan if t is None else float(t)
        if kind in ("rotor_int", "rotor_real"):
            c = out.counters
            k = NONE_K if out.k is None else out.k
            tail = (REASONS.get(out.reason.value, 9), c.additions, c.subtractions,
                    c.comparisons, c.outer_steps)
        else:
            k = NONE_K if out is None else out
            tail = (NO_REASON, 0, 0, 0, 0)
        return (span, kind_idx, p, x, y, mode, k, *tail, tol)

    def rows_of(self, kind: str) -> np.ndarray:
        """Row indices of the call table that belong to ``kind``."""
        return np.flatnonzero(self.calls["kind"] == CALL_KINDS.index(kind))

    def write(self, path) -> None:
        """Write both tables and the span names to an ``.npz`` file."""
        np.savez(path, span_names=np.array(SPAN_NAMES),
                 **{f"span_{k}": v for k, v in self.spans.items()},
                 **{f"call_{k}": v for k, v in self.calls.items()})
