"""Span tracing from outside the program.

`Tracer.install` replaces public functions of `rampsched` with timing
wrappers.  Every wrapper sits on the name the caller looks up: modules
import each other by name, so `scheduler.branch_and_bound` and
`milp.branch_and_bound` are two separate slots, and only the first one is
used by the scheduler.  Spans (name, start, end, parent) stay in memory
until `dump` writes them; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from rampsched import envelope, milp, process, scheduler, transform

# (module, attribute the caller looks up, span name)
TARGETS = (
    (transform, "fit_operating_strategy", "transform.fit_operating_strategy"),
    (transform, "steady_state_point", "transform.steady_state_point"),
    (transform, "q1_affine_in_nu", "transform.q1_affine_in_nu"),
    (transform, "backtransform", "transform.backtransform"),
    (envelope, "q1_affine_in_nu", "transform.q1_affine_in_nu"),
    (envelope, "backtransform", "transform.backtransform"),
    (envelope, "derive_envelope", "envelope.derive_envelope"),
    (envelope, "fit_rho_dot_limits", "envelope.fit_rho_dot_limits"),
    (envelope, "fit_nu_pwa", "envelope.fit_nu_pwa"),
    (envelope, "fit_demand_pwa", "envelope.fit_demand_pwa"),
    (scheduler, "solve_schedule", "scheduler.solve_schedule"),
    (scheduler, "solve_ramp", "scheduler.solve_ramp"),
    (scheduler, "assemble_problem", "scheduler.assemble_problem"),
    (scheduler, "ramp_problem", "scheduler.ramp_problem"),
    (scheduler, "extract_result", "scheduler.extract_result"),
    (scheduler, "branch_and_bound", "milp.branch_and_bound"),
    (milp, "simplex_solve", "milp.simplex_solve"),
    (milp, "check_solution", "milp.check_solution"),
    (process, "simulate", "process.simulate"),
    (process, "check_bounds", "process.check_bounds"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "ok", "result")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ok = True
        self.result = None


class Tracer:
    """Collects spans for the wrapped functions and for benchmark phases."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Record a benchmark phase as a span."""
        idx = self.open(name)
        try:
            yield idx
        except BaseException:
            self.spans[idx].ok = False
            raise
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].ok = False
                raise
            finally:
                self.close(idx)
            if name == "milp.check_solution":
                self.spans[idx].result = not out              # accepted
            elif name == "milp.branch_and_bound":
                self.spans[idx].result = dict(time_limit=kwargs.get(
                    "time_limit", args[2] if len(args) > 2 else None))
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @staticmethod
    def wrapper_cost_s(calls: int = 20000, reps: int = 5) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against the
        bare one, the least difference over `reps` batches of `calls`."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        best = float("inf")
        for _ in range(reps):
            probe.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, (t2 - t1) - (t1 - t0))
        return max(best, 0.0) / calls

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the part of it its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def within(self, root: int) -> list[int]:
        """Indices of the spans below `root` (spans nest in index order)."""
        end = root + 1
        while end < len(self.spans) and self._under(end, root):
            end += 1
        return list(range(root + 1, end))

    def _under(self, idx: int, root: int) -> bool:
        while idx > root:
            idx = self.spans[idx].parent
        return idx == root

    def summary(self, indices) -> dict[str, dict]:
        """Per span name: calls, failures, inclusive and self seconds."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for i in indices:
            s = self.spans[i]
            row = out.setdefault(s.name, dict(calls=0, errors=0, s=0.0, self_s=0.0))
            row["calls"] += 1
            row["errors"] += 0 if s.ok else 1
            row["s"] += s.end - s.start
            row["self_s"] += own[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, ok."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, round(s.start - t0, 7),
                                     round(s.end - t0, 7), s.parent, s.ok]))
                fh.write("\n")

