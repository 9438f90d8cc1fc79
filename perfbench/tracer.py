"""Span tracer that wraps fwsd's public callables from outside the package.

Each hook replaces one attribute (a module-level name where callers look it
up, or a method on a class) with a wrapper that records a span: its
duration and the part of that duration covered by child spans. A span's self
time is its duration minus its children's. Spans are aggregated by name in
memory; nothing is written while a run is being timed.

`Tracer.installed` patches every hook and restores the original attributes
on exit, also when the traced code raises. Hooks whose target does not exist
in the checked-out package are skipped and listed in `Tracer.missing`, so
the benchmark keeps running on a refactored package and the gap is visible.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, class or None, attribute, span name). A name imported into
# another module is patched where the caller looks it up: `fwsd.cli.run`
# is what the CLI calls, `fwsd.optimizer.lmo` is what the Frank-Wolfe step
# calls, `fwsd.geometry.lmo` is what `away_direction` calls.
HOOKS = (
    ("fwsd.cli", None, "main", "cli.main"),
    ("fwsd.cli", None, "write_trace_csv", "cli.write_trace_csv"),
    ("fwsd.cli", None, "save_net_checkpoint", "cli.save_checkpoint"),
    ("fwsd.cli", None, "save_checkpoint", "cli.save_checkpoint"),
    ("fwsd.cli", None, "run", "optimizer.run"),
    ("fwsd.cli", None, "evaluate", "sparse_net.evaluate"),
    ("fwsd.cli", None, "hard_threshold", "sparse_net.hard_threshold"),
    ("fwsd.cli", None, "load_dataset_bin", "sparse_net.load_dataset_bin"),
    ("fwsd.sparse_net", "MLPProblem", "gradient_mean", "sparse_net.gradient_mean"),
    ("fwsd.sparse_net", "MLPProblem", "objective_estimate", "sparse_net.objective_estimate"),
    ("fwsd.sparse_net", "MLPProblem", "draw", "sparse_net.draw"),
    ("fwsd.sparse_net", "ParamLayout", "pack", "sparse_net.layout_pack"),
    ("fwsd.sparse_net", "ParamLayout", "unpack", "sparse_net.layout_unpack"),
    ("fwsd", None, "make_quadratic", "problems.make_quadratic"),
    ("fwsd.problems", "QuadraticInstance", "gradient_at", "problems.gradient_at"),
    ("fwsd.problems", "QuadraticInstance", "objective_estimate", "problems.objective_estimate"),
    ("fwsd.problems", "QuadraticInstance", "draw", "problems.draw"),
    ("fwsd", None, "run", "optimizer.run"),
    ("fwsd.optimizer", None, "_mean_gradient", "optimizer.gradient_batch"),
    ("fwsd.optimizer", None, "fw_step", "optimizer.fw_step"),
    ("fwsd.optimizer", None, "sd_step", "optimizer.sd_step"),
    ("fwsd.optimizer", None, "alt_step", "optimizer.alt_step"),
    ("fwsd.optimizer", None, "dual_norm", "gap.dual_norm"),
    ("fwsd.optimizer", None, "lmo", "geometry.lmo"),
    ("fwsd.geometry", None, "lmo", "geometry.lmo"),
    ("fwsd.optimizer", None, "away_direction", "geometry.away_direction"),
    ("fwsd.optimizer", None, "in_face_step_cap", "geometry.in_face_step_cap"),
    ("fwsd.geometry", None, "minimal_face", "geometry.minimal_face"),
    ("fwsd.geometry", None, "in_face_lmo", "geometry.in_face_lmo"),
)

class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("total_s", "self_s", "calls")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    """Records nested spans; `observers` see each call's inputs and output.

    An observer runs after its span has closed, so its own cost is not
    charged to the observed layer. It should only keep references; any
    analysis belongs after the timed step.
    """

    def __init__(self, observers=None) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._observers = dict(observers or {})
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        observer = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = SpanStats()
                stats.total_s += duration
                stats.self_s += duration - children[0]
                stats.calls += 1
            if observer is not None:
                observer(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, hooks=HOOKS):
        """Patch every hook that exists; restore all of them on exit."""
        patched = []
        self.missing = []
        try:
            for module_name, class_name, attr, span in hooks:
                owner = _resolve(module_name, class_name)
                if owner is None or attr not in vars(owner):
                    self.missing.append(".".join(p for p in (module_name, class_name, attr) if p))
                    continue
                original = vars(owner)[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def _resolve(module_name: str, class_name: str | None):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name is None:
        return module
    return vars(module).get(class_name)
