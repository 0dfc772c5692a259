"""Spans and counts around the package's public functions, wrapped from outside.

The tracer replaces module attributes (the names the pipeline and CLI call
through) with timing wrappers for the length of one traced pass, then puts
the originals back.  Nothing in ``src/`` is edited.  Spans are kept in
memory and written out once, when the run ends.

Span fields: ``span_id``, ``parent``, ``run_id``, ``name``, ``start``,
``end`` (seconds from the tracer's start), plus per-solve fields on the
action spans, named as the per-solve record will be: ``source``, ``target``,
``horizon``, ``converged``, ``failed_segments``, ``dual_iterations``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np

import quasipot.action
import quasipot.cli
import quasipot.models
import quasipot.pipeline

#: (module, attribute) pairs timed as plain spans, and the span name used.
_TIMED = (
    (quasipot.cli, "parse_problem_spec", "pipeline.parse"),
    (quasipot.cli, "dump_json", "pipeline.write"),
    (quasipot.cli, "write_csv", "pipeline.write"),
    (quasipot.cli, "run_rates", "pipeline.run_rates"),
    (quasipot.cli, "run_validate", "pipeline.run_validate"),
    (quasipot.cli, "run_linear", "pipeline.run_linear"),
    (quasipot.pipeline, "run_rates", "pipeline.run_rates"),
    (quasipot.pipeline, "find_equilibria", "attractors.find_equilibria"),
    (quasipot.pipeline, "shortest_path_closure", "maxplus.shortest_path_closure"),
    (quasipot.pipeline, "max_balance_residual", "maxplus.max_balance_residual"),
    (quasipot.pipeline, "evaluate_rate", "maxplus.evaluate_rate"),
    (quasipot.pipeline, "stationary_rates", "trees.stationary_rates"),
    (quasipot.pipeline, "empirical_rate", "simulate.empirical_rate"),
    (quasipot.pipeline, "validation_report", "simulate.validation_report"),
    (quasipot.pipeline, "lyapunov_gramian", "linear.lyapunov_gramian"),
    (quasipot.pipeline, "finite_horizon_gramian", "linear.finite_horizon_gramian"),
    (quasipot.pipeline, "finite_horizon_path", "linear.finite_horizon_path"),
    (quasipot.pipeline, "escape_profile_limit", "linear.escape_profile_limit"),
    (quasipot.pipeline, "quadratic_rate", "linear.quadratic_rate"),
)

#: ``LocalModel`` methods whose calls are counted (no spans: they run per step).
_COUNTED = ("drift_at", "diffusion_at", "jump_values")


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        self._counts = {name: itertools.count() for name in _COUNTED}
        self.stable_attractors = 0
        # winning (model, path) of every quasipotential, for path_action timing
        self.winners: list[tuple[object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {
            "span_id": next(self._ids),
            "parent": stack[-1] if stack else self._root,
            "run_id": self.run_id,
            "name": name,
            "start": time.perf_counter() - self._t0,
            **attrs,
        }
        stack.append(record["span_id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self._t0
            self.spans.append(record)

    @contextlib.contextmanager
    def command(self, run_id: str, command: str):
        """Root span of one CLI invocation; worker-thread spans hang under it."""
        self.run_id = run_id
        with self.span(f"cli.{command}") as record:
            self._root = record["span_id"]
            try:
                yield
            finally:
                self._root = None

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _stable(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("attractors.stable_attractors"):
                out = fn(*args, **kwargs)
            self.stable_attractors = max(self.stable_attractors, len(out))
            return out

        return wrapper

    def _simulate(self, fn):
        def wrapper(model, config):
            with self.span("simulate.simulate", steps=config.num_steps):
                return fn(model, config)

        return wrapper

    def _quasipotential(self, fn):
        def wrapper(model, attractor, target, *args, **kwargs):
            source = [float(v) for v in np.asarray(attractor, dtype=float)]
            goal = [float(v) for v in np.asarray(target, dtype=float)]
            children: list[tuple[dict, object, object]] = []
            outer = getattr(self._local, "children", None)
            self._local.children = children
            try:
                with self.span("action.quasipotential", source=source, target=goal) as record:
                    out = fn(model, attractor, target, *args, **kwargs)
            finally:
                self._local.children = outer
            if children:
                won = next((c for c in children if c[1] is out), None)
                if won is None:  # value capped to infinity: the smallest one won
                    won = min(children, key=lambda c: c[1].value)
                won[0]["winner"] = True
                record["horizon"] = won[0]["horizon"]
                self.winners.append((model, won[2]))
            record.update(
                value=out.value,
                converged=out.converged,
                failed_segments=len(out.failed_segments),
                dual_iterations=out.dual_iterations,
            )
            return out

        return wrapper

    def _minimize(self, fn):
        def wrapper(model, x0, x1, horizon, *args, **kwargs):
            with self.span("action.minimize_action", horizon=float(horizon)) as record:
                path, info = fn(model, x0, x1, horizon, *args, **kwargs)
            record.update(
                value=info.value,
                converged=info.converged,
                failed_segments=len(info.failed_segments),
                dual_iterations=info.dual_iterations,
                winner=False,
            )
            children = getattr(self._local, "children", None)
            if children is not None:
                children.append((record, info, path))
            return path, info

        return wrapper

    def _counted(self, name: str, fn):
        counter = self._counts[name]

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        patches = [(mod, attr, self._timed(name, getattr(mod, attr))) for mod, attr, name in _TIMED]
        patches += [
            (quasipot.pipeline, "stable_attractors", self._stable(quasipot.pipeline.stable_attractors)),
            (quasipot.pipeline, "simulate", self._simulate(quasipot.pipeline.simulate)),
            (quasipot.pipeline, "quasipotential", self._quasipotential(quasipot.pipeline.quasipotential)),
            (quasipot.action, "minimize_action", self._minimize(quasipot.action.minimize_action)),
        ]
        patches += [
            (quasipot.models.LocalModel, name, self._counted(name, getattr(quasipot.models.LocalModel, name)))
            for name in _COUNTED
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(originals):
                setattr(obj, attr, original)

    def counts(self) -> dict[str, int]:
        """Calls counted per model method (reading consumes one tick each)."""
        return {name: next(counter) for name, counter in self._counts.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(sorted(self.spans, key=lambda s: s["span_id"])))


def _total(spans: list[dict]) -> float:
    return float(sum(s["end"] - s["start"] for s in spans))


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    Re-runs ``path_action`` on every winning path to time the dual solve
    through a public function; that happens here, after the traced pass.
    """
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    qp = named("action.quasipotential")
    qp_times = np.array([s["end"] - s["start"] for s in qp]) if qp else np.zeros(1)
    minimize = named("action.minimize_action")
    minimize_s = _total(minimize)
    winning_s = _total([s for s in minimize if s.get("winner")])

    phase = 0.0
    for run_id in {s["run_id"] for s in qp}:
        own = [s for s in qp if s["run_id"] == run_id]
        phase += max(s["end"] for s in own) - min(s["start"] for s in own)

    segments = 0
    start = time.perf_counter()
    for model, path in tracer.winners:
        quasipot.action.path_action(model, path)
        segments += path.num_segments
    path_action_s = time.perf_counter() - start

    sims = named("simulate.simulate")
    steps = sum(s["steps"] for s in sims)
    simulate_s = _total(sims)
    linear_s = sum((_total(named(n)) for n in by_name if n.startswith("linear.")), 0.0)
    counts = tracer.counts()

    return {
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "pipeline.parse_s": (_total(named("pipeline.parse")), "s"),
        "pipeline.write_s": (_total(named("pipeline.write")), "s"),
        "pipeline.parallelism": (ratio(_total(qp), phase), "ratio"),
        "attractors.find_s": (_total(named("attractors.find_equilibria")), "s"),
        "attractors.count": (tracer.stable_attractors, "count"),
        "action.share": (ratio(_total(qp), traced_wall), "ratio"),
        "action.qp.calls": (len(qp), "count"),
        "action.qp.s": (_total(qp), "s"),
        "action.qp.p50_s": (float(np.median(qp_times)), "s"),
        "action.qp.max_s": (float(qp_times.max()), "s"),
        "action.minimize.calls": (len(minimize), "count"),
        "action.minimize.s": (minimize_s, "s"),
        "action.horizons_per_solve": (ratio(len(minimize), len(qp)), "ratio"),
        "action.useful_frac": (ratio(winning_s, minimize_s), "ratio"),
        "action.unconverged": (sum(not s["converged"] for s in qp), "count"),
        "action.failed_segments": (sum(s["failed_segments"] for s in qp), "count"),
        "action.dual_iters_max": (max((s["dual_iterations"] for s in qp), default=0), "count"),
        "action.path_action_us_per_segment": (ratio(1e6 * path_action_s, segments), "us"),
        "maxplus.closure_s": (_total(named("maxplus.shortest_path_closure")), "s"),
        "maxplus.balance_s": (_total(named("maxplus.max_balance_residual")), "s"),
        "maxplus.evaluate_rate.calls": (len(named("maxplus.evaluate_rate")), "count"),
        "trees.stationary_rates_s": (_total(named("trees.stationary_rates")), "s"),
        "simulate.share": (ratio(simulate_s, traced_wall), "ratio"),
        "simulate.s": (simulate_s, "s"),
        "simulate.steps": (steps, "count"),
        "simulate.us_per_step": (ratio(1e6 * simulate_s, steps), "us"),
        "simulate.empirical_rate_s": (_total(named("simulate.empirical_rate")), "s"),
        "simulate.validation_report_s": (_total(named("simulate.validation_report")), "s"),
        "models.drift_calls": (counts["drift_at"], "count"),
        "models.diffusion_calls": (counts["diffusion_at"], "count"),
        "models.jump_calls": (counts["jump_values"], "count"),
        "linear.s": (linear_s, "s"),
    }
