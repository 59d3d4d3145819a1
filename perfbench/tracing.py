"""Span tracing of modeswitch's layers, installed from outside the package.

Tracer.install() replaces every public module-level function of the
layer modules with a timing wrapper, in every modeswitch module that
binds it (so `from .dynamics import propagate` in cli is covered too),
and uninstall() puts the originals back.  Each call becomes a span with
a name, start, end, parent and the request it belongs to.  Spans are
kept in memory up to SPAN_CAP and written out at the end; the
per-function counts and self times are accumulated for every span,
kept or not.  Self time is a span's duration minus its traced
children's durations.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

LAYERS = ("dynamics", "geometry", "twostep", "planner", "oracle", "isolator", "render", "cli", "verify")
# Per-float formatter, called once per CSV cell; a span around it would
# cost more than the work and hide serialization from write_csv's self time.
UNTRACED = {"cli.fmt17"}
SPAN_CAP = 50_000

BATTERY_CHECKS = (
    "segment_unitarity", "norm_conservation", "segment_splitting", "static_peak",
    "rk4_agreement", "expm_agreement", "bloch_consistency", "precession_rigidity",
    "cone_floor", "two_step_ceiling", "criterion_vs_brute", "circle_intersection",
    "pushpull_identity", "plan_geometry", "rk4_convergence", "isolator_identity",
    "isolator_offset_realization", "isolator_endpoints", "output_determinism",
)


def _calls_self(*names: str) -> list[str]:
    return [f"{n}.{stat}" for n in names for stat in ("calls", "self_s")]


PER_LAYER = [
    "dynamics.segment_propagator.calls",
    "dynamics.segment_propagator.self_s",
    *_calls_self("dynamics.compose"),
    *_calls_self("dynamics.protocol_propagator"),
    *_calls_self("dynamics.propagate"),
    "dynamics.propagate.samples",
    "dynamics.propagator_until.calls",
    *_calls_self("oracle.integrate"),
    "oracle.rk4_steps",
    "planner.minimal_plan_search.self_s",
    *_calls_self("planner.dive_plan", "planner.greedy_staircase", "planner.refine_plan"),
    "planner.refine_plan.evals",
    "planner.refine_plan.useful_ratio",
    "planner.plan_from_protocol.calls",
    *_calls_self("twostep.solve_two_step", "twostep.solve_fraction"),
    *_calls_self("twostep.transfer_map", "twostep.feasibility_map"),
    "geometry.calls",
    "geometry.self_s",
    "isolator.contrast_sweep.self_s",
    "isolator.cascade_trajectory.self_s",
    "render.trajectory_svg.self_s",
    "render.svg_bytes",
    "cli.write_csv.self_s",
    "cli.write_csv.bytes",
    "cli.rows",
    "cli.dumps17.self_s",
    *[f"verify.check_{name}.self_s" for name in BATTERY_CHECKS],
    "trace.overhead_s",
]
_UNITS = {"calls": "count", "samples": "count", "evals": "count", "rk4_steps": "count", "rows": "count",
          "self_s": "s", "overhead_s": "s", "useful_ratio": "ratio", "bytes": "bytes", "svg_bytes": "bytes"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {"propagate.samples": 0, "rk4_steps": 0, "refine.evals": 0,
                         "refine.useful": 0, "svg_bytes": 0, "csv_bytes": 0, "rows": 0}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [child_s, span_id] per open span
        self.next_id = 1
        self.request = 0
        self.refine_depth = 0
        self.originals: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self) -> list:
        frame = [0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        dur = t1 - t0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], parent[1] if parent else 0, name, t0, t1, self.request))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def request_span(self):
        """Root span of one CLI request; the calls it makes hang from it."""
        self.stats.setdefault("request", [0, 0.0, 0.0])
        self.request = self.next_id
        frame = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close("request", frame, t0, time.perf_counter())

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        self.stats[name] = [0, 0.0, 0.0]
        before, after = self._hooks(name)
        is_refine = name == "planner.refine_plan"
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self._open()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, perf())
                if is_refine:
                    self.refine_depth -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str):
        c = self.counters

        def count_evals(args, kwargs):
            if self.refine_depth:
                c["refine.evals"] += 1

        def enter_refine(args, kwargs):
            self.refine_depth += 1

        def refine_done(args, kwargs, result):
            plan = args[1] if len(args) > 1 else kwargs["plan"]
            c["refine.useful"] += result is not plan

        def samples(args, kwargs, result):
            c["propagate.samples"] += len(result)

        def rk4_steps(args, kwargs):
            c["rk4_steps"] += self._rk4_steps(*args, **kwargs)

        def svg(args, kwargs, result):
            c["svg_bytes"] += len(result.encode())

        def csv_rows(args, kwargs):
            rows = args[2] if len(args) > 2 else kwargs["rows"]
            if hasattr(rows, "__len__"):
                c["rows"] += len(rows)

        def csv_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            c["csv_bytes"] += Path(path).stat().st_size

        return {
            "dynamics.protocol_propagator": (count_evals, None),
            "planner.refine_plan": (enter_refine, refine_done),
            "dynamics.propagate": (None, samples),
            "oracle.integrate": (rk4_steps, None),
            "render.trajectory_svg": (None, svg),
            "cli.write_csv": (csv_rows, csv_bytes),
        }.get(name, (None, None))

    def _rk4_steps(self, params, protocol, initial=None, config=None) -> int:
        oracle = sys.modules[self.package.__name__ + ".oracle"]
        step = (config or oracle.IntegrationConfig()).resolved_step(params)
        return sum(max(1, math.ceil(d / step)) for d in protocol.durations if d != 0.0)

    def install(self) -> None:
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                wrapper = self._wrap(name, fn)
                for m in self.modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self.originals.append((m, bound, fn))
                            setattr(m, bound, wrapper)

    def uninstall(self) -> None:
        for m, bound, fn in reversed(self.originals):
            setattr(m, bound, fn)
        self.originals.clear()

    # -- results -------------------------------------------------------------
    def _stat(self, name: str, i: int):
        return self.stats.get(name, [0, 0.0, 0.0])[i]

    def metrics(self, overhead_s: float) -> dict[str, float]:
        c = self.counters
        geometry = [v for k, v in self.stats.items() if k.startswith("geometry.")]
        refine_calls = self._stat("planner.refine_plan", 0)
        special = {
            "dynamics.propagate.samples": c["propagate.samples"],
            "oracle.rk4_steps": c["rk4_steps"],
            "planner.refine_plan.evals": c["refine.evals"],
            "planner.refine_plan.useful_ratio": c["refine.useful"] / refine_calls if refine_calls else 0.0,
            "geometry.calls": sum(v[0] for v in geometry),
            "geometry.self_s": sum(v[2] for v in geometry),
            "render.svg_bytes": c["svg_bytes"],
            "cli.write_csv.bytes": c["csv_bytes"],
            "cli.rows": c["rows"],
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric in PER_LAYER:
            if metric in special:
                out[metric] = special[metric]
            else:
                name, stat = metric.rsplit(".", 1)
                out[metric] = self._stat(name, 0 if stat == "calls" else 2)
        return out

    def write(self, path: Path, extra: dict) -> None:
        names = sorted(self.stats)
        doc = {
            **extra,
            "span_fields": ["id", "parent", "name", "start", "end", "request"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "functions": {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                          for n in names for s in [self.stats[n]] if s[0]},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
