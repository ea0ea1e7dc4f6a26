"""Spans around the program's functions, recorded from outside the program.

``Tracer.install`` replaces each target function with a wrapper wherever a
mistsim module holds it (the defining module and every module that imported
it by name), so calls made inside the program are seen too. A target that no
longer exists is recorded as absent instead of failing the run. Wrappers
record only while ``active`` is set, so untraced and traced ops can alternate
in one process. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function
TARGETS = (
    ("mistsim.cli", "main"),
    ("mistsim.sweep", "run_sweep"),
    ("mistsim.sweep", "SweepResult.write"),
    ("mistsim.sweep", "_single_survival"),
    ("mistsim.sweep", "strip_for_detuning"),
    ("mistsim.sweep", "run_oracle_check"),
    ("mistsim.transmon", "ej_for_frequency"),
    ("mistsim.transmon", "diagonalize"),
    ("mistsim.field", "field_amplitude"),
    ("mistsim.strip", "bond_amplitudes"),
    ("mistsim.strip", "match_branches"),
    ("mistsim.strip", "fan_diagram"),
    ("mistsim.strip", "find_avoided_crossings"),
    ("mistsim.dynamics", "propagate"),
    ("mistsim.dynamics", "_real_tridiagonal_stack"),
    ("mistsim.dynamics", "survival_vs_nbar"),
    ("mistsim.analysis", "extract_onsets"),
    ("mistsim.analysis", "fit_boundary"),
)


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op = -1
        self.active = False
        self.absent: set[str] = set()
        # work counted at the span boundaries from arguments and results;
        # a counter whose hook fails (changed signature) is reported absent
        self.counts: dict[str, float] = defaultdict(int)
        self.points: set = set()
        # span -> (hook run on its arguments and result, counters it feeds)
        self._hooks = {
            "dynamics.propagate": (self._on_propagate, (
                "dynamics.steps", "dynamics.eigh_matrices",
                "dynamics.norm_drift_max", "dynamics.stacks_per_point")),
            "field.field_amplitude": (self._on_field, ("field.points",)),
            "strip.match_branches": (self._on_match, ("strip.match_branches.flagged_frac",)),
            "analysis.extract_onsets": (self._on_onsets, ("analysis.onsets_kept",)),
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("mistsim") and m]
        for module_name, path in TARGETS:
            name = span_name(module_name, path)
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if owner is None or not callable(original):
                self.absent.add(name)
                self.absent.update(self._hooks.get(name, (None, ()))[1])
                continue
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook, counters = self._hooks.get(name, (None, ()))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:  # the program changed shape; keep running
                    self.absent.update(counters)
            return result

        return wrapper

    # ------------------------------------------------------------ counters

    def _on_propagate(self, args, kwargs, trace):
        config = _arg(args, kwargs, 0, "config")
        steps = int(round(config.drive.duration / config.dt))
        samples = len(range(0, steps + 1, config.sample_stride))
        samples += steps % config.sample_stride != 0
        self.counts["dynamics.steps"] += steps
        # one eigendecomposition per midpoint step and per sample time
        self.counts["dynamics.eigh_matrices"] += steps + samples
        eigen = config.strip.eigen
        self.points.add((self.op, eigen.energies.tobytes(), eigen.n_g, config.strip.omega_d))
        drift = float(max(abs(n - 1.0) for n in trace.norm))
        self.counts["dynamics.norm_drift_max"] = max(self.counts["dynamics.norm_drift_max"], drift)

    def _on_field(self, args, kwargs, alpha):
        self.counts["field.points"] += len(alpha)

    def _on_match(self, args, kwargs, result):
        self.counts["strip.match_branches.flagged"] += bool(result[1] or result[2])

    def _on_onsets(self, args, kwargs, onsets):
        self.counts["analysis.onsets_kept"] += len(onsets)

    # ------------------------------------------------------------ results

    def layer_stats(self) -> dict[str, dict]:
        """calls, total_s and self_s (total minus direct child spans) per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - inner
        return stats

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
