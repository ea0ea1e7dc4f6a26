"""One workload in a fresh process: set up, report ready, measure, report.

Started by run.py, with which it speaks a line protocol:

    worker -> READY          after imports, inputs, references and a warm-up op
    run.py -> GO | EXIT      measure, or stop (set-up-only processes)
    worker -> RESULT <json>  the measurements, once

Load is closed-loop: one op at a time from this process. Untraced runs time
ops for ``--seconds``. Traced runs take a fixed, seeded set of ops and run
each untraced, then traced, so the work counts repeat exactly and the
difference in time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

import bootstrap
from tracing import Tracer

# ops of a traced run; sweep-desk is traced at workers=1 so that every span
# lands in this process
TRACE_OPS = {"sweep-desk": 1, "member-mix": 12, "spectrum": 100}

# per-layer metrics: (span, statistic) pairs, then counters measured at spans
SPAN_METRICS = (
    ("dynamics.propagate", "calls"),
    ("dynamics.propagate", "total_s"),
    ("dynamics.propagate", "self_s"),
    ("dynamics._real_tridiagonal_stack", "total_s"),
    ("dynamics.survival_vs_nbar", "total_s"),
    ("field.field_amplitude", "calls"),
    ("field.field_amplitude", "total_s"),
    ("strip.bond_amplitudes", "total_s"),
    ("strip.match_branches", "calls"),
    ("strip.match_branches", "total_s"),
    ("strip.fan_diagram", "self_s"),
    ("strip.find_avoided_crossings", "total_s"),
    ("sweep.strip_for_detuning", "total_s"),
    ("sweep.run_oracle_check", "self_s"),
    ("sweep._single_survival", "total_s"),
    ("transmon.ej_for_frequency", "calls"),
    ("transmon.ej_for_frequency", "total_s"),
    ("transmon.diagonalize", "calls"),
    ("transmon.diagonalize", "total_s"),
    ("sweep.run_sweep", "self_s"),
    ("sweep.SweepResult.write", "total_s"),
    ("cli.main", "self_s"),
    ("analysis.extract_onsets", "total_s"),
    ("analysis.fit_boundary", "total_s"),
)
COUNTER_UNITS = {
    "dynamics.stacks_per_point": "ratio",
    "dynamics.steps": "count",
    "dynamics.eigh_matrices": "count",
    "dynamics.norm_drift_max": "ratio",
    "field.points": "count",
    "strip.match_branches.flagged_frac": "ratio",
    "analysis.onsets_kept": "count",
    "sweep.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}
# counted from the op inputs rather than observed inside the program
COMPUTED = ("dynamics.steps", "dynamics.eigh_matrices")
DEFAULT_SWEEP_MEMBERS = 51 * 11 * 2
PROBE_EVERY_S = 0.5
ABSENT = "absent"


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def tail_label(n: int):
    """Highest whole percentile with at least ten samples above it."""
    return None if n < 11 else math.floor(100 * (n - 10) / n)


def run_op(workload, inp, **kw):
    """Latency of one op, or None when it raised or failed its check."""
    try:
        t0 = time.perf_counter()
        out = workload.run(inp, **kw)
        elapsed = time.perf_counter() - t0
        if workload.check(*out):
            return elapsed
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class SpeedProbe:
    """Fixed kernel shaped like the program's work (a batch of 20 x 20
    ``eigh`` and a short matrix-vector step loop), timed in thread CPU time.

    On a shared host the speed of a core drifts by tens of percent over tens
    of seconds as other tenants come and go. Dividing an op's wall time by
    the probe time taken beside it cancels most of that drift, so the
    end-to-end time metric is reported in probe units; the raw seconds are
    printed alongside.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        stack = rng.standard_normal((400, 20, 20))
        self.stack = stack + stack.transpose(0, 2, 1)
        self.vec = rng.standard_normal(20)
        self.eigh, self.norm = np.linalg.eigh, np.linalg.norm

    def __call__(self) -> float:
        t0 = time.thread_time()
        self.eigh(self.stack)
        x = self.vec
        for m in self.stack[:200]:
            x = m @ x
            x = x / self.norm(x)
        return time.thread_time() - t0


class ProbeThread:
    """Probes every ``PROBE_EVERY_S`` while an op's work runs in a pool."""

    def __init__(self, probe):
        self.probe, self.samples = probe, []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append(self.probe())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(self.probe())


def measure(workload, seed, seconds):
    """Closed loop: ops back to back until ``seconds`` have passed.

    Returns the op latencies with the probe time credited to each op.
    """
    probe = SpeedProbe()
    inputs = workload.inputs(seed)
    rows = []
    t_end = time.perf_counter() + seconds
    if workload.runs_in_pool:
        # this thread only waits while the pool works: probe beside it
        while time.perf_counter() < t_end:
            with ProbeThread(probe) as probes:
                latency = run_op(workload, next(inputs))
            rows.append((latency, statistics.median(probes.samples)))
    else:
        # probe between blocks of ops and credit each block with the mean
        # of the probes on either side of it
        before = probe()
        while time.perf_counter() < t_end:
            block_end = min(time.perf_counter() + PROBE_EVERY_S, t_end)
            block = [run_op(workload, next(inputs))]
            while time.perf_counter() < block_end:
                block.append(run_op(workload, next(inputs)))
            after = probe()
            rows += [(latency, (before + after) / 2) for latency in block]
            before = after
    ok = [(latency, cal) for latency, cal in rows if latency is not None]
    lat = [latency for latency, _ in ok]
    attempted, failed = len(rows), len(rows) - len(ok)
    if not lat:
        return {"attempted": attempted, "failed": failed, "report": [], "metrics": {}}
    norm_p50 = statistics.median(latency / cal for latency, cal in ok)
    p50 = statistics.median(lat)
    throughput = len(lat) / sum(lat)
    report = []
    n = len(lat)
    if workload.name == "sweep-desk":
        report.append(("sweep_s", p50, "s", f"median of {n} sweeps"))
    else:
        base = "member_s" if workload.name == "member-mix" else "spectrum_op_s"
        report.append((f"{base}.p50", p50, "s", f"n={n}"))
        report.append((f"{base}.p90", percentile(lat, 90), "s", f"n={n}, {n - math.ceil(0.9 * n)} above"))
        tail = tail_label(n)
        if tail is not None:
            report.append((f"{base}.p{tail}", percentile(lat, tail), "s", "highest with >=10 above"))
    if workload.members_per_op:
        members_per_s = workload.members_per_op * throughput
        report.append(("members_per_s", members_per_s, "1/s", f"{workload.members_per_op} members per op"))
    if workload.name == "sweep-desk":
        report.append((
            "default_sweep_s", DEFAULT_SWEEP_MEMBERS / members_per_s, "s",
            f"extrapolated from members_per_s to {DEFAULT_SWEEP_MEMBERS} members, not run",
        ))
    report.append((workload.error_name, max(workload.errors), workload.error_unit, "max over checked ops"))
    report.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"))
    rss = peak_rss_mb()
    report.append(("peak_rss_mb", rss, "MB", "max of getrusage SELF and CHILDREN"))
    report.append(("probe_s.p50", statistics.median(cal for _, cal in ok), "s", "speed-probe time"))
    report.append(("op_norm.p50", norm_p50, "probe", "median of op wall time / probe time"))
    metrics = {
        "op_norm.p50": {"value": norm_p50, "unit": "probe"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {"attempted": attempted, "failed": failed, "report": report, "metrics": metrics}


def measure_traced(workload, seed, spans_path):
    n_ops = TRACE_OPS[workload.name]
    inputs = workload.inputs(seed)
    tracer = Tracer()
    tracer.install()
    # untraced and traced runs of each op alternate, so that a change in
    # machine speed during the run does not show up as tracing overhead
    kw = {"workers": 1} if workload.name == "sweep-desk" else {}
    pooled, plain, traced = [], [], []
    for op in range(n_ops):
        inp = next(inputs)
        if workload.name == "sweep-desk":
            pooled.append(run_op(workload, inp))
        plain.append(run_op(workload, inp, **kw))
        tracer.active, tracer.op = True, op
        traced.append(run_op(workload, inp, **kw))
        tracer.active = False
    tracer.write(spans_path)
    runs = pooled + plain + traced
    attempted, failed = len(runs), runs.count(None)
    if failed:
        return {"attempted": attempted, "failed": failed, "report": [], "metrics": {}}

    stats = tracer.layer_stats()
    values = {}
    for span, stat in SPAN_METRICS:
        if span in tracer.absent:
            values[f"{span}.{stat}"] = ABSENT
        else:
            values[f"{span}.{stat}"] = stats.get(span, {}).get(stat, 0)
    counts = tracer.counts
    calls = {name: s["calls"] for name, s in stats.items()}
    values["dynamics.stacks_per_point"] = (
        calls.get("dynamics.propagate", 0) / len(tracer.points) if tracer.points else 0.0
    )
    for name in ("dynamics.steps", "dynamics.eigh_matrices", "dynamics.norm_drift_max",
                 "field.points", "analysis.onsets_kept"):
        values[name] = counts.get(name, 0)
    match_calls = calls.get("strip.match_branches", 0)
    values["strip.match_branches.flagged_frac"] = (
        counts.get("strip.match_branches.flagged", 0) / match_calls if match_calls else 0.0
    )
    # serial time at workers=1 over the pool's time at workers=2, both untraced
    values["sweep.parallel_efficiency"] = sum(plain) / (2 * sum(pooled)) if workload.name == "sweep-desk" else 0.0
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    for name in tracer.absent:
        if name in values:
            values[name] = ABSENT

    units = {f"{span}.{stat}": ("count" if stat == "calls" else "s") for span, stat in SPAN_METRICS}
    units.update(COUNTER_UNITS)
    report = [
        (name, value, units[name], "computed from inputs" if name in COMPUTED else "")
        for name, value in values.items()
    ]
    report.append(("trace.ops", n_ops, "count", "fixed, seeded op set"))
    if workload.name == "member-mix":
        # acceptance check: propagate and its child spans account for the
        # untraced member time once the tracing overhead is taken out
        per_member = stats.get("dynamics.propagate", {}).get("total_s", 0.0) / n_ops
        per_member /= 1.0 + values["trace.overhead_frac"]
        report.append((
            "accounting.propagate_share", per_member / statistics.mean(plain), "ratio",
            f"propagate per member {per_member:.4f} s without overhead; untraced member "
            f"mean {statistics.mean(plain):.4f} s, p50 {statistics.median(plain):.4f} s",
        ))
    metrics = {
        name: {"value": -1 if value == ABSENT else value, "unit": units[name]}
        for name, value in values.items()
    }
    return {"attempted": attempted, "failed": failed, "report": report, "metrics": metrics, "absent": sorted(tracer.absent)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    bootstrap.prepare()
    import workloads as wl

    out_dir = os.path.join(bootstrap.ROOT, ".perfbench")
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = wl.WORKLOADS[args.workload](wl.Reference(), scratch)
        workload.warm_up(args.seed)
        workload.errors.clear()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
            result = measure_traced(workload, args.seed, spans)
        else:
            result = measure(workload, args.seed, args.seconds)
        result["environment"] = bootstrap.environment()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except bootstrap.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
