"""mistsim benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload member-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

Each run sets up ``SETUP_REPEATS`` fresh worker processes (imports, seeded
inputs, reference data, one warm-up op) and reports the median set-up time;
the last of them then measures. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs its per-layer
metrics; the lines above it print the workload's own metrics by name and unit.
Results and traced spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-desk", "member-mix", "spectrum")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _start(args, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up time.

    The worker gets its own process group, so that the watchdog can stop it
    together with its sweep pool if it outlives ``deadline``.
    """
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("MISTSIM_WORKERS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    proc.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill, (proc,))
    proc.watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, "EXIT")
        raise BenchError(f"{args.workload} worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _finish(proc: subprocess.Popen, command: str) -> str:
    """Send GO or EXIT, collect the worker's output and wait for it to end."""
    try:
        out, _ = proc.communicate(command + "\n")
    except BrokenPipeError:
        out = proc.stdout.read()
        proc.wait()
    finally:
        proc.watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"worker stopped after the {DEADLINE_S:.0f} s deadline")
    return out


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup = _start(args, deadline)
        setups.append(setup)
        _finish(proc, "EXIT")
        if proc.returncode != 0:
            raise BenchError(f"{args.workload} set-up process exited {proc.returncode}")
    proc, setup = _start(args, deadline)
    setups.append(setup)
    out = _finish(proc, "GO")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{args.workload} worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    setup_s = statistics.median(setups)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    result["report"].append(["setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh processes"])
    return result


def _fmt(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def report(args, result: dict) -> dict:
    line = {
        "correct": result["failed"] == 0 and bool(result["metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    for name, value, unit, note in result["report"]:
        print(f"{name:40s} {_fmt(value):>14s} {unit:12s} {note}")
    if result.get("absent"):
        print("# absent (no longer in the program): " + ", ".join(result["absent"]))
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), **result, "result": line}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "mistsim", "__init__.py")):
        print(f"perfbench: no mistsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        if args.workload:
            line = report(args, run_workload(args))
        else:
            line = {}
            for name in WORKLOADS:
                sub = argparse.Namespace(**{**vars(args), "workload": name})
                line[name] = report(sub, run_workload(sub))
                print(json.dumps(line[name]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
