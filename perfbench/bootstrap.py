"""Import the checkout's own mistsim with single-threaded BLAS, and describe
the environment a result was measured in.

``prepare()`` must run before numpy is imported anywhere in the process.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    pass


def prepare() -> None:
    """Point imports at ``src/`` of this checkout; one BLAS thread per process.

    Two sweep workers with one BLAS thread each stay within two cores.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(SRC, "mistsim", "__init__.py")):
        raise MissingProgram(f"no mistsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import mistsim

    if os.path.dirname(os.path.dirname(os.path.realpath(mistsim.__file__))) != os.path.realpath(SRC):
        raise MissingProgram(f"imported mistsim from {mistsim.__file__}, not {SRC}")


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if reachable."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import multiprocessing

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }
