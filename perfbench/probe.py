"""Set-up probe: a fresh interpreter imports ustatlab and loads and
validates one workload's inputs, running no replication.

    python3 perfbench/probe.py (--configs CFG.json ... | --plan PLAN.json)
                               [--environment]

Prints one JSON line with the in-process import time of ``ustatlab.cli``
and, with --environment, the record of the machine the run used.
"""

import time

_T0 = time.perf_counter()

import ustatlab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from ustatlab.experiments import ExperimentConfig  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "USTAT_WORKERS", "USTATLAB_NO_NUMBA",
)
CACHES = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")


def _getconf(name: str):
    """Cache sizes in bytes; Python's os.sysconf does not name them."""
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def environment() -> dict:
    """What the numbers depend on.  BLAS threads are recorded as found and
    never pinned: pinning them would hide the --workers scaling defect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "cache_bytes": {k: _getconf(k) for k in CACHES},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--configs", nargs="*", default=[])
    p.add_argument("--plan", default=None)
    p.add_argument("--environment", action="store_true")
    args = p.parse_args()
    for path in args.configs:
        with open(path) as fp:
            cfg = ExperimentConfig.from_dict(json.load(fp))
        ustatlab.kernel_from_name(cfg.kernel)
        ustatlab.dist_from_name(cfg.dist)
    if args.plan:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import lab

        with open(args.plan) as fp:
            lab.resolve(json.load(fp))
    out = {"import_s": IMPORT_S}
    if args.environment:
        out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
