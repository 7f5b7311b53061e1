"""One benchmark repetition in a fresh interpreter.

Run by ``run.py`` with the checkout root as working directory and ``src`` on
``PYTHONPATH``.  Prints one JSON object as its last line of output:

* ``setup_s``: from the parent's launch timestamp (``--launch``, a
  CLOCK_MONOTONIC reading) through ``import shilov`` and input generation;
* ``wall_s`` and ``cpu_s``: wall and user+system CPU time of the run;
* ``peak_rss_mb``: the process's maximum resident set size;
* the operation tally from the workload's output checks;
* with ``--trace 1``, the per-layer spans of input generation and the run.

With ``--setup-only`` it stops after input generation.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _openblas_threads() -> dict:
    """Thread counts of the OpenBLAS copies bundled with numpy and scipy."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    site = Path(numpy.__file__).resolve().parent.parent
    found = {}
    for package, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
    ):
        paths = glob.glob(str(site / pattern))
        if not paths:
            found[package] = None
            continue
        get = getattr(ctypes.CDLL(paths[0]), symbol)
        get.argtypes, get.restype = [], ctypes.c_int
        found[package] = get()
    return found


def environment() -> dict:
    from importlib.metadata import version

    import numpy
    import scipy

    import shilov

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": version("jsonschema"),
        "shilov": shilov.__version__,
        "lp_backend": "highs-incremental" if shilov.boundary._highs_core is not None else "linprog",
    }


def run_rep(workload: str, seed: int, launch: float, traced: bool = False,
            setup_only: bool = False, size: str = "full") -> dict:
    """Build the inputs, run the workload once and check its outputs."""
    import shilov

    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    spec = WORKLOADS[workload]
    tracer = Tracer().install() if traced else None
    try:
        gen_start = _now()
        inputs = spec.build(seed, SIZES[workload][size])
        gen_end = _now()
        result = {"setup_s": gen_end - launch, "gen_s": gen_end - gen_start,
                  "src": str(Path(shilov.__file__).resolve().parent)}
        if setup_only:
            return result
        cpu_start, start = _cpu(), _now()
        reports = spec.run(inputs)
        wall, cpu = _now() - start, _cpu() - cpu_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = spec.check(inputs, reports)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures[:20],
        certified=tally.certified,
        undecided=tally.undecided,
        digests=tally.digests,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    result = run_rep(args.workload, args.seed, args.launch, bool(args.trace),
                     args.setup_only, args.size)
    if not args.setup_only:
        result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
