"""One BLAS thread for the peak sweep's many small solves.

OpenBLAS threads even the tiny products and factorizations that L-BFGS-B,
the polygon LPs and the max-modulus evaluations issue thousands of times per
sweep.  There the worker threads cost more than they save: on 2 vCPUs the
50-point annulus product check of ``perfbench`` took a median 19.0 s wall
and 34.9 s CPU at the default two threads, 10.0 s and 10.0 s at one, and at
two threads its wall time follows the machine's load.  ``single_threaded``
pins the OpenBLAS copies bundled with numpy and scipy to one thread and
restores their previous counts on exit.  Where no such copy is found
(another BLAS, another wheel layout) it does nothing.  The shipped demo
configs and that annulus check give byte-identical outputs at either count.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

# (get, set) symbol names of the OpenBLAS builds numpy and scipy bundle
_SYMBOLS = [
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
]


@functools.cache
def _openblas_controls() -> tuple[tuple[object, object], ...]:
    controls = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


@contextmanager
def single_threaded():
    """Run the enclosed block with every bundled OpenBLAS at one thread."""
    controls = _openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
