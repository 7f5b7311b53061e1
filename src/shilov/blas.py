"""One BLAS thread for the peak sweep's many small solves.

OpenBLAS may thread even the tiny products and factorizations that
Lawson's seeding, the polygon LPs and the max-modulus evaluations issue
thousands of times per sweep, and a sweep that certifies candidates on
several threads of its own would then start BLAS workers from each of them.
``single_threaded`` pins the OpenBLAS copies bundled with numpy and scipy to
one thread and restores their previous counts on exit.  Where no such copy
is found (another BLAS, another wheel layout) it does nothing.  The pin
pays in the exact regime: on 2 vCPUs, ``perfbench/run.py --seconds 15``
reads a median 0.27-0.35 s wall and 0.51-0.62 s cpu on ``exact_growth``
with it, against 0.50-0.53 s wall and 0.98-1.03 s cpu with every pin
removed (two runs of each).  On ``annulus_product`` both read about 0.36 s
wall.  The shipped demo configs give byte-identical outputs either way.

The thread counts are process-wide, so the pin is too, and it is reentrant
across threads: one depth count under a lock covers every caller, the first
entry saves the counts and pins them, and the last exit restores them.  A
sweep that certifies candidates on several threads therefore stays pinned
until its last certificate is done, however the entries and exits
interleave.
"""

from __future__ import annotations

import ctypes
import functools
import threading
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


class _Pin:
    """The depth count of single_threaded across all threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[int] = []


_PIN = _Pin()


@contextmanager
def single_threaded():
    """Run the enclosed block with every bundled OpenBLAS at one thread."""
    controls = _openblas_controls()
    with _PIN.lock:
        if _PIN.depth == 0:
            _PIN.saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _PIN.depth += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.depth -= 1
            if _PIN.depth == 0:
                for (_, set_), count in zip(controls, _PIN.saved):
                    set_(count)
