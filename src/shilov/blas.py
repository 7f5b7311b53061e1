"""One BLAS thread for every public check.

The checks issue thousands of small dense operations: Span projections, the
algebra and character checks, the Schur step of the character search, the
close-pair projections, Lawson's seeding, the polygon LPs and the
max-modulus evaluations.  OpenBLAS may thread even these small products,
and waking its workers for each costs more than the product saves; a
sweep that certifies candidates on several threads of its own would start
BLAS workers from each of them as well.  So every public entry point that
does such work (validate_algebra, characters, validate_system,
check_admissible, check_natural, check_pi_injective, build_pi,
close_under_products, Span.extend and its projections, as_algebra,
certify_peak, the sweep, reverify_certificate, verify_product_theorem and
the command line's run_config) holds ``single_threaded`` for its whole run.
It pins the OpenBLAS copies bundled with numpy and scipy to one thread and
restores their previous counts on exit.  Where no such copy is found
(another BLAS, another wheel layout) it does nothing.  This is the one
thread policy of the package; there is no option for it.

Measured on 2 vCPUs (BENCH_21.json, ten alternating pairs of
``perfbench/run.py --workload all --seconds 10``): with each check pinned as
a whole, ``exact_growth`` read a median 0.089 s cpu and 0.091 s wall,
against 0.159 s cpu and 0.110 s wall with only Span, as_algebra and the
sweep pinned; ``annulus_product`` and ``cli_demos`` read level.  close_rows
on the 72 characters of C(X, C^3) at |X| = 24, called 10 ms apart, took a
median 9.9 ms with OpenBLAS at two threads and 0.04 ms pinned.  Not
measured: hosts with more than 2 vCPUs, and exact cases beyond |X| = 96.

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
