"""The process-wide OpenBLAS pin under concurrent callers."""

import sys
import threading

import pytest

from shilov import blas
from shilov.blas import _openblas_controls, single_threaded

TIMEOUT = 30.0


@pytest.fixture
def controls():
    """The bundled OpenBLAS controls, at two threads during the test and
    restored afterwards."""
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    try:
        yield controls
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def counts(controls):
    return [get() for get, _ in controls]


def test_pin_holds_until_the_last_of_two_interleaved_callers_exits(controls):
    # A enters, B enters, A exits while B is still inside, B exits
    a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with single_threaded():
            a_inside.set()
            b_inside.wait(TIMEOUT)
        a_left.set()

    def second():
        a_inside.wait(TIMEOUT)
        with single_threaded():
            b_inside.set()
            a_left.wait(TIMEOUT)
            seen["inside"] = counts(controls)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert a_inside.is_set() and b_inside.is_set() and a_left.is_set()
    assert seen["inside"] == [1] * len(controls)
    assert counts(controls) == [2] * len(controls)
    assert blas._PIN.depth == 0


def test_pin_survives_many_threads_switching_often(controls):
    # more threads than cores, switching every microsecond: a lost update
    # of the depth count would unpin a thread inside or leave the pin behind
    unpinned = []

    def churn():
        for _ in range(200):
            with single_threaded():
                with single_threaded():  # nested in one thread as well
                    if counts(controls) != [1] * len(controls):
                        unpinned.append(counts(controls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert unpinned == []
    assert counts(controls) == [2] * len(controls)
    assert blas._PIN.depth == 0
