"""The process-wide OpenBLAS pin under concurrent callers, and the one
LAPACK call against scipy.linalg."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import shilov as sh
from shilov import blas
from shilov.algebra import basis_multiplication_matrices
from shilov.blas import _openblas_controls, lower_triangular_inverse, single_threaded
from conftest import PRESET_NAMES

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


def _lower_triangles(rng):
    """Random complex and real lower triangular matrices with a dominant
    diagonal, 1 x 1 included and one past LAPACK's blocking crossover
    (n = 150), each in C and in Fortran order."""
    found = []
    for n in (1, 2, 5, 17, 150):
        for A in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                  rng.standard_normal((n, n))):
            A = np.tril(A) + 4 * np.eye(n)
            found += [np.ascontiguousarray(A), np.asfortranarray(A)]
    return found


def _jordan_block(n=6, value=0.5 - 0.25j):
    return value * np.eye(n) + np.eye(n, k=1)


def _assert_same(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


def _assert_inverse_matches_scipy(R):
    # a real R is cast to complex, as Span's R always is
    n, complex_R = R.shape[0], R.astype(complex, copy=False)
    oracle = scipy.linalg.solve_triangular(complex_R, np.eye(n), lower=True)
    _assert_same(lower_triangular_inverse(R), oracle)


def test_lower_triangular_inverse_is_scipys_solve():
    rng = np.random.default_rng(2)
    for R in _lower_triangles(rng) + [_jordan_block().T]:
        _assert_inverse_matches_scipy(R)
    # entries above the diagonal are not read, as with solve_triangular
    R = np.tril(rng.standard_normal((4, 4))) + 4 * np.eye(4) + np.triu(np.ones((4, 4)), 1)
    _assert_inverse_matches_scipy(R)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lower_triangular_inverse_is_scipys_on_preset_spans(name):
    # R of the span of the preset's multiplication matrices, as Span.coefficients forms it
    mats = basis_multiplication_matrices(sh.preset_algebra(name))
    span = sh.Span.of(np.array([L.ravel() for L in mats]))
    R = np.array(span.kept) @ span._qh
    _assert_inverse_matches_scipy(R)
    _assert_inverse_matches_scipy(np.asfortranarray(R))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_input_raises_value_error(bad):
    A = np.eye(3, dtype=complex)
    A[1, 0] = bad
    with pytest.raises(ValueError):
        lower_triangular_inverse(A)


def test_singular_triangle_raises_lin_alg_error():
    R = np.tril(np.ones((3, 3), dtype=complex))
    R[1, 1] = 0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
        lower_triangular_inverse(R)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve_triangular(R, np.eye(3), lower=True)
