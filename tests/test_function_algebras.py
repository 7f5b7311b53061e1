"""Function systems, norms, closure, constructors, quadruples and pi."""

import itertools
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import shilov as sh
from shilov import blas
from shilov.blas import single_threaded
from shilov.characters import DISTINCT_TOL
from shilov.function_algebras import _SPAN_BLOCK, SEPARATION_TOL, SPAN_TOL
from conftest import PRESET_CHARACTER_COUNTS, PRESET_NAMES, conjugated_algebra, random_space


def scalar_system(coords, tables, **kw):
    X = sh.FiniteSpace(tuple(f"p{k}" for k in range(len(coords))), np.asarray(coords, complex))
    basis = np.asarray(tables, dtype=complex)[:, :, None]
    return sh.FunctionSystem(X, sh.complex_field(), basis, **kw)


# --- evaluation and norms ------------------------------------------------------


def test_evaluate_constant_and_coordinate():
    E = sh.preset_algebra("dual_numbers")
    X = sh.FiniteSpace(("one", "i"), np.array([1.0 + 0j, 1j]))
    Bt = sh.make_CXE(X, E)
    unit_coeffs = sh.span_membership(Bt, Bt.unit_table())
    assert unit_coeffs is not None
    assert np.allclose(sh.evaluate(Bt, unit_coeffs, "i").coords, E.unit)

    # coordinate function z * 1_E as a table
    z_table = X.coords[:, None] * E.unit[None, :]
    z_coeffs = sh.span_membership(Bt, z_table)
    assert np.allclose(sh.evaluate(Bt, z_coeffs, "i").coords, 1j * E.unit)

    # z^2 via pointwise product of value tables
    zsq = sh.pointwise_product(Bt, z_table, z_table)
    assert np.allclose(zsq[1], -1.0 * E.unit)


def test_sup_norm_examples():
    S = scalar_system([0, 1], [[1, 1]])
    assert sh.sup_norm(S, [1.0]) == pytest.approx(1.0)

    # f(x) = eps * x on {0, 1} with dual-number values
    E = sh.preset_algebra("dual_numbers")
    X = sh.FiniteSpace(("0", "1"), np.array([0.0 + 0j, 1.0 + 0j]))
    table = np.zeros((2, 2), dtype=complex)
    table[1, 1] = 1.0  # value eps at x = 1, 0 at x = 0
    S = sh.FunctionSystem(X, E, table[None, :, :])
    assert sh.sup_norm(S, np.array([1.0])) == pytest.approx(1.0)


def test_lipschitz_seminorm_and_norm():
    S = scalar_system([0, 1], [[1, 1], [0, 1]], norm_tag="lipschitz", alpha=1.0)
    const = np.array([1.0, 0.0])
    assert sh.lipschitz_seminorm(S, const) == pytest.approx(0.0)
    slope = np.array([0.0, 1.0])
    assert sh.lipschitz_seminorm(S, slope) == pytest.approx(1.0)
    assert sh.lipschitz_norm(S, slope) == pytest.approx(2.0)


def test_lipschitz_three_point_oracle():
    # evaluate all three pairs of f(x) = x on {0, 0.25, 1}, alpha = 0.5:
    # (0, .25): .25/.5 = .5;  (0, 1): 1/1 = 1;  (.25, 1): .75/sqrt(.75) ~ .866
    # sup over pairs = 1, attained at (0, 1)
    S = scalar_system(
        [0, 0.25, 1.0],
        [[1, 1, 1], [0, 0.25, 1.0]],
        norm_tag="lipschitz",
        alpha=0.5,
    )
    f = np.array([0.0, 1.0])  # the coordinate function
    pair_values = [0.25 / 0.25**0.5, 1.0 / 1.0**0.5, 0.75 / 0.75**0.5]
    assert sh.lipschitz_seminorm(S, f) == pytest.approx(max(pair_values))
    assert sh.lipschitz_seminorm(S, f) == pytest.approx(1.0)


def test_lipschitz_requires_metric():
    X = sh.FiniteSpace(("a", "b"))  # no coords, no metric
    basis = np.ones((1, 2, 1), dtype=complex)
    with pytest.raises(ValueError):
        sh.FunctionSystem(X, sh.complex_field(), basis, norm_tag="lipschitz", alpha=0.5)


# --- closure and membership ----------------------------------------------------


def test_closure_generic_points_fills_CX():
    rng = np.random.default_rng(0)
    X = random_space(rng, 3)
    S = scalar_system(X.coords, [np.ones(3), X.coords])
    closed = sh.close_under_products(S)
    assert closed.dim == 3
    assert closed.closed
    # independent oracle: Vandermonde rank of {1, z, z^2}
    V = np.vander(X.coords, 3, increasing=True)
    assert np.linalg.matrix_rank(V) == 3


def test_closure_saturates_on_two_points():
    S = scalar_system([-1, 1], [[1, 1], [-1, 1]])
    closed = sh.close_under_products(S)
    assert closed.dim == 2  # z^2 = 1 on {-1, +1}


def test_closure_dual_numbers_full():
    rng = np.random.default_rng(1)
    X = random_space(rng, 3)
    E = sh.preset_algebra("dual_numbers")
    tables = [X.coords[:, None] * E.unit[None, :]]  # z * 1_E
    for j in range(E.dim):
        t = np.zeros((3, 2), dtype=complex)
        t[:, j] = 1.0
        tables.append(t)
    S = sh.FunctionSystem(X, E, np.array(tables))
    closed = sh.close_under_products(S)
    assert closed.dim == 6


def test_closure_is_closure_operator():
    rng = np.random.default_rng(3)
    X = random_space(rng, 4)
    S1 = scalar_system(X.coords, [np.ones(4), X.coords])
    S2 = scalar_system(X.coords, [np.ones(4), X.coords, X.coords**2])
    c1, c2 = sh.close_under_products(S1), sh.close_under_products(S2)
    assert c1.dim >= S1.dim  # extensive
    assert c2.dim >= c1.dim  # monotone (S1 span inside S2 span)
    assert sh.close_under_products(c1).dim == c1.dim  # idempotent


def test_span_membership_examples():
    S = scalar_system([-1, 1], [[1, 1], [-1, 1]])
    coeffs = sh.span_membership(S, S.basis[1])
    assert np.allclose(coeffs, [0, 1], atol=1e-10)
    zsq = (S.space.coords**2)[:, None]
    coeffs = sh.span_membership(S, zsq)
    assert np.allclose(coeffs, [1, 0], atol=1e-10)  # z^2 = 1 on {-1, 1}

    S3 = scalar_system([0, 1, 2], [[1, 1, 1], [0, 1, 2]])
    assert sh.span_membership(S3, (S3.space.coords**2)[:, None]) is None


# On four points u = 1, f = (1, 1, -1, -1), g = (1, -1, 1, -1) and h = f g are
# orthogonal with norm 2, so u + r i g has relative residual r against span{u}.
U4 = np.ones(4)
F4 = np.array([1.0, 1.0, -1.0, -1.0])
G4 = np.array([1.0, -1.0, 1.0, -1.0])
NEAR, FAR = 3e-9, 1e-7  # either side of SPAN_TOL = 1e-8


@pytest.mark.parametrize("r, dependent", [(NEAR, True), (FAR, False)])
def test_one_span_rule_for_near_dependent_tables(r, dependent):
    S = scalar_system(range(4), [U4, U4 + r * 1j * G4])
    rank = 1 if dependent else 2
    assert S.span.rank == rank
    assert sh.span_BE(S, sh.complex_field()).dim == rank
    assert sh.close_under_products(S).dim == rank
    assert sh.validate_system(S).check("basis_independent").passed is not dependent
    units = scalar_system(range(4), [U4])
    assert (sh.span_membership(units, S.basis[1]) is not None) is dependent


@pytest.mark.parametrize("r, closed", [(1e-10, True), (NEAR, True), (FAR, False), (1e-6, False)])
def test_closure_verdict_shared_by_validate_system_and_as_algebra(r, closed):
    # (f + eps h)^2 = (1 + eps^2) u + 2 eps g: its only off-span part is
    # 2 eps g, a relative residual of 2 eps against span{u, f + eps h}.
    S = scalar_system(range(4), [U4, F4 + r / 2 * F4 * G4])
    square = sh.pointwise_product(S, S.basis[1], S.basis[1])
    assert S.span.residuals(square)[0] == pytest.approx(r, rel=1e-6)
    check = sh.validate_system(S).check("product_closed")
    assert check.passed is closed
    assert check.residual == (0.0 if closed else 1.0)
    if closed:
        assert sh.as_algebra(S).dim == 2
    else:
        with pytest.raises(ValueError, match="not closed"):
            sh.as_algebra(S)


def test_closed_is_computed_not_passed():
    S = scalar_system(range(4), [U4, F4])
    with pytest.raises(TypeError):
        sh.FunctionSystem(S.space, S.scalars, S.basis, closed=True)
    with pytest.raises(TypeError):
        replace(S, closed=True)
    assert "closed" not in S.to_dict()
    assert S.closed  # f^2 = u
    # closed under products but without the unit: not an algebra here
    indicator = scalar_system(range(4), [[1, 0, 0, 0]])
    assert not indicator.closed and indicator.closure_residual == pytest.approx(0.75**0.5)
    assert not sh.validate_system(indicator).check("product_closed").passed


def test_closure_of_one_and_z_squared_on_the_fourth_roots_of_unity():
    # span{1, z^2} is closed there (z^4 = 1), and no constructor builds it
    X = sh.FiniteSpace(("1", "i", "-1", "-i"), np.array([1, 1j, -1, -1j]))
    S = scalar_system(X.coords, [U4, X.coords**2])
    assert S.closed and S.closure_residual <= SPAN_TOL
    assert sh.validate_system(S).passed
    A = sh.as_algebra(S)
    assert sh.validate_algebra(A).passed
    assert len(sh.characters(A)) == 2  # z^2 = 1 and z^2 = -1
    assert not sh.make_poly(X, sh.complex_field(), 2).closed  # z^3 is missing
    assert sh.close_under_products(S).dim == 2


def test_closure_is_decided_once_under_the_pin(monkeypatch):
    X = random_space(np.random.default_rng(24), 4)
    S = sh.make_CXE(X, sh.preset_algebra("dual_numbers"))
    depths = []
    basis_products = sh.function_algebras._basis_products

    def counting(system):
        depths.append(blas._PIN.depth)
        return basis_products(system)

    monkeypatch.setattr(sh.function_algebras, "_basis_products", counting)
    for _ in range(3):
        assert S.closed
    assert sh.validate_system(S).passed
    assert depths == [1]  # the verdict, pinned, once
    sh.check_natural(sh.Quadruple(X, S.scalars, sh.make_CXE(X, sh.complex_field()), S))
    sh.build_pi(sh.Quadruple(X, S.scalars, sh.make_CXE(X, sh.complex_field()), S))
    # as_algebra reads S's verdict and the products the verdict formed
    assert depths == [1]
    assert "closure_residual" in vars(S) and "basis_products" in vars(S)


@pytest.mark.parametrize("case, name, n", [("cxe", "pointwise_3", 24), ("lip", "dual_numbers", 8),
                                           ("poly", "C", 7), ("closure", "C", 8)])
def test_basis_products_are_formed_once_per_system(monkeypatch, case, name, n):
    S = _product_case(case, name, n)
    calls = []
    basis_products = sh.function_algebras._basis_products

    def counting(system):
        calls.append(system)
        return basis_products(system)

    monkeypatch.setattr(sh.function_algebras, "_basis_products", counting)
    assert S.closed
    A = sh.as_algebra(S)
    assert sh.as_algebra(S).structure.tobytes() == A.structure.tobytes()
    assert calls == [S]  # one einsum, shared by the verdict and as_algebra
    with single_threaded():  # as the verdict forms them
        fresh = basis_products(S)
    for cached, formed in zip(S.basis_products, fresh):
        assert cached.dtype == formed.dtype and cached.tobytes() == formed.tobytes()
        assert not cached.flags.writeable


class _CountingPin(blas._Pin):
    """blas._Pin that counts how often the pin is taken from depth 0."""

    def __init__(self):
        self.entries = 0
        super().__init__()
        self.entries = 0

    @property
    def saved(self):
        return self._saved

    @saved.setter
    def saved(self, counts):
        self._saved = counts
        self.entries += 1


def test_span_projections_hold_one_pin(monkeypatch):
    rng = np.random.default_rng(25)
    rows = _complex_normal(rng, 30, 20)
    pin = _CountingPin()
    monkeypatch.setattr(blas, "_PIN", pin)

    def entries(call):
        before = pin.entries
        call()
        assert pin.depth == 0
        return pin.entries - before

    span = sh.Span(rows.shape[1])
    assert entries(lambda: span.add(rows[0])) == 1  # one projection
    assert entries(lambda: span.residuals(rows)) == 1
    assert entries(lambda: span.coefficients(rows)) == 1
    # a loop of adds holds one pin, not one per row
    assert entries(lambda: sh.Span.of(rows)) == 1
    assert entries(lambda: sh.boundary._independent_columns(rows)) == 1
    P = sh.make_poly(random_space(rng, 5), sh.complex_field(), 1)
    assert entries(lambda: sh.close_under_products(P)) == 1


def test_batched_membership_matches_per_table():
    rng = np.random.default_rng(21)
    S = scalar_system(range(4), [U4, 2 * U4, G4])  # second table dependent
    span = S.span
    assert span.rank == 2 and span.index == [0, 2]
    assert np.array_equal(np.array(span.kept), S.basis[[0, 2], :, 0])
    assert not sh.Span.of(S.basis[:1, :, 0]).add(3 * U4)

    mix = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    inside = mix @ np.array([U4, G4])
    outside = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    tables = np.concatenate([inside, outside])[:, :, None]
    contains = span.contains(tables)
    coeffs = span.coefficients(tables)
    assert contains.tolist() == [True] * 5 + [False] * 3
    for table, in_span, c in zip(tables, contains, coeffs):
        single = sh.span_membership(S, table)
        assert bool(in_span) == (single is not None)
        if in_span:
            np.testing.assert_allclose(c, single, atol=1e-12)
            assert c[1] == 0
            np.testing.assert_allclose(S.table(c), table, atol=1e-12)
            reference, *_ = np.linalg.lstsq(S.basis[[0, 2], :, 0].T, table[:, 0], rcond=None)
            np.testing.assert_allclose(c[[0, 2]], reference, atol=1e-12)


class _StackedSpan:
    """Oracle for Span: the same rule with Q re-stacked by np.vstack on every
    add and conj(Q) copied on every projection, as Span was before it kept
    both in buffers."""

    def __init__(self, width):
        self._q = np.zeros((0, width), dtype=complex)
        self._count = 0
        self.index = []
        self.kept = []

    def _rows(self, V):
        return np.asarray(V, dtype=complex).reshape(-1, self._q.shape[1])

    def _project_out(self, V):
        for _ in range(2):
            V = V - (V @ self._q.conj().T) @ self._q
        return V

    def _residuals(self, V):
        R = self._project_out(V)
        scale = np.maximum(np.linalg.norm(V, axis=1), 1.0)
        return R, np.linalg.norm(R, axis=1) / scale

    def residuals(self, V):
        return self._residuals(self._rows(V))[1]

    def add(self, v):
        v = self._rows(v)
        self._count += 1
        [r], [residual] = self._residuals(v)
        if residual <= SPAN_TOL:
            return False
        self._q = np.vstack([self._q, r / np.linalg.norm(r)])
        self.index.append(self._count - 1)
        self.kept.append(v[0])
        return True

    def coefficients(self, V):
        V = self._rows(V)
        out = np.zeros((V.shape[0], self._count), dtype=complex)
        if self._q.shape[0]:
            R = np.array(self.kept) @ self._q.conj().T
            R_inv = scipy.linalg.solve_triangular(R, np.eye(len(self.kept)), lower=True)
            out[:, self.index] = (V @ self._q.conj().T) @ R_inv
        return out


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _near_dependent_rows(rng, count=40, width=48):
    """Six random rows, then rows that leave the span of those before them
    by a relative 1e-9 to 1e-7: each add decides within 10x of SPAN_TOL."""
    rows = list(_complex_normal(rng, 6, width))
    for _ in range(count - 6):
        inside = _complex_normal(rng, len(rows)) @ np.array(rows) / len(rows)
        noise = _complex_normal(rng, width)
        scale = 10 ** rng.uniform(-9, -7) * np.linalg.norm(inside) / np.linalg.norm(noise)
        rows.append(inside + scale * noise)
    return np.array(rows)


def _span_rows(kind, rng):
    if kind == "random":
        return _complex_normal(rng, 40, 36)  # rank 36: six buffer doublings
    if kind == "rank_deficient":
        rows = _complex_normal(rng, 40, 20) @ _complex_normal(rng, 20, 30)
        rows[[3, 17]] = 0.0
        rows[25] = 2 * rows[9]
        return rows
    if kind == "near_dependent":
        return _near_dependent_rows(rng)
    if kind == "three_blocks":  # near-dependent rows across block boundaries
        return _near_dependent_rows(rng, count=3 * _SPAN_BLOCK + 10, width=240)
    # a0, 1e-12 b, b: the middle row is dropped, and b is still kept
    a0, b = _complex_normal(rng, 2, 50)
    return np.array([a0, 1e-12 * b, b])


@pytest.mark.parametrize("kind", ["random", "rank_deficient", "near_dependent"])
def test_span_buffers_match_the_stacked_oracle(kind):
    rng = np.random.default_rng(31)
    rows = _span_rows(kind, rng)
    span, oracle = sh.Span(rows.shape[1]), _StackedSpan(rows.shape[1])
    decisions = []
    for row in rows:
        decisions.append(oracle.residuals(row)[0])
        assert span.add(row) == oracle.add(row)
    if kind == "near_dependent":
        near = np.array(decisions[6:])
        assert np.all((near > SPAN_TOL / 10) & (near < 10 * SPAN_TOL))
        assert 6 < span.rank < len(rows)  # some kept, some dropped
    assert span.rank == oracle._q.shape[0] > 8  # Q's buffers doubled 4+ times
    assert np.array_equal(span._q, oracle._q)
    assert span.index == oracle.index
    assert np.array_equal(np.array(span.kept), np.array(oracle.kept))
    probes = np.concatenate([rows, _complex_normal(rng, 5, rows.shape[1])])
    assert np.array_equal(span.coefficients(probes), oracle.coefficients(probes))
    assert np.array_equal(span.residuals(probes), oracle.residuals(probes))


def test_span_coefficients_after_extend_match_a_fresh_span():
    # R^-1 is kept between calls: an extend that keeps rows must drop it
    rng = np.random.default_rng(32)
    rows = _span_rows("three_blocks", rng)
    probes = np.concatenate([rows, _complex_normal(rng, 5, rows.shape[1])])
    span = sh.Span.of(rows[:_SPAN_BLOCK])  # the fresh span's first block
    span.coefficients(probes)
    span.extend(rows[_SPAN_BLOCK:])
    fresh = sh.Span.of(rows)
    assert span.rank == fresh.rank > _SPAN_BLOCK
    assert np.array_equal(span.coefficients(probes), fresh.coefficients(probes))
    cached = span._r_inv
    assert not span.extend(rows[:1]).any()  # keeps nothing: R^-1 stands
    assert span._r_inv is cached
    assert np.array_equal(span.coefficients(probes)[:, :-1], fresh.coefficients(probes))


def _incremental_span(rows):
    """Span built by one add per row: the unblocked decision order."""
    span = sh.Span(rows.shape[1])
    for row in rows:
        span.add(row)
    return span


@pytest.mark.parametrize(
    "kind", ["random", "rank_deficient", "near_dependent", "three_blocks", "a0_tiny_b"]
)
def test_blocked_span_matches_incremental_adds(kind):
    rng = np.random.default_rng(33)
    rows = _span_rows(kind, rng)
    blocked, incremental = sh.Span.of(rows), _incremental_span(rows)
    assert blocked.index == incremental.index
    assert np.array_equal(np.array(blocked.kept), np.array(incremental.kept))
    if kind == "a0_tiny_b":
        assert blocked.index == [0, 2]
    if kind == "three_blocks":
        assert len(rows) > 3 * _SPAN_BLOCK and _SPAN_BLOCK < blocked.rank < len(rows)
    q = blocked._q
    np.testing.assert_allclose(q @ q.conj().T, np.eye(blocked.rank), atol=1e-12)
    probes = np.concatenate([rows, _complex_normal(rng, 5, rows.shape[1])])
    np.testing.assert_allclose(blocked.residuals(probes), incremental.residuals(probes),
                               rtol=1e-6, atol=1e-13)
    assert np.array_equal(blocked.contains(probes), incremental.contains(probes))


def _pairwise_closure(S):
    """Oracle for close_under_products: one Span.add per product, in
    lexicographic pair order, as the closure was built before Span.extend."""
    span = sh.Span(S.space.size * S.scalars.dim)
    unit = S.unit_table()
    if not S.span.contains(unit)[0]:
        span.add(unit)
    for t in S.basis:
        span.add(t)
    while True:
        added = False
        snapshot = [t.reshape(S.space.size, S.scalars.dim) for t in span.kept]
        for i in range(len(snapshot)):
            for j in range(i, len(snapshot)):
                added |= span.add(sh.pointwise_product(S, snapshot[i], snapshot[j]))
        if not added:
            break
    return np.array(span.kept).reshape(span.rank, S.space.size, S.scalars.dim)


@pytest.mark.parametrize(
    "name, n, degree",
    [("C", 8, 1), ("C", 30, 2), ("dual_numbers", 5, 1), ("pointwise_2", 6, 1),
     ("truncated_poly_3", 4, 1), ("no_unit", 6, 1)],
)
def test_closure_by_blocks_matches_pairwise_adds(name, n, degree):
    rng = np.random.default_rng(34)
    X = random_space(rng, n)
    if name == "no_unit":  # span{z}: the unit goes in first
        S = scalar_system(X.coords, [X.coords])
    else:
        E = sh.complex_field() if name == "C" else sh.preset_algebra(name)
        S = sh.make_poly(X, E, degree)
    closed = sh.close_under_products(S)
    oracle = _pairwise_closure(S)
    assert closed.closed
    assert closed.basis.shape == oracle.shape and closed.basis.tobytes() == oracle.tobytes()


# --- constructors ----------------------------------------------------------------


def test_make_CXE_dimension():
    X = sh.FiniteSpace(("a", "b"), np.array([0j, 1 + 0j]))
    E = sh.preset_algebra("pointwise_2")
    system = sh.make_CXE(X, E)
    assert system.dim == 4
    assert system.closed
    assert sh.validate_system(system).passed


def test_make_poly_dedups():
    rng = np.random.default_rng(4)
    X = random_space(rng, 3)
    P = sh.make_poly(X, sh.complex_field(), 2)
    assert P.dim == 3
    bigger = sh.make_poly(X, sh.complex_field(), 7)  # z^k dependent for k >= 3
    assert bigger.dim == 3


def test_make_rational_includes_pole_powers():
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    X = sh.sample_raster(ann, sh.CircleSample(0, 0.75, 8))
    R = sh.make_rational(X, sh.complex_field(), 2, [0])
    inv = (1.0 / X.coords)[:, None]
    inv2 = (1.0 / X.coords**2)[:, None]
    assert sh.span_membership(R, inv) is not None
    assert sh.span_membership(R, inv2) is not None


def test_make_rational_pole_collision():
    X = sh.FiniteSpace(("a", "b"), np.array([0.5 + 0j, 1.0 + 0j]))
    with pytest.raises(ValueError):
        sh.make_rational(X, sh.complex_field(), 2, [0.5])


def _two_pass_rational(X, E, degree, poles):
    """Oracle for make_rational's basis: make_poly's kept tables, spanned
    again followed by the pole tables, as make_rational was built before."""
    z = X.coords
    poly = sh.make_poly(X, E, degree)
    powers = []
    for c in poles:
        inv = power = 1.0 / (z - complex(c))
        for _ in range(degree):
            powers.append(power)
            power = power * inv
    pole_tables = sh.function_algebras._times_units(np.reshape(powers, (-1, X.size)), E)
    span = sh.Span.of(np.concatenate([poly.basis.reshape(poly.dim, -1), pole_tables]))
    return np.array(span.kept).reshape(span.rank, X.size, E.dim)


@pytest.mark.parametrize("name", ["complex", "pointwise_2", "dual_numbers"])
@pytest.mark.parametrize("poles", [[0], [0, 0.1 + 2j]])
@pytest.mark.parametrize("full", [True, False])
def test_make_rational_in_one_pass_matches_two(name, poles, full):
    rng = np.random.default_rng(26)
    E = sh.preset_algebra(name)
    X = random_space(rng, 5 if full else 30)
    R = sh.make_rational(X, E, 4, poles)
    assert (R.dim == X.size * E.dim) is full
    assert np.array_equal(R.basis, _two_pass_rational(X, E, 4, poles))


def test_span_BE_dimensions():
    rng = np.random.default_rng(6)
    X = random_space(rng, 2)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_CXE(X, sh.complex_field())
    assert sh.span_BE(B, E).dim == 4  # all of C(X, E)

    X1 = sh.FiniteSpace(("only",), np.array([0j]))
    B1 = sh.make_CXE(X1, sh.complex_field())
    assert sh.span_BE(B1, sh.preset_algebra("truncated_poly_3")).dim == 3

    S = scalar_system([-1, 1], [[1, 1], [-1, 1]])
    assert sh.span_BE(S, E).dim == 4


def test_separation_check():
    rng = np.random.default_rng(7)
    X = random_space(rng, 3)
    E = sh.preset_algebra("dual_numbers")
    assert sh.separation_check(sh.make_CXE(X, E))
    constants = sh.FunctionSystem(
        X, E, np.broadcast_to(E.unit, (1, 3, 2)).copy()
    )
    assert not sh.separation_check(constants)
    assert sh.separation_check(scalar_system(X.coords, [np.ones(3), X.coords]))


def _separation_oracle(S):
    """separation_check as a loop over every pair of points."""
    for x, y in itertools.combinations(range(S.space.size), 2):
        diff = np.abs(S.basis[:, x, :] - S.basis[:, y, :]) @ S.scalars.weights
        if diff.max() <= SEPARATION_TOL:
            return False
    return True


def _separation_cases():
    """Random systems over C, dual_numbers and pointwise_2: as drawn, with a
    duplicated point, with a point moved by 1e-10 (not separated) and with
    a point moved by 1e-8 (separated)."""
    rng = np.random.default_rng(51)
    algebras = [sh.complex_field(), sh.dual_numbers(), sh.preset_algebra("pointwise_2")]
    for case in range(48):
        E = algebras[case % 3]
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 4))
        X = random_space(rng, n)
        shape = (m, n, E.dim)
        basis = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x, y = (int(i) for i in rng.choice(n, size=2, replace=False))
        move = (case // 3) % 4
        if move:
            shift = rng.standard_normal((m, E.dim)) + 1j * rng.standard_normal((m, E.dim))
            basis[:, y] = basis[:, x] + (0.0, 1e-10, 1e-8)[move - 1] * shift
        yield sh.FunctionSystem(X, E, basis)


def test_separation_check_matches_the_pair_loop():
    verdicts = []
    for S in _separation_cases():
        verdicts.append(sh.separation_check(S))
        assert verdicts[-1] == _separation_oracle(S)
    assert True in verdicts and False in verdicts


def test_separation_check_is_fast_on_many_points():
    rng = np.random.default_rng(52)
    coords = rng.uniform(-1, 1, 2000) + 1j * rng.uniform(-1, 1, 2000)
    X = sh.FiniteSpace(tuple(f"p{k}" for k in range(2000)), coords)
    S = sh.make_poly(X, sh.dual_numbers(), 2)
    start = time.perf_counter()
    assert sh.separation_check(S)
    assert time.perf_counter() - start < 1.0


def test_embedding_constant():
    S = scalar_system([0, 1], [[1, 1], [0, 1]], norm_tag="sup")
    assert sh.embedding_constant(S) == 1.0

    lip = scalar_system([0, 1], [[1, 1]], norm_tag="lipschitz", alpha=1.0)
    assert sh.embedding_constant(lip) == 1.0
    # the constants attain 1; the coordinate function only 1/2
    lip2 = scalar_system([0, 1], [[1, 1], [0, 1]], norm_tag="lipschitz", alpha=1.0)
    assert sh.embedding_constant(lip2) == 1.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ratio = sh.sup_norm(lip2, f) / sh.lipschitz_norm(lip2, f)
        assert ratio <= 1.0 + 1e-12


@pytest.mark.parametrize("name", ["complex", "cyclic_group_3"])
def test_embedding_constant_is_one_on_spans_with_the_unit(name):
    X = sh.FiniteSpace(("a", "b", "c"), np.array([0.2 + 0.1j, 0.9 - 0.3j, -0.5 + 0.7j]))
    # 1_E has Lipschitz seminorm 0, so it attains the largest ratio, 1
    assert sh.embedding_constant(sh.make_lip(X, sh.preset_algebra(name), 0.5)) == 1.0
    # a Lipschitz span without 1_E (span{e_1} on two points) has no exact constant here
    single = scalar_system([0, 1], [[0, 1]], norm_tag="lipschitz", alpha=1.0)
    with pytest.raises(ValueError, match="does not hold 1_E"):
        sh.embedding_constant(single)


# --- abstract algebra view and quadruples -----------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_hausner_character_count(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    E = sh.preset_algebra(name)
    X = random_space(rng, 3)
    Bt = sh.make_CXE(X, E)
    alg = sh.as_algebra(Bt)
    assert sh.validate_algebra(alg).passed
    chars = sh.characters(alg)
    assert len(chars) == PRESET_CHARACTER_COUNTS[name] * 3


def test_as_algebra_requires_closed():
    rng = np.random.default_rng(10)
    X = random_space(rng, 4)
    P = sh.make_poly(X, sh.complex_field(), 1)  # {1, z} on 4 points: not closed
    assert not P.closed
    with pytest.raises(ValueError):
        sh.as_algebra(P)
    with pytest.raises(ValueError, match="closed"):
        sh.check_pi_injective(sh.scalar_quadruple(P))


def _all_pairs_products(S):
    """Oracle for _basis_products: the flattened products of all m^2 pairs."""
    products = np.einsum("ixp,jxq,pqk->ijxk", S.basis, S.basis, S.scalars.structure)
    return products.reshape(S.dim * S.dim, -1)


def _dense_as_algebra(S):
    """Oracle for as_algebra on _all_pairs_products: (structure, unit,
    weights) from every pair's row, symmetrized as one m^3 tensor."""
    m, span = S.dim, S.span
    with single_threaded():  # as as_algebra runs
        products = _all_pairs_products(S)
        if not span.contains(products).all():
            raise ValueError("not closed")
        coeffs = span.coefficients(products).reshape(m, m, m)
        coeffs = 0.5 * (coeffs + coeffs.transpose(1, 0, 2))
        unit = span.coefficients(S.unit_table())[0]
    weight = max(1.0, float(np.abs(coeffs).sum(axis=2).max()))
    return coeffs, unit, np.full(m, weight)


PRODUCT_PRESETS = ["pointwise_3", "truncated_poly_3", "dual_numbers", "cyclic_group_3"]


def _product_case(case, name, n):
    rng = np.random.default_rng(n)
    X = random_space(rng, n)
    if case == "cxe" and name == "conjugated":  # c[p, q] != c[q, p] by roundoff
        return sh.make_CXE(X, conjugated_algebra(rng, sh.preset_algebra("cyclic_group_3")))
    if case == "cxe":
        return sh.make_CXE(X, sh.preset_algebra(name))
    if case == "lip":
        return sh.make_lip(X, sh.preset_algebra(name), 0.5)
    E = sh.complex_field() if name == "C" else sh.preset_algebra(name)
    if case == "poly":
        return sh.make_poly(X, E, n - 1)  # full rank: closed, every pair meets
    return sh.close_under_products(sh.make_poly(X, E, 1))


@pytest.mark.parametrize(
    "case, name, n",
    [(case, name, n) for case in ("cxe", "lip") for name in PRODUCT_PRESETS for n in (8, 24)]
    + [("cxe", "conjugated", 6), ("poly", "C", 7), ("poly", "pointwise_3", 5),
       ("closure", "C", 8)],
)
def test_as_algebra_matches_the_all_pairs_oracle(case, name, n):
    S = _product_case(case, name, n)
    assert S.closed
    i, j, products = sh.function_algebras._basis_products(S)
    d = S.scalars.dim
    assert i.size == (S.dim**2 if case in ("poly", "closure") else n * d * d)
    np.testing.assert_array_equal(products, _all_pairs_products(S)[i * S.dim + j])
    A = sh.as_algebra(S)
    structure, unit, weights = _dense_as_algebra(S)
    # bit-equal, the closure's dense basis included: only the zero products
    # of disjoint supports are skipped, every other entry's arithmetic is kept
    assert np.array_equal(A.structure, structure)
    assert np.array_equal(A.unit, unit)
    assert np.array_equal(A.weights, weights)


def test_unclosed_span_flagged_closed_is_caught():
    X = random_space(np.random.default_rng(12), 3)
    S = sh.make_poly(X, sh.complex_field(), 1)  # {1, z}: z^2 is missing
    assert not sh.validate_system(S).check("product_closed").passed
    with pytest.raises(ValueError, match="not closed"):
        _dense_as_algebra(S)
    with pytest.raises(ValueError, match="not closed"):
        sh.as_algebra(S)


def test_as_algebra_and_naturality_of_CXE_in_bounded_memory():
    # C(X, C^3) at |X| = 48: m = 144, one m^3 tensor is 48 MB; the all-pairs
    # path peaked at 229 MB here, 4.8 m^3 complex entries
    X = random_space(np.random.default_rng(0), 48)
    S = sh.make_CXE(X, sh.preset_algebra("pointwise_3"))
    m = S.dim
    tracemalloc.start()
    try:
        A = sh.as_algebra(S)
        natural = sh.function_algebras._naturality(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.dim == m == 144 and natural[0]
    assert peak < 3 * m**3 * 16


def test_check_admissible_full_case():
    rng = np.random.default_rng(12)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    report = sh.check_admissible(Q)
    assert report.passed, str(report)


def test_check_admissible_constants_fail_naturality():
    rng = np.random.default_rng(14)
    X = random_space(rng, 2)
    E = sh.preset_algebra("pointwise_2")
    constants = sh.FunctionSystem(
        X, sh.complex_field(), np.ones((1, 2, 1), dtype=complex)
    )
    Q = sh.Quadruple(X, E, constants, sh.make_CXE(X, E))
    report = sh.check_admissible(Q)
    assert not report.check("scalar_system_natural").passed


def test_check_admissible_missing_eps_constant():
    rng = np.random.default_rng(15)
    X = random_space(rng, 3)
    E = sh.preset_algebra("dual_numbers")
    B = sh.make_CXE(X, sh.complex_field())
    # vector span {b * 1_E}: contains 1_E, separates, misses eps constants
    tables = np.zeros((B.dim, X.size, E.dim), dtype=complex)
    tables[:, :, 0] = B.basis[:, :, 0]
    Bt = sh.FunctionSystem(X, E, tables)
    Q = sh.Quadruple(X, E, B, Bt)
    report = sh.check_admissible(Q)
    assert not report.check("products_BE_in_vector_system").passed


def test_check_admissible_condition_4_reads_closure():
    # the tiny annulus product quadruple: B~ = span(B E) with B = R_2 on a
    # sampled annulus holds the unit and separates points, but is not closed
    R = sh.raster_from_shape([sh.Annulus(0j, 0.5, 1.0)], 16)
    X = sh.combine_spaces(
        sh.sample_raster(R, sh.CircleSample(0j, 1.0, 6)),
        sh.sample_raster(R, sh.CircleSample(0j, 0.5, 6)),
        sh.sample_raster(R, sh.InteriorGrid(0.5)),
    )
    E = sh.pointwise_algebra(2)
    B = sh.make_rational(X, sh.complex_field(), 2, [0j])
    Bt = sh.span_BE(B, E)
    assert not Bt.closed and Bt.closure_residual > SPAN_TOL
    check = sh.check_admissible(sh.Quadruple(X, E, B, Bt)).check("vector_system_function_algebra")
    assert not check.passed
    assert check.residual == Bt.closure_residual
    assert check.detail.startswith("not closed under products; evaluation maps")
    # a closed B~ reads as before: passed, residual 0, the same detail
    rng = np.random.default_rng(35)
    X = random_space(rng, 3)
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    check = sh.check_admissible(Q).check("vector_system_function_algebra")
    assert (check.passed, check.residual, check.detail) == (
        True, 0.0, "evaluation maps are linear and automatically continuous in finite dimension"
    )


def test_build_pi_scalar_case_is_evaluations():
    rng = np.random.default_rng(16)
    X = random_space(rng, 3)
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.scalar_quadruple(B)
    pi = sh.build_pi(Q)
    assert len(pi) == 3
    evals = B.basis[:, :, 0]
    for k, chi in enumerate(pi):
        assert np.max(np.abs(chi.values - evals[:, k])) < 1e-10


def test_build_pi_counts():
    rng = np.random.default_rng(17)
    X2 = random_space(rng, 2)
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(X2, E, sh.make_CXE(X2, sh.complex_field()), sh.make_CXE(X2, E))
    pi = sh.build_pi(Q)
    assert len(pi) == 4
    values = np.array([c.values for c in pi])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(values[i] - values[j])) > 1e-6

    Xd = random_space(rng, 3)
    Ed = sh.preset_algebra("dual_numbers")
    Qd = sh.Quadruple(Xd, Ed, sh.make_CXE(Xd, sh.complex_field()), sh.make_CXE(Xd, Ed))
    assert len(sh.build_pi(Qd)) == 3  # single character of E


@pytest.mark.parametrize("gap", [0.0, 0.5, 0.9, 1.1, 40.0])
def test_pi_injectivity_compares_rows_without_a_broadcast(monkeypatch, gap):
    """Pairwise sup-norm oracle on random pi rows with one planted pair
    gap * DISTINCT_TOL apart in every coordinate."""
    rng = np.random.default_rng(int(gap * 10))
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    for _ in range(20):
        n, m = int(rng.integers(2, 30)), int(rng.integers(1, 9))
        P = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        i, j = rng.choice(n, 2, replace=False)
        P[j] = P[i] + gap * DISTINCT_TOL * np.exp(2j * np.pi * rng.random(m))
        monkeypatch.setattr(sh.function_algebras, "pi_matrix", lambda S, P=P: P)
        dist = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
        expected = not np.any(dist[np.triu_indices(n, k=1)] <= DISTINCT_TOL)
        assert sh.check_pi_injective(Q) == expected == (gap > 1.0)


def test_pi_outputs_verify_and_natural():
    rng = np.random.default_rng(18)
    X = random_space(rng, 3)
    for name in ("pointwise_2", "dual_numbers"):
        E = sh.preset_algebra(name)
        Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
        pi = sh.build_pi(Q)
        alg = pi[0].algebra
        for chi in pi:
            assert sh.verify_character(alg, chi).passed
        assert sh.check_pi_injective(Q)
        assert sh.check_natural(Q)


def test_lip_quadruple_natural():
    rng = np.random.default_rng(19)
    X = random_space(rng, 3)
    E = sh.preset_algebra("cyclic_group_3")
    Q = sh.Quadruple(X, E, sh.make_lip(X, sh.complex_field(), 0.5), sh.make_lip(X, E, 0.5))
    assert sh.check_admissible(Q).passed
    assert sh.check_natural(Q)


def test_scalar_quadruple_natural():
    rng = np.random.default_rng(20)
    X = random_space(rng, 4)
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.scalar_quadruple(B)
    assert sh.check_admissible(Q).passed
    assert sh.check_natural(Q)


def test_function_system_json_roundtrip():
    rng = np.random.default_rng(22)
    X = random_space(rng, 3)
    for system in (
        sh.make_CXE(X, sh.preset_algebra("dual_numbers")),
        sh.make_lip(X, sh.complex_field(), 0.5),
    ):
        back = sh.FunctionSystem.from_dict(system.to_dict())
        assert back.space.points == system.space.points
        assert np.allclose(back.basis, system.basis)
        assert back.norm_tag == system.norm_tag
        assert back.alpha == system.alpha
        assert back.closed == system.closed
        assert back.scalars.dim == system.scalars.dim


def test_quadruple_invariants():
    rng = np.random.default_rng(21)
    X = random_space(rng, 2)
    Y = random_space(rng, 2)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_CXE(X, sh.complex_field())
    Bt = sh.make_CXE(Y, E)  # wrong space
    with pytest.raises(ValueError):
        sh.Quadruple(X, E, B, Bt)
    with pytest.raises(ValueError):
        sh.Quadruple(X, E, sh.make_CXE(X, E), sh.make_CXE(X, E))  # scalar not C
    # algebras compare by structure: an equal but distinct instance is accepted
    Q = sh.Quadruple(X, E, B, sh.make_CXE(X, sh.preset_algebra("pointwise_2")))
    assert Q.vector_system.scalars is not E
    with pytest.raises(ValueError, match="quadruple's algebra"):
        sh.Quadruple(X, E, B, sh.make_CXE(X, sh.preset_algebra("dual_numbers")))


def test_structure_constants_failing_validation_read_as_not_natural():
    # P_2 closed on 8 random points has a dense, ill-conditioned basis, and
    # as_algebra's structure constants miss associativity by about 2.6e-9
    # (STRUCTURE_TOL is 1e-10): naturality is then reported, not raised
    rng = np.random.default_rng(0)
    z = rng.random(8) + 1j * rng.random(8)
    X = sh.FiniteSpace(tuple(f"p{i}" for i in range(8)), z)
    S = sh.close_under_products(sh.make_poly(X, sh.complex_field(), 2))
    failed = sh.as_algebra(S).validation.check("associativity")
    assert S.closed and not failed.passed
    Q = sh.scalar_quadruple(S)
    check = sh.check_admissible(Q).check("scalar_system_natural")
    assert not check.passed
    assert check.residual == failed.residual
    assert f"associativity at {failed.detail}, residual {failed.residual:.3g}" in check.detail
    assert not sh.check_natural(Q)
    report = sh.verify_peak_product(Q, regime="exact")
    assert report.base.preconditions["natural"] is False
    assert not report.passed and report.base.e_partition is None


def _unit_multiples(X: sh.FiniteSpace, E: sh.AlgebraSpec) -> sh.FunctionSystem:
    """The closed span {b * 1_E : b in C(X)}: pi(psi, x) forgets psi."""
    tables = np.zeros((X.size, X.size, E.dim), dtype=complex)
    for x in range(X.size):
        tables[x, x, :] = E.unit
    return sh.FunctionSystem(X, E, tables, label="C(X)*1_E")


@pytest.mark.parametrize(
    "case, natural",
    [("cxe_scalar", True), ("constants", False), ("cxe_pointwise_2", True),
     ("unit_multiples", False)],
)
def test_one_naturality_rule(case, natural):
    rng = np.random.default_rng(23)
    X = random_space(rng, 3)
    C, E = sh.complex_field(), sh.preset_algebra("pointwise_2")
    if case == "cxe_scalar":
        S = sh.make_CXE(X, C)
    elif case == "constants":
        X = random_space(rng, 2)
        S = sh.FunctionSystem(X, C, np.ones((1, 2, 1), dtype=complex))
    elif case == "cxe_pointwise_2":
        S = sh.make_CXE(X, E)
    else:
        S = _unit_multiples(X, E)

    if S.scalars.dim == 1:
        Q = sh.scalar_quadruple(S)
        condition_3 = sh.check_admissible(Q).check("scalar_system_natural").passed
        assert condition_3 == natural
    else:
        Q = sh.Quadruple(X, E, sh.make_CXE(X, C), S)
    assert sh.check_natural(Q) == natural
    assert sh.check_pi_injective(Q) == natural
    detail = sh.function_algebras._naturality(S)[2]
    assert _character_search_naturality(S) == (natural, detail)


def _character_search_naturality(S: sh.FunctionSystem) -> tuple[bool, str | None]:
    """Oracle for _naturality: (natural, detail) by a character search.  The
    structure constants (as_algebra) must validate, else (False, None).  Then
    each character of as_algebra(S) is matched to its nearest pi row (sup
    norm): natural iff there are as many characters as rows, every match is
    within DISTINCT_TOL and the matching is a permutation of the rows."""
    algebra = sh.as_algebra(S)
    if algebra.validation.failures():
        return False, None
    P = sh.pi_matrix(S)
    chars = sh.characters(algebra)
    dist = np.array([np.abs(P - chi.values).max(axis=1) for chi in chars])
    matched = dist.argmin(axis=1)
    natural = (
        len(chars) == len(P)
        and bool(dist.min(axis=1).max() <= DISTINCT_TOL)
        and sorted(matched) == list(range(len(P)))
    )
    return natural, f"{len(chars)} characters vs {len(P)} points"


def _closed_sample() -> list[tuple[str, sh.FunctionSystem]]:
    """81 closed systems: C(X, E) and the closures of P_1 and P_2 (and of
    span(P_1 E) for E != C) on |X| = 2, 3, 5 and 8 random points of the unit
    square, and the closure of P_2 on 4 points of which two coincide."""
    rng = np.random.default_rng(28)
    C = sh.complex_field()

    def space(n, coincide=False):
        z = rng.random(n) + 1j * rng.random(n)
        if coincide:
            z[-1] = z[0]
        return sh.FiniteSpace(tuple(f"p{k}" for k in range(n)), z)

    algebras = [C] + [sh.preset_algebra(name) for name in
                      ("pointwise_2", "dual_numbers", "truncated_poly_3", "cyclic_group_3")]
    sample = []
    for n in (2, 3, 5, 8):
        X = space(n)
        for E in algebras:
            sample.append((f"C(X,{E.label}), |X| = {n}", sh.make_CXE(X, E)))
            for degree in (1, 2):
                closure = sh.close_under_products(sh.make_poly(X, E, degree))
                sample.append((f"closure(P_{degree}), {E.label}, |X| = {n}", closure))
            if E.dim > 1:
                closure = sh.close_under_products(sh.span_BE(sh.make_poly(X, C, 1), E))
                sample.append((f"closure(span(P_1 E)), {E.label}, |X| = {n}", closure))
    X = space(4, coincide=True)
    for E in algebras:
        sample.append((f"closure(P_2), {E.label}, coincident", sh.close_under_products(
            sh.make_poly(X, E, 2))))
    return sample


def test_naturality_by_distinct_pi_rows_matches_the_character_search():
    gate, collisions = 0, 0
    for key, S in _closed_sample():
        assert S.closed, key
        natural, residual, detail = sh.function_algebras._naturality(S)
        expected, expected_detail = _character_search_naturality(S)
        assert natural == expected, key
        if expected_detail is None:  # the structure-constant gate decided
            assert detail.startswith("structure constants fail"), key
            gate += 1
        else:
            assert (residual, detail) == (0.0, expected_detail), key
            collisions += not natural
    assert gate > 0 and collisions > 0  # the sample reaches both ways of failing


def test_exact_checks_run_no_character_search_on_a_system(monkeypatch):
    # every binding of characters.characters in the package, as the
    # benchmark's tracer rebinds it
    original = sys.modules["shilov.characters"].characters
    searched = []

    def spy(E):
        searched.append(E.label)
        return original(E)

    for name, module in list(sys.modules.items()):
        if name == "shilov" or name.startswith("shilov."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    X = random_space(np.random.default_rng(24), 3)
    E = sh.preset_algebra("pointwise_3")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    assert sh.verify_peak_product(Q, regime="exact").passed
    assert sh.check_admissible(Q).passed
    assert "pointwise_3" in searched  # E's own search, through the spy
    assert not [label for label in searched if label.endswith("[alg]")]
