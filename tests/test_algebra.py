"""Structure-constant algebras: products, norms, validation, inversion."""

import importlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

import shilov as sh
from conftest import PRESET_NAMES, conjugated_algebra, direct_product


def test_dual_numbers_nilpotent():
    E = sh.preset_algebra("dual_numbers")
    eps = E.basis_element(1)
    assert np.allclose((eps * eps).coords, 0.0)


def test_pointwise_idempotents_orthogonal():
    E = sh.preset_algebra("pointwise_2")
    e1, e2 = E.basis_element(0), E.basis_element(1)
    assert np.allclose((e1 * e2).coords, 0.0)
    assert np.allclose((e1 * e1).coords, e1.coords)


def test_cyclic_group_relation():
    E = sh.preset_algebra("cyclic_group_2")
    g = E.basis_element(1)
    assert np.allclose((g * g).coords, E.unit)
    E3 = sh.preset_algebra("cyclic_group_3")
    g = E3.basis_element(1)
    assert np.allclose((g * g * g).coords, E3.unit)


def test_norm_values():
    E = sh.preset_algebra("dual_numbers")
    assert sh.norm(E, E.element([1, 1])) == pytest.approx(2.0)
    assert sh.norm(E, E.zero()) == 0.0
    P = sh.preset_algebra("pointwise_2")
    assert sh.norm(P, P.element([3, 4j])) == pytest.approx(7.0)


def test_validate_presets_pass():
    for name in PRESET_NAMES:
        report = sh.validate_algebra(sh.preset_algebra(name))
        assert report.passed, str(report)


def test_validate_catches_noncommutative():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 0.5  # e_1 e_0 != e_0 e_1
    E = sh.AlgebraSpec(2, c, [1, 0], [1, 1], "broken")
    report = sh.validate_algebra(E)
    check = report.check("commutativity")
    assert not check.passed
    assert "e_0*e_1" in check.detail or "e_1*e_0" in check.detail


def test_validate_catches_nonassociative_worst_triple():
    # e_0 = 1, e_1^2 = e_2, e_2^2 = e_3, e_2 e_3 = 2 e_2, all other products
    # of e_1, e_2, e_3 zero: commutative with a unit, but not associative.
    c = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        c[0, i, i] = c[i, 0, i] = 1.0
    c[1, 1, 2] = 1.0
    c[2, 2, 3] = 1.0
    c[2, 3, 2] = c[3, 2, 2] = 2.0
    E = sh.AlgebraSpec(4, c, [1, 0, 0, 0], [1, 1, 1, 1], "nonassociative")
    report = sh.validate_algebra(E)
    assert report.check("commutativity").passed
    assert report.check("unit_law").passed
    check = report.check("associativity")
    assert not check.passed
    # the first index 1 gives at most |(e_1 e_1) e_3 - e_1 (e_1 e_3)| = 2;
    # (e_2 e_3) e_3 - e_2 (e_3 e_3) = 4 e_2 - 0 is the first worst triple
    assert check.detail == "(e_2 e_3) e_3"
    assert check.residual == 4.0


def test_validate_dim_64_in_bounded_memory():
    # dim 64 holds 64^4 associativity entries (268 MB as one complex tensor)
    E = sh.pointwise_algebra(64)
    tracemalloc.start()
    try:
        report = sh.validate_algebra(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, str(report)
    assert peak < 64 * 2**20


def test_validate_dense_dim_64_in_bounded_memory():
    # Z_64 is one dense block, so its n^5 scan runs on all 64 dimensions
    E = sh.cyclic_group_algebra(64)
    assert [block.dim for block, _ in sh.algebra._distinct_blocks(E)] == [64]
    tracemalloc.start()
    try:
        report = sh.validate_algebra(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, str(report)
    assert peak < 64 * 2**20


def _dense_validation(E: sh.AlgebraSpec) -> dict:
    """Oracle for validate_algebra: every identity on the whole n^4 tensor,
    the first worst entry in C order."""
    c, n, tol = E.structure, E.dim, sh.algebra.STRUCTURE_TOL

    def worst(residuals):
        flat = int(np.argmax(residuals))
        return float(residuals.flat[flat]), np.unravel_index(flat, residuals.shape)

    checks = []
    value, (i, j, _) = worst(np.abs(c - c.transpose(1, 0, 2)))
    checks.append(("commutativity", value, f"e_{i}*e_{j}"))
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    value, (i, j, k, _) = worst(np.abs(left - right))
    checks.append(("associativity", value, f"(e_{i} e_{j}) e_{k}"))
    unit_res = np.abs(np.einsum("j,jik->ik", E.unit, c) - np.eye(n))
    value, (i, _) = worst(unit_res)
    checks.append(("unit_law", value, f"unit*e_{i} != e_{i}"))
    norms = np.einsum("k,ijk->ij", E.weights, np.abs(c))
    bound = np.outer(E.weights, E.weights)
    value, (i, j) = worst(norms - bound)
    checks.append((
        "submultiplicativity", max(value, 0.0),
        f"||e_{i} e_{j}|| = {norms[i, j]:.6g} > {bound[i, j]:.6g}",
    ))
    return {
        name: (value <= tol, value, detail if value > tol else "")
        for name, value, detail in checks
    }


def _report(E: sh.AlgebraSpec) -> dict:
    return {c.name: (c.passed, c.residual, c.detail) for c in sh.validate_algebra(E).checks}


def _same_report(found: dict, expected: dict) -> bool:
    """Equal verdicts and details; residuals equal up to the roundoff of
    another summation order."""
    return found.keys() == expected.keys() and all(
        found[name][::2] == expected[name][::2]
        and found[name][1] == pytest.approx(expected[name][1], rel=1e-9, abs=1e-13)
        for name in found
    )


def _presets_product(rng, extra=()):
    factors = [sh.preset_algebra(name) for name in (
        "dual_numbers", "cyclic_group_3", "truncated_poly_3", "pointwise_2", "cyclic_group_3",
    )] + [conjugated_algebra(rng, sh.preset_algebra("cyclic_group_3")), *extra]
    n = sum(F.dim for F in factors)
    return factors, *direct_product(factors, rng.permutation(n))


def _stacked_characters(factors, slots, n):
    """M(F_1 x F_2 x ...): each factor's characters extended by zero."""
    rows = []
    for F, idx in zip(factors, slots):
        for chi in sh.characters(F):
            row = np.zeros(n, dtype=complex)
            row[idx] = chi.values
            rows.append(row)

    def key(row):  # the character order: rounded (re, im) values, then raw
        raw = tuple(x for z in row for x in (z.real, z.imag))
        return tuple(round(x, 9) + 0.0 for x in raw), raw

    return sorted(rows, key=key)


def test_permuted_product_of_presets_splits_into_its_factors():
    rng = np.random.default_rng(70)
    for _ in range(3):
        factors, E, slots = _presets_product(rng)
        blocks = sh.algebra._distinct_blocks(E)
        assert sorted(idx.size for _, copies in blocks for idx in copies) == sorted(
            [2, 3, 3, 1, 1, 3, 3]
        )
        assert _same_report(_report(E), _dense_validation(E))
        assert sh.validate_algebra(E).passed
        chars = sh.characters(E)
        expected = _stacked_characters(factors, slots, E.dim)
        assert len(chars) == len(expected) == 1 + 3 + 1 + 2 + 3 + 3
        for chi, row in zip(chars, expected):
            assert np.abs(chi.values - row).max() <= 1e-12
        assert [chi.label for chi in chars] == [f"chi{k}" for k in range(len(chars))]


def test_block_split_is_computed_once_per_algebra(monkeypatch):
    split = sh.algebra._distinct_blocks
    calls = []

    def counting(E):
        calls.append(E.dim)
        return split(E)

    monkeypatch.setattr(sh.algebra, "_distinct_blocks", counting)
    _, E, _ = _presets_product(np.random.default_rng(71))
    assert sh.validate_algebra(E).passed
    assert len(sh.characters(E)) == 1 + 3 + 1 + 2 + 3 + 3
    assert E.validation.passed and E.characters
    assert calls == [E.dim]


def test_block_defect_is_named_by_global_indices():
    # the non-associative algebra of the test above as one factor
    c = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        c[0, i, i] = c[i, 0, i] = 1.0
    c[1, 1, 2] = 1.0
    c[2, 2, 3] = 1.0
    c[2, 3, 2] = c[3, 2, 2] = 2.0
    bad = sh.AlgebraSpec(4, c, [1, 0, 0, 0], [1, 1, 1, 1], "nonassociative")
    rng = np.random.default_rng(71)
    for _ in range(4):
        _, E, slots = _presets_product(rng, extra=[bad])
        report = _report(E)
        assert _same_report(report, _dense_validation(E))
        passed, residual, detail = report["associativity"]
        assert not passed and residual == sh.validate_algebra(bad).check("associativity").residual
        worst = [int(i) for i in re.findall(r"\d+", detail)]
        assert set(worst) <= set(slots[-1].tolist())

        # a commutativity defect in another block, with that block's residual
        c2 = E.structure.copy()
        a, b = slots[1][1], slots[1][2]  # g and g^2 of a cyclic_group_3 copy
        c2[a, b, slots[1][0]] += 0.5
        E2 = sh.AlgebraSpec(E.dim, c2, E.unit, E.weights, "defect")
        report = _report(E2)
        assert _same_report(report, _dense_validation(E2))
        assert report["commutativity"] == (False, 0.5, f"e_{min(a, b)}*e_{max(a, b)}")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_entry_fails_validation(value):
    rng = np.random.default_rng(72)
    _, E, slots = _presets_product(rng)
    c = E.structure.copy()
    i = slots[2][1]
    c[i, i, slots[2][2]] = value
    E = sh.AlgebraSpec(E.dim, c, E.unit, E.weights, "non-finite")
    with np.errstate(invalid="ignore"):
        assert not sh.validate_algebra(E).passed
        with pytest.raises(ValueError, match="fails validation"):
            sh.characters(E)


def test_cxe_algebra_triangularizes_one_block(monkeypatch):
    module = importlib.import_module("shilov.characters")
    dims = []

    def counting(E, rng):
        dims.append(E.dim)
        return tuple_search(E, rng)

    tuple_search = module._candidate_tuples
    monkeypatch.setattr(module, "_candidate_tuples", counting)
    X = sh.FiniteSpace(tuple(f"p{i}" for i in range(6)))
    for name, dim in (("pointwise_3", 1), ("cyclic_group_3", 3)):
        dims.clear()
        A = sh.as_algebra(sh.make_CXE(X, sh.preset_algebra(name)))
        assert len(sh.characters(A)) == 18
        assert dims == [dim]


def test_validate_catches_bad_weights():
    # Z_2 group algebra with weights (1, 0.5): ||g*g|| = ||1|| = 1 > 0.25
    base = sh.preset_algebra("cyclic_group_2")
    E = sh.AlgebraSpec(2, base.structure, base.unit, [1.0, 0.5], "badweights")
    report = sh.validate_algebra(E)
    check = report.check("submultiplicativity")
    assert not check.passed
    # the certificate inequality itself, evaluated directly
    prod_norm = np.dot(E.weights, np.abs(E.structure[1, 1]))
    assert prod_norm == pytest.approx(1.0)
    assert prod_norm > E.weights[1] * E.weights[1]


def test_invert_unit_and_dual():
    E = sh.preset_algebra("dual_numbers")
    assert np.allclose(sh.invert(E, E.one()).coords, E.unit)
    # independent oracle: solve the 2x2 system L_{1+eps} x = unit by hand
    a = E.element([1, 1])
    L = np.array([[1, 0], [1, 1]], dtype=complex)  # multiplication by 1+eps
    expected = np.linalg.solve(L, np.array([1, 0], dtype=complex))
    assert np.allclose(expected, [1, -1])
    assert np.allclose(sh.invert(E, a).coords, expected, atol=1e-12)


def test_invert_nilpotent_fails():
    E = sh.preset_algebra("dual_numbers")
    with pytest.raises(sh.NotInvertibleError):
        sh.invert(E, E.basis_element(1))
    assert not sh.is_invertible(E, E.basis_element(1))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_invert_is_scale_free(name):
    # the rank cut is relative: a tiny multiple of the unit is invertible
    E = sh.preset_algebra(name)
    x = sh.invert(E, 1e-9 * E.one())
    assert np.allclose(x.coords, 1e9 * E.unit, rtol=1e-12, atol=1e-3)


def test_invert_roundtrip():
    rng = np.random.default_rng(5)
    for name in PRESET_NAMES:
        E = sh.preset_algebra(name)
        for _ in range(20):
            a = E.element(rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim))
            if not sh.is_invertible(E, a):
                continue
            back = sh.invert(E, sh.invert(E, a))
            assert np.max(np.abs(back.coords - a.coords)) < 1e-8


def test_submultiplicativity_random():
    rng = np.random.default_rng(11)
    for name in PRESET_NAMES:
        E = sh.preset_algebra(name)
        for _ in range(200):
            a = E.element(rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim))
            b = E.element(rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim))
            assert sh.norm(E, a * b) <= sh.norm(E, a) * sh.norm(E, b) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=6, max_size=6
    ),
    scale=st.floats(-3, 3),
)
def test_multiply_bilinear(data, scale):
    E = sh.preset_algebra("cyclic_group_2")
    (a1, a2), (b1, b2), (c1, c2) = data[0:2], data[2:4], data[4:6]
    a = E.element([complex(*a1), complex(*a2)])
    b = E.element([complex(*b1), complex(*b2)])
    c = E.element([complex(*c1), complex(*c2)])
    left = (scale * a + b) * c
    right = scale * (a * c) + b * c
    assert np.max(np.abs(left.coords - right.coords)) <= 1e-10 * (
        1 + np.abs(right.coords).max()
    )


def test_radical_presets():
    assert sh.radical(sh.preset_algebra("pointwise_2")) == []
    E = sh.preset_algebra("dual_numbers")
    rad = sh.radical(E)
    assert len(rad) == 1
    # the single character a + b eps -> a has kernel span{eps}
    v = rad[0].coords
    assert abs(v[0]) < 1e-10 and abs(v[1]) == pytest.approx(1.0)

    T = sh.preset_algebra("truncated_poly_3")
    rad = sh.radical(T)
    assert len(rad) == 2
    span = np.array([r.coords for r in rad])
    # radical = span{t, t^2}: no constant component
    assert np.max(np.abs(span[:, 0])) < 1e-10
    assert np.linalg.matrix_rank(span[:, 1:]) == 2


def test_radical_nilpotency():
    from shilov.characters import nilpotency_residual

    for name in PRESET_NAMES:
        E = sh.preset_algebra(name)
        for r in sh.radical(E):
            assert nilpotency_residual(E, r) < 1e-8


def test_preset_lookup_errors():
    with pytest.raises(sh.AlgebraError):
        sh.preset_algebra("nonsense")
    with pytest.raises(sh.AlgebraError):
        sh.preset_algebra("truncated_poly_1")


def test_dim_one_is_complex_field():
    E = sh.preset_algebra("complex")
    assert E.dim == 1
    chars = sh.characters(E)
    assert len(chars) == 1
    assert chars[0](E.one()) == pytest.approx(1.0)
    assert sh.radical(E) == []


def test_algebra_json_roundtrip():
    E = sh.preset_algebra("truncated_poly_3")
    back = sh.AlgebraSpec.from_dict(E.to_dict())
    assert back.dim == E.dim
    assert np.array_equal(back.structure, E.structure)
    assert np.array_equal(back.unit, E.unit)
    assert np.array_equal(back.weights, E.weights)


def test_element_dimension_mismatch():
    E = sh.preset_algebra("dual_numbers")
    with pytest.raises(sh.AlgebraError):
        E.element([1, 2, 3])


# --- connected components ---------------------------------------------------------


def _scipy_components(count, u, v):
    """Oracle for algebra.components: scipy's connected_components, each
    label mapped to the smallest node carrying it."""
    graph = coo_array((np.ones(len(u), dtype=bool), (u, v)), shape=(count, count))
    _, labels = connected_components(graph, directed=False)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def _scipy_support_components(support):
    """Oracle for support_components: the csgraph labelling it replaced."""
    n, k = support.shape
    r, j = np.nonzero(support)
    labels = _scipy_components(n + k, r, n + j)
    return labels[:n], np.minimum(labels[n:], n)


def test_components_match_scipy_on_random_graphs():
    rng = np.random.default_rng(50)
    for _ in range(300):
        count = int(rng.integers(1, 60))
        edges = int(rng.integers(0, 2 * count))
        u, v = rng.integers(0, count, size=(2, edges))  # loops and repeats too
        assert np.array_equal(sh.algebra.components(count, u, v), _scipy_components(count, u, v))


def test_components_follow_a_long_shuffled_path():
    rng = np.random.default_rng(51)
    order = rng.permutation(4000)
    u, v = order[:-1], order[1:]
    assert np.array_equal(sh.algebra.components(4000, u, v), np.zeros(4000, dtype=int))
    # two paths and an isolated node
    u, v = np.delete(u, 1999), np.delete(v, 1999)
    labels = sh.algebra.components(4001, u, v)
    assert np.array_equal(labels, _scipy_components(4001, u, v))
    assert len(np.unique(labels)) == 3


@pytest.mark.parametrize("shape", ["random", "block_diagonal", "banded"])
def test_support_components_match_scipy(shape):
    rng = np.random.default_rng(52)
    for _ in range(40):
        n, k = (int(size) for size in rng.integers(1, 120, size=2))
        if shape == "random":
            support = rng.random((n, k)) < rng.choice([0.01, 0.05, 0.2])
        elif shape == "block_diagonal":
            rows = np.sort(rng.integers(0, 8, n))
            cols = np.sort(rng.integers(0, 8, k))
            support = (rows[:, None] == cols[None, :]) & (rng.random((n, k)) < 0.7)
        else:  # a band: one long path through rows and columns
            support = np.abs(np.arange(n)[:, None] * k / n - np.arange(k)[None, :]) <= 1.0
        support = support[rng.permutation(n)][:, rng.permutation(k)]
        rows, cols = sh.algebra.support_components(support)
        oracle_rows, oracle_cols = _scipy_support_components(support)
        assert np.array_equal(rows, oracle_rows) and np.array_equal(cols, oracle_cols)

