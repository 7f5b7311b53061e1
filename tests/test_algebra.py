"""Structure-constant algebras: products, norms, validation, inversion."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shilov as sh
from conftest import PRESET_NAMES


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
