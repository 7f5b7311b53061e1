"""Character computation, Gelfand transforms, radicals, quotients."""

import importlib
import itertools

import numpy as np
import pytest
import scipy.linalg

import shilov as sh
from conftest import (
    PRESET_CHARACTER_COUNTS,
    PRESET_NAMES,
    algebra_in_basis,
    conjugated_algebra,
    direct_product,
    random_space,
)
from shilov.algebra import basis_multiplication_matrices
from shilov.characters import DISTINCT_TOL, _first_distinct, _lexicographic_order

characters_module = importlib.import_module("shilov.characters")  # sh.characters is the function


def _values_multiset(chars):
    return sorted(
        tuple((round(z.real, 6), round(z.imag, 6)) for z in c.values) for c in chars
    )


def test_dual_numbers_single_character():
    E = sh.preset_algebra("dual_numbers")
    chars = sh.characters(E)
    # hand derivation: chi(eps)^2 = chi(eps^2) = 0 forces chi(eps) = 0
    assert len(chars) == 1
    assert np.allclose(chars[0].values, [1.0, 0.0], atol=1e-9)


def test_cyclic_two_characters():
    E = sh.preset_algebra("cyclic_group_2")
    chars = sh.characters(E)
    # chi(g)^2 = chi(1) = 1, so chi(g) = +-1
    assert _values_multiset(chars) == [
        ((1.0, 0.0), (-1.0, 0.0)),
        ((1.0, 0.0), (1.0, 0.0)),
    ]


def test_cyclic_three_roots_of_unity():
    E = sh.preset_algebra("cyclic_group_3")
    chars = sh.characters(E)
    assert len(chars) == 3
    roots = sorted(np.angle(c.values[1]) for c in chars)
    expected = sorted(np.angle(np.exp(2j * np.pi * np.arange(3) / 3)))
    assert np.allclose(roots, expected, atol=1e-8)


def test_character_counts_match_presets(preset):
    chars = sh.characters(preset)
    assert len(chars) == PRESET_CHARACTER_COUNTS[preset.label]


def test_algebra_caches_its_characters(preset):
    cached = preset.characters
    assert isinstance(cached, tuple) and preset.characters is cached
    fresh = sh.characters(preset)
    assert [chi.label for chi in cached] == [chi.label for chi in fresh]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(cached, fresh))


def test_gelfand_transform_values():
    E = sh.preset_algebra("dual_numbers")
    assert np.allclose(sh.gelfand_transform(E, E.element([3, 5])), [3.0])
    assert np.allclose(sh.gelfand_transform(E, E.one()), [1.0])

    Z2 = sh.preset_algebra("cyclic_group_2")
    values = sh.gelfand_transform(Z2, Z2.element([1, 1]))
    assert sorted(np.abs(values)) == pytest.approx([0.0, 2.0], abs=1e-9)


def test_gelfand_norm():
    E = sh.preset_algebra("dual_numbers")
    assert sh.gelfand_norm(E, E.one()) == pytest.approx(1.0)
    assert sh.gelfand_norm(E, E.basis_element(1)) == pytest.approx(0.0, abs=1e-12)
    Z2 = sh.preset_algebra("cyclic_group_2")
    assert sh.gelfand_norm(Z2, Z2.element([1, 1])) == pytest.approx(2.0)


def test_gelfand_norm_below_norm_random(preset):
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = preset.element(
            rng.standard_normal(preset.dim) + 1j * rng.standard_normal(preset.dim)
        )
        assert sh.gelfand_norm(preset, a) <= sh.norm(preset, a) + 1e-9


def test_semisimple_quotient_shapes():
    P2 = sh.preset_algebra("pointwise_2")
    quotient, proj = sh.semisimple_quotient(P2)
    assert quotient.dim == 2
    assert np.linalg.matrix_rank(proj) == 2

    E = sh.preset_algebra("dual_numbers")
    quotient, proj = sh.semisimple_quotient(E)
    assert quotient.dim == 1
    assert np.allclose(proj @ np.array([2.0, 5.0]), [2.0])  # a + b eps -> a

    T = sh.preset_algebra("truncated_poly_3")
    quotient, proj = sh.semisimple_quotient(T)
    assert quotient.dim == 1
    assert np.allclose(proj @ np.array([4.0, 1.0, 2.0]), [4.0])  # p -> p(0)


def test_quotient_projection_is_homomorphism(preset):
    rng = np.random.default_rng(9)
    quotient, proj = sh.semisimple_quotient(preset)
    for _ in range(25):
        a = preset.element(
            rng.standard_normal(preset.dim) + 1j * rng.standard_normal(preset.dim)
        )
        b = preset.element(
            rng.standard_normal(preset.dim) + 1j * rng.standard_normal(preset.dim)
        )
        left = proj @ (a * b).coords
        right = (proj @ a.coords) * (proj @ b.coords)  # pointwise in the quotient
        assert np.max(np.abs(left - right)) < 1e-8
    # kernel of the projection is the radical
    for r in sh.radical(preset):
        assert np.max(np.abs(proj @ r.coords)) < 1e-8


def test_verify_character_examples():
    E = sh.preset_algebra("dual_numbers")
    good = sh.Character([1.0, 0.0], E)
    assert sh.verify_character(E, good).passed

    bad = sh.Character([1.0, 1.0], E)
    report = sh.verify_character(E, bad)
    assert not report.check("multiplicative").passed

    zero = sh.Character([0.0, 0.0], E)
    assert not sh.verify_character(E, zero).check("unital").passed


def test_rank_identity_presets_and_random(preset):
    rng = np.random.default_rng(31)
    chars = sh.characters(preset)
    rad = sh.radical(preset)
    assert len(chars) + len(rad) == preset.dim
    for trial in range(3):
        twisted = conjugated_algebra(rng, preset)
        assert sh.validate_algebra(twisted).passed
        tchars = sh.characters(twisted)
        trad = sh.radical(twisted)
        assert len(tchars) == len(chars)
        assert len(tchars) + len(trad) == preset.dim


def test_homomorphism_property(preset):
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = preset.element(
            rng.standard_normal(preset.dim) + 1j * rng.standard_normal(preset.dim)
        )
        b = preset.element(
            rng.standard_normal(preset.dim) + 1j * rng.standard_normal(preset.dim)
        )
        lhs = sh.gelfand_transform(preset, a * b)
        rhs = sh.gelfand_transform(preset, a) * sh.gelfand_transform(preset, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_characters_kill_radical(preset):
    for r in sh.radical(preset):
        for chi in preset.characters:
            assert abs(chi(r)) < 1e-8


def _random_combination_block(E):
    """Reference for characters._block_characters: the random-combination
    search.  The Schur form of a seeded random combination of the radical
    quotient's multiplication matrices triangularizes all of them, and the
    diagonals give the tuples; five seeds at most."""
    W = characters_module._semisimple_split(E)
    reduced = E if W.shape[1] == E.dim else characters_module._quotient_spec(E, W)
    mats = basis_multiplication_matrices(reduced)
    rng = np.random.default_rng(0)
    for _ in range(5):
        t = rng.standard_normal(reduced.dim) + 1j * rng.standard_normal(reduced.dim)
        _, Q = scipy.linalg.schur(sum(ti * L for ti, L in zip(t, mats)), output="complex")
        rotated = [Q.conj().T @ L @ Q for L in mats]
        scale = max(max(np.abs(M).max() for M in rotated), 1.0)
        if max(np.abs(np.tril(M, -1)).max() for M in rotated) > 1e-7 * scale:
            continue  # the combination did not separate the joint eigenvalues
        tuples = np.column_stack([np.diagonal(M) for M in rotated])
        if reduced is not E:
            tuples = tuples @ W.T.conj()  # pulled back
        accepted = [row for row in tuples if sh.verify_character(E, sh.Character(row, E)).passed]
        if accepted:
            return np.array(accepted)
    raise AssertionError(f"no separating triangularization for {E.label!r}")


def _assert_matches_the_random_combination_search(E, monkeypatch):
    found = sh.characters(E)
    with monkeypatch.context() as patch:
        patch.setattr(characters_module, "_block_characters", _random_combination_block)
        reference = sh.characters(E)
    assert [chi.label for chi in found] == [chi.label for chi in reference], E.label
    for chi, ref in zip(found, reference):  # the same order
        assert np.abs(chi.values - ref.values).max() < DISTINCT_TOL, E.label


def test_seed_independence(preset, monkeypatch):
    # no seed moves a character: the eigenvalue split gives the seeded
    # random-combination search's list
    assert not hasattr(characters_module, "CHARACTER_SEED")
    _assert_matches_the_random_combination_search(preset, monkeypatch)


def _cyclic_pair_algebra(a, b):
    """The group algebra of Z_a x Z_b, basis e_(i, j) at i b + j."""
    n = a * b
    c = np.zeros((n, n, n), dtype=complex)
    for i1, j1, i2, j2 in itertools.product(range(a), range(b), range(a), range(b)):
        c[i1 * b + j1, i2 * b + j2, (i1 + i2) % a * b + (j1 + j2) % b] = 1.0
    unit = np.zeros(n)
    unit[0] = 1.0
    return sh.AlgebraSpec(n, c, unit, np.ones(n), f"Z{a}xZ{b}")


def _oracle_algebras():
    rng = np.random.default_rng(82)
    for name in ("complex", "cyclic_group_2", "cyclic_group_6", "cyclic_group_16",
                 "cyclic_group_64", "pointwise_8", "truncated_poly_5"):
        yield sh.preset_algebra(name)
    local = ["complex", "dual_numbers", "truncated_poly_3"]
    for _ in range(12):  # products of local algebras, each in a random basis
        factors = [sh.preset_algebra(local[i]) for i in rng.integers(0, 3, rng.integers(2, 4))]
        E, _ = direct_product(factors, np.arange(sum(F.dim for F in factors)))
        yield conjugated_algebra(rng, E)
    for n in (8, 16):
        yield conjugated_algebra(rng, sh.preset_algebra(f"pointwise_{n}"))
    # at n = 32 a Gaussian basis is rarely within conjugated_algebra's
    # condition bound: a unitary one, columns scaled by up to 4
    Q, _ = np.linalg.qr(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    yield algebra_in_basis(sh.preset_algebra("pointwise_32"), Q * rng.uniform(0.25, 1, 32))
    for a in range(2, 7):
        for b in range(a, 7):
            yield _cyclic_pair_algebra(a, b)
    for n in (6, 12):  # a closed P_2 system as an abstract algebra
        P = sh.make_poly(random_space(rng, n), sh.complex_field(), 2)
        yield sh.as_algebra(sh.close_under_products(P))


def test_eigenvalue_split_matches_the_random_combination_search(monkeypatch):
    for E in _oracle_algebras():
        assert E.validation.passed, E.label
        _assert_matches_the_random_combination_search(E, monkeypatch)


def test_invalid_algebra_rejected():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 0.5
    E = sh.AlgebraSpec(2, c, [1, 0], [1, 1], "broken")
    with pytest.raises(ValueError):
        sh.characters(E)


def _tuple_key_order(rows):
    """The character order as tuple keys: (re, im) values rounded to 9
    decimals, then the raw values, in a stable sort."""
    def key(i):
        raw = tuple(x for z in rows[i] for x in (z.real, z.imag))
        return tuple(round(x, 9) + 0.0 for x in raw), raw

    return sorted(range(len(rows)), key=key)


def test_character_order_matches_tuple_keys():
    rng = np.random.default_rng(80)
    levels = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 0.123456789, 1.0 / 3.0])
    # 9-digit ties broken by the raw values, and one that rounds up
    noise = np.array([0.0, 1e-12, -1e-12, 2e-10, 6e-10])
    for _ in range(60):
        t, n = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        parts = []
        for _ in range(2):
            base = rng.choice(levels, (t, n))
            jitter = rng.choice(noise, (t, n))
            parts.append(np.where(jitter == 0.0, base, base + jitter))  # keeps -0.0
        rows = parts[0] + 1j * parts[1]
        rows[rng.integers(0, t, t // 3)] = rows[0]  # exact duplicates keep input order
        assert list(_lexicographic_order(rows)) == _tuple_key_order(rows)


def test_first_distinct_matches_the_greedy_scan():
    rng = np.random.default_rng(81)
    tol = DISTINCT_TOL
    for _ in range(40):
        t, n = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        centers = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        rows = centers[rng.integers(0, 4, t)]
        # offsets of 0.6 tol chain rows that are 1.2 tol apart through a middle one
        rows = rows + tol * rng.choice([0.0, 0.6, -0.6, 3.0], (t, n))
        kept: list[np.ndarray] = []
        for row in rows:
            if all(np.max(np.abs(row - u)) >= tol for u in kept):
                kept.append(row)
        found = _first_distinct(rows)
        assert np.array_equal(found, np.array(kept).reshape(-1, n))
