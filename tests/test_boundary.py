"""Peak certification, boundary checks, product peakers, product theorems."""

import math

import numpy as np
import pytest

import shilov as sh
from conftest import minimax_grid_oracle, random_natural_quadruple, random_space

SEC32 = 1.0 / math.cos(math.pi / 32)


def affine_family():
    """span{1, z} evaluated at X = {0, 0.5, 1}."""
    V = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]], dtype=complex)
    return sh.WitnessFamily(("x0", "x1", "x2"), V, coords=np.array([0, 0.5, 1.0]))


def test_full_algebra_indicator_peaks():
    X = sh.FiniteSpace(("a", "b", "c"), np.array([0j, 1j, 2j]))
    full = sh.make_CXE(X, sh.complex_field())
    W = sh.witnesses_from_system(full)
    cert = sh.certify_peak(W, 1)
    assert cert.status == "certified_peak"
    assert cert.separation == pytest.approx(1.0, abs=1e-9)


def test_affine_endpoint_certifies_with_known_optimum():
    W = affine_family()
    cert = sh.certify_peak(W, 2)
    assert cert.status == "certified_peak"
    # grid oracle: minimize max(|a(0)|, |a(0.5)|) over a(1) = 1, optimum 1/3
    oracle = minimax_grid_oracle(W.values, 2)
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert cert.refined == pytest.approx(oracle, abs=1e-3)
    assert cert.separation >= 0.5  # at least the witness a(z) = z achieves 0.5
    assert sh.reverify_certificate(W, cert)


def test_affine_midpoint_not_peak():
    W = affine_family()
    cert = sh.certify_peak(W, 1)
    assert cert.status == "certified_not_peak"
    assert minimax_grid_oracle(W.values, 1) == pytest.approx(1.0, abs=1e-6)
    assert cert.lp_lower >= 1.0 - 1e-9


def test_zero_target_row_immediately_not_peak():
    V = np.array([[1.0], [0.0], [0.5]], dtype=complex)
    W = sh.WitnessFamily(("a", "b", "c"), V)
    cert = sh.certify_peak(W, 1)
    assert cert.status == "certified_not_peak"
    assert cert.lp_lower == math.inf


def test_certify_validates_inputs():
    W = affine_family()
    with pytest.raises(sh.CertificationError):
        sh.certify_peak(W, 0, m=4)
    with pytest.raises(IndexError):
        sh.certify_peak(W, 7)
    single = sh.WitnessFamily(("only",), np.array([[1.0]], dtype=complex))
    with pytest.raises(sh.CertificationError):
        sh.certify_peak(single, 0)


def test_witness_family_rejects_dependent_columns():
    V = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=complex)
    with pytest.raises(ValueError):
        sh.WitnessFamily(("a", "b", "c"), V)


@pytest.mark.parametrize("r, dependent", [(3e-9, True), (1e-7, False)])
def test_witness_columns_follow_the_span_rule(r, dependent):
    # u and g are orthogonal with norm 2: u + r i g has relative residual r
    u = np.ones(4)
    v = u + r * 1j * np.array([1.0, -1.0, 1.0, -1.0])
    X = sh.FiniteSpace(tuple("abcd"), np.arange(4) + 0j)
    S = sh.FunctionSystem(X, sh.complex_field(), np.array([u, v])[:, :, None])
    assert sh.witnesses_from_system(S).values.shape[1] == (1 if dependent else 2)
    if dependent:
        with pytest.raises(ValueError, match="dependent"):
            sh.WitnessFamily(X.points, np.column_stack([u, v]))
    else:
        assert sh.WitnessFamily(X.points, np.column_stack([u, v])).values.shape == (4, 2)


def test_shilov_estimate_full_semisimple_everything_peaks():
    rng = np.random.default_rng(2)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    W = sh.witnesses_from_system(sh.make_CXE(X, E), sh.characters(E))
    part = sh.shilov_estimate(W)
    assert part.peak == list(range(6))
    assert part.not_peak == [] and part.undecided == []


def test_bracket_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(7, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V)
        cert = sh.certify_peak(W, int(rng.integers(0, n)))
        assert cert.lp_lower <= cert.refined <= cert.lp_upper
        assert cert.lp_upper <= cert.lp_lower * SEC32 + 1e-9
        assert sh.reverify_certificate(W, cert)


def test_bracket_never_widens_16_to_64():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, min(5, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V)
        tgt = int(rng.integers(0, n))
        w16 = sh.certify_peak(W, tgt, m=16)
        w64 = sh.certify_peak(W, tgt, m=64)
        assert (w64.lp_upper - w64.lp_lower) <= (w16.lp_upper - w16.lp_lower) + 1e-12


def test_monotone_in_witnesses():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 8
        V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        extra = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        small = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V)
        big = sh.WitnessFamily(
            tuple(f"p{i}" for i in range(n)), np.hstack([V, extra])
        )
        for tgt in range(n):
            c_small = sh.certify_peak(small, tgt)
            c_big = sh.certify_peak(big, tgt)
            # the minimax optimum cannot increase with more witnesses
            assert c_big.refined <= c_small.refined + 1e-6
            if c_small.status == "certified_peak":
                assert c_big.status == "certified_peak"


def test_is_boundary():
    W = affine_family()
    ok, _ = sh.is_boundary([0, 1, 2], W)
    assert ok
    # |a + b z| on [0, 1] attains its max at an endpoint
    ok, _ = sh.is_boundary([0, 2], W)
    assert ok
    ok, witness = sh.is_boundary([1], W)
    assert not ok
    values = np.abs(W.values @ witness)
    assert values[1] < values.max() * (1 - 1e-9)


def test_is_boundary_rejects_empty():
    with pytest.raises(ValueError):
        sh.is_boundary([], affine_family())


# --- product peakers -------------------------------------------------------------


def _peaked_scalar(B, x_index):
    W = sh.witnesses_from_system(B)
    cert = sh.certify_peak(W, x_index)
    assert cert.status == "certified_peak"
    return cert.coefficients


def test_product_peaker_scalar_identity():
    rng = np.random.default_rng(3)
    X = random_space(rng, 3)
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.scalar_quadruple(B)
    f = _peaked_scalar(B, 0)
    v = Q.scalars.one()
    peaker = sh.synthesize_product_peaker(v, f, Q)
    assert peaker.max_modulus == pytest.approx(1.0, abs=1e-9)
    assert peaker.argmax_pairs == [(0, 0)]
    assert np.allclose(peaker.table[:, 0], B.table(f)[:, 0])


def test_product_peaker_idempotent_component():
    rng = np.random.default_rng(4)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.Quadruple(X, E, B, sh.make_CXE(X, E))
    chars_E = sh.characters(E)
    f = _peaked_scalar(B, 2)
    v = E.basis_element(0)  # first idempotent: |v-hat| = (1, 0)
    peaker = sh.synthesize_product_peaker(v, f, Q, chars_E)
    assert peaker.membership is not None
    assert peaker.max_modulus == pytest.approx(1.0, abs=1e-9)
    v_hat = np.abs(np.array([psi(v) for psi in chars_E]))
    which_psi = int(np.argmax(v_hat))
    assert peaker.argmax_pairs == [(which_psi, 2)]


def test_product_peaker_dual_numbers():
    rng = np.random.default_rng(5)
    X = random_space(rng, 3)
    E = sh.preset_algebra("dual_numbers")
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.Quadruple(X, E, B, sh.make_CXE(X, E))
    f = _peaked_scalar(B, 1)
    peaker = sh.synthesize_product_peaker(E.one(), f, Q)
    f_values = B.table(f)[:, 0]
    assert np.allclose(peaker.values[0], f_values, atol=1e-12)
    assert peaker.argmax_pairs == [(0, 1)]


def test_product_peaker_rejects_unnormalized():
    rng = np.random.default_rng(6)
    X = random_space(rng, 3)
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.scalar_quadruple(B)
    f = _peaked_scalar(B, 0)
    with pytest.raises(ValueError):
        sh.synthesize_product_peaker(2.0 * Q.scalars.one(), f, Q)
    with pytest.raises(ValueError):
        sh.synthesize_product_peaker(Q.scalars.one(), 3.0 * np.asarray(f), Q)


# --- product theorems -------------------------------------------------------------


def test_exact_product_theorem_pointwise():
    rng = np.random.default_rng(8)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(
        X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E), label="cxe"
    )
    report = sh.verify_product_theorem(Q)
    assert report.passed
    assert report.missing == [] and report.extra == []
    assert len(report.certified_pairs) == 6


def test_exact_product_theorem_lip_dual():
    rng = np.random.default_rng(9)
    X = random_space(rng, 3)
    E = sh.preset_algebra("dual_numbers")
    Q = sh.Quadruple(
        X, E, sh.make_lip(X, sh.complex_field(), 0.5), sh.make_lip(X, E, 0.5)
    )
    report = sh.verify_product_theorem(Q)
    assert report.passed
    assert len(report.certified_pairs) == 3  # single character of E


def test_peak_product_agrees():
    rng = np.random.default_rng(10)
    X = random_space(rng, 3)
    E = sh.preset_algebra("cyclic_group_3")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    report = sh.verify_peak_product(Q)
    assert report.passed
    assert report.certificates_reverified
    assert report.peak_sets_match_boundary_sets


def test_scalar_quadruple_reduces_to_identity():
    rng = np.random.default_rng(12)
    X = random_space(rng, 4)
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.scalar_quadruple(B)
    report = sh.verify_peak_product(Q)
    assert report.passed
    base = report.base
    assert [p[1] for p in base.certified_pairs] == base.b_partition.peak


def test_precondition_failure_reported_not_thrown():
    rng = np.random.default_rng(13)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    P = sh.make_poly(X, E, 1)  # not closed
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.Quadruple(X, E, B, P)
    report = sh.verify_product_theorem(Q, regime="exact")
    assert not report.passed
    assert report.e_partition is None
    assert report.preconditions["systems_closed"] is False


def test_random_quadruples_product_theorem():
    rng = np.random.default_rng(14)
    for _ in range(3):
        Q = random_natural_quadruple(rng)
        report = sh.verify_product_theorem(Q)
        assert report.passed, (Q.label, report.missing, report.extra)


def test_certificate_serialization():
    W = affine_family()
    cert = sh.certify_peak(W, 2)
    data = cert.to_dict()
    assert data["status"] == "certified_peak"
    coeffs = np.array([complex(re, im) for re, im in data["coefficients"]])
    values = np.abs(W.values @ coeffs)
    assert values[2] == pytest.approx(1.0, abs=1e-9)
    assert values.max() == pytest.approx(1.0, abs=1e-9)


def test_partition_exports():
    W = affine_family()
    part = sh.shilov_estimate(W)
    csv = sh.partition_to_csv(part)
    lines = csv.strip().split("\n")
    assert lines[0] == "x,y,status"
    assert len(lines) == 4
    disk = sh.raster_from_shape(sh.Disk(0.5, 0.7), 16)
    pgm = sh.partition_to_pgm(part, disk)
    assert pgm.startswith("P2\n")
    assert "255" in pgm


def test_dense_lp_survives_highs_error():
    # On this point order HiGHS returns kError on the dense polygon LP of
    # candidate 25; the rows are then re-solved by linprog.
    R = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    X = sh.combine_spaces(
        sh.sample_raster(R, sh.CircleSample(0, 1.0, 15)),
        sh.sample_raster(R, sh.CircleSample(0, 0.5, 15)),
        sh.sample_raster(R, sh.InteriorGrid(0.3)),
    )
    assert X.size == 50
    order = np.roll(np.arange(50), 16)
    X = sh.FiniteSpace(tuple(X.points[i] for i in order), X.coords[order])
    W = sh.witnesses_from_system(sh.make_rational(X, sh.complex_field(), 10, [0j]))
    cert = sh.certify_peak(W, 25)
    assert cert.status == "certified_peak"
    assert sh.reverify_certificate(W, cert)


def test_certify_peak_runs_blas_single_threaded(monkeypatch):
    from shilov.blas import _openblas_controls

    controls = _openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    counts_inside = []
    real = sh.boundary._max_modulus

    def spy(V_off, c):
        counts_inside.append([get() for get, _ in controls])
        return real(V_off, c)

    monkeypatch.setattr(sh.boundary, "_max_modulus", spy)
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        sh.certify_peak(affine_family(), 0)
        after = [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert after == [2] * len(controls)
    assert counts_inside and all(c == [1] * len(controls) for c in counts_inside)
