"""Peak certification, boundary checks, product peakers, product theorems."""

import importlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import shilov as sh
from shilov import blas, cli
from shilov.algebra import support_components
from shilov.boundary import _Scaled, _blocks, _independent_columns
from conftest import (
    PRESET_NAMES,
    assert_peak_sets_reverify,
    minimax_grid_oracle,
    random_natural_quadruple,
    random_space,
)

SEC32 = 1.0 / math.cos(math.pi / 32)
DEMO_CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def affine_family():
    """span{1, z} evaluated at X = {0, 0.5, 1}."""
    V = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]], dtype=complex)
    return sh.WitnessFamily(("x0", "x1", "x2"), V, coords=np.array([0, 0.5, 1.0]))


_ONE_CORE_SCRIPT = """
import importlib
import sys
if {first!r}:
    importlib.import_module({first!r})
import numpy as np
import shilov.cli
if not {first!r}:  # the cold import takes none of these
    for name in ("scipy.optimize", "scipy.ndimage", "scipy.sparse", "scipy.linalg",
                 "scipy._lib._array_api", "numpy.f2py", "numpy.random"):
        assert name not in sys.modules, name
loaded = set(sys.modules)
X = shilov.FiniteSpace(("a", "b"), np.array([0j, 1j]))
E = shilov.preset_algebra("pointwise_2")
Q = shilov.Quadruple(X, E, shilov.make_CXE(X, shilov.complex_field()), shilov.make_CXE(X, E))
assert shilov.verify_peak_product(Q).passed
V = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]], dtype=complex)
cert = shilov.certify_peak(shilov.WitnessFamily(("x0", "x1", "x2"), V), 2)
assert cert.status == "certified_peak", cert
# nor do the checks import anything: np.unique would import numpy.ma, and
# np.random, first read, numpy.random
assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)
import scipy.optimize
from scipy.optimize._highspy import _highs_wrapper
assert shilov.boundary._highs_core is sys.modules["scipy.optimize._highspy._core"]
assert _highs_wrapper._h is sys.modules["scipy.optimize._highspy._core"]
result = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
assert result.status == 0 and abs(result.fun - 1) < 1e-12, result
import scipy.linalg
from scipy.linalg import lapack
assert shilov.blas._flapack is sys.modules["scipy.linalg._flapack"] is lapack._flapack
"""


def _run_one_core_script(first: str) -> None:
    # a fresh interpreter: this one has imported scipy.optimize already
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    script = _ONE_CORE_SCRIPT.format(first=first)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("optimize_first", [False, True])
def test_one_highs_core_whichever_package_loads_it(optimize_first):
    _run_one_core_script("scipy.optimize" if optimize_first else "")


def test_one_lapack_extension_when_scipy_linalg_comes_first():
    _run_one_core_script("scipy.linalg")


def test_full_algebra_indicator_peaks():
    X = sh.FiniteSpace(("a", "b", "c"), np.array([0j, 1j, 2j]))
    full = sh.make_CXE(X, sh.complex_field())
    W = sh.witnesses_from_system(full)
    cert = sh.certify_peak(W, 1)
    assert cert.status == "certified_peak"
    assert cert.refined == pytest.approx(0.0, abs=1e-9)


def test_affine_endpoint_certifies_with_known_optimum():
    W = affine_family()
    cert = sh.certify_peak(W, 2)
    assert cert.status == "certified_peak"
    # grid oracle: minimize max(|a(0)|, |a(0.5)|) over a(1) = 1, optimum 1/3
    oracle = minimax_grid_oracle(W.values, 2)
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert cert.refined == pytest.approx(oracle, abs=1e-3)
    assert cert.refined <= 0.5  # at most what the witness a(z) = z achieves
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


def test_reverify_checks_the_unseen_row():
    unseen = sh.WitnessFamily(("a", "b", "c"), np.array([[1.0], [0.0], [0.5]]))
    cert = sh.certify_peak(unseen, 1)
    assert sh.reverify_certificate(unseen, cert)
    seen = sh.WitnessFamily(("a", "b", "c"), np.array([[1.0], [0.25], [0.5]]))
    assert not sh.reverify_certificate(seen, cert)


def test_one_unseen_rule_for_seeds_and_certificates():
    # row 3 reads 1.6e-13 on W, whose largest entry is 1.5; column 1 is
    # scaled by 1/2, so the row reads 0.8e-13 on the scaled values, whose
    # largest entry is 1: unseen there, and so for seeding, certification
    # and re-verification alike
    V = np.array([[1.0, 0.3], [0.2, 1.5], [0.5, 0.5], [0.0, 1.6e-13]])
    W = sh.WitnessFamily(("a", "b", "c", "d"), V)
    assert W._scaled.unseen.tolist() == [False, False, False, True]
    alone = sh.certify_peak(W, 3)
    swept = sh.shilov_estimate(W).certificates
    for cert in (alone, swept[3]):
        assert cert.status == "certified_not_peak"
        assert cert.lp_lower == math.inf
    assert all(sh.reverify_certificate(W, c) for c in [alone, *swept])


def test_reverify_rederives_the_peak_verdict():
    W = affine_family()
    cert = sh.certify_peak(W, 2)
    assert sh.reverify_certificate(W, cert)
    # a stored refined below the coefficients' own off-target maximum
    assert not sh.reverify_certificate(W, replace(cert, refined=cert.refined / 2))
    assert not sh.reverify_certificate(W, replace(cert, refined=1.0))


def test_reverify_rederives_every_status():
    # the annulus demo's rational system leaves candidates undecided: a
    # certificate relabelled to another status no longer re-verifies
    workspace = cli._Workspace(cli.validate_config(DEMO_CONFIG_DIR / "annulus_demo.json"))
    W = sh.witnesses_from_system(workspace.system("rational"))
    part = sh.shilov_estimate(W)
    assert part.undecided and part.not_peak
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)
    undecided = part.certificates[part.undecided[0]]
    not_peak = part.certificates[part.not_peak[0]]
    assert not_peak.lp_lower < math.inf  # decided by its bound, not unseen
    for cert, status in [
        (undecided, "certified_not_peak"),
        (undecided, "certified_peak"),
        (not_peak, "undecided"),
    ]:
        assert not sh.reverify_certificate(W, replace(cert, status=status))


def test_lone_candidate_peaks_trivially():
    v = np.array([[2.0 - 1.0j]])
    single = sh.WitnessFamily(("only",), v)
    cert = sh.certify_peak(single, 0)
    assert cert.status == "certified_peak"
    assert np.array_equal(cert.coefficients, v[0].conj() / 5.0)
    assert (cert.lp_lower, cert.lp_upper, cert.refined) == (0.0, 0.0, 0.0)
    [swept] = sh.shilov_estimate(single).certificates
    assert swept.to_dict() == cert.to_dict()
    assert sh.reverify_certificate(single, cert)


def test_certify_validates_inputs():
    W = affine_family()
    with pytest.raises(IndexError):
        sh.certify_peak(W, 7)


def test_witness_family_rejects_dependent_columns():
    V = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=complex)
    with pytest.raises(ValueError):
        sh.WitnessFamily(("a", "b", "c"), V)


def test_witness_family_leaves_the_callers_matrix_writable():
    V = np.array([[1.0, 0.5j], [0.25, 1.0], [1j, 0.0]])
    W = sh.WitnessFamily(("a", "b", "c"), V)
    assert V.flags.writeable and not W.values.flags.writeable
    V[0, 0] = 7.0
    assert W.values[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        W.values[0, 0] = 7.0


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
    W = sh.witnesses_from_system(sh.make_CXE(X, E))
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
    assert ok is False
    values = np.abs(W.values @ witness)
    assert values[1] < values.max() * (1 - 1e-9)


def test_is_boundary_finds_a_grid_point_the_circle_samples_miss():
    # 12 samples of the unit circle do not bound P_6 on the disk's samples:
    # a polynomial of degree 6 peaks at an interior grid point
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    X = sh.combine_spaces(sh.sample_raster(disk, sh.CircleSample(0, 1.0, 12)),
                          sh.sample_raster(disk, sh.InteriorGrid(0.4)))
    W = sh.witnesses_from_system(sh.make_poly(X, sh.complex_field(), 6))
    ok, c = sh.is_boundary(list(range(12)), W)
    assert ok is False
    f = np.abs(W.values @ c)  # by direct evaluation on W's own columns
    g0 = int(np.argmax(f))
    assert g0 >= 12 and X.coords[g0] == pytest.approx(-0.0625 - 0.8625j)
    assert f[g0] == pytest.approx(1.0, abs=1e-9)
    assert f[:12].max() < 1 - sh.boundary.PEAK_TOL


def test_is_boundary_is_undecided_on_a_peak_inside_the_tolerance_band():
    # a + b z on {0, 1, 1 + 1e-5}: the optimum at the last point over the
    # first two is 1 / (1 + 2e-5), above 1 - PEAK_TOL, so that point is
    # neither a certified peak nor certified not to be one
    V = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-5]], dtype=complex)
    W = sh.WitnessFamily(("x0", "x1", "x2"), V)
    assert sh.certify_peak(W, 2).status == "undecided"
    assert sh.is_boundary([0, 1], W) == (None, None)
    assert sh.is_boundary([0, 2], W)[0] is True


def test_is_boundary_rejects_empty():
    with pytest.raises(ValueError):
        sh.is_boundary([], affine_family())


@pytest.mark.parametrize("subset", [[-1], [3], [0, 5]])
def test_is_boundary_rejects_indices_out_of_range(subset):
    with pytest.raises(ValueError, match="0, 3"):
        sh.is_boundary(subset, affine_family())


# --- product peakers -------------------------------------------------------------


def _peaked_scalar(B, x_index):
    """Coefficients over B's basis of a certified peaker of B at x_index."""
    W = sh.witnesses_from_system(B)
    cert = sh.certify_peak(W, x_index)
    assert cert.status == "certified_peak"
    # the certificate combines W's rescaled columns, not B's basis
    f_hat = W.values @ cert.coefficients
    return sh.span_membership(B, f_hat[:, None] * B.scalars.unit)


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
    f = _peaked_scalar(B, 2)
    v = E.basis_element(0)  # first idempotent: |v-hat| = (1, 0)
    peaker = sh.synthesize_product_peaker(v, f, Q)
    assert peaker.membership is not None
    assert peaker.max_modulus == pytest.approx(1.0, abs=1e-9)
    v_hat = np.abs(np.array([psi(v) for psi in E.characters]))
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


def test_product_peaker_reads_f_through_its_character():
    # c[0,0,0] = 2 and unit 0.5 e: the character sends e to 2, so f = 0.5 e_a
    # has Gelfand values (1, 0) and peaks at a
    scalars = sh.AlgebraSpec(1, [[[2]]], [0.5], [2])
    X = sh.FiniteSpace(("a", "b"), np.array([0j, 1 + 0j]))
    B = sh.make_CXE(X, scalars)
    Q = sh.scalar_quadruple(B)
    peaker = sh.synthesize_product_peaker(Q.scalars.one(), [0.5, 0.0], Q)
    assert np.allclose(peaker.values, [[1.0, 0.0]], atol=1e-12)
    assert peaker.max_modulus == pytest.approx(1.0, abs=1e-12)
    assert peaker.argmax_pairs == [(0, 0)]
    assert peaker.membership is not None


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
    assert_peak_sets_reverify(report)


def test_estimation_product_certifies_the_named_vector_system():
    rng = np.random.default_rng(15)
    X = random_space(rng, 4)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_poly(X, sh.complex_field(), 1)
    Bt = sh.make_CXE(X, E, label="Bt")
    assert Bt.dim > sh.span_BE(B, E).dim  # B~ is not span(B E)
    Q = sh.Quadruple(X, E, B, Bt)
    report = sh.verify_product_theorem(Q, regime="estimation")
    family = report.bt_partition.family
    expected = sh.witnesses_from_system(Bt)
    assert family.label == "Bt"
    assert family.labels == expected.labels
    assert np.array_equal(family.values, expected.values)


@pytest.mark.parametrize("name", ["pointwise_2", "dual_numbers"])
def test_witnesses_are_the_pi_rows(name):
    rng = np.random.default_rng(16)
    X = random_space(rng, 3)
    E = sh.preset_algebra(name)
    Bt = sh.make_CXE(X, E)
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), Bt)
    pi = sh.build_pi(Q)
    W = sh.witnesses_from_system(Bt)
    assert W.labels == tuple(chi.label for chi in pi)
    assert np.array_equal(
        W.values, _independent_columns(np.array([chi.values for chi in pi]))
    )


def test_characters_run_once_per_algebra(monkeypatch):
    module = importlib.import_module("shilov.characters")
    search, seen = module.characters, []

    def counted(E, *args, **kwargs):
        seen.append(E)
        return search(E, *args, **kwargs)

    monkeypatch.setattr(module, "characters", counted)
    rng = np.random.default_rng(19)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_CXE(X, sh.complex_field())
    Q = sh.Quadruple(X, E, B, sh.make_CXE(X, E))
    assert sh.check_admissible(Q).passed
    assert sh.verify_peak_product(Q).passed
    sh.witnesses_from_algebra(E)
    sh.witnesses_from_system(Q.vector_system)
    sh.witnesses_from_system(B)
    # E, C and each abstract algebra as_algebra builds, once each
    ids = [id(A) for A in seen]
    assert len(ids) == len(set(ids))
    assert {id(E), id(B.scalars)} <= set(ids)


def test_structure_equal_algebras_give_the_same_product():
    rng = np.random.default_rng(20)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_CXE(X, sh.complex_field())
    same = sh.verify_peak_product(sh.Quadruple(X, E, B, sh.make_CXE(X, E)))
    twin_E = sh.preset_algebra("pointwise_2")
    twin = sh.verify_peak_product(sh.Quadruple(X, E, B, sh.make_CXE(X, twin_E)))
    assert twin_E is not E
    assert same.passed and twin.passed
    assert twin.base.certified_pairs == same.base.certified_pairs
    assert twin.base.product_pairs == same.base.product_pairs
    assert np.array_equal(
        twin.base.bt_partition.family.values, same.base.bt_partition.family.values
    )


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


def annulus_sample_50():
    R = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    X = sh.combine_spaces(
        sh.sample_raster(R, sh.CircleSample(0, 1.0, 15)),
        sh.sample_raster(R, sh.CircleSample(0, 0.5, 15)),
        sh.sample_raster(R, sh.InteriorGrid(0.3)),
    )
    assert X.size == 50
    return X


@pytest.mark.parametrize("shift, target", [(16, 25), (35, 34)])
def test_dense_lp_survives_highs_error(shift, target):
    # On these point orders HiGHS once returned kError on the target's LP,
    # when families this small were solved as one dense LP.  They stay as
    # inputs to the polygon LP, driven directly and through certify_peak;
    # test_highs_error_is_retried_in_place injects the kError itself.
    X = annulus_sample_50()
    order = np.roll(np.arange(50), shift)
    X = sh.FiniteSpace(tuple(X.points[i] for i in order), X.coords[order])
    W = sh.witnesses_from_system(sh.make_rational(X, sh.complex_field(), 10, [0j]))
    cert = sh.certify_peak(W, target)
    assert cert.status == "certified_peak"
    assert sh.reverify_certificate(W, cert)
    scaled = W._scaled
    v_t = scaled.values[target]
    V_off = np.delete(scaled.values, target, axis=0)
    c, p = sh.boundary._solve_polygon_lp(V_off, v_t, scaled.seed(target)[0], scaled.sigma_min)
    c = c / np.dot(v_t, c)
    # the polygon optimum is at most the true optimum, and its point's max
    # modulus at most sec(pi/32) times it
    assert p - 3e-10 <= cert.refined <= np.abs(V_off @ c).max() <= p * SEC32 + 3e-10


class _FailingRuns:
    """A HiGHS model whose first ``failures`` runs return kError unrun."""

    def __init__(self, h, failures):
        self._h = h
        self.failures = failures

    def run(self):
        if self.failures:
            self.failures -= 1
            return sh.boundary._highs_core.HighsStatus.kError
        return self._h.run()

    def __getattr__(self, name):
        return getattr(self._h, name)


@pytest.mark.parametrize("failures", [1, 2])
def test_highs_error_is_retried_in_place(monkeypatch, failures):
    models = []
    init = sh.boundary._HighsRounds.__init__

    def failing_init(self, *args):
        init(self, *args)
        self.h = _FailingRuns(self.h, failures)
        models.append(self.h)

    monkeypatch.setattr(sh.boundary._HighsRounds, "__init__", failing_init)
    # candidate 0 of the annulus_product B family: its seed's bracket is
    # decided but wider than sec(pi/32), so the LP runs
    B = sh.make_rational(annulus_sample_50(), sh.complex_field(), 10, [0])
    W = sh.witnesses_from_system(B)
    if failures == 2:
        with pytest.raises(sh.CertificationError, match="HiGHS run failed"):
            sh.certify_peak(W, 0)
        assert len(models) == 1
        return
    cert = sh.certify_peak(W, 0)
    assert len(models) == 1 and models[0].failures == 0
    assert cert.status == "certified_peak"
    assert sh.reverify_certificate(W, cert)


# --- block split of estimation sweeps ----------------------------------------------


@pytest.fixture(scope="module")
def annulus_product_run():
    """verify_peak_product on the 50-point annulus quadruple, recording for
    each certify_peak call its family's shape and how many
    scipy.optimize.minimize calls it made."""
    X = annulus_sample_50()
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_rational(X, sh.complex_field(), 10, [0])
    Q = sh.Quadruple(X, E, B, sh.span_BE(B, E))
    calls, minimized = [], [0]
    certify, minimize = sh.boundary.certify_peak, scipy.optimize.minimize

    def counted_minimize(*args, **kwargs):
        minimized[0] += 1
        return minimize(*args, **kwargs)

    def counted(W, target, **kwargs):
        before = minimized[0]
        cert = certify(W, target, **kwargs)
        calls.append((W.values.shape, minimized[0] - before))
        return cert

    sh.boundary.certify_peak = counted
    scipy.optimize.minimize = counted_minimize
    try:
        report = sh.verify_peak_product(Q, regime="estimation")
    finally:
        sh.boundary.certify_peak = certify
        scipy.optimize.minimize = minimize
    return Q, report, calls, minimized[0]


def test_product_sweep_certifies_each_block_once(annulus_product_run):
    Q, report, calls, minimized = annulus_product_run
    # E = C^2 splits into two equal 1 x 1 blocks, certified once by one
    # solve; B's 50 points are one block, and B~'s two blocks are B's family
    assert len(calls) == 1 + Q.space.size == 51
    # certify_peak runs no first-order refinement on any family
    assert calls[0] == ((1, 1), 0)
    assert all(count == 0 for (n, k), count in calls[1:])
    assert minimized == 0
    assert report.passed and report.certificates_reverified
    family = report.base.bt_partition.family
    blocks = _blocks(family)
    assert [rows.tolist() for rows, _ in blocks] == [
        list(range(50)), list(range(50, 100))
    ]
    b_values = report.base.b_partition.family.values
    assert all(np.array_equal(family.values[np.ix_(r, c)], b_values) for r, c in blocks)


def test_split_partition_matches_unsplit_sweep(annulus_product_run):
    _, report, _, _ = annulus_product_run
    part = report.base.bt_partition
    W = part.family
    reference = [sh.certify_peak(W, i).status for i in range(W.candidate_count)]
    assert [c.status for c in part.certificates] == reference
    assert [c.target for c in part.certificates] == list(range(W.candidate_count))
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)


def _off_target_max(V_off, v_t, c):
    """A certify_peak candidate point's off-target max, normalized at the target."""
    return float(np.abs(V_off @ (c / np.dot(v_t, c))).max())


def test_certificates_take_the_better_of_the_lp_point_and_the_seed(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify_peak needs no first-order refinement")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    solve = sh.boundary._solve_polygon_lp
    points = {}  # the scaled target row -> (V_off, v_t, LP point, seed)

    def recording(V_off, v_t, seed, *args, **kwargs):
        c, p = solve(V_off, v_t, seed, *args, **kwargs)
        points[v_t.tobytes()] = (V_off, v_t, c, seed)
        return c, p

    monkeypatch.setattr(sh.boundary, "_solve_polygon_lp", recording)
    rng = np.random.default_rng(45)
    B = sh.make_rational(annulus_sample_50(), sh.complex_field(), 10, [0])
    families = [sh.witnesses_from_system(B)] + [
        sh.WitnessFamily(
            tuple(f"p{i}" for i in range(n)),
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)),
        )
        for n, k in ((30, 5), (17, 6), (9, 4))
    ]
    statuses, paths = set(), set()
    for W in families:
        assert len(_blocks(W)) == 1  # swept rows are W's scaled rows, bit for bit
        rows = W._scaled.values
        for certify in (
            lambda: sh.shilov_estimate(W).certificates,
            lambda: [sh.certify_peak(W, i) for i in range(0, W.candidate_count, 7)],
        ):
            points.clear()
            for cert in certify():
                assert sh.reverify_certificate(W, cert)
                assert cert.lp_lower <= cert.refined <= cert.lp_upper
                assert cert.lp_upper <= cert.lp_lower * SEC32 + 1e-9
                statuses.add(cert.status)
                v_t = rows[cert.target]
                seed = W._scaled.seed(cert.target)[0]
                V_off = np.delete(rows, cert.target, axis=0)
                if v_t.tobytes() in points:  # the LP ran: the better of both points
                    V_off, v_t, c_lp, lp_seed = points[v_t.tobytes()]
                    assert lp_seed.tobytes() == seed.tobytes()
                    assert cert.refined <= _off_target_max(V_off, v_t, c_lp)
                    assert cert.refined <= _off_target_max(V_off, v_t, seed)
                    paths.add("lp")
                else:  # the seed's bracket decides and is no wider than the LP's
                    assert cert.status != "undecided"
                    assert cert.refined == cert.lp_upper == _off_target_max(V_off, v_t, seed)
                    c_seed = seed / np.dot(v_t, seed)
                    assert np.array_equal(cert.coefficients * W._scaled.scale, c_seed)
                    paths.add("seed")
    assert {"certified_peak", "certified_not_peak"} <= statuses
    assert paths == {"lp", "seed"}


def _lawson_per_target(V, targets):
    """Reference _lawson: each target's own loop, one matrix product a round."""
    n, k = V.shape
    seeds = np.zeros((targets.size, k), dtype=complex)
    nu_norms, e_norms = np.full(targets.size, np.inf), np.zeros(targets.size)
    for i, t in enumerate(targets):
        a = V[t]
        d = np.full(n, 1.0 / (n - 1))
        d[t] = 0.0
        best = np.inf
        for _ in range(sh.boundary._LAWSON_ITERS):
            M = (V.conj().T * d) @ V
            M += 1e-14 * (1.0 + np.trace(M).real) * np.eye(k)
            x = np.linalg.solve(M, a.conj())
            w = V @ x
            r = np.abs(w) / abs(a @ x)
            r[t] = 0.0
            if r.max() < best:
                best, seeds[i] = r.max(), x / (a @ x)
            nu = d * w.conj()  # a measure: zero at t, nu V = a up to roundoff
            if 0.0 < np.abs(nu).sum() < nu_norms[i]:
                nu_norms[i] = np.abs(nu).sum()
                e_norms[i] = np.linalg.norm(nu @ V - a)
            if best - 1.0 / nu_norms[i] <= sh.boundary._LAWSON_RTOL * best:
                break
            if (d * r).sum() > 0:
                d = d * r / (d * r).sum()
    return seeds, nu_norms, e_norms


def test_batched_lawson_matches_a_per_target_loop(monkeypatch):
    rng = np.random.default_rng(46)
    families = [
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        for n, k in ((12, 5), (30, 7), (91, 11))  # 91 rows: two seeding chunks
    ]
    unseen = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    unseen[4] = 0.0
    families.append(unseen)
    batched = [_all_seeds(_Scaled.of(V), whole=True) for V in families]
    monkeypatch.setattr(sh.boundary, "_lawson", _lawson_per_target)
    for V, (seeds, nu_norms, e_norms) in zip(families, batched):
        reference = _all_seeds(_Scaled.of(V), whole=True)  # fresh: no cached seeds
        assert np.allclose(seeds, reference[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(nu_norms, reference[1], rtol=1e-12, atol=0.0)
        assert np.allclose(e_norms, reference[2], rtol=0.0, atol=1e-13)
        seen = np.isfinite(nu_norms)
        assert seen.sum() >= len(V) - 1 and np.all(e_norms[seen] < 1e-10)
    seeds, nu_norms, e_norms = batched[-1]
    assert not np.any(seeds[4]) and nu_norms[4] == np.inf and e_norms[4] == 0.0


def _all_seeds(scaled, whole=False):
    """Every row's seed, or with ``whole`` its seed, ||nu||_1 and ||e||_2."""
    seeds = [scaled.seed(t) for t in range(scaled.values.shape[0])]
    if whole:
        return tuple(np.array(column) for column in zip(*seeds))
    return np.array([seed for seed, _, _ in seeds])


@pytest.mark.parametrize("batch", [1, 7])
def test_lawson_batches_its_targets_within_the_memory_budget(monkeypatch, batch):
    rng = np.random.default_rng(48)
    n, k = 400, 24
    V = _Scaled.of(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))).values
    targets = np.arange(sh.boundary._LAWSON_CHUNK)

    def seeds_and_peak():
        tracemalloc.start()
        try:
            seeds = sh.boundary._lawson(V, targets)
            return seeds, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = seeds_and_peak()  # one batch: (64, k, n) at once
    monkeypatch.setattr(sh.boundary, "MAX_ENTRIES", batch * k * (n + k))
    batched, batched_peak = seeds_and_peak()
    assert len(batched) == len(whole) == 3  # seeds, ||nu||_1, ||e||_2
    assert all(b.tobytes() == w.tobytes() for b, w in zip(batched, whole))
    assert batched_peak < whole_peak / 3


def _count_lp_models(monkeypatch) -> list:
    """Record every _HighsRounds built from here on: one per LP run."""
    models = []
    init = sh.boundary._HighsRounds.__init__

    def counting(self, *args):
        models.append(self)
        init(self, *args)

    monkeypatch.setattr(sh.boundary._HighsRounds, "__init__", counting)
    return models


def _criterion_4_families():
    """(family, targets, grid optima) triples drawn as criterion 4 of
    tests/test_acceptance.py draws them: 100 random families with one
    target each, then 25 3 x 2 families, every target with its grid oracle;
    last, every target of the annulus_product B family."""
    rng = np.random.default_rng(404)
    cases = []
    for _ in range(100):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(7, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        cases.append((sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V),
                      [int(rng.integers(0, n))], None))
    for _ in range(25):
        V = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        rng.integers(0, 3)  # criterion 4's target draw
        cases.append((sh.WitnessFamily(("a", "b", "c"), V), [0, 1, 2],
                      [minimax_grid_oracle(V, t) for t in range(3)]))
    B = sh.make_rational(annulus_sample_50(), sh.complex_field(), 10, [0])
    cases.append((sh.witnesses_from_system(B), list(range(50)), None))
    return cases


def test_seed_decided_verdicts_equal_the_lps(monkeypatch):
    models = _count_lp_models(monkeypatch)
    lawson = sh.boundary._lawson

    def no_measure(V, targets):  # the same seeds, with ||nu||_1 = inf: L = 0
        seeds, nu_norm, e_norm = lawson(V, targets)
        return seeds, np.full_like(nu_norm, np.inf), e_norm

    decided = {"certified_peak": 0, "certified_not_peak": 0}
    moved = []  # (family, target) the LP alone leaves undecided
    for case, (W, targets, oracles) in enumerate(_criterion_4_families()):
        seeded, skipped = [], []
        for t in targets:
            before = len(models)
            seeded.append(sh.certify_peak(W, t))
            skipped.append(len(models) == before and W.values.shape[0] > W.values.shape[1])
        monkeypatch.setattr(sh.boundary, "_lawson", no_measure)
        fresh = sh.boundary._Block(W.labels, W.values)  # no cached seeds
        forced = [sh.certify_peak(fresh, t) for t in targets]
        monkeypatch.setattr(sh.boundary, "_lawson", lawson)
        for i, (cert, lp) in enumerate(zip(seeded, forced)):
            assert sh.reverify_certificate(W, cert)
            if not skipped[i]:
                assert cert.status == lp.status
                continue
            if lp.status == "undecided":  # the measure decides what the polygon cannot
                moved.append((case, targets[i]))
            else:
                assert cert.status == lp.status
            decided[cert.status] += 1
            assert cert.lp_upper == cert.refined <= cert.lp_lower * SEC32
            assert cert.lp_lower <= lp.lp_upper
            if oracles is not None:
                assert cert.lp_lower <= oracles[i] + 1e-9
    assert min(decided.values()) >= 5, decided
    # a 3 x 2 family's candidate 1, with optimum 1.000338 by the grid, so a
    # not-peak: the polygon's bound reads 0.99833
    assert moved == [(108, 1)]


def test_lp_runs_only_where_the_seed_leaves_the_bracket_open(monkeypatch):
    models = _count_lp_models(monkeypatch)
    B = sh.make_rational(annulus_sample_50(), sh.complex_field(), 10, [0])
    W = sh.witnesses_from_system(B)
    part = sh.shilov_estimate(W)
    assert 0 < len(models) < W.candidate_count / 2
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)
    models.clear()
    X = random_space(np.random.default_rng(50), 8)
    E = sh.preset_algebra("pointwise_3")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))
    assert sh.verify_peak_product(Q).passed
    assert models == []


def test_seeds_and_the_svd_run_before_the_fan_out(monkeypatch):
    # a sweep computes each block's solver state on the calling thread, so
    # no pool thread fills a cache of the shared _Scaled
    rng = np.random.default_rng(51)
    V = rng.standard_normal((100, 6)) + 1j * rng.standard_normal((100, 6))
    W = sh.WitnessFamily(tuple(f"p{i}" for i in range(100)), V)  # two seeding chunks
    calls = []

    def spying(name, real):
        def spy(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(sh.boundary, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sh.boundary, "_lawson", spying("_lawson", sh.boundary._lawson))
    monkeypatch.setattr(np.linalg, "svd", spying("svd", np.linalg.svd))
    models = _count_lp_models(monkeypatch)
    part = sh.shilov_estimate(W)
    assert models  # some targets run the LP, on the pool
    assert sorted(name for name, _ in calls) == ["_lawson", "_lawson", "svd"]
    assert {thread for _, thread in calls} == {threading.get_ident()}
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)


def _fresh_pairs_by_tuples(slack, active):
    """Reference constraint round: the active pairs as a set of (row,
    direction) tuples, each row's violated directions in a dict, and one
    tuple sort of the candidates."""
    pairs = set(zip(*(idx.tolist() for idx in np.nonzero(active))))
    fresh = {}
    for r, d in zip(*np.nonzero(slack > 0)):
        fresh.setdefault(int(r), []).append((-slack[r, d], int(d)))
    additions = []
    for r, opts in fresh.items():
        opts.sort()
        additions.extend((opts[0][0], (r, d)) for _, d in opts[:2] if (r, d) not in pairs)
    additions.sort(key=lambda item: (item[0], item[1]))
    return [pair for _, pair in additions[:300]]


def test_fresh_pairs_match_the_tuple_set_selection():
    rng = np.random.default_rng(49)
    sizes = set()
    for trial in range(300):
        rows, m = int(rng.integers(1, 400)), int(rng.choice([8, 9, 32]))
        if trial % 2:  # half-integer slacks: ties within and across rows
            slack = rng.integers(-3, 4, (rows, m)) * 0.5
        else:
            slack = rng.standard_normal((rows, m))
        slack[rng.random(rows) < 0.2] = -1.0  # rows with no violated direction
        lone = np.flatnonzero(rng.random(rows) < 0.2)
        slack[lone] = -0.5  # rows with a single violated direction
        slack[lone, rng.integers(0, m, lone.size)] = rng.choice([0.5, 1.0], lone.size)
        active = rng.random((rows, m)) < rng.choice([0.0, 0.3, 0.9])
        got_rows, got_dirs = sh.boundary._fresh_pairs(slack, active)
        got = list(zip(got_rows.tolist(), got_dirs.tolist()))
        assert got == _fresh_pairs_by_tuples(slack, active)
        sizes.add(len(got) // 150)
    assert sizes == {0, 1, 2}  # small rounds, and rounds cut at 300
    rows, dirs = sh.boundary._fresh_pairs(-np.ones((5, 8)), np.zeros((5, 8), dtype=bool))
    assert rows.size == dirs.size == 0  # nothing violated: the LP is done


def _seed_test_cases():
    """(family, targets, swept) triples: one random target of each of 30
    random families, and every candidate of three blocks swept whole (the
    annulus_product B family, a block with an unseen row, a one-candidate
    block)."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(30):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(7, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V)
        cases.append((W, [int(rng.integers(0, n))], False))
    B = sh.make_rational(annulus_sample_50(), sh.complex_field(), 10, [0])
    unseen = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 1.0], [1j, 0.25]])  # row 1
    for W in (
        sh.witnesses_from_system(B),
        sh.WitnessFamily(("a", "b", "c", "d"), unseen),
        sh.WitnessFamily(("only",), np.array([[2.0 - 1.0j]])),
    ):
        cases.append((W, list(range(W.candidate_count)), True))
    return cases


def test_seed_only_shortens_the_path(monkeypatch):
    cases = _seed_test_cases()

    def certify(W, targets, swept):
        if swept:  # the sweep, which seeds every chunk before it fans out
            certificates = sh.shilov_estimate(W).certificates
            return [certificates[t] for t in targets]
        # a fresh family: W itself holds the seeds of the passes before
        fresh = sh.boundary._Block(W.labels, W.values)
        return [sh.certify_peak(fresh, t) for t in targets]

    lawson = sh.boundary._lawson

    def warm_lawson(V, targets):  # the Lawson seeds, with no measure: every LP runs
        seeds, nu_norm, e_norm = lawson(V, targets)
        return seeds, np.full_like(nu_norm, np.inf), e_norm

    cold_calls = []

    def cold_lawson(V, targets):  # each target row's own direction, v_t c = 1, no measure
        cold_calls.append(len(targets))
        rows = V[targets]
        seeds = rows.conj() / (np.abs(rows) ** 2).sum(axis=1, keepdims=True)
        return seeds, np.full(targets.size, np.inf), np.zeros(targets.size)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for W, _, _ in cases:
            values = W._scaled.values
            seeds = _all_seeds(W._scaled)
            assert np.isfinite(seeds).all()
            for row, seed in zip(values, seeds):
                if np.any(row):
                    assert np.dot(row, seed) == pytest.approx(1.0, abs=1e-12)
                else:
                    assert not np.any(seed)
        seeded = [certify(*case) for case in cases]  # where the seed decides, no LP
        models = _count_lp_models(monkeypatch)
        monkeypatch.setattr(sh.boundary, "_lawson", warm_lawson)
        warm = [certify(*case) for case in cases]
        warm_models = len(models)
        monkeypatch.setattr(sh.boundary, "_lawson", cold_lawson)
        cold = []
        for W, targets, _ in cases:
            fresh = sh.boundary._Block(W.labels, W.values)
            cold.append([sh.certify_peak(fresh, t) for t in targets])
    assert len(cold_calls) == len(cases)  # one seeding chunk per family
    lp_targets = 0
    for (W, _, _), real, fast, slow in zip(cases, seeded, warm, cold):
        for r, a, b in zip(real, fast, slow):
            assert r.status == a.status == b.status
            # one polygon LP, two active-set paths: the same bound
            if a.lp_lower != math.inf or b.lp_lower != math.inf:
                assert a.lp_lower == pytest.approx(b.lp_lower, abs=1e-8)
            # the seed-decided bracket holds the LP's optimum
            assert max(r.lp_lower, b.lp_lower) <= min(r.lp_upper, b.lp_upper) + 1e-9
            assert all(sh.reverify_certificate(W, c) for c in (r, a, b))
            lp_targets += 0 < a.lp_upper < math.inf  # p sec(pi/m) + pad: the LP ran
    # without a measure every non-square, seen target runs the LP, once
    assert warm_models == lp_targets >= 80


@pytest.mark.parametrize("factors", [(1e3,), (1e-3,), (1e3, 1e-3), (1e-9,)])
def test_column_scale_leaves_the_verdicts(factors):
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(6, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        scale = np.resize(np.array(factors), k)
        labels = tuple(f"p{i}" for i in range(n))
        W, W_scaled = sh.WitnessFamily(labels, V), sh.WitnessFamily(labels, V * scale)
        for i in range(n):
            cert, cert_scaled = sh.certify_peak(W, i), sh.certify_peak(W_scaled, i)
            assert cert_scaled.status == cert.status
            assert sh.reverify_certificate(W_scaled, cert_scaled)
            # W_scaled c = W (scale c): the same certificate for the unscaled W
            unscaled = replace(cert_scaled, coefficients=scale * cert_scaled.coefficients)
            assert sh.reverify_certificate(W, unscaled)


@pytest.mark.parametrize("name", ["dual_numbers", "cyclic_group_2"])
def test_groups_sharing_columns_are_one_block(name):
    # the rows of one point share its columns whatever E's basis: C(X, E)
    # splits by point, into square blocks of |M(E)| rows
    rng = np.random.default_rng(17)
    X = random_space(rng, 4)
    E = sh.dual_numbers() if name == "dual_numbers" else sh.cyclic_group_algebra(2)
    W = sh.witnesses_from_system(sh.make_CXE(X, E))
    blocks = _blocks(W)
    n_chars = len(E.characters)
    assert [rows.tolist() for rows, _ in blocks] == [
        list(range(x, W.candidate_count, X.size)) for x in range(X.size)
    ]
    assert [cols.tolist() for _, cols in blocks] == [
        list(range(x * n_chars, (x + 1) * n_chars)) for x in range(X.size)
    ]
    part = sh.shilov_estimate(W)
    # the sweep seeds the block in one pass, each call here seeds itself:
    # seeds differ in roundoff, verdicts do not
    reference = [sh.certify_peak(W, i) for i in range(W.candidate_count)]
    assert [c.status for c in part.certificates] == [c.status for c in reference]
    assert all(sh.reverify_certificate(W, c) for c in part.certificates + reference)


def test_rows_no_witness_sees_are_not_peaks():
    # B~ = C(X) e_0 in C^2: the character that kills e_0 sees no witness
    rng = np.random.default_rng(18)
    X = random_space(rng, 3)
    E = sh.preset_algebra("pointwise_2")
    full = sh.make_CXE(X, E)
    half = sh.FunctionSystem(X, E, full.basis[::2])
    W = sh.witnesses_from_system(half)
    blocks = _blocks(W)
    # each seen row is a 1 x 1 block, each unseen row a block without columns
    assert sorted(cols.size for _, cols in blocks) == [0, 0, 0, 1, 1, 1]
    part = sh.shilov_estimate(W)
    assert [c.status for c in part.certificates] == [
        sh.certify_peak(W, i).status for i in range(W.candidate_count)
    ]
    assert len(part.peak) == len(part.not_peak) == 3
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)


def test_certify_peak_runs_blas_single_threaded(monkeypatch):
    from shilov.blas import _openblas_controls

    controls = _openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    counts_inside = []

    def spying(real):
        def spy(*args):
            counts_inside.append([get() for get, _ in controls])
            return real(*args)

        return spy

    monkeypatch.setattr(sh.boundary, "_max_modulus", spying(sh.boundary._max_modulus))
    monkeypatch.setattr(_Scaled, "of", classmethod(spying(_Scaled.of.__func__)))
    unseen_values = np.array([[1.0], [0.0]])
    unseen = sh.WitnessFamily(("a", "b"), unseen_values)
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        sh.certify_peak(affine_family(), 0)
        cert = sh.certify_peak(unseen, 1)
        before = len(counts_inside)
        # reverify_certificate reads an unseen row off the scaled family,
        # built here for a fresh copy of the family
        assert sh.reverify_certificate(sh.WitnessFamily(("a", "b"), unseen_values), cert)
        reverify_calls = len(counts_inside) - before
        after = [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert after == [2] * len(controls)
    assert reverify_calls == 1
    assert counts_inside and all(c == [1] * len(controls) for c in counts_inside)


def test_public_checks_run_blas_single_threaded(monkeypatch, tmp_path):
    # each check holds one pin for its whole run: the leaf calls that issue
    # small BLAS products (close_rows, the algebra checks, the eigenvalue split)
    # see one thread inside it, and the counts come back after it
    controls = blas._openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    seen = {}

    def spying(name, real):
        def spy(*args, **kwargs):
            seen.setdefault(name, []).append([get() for get, _ in controls])
            return real(*args, **kwargs)

        return spy

    characters = importlib.import_module("shilov.characters")  # sh.characters is the function
    for module in (characters, sh.function_algebras):
        monkeypatch.setattr(module, "close_rows", spying("close_rows", characters.close_rows))
    monkeypatch.setattr(sh.algebra, "_block_residuals",
                        spying("_block_residuals", sh.algebra._block_residuals))
    monkeypatch.setattr(characters, "_joint_eigenvalues",
                        spying("_joint_eigenvalues", characters._joint_eigenvalues))

    def fresh_quadruple(seed):  # fresh algebras: nothing validated or searched yet
        X = random_space(np.random.default_rng(seed), 4)
        E = sh.preset_algebra("pointwise_2")
        return sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E))

    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "exact_demo.json"
    checks = {
        "verify_product_theorem": lambda: sh.verify_product_theorem(fresh_quadruple(1)).passed,
        "check_admissible": lambda: sh.check_admissible(fresh_quadruple(2)).passed,
        "check_natural": lambda: sh.check_natural(fresh_quadruple(3)),
        "cli.main": lambda: importlib.import_module("shilov.cli").main(
            ["--config", str(demo), "--output-dir", str(tmp_path), "--quiet"]) == 0,
    }
    previous = [get() for get, _ in controls]
    try:
        for name, check in checks.items():
            seen.clear()
            for _, set_ in controls:
                set_(2)
            assert check(), name
            after = [get() for get, _ in controls]
            assert sorted(seen) == ["_block_residuals", "_joint_eigenvalues", "close_rows"], name
            assert all(c == [1] * len(controls) for counts in seen.values() for c in counts), name
            assert (after, blas._PIN.depth) == ([2] * len(controls), 0), name
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _support_components(support):
    """Oracle for _blocks: union-find over the nonzero entries."""
    n, k = support.shape
    parent = list(range(n + k))  # rows, then columns

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for r, j in zip(*np.nonzero(support)):
        parent[root(int(r))] = root(n + int(j))
    components = {}
    for i in range(n + k):
        components.setdefault(root(i), []).append(i)
    blocks = [
        ([i for i in members if i < n], [i - n for i in members if i >= n])
        for members in components.values()
    ]
    return sorted(blocks)


def _column_by_column(matrix):
    """Oracle for _independent_columns: one Span.add per scaled nonzero
    column, as it was built before Span.extend."""
    span = sh.Span(matrix.shape[0])
    for col in matrix.T.astype(complex):
        peak = float(np.abs(col).max())
        if peak > 0.0:
            span.add(col / peak)
    return np.column_stack(span.kept)


def test_independent_columns_match_column_by_column():
    rng = np.random.default_rng(53)
    for rows, cols, rank in [(30, 12, 12), (40, 25, 9), (200, 150, 140), (6, 4, 1)]:
        matrix = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        matrix = matrix * 10.0 ** rng.uniform(-12, 12, cols)  # columns over 24 decades
        matrix = np.insert(matrix, rng.integers(0, cols + 1), 0.0, axis=1)  # dropped
        kept = _independent_columns(matrix)
        assert kept.shape == (rows, min(rank, cols))
        assert kept.tobytes() == _column_by_column(matrix).tobytes()
    S = sh.make_poly(random_space(rng, 12), sh.complex_field(), 8)
    W = sh.witnesses_from_system(S)
    assert W.values.tobytes() == _column_by_column(sh.function_algebras.pi_matrix(S)).tobytes()


def test_support_components_match_union_find():
    rng = np.random.default_rng(49)
    for _ in range(300):
        n, k = (int(size) for size in rng.integers(1, 16, size=2))
        support = rng.random((n, k)) < rng.choice([0.05, 0.2, 0.5])
        support[rng.integers(0, n)] = False  # an empty row
        support[:, rng.integers(0, k)] = False  # an empty column
        rows, cols = support_components(support)
        labels = np.unique(rows)
        assert all(label == np.flatnonzero(rows == label)[0] for label in labels)
        blocks = [
            (np.flatnonzero(rows == label).tolist(), np.flatnonzero(cols == label).tolist())
            for label in labels
        ]
        blocks += [([], [j]) for j in np.flatnonzero(cols == n).tolist()]
        assert sorted(blocks) == _support_components(support)


def test_blocks_are_the_support_components():
    rng = np.random.default_rng(40)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, n + 1))
        values = rng.standard_normal((n, k)) * (rng.random((n, k)) < 0.2)
        values[rng.integers(0, n, k), np.arange(k)] += 1.0  # no zero column
        if np.linalg.matrix_rank(values) < k:
            continue
        W = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), values)
        blocks = [(rows.tolist(), cols.tolist()) for rows, cols in _blocks(W)]
        assert blocks == _support_components(W.values != 0)


def test_block_diagonal_family_splits_without_labels():
    rng = np.random.default_rng(41)
    rows_a, cols_a, rows_b, cols_b = [0, 2, 4, 6, 8], [0, 3], [1, 3, 5, 7], [1, 2, 4]
    V = np.zeros((9, 5), dtype=complex)
    for rows, cols in ((rows_a, cols_a), (rows_b, cols_b)):
        shape = (len(rows), len(cols))
        V[np.ix_(rows, cols)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    W = sh.WitnessFamily(tuple(f"p{i}" for i in range(9)), V)
    blocks = [(rows.tolist(), cols.tolist()) for rows, cols in _blocks(W)]
    assert blocks == [(rows_a, cols_a), (rows_b, cols_b)]
    part = sh.shilov_estimate(W)
    whole = [sh.certify_peak(W, i) for i in range(W.candidate_count)]
    assert [c.status for c in part.certificates] == [c.status for c in whole]
    assert part.peak and part.not_peak + part.undecided
    assert all(sh.reverify_certificate(W, c) for c in part.certificates + whole)


def _square_families():
    rng = np.random.default_rng(42)
    X = random_space(rng, 4)
    for name in PRESET_NAMES:
        yield sh.witnesses_from_system(sh.make_CXE(X, sh.preset_algebra(name)))
    V = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    yield sh.WitnessFamily(tuple(f"p{i}" for i in range(6)), V)


def test_square_blocks_certify_with_one_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a square block needs no LP")

    monkeypatch.setattr(sh.boundary, "_HighsRounds", refuse)
    for W in _square_families():
        n = W.candidate_count
        swept = sh.shilov_estimate(W).certificates
        alone = [sh.certify_peak(W, i) for i in range(n)]
        for cert in swept + alone:
            assert cert.status == "certified_peak"
            assert cert.lp_lower == cert.lp_upper == 0.0
            assert cert.refined < 1e-12
            assert sh.reverify_certificate(W, cert)
        assert "sigma_min" not in vars(W._scaled)  # the LP box's SVD never ran


def test_sweep_skips_the_rank_check_of_its_blocks(monkeypatch):
    rng = np.random.default_rng(43)
    V = np.zeros((9, 5), dtype=complex)
    for rows, cols in (([0, 2, 4, 6, 8], [0, 3]), ([1, 3, 5, 7], [1, 2, 4])):
        V[np.ix_(rows, cols)] = rng.standard_normal((len(rows), len(cols)))
    W = sh.WitnessFamily(tuple(f"p{i}" for i in range(9)), V)
    calls = []
    independent_columns = sh.boundary._independent_columns

    def counting(matrix):
        calls.append(np.shape(matrix))
        return independent_columns(matrix)

    monkeypatch.setattr(sh.boundary, "_independent_columns", counting)
    part = sh.shilov_estimate(W)
    assert calls == []
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)
    # a family built by hand is still checked
    with pytest.raises(ValueError, match="dependent"):
        sh.WitnessFamily(("a", "b", "c"), np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert calls == [(3, 2)]


def test_hand_built_families_take_the_builders_column_rule():
    # columns rescaled to unit max modulus, as _independent_columns does:
    # a column of size 1e-9 is independent of the others
    W = sh.WitnessFamily(("a", "b", "c"), [[1e-9, 1], [0, 1], [0, 0.5]])
    assert W.values.shape == (3, 2)
    np.testing.assert_allclose(_independent_columns(W.values), [[1, 1], [0, 1], [0, 0.5]])
    with pytest.raises(ValueError, match="rank 1 < 2"):
        sh.WitnessFamily(("a", "b", "c"), [[1e-9, 1], [0, 0], [0, 0]])


def test_builders_skip_the_second_rank_check(monkeypatch):
    # _independent_columns already keeps only independent columns
    X = annulus_sample_50()
    E = sh.preset_algebra("dual_numbers")
    systems = [
        sh.make_rational(X, sh.complex_field(), 10, [0]),
        sh.make_poly(X, E, 3),
        sh.make_CXE(random_space(np.random.default_rng(48), 4), sh.preset_algebra("pointwise_3")),
    ]
    for S in systems:
        _ = S.scalars.characters  # the character search runs before counting
    calls = []
    independent_columns = sh.boundary._independent_columns

    def counting(matrix):
        calls.append(np.shape(matrix))
        return independent_columns(matrix)

    monkeypatch.setattr(sh.boundary, "_independent_columns", counting)
    families = [sh.witnesses_from_system(S) for S in systems]
    families += [sh.witnesses_from_algebra(S.scalars) for S in systems]
    # one rank pass per family, _independent_columns' own
    assert len(calls) == len(families)
    for W in families:
        rank = np.linalg.matrix_rank(W.values)
        assert rank == W.values.shape[1]


def test_sweep_reads_the_family_scale_once(monkeypatch):
    rng = np.random.default_rng(44)
    V = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    V[5] = 0.0
    W = sh.WitnessFamily(tuple(f"p{i}" for i in range(12)), V)
    scales = []
    scaled_of = _Scaled.of.__func__

    def counting(cls, values):
        scales.append(values.shape)
        return scaled_of(cls, values)

    monkeypatch.setattr(_Scaled, "of", classmethod(counting))
    part = sh.shilov_estimate(W)
    # once for the one swept block (row 5 is a block alone, with no columns)
    assert scales == [(11, 4)]
    assert part.status_of(5) == "certified_not_peak"
    assert all(sh.reverify_certificate(W, c) for c in part.certificates)
    assert scales == [(11, 4), (12, 4)]  # and once for W itself


# --- concurrent certification of a swept block --------------------------------------


def _fan_out_families():
    """One-block families whose candidates run LPs: on the 50-point annulus
    sample the annulus_product B family (50 x 21) and degree-4 polynomials
    (50 x 5), and a random 16 x 4 family."""
    rng = np.random.default_rng(47)
    X = annulus_sample_50()
    B = sh.make_rational(X, sh.complex_field(), 10, [0])
    small = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    return [
        sh.witnesses_from_system(B),
        sh.witnesses_from_system(sh.make_poly(X, sh.complex_field(), 4)),
        sh.WitnessFamily(tuple(f"p{i}" for i in range(16)), small),
    ]


def _sequential_sweep(W):
    """The sweep of a one-block family on one thread: the same block, then
    certify_peak candidate after candidate."""
    A = sh.boundary._Block(W.labels, W.values)
    return [sh.certify_peak(A, i) for i in range(W.candidate_count)]


@pytest.mark.parametrize("workers", [None, 1, 5])
def test_fan_out_changes_no_certificate(monkeypatch, workers):
    if workers is not None:
        monkeypatch.setattr(sh.boundary, "_cpu_count", lambda: workers)
    threads = set()
    certify = sh.boundary.certify_peak

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return certify(*args, **kwargs)

    monkeypatch.setattr(sh.boundary, "certify_peak", recording)
    statuses = set()
    for W in _fan_out_families():
        assert len(_blocks(W)) == 1
        swept = sh.shilov_estimate(W).certificates
        _assert_bit_equal(swept, _sequential_sweep(W))
        statuses.update(a.status for a in swept)
    assert statuses == {"certified_peak", "certified_not_peak", "undecided"}
    if workers == 1:  # one pool thread, not the caller
        assert len(threads) == 1 and threading.get_ident() not in threads
    if workers == 5:
        assert len(threads) > 1


def _assert_bit_equal(certificates, others):
    for a, b in zip(certificates, others, strict=True):
        assert (a.target, a.status, a.lp_lower, a.lp_upper, a.refined) == (
            b.target, b.status, b.lp_lower, b.lp_upper, b.refined
        )
        assert a.coefficients.tobytes() == b.coefficients.tobytes()


def test_lone_certificates_equal_the_sweeps():
    # the annulus demo's two systems (91 candidates: two seeding chunks) and
    # the annulus_product B family; each is one block, so a lone call seeds
    # its target with the chunk the sweep seeds it with
    workspace = cli._Workspace(cli.validate_config(DEMO_CONFIG_DIR / "annulus_demo.json"))
    families = [
        sh.witnesses_from_system(workspace.system("poly")),
        sh.witnesses_from_system(workspace.system("rational")),
        _fan_out_families()[0],
    ]
    for W in families:
        assert len(_blocks(W)) == 1
        lone = [sh.certify_peak(W, t) for t in range(W.candidate_count)]
        _assert_bit_equal(sh.shilov_estimate(W).certificates, lone)


@pytest.mark.parametrize("bad", [0, 49])
def test_fan_out_raises_a_failure_and_leaves_no_thread(monkeypatch, bad):
    monkeypatch.setattr(sh.boundary, "_cpu_count", lambda: 3)
    controls = blas._openblas_controls()
    W = _fan_out_families()[0]
    bad_row = W._scaled.values[bad]  # the swept block's row, bit for bit
    solve = sh.boundary._solve_polygon_lp

    def failing(V_off, v_t, *args, **kwargs):
        if np.array_equal(v_t, bad_row):
            raise sh.CertificationError("injected failure")
        return solve(V_off, v_t, *args, **kwargs)

    def state():
        return threading.active_count(), [get() for get, _ in controls], blas._PIN.depth

    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        before = state()
        sh.shilov_estimate(W)
        after_success = state()
        monkeypatch.setattr(sh.boundary, "_solve_polygon_lp", failing)
        with pytest.raises(sh.CertificationError, match="injected failure"):
            sh.shilov_estimate(W)
        after_failure = state()
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert before == after_success == after_failure
    assert before[1:] == ([2] * len(controls), 0)
