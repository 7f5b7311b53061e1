"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Estimation-regime fixtures (disk and annulus certification sweeps)
are shared across criteria to keep the suite within its runtime budget.
"""

import json
import math

import numpy as np
import pytest

import shilov as sh
from conftest import (
    PRESET_CHARACTER_COUNTS,
    PRESET_NAMES,
    assert_peak_sets_reverify,
    minimax_grid_oracle,
    random_space,
)
from shilov.cli import main as cli_main

SEC32 = 1.0 / math.cos(math.pi / 32)


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {message}")


# --- shared estimation-regime setups -------------------------------------------


@pytest.fixture(scope="module")
def disk_setup():
    raster = sh.raster_from_shape(sh.Disk(0, 1), 16)
    circle = sh.sample_raster(raster, sh.CircleSample(0, 1.0, 48))
    grid = sh.sample_raster(raster, sh.InteriorGrid(0.15))
    X = sh.combine_spaces(circle, grid)
    return raster, X, circle.size


@pytest.fixture(scope="module")
def annulus_setup():
    raster = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    outer = sh.sample_raster(raster, sh.CircleSample(0, 1.0, 48))
    inner = sh.sample_raster(raster, sh.CircleSample(0, 0.5, 48))
    grid = sh.sample_raster(raster, sh.InteriorGrid(0.15))
    X = sh.combine_spaces(outer, inner, grid)
    return raster, X, outer.size, inner.size


@pytest.fixture(scope="module")
def annulus_rational_product(annulus_setup):
    """The estimation-regime product check for B = degree-16 rational
    witnesses and B~ = span(B E) over E = C^2: one sweep of B's family
    serves criterion 5 (b_partition) and criterion 6 (bt_partition)."""
    _, X, _, _ = annulus_setup
    B = sh.make_rational(X, sh.complex_field(), 16, [0])
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(X, E, B, sh.span_BE(B, E))
    return sh.verify_product_theorem(Q, regime="estimation")


def test_criterion_1_hausner_consistency():
    rng = np.random.default_rng(101)
    for name in PRESET_NAMES:
        E = sh.preset_algebra(name)
        for size in (2, 3, 4, 5):
            X = random_space(rng, size)
            Bt = sh.make_CXE(X, E)
            Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), Bt)
            pi = sh.build_pi(Q)
            abstract = sh.characters(pi[0].algebra)  # as_algebra(Bt)
            expected = PRESET_CHARACTER_COUNTS[name] * size
            assert len(abstract) == expected, (name, size, len(abstract))
            assert len(pi) == expected
            pi_values = np.array([c.values for c in pi])
            matched = set()
            for chi in abstract:
                dist = np.max(np.abs(pi_values - chi.values[None, :]), axis=1)
                j = int(np.argmin(dist))
                assert dist[j] < 1e-6, (name, size, dist[j])
                matched.add(j)
            assert len(matched) == expected
    note(1, "characters of C(X,E) match pi(M(E) x X) for all presets, |X| in 2..5")


def test_criterion_2_radical_laws():
    for name in PRESET_NAMES:
        E = sh.preset_algebra(name)
        chars = E.characters
        rad = sh.radical(E)
        assert len(rad) + len(chars) == E.dim, name
        for r in rad:
            for chi in chars:
                assert abs(chi(r)) < 1e-8
            from shilov.characters import nilpotency_residual

            assert nilpotency_residual(E, r) < 1e-8
    note(2, "radical dimension, annihilation and nilpotency laws for all presets")


def test_criterion_3_exact_regime_product_theorems():
    rng = np.random.default_rng(303)
    presets = [sh.preset_algebra(name) for name in PRESET_NAMES]
    scalars = sh.complex_field()
    for trial in range(20):
        E = presets[trial % len(presets)]
        X = random_space(rng, int(rng.integers(2, 5)))
        if trial % 2:
            alpha = 0.5 if (trial // 2) % 2 else 1.0
            B, Bt = sh.make_lip(X, scalars, alpha), sh.make_lip(X, E, alpha)
        else:
            B, Bt = sh.make_CXE(X, scalars), sh.make_CXE(X, E)
        Q = sh.Quadruple(X, E, B, Bt, label=f"trial{trial}")
        report = sh.verify_peak_product(Q, regime="exact")
        base = report.base
        assert base.preconditions["natural"], Q.label
        assert base.missing == [] and base.extra == [], (Q.label, base.missing, base.extra)
        # Gamma = S0 on every finite candidate set: certified sets coincide
        assert_peak_sets_reverify(report)
        assert report.certificates_reverified
        assert report.passed
    note(3, "20 randomized natural quadruples: empty symmetric differences, Gamma = S0")


def test_criterion_4_minimax_solver_brackets():
    rng = np.random.default_rng(404)
    for trial in range(100):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(7, n)))
        V = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W = sh.WitnessFamily(tuple(f"p{i}" for i in range(n)), V)
        cert = sh.certify_peak(W, int(rng.integers(0, n)))
        assert cert.lp_lower <= cert.refined <= cert.lp_upper, trial
        assert cert.lp_upper <= cert.lp_lower * SEC32 + 1e-9, trial
    for trial in range(25):
        V = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        W = sh.WitnessFamily(("a", "b", "c"), V)
        target = int(rng.integers(0, 3))
        cert = sh.certify_peak(W, target)
        oracle = minimax_grid_oracle(V, target)
        assert abs(cert.refined - oracle) <= 1e-3, (trial, cert.refined, oracle)
    note(4, "LP brackets on 100 random families; refined optimum matches grid oracle")


def test_criterion_5_estimation_soundness(disk_setup, annulus_setup, annulus_rational_product):
    _, X_disk, n_circle = disk_setup
    poly = sh.make_poly(X_disk, sh.complex_field(), 16)
    part = sh.shilov_estimate(sh.witnesses_from_system(poly))
    interior = [i for i in part.peak if i >= n_circle]
    assert interior == [], f"interior disk samples certified: {interior}"

    _, X_ann, n_outer, n_inner = annulus_setup
    poly_ann = sh.make_poly(X_ann, sh.complex_field(), 16)
    part_poly = sh.shilov_estimate(sh.witnesses_from_system(poly_ann))
    inner_certified = [i for i in part_poly.peak if n_outer <= i < n_outer + n_inner]
    assert inner_certified == [], "polynomial witnesses certified inner-circle points"

    part_rat = annulus_rational_product.b_partition
    inner_frac = sum(1 for i in part_rat.peak if n_outer <= i < n_outer + n_inner) / n_inner
    outer_frac = sum(1 for i in part_rat.peak if i < n_outer) / n_outer
    assert inner_frac >= 0.75, inner_frac
    assert outer_frac >= 0.75, outer_frac
    note(
        5,
        "disk/annulus max-modulus soundness; rational witnesses certify "
        f"{outer_frac:.0%} outer, {inner_frac:.0%} inner circle samples",
    )


def test_criterion_6_product_structure(annulus_setup, annulus_rational_product):
    _, X, _, _ = annulus_setup
    report = annulus_rational_product
    part_scalar, part_product = report.b_partition, report.bt_partition
    chars = sh.preset_algebra("pointwise_2").characters
    certified = {divmod(idx, X.size) for idx in part_product.peak}
    expected = {(i, x) for i in range(len(chars)) for x in part_scalar.peak}
    assert certified == expected
    assert report.passed and report.extra == []
    note(6, f"product family certified set equals {{chi1,chi2}} x scalar set ({len(certified)} pairs)")


def test_criterion_7_peaking_synthesis():
    rng = np.random.default_rng(707)
    scalars = sh.complex_field()
    done = 0
    while done < 50:
        E = sh.preset_algebra(PRESET_NAMES[done % len(PRESET_NAMES)])
        X = random_space(rng, int(rng.integers(2, 5)))
        Q = sh.Quadruple(X, E, sh.make_CXE(X, scalars), sh.make_CXE(X, E))
        chars_E = E.characters

        raw_v = rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim)
        v_norm = sh.gelfand_norm(E, E.element(raw_v))
        if v_norm < 0.1:
            continue
        v = E.element(raw_v / v_norm)
        v_hat = np.abs(np.array([psi(v) for psi in chars_E]))

        raw_f = rng.standard_normal(X.size) + 1j * rng.standard_normal(X.size)
        f_values = raw_f / np.abs(raw_f).max()
        f_hat = np.abs(f_values)

        # generic inputs: demand a clear argmax gap so the index sets are stable
        def argmax_set(values):
            return {int(i) for i in np.flatnonzero(values >= values.max() - 1e-9)}

        if len(chars_E) > 1 and np.sort(v_hat)[-2] > 1 - 1e-6:
            continue
        if np.sort(f_hat)[-2] > 1 - 1e-6:
            continue

        f_coeffs = sh.span_membership(Q.scalar_system, f_values[:, None])
        peaker = sh.synthesize_product_peaker(v, f_coeffs, Q)
        assert peaker.membership is not None
        assert abs(peaker.max_modulus - 1.0) <= 1e-9
        assert set(peaker.argmax_pairs) == {
            (i, j) for i in argmax_set(v_hat) for j in argmax_set(f_hat)
        }
        done += 1
    note(7, "50 synthesized peakers: max |g-hat| = 1 and argmax factorizes")


def test_criterion_8_hull_raster_oracle():
    for resolution in (16, 32):
        ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), resolution)
        disk = sh.raster_from_shape(sh.Disk(0, 1), resolution)
        assert np.array_equal(sh.polynomial_hull_raster(ann).grid, disk.grid)

    rng = np.random.default_rng(808)
    for _ in range(50):
        size = int(rng.integers(12, 28))
        grid = np.zeros((size, size), dtype=bool)
        grid[1:-1, 1:-1] = rng.random((size - 2, size - 2)) < 0.4
        if not grid[1:-1, 1:-1].any():
            grid[size // 2, size // 2] = True
        R = sh.RasterRegion(grid, 0j, 1.0 / size)
        H = sh.polynomial_hull_raster(R)
        assert (R.grid & ~H.grid).sum() == 0  # extensive
        assert np.array_equal(sh.polynomial_hull_raster(H).grid, H.grid)  # idempotent
        bigger = grid.copy()
        bigger[1:-1, 1:-1] |= rng.random((size - 2, size - 2)) < 0.08
        H2 = sh.polynomial_hull_raster(sh.RasterRegion(bigger, 0j, 1.0 / size))
        assert (H.grid & ~H2.grid).sum() == 0  # monotone
    note(8, "hull(annulus) = disk at resolutions 16/32; closure laws on 50 random bitmaps")


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "seed": 20240,
        "algebras": {"D": "dual_numbers", "E2": "pointwise_2"},
        "spaces": {
            "X": {"points": ["a", "b", "c"], "coords": [[0.2, 0.1], [0.9, -0.3], [-0.5, 0.7]]},
            "ann": {
                "shape": [{"kind": "annulus", "center": [0, 0], "inner": 0.5, "outer": 1.0}],
                "resolution": 16,
            },
            "samples": {
                "sample_of": "ann",
                "strategies": [
                    {"kind": "circle", "center": [0, 0], "radius": 1.0, "count": 12},
                    {"kind": "interior_grid", "step": 0.4},
                ],
            },
        },
        "systems": {
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            "Bt": {"kind": "cxe", "space": "X", "algebra": "E2"},
            "poly": {"kind": "poly", "space": "samples", "algebra": "complex", "degree": 6},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "E2", "scalar_system": "B", "vector_system": "Bt"}
        },
        "run": [
            {"command": "characters", "target": "D", "name": "chars"},
            {"command": "hull", "target": "ann", "name": "hull"},
            {"command": "shilov", "target": "poly", "raster": "ann", "name": "shilov"},
            {"command": "verify-product", "target": "Q", "name": "vp"},
            {"command": "verify-peaks", "target": "Q", "name": "vpk"},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["--config", str(path), "--output-dir", str(out1), "--quiet"]) == 0
    assert cli_main(["--config", str(path), "--output-dir", str(out2), "--quiet"]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) >= 7
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    note(9, f"two CLI runs produced byte-identical outputs ({len(names1)} files)")
