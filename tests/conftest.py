"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import os

# Before numpy loads: the suite's small dense products run slower when
# OpenBLAS spreads them over threads (about 7x over the whole suite on 2 cores).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.linalg

import shilov as sh

PRESET_NAMES = [
    "pointwise_2",
    "pointwise_3",
    "dual_numbers",
    "truncated_poly_3",
    "cyclic_group_3",
]

# |M(E)| for each preset, derivable by hand from the defining relations
PRESET_CHARACTER_COUNTS = {
    "pointwise_2": 2,
    "pointwise_3": 3,
    "dual_numbers": 1,
    "truncated_poly_3": 1,
    "cyclic_group_3": 3,
}


@pytest.fixture(params=PRESET_NAMES)
def preset(request):
    return sh.preset_algebra(request.param)


def assert_peak_sets_reverify(report: sh.PeakProductReport) -> None:
    """Gamma = S0: each certified peak set is exactly its re-verified peaks."""
    base = report.base
    for part in (base.e_partition, base.b_partition, base.bt_partition):
        reverified = [
            c.target for c in part.certificates
            if c.status == "certified_peak" and sh.reverify_certificate(part.family, c)
        ]
        assert part.peak == reverified, (base.quadruple, part.family.label)


def random_space(rng: np.random.Generator, n: int) -> sh.FiniteSpace:
    """n distinct points in the unit square of the plane."""
    while True:
        coords = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if n == 1 or np.min(np.abs(coords[:, None] - coords[None, :])[
            ~np.eye(n, dtype=bool)
        ]) > 0.05:
            return sh.FiniteSpace(tuple(f"p{k}" for k in range(n)), coords)


def random_natural_quadruple(rng: np.random.Generator):
    """A (X, E, B, B~) quadruple from the full/Lipschitz constructors."""
    name = PRESET_NAMES[rng.integers(0, len(PRESET_NAMES))]
    E = sh.preset_algebra(name)
    n = int(rng.integers(2, 5))
    X = random_space(rng, n)
    scalars = sh.complex_field()
    if rng.integers(0, 2):
        alpha = 0.5 if rng.integers(0, 2) else 1.0
        B = sh.make_lip(X, scalars, alpha)
        Bt = sh.make_lip(X, E, alpha)
    else:
        B = sh.make_CXE(X, scalars)
        Bt = sh.make_CXE(X, E)
    return sh.Quadruple(X, E, B, Bt, label=f"({E.label},|X|={n},{B.norm_tag})")


def conjugated_algebra(rng: np.random.Generator, base: sh.AlgebraSpec) -> sh.AlgebraSpec:
    """Transport a preset's structure through a random change of basis.

    Character count and radical dimension are invariants of the isomorphism
    class, so these make nontrivial test algebras with known answers.
    """
    n = base.dim
    while True:
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(S) < 50:
            break
    return algebra_in_basis(base, S)


def algebra_in_basis(base: sh.AlgebraSpec, S: np.ndarray) -> sh.AlgebraSpec:
    """base with the basis e'_i = sum_a S[a, i] e_a (S invertible)."""
    n = base.dim
    Sinv = np.linalg.inv(S)
    # e'_i = sum_a S[a,i] e_a; c'[i,j,k] = S[a,i] S[b,j] c[a,b,m] Sinv[k,m]
    c = np.einsum("ai,bj,abm,km->ijk", S, S, base.structure, Sinv, optimize=True)
    unit = Sinv @ base.unit
    weight = max(1.0, float(np.abs(c).sum(axis=2).max()))
    return sh.AlgebraSpec(n, c, unit, np.full(n, weight), f"{base.label}~conj")


def minimax_grid_oracle(V: np.ndarray, target: int) -> float:
    """Dense zooming grid search for min max_{r != target} |(Vc)_r|, (Vc)_target = 1.

    Only for families with 2 witnesses (one complex degree of freedom after
    the normalization), where an exhaustive search is affordable.  The
    objective is convex, so coarse-to-fine zooming cannot lose the minimizer
    as long as each window covers a cell around the grid argmin.
    """
    v_t = V[target]
    V_off = np.delete(V, target, axis=0)
    c0 = v_t.conj() / float(np.vdot(v_t, v_t).real)
    N = scipy.linalg.null_space(v_t[None, :])
    if N.shape[1] == 0:
        return float(np.abs(V_off @ c0).max())
    assert N.shape[1] == 1, "oracle only handles a single null direction"
    A = (V_off @ N)[:, 0]
    w0 = V_off @ c0
    f0 = float(np.abs(w0).max())
    usable = np.abs(A) > 1e-9
    if not usable.any():
        return f0
    # any row with A_r != 0 bounds the minimizer: |A_r||y| - |w0_r| <= F(0)
    radius = float(np.min((f0 + np.abs(w0[usable])) / np.abs(A[usable]))) + 1.0
    center = 0.0 + 0.0j
    best = f0
    for _ in range(7):
        re = np.linspace(center.real - radius, center.real + radius, 41)
        im = np.linspace(center.imag - radius, center.imag + radius, 41)
        y_grid = re[None, :] + 1j * im[:, None]
        vals = np.abs(w0[:, None, None] + A[:, None, None] * y_grid[None]).max(axis=0)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[idx]))
        center = y_grid[idx]
        radius = radius * (2.5 / 40.0)
    return best


def direct_product(factors, position) -> tuple[sh.AlgebraSpec, list[np.ndarray]]:
    """The product of the factor algebras with a permuted basis: the factors'
    basis elements, stacked in order, are the product's basis elements
    position[0], position[1], ...  Returns the product and each factor's
    slots, the product indices of its basis in the factor's own order."""
    n = sum(F.dim for F in factors)
    c = np.zeros((n, n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    weights = np.zeros(n)
    slots, start = [], 0
    for F in factors:
        idx = np.asarray(position[start : start + F.dim])
        start += F.dim
        c[np.ix_(idx, idx, idx)] = F.structure
        unit[idx], weights[idx] = F.unit, F.weights
        slots.append(idx)
    return sh.AlgebraSpec(n, c, unit, weights, "product"), slots
