"""Certified peak points and Shilov boundaries over finite candidate sets.

A candidate character phi is a certified peak point of a witness family when
the convex minimax program

    minimize  max_{psi != phi} |(Vc)(psi)|   subject to   (Vc)(phi) = 1

has optimum provably below 1 - tol: a strict-max witness rescales to a
peaking function.  Each modulus is sandwiched between the max over m polygon
directions and sec(pi/m) times it, so one linear program yields a certified
bracket [lp_lower, lp_upper] around the optimum.  The certificate is the
LP point or the seed that started the LP, whichever is smaller off the
target: a feasible value no larger than the LP point's, so inside the
bracket.
Every LP takes one path: an active set of polygon constraints, seeded by
Lawson's reweighting iteration (run for a whole block of targets at once)
and grown on incremental HiGHS inside a box that holds every LP optimum.
A square family needs no LP: it is invertible, so V^-1 e_t vanishes off
the target and the optimum is 0.

On a finite candidate set with the full algebra as witnesses the certified
peak set is the Shilov boundary and coincides with the peak-point set; with
a capped witness family it is a sound under-approximation.

Sweeps read the product structure g = v f of the paper off the witness
values: two rows share a block when nonzero witness columns join them, so
the blocks are the connected components of the row-column support graph.
Each distinct block is certified once; zero-padded, its certificates
certify the same rows of the whole family.  A block's solver state (scaled
values, unseen rows, seeds, smallest singular value) is computed once, and
then its candidates are mapped over a thread pool with one thread per CPU:
each candidate is its own LP on its own HiGHS model, which releases the
interpreter lock while it runs, and every certificate is bit-identical to a
sequential run's.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy  # bound here: perfbench's tracer wraps boundary.scipy.optimize


def _load_highs_core():
    """scipy's incremental HiGHS extension, without importing scipy.optimize.

    ``import scipy.optimize._highspy._core`` first runs scipy/optimize's
    __init__, which imports every solver of scipy.optimize and what they
    use, a large share of this package's import time; the extension itself
    needs none of it.  So the extension file is found in its package
    directory and executed directly.  The module enters sys.modules under
    its own name before it runs: a later ``import scipy.optimize`` then
    finds it there and reuses it, and pybind11, which refuses to register
    the same types twice, never sees a second copy.  A copy already
    imported is used as it is.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    package_dir = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [package_dir])
    if spec is None:
        raise ImportError(f"no {name} extension in {package_dir}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_highs_core = _load_highs_core()  # incremental HiGHS

from .algebra import AlgebraSpec, Element, support_components
from .blas import single_threaded
from .characters import character_matrix, gelfand_norm
from .function_algebras import (
    FunctionSystem,
    Quadruple,
    Span,
    check_admissible,
    check_natural,
    pi_matrix,
    span_membership,
)
from .reports import ValidationReport, complex_array_to_pairs
from .spaces import RasterRegion, pgm_text

DEFAULT_TOL = 1e-4
DEFAULT_SIDES = 32
BOUNDARY_SEED = 1729  # seed of is_boundary's random witnesses
BOUNDARY_SAMPLES = 1000  # how many random witnesses is_boundary draws
CERT_REVERIFY_TOL = 1e-9

# Reported LP bounds carry a tiny pad for roundoff at the 1e-9 feasibility
# tolerances of _HighsRounds; small enough that
# lp_upper <= lp_lower * sec(pi/m) + 1e-9 still holds.
_LP_PAD = 3e-10

PGM_LEVELS = {"certified_not_peak": 85, "undecided": 170, "certified_peak": 255}


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class WitnessFamily:
    """Witness transforms evaluated at candidate characters.

    values[r, j] is the j-th witness evaluated at candidate r.  Columns are
    linearly independent by _independent_columns' rule (builders drop
    dependent witnesses: only the column space matters to the minimax
    programs), so a family has at most as many columns as rows, and a square
    family is invertible.  coords, when present, give a planar location per
    candidate for geometry exports.  shilov_estimate reads the family's
    blocks off the zero pattern of values.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    coords: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)  # a copy: frozen below
        if values.ndim != 2:
            raise ValueError("witness values must be a 2-d matrix")
        if len(self.labels) != values.shape[0]:
            raise ValueError("one label per candidate row required")
        if values.shape[1] == 0:
            raise ValueError("witness family needs at least one column")
        self._check_columns(values)
        values.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", values)
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=complex).reshape(values.shape[0])
            coords.setflags(write=False)
            object.__setattr__(self, "coords", coords)

    @staticmethod
    def _check_columns(values: np.ndarray) -> None:
        rank = _independent_columns(values).shape[1]
        if rank < values.shape[1]:
            raise ValueError(
                f"witness columns dependent: rank {rank} < {values.shape[1]}"
            )

    @property
    def candidate_count(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def _scaled(self) -> "_Scaled":
        return _Scaled.of(self.values)


class _Block(WitnessFamily):
    """A family whose columns are independent by construction, so the rank
    check is not run again: a block of rows and columns cut out of a checked
    family (its columns are independent because the family's are, and they
    vanish on every other row), or a builder's _independent_columns."""

    @staticmethod
    def _check_columns(values: np.ndarray) -> None:
        pass


@single_threaded()
def _independent_columns(matrix: np.ndarray) -> np.ndarray:
    """Keep independent columns, each rescaled to unit max modulus first
    (zero columns dropped), by one Span.extend.

    Scaling a witness never changes the family's span, and without it
    families like Laurent monomials span fifteen orders of magnitude and
    wreck the conditioning of every downstream solve.
    """
    columns = np.asarray(matrix, dtype=complex).T
    peaks = np.abs(columns).max(axis=1)
    nonzero = peaks > 0.0
    span = Span.of(columns[nonzero] / peaks[nonzero, None])
    if not span.rank:
        raise ValueError("witness family has no nonzero column")
    return np.column_stack(span.kept)


def witnesses_from_algebra(E: AlgebraSpec, label: str = "") -> WitnessFamily:
    """Candidates = E.characters, witnesses = transforms of the basis."""
    return _Block(
        tuple(chi.label for chi in E.characters),
        _independent_columns(character_matrix(E)),
        label=label or f"M({E.label})",
    )


def witnesses_from_system(S: FunctionSystem, label: str = "") -> WitnessFamily:
    """Candidates = evaluation characters of a function system.

    The candidates are the pairs (psi, x), psi-major over
    S.scalars.characters, with values psi(f_m(x)) (pi_matrix); scalar
    systems have one psi and keep the point labels.  For E-valued systems
    rows factor through the semisimple quotient of E, so dependent witness
    columns (e.g. radical multiples) are dropped.
    """
    X = S.space
    psis = S.scalars.characters
    labels = X.points if S.scalars.dim == 1 else tuple(
        f"{psi.label}|{point}" for psi in psis for point in X.points
    )
    return _Block(
        labels,
        _independent_columns(pi_matrix(S)),
        coords=None if X.coords is None else np.tile(X.coords, len(psis)),
        label=label or (S.label or "system"),
    )


# ---------------------------------------------------------------------------
# The minimax solver


@dataclass(frozen=True)
class PeakCertificate:
    """Outcome of one peak query, re-verifiable from coefficients alone."""

    target: int
    status: str  # certified_peak | certified_not_peak | undecided
    coefficients: np.ndarray
    lp_lower: float
    lp_upper: float
    refined: float

    def to_dict(self) -> dict:
        return {**vars(self), "coefficients": complex_array_to_pairs(self.coefficients)}


class _HighsRounds:
    """Incremental LP on HiGHS: added rows keep the basis, so re-runs are warm.

    HiGHS occasionally gives up on a dense model: ``run`` returns kError, or
    ends with a model status other than optimal (kUnknown when the final
    basis misses the 1e-9 primal tolerance on a degenerate LP).  The model
    then drops its solver state (basis, factorization), switches presolve
    on for the rest of this LP and runs once more on the same rows and
    tolerances; a second failure raises CertificationError.
    """

    def __init__(self, v_t: np.ndarray, radius: float):
        k = self.k = v_t.size
        inf = _highs_core.kHighsInf
        h = _highs_core._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        # keep solver roundoff well inside the reported bound pads
        h.setOptionValue("small_matrix_value", 1e-12)
        h.setOptionValue("primal_feasibility_tolerance", 1e-9)
        h.setOptionValue("dual_feasibility_tolerance", 1e-9)
        nvars = 2 * k + 1
        # Re c and Im c in [-radius, radius] (see _solve_polygon_lp), t >= 0
        lower = np.full(nvars, -radius)
        upper = np.full(nvars, radius)
        lower[-1], upper[-1] = 0.0, inf
        h.addVars(nvars, lower, upper)
        cost = np.zeros(nvars)
        cost[-1] = 1.0
        h.changeColsCost(nvars, np.arange(nvars, dtype=np.int32), cost)
        eq = np.zeros((2, nvars))
        eq[0, :k], eq[0, k : 2 * k] = v_t.real, -v_t.imag
        eq[1, :k], eq[1, k : 2 * k] = v_t.imag, v_t.real
        self._add(h, eq, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        self.h = h

    @staticmethod
    def _add(h, block: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        nrows, ncols = block.shape
        starts = np.arange(nrows, dtype=np.int32) * ncols
        indices = np.tile(np.arange(ncols, dtype=np.int32), nrows)
        status = h.addRows(
            nrows, lower, upper, block.size, starts, indices,
            np.ascontiguousarray(block, dtype=float).ravel(),
        )
        # kWarning just reports dropped sub-tolerance entries; rows are in
        if status == _highs_core.HighsStatus.kError:
            raise CertificationError("HiGHS rejected constraint rows")

    def add_rows(self, block: np.ndarray) -> None:
        nrows = block.shape[0]
        self._add(
            self.h, block,
            np.full(nrows, -_highs_core.kHighsInf), np.zeros(nrows),
        )

    def _run(self) -> bool:
        return (
            self.h.run() == _highs_core.HighsStatus.kOk
            and self.h.getModelStatus() == _highs_core.HighsModelStatus.kOptimal
        )

    def solve(self) -> tuple[np.ndarray, float]:
        if not self._run():
            self.h.clearSolver()
            self.h.setOptionValue("presolve", "on")
            if not self._run():
                raise CertificationError(
                    f"HiGHS run failed: model status {self.h.getModelStatus()}"
                )
        x = np.asarray(self.h.getSolution().col_value)
        k = self.k
        return x[:k] + 1j * x[k : 2 * k], float(self.h.getObjectiveValue())


def _solve_polygon_lp(
    V_off: np.ndarray,
    v_t: np.ndarray,
    m: int,
    seed: np.ndarray,
    sigma_min: float,
    stop_lower: float,
):
    """Minimize the polygon max over off-target rows subject to (Vc)(target)=1.

    This is the one LP path of every non-square family.  Constraints are
    generated lazily per (candidate, direction) pair: solve on an active
    subset, add the most violated pairs, re-run the warm solver.  The reduced
    optimum is always a valid lower bound for the full LP, and on clean
    termination (no violated pairs) it equals the full optimum exactly.

    ``seed`` is a feasible point (v_t seed = 1); its near-maximal rows seed
    the active set.  It also bounds the LP: with T its off-target max
    modulus, every full-LP optimum c has polygon value p <= T, so
    |(Vc)_r| <= T sec(pi/m) off the target, |(Vc)_t| = 1 and
    ||c||_2 <= sqrt(1 + (n - 1) (T sec)^2) / sigma_min(V).  Boxing each real
    variable by that radius keeps every full-LP optimum (so reduced optima
    stay lower bounds) and makes every reduced LP bounded.

    ``stop_lower`` ends the search early once the certified lower bound
    passes that threshold while the iterate's true max modulus stays inside
    the sec(pi/m) bracket; near-flat optima (every candidate active) otherwise
    waste rounds polishing a hugely degenerate vertex.
    """
    k = v_t.size
    sec = 1.0 / math.cos(math.pi / m)
    phases = np.exp(-2j * np.pi * np.arange(m) / m)
    w_seed = V_off @ seed
    w_abs = np.abs(w_seed)
    top = w_abs.max()
    # doubled against roundoff in sigma_min and in the seed's normalization
    radius = 2.0 * math.sqrt(1.0 + V_off.shape[0] * (top * sec) ** 2) / sigma_min
    backend = _HighsRounds(v_t, radius)

    def rows_for(cand_idx: np.ndarray, dir_idx: np.ndarray) -> np.ndarray:
        W_sel = V_off[cand_idx] * phases[dir_idx][:, None]  # (pairs, k)
        return np.concatenate(
            [W_sel.real, -W_sel.imag, -np.ones((len(cand_idx), 1))], axis=1
        )

    # Near-maximal rows at a near-optimal point are the constraints the LP
    # will bind, so the generation loop usually terminates after one or two
    # warm re-runs.
    if top >= 0.95:  # near-flat: most candidates will be active
        near = np.flatnonzero(w_abs >= min(0.9, top * 0.9))
    else:
        near = np.flatnonzero(w_abs >= top * 0.85)
    if near.size < 2 * k + 16:
        near = np.argsort(-w_abs, kind="stable")[: 2 * k + 16]
    if near.size > 400:
        near = near[np.argsort(-w_abs[near], kind="stable")[:400]]
    best_dir = np.argmax(np.real(np.multiply.outer(w_seed, phases)), axis=1)
    # at a zero optimum every row must vanish: three spread directions pin it
    # in the first run, where a boxed column would otherwise rest at a bound
    shifts = (-1, 0, 1) if top > 0 else (0, m // 3, 2 * m // 3)
    active = {
        (int(r), int((best_dir[r] + shift) % m)) for r in near for shift in shifts
    }
    backend.add_rows(rows_for(*np.array(sorted(active)).T))

    for _ in range(80):
        c, t_star = backend.solve()
        if t_star >= stop_lower and _max_modulus(V_off, c) <= t_star * sec:
            return c, t_star
        proj = np.real(np.multiply.outer(V_off @ c, phases))
        slack = proj - (t_star + 1e-11 * (1.0 + abs(t_star)))
        viol_rows, viol_dirs = np.nonzero(slack > 0)
        if viol_rows.size == 0:
            return c, t_star
        # at most two fresh directions per row; redundant directions of one
        # row crowd out coverage of new rows otherwise
        fresh: dict[int, list[tuple[float, int]]] = {}
        for r, d in zip(viol_rows, viol_dirs):
            fresh.setdefault(int(r), []).append((-slack[r, d], int(d)))
        additions = []
        for r, opts in fresh.items():
            opts.sort()
            additions.extend(
                (opts[0][0], (r, d)) for _, d in opts[:2] if (r, d) not in active
            )
        if not additions:
            return c, t_star
        additions.sort(key=lambda item: (item[0], item[1]))
        chosen = [pair for _, pair in additions[:300]]
        active.update(chosen)
        backend.add_rows(rows_for(*np.array(chosen).T))
    raise CertificationError("constraint generation failed to converge")


def _max_modulus(V_off: np.ndarray, c: np.ndarray) -> float:
    return float(np.abs(V_off @ c).max(initial=0.0))


# Targets per vectorized seeding pass: _seeds' work arrays are (chunk, n)
# and (chunk, k, k) for n candidates and k witnesses.
_SEED_CHUNK = 64
_SEED_ITERS = 60  # Lawson rounds at most
_SEED_RTOL = 1e-3  # relative gap to Lawson's lower bound that ends the rounds


def _seeds(scaled: "_Scaled", targets) -> np.ndarray:
    """Near-optimal coefficients (v_t c = 1) for each target, one row each.

    Lawson's iteration for the minimax problem, run for every target at
    once: with weights d on the off-target rows (uniform at first), c
    minimizes sum_r d_r |(Vc)_r|^2 subject to v_t c = 1, which is
    c = x / (v_t x) with M x = conj(v_t), M = V^H diag(d) V; then
    d_r <- d_r |(Vc)_r|, normalized.  The weights concentrate on the rows
    that bind at the optimum, and those rows are what the LP's active set
    needs.  V is the scaled family's values.  A row returned is the best
    iterate by the true off-target max; a target the family marks unseen
    gets a zero row.  A square V is invertible, and its rows are V^-1 e_t,
    the exact optimum.  Targets run in chunks of _SEED_CHUNK, so memory
    stays O(chunk * n * k) (k <= n).
    """
    V = scaled.values
    targets = np.asarray(targets, dtype=int).reshape(-1)
    seeds = np.zeros((targets.size, V.shape[1]), dtype=complex)
    for start in range(0, targets.size, _SEED_CHUNK):
        chunk = targets[start : start + _SEED_CHUNK]
        seen = ~scaled.unseen[chunk]
        if seen.any():
            seeds[start : start + chunk.size][seen] = _lawson(V, chunk[seen])
    return seeds


def _lawson(V: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """_seeds on a nonempty index array of seen targets."""
    n, k = V.shape
    if n == k:  # square, so invertible: V c = e_t
        return np.linalg.solve(V, np.eye(n)[:, targets]).T
    a = V[targets]  # (T, k) target rows
    rows = np.arange(targets.size)
    V_H = V.conj().T
    d = np.ones((targets.size, n))
    d[rows, targets] = 0.0
    d /= n - 1
    best = np.full(targets.size, np.inf)
    best_c = np.zeros_like(a)
    for _ in range(_SEED_ITERS):
        M = (V_H[None] * d[:, None, :]) @ V  # (T, k, k): V^H diag(d) V per target
        # a tiny ridge keeps M invertible when fewer than k rows carry weight
        ridge = 1e-14 * (1.0 + np.trace(M, axis1=1, axis2=2).real)
        M += ridge[:, None, None] * np.eye(k)
        x = np.linalg.solve(M, a.conj()[:, :, None])[:, :, 0]
        a_x = (a * x).sum(axis=1)  # = conj(a)^H M^-1 conj(a) > 0
        c = x / a_x[:, None]
        r = np.abs(c @ V.T)
        r[rows, targets] = 0.0
        top = r.max(axis=1)
        better = top < best
        best = np.where(better, top, best)
        best_c[better] = c[better]
        # sum_r d_r |(Vc)_r|^2 = 1 / (v_t x) never exceeds the squared
        # optimum (d sums to 1): stop once every best is that close to it
        if np.all(best - 1.0 / np.sqrt(np.abs(a_x)) <= _SEED_RTOL * best):
            break
        weighted = d * r
        total = weighted.sum(axis=1)
        # all weighted rows at zero: c is optimal, keep the weights
        np.divide(weighted, total[:, None], out=d, where=total[:, None] > 0)
    return best_c


@dataclass
class _Scaled:
    """A family's values as certify_peak solves on them.

    Column j is divided by scale[j], the power of two nearest its max
    modulus, so every column's max modulus lies within sqrt(2) of 1 and the
    map back (c = c_scaled / scale) is exact in floating point.  unseen[r]
    marks a row no witness sees: its scaled max modulus is at most 1e-13
    max(1, max |values|); it is the one such rule of seeding, certification
    and re-verification.  seeds holds _seeds rows by target, filled by a
    sweep.
    """

    values: np.ndarray
    scale: np.ndarray
    unseen: np.ndarray
    seeds: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def of(cls, V: np.ndarray) -> "_Scaled":
        exponents = np.round(np.log2(np.abs(V).max(axis=0))).astype(int)
        scale = np.ldexp(1.0, exponents)
        values = V / scale
        row_max = np.abs(values).max(axis=1)
        return cls(values, scale, row_max <= 1e-13 * max(1.0, float(row_max.max())))

    @functools.cached_property
    def sigma_min(self) -> float:
        """The scaled matrix's smallest singular value, which the LP box's
        radius divides by; a square family runs no LP and no SVD."""
        return float(np.linalg.svd(self.values, compute_uv=False)[-1])


@single_threaded()
def certify_peak(
    W: WitnessFamily,
    target: int,
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
) -> PeakCertificate:
    """Certify whether candidate ``target`` is a peak point of the family.

    certified_peak iff the coefficients, 1 at the target, have max modulus
    ``refined`` < 1 - tol off it; certified_not_peak requires the certified
    lower bound to reach 1 - tol/100 or a zero target row; anything between
    is undecided.

    W's columns are first rescaled by powers of two to max modulus near 1;
    coefficients map back exactly, so every number of the certificate is
    read off W itself.  A row the scaled family marks unseen is not a peak,
    with lp_lower = inf.  Every other target is seeded by _seeds (a sweep
    computes the seeds of a whole block in one pass).  A square W is
    invertible: its seed V^-1 e_t is the certificate, with bounds 0, and no
    LP runs.  Otherwise the seed starts the LP's active set, whose
    variables are boxed by |Re c_j|, |Im c_j| <= 2 sqrt(1 + (n - 1)
    (T sec(pi/m))^2) / sigma_min, with T the seed's off-target max and
    sigma_min the scaled family's smallest singular value: every LP optimum
    lies inside, so lp_lower stays sound, and no reduced LP is unbounded.  The LP runs on
    incremental HiGHS with 1e-9 feasibility tolerances (a failed run is
    retried once from a cleared solver with presolve on).  The certificate
    is the LP point or the seed, each normalized at the target, whichever
    has the smaller off-target max (the LP point on a tie).

    Apart from W's cached scaled state, which a sweep fills before it fans
    out, a call writes nothing shared: a sweep maps it over the targets of
    one block on a thread pool (_estimate_families), and each certificate
    is bit-identical to a lone call's with the same seed.
    """
    n, k = W.values.shape
    if m < 8:
        raise CertificationError("polygon approximation needs m >= 8 sides")
    if not 0 < tol < 1:
        raise CertificationError(f"tol must lie in (0, 1), got {tol}")
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range")
    scaled = W._scaled
    if scaled.unseen[target]:
        return _unseen(target, k)
    v_t = scaled.values[target]
    seed = scaled.seeds.get(target)
    if seed is None:
        [seed] = _seeds(scaled, [target])
    # power-of-two scaling commutes with rounding: the scaled values of
    # best_c below equal W.values @ (best_c / scale) bit for bit
    if n == k:  # the optimum is 0, attained by the seed
        best_c = seed / np.dot(v_t, seed)
        lp_lower = lp_upper = 0.0
        w = np.abs(scaled.values @ best_c)
        w[target] = 0.0
        refined = float(w.max())
    else:
        V_off = np.delete(scaled.values, target, axis=0)
        c_lp, p = _solve_polygon_lp(
            V_off, v_t, m, seed, scaled.sigma_min, stop_lower=1.0 - tol * 1e-2 + _LP_PAD
        )
        c_lp = c_lp / np.dot(v_t, c_lp)  # exact normalization at the target
        sec = 1.0 / math.cos(math.pi / m)
        lp_lower = p - _LP_PAD
        lp_upper = p * sec + _LP_PAD
        # the LP point, or the seed where it is smaller off the target
        c_seed = seed / np.dot(v_t, seed)
        best_c = min((c_lp, c_seed), key=lambda c: _max_modulus(V_off, c))
        refined = _max_modulus(V_off, best_c)

    if refined < 1.0 - tol:
        status = "certified_peak"
    elif lp_lower >= 1.0 - tol * 1e-2:
        status = "certified_not_peak"
    else:
        status = "undecided"
    coefficients = best_c / scaled.scale
    return PeakCertificate(target, status, coefficients, lp_lower, lp_upper, refined)


def _unseen(target: int, k: int) -> PeakCertificate:
    """No witness sees the target: it can never peak."""
    zeros = np.zeros(k, dtype=complex)
    return PeakCertificate(target, "certified_not_peak", zeros, math.inf, math.inf, math.inf)


@single_threaded()
def reverify_certificate(W: WitnessFamily, cert: PeakCertificate) -> bool:
    """Re-derive a verdict from W and the certificate: a peak's coefficients
    evaluate to 1 at the target and at most refined < 1 off it; an unseen
    target (lp_lower = inf) is a row W's scaled values mark unseen.  LP
    lower bounds are trusted."""
    if cert.status == "certified_peak":
        w = W.values @ cert.coefficients
        off = np.delete(np.abs(w), cert.target)
        return (
            abs(w[cert.target] - 1.0) <= CERT_REVERIFY_TOL
            and cert.refined < 1.0
            and bool(np.all(off <= cert.refined + CERT_REVERIFY_TOL))
        )
    if cert.status == "certified_not_peak" and cert.lp_lower == math.inf:
        return bool(W._scaled.unseen[cert.target])
    return True


@dataclass
class BoundaryPartition:
    """shilov_estimate's verdict: candidate indices split by certificate status."""

    family: WitnessFamily
    certificates: list[PeakCertificate]
    tol: float
    m: int

    @property
    def peak(self) -> list[int]:
        return [c.target for c in self.certificates if c.status == "certified_peak"]

    @property
    def not_peak(self) -> list[int]:
        return [c.target for c in self.certificates if c.status == "certified_not_peak"]

    @property
    def undecided(self) -> list[int]:
        return [c.target for c in self.certificates if c.status == "undecided"]

    def status_of(self, index: int) -> str:
        return self.certificates[index].status

    def to_dict(self) -> dict:
        return {
            "family": self.family.label,
            "tol": self.tol,
            "sides": self.m,
            "candidates": list(self.family.labels),
            "certified_peak": self.peak,
            "certified_not_peak": self.not_peak,
            "undecided": self.undecided,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def shilov_estimate(
    W: WitnessFamily,
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
) -> BoundaryPartition:
    """Certify every candidate; the certified peak set underestimates the
    Shilov boundary (and equals it when the witnesses span the full algebra
    on a finite candidate set).

    W splits into blocks read off its values: rows joined through nonzero
    witness columns share a block (_blocks).  Each bitwise-distinct block,
    restricted to its own columns, is swept once and its certificates are
    padded with zeros back to W's width.  The split is exact: A's rows
    vanish off A's columns and every other row vanishes on them, so
    coefficients supported on A's columns act on A's rows as on the block
    and zero every other row; the optimum is A's own, and a padded
    certificate re-verifies on W.  Rows no witness sees are not peaks.

    One vectorized pass of _seeds seeds all of a block's candidates, where
    a lone certify_peak call seeds its target alone.  The seeds differ only
    in roundoff and only shorten the LP's active-set search: the verdicts
    are the same, and LP values agree up to the solver's 1e-9 tolerances.
    The block's candidates are then certified concurrently, one pool thread
    per CPU; each certificate is bit-identical to a sequential certify_peak
    call on the same block and seeds.
    """
    return _estimate_families([W], tol, m)[0]


def _cpu_count() -> int:
    """CPUs this process may run on: the sweep's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _estimate_families(
    families: list[WitnessFamily], tol: float, m: int
) -> list[BoundaryPartition]:
    """shilov_estimate of each family, with one table of swept blocks shared
    by all of them: a block seen before reuses its certificates.  A block's
    solver state (_Scaled.of, one pass of _seeds, sigma_min when an LP will
    run) is computed before the fan-out, so no worker fills a cache.  Then
    certify_peak is mapped over its candidates on a pool of _cpu_count()
    threads, under one BLAS pin: certificates come back in candidate order,
    bit-identical to a sequential sweep's, and a failure is raised after
    the pool cancels what has not started and waits for what has."""
    swept: dict[tuple, list[PeakCertificate]] = {}
    partitions = []
    with ThreadPoolExecutor(_cpu_count()) as pool, single_threaded():
        for W in families:
            k = W.values.shape[1]
            certs: dict[int, PeakCertificate] = {}
            for rows, cols in _blocks(W):
                if not cols.size:  # no witness sees these rows
                    certs.update((int(r), _unseen(int(r), k)) for r in rows)
                    continue
                block = W.values[np.ix_(rows, cols)]
                key = (block.shape, block.tobytes())
                if key not in swept:
                    A = _Block(tuple(W.labels[r] for r in rows), block)
                    scaled = A._scaled
                    scaled.seeds.update(enumerate(_seeds(scaled, range(rows.size))))
                    if rows.size > cols.size:
                        _ = scaled.sigma_min
                    certify = functools.partial(certify_peak, A, tol=tol, m=m)
                    swept[key] = list(pool.map(certify, range(rows.size)))
                for cert in swept[key]:
                    coefficients = np.zeros(k, dtype=complex)
                    coefficients[cols] = cert.coefficients
                    target = int(rows[cert.target])
                    certs[target] = replace(cert, target=target, coefficients=coefficients)
            ordered = [certs[r] for r in range(W.candidate_count)]
            partitions.append(BoundaryPartition(W, ordered, tol, m))
    return partitions


def _blocks(W: WitnessFamily) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of W's blocks: the connected components of
    the graph joining row r to column j when W.values[r, j] != 0
    (support_components).  A zero row is a block alone, with no columns."""
    rows, cols = support_components(W.values != 0)
    return [(np.flatnonzero(rows == b), np.flatnonzero(cols == b)) for b in np.unique(rows)]


def is_boundary(subset: list[int], W: WitnessFamily):
    """Does every witness attain its max modulus (up to 1e-9) on the subset?

    Checks each witness column and BOUNDARY_SAMPLES random coefficient
    vectors drawn with BOUNDARY_SEED; returns (True, None) or (False,
    violating c).
    """
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("boundary subset must be nonempty")
    V = W.values
    n, k = V.shape
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError(f"boundary subset indices must lie in [0, {n})")
    rng = np.random.default_rng(BOUNDARY_SEED)
    draws = (BOUNDARY_SAMPLES, k)
    coeff_sets = np.vstack(
        [np.eye(k, dtype=complex), rng.standard_normal(draws) + 1j * rng.standard_normal(draws)]
    )
    values = np.abs(coeff_sets @ V.T)  # (draws, candidates)
    max_all = values.max(axis=1)
    max_sub = values[:, subset].max(axis=1)
    bad = np.flatnonzero(max_sub < (1.0 - 1e-9) * max_all)
    if bad.size:
        return False, coeff_sets[bad[0]]
    return True, None


# ---------------------------------------------------------------------------
# Product peaking functions


@dataclass
class ProductPeaker:
    """g = v f with its membership coefficients and Gelfand value grid."""

    table: np.ndarray  # (|X|, dim E)
    membership: np.ndarray | None
    values: np.ndarray  # (|M(E)|, |X|): g-hat at (psi, x)
    max_modulus: float
    argmax_pairs: list[tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "table": complex_array_to_pairs(self.table),
            "in_span": self.membership is not None,
            "values": complex_array_to_pairs(self.values),
            "max_modulus": self.max_modulus,
            "argmax_pairs": [list(p) for p in self.argmax_pairs],
        }


def synthesize_product_peaker(v: Element, f_coeffs, Q: Quadruple) -> ProductPeaker:
    """Combine a normalized algebra peaker v and scalar peaker f into g = v f.

    f_coeffs are coefficients of B's basis.  Requires max |v-hat| = 1 and
    max |f-hat| = 1 (within 1e-9), f-hat read through the character of B's
    scalars (pi_matrix).  The Gelfand values, indexed by E.characters x X,
    satisfy g-hat(psi o e_y) = f-hat(y) psi(v), so the maximum modulus is 1
    and the argmax set is the product of the two argmax sets.
    """
    E = Q.scalars
    gn = gelfand_norm(E, v)
    if abs(gn - 1.0) > 1e-9:
        raise ValueError(f"max |v-hat| = {gn:.12g}, expected 1")
    B = Q.scalar_system
    f_values = pi_matrix(B) @ np.asarray(f_coeffs, dtype=complex)
    sup_f = float(np.abs(f_values).max())
    if abs(sup_f - 1.0) > 1e-9:
        raise ValueError(f"max |f-hat| = {sup_f:.12g}, expected 1")

    g_table = f_values[:, None] * v.coords[None, :]
    membership = span_membership(Q.vector_system, g_table)

    psi_v = np.array([psi(v) for psi in E.characters])
    values = psi_v[:, None] * f_values[None, :]
    mods = np.abs(values)
    max_mod = float(mods.max())
    argmax = [
        (int(i), int(j))
        for i, j in zip(*np.nonzero(mods >= max_mod - 1e-9))
    ]
    return ProductPeaker(g_table, membership, values, max_mod, argmax)


# ---------------------------------------------------------------------------
# Product theorems


@dataclass
class ProductTheoremReport:
    """Certified boundary of the vector system vs. the product of boundaries."""

    quadruple: str
    regime: str
    tol: float
    m: int
    preconditions: dict
    e_partition: BoundaryPartition | None = None
    b_partition: BoundaryPartition | None = None
    bt_partition: BoundaryPartition | None = None
    product_pairs: list[tuple[int, int]] = field(default_factory=list)
    certified_pairs: list[tuple[int, int]] = field(default_factory=list)
    missing: list[tuple[int, int]] = field(default_factory=list)
    extra: list[tuple[int, int]] = field(default_factory=list)
    coverage: float = 0.0
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "quadruple": self.quadruple,
            "regime": self.regime,
            "tol": self.tol,
            "sides": self.m,
            "preconditions": self.preconditions,
            "algebra_boundary": None if self.e_partition is None else self.e_partition.to_dict(),
            "scalar_boundary": None if self.b_partition is None else self.b_partition.to_dict(),
            "vector_boundary": None if self.bt_partition is None else self.bt_partition.to_dict(),
            "product_pairs": [list(p) for p in self.product_pairs],
            "certified_pairs": [list(p) for p in self.certified_pairs],
            "missing": [list(p) for p in self.missing],
            "extra": [list(p) for p in self.extra],
            "coverage": self.coverage,
            "passed": self.passed,
        }


@single_threaded()
def verify_product_theorem(
    Q: Quadruple,
    regime: str = "exact",
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
) -> ProductTheoremReport:
    """Compare the certified boundary of the vector system with the product
    of the certified boundaries of E and of the scalar system.

    A pair (i, x) names the i-th of E.characters and the x-th point.
    Exact regime (closed, natural quadruples): the symmetric difference must
    be empty.  Estimation regime (capped witnesses): certified sets are
    under-approximations; the report carries containment and coverage.

    Each family splits into the blocks its witness values show, and the
    three share one table of swept blocks (see shilov_estimate).  Each
    character's block of span(B E) over C^n is the scalar family itself;
    each point's rows of C(X, E) repeat the square blocks of E's family.
    """
    if regime not in ("exact", "estimation"):
        raise ValueError(f"unknown regime {regime!r}")
    report = ProductTheoremReport(
        quadruple=Q.label or "quadruple",
        regime=regime,
        tol=tol,
        m=m,
        preconditions={"regime": regime},
    )
    preconditions = report.preconditions
    if regime == "exact":
        admissible = check_admissible(Q)
        preconditions["admissible"] = admissible.to_dict()
        closed = Q.scalar_system.closed and Q.vector_system.closed
        preconditions["systems_closed"] = closed
        natural = closed and check_natural(Q)
        preconditions["natural"] = natural
        if not (admissible.passed and closed and natural):
            return report
    else:
        preconditions["note"] = (
            "estimation regime: capped witness families, certified sets are "
            "sound under-approximations"
        )
    pe, pb, pbt = _estimate_families(
        [
            witnesses_from_algebra(Q.scalars),
            witnesses_from_system(Q.scalar_system),
            witnesses_from_system(Q.vector_system),
        ],
        tol,
        m,
    )
    report.e_partition, report.b_partition, report.bt_partition = pe, pb, pbt

    n_x = Q.space.size
    product = sorted(itertools.product(pe.peak, pb.peak))
    certified = sorted(divmod(idx, n_x) for idx in pbt.peak)
    product_set, certified_set = set(product), set(certified)
    report.product_pairs = product
    report.certified_pairs = certified
    report.missing = sorted(product_set - certified_set)
    report.extra = sorted(certified_set - product_set)
    report.coverage = (
        len(product_set & certified_set) / len(product_set) if product_set else 1.0
    )
    if regime == "exact":
        report.passed = not report.missing and not report.extra
    else:
        report.passed = not report.extra
    return report


@dataclass
class PeakProductReport:
    """Peak-point version of the product comparison, with soundness re-checks."""

    base: ProductTheoremReport
    certificates_reverified: bool = False

    @property
    def passed(self) -> bool:
        return self.base.passed and self.certificates_reverified

    def to_dict(self) -> dict:
        data = self.base.to_dict()
        data["certificates_reverified"] = self.certificates_reverified
        data["passed"] = self.passed
        return data


def verify_peak_product(
    Q: Quadruple,
    regime: str = "exact",
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
) -> PeakProductReport:
    """Check S0(vector system) = S0(scalar system) x S0(E) on the candidates.

    On finite candidate sets the peak-point set is the certified peak set, so
    the comparison reuses the boundary pipeline; every certified_peak
    certificate is additionally re-verified by direct evaluation (the peaking
    inequality itself), which is what makes the agreement between the two
    theorems' checks a statement rather than a tautology.
    """
    base = verify_product_theorem(Q, regime=regime, tol=tol, m=m)
    report = PeakProductReport(base)
    if base.e_partition is None:
        return report
    report.certificates_reverified = all(
        reverify_certificate(part.family, cert)
        for part in (base.e_partition, base.b_partition, base.bt_partition)
        for cert in part.certificates
    )
    return report


# ---------------------------------------------------------------------------
# Geometry exports


def partition_to_csv(partition: BoundaryPartition) -> str:
    """x,y,status rows for every coordinate-bearing candidate."""
    if partition.family.coords is None:
        raise ValueError("witness family has no candidate coordinates")
    lines = ["x,y,status"]
    for idx, z in enumerate(partition.family.coords):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{partition.status_of(idx)}")
    return "\n".join(lines) + "\n"


def partition_to_pgm(partition: BoundaryPartition, R: RasterRegion) -> str:
    """Raster overlay: 85 = not peak, 170 = undecided, 255 = certified peak."""
    if partition.family.coords is None:
        raise ValueError("witness family has no candidate coordinates")
    levels = np.zeros(R.grid.shape, dtype=int)
    for idx, z in enumerate(partition.family.coords):
        r, c = R.pixel_of(z)
        if 0 <= r < R.grid.shape[0] and 0 <= c < R.grid.shape[1]:
            levels[r, c] = max(levels[r, c], PGM_LEVELS[partition.status_of(idx)])
    return pgm_text(levels)
