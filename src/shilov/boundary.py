"""Certified peak points and Shilov boundaries over finite candidate sets.

A candidate character phi is a certified peak point of a witness family when
the convex minimax program

    minimize  max_{psi != phi} |(Vc)(psi)|   subject to   (Vc)(phi) = 1

has optimum provably below 1 - tol: a strict-max witness rescales to a
peaking function.  Each modulus is sandwiched between the max over m polygon
directions and sec(pi/m) times it, so one linear program yields a certified
bracket [lp_lower, lp_upper] around the optimum; a smoothed first-order
descent warm-started at the LP solution then tightens the feasible value.

On a finite candidate set with the full algebra as witnesses the certified
peak set is the Shilov boundary and coincides with the peak-point set; with
a capped witness family it is a sound under-approximation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

try:  # incremental HiGHS: warm-started rows between generation rounds
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - fallback exercised only without it
    _highs_core = None

from .algebra import AlgebraSpec, Element
from .blas import single_threaded
from .characters import Character, characters, gelfand_norm
from .function_algebras import (
    FunctionSystem,
    Quadruple,
    Span,
    check_admissible,
    check_natural,
    span_BE,
    span_membership,
    sup_norm,
)
from .reports import ValidationReport, complex_array_to_pairs
from .spaces import RasterRegion

DEFAULT_TOL = 1e-4
DEFAULT_SIDES = 32
BOUNDARY_SEED = 1729  # default seed for is_boundary's random witnesses
CERT_REVERIFY_TOL = 1e-9

# Reported LP bounds carry a tiny pad for solver roundoff; small enough that
# lp_upper <= lp_lower * sec(pi/m) + 1e-9 still holds.
_LP_PAD = 3e-10

PGM_LEVELS = {"certified_not_peak": 85, "undecided": 170, "certified_peak": 255}


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class WitnessFamily:
    """Witness transforms evaluated at candidate characters.

    values[r, j] is the j-th witness evaluated at candidate r.  Columns are
    linearly independent (builders drop dependent witnesses: only the column
    space matters to the minimax programs).  coords, when present, give a
    planar location per candidate for geometry exports.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    coords: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2:
            raise ValueError("witness values must be a 2-d matrix")
        if len(self.labels) != values.shape[0]:
            raise ValueError("one label per candidate row required")
        if values.shape[1] == 0:
            raise ValueError("witness family needs at least one column")
        rank = Span.of(values.T).rank
        if rank < values.shape[1]:
            raise ValueError(
                f"witness columns dependent: rank {rank} < {values.shape[1]}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", values)
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=complex).reshape(values.shape[0])
            coords.setflags(write=False)
            object.__setattr__(self, "coords", coords)

    @property
    def candidate_count(self) -> int:
        return self.values.shape[0]


def _independent_columns(matrix: np.ndarray) -> np.ndarray:
    """Keep independent columns, each rescaled to unit max modulus.

    Scaling a witness never changes the family's span, and without it
    families like Laurent monomials span fifteen orders of magnitude and
    wreck the conditioning of every downstream solve.
    """
    span = Span(matrix.shape[0])
    for col in matrix.T.astype(complex):
        peak = float(np.abs(col).max())
        if peak > 0.0:
            span.add(col / peak)
    if not span.rank:
        raise ValueError("witness family has no nonzero column")
    return np.column_stack(span.kept)


def witnesses_from_algebra(
    E: AlgebraSpec, chars: list[Character] | None = None, label: str = ""
) -> WitnessFamily:
    """Candidates = characters of E, witnesses = transforms of the basis."""
    if chars is None:
        chars = characters(E)
    V = np.array([chi.values for chi in chars])
    return WitnessFamily(
        tuple(chi.label for chi in chars),
        _independent_columns(V),
        label=label or f"M({E.label})",
    )


def witnesses_from_system(
    S: FunctionSystem, chars_E: list[Character] | None = None, label: str = ""
) -> WitnessFamily:
    """Candidates = evaluation characters of a function system.

    For scalar systems the candidates are the points of X.  For E-valued
    systems they are the pairs (psi, x), psi-major, with values
    psi(f_m(x)); rows then factor through the semisimple quotient of E, so
    dependent witness columns (e.g. radical multiples) are dropped.
    """
    X = S.space
    if S.scalars.dim == 1:
        unit = complex(S.scalars.unit[0])
        V = (S.basis[:, :, 0] * unit).T
        return WitnessFamily(
            tuple(X.points),
            _independent_columns(V),
            coords=None if X.coords is None else X.coords.copy(),
            label=label or (S.label or "system"),
        )
    psis = chars_E if chars_E is not None else characters(S.scalars)
    rows = []
    labels = []
    coords = [] if X.coords is not None else None
    for psi in psis:
        values_all = S.basis @ psi.values  # (m, |X|)
        for x, point in enumerate(X.points):
            rows.append(values_all[:, x])
            labels.append(f"{psi.label}|{point}")
            if coords is not None:
                coords.append(X.coords[x])
    V = _independent_columns(np.array(rows))
    return WitnessFamily(
        tuple(labels),
        V,
        coords=None if coords is None else np.array(coords),
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
    separation: float
    lp_lower: float
    lp_upper: float
    refined: float

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "status": self.status,
            "coefficients": complex_array_to_pairs(self.coefficients),
            "separation": self.separation,
            "lp_lower": self.lp_lower,
            "lp_upper": self.lp_upper,
            "refined": self.refined,
        }


def _polygon_values(w: np.ndarray, m: int) -> np.ndarray:
    """max_k Re(e^{-i theta_k} w) per entry; underestimates |w| by <= sec(pi/m)."""
    phases = np.exp(-2j * np.pi * np.arange(m) / m)
    return np.max(np.real(np.multiply.outer(w, phases)), axis=-1)


class _LinprogRounds:
    """Fallback backend: each round re-solves the accumulated rows from scratch."""

    def __init__(self, k: int, v_t: np.ndarray):
        self.k = k
        self.blocks: list[np.ndarray] = []
        self.A_eq = np.zeros((2, 2 * k + 1))
        self.A_eq[0, :k], self.A_eq[0, k : 2 * k] = v_t.real, -v_t.imag
        self.A_eq[1, :k], self.A_eq[1, k : 2 * k] = v_t.imag, v_t.real
        self.bounds = [(None, None)] * (2 * k) + [(0.0, None)]
        self.cost = np.zeros(2 * k + 1)
        self.cost[-1] = 1.0

    def add_rows(self, block: np.ndarray) -> None:
        self.blocks.append(block)

    def solve(self) -> tuple[np.ndarray, float]:
        A_ub = np.vstack(self.blocks)
        res = None
        # dual simplex is exact but occasionally gives up; the interior-point
        # fallback runs crossover, so either way we get a vertex solution
        for method, opts in (
            ("highs", {"presolve": False}),
            ("highs", None),
            ("highs-ipm", None),
        ):
            res = scipy.optimize.linprog(
                self.cost, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]),
                A_eq=self.A_eq, b_eq=[1.0, 0.0], bounds=self.bounds,
                method=method, options=opts,
            )
            if res.status == 0:
                k = self.k
                return res.x[:k] + 1j * res.x[k : 2 * k], float(res.fun)
        raise CertificationError(f"LP solver failed: {res.message}")


class _HighsRounds:
    """Incremental backend: added rows keep the basis, so re-runs are warm.

    HiGHS occasionally gives up on a dense model (``run`` returns kError).
    The rows are therefore mirrored into a ``_LinprogRounds``, which then
    re-solves them and solves every later round of this LP.
    """

    def __init__(self, k: int, v_t: np.ndarray):
        self.k = k
        self.linprog = _LinprogRounds(k, v_t)
        self.highs_failed = False
        inf = _highs_core.kHighsInf
        h = _highs_core._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        # keep solver roundoff well inside the reported bound pads
        h.setOptionValue("small_matrix_value", 1e-12)
        h.setOptionValue("primal_feasibility_tolerance", 1e-9)
        h.setOptionValue("dual_feasibility_tolerance", 1e-9)
        nvars = 2 * k + 1
        lower = np.full(nvars, -inf)
        lower[-1] = 0.0
        h.addVars(nvars, lower, np.full(nvars, inf))
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
        self.linprog.add_rows(block)
        if self.highs_failed:
            return
        nrows = block.shape[0]
        self._add(
            self.h, block,
            np.full(nrows, -_highs_core.kHighsInf), np.zeros(nrows),
        )

    def solve(self) -> tuple[np.ndarray, float]:
        if not self.highs_failed:
            status = self.h.run()
            self.highs_failed = status == _highs_core.HighsStatus.kError
        if self.highs_failed:
            return self.linprog.solve()
        if status != _highs_core.HighsStatus.kOk:
            raise CertificationError("HiGHS run failed")
        if self.h.getModelStatus() != _highs_core.HighsModelStatus.kOptimal:
            raise CertificationError(
                f"LP not solved to optimality: {self.h.getModelStatus()}"
            )
        x = np.asarray(self.h.getSolution().col_value)
        k = self.k
        return x[:k] + 1j * x[k : 2 * k], float(self.h.getObjectiveValue())


def _lp_rounds(k: int, v_t: np.ndarray):
    if _highs_core is not None:
        try:
            return _HighsRounds(k, v_t)
        except Exception:
            pass
    return _LinprogRounds(k, v_t)


def _solve_polygon_lp(
    V_off: np.ndarray,
    v_t: np.ndarray,
    m: int,
    stop_lower: float | None = None,
    warm_start: np.ndarray | None = None,
):
    """Minimize the polygon max over off-target rows subject to (Vc)(target)=1.

    Constraints are generated lazily per (candidate, direction) pair: solve
    on an active subset, add the most violated pairs, re-run the warm solver.
    The reduced optimum is always a valid lower bound for the full LP, and on
    clean termination (no violated pairs) it equals the full optimum exactly.

    ``stop_lower`` allows an early exit once the certified lower bound passes
    that threshold while the iterate's true max modulus stays inside the
    sec(pi/m) bracket; near-flat optima (every candidate active) otherwise
    waste rounds polishing a hugely degenerate vertex.  ``warm_start`` seeds
    the active-set search with a previous candidate's solution.
    """
    n_off, k = V_off.shape
    phases = np.exp(-2j * np.pi * np.arange(m) / m)
    backend = _lp_rounds(k, v_t)

    def rows_for(cand_idx: np.ndarray, dir_idx: np.ndarray) -> np.ndarray:
        W_sel = V_off[cand_idx] * phases[dir_idx][:, None]  # (pairs, k)
        return np.concatenate(
            [W_sel.real, -W_sel.imag, -np.ones((len(cand_idx), 1))], axis=1
        )

    if n_off * m <= 2048:
        cand = np.repeat(np.arange(n_off), m)
        dirs = np.tile(np.arange(m), n_off)
        backend.add_rows(rows_for(cand, dirs))
        return backend.solve()

    # Seed the active set from a cheap smoothed descent: near-maximal rows at
    # a near-optimal point are the constraints the LP will bind, so the
    # generation loop usually terminates after one or two warm re-runs.
    c_start = v_t.conj() / float(np.vdot(v_t, v_t).real)
    stages, iters = [1e-1, 1e-2, 1e-3], 80
    if warm_start is not None:
        shift = np.dot(v_t, warm_start)
        if abs(shift) > 1e-9 * (1.0 + float(np.abs(warm_start).max())):
            c_start = warm_start / shift
            stages, iters = [1e-2, 1e-3], 40
    c_fo = _refine_first_order(V_off, v_t, c_start, stages=stages, maxiter=iters)
    w_fo = V_off @ c_fo
    w_abs = np.abs(w_fo)
    top = w_abs.max()
    if top >= 0.95:  # near-flat: most candidates will be active
        near = np.flatnonzero(w_abs >= min(0.9, top * 0.9))
    else:
        near = np.flatnonzero(w_abs >= top * 0.85)
    if near.size < 2 * k + 16:
        near = np.argsort(-w_abs, kind="stable")[: 2 * k + 16]
    if near.size > 400:
        near = near[np.argsort(-w_abs[near], kind="stable")[:400]]
    best_dir = np.argmax(np.real(np.multiply.outer(w_fo, phases)), axis=1)
    active = {
        (int(r), int((best_dir[r] + shift) % m)) for r in near for shift in (-1, 0, 1)
    }
    pairs = sorted(active)
    backend.add_rows(
        rows_for(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    )

    sec = 1.0 / math.cos(math.pi / m)
    for _ in range(80):
        c, t_star = backend.solve()
        if (
            stop_lower is not None
            and t_star >= stop_lower
            and _max_modulus(V_off, c) <= t_star * sec
        ):
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
        backend.add_rows(
            rows_for(
                np.array([p[0] for p in chosen]), np.array([p[1] for p in chosen])
            )
        )
    raise CertificationError("constraint generation failed to converge")


def _max_modulus(V_off: np.ndarray, c: np.ndarray) -> float:
    if V_off.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(V_off @ c)))


def _refine_first_order(
    V_off: np.ndarray,
    v_t: np.ndarray,
    c_start: np.ndarray,
    stages: list[float],
    maxiter: int,
) -> np.ndarray:
    """Descend the smoothed max-modulus over the affine slice (Vc)(target)=1.

    Parametrize c = c_start + N y with N an orthonormal null-space basis of
    the normalization row, so the constraint holds exactly; minimize the
    softmax smoothing mu*log(sum exp(|w|/mu)) with L-BFGS, shrinking mu.
    """
    N = scipy.linalg.null_space(v_t[None, :])
    if N.size == 0:
        return c_start
    A = V_off @ N
    w0 = V_off @ c_start
    dim = N.shape[1]

    def objective(u: np.ndarray, mu: float):
        y = u[:dim] + 1j * u[dim:]
        w = w0 + A @ y
        r = np.abs(w)
        rmax = r.max(initial=0.0)
        ex = np.exp((r - rmax) / mu)
        total = ex.sum()
        value = rmax + mu * math.log(total)
        s = ex / total
        phase = np.zeros_like(w)
        nz = r > 1e-300
        phase[nz] = np.conj(w[nz]) / r[nz]
        g = A.T @ (s * phase)
        return value, np.concatenate([g.real, -g.imag])

    u = np.zeros(2 * dim)
    best_u = u
    best_val = _max_modulus(V_off, c_start)
    for rel in stages:
        mu = max(rel * max(best_val, 1e-3), 1e-12)
        res = scipy.optimize.minimize(
            objective,
            best_u,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "ftol": 1e-15, "gtol": 1e-12},
        )
        y = res.x[:dim] + 1j * res.x[dim:]
        val = _max_modulus(V_off, c_start + N @ y)
        if val < best_val:
            best_val, best_u = val, res.x
    y = best_u[:dim] + 1j * best_u[dim:]
    return c_start + N @ y


@single_threaded()
def certify_peak(
    W: WitnessFamily,
    target: int,
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
    refine: str = "auto",
    warm_start: np.ndarray | None = None,
) -> PeakCertificate:
    """Certify whether candidate ``target`` is a peak point of the family.

    certified_peak requires an upper bound on the minimax optimum below
    1 - tol; certified_not_peak requires the certified lower bound to reach
    1 - tol/100; anything between is undecided.
    """
    V = W.values
    n, k = V.shape
    if n < 2:
        raise CertificationError("certification needs at least two candidates")
    if m < 8:
        raise CertificationError("polygon approximation needs m >= 8 sides")
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range")

    v_t = V[target]
    V_off = np.delete(V, target, axis=0)
    if float(np.abs(v_t).max()) <= 1e-13 * max(1.0, float(np.abs(V).max())):
        # no witness sees the target: it can never peak
        return PeakCertificate(
            target,
            "certified_not_peak",
            np.zeros(k, dtype=complex),
            0.0,
            math.inf,
            math.inf,
            math.inf,
        )

    c_lp, p = _solve_polygon_lp(
        V_off, v_t, m, stop_lower=1.0 - tol * 1e-2 + _LP_PAD, warm_start=warm_start
    )
    c_lp = c_lp / np.dot(v_t, c_lp)  # exact normalization at the target
    sec = 1.0 / math.cos(math.pi / m)
    lp_lower = p - _LP_PAD
    lp_upper = p * sec + _LP_PAD

    if refine == "auto":
        refine = "full" if n * k <= 80 else "quick"
    if refine == "full":
        stages, iters = [3e-2, 3e-3, 3e-4, 3e-5, 1e-5], 200
    elif refine == "quick":
        stages, iters = [1e-2], 40
    else:
        stages, iters = [], 0

    best_c = c_lp
    best_val = _max_modulus(V_off, c_lp)
    if stages:
        c_ref = _refine_first_order(V_off, v_t, c_lp, stages, iters)
        c_ref = c_ref / np.dot(v_t, c_ref)
        val = _max_modulus(V_off, c_ref)
        if val < best_val:
            best_c, best_val = c_ref, val
    refined = best_val

    upper = min(lp_upper, refined)
    if upper < 1.0 - tol:
        status = "certified_peak"
    elif lp_lower >= 1.0 - tol * 1e-2:
        status = "certified_not_peak"
    else:
        status = "undecided"
    return PeakCertificate(
        target, status, best_c, 1.0 - refined, lp_lower, lp_upper, refined
    )


def reverify_certificate(W: WitnessFamily, cert: PeakCertificate) -> bool:
    """Soundness re-check by direct matrix evaluation of the coefficients."""
    if cert.status != "certified_peak":
        return True
    w = W.values @ cert.coefficients
    at_target = w[cert.target]
    off = np.delete(np.abs(w), cert.target)
    return (
        abs(at_target - 1.0) <= CERT_REVERIFY_TOL
        and cert.separation > 0
        and bool(np.all(off <= 1.0 - cert.separation + CERT_REVERIFY_TOL))
    )


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
    refine: str = "auto",
) -> BoundaryPartition:
    """Certify every candidate; the certified peak set underestimates the
    Shilov boundary (and equals it when the witnesses span the full algebra
    on a finite candidate set).

    Consecutive candidates usually have closely related optima, so each solve
    seeds the next one's active-set search; results are identical either way,
    the hint only shortens the path.
    """
    if W.candidate_count == 1:
        # a single candidate peaks trivially: rescale any witness to 1 there
        v_t = W.values[0]
        coeffs = v_t.conj() / float(np.vdot(v_t, v_t).real)
        cert = PeakCertificate(0, "certified_peak", coeffs, 1.0, 0.0, 0.0, 0.0)
        return BoundaryPartition(W, [cert], tol, m)
    certs = []
    warm = None
    for i in range(W.candidate_count):
        cert = certify_peak(W, i, tol=tol, m=m, refine=refine, warm_start=warm)
        if np.any(cert.coefficients):
            warm = cert.coefficients
        certs.append(cert)
    return BoundaryPartition(W, certs, tol, m)


def is_boundary(
    subset: list[int],
    W: WitnessFamily,
    samples: int = 1000,
    seed: int = BOUNDARY_SEED,
):
    """Does every witness attain its max modulus (up to 1e-9) on the subset?

    Checks each witness column and ``samples`` random coefficient vectors
    drawn with the given seed; returns (True, None) or (False, violating c).
    """
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("boundary subset must be nonempty")
    V = W.values
    n, k = V.shape
    rng = np.random.default_rng(seed)
    coeff_sets = np.vstack(
        [np.eye(k, dtype=complex), rng.standard_normal((samples, k)) + 1j * rng.standard_normal((samples, k))]
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


def synthesize_product_peaker(
    v: Element,
    f_coeffs,
    Q: Quadruple,
    chars_E: list[Character] | None = None,
) -> ProductPeaker:
    """Combine a normalized algebra peaker v and scalar peaker f into g = v f.

    Requires max |v-hat| = 1 and sup_X |f| = 1 (within 1e-9).  The Gelfand
    values satisfy g-hat(psi o e_y) = f(y) psi(v), so the maximum modulus is
    1 and the argmax set is the product of the two argmax sets.
    """
    E = Q.scalars
    if chars_E is None:
        chars_E = characters(E)
    gn = gelfand_norm(E, v, chars_E)
    if abs(gn - 1.0) > 1e-9:
        raise ValueError(f"max |v-hat| = {gn:.12g}, expected 1")
    B = Q.scalar_system
    f_table = B.table(f_coeffs)  # (|X|, 1)
    f_values = f_table[:, 0] * complex(B.scalars.unit[0])
    sup_f = sup_norm(B, f_coeffs) / float(B.scalars.weights[0])
    if abs(sup_f - 1.0) > 1e-9:
        raise ValueError(f"sup |f| = {sup_f:.12g}, expected 1")

    g_table = f_values[:, None] * v.coords[None, :]
    membership = span_membership(Q.vector_system, g_table)

    psi_v = np.array([psi(v) for psi in chars_E])
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


def _product_comparison(Q, regime, tol, m, refine, chars_E):
    """Shared certification pipeline behind both product theorems."""
    E, B = Q.scalars, Q.scalar_system
    preconditions: dict = {"regime": regime}
    ok = True
    if regime == "exact":
        admissible = check_admissible(Q, chars_E)
        preconditions["admissible"] = admissible.to_dict()
        closed = B.closed and Q.vector_system.closed
        preconditions["systems_closed"] = closed
        natural = closed and check_natural(Q, chars_E)
        preconditions["natural"] = natural
        ok = admissible.passed and closed and natural
    else:
        preconditions["note"] = (
            "estimation regime: capped witness families, certified sets are "
            "sound under-approximations"
        )
    if not ok:
        return preconditions, None, None, None, False

    we = witnesses_from_algebra(E, chars_E)
    pe = shilov_estimate(we, tol=tol, m=m, refine=refine)
    wb = witnesses_from_system(B)
    pb = shilov_estimate(wb, tol=tol, m=m, refine=refine)
    span = span_BE(B, E)
    wbt = witnesses_from_system(span, chars_E)
    pbt = shilov_estimate(wbt, tol=tol, m=m, refine=refine)
    return preconditions, pe, pb, pbt, True


def verify_product_theorem(
    Q: Quadruple,
    regime: str = "exact",
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
    refine: str = "auto",
    chars_E: list[Character] | None = None,
) -> ProductTheoremReport:
    """Compare the certified boundary of the vector system with the product
    of the certified boundaries of E and of the scalar system.

    Exact regime (closed, natural quadruples): the symmetric difference must
    be empty.  Estimation regime (capped witnesses): certified sets are
    under-approximations; the report carries containment and coverage.
    """
    if regime not in ("exact", "estimation"):
        raise ValueError(f"unknown regime {regime!r}")
    if chars_E is None:
        chars_E = characters(Q.scalars)
    preconditions, pe, pb, pbt, ok = _product_comparison(
        Q, regime, tol, m, refine, chars_E
    )
    report = ProductTheoremReport(
        quadruple=Q.label or "quadruple",
        regime=regime,
        tol=tol,
        m=m,
        preconditions=preconditions,
    )
    if not ok:
        return report
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
    peak_sets_match_boundary_sets: bool = False

    @property
    def passed(self) -> bool:
        return (
            self.base.passed
            and self.certificates_reverified
            and self.peak_sets_match_boundary_sets
        )

    def to_dict(self) -> dict:
        data = self.base.to_dict()
        data["certificates_reverified"] = self.certificates_reverified
        data["peak_sets_match_boundary_sets"] = self.peak_sets_match_boundary_sets
        data["passed"] = self.passed
        return data


def verify_peak_product(
    Q: Quadruple,
    regime: str = "exact",
    tol: float = DEFAULT_TOL,
    m: int = DEFAULT_SIDES,
    refine: str = "auto",
    chars_E: list[Character] | None = None,
) -> PeakProductReport:
    """Check S0(vector system) = S0(scalar system) x S0(E) on the candidates.

    On finite candidate sets the peak-point set is the certified peak set, so
    the comparison reuses the boundary pipeline; every certified_peak
    certificate is additionally re-verified by direct evaluation (the peaking
    inequality itself), which is what makes the agreement between the two
    theorems' checks a statement rather than a tautology.
    """
    base = verify_product_theorem(
        Q, regime=regime, tol=tol, m=m, refine=refine, chars_E=chars_E
    )
    report = PeakProductReport(base)
    if base.e_partition is None:
        return report
    reverified = True
    for part in (base.e_partition, base.b_partition, base.bt_partition):
        for cert in part.certificates:
            reverified &= reverify_certificate(part.family, cert)
    report.certificates_reverified = reverified
    # peak set == certified boundary set, candidate by candidate
    report.peak_sets_match_boundary_sets = all(
        part.peak == [c.target for c in part.certificates if reverify_certificate(part.family, c) and c.status == "certified_peak"]
        for part in (base.e_partition, base.b_partition, base.bt_partition)
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
        lines.append(f"{z.real!r},{z.imag!r},{partition.status_of(idx)}")
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
    rows = [" ".join(str(v) for v in row) for row in levels[::-1]]
    return f"P2\n{R.grid.shape[1]} {R.grid.shape[0]}\n255\n" + "\n".join(rows) + "\n"
