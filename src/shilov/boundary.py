"""Certified peak points and Shilov boundaries over finite candidate sets.

A candidate character phi is a certified peak point of a witness family when
the convex minimax program

    minimize  max_{psi != phi} |(Vc)(psi)|   subject to   (Vc)(phi) = 1

has optimum provably below 1 - PEAK_TOL: a strict-max witness rescales to
a peaking function.  An optimum provably at least 1 - PEAK_TOL / 100 rules
the peak out, and _status decides every verdict by those two thresholds.
Every target is first seeded by Lawson's reweighting iteration (run for a
chunk of targets at once), whose weights also give a measure nu with nu V =
v_t up to a residual, zero at the target: 1 / ||nu||_1, less a residual
term, bounds the optimum from below (the duality of complex Chebyshev
approximation), and the seed's off-target max bounds it from above.  Where
that bracket already decides the verdict and is no wider than
sec(pi/SIDES), the seed is the certificate and no LP runs.  Elsewhere each
modulus is sandwiched between the max over SIDES polygon directions and
sec(pi/SIDES) times it, so one linear program yields a certified bracket
[lp_lower, lp_upper] around the optimum.  The certificate is then the LP
point or the seed, whichever is smaller off the target: a feasible value no
larger than the LP point's, so inside the bracket.
Every LP takes one path: an active set of polygon constraints, seeded by
the Lawson point and grown on incremental HiGHS inside a box that holds
every LP optimum.  A square family needs no LP: it is invertible, so
V^-1 e_t vanishes off the target and the optimum is 0.

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
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy  # bound here: perfbench's tracer wraps boundary.scipy.optimize

from .algebra import MAX_ENTRIES, AlgebraSpec, Element, support_components
from .blas import load_extension, single_threaded
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

_highs_core = load_extension("scipy.optimize._highspy._core")  # incremental HiGHS

PEAK_TOL = 1e-4  # the peak margin of _status
SIDES = 32  # the LP's polygon: |z| <= max over SIDES directions * _SEC
CERT_REVERIFY_TOL = 1e-9

_SEC = 1.0 / math.cos(math.pi / SIDES)
_PHASES = np.exp(-2j * np.pi * np.arange(SIDES) / SIDES)
_NOT_PEAK_LOWER = 1.0 - PEAK_TOL * 1e-2  # a lower bound this high rules a peak out

# Reported LP bounds carry a tiny pad for roundoff at the 1e-9 feasibility
# tolerances of _HighsRounds; small enough that
# lp_upper <= lp_lower * _SEC + 1e-9 still holds.
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
def _kept_columns(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the columns _independent_columns keeps, and every
    column's max modulus."""
    columns = np.asarray(matrix, dtype=complex).T
    peaks = np.abs(columns).max(axis=1)
    nonzero = np.flatnonzero(peaks > 0.0)
    span = Span.of(columns[nonzero] / peaks[nonzero, None])
    return nonzero[span.index], peaks


def _independent_columns(matrix: np.ndarray) -> np.ndarray:
    """Keep independent columns, each rescaled to unit max modulus first
    (zero columns dropped), by one Span.extend.

    Scaling a witness never changes the family's span, and without it
    families like Laurent monomials span fifteen orders of magnitude and
    wreck the conditioning of every downstream solve.
    """
    kept, peaks = _kept_columns(matrix)
    if not kept.size:
        raise ValueError("witness family has no nonzero column")
    columns = np.asarray(matrix, dtype=complex)[:, kept] / peaks[kept]
    return np.ascontiguousarray(columns)  # row-major: products round otherwise on column-major


def witnesses_from_algebra(E: AlgebraSpec) -> WitnessFamily:
    """Candidates = E.characters, witnesses = transforms of the basis."""
    return _Block(
        tuple(chi.label for chi in E.characters),
        _independent_columns(character_matrix(E)),
        label=f"M({E.label})",
    )


def witnesses_from_system(S: FunctionSystem) -> WitnessFamily:
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
        label=S.label or "system",
    )


# ---------------------------------------------------------------------------
# The minimax solver


@dataclass(frozen=True)
class PeakCertificate:
    """Outcome of one peak query, re-verifiable from coefficients alone.

    [lp_lower, lp_upper] brackets the optimum and ``refined`` is the
    coefficients' off-target max; status is _status(refined, lp_lower).
    Where the LP ran, lp_upper is its polygon optimum times sec(pi/SIDES)
    and lp_lower the larger of the polygon optimum and the Lawson measure's
    bound; where the seed decided, lp_lower is the measure's bound and
    lp_upper = refined.  A square family reads 0 for both, and a target no
    witness sees inf.
    """

    target: int
    status: str  # certified_peak | certified_not_peak | undecided
    coefficients: np.ndarray
    lp_lower: float
    lp_upper: float
    refined: float

    def to_dict(self) -> dict:
        return {**vars(self), "coefficients": complex_array_to_pairs(self.coefficients)}


def _status(upper: float, lower: float) -> str:
    """The verdict of a bracket on the optimum: a peak when the upper bound
    is below 1 - PEAK_TOL, not a peak when the lower bound reaches
    1 - PEAK_TOL / 100, undecided in between."""
    if upper < 1.0 - PEAK_TOL:
        return "certified_peak"
    if lower >= _NOT_PEAK_LOWER:
        return "certified_not_peak"
    return "undecided"


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


def _solve_polygon_lp(V_off: np.ndarray, v_t: np.ndarray, seed: np.ndarray, sigma_min: float):
    """Minimize the polygon max over off-target rows subject to (Vc)(target)=1.

    This is the one LP path of every non-square family.  Its constraints
    are (off-target row, direction) pairs, kept as one mask active[row,
    direction] and added in np.nonzero order: solve, add the most violated
    fresh pairs (_fresh_pairs), re-run the warm solver.  The reduced optimum
    is always a valid lower bound for the full LP, and on clean termination
    (no fresh violated pair) it equals the full optimum exactly.

    ``seed`` is a feasible point (v_t seed = 1); its near-maximal rows seed
    the mask.  It also bounds the LP: with T its off-target max
    modulus, every full-LP optimum c has polygon value p <= T, so
    |(Vc)_r| <= T sec(pi/SIDES) off the target, |(Vc)_t| = 1 and
    ||c||_2 <= sqrt(1 + (n - 1) (T sec)^2) / sigma_min(V).  Boxing each real
    variable by that radius keeps every full-LP optimum (so reduced optima
    stay lower bounds) and makes every reduced LP bounded.

    The search ends early once the reduced optimum, less _LP_PAD, already
    rules the peak out (_status) while the iterate's true max modulus stays
    inside the sec(pi/SIDES) bracket; near-flat optima (every candidate
    active) otherwise waste rounds polishing a hugely degenerate vertex.
    """
    k = v_t.size
    w_seed = V_off @ seed
    w_abs = np.abs(w_seed)
    top = w_abs.max()
    # doubled against roundoff in sigma_min and in the seed's normalization
    radius = 2.0 * math.sqrt(1.0 + V_off.shape[0] * (top * _SEC) ** 2) / sigma_min
    backend = _HighsRounds(v_t, radius)

    def rows_for(cand_idx: np.ndarray, dir_idx: np.ndarray) -> np.ndarray:
        W_sel = V_off[cand_idx] * _PHASES[dir_idx][:, None]  # (pairs, k)
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
    best_dir = np.argmax(np.real(np.multiply.outer(w_seed, _PHASES)), axis=1)
    # at a zero optimum every row must vanish: three spread directions pin it
    # in the first run, where a boxed column would otherwise rest at a bound
    shifts = (-1, 0, 1) if top > 0 else (0, SIDES // 3, 2 * SIDES // 3)
    active = np.zeros((V_off.shape[0], SIDES), dtype=bool)  # [row, direction] in the LP
    active[near[:, None], (best_dir[near, None] + np.array(shifts)) % SIDES] = True
    backend.add_rows(rows_for(*np.nonzero(active)))

    for _ in range(80):
        c, t_star = backend.solve()
        if t_star >= _NOT_PEAK_LOWER + _LP_PAD and _max_modulus(V_off, c) <= t_star * _SEC:
            return c, t_star
        proj = np.real(np.multiply.outer(V_off @ c, _PHASES))
        slack = proj - (t_star + 1e-11 * (1.0 + abs(t_star)))
        rows, dirs = _fresh_pairs(slack, active)
        if not rows.size:
            return c, t_star
        active[rows, dirs] = True
        backend.add_rows(rows_for(rows, dirs))
    raise CertificationError("constraint generation failed to converge")


def _fresh_pairs(slack: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The at most 300 pairs a constraint round adds: of each row's two most
    violated directions (ties to the lower one; more would crowd out new
    rows), those not active, by the row's worst violation, row, direction."""
    rows = np.flatnonzero((slack > 0).any(axis=1))
    dirs = np.argsort(-slack[rows], axis=1, kind="stable")[:, :2]
    worst = np.repeat(slack[rows, dirs[:, 0]], 2)
    rows, dirs = np.repeat(rows, 2), dirs.ravel()
    fresh = np.flatnonzero((slack[rows, dirs] > 0) & ~active[rows, dirs])
    chosen = fresh[np.lexsort((dirs[fresh], rows[fresh], -worst[fresh]))[:300]]
    return rows[chosen], dirs[chosen]


def _max_modulus(V_off: np.ndarray, c: np.ndarray) -> float:
    return float(np.abs(V_off @ c).max(initial=0.0))


# Targets per vectorized seeding pass (_Scaled.seed): _lawson's work arrays
# are (chunk, n) and (chunk, k, k) for n candidates and k witnesses.
_LAWSON_CHUNK = 64
_LAWSON_ITERS = 60  # Lawson rounds at most
_LAWSON_RTOL = 1e-3  # relative gap to 1 / ||nu||_1 that ends a target's rounds


def _lawson(
    V: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Near-optimal coefficients (v_t c = 1) for each target, one row each,
    and each target's not-peak measure: its l1 norm and residual norm.

    Lawson's iteration for the minimax problem, run for every target at
    once: with weights d on the off-target rows (uniform at first), c
    minimizes sum_r d_r |(Vc)_r|^2 subject to v_t c = 1, which is
    c = x / (v_t x) with M x = conj(v_t), M = V^H diag(d) V; then
    d_r <- d_r |(Vc)_r|, normalized.  The weights concentrate on the rows
    that bind at the optimum, and those rows are what the LP's active set
    needs.  A row returned is the best iterate by the true off-target max.

    Each round's weights also give a measure nu = d conj(V x): it vanishes
    at the target and nu V = v_t + e, e the solve's residual, so for every
    c with v_t c = 1 and off-target max p, 1 <= ||nu||_1 p + ||e||_2 ||c||_2
    (certify_peak reads the lower bound on the optimum off this).  Kept per
    target are ||nu||_1 and ||e||_2 of the round with the smallest positive
    ||nu||_1 (inf and 0 when no round has one).  A target stops iterating
    once its best max is within _LAWSON_RTOL of 1 / ||nu||_1, a bound never
    below the weighted least-squares one, 1 / sqrt(v_t x), by
    Cauchy-Schwarz; the others go on, at most _LAWSON_ITERS rounds.  The
    stop reads that gap alone, not whether the bracket decides (_status).

    A square V is invertible, and its rows are V^-1 e_t, the exact optimum.
    targets is a nonempty index array of seen rows (_Scaled.seed).  M is
    formed in batches of targets whose (batch, k, n + k) arrays fit MAX_ENTRIES.
    """
    n, k = V.shape
    nu_norm = np.full(targets.size, np.inf)
    if n == k:  # square, so invertible: V c = e_t
        return np.linalg.solve(V, np.eye(n)[:, targets]).T, nu_norm, np.zeros(targets.size)
    a = V[targets]  # (T, k) target rows
    nu = np.zeros((targets.size, n), dtype=complex)  # each target's smallest measure
    V_H = V.conj().T
    d = np.ones((targets.size, n))
    d[np.arange(targets.size), targets] = 0.0
    d /= n - 1
    best = np.full(targets.size, np.inf)
    best_c = np.zeros_like(a)
    x = np.empty_like(a)
    batch = max(1, MAX_ENTRIES // (k * (n + k)))
    live = np.arange(targets.size)  # the targets still iterating
    for _ in range(_LAWSON_ITERS):
        for b in range(0, live.size, batch):
            part = live[b : b + batch]
            M = (V_H[None] * d[part, None, :]) @ V  # V^H diag(d) V per target
            # a tiny ridge keeps M invertible when fewer than k rows carry weight
            ridge = 1e-14 * (1.0 + np.trace(M, axis1=1, axis2=2).real)
            M += ridge[:, None, None] * np.eye(k)
            x[part] = np.linalg.solve(M, a[part].conj()[:, :, None])[:, :, 0]
        x_live, d_live = x[live], d[live]
        a_x = (a[live] * x_live).sum(axis=1)  # = conj(a)^H M^-1 conj(a) > 0
        w = x_live @ V.T  # V x per target
        r = np.abs(w) / np.abs(a_x)[:, None]  # |(Vc)_r| for c = x / (v_t x)
        r[np.arange(live.size), targets[live]] = 0.0
        top = r.max(axis=1)
        better = top < best[live]
        best[live[better]] = top[better]
        best_c[live[better]] = x_live[better] / a_x[better, None]
        weighted = d_live * r
        total = weighted.sum(axis=1)
        nu_l1 = total * np.abs(a_x)  # ||nu||_1 for nu = d conj(V x), zero at the target
        smaller = (nu_l1 > 0.0) & (nu_l1 < nu_norm[live])
        nu_norm[live[smaller]] = nu_l1[smaller]
        nu[live[smaller]] = d_live[smaller] * w[smaller].conj()
        going = best[live] - 1.0 / nu_norm[live] > _LAWSON_RTOL * best[live]
        if not going.any():
            break
        live, d_live = live[going], d_live[going]
        weighted, total = weighted[going], total[going]
        # all weighted rows at zero: c is optimal, keep the weights
        np.divide(weighted, total[:, None], out=d_live, where=total[:, None] > 0)
        d[live] = d_live
    e_norm = np.linalg.norm(nu @ V - a, axis=1)
    e_norm[nu_norm == np.inf] = 0.0  # no measure, no residual
    return best_c, nu_norm, e_norm


@dataclass
class _Scaled:
    """A family's values as certify_peak solves on them.

    Column j is divided by scale[j], the power of two nearest its max
    modulus, so every column's max modulus lies within sqrt(2) of 1 and the
    map back (c = c_scaled / scale) is exact in floating point.  unseen[r]
    marks a row no witness sees: its scaled max modulus is at most 1e-13
    max(1, max |values|); it is the one such rule of seeding, certification
    and re-verification.  seeds holds each computed chunk's _lawson arrays by
    its first target; threads that race on a chunk compute the same arrays.
    """

    values: np.ndarray
    scale: np.ndarray
    unseen: np.ndarray
    seeds: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def of(cls, V: np.ndarray) -> "_Scaled":
        exponents = np.round(np.log2(np.abs(V).max(axis=0))).astype(int)
        scale = np.ldexp(1.0, exponents)
        values = V / scale
        row_max = np.abs(values).max(axis=1)
        return cls(values, scale, row_max <= 1e-13 * max(1.0, float(row_max.max())))

    @functools.cached_property
    def sigma_min(self) -> float:
        """The scaled matrix's smallest singular value, which the radii of
        the measure bound and of the LP box divide by; a square family
        reads neither, and runs no SVD."""
        return float(np.linalg.svd(self.values, compute_uv=False)[-1])

    def seed(self, target: int) -> tuple[np.ndarray, float, float]:
        """A target's _lawson row and its measure's ||nu||_1 and ||e||_2
        (a zero row, inf and 0 if unseen), computed once per family with
        its whole chunk: the targets from target - target % _LAWSON_CHUNK,
        at most _LAWSON_CHUNK of them.  Each target stops on its own gap,
        and the chunk's seeds depend on the family's values alone, so a lone
        certify_peak and a sweep seed alike."""
        start = target - target % _LAWSON_CHUNK
        if start not in self.seeds:
            chunk = np.arange(start, min(start + _LAWSON_CHUNK, self.values.shape[0]))
            rows = np.zeros((chunk.size, self.values.shape[1]), dtype=complex)
            nu_norm, e_norm = np.full(chunk.size, np.inf), np.zeros(chunk.size)
            seen = ~self.unseen[chunk]
            if seen.any():
                rows[seen], nu_norm[seen], e_norm[seen] = _lawson(self.values, chunk[seen])
            self.seeds[start] = rows, nu_norm, e_norm
        rows, nu_norm, e_norm = self.seeds[start]
        i = target - start
        return rows[i], float(nu_norm[i]), float(e_norm[i])


@single_threaded()
def certify_peak(W: WitnessFamily, target: int) -> PeakCertificate:
    """Certify whether candidate ``target`` is a peak point of the family.

    The status is _status(refined, lp_lower): certified_peak iff the
    coefficients, 1 at the target, have max modulus ``refined`` < 1 -
    PEAK_TOL off it; certified_not_peak iff the certified lower bound
    reaches 1 - PEAK_TOL / 100 (inf for a target no witness sees);
    anything between is undecided.

    W's columns are first rescaled by powers of two to max modulus near 1;
    coefficients map back exactly, so every number of the certificate is
    read off W itself.  A row the scaled family marks unseen is not a peak,
    with lp_lower = inf.  Every other target takes one path from its seed
    (_Scaled.seed) to the certificate.  A square W is invertible: its seed
    V^-1 e_t is the certificate, with bounds 0, and no LP runs.

    Otherwise let T be the seed's off-target max and sigma_min the scaled
    family's smallest singular value.  Every optimum c has ||c||_2 <= R =
    sqrt(1 + (n - 1) T^2) / sigma_min, so the seed's measure bounds the
    optimum below by L = (1 - ||e||_2 R) / ||nu||_1 - _LP_PAD (0 without a
    measure).  When _status(T, L) decides and T <= L sec(pi/SIDES), as
    tight as the LP's own bracket, the seed is the certificate with
    lp_lower = L and lp_upper = T, and no LP runs.  Otherwise the seed
    starts the LP's active set, whose variables are boxed by |Re c_j|,
    |Im c_j| <= 2 sqrt(1 + (n - 1) (T sec(pi/SIDES))^2) / sigma_min:
    every LP optimum lies inside, so its bound
    stays sound, and no reduced LP is unbounded.  The LP runs on
    incremental HiGHS with 1e-9 feasibility tolerances (a failed run is
    retried once from a cleared solver with presolve on).  The certificate
    is the LP point or the seed, each normalized at the target, whichever
    has the smaller off-target max (the LP point on a tie), and lp_lower
    the larger of the LP's bound and L.  For every family ``refined`` is
    the certificate's max, read once off the scaled off-target rows.

    Apart from W's cached scaled state, which a sweep fills before it fans
    out, a call writes nothing shared: a sweep maps it over the targets of
    one block on a thread pool (_estimate_families).
    """
    n, k = W.values.shape
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range")
    scaled = W._scaled
    if scaled.unseen[target]:
        return _unseen(target, k)
    v_t = scaled.values[target]
    seed, nu_norm, e_norm = scaled.seed(target)
    c_seed = seed / np.dot(v_t, seed)
    V_off = np.delete(scaled.values, target, axis=0)
    if n == k:  # the optimum is 0, attained by the seed
        best_c, lp_lower, lp_upper = c_seed, 0.0, 0.0
    else:
        top = _max_modulus(V_off, c_seed)
        radius = math.sqrt(1.0 + (n - 1) * top**2) / scaled.sigma_min  # bounds ||c|| at optima
        lower = 0.0 if nu_norm == math.inf else (1.0 - e_norm * radius) / nu_norm - _LP_PAD
        if _status(top, lower) != "undecided" and top <= lower * _SEC:
            # the seed's bracket decides, and is no wider than the LP's
            best_c, lp_lower, lp_upper = c_seed, lower, top
        else:
            c_lp, p = _solve_polygon_lp(V_off, v_t, seed, scaled.sigma_min)
            c_lp = c_lp / np.dot(v_t, c_lp)  # exact normalization at the target
            lp_lower = max(p - _LP_PAD, lower)
            lp_upper = p * _SEC + _LP_PAD
            # the LP point, or the seed where it is smaller off the target
            best_c = min((c_lp, c_seed), key=lambda c: _max_modulus(V_off, c))
    # power-of-two scaling commutes with rounding: the scaled values of
    # best_c equal W.values @ (best_c / scale) bit for bit
    refined = _max_modulus(V_off, best_c)
    status = _status(refined, lp_lower)
    coefficients = best_c / scaled.scale
    return PeakCertificate(target, status, coefficients, lp_lower, lp_upper, refined)


def _unseen(target: int, k: int) -> PeakCertificate:
    """No witness sees the target: it can never peak."""
    zeros = np.zeros(k, dtype=complex)
    return PeakCertificate(target, "certified_not_peak", zeros, math.inf, math.inf, math.inf)


@single_threaded()
def reverify_certificate(W: WitnessFamily, cert: PeakCertificate) -> bool:
    """Re-derive a verdict from W and the certificate: its status is
    _status(refined, lp_lower); a peak's coefficients evaluate to 1 at the
    target and at most refined off it; an unseen target (lp_lower = inf) is
    a row W's scaled values mark unseen.  Lower bounds, the LP's and the
    Lawson measure's, are trusted."""
    if cert.status != _status(cert.refined, cert.lp_lower):
        return False
    if cert.status == "certified_peak":
        w = W.values @ cert.coefficients
        off = np.delete(np.abs(w), cert.target)
        return (
            abs(w[cert.target] - 1.0) <= CERT_REVERIFY_TOL
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
            "tol": PEAK_TOL,
            "sides": SIDES,
            "candidates": list(self.family.labels),
            "certified_peak": self.peak,
            "certified_not_peak": self.not_peak,
            "undecided": self.undecided,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def shilov_estimate(W: WitnessFamily) -> BoundaryPartition:
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

    The block's candidates are certified concurrently, one pool thread per
    CPU; each certificate is bit-identical to a sequential certify_peak
    call on the same block, so to certify_peak(W, t) when W is one block.
    """
    return _estimate_families([W])[0]


def _cpu_count() -> int:
    """CPUs this process may run on: the sweep's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _estimate_families(families: list[WitnessFamily]) -> list[BoundaryPartition]:
    """shilov_estimate of each family, with one table of swept blocks shared
    by all of them: a block seen before reuses its certificates.  A block's
    solver state (_Scaled.of, the seeds of every chunk, sigma_min when an LP
    will run) is computed before the fan-out, so no worker fills a cache.  Then
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
                    for start in range(0, rows.size, _LAWSON_CHUNK):
                        scaled.seed(start)
                    if rows.size > cols.size:
                        _ = scaled.sigma_min
                    certify = functools.partial(certify_peak, A)
                    swept[key] = list(pool.map(certify, range(rows.size)))
                for cert in swept[key]:
                    coefficients = np.zeros(k, dtype=complex)
                    coefficients[cols] = cert.coefficients
                    target = int(rows[cert.target])
                    certs[target] = replace(cert, target=target, coefficients=coefficients)
            ordered = [certs[r] for r in range(W.candidate_count)]
            partitions.append(BoundaryPartition(W, ordered))
    return partitions


def _blocks(W: WitnessFamily) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of W's blocks: the connected components of
    the graph joining row r to column j when W.values[r, j] != 0
    (support_components).  A zero row is a block alone, with no columns."""
    rows, cols = support_components(W.values != 0)
    labels = np.flatnonzero(np.bincount(rows))  # np.unique's order; it would import numpy.ma
    return [(np.flatnonzero(rows == b), np.flatnonzero(cols == b)) for b in labels]


@single_threaded()
def is_boundary(subset: list[int], W: WitnessFamily):
    """Does every function of W's span attain its max modulus on the subset?

    Each candidate t outside the subset S, in ascending order, is certified
    as a peak of the rows S and t (certify_peak, reduced to independent
    columns by _independent_columns' rule).  A certified peak t gives
    (False, c): the combination c of W's own columns, re-checked on W's rows
    S and t by reverify_certificate, is 1 at t and at most its
    certificate's refined < 1 - PEAK_TOL on S.  If every t is
    certified not a peak (a row no witness sees never peaks), the answer is
    (True, None).  Otherwise some t is undecided, and so is the answer:
    (None, None).
    """
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("boundary subset must be nonempty")
    V = W.values
    n, k = V.shape
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError(f"boundary subset indices must lie in [0, {n})")
    decided = True
    for t in sorted(set(range(n)).difference(subset)):
        rows = np.append(subset, t)  # t last
        kept, _ = _kept_columns(V[rows])
        if not kept.size:  # no witness sees t
            continue
        block = _Block(tuple(W.labels[r] for r in rows), V[np.ix_(rows, kept)])
        cert = certify_peak(block, len(subset))
        if cert.status == "certified_peak":
            c = np.zeros(k, dtype=complex)
            c[kept] = cert.coefficients
            if reverify_certificate(_Block(block.labels, V[rows]), replace(cert, coefficients=c)):
                return False, c
        decided = decided and cert.status == "certified_not_peak"
    return (True, None) if decided else (None, None)


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
            "tol": PEAK_TOL,
            "sides": SIDES,
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
def verify_product_theorem(Q: Quadruple, regime: str = "exact") -> ProductTheoremReport:
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
        quadruple=Q.label or "quadruple", regime=regime, preconditions={"regime": regime}
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
        ]
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


def verify_peak_product(Q: Quadruple, regime: str = "exact") -> PeakProductReport:
    """Check S0(vector system) = S0(scalar system) x S0(E) on the candidates.

    On finite candidate sets the peak-point set is the certified peak set, so
    the comparison reuses the boundary pipeline; every certified_peak
    certificate is additionally re-verified by direct evaluation (the peaking
    inequality itself), which is what makes the agreement between the two
    theorems' checks a statement rather than a tautology.
    """
    base = verify_product_theorem(Q, regime=regime)
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
