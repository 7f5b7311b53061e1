"""Vector-valued function systems on finite spaces and admissible quadruples.

A FunctionSystem is a finite-dimensional span of E-valued functions on a
finite space X, stored as basis value tables (one Element of E per point).
On top of it sit the standard constructors (full C(X,E), Lipschitz-normed
variants, polynomial and rational spans on planar samples), product
closure, the quadruple admissibility conditions, and the associated map

    pi(psi, x) = psi o e_x

from characters-of-E x points into characters of the vector system, built
once by pi_matrix.  psi runs over E.characters, the one character tuple the
algebra caches (AlgebraSpec.characters), so pi, the witness families and the
Gelfand transforms of one algebra index the same list.  A closed S holds
1_E and C(X, E) is integral over it, so by lying-over (Atiyah-Macdonald 5.10)
M(S) is the set of distinct pi rows, and S is natural iff no two coincide:
one count (_first_distinct) decides check_natural, check_pi_injective and,
with E = C, condition (3) of check_admissible.

Every rank and span-membership decision here and in the witness builders
follows one rule, kept in the Span class: a flattened value table v lies in
a span iff ||v - P v|| <= SPAN_TOL * max(||v||, 1), P the orthogonal
projection onto the span.  Bases keep the first independent inputs in order,
and a system is closed when its unit and basis products pass the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import AlgebraSpec, Element, same_algebra
from .blas import lower_triangular_inverse, single_threaded
from .characters import Character, _first_distinct, close_rows
from .reports import (
    ValidationReport,
    complex_array_to_pairs,
    pairs_to_complex_array,
)
from .spaces import FiniteSpace

SPAN_TOL = 1e-8  # relative residual bound of the one span rule (see Span)
# Rows per Span.extend block.  In-block projections grow with the square of
# the block: Span.of of the 288 basis rows of C(X, C^3) at |X| = 96 took
# 14 ms in blocks of 64, 16 ms in blocks of 16 or 128, and 27 ms in one
# block (one BLAS thread, 2 vCPUs)
_SPAN_BLOCK = 64
SEPARATION_TOL = 1e-9


@dataclass(frozen=True)
class FunctionSystem:
    """A span of E-valued functions on a finite space.

    basis has shape (m, |X|, dim E): basis[k][x] are the E-coordinates of the
    k-th function at point x.  ``closed`` tells whether the span is a unital
    algebra; the system decides it from its basis, once, on first use.
    """

    space: FiniteSpace
    scalars: AlgebraSpec
    basis: np.ndarray
    norm_tag: str = "sup"
    alpha: float | None = None
    label: str = ""

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != self.space.size or basis.shape[2] != self.scalars.dim:
            raise ValueError(
                f"basis must have shape (m, {self.space.size}, {self.scalars.dim})"
            )
        if basis.shape[0] == 0:
            raise ValueError("a function system needs at least one basis function")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        if self.norm_tag not in ("sup", "lipschitz"):
            raise ValueError(f"unknown norm tag {self.norm_tag!r}")
        if self.norm_tag == "lipschitz":
            if self.alpha is None or not (0 < self.alpha <= 1):
                raise ValueError("lipschitz norm needs alpha in (0, 1]")
            self.space.distance_matrix()  # must exist

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def span(self) -> "Span":
        """The span of the basis tables, flattened in basis order."""
        return Span.of(self.basis.reshape(self.dim, -1))

    @cached_property
    def basis_products(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_basis_products of the system, formed once and read-only, under
        the BLAS pin of the verdict (closure_residual), which as_algebra
        reads first."""
        triple = _basis_products(self)
        for a in triple:
            a.setflags(write=False)
        return triple

    @cached_property
    def closure_residual(self) -> float:
        """The largest Span.residuals of the unit and of the basis products
        whose supports meet (basis_products; all others are zero)."""
        with single_threaded():
            tables = np.concatenate([self.unit_table().reshape(1, -1), self.basis_products[2]])
            return float(self.span.residuals(tables).max())

    @property
    def closed(self) -> bool:
        """True iff the span is a unital algebra, by the one span rule."""
        return self.closure_residual <= SPAN_TOL

    def table(self, coeffs) -> np.ndarray:
        """Value table of sum_k coeffs[k] * basis[k]."""
        coeffs = np.asarray(coeffs, dtype=complex).reshape(self.dim)
        return np.tensordot(coeffs, self.basis, axes=(0, 0))

    def unit_table(self) -> np.ndarray:
        """The constant function x -> 1_E as a value table."""
        return np.broadcast_to(
            self.scalars.unit, (self.space.size, self.scalars.dim)
        ).copy()

    def to_dict(self) -> dict:
        from .algebra import _PRESET_PATTERNS  # label round-trips for presets

        algebra: object = self.scalars.to_dict()
        if any(p.match(self.scalars.label) for p, _ in _PRESET_PATTERNS):
            algebra = self.scalars.label
        return {
            "space": self.space.to_dict(),
            "algebra": algebra,
            "basis": complex_array_to_pairs(self.basis),
            "norm": "sup" if self.norm_tag == "sup" else {"lipschitz": self.alpha},
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSystem":
        from .algebra import preset_algebra

        algebra = data["algebra"]
        scalars = (
            preset_algebra(algebra)
            if isinstance(algebra, str)
            else AlgebraSpec.from_dict(algebra)
        )
        norm = data.get("norm", "sup")
        if norm == "sup":
            tag, alpha = "sup", None
        else:
            tag, alpha = "lipschitz", float(norm["lipschitz"])
        return cls(
            FiniteSpace.from_dict(data["space"]),
            scalars,
            pairs_to_complex_array(data["basis"]),
            norm_tag=tag,
            alpha=alpha,
            label=str(data.get("label", "")),
        )


def evaluate(S: FunctionSystem, coeffs, x) -> Element:
    """Evaluate the span element with the given coefficients at point x."""
    idx = S.space.index(x) if isinstance(x, str) else int(x)
    if not 0 <= idx < S.space.size:
        raise KeyError(f"unknown point {x!r}")
    return Element(S.table(coeffs)[idx], S.scalars)


def pointwise_product(S: FunctionSystem, table_a: np.ndarray, table_b: np.ndarray) -> np.ndarray:
    """E-valued pointwise product of two value tables."""
    return np.einsum("xp,xq,pqk->xk", table_a, table_b, S.scalars.structure)


def sup_norm(S: FunctionSystem, f) -> float:
    """sup_x ||f(x)||_E, f given by coefficients or a value table."""
    table = f if isinstance(f, np.ndarray) and f.ndim == 2 else S.table(f)
    pointwise = np.abs(table) @ S.scalars.weights
    return float(pointwise.max())


def lipschitz_seminorm(S: FunctionSystem, f) -> float:
    """max over pairs x != y of ||f(x) - f(y)|| / d(x,y)^S.alpha."""
    if S.alpha is None:
        raise ValueError("system has no lipschitz tag")
    d = S.space.distance_matrix()
    table = f if isinstance(f, np.ndarray) and f.ndim == 2 else S.table(f)
    n = S.space.size
    if n == 1:
        return 0.0
    diff = table[:, None, :] - table[None, :, :]
    num = np.abs(diff) @ S.scalars.weights  # ||f(x) - f(y)||
    iu = np.triu_indices(n, k=1)
    return float(np.max(num[iu] / d[iu] ** S.alpha))


def lipschitz_norm(S: FunctionSystem, f) -> float:
    return sup_norm(S, f) + lipschitz_seminorm(S, f)


def span_membership(S: FunctionSystem, table: np.ndarray):
    """Coefficients of a value table in the span (0 on dependent basis
    tables), or None when the table is not in the span."""
    if not S.span.contains(table)[0]:
        return None
    return S.span.coefficients(table)[0]


def separation_check(S: FunctionSystem) -> bool:
    """True iff for each pair x != y some basis function differs at x and y
    by more than SEPARATION_TOL in E's weighted norm.  A pair that fails is
    within SEPARATION_TOL in every entry of the rows (w_p f_m(x)_p)_(m, p),
    so only the pairs close_rows yields on them are tested."""
    basis = S.basis
    weights = S.scalars.weights
    rows = (basis * weights).transpose(1, 0, 2).reshape(S.space.size, -1)
    for a, b, _ in close_rows(rows, tol=SEPARATION_TOL):
        diff = np.abs(basis[:, a, :] - basis[:, b, :]) @ weights  # (m, pairs)
        if np.any(diff.max(axis=0) <= SEPARATION_TOL):
            return False
    return True


@single_threaded()
def validate_system(S: FunctionSystem) -> ValidationReport:
    """Basis independence, unit membership, and closure (FunctionSystem.closed)."""
    report = ValidationReport(subject=S.label or "function system")
    span = S.span
    independent = span.rank == S.dim
    dropped = np.delete(S.basis, span.index, axis=0)
    report.add(
        "basis_independent",
        independent,
        0.0 if independent else float(span.residuals(dropped).min()),
        "" if independent else f"rank {span.rank} < {S.dim}",
    )

    report.add("contains_unit", bool(span.contains(S.unit_table())[0]))

    report.add("product_closed", S.closed, 0.0 if S.closed else 1.0)

    if S.norm_tag == "lipschitz":
        report.add("metric_available", True)
    return report


def _basis_products(S: FunctionSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, products): the ordered basis pairs (i, j) whose point supports
    meet, in C order, and their flattened products, (pairs, |X| * dim E).

    The product is pointwise, so the product of two basis functions with
    disjoint supports is exactly zero; on C(X, E)'s indicator basis only
    |X| (dim E)^2 of the m^2 pairs meet.  The pair set is symmetric.  The
    unoptimized einsum keeps the all-pairs contraction's arithmetic, so each
    product is bit-equal to it.
    """
    support = np.any(S.basis != 0, axis=2).astype(float)  # (m, |X|)
    i, j = np.nonzero(support @ support.T)  # shared-point counts, by BLAS
    products = np.einsum("ixp,ixq,pqk->ixk", S.basis[i], S.basis[j], S.scalars.structure)
    return i, j, products.reshape(i.size, -1)


# ---------------------------------------------------------------------------
# Span construction


class Span:
    """Orthonormal basis of the span of flat vectors, built a block at a time.

    ``contains`` is the package's one span rule (see the module docstring).
    ``extend`` keeps each offered row unless the span, with the rows kept
    before it, contains it, so ``kept`` is the first maximal independent
    subset in input order; ``add`` is ``extend`` of one row.  ``extend``
    takes rows in blocks of at most _SPAN_BLOCK (reorthogonalized block
    classical Gram-Schmidt: Golub & Van Loan, ch. 5; Barlow & Smoktunowicz,
    Numer. Math. 123 (2013)): a block is projected against Q twice, each
    time by two matrix products, and then each of its rows, in order,
    against the rows of its block kept before it, twice, before the rule
    decides it.  The orthonormal rows Q and their conjugates live in two
    buffers that double when full: every projection reads Q and Q^H as
    views, and a block writes its kept rows into them once.  Projections
    run on one BLAS thread (blas.single_threaded), one pin per ``extend``.
    """

    def __init__(self, width: int):
        self._q_rows = np.empty((1, width), dtype=complex)  # Q in the first rank rows
        self._q_conj = np.empty((1, width), dtype=complex)  # conj(Q), likewise
        self._count = 0  # vectors offered, kept or not
        self.index: list[int] = []  # input positions of the kept vectors
        self.kept: list[np.ndarray] = []
        self._r_inv: np.ndarray | None = None  # coefficients' R^-1, until a row is kept

    @classmethod
    def of(cls, vectors) -> "Span":
        """The span of the rows of a 2-d array, offered in row order."""
        vectors = np.asarray(vectors, dtype=complex)
        span = cls(vectors.shape[1])
        span.extend(vectors)
        return span

    @property
    def rank(self) -> int:
        return len(self.index)

    @property
    def _q(self) -> np.ndarray:
        """The orthonormal rows, (rank, width)."""
        return self._q_rows[: self.rank]

    @property
    def _qh(self) -> np.ndarray:
        """Their conjugate transpose, (width, rank)."""
        return self._q_conj[: self.rank].T

    def _rows(self, V) -> np.ndarray:
        return np.asarray(V, dtype=complex).reshape(-1, self._q_rows.shape[1])

    @single_threaded()
    def _project_out(self, V: np.ndarray) -> np.ndarray:
        q, qh = self._q, self._qh
        for _ in range(2):
            V = V - (V @ qh) @ q
        return V

    def residuals(self, V) -> np.ndarray:
        """||v - P v|| / max(||v||, 1) for each flattened row v of V."""
        V = self._rows(V)
        return np.linalg.norm(self._project_out(V), axis=1) / _scale(V)

    def contains(self, V) -> np.ndarray:
        """Span membership of each flattened row of V."""
        return self.residuals(V) <= SPAN_TOL

    def add(self, v) -> bool:
        """Keep v unless it lies in the span; returns True if kept."""
        return bool(self.extend(v)[0])

    @single_threaded()
    def extend(self, V) -> np.ndarray:
        """Offer each flattened row of V in order; returns which were kept."""
        V = self._rows(V)
        keep = np.zeros(V.shape[0], dtype=bool)
        for start in range(0, V.shape[0], _SPAN_BLOCK):
            keep[start : start + _SPAN_BLOCK] = self._extend_block(V[start : start + _SPAN_BLOCK])
        return keep

    def _extend_block(self, V: np.ndarray) -> np.ndarray:
        rank, size = self.rank, self._q_rows.shape[0]
        if rank + V.shape[0] > size:  # room for every row of the block
            size *= 2 ** math.ceil(math.log2((rank + V.shape[0]) / size))
            for name in ("_q_rows", "_q_conj"):
                grown = np.empty((size, V.shape[1]), dtype=complex)
                grown[:rank] = getattr(self, name)[:rank]
                setattr(self, name, grown)
        R = self._project_out(V)  # against Q
        scale = _scale(V)
        residuals = np.linalg.norm(R, axis=1) / scale
        keep = np.zeros(V.shape[0], dtype=bool)
        new = 0  # rows of this block kept so far, at rank, rank + 1, ...
        for i, r in enumerate(R):
            if residuals[i] <= SPAN_TOL:  # more projection would only shrink it
                continue
            if new:  # against the block's kept rows, twice
                q, qh = self._q_rows[rank : rank + new], self._q_conj[rank : rank + new].T
                for _ in range(2):
                    r = r - (r @ qh) @ q
                residuals[i] = np.linalg.norm(r) / scale[i]
            if residuals[i] <= SPAN_TOL:
                continue
            self._q_rows[rank + new] = r / np.linalg.norm(r)
            np.conj(self._q_rows[rank + new], out=self._q_conj[rank + new])
            keep[i] = True
            new += 1
        self.index.extend((self._count + np.flatnonzero(keep)).tolist())
        self.kept.extend(V[keep])
        self._count += V.shape[0]
        if new:
            self._r_inv = None
        return keep

    @single_threaded()
    def coefficients(self, V) -> np.ndarray:
        """Coefficients over all offered vectors (0 on dropped ones) whose
        combination is the projection of each flattened row of V."""
        V = self._rows(V)
        out = np.zeros((V.shape[0], self._count), dtype=complex)
        if self.rank:
            if self._r_inv is None:
                R = np.array(self.kept) @ self._qh  # kept = R @ Q, lower triangular
                # one small solve for R^-1, kept until the span grows, then a
                # product: a triangular solve against every row of V touches
                # several MB of BLAS buffer
                self._r_inv = lower_triangular_inverse(R)
            out[:, self.index] = (V @ self._qh) @ self._r_inv
        return out


def _scale(V: np.ndarray) -> np.ndarray:
    """The span rule's max(||v||, 1) for each row v of V."""
    return np.maximum(np.linalg.norm(V, axis=1), 1.0)


def _kept_tables(span: Span, X: FiniteSpace, E: AlgebraSpec) -> np.ndarray:
    """The kept vectors of a span of flattened value tables, as tables."""
    return np.array(span.kept).reshape(span.rank, X.size, E.dim)


@single_threaded()
def close_under_products(S: FunctionSystem) -> FunctionSystem:
    """The smallest multiplicatively closed unital span containing S.

    The unit constant is installed first if missing; pairwise products are
    then appended in lexicographic pair order until the span is stable, one
    Span.extend per first factor.  Terminates because the dimension is
    capped by |X| * dim E.
    """
    unit = S.unit_table()[None]
    tables = S.basis if S.span.contains(unit)[0] else np.concatenate([unit, S.basis])
    span = Span.of(tables.reshape(len(tables), -1))
    while True:  # one pass: the products of the kept tables, row i at a time
        snapshot = _kept_tables(span, S.space, S.scalars)
        added = False
        for i in range(len(snapshot)):
            products = np.einsum("xp,jxq,pqk->jxk", snapshot[i], snapshot[i:], S.scalars.structure)
            added |= bool(span.extend(products).any())
        if not added:
            break
    return replace(
        S,
        basis=_kept_tables(span, S.space, S.scalars),
        label=S.label and f"closure({S.label})",
    )


def make_CXE(X: FiniteSpace, E: AlgebraSpec, label: str = "") -> FunctionSystem:
    """The full algebra of all E-valued functions on X (dimension |X| dim E)."""
    n, d = X.size, E.dim
    basis = np.zeros((n * d, n, d), dtype=complex)
    for x in range(n):
        for j in range(d):
            basis[x * d + j, x, j] = 1.0
    return FunctionSystem(X, E, basis, norm_tag="sup", label=label or f"C(X,{E.label})")


def make_lip(X: FiniteSpace, E: AlgebraSpec, alpha: float, label: str = "") -> FunctionSystem:
    """Same span as C(X,E) but carrying the Lipschitz norm of order alpha."""
    full = make_CXE(X, E)
    return replace(
        full,
        norm_tag="lipschitz",
        alpha=float(alpha),
        label=label or f"Lip_{alpha}(X,{E.label})",
    )


def _coordinate_values(X: FiniteSpace) -> np.ndarray:
    if X.coords is None:
        raise ValueError("polynomial/rational systems need planar coordinates")
    return X.coords


def _times_units(fs, E: AlgebraSpec) -> np.ndarray:
    """The flattened tables f e_j for the scalar functions f in fs, f-major."""
    fs = np.asarray(fs)
    tables = np.zeros((fs.shape[0], E.dim, fs.shape[1], E.dim), dtype=complex)
    for j in range(E.dim):
        tables[:, j, :, j] = fs
    return tables.reshape(fs.shape[0] * E.dim, -1)


def _powers(z: np.ndarray, degree: int) -> list[np.ndarray]:
    """The scalar functions 1, z, ..., z^degree."""
    powers = [np.ones_like(z)]
    for _ in range(degree):
        powers.append(powers[-1] * z)
    return powers


def make_poly(X: FiniteSpace, E: AlgebraSpec, degree: int, label: str = "") -> FunctionSystem:
    """Span of z^k e_j for 0 <= k <= degree, deduplicated by rank.

    The span is closed when it has full dimension |X| dim E or the points
    make it so; close_under_products gives the smallest closed span over it.
    """
    span = Span.of(_times_units(_powers(_coordinate_values(X), degree), E))
    return FunctionSystem(X, E, _kept_tables(span, X, E), label=label or f"P_{degree}(X,{E.label})")


def make_rational(
    X: FiniteSpace,
    E: AlgebraSpec,
    degree: int,
    poles: list[complex],
    label: str = "",
) -> FunctionSystem:
    """Polynomial span plus (z - c)^(-k) e_j, 1 <= k <= degree, per pole c:
    one Span over the tables of 1, z, ..., z^degree, then the pole powers."""
    z = _coordinate_values(X)
    for c in poles:
        if np.min(np.abs(z - complex(c))) < 1e-9:
            raise ValueError(f"pole {c} collides with a sample point")
    powers = _powers(z, degree)
    for c in poles:
        inv = power = 1.0 / (z - complex(c))
        for _ in range(degree):
            powers.append(power)
            power = power * inv
    span = Span.of(_times_units(powers, E))
    return FunctionSystem(X, E, _kept_tables(span, X, E), label=label or f"R_{degree}(X,{E.label})")


def span_BE(B: FunctionSystem, E: AlgebraSpec) -> FunctionSystem:
    """The span of {b * e : b in B.basis, e in E basis} as E-valued tables."""
    if B.scalars.dim != 1:
        raise ValueError("span_BE expects a scalar function system")
    span = Span.of(_times_units(B.basis[:, :, 0], E))
    return FunctionSystem(
        B.space,
        E,
        _kept_tables(span, B.space, E),
        label=f"span({B.label or 'B'}*{E.label})",
    )


def embedding_constant(S: FunctionSystem) -> float:
    """sup ||f||_X / ||f||_S over the span: exactly 1 for sup-normed systems
    and for spans that hold 1_E.

    The ratio never exceeds 1, and 1_E, of Lipschitz seminorm 0, attains
    it.  Raises ValueError for a Lipschitz-normed span without 1_E; every
    function algebra of the product laws holds 1_E.
    """
    if S.norm_tag == "sup" or S.span.contains(S.unit_table())[0]:
        return 1.0
    raise ValueError(f"system {S.label!r} is Lipschitz-normed and does not hold 1_E")


# ---------------------------------------------------------------------------
# Closed systems as abstract algebras


@single_threaded()  # threaded products of the meeting pairs cost CPU and save no wall time
def as_algebra(S: FunctionSystem) -> AlgebraSpec:
    """Structure constants of a closed system (S.closed) in its own basis.

    Only the basis pairs whose supports meet (S.basis_products) are expressed
    in the basis through S.span; every other product is zero.  Each pair's
    row is symmetrized against its swapped partner's, and the uniform
    weight, the largest l1 norm of a row (at least 1), makes the
    submultiplicativity certificate hold.  The dense m^3 tensor is written
    once, from those rows.
    """
    if not S.closed:
        raise ValueError(f"system {S.label!r} is not closed: residual {S.closure_residual:.3g}")
    m = S.dim
    span = S.span
    i, j, products = S.basis_products
    rows = span.coefficients(products)
    swap = np.searchsorted(i * m + j, j * m + i)  # the row of (j, i)
    rows = 0.5 * (rows + rows[swap])  # exact symmetry (products are symmetric tables)
    coeffs = np.zeros((m, m, m), dtype=complex)
    coeffs[i, j] = rows

    unit = span.coefficients(S.unit_table())[0]
    weight = float(np.abs(rows).sum(axis=1).max(initial=1.0))
    return AlgebraSpec(
        m,
        coeffs,
        unit,
        np.full(m, weight),
        f"{S.label or 'system'}[alg]",
    )


# ---------------------------------------------------------------------------
# Admissible quadruples


@dataclass(frozen=True)
class Quadruple:
    """(X, E, B, B~): a scalar system B and an E-valued system B~ on one space."""

    space: FiniteSpace
    scalars: AlgebraSpec
    scalar_system: FunctionSystem
    vector_system: FunctionSystem
    label: str = ""

    def __post_init__(self):
        if self.scalar_system.space is not self.space or self.vector_system.space is not self.space:
            raise ValueError("both systems must live on the quadruple's space")
        if self.scalar_system.scalars.dim != 1:
            raise ValueError("the scalar system must take values in C")
        if not same_algebra(self.vector_system.scalars, self.scalars):
            raise ValueError("the vector system must take values in the quadruple's algebra")


def scalar_quadruple(B: FunctionSystem) -> Quadruple:
    """(X, C, B, B): every scalar system yields a quadruple over C."""
    return Quadruple(B.space, B.scalars, B, B, label=f"({B.label},C)")


@single_threaded()
def check_admissible(Q: Quadruple) -> ValidationReport:
    """The six admissibility conditions, one named check per condition;
    (3) and (6) read the characters of C and of E (AlgebraSpec.characters),
    and (4) fails with B~'s closure residual when B~ is not closed."""
    report = ValidationReport(subject=Q.label or "quadruple")
    B, Bt, E = Q.scalar_system, Q.vector_system, Q.scalars

    report.add(
        "space_compact_hausdorff",
        True,
        detail="finite spaces are compact Hausdorff",
    )

    alg_report = E.validation
    report.add(
        "scalars_commutative_unital",
        alg_report.passed,
        max((c.residual for c in alg_report.failures()), default=0.0),
        "" if alg_report.passed else ", ".join(c.name for c in alg_report.failures()),
    )

    # (3) B natural: with E = C, its distinct point evaluations (pi rows).
    unclosed = False, 0.0, "scalar system is not closed; character check unavailable"
    report.add("scalar_system_natural", *(_naturality(B) if B.closed else unclosed))

    # (4) B~ is a function algebra: closed, unital and separating
    unit_ok = bool(Bt.span.contains(Bt.unit_table())[0])
    separates = separation_check(Bt)
    report.add(
        "vector_system_function_algebra",
        Bt.closed and unit_ok and separates,
        0.0 if Bt.closed else Bt.closure_residual,
        detail=(
            ("" if Bt.closed else "not closed under products; ")
            + ("" if unit_ok else "constant 1_E missing; ")
            + ("" if separates else "does not separate points; ")
            + "evaluation maps are linear and automatically continuous in finite dimension"
        ),
    )

    # (5) B * E inside the vector span
    ok5 = bool(Bt.span.contains(_times_units(B.basis[:, :, 0], E)).all())
    report.add("products_BE_in_vector_system", ok5, 0.0 if ok5 else 1.0)

    # (6) composing with characters of E lands in B
    composed = pi_matrix(Bt).reshape(-1, Q.space.size, Bt.dim)
    ok6 = bool(B.span.contains(composed.transpose(0, 2, 1)).all())  # rows: psi o b_m
    report.add("characters_compose_into_scalar_system", ok6)
    return report


def pi_matrix(S: FunctionSystem) -> np.ndarray:
    """The associated map on S's basis: row (psi, x), psi-major over
    psi in S.scalars.characters, holds psi(f_m(x)) for each basis function
    f_m, shape (|M(E)| |X|, m)."""
    return np.concatenate([(S.basis @ psi.values).T for psi in S.scalars.characters])


def _naturality(S: FunctionSystem) -> tuple[bool, float, str]:
    """(natural, residual, detail) of closed S: its characters are the k pi
    rows _first_distinct keeps, each exactly (residual 0), and S is natural
    iff k is the number n of all its pi rows.  Structure constants
    (as_algebra) that fail validation make S not natural, and the detail
    names each failed identity with its residual."""
    if failures := as_algebra(S).validation.failures():
        found = "; ".join(f"{c.name} at {c.detail}, residual {c.residual:.3g}" for c in failures)
        return False, max(c.residual for c in failures), f"structure constants fail {found}"
    P = pi_matrix(S)
    k = len(_first_distinct(P))
    return k == len(P), 0.0, f"{k} characters vs {len(P)} points"


@single_threaded()
def build_pi(Q: Quadruple) -> list[Character]:
    """The associated map: characters (psi o e_x), psi in E.characters, on
    the closed vector system.

    Output is indexed psi-major like pi_matrix, labelled "psi|point".  Every
    returned functional verifies as a character of the vector system's
    abstract algebra, as_algebra(Q.vector_system), which each one holds as
    its ``algebra``.
    """
    if not Q.vector_system.closed:
        raise ValueError("build_pi needs a closed vector system")
    vector_algebra = as_algebra(Q.vector_system)
    psis = Q.vector_system.scalars.characters
    labels = [f"{psi.label}|{point}" for psi in psis for point in Q.space.points]
    rows = pi_matrix(Q.vector_system)
    return [Character(row, vector_algebra, label=lab) for row, lab in zip(rows, labels)]


@single_threaded()
def check_pi_injective(Q: Quadruple) -> bool:
    """True iff _first_distinct keeps every pi row of the vector system, as
    _naturality counts them; ValueError unless the system is closed."""
    if not Q.vector_system.closed:
        raise ValueError("check_pi_injective needs a closed vector system")
    P = pi_matrix(Q.vector_system)
    return len(_first_distinct(P)) == len(P)


@single_threaded()
def check_natural(Q: Quadruple) -> bool:
    """pi is a bijection from M(E) x X onto M(B~): B~'s structure constants
    validate and its pi rows are distinct (_naturality)."""
    return _naturality(Q.vector_system)[0]
