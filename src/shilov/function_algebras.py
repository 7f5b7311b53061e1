"""Vector-valued function systems on finite spaces and admissible quadruples.

A FunctionSystem is a finite-dimensional span of E-valued functions on a
finite space X, stored as basis value tables (one Element of E per point).
On top of it sit the standard constructors (full C(X,E), Lipschitz-normed
variants, polynomial and rational spans on planar samples), product
closure, the quadruple admissibility conditions, and the associated map

    pi(psi, x) = psi o e_x

from characters-of-E x points into characters of the vector system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import AlgebraSpec, Element, complex_field, validate_algebra
from .characters import Character, characters, verify_character
from .reports import (
    ValidationReport,
    complex_array_to_pairs,
    pairs_to_complex_array,
)
from .spaces import FiniteSpace

INDEPENDENCE_TOL = 1e-10  # singular-value cutoff for basis rank
MEMBERSHIP_TOL = 1e-8  # relative residual for span membership
SEPARATION_TOL = 1e-9
PI_DISTINCT_TOL = 1e-6


@dataclass(frozen=True)
class FunctionSystem:
    """A span of E-valued functions on a finite space.

    basis has shape (m, |X|, dim E): basis[k][x] are the E-coordinates of the
    k-th function at point x.  ``closed`` asserts the span is multiplicatively
    closed and unital; constructors only set it when that is known.
    """

    space: FiniteSpace
    scalars: AlgebraSpec
    basis: np.ndarray
    norm_tag: str = "sup"
    alpha: float | None = None
    closed: bool = False
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

    def flat_basis(self) -> np.ndarray:
        """(m, |X| * dimE) matrix with one flattened value table per row."""
        return self.basis.reshape(self.dim, -1)

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
            "closed": self.closed,
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
            closed=bool(data.get("closed", False)),
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


def lipschitz_seminorm(S: FunctionSystem, f, alpha: float | None = None) -> float:
    """max over pairs x != y of ||f(x) - f(y)|| / d(x,y)^alpha."""
    alpha = S.alpha if alpha is None else alpha
    if alpha is None:
        raise ValueError("no alpha given and system has no lipschitz tag")
    d = S.space.distance_matrix()
    table = f if isinstance(f, np.ndarray) and f.ndim == 2 else S.table(f)
    n = S.space.size
    if n == 1:
        return 0.0
    diff = table[:, None, :] - table[None, :, :]
    num = np.abs(diff) @ S.scalars.weights  # ||f(x) - f(y)||
    iu = np.triu_indices(n, k=1)
    return float(np.max(num[iu] / d[iu] ** alpha))


def lipschitz_norm(S: FunctionSystem, f, alpha: float | None = None) -> float:
    return sup_norm(S, f) + lipschitz_seminorm(S, f, alpha)


def system_norm(S: FunctionSystem, f) -> float:
    """The norm named by the system's tag."""
    if S.norm_tag == "sup":
        return sup_norm(S, f)
    return lipschitz_norm(S, f)


def span_membership(S: FunctionSystem, table: np.ndarray):
    """Least-squares coefficients of a value table in the span, or None.

    Membership means the least-squares residual is below MEMBERSHIP_TOL
    relative to the table's size.
    """
    A = S.flat_basis().T
    v = np.asarray(table, dtype=complex).reshape(-1)
    coeffs, _, _, _ = np.linalg.lstsq(A, v, rcond=None)
    residual = np.linalg.norm(A @ coeffs - v)
    scale = max(float(np.linalg.norm(v)), 1.0)
    if residual <= MEMBERSHIP_TOL * scale:
        return coeffs
    return None


def separation_check(S: FunctionSystem) -> bool:
    """True iff for each pair x != y some basis function differs at x and y."""
    n = S.space.size
    for x, y in itertools.combinations(range(n), 2):
        diff = np.abs(S.basis[:, x, :] - S.basis[:, y, :]) @ S.scalars.weights
        if diff.max() <= SEPARATION_TOL:
            return False
    return True


def validate_system(S: FunctionSystem) -> ValidationReport:
    """Basis independence, unit membership, and (if flagged) product closure."""
    report = ValidationReport(subject=S.label or "function system")

    s = np.linalg.svd(S.flat_basis(), compute_uv=False)
    rank = int(np.sum(s > INDEPENDENCE_TOL * s[0]))
    report.add(
        "basis_independent",
        rank == S.dim,
        float(s[-1] / s[0]) if rank != S.dim else 0.0,
        "" if rank == S.dim else f"rank {rank} < {S.dim}",
    )

    report.add("contains_unit", span_membership(S, S.unit_table()) is not None)

    if S.closed:
        worst = 0.0
        ok = True
        for i in range(S.dim):
            for j in range(i, S.dim):
                prod = pointwise_product(S, S.basis[i], S.basis[j])
                if span_membership(S, prod) is None:
                    ok = False
                    worst = max(worst, 1.0)
        report.add("product_closed", ok, worst)

    if S.norm_tag == "lipschitz":
        report.add("metric_available", True)
    return report


# ---------------------------------------------------------------------------
# Span construction


class _SpanBuilder:
    """Incremental span with a deterministic accept-if-independent rule."""

    def __init__(self, width: int):
        self.width = width
        self.tables: list[np.ndarray] = []
        self._q: list[np.ndarray] = []  # orthonormal rows of the flat span

    def residual(self, table: np.ndarray) -> np.ndarray:
        v = table.reshape(-1).astype(complex)
        for q in self._q:
            v = v - q * np.vdot(q, v)
        return v

    def contains(self, table: np.ndarray) -> bool:
        v = table.reshape(-1)
        scale = max(float(np.linalg.norm(v)), 1.0)
        return float(np.linalg.norm(self.residual(table))) <= INDEPENDENCE_TOL * scale * 1e2

    def add(self, table: np.ndarray) -> bool:
        """Append the table if it enlarges the span; returns True if added."""
        v = self.residual(table)
        scale = max(float(np.linalg.norm(table.reshape(-1))), 1.0)
        r = float(np.linalg.norm(v))
        if r <= INDEPENDENCE_TOL * scale * 1e2:
            return False
        self.tables.append(np.array(table))
        self._q.append(v / r)
        return True


def close_under_products(S: FunctionSystem) -> FunctionSystem:
    """The smallest multiplicatively closed unital span containing S.

    The unit constant is installed first if missing; pairwise products are
    then appended in lexicographic pair order until the span is stable.
    Terminates because the dimension is capped by |X| * dim E.
    """
    builder = _SpanBuilder(S.space.size * S.scalars.dim)
    unit = S.unit_table()
    if span_membership(S, unit) is None:
        builder.add(unit)
    for t in S.basis:
        builder.add(t)

    while True:
        added = False
        snapshot = list(builder.tables)
        for i in range(len(snapshot)):
            for j in range(i, len(snapshot)):
                prod = pointwise_product(S, snapshot[i], snapshot[j])
                added |= builder.add(prod)
        if not added:
            break

    return replace(
        S,
        basis=np.array(builder.tables),
        closed=True,
        label=S.label and f"closure({S.label})",
    )


def make_CXE(X: FiniteSpace, E: AlgebraSpec, label: str = "") -> FunctionSystem:
    """The full algebra of all E-valued functions on X (dimension |X| dim E)."""
    n, d = X.size, E.dim
    basis = np.zeros((n * d, n, d), dtype=complex)
    for x in range(n):
        for j in range(d):
            basis[x * d + j, x, j] = 1.0
    return FunctionSystem(
        X, E, basis, norm_tag="sup", closed=True, label=label or f"C(X,{E.label})"
    )


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


def make_poly(X: FiniteSpace, E: AlgebraSpec, degree: int, label: str = "") -> FunctionSystem:
    """Span of z^k e_j for 0 <= k <= degree, deduplicated by rank.

    ``closed`` is set only in the trivially verified full-dimension case;
    run close_under_products to upgrade otherwise.
    """
    z = _coordinate_values(X)
    builder = _SpanBuilder(X.size * E.dim)
    powers = np.ones_like(z)
    for k in range(degree + 1):
        for j in range(E.dim):
            t = np.zeros((X.size, E.dim), dtype=complex)
            t[:, j] = powers
            builder.add(t)
        powers = powers * z
    basis = np.array(builder.tables)
    closed = basis.shape[0] == X.size * E.dim
    return FunctionSystem(
        X, E, basis, closed=closed, label=label or f"P_{degree}(X,{E.label})"
    )


def make_rational(
    X: FiniteSpace,
    E: AlgebraSpec,
    degree: int,
    poles: list[complex],
    label: str = "",
) -> FunctionSystem:
    """Polynomial span plus (z - c)^(-k) e_j, 1 <= k <= degree, per pole c."""
    z = _coordinate_values(X)
    for c in poles:
        if np.min(np.abs(z - complex(c))) < 1e-9:
            raise ValueError(f"pole {c} collides with a sample point")
    poly = make_poly(X, E, degree)
    builder = _SpanBuilder(X.size * E.dim)
    for t in poly.basis:
        builder.add(t)
    for c in poles:
        inv = 1.0 / (z - complex(c))
        powers = inv.copy()
        for _ in range(degree):
            for j in range(E.dim):
                t = np.zeros((X.size, E.dim), dtype=complex)
                t[:, j] = powers
                builder.add(t)
            powers = powers * inv
    basis = np.array(builder.tables)
    closed = basis.shape[0] == X.size * E.dim
    return FunctionSystem(
        X, E, basis, closed=closed, label=label or f"R_{degree}(X,{E.label})"
    )


def span_BE(B: FunctionSystem, E: AlgebraSpec, label: str = "") -> FunctionSystem:
    """The span of {b * e : b in B.basis, e in E basis} as E-valued tables."""
    if B.scalars.dim != 1:
        raise ValueError("span_BE expects a scalar function system")
    builder = _SpanBuilder(B.space.size * E.dim)
    for b in B.basis:
        for j in range(E.dim):
            t = np.zeros((B.space.size, E.dim), dtype=complex)
            t[:, j] = b[:, 0]
            builder.add(t)
    return FunctionSystem(
        B.space,
        E,
        np.array(builder.tables),
        closed=B.closed,
        label=label or f"span({B.label or 'B'}*{E.label})",
    )


def embedding_constant(S: FunctionSystem, samples: int = 10_000, seed: int = 0) -> float:
    """Lower bound for sup ||f||_X / ||f||_S over the span.

    Sup-normed systems have ratio exactly 1.  For Lipschitz norms the bound
    is the maximum over basis directions plus ``samples`` random coefficient
    vectors.
    """
    if S.norm_tag == "sup":
        return 1.0
    rng = np.random.default_rng(seed)
    best = 0.0
    directions = [np.eye(S.dim, dtype=complex)[k] for k in range(S.dim)]
    draws = rng.standard_normal((samples, S.dim)) + 1j * rng.standard_normal((samples, S.dim))

    d = S.space.distance_matrix()
    iu = np.triu_indices(S.space.size, k=1)
    gaps = d[iu] ** S.alpha if S.space.size > 1 else None
    w = S.scalars.weights
    for c in itertools.chain(directions, draws):
        table = S.table(c)
        pointwise = np.abs(table) @ w
        sup = float(pointwise.max())
        if sup == 0.0:
            continue
        if gaps is None:
            semi = 0.0
        else:
            diff = np.abs(table[iu[0]] - table[iu[1]]) @ w
            semi = float(np.max(diff / gaps))
        best = max(best, sup / (sup + semi))
    return best


# ---------------------------------------------------------------------------
# Closed systems as abstract algebras


def as_algebra(S: FunctionSystem, label: str = "") -> AlgebraSpec:
    """Structure constants of a closed system in its own basis.

    Products of basis tables are expressed in the basis by least squares; the
    uniform weight is scaled so the submultiplicativity certificate holds.
    """
    if not S.closed:
        raise ValueError("as_algebra needs a multiplicatively closed system")
    m = S.dim
    flat = S.flat_basis()
    pinv = np.linalg.pinv(flat.T)  # coeffs = pinv @ flattened table

    products = np.einsum("ixp,jxq,pqk->ijxk", S.basis, S.basis, S.scalars.structure)
    prod_flat = products.reshape(m, m, -1)
    coeffs = np.einsum("kd,ijd->ijk", pinv, prod_flat)

    recon = np.einsum("ijk,kd->ijd", coeffs, flat)
    scale = max(float(np.abs(prod_flat).max()), 1.0)
    err = float(np.abs(recon - prod_flat).max())
    if err > MEMBERSHIP_TOL * scale:
        raise ValueError(
            f"system {S.label!r} is not closed: product residual {err:.3g}"
        )
    # exact symmetry (products are symmetric tables, lstsq is deterministic)
    coeffs = 0.5 * (coeffs + coeffs.transpose(1, 0, 2))

    unit = pinv @ S.unit_table().reshape(-1)
    weight = max(1.0, float(np.abs(coeffs).sum(axis=2).max()))
    return AlgebraSpec(
        m,
        coeffs,
        unit,
        np.full(m, weight),
        label or f"{S.label or 'system'}[alg]",
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
        if self.vector_system.scalars is not self.scalars:
            raise ValueError("the vector system must take values in the quadruple's algebra")


def scalar_quadruple(B: FunctionSystem, label: str = "") -> Quadruple:
    """(X, C, B, B): every scalar system yields a quadruple over C."""
    return Quadruple(B.space, B.scalars, B, B, label=label or f"({B.label},C)")


def check_admissible(Q: Quadruple, chars_E: list[Character] | None = None) -> ValidationReport:
    """The six admissibility conditions, one named check per condition."""
    report = ValidationReport(subject=Q.label or "quadruple")
    B, Bt, E = Q.scalar_system, Q.vector_system, Q.scalars

    report.add(
        "space_compact_hausdorff",
        True,
        detail="finite spaces are compact Hausdorff",
    )

    alg_report = validate_algebra(E)
    report.add(
        "scalars_commutative_unital",
        alg_report.passed,
        max((c.residual for c in alg_report.failures()), default=0.0),
        "" if alg_report.passed else ", ".join(c.name for c in alg_report.failures()),
    )

    # (3) B natural: characters of the closed scalar system are exactly the
    # point evaluations.
    if not B.closed:
        report.add(
            "scalar_system_natural",
            False,
            detail="scalar system is not closed; character check unavailable",
        )
    else:
        B_alg = as_algebra(B)
        chars_B = characters(B_alg)
        matched: list[int] = []
        worst = 0.0
        evals = B.basis[:, :, 0]  # evals[m, x] = b_m(x)
        for chi in chars_B:
            dist = np.max(np.abs(evals - chi.values[:, None]), axis=0)
            x = int(np.argmin(dist))
            worst = max(worst, float(dist[x]))
            matched.append(x)
        natural = (
            len(chars_B) == Q.space.size
            and worst <= PI_DISTINCT_TOL
            and sorted(matched) == list(range(Q.space.size))
        )
        report.add(
            "scalar_system_natural",
            natural,
            worst,
            f"{len(chars_B)} characters vs {Q.space.size} points",
        )

    unit_ok = span_membership(Bt, Bt.unit_table()) is not None
    separates = separation_check(Bt)
    report.add(
        "vector_system_function_algebra",
        unit_ok and separates,
        detail=(
            ("" if unit_ok else "constant 1_E missing; ")
            + ("" if separates else "does not separate points; ")
            + "evaluation maps are linear and automatically continuous in finite dimension"
        ),
    )

    # (5) B * E inside the vector span
    worst5 = 0.0
    ok5 = True
    for b in B.basis:
        for j in range(E.dim):
            t = np.zeros((Q.space.size, E.dim), dtype=complex)
            t[:, j] = b[:, 0]
            if span_membership(Bt, t) is None:
                ok5 = False
                worst5 = 1.0
    report.add("products_BE_in_vector_system", ok5, worst5)

    # (6) composing with characters of E lands in B
    psis = chars_E if chars_E is not None else characters(E)
    ok6 = True
    for psi in psis:
        for f in Bt.basis:
            scalar_table = (f @ psi.values)[:, None]
            if span_membership(B, scalar_table) is None:
                ok6 = False
    report.add("characters_compose_into_scalar_system", ok6)
    return report


def build_pi(
    Q: Quadruple,
    chars_E: list[Character] | None = None,
    vector_algebra: AlgebraSpec | None = None,
) -> list[Character]:
    """The associated map: characters (psi o e_x) on the closed vector system.

    Output is indexed psi-major: for each psi in characters(E) in order, each
    point of X in order.  Every returned functional verifies as a character
    of the vector system's abstract algebra.
    """
    if not Q.vector_system.closed:
        raise ValueError("build_pi needs a closed vector system")
    if vector_algebra is None:
        vector_algebra = as_algebra(Q.vector_system)
    psis = chars_E if chars_E is not None else characters(Q.scalars)
    out: list[Character] = []
    for psi in psis:
        values_all = Q.vector_system.basis @ psi.values  # (m, |X|)
        for x, point in enumerate(Q.space.points):
            out.append(
                Character(values_all[:, x], vector_algebra, label=f"{psi.label}|{point}")
            )
    return out


def check_pi_injective(Q: Quadruple, pi: list[Character] | None = None) -> bool:
    """True iff the pi images are pairwise distinct in sup norm."""
    if pi is None:
        pi = build_pi(Q)
    values = np.array([chi.values for chi in pi])
    for i, j in itertools.combinations(range(len(pi)), 2):
        if np.max(np.abs(values[i] - values[j])) <= PI_DISTINCT_TOL:
            return False
    return True


def check_natural(Q: Quadruple, chars_E: list[Character] | None = None) -> bool:
    """pi is injective and its image is all of M(B~) (matched as sets)."""
    vector_algebra = as_algebra(Q.vector_system)
    pi = build_pi(Q, chars_E, vector_algebra)
    if not check_pi_injective(Q, pi):
        return False
    abstract = characters(vector_algebra)
    if len(abstract) != len(pi):
        return False
    pi_values = np.array([chi.values for chi in pi])
    for chi in abstract:
        dist = np.max(np.abs(pi_values - chi.values[None, :]), axis=1)
        if dist.min() > PI_DISTINCT_TOL:
            return False
    return True
