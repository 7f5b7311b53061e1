"""Finite-dimensional commutative unital algebras given by structure constants.

An algebra is presented by a rank-3 tensor c with

    e_i * e_j = sum_k c[i, j, k] e_k,

a unit vector in coordinates, and positive per-basis weights defining the
norm ||sum a_i e_i|| = sum w_i |a_i|.  Submultiplicativity of that norm
reduces to the finite certificate ||e_i e_j|| <= w_i w_j, which
``validate_algebra`` checks together with commutativity, associativity and
the unit law.

The support of c shows when an algebra is a direct product: basis indices
joined by a nonzero c[i, j, k] share a block, and the algebra is the
product of its blocks.  C(X, E) in its indicator basis is |X| copies of E
(or finer).  ``validate_algebra`` and ``characters`` work once per
bitwise-distinct block, so C(X, E) costs one E-sized check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blas import single_threaded
from .reports import (
    ValidationReport,
    complex_array_to_pairs,
    pairs_to_complex_array,
)

# Structural identities (commutativity, associativity, unit law) must hold to
# this tolerance; derived equalities get the looser bounds below.
STRUCTURE_TOL = 1e-10
INVERT_TOL = 1e-9
RANK_TOL = 1e-10  # singular values below RANK_TOL * sigma_max count as zero


def numerical_rank(s: np.ndarray) -> int:
    """Singular values (descending) above RANK_TOL * s[0]: a scale-free cut,
    unlike the max(||v||, 1) floor of the span rule (function_algebras.Span)."""
    return int(np.sum(s > RANK_TOL * s[0])) if s.size else 0


class AlgebraError(ValueError):
    pass


class NotInvertibleError(AlgebraError):
    """Raised when an element has no inverse (singular multiplication map)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AlgebraSpec:
    """A commutative unital algebra over C with a weighted l1 coordinate norm.

    Fields
    ------
    dim : number of basis elements
    structure : complex (dim, dim, dim) tensor, e_i e_j = sum_k c[i,j,k] e_k
    unit : coordinates of the multiplicative identity
    weights : positive reals; ||a|| = sum_i weights[i] |a_i|
    label : display name
    """

    dim: int
    structure: np.ndarray
    unit: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = int(self.dim)
        structure = _freeze(np.asarray(self.structure, dtype=complex).reshape(n, n, n))
        unit = _freeze(np.asarray(self.unit, dtype=complex).reshape(n))
        weights = _freeze(np.asarray(self.weights, dtype=float).reshape(n))
        if n < 1:
            raise AlgebraError("dim must be >= 1")
        if np.any(weights <= 0):
            raise AlgebraError("norm weights must be positive")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def validation(self) -> ValidationReport:
        """validate_algebra's report, computed once per algebra."""
        return validate_algebra(self)

    @cached_property
    def characters(self) -> tuple:
        """M(E) as a tuple of Characters: characters(self), computed once.

        Every Gelfand transform, witness family and associated map reads
        this one tuple.  Structure-equal algebras (same_algebra) give
        bit-equal tuples: the search reads only the structure constants,
        while unit and weights only gate which candidates pass.
        """
        from .characters import characters

        return tuple(characters(self))

    @cached_property
    def distinct_blocks(self) -> tuple:
        """_distinct_blocks(self), computed once: validate_algebra and
        characters both read this one split."""
        return tuple(_distinct_blocks(self))

    def element(self, coords) -> "Element":
        return Element(np.asarray(coords, dtype=complex), self)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(coords, self)

    def zero(self) -> "Element":
        return Element(np.zeros(self.dim, dtype=complex), self)

    def one(self) -> "Element":
        return Element(self.unit.copy(), self)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "structure": complex_array_to_pairs(self.structure),
            "unit": complex_array_to_pairs(self.unit),
            "weights": [float(w) for w in self.weights],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AlgebraSpec":
        return cls(
            dim=int(data["dim"]),
            structure=pairs_to_complex_array(data["structure"]),
            unit=pairs_to_complex_array(data["unit"]),
            weights=np.asarray(data["weights"], dtype=float),
            label=str(data.get("label", "")),
        )


@dataclass(frozen=True)
class Element:
    """An algebra element in basis coordinates."""

    coords: np.ndarray
    algebra: AlgebraSpec = field(repr=False)

    def __post_init__(self):
        coords = _freeze(np.asarray(self.coords, dtype=complex).reshape(-1))
        if coords.shape != (self.algebra.dim,):
            raise AlgebraError(
                f"coords length {coords.shape[0]} != algebra dim {self.algebra.dim}"
            )
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.coords + other.coords, self.algebra)

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.coords - other.coords, self.algebra)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self.algebra, self, other)
        return Element(self.coords * complex(other), self.algebra)

    def __rmul__(self, scalar) -> "Element":
        return Element(self.coords * complex(scalar), self.algebra)

    def __neg__(self) -> "Element":
        return Element(-self.coords, self.algebra)

    def __repr__(self) -> str:
        vals = ", ".join(f"{z:.4g}" for z in self.coords)
        return f"Element([{vals}], {self.algebra.label or 'algebra'})"


def same_algebra(A: AlgebraSpec, B: AlgebraSpec) -> bool:
    """Same dimension and structure constants (labels, weights may differ)."""
    return A is B or (A.dim == B.dim and np.array_equal(A.structure, B.structure))


def _same_algebra(a: Element, b: Element) -> None:
    if not same_algebra(a.algebra, b.algebra):
        raise AlgebraError("elements belong to different algebras")


def multiply(E: AlgebraSpec, a: Element, b: Element) -> Element:
    """Product a*b via the structure tensor: (ab)_k = sum_ij a_i b_j c[i,j,k]."""
    _same_algebra(a, b)
    if a.coords.shape != (E.dim,):
        raise AlgebraError("element does not belong to this algebra")
    coords = np.einsum("i,j,ijk->k", a.coords, b.coords, E.structure)
    return Element(coords, E)


def norm(E: AlgebraSpec, a: Element) -> float:
    """Weighted l1 norm: sum_i w_i |a_i|.  Zero iff a = 0."""
    return float(np.dot(E.weights, np.abs(a.coords)))


def left_multiplication_matrix(E: AlgebraSpec, a: Element) -> np.ndarray:
    """Matrix of x -> a*x in basis coordinates: L[k, i] = sum_j a_j c[j,i,k]."""
    return np.einsum("j,jik->ki", a.coords, E.structure)


def basis_multiplication_matrices(E: AlgebraSpec) -> list[np.ndarray]:
    """L_{e_i} for each basis element; these commute when E is valid."""
    return [E.structure[i].T.copy() for i in range(E.dim)]


def components(count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0, ..., count - 1
    with the edges (u[e], v[e]): each node labelled by the smallest node of
    its component.

    The labels form a forest in which every node points at a smaller one or
    at itself (a root).  Each round hooks the larger root of every edge whose
    ends lie in different trees onto the smaller one (the smallest, when
    several edges offer one), then jumps pointers (labels[labels]) until
    every node points at its root; it stops when no edge joins two trees.
    A path numbered in order takes one round, and a randomly numbered
    4,000-node path eight.
    """
    labels = np.arange(count)
    while True:
        lu, lv = labels[u], labels[v]
        apart = lu != lv
        if not apart.any():
            return labels
        lu, lv = lu[apart], lv[apart]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def support_components(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the bipartite graph that joins row r to
    column j when support[r, j] (components over the rows, then the
    columns, as nodes): one label per row and one per column, each
    component labelled by its first row.  A row without support is a
    component alone; a column without support is labelled n, the row
    count."""
    n, k = support.shape
    r, j = np.nonzero(support)
    labels = components(n + k, r, n + j)  # a row is smaller than every column
    return labels[:n], np.minimum(labels[n:], n)


def _distinct_blocks(E: AlgebraSpec) -> list[tuple[AlgebraSpec, list[np.ndarray]]]:
    """E as a direct product: its blocks, one algebra per bitwise-distinct
    (structure, unit, weights), each with the basis indices of its copies.

    Basis indices i, j and k share a block when c[i, j, k] != 0, so the
    blocks are the components of that index graph (support_components),
    in order of their first index.  Off the blocks every product vanishes,
    so E is the product of its blocks.  A dense algebra is one block.
    """
    support = E.structure != 0
    joined = support.any(axis=2) | support.any(axis=1) | support.any(axis=0)
    labels, _ = support_components(joined | np.eye(E.dim, dtype=bool))
    distinct: dict[tuple, tuple[AlgebraSpec, list[np.ndarray]]] = {}
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        parts = (E.structure[np.ix_(idx, idx, idx)], E.unit[idx], E.weights[idx])
        key = (idx.size, *(part.tobytes() for part in parts))
        if key not in distinct:
            distinct[key] = (AlgebraSpec(idx.size, *parts, E.label), [])
        distinct[key][1].append(idx)
    return list(distinct.values())


def _block_residuals(E: AlgebraSpec) -> list[tuple]:
    """validate_algebra's four checks on one block, as (name, worst residual,
    the basis indices of its first worst entry in scan order, a function of
    those indices giving the detail).  A NaN residual counts as the worst;
    the norm check's residual is its excess over the bound, floored at 0."""
    c = E.structure
    found = []

    comm = np.abs(c - c.transpose(1, 0, 2))
    worst = np.unravel_index(np.argmax(comm), comm.shape)
    found.append(("commutativity", float(comm.max()), worst, lambda i, j, k: f"e_{i}*e_{j}"))

    # (e_i e_j) e_k vs e_i (e_j e_k), one first index i at a time: both sides
    # are (n, n, n) gemm products, so peak memory stays O(n^3).  Only a strictly
    # larger residual replaces the running max, which keeps the first worst
    # entry in (i, j, k, l) order; a NaN replaces it and ends the scan.
    n = E.dim
    assoc_max, worst = -1.0, (0, 0, 0, 0)
    for i in range(n):
        left = (c[i] @ c.reshape(n, n * n)).reshape(n, n, n)
        right = (c.reshape(n * n, n) @ c[i]).reshape(n, n, n)
        assoc = np.abs(left - right)
        flat = int(np.argmax(assoc))
        if not assoc.flat[flat] <= assoc_max:
            assoc_max = float(assoc.flat[flat])
            worst = (i, *np.unravel_index(flat, assoc.shape))
            if np.isnan(assoc_max):
                break
    found.append(("associativity", assoc_max, worst, lambda i, j, k, l: f"(e_{i} e_{j}) e_{k}"))

    unit_action = np.einsum("j,jik->ik", E.unit, c)  # row i: unit * e_i
    unit_res = np.abs(unit_action - np.eye(n))
    worst_i = int(np.argmax(unit_res.max(axis=1)))
    found.append(("unit_law", float(unit_res.max()), (worst_i,), lambda i: f"unit*e_{i} != e_{i}"))

    # ||e_i e_j|| <= w_i w_j certifies submultiplicativity of the weighted norm
    prod_norms = np.einsum("k,ijk->ij", E.weights, np.abs(c))
    bound = np.outer(E.weights, E.weights)
    excess = prod_norms - bound
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    prod, limit = prod_norms[worst], bound[worst]
    found.append((
        "submultiplicativity", float(max(excess.max(), 0.0)), worst,
        lambda i, j: f"||e_{i} e_{j}|| = {prod:.6g} > {limit:.6g}",
    ))
    return found


@single_threaded()
def validate_algebra(E: AlgebraSpec) -> ValidationReport:
    """Check commutativity, associativity, the unit law, and the norm certificate.

    Failures are reported with the offending basis indices and residual
    magnitude; they are data, not exceptions.

    E is checked as the product of its blocks (E.distinct_blocks), once per
    bitwise-distinct block.  Every entry between two blocks is an exact
    zero on both sides of each identity (a sum of products with a zero
    factor), and a block's unit law needs only its own unit coordinates; so
    all n^4 associativity entries (n = dim) are covered.  Each residual is
    the max over the blocks, and the detail names global basis indices,
    first in (i, j, k, l) scan order among equal residuals.  Associativity
    costs O(sum n_b^5) time over the distinct blocks' dimensions n_b, as
    n_b matrix products (BLAS gemm) each, and O(max n_b^3) peak memory.
    """
    report = ValidationReport(subject=E.label or "algebra")
    copies_found: dict[str, list] = {}
    for block, copies in E.distinct_blocks:
        for name, residual, worst, detail in _block_residuals(block):
            copies_found.setdefault(name, []).extend(
                (residual, tuple(int(idx[w]) for w in worst), detail) for idx in copies
            )
    for name, found in copies_found.items():
        residual, worst, detail = min(
            found, key=lambda f: (0, f[1]) if np.isnan(f[0]) else (1, -f[0], f[1])
        )
        failed = residual > STRUCTURE_TOL  # False for NaN, which fails the check too
        report.add(name, residual <= STRUCTURE_TOL, residual, detail(*worst) if failed else "")
    return report


def invert(E: AlgebraSpec, a: Element) -> Element:
    """Solve (a * x) = unit.

    Raises NotInvertibleError when the multiplication-by-a matrix is rank
    deficient (numerical_rank below dim).
    """
    L = left_multiplication_matrix(E, a)
    u_mat, s, vh = np.linalg.svd(L)
    if numerical_rank(s) < E.dim:
        raise NotInvertibleError(f"element is not invertible in {E.label or 'algebra'}")
    x = vh.conj().T @ ((u_mat.conj().T @ E.unit) / s)
    result = Element(x, E)
    residual = norm(E, multiply(E, a, result) - E.one())
    if residual > INVERT_TOL:
        raise NotInvertibleError(
            f"inverse residual {residual:.3g} exceeds {INVERT_TOL:.0e}"
        )
    return result


def is_invertible(E: AlgebraSpec, a: Element) -> bool:
    try:
        invert(E, a)
        return True
    except NotInvertibleError:
        return False


# ---------------------------------------------------------------------------
# Preset algebras


def pointwise_algebra(n: int, label: str | None = None) -> AlgebraSpec:
    """C^n with coordinatewise product: orthogonal idempotent basis."""
    if n < 1:
        raise AlgebraError("pointwise algebra needs n >= 1")
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    return AlgebraSpec(n, c, np.ones(n), np.ones(n), label or f"pointwise_{n}")


def dual_numbers() -> AlgebraSpec:
    """C[eps]/(eps^2): basis (1, eps), nilpotent eps."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    return AlgebraSpec(2, c, [1.0, 0.0], [1.0, 1.0], "dual_numbers")


def truncated_polynomials(k: int) -> AlgebraSpec:
    """C[t]/(t^k): basis 1, t, ..., t^(k-1)."""
    if k < 2:
        raise AlgebraError("truncated polynomial algebra needs k >= 2")
    c = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if i + j < k:
                c[i, j, i + j] = 1.0
    unit = np.zeros(k)
    unit[0] = 1.0
    return AlgebraSpec(k, c, unit, np.ones(k), f"truncated_poly_{k}")


def cyclic_group_algebra(n: int) -> AlgebraSpec:
    """Group algebra of Z_n: basis g^0, ..., g^(n-1), e_i e_j = e_{(i+j) mod n}."""
    if n < 1:
        raise AlgebraError("cyclic group algebra needs n >= 1")
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i, j, (i + j) % n] = 1.0
    unit = np.zeros(n)
    unit[0] = 1.0
    return AlgebraSpec(n, c, unit, np.ones(n), f"cyclic_group_{n}")


def complex_field() -> AlgebraSpec:
    """C itself (the scalar case)."""
    spec = pointwise_algebra(1, label="C")
    return spec


# each builder is looked up when called, so a test can stand in for it
_PRESET_PATTERNS = [
    (re.compile(r"^pointwise_(\d+)$"), lambda n: pointwise_algebra(n)),
    (re.compile(r"^dual_numbers$"), lambda: dual_numbers()),
    (re.compile(r"^truncated_poly_(\d+)$"), lambda k: truncated_polynomials(k)),
    (re.compile(r"^cyclic_group_(\d+)$"), lambda n: cyclic_group_algebra(n)),
    (re.compile(r"^complex$|^C$"), lambda: complex_field()),
]
# A named preset's dimension is at most this, so its dense n^3 structure
# tensor holds at most 2**24 entries (256 MiB), the command line's budget.
MAX_PRESET_DIM = 2**8


def parse_preset(name: str):
    """The builder of a preset name and its integer arguments, without
    building anything; AlgebraError for an unknown name or a dimension
    above MAX_PRESET_DIM."""
    for pattern, builder in _PRESET_PATTERNS:
        match = pattern.match(name)
        if match:
            sizes = [int(group) for group in match.groups()]
            if any(size > MAX_PRESET_DIM for size in sizes):
                raise AlgebraError(
                    f"preset algebra {name!r} exceeds the dimension cap of {MAX_PRESET_DIM}"
                )
            return builder, sizes
    raise AlgebraError(f"unknown preset algebra {name!r}")


def preset_algebra(name: str) -> AlgebraSpec:
    """Look up a preset by name: pointwise_<n>, dual_numbers, truncated_poly_<k>,
    cyclic_group_<n>, or complex (parse_preset)."""
    builder, sizes = parse_preset(name)
    return builder(*sizes)
