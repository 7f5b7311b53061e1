"""Character spaces, Gelfand transforms, radicals and semisimple quotients.

Characters of a finite-dimensional commutative unital algebra are found by
simultaneously triangularizing the commuting multiplication matrices
L_{e_1}, ..., L_{e_n} with one unitary Schur similarity computed from a
random generic linear combination.  The diagonal of the triangularized
family enumerates the joint eigenvalue tuples (with multiplicity); tuples
that verify the character identities are kept, the rest are discarded.
The search runs once per bitwise-distinct direct-product block of the
algebra (Hausner: M(E1 x E2) is M(E1) and M(E2) side by side), so the
characters of C(X, E), X x M(E), cost one search on E's blocks.

Each algebra runs that search once: ``E.characters`` (AlgebraSpec) caches
``characters(E)`` at the default seed, and the Gelfand transform, the
radical, the quotient and every witness family read that one tuple.
``characters(E, seed)`` with another seed stays available as a property
check of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraSpec,
    Element,
    basis_multiplication_matrices,
    multiply,
    norm,
    numerical_rank,
    pointwise_algebra,
)
from .blas import single_threaded
from .reports import ValidationReport, complex_array_to_pairs

CHARACTER_TOL = 1e-8  # multiplicativity / unitality residual bound
DISTINCT_TOL = 1e-6  # sup-norm distance below which two characters are the same
TRIANGULARIZATION_ATTEMPTS = 5


class GenericityFailure(RuntimeError):
    """The random combination kept producing non-separating triangularizations."""


@dataclass(frozen=True)
class Character:
    """A multiplicative unital linear functional, stored by its basis values."""

    values: np.ndarray
    algebra: AlgebraSpec = field(repr=False)
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if values.shape != (self.algebra.dim,):
            raise ValueError("character values length must equal algebra dim")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, a) -> complex:
        coords = a.coords if isinstance(a, Element) else np.asarray(a, dtype=complex)
        return complex(np.dot(self.values, coords))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "algebra": self.algebra.label,
            "values": complex_array_to_pairs(self.values),
        }


def verify_character(E: AlgebraSpec, chi: Character) -> ValidationReport:
    """Check multiplicativity, unitality, and the norm bound |chi(e_i)| <= w_i.

    For the weighted l1 norm the bound on basis elements is exactly the
    statement ||chi|| <= 1, so no sampling is needed here; random-element
    norm bounds are exercised by the property tests.
    """
    report = ValidationReport(subject=f"character {chi.label or ''} on {E.label}")
    v = chi.values

    prod = np.einsum("ijk,k->ij", E.structure, v)  # chi(e_i e_j)
    res = np.abs(np.outer(v, v) - prod)
    worst = np.unravel_index(np.argmax(res), res.shape)
    report.add(
        "multiplicative",
        bool(res.max() <= CHARACTER_TOL),
        float(res.max()),
        f"chi(e_{worst[0]})chi(e_{worst[1]}) != chi(e_{worst[0]}e_{worst[1]})"
        if res.max() > CHARACTER_TOL
        else "",
    )

    unit_res = abs(np.dot(v, E.unit) - 1.0)
    report.add("unital", bool(unit_res <= CHARACTER_TOL), float(unit_res))

    excess = np.abs(v) - E.weights
    worst_i = int(np.argmax(excess))
    report.add(
        "norm_bound",
        bool(excess.max() <= CHARACTER_TOL),
        float(max(excess.max(), 0.0)),
        f"|chi(e_{worst_i})| > w_{worst_i}" if excess.max() > CHARACTER_TOL else "",
    )
    return report


def _semisimple_split(E: AlgebraSpec):
    """Orthonormal basis of the radical complement via the trace form.

    tr(L_a) is the multiplicity-weighted sum of character values, so the Gram
    matrix G[i,j] = tr(L_i L_j) has kernel exactly the common character
    kernel, i.e. the radical.  Quotienting first keeps the subsequent joint
    triangularization away from multiple eigenvalues, whose diagonal
    read-offs are only accurate to eps^(1/r) above a rank-r nilpotent block.
    """
    mats = np.stack(basis_multiplication_matrices(E))
    gram = np.einsum("iab,jba->ij", mats, mats)
    _, s, vh = np.linalg.svd(gram)
    rank = numerical_rank(s)
    if rank == 0:
        return None  # no character can survive: not a unital algebra
    return vh[:rank].conj().T  # (dim, rank), orthonormal columns


def _quotient_spec(E: AlgebraSpec, W: np.ndarray) -> AlgebraSpec:
    """The semisimple quotient realized on the radical complement W."""
    products = np.einsum("ai,bj,abm->ijm", W, W, E.structure)
    structure = np.einsum("ijm,mk->ijk", products, W.conj())
    unit = W.conj().T @ E.unit
    weight = max(1.0, float(np.abs(structure).sum(axis=2).max()))
    return AlgebraSpec(
        W.shape[1], structure, unit, np.full(W.shape[1], weight), f"{E.label}/J"
    )


def _candidate_tuples(E: AlgebraSpec, rng: np.random.Generator) -> np.ndarray | None:
    """One triangularization attempt; returns the n diagonal tuples or None."""
    mats = basis_multiplication_matrices(E)
    t = rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim)
    T = sum(ti * Li for ti, Li in zip(t, mats))
    _, Q = scipy.linalg.schur(T, output="complex")
    rotated = [Q.conj().T @ Li @ Q for Li in mats]
    scale = max(max(np.abs(M).max() for M in rotated), 1.0)
    # The flag only separates joint eigenvalues if every L_i is triangular in it.
    lower = max(np.abs(np.tril(M, -1)).max() for M in rotated)
    if lower > 1e-7 * scale:
        return None
    return np.column_stack([np.diagonal(M) for M in rotated])


def _block_characters(E: AlgebraSpec, seed: int) -> np.ndarray:
    """The accepted character values of one block, one row each, in the
    order of the triangularization's diagonal."""
    W = _semisimple_split(E)
    if W is None:
        raise GenericityFailure(f"trace form of {E.label!r} is identically zero")
    if W.shape[1] == E.dim:
        reduced, pullback = E, None
    else:
        reduced, pullback = _quotient_spec(E, W), np.conj(W)

    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    for _ in range(TRIANGULARIZATION_ATTEMPTS):
        tuples = _candidate_tuples(reduced, rng)
        if tuples is None:
            continue
        for row in tuples:
            values = row if pullback is None else pullback @ row
            if verify_character(E, Character(values, E)).passed:
                accepted.append(values)
        if accepted:
            return np.array(accepted)
    raise GenericityFailure(
        f"no separating triangularization for {E.label!r} after "
        f"{TRIANGULARIZATION_ATTEMPTS} attempts"
    )


def close_rows(P: np.ndarray, tol: float = DISTINCT_TOL):
    """Yield arrays (a, b, dist) of pairs of rows of P with their sup-norm
    distances, one offset at a time; every pair at distance <= tol is among
    them, once.  Rows that close have projections on a unit-modulus u
    within m tol (m columns), so only rows that near in the sorted
    projections are compared, in O(n m) memory.  The projection, the one
    BLAS call, runs on one BLAS thread (a generator holds no pin across
    its yields)."""
    m = P.shape[1]
    with single_threaded():
        proj = (P @ np.exp(1j * np.arange(m))).real
    # widened by a bound on the roundoff of two computed projections
    window = m * (tol + 4.0 * np.finfo(float).eps * np.abs(P).sum(axis=1).max())
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    for offset in range(1, len(P)):
        near = np.flatnonzero(proj[offset:] - proj[:-offset] <= window)
        if not near.size:
            return
        a, b = order[near], order[near + offset]
        yield a, b, np.abs(P[a] - P[b]).max(axis=1)


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """The rows kept in order: each unless it lies within DISTINCT_TOL (sup
    norm) of an earlier kept row."""
    pairs = sorted(
        (max(a, b), min(a, b))
        for a_s, b_s, dist in close_rows(rows)
        for a, b in zip(a_s[dist < DISTINCT_TOL], b_s[dist < DISTINCT_TOL])
    )
    keep = np.ones(len(rows), dtype=bool)
    for later, earlier in pairs:  # every earlier row's verdict is final here
        if keep[earlier]:
            keep[later] = False
    return rows[keep]


def _lexicographic_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting the rows by their (re, im) values rounded to 9
    decimals, ties broken by the raw values (a stable sort).  The rounding
    keeps the order seed-independent under triangularization noise."""
    raw = np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1)
    keys = np.concatenate([np.round(raw, 9), raw], axis=1)
    return np.lexsort(keys.T[::-1])  # lexsort's primary key is its last


@single_threaded()
def characters(E: AlgebraSpec, seed: int = 0) -> list[Character]:
    """All characters of E, deduplicated and lexicographically ordered.

    E is searched as the product of its blocks (E.distinct_blocks),
    once per bitwise-distinct block, each with a fresh default_rng(seed):
    M(E1 x E2) is M(E1) and M(E2) side by side, each character extended by
    zero.  In a block the radical is split off first (trace form),
    candidate tuples are read off a joint unitary triangularization of the
    quotient's multiplication matrices and pulled back, and exactly those
    passing the character invariants are kept.  Deduplication, order and
    the chi<k> labels then run over all of E's characters.  Raises
    ValueError if E fails validation, and GenericityFailure if no reseeded
    random combination yields a separating triangularization of a block
    within TRIANGULARIZATION_ATTEMPTS attempts.
    """
    if not E.validation.passed:
        bad = ", ".join(c.name for c in E.validation.failures())
        raise ValueError(f"algebra {E.label!r} fails validation: {bad}")

    found = []
    for block, copies in E.distinct_blocks:
        values = _block_characters(block, seed)
        for idx in copies:
            extended = np.zeros((len(values), E.dim), dtype=complex)
            extended[:, idx] = values
            found.append(extended)
    unique = _first_distinct(np.concatenate(found))
    unique = unique[_lexicographic_order(unique)]
    return [
        Character(row, E, label=f"chi{k}") for k, row in enumerate(unique)
    ]


def character_matrix(E: AlgebraSpec) -> np.ndarray:
    """Rows chi(e_1), ..., chi(e_n), one row per character of E.characters."""
    return np.array([chi.values for chi in E.characters], dtype=complex)


def gelfand_transform(E: AlgebraSpec, a: Element) -> np.ndarray:
    """The vector (chi(a)) indexed by E.characters."""
    return character_matrix(E) @ a.coords


def gelfand_norm(E: AlgebraSpec, a: Element) -> float:
    """max_chi |chi(a)|; always <= norm(E, a)."""
    values = gelfand_transform(E, a)
    return float(np.max(np.abs(values))) if values.size else 0.0


def radical(E: AlgebraSpec) -> list[Element]:
    """Basis of the Jacobson radical: the common kernel of E.characters."""
    K = character_matrix(E)
    _, s, vh = np.linalg.svd(K)
    null_rows = vh[numerical_rank(s):]
    return [Element(row.conj(), E) for row in null_rows]


def semisimple_quotient(E: AlgebraSpec) -> tuple[AlgebraSpec, np.ndarray]:
    """The pointwise algebra on E.characters plus the projection a -> a-hat.

    The projection matrix K maps coordinates of a to the tuple (chi(a))_chi;
    it is a surjective unital homomorphism whose kernel is the radical.
    """
    quotient = pointwise_algebra(len(E.characters), label=f"{E.label or 'algebra'}/rad")
    return quotient, character_matrix(E)


def nilpotency_residual(E: AlgebraSpec, a: Element) -> float:
    """||a^dim||; zero (numerically) exactly for nilpotent elements."""
    power = a
    for _ in range(E.dim - 1):
        power = multiply(E, power, a)
    return norm(E, power)
