"""Gelfand theory and certified boundaries for finite-dimensional
commutative Banach algebras and vector-valued function algebras.

The package computes character spaces, Gelfand transforms, radicals and
semisimple quotients of structure-constant algebras; builds vector-valued
function systems on finite spaces (full, Lipschitz-normed, polynomial,
rational); validates the admissibility of (X, E, B, B~) quadruples and their
associated map pi(psi, x) = psi o e_x; and certifies Shilov boundaries and
peak points by convex minimax programming with certified LP brackets,
verifying the product laws

    Gamma(B~) = Gamma(E) x Gamma(B)    and    S0(B~) = S0(B) x S0(E)

exactly on finite spaces and soundly on rasterized plane regions.
"""

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    NotInvertibleError,
    complex_field,
    cyclic_group_algebra,
    dual_numbers,
    invert,
    is_invertible,
    left_multiplication_matrix,
    multiply,
    norm,
    pointwise_algebra,
    preset_algebra,
    truncated_polynomials,
    validate_algebra,
)
from .boundary import (
    BoundaryPartition,
    CertificationError,
    PeakCertificate,
    PeakProductReport,
    ProductPeaker,
    ProductTheoremReport,
    WitnessFamily,
    certify_peak,
    is_boundary,
    partition_to_csv,
    partition_to_pgm,
    reverify_certificate,
    shilov_estimate,
    synthesize_product_peaker,
    verify_peak_product,
    verify_product_theorem,
    witnesses_from_algebra,
    witnesses_from_system,
)
from .characters import (
    Character,
    GenericityFailure,
    characters,
    gelfand_norm,
    gelfand_transform,
    radical,
    semisimple_quotient,
    verify_character,
)
from .function_algebras import (
    FunctionSystem,
    Quadruple,
    Span,
    as_algebra,
    build_pi,
    check_admissible,
    check_natural,
    check_pi_injective,
    close_under_products,
    embedding_constant,
    evaluate,
    lipschitz_norm,
    lipschitz_seminorm,
    make_CXE,
    make_lip,
    make_poly,
    make_rational,
    pointwise_product,
    scalar_quadruple,
    separation_check,
    span_BE,
    span_membership,
    sup_norm,
    validate_system,
)
from .reports import CheckResult, ValidationReport, canonical_json
from .spaces import (
    Annulus,
    BoundaryUniform,
    CircleSample,
    Disk,
    EmptySampleError,
    FiniteSpace,
    InteriorGrid,
    RasterRegion,
    combine_spaces,
    polynomial_hull_raster,
    raster_from_shape,
    read_pgm,
    sample_raster,
    topological_boundary_raster,
    validate_metric,
    write_pgm,
)

__version__ = "0.1.0"
